"""Unit tests for action primitives and the registry."""

import pytest

from repro.dataplane.action import default_actions
from repro.dataplane.packet import Packet
from repro.dataplane.registers import CounterArray
from repro.errors import DataPlaneError


@pytest.fixture()
def actions():
    return default_actions()


def _run(actions, name, packet, **params):
    actions.resolve(name).fn(packet, params)


def test_no_op_leaves_packet(actions):
    p = Packet(dst_ip=5)
    _run(actions, "no_op", p)
    assert p.dst_ip == 5 and not p.dropped and not p.recirculate


def test_rec_argument_sets_recirculate(actions):
    p = Packet()
    _run(actions, "no_op", p, rec=True)
    assert p.recirculate


def test_rec_false_does_not_recirculate(actions):
    p = Packet()
    _run(actions, "permit", p, rec=False)
    assert not p.recirculate


def test_drop(actions):
    p = Packet()
    _run(actions, "drop", p)
    assert p.dropped


def test_set_dscp(actions):
    p = Packet()
    _run(actions, "set_dscp", p, dscp=46)
    assert p.dscp == 46


def test_set_dst_rewrites(actions):
    p = Packet(dst_ip=1, dst_port=80)
    _run(actions, "set_dst", p, dst_ip=99, dst_port=8080)
    assert (p.dst_ip, p.dst_port) == (99, 8080)


def test_set_dst_port_optional(actions):
    p = Packet(dst_port=80)
    _run(actions, "set_dst", p, dst_ip=99)
    assert p.dst_port == 80


def test_snat(actions):
    p = Packet(src_ip=1, src_port=1000)
    _run(actions, "snat", p, src_ip=42, src_port=2000)
    assert (p.src_ip, p.src_port) == (42, 2000)


def test_forward_sets_egress(actions):
    p = Packet()
    _run(actions, "forward", p, port=7)
    assert p.egress_port == 7


def test_rate_limit_consumes_tokens(actions):
    p = Packet()
    for _ in range(3):
        _run(actions, "rate_limit", p, bucket="b", burst=3)
    assert not p.dropped
    _run(actions, "rate_limit", p, bucket="b", burst=3)
    assert p.dropped


def test_count_increments(actions):
    p = Packet()
    _run(actions, "count", p, counter="c")
    _run(actions, "count", p, counter="c")
    assert p.scratch["_counters"]["c"] == 2


def test_count_extern_adds_packets_and_bytes(actions):
    counters = CounterArray("c", size=2)
    for size in (64, 1500):
        _run(actions, "count_extern", Packet(size_bytes=size),
             counter=counters, index=1)
    assert counters.read(1) == (2, 1564)
    assert counters.read(0) == (0, 0)


def test_unknown_action_rejected(actions):
    with pytest.raises(DataPlaneError):
        actions.resolve("teleport")


def test_resolve_returns_the_call_built_at_registration(actions):
    call = actions.resolve("set_dscp")
    assert actions.resolve("set_dscp") is call
    assert call.name == "set_dscp"
    with pytest.raises(DataPlaneError):
        actions.resolve("set_dscpp")


def test_duplicate_registration_rejected(actions):
    with pytest.raises(DataPlaneError):
        actions.register("drop", lambda p, params: None)


def test_registry_names_sorted(actions):
    names = actions.names()
    assert names == sorted(names)
    assert "no_op" in names
