"""Workload inputs are a function of the seed and nothing else."""

from itertools import islice

import wl_http
import wl_pkt
import wl_place


def frames(cfg, seed):
    tenants = wl_pkt.make_tenants(cfg, seed)
    return [batch for batch, _vlans in wl_pkt.make_batches(cfg, tenants, seed)]


def test_frames_are_byte_identical_for_a_seed_and_differ_across_seeds():
    for cfg in (wl_pkt.PKT_BULK, wl_pkt.PKT_MIXED):
        assert frames(cfg, 11) == frames(cfg, 11)
        assert frames(cfg, 11) != frames(cfg, 12)


def test_rules_are_identical_for_a_seed():
    def rules(seed):
        cfg = wl_pkt.PKT_MIXED
        return [
            [(e.match, e.action, e.priority) for entries in wl_pkt._materialize(cfg, t, seed).values()
             for e in entries]
            for t in wl_pkt.make_tenants(cfg, seed)[:4]
        ]

    assert rules(3) == rules(3)
    assert rules(3) != rules(4)


def test_churn_stream_is_identical_for_a_seed():
    def stream(seed):
        return [e.to_dict() for e in wl_place.make_events(seed, 600)]

    assert stream(5) == stream(5)
    assert stream(5) != stream(6)
    assert len(stream(5)) == 600


def test_http_op_stream_is_identical_for_a_seed():
    def stream(seed, client):
        return list(islice(wl_http.make_ops(seed, client), 30))

    assert stream(9, 0) == stream(9, 0)
    assert stream(9, 0) != stream(10, 0)
    # The two clients never share a tenant id.
    paths = lambda ops: {op[1] for op in ops if op[0] != "POST"}
    assert not paths(stream(9, 0)) & paths(stream(9, 1))
