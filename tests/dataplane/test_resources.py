"""Unit tests for per-stage SRAM block accounting."""

import pytest

from repro.dataplane.resources import StageResources
from repro.errors import ResourceExhaustedError


@pytest.fixture()
def sram():
    return StageResources(blocks_total=4, entries_per_block=100)


def test_reserve_and_free(sram):
    sram.reserve("fw")
    assert sram.blocks_used == 1
    assert sram.blocks_free == 3


def test_duplicate_reservation_rejected(sram):
    sram.reserve("fw")
    with pytest.raises(ResourceExhaustedError):
        sram.reserve("fw")


def test_reserve_beyond_capacity_rejected(sram):
    sram.reserve("a", blocks=4)
    with pytest.raises(ResourceExhaustedError):
        sram.reserve("b")


def test_reserve_zero_blocks_rejected(sram):
    with pytest.raises(ResourceExhaustedError):
        sram.reserve("fw", blocks=0)


def test_charge_grows_blocks(sram):
    sram.reserve("fw")
    sram.charge_entries("fw", 100)
    assert sram.blocks_used == 1
    sram.charge_entries("fw", 1)
    assert sram.blocks_used == 2


def test_charge_beyond_capacity_rejected(sram):
    sram.reserve("fw")
    with pytest.raises(ResourceExhaustedError):
        sram.charge_entries("fw", 401)
    # Failed charge must not leak partial state.
    assert sram.entries_used == 0
    assert sram.blocks_used == 1


def test_charge_unknown_owner_rejected(sram):
    with pytest.raises(ResourceExhaustedError):
        sram.charge_entries("ghost", 1)


def test_refund_shrinks_but_keeps_boot_block(sram):
    sram.reserve("fw")
    sram.charge_entries("fw", 250)
    assert sram.blocks_used == 3
    sram.refund_entries("fw", 250)
    assert sram.blocks_used == 1
    assert sram.entries_used == 0


def test_refund_more_than_used_rejected(sram):
    sram.reserve("fw")
    sram.charge_entries("fw", 10)
    with pytest.raises(ResourceExhaustedError):
        sram.refund_entries("fw", 11)


def test_release(sram):
    sram.reserve("fw")
    sram.release("fw")
    assert sram.blocks_used == 0
    with pytest.raises(ResourceExhaustedError):
        sram.release("fw")


def test_entry_utilization(sram):
    assert sram.entry_utilization == 0.0
    sram.reserve("fw")
    sram.charge_entries("fw", 50)
    assert sram.entry_utilization == pytest.approx(0.5)
    sram.reserve("lb")
    sram.charge_entries("lb", 150)  # 2 blocks
    # 200 entries in 3 blocks of 100.
    assert sram.entry_utilization == pytest.approx(200 / 300)


def test_multiple_owners_share_stage(sram):
    sram.reserve("fw")
    sram.reserve("lb")
    sram.charge_entries("fw", 100)
    sram.charge_entries("lb", 150)
    assert sram.blocks_used == 3
    with pytest.raises(ResourceExhaustedError):
        sram.charge_entries("lb", 200)


def test_refund_never_shrinks_below_the_boot_reservation(sram):
    sram.reserve("fw", blocks=4)
    sram.charge_entries("fw", 1)
    sram.refund_entries("fw", 1)
    assert sram.reservations["fw"].blocks == 4
    assert sram.blocks_free == 0


@pytest.mark.parametrize("boot", [1, 2])
@pytest.mark.parametrize("charged, refunded", [(250, 250), (250, 120), (90, 1), (300, 299)])
def test_run_refund_leaves_what_per_op_refunds_leave(boot, charged, refunded):
    run, each = (StageResources(blocks_total=4, entries_per_block=100) for _ in "ab")
    for sram in (run, each):
        sram.reserve("fw", blocks=boot)
        sram.charge_entries("fw", charged)
    run.refund_entries("fw", refunded)
    for _ in range(refunded):
        each.refund_entries("fw", 1)
    assert run.reservations["fw"] == each.reservations["fw"]
    assert run.reservation_state("fw") == each.reservation_state("fw")
