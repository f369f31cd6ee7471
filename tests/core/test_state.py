"""Tests for the incremental pipeline resource state."""

import numpy as np
import pytest

from repro.core.placement import NFAssignment
from repro.core.state import LinkState, PipelineState
from repro.errors import PlacementError
from repro.units import to_bps


@pytest.fixture()
def state(tiny_instance):
    return PipelineState(tiny_instance)


def test_initially_empty(state):
    assert state.blocks_at_stage(0) == 0
    assert state.free_blocks(0) == 4
    assert state.backplane_gbps == 0.0


def test_add_logical_nf_installs_physical(state):
    state.add_logical_nf(0, 1, 50)
    assert state.physical[0, 1]
    assert state.entries[0, 1] == 50
    assert state.blocks_at_stage(1) == 1


def test_blocks_grow_with_entries(state):
    state.add_logical_nf(0, 0, 90)   # 1 block (100-entry blocks)
    state.add_logical_nf(0, 0, 90)   # 180 entries -> 2 blocks consolidated
    assert state.blocks_at_stage(0) == 2


def test_fragmented_accounting(tiny_instance):
    state = PipelineState(tiny_instance, consolidate=False)
    state.add_logical_nf(0, 0, 60)
    state.add_logical_nf(0, 0, 60)
    # Two NFs of 60 entries: 2 blocks fragmented (vs 2 consolidated here
    # too); with 40-entry NFs the variants diverge:
    state2 = PipelineState(tiny_instance, consolidate=False)
    state2.add_logical_nf(1, 0, 40)
    state2.add_logical_nf(1, 0, 40)
    assert state2.blocks_at_stage(0) == 2
    state3 = PipelineState(tiny_instance, consolidate=True)
    state3.add_logical_nf(1, 0, 40)
    state3.add_logical_nf(1, 0, 40)
    assert state3.blocks_at_stage(0) == 1


def test_reserve_counts_idle_physical(state):
    state.install_physical(2, 0)
    assert state.blocks_at_stage(0) == 1
    # Adding rules absorbs the reserve instead of stacking on it.
    state.add_logical_nf(2, 0, 10)
    assert state.blocks_at_stage(0) == 1


def test_no_reserve_variant(tiny_instance):
    state = PipelineState(tiny_instance, reserve_physical_block=False)
    state.install_physical(0, 0)
    assert state.blocks_at_stage(0) == 0


def test_fits_rejects_overflow(state):
    # Stage has 4 blocks x 100 entries = 400 entries max.
    assert state.fits(0, 0, 400)
    assert not state.fits(0, 0, 401)


def test_fits_accounts_for_other_types(state):
    state.add_logical_nf(0, 0, 300)  # 3 blocks
    assert state.fits(1, 0, 100)     # 1 block left
    assert not state.fits(1, 0, 101)


def test_add_raises_when_no_fit(state):
    with pytest.raises(PlacementError):
        state.add_logical_nf(0, 0, 100_000)


def test_remove_logical_nf_refunds(state):
    state.add_logical_nf(0, 0, 150)
    assert state.blocks_at_stage(0) == 2
    state.remove_logical_nf(0, 0, 150)
    # Physical NF remains installed -> reserve block stays.
    assert state.physical[0, 0]
    assert state.blocks_at_stage(0) == 1
    assert state.entries[0, 0] == 0


def test_remove_more_than_present_rejected(state):
    state.add_logical_nf(0, 0, 10)
    with pytest.raises(PlacementError):
        state.remove_logical_nf(0, 0, 11)


def test_backplane_accounting(state):
    state.add_backplane(to_bps(60.0))
    with pytest.raises(PlacementError):
        state.add_backplane(to_bps(50.0))  # 110 > 100
    state.release_backplane(to_bps(30.0))
    state.add_backplane(to_bps(50.0))
    assert state.backplane_bps == to_bps(80.0)
    assert state.backplane_gbps == 80.0  # derived, and exact here


def test_backplane_tolerance_is_one_unit(state):
    """Eq. 12 keeps its 1e-9 Gbps slack: exactly one accounting unit."""
    state.add_backplane(to_bps(100.0) + 1)
    with pytest.raises(PlacementError):
        state.add_backplane(1)


def test_backplane_over_release_raises(state):
    """A release larger than what is committed is a double release, not
    float dust to clamp away: it raises and changes nothing."""
    state.add_backplane(to_bps(10.0))
    state.release_backplane(to_bps(10.0))
    with pytest.raises(PlacementError, match="over-release"):
        state.release_backplane(to_bps(10.0))
    assert state.backplane_bps == 0
    state.add_backplane(5)
    with pytest.raises(PlacementError, match="over-release"):
        state.release_backplane(6)
    assert state.backplane_bps == 5


def test_link_accounting_and_over_release():
    link = LinkState(40.0)
    link.add_load(to_bps(30.0))
    assert link.load_gbps == 30.0
    assert link.fits(to_bps(10.0)) and not link.fits(to_bps(10.0) + 2)
    with pytest.raises(PlacementError, match="capacity exceeded"):
        link.add_load(to_bps(10.5))
    link.release_load(to_bps(30.0))
    with pytest.raises(PlacementError, match="over-release"):
        link.release_load(to_bps(30.0))
    assert link.load_bps == 0


def test_snapshot_restore_roundtrip(state):
    state.add_logical_nf(0, 0, 50)
    state.add_backplane(to_bps(10.0))
    snap = state.snapshot()
    state.add_logical_nf(1, 1, 70)
    state.add_backplane(to_bps(20.0))
    state.restore(snap)
    assert state.entries[1, 1] == 0
    assert not state.physical[1, 1]
    assert state.blocks_at_stage(1) == 0
    assert state.backplane_bps == to_bps(10.0)


def test_physical_setter_recomputes(state):
    layout = np.zeros((3, 3), dtype=bool)
    layout[0, 0] = layout[1, 1] = True
    state.physical = layout
    assert state.blocks_at_stage(0) == 1
    assert state.blocks_at_stage(1) == 1
    with pytest.raises(PlacementError):
        state.physical = np.zeros((2, 2), dtype=bool)


def test_from_placement_roundtrip(tiny_instance):
    state = PipelineState(tiny_instance)
    state.add_logical_nf(0, 0, 50)
    state.add_logical_nf(1, 1, 50)
    state.add_backplane(to_bps(10.0))
    placement = state.make_placement(
        {0: NFAssignment(0, (1, 2))}, algorithm="test"
    )
    rebuilt = PipelineState.from_placement(placement)
    assert (rebuilt.entries == state.entries).all()
    assert rebuilt.backplane_bps == to_bps(10.0)
    assert rebuilt.blocks_at_stage(0) == state.blocks_at_stage(0)


def test_install_physical_requires_free_block(tiny_instance):
    state = PipelineState(tiny_instance)
    # Fill stage 0 completely with type-0 entries (4 blocks).
    state.add_logical_nf(0, 0, 400)
    with pytest.raises(PlacementError):
        state.install_physical(1, 0)
