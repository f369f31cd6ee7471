"""FabricTopology model: validation, lookups, and the canned shapes."""

import pytest

from repro.core.spec import SwitchSpec
from repro.errors import PlacementError
from repro.fabric import FabricLink, FabricTopology, SwitchNode, link_key


def test_link_key_is_order_independent():
    assert link_key("sw1", "sw0") == ("sw0", "sw1")
    assert link_key("sw0", "sw1") == ("sw0", "sw1")
    assert FabricLink("sw1", "sw0").key == ("sw0", "sw1")


def test_node_validation():
    with pytest.raises(PlacementError):
        SwitchNode("")
    with pytest.raises(PlacementError):
        SwitchNode("sw0", max_recirculations=-1)


def test_link_validation():
    with pytest.raises(PlacementError):
        FabricLink("sw0", "sw0")
    with pytest.raises(PlacementError):
        FabricLink("sw0", "sw1", capacity_gbps=0.0)


def test_topology_rejects_duplicates_and_dangling_links():
    with pytest.raises(PlacementError):
        FabricTopology([SwitchNode("sw0"), SwitchNode("sw0")])
    with pytest.raises(PlacementError):
        FabricTopology([])
    nodes = [SwitchNode("sw0"), SwitchNode("sw1")]
    with pytest.raises(PlacementError):
        FabricTopology(nodes, [FabricLink("sw0", "ghost")])
    with pytest.raises(PlacementError):
        FabricTopology(
            nodes, [FabricLink("sw0", "sw1"), FabricLink("sw1", "sw0")]
        )


def test_lookups():
    topo = FabricTopology(
        [SwitchNode("b"), SwitchNode("a"), SwitchNode("c")],
        [FabricLink("a", "b", 100.0), FabricLink("b", "c", 200.0)],
    )
    assert topo.switch_names == ["a", "b", "c"]
    assert topo.links[link_key("b", "a")].capacity_gbps == 100.0
    assert link_key("a", "c") not in topo.links
    assert topo.neighbors("b") == ["a", "c"]
    assert topo.neighbors("a") == ["b"]
    with pytest.raises(PlacementError):
        topo.neighbors("ghost")


def test_full_mesh_shape():
    topo = FabricTopology.full_mesh(4, link_capacity_gbps=123.0)
    assert topo.switch_names == ["sw0", "sw1", "sw2", "sw3"]
    assert len(topo.links) == 6  # n*(n-1)/2
    for link in topo.links.values():
        assert link.capacity_gbps == 123.0
    assert topo.neighbors("sw2") == ["sw0", "sw1", "sw3"]


def test_ring_shape():
    assert len(FabricTopology.ring(1).links) == 0
    assert len(FabricTopology.ring(2).links) == 1
    topo = FabricTopology.ring(5)
    assert len(topo.links) == 5
    assert topo.neighbors("sw0") == ["sw1", "sw4"]
    with pytest.raises(PlacementError):
        FabricTopology.ring(0)
    with pytest.raises(PlacementError):
        FabricTopology.full_mesh(0)


def test_heterogeneous_specs_survive():
    small = SwitchSpec(stages=2, blocks_per_stage=2)
    topo = FabricTopology(
        [SwitchNode("big"), SwitchNode("small", spec=small, max_recirculations=0)]
    )
    assert topo.nodes["small"].spec.stages == 2
    assert topo.nodes["small"].max_recirculations == 0
    assert topo.nodes["big"].max_recirculations == 2
