"""Tests for the P4 IR, dependency analysis, and stage allocation."""

import pytest

from repro.errors import DataPlaneError, ResourceExhaustedError
from repro.nfs import get_nf
from repro.p4 import (
    DependencyKind,
    P4Condition,
    P4Program,
    P4Table,
    allocate_stages,
    build_dependency_graph,
    chain_program,
)
from repro.p4.allocate import nf_stage_spans
from repro.p4.dependency import classify, critical_path_stages


class TestIR:
    def test_table_requires_name(self):
        with pytest.raises(DataPlaneError):
            P4Table(name="")

    def test_tables_walks_branches_in_order(self):
        a = P4Table("a")
        b = P4Table("b")
        c = P4Table("c")
        prog = P4Program(
            "p",
            [
                a,
                P4Condition("proto == tcp", reads=("protocol",),
                            then_branch=(b,), else_branch=(c,)),
            ],
        )
        assert [t.name for t in prog.tables()] == ["a", "b", "c"]

    def test_duplicate_table_names_rejected(self):
        prog = P4Program("p", [P4Table("a"), P4Table("a")])
        with pytest.raises(DataPlaneError):
            prog.tables()

    def test_table_by_name(self):
        prog = P4Program("p", [P4Table("a", reads=("dst_ip",))])
        assert prog.table_by_name("a").reads == ("dst_ip",)
        with pytest.raises(DataPlaneError):
            prog.table_by_name("zzz")

    def test_chain_program_prefixes_positions(self):
        prog = chain_program([get_nf("firewall"), get_nf("firewall")])
        names = [t.name for t in prog.tables()]
        assert names == ["nf0_tab_firewall", "nf1_tab_firewall"]


class TestDependencies:
    def test_match_dependency(self):
        w = P4Table("w", writes=("dst_ip",))
        r = P4Table("r", reads=("dst_ip",))
        assert classify(w, r) is DependencyKind.MATCH
        assert DependencyKind.MATCH.min_stage_gap == 1

    def test_action_dependency(self):
        a = P4Table("a", writes=("dst_ip",))
        b = P4Table("b", writes=("dst_ip",))
        assert classify(a, b) is DependencyKind.ACTION

    def test_reverse_match_dependency(self):
        r = P4Table("r", reads=("dst_ip",))
        w = P4Table("w", writes=("dst_ip",))
        assert classify(r, w) is DependencyKind.REVERSE_MATCH
        assert DependencyKind.REVERSE_MATCH.min_stage_gap == 0

    def test_match_beats_weaker_kinds(self):
        a = P4Table("a", reads=("x",), writes=("y",))
        b = P4Table("b", reads=("y",), writes=("x",))
        assert classify(a, b) is DependencyKind.MATCH

    def test_independent_tables(self):
        a = P4Table("a", reads=("src_ip",))
        b = P4Table("b", reads=("dst_ip",))
        assert classify(a, b) is None

    def test_graph_structure_for_lb(self):
        prog = chain_program([get_nf("load_balancer")])
        graph = build_dependency_graph(prog)
        assert graph.has_edge("nf0_tab_lbhash", "nf0_tab_lbselect")
        kind = graph.edges["nf0_tab_lbhash", "nf0_tab_lbselect"]["kind"]
        assert kind is DependencyKind.MATCH

    def test_critical_path(self):
        prog = chain_program([get_nf("load_balancer")])
        graph = build_dependency_graph(prog)
        # lb -> lbselect (action dep) and lbhash -> lbselect (match dep):
        # 2 levels.
        assert critical_path_stages(graph) == 2

    def test_critical_path_empty_program(self):
        graph = build_dependency_graph(P4Program("p", []))
        assert critical_path_stages(graph) == 0


class TestAllocation:
    def test_independent_tables_share_stage(self):
        prog = P4Program("p", [P4Table("a", reads=("src_ip",)),
                               P4Table("b", reads=("dst_ip",))])
        alloc = allocate_stages(prog, num_stages=4, tables_per_stage=8)
        assert alloc.stages["a"] == alloc.stages["b"] == 0
        assert alloc.num_stages_used == 1

    def test_match_dependency_forces_next_stage(self):
        prog = P4Program("p", [P4Table("w", writes=("dst_ip",)),
                               P4Table("r", reads=("dst_ip",))])
        alloc = allocate_stages(prog, num_stages=4)
        assert alloc.stages["r"] == alloc.stages["w"] + 1

    def test_reverse_match_allows_same_stage(self):
        prog = P4Program("p", [P4Table("r", reads=("dst_ip",)),
                               P4Table("w", writes=("dst_ip",))])
        alloc = allocate_stages(prog, num_stages=4)
        assert alloc.stages["w"] == alloc.stages["r"]

    def test_capacity_spills_to_next_stage(self):
        prog = P4Program("p", [P4Table(f"t{i}") for i in range(5)])
        alloc = allocate_stages(prog, num_stages=4, tables_per_stage=2)
        by_stage = alloc.tables_by_stage()
        assert len(by_stage[0]) == 2 and len(by_stage[1]) == 2 and len(by_stage[2]) == 1

    def test_overflow_raises(self):
        prog = P4Program("p", [P4Table(f"t{i}") for i in range(5)])
        with pytest.raises(ResourceExhaustedError):
            allocate_stages(prog, num_stages=2, tables_per_stage=2)

    def test_dependency_overflow_raises(self):
        # A chain of 3 match-dependent tables cannot fit 2 stages.
        prog = P4Program(
            "p",
            [
                P4Table("a", writes=("dst_ip",)),
                P4Table("b", reads=("dst_ip",), writes=("src_ip",)),
                P4Table("c", reads=("src_ip",)),
            ],
        )
        with pytest.raises(ResourceExhaustedError):
            allocate_stages(prog, num_stages=2)

    def test_fig2_chain_spans(self):
        chain = [get_nf(n) for n in ("firewall", "traffic_classifier",
                                     "load_balancer", "router")]
        prog = chain_program(chain)
        alloc = allocate_stages(prog, num_stages=12, tables_per_stage=4)
        spans = nf_stage_spans(prog, alloc)
        assert spans["nf0"] == 1          # firewall: one big table
        assert spans["nf2"] >= 2          # LB spans stages (sub-NFs)

    def test_lb_spans_two_stages(self):
        # The load balancer's three-table program (Fig. 2) needs two MAUs:
        # tab_lbhash -> tab_lbselect is a match dependency.
        prog = chain_program([get_nf("load_balancer")])
        alloc = allocate_stages(prog, num_stages=12, tables_per_stage=8)
        assert alloc.span("nf0_") == 2

    def test_span_of_unknown_prefix_is_zero(self):
        prog = chain_program([get_nf("firewall")])
        alloc = allocate_stages(prog)
        assert alloc.span("nf9_") == 0
