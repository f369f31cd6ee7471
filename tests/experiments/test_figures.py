"""The packet-level checks behind Figs. 4 and 5.

Every figure's rows and shape on its smoke grid are pinned by
``test_figure_contract.py``; these tests cover what those rows summarise:
the functional pipeline check, the recirculating probe and the notes.
"""

import pytest

from repro.experiments import fig4_throughput, fig5_latency


class TestFig4:
    def test_columns_and_saturation(self):
        r = fig4_throughput.run(packet_sizes=(64, 1500), seed=1)
        assert r.column("packet_bytes") == [64, 1500]
        assert all(v == pytest.approx(100.0) for v in r.column("sfp_gbps"))
        assert r.rows[0]["speedup"] > r.rows[1]["speedup"]

    def test_functional_check_runs_packets(self):
        check = fig4_throughput.functional_check(seed=2, packets=32)
        assert check["packets"] == 32
        assert check["delivered"] + check["dropped"] == 32
        assert check["entries_installed"] > 0

    def test_notes_mention_offload_footprint(self):
        r = fig4_throughput.run(packet_sizes=(64,), seed=1)
        assert any("722" in n for n in r.notes)


class TestFig5:
    def test_recirculation_probe_makes_four_passes(self):
        assert fig5_latency.recirculating_passes(seed=1) == 4

    def test_series_values(self):
        r = fig5_latency.run(packet_sizes=(64,), seed=1)
        row = r.rows[0]
        assert row["sfp_ns"] < row["sfp_recir_ns"] < row["dpdk_ns"]

