"""BENCHMARK.json says what catalog.py says, within the driver's limits."""

import json
import os
import re

import catalog

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", ".."))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == catalog.benchmark_json()


def test_names_units_and_bounds_fit_the_contract():
    names = [m.name for m in catalog.END_TO_END] + [m.name for m in catalog.PER_LAYER]
    names += list(catalog.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m.unit) for m in catalog.END_TO_END + catalog.PER_LAYER)
    assert all(m.better in ("lower", "higher") for m in catalog.END_TO_END + catalog.PER_LAYER)
    assert all(0 < m.bound <= 0.25 for m in catalog.END_TO_END)
    assert any(m.name == "setup_s" and m.unit == "s" and m.better == "lower" for m in catalog.END_TO_END)
    assert 2 <= len(catalog.WORKLOADS) <= 8 and len(catalog.PER_LAYER) <= 128
    assert all(len(why) <= 200 and "\n" not in why for why in catalog.WORKLOADS.values())
