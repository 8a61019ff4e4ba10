"""The scale harness still runs, and its committed output names what it measures.

``tests/scale_probe.py`` calls the package by name in fresh processes, so a
renamed function breaks it without failing any other test.  The harness runs
here on its two smallest rungs, one process each, through its run function.
"""

from __future__ import annotations

import json
from pathlib import Path

import scale_probe

ROOT = Path(__file__).resolve().parents[1]
RUNG_KEYS = {"name", "order", "degree", "classes", "peak_rss_mb", "seconds"}


def test_harness_runs_the_two_smallest_rungs():
    doc = scale_probe.run(scale_probe.RUNGS[:2], processes=1)
    assert set(doc) == {"command", "commit", "host", "processes", "stages", "rungs", "slopes",
                        "against"}
    assert set(doc["host"]) == {"nproc", "python", "reference_kernel_s"}
    assert doc["processes"] == 1 and doc["against"] is None
    assert doc["stages"] == list(scale_probe.STAGES) == list(doc["slopes"])
    assert [(r["name"], r["order"], r["degree"], r["classes"]) for r in doc["rungs"]] == [
        ("A5", 60, 5, 5), ("PSL(2,7)", 168, 8, 6)]
    for r in doc["rungs"]:
        assert set(r) == RUNG_KEYS and r["peak_rss_mb"] > 0
        assert list(r["seconds"]) == doc["stages"]
        assert all(t["median"] > 0 and t["iqr"] == 0 for t in r["seconds"].values())
    assert scale_probe.table(doc).count("\n| ") == 5  # header, separator, 2 rungs, slopes


def test_committed_bench_names_every_rung_and_stage():
    doc = json.loads((ROOT / "BENCH_scale.json").read_text(encoding="utf-8"))
    stages = list(scale_probe.STAGES)
    assert doc["stages"] == stages == list(doc["slopes"])
    assert doc["processes"] == scale_probe.PROCESSES
    assert [(r["name"], r["order"]) for r in doc["rungs"]] == [
        (rung.name, rung.order) for rung in scale_probe.RUNGS]
    assert all(set(r) == RUNG_KEYS and list(r["seconds"]) == stages for r in doc["rungs"])
