"""Behaviour contract: CLI outputs replayed byte for byte.

``tests/golden/cases.json`` lists each case's argv (paths relative to the
repository root; inputs that are not docs examples are in
``tests/golden/data``, or in ``tests/golden/invalid`` if they fail
validation), exit code and standard error; its standard output is
``tests/golden/<name>.out``.  A ``graph`` case writes its DOT text to the file
named after ``--dot``: the argv holds the placeholder ``DOT_OUT``, the case
runs with a temporary file in its place, and ``<name>.out`` holds the bytes
written there (its standard output must stay empty).  Every case runs through ``cli.main`` in this one
process, so the replay also exercises the reuse of the CLI parser.

Regenerate after an intended output change (and name the change in
CHANGES.md) with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from hurwitzdegen.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
DATUM = "docs/examples/a5_dihedral_datum.json"
SPLIT_DATUM = "docs/examples/a5_split_datum.json"
# a cover connected only through a dihedral point's s, and a disconnected cover
BRIDGE_DATUM = "tests/golden/data/s3_dihedral_bridge_datum.json"
DISCONNECTED_DATUM = "tests/golden/data/s5_disconnected_datum.json"
# fails validation (two violations) and has an unstable component: analyze exits 2
INVALID_DATUM = "tests/golden/invalid/s3_unstable_invalid_datum.json"
DOT_OUT = "DOT_OUT"


def golden_argvs() -> dict[str, list[str]]:
    """Case name -> argv, for every output the contract pins."""
    cases = {
        "analyze": ["analyze", DATUM],
        "analyze_pretty": ["analyze", DATUM, "--pretty"],
        "analyze_s3_dihedral_bridge": ["analyze", BRIDGE_DATUM],
        "analyze_s5_disconnected": ["analyze", DISCONNECTED_DATUM],
        "analyze_pretty_s5_disconnected": ["analyze", DISCONNECTED_DATUM, "--pretty"],
        "analyze_s3_unstable_invalid": ["analyze", INVALID_DATUM],
        "analyze_pretty_s3_unstable_invalid": ["analyze", INVALID_DATUM, "--pretty"],
        "character": ["character", DATUM],
        "character_json": ["character", DATUM, "--json"],
        "graph_quotient": ["graph", DATUM, "--which", "quotient", "--dot", DOT_OUT],
        "graph_cover": ["graph", DATUM, "--which", "cover", "--dot", DOT_OUT],
        "graph_quotient_split": ["graph", SPLIT_DATUM, "--which", "quotient", "--dot", DOT_OUT],
        "graph_cover_split": ["graph", SPLIT_DATUM, "--which", "cover", "--dot", DOT_OUT],
        "graph_quotient_s3_dihedral_bridge":
            ["graph", BRIDGE_DATUM, "--which", "quotient", "--dot", DOT_OUT],
        "graph_cover_s3_dihedral_bridge":
            ["graph", BRIDGE_DATUM, "--which", "cover", "--dot", DOT_OUT],
        "graph_quotient_s5_disconnected":
            ["graph", DISCONNECTED_DATUM, "--which", "quotient", "--dot", DOT_OUT],
        "graph_cover_s5_disconnected":
            ["graph", DISCONNECTED_DATUM, "--which", "cover", "--dot", DOT_OUT],
    }
    for path in sorted((ROOT / "docs" / "examples").glob("*tuple*.json")):
        rel = path.relative_to(ROOT).as_posix()
        cases[f"degenerate_splits_{path.stem}"] = ["degenerate", rel, "--splits"]
        entries = json.loads(path.read_text(encoding="utf-8"))["entries"]
        for i in range(len(entries)):
            cases[f"degenerate_dihedral{i}_dedup_{path.stem}"] = [
                "degenerate", rel, "--dihedral", str(i), "--dedup"]
    # without --dedup: every involution that a degeneration prints at one index
    for stem, i in (("a5_tuple", 0), ("psl27_tuple", 1)):
        cases[f"degenerate_dihedral{i}_{stem}"] = [
            "degenerate", f"docs/examples/{stem}.json", "--dihedral", str(i)]
    cases["verify_examples"] = ["verify-examples"]
    return cases


def run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_case(argv: list[str]) -> tuple[int, str, str]:
    """``run_main``, with a ``graph`` case's DOT file read back as its output."""
    if DOT_OUT not in argv:
        return run_main(argv)
    with tempfile.TemporaryDirectory() as tmp:
        dot = Path(tmp) / "out.dot"
        code, out, err = run_main([str(dot) if a == DOT_OUT else a for a in argv])
        assert out == ""
        return code, dot.read_bytes().decode("utf-8"), err


def load_cases() -> dict[str, dict]:
    return json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def test_golden_cases_cover_the_examples():
    assert list(load_cases()) == list(golden_argvs())


@pytest.mark.parametrize("name", list(golden_argvs()))
def test_golden_output(name, monkeypatch):
    case = load_cases()[name]
    assert case["argv"] == golden_argvs()[name]
    monkeypatch.chdir(ROOT)
    code, out, err = run_case(case["argv"])
    assert code == case["code"]
    assert err == case["stderr"]
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", [n for n, argv in golden_argvs().items()
                                  if argv[0] != "graph"])
def test_reports_build_no_cover(name, monkeypatch):
    # analyze, character, degenerate and verify-examples read the cover off
    # the graph of groups: neither the explicit cover nor a coset table is built
    def fail(*args, **kwargs):
        raise AssertionError("a report built the explicit cover or a coset table")

    for module in [m for n, m in sys.modules.items() if n.startswith("hurwitzdegen")]:
        for attr in ("build_cover", "left_cosets"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, fail)
    monkeypatch.chdir(ROOT)
    case = load_cases()[name]
    code, out, err = run_case(case["argv"])
    assert (code, err) == (case["code"], case["stderr"])
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


def regenerate() -> None:
    """Write every golden output from the code on the import path."""
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    manifest = {}
    for name, argv in golden_argvs().items():
        code, out, err = run_case(argv)
        (GOLDEN / f"{name}.out").write_bytes(out.encode("utf-8"))
        manifest[name] = {"argv": argv, "code": code, "stderr": err}
    (GOLDEN / "cases.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
