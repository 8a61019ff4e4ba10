"""Behaviour contract: CLI outputs replayed byte for byte.

``tests/golden/cases.json`` lists each case's argv (paths relative to the
repository root), exit code and standard error; its standard output is
``tests/golden/<name>.out``.  Every case runs through ``cli.main`` in this one
process, so the replay also exercises the reuse of the CLI parser.

Regenerate after an intended output change (and name the change in
CHANGES.md) with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from hurwitzdegen.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
DATUM = "docs/examples/a5_dihedral_datum.json"


def golden_argvs() -> dict[str, list[str]]:
    """Case name -> argv, for every output the contract pins."""
    cases = {
        "analyze": ["analyze", DATUM],
        "analyze_pretty": ["analyze", DATUM, "--pretty"],
        "character": ["character", DATUM],
        "character_json": ["character", DATUM, "--json"],
    }
    for path in sorted((ROOT / "docs" / "examples").glob("*tuple*.json")):
        rel = path.relative_to(ROOT).as_posix()
        cases[f"degenerate_splits_{path.stem}"] = ["degenerate", rel, "--splits"]
        entries = json.loads(path.read_text(encoding="utf-8"))["entries"]
        for i in range(len(entries)):
            cases[f"degenerate_dihedral{i}_dedup_{path.stem}"] = [
                "degenerate", rel, "--dihedral", str(i), "--dedup"]
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


def load_cases() -> dict[str, dict]:
    return json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def test_golden_cases_cover_the_examples():
    assert list(load_cases()) == list(golden_argvs())


@pytest.mark.parametrize("name", list(golden_argvs()))
def test_golden_output(name, monkeypatch):
    case = load_cases()[name]
    assert case["argv"] == golden_argvs()[name]
    monkeypatch.chdir(ROOT)
    code, out, err = run_main(case["argv"])
    assert code == case["code"]
    assert err == case["stderr"]
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


def regenerate() -> None:
    """Write every golden output from the code on the import path."""
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    manifest = {}
    for name, argv in golden_argvs().items():
        code, out, err = run_main(argv)
        (GOLDEN / f"{name}.out").write_bytes(out.encode("utf-8"))
        manifest[name] = {"argv": argv, "code": code, "stderr": err}
    (GOLDEN / "cases.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
