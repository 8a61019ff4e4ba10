"""The CLI runs replayed on every committed input, with the exit code each must give.

Every command runs on every file in ``docs/examples`` and ``tests/golden/data``,
tuple or datum, and on each datum or tuple in ``tests/golden/invalid``, which
fails validation.  ``degenerate`` runs with ``--splits`` and with ``--dihedral`` at
each cyclic point, each with and without ``--dedup``.  ``test_cli.py``
replays every run in process; only the CI step that compares each run with
its run under ``python -O`` still builds its run list here, from the
repository root with ``src`` and ``tests`` on the import path.
"""

from __future__ import annotations

import json
from pathlib import Path

from hurwitzdegen import BoundaryDatum, datum_from_jsonable

ROOT = Path(__file__).resolve().parents[1]
VALID = ("docs/examples", "tests/golden/data")
INVALID = ("tests/golden/invalid",)


def degenerate_flags(datum: BoundaryDatum) -> list[list[str]]:
    """``degenerate``'s flag sets: the splits, and each cyclic point as
    ``--dihedral`` names it, ``INDEX`` on component 0 and ``CI:INDEX`` past it."""
    points = [str(pi) if ci == 0 else f"{ci}:{pi}" for ci, comp in enumerate(datum.components)
              for pi, pt in enumerate(comp.points) if pt.kind == "cyclic"]
    return [[*head, *dedup] for head in (["--splits"], *(["--dihedral", p] for p in points))
            for dedup in ([], ["--dedup"])]


def file_runs(path: str, datum: BoundaryDatum, dot: str) -> list[list[str]]:
    """Every command on one input file; ``graph`` writes to ``dot``."""
    return [["analyze", path], ["analyze", path, "--pretty"],
            ["character", path, "--json"], ["character", path],
            *(["graph", path, "--which", which, "--dot", dot] for which in ("quotient", "cover")),
            *(["degenerate", path, *flags] for flags in degenerate_flags(datum))]


def inputs(dirs: tuple[str, ...]) -> list[tuple[str, BoundaryDatum]]:
    """(path from the repository root, its datum) for each JSON file in ``dirs``."""
    paths = sorted(p for d in dirs for p in (ROOT / d).glob("*.json"))
    return [(p.relative_to(ROOT).as_posix(),
             datum_from_jsonable(json.loads(p.read_text(encoding="utf-8")))) for p in paths]


def cli_runs(dot: str) -> list[tuple[list[str], int]]:
    """(argv, exit code): ``verify-examples``, then every command on every
    input; an invalid datum or tuple exits 2."""
    runs = [(["verify-examples"], 0)]
    for dirs, code in ((VALID, 0), (INVALID, 2)):
        runs += [(argv, code) for path, datum in inputs(dirs)
                 for argv in file_runs(path, datum, dot)]
    return runs


def prints_json(argv: list[str], code: int) -> bool:
    """Whether the run prints one JSON report: ``analyze`` does at exit 0
    and 2, ``character --json`` and ``degenerate`` only at exit 0."""
    if argv[0] == "analyze":
        return "--pretty" not in argv
    return code == 0 and (argv[0] == "degenerate" or "--json" in argv)
