#!/usr/bin/env python3
"""The scale harness: stage times and peak memory on a fixed ladder of rungs.

    python tests/scale_probe.py [--against SRC]

Each rung is one fixed datum, from |G| = 60 to 285,852, built here once
with the package from this checkout's ``src``:

- A5 (60) and PSL(2,7) (168): ``docs/examples/a5_dihedral_datum.json`` and
  ``docs/examples/psl27_tuple.json``;
- PSL(2,19), M11, A8, PSL(2,41) and M12, then PSL(2,19) and PSL(2,41) on 300
  points (the points past p + 1 fixed, so that elements are stored as
  tuples): a dihedral datum on an A5 image (``a5_image_datum``);
- PSL(2,83) (285,852): a seeded (2,3,7) generating tuple, whose vertex group
  is G, and its dihedral datum at the order-7 point (``hurwitz_data``).

Five fresh processes per rung run its datum through the ``STAGES``, in
order: ``closure`` (``PermGroup`` on the datum's generators), ``load``
(``datum_from_jsonable``, its own closure included), ``classes``,
``graph_of_groups``, ``cover_report``, ``characters`` (``de_rham_character``),
``json_out`` (``cli.json_dump`` of the ``analyze`` report) and ``records``
(the class record of every non-central class).  ``perfbench/hostclock.py``
times each stage and adjusts it to the host at full speed.  A process
asserts |G| and reads its peak resident set before the records.  Whole
processes are the unit, since one process's repeated runs spread less than
fresh processes do.

``--against SRC`` names a second checkout, whose ``src`` holds the package.
Its processes run the same data files and alternate with this checkout's,
process by process, so that both read the same phases of the host.

Prints one markdown table of medians and writes ``BENCH_scale.json`` at the
repository root: the command, the commit, the host (``nproc``, the Python
version and the reference kernel's median time here, against
``hostclock.REF_S`` at full speed); per rung |G|, the degree, the class
count, the peak RSS and each stage's median and IQR in seconds; and per
stage the log-log slope of the median against |G| over the rungs of degree
at most 256.  The second checkout's rungs and slopes go under ``against``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(PERFBENCH))

import hostclock  # noqa: E402
from hurwitzdegen import PermGroup, inverting_involutions  # noqa: E402

from conftest import A8_GENERATORS, mathieu_generators, psl2_generators  # noqa: E402

STAGES = ("closure", "load", "classes", "graph_of_groups", "cover_report", "characters",
          "json_out", "records")
PROCESSES = 5
HURWITZ_SEED = 83


def _by_order(G: PermGroup) -> dict[int, list[int]]:
    """G's ids by element order, each list in the order of the permutations:
    a rule on them does not depend on how the closure numbers G."""
    out: dict[int, list[int]] = {}
    for c in G.conjugacy_classes():
        out.setdefault(G.element_order(c[0]), []).extend(c)
    for ids in out.values():
        ids.sort(key=G.elements.__getitem__)
    return out


def _datum(G: PermGroup, entries: list[int], index: int) -> dict:
    """The one-component genus-0 datum on ``entries``, the point at ``index``
    dihedral with the least involution inverting its m."""
    s = min(inverting_involutions(G, entries[index]), key=G.elements.__getitem__)
    points = [{"kind": "cyclic", "m": list(G.perm(m))} for m in entries]
    points[index] = {"kind": "dihedral", "m": points[index]["m"], "s": list(G.perm(s))}
    return {"group": G.to_jsonable(), "components": [{"genus": 0, "handles": [], "points": points}]}


def a5_image_datum(gens: list) -> dict:
    """A dihedral datum on an A5 image in G = <gens>: m the least element of
    order 5, g the least involution with h = (m g)^-1 of order 3, and the
    point of m dihedral.  <m, g> is a quotient of the (2,3,5) triangle
    group, which is A5, so it is A5."""
    G = PermGroup(gens)
    orders = _by_order(G)
    m = orders[5][0]
    g = next(g for g in orders[2] if G.element_order(G.mul(m, g)) == 3)
    return _datum(G, [m, g, G.inv(G.mul(m, g))], 0)


@cache
def hurwitz_data(p: int) -> tuple[dict, dict]:
    """A (2,3,7) generating tuple of PSL(2, p), drawn with ``HURWITZ_SEED``
    from its involutions and its elements of order 3 until the third entry
    has order 7, and its dihedral datum at that order-7 point."""
    G = PermGroup(psl2_generators(p))
    orders, rng = _by_order(G), random.Random(HURWITZ_SEED)
    while True:
        x, y = rng.choice(orders[2]), rng.choice(orders[3])
        if G.element_order(G.mul(x, y)) == 7:
            break
    assert G.generated_subgroup([x, y]).order == G.order
    entries = [x, y, G.inv(G.mul(x, y))]
    return ({"group": G.to_jsonable(), "entries": [list(G.perm(e)) for e in entries]},
            _datum(G, entries, 2))


def _example(name: str) -> Callable[[], dict]:
    return lambda: json.loads((ROOT / "docs/examples" / name).read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Rung:
    name: str
    order: int
    build: Callable[[], dict]  # the datum's JSON


RUNGS = (
    Rung("A5", 60, _example("a5_dihedral_datum.json")),
    Rung("PSL(2,7)", 168, _example("psl27_tuple.json")),
    Rung("PSL(2,19)", 3420, lambda: a5_image_datum(psl2_generators(19))),
    Rung("M11", 7920, lambda: a5_image_datum(mathieu_generators(11))),
    Rung("A8", 20160, lambda: a5_image_datum(A8_GENERATORS)),
    Rung("PSL(2,41)", 34440, lambda: a5_image_datum(psl2_generators(41))),
    Rung("M12", 95040, lambda: a5_image_datum(mathieu_generators(12))),
    Rung("PSL(2,83) tuple", 285852, lambda: hurwitz_data(83)[0]),
    Rung("PSL(2,83) dihedral", 285852, lambda: hurwitz_data(83)[1]),
    Rung("PSL(2,19) on 300 points", 3420, lambda: a5_image_datum(psl2_generators(19, 300))),
    Rung("PSL(2,41) on 300 points", 34440, lambda: a5_image_datum(psl2_generators(41, 300))),
)

# one process on one rung: argv is the tree's src, perfbench, the datum file and |G|
_ONE_PROCESS = """
import contextlib, io, json, sys
src, perfbench, path, order = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
sys.path[:0] = [src, perfbench]
import hostclock, hurwitzdegen
from pathlib import Path
from hurwitzdegen import (PermGroup, cover_report, datum_from_jsonable, de_rham_character,
                          dual_graph_of_groups)
from hurwitzdegen.cli import analyze_datum, json_dump
assert Path(hurwitzdegen.__file__).resolve().parent == Path(src, "hurwitzdegen").resolve()
obj = json.loads(Path(path).read_text(encoding="utf-8"))
clock, seconds = hostclock.HostClock(), {}

def stage(name, fn, *args):
    result, _, seconds[name] = clock.time(fn, *args)
    return result

def json_out(report):
    with contextlib.redirect_stdout(io.StringIO()):
        json_dump(report)

def records(G):
    for c in G.conjugacy_classes():
        if len(c) > 1:
            G.class_record(c[0])

group = obj["group"]
assert stage("closure", PermGroup, group["generators"], group["degree"]).order == order
datum = stage("load", datum_from_jsonable, obj)
G = datum.group
classes = stage("classes", G.conjugacy_classes)
gog = stage("graph_of_groups", dual_graph_of_groups, datum)
stage("cover_report", cover_report, gog)
stage("characters", de_rham_character, gog)
report, code = analyze_datum(datum)
assert G.order == order and code == 0
stage("json_out", json_out, report)
# this process's own high-water mark: ru_maxrss would keep the parent's across exec
status = Path("/proc/self/status").read_text().splitlines()
peak = int(next(line for line in status if line.startswith("VmHWM:")).split()[1]) / 1024  # kB
stage("records", records, G)
print(json.dumps({"degree": G.degree, "classes": len(classes), "peak_rss_mb": peak,
                  "seconds": seconds}))
"""


def one_process(tree: Path, path: Path, rung: Rung) -> dict:
    cmd = [sys.executable, "-c", _ONE_PROCESS, str(tree / "src"), str(PERFBENCH), str(path),
           str(rung.order)]
    run = subprocess.run(cmd, capture_output=True, text=True)
    if run.returncode:
        raise RuntimeError(f"{rung.name} in {tree} failed:\n{run.stderr}")
    return json.loads(run.stdout)


def spread(seconds: list[float]) -> dict:
    """The median of the processes' times and their interquartile range."""
    iqr = 0.0
    if len(seconds) > 1:
        q1, _, q3 = statistics.quantiles(seconds, n=4)
        iqr = q3 - q1
    return {"median": _sig(statistics.median(seconds)), "iqr": _sig(iqr)}


def _sig(x: float) -> float:
    return float(f"{x:.4g}")


def slopes(rungs: list[dict]) -> dict:
    """Per stage, the least-squares slope of log median against log |G| over
    the rungs of degree at most 256: 1 is linear in |G|."""
    out = {}
    for stage in STAGES:
        pts = [(math.log(r["order"]), math.log(r["seconds"][stage]["median"])) for r in rungs
               if r["degree"] <= 256 and r["seconds"][stage]["median"] > 0]
        mx = statistics.fmean(x for x, _ in pts)
        var = sum((x - mx) ** 2 for x, _ in pts)
        out[stage] = _sig(sum((x - mx) * y for x, y in pts) / var) if var else None
    return out


def commit(tree: Path) -> str | None:
    run = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"], capture_output=True,
                         text=True)
    return run.stdout.strip() or None


def run(rungs=RUNGS, processes: int = PROCESSES, against: Path | None = None) -> dict:
    """Every rung in ``processes`` fresh processes per tree, alternating the
    trees process by process: the document ``BENCH_scale.json`` holds."""
    trees = [ROOT] if against is None else [ROOT, against.resolve()]
    results: dict[Path, list[dict]] = {tree: [] for tree in trees}
    with tempfile.TemporaryDirectory() as work:
        for i, rung in enumerate(rungs):
            print(f"scale_probe: {rung.name}", file=sys.stderr)
            path = Path(work, f"{i}.json")
            path.write_text(json.dumps(rung.build()), encoding="utf-8")
            runs: dict[Path, list[dict]] = {tree: [] for tree in trees}
            for k in range(processes):
                for tree in trees if k % 2 == 0 else trees[::-1]:
                    runs[tree].append(one_process(tree, path, rung))
            for tree, done in runs.items():
                results[tree].append({
                    "name": rung.name, "order": rung.order, "degree": done[0]["degree"],
                    "classes": done[0]["classes"],
                    "peak_rss_mb": round(max(r["peak_rss_mb"] for r in done), 1),
                    "seconds": {s: spread([r["seconds"][s] for r in done]) for s in STAGES}})
    kernel = [hostclock.kernel() for _ in range(120)][20:]  # the first 20 warm up

    def tree_doc(tree: Path) -> dict:
        return {"commit": commit(tree), "rungs": results[tree], "slopes": slopes(results[tree])}

    return {
        "command": "python tests/scale_probe.py" + (f" --against {against}" if against else ""),
        "host": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                 "reference_kernel_s": _sig(statistics.median(e - s for s, e in kernel))},
        "processes": processes,
        "stages": list(STAGES),
        **tree_doc(ROOT),
        "against": None if against is None else {"src": str(against), **tree_doc(trees[1])},
    }


def table(doc: dict) -> str:
    """Markdown: per rung and tree, a row of stage medians; per tree, a row of slopes."""
    trees = [("this", doc)] + ([("against", doc["against"])] if doc["against"] else [])
    rows = [["rung", "tree", "\\|G\\|", "degree", "classes", *STAGES, "peak RSS MB"],
            ["---"] * (len(STAGES) + 6)]
    for i in range(len(doc["rungs"])):
        for name, tree in trees:
            r = tree["rungs"][i]
            ms = (f"{r['seconds'][s]['median'] * 1e3:.4g}" for s in STAGES)
            rows.append([r["name"], name, r["order"], r["degree"], r["classes"], *ms,
                         r["peak_rss_mb"]])
    for name, tree in trees:
        rows.append(["slope against \\|G\\| (degree ≤ 256)", name, "", "", "",
                     *("" if v is None else f"{v:.2f}" for v in tree["slopes"].values()), ""])
    return (f"Stage milliseconds, host-adjusted: medians of {doc['processes']} processes per "
            "rung and tree.\n\n" + "\n".join("| " + " | ".join(map(str, r)) + " |" for r in rows))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, metavar="SRC",
                        help="a second checkout, whose processes alternate with this one's")
    args = parser.parse_args()
    doc = run(against=args.against)
    (ROOT / "BENCH_scale.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(table(doc))


if __name__ == "__main__":
    main()
