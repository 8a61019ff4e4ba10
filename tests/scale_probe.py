#!/usr/bin/env python3
"""Peak memory of repeated boundary-strata rounds on one large group, or
the cost of closing large groups, their classes and their class records.

    PYTHONPATH=src python tests/scale_probe.py [--p 29] [--rounds 30]
    PYTHONPATH=src python tests/scale_probe.py --closure

Each round loads a fresh PSL(2,p) 4-tuple (x, x^-1, y, y^-1) from JSON,
enumerates its split degenerations and its dihedral degenerations at entry
0, and dedups them.  The group acts on the p+1 points of the projective line
(point p is infinity) through g1: z -> z+1 and g2: z -> -1/z, with x = g1 g2
and y = g2.  A group that outlives its round keeps its element list, tables
and class records into the next ones, so the peak resident set grows with
the rounds; a group freed with its round keeps it near one round's.  Prints
``strata scale probe: peak RSS N MB, T s (load L s, moves M s, keys K s)``,
T being the rounds' wall time and L, M and K its parts: loading the tuple
(closure included), enumerating its degenerations, and keying them in
``dedup``.

With ``--closure`` it instead builds, one after another and by order,
PSL(2,19) (3,420), M11 (7,920), A8 (20,160), PSL(2,41) (34,440), M12
(95,040) and PSL(2,83) (285,852), then PSL(2,19) and PSL(2,41) again on
300 points, the points past p + 1 fixed, so their elements are stored as
tuples.  Each group is built five times, each time in a fresh interpreter,
so that the spread is that of whole processes, and one line each prints the
median seconds to close the group, to build its conjugacy classes and then
to build the class record of every non-central class, each followed by the
least and greatest of the five processes, so that a change can be read
against the run-to-run spread, and the largest peak resident set of the
five, read before the records are built.  M11, A8 and M12 are the groups
that are not PSL(2,q): M11 = <(1..11), (3,7,11,8)(4,10,5,6)>,
A8 = <(1..7), (6,7,8)>, and M12 adds
(1,12)(2,11)(3,6)(4,8)(5,9)(7,10) to M11's generators (points counted from 1
here, from 0 in the code).
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from hurwitzdegen import (PermGroup, compose, dedup, dihedral_degenerations, inverse,
                          perm_from_cycles, split_degenerations, tuple_from_jsonable)


def psl2_generators(p: int, degree: int = 0) -> list[list[int]]:
    """z -> z+1 and z -> -1/z on the projective line over F_p, point p playing
    infinity, and the points from p + 1 up to ``degree`` fixed."""
    fixed = list(range(p + 1, degree))
    return [[(z + 1) % p for z in range(p)] + [p] + fixed,
            [p] + [(-pow(z, p - 2, p)) % p for z in range(1, p)] + [0] + fixed]


def mathieu_generators(degree: int) -> list[tuple[int, ...]]:
    """M11 on 11 points, or M12 on 12: M11's two generators, and for M12 a third."""
    gens = [perm_from_cycles(degree, tuple(range(11))),
            perm_from_cycles(degree, (2, 6, 10, 7), (3, 9, 4, 5))]
    if degree == 12:
        gens.append(perm_from_cycles(12, (0, 11), (1, 10), (2, 5), (3, 7), (4, 8), (6, 9)))
    return gens


CLOSURE_GROUPS = (  # (name, generators, order): the bytes storage by order, then tuples
    ("PSL(2,19)", psl2_generators(19), 3420),
    ("M11", mathieu_generators(11), 7920),
    ("A8", [perm_from_cycles(8, tuple(range(7))), perm_from_cycles(8, (5, 6, 7))], 20160),
    ("PSL(2,41)", psl2_generators(41), 34440),
    ("M12", mathieu_generators(12), 95040),
    ("PSL(2,83)", psl2_generators(83), 285852),
    ("PSL(2,19) on 300 points", psl2_generators(19, 300), 3420),
    ("PSL(2,41) on 300 points", psl2_generators(41, 300), 34440),
)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


# one build in a fresh interpreter: argv is the probe's directory and an index into CLOSURE_GROUPS
_ONE_BUILD = """
import json, sys
from time import perf_counter
sys.path.insert(0, sys.argv[1])
from scale_probe import CLOSURE_GROUPS, PermGroup, peak_rss_mb
name, generators, order = CLOSURE_GROUPS[int(sys.argv[2])]
start = perf_counter()
G = PermGroup(generators)
closed = perf_counter()
classes = G.conjugacy_classes()
assert G.order == order, (name, G.order)
classified, peak = perf_counter(), peak_rss_mb()
for c in classes:
    G.class_record(c[0])
print(json.dumps([closed - start, classified - closed, perf_counter() - classified, peak]))
"""


def closure_probe() -> None:
    here = str(Path(__file__).resolve().parent)
    for i, (name, _, order) in enumerate(CLOSURE_GROUPS):
        runs = [json.loads(subprocess.run([sys.executable, "-c", _ONE_BUILD, here, str(i)],
                                          capture_output=True, text=True, check=True).stdout)
                for _ in range(5)]
        closures, classes, records, peaks = map(list, zip(*runs))
        print(f"closure scale probe: {name}, |G| = {order}: closure {spread(closures)}, "
              f"classes {spread(classes)}, records {spread(records)}, "
              f"peak RSS {max(peaks):.1f} MB")


def spread(seconds: list[float]) -> str:
    """The median of timed runs, then their least and greatest: ``M s (L-G)``."""
    return f"{median(seconds):.3f} s ({min(seconds):.3f}-{max(seconds):.3f})"


def psl2_tuple_json(p: int) -> str:
    g1, g2 = psl2_generators(p)
    x, y = compose(g1, g2), tuple(g2)
    entries = [list(g) for g in (x, inverse(x), y, inverse(y))]
    return json.dumps({"group": {"degree": p + 1, "generators": [g1, g2]}, "entries": entries})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=int, default=29, help="an odd prime")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--closure", action="store_true",
                        help="time the closure, classes and class records of "
                             + ", ".join(name for name, _, _ in CLOSURE_GROUPS))
    args = parser.parse_args()
    if args.closure:
        closure_probe()
        return
    text = psl2_tuple_json(args.p)
    load = moves = keys = 0.0
    for _ in range(args.rounds):
        start = perf_counter()
        t = tuple_from_jsonable(json.loads(text))
        loaded = perf_counter()
        found = split_degenerations(t) + dihedral_degenerations(t, 0)
        moved = perf_counter()
        dedup(found)
        load += loaded - start
        moves += moved - loaded
        keys += perf_counter() - moved
    print(f"strata scale probe: peak RSS {peak_rss_mb():.1f} MB, {load + moves + keys:.1f} s "
          f"(load {load:.3f} s, moves {moves:.3f} s, keys {keys:.3f} s)")


if __name__ == "__main__":
    main()
