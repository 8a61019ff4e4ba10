#!/usr/bin/env python3
"""Peak memory of repeated boundary-strata rounds on one large group.

    PYTHONPATH=src python tests/scale_probe.py [--p 29] [--rounds 30]

Each round loads a fresh PSL(2,p) 4-tuple (x, x^-1, y, y^-1) from JSON,
enumerates its split degenerations and its dihedral degenerations at entry
0, and dedups them.  The group acts on the p+1 points of the projective line
(point p is infinity) through g1: z -> z+1 and g2: z -> -1/z, with x = g1 g2
and y = g2.  A group that outlives its round keeps its element list, tables
and class records into the next ones, so the peak resident set grows with
the rounds; a group freed with its round keeps it near one round's.  Prints
``strata scale probe: peak RSS N MB, T s``, T being the rounds' wall time.
"""

from __future__ import annotations

import argparse
import json
import resource
from time import perf_counter

from hurwitzdegen import (compose, dedup, dihedral_degenerations, inverse, split_degenerations,
                          tuple_from_jsonable)


def psl2_tuple_json(p: int) -> str:
    g1 = [(z + 1) % p for z in range(p)] + [p]
    g2 = [p] + [(-pow(z, p - 2, p)) % p for z in range(1, p)] + [0]
    x, y = compose(g1, g2), tuple(g2)
    entries = [list(g) for g in (x, inverse(x), y, inverse(y))]
    return json.dumps({"group": {"degree": p + 1, "generators": [g1, g2]}, "entries": entries})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=int, default=29, help="an odd prime")
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args()
    text = psl2_tuple_json(args.p)
    start = perf_counter()
    for _ in range(args.rounds):
        t = tuple_from_jsonable(json.loads(text))
        dedup(split_degenerations(t) + dihedral_degenerations(t, 0))
    seconds = perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"strata scale probe: peak RSS {peak_mb:.1f} MB, {seconds:.1f} s")


if __name__ == "__main__":
    main()
