"""The three workloads: seeded inputs, one pass over them, and its checks.

Each workload builds its inputs once (the timed set-up), then, untimed,
writes them to files and computes the values its results must match, and
then runs passes over the same inputs.
A pass calls only public entry points: ``cli.main(["analyze", path])`` with
stdout captured, and the ``boundary``/``degen`` library functions.  Every
request builds its own group, because a user pays for that on every run.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import oracle
from hurwitzdegen import boundary, cli, degen

PINNED_SEED = 1
PINNED = json.loads((Path(__file__).with_name("pinned.json")).read_text(encoding="utf-8"))


class Pass:
    """What one pass did: per-operation latencies, work units and failures.

    A latency is (input, measured s, host-adjusted s); without a
    ``hostclock.HostClock`` the two times are the same.
    """

    def __init__(self, tracer=None, clock=None):
        self.tracer, self.clock = tracer, clock
        self.attempted = 0
        self.latencies: list[tuple[str, float, float]] = []
        self.units = 0              # work units behind ops_per_s
        self.failures: list[tuple[str, str, bool]] = []   # (op, reason, known defect)

    @property
    def seconds(self) -> float:
        return sum(dt for _, dt, _ in self.latencies)

    def fail(self, label: str, reason: str, known: bool = False) -> None:
        self.failures.append((label, reason, known))

    def timed(self, kind: str, label: str, key: str, fn, *args):
        """Run one operation, recording its latency under ``key``; the
        latency excludes the checks around it."""
        scope = self.tracer.op(kind, label) if self.tracer else nullcontext()
        with scope:
            if self.clock is not None:
                result, dt, adjusted = self.clock.time(fn, *args)
            else:
                t0 = perf_counter()
                result = fn(*args)
                dt = adjusted = perf_counter() - t0
        self.latencies.append((key, dt, adjusted))
        return result


def _analyze(path: str):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["analyze", path])
    return code, out.getvalue()


def _corrupt_report(text: str) -> str:
    report = json.loads(text)
    report["cover"]["component_count"] += 1
    return json.dumps(report)


class AnalyzeWorkload:
    """Shared pass for workloads whose operations are ``analyze`` calls."""

    name = ""

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed, self.workdir, self.tiny = seed, workdir, tiny
        self.items: list[tuple[str, dict]] = []       # (label, datum JSON)
        self.paths: list[str] = []

    def write_inputs(self) -> None:
        for i, (label, datum) in enumerate(self.items):
            path = self.workdir / f"{i:04d}.json"
            path.write_text(json.dumps(datum), encoding="utf-8")
            self.paths.append(str(path))

    def prepare(self) -> None:
        """Untimed: write the input files, which times the disk rather than the
        program, and compute the expected values."""
        self.write_inputs()
        self.expected = [oracle.expect_analyze(datum) for _, datum in self.items]

    def pinned_for(self, i: int, label: str) -> dict | None:
        return None

    def run_pass(self, tracer=None, corrupt: bool = False, clock=None) -> Pass:
        """Every input once."""
        result = Pass(tracer, clock)
        for i, (label, _) in enumerate(self.items):
            result.units += 1
            corrupt &= not self._run_one(result, i, label, corrupt)
        return result

    def _run_one(self, result: Pass, i: int, label: str, corrupt: bool) -> bool:
        """Run and check one input; True when ``corrupt`` falsified its report."""
        result.attempted += 1
        try:
            code, text = result.timed("analyze", label, label, _analyze, self.paths[i])
        except Exception as exc:   # a traceback is a failure, not the end of the run
            result.fail(label, f"{type(exc).__name__}: {exc}")
            return False
        corrupt &= code == 0
        if corrupt:
            text = _corrupt_report(text)
        report = json.loads(text) if code == 0 else None
        exp = self.expected[i]
        reason = oracle.check_analyze(exp, code, report)
        if reason is None:
            pinned = self.pinned_for(i, label)
            if pinned is not None:
                reason = oracle.check_pinned(pinned, oracle.facts(code, report))
        if reason is not None:
            result.fail(label, reason, code == 2 and exp["known_defect"])
        return corrupt


# -- constructions, in this module's own arithmetic ------------------------------
#
# The formulas are the repository's: PSL(2, p) on the projective line, the
# audit's (m, order_b, order_c) completion search, and the package's dihedral,
# smoothing and split conventions.  Building them here keeps set-up free of
# the package's subgroup checks.


def _cycles(degree: int, *cycles) -> tuple:
    images = list(range(degree))
    for c in cycles:
        for i, x in enumerate(c):
            images[x] = c[(i + 1) % len(c)]
    return tuple(images)


A5_GENS = [_cycles(5, (0, 1, 2, 3, 4)), _cycles(5, (0, 1, 2))]


def psl2(p: int) -> oracle.Group:
    """PSL(2, p) on the p + 1 points of the projective line; point p is infinity."""
    shift = tuple((z + 1) % p for z in range(p)) + (p,)
    neg_inv = (p,) + tuple((-pow(z, p - 2, p)) % p for z in range(1, p)) + (0,)
    return oracle.Group([shift, neg_inv], p + 1)


def three_point(G: oracle.Group, m: int, order_b: int, order_c: int, image: int) -> list[int]:
    """First (m, g1, g2) with the given orders, product one and an image of order ``image``."""
    order = [oracle.perm_order(x) for x in G.elements]
    for g1 in range(G.order):
        if order[g1] != order_b:
            continue
        g2 = G.inv(G.mul(m, g1))
        if order[g2] == order_c and \
                len(oracle.closure([G.elements[m], G.elements[g1]], G.degree)) == image:
            return [m, g1, g2]
    raise ValueError("no completion found")


def first_inverting(G: oracle.Group, m: int) -> int:
    return next(s for s in range(G.order)
                if oracle.is_inverting_involution(G.elements[m], G.elements[s]))


def smooth(G: oracle.Group, entries: list[int], index: int, s: int) -> list[int]:
    """The dihedral point (m, s) at ``index`` opened into the involutions (s, s m)."""
    return entries[:index] + [s, G.mul(s, entries[index])] + entries[index + 1:]


def _point(G: oracle.Group, kind: str, m: int, **extra) -> dict:
    return dict(kind=kind, m=list(G.elements[m]),
                **{k: list(G.elements[v]) if k == "s" else v for k, v in extra.items()})


def _datum(G: oracle.Group, *point_lists) -> dict:
    return {"group": G.jsonable(),
            "components": [{"genus": 0, "handles": [], "points": pts} for pts in point_lists]}


def smooth_datum(G: oracle.Group, entries: list[int]) -> dict:
    return _datum(G, [_point(G, "cyclic", g) for g in entries])


def dihedral_datum(G: oracle.Group, entries: list[int], index: int, s: int) -> dict:
    return _datum(G, [_point(G, "dihedral", g, s=s) if i == index else _point(G, "cyclic", g)
                      for i, g in enumerate(entries)])


def split_datum(G: oracle.Group, entries: list[int], k: int) -> dict:
    """(g_1 .. g_k | g_k+1 .. g_n) joined by node 0 with monodromy h = (g_1 .. g_k)^-1."""
    acc = 0
    for g in entries[:k]:
        acc = G.mul(acc, g)
    h = G.inv(acc)
    left = [_point(G, "cyclic", g) for g in entries[:k]] + [_point(G, "node", h, node=0)]
    right = [_point(G, "node", G.inv(h), node=0)] + [_point(G, "cyclic", g) for g in entries[k:]]
    return _datum(G, left, right)


def a5_image_tuple(G: oracle.Group) -> list[int]:
    """The audit's (5, 2, 3) search from the first order-5 element, for an A5 image."""
    m = next(i for i, x in enumerate(G.elements) if oracle.perm_order(x) == 5)
    return three_point(G, m, 2, 3, 60)


def conjugate_datum_json(datum: dict, g: tuple) -> dict:
    """The same datum relabelled by g: every monodromy x becomes g x g^-1."""
    def c(x):
        return list(oracle.conj(g, tuple(x)))
    comps = []
    for comp in datum["components"]:
        points = []
        for pt in comp["points"]:
            pt = dict(pt, m=c(pt["m"]))
            if "s" in pt:
                pt["s"] = c(pt["s"])
            points.append(pt)
        comps.append(dict(comp, handles=[[c(a), c(b)] for a, b in comp.get("handles", [])],
                          points=points))
    return {"group": datum["group"], "components": comps}


def random_element(rng: random.Random, gens: list) -> tuple:
    g = tuple(range(len(gens[0])))
    for _ in range(32):
        g = oracle.compose(g, tuple(rng.choice(gens)))
    return g


# -- ladder --------------------------------------------------------------------


class Ladder(AnalyzeWorkload):
    """One fixed rung per shape up the |G| ladder, relabelled by a seeded conjugation."""

    name = "ladder"
    pass_s = 15.0       # a typical pass on the reference host

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        super().__init__(seed, workdir, tiny)
        root = Path(__file__).resolve().parent.parent
        a5 = oracle.Group(A5_GENS, 5)
        t = three_point(a5, a5.index[A5_GENS[0]], 2, 3, 60)
        s = first_inverting(a5, t[0])
        psl27 = psl2(7)
        shift7 = psl27.index[psl27.generators[0]]
        rungs = {
            "o60.dihedral": json.loads((root / "docs/examples/a5_dihedral_datum.json")
                                       .read_text(encoding="utf-8")),
            "o60.split": split_datum(a5, smooth(a5, t, 0, s), 2),
            "o168.smooth": smooth_datum(psl27, three_point(psl27, shift7, 2, 3, 168)),
        }
        for p in () if tiny else (11, 19):
            G = psl2(p)
            t = a5_image_tuple(G)
            s = first_inverting(G, t[0])
            rungs[f"o{G.order}.dihedral"] = dihedral_datum(G, t, 0, s)
            if p == 11:
                rungs["o660.split"] = split_datum(G, smooth(G, t, 0, s), 2)
                shift = G.index[G.generators[0]]
                rungs["o660.smooth"] = smooth_datum(G, three_point(G, shift, 2, 3, 660))
        rng = random.Random(seed)
        for label in sorted(rungs, key=lambda r: (int(r[1:].split(".")[0]), r)):
            datum = rungs[label]
            g = random_element(rng, datum["group"]["generators"])
            self.items.append((label, conjugate_datum_json(datum, g)))

    def pinned_for(self, i: int, label: str) -> dict | None:
        # conjugation changes no reported value, so the pins hold on every seed
        return PINNED["ladder"][label]


# -- batch ---------------------------------------------------------------------


BATCH_GROUPS = {
    "S3": (3, [_cycles(3, (0, 1)), _cycles(3, (0, 1, 2))]),
    "D4": (4, [_cycles(4, (0, 1, 2, 3)), _cycles(4, (0, 2))]),
    "S4": (4, [_cycles(4, (0, 1, 2, 3)), _cycles(4, (0, 1))]),
    "D5": (5, [_cycles(5, (0, 1, 2, 3, 4)), _cycles(5, (1, 4), (2, 3))]),
    "A5": (5, [_cycles(5, (0, 1, 2, 3, 4)), _cycles(5, (0, 1, 2))]),
    "S5": (5, [_cycles(5, (0, 1, 2, 3, 4)), _cycles(5, (0, 1))]),
}


def random_valid_datum(G: oracle.Group, rng: random.Random, pairs: list) -> dict:
    """The test suite's random admissible datum, drawn with this module's arithmetic.

    One or two components (joined by a node), genus 0 or 1, sometimes a
    dihedral point; relations are closed by a final cyclic point.
    """
    two_comp = rng.random() < 0.4
    node_m = rng.randrange(G.order) if two_comp else None
    perm = G.elements
    comps = []
    for ci in range(2 if two_comp else 1):
        genus = 1 if rng.random() < 0.2 else 0
        handles = [(rng.randrange(G.order), rng.randrange(G.order)) for _ in range(genus)]
        pts: list[dict] = []
        ms: list[int] = []
        if two_comp:
            m = node_m if ci == 0 else G.inv(node_m)
            pts.append({"kind": "node", "m": list(perm[m]), "node": 0})
            ms.append(m)
        if pairs and rng.random() < 0.35:
            m, s = pairs[rng.randrange(len(pairs))]
            pts.append({"kind": "dihedral", "m": list(perm[m]), "s": list(perm[s])})
            ms.append(m)
        for _ in range(rng.randrange(2, 5)):
            ms.append(rng.randrange(G.order))
            pts.append({"kind": "cyclic", "m": list(perm[ms[-1]])})
        if ci == 0 and rng.random() < 0.5:
            for gid in G.generator_ids():
                ms.append(gid)
                pts.append({"kind": "cyclic", "m": list(perm[gid])})
        acc = 0
        for a, b in handles:
            acc = G.mul(acc, G.mul(G.mul(a, b), G.mul(G.inv(a), G.inv(b))))
        for m in ms:
            acc = G.mul(acc, m)
        pts.append({"kind": "cyclic", "m": list(perm[G.inv(acc)])})
        comps.append({"genus": genus,
                      "handles": [[list(perm[a]), list(perm[b])] for a, b in handles],
                      "points": pts})
    return {"group": G.jsonable(), "components": comps}


class Batch(AnalyzeWorkload):
    """Many small seeded data over six small groups, one file and one call each."""

    name = "batch"
    size = 400
    pass_s = 5.5        # a typical pass on the reference host

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        super().__init__(seed, workdir, tiny)
        rng = random.Random(seed)
        groups = {}
        for name, (degree, gens) in BATCH_GROUPS.items():
            G = oracle.Group(gens, degree)
            pairs = [(m, s) for m in range(G.order) for s in range(G.order)
                     if oracle.is_inverting_involution(G.elements[m], G.elements[s])]
            groups[name] = (G, pairs)
        names = sorted(groups)
        for i in range(12 if tiny else self.size):
            name = names[i % len(names)]    # the same mix of groups on every seed
            G, pairs = groups[name]
            self.items.append((f"{name}.{i}", random_valid_datum(G, rng, pairs)))

    def pinned_for(self, i: int, label: str) -> dict | None:
        if self.seed != PINNED_SEED or self.tiny:
            return None
        return PINNED["batch"][i]


# -- strata --------------------------------------------------------------------


def strata_bases() -> list[tuple[str, oracle.Group, list[int]]]:
    """A5 (2, 2, 2, 3), the smoothing of the icosahedral dihedral degeneration, and
    PSL(2, 7) (7, 2, 2, 2), the smoothing of its order-3 dihedral degeneration."""
    a5 = oracle.Group(A5_GENS, 5)
    t = three_point(a5, a5.index[A5_GENS[0]], 2, 3, 60)
    psl27 = psl2(7)
    u = three_point(psl27, psl27.index[psl27.generators[0]], 2, 3, 168)
    return [("A5", a5, smooth(a5, t, 0, first_inverting(a5, t[0]))),
            ("PSL27", psl27, smooth(psl27, u, 2, first_inverting(psl27, u[2])))]


def walk(rng: random.Random, entries: list[tuple], gens: list[tuple], steps: int = 3):
    """Tuples met on an endless seeded walk of braid moves and conjugations."""
    entries = list(entries)
    while True:
        for _ in range(steps):
            move = rng.randrange(4)
            if move == 3:
                g = rng.choice(gens)
                entries = [oracle.conj(g, x) for x in entries]
                continue
            i = rng.randrange(len(entries) - 1)
            a, b = entries[i], entries[i + 1]
            if rng.random() < 0.5:     # sigma_i: (a, b) -> (a b a^-1, a)
                entries[i:i + 2] = [oracle.conj(a, b), a]
            else:                      # sigma_i^-1: (a, b) -> (b, b^-1 a b)
                entries[i:i + 2] = [b, oracle.conj(oracle.inverse(b), a)]
        yield list(entries)


class Strata:
    """Boundary strata of seeded tuples: enumerate, dedup, round-trip; no cover."""

    name = "strata"
    classes = 10        # distinct tuple classes per family, two representatives each
    pass_s = 4.5        # a typical pass on the reference host

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed, self.tiny = seed, tiny
        rng = random.Random(seed)
        self.families = []
        for family, G, base in strata_bases():
            # A tuple generating G has no equivalent degenerations of its own, and
            # those of inequivalent tuples differ; so a fixed number of classes,
            # each met twice, gives every seed the same work: half is kept.
            inverses = [oracle.inverse(g) for g in G.elements]
            found: dict[tuple, list[tuple]] = {}
            for t in walk(rng, [G.elements[x] for x in base], G.generators):
                found.setdefault(oracle.conjugation_key(G, inverses, t), t)
                if len(found) == (1 if tiny else self.classes):
                    break
            tuples = []
            for t in found.values():
                g = random_element(rng, G.generators)
                tuples += [t, [oracle.conj(g, x) for x in t]]
            rng.shuffle(tuples)
            group_json = G.jsonable()
            objs = [{"group": group_json, "entries": [list(x) for x in t]} for t in tuples]
            self.families.append((family, group_json, tuples, objs))

    def prepare(self) -> None:
        """Untimed: the expected counts."""
        self.expected = {}
        for family, group_json, tuples, _ in self.families:
            G = oracle.Group(group_json["generators"], group_json["degree"])
            counts: dict[tuple, int] = {}
            per_tuple = []
            for t in tuples:
                per_index = []
                for m in t:
                    if m not in counts:
                        counts[m] = oracle.inverting_involution_count(G, m)
                    per_index.append(counts[m])
                per_tuple.append(per_index)
            self.expected[family] = (per_tuple, oracle.degeneration_class_count(G, tuples))

    def run_pass(self, tracer=None, corrupt: bool = False, clock=None) -> Pass:
        result = Pass(tracer, clock)
        found_total = kept_total = 0
        for family, _, tuples, objs in self.families:
            per_tuple, classes = self.expected[family]
            found = []
            for ti, obj in enumerate(objs):
                label = f"{family}.{ti}"
                try:
                    result.attempted += 1
                    t = result.timed("load", label, label + ".load",
                                     boundary.tuple_from_jsonable, obj)
                    result.attempted += 1
                    splits = result.timed("enumerate", label, label + ".split",
                                          degen.split_degenerations, t)
                    if len(splits) != len(t) - 3:
                        result.fail(label, f"{len(splits)} splits, expected {len(t) - 3}")
                    found += splits
                    for i in range(len(t)):
                        result.attempted += 1
                        dih = result.timed("enumerate", label, f"{label}.dihedral{i}",
                                           degen.dihedral_degenerations, t, i)
                        got = len(dih) + (1 if corrupt and ti == 0 and i == 0 else 0)
                        if got != per_tuple[ti][i]:
                            result.fail(label, f"{got} dihedral degenerations at {i}, "
                                               f"expected {per_tuple[ti][i]}")
                        found += dih
                except Exception as exc:
                    result.fail(label, f"{type(exc).__name__}: {exc}")
            # one dedup per family: element ids of different groups can coincide
            result.attempted += 1
            try:
                kept = result.timed("dedup", family, family + ".dedup", degen.dedup, found)
            except Exception as exc:
                result.fail(family, f"dedup: {type(exc).__name__}: {exc}")
                continue
            if len(kept) != classes:
                result.fail(family, f"dedup kept {len(kept)}, expected {classes} classes")
            elif self.seed == PINNED_SEED and not self.tiny and \
                    [len(found), len(kept)] != PINNED["strata"][family]:
                result.fail(family, f"{len(found)} found, {len(kept)} kept; pinned "
                                    f"{PINNED['strata'][family]}")
            for k, rep in enumerate(kept):
                if rep.kind != degen.DIHEDRAL:
                    continue
                label = f"{family}.kept{k}"
                result.attempted += 1
                try:
                    same = result.timed("roundtrip", label, label + ".roundtrip",
                                        _round_trip, rep)
                except Exception as exc:
                    result.fail(label, f"{type(exc).__name__}: {exc}")
                    continue
                if not same:
                    result.fail(label, "collide_pair(smooth_dihedral(rep)) is not equivalent")
            found_total += len(found)
            kept_total += len(kept)
            result.units += len(found)
        self.kept_ratio = kept_total / found_total if found_total else 0.0
        return result


def _round_trip(rep) -> bool:
    smoothed = degen.smooth_dihedral(rep)
    collided = degen.collide_pair(smoothed, rep.index)
    return boundary.equivalent(collided.datum, rep.datum)


WORKLOADS = {cls.name: cls for cls in (Ladder, Strata, Batch)}
