"""Span tracing for the traced run, installed from outside the package.

``Tracer.install`` wraps the public functions of the seven layer modules and
a few constructors and methods, and rebinds every name under which a
``hurwitzdegen`` module imported them.  Each span records (name, start, end,
parent, operation id); spans stay in memory until ``write``.  Functions
called once per group element are counted instead of spanned, so their time
stays with the span that called them; ``PermGroup.mul`` is the main one.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = ("groups", "boundary", "covers", "graphs", "cohomology", "degen", "cli")

# per-element helpers: a span each would swamp the run
UNWRAPPED = {"as_perm", "identity_perm", "compose", "inverse", "perm_from_cycles",
             "same_group", "trivial_on", "rh_genus", "node_dcoset", "surface_relation_holds"}
COUNTED = {"is_inverting_involution", "conjugate_datum", "serialize"}

# (module, class, attribute, span name or None to count only)
METHODS = (
    ("groups", "PermGroup", "__init__", "groups.PermGroup.init"),
    ("groups", "PermGroup", "conjugacy_classes", "groups.PermGroup.conjugacy_classes"),
    ("groups", "PermGroup", "generated_subgroup", "groups.PermGroup.generated_subgroup"),
    ("groups", "PermGroup", "cyclic_subgroup", "groups.PermGroup.cyclic_subgroup"),
    ("groups", "PermGroup", "subgroup", "groups.PermGroup.subgroup"),
    ("groups", "PermGroup", "full_subgroup", "groups.PermGroup.full_subgroup"),
    ("groups", "PermGroup", "mul", None),
    ("groups", "Subgroup", "__post_init__", "groups.Subgroup.check"),
    ("graphs", "GenGraph", "__post_init__", "graphs.GenGraph.check"),
    ("graphs", "GraphAction", "__post_init__", "graphs.GraphAction.check"),
    ("degen", "Degeneration", "__post_init__", "degen.Degeneration.check"),
    ("cli", "_Parser", "parse_args", "cli.parse_args"),
)

# inclusive time of the outermost spans with these names
INCLUSIVE = {
    "graphs.action_check_s": {"graphs.GraphAction.check"},
    "graphs.edge_orbits_s": {"graphs.edge_orbit_data"},
    "groups.induce_s": {"groups.induced_character"},
    "groups.classes_s": {"groups.PermGroup.conjugacy_classes"},
    "cohomology.de_rham_s": {"cohomology.de_rham_character"},
    "covers.report_s": {"covers.cover_report"},
    "groups.subgroup_s": {"groups.PermGroup.generated_subgroup", "groups.PermGroup.cyclic_subgroup",
                          "groups.PermGroup.subgroup", "groups.PermGroup.full_subgroup",
                          "groups.normalizer", "groups.centralizer"},
    "groups.subgroup_check_s": {"groups.Subgroup.check"},
    "groups.cosets_s": {"groups.left_cosets", "groups.right_cosets"},
    "groups.closure_s": {"groups.PermGroup.init"},
    "boundary.load_s": {"boundary.datum_from_jsonable", "boundary.tuple_from_jsonable"},
    "boundary.validate_s": {"boundary.validate"},
    "boundary.canonical_s": {"boundary.canonical_form"},
    "cli.parse_s": {"cli.build_parser", "cli.parse_args"},
    "cli.json_out_s": {"cli.json_dump"},
    "degen.enumerate_s": {"degen.split_degenerations", "degen.dihedral_degenerations"},
    "degen.roundtrip_s": {"bench.roundtrip"},
}

NS = 1e-9


class _JsonProxy:
    """The ``json`` module as seen by ``cli``, with ``dump`` spanned."""

    def __init__(self, real, dump):
        self._real = real
        self.dump = dump

    def __getattr__(self, name):
        return getattr(self._real, name)


OBSERVERS = {
    "groups.PermGroup.init": lambda t, a, r: t.size("group_order", a[0].order),
    "groups.PermGroup.conjugacy_classes": lambda t, a, r: t.size("classes", len(r)),
    "covers.build_cover": lambda t, a, r: (t.size("cover_components", len(r.components)),
                                           t.size("cover_nodes", len(r.nodes))),
    "graphs.edge_orbit_data": lambda t, a, r: t.size("edge_orbits", len(r)),
    "degen.dihedral_degenerations":
        lambda t, a, r: t.counts.update({("degen.dihedral_found", ""): len(r)}),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start_ns, end_ns, parent index, op id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()   # (counted name, enclosing span name) -> calls
        self.ops: list[dict] = []
        self.op_id = -1
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0, self.stack[-1] if self.stack else -1,
                           self.op_id])
        self.stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter_ns()
        self.stack.pop()

    def size(self, key: str, value: int) -> None:
        sizes = self.ops[self.op_id]["sizes"]
        sizes[key] = max(sizes.get(key, 0), value)

    @contextmanager
    def op(self, kind: str, label: str):
        """One benchmark operation; its span is the root of the layer spans."""
        self.op_id = len(self.ops)
        self.ops.append({"kind": kind, "label": label, "sizes": {}})
        idx = self._enter("bench." + kind)
        try:
            yield
        finally:
            self._exit(idx)
            self.ops[-1]["seconds"] = (self.spans[idx][2] - self.spans[idx][1]) * NS

    def spanned(self, fn, name: str):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if observe is not None and self.op_id >= 0:
                observe(self, args, result)
            return result
        return wrapper

    def counted(self, fn, name: str):
        counts, spans, stack = self.counts, self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name, spans[stack[-1]][0] if stack else ""] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "hurwitzdegen" or n.startswith("hurwitzdegen.")]
        for layer in LAYERS:
            mod = sys.modules["hurwitzdegen." + layer]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or attr in UNWRAPPED or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self.counted(obj, name) if attr in COUNTED else self.spanned(obj, name)
                for m in modules:
                    for a, v in list(vars(m).items()):
                        if v is obj:
                            self._set(m, a, wrapper)
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules["hurwitzdegen." + layer], cls_name)
            fn = getattr(cls, attr)
            if name is None:
                self._set(cls, attr, self.counted(fn, f"{layer}.{cls_name}.{attr}"))
            else:
                self._set(cls, attr, self.spanned(fn, name))
        cli = sys.modules["hurwitzdegen.cli"]
        self._set(cli, "json", _JsonProxy(cli.json, self.spanned(cli.json.dump, "cli.json_dump")))

    def uninstall(self) -> None:
        for owner, attr, old, had in reversed(self._undo):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # -- report --------------------------------------------------------------

    def _inclusive_ns(self, names: set) -> int:
        total = 0
        for name, start, end, parent, _ in self.spans:
            if name not in names:
                continue
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total += end - start
        return total

    def self_ns(self) -> list[int]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self, kept_ratio: float) -> dict[str, float]:
        own = self.self_ns()
        by_layer = Counter()
        for span, t in zip(self.spans, own):
            by_layer[span[0].split(".")[0]] += t
        out = {f"{layer}.self_s": by_layer[layer] * NS for layer in LAYERS}
        out["covers.build_s"] = sum(t for span, t in zip(self.spans, own)
                                    if span[0] == "covers.build_cover") * NS
        for metric, names in INCLUSIVE.items():
            out[metric] = self._inclusive_ns(names) * NS
        calls = Counter()
        for (name, _), n in self.counts.items():
            calls[name] += n
        canonical = sum(1 for s in self.spans if s[0] == "boundary.canonical_form")
        out["groups.mul_calls"] = calls["groups.PermGroup.mul"]
        out["boundary.conjugations_per_canonical"] = (
            calls["boundary.conjugate_datum"] / canonical if canonical else 0.0)
        found = calls["degen.dihedral_found"]
        checks = self.counts["groups.is_inverting_involution", "degen.dihedral_degenerations"]
        out["degen.involution_checks_per_found"] = checks / found if found else 0.0
        out["degen.kept_ratio"] = kept_ratio
        return out

    def write(self, path, header: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0
        doc = dict(header, ops=self.ops,
                   counts=[[n, parent, c] for (n, parent), c in sorted(self.counts.items())],
                   spans=[[n, s - t0, e - t0, p, o] for n, s, e, p, o in self.spans])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
