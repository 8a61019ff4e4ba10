"""A group is freed by reference counting alone.

No cache on a group (``_records``, ``_orders``, ``_classes``, ``_class_of``,
``_inv``, a class record's stored ``pairs``) and no datum's
``_canonical`` holds an object that refers back to the group, so a group,
its tables and its class records go as soon as the last holder drops them,
without waiting for the cyclic garbage collector.  A subgroup is its member
ids alone, so one that a caller keeps keeps no group either.  Each test runs
with the collector switched off.
"""

from __future__ import annotations

import gc
import json
import weakref
from contextlib import contextmanager
from pathlib import Path

import pytest

from hurwitzdegen import (audit, collide_pair, datum_to_jsonable, de_rham_character, dedup,
                          dihedral_degenerations, dual_graph_of_groups, equivalent,
                          inverting_involutions, least_conjugate, smooth_dihedral,
                          split_degenerations, tuple_from_jsonable)
from hurwitzdegen.cli import build_parser, main
from hurwitzdegen.degen import DIHEDRAL

from conftest import generator_ids

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"


@contextmanager
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def test_strata_pass_frees_its_group():
    obj = json.loads((EXAMPLES / "psl27_tuple.json").read_text(encoding="utf-8"))
    with collector_off():
        t = tuple_from_jsonable(obj)
        found = split_degenerations(t)
        for i in range(len(t)):
            found += dihedral_degenerations(t, i)
        kept = dedup(found)
        dihedral = [rep for rep in kept if rep.kind == DIHEDRAL]
        for rep in dihedral:
            assert equivalent(collide_pair(smooth_dihedral(rep), rep.index).datum, rep.datum)
        assert dihedral and all(deg.datum._canonical is not None for deg in found)
        assert t.group._records and all(rec.pairs for rec in t.group._records.values())
        ref = weakref.ref(t.group)
        del t, found, kept, dihedral, rep
        assert ref() is None


def test_least_conjugate_and_involutions_free_their_group():
    with collector_off():
        G = audit.psl27_group()
        gens = generator_ids(G)
        for c in G.conjugacy_classes():
            least_conjugate(G, (c[-1], *gens))
            inverting_involutions(G, c[-1])
        # every non-central class has its record; the identity's, the one central class, has none
        assert set(G._records) == set(range(1, G.order))
        assert all(rec.pairs for rec in G._records.values())
        ref = weakref.ref(G)
        del G
        assert ref() is None


def test_kept_characters_free_their_group():
    # the characters are value tuples: a kept report holds no group
    with collector_off():
        datum = audit.a5_dihedral_degenerations(audit.a5_group())[0].datum
        rep = de_rham_character(dual_graph_of_groups(datum))
        ref = weakref.ref(datum.group)
        del datum
        assert ref() is None
        assert rep.h1_character == (12, -4, 0, 2, 2)  # 2 Ind_{D10} sgn


def test_kept_subgroup_frees_its_group():
    with collector_off():
        G = audit.a5_group()
        H = G.cyclic_subgroup(generator_ids(G)[0])
        ref = weakref.ref(G)
        del G
        assert ref() is None
        assert H.members[0] == 0 and H.order == 5


@pytest.fixture
def invalid_datum_file(tmp_path):
    """A datum whose surface relation fails: ``analyze`` reports it and exits 2."""
    obj = datum_to_jsonable(audit.a5_dihedral_degenerations()[0].datum)
    obj["components"][0]["points"][1]["m"] = obj["components"][0]["points"][2]["m"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


@pytest.mark.parametrize("argv,code", [
    (["analyze", str(EXAMPLES / "a5_dihedral_datum.json")], 0),
    (["analyze", "INVALID"], 2),
    (["degenerate", str(EXAMPLES / "psl27_tuple.json"), "--splits", "--dihedral", "0",
      "--dedup"], 0),
    (["character", str(EXAMPLES / "a5_split_datum.json")], 0),
    (["graph", str(EXAMPLES / "a5_dihedral_datum.json"), "--which", "cover", "--dot", "OUT"], 0),
], ids=["analyze", "analyze-invalid", "degenerate", "character", "graph-cover"])
def test_cli_commands_leave_no_group_in_a_cycle(argv, code, invalid_datum_file, tmp_path,
                                                capsys):
    argv = [{"INVALID": str(invalid_datum_file), "OUT": str(tmp_path / "out.dot")}.get(a, a)
            for a in argv]
    build_parser()  # built once per process; its own one-time objects are not the command's
    with collector_off():
        gc.collect()  # what earlier tests left
        flags, saved = gc.get_debug(), len(gc.garbage)
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        try:
            assert main(argv) == code
            gc.collect()
            cyclic = [type(o).__name__ for o in gc.garbage[saved:]
                      if type(o).__module__.startswith("hurwitzdegen")]
        finally:
            gc.set_debug(flags)
            del gc.garbage[saved:]
    capsys.readouterr()
    assert cyclic == []  # no PermGroup, nor any other object of the package
