from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hurwitzdegen import (BoundaryDatum, HurwitzTuple, MarkedComponent, MarkedPoint, PermGroup,
                          audit, compose, datum_from_jsonable, datum_to_jsonable, dedup,
                          dihedral_degenerations, equivalent, perm_from_cycles,
                          split_degenerations, tuple_from_jsonable, tuple_to_jsonable)
from hurwitzdegen.cli import analyze_datum, build_parser, json_dump, main
from hurwitzdegen.errors import SchemaError
from hurwitzdegen.groups import MAX_DEGREE

from cli_runs import INVALID, VALID, cli_runs, file_runs, inputs, prints_json
from conftest import a5_smoothed_tuple, a5_split_datum, disjoint_union

NODE_CLASS_KEYS = {"kind", "stabilizer_order", "count"}
ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = ROOT / "docs" / "examples"
DIHEDRAL_DATUM, SPLIT_DATUM = "a5_dihedral_datum.json", "a5_split_datum.json"
A5_TUPLE = "a5_tuple.json"


@pytest.fixture(scope="module")
def a5_datum_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "a5_dihedral.json"
    datum = audit.a5_dihedral_degenerations()[0].datum
    path.write_text(json.dumps(datum_to_jsonable(datum)), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def a5_tuple_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "a5_tuple.json"
    path.write_text(json.dumps(tuple_to_jsonable(a5_smoothed_tuple())),
                    encoding="utf-8")
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("value", [0.5, [1, 2.0], {"a": [{"b": float("nan")}]}, {1: 0}])
def test_json_dump_rejects_floats(value, capsys):
    # reports are exact and keyed by str: a float or another key is a bug, not something to print
    with pytest.raises(TypeError):
        json_dump(value)
    assert capsys.readouterr().out == ""


def test_analyze_valid_datum(a5_datum_file, capsys):
    code, out, _ = run_cli(capsys, "analyze", str(a5_datum_file))
    assert code == 0
    report = json.loads(out)
    assert report["validation"]["ok"] is True
    assert report["cover"]["arithmetic_genus"] == 6
    assert report["cover"]["node_count"] == 6
    assert report["cover"]["node_classes"][0]["kind"] == "dihedral"
    assert report["characters"]["h1"]["degree"] == 12
    # lossless JSON round trip
    assert json.loads(json.dumps(report)) == report


def test_analyze_split_datum(tmp_path, capsys):
    datum = a5_split_datum()
    path = tmp_path / "split.json"
    path.write_text(json.dumps(datum_to_jsonable(datum)), encoding="utf-8")
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["cover"]["component_count"] == 7
    assert report["cover"]["node_count"] == 12
    assert report["cover"]["arithmetic_genus"] == 6
    assert [entry["kind"] for entry in report["cover"]["node_classes"]] == ["cyclic"]
    assert all(set(entry) == NODE_CLASS_KEYS for entry in report["cover"]["node_classes"])
    assert report["characters"]["h1"]["values"] == [12, -4, 0, 2, 2]


def test_analyze_order_4_dihedral_nodes_without_warnings():
    # a dihedral node opens into one orbit per new branch point whatever its
    # stabilizer order, so an order-4 node is no cause for a warning
    degs = dihedral_degenerations(a5_smoothed_tuple(), 0)
    assert degs
    for deg in degs:
        report, code = analyze_datum(deg.datum)
        assert code == 0 and report["validation"]["ok"]
        assert [(e["kind"], e["stabilizer_order"]) for e in report["cover"]["node_classes"]] \
            == [("dihedral", 4)]
        assert all(set(entry) == NODE_CLASS_KEYS for entry in report["cover"]["node_classes"])
        assert report["warnings"] == []


def unstable_elliptic_datum() -> BoundaryDatum:
    """S3, one genus-1 component with handle ((012), (012)) and no points."""
    G = PermGroup([perm_from_cycles(3, (0, 1)), perm_from_cycles(3, (0, 1, 2))])
    r = G.id_of(perm_from_cycles(3, (0, 1, 2)))
    return BoundaryDatum(G, (MarkedComponent(1, ((r, r),), ()),))


def unstable_second_component_datum() -> BoundaryDatum:
    """Trivial group, two rational components joined by a node; the second
    has only one other point."""
    G = PermGroup([], degree=1)
    e = G.identity
    return BoundaryDatum(G, (
        MarkedComponent(0, (), (MarkedPoint.node_end(e, 0), MarkedPoint.cyclic(e),
                                MarkedPoint.cyclic(e))),
        MarkedComponent(0, (), (MarkedPoint.node_end(e, 0), MarkedPoint.cyclic(e)))))


@pytest.mark.parametrize("make,warning", [
    (unstable_elliptic_datum,
     "quotient curve is not stable (component 0 has genus 1 and 0 marked points)"),
    (unstable_second_component_datum,
     "quotient curve is not stable (component 1 has genus 0 and 2 marked points)"),
])
def test_analyze_names_the_first_unstable_component(make, warning, tmp_path, capsys):
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(datum_to_jsonable(make())), encoding="utf-8")
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["validation"]["ok"] and not report["validation"]["quotient_stable"]
    assert [w for w in report["warnings"] if "not stable" in w] == [warning]


def test_analyze_pretty(a5_datum_file, capsys):
    code, out, _ = run_cli(capsys, "analyze", str(a5_datum_file), "--pretty")
    assert code == 0
    assert "arithmetic genus=6" in out
    assert "6 x dihedral (stabilizer order 10)" in out


def test_analyze_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 1
    assert "line" in err


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/x.json")
    assert code == 1
    assert "cannot read file" in err


def test_analyze_schema_error(tmp_path, capsys):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({"group": {"degree": 3}, "components": []}),
                    encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert "$.group" in err


def _point(obj, pi):
    return obj["components"][0]["points"][pi]


MALFORMED = {
    "handles-not-a-list": lambda obj: obj["components"][0].update(handles=5),
    "points-not-a-list": lambda obj: obj["components"][0].update(points=5),
    "handles-short-of-genus": lambda obj: obj["components"][0].update(genus=1, handles=[]),
    "negative-degree": lambda obj: obj.update(group={"degree": -1, "generators": []}),
    "boolean-genus": lambda obj: obj["components"][0].update(genus=False),
    "string-degree": lambda obj: obj["group"].update(degree="5"),
    "empty-components": lambda obj: obj.update(components=[]),
    "component-not-an-object": lambda obj: obj["components"].__setitem__(0, 5),
    "handle-not-a-pair": lambda obj: obj["components"][0].update(genus=1, handles=[5]),
    # fields of another point kind are rejected, not dropped
    "s-on-cyclic-point": lambda obj: _point(obj, 0).update(s=_point(obj, 1)["m"]),
    "s-on-node-end": lambda obj: _point(obj, 2).update(s=_point(obj, 1)["m"]),
    "node-on-cyclic-point": lambda obj: _point(obj, 0).update(node=0),
    "node-on-dihedral-point": lambda obj: _point(obj, 0).update(
        kind="dihedral", s=_point(obj, 1)["m"], node=0),
    # a key outside the schema is rejected, not ignored
    "misspelled-points": lambda obj: obj["components"][0].update(
        pionts=obj["components"][0].pop("points")),
    "unknown-datum-field": lambda obj: obj.update(comment="split"),
    "unknown-group-field": lambda obj: obj["group"].update(order=60),
    "unknown-point-field": lambda obj: _point(obj, 0).update(label="p0"),
}


@pytest.mark.parametrize("command", [["analyze"], ["character"],
                                     ["graph", "--which", "cover", "--dot"]])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_datum_exits_1(tmp_path, capsys, command, case):
    obj = datum_to_jsonable(a5_split_datum())
    MALFORMED[case](obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    argv = [command[0], str(path)] + command[1:]
    if command[0] == "graph":
        argv.append(str(tmp_path / "out.dot"))
    code, out, err = run_cli(capsys, *argv)  # an escaping exception fails the test
    assert code == 1
    assert out == ""
    assert err.startswith("error: $.") and "Traceback" not in err


S3 = {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}
T = [1, 0, 2]  # a transposition of S3


@pytest.mark.parametrize("command,obj,diagnostic", [
    # a component's fields have defaults, so a misspelled key would load as
    # a component without points
    (["analyze", "--pretty"],
     {"group": S3, "components": [{"genus": 0, "pionts": [{"kind": "cyclic", "m": T}] * 2}]},
     "$.components[0].pionts: unknown field; expected only genus, handles, points"),
    (["degenerate", "--splits"],
     {"group": S3, "entries": [T, T], "entires": []},
     "$.entires: unknown field; expected only entries, group"),
    # a component or a handle of the wrong shape is named by its path too
    (["analyze"], {"group": S3, "components": [5]}, "$.components[0]: expected an object"),
    (["analyze"], {"group": S3, "components": [{"genus": 1, "handles": [5]}]},
     "$.components[0].handles[0]: expected [a, b]"),
], ids=["datum", "tuple", "component-not-an-object", "handle-not-a-pair"])
def test_unknown_key_names_it(tmp_path, capsys, command, obj, diagnostic):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
    assert (code, out) == (1, "")
    assert err == f"error: {diagnostic}\n"


def test_graph_to_a_missing_directory_exits_1(tmp_path, capsys):
    # the DOT file cannot be opened: an OSError is one error line, exit 1
    datum = Path(__file__).resolve().parents[1] / "docs" / "examples" / "a5_dihedral_datum.json"
    code, out, err = run_cli(capsys, "graph", str(datum), "--dot",
                             str(tmp_path / "missing" / "out.dot"))
    assert (code, out) == (1, "")
    assert err.startswith("error: [Errno 2] ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_analyze_surface_relation_violation(tmp_path, capsys):
    datum = audit.a5_dihedral_degenerations()[0].datum
    obj = datum_to_jsonable(datum)
    obj["components"][0]["points"][1]["m"] = obj["components"][0]["points"][2]["m"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 2
    report = json.loads(out)
    kinds = {v["kind"] for v in report["validation"]["violations"]}
    assert "SurfaceRelation" in kinds
    assert report["cover"] is None


def test_degenerate_splits(a5_tuple_file, capsys):
    code, out, _ = run_cli(capsys, "degenerate", str(a5_tuple_file), "--splits")
    assert code == 0
    result = json.loads(out)
    assert result["count"] == 1
    entry = result["degenerations"][0]
    assert entry["kind"] == "split" and entry["split_at"] == 2
    assert entry["analysis"]["cover"]["arithmetic_genus"] == 6


def test_degenerate_dihedral_with_dedup(tmp_path, capsys):
    path = tmp_path / "t3.json"
    path.write_text(json.dumps(tuple_to_jsonable(audit.a5_tuple())), encoding="utf-8")
    code, out, _ = run_cli(capsys, "degenerate", str(path), "--dihedral", "0")
    assert code == 0
    assert json.loads(out)["count"] == 5
    code, out, _ = run_cli(capsys, "degenerate", str(path), "--dihedral", "0", "--dedup")
    assert code == 0
    assert json.loads(out)["count"] == 5  # involution choices are inequivalent


def test_degenerate_dedup_collapses_conjugates(tmp_path, capsys):
    # entries in <c>, c a 5-cycle: conjugating by c fixes them and moves the
    # five involutions inverting c among themselves
    G = audit.a5_group()
    c = G.id_of(perm_from_cycles(5, (0, 1, 2, 3, 4)))
    entries = (c, c, c, G.inv(G.product([c, c, c])))
    path = tmp_path / "c5.json"
    path.write_text(json.dumps(tuple_to_jsonable(HurwitzTuple(G, entries))), encoding="utf-8")
    code, out, _ = run_cli(capsys, "degenerate", str(path), "--splits", "--dihedral", "0")
    assert code == 0
    assert json.loads(out)["count"] == 6
    code, out, _ = run_cli(capsys, "degenerate", str(path), "--splits", "--dihedral", "0",
                           "--dedup")
    assert code == 0
    assert json.loads(out)["count"] == 2


@pytest.mark.parametrize("flags", [["--splits"], ["--dihedral", "0"], ["--dihedral", "1", "--dedup"]])
def test_degenerate_two_entry_tuple_exits_0(tmp_path, capsys, flags):
    # below 3 entries no stable stratum exists: an empty answer, and no word
    # of a missing involution, since a 5-cycle has five
    G = audit.a5_group()
    c = G.id_of(perm_from_cycles(5, (0, 1, 2, 3, 4)))
    path = tmp_path / "t2.json"
    path.write_text(json.dumps(tuple_to_jsonable(HurwitzTuple(G, (c, G.inv(c))))),
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "degenerate", str(path), *flags)
    assert (code, err) == (0, "")
    result = json.loads(out)
    assert (result["count"], result["degenerations"], result["warnings"]) == (0, [], [])


@pytest.mark.parametrize("flags", [["--splits"], ["--dihedral", "0", "--dedup"]])
def test_degenerate_rejects_entries_whose_product_is_not_one(tmp_path, capsys, flags):
    # HurwitzTuple trusts its entries; validate reports their product as the
    # surface relation, as on any invalid datum
    G = audit.a5_group()
    c = G.id_of(perm_from_cycles(5, (0, 1, 2, 3, 4)))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(tuple_to_jsonable(HurwitzTuple(G, (c, c, c)))), encoding="utf-8")
    code, out, err = run_cli(capsys, "degenerate", str(path), *flags)
    assert (code, out) == (2, "")
    assert err == ("error: datum does not validate: SurfaceRelation at component 0: "
                   "handle commutators times point monodromies != identity\n")


@pytest.mark.parametrize("index", ["3", "7", "-1"])
def test_degenerate_dihedral_index_out_of_range(tmp_path, capsys, index):
    path = tmp_path / "t3.json"
    path.write_text(json.dumps(tuple_to_jsonable(audit.a5_tuple())), encoding="utf-8")
    code, out, err = run_cli(capsys, "degenerate", str(path), "--dihedral", index)
    assert code == 1
    assert out == ""
    assert err == (f"error: --dihedral {index} is out of range: the tuple has 3 entries, "
                   "so the index must lie in 0..2\n")


@pytest.mark.parametrize("path,point,diagnostic", [
    (DIHEDRAL_DATUM, "1:0", "--dihedral 1:0: no component 1 in a datum of 1"),
    (DIHEDRAL_DATUM, "-1:0", "--dihedral -1:0: no component -1 in a datum of 1"),
    (DIHEDRAL_DATUM, "3", "--dihedral 3: component 0 has no point 3"),
    (DIHEDRAL_DATUM, "0:-1", "--dihedral -1: component 0 has no point -1"),
    (DIHEDRAL_DATUM, "0", "--dihedral 0: component 0 point 0 is dihedral, not cyclic"),
    (SPLIT_DATUM, "1:0", "--dihedral 1:0: component 1 point 0 is node, not cyclic"),
    (A5_TUPLE, "1:0", "--dihedral 1:0: no component 1 in a datum of 1"),
], ids=["no-component", "negative-component", "no-point", "negative-point", "dihedral-point",
        "node-end", "tuple-component-1"])
def test_degenerate_dihedral_names_a_missing_or_non_cyclic_point(capsys, path, point, diagnostic):
    # in one word and in two: "--dihedral -1:0" reads "-1:0" as its value, not as an option
    for flag in ([f"--dihedral={point}"], ["--dihedral", point]):
        code, out, err = run_cli(capsys, "degenerate", str(EXAMPLES / path), "--splits", *flag)
        assert (code, out) == (1, ""), flag
        assert err == f"error: {diagnostic}\n", flag


@pytest.mark.parametrize("point", ["x", "1:", "0:1:2", "1.5"])
def test_degenerate_dihedral_that_is_not_ci_index_is_a_usage_error(capsys, point):
    with pytest.raises(SystemExit) as exc:
        main(["degenerate", str(EXAMPLES / DIHEDRAL_DATUM), "--dihedral", point])
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith(
        f"error: argument --dihedral: expected [CI:]INDEX, not {point!r}\n")


def test_degenerate_on_an_invalid_datum_exits_2(capsys):
    invalid = ROOT / "tests" / "golden" / "invalid"
    code, out, err = run_cli(capsys, "degenerate", str(invalid / "s3_unstable_invalid_datum.json"),
                             "--splits")
    assert (code, out) == (2, "")
    assert err.startswith("error: datum does not validate: ") and err.count("\n") == 1


def test_analyze_disconnected_positive_genus_cover(tmp_path, capsys, s5):
    # an A5 image inside S5 with branch orders (5, 5, 3): two cover
    # components of genus 9, so no arithmetic genus and no h1
    a, b = next((a, b) for a in range(s5.order) for b in range(s5.order)
                if s5.element_order(a) == 5 == s5.element_order(b)
                and s5.element_order(s5.mul(a, b)) == 3
                and s5.generated_subgroup([a, b]).order == 60)
    t = HurwitzTuple(s5, (a, b, s5.inv(s5.mul(a, b))))
    path = tmp_path / "s5.json"
    path.write_text(json.dumps(datum_to_jsonable(t)), encoding="utf-8")
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    report = json.loads(out)
    cover, chars = report["cover"], report["characters"]
    assert [c["genus"] for c in cover["components"]] == [9, 9]
    assert not cover["connected"] and cover["arithmetic_genus"] is None
    V, E = cover["component_count"], cover["node_count"]
    assert chars["chi_dR"]["degree"] == chars["degree_chi_dR"] == 2 * (V - E - 18)
    assert chars["h1"] is None


@pytest.mark.parametrize("command", ["analyze", "degenerate"])
def test_declared_degree_above_the_bound_exits_1(tmp_path, capsys, command):
    # a few bytes of input must not buy memory linear in a huge declared degree:
    # the loader rejects it before any permutation of that size is built
    obj = {"group": {"degree": MAX_DEGREE + 1, "generators": []},
           "components": [{"points": [{"kind": "cyclic", "m": []}]}], "entries": [[]]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert err == f"error: $.group.degree: degree {MAX_DEGREE + 1} exceeds {MAX_DEGREE}\n"


def test_declared_degree_at_the_bound_loads(tmp_path, capsys):
    ident = list(range(MAX_DEGREE))
    obj = {"group": {"degree": MAX_DEGREE, "generators": []},
           "components": [{"points": [{"kind": "cyclic", "m": ident}] * 3}]}
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert json.loads(out)["cover"]["component_count"] == 1  # the trivial group


@pytest.mark.parametrize("command", [["analyze"], ["degenerate", "--splits"],
                                     ["character", "--json"], ["graph", "--dot"]])
def test_max_order_reaches_the_loader(tmp_path, capsys, command):
    # |A5| = 60: --max-order 59 fails it as the closure bound does, 60 changes nothing
    argv = [*command, str(tmp_path / "out.dot")] if command[0] == "graph" else command
    path = str(EXAMPLES / A5_TUPLE)
    code, out, err = run_cli(capsys, *argv, path, "--max-order", "59")
    assert (code, out, err) == (1, "", "error: $.group: closure exceeded 59 elements\n")
    assert run_cli(capsys, *argv, path, "--max-order", "60") == run_cli(capsys, *argv, path)


def test_max_order_is_a_loader_keyword():
    obj = json.loads((EXAMPLES / A5_TUPLE).read_text(encoding="utf-8"))
    for load in (datum_from_jsonable, tuple_from_jsonable):
        assert load(obj, max_order=60).group.order == 60
        with pytest.raises(SchemaError, match=r"^\$\.group: closure exceeded 59 elements$"):
            load(obj, max_order=59)


@pytest.mark.parametrize("value", ["0", "-1", "ten", "1.5", ""])
def test_max_order_below_1_is_a_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(EXAMPLES / A5_TUPLE), "--max-order", value])
    assert exc.value.code == 1
    assert "--max-order: expected a positive integer" in capsys.readouterr().err


def test_max_order_fails_a_large_degree_before_it_is_stored(tmp_path):
    # C4000 on 4,000 points stores 4,000 tuples of 4,000 images (about 200 MB
    # for a whole analyze run); at --max-order 100 the budget, 25,600 bytes,
    # holds not one element, so the run fails with one line near the
    # interpreter's own peak (16 MB with CPython 3.11 on x86-64 Linux).  The
    # child's peak is read in a process of its own, which waits for no other child
    images = [(x + 1) % 4000 for x in range(4000)]
    path = tmp_path / "c4000.json"
    path.write_text(json.dumps({"group": {"degree": 4000, "generators": [images]},
                                "entries": [images, images[::-1]]}), encoding="utf-8")
    probe = ("import json, resource, subprocess, sys; "
             "run = subprocess.run(sys.argv[1:], capture_output=True, text=True); "
             "print(json.dumps([run.returncode, run.stdout, run.stderr, "
             "resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", probe, sys.executable, "-m", "hurwitzdegen",
                          "analyze", str(path), "--max-order", "100"],
                         capture_output=True, text=True, check=True, env=env).stdout
    code, stdout, stderr, peak_kib = json.loads(out)
    assert (code, stdout) == (1, "")
    assert stderr == ("error: $.group: closure exceeded 25600 bytes of stored images "
                      "(0 elements at degree 4000)\n")
    assert peak_kib < 40 * 1024


@pytest.mark.parametrize("bad,why", [
    ((MAX_DEGREE - 1, MAX_DEGREE), f"point {MAX_DEGREE - 1}'s image is out of range"),
    ((MAX_DEGREE - 1, 3), f"point {MAX_DEGREE - 1}'s image 3 is also point 3's"),
], ids=["out-of-range", "repeated"])
def test_malformed_generator_names_one_point(tmp_path, capsys, bad, why):
    # the diagnostic names the first bad point instead of echoing all 10^4 images
    images = list(range(MAX_DEGREE))
    images[bad[0]] = bad[1]
    obj = {"group": {"degree": MAX_DEGREE, "generators": [images]},
           "components": [{"points": [{"kind": "cyclic", "m": images}] * 3}]}
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: $.group: not a permutation of 0..{MAX_DEGREE - 1}: {why}\n"
    assert len(err.encode()) < 200


def test_analyze_degree_300_datum(tmp_path, capsys):
    # above degree 256 elements are tuples: C300 with entries (c, c, c^-2)
    c = [(x + 1) % 300 for x in range(300)]
    G = PermGroup([c])
    cid = G.id_of(c)
    t = HurwitzTuple(G, (cid, cid, G.inv(G.mul(cid, cid))))
    path = tmp_path / "c300.json"
    path.write_text(json.dumps(datum_to_jsonable(t)), encoding="utf-8")
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    cover = json.loads(out)["cover"]
    # Riemann-Hurwitz: 2g - 2 = 300 (-2 + (1 - 1/300) + (1 - 1/300) + (1 - 1/150))
    assert 2 * cover["arithmetic_genus"] - 2 == 300 - 4
    assert [c["genus"] for c in cover["components"]] == [149]


UNREALIZABLE = ("no inverting involution exists for entry {} (order 7): "
                "this dihedral boundary stratum is not realizable for this group")


def test_degenerate_unrealizable_warns(tmp_path, capsys):
    path = tmp_path / "psl.json"
    path.write_text(json.dumps(tuple_to_jsonable(audit.psl27_tuple())), encoding="utf-8")
    code, out, _ = run_cli(capsys, "degenerate", str(path), "--dihedral", "0")
    assert code == 0
    result = json.loads(out)
    assert result["count"] == 0
    assert result["warnings"] == [UNREALIZABLE.format(0)]


def test_degenerate_unrealizable_warns_at_any_component(tmp_path, capsys):
    # two copies of the PSL(2, 7) tuple, whose entry 0 has order 7 and no
    # inverting involution: the warning names the point as --dihedral does
    t = audit.psl27_tuple()
    path = tmp_path / "psl_twice.json"
    path.write_text(json.dumps(datum_to_jsonable(disjoint_union(t, t))), encoding="utf-8")
    code, out, _ = run_cli(capsys, "degenerate", str(path), "--dihedral", "1:0")
    assert code == 0
    result = json.loads(out)
    assert (result["count"], result["warnings"]) == (0, [UNREALIZABLE.format("1:0")])


def test_character_table(a5_datum_file, capsys):
    code, out, _ = run_cli(capsys, "character", str(a5_datum_file))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split()[:3] == ["class", "order", "size"]
    assert len([ln for ln in lines if ln and ln[0].isspace() or ln]) >= 7
    code, out, _ = run_cli(capsys, "character", str(a5_datum_file), "--json")
    assert code == 0
    chars = json.loads(out)
    assert chars["h1"]["values"] == [12, -4, 0, 2, 2]


def test_graph_outputs(a5_datum_file, tmp_path, capsys):
    qdot = tmp_path / "q.dot"
    code, _, _ = run_cli(capsys, "graph", str(a5_datum_file), "--dot", str(qdot))
    assert code == 0
    text = qdot.read_text(encoding="utf-8")
    assert "style=dashed" in text
    assert text.count(" -- ") == 1

    cdot = tmp_path / "c.dot"
    code, _, _ = run_cli(capsys, "graph", str(a5_datum_file),
                         "--dot", str(cdot), "--which", "cover")
    assert code == 0
    cover_text = cdot.read_text(encoding="utf-8")
    assert cover_text.count(" -- ") == 6
    assert "dashed" not in cover_text

    # determinism: a second run writes identical bytes
    code, _, _ = run_cli(capsys, "graph", str(a5_datum_file), "--dot", str(qdot))
    assert code == 0
    assert qdot.read_text(encoding="utf-8") == text


def test_verify_examples(capsys):
    code, out, err = run_cli(capsys, "verify-examples")
    assert code == 0
    assert "a5-arithmetic-genus" in out
    assert "WARN" in out                       # realizability + genus notes
    assert "normalizer order 21" in out
    assert "0 failure(s)" in out
    assert err == ""


def test_verify_examples_fails_on_tampered_pipeline(capsys, monkeypatch):
    import hurwitzdegen.audit as audit_mod
    monkeypatch.setattr(audit_mod, "rh_genus",
                        lambda order, h, orders: 99)
    code, out, err = run_cli(capsys, "verify-examples")
    assert code == 2
    assert "FAILED: klein-genus-3" in err


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["degenerate"])  # missing path
    assert exc.value.code == 1


def test_parser_is_built_once_and_reused(a5_datum_file, capsys):
    assert build_parser() is build_parser()
    _, plain, _ = run_cli(capsys, "analyze", str(a5_datum_file))
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 1
    assert "the following arguments are required: path" in capsys.readouterr().err
    code, pretty, _ = run_cli(capsys, "analyze", str(a5_datum_file), "--pretty")
    assert code == 0 and pretty.startswith("group: degree 5")
    code, again, _ = run_cli(capsys, "analyze", str(a5_datum_file))
    assert code == 0
    assert again == plain  # no --pretty state carried over
    json.loads(again)


def test_committed_example_files_match_builders():
    root = Path(__file__).resolve().parents[1] / "docs" / "examples"
    datum = audit.a5_dihedral_degenerations()[0].datum
    assert json.loads((root / "a5_dihedral_datum.json").read_text()) == \
        datum_to_jsonable(datum)
    assert json.loads((root / "a5_split_datum.json").read_text()) == \
        datum_to_jsonable(a5_split_datum())
    assert json.loads((root / "a5_tuple.json").read_text()) == \
        tuple_to_jsonable(a5_smoothed_tuple())
    assert json.loads((root / "a5_three_point_tuple.json").read_text()) == \
        tuple_to_jsonable(audit.a5_tuple())
    assert json.loads((root / "psl27_tuple.json").read_text()) == \
        tuple_to_jsonable(audit.psl27_tuple())


def test_cli_import_loads_no_slow_modules():
    # -S keeps site hooks out, as a .pth file may preload typing
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import hurwitzdegen.cli; "
            "cli = sorted(sys.modules); import hurwitzdegen.audit; "
            "print(json.dumps([cli, sorted(sys.modules)]))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                         capture_output=True, text=True, check=True).stdout
    at_cli, with_audit = map(set, json.loads(out))
    slow = {"dataclasses", "inspect", "fractions", "decimal", "typing"}
    assert "hurwitzdegen.cli" in at_cli and not at_cli & (slow | {"hurwitzdegen.audit"})
    assert "hurwitzdegen.audit" in with_audit and not with_audit & slow


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("pretty", [[], ["--pretty"]])
def test_closed_stdout_exits_1_with_no_message(pretty, unbuffered):
    # the reader is gone before the report is written: unbuffered, the write
    # fails inside the command, buffered, main's flush does
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONUNBUFFERED": unbuffered}
    with subprocess.Popen([sys.executable, "-m", "hurwitzdegen", "analyze",
                           str(EXAMPLES / "a5_tuple.json"), *pretty],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as child:
        child.stdout.close()
        err = child.stderr.read()
    assert (child.returncode, err) == (1, b"")


# -- a tuple file and its datum copy ---------------------------------------------

TUPLE_FILES = [path for path, datum in inputs(VALID + INVALID) if isinstance(datum, HurwitzTuple)]


def _run_with_dot(capsys, argv, dot):
    """Exit code, stdout, stderr and the DOT file of one run."""
    dot.unlink(missing_ok=True)
    code, out, err = run_cli(capsys, *argv)
    return code, out, err, dot.read_bytes() if dot.exists() else None


def _split_shape(out: str, header: str) -> tuple[dict, str, list]:
    """A degenerate report as its header, the rest as printed, and each
    entry's component, which only a datum input carries."""
    report = json.loads(out)
    assert list(report)[0] == header
    head = report.pop(header)
    components = [entry.pop("component", None) for entry in report["degenerations"]]
    return head, json.dumps(report, indent=2) + "\n", components


@pytest.mark.parametrize("path", TUPLE_FILES)
def test_a_tuple_file_prints_what_its_datum_copy_prints(tmp_path, capsys, monkeypatch, path):
    # every command, with every flag set that CI runs, exits 0 on a valid
    # tuple and 2 on an invalid one; a degenerate report differs only in its
    # header and in the component of each entry, which is 0
    monkeypatch.chdir(ROOT)
    t = datum_from_jsonable(json.loads(Path(path).read_text(encoding="utf-8")))
    expected = 2 if Path(path).parent.as_posix() in INVALID else 0
    copy = tmp_path / "datum.json"
    copy.write_text(json.dumps(datum_to_jsonable(t)), encoding="utf-8")
    dot = tmp_path / "out.dot"
    runs = zip(file_runs(path, t, str(dot)), file_runs(str(copy), t, str(dot)))
    for argv, copy_argv in runs:
        code, out, err, dot_bytes = _run_with_dot(capsys, argv, dot)
        assert code == expected and (err == "") == (code == 0 or argv[0] == "analyze"), argv
        assert (dot_bytes is None) == (argv[0] != "graph" or code != 0)
        if argv[0] != "degenerate" or code != 0:
            assert _run_with_dot(capsys, copy_argv, dot) == (code, out, err, dot_bytes), argv
            continue
        copy_code, copy_out, copy_err, copy_dot = _run_with_dot(capsys, copy_argv, dot)
        assert (copy_code, copy_err, copy_dot) == (0, "", None), argv
        head, rest, components = _split_shape(out, "tuple")
        copy_head, copy_rest, copy_components = _split_shape(copy_out, "datum")
        assert head == json.loads(Path(path).read_text(encoding="utf-8"))
        assert copy_head == datum_to_jsonable(t)
        assert rest == copy_rest, argv
        assert components == [None] * len(components) and copy_components == [0] * len(components)


def test_a_failing_run_prints_at_most_one_error_line(tmp_path, capsys, monkeypatch):
    # every replayed run exits as cli_runs says, and a JSON report prints as
    # json.dumps(indent=2) would on this Python; a run that exits 1 or 2 prints
    # one "error: " line on stderr, or none from analyze, whose report says it
    monkeypatch.chdir(ROOT)
    for argv, expected in cli_runs(str(tmp_path / "out.dot")):
        code, out, err = run_cli(capsys, *argv)
        assert code == expected, argv
        if prints_json(argv, code):
            assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
        if code and argv[0] == "analyze":
            assert err == "", argv
        elif code:
            assert err.startswith("error: ") and err.count("\n") == 1, argv


def _other_generator_lists(gens: list) -> list[list]:
    """Three other generating lists of one group: ``gens`` reversed, and the
    product of its first two appended and prepended."""
    ab = list(compose(gens[0], gens[1]))
    return [gens[::-1], [*gens, ab], [ab, *gens]]


def _without_groups(obj):
    """A report with every echoed ``group`` left out."""
    if isinstance(obj, dict):
        return {k: _without_groups(v) for k, v in obj.items() if k != "group"}
    if isinstance(obj, list):
        return list(map(_without_groups, obj))
    return obj


def _every_degeneration(datum: BoundaryDatum) -> list:
    return split_degenerations(datum) + [
        deg for ci, comp in enumerate(datum.components) for pi, pt in enumerate(comp.points)
        if pt.kind == "cyclic" for deg in dihedral_degenerations(datum, pi, ci)]


@pytest.mark.parametrize("path", [path for path, _ in inputs(VALID)])
def test_reports_do_not_depend_on_the_order_of_the_generators(tmp_path, capsys, monkeypatch,
                                                               path):
    # ids follow the closure, which follows the generators as listed; no
    # report, key or dedup may: every command prints what it prints on the
    # file itself, but for the echoed group, and the data are equivalent
    monkeypatch.chdir(ROOT)
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    datum = datum_from_jsonable(obj)
    degs = _every_degeneration(datum)
    classes = len(dedup(degs))
    dot, copy, apart = tmp_path / "out.dot", tmp_path / "copy.json", []
    for gens in _other_generator_lists(obj["group"]["generators"]):
        copy.write_text(json.dumps({**obj, "group": {**obj["group"], "generators": gens}}),
                        encoding="utf-8")
        for argv, copy_argv in zip(file_runs(path, datum, str(dot)),
                                   file_runs(str(copy), datum, str(dot))):
            code, out, err, dot_bytes = _run_with_dot(capsys, argv, dot)
            copy_code, copy_out, copy_err, copy_dot = _run_with_dot(capsys, copy_argv, dot)
            assert (copy_code, copy_err, copy_dot) == (code, err, dot_bytes), argv
            if out.startswith("{"):
                assert _without_groups(json.loads(copy_out)) == _without_groups(json.loads(out))
            else:
                assert copy_out == out, argv
        twin = datum_from_jsonable(json.loads(copy.read_text(encoding="utf-8")))
        apart.append(twin.group.elements != datum.group.elements)
        assert equivalent(datum, twin) and equivalent(twin, datum)
        twin_degs = _every_degeneration(twin)
        assert len(dedup(degs + twin_degs)) == len(dedup(twin_degs + degs)) == classes
    assert any(apart)  # some list numbers the elements apart
