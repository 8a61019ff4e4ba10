"""Table-driven CLI fuzz test.

Every subcommand that reads a file, ``degenerate`` included, meets malformed
data, tuples and raw bytes with exit code 0, 1 or 2 and a one-line
diagnostic, never a traceback; on exit 1 the diagnostic starts with
``error: ``.  Random admissible data pass every subcommand with exit 0.
"""

from __future__ import annotations

import json
import random

import pytest

from hurwitzdegen import datum_to_jsonable, tuple_to_jsonable
from hurwitzdegen.cli import main

from conftest import a5_smoothed_tuple, a5_split_datum, inverting_pairs, random_valid_datum

IDENTITY5 = [0, 1, 2, 3, 4]
BOOL_IDENTITY5 = [False, True, 2, 3, 4]  # the identity if booleans were read as integers
CYCLE300 = [(x + 1) % 300 for x in range(300)]  # images past 255 in a degree-5 group

RAW_TEXT = {"non-json": "{not json", "empty-list": "[]", "null": "null", "number": "5",
            "nested-100000": "[" * 100000,
            # past the int-to-string digit limit json.load raises a plain ValueError
            "int-5000-digits": '{"group": {"degree": 1, "generators": []}, '
                               '"components": [{"genus": ' + "9" * 5000 + "}]}"}
RAW_BYTES = {"invalid-utf8": b"\xff\xfe{}"}


def _point(obj, ci, pi):
    return obj["components"][ci]["points"][pi]


DATUM_CASES = {
    "kind-is-a-list": lambda obj: _point(obj, 0, 0).update(kind=["cyclic"]),
    "m-null": lambda obj: _point(obj, 0, 0).update(m=None),
    "m-short": lambda obj: _point(obj, 0, 0).update(m=[1, 0]),
    "m-float": lambda obj: _point(obj, 0, 0).update(m=[0.0, 1, 2, 3, 4]),
    "m-bool": lambda obj: _point(obj, 0, 0).update(m=BOOL_IDENTITY5),
    "m-negative": lambda obj: _point(obj, 0, 0).update(m=[-1, 0, 1, 2, 3]),
    "handle-bool": lambda obj: obj["components"][0].update(
        genus=1, handles=[[BOOL_IDENTITY5, IDENTITY5]]),
    "m-degree-300": lambda obj: _point(obj, 0, 0).update(m=CYCLE300),
    "degree-0-group": lambda obj: obj.update(group={"degree": 0, "generators": []}),
    "node-id-on-three-points": lambda obj: _point(obj, 0, 0).update(kind="node", node=0),
}

TUPLE_CASES = {
    "as-built": lambda obj: None,
    "entries-null": lambda obj: obj.update(entries=None),
    "entries-empty": lambda obj: obj.update(entries=[]),
    "two-entries": lambda obj: obj.update(entries=obj["entries"][:2]),
    "three-identities": lambda obj: obj.update(entries=[IDENTITY5] * 3),
    "m-degree-300": lambda obj: obj["entries"].__setitem__(0, CYCLE300),
    "entry-bool": lambda obj: obj["entries"].__setitem__(0, BOOL_IDENTITY5),
    "degree-0-group": lambda obj: obj.update(group={"degree": 0, "generators": []}),
}

NOT_A_LIST = "expected a permutation as a list of integer images"

# cases with one malformed image array, and the one stderr line, naming its
# $.path, that they must print
IMAGE_ERRORS = {
    "m-bool": f"error: $.components[0].points[0].m: {NOT_A_LIST}",
    "m-negative": "error: $.components[0].points[0].m: "
                  "permutation [-1, 0, 1, 2, 3] is not an element of this group",
    "handle-bool": f"error: $.components[0].handles[0][0]: {NOT_A_LIST}",
    "entry-bool": f"error: $.entries[0]: {NOT_A_LIST}",
}

# every command reads a datum or a tuple file; degenerate is named by its flags
COMMANDS = {
    "analyze": ["analyze"],
    "analyze-pretty": ["analyze", "--pretty"],
    "character": ["character"],
    "graph-quotient": ["graph", "--dot", "{out}"],
    "graph-cover": ["graph", "--which", "cover", "--dot", "{out}"],
    "splits": ["degenerate", "--splits"],
    "dihedral": ["degenerate", "--dihedral", "0", "--dedup"],
    "splits-dihedral-negative": ["degenerate", "--splits", "--dihedral", "-1"],
}
RAW_CASES = sorted(RAW_TEXT) + sorted(RAW_BYTES)
VALID_TUPLE_CASES = {"as-built", "three-identities"}


def run_cli(capsys, argv):
    """Exit code, stdout and stderr of one in-process run; an exception
    escaping ``main`` (a traceback, out of process) fails the calling test."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_clean_exit(code, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error: ")


def _argv(command, path, tmp_path):
    head, *flags = command
    return [head, str(path)] + [f.format(out=tmp_path / "out.dot") for f in flags]


def _write(tmp_path, text):
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    return path


def _write_raw(tmp_path, case):
    """The input file of a ``RAW_TEXT`` or ``RAW_BYTES`` case."""
    if case in RAW_TEXT:
        return _write(tmp_path, RAW_TEXT[case])
    path = tmp_path / "input.json"
    path.write_bytes(RAW_BYTES[case])
    return path


def _input(tmp_path, case, shape):
    """The input file of a case: raw bytes, or the A5 datum or tuple of
    ``shape`` ("datum" or "tuple"), changed as its case says."""
    if case in RAW_TEXT or case in RAW_BYTES:
        return _write_raw(tmp_path, case)
    if shape == "datum":
        obj = datum_to_jsonable(a5_split_datum())
        DATUM_CASES[case](obj)
    else:
        obj = tuple_to_jsonable(a5_smoothed_tuple())
        TUPLE_CASES[case](obj)
    return _write(tmp_path, json.dumps(obj))


def check_survives(tmp_path, capsys, command, case, shape):
    """One command on one case: 2 for the datum that fails validation, 0 for
    a valid tuple unless --dihedral names no point of it, else 1 with one
    error line.  A file that does not load prints the loader's diagnostic,
    the same under every command, naming its $.path where it is JSON."""
    path = _input(tmp_path, case, shape)
    code, _, err = run_cli(capsys, _argv(COMMANDS[command], path, tmp_path))
    assert_clean_exit(code, err)
    valid = shape == "tuple" and case in VALID_TUPLE_CASES
    if case == "node-id-on-three-points":
        assert code == 2
    elif valid:
        assert code == (1 if command == "splits-dihedral-negative" else 0)
    else:
        assert code == 1
        assert err == run_cli(capsys, ["analyze", str(path)])[2]
        assert err.count("\n") == 1 and err.startswith("error: $." if case not in RAW_CASES
                                                        else "error: ")
    if case in IMAGE_ERRORS:
        assert err == IMAGE_ERRORS[case] + "\n"


# one command table over the two input shapes, datum files and tuple files;
# the tuple test keeps its older name, so its cases keep their ids
@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("case", RAW_CASES + sorted(DATUM_CASES))
def test_datum_commands_survive_malformed_input(tmp_path, capsys, command, case):
    check_survives(tmp_path, capsys, command, case, "datum")


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("case", RAW_CASES + sorted(TUPLE_CASES))
def test_degenerate_survives_malformed_input(tmp_path, capsys, command, case):
    check_survives(tmp_path, capsys, command, case, "tuple")


def test_permutation_of_another_degree_names_its_path(tmp_path, capsys):
    obj = datum_to_jsonable(a5_split_datum())
    DATUM_CASES["m-degree-300"](obj)
    path = _write(tmp_path, json.dumps(obj))
    code, _, err = run_cli(capsys, ["analyze", str(path)])
    assert code == 1
    assert err == (f"error: $.components[0].points[0].m: "
                   f"permutation {CYCLE300} is not an element of this group\n")
    obj = tuple_to_jsonable(a5_smoothed_tuple())
    TUPLE_CASES["m-degree-300"](obj)
    path = _write(tmp_path, json.dumps(obj))
    for argv in (["degenerate", str(path), "--splits"], ["analyze", str(path)]):
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert err == (f"error: $.entries[0]: permutation {CYCLE300} "
                       "is not an element of this group\n")


@pytest.mark.parametrize("group", ["s4", "d5", "a5", "psl27"])
def test_random_valid_data_exit_0(request, tmp_path, capsys, group):
    G = request.getfixturevalue(group)
    rng = random.Random(f"fuzz-{group}")
    pairs = inverting_pairs(G)
    for _ in range(40):
        path = _write(tmp_path, json.dumps(datum_to_jsonable(random_valid_datum(G, rng, pairs))))
        for command in ("analyze", "character", "graph-cover", "splits"):
            code, _, err = run_cli(capsys, _argv(COMMANDS[command], path, tmp_path))
            assert code == 0, (command, err)
