"""Table-driven CLI fuzz test.

Every subcommand that reads a file meets malformed input with exit code 0,
1 or 2 and a one-line diagnostic, never a traceback; on exit 1 the
diagnostic starts with ``error: ``.  Random admissible data pass every
datum subcommand with exit 0.
"""

from __future__ import annotations

import json
import random

import pytest

from hurwitzdegen import audit, datum_to_jsonable, tuple_to_jsonable
from hurwitzdegen.cli import main

from conftest import inverting_pairs, random_valid_datum

IDENTITY5 = [0, 1, 2, 3, 4]

RAW_TEXT = {"non-json": "{not json", "empty-list": "[]", "null": "null", "number": "5"}


def _point(obj, ci, pi):
    return obj["components"][ci]["points"][pi]


DATUM_CASES = {
    "kind-is-a-list": lambda obj: _point(obj, 0, 0).update(kind=["cyclic"]),
    "m-null": lambda obj: _point(obj, 0, 0).update(m=None),
    "m-short": lambda obj: _point(obj, 0, 0).update(m=[1, 0]),
    "m-float": lambda obj: _point(obj, 0, 0).update(m=[0.0, 1, 2, 3, 4]),
    "degree-0-group": lambda obj: obj.update(group={"degree": 0, "generators": []}),
    "node-id-on-three-points": lambda obj: _point(obj, 0, 0).update(kind="node", node=0),
}

TUPLE_CASES = {
    "as-built": lambda obj: None,
    "entries-null": lambda obj: obj.update(entries=None),
    "entries-empty": lambda obj: obj.update(entries=[]),
    "two-entries": lambda obj: obj.update(entries=obj["entries"][:2]),
    "three-identities": lambda obj: obj.update(entries=[IDENTITY5] * 3),
    "degree-0-group": lambda obj: obj.update(group={"degree": 0, "generators": []}),
}

DATUM_COMMANDS = {
    "analyze": ["analyze"],
    "analyze-pretty": ["analyze", "--pretty"],
    "character": ["character"],
    "graph-quotient": ["graph", "--dot", "{out}"],
    "graph-cover": ["graph", "--which", "cover", "--dot", "{out}"],
}

DEGENERATE_FLAGS = {
    "splits": ["--splits"],
    "dihedral": ["--dihedral", "0", "--dedup"],
    "splits-dihedral-negative": ["--splits", "--dihedral", "-1"],
}


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


@pytest.mark.parametrize("command", sorted(DATUM_COMMANDS))
@pytest.mark.parametrize("case", sorted(RAW_TEXT) + sorted(DATUM_CASES))
def test_datum_commands_survive_malformed_input(tmp_path, capsys, command, case):
    if case in RAW_TEXT:
        text = RAW_TEXT[case]
    else:
        obj = datum_to_jsonable(audit.a5_split_datum())
        DATUM_CASES[case](obj)
        text = json.dumps(obj)
    path = _write(tmp_path, text)
    code, _, err = run_cli(capsys, _argv(DATUM_COMMANDS[command], path, tmp_path))
    assert_clean_exit(code, err)
    assert code == (2 if case == "node-id-on-three-points" else 1)


@pytest.mark.parametrize("flags", sorted(DEGENERATE_FLAGS))
@pytest.mark.parametrize("case", sorted(RAW_TEXT) + sorted(TUPLE_CASES))
def test_degenerate_survives_malformed_input(tmp_path, capsys, flags, case):
    if case in RAW_TEXT:
        text = RAW_TEXT[case]
    else:
        obj = tuple_to_jsonable(audit.a5_smoothed_tuple())
        TUPLE_CASES[case](obj)
        text = json.dumps(obj)
    path = _write(tmp_path, text)
    code, _, err = run_cli(capsys, ["degenerate", str(path)] + DEGENERATE_FLAGS[flags])
    assert_clean_exit(code, err)
    if flags == "splits-dihedral-negative":
        assert code == 1


@pytest.mark.parametrize("group", ["s4", "d5", "a5", "psl27"])
def test_random_valid_data_exit_0(request, tmp_path, capsys, group):
    G = request.getfixturevalue(group)
    rng = random.Random(f"fuzz-{group}")
    pairs = inverting_pairs(G)
    for _ in range(40):
        path = _write(tmp_path, json.dumps(datum_to_jsonable(random_valid_datum(G, rng, pairs))))
        for command in ("analyze", "character", "graph-cover"):
            code, _, err = run_cli(capsys, _argv(DATUM_COMMANDS[command], path, tmp_path))
            assert code == 0, (command, err)
