"""Command-line front end.

Exit codes: 0 = success, 1 = usage, I/O or schema problems, 2 = domain
violations (invalid datum, failed audit assertion), so shell pipelines can
tell bad input from bad math.  All output is deterministic for fixed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

from .boundary import (BoundaryDatum, HurwitzTuple, datum_from_jsonable, datum_to_jsonable,
                       datum_warnings, dual_graph_of_groups, tuple_to_jsonable,
                       unstable_components, validate)
from .cohomology import (character_to_jsonable, classes_to_jsonable, de_rham_character,
                         render_character_table)
from .covers import build_cover, cover_report, cover_to_dot
from .degen import (SPLIT, dedup as dedup_degenerations, dihedral_degenerations,
                    split_degenerations)
from .errors import HurwitzDegenError, InvalidDatum, SchemaError
from .groups import DEFAULT_CLOSURE_BOUND


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for
    # domain violations, so remap usage problems to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_datum(args) -> BoundaryDatum:
    """The datum or tuple in the file ``args.path``, its group closed within ``--max-order``."""
    path = args.path
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SchemaError(path, f"cannot read file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(path, f"invalid JSON at line {exc.lineno} column {exc.colno}: "
                                f"{exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(path, f"not UTF-8: {exc.reason} at byte {exc.start}") from None
    except ValueError as exc:  # an integer literal past sys.get_int_max_str_digits()
        raise SchemaError(path, f"invalid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError(path, "invalid JSON: nested too deeply") from None
    return datum_from_jsonable(obj, max_order=args.max_order)


def json_dump(report) -> None:
    """Write one JSON report to stdout in a single write, as
    ``json.dumps(report, indent=2)`` would print it, plus a newline."""
    out: list[str] = []
    _write_json(report, "\n", out)
    out.append("\n")
    sys.stdout.write("".join(out))


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append the indent-2 JSON text of ``value`` to ``out``; ``newline`` is
    a newline plus the indent of the line ``value`` starts on.  Strings go
    through the C escaper of ``json.dumps``, a dict's int and str values with no
    call; floats and other types raise ``TypeError``, as exact reports hold none."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        inner, sep = newline + "  ", "{"
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
            out += (sep, inner, _quote(key), ": ")
            kind = type(item)
            if kind is int or kind is str:
                out.append(int.__repr__(item) if kind is int else _quote(item))
            else:
                _write_json(item, inner, out)
            sep = ","
        out += (newline, "}") if value else ("{}",)
    elif isinstance(value, list):
        inner = newline + "  "
        if set(map(type, value)) == {int}:
            out += ("[", inner, ("," + inner).join(map(int.__repr__, value)), newline, "]")
            return
        sep = "["
        for item in value:
            out += (sep, inner)
            _write_json(item, inner, out)
            sep = ","
        out += (newline, "]") if value else ("[]",)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def analyze_datum(datum: BoundaryDatum) -> tuple[dict, int]:
    """Full analysis report plus the analyze exit code (0 or 2); the datum is
    validated once, by ``dual_graph_of_groups``, whose ``InvalidDatum`` lists
    the violations.  The cover block and the characters are both read off
    that one graph of groups; no cover is built."""
    try:
        gog, violations = dual_graph_of_groups(datum), []
    except InvalidDatum as exc:
        gog, violations = None, exc.violations
    unstable = unstable_components(datum)
    warnings = list(datum_warnings(datum))
    if unstable:
        comp = datum.components[unstable[0]]
        warnings.append(f"quotient curve is not stable (component {unstable[0]} has genus "
                        f"{comp.genus} and {len(comp.points)} marked points)")
    report: dict = {
        "datum": datum_to_jsonable(datum),
        "validation": {
            "ok": not violations,
            "violations": [{"kind": v.kind, "location": v.location, "detail": v.detail}
                           for v in violations],
            "quotient_stable": not unstable,
        },
        "cover": None,
        "characters": None,
        "warnings": warnings,
    }
    if gog is None:
        return report, 2

    cov = cover_report(gog)
    report["cover"] = cov
    if not cov["connected"]:
        warnings.append("cover is disconnected; arithmetic genus reported per component")

    dev = de_rham_character(gog)
    report["characters"] = {
        "classes": classes_to_jsonable(datum.group),
        "connected": cov["connected"],
        "degree_chi_dR": dev.chi_dR[0],
        "chi_dR": character_to_jsonable(dev.chi_dR),
        "chi_normalization": character_to_jsonable(dev.chi_normalization),
        "edge_induction_sum": character_to_jsonable(dev.edge_induction_sum),
        "h1": None if dev.h1_character is None else character_to_jsonable(dev.h1_character),
    }
    return report, 0


def _print_pretty(report: dict, out) -> None:
    datum = report["datum"]
    print(f"group: degree {datum['group']['degree']}, "
          f"{len(datum['components'])} quotient component(s)", file=out)
    val = report["validation"]
    if val["ok"]:
        print("validation: ok", file=out)
    else:
        print(f"validation: {len(val['violations'])} violation(s)", file=out)
        for v in val["violations"]:
            print(f"  - {v['kind']} at {v['location']}: {v['detail']}", file=out)
    print(f"quotient stable: {'yes' if val['quotient_stable'] else 'no'}", file=out)
    cov = report["cover"]
    if cov:
        ga = cov["arithmetic_genus"]
        print(f"cover: {cov['component_count']} component(s), {cov['node_count']} node(s), "
              f"connected={'yes' if cov['connected'] else 'no'}, "
              f"stable={'yes' if cov['stable'] else 'no'}, "
              f"arithmetic genus={ga if ga is not None else 'n/a'}", file=out)
        for entry in cov["node_classes"]:
            print(f"  nodes: {entry['count']} x {entry['kind']} "
                  f"(stabilizer order {entry['stabilizer_order']})", file=out)
    chars = report["characters"]
    if chars:
        print(f"deg chi_dR = {chars['degree_chi_dR']}", file=out)
        header = ["class", "order", "size", "chi_dR"] + (["h1"] if chars["h1"] else [])
        print("  ".join(header), file=out)
        for i, cls in enumerate(chars["classes"]):
            row = [cls["label"], str(cls["order"]), str(cls["size"]),
                   str(chars["chi_dR"]["values"][i])]
            if chars["h1"]:
                row.append(str(chars["h1"]["values"][i]))
            print("  ".join(row), file=out)
    for w in report["warnings"]:
        print(f"warning: {w}", file=out)


def cmd_analyze(args) -> int:
    datum = _load_datum(args)
    report, code = analyze_datum(datum)
    if args.pretty:
        _print_pretty(report, sys.stdout)
    else:
        json_dump(report)
    return code


def _max_order(text: str) -> int:
    """``--max-order N``: a positive integer."""
    n = int(text) if text.strip().isdecimal() else 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, not {text!r}")
    return n


def _datum_arguments(p: argparse.ArgumentParser, what: str) -> None:
    """The input file of a command that loads a datum, and its closure bound."""
    p.add_argument("path", help=what)
    p.add_argument("--max-order", type=_max_order, default=DEFAULT_CLOSURE_BOUND, metavar="N",
                   help="fail a group of more than N elements, or of more than 256 N bytes "
                        "of stored images (default %(default)s)")


def _component_point(text: str) -> tuple[int, int]:
    """``--dihedral [CI:]INDEX`` as (CI, INDEX); a bare INDEX is on component 0."""
    ci, _, pi = text.rpartition(":")
    try:
        return int(ci or 0), int(pi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected [CI:]INDEX, not {text!r}") from None


def cmd_degenerate(args) -> int:
    datum = _load_datum(args)
    violations = validate(datum)
    if violations:
        raise InvalidDatum(violations)
    is_tuple = isinstance(datum, HurwitzTuple)
    found, warnings = [], []
    if args.dihedral is not None:
        ci, pi = args.dihedral
        where = f"{ci}:{pi}" if ci else str(pi)   # as --dihedral names it
        try:
            found = dihedral_degenerations(datum, pi, ci)
        except ValueError as exc:   # no component ci, no point pi, or a point that is not cyclic
            n = len(datum.components[0].points)
            print(f"error: --dihedral {where} is out of range: the tuple has {n} entries, so "
                  f"the index must lie in 0..{n - 1}" if is_tuple and ci == 0 else
                  f"error: --dihedral {where}: {exc}", file=sys.stderr)
            return 1
        if not found and ci not in unstable_components(datum):
            warnings.append(
                f"no inverting involution exists for entry {where} "
                f"(order {datum.group.element_order(datum.point(ci, pi).m)}): "
                "this dihedral boundary stratum is not realizable for this group")
    degs = (split_degenerations(datum) if args.splits else []) + found
    if args.dedup:
        degs = dedup_degenerations(degs)
    out = {"tuple": tuple_to_jsonable(datum)} if is_tuple else {"datum": datum_to_jsonable(datum)}
    out.update(count=len(degs), degenerations=[], warnings=warnings)
    for deg in degs:
        report, _ = analyze_datum(deg.datum)
        entry = {"kind": deg.kind, "analysis": report}
        if not is_tuple:
            entry["component"] = deg.component
        if deg.kind == SPLIT:
            entry["split_at"] = deg.index
        else:
            s = deg.datum.point(deg.component, deg.index).s
            entry["index"], entry["involution"] = deg.index, list(datum.group.perm(s))
        out["degenerations"].append(entry)
    json_dump(out)
    return 0


def cmd_character(args) -> int:
    datum = _load_datum(args)
    report, code = analyze_datum(datum)
    if code != 0:
        for v in report["validation"]["violations"]:
            print(f"{v['kind']} at {v['location']}: {v['detail']}", file=sys.stderr)
        return code
    chars = report["characters"]
    if args.json:
        json_dump(chars)
        return 0
    table = {name: chars[name]["values"] for name in ("chi_dR", "h1") if chars[name] is not None}
    sys.stdout.write(render_character_table(datum.group, table))
    return 0


def cmd_graph(args) -> int:
    datum = _load_datum(args)
    if args.which == "quotient":
        dot = dual_graph_of_groups(datum).to_dot()
    else:
        dot = cover_to_dot(build_cover(datum))
    with open(args.dot, "w", encoding="utf-8") as fh:
        fh.write(dot)
    return 0


def cmd_verify_examples(_args) -> int:
    from .audit import FAIL, audit_passed, run_audit   # only this command loads the audit

    checks = run_audit()
    width = max(len(c.name) for c in checks)
    for c in checks:
        print(f"{c.status:<4}  {c.name:<{width}}  {c.detail}")
    n_pass = sum(1 for c in checks if c.status == "PASS")
    n_warn = sum(1 for c in checks if c.status == "WARN")
    n_fail = sum(1 for c in checks if c.status == FAIL)
    print(f"{n_pass} passed, {n_warn} warning(s), {n_fail} failure(s)")
    if not audit_passed(checks):
        first = next(c for c in checks if c.status == FAIL)
        print(f"FAILED: {first.name}", file=sys.stderr)
        return 2
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by every later ``main``
    call in the process: ``parse_args`` returns a fresh namespace each time
    and errors go to the ``sys.stderr`` of the moment."""
    parser = _Parser(prog="hurwitzdegen",
                     description="Boundary data, covers, characters and "
                                 "degenerations of group actions on curves")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="validate a datum and report its cover and characters")
    _datum_arguments(p, "datum JSON file")
    p.add_argument("--pretty", action="store_true", help="human-readable output")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("degenerate", help="enumerate codimension-1 degenerations of a datum")
    _datum_arguments(p, "datum or tuple JSON file")
    p.add_argument("--splits", action="store_true", help="split degenerations")
    p.add_argument("--dihedral", type=_component_point, metavar="[CI:]INDEX",
                   help="dihedral degenerations at point INDEX of component CI (default 0)")
    p.add_argument("--dedup", action="store_true",
                   help="one representative per conjugation class")
    p.set_defaults(func=cmd_degenerate)

    p = sub.add_parser("character", help="print the character table of a datum's cover")
    _datum_arguments(p, "datum JSON file")
    p.add_argument("--json", action="store_true", help="JSON mirror of the table")
    p.set_defaults(func=cmd_character)

    p = sub.add_parser("graph", help="export a dual graph as DOT")
    _datum_arguments(p, "datum JSON file")
    p.add_argument("--dot", required=True, metavar="OUT", help="output DOT file")
    p.add_argument("--which", choices=["quotient", "cover"], default="quotient")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("verify-examples", help="run the pinned worked-example audit")
    p.set_defaults(func=cmd_verify_examples)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HurwitzDegenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader left: exit 1 with no message, and flush to devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
