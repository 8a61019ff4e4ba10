"""Every public name of the package is read by the package or by perfbench.

The public names are those that ``__all__`` exports, with the public
methods and properties of their classes, and every public function and
class defined at the top level of a package module.

A function, class, method or property that only the tests read is a test
oracle, and lives in ``tests/conftest.py`` instead.  A name counts as read
when it occurs in the syntax tree of a module under ``src/hurwitzdegen``
(``__init__.py`` aside, which only re-exports) or under ``perfbench`` as a
loaded name, an attribute, an imported name or a string constant (perfbench
patches methods by name).  The README's library example runs as written.

The scan has a blind spot: it reads names, not owners, so a method counts as
read when any scanned module reads an attribute of the same name on any
object.  A perfbench method can then hide a package method that only the
tests read: ``perfbench/oracle.py``'s ``Group.generator_ids()`` hid the
property ``PermGroup.generator_ids``, which now lives in ``tests/conftest.py``
as ``generator_ids(G)``.
"""

from __future__ import annotations

import ast
import inspect
import re
from functools import cached_property
from pathlib import Path

import hurwitzdegen

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for p in (ROOT / "src" / "hurwitzdegen").glob("*.py")
                 if p.name != "__init__.py") + sorted((ROOT / "perfbench").glob("*.py"))


def names_read() -> set[str]:
    seen: set[str] = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                seen.add(node.attr)
            elif isinstance(node, ast.alias):
                seen.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                seen.add(node.value)
    return seen


def public_api() -> list[str]:
    """Exported names, then ``Class.member`` for each public method or
    property of an exported class."""
    out = []
    for name in hurwitzdegen.__all__:
        obj = getattr(hurwitzdegen, name)
        if inspect.ismodule(obj):
            continue
        out.append(name)
        if inspect.isclass(obj):
            out += [f"{name}.{attr}" for attr, member in vars(obj).items()
                    if not attr.startswith("_") and (
                        inspect.isfunction(member)
                        or isinstance(member, (property, cached_property,
                                               classmethod, staticmethod)))]
    return out


def module_api() -> list[str]:
    """``module.name`` for each public function and class defined at the top
    level of a package module, exported or not."""
    return [f"{path.stem}.{node.name}" for path in SOURCES if path.parent.name == "hurwitzdegen"
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def test_scan_sees_the_package_and_its_classes():
    assert {"cli.py", "covers.py", "groups.py", "spans.py"} <= {p.name for p in SOURCES}
    assert {"build_cover", "PermGroup.mul", "PermGroup.conjugacy_classes",
            "inner"} <= set(public_api())
    assert {"audit.a5_tuple", "audit.AuditCheck", "cli.main", "degen.dedup"} <= set(module_api())
    assert not any(name.startswith("covers._") for name in module_api())


def test_every_public_name_is_read_outside_the_tests():
    seen = names_read()
    unread = [name for name in (*public_api(), *module_api())
              if name.rpartition(".")[2] not in seen]
    assert unread == []


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
