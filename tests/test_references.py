"""Every public module-level function or class under src/unimod is used by the
program, not only by the tests: something references it outside its own body.

A reference is a read of the name, bare or as an attribute, in a module under
src/unimod (the package's `__init__` re-exports do not count), in one of the
benchmark's modules under perfbench (its tests do not count), or a console
script target in pyproject.toml.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "unimod"

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def referenced_names(source: str) -> set[str]:
    """Names the source reads, bare or as an attribute, leaving out what a
    module-level function or class reads of its own name inside its body."""
    names = set()
    for stmt in ast.parse(source).body:
        read = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
        read |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
        if isinstance(stmt, _DEFINITIONS):
            read.discard(stmt.name)
        names |= read
    return names


def unreferenced(definers: dict[str, str], readers=(), entry_points=()) -> list[str]:
    """`module.name` of each public module-level function or class of the
    `definers` (module name to source) that no source among the definers and
    `readers` references and that is not one of the `entry_points`."""
    used = set(entry_points).union(
        *(referenced_names(source) for source in [*definers.values(), *readers]))
    return sorted(f"{module}.{stmt.name}" for module, source in definers.items()
                  for stmt in ast.parse(source).body
                  if isinstance(stmt, _DEFINITIONS) and not stmt.name.startswith("_")
                  and stmt.name not in used)


def script_targets(pyproject: str) -> set[str]:
    """The function names of the [project.scripts] entries."""
    section = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r':(\w+)"', section))


def test_every_public_definition_is_referenced():
    definers = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))
                if path.name != "__init__.py"}
    readers = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))
               if not path.name.startswith("test_")]
    scripts = script_targets((ROOT / "pyproject.toml").read_text())
    assert scripts == {"entry"}
    assert unreferenced(definers, readers, scripts) == []


def test_detects_an_unreferenced_definition():
    definers = {
        "a": ("def main(): return used()\n"
              "def used(): pass\n"
              "def recursive(n): return recursive(n - 1)\n"
              "class Node:\n    def copy(self): return Node()\n"
              "def _private(): pass\n"
              "def read_by_a_reader(): pass\n"),
        "b": "from a import Node, recursive\n",
    }
    readers = ["import a\na.read_by_a_reader()\n"]
    assert unreferenced(definers, readers, {"main"}) == ["a.Node", "a.recursive"]
    assert unreferenced(definers, readers) == ["a.Node", "a.main", "a.recursive"]
