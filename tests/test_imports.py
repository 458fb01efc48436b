"""Every module-level import under src/compforge is used, and so is every
function, class and method that src/compforge defines.

No linter runs on this repository, so a change that deletes code can leave an
import behind unnoticed; this check reads each module with `ast` instead. A
name counts as used if the module reads it anywhere (in code or in an
annotation, quoted or not) or lists it in ``__all__``; a name that only
appears inside some other string does not count.

A definition counts as used only if code under src/, demos/ or perfbench/
reads its name; a name that only tests read is dead weight in the package.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "compforge"


def unused_imports(source: str) -> list[str]:
    """The names that module-level imports in `source` bind and nothing reads."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used, quoted = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and "__all__" in [getattr(t, "id", "") for t in node.targets]:
            used.update(elt.value for elt in node.value.elts)
        # A function's return annotation, or an argument's or variable's annotation.
        note = getattr(node, "returns", None) or getattr(node, "annotation", None)
        if note is not None:
            quoted += [n.value for n in ast.walk(note)
                       if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    for text in quoted:
        used.update(n.id for n in ast.walk(ast.parse(text, mode="eval")) if isinstance(n, ast.Name))
    return sorted(name for name in imported if name not in used)


MODULES = sorted(SRC.rglob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["os"]),
    ("import os.path\nos.sep\n", []),
    ("from typing import Iterator as It\n", ["It"]),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from a import B\ndef f(x: 'B'): pass\n", []),
    ("from a import B\ndef f(x: B) -> None: pass\n", []),
    ("from a import B\ndef f() -> 'list[B]': pass\n", []),
    ("from a import B\nx: 'B'\n", []),
    ("from a import b\nprint('b')\n", ["b"]),
    ("from __future__ import annotations\n", []),
    ("def f():\n    import os\n", []),
])
def test_unused_imports_finds_what_it_should(source, unused):
    assert unused_imports(source) == unused


# The independent oracles judge the package, so they must not share its code:
# a float64 reference that called the engine would check a copy of itself.
ORACLES = [Path(__file__).resolve().parent / name for name in ("reference_engine.py", "oracles.py")]


def compforge_imports(path: Path) -> list[str]:
    """The compforge modules that `path` imports anywhere in its code, directly
    or through a module of its own directory."""
    found, todo, seen = [], [path], set()
    while todo:
        current = todo.pop()
        if current in seen:
            continue
        seen.add(current)
        for node in ast.walk(ast.parse(current.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top == "compforge":
                    found.append(name)
                elif (current.parent / f"{top}.py").is_file():
                    todo.append(current.parent / f"{top}.py")
    return sorted(found)


@pytest.mark.parametrize("path", ORACLES, ids=lambda p: p.name)
def test_oracles_import_nothing_from_compforge(path):
    assert compforge_imports(path) == []


@pytest.mark.parametrize("source, imports", [
    ("import math\nimport numpy as np\n", []),
    ("import compforge.engine\n", ["compforge.engine"]),
    ("from compforge.engine.model import project_cross\n", ["compforge.engine.model"]),
    ("def f():\n    from compforge import engine\n", ["compforge"]),
    ("import helper\n", ["compforge.ops"]),
    ("from helper import thing\n", ["compforge.ops"]),
])
def test_compforge_imports_finds_what_it_should(tmp_path, source, imports):
    (tmp_path / "helper.py").write_text("from compforge.ops import project\nthing = 1\n")
    (tmp_path / "oracle.py").write_text(source)
    assert compforge_imports(tmp_path / "oracle.py") == imports


# -- no src/ name that only tests use ------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
USERS = sorted(path for folder in ("demos", "perfbench") for path in (ROOT / folder).rglob("*.py"))

# Definitions the gate lets stand although no src/, demos/ or perfbench/ code
# reads them: qualified name -> why the name must stay.
EXEMPT: dict[str, str] = {}


def names_read(node: ast.AST) -> Counter:
    """How often each name is read under `node`: as a variable, an attribute,
    an import, a keyword argument or an identifier-shaped string constant
    (how perfbench/tracing.py names what it patches)."""
    read = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            read[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            read[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            read[sub.name.split(".")[-1]] += 1
        elif isinstance(sub, ast.keyword) and sub.arg:
            read[sub.arg] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            read[sub.value] += sub.value.isidentifier()
    return read


def definitions(tree: ast.Module):
    """(qualified name, node) of each top-level function and class, and of
    each non-dunder method or property of a top-level class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, kinds[:2]) and not member.name[:2] == member.name[-2:] == "__":
                    yield f"{node.name}.{member.name}", member


def unread_definitions(modules: dict[str, str], users: list[str]) -> list[str]:
    """The definitions in `modules` (module name -> source) whose name no code
    in `modules` or `users` reads outside the definition itself."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    read = Counter()
    for tree in [*trees.values(), *map(ast.parse, users)]:
        read += names_read(tree)
    return sorted(f"{module}.{qualname}" for module, tree in trees.items()
                  for qualname, node in definitions(tree)
                  if read[node.name] == names_read(node)[node.name])


def test_no_src_name_only_tests_use():
    modules = {".".join(path.relative_to(SRC).with_suffix("").parts):
               path.read_text(encoding="utf-8") for path in MODULES}
    users = [path.read_text(encoding="utf-8") for path in USERS]
    unread = unread_definitions(modules, users)
    assert all(reason.strip() for reason in EXEMPT.values())
    assert unread == sorted(EXEMPT), (
        f"read only by tests, if at all: {sorted(set(unread) - set(EXEMPT))}; "
        f"exempt but read: {sorted(set(EXEMPT) - set(unread))}")


@pytest.mark.parametrize("modules, users, unread", [
    ({"m": "def f(): pass\n"}, [], ["m.f"]),
    ({"m": "def f(): pass\n"}, ["from m import f\n"], []),
    ({"m": "def f(): pass\ndef g(): return f()\n"}, ["import m\nm.g()\n"], []),
    ({"m": "def f(n): return f(n - 1)\n"}, [], ["m.f"]),
    ({"m": "class C:\n    def f(self): pass\n"}, ["from m import C\n"], ["m.C.f"]),
    ({"m": "class C:\n    def f(self): pass\n    def g(self): return self.f()\n"},
     ["import m\nm.C().g()\n"], []),
    ({"m": "class C:\n    @property\n    def p(self): return 1\n"}, ["import m\nm.C().p\n"], []),
    ({"m": "class C:\n    def __len__(self): return 0\n"}, ["import m\nm.C\n"], []),
    ({"m": "class C:\n    def __f(self): pass\n"}, ["import m\nm.C\n"], ["m.C.__f"]),
    ({"m": "def f(): pass\n"}, ["import m\npatch(m, 'f')\n"], []),
    ({"m": "def f(): pass\n"}, ["run(f=1)\n"], []),
    ({"m": "def f(): pass\n"}, ["print('call f')\n"], ["m.f"]),
    ({"m": "def f(): pass\n"}, ["f = 1\n"], ["m.f"]),
    ({"m": "class C:\n    def make(self): return C()\n"}, [], ["m.C", "m.C.make"]),
    ({"m": "def f():\n    def g(): pass\n    return g()\n"}, ["import m\nm.f()\n"], []),
    ({"a.b": "def f(): pass\n", "a.c": "from a.b import f\n"}, [], []),
])
def test_unread_definitions_finds_what_it_should(modules, users, unread):
    assert unread_definitions(modules, users) == unread
