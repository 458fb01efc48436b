"""Every module-level import under src/compforge is used.

No linter runs on this repository, so a change that deletes code can leave an
import behind unnoticed; this check reads each module with `ast` instead. A
name counts as used if the module reads it anywhere (in code or in an
annotation, quoted or not) or lists it in ``__all__``; a name that only
appears inside some other string does not count.
"""

from __future__ import annotations

import ast
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
