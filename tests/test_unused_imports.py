"""Every module-level import in relerm is used by the module that makes it.

A name counts as used when the module reads it anywhere (`np.x` reads
`np`). `__init__.py` re-exports, `from __future__` imports and an import
whose line says `# noqa: F401` followed by a reason are exempt."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "relerm"
NOQA = re.compile(r"#\s*noqa:\s*F401\b\s*\S")  # the marker and some reason after it


def unused_imports(source: str) -> list[str]:
    """The names bound by module-level imports of `source` that it never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if not NOQA.search(lines[alias.lineno - 1]):
                    bound[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_imports_only_what_it_uses(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_unused_imports_finds_what_is_not_read():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from dataclasses import dataclass, field, replace as rep\n"
              "from json import dumps  # noqa: F401 - kept for callers\n"
              "from json import loads  # noqa: F401\n"
              "x = np.zeros(3, dtype=float)\n"
              "y = sorted(x, key=abs, reverse=True)\n"
              "@dataclass\n"
              "class A:\n"
              "    rep: int = 0\n")
    assert unused_imports(source) == ["os (line 2)", "field (line 4)", "rep (line 4)",
                                      "loads (line 6)"]
