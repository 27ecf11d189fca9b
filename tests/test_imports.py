"""Every name a module of the package or of the tests imports is used in
that module.

No linter ships with the toolchain, so this walks the syntax trees with the
standard library.  Package `__init__` modules are exempt: re-exporting is
what their imports are for.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "evdenoise"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names inside string annotations count as used
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detector_flags_unused_and_keeps_used():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from typing import List, Optional\n"
              "import numpy as np\n"
              "def f(x: 'Optional[int]') -> List[int]:\n"
              "    return np.arange(os.getpid())\n")
    assert unused_imports(source) == [(2, "sys")]


@pytest.mark.parametrize("path", MODULES + TEST_MODULES,
                         ids=[p.relative_to(SRC).as_posix() for p in MODULES]
                         + [f"tests/{p.name}" for p in TEST_MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
