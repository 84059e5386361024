"""The combinatorial layers never reach the exact linear-algebra oracle.

The check parses the sources instead of importing them, because importing
`gradedorbits` loads every module, `oracle` included.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gradedorbits"
COMBINATORIAL = ("diagrams", "orbits", "series", "sheaves")


def imported_modules(tree):
    """Every module an import statement names, as a dotted path relative to
    the package (`.oracle` and `gradedorbits.oracle` both give `oracle`)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.removeprefix("gradedorbits.")
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0:
                base = base.removeprefix("gradedorbits").lstrip(".")
            # `from . import oracle` names the module in its aliases
            for alias in node.names:
                yield f"{base}.{alias.name}" if base else alias.name
            yield base


@pytest.mark.parametrize("module", COMBINATORIAL)
def test_no_oracle_import(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    bad = sorted(
        name for name in set(imported_modules(tree))
        if name == "oracle" or name.startswith("oracle.")
    )
    assert not bad, f"{module} imports {bad}"


def test_detects_oracle_imports():
    for source in (
        "from .oracle import nullspace",
        "from . import oracle",
        "from gradedorbits.oracle import nullspace",
        "import gradedorbits.oracle",
        "def f():\n    from .oracle import nullspace\n",
    ):
        assert "oracle" in set(imported_modules(ast.parse(source))), source
