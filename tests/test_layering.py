"""The combinatorial layers never reach the exact linear-algebra oracle, and
the oracle never reaches the predicates it checks.

The check parses the sources instead of importing them, because importing
`gradedorbits` loads every module, `oracle` included.
"""

import ast
import os
import subprocess
import sys
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


# The oracle is the independent check of these predicates, so it must not
# reach them, nor the counting and sheaf layers built on them.
CHECKED_PREDICATES = ("is_distinguished_ai", "is_distinguished_ii", "admissible_for_case")


def oracle_violations(tree):
    """Each import of a checked predicate, a `peel_*` map, `series` or
    `sheaves`, and each attribute use of such a predicate or map."""
    def forbidden(leaf):
        return leaf in CHECKED_PREDICATES or leaf.startswith("peel_")

    bad = {
        name for name in imported_modules(tree)
        if name.split(".")[0] in ("series", "sheaves") or forbidden(name.rpartition(".")[2])
    }
    bad.update(
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and forbidden(node.attr)
    )
    return sorted(bad)


def test_oracle_imports_nothing_it_checks():
    tree = ast.parse((SRC / "oracle.py").read_text())
    assert not oracle_violations(tree)


def test_detects_oracle_reaching_what_it_checks():
    for source in (
        "from .orbits import is_distinguished_ai",
        "from .orbits import GradingSpec, is_distinguished_ii",
        "from gradedorbits.orbits import admissible_for_case as ok",
        "from .orbits import peel_ii",
        "from . import orbits\norbits.is_distinguished_ii(d)",
        "import gradedorbits.orbits\ngradedorbits.orbits.peel_ai(d, 1)",
        "from .series import weight_count",
        "from . import sheaves",
        "import gradedorbits.series",
        "def f():\n    from .sheaves import catalog\n",
    ):
        assert oracle_violations(ast.parse(source)), source
    clean = "from .diagrams import FilledDiagram, PLUS\nfrom .orbits import GradingSpec, duality"
    assert not oracle_violations(ast.parse(clean))


def test_oracle_takes_only_the_grading_from_orbits():
    """The oracle decides on the diagram's own string: of `orbits` it reads
    the grading record alone, no duality, and it runs no peel."""
    names = set(imported_modules(ast.parse((SRC / "oracle.py").read_text())))
    assert {name for name in names if name.startswith("orbits.")} == {"orbits.GradingSpec"}
    assert not any(name.endswith("_peel_block") for name in names)


# No linter runs on the sources, so an import that outlives its last use
# would go unnoticed.  `__init__` imports only to re-export.
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def unused_imports(tree):
    """Each name an import statement binds that the module never reads."""
    bound = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    # an attribute chain such as `json.dumps` reads its root as a Name
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert not unused_imports(tree), f"{module} imports {unused_imports(tree)} unused"


def test_detects_unused_imports():
    for source, unused in (
        ("import os", ["os"]),
        ("from .diagrams import MINUS, empty_diagram\nMINUS", ["empty_diagram"]),
        ("from .orbits import GradingSpec as G\nGradingSpec", ["G"]),
        ("import os.path\nimport sys\nos.path.join()", ["sys"]),
        ("def f():\n    from .sheaves import catalog\n", ["catalog"]),
    ):
        assert unused_imports(ast.parse(source)) == unused, source
    clean = (
        "from __future__ import annotations\nimport json\nfrom .diagrams import FilledDiagram\n"
        "def f(d: FilledDiagram) -> str:\n    return json.dumps(d)\n"
    )
    assert unused_imports(ast.parse(clean)) == []


# The library's arithmetic is integer: the oracle eliminates fraction-free
# and the combinatorial layers count.  `Fraction` may name a type (in an
# annotation or an isinstance check) but no source module constructs one.
ALL_MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def fraction_calls(tree):
    """The line of each call that constructs a `Fraction`: `Fraction(...)`
    under any name it is imported as, `fractions.Fraction(...)`, and
    `Fraction.from_float(...)` and the like."""
    names = {"Fraction"} | {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "fractions"
        for alias in node.names
        if alias.name == "Fraction"
    }

    def is_fraction(expr):
        return (
            isinstance(expr, ast.Name) and expr.id in names
            or isinstance(expr, ast.Attribute) and expr.attr == "Fraction"
        )

    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (is_fraction(node.func) or isinstance(node.func, ast.Attribute) and is_fraction(node.func.value))
    )


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_fraction_is_constructed(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert not fraction_calls(tree), f"{module} constructs a Fraction on lines {fraction_calls(tree)}"


def test_detects_fraction_calls():
    for source, lines in (
        ("from fractions import Fraction\nv = Fraction(1, 2)", [2]),
        ("import fractions\nv = fractions.Fraction(3)", [2]),
        ("from fractions import Fraction as Q\nv = Q(3)", [2]),
        ("from fractions import Fraction\nv = Fraction.from_float(0.5)", [2]),
        ("def f(m, a, b):\n    return [-Fraction(a, b) for _ in m]", [2]),
    ):
        assert fraction_calls(ast.parse(source)) == lines, source
    clean = (
        "from fractions import Fraction\nMatrix = tuple[tuple[int | Fraction, ...], ...]\n"
        "def f(v: Fraction) -> int:\n    return isinstance(v, Fraction) and v.denominator\n"
    )
    assert fraction_calls(ast.parse(clean)) == []


# Every verdict is exact and every output deterministic, so no module draws
# random numbers.
def random_imports(tree):
    """Each import of the `random` module or of a name from it."""
    return sorted(
        name for name in set(imported_modules(tree))
        if name == "random" or name.startswith("random.")
    )


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_random_import(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert not random_imports(tree), f"{module} imports {random_imports(tree)}"


def test_detects_random_imports():
    for source in (
        "import random",
        "import random as rng",
        "from random import Random",
        "from random import randint as draw",
        "def f():\n    import random\n",
    ):
        assert random_imports(ast.parse(source)), source
    clean = "import secrets\nfrom .diagrams import canonicalize\nrandomize = 1\n"
    assert random_imports(ast.parse(clean)) == []


# With an indent the standard library encodes JSON in pure Python, several
# times slower than without; `cli._put_json` writes the indented output.
JSON_ENCODERS = ("dump", "dumps", "JSONEncoder")


def indented_json_calls(tree):
    """The line of each `json.dump`, `json.dumps` or `json.JSONEncoder`
    call with an `indent` keyword, under any name the module or the
    function is imported as."""
    modules = {"json"} | {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "json" and alias.asname
    }
    functions = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("json", "json.encoder")
        for alias in node.names
        if alias.name in JSON_ENCODERS
    }

    def is_encoder(func):
        return (
            isinstance(func, ast.Name) and func.id in functions
            or isinstance(func, ast.Attribute) and func.attr in JSON_ENCODERS
            and isinstance(func.value, ast.Name) and func.value.id in modules
        )

    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and is_encoder(node.func)
        and any(keyword.arg == "indent" for keyword in node.keywords)
    )


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_indented_json_encoding(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert not indented_json_calls(tree), (
        f"{module} encodes indented JSON on lines {indented_json_calls(tree)}"
    )


def test_detects_indented_json_encoding():
    for source, lines in (
        ("import json\ntext = json.dumps(payload, indent=2)", [2]),
        ("import json\njson.dump(payload, handle, indent=2, default=str)", [2]),
        ("import json as j\ntext = j.dumps(payload, indent=None)", [2]),
        ("from json import dumps\ntext = dumps(payload, indent=2)", [2]),
        ("from json import dump as write\nwrite(payload, handle, indent=4)", [2]),
        ("import json\ntext = json.JSONEncoder(indent=2).encode(payload)", [2]),
        ("def f(p):\n    import json\n    return json.dumps(p,\n        indent=2)", [3]),
    ):
        assert indented_json_calls(ast.parse(source)) == lines, source
    clean = (
        "import json\nfrom json.encoder import encode_basestring_ascii\n"
        "text = json.dumps(tau, separators=(',', ':'))\nvalue = json.dumps(0.5)\n"
        "data = json.loads(text)\nindent = 2\n"
    )
    assert indented_json_calls(ast.parse(clean)) == []


# `diagrams._built_diagram` makes a diagram without `FilledDiagram`'s checks,
# from rows the library itself made valid and canonical: the stream, the
# peeling residues and `duality`'s output.  User input must always pass the
# checks, so no module outside `diagrams` and `orbits` may reach it.
UNCHECKED_CONSTRUCTOR = "_built_diagram"
BUILDING_MODULES = ("diagrams", "orbits")


def name_uses(tree, name):
    """The line of each import, name, attribute or string that reaches the
    module-level `name`, under any name it is imported as."""
    return sorted({
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and any(alias.name == name for alias in node.names)
        or isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.Attribute) and node.attr == name
        or isinstance(node, ast.Constant) and node.value == name
    })


@pytest.mark.parametrize("module", [m for m in ALL_MODULES if m not in BUILDING_MODULES])
def test_only_the_enumeration_layers_skip_the_diagram_checks(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert not name_uses(tree, UNCHECKED_CONSTRUCTOR), (
        f"{module} builds unchecked diagrams on lines {name_uses(tree, UNCHECKED_CONSTRUCTOR)}"
    )


def test_detects_unchecked_diagram_builds():
    for source, lines in (
        ("from .diagrams import _built_diagram\n", [1]),
        ("from .diagrams import FilledDiagram, _built_diagram as make\nmake(2, '-', ())", [1]),
        ("from . import diagrams\nd = diagrams._built_diagram(2, '-', ())", [2]),
        ("import gradedorbits.diagrams as g\nd = g._built_diagram(2, '-', rows)", [2]),
        ("from . import diagrams\nmake = getattr(diagrams, '_built_diagram')", [2]),
        ("def f(rows):\n    from gradedorbits.diagrams import _built_diagram\n", [2]),
    ):
        assert name_uses(ast.parse(source), UNCHECKED_CONSTRUCTOR) == lines, source
    clean = (
        "from .diagrams import FilledDiagram, canonicalize\n"
        "d = FilledDiagram(2, '-', ((1, 1),))\ne = canonicalize(rows, 2, '+')\n"
    )
    assert name_uses(ast.parse(clean), UNCHECKED_CONSTRUCTOR) == []
    # the guard sees the real uses where they are allowed
    for module in BUILDING_MODULES:
        assert name_uses(ast.parse((SRC / f"{module}.py").read_text()), UNCHECKED_CONSTRUCTOR), module


# The walk's block records carry `diagrams._peel_block`'s peel, and only
# `diagrams` reads them: the other layers take a walked diagram's part gcd
# and peel from its fold, so none of them runs the round rule itself.
ROUND_RULE = "_peel_block"


@pytest.mark.parametrize("module", [m for m in ALL_MODULES if m != "diagrams"])
def test_only_diagrams_runs_the_round_rule(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert not name_uses(tree, ROUND_RULE), (
        f"{module} names {ROUND_RULE} on lines {name_uses(tree, ROUND_RULE)}"
    )


def test_detects_round_rule_uses():
    for source, lines in (
        ("from .diagrams import _Fills, _peel_block\n", [1]),
        ("from .diagrams import _peel_block as peel\npeel(rows, counts, 2, 1)", [1]),
        ("from . import diagrams\nleft = diagrams._peel_block(rows, counts, a, 1)[1]", [2]),
        ("def f(a):\n    from gradedorbits.diagrams import _peel_block\n", [2]),
    ):
        assert name_uses(ast.parse(source), ROUND_RULE) == lines, source
    clean = "from .diagrams import _fold, _peel\ng = _fold(rows, blocks, 1)[0]\n"
    assert name_uses(ast.parse(clean), ROUND_RULE) == []
    assert name_uses(ast.parse((SRC / "diagrams.py").read_text()), ROUND_RULE)


def test_cli_start_loads_no_fractions_or_decimal():
    """Starting the CLI loads neither `fractions` nor `decimal`, which
    `fractions` imports, beyond what a bare interpreter has: the library's
    arithmetic is in ints, and no source module imports either."""
    code = (
        "import sys; bare = set(sys.modules)\n"
        "import gradedorbits.cli; gradedorbits.cli.build_parser()\n"
        "print(sorted({'fractions', 'decimal'} & (set(sys.modules) - bare)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert run.stdout.strip() == "[]"
