"""The README's examples: the library example runs as written, and its CLI
examples are the invocations the CLI tests run."""

import importlib
import pkgutil
import re
import shlex
import sys
from pathlib import Path

import gradedorbits

README = Path(__file__).resolve().parents[1] / "README.md"

# The `gradedorbits` lines of README's CLI example, in order; the CLI tests
# run these and pin their output.
README_EXAMPLES = [
    ("orbits", "--case", "AI", "--m", "2", "--dims", "1,1"),
    ("orbits", "--case", "AII", "--m0", "3", "--dims", "1,0,1"),
    ("count", "--family", "A", "--l", "1", "--n", "6", "--format", "csv"),
    ("count", "--family", "dist-AI", "--m", "2", "--a", "1", "--n", "6"),
    ("sheaves", "--case", "AI", "--m", "2", "--dims", "1,1", "--a", "1", "--format", "json"),
    ("sheaves", "--case", "CII", "--m", "2", "--dims", "2,2"),
    ("verify", "--case", "AI", "--m", "2", "--dims", "1,1", "--a", "1"),
    ("cuspidal", "--case", "AI", "--m", "2", "--dims", "2,1"),
    ("distinguished", "--case", "AI", "--m", "2", "--N", "4", "--oracle", "--seed", "0",
     "--trials", "20"),
]


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def _package_namespaces():
    """`gradedorbits` and each of its modules."""
    modules = [
        importlib.import_module(f"gradedorbits.{info.name}")
        for info in pkgutil.iter_modules(gradedorbits.__path__)
    ]
    return [gradedorbits, *modules]


def _resolves(name: str, namespaces) -> bool:
    """Whether a dotted name is an attribute chain from some namespace."""
    for namespace in namespaces:
        obj = namespace
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if obj is not None:
            return True
    return False


def test_readme_call_forms_name_the_package():
    # Every `name(` call form in README prose names a callable of the
    # package, so a rename cannot leave a stale name behind; a dotted name
    # rooted in the standard library, such as `json.dumps`, is exempt.
    names = set(re.findall(r"`([A-Za-z_][\w.]*)\(", README.read_text()))
    namespaces = _package_namespaces()
    assert names and not _resolves("catalog_ai", namespaces)
    stale = sorted(
        name
        for name in names
        if not ("." in name and name.split(".")[0] in sys.stdlib_module_names)
        and not _resolves(name, namespaces)
    )
    assert not stale, f"README names {stale}, which gradedorbits does not define"


def test_readme_cli_examples_are_the_tested_ones():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL)
    examples = [
        tuple(shlex.split(line)[1:])
        for block in blocks
        for line in block.splitlines()
        if line.startswith("gradedorbits ")
    ]
    assert examples == README_EXAMPLES
