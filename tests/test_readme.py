"""The README's examples: the library example runs as written, and its CLI
examples are the invocations the CLI tests run."""

import re
import shlex
from pathlib import Path

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


def test_readme_cli_examples_are_the_tested_ones():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL)
    examples = [
        tuple(shlex.split(line)[1:])
        for block in blocks
        for line in block.splitlines()
        if line.startswith("gradedorbits ")
    ]
    assert examples == README_EXAMPLES
