"""Seeded workloads of the gradedorbits benchmark.

A workload's pool is a fixed list of distinct ops for a seed.  One *round*
runs every op of the pool once, in an order drawn anew for each round, and a
run repeats rounds.

The seed draws the order of every round and the op parameters that leave an
op's cost alone: the CLI output format of `count-tables` and the Monte Carlo
`--seed` of `oracle-sweep`.  AI
dimension vectors enter the pool with every rotation and reflection.  The
dihedral group of Z/m relabels the cyclic quiver, so the answers agree, but
the cost does not.  A relabelled input can take 40-70% longer, for example
`verify_bijection` on (1,2,4) against (4,2,1) at a=1.  Drawing one variant
per seed made the medians depend on the seed.

Every op calls a public entry point through its module attribute
(`sheaves.verify_bijection`, `cli.main`), so the layer wrappers installed by
`layertrace` see the call.  Outputs are checked after the timed call, from
the report object or from the file the CLI wrote, never by repeating it.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

from gradedorbits import cli, sheaves
from gradedorbits.orbits import GradingSpec

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# verify_bijection, case AI: one op per dihedral variant and order a | N.
# (3,3,3) at a=1 is the heaviest op (1.2-1.6 s on a 2-core x86-64 VM); the
# small shapes make up the median.
BIJECTION_AI_SHAPES = (
    (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (2, 5), (2, 6),
    (1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 2, 4), (2, 2, 3),
    (3, 3, 3),
    (1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 2), (1, 1, 2, 3), (1, 2, 2, 2),
    (0, 1, 3, 3),
)

# verify_bijection, type II minority (size <= 12).  Their admissible dims are
# not closed under rotation, so these inputs are fixed.
BIJECTION_II_GRADINGS = (
    ("AII", 3, (1, 2, 1)),
    ("AII", 3, (2, 2, 2)),
    ("AII", 5, (1, 2, 2, 2, 1)),
    ("AII", 5, (2, 1, 6, 1, 2)),
    ("CII", 2, (2, 2)),
    ("CII", 2, (4, 6)),
    ("CII", 4, (2, 2, 2, 2)),
    ("CII", 4, (2, 4, 2, 2)),
    ("DII", 2, (3, 3)),
    ("DII", 2, (5, 5)),
    ("DII", 4, (2, 2, 2, 2)),
    ("DII", 4, (3, 2, 2, 3)),
)

# count tables: (family, l, deepest n).  One op per n on the ladder 1..deepest,
# so the pool holds both shallow and deep tables.  The deepest type II table
# enumerates size 10 at modulus 5.
COUNT_II_TABLES = tuple(
    (family, l, deepest)
    for family in ("A", "C", "D", "dist-A", "dist-C", "dist-D")
    for l, deepest in ((1, 6), (2, 5))
)
# dist-AI tables: (m, n), each at every order a <= 2m with gcd(a, m) < m.  The
# order moves the cost by up to 60%, so it is not left to the seed.
COUNT_DIST_AI_TABLES = tuple(
    (m, n) for m, deepest in ((2, 9), (3, 9), (4, 7)) for n in range(3, deepest + 1, 2)
)
COUNT_FORMATS = ("json", "csv", "text")

# distinguished --oracle sweeps, case AI, N <= 7: one op per dihedral variant.
ORACLE_SHAPES = (
    (0, 2), (1, 2), (1, 3), (2, 2), (1, 4), (2, 3), (1, 5), (2, 4), (3, 3),
    (2, 5), (3, 4),
    (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2), (0, 1, 5), (0, 2, 4),
    (0, 3, 3), (1, 1, 4), (1, 2, 3), (2, 2, 2), (1, 3, 3), (2, 2, 3),
    (0, 0, 2, 2), (0, 1, 1, 2), (0, 1, 2, 1), (1, 1, 1, 1), (0, 1, 1, 3),
    (0, 1, 2, 2), (1, 1, 1, 2), (1, 1, 2, 2), (1, 2, 1, 2), (0, 2, 3, 2),
    (0, 1, 3, 3), (1, 1, 1, 4),
)
ORACLE_TRIALS = 20


def divisors(n: int) -> tuple[int, ...]:
    return tuple(k for k in range(1, n + 1) if n % k == 0)


def dihedral_variants(dims: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every rotation of dims and of its reversal, without repeats."""
    out = []
    for base in (dims, dims[::-1]):
        for shift in range(len(base)):
            variant = base[shift:] + base[:shift]
            if variant not in out:
                out.append(variant)
    return out


def reference_key(case: str, modulus: int, dims, a: int | None = None) -> str:
    key = f"{case}|{modulus}|{','.join(map(str, dims))}"
    return key if a is None else f"{key}|{a}"


@functools.cache
def reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


@dataclass(frozen=True)
class BijectionOp:
    """One `verify_bijection(grading, a)` call."""

    case: str
    modulus: int
    dims: tuple[int, ...]
    a: int
    writes_output = False

    @property
    def size(self) -> int:
        return sum(self.dims)

    def run(self, out_path: Path):
        grading = GradingSpec(self.case, self.modulus, self.dims)
        return sheaves.verify_bijection(grading, self.a)

    def check(self, report, out_path: Path) -> bool:
        """`report.ok`, and the counts recorded for this input at the seed
        commit (see record_reference.py)."""
        expected = reference()["bijection"].get(
            reference_key(self.case, self.modulus, self.dims, self.a)
        )
        return (
            expected is not None
            and report.ok
            and [report.complexes, report.labels] == expected
        )


@dataclass(frozen=True)
class CountOp:
    """One `gradedorbits count` table through `cli.main`."""

    argv: tuple[str, ...]
    family: str
    n: int
    fmt: str
    writes_output = True

    @property
    def size(self) -> int:
        return self.n

    def run(self, out_path: Path):
        return cli.main([*self.argv, "--output", str(out_path)])

    def check(self, code, out_path: Path) -> bool:
        """Exit code 0, one row per degree 0..n, and `match` on every row: the
        series coefficient, the weight sum and the enumeration agree."""
        if code != 0:
            return False
        rows = _count_rows(out_path.read_text(), self.fmt)
        return [n for n, _ in rows] == list(range(self.n + 1)) and all(
            match for _, match in rows
        )


def _count_rows(text: str, fmt: str) -> list[tuple[int, bool]]:
    if fmt == "json":
        return [(row["n"], row["match"] is True) for row in json.loads(text)["rows"]]
    if fmt == "csv":
        table = list(csv.reader(io.StringIO(text)))
    else:
        table = [line.split() for line in text.splitlines()]
    if not table or table[0] != ["n", "gf_coeff", "weight_sum", "enum_count", "match"]:
        return []
    return [(int(row[0]), row[-1] == "true") for row in table[1:]]


@dataclass(frozen=True)
class OracleOp:
    """One `gradedorbits distinguished --case AI --dims ... --oracle` sweep."""

    modulus: int
    dims: tuple[int, ...]
    oracle_seed: int
    writes_output = True

    @property
    def size(self) -> int:
        return sum(self.dims)

    def run(self, out_path: Path):
        argv = [
            "distinguished", "--case", "AI", "--m", str(self.modulus),
            "--dims", ",".join(map(str, self.dims)), "--oracle",
            "--seed", str(self.oracle_seed), "--trials", str(ORACLE_TRIALS),
            "--format", "json", "--output", str(out_path),
        ]
        return cli.main(argv)

    def check(self, code, out_path: Path) -> bool:
        """Exit code 0, `agrees` on every diagram, and the diagram and
        distinguished counts recorded for these dims at the seed commit."""
        if code != 0:
            return False
        payload = json.loads(out_path.read_text())
        rows = payload["diagrams"]
        expected = reference()["oracle-sweep"].get(
            reference_key("AI", self.modulus, self.dims)
        )
        return (
            expected is not None
            and payload["seed"] == self.oracle_seed
            and all(row["agrees"] is True for row in rows)
            and [len(rows), sum(row["distinguished"] is True for row in rows)] == expected
        )


def _bijection_pool(rng: random.Random) -> list:
    ops = [
        BijectionOp("AI", len(dims), dims, a)
        for shape in BIJECTION_AI_SHAPES
        for dims in dihedral_variants(shape)
        for a in divisors(sum(dims))
    ]
    for case, modulus, dims in BIJECTION_II_GRADINGS:
        ops.append(BijectionOp(case, modulus, dims, 1))
    return ops


def dist_ai_orders(m: int) -> tuple[int, ...]:
    return tuple(a for a in range(1, 2 * m + 1) if a % m)


def _count_pool(rng: random.Random) -> list:
    ops = []
    for family, l, deepest in COUNT_II_TABLES:
        for n in range(1, deepest + 1):
            fmt = rng.choice(COUNT_FORMATS)
            argv = ("count", "--family", family, "--l", str(l), "--n", str(n), "--format", fmt)
            ops.append(CountOp(argv, family, n, fmt))
    for m, n in COUNT_DIST_AI_TABLES:
        for a in dist_ai_orders(m):
            fmt = rng.choice(COUNT_FORMATS)
            argv = (
                "count", "--family", "dist-AI", "--m", str(m), "--a", str(a),
                "--n", str(n), "--format", fmt,
            )
            ops.append(CountOp(argv, "dist-AI", n, fmt))
    return ops


def _oracle_pool(rng: random.Random) -> list:
    return [
        OracleOp(len(dims), dims, rng.randrange(1 << 30))
        for shape in ORACLE_SHAPES
        for dims in dihedral_variants(shape)
    ]


POOL_BUILDERS = {
    "bijection": _bijection_pool,
    "count-tables": _count_pool,
    "oracle-sweep": _oracle_pool,
}


def pool(workload: str, seed: int) -> list:
    """The distinct ops of a workload for a seed; every round runs each once."""
    return POOL_BUILDERS[workload](random.Random(f"{workload}/{seed}"))


def round_order(ops: list, workload: str, seed: int, index: int) -> list:
    """The ops of round `index`, in seeded order."""
    ordered = list(ops)
    random.Random(f"{workload}/{seed}/{index}").shuffle(ordered)
    return ordered
