"""Filled Young diagrams over Z/k, partitions and multipartitions.

A (k,+)-row of length p starting at label a carries the box labels
a, a-1, ..., a-p+1 reduced into [1, k] (0 is identified with k); a (k,-)-row
carries a, a+1, ..., a+p-1.  A diagram is a multiset of rows; it is stored in
a unique canonical order (length decreasing, then start increasing) so that
equality and hashing are structural.

Every enumeration runs through one streamed core, `iter_diagrams`, which
emits diagrams in `FilledDiagram.sort_key` order without sorting.  Shapes
come first, as partitions in decreasing lexicographic order; a shape's
length blocks are then filled from the longest down, each with a vector of
row counts per start label, decreasing lexicographically.  A per-length rule
says which vectors a block may take: any for case AI; for the type II cases
equal counts on paired start labels and an even count on a self-paired one
(the rule `orbits.admissible_for_case` tests); and, for distinguished
diagrams, the per-length condition of `orbits.is_distinguished_ai` or
`is_distinguished_ii`.  Only the wanted diagrams are built, and with box
counts given the core prunes by the boxes each label has left.
`count_diagrams` counts the stream without building a diagram;
`enumerate_diagrams` and `enumerate_by_size` are lists of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from math import gcd
from typing import Iterable, Iterator, Sequence

PLUS = "+"
MINUS = "-"
SIGNS = (PLUS, MINUS)
CASES = ("AI", "AII", "CII", "DII")

Partition = tuple[int, ...]
MultiPartition = tuple[Partition, ...]
DimensionVector = tuple[int, ...]


def reduce_label(value: int, k: int) -> int:
    """Reduce an integer to its representative in [1, k]."""
    return (value - 1) % k + 1


@dataclass(frozen=True)
class FilledRow:
    length: int
    start: int

    def box_labels(self, k: int, sign: str) -> tuple[int, ...]:
        """Labels carried by the row's boxes, left to right."""
        step = -1 if sign == PLUS else 1
        return tuple(reduce_label(self.start + step * t, k) for t in range(self.length))


def _row_key(row: FilledRow) -> tuple[int, int]:
    return (-row.length, row.start)


def _check_row(row: FilledRow, k: int) -> None:
    if row.length < 1:
        raise ValueError(f"row length must be >= 1, got {row.length}")
    if not 1 <= row.start <= k:
        raise ValueError(f"row start {row.start} out of range [1, {k}]")


@dataclass(frozen=True)
class FilledDiagram:
    modulus: int
    sign: str
    rows: tuple[FilledRow, ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        if self.sign not in SIGNS:
            raise ValueError(f"sign must be '+' or '-', got {self.sign!r}")
        prev = None
        for row in self.rows:
            _check_row(row, self.modulus)
            key = _row_key(row)
            if prev is not None and key < prev:
                raise ValueError("rows not in canonical order; build via canonicalize()")
            prev = key

    @property
    def size(self) -> int:
        return sum(r.length for r in self.rows)

    @property
    def is_empty(self) -> bool:
        return not self.rows

    @property
    def partition(self) -> Partition:
        """Underlying partition: the row lengths, weakly decreasing."""
        return tuple(r.length for r in self.rows)

    @property
    def parts(self) -> tuple[int, ...]:
        """Distinct row lengths, decreasing."""
        seen: list[int] = []
        for r in self.rows:
            if not seen or seen[-1] != r.length:
                seen.append(r.length)
        return tuple(seen)

    @property
    def part_gcd(self) -> int:
        """gcd of the row lengths; 0 for the empty diagram."""
        g = 0
        for r in self.rows:
            g = gcd(g, r.length)
        return g

    def multiplicities(self, length: int) -> tuple[int, ...]:
        """Number of rows of the given length per start label 1..k."""
        out = [0] * self.modulus
        for r in self.rows:
            if r.length == length:
                out[r.start - 1] += 1
        return tuple(out)

    def start_labels(self) -> tuple[int, ...]:
        return tuple(r.start for r in self.rows)

    def sort_key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        # underlying partition decreasing lexicographically, then starts increasing
        return (tuple(-p for p in self.partition), self.start_labels())

    def __str__(self) -> str:
        if not self.rows:
            return "empty"
        groups: list[list] = []
        for row in self.rows:
            if groups and groups[-1][0] == row:
                groups[-1][1] += 1
            else:
                groups.append([row, 1])
        return " ".join(
            f"{r.length}_{r.start}" + (f"^{n}" if n > 1 else "") for r, n in groups
        )


def canonicalize(rows: Iterable, k: int, sign: str) -> FilledDiagram:
    """Build the canonical diagram for a multiset of (length, start) rows.

    Idempotent and independent of the input row order; rows may be given as
    FilledRow instances or (length, start) pairs.
    """
    normalized = []
    for row in rows:
        if not isinstance(row, FilledRow):
            length, start = row
            row = FilledRow(int(length), int(start))
        normalized.append(row)
    normalized.sort(key=_row_key)
    return FilledDiagram(k, sign, tuple(normalized))


def empty_diagram(k: int, sign: str = MINUS) -> FilledDiagram:
    return FilledDiagram(k, sign, ())


def dimension_vector(diagram: FilledDiagram) -> DimensionVector:
    """Box counts per label 1..k."""
    counts = [0] * diagram.modulus
    for row in diagram.rows:
        for lab in row.box_labels(diagram.modulus, diagram.sign):
            counts[lab - 1] += 1
    return tuple(counts)


class _Fills:
    """The row tuples of one enumeration, in canonical order; the arguments
    are those of `iter_diagrams`.

    With box counts given, `slack` is, per label, what is left once every
    unfilled row takes length // k boxes of each label.  Each row's excess
    boxes must fit in it; since the shape's lengths sum to the total, a fill
    that keeps the slack nonnegative ends on exactly the given box counts.
    """

    def __init__(self, k, sign, dims=None, *, size=None, case="AI", distinguished=False, order=1):
        if k < 1:
            raise ValueError(f"modulus must be >= 1, got {k}")
        if sign not in SIGNS or case not in CASES:
            raise ValueError(f"unknown sign {sign!r} or case {case!r}")
        if order < 1:
            raise ValueError("order must be >= 1")
        if order != 1 and not (distinguished and case == "AI"):
            raise ValueError("an order applies only to distinguished diagrams of case AI")
        if (dims is None) == (size is None):
            raise ValueError("give exactly one of the box counts and the size")
        if dims is not None:
            dims = tuple(dims)
            if len(dims) != k:
                raise ValueError(f"expected {k} box counts, got {len(dims)}")
            if any(v < 0 for v in dims):
                raise ValueError("box counts must be nonnegative")
            size = sum(dims)
        elif size < 0:
            raise ValueError("size must be nonnegative")
        self.k, self.sign, self.case, self.dims, self.size = k, sign, case, dims, size
        self.distinguished = distinguished
        self.unit = order if distinguished and case == "AI" else 1
        self.copies = 1 if case == "AI" else 2
        self.classes = gcd(order, k)
        self.orbits: dict = {}
        self.options: dict = {}

    def __iter__(self):
        # Type II row counts per length are even, so their shapes double the
        # multiplicities of a partition; distinguished AI parts are multiples
        # of the order.
        step = self.unit * self.copies
        for shape in partitions(self.size // step) if self.size % step == 0 else ():
            blocks = [
                (part * self.unit, shape.count(part) * self.copies)
                for part in sorted(set(shape), reverse=True)
            ]
            slack = None
            if self.dims is not None:
                even = sum(count * (length // self.k) for length, count in blocks)
                slack = tuple(v - even for v in self.dims)
                if min(slack) < 0:
                    continue
            yield from self._fill(blocks, 0, slack, ()) if blocks else [()]

    def _fill(self, blocks, i, slack, prefix):
        for rows, rest in self._options(*blocks[i], slack):
            if i + 1 == len(blocks):
                yield prefix + rows
            else:
                yield from self._fill(blocks, i + 1, rest, prefix + rows)

    def _options(self, length, count, slack):
        """The allowed fills of one block, as (rows, slack after) pairs."""
        key = (length, count, slack)
        if key not in self.options:
            if length not in self.orbits:
                self.orbits[length] = self._orbits(length)
            self.options[key] = []
            counts = [0] * self.k
            self._vectors(length, self.orbits[length], 0, count, counts, slack, self.options[key])
        return self.options[key]

    def _orbits(self, length):
        """The start labels whose row counts the case ties together, by
        smallest label, each with its rows per label and in all for one
        unit, and that unit's excess boxes as (label index, boxes) pairs.
        Type II pairs a <-> b when a + b is the length (AII, DII) or the
        length minus one (CII) mod k."""
        k = self.k
        target = length - (self.case == "CII")
        step = 1 if self.sign == MINUS else -1
        orbits = []
        seen = set()
        for a in range(1, k + 1):
            if a in seen:
                continue
            b = a if self.case == "AI" else reduce_label(target - a, k)
            seen.update((a, b))
            labels, per = ((a,), 1 + (self.case != "AI")) if a == b else ((a, b), 1)
            excess: dict = {}
            for start in labels:
                for t in range(length % k):
                    i = (start - 1 + step * t) % k
                    excess[i] = excess.get(i, 0) + per
            orbits.append((labels, per, per * len(labels), list(excess.items())))
        return orbits

    def _vectors(self, length, orbits, j, left, counts, slack, out):
        """Set the counts of orbit j and on, largest first, to place the
        `left` rows still due, and append every kept fill to `out`."""
        labels, per, width, excess = orbits[j]
        last = j == len(orbits) - 1
        top = left // width
        if slack is not None:
            for i, e in excess:
                top = min(top, slack[i] // e)
        if last:
            # the last orbit takes every row still due
            if left % width or left // width > top:
                return
            choices = (left // width,)
        else:
            choices = range(top, -1, -1)
        for t in choices:
            for start in labels:
                counts[start - 1] = per * t
            rest = slack
            if slack is not None and t and excess:
                rest = list(slack)
                for i, e in excess:
                    rest[i] -= t * e
                rest = tuple(rest)
            if not last:
                self._vectors(length, orbits, j + 1, left - width * t, counts, rest, out)
            elif not self.distinguished or self._keeps(counts):
                rows = tuple(FilledRow(length, s) for s, c in enumerate(counts, 1) for _ in range(c))
                out.append((rows, rest))

    def _keeps(self, counts):
        """Whether one length's row counts pass the distinguished condition."""
        if self.case == "AI":
            return all(0 in counts[i :: self.classes] for i in range(self.classes))
        return min(counts) <= 1


def iter_diagrams(
    k: int,
    sign: str,
    dims: Sequence[int] | None = None,
    *,
    size: int | None = None,
    case: str = "AI",
    distinguished: bool = False,
    order: int = 1,
) -> Iterator[FilledDiagram]:
    """Stream the diagrams with the given box counts per label, or with the
    given size over every box-count vector, in `FilledDiagram.sort_key` order.

    Only the diagrams admissible for `case` are generated and, when
    `distinguished` is set, only the distinguished ones: at `order` for case
    AI (`orbits.is_distinguished_ai`), in the type II sense otherwise.  An
    `order` other than 1 is rejected unless both of those are set.
    """
    fills = _Fills(k, sign, dims, size=size, case=case, distinguished=distinguished, order=order)
    return (FilledDiagram(k, sign, rows) for rows in fills)


def count_diagrams(k: int, sign: str, dims: Sequence[int] | None = None, **options) -> int:
    """The number of diagrams `iter_diagrams` streams for the same arguments,
    counted from the row stream without building any diagram."""
    return sum(1 for _ in _Fills(k, sign, dims, **options))


def enumerate_diagrams(k: int, sign: str, d: Sequence[int]) -> list[FilledDiagram]:
    """All diagrams with the given box counts per label, in canonical order:
    underlying partition decreasing lexicographically, then start labels."""
    return list(iter_diagrams(k, sign, d))


def enumerate_by_size(k: int, sign: str, n: int) -> list[FilledDiagram]:
    """All diagrams with n boxes in total, over every box-count vector."""
    return list(iter_diagrams(k, sign, size=n))


@cache
def partitions(n: int) -> tuple[Partition, ...]:
    """Partitions of n in decreasing lexicographic order."""
    if n < 0:
        raise ValueError("partition size must be nonnegative")
    if n == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for first in range(n, 0, -1)
        for rest in partitions(n - first)
        if not rest or rest[0] <= first
    )


def multipartitions(iota: int, n: int) -> tuple[MultiPartition, ...]:
    """All iota-tuples of partitions with total size n.

    Ordered by the size composition (first slot largest first), then slotwise
    with the leftmost slot varying slowest.
    """
    if iota < 1:
        raise ValueError("number of components must be >= 1")
    if n < 0:
        raise ValueError("total size must be nonnegative")
    out: list[MultiPartition] = []
    for sizes in _compositions(iota, n):
        out.extend(product(*(partitions(c) for c in sizes)))
    return tuple(out)


def _compositions(slots: int, left: int) -> Iterator[tuple[int, ...]]:
    """Compositions of `left` into `slots` nonnegative parts, first slot
    largest first."""
    if slots == 1:
        yield (left,)
        return
    for first in range(left, -1, -1):
        for rest in _compositions(slots - 1, left - first):
            yield (first,) + rest


def diagram_to_json(diagram: FilledDiagram) -> dict:
    return {
        "modulus": diagram.modulus,
        "sign": diagram.sign,
        "rows": [{"len": r.length, "start": r.start} for r in diagram.rows],
    }


def diagram_from_json(obj: dict) -> FilledDiagram:
    rows = [(r["len"], r["start"]) for r in obj["rows"]]
    return canonicalize(rows, obj["modulus"], obj["sign"])
