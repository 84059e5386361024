"""Filled Young diagrams over Z/k, partitions and multipartitions.

A row is a (length, start) pair.  A (k,+)-row of length p starting at
label a carries the box labels a, a-1, ..., a-p+1 reduced into [1, k] (0 is
identified with k); a (k,-)-row carries a, a+1, ..., a+p-1.  A diagram is a
multiset of rows: `diagram.rows` is a tuple of (length, start) pairs in a
unique canonical order (length decreasing, then start increasing), so that
equality and hashing are structural, and `canonicalize` builds a diagram from
any iterable of pairs.

Every enumeration runs through one streamed core, `iter_diagrams`, which
emits diagrams in `FilledDiagram.sort_key` order without sorting.  Shapes
come first, as partitions in decreasing lexicographic order (scaled by a at
an order a of case AI); their length blocks are filled from the longest
down, each with a vector of row counts per start label, decreasing
lexicographically.  A per-length rule says which vectors a block may take:
any for case AI; for the type II cases equal counts on the start labels
`row_partners` pairs and an even count on a self-paired one (as
`orbits.admissible_for_case` tests); and, for distinguished diagrams, the
per-length condition of `orbits.is_distinguished_ai` or
`is_distinguished_ii`.  Only the wanted diagrams are built, and with box
counts given the core prunes by the boxes each label has left.  `enumerate_diagrams` and `enumerate_by_size` list it.
The core's walk hands out each diagram as its blocks, every block fill
with its row counts per label, and a diagram's rows are their
concatenation.  A block's fills are memoized once for the walk over every
diagram and the distinguished walk, which keeps those passing the
per-length condition, so one set of fills serves both walks.

`count_diagrams` and `count_by_size` count without the stream, by a dynamic
program over the length blocks that builds no row: the same per-length rule
tallies how many allowed vectors of a block leave each slack of box counts,
and the states are the parts still to place and the boxes left per label.
`count_by_size` counts a table's every size with one set of tallies.
"""

from __future__ import annotations

from collections import defaultdict
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
Row = tuple[int, int]
MultiPartition = tuple[Partition, ...]
DimensionVector = tuple[int, ...]


def reduce_label(value: int, k: int) -> int:
    """Reduce an integer to its representative in [1, k]."""
    return (value - 1) % k + 1


def _row_key(row: Row) -> tuple[int, int]:
    return (-row[0], row[1])


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check_integer(name: str, value) -> None:
    """Reject a value that is not an integer, by name.  A bool is not one,
    so True never passes as 1."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_positive(name: str, value) -> None:
    """Reject a value that is not an integer >= 1, by name: the modulus and
    the order."""
    check_integer(name, value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def check_box_counts(k: int, dims) -> DimensionVector:
    """The box counts as a tuple, after checking that there is one per label
    1..k and that each is an integer >= 0."""
    dims = tuple(dims)
    if len(dims) != k:
        raise ValueError(f"expected {k} box counts, got {len(dims)}")
    for v in dims:
        check_integer("box count", v)
        if v < 0:
            raise ValueError("box counts must be nonnegative")
    return dims


def check_modulus(case: str, modulus: int) -> None:
    """Reject an unknown case, or a modulus the case does not allow: every
    case needs m >= 1, AII an odd m, and CII and DII an even m."""
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}")
    check_positive("modulus", modulus)
    if case == "AII" and modulus % 2 == 0:
        raise ValueError("AII modulus must be odd")
    if case in ("CII", "DII") and modulus % 2:
        raise ValueError(f"{case} modulus must be even")


# A type II form pairs V_i with V_{c - i}, c its shift.
FORM_SHIFT = {"AII": 1, "CII": 0, "DII": 1}


def row_partners(case: str, k: int, length: int) -> tuple[int, ...]:
    """The start label each start label 1..k pairs with (at index label - 1)
    for rows of the given length: the form pairs box t of a '+' row starting
    at a with box length - 1 - t of its dual, which so starts at
    c + length - 1 - a mod k, c the form's shift.  AI pairs each label with
    itself.  The one home of the type II pairing; '-' rows follow it too,
    which fits the form only for k <= 2 (ROADMAP.md, item 1)."""
    if case == "AI":
        return tuple(range(1, k + 1))
    target = FORM_SHIFT[case] + length - 1
    return tuple(reduce_label(target - a, k) for a in range(1, k + 1))


def _check_row(row: Row, k: int) -> None:
    if not isinstance(row, tuple) or len(row) != 2:
        raise ValueError(f"row must be a (length, start) pair, got {row!r}")
    length, start = row
    if not _is_integer(length) or not _is_integer(start):
        raise ValueError(f"row length and start must be integers, got {row}")
    if length < 1:
        raise ValueError(f"row length must be >= 1, got {length}")
    if not 1 <= start <= k:
        raise ValueError(f"row start {start} out of range [1, {k}]")


@dataclass(frozen=True)
class FilledDiagram:
    modulus: int
    sign: str
    rows: tuple[Row, ...]

    def __post_init__(self):
        check_positive("modulus", self.modulus)
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
        return sum(length for length, _ in self.rows)

    @property
    def is_empty(self) -> bool:
        return not self.rows

    @property
    def partition(self) -> Partition:
        """Underlying partition: the row lengths, weakly decreasing."""
        return tuple(length for length, _ in self.rows)

    @property
    def parts(self) -> tuple[int, ...]:
        """Distinct row lengths, decreasing."""
        seen: list[int] = []
        for length, _ in self.rows:
            if not seen or seen[-1] != length:
                seen.append(length)
        return tuple(seen)

    @property
    def part_gcd(self) -> int:
        """gcd of the row lengths; 0 for the empty diagram."""
        g = 0
        for length, _ in self.rows:
            g = gcd(g, length)
        return g

    def multiplicities(self, length: int) -> tuple[int, ...]:
        """Number of rows of the given length per start label 1..k."""
        out = [0] * self.modulus
        for p, start in self.rows:
            if p == length:
                out[start - 1] += 1
        return tuple(out)

    def start_labels(self) -> tuple[int, ...]:
        return tuple(start for _, start in self.rows)

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
            f"{length}_{start}" + (f"^{n}" if n > 1 else "") for (length, start), n in groups
        )


def _built_diagram(k: int, sign: str, rows: tuple[Row, ...]) -> FilledDiagram:
    """A diagram whose fields the library has already made valid: k and
    the sign checked, and the rows well formed and in canonical order.  It
    skips `FilledDiagram`'s checks, so only `diagrams` and `orbits` call it,
    on rows they built themselves; user input goes through the public
    constructor or `canonicalize`."""
    diagram = object.__new__(FilledDiagram)
    # as the dataclass's own __init__ does; reading __dict__ would give each
    # diagram a dict of its own, more than twice its size
    object.__setattr__(diagram, "modulus", k)
    object.__setattr__(diagram, "sign", sign)
    object.__setattr__(diagram, "rows", rows)
    return diagram


def canonicalize(rows: Iterable, k: int, sign: str) -> FilledDiagram:
    """Build the canonical diagram for a multiset of (length, start) pairs,
    given in any order as any iterable of pairs.  Idempotent."""
    return FilledDiagram(k, sign, tuple(sorted(map(tuple, rows), key=_row_key)))


def empty_diagram(k: int, sign: str = MINUS) -> FilledDiagram:
    return FilledDiagram(k, sign, ())


def dimension_vector(diagram: FilledDiagram) -> DimensionVector:
    """Box counts per label 1..k.  A row of length p wraps p // k times round
    every label, and its p % k leftover boxes run on from its start."""
    k = diagram.modulus
    step = 1 if diagram.sign == MINUS else -1
    counts = [0] * k
    wraps = 0
    for length, start in diagram.rows:
        wraps += length // k
        for t in range(length % k):
            counts[(start - 1 + step * t) % k] += 1
    return tuple(v + wraps for v in counts)


def _target(k, dims, size):
    """Check that exactly one of the box counts and the size is given, and
    return them as (box counts or None, size)."""
    if (dims is None) == (size is None):
        raise ValueError("give exactly one of the box counts and the size")
    if dims is None:
        check_integer("size", size)
        if size < 0:
            raise ValueError("size must be nonnegative")
        return None, size
    dims = check_box_counts(k, dims)
    return dims, sum(dims)


class _Fills:
    """The fills of one rule, the keyword arguments of `iter_diagrams` but
    `distinguished`, for any box counts or size, with every part a multiple
    of the order: `walk` gives each diagram's blocks, `rows` their rows and
    `count` their number, `rows` and `count` over every fill or only the
    distinguished ones.  The memos live as long as the object, so every
    call on one object shares them, and both kinds of walk share one run
    of `_vectors` per block: the distinguished fills of a block are its
    fills that `_keeps` keeps, and rows are made only for the fills a
    walk takes.

    A row of length p takes p // k boxes of each label and p % k excess
    boxes.  With box counts given, `slack` is, per label, the boxes the
    excess of the block being filled may take: in the walk, what is left
    once every unfilled row takes its p // k of each label, and in the count
    what is left once the block's own rows do.  Since the lengths sum to the
    total, a fill that keeps the slack nonnegative ends on exactly the given
    box counts.  Without box counts the slack is None.
    """

    def __init__(self, k, sign, *, case="AI", order=1):
        check_modulus(case, k)
        check_positive("order", order)
        if sign not in SIGNS:
            raise ValueError(f"unknown sign {sign!r}")
        if order != 1 and case != "AI":
            raise ValueError("an order applies only to case AI")
        self.k, self.sign, self.case = k, sign, case
        self.unit = order
        self.copies = 1 if case == "AI" else 2
        self.classes = gcd(order, k)
        self.orbits: dict = {}
        self.fills: dict = {}
        self.options: dict = {}
        self.tallies: dict = {}

    def walk(self, dims, size):
        """Each diagram's blocks, in canonical order: per part length, from
        the longest down, its fill as a (rows, row counts per label) pair."""
        return self._walk(dims, size, False, 1)

    def rows(self, dims, size, distinguished=False):
        """The row tuples of the diagrams, in canonical order: the rows of
        `walk`'s blocks, concatenated along the walk."""
        return self._walk(dims, size, distinguished, 0)

    def _walk(self, dims, size, distinguished, field):
        """Every diagram as the concatenation of one field of its blocks'
        options, longest first: their rows (field 0) or their one-block
        tuples (field 1)."""
        # Type II row counts per length are even, so their shapes double the
        # multiplicities of a partition; AI parts are multiples of the order.
        step = self.unit * self.copies
        for shape in partitions(size // step) if size % step == 0 else ():
            blocks = [
                (part * self.unit, shape.count(part) * self.copies)
                for part in sorted(set(shape), reverse=True)
            ]
            slack = None
            if dims is not None:
                even = sum(count * (length // self.k) for length, count in blocks)
                slack = tuple(v - even for v in dims)
                if min(slack) < 0:
                    continue
            yield from self._fill(blocks, 0, slack, (), distinguished, field) if blocks else [()]

    def count(self, dims, size, distinguished=False):
        """The number of row tuples `rows` yields, by a dynamic program over
        the length blocks, longest first: its states are the parts still to
        place and the boxes left per label (None without box counts), and a
        block moves each state by the tally of its allowed fills."""
        step = self.unit * self.copies
        if size % step:
            return 0
        ways = {(size // step, dims): 1}
        for part in range(size // step, 0, -1):
            length = part * self.unit
            even = self.copies * (length // self.k)
            after = defaultdict(int)
            for (left, boxes), w in ways.items():
                # the shortest part takes every part still to place
                for mult in range(left // part + 1) if part > 1 else (left,):
                    slack = boxes
                    if boxes is not None:
                        slack = tuple(v - mult * even for v in boxes)
                        if min(slack) < 0:
                            break
                    tally = self._tally(length, mult * self.copies, slack, distinguished)
                    for rest, fills in tally.items():
                        after[left - mult * part, rest] += w * fills
            ways = after
        return ways.get((0, None if dims is None else (0,) * self.k), 0)

    def _fill(self, blocks, i, slack, prefix, distinguished, field):
        for option in self._options(*blocks[i], slack, distinguished):
            if i + 1 == len(blocks):
                yield prefix + option[field]
            else:
                yield from self._fill(
                    blocks, i + 1, option[2], prefix + option[field], distinguished, field
                )

    def _options(self, length, count, slack, distinguished):
        """Every fill of one block, or its distinguished fills, those
        `_keeps` keeps, as (rows, (block,), slack after) triples, the block
        a (rows, row counts per label) pair.  Rows are made only for the
        fills asked for."""
        key = (length, count, slack, distinguished)
        if key not in self.options:
            out = self.options[key] = []
            for counts, rest in self._block(length, count, slack):
                if distinguished and not self._keeps(counts):
                    continue
                rows = ()
                for s, c in enumerate(counts, 1):
                    if c:
                        rows += ((length, s),) * c
                out.append((rows, ((rows, counts),), rest))
        return self.options[key]

    def _block(self, length, count, slack):
        """Every fill of one block as a (row counts per label, slack after)
        pair, from one run of `_vectors` that both kinds of walk share."""
        key = (length, count, slack)
        if key not in self.fills:
            out = self.fills[key] = []

            def keep(counts, rest):
                out.append((tuple(counts), rest))

            self._vectors(self._orbits(length), 0, count, [0] * self.k, slack, keep)
        return self.fills[key]

    def _tally(self, length, count, slack, distinguished):
        """The number of fills of one block, or of its distinguished fills,
        per slack they leave."""
        key = (length, count, slack, distinguished)
        if key not in self.tallies:
            tally = self.tallies[key] = {}

            def keep(counts, rest):
                if not distinguished or self._keeps(counts):
                    tally[rest] = tally.get(rest, 0) + 1

            self._vectors(self._orbits(length), 0, count, [0] * self.k, slack, keep)
        return self.tallies[key]

    def _orbits(self, length):
        """The start labels whose row counts the case ties together, by
        smallest label, each with its rows per label and in all for one
        unit, and that unit's excess boxes as (label index, boxes) pairs.
        The labels are tied by `row_partners`.  Memoized per length."""
        if length in self.orbits:
            return self.orbits[length]
        k = self.k
        partners = row_partners(self.case, k, length)
        step = 1 if self.sign == MINUS else -1
        orbits = []
        seen = set()
        for a in range(1, k + 1):
            if a in seen:
                continue
            b = partners[a - 1]
            seen.update((a, b))
            labels, per = ((a,), 1 + (self.case != "AI")) if a == b else ((a, b), 1)
            excess: dict = {}
            for start in labels:
                for t in range(length % k):
                    i = (start - 1 + step * t) % k
                    excess[i] = excess.get(i, 0) + per
            orbits.append((labels, per, per * len(labels), list(excess.items())))
        self.orbits[length] = orbits
        return orbits

    def _vectors(self, orbits, j, left, counts, slack, keep):
        """Set the counts of orbit j and on, largest first, to place the
        `left` rows still due, and call keep(counts, slack after) on every
        fill; the counts list is reused."""
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
                self._vectors(orbits, j + 1, left - width * t, counts, rest, keep)
            else:
                keep(counts, rest)

    def _keeps(self, counts):
        """Whether one length's row counts pass the distinguished condition:
        every label class mod gcd(order, k) has a label with fewer rows than
        a round takes (type II has one class, as its order is 1)."""
        return all(min(counts[i :: self.classes]) < self.copies for i in range(self.classes))


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

    Only the diagrams admissible for `case` whose parts are multiples of
    `order` (AI only) are generated and, when `distinguished` is set, only
    the distinguished ones: at `order` for case AI
    (`orbits.is_distinguished_ai`), in the type II sense otherwise.
    """
    fills = _Fills(k, sign, case=case, order=order)
    rows = fills.rows(*_target(k, dims, size), distinguished)
    # _Fills has checked k and the sign, and its rows are canonical
    return (_built_diagram(k, sign, r) for r in rows)


def count_diagrams(
    k: int,
    sign: str,
    dims: Sequence[int] | None = None,
    *,
    size: int | None = None,
    distinguished: bool = False,
    **rule,
) -> int:
    """The number of diagrams `iter_diagrams` streams for the same arguments,
    by a dynamic program over the length blocks that builds no diagram or
    row (see the module docstring): its work grows with its states, not
    with the number of diagrams or of shapes."""
    return _Fills(k, sign, **rule).count(*_target(k, dims, size), distinguished)


def count_by_size(
    k: int, sign: str, sizes: Iterable[int], *, distinguished: bool = False, **rule
) -> list[int]:
    """`count_diagrams(k, sign, size=n, **rule)` for each size n in `sizes`,
    with one set of block tallies for all of them."""
    fills = _Fills(k, sign, **rule)
    return [fills.count(*_target(k, None, size), distinguished) for size in sizes]


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
    check_integer("partition size", n)
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
    check_integer("number of components", iota)
    check_integer("total size", n)
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
        "rows": [{"len": length, "start": start} for length, start in diagram.rows],
    }
