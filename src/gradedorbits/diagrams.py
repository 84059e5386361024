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
`orbits.admissible_for_case` tests); and, for distinguished diagrams, no
uniform round: `_peel_block`, the peel of one length block that
`orbits.peel_ai` and `peel_ii` also run, finds none (the condition of
`orbits.is_distinguished_ai` and `is_distinguished_ii`).  Only the wanted
diagrams are built, and with box counts given the core prunes by the boxes
each label has left: a shape whose rows' wraps exceed a box count is
skipped before its blocks are built, and in a block that must use every box
it is given, as the last of each shape must, an orbit that closes a label
(`_block_orbits`) takes the one count that empties it.  `enumerate_diagrams`
and `enumerate_by_size` list it.
The core's one walk hands out each diagram as its rows and its blocks,
every block fill one record that carries its rows, its row counts per label
and its peel (parts, leftover rows and rank), its rank its verdict: 0
exactly when it has no round.  A block's records are memoized once, and the
distinguished walk keeps those of rank 0.  Only this module reads a record:
`_gcd_rank` reads a diagram's part gcd and rank off its records, for the
strata and the listings; `_fold` also joins its peel, for
`sheaves.verify_bijection` and the peeling maps, which fold the records
`_peel` makes; and `_unpeeled` peels them again at the listings' other
orders.

`count_diagrams` and `count_by_size` count without the stream, and without
enumerating a block: a block's tally, how many of its allowed fills take
each number of rows and leave each slack of box counts, comes from a
dynamic program over its orbits of start labels, which the same per-length
rule ties together.  One forward dynamic program over the length blocks
then places the parts, its states the parts placed and the boxes left per
label, and serves every size of a table at once.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cache
from itertools import groupby, product
from math import gcd
from operator import add, itemgetter
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
        # a list or generator of rows would leave the diagram unhashable and
        # unequal to `canonicalize`'s
        object.__setattr__(self, "rows", tuple(self.rows))
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

    def sort_key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        # underlying partition decreasing lexicographically, then starts increasing
        return (tuple(-p for p in self.partition), tuple(start for _, start in self.rows))

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


_new, _set = object.__new__, object.__setattr__


def _built_diagram(k: int, sign: str, rows: tuple[Row, ...]) -> FilledDiagram:
    """A diagram whose fields the library has already made valid: k and
    the sign checked, and the rows well formed and in canonical order.  It
    skips `FilledDiagram`'s checks, so only `diagrams` and `orbits` call it,
    on rows they built themselves; user input goes through the public
    constructor or `canonicalize`."""
    diagram = _new(FilledDiagram)
    # as the dataclass's own __init__ does; reading __dict__ would give each
    # diagram a dict of its own, more than twice its size
    _set(diagram, "modulus", k)
    _set(diagram, "sign", sign)
    _set(diagram, "rows", rows)
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


def _peel_block(rows, counts, a, per):
    """The peel of one length block at order a, from its rows and its row
    counts per label: per label class mod d = gcd(a, m), the largest number
    of uniform rounds of `per` rows at every label of the class, as that
    many parts length / a, the rows left over, starts ascending, and the
    rank, the sum of the parts: the block's verdict, 0 exactly when it has
    no round, as every record and peel is made at a length a divides.  The
    one home of the rule: a diagram is distinguished when no block of it
    has a round."""
    d = gcd(a, len(counts))
    # the walk peels every fill, and most have one class and no round
    if d == 1 and min(counts) < per:
        return ((),), rows, 0
    lows = [min(counts[i::d]) // per for i in range(d)]
    if not any(lows):
        return ((),) * d, rows, 0
    # the rows of label i are a run of counts[i] in `rows`; its head is left
    left, end = (), 0
    for i, c in enumerate(counts):
        left += rows[end : end + c - per * lows[i % d]]
        end += c
    part = rows[0][0] // a
    return tuple((part,) * low for low in lows), left, part * sum(lows)


def _peel(diagram, a, per):
    """The multipartition and the residual diagram of a diagram's peel at
    order a, `per` rows a round: the fold of its block records, made as the
    walk makes them but with no slack after, in one pass, since the
    canonical rows come in runs of one length."""
    records = []
    for _, run in groupby(diagram.rows, itemgetter(0)):
        rows = tuple(run)
        counts = [0] * diagram.modulus
        for _, start in rows:
            counts[start - 1] += 1
        records.append((rows, counts, None, *_peel_block(rows, counts, a, per)))
    _, _, tau, left = _fold(diagram.rows, records, gcd(a, diagram.modulus))
    return tau, _built_diagram(diagram.modulus, diagram.sign, left)


def _gcd_rank(blocks):
    """A diagram's part gcd (0 with no block) and rank, from its block records."""
    g = rank = 0
    for record in blocks:
        g = gcd(g, record[0][0][0])
        rank += record[5]
    return g, rank


def _fold(rows, blocks, classes):
    """A diagram's part gcd, rank (`_gcd_rank`), multipartition of `classes`
    components and leftover rows, from its rows and its block records: the
    parts joined per class and the leftover rows joined, in the canonical
    order.  With no round the leftover rows are the rows."""
    g, rank = _gcd_rank(blocks)
    tau = ((),) * classes
    if not rank:
        return g, 0, tau, rows
    left = ()
    for _, _, _, parts, rest, r in blocks:
        if r:
            tau = tuple(map(add, tau, parts))
        left += rest
    return g, rank, tau, left


def _unpeeled(blocks, a):
    """Whether the peel at order a, one row per label, finds no round in
    any of a diagram's block records, whose lengths a divides: every rank,
    the verdict, is 0."""
    return not any(_peel_block(rows, counts, a, 1)[2] for rows, counts, _, _, _, _ in blocks)


@cache
def _block_orbits(case, sign, k, residue):
    """The orbits of start labels whose row counts the case ties together
    in a block of rows of length = residue mod k, by smallest label, each
    as (labels, rows per label and in all for one unit, that unit's excess
    boxes as (label index, boxes) pairs, the pairs of the labels it
    closes): a label is closed at the last orbit that takes excess from
    it, so its slack is final once that orbit is placed.  The labels are
    tied by `row_partners`, which reads the length only mod k.  Tuples all
    through, since every `_Fills` of the rule shares them."""
    partners = row_partners(case, k, residue)
    step = 1 if sign == MINUS else -1
    orbits = []
    seen = set()
    last: dict = {}
    for a in range(1, k + 1):
        if a in seen:
            continue
        b = partners[a - 1]
        seen.update((a, b))
        labels, per = ((a,), 1 + (case != "AI")) if a == b else ((a, b), 1)
        excess: dict = {}
        for start in labels:
            for t in range(residue):
                i = (start - 1 + step * t) % k
                excess[i] = excess.get(i, 0) + per
        for i, e in excess.items():
            last[i] = len(orbits), e
        orbits.append((labels, per, per * len(labels), tuple(excess.items()), []))
    for i, (j, e) in last.items():
        orbits[j][4].append((i, e))
    return tuple((*orbit[:4], tuple(orbit[4])) for orbit in orbits)


class _Fills:
    """The fills of one rule, the keyword arguments of `iter_diagrams` but
    `distinguished`, for any box counts or size, with every part a multiple
    of the order: `walk` gives each diagram's rows and blocks and `count`
    their number at each of several sizes, both over every fill or only the
    distinguished ones.  The walk's fills live as long as the object, so
    every walk on one object shares one run of `_vectors` per block: each
    fill is one record carrying its rows and its peel at the order, and the
    distinguished fills of a block are its records with no round.  The count
    enumerates no fill: it tallies each block per orbit (`_tally`), and one
    forward pass over the blocks serves every size; its tallies last one
    call.  A block's orbits of start labels come from `_block_orbits`, one
    memo for every object.

    A row of length p takes p // k boxes of each label and p % k excess
    boxes.  With box counts given, `slack` is, per label, the boxes the
    excess of the block being filled may take: in the walk, what is left
    once every unfilled row takes its p // k of each label, and in the count
    the boxes left, from which the tally takes the p // k of the block's own
    rows.  Since the lengths sum to the total, a fill that keeps the slack
    nonnegative ends on exactly the given box counts.  Without box counts
    the slack is None.  A block is exact when its slack is its rows'
    excess, sum(slack) == count * (length % k): every fill leaves no box,
    which holds for the last block of every shape.
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
        self.fills: dict = {}

    def walk(self, dims, size, distinguished=False):
        """Each diagram once, in canonical order, as (rows, blocks): per part
        length, from the longest down, its block's fill as a `_block`
        record, and the records' rows joined along the walk; with
        `distinguished`, only the diagrams no block of which has a round."""
        # Type II row counts per length are even, so their shapes double the
        # multiplicities of a partition; AI parts are multiples of the order.
        k, unit, copies = self.k, self.unit, self.copies
        step = unit * copies
        floor = None if dims is None else min(dims)
        slack = None
        for shape in partitions(size // step) if size % step == 0 else ():
            if dims is not None:
                # the rows' wraps, summed off the parts before any block is built
                even = 0
                for part in shape:
                    even += part * unit // k * copies
                if even > floor:
                    continue
                slack = tuple(v - even for v in dims)
            blocks = [(part * unit, len(tuple(run)) * copies) for part, run in groupby(shape)]
            yield from self._fill(blocks, 0, slack, (), (), distinguished) if blocks else [((), ())]

    def count(self, dims, sizes, distinguished=False):
        """The number of diagrams `walk` yields at each of the sizes, by
        one dynamic program that places the parts forward, longest first, up
        to the largest size.  Its states are the parts placed and the boxes
        left per label (None without box counts; with them, the sizes are
        their one total), and a block moves each state by the tally of its
        allowed fills, made once per boxes left."""
        step = self.unit * self.copies
        top = max((size // step for size in sizes if size % step == 0), default=0)
        ways = {(0, dims): 1}
        for part in range(top, 0, -1):
            length = part * self.unit
            most = (top // part) * self.copies
            # with box counts, the shortest part takes every box left
            exact = dims is not None and part == 1
            tallies: dict = {}
            after: dict = defaultdict(int)
            for (placed, boxes), w in ways.items():
                if boxes not in tallies:
                    tallies[boxes] = self._tally(length, most, boxes, distinguished, exact)
                for (rows, rest), fills in tallies[boxes].items():
                    reached = placed + rows // self.copies * part
                    if reached <= top:
                        after[reached, rest] += w * fills
            ways = after
        end = None if dims is None else (0,) * self.k
        return [ways.get((size // step, end), 0) if size % step == 0 else 0 for size in sizes]

    def _fill(self, blocks, i, slack, rows, records, distinguished):
        # the last two blocks fill in one frame, which saves a generator per
        # fill of the block before last
        nested = i + 2 < len(blocks)
        for record in self._block(*blocks[i], slack):
            # a record's rank is its verdict: 0 exactly when it has no round
            if distinguished and record[5]:
                continue
            joined, share = rows + record[0], records + (record,)
            if i + 1 == len(blocks):
                yield joined, share
            elif nested:
                yield from self._fill(blocks, i + 1, record[2], joined, share, distinguished)
            else:
                for end in self._block(*blocks[i + 1], record[2]):
                    if not distinguished or not end[5]:
                        yield joined + end[0], share + (end,)

    def _block(self, length, count, slack):
        """Every fill of one block as a (rows, row counts per label, slack
        after, parts, leftover rows, rank) record, from one run of
        `_vectors` that every walk shares: the parts, leftover rows and rank
        are the fill's `_peel_block` at the order."""
        key = (length, count, slack)
        out = self.fills.get(key)
        if out is None:
            out = self.fills[key] = []
            unit, per = self.unit, self.copies

            def keep(counts, rest):
                counts = tuple(counts)
                rows = ()
                for s, c in enumerate(counts, 1):
                    if c:
                        rows += ((length, s),) * c
                out.append((rows, counts, rest, *_peel_block(rows, counts, unit, per)))

            exact = slack is not None and sum(slack) == count * (length % self.k)
            orbits = _block_orbits(self.case, self.sign, self.k, length % self.k)
            self._vectors(orbits, 0, count, [0] * self.k, slack, keep, exact)
        return out

    def _tally(self, length, most, slack, distinguished, exact=False):
        """The number of fills of one block with at most `most` rows, or of
        its distinguished fills, per (rows, slack after) pair, the slack the
        boxes left per label.  A dynamic program over the block's orbits:
        its states are the rows placed, the slack left and a bitmask of the
        label classes that already hold a label with fewer rows than a round
        takes, so a fill is distinguished when every bit is set: the count's
        form of `_peel_block`'s rule, tested against the records' peel.
        Every row also takes length // k boxes of each label.  With `exact`
        only the fills that leave no box count: they have the total slack
        over the length rows, so a label an orbit closes (`_block_orbits`)
        must be left with those rows' length // k boxes once that orbit is
        placed."""
        wraps = length // self.k
        if slack is not None and wraps:
            most = min(most, min(slack) // wraps)
        if exact:
            most, extra = divmod(sum(slack), length)
            if extra:
                return {}
        states = {(0, slack, 0): 1}
        orbits = _block_orbits(self.case, self.sign, self.k, length % self.k)
        for labels, per, width, excess, closed in orbits:
            below = 0
            if distinguished:
                for start in labels:
                    below |= 1 << (start - 1) % self.classes
            after: dict = defaultdict(int)
            for (rows, left, mask), ways in states.items():
                top = (most - rows) // width
                if left is not None:
                    for i, e in excess:
                        if left[i] < top * e:
                            top = left[i] // e
                for t in range(top + 1):
                    rest = left
                    if left is not None and t and excess:
                        rest = list(left)
                        for i, e in excess:
                            rest[i] -= t * e
                        rest = tuple(rest)
                    if exact and any(rest[i] != most * wraps for i, _ in closed):
                        continue
                    held = mask | below if per * t < self.copies else mask
                    after[rows + width * t, rest, held] += ways
            states = after
        full = (1 << self.classes) - 1 if distinguished else 0
        tally: dict = defaultdict(int)
        for (rows, left, mask), ways in states.items():
            if mask != full:
                continue
            if left is not None and wraps:
                left = tuple(v - rows * wraps for v in left)
                if min(left) < 0:
                    continue
            if exact and any(left):
                continue
            tally[rows, left] += ways
        return tally

    def _vectors(self, orbits, j, left, counts, slack, keep, exact):
        """Set the counts of orbit j and on, largest first, to place the
        `left` rows still due, and call keep(counts, slack after) on every
        fill; the counts list is reused.  The last orbit takes every row
        still due, when the slack holds them.  In an `exact` block (see
        `_Fills`) every fill leaves no box, so an orbit that closes a label
        takes the one count that empties it."""
        labels, per, width, excess, closed = orbits[j]
        last = j + 1 == len(orbits)
        top = left // width
        if slack is not None:
            for i, e in excess:
                if slack[i] < top * e:
                    top = slack[i] // e
        if last:
            choices = (top,) if top * width == left else ()
        elif exact and closed:
            for i, e in closed:
                if slack[i] != top * e:
                    return
            choices = (top,)
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
            if last:
                keep(counts, rest)
            else:
                self._vectors(orbits, j + 1, left - width * t, counts, rest, keep, exact)


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
    walk = _Fills(k, sign, case=case, order=order).walk(*_target(k, dims, size), distinguished)
    # _Fills has checked k and the sign, and its rows are canonical
    return (_built_diagram(k, sign, rows) for rows, _ in walk)


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
    by `count_by_size`'s dynamic program at one size, which builds no
    diagram or row and enumerates no block (see the module docstring): its
    work grows with its states, not with the number of diagrams or of
    shapes."""
    dims, size = _target(k, dims, size)
    return _Fills(k, sign, **rule).count(dims, [size], distinguished)[0]


def count_by_size(
    k: int, sign: str, sizes: Iterable[int], *, distinguished: bool = False, **rule
) -> list[int]:
    """`count_diagrams(k, sign, size=n, **rule)` for each size n in `sizes`,
    in any order, read off one forward dynamic program up to the largest
    size, which tallies each block over its orbits and enumerates none."""
    sizes = [_target(k, None, size)[1] for size in sizes]
    return _Fills(k, sign, **rule).count(None, sizes, distinguished)


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
