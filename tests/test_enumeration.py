"""The streamed enumeration core and the counting dynamic program against
the brute force in conftest.

The reference enumerates every row multiset with itertools, then keeps the
wanted diagrams with the predicates of `orbits`; the core generates only
those diagrams, so agreement checks its per-length rules, its pruning by box
counts and its order.  The counts share only the per-length rule with the
core, so they are checked against the brute force and against the stream.
"""

import gc
import tracemalloc
from collections import defaultdict
from functools import cache
from itertools import product
from math import gcd

import pytest

from gradedorbits import cli, series
from gradedorbits.diagrams import (
    CASES,
    FilledDiagram,
    _Fills,
    _block_orbits,
    _built_diagram,
    _fold,
    _gcd_rank,
    canonicalize,
    count_by_size,
    count_diagrams,
    dimension_vector,
    enumerate_by_size,
    enumerate_diagrams,
    iter_diagrams,
    multipartitions,
    partitions,
    row_partners,
)
from gradedorbits.orbits import (
    admissible_for_case,
    is_distinguished_ai,
    is_distinguished_ii,
    peel_ai,
    peel_ii,
)
from gradedorbits.series import (
    gf_distinguished_ai,
    gf_distinguished_ii,
    gf_orbit_count,
    weight_sums,
)

from conftest import (
    brute_force_by_size,
    brute_force_diagrams,
    compositions,
    naive_diagram_counts,
)
from test_orbits import reference_peel

K_MAX = 5
SIZE_MAX = 8


@cache
def row_multisets(k, size):
    return brute_force_by_size(k, size)


@cache
def reference(k, sign, size):
    """Brute-force diagrams of the size, in `sort_key` order."""
    diagrams = (canonicalize(rows, k, sign) for rows in row_multisets(k, size))
    return tuple(sorted(diagrams, key=FilledDiagram.sort_key))


@cache
def reference_by_dims(k, sign, size):
    """The reference split by box counts, over every box-count vector."""
    by_dims = {dims: [] for dims in compositions(size, k)}
    for d in reference(k, sign, size):
        by_dims[naive_diagram_counts(rows_of(d), k, sign)].append(d)
    return by_dims


def wanted(diagrams, case, orders):
    """(iter_diagrams options, expected diagrams) for the admissible and the
    distinguished diagrams of the case and, for AI at each of the orders,
    the diagrams whose parts the order divides and the distinguished ones."""
    admissible = [d for d in diagrams if admissible_for_case(d, case)]
    yield {"case": case}, admissible
    if case == "AI":
        for a in orders:
            yield {"case": case, "order": a}, [d for d in admissible if d.part_gcd % a == 0]
            kept = [d for d in admissible if is_distinguished_ai(d, a)]
            yield {"case": case, "distinguished": True, "order": a}, kept
    else:
        kept = [d for d in admissible if is_distinguished_ii(d)]
        yield {"case": case, "distinguished": True}, kept


def divisor_orders(size):
    """Every order dividing the size, and size + 1, which divides no part of
    a nonempty diagram."""
    return [a for a in range(1, size + 1) if size % a == 0] + [size + 1]


# Every order a <= 2k for every k <= K_MAX; these hold divisor_orders(size)
# for every size <= SIZE_MAX.
ORDERS = range(1, 2 * K_MAX + 1)


def has_modulus(case, k):
    """Whether the case has gradings of modulus k: AII needs an odd k, and
    CII and DII an even one."""
    return case == "AI" or k % 2 == (case == "AII")


def assert_modulus_rejected(k, sign, case):
    """The core refuses a modulus the case does not allow, as `GradingSpec`
    does, rather than count diagrams of gradings that do not exist."""
    message = f"{case} modulus must be {'odd' if case == 'AII' else 'even'}"
    for call in (
        lambda: iter_diagrams(k, sign, size=4, case=case),
        lambda: iter_diagrams(k, sign, (0,) * k, case=case, distinguished=True),
        lambda: count_diagrams(k, sign, size=4, case=case),
        lambda: count_by_size(k, sign, range(SIZE_MAX + 1), case=case),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def rows_of(diagram):
    return tuple((length, start) for length, start in diagram.rows)


def test_by_size_brute_force_agrees_with_dims_brute_force():
    for k in (1, 2, 3):
        for sign in "+-":
            for size in range(5):
                by_dims = set()
                for dims in compositions(size, k):
                    by_dims |= brute_force_diagrams(k, sign, dims)
                assert brute_force_by_size(k, size) == by_dims


@pytest.mark.parametrize("k", range(1, K_MAX + 1))
@pytest.mark.parametrize("sign", ["+", "-"])
def test_enumerate_lists_are_the_sorted_brute_force(k, sign):
    for size in range(SIZE_MAX + 1):
        expected = reference(k, sign, size)
        assert enumerate_by_size(k, sign, size) == list(expected)
        for dims, diagrams in reference_by_dims(k, sign, size).items():
            assert enumerate_diagrams(k, sign, dims) == diagrams


@pytest.mark.parametrize("k", range(1, K_MAX + 1))
@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("case", CASES)
def test_core_by_size_matches_filtered_brute_force(k, sign, case):
    """The stream and the counts, size by size and over all sizes at once."""
    if not has_modulus(case, k):
        assert_modulus_rejected(k, sign, case)
        return
    counts = defaultdict(list)
    for size in range(SIZE_MAX + 1):
        for options, expected in wanted(reference(k, sign, size), case, ORDERS):
            assert list(iter_diagrams(k, sign, size=size, **options)) == expected, options
            assert count_diagrams(k, sign, size=size, **options) == len(expected), options
            counts[tuple(options.items())].append(len(expected))
    for options, expected in counts.items():
        assert count_by_size(k, sign, range(SIZE_MAX + 1), **dict(options)) == expected, options
        # any order of sizes, repeats included
        shuffled = count_by_size(k, sign, [8, 0, 3, 8], **dict(options))
        assert shuffled == [expected[n] for n in (8, 0, 3, 8)], options


@pytest.mark.parametrize("k", range(1, K_MAX + 1))
@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("case", CASES)
def test_core_with_dims_matches_filtered_brute_force(k, sign, case):
    if not has_modulus(case, k):
        assert_modulus_rejected(k, sign, case)
        return
    for size in range(SIZE_MAX + 1):
        for dims, diagrams in reference_by_dims(k, sign, size).items():
            for options, expected in wanted(diagrams, case, divisor_orders(size)):
                assert list(iter_diagrams(k, sign, dims, **options)) == expected, (dims, options)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_counts_by_dims_match_stream_and_brute_force(k, sign):
    """Every box-count vector with entries <= 4: the count equals the length
    of the stream and, up to size SIZE_MAX, the filtered brute force."""
    for dims in product(range(5), repeat=k):
        size = sum(dims)
        diagrams = reference_by_dims(k, sign, size)[dims] if size <= SIZE_MAX else None
        for case in CASES:
            if not has_modulus(case, k):
                assert_modulus_rejected(k, sign, case)
                continue
            for options, expected in wanted(diagrams or (), case, ORDERS[: 2 * k]):
                counted = count_diagrams(k, sign, dims, **options)
                streamed = sum(1 for _ in iter_diagrams(k, sign, dims, **options))
                assert counted == streamed, (dims, options)
                if diagrams is not None:
                    assert counted == len(expected), (dims, options)


def enumerated_tally(fills, length, most, slack, distinguished):
    """The reference for `_Fills._tally`: `_block`'s enumerated fills of
    every row count up to `most`, with `distinguished` only its records
    with no round, of rank 0, per (rows, slack after)."""
    wraps = length // fills.k
    tally = defaultdict(int)
    for rows in range(most + 1):
        block_slack = slack
        if slack is not None:
            block_slack = tuple(v - rows * wraps for v in slack)
            if min(block_slack) < 0:
                continue
        for _, _, rest, _, _, rank in fills._block(length, rows, block_slack):
            if not distinguished or not rank:
                tally[rows, rest] += 1
    return tally


@pytest.mark.parametrize("k", range(1, 5))
@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("case", CASES)
def test_block_tally_is_the_enumerated_tally(k, sign, case):
    # The count's per-orbit tally against the walk's enumeration: the
    # first 2k multiples of the order, the lengths the walk and the count
    # make blocks at, row count <= 6, slack None or with entries <= 3, and,
    # for the last block of a count by box counts, the fills that leave no
    # box, of any row count.
    if not has_modulus(case, k):
        return
    slacks = [None, *product(range(4), repeat=k)]
    for order in (1, 2, 3) if case == "AI" else (1,):
        fills = _Fills(k, sign, case=case, order=order)
        lengths = range(order, 2 * k * order + 1, order)
        for length, slack, distinguished in product(lengths, slacks, (False, True)):
            expected = enumerated_tally(fills, length, 6, slack, distinguished)
            tally = fills._tally(length, 6, slack, distinguished)
            assert tally == expected, (order, length, slack, distinguished)
            if slack is None:
                continue
            every = enumerated_tally(fills, length, sum(slack), slack, distinguished)
            empty = (0,) * k
            expected = {key: n for key, n in every.items() if key[1] == empty}
            exact = fills._tally(length, 0, slack, distinguished, exact=True)
            assert exact == expected, (order, length, slack, distinguished)


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("case", CASES)
def test_block_orbits_depend_on_the_length_mod_k(k, sign, case):
    # `_block_orbits` reads a block's length only mod k.  Its orbits at
    # l % k, made afresh with no memo, are checked against the full length
    # l: the labels of an orbit are a start label and its `row_partners`
    # partner at l, one unit's excess boxes are those of its rows' diagram
    # less their wraps, and a label is closed by the last orbit with
    # excess on it.
    if not has_modulus(case, k):
        return
    for length in range(1, 3 * k + 1):
        orbits = _block_orbits.__wrapped__(case, sign, k, length % k)
        partners = row_partners(case, k, length)
        closer = {}
        for j, (labels, per, width, excess, _) in enumerate(orbits):
            a = labels[0]
            assert set(labels) == {a, partners[a - 1]}, (length, labels)
            assert per == (2 if case != "AI" and len(labels) == 1 else 1)
            assert width == per * len(labels)
            unit = canonicalize([(length, s) for s in labels for _ in range(per)], k, sign)
            boxes = [v - width * (length // k) for v in dimension_vector(unit)]
            assert dict(excess) == {i: v for i, v in enumerate(boxes) if v}, length
            closer.update((i, (j, e)) for i, e in excess)
        assert sorted(a for orbit in orbits for a in orbit[0]) == list(range(1, k + 1))
        for j, orbit in enumerate(orbits):
            assert {i: (j, e) for i, e in orbit[4]} == {
                i: last for i, last in closer.items() if last[0] == j
            }, length


def test_block_orbits_are_one_shared_tuple(monkeypatch):
    # Every `_Fills` of one rule reads the same block orbits, which no
    # caller can change: tuples at every level.
    seen = []
    real_vectors = _Fills._vectors

    def vectors(self, orbits, j, *args):
        if j == 0:
            seen.append(orbits)
        return real_vectors(self, orbits, j, *args)

    def tuples(value):
        return not isinstance(value, (list, dict, set)) and (
            not isinstance(value, tuple) or all(map(tuples, value))
        )

    monkeypatch.setattr(_Fills, "_vectors", vectors)
    for k, sign, case in ((4, "-", "AI"), (3, "+", "AII"), (4, "-", "DII")):
        seen.clear()
        for _ in range(2):
            _Fills(k, sign, case=case)._block(k + 1, 2, None)
        assert len(seen) == 2 and seen[0] is seen[1], (k, sign, case)
        assert seen[0] is _block_orbits(case, sign, k, 1)
        assert type(seen[0]) is tuple and tuples(seen[0]), seen[0]


@pytest.mark.parametrize("k", range(1, K_MAX + 1))
@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("case", CASES)
def test_block_records_carry_the_peel_of_their_block(k, sign, case):
    # Every record of a block fill carries the peel and rank that `peel_ai`
    # or `peel_ii` gives its block as a diagram of its own, and has rank 0
    # and keeps its own rows exactly when that diagram is distinguished:
    # every length <= 2k that is a multiple of the order, as the walk's
    # are, and row count <= 6.  The peel depends on the row counts alone,
    # and slack only drops fills, so slack None yields every block; one
    # bounded slack checks the slack after.
    if not has_modulus(case, k):
        return
    checked = 0
    for order in (1, 2, 3) if case == "AI" else (1,):
        fills = _Fills(k, sign, case=case, order=order)
        expected = {}
        lengths = range(order, 2 * k + 1, order)
        for length, rows, slack in product(lengths, range(1, 7), (None, (3,) * k)):
            for record in fills._block(length, rows, slack):
                block_rows, counts, rest, parts, left, rank = record
                diagram = FilledDiagram(k, sign, block_rows)
                if slack is not None:
                    wraps = rows * (length // k)
                    used = [v - wraps for v in dimension_vector(diagram)]
                    assert rest == tuple(s - u for s, u in zip(slack, used)), record
                if block_rows not in expected:
                    assert counts == diagram.multiplicities(length), record
                    if case == "AI":
                        peel, kept = peel_ai(diagram, order), is_distinguished_ai(diagram, order)
                    else:
                        peel, kept = peel_ii(diagram), is_distinguished_ii(diagram)
                    expected[block_rows] = (peel.tau, peel.residue.rows, peel.rank, kept, kept)
                got = (parts, left, rank, rank == 0, left == block_rows)
                assert got == expected[block_rows], (order, record)
        checked += len(expected)
    assert checked


def reference_vectors(orbits, j, left, counts, slack, keep):
    """The reference for `_Fills._vectors`: one frame per orbit, each
    trying every count from the largest down, the last orbit the one that
    places every row still due, and no rule for the blocks that must leave
    no box."""
    labels, per, width, excess = orbits[j][:4]
    last = j == len(orbits) - 1
    top = left // width
    if slack is not None:
        for i, e in excess:
            top = min(top, slack[i] // e)
    if last:
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
            reference_vectors(orbits, j + 1, left - width * t, counts, rest, keep)
        else:
            keep(counts, rest)


def reference_fills(fills, length, count, slack):
    """Every fill of one block as (rows, row counts, slack after), in the
    order of `reference_vectors`."""
    out = []

    def keep(counts, rest):
        rows = tuple((length, s) for s, c in enumerate(counts, 1) for _ in range(c))
        out.append((rows, tuple(counts), rest))

    orbits = _block_orbits(fills.case, fills.sign, fills.k, length % fills.k)
    reference_vectors(orbits, 0, count, [0] * fills.k, slack, keep)
    return out


@pytest.fixture(scope="module")
def walked_fills():
    """One `_Fills` per rule, with every block key its walks build: by size
    and by every box-count vector of that size.  AI: m <= 5, both signs,
    orders a <= 4, N <= 8; AII at m0 in {1, 3, 5}, CII and DII at m in
    {2, 4, 6}, N <= 10, which hold self-paired orbits (two rows a unit)."""
    rules = [(m, sign, "AI", a, 8) for m in range(1, 6) for sign in "+-" for a in range(1, 5)]
    rules += [(m, sign, "AII", 1, 10) for m in (1, 3, 5) for sign in "+-"]
    rules += [(m, sign, case, 1, 10) for case in ("CII", "DII") for m in (2, 4, 6) for sign in "+-"]
    made = []
    for m, sign, case, a, top in rules:
        fills = _Fills(m, sign, case=case, order=a)
        for size in range(top + 1):
            for _ in fills.walk(None, size):
                pass
            for dims in compositions(size, m):
                for _ in fills.walk(dims, size):
                    pass
        assert fills.fills, (m, sign, case, a)
        made.append(fills)
    return made


def test_block_fills_are_the_reference_fills(walked_fills):
    # The walk's fills of every block key, with the exact rule, are the
    # reference's, list for list: the same rows and row counts in the same
    # order, with the same slack after.
    checked = 0
    for fills in walked_fills:
        for (length, count, slack), records in fills.fills.items():
            got = [(rows, counts, rest) for rows, counts, rest, *_ in records]
            assert got == reference_fills(fills, length, count, slack), (fills.k, length, count)
            checked += 1
    assert checked > 100_000


def test_exact_blocks_leave_no_box_and_match_the_exact_tally(walked_fills):
    # A block whose slack is the excess of its rows, sum(slack) == count *
    # (length % k), leaves no box in any fill, and has as many fills, or
    # distinguished fills, as the count's exact tally: that tally takes the
    # boxes left with the block's own wraps, length // k per row and label.
    exact = 0
    for fills in walked_fills:
        k = fills.k
        for (length, count, slack), records in fills.fills.items():
            if slack is None or sum(slack) != count * (length % k):
                continue
            assert all(rest == (0,) * k for _, _, rest, *_ in records), (k, length, slack)
            boxes = tuple(v + count * (length // k) for v in slack)
            for distinguished in (False, True):
                kept = [r for r in records if not distinguished or not r[5]]
                tally = fills._tally(length, 0, boxes, distinguished, exact=True)
                assert sum(tally.values()) == len(kept), (k, length, count, slack)
                assert set(tally) <= {(count, (0,) * k)}, tally
            exact += 1
    assert exact > 50_000


def test_count_tallies_each_block_once_without_enumerating(monkeypatch):
    # A table counts every size from one run of the dynamic program: no
    # block is enumerated, and no block is tallied twice for one slack.
    runs = []
    real_tally = _Fills._tally

    def tally(self, length, most, slack, *args):
        runs.append((length, slack))
        return real_tally(self, length, most, slack, *args)

    def vectors(*args):
        raise AssertionError("the count enumerated a block")

    monkeypatch.setattr(_Fills, "_tally", tally)
    monkeypatch.setattr(_Fills, "_vectors", vectors)
    for count in (
        lambda: count_by_size(5, "-", range(0, 41, 2), case="AII", distinguished=True),
        lambda: count_by_size(4, "-", range(31), distinguished=True, order=1),
        lambda: count_by_size(6, "+", range(0, 41, 2), case="CII"),
        lambda: count_diagrams(4, "-", (4, 3, 4, 3), case="DII", distinguished=True),
        lambda: count_diagrams(3, "+", (5, 5, 4), order=2),
    ):
        runs.clear()
        count()
        assert runs and len(set(runs)) == len(runs)


def test_cli_count_builds_one_fills_and_one_weight_sum_pass(monkeypatch, tmp_path):
    made, passes = [], []
    real_init, real_sums = _Fills.__init__, series.weight_sums

    def init(self, *args, **kwargs):
        made.append(self)
        real_init(self, *args, **kwargs)

    def weight_sums(*args, **kwargs):
        passes.append(args)
        return real_sums(*args, **kwargs)

    monkeypatch.setattr(_Fills, "__init__", init)
    monkeypatch.setattr(series, "weight_sums", weight_sums)
    monkeypatch.setattr(cli, "weight_sums", weight_sums)
    for argv in (
        ["--family", "dist-C", "--l", "2", "--n", "12"],
        ["--family", "A", "--l", "1", "--n", "12"],
        ["--family", "dist-AI", "--m", "4", "--a", "2", "--n", "9"],
    ):
        made.clear()
        passes.clear()
        target = tmp_path / "count.csv"
        assert cli.main(["count", *argv, "--format", "csv", "--output", str(target)]) == 0
        assert len(made) == 1, argv
        assert len(passes) == 1, argv


def test_counts_match_the_series_far_past_the_brute_force():
    """The A family at l = 1, whose size-2n count is the series coefficient
    of degree n; degree 60 has 966,467 shapes, which the count never lists."""
    degrees = (39, 40, 60)
    gf = gf_orbit_count("A", 1, max(degrees))
    counts = count_by_size(3, "-", [2 * n for n in degrees], case="AII")
    assert counts == [gf[n] for n in degrees]


FAMILY_CASE = {"A": "AII", "C": "CII", "D": "DII"}

# Every type II family at l <= 3 to degree 40, and dist-AI at m <= 4 for
# every order a <= 2m whose family is not empty, to degree 30.
DEEP_FAMILIES = [
    (prefix + base, {"l": l}, 40)
    for prefix in ("", "dist-")
    for base in ("A", "C", "D")
    for l in (1, 2, 3)
] + [
    ("dist-AI", {"m": m, "a": a}, 30)
    for m in range(1, 5)
    for a in range(1, 2 * m + 1)
    if gcd(a, m) < m
]


@pytest.mark.parametrize(
    "family, params, n_max", DEEP_FAMILIES, ids=lambda v: str(v).replace(" ", "")
)
def test_deep_counts_agree_with_the_series_and_the_weights(family, params, n_max):
    # The whole table from one count and one weight-sum pass: the three
    # routes of `gradedorbits count` agree at every degree.
    if family == "dist-AI":
        m, a = params["m"], params["a"]
        gf = gf_distinguished_ai(m, a, n_max)
        counts = count_by_size(m, "-", [a * n for n in range(n_max + 1)], distinguished=True, order=a)
    else:
        base = family.removeprefix("dist-")
        distinguished = family.startswith("dist-")
        gf = (gf_distinguished_ii if distinguished else gf_orbit_count)(base, params["l"], n_max)
        modulus = 2 * params["l"] + (base == "A")
        sizes = [2 * n for n in range(n_max + 1)]
        counts = count_by_size(
            modulus, "-", sizes, case=FAMILY_CASE[base], distinguished=distinguished
        )
    assert counts == list(gf) == weight_sums(n_max, family, **params)


def test_core_rejects_bad_arguments():
    with pytest.raises(ValueError):
        iter_diagrams(0, "-", size=1)
    with pytest.raises(ValueError):
        iter_diagrams(2, "*", size=1)
    with pytest.raises(ValueError):
        iter_diagrams(2, "-", size=1, case="BI")
    with pytest.raises(ValueError):
        iter_diagrams(2, "-", size=1, distinguished=True, order=0)
    with pytest.raises(ValueError):
        iter_diagrams(2, "-")
    with pytest.raises(ValueError):
        iter_diagrams(2, "-", (1, 1), size=2)
    with pytest.raises(ValueError):
        count_diagrams(2, "-", size=-1)
    with pytest.raises(ValueError):
        count_diagrams(2, "-", (1, -1))
    with pytest.raises(ValueError):
        count_by_size(2, "-", [2, -2])
    with pytest.raises(ValueError):
        count_by_size(2, "-", [2], case="AII", order=2)
    with pytest.raises(ValueError):
        iter_diagrams(3, "-", size=6, order=2, distinguished=True, case="AII")
    non_integers = [
        lambda: iter_diagrams(2.0, "-", size=2),
        lambda: iter_diagrams(2, "-", size=2, order=2.0),
        lambda: iter_diagrams(2, "-", size=2.0),
        lambda: iter_diagrams(2, "-", (1.0, 1)),
        lambda: count_diagrams(2, "-", size=2.0),
        lambda: count_by_size(2, "-", [2, 2.0]),
        lambda: canonicalize([(1, 1)], 2.0, "-"),
    ]
    for call in non_integers:
        with pytest.raises(ValueError, match="must be an integer, got"):
            call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerate_diagrams(3, "-", (2, 2, 2)),
        lambda: enumerate_by_size(3, "+", 5),
        lambda: list(iter_diagrams(4, "-", size=6, case="CII", distinguished=True)),
        lambda: count_diagrams(3, "-", size=6, distinguished=True, order=2),
        lambda: count_diagrams(3, "-", size=6, order=2),
        lambda: count_diagrams(3, "-", (3, 2, 3), case="AI"),
        lambda: count_by_size(3, "-", range(0, 13, 2), case="AII", distinguished=True),
        lambda: partitions.__wrapped__(7),
        lambda: multipartitions(3, 4),
    ],
    ids=["enumerate_diagrams", "enumerate_by_size", "iter_diagrams", "count_diagrams",
         "count_diagrams_order", "count_diagrams_dims", "count_by_size", "partitions",
         "multipartitions"],
)
def test_enumeration_leaves_no_reference_cycles(call):
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        # Older objects, garbage or not, such as the cached references, are
        # left out of the collection, which then scans only what the call
        # allocated.
        gc.freeze()
        call()
        assert gc.collect() == 0
    finally:
        gc.unfreeze()
        if was_enabled:
            gc.enable()


# The stream builds its diagrams without `FilledDiagram`'s checks, from rows
# it made valid and canonical itself; the public constructor keeps them.


def public_rebuild(diagram):
    """The diagram rebuilt through the public, checking constructor."""
    return FilledDiagram(diagram.modulus, diagram.sign, diagram.rows)


def assert_passes_the_public_checks(diagram):
    rebuilt = public_rebuild(diagram)
    assert vars(diagram) == vars(rebuilt), diagram
    assert hash(diagram) == hash(rebuilt), diagram


@pytest.mark.parametrize("k", range(1, 5))
@pytest.mark.parametrize("case", CASES)
def test_walks_over_shared_fills_are_the_streams(k, case):
    # verify_bijection walks the orbits and the strata's distinguished
    # residuals over one _Fills.  Whichever walk fills a block first, every
    # walk over the shared memos must yield iter_diagrams' rows in order,
    # each diagram with its blocks: their rows, their row counts per label
    # and their peel.  `_fold` joins the blocks into the diagram's part gcd
    # and its peel at the walk's order, which the reference peel checks.
    if not has_modulus(case, k):
        return
    for order in (1, 2, 3) if case == "AI" else (1,):
        fills = _Fills(k, "-", case=case, order=order)
        rule = {"case": case, "order": order}
        a, per = (order, 1) if case == "AI" else (1, 2)
        for size in range(SIZE_MAX + 1):
            for dims in compositions(size, k):
                for distinguished in (False, True) if size % 2 else (True, False):
                    stream = iter_diagrams(k, "-", dims, distinguished=distinguished, **rule)
                    expected = [diagram.rows for diagram in stream]
                    walked = list(fills.walk(dims, size, distinguished))
                    assert [rows for rows, _ in walked] == expected, (dims, order)
                    if distinguished:
                        continue
                    for rows, blocks in walked:
                        joined = ()
                        for block_rows, counts, _, parts, left, rank in blocks:
                            diagram = FilledDiagram(k, "-", block_rows)
                            assert diagram.parts == (block_rows[0][0],)
                            assert counts == diagram.multiplicities(block_rows[0][0])
                            peel = peel_ai(diagram, order) if case == "AI" else peel_ii(diagram)
                            assert (parts, left, rank) == (peel.tau, peel.residue.rows, peel.rank)
                            joined += block_rows
                        assert joined == rows, (dims, order)
                        diagram = FilledDiagram(k, "-", rows)
                        tau, residue = reference_peel(diagram, a, per)
                        assert _fold(rows, blocks, gcd(a, k)) == (
                            diagram.part_gcd, sum(map(sum, tau)), tau, residue.rows
                        ), (rows, order)
                        assert _gcd_rank(blocks) == (diagram.part_gcd, sum(map(sum, tau)))


@pytest.mark.parametrize("k", range(1, 5))
@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("case", CASES)
def test_streamed_diagrams_equal_their_public_rebuild(k, sign, case):
    if not has_modulus(case, k):
        assert_modulus_rejected(k, sign, case)
        return
    orders = (1, 2, 3) if case == "AI" else (1,)
    streamed = 0
    for size in range(SIZE_MAX + 1):
        for order, distinguished in product(orders, (False, True)):
            rule = {"case": case, "distinguished": distinguished, "order": order}
            for diagram in iter_diagrams(k, sign, size=size, **rule):
                assert_passes_the_public_checks(diagram)
                streamed += 1
            if size <= 5:
                for dims in compositions(size, k):
                    for diagram in iter_diagrams(k, sign, dims, **rule):
                        assert_passes_the_public_checks(diagram)
    assert streamed > 0



def test_streamed_diagrams_take_no_more_memory_than_public_ones():
    # fields set through __dict__ would give each diagram a dict of its own
    diagrams = enumerate_by_size(3, "-", 8)

    def traced(build):
        tracemalloc.start()
        try:
            built = [build(d.modulus, d.sign, d.rows) for d in diagrams]  # alive while measured
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    assert traced(_built_diagram) <= traced(FilledDiagram)
