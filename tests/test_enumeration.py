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

import pytest

from gradedorbits.diagrams import (
    CASES,
    FilledDiagram,
    _built_diagram,
    canonicalize,
    count_by_size,
    count_diagrams,
    enumerate_by_size,
    enumerate_diagrams,
    iter_diagrams,
    multipartitions,
    partitions,
)
from gradedorbits.orbits import (
    admissible_for_case,
    is_distinguished_ai,
    is_distinguished_ii,
)
from gradedorbits.series import gf_orbit_count

from conftest import (
    brute_force_by_size,
    brute_force_diagrams,
    compositions,
    naive_diagram_counts,
)

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


def test_counts_match_the_series_far_past_the_brute_force():
    """The A family at l = 1, whose size-2n count is the series coefficient
    of degree n; degree 60 has 966,467 shapes, which the count never lists."""
    degrees = (39, 40, 60)
    series = gf_orbit_count("A", 1, max(degrees))
    counts = count_by_size(3, "-", [2 * n for n in degrees], case="AII")
    assert counts == [series.coefficient(n) for n in degrees]


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
