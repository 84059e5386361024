"""The streamed enumeration core against the brute force in conftest.

The reference enumerates every row multiset with itertools, then keeps the
wanted diagrams with the predicates of `orbits`; the core generates only
those diagrams, so agreement checks its per-length rules, its pruning by box
counts and its order.
"""

import gc
from functools import cache

import pytest

from gradedorbits.diagrams import (
    CASES,
    FilledDiagram,
    canonicalize,
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


def wanted(diagrams, case, size):
    """(iter_diagrams options, expected diagrams) for the admissible and the
    distinguished diagrams of the case.  AI takes every order dividing the
    size, and size + 1, which divides no part of a nonempty diagram."""
    admissible = [d for d in diagrams if admissible_for_case(d, case)]
    yield {"case": case}, admissible
    if case == "AI":
        for a in [a for a in range(1, size + 1) if size % a == 0] + [size + 1]:
            kept = [d for d in admissible if is_distinguished_ai(d, a)]
            yield {"case": case, "distinguished": True, "order": a}, kept
    else:
        kept = [d for d in admissible if is_distinguished_ii(d)]
        yield {"case": case, "distinguished": True}, kept


def rows_of(diagram):
    return tuple((r.length, r.start) for r in diagram.rows)


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
    for size in range(SIZE_MAX + 1):
        for options, expected in wanted(reference(k, sign, size), case, size):
            assert list(iter_diagrams(k, sign, size=size, **options)) == expected, options
            assert count_diagrams(k, sign, size=size, **options) == len(expected)


@pytest.mark.parametrize("k", range(1, K_MAX + 1))
@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("case", CASES)
def test_core_with_dims_matches_filtered_brute_force(k, sign, case):
    for size in range(SIZE_MAX + 1):
        for dims, diagrams in reference_by_dims(k, sign, size).items():
            for options, expected in wanted(diagrams, case, size):
                assert list(iter_diagrams(k, sign, dims, **options)) == expected, (dims, options)


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
    for options in ({}, {"distinguished": True, "case": "AII"}, {"case": "AI"}):
        with pytest.raises(ValueError):
            iter_diagrams(3, "-", size=6, order=2, **options)


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerate_diagrams(3, "-", (2, 2, 2)),
        lambda: enumerate_by_size(3, "+", 5),
        lambda: list(iter_diagrams(4, "-", size=6, case="CII", distinguished=True)),
        lambda: count_diagrams(3, "-", size=6, distinguished=True, order=2),
        lambda: partitions.__wrapped__(7),
        lambda: multipartitions(3, 4),
    ],
    ids=["enumerate_diagrams", "enumerate_by_size", "iter_diagrams", "count_diagrams",
         "partitions", "multipartitions"],
)
def test_enumeration_leaves_no_reference_cycles(call):
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        call()
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
