import re
import time

import pytest
from hypothesis import given, strategies as st

from gradedorbits.diagrams import (
    FilledDiagram,
    canonicalize,
    dimension_vector,
    diagram_to_json,
    empty_diagram,
    enumerate_by_size,
    enumerate_diagrams,
    multipartitions,
    partitions,
)

from conftest import (
    brute_force_diagrams,
    compositions,
    naive_diagram_counts,
    series_mul,
    series_one,
)


def rows_of(diagram):
    return tuple((length, start) for length, start in diagram.rows)


def diagram_from_json(obj: dict) -> FilledDiagram:
    rows = [(r["len"], r["start"]) for r in obj["rows"]]
    return canonicalize(rows, obj["modulus"], obj["sign"])


def test_canonicalize_sorts_rows():
    d = canonicalize([(1, 2), (2, 1)], 2, "+")
    assert rows_of(d) == ((2, 1), (1, 2))


def test_canonicalize_empty():
    d = canonicalize([], 3, "-")
    assert d.is_empty
    assert d.size == 0
    assert d.partition == ()
    assert d.parts == ()
    assert d.part_gcd == 0


def test_canonicalize_multiset_multiplicity():
    d = canonicalize([(2, 1), (2, 1)], 2, "+")
    assert d.multiplicities(2) == (2, 0)


def test_diagram_checks_row_order():
    with pytest.raises(ValueError, match="canonical order"):
        FilledDiagram(2, "+", ((1, 1), (2, 1)))
    with pytest.raises(ValueError, match="canonical order"):
        FilledDiagram(2, "+", ((2, 2), (2, 1)))
    with pytest.raises(ValueError, match="canonical order"):
        FilledDiagram(3, "-", ((3, 1), (1, 2), (2, 1)))
    rows = ((2, 1), (2, 1), (1, 2), (1, 2))
    assert FilledDiagram(2, "+", rows).rows == rows
    assert FilledDiagram(2, "+", rows) == canonicalize([(1, 2), (2, 1), (1, 2), (2, 1)], 2, "+")


@pytest.mark.parametrize("rows", [[(1, 1)], [(2, 1), (1, 1)]])
def test_diagram_stores_any_iterable_of_rows_as_a_tuple(rows):
    expected = canonicalize(rows, 2, "+")
    for given in (rows, (row for row in rows)):
        lam = FilledDiagram(2, "+", given)
        assert lam.rows == expected.rows
        assert lam == expected and hash(lam) == hash(expected)


@pytest.mark.parametrize(
    "k, sign, message",
    [(0, "+", "modulus must be >= 1"), (2.0, "+", "modulus must be an integer"), (2, "*", "sign must be")],
)
def test_diagram_checks_modulus_and_sign(k, sign, message):
    # the stream skips these checks; the public constructor keeps them
    with pytest.raises(ValueError, match=message):
        FilledDiagram(k, sign, ())


@pytest.mark.parametrize(
    "rows", [[(1, 0)], [(1, 3)], [(0, 1)], [(-2, 1)], [(2.7, 1)], [(2, 1.0)], [(1, 1, 1)]]
)
def test_canonicalize_rejects_invalid_rows(rows):
    with pytest.raises(ValueError):
        canonicalize(rows, 2, "+")


@pytest.mark.parametrize("row", [[2, 1], (1,), (2, 1, 1), "21", object()])
def test_diagram_rejects_a_row_that_is_not_a_pair(row):
    with pytest.raises(ValueError, match=r"row must be a \(length, start\) pair"):
        FilledDiagram(2, "+", (row,))


def test_canonicalize_takes_list_and_tuple_pairs():
    from_lists = canonicalize([[1, 2], [2, 1], [1, 2]], 2, "+")
    from_tuples = canonicalize(iter([(2, 1), (1, 2), (1, 2)]), 2, "+")
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)
    assert from_lists.rows == ((2, 1), (1, 2), (1, 2))


rows_strategy = st.lists(
    st.tuples(st.integers(1, 5), st.integers(1, 4)), max_size=6
)


@given(rows=rows_strategy, k=st.integers(1, 4), sign=st.sampled_from("+-"))
def test_canonicalize_row_order_invariance(rows, k, sign):
    rows = [(length, (start - 1) % k + 1) for length, start in rows]
    base = canonicalize(rows, k, sign)
    assert canonicalize(list(reversed(rows)), k, sign) == base
    assert canonicalize(sorted(rows), k, sign) == base
    # idempotent
    assert canonicalize(base.rows, k, sign) == base


def test_dimension_vector_examples():
    assert dimension_vector(canonicalize([(2, 1)], 2, "+")) == (1, 1)
    assert dimension_vector(empty_diagram(3)) == (0, 0, 0)
    assert dimension_vector(canonicalize([(2, 1)], 3, "+")) == (1, 0, 1)


@pytest.mark.parametrize("sign", ["+", "-"])
def test_dimension_vector_matches_label_walk(sign):
    # every diagram with m <= 4 and size <= 8: rows wrap up to eight times
    for k in range(1, 5):
        for size in range(9):
            for d in enumerate_by_size(k, sign, size):
                assert dimension_vector(d) == naive_diagram_counts(rows_of(d), k, sign), d


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize(
    "rows, k",
    [
        ([(7, 2)], 3),
        ([(9, 1), (9, 3), (5, 2)], 4),
        ([(11, 4), (2, 1), (1, 5)], 5),
        ([(13, 2), (13, 2), (6, 1), (3, 2)], 2),
        ([(10, 1)], 1),
    ],
)
def test_dimension_vector_rows_wrapping_more_than_twice(rows, k, sign):
    d = canonicalize(rows, k, sign)
    assert dimension_vector(d) == naive_diagram_counts(rows_of(d), k, sign)


@given(rows=rows_strategy, k=st.integers(1, 4), sign=st.sampled_from("+-"))
def test_dimension_vector_totals_size(rows, k, sign):
    rows = [(length, (start - 1) % k + 1) for length, start in rows]
    d = canonicalize(rows, k, sign)
    assert sum(dimension_vector(d)) == d.size


def test_enumerate_diagrams_examples():
    got = enumerate_diagrams(2, "+", (1, 1))
    assert [rows_of(d) for d in got] == [((2, 1),), ((2, 2),), ((1, 1), (1, 2))]
    assert enumerate_diagrams(2, "+", (0, 0)) == [empty_diagram(2, "+")]
    got = enumerate_diagrams(3, "+", (1, 0, 1))
    assert [rows_of(d) for d in got] == [((2, 1),), ((1, 1), (1, 3))]


def test_enumerate_diagrams_rejects_bad_dims():
    with pytest.raises(ValueError):
        enumerate_diagrams(2, "+", (1,))
    with pytest.raises(ValueError):
        enumerate_diagrams(2, "+", (1, -1))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_enumerate_diagrams_matches_brute_force(k, sign):
    for total in range(5):
        for dims in compositions(total, k):
            got = enumerate_diagrams(k, sign, dims)
            assert len(set(got)) == len(got)
            for d in got:
                assert dimension_vector(d) == dims
            assert {rows_of(d) for d in got} == {
                tuple(sorted(rows, key=lambda r: (-r[0], r[1])))
                for rows in brute_force_diagrams(k, sign, dims)
            }


def test_enumerate_by_size_examples():
    assert len(enumerate_by_size(1, "+", 3)) == 3
    got = enumerate_by_size(2, "+", 1)
    assert [rows_of(d) for d in got] == [((1, 1),), ((1, 2),)]
    got = enumerate_by_size(2, "+", 2)
    assert [rows_of(d) for d in got] == [
        ((2, 1),),
        ((2, 2),),
        ((1, 1), (1, 1)),
        ((1, 1), (1, 2)),
        ((1, 2), (1, 2)),
    ]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_enumerate_by_size_is_disjoint_union_over_dims(k):
    for total in range(5):
        combined = []
        for dims in compositions(total, k):
            combined.extend(enumerate_diagrams(k, "-", dims))
        by_size = enumerate_by_size(k, "-", total)
        assert len(by_size) == len(combined)
        assert set(by_size) == set(combined)


def test_partitions_order():
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert partitions(0) == ((),)


def test_multipartitions_examples():
    assert multipartitions(1, 0) == (((),),)
    assert multipartitions(2, 2) == (
        ((2,), ()),
        ((1, 1), ()),
        ((1,), (1,)),
        ((), (2,)),
        ((), (1, 1)),
    )
    assert len(multipartitions(1, 4)) == 5


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: partitions(2.5), "partition size must be an integer, got 2.5"),
        # 2.0 misses the cache entry of 2, so it is checked too
        (lambda: partitions(2) and partitions(2.0), "partition size must be an integer, got 2.0"),
        (lambda: partitions(-1), "partition size must be nonnegative"),
        (lambda: multipartitions(2, 1.5), "total size must be an integer, got 1.5"),
        (lambda: multipartitions(1.0, 2), "number of components must be an integer, got 1.0"),
        (lambda: multipartitions(0, 2), "number of components must be >= 1"),
    ],
)
def test_partition_inputs_must_be_integers(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_multipartitions_builds_only_the_size_compositions():
    # cuspidal_ai asks for multipartitions(d, 1) with d up to the modulus;
    # looping over all (n + 1)^(iota - 1) heads would take minutes here.
    start = time.perf_counter()
    assert multipartitions(30, 1) == tuple(
        tuple((1,) if slot == i else () for slot in range(30)) for i in range(30)
    )
    assert len(multipartitions(12, 4)) == 2535  # x^4 in (1 + x + 2x^2 + 3x^3 + 5x^4)^12
    assert time.perf_counter() - start < 5
def test_multipartition_count_matches_series():
    # |P_iota(n)| is the x^n coefficient of (sum_j p(j) x^j)^iota
    n_max = 5
    base = tuple(len(partitions(j)) for j in range(n_max + 1))
    for iota in range(1, 4):
        power = series_one(n_max)
        for _ in range(iota):
            power = series_mul(power, base)
        for n in range(n_max + 1):
            assert len(multipartitions(iota, n)) == power[n]


def test_diagram_json_round_trip():
    d = canonicalize([(3, 2), (1, 1), (1, 1)], 3, "-")
    obj = diagram_to_json(d)
    assert obj == {
        "modulus": 3,
        "sign": "-",
        "rows": [{"len": 3, "start": 2}, {"len": 1, "start": 1}, {"len": 1, "start": 1}],
    }
    assert diagram_from_json(obj) == d


def test_str_forms():
    assert str(empty_diagram(2)) == "empty"
    assert str(canonicalize([(1, 1), (2, 2), (1, 1)], 2, "-")) == "2_2 1_1^2"


def test_multiplicity_data_reconstructs_diagram():
    for k in (1, 2, 3):
        for size in range(5):
            for d in enumerate_by_size(k, "-", size):
                rebuilt = [
                    (length, start)
                    for length in d.parts
                    for start in range(1, k + 1)
                    for _ in range(d.multiplicities(length)[start - 1])
                ]
                assert canonicalize(rebuilt, k, "-") == d
