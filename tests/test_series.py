import json
import re
from math import gcd

import pytest

from gradedorbits import cli
from gradedorbits.diagrams import canonicalize, enumerate_by_size, partitions
from gradedorbits.orbits import (
    admissible_for_case,
    is_distinguished_ai,
    is_distinguished_ii,
)
from gradedorbits.series import (
    TruncSeries,
    gf_distinguished_ai,
    gf_distinguished_ii,
    gf_orbit_count,
    weight_count,
    weight_sum,
)

from conftest import series_geom_pow, series_mul, series_one

FAMILY_CASE = {"A": "AII", "C": "CII", "D": "DII"}


def family_modulus(base, l):
    return 2 * l + 1 if base == "A" else 2 * l


def enum_count(base, l, n, distinguished=False):
    modulus = family_modulus(base, l)
    case = FAMILY_CASE[base]
    count = 0
    for lam in enumerate_by_size(modulus, "-", 2 * n):
        if not admissible_for_case(lam, case):
            continue
        if distinguished and not is_distinguished_ii(lam):
            continue
        count += 1
    return count


def enum_count_dist_ai(m, a, n):
    """Diagrams of size n over Z/m that are distinguished at order a once
    every row length is multiplied by a."""
    count = 0
    for small in enumerate_by_size(m, "-", n):
        scaled = canonicalize([(length * a, start) for length, start in small.rows], m, "-")
        if is_distinguished_ai(scaled, a):
            count += 1
    return count


def cli_count_rows(tmp_path, *argv):
    target = tmp_path / "count.json"
    cli.main(["count", *argv, "--format", "json", "--output", str(target)])
    return json.loads(target.read_text())["rows"]


def cli_enum_counts(tmp_path, *argv):
    return [row["enum_count"] for row in cli_count_rows(tmp_path, *argv)]


# The count tables of the benchmark's count-tables workload at their deepest
# degrees: (family, l, n) and, for dist-AI, (m, n) at every order a <= 2m
# that m does not divide.
DEEPEST_II_TABLES = [
    (family, l, n)
    for family in ("A", "C", "D", "dist-A", "dist-C", "dist-D")
    for l, n in ((1, 6), (2, 5))
]
DEEPEST_DIST_AI_TABLES = [
    (m, a, n) for m, n in ((2, 9), (3, 9), (4, 7)) for a in range(1, 2 * m + 1) if a % m
]


@pytest.mark.parametrize("family,l,n_max", DEEPEST_II_TABLES)
def test_count_enum_column_matches_enumerate_then_filter(tmp_path, family, l, n_max):
    base = family.removeprefix("dist-")
    distinguished = family.startswith("dist-")
    expected = [enum_count(base, l, n, distinguished) for n in range(n_max + 1)]
    assert cli_enum_counts(tmp_path, "--family", family, "--l", str(l), "--n", str(n_max)) == expected


@pytest.mark.parametrize("m,a,n_max", DEEPEST_DIST_AI_TABLES)
def test_count_dist_ai_enum_column_matches_enumerate_then_filter(tmp_path, m, a, n_max):
    expected = [enum_count_dist_ai(m, a, n) for n in range(n_max + 1)]
    argv = ("--family", "dist-AI", "--m", str(m), "--a", str(a), "--n", str(n_max))
    assert cli_enum_counts(tmp_path, *argv) == expected


# Deeper tables, beyond the reach of the enumerate-then-filter references
# within the suite's time: the series coefficient, the weight sum and the
# enumeration column, counted by the dynamic program, agree on every row.
DEEP_TABLES = [
    ("--family", family, "--l", str(l), "--n", str(n))
    for family in ("A", "C", "D", "dist-A", "dist-C", "dist-D")
    for l, n in ((1, 9), (2, 8))
] + [("--family", "dist-AI", "--m", "3", "--a", str(a), "--n", "11") for a in (1, 2, 4, 5)]


@pytest.mark.parametrize("argv", DEEP_TABLES, ids=" ".join)
def test_deep_count_tables_agree_three_ways(tmp_path, argv):
    rows = cli_count_rows(tmp_path, *argv)
    assert [row["n"] for row in rows] == list(range(int(argv[-1]) + 1))
    for row in rows:
        assert row["gf_coeff"] == row["weight_sum"] == row["enum_count"], row
        assert row["match"] is True


def test_geom_pow_examples():
    assert series_geom_pow(1, 1, 3).coeffs == (1, 1, 1, 1)
    assert series_geom_pow(1, 2, 3).coeffs == (1, 2, 3, 4)
    assert series_geom_pow(2, 1, 5).coeffs == (1, 0, 1, 0, 1, 0)
    # negative exponent: the polynomial (1 - x)^2
    assert series_geom_pow(1, -2, 3).coeffs == (1, -2, 1, 0)
    assert series_geom_pow(1, 0, 2).coeffs == (1, 0, 0)


def test_series_mul_truncates_to_min():
    f = TruncSeries((1, 1))
    g = TruncSeries((1, 1, 7))
    assert series_mul(f, g).coeffs == (1, 2)


def test_series_mul_example():
    f = TruncSeries((1, 1, 0))
    assert series_mul(f, f).coeffs == (1, 2, 1)


def test_coefficient_bounds():
    s = series_one(2)
    assert s.coefficient(0) == 1
    with pytest.raises(ValueError):
        s.coefficient(3)


def test_gf_orbit_count_a_matches_partition_convolution():
    # independent oracle: the coefficients for the A family at l=1 are the
    # convolution of the partition numbers with themselves
    n_max = 6
    p = [len(partitions(j)) for j in range(n_max + 1)]
    series = gf_orbit_count("A", 1, n_max)
    for n in range(n_max + 1):
        assert series.coefficient(n) == sum(p[i] * p[n - i] for i in range(n + 1))
    assert series.coeffs == (1, 2, 5, 10, 20, 36, 65)


def test_gf_orbit_count_anchors():
    assert gf_orbit_count("C", 1, 1).coefficient(1) == 2
    for case in "ACD":
        for l in (1, 2):
            assert gf_orbit_count(case, l, 0).coefficient(0) == 1
            assert gf_distinguished_ii(case, l, 0).coefficient(0) == 1


def test_gf_requires_positive_l():
    with pytest.raises(ValueError):
        gf_orbit_count("A", 0, 3)
    with pytest.raises(ValueError):
        gf_distinguished_ii("C", 0, 3)


def test_weight_count_examples():
    assert weight_count((1,), "A", l=1) == 2
    assert weight_count((1,), "C", l=1) == 2
    assert weight_count((), "A", l=1) == 1
    assert weight_count((), "dist-AI", m=2, a=1) == 1
    # even part of the C family uses the smaller binomial
    assert weight_count((2,), "C", l=1) == 1
    assert weight_count((1,), "D", l=1) == 1


def test_weight_sums_match_gf_coefficients():
    n_max = 5
    for base in "ACD":
        for l in (1, 2):
            plain = gf_orbit_count(base, l, n_max)
            dist = gf_distinguished_ii(base, l, n_max)
            for n in range(n_max + 1):
                assert plain.coefficient(n) == sum(
                    weight_count(mu, base, l=l) for mu in partitions(n)
                )
                assert dist.coefficient(n) == sum(
                    weight_count(mu, f"dist-{base}", l=l) for mu in partitions(n)
                )
    for m, a in ((2, 1), (3, 1), (4, 2), (6, 2), (6, 3)):
        series = gf_distinguished_ai(m, a, n_max)
        for n in range(n_max + 1):
            assert series.coefficient(n) == sum(
                weight_count(mu, "dist-AI", m=m, a=a) for mu in partitions(n)
            )


@pytest.mark.parametrize(
    "family,params",
    [(f, {"l": l}) for f in ("A", "C", "D", "dist-A", "dist-C", "dist-D") for l in (1, 2, 3)]
    + [("dist-AI", {"m": m, "a": a}) for m, a in ((2, 1), (3, 1), (3, 2), (4, 2), (6, 2), (6, 3))],
)
def test_weight_sum_matches_summed_weight_counts(family, params):
    for n in range(13):
        assert weight_sum(n, family, **params) == sum(
            weight_count(mu, family, **params) for mu in partitions(n)
        )


def test_weight_sum_rejects_bad_arguments():
    for n, family, params in (
        (-1, "A", {"l": 1}),
        (3, "B", {"l": 1}),
        (3, "C", {"l": 0}),
        (3, "dist-AI", {"m": 3}),
        (3, "dist-AI", {"m": 3, "a": 3}),
    ):
        with pytest.raises(ValueError):
            weight_sum(n, family, **params)


def test_three_way_agreement_small():
    for base in "ACD":
        gf = gf_orbit_count(base, 1, 3)
        gfd = gf_distinguished_ii(base, 1, 3)
        for n in range(4):
            assert gf.coefficient(n) == enum_count(base, 1, n)
            assert gfd.coefficient(n) == enum_count(base, 1, n, distinguished=True)


def test_gf_distinguished_ai_examples():
    assert gf_distinguished_ai(2, 1, 6).coeffs == (1, 2, 4, 8, 14, 24, 40)
    assert gf_distinguished_ai(3, 1, 1).coefficient(1) == 3
    with pytest.raises(ValueError):
        gf_distinguished_ai(2, 2, 3)
    with pytest.raises(ValueError):
        gf_distinguished_ai(1, 1, 3)


@pytest.mark.parametrize(
    "m, a, message",
    [
        (3, 2.0, "order must be an integer, got 2.0"),
        (3, 0, "order must be >= 1"),
        (2.0, 1, "modulus must be an integer, got 2.0"),
        (0, 1, "modulus must be >= 1, got 0"),
    ],
)
def test_gf_distinguished_ai_rejects_bad_modulus_and_order(m, a, message):
    with pytest.raises(ValueError, match=message):
        gf_distinguished_ai(m, a, 4)


@pytest.mark.parametrize(
    "call, message",
    [
        # the truncation degree, checked by every generating function
        (lambda: gf_orbit_count("A", 1, -1), "n_max must be >= 0, got -1"),
        (lambda: gf_distinguished_ai(2, 1, -1), "n_max must be >= 0, got -1"),
        (lambda: gf_distinguished_ii("D", 1, -2), "n_max must be >= 0, got -2"),
        (lambda: gf_orbit_count("C", 1, 2.0), "n_max must be an integer, got 2.0"),
        # l, by the series and the weights alike
        (lambda: gf_orbit_count("A", 1.5, 3), "l must be an integer, got 1.5"),
        (lambda: gf_orbit_count("A", 0, 3), "l must be >= 1, got 0"),
        (lambda: weight_sum(3, "A", l=1.5), "l must be an integer, got 1.5"),
        (lambda: weight_count((2, 1), "dist-C", l=0), "l must be >= 1, got 0"),
        # the dist-AI modulus and order, by the series and the weights alike
        (lambda: weight_sum(3, "dist-AI", m=0, a=1), "modulus must be >= 1, got 0"),
        (lambda: weight_sum(3, "dist-AI", m=3, a=0), "order must be >= 1, got 0"),
        (lambda: weight_count((1,), "dist-AI", m=3, a=1.5), "order must be an integer, got 1.5"),
        (lambda: weight_sum(2.5, "A", l=1), "n must be an integer, got 2.5"),
    ],
)
def test_series_inputs_are_checked_up_front(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def expanded_product(factors, n_max):
    """The reference for the stride product: every factor
    (1 - x^(step k))^(-e) expanded in full and convolved in."""
    s = series_one(n_max)
    for k in range(1, n_max + 1):
        for step, e in factors:
            s = series_mul(s, series_geom_pow(step * k, e, n_max))
    return s


# Every generating function with its factors (1 - x^(step k))^(-e) as
# (step, e) pairs: A, C and D at l <= 3, plain and distinguished (times
# 1 - x^(modulus k)), and dist-AI at m <= 6 for every order a <= 2m with
# gcd(a, m) < m.
STRIDE_PRODUCTS = [
    (gf, (base, l), factors + extra)
    for l in (1, 2, 3)
    for base, modulus, factors in (
        ("A", 2 * l + 1, ((1, l + 1),)),
        ("C", 2 * l, ((2, -1), (1, l + 1))),
        ("D", 2 * l, ((1, l), (2, 1))),
    )
    for gf, extra in ((gf_orbit_count, ()), (gf_distinguished_ii, ((modulus, -1),)))
] + [
    (gf_distinguished_ai, (m, a), ((1, m), (m // gcd(a, m), -gcd(a, m))))
    for m in range(1, 7)
    for a in range(1, 2 * m + 1)
    if gcd(a, m) < m
]


@pytest.mark.parametrize(
    "gf,params,factors", STRIDE_PRODUCTS, ids=lambda v: v.__name__ if callable(v) else str(v)
)
def test_stride_product_matches_expand_and_convolve(gf, params, factors):
    assert gf(*params, 40) == expanded_product(factors, 40)


def test_algebraic_identity_to_degree_20():
    n_max = 20
    lhs = series_one(n_max)
    rhs = series_one(n_max)
    for k in range(1, n_max + 1):
        lhs = series_mul(lhs, series_geom_pow(2 * k, -1, n_max))
        lhs = series_mul(lhs, series_geom_pow(k, 2, n_max))
        # (1 + x^k) = 1 + x^k exactly
        one_plus = [0] * (n_max + 1)
        one_plus[0] = 1
        if k <= n_max:
            one_plus[k] = 1
        rhs = series_mul(rhs, TruncSeries(tuple(one_plus)))
        rhs = series_mul(rhs, series_geom_pow(k, 1, n_max))
    assert lhs.coeffs == rhs.coeffs


def test_all_coefficients_nonnegative():
    n_max = 12
    for base in "ACD":
        for l in (1, 2):
            assert all(c >= 0 for c in gf_orbit_count(base, l, n_max).coeffs)
            assert all(c >= 0 for c in gf_distinguished_ii(base, l, n_max).coeffs)
    for m, a in ((2, 1), (3, 1), (4, 2), (6, 2)):
        assert all(c >= 0 for c in gf_distinguished_ai(m, a, n_max).coeffs)
