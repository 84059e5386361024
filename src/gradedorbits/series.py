"""The orbit-counting generating functions and their partition weights.

Each generating function is an infinite product over k >= 1 of factors
(1 - x^(step k))^(-e), cut at the truncation degree, which leaves every
retained coefficient exact.  The product is formed by stride updates of one
integer coefficient list, and each series comes back as the tuple of its
coefficients of degrees 0..n_max.

The partition weights are multiplicative: `mult` parts of length `part`
weigh the coefficient of t^mult in (1 - t^gap)^d / (1 - t)^v.  A, C, D have
d = 0 and v = l + 1 for every A part, odd C part and even D part, else l;
dist-A/C/D the same v, d = 1 and gap the modulus (`family_modulus`); dist-AI
v = m, d = gcd(a, m) and gap = m / d.
"""

from __future__ import annotations

from collections import Counter
from math import comb, gcd
from typing import Sequence

from .diagrams import check_integer, check_positive

ORBIT_FAMILIES = ("A", "C", "D")
DIST_FAMILIES = ("dist-A", "dist-C", "dist-D")
COUNT_FAMILIES = ORBIT_FAMILIES + DIST_FAMILIES + ("dist-AI",)


def _family_factors(case: str, l: int) -> tuple[tuple[int, int], ...]:
    """(step, e) pairs whose factors (1 - x^(step k))^(-e) multiply to the
    family's factor at k: (1 - x^k)^(-(l+1)) for A, (1 + x^k)(1 - x^k)^(-l)
    = (1 - x^2k)(1 - x^k)^(-(l+1)) for C, and (1 - x^k)^(-(l+1))(1 + x^k)^(-1)
    = (1 - x^k)^(-l)(1 - x^2k)^(-1) for D."""
    if case not in ORBIT_FAMILIES:
        raise ValueError(f"family must be one of {ORBIT_FAMILIES}, got {case!r}")
    check_positive("l", l)
    if case == "A":
        return ((1, l + 1),)
    if case == "C":
        return ((2, -1), (1, l + 1))
    return ((1, l), (2, 1))


def _product(factors, n_max: int) -> tuple[int, ...]:
    """The product over k = 1..n_max of (1 - x^(step k))^(-e) over the
    (step, e) factors, truncated at degree n_max, by |e| in-place passes of
    stride step*k per factor: dividing by 1 - x^(step k) is a running sum,
    multiplying by it a running difference taken from the top down."""
    check_integer("n_max", n_max)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    c = [1] + [0] * n_max
    for k in range(1, n_max + 1):
        for step, e in factors:
            j = step * k
            for _ in range(abs(e)):
                if e > 0:
                    for i in range(j, n_max + 1):
                        c[i] += c[i - j]
                else:
                    for i in range(n_max, j - 1, -1):
                        c[i] -= c[i - j]
    return tuple(c)


def family_modulus(case: str, l: int) -> int:
    """The modulus of a family's gradings: 2l+1 for A, 2l for C and D."""
    return 2 * l + 1 if case == "A" else 2 * l


def gf_orbit_count(case: str, l: int, n_max: int) -> tuple[int, ...]:
    """Coefficients 0..n_max of the series whose n-th counts the admissible
    diagrams with 2n boxes for the family, over its modulus (`family_modulus`)."""
    return _product(_family_factors(case, l), n_max)


def gf_distinguished_ai(m: int, a: int, n_max: int) -> tuple[int, ...]:
    """Coefficients 0..n_max of the series whose j-th counts the AI diagrams
    of size a*j that are distinguished at order a (modulus m).  Undefined when
    gcd(a, m) = m."""
    _check_ai_family(m, a)
    d = gcd(a, m)
    return _product(((1, m), (m // d, -d)), n_max)


def _check_ai_family(m: int, a: int) -> None:
    """Reject a modulus or an order below 1, or an (m, a) whose family of
    distinguished AI diagrams is empty."""
    check_positive("modulus", m)
    check_positive("order", a)
    if gcd(a, m) == m:
        raise ValueError("family is empty when gcd(a, m) equals the modulus")


def gf_distinguished_ii(case: str, l: int, n_max: int) -> tuple[int, ...]:
    """Coefficients 0..n_max of the series whose n-th counts the admissible
    distinguished diagrams with 2n boxes for the family: the orbit count times
    (1 - x^(modulus k)) at every k."""
    return _product(_family_factors(case, l) + ((family_modulus(case, l), -1),), n_max)


def _check_weight_family(family, l, m, a) -> None:
    if family not in COUNT_FAMILIES:
        raise ValueError(f"family must be one of {COUNT_FAMILIES}, got {family!r}")
    if family == "dist-AI":
        if m is None or a is None:
            raise ValueError("family dist-AI needs the modulus m and order a")
        _check_ai_family(m, a)
    elif l is None:
        raise ValueError(f"family {family} needs a parameter l >= 1")
    else:
        _family_factors(family.removeprefix("dist-"), l)  # checks l


def weight_count(mu: Sequence[int], family: str, *, l=None, m=None, a=None) -> int:
    """Multiplicative weight of a partition for one of the counting families.

    Summed over all partitions of n, the weights reproduce the corresponding
    generating-function coefficient at degree n.  Families A/C/D take the
    parameter l; dist-A/C/D likewise; dist-AI takes the modulus m and order a.
    """
    _check_weight_family(family, l, m, a)
    parts = tuple(mu)
    for p in parts:
        check_integer("partition part", p)
        if p < 1:
            raise ValueError("partition parts must be positive")
    total = 1
    for part, mult in sorted(Counter(parts).items()):
        total *= _part_weights(family, part, (mult,), l, m, a)[0]
    return total


def weight_sums(n_max: int, family: str, *, l=None, m=None, a=None) -> list[int]:
    """The sums of `weight_count` over the partitions of each n = 0..n_max,
    listing none, from one pass that serves a whole table: over parts <= p
    the sum at n is, summed over the multiplicity k of p, the weight of
    (p, k) times the sum over parts < p at n - k p."""
    _check_weight_family(family, l, m, a)
    check_integer("n", n_max)
    if n_max < 0:
        raise ValueError("n must be nonnegative")
    sums = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        weights = _part_weights(family, part, range(1, n_max // part + 1), l, m, a)
        # boxes from the top down, so sums[b - k * part] still excludes part
        for b in range(n_max, part - 1, -1):
            sums[b] += sum(w * sums[b - k * part] for k, w in enumerate(weights[: b // part], 1))
    return sums


def _part_weights(family, part, mults, l, m, a) -> list[int]:
    """The weight of k parts of length `part` (the module's formula) for each
    k in `mults`, by inclusion-exclusion over the d forced blocks of gap; v, d
    and gap are derived once for the part."""
    if family == "dist-AI":
        v, d, gap = m, gcd(a, m), m // gcd(a, m)
    else:
        case = family.removeprefix("dist-")
        # l + 1 variables for an A part, an odd C part and an even D part;
        # kept apart from `_family_factors`, so the two columns check each other
        v = l + (case == "A" or part % 2 == (case == "C"))
        d, gap = int(family != case), family_modulus(case, l)
    weights = []
    for mult in mults:
        total = 0
        for i in range(min(d, mult // gap) + 1):
            total += (-1) ** i * comb(d, i) * comb(mult - i * gap + v - 1, v - 1)
        weights.append(total)
    return weights
