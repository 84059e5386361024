"""Sheaf-label catalogs, central-character bookkeeping and bijection checks.

A label's key couples a stratum with a character of the attached cyclic
group and a (multi)partition.  The catalog keys come directly from the
stratum enumeration; independently, every orbit-with-character pair is
mapped through the peeling construction, and `verify_bijection` compares the
two routes' keys.  The conjectural nilpotent-support, full-support and
cuspidal flags depend on the stratum alone: the catalogs and label maps add
them to the keys, and only their combinatorics is verified here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .diagrams import (
    FilledDiagram,
    MINUS,
    MultiPartition,
    check_integer,
    check_positive,
    dimension_vector,
    empty_diagram,
    iter_diagrams,
    multipartitions,
)
from .orbits import (
    GradingSpec,
    StratumAI,
    StratumII,
    admissible_for_case,
    component_group_order,
    d_check_stratum,
    enumerate_strata_ai,
    enumerate_strata_ii,
    full_support_stratum_ii,
    peel_ai,
    peel_ii,
    stratum_dim_ai,
)


def divisors(n: int) -> tuple[int, ...]:
    """Positive divisors of n, ascending; for n = 0 only 1 is reported (the
    zero grading carries just the trivial character)."""
    check_integer("n", n)
    if n < 0:
        raise ValueError("expected a nonnegative integer")
    if n == 0:
        return (1,)
    return tuple(k for k in range(1, n + 1) if n % k == 0)


@dataclass(frozen=True)
class CentralCharacter:
    """Residue `index` in Z/modulus, standing for a character of that exact
    additive order.  Modulus 0 encodes the trivial group."""

    modulus: int
    index: int

    def __post_init__(self):
        check_integer("modulus", self.modulus)
        check_integer("index", self.index)
        if self.modulus < 0:
            raise ValueError("modulus must be nonnegative")
        if self.modulus == 0:
            if self.index != 0:
                raise ValueError("the trivial group has index 0 only")
        elif not 0 <= self.index < self.modulus:
            raise ValueError(f"index {self.index} out of range [0, {self.modulus})")

    @property
    def order(self) -> int:
        if self.modulus == 0:
            return 1
        return self.modulus // gcd(self.index, self.modulus)


def exact_order_characters(modulus: int, order: int) -> list[CentralCharacter]:
    """All residues of exact additive order `order` in Z/modulus, ascending.

    Empty unless the order divides the modulus; the count is Euler phi of the
    order.
    """
    check_positive("order", order)
    check_integer("modulus", modulus)
    if modulus < 0:
        raise ValueError("modulus must be nonnegative")
    if modulus == 0:
        return [CentralCharacter(0, 0)] if order == 1 else []
    if modulus % order:
        return []
    step = modulus // order
    return [
        CentralCharacter(modulus, c)
        for c in range(modulus)
        if gcd(c, modulus) == step
    ]


@dataclass(frozen=True)
class SheafLabel:
    case: str  # "AI" or "II"
    stratum: StratumAI | StratumII
    psi: CentralCharacter
    tau: MultiPartition
    nilpotent_support: bool
    full_support: bool
    cuspidal_conjectural: bool


def orbital_complexes(grading: GradingSpec, a: int = 1):
    """All (orbit diagram, character) pairs on the negative side.

    For AI at order a the core generates the diagrams of parts divisible by
    a, each with every exact-order-a character of its component group.  For
    the type II cases the component groups are trivial and a is taken to be 1.
    """
    a = a if grading.case == "AI" else 1
    return [
        (lam, psi)
        for lam in iter_diagrams(grading.modulus, MINUS, grading.dims, case=grading.case, order=a)
        for psi in exact_order_characters(component_group_order(lam, grading), a)
    ]


def _is_cuspidal_ai(grading: GradingSpec, a: int, stratum: StratumAI) -> bool:
    m = grading.modulus
    total = grading.total
    if total == 0:
        return False
    if total % m:
        return a == total and stratum.rank == 0 and stratum.mu.partition == (total,)
    if any(v != total // m for v in grading.dims):
        return False
    d = gcd(a, m)
    return (
        stratum.mu.is_empty
        and a * m == d * total
        and gcd(total // m, m // d) == 1
    )


def _flags_ai(grading: GradingSpec, a: int, stratum: StratumAI):
    nilp = stratum.rank == 0
    full = stratum_dim_ai(stratum, grading) == grading.dim_g1
    return nilp, full, _is_cuspidal_ai(grading, a, stratum)


def _flags(grading: GradingSpec):
    """The label family and the map from a stratum to its conjectural
    nilpotent-support, full-support and cuspidal flags."""
    if grading.case == "AI":
        return "AI", lambda stratum: _flags_ai(grading, stratum.a, stratum)
    full = full_support_stratum_ii(grading)
    return "II", lambda stratum: (stratum.rank == 0, stratum == full, False)


def _strata(grading: GradingSpec, a: int) -> list:
    """The strata the labels at order a lie on.  The zero AI grading carries
    just the trivial character, so it has none at a > 1."""
    if grading.case != "AI":
        return enumerate_strata_ii(grading)
    strata = enumerate_strata_ai(grading, a)
    return [] if grading.total == 0 and a > 1 else strata


def _keys(grading: GradingSpec, stratum) -> list[tuple]:
    """The (stratum, character, tau) keys of one stratum: every exact-order-a
    character of its cyclic group with every multipartition of its braid
    rank into gcd(a, m) components, a the stratum's order.  A type II
    stratum is the one-class case: the trivial character with each
    multipartition of its braid rank into one component."""
    if grading.case == "AI":
        chars = exact_order_characters(stratum.d_check, stratum.a)
        classes = gcd(stratum.a, grading.modulus)
    else:
        chars, classes = [CentralCharacter(1, 0)], 1
    return [(stratum, psi, tau) for psi in chars for tau in multipartitions(classes, stratum.rank)]


def _labels(grading: GradingSpec, strata) -> list[SheafLabel]:
    """The strata's keys, each with its stratum's flags, computed once."""
    family, flags = _flags(grading)
    labels = []
    for stratum in strata:
        flag = flags(stratum)
        labels += [SheafLabel(family, *key, *flag) for key in _keys(grading, stratum)]
    return labels


def catalog_ai(grading: GradingSpec, a: int) -> list[SheafLabel]:
    """The full AI label catalog at order a: the labels of every stratum."""
    if grading.case != "AI":
        raise ValueError("catalog_ai requires case AI")
    return _labels(grading, _strata(grading, a))


def catalog_ii(grading: GradingSpec) -> list[SheafLabel]:
    """The type II label catalog: every stratum paired with every partition
    of its braid rank; characters are trivial."""
    return _labels(grading, enumerate_strata_ii(grading))


def _image(grading: GradingSpec, a: int, lam: FilledDiagram, psi: CentralCharacter) -> tuple:
    """The (stratum, character, tau) key of the orbital complex (lam, psi) at
    order a under the peeling bijection.  An AI character is transported to
    the stratum's cyclic group by matching positions in the canonical
    ascending enumerations of exact-order-a residues on both sides; a type
    II key has the trivial character."""
    if grading.case != "AI":
        peel = peel_ii(lam)
        return StratumII(peel.rank, peel.residue), CentralCharacter(1, 0), (peel.nu,)
    n = lam.part_gcd
    if psi.modulus != n or psi.order != a:
        raise ValueError("character is not an exact-order-a character of this orbit")
    peel = peel_ai(lam, a)
    stratum = StratumAI(a, peel.rank, peel.residue, d_check_stratum(a, peel.residue))
    # the exact-order-a residues of Z/n are (n/a)*u, u a unit mod a, ascending
    unit = psi.index // (n // a) if n else 0
    return stratum, CentralCharacter(stratum.d_check, stratum.d_check // a * unit), peel.tau


def _label(grading: GradingSpec, key: tuple) -> SheafLabel:
    """The label of one key: the key with its stratum's flags."""
    family, flags = _flags(grading)
    return SheafLabel(family, *key, *flags(key[0]))


def map_sheaf_ai(lam: FilledDiagram, psi: CentralCharacter, a: int, grading: GradingSpec) -> SheafLabel:
    """Image of an AI orbital complex under the peeling bijection: its key
    with its stratum's flags.  The grading must be case AI, and the diagram
    a '-' diagram with its box counts."""
    if grading.case != "AI":
        raise ValueError(f"map_sheaf_ai maps case AI only, got case {grading.case}")
    _check_orbit(lam, grading)
    return _label(grading, _image(grading, a, lam, psi))


def _check_orbit(lam: FilledDiagram, grading: GradingSpec) -> None:
    """Reject a diagram that labels no orbit of the grading's negative side:
    a '+' diagram, or one of another modulus or other box counts."""
    if lam.sign != MINUS:
        raise ValueError(f"orbit diagrams have sign '-', got {lam.sign!r}")
    if dimension_vector(lam) != grading.dims:
        raise ValueError("diagram box counts do not match the grading")


def map_sheaf_ii(lam: FilledDiagram, grading: GradingSpec) -> SheafLabel:
    """Image of a type II orbit under the peeling bijection: its key with
    its stratum's flags."""
    if grading.case == "AI":
        raise ValueError("map_sheaf_ii maps the type II cases only, got case AI")
    if not admissible_for_case(lam, grading.case):
        raise ValueError("diagram is not admissible for this grading")
    _check_orbit(lam, grading)
    return _label(grading, _image(grading, 1, lam, None))


@dataclass(frozen=True)
class BijectionReport:
    case: str
    a: int
    complexes: int
    labels: int
    counts_equal: bool
    injective: bool
    surjective: bool

    @property
    def ok(self) -> bool:
        return self.counts_equal and self.injective and self.surjective


def verify_bijection(grading: GradingSpec, a: int = 1) -> BijectionReport:
    """Compare the two label routes on (stratum, character, tau) keys: the
    orbital complexes mapped through the peeling construction against the
    keys of the enumerated strata.  The flags depend on the stratum alone,
    so no flag is computed.  A type II grading ignores the order, but it
    must still be valid."""
    check_positive("order", a)
    a = a if grading.case == "AI" else 1
    pairs = orbital_complexes(grading, a)
    image = [_image(grading, a, lam, psi) for lam, psi in pairs]
    keys = [key for stratum in _strata(grading, a) for key in _keys(grading, stratum)]
    distinct = set(image)
    return BijectionReport(grading.case, a, len(pairs), len(keys), len(pairs) == len(keys),
                           len(distinct) == len(image), distinct == set(keys))


def cuspidal_ai(grading: GradingSpec) -> list[SheafLabel]:
    """Conjectural cuspidal labels for case AI: the catalog's labels on the
    only strata the cuspidal flag can accept, where it does.  These are the
    single-row orbit at order N when the modulus m does not divide the total
    N, and otherwise the empty residue of braid rank 1 at each order d'*N/m
    for a divisor d' of m; no other stratum is visited."""
    if grading.case != "AI":
        raise ValueError("the cuspidal catalog is implemented for case AI")
    m = grading.modulus
    total = grading.total
    if total == 0:
        return []
    if total % m:
        # the canonical order puts a single-row diagram, if any, first
        candidates = [(total, 0, next(iter_diagrams(m, MINUS, grading.dims)))]
    else:
        candidates = [(d * total // m, 1, empty_diagram(m, MINUS)) for d in divisors(m)]
    strata = [StratumAI(a, rank, mu, d_check_stratum(a, mu)) for a, rank, mu in candidates]
    return _labels(grading, [s for s in strata if _is_cuspidal_ai(grading, s.a, s)])
