"""Sheaf-label catalogs, central-character bookkeeping and bijection checks.

A label couples a stratum with a character of the attached cyclic group and a
(multi)partition.  Catalogs are produced directly from the stratum
enumeration; independently, every orbit-with-character pair is mapped through
the peeling construction, and `verify_bijection` compares the two routes.

Conjectural outputs (the nilpotent-support and cuspidal flags) are marked as
such on the labels; only their combinatorics is verified here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .diagrams import (
    FilledDiagram,
    MINUS,
    MultiPartition,
    check_positive,
    dimension_vector,
    empty_diagram,
    iter_diagrams,
    multipartitions,
    partitions,
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


def _labels_ai(grading: GradingSpec, a: int, stratum: StratumAI) -> list[SheafLabel]:
    """The catalog's labels on one stratum at order a: every exact-order-a
    character of its cyclic group with every multipartition of its braid
    rank into gcd(a, m) components."""
    nilp, full, cusp = _flags_ai(grading, a, stratum)
    return [
        SheafLabel("AI", stratum, psi, tau, nilp, full, cusp)
        for psi in exact_order_characters(stratum.d_check, a)
        for tau in multipartitions(gcd(a, grading.modulus), stratum.rank)
    ]


def catalog_ai(grading: GradingSpec, a: int) -> list[SheafLabel]:
    """The full AI label catalog at order a: the labels of every stratum.
    The zero grading carries just the trivial character, so it has no label
    at a > 1."""
    if grading.case != "AI":
        raise ValueError("catalog_ai requires case AI")
    strata = enumerate_strata_ai(grading, a)
    if grading.total == 0 and a > 1:
        return []
    return [lab for stratum in strata for lab in _labels_ai(grading, a, stratum)]


def catalog_ii(grading: GradingSpec) -> list[SheafLabel]:
    """The type II label catalog: every stratum paired with every partition
    of its braid rank; characters are trivial."""
    full_stratum = full_support_stratum_ii(grading)
    trivial = CentralCharacter(1, 0)
    labels = []
    for stratum in enumerate_strata_ii(grading):
        nilp = stratum.rank == 0
        full = stratum == full_stratum
        for rho in partitions(stratum.rank):
            labels.append(SheafLabel("II", stratum, trivial, (rho,), nilp, full, False))
    return labels


def map_sheaf_ai(lam: FilledDiagram, psi: CentralCharacter, a: int, grading: GradingSpec) -> SheafLabel:
    """Image of an AI orbital complex under the peeling bijection.

    The character is transported to the stratum's cyclic group by matching
    positions in the canonical ascending enumerations of exact-order-a
    residues on both sides.  The grading must be case AI, and the diagram a
    '-' diagram with its box counts.
    """
    if grading.case != "AI":
        raise ValueError(f"map_sheaf_ai maps case AI only, got case {grading.case}")
    _check_orbit(lam, grading)
    return _map_sheaf_ai(lam, psi, a, grading, {})


def _check_orbit(lam: FilledDiagram, grading: GradingSpec) -> None:
    """Reject a diagram that labels no orbit of the grading's negative side:
    a '+' diagram, or one of another modulus or other box counts."""
    if lam.sign != MINUS:
        raise ValueError(f"orbit diagrams have sign '-', got {lam.sign!r}")
    if dimension_vector(lam) != grading.dims:
        raise ValueError("diagram box counts do not match the grading")


def _map_sheaf_ai(lam, psi, a, grading, flags: dict) -> SheafLabel:
    """`map_sheaf_ai`, computing a stratum's flags only if `flags` lacks it."""
    n = lam.part_gcd
    if psi.modulus != n or psi.order != a:
        raise ValueError("character is not an exact-order-a character of this orbit")
    peel = peel_ai(lam, a)
    stratum = StratumAI(a, peel.rank, peel.residue, d_check_stratum(a, peel.residue))
    # the exact-order-a residues of Z/n are (n/a)*u, u a unit mod a, ascending
    unit = psi.index // (n // a) if n else 0
    moved = CentralCharacter(stratum.d_check, stratum.d_check // a * unit)
    if stratum not in flags:
        flags[stratum] = _flags_ai(grading, a, stratum)
    return SheafLabel("AI", stratum, moved, peel.tau, *flags[stratum])


def map_sheaf_ii(lam: FilledDiagram, grading: GradingSpec) -> SheafLabel:
    """Image of a type II orbit under the peeling bijection."""
    if grading.case == "AI":
        raise ValueError("map_sheaf_ii maps the type II cases only, got case AI")
    if not admissible_for_case(lam, grading.case):
        raise ValueError("diagram is not admissible for this grading")
    _check_orbit(lam, grading)
    return _map_sheaf_ii(lam, full_support_stratum_ii(grading))


def _map_sheaf_ii(lam, full: StratumII) -> SheafLabel:
    """`map_sheaf_ii`, unchecked, given the grading's full-support stratum."""
    peel = peel_ii(lam)
    stratum = StratumII(peel.rank, peel.residue)
    trivial = CentralCharacter(1, 0)
    return SheafLabel("II", stratum, trivial, (peel.nu,), stratum.rank == 0, stratum == full, False)


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
    """Compare the two label routes: orbital complexes mapped through the
    peeling construction against the directly enumerated catalog, whose AI
    flags the image labels reuse, so each stratum's flags are computed once.
    A type II grading ignores the order, but it must still be valid."""
    check_positive("order", a)
    if grading.case == "AI":
        catalog = catalog_ai(grading, a)
        flags = {
            lab.stratum: (lab.nilpotent_support, lab.full_support, lab.cuspidal_conjectural)
            for lab in catalog
        }
        pairs = orbital_complexes(grading, a)
        image = [_map_sheaf_ai(lam, psi, a, grading, flags) for lam, psi in pairs]
    else:
        pairs = orbital_complexes(grading)
        # the stream's orbits are admissible '-' diagrams of the grading
        full = full_support_stratum_ii(grading)
        image = [_map_sheaf_ii(lam, full) for lam, _ in pairs]
        catalog = catalog_ii(grading)
    distinct = set(image)
    return BijectionReport(
        grading.case,
        a if grading.case == "AI" else 1,
        len(pairs),
        len(catalog),
        len(pairs) == len(catalog),
        len(distinct) == len(image),
        distinct == set(catalog),
    )


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
    return [
        lab
        for stratum in strata
        if _is_cuspidal_ai(grading, stratum.a, stratum)
        for lab in _labels_ai(grading, stratum.a, stratum)
    ]
