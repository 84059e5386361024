"""Sheaf-label catalogs, central-character bookkeeping and bijection checks.

A label's key couples a `Stratum` with a character of the attached cyclic
group and a (multi)partition.  Both families share the one record, the
one key rule and the entry points: a type II stratum sits at order 1 with
the trivial group Z/1, so its one character is trivial and its
multipartitions have one component.  The `catalog` keys come from the
stratum enumeration; independently, `map_sheaf` maps each orbital complex
through the peeling construction.  `verify_bijection` compares the two
routes on plain (stratum index, residue, tau) keys, with no record built
per stratum, character or key.  The conjectural nilpotent-support,
full-support and cuspidal flags depend on the stratum alone: `catalog` and
`map_sheaf` add them to the keys, and only their combinatorics is verified
here.
"""

from __future__ import annotations

from math import gcd

from .diagrams import (
    FilledDiagram,
    MINUS,
    MultiPartition,
    _Frozen,
    _fold,
    check_integer,
    check_positive,
    dimension_vector,
    empty_diagram,
    iter_diagrams,
    multipartitions,
)
from .orbits import (
    GradingSpec,
    Stratum,
    _fills,
    _label_order,
    _strata,
    admissible_for_case,
    component_group_order,
    d_check_stratum,
    enumerate_strata,
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


class CentralCharacter(_Frozen):
    """Residue `index` in Z/modulus, standing for a character of that exact
    additive order.  The trivial group is Z/1, with the one character 0."""

    __slots__ = ("modulus", "index")
    modulus: int
    index: int

    def __post_init__(self):
        check_positive("modulus", self.modulus)
        check_integer("index", self.index)
        if not 0 <= self.index < self.modulus:
            raise ValueError(f"index {self.index} out of range [0, {self.modulus})")

    @property
    def order(self) -> int:
        return self.modulus // gcd(self.index, self.modulus)


def exact_order_characters(modulus: int, order: int) -> list[CentralCharacter]:
    """All characters of exact additive order `order` of Z/modulus, by
    ascending residue (`_residues`): none unless the order divides the
    modulus, else Euler phi of the order.  Z/1 has the one character 0."""
    check_positive("order", order)
    check_positive("modulus", modulus)
    return [CentralCharacter(modulus, c) for c in _residues(modulus, order)]


def _residues(modulus: int, order: int) -> list[int]:
    """The one rule of `exact_order_characters`, as plain residues."""
    step, extra = divmod(modulus, order)
    return [c for c in range(modulus) if not extra and gcd(c, modulus) == step]


class SheafLabel(_Frozen):
    __slots__ = ("case", "stratum", "psi", "tau", "nilpotent_support", "full_support",
                 "cuspidal_conjectural")
    case: str  # "AI" or "II"
    stratum: Stratum
    psi: CentralCharacter
    tau: MultiPartition
    nilpotent_support: bool
    full_support: bool
    cuspidal_conjectural: bool


def orbital_complexes(grading: GradingSpec, a: int = 1):
    """All (orbit diagram, character) pairs on the negative side.

    For AI at order a the core generates the diagrams of parts divisible by
    a, each with every exact-order-a character of its component group.  For
    the type II cases the component groups are trivial and a is taken to be 1,
    so each diagram comes with the one character of Z/1, but the order must
    still be valid.
    """
    a = _label_order(grading, a)
    return [
        (lam, psi)
        for lam in iter_diagrams(grading.modulus, MINUS, grading.dims, case=grading.case, order=a)
        for psi in exact_order_characters(component_group_order(lam, grading), a)
    ]


def _is_cuspidal_ai(grading: GradingSpec, stratum: Stratum) -> bool:
    a, m = stratum.a, grading.modulus
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


def _flags_ai(grading: GradingSpec, stratum: Stratum):
    nilp = stratum.rank == 0
    full = stratum_dim_ai(stratum, grading) == grading.dim_g1
    return nilp, full, _is_cuspidal_ai(grading, stratum)


def _flags(grading: GradingSpec):
    """The label family and the map from a stratum to its conjectural
    nilpotent-support, full-support and cuspidal flags."""
    if grading.case == "AI":
        return "AI", lambda stratum: _flags_ai(grading, stratum)
    full = full_support_stratum_ii(grading)
    return "II", lambda stratum: (stratum.rank == 0, stratum == full, False)


def _pairs(grading: GradingSpec, a: int, rank: int, d_check: int) -> list[tuple]:
    """The (residue, tau) ends of the keys of a stratum at order a: every
    exact-order-a residue of its cyclic group Z/d_check with every
    multipartition of its braid rank into gcd(a, m) components.  A type II
    stratum is the one-class case: at order 1 on Z/1 that is the trivial
    residue 0 with each partition of its braid rank."""
    taus = multipartitions(gcd(a, grading.modulus), rank)
    return [(c, tau) for c in _residues(d_check, a) for tau in taus]


def _labels(grading: GradingSpec, strata) -> list[SheafLabel]:
    """The strata's (stratum, character, tau) keys, from their `_pairs`,
    each with its stratum's flags, computed once."""
    family, flags = _flags(grading)
    labels = []
    for s in strata:
        flag = flags(s)
        labels += [SheafLabel(family, s, CentralCharacter(s.d_check, c), tau, *flag)
                   for c, tau in _pairs(grading, s.a, s.rank, s.d_check)]
    return labels


def catalog(grading: GradingSpec, a: int = 1) -> list[SheafLabel]:
    """The full label catalog at order a (1 for type II): the labels of
    every stratum, each key with its stratum's flags."""
    return _labels(grading, enumerate_strata(grading, a))


def _image(grading: GradingSpec, a: int, lam: FilledDiagram, psi: CentralCharacter) -> tuple:
    """The (stratum, character, tau) key of the orbital complex (lam, psi) at
    order a under the peeling bijection.  The character is transported from
    the orbit's cyclic group to the stratum's by matching positions in the
    canonical ascending enumerations of exact-order-a residues on both
    sides; a type II orbit, at order 1 on Z/1, keeps the trivial one."""
    n = component_group_order(lam, grading)
    if psi.modulus != n or psi.order != a:
        raise ValueError("character is not an exact-order-a character of this orbit")
    if grading.case == "AI":
        peel = peel_ai(lam, a)
        d_check = d_check_stratum(a, peel.residue)
    else:
        peel, d_check = peel_ii(lam), 1
    psi = CentralCharacter(d_check, _moved(psi.index, n, a, d_check))
    return Stratum(a, peel.rank, peel.residue, d_check), psi, peel.tau


def _moved(index: int, n: int, a: int, d_check: int) -> int:
    """The exact-order-a residue of Z/d_check at the position of `index`
    among the exact-order-a residues of Z/n: the one moving rule."""
    # the exact-order-a residues of Z/n are (n/a)*u, u a unit mod a, ascending
    return d_check // a * (index // (n // a))


def map_sheaf(grading: GradingSpec, lam: FilledDiagram, psi: CentralCharacter, a: int = 1) -> SheafLabel:
    """Image of the orbital complex (lam, psi) at order a (1 for type II)
    under the peeling bijection: its key with its stratum's flags.  The
    diagram must be an admissible '-' diagram with the grading's box
    counts, and psi an exact-order-a character of its component group: for
    type II the trivial character CentralCharacter(1, 0) of Z/1."""
    a = _label_order(grading, a)
    if not admissible_for_case(lam, grading.case):
        raise ValueError("diagram is not admissible for this grading")
    if lam.sign != MINUS:
        raise ValueError(f"orbit diagrams have sign '-', got {lam.sign!r}")
    if dimension_vector(lam) != grading.dims:
        raise ValueError("diagram box counts do not match the grading")
    key = _image(grading, a, lam, psi)
    family, flags = _flags(grading)
    return SheafLabel(family, *key, *flags(key[0]))


class BijectionReport(_Frozen):
    __slots__ = ("case", "a", "complexes", "labels", "counts_equal", "injective", "surjective")
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
    """Compare the two label routes on plain (stratum index, residue, tau)
    keys: the orbital complexes mapped through the peeling construction
    against the keys of the enumerated strata (see `_route_keys`).  The
    flags depend on the stratum alone, so no flag is computed.  A type II
    grading ignores the order, but it must still be valid."""
    a = _label_order(grading, a)
    image, keys = _route_keys(grading, a)
    distinct = set(image)
    return BijectionReport(grading.case, a, len(image), len(keys), len(image) == len(keys),
                           len(distinct) == len(image), distinct == set(keys))


def _route_keys(grading: GradingSpec, a: int) -> tuple[list, list]:
    """The two routes' plain keys at order a (1 for type II), over one
    `_Fills`: the `_image_keys` of the orbital complexes, and each
    stratum's `_pairs`, made once per (rank, group order), after its index
    in `_strata`.  The strata are the distinguished walk of the fills the
    orbits are walked over, so both routes share its block records."""
    fills = _fills(grading, a)
    strata = _strata(grading, a, fills)
    pairs = {shape: _pairs(grading, a, *shape) for shape in {(r, d) for r, _, d in strata}}
    keys = [(i, c, tau) for i, (rank, _, d_check) in enumerate(strata)
            for c, tau in pairs[rank, d_check]]
    return _image_keys(grading, a, fills, strata), keys


def _image_keys(grading: GradingSpec, a: int, fills, strata) -> list[tuple]:
    """`_image` of every orbital complex at order a (1 for type II), in
    `orbital_complexes` order, as a plain key: the index of its stratum in
    `strata` (`_strata` triples), its moved residue and tau.  An orbit's
    walked block records fold to its part gcd, rank, tau and residual rows
    (`diagrams._fold`), and the rank and the residual fix its stratum.  A
    pair no stratum has gets a new index past every stratum's."""
    ai = grading.case == "AI"
    known = {(rank, rows): (i, d_check) for i, (rank, rows, d_check) in enumerate(strata)}
    fresh = len(strata)
    moved: dict = {}  # (orbit group order, d_check) -> the moved residues
    image = []
    for rows, blocks in fills.walk(grading.dims, grading.total):
        n, rank, tau, left = _fold(rows, blocks, fills.classes)
        hit = known.get((rank, left))
        if hit is None:
            mu = FilledDiagram(grading.modulus, MINUS, left)
            hit = known[rank, left] = (fresh, d_check_stratum(a, mu) if ai else 1)
            fresh += 1
        index, d_check = hit
        # the component group: Z/(part gcd) for AI (Z/1 when empty), Z/1 for type II
        n = (n or 1) if ai else 1
        target = (n, d_check)
        if target not in moved:
            moved[target] = [_moved(c, n, a, d_check) for c in _residues(n, a)]
        for c in moved[target]:
            image.append((index, c, tau))
    return image


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
    strata = [Stratum(a, rank, mu, d_check_stratum(a, mu)) for a, rank, mu in candidates]
    return _labels(grading, [s for s in strata if _is_cuspidal_ai(grading, s)])
