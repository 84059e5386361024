"""Sheaf-label catalogs, central-character bookkeeping and bijection checks.

A label's key couples a `Stratum` with a character of the attached cyclic
group and a (multi)partition.  Both families share the one record, the
one key rule and the entry points: a type II stratum sits at order 1 with
the trivial group Z/1, so its one character is trivial and its
multipartitions have one component.  The `catalog` keys come from the
stratum enumeration; independently, `map_sheaf` maps each orbital complex
through the peeling construction, and `verify_bijection` compares the two
routes' keys.  The conjectural nilpotent-support, full-support and
cuspidal flags depend on the stratum alone: `catalog` and `map_sheaf` add
them to the keys, and only their combinatorics is verified here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import add

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
    Stratum,
    _fills,
    _label_order,
    _peel_length,
    _peeled,
    _strata as _orbit_strata,
    admissible_for_case,
    component_group_order,
    d_check_stratum,
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
    additive order.  The trivial group is Z/1, with the one character 0."""

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
    """All residues of exact additive order `order` in Z/modulus, ascending.

    Empty unless the order divides the modulus; the count is Euler phi of the
    order.  The trivial group Z/1 has the one character 0, of order 1.
    """
    check_positive("order", order)
    check_positive("modulus", modulus)
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


def _is_cuspidal_ai(grading: GradingSpec, a: int, stratum: Stratum) -> bool:
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


def _flags_ai(grading: GradingSpec, a: int, stratum: Stratum):
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


def _strata(grading: GradingSpec, a: int, fills) -> list:
    """The strata the labels at order a (1 for type II) lie on, their
    residuals walked over `fills`, the grading's fills at a.  The zero AI
    grading carries just the trivial character, so it has none at a > 1."""
    strata = _orbit_strata(grading, a, fills)
    return [] if grading.total == 0 and a > 1 else strata


def _keys(grading: GradingSpec, stratum: Stratum) -> list[tuple]:
    """The (stratum, character, tau) keys of one stratum: every exact-order-a
    character of its cyclic group with every multipartition of its braid
    rank into gcd(a, m) components, a the stratum's order.  A type II
    stratum is the one-class case: at order 1 on Z/1 that is the trivial
    character with each partition of its braid rank."""
    chars = exact_order_characters(stratum.d_check, stratum.a)
    classes = gcd(stratum.a, grading.modulus)
    return [(stratum, psi, tau) for psi in chars for tau in multipartitions(classes, stratum.rank)]


def _labels(grading: GradingSpec, strata) -> list[SheafLabel]:
    """The strata's keys, each with its stratum's flags, computed once."""
    family, flags = _flags(grading)
    labels = []
    for stratum in strata:
        flag = flags(stratum)
        labels += [SheafLabel(family, *key, *flag) for key in _keys(grading, stratum)]
    return labels


def catalog(grading: GradingSpec, a: int = 1) -> list[SheafLabel]:
    """The full label catalog at order a (1 for type II): the labels of
    every stratum, each key with its stratum's flags."""
    a = _label_order(grading, a)
    return _labels(grading, _strata(grading, a, _fills(grading, a)))


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
    stratum = Stratum(a, peel.rank, peel.residue, d_check)
    return stratum, _moved(psi, a, d_check), peel.tau


def _moved(psi: CentralCharacter, a: int, d_check: int) -> CentralCharacter:
    """The exact-order-a character of Z/d_check at psi's position among the
    exact-order-a characters of its own group."""
    # the exact-order-a residues of Z/n are (n/a)*u, u a unit mod a, ascending
    unit = psi.index // (psi.modulus // a)
    return CentralCharacter(d_check, d_check // a * unit)


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
    keys of the enumerated strata (see `_route_keys`).  The flags depend on
    the stratum alone, so no flag is computed.  A type II grading ignores
    the order, but it must still be valid."""
    a = _label_order(grading, a)
    image, keys = _route_keys(grading, a)
    distinct = set(image)
    return BijectionReport(grading.case, a, len(image), len(keys), len(image) == len(keys),
                           len(distinct) == len(image), distinct == set(keys))


def _route_keys(grading: GradingSpec, a: int) -> tuple[list, list]:
    """The two routes' keys at order a (1 for type II), over one `_Fills`:
    the `_image` of every orbital complex, in `orbital_complexes` order, and
    the `_keys` of every stratum, in `_strata` order.  The strata's
    residuals are the distinguished walk of the fills the orbits are
    walked over, so both routes share its block fills.  The character and
    multipartition lists are made once per (group order, rank)."""
    fills = _fills(grading, a)
    strata = _strata(grading, a, fills)
    pairs: dict = {}
    keys = []
    for stratum in strata:
        shape = (stratum.d_check, stratum.rank)
        if shape not in pairs:
            pairs[shape] = [key[1:] for key in _keys(grading, stratum)]
        keys += [(stratum, psi, tau) for psi, tau in pairs[shape]]
    return _image_keys(grading, a, fills, strata), keys


def _image_keys(grading: GradingSpec, a: int, fills, strata) -> list[tuple]:
    """`_image` of every orbital complex at order a (1 for type II), from
    the walk of `fills` over the grading's box counts.  An orbit comes as
    its length blocks: each block fill is peeled once (`_peel_length`), and
    the orbit's part gcd is that of its block lengths.  Its stratum is
    looked up by the orbit's own rank and residual rows among `strata`: at
    order a those two fix a record, as d_check is a function of the
    residual.  A pair no record has gets its own record, made once from the
    joined pieces (`_peeled`).  So equal strata are one object, and the
    routes' keys compare by identity.  The moved characters are made once
    per pair of group orders."""
    ai = grading.case == "AI"
    m, classes, per = grading.modulus, gcd(a, grading.modulus), 1 if ai else 2
    records = {(s.rank, s.mu.rows): s for s in strata}
    pieces: dict = {}  # a block's rows -> its length, peel piece and rank
    moved: dict = {}  # (orbit group order, d_check) -> the moved characters
    image = []
    for blocks in fills.walk(grading.dims, grading.total):
        n = rank = 0
        tau, left = ((),) * classes, ()
        for rows, counts in blocks:
            piece = pieces.get(rows)
            if piece is None:
                parts, rest = _peel_length(rows[0][0], counts, a, per)
                piece = pieces[rows] = (rows[0][0], parts, rest, sum(map(sum, parts)))
            length, parts, rest, r = piece
            n = gcd(n, length)
            if r:
                rank += r
                tau = tuple(map(add, tau, parts))
            left += rest
        stratum = records.get((rank, left))
        if stratum is None:
            mu = _peeled(m, MINUS, classes, [pieces[rows][1:3] for rows, _ in blocks]).residue
            stratum = Stratum(a, rank, mu, d_check_stratum(a, mu) if ai else 1)
            records[rank, left] = stratum
        # the component group: Z/(part gcd) for AI (Z/1 when empty), Z/1 for type II
        n = (n or 1) if ai else 1
        target = (n, stratum.d_check)
        if target not in moved:
            moved[target] = [_moved(psi, a, target[1]) for psi in exact_order_characters(n, a)]
        for psi in moved[target]:
            image.append((stratum, psi, tau))
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
    return _labels(grading, [s for s in strata if _is_cuspidal_ai(grading, s.a, s)])
