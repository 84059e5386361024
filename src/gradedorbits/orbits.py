"""Orbit labels for the four grading families AI, AII, CII, DII.

Provides the per-family admissibility test for filled diagrams, component
group orders, the two distinguishedness predicates, the sign-flip duality on
diagrams, the peeling maps that split a diagram into a uniform padding plus a
distinguished residual, enumeration of stratum labels, and the closed-form
centralizer, orbit and stratum dimensions of case AI.

Both families peel, per part length and label class, as many uniform rounds
of rows as every label of the class can give: case AI at order a takes one
row per label and has the residues mod gcd(a, m) as classes, and type II is
the round-of-two, single-class case, at order 1 with the trivial component
group Z/1.  One `diagrams._peel`, one `_strata`, one `Peel` and one
`Stratum` record serve both.  A peel works one part length at a time, by
the one round rule of `diagrams`, which peels every block fill its walk
makes: `_peel` and `sheaves.verify_bijection` fold the records of the
diagrams they peel (`diagrams._fold`), and the strata and the listings
(`orbit_listing`) read only the part gcd and rank (`diagrams._gcd_rank`).

Diagrams labelling orbits on the negative side of the grading use the '-'
fill convention; all stratum residuals are stored on that side as well.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd

from .diagrams import (
    CASES,
    DimensionVector,
    FilledDiagram,
    MINUS,
    MultiPartition,
    PLUS,
    _Fills,
    _built_diagram,
    _gcd_rank,
    _peel,
    _row_key,
    _target,
    _unpeeled,
    canonicalize,
    check_box_counts,
    check_modulus,
    check_positive,
    dimension_vector,
    reduce_label,
    row_partners,
)

TYPE_II_CASES = ("AII", "CII", "DII")


@dataclass(frozen=True)
class GradingSpec:
    """A grading family, its modulus and the box counts per label."""

    case: str
    modulus: int
    dims: DimensionVector

    def __post_init__(self):
        check_modulus(self.case, self.modulus)
        dims = check_box_counts(self.modulus, self.dims)
        object.__setattr__(self, "dims", dims)
        if self.case == "AI":
            return
        # the form pairs the labels as it pairs rows of length 1
        partners = row_partners(self.case, self.modulus, 1)
        for i, j in enumerate(partners, 1):
            if i < j and dims[i - 1] != dims[j - 1]:
                raise ValueError(f"{self.case} requires d_{i} == d_{j}")
        fixed = [i for i, j in enumerate(partners, 1) if i == j]
        if any(dims[i - 1] % 2 for i in fixed):
            labels = " and ".join(f"d_{i}" for i in fixed)
            raise ValueError(f"{self.case} requires {labels} even")

    @property
    def total(self) -> int:
        return sum(self.dims)

    @property
    def rank(self) -> int:
        if self.case == "AI":
            return min(self.dims)
        return min(v // 2 for v in self.dims)

    @property
    def dim_g1(self) -> int:
        """Dimension of the degree-1 piece (AI only): sum of d_i * d_{i-1}."""
        if self.case != "AI":
            raise ValueError("dim_g1 is implemented for case AI only")
        return sum(self.dims[i] * self.dims[i - 1] for i in range(self.modulus))


def admissible_for_case(diagram: FilledDiagram, case: str) -> bool:
    """Whether the diagram's fill satisfies the case's pairing conditions.

    AI accepts everything.  For the type II cases, rows of each length pair up
    start labels by `row_partners`; paired labels must carry equal row
    counts and self-paired labels an even count.
    """
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}")
    if case == "AI":
        return True
    for length in diagram.parts:
        p = diagram.multiplicities(length)
        for a, b in enumerate(row_partners(case, diagram.modulus, length), 1):
            if b == a:
                if p[a - 1] % 2:
                    return False
            elif p[a - 1] != p[b - 1]:
                return False
    return True


def component_group_order(diagram: FilledDiagram, grading: GradingSpec) -> int:
    """Order of the cyclic stabilizer component group: the gcd of the parts
    for AI, and 1 (the trivial group Z/1) for the empty AI diagram and the
    type II cases."""
    if grading.case == "AI":
        return diagram.part_gcd or 1
    return 1


def is_distinguished_ai(diagram: FilledDiagram, a: int) -> bool:
    """AI distinguishedness at order a.

    Requires a to divide every part, and, with d = gcd(a, modulus), that for
    each part length every residue class of labels mod d contains a label with
    no row of that length.
    """
    check_positive("order", a)
    return diagram.part_gcd % a == 0 and _no_round(diagram, gcd(a, diagram.modulus), 1)


def is_distinguished_ii(diagram: FilledDiagram) -> bool:
    """Type II distinguishedness: every part length has some label with at
    most one row (zero multiplicities count)."""
    return _no_round(diagram, 1, 2)


def _no_round(diagram: FilledDiagram, classes: int, per: int) -> bool:
    """Whether each part length has, in every class of labels mod
    `classes`, a label with fewer than `per` rows of that length: no
    uniform round.  Type II is the one-class, two-row case."""
    for length in diagram.parts:
        p = diagram.multiplicities(length)
        if any(min(p[i::classes]) >= per for i in range(classes)):
            return False
    return True


def duality(diagram: FilledDiagram) -> FilledDiagram:
    """Sign-flip bijection keeping every row's box-label multiset.

    A '-'-row with boxes b, b+1, ..., b+p-1 becomes the '+'-row starting at
    b+p-1 on the same boxes, and conversely.  An involution preserving the
    modulus, size, box counts, underlying partition and part gcd.
    """
    k = diagram.modulus
    if diagram.sign == MINUS:
        sign, rows = PLUS, [(p, reduce_label(s + p - 1, k)) for p, s in diagram.rows]
    else:
        sign, rows = MINUS, [(p, reduce_label(s - p + 1, k)) for p, s in diagram.rows]
    # the rows of a valid diagram keep their lengths and land in [1, k]
    return _built_diagram(k, sign, tuple(sorted(rows, key=_row_key)))


@dataclass(frozen=True)
class Peel:
    """Result of a peeling: the multipartition of the uniform rounds, with
    gcd(a, m) components at order a (one for type II), and the
    distinguished residual diagram."""

    tau: MultiPartition
    residue: FilledDiagram

    @property
    def rank(self) -> int:
        return sum(sum(component) for component in self.tau)


def peel_ai(diagram: FilledDiagram, a: int) -> Peel:
    """Split off, per part length and per label class mod d = gcd(a, m), the
    largest uniform family of rows present at every label of the class.

    Parts are recorded in the tau components divided by a; the leftover row
    multiplicities form the residual diagram, which is distinguished at a.
    """
    check_positive("order", a)
    if diagram.part_gcd % a:
        raise ValueError(f"every part must be divisible by {a}")
    return Peel(*_peel(diagram, a, 1))


def peel_ii(diagram: FilledDiagram) -> Peel:
    """Split off, per part length, the largest number of full label rounds of
    row pairs: tau is the one partition nu of their lengths, and the leftover
    multiplicities form a distinguished residual."""
    return Peel(*_peel(diagram, 1, 2))


def d_check_stratum(a: int, mu: FilledDiagram) -> int:
    """Cyclic component-group order attached to an AI stratum residual:
    gcd(m*a/d, part gcd of mu), which is m*a/d when mu is empty (its part
    gcd is 0)."""
    check_positive("order", a)
    m = mu.modulus
    return gcd(m * a // gcd(a, m), mu.part_gcd)


def d_check_dual(diagram: FilledDiagram) -> int:
    """Cyclic component-group order on the dual stratum of an AI orbit whose
    diagram has some part present at every label."""
    peel = peel_ai(diagram, 1)
    if peel.rank == 0:
        raise ValueError("no part has a row at every label")
    m = diagram.modulus
    g = peel.residue.part_gcd
    for part in set(peel.tau[0]):
        g = gcd(g, m * part)
    return g


@dataclass(frozen=True)
class Stratum:
    """Stratum label: order a, braid rank, residual diagram and the order of
    the attached cyclic group.  A type II stratum is Stratum(1, rank, mu, 1):
    order 1 and the trivial group Z/1."""

    a: int
    rank: int
    mu: FilledDiagram
    d_check: int


def _label_order(grading: GradingSpec, a: int) -> int:
    """The order the grading's labels sit at: a for case AI, and 1 for the
    type II cases, whose component groups are trivial, once a is checked."""
    check_positive("order", a)
    return a if grading.case == "AI" else 1


def enumerate_strata(grading: GradingSpec, a: int = 1) -> list[Stratum]:
    """All stratum labels of the grading at order a (1 for type II).

    Empty for AI unless a divides the total box count, since every part of
    a residual does, and for the zero grading at a > 1.  When
    gcd(a, m) = m the residual is empty, so the only AI stratum is the
    fully padded one, which exists exactly when the box counts are uniform.
    """
    a = _label_order(grading, a)
    return [
        Stratum(a, rank, _built_diagram(grading.modulus, MINUS, rows), d_check)
        for rank, rows, d_check in _strata(grading, a, _fills(grading, a))
    ]


def _fills(grading: GradingSpec, a: int = 1) -> _Fills:
    """The '-' side fills of the grading's case at order a (1 for type II)."""
    return _Fills(grading.modulus, MINUS, case=grading.case, order=a)


def orbit_listing(case: str, modulus: int, dims=None, *, size=None, a: int = 1):
    """Stream every '-' diagram of the case with the given box counts, or
    with the given size over every box-count vector, in `iter_diagrams`
    order, as (diagram, part gcd, distinguished): distinguished at order a
    for case AI (`is_distinguished_ai`), in the type II sense otherwise
    (`is_distinguished_ii`).  All three are read off one walk at order 1:
    the rows are the walk's, the part gcd and the rank its block records'
    (`_gcd_rank`), and a diagram is distinguished at order 1 when it has no
    round, its rank 0.  At an order a > 1, a must divide the part gcd and
    the peel at a must find no round in any block: the same one rule."""
    fills = _Fills(modulus, MINUS, case=case)
    dims, size = _target(modulus, dims, size)
    check_positive("order", a)
    if a != 1 and case != "AI":
        raise ValueError("an order applies only to case AI")
    return _listed(fills.walk(dims, size), modulus, a)


def _listed(walk, k: int, a: int):
    for rows, blocks in walk:
        g, rank = _gcd_rank(blocks)
        plain = not rank if a == 1 else g % a == 0 and _unpeeled(blocks, a)
        yield _built_diagram(k, MINUS, rows), g, plain


def _strata(grading: GradingSpec, a: int, fills: _Fills) -> list[tuple]:
    """The strata at order a (1 for type II) as (rank, residual rows,
    d_check) triples, ranks ascending: for every rank whose padding leaves
    no box count negative, every distinguished residual on the boxes left,
    as the distinguished walk of `fills`, the grading's fills at a, streams
    them, its d_check read off the residual's block lengths.  A unit of
    rank pads each label with a / gcd(a, m) boxes for AI and 2 for type II.
    One `_Fills` serves every rank, so the ranks share its block fills.
    The zero AI grading carries just the trivial character: no stratum at
    a > 1."""
    if grading.total == 0 and a > 1:
        return []
    m = grading.modulus
    ai = grading.case == "AI"
    padding = a // gcd(a, m) if ai else 2
    strata = []
    for rank in range(min(grading.dims) // padding + 1):
        sub = tuple(v - padding * rank for v in grading.dims)
        for rows, blocks in fills.walk(sub, sum(sub), True):
            # d_check_stratum, with the residual's part gcd read off its blocks
            d_check = gcd(m * padding, _gcd_rank(blocks)[0]) if ai else 1
            strata.append((rank, rows, d_check))
    return strata


def centralizer_dim(diagram: FilledDiagram) -> int:
    """Dimension of the block-diagonal centralizer, inside the product of
    general linear Lie algebras (no trace condition), of the diagram's string
    representative.

    The representative is a nilpotent representation of the cyclic quiver
    with one string per row, and its centralizer is the representation's
    endomorphism algebra.  Read each row from its top, the label s where it
    starts on the '+' side and the label of its last box on the '-' side
    (where its dual '+' row starts): a row of length p and top s maps to a
    row of length q and top t in one dimension for every j in
    [max(0, q - p), q) with t - j = s (mod m), the map sending the top of
    the first string to box j of the second.  The sum runs over distinct
    (length, top) row types, each pair weighted by its multiplicities.
    """
    m = diagram.modulus
    last = diagram.sign == MINUS
    types = Counter((p, s + p - 1 if last else s) for p, s in diagram.rows)
    total = 0
    for (p, s), u in types.items():
        for (q, t), v in types.items():
            r = (t - s) % m
            low = max(0, q - p)
            # j = r (mod m) in [low, q), counted as a difference of floors
            total += u * v * ((q - r - 1) // m - (low - r - 1) // m)
    return total


def orbit_dim(diagram: FilledDiagram) -> int:
    """Dimension of the orbit (case AI) through the diagram's representative:
    sum d_i^2 over the diagram's box counts d minus the centralizer
    dimension."""
    return sum(v * v for v in dimension_vector(diagram)) - centralizer_dim(diagram)


def stratum_dim_ai(stratum: Stratum, grading: GradingSpec) -> int:
    """Dimension of the dual stratum: sum d_i^2 - c_mu - l*k + l, where c_mu
    is the residual's centralizer dimension without the trace condition and
    k = a / gcd(a, m) is the padding per label."""
    if grading.case != "AI":
        raise ValueError("dimensions are defined for case AI only")
    per_label = stratum.a // gcd(stratum.a, grading.modulus)
    padding = per_label * stratum.rank
    mu = stratum.mu
    if mu.modulus != grading.modulus or any(
        v + padding != d for v, d in zip(dimension_vector(mu), grading.dims)
    ):
        raise ValueError("stratum box counts do not match the grading")
    c_mu = centralizer_dim(mu)
    return sum(v * v for v in grading.dims) - c_mu - padding + stratum.rank


def full_support_stratum_ii(grading: GradingSpec) -> Stratum:
    """The unique dense stratum: maximal padding depth, residual made of
    single-box rows soaking up the leftover box counts."""
    if grading.case not in TYPE_II_CASES:
        raise ValueError("type II strata require case AII, CII or DII")
    r = grading.rank
    rows = []
    for start, v in enumerate(grading.dims, start=1):
        rows.extend([(1, start)] * (v - 2 * r))
    return Stratum(1, r, canonicalize(rows, grading.modulus, MINUS), 1)
