"""Exact linear-algebra oracle for the cyclic-quiver realization (case AI).

A filled diagram is realized by its string representative x, with one basis
vector per box and each box mapped to the next box of its row.  One
commutator system, {z : x z = z x} for block matrices z of a single degree,
serves everything here.  It is written block by block, in one order of the
unknown cells of z, from the nonzero entries of x's blocks
(`_commutator_system`, and `_commutator_rows` off a `GradedMatrix`); the
distinguishedness test reads the entries straight off the diagram's rows
(`_string_entries`).  Dense 0/1 blocks are built only by
`build_representative`, for `distinguished --dump-matrices` and the tests.
At degree 0 its rank, by sparse fraction-free elimination over the
integers, gives the block-diagonal centralizer dimension.  At degree
-(deg x) each equation of a string representative sets two cells equal or
one cell zero, and one union-find pass over them (`_cell_roots`) gives each
cell's component; a component with no zero cell is a live one, one element
of the opposite-degree centralizer's 0/1 basis.  Distinguishedness is
decided on the m-step cycle product at a smallest label by a reachability
walk of that label's coordinates through the live cells
(`_reaches_nothing`), whose verdict is certain both ways (see
`is_distinguished_oracle`).  The elimination serves only
`centralizer_dim_gl`.

The library's orbit and stratum dimensions come from the closed form in
`orbits` (`centralizer_dim`, `orbit_dim`, `stratum_dim_ai`); the elimination
path here (`centralizer_dim_gl`) is the independent reference that the
tests compare them against.

Rank decisions are exact: no floating point is used anywhere, and no
`Fraction` is formed.  The systems are sparse: each row is a {column:
value} dict of its nonzeros, at most two, each +-1, for a commutator row of
a string representative.  Rational blocks are accepted; the elimination
scales each row to integers over its nonzeros only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .diagrams import FilledDiagram, PLUS
from .orbits import GradingSpec, duality

Matrix = tuple[tuple[int | Fraction, ...], ...]


def _zero_blocks(dims, degree: int) -> list[list[list[int]]]:
    """Zero blocks of the given degree: block i maps label i to label
    i - degree, labels counted from 0."""
    m = len(dims)
    return [[[0] * dims[i] for _ in range(dims[(i - degree) % m])] for i in range(m)]


def _combine(row, prow, c):
    """pv * row - f * prow, with pv and f the entries of prow and row at the
    pivot column c, divided by its content (the gcd of its entries)."""
    f, pv = row[c], prow[c]
    out = {k: pv * v for k, v in row.items()}
    for k, v in prow.items():
        w = out.get(k, 0) - f * v
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    g = gcd(*out.values())
    return {k: v // g for k, v in out.items()} if g > 1 else out


def _eliminate(rows, ncols):
    """Fraction-free Gauss-Jordan elimination of sparse rows {column: value}
    with no zero values.  Each row is scaled to integers over its nonzeros
    and divided by its content, and so is each updated row, so every row
    stays a primitive multiple of its rational counterpart.  Columns are
    taken in order; at column c only the rows that hold c are touched: the
    rows whose first column is c, one of which becomes the pivot row, and
    the earlier pivot rows.  Returns the pivot rows, in pivot order, and the
    pivot columns."""
    # waiting[c]: the rows not yet pivots whose first column is c
    waiting = [[] for _ in range(ncols)]
    for row in rows:
        if row:
            # *list, not *generator: a resized tuple would fill the tuple free lists
            den = lcm(*[v.denominator for v in row.values()])
            row = {k: int(v * den) for k, v in row.items()}
            g = gcd(*row.values())
            waiting[min(row)].append({k: v // g for k, v in row.items()} if g > 1 else row)
    reduced, pivots = [], []
    for c, holders in enumerate(waiting):
        if not holders:
            continue
        prow = holders[0]
        for row in holders[1:]:
            row = _combine(row, prow, c)
            if row:
                waiting[min(row)].append(row)
        for k, row in enumerate(reduced):
            if c in row:
                reduced[k] = _combine(row, prow, c)
        reduced.append(prow)
        pivots.append(c)
    return reduced, pivots


@dataclass(frozen=True)
class GradedMatrix:
    """Block matrix of pure degree: blocks[i - 1] maps the label-i summand
    to the label-(i - degree) summand."""

    grading: GradingSpec
    degree: int
    blocks: tuple[Matrix, ...]

    def __post_init__(self):
        if self.degree not in (1, -1):
            raise ValueError("degree must be +1 or -1")
        m = self.grading.modulus
        dims = self.grading.dims
        if len(self.blocks) != m:
            raise ValueError(f"expected {m} blocks, got {len(self.blocks)}")
        for i in range(m):
            tgt = dims[(i - self.degree) % m]
            src = dims[i]
            block = self.blocks[i]
            if len(block) != tgt or any(len(row) != src for row in block):
                raise ValueError(f"block {i + 1} has the wrong shape")


def _string_entries(diagram: FilledDiagram):
    """The degree of the diagram's string representative, the nonzero
    entries of its blocks, as (block, row, column, value) with block i
    mapping label i to label i - degree (labels from 0), and the box counts
    per label.  Each row of the diagram is a string of boxes, each box a
    basis vector of its label, numbered there in row order, and box t maps
    to box t + 1 (a '+' row runs down from its start label, a '-' row
    up)."""
    m = diagram.modulus
    degree = 1 if diagram.sign == PLUS else -1
    next_index = [0] * m
    entries = []
    for length, start in diagram.rows:
        i = start - 1
        c = next_index[i]
        next_index[i] += 1
        for _ in range(length - 1):
            j = (i - degree) % m
            r = next_index[j]
            next_index[j] += 1
            entries.append((i, r, c, 1))
            i, c = j, r
    return degree, entries, tuple(next_index)


def build_representative(diagram: FilledDiagram) -> GradedMatrix:
    """String representative of the orbit (case AI): one basis vector per
    box, each box mapped to its right neighbour (zero at the row end).

    The result has degree +1 for a '+' diagram and -1 for a '-' diagram, and
    its Jordan type is the underlying partition.
    """
    degree, entries, dims = _string_entries(diagram)
    grading = GradingSpec("AI", diagram.modulus, dims)
    blocks = _zero_blocks(dims, degree)
    for i, r, c, v in entries:
        blocks[i][r][c] = v
    return GradedMatrix(grading, degree, tuple(tuple(map(tuple, b)) for b in blocks))


def _commutator_rows(x: GradedMatrix, degree: int):
    """`_commutator_system` for the nonzero entries of x's blocks."""
    entries = [
        (i, r, c, v)
        for i, block in enumerate(x.blocks)
        for r, row in enumerate(block)
        for c, v in enumerate(row)
        if v
    ]
    return _commutator_system(x.grading.dims, x.degree, entries, degree)


def _cell_numbering(dims, degree: int):
    """The unknown cells (i, r, c) of the blocks Z_i : V_i -> V_{i-d} of a
    block matrix of degree d = `degree` (labels from 0), taken block by
    block and row-major inside a block, and base[i], the unknown of block
    i's first cell: cell (i, r, c) is unknown base[i] + r * dims[i] + c."""
    m = len(dims)
    cells = [(i, r, c) for i in range(m) for r in range(dims[(i - degree) % m]) for c in range(dims[i])]
    base = [0] * m
    for i in range(1, m):
        base[i] = base[i - 1] + dims[(i - 1 - degree) % m] * dims[i - 1]
    return cells, base


def _commutator_system(dims, x_degree: int, entries, degree: int):
    """The system {z : x z = z x} for block matrices z of the given degree,
    x of degree `x_degree` given by the nonzero entries (i, r, c, v) of its
    blocks, block i mapping label i to label i - `x_degree`, with the
    labels' box counts `dims`.

    With d = `degree` and e = `x_degree`, the unknowns are the cells of z
    in `_cell_numbering` order.  One row per entry of the block equations
    X_{i-d} Z_i - Z_{i-e} X_i = 0, taken in the same order, is returned
    unless it is zero, as a sparse {unknown: value} dict of its nonzeros."""
    m = len(dims)
    cells, base = _cell_numbering(dims, degree)
    # the nonzeros of each block of x, by row and by column
    by_row = [[[] for _ in range(dims[(i - x_degree) % m])] for i in range(m)]
    by_col = [[[] for _ in range(dims[i])] for i in range(m)]
    for i, r, c, v in entries:
        by_row[i][r].append((c, v))
        by_col[i][c].append((r, v))
    rows = []
    for i in range(m):
        j = (i - x_degree) % m
        x_left, x_right = by_row[(i - degree) % m], by_col[i]
        for r in range(dims[(j - degree) % m]):
            for c in range(dims[i]):
                row = {base[i] + t * dims[i] + c: v for t, v in x_left[r]}
                for t, v in x_right[c]:
                    k = base[j] + r * dims[j] + t
                    w = row.pop(k, 0) - v
                    if w:
                        row[k] = w
                if row:
                    rows.append(row)
    return cells, rows


def centralizer_dim_gl(x: GradedMatrix) -> int:
    """Dimension of the block-diagonal centralizer inside the full product of
    general linear Lie algebras (no trace condition)."""
    cells, rows = _commutator_rows(x, 0)
    return len(cells) - len(_eliminate(rows, len(cells))[1])


def _cell_roots(degree: int, entries, dims):
    """The opposite-degree centralizer's cells, as one union-find pass over
    the equations of the string representative whose `_string_entries`
    are (degree, entries, dims): `_cell_numbering`'s cells (i, r, c), the
    root of each, and the set of dead roots.  With e = `degree`, entry
    (r, c) of X_{i+e} Z_i - Z_{i-e} X_i = 0 says z[c -> pred r] =
    z[succ c -> r] (box c of label i maps to succ c), or, with one side
    missing, that one cell is zero.  The pass joins the equal cells, a
    component's root its largest cell, the column the elimination leaves
    free; a root is dead when its component holds a zero cell."""
    m = len(dims)
    cells, base = _cell_numbering(dims, -degree)
    succ = [[None] * n for n in dims]
    pred = [[None] * n for n in dims]
    for i, r, c, _ in entries:
        succ[i][c] = r
        pred[(i - degree) % m][r] = c
    parent = list(range(len(cells)))

    def find(k):
        while parent[k] != k:
            parent[k] = k = parent[parent[k]]
        return k

    zero = []
    for i in range(m):
        j = (i - degree) % m
        ni, nj, bi, bj = dims[i], dims[j], base[i], base[j]
        for r, t in enumerate(pred[i]):
            for c, s in enumerate(succ[i]):
                if t is None:
                    if s is not None:
                        zero.append(bj + r * nj + s)
                elif s is None:
                    zero.append(bi + t * ni + c)
                else:
                    a, b = find(bi + t * ni + c), find(bj + r * nj + s)
                    parent[min(a, b)] = max(a, b)
    roots = [find(k) for k in range(len(parent))]
    return cells, roots, {roots[k] for k in zero}


def _reaches_nothing(cells, roots, dead, dims, start: int) -> bool:
    """Whether every word in the opposite-degree basis blocks kills the
    label-s summand V_s, s = `start`, walked over `_cell_roots`' live
    cells.  A basis element is one live component, and each equation joins
    two cells whose columns are consecutive boxes of one string, so it has
    at most one cell, a 1, in each (block, column): it maps each coordinate
    vector to one or to 0.  So the words of length t map V_s into the span
    of a set R_t of coordinates: R_0 is every coordinate of V_s, and
    R_{t+1} the rows r of the live cells (s + t, r, c) with c in R_t.  The
    walk stops with True on the empty set and with False on a round of m
    steps that keeps its size; `is_distinguished_oracle` proves both
    verdicts."""
    m = len(dims)
    # live[i][c]: the rows of the live cells in block i's column c
    live = [[[] for _ in range(n)] for n in dims]
    for (i, r, c), root in zip(cells, roots):
        if root not in dead:
            live[i][c].append(r)
    reach = range(dims[start])
    while True:
        before = len(reach)
        for t in range(start, start + m):
            block = live[t % m]
            reach = {r for c in reach for r in block[c]}
            if not reach:
                return True
        if len(reach) == before:
            return False


def is_distinguished_oracle(diagram: FilledDiagram) -> bool:
    """Distinguishedness test, exact: whether every element y of the
    opposite-degree centralizer is nilpotent.

    Works on that centralizer's 0/1 basis, read off its equations by
    union-find (`_cell_roots`).  As y has degree -1, y^m is block diagonal
    with the cycle products of its blocks, which share their nonzero
    eigenvalues; so only the d x d cycle product at a label s of smallest
    dimension d is tested, and with d = 0 the verdict True is certain.
    Otherwise the reachability walk `_reaches_nothing` decides, both ways.
    When its set empties, every word of some length t in the basis blocks
    kills V_s, so every combination y has a nilpotent cycle product at s:
    True is certain.  For False, let y_1 be the sum of the basis.  Each live
    cell is a 1 in exactly one basis element, so y_1 is the 0/1 matrix of
    the live cells, and it commutes with x.  y_1 has no negative entry, so
    its images have no cancellation: the walk's set R_t is the support of
    y_1^t applied to the all-ones vector of V_s.  The support of an image grows with the
    support it comes from, so R_{(k+1)m} lies in R_{km}, and a round that
    keeps the size keeps the set for good.  Then P_1^k is nonzero for every
    k, P_1 the cycle product of y_1 at s: y_1 is a non-nilpotent witness,
    and False is certain too.
    """
    plus = diagram if diagram.sign == PLUS else duality(diagram)
    degree, entries, dims = _string_entries(plus)
    d = min(dims)
    return d == 0 or _reaches_nothing(*_cell_roots(degree, entries, dims), dims, dims.index(d))


def matrix_to_strings(mat) -> list[list[str]]:
    """Render a rational matrix as 'p/q' strings (plain 'p' for integers)."""
    return [[str(v) for v in row] for row in mat]
