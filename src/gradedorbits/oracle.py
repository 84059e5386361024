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
decided on the m-step cycle product of the basis combinations y at a
smallest label.  The nil certificate is a reachability walk of that label's
coordinates through the live cells (`_reaches_nothing`); its True is
certain.  Only when it fails are the cells grouped into the basis
(`_opposite_basis`), and seeded Monte Carlo trials run the span walk
`_words_kill` on random combinations y, where it is an exact nilpotency
test, to certify non-distinguishedness; only there does the 2^-t error
bound apply.  The elimination serves only `centralizer_dim_gl` and the
trials' span walk.

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

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .diagrams import FilledDiagram, PLUS, check_integer, check_positive
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


def _opposite_basis(cells, roots, dead):
    """The opposite-degree centralizer's 0/1 basis from `_cell_roots`' pass,
    each element a list of ((block, row, column), 1) cells: each live
    component, by root, gives its root and then its other cells ascending,
    the elimination's integer basis, entry for entry."""
    groups: dict = {}
    for cell, root in zip(cells, roots):
        if root not in dead:
            groups.setdefault(root, []).append((cell, 1))
    return [group[-1:] + group[:-1] for _, group in sorted(groups.items())]


def _reaches_nothing(cells, roots, dead, dims, start: int) -> bool:
    """The nil certificate: whether every word in the basis blocks kills
    the label-s summand V_s, s = `start`, walked over `_cell_roots`' live
    cells.  A basis element is one live component, and each equation joins
    two cells whose columns are consecutive boxes of one string, so it has
    at most one cell, a 1, in each (block, column): it maps each coordinate
    vector to one or to 0.  So each span of `_words_kill`'s walk on the basis is the
    span of a set of coordinates: R_0 is every coordinate of V_s, and
    R_{t+1} the rows r of the live cells (s + t, r, c) with c in R_t.  The
    walk stops with True on the empty set and with False on a round of m
    steps that keeps its size: the span walk's verdict, with no
    elimination."""
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


def _words_kill(elements, dims, start: int) -> bool:
    """Whether every word in the elements' blocks kills the label-s summand
    V_s, s = `start`; each element is an iterable of ((block, row, column),
    value) cells of a degree -1 element, block i mapping label i to label
    i + 1 (from 0).  W_0 = V_s, and W_{t+1} is spanned by the images of W_t
    under every element's block at label s + t, each span kept in echelon
    form by `_eliminate`.  As W_{(k+1)m} lies in W_{km}, a round of m steps
    that keeps dim W at label s stops the walk with False; every other
    round lowers it from d = dim V_s and leaves it nonzero, so there are at
    most d rounds, m d steps.  On one element y,
    W_{(k+1)m} = P W_{km} with P y's cycle product at s, so the walk decides
    exactly whether P is nilpotent: this is each Monte Carlo trial.  On a
    basis, True certifies that every combination's cycle product at s is
    nilpotent; the oracle decides that case by `_reaches_nothing`, and the
    tests keep this walk as its reference."""
    m = len(dims)
    # by_label[i]: each element's (row, column, value) cells in its block
    # at label i, for the elements with any
    by_label = [[] for _ in range(m)]
    for element in elements:
        cells = [[] for _ in range(m)]
        for (i, r, c), v in element:
            cells[i].append((r, c, v))
        for i, block in enumerate(cells):
            if block:
                by_label[i].append(block)
    span = [{c: 1} for c in range(dims[start])]
    while True:
        before = len(span)
        for t in range(start, start + m):
            images = []
            for w in span:
                for block in by_label[t % m]:
                    out = {}
                    for r, c, v in block:
                        if c in w:
                            out[r] = out.get(r, 0) + v * w[c]
                    out = {r: v for r, v in out.items() if v}
                    if out:
                        images.append(out)
            span = _eliminate(images, dims[(t + 1) % m])[0]
            if not span:
                return True
        if len(span) == before:
            return False


def _trials_pass(supports, dims, start: int, trials: int, seed: int) -> bool:
    """The seeded Monte Carlo trials: each draws a combination y of the
    basis with coefficients in [-R, R], R = max(9, N), and walks y alone
    (`_words_kill`) to test its cycle product at label `start` for
    nilpotency."""
    # At least 2N + 1 values; N <= 9 keeps the draws of [-9, 9]
    bound = max(9, sum(dims))
    rng = random.Random(seed)
    for _ in range(trials):
        y = {}
        for support in supports:
            coeff = rng.randint(-bound, bound)
            for cell, v in support:
                y[cell] = y.get(cell, 0) + coeff * v
        if not _words_kill([y.items()], dims, start):
            return False
    return True


def is_distinguished_oracle(diagram: FilledDiagram, trials: int = 20, seed: int = 0) -> bool:
    """Distinguishedness test: an exact nil certificate, then Monte Carlo.

    Works on the opposite-degree centralizer, read off its equations by
    union-find (`_cell_roots`).
    As its elements y have degree -1, y^m is block diagonal with the cycle
    products of its blocks, which share their nonzero eigenvalues; so only
    the d x d cycle product at a label of smallest dimension d is tested,
    and with d = 0 the verdict True is certain.  Otherwise the nil
    certificate runs first, a reachability walk over the live cells
    (`_reaches_nothing`): when the images of that label's coordinates under
    words in the basis blocks vanish, every combination is nilpotent, the
    verdict True is certain and no trial runs.  Only when the certificate
    fails are the cells grouped into the exact 0/1 basis
    (`_opposite_basis`), and the seeded trials run: each draws an integer
    combination y of the basis with coefficients in [-R, R], R = max(9, N),
    N the total box count, and runs the span walk `_words_kill` on y alone.
    False is certain.
    A True verdict from the trials errs only if every trial misses a
    non-nilpotent element; the characteristic polynomial's coefficients
    have degree <= N in the combination coefficients, so by Schwartz-Zippel
    a trial misses with probability <= N/(2R + 1) < 1/2, and `trials`
    trials err with probability < 2^-trials.  The certificate's True is
    the one the trials would give, so the verdict never depends on it.
    `trials` must be at least 1: no trial bounds no error.  `seed` must be
    at least 0, since `random.Random` draws a negative seed as its absolute
    value.
    """
    check_positive("trials", trials)
    check_integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    plus = diagram if diagram.sign == PLUS else duality(diagram)
    degree, entries, dims = _string_entries(plus)
    d = min(dims)
    if d == 0:
        return True
    found = _cell_roots(degree, entries, dims)
    start = dims.index(d)
    if _reaches_nothing(*found, dims, start):
        return True
    return _trials_pass(_opposite_basis(*found), dims, start, trials, seed)


def matrix_to_strings(mat) -> list[list[str]]:
    """Render a rational matrix as 'p/q' strings (plain 'p' for integers)."""
    return [[str(v) for v in row] for row in mat]
