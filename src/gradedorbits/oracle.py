"""Exact linear-algebra oracle for the cyclic-quiver realization (case AI).

A filled diagram is realized by its string representative x, with one basis
vector per box and each box mapped to the next box of its row.  One
commutator system, {z : x z = z x} for block matrices z of a single degree,
serves everything here.  It is written block by block, in one order of the
unknown cells of z, from the nonzero entries of x's blocks
(`_commutator_system`): the distinguishedness test reads them straight off
the diagram's rows (`_string_entries`), and `_commutator_rows` off a
`GradedMatrix`.  Dense 0/1 blocks are built only by
`build_representative`, for `distinguished --dump-matrices` and the tests.
The system is solved by sparse fraction-free elimination over the integers:
at degree 0 its rank gives the block-diagonal centralizer dimension, and at
degree -(deg x) its integer basis gives the opposite-degree centralizer.
Distinguishedness is decided on the m-step cycle product of its elements y
at a smallest label by one span walk (`_words_kill`).  Run on the basis, it
is an exact nil certificate, and its True is certain; otherwise seeded Monte
Carlo trials run it on random combinations y, where it is an exact
nilpotency test, to certify non-distinguishedness, and only there does the
2^-t error bound apply.

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

from .diagrams import FilledDiagram, PLUS, dimension_vector
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


def _integer_basis(rows, ncols):
    """A nullspace basis of the system `rows * v = 0`, one vector per free
    column, read straight off the elimination in integers as sparse
    (column, value) lists: the free column gets L, the lcm of the pivot
    entries, and each pivot column, in pivot order, its multiple of L.
    Each vector is L times the rational basis vector whose free entry is
    1."""
    reduced, pivots = _eliminate(rows, ncols)
    scale = lcm(*[row[pc] for row, pc in zip(reduced, pivots)])
    pivot_set = set(pivots)
    basis = {free: [(free, scale)] for free in range(ncols) if free not in pivot_set}
    for row, pc in zip(reduced, pivots):
        unit = scale // row[pc]
        for free, v in row.items():
            if free != pc:
                basis[free].append((pc, -v * unit))
    return list(basis.values())


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
    """The degree of the diagram's string representative and the nonzero
    entries of its blocks, as (block, row, column, value) with block i
    mapping label i to label i - degree (labels from 0).  Each row of the
    diagram is a string of boxes, each box a basis vector of its label,
    numbered there in row order, and box t maps to box t + 1 (a '+' row
    runs down from its start label, a '-' row up)."""
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
    return degree, entries


def build_representative(diagram: FilledDiagram) -> GradedMatrix:
    """String representative of the orbit (case AI): one basis vector per
    box, each box mapped to its right neighbour (zero at the row end).

    The result has degree +1 for a '+' diagram and -1 for a '-' diagram, and
    its Jordan type is the underlying partition.
    """
    grading = GradingSpec("AI", diagram.modulus, dimension_vector(diagram))
    degree, entries = _string_entries(diagram)
    blocks = _zero_blocks(grading.dims, degree)
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


def _commutator_system(dims, x_degree: int, entries, degree: int):
    """The system {z : x z = z x} for block matrices z of the given degree,
    x of degree `x_degree` given by the nonzero entries (i, r, c, v) of its
    blocks, block i mapping label i to label i - `x_degree`, with the
    labels' box counts `dims`.

    With d = `degree` and e = `x_degree`, the unknowns are the cells
    (i, r, c) of the blocks Z_i : V_i -> V_{i-d} (labels from 0), taken
    block by block and row-major inside a block, so cell (i, r, c) is
    unknown base[i] + r * dims[i] + c.  One row per entry of the block
    equations X_{i-d} Z_i - Z_{i-e} X_i = 0, taken in the same order, is
    returned unless it is zero, as a sparse {unknown: value} dict of its
    nonzeros."""
    m = len(dims)
    cells = [(i, r, c) for i in range(m) for r in range(dims[(i - degree) % m]) for c in range(dims[i])]
    base = [0] * m
    for i in range(1, m):
        base[i] = base[i - 1] + dims[(i - 1 - degree) % m] * dims[i - 1]
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


def _opposite_basis(plus: FilledDiagram, dims):
    """An integer basis of the opposite-degree centralizer of the '+'
    diagram's representative, each element a sparse list of
    ((block, row, column), value) cells of its degree -1 blocks.  The
    system comes straight from the rows: `dims` are the diagram's own box
    counts, so no dense block is built or checked."""
    degree, entries = _string_entries(plus)
    cells, rows = _commutator_system(dims, degree, entries, -degree)
    return [[(cells[k], v) for k, v in vec] for vec in _integer_basis(rows, len(cells))]


def _words_kill(elements, dims, start: int) -> bool:
    """Whether every word in the elements' blocks kills the label-s summand
    V_s, s = `start`; each element is an iterable of ((block, row, column),
    value) cells of a degree -1 element, block i mapping label i to label
    i + 1 (from 0).  W_0 = V_s, and W_{t+1} is spanned by the images of W_t
    under every element's block at label s + t.  As W_{(k+1)m} lies in
    W_{km}, a round of m steps that keeps dim W at label s stops the walk
    with False, after at most m(d + 1) steps.  On a basis, True certifies
    that every combination's cycle product at s is nilpotent; on one
    element y, W_{(k+1)m} = P W_{km} with P y's cycle product at s, so the
    walk decides exactly whether P is nilpotent."""
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

    Works on random integer combinations y of an exact basis of the
    opposite-degree centralizer, in integers straight from the elimination.
    As y has degree -1, y^m is block diagonal with the cycle products of its
    blocks, which share their nonzero eigenvalues; so only the d x d cycle
    product at a label of smallest dimension d is tested, and with d = 0
    the verdict True is certain.  Otherwise the span walk `_words_kill`
    first runs on the basis as a nil certificate: when the images of that
    label under words in the basis blocks vanish, every combination is
    nilpotent, the verdict True is certain and no trial runs.  Only when
    the certificate fails do the seeded trials run, drawing coefficients
    from [-R, R] with R = max(9, N), N the total box count, and running the
    same walk on each drawn y alone.  False is certain.
    A True verdict from the trials errs only if every trial misses a
    non-nilpotent element; the characteristic polynomial's coefficients
    have degree <= N in the combination coefficients, so by Schwartz-Zippel
    a trial misses with probability <= N/(2R + 1) < 1/2, and `trials`
    trials err with probability < 2^-trials.  The certificate's True is
    the one the trials would give, so the verdict never depends on it.
    `trials` must be at least 1: no trial bounds no error.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    plus = diagram if diagram.sign == PLUS else duality(diagram)
    dims = dimension_vector(plus)
    d = min(dims)
    if d == 0:
        return True
    supports = _opposite_basis(plus, dims)
    start = dims.index(d)
    return _words_kill(supports, dims, start) or _trials_pass(supports, dims, start, trials, seed)


def matrix_to_strings(mat) -> list[list[str]]:
    """Render a rational matrix as 'p/q' strings (plain 'p' for integers)."""
    return [[str(v) for v in row] for row in mat]
