import random
import re
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, strategies as st

from gradedorbits import oracle
from gradedorbits.diagrams import (
    canonicalize,
    dimension_vector,
    empty_diagram,
    enumerate_by_size,
    enumerate_diagrams,
)
from gradedorbits.orbits import (
    GradingSpec,
    Stratum,
    centralizer_dim,
    duality,
    enumerate_strata,
    is_distinguished_ai,
    orbit_dim,
    stratum_dim_ai,
)
from gradedorbits.oracle import (
    GradedMatrix,
    _box_positions,
    _cell_roots,
    _string_entries,
    _zero_blocks,
    build_representative,
    centralizer_dim_gl,
    is_distinguished_oracle,
)

from conftest import compositions, naive_row_labels


def diag(rows, k, sign="+"):
    return canonicalize(rows, k, sign)


def _zeros(rows: int, cols: int) -> list[list[int]]:
    return [[0] * cols for _ in range(rows)]


def mat_mul(a, b):
    """The dense product a b, skipping zero entries."""
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = _zeros(rows, cols)
    for i in range(rows):
        for t in range(inner):
            v = a[i][t]
            if v:
                for j in range(cols):
                    if b[t][j]:
                        out[i][j] += v * b[t][j]
    return out


def _is_nilpotent(full, n: int) -> bool:
    """Whether the n x n matrix is nilpotent, by repeated squaring."""
    power = full
    steps = 1
    while True:
        if not any(map(any, power)):
            return True
        if steps >= n:
            return False
        power = mat_mul(power, power)
        steps *= 2


def block_cells(blocks):
    """The ((block, row, column), value) cells of the nonzero entries of
    dense blocks: one element as `_words_kill` takes it."""
    return [
        ((i, r, c), v)
        for i, block in enumerate(blocks)
        for r, row in enumerate(block)
        for c, v in enumerate(row)
        if v
    ]


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

def _cell_numbering(dims, degree: int):
    """The unknown cells (i, r, c) of the blocks Z_i : V_i -> V_{i-d} of a
    block matrix of degree d = `degree` (labels from 0), taken block by
    block and row-major inside a block, and base[i], the unknown of block
    i's first cell: cell (i, r, c) is unknown base[i] + r * dims[i] + c,
    the numbering of `_cell_roots`."""
    m = len(dims)
    cells = [(i, r, c) for i in range(m) for r in range(dims[(i - degree) % m]) for c in range(dims[i])]
    base = [0] * m
    for i in range(1, m):
        base[i] = base[i - 1] + dims[(i - 1 - degree) % m] * dims[i - 1]
    return cells, base


def cell_roots(degree: int, entries, dims, z_degree: int):
    """`_cell_roots`' pass as `_cell_numbering`'s cells (i, r, c), the root
    of each and the set of dead roots."""
    base, find, dead = _cell_roots(degree, entries, dims, z_degree)
    cells, ref_base = _cell_numbering(dims, z_degree)
    assert base[:-1] == ref_base and base[-1] == len(cells)
    return cells, [find(k) for k in range(len(cells))], dead


def _reaches_nothing(base, find, dead, dims, z_degree: int, start: int) -> bool:
    """The oracle's set walk over `_cell_roots`' live cells, the reference
    of its end rule: whether every word in the basis blocks of the
    centralizer at degree d = `z_degree` kills the label-s summand V_s,
    s = `start`.  R_0 is every coordinate of V_s, and R_{t+1} the rows r of
    the live cells (s - td, r, c) with c in R_t; the walk stops with True
    on the empty set and with False on a round of m steps that keeps its
    size."""
    m = len(dims)
    reach = range(dims[start])
    i = start
    while True:
        before = len(reach)
        for _ in range(m):
            n, b = dims[i], base[i]
            rows = range(dims[(i - z_degree) % m])
            reach = {r for c in reach for r in rows if find(b + r * n + c) not in dead}
            if not reach:
                return True
            i = (i - z_degree) % m
        if len(reach) == before:
            return False


def root_live_cells(lam):
    """The cells (i, r, c) of the centralizer at the opposite degree whose
    `_cell_roots` component holds no zero cell."""
    degree, entries, dims = _string_entries(lam)
    cells, roots, dead = cell_roots(degree, entries, dims, -degree)
    return {cell for cell, root in zip(cells, roots) if root not in dead}


def rule_live_cells(lam):
    """The same cells by the oracle's end rule: (c -> t) from box c at
    label i to box t at label i + e is live when above(c) <= above(t) and
    rest(t) <= rest(c)."""
    degree, boxes = _box_positions(lam)
    m = len(boxes)
    return {
        (i, r, c)
        for i in range(m)
        for c, (above_c, rest_c) in enumerate(boxes[i])
        for r, (above_t, rest_t) in enumerate(boxes[(i + degree) % m])
        if above_c <= above_t and rest_t <= rest_c
    }


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


def _opposite_basis(cells, roots, dead):
    """The opposite-degree centralizer's 0/1 basis from `cell_roots`' pass,
    each element a list of ((block, row, column), 1) cells: each live
    component, by root, gives its root and then its other cells ascending,
    the elimination's integer basis, entry for entry."""
    groups: dict = {}
    for cell, root in zip(cells, roots):
        if root not in dead:
            groups.setdefault(root, []).append((cell, 1))
    return [group[-1:] + group[:-1] for _, group in sorted(groups.items())]


def _words_kill(elements, dims, start: int, degree: int = -1) -> bool:
    """Whether every word in the elements' blocks kills the label-s summand
    V_s, s = `start`; each element is an iterable of ((block, row, column),
    value) cells of an element of degree d = `degree`, block i mapping
    label i to label i - d (from 0).  W_0 = V_s, and W_{t+1} is spanned by
    the images of W_t under every element's block at label s - td, each
    span kept in echelon form by `_eliminate`.  As W_{(k+1)m} lies in W_{km}, a round of m steps
    that keeps dim W at label s stops the walk with False; every other
    round lowers it from d = dim V_s and leaves it nonzero, so there are at
    most d rounds, m d steps.  On one element y,
    W_{(k+1)m} = P W_{km} with P y's cycle product at s, so the walk decides
    exactly whether P is nilpotent.  On the basis it is the span reference
    of the oracle's set walk, and of the union-find walk `_reaches_nothing`."""
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
        for t in range(start, start - m * degree, -degree):
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
            span = _eliminate(images, dims[(t - degree) % m])[0]
            if not span:
                return True
        if len(span) == before:
            return False


def centralizer_dim_eliminated(x: GradedMatrix) -> int:
    """Block-diagonal centralizer dimension of any block matrix x, rational
    conjugates included, by rank-nullity over the elimination of its degree
    0 commutator system: the reference of the union-find count
    `centralizer_dim_gl`."""
    cells, rows = _commutator_rows(x, 0)
    return len(cells) - len(_eliminate(rows, len(cells))[1])


def centralizer_dim_k(x: GradedMatrix) -> int:
    """Block-diagonal trace-zero centralizer dimension.  The identity always
    commutes and has nonzero trace, hence the -1."""
    return centralizer_dim_eliminated(x) - 1


def _integer_basis(rows, ncols):
    """A nullspace basis of the system `rows * v = 0`, one vector per free
    column, read straight off the sparse elimination in integers as sparse
    (column, value) lists: the free column gets L, the lcm of the pivot
    entries, and each pivot column, in pivot order, its multiple of L.
    Each vector is L times the rational basis vector whose free entry is
    1.  The elimination reference for the oracle's union-find basis."""
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


def centralizer_g1(x: GradedMatrix):
    """Dimension and an integer basis, read off `_integer_basis`, of the
    opposite-degree centralizer {y : x y = y x} in the degree -(deg x)
    block space."""
    cells, rows = _commutator_rows(x, -x.degree)
    basis = []
    for vec in _integer_basis(rows, len(cells)):
        blocks = _zero_blocks(x.grading.dims, -x.degree)
        for k, v in vec:
            i, r, c = cells[k]
            blocks[i][r][c] = v
        basis.append(GradedMatrix(x.grading, -x.degree, tuple(tuple(map(tuple, b)) for b in blocks)))
    return len(basis), basis


def reference_nullspace(rows, ncols):
    """Rank and a nullspace basis of the system `rows * v = 0`, computed by
    exact Gauss-Jordan elimination over the rationals."""
    m = [list(map(Fraction, row)) for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    pivot_set = set(pivots)
    basis = []
    for free_col in range(ncols):
        if free_col in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free_col] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][free_col]
        basis.append(tuple(v))
    return len(pivots), basis


def dense_eliminate(rows, ncols):
    """The reference elimination, on dense rows: fraction-free Gauss-Jordan
    in which rows are scaled to integers and each updated row is divided by
    its content (the gcd of its entries), so it stays a nonzero multiple of
    its rational counterpart.  Returns the reduced rows and the pivot
    columns.  An input row that is never updated keeps its content."""
    m = []
    for row in rows:
        den = lcm(*[v.denominator for v in row])
        m.append([int(v * den) for v in row])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv, prow = m[r][c], m[r]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                row = [pv * x - f * y for x, y in zip(m[i], prow)]
                g = gcd(*row)
                m[i] = [v // g for v in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def dense_integer_basis(rows, ncols):
    """`_integer_basis` read off the dense reference elimination: the free
    column gets L, the lcm of the pivot entries, and each pivot column, in
    pivot order, its multiple of L."""
    m, pivots = dense_eliminate(rows, ncols)
    scale = lcm(*[row[pc] for row, pc in zip(m, pivots)])
    pivot_set = set(pivots)
    return [
        [(free, scale)] + [(pc, -row[free] * (scale // row[pc])) for row, pc in zip(m, pivots) if row[free]]
        for free in range(ncols)
        if free not in pivot_set
    ]


def to_sparse(rows):
    """Dense rows as the {column: value} dicts of their nonzeros, the form
    the oracle's systems take."""
    return [{k: v for k, v in enumerate(row) if v} for row in rows]


def to_dense(rows, ncols):
    """Sparse {column: value} rows as dense lists of length ncols."""
    out = []
    for row in rows:
        full = [0] * ncols
        for k, v in row.items():
            full[k] = v
        out.append(full)
    return out


def matrix_rank(rows, ncols) -> int:
    rank, _ = reference_nullspace(rows, ncols)
    return rank


def full_matrix(x: GradedMatrix):
    """Assemble the blocks into one endomorphism of the total space."""
    dims = x.grading.dims
    m = x.grading.modulus
    offsets = [0]
    for v in dims:
        offsets.append(offsets[-1] + v)
    n = offsets[-1]
    out = _zeros(n, n)
    for i in range(1, m + 1):
        tgt = (i - 1 - x.degree) % m
        block = x.blocks[i - 1]
        for r in range(len(block)):
            for c in range(len(block[r])):
                if block[r][c]:
                    out[offsets[tgt] + r][offsets[i - 1] + c] = block[r][c]
    return out


def reference_commutator_rows(x: GradedMatrix, degree: int):
    """The system {z : x z = z x} for block matrices z of the given degree.

    Returns the unknown cells, as (row, column) positions in the full matrix
    taken block by source label and row-major inside a block, and one row of
    x z - z x = 0 per position of degree `degree + x.degree`."""
    dims = x.grading.dims
    m = len(dims)
    offsets = [0]
    for v in dims:
        offsets.append(offsets[-1] + v)

    def positions(deg):
        return [
            (offsets[(i - deg) % m] + r, offsets[i] + c)
            for i in range(m)
            for r in range(dims[(i - deg) % m])
            for c in range(dims[i])
        ]

    cells = positions(degree)
    index = {cell: k for k, cell in enumerate(cells)}
    full = full_matrix(x)
    rows = []
    for r, c in positions(degree + x.degree):
        row = [0] * len(cells)
        for t in range(offsets[-1]):
            if full[r][t] and (t, c) in index:
                row[index[t, c]] += full[r][t]
            if full[t][c] and (r, t) in index:
                row[index[r, t]] -= full[t][c]
        if any(row):
            rows.append(row)
    return cells, rows


def mat_inverse(a):
    n = len(a)
    aug = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pivot_row is None:
            raise ValueError("matrix is singular")
        aug[c], aug[pivot_row] = aug[pivot_row], aug[c]
        pv = aug[c][c]
        aug[c] = [v / pv for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def conjugate(x: GradedMatrix, conjugators) -> GradedMatrix:
    """Conjugate by a block-diagonal invertible element: block i becomes
    P_{i - degree} x_i P_i^{-1}."""
    m = x.grading.modulus
    inverses = [mat_inverse(p) for p in conjugators]
    new_blocks = []
    for i in range(1, m + 1):
        tgt = (i - 1 - x.degree) % m
        prod = mat_mul(mat_mul(conjugators[tgt], [list(r) for r in x.blocks[i - 1]]), inverses[i - 1])
        new_blocks.append(tuple(tuple(Fraction(v) for v in row) for row in prod))
    return GradedMatrix(x.grading, x.degree, tuple(new_blocks))


def random_conjugators(grading: GradingSpec, rng: random.Random):
    """Random invertible block-diagonal element with small integer entries."""
    out = []
    for v in grading.dims:
        while True:
            mat = [[Fraction(rng.randint(-3, 3)) for _ in range(v)] for _ in range(v)]
            if matrix_rank(mat, v) == v:
                out.append(mat)
                break
    return out


def test_build_representative_blocks():
    x = build_representative(diag([(2, 1)], 2))
    assert x.degree == 1
    assert x.blocks[0] == ((Fraction(1),),)
    assert x.blocks[1] == ((Fraction(0),),)


# A graded matrix on the grading (1, 2) of Z/2 whose degree, block count or
# block shape is wrong, and the error it gives.
@pytest.mark.parametrize(
    "degree, blocks, message",
    [
        (0, ((), ()), "degree must be +1 or -1"),
        (1, (((0, 0),),), "expected 2 blocks, got 1"),
        (1, (((0, 0),), ((0, 0),)), "block 1 has the wrong shape"),
    ],
)
def test_graded_matrix_rejects_bad_blocks(degree, blocks, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GradedMatrix(GradingSpec("AI", 2, (1, 2)), degree, blocks)


def representative_strings(x):
    """The label sequences of the strings of a string representative: the
    basis vector (label, index) goes to (label - degree, j) when entry (j,
    index) of the label's block is nonzero; each string starts at a vector
    with no preimage."""
    m = x.grading.modulus
    succ = {}
    for lab, block in enumerate(x.blocks, 1):
        target = (lab - 1 - x.degree) % m + 1
        for j, row in enumerate(block):
            for i, v in enumerate(row):
                if v:
                    assert v == 1 and (lab, i) not in succ
                    succ[lab, i] = (target, j)
    assert len(set(succ.values())) == len(succ)
    vectors = [(lab, i) for lab, v in enumerate(x.grading.dims, 1) for i in range(v)]
    strings = []
    for vec in sorted(set(vectors) - set(succ.values())):
        labels = [vec[0]]
        while vec in succ:
            vec = succ[vec]
            labels.append(vec[0])
        strings.append(tuple(labels))
    return sorted(strings)


@pytest.mark.parametrize("sign", ["+", "-"])
def test_build_representative_places_boxes_at_row_labels(sign):
    for m in range(1, 5):
        for size in range(7):
            for lam in enumerate_by_size(m, sign, size):
                expected = sorted(
                    tuple(naive_row_labels(length, start, m, sign)) for length, start in lam.rows
                )
                assert representative_strings(build_representative(lam)) == expected


def _ranks_of_powers(x, n):
    full = full_matrix(x)
    ranks = []
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(n + 1):
        ranks.append(matrix_rank(power, n))
        power = mat_mul(power, full)
    return ranks


def _jordan_type_from_ranks(ranks):
    # parts >= j occur rank(x^(j-1)) - rank(x^j) times
    counts = [ranks[j - 1] - ranks[j] for j in range(1, len(ranks))]
    parts = []
    for j, c in enumerate(counts, start=1):
        next_c = counts[j] if j < len(counts) else 0
        parts.extend([j] * (c - next_c))
    return tuple(sorted(parts, reverse=True))


def test_representative_jordan_type_and_rank():
    for m in (1, 2, 3):
        for size in range(5):
            for lam in enumerate_by_size(m, "+", size):
                x = build_representative(lam)
                n = lam.size
                ranks = _ranks_of_powers(x, n)
                # rank of x is the box count minus the number of rows
                if n:
                    assert ranks[1] == n - len(lam.rows)
                assert _jordan_type_from_ranks(ranks) == lam.partition
                # nilpotency at the largest part
                if lam.rows:
                    top = lam.partition[0]
                    full = full_matrix(x)
                    power = full
                    for _ in range(top - 1):
                        power = mat_mul(power, full)
                    assert all(v == 0 for row in power for v in row)


def test_centralizer_dims_examples():
    assert centralizer_dim_k(build_representative(diag([(1, 1), (1, 2)], 2))) == 1
    assert centralizer_dim_k(build_representative(diag([(2, 1)], 2))) == 0


def test_centralizer_g1_examples():
    dim, basis = centralizer_g1(build_representative(diag([(2, 1)], 2)))
    assert dim == 1 and len(basis) == 1
    assert basis[0].degree == -1
    # x = 0: the whole opposite-degree space commutes
    dim, _ = centralizer_g1(build_representative(diag([(1, 1), (1, 2)], 2)))
    assert dim == 2


def test_centralizer_g1_basis_commutes_and_is_independent():
    for m in (1, 2, 3):
        for sign in ("+", "-"):
            for size in range(6):
                for lam in enumerate_by_size(m, sign, size):
                    x = build_representative(lam)
                    full_x = full_matrix(x)
                    dim, basis = centralizer_g1(x)
                    assert len(basis) == dim
                    flat = []
                    for y in basis:
                        assert y.degree == -x.degree
                        full_y = full_matrix(y)
                        assert mat_mul(full_x, full_y) == mat_mul(full_y, full_x)
                        flat.append([v for row in full_y for v in row])
                    assert matrix_rank(flat, size * size) == dim


def test_orbit_dim_identity():
    for m in (1, 2, 3):
        for size in range(5):
            for dims in compositions(size, m):
                for lam in enumerate_diagrams(m, "+", dims):
                    x = build_representative(lam)
                    if size:
                        assert orbit_dim(lam) + centralizer_dim_k(x) == sum(
                            v * v for v in dims
                        ) - 1


def test_orbit_dim_examples():
    assert orbit_dim(diag([(2, 1)], 2)) == 1
    assert orbit_dim(empty_diagram(2, "+")) == 0
    # minus-convention diagrams dualize internally
    assert orbit_dim(canonicalize([(2, 1)], 2, "-")) == 1


def test_single_row_orbit_is_maximal():
    for m in (1, 2, 3):
        for size in range(1, 6):
            for dims in compositions(size, m):
                orbits = enumerate_diagrams(m, "+", dims)
                if not orbits:
                    continue
                dims_by_orbit = {lam: orbit_dim(lam) for lam in orbits}
                single_rows = [lam for lam in orbits if lam.partition == (size,)]
                if single_rows:
                    top = max(dims_by_orbit.values())
                    assert max(dims_by_orbit[lam] for lam in single_rows) == top


def test_conjugation_invariance():
    rng = random.Random(7)
    cases = [
        diag([(2, 1)], 2),
        diag([(2, 1), (1, 1)], 2),
        diag([(3, 2), (1, 1)], 3),
        diag([(2, 2), (2, 1)], 3),
    ]
    for lam in cases:
        x = build_representative(lam)
        base_k = centralizer_dim_k(x)
        assert base_k == centralizer_dim_gl(lam) - 1
        base_g1 = centralizer_g1(x)[0]
        for _ in range(3):
            y = conjugate(x, random_conjugators(x.grading, rng))
            assert centralizer_dim_k(y) == base_k
            assert centralizer_g1(y)[0] == base_g1


def _block_system_in_full_positions(x, degree):
    """The block system of `_commutator_rows`, its cells (i, r, c) mapped to
    their full-matrix positions (offset[i - degree] + r, offset[i] + c) and
    its sparse rows written out densely."""
    dims = x.grading.dims
    m = len(dims)
    offsets = [sum(dims[:i]) for i in range(m)]
    cells, rows = _commutator_rows(x, degree)
    assert all(all(row.values()) for row in rows), "a sparse row holds a zero"
    positions = [(offsets[(i - degree) % m] + r, offsets[i] + c) for i, r, c in cells]
    return positions, to_dense(rows, len(cells))


def test_block_system_matches_the_full_matrix_system():
    checked = 0
    for m in range(1, 5):
        for sign in ("+", "-"):
            for size in range(7):
                for lam in enumerate_by_size(m, sign, size):
                    x = build_representative(lam)
                    for degree in (0, -x.degree):
                        assert _block_system_in_full_positions(x, degree) == (
                            reference_commutator_rows(x, degree)
                        ), (lam, degree)
                    checked += 1
    assert checked == 3148


def test_block_system_matches_the_full_matrix_system_on_rational_conjugates():
    rng = random.Random(11)
    for rows, k, sign in (
        ([(2, 1)], 2, "+"),
        ([(2, 1), (1, 1)], 2, "-"),
        ([(3, 2), (1, 1)], 3, "+"),
        ([(2, 2), (2, 1)], 3, "-"),
        ([(3, 1), (2, 1)], 1, "+"),
        ([(4, 1), (2, 3)], 4, "-"),
    ):
        lam = diag(rows, k, sign)
        x = build_representative(lam)
        for _ in range(2):
            y = conjugate(x, random_conjugators(x.grading, rng))
            assert any(type(v) is Fraction for b in y.blocks for row in b for v in row)
            for degree in (0, -y.degree):
                assert _block_system_in_full_positions(y, degree) == (
                    reference_commutator_rows(y, degree)
                ), (lam, degree)


def test_centralizer_g1_basis_is_a_positive_multiple_of_the_rational_basis():
    for m in (1, 2, 3):
        for sign in ("+", "-"):
            for size in range(6):
                for lam in enumerate_by_size(m, sign, size):
                    x = build_representative(lam)
                    cells, rows = reference_commutator_rows(x, -x.degree)
                    rank, reference = reference_nullspace(rows, len(cells))
                    dim, basis = centralizer_g1(x)
                    assert dim == len(cells) - rank == len(basis) == len(reference)
                    for y, vec in zip(basis, reference):
                        full_y = full_matrix(y)
                        entries = [full_y[r][c] for r, c in cells]
                        assert all(type(v) is int for b in y.blocks for row in b for v in row)
                        assert [v == 0 for v in entries] == [v == 0 for v in vec]
                        ratios = {Fraction(v) / w for v, w in zip(entries, vec) if w}
                        assert len(ratios) == 1 and ratios.pop() > 0, lam


def test_oracle_examples():
    assert is_distinguished_oracle(diag([(2, 1)], 2))
    assert not is_distinguished_oracle(diag([(1, 1), (1, 2)], 2))
    assert is_distinguished_oracle(empty_diagram(2, "+"))


def opposite_basis(lam):
    """(dims, supports, start, degree) as the oracle sees them on the
    diagram's own string: its box counts, the integer basis of the
    centralizer at the opposite degree, a label of smallest dimension and
    that degree, the degree of y."""
    degree, entries, dims = _string_entries(lam)
    basis = _opposite_basis(*cell_roots(degree, entries, dims, -degree))
    return dims, basis, dims.index(min(dims)), -degree


def small_ai_diagrams(max_m, max_size):
    for m in range(1, max_m + 1):
        for sign in ("+", "-"):
            for size in range(max_size + 1):
                yield from enumerate_by_size(m, sign, size)


def nil_certificate(lam):
    """The span walk on the basis, the reference of the oracle's walk."""
    dims, supports, start, degree = opposite_basis(lam)
    return _words_kill(supports, dims, start, degree)


def test_nil_certificate_holds_exactly_on_distinguished_diagrams():
    checked = 0
    for lam in small_ai_diagrams(4, 7):
        assert nil_certificate(lam) == is_distinguished_ai(lam, 1), lam
        checked += 1
    assert checked == 6736


def test_end_rule_gives_the_union_find_live_cells():
    """The oracle reads each cell as live or dead off the two ends of its
    diagonal; the union-find over every cell is its reference, cell by
    cell, with y of degree -e mapping label i to label i + e."""
    checked = 0
    for lam in small_ai_diagrams(4, 7):
        degree, boxes = _box_positions(lam)
        x_degree, entries, dims = _string_entries(lam)
        assert degree == x_degree and tuple(map(len, boxes)) == dims, lam
        # x maps box c at label i to box r at label i - e, one step down its row
        for i, r, c, _ in entries:
            above, rest = boxes[i][c]
            assert boxes[(i - degree) % len(dims)][r] == (above + 1, rest - 1), lam
        assert rule_live_cells(lam) == root_live_cells(lam), lam
        checked += 1
    assert checked == 6736


def test_reachability_certificate_is_the_span_walk_on_the_basis():
    """The oracle's certificate walks sets of coordinates through the live
    cells; the span walk on the basis is its reference.  The set walk is
    exact because no basis element has two cells in one (block, column),
    so every image of a coordinate vector is a coordinate vector or 0."""
    checked = 0
    for lam in small_ai_diagrams(4, 7):
        degree, entries, dims = _string_entries(lam)
        basis = _opposite_basis(*cell_roots(degree, entries, dims, -degree))
        for element in basis:
            columns = [(i, c) for (i, _, c), _ in element]
            assert len(columns) == len(set(columns)), lam
        start = dims.index(min(dims))
        assert is_distinguished_oracle(lam) == _words_kill(basis, dims, start, -degree), lam
        checked += 1
    assert checked == 6736


class _Reads(list):
    """A list that records the indexes read from it."""

    def __init__(self, items):
        super().__init__(items)
        self.read = []

    def __getitem__(self, i):
        self.read.append(i)
        return super().__getitem__(i)


def test_oracle_walks_in_the_direction_of_y(monkeypatch):
    """y of degree -e maps label i to label i + e, so the walk reads labels
    s + e, s + 2e, ...  A walk stepping i -> i - e gives the same verdicts,
    as a dual pair gets one verdict, but tests the other centralizer."""
    stepped = 0
    for lam in small_ai_diagrams(4, 6):
        degree, boxes = _box_positions(lam)
        m, reads = len(boxes), _Reads(boxes)
        monkeypatch.setattr(oracle, "_box_positions", lambda _: (degree, reads))
        is_distinguished_oracle(lam)
        monkeypatch.undo()
        start = boxes.index(min(boxes, key=len))
        assert reads.read == [(start + t * degree) % m for t in range(1, len(reads.read) + 1)], lam
        stepped += m > 2 and bool(reads.read)
    assert stepped == 1272


def test_every_false_verdict_has_a_non_nilpotent_witness():
    """Where the oracle's walk keeps a nonempty set, y_1, the 0/1 matrix of
    the end rule's live cells, commutes with x and is not nilpotent by the
    trace kernel, a reference independent of the walk."""
    witnessed = 0
    for lam in small_ai_diagrams(4, 7):
        if is_distinguished_oracle(lam):
            continue
        degree, _, dims = _string_entries(lam)
        blocks = _zero_blocks(dims, -degree)
        for i, r, c in rule_live_cells(lam):
            blocks[i][r][c] = 1
        grading = GradingSpec("AI", len(dims), dims)
        y = full_matrix(GradedMatrix(grading, -degree, tuple(tuple(map(tuple, b)) for b in blocks)))
        x = full_matrix(build_representative(lam))
        assert mat_mul(x, y) == mat_mul(y, x), lam
        assert not _trace_kernel_is_nilpotent(y, grading.total), lam
        witnessed += 1
    assert witnessed == 570


def test_oracle_gives_a_dual_pair_one_verdict():
    """The oracle decides on the diagram's own string, with y of the
    opposite degree; the dual's string is the transpose of it up to a
    permutation inside each label, so the two verdicts agree."""
    checked = 0
    for lam in small_ai_diagrams(4, 7):
        assert is_distinguished_oracle(lam) == is_distinguished_oracle(duality(lam)), lam
        checked += 1
    assert checked == 6736


def test_certified_combinations_are_nilpotent_by_trace_kernel():
    rng = random.Random(11)
    checked = 0
    for lam in small_ai_diagrams(3, 6):
        if not nil_certificate(lam):
            continue
        dims, supports, _, degree = opposite_basis(lam)
        grading = GradingSpec("AI", len(dims), dims)
        for _ in range(3):
            blocks = _zero_blocks(dims, degree)
            for support in supports:
                coeff = rng.randint(-9, 9)
                for (i, r, c), v in support:
                    blocks[i][r][c] += coeff * v
            y = GradedMatrix(grading, degree, tuple(tuple(map(tuple, b)) for b in blocks))
            assert _trace_kernel_is_nilpotent(full_matrix(y), grading.total), lam
        checked += 1
    assert checked == 946


def test_nil_certificate_stops_within_m_rounds_per_dimension(monkeypatch):
    calls = []
    eliminate = _eliminate

    def counting(rows, ncols):
        calls.append(ncols)
        return eliminate(rows, ncols)

    undecided = 0
    for lam in small_ai_diagrams(4, 7):
        if is_distinguished_ai(lam, 1):
            continue
        dims, supports, start, degree = opposite_basis(lam)
        # the name `_words_kill` looks up
        monkeypatch.setitem(globals(), "_eliminate", counting)
        calls.clear()
        assert not _words_kill(supports, dims, start, degree), lam
        monkeypatch.undo()
        m, d = len(dims), dims[start]
        assert 0 < len(calls) <= m * (d + 1), lam
        # whole rounds of m steps, and the span, never 0, drops at most
        # d - 1 times, so at most d rounds
        assert len(calls) % m == 0 and len(calls) <= m * d, lam
        undecided += 1
    assert undecided == 570


def test_oracle_agrees_with_predicate_beyond_n_nine():
    checked = 0
    for k in (1, 2, 3):
        for size in (10, 11, 12):
            for lam in enumerate_by_size(k, "-", size):
                assert is_distinguished_oracle(lam) == is_distinguished_ai(lam, 1), lam
                checked += 1
    assert checked == 17680


def reference_oracle(diagram, trials=20, seed=0):
    """The Monte Carlo oracle on the whole N x N matrix: combinations of the
    `Fraction` basis scaled to integers, each squared until it vanishes."""
    plus = diagram if diagram.sign == "+" else duality(diagram)
    x = build_representative(plus)
    cells, rows = reference_commutator_rows(x, -x.degree)
    _, basis = reference_nullspace(rows, len(cells))
    if not basis:
        return True
    n = x.grading.total
    scale = lcm(*[v.denominator for vec in basis for v in vec])
    supports = [[(cells[k], int(v * scale)) for k, v in enumerate(vec) if v] for vec in basis]
    bound = max(9, n)
    rng = random.Random(seed)
    for _ in range(trials):
        combo = _zeros(n, n)
        for support in supports:
            coeff = rng.randint(-bound, bound)
            for (r, c), v in support:
                combo[r][c] += coeff * v
        if not _is_nilpotent(combo, n):
            return False
    return True


def test_oracle_matches_the_full_matrix_oracle():
    checked = 0
    for m in range(1, 5):
        for sign in ("+", "-"):
            for size in range(7):
                for lam in enumerate_by_size(m, sign, size):
                    for seed in (0, 7):
                        assert is_distinguished_oracle(lam) == reference_oracle(
                            lam, seed=seed
                        ), (lam, seed)
                    checked += 1
    assert checked == 3148


def test_oracle_agrees_with_predicate_quick():
    for m in (1, 2):
        for size in range(5):
            for lam in enumerate_by_size(m, "-", size):
                assert is_distinguished_oracle(lam) == is_distinguished_ai(lam, 1)


def test_stratum_dim_examples():
    g = GradingSpec("AI", 2, (1, 1))
    stratum = Stratum(1, 1, empty_diagram(2), 2)
    assert stratum_dim_ai(stratum, g) == 2 == g.dim_g1
    nilp = Stratum(1, 0, canonicalize([(2, 1)], 2, "-"), 2)
    # l = 0 strata have the dimension of the underlying orbit
    assert stratum_dim_ai(nilp, g) == orbit_dim(canonicalize([(2, 1)], 2, "-"))


def test_dense_stratum_dimension():
    for m in (1, 2, 3):
        for total in range(m, 7, m):
            dims = (total // m,) * m
            g = GradingSpec("AI", m, dims)
            for a in range(1, m + 1):
                if m % a:
                    continue
                strata = enumerate_strata(g, a)
                dense = [s for s in strata if s.mu.is_empty]
                assert len(dense) == 1
                assert stratum_dim_ai(dense[0], g) == g.dim_g1


@st.composite
def small_diagrams(draw, max_m=4, max_size=8):
    """A diagram of either sign with modulus <= `max_m` and at most
    `max_size` boxes, built row by row."""
    m = draw(st.integers(1, max_m))
    sign = draw(st.sampled_from(["+", "-"]))
    room = draw(st.integers(0, max_size))
    rows = []
    while room:
        length = draw(st.integers(1, room))
        rows.append((length, draw(st.integers(1, m))))
        room -= length
    return canonicalize(rows, m, sign)


@given(small_diagrams(8, 16))
def test_end_rule_walk_matches_the_union_find_walk(lam):
    """On random diagrams past the exhaustive range, the oracle's verdict
    is the union-find walk's, and its live cells are the union-find's."""
    degree, entries, dims = _string_entries(lam)
    start = dims.index(min(dims))
    found = _cell_roots(degree, entries, dims, -degree)
    assert is_distinguished_oracle(lam) == _reaches_nothing(*found, dims, -degree, start)
    assert rule_live_cells(lam) == root_live_cells(lam)


@given(small_diagrams())
def test_centralizer_dim_matches_nullspace(lam):
    assert centralizer_dim(lam) == centralizer_dim_gl(lam) == centralizer_dim_eliminated(build_representative(lam))


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize(
    "rows, m",
    [
        ([(2, 1)] * 3 + [(1, 2)] * 2, 2),
        ([(3, 1)] * 2 + [(1, 1)] * 3, 1),
        ([(3, 1)] * 2 + [(3, 2)] * 2 + [(1, 1)] * 3, 3),
        ([(4, 2)] * 2 + [(2, 2)] * 3 + [(2, 1)] + [(1, 3)] * 4, 3),
        ([(5, 4)] * 2 + [(5, 1)] * 2 + [(2, 3)] * 4 + [(1, 2)] * 2, 4),
    ],
)
def test_centralizer_dim_repeated_row_types(rows, m, sign):
    # the closed form weights each pair of row types by its multiplicities
    lam = diag(rows, m, sign)
    assert centralizer_dim(lam) == centralizer_dim_gl(lam) == centralizer_dim_eliminated(build_representative(lam))


def test_centralizer_dim_matches_the_union_find_beyond_n_eight():
    """The closed form, and so `orbit_dim`, against the union-find count on
    every diagram of both signs at sizes no other exhaustive test reaches:
    m <= 3 with 9 <= N <= 12, and m = 4 with N in {9, 10}."""
    checked = 0
    for m, sizes in ((1, range(9, 13)), (2, range(9, 13)), (3, range(9, 13)), (4, (9, 10))):
        for sign in ("+", "-"):
            for size in sizes:
                for lam in enumerate_by_size(m, sign, size):
                    c = centralizer_dim_gl(lam)
                    assert centralizer_dim(lam) == c, lam
                    assert orbit_dim(lam) == sum(v * v for v in dimension_vector(lam)) - c, lam
                    checked += 1
    assert checked == 69554


def _stratum_dim_nullspace(stratum, g):
    """The stratum dimension with c_mu taken from the oracle's component
    count."""
    c_mu = centralizer_dim_gl(stratum.mu)
    per_label = stratum.a // gcd(stratum.a, g.modulus)
    return sum(v * v for v in g.dims) - c_mu - stratum.rank * per_label + stratum.rank


def test_stratum_dim_matches_nullspace_exhaustive():
    checked = 0
    for m in (1, 2, 3):
        for total in range(1, 7):
            for dims in compositions(total, m):
                g = GradingSpec("AI", m, dims)
                for a in range(1, total + 1):
                    if total % a:
                        continue
                    for stratum in enumerate_strata(g, a):
                        assert stratum_dim_ai(stratum, g) == _stratum_dim_nullspace(stratum, g)
                        checked += 1
    assert checked == 613


ENTRIES = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
)


@st.composite
def small_systems(draw):
    """Up to 8 rows of up to 10 small integer or rational entries, some rows
    zero; systems with no rows or no columns included."""
    ncols = draw(st.integers(0, 10))
    zero_row = st.just([0] * ncols)
    row = st.lists(ENTRIES, min_size=ncols, max_size=ncols)
    return draw(st.lists(st.one_of(zero_row, row), max_size=8)), ncols


@given(small_systems())
@example(([[0, -3, 6], [-2, 1, 0]], 3))
@example(([[2, 4, 6], [Fraction(1, 3), 0, Fraction(-2, 3)], [0, 0, 0]], 3))
@example(([], 2))
@example(([[]], 0))
def test_integer_basis_is_one_positive_multiple_of_the_nullspace_basis(system):
    rows, ncols = system
    basis = reference_nullspace(rows, ncols)[1]
    integer = _integer_basis(to_sparse(rows), ncols)
    assert len(integer) == len(basis)
    ratios = set()
    for sparse, vec in zip(integer, basis):
        dense = [0] * ncols
        for k, v in sparse:
            dense[k] = v
        assert all(type(v) is int for v in dense)
        assert [v == 0 for v in dense] == [v == 0 for v in vec]
        ratios.update(Fraction(v) / w for v, w in zip(dense, vec) if w)
    assert len(ratios) <= 1 and all(r > 0 for r in ratios)


@given(small_systems())
def test_elimination_entries_stay_within_hadamard_bound(system):
    """Each row of the elimination is proportional to a vector of minors of
    the integer-scaled system; once divided by its content it divides that
    vector, so no entry exceeds Hadamard's bound, the product of the row
    norms.  Without the content division the entries outgrow it."""
    rows, ncols = system
    bound_sq = 1
    for row in rows:
        den = lcm(*[v.denominator for v in row])
        bound_sq *= max(1, sum((v * den) ** 2 for v in row))
    reduced, pivots = _eliminate(to_sparse(rows), ncols)
    assert len(pivots) == reference_nullspace(rows, ncols)[0]
    assert all(type(v) is int and v * v <= bound_sq for row in to_dense(reduced, ncols) for v in row)


@given(small_systems())
@example(([[2, 4, 6], [Fraction(1, 3), 0, Fraction(-2, 3)], [0, 0, 0]], 3))
def test_sparse_elimination_matches_the_dense_reference(system):
    """The same pivot columns, and each pivot row a primitive multiple of
    the reference's: both are the reduced row echelon form up to row
    scaling."""
    rows, ncols = system
    reduced, pivots = _eliminate(to_sparse(rows), ncols)
    reference, reference_pivots = dense_eliminate(rows, ncols)
    assert pivots == reference_pivots
    assert len(reduced) == len(pivots)
    for row, ref in zip(to_dense(reduced, ncols), reference):
        assert gcd(*row) == 1
        assert len({Fraction(v, w) for v, w in zip(row, ref) if w}) == 1
        assert [v == 0 for v in row] == [w == 0 for w in ref]


def test_opposite_basis_matches_the_dense_reference():
    """The union-find basis is the dense elimination's integer basis of the
    dense representative's system exactly: every input row has content 1,
    so every pivot row is primitive and the lcm scale of the basis is 1."""
    checked = 0
    for lam in small_ai_diagrams(4, 7):
        x = build_representative(lam)
        cells, rows = _commutator_rows(x, -x.degree)
        reference = [
            [(cells[k], v) for k, v in vec] for vec in dense_integer_basis(to_dense(rows, len(cells)), len(cells))
        ]
        degree, entries, dims = _string_entries(lam)
        assert _opposite_basis(*cell_roots(degree, entries, dims, -degree)) == reference, lam
        checked += 1
    assert checked == 6736


@given(small_diagrams())
def test_opposite_basis_is_the_elimination_basis_of_its_system(lam):
    """On either sign, the union-find basis is the sparse elimination's
    integer basis of `_commutator_system`'s rows, list for list: every
    value is 1 and the supports are pairwise disjoint."""
    degree, entries, dims = _string_entries(lam)
    cells, rows = _commutator_system(dims, degree, entries, -degree)
    basis = _opposite_basis(*cell_roots(degree, entries, dims, -degree))
    assert basis == [[(cells[k], v) for k, v in vec] for vec in _integer_basis(rows, len(cells))]
    assert all(v == 1 for vec in basis for _, v in vec)
    support = [cell for vec in basis for cell, _ in vec]
    assert len(support) == len(set(support))


def test_string_entries_are_the_dense_representative_and_its_systems():
    """The oracle builds its systems from the rows; `_string_entries`' entries
    are the nonzeros of the dense representative, scanned entry by entry,
    and its systems are the dense representative's, row for row in the same
    order, at every degree.  At degree 0 the union-find's live components
    number the cells minus the elimination's rank of the same system."""
    checked = 0
    for lam in small_ai_diagrams(4, 7):
        x = build_representative(lam)
        degree, entries, dims = _string_entries(lam)
        dense = [
            (i, r, c, v)
            for i, block in enumerate(x.blocks)
            for r, row in enumerate(block)
            for c, v in enumerate(row)
            if v
        ]
        assert degree == x.degree
        assert dims == dimension_vector(lam)
        assert sorted(entries) == dense, lam
        for z_degree in (0, 1, -1):
            cells, rows = _commutator_system(dims, degree, entries, z_degree)
            ref_cells, ref_rows = _commutator_rows(x, z_degree)
            assert cells == ref_cells
            assert [list(row.items()) for row in rows] == [list(row.items()) for row in ref_rows], lam
            if z_degree == 0:
                _, roots, dead = cell_roots(degree, entries, dims, 0)
                live = len(set(roots) - dead)
                assert live == len(cells) - len(_eliminate(rows, len(cells))[1]) == centralizer_dim_gl(lam), lam
        checked += 1
    assert checked == 6736


def test_representative_entries_are_ints():
    for lam in enumerate_by_size(3, "+", 5):
        x = build_representative(lam)
        assert all(type(v) is int for block in x.blocks for row in block for v in row)


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _reference_power_is_zero(a, n):
    """Whether a^n = 0, by n products over the rationals."""
    a = [[Fraction(v) for v in row] for row in a]
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(n):
        power = _product(power, a)
    return all(v == 0 for row in power for v in row)


@st.composite
def unimodular_conjugates(draw):
    """(n, U T U^-1, U T' U^-1): T strictly upper triangular with small integer
    entries, T' the same with one nonzero diagonal entry, U a product of
    integer row operations and a row permutation."""
    n = draw(st.integers(1, 8))
    t = [[draw(st.integers(-3, 3)) if j > i else 0 for j in range(n)] for i in range(n)]
    k = draw(st.integers(0, n - 1))
    t_eig = [row[:] for row in t]
    t_eig[k][k] = draw(st.integers(-3, 3).filter(bool))
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inv = [row[:] for row in u]
    for _ in range(draw(st.integers(0, 2 * n)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        f = draw(st.integers(-2, 2))
        # row i += f * row j on U; column j -= f * column i on U^-1
        u[i] = [x + f * y for x, y in zip(u[i], u[j])]
        for row in u_inv:
            row[j] -= f * row[i]
    perm = draw(st.permutations(range(n)))
    u = [u[p] for p in perm]
    u_inv = [[row[p] for p in perm] for row in u_inv]
    assert _product(u, u_inv) == [[int(i == j) for j in range(n)] for i in range(n)]
    return n, _product(_product(u, t), u_inv), _product(_product(u, t_eig), u_inv)


@given(unimodular_conjugates())
def test_integer_nilpotency_kernel(case):
    n, nilpotent, with_eigenvalue = case
    assert all(type(v) is int for row in nilpotent + with_eigenvalue for v in row)
    # with one label, the walk on one element decides its nilpotency
    assert _words_kill([block_cells([nilpotent])], (n,), 0) is True
    assert _words_kill([block_cells([with_eigenvalue])], (n,), 0) is False
    assert _is_nilpotent(nilpotent, n) is True
    assert _is_nilpotent(with_eigenvalue, n) is False
    assert _reference_power_is_zero(nilpotent, n)
    assert not _reference_power_is_zero(with_eigenvalue, n)


def _trace_kernel_is_nilpotent(a, n):
    """Whether the n x n matrix is nilpotent, by Newton's identities: over a
    field of characteristic 0, a is nilpotent iff tr(a^k) = 0 for k = 1..n."""
    power = a
    for _ in range(n):
        if sum(power[i][i] for i in range(n)):
            return False
        power = _product(power, a)
    return True


@st.composite
def graded_degree_minus_one(draw):
    """(dims, blocks) of a Z/m-graded integer matrix of degree -1, m <= 4 and
    every dimension <= 3, some of them 0; block i maps label i to label i + 1 (labels from 0).
    Half the draws make every block upper triangular and one of them strictly
    so; then every cycle product is strictly upper triangular, and the matrix
    is nilpotent."""
    m = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    # a zero-dimensional label in about a quarter of the draws
    if draw(st.integers(0, 3)) == 0:
        dims[draw(st.integers(0, m - 1))] = 0
    dims = tuple(dims)
    triangular = draw(st.booleans())
    strict = draw(st.integers(0, m - 1))
    blocks = []
    for i in range(m):
        blocks.append([
            [
                draw(st.integers(-3, 3))
                if not triangular or r < c or (r == c and i != strict) else 0
                for c in range(dims[i])
            ]
            for r in range(dims[(i + 1) % m])
        ])
    return dims, blocks


@given(graded_degree_minus_one())
@example(((2,), [[[1, 0], [0, 0]]]))
@example(((1, 2), [[[1], [0]], [[0, 1]]]))
@example(((2, 2), [[[0, 1], [0, 0]], [[1, 0], [0, 1]]]))
@example(((0, 3, 1), [[[], [], []], [[1, 2, 3]], []]))
def test_cycle_product_and_trace_kernel_agree_with_full_matrix(case):
    """The walk on one element y at any label, which tests y's cycle product
    there, decides y's nilpotency: the cycle products share their nonzero
    eigenvalues, and a zero-dimensional label makes them all 0."""
    dims, blocks = case
    y = GradedMatrix(
        GradingSpec("AI", len(dims), dims), -1, tuple(tuple(map(tuple, b)) for b in blocks)
    )
    full = full_matrix(y)
    n = sum(dims)
    nilpotent = _trace_kernel_is_nilpotent(full, n)
    assert _is_nilpotent(full, n) == nilpotent
    for start in range(len(dims)):
        assert _words_kill([block_cells(blocks)], dims, start) == nilpotent, start
