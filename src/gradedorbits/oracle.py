"""Exact linear-algebra oracle for the cyclic-quiver realization (case AI).

A filled diagram is realized as a block matrix with one basis vector per box;
centralizer dimensions come from exact nullspaces of commutator maps over the
rationals, and a seeded Monte Carlo test certifies non-distinguishedness by
exhibiting a non-nilpotent element of the opposite-degree centralizer.

The library's orbit and stratum dimensions come from the closed form in
`orbits` (`centralizer_dim`, `orbit_dim`, `stratum_dim_ai`); the nullspace
path here (`centralizer_dim_gl`, `centralizer_dim_k`) is the independent
reference that the tests compare them against.

Rank decisions are exact: no floating point is used anywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .diagrams import FilledDiagram, PLUS, dimension_vector
from .orbits import GradingSpec, duality

Matrix = tuple[tuple[Fraction, ...], ...]


def _zeros(rows: int, cols: int) -> list[list[Fraction]]:
    return [[Fraction(0)] * cols for _ in range(rows)]


def _freeze(mat) -> Matrix:
    return tuple(tuple(Fraction(v) for v in row) for row in mat)


def mat_mul(a, b):
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


def mat_is_zero(a) -> bool:
    return all(v == 0 for row in a for v in row)


def nullspace(rows, ncols):
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


def matrix_rank(rows, ncols) -> int:
    rank, _ = nullspace(rows, ncols)
    return rank


@dataclass(frozen=True)
class GradedMatrix:
    """Block matrix of pure degree: block(i) maps the label-i summand to the
    label-(i - degree) summand."""

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

    def block(self, label: int) -> Matrix:
        return self.blocks[label - 1]


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
        block = x.block(i)
        for r in range(len(block)):
            for c in range(len(block[r])):
                if block[r][c]:
                    out[offsets[tgt] + r][offsets[i - 1] + c] = block[r][c]
    return out


def build_representative(diagram: FilledDiagram, grading: GradingSpec | None = None) -> GradedMatrix:
    """String representative of the orbit: one basis vector per box, each box
    mapped to its right neighbour (zero at the row end).

    The result has degree +1 for a '+' diagram and -1 for a '-' diagram, and
    its Jordan type is the underlying partition.
    """
    if grading is None:
        grading = GradingSpec("AI", diagram.modulus, dimension_vector(diagram))
    if grading.case != "AI":
        raise ValueError("representatives are built for case AI only")
    if dimension_vector(diagram) != grading.dims:
        raise ValueError("diagram box counts do not match the grading")
    m = diagram.modulus
    degree = 1 if diagram.sign == PLUS else -1
    dims = grading.dims
    blocks = [_zeros(dims[(i - degree) % m], dims[i]) for i in range(m)]
    next_index = [0] * m
    for row in diagram.rows:
        labels = row.box_labels(m, diagram.sign)
        indices = []
        for lab in labels:
            indices.append(next_index[lab - 1])
            next_index[lab - 1] += 1
        for t in range(len(labels) - 1):
            src = labels[t]
            blocks[src - 1][indices[t + 1]][indices[t]] = Fraction(1)
    return GradedMatrix(grading, degree, tuple(_freeze(b) for b in blocks))


def _g0_commutator_rows(x: GradedMatrix):
    """Linear system on block-diagonal z expressing z x = x z."""
    g = x.grading
    m = g.modulus
    dims = g.dims
    deg = x.degree
    offsets = [0]
    for v in dims:
        offsets.append(offsets[-1] + v * v)
    n_unknowns = offsets[-1]
    rows = []
    for i in range(1, m + 1):
        src = dims[i - 1]
        tgt_label = (i - 1 - deg) % m
        tgt = dims[tgt_label]
        xb = x.block(i)
        for r in range(tgt):
            for c in range(src):
                row = [Fraction(0)] * n_unknowns
                for t in range(tgt):
                    if xb[t][c]:
                        row[offsets[tgt_label] + r * tgt + t] += xb[t][c]
                for t in range(src):
                    if xb[r][t]:
                        row[offsets[i - 1] + t * src + c] -= xb[r][t]
                if any(row):
                    rows.append(row)
    return rows, n_unknowns


def centralizer_dim_gl(x: GradedMatrix) -> int:
    """Dimension of the block-diagonal centralizer inside the full product of
    general linear Lie algebras (no trace condition)."""
    rows, n_unknowns = _g0_commutator_rows(x)
    return n_unknowns - matrix_rank(rows, n_unknowns)


def centralizer_dim_k(x: GradedMatrix) -> int:
    """Block-diagonal trace-zero centralizer dimension.  The identity always
    commutes and has nonzero trace, hence the -1."""
    return centralizer_dim_gl(x) - 1


def centralizer_g1(x: GradedMatrix):
    """Dimension and exact basis of the opposite-degree centralizer
    {y : x y = y x} in the degree -(deg x) block space."""
    g = x.grading
    m = g.modulus
    dims = g.dims
    deg = x.degree
    shapes = [(dims[(i + deg) % m], dims[i]) for i in range(m)]
    offsets = [0]
    for tgt, src in shapes:
        offsets.append(offsets[-1] + tgt * src)
    n_unknowns = offsets[-1]
    rows = []
    for i in range(1, m + 1):
        di = dims[i - 1]
        up = (i - 1 + deg) % m      # label of M_{i+deg}, the y_i target
        down = (i - 1 - deg) % m    # label of M_{i-deg}, the x_i target
        x_up = x.block(up + 1)      # maps M_{i+deg} -> M_i
        x_i = x.block(i)            # maps M_i -> M_{i-deg}
        d_up = dims[up]
        d_down = dims[down]
        for r in range(di):
            for c in range(di):
                row = [Fraction(0)] * n_unknowns
                for t in range(d_up):
                    if x_up[r][t]:
                        row[offsets[i - 1] + t * di + c] += x_up[r][t]
                for t in range(d_down):
                    if x_i[t][c]:
                        row[offsets[down] + r * d_down + t] -= x_i[t][c]
                if any(row):
                    rows.append(row)
    dim, vectors = nullspace(rows, n_unknowns)
    dim = n_unknowns - dim
    basis = []
    for vec in vectors:
        blocks = []
        for i in range(m):
            tgt, src = shapes[i]
            base = offsets[i]
            blocks.append(
                tuple(
                    tuple(vec[base + r * src + c] for c in range(src))
                    for r in range(tgt)
                )
            )
        basis.append(GradedMatrix(g, -deg, tuple(blocks)))
    return dim, basis


def _is_nilpotent(full, n: int) -> bool:
    """Whether the n x n matrix is nilpotent, by repeated squaring."""
    if n == 0:
        return True
    power = full
    steps = 1
    while True:
        if mat_is_zero(power):
            return True
        if steps >= n:
            return False
        power = mat_mul(power, power)
        steps *= 2


def is_distinguished_oracle(diagram: FilledDiagram, trials: int = 20, seed: int = 0) -> bool:
    """Monte Carlo distinguishedness test.

    Samples random integer combinations (coefficients in [-9, 9], seeded) of
    an exact basis of the opposite-degree centralizer and checks nilpotency.
    A False answer is certain; True may err with probability vanishing in the
    number of trials.
    """
    plus = diagram if diagram.sign == PLUS else duality(diagram)
    grading = GradingSpec("AI", plus.modulus, dimension_vector(plus))
    x = build_representative(plus, grading)
    _, basis = centralizer_g1(x)
    if not basis:
        return True
    n = grading.total
    full_basis = [full_matrix(b) for b in basis]
    rng = random.Random(seed)
    for _ in range(trials):
        coeffs = [rng.randint(-9, 9) for _ in full_basis]
        combo = _zeros(n, n)
        for coeff, mat in zip(coeffs, full_basis):
            if coeff:
                for r in range(n):
                    for c in range(n):
                        if mat[r][c]:
                            combo[r][c] += coeff * mat[r][c]
        if not _is_nilpotent(combo, n):
            return False
    return True


def matrix_to_strings(mat) -> list[list[str]]:
    """Render a rational matrix as 'p/q' strings (plain 'p' for integers)."""
    return [[str(v) for v in row] for row in mat]
