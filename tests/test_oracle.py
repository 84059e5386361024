import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from gradedorbits.diagrams import (
    canonicalize,
    dimension_vector,
    empty_diagram,
    enumerate_by_size,
    enumerate_diagrams,
)
from gradedorbits.orbits import (
    GradingSpec,
    StratumAI,
    centralizer_dim,
    duality,
    enumerate_strata_ai,
    is_distinguished_ai,
    orbit_dim,
    stratum_dim_ai,
)
from gradedorbits.oracle import (
    GradedMatrix,
    build_representative,
    centralizer_dim_gl,
    centralizer_dim_k,
    centralizer_g1,
    full_matrix,
    is_distinguished_oracle,
    mat_mul,
    matrix_rank,
)

from conftest import compositions


def diag(rows, k, sign="+"):
    return canonicalize(rows, k, sign)


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
        prod = mat_mul(mat_mul(conjugators[tgt], [list(r) for r in x.block(i)]), inverses[i - 1])
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


def test_build_representative_checks_dims():
    g = GradingSpec("AI", 2, (2, 0))
    with pytest.raises(ValueError):
        build_representative(diag([(2, 1)], 2), g)


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
                g = GradingSpec("AI", m, dims)
                for lam in enumerate_diagrams(m, "+", dims):
                    x = build_representative(lam, g)
                    if size:
                        assert orbit_dim(lam, g) + centralizer_dim_k(x) == sum(
                            v * v for v in dims
                        ) - 1


def test_orbit_dim_examples():
    assert orbit_dim(diag([(2, 1)], 2)) == 1
    assert orbit_dim(empty_diagram(2, "+"), GradingSpec("AI", 2, (0, 0))) == 0
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
        g = GradingSpec("AI", lam.modulus, dimension_vector(lam))
        x = build_representative(lam, g)
        base_k = centralizer_dim_k(x)
        base_g1 = centralizer_g1(x)[0]
        for _ in range(3):
            y = conjugate(x, random_conjugators(g, rng))
            assert centralizer_dim_k(y) == base_k
            assert centralizer_g1(y)[0] == base_g1


def test_oracle_examples():
    assert is_distinguished_oracle(diag([(2, 1)], 2))
    assert not is_distinguished_oracle(diag([(1, 1), (1, 2)], 2))
    assert is_distinguished_oracle(empty_diagram(2, "+"))
    # seed independence on a certain verdict
    assert not is_distinguished_oracle(diag([(1, 1), (1, 2)], 2), seed=123)


def test_oracle_agrees_with_predicate_quick():
    for m in (1, 2):
        for size in range(5):
            for lam in enumerate_by_size(m, "-", size):
                assert is_distinguished_oracle(lam, trials=10, seed=0) == is_distinguished_ai(
                    lam, 1
                )


def test_stratum_dim_examples():
    g = GradingSpec("AI", 2, (1, 1))
    stratum = StratumAI(1, 1, empty_diagram(2), 2)
    assert stratum_dim_ai(stratum, g) == 2 == g.dim_g1
    nilp = StratumAI(1, 0, canonicalize([(2, 1)], 2, "-"), 2)
    # l = 0 strata have the dimension of the underlying orbit
    assert stratum_dim_ai(nilp, g) == orbit_dim(canonicalize([(2, 1)], 2, "-"), g)


def test_dense_stratum_dimension():
    for m in (1, 2, 3):
        for total in range(m, 7, m):
            dims = (total // m,) * m
            g = GradingSpec("AI", m, dims)
            for a in range(1, m + 1):
                if m % a:
                    continue
                strata = enumerate_strata_ai(g, a)
                dense = [s for s in strata if s.mu.is_empty]
                assert len(dense) == 1
                assert stratum_dim_ai(dense[0], g) == g.dim_g1


@st.composite
def small_diagrams(draw):
    """A diagram of either sign with modulus <= 4 and at most 8 boxes, built
    row by row."""
    m = draw(st.integers(1, 4))
    sign = draw(st.sampled_from(["+", "-"]))
    room = draw(st.integers(0, 8))
    rows = []
    while room:
        length = draw(st.integers(1, room))
        rows.append((length, draw(st.integers(1, m))))
        room -= length
    return canonicalize(rows, m, sign)


@given(small_diagrams())
def test_centralizer_dim_matches_nullspace(lam):
    assert centralizer_dim(lam) == centralizer_dim_gl(build_representative(lam))


def _stratum_dim_nullspace(stratum, g):
    """The stratum dimension with c_mu taken from the exact nullspace."""
    mu = stratum.mu
    plus = mu if mu.sign == "+" else duality(mu)
    sub = GradingSpec("AI", g.modulus, dimension_vector(mu))
    c_mu = centralizer_dim_gl(build_representative(plus, sub))
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
                    for stratum in enumerate_strata_ai(g, a):
                        assert stratum_dim_ai(stratum, g) == _stratum_dim_nullspace(stratum, g)
                        checked += 1
    assert checked == 613
