import re
from math import gcd

import pytest

from gradedorbits.diagrams import (
    FilledDiagram,
    canonicalize,
    dimension_vector,
    empty_diagram,
    enumerate_by_size,
    enumerate_diagrams,
)
from gradedorbits.orbits import (
    GradingSpec,
    StratumAI,
    StratumII,
    admissible,
    admissible_for_case,
    component_group_order,
    d_check_dual,
    d_check_stratum,
    duality,
    enumerate_strata_ai,
    enumerate_strata_ii,
    full_support_stratum_ii,
    is_distinguished_ai,
    is_distinguished_ii,
    orbit_dim,
    peel_ai,
    peel_ii,
    stratum_dim_ai,
)

from conftest import compositions


def diag(rows, k, sign="-"):
    return canonicalize(rows, k, sign)


def braid_rank_ai(a: int, mu: FilledDiagram, grading: GradingSpec) -> int:
    """Braid rank of the stratum with residual mu: d(N - |mu|) / (m a)."""
    m = grading.modulus
    num = gcd(a, m) * (grading.total - mu.size)
    den = m * a
    if num % den:
        raise ValueError("inconsistent stratum: braid rank is not an integer")
    return num // den


def support_diagram_ai(stratum: StratumAI) -> FilledDiagram:
    """Orbit diagram of an AI stratum: `rank` rows of length a/d at every
    label, joined with the residual."""
    mu = stratum.mu
    m = mu.modulus
    length = stratum.a // gcd(stratum.a, m)
    rows = list(mu.rows)
    for start in range(1, m + 1):
        rows.extend([(length, start)] * stratum.rank)
    return canonicalize(rows, m, mu.sign)


def support_diagram_ii(stratum: StratumII) -> FilledDiagram:
    """Orbit diagram of a type II stratum: 2k single-box rows at every label,
    joined with the residual."""
    mu = stratum.mu
    m = mu.modulus
    rows = list(mu.rows)
    for start in range(1, m + 1):
        rows.extend([(1, start)] * (2 * stratum.rank))
    return canonicalize(rows, m, mu.sign)


# ---------------------------------------------------------------------------
# grading validation


def test_grading_spec_accepts_valid_data():
    GradingSpec("AI", 2, (3, 0))
    GradingSpec("AII", 3, (1, 0, 1))
    GradingSpec("CII", 2, (2, 4))
    GradingSpec("DII", 4, (1, 2, 2, 1))


@pytest.mark.parametrize(
    "case, modulus, dims, message",
    [
        ("AII", 4, (1, 1, 1, 1), "AII modulus must be odd"),
        ("AII", 3, (1, 1, 2), "AII requires d_1 == d_3"),
        ("AII", 3, (1, 1, 1), "AII requires d_2 even"),
        ("AII", 1, (1,), "AII requires d_1 even"),
        ("CII", 3, (1, 1, 1), "CII modulus must be even"),
        ("CII", 2, (1, 2), "CII requires d_1 and d_2 even"),
        ("CII", 4, (1, 2, 2, 2), "CII requires d_1 == d_3"),
        ("CII", 4, (1, 2, 1, 1), "CII requires d_2 and d_4 even"),
        ("DII", 2, (1, 2), "DII requires d_1 == d_2"),
        ("DII", 4, (1, 2, 3, 1), "DII requires d_2 == d_3"),
        ("AI", 2, (1, -1), "dimensions must be nonnegative"),
        ("AI", 2, (1, 1, 1), "expected 2 dimensions, got 3"),
        ("AI", 2, (1.5, 1), "dimensions must be integers, got (1.5, 1)"),
        ("XX", 2, (1, 1), "unknown case 'XX'"),
        ("AI", 2.0, (1, 1), "modulus must be an integer, got 2.0"),
        ("AII", 3.0, (1, 2, 1), "modulus must be an integer, got 3.0"),
    ],
)
def test_grading_spec_rejects_invalid_data(case, modulus, dims, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GradingSpec(case, modulus, dims)


def test_grading_rank():
    assert GradingSpec("AI", 2, (3, 1)).rank == 1
    assert GradingSpec("AII", 3, (3, 2, 3)).rank == 1
    assert GradingSpec("CII", 2, (4, 2)).rank == 1
    assert GradingSpec("AI", 3, (2, 2, 2)).dim_g1 == 12


# ---------------------------------------------------------------------------
# admissibility and component groups


def test_admissible_examples():
    assert admissible_for_case(diag([(1, 1), (1, 3)], 3), "AII")
    assert not admissible_for_case(diag([(2, 1)], 3), "AII")
    assert admissible_for_case(diag([(2, 1)], 3), "AI")
    # the predicate reads only the multiplicity data, so the sign is immaterial
    assert admissible_for_case(diag([(1, 1), (1, 3)], 3, "+"), "AII")


def test_admissible_checks_modulus():
    g = GradingSpec("AII", 3, (1, 0, 1))
    with pytest.raises(ValueError):
        admissible(diag([(1, 1)], 2), g)
    assert admissible(diag([(1, 1), (1, 3)], 3), g)


def test_component_group_order():
    g = GradingSpec("AI", 2, (3, 3))
    assert component_group_order(diag([(4, 1), (2, 1)], 2), g) == 2
    g3 = GradingSpec("AI", 2, (2, 1))
    assert component_group_order(diag([(3, 1)], 2), g3) == 3
    gii = GradingSpec("AII", 3, (1, 0, 1))
    assert component_group_order(diag([(1, 1), (1, 3)], 3), gii) == 1
    assert component_group_order(empty_diagram(2), GradingSpec("AI", 2, (0, 0))) == 0


# ---------------------------------------------------------------------------
# distinguishedness


def test_is_distinguished_ai_examples():
    assert is_distinguished_ai(diag([(2, 1)], 2), 1)
    assert not is_distinguished_ai(diag([(1, 1), (1, 2)], 2), 1)
    assert is_distinguished_ai(empty_diagram(2), 1)
    assert is_distinguished_ai(empty_diagram(2), 5)
    # gcd(a, m) = m forces emptiness
    assert not is_distinguished_ai(diag([(2, 1)], 2), 2)
    # order must divide the part gcd
    assert not is_distinguished_ai(diag([(3, 1)], 2), 2)


def test_is_distinguished_ii_examples():
    assert is_distinguished_ii(diag([(1, 1), (1, 3)], 3))
    assert not is_distinguished_ii(diag([(1, 1), (1, 1), (1, 2), (1, 2), (1, 3), (1, 3)], 3))
    assert is_distinguished_ii(empty_diagram(3))


# ---------------------------------------------------------------------------
# duality


def test_duality_examples():
    d = diag([(2, 1)], 2, "-")
    image = duality(d)
    assert image.sign == "+"
    assert image.rows == ((2, 2),)


def test_duality_involution_and_invariants():
    for k in range(1, 5):
        for size in range(7):
            for d in enumerate_by_size(k, "-", size):
                image = duality(d)
                assert duality(image) == d
                assert image.modulus == d.modulus
                assert image.size == d.size
                assert dimension_vector(image) == dimension_vector(d)
                assert image.partition == d.partition
                assert image.part_gcd == d.part_gcd
                for a in (1, 2):
                    assert is_distinguished_ai(image, a) == is_distinguished_ai(d, a)
                assert is_distinguished_ii(image) == is_distinguished_ii(d)


def test_duality_is_sign_bijection():
    for k in (2, 3):
        for total in range(5):
            for dims in compositions(total, k):
                minus = enumerate_diagrams(k, "-", dims)
                plus = enumerate_diagrams(k, "+", dims)
                assert len(minus) == len(plus)
                assert {duality(d) for d in minus} == set(plus)


# ---------------------------------------------------------------------------
# peeling


def test_peel_ai_examples():
    peel = peel_ai(diag([(1, 1), (1, 2)], 2), 1)
    assert peel.tau == ((1,),)
    assert peel.residue == empty_diagram(2)
    assert peel.rank == 1

    peel = peel_ai(diag([(2, 1)], 2), 1)
    assert peel.tau == ((),)
    assert peel.residue == diag([(2, 1)], 2)
    assert peel.rank == 0

    peel = peel_ai(empty_diagram(2), 2)
    assert peel.tau == ((), ())
    assert peel.residue == empty_diagram(2)


def test_peel_ai_requires_divisibility():
    with pytest.raises(ValueError):
        peel_ai(diag([(1, 1)], 2), 2)


def _reassemble_ai(a, tau, residue):
    m = residue.modulus
    d = len(tau)
    rows = list(residue.rows)
    for i, component in enumerate(tau, start=1):
        for part in component:
            for j in range(m // d):
                rows.append((a * part, i + j * d))
    return canonicalize(rows, m, residue.sign)


def test_peel_ai_round_trip_and_residue_distinguished():
    for m in range(1, 5):
        for size in range(9):
            for lam in enumerate_by_size(m, "-", size):
                g = lam.part_gcd
                orders = [1] if g == 0 else [a for a in range(1, g + 1) if g % a == 0]
                for a in orders:
                    peel = peel_ai(lam, a)
                    assert is_distinguished_ai(peel.residue, a)
                    assert len(peel.tau) == gcd(a, m)
                    assert _reassemble_ai(a, peel.tau, peel.residue) == lam


def reference_peel(diagram, a, per):
    """The peel with the multiplicities read length by length and the residue
    rows sorted by `canonicalize`: the reference for `peel_ai` (per = 1)
    and `peel_ii` (a = 1, per = 2)."""
    m = diagram.modulus
    d = gcd(a, m)
    components = [[] for _ in range(d)]
    residue_rows = []
    for length in diagram.parts:
        p = diagram.multiplicities(length)
        for i in range(d):
            low = min(p[i::d]) // per
            components[i].extend([length // a] * low)
            for lab in range(i + 1, m + 1, d):
                residue_rows.extend([(length, lab)] * (p[lab - 1] - per * low))
    tau = tuple(tuple(comp) for comp in components)
    return tau, canonicalize(residue_rows, m, diagram.sign)


@pytest.mark.parametrize("sign", ["+", "-"])
def test_peel_ai_matches_reference(sign):
    for m in range(1, 5):
        for size in range(8):
            for lam in enumerate_by_size(m, sign, size):
                g = lam.part_gcd
                for a in [1] if g == 0 else [a for a in range(1, g + 1) if g % a == 0]:
                    peel = peel_ai(lam, a)
                    assert (peel.tau, peel.residue) == reference_peel(lam, a, 1), (lam, a)


def _reassemble_ii(nu, residue):
    m = residue.modulus
    rows = list(residue.rows)
    for part in nu:
        for start in range(1, m + 1):
            rows.extend([(part, start)] * 2)
    return canonicalize(rows, m, residue.sign)


def test_peel_ii_examples():
    lam = diag([(1, 1), (1, 1), (1, 2), (1, 2), (1, 3), (1, 3)], 3)
    peel = peel_ii(lam)
    assert peel.nu == (1,)
    assert peel.residue == empty_diagram(3)
    assert peel.rank == 1

    lam = diag([(1, 1), (1, 3)], 3)
    peel = peel_ii(lam)
    assert peel.nu == ()
    assert peel.residue == lam
    assert peel.rank == 0

    peel = peel_ii(empty_diagram(3))
    assert peel.nu == () and peel.residue == empty_diagram(3) and peel.rank == 0


def test_peel_ii_round_trip():
    for case, moduli in (("AII", (1, 3)), ("CII", (2, 4)), ("DII", (2, 4))):
        for m in moduli:
            for size in range(0, 9, 2):
                for lam in enumerate_by_size(m, "-", size):
                    if not admissible_for_case(lam, case):
                        continue
                    peel = peel_ii(lam)
                    assert peel.residue.size + 2 * peel.rank * m == lam.size
                    assert admissible_for_case(peel.residue, case)
                    assert is_distinguished_ii(peel.residue)
                    assert _reassemble_ii(peel.nu, peel.residue) == lam


@pytest.mark.parametrize("sign", ["+", "-"])
def test_peel_ii_matches_reference(sign):
    for case, moduli in (("AII", (1, 3)), ("CII", (2, 4)), ("DII", (2, 4))):
        for m in moduli:
            for size in range(0, 9, 2):
                for lam in enumerate_by_size(m, sign, size):
                    if admissible_for_case(lam, case):
                        peel = peel_ii(lam)
                        assert ((peel.nu,), peel.residue) == reference_peel(lam, 1, 2), lam


# ---------------------------------------------------------------------------
# attached cyclic orders


def test_d_check_stratum_examples():
    assert d_check_stratum(1, empty_diagram(2)) == 2
    assert d_check_stratum(1, diag([(2, 1)], 2)) == 2
    assert d_check_stratum(3, empty_diagram(3)) == 3


def test_d_check_dual_examples():
    assert d_check_dual(diag([(1, 1), (1, 2)], 2)) == 2
    assert d_check_dual(diag([(2, 1), (2, 2), (1, 1)], 2)) == 1
    assert d_check_dual(diag([(1, 1), (1, 2), (1, 3)], 3)) == 3
    with pytest.raises(ValueError):
        d_check_dual(diag([(2, 1)], 2))


# ---------------------------------------------------------------------------
# strata


def test_enumerate_strata_ai_examples():
    g = GradingSpec("AI", 2, (1, 1))
    strata = enumerate_strata_ai(g, 1)
    assert [(s.rank, str(s.mu), s.d_check) for s in strata] == [
        (0, "2_1", 2),
        (0, "2_2", 2),
        (1, "empty", 2),
    ]
    strata = enumerate_strata_ai(g, 2)
    assert [(s.rank, str(s.mu)) for s in strata] == [(1, "empty")]
    assert enumerate_strata_ai(g, 3) == []
    # stable branch needs uniform box counts
    assert enumerate_strata_ai(GradingSpec("AI", 2, (2, 0)), 2) == []


def test_strata_ai_properties():
    from gradedorbits.sheaves import divisors

    for m in (1, 2, 3):
        for total in range(6):
            for dims in compositions(total, m):
                g = GradingSpec("AI", m, dims)
                for a in divisors(total):
                    for stratum in enumerate_strata_ai(g, a):
                        assert is_distinguished_ai(stratum.mu, a)
                        assert stratum.d_check % a == 0
                        assert braid_rank_ai(a, stratum.mu, g) == stratum.rank
                        support = support_diagram_ai(stratum)
                        assert dimension_vector(support) == dims


def test_strata_ai_match_brute_force():
    """Every distinguished residual of every padding depth is a stratum:
    the strata equal, in order, the diagrams of each rank's box counts that
    the reference predicate keeps, at every order, dividing N or not."""
    for m in (1, 2, 3):
        for total in range(7):
            for dims in compositions(total, m):
                g = GradingSpec("AI", m, dims)
                for a in range(1, total + 2):
                    padding = a // gcd(a, m)
                    expected = [
                        StratumAI(a, rank, mu, d_check_stratum(a, mu))
                        for rank in range(total + 1)
                        if min(dims) >= padding * rank
                        for mu in enumerate_diagrams(m, "-", [v - padding * rank for v in dims])
                        if is_distinguished_ai(mu, a)
                    ]
                    assert enumerate_strata_ai(g, a) == expected


def test_strata_ii_match_brute_force():
    """The type II strata equal, in order, the admissible diagrams of each
    rank's box counts that the reference predicate calls distinguished."""
    for case, modulus in (("AII", 3), ("CII", 2), ("DII", 2), ("CII", 4), ("DII", 4)):
        for g in _symmetric_dims(case, modulus, 6):
            expected = [
                StratumII(rank, mu)
                for rank in range(g.total + 1)
                if min(g.dims) >= 2 * rank
                for mu in enumerate_diagrams(modulus, "-", [v - 2 * rank for v in g.dims])
                if admissible_for_case(mu, case) and is_distinguished_ii(mu)
            ]
            assert enumerate_strata_ii(g) == expected


def assert_canonical(diagram):
    """The diagram, built without `FilledDiagram`'s checks, equals its
    rebuild through `canonicalize`, which checks and sorts its rows."""
    rebuilt = canonicalize(diagram.rows, diagram.modulus, diagram.sign)
    assert vars(diagram) == vars(rebuilt), diagram
    assert hash(diagram) == hash(rebuilt), diagram


@pytest.mark.parametrize("sign", ["+", "-"])
def test_peel_residues_and_duals_equal_their_canonical_rebuild(sign):
    for m in range(1, 5):
        for size in range(8):
            for lam in enumerate_by_size(m, sign, size):
                assert_canonical(duality(lam))
                assert_canonical(peel_ii(lam).residue)
                for a in range(1, size + 2):
                    if lam.part_gcd % a == 0:
                        assert_canonical(peel_ai(lam, a).residue)


def test_strata_residuals_equal_their_canonical_rebuild():
    for m in (1, 2, 3):
        for total in range(7):
            for dims in compositions(total, m):
                for a in range(1, total + 2):
                    for stratum in enumerate_strata_ai(GradingSpec("AI", m, dims), a):
                        assert_canonical(stratum.mu)
    for case, modulus in (("AII", 3), ("CII", 2), ("DII", 4)):
        for g in _symmetric_dims(case, modulus, 6):
            for stratum in enumerate_strata_ii(g):
                assert_canonical(stratum.mu)


def test_braid_rank_examples():
    g = GradingSpec("AI", 2, (1, 1))
    assert braid_rank_ai(1, diag([(2, 1)], 2), g) == 0
    assert braid_rank_ai(1, empty_diagram(2), g) == 1
    assert braid_rank_ai(2, empty_diagram(2), g) == 1
    with pytest.raises(ValueError):
        braid_rank_ai(1, diag([(1, 1)], 2), g)


def test_enumerate_strata_ii_examples():
    g = GradingSpec("AII", 3, (0, 0, 0))
    assert enumerate_strata_ii(g) == [StratumII(0, empty_diagram(3))]

    g = GradingSpec("AII", 3, (1, 0, 1))
    assert enumerate_strata_ii(g) == [StratumII(0, diag([(1, 1), (1, 3)], 3))]

    g = GradingSpec("AII", 3, (2, 2, 2))
    strata = enumerate_strata_ii(g)
    assert StratumII(1, empty_diagram(3)) in strata
    assert [s for s in strata if s.rank == 0] == [
        StratumII(0, diag([(3, 1), (3, 2)], 3)),
        StratumII(0, diag([(3, 3), (3, 3)], 3)),
    ]


def test_full_support_stratum_ii_examples():
    assert full_support_stratum_ii(GradingSpec("AII", 3, (2, 2, 2))) == StratumII(
        1, empty_diagram(3)
    )
    assert full_support_stratum_ii(GradingSpec("AII", 3, (1, 0, 1))) == StratumII(
        0, diag([(1, 1), (1, 3)], 3)
    )
    assert full_support_stratum_ii(GradingSpec("AII", 1, (0,))) == StratumII(
        0, empty_diagram(1)
    )


def _symmetric_dims(case, modulus, max_total):
    for total in range(0, max_total + 1):
        for dims in compositions(total, modulus):
            try:
                yield GradingSpec(case, modulus, dims)
            except ValueError:
                continue


def test_strata_ii_padding_is_admissible():
    for case, modulus in (("AII", 3), ("CII", 2), ("DII", 2), ("CII", 4), ("DII", 4)):
        for g in _symmetric_dims(case, modulus, 6):
            full = full_support_stratum_ii(g)
            strata = enumerate_strata_ii(g)
            assert full in strata
            for stratum in strata:
                support = support_diagram_ii(stratum)
                assert admissible_for_case(support, case)
                assert dimension_vector(support) == g.dims


def test_dimension_input_checks():
    lam = canonicalize([(2, 1)], 2, "-")
    with pytest.raises(ValueError):
        orbit_dim(lam, GradingSpec("AI", 2, (2, 0)))
    with pytest.raises(ValueError):
        orbit_dim(empty_diagram(3), GradingSpec("AII", 3, (0, 0, 0)))
    g = GradingSpec("AI", 2, (1, 1))
    with pytest.raises(ValueError):
        stratum_dim_ai(StratumAI(1, 0, lam, 2), GradingSpec("AII", 3, (1, 0, 1)))
    # one padding row per label plus the residual overfills (1, 1)
    with pytest.raises(ValueError):
        stratum_dim_ai(StratumAI(1, 1, lam, 2), g)
    with pytest.raises(ValueError):
        stratum_dim_ai(StratumAI(1, 0, canonicalize([(2, 1)], 3, "-"), 1), g)
