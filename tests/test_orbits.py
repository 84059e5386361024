import re
from math import gcd

import pytest

from gradedorbits.diagrams import (
    FilledDiagram,
    canonicalize,
    count_by_size,
    count_diagrams,
    dimension_vector,
    empty_diagram,
    enumerate_by_size,
    enumerate_diagrams,
    iter_diagrams,
    row_partners,
)
from gradedorbits.orbits import (
    GradingSpec,
    Stratum,
    admissible_for_case,
    component_group_order,
    d_check_dual,
    d_check_stratum,
    duality,
    enumerate_strata,
    full_support_stratum_ii,
    is_distinguished_ai,
    is_distinguished_ii,
    orbit_listing,
    peel_ai,
    peel_ii,
    stratum_dim_ai,
)

from conftest import compositions, naive_row_labels


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


def support_diagram_ai(stratum: Stratum) -> FilledDiagram:
    """Orbit diagram of an AI stratum: `rank` rows of length a/d at every
    label, joined with the residual."""
    mu = stratum.mu
    m = mu.modulus
    length = stratum.a // gcd(stratum.a, m)
    rows = list(mu.rows)
    for start in range(1, m + 1):
        rows.extend([(length, start)] * stratum.rank)
    return canonicalize(rows, m, mu.sign)


def support_diagram_ii(stratum: Stratum) -> FilledDiagram:
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
        ("AI", 2, (1, -1), "box counts must be nonnegative"),
        ("AI", 2, (1, 1, 1), "expected 2 box counts, got 3"),
        ("AI", 2, (1.5, 1), "box count must be an integer, got 1.5"),
        ("XX", 2, (1, 1), "unknown case 'XX'"),
        ("AI", 2.0, (1, 1), "modulus must be an integer, got 2.0"),
        ("AII", 3.0, (1, 2, 1), "modulus must be an integer, got 3.0"),
    ],
)
def test_grading_spec_rejects_invalid_data(case, modulus, dims, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GradingSpec(case, modulus, dims)


@pytest.mark.parametrize(
    "dims, message",
    [
        ((1, -1), "box counts must be nonnegative"),
        ((1, 1, 1), "expected 2 box counts, got 3"),
        ((1.5, 1), "box count must be an integer, got 1.5"),
    ],
)
def test_gradings_and_enumeration_check_box_counts_alike(dims, message):
    for call in (
        lambda: GradingSpec("AI", 2, dims),
        lambda: iter_diagrams(2, "-", dims),
        lambda: count_diagrams(2, "-", dims),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


@pytest.mark.parametrize(
    "case, modulus, message",
    [
        ("AII", 4, "AII modulus must be odd"),
        ("CII", 3, "CII modulus must be even"),
        ("DII", 5, "DII modulus must be even"),
    ],
)
def test_gradings_and_enumeration_check_the_modulus_alike(case, modulus, message):
    for call in (
        lambda: GradingSpec(case, modulus, (2,) * modulus),
        lambda: iter_diagrams(modulus, "-", size=4, case=case),
        lambda: count_diagrams(modulus, "-", size=4, case=case),
        lambda: count_by_size(modulus, "+", [0, 4], case=case),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


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


def test_component_group_order():
    g = GradingSpec("AI", 2, (3, 3))
    assert component_group_order(diag([(4, 1), (2, 1)], 2), g) == 2
    g3 = GradingSpec("AI", 2, (2, 1))
    assert component_group_order(diag([(3, 1)], 2), g3) == 3
    gii = GradingSpec("AII", 3, (1, 0, 1))
    assert component_group_order(diag([(1, 1), (1, 3)], 3), gii) == 1
    # the empty diagram's group is the trivial group Z/1
    assert component_group_order(empty_diagram(2), GradingSpec("AI", 2, (0, 0))) == 1


# ---------------------------------------------------------------------------
# the type II pairing: a form pairs V_i with V_{c - i}


FORM_SHIFT = {"AII": 1, "CII": 0, "DII": 1}
# the type II moduli up to 6: AII odd, CII and DII even
TYPE_II_MODULI = (("AII", 3), ("AII", 5), ("CII", 2), ("CII", 4), ("CII", 6),
                  ("DII", 2), ("DII", 4), ("DII", 6))


def type_ii_diagrams():
    """Every admissible type II diagram of both signs with m <= 6 and an
    even size N <= 10, with its case."""
    for case, m in TYPE_II_MODULI:
        for size in range(0, 11, 2):
            for sign in "+-":
                for lam in iter_diagrams(m, sign, size=size, case=case):
                    yield case, lam


def test_row_partners_follow_the_form_box_by_box():
    """On '+' rows the one pairing rule is the form's: the dual of a row
    starting at a is the row whose box p - 1 - t the form pairs with box t,
    for every t, found by walking the labels."""
    checks = 0
    for case, moduli in (("AII", (1, 3, 5, 7)), ("CII", (2, 4, 6, 8)), ("DII", (2, 4, 6, 8))):
        c = FORM_SHIFT[case]
        for m in moduli:
            for length in range(1, 13):
                partners = row_partners(case, m, length)
                for a in range(1, m + 1):
                    labels = naive_row_labels(length, a, m, "+")
                    duals = [
                        b for b in range(1, m + 1)
                        if all((i + j - c) % m == 0 for i, j in
                               zip(labels, reversed(naive_row_labels(length, b, m, "+"))))
                    ]
                    assert duals == [partners[a - 1]], (case, m, length, a)
                    checks += 1
    assert checks == 672


def test_is_distinguished_ii_commutes_with_duality():
    checked = 0
    for _, lam in type_ii_diagrams():
        assert is_distinguished_ii(duality(lam)) == is_distinguished_ii(lam), lam
        checked += 1
    assert checked == 2386


def test_plus_diagrams_lie_on_valid_gradings():
    """Every admissible '+' diagram's box counts are a valid grading of its
    case, as the form pairs them."""
    for case, lam in type_ii_diagrams():
        if lam.sign == "+":
            GradingSpec(case, lam.modulus, dimension_vector(lam))


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP.md item 1: '-' rows are paired by the '+' rows' rule, which fits the form only for m <= 2",
)
def test_duality_maps_the_minus_listing_onto_the_plus_listing():
    """On every valid type II grading with m <= 6, d_i <= 3 and N <= 10."""
    mismatched = []
    for case, m in TYPE_II_MODULI:
        for g in _symmetric_dims(case, m, 10):
            if max(g.dims) <= 3:
                minus = {duality(lam) for lam in iter_diagrams(m, "-", g.dims, case=case)}
                if minus != set(iter_diagrams(m, "+", g.dims, case=case)):
                    mismatched.append(g)
    assert not mismatched


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


def test_orbit_listing_is_the_predicates_on_the_stream():
    """The listing reads each diagram, its part gcd and its distinguishedness
    off the walk's block records; the stream and the predicates are its
    reference, at every order a <= 4 of case AI, orders that divide no part
    included, and in the type II sense."""
    checked = 0
    for m in range(1, 5):
        for size in range(9):
            stream = enumerate_by_size(m, "-", size)
            for a in range(1, 5):
                listed = list(orbit_listing("AI", m, size=size, a=a))
                assert [lam for lam, _, _ in listed] == stream
                for lam, g, plain in listed:
                    assert g == lam.part_gcd, lam
                    assert plain == is_distinguished_ai(lam, a), (lam, a)
                    checked += 1
    for case, modulus in (("CII", 2), ("DII", 2), ("CII", 4), ("DII", 4), ("AII", 3), ("AII", 5)):
        for size in range(11):
            listed = list(orbit_listing(case, modulus, size=size))
            assert [lam for lam, _, _ in listed] == list(iter_diagrams(modulus, "-", size=size, case=case))
            for lam, g, plain in listed:
                assert g == lam.part_gcd, lam
                assert plain == is_distinguished_ii(lam), lam
                checked += 1
    assert checked == 28464


def test_orbit_listing_takes_box_counts_and_checks_its_arguments():
    listed = list(orbit_listing("AI", 3, (2, 1, 2), a=2))
    assert [lam for lam, _, _ in listed] == enumerate_diagrams(3, "-", (2, 1, 2))
    assert [plain for lam, _, plain in listed] == [
        is_distinguished_ai(lam, 2) for lam in enumerate_diagrams(3, "-", (2, 1, 2))
    ]
    assert list(orbit_listing("AI", 2, (0, 0))) == [(empty_diagram(2), 0, True)]
    with pytest.raises(ValueError, match="order must be >= 1"):
        orbit_listing("AI", 2, (1, 1), a=0)
    with pytest.raises(ValueError, match="an order applies only to case AI"):
        orbit_listing("CII", 2, (2, 2), a=2)
    with pytest.raises(ValueError, match="give exactly one of the box counts and the size"):
        orbit_listing("AI", 2)
    with pytest.raises(ValueError, match="unknown case"):
        orbit_listing("BI", 2, (1, 1))


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
    assert peel.tau == ((1,),)
    assert peel.residue == empty_diagram(3)
    assert peel.rank == 1

    lam = diag([(1, 1), (1, 3)], 3)
    peel = peel_ii(lam)
    assert peel.tau == ((),)
    assert peel.residue == lam
    assert peel.rank == 0

    peel = peel_ii(empty_diagram(3))
    assert peel.tau == ((),) and peel.residue == empty_diagram(3) and peel.rank == 0


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
                    assert _reassemble_ii(peel.tau[0], peel.residue) == lam


@pytest.mark.parametrize("sign", ["+", "-"])
def test_peel_ii_matches_reference(sign):
    for case, moduli in (("AII", (1, 3)), ("CII", (2, 4)), ("DII", (2, 4))):
        for m in moduli:
            for size in range(0, 9, 2):
                for lam in enumerate_by_size(m, sign, size):
                    if admissible_for_case(lam, case):
                        peel = peel_ii(lam)
                        assert (peel.tau, peel.residue) == reference_peel(lam, 1, 2), lam


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
    strata = enumerate_strata(g, 1)
    assert [(s.rank, str(s.mu), s.d_check) for s in strata] == [
        (0, "2_1", 2),
        (0, "2_2", 2),
        (1, "empty", 2),
    ]
    strata = enumerate_strata(g, 2)
    assert [(s.rank, str(s.mu)) for s in strata] == [(1, "empty")]
    assert enumerate_strata(g, 3) == []
    # stable branch needs uniform box counts
    assert enumerate_strata(GradingSpec("AI", 2, (2, 0)), 2) == []


def test_strata_ai_properties():
    from gradedorbits.sheaves import divisors

    for m in (1, 2, 3):
        for total in range(6):
            for dims in compositions(total, m):
                g = GradingSpec("AI", m, dims)
                for a in divisors(total):
                    for stratum in enumerate_strata(g, a):
                        assert is_distinguished_ai(stratum.mu, a)
                        assert stratum.d_check % a == 0
                        assert braid_rank_ai(a, stratum.mu, g) == stratum.rank
                        support = support_diagram_ai(stratum)
                        assert dimension_vector(support) == dims


def test_strata_ai_match_brute_force():
    """Every distinguished residual of every padding depth is a stratum:
    the strata equal, in order, the diagrams of each rank's box counts that
    the reference predicate keeps, at every order, dividing N or not.  The
    zero grading carries just the trivial character, so it has no stratum
    at a > 1."""
    for m in (1, 2, 3):
        for total in range(7):
            for dims in compositions(total, m):
                g = GradingSpec("AI", m, dims)
                for a in range(1, total + 2 if total else 2 * m + 1):
                    padding = a // gcd(a, m)
                    expected = [
                        Stratum(a, rank, mu, d_check_stratum(a, mu))
                        for rank in range(total + 1)
                        if min(dims) >= padding * rank
                        for mu in enumerate_diagrams(m, "-", [v - padding * rank for v in dims])
                        if is_distinguished_ai(mu, a) and (total or a == 1)
                    ]
                    assert enumerate_strata(g, a) == expected, (dims, a)


def test_strata_ii_match_brute_force():
    """The type II strata equal, in order, the admissible diagrams of each
    rank's box counts that the reference predicate calls distinguished."""
    for case, modulus in (("AII", 3), ("CII", 2), ("DII", 2), ("CII", 4), ("DII", 4)):
        for g in _symmetric_dims(case, modulus, 6):
            expected = [
                Stratum(1, rank, mu, 1)
                for rank in range(g.total + 1)
                if min(g.dims) >= 2 * rank
                for mu in enumerate_diagrams(modulus, "-", [v - 2 * rank for v in g.dims])
                if admissible_for_case(mu, case) and is_distinguished_ii(mu)
            ]
            assert enumerate_strata(g) == expected


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
                    for stratum in enumerate_strata(GradingSpec("AI", m, dims), a):
                        assert_canonical(stratum.mu)
    for case, modulus in (("AII", 3), ("CII", 2), ("DII", 4)):
        for g in _symmetric_dims(case, modulus, 6):
            for stratum in enumerate_strata(g):
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
    assert enumerate_strata(g) == [Stratum(1, 0, empty_diagram(3), 1)]

    g = GradingSpec("AII", 3, (1, 0, 1))
    assert enumerate_strata(g) == [Stratum(1, 0, diag([(1, 1), (1, 3)], 3), 1)]

    g = GradingSpec("AII", 3, (2, 2, 2))
    strata = enumerate_strata(g)
    assert Stratum(1, 1, empty_diagram(3), 1) in strata
    assert [s for s in strata if s.rank == 0] == [
        Stratum(1, 0, diag([(3, 1), (3, 2)], 3), 1),
        Stratum(1, 0, diag([(3, 3), (3, 3)], 3), 1),
    ]


def test_full_support_stratum_ii_examples():
    assert full_support_stratum_ii(GradingSpec("AII", 3, (2, 2, 2))) == Stratum(
        1, 1, empty_diagram(3), 1
    )
    assert full_support_stratum_ii(GradingSpec("AII", 3, (1, 0, 1))) == Stratum(
        1, 0, diag([(1, 1), (1, 3)], 3), 1
    )
    assert full_support_stratum_ii(GradingSpec("AII", 1, (0,))) == Stratum(
        1, 0, empty_diagram(1), 1
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
            strata = enumerate_strata(g)
            assert full in strata
            for stratum in strata:
                support = support_diagram_ii(stratum)
                assert admissible_for_case(support, case)
                assert dimension_vector(support) == g.dims


def test_dimension_input_checks():
    lam = canonicalize([(2, 1)], 2, "-")
    g = GradingSpec("AI", 2, (1, 1))
    with pytest.raises(ValueError):
        stratum_dim_ai(Stratum(1, 0, lam, 2), GradingSpec("AII", 3, (1, 0, 1)))
    # one padding row per label plus the residual overfills (1, 1)
    with pytest.raises(ValueError):
        stratum_dim_ai(Stratum(1, 1, lam, 2), g)
    with pytest.raises(ValueError):
        stratum_dim_ai(Stratum(1, 0, canonicalize([(2, 1)], 3, "-"), 1), g)
    with pytest.raises(ValueError, match="^dim_g1 is implemented for case AI only$"):
        GradingSpec("AII", 3, (1, 0, 1)).dim_g1
    with pytest.raises(ValueError, match="^type II strata require case AII, CII or DII$"):
        full_support_stratum_ii(g)
