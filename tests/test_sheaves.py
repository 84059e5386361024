from math import gcd

import pytest

from gradedorbits.diagrams import (
    MINUS,
    canonicalize,
    count_diagrams,
    empty_diagram,
    enumerate_diagrams,
    iter_diagrams,
    multipartitions,
)
from gradedorbits import sheaves
from gradedorbits.orbits import (
    GradingSpec,
    StratumAI,
    StratumII,
    d_check_stratum,
    duality,
    enumerate_strata_ai,
    is_distinguished_ai,
    peel_ai,
)
from gradedorbits.sheaves import (
    CentralCharacter,
    SheafLabel,
    _flags_ai,
    catalog_ai,
    catalog_ii,
    cuspidal_ai,
    divisors,
    exact_order_characters,
    map_sheaf_ai,
    map_sheaf_ii,
    orbital_complexes,
    verify_bijection,
)

from conftest import compositions


def diag(rows, k):
    return canonicalize(rows, k, "-")


PHI = {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4}


def test_divisors():
    assert divisors(0) == (1,)
    assert divisors(1) == (1,)
    assert divisors(6) == (1, 2, 3, 6)
    with pytest.raises(ValueError):
        divisors(-1)


def test_exact_order_characters_examples():
    assert [c.index for c in exact_order_characters(2, 1)] == [0]
    assert [c.index for c in exact_order_characters(2, 2)] == [1]
    assert [c.index for c in exact_order_characters(12, 4)] == [3, 9]
    assert exact_order_characters(5, 3) == []
    # trivial-group convention
    assert exact_order_characters(0, 1) == [CentralCharacter(0, 0)]
    assert exact_order_characters(0, 2) == []


def test_exact_order_character_counts_are_phi():
    for a in divisors(12):
        chars = exact_order_characters(12, a)
        assert len(chars) == PHI[a]
        assert all(psi.order == a for psi in chars)


def test_central_character_validation():
    assert CentralCharacter(6, 2).order == 3
    assert CentralCharacter(0, 0).order == 1
    with pytest.raises(ValueError):
        CentralCharacter(4, 4)
    with pytest.raises(ValueError):
        CentralCharacter(0, 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: CentralCharacter(2.0, 1), "modulus must be an integer, got 2.0"),
        (lambda: CentralCharacter(4, 1.0), "index must be an integer, got 1.0"),
        (lambda: exact_order_characters(2.5, 1), "modulus must be an integer, got 2.5"),
        (lambda: divisors(2.5), "n must be an integer, got 2.5"),
    ],
)
def test_character_inputs_must_be_integers(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_orbital_complexes_examples():
    g = GradingSpec("AI", 2, (1, 1))
    assert len(orbital_complexes(g, 1)) == 3
    pairs = orbital_complexes(g, 2)
    assert [(str(lam), psi.index) for lam, psi in pairs] == [("2_1", 1), ("2_2", 1)]
    gii = GradingSpec("AII", 3, (1, 0, 1))
    assert len(orbital_complexes(gii)) == 1


def test_catalog_ai_examples():
    g = GradingSpec("AI", 2, (1, 1))
    labels = catalog_ai(g, 1)
    assert [
        (lab.stratum.rank, str(lab.stratum.mu), lab.psi.index, lab.tau) for lab in labels
    ] == [
        (0, "2_1", 0, ((),)),
        (0, "2_2", 0, ((),)),
        (1, "empty", 0, ((1,),)),
    ]
    labels = catalog_ai(g, 2)
    assert len(labels) == 2
    assert {lab.tau for lab in labels} == {((1,), ()), ((), (1,))}
    assert all(lab.psi == CentralCharacter(2, 1) for lab in labels)
    assert catalog_ai(g, 3) == []


def test_catalog_ai_flags():
    g = GradingSpec("AI", 2, (1, 1))
    labels = catalog_ai(g, 1)
    for lab in labels:
        assert lab.nilpotent_support == (lab.stratum.rank == 0)
    dense = [lab for lab in labels if lab.full_support]
    assert [str(lab.stratum.mu) for lab in dense] == ["empty"]


def test_catalog_ii_examples():
    g = GradingSpec("AII", 3, (1, 0, 1))
    labels = catalog_ii(g)
    assert len(labels) == 1
    lab = labels[0]
    assert lab.stratum == StratumII(0, diag([(1, 1), (1, 3)], 3))
    assert lab.tau == ((),)
    assert lab.nilpotent_support and lab.full_support

    g0 = GradingSpec("AII", 3, (0, 0, 0))
    assert len(catalog_ii(g0)) == 1

    g6 = GradingSpec("AII", 3, (2, 2, 2))
    labels = catalog_ii(g6)
    assert len(labels) == 3  # two distinguished orbits plus the padded stratum
    assert sum(1 for lab in labels if lab.nilpotent_support) == 2
    assert sum(1 for lab in labels if lab.full_support) == 1


def test_map_sheaf_ai_examples():
    g = GradingSpec("AI", 2, (1, 1))
    lab = map_sheaf_ai(diag([(1, 1), (1, 2)], 2), CentralCharacter(1, 0), 1, g)
    assert lab.stratum == StratumAI(1, 1, empty_diagram(2), 2)
    assert lab.psi == CentralCharacter(2, 0)
    assert lab.tau == ((1,),)

    lab = map_sheaf_ai(diag([(2, 1)], 2), CentralCharacter(2, 0), 1, g)
    assert lab.stratum == StratumAI(1, 0, diag([(2, 1)], 2), 2)
    assert lab.tau == ((),)

    with pytest.raises(ValueError):
        map_sheaf_ai(diag([(1, 1), (1, 2)], 2), CentralCharacter(2, 1), 2, g)


def test_map_sheaf_ai_preserves_character_order():
    g = GradingSpec("AI", 2, (1, 1))
    lab = map_sheaf_ai(diag([(2, 1)], 2), CentralCharacter(2, 1), 2, g)
    assert lab.psi.order == 2 and lab.psi == CentralCharacter(2, 1)


def test_map_sheaf_ii_example():
    g = GradingSpec("AII", 3, (2, 2, 2))
    lam = diag([(1, 1), (1, 1), (1, 2), (1, 2), (1, 3), (1, 3)], 3)
    lab = map_sheaf_ii(lam, g)
    assert lab.stratum == StratumII(1, empty_diagram(3))
    assert lab.tau == ((1,),)
    with pytest.raises(ValueError):
        map_sheaf_ii(diag([(2, 3)], 3), g)  # not admissible


def test_map_sheaf_ii_rejects_a_plus_diagram():
    # its residual would have sign '+', and no catalog label has one
    g = GradingSpec("CII", 2, (2, 2))
    plus = list(iter_diagrams(2, "+", (2, 2), case="CII"))
    assert plus
    for lam in plus:
        with pytest.raises(ValueError, match="orbit diagrams have sign '-'"):
            map_sheaf_ii(lam, g)
    assert {map_sheaf_ii(duality(lam), g) for lam in plus} <= set(catalog_ii(g))


def test_map_sheaf_ai_rejects_a_plus_diagram_and_other_box_counts():
    g = GradingSpec("AI", 2, (1, 1))
    with pytest.raises(ValueError, match="orbit diagrams have sign '-'"):
        map_sheaf_ai(canonicalize([(2, 1)], 2, "+"), CentralCharacter(2, 0), 1, g)
    for lam in (diag([(1, 1), (1, 1)], 2), diag([(1, 1), (1, 1)], 1), diag([(2, 1), (1, 1)], 3)):
        with pytest.raises(ValueError, match="diagram box counts do not match the grading"):
            map_sheaf_ai(lam, CentralCharacter(lam.part_gcd, 0), 1, g)


def test_map_sheaf_ii_rejects_a_diagram_of_other_box_counts():
    g = GradingSpec("AII", 3, (2, 2, 2))
    with pytest.raises(ValueError, match="diagram box counts do not match the grading"):
        map_sheaf_ii(diag([(1, 1), (1, 3)], 3), g)
    with pytest.raises(ValueError, match="diagram box counts do not match the grading"):
        map_sheaf_ii(diag([(1, 1), (1, 1)], 1), g)  # another modulus


def test_map_sheaf_ai_rejects_a_type_ii_grading_before_peeling(monkeypatch):
    g = GradingSpec("AII", 3, (2, 2, 2))
    lam = diag([(6, 1)], 3)
    # a peel would now raise TypeError
    monkeypatch.setattr(sheaves, "peel_ai", None)
    with pytest.raises(ValueError, match="map_sheaf_ai maps case AI only, got case AII"):
        map_sheaf_ai(lam, CentralCharacter(6, 0), 1, g)


def test_map_sheaf_ii_rejects_an_ai_grading_up_front(monkeypatch):
    g = GradingSpec("AI", 2, (1, 1))
    # an admissibility check or a peel would now raise TypeError
    monkeypatch.setattr(sheaves, "admissible_for_case", None)
    monkeypatch.setattr(sheaves, "peel_ii", None)
    with pytest.raises(ValueError, match="map_sheaf_ii maps the type II cases only, got case AI"):
        map_sheaf_ii(diag([(1, 1), (1, 2)], 2), g)


ORDER_ENTRY_POINTS = {
    "d_check_stratum": lambda a: d_check_stratum(a, empty_diagram(2)),
    "verify_bijection": lambda a: verify_bijection(GradingSpec("AI", 2, (2, 2)), a),
    "catalog_ai": lambda a: catalog_ai(GradingSpec("AI", 2, (2, 2)), a),
    "catalog_ai_zero": lambda a: catalog_ai(GradingSpec("AI", 2, (0, 0)), a),
    "enumerate_strata_ai": lambda a: enumerate_strata_ai(GradingSpec("AI", 2, (2, 2)), a),
    "peel_ai": lambda a: peel_ai(diag([(2, 1), (2, 2)], 2), a),
    "is_distinguished_ai": lambda a: is_distinguished_ai(diag([(2, 1), (2, 2)], 2), a),
    "exact_order_characters": lambda a: exact_order_characters(4, a),
    "iter_diagrams": lambda a: iter_diagrams(2, MINUS, (2, 2), order=a),
}


@pytest.mark.parametrize("name", ORDER_ENTRY_POINTS)
@pytest.mark.parametrize(
    "a, message", [(2.0, "order must be an integer, got 2.0"), (0, "order must be >= 1")]
)
def test_order_must_be_an_integer_at_least_one(name, a, message):
    with pytest.raises(ValueError, match=message):
        ORDER_ENTRY_POINTS[name](a)


@pytest.mark.parametrize(
    "case, modulus, dims", [("AII", 3, (2, 2, 2)), ("CII", 2, (2, 2)), ("DII", 2, (3, 3))]
)
@pytest.mark.parametrize("a, message", [(0, "order must be >= 1"), (2.5, "order must be an integer")])
def test_verify_bijection_type_ii_rejects_a_bad_order(case, modulus, dims, a, message):
    grading = GradingSpec(case, modulus, dims)
    with pytest.raises(ValueError, match=message):
        verify_bijection(grading, a)
    # a valid order is ignored, as before
    assert verify_bijection(grading, 2) == verify_bijection(grading)


def test_verify_bijection_ai_anchor():
    g = GradingSpec("AI", 2, (1, 1))
    report = verify_bijection(g, 1)
    assert (report.complexes, report.labels) == (3, 3) and report.ok
    report = verify_bijection(g, 2)
    assert (report.complexes, report.labels) == (2, 2) and report.ok


def test_verify_bijection_zero_grading():
    report = verify_bijection(GradingSpec("AI", 2, (0, 0)), 1)
    assert (report.complexes, report.labels) == (1, 1) and report.ok
    # the zero orbit's component group is trivial: no character of order > 1
    for m in (1, 2, 3):
        for a in (2, 3):
            report = verify_bijection(GradingSpec("AI", m, (0,) * m), a)
            assert (report.complexes, report.labels) == (0, 0) and report.ok, (m, a)
    report = verify_bijection(GradingSpec("AII", 3, (0, 0, 0)))
    assert (report.complexes, report.labels) == (1, 1) and report.ok


def test_verify_bijection_aii_small():
    for total in range(0, 5):
        for dims in compositions(total, 3):
            try:
                g = GradingSpec("AII", 3, dims)
            except ValueError:
                continue
            assert verify_bijection(g).ok


def test_label_shapes():
    from math import gcd as _gcd

    g = GradingSpec("AI", 2, (2, 2))
    for a in divisors(4):
        for lab in catalog_ai(g, a):
            assert len(lab.tau) == _gcd(a, 2)
            assert sum(sum(c) for c in lab.tau) == lab.stratum.rank
            assert lab.psi.order == a
    gii = GradingSpec("AII", 3, (2, 2, 2))
    for lab in catalog_ii(gii):
        assert len(lab.tau) == 1
        assert sum(lab.tau[0]) == lab.stratum.rank


def test_verify_bijection_intermediate_gcd():
    # gcd(a, m) strictly between 1 and m exercises multi-component peeling
    g = GradingSpec("AI", 4, (1, 1, 1, 1))
    for a in (1, 2, 4):
        assert verify_bijection(g, a).ok
    assert verify_bijection(GradingSpec("AI", 4, (2, 2, 2, 2)), 2).ok
    assert verify_bijection(GradingSpec("AI", 4, (2, 1, 1, 0)), 2).ok


def test_nilpotent_support_flags():
    from gradedorbits.orbits import is_distinguished_ai, is_distinguished_ii

    g = GradingSpec("AI", 2, (2, 2))
    for a in divisors(4):
        for lab in catalog_ai(g, a):
            assert lab.nilpotent_support == (lab.stratum.rank == 0)
            if lab.nilpotent_support:
                assert is_distinguished_ai(lab.stratum.mu, a)
    gii = GradingSpec("AII", 3, (2, 2, 2))
    for lab in catalog_ii(gii):
        assert lab.nilpotent_support == (lab.stratum.rank == 0)
        if lab.nilpotent_support:
            assert is_distinguished_ii(lab.stratum.mu)


def test_catalog_sum_rule():
    # summed over the divisors of N, the catalog sizes count one label per
    # (orbit, component-group character) pair, i.e. the sum of the d_lambda
    for m in (1, 2, 3):
        for total in range(1, 5):
            for dims in compositions(total, m):
                g = GradingSpec("AI", m, dims)
                catalog_total = sum(len(catalog_ai(g, a)) for a in divisors(total))
                orbit_total = sum(
                    lam.part_gcd for lam in enumerate_diagrams(m, "-", dims)
                )
                assert catalog_total == orbit_total


def test_cuspidal_anchor():
    g = GradingSpec("AI", 2, (2, 1))
    labels = cuspidal_ai(g)
    assert len(labels) == 2  # Euler phi of 3
    for lab in labels:
        assert lab.cuspidal_conjectural
        assert lab.nilpotent_support
        assert lab.stratum.mu.partition == (3,)
        assert lab.psi.order == 3


def test_cuspidal_no_single_row():
    assert cuspidal_ai(GradingSpec("AI", 2, (3, 0))) == []
    assert cuspidal_ai(GradingSpec("AI", 2, (0, 0))) == []


def test_cuspidal_stable_case():
    g = GradingSpec("AI", 2, (1, 1))
    labels = cuspidal_ai(g)
    assert len(labels) == 3
    by_a = {}
    for lab in labels:
        by_a.setdefault(lab.stratum.a, []).append(lab)
    assert sorted(by_a) == [1, 2]
    assert len(by_a[1]) == 1 and len(by_a[2]) == 2


def test_cuspidal_subset_of_catalog():
    for g in (
        GradingSpec("AI", 2, (2, 1)),
        GradingSpec("AI", 2, (1, 1)),
        GradingSpec("AI", 2, (2, 2)),
        GradingSpec("AI", 3, (1, 1, 1)),
    ):
        labels = cuspidal_ai(g)
        orders = {lab.stratum.a for lab in labels}
        for a in orders:
            catalog = set(catalog_ai(g, a))
            flagged = {lab for lab in catalog if lab.cuspidal_conjectural}
            assert {lab for lab in labels if lab.stratum.a == a} == flagged
            assert flagged <= catalog


def reference_cuspidal_ai(grading: GradingSpec) -> list[SheafLabel]:
    """The cuspidal labels built by hand, stratum by stratum, from the
    conditions of the cuspidal flag: the reference for the catalog filter."""
    if grading.case != "AI":
        raise ValueError("the cuspidal catalog is implemented for case AI")
    m = grading.modulus
    total = grading.total
    if total == 0:
        return []
    out = []
    if total % m:
        # the canonical order puts a single-row diagram, if any, first
        regular = next(iter_diagrams(m, MINUS, grading.dims))
        if regular.partition != (total,):
            return []
        stratum = StratumAI(total, 0, regular, d_check_stratum(total, regular))
        tau = multipartitions(gcd(total, m), 0)[0]
        nilp, full, cusp = _flags_ai(grading, total, stratum)
        for psi in exact_order_characters(stratum.d_check, total):
            out.append(SheafLabel("AI", stratum, psi, tau, nilp, full, cusp))
        return out
    uniform = total // m
    if any(v != uniform for v in grading.dims):
        return []
    mu = empty_diagram(m, MINUS)
    for d_prime in divisors(m):
        if gcd(uniform, m // d_prime) != 1:
            continue
        a = d_prime * uniform
        stratum = StratumAI(a, 1, mu, d_check_stratum(a, mu))
        nilp, full, cusp = _flags_ai(grading, a, stratum)
        for psi in exact_order_characters(stratum.d_check, a):
            for tau in multipartitions(d_prime, 1):
                out.append(SheafLabel("AI", stratum, psi, tau, nilp, full, cusp))
    return out


# Every AI grading with m <= 4 and N <= 8 (714 of them), and the uniform
# gradings with m <= 6 and 1 to 4 boxes per label.
CUSPIDAL_GRADINGS = [
    GradingSpec("AI", m, dims)
    for m in range(1, 5)
    for total in range(9)
    for dims in compositions(total, m)
] + [GradingSpec("AI", m, (u,) * m) for m in (5, 6) for u in range(1, 5)]


def flagged_catalog_labels(grading: GradingSpec, orders) -> list[SheafLabel]:
    return [lab for a in orders for lab in catalog_ai(grading, a) if lab.cuspidal_conjectural]


def test_cuspidal_matches_catalog_filter_and_reference():
    found = 0
    for grading in CUSPIDAL_GRADINGS:
        m, total = grading.modulus, grading.total
        # every order up to N on the small gradings (the flag accepts no
        # other); only the orders d'*N/m on the larger uniform ones, whose
        # order-1 and order-2 catalogs are too large to walk here
        small = m <= 4
        orders = range(1, total + 1) if small else [d * total // m for d in divisors(m)]
        labels = cuspidal_ai(grading)
        assert labels == flagged_catalog_labels(grading, orders), grading
        assert labels == reference_cuspidal_ai(grading), grading
        found += bool(labels)
    # 74 of them carry cuspidal labels, so the comparison is not vacuous
    assert len(CUSPIDAL_GRADINGS) == 722 and found == 74


def test_cuspidal_visits_only_candidate_strata(monkeypatch):
    # Uniform box counts 1 at m = 30: the order-1 catalog has about 10^9
    # labels, so the cuspidal labels must come without walking any catalog.
    def no_walk(*args):
        raise AssertionError("cuspidal_ai walked a stratum enumeration")

    monkeypatch.setattr("gradedorbits.sheaves.enumerate_strata_ai", no_walk)
    labels = cuspidal_ai(GradingSpec("AI", 30, (1,) * 30))
    # one stratum per divisor d' of 30 at order d', with phi(d') characters
    # and d' multipartitions of 1 into d' components: sum of phi(d') * d'
    assert sorted({lab.stratum.a for lab in labels}) == list(divisors(30))
    assert len(labels) == 441
    assert all(lab.cuspidal_conjectural and lab.stratum.mu.is_empty for lab in labels)
    # m divides N = 30 with counts not uniform; and no single row of 32
    assert cuspidal_ai(GradingSpec("AI", 30, (1,) * 28 + (2, 0))) == []
    assert cuspidal_ai(GradingSpec("AI", 30, (2, 1, 2) + (1,) * 27)) == []
    assert len(cuspidal_ai(GradingSpec("AI", 30, (1,) * 29 + (2,)))) == 30


def test_orbital_complexes_get_only_diagrams_at_the_order(monkeypatch):
    # The order is a rule of the enumeration core: orbital_complexes is
    # handed no diagram it would have to drop, and needs no other.
    streamed = []
    real = iter_diagrams

    def recording(*args, **kwargs):
        for lam in real(*args, **kwargs):
            streamed.append(lam)
            yield lam

    monkeypatch.setattr("gradedorbits.sheaves.iter_diagrams", recording)
    for dims in ((4,), (2, 4), (3, 3, 3), (1, 2, 2, 1)):
        grading = GradingSpec("AI", len(dims), dims)
        for a in range(1, sum(dims) + 2):
            streamed.clear()
            pairs = orbital_complexes(grading, a)
            assert all(lam.part_gcd % a == 0 for lam in streamed), (dims, a)
            expected = [
                lam for lam in enumerate_diagrams(len(dims), MINUS, dims) if lam.part_gcd % a == 0
            ]
            assert streamed == expected, (dims, a)
            assert [lam for lam, _ in pairs] == [lam for lam in expected for _ in range(phi(a))]


def phi(a):
    return sum(1 for c in range(a) if gcd(c, a) == 1)


def multipartition_counts(d, n):
    """The number of d-component multipartitions of r for r = 0..n: the
    coefficients of the product of (1 - q^j)^-d over j >= 1."""
    counts = [1] + [0] * n
    for _ in range(d):
        for j in range(1, n + 1):
            for r in range(j, n + 1):
                counts[r] += counts[r - j]
    return counts


def counted_bijection(grading, a=1):
    """(orbital complexes, catalog labels) of the bijection by counting
    diagrams, listing none.  A complex is a diagram at order a with one of
    phi(a) characters; a label is a distinguished residual on the box
    counts a rank's padding leaves, with phi(a) characters and a
    multipartition of the rank into gcd(a, m) components (type II: one
    partition, padding 2 and trivial characters)."""
    m, dims = grading.modulus, grading.dims
    if grading.case == "AI":
        d, rule, chars = gcd(a, m), {"order": a}, phi(a)
        padding = a // d
    else:
        d, rule, chars, padding = 1, {"case": grading.case}, 1, 2
    ranks = min(dims) // padding
    weights = multipartition_counts(d, ranks)
    complexes = count_diagrams(m, MINUS, dims, **rule)
    residuals = sum(
        weights[r] * count_diagrams(
            m, MINUS, [v - r * padding for v in dims], distinguished=True, **rule
        )
        for r in range(ranks + 1)
    )
    return chars * complexes, chars * residuals


BIJECTION_GRADINGS = [
    ("AI", (4,)), ("AI", (2, 2)), ("AI", (2, 3)), ("AI", (1, 2, 3)), ("AI", (2, 2, 2)),
    ("AI", (1, 1, 1, 1)), ("AI", (2, 1, 2, 1)),
    ("AII", (1, 2, 1)), ("AII", (2, 2, 2)), ("CII", (2, 4)), ("DII", (3, 3)),
    ("DII", (1, 2, 2, 1)),
]


@pytest.mark.parametrize("case, dims", BIJECTION_GRADINGS)
def test_bijection_counts_match_verify(case, dims):
    grading = GradingSpec(case, len(dims), dims)
    for a in divisors(sum(dims)) if case == "AI" else (1,):
        report = verify_bijection(grading, a)
        assert counted_bijection(grading, a) == (report.complexes, report.labels), a


@pytest.mark.parametrize("case, dims", BIJECTION_GRADINGS)
def test_verify_bijection_computes_no_flag(monkeypatch, case, dims):
    # The two routes are compared on (stratum, character, tau) keys: no
    # flag, stratum dimension or catalog is computed; every AI image key
    # with its stratum's flags is the label map_sheaf_ai gives, and every
    # type II image key is the key of map_sheaf_ii's label.
    grading = GradingSpec(case, len(dims), dims)
    real_image = sheaves._image
    for a in divisors(grading.total) if case == "AI" else (1,):
        image = []

        def recording(g, order, lam, psi):
            image.append((lam, psi, real_image(g, order, lam, psi)))
            return image[-1][2]

        def forbidden(*args):
            raise AssertionError("verify_bijection computed a flag or a catalog")

        for name in ("_flags_ai", "stratum_dim_ai", "full_support_stratum_ii",
                     "catalog_ai", "catalog_ii"):
            monkeypatch.setattr(sheaves, name, forbidden)
        monkeypatch.setattr(sheaves, "_image", recording)
        report = verify_bijection(grading, a)
        monkeypatch.undo()
        assert report.ok and len(image) == report.complexes, a
        for lam, psi, key in image:
            if case == "AI":
                label = SheafLabel("AI", *key, *_flags_ai(grading, a, key[0]))
                assert label == map_sheaf_ai(lam, psi, a, grading), (lam, psi, a)
            else:
                label = map_sheaf_ii(lam, grading)
                assert (label.stratum, label.psi, label.tau) == key, lam


def reference_map_sheaf_ai(lam, psi, a, grading):
    """The list-based transport: psi's position among the orbit's
    exact-order-a characters picks the stratum's character at that
    position."""
    source = exact_order_characters(lam.part_gcd, a)
    if psi not in source:
        raise ValueError("character is not an exact-order-a character of this orbit")
    peel = peel_ai(lam, a)
    stratum = StratumAI(a, peel.rank, peel.residue, d_check_stratum(a, peel.residue))
    target = exact_order_characters(stratum.d_check, a)
    moved = target[source.index(psi)]
    return SheafLabel("AI", stratum, moved, peel.tau, *_flags_ai(grading, a, stratum))


def _label_or_error(transport, *args):
    try:
        return transport(*args)
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize(
    "dims", [dims for case, dims in BIJECTION_GRADINGS if case == "AI"] + [(0, 0), (6,), (4, 4)]
)
def test_map_sheaf_ai_matches_list_reference(dims):
    # every character of Z/n and of two wrong moduli, at every order up to N
    grading = GradingSpec("AI", len(dims), dims)
    mapped = 0
    for lam in iter_diagrams(grading.modulus, MINUS, dims):
        n = lam.part_gcd
        chars = [CentralCharacter(n, i) for i in range(max(n, 1))]
        chars += [CentralCharacter(n + 1, 0), CentralCharacter(2 * n + 2, 1)]
        for a in range(1, grading.total + 2):
            for psi in chars:
                want = _label_or_error(reference_map_sheaf_ai, lam, psi, a, grading)
                assert _label_or_error(map_sheaf_ai, lam, psi, a, grading) == want, (lam, psi, a)
                mapped += isinstance(want, SheafLabel)
    assert mapped == sum(len(orbital_complexes(grading, a)) for a in range(1, grading.total + 2))


@pytest.mark.parametrize(
    "case, dims, a, count",
    [
        ("AI", (8, 8, 8, 8), 2, 28_433),
        ("AI", (15, 15, 15), 3, 71_162),
        ("AI", (12, 12, 12), 1, 4_717_841),
        ("AI", (20, 20), 2, 24_842),
        ("DII", (30, 30), 1, 46_092),
        ("CII", (10, 10, 10, 10), 1, 3_048),
        ("AII", (12, 12, 12), 1, 618),
    ],
)
def test_bijection_cardinality_identity_at_depth(case, dims, a, count):
    # far past what verify_bijection lists: the two sides agree by counting
    assert counted_bijection(GradingSpec(case, len(dims), dims), a) == (count, count)
