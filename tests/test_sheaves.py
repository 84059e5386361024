from math import gcd

import pytest

from gradedorbits.diagrams import (
    MINUS,
    FilledDiagram,
    _Fills,
    canonicalize,
    count_diagrams,
    empty_diagram,
    enumerate_diagrams,
    iter_diagrams,
    multipartitions,
    partitions,
)
from gradedorbits import orbits, sheaves
from gradedorbits.orbits import (
    GradingSpec,
    Stratum,
    component_group_order,
    d_check_stratum,
    duality,
    enumerate_strata,
    is_distinguished_ai,
    peel_ai,
)
from gradedorbits.sheaves import (
    CentralCharacter,
    SheafLabel,
    _flags_ai,
    catalog,
    cuspidal_ai,
    divisors,
    exact_order_characters,
    map_sheaf,
    orbital_complexes,
    verify_bijection,
)

from conftest import compositions


def diag(rows, k):
    return canonicalize(rows, k, "-")


# the one character of Z/1, which every type II orbit carries
TRIVIAL = CentralCharacter(1, 0)


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
    # the trivial group Z/1 has only the trivial character
    assert exact_order_characters(1, 1) == [CentralCharacter(1, 0)]
    assert exact_order_characters(1, 2) == []
    with pytest.raises(ValueError, match="^modulus must be >= 1, got 0$"):
        exact_order_characters(0, 1)


def test_exact_order_character_counts_are_phi():
    for a in divisors(12):
        chars = exact_order_characters(12, a)
        assert len(chars) == PHI[a]
        assert all(psi.order == a for psi in chars)


def test_central_character_validation():
    assert CentralCharacter(6, 2).order == 3
    assert CentralCharacter(1, 0).order == 1
    with pytest.raises(ValueError):
        CentralCharacter(4, 4)
    with pytest.raises(ValueError):
        CentralCharacter(1, 1)
    with pytest.raises(ValueError, match="^modulus must be >= 1, got 0$"):
        CentralCharacter(0, 0)


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
    labels = catalog(g, 1)
    assert [
        (lab.stratum.rank, str(lab.stratum.mu), lab.psi.index, lab.tau) for lab in labels
    ] == [
        (0, "2_1", 0, ((),)),
        (0, "2_2", 0, ((),)),
        (1, "empty", 0, ((1,),)),
    ]
    labels = catalog(g, 2)
    assert len(labels) == 2
    assert {lab.tau for lab in labels} == {((1,), ()), ((), (1,))}
    assert all(lab.psi == CentralCharacter(2, 1) for lab in labels)
    assert catalog(g, 3) == []


def test_catalog_ai_flags():
    g = GradingSpec("AI", 2, (1, 1))
    labels = catalog(g, 1)
    for lab in labels:
        assert lab.nilpotent_support == (lab.stratum.rank == 0)
    dense = [lab for lab in labels if lab.full_support]
    assert [str(lab.stratum.mu) for lab in dense] == ["empty"]


def test_catalog_ii_examples():
    g = GradingSpec("AII", 3, (1, 0, 1))
    labels = catalog(g)
    assert len(labels) == 1
    lab = labels[0]
    assert lab.stratum == Stratum(1, 0, diag([(1, 1), (1, 3)], 3), 1)
    assert lab.tau == ((),)
    assert lab.nilpotent_support and lab.full_support

    g0 = GradingSpec("AII", 3, (0, 0, 0))
    assert len(catalog(g0)) == 1

    g6 = GradingSpec("AII", 3, (2, 2, 2))
    labels = catalog(g6)
    assert len(labels) == 3  # two distinguished orbits plus the padded stratum
    assert sum(1 for lab in labels if lab.nilpotent_support) == 2
    assert sum(1 for lab in labels if lab.full_support) == 1


def test_map_sheaf_ai_examples():
    g = GradingSpec("AI", 2, (1, 1))
    lab = map_sheaf(g, diag([(1, 1), (1, 2)], 2), CentralCharacter(1, 0), 1)
    assert lab.stratum == Stratum(1, 1, empty_diagram(2), 2)
    assert lab.psi == CentralCharacter(2, 0)
    assert lab.tau == ((1,),)

    lab = map_sheaf(g, diag([(2, 1)], 2), CentralCharacter(2, 0), 1)
    assert lab.stratum == Stratum(1, 0, diag([(2, 1)], 2), 2)
    assert lab.tau == ((),)

    with pytest.raises(ValueError):
        map_sheaf(g, diag([(1, 1), (1, 2)], 2), CentralCharacter(2, 1), 2)


def test_map_sheaf_ai_preserves_character_order():
    g = GradingSpec("AI", 2, (1, 1))
    lab = map_sheaf(g, diag([(2, 1)], 2), CentralCharacter(2, 1), 2)
    assert lab.psi.order == 2 and lab.psi == CentralCharacter(2, 1)


def test_map_sheaf_ii_example():
    g = GradingSpec("AII", 3, (2, 2, 2))
    lam = diag([(1, 1), (1, 1), (1, 2), (1, 2), (1, 3), (1, 3)], 3)
    lab = map_sheaf(g, lam, TRIVIAL)
    assert lab.stratum == Stratum(1, 1, empty_diagram(3), 1)
    assert lab.tau == ((1,),)
    with pytest.raises(ValueError):
        map_sheaf(g, diag([(2, 3)], 3), TRIVIAL)  # not admissible


def test_map_sheaf_ii_rejects_a_plus_diagram():
    # its residual would have sign '+', and no catalog label has one
    g = GradingSpec("CII", 2, (2, 2))
    plus = list(iter_diagrams(2, "+", (2, 2), case="CII"))
    assert plus
    for lam in plus:
        with pytest.raises(ValueError, match="orbit diagrams have sign '-'"):
            map_sheaf(g, lam, TRIVIAL)
    assert {map_sheaf(g, duality(lam), TRIVIAL) for lam in plus} <= set(catalog(g))


def test_map_sheaf_ai_rejects_a_plus_diagram_and_other_box_counts():
    g = GradingSpec("AI", 2, (1, 1))
    with pytest.raises(ValueError, match="orbit diagrams have sign '-'"):
        map_sheaf(g, canonicalize([(2, 1)], 2, "+"), CentralCharacter(2, 0), 1)
    for lam in (diag([(1, 1), (1, 1)], 2), diag([(1, 1), (1, 1)], 1), diag([(2, 1), (1, 1)], 3)):
        with pytest.raises(ValueError, match="diagram box counts do not match the grading"):
            map_sheaf(g, lam, CentralCharacter(lam.part_gcd, 0), 1)


def test_map_sheaf_ii_rejects_a_diagram_of_other_box_counts():
    g = GradingSpec("AII", 3, (2, 2, 2))
    with pytest.raises(ValueError, match="diagram box counts do not match the grading"):
        map_sheaf(g, diag([(1, 1), (1, 3)], 3), TRIVIAL)
    with pytest.raises(ValueError, match="diagram box counts do not match the grading"):
        map_sheaf(g, diag([(1, 1), (1, 1)], 1), TRIVIAL)  # another modulus


ORDER_ENTRY_POINTS = {
    "d_check_stratum": lambda a: d_check_stratum(a, empty_diagram(2)),
    "verify_bijection": lambda a: verify_bijection(GradingSpec("AI", 2, (2, 2)), a),
    "catalog": lambda a: catalog(GradingSpec("AI", 2, (2, 2)), a),
    "catalog_zero": lambda a: catalog(GradingSpec("AI", 2, (0, 0)), a),
    "enumerate_strata": lambda a: enumerate_strata(GradingSpec("AI", 2, (2, 2)), a),
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


# True == 1, but it would print and serialize as a bool
BOOL_INPUTS = {
    "GradingSpec.modulus": (lambda: GradingSpec("AI", True, (1,)), "modulus must be an integer, got True"),
    "GradingSpec.dims": (lambda: GradingSpec("AI", 1, (True,)), "box count must be an integer, got True"),
    "FilledDiagram.modulus": (lambda: FilledDiagram(True, "-", ()), "modulus must be an integer, got True"),
    "FilledDiagram.rows": (lambda: FilledDiagram(1, "-", ((1, True),)),
                           "row length and start must be integers, got (1, True)"),
    "verify_bijection": (lambda: verify_bijection(GradingSpec("AI", 1, (1,)), True),
                         "order must be an integer, got True"),
    "exact_order_characters.order": (lambda: exact_order_characters(2, True),
                                     "order must be an integer, got True"),
    "exact_order_characters.modulus": (lambda: exact_order_characters(True, 1),
                                       "modulus must be an integer, got True"),
    "partitions": (lambda: partitions(True), "partition size must be an integer, got True"),
}


@pytest.mark.parametrize("name", BOOL_INPUTS)
def test_a_bool_is_not_an_integer(name):
    call, message = BOOL_INPUTS[name]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


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
        for lab in catalog(g, a):
            assert len(lab.tau) == _gcd(a, 2)
            assert sum(sum(c) for c in lab.tau) == lab.stratum.rank
            assert lab.psi.order == a
    gii = GradingSpec("AII", 3, (2, 2, 2))
    for lab in catalog(gii):
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
        for lab in catalog(g, a):
            assert lab.nilpotent_support == (lab.stratum.rank == 0)
            if lab.nilpotent_support:
                assert is_distinguished_ai(lab.stratum.mu, a)
    gii = GradingSpec("AII", 3, (2, 2, 2))
    for lab in catalog(gii):
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
                catalog_total = sum(len(catalog(g, a)) for a in divisors(total))
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
            every = set(catalog(g, a))
            flagged = {lab for lab in every if lab.cuspidal_conjectural}
            assert {lab for lab in labels if lab.stratum.a == a} == flagged
            assert flagged <= every


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
        stratum = Stratum(total, 0, regular, d_check_stratum(total, regular))
        tau = multipartitions(gcd(total, m), 0)[0]
        nilp, full, cusp = _flags_ai(grading, stratum)
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
        stratum = Stratum(a, 1, mu, d_check_stratum(a, mu))
        nilp, full, cusp = _flags_ai(grading, stratum)
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
    return [lab for a in orders for lab in catalog(grading, a) if lab.cuspidal_conjectural]


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

    # every stratum walk in sheaves goes through orbits._strata, imported
    # or through enumerate_strata
    monkeypatch.setattr("gradedorbits.sheaves._strata", no_walk)
    monkeypatch.setattr("gradedorbits.orbits._strata", no_walk)
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
    # flag, stratum dimension or catalog is computed; every image key is
    # the key of map_sheaf's label, and every AI image key with its
    # stratum's flags is that label.  The keys are those of the routes'
    # helper, in orbital_complexes order.  Through the public API alone,
    # the labels of all orbital complexes are the catalog.
    grading = GradingSpec(case, len(dims), dims)
    for a in divisors(grading.total) if case == "AI" else (1,):

        def forbidden(*args):
            raise AssertionError("verify_bijection computed a flag or a catalog")

        for name in ("_flags_ai", "stratum_dim_ai", "full_support_stratum_ii", "catalog"):
            monkeypatch.setattr(sheaves, name, forbidden)
        # nor any record per stratum, character or key: the keys are plain
        for where, name in (
            (sheaves, "Stratum"), (orbits, "Stratum"), (sheaves, "CentralCharacter"),
            (sheaves, "FilledDiagram"), (orbits, "_built_diagram"),
        ):
            monkeypatch.setattr(where, name, forbidden)
        report = verify_bijection(grading, a)
        image, keys = sheaves._route_keys(grading, a)
        monkeypatch.undo()
        assert report.ok and (len(image), len(keys)) == (report.complexes, report.labels), a
        strata = enumerate_strata(grading, a)
        labels = [map_sheaf(grading, lam, psi, a) for lam, psi in orbital_complexes(grading, a)]
        keyed = [(lab.stratum, lab.psi, lab.tau) for lab in labels]
        assert plain_keys(keyed, stratum_indices(strata)) == image, a
        # a plain key with its stratum and that stratum's flags is the label
        if case == "AI":
            assert labels == [
                SheafLabel("AI", strata[i], CentralCharacter(strata[i].d_check, c), tau,
                           *_flags_ai(grading, strata[i]))
                for i, c, tau in image
            ], a
        assert set(labels) == set(catalog(grading, a)), a


def stratum_indices(strata):
    """Each stratum's position in the list, by its rank and residual rows;
    the strata must be distinct."""
    index = {(s.rank, s.mu.rows): i for i, s in enumerate(strata)}
    assert len(index) == len(strata)
    return index


def plain_keys(keys, index):
    """(stratum, character, tau) keys projected onto verify_bijection's plain
    keys: the stratum's index, the character's residue and tau."""
    return [(index[s.rank, s.mu.rows], psi.index, tau) for s, psi, tau in keys]


def _drop_one(strata):
    return strata[: len(strata) // 2] + strata[len(strata) // 2 + 1 :]


def _repeat_one(strata):
    return strata[: len(strata) // 2 + 1] + strata[len(strata) // 2 :]


def _off_by_one(real):
    # the first result of the rule, which the routes reuse per group order,
    # moves one residue up
    calls = []

    def shifted(*args):
        calls.append(args)
        out = real(*args)
        if len(calls) > 1:
            return out
        if isinstance(out, int):
            return out + 1
        (c, tau), *rest = out
        return [(c + 1, tau), *rest]

    return shifted


# (case, dims, order): AI at orders a > 1, with characters of order 2, 3
# and 4 on groups of several orders, and a type II grading with Z/1
# characters
MUTATED_GRADINGS = [
    ("AI", (3, 3, 3), 3), ("AI", (6, 6), 3), ("AI", (4, 4, 4), 4), ("AI", (2, 2, 2), 2),
    ("DII", (3, 2, 2, 3), 1),
]


@pytest.mark.parametrize("case, dims, a", MUTATED_GRADINGS)
@pytest.mark.parametrize("mutation", ["drop", "repeat", "moved", "pairs"])
def test_verify_bijection_catches_a_mutated_route(monkeypatch, case, dims, a, mutation):
    # The plain keys still tell a broken route: a stratum dropped or
    # repeated, or one residue off by one on either route, fails the check.
    grading = GradingSpec(case, len(dims), dims)
    assert verify_bijection(grading, a).ok
    if mutation in ("drop", "repeat"):
        real = sheaves._strata
        change = _drop_one if mutation == "drop" else _repeat_one
        monkeypatch.setattr(sheaves, "_strata", lambda *args: change(real(*args)))
    else:
        name = "_" + mutation
        monkeypatch.setattr(sheaves, name, _off_by_one(getattr(sheaves, name)))
    report = verify_bijection(grading, a)
    assert not report.ok, report
    assert (report.complexes, report.labels) != (0, 0)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_zero_grading_strata_labels_and_complexes_agree(m):
    # the zero grading has one label, at a = 1: its strata, catalog and
    # orbital complexes are empty together at every other order
    grading = GradingSpec("AI", m, (0,) * m)
    for a in range(1, 2 * m + 1):
        found = [bool(enumerate_strata(grading, a)), bool(catalog(grading, a)), bool(orbital_complexes(grading, a))]
        assert found == [a == 1] * 3, a


# (case, modulus, deepest total) of the routes' differential test: every
# valid grading up to that total, at every order dividing it.
ROUTE_RANGES = [("AI", m, 8) for m in (1, 2, 3)] + [("AI", 4, 6)] + [
    (case, m, 10)
    for case, moduli in (("AII", (1, 3, 5)), ("CII", (2, 4, 6)), ("DII", (2, 4, 6)))
    for m in moduli
]


@pytest.mark.parametrize("case, m, deepest", ROUTE_RANGES)
def test_route_keys_equal_the_one_complex_and_one_stratum_maps(case, m, deepest):
    # verify_bijection's keys come from one shared walk and per-block
    # peels; they must be, in order, _image of each orbital complex and
    # the catalog's keys, stratum by stratum of the unshared enumeration,
    # both projected onto the plain keys.
    checked = 0
    for total in range(deepest + 1):
        for dims in compositions(total, m):
            try:
                grading = GradingSpec(case, m, dims)
            except ValueError:
                continue
            orders = (1,) if case != "AI" else divisors(total) if total else (1, 2, 3)
            for a in orders:
                image, keys = sheaves._route_keys(grading, a)
                strata = enumerate_strata(grading, a)
                index = stratum_indices(strata)
                mapped = [
                    sheaves._image(grading, a, lam, psi) for lam, psi in orbital_complexes(grading, a)
                ]
                assert image == plain_keys(mapped, index), (dims, a)
                labels = [(lab.stratum, lab.psi, lab.tau) for lab in catalog(grading, a)]
                assert keys == plain_keys(labels, index), (dims, a)
                # the orbits' own records, none taken from the strata route:
                # each residual gets the next index as it first turns up
                first: dict = {}
                for s, _, _ in mapped:
                    first.setdefault((s.rank, s.mu.rows), len(first))
                fills = sheaves._fills(grading, a)
                alone = sheaves._image_keys(grading, a, fills, [])
                assert alone == plain_keys(mapped, first), (dims, a)
                checked += 1
    assert checked > 0


@pytest.mark.parametrize("case, dims", BIJECTION_GRADINGS)
def test_verify_bijection_fills_each_block_once(monkeypatch, case, dims):
    # One _Fills serves the orbit walk and the strata's distinguished walk,
    # so a call runs _vectors once per (length, count, slack) block.
    made, runs, block = [], [], []
    real_init, real_block, real_vectors = _Fills.__init__, _Fills._block, _Fills._vectors

    def init(self, *args, **kwargs):
        made.append(self)
        real_init(self, *args, **kwargs)

    # the orbits are shared by the lengths of one residue, so the length
    # of a run is that of the block being filled
    def fill_block(self, length, count, slack):
        block[:] = [length]
        return real_block(self, length, count, slack)

    def vectors(self, orbits, j, left, counts, slack, *args):
        if j == 0:
            runs.append((block[0], left, slack))
        return real_vectors(self, orbits, j, left, counts, slack, *args)

    monkeypatch.setattr(_Fills, "__init__", init)
    monkeypatch.setattr(_Fills, "_block", fill_block)
    monkeypatch.setattr(_Fills, "_vectors", vectors)
    grading = GradingSpec(case, len(dims), dims)
    filled = 0
    for a in divisors(grading.total) if case == "AI" else (1,):
        made.clear()
        runs.clear()
        assert verify_bijection(grading, a).ok
        assert len(made) == 1, a
        assert len(set(runs)) == len(runs), a
        filled += len(runs)
    assert filled > 0


@pytest.mark.parametrize(
    "a, message",
    [
        (0, "order must be >= 1, got 0"),
        (-1, "order must be >= 1, got -1"),
        (2.5, "order must be an integer, got 2.5"),
        ("x", "order must be an integer, got 'x'"),
    ],
)
def test_orbital_complexes_type_ii_rejects_a_bad_order(a, message):
    # A type II grading drops the order only after checking it, with the
    # messages verify_bijection gives, at every entry point that takes it.
    grading = GradingSpec("AII", 3, (2, 2, 2))
    lam = diag([(1, 1), (1, 1), (1, 2), (1, 2), (1, 3), (1, 3)], 3)
    calls = {
        "orbital_complexes": lambda a: orbital_complexes(grading, a),
        "verify_bijection": lambda a: verify_bijection(grading, a),
        "catalog": lambda a: catalog(grading, a),
        "enumerate_strata": lambda a: enumerate_strata(grading, a),
        "map_sheaf": lambda a: map_sheaf(grading, lam, TRIVIAL, a),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError) as err:
            call(a)
        assert str(err.value) == message, name
        # a valid order is ignored, as before
        assert call(2) == call(1), name


def reference_map_sheaf_ai(lam, psi, a, grading):
    """The list-based transport: psi's position among the orbit's
    exact-order-a characters picks the stratum's character at that
    position."""
    source = exact_order_characters(component_group_order(lam, grading), a)
    if psi not in source:
        raise ValueError("character is not an exact-order-a character of this orbit")
    peel = peel_ai(lam, a)
    stratum = Stratum(a, peel.rank, peel.residue, d_check_stratum(a, peel.residue))
    target = exact_order_characters(stratum.d_check, a)
    moved = target[source.index(psi)]
    return SheafLabel("AI", stratum, moved, peel.tau, *_flags_ai(grading, stratum))


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
        n = component_group_order(lam, grading)
        chars = [CentralCharacter(n, i) for i in range(n)]
        chars += [CentralCharacter(n + 1, 0), CentralCharacter(2 * n + 2, 1)]
        for a in range(1, grading.total + 2):
            for psi in chars:
                want = _label_or_error(reference_map_sheaf_ai, lam, psi, a, grading)
                assert _label_or_error(map_sheaf, grading, lam, psi, a) == want, (lam, psi, a)
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
