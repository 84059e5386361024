"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible with
`pytest -s` or in captured output).  All comparisons are exact.
"""

import os
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

from gradedorbits.diagrams import (
    canonicalize,
    enumerate_by_size,
    enumerate_diagrams,
    partitions,
)
from gradedorbits.orbits import (
    GradingSpec,
    admissible_for_case,
    duality,
    enumerate_strata,
    is_distinguished_ai,
    is_distinguished_ii,
    orbit_dim,
    stratum_dim_ai,
)
from gradedorbits.oracle import build_representative, is_distinguished_oracle
from gradedorbits.series import (
    gf_distinguished_ai,
    gf_distinguished_ii,
    gf_orbit_count,
    weight_count,
)
from gradedorbits.sheaves import cuspidal_ai, divisors, verify_bijection

from conftest import compositions
from test_oracle import centralizer_dim_k

PKG_ROOT = Path(__file__).resolve().parents[1]

FAMILY_CASE = {"A": "AII", "C": "CII", "D": "DII"}


def _report(number, description, ok):
    print(f"ACCEPTANCE {number} ({description}): {'PASS' if ok else 'FAIL'}")
    return ok


@lru_cache(maxsize=None)
def _family_counts(base, l, n):
    """(admissible, admissible-and-distinguished) diagram counts of size 2n."""
    modulus = 2 * l + 1 if base == "A" else 2 * l
    case = FAMILY_CASE[base]
    admissible = 0
    distinguished = 0
    for lam in enumerate_by_size(modulus, "-", 2 * n):
        if not admissible_for_case(lam, case):
            continue
        admissible += 1
        if is_distinguished_ii(lam):
            distinguished += 1
    return admissible, distinguished


def test_criterion_1_orbit_count_series():
    start = time.monotonic()
    n_max = 6
    ok = True
    anchor = gf_orbit_count("A", 1, 3)[3] == 10
    ok = ok and anchor
    for base in "ACD":
        for l in (1, 2):
            series = gf_orbit_count(base, l, n_max)
            for n in range(n_max + 1):
                coeff = series[n]
                weights = sum(weight_count(mu, base, l=l) for mu in partitions(n))
                enum = _family_counts(base, l, n)[0]
                ok = ok and coeff == weights == enum
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    assert _report(1, "orbit-count series vs weights vs enumeration, runtime "
                      f"{elapsed:.1f}s", ok)


def test_criterion_2_distinguished_count_series():
    ok = True
    # anchor: the first distinguished counts at modulus 2, order 1
    anchor = gf_distinguished_ai(2, 1, 2) == (1, 2, 4)
    ok = ok and anchor
    for m, a in ((2, 1), (3, 1), (4, 2), (6, 2)):
        series = gf_distinguished_ai(m, a, 6)
        for j in range(7):
            enum = 0
            for small in enumerate_by_size(m, "-", j):
                scaled = canonicalize(
                    [(length * a, start) for length, start in small.rows], m, "-"
                )
                if is_distinguished_ai(scaled, a):
                    enum += 1
            ok = ok and series[j] == enum
    for base in "ACD":
        for l in (1, 2):
            series = gf_distinguished_ii(base, l, 6)
            for n in range(7):
                ok = ok and series[n] == _family_counts(base, l, n)[1]
    assert _report(2, "distinguished-count series vs enumeration", ok)


def test_criterion_3_bijection_ai():
    ok = True
    for m in (1, 2, 3):
        for total in range(7):
            for dims in compositions(total, m):
                g = GradingSpec("AI", m, dims)
                for a in divisors(total):
                    ok = ok and verify_bijection(g, a).ok
    anchor = GradingSpec("AI", 2, (1, 1))
    r1 = verify_bijection(anchor, 1)
    r2 = verify_bijection(anchor, 2)
    ok = ok and (r1.complexes, r1.labels) == (3, 3)
    ok = ok and (r2.complexes, r2.labels) == (2, 2)
    assert _report(3, "orbit-to-label bijection, case AI", ok)


def test_criterion_4_bijection_type_ii():
    ok = True
    for case, modulus in (("AII", 3), ("CII", 2), ("CII", 4), ("DII", 2), ("DII", 4)):
        for total in range(7):
            for dims in compositions(total, modulus):
                try:
                    g = GradingSpec(case, modulus, dims)
                except ValueError:
                    continue
                ok = ok and verify_bijection(g).ok
    assert _report(4, "orbit-to-label bijection, type II", ok)


def test_criterion_5_oracle_agreement():
    start = time.monotonic()
    ok = True
    for m in (1, 2, 3):
        for size in range(6):
            for lam in enumerate_by_size(m, "-", size):
                predicted = is_distinguished_ai(lam, 1)
                sampled = is_distinguished_oracle(lam)
                ok = ok and predicted == sampled
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    assert _report(5, "combinatorial predicate vs nilpotency oracle, runtime "
                      f"{elapsed:.1f}s", ok)


def test_criterion_6_dimension_identities():
    ok = True
    for m in (1, 2, 3):
        for total in range(1, 7):
            for dims in compositions(total, m):
                dim_k = sum(v * v for v in dims) - 1
                for lam in enumerate_diagrams(m, "-", dims):
                    x = build_representative(duality(lam))
                    ok = ok and orbit_dim(lam) + centralizer_dim_k(x) == dim_k
    # the fully padded stratum of a uniform grading is dense
    for m in (1, 2, 3):
        for total in range(m, 7, m):
            dims = (total // m,) * m
            g = GradingSpec("AI", m, dims)
            for a in divisors(m):
                dense = [s for s in enumerate_strata(g, a) if s.mu.is_empty]
                ok = ok and len(dense) == 1
                ok = ok and stratum_dim_ai(dense[0], g) == g.dim_g1
    assert _report(6, "dimension identities", ok)


def test_criterion_7_cuspidal_anchor():
    labels = cuspidal_ai(GradingSpec("AI", 2, (2, 1)))
    ok = len(labels) == 2
    for lab in labels:
        ok = ok and lab.cuspidal_conjectural
        ok = ok and lab.stratum.mu.partition == (3,)
        ok = ok and lab.psi.order == 3
    assert _report(7, "cuspidal anchor: two maximal-order labels on the "
                      "single-row orbit", ok)


CLI_COMMANDS = (
    ("orbits", "--case", "AI", "--m", "2", "--dims", "2,1", "--format", "json"),
    ("orbits", "--case", "AII", "--m0", "3", "--dims", "2,2,2"),
    ("count", "--family", "A", "--l", "1", "--n", "3", "--format", "csv"),
    ("count", "--family", "dist-AI", "--m", "2", "--a", "1", "--n", "3"),
    ("sheaves", "--case", "AI", "--m", "2", "--dims", "1,1", "--a", "1", "--format", "json"),
    ("sheaves", "--case", "CII", "--m", "2", "--dims", "2,2", "--format", "csv"),
    ("verify", "--case", "AI", "--m", "3", "--dims", "1,1,1", "--a", "1"),
    ("verify", "--case", "DII", "--m", "2", "--dims", "2,2", "--format", "json"),
    ("cuspidal", "--case", "AI", "--m", "2", "--dims", "2,1"),
    (
        "distinguished", "--case", "AI", "--m", "2", "--N", "4", "--oracle",
        "--seed", "0", "--trials", "20", "--format", "json",
    ),
)


def _run_cli(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PKG_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "gradedorbits", *argv],
        capture_output=True,
        env=env,
        cwd=PKG_ROOT,
    )


def test_criterion_8_cli_determinism():
    ok = True
    for argv in CLI_COMMANDS:
        first = _run_cli(argv)
        second = _run_cli(argv)
        ok = ok and first.returncode == second.returncode == 0
        ok = ok and first.stdout == second.stdout
    assert _report(8, "byte-identical repeated CLI runs", ok)
