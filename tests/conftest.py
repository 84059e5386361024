"""Shared fixtures and brute-force oracles.

The oracles here are deliberately independent of the library's enumeration
strategy: rows are generated by explicit label walking and multisets by
combinations-with-replacement, so agreement is a real check.
"""

import os
import subprocess
import sys
from itertools import combinations_with_replacement, product
from math import comb
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("det", derandomize=True)
settings.load_profile("det")

PKG_ROOT = Path(__file__).resolve().parents[1]


def naive_row_labels(length, start, k, sign):
    """Box labels of a row, computed by stepping with explicit wraparound."""
    labels = []
    lab = start
    for _ in range(length):
        labels.append(lab)
        if sign == "+":
            lab -= 1
            if lab == 0:
                lab = k
        else:
            lab += 1
            if lab == k + 1:
                lab = 1
    return labels


def naive_diagram_counts(rows, k, sign):
    counts = [0] * k
    for length, start in rows:
        for lab in naive_row_labels(length, start, k, sign):
            counts[lab - 1] += 1
    return tuple(counts)


def brute_force_diagrams(k, sign, dims):
    """All row multisets with the given label counts, as sorted tuples of
    (length, start) pairs."""
    total = sum(dims)
    rows = [(length, start) for length in range(1, total + 1) for start in range(1, k + 1)]
    found = set()
    for nrows in range(total + 1):
        for combo in combinations_with_replacement(rows, nrows):
            if sum(length for length, _ in combo) != total:
                continue
            if naive_diagram_counts(combo, k, sign) == tuple(dims):
                found.add(tuple(sorted(combo)))
    return found


def brute_force_by_size(k, size):
    """All row multisets with `size` boxes in total over every box-count
    vector, as sorted tuples of (length, start) pairs: every multiset of row
    lengths summing to the size, with every start label on every row."""
    found = set()
    for nrows in range(size + 1):
        for lengths in combinations_with_replacement(range(1, size + 1), nrows):
            if sum(lengths) != size:
                continue
            for starts in product(range(1, k + 1), repeat=nrows):
                found.add(tuple(sorted(zip(lengths, starts))))
    return found


def compositions(total, slots):
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, slots - 1):
            yield (first,) + rest


# Truncated-series arithmetic, the reference for the generating functions'
# stride products: each factor expanded in full and convolved in.  A series
# is the tuple of its coefficients of degrees 0..n, as the generating
# functions return it.


def series_one(n_max: int) -> tuple[int, ...]:
    return (1,) + (0,) * n_max


def series_mul(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """Product truncated to the smaller truncation degree."""
    n = min(len(f), len(g)) - 1
    out = [0] * (n + 1)
    for i, a in enumerate(f[: n + 1]):
        if a:
            for j in range(n - i + 1):
                b = g[j]
                if b:
                    out[i + j] += a * b
    return tuple(out)


def series_geom_pow(j: int, e: int, n_max: int) -> tuple[int, ...]:
    """Expansion of (1 - x^j)^(-e); a negative e gives the polynomial
    (1 - x^j)^(-e) with alternating binomial coefficients."""
    if j < 1:
        raise ValueError("exponent step must be >= 1")
    if n_max < 0:
        raise ValueError("truncation degree must be nonnegative")
    out = [0] * (n_max + 1)
    for t in range(n_max // j + 1):
        if e >= 1:
            c = comb(t + e - 1, e - 1)
        elif e == 0:
            c = 1 if t == 0 else 0
        else:
            p = -e
            c = (-1) ** t * comb(p, t) if t <= p else 0
        out[j * t] = c
    return tuple(out)


@pytest.fixture
def run_cli():
    def run(*argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(PKG_ROOT / "src")
        return subprocess.run(
            [sys.executable, "-m", "gradedorbits", *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=PKG_ROOT,
        )

    return run
