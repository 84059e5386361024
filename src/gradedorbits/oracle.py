"""Exact linear-algebra oracle for the cyclic-quiver realization (case AI).

A filled diagram is realized by its string representative x, with one basis
vector per box and each box mapped to the next box of its row.  One
commutator system, {z : x z = z x} for block matrices z of a single degree,
serves both of the oracle's jobs.  Its equations are read straight off the
diagram's rows (`_string_entries`); dense 0/1 blocks are built only by
`build_representative`, for `distinguished --dump-matrices` and the tests.
x has at most one 1 in each row and each column, so at every degree of z
each equation sets two cells of z equal or one cell zero.  A component of
equal cells with no zero cell is a live one, one element of that degree's
centralizer 0/1 basis.  At degree 0 a union-find pass over the cells
(`_cell_roots`) counts the live components (`centralizer_dim_gl`).  At
degree -(deg x), `is_distinguished_oracle` walks through the live cells,
each read off the two ends of its diagonal of equal cells.

The library's orbit and stratum dimensions come from the closed form in
`orbits` (`centralizer_dim`, `orbit_dim`, `stratum_dim_ai`), which counts
pairs of rows; the component count here (`centralizer_dim_gl`) is the
independent reference that the tests compare them against.

Everything is exact: no floating point is used, no `Fraction` is formed and
no system is eliminated.  The tests' references are the fraction-free
elimination of the same systems and, for the end rule, the union-find.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagrams import FilledDiagram, PLUS
from .orbits import GradingSpec

Matrix = tuple[tuple[int, ...], ...]


def _zero_blocks(dims, degree: int) -> list[list[list[int]]]:
    """Zero blocks of the given degree: block i maps label i to label
    i - degree, labels counted from 0."""
    m = len(dims)
    return [[[0] * dims[i] for _ in range(dims[(i - degree) % m])] for i in range(m)]


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
    """The degree of the diagram's string representative, the nonzero
    entries of its blocks, as (block, row, column, value) with block i
    mapping label i to label i - degree (labels from 0), and the box counts
    per label.  Each row of the diagram is a string of boxes, each box a
    basis vector of its label, numbered there in row order, and box t maps
    to box t + 1 (a '+' row runs down from its start label, a '-' row
    up)."""
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
    return degree, entries, tuple(next_index)


def build_representative(diagram: FilledDiagram) -> GradedMatrix:
    """String representative of the orbit (case AI): one basis vector per
    box, each box mapped to its right neighbour (zero at the row end).

    The result has degree +1 for a '+' diagram and -1 for a '-' diagram, and
    its Jordan type is the underlying partition.
    """
    degree, entries, dims = _string_entries(diagram)
    grading = GradingSpec("AI", diagram.modulus, dims)
    blocks = _zero_blocks(dims, degree)
    for i, r, c, v in entries:
        blocks[i][r][c] = v
    return GradedMatrix(grading, degree, tuple(tuple(map(tuple, b)) for b in blocks))


def _cell_roots(degree: int, entries, dims, z_degree: int):
    """The cells of the centralizer {z : x z = z x} at degree d = `z_degree`,
    as one union-find pass over the equations of the string representative
    x whose `_string_entries` are (degree, entries, dims): base, where cell
    (i, r, c) of Z_i : V_i -> V_{i-d} (labels from 0) is base[i] +
    r * dims[i] + c and base[m] counts the cells, `find`, a cell's root,
    and the set of dead roots.  With e = `degree`, entry (r, c) of
    X_{i-d} Z_i - Z_{i-e} X_i = 0 says z[c -> pred r] = z[succ c -> r]
    (box c of label i maps to succ c, and pred r to box r), or, with one
    side missing, that one cell is zero.  The pass joins the equal cells, a
    component's root its largest cell, the column an elimination of the
    system leaves free; a root is dead when its component holds a zero
    cell."""
    m = len(dims)
    base = [0] * (m + 1)
    for i, n in enumerate(dims):
        base[i + 1] = base[i] + dims[(i - z_degree) % m] * n
    succ = [[None] * n for n in dims]
    pred = [[None] * n for n in dims]
    for i, r, c, _ in entries:
        succ[i][c] = r
        pred[(i - degree) % m][r] = c
    parent = list(range(base[m]))

    def find(k):
        while parent[k] != k:
            parent[k] = k = parent[parent[k]]
        return k

    zero = []
    for i in range(m):
        j = (i - degree) % m
        column = succ[i]
        for r, t in enumerate(pred[(j - z_degree) % m]):
            row = base[j] + r * dims[j]
            if t is None:
                zero += [row + s for s in column if s is not None]
                continue
            cell = base[i] + t * dims[i]
            for s in column:
                if s is None:
                    zero.append(cell)
                else:
                    a, b = find(cell), find(row + s)
                    parent[min(a, b)] = max(a, b)
                cell += 1
    return base, find, {find(k) for k in zero}


def centralizer_dim_gl(diagram: FilledDiagram) -> int:
    """Dimension of the block-diagonal centralizer of the diagram's string
    representative inside the full product of general linear Lie algebras
    (no trace condition): the number of live components at degree 0."""
    base, find, dead = _cell_roots(*_string_entries(diagram), 0)
    return len({find(k) for k in range(base[-1])} - dead)


def _box_positions(diagram: FilledDiagram):
    """The degree of the diagram's string x and each label's boxes, in
    `_string_entries`' numbering, as (above, rest) pairs: above boxes come
    before the box in its row, and rest is its row's length minus above."""
    m = diagram.modulus
    degree = 1 if diagram.sign == PLUS else -1
    boxes = [[] for _ in range(m)]
    for length, start in diagram.rows:
        i = start - 1
        for above in range(length):
            boxes[i].append((above, length - above))
            i = (i - degree) % m
    return degree, boxes


def is_distinguished_oracle(diagram: FilledDiagram) -> bool:
    """Distinguishedness test, exact: whether every element y of the
    opposite-degree centralizer of the diagram's own string x is nilpotent,
    y of degree -e for x of degree e.  The '+' dual's string is the
    transpose of the '-' one, up to a permutation inside each label, so a
    dual pair gets one verdict.

    Works on that centralizer's 0/1 basis, its live components.  A cell
    (c -> t) of y maps box c at label i to box t at label i + e.  Entry (r,
    c) of x y = y x reads y[c -> pred r] = y[succ c -> r], or, with pred r
    or succ c missing, sets the other cell zero.  So each component is a
    diagonal (c -> t), (succ c -> succ t), ..., which keeps above(t) -
    above(c) and rest(c) - rest(t), and a zero lands only on its first
    cell, when t opens its row and c does not, or on its last, when c
    closes its row and t does not.  So (c -> t) is live exactly when
    above(c) <= above(t) and rest(t) <= rest(c) (`_box_positions`).

    As y has pure degree, y^m is block diagonal with the cycle products of
    its blocks, which share their nonzero eigenvalues; so only the d x d
    cycle product at a label s of smallest dimension d is tested, and with
    d = 0 the verdict True is certain.  Otherwise a walk decides, both
    ways.  A basis element has at most one cell, a 1, in each (block,
    column), so the words of length t map V_s into the span of a set R_t of
    coordinates of V_{s+te}: R_0 is every coordinate of V_s, R_{t+1} the
    boxes b with a live cell (c -> b) for some c in R_t.  When the set
    empties, every word of some length t in the basis kills V_s, so every y
    has a nilpotent cycle product at s: True is certain.  A round of m steps
    that keeps the set's size gives False.  Let y_1 be the sum of the
    basis.  Each live cell is a 1 in exactly one basis element, so y_1 is
    the 0/1 matrix of the live cells, and it commutes with x.  y_1 has no
    negative entry, so its images have no cancellation: R_t is the support
    of y_1^t applied to the all-ones vector of V_s.  The support of an image
    grows with the support it comes from, so R_{(k+1)m} lies in R_{km}, and
    a round that keeps the size keeps the set for good.  Then P_1^k is
    nonzero for every k, P_1 the cycle product of y_1 at s: y_1 is a
    non-nilpotent witness, and False is certain too.
    """
    degree, boxes = _box_positions(diagram)
    reach = min(boxes, key=len)
    if not reach:
        return True
    i, m = boxes.index(reach), len(boxes)
    while True:
        before = len(reach)
        for _ in range(m):
            i = (i + degree) % m
            step = []
            for above, rest in boxes[i]:
                for a, r in reach:
                    if a <= above and rest <= r:
                        step.append((above, rest))
                        break
            reach = step
            if not reach:
                return True
        if len(reach) == before:
            return False
