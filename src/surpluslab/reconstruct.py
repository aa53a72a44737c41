"""Rebuild a finite real tree from a leaf distance matrix, plus the
matrix-only core-length functional.

Leaves are inserted one at a time: the new leaf n+1 attaches at the
median point of the pair (b, c) minimizing the Gromov sum
d(n+1,b) + d(n+1,c) - d(b,c); the median sits at half that quantity from
the new leaf, and at half-sum distances from b and c.  All arithmetic is
generic, so Fraction matrices reconstruct exactly.  `reconstruct` builds,
verifies the rebuilt leaf matrix in O(n^2), and runs the O(n^4) quadruple
pass and the O(n^3) triangle pass only on a mismatch or a failed build.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from .continuum import MetricTree, _edge_list
from .errors import (FourPointViolation, IndexOutOfRange, NegativeLength,
                     TriangleViolation, ValidationError)
from .trees import _climb, _search

DEFAULT_TOL = 1e-9


def _as_rows(matrix) -> list:
    return [list(row) for row in matrix]


def _check_distances(m: list):
    """Square, zero diagonal, finite, symmetric within DEFAULT_TOL, non-negative."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValidationError("matrix must be square")
    for i in range(n):
        if m[i][i] != 0:
            raise ValidationError("diagonal must be zero")
        for j in range(i + 1, n):
            if not all(abs(x) < math.inf for x in (m[i][j], m[j][i])):  # NaN too
                raise ValidationError(f"non-finite distance at ({i},{j})")
            if abs(m[i][j] - m[j][i]) > DEFAULT_TOL:
                raise ValidationError("matrix must be symmetric")
            if m[i][j] < 0:
                raise NegativeLength(f"negative distance at ({i},{j})")


def _validate_matrix(m: list):
    """_check_distances, and distinct marks at positive distance."""
    _check_distances(m)
    for i, row in enumerate(m):
        for j in range(i + 1, len(m)):
            if row[j] == 0:
                raise ValidationError(
                    f"zero distance between distinct marks {i},{j}; quotient first")


def gromov_height(matrix, a: int, b: int, c: int):
    """Distance from leaf a to the median of (a, b, c): (d_ab+d_ac-d_bc)/2."""
    m = _as_rows(matrix)
    n = len(m)
    for x in (a, b, c):
        if not 0 <= x < n:
            raise IndexOutOfRange(f"index {x} outside 0..{n - 1}")
    if len({a, b, c}) != 3:
        raise ValidationError("indices must be distinct")
    return (m[a][b] + m[a][c] - m[b][c]) / 2


def check_four_point(matrix) -> Tuple[bool, tuple]:
    """Tree-metric check: in every quadruple the two largest of the three
    pairings agree within DEFAULT_TOL.  Returns (ok, witness or None)."""
    m = _as_rows(matrix)
    n = len(m)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(k + 1, n):
                    sums = sorted((m[i][j] + m[k][l],
                                   m[i][k] + m[j][l],
                                   m[i][l] + m[j][k]))
                    if sums[2] - sums[1] > DEFAULT_TOL:
                        return False, (i, j, k, l)
    return True, None


def _require_four_point(m: list):
    ok, witness = check_four_point(m)
    if not ok:
        raise FourPointViolation(
            f"four-point condition fails on quadruple {witness}", witness=witness)


def _require_triangle(m: list):
    """TriangleViolation on the first (i, j, k), i < j, with
    d(i,j) > d(i,k) + d(k,j) + DEFAULT_TOL; O(n^3)."""
    n = len(m)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if k != i and k != j and m[i][j] - m[i][k] - m[k][j] > DEFAULT_TOL:
                    raise TriangleViolation(
                        f"triangle inequality fails on triple {(i, j, k)}",
                        witness=(i, j, k))


def _locate(adj, marks, b, c, target, steiner_count):
    """Node at distance `target` from mark b on the b-c geodesic,
    splitting an edge if needed.  Returns (node, new steiner count)."""
    nb, nc = marks[b], marks[c]
    parent, hops = _search(adj, nb)
    path = [nb] + _climb(parent, hops, nb, nc)[::-1]
    cum = 0
    if target <= DEFAULT_TOL:
        return nb, steiner_count
    for u, v in zip(path, path[1:]):
        step = adj[u][v]
        if abs(cum + step - target) <= DEFAULT_TOL:
            return v, steiner_count
        if cum + step > target:
            off = target - cum
            if off <= 0:
                return u, steiner_count
            w = ("w", steiner_count)
            del adj[u][v]
            del adj[v][u]
            adj[w] = {u: off, v: step - off}
            adj[u][w] = off
            adj[v][w] = step - off
            return w, steiner_count + 1
        cum += step
    raise FourPointViolation(
        f"attachment point beyond the {b}-{c} geodesic", witness=(b, c))


def _build(m: list) -> MetricTree:
    """Incremental insertion of leaves 1..n, trusting m to be a tree metric."""
    n = len(m)
    if n == 0:
        raise ValidationError("empty matrix")
    if n == 1:
        return MetricTree([], {1: 0})
    marks = {1: 0, 2: 1}
    adj = {0: {1: m[0][1]}, 1: {0: m[0][1]}}
    steiner = 0
    for new in range(2, n):
        best = None
        for b in range(new):
            for c in range(b + 1, new):
                g = m[new][b] + m[new][c] - m[b][c]
                if best is None or g < best[0] - DEFAULT_TOL:
                    best = (g, b, c)
        g, b, c = best
        graft = g / 2
        if graft < -DEFAULT_TOL:
            raise FourPointViolation(
                f"negative graft length for leaf {new + 1}", witness=(b, c, new))
        height_b = (m[b][new] + m[b][c] - m[new][c]) / 2
        w, steiner = _locate(adj, marks, b + 1, c + 1, height_b, steiner)
        if graft <= DEFAULT_TOL:
            marks[new + 1] = w
        else:
            node = new
            adj.setdefault(w, {})[node] = graft
            adj.setdefault(node, {})[w] = graft
            marks[new + 1] = node
    return MetricTree(_edge_list(adj), marks)


def reconstruct(matrix) -> MetricTree:
    """Incremental insertion; output's leaf matrix equals the input.

    Marks are positional, 1..N.  Degenerate attachments (zero grafts) are
    allowed: the mark then names an existing, possibly internal, node.
    Accepts and rejects exactly as check_four_point, then the build, then
    the triangle inequality, each within DEFAULT_TOL.
    """
    m = _as_rows(matrix)
    _validate_matrix(m)
    try:
        tree = _build(m)
        # entries within DEFAULT_TOL/8 move each pairing sum by at most
        # DEFAULT_TOL/4: the four-point gap is <= DEFAULT_TOL/2 plus
        # rounding, so check_four_point passes
        rebuilt = tree.mark_distance_matrix(range(1, len(m) + 1))
        if all(abs(x - y) <= DEFAULT_TOL / 8 for row, new in zip(m, rebuilt)
               for x, y in zip(row, new)):
            return tree
    except ValidationError:
        pass  # the quadruple pass names the witness, else the build's error
    _require_four_point(m)
    tree = _build(m)
    # a rebuilt leaf matrix within DEFAULT_TOL/8 of the input leaves no
    # triangle gap above DEFAULT_TOL, so only this path can meet one
    _require_triangle(m)
    return tree


def _interval_union_length(intervals: List[tuple], upper):
    clipped = []
    for lo, hi in intervals:
        lo = max(lo, 0 * upper)
        hi = min(hi, upper)
        if hi > lo:
            clipped.append((lo, hi))
    clipped.sort()
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in clipped:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total = total + (cur_hi - cur_lo)
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total = total + (cur_hi - cur_lo)
    return total


def core_measure_from_matrix(matrix):
    """Core length from the 2c x 2c mark distance matrix alone.

    The increment for pair j is the length of its geodesic minus the parts
    already covered by earlier pairs; each overlap is an interval whose
    endpoints are Gromov heights measured from mark 2j-1.
    """
    m = _as_rows(matrix)
    if len(m) % 2 != 0 or not m:
        raise ValidationError("need a 2c x 2c matrix")
    _check_distances(m)
    _require_four_point(m)
    c = len(m) // 2
    total = m[0][1]
    for j in range(2, c + 1):
        a, b = 2 * j - 2, 2 * j - 1  # row indices of marks 2j-1, 2j
        d = m[a][b]
        intervals = []
        for i in range(1, j):
            u, v = 2 * i - 2, 2 * i - 1
            x = (d + m[a][u] - m[b][u]) / 2
            y = (d + m[a][v] - m[b][v]) / 2
            intervals.append((min(x, y), max(x, y)))
        total = total + (d - _interval_union_length(intervals, d))
    return total
