"""Brute-force ground truth for small instances.

Every solver here is independent of the sweep/simplicial engine, sharing
only its rule for a point inside a cell and the float contract of
``build_graph``, and meant for verification at desk scale only. The shared
discretization: rectangle membership is constant on each open cell of the
grid induced by all distinct edge coordinates, so one point per cell forms
a complete candidate set for piercing points and for depth counting. A
cell's point follows the sweep's rule: the midpoint, or on a one-ulp-wide
side a corner no box starts or ends at. ``_cells`` scans the cells in the
sweep's tie order, by y-gap from the top and then by x-cell from the left,
so the first deepest cell, which ``max_clique_candidates`` returns, is the
one ``max_clique_sweep`` keeps: the two return equal witnesses.
"""

from __future__ import annotations

import numpy as np

from .cliques import CliqueWitness, _inside
from .geometry import Point, _check_stabbable, _coord_array, contains
from .graph import IntersectionGraph, bit_indices

__all__ = [
    "OracleSizeError",
    "first_kept_inside",
    "max_clique_candidates",
    "exact_mis",
    "exact_mcc",
    "simplicial_scan",
    "verify_cover",
    "verify_independent",
]

DEFAULT_MIS_CAP = 25
DEFAULT_MCC_CAP = 18


class OracleSizeError(ValueError):
    """Instance exceeds the configured cap for an exact solver."""


def _axis_cells(los, his):
    """One interior coordinate and one coverage bitset per gap between edges."""
    coords = sorted(set(los) | set(his))
    index = {c: i for i, c in enumerate(coords)}
    masks = [0] * (len(coords) - 1)
    for r, (lo, hi) in enumerate(zip(los, his)):
        bit = 1 << r
        for c in range(index[lo], index[hi]):
            masks[c] |= bit
    starts = set(los)
    points = [_inside(a, b, starts) for a, b in zip(coords, coords[1:])]
    return points, masks


def _cells(rects):
    """Yield ``(coverage bitset, x, y)`` for every cell some box spans,
    where ``(x, y)`` is the cell's point.

    Cells come by y-gap from the top, then by x-cell from the left, the
    order in which ``max_clique_sweep`` keeps the first of equal depths.

    Raises:
        UnstabbableOverlapError: if some lower coordinate is one ulp below
            some upper coordinate on the same axis, as ``build_graph`` does.
    """
    _check_stabbable(_coord_array(rects))
    cell_x, xmasks = _axis_cells([r.lo.x for r in rects], [r.hi.x for r in rects])
    cell_y, ymasks = _axis_cells([r.lo.y for r in rects], [r.hi.y for r in rects])
    for y, my in zip(reversed(cell_y), reversed(ymasks)):
        for x, mx in zip(cell_x, xmasks):
            if m := mx & my:
                yield m, x, y


def max_clique_candidates(rects) -> CliqueWitness:
    """Maximum clique by exhaustive candidate-point enumeration.

    The first deepest cell of ``_cells``, so ties go as in the sweep and the
    witness, members and stab point, equals ``max_clique_sweep``'s.

    Raises:
        UnstabbableOverlapError: outside the float contract ``build_graph``
            enforces.
    """
    rects = list(rects)
    if not rects:
        raise ValueError("max_clique_candidates needs at least one rectangle")
    m, x, y = max(_cells(rects), key=lambda cell: cell[0].bit_count())
    return CliqueWitness(tuple(bit_indices(m)), Point(x, y))


def exact_mis(g: IntersectionGraph, cap: int = DEFAULT_MIS_CAP) -> tuple[int, set[int]]:
    """Exact maximum independent set by branch and bound.

    Branches on a maximum-degree live vertex (include it and delete its
    closed neighborhood, or exclude it), pruning when the live count plus
    the current size cannot beat the incumbent.
    """
    if g.n > cap:
        raise OracleSizeError(f"exact_mis cap is {cap}, graph has {g.n} vertices")
    rows = g.raw_adjacency()

    best_size = 0
    best_mask = 0

    def bb(alive: int, chosen: int, size: int) -> None:
        nonlocal best_size, best_mask
        if alive == 0:
            if size > best_size:
                best_size = size
                best_mask = chosen
            return
        if size + alive.bit_count() <= best_size:
            return
        v = -1
        vd = -1
        rest = alive
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            rest ^= low
            d = (rows[u] & alive).bit_count()
            if d > vd:
                v, vd = u, d
        bb(alive & ~(rows[v] | (1 << v)), chosen | (1 << v), size + 1)
        bb(alive ^ (1 << v), chosen, size)

    bb(g.alive_mask, 0, 0)
    return best_size, set(bit_indices(best_mask))


def exact_mcc(rects, cap: int = DEFAULT_MCC_CAP) -> tuple[int, list[Point]]:
    """Exact minimum piercing by set cover over candidate cell points.

    Candidates are the first cell of ``_cells`` with each coverage set,
    pruned to maximal coverage sets, then searched by iterative deepening on
    the cover size below that of a greedy cover, which is returned if no
    smaller one exists.

    Raises:
        UnstabbableOverlapError: outside the float contract ``build_graph``
            enforces.
    """
    rects = list(rects)
    n = len(rects)
    if n == 0:
        return 0, []
    if n > cap:
        raise OracleSizeError(f"exact_mcc cap is {cap}, instance has {n} rectangles")

    first: dict[int, Point] = {}
    for m, x, y in _cells(rects):
        if m not in first:
            first[m] = Point(x, y)
    cand_masks = [m for m in first if not any(m != o and m | o == o for o in first)]
    cand_points = [first[m] for m in cand_masks]

    full = (1 << n) - 1

    # greedy upper bound
    uncovered = full
    greedy: list[int] = []
    while uncovered:
        pick = max(range(len(cand_masks)), key=lambda i: ((cand_masks[i] & uncovered).bit_count(), -i))
        greedy.append(pick)
        uncovered &= ~cand_masks[pick]

    covering: list[list[int]] = [
        [i for i, m in enumerate(cand_masks) if (m >> r) & 1] for r in range(n)
    ]
    max_cover = max(m.bit_count() for m in cand_masks)

    def dfs(uncovered: int, k: int, chosen: list[int]) -> list[int] | None:
        if uncovered == 0:
            return list(chosen)
        if k == 0 or k * max_cover < uncovered.bit_count():
            return None
        r = min(bit_indices(uncovered), key=lambda u: (len(covering[u]), u))
        for c in covering[r]:
            chosen.append(c)
            res = dfs(uncovered & ~cand_masks[c], k - 1, chosen)
            if res is not None:
                return res
            chosen.pop()
        return None

    for k in range(1, len(greedy)):
        res = dfs(full, k, [])
        if res is not None:
            return k, [cand_points[c] for c in res]
    return len(greedy), [cand_points[c] for c in greedy]


def simplicial_scan(g: IntersectionGraph) -> set[int]:
    """All live vertices whose closed neighborhood is a clique, by direct check."""
    rows = g.raw_adjacency()
    out = set()
    for v in g.vertices():
        closed = g.neighborhood_mask(v)
        if all(not (closed & ~(rows[a] | (1 << a))) for a in bit_indices(closed)):
            out.add(v)
    return out


def first_kept_inside(rects) -> tuple[list[int], list[tuple[int, int]]]:
    """Plain-Python domination filter: ``(kept, [(i, first kept j inside i)])``.

    The reference for ``filter_dominated``, by testing every ordered pair.
    """
    rects = list(rects)
    n = len(rects)
    dominated = [any(contains(rects[i], rects[j]) for j in range(n)) for i in range(n)]
    kept = [i for i in range(n) if not dominated[i]]
    removed = [
        (i, next(j for j in kept if contains(rects[i], rects[j])))
        for i in range(n)
        if dominated[i]
    ]
    return kept, removed


def _indices(values, count: int):
    """``values`` as an index array, or None if one lies outside ``range(count)``.

    An empty sequence is valid.

    Raises:
        TypeError: if ``values`` is not a flat sequence of integers; a bool
            is not one.
    """
    idx = np.asarray(values)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise TypeError(f"expected a flat sequence of integer indices, got {idx.dtype} of shape {idx.shape}")
    if not ((idx >= 0) & (idx < count)).all():
        return None
    return idx.astype(np.intp, copy=False)


def verify_cover(rects, points, assignment=None) -> bool:
    """True if every rectangle's open interior contains at least one point.

    With an ``assignment`` (one integer point index per rectangle), the
    stronger claim is checked: each rectangle contains its *assigned* point.
    ``rects`` is an Instance, whose stored coordinates are read, a
    ``(k, 4)`` box array or a sequence of Rectangle (see
    ``geometry._coord_array``). Without an assignment, the rectangles are
    tested in numpy blocks of rows, each row against every point.

    Raises:
        TypeError: if ``assignment`` is not a flat sequence of integers
            (a bool is not one), or as ``_coord_array`` raises it.
        DegenerateRectangleError: as ``_coord_array`` raises it.
    """
    lx, ly, hx, hy = _coord_array(rects)
    n = len(lx)
    pts = list(points)
    px = np.fromiter((p.x for p in pts), dtype=float, count=len(pts))
    py = np.fromiter((p.y for p in pts), dtype=float, count=len(pts))
    if assignment is not None:
        ks = np.asarray(assignment)
        if ks.shape != (n,):
            return False
        ks = _indices(ks, len(pts))
        if ks is None:
            return False
        px, py = px[ks], py[ks]
        return bool(((lx < px) & (px < hx) & (ly < py) & (py < hy)).all())
    block = 1024
    for start in range(0, n, block):
        rows = slice(start, start + block)
        # hit[i, k]: point k lies inside rectangle start+i
        hit = (
            (lx[rows, None] < px)
            & (px < hx[rows, None])
            & (ly[rows, None] < py)
            & (py < hy[rows, None])
        )
        if not hit.any(axis=1).all():
            return False
    return True


def verify_independent(rects, members) -> bool:
    """True if the indexed rectangles are pairwise interior-disjoint.

    ``rects`` is an Instance, whose stored coordinates are read, a
    ``(k, 4)`` box array or a sequence of Rectangle (see
    ``geometry._coord_array``). An index outside ``range(n)`` makes the set
    invalid, and so does a repeated index: a box's interior meets itself.
    The pairs are tested in numpy blocks of rows, each row against the
    members after it.

    Raises:
        TypeError: if ``members`` is not a flat sequence of integers (a
            bool is not one), or as ``_coord_array`` raises it.
        DegenerateRectangleError: as ``_coord_array`` raises it.
    """
    coords = _coord_array(rects)
    ms = _indices(list(members), coords.shape[1])
    if ms is None:
        return False
    lx, ly, hx, hy = (a[ms] for a in coords)
    block = 1024
    for start in range(0, len(ms), block):
        rows = slice(start, start + block)
        # meet[i, j]: member start+i meets member start+j
        meet = (
            (lx[rows, None] < hx[None, start:])
            & (lx[None, start:] < hx[rows, None])
            & (ly[rows, None] < hy[None, start:])
            & (ly[None, start:] < hy[rows, None])
        )
        if np.triu(meet, 1).any():
            return False
    return True
