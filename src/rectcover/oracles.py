"""Brute-force ground truth for small instances.

Every solver here is independent of the sweep/simplicial engine, sharing
only its rule for a point inside a cell and the float contract of
``build_graph``, and meant for verification at desk scale only. The shared
discretization: rectangle membership is constant on each open cell of the
grid induced by all distinct edge coordinates, so one point per cell forms
a complete candidate set for piercing points and for depth counting. A
cell's point follows the sweep's rule: the midpoint, or on a one-ulp-wide
side a corner no box starts or ends at.
"""

from __future__ import annotations

from .cliques import CliqueWitness, _inside
from .geometry import Point, _bounds_arrays, _check_stabbable, interiors_intersect
from .graph import IntersectionGraph, bit_indices

__all__ = [
    "OracleSizeError",
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


def _grid(rects):
    """Cell points and coverage bitsets on both axes.

    Raises:
        UnstabbableOverlapError: if some lower coordinate is one ulp below
            some upper coordinate on the same axis, as ``build_graph`` does.
    """
    _check_stabbable(_bounds_arrays(rects))
    cell_x, xmasks = _axis_cells([r.lo.x for r in rects], [r.hi.x for r in rects])
    cell_y, ymasks = _axis_cells([r.lo.y for r in rects], [r.hi.y for r in rects])
    return cell_x, xmasks, cell_y, ymasks


def max_clique_candidates(rects) -> CliqueWitness:
    """Maximum clique by exhaustive candidate-point enumeration.

    Scans every elementary cell and counts the rectangles spanning it; the
    deepest cell's point is a stab point of a maximum clique.

    Raises:
        UnstabbableOverlapError: outside the float contract ``build_graph``
            enforces.
    """
    rects = list(rects)
    if not rects:
        raise ValueError("max_clique_candidates needs at least one rectangle")
    cell_x, xmasks, cell_y, ymasks = _grid(rects)

    best_count = 0
    best = None
    for cx, mx in enumerate(xmasks):
        if mx.bit_count() <= best_count:
            continue
        for cy, my in enumerate(ymasks):
            m = mx & my
            c = m.bit_count()
            if c > best_count:
                best_count = c
                best = (cx, cy, m)
    cx, cy, m = best
    return CliqueWitness(tuple(bit_indices(m)), Point(cell_x[cx], cell_y[cy]))


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

    Candidates are deduplicated by coverage set and pruned to maximal
    coverage sets, then searched by iterative deepening on the cover size
    below that of a greedy cover, which is returned if no smaller one exists.

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

    cell_x, xmasks, cell_y, ymasks = _grid(rects)
    seen = set()
    cand_masks: list[int] = []
    cand_points: list[Point] = []
    for cx, mx in enumerate(xmasks):
        if not mx:
            continue
        for cy, my in enumerate(ymasks):
            m = mx & my
            if m and m not in seen:
                seen.add(m)
                cand_masks.append(m)
                cand_points.append(Point(cell_x[cx], cell_y[cy]))

    maximal = [
        i
        for i, m in enumerate(cand_masks)
        if not any(m != o and m | o == o for o in cand_masks)
    ]
    cand_masks = [cand_masks[i] for i in maximal]
    cand_points = [cand_points[i] for i in maximal]

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


def verify_cover(rects, points, assignment=None) -> bool:
    """True if every rectangle's open interior contains at least one point.

    With an ``assignment`` (one point index per rectangle), the stronger
    claim is checked: each rectangle contains its *assigned* point.
    """
    pts = list(points)
    if assignment is not None:
        rects = list(rects)
        if len(assignment) != len(rects):
            return False
        return all(
            0 <= k < len(pts) and r.contains_point_open(pts[k])
            for r, k in zip(rects, assignment)
        )
    return all(any(r.contains_point_open(p) for p in pts) for r in rects)


def verify_independent(rects, members) -> bool:
    """True if the indexed rectangles are pairwise interior-disjoint.

    An index outside ``range(len(rects))`` makes the set invalid.
    """
    rects = list(rects)
    ms = sorted(set(members))
    if not all(0 <= m < len(rects) for m in ms):
        return False
    for i, a in enumerate(ms):
        ra = rects[a]
        for b in ms[i + 1 :]:
            if interiors_intersect(ra, rects[b]):
                return False
    return True
