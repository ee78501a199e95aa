"""Core engine: maximum cliques by sweep or corner depths.

Both clique engines exploit the Helly property of axis-parallel boxes: a set
of rectangles is a clique of the intersection graph exactly when all of them
share a common interior point, so a maximum clique is a deepest point of the
overlap arrangement and every clique can be stabbed by one point. The sweep
starts from scratch each call; ``CornerDepths`` keeps the depths of the
candidate corners across the deletions of a peel. The simplicial search
needs only the graph and lives with it in ``graph``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .geometry import Point, UnstabbableOverlapError, _bounds_arrays, _small_ufunc_buffer
from .segtree import MaxAddSegmentTree

__all__ = [
    "CliqueWitness",
    "CornerDepths",
    "max_clique_sweep",
]


@dataclass(frozen=True)
class CliqueWitness:
    """A clique given by member indices and a point interior to all members."""

    members: tuple[int, ...]
    stab: Point

    @property
    def size(self) -> int:
        return len(self.members)


def max_clique_sweep(rects, *, bound: int | None = None) -> CliqueWitness:
    """Maximum clique of a rectangle list by top-to-bottom line sweep.

    The x-axis is discretized into elementary intervals between the sorted
    distinct x-coordinates. Sweeping y downward, each rectangle's top edge
    adds +1 and its bottom edge -1 over its open x-span in a depth array;
    after each batch of equal-y events that holds a top edge, the array's
    maximum gives the deepest cell for the y-gap below. A batch of bottom
    edges alone only lowers depths, so it is not read. The reported stab
    point is the midpoint of the winning elementary cell, so it is interior
    to every member; where the cell is one ulp wide it is a cell corner no
    member starts or ends at. Ties keep the first maximum in sweep order
    (decreasing y, then increasing x).

    ``bound`` must be at least the maximum clique size; it defaults to the
    number of rectangles. The sweep stops at the first cell as deep as
    ``bound``. No cell is deeper, so that cell is the first maximum in
    sweep order and the witness is the one the full sweep returns. A
    ``bound`` below the maximum clique size breaks that contract: the
    result is then the first cell at least ``bound`` deep, a clique but not
    necessarily a maximum one.

    Raises:
        ValueError: if ``rects`` is empty or ``bound`` is below 1.
        UnstabbableOverlapError: if the winning cell is one ulp wide and both
            of its corners lie on a member's boundary.
    """
    rects = list(rects)
    if not rects:
        raise ValueError("max_clique_sweep needs at least one rectangle")
    if bound is None:
        bound = len(rects)
    elif bound < 1:
        raise ValueError(f"bound must be at least 1, got {bound}")

    bounds = lx, ly, hx, hy = _bounds_arrays(rects)
    xs = np.unique(np.concatenate((lx, hx)))
    first, end = np.searchsorted(xs, lx).tolist(), np.searchsorted(xs, hx).tolist()
    xs = xs.tolist()
    tree = MaxAddSegmentTree(len(xs) - 1)
    add = tree.add

    # an event is (-y, kind, first cell, end cell) and adds -kind to its
    # cells: tops (+1) sort first at equal y
    TOP, BOTTOM = -1, 1
    events = [*zip((-hy).tolist(), repeat(TOP), first, end)]
    events += zip((-ly).tolist(), repeat(BOTTOM), first, end)
    events.sort()

    best_depth = 0
    best_cell = None  # (x0, x1, y0, y1)

    # a batch of equal-y events ends where the next one starts; the tree
    # then holds the depths of the gap between the two y values. Tops sort
    # first, so a batch holds a top edge exactly when its first event is
    # one. Below the last batch, all bottoms, nothing is active.
    batch_y = events[0][0]
    rises = True
    for neg_y, kind, a, b in events:
        if neg_y != batch_y:
            if rises:
                depth, cell = tree.peek_max()
                if depth > best_depth:
                    best_depth = depth
                    best_cell = (xs[cell], xs[cell + 1], -neg_y, -batch_y)
                    if depth >= bound:
                        break
            batch_y = neg_y
            rises = kind == TOP
        add(a, b, -kind)

    return _witness(np.arange(len(rects)), bounds, best_depth, best_cell)


def _witness(ids, bounds, depth: int, cell) -> CliqueWitness:
    """The witness of the cell ``(x0, x1, y0, y1)``, ``depth`` boxes deep.

    ``bounds`` holds the ``lx, ly, hx, hy`` arrays of the boxes whose
    consecutive coordinates bound the cell, and ``ids`` their ascending ids.
    ``_inside`` places the stab point; the members are the ids of the boxes
    whose open interiors hold it. Where a one-ulp cell has both corners on
    a member's boundary, the count is not ``depth`` and
    ``UnstabbableOverlapError`` is raised.
    """
    lx, ly, hx, hy = bounds
    x0, x1, y0, y1 = cell
    stab = Point(_inside(x0, x1, lx), _inside(y0, y1, ly))
    inside = (lx < stab.x) & (stab.x < hx) & (ly < stab.y) & (stab.y < hy)
    members = tuple(ids[inside].tolist())
    if len(members) != depth:
        raise UnstabbableOverlapError(f"depth {depth} disagrees with {len(members)} members at {stab}")
    return CliqueWitness(members, stab)


def _inside(a: float, b: float, lows) -> float:
    """A coordinate inside every box spanning the cell ``[a, b]``, and no other.

    ``a`` and ``b`` are consecutive box coordinates on one axis, and
    ``lows`` iterates the boxes' lower coordinates. The midpoint serves
    unless ``a`` and ``b`` are adjacent doubles; only then is ``lows`` read.
    ``a`` serves if no box starts at it, and otherwise ``b``, which no box
    ends at unless a box starts one ulp below where another ends, the case
    ``build_graph`` rejects.
    """
    mid = a / 2.0 + b / 2.0  # halving first cannot overflow
    if a < mid < b:
        return mid
    return b if a in lows else a


@_small_ufunc_buffer()
def _corner_points(bounds):
    """The distinct corners of the given boxes' pairs, in (-y, x) order.

    ``bounds`` is the ``(lx, ly, hx, hy)`` array tuple of the boxes. Boxes
    ``a`` and ``b`` give the corner ``(lx[a], hy[b])`` when the cell just
    right of and below it lies in both: ``lx[b] <= lx[a] < hx[b]`` and
    ``ly[a] < hy[b] <= hy[a]``. Every box qualifies with itself, and two
    different boxes qualify only if they overlap.
    """
    lx, ly, hx, hy = bounds
    xs, ys = [], []
    block = 256
    for start in range(0, len(lx), block):
        a = slice(start, start + block)
        pair = (
            (lx[None, :] <= lx[a, None])
            & (lx[a, None] < hx[None, :])
            & (ly[a, None] < hy[None, :])
            & (hy[None, :] <= hy[a, None])
        )
        rows, cols = np.nonzero(pair)
        xs.append(lx[a][rows])
        ys.append(hy[cols])
    x, y = np.concatenate(xs), np.concatenate(ys)
    order = np.lexsort((x, -y))
    x, y = x[order], y[order]
    new = np.ones(len(x), dtype=bool)
    new[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1])
    return x[new], y[new]


class CornerDepths:
    """Maximum cliques of a shrinking set of boxes, from the depths of corners.

    The first deepest cell of the live boxes in the sweep's order (by y-gap
    from the top, then by x-cell from the left) has its top-left corner at
    ``(lo.x[a], hi.y[b])`` for members ``a`` and ``b``, ``a == b`` allowed:
    otherwise the cell to its left or above it would lie in every member
    and come first. So the state lists the corners of every pair of boxes
    live when it is built (see ``_corner_points``), once per point, in
    (-y, x) order, with each corner's depth: the number of live boxes that
    cover the cell just right of and below it, that is whose ``lo.x <= x <
    hi.x`` and ``lo.y < y <= hi.y``. Only the corners in a box's y-slice of
    that order can be covered, so a box is kept as that slice and its
    x-bounds, and ``remove`` lowers the corners of a deleted box's slice
    that pass the x test.

    Corners of dead boxes stay listed: a corner's cell lies in one cell of
    the live boxes' arrangement and is as deep. Every point of a live cell
    after the first deepest one in sweep order, and every point of that
    cell but its top-left corner, comes after that corner in (-y, x)
    order. So the first deepest corner is the first deepest live cell's
    top-left corner, and ``max_clique`` returns the witness
    ``max_clique_sweep`` returns over the live boxes.

    Building costs one pairwise test of the live boxes in numpy blocks, as
    many as k + 2E corners for k live boxes with E overlapping pairs, and
    one slice per box for the starting depths.
    """

    def __init__(self, rects, live=None):
        """State over ``rects``, of which the indices in ``live`` (default all) are live.

        Raises:
            ValueError: if no rectangle is live, or an index is not one of ``rects``.
        """
        self._bounds = lx, ly, hx, hy = _bounds_arrays(list(rects))
        self._live = np.zeros(len(lx), dtype=bool)
        for v in range(len(lx)) if live is None else live:
            if not 0 <= v < len(lx):
                raise ValueError(f"rectangle {v} is not in range({len(lx)})")
            self._live[v] = True
        ids = np.flatnonzero(self._live)
        if not len(ids):
            raise ValueError("CornerDepths needs at least one live rectangle")
        self._x, self._y = _corner_points(tuple(a[ids] for a in self._bounds))
        # per box: its y-slice [y0, y1) of the corners and its x-bounds
        self._slices = list(
            zip(
                np.searchsorted(-self._y, -hy).tolist(),
                np.searchsorted(-self._y, -ly).tolist(),
                lx.tolist(),
                hx.tolist(),
            )
        )
        self._depth = np.zeros(len(self._x), dtype=np.int64)
        for v in ids.tolist():
            self._shift(v, 1)

    def _shift(self, v: int, delta: int) -> None:
        """Add ``delta`` to the depth of every corner box ``v`` covers."""
        y0, y1, lx, hx = self._slices[v]
        x = self._x[y0:y1]
        self._depth[y0:y1] += delta * ((lx <= x) & (x < hx))

    def remove(self, vertices) -> None:
        """Delete the given live boxes, all of them or, on an error, none.

        Raises:
            ValueError: if one of them is not a live rectangle or is given
                twice. The state is then as it was before the call.
        """
        vertices = list(vertices)
        seen = set()
        for v in vertices:
            # a negative id would index from the end
            if not (0 <= v < len(self._live) and self._live[v]):
                raise ValueError(f"rectangle {v} is not live")
            if v in seen:
                raise ValueError(f"rectangle {v} is given twice")
            seen.add(v)
        for v in vertices:
            self._live[v] = False
            self._shift(v, -1)

    def max_clique(self) -> CliqueWitness:
        """The live boxes' maximum clique, as ``max_clique_sweep`` gives it.

        The first deepest corner is the top-left corner of the sweep's cell;
        the next live x to its right and the next live y below it close the
        cell. Members index ``rects``.

        Raises:
            ValueError: if no rectangle is live.
            UnstabbableOverlapError: where ``max_clique_sweep`` raises it.
        """
        ids = np.flatnonzero(self._live)
        if not len(ids):
            raise ValueError("no rectangle is live")
        c = int(self._depth.argmax())  # the first maximum
        left, top = float(self._x[c]), float(self._y[c])
        bounds = lx, ly, hx, hy = tuple(a[ids] for a in self._bounds)
        xs, ys = np.concatenate((lx, hx)), np.concatenate((ly, hy))
        cell = (left, float(xs[xs > left].min()), float(ys[ys < top].max()), top)
        return _witness(ids, bounds, int(self._depth[c]), cell)
