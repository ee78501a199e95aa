"""Core engine: maximum cliques by sweep or corner depths.

Both clique engines exploit the Helly property of axis-parallel boxes: a set
of rectangles is a clique of the intersection graph exactly when all of them
share a common interior point, so a maximum clique is a deepest point of the
overlap arrangement and every clique can be stabbed by one point. The sweep
starts from scratch each call; ``CornerDepths`` keeps the depths of the
candidate corners across a peel's deletions, read off its live bitset. Both
walk the same top-down edge events (``_edge_events``): the sweep to find
the deepest cell, the state's build once to list its corners and their
starting depths. The simplicial searches need only the graph and live
with it in ``graph``.

A sweep need not read every live box. Where the graph shows a clique as
large as its maximum degree plus one (``graph.find_top_cliques``), the
maximum cliques are known before any sweep, and ``gcc``'s peel sweeps only
the first one's members and the two live boxes that close its top-left
cell (``first_clique_boxes``), with the clique's size for the bound: the
witness is the one a sweep of all live boxes gives.

Both engines read their boxes through ``geometry._coord_array``: an
Instance, a ``(k, 4)`` float64 box array or a sequence of Rectangle. The
heuristics pass row slices of ``instance.coords.T``, so a box's id is its
row.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .geometry import Point, UnstabbableOverlapError, _coord_array
from .graph import bit_indices
from .segtree import MaxAddSegmentTree

__all__ = [
    "CliqueWitness",
    "CornerDepths",
    "first_clique_boxes",
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


# an edge event is (-y, kind, first cell, end cell) and adds -kind to its
# cells: tops (+1) sort first at equal y
TOP, BOTTOM = -1, 1


def _edge_events(coords):
    """The x-cells and the sorted edge events of the boxes ``coords``.

    ``coords`` holds the boxes' ``lx, ly, hx, hy`` arrays. Cell ``c`` is the
    elementary interval from ``xs[c]`` to ``xs[c + 1]`` of the sorted
    distinct x-coordinates ``xs``, and a box spans the cells ``[first,
    end)``. Each box gives a top and a bottom event, sorted by decreasing
    y, tops first at equal y, then by cell.
    """
    lx, ly, hx, hy = coords
    xs = np.unique(np.concatenate((lx, hx)))
    first, end = np.searchsorted(xs, lx).tolist(), np.searchsorted(xs, hx).tolist()
    events = [*zip((-hy).tolist(), repeat(TOP), first, end)]
    events += zip((-ly).tolist(), repeat(BOTTOM), first, end)
    events.sort()
    return xs, events


def max_clique_sweep(boxes, *, bound: int | None = None) -> CliqueWitness:
    """Maximum clique of the given boxes by top-to-bottom line sweep.

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
    number of boxes. The sweep stops at the first cell as deep as
    ``bound``. No cell is deeper, so that cell is the first maximum in
    sweep order and the witness is the one the full sweep returns. A
    ``bound`` below the maximum clique size breaks that contract: the
    result is then the first cell at least ``bound`` deep, a clique but not
    necessarily a maximum one.

    Raises:
        ValueError: if ``boxes`` is empty or ``bound`` is below 1.
        TypeError, DegenerateRectangleError: as ``_coord_array`` does.
        UnstabbableOverlapError: if the winning cell is one ulp wide and both
            of its corners lie on a member's boundary.
    """
    coords = lx, ly, hx, hy = _coord_array(boxes)
    n = len(lx)
    if not n:
        raise ValueError("max_clique_sweep needs at least one rectangle")
    if bound is None:
        bound = n
    elif bound < 1:
        raise ValueError(f"bound must be at least 1, got {bound}")

    xs, events = _edge_events(coords)
    tree = MaxAddSegmentTree(len(xs) - 1)
    add = tree.add
    xs = xs.tolist()

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

    return _witness(np.arange(n), coords, best_depth, best_cell)


def first_clique_boxes(boxes, alive: int, cliques: list[list[int]]) -> list[int]:
    """The ids of the boxes a sweep needs to find the first of ``cliques``.

    ``boxes`` is a ``(k, 4)`` box array, ``alive`` the bitset of its live
    rows and ``cliques`` their maximum cliques, as ``find_top_cliques``
    gives them. The sweep's first deepest cell is the top-left cell of one
    clique's common box: the one with the highest common top (least
    ``hi.y`` of its members), then the lowest common left (largest
    ``lo.x``). Two maximum cliques share no cell, so no two tie. The cell
    reaches right to the next live x after that left and down to the next
    live y below that top. So the ids are the clique's members and the live
    boxes holding those two coordinates, ascending. A sweep of them with
    the clique's size for its bound finds the same cell, stab point and
    members as a sweep of every live box: each clique of that size among
    them is a maximum clique of the live boxes, so none comes before that
    cell.
    """
    # one row of members per clique: maximum cliques share a size
    members = boxes[np.array(cliques)]
    tops, lefts = members[:, :, 3].min(axis=1), members[:, :, 0].max(axis=1)
    first = int(np.lexsort((lefts, -tops))[0])
    left, top = lefts[first], tops[first]
    live = _set_bits(alive, len(boxes))
    # a box's two x (or y) coordinates sit one live count apart
    rows = boxes[live]
    xs, ys = rows[:, 0::2].T.ravel(), rows[:, 1::2].T.ravel()
    right = live[np.where(xs > left, xs, np.inf).argmin() % len(live)]
    below = live[np.where(ys < top, ys, -np.inf).argmax() % len(live)]
    return sorted({*cliques[first], int(right), int(below)})


def _set_bits(mask: int, n: int) -> np.ndarray:
    """The set bits of ``mask``, all below ``n``, as an ascending id array."""
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, count=n, bitorder="little"))


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


def _corners(coords):
    """The corners of the boxes ``coords`` in (-y, x) order, with their depths.

    ``coords`` holds the boxes' ``lx, ly, hx, hy`` arrays. Boxes ``a`` and
    ``b`` give the corner ``(lx[a], hy[b])`` when the cell just right of and
    below it lies in both: ``lx[b] <= lx[a] < hx[b]`` and ``ly[a] < hy[b] <=
    hy[a]``. Every box qualifies with itself, and two different boxes
    qualify only if they overlap. A corner's depth is the number of boxes
    covering that cell. Returns the corners' x and y arrays, once per point,
    and their depths.

    One top-down walk of the edge events finds them all. After a batch of
    equal-y events, the depth array holds the depths of the y-gap below it,
    and ``starts`` counts the boxes active there by the cell their left edge
    starts at. So the corners at a batch's y are the cells inside some top
    edge of the batch where an active box starts, read after the batch's
    bottoms are applied.
    """
    xs, events = _edge_events(coords)
    depth = np.zeros(len(xs) - 1, dtype=np.int64)
    starts = np.zeros_like(depth)
    cells, depths, ys, tops = [], [], [], []
    # a batch is read when the next one starts; the last batch holds
    # bottoms alone, as in max_clique_sweep, so it needs no read
    batch_y = events[0][0]
    for neg_y, kind, a, b in events:
        if neg_y != batch_y:
            if tops:
                # the top edges of one batch may share cells: keep each once
                found = [starts[lo:hi].nonzero()[0] + lo for lo, hi in tops]
                cells.append(found[0] if len(found) == 1 else np.unique(np.concatenate(found)))
                depths.append(depth[cells[-1]])
                ys.append(-batch_y)
                tops = []
            batch_y = neg_y
        # a view, not depth[a:b] -= kind: that also writes the view back
        span = depth[a:b]
        span -= kind
        starts[a] -= kind
        if kind == TOP:
            tops.append((a, b))
    return xs[np.concatenate(cells)], np.repeat(ys, [*map(len, cells)]), np.concatenate(depths)


class CornerDepths:
    """Maximum cliques of a shrinking set of boxes, from the depths of corners.

    The first deepest cell of the live boxes in the sweep's order (by y-gap
    from the top, then by x-cell from the left) has its top-left corner at
    ``(lo.x[a], hi.y[b])`` for members ``a`` and ``b``, ``a == b`` allowed:
    otherwise the cell to its left or above it would lie in every member
    and come first. So the state lists the corners of every pair of boxes
    live when it is built (see ``_corners``), once per point, in
    (-y, x) order, with each corner's depth: the number of live boxes that
    cover the cell just right of and below it, that is whose ``lo.x <= x <
    hi.x`` and ``lo.y < y <= hi.y``. Only the corners in a box's y-slice of
    that order can be covered, so a box is kept as that slice and its
    x-bounds, and ``max_clique`` lowers the corners of the slice of each box
    gone from the live bitset since the last query that pass the x test.

    Corners of dead boxes stay listed: a corner's cell lies in one cell of
    the live boxes' arrangement and is as deep. Every point of a live cell
    after the first deepest one in sweep order, and every point of that
    cell but its top-left corner, comes after that corner in (-y, x)
    order. So the first deepest corner is the first deepest live cell's
    top-left corner, and ``max_clique`` returns the witness
    ``max_clique_sweep`` returns over the live boxes.

    Building walks the live boxes' 2k edge events once, as a full
    ``max_clique_sweep`` does, and reads the corners and their starting
    depths off its depth array: as many as k + 2E corners for k live boxes
    with E overlapping pairs. So a build costs a small multiple of a full
    sweep, under two on the benchmark's kept sets, and the peel builds the
    state after its first sweep that runs to the end.
    """

    def __init__(self, boxes, alive=None):
        """State over ``boxes`` whose live boxes are the set bits of ``alive`` (default all).

        Raises:
            ValueError: as ``max_clique`` does, for a bit past ``boxes`` too.
            TypeError, DegenerateRectangleError: as ``_coord_array`` does.
        """
        self._coords = lx, ly, hx, hy = _coord_array(boxes)
        self._alive = (1 << len(lx)) - 1
        ids = self._take(self._alive if alive is None else alive)
        self._x, self._y, self._depth = _corners(self._coords[:, ids])
        # per box: its y-slice [y0, y1) of the corners and its x-bounds
        y0, y1 = np.searchsorted(-self._y, -hy), np.searchsorted(-self._y, -ly)
        self._slices = list(zip(y0.tolist(), y1.tolist(), lx.tolist(), hx.tolist()))

    def _take(self, alive: int):
        """Check ``alive`` as ``max_clique`` does, keep it and return its ids."""
        if alive <= 0:
            raise ValueError(f"live set {alive} is empty or negative")
        extra = alive & ~self._alive
        if extra:
            raise ValueError(f"rectangle {(extra & -extra).bit_length() - 1} is not live")
        self._alive = alive
        return _set_bits(alive, self._coords.shape[1])

    def _lower(self, v: int) -> None:
        """Lower by one the depth of every corner box ``v`` covers."""
        y0, y1, lx, hx = self._slices[v]
        x = self._x[y0:y1]
        self._depth[y0:y1] -= (lx <= x) & (x < hx)

    def max_clique(self, alive: int) -> CliqueWitness:
        """The maximum clique of the live set ``alive``, as ``max_clique_sweep`` gives it.

        ``alive`` is a bitset of box ids, and the boxes gone from it since
        the last live set are deleted first. The first deepest corner is the
        top-left corner of the sweep's cell; the next live x to its right
        and the next live y below it close the cell. Members index ``boxes``.

        Raises:
            ValueError: if ``alive`` is empty, negative or has a box that was
                not live, before any depth changes.
            UnstabbableOverlapError: where ``max_clique_sweep`` raises it.
        """
        gone = self._alive & ~alive
        ids = self._take(alive)
        for v in bit_indices(gone):
            self._lower(v)
        c = int(self._depth.argmax())  # the first maximum
        left, top = float(self._x[c]), float(self._y[c])
        bounds = lx, ly, hx, hy = tuple(a[ids] for a in self._coords)
        xs, ys = np.concatenate((lx, hx)), np.concatenate((ly, hy))
        cell = (left, float(xs[xs > left].min()), float(ys[ys < top].max()), top)
        return _witness(ids, bounds, int(self._depth[c]), cell)
