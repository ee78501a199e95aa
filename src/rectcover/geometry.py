"""Axis-parallel rectangle primitives, random instances, and domination filtering.

Coordinates are double-precision floats. Intersection semantics are open
throughout: two rectangles intersect only when their open interiors share a
point, so boxes that merely touch along an edge or corner do not intersect.
Containment, by contrast, uses the closed boxes.

An ``Instance`` stores its coordinates once, as a read-only ``(4, n)`` array.
``_coord_array`` is the one reader of box coordinates: it returns that
array for an Instance, checks and transposes a ``(k, 4)`` box array (one row
``lo.x, lo.y, hi.x, hi.y`` per box, as ``instance.coords.T`` gives), and
reads a sequence of ``Rectangle`` into a new array. ``filter_dominated``,
``common_intersection``, the verifiers, the graph build and both clique
engines read their input through it. The heuristics hand the graph build
and the engines row slices of ``instance.coords.T``, so a solve reads no
``Rectangle`` after the instance is built.

``filter_dominated`` finds the rectangles that contain another one, and for
each a kept rectangle inside it, in one pass: it visits the rectangles by
descending ``lo.x``, so every box comes after the boxes inside it, in blocks
of 256, and tests each block against itself and against the rectangles kept
so far that start left of the block's largest ``hi.x`` (a presorted window,
after Kung, Luccio & Preparata, JACM 1975). That costs at most O(n·kept)
containment tests instead of O(n²), and far fewer where the boxes are
narrow against the spread of their ``lo.x``.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DegenerateRectangleError",
    "UnstabbableOverlapError",
    "Point",
    "Rectangle",
    "Region",
    "Instance",
    "UNIT_SQUARE",
    "make_rectangle",
    "generate_instance",
    "interiors_intersect",
    "contains",
    "filter_dominated",
    "common_intersection",
]


class DegenerateRectangleError(ValueError):
    """Corner points sharing an x or y coordinate span no proper rectangle."""


class UnstabbableOverlapError(ValueError):
    """A lower coordinate lies one ulp below an upper one on the same axis.

    No double lies strictly between the two, so an overlap or a rectangle
    spanning just that gap has no point a cover could place. Solvers reject
    such rectangle sets instead of returning an invalid stab point.
    """


@dataclass(frozen=True, slots=True)
class Point:
    """A point in the plane. Coordinates must be finite."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x!r}, {self.y!r})")


@dataclass(frozen=True, slots=True)
class Rectangle:
    """Closed axis-parallel box with strictly positive width and height.

    ``lo`` is the bottom-left corner, ``hi`` the top-right corner.
    """

    lo: Point
    hi: Point

    def __post_init__(self) -> None:
        if not (self.lo.x < self.hi.x and self.lo.y < self.hi.y):
            raise DegenerateRectangleError(
                f"need lo < hi componentwise, got lo={self.lo}, hi={self.hi}"
            )

    @property
    def width(self) -> float:
        return self.hi.x - self.lo.x

    @property
    def height(self) -> float:
        return self.hi.y - self.lo.y

    def center(self) -> Point:
        # halving first cannot overflow; it equals (lo + hi) / 2 wherever that is
        # finite, bar subnormal halves
        return Point(self.lo.x / 2.0 + self.hi.x / 2.0, self.lo.y / 2.0 + self.hi.y / 2.0)

    def contains_point_open(self, p: Point) -> bool:
        """True if ``p`` lies strictly inside this box (boundary excluded)."""
        return self.lo.x < p.x < self.hi.x and self.lo.y < p.y < self.hi.y


@dataclass(frozen=True)
class Region:
    """Rectangular sampling region for instance generation."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self) -> None:
        # a finite width and height keep uniform draws finite
        if not (math.isfinite(self.x_max - self.x_min) and math.isfinite(self.y_max - self.y_min)):
            raise ValueError(f"region bounds and extent must be finite: {self}")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(f"empty region: {self}")


UNIT_SQUARE = Region(0.0, 1.0, 0.0, 1.0)


@dataclass(frozen=True)
class Instance:
    """An ordered collection of rectangles plus its generation metadata.

    The tuple order is the canonical index space used by every result.
    ``seed`` is None for instances parsed from files, which carry no seed.
    ``coords`` is a read-only ``(4, n)`` float array built from ``rects``,
    with rows ``lo.x, lo.y, hi.x, hi.y``; it takes no part in construction,
    equality, hashing or the repr.
    """

    rects: tuple[Rectangle, ...]
    seed: int | None
    region: Region
    n_requested: int
    coords: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        coords = _coord_array(self.rects)
        lx, ly, hx, hy = coords
        g = self.region
        outside = (lx < g.x_min) | (hx > g.x_max) | (ly < g.y_min) | (hy > g.y_max)
        if outside.any():
            i = int(outside.argmax())
            raise ValueError(f"rectangle {i} lies outside the region: {self.rects[i]}")
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return len(self.rects)


def make_rectangle(p: Point, q: Point) -> Rectangle:
    """Build the rectangle spanned by two opposite corner points.

    The corners may be given in any order; the result has ``lo`` equal to the
    componentwise minimum and ``hi`` to the componentwise maximum.

    Raises:
        DegenerateRectangleError: if the points share an x or a y coordinate.
    """
    if p.x == q.x or p.y == q.y:
        raise DegenerateRectangleError(f"degenerate corner pair: {p}, {q}")
    return Rectangle(
        Point(min(p.x, q.x), min(p.y, q.y)),
        Point(max(p.x, q.x), max(p.y, q.y)),
    )


def generate_instance(n: int, region: Region = UNIT_SQUARE, seed: int = 0) -> Instance:
    """Generate ``n`` random rectangles, each spanned by two uniform points.

    Both corner points are drawn coordinate-wise uniformly in ``region``; a
    draw with a shared x or y coordinate is discarded and redrawn so the
    result always has ``n`` proper rectangles. The generator is Python's
    Mersenne Twister seeded with ``seed``, so the same ``(n, region, seed)``
    reproduces the identical instance on the same build.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    rng = random.Random(seed)
    rects = []
    for _ in range(n):
        while True:
            px = rng.uniform(region.x_min, region.x_max)
            py = rng.uniform(region.y_min, region.y_max)
            qx = rng.uniform(region.x_min, region.x_max)
            qy = rng.uniform(region.y_min, region.y_max)
            if px != qx and py != qy:
                break
        rects.append(make_rectangle(Point(px, py), Point(qx, qy)))
    return Instance(tuple(rects), seed, region, n)


def interiors_intersect(a: Rectangle, b: Rectangle) -> bool:
    """True if the open interiors of ``a`` and ``b`` share a point."""
    return (
        a.lo.x < b.hi.x
        and b.lo.x < a.hi.x
        and a.lo.y < b.hi.y
        and b.lo.y < a.hi.y
    )


def contains(outer: Rectangle, inner: Rectangle) -> bool:
    """True if ``inner``'s closed box lies inside ``outer``'s and they differ.

    Exact duplicates contain neither each other, so duplicated boxes are
    never treated as dominating.
    """
    return (
        outer.lo.x <= inner.lo.x
        and inner.hi.x <= outer.hi.x
        and outer.lo.y <= inner.lo.y
        and inner.hi.y <= outer.hi.y
        and inner != outer
    )


# numpy 2.4 runs a broadcast comparison whose rows are shorter than about a
# third of the ufunc buffer (8192 elements by default) through the buffered
# iterator: np.less_equal of a (256, 1) column against K doubles cost about
# 1.1 ns per element for K from 256 to 2100, against 0.45 ns at K=288 and
# 0.25 ns at K=760 with this buffer (2-core x86-64 VM, AVX-512).
_UFUNC_BUFSIZE = 256


@contextmanager
def _small_ufunc_buffer():
    """Run the decorated function under a ``_UFUNC_BUFSIZE``-element ufunc buffer.

    The caller's buffer size is restored on exit, also when the work
    raises. numpy 1.x keeps the size per thread and numpy 2 per context,
    and ``np.errstate`` scopes it only on numpy 2, so this restores it
    itself rather than leave the setting to code that runs later.
    """
    old = np.setbufsize(_UFUNC_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(old)


def _coord_array(boxes) -> np.ndarray:
    """The ``(4, k)`` coordinate array of ``boxes``, rows ``lo.x, lo.y, hi.x, hi.y``.

    This is the one reader of box coordinates. An Instance gives its stored
    array. A ``(k, 4)`` float64 box array, one row ``(lo.x, lo.y, hi.x,
    hi.y)`` per box as ``instance.coords.T`` and its row slices give, is
    checked and transposed, with contiguous rows: strided rows compare about
    twice as slowly. A sequence of Rectangle is checked and read into a new
    array.

    Raises:
        TypeError: if an element of a sequence is not a Rectangle, or a box
            array is not float64 of shape ``(k, 4)``.
        DegenerateRectangleError: if a row of a box array holds a non-finite
            value or lacks ``lo < hi`` on either axis.
    """
    if isinstance(boxes, Instance):
        return boxes.coords
    if isinstance(boxes, np.ndarray):
        if boxes.ndim != 2 or boxes.shape[1] != 4 or boxes.dtype != np.float64:
            raise TypeError(f"expected a (k, 4) float64 box array, got {boxes.dtype} of shape {boxes.shape}")
        coords = np.ascontiguousarray(boxes.T)
        proper = (coords[:2] < coords[2:]).all(axis=0) & np.isfinite(coords).all(axis=0)
        if not proper.all():
            i = int(proper.argmin())
            raise DegenerateRectangleError(f"need finite lo < hi componentwise, got box {i}: {boxes[i].tolist()}")
        return coords
    rects = tuple(boxes)
    for r in rects:
        if not isinstance(r, Rectangle):
            raise TypeError(f"expected Rectangle, got {type(r).__name__}")
    n = len(rects)
    return np.stack([
        np.fromiter((r.lo.x for r in rects), dtype=float, count=n),
        np.fromiter((r.lo.y for r in rects), dtype=float, count=n),
        np.fromiter((r.hi.x for r in rects), dtype=float, count=n),
        np.fromiter((r.hi.y for r in rects), dtype=float, count=n),
    ])


def _check_stabbable(coords) -> None:
    """Raise UnstabbableOverlapError if some lo is one ulp below some hi.

    ``coords`` is the boxes' ``(4, k)`` array from ``_coord_array``.
    """
    lx, ly, hx, hy = coords
    for axis, lo, hi in (("x", lx, hx), ("y", ly, hy)):
        # a set, not np.isin or a numpy sort: their first call maps 0.6-1.6
        # MB more of numpy's code and work buffers, which shows in peak RSS
        shared = set(hi.tolist()).intersection(np.nextafter(lo, np.inf).tolist())
        if shared:
            upper = min(shared)
            raise UnstabbableOverlapError(
                f"no double lies strictly between lower {axis} "
                f"{math.nextafter(upper, -math.inf)!r} and upper {axis} {upper!r}, "
                f"so their overlap cannot be stabbed"
            )


@_small_ufunc_buffer()
def filter_dominated(instance) -> tuple[list[int], list[tuple[int, int]]]:
    """Split rectangle indices into kept (non-dominated) and removed.

    A rectangle is dominated when it contains some other rectangle of the
    set, so in a nesting chain everything except the innermost rectangle
    is removed. ``kept`` lists the other indices in order. ``removed`` lists
    ``(i, w)`` pairs in index order, where ``w`` is the lowest-index kept
    rectangle inside ``i``'s closed box: any point interior to ``w`` is
    interior to ``i``.

    Accepts what ``_coord_array`` reads: an Instance, whose stored
    coordinates it reads, a ``(k, 4)`` float64 box array or a sequence of
    Rectangle.

    Raises:
        TypeError, DegenerateRectangleError: as ``_coord_array`` does.
    """
    coords = _coord_array(instance)
    lx, ly, hx, hy = coords
    n = len(lx)
    # Boxes go by lo.x descending, then hi.x ascending, lo.y descending and
    # hi.y ascending. A box inside another has every coordinate on the same
    # side and one strictly, so it sorts strictly first. Containment is
    # transitive and a chain of nested boxes ends at a kept one, so a box is
    # dominated exactly when it contains a box kept so far or one of its own
    # block, and then contains a kept one.
    order = np.lexsort((hy, -ly, hx, -lx))
    # Identical boxes sort next to each other, so a nonzero coordinate
    # difference to the previous box starts a new box id. Telling identical
    # boxes apart by id takes one comparison per pair instead of four.
    box = np.empty(n, dtype=np.intp)
    box[order] = np.cumsum(np.diff(coords[:, order], prepend=np.nan).any(axis=0))
    is_kept = np.zeros(n, dtype=bool)
    witness = np.full(n, -1)
    # The boxes kept so far, by ascending lo.x, fill window[free:]. Each
    # block's new ones have no larger lo.x than any earlier, so they go in
    # front. A kept box inside a row box has lo.x below its own hi.x, so
    # below the row's: a block needs only the kept boxes up to its largest
    # hi.x, a prefix of the window.
    window = np.empty(n, dtype=np.intp)
    window_lx = np.empty(n)
    free = n
    block_rows = 256
    for start in range(0, n, block_rows):
        rows = order[start:start + block_rows]
        reach = free + int(np.searchsorted(window_lx[free:], hx[rows].max(), side="right"))
        cols = np.sort(np.concatenate((window[free:reach], rows)))
        rlx, rly, rhx, rhy = (a[rows, None] for a in coords)
        # one gather per row: coords[:, cols] has strided rows, which
        # compared about three times slower
        clx, cly, chx, chy = (a[cols] for a in coords)
        # ins[r, c]: row box r holds column box c's closed box and differs from it
        ins = (rlx <= clx) & (rhx >= chx) & (rly <= cly) & (rhy >= chy)
        ins &= box[rows, None] != box[cols]
        dominated = ins.any(axis=1)
        new = rows[~dominated][::-1]
        is_kept[new] = True
        window[free - len(new):free] = new
        window_lx[free - len(new):free] = lx[new]
        free -= len(new)
        # the window holds every kept box inside a row, and columns ascend,
        # so the first kept hit is the lowest-index witness
        witness[rows[dominated]] = cols[(ins[dominated] & is_kept[cols]).argmax(axis=1)]
    removed = np.flatnonzero(witness >= 0)
    return np.flatnonzero(is_kept).tolist(), list(zip(removed.tolist(), witness[removed].tolist()))


def common_intersection(boxes) -> Rectangle | None:
    """Intersection box of all boxes, or None if it has no interior.

    ``boxes`` is anything ``_coord_array`` reads: an Instance, a ``(k, 4)``
    float64 box array or a sequence of Rectangle.
    """
    lx, ly, hx, hy = _coord_array(boxes).tolist()
    if not lx:
        raise ValueError("common_intersection of an empty collection")
    lo_x, lo_y, hi_x, hi_y = max(lx), max(ly), min(hx), min(hy)
    if lo_x < hi_x and lo_y < hi_y:
        return Rectangle(Point(lo_x, lo_y), Point(hi_x, hi_y))
    return None
