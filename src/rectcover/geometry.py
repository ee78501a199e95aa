"""Axis-parallel rectangle primitives, random instances, and domination filtering.

Coordinates are double-precision floats. Intersection semantics are open
throughout: two rectangles intersect only when their open interiors share a
point, so boxes that merely touch along an edge or corner do not intersect.
Containment, by contrast, uses the closed boxes.

An ``Instance`` stores its coordinates once, as a read-only ``(4, n)`` array.
``generate_instance`` draws straight into that array and makes no
``Rectangle``; such an instance builds its ``rects`` on their first read.
``_coord_array`` is the one reader of box coordinates: it returns that
array for an Instance, checks and transposes a ``(k, 4)`` box array (one row
``lo.x, lo.y, hi.x, hi.y`` per box, as ``instance.coords.T`` gives), and
reads a sequence of ``Rectangle`` into a new array. ``filter_dominated``,
``common_intersection``, the verifiers, the graph build and both clique
engines read their input through it. The heuristics hand the graph build
and the engines row slices of ``instance.coords.T``, so a solve reads no
``Rectangle`` after the instance is built.

``filter_dominated`` finds the rectangles that contain another one, and for
each the lowest-index kept rectangle inside it. It visits the rectangles by
descending ``lo.x``, so every box comes after the boxes inside it. The
visiting order is one argsort by ``lo.x``; only the runs of equal ``lo.x``
are lexsorted by the other three coordinates, and identical boxes, which
share a ``lo.x``, sit together in those runs. They are kept or removed
together, so the filter's two passes see one box of each such set. The
first pass finds the kept set in blocks of 256. It keeps a box untested
when no earlier box has a ``hi.x`` as small as its own, and tests the other
rows of a block against the rectangles kept so far that start left of the
rows' largest ``hi.x`` (a presorted window, after Kung, Luccio & Preparata,
JACM 1975), with the shorter of the two on the outer axis of numpy's
broadcast. The rows the window leaves are tested against the rest of their
block. The second pass walks the kept ids in ascending chunks and gives
each removed box the first kept box inside it. Both passes make at most
O(n·kept) containment tests instead of O(n²).
"""

from __future__ import annotations

import math
import random
from array import array
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


@dataclass(frozen=True, eq=False)
class Instance:
    """An ordered collection of rectangles plus its generation metadata.

    The rectangle order is the canonical index space used by every result.
    ``seed`` is None for instances parsed from files, which carry no seed.
    ``coords`` is a read-only ``(4, n)`` float array with rows ``lo.x, lo.y,
    hi.x, hi.y``, the data every solver reads. An instance built from
    ``rects`` reads the array from them. One from ``generate_instance``
    holds only the array and builds ``rects`` from it on their first read,
    then keeps them. Equality and hashing compare the coordinates and the
    metadata, so both kinds agree with each other as tuples of Rectangle
    would; ``coords`` takes no part in construction or the repr.
    """

    rects: tuple[Rectangle, ...]
    seed: int | None
    region: Region
    n_requested: int
    coords: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._set_coords(_coord_array(self.rects))

    @classmethod
    def _from_coords(cls, coords: np.ndarray, seed: int | None, region: Region, n_requested: int) -> Instance:
        """An instance holding the ``(4, n)`` float64 array ``coords`` and no Rectangle.

        The array gets the finite ``lo < hi`` check of a box array and the
        region check of ``__init__``, and is made read-only in place.
        """
        instance = object.__new__(cls)
        for name, value in (("seed", seed), ("region", region), ("n_requested", n_requested)):
            object.__setattr__(instance, name, value)
        instance._set_coords(_coord_array(coords.T))
        return instance

    def _set_coords(self, coords: np.ndarray) -> None:
        lx, ly, hx, hy = coords
        g = self.region
        outside = (lx < g.x_min) | (hx > g.x_max) | (ly < g.y_min) | (hy > g.y_max)
        if outside.any():
            i = int(outside.argmax())
            raise ValueError(f"rectangle {i} lies outside the region: {_rectangles(coords[:, i:i + 1])[0]}")
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    def __getattr__(self, name: str):
        # Python calls this only for an attribute the instance lacks: the
        # ``rects`` of one from _from_coords, until they are first read
        if name != "rects":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        rects = _rectangles(self.coords)
        object.__setattr__(self, "rects", rects)
        return rects

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.seed, self.region, self.n_requested) == (other.seed, other.region, other.n_requested)
            and np.array_equal(self.coords, other.coords)
        )

    def __hash__(self) -> int:
        # adding 0.0 turns -0.0 into 0.0, which it equals
        return hash(((self.coords + 0.0).tobytes(), self.seed, self.region, self.n_requested))

    @property
    def n(self) -> int:
        return self.coords.shape[1]


def _rectangles(coords: np.ndarray) -> tuple[Rectangle, ...]:
    """The Rectangle of each column of a ``(4, k)`` coordinate array."""
    return tuple(Rectangle(Point(lx, ly), Point(hx, hy)) for lx, ly, hx, hy in coords.T.tolist())


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
    reproduces the identical instance on the same build. The instance holds
    only the coordinates; its ``rects`` are built when first read.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    uniform = random.Random(seed).uniform
    # an array('d') takes 8 bytes a draw where a list of floats takes 32
    draws = array("d")
    for _ in range(n):
        while True:
            px = uniform(region.x_min, region.x_max)
            py = uniform(region.y_min, region.y_max)
            qx = uniform(region.x_min, region.x_max)
            qy = uniform(region.y_min, region.y_max)
            if px != qx and py != qy:
                break
        draws.extend((px, py, qx, qy))
    # rows px, py, qx, qy; the draws differ, so min and max pick the doubles
    # make_rectangle picks
    corners = np.frombuffer(draws, dtype=np.float64).reshape(n, 4).T
    coords = np.empty((4, n))
    np.minimum(corners[:2], corners[2:], out=coords[:2])
    np.maximum(corners[:2], corners[2:], out=coords[2:])
    return Instance._from_coords(coords, seed, region, n)


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
        # look up the double just above each lower coordinate among the
        # sorted upper ones
        hi = np.sort(hi)
        above = np.nextafter(lo, np.inf)
        shared = above[hi.take(np.searchsorted(hi, above), mode="clip") == above]
        if len(shared):
            upper = float(shared.min())
            raise UnstabbableOverlapError(
                f"no double lies strictly between lower {axis} "
                f"{math.nextafter(upper, -math.inf)!r} and upper {axis} {upper!r}, "
                f"so their overlap cannot be stabbed"
            )


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
    kept, removed, witness = _split_dominated(instance)
    return kept.tolist(), list(zip(removed.tolist(), witness.tolist()))


@_small_ufunc_buffer()
def _split_dominated(instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``filter_dominated`` as three ascending-id arrays: kept, removed and their witnesses.

    ``witness[j]`` is the witness of ``removed[j]``. The heuristics read
    these arrays, and build no ``(i, w)`` pair.
    """
    coords = _coord_array(instance)
    lx, ly, hx, hy = coords
    n = len(lx)
    # Boxes go by lo.x descending, then hi.x ascending, lo.y descending and
    # hi.y ascending. A box inside another has every coordinate on the same
    # side and one strictly, so it sorts strictly first.
    order = np.argsort(-lx)
    # Only boxes that share a lo.x need the other three keys. ties holds the
    # positions whose lo.x equals the previous position's, runs every
    # position of a run of equal lo.x. Lexsorting the boxes at runs, taken
    # in index order and with lo.x still the first key, puts each run back
    # in its place in the order a four-key lexsort of all boxes gives.
    ties = np.flatnonzero(lx[order[1:]] == lx[order[:-1]]) + 1
    runs = np.union1d(ties - 1, ties)
    tied = np.sort(order[runs])
    order[runs] = tied[np.lexsort((hy[tied], -ly[tied], hx[tied], -lx[tied]))]
    # Identical boxes share a lo.x, so they now sit next to each other: a
    # position starts a new box unless it ties with the previous box on
    # every coordinate. Identical boxes do not dominate each other and are
    # kept or removed together, so the first pass reads only the first box
    # of each set, and every position takes its first box's answer.
    cur, prev = order[ties], order[ties - 1]
    new_box = np.ones(n, dtype=bool)
    new_box[ties[(hx[cur] == hx[prev]) & (ly[cur] == ly[prev]) & (hy[cur] == hy[prev])]] = False
    # take, not coords[:, ids]: that gives strided rows, which compare
    # about three times slower
    first_kept = _kept_in_order(coords.take(order[new_box], axis=1))
    is_kept = np.empty(n, dtype=bool)
    is_kept[order] = first_kept[np.cumsum(new_box) - 1]
    kept, removed = np.flatnonzero(is_kept), np.flatnonzero(~is_kept)
    return kept, removed, _witnesses(coords, kept, removed)


def _kept_in_order(coords: np.ndarray) -> np.ndarray:
    """The first pass of the filter: which boxes contain no other box.

    ``coords`` holds pairwise distinct boxes in the filter's visiting
    order, so a box comes after every box inside it. Containment is
    transitive and a chain of nested boxes ends at a kept one, so a box is
    removed exactly when it contains a kept box, which comes earlier.
    Returns the mask of kept boxes.
    """
    lx, ly, hx, hy = coords
    m = len(lx)
    # A box can hold another only if some earlier box has a hi.x no larger
    # than its own. The other boxes are kept untested: on equal squares, all.
    tested = np.zeros(m, dtype=bool)
    np.less_equal(np.minimum.accumulate(hx[:-1]), hx[1:], out=tested[1:])
    kept = np.ones(m, dtype=bool)
    # The boxes kept so far, by ascending lo.x, fill window[free:]. Each
    # block's new ones have no larger lo.x than any earlier, so they go in
    # front. A kept box inside a row box has lo.x below its own hi.x, so
    # below the row's: a block needs only the kept boxes up to its rows'
    # largest hi.x, a prefix of the window.
    window = np.empty(m, dtype=np.intp)
    window_lx = np.empty(m)
    free = m
    for start in range(0, m, _UFUNC_BUFSIZE):
        stop = start + _UFUNC_BUFSIZE
        rows = tested[start:stop].nonzero()[0] + start
        if len(rows):
            rhx, rly, rhy = hx[rows], ly[rows], hy[rows]
            reach = free + int(np.searchsorted(window_lx[free:], rhx.max(), side="right"))
            cols = window[free:reach]
            # Window boxes come earlier, so their lo.x is no smaller than a
            # row's: three comparisons test containment. numpy pays per row
            # of the broadcast's outer axis, whatever its length, so the
            # shorter of the window and the rows goes there. Kept boxes are
            # few, and on clustered boxes the window is the shorter; at
            # n=10^5 uniform boxes it outgrows a block.
            if len(cols) < len(rows):
                ins = hx[cols, None] <= rhx
                ins &= ly[cols, None] >= rly
                ins &= hy[cols, None] <= rhy
                hit = ins.any(axis=0)
            else:
                ins = rhx[:, None] >= hx[cols]
                ins &= rly[:, None] <= ly[cols]
                ins &= rhy[:, None] >= hy[cols]
                hit = ins.any(axis=1)
            kept[rows[hit]] = False
            rows = rows[~hit]
        if len(rows):
            # A row the window left (a survivor) can only hold kept boxes of
            # its own block, and every box it holds comes earlier in it. It
            # holds a kept one exactly when it holds an untested box or
            # another survivor, since a survivor that is removed holds a
            # kept box the window lacks. Columns before a row come before it
            # in the order, so their lo.x needs no test either.
            cols = kept[start:rows[-1]].nonzero()[0] + start
            ins = cols < rows[:, None]
            ins &= hx[cols] <= hx[rows, None]
            ins &= ly[cols] >= ly[rows, None]
            ins &= hy[cols] <= hy[rows, None]
            kept[rows[ins.any(axis=1)]] = False
        new = kept[start:stop].nonzero()[0][::-1] + start
        window[free - len(new):free] = new
        window_lx[free - len(new):free] = lx[new]
        free -= len(new)
    return kept


# _CHUNK_WEIGHTS[-c:] counts down from c to 1: a chunk of c kept boxes weighs each
# hit by its distance from the chunk's end, so the largest weight in a
# column marks the chunk's first hit; a byte holds weights up to 255
_CHUNK_WEIGHTS = np.arange(255, 0, -1, dtype=np.uint8)[:, None]
_CHUNK_WEIGHTS.flags.writeable = False


def _witnesses(coords: np.ndarray, kept: np.ndarray, removed: np.ndarray) -> np.ndarray:
    """The second pass of the filter: the lowest-index kept box inside each removed box.

    It walks the kept ids in ascending chunks of 1, 2, 4 and so on up to
    255 boxes, with the kept boxes on the broadcast's outer axis, and a
    removed box leaves at its first hit, so its witness is the lowest-index
    kept box inside it. Once fewer removed boxes are left than the next
    chunk holds, they go on the outer axis and are tested against every
    kept box left at once. While many removed boxes are left, a chunk holds
    no more kept boxes than keep its broadcast within 256 rows against
    every kept box, the largest the first pass makes, so the pass needs
    O(n) memory: at n=5*10^5 uniform boxes uncapped chunks raised the peak
    RSS by 72 MB, capped ones by 30 MB. A kept box is never identical to
    a removed one, so four comparisons test containment.
    """
    witness = np.empty(len(removed), dtype=np.intp)
    klx, kly, khx, khy = coords.take(kept, axis=1)
    rows = np.arange(len(removed))
    left = coords.take(removed, axis=1)
    start, size = 0, 1
    while len(rows):
        rlx, rly, rhx, rhy = left
        if len(rows) <= size:
            ins = rlx[:, None] <= klx[start:]
            ins &= rly[:, None] <= kly[start:]
            ins &= rhx[:, None] >= khx[start:]
            ins &= rhy[:, None] >= khy[start:]
            witness[rows] = kept[start + ins.argmax(axis=1)]
            break
        # no chunk tests more pairs than a block of the first pass could
        # test against every kept box
        chunk = min(size, max(1, _UFUNC_BUFSIZE * len(kept) // len(rows)))
        stop = min(start + chunk, len(kept))
        ins = klx[start:stop, None] >= rlx
        ins &= kly[start:stop, None] >= rly
        ins &= khx[start:stop, None] <= rhx
        ins &= khy[start:stop, None] <= rhy
        weighed = ins.view(np.uint8)
        weighed *= _CHUNK_WEIGHTS[-len(weighed):]
        top = weighed.max(axis=0)
        hit = top > 0
        witness[rows[hit]] = kept[stop - top[hit].astype(np.intp)]
        rows = rows[~hit]
        left = left.compress(~hit, axis=1)
        start, size = stop, min(2 * size, 255)
    return witness


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
