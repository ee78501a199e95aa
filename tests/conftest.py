"""Shared fixtures: hand-built rectangle layouts used across test modules."""

import pytest

from rectcover.geometry import Instance, Point, Rectangle, Region, contains


def mk(x1, y1, x2, y2):
    """Rectangle from corner coordinates (already in lo/hi order)."""
    return Rectangle(Point(float(x1), float(y1)), Point(float(x2), float(y2)))


def inst_of(rects):
    """Wrap a rectangle list in an Instance with its bounding region."""
    rects = tuple(rects)
    if rects:
        region = Region(
            x_min=min(r.lo.x for r in rects),
            x_max=max(r.hi.x for r in rects),
            y_min=min(r.lo.y for r in rects),
            y_max=max(r.hi.y for r in rects),
        )
    else:
        region = Region(0.0, 1.0, 0.0, 1.0)
    return Instance(rects=rects, seed=None, region=region, n_requested=len(rects))


def first_kept_inside(rects):
    """Plain-Python domination filter: ``(kept, [(i, first kept j inside i)])``."""
    n = len(rects)
    dominated = [any(contains(rects[i], rects[j]) for j in range(n)) for i in range(n)]
    kept = [i for i in range(n) if not dominated[i]]
    removed = [
        (i, next(j for j in kept if contains(rects[i], rects[j])))
        for i in range(n)
        if dominated[i]
    ]
    return kept, removed


@pytest.fixture
def triangle():
    """Three rectangles sharing the common interior (1,2)x(1,2)."""
    return [mk(0, 0, 2, 2), mk(1, 0, 3, 2), mk(0, 1, 3, 3)]


@pytest.fixture
def chain3():
    """A path: consecutive rectangles overlap, ends are disjoint."""
    return [mk(0, 0, 3, 1), mk(2, 0, 5, 1), mk(4, 0, 7, 1)]


@pytest.fixture
def frame4():
    """A 4-cycle: top, bottom, left, right of a picture frame.

    Opposite sides are disjoint, adjacent sides overlap at the corners, and
    no rectangle contains another. The intersection graph is C4, which has
    no simplicial vertex.
    """
    return [
        mk(0, 2, 3, 3),          # 0 top
        mk(0, 0, 3, 1),          # 1 bottom
        mk(-0.5, -0.5, 0.5, 3.5),  # 2 left
        mk(2.5, -0.5, 3.5, 3.5),   # 3 right
    ]
