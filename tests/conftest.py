"""Shared fixtures: hand-built rectangle layouts used across test modules."""

import math
import random

import numpy as np
import pytest

from rectcover.cliques import CliqueWitness, CornerDepths, max_clique_sweep
from rectcover.geometry import Instance, Point, Rectangle, Region, UnstabbableOverlapError, _coord_array, generate_instance
from rectcover.graph import bit_indices, build_graph, find_simplicial, find_top_cliques
from rectcover.oracles import simplicial_scan


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


def equal_squares(n, seed):
    """``n`` equal squares placed uniformly in the unit square, about sixteen
    neighbors each."""
    rng = random.Random(seed)
    side = 1.0 / math.sqrt(n / 4)
    out = []
    for _ in range(n):
        x, y = rng.uniform(0, 1 - side), rng.uniform(0, 1 - side)
        out.append(mk(x, y, x + side, y + side))
    return out


def snapped_boxes(rng, n, grid):
    """``n`` random boxes with corners on the integer grid 0..grid."""
    rects = []
    for _ in range(n):
        x1, x2 = sorted(rng.sample(range(grid + 1), 2))
        y1, y2 = sorted(rng.sample(range(grid + 1), 2))
        rects.append(mk(x1, y1, x2, y2))
    return rects


def crossing_bars(k):
    """``k`` vertical bars crossing ``k`` horizontal ones: the graph is K_{k,k}
    and no bar contains another."""
    vertical = [mk(i, -1, i + 0.5, k) for i in range(k)]
    horizontal = [mk(-1, j, k, j + 0.5) for j in range(k)]
    return vertical + horizontal


def nested_clusters(n, centres, seed):
    """``n`` boxes, each containing one of ``centres`` random points.

    A box reaches from its point a distance uniform in (0, 0.04] to each
    side, so boxes around one point nest often and most are dominated.
    """
    rng = random.Random(seed)
    points = [(rng.uniform(0.04, 0.96), rng.uniform(0.04, 0.96)) for _ in range(centres)]

    def reach():
        return 0.04 * (1.0 - rng.random())

    out = []
    for _ in range(n):
        cx, cy = points[rng.randrange(centres)]
        out.append(mk(cx - reach(), cy - reach(), cx + reach(), cy + reach()))
    return out


def dense_frame(m, seed):
    """Four groups of ``m`` equal bars, each bar a shifted copy of one side of
    a picture frame: top, bottom, left or right, as in ``frame4``.

    A bar moves by up to 0.2 on each axis, less than its thickness of 1
    and than the 0.5 it reaches past the bars it crosses. So the bars of a
    group all overlap, and each group crosses both neighbouring groups at
    the frame's corners, where each pair of neighbouring groups shares a
    common box; opposite groups are disjoint. Equal bars contain no other
    bar, and a horizontal bar is wider and a vertical bar taller than any
    bar of the other direction, so nothing is dominated. E = 6m² - 2m.
    """
    rng = random.Random(seed)
    sides = [(0, 2, 3, 3), (0, 0, 3, 1), (-0.5, -0.5, 0.5, 3.5), (2.5, -0.5, 3.5, 3.5)]
    out = []
    for x1, y1, x2, y2 in sides:
        for _ in range(m):
            dx, dy = rng.uniform(0, 0.2), rng.uniform(0, 0.2)
            out.append(mk(x1 + dx, y1 + dy, x2 + dx, y2 + dy))
    return out


FAMILIES = ["uniform", "squares", "snapped", "nested", "bars", "frame"]


def family_instance(family, n, seed):
    """An instance of one of ``FAMILIES``, of about ``n`` boxes for ``seed``.

    Bars and frames take their group size from ``n``, so they hold at most
    40 and 60 boxes.
    """
    if family == "uniform":
        return generate_instance(n, seed=seed)
    if family == "squares":
        return inst_of(equal_squares(n, seed))
    if family == "snapped":
        # shared coordinates and touching edges on a grid of 2 to 12 steps
        return inst_of(snapped_boxes(random.Random(seed), n, 2 + seed % 11))
    if family == "nested":
        return inst_of(nested_clusters(n, 1 + seed % 6, seed))
    if family == "frame":
        return inst_of(dense_frame(1 + n % 15, seed))
    return inst_of(crossing_bars(1 + n % 20))


def check_remembered_search(rects, seed):
    """Peel ``rects``'s graph by seeded deletions, checking every round.

    A round deletes the found simplicial neighborhood or a random batch of
    live vertices. The search on the peeled view, which remembers clique
    tests from earlier rounds, must give the vertex a fresh view of the
    same live set gives, and the vertex of least (degree, id) among those
    ``simplicial_scan`` finds. Every other round first lists the top
    cliques on the same view, which must be the closed neighborhoods of
    the scan's members of the top degree class, so both searches are
    checked on one memory. Known non-cliques must not be
    simplicial.
    """
    rng = random.Random(seed)
    g = build_graph(rects)
    deleted, lists = [], False
    while g.n:
        lists = not lists
        if lists:
            top = g.degree_classes()[-1]
            hoods = {tuple(bit_indices(g.neighborhood_mask(u))) for u in simplicial_scan(g) if top >> u & 1}
            assert find_top_cliques(g) == sorted(map(list, hoods)), deleted
        v = find_simplicial(g)
        assert v == find_simplicial(build_graph(rects).remove_vertices(deleted)), deleted
        scan = simplicial_scan(g)
        if scan:
            rows, alive = g.raw_adjacency(), g.alive_mask
            least = min(scan, key=lambda u: ((rows[u] & alive).bit_count(), u))
            assert v == least, deleted
        else:
            assert v is None, deleted
        assert scan.isdisjoint(bit_indices(g._non_cliques)), deleted
        if v is not None and rng.random() < 0.5:
            batch = bit_indices(g.neighborhood_mask(v))
        else:
            live = g.vertices()
            batch = rng.sample(live, min(len(live), rng.randint(1, 4)))
        deleted += batch
        g = g.remove_vertices(batch)


def _witness_or_error(fn, *args):
    try:
        return fn(*args)
    except UnstabbableOverlapError:
        return UnstabbableOverlapError


class SweepOnlyDepths:
    """A stand-in for ``CornerDepths`` that takes each maximum clique from a
    full, unbounded sweep over the live boxes, with the sweep's local
    indices mapped back to box ids."""

    def __init__(self, boxes, alive=None):
        self._coords = _coord_array(boxes)

    def max_clique(self, alive):
        live = bit_indices(alive)
        witness = max_clique_sweep(self._coords[:, live].T)
        return CliqueWitness(tuple(live[i] for i in witness.members), witness.stab)


def check_corner_state_follows_sweeps(rects, rng):
    """Delete ``rects`` in batches of 1 to 3 drawn by ``rng``, one to three
    batches between queries; at every query the corner state's maximum
    clique of the live bitset must be the sweep's over the live boxes, as
    ``SweepOnlyDepths`` gives it, and the state must raise
    ``UnstabbableOverlapError`` exactly where the sweep does."""
    state, swept = CornerDepths(rects), SweepOnlyDepths(rects)
    live = list(range(len(rects)))
    while live:
        alive = sum(1 << v for v in live)
        assert _witness_or_error(state.max_clique, alive) == _witness_or_error(swept.max_clique, alive), live
        for _ in range(rng.randint(1, 3)):
            batch = rng.sample(live, min(len(live), rng.randint(1, 3)))
            live = [v for v in live if v not in batch]


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


@pytest.fixture
def caller_bufsize():
    """A ufunc buffer size other than numpy's default, set for one test."""
    old = np.setbufsize(4096)
    try:
        yield 4096
    finally:
        np.setbufsize(old)
