import math
import random

import numpy as np
import pytest

from rectcover import geometry
from rectcover.geometry import (
    UNIT_SQUARE,
    DegenerateRectangleError,
    Instance,
    Point,
    Rectangle,
    Region,
    common_intersection,
    contains,
    filter_dominated,
    generate_instance,
    interiors_intersect,
    make_rectangle,
)

from conftest import first_kept_inside, inst_of, mk, snapped_boxes


# ---------------------------------------------------------------- rectangles


def test_rectangle_requires_positive_extent():
    with pytest.raises(ValueError):
        Rectangle(Point(1.0, 0.0), Point(0.0, 1.0))
    with pytest.raises(ValueError):
        Rectangle(Point(0.0, 0.0), Point(1.0, 0.0))


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Point(0.0, float("inf"))


def test_make_rectangle_normalizes_corners():
    assert make_rectangle(Point(0.0, 0.0), Point(2.0, 3.0)) == mk(0, 0, 2, 3)
    assert make_rectangle(Point(2.0, 0.0), Point(0.0, 3.0)) == mk(0, 0, 2, 3)
    r = make_rectangle(Point(3.0, 1.0), Point(1.0, 4.0))
    assert r.lo == Point(1.0, 1.0)
    assert r.hi == Point(3.0, 4.0)
    assert r.width == 2.0 and r.height == 3.0
    assert r.center() == Point(2.0, 2.5)


def test_make_rectangle_rejects_degenerate():
    with pytest.raises(DegenerateRectangleError):
        make_rectangle(Point(0.0, 0.0), Point(0.0, 1.0))
    with pytest.raises(DegenerateRectangleError):
        make_rectangle(Point(2.0, 5.0), Point(7.0, 5.0))


def test_make_rectangle_order_invariant():
    rng = random.Random(2024)
    for _ in range(100):
        p = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        q = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if p.x == q.x or p.y == q.y:
            continue
        assert make_rectangle(p, q) == make_rectangle(q, p)


def test_contains_point_open_excludes_boundary():
    r = mk(0, 0, 2, 2)
    assert r.contains_point_open(Point(1.0, 1.0))
    assert not r.contains_point_open(Point(0.0, 1.0))
    assert not r.contains_point_open(Point(1.0, 2.0))
    assert not r.contains_point_open(Point(2.0, 2.0))


# -------------------------------------------------------------- intersection


def test_interiors_intersect_examples():
    a = mk(0, 0, 2, 2)
    assert interiors_intersect(a, mk(1, 1, 3, 3))
    # shared edge only: open interiors are disjoint
    assert not interiors_intersect(a, mk(2, 0, 4, 2))
    # shared corner only
    assert not interiors_intersect(a, mk(2, 2, 3, 3))
    # fully disjoint
    assert not interiors_intersect(a, mk(5, 5, 6, 6))
    # nesting counts as intersecting
    assert interiors_intersect(a, mk(0.5, 0.5, 1.5, 1.5))
    assert interiors_intersect(a, a)


def test_interiors_intersect_symmetric():
    rng = random.Random(11)
    for _ in range(200):
        a = mk(rng.random(), rng.random(), 1 + rng.random(), 1 + rng.random())
        b = mk(rng.random(), rng.random(), 1 + rng.random(), 1 + rng.random())
        assert interiors_intersect(a, b) == interiors_intersect(b, a)


def test_contains_is_closed_and_strict():
    outer = mk(0, 0, 4, 4)
    assert contains(outer, mk(1, 1, 2, 2))
    assert contains(outer, mk(0, 0, 4, 2))  # shared boundary still contained
    assert not contains(outer, outer)  # equality is not containment
    assert not contains(mk(1, 1, 2, 2), outer)
    assert not contains(outer, mk(3, 3, 5, 5))


def test_common_intersection(triangle):
    box = common_intersection(triangle)
    assert box == mk(1, 1, 2, 2)
    assert common_intersection([mk(0, 0, 2, 2)]) == mk(0, 0, 2, 2)
    assert common_intersection([mk(0, 0, 2, 2), mk(1, 1, 3, 3)]) == mk(1, 1, 2, 2)
    assert common_intersection([mk(0, 0, 1, 1), mk(2, 0, 3, 1)]) is None
    # touching rectangles share no open interior
    assert common_intersection([mk(0, 0, 1, 1), mk(1, 0, 2, 1)]) is None
    with pytest.raises(ValueError):
        common_intersection([])


def test_common_intersection_matches_pairwise():
    # Helly property: pairwise overlapping boxes have a common point.
    rng = random.Random(97)
    for _ in range(300):
        rects = [
            mk(x, y, x + rng.uniform(0.2, 1.0), y + rng.uniform(0.2, 1.0))
            for x, y in ((rng.random(), rng.random()) for _ in range(4))
        ]
        pairwise = all(
            interiors_intersect(a, b)
            for i, a in enumerate(rects)
            for b in rects[i + 1 :]
        )
        box = common_intersection(rects)
        assert pairwise == (box is not None)
        if box is not None:
            c = box.center()
            assert all(r.contains_point_open(c) for r in rects)


# ----------------------------------------------------------------- instances


def test_generate_instance_deterministic():
    a = generate_instance(40, seed=123)
    b = generate_instance(40, seed=123)
    assert a == b
    c = generate_instance(40, seed=124)
    assert a != c


def test_generate_instance_invariants():
    region = Region(-2.0, 3.0, 1.0, 4.0)
    instance = generate_instance(250, region=region, seed=9)
    assert instance.n == 250
    assert instance.seed == 9
    for r in instance.rects:
        assert region.x_min <= r.lo.x < r.hi.x <= region.x_max
        assert region.y_min <= r.lo.y < r.hi.y <= region.y_max


@pytest.mark.parametrize(
    "bounds",
    [
        (0.0, math.inf, 0.0, 1.0),
        (0.0, math.nan, 0.0, 1.0),
        (-1e308, 1e308, 0.0, 1.0),  # finite bounds, but the width overflows
        (0.0, 1.0, -math.inf, 0.0),
    ],
    ids=["inf", "nan", "overflowing-width", "minus-inf-y"],
)
def test_region_rejects_non_finite_extent(bounds):
    # uniform draws over such a region are never finite, so generation
    # would reject every draw forever
    with pytest.raises(ValueError, match="finite"):
        Region(*bounds)


def test_generate_instance_empty():
    instance = generate_instance(0, seed=1)
    assert instance.n == 0
    assert instance.rects == ()


def test_instance_rejects_rect_outside_region():
    with pytest.raises(ValueError):
        Instance(
            rects=(mk(0, 0, 2, 2),),
            seed=None,
            region=UNIT_SQUARE,
            n_requested=1,
        )


def test_instance_rejects_non_rectangles():
    with pytest.raises(TypeError, match="expected Rectangle, got int"):
        Instance((1, 2), None, UNIT_SQUARE, 2)
    with pytest.raises(TypeError, match="expected Rectangle, got NoneType"):
        Instance((mk(0.1, 0.1, 0.2, 0.2), None), None, UNIT_SQUARE, 2)


# ---------------------------------------------------------------- domination


def test_filter_dominated_examples():
    # outer contains inner: outer is dominated and removed
    kept, removed = filter_dominated(inst_of([mk(0, 0, 4, 4), mk(1, 1, 2, 2)]))
    assert kept == [1] and removed == [(0, 1)]

    # the containing rectangle goes, unrelated ones stay
    kept, removed = filter_dominated(
        inst_of([mk(0, 0, 4, 4), mk(1, 1, 2, 2), mk(3, 0, 5, 2)])
    )
    assert kept == [1, 2] and removed == [(0, 1)]

    # chain: a contains b contains c -> only c survives, and witnesses both
    kept, removed = filter_dominated(
        inst_of([mk(0, 0, 9, 9), mk(1, 1, 5, 5), mk(2, 2, 3, 3)])
    )
    assert kept == [2] and removed == [(0, 2), (1, 2)]

    # overlap without containment keeps both
    kept, removed = filter_dominated(inst_of([mk(0, 0, 2, 2), mk(1, 1, 3, 3)]))
    assert kept == [0, 1] and removed == []

    # boxes sharing three sides: the larger one goes, whichever side differs
    for inner in (mk(1, 0, 2, 2), mk(0, 1, 2, 2), mk(0, 0, 1, 2), mk(0, 0, 2, 1)):
        kept, removed = filter_dominated(inst_of([mk(0, 0, 2, 2), inner]))
        assert kept == [1] and removed == [(0, 1)], inner


def test_filter_dominated_duplicates_survive():
    # identical rectangles do not dominate each other
    kept, removed = filter_dominated(inst_of([mk(0, 0, 1, 1), mk(0, 0, 1, 1)]))
    assert kept == [0, 1] and removed == []
    # a box around two duplicates takes the lower-index one as its witness
    kept, removed = filter_dominated(
        inst_of([mk(0, 0, 3, 3), mk(1, 1, 2, 2), mk(1, 1, 2, 2)])
    )
    assert kept == [1, 2] and removed == [(0, 1)]


def test_filter_dominated_idempotent():
    for seed in range(8):
        instance = generate_instance(150, seed=seed)
        kept, removed = filter_dominated(instance)
        assert sorted(kept + [i for i, _ in removed]) == list(range(150))
        assert {w for _, w in removed} <= set(kept)
        survivors = [instance.rects[i] for i in kept]
        kept2, removed2 = filter_dominated(survivors)
        assert removed2 == []
        assert kept2 == list(range(len(survivors)))


def test_filter_dominated_matches_naive():
    for seed in range(12):
        instance = generate_instance(90, seed=1000 + seed)
        assert filter_dominated(instance) == first_kept_inside(instance.rects)
    # integer corners: shared edges, duplicates and equal areas throughout;
    # the larger ones span more than one 256-row block
    rng = random.Random(77)
    for n, grid in ((40, 3), (90, 5), (300, 4), (600, 8)):
        rects = snapped_boxes(rng, n, grid)
        assert filter_dominated(rects) == first_kept_inside(rects), (n, grid)


def test_filter_dominated_empty():
    assert filter_dominated(inst_of([])) == ([], [])


def test_filter_dominated_rejects_non_rectangles():
    with pytest.raises(TypeError, match="expected Rectangle, got int"):
        filter_dominated([1, 2])
    with pytest.raises(TypeError):
        filter_dominated([mk(0, 0, 1, 1), (0, 0, 2, 2)])


def test_filter_dominated_restores_the_ufunc_buffer(caller_bufsize, monkeypatch):
    filter_dominated(generate_instance(600, seed=3))
    assert np.getbufsize() == caller_bufsize
    seen = []

    def failing_bounds(rects):
        seen.append(np.getbufsize())
        raise MemoryError

    monkeypatch.setattr(geometry, "_bounds_arrays", failing_bounds)
    with pytest.raises(MemoryError):
        filter_dominated([mk(0, 0, 1, 1)])
    assert seen == [geometry._UFUNC_BUFSIZE]
    assert np.getbufsize() == caller_bufsize


def test_filter_dominated_across_256_row_blocks():
    # 1100 disjoint unit cells of equal area, so the filter's blocks of 256
    # rows in containment order hold only cells until the last one, which
    # holds cells 75..0 and the six larger boxes; cell c is box c + 1 and
    # kept rectangle number c
    cells = [mk(2 * c, 0, 2 * c + 1, 1) for c in range(1100)]

    def around(first, last):  # a box holding cells first..last
        return mk(2 * first - 0.5, -0.5, 2 * last + 1.5, 1.5)

    rects = (
        [around(3, 4)]  # cells of its own block only
        + cells
        + [
            around(1030, 1032),  # cells of the first block only
            around(1020, 1030),
            around(1024, 1026),
            around(1028, 1040),  # also holds the removed box around 1030..1032,
            # which sits in its own block
            around(0, 1099),  # cells of every block
        ]
    )
    kept, removed = filter_dominated(rects)
    n = len(rects)
    assert [i for i, _ in removed] == [0] + list(range(1101, 1106))
    assert (kept, removed) == first_kept_inside(rects)
    assert [w for _, w in removed] == [4, 1031, 1021, 1025, 1029, 1]
    assert kept == [i for i in range(n) if i not in {i for i, _ in removed}]


def test_nested_boxes_of_equal_float_area_split_by_a_block_boundary():
    # the two widths round to the same double, so the pair ties on area;
    # with 255 smaller boxes first, the outer box (index 255) and the inner
    # one (index 256) sit at sorted positions 255 and 256, one on each side
    # of the first block boundary, whichever of the two comes first
    assert 1 + 2**-52 - 2**-60 == 1 + 2**-52
    small = [mk(2 + 0.02 * c, 0, 2.01 + 0.02 * c, 0.01) for c in range(255)]
    outer = mk(0, 0, 1 + 2**-52, 1)
    inner = mk(2**-60, 0, 1 + 2**-52, 1)
    assert outer.width * outer.height == inner.width * inner.height
    rects = small + [outer, inner]
    kept, removed = filter_dominated(rects)
    assert removed == [(255, 256)]
    assert kept == list(range(255)) + [256]
    assert (kept, removed) == first_kept_inside(rects)
