import dataclasses
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectcover import geometry
from rectcover.bench import ALGORITHMS, run_algorithm, trial_seed
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

from rectcover.instance_io import dumps_instance
from rectcover.oracles import first_kept_inside

from conftest import crossing_bars, equal_squares, inst_of, mk, nested_clusters, snapped_boxes


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
        boxes = inst_of(rects).coords
        assert common_intersection(boxes.T) == box
        assert common_intersection(boxes.take([0, 2], axis=1).T) == common_intersection(rects[::2])
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


@pytest.mark.parametrize(
    "n, seed, digest",
    [
        (1000, trial_seed(1002, 1000, 0), "144ed4eebee4abe5be5edee122efedf91c384834fc48653fb4f544856590eacb"),
        (20000, 3, "f8cc3ae850eb67371b2797964208444950d88f991ed37c5fbdfd7d5082dcc888"),
    ],
)
def test_seeded_instances_pinned(n, seed, digest):
    # the benchmark's first uniform instance and the scale runs' instance:
    # a generator that draws differently, say from numpy, must not slip in
    assert hashlib.sha256(generate_instance(n, seed=seed).coords.tobytes()).hexdigest() == digest


def test_seeded_instance_pinned_off_the_unit_square():
    # negative lower bounds and unequal extents: the corners are ordered by
    # numpy's minimum and maximum, which must pick make_rectangle's doubles
    instance = generate_instance(500, Region(-3.0, 2.0, 10.0, 10.5), seed=25)
    digest = "b7c9fd9ad869901649dba292a41c6ff388ba5b19b1365ded22b8166ffec3d7f7"
    assert hashlib.sha256(instance.coords.tobytes()).hexdigest() == digest


def _per_rectangle_instance(n, region, seed):
    """The generator as it was before it drew into an array: same draws, one
    make_rectangle per box, and the instance built from the rectangles."""
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


def _span(lo, extent):
    hi = lo + extent
    return lo, hi if hi > lo else math.nextafter(lo, math.inf)


# negative, tiny (down to one ulp) and wide (up to 1e300) extents
_axis = st.builds(
    _span,
    st.floats(-1e6, 1e6) | st.sampled_from([-1e300, -3.0, -0.0, 5e-324, 1.0]),
    st.floats(1e-12, 1e6) | st.sampled_from([5e-324, 1e-300, 1e-9, 1e300]),
)
_regions = st.builds(lambda x, y: Region(*x, *y), _axis, _axis)


@settings(max_examples=150, deadline=None)
@given(_regions, st.integers(0, 50), st.integers(0, 2**64 - 1))
def test_generate_instance_equals_the_per_rectangle_generator(region, n, seed):
    outcomes = []
    for make in (generate_instance, _per_rectangle_instance):
        try:
            outcomes.append(make(n, region, seed))
        except ValueError as err:
            outcomes.append(str(err))
    got, want = outcomes
    if isinstance(want, str):
        assert got == want
        return
    assert got == want and hash(got) == hash(want)
    assert got.coords.tobytes() == want.coords.tobytes()
    assert got.rects == want.rects and repr(got) == repr(want)


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
    inside = mk(0.25, 0.25, 0.5, 0.5)
    # one box past each side of the region in turn, then a later one past another
    for bad in (mk(-0.5, 0, 0.5, 1), mk(0.5, 0, 1.5, 1), mk(0, -0.5, 1, 0.5), mk(0, 0.5, 1, 1.5)):
        with pytest.raises(ValueError, match=r"^rectangle 2 lies outside the region"):
            Instance((inside, inside, bad, inside, mk(0, 0, 2, 2)), None, UNIT_SQUARE, 5)
    # closed containment: boxes on the region's boundary are inside
    Instance((mk(0, 0, 1, 1), mk(0, 0.5, 0.5, 1)), None, UNIT_SQUARE, 2)


def test_instance_rejects_non_rectangles():
    with pytest.raises(TypeError, match="expected Rectangle, got int"):
        Instance((1, 2), None, UNIT_SQUARE, 2)
    with pytest.raises(TypeError, match="expected Rectangle, got NoneType"):
        Instance((mk(0.1, 0.1, 0.2, 0.2), None), None, UNIT_SQUARE, 2)
    with pytest.raises(TypeError, match="expected Rectangle, got tuple"):
        Instance(((0.1, 0.1, 0.2, 0.2),), None, UNIT_SQUARE, 1)


def test_instance_coords_hold_the_rectangles():
    instance = generate_instance(30, seed=5)
    rects = instance.rects
    assert instance.coords.dtype == np.float64
    assert instance.coords.tolist() == [
        [r.lo.x for r in rects],
        [r.lo.y for r in rects],
        [r.hi.x for r in rects],
        [r.hi.y for r in rects],
    ]
    assert all(row.flags.c_contiguous for row in instance.coords)
    assert generate_instance(0, seed=5).coords.shape == (4, 0)
    assert "coords" not in repr(instance)


def test_coord_array_gives_contiguous_rows_of_box_arrays():
    instance = generate_instance(30, seed=5)
    kept = [3, 1, 4, 15, 9, 26]
    strided = instance.coords[:, kept]
    assert strided.flags.f_contiguous and not strided.flags.c_contiguous
    want = geometry._coord_array([instance.rects[i] for i in kept]).tolist()
    for boxes in (strided.T, instance.coords.take(kept, axis=1).T):
        coords = geometry._coord_array(boxes)
        assert coords.flags.c_contiguous and coords.tolist() == want
    assert geometry._coord_array(instance) is instance.coords


def test_instance_coords_are_read_only():
    instance = generate_instance(5, seed=1)
    with pytest.raises(ValueError, match="read-only"):
        instance.coords[0, 0] = 0.5
    lx = instance.coords[0]
    with pytest.raises(ValueError, match="read-only"):
        lx[1] = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        instance.coords = np.zeros((4, 5))
    assert instance == generate_instance(5, seed=1)


def test_equal_instances_compare_and_hash_equal():
    a = generate_instance(40, seed=123)
    b = Instance(tuple(a.rects), a.seed, a.region, a.n_requested)
    assert a.coords is not b.coords
    assert a == b and hash(a) == hash(b)
    assert a != dataclasses.replace(a, seed=124)
    assert len({a, b, generate_instance(40, seed=123)}) == 1


def test_replace_rebuilds_the_coords():
    instance = generate_instance(12, seed=8)
    shorter = dataclasses.replace(instance, rects=instance.rects[3:7])
    assert shorter.coords.shape == (4, 4)
    assert shorter.coords.tolist() == instance.coords[:, 3:7].tolist()
    assert not shorter.coords.flags.writeable
    with pytest.raises(ValueError, match="rectangle 1 lies outside the region"):
        dataclasses.replace(instance, rects=(mk(0.1, 0.1, 0.2, 0.2), mk(0.5, 0.5, 1.5, 0.9)))
    with pytest.raises(ValueError, match="coords"):
        dataclasses.replace(instance, coords=instance.coords)


def test_generated_instance_keeps_the_tuple_built_contract():
    region = Region(-2.0, 3.0, -1.0, 0.5)
    built = _per_rectangle_instance(40, region, 7)
    instance = generate_instance(40, region, seed=7)
    # equality and hashing read the coordinates, not the rectangles
    assert instance == built and hash(instance) == hash(built)
    assert "rects" not in vars(instance)
    assert repr(instance) == repr(built)
    assert instance.n == 40 and instance.rects == built.rects
    by_keyword = Instance(rects=instance.rects, seed=7, region=region, n_requested=40)
    assert by_keyword == Instance(instance.rects, 7, region, 40) == instance
    reseeded = dataclasses.replace(generate_instance(40, region, seed=7), seed=8)
    assert reseeded == dataclasses.replace(built, seed=8) != instance
    shorter = dataclasses.replace(generate_instance(40, region, seed=7), rects=built.rects[5:9])
    assert shorter == dataclasses.replace(built, rects=built.rects[5:9])
    assert shorter.coords.tolist() == instance.coords[:, 5:9].tolist()


def test_negative_zero_instances_compare_and_hash_equal():
    # -0.0 == 0.0, so rectangles and instances holding either are equal
    a = inst_of([mk(-0.0, 0, 1, 1)])
    b = inst_of([mk(0, -0.0, 1, 1)])
    assert a.rects == b.rects and a == b and hash(a) == hash(b)


def test_instance_from_coords_checks_like_init():
    box = mk(0.5, 0.5, 1.5, 0.9)
    message = f"rectangle 1 lies outside the region: {box}"
    coords = np.array([[0.1, 0.5], [0.1, 0.5], [0.2, 1.5], [0.2, 0.9]])
    with pytest.raises(ValueError) as from_coords:
        Instance._from_coords(coords.copy(), None, UNIT_SQUARE, 2)
    with pytest.raises(ValueError) as from_rects:
        Instance((mk(0.1, 0.1, 0.2, 0.2), box), None, UNIT_SQUARE, 2)
    assert str(from_coords.value) == str(from_rects.value) == message
    for bad in (math.nan, 0.1):  # a non-finite hi.x, then hi.x == lo.x
        coords[2, 0] = bad
        with pytest.raises(DegenerateRectangleError, match="box 0"):
            Instance._from_coords(coords.copy(), None, UNIT_SQUARE, 2)


def test_generated_instances_build_rectangles_only_when_read(monkeypatch):
    made = {Point: 0, Rectangle: 0}
    for cls in made:
        def counting(self, cls=cls, check=cls.__post_init__):
            made[cls] += 1
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counting)
    instance = generate_instance(2000, seed=44)
    assert made == {Point: 0, Rectangle: 0}
    filter_dominated(instance)
    for name, algorithm in ALGORITHMS.items():
        algorithm(instance)
        assert run_algorithm(name, instance).verified
    dumps_instance(instance)
    assert made[Rectangle] == 0 and "rects" not in vars(instance)
    rects = instance.rects
    assert made[Rectangle] == 2000 and len(rects) == 2000
    assert instance.rects is rects and made[Rectangle] == 2000


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


def _snapped_chain():
    # four sizes drawn from one generator, in this order
    rng = random.Random(77)
    return [snapped_boxes(rng, n, grid) for n, grid in ((40, 3), (90, 5), (300, 4), (600, 8))]


# Each case gives an Instance or a list of rectangles for the filter.
NAIVE_FILTER_CASES = {
    **{f"uniform-90-{s}": lambda s=s: generate_instance(90, seed=1000 + s) for s in range(12)},
    # integer corners: shared edges, duplicates and equal areas throughout;
    # the larger ones span more than one 256-row block
    **{f"snapped-chain-{i}": lambda i=i: _snapped_chain()[i] for i in range(4)},
    # grids of 3-12 steps: runs of equal lo.x and of identical boxes span
    # many blocks
    **{
        f"snapped-1200-grid{g}-{s}": lambda g=g, s=s: snapped_boxes(random.Random(s), 1200, g)
        for s in range(5)
        for g in range(3, 13)
    },
    # pass 1 tests boxes around 5 points with the window of kept boxes on
    # the outer axis of its broadcast, leaves every equal square untested,
    # and tests uniform boxes with the rows on the outer axis once the
    # window outgrows them; pass 2 walks the kept boxes in chunks
    **{f"clustered-2000-{s}": lambda s=s: nested_clusters(2000, 5, s) for s in range(3)},
    **{f"squares-1500-{s}": lambda s=s: equal_squares(1500, s) for s in range(3)},
    **{f"uniform-2000-{s}": lambda s=s: list(generate_instance(2000, seed=s).rects) for s in range(3)},
}


@pytest.mark.parametrize("case", list(NAIVE_FILTER_CASES))
def test_filter_dominated_matches_naive(case):
    boxes = NAIVE_FILTER_CASES[case]()
    rects = boxes.rects if isinstance(boxes, Instance) else boxes
    assert filter_dominated(boxes) == first_kept_inside(rects)


@pytest.mark.parametrize("axis", ["x", "y"])
def test_unstabbable_error_names_the_smallest_shared_upper_coordinate(axis):
    # two pairs a lower coordinate one ulp below an upper one, at 3 and at
    # 1, the box with lower coordinate 5 listed first; boxes touching at a
    # shared coordinate (2) are fine
    below = [math.nextafter(c, -math.inf) for c in (3.0, 1.0)]
    spans = [(5.0, 6.0), (below[0], 4.0), (0.0, 3.0), (below[1], 2.0), (2.0, 2.5), (0.0, 1.0)]
    rects = [mk(lo, 0, hi, 1) if axis == "x" else mk(0, lo, 1, hi) for lo, hi in spans]
    with pytest.raises(geometry.UnstabbableOverlapError) as err:
        geometry._check_stabbable(geometry._coord_array(rects))
    assert str(err.value) == (
        f"no double lies strictly between lower {axis} {below[1]!r} and upper {axis} 1.0, "
        f"so their overlap cannot be stabbed"
    )
    geometry._check_stabbable(geometry._coord_array(rects[3:5]))
    geometry._check_stabbable(geometry._coord_array([]))


def test_filter_dominated_empty():
    assert filter_dominated(inst_of([])) == ([], [])


def test_filter_dominated_rejects_non_rectangles():
    with pytest.raises(TypeError, match="expected Rectangle, got int"):
        filter_dominated([1, 2])
    with pytest.raises(TypeError):
        filter_dominated([mk(0, 0, 1, 1), (0, 0, 2, 2)])


def test_filter_dominated_restores_the_ufunc_buffer(caller_bufsize, monkeypatch):
    instance = generate_instance(600, seed=3)
    filter_dominated(instance)
    assert np.getbufsize() == caller_bufsize
    filter_dominated(list(instance.rects))
    assert np.getbufsize() == caller_bufsize
    seen = []

    def failing(*args):
        seen.append(np.getbufsize())
        raise MemoryError

    # a plain sequence fails while being read, an Instance while being sorted
    monkeypatch.setattr(geometry, "_coord_array", failing)
    with pytest.raises(MemoryError):
        filter_dominated([mk(0, 0, 1, 1)])
    monkeypatch.undo()
    monkeypatch.setattr(geometry.np, "argsort", failing)
    with pytest.raises(MemoryError):
        filter_dominated(instance)
    assert seen == [geometry._UFUNC_BUFSIZE] * 2
    assert np.getbufsize() == caller_bufsize


def test_filter_dominated_across_256_row_blocks():
    # 1100 disjoint unit cells in a row; cell c is box c + 1 and kept
    # rectangle number c. The filter's blocks of 256 rows go by lo.x
    # descending: the first holds cells 1099..848 and the four boxes around
    # cells 1020..1040, the last holds cells 79..0 and the boxes around 3..4
    # and 0..1099. The middle blocks hold only cells, and their windows are
    # empty: every cell kept so far starts right of their largest hi.x.
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
            # which its block visits first
            around(0, 1099),  # cells of every block, the last block's window
        ]
    )
    kept, removed = filter_dominated(rects)
    n = len(rects)
    assert [i for i, _ in removed] == [0] + list(range(1101, 1106))
    assert (kept, removed) == first_kept_inside(rects)
    assert [w for _, w in removed] == [4, 1031, 1021, 1025, 1029, 1]
    assert kept == [i for i in range(n) if i not in {i for i, _ in removed}]


def test_nested_boxes_of_equal_float_area_split_by_a_block_boundary():
    # the two widths round to the same double, so the pair ties on area,
    # which the filter's x-order does not read; with 255 boxes further right
    # first, the inner box (index 256) and the outer one (index 255) sit at
    # sorted positions 255 and 256, one on each side of the first block
    # boundary, and the outer box's block reaches the inner one's lo.x only
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


@pytest.mark.parametrize(
    "inner",
    [mk(0, 0, 1, 1), mk(0, 0.5, 2, 1), mk(0, 0, 2, 0.5)],
    ids=["hi.x", "lo.y", "hi.y"],
)
def test_nested_boxes_of_equal_lo_x_split_by_a_block_boundary(inner):
    # inner and outer share lo.x = 0 and differ first in the tie key named
    # by the id; 255 boxes further right fill the first block, so the inner
    # box closes it and the outer one opens the next, where it must find
    # the inner one kept, whether it has the lower index or the higher.
    outer = mk(0, 0, 2, 1)
    right = [mk(3 + 0.02 * c, 0, 3.01 + 0.02 * c, 0.01) for c in range(255)]
    rects = [outer, inner] + right
    assert filter_dominated(rects) == first_kept_inside(rects) == ([*range(1, 257)], [(0, 1)])
    rects = right + [inner, outer]
    assert filter_dominated(rects) == first_kept_inside(rects) == ([*range(256)], [(256, 255)])


def test_a_run_of_equal_lo_x_across_a_block_boundary():
    # 304 boxes share lo.x = 0, so the filter sorts them as one run by hi.x
    # ascending, lo.y descending and hi.y ascending, and the run fills the
    # first 256-row block and part of the second. No two stairs contain
    # each other; stair k sits at sorted position k up to k = 255, and
    # stair 255's exact copy at position 256, where it must find the first
    # copy kept without being dominated by it. The first three boxes come
    # first by index but last in the run, so a sort that left equal lo.x
    # in index order would visit them before the stairs inside them.
    stairs = [mk(0, 2 * k, k + 1, 2 * k + 3) for k in range(300)]
    rects = [
        mk(0, 199, 301, 204),  # holds stair 100 of the first block
        mk(0, 509, 256, 513),  # holds both copies of stair 255: lower lo.y
        mk(0, 510, 256, 513.5),  # and higher hi.y
        *stairs,
        stairs[255],
    ]
    order = np.lexsort(np.array([[r.hi.y, -r.lo.y, r.hi.x, -r.lo.x] for r in rects]).T)
    assert order[255:257].tolist() == [258, 303]
    kept, removed = filter_dominated(rects)
    assert removed == [(0, 103), (1, 258), (2, 258)]
    assert kept == list(range(3, 304))
    assert (kept, removed) == first_kept_inside(rects)


def test_window_edge_holds_a_kept_box_starting_at_the_largest_hi_x():
    # The first block holds 254 boxes right of x = 5, the kept box K with
    # lo.x = 1 and the kept box C = [0.9, 1] x [0, 1]. The second block's
    # largest hi.x is 1, K's lo.x: K enters the window and touches O and P
    # along x = 1 without lying inside either. O holds C, right edges
    # touching; P, overlapping both, holds neither.
    right = [mk(5 + 0.02 * c, 0, 5.01 + 0.02 * c, 0.01) for c in range(254)]
    k, c = mk(1, 0, 2, 1), mk(0.9, 0, 1, 1)
    o, p = mk(0, 0, 1, 1), mk(0.8, 0.5, 1, 1.5)
    rects = [o, p] + right + [k, c]
    kept, removed = filter_dominated(rects)
    assert removed == [(0, 257)]
    assert kept == list(range(1, 258))
    assert (kept, removed) == first_kept_inside(rects)


def _windows(monkeypatch, boxes):
    """The filter's result on ``boxes``, and for each tested block the number
    of kept boxes its window reaches and the number kept before it."""
    windows = []
    searchsorted = np.searchsorted

    def spy(a, v, **kwargs):
        reach = searchsorted(a, v, **kwargs)
        windows.append((int(reach), len(a)))
        return reach

    monkeypatch.setattr(geometry.np, "searchsorted", spy)
    result = filter_dominated(boxes)
    monkeypatch.undo()
    return result, windows


def test_window_leaves_out_most_kept_boxes_of_narrow_clusters(monkeypatch):
    # 1000 boxes around 40 points make four blocks, about half of them
    # dominated; a box reaches at most 0.04 from its point, so a block's
    # largest hi.x lies left of most clusters kept by the blocks before it
    rects = nested_clusters(1000, 40, 0)
    result, windows = _windows(monkeypatch, inst_of(rects))
    assert result == filter_dominated(rects) == first_kept_inside(rects)
    assert len(windows) == 4 and len(result[1]) > 400
    # the windows hold less than a third of the boxes kept before each block
    assert sum(r for r, _ in windows) * 3 < sum(k for _, k in windows)


@pytest.mark.parametrize("seed", range(3))
def test_window_on_either_axis_of_the_broadcast(monkeypatch, seed):
    # The first pass puts the shorter of a block's window and its tested
    # rows on the broadcast's outer axis. Around 5 points nearly every row
    # is tested and the windows stay well inside a block, so they go
    # outside; 3000 uniform boxes keep more boxes than a block holds, and
    # the late windows are wider than any block, so the rows go outside.
    clustered = nested_clusters(1500, 5, seed)
    result, windows = _windows(monkeypatch, clustered)
    assert result == first_kept_inside(clustered)
    assert max(r for r, _ in windows) < 128 and len(windows) == 6
    uniform = list(generate_instance(3000, seed=seed).rects)
    result, windows = _windows(monkeypatch, uniform)
    assert result == first_kept_inside(uniform)
    assert max(r for r, _ in windows) > 256


@pytest.mark.parametrize("seed", range(3))
def test_equal_widths_leave_rows_untested(seed):
    # Boxes of one width hold another only if both share their x-range, so
    # only the boxes that repeat an earlier lo.x are tested; the others,
    # all of equal squares among them, are kept untested.
    rng = random.Random(seed)
    rects = [mk(x, y, x + 1, y + h) for x, y, h in (
        (rng.randrange(40) / 8, rng.randrange(6), rng.randrange(1, 5)) for _ in range(700)
    )]
    assert filter_dominated(rects) == first_kept_inside(rects)
    squares = equal_squares(700, seed)
    assert filter_dominated(squares) == first_kept_inside(squares) == ([*range(700)], [])


@pytest.mark.parametrize("place", [0, 254, 255, 256, 400])
def test_a_box_whose_only_inner_box_shares_its_x_range(place):
    # place boxes right of x = 3 come first in the order, and are kept
    # untested: each has a larger hi.x than every box before it. The inner
    # box follows at sorted position place, then the outer one, which is
    # tested only because its inner box ties with it on hi.x, and then
    # boxes left of x = 0. place = 255 puts the pair one on each side of
    # the first block boundary.
    right = [mk(3 + 0.02 * c, 0, 5 + 0.02 * c, 0.01) for c in range(place)]
    left = [mk(-3 - 0.02 * c, 0, -1 - 0.02 * c, 0.01) for c in range(500 - place)]
    rects = right + [mk(0, 0, 2, 3), mk(0, 1, 2, 2)] + left
    kept, removed = filter_dominated(rects)
    assert removed == [(place, place + 1)]
    assert (kept, removed) == first_kept_inside(rects)


@pytest.mark.parametrize("inside", [False, True], ids=["kept", "removed"])
def test_exact_duplicates_straddling_a_block_boundary(inside):
    # 255 kept boxes right of x = 3 fill the first block but one; the two
    # copies of D follow at sorted positions 255 and 256, one in each
    # block. The second copy ties with the first on hi.x, so it is tested,
    # and must not count the first copy as a box inside it; the box B
    # around both copies takes the first. With the box I inside them, at
    # sorted position 254, both copies and B are removed and take I.
    right = [mk(3 + 0.02 * c, 0, 5 + 0.02 * c, 0.01) for c in range(255 - inside)]
    d, i = mk(0, 0, 2, 2), mk(0.5, 0.5, 1.5, 1.5)
    rects = right + [d, mk(-1, -1, 2.5, 3), d] + [i] * inside
    kept, removed = filter_dominated(rects)
    n = len(right)
    if inside:
        assert removed == [(n, n + 3), (n + 1, n + 3), (n + 2, n + 3)]
    else:
        assert removed == [(n + 1, n)] and n + 2 in kept
    assert (kept, removed) == first_kept_inside(rects)


def test_witness_at_either_side_of_a_chunk_boundary():
    # The second pass walks the kept ids in chunks of 1, 2, 4, ... and 255
    # boxes: ranks 0, 1-2, 3-6, ..., 127-254, 255-509 and 510 on. 600 kept
    # cells lie in a row, cell c at rank c. 300 removed boxes hold only the
    # last cell, so more rows are left than any chunk holds and every chunk
    # goes on the outer axis. At each chunk boundary b, one box spans cells
    # b - 1 to b + 5 and one spans cells b to b + 5: their witnesses are the
    # last kept box of a chunk and the first of the next, each with kept
    # boxes of a later chunk inside as well.
    cells = [mk(2 * c, 0, 2 * c + 1, 1) for c in range(600)]
    last = 2 * 599
    tail = [mk(last - e, -e, last + 1 + e, 1 + e) for e in np.linspace(0.01, 0.9, 300)]
    spans = []
    for b in (1, 3, 7, 15, 31, 63, 127, 255, 510):
        spans += [mk(2 * (b - 1) - 0.5, -0.5, 2 * (b + 5) + 1.5, 1.5), mk(2 * b - 0.5, -0.5, 2 * (b + 5) + 1.5, 1.5)]
    rects = cells + tail + spans
    kept, removed = filter_dominated(rects)
    assert kept == list(range(600))
    assert [w for _, w in removed[300:]] == [c for b in (1, 3, 7, 15, 31, 63, 127, 255, 510) for c in (b - 1, b)]
    assert (kept, removed) == first_kept_inside(rects)


@pytest.mark.parametrize("seed", range(3))
def test_chunks_capped_while_many_removed_boxes_are_left(seed):
    # Around one point few of 3000 boxes are kept. A chunk of the second
    # pass holds at most 256 * kept / (removed boxes left) kept boxes, so
    # here the first chunks stop growing at about 10 boxes and grow again
    # as removed boxes leave.
    rects = nested_clusters(3000, 1, seed)
    kept, removed = filter_dominated(rects)
    assert 256 * len(kept) // len(removed) < 16
    assert (kept, removed) == first_kept_inside(rects)


@st.composite
def conftest_family(draw):
    """Up to 60 boxes of one of the conftest families, or uniform ones."""
    n = draw(st.integers(0, 60))
    seed = draw(st.integers(0, 2**32))
    kind = draw(st.sampled_from(["uniform", "squares", "snapped", "bars", "clusters"]))
    if kind == "uniform":
        return list(generate_instance(n, seed=seed).rects)
    if kind == "squares":
        return equal_squares(n, seed) if n else []
    if kind == "snapped":
        return snapped_boxes(random.Random(seed), n, draw(st.integers(1, 8)))
    if kind == "bars":
        return crossing_bars(n // 2)
    return nested_clusters(n, draw(st.integers(1, 6)), seed)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(conftest_family())
def test_filter_dominated_reads_an_instance_as_its_rectangles(rects):
    # and reads the box array of the instance, or of a slice of it, so too
    instance = inst_of(rects)
    want = first_kept_inside(rects)
    assert filter_dominated(instance) == filter_dominated(instance.coords.T) == filter_dominated(rects) == want
    odd = list(range(1, len(rects), 2))
    assert filter_dominated(instance.coords.take(odd, axis=1).T) == first_kept_inside([rects[i] for i in odd])
