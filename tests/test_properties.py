"""Property tests on small boxes with shared edges and one-ulp gaps.

Coordinates come from a small integer grid and from 0.5 and its nearest
doubles, so the drawn boxes touch, nest, repeat and overlap by one ulp.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from rectcover.cliques import max_clique_sweep
from rectcover.geometry import Point, UnstabbableOverlapError, filter_dominated, interiors_intersect
from rectcover.graph import build_graph
from rectcover.heuristics import gcc, gcc_i, mis_greedy, mis_i
from rectcover.oracles import (
    exact_mcc,
    exact_mis,
    first_kept_inside,
    max_clique_candidates,
    verify_cover,
    verify_independent,
)

from conftest import check_corner_state_follows_sweeps, check_remembered_search, inst_of, mk

HALF = 0.5
COORDS = [0.0, math.nextafter(HALF, 0.0), HALF, math.nextafter(HALF, 1.0), 1.0, 2.0, 3.0]
span = st.lists(st.sampled_from(COORDS), min_size=2, max_size=2, unique=True).map(sorted)
box = st.tuples(span, span).map(lambda xy: mk(xy[0][0], xy[1][0], xy[0][1], xy[1][1]))
boxes = st.lists(box, max_size=12)
point = st.builds(Point, st.sampled_from(COORDS + [0.25, 1.5]), st.sampled_from(COORDS + [0.25, 1.5]))


def _solve(algo, instance):
    try:
        return algo(instance)
    except UnstabbableOverlapError:
        return None


@settings(derandomize=True, max_examples=400, deadline=None)
@given(boxes)
def test_filter_dominated_matches_plain_scan(rects):
    assert filter_dominated(rects) == first_kept_inside(rects)


@settings(derandomize=True, max_examples=250, deadline=None)
@given(boxes)
def test_outputs_verify_and_sandwich_the_optima(rects):
    instance = inst_of(rects)
    covers = [_solve(algo, instance) for algo in (gcc, gcc_i)]
    sets = [_solve(algo, instance) for algo in (mis_greedy, mis_i)]
    for result in covers:
        if result is not None:
            assert verify_cover(rects, result.points, result.assignment)
    for result in sets:
        if result is not None:
            assert verify_independent(rects, result.members)
    if None in covers + sets:
        return
    try:
        opt_independent = exact_mis(build_graph(rects))[0]
    except UnstabbableOverlapError:
        return
    opt_cover, cover_points = exact_mcc(rects)
    assert verify_cover(rects, cover_points)
    if rects:
        assert max_clique_sweep(rects) == max_clique_candidates(rects)
    assert max(r.size for r in sets) <= opt_independent <= opt_cover
    assert opt_cover <= min(r.size for r in covers)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(boxes, st.integers(0, 2**16))
def test_simplicial_memo_agrees_with_fresh_search(rects, seed):
    try:
        build_graph(rects)
    except UnstabbableOverlapError:
        return
    check_remembered_search(rects, seed)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(boxes)
def test_bounded_sweep_matches_full_sweep(rects):
    if not rects:
        return
    try:
        full = max_clique_sweep(rects)
    except UnstabbableOverlapError:
        return
    for bound in range(full.size, full.size + 3):
        assert max_clique_sweep(rects, bound=bound) == full


@settings(derandomize=True, max_examples=300, deadline=None)
@given(boxes, st.data())
def test_output_checks_match_pairwise_tests(rects, data):
    n = len(rects)
    members = data.draw(st.lists(st.integers(-1, n), max_size=5))
    independent = all(0 <= m < n for m in members) and not any(
        interiors_intersect(rects[a], rects[b]) for i, a in enumerate(members) for b in members[i + 1 :]
    )
    instance = inst_of(rects)
    assert verify_independent(rects, members) == independent
    assert verify_independent(instance, members) == independent

    # each box's own centre, which a one-ulp box does not hold, and a few
    # points on and off the grid lines
    points = [r.center() for r in rects] + data.draw(st.lists(point, max_size=3))
    own_or_any = [st.one_of(st.just(i), st.integers(-1, len(points))) for i in range(n)]
    assignment = data.draw(st.tuples(*own_or_any))
    covered = all(
        0 <= k < len(points) and r.contains_point_open(points[k]) for r, k in zip(rects, assignment)
    )
    assert verify_cover(rects, points, assignment) == covered
    assert verify_cover(instance, points, assignment) == covered
    stabbed = all(any(r.contains_point_open(p) for p in points) for r in rects)
    assert verify_cover(rects, points) == stabbed
    assert verify_cover(instance, points) == stabbed



@settings(derandomize=True, max_examples=300, deadline=None)
@given(boxes, st.randoms(use_true_random=False))
def test_corner_state_follows_sweeps_through_deletions(rects, rng):
    if rects:
        check_corner_state_follows_sweeps(rects, rng)
