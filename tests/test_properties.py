"""Property tests on small boxes with shared edges and one-ulp gaps.

Coordinates come from a small integer grid and from 0.5 and its nearest
doubles, so the drawn boxes touch, nest, repeat and overlap by one ulp.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from rectcover.cliques import max_clique_sweep
from rectcover.geometry import UnstabbableOverlapError, filter_dominated
from rectcover.graph import build_graph
from rectcover.heuristics import gcc, gcc_i, mis_greedy, mis_i
from rectcover.oracles import (
    exact_mcc,
    exact_mis,
    max_clique_candidates,
    verify_cover,
    verify_independent,
)

from conftest import check_remembered_search, first_kept_inside, inst_of, mk

HALF = 0.5
COORDS = [0.0, math.nextafter(HALF, 0.0), HALF, math.nextafter(HALF, 1.0), 1.0, 2.0, 3.0]
span = st.lists(st.sampled_from(COORDS), min_size=2, max_size=2, unique=True).map(sorted)
box = st.tuples(span, span).map(lambda xy: mk(xy[0][0], xy[1][0], xy[0][1], xy[1][1]))
boxes = st.lists(box, max_size=12)


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
