import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectcover import heuristics
from rectcover.cliques import CliqueWitness, CornerDepths, first_clique_boxes, max_clique_sweep
from rectcover.geometry import DegenerateRectangleError, Point, common_intersection, filter_dominated, generate_instance
from rectcover.graph import (
    IntersectionGraph,
    SimplicialSearchStats,
    bit_indices,
    build_graph,
    find_simplicial,
    find_top_cliques,
)
from rectcover.heuristics import gcc, gcc_i, mis_greedy, mis_i
from rectcover.oracles import exact_mcc, max_clique_candidates, simplicial_scan, verify_independent
from rectcover.segtree import MaxAddSegmentTree

from conftest import (
    FAMILIES,
    check_corner_state_follows_sweeps,
    check_remembered_search,
    crossing_bars,
    dense_frame,
    equal_squares,
    family_instance,
    inst_of,
    mk,
    nested_clusters,
    snapped_boxes,
)


def quadratic_budget(k):
    # empirical access budget for one simplicial search over k live vertices
    return 12 * k * k + 64 * k + 512


# ----------------------------------------------------------- maximum clique


def test_max_clique_empty_rejected():
    with pytest.raises(ValueError):
        max_clique_sweep([])


def test_max_clique_single():
    w = max_clique_sweep([mk(0, 0, 1, 1)])
    assert w.members == (0,)
    assert mk(0, 0, 1, 1).contains_point_open(w.stab)


def test_max_clique_triangle(triangle):
    w = max_clique_sweep(triangle)
    assert sorted(w.members) == [0, 1, 2]
    assert 1 < w.stab.x < 2 and 1 < w.stab.y < 2
    assert all(r.contains_point_open(w.stab) for r in triangle)


def test_max_clique_chain(chain3):
    w = max_clique_sweep(chain3)
    assert w.size == 2
    stabbed = [r.contains_point_open(w.stab) for r in chain3]
    assert stabbed.count(True) == 2


def test_max_clique_disjoint():
    w = max_clique_sweep([mk(0, 0, 1, 1), mk(5, 5, 6, 6), mk(9, 0, 10, 1)])
    assert w.size == 1


def test_max_clique_touching_is_not_deeper():
    # four rectangles meeting at one corner point: depth stays 1
    rects = [mk(0, 0, 1, 1), mk(1, 0, 2, 1), mk(0, 1, 1, 2), mk(1, 1, 2, 2)]
    assert max_clique_sweep(rects).size == 1


def test_max_clique_matches_candidate_oracle():
    # the instance's box array, or a slice of it, gives what its rectangles give
    odd = list(range(1, 35, 2))
    for seed in range(40):
        instance = generate_instance(35, seed=500 + seed)
        rects = list(instance.rects)
        assert max_clique_sweep(rects) == max_clique_sweep(instance.coords.T) == max_clique_candidates(rects), seed
        sliced = max_clique_sweep(instance.coords.take(odd, axis=1).T)
        assert sliced == max_clique_candidates([rects[i] for i in odd]), seed


def test_max_clique_stab_hits_exactly_members():
    for seed in range(20):
        instance = generate_instance(50, seed=900 + seed)
        w = max_clique_sweep(list(instance.rects))
        hit = {
            i
            for i, r in enumerate(instance.rects)
            if r.contains_point_open(w.stab)
        }
        assert hit == set(w.members)


def test_max_clique_tie_order_matches_cell_scan():
    # integer corners tie often: many cells share the maximum depth, and the
    # sweep must pick the topmost y-gap, then the leftmost x-cell in it
    rng = random.Random(2024)
    for t in range(150):
        rects = snapped_boxes(rng, rng.randrange(1, 30), rng.choice((3, 4, 6, 9)))
        assert max_clique_sweep(rects) == max_clique_candidates(rects), t


def test_max_clique_tie_goes_to_top_gap_then_left_cell():
    # every cell has depth 1: the top y-gap wins over the lower box, and in
    # it the left box wins over the right one, in the sweep and the oracle
    rects = [mk(0, 0, 1, 1), mk(4, 2, 5, 3), mk(0, 2, 1, 3)]
    expected = CliqueWitness((2,), Point(0.5, 2.5))
    assert max_clique_sweep(rects) == expected
    assert max_clique_candidates(rects) == expected


def test_max_clique_bound_below_one_rejected():
    with pytest.raises(ValueError, match="bound"):
        max_clique_sweep([mk(0, 0, 1, 1)], bound=0)


def test_max_clique_bound_stops_at_first_deepest_cell():
    # the pair on top is as deep as the bound, so the sweep stops there
    # and never reaches the deeper triple below; a larger bound finds it
    rects = [mk(0, 4, 2, 6), mk(1, 4, 3, 6), mk(0, 0, 2, 2), mk(1, 0, 3, 2), mk(1, 1, 3, 3)]
    assert max_clique_sweep(rects, bound=2) == CliqueWitness((0, 1), Point(1.5, 5.0))
    assert max_clique_sweep(rects, bound=3) == max_clique_sweep(rects)
    assert max_clique_sweep(rects).members == (2, 3, 4)


# ----------------------------------------------------------- corner state


def test_corner_state_matches_sweep_and_oracle(triangle, chain3, frame4):
    # the instance's box array, or a slice of it, gives what its rectangles give
    for rects in (triangle, chain3, frame4, crossing_bars(5), [mk(0, 0, 1, 1)]):
        full = (1 << len(rects)) - 1
        want = max_clique_candidates(rects)
        assert CornerDepths(rects).max_clique(full) == CornerDepths(inst_of(rects).coords.T).max_clique(full) == want
        assert max_clique_sweep(rects) == want
    rng = random.Random(2025)
    for t in range(60):
        rects = snapped_boxes(rng, rng.randrange(1, 25), rng.choice((3, 4, 6, 9)))
        assert CornerDepths(rects).max_clique((1 << len(rects)) - 1) == max_clique_candidates(rects), t
        even = list(range(0, len(rects), 2))
        state = CornerDepths(inst_of(rects).coords.take(even, axis=1).T)
        assert state.max_clique((1 << len(even)) - 1) == max_clique_candidates(rects[::2]), t


def test_corner_state_follows_sweeps_through_deletions():
    for seed in range(6):
        rng = random.Random(seed)
        check_corner_state_follows_sweeps(list(generate_instance(60, seed=3300 + seed).rects), rng)
        check_corner_state_follows_sweeps(equal_squares(60, 3400 + seed), rng)
        check_corner_state_follows_sweeps(nested_clusters(60, 3, 3500 + seed), rng)
        check_corner_state_follows_sweeps(snapped_boxes(rng, 40, 5), rng)
    # a vertical bar's y-slice holds nearly all of the about k * k corners
    check_corner_state_follows_sweeps(crossing_bars(10), random.Random(0))


def test_corner_state_starts_from_the_live_boxes():
    # the pair on top is dead, so the live triple below is the clique
    rects = [mk(0, 4, 2, 6), mk(1, 4, 3, 6), mk(0, 0, 2, 2), mk(1, 0, 3, 2), mk(1, 1, 3, 3), mk(0, 5, 3, 7)]
    state = CornerDepths(rects, 0b11100)
    assert state.max_clique(0b11100) == CliqueWitness((2, 3, 4), Point(1.5, 1.5))
    assert CornerDepths(rects, 0b111).max_clique(0b111) == CliqueWitness((0, 1), Point(1.5, 5.0))


def test_corner_state_rejects_dead_and_empty():
    with pytest.raises(ValueError, match="empty"):
        CornerDepths([])
    with pytest.raises(ValueError, match="empty"):
        CornerDepths([mk(0, 0, 1, 1)], 0)
    # box 0 was never live, and box 2 is revived after its deletion
    state = CornerDepths([mk(0, 0, 1, 1), mk(2, 0, 3, 1), mk(4, 0, 5, 1)], 0b110)
    with pytest.raises(ValueError, match="rectangle 0 is not live"):
        state.max_clique(0b111)
    assert state.max_clique(0b010) == CliqueWitness((1,), Point(2.5, 0.5))
    with pytest.raises(ValueError, match="rectangle 2 is not live"):
        state.max_clique(0b110)
    with pytest.raises(ValueError, match="empty"):
        state.max_clique(0)
    assert state.max_clique(0b010) == CliqueWitness((1,), Point(2.5, 0.5))


@pytest.mark.parametrize("v", [-1, -3, 2, 7])
def test_corner_state_rejects_ids_outside_rects(v):
    # a negative int has infinitely many set bits, and a bit past the boxes
    # names no box: neither may pass as a live set
    rects = [mk(0, 0, 1, 1), mk(2, 0, 3, 1)]
    alive, match = (v, "negative") if v < 0 else (0b11 | 1 << v, rf"rectangle {v} is not live")
    with pytest.raises(ValueError, match=match):
        CornerDepths(rects, alive)
    state = CornerDepths(rects)
    depths = state._depth.copy()
    with pytest.raises(ValueError, match=match):
        state.max_clique(alive)
    assert np.array_equal(state._depth, depths)
    assert state.max_clique(0b11) == CliqueWitness((0,), Point(0.5, 0.5))


@pytest.mark.parametrize("vertices", [[0, 1, 2, 3, 4], [3], [0, 1, 2, 4, 5], [1, 2, 9], [0, 3, 4], []])
def test_corner_state_rejected_remove_changes_nothing(vertices):
    # each live set revives box 3, names a box past the list or is empty,
    # and some would delete live boxes too: the query is rejected before
    # any depth is lowered
    rects = [mk(0, 0, 2, 2), mk(1, 1, 3, 3), mk(1, 0, 4, 2), mk(5, 5, 6, 6), mk(0, 1, 3, 2)]
    state = CornerDepths(rects)
    before, depths = state.max_clique(0b10111), state._depth.copy()
    with pytest.raises(ValueError, match="is not live|empty"):
        state.max_clique(sum(1 << v for v in vertices))
    assert np.array_equal(state._depth, depths)
    assert state.max_clique(0b10111) == before
    assert state.max_clique(0b00100) == CliqueWitness((2,), Point(2.5, 1.0))


@pytest.mark.parametrize(
    "engine",
    [max_clique_sweep, CornerDepths, max_clique_candidates, exact_mcc, lambda rects: verify_independent(rects, [0, 1])],
    ids=["max_clique_sweep", "CornerDepths", "max_clique_candidates", "exact_mcc", "verify_independent"],
)
def test_engines_reject_non_rectangles(engine):
    with pytest.raises(TypeError, match="expected Rectangle, got tuple"):
        engine([mk(0, 0, 2, 2), (1.0, 1.0, 3.0, 3.0)])


@pytest.mark.parametrize(
    "reader",
    [filter_dominated, build_graph, max_clique_sweep, CornerDepths, common_intersection],
    ids=lambda f: f.__name__,
)
def test_box_array_readers_reject_bad_arrays(reader):
    boxes = generate_instance(5, seed=2).coords.T
    # a (4, k) array is the coordinate rows, not k boxes
    with pytest.raises(TypeError, match=r"\(k, 4\) float64 box array"):
        reader(boxes.T)
    with pytest.raises(TypeError, match=r"\(k, 4\) float64 box array"):
        reader(np.arange(20).reshape(5, 4))
    # NaN fails lo < hi, inf fails only the finiteness test, and the last box is flat
    for column, value in ((0, np.nan), (2, np.inf), (2, boxes[3, 0])):
        bad = boxes.copy()
        bad[3, column] = value
        with pytest.raises(DegenerateRectangleError, match="box 3"):
            reader(bad)


def test_corner_state_lists_each_snapped_corner_once():
    # on a small grid many pairs share a corner point, which the state lists
    # once, and the depths stay right through deletions
    for seed in range(8):
        rng = random.Random(4400 + seed)
        rects = snapped_boxes(rng, 30, 4)
        state = CornerDepths(rects)
        points = list(zip(state._x.tolist(), state._y.tolist()))
        assert len(set(points)) == len(points) < sum(
            a.lo.x >= b.lo.x and a.lo.x < b.hi.x and a.lo.y < b.hi.y <= a.hi.y for a in rects for b in rects
        )
        assert points == sorted(points, key=lambda p: (-p[1], p[0]))
        check_corner_state_follows_sweeps(rects, rng)


def _corners_by_definition(rects):
    """Every corner of a pair of ``rects``, once, in (-y, x) order, and the
    number of ``rects`` covering the cell just right of and below each."""
    corners = sorted(
        {(a.lo.x, b.hi.y) for a in rects for b in rects if b.lo.x <= a.lo.x < b.hi.x and a.lo.y < b.hi.y <= a.hi.y},
        key=lambda p: (-p[1], p[0]),
    )
    depths = [sum(r.lo.x <= x < r.hi.x and r.lo.y < y <= r.hi.y for r in rects) for x, y in corners]
    return corners, depths


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(1, 60), st.integers(0, 2**32))
def test_corner_state_lists_the_defined_corners(family, n, seed):
    # on every family, for all boxes live and for a random part of them
    rects = family_instance(family, n, seed).rects
    rng = random.Random(seed)
    for live in (range(len(rects)), sorted(rng.sample(range(len(rects)), rng.randint(1, len(rects))))):
        state = CornerDepths(rects, sum(1 << v for v in live))
        corners, depths = _corners_by_definition([rects[v] for v in live])
        assert list(zip(state._x.tolist(), state._y.tolist())) == corners
        assert state._depth.tolist() == depths


# ------------------------------------ simplicial search (graph.find_simplicial)


def test_simplicial_triangle(triangle):
    g = build_graph(triangle)
    v = find_simplicial(g)
    assert v == 0
    assert g.closed_neighborhood(v) == {0, 1, 2}


def test_simplicial_chain_avoids_middle(chain3):
    # the middle rectangle is not simplicial; the answer is vertex 0, which
    # is falsy, so callers test `is not None` (test_mis_chain takes it)
    assert find_simplicial(build_graph(chain3)) == 0


def test_simplicial_none_on_cycle(frame4):
    g = build_graph(frame4)
    assert find_simplicial(g) is None


def test_simplicial_prefers_low_degree():
    # isolated rectangle has degree 0 and is visited first
    rects = [mk(0, 0, 2, 2), mk(1, 0, 3, 2), mk(10, 10, 11, 11)]
    g = build_graph(rects)
    assert find_simplicial(g) == 2
    assert g.closed_neighborhood(2) == {2}


def _least_by_degree(g, vertices):
    # the vertex of least (degree, id), with degrees counted from the rows
    rows, alive = g.raw_adjacency(), g.alive_mask
    return min(vertices, key=lambda v: ((rows[v] & alive).bit_count(), v))


def test_simplicial_agrees_with_scan():
    for seed in range(60):
        instance = generate_instance(28, seed=1300 + seed)
        g = build_graph(instance.rects)
        scan = simplicial_scan(g)
        v = find_simplicial(g)
        if scan:
            assert v == _least_by_degree(g, scan), seed
        else:
            assert v is None, seed


def test_simplicial_on_residual_graphs():
    # deleting vertices must not confuse the search
    instance = generate_instance(40, seed=4242)
    g = build_graph(instance.rects)
    rng = random.Random(0)
    while g.n > 5:
        g = g.remove_vertices([rng.choice(g.vertices())])
        scan = simplicial_scan(g)
        v = find_simplicial(g)
        assert (v is not None) == bool(scan)
        if v is not None:
            assert v == _least_by_degree(g, scan)


def test_simplicial_access_budget():
    # the search must stay within a quadratic number of matrix accesses,
    # measured over full heuristic-style deletion loops
    for n in (20, 60, 150, 400):
        for t in range(3):
            instance = generate_instance(n, seed=10_000 + 17 * n + t)
            kept, _ = filter_dominated(instance)
            rects = [instance.rects[i] for i in kept]
            g = build_graph(rects)
            while g.n:
                stats = SimplicialSearchStats()
                v = find_simplicial(g, stats=stats)
                assert stats.entry_accesses <= quadratic_budget(g.n), (n, t, g.n)
                if v is not None:
                    g = g.remove_vertices(bit_indices(g.neighborhood_mask(v)))
                else:
                    g = g.remove_vertices([g.max_degree_vertex()])


def test_simplicial_memo_agrees_with_fresh_search(frame4):
    # views made by deletion remember earlier clique tests and rejections;
    # the answer must not depend on them
    for seed in range(8):
        check_remembered_search(list(generate_instance(60, seed=3100 + seed).rects), seed)
        check_remembered_search(equal_squares(60, 3200 + seed), seed)
        check_remembered_search(crossing_bars(12), seed)
        check_remembered_search(frame4, seed)
        # many degree classes, and clusters that overlap enough for
        # lower-degree neighbors to reject vertices
        check_remembered_search(nested_clusters(120, 8, 3300 + seed), seed)


# Work of every simplicial search in whole peels: searches made, the first
# 16 hex digits of a sha256 of repr() of the found vertices in order (None
# for a failed search), and the summed entry_accesses. The counts and
# digests are pinned from the search that sorted the live vertices by
# degree each round, and any search visiting in (degree, id) order finds
# the same vertices. The entry_accesses are pinned from the search that
# rejects a vertex with a live neighbor in an already walked degree class
# by reading its row alone, without a clique test, and after a failed test
# rejects every live vertex adjacent to the two non-adjacent members it
# found by reading one more row.
SEARCH_WORK = {
    ("uniform", mis_greedy): (65, "38e1ca2c98928fca", 40139),
    ("uniform", gcc_i): (39, "ea0cc0308d748658", 17966),
    ("squares", mis_greedy): (92, "dade6b38f0ce5d0b", 207995),
    ("squares", gcc_i): (33, "297e6e3ee066f442", 63579),
    ("bars", mis_greedy): (23, "9d5cdb84a64932c6", 791),
    ("bars", gcc_i): (12, "2c378f89932087a5", 928),
}


def _search_work_instance(family):
    if family == "uniform":
        return generate_instance(300, seed=5150)
    if family == "squares":
        return inst_of(equal_squares(200, 5151))
    if family == "clusters":
        return inst_of(nested_clusters(300, 8, 5152))
    return inst_of(crossing_bars(12))


@pytest.mark.parametrize("family, algo", list(SEARCH_WORK), ids=lambda p: getattr(p, "__name__", p))
def test_search_work_pinned(family, algo, monkeypatch):
    stats = SimplicialSearchStats()
    found = []

    def counted(g):
        v = find_simplicial(g, stats=stats)
        found.append(v)
        return v

    monkeypatch.setattr(heuristics, "find_simplicial", counted)
    algo(_search_work_instance(family))
    digest = hashlib.sha256(repr(found).encode()).hexdigest()[:16]
    assert (len(found), digest, stats.entry_accesses) == SEARCH_WORK[family, algo]


# ------------------------------------------------------- bounded sweeps


@pytest.mark.parametrize("algo", [gcc, gcc_i, mis_i], ids=lambda a: a.__name__)
@pytest.mark.parametrize("family", ["uniform", "squares", "bars", "clusters"])
def test_bounded_sweeps_match_full_sweeps_in_peels(family, algo, monkeypatch):
    bounds = []

    def checked(rects, *, bound):
        full = max_clique_sweep(rects)
        assert full.size <= bound
        assert max_clique_sweep(rects, bound=bound) == full
        bounds.append(bound)
        return full

    monkeypatch.setattr(heuristics, "max_clique_sweep", checked)
    algo(_search_work_instance(family))
    assert bounds


# Sweeps made, MaxAddSegmentTree.add calls and the round that builds the
# corner state (None if no round does) in whole peels. The sweep reads
# depths only after a batch with a top edge and stops at the first cell as
# deep as its bound. A sweep whose clique falls short of its bound walked
# all its events, and the next stuck round builds the state: every gcc
# round is stuck, so there it is built in round 1; the peels of gcc_i and
# mis_i build it in a later stuck round, or never.
SWEEP_WORK = {
    ("uniform", gcc): (1, 238, 1),
    ("uniform", gcc_i): (1, 192, 14),
    ("uniform", mis_i): (1, 192, 14),
    ("squares", gcc): (1, 400, 1),
    ("squares", gcc_i): (1, 382, 2),
    ("squares", mis_i): (1, 382, 2),
    ("bars", gcc): (1, 48, 1),
    ("bars", gcc_i): (1, 48, 1),
    ("bars", mis_i): (1, 48, 1),
    ("clusters", gcc): (1, 244, 1),
    ("clusters", gcc_i): (1, 50, None),
    ("clusters", mis_i): (1, 50, None),
}


@pytest.mark.parametrize("family, algo", list(SWEEP_WORK), ids=lambda p: getattr(p, "__name__", p))
def test_sweep_work_pinned(family, algo, monkeypatch):
    work = [0, 0]
    rounds = [0]
    switch = []

    def counted_sweep(rects, **kwargs):
        work[0] += 1
        return max_clique_sweep(rects, **kwargs)

    def counted_add(tree, lo, hi, delta):
        work[1] += 1
        add(tree, lo, hi, delta)

    def counted_removal(graph, vertices):
        rounds[0] += 1
        return remove_vertices(graph, vertices)

    def recorded_build(rects, alive):
        switch.append(rounds[0])
        return CornerDepths(rects, alive)

    add = MaxAddSegmentTree.add
    remove_vertices = IntersectionGraph.remove_vertices
    monkeypatch.setattr(heuristics, "max_clique_sweep", counted_sweep)
    monkeypatch.setattr(MaxAddSegmentTree, "add", counted_add)
    monkeypatch.setattr(IntersectionGraph, "remove_vertices", counted_removal)
    monkeypatch.setattr(heuristics, "CornerDepths", recorded_build)
    algo(_search_work_instance(family))
    assert len(switch) <= 1
    assert (*work, switch[0] if switch else None) == SWEEP_WORK[family, algo]


# Two disjoint cliques of two boxes each, boxes 0-1 and 2-3, where the
# second comes first in sweep order: by a higher common top, or by a lower
# common left at equal tops. Boxes 4 and 5 stand apart and hold the next y
# below that top and the next x right of that left, so the sweep's cell is
# narrower than the clique's common box.
FIRST_CLIQUE = {
    "by-top": [
        mk(0, 0, 2, 2), mk(1, 1, 3, 3), mk(10, 5, 12, 7), mk(11, 6, 13, 8),
        mk(20, 6.5, 21, 9), mk(11.5, 20, 14, 21),
    ],
    "by-left": [
        mk(10, 0, 12, 2), mk(11, 1, 13, 3), mk(0, 0, 2, 2), mk(1, 1, 3, 3),
        mk(30, 1.5, 31, 5), mk(1.5, 20, 4, 21),
    ],
}


@pytest.mark.parametrize("rects", list(FIRST_CLIQUE.values()), ids=list(FIRST_CLIQUE))
def test_first_clique_boxes_follow_sweep_order(rects):
    boxes = inst_of(rects).coords.T
    g = build_graph(boxes)
    tops = find_top_cliques(g)
    assert tops == [[0, 1], [2, 3]]
    ids = first_clique_boxes(boxes, g.alive_mask, tops)
    assert ids == [2, 3, 4, 5]
    full = max_clique_sweep(boxes)
    assert full.members == (2, 3)
    assert heuristics._narrowed_max_clique(boxes, g.alive_mask, tops) == full
    # without the two boxes apart the cell would reach further, and the
    # stab point would move
    assert max_clique_sweep(boxes[[2, 3]]).stab != full.stab


def _gcc_sweeps_and_builds(rects, monkeypatch):
    """gcc's size on ``rects``, its sweeps' (boxes, bound, clique size) and
    the live boxes of each corner state it builds."""
    sweeps, builds = [], []

    def counted_sweep(boxes, *, bound):
        witness = max_clique_sweep(boxes, bound=bound)
        sweeps.append((len(boxes), bound, witness.size))
        return witness

    def counted_build(boxes, alive):
        builds.append(alive.bit_count())
        return CornerDepths(boxes, alive)

    monkeypatch.setattr(heuristics, "max_clique_sweep", counted_sweep)
    monkeypatch.setattr(heuristics, "CornerDepths", counted_build)
    return gcc(inst_of(rects)).size, sweeps, builds


def test_dense_frame_gcc_builds_the_state_after_one_sweep(monkeypatch):
    # round one deletes two crossing groups of 60 bars; its clique of 120
    # falls short of the bound 180 (a bar's degree 179, plus one), so the
    # sweep walked all 480 events and round two takes its clique from a
    # state built over the 120 live bars
    size, sweeps, builds = _gcc_sweeps_and_builds(dense_frame(60, 0), monkeypatch)
    assert size == 2
    assert sweeps == [(240, 180, 120)]
    assert builds == [120]


def test_gcc_keeps_sweeping_while_sweeps_reach_their_bound(monkeypatch):
    # disjoint groups of 8, 7, 6, 5, 4 and 3 equal squares, each shifted
    # 0.1 along the diagonal from the last, so none is dominated; each
    # group is a clique, so every sweep stops at its bound, the size of the
    # largest group left, and no state is built. The largest group is the
    # only clique of maximum degree plus one boxes, and its own members
    # hold the next x and y past its common box's top-left corner, so each
    # sweep reads that group alone
    rects = [
        mk(10 * g + 0.1 * i, 0.1 * i, 10 * g + 0.1 * i + 1, 0.1 * i + 1)
        for g, m in enumerate([8, 7, 6, 5, 4, 3])
        for i in range(m)
    ]
    size, sweeps, builds = _gcc_sweeps_and_builds(rects, monkeypatch)
    assert size == 6
    assert sweeps == [(8, 8, 8), (7, 7, 7), (6, 6, 6), (5, 5, 5), (4, 4, 4), (3, 3, 3)]
    assert builds == []
