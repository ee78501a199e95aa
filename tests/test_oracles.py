"""Exact solvers checked against naive exhaustive search.

The exhaustive implementations here are deliberately independent of the
library code: subsets for independent sets, point combinations for covers.
They only scale to tiny instances, which is all the cross-check needs.
"""

import itertools
import math

import pytest

from rectcover.geometry import (
    Point,
    UnstabbableOverlapError,
    filter_dominated,
    generate_instance,
    interiors_intersect,
)
from rectcover.graph import build_graph
from rectcover.heuristics import gcc, mis_greedy
from rectcover.oracles import (
    OracleSizeError,
    exact_mcc,
    exact_mis,
    max_clique_candidates,
    simplicial_scan,
    verify_cover,
    verify_independent,
)

from conftest import inst_of, mk


def brute_mis(rects):
    """Largest independent subset by trying all subsets."""
    n = len(rects)
    best = 0
    for mask in range(1 << n):
        members = [i for i in range(n) if (mask >> i) & 1]
        if len(members) <= best:
            continue
        if all(
            not interiors_intersect(rects[a], rects[b])
            for a, b in itertools.combinations(members, 2)
        ):
            best = len(members)
    return best


def candidate_points(rects):
    """Midpoints of all cells of the coordinate grid."""
    xs = sorted({c for r in rects for c in (r.lo.x, r.hi.x)})
    ys = sorted({c for r in rects for c in (r.lo.y, r.hi.y)})
    return [
        Point((a + b) / 2, (c + d) / 2)
        for a, b in zip(xs, xs[1:])
        for c, d in zip(ys, ys[1:])
    ]


def brute_mcc(rects):
    """Smallest piercing set by dynamic programming over rectangle subsets.

    Any piercing point can slide to the midpoint of its grid cell without
    changing which rectangles it stabs, so only cell midpoints matter. Each
    midpoint yields a coverage mask; f[S] is the fewest masks covering S.
    """
    if not rects:
        return 0
    masks = {
        sum(1 << i for i, r in enumerate(rects) if r.contains_point_open(p))
        for p in candidate_points(rects)
    }
    masks.discard(0)
    full = (1 << len(rects)) - 1
    inf = float("inf")
    f = [inf] * (full + 1)
    f[0] = 0
    for state in range(1, full + 1):
        lowest = state & -state  # cover the lowest-index uncovered rectangle
        best = inf
        for m in masks:
            if m & lowest:
                prev = f[state & ~m]
                if prev + 1 < best:
                    best = prev + 1
        f[state] = best
    assert f[full] < inf, "unpierceable input"
    return f[full]


# ------------------------------------------------------------------ clique


def test_candidates_triangle(triangle):
    w = max_clique_candidates(triangle)
    assert w.size == 3
    assert all(r.contains_point_open(w.stab) for r in triangle)


def test_candidates_single_rectangle():
    w = max_clique_candidates([mk(0, 0, 1, 1)])
    assert w.size == 1 and w.members == (0,)


def test_candidates_empty():
    with pytest.raises(ValueError):
        max_clique_candidates([])


# --------------------------------------------------------------------- MIS


def test_exact_mis_examples(triangle, chain3):
    g = build_graph(triangle)  # complete graph
    size, members = exact_mis(g)
    assert size == 1 and len(members) == 1
    h = build_graph(chain3)
    size, members = exact_mis(h)
    assert size == 2 and sorted(members) == [0, 2]


def test_exact_mis_edgeless():
    rects = [mk(3 * i, 0, 3 * i + 1, 1) for i in range(7)]
    size, members = exact_mis(build_graph(rects))
    assert size == 7 and sorted(members) == list(range(7))


def test_exact_mis_matches_brute_force():
    for seed in range(25):
        instance = generate_instance(10, seed=3000 + seed)
        g = build_graph(instance.rects)
        size, members = exact_mis(g)
        assert size == brute_mis(list(instance.rects)), seed
        assert verify_independent(instance.rects, members)
        assert len(members) == size


def test_exact_mis_cap():
    instance = generate_instance(30, seed=1)
    g = build_graph(instance.rects)
    with pytest.raises(OracleSizeError):
        exact_mis(g, cap=25)
    # explicit larger cap allows it
    size, _ = exact_mis(g, cap=30)
    assert size >= 1


def test_exact_mis_on_residual_graph():
    instance = generate_instance(12, seed=55)
    g = build_graph(instance.rects)
    h = g.remove_vertices(g.vertices()[:4])
    size, members = exact_mis(h)
    assert all(v in h.vertices() for v in members)
    assert size == brute_mis([instance.rects[i] for i in h.vertices()])


# --------------------------------------------------------------------- MCC


def test_exact_mcc_examples(triangle, chain3, frame4):
    assert exact_mcc(triangle)[0] == 1  # all-overlapping needs one point
    assert exact_mcc(chain3)[0] == 2
    assert exact_mcc(frame4)[0] == 2
    assert exact_mcc([])[0] == 0


def test_exact_mcc_disjoint():
    rects = [mk(3 * i, 0, 3 * i + 1, 1) for i in range(5)]
    size, points = exact_mcc(rects)
    assert size == 5
    assert verify_cover(rects, points)


def test_one_ulp_cells_get_points_inside():
    # the x-cell [0.5, u] is one ulp wide, so its midpoint rounds onto 0.5,
    # where a box starts or ends; no lower coordinate sits one ulp below an
    # upper one, so both instances are inside the float contract
    u = math.nextafter(0.5, 1.0)
    rects = [mk(0.2, 0, 0.5, 1), mk(0.5, 0, 0.9, 1), mk(u, 2, 0.95, 3)]
    build_graph(rects)
    size, points = exact_mcc(rects)
    assert size == 3
    assert verify_cover(rects, points)

    rects = [mk(0.2, 0, 0.7, 1), mk(0.5, 0, 0.9, 1), mk(u, 2, 0.8, 3)]
    build_graph(rects)
    w = max_clique_candidates(rects)
    assert w.members == (0, 1)
    assert all(rects[i].contains_point_open(w.stab) for i in w.members)


def test_oracles_reject_unstabbable_overlap():
    # a lower coordinate one ulp below an upper one: the overlap of the two
    # boxes has no double inside it, so no valid point exists
    u = math.nextafter(0.5, 1.0)
    rects = [mk(0.2, 0, u, 1), mk(0.5, 0, 0.9, 1)]
    with pytest.raises(UnstabbableOverlapError):
        build_graph(rects)
    with pytest.raises(UnstabbableOverlapError):
        exact_mcc(rects)
    with pytest.raises(UnstabbableOverlapError):
        max_clique_candidates(rects)


def test_exact_mcc_matches_brute_force():
    for seed in range(20):
        instance = generate_instance(8, seed=4000 + seed)
        size, points = exact_mcc(list(instance.rects))
        assert size == brute_mcc(list(instance.rects)), seed
        assert verify_cover(instance.rects, points)
        assert len(points) == size


def test_exact_mcc_cap():
    instance = generate_instance(19, seed=2)
    with pytest.raises(OracleSizeError):
        exact_mcc(list(instance.rects), cap=18)


def test_weak_duality():
    # any independent set needs one point per member
    for seed in range(15):
        instance = generate_instance(12, seed=5000 + seed)
        g = build_graph(instance.rects)
        mis_size, _ = exact_mis(g)
        mcc_size, _ = exact_mcc(list(instance.rects))
        assert mis_size <= mcc_size, seed


def test_exact_values_frozen():
    # pinned outputs on fixed instances, derived once from the exhaustive
    # cross-checks above
    from rectcover.bench import trial_seed

    expected = {
        0: (4, 6, 6),
        1: (6, 4, 4),
        2: (5, 4, 4),
        3: (3, 6, 6),
        4: (3, 7, 7),
        5: (4, 4, 4),
    }
    for t, (clique, mis, mcc) in expected.items():
        seed = trial_seed(42, 10, t)
        instance = generate_instance(10, seed=seed)
        g = build_graph(instance.rects)
        assert max_clique_candidates(list(instance.rects)).size == clique
        assert exact_mis(g)[0] == mis
        assert exact_mcc(list(instance.rects))[0] == mcc


def test_oracles_unaffected_by_domination():
    # filtering dominated rectangles changes neither optimum
    for seed in range(10):
        instance = generate_instance(14, seed=6000 + seed)
        kept, removed = filter_dominated(instance)
        if not removed:
            continue
        survivors = [instance.rects[i] for i in kept]
        full_mis = exact_mis(build_graph(instance.rects))[0]
        full_mcc = exact_mcc(list(instance.rects))[0]
        assert exact_mis(build_graph(survivors))[0] == full_mis
        assert exact_mcc(survivors)[0] == full_mcc


# ------------------------------------------------------------------- misc


def test_simplicial_scan_examples(triangle, chain3, frame4):
    assert simplicial_scan(build_graph(triangle)) == {0, 1, 2}
    assert simplicial_scan(build_graph(chain3)) == {0, 2}
    assert simplicial_scan(build_graph(frame4)) == set()


def test_verify_cover_examples():
    assert verify_cover([], [])
    r = mk(0, 0, 2, 2)
    assert verify_cover([r], [r.center()])
    assert not verify_cover([r], [Point(0.0, 0.0)])  # corner is not interior


def test_verify_cover_with_assignment():
    rects = [mk(0, 0, 2, 2), mk(1, 1, 3, 3)]
    pts = [Point(1.5, 1.5)]
    assert verify_cover(rects, pts)
    assert verify_cover(rects, pts, assignment=[0, 0])
    assert not verify_cover(rects, pts, assignment=[0])  # wrong length
    assert not verify_cover(rects, pts, assignment=[0, 1])  # bad index
    assert not verify_cover(rects, [Point(0.5, 0.5)])  # misses rect 1


def test_verify_cover_reads_an_instance_as_its_rectangles():
    rects = [mk(0, 0, 2, 2), mk(1, 1, 3, 3), mk(2, 0, 3, 1)]
    instance = inst_of(rects)
    pts = [Point(1.5, 1.5), Point(2.5, 0.5), Point(2.0, 0.5)]
    for boxes in (rects, instance):
        assert verify_cover(boxes, pts)
        assert verify_cover(boxes, pts, assignment=(0, 0, 1))
        assert not verify_cover(boxes, pts[:1])  # misses box 2
        assert not verify_cover(boxes, pts, assignment=(0, 0, 2))  # on box 2's edge
        assert not verify_cover(boxes, pts, assignment=(0, 0))  # wrong length
        assert not verify_cover(boxes, pts, assignment=(0, 0, 1, 1))
        assert not verify_cover(boxes, pts, assignment=(0, -1, 1))  # -1 must not wrap
        assert not verify_cover(boxes, pts, assignment=(0, 0, 3))
        assert not verify_cover(boxes, [], assignment=(0, 0, 0))
        assert not verify_cover(boxes, [])
        with pytest.raises(TypeError, match="integer"):
            verify_cover(boxes, pts, assignment=(0.0, 0.0, 1.0))
    empty = inst_of([])
    assert verify_cover(empty, []) and verify_cover(empty, [], assignment=())


def test_verify_cover_rows_across_blocks():
    # more boxes than one block of rows; the one box left unstabbed sits in
    # the second block
    row = [mk(2 * i, 0, 2 * i + 1, 1) for i in range(1100)]
    pts = [Point(2 * i + 0.5, 0.5) for i in range(1100)]
    for boxes in (row, inst_of(row)):
        assert verify_cover(boxes, pts)
        assert not verify_cover(boxes, pts[:1050] + pts[1051:])
        assert verify_cover(boxes, pts, assignment=range(1100))


def test_verify_independent_examples(chain3):
    assert verify_independent(chain3, [0, 2])
    assert not verify_independent(chain3, [0, 1])
    assert verify_independent(chain3, [])
    # nesting breaks independence, edge contact does not
    assert not verify_independent([mk(0, 0, 4, 4), mk(1, 1, 2, 2)], [0, 1])
    assert verify_independent([mk(0, 0, 1, 1), mk(1, 0, 2, 1)], [0, 1])


def test_verify_independent_rejects_out_of_range_members():
    disjoint = [mk(0, 0, 1, 1), mk(2, 0, 3, 1)]
    for boxes in (disjoint, inst_of(disjoint)):
        assert verify_independent(boxes, [0, 1])
        assert not verify_independent(boxes, [-1, 0])  # -1 must not wrap to box 1
        assert not verify_independent(boxes, [0, 7])
        assert not verify_independent(boxes, [0, 0])
        assert verify_independent(boxes, [])


def test_verifiers_take_integer_indices_only():
    # a float member must not truncate to a box id, nor a bool pass as 0 or
    # 1; both verifiers check indices the same way, and an empty list is valid
    instance = generate_instance(30, seed=1)
    members = mis_greedy(instance).members
    assert verify_independent(instance, members) and verify_independent(instance, [])
    for bad in ([v + 0.5 for v in members], [True], [False, True], [[0, 1]]):
        with pytest.raises(TypeError, match="integer indices"):
            verify_independent(instance, bad)
    cover = gcc(instance)
    assert verify_cover(instance, cover.points, cover.assignment)
    for bad in ([k + 0.5 for k in cover.assignment], [k == 0 for k in cover.assignment]):
        with pytest.raises(TypeError, match="integer indices"):
            verify_cover(instance, cover.points, bad)


def test_verify_independent_rejects_repeated_members():
    # a repeated member would count twice in the set's size
    disjoint = [mk(0, 0, 1, 1), mk(2, 0, 3, 1)]
    assert not verify_independent(disjoint, [0, 0])
    assert verify_independent(disjoint, iter([1, 0]))
    assert not verify_independent(disjoint, iter([1, 1]))


def test_verify_independent_pairs_across_row_blocks():
    # more members than one block of rows: a pair split across two blocks
    # and a pair inside the second block are both caught
    row = [mk(2 * i, 0, 2 * i + 1, 1) for i in range(1100)]
    assert verify_independent(row, range(1100))
    assert not verify_independent(row, [*range(1100), 0])
    assert not verify_independent(row + [mk(2 * 1050, 0.5, 2 * 1050 + 1, 2)], range(1101))
