import random

import numpy as np
import pytest

from rectcover.geometry import generate_instance, interiors_intersect
from rectcover.graph import (
    IntersectionGraph,
    SimplicialSearchStats,
    _build_pairwise,
    bit_indices,
    build_graph,
    find_simplicial,
    find_top_cliques,
)
from rectcover.oracles import simplicial_scan

from conftest import crossing_bars, dense_frame, equal_squares, mk


def test_bit_indices():
    assert bit_indices(0) == []
    assert bit_indices(0b1) == [0]
    assert bit_indices(0b101001) == [0, 3, 5]


def test_build_empty():
    g = build_graph([])
    assert g.n == 0
    assert g.vertices() == []
    assert g.edge_count() == 0


def test_build_chain_degrees(chain3):
    g = build_graph(chain3)
    assert g.n == 3
    assert [g.degree(v) for v in g.vertices()] == [1, 2, 1]
    assert g.adjacent(0, 1) and g.adjacent(1, 2)
    assert not g.adjacent(0, 2)
    assert g.edge_count() == 2


def test_build_triangle(triangle):
    g = build_graph(triangle)
    assert g.edge_count() == 3
    assert all(g.degree(v) == 2 for v in g.vertices())
    assert g.closed_neighborhood(1) == {0, 1, 2}


def test_disjoint_rectangles_give_edgeless_graph():
    g = build_graph([mk(0, 0, 1, 1), mk(2, 0, 3, 1), mk(0, 2, 1, 3)])
    assert g.edge_count() == 0
    assert all(g.degree(v) == 0 for v in g.vertices())
    assert g.closed_neighborhood(0) == {0}


def test_touching_rectangles_are_not_adjacent():
    g = build_graph([mk(0, 0, 1, 1), mk(1, 0, 2, 1)])
    assert g.edge_count() == 0


def test_remove_vertices_is_a_view():
    g = build_graph([mk(0, 0, 2, 2), mk(1, 0, 3, 2), mk(0, 1, 3, 3)])
    h = g.remove_vertices([1])
    assert h.n == 2
    assert h.vertices() == [0, 2]
    assert h.adjacent(0, 2)
    assert h.degree(0) == 1
    # the original graph is untouched
    assert g.n == 3 and g.degree(0) == 2
    # removing nothing yields an equal view
    assert g.remove_vertices([]) == g


def test_remove_center_of_chain(chain3):
    g = build_graph(chain3)
    h = g.remove_vertices([1])
    assert h.vertices() == [0, 2]
    assert h.degree(0) == 0 and h.degree(2) == 0


def test_remove_all_vertices(chain3):
    g = build_graph(chain3)
    h = g.remove_vertices([0, 1, 2])
    assert h.n == 0 and h.vertices() == []


def test_remove_dead_vertex_rejected():
    g = build_graph([mk(0, 0, 1, 1), mk(0.5, 0, 1.5, 1)])
    h = g.remove_vertices([0])
    with pytest.raises(ValueError):
        h.remove_vertices([0])
    with pytest.raises(ValueError):
        h.degree(0)
    # every query rejects a dead or outside id, and none shifts by a negative count
    for v in (0, 2, -1):
        with pytest.raises(ValueError, match="is not a live vertex"):
            h.neighborhood_mask(v)


@pytest.mark.parametrize("v", [5, 2, -1])
def test_remove_vertex_outside_the_graph_rejected(v):
    # a negative id is out of the graph too, not a bad shift count
    g = build_graph([mk(0, 0, 1, 1), mk(0.5, 0, 1.5, 1)])
    with pytest.raises(ValueError, match=rf"^cannot remove vertices not in the graph: \[{v}\]$"):
        g.remove_vertices([v])


def test_numpy_ids_act_as_python_ints():
    # numpy ids once overflowed a shift past bit 63 and below it left numpy
    # ints in the masks
    g = build_graph(generate_instance(100, seed=1).rects)
    ids = np.flatnonzero(np.arange(g.n) % 3 == 0)
    assert ids.max() >= 64
    for v in ids:
        assert g.is_live(v) and g.degree(v) == g.degree(int(v))
        assert g.adjacent(v, ids[1]) == g.adjacent(int(v), int(ids[1]))
        assert g.closed_neighborhood(v) == g.closed_neighborhood(int(v))
        mask = g.neighborhood_mask(v)
        assert type(mask) is int and mask == g.neighborhood_mask(int(v))
    h = g.remove_vertices(ids)
    assert h == g.remove_vertices(ids.tolist())
    assert _state(h) == _state(g.remove_vertices(ids.tolist()))
    assert all(type(cls) is int for cls in h.degree_classes())
    assert type(h.alive_mask) is int
    for query in (g.is_live, g.degree, g.neighborhood_mask, lambda v: g.remove_vertices([v])):
        with pytest.raises(TypeError):
            query(1.0)


def test_max_degree_vertex_tie_breaks_low():
    # two rectangles of equal degree 1: the lower id wins
    g = build_graph([mk(0, 0, 2, 1), mk(1, 0, 3, 1), mk(10, 0, 12, 1), mk(11, 0, 13, 1)])
    assert g.max_degree_vertex() == 0


def _same_graph(g, h):
    def state(x):
        return x.raw_adjacency(), x.degree_classes(), x.alive_mask

    return state(g) == state(h)


def test_pairwise_matches_brute_force():
    # the instance and its box array, or a slice of it, give what its rectangles give
    odd = list(range(1, 60, 2))
    for seed in range(10):
        instance = generate_instance(60, seed=300 + seed)
        g = build_graph(instance.rects)
        assert _same_graph(g, build_graph(instance)) and _same_graph(g, build_graph(instance.coords.T))
        sliced = build_graph(instance.coords.take(odd, axis=1).T)
        assert _same_graph(sliced, build_graph([instance.rects[i] for i in odd]))
        for i in range(instance.n):
            for j in range(i + 1, instance.n):
                expected = interiors_intersect(instance.rects[i], instance.rects[j])
                assert g.adjacent(i, j) == expected, (seed, i, j)


def test_rows_past_the_first_row_block():
    # rows 2048.. fall in a second row block; rows 2047 and 2048 straddle
    # the boundary and share an edge, so they must not be adjacent
    rects = list(generate_instance(2100, seed=41).rects)
    rects[2047] = mk(0.2, 0.2, 0.4, 0.3)
    rects[2048] = mk(0.4, 0.2, 0.6, 0.3)
    g = build_graph(rects)
    assert not g.adjacent(2047, 2048)
    for i in (0, 1000, 2045, 2046, 2047, 2048, 2049, 2050, 2099):
        assert g.degree(i) > 0
        degree = 0
        for j in range(len(rects)):
            if j != i:
                expected = interiors_intersect(rects[i], rects[j])
                assert g.adjacent(i, j) == expected, (i, j)
                degree += expected
        assert g.degree(i) == degree, i
    # degrees kept on deletion across the block boundary
    h = g.remove_vertices([2047, 2048, 2049])
    rows = h.raw_adjacency()
    for i in (0, 2046, 2050, 2099):
        assert h.degree(i) == (rows[i] & h.alive_mask).bit_count(), i


def _scans(g):
    # degree classes, degree order, maximum-degree vertex and edge count of
    # a view, by plain scans over the raw adjacency rows
    rows, alive = g.raw_adjacency(), g.alive_mask
    live = bit_indices(alive)
    degrees = {v: (rows[v] & alive).bit_count() for v in live}
    classes = [0] * (max(degrees.values()) + 1 if live else 0)
    for v, d in degrees.items():
        classes[d] |= 1 << v
    top = max(live, key=lambda v: (degrees[v], -v)) if live else None
    return classes, top, sum(degrees.values()) // 2


def _state(g):
    # the same, as the view keeps them: every live vertex in exactly the
    # class of its degree, no dead vertex in any class, and no empty class
    # at the end
    return g.degree_classes(), g.max_degree_vertex(), g.edge_count()


def _far(rects):
    # the rectangles moved far to the right of everything else
    return [mk(r.lo.x + 100, r.lo.y, r.hi.x + 100, r.hi.y) for r in rects]


def _family(family, seed):
    # the rectangles, the last six of them a far-away K_{3,3} whose deletion
    # in one batch touches no live vertex
    if family == "uniform":
        rects = list(generate_instance(60, seed=700 + seed).rects)
    elif family == "squares":
        rects = equal_squares(60, 800 + seed)
    else:
        rects = crossing_bars(12)  # K_{12,12}
    return rects + _far(crossing_bars(3))


@pytest.mark.parametrize("family", ["uniform", "squares", "bars"])
def test_degree_state_matches_scans_under_deletion(family):
    for seed in range(12):
        rects = _family(family, seed)
        g = build_graph(rects)
        views = [g]
        rng = random.Random(seed)
        # first drop the maximum-degree vertex, so a dead vertex held the
        # highest degree, then the far component, then random batches down
        # to nothing
        h = g.remove_vertices([g.max_degree_vertex()])
        views.append(h)
        h = h.remove_vertices(range(len(rects) - 6, len(rects)))
        views.append(h)
        while h.n:
            live = h.vertices()
            h = h.remove_vertices(rng.sample(live, min(len(live), rng.randint(1, 6))))
            views.append(h)
        # checked after all deletions, so no view is changed by a later one
        for view in views:
            assert _state(view) == _scans(view), (family, seed, view.n)


def test_untouched_deletion_trims_empty_top_classes():
    # deleting a far K_{3,3} whole touches no live vertex but empties the
    # classes above the K_{2,2} left behind
    rects = crossing_bars(2) + _far(crossing_bars(3))
    g = build_graph(rects)
    assert g.degree_classes() == [0, 0, 0b1111, 0b1111110000]
    h = g.remove_vertices(range(4, 10))
    assert h.degree_classes() == [0, 0, 0b1111]
    assert h.max_degree_vertex() == 0
    assert h.remove_vertices(range(4)).degree_classes() == []


def test_remove_repeated_vertex_counts_it_once(triangle):
    g = build_graph(triangle)
    h = g.remove_vertices([0, 0])
    assert h.vertices() == [1, 2]
    assert h.degree(1) == 1 and h.degree(2) == 1
    assert h.edge_count() == 1


# The clique test and the memory of its failures are private to the graph
# module; the next three tests reach into them to pin what find_simplicial
# relies on.
@pytest.mark.parametrize(
    "layout, expected",
    [
        # (rows read, the neighbor whose row missed, the members it missed)
        ("triangle", [(3, 0, 0), (3, 0, 0), (3, 0, 0)]),
        # the middle row misses the far end after reading one neighbor's row
        ("chain3", [(2, 0, 0), (2, 0, 0b100), (2, 0, 0)]),
        # top and bottom read left's row, which misses right; left and
        # right read top's row, which misses bottom
        ("frame4", [(2, 2, 0b1000), (2, 2, 0b1000), (2, 0, 0b10), (2, 0, 0b10)]),
    ],
)
def test_closed_clique_test_answers_and_rows_read(layout, expected, request):
    g = build_graph(request.getfixturevalue(layout))
    failed = 0
    for v, answer in enumerate(expected):
        assert g._closed_clique_test(v) == answer, v
        if answer[2]:
            failed |= 1 << v
        # only failures are remembered
        assert g._non_cliques == failed, v
    # no answer is returned from memory: a second test reads the rows again
    assert [g._closed_clique_test(v) for v in g.vertices()] == expected
    assert g._non_cliques == failed


def test_failed_clique_test_kept_until_a_neighbor_goes(frame4):
    g = build_graph(frame4)
    assert g._closed_clique_test(0)[2]
    assert g._closed_clique_test(2)[2]
    # bottom (1) touches left (2) and right (3) but not top (0)
    h = g.remove_vertices([1])
    assert h._non_cliques == 0b0001
    # left was top's neighbor: top forgets, and is now simplicial
    k = h.remove_vertices([2])
    assert k._non_cliques == 0
    assert k._closed_clique_test(0) == (2, 0, 0)
    assert k._non_cliques == 0


def _graph_of_edges(n, edges):
    # a view built straight from an edge list, degree classes included
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    classes = [0] * (max(r.bit_count() for r in rows) + 1)
    for v, row in enumerate(rows):
        classes[row.bit_count()] |= 1 << v
    return IntersectionGraph(rows, classes, (1 << n) - 1)


def test_lower_degree_neighbor_rejects_without_a_clique_test(monkeypatch):
    # the 4-cycle 0-1-2-3 with 4 joined to 0, 1 and 2, and apart from it the
    # clique 5-8. Only 3 has degree 2; its test fails on its non-adjacent
    # neighbors 0 and 2, and reading 2's row rejects 1 and 4, which are
    # adjacent to both. So in the degree-3 class 0 and 2 are rejected by
    # one row read each, and 5 is the first simplicial vertex
    hood = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2)]
    clique = [(a, b) for a in range(5, 9) for b in range(a + 1, 9)]
    g = _graph_of_edges(9, hood + clique)
    tested, reads = [], []
    test = IntersectionGraph._closed_clique_test

    def spy(self, v):
        tested.append(v)
        answer = test(self, v)
        reads.append(answer[0])
        return answer

    monkeypatch.setattr(IntersectionGraph, "_closed_clique_test", spy)
    stats = SimplicialSearchStats()
    v = find_simplicial(g, stats=stats)
    assert tested == [3, 5]
    assert g._non_cliques == 0b11111
    assert stats.entry_accesses == g.n * (sum(reads) + 3)
    scan = simplicial_scan(g)
    assert scan == {5, 6, 7, 8}
    assert v == min(scan, key=lambda u: (g.degree(u), u))


# ------------------------------------------------ cliques of the top class


def test_top_cliques_are_listed_once_by_lowest_id():
    # two disjoint pairs with the second pair's boxes first by id, and a
    # path 4-5-6 whose middle box has the top degree but no clique for its
    # neighborhood: the degree-1 classes of the pairs are not the top class
    rects = [mk(10, 0, 12, 2), mk(0, 0, 2, 2), mk(11, 1, 13, 3), mk(1, 1, 3, 3)]
    assert find_top_cliques(build_graph(rects)) == [[0, 2], [1, 3]]
    path = [mk(20, 0, 23, 1), mk(22, 0, 25, 1), mk(24, 0, 27, 1)]
    g = build_graph(rects + path)
    assert find_top_cliques(g) == []
    assert find_top_cliques(g.remove_vertices([5])) == [[0, 2], [1, 3]]


def test_top_cliques_of_an_edgeless_live_graph_are_its_vertices(chain3):
    apart = [mk(3 * i, 0, 3 * i + 2, 1) for i in range(5)]
    assert find_top_cliques(build_graph(apart)) == [[v] for v in range(5)]
    assert find_top_cliques(build_graph(apart).remove_vertices([0, 3])) == [[1], [2], [4]]
    # the middle of the chain gone, its two ends are cliques of one
    assert find_top_cliques(build_graph(chain3).remove_vertices([1])) == [[0], [2]]
    assert find_top_cliques(build_graph([])) == []


@pytest.mark.parametrize("layout", ["frame4", "dense_frame"])
def test_top_cliques_none_after_a_handful_of_tests(layout, monkeypatch, request):
    # every box has the top degree and none has a clique for its
    # neighborhood. The first failed test finds two disjoint sides that
    # every box of the other two sides crosses, so it rejects those boxes
    # without a test; one more test rejects the rest
    rects = request.getfixturevalue("frame4") if layout == "frame4" else dense_frame(100, 1)
    g = build_graph(rects)
    assert g.degree_classes()[-1] == g.alive_mask
    tested = []
    test = IntersectionGraph._closed_clique_test

    def spy(self, v):
        tested.append(v)
        return test(self, v)

    monkeypatch.setattr(IntersectionGraph, "_closed_clique_test", spy)
    assert find_top_cliques(g) == []
    assert len(tested) <= 3, tested
    # every rejection is remembered, so asking again tests nothing
    assert g._non_cliques == g.alive_mask
    assert find_top_cliques(g) == [] and len(tested) <= 3


def test_top_cliques_reject_a_vertex_with_a_lower_degree_neighbor(monkeypatch):
    # the triangle 0-1-2 with a leaf 3 on 2, and apart from it the triangle
    # 4-5-6: box 2 has the top degree 3 but its leaf has degree 1, so it is
    # rejected by one AND; the top class is {2} alone and there is no
    # clique of four
    tested = []
    test = IntersectionGraph._closed_clique_test

    def spy(self, v):
        tested.append(v)
        return test(self, v)

    monkeypatch.setattr(IntersectionGraph, "_closed_clique_test", spy)
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (4, 5), (4, 6), (5, 6)]
    g = _graph_of_edges(7, edges)
    assert find_top_cliques(g) == []
    assert tested == [] and g._non_cliques == 0b100
    # with the leaf gone, the two triangles are the maximum cliques
    assert find_top_cliques(g.remove_vertices([3])) == [[0, 1, 2], [4, 5, 6]]
    assert tested == [0, 4]


def test_degree_sum_is_twice_edges():
    instance = generate_instance(120, seed=8)
    g = build_graph(instance.rects)
    assert sum(g.degree(v) for v in g.vertices()) == 2 * g.edge_count()


def test_build_rejects_non_rectangles():
    with pytest.raises(TypeError):
        build_graph([(0, 0, 1, 1)])


def test_build_restores_the_ufunc_buffer(caller_bufsize):
    build_graph(generate_instance(300, seed=4).rects)
    assert np.getbufsize() == caller_bufsize
    # bounds of different lengths fail to broadcast inside the scoped block
    with pytest.raises(ValueError):
        _build_pairwise((np.zeros(3), np.zeros(2), np.ones(3), np.ones(3)))
    assert np.getbufsize() == caller_bufsize
