import random

import pytest

from rectcover.geometry import generate_instance, interiors_intersect
from rectcover.graph import IntersectionGraph, bit_indices, build_graph

from conftest import crossing_bars, equal_squares, mk


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
    assert sorted(g.edges()) == [(0, 1), (1, 2)]


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


def test_max_degree_vertex_tie_breaks_low():
    # two rectangles of equal degree 1: the lower id wins
    g = build_graph([mk(0, 0, 2, 1), mk(1, 0, 3, 1), mk(10, 0, 12, 1), mk(11, 0, 13, 1)])
    assert g.max_degree_vertex() == 0


def test_pairwise_matches_brute_force():
    for seed in range(10):
        instance = generate_instance(60, seed=300 + seed)
        g = build_graph(instance.rects)
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
    by_degree = sorted(live, key=lambda v: (degrees[v], v))
    top = max(live, key=lambda v: (degrees[v], -v)) if live else None
    return classes, by_degree, top, sum(degrees.values()) // 2


def _state(g):
    # the same, as the view keeps them: every live vertex in exactly the
    # class of its degree, no dead vertex in any class, and no empty class
    # at the end
    return g.degree_classes(), g.vertices_by_degree(), g.max_degree_vertex(), g.edge_count()


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


def test_degree_sum_is_twice_edges():
    instance = generate_instance(120, seed=8)
    g = build_graph(instance.rects)
    assert sum(g.degree(v) for v in g.vertices()) == 2 * g.edge_count()


def test_build_rejects_non_rectangles():
    with pytest.raises(TypeError):
        build_graph([(0, 0, 1, 1)])
