import hashlib
import random

import pytest

from rectcover import heuristics
from rectcover.cliques import (
    SimplicialSearchStats,
    find_simplicial,
    is_clique,
    max_clique_sweep,
)
from rectcover.geometry import filter_dominated, generate_instance
from rectcover.graph import build_graph
from rectcover.heuristics import gcc_i, mis_greedy
from rectcover.oracles import max_clique_candidates, simplicial_scan

from conftest import check_remembered_search, crossing_bars, equal_squares, inst_of, mk, snapped_boxes


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
    for seed in range(40):
        instance = generate_instance(35, seed=500 + seed)
        sweep = max_clique_sweep(list(instance.rects))
        oracle = max_clique_candidates(list(instance.rects))
        assert sweep.size == oracle.size, seed
        assert all(
            instance.rects[i].contains_point_open(sweep.stab) for i in sweep.members
        )


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


def _first_deepest_cell(rects):
    """The deepest elementary cell, scanning y-gaps from the top and, within
    a gap, x-cells from the left; a later cell wins only if strictly deeper."""
    xs = sorted({r.lo.x for r in rects} | {r.hi.x for r in rects})
    ys = sorted({r.lo.y for r in rects} | {r.hi.y for r in rects})
    best = (0, None)
    for cy in reversed(range(len(ys) - 1)):
        for cx in range(len(xs) - 1):
            depth = sum(
                r.lo.x <= xs[cx] and xs[cx + 1] <= r.hi.x
                and r.lo.y <= ys[cy] and ys[cy + 1] <= r.hi.y
                for r in rects
            )
            if depth > best[0]:
                best = (depth, (xs[cx], xs[cx + 1], ys[cy], ys[cy + 1]))
    return best


def test_max_clique_tie_order_matches_cell_scan():
    # integer corners tie often: many cells share the maximum depth, and the
    # sweep must pick the topmost y-gap, then the leftmost x-cell in it
    rng = random.Random(2024)
    for t in range(150):
        rects = snapped_boxes(rng, rng.randrange(1, 30), rng.choice((3, 4, 6, 9)))
        w = max_clique_sweep(rects)
        depth, (x0, x1, y0, y1) = _first_deepest_cell(rects)
        assert w.size == depth, t
        assert x0 < w.stab.x < x1 and y0 < w.stab.y < y1, t


# ------------------------------------------------------- simplicial search


def test_simplicial_triangle(triangle):
    g = build_graph(triangle)
    w = find_simplicial(g, triangle)
    assert w is not None
    assert sorted(w.neighborhood) == [0, 1, 2]
    assert all(r.contains_point_open(w.stab) for r in triangle)


def test_simplicial_chain_avoids_middle(chain3):
    g = build_graph(chain3)
    w = find_simplicial(g, chain3)
    assert w is not None
    assert w.vertex in (0, 2)  # the middle rectangle is not simplicial
    for v in w.neighborhood:
        assert chain3[v].contains_point_open(w.stab)


def test_simplicial_none_on_cycle(frame4):
    g = build_graph(frame4)
    assert find_simplicial(g, frame4) is None


def test_simplicial_prefers_low_degree():
    # isolated rectangle has degree 0 and is visited first
    rects = [mk(0, 0, 2, 2), mk(1, 0, 3, 2), mk(10, 10, 11, 11)]
    g = build_graph(rects)
    w = find_simplicial(g, rects)
    assert w is not None and w.vertex == 2
    assert w.neighborhood == (2,)


def _least_by_degree(g, vertices):
    # the vertex of least (degree, id), with degrees counted from the rows
    rows, alive = g.raw_adjacency(), g.alive_mask
    return min(vertices, key=lambda v: ((rows[v] & alive).bit_count(), v))


def test_simplicial_agrees_with_scan():
    for seed in range(60):
        instance = generate_instance(28, seed=1300 + seed)
        g = build_graph(instance.rects)
        rects = list(instance.rects)
        scan = simplicial_scan(g)
        w = find_simplicial(g, rects)
        if scan:
            assert w is not None and w.vertex == _least_by_degree(g, scan), seed
            assert set(w.neighborhood) == g.closed_neighborhood(w.vertex)
        else:
            assert w is None, seed


def test_simplicial_on_residual_graphs():
    # deleting vertices must not confuse the search
    instance = generate_instance(40, seed=4242)
    g = build_graph(instance.rects)
    rects = list(instance.rects)
    rng = random.Random(0)
    while g.n > 5:
        g = g.remove_vertices([rng.choice(g.vertices())])
        scan = simplicial_scan(g)
        w = find_simplicial(g, rects)
        assert (w is not None) == bool(scan)
        if w is not None:
            assert w.vertex == _least_by_degree(g, scan)


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
                w = find_simplicial(g, rects, stats=stats)
                assert stats.entry_accesses <= quadratic_budget(g.n), (n, t, g.n)
                if w is not None:
                    g = g.remove_vertices(w.neighborhood)
                else:
                    g = g.remove_vertices([g.max_degree_vertex()])


def test_simplicial_memo_agrees_with_fresh_search(frame4):
    # views made by deletion remember earlier clique tests; the answer must
    # not depend on them
    for seed in range(8):
        check_remembered_search(list(generate_instance(60, seed=3100 + seed).rects), seed)
        check_remembered_search(equal_squares(60, 3200 + seed), seed)
        check_remembered_search(crossing_bars(12), seed)
        check_remembered_search(frame4, seed)


# Work of every simplicial search in whole peels, pinned from the search that
# sorted the live vertices by degree each round: searches made, the first 16
# hex digits of a sha256 of repr() of the witness vertices in order (None
# for a failed search), and the summed entry_accesses. A search that visits
# the same vertices in the same order makes the same clique tests, so it
# reads the same rows.
SEARCH_WORK = {
    ("uniform", mis_greedy): (65, "38e1ca2c98928fca", 79946),
    ("uniform", gcc_i): (39, "ea0cc0308d748658", 35005),
    ("squares", mis_greedy): (92, "dade6b38f0ce5d0b", 453365),
    ("squares", gcc_i): (33, "297e6e3ee066f442", 136368),
    ("bars", mis_greedy): (23, "9d5cdb84a64932c6", 5684),
    ("bars", gcc_i): (12, "2c378f89932087a5", 5196),
}


def _search_work_instance(family):
    if family == "uniform":
        return generate_instance(300, seed=5150)
    if family == "squares":
        return inst_of(equal_squares(200, 5151))
    return inst_of(crossing_bars(12))


@pytest.mark.parametrize("family, algo", list(SEARCH_WORK), ids=lambda p: getattr(p, "__name__", p))
def test_search_work_pinned(family, algo, monkeypatch):
    stats = SimplicialSearchStats()
    witnesses = []

    def counted(g, rects):
        w = find_simplicial(g, rects, stats=stats)
        witnesses.append(None if w is None else w.vertex)
        return w

    monkeypatch.setattr(heuristics, "find_simplicial", counted)
    algo(_search_work_instance(family))
    digest = hashlib.sha256(repr(witnesses).encode()).hexdigest()[:16]
    assert (len(witnesses), digest, stats.entry_accesses) == SEARCH_WORK[family, algo]


# ------------------------------------------------------------------ cliques


def test_is_clique(triangle, chain3):
    g = build_graph(triangle)
    assert is_clique(g, [0, 1, 2])
    assert is_clique(g, [0])
    assert is_clique(g, [])
    h = build_graph(chain3)
    assert is_clique(h, [0, 1])
    assert not is_clique(h, [0, 2])  # the two endpoints
    assert not is_clique(h, [0, 1, 2])
    with pytest.raises(ValueError):
        is_clique(h.remove_vertices([1]), [0, 1])
