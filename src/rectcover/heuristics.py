"""The four greedy heuristics for piercing covers and independent sets.

Every heuristic first discards dominated rectangles (a rectangle containing
another one) and works on the rest; a dominated rectangle is stabbed for
free by any point interior to a rectangle it contains, and it can never be
part of an independent set. Cover results are reported over the full
instance: each dominated rectangle gets the point of its domination
witness, the lowest-index kept rectangle inside it.

The two cover heuristics differ in one step: the plain one repeatedly stabs
and deletes a maximum clique, while the refined one first looks for a
simplicial vertex and stabs its whole closed neighborhood, falling back to
the maximum clique only when no simplicial vertex exists. The independent
set heuristics both collect simplicial vertices; when none exists one
deletes the single maximum-degree vertex, the other deletes an entire
maximum clique.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .cliques import find_simplicial, max_clique_sweep
from .geometry import Instance, Point, domination_witnesses, filter_dominated
from .graph import build_graph

__all__ = ["CoverResult", "IndependentSetResult", "gcc", "gcc_i", "mis_greedy", "mis_i"]


@dataclass(frozen=True)
class CoverResult:
    """A piercing cover: stab points plus a per-rectangle point assignment.

    ``assignment[i]`` is the index into ``points`` of the point stabbing
    rectangle ``i`` of the instance. ``theta_count`` counts points placed
    for simplicial neighborhoods, ``phi_count`` points placed for extracted
    maximum cliques; they sum to ``len(points)``. ``elapsed`` is wall-clock
    seconds and excluded from equality.
    """

    points: tuple[Point, ...]
    assignment: tuple[int, ...]
    theta_count: int
    phi_count: int
    iterations: int
    elapsed: float = field(compare=False, default=0.0)

    @property
    def size(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class IndependentSetResult:
    """Instance indices of pairwise interior-disjoint rectangles."""

    members: tuple[int, ...]
    elapsed: float = field(compare=False, default=0.0)

    @property
    def size(self) -> int:
        return len(self.members)


def _prepare(instance: Instance):
    kept, removed = filter_dominated(instance)
    rects = [instance.rects[i] for i in kept]
    return kept, removed, rects


def _cover_result(instance, assign, points, theta, phi, iterations, t0) -> CoverResult:
    assignment = tuple(assign[i] for i in range(instance.n))
    return CoverResult(
        points=tuple(points),
        assignment=assignment,
        theta_count=theta,
        phi_count=phi,
        iterations=iterations,
        elapsed=time.perf_counter() - t0,
    )


def gcc(instance: Instance) -> CoverResult:
    """Greedy clique cover: repeatedly stab and delete a maximum clique."""
    t0 = time.perf_counter()
    kept, removed, rects = _prepare(instance)
    points: list[Point] = []
    assign: dict[int, int] = {}
    alive = list(range(len(rects)))
    iterations = 0
    while alive:
        witness = max_clique_sweep([rects[v] for v in alive])
        pid = len(points)
        points.append(witness.stab)
        hit = set(witness.members)
        for local in witness.members:
            assign[kept[alive[local]]] = pid
        alive = [v for idx, v in enumerate(alive) if idx not in hit]
        iterations += 1
    for i, w in zip(removed, domination_witnesses(instance.rects, kept, removed)):
        assign[i] = assign[w]
    return _cover_result(instance, assign, points, 0, len(points), iterations, t0)


def gcc_i(instance: Instance) -> CoverResult:
    """Refined greedy cover: prefer stabbing a simplicial neighborhood.

    Each round either finds a simplicial vertex and stabs its closed
    neighborhood with the center of the common intersection, or falls back
    to extracting a maximum clique as in the plain greedy cover.
    """
    t0 = time.perf_counter()
    kept, removed, rects = _prepare(instance)
    graph = build_graph(rects)
    points: list[Point] = []
    assign: dict[int, int] = {}
    theta = 0
    phi = 0
    iterations = 0
    while graph.n:
        witness = find_simplicial(graph, rects)
        if witness is not None:
            members = witness.neighborhood
            stab = witness.stab
            theta += 1
        else:
            vs = graph.vertices()
            cw = max_clique_sweep([rects[v] for v in vs])
            members = tuple(vs[local] for local in cw.members)
            stab = cw.stab
            phi += 1
        pid = len(points)
        points.append(stab)
        for v in members:
            assign[kept[v]] = pid
        graph = graph.remove_vertices(members)
        iterations += 1
    for i, w in zip(removed, domination_witnesses(instance.rects, kept, removed)):
        assign[i] = assign[w]
    return _cover_result(instance, assign, points, theta, phi, iterations, t0)


def mis_greedy(instance: Instance) -> IndependentSetResult:
    """Greedy independent set driven by simplicial vertices.

    A simplicial vertex is always a safe pick: it is taken and its closed
    neighborhood deleted. When none exists, the single maximum-degree vertex
    of the residual graph is deleted (ties to the lowest id), since losing a
    crowded rectangle is most likely to create a simplicial one.
    """
    t0 = time.perf_counter()
    kept, _, rects = _prepare(instance)
    graph = build_graph(rects)
    chosen: list[int] = []
    while graph.n:
        witness = find_simplicial(graph, rects)
        if witness is not None:
            chosen.append(kept[witness.vertex])
            graph = graph.remove_vertices(witness.neighborhood)
        else:
            graph = graph.remove_vertices((graph.max_degree_vertex(),))
    return IndependentSetResult(tuple(sorted(chosen)), time.perf_counter() - t0)


def mis_i(instance: Instance) -> IndependentSetResult:
    """Variant independent set: delete a whole maximum clique when stuck.

    Identical to the greedy independent set except that, when no simplicial
    vertex exists, all members of a maximum clique are deleted at once.
    """
    t0 = time.perf_counter()
    kept, _, rects = _prepare(instance)
    graph = build_graph(rects)
    chosen: list[int] = []
    while graph.n:
        witness = find_simplicial(graph, rects)
        if witness is not None:
            chosen.append(kept[witness.vertex])
            graph = graph.remove_vertices(witness.neighborhood)
        else:
            vs = graph.vertices()
            cw = max_clique_sweep([rects[v] for v in vs])
            graph = graph.remove_vertices(tuple(vs[local] for local in cw.members))
    return IndependentSetResult(tuple(sorted(chosen)), time.perf_counter() - t0)
