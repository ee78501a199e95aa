"""The four greedy heuristics for piercing covers and independent sets.

All four run one peeling loop. It discards dominated rectangles (a
rectangle containing another one is stabbed for free by any point interior
to a rectangle it contains, and can never join an independent set), builds
the intersection graph of the rest, and deletes vertices round by round. A
round deletes the closed neighborhood of a simplicial vertex, if the
heuristic looks for one and one exists, and otherwise takes the heuristic's
stuck step: ``gcc`` never looks and deletes a maximum clique every round,
``gcc_i`` falls back to one, ``mis_greedy`` deletes the maximum-degree
vertex and ``mis_i`` a whole maximum clique. A cover takes one point per
round, an independent set the simplicial vertices and no points: only a
cover stabs a simplicial neighborhood, at the center of its members' common
box. Each dominated rectangle in a cover gets the point of its domination
witness, the lowest-index kept rectangle inside it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .cliques import CliqueWitness, CornerDepths, first_clique_boxes, max_clique_sweep
from .geometry import Instance, Point, UnstabbableOverlapError
# the filter's array core, under the public name: perfbench/tracer.py times
# the filter by wrapping heuristics.filter_dominated
from .geometry import _split_dominated as filter_dominated
from .graph import bit_indices, build_graph, find_simplicial, find_top_cliques

__all__ = ["CoverResult", "IndependentSetResult", "gcc", "gcc_i", "mis_greedy", "mis_i"]


@dataclass(frozen=True)
class CoverResult:
    """A piercing cover: stab points plus a per-rectangle point assignment.

    ``assignment[i]`` is the index into ``points`` of the point stabbing
    rectangle ``i`` of the instance. ``theta_count`` counts points placed
    for simplicial neighborhoods, ``phi_count`` points placed for extracted
    maximum cliques; they sum to ``len(points)``, which is also
    ``iterations``, the number of peel rounds. ``elapsed`` is wall-clock
    seconds and excluded from equality.
    """

    points: tuple[Point, ...]
    assignment: tuple[int, ...]
    theta_count: int
    phi_count: int
    elapsed: float = field(compare=False, default=0.0)

    @property
    def size(self) -> int:
        return len(self.points)

    iterations = size


@dataclass(frozen=True)
class IndependentSetResult:
    """Instance indices of pairwise interior-disjoint rectangles."""

    members: tuple[int, ...]
    elapsed: float = field(compare=False, default=0.0)

    @property
    def size(self) -> int:
        return len(self.members)


def _peel(instance: Instance, simplicial: bool, cliques: bool):
    """Peel the kept rectangles' graph; one ``(vertex, members, stab)`` per round.

    A round deletes a simplicial vertex's closed neighborhood if
    ``simplicial`` is set and one exists, with ``stab`` None. Otherwise it
    takes the stuck step, with ``vertex`` None: a maximum clique and its
    stab point if ``cliques`` is set, else the single maximum-degree vertex
    and no point. Returns ``kept``, ``removed``, ``inside``, ``boxes`` and
    the rounds. ``kept`` and ``removed`` are the filter's id arrays, and
    ``inside[j]`` is the id of ``removed[j]``'s domination witness (see
    ``geometry._split_dominated``). ``boxes`` is the kept rectangles'
    ``(k, 4)`` box array, taken once from ``instance.coords``. Vertex ids
    index ``kept`` and the rows of ``boxes``; the graph, the sweeps and the
    state read ``boxes`` and its row slices, and no ``Rectangle``.

    A maximum clique comes from one sweep call, ``_swept_clique``, until a
    sweep's clique falls short of its ``bound``. Such a sweep never stopped
    early: it walked all its edge events, and a ``CornerDepths`` build
    walks the same events once. So the next stuck round builds the state
    over the live rectangles and takes every later clique from it; the
    state reads the graph's live bitset and takes the deletions since the
    last stuck round then. Both give the same witness, so the switch
    changes no round. A peel whose sweeps all reach their bound keeps
    sweeping.

    Every sweep's ``bound`` is the live graph's maximum degree plus one,
    or the size of the last stuck step's clique if that is less. Live sets
    only shrink, so both bound the live graph's maximum clique. Where
    ``find_top_cliques`` lists cliques of maximum degree plus one boxes,
    they are the maximum cliques, so the bound is their size, and the
    sweep reads only a few boxes; it finds the witness a sweep of every
    live box would, and reaches its bound, so the switch comes when it
    would. ``gcc_i`` and ``mis_i`` are stuck only when ``find_simplicial``
    has rejected every live vertex, so for them the search finds nothing
    at once.
    """
    kept, removed, inside = filter_dominated(instance)
    # take, not coords[:, kept]: that comes back Fortran-ordered, with strided rows
    boxes = instance.coords.take(kept, axis=1).T
    graph = build_graph(boxes)
    rounds = []
    last = graph.n
    corners = None
    walked = False
    while graph.n:
        vertex = find_simplicial(graph) if simplicial else None
        if vertex is not None:
            step = (vertex, bit_indices(graph.neighborhood_mask(vertex)), None)
        elif not cliques:
            step = (None, (graph.max_degree_vertex(),), None)
        else:
            if corners is None and walked:
                corners = CornerDepths(boxes, graph.alive_mask)
            if corners is not None:
                witness = corners.max_clique(graph.alive_mask)
            else:
                bound = min(last, len(graph.degree_classes()))
                witness = _swept_clique(boxes, graph, bound)
                walked = witness.size < bound
            step = (None, witness.members, witness.stab)
            last = witness.size
        rounds.append(step)
        graph = graph.remove_vertices(step[1])
    return kept, removed, inside, boxes, rounds


def _swept_clique(boxes, graph, bound: int) -> CliqueWitness:
    """The maximum clique of ``graph``'s live rows of ``boxes``, by one sweep.

    ``bound`` must be at least the live graph's maximum clique size. Where
    ``find_top_cliques`` lists cliques, ``max_clique_sweep`` reads only the
    rows ``first_clique_boxes`` picks, and otherwise every live row; either
    way the witness is the one a sweep of every live row gives. Its members
    are row ids of ``boxes``. The names are looked up in this module at call
    time, so a hook on ``heuristics.max_clique_sweep`` sees every sweep.
    ``bench.verify_random`` checks it against the oracle on every residual.
    """
    tops = find_top_cliques(graph)
    vs = first_clique_boxes(boxes, graph.alive_mask, tops) if tops else graph.vertices()
    witness = max_clique_sweep(boxes[vs], bound=bound)
    return CliqueWitness(tuple(vs[local] for local in witness.members), witness.stab)


def _stab_points(boxes, rounds) -> list[Point]:
    """Each cover round's point: a clique's stab, or its common box's center.

    A simplicial round's closed neighborhood is a clique, so by the Helly
    property its common box has an interior; its point is the center, as
    ``Rectangle.center`` computes it. The boxes of all those rounds are
    reduced in one numpy pass. A ``common_intersection`` call per round
    checks its box array first and took 9-16 us against 3-5 us for reading
    ``Rectangle`` objects (shared 2-core x86-64 VM); a ``squares`` ``gcc-i``
    solve has about 300 rounds, nearly all simplicial, and ran 14-27%
    slower that way.

    Raises:
        UnstabbableOverlapError: if a neighborhood's common box is empty.
    """
    hoods = [members for vertex, members, _ in rounds if vertex is not None]
    if not hoods:
        return [stab for _, _, stab in rounds]
    rows = boxes[[v for members in hoods for v in members]]
    starts = np.cumsum([0, *map(len, hoods[:-1])])
    lo = np.maximum.reduceat(rows[:, :2], starts)
    hi = np.minimum.reduceat(rows[:, 2:], starts)
    empty = ~(lo < hi).all(axis=1)
    if empty.any():
        raise UnstabbableOverlapError(f"clique neighborhood {hoods[int(empty.argmax())]} has no common interior")
    centers = iter((lo / 2.0 + hi / 2.0).tolist())
    return [stab if vertex is None else Point(*next(centers)) for vertex, _, stab in rounds]


def _cover(instance: Instance, simplicial: bool) -> CoverResult:
    t0 = time.perf_counter()
    kept, removed, inside, boxes, rounds = _peel(instance, simplicial, True)
    points = _stab_points(boxes, rounds)
    # each kept box's round by vertex id, scattered to instance ids; a
    # dominated box takes its witness's point
    by_vertex = [0] * len(kept)
    for pid, (_, members, _) in enumerate(rounds):
        for v in members:
            by_vertex[v] = pid
    assignment = np.empty(instance.n, dtype=np.intp)
    assignment[kept] = by_vertex
    assignment[removed] = assignment[inside]
    theta = sum(vertex is not None for vertex, _, _ in rounds)
    return CoverResult(
        points=tuple(points),
        assignment=tuple(assignment.tolist()),
        theta_count=theta,
        phi_count=len(rounds) - theta,
        elapsed=time.perf_counter() - t0,
    )


def _independent(instance: Instance, cliques: bool) -> IndependentSetResult:
    t0 = time.perf_counter()
    kept, _, _, _, rounds = _peel(instance, True, cliques)
    chosen = np.sort(kept[[vertex for vertex, _, _ in rounds if vertex is not None]])
    return IndependentSetResult(tuple(chosen.tolist()), time.perf_counter() - t0)


def gcc(instance: Instance) -> CoverResult:
    """Greedy clique cover: repeatedly stab and delete a maximum clique."""
    return _cover(instance, simplicial=False)


def gcc_i(instance: Instance) -> CoverResult:
    """Refined greedy cover: prefer stabbing a simplicial neighborhood.

    Each round either finds a simplicial vertex and stabs its closed
    neighborhood with the center of the common intersection, or falls back
    to extracting a maximum clique as in the plain greedy cover.
    """
    return _cover(instance, simplicial=True)


def mis_greedy(instance: Instance) -> IndependentSetResult:
    """Greedy independent set driven by simplicial vertices.

    A simplicial vertex is always a safe pick: it is taken and its closed
    neighborhood deleted. When none exists, the single maximum-degree vertex
    of the residual graph is deleted (ties to the lowest id), since losing a
    crowded rectangle is most likely to create a simplicial one.
    """
    return _independent(instance, cliques=False)


def mis_i(instance: Instance) -> IndependentSetResult:
    """Variant independent set: delete a whole maximum clique when stuck.

    Identical to the greedy independent set except that, when no simplicial
    vertex exists, all members of a maximum clique are deleted at once.
    """
    return _independent(instance, cliques=True)
