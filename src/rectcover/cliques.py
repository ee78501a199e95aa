"""Core engine: sweep-line maximum clique and the simplicial-vertex search.

The sweep exploits the Helly property of axis-parallel boxes: a set of
rectangles is a clique of the intersection graph exactly when all of them
share a common interior point, so a maximum clique is a deepest point of the
overlap arrangement and every clique can be stabbed by one point. The
simplicial search needs only the graph; a cover that takes a simplicial
neighborhood places its stab point itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import Point, UnstabbableOverlapError
from .graph import IntersectionGraph
from .segtree import MaxAddSegmentTree

__all__ = [
    "CliqueWitness",
    "SimplicialSearchStats",
    "max_clique_sweep",
    "find_simplicial",
]


@dataclass(frozen=True)
class CliqueWitness:
    """A clique given by member indices and a point interior to all members."""

    members: tuple[int, ...]
    stab: Point

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class SimplicialSearchStats:
    """Diagnostics from simplicial searches.

    ``entry_accesses`` counts adjacency-matrix entry touches: one live row
    for each adjacency row read by each clique test actually made.
    """

    entry_accesses: int = 0


def max_clique_sweep(rects, *, bound: int | None = None) -> CliqueWitness:
    """Maximum clique of a rectangle list by top-to-bottom line sweep.

    The x-axis is discretized into elementary intervals between the sorted
    distinct x-coordinates. Sweeping y downward, each rectangle's top edge
    adds +1 and its bottom edge -1 over its open x-span in a depth array;
    after each batch of equal-y events that holds a top edge, the array's
    maximum gives the deepest cell for the y-gap below. A batch of bottom
    edges alone only lowers depths, so it is not read. The reported stab
    point is the midpoint of the winning elementary cell, so it is interior
    to every member; where the cell is one ulp wide it is a cell corner no
    member starts or ends at. Ties keep the first maximum in sweep order
    (decreasing y, then increasing x).

    ``bound`` must be at least the maximum clique size; it defaults to the
    number of rectangles. The sweep stops at the first cell as deep as
    ``bound``. No cell is deeper, so that cell is the first maximum in
    sweep order and the witness is the one the full sweep returns. A
    ``bound`` below the maximum clique size breaks that contract: the
    result is then the first cell at least ``bound`` deep, a clique but not
    necessarily a maximum one.

    Raises:
        ValueError: if ``rects`` is empty or ``bound`` is below 1.
        UnstabbableOverlapError: if the winning cell is one ulp wide and both
            of its corners lie on a member's boundary.
    """
    rects = list(rects)
    if not rects:
        raise ValueError("max_clique_sweep needs at least one rectangle")
    if bound is None:
        bound = len(rects)
    elif bound < 1:
        raise ValueError(f"bound must be at least 1, got {bound}")

    xs = sorted({r.lo.x for r in rects} | {r.hi.x for r in rects})
    x_id = {x: i for i, x in enumerate(xs)}
    tree = MaxAddSegmentTree(len(xs) - 1)
    add = tree.add

    # an event is (-y, kind, first cell, end cell) and adds -kind to its
    # cells: tops (+1) sort first at equal y
    TOP, BOTTOM = -1, 1
    events = []
    for r in rects:
        a = x_id[r.lo.x]
        b = x_id[r.hi.x]
        events.append((-r.hi.y, TOP, a, b))
        events.append((-r.lo.y, BOTTOM, a, b))
    events.sort()

    best_depth = 0
    best_cell = -1
    best_gap = (0.0, 0.0)

    # a batch of equal-y events ends where the next one starts; the tree
    # then holds the depths of the gap between the two y values. Tops sort
    # first, so a batch holds a top edge exactly when its first event is
    # one. Below the last batch, all bottoms, nothing is active.
    batch_y = events[0][0]
    rises = True
    for neg_y, kind, a, b in events:
        if neg_y != batch_y:
            if rises:
                depth, cell = tree.peek_max()
                if depth > best_depth:
                    best_depth = depth
                    best_cell = cell
                    best_gap = (-neg_y, -batch_y)  # (lower y, upper y)
                    if depth >= bound:
                        break
            batch_y = neg_y
            rises = kind == TOP
        add(a, b, -kind)

    stab = Point(
        _inside(xs[best_cell], xs[best_cell + 1], (r.lo.x for r in rects)),
        _inside(best_gap[0], best_gap[1], (r.lo.y for r in rects)),
    )
    members = tuple(i for i, r in enumerate(rects) if r.contains_point_open(stab))
    if len(members) != best_depth:
        raise UnstabbableOverlapError(
            f"sweep depth {best_depth} disagrees with {len(members)} members at {stab}"
        )
    return CliqueWitness(members, stab)


def _inside(a: float, b: float, lows) -> float:
    """A coordinate inside every box spanning the cell ``[a, b]``, and no other.

    ``a`` and ``b`` are consecutive box coordinates on one axis, and
    ``lows`` iterates the boxes' lower coordinates. The midpoint serves
    unless ``a`` and ``b`` are adjacent doubles; only then is ``lows`` read.
    ``a`` serves if no box starts at it, and otherwise ``b``, which no box
    ends at unless a box starts one ulp below where another ends, the case
    ``build_graph`` rejects.
    """
    mid = a / 2.0 + b / 2.0  # halving first cannot overflow
    if a < mid < b:
        return mid
    return b if a in lows else a


def find_simplicial(g: IntersectionGraph, stats: SimplicialSearchStats | None = None) -> int | None:
    """The simplicial live vertex of least (degree, id), or None if none is.

    A vertex is simplicial when its closed neighborhood is a clique.
    Vertices are visited in increasing order of current degree (ties to the
    lowest id) by walking ``g.degree_classes()`` in order, each class in id
    order, and the first simplicial one is returned. Clique tests go through
    ``g.closed_clique_test``, which remembers failures across searches and
    deletions: known non-cliques are masked out of each class, and only the
    other vertices are tested. A found vertex is not remembered, since it is
    deleted with its neighborhood in the round that finds it. Vertex 0 is a
    valid answer, so test the result with ``is not None``.
    """
    unknown = ~g.known_non_cliques
    for cls in g.degree_classes():
        rest = cls & unknown
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            clique, read = g.closed_clique_test(v)
            if stats is not None:
                stats.entry_accesses += g.n * read
            if clique:
                return v
    return None
