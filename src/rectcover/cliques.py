"""Core engine: sweep-line maximum clique and the simplicial-vertex search.

Both routines exploit the Helly property of axis-parallel boxes: a set of
rectangles is a clique of the intersection graph exactly when all of them
share a common interior point, so a maximum clique is a deepest point of the
overlap arrangement and every clique can be stabbed by one point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import Point, UnstabbableOverlapError, common_intersection
from .graph import IntersectionGraph, bit_indices
from .segtree import MaxAddSegmentTree

__all__ = [
    "CliqueWitness",
    "SimplicialWitness",
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


@dataclass(frozen=True)
class SimplicialWitness:
    """A simplicial vertex, its closed neighborhood, and a shared stab point."""

    vertex: int
    neighborhood: tuple[int, ...]
    stab: Point


@dataclass
class SimplicialSearchStats:
    """Diagnostics from simplicial searches.

    ``entry_accesses`` counts adjacency-matrix entry touches: one live row
    for each adjacency row read by each clique test actually made.
    """

    entry_accesses: int = 0


def max_clique_sweep(rects) -> CliqueWitness:
    """Maximum clique of a rectangle list by top-to-bottom line sweep.

    The x-axis is discretized into elementary intervals between the sorted
    distinct x-coordinates. Sweeping y downward, each rectangle's top edge
    adds +1 and its bottom edge -1 over its open x-span in a depth array;
    after each batch of equal-y events the array's maximum gives the
    deepest cell for the y-gap below. The reported stab point is the
    midpoint of the winning elementary cell, so it is interior to every
    member; where the cell is one ulp wide it is a cell corner no member
    starts or ends at. Ties keep the first maximum in sweep order
    (decreasing y, then increasing x).

    Raises:
        UnstabbableOverlapError: if the winning cell is one ulp wide and both
            of its corners lie on a member's boundary.
    """
    rects = list(rects)
    if not rects:
        raise ValueError("max_clique_sweep needs at least one rectangle")

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
    # then holds the depths of the gap between the two y values. Below the
    # last batch nothing is active, so it is never read.
    batch_y = events[0][0]
    for neg_y, kind, a, b in events:
        if neg_y != batch_y:
            depth, cell = tree.peek_max()
            if depth > best_depth:
                best_depth = depth
                best_cell = cell
                best_gap = (-neg_y, -batch_y)  # (lower y, upper y)
            batch_y = neg_y
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


def find_simplicial(
    g: IntersectionGraph,
    rects,
    stats: SimplicialSearchStats | None = None,
) -> SimplicialWitness | None:
    """The simplicial live vertex of least (degree, id), or None if none is.

    A vertex is simplicial when its closed neighborhood is a clique.
    Vertices are visited in increasing order of current degree (ties to the
    lowest id) by walking ``g.degree_classes()`` in order, each class in id
    order, and the first simplicial one is returned. Clique tests go through
    ``g.closed_clique_test``, whose answers the view remembers across
    searches and deletions: known non-cliques are masked out of each class,
    and only vertices of unknown answer are tested.

    ``rects`` must be indexed by vertex id of the base graph. The witness
    stab point is the center of the common intersection of the neighborhood,
    interior to every member by the Helly property.
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
                members = bit_indices(g.neighborhood_mask(v))
                box = common_intersection([rects[i] for i in members])
                if box is None:
                    raise UnstabbableOverlapError(f"clique neighborhood of {v} has no common interior")
                return SimplicialWitness(v, tuple(members), box.center())
    return None

