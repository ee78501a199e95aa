"""Intersection graph of rectangles with bitset adjacency.

Adjacency rows are Python integers used as bitsets: bit ``j`` of row ``i``
says rectangles ``i`` and ``j`` have open interiors that intersect. The
diagonal is always clear. Vertex deletion is a logical mask: removing
vertices produces a new view sharing the rows. A view holds bitsets only:
the live mask, the live vertices grouped into degree classes, and the live
vertices known to have, and known not to have, a clique for their closed
neighborhood. Only the live neighbors of removed vertices change degree, so
a new view keeps every other vertex in its class and refiles those. A
clique stays one under deletion and an untouched neighborhood is unchanged,
so a new view keeps the known cliques still live and the known non-cliques
still live that lost no neighbor. Vertex ids always refer to the originally
built graph, so a rectangle keeps its id across deletions.

The graph is built by one quadratic pairwise test, vectorized with numpy.
On the kept sets the heuristics build graphs for, it is faster than a plane
sweep over candidate pairs; the sweep wins only on nearly edge-free inputs.
``build_graph`` rejects rectangles no point can stab correctly (see
``UnstabbableOverlapError``).
"""

from __future__ import annotations

import numpy as np

from .geometry import Rectangle, _bounds_arrays, _check_stabbable

__all__ = ["IntersectionGraph", "build_graph", "bit_indices"]


def bit_indices(mask: int) -> list[int]:
    """Indices of set bits in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class IntersectionGraph:
    """Immutable view of an intersection graph, possibly with vertices removed.

    Views are made by ``build_graph`` and ``remove_vertices``. Entry ``d``
    of ``degree_classes()`` is the bitset of live vertices with ``d`` live
    neighbors. Only ``closed_clique_test`` adds to the known (non-)cliques.
    """

    __slots__ = ("_rows", "_classes", "_alive", "_cliques", "_non_cliques")

    def __init__(self, rows: list[int], classes: list[int], alive: int, cliques=0, non_cliques=0):
        self._rows = rows
        self._classes = classes
        self._alive = alive
        self._cliques = cliques
        self._non_cliques = non_cliques

    # -- basic queries -------------------------------------------------

    @property
    def n(self) -> int:
        """Number of live vertices."""
        return self._alive.bit_count()

    @property
    def alive_mask(self) -> int:
        return self._alive

    def raw_adjacency(self) -> list[int]:
        """Unmasked adjacency rows of the base graph. Treat as read-only."""
        return self._rows

    def degree_classes(self) -> list[int]:
        """Bitsets of the live vertices of each degree, indexed by degree.

        The last class is never empty; the list is empty when no vertex is
        live. Treat as read-only.
        """
        return self._classes

    def vertices(self) -> list[int]:
        return bit_indices(self._alive)

    def vertices_by_degree(self) -> list[int]:
        """Live vertices in increasing order of degree, ties to the lowest id."""
        return [v for cls in self._classes for v in bit_indices(cls)]

    def is_live(self, v: int) -> bool:
        return 0 <= v < len(self._rows) and (self._alive >> v) & 1 == 1

    def _check_live(self, v: int) -> None:
        if not self.is_live(v):
            raise ValueError(f"vertex {v} is not a live vertex of this graph")

    def adjacent(self, u: int, v: int) -> bool:
        self._check_live(u)
        self._check_live(v)
        return (self._rows[u] >> v) & 1 == 1

    def degree(self, v: int) -> int:
        self._check_live(v)
        return (self._rows[v] & self._alive).bit_count()

    def closed_neighborhood(self, v: int) -> set[int]:
        """The vertex itself together with all its live neighbors."""
        self._check_live(v)
        return set(bit_indices(self.neighborhood_mask(v)))

    def neighborhood_mask(self, v: int) -> int:
        """Bitset of the closed neighborhood of ``v``."""
        return (self._rows[v] & self._alive) | (1 << v)

    def max_degree_vertex(self) -> int | None:
        """Live vertex of maximum degree; ties go to the lowest id."""
        if not self._classes:
            return None
        top = self._classes[-1]
        return (top & -top).bit_length() - 1

    def edge_count(self) -> int:
        return sum(d * cls.bit_count() for d, cls in enumerate(self._classes)) // 2

    def edges(self):
        """Yield live edges as (u, v) pairs with u < v."""
        alive = self._alive
        for u in bit_indices(alive):
            higher = self._rows[u] & alive & ~((1 << (u + 1)) - 1)
            for v in bit_indices(higher):
                yield (u, v)

    # -- remembered clique tests ---------------------------------------

    @property
    def known_cliques(self) -> int:
        """Bitset of live vertices known to have a clique closed neighborhood."""
        return self._cliques

    @property
    def known_non_cliques(self) -> int:
        """Bitset of live vertices known not to have a clique closed neighborhood."""
        return self._non_cliques

    def closed_clique_test(self, v: int) -> tuple[bool, int]:
        """Whether ``v``'s closed neighborhood is a clique, and the rows read.

        A known answer reads none. Otherwise the rows of ``v`` and of its live
        neighbors are read in id order, up to the first that misses a member,
        and the view remembers the answer.
        """
        bit = 1 << v
        if (self._cliques | self._non_cliques) & bit:
            return self._cliques & bit != 0, 0
        rows = self._rows
        closed = (rows[v] & self._alive) | bit
        read = 1
        rest = closed ^ bit
        while rest:
            low = rest & -rest
            rest ^= low
            read += 1
            if closed & ~(rows[low.bit_length() - 1] | low):
                self._non_cliques |= bit
                return False, read
        self._cliques |= bit
        return True, read

    # -- deletion ------------------------------------------------------

    def remove_vertices(self, vertices) -> "IntersectionGraph":
        """Induced subgraph view with the given vertices masked out."""
        mask = 0
        for v in vertices:
            mask |= 1 << v
        if mask & ~self._alive:
            dead = bit_indices(mask & ~self._alive)
            raise ValueError(f"cannot remove vertices not in the graph: {dead}")
        rows, alive = self._rows, self._alive & ~mask
        touched = 0
        for v in bit_indices(mask):
            touched |= rows[v]
        touched &= alive
        # a touched vertex only loses degree, so its class is already listed
        untouched = alive & ~touched
        classes = [cls & untouched for cls in self._classes]
        for u in bit_indices(touched):
            classes[(rows[u] & alive).bit_count()] |= 1 << u
        while classes and not classes[-1]:
            classes.pop()
        return IntersectionGraph(
            rows, classes, alive, self._cliques & alive, self._non_cliques & untouched
        )

    # -- equality (structural, for tests) ------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntersectionGraph):
            return NotImplemented
        return self._alive == other._alive and self._rows == other._rows

    def __hash__(self):
        return hash((self._alive, tuple(self._rows)))

    def __repr__(self) -> str:
        return f"IntersectionGraph(n={self.n}, edges={self.edge_count()})"


# -- builders ----------------------------------------------------------


def _build_pairwise(bounds) -> tuple[list[int], np.ndarray]:
    """All-pairs open-overlap test: adjacency bitset rows and degrees."""
    lx, ly, hx, hy = bounds
    n = len(lx)
    packed = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
    degrees = np.zeros(n, dtype=np.intp)
    block = 2048
    for start in range(0, n, block):
        stop = min(n, start + block)
        adj = (
            (lx[start:stop, None] < hx[None, :])
            & (lx[None, :] < hx[start:stop, None])
            & (ly[start:stop, None] < hy[None, :])
            & (ly[None, :] < hy[start:stop, None])
        )
        adj[np.arange(start, stop) - start, np.arange(start, stop)] = False
        packed[start:stop] = np.packbits(adj, axis=1, bitorder="little")
        degrees[start:stop] = np.count_nonzero(adj, axis=1)
    return [int.from_bytes(row.tobytes(), "little") for row in packed], degrees


def build_graph(rects) -> IntersectionGraph:
    """Build the intersection graph of a rectangle list.

    Vertex ``i`` is ``rects[i]``. Every pair is tested at once with numpy,
    in blocks of rows, and each row is packed into a bitset.

    Raises:
        UnstabbableOverlapError: if some rectangle's lower coordinate is one
            ulp below some rectangle's upper coordinate on the same axis.
    """
    rects = list(rects)
    for r in rects:
        if not isinstance(r, Rectangle):
            raise TypeError(f"expected Rectangle, got {type(r).__name__}")
    bounds = _bounds_arrays(rects)
    _check_stabbable(bounds)
    rows, degrees = _build_pairwise(bounds)
    classes = [0] * (int(degrees.max()) + 1 if len(rects) else 0)
    for v, d in enumerate(degrees.tolist()):
        classes[d] |= 1 << v
    return IntersectionGraph(rows, classes, (1 << len(rects)) - 1)
