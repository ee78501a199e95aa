"""Intersection graph of rectangles with bitset adjacency, and the simplicial searches.

Adjacency rows are Python integers used as bitsets: bit ``j`` of row ``i``
says rectangles ``i`` and ``j`` have open interiors that intersect. The
diagonal is always clear. Vertex deletion is a logical mask: removing
vertices produces a new view sharing the rows. A view holds bitsets only:
the live mask, the live vertices grouped into degree classes, and the live
vertices known not to have a clique for their closed neighborhood. Only the
live neighbors of removed vertices change degree, so a new view keeps every
other vertex in its class and refiles those, and an untouched neighborhood
is unchanged, so it keeps the known non-cliques that lost no neighbor.
Vertex ids always refer to the originally built graph, so a rectangle
keeps its id across deletions.

Both searches, ``find_simplicial`` (the least simplicial vertex) and
``find_top_cliques`` (the simplicial vertices of the top degree class,
for ``gcc``'s maximum cliques), are one walk over degree classes,
``_simplicial``, with the known non-cliques masked out. It rejects a
vertex without its own clique test by two rules: a live neighbor of lower
degree, found by one AND, or two live neighbors that are not adjacent,
which a failed test finds and which reject every vertex adjacent to both.
Rejected and failed vertices become known non-cliques. A found clique
needs no memory: its vertex lies in its own closed neighborhood, which
the heuristics delete in the round that finds it. The memory is private
to this module: only the walk reads it and adds to it, and only
``remove_vertices`` forgets from it.

The graph is built from the boxes' coordinate rows, read by
``geometry._coord_array`` (the heuristics pass a box-array slice of
``Instance.coords``), by one quadratic pairwise test, vectorized with numpy
under a small ufunc buffer (see ``geometry._small_ufunc_buffer``). On the
kept sets the heuristics build graphs for, it is faster than a plane sweep
over candidate pairs; the sweep wins only on nearly edge-free inputs.
``build_graph`` rejects rectangles no point can stab correctly (see
``UnstabbableOverlapError``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .geometry import _check_stabbable, _coord_array, _small_ufunc_buffer

__all__ = [
    "IntersectionGraph",
    "SimplicialSearchStats",
    "build_graph",
    "bit_indices",
    "find_simplicial",
    "find_top_cliques",
]


def bit_indices(mask: int) -> list[int]:
    """Indices of set bits in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class IntersectionGraph:
    """View of an intersection graph, possibly with vertices removed.

    Views are made by ``build_graph`` and ``remove_vertices``. A view's
    adjacency rows, live set and degree classes are fixed once it is made;
    only its private set of known non-cliques changes, and it only grows,
    when a search finds another one. Entry ``d`` of
    ``degree_classes()`` is the bitset of live vertices with ``d`` live
    neighbors. Vertex ids may be any integer type, numpy's included.
    """

    __slots__ = ("_rows", "_classes", "_alive", "_non_cliques")

    def __init__(self, rows: list[int], classes: list[int], alive: int, non_cliques=0):
        self._rows = rows
        self._classes = classes
        self._alive = alive
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

    def is_live(self, v: int) -> bool:
        v = operator.index(v)
        return 0 <= v < len(self._rows) and (self._alive >> v) & 1 == 1

    def _check_live(self, v: int) -> int:
        """``v`` as a Python int; a ValueError unless it is a live vertex."""
        if not self.is_live(v):
            raise ValueError(f"vertex {v} is not a live vertex of this graph")
        return operator.index(v)

    def adjacent(self, u: int, v: int) -> bool:
        u, v = self._check_live(u), self._check_live(v)
        return (self._rows[u] >> v) & 1 == 1

    def degree(self, v: int) -> int:
        v = self._check_live(v)
        return (self._rows[v] & self._alive).bit_count()

    def closed_neighborhood(self, v: int) -> set[int]:
        """The vertex itself together with all its live neighbors."""
        return set(bit_indices(self.neighborhood_mask(v)))

    def neighborhood_mask(self, v: int) -> int:
        """Bitset of the closed neighborhood of the live vertex ``v``."""
        v = self._check_live(v)
        return (self._rows[v] & self._alive) | (1 << v)

    def max_degree_vertex(self) -> int | None:
        """Live vertex of maximum degree; ties go to the lowest id."""
        if not self._classes:
            return None
        top = self._classes[-1]
        return (top & -top).bit_length() - 1

    def edge_count(self) -> int:
        return sum(d * cls.bit_count() for d, cls in enumerate(self._classes)) // 2

    # -- remembered clique tests ---------------------------------------

    def _closed_clique_test(self, v: int) -> tuple[int, int, int]:
        """Test whether ``v``'s closed neighborhood is a clique.

        The rows of ``v`` and of its live neighbors are read in id order, up
        to the first that misses a member. Returns ``(read, u, missed)``:
        the rows read and, for a failed test, the neighbor ``u`` whose row
        missed and the bitset of the members it misses; for a passed test
        ``u`` and ``missed`` are 0. A failed test adds ``v`` to the known
        non-cliques; a passed one leaves no memory.
        """
        bit = 1 << v
        rows = self._rows
        closed = (rows[v] & self._alive) | bit
        read = 1
        rest = closed ^ bit
        while rest:
            low = rest & -rest
            rest ^= low
            read += 1
            u = low.bit_length() - 1
            missed = closed & ~(rows[u] | low)
            if missed:
                self._non_cliques |= bit
                return read, u, missed
        return read, 0, 0

    # -- deletion ------------------------------------------------------

    def remove_vertices(self, vertices) -> "IntersectionGraph":
        """Induced subgraph view with the given vertices masked out."""
        mask = 0
        for v in vertices:
            v = operator.index(v)
            if v < 0:
                raise ValueError(f"cannot remove vertices not in the graph: [{v}]")
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
        return IntersectionGraph(rows, classes, alive, self._non_cliques & untouched)

    # -- equality (structural, for tests) ------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntersectionGraph):
            return NotImplemented
        return self._alive == other._alive and self._rows == other._rows

    def __hash__(self):
        return hash((self._alive, tuple(self._rows)))

    def __repr__(self) -> str:
        return f"IntersectionGraph(n={self.n}, edges={self.edge_count()})"


# -- simplicial search ------------------------------------------------


@dataclass
class SimplicialSearchStats:
    """Diagnostics from simplicial searches.

    ``entry_accesses`` counts adjacency-matrix entry touches: one live row
    for each adjacency row read by each clique test actually made, one for
    the row a rejection by a lower-degree neighbor reads, and one, ``b``'s,
    for the row a rejection by a non-adjacent pair reads.
    """

    entry_accesses: int = 0


def _simplicial(g: IntersectionGraph, classes: list[int], below: int, stats: SimplicialSearchStats | None = None):
    """Yield the simplicial live vertices of ``classes``, walked in order.

    Each class is walked in id order with the known non-cliques masked
    out. ``below`` is the union of the live vertices of lower degree, and
    each class joins it once walked. Every neighbor ``u`` of a simplicial
    ``v`` has ``N[v]`` inside ``N[u]``, so ``deg(u) >= deg(v)``: a vertex
    with a live neighbor in ``below`` is not simplicial, and one AND of its
    row with ``below`` rejects it without a clique test. A failed clique
    test of ``v`` finds a neighbor ``u`` and a member ``b`` of ``N[v]``
    that are not adjacent, and no live vertex adjacent to both is
    simplicial, so all of them are rejected at once (Rose, Tarjan & Lueker,
    1976). Rejected vertices join the known non-cliques. A simplicial
    vertex is yielded, and its closed neighborhood leaves the walk.
    """
    rows, alive, n = g._rows, g._alive, g.n
    for cls in classes:
        rest = cls & ~g._non_cliques
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            if rows[v] & below:
                read, rejected = 1, low
            else:
                read, u, missed = g._closed_clique_test(v)
                if missed:
                    # v is adjacent to both, so this rejects it too
                    read += 1
                    rejected = alive & rows[u] & rows[(missed & -missed).bit_length() - 1]
                else:
                    rejected = 0
            if stats is not None:
                stats.entry_accesses += n * read
            if rejected:
                g._non_cliques |= rejected
                rest &= ~rejected
            else:
                yield v
                rest &= ~((rows[v] & alive) | low)
        below |= cls


def find_simplicial(g: IntersectionGraph, stats: SimplicialSearchStats | None = None) -> int | None:
    """The simplicial live vertex of least (degree, id), or None if none is.

    A vertex is simplicial when its closed neighborhood is a clique. The
    search walks ``g.degree_classes()`` from the lowest degree up, each in
    id order, under ``_simplicial``'s rules, and returns the first
    simplicial vertex. A rejection or a failed clique test is remembered
    in ``g`` and in the views ``remove_vertices`` makes from it, until the
    vertex loses a neighbor, and only the other vertices are tested. A
    found vertex is not remembered, since it is deleted with its
    neighborhood in the round that finds it. So a peel of a graph with k
    vertices and E edges makes at most k + E tests and rejections. Vertex 0
    is a valid answer, so test the result with ``is not None``.
    """
    return next(_simplicial(g, g.degree_classes(), 0, stats), None)


def find_top_cliques(g: IntersectionGraph) -> list[list[int]]:
    """The cliques of ``Δ + 1`` live vertices, for ``Δ`` the live maximum degree.

    Each member of such a clique has degree ``Δ`` and the clique for its
    closed neighborhood. So these cliques are the closed neighborhoods of
    the simplicial vertices of the top degree class, two of them share no
    vertex, and they are the maximum cliques. Each is listed once, by its
    members in id order, and the cliques in the order of their lowest ids.
    The list is empty when no vertex is live or the maximum clique is
    smaller. With no edge left, each live vertex is a clique of its own.

    The top class is walked under ``_simplicial``'s rules, with every
    lower class below it, and shares ``find_simplicial``'s memory.
    """
    classes = g.degree_classes()
    if len(classes) <= 1:
        # no edge: listing the live vertices skips a clique test each, which
        # a tail of isolated boxes would pay again every round
        return [[v] for v in bit_indices(g._alive)]
    top = classes[-1]
    return [bit_indices(g.neighborhood_mask(v)) for v in _simplicial(g, [top], g._alive ^ top)]


# -- builders ----------------------------------------------------------


@_small_ufunc_buffer()
def _build_pairwise(coords) -> tuple[list[int], np.ndarray]:
    """All-pairs open-overlap test: adjacency bitset rows and degrees."""
    lx, ly, hx, hy = coords
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


def build_graph(boxes) -> IntersectionGraph:
    """Build the intersection graph of the given boxes.

    Vertex ``i`` is box ``i`` of ``boxes``: an Instance, a ``(k, 4)``
    float64 box array or a sequence of Rectangle, read by
    ``geometry._coord_array``. Every pair is tested at once with numpy, in
    blocks of rows, and each row is packed into a bitset.

    Raises:
        TypeError, DegenerateRectangleError: as ``_coord_array`` does.
        UnstabbableOverlapError: if some box's lower coordinate is one ulp
            below some box's upper coordinate on the same axis.
    """
    coords = _coord_array(boxes)
    _check_stabbable(coords)
    rows, degrees = _build_pairwise(coords)
    classes = [0] * (int(degrees.max()) + 1 if len(rows) else 0)
    for v, d in enumerate(degrees.tolist()):
        classes[d] |= 1 << v
    return IntersectionGraph(rows, classes, (1 << len(rows)) - 1)
