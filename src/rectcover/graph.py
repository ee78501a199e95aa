"""Intersection graph of rectangles with bit-packed adjacency.

Adjacency rows are Python integers used as bitsets: bit ``j`` of row ``i``
says rectangles ``i`` and ``j`` have open interiors that intersect. The
diagonal is always clear. The same matrix is also kept packed in numpy, one
``uint8`` row of ceil(k/8) bytes per vertex. Vertex deletion is a logical
mask: removing vertices produces a new view sharing both forms of the
adjacency, with its own array of live degrees. Degrees are maintained on
deletion, not recomputed on demand: the new view subtracts the column sums
of the removed rows, so every whole-live-set query (vertex list, degree
order, maximum degree, edge count) reads numpy arrays. Vertex ids always
refer to the originally built graph, so a rectangle keeps its id across
deletions.

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

    Views are made by ``build_graph`` and ``remove_vertices``. ``degrees``
    holds each live vertex's number of live neighbors, and a negative number
    for each dead vertex.
    """

    __slots__ = ("_rows", "_packed", "_degrees", "_alive")

    def __init__(self, rows: list[int], packed: np.ndarray, degrees: np.ndarray, alive: int):
        self._rows = rows
        self._packed = packed
        self._degrees = degrees
        self._alive = alive

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

    def vertices(self) -> list[int]:
        return np.flatnonzero(self._degrees >= 0).tolist()

    def vertices_by_degree(self) -> list[int]:
        """Live vertices in increasing order of degree, ties to the lowest id."""
        live = np.flatnonzero(self._degrees >= 0)
        return live[np.argsort(self._degrees[live], kind="stable")].tolist()

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
        return int(self._degrees[v])

    def closed_neighborhood(self, v: int) -> set[int]:
        """The vertex itself together with all its live neighbors."""
        self._check_live(v)
        return set(bit_indices(self.neighborhood_mask(v)))

    def neighborhood_mask(self, v: int) -> int:
        """Bitset of the closed neighborhood of ``v``."""
        return (self._rows[v] & self._alive) | (1 << v)

    def max_degree_vertex(self) -> int | None:
        """Live vertex of maximum degree; ties go to the lowest id."""
        if not self._alive:
            return None
        return int(self._degrees.argmax())  # dead vertices hold negative degrees

    def edge_count(self) -> int:
        degrees = self._degrees
        return int(degrees[degrees > 0].sum()) // 2

    def edges(self):
        """Yield live edges as (u, v) pairs with u < v."""
        alive = self._alive
        for u in bit_indices(alive):
            higher = self._rows[u] & alive & ~((1 << (u + 1)) - 1)
            for v in bit_indices(higher):
                yield (u, v)

    # -- deletion ------------------------------------------------------

    def remove_vertices(self, vertices) -> "IntersectionGraph":
        """Induced subgraph view with the given vertices masked out."""
        mask = 0
        for v in vertices:
            mask |= 1 << v
        if mask & ~self._alive:
            dead = bit_indices(mask & ~self._alive)
            raise ValueError(f"cannot remove vertices not in the graph: {dead}")
        gone = bit_indices(mask)
        lost = np.unpackbits(
            self._packed[gone], axis=1, count=len(self._rows), bitorder="little"
        ).sum(axis=0, dtype=self._degrees.dtype)
        degrees = self._degrees - lost  # dead vertices only go further below 0
        degrees[gone] = -1
        return IntersectionGraph(self._rows, self._packed, degrees, self._alive & ~mask)

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


def _build_pairwise(bounds) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs open-overlap test: packed adjacency rows and degrees."""
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
    return packed, degrees


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
    packed, degrees = _build_pairwise(bounds)
    rows = [int.from_bytes(row.tobytes(), "little") for row in packed]
    return IntersectionGraph(rows, packed, degrees, (1 << len(rects)) - 1)
