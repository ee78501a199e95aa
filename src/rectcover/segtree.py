"""Segment tree with range add and a (max, leftmost argmax) readout.

Used by the sweep-line clique search to maintain overlap depth per
elementary x-interval. The tree covers a fixed array of ``size`` zeros;
``add`` applies a delta to a half-open index range and ``peek_max`` returns
the current global maximum together with the smallest index attaining it.

The tree is iterative and never pushes an add down. Leaves sit at
``base + i`` for a power of two ``base >= size``; the padding leaves past
``size`` hold ``-inf``, so they never win. Node ``p`` stores the maximum of
its subtree including every add made to ``p`` itself, and ``pend[p]`` keeps
the sum of those adds:

    mx[p] = max(mx[2p], mx[2p + 1]) + pend[p]

An add bumps the O(log size) canonical nodes that tile its range, then
recomputes the nodes above them, which all lie on the root paths of the
range's first and last leaf. Pending adds stay where they are: only the
root is ever read, and it already counts every add above each cell.
"""

from __future__ import annotations

__all__ = ["MaxAddSegmentTree"]

_PAD = float("-inf")


class MaxAddSegmentTree:
    """Range add / global max over ``size`` integer cells, all starting at 0.

    Each node stores the maximum over its span and the leftmost cell index
    attaining it; ties always resolve to the left, so ``peek_max`` is
    deterministic.
    """

    __slots__ = ("_n", "_base", "_mx", "_mi", "_pend")

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        base = 1 << (size - 1).bit_length()
        # level by level from the root: a node of width w at level position
        # k covers cells [k*w, (k+1)*w), is 0 if any of them is real, and
        # its leftmost cell is its argmax
        mx = [_PAD]
        mi = [0]
        width = base
        while width:
            real = -(-size // width)
            mx += [0] * real
            mx += [_PAD] * (base // width - real)
            mi += range(0, base, width)
            width //= 2
        self._n = size
        self._base = base
        self._mx = mx
        self._mi = mi
        self._pend = [0] * (2 * base)

    @property
    def size(self) -> int:
        return self._n

    def add(self, lo: int, hi: int, delta: int) -> None:
        """Add ``delta`` to every cell in the half-open range [lo, hi)."""
        if not (0 <= lo < hi <= self._n):
            raise ValueError(f"bad range [{lo}, {hi}) for size {self._n}")
        mx = self._mx
        mi = self._mi
        pend = self._pend
        base = self._base
        lo += base
        hi += base
        left = lo >> 1  # parents of the first and the last leaf in range
        right = (hi - 1) >> 1
        while lo < hi:  # bump the canonical nodes; pend is only read above leaves
            if lo & 1:
                mx[lo] += delta
                pend[lo] += delta
                lo += 1
            if hi & 1:
                hi -= 1
                mx[hi] += delta
                pend[hi] += delta
            lo >>= 1
            hi >>= 1
        # recompute both boundary paths bottom-up, then their common part
        while left != right:
            c = 2 * left
            a = mx[c]
            b = mx[c + 1]
            if a < b:  # ties go left
                a = b
                c += 1
            mx[left] = a + pend[left]
            mi[left] = mi[c]
            c = 2 * right
            a = mx[c]
            b = mx[c + 1]
            if a < b:
                a = b
                c += 1
            mx[right] = a + pend[right]
            mi[right] = mi[c]
            left >>= 1
            right >>= 1
        while left:
            c = 2 * left
            a = mx[c]
            b = mx[c + 1]
            if a < b:
                a = b
                c += 1
            mx[left] = a + pend[left]
            mi[left] = mi[c]
            left >>= 1

    def peek_max(self) -> tuple[int, int]:
        """Return (maximum value, leftmost cell index attaining it)."""
        return self._mx[1], self._mi[1]
