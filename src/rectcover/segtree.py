"""Overlap depth per elementary x-interval, for the sweep-line clique search.

A flat ``int64`` array of ``size`` cells, all starting at 0. ``add`` applies
a delta to a half-open index range and ``peek_max`` returns the current
maximum together with the smallest index attaining it. Each call is
O(size) numpy work.

The module, the class name, ``__init__(size)``, ``add``, ``peek_max`` and
``size`` are kept as they were when this was a segment tree, because the
benchmark's tracer (``perfbench/tracer.py``) wraps ``__init__`` and ``add``
to count cells and range adds.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MaxAddSegmentTree"]


class MaxAddSegmentTree:
    """Range add / global max over ``size`` integer cells, all starting at 0.

    Ties resolve to the leftmost cell, so ``peek_max`` is deterministic.
    """

    __slots__ = ("_d",)

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self._d = np.zeros(size, dtype=np.int64)

    @property
    def size(self) -> int:
        return len(self._d)

    def add(self, lo: int, hi: int, delta: int) -> None:
        """Add ``delta`` to every cell in the half-open range [lo, hi)."""
        if not (0 <= lo < hi <= len(self._d)):
            raise ValueError(f"bad range [{lo}, {hi}) for size {len(self._d)}")
        # a view, not self._d[lo:hi] += delta: that also writes the view back
        d = self._d[lo:hi]
        d += delta

    def peek_max(self) -> tuple[int, int]:
        """Return (maximum value, leftmost cell index attaining it)."""
        i = self._d.argmax()  # the first maximum
        return int(self._d[i]), int(i)
