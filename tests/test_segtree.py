"""Segment tree checked against a brute-force array simulation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectcover.segtree import MaxAddSegmentTree


def test_empty_tree_rejected():
    with pytest.raises(ValueError):
        MaxAddSegmentTree(0)


def test_single_cell():
    t = MaxAddSegmentTree(1)
    assert t.peek_max() == (0, 0)
    t.add(0, 1, 5)
    assert t.peek_max() == (5, 0)
    t.add(0, 1, -2)
    assert t.peek_max() == (3, 0)


def test_range_bounds_validated():
    t = MaxAddSegmentTree(4)
    with pytest.raises(ValueError):
        t.add(-1, 2, 1)
    with pytest.raises(ValueError):
        t.add(0, 5, 1)
    with pytest.raises(ValueError):
        t.add(3, 3, 1)  # empty range


def test_peek_max_returns_python_ints():
    t = MaxAddSegmentTree(5)
    t.add(1, 4, 3)
    value, index = t.peek_max()
    assert type(value) is int and type(index) is int
    assert (value, index) == (3, 1)


def test_leftmost_argmax_on_ties():
    t = MaxAddSegmentTree(6)
    t.add(2, 5, 7)
    assert t.peek_max() == (7, 2)
    t.add(0, 1, 7)
    # cell 0 now ties the maximum; leftmost index wins
    assert t.peek_max() == (7, 0)


@pytest.mark.parametrize(
    "size", [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33, 100, 255, 256, 257, 1000, 4097]
)
def test_matches_array_simulation(size):
    rng = random.Random(size * 31 + 5)
    tree = MaxAddSegmentTree(size)
    array = [0] * size
    for _ in range(400):
        lo = rng.randrange(size)
        hi = rng.randrange(lo + 1, size + 1)
        delta = rng.randint(-3, 3)
        tree.add(lo, hi, delta)
        for i in range(lo, hi):
            array[i] += delta
        best = max(array)
        assert tree.peek_max() == (best, array.index(best))


# ------------------------------------------- negative depths and the last cell

EDGE_SIZES = [1, 2, 3, 4, 5, 8, 9, 16, 17, 255, 256, 257]


def _expected(array):
    best = max(array)
    return best, array.index(best)


@pytest.mark.parametrize("size", EDGE_SIZES)
def test_padding_never_wins_when_all_cells_negative(size):
    tree = MaxAddSegmentTree(size)
    tree.add(0, size, -5)
    array = [-5] * size
    assert tree.peek_max() == (-5, 0)
    # push every cell further down, the last one least, one range at a time
    for lo in range(0, size, 7):
        hi = min(lo + 7, size)
        tree.add(lo, hi, -(size - lo))
        for i in range(lo, hi):
            array[i] -= size - lo
        assert tree.peek_max() == _expected(array)
    assert tree.peek_max()[1] == (size - 1) // 7 * 7


@pytest.mark.parametrize("size", EDGE_SIZES)
def test_maximum_in_last_real_cell(size):
    tree = MaxAddSegmentTree(size)
    tree.add(size - 1, size, 3)
    assert tree.peek_max() == (3, size - 1)
    tree.add(0, size, -10)
    assert tree.peek_max() == (-7, size - 1)
    if size > 1:
        tree.add(0, size - 1, 3)
        assert tree.peek_max() == (-7, 0)  # a tie goes left
        tree.add(size - 2, size, -1)
        tree.add(size - 1, size, 2)
        assert tree.peek_max() == (-6, size - 1)


@pytest.mark.parametrize("size", EDGE_SIZES)
def test_padded_sizes_match_array_simulation(size):
    rng = random.Random(size * 131 + 7)
    tree = MaxAddSegmentTree(size)
    array = [0] * size
    assert tree.size == size
    for _ in range(300):
        lo = rng.randrange(size)
        hi = rng.randrange(lo + 1, size + 1)
        delta = rng.randint(-4, 3)
        tree.add(lo, hi, delta)
        for i in range(lo, hi):
            array[i] += delta
        assert tree.peek_max() == _expected(array)
    with pytest.raises(ValueError):
        tree.add(0, size + 1, 1)


@st.composite
def add_sequences(draw):
    size = draw(st.sampled_from(EDGE_SIZES[:-3]) | st.integers(1, 40))
    ranges = st.tuples(st.integers(0, size - 1), st.integers(1, size)).map(
        lambda ab: (min(ab[0], ab[1] - 1), max(ab[0] + 1, ab[1]))
    )
    ops = draw(st.lists(st.tuples(ranges, st.integers(-5, 5)), max_size=60))
    return size, ops


@settings(derandomize=True, max_examples=300, deadline=None)
@given(add_sequences())
def test_random_adds_match_array_simulation(case):
    size, ops = case
    tree = MaxAddSegmentTree(size)
    array = [0] * size
    for (lo, hi), delta in ops:
        tree.add(lo, hi, delta)
        for i in range(lo, hi):
            array[i] += delta
        assert tree.peek_max() == _expected(array)
