"""Seeded instance families for the benchmark.

Each generator is a pure function of its seed: the same seed gives the same
rectangles, bit for bit. ``uniform`` is the paper's model and goes through
``rectcover.generate_instance``; ``squares`` and ``clustered`` are built from
the public ``Rectangle``/``Instance`` types, so the program under test only
ever receives finished instances.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from rectcover import UNIT_SQUARE, Instance, Point, Rectangle, generate_instance, trial_seed

UNIFORM_N = 1000
SQUARES_N = 800
CLUSTERED_N = 6000
CLUSTERS = 5
MAX_HALF_WIDTH = 0.04


def uniform(seed: int, i: int, n: int = UNIFORM_N) -> Instance:
    """Instance ``i`` of the paper's model: two uniform corners per rectangle."""
    return generate_instance(n, seed=trial_seed(seed, n, i))


def squares(seed: int, i: int, n: int = SQUARES_N) -> Instance:
    """``n`` equal squares of side 1/sqrt(n) at uniform positions.

    No square contains another, so nothing is dominated, and each square
    meets about four others on average.
    """
    s = trial_seed(seed, n, i)
    rng = random.Random(s)
    side = 1.0 / math.sqrt(n)
    rects = []
    for _ in range(n):
        x = rng.uniform(0.0, 1.0 - side)
        y = rng.uniform(0.0, 1.0 - side)
        rects.append(Rectangle(Point(x, y), Point(x + side, y + side)))
    return Instance(tuple(rects), s, UNIT_SQUARE, n)


def clustered(seed: int, i: int, n: int = CLUSTERED_N) -> Instance:
    """``n`` boxes, each containing one of ``CLUSTERS`` random centres.

    A box reaches from its centre a distance uniform in (0, MAX_HALF_WIDTH]
    to each of its four sides, so boxes of one centre nest often and most
    are dominated; the kept ones form one clique per centre.
    """
    s = trial_seed(seed, n, i)
    rng = random.Random(s)
    lo, hi = MAX_HALF_WIDTH, 1.0 - MAX_HALF_WIDTH
    centres = [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(CLUSTERS)]

    def reach() -> float:
        return MAX_HALF_WIDTH * (1.0 - rng.random())  # in (0, MAX_HALF_WIDTH]

    rects = []
    for _ in range(n):
        cx, cy = centres[rng.randrange(CLUSTERS)]
        rects.append(
            Rectangle(Point(cx - reach(), cy - reach()), Point(cx + reach(), cy + reach()))
        )
    return Instance(tuple(rects), s, UNIT_SQUARE, n)


ALGORITHMS = ("gcc", "gcc-i", "mis", "mis-i")
# gcc re-sweeps every live rectangle each round (about 5 s on 1000
# squares, against 0.3 s for the others, on a 2-core x86-64 VM), so on
# ``squares`` it solves a smaller square instance.
SQUARES_GCC_N = 250


@dataclass(frozen=True)
class Case:
    """One instance and the algorithms that solve it."""

    instance: Instance
    algorithms: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    """Cases for instance number ``i`` of a seed, and how many are recorded.

    The first ``recorded`` instances are built during set-up and are always
    solved, so their per-solve records and size means depend on the seed
    alone. Later instances are built between solves until time is up.
    """

    cases: Callable[[int, int], list[Case]]
    recorded: int
    reference: str = "mixed"  # the kernel run.Reference times to track the machine's speed

    def setup(self, seed: int) -> list[list[Case]]:
        return [self.cases(seed, i) for i in range(self.recorded)]


WORKLOADS = {
    "uniform": Workload(lambda seed, i: [Case(uniform(seed, i), ALGORITHMS)], 32),
    "squares": Workload(
        lambda seed, i: [
            Case(squares(seed, i), ("gcc-i", "mis", "mis-i")),
            Case(squares(seed, i, SQUARES_GCC_N), ("gcc",)),
        ],
        6,
    ),
    # filter_dominated's numpy blocks take most of every solve here.
    "clustered": Workload(lambda seed, i: [Case(clustered(seed, i), ALGORITHMS)], 8, "numpy"),
}
