"""Piercing covers and independent sets of random axis-parallel rectangles.

Rectangles meet only when their open interiors overlap; touching boundaries
do not count. The library builds the intersection graph of an instance,
runs greedy heuristics for small piercing covers (every rectangle contains
a chosen point) and large independent sets (pairwise disjoint interiors),
and provides exact solvers for small instances to check them against.
"""

from .bench import (
    ALGORITHMS,
    BenchRow,
    RunRecord,
    VerificationError,
    format_csv,
    run_bench,
    trial_seed,
    verify_random,
)
from .cliques import CliqueWitness, max_clique_sweep
from .geometry import (
    UNIT_SQUARE,
    DegenerateRectangleError,
    Instance,
    Point,
    Rectangle,
    Region,
    UnstabbableOverlapError,
    common_intersection,
    contains,
    filter_dominated,
    generate_instance,
    interiors_intersect,
    make_rectangle,
)
from .graph import IntersectionGraph, SimplicialSearchStats, build_graph, find_simplicial
from .heuristics import CoverResult, IndependentSetResult, gcc, gcc_i, mis_greedy, mis_i
from .instance_io import (
    InstanceFormatError,
    dumps_instance,
    load_instance,
    loads_instance,
    save_instance,
)
from .oracles import (
    OracleSizeError,
    exact_mcc,
    exact_mis,
    first_kept_inside,
    max_clique_candidates,
    simplicial_scan,
    verify_cover,
    verify_independent,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BenchRow",
    "CliqueWitness",
    "CoverResult",
    "DegenerateRectangleError",
    "IndependentSetResult",
    "Instance",
    "InstanceFormatError",
    "IntersectionGraph",
    "OracleSizeError",
    "Point",
    "Rectangle",
    "Region",
    "RunRecord",
    "SimplicialSearchStats",
    "UNIT_SQUARE",
    "UnstabbableOverlapError",
    "VerificationError",
    "build_graph",
    "common_intersection",
    "contains",
    "dumps_instance",
    "exact_mcc",
    "exact_mis",
    "filter_dominated",
    "find_simplicial",
    "first_kept_inside",
    "format_csv",
    "gcc",
    "gcc_i",
    "generate_instance",
    "interiors_intersect",
    "load_instance",
    "loads_instance",
    "make_rectangle",
    "max_clique_candidates",
    "max_clique_sweep",
    "mis_greedy",
    "mis_i",
    "run_bench",
    "save_instance",
    "simplicial_scan",
    "trial_seed",
    "verify_cover",
    "verify_independent",
    "verify_random",
]
