"""Benchmark driver: run the heuristics over seeded random instances.

Per-trial seeds are a pure function of (base seed, instance size, trial
index), so any single table row — or single run — can be reproduced without
replaying the rest of the sweep. Every run is verified (cover points stab
all rectangles; independent sets are pairwise interior-disjoint) before it
is aggregated; a failed verification aborts the sweep with a reproducer.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from .cliques import CornerDepths, max_clique_sweep
from .geometry import Instance, UnstabbableOverlapError, filter_dominated, generate_instance
from .graph import bit_indices, build_graph, find_simplicial, find_top_cliques
from .heuristics import CoverResult, IndependentSetResult, _narrowed_max_clique, gcc, gcc_i, mis_greedy, mis_i
from .oracles import (
    DEFAULT_MCC_CAP,
    DEFAULT_MIS_CAP,
    exact_mcc,
    exact_mis,
    first_kept_inside,
    max_clique_candidates,
    simplicial_scan,
    verify_cover,
    verify_independent,
)

__all__ = [
    "ALGORITHMS",
    "COVER_ALGOS",
    "RunRecord",
    "BenchRow",
    "VerificationError",
    "trial_seed",
    "run_algorithm",
    "run_bench",
    "format_csv",
    "verify_random",
]

ALGORITHMS: dict[str, Callable] = {
    "gcc": gcc,
    "gcc-i": gcc_i,
    "mis": mis_greedy,
    "mis-i": mis_i,
}

COVER_ALGOS = frozenset({"gcc", "gcc-i"})

_MASK64 = (1 << 64) - 1


def trial_seed(base: int, n: int, trial: int) -> int:
    """Derive a 64-bit seed for one (size, trial) cell of a sweep.

    Uses the splitmix64 finalizer over a mix of the inputs, so nearby
    (n, trial) pairs land on unrelated generator states.
    """
    x = (base ^ (n * 0x9E3779B97F4A7C15) ^ (trial * 0xBF58476D1CE4E5B9)) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class VerificationError(RuntimeError):
    """A heuristic produced an invalid cover or independent set."""


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one algorithm on one instance."""

    seed: int
    n: int
    algorithm: str
    size: int
    theta: int
    phi: int
    elapsed_ms: float
    verified: bool


@dataclass(frozen=True)
class BenchRow:
    """Aggregated means for one instance size."""

    n: int
    trials: int
    means: dict[str, float]
    mean_ms: dict[str, float]

    def ratio(self) -> float:
        """Mean refined-cover size over mean greedy independent set size."""
        cover = self.means.get("gcc-i")
        ind = self.means.get("mis")
        if cover is None or ind is None or ind == 0:
            return float("nan")
        return cover / ind


def run_algorithm(
    name: str,
    instance: Instance,
    result: CoverResult | IndependentSetResult | None = None,
) -> RunRecord:
    """Verify and record one algorithm's outcome, running it if needed."""
    if result is None:
        result = ALGORITHMS[name](instance)
    if isinstance(result, CoverResult):
        ok = verify_cover(instance, result.points, result.assignment)
        theta, phi = result.theta_count, result.phi_count
    else:
        ok = verify_independent(instance, result.members)
        theta, phi = 0, 0
    return RunRecord(
        seed=instance.seed if instance.seed is not None else -1,
        n=instance.n,
        algorithm=name,
        size=result.size,
        theta=theta,
        phi=phi,
        elapsed_ms=result.elapsed * 1000.0,
        verified=ok,
    )


def run_bench(
    n_list: Sequence[int],
    trials: int,
    base_seed: int,
    algos: Iterable[str] = ("gcc", "gcc-i", "mis", "mis-i"),
    progress: Callable[[str], None] | None = None,
) -> tuple[list[BenchRow], list[RunRecord]]:
    """Run a full sweep; returns per-size aggregate rows and all raw records.

    Raises VerificationError with a reproduction recipe if any run produces
    an invalid result.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    algos = list(algos)
    for name in algos:
        if name not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {name!r}")
    rows: list[BenchRow] = []
    records: list[RunRecord] = []
    for n in n_list:
        sizes: dict[str, list[int]] = {a: [] for a in algos}
        times: dict[str, list[float]] = {a: [] for a in algos}
        for t in range(trials):
            seed = trial_seed(base_seed, n, t)
            instance = generate_instance(n, seed=seed)
            for name in algos:
                rec = run_algorithm(name, instance)
                if not rec.verified:
                    raise VerificationError(
                        f"{name} produced an invalid result on n={n}, trial {t} "
                        f"(seed {seed}); reproduce with "
                        f"generate_instance({n}, seed={seed})"
                    )
                records.append(rec)
                sizes[name].append(rec.size)
                times[name].append(rec.elapsed_ms)
            if progress is not None:
                progress(f"n={n} trial={t + 1}/{trials}")
        rows.append(
            BenchRow(
                n=n,
                trials=trials,
                means={a: statistics.fmean(sizes[a]) for a in algos},
                mean_ms={a: statistics.fmean(times[a]) for a in algos},
            )
        )
    return rows, records


_CSV_ALGO_COLS = (("gcc", "gcc"), ("gcc_i", "gcc-i"), ("mis", "mis"), ("mis_i", "mis-i"))


def format_csv(rows: Sequence[BenchRow], timings: bool = False) -> str:
    """Render aggregate rows as CSV.

    Mean sizes use four decimal places so reruns are byte-identical. Timing
    columns are opt-in because they are inherently non-reproducible.
    """
    header = ["n", "trials", "gcc", "gcc_i", "mis", "mis_i", "ratio_gcci_mis", "two_sqrt_n", "three_sqrt_n"]
    if timings:
        header += ["t_gcc_ms", "t_gcc_i_ms", "t_mis_ms", "t_mis_i_ms"]
    lines = [",".join(header)]

    def fmt(value: float | None) -> str:
        if value is None:
            return ""
        if math.isnan(value):
            return "nan"
        return "%.4f" % value

    for row in rows:
        cells = [str(row.n), str(row.trials)]
        cells += [fmt(row.means.get(key)) for _, key in _CSV_ALGO_COLS]
        cells.append(fmt(row.ratio()))
        cells.append(fmt(2.0 * math.sqrt(row.n)))
        cells.append(fmt(3.0 * math.sqrt(row.n)))
        if timings:
            cells += [fmt(row.mean_ms.get(key)) for _, key in _CSV_ALGO_COLS]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def format_records_csv(records: Sequence[RunRecord]) -> str:
    """Render raw per-run records as CSV (sizes and counters only)."""
    lines = ["seed,n,algorithm,size,theta,phi"]
    for r in records:
        lines.append(f"{r.seed},{r.n},{r.algorithm},{r.size},{r.theta},{r.phi}")
    return "\n".join(lines) + "\n"


def verify_random(
    count: int,
    n: int,
    base_seed: int,
    mis_cap: int = DEFAULT_MIS_CAP,
    mcc_cap: int = DEFAULT_MCC_CAP,
) -> list[str]:
    """Cross-check heuristics and sweeps against the exact oracles.

    Runs ``count`` random instances of size ``n`` and checks, per instance:
    ``filter_dominated`` gives the kept indices and witnesses of the plain
    reference ``first_kept_inside``; the sweep's and a ``CornerDepths``
    state's maximum cliques, read from box arrays of ``instance.coords`` as
    the heuristics read them, equal the enumeration oracle's witness, read
    from the rectangles, on every residual of a peel by the oracle's
    cliques, with members as positions in the live list, and so does the
    narrowed sweep ``gcc`` makes (``heuristics._narrowed_max_clique`` over
    the cliques of ``find_top_cliques``) on each residual whose top degree
    class holds a simplicial vertex, with the search's memory of earlier
    residuals, as in a peel; the simplicial
    search returns the member of least (degree, id) of the brute-force
    simplicial scan, or None when the scan is empty, on every residual of a
    peel that deletes the found vertex's closed neighborhood, or else the
    maximum-degree vertex, as ``mis_greedy``'s peel does (so the non-cliques
    a search remembers from earlier residuals, and the vertices it rejects
    for a lower-degree neighbor, are checked together); every heuristic
    output is valid; and the size sandwich ``mis <= exact MIS <= exact cover
    <= gcc-i`` holds. Returns a list of violation descriptions (empty means
    all checks passed).

    Raises:
        ValueError: if ``count`` is negative.
    """
    if count < 0:
        raise ValueError(f"count must be at least 0, got {count}")
    violations: list[str] = []
    for t in range(count):
        seed = trial_seed(base_seed, n, t)
        instance = generate_instance(n, seed=seed)
        tag = f"[n={n} seed={seed}]"

        got, want = filter_dominated(instance), first_kept_inside(instance.rects)
        if got != want:
            violations.append(f"{tag} filter_dominated {got} != reference {want}")

        # the engines get what the heuristics' peel gives them, box arrays
        # read from instance.coords; the oracle gets the rectangles
        rects, boxes = instance.rects, instance.coords.T
        state = CornerDepths(instance) if rects else None
        graph = build_graph(instance)
        # a view of its own, so the simplicial check below starts with no
        # memory of the clique searches here
        residual = graph.remove_vertices(())
        live = list(range(len(rects)))
        while live:
            want = max_clique_candidates([rects[v] for v in live])
            got = {"sweep": max_clique_sweep(boxes[live])}
            alive = sum(1 << v for v in live)
            try:
                corner = state.max_clique(alive)
                got["corner"] = replace(corner, members=tuple(map(live.index, corner.members)))
            except UnstabbableOverlapError as err:
                got["corner"] = repr(err)
            tops = find_top_cliques(residual)
            if tops:
                narrowed = _narrowed_max_clique(boxes, alive, tops)
                got["narrowed"] = replace(narrowed, members=tuple(map(live.index, narrowed.members)))
            wrong = [f"{name} max clique {w}" for name, w in got.items() if w != want]
            if wrong:
                violations.append(f"{tag} {' and '.join(wrong)} != oracle {want} on the live boxes {live}")
                break
            residual = residual.remove_vertices(live[i] for i in want.members)
            live = [v for i, v in enumerate(live) if i not in want.members]

        residual = graph
        while residual.n:
            scan = simplicial_scan(residual)
            vertex = find_simplicial(residual)
            least = min(scan, key=lambda v: (residual.degree(v), v)) if scan else None
            if vertex != least:
                violations.append(
                    f"{tag} simplicial search returned {vertex}, the scan's least (degree, id) "
                    f"member is {least}, on the live vertices {residual.vertices()}"
                )
                break
            if vertex is None:
                residual = residual.remove_vertices([residual.max_degree_vertex()])
            else:
                residual = residual.remove_vertices(bit_indices(residual.neighborhood_mask(vertex)))

        records = {name: run_algorithm(name, instance) for name in ALGORITHMS}
        for name, rec in records.items():
            if not rec.verified:
                what = "cover invalid" if name in COVER_ALGOS else "set not independent"
                violations.append(f"{tag} {name} {what}")

        opt_ind, _ = exact_mis(graph, cap=mis_cap)
        opt_cover, _ = exact_mcc(rects, cap=mcc_cap)
        lo, hi = records["mis"].size, records["gcc-i"].size
        if not (lo <= opt_ind <= opt_cover <= hi):
            violations.append(
                f"{tag} sandwich violated: mis {lo}, exact independent "
                f"{opt_ind}, exact cover {opt_cover}, gcc-i {hi}"
            )
    return violations
