"""Acceptance gate: one test per shipping criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion. The statistical criteria share a single 20-seed benchmark
sweep (module-scoped fixture) so the suite stays within its time budget.
"""

import math
import random
import subprocess
import sys
import time

import pytest

from rectcover.bench import run_bench, trial_seed
from rectcover.cliques import max_clique_sweep
from rectcover.geometry import filter_dominated, generate_instance
from rectcover.graph import build_graph, find_simplicial
from rectcover.heuristics import gcc, gcc_i, mis_greedy, mis_i
from rectcover.oracles import (
    exact_mcc,
    exact_mis,
    max_clique_candidates,
    simplicial_scan,
    verify_cover,
    verify_independent,
)

from conftest import inst_of, mk

BENCH_SIZES = (500, 1000, 5000)
BENCH_TRIALS = 20
BENCH_SEED = 1

# expected mean sizes for uniform random unit-square instances, ±20%
EXPECTED_MEANS = {
    500: {"gcc": 53, "gcc-i": 48, "mis": 46, "mis-i": 41},
    1000: {"gcc": 77, "gcc-i": 71, "mis": 64, "mis-i": 55},
    5000: {"gcc": 195, "gcc-i": 180, "mis": 155, "mis-i": 124},
}


@pytest.fixture(scope="module")
def bench():
    t0 = time.perf_counter()
    rows, records = run_bench(list(BENCH_SIZES), BENCH_TRIALS, BENCH_SEED)
    elapsed = time.perf_counter() - t0
    return rows, records, elapsed


def test_criterion_1_max_clique_oracle_equivalence():
    # 500 random instances, n in [2, 40]: the sweep's witness, members and
    # stab point, equals the candidate enumeration's
    t0 = time.perf_counter()
    rng = random.Random(101)
    for t in range(500):
        n = rng.randint(2, 40)
        instance = generate_instance(n, seed=trial_seed(101, n, t))
        sweep = max_clique_sweep(list(instance.rects))
        oracle = max_clique_candidates(list(instance.rects))
        assert sweep == oracle, (t, n, instance.seed)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_2_simplicial_soundness_completeness():
    # 500 random instances, n in [2, 25]: a vertex iff the scan is nonempty
    t0 = time.perf_counter()
    rng = random.Random(102)
    for t in range(500):
        n = rng.randint(2, 25)
        instance = generate_instance(n, seed=trial_seed(102, n, t))
        g = build_graph(instance.rects)
        scan = simplicial_scan(g)
        vertex = find_simplicial(g)
        assert (vertex is not None) == bool(scan), (t, n, instance.seed)
        if vertex is not None:
            assert vertex in scan, (t, n, instance.seed)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_3_sandwich_suite():
    # 200 random instances, n in [5, 18]: heuristics bracket the exact optima
    t0 = time.perf_counter()
    rng = random.Random(103)
    for t in range(200):
        n = rng.randint(5, 18)
        instance = generate_instance(n, seed=trial_seed(103, n, t))
        opt_ind = exact_mis(build_graph(instance.rects))[0]
        opt_cov = exact_mcc(list(instance.rects))[0]
        ctx = (t, n, instance.seed)
        assert mis_greedy(instance).size <= opt_ind, ctx
        assert mis_i(instance).size <= opt_ind, ctx
        assert opt_ind <= opt_cov, ctx
        assert opt_cov <= gcc_i(instance).size, ctx
        assert opt_cov <= gcc(instance).size, ctx
    assert time.perf_counter() - t0 < 300.0


def test_criterion_4_validity_of_all_outputs(bench):
    # every benchmark run was verified at run time
    _, records, _ = bench
    assert records and all(rec.verified for rec in records)
    # spot instances, including boundary-touch layouts
    touch_grid = [
        mk(i, j, i + 1, j + 1) for i in range(4) for j in range(4)
    ]
    cases = [inst_of(touch_grid)]
    for t, n in enumerate((50, 200, 800)):
        cases.append(generate_instance(n, seed=trial_seed(104, n, t)))
    for instance in cases:
        for algo in (gcc, gcc_i):
            r = algo(instance)
            assert verify_cover(instance.rects, r.points, r.assignment)
        for algo in (mis_greedy, mis_i):
            r = algo(instance)
            assert verify_independent(instance.rects, r.members)


def test_criterion_5_mean_sizes_match_expected(bench):
    rows, _, elapsed = bench
    for row in rows:
        for algo, expected in EXPECTED_MEANS[row.n].items():
            mean = row.means[algo]
            assert 0.8 * expected <= mean <= 1.2 * expected, (
                row.n,
                algo,
                mean,
                expected,
            )
    assert elapsed < 600.0  # the full 20-seed sweep finishes in minutes


def test_criterion_6_cover_to_independent_ratio(bench):
    rows, _, _ = bench
    for row in rows:
        ratio = row.means["gcc-i"] / row.means["mis"]
        assert 1.0 <= ratio <= 1.5, (row.n, ratio)


def test_criterion_7_sqrt_scaling_bands(bench):
    rows, _, _ = bench
    for row in rows:
        root = math.sqrt(row.n)
        assert row.means["gcc-i"] <= 3.0 * root, (row.n, row.means["gcc-i"])
        assert row.means["mis"] >= 1.9 * root, (row.n, row.means["mis"])


def test_criterion_8_benchmark_csv_byte_identical(tmp_path):
    args = [
        sys.executable, "-m", "rectcover", "bench",
        "--n-list", "120,300", "--trials", "4", "--seed", "1",
    ]
    first = subprocess.run(args, capture_output=True, text=True)
    second = subprocess.run(args, capture_output=True, text=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.count("\n") == 3


def test_criterion_9_large_instance_smoke():
    # n=10000 with the quadratic cover heuristic only, via the opt-in flag
    t0 = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, "-m", "rectcover", "bench",
            "--n-list", "10000", "--trials", "1", "--seed", "1",
            "--algos", "gcc", "--allow-large",
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    line = proc.stdout.strip().split("\n")[1]
    assert line.startswith("10000,1,")
    assert time.perf_counter() - t0 < 600.0


def test_criterion_10_kept_count_band():
    # measured mean kept count after domination at n=1000 is 284 over these
    # seeds, about 2x sqrt(n)(1 + ln sqrt(n)) = 141
    n = 1000
    kept = [
        len(filter_dominated(generate_instance(n, seed=trial_seed(BENCH_SEED, n, t)))[0])
        for t in range(10)
    ]
    assert 250 <= sum(kept) / len(kept) <= 320, kept
