import math
import statistics
from dataclasses import replace
from types import SimpleNamespace

import pytest

from rectcover import bench, heuristics
from rectcover.bench import (
    BenchRow,
    format_csv,
    run_bench,
    trial_seed,
    verify_random,
)
from rectcover.geometry import Point, contains


def test_trial_seed_is_pure_and_64bit():
    assert trial_seed(1, 500, 0) == trial_seed(1, 500, 0)
    seen = {trial_seed(1, n, t) for n in (100, 200, 300) for t in range(50)}
    assert len(seen) == 150  # no collisions across the grid
    assert all(0 <= s < 2**64 for s in seen)


def test_trial_seed_changes_with_base():
    assert trial_seed(1, 500, 0) != trial_seed(2, 500, 0)


def test_run_bench_shapes_and_consistency():
    rows, records = run_bench([30, 50], trials=4, base_seed=7)
    assert [r.n for r in rows] == [30, 50]
    assert all(r.trials == 4 for r in rows)
    assert len(records) == 2 * 4 * 4
    assert all(rec.verified for rec in records)
    # aggregate means must match the raw records
    for row in rows:
        for algo in ("gcc", "gcc-i", "mis", "mis-i"):
            sizes = [
                rec.size
                for rec in records
                if rec.n == row.n and rec.algorithm == algo
            ]
            assert row.means[algo] == statistics.fmean(sizes)


def test_run_bench_subset_of_algorithms():
    rows, records = run_bench([25], trials=3, base_seed=1, algos=["gcc"])
    assert set(rows[0].means) == {"gcc"}
    assert {rec.algorithm for rec in records} == {"gcc"}
    assert math.isnan(rows[0].ratio())


@pytest.mark.parametrize("trials", [0, -1])
def test_run_bench_rejects_no_trials(trials):
    with pytest.raises(ValueError, match="trials"):
        run_bench([10], trials, 1)


def test_format_csv_layout():
    row = BenchRow(
        n=100,
        trials=5,
        means={"gcc": 12.0, "gcc-i": 10.5, "mis": 9.0, "mis-i": 8.25},
        mean_ms={"gcc": 1.0, "gcc-i": 2.0, "mis": 3.0, "mis-i": 4.0},
    )
    text = format_csv([row])
    lines = text.strip().split("\n")
    assert lines[0] == (
        "n,trials,gcc,gcc_i,mis,mis_i,ratio_gcci_mis,two_sqrt_n,three_sqrt_n"
    )
    cells = lines[1].split(",")
    assert cells[0] == "100" and cells[1] == "5"
    assert cells[2] == "12.0000" and cells[5] == "8.2500"
    assert cells[6] == "1.1667"
    assert cells[7] == "20.0000" and cells[8] == "30.0000"
    assert len(cells) == 9


def test_format_csv_timings_opt_in():
    row = BenchRow(n=10, trials=1, means={"gcc": 3.0}, mean_ms={"gcc": 0.5})
    plain = format_csv([row])
    timed = format_csv([row], timings=True)
    assert "t_gcc_ms" not in plain
    assert "t_gcc_ms" in timed
    # absent algorithms leave empty cells either way
    assert ",,," in plain


def test_bench_rerun_identical():
    a, _ = run_bench([40], trials=3, base_seed=5)
    b, _ = run_bench([40], trials=3, base_seed=5)
    assert format_csv(a) == format_csv(b)


def test_single_row_reproducible_out_of_sweep():
    # a row rerun alone must equal the same row from a larger sweep
    full, _ = run_bench([20, 45], trials=3, base_seed=9)
    alone, _ = run_bench([45], trials=3, base_seed=9)
    assert full[1].means == alone[0].means


def test_verify_random_clean():
    assert verify_random(3, 11, base_seed=2) == []


def test_verify_random_large_batch():
    assert verify_random(100, 15, base_seed=7) == []


def test_verify_random_vacuous():
    assert verify_random(0, 15, base_seed=1) == []


def test_verify_random_inject_fault(monkeypatch):
    # an oracle that counts one too many makes the sweep disagree with it
    real = bench.max_clique_candidates
    monkeypatch.setattr(
        bench, "max_clique_candidates", lambda rects: SimpleNamespace(size=real(rects).size + 1)
    )
    violations = verify_random(2, 11, base_seed=2)
    assert len(violations) == 2
    assert all("sweep max clique" in v for v in violations)


def test_verify_random_compares_whole_witnesses(monkeypatch):
    # an oracle of the right size but another stab point disagrees too
    real = bench.max_clique_candidates
    monkeypatch.setattr(
        bench, "max_clique_candidates", lambda rects: replace(real(rects), stab=Point(-1.0, -1.0))
    )
    violations = verify_random(2, 11, base_seed=2)
    assert len(violations) == 2
    assert all("sweep max clique" in v for v in violations)


def test_verify_random_checks_the_corner_state(monkeypatch):
    # a corner state whose witness lacks a member disagrees with the oracle
    # and the sweep does not
    class Short(bench.CornerDepths):
        def max_clique(self, alive):
            witness = super().max_clique(alive)
            return replace(witness, members=witness.members[1:])

    monkeypatch.setattr(bench, "CornerDepths", Short)
    violations = verify_random(2, 11, base_seed=2)
    assert len(violations) == 2
    assert all("corner max clique" in v and "sweep max clique" not in v for v in violations)
    assert all("on the live boxes [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]" in v for v in violations)


def test_verify_random_checks_the_corner_state_after_deletions(monkeypatch):
    # a corner state that never lowers a depth is right on the whole
    # instance and goes wrong once the oracle's first clique is deleted
    class Stale(bench.CornerDepths):
        def _lower(self, v):
            pass

    monkeypatch.setattr(bench, "CornerDepths", Stale)
    violations = verify_random(2, 11, base_seed=2)
    assert len(violations) == 2
    assert all("corner max clique" in v and "sweep max clique" not in v for v in violations)
    assert not any("on the live boxes [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]" in v for v in violations)


def test_verify_random_checks_the_narrowed_sweep(monkeypatch):
    # a narrowed sweep of the last maximum clique in sweep order instead of
    # the first disagrees with the oracle on a residual with two or more,
    # such as a tail of isolated boxes; the full sweep and the state do not
    real = heuristics.first_clique_boxes

    def last_in_sweep_order(boxes, alive, cliques):
        keys = [(-boxes[c, 3].min(), boxes[c, 0].max()) for c in cliques]
        return real(boxes, alive, [cliques[keys.index(max(keys))]])

    monkeypatch.setattr(heuristics, "first_clique_boxes", last_in_sweep_order)
    violations = verify_random(3, 11, base_seed=2)
    assert len(violations) == 2
    assert all("narrowed max clique" in v and "sweep max clique" not in v for v in violations)
    assert all("corner max clique" not in v for v in violations)


def test_verify_random_wants_the_least_simplicial_vertex(monkeypatch):
    # a simplicial vertex that is not the scan's least (degree, id) one is
    # still a violation
    def largest(graph):
        scan = bench.simplicial_scan(graph)
        return max(scan, key=lambda v: (graph.degree(v), v)) if scan else None

    monkeypatch.setattr(bench, "find_simplicial", largest)
    violations = verify_random(2, 11, base_seed=2)
    assert len(violations) == 2
    assert all("least (degree, id)" in v for v in violations)


def test_verify_random_checks_the_search_after_deletions(monkeypatch):
    # a search that is right on the whole graph and returns another
    # simplicial vertex on a residual is caught on the residual
    real = bench.find_simplicial

    def fresh_only(graph):
        if graph.n == len(graph.raw_adjacency()):
            return real(graph)
        scan = bench.simplicial_scan(graph)
        return max(scan, key=lambda v: (graph.degree(v), v)) if scan else None

    monkeypatch.setattr(bench, "find_simplicial", fresh_only)
    violations = verify_random(2, 11, base_seed=2)
    assert len(violations) == 2
    assert all("least (degree, id)" in v for v in violations)
    assert not any("on the live vertices [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]" in v for v in violations)


def test_verify_random_checks_the_filter(monkeypatch):
    # a filter that takes the highest-index kept box inside as a witness
    # differs from the reference wherever a box holds two kept ones
    real = bench.filter_dominated

    def last_witness(instance):
        kept, removed = real(instance)
        rects = instance.rects
        return kept, [(i, max(j for j in kept if contains(rects[i], rects[j]))) for i, _ in removed]

    monkeypatch.setattr(bench, "filter_dominated", last_witness)
    violations = verify_random(20, 18, base_seed=17)
    assert violations
    assert all("filter_dominated" in v and "!= reference" in v for v in violations)


def test_verify_random_rejects_negative_count():
    with pytest.raises(ValueError, match="count"):
        verify_random(-1, 11, base_seed=2)
