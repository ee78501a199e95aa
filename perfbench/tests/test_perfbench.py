"""Tests of the benchmark's own parts: generators, span arithmetic, hooks.

Run with: python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import pytest  # noqa: E402

import rectcover  # noqa: E402
import rectcover.heuristics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import HOOKS, Hook, Span, Tracer, self_times  # noqa: E402


@pytest.mark.parametrize("family", [workloads.uniform, workloads.squares, workloads.clustered])
def test_generators_are_deterministic_per_seed(family):
    a = family(7, 0, 200)
    assert family(7, 0, 200) == a
    assert family(8, 0, 200).rects != a.rects
    assert family(7, 1, 200).rects != a.rects
    assert a.n == 200


def test_squares_are_equal_and_undominated():
    inst = workloads.squares(3, 0, 400)
    sides = {(r.width, r.height) for r in inst.rects}
    assert max(w for w, _ in sides) - min(w for w, _ in sides) < 1e-12
    kept, removed = rectcover.filter_dominated(inst)
    assert removed == []


def test_clustered_boxes_share_few_centres_and_are_mostly_dominated():
    inst = workloads.clustered(3, 0, 2000)
    for r in inst.rects:
        assert r.width <= 2 * workloads.MAX_HALF_WIDTH
        assert r.height <= 2 * workloads.MAX_HALF_WIDTH
    kept, _ = rectcover.filter_dominated(inst)
    assert len(kept) < 0.25 * inst.n
    # Every box contains one of the centres, so the centres pierce them all.
    assert rectcover.gcc(inst).size <= workloads.CLUSTERS


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_cases_are_deterministic_per_seed(name):
    w = workloads.WORKLOADS[name]
    a, b = w.cases(5, 3), w.cases(5, 3)
    assert [c.instance for c in a] == [c.instance for c in b]
    assert [c.instance for c in w.cases(5, 4)] != [c.instance for c in a]
    assert {x for c in a for x in c.algorithms} == set(workloads.ALGORITHMS)


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "a.child", 2.0, 3.0, 1, 0),
        Span(3, "b", 5.0, 6.5, 0, 0),
        # Overlaps b and sticks out of root: only [6.5, 10] more is covered.
        Span(4, "c", 6.0, 12.0, 0, 0),
        Span(5, "other root", 20.0, 21.0, None, 1),
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - (3.0 + 1.5 + 3.5))
    assert st[1] == pytest.approx(2.0)
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(1.5)
    assert st[4] == pytest.approx(6.0)
    assert st[5] == pytest.approx(1.0)


def test_spans_nest_through_the_tracer():
    tr = Tracer(())
    with tr.installed(3), tr.span("outer"), tr.span("inner"):
        pass
    inner, outer = tr.spans
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.parent == outer.id and outer.parent is None
    assert inner.solve == outer.solve == 3
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_absent_hooks_are_reported_not_raised():
    def wrap(tracer, fn):
        raise AssertionError("an absent hook must not be wrapped")

    tr = Tracer(
        (
            Hook("rectcover.no_such_module", "f", wrap),
            Hook("rectcover.heuristics", "_no_such_function", wrap),
            Hook("rectcover.graph", "NoSuchClass.method", wrap),
        )
    )
    assert tr.absent == [
        "rectcover.no_such_module.f",
        "rectcover.heuristics._no_such_function",
        "rectcover.graph.NoSuchClass.method",
    ]
    with tr.installed(0):
        assert rectcover.gcc(rectcover.generate_instance(20, seed=1)).size > 0


def test_metrics_of_absent_hooks_are_left_out():
    inst = rectcover.generate_instance(40, seed=2)
    case = workloads.Case(inst, ("gcc", "mis"))
    segtree_hooks = tuple(h for h in HOOKS if h.module != "rectcover.segtree")
    missing = Hook("rectcover.segtree", "NoSuchTree.add", HOOKS[-1].wrap)
    tr = Tracer(segtree_hooks + (missing,))
    runner = run.Runner(rectcover, workloads.WORKLOADS["uniform"], 0, [[case]], tr)
    for algo in case.algorithms:
        runner.solve_once(0, 0, case, algo)
    notes = {}
    m = run.per_layer(runner, tr, [[len(rectcover.filter_dominated(inst)[0])]], notes)
    assert tr.absent == ["rectcover.segtree.NoSuchTree.add"]
    assert "gcc.segtree.add_calls" not in m and notes["gcc.segtree.add_calls"].startswith("absent")
    assert "gcc-i.heuristics.self_ms" not in m  # gcc-i did not run
    assert m["gcc.cliques.max_clique_sweep.calls"][0] > 0
    assert all(value != 0 for value, _ in m.values())


def test_every_listed_per_layer_metric_is_given_on_clustered_boxes():
    # On clustered boxes gcc-i and mis-i never sweep and mis never falls back
    # to max_degree_vertex, so BENCHMARK.json may not list those metrics.
    inst = workloads.clustered(6, 0, 600)
    case = workloads.Case(inst, workloads.ALGORITHMS)
    tr = Tracer()
    runner = run.Runner(rectcover, workloads.WORKLOADS["uniform"], 0, [[case]], tr)
    for algo in case.algorithms:
        runner.solve_once(0, 0, case, algo)
    m = run.per_layer(runner, tr, [[len(rectcover.filter_dominated(inst)[0])]], {})
    listed = run.manifest_metrics("per_layer")
    assert listed and [name for name in listed if name not in m] == []
    assert "gcc-i.cliques.max_clique_sweep.ms" not in m


def test_untraced_run_goes_on_until_every_algorithm_has_a_tail():
    tiny = workloads.Workload(
        lambda seed, i: [workloads.Case(rectcover.generate_instance(20, seed=i), workloads.ALGORITHMS)], 1
    )
    runner = run.Runner(rectcover, tiny, 0, tiny.setup(0), None)
    runner.run(1e-6)
    assert runner.failed == 0
    assert all(len(runner.samples[a]) >= run.MIN_SAMPLES for a in workloads.ALGORITHMS)


def test_hooks_record_layers_and_uninstall_restores():
    originals = {h.attr: rectcover.heuristics.__dict__.get(h.attr) for h in HOOKS if h.module == "rectcover.heuristics"}
    inst = rectcover.generate_instance(80, seed=4)
    plain = rectcover.gcc_i(inst)
    tr = Tracer()
    with tr.installed(0):
        traced = rectcover.gcc_i(inst)
    untraced = rectcover.gcc(inst)
    with tr.installed(1):
        greedy = rectcover.gcc(inst)
    assert traced == plain and untraced == greedy
    assert tr.absent == []
    names = {s.name for s in tr.spans if s.solve == 0}
    assert {"geometry.filter_dominated", "graph.build_graph", "cliques.find_simplicial", "graph.remove_vertices"} <= names
    c0, c1 = tr.counts[0], tr.counts[1]
    assert c0["cliques.find_simplicial.calls"] == traced.iterations
    assert c0["cliques.find_simplicial.hits"] == traced.theta_count
    assert c0["cliques.find_simplicial.entry_accesses"] > 0
    assert c1["cliques.max_clique_sweep.calls"] == greedy.iterations
    assert c1["segtree.add_calls"] == 2 * c1["cliques.max_clique_sweep.rects_in"]
    assert c1["segtree.cells"] > 0
    assert {s.solve for s in tr.spans} == {0, 1}  # nothing recorded between traced solves
    for attr, fn in originals.items():
        assert getattr(rectcover.heuristics, attr) is fn


@pytest.mark.parametrize(
    "n, expected",
    [(5, (None, None, 5)), (20, (None, None, 20)), (21, (11, 100.0 * 11 / 21, 21)), (40, (30, 75.0, 40))],
)
def test_tail_leaves_ten_samples_beyond_and_needs_more_than_twenty(n, expected):
    assert run.tail(range(1, n + 1)) == expected


def test_reference_scale_uses_kernel_runs_near_the_solve():
    ref = run.Reference()
    ref.starts = [0.0, 1.0, 10.0, 11.0]
    ref.samples = [3.0, 3.0, 6.0, 6.0]
    assert ref.scale() == pytest.approx(ref.ms / 4.5)
    assert ref.scale_near(0.2, 0.3) == pytest.approx(ref.ms / 3.0)
    assert ref.scale_near(10.5, 10.6) == pytest.approx(ref.ms / 6.0)
    assert ref.scale_near(100.0, 100.5) == pytest.approx(ref.scale())


@pytest.mark.parametrize("kernel", sorted(run.REFERENCE_MS))
def test_reference_kernels_run_and_are_timed(kernel):
    ref = run.Reference(kernel)
    assert ref.measure(1.0) >= 1.0
    assert ref.ms == run.REFERENCE_MS[kernel] and ref.scale() > 0
    assert {w.reference for w in workloads.WORKLOADS.values()} <= set(run.REFERENCE_MS)
