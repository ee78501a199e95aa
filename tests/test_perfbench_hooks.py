"""The benchmark tracer still finds every name it hooks in the library.

``perfbench/tracer.py`` patches functions and methods by name, and reports
a name it cannot find as absent instead of failing. This loads it by path
and checks that nothing is absent, that a traced ``gcc`` solve of each
benchmark family (built by ``perfbench/workloads.py``, also loaded by path)
reaches the sweep and segment-tree hooks, so a renamed hook or a ``gcc``
that stops sweeping on some family fails here too, that traced
``gcc_i`` and ``mis_greedy`` solves of each family count the simplicial
search's hits and work, and which benchmark solves switch to the
corner-depth state.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from rectcover import heuristics
from rectcover.geometry import filter_dominated, generate_instance

from conftest import inst_of

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def tracer_module():
    yield from _load("perfbench_tracer", PERFBENCH / "tracer.py")


@pytest.fixture(scope="module")
def workloads_module():
    yield from _load("perfbench_workloads", PERFBENCH / "workloads.py")


def test_every_hook_resolves(tracer_module):
    assert tracer_module.Tracer().absent == []


@pytest.mark.parametrize("workload", ["uniform", "squares", "clustered"])
def test_traced_gcc_counts_sweep_and_segment_tree(tracer_module, workloads_module, workload):
    # instance 0 of seed 1002, as the benchmark's set-up builds it; on
    # squares, gcc solves the smaller square instance
    (case,) = [c for c in workloads_module.WORKLOADS[workload].cases(1002, 0) if "gcc" in c.algorithms]
    tracer = tracer_module.Tracer()
    original = heuristics.max_clique_sweep
    with tracer.installed(0) as counts:
        heuristics.gcc(case.instance)
    assert heuristics.max_clique_sweep is original
    for key in ("cliques.max_clique_sweep.calls", "segtree.cells", "segtree.add_calls"):
        assert counts[key] > 0, key
    if workload == "uniform":
        # the first sweep covers every kept box, counted as boxes, not coordinate rows
        kept, _ = filter_dominated(case.instance)
        assert counts["cliques.max_clique_sweep.rects_in"] >= len(kept)


@pytest.mark.parametrize("layout", ["uniform", "chain3"])
def test_traced_mis_counts_one_hit_per_member(tracer_module, layout, chain3):
    # on chain3 the first hit is vertex 0, which a truthiness test would miss
    instance = generate_instance(60, seed=7) if layout == "uniform" else inst_of(chain3)
    tracer = tracer_module.Tracer()
    with tracer.installed(0) as counts:
        result = heuristics.mis_greedy(instance)
    assert counts["cliques.find_simplicial.hits"] == result.size
    assert counts["cliques.find_simplicial.entry_accesses"] > 0


@pytest.mark.parametrize("workload", ["uniform", "squares", "clustered"])
def test_traced_searches_count_hits_and_work(tracer_module, workloads_module, workload):
    # the tracer counts entry_accesses only if SimplicialSearchStats lives in
    # find_simplicial's own module; a hit is a simplicial neighborhood stabbed
    # by gcc-i and a member taken by mis
    solvers = {"gcc-i": (heuristics.gcc_i, "theta_count"), "mis": (heuristics.mis_greedy, "size")}
    solved = set()
    for case in workloads_module.WORKLOADS[workload].cases(1002, 0):
        for name in solvers.keys() & set(case.algorithms):
            solve, hits = solvers[name]
            with tracer_module.Tracer().installed(0) as counts:
                result = solve(case.instance)
            assert counts["cliques.find_simplicial.entry_accesses"] > 0, name
            assert counts["cliques.find_simplicial.hits"] == getattr(result, hits), name
            solved.add(name)
    assert solved == solvers.keys()


# The clique solves of instance 0 of seed 1002 that build the corner state.
# A peel builds it after its first sweep whose clique falls short of the
# bound: on uniform and squares the first sweep does; on clustered every
# gcc sweep reaches its bound and the gcc-i/mis-i peels never sweep.
CORNER_BUILDS = {"uniform": {"gcc", "gcc-i", "mis-i"}, "squares": {"gcc", "gcc-i", "mis-i"}, "clustered": set()}


@pytest.mark.parametrize("workload", list(CORNER_BUILDS))
def test_benchmark_solves_that_build_the_corner_state(workloads_module, workload, monkeypatch):
    solvers = {"gcc": heuristics.gcc, "gcc-i": heuristics.gcc_i, "mis-i": heuristics.mis_i}
    build = heuristics.CornerDepths
    built = set()
    for case in workloads_module.WORKLOADS[workload].cases(1002, 0):
        for name in solvers.keys() & set(case.algorithms):

            def recorded(*args, name=name):
                built.add(name)
                return build(*args)

            monkeypatch.setattr(heuristics, "CornerDepths", recorded)
            solvers[name](case.instance)
    assert built == CORNER_BUILDS[workload]
