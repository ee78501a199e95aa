"""Outside-in benchmark of the four rectcover heuristics.

Usage:
    python3 perfbench/run.py --workload {uniform,squares,clustered,all}
        --seed N --seconds S --trace {0,1}

One process, one solve at a time (a closed loop with a single client). The
workload's first instances are built from the seed during set-up; every
algorithm solves each of them, then further instances of the same seed are
built and solved until S seconds have gone by. Every output is checked with
``verify_cover`` or ``verify_independent`` (through
``rectcover.bench.run_algorithm``). A solve that raises or fails its check
counts as failed and the run goes on.

With ``--trace 0`` the last line reports the end-to-end metrics of
``BENCHMARK.json``, and with ``--trace 1`` its per-layer metrics; every
other figure, and any metric a workload does not give, is printed on the
lines above it. End-to-end times are scaled to a reference machine speed
measured in the same run (see ``Reference``); each printed line also gives
the unscaled value. An untraced run goes on past S seconds, for at most
``OVERRUN_S`` more, until every algorithm has solved enough instances for a
tail percentile. With ``--trace 1`` every solve runs twice, once unpatched
and once with the tracer's hooks in place, and the per-layer metrics come
from the traced copies (see ``tracer.py``); the ratio of the two wall times
is ``trace.overhead_ratio``.

Per-solve records of the set-up instances go to ``perfbench/out/`` and are
byte-identical for a given workload and seed; spans of a traced run go to
the same directory. ``--workload all`` runs each workload in its own
process and prints every metric by workload.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import gzip
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"
OUT = HERE / "out"
WORKLOAD_NAMES = ("uniform", "squares", "clustered")
ALGO_ORDER = ("gcc", "gcc-i", "mis", "mis-i")
COVERS = ("gcc", "gcc-i")
SIMPLICIAL_ALGOS = ("gcc-i", "mis", "mis-i")  # the ones that call find_simplicial
SWEEP_ALGOS = ("gcc", "gcc-i", "mis-i")  # the ones that call max_clique_sweep
SETUP_REPEATS = 5  # set-up is repeated at least this often,
SETUP_SECONDS = 4.0  # and for at least this long, to report the median
TAIL_BEYOND = 10
MIN_SAMPLES = 2 * TAIL_BEYOND + 1  # an untraced run goes on past its time until each algorithm has these,
OVERRUN_S = 60.0  # but for no longer than this
# Median ms of each reference kernel on a 2-core x86-64 VM, at its fast speed.
REFERENCE_MS = {"mixed": 3.0, "numpy": 0.9}
REFERENCE_SHARE = 0.05  # reference work after each solve, as a share of its time
SETUP_REFERENCE_MS = 60.0  # reference work before and after each set-up repeat
REFERENCE_WINDOW_S = 4.0  # a solve is scaled by the kernel runs this close to it

_clock = time.perf_counter


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def import_rectcover():
    """Import the package from this tree's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import rectcover
    except ImportError as exc:
        raise SystemExit(f"error: cannot import rectcover from {SRC}: {exc}")
    where = Path(rectcover.__file__).resolve().parent
    if where != (SRC / "rectcover").resolve():
        raise SystemExit(f"error: imported rectcover from {where}, expected {SRC / 'rectcover'}")
    return rectcover


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(rectcover) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "rectcover": str(Path(rectcover.__file__).resolve()),
    }


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds of import plus instance generation, scaled to reference speed.

    Each repeat runs in a fresh interpreter, between two short runs of the
    reference kernel that give the machine's speed at that moment. Cheap
    set-ups are repeated more often, so that each median rests on about
    the same measuring time.
    """
    times = []
    reference = Reference()
    deadline = _clock() + SETUP_SECONDS
    while len(times) < SETUP_REPEATS or _clock() < deadline:
        first = len(reference.samples)
        reference.measure(SETUP_REFERENCE_MS)
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        reference.measure(SETUP_REFERENCE_MS)
        kernel_ms = statistics.median(reference.samples[first:])
        times.append(float(done.stdout.strip().splitlines()[-1]) * reference.ms / kernel_ms)
    return statistics.median(times)


def tail(values):
    """(value, percentile, samples): the highest percentile with 10 samples beyond it.

    With 20 samples or fewer that percentile is at or below the median, so
    there is no tail to report: the value and percentile are None then.
    """
    s = sorted(values)
    n = len(s)
    if n <= 2 * TAIL_BEYOND:
        return None, None, n
    k = n - TAIL_BEYOND
    return s[k - 1], 100.0 * k / n, n


@dataclass(frozen=True)
class _XY:
    x: float
    y: float


@dataclass(frozen=True)
class _Box:
    lo: _XY
    hi: _XY


class Reference:
    """A fixed piece of work that tracks how fast the machine runs right now.

    On a shared 2-core VM the speed of a core was seen to drift by 15-40%
    over minutes, for this kernel and the solves alike. The kernel does the kinds of work the heuristics do (big-integer masks and
    popcounts, a keyed sort, a bit-index loop, a recursive range-add tree,
    attribute-heavy box tests and a numpy comparison block) on
    fixed data, and is part of the benchmark, so no change to the program
    moves it. A solve's time is reported scaled by ``REFERENCE_MS`` over the
    kernel's median time in the seconds around that solve.

    Code of different kinds slows by different amounts when the machine
    does: in one probe the whole kernel ran 1.41 times slower in the slow
    state, the four heuristics on ``uniform`` 1.34-1.43 times and
    ``filter_dominated`` on ``clustered`` boxes (large numpy blocks) 1.18
    times, against 1.25 times for the kernel's numpy block alone. So the
    ``numpy`` kernel, that block by itself, serves workloads that spend
    most of their time in numpy; the ``mixed`` kernel serves the rest.
    """

    def __init__(self, kernel: str = "mixed"):
        import numpy

        self.ms = REFERENCE_MS[kernel]
        self.work = {"mixed": self.mixed, "numpy": self.numpy_block}[kernel]

        rng = random.Random(20121203)
        self.rows = [rng.getrandbits(600) for _ in range(600)]
        self.xs = numpy.array([rng.random() for _ in range(600)])
        self.boxes = []
        for _ in range(300):
            x, y = rng.random(), rng.random()
            lo = _XY(x, y)
            hi = _XY(x + 0.2 * rng.random(), y + 0.2 * rng.random())
            self.boxes.append(_Box(lo, hi))
        self.spans = [(rng.randrange(120), rng.randrange(120, 256)) for _ in range(60)]
        self.samples: list[float] = []  # kernel ms
        self.starts: list[float] = []  # clock at the start of each kernel run

    def mixed(self) -> int:
        alive = (1 << 600) - 1
        degs = {v: (r & alive).bit_count() for v, r in enumerate(self.rows)}
        order = sorted(degs, key=lambda v: (degs[v], v))
        acc = 0
        for v in order[:25]:
            m = self.rows[v] & self.rows[order[-1]]
            while m:
                low = m & -m
                acc += low.bit_length()
                m ^= low
        mx = [0] * 1024
        lazy = [0] * 1024

        def add(node, nlo, nhi, lo, hi, d):
            if lo <= nlo and nhi <= hi:
                mx[node] += d
                lazy[node] += d
                return
            mid = (nlo + nhi) // 2
            if lo < mid:
                add(2 * node, nlo, mid, lo, min(hi, mid), d)
            if hi > mid:
                add(2 * node + 1, mid, nhi, max(lo, mid), hi, d)
            mx[node] = max(mx[2 * node], mx[2 * node + 1]) + lazy[node]

        for lo, hi in self.spans:
            add(1, 0, 256, lo, hi, 1)
        q = self.boxes[0]
        for r in self.boxes:
            if r.lo.x < q.hi.x and q.lo.x < r.hi.x and r.lo.y < q.hi.y and q.lo.y < r.hi.y:
                acc += 1
            q = r
        return acc + mx[1] + self.numpy_block()

    def numpy_block(self) -> int:
        x = self.xs
        return int(((x[:, None] < x[None, :]) & (x[None, :] < x[:, None] + 0.1)).sum())

    def measure(self, budget_ms: float) -> float:
        """Run the kernel for about ``budget_ms`` (at least once); returns ms spent."""
        spent = 0.0
        while True:
            t0 = _clock()
            self.work()
            ms = (_clock() - t0) * 1000.0
            self.samples.append(ms)
            self.starts.append(t0)
            spent += ms
            if spent >= budget_ms:
                return spent

    def scale(self) -> float:
        """Factor that turns this run's times into times at the reference speed."""
        return self.ms / statistics.median(self.samples)

    def scale_near(self, t0: float, t1: float) -> float:
        """Like ``scale``, from the kernel runs within REFERENCE_WINDOW_S of [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0 - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + REFERENCE_WINDOW_S)
        if lo == hi:
            return self.scale()
        return self.ms / statistics.median(self.samples[lo:hi])


class Runner:
    """Solves and checks one workload's instances for a fixed time."""

    def __init__(self, rectcover, workload, seed, recorded, tracer=None):
        self.algos = rectcover.ALGORITHMS
        self.check = rectcover.bench.run_algorithm  # verifies, and gives size, theta and phi
        self.workload = workload
        self.seed = seed
        self.recorded = recorded  # cases of the instances built in set-up
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples = defaultdict(list)  # algorithm -> [(start clock, ms)] of untraced solves
        self.results = {}  # (instance, case, algorithm) -> RunRecord, recorded instances only
        self.rects_done = 0
        self.window = 0.0
        self.off_window = 0.0  # seconds of the window spent building instances or in reference runs
        self.reference = Reference(workload.reference)
        self.traced = []  # (solve id, algorithm, recorded, traced ms, untraced ms)

    def solve(self, case, algo, solve_id=None):
        """One solve and its check; returns (wall ms, record), ms None if it failed.

        With a ``solve_id`` the tracer's hooks are in place for this solve
        only; without one the program runs unpatched.
        """
        tr = self.tracer if solve_id is not None else None
        self.attempted += 1
        rec = None
        try:
            with tr.installed(solve_id) if tr is not None else contextlib.nullcontext() as counts:
                span = tr.span if tr is not None else _no_span
                with span("heuristics." + algo):
                    t0 = _clock()
                    result = self.algos[algo](case.instance)
                    ms = (_clock() - t0) * 1000.0
                with span("oracles.verify"):
                    rec = self.check(algo, case.instance, result)
                if rec.verified and counts is not None:
                    rounds = result.iterations if algo in COVERS else counts.get("cliques.find_simplicial.calls", 0)
                    counts["solve.rounds"] += rounds
            ok = rec.verified
            why = "output rejected"
        except Exception as exc:  # a crashing solve is a failed solve, not a crashed run
            ok = False
            why = f"{type(exc).__name__}: {exc}"
        if not ok:
            self.failed += 1
            self.errors.append(f"{algo} on instance {case.instance.seed}: {why}")
            return None, rec
        self.rects_done += case.instance.n
        return ms, rec

    def short(self, algo) -> bool:
        """True while an untraced run has too few solves of ``algo`` for a tail."""
        return self.tracer is None and len(self.samples[algo]) < MIN_SAMPLES

    def run(self, seconds: float) -> None:
        start = _clock()
        deadline = start + seconds
        cutoff = deadline + OVERRUN_S
        algos = {a for cases in self.recorded for case in cases for a in case.algorithms}

        def more(algo=None) -> bool:
            now = _clock()
            if now < deadline:
                return True
            wanted = algos if algo is None else (algo,)
            return now < cutoff and any(self.short(a) for a in wanted)

        i = 0
        while i < len(self.recorded) or more():
            if i < len(self.recorded):
                cases = self.recorded[i]
            else:
                t0 = _clock()
                cases = self.workload.cases(self.seed, i)
                self.off_window += _clock() - t0
            for j, case in enumerate(cases):
                for algo in case.algorithms:
                    if i >= len(self.recorded) and not more(algo):
                        continue
                    self.solve_once(i, j, case, algo)
            i += 1
        self.window = _clock() - start

    def solve_once(self, i, j, case, algo) -> None:
        recorded = i < len(self.recorded)
        if self.tracer is None:
            t0 = _clock()
            ms, rec = self.solve(case, algo)
            if ms is not None:
                self.samples[algo].append((t0, ms))
                self.off_window += self.reference.measure(REFERENCE_SHARE * ms) / 1000.0
        else:
            # Untraced and traced copies of the solve, in alternating order
            # so that neither always runs second, on warmed caches.
            sid = len(self.traced)
            if sid % 2:
                traced_ms, _ = self.solve(case, algo, sid)
                ms, rec = self.solve(case, algo)
            else:
                ms, rec = self.solve(case, algo)
                traced_ms, _ = self.solve(case, algo, sid)
            self.traced.append((sid, algo, recorded, traced_ms, ms))
        if recorded and ms is not None:
            self.results[(i, j, algo)] = rec


@contextlib.contextmanager
def _no_span(name):
    yield


def write_records(path: Path, workload, seed, runner, kept) -> None:
    lines = ["workload,seed,instance,case,algorithm,n,kept,size,theta,phi"]
    for i, cases in enumerate(runner.recorded):
        for j, case in enumerate(cases):
            for algo in case.algorithms:
                r = runner.results.get((i, j, algo))
                if r is None:
                    lines.append(f"{workload},{seed},{i},{j},{algo},{case.instance.n},{kept[i][j]},failed,,")
                    continue
                lines.append(f"{workload},{seed},{i},{j},{algo},{case.instance.n},{kept[i][j]},{r.size},{r.theta},{r.phi}")
    path.write_text("\n".join(lines) + "\n")


def end_to_end(runner, setup_s, notes):
    k = runner.reference.scale()
    notes["reference"] = f"{runner.workload.reference} kernel median {runner.reference.ms / k:.3f} ms over {len(runner.reference.samples)} runs; run-level scale {k:.4f}"
    m = {"setup_s": (setup_s, "s")}
    ref = runner.reference
    for algo in sorted(runner.samples, key=ALGO_ORDER.index):
        raw = [ms for _, ms in runner.samples[algo]]
        vals = [ms * ref.scale_near(t, t + ms / 1000.0) for t, ms in runner.samples[algo]]
        m[f"{algo}.ms_p50"] = (statistics.median(vals), "ms")
        notes[f"{algo}.ms_p50"] = f"unscaled {statistics.median(raw):.3f} ms"
        value, pct, n = tail(vals)
        if value is None:
            notes[f"{algo}.ms_tail"] = f"absent: {n} samples, a tail needs more than {2 * TAIL_BEYOND}"
            continue
        m[f"{algo}.ms_tail"] = (value, "ms")
        notes[f"{algo}.ms_tail"] = f"p{pct:.1f} of {n} samples, unscaled {tail(raw)[0]:.3f} ms"
    rate = runner.rects_done / (runner.window - runner.off_window)
    m["rects_per_s"] = (rate / k, "rects/s")
    notes["rects_per_s"] = f"unscaled {rate:.1f} rects/s"
    for algo in ALGO_ORDER:
        sizes = [r.size for (_, _, a), r in sorted(runner.results.items()) if a == algo]
        if sizes:
            m[f"{algo}.size_mean"] = (statistics.fmean(sizes), "count")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return m


def per_layer(runner, tracer, kept, notes):
    """Per-layer metrics from the traced solves.

    Times are per-solve totals of a span name, as medians over the traced
    solves of the algorithms that make that call; counts are per-solve
    means over the instances built in set-up, which are the same for a
    given seed. A metric whose hook is absent, or whose layer never ran on
    this workload, is left out and printed as absent.
    """
    incl = defaultdict(lambda: defaultdict(float))  # solve -> span name -> ms
    root_self = {}
    selfs = self_times(tracer.spans)
    for s in tracer.spans:
        incl[s.solve][s.name] += (s.end - s.start) * 1000.0
        if s.name.startswith("heuristics."):
            root_self[s.solve] = selfs[s.id] * 1000.0

    pairs = [t for t in runner.traced if t[3] is not None and t[4] is not None]
    by_algo = defaultdict(list)  # algorithm -> [(solve id, recorded)]
    for sid, algo, recorded, _, _ in pairs:
        by_algo[algo].append((sid, recorded))

    def med_ms(algos, name):
        if not any(name in incl[sid] for a in algos for sid, _ in by_algo[a]):
            return None
        return statistics.median(incl[sid][name] for a in algos for sid, _ in by_algo[a])

    def mean_count(algo, key):
        vals = [tracer.counts[sid].get(key, 0) for sid, recorded in by_algo[algo] if recorded]
        return statistics.fmean(vals) if any(vals) else None

    m = {}

    def put(name, value, unit):
        if value is None:
            notes[name] = "absent: hook missing or layer not run on this workload"
        else:
            m[name] = (value, unit)

    put("geometry.filter_dominated.ms", med_ms(ALGO_ORDER, "geometry.filter_dominated"), "ms")
    ratios = [k / case.instance.n for cases, ks in zip(runner.recorded, kept) for case, k in zip(cases, ks)]
    put("geometry.kept_ratio", statistics.fmean(ratios), "ratio")
    for algo in ALGO_ORDER:
        selfs_a = [root_self[sid] for sid, _ in by_algo[algo]]
        put(f"{algo}.heuristics.self_ms", statistics.median(selfs_a) if selfs_a else None, "ms")
        put(f"{algo}.heuristics.rounds", mean_count(algo, "solve.rounds"), "count")
    for algo in SIMPLICIAL_ALGOS:
        p = f"{algo}.cliques.find_simplicial"
        calls = mean_count(algo, "cliques.find_simplicial.calls")
        hits = mean_count(algo, "cliques.find_simplicial.hits") or 0.0
        put(p + ".ms", med_ms([algo], "cliques.find_simplicial"), "ms")
        put(p + ".calls", calls, "count")
        put(p + ".hit_ratio", hits / calls if calls else None, "ratio")
        put(p + ".entry_accesses", mean_count(algo, "cliques.find_simplicial.entry_accesses"), "count")
    for algo in SWEEP_ALGOS:
        p = f"{algo}.cliques.max_clique_sweep"
        put(p + ".ms", med_ms([algo], "cliques.max_clique_sweep"), "ms")
        put(p + ".calls", mean_count(algo, "cliques.max_clique_sweep.calls"), "count")
        put(p + ".rects_in", mean_count(algo, "cliques.max_clique_sweep.rects_in"), "count")
        put(f"{algo}.segtree.add_calls", mean_count(algo, "segtree.add_calls"), "count")
        put(f"{algo}.segtree.cells", mean_count(algo, "segtree.cells"), "count")
    put("mis.graph.max_degree_vertex.ms", med_ms(["mis"], "graph.max_degree_vertex"), "ms")
    put("mis.graph.max_degree_vertex.calls", mean_count("mis", "graph.max_degree_vertex.calls"), "count")
    for algo in SIMPLICIAL_ALGOS:
        put(f"{algo}.graph.remove_vertices.ms", med_ms([algo], "graph.remove_vertices"), "ms")
    put("graph.build_graph.ms", med_ms(SIMPLICIAL_ALGOS, "graph.build_graph"), "ms")
    edges = [
        g.edge_count()
        for a in SIMPLICIAL_ALGOS
        for sid, recorded in by_algo[a]
        if recorded
        for g in tracer.graphs.get(sid, ())
    ]
    put("graph.edges", statistics.fmean(edges) if any(edges) else None, "count")
    put("oracles.verify.ms", med_ms(ALGO_ORDER, "oracles.verify"), "ms")
    traced = sum(t for *_, t, _ in pairs)
    untraced = sum(u for *_, u in pairs)
    put("trace.overhead_ratio", traced / untraced if untraced else None, "ratio")

    # Share of solve wall time inside each layer's calls, for the layer split.
    for algo in ALGO_ORDER:
        wall = sum(incl[sid]["heuristics." + algo] for sid, _ in by_algo[algo])
        if not wall:
            continue
        parts = []
        for name in ("geometry.filter_dominated", "graph.build_graph", "cliques.find_simplicial", "cliques.max_clique_sweep", "graph.remove_vertices", "graph.max_degree_vertex"):
            share = sum(incl[sid][name] for sid, _ in by_algo[algo]) / wall
            parts.append(f"{name} {100 * share:.1f}%")
        share = sum(root_self[sid] for sid, _ in by_algo[algo]) / wall
        parts.append(f"heuristics self {100 * share:.1f}%")
        notes[f"{algo}.split"] = ", ".join(parts)
    return m


def write_spans(path: Path, tracer) -> None:
    with gzip.open(path, "wt") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s._asdict()) + "\n")


def run_workload(args, rectcover) -> dict:
    from workloads import WORKLOADS  # imports rectcover, so only after import_rectcover

    print(json.dumps({"env": environment(rectcover), "workload": args.workload, "seed": args.seed, "trace": args.trace}))
    setup_s = measure_setup(args.workload, args.seed)
    workload = WORKLOADS[args.workload]
    recorded = workload.setup(args.seed)

    # Warm-up outside the window: first calls pay one-off costs.
    warm = rectcover.generate_instance(60, seed=args.seed)
    for fn in (rectcover.gcc, rectcover.gcc_i, rectcover.mis_greedy, rectcover.mis_i):
        fn(warm)

    # Keep the collector from rescanning the set-up instances during solves;
    # the program's own garbage is still collected as usual.
    gc.collect()
    gc.freeze()
    tracer = Tracer() if args.trace else None
    runner = Runner(rectcover, workload, args.seed, recorded, tracer)
    runner.run(args.seconds)

    kept = [[len(rectcover.filter_dominated(c.instance)[0]) for c in cases] for cases in recorded]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.seed}"
    write_records(OUT / f"{stem}.records.csv", args.workload, args.seed, runner, kept)

    notes = {}
    if tracer is None:
        metrics = end_to_end(runner, setup_s, notes)
        total = runner.attempted
        notes["fail_rate"] = f"{runner.failed / total:.4f} ({runner.failed}/{total} solves)"
    else:
        write_spans(OUT / f"{stem}.spans.jsonl.gz", tracer)
        metrics = per_layer(runner, tracer, kept, notes)
        notes["absent hooks"] = ", ".join(tracer.absent) or "none"

    listed = manifest_metrics("per_layer" if tracer is not None else "end_to_end")
    for name in listed:
        if name not in metrics:
            notes.setdefault(name, "absent")
    for err in runner.errors[:20]:
        print("failed:", err, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload}  {name} = {value:.6g} {unit}{extra}")
    for name, note in notes.items():
        if name not in metrics:
            print(f"{args.workload}  {name}: {note}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if k in listed},
    }


def manifest_metrics(section: str) -> list[str]:
    """Names of the metrics BENCHMARK.json lists under ``section``."""
    return [m["name"] for m in json.loads(MANIFEST.read_text())[section]]


def run_all(args) -> dict:
    """Each workload in its own process, so each gets its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise SystemExit(f"error: workload {name} exited with {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    rectcover = import_rectcover()
    result = run_all(args) if args.workload == "all" else run_workload(args, rectcover)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
