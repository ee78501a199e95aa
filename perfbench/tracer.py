"""In-memory spans and counters around the calls the heuristics make.

The tracer patches names from outside the program: the functions that
``rectcover.heuristics`` binds at import time, and methods of
``IntersectionGraph`` and ``MaxAddSegmentTree``. Each hooked function has
its own small wrapper that records a span (name, start, end, parent, solve
id), counts what that call was given, or both. Segment-tree methods are
called tens of thousands of times per solve, so they only bump counters.
The wrappers are built once; ``installed()`` puts them in place for one
traced solve and restores the originals after it, so untraced solves run
the program as it is. A hook whose module or attribute no longer exists is
reported as absent, not as an error.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple

_clock = time.perf_counter


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    solve: int


class Tracer:
    """Collects spans and per-solve counters while its hooks are installed."""

    def __init__(self, hooks=None):
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.graphs: dict[int, list] = defaultdict(list)  # solve -> graphs built
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._solve = -1
        self._patches = []  # (owner, attribute, original, wrapper)
        for hook in HOOKS if hooks is None else hooks:
            owner, leaf = _resolve(hook)
            if owner is None:
                self.absent.append(f"{hook.module}.{hook.attr}")
                continue
            original = getattr(owner, leaf)
            self._patches.append((owner, leaf, original, hook.wrap(self, original)))

    # -- spans -----------------------------------------------------------

    def begin(self, name: str) -> tuple[int, str, float, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return (sid, name, _clock(), parent)

    def end(self, opened) -> None:
        t = _clock()
        sid, name, start, parent = opened
        self._stack.pop()
        self.spans.append(Span(sid, name, start, t, parent, self._solve))

    @contextlib.contextmanager
    def span(self, name: str):
        opened = self.begin(name)
        try:
            yield
        finally:
            self.end(opened)

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[self._solve][key] += amount

    # -- hooks -----------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, solve: int):
        """Patch every hook that resolved, attributing spans and counts to ``solve``."""
        self._solve = solve
        for owner, leaf, _, wrapper in self._patches:
            setattr(owner, leaf, wrapper)
        try:
            yield self.counts[solve]
        finally:
            for owner, leaf, original, _ in reversed(self._patches):
                setattr(owner, leaf, original)
            self._solve = -1


def _spanned(name: str, counted: bool = False):
    """A wrapper that records one span per call, and counts calls if asked."""

    def wrap(tracer: Tracer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counted:
                tracer.count(name + ".calls")
            opened = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(opened)

        return wrapper

    return wrap


def _build_graph(tracer: Tracer, fn):
    @functools.wraps(fn)
    def build_graph(*args, **kwargs):
        opened = tracer.begin("graph.build_graph")
        try:
            graph = fn(*args, **kwargs)
        finally:
            tracer.end(opened)
        tracer.graphs[tracer._solve].append(graph)  # edges are counted after the run
        return graph

    return build_graph


def _find_simplicial(tracer: Tracer, fn):
    params = inspect.signature(fn).parameters
    stats_type = None
    if "stats" in params:
        stats_type = getattr(importlib.import_module(fn.__module__), "SimplicialSearchStats", None)

    @functools.wraps(fn)
    def find_simplicial(*args, **kwargs):
        tracer.count("cliques.find_simplicial.calls")
        stats = stats_type() if stats_type is not None else None
        if stats is not None:
            kwargs["stats"] = stats
        opened = tracer.begin("cliques.find_simplicial")
        try:
            witness = fn(*args, **kwargs)
        finally:
            tracer.end(opened)
        if stats is not None:
            tracer.count("cliques.find_simplicial.entry_accesses", stats.entry_accesses)
        if witness is not None:
            tracer.count("cliques.find_simplicial.hits")
        return witness

    return find_simplicial


def _max_clique_sweep(tracer: Tracer, fn):
    @functools.wraps(fn)
    def max_clique_sweep(rects, *args, **kwargs):
        tracer.count("cliques.max_clique_sweep.calls")
        tracer.count("cliques.max_clique_sweep.rects_in", len(rects))
        opened = tracer.begin("cliques.max_clique_sweep")
        try:
            return fn(rects, *args, **kwargs)
        finally:
            tracer.end(opened)

    return max_clique_sweep


def _segtree_init(tracer: Tracer, fn):
    @functools.wraps(fn)
    def __init__(tree, size):
        tracer.count("segtree.cells", size)
        fn(tree, size)

    return __init__


def _segtree_add(tracer: Tracer, fn):
    @functools.wraps(fn)
    def add(tree, lo, hi, delta):
        tracer.count("segtree.add_calls")
        fn(tree, lo, hi, delta)

    return add


@dataclass(frozen=True)
class Hook:
    """Where to patch (module, dotted attribute) and how to wrap it."""

    module: str
    attr: str
    wrap: Callable[[Tracer, Callable], Callable]


HOOKS = (
    Hook("rectcover.heuristics", "filter_dominated", _spanned("geometry.filter_dominated")),
    Hook("rectcover.heuristics", "build_graph", _build_graph),
    Hook("rectcover.heuristics", "find_simplicial", _find_simplicial),
    Hook("rectcover.heuristics", "max_clique_sweep", _max_clique_sweep),
    Hook("rectcover.graph", "IntersectionGraph.remove_vertices", _spanned("graph.remove_vertices")),
    Hook("rectcover.graph", "IntersectionGraph.max_degree_vertex", _spanned("graph.max_degree_vertex", counted=True)),
    Hook("rectcover.segtree", "MaxAddSegmentTree.__init__", _segtree_init),
    Hook("rectcover.segtree", "MaxAddSegmentTree.add", _segtree_add),
)


def _resolve(hook: Hook):
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None, None
    *path, leaf = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not hasattr(owner, leaf):
        return None, None
    return owner, leaf


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent's interval and overlapping
    children are merged, so the result never goes below zero.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo = max(lo, reach)
            hi = min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out
