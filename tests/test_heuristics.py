import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectcover import heuristics
from rectcover.bench import trial_seed
from rectcover.geometry import (
    Point,
    UnstabbableOverlapError,
    common_intersection,
    contains,
    filter_dominated,
    generate_instance,
)
from rectcover.graph import build_graph
from rectcover.heuristics import CoverResult, gcc, gcc_i, mis_greedy, mis_i
from rectcover.oracles import exact_mcc, exact_mis, verify_cover, verify_independent

from conftest import (
    FAMILIES,
    SweepOnlyDepths,
    check_corner_state_follows_sweeps,
    crossing_bars,
    equal_squares,
    family_instance,
    inst_of,
    mk,
    nested_clusters,
    snapped_boxes,
)


# ------------------------------------------------------------ cover: plain


def test_gcc_empty():
    result = gcc(inst_of([]))
    assert result.size == 0
    assert result.assignment == ()
    assert result.iterations == 0


def test_gcc_single():
    result = gcc(inst_of([mk(0, 0, 1, 1)]))
    assert result.size == 1
    assert result.assignment == (0,)


def test_gcc_chain(chain3):
    result = gcc(inst_of(chain3))
    assert result.size == 2
    assert result.theta_count == 0 and result.phi_count == 2
    assert verify_cover(chain3, result.points, result.assignment)


def test_gcc_triangle(triangle):
    result = gcc(inst_of(triangle))
    assert result.size == 1
    assert result.assignment == (0, 0, 0)


# ---------------------------------------------------------- cover: refined


def test_gcc_i_triangle(triangle):
    # the simplicial round's point is the center of the common box (1,2)x(1,2)
    result = gcc_i(inst_of(triangle))
    assert result.size == 1
    assert result.theta_count == 1 and result.phi_count == 0
    assert result.points == (Point(1.5, 1.5),)
    assert all(r.contains_point_open(result.points[0]) for r in triangle)


def test_gcc_i_chain(chain3):
    # round one stabs vertex 0's neighborhood {0, 1}, round two vertex 2 alone
    result = gcc_i(inst_of(chain3))
    assert result.theta_count == 2 and result.phi_count == 0
    assert result.points == (Point(2.5, 0.5), Point(5.5, 0.5))
    assert result.assignment == (0, 0, 1)
    assert verify_cover(chain3, result.points, result.assignment)


def test_gcc_i_frame(frame4):
    # the 4-cycle forces one clique extraction, which unlocks a simplicial step
    result = gcc_i(inst_of(frame4))
    assert result.size == 2
    assert result.theta_count == 1 and result.phi_count == 1
    assert verify_cover(frame4, result.points, result.assignment)


def test_gcc_i_counts_sum_to_size():
    for t in range(6):
        instance = generate_instance(80, seed=trial_seed(3, 80, t))
        result = gcc_i(instance)
        assert result.theta_count + result.phi_count == result.size
        assert result.iterations == result.size


STAB_LAYOUTS = {
    "squares": lambda: inst_of(equal_squares(200, 5151)),
    "uniform": lambda: generate_instance(300, seed=trial_seed(11, 300, 0)),
}


STAB_POINTS = heuristics._stab_points


@pytest.mark.parametrize("layout", list(STAB_LAYOUTS))
def test_only_covers_build_simplicial_stab_boxes(layout, monkeypatch):
    # an independent set places no points, so it never intersects boxes; a
    # refined cover places each simplicial round's point at the center of
    # its neighborhood's common box, as common_intersection gives it
    calls = []

    def recorded(boxes, rounds):
        calls.append(rounds)
        return STAB_POINTS(boxes, rounds)

    monkeypatch.setattr(heuristics, "_stab_points", recorded)
    instance = STAB_LAYOUTS[layout]()
    for algo in (mis_greedy, mis_i):
        algo(instance)
        assert calls == [], algo.__name__
    result = gcc_i(instance)
    (rounds,) = calls
    kept, _ = filter_dominated(instance)
    hoods = [(pid, members) for pid, (vertex, members, _) in enumerate(rounds) if vertex is not None]
    assert len(hoods) == result.theta_count > 0
    for pid, members in hoods:
        assert result.points[pid] == common_intersection([instance.rects[kept[v]] for v in members]).center()


def test_empty_simplicial_common_box_is_a_typed_error(chain3, monkeypatch):
    # the chain's end boxes 0 and 2 are disjoint, so no point stabs them both
    def bad_peel(instance, simplicial, cliques):
        *filtered, boxes, _ = PEEL(instance, simplicial, cliques)
        return *filtered, boxes, [(1, [0, 2], None)]

    monkeypatch.setattr(heuristics, "_peel", bad_peel)
    with pytest.raises(UnstabbableOverlapError, match="no common interior"):
        gcc_i(inst_of(chain3))


# -------------------------------------------------------- independent sets


def test_mis_empty():
    assert mis_greedy(inst_of([])).members == ()


def test_mis_chain(chain3):
    result = mis_greedy(inst_of(chain3))
    assert result.members == (0, 2)


def test_mis_triangle(triangle):
    assert mis_greedy(inst_of(triangle)).size == 1
    assert mis_i(inst_of(triangle)).size == 1


def test_mis_takes_all_disjoint_rectangles():
    rects = [mk(3 * i, 0, 3 * i + 2, 1) for i in range(6)]
    assert mis_greedy(inst_of(rects)).members == tuple(range(6))
    assert mis_i(inst_of(rects)).members == tuple(range(6))


def test_mis_variants_can_differ(frame4):
    # on the 4-cycle the single-vertex rule finds both opposite sides, the
    # clique-deletion rule destroys one of them
    assert mis_greedy(inst_of(frame4)).members == (2, 3)
    assert mis_i(inst_of(frame4)).size == 1


def test_members_sorted_and_unique():
    for t in range(5):
        instance = generate_instance(70, seed=trial_seed(8, 70, t))
        for algo in (mis_greedy, mis_i):
            members = algo(instance).members
            assert list(members) == sorted(set(members))


# ----------------------------------------------------------------- validity


@pytest.mark.parametrize("algo", [gcc, gcc_i])
def test_covers_are_valid(algo):
    for t in range(8):
        instance = generate_instance(130, seed=trial_seed(21, 130, t))
        result = algo(instance)
        assert verify_cover(instance.rects, result.points, result.assignment), t
        for p in result.points:
            assert instance.region.x_min <= p.x <= instance.region.x_max
            assert instance.region.y_min <= p.y <= instance.region.y_max


@pytest.mark.parametrize("algo", [mis_greedy, mis_i])
def test_independent_sets_are_valid(algo):
    for t in range(8):
        instance = generate_instance(130, seed=trial_seed(22, 130, t))
        result = algo(instance)
        assert verify_independent(instance.rects, result.members), t


def test_dominated_rectangles_get_covered():
    # a nested chain collapses to one stab point assigned to all three
    instance = inst_of([mk(0, 0, 9, 9), mk(1, 1, 5, 5), mk(2, 2, 3, 3)])
    for algo in (gcc, gcc_i):
        result = algo(instance)
        assert result.size == 1
        assert result.assignment == (0, 0, 0)
        assert verify_cover(instance.rects, result.points, result.assignment)
    # box 0 contains the disjoint kept boxes 1 and 2, which get different
    # points; it takes the point of its lowest-index kept witness, box 1
    instance = inst_of([mk(0, 0, 10, 4), mk(6, 1, 8, 3), mk(1, 1, 3, 3)])
    for algo in (gcc, gcc_i):
        result = algo(instance)
        assert result.size == 2
        assert result.assignment[0] == result.assignment[1] != result.assignment[2]
        assert verify_cover(instance.rects, result.points, result.assignment)


def test_dominated_assignment_follows_first_kept_inside():
    # 1500 boxes make six blocks of 256 rows in the filter and leave more
    # than 1024 removed; the reference is a plain scan of kept in index order
    instance = generate_instance(1500, seed=trial_seed(41, 1500, 0))
    kept, removed = filter_dominated(instance)
    assert len(removed) > 1024
    rects = instance.rects
    expected = [
        (i, next(j for j in kept if contains(rects[i], rects[j]))) for i, _ in removed
    ]
    assert removed == expected
    for algo in (gcc, gcc_i):
        assignment = algo(instance).assignment
        assert [assignment[i] for i, _ in removed] == [assignment[w] for _, w in expected]


def test_duplicates_handled():
    instance = inst_of([mk(0, 0, 1, 1), mk(0, 0, 1, 1), mk(5, 0, 6, 1)])
    result = gcc(instance)
    assert result.size == 2
    assert verify_cover(instance.rects, result.points, result.assignment)
    assert mis_greedy(instance).size == 2


# -------------------------------------------------------------- determinism


def test_results_reproducible():
    instance = generate_instance(90, seed=31337)
    for algo in (gcc, gcc_i, mis_greedy, mis_i):
        a = algo(instance)
        b = algo(instance)
        # elapsed differs between runs but is excluded from equality
        assert a == b


def test_frozen_sizes_on_reference_instance():
    # pinned once from a verified run; catches silent behavior drift
    instance = generate_instance(120, seed=trial_seed(5, 120, 0))
    assert gcc(instance).size == 22
    assert gcc_i(instance).size == 20
    assert mis_greedy(instance).size == 20
    assert mis_i(instance).size == 17


# Outputs pinned from the per-heuristic loops the shared peeling loop
# replaced (frame4 and the uniform seeds) or from the search that still
# remembered found cliques (the named layouts): size, theta, phi and
# iterations for covers, plus the first 16 hex digits of a sha256 of
# repr((points, assignment)) or repr(members). "bars-400" and
# "uniform-20000" are pinned from the search that rejects by a failed
# test's two non-adjacent members.
PINNED = {
    "frame4": {
        gcc: (2, 0, 2, 2, "17b6c82cba86bbf5"),
        gcc_i: (2, 1, 1, 2, "17b6c82cba86bbf5"),
        mis_greedy: (2, "dc4307c0856536f8"),
        mis_i: (1, "28cb03b06c288e88"),
    },
    0: {
        gcc: (41, 0, 41, 41, "f306f2ed73ad7e24"),
        gcc_i: (38, 36, 2, 38, "1afd2f19b46939a3"),
        mis_greedy: (38, "1dfe5464b2940777"),
        mis_i: (36, "475aed425a87910a"),
    },
    1: {
        gcc: (36, 0, 36, 36, "e2925948c183ef74"),
        gcc_i: (37, 28, 9, 37, "483bcb98f659eb59"),
        mis_greedy: (33, "8216e1ba33a68bac"),
        mis_i: (28, "0c8e46ea061d79ec"),
    },
    2: {
        gcc: (41, 0, 41, 41, "575541350e8314f4"),
        gcc_i: (35, 29, 6, 35, "b2a4f7422bd602c4"),
        mis_greedy: (33, "e5d48ecca3d604ad"),
        mis_i: (29, "de4531d24763441d"),
    },
    3: {
        gcc: (39, 0, 39, 39, "ac5179f2b54d016c"),
        gcc_i: (36, 32, 4, 36, "c33fc31f8998a50d"),
        mis_greedy: (35, "3883470b942ac25a"),
        mis_i: (32, "4bc3707d3e433c5c"),
    },
    # nothing dominated
    "squares": {
        gcc: (34, 0, 34, 34, "1f940d4ab64b187b"),
        gcc_i: (33, 22, 11, 33, "0017cfeb0cd64671"),
        mis_greedy: (24, "112210cf5b7252b7"),
        mis_i: (22, "9c9d61710cbca7cf"),
    },
    "bars": {
        gcc: (12, 0, 12, 12, "7670ea475911ad1e"),
        gcc_i: (12, 1, 11, 12, "7670ea475911ad1e"),
        mis_greedy: (12, "87e5c6c6c9371b46"),
        mis_i: (1, "d66a370d279e628b"),
    },
    # 191 of 300 dominated, so the assignment of dominated boxes is pinned
    "nested": {
        gcc: (4, 0, 4, 4, "d23f0257660cb218"),
        gcc_i: (4, 4, 0, 4, "a5d376691819b70f"),
        mis_greedy: (4, "3f3770af90350e14"),
        mis_i: (4, "3f3770af90350e14"),
    },
    # 400 + 400 bars of one degree per side: a lower-degree neighbor seldom
    # rejects a bar, and gcc takes 400 rounds through the corner state
    "bars-400": {
        gcc: (400, 0, 400, 400, "79905e09dcd06c1a"),
        gcc_i: (400, 1, 399, 400, "79905e09dcd06c1a"),
        mis_greedy: (400, "01447474e76f8abd"),
        mis_i: (1, "b626f0d73bbe54be"),
    },
    # the simplicial search's largest residuals, 2001 kept boxes
    "uniform-20000": {
        gcc: (407, 0, 407, 407, "a5c36bb31bee242c"),
        gcc_i: (379, 236, 143, 379, "0ee51cc37c8ff09e"),
        mis_greedy: (307, "1077e020e2180bf0"),
        mis_i: (236, "f85a4356c09bbfce"),
    },
}

PINNED_LAYOUTS = {
    "squares": lambda: inst_of(equal_squares(200, 5151)),
    "bars": lambda: inst_of(crossing_bars(12)),
    "nested": lambda: inst_of(nested_clusters(300, 4, 61)),
    "bars-400": lambda: inst_of(crossing_bars(400)),
    "uniform-20000": lambda: generate_instance(20000, seed=3),
}


def _digest(result):
    if isinstance(result, CoverResult):
        body = repr((result.points, result.assignment))
        head = (result.size, result.theta_count, result.phi_count, result.iterations)
    else:
        body = repr(result.members)
        head = (result.size,)
    return (*head, hashlib.sha256(body.encode()).hexdigest()[:16])


@pytest.mark.parametrize("case", list(PINNED))
def test_pinned_outputs(case, frame4):
    if case == "frame4":
        instance = inst_of(frame4)
    elif case in PINNED_LAYOUTS:
        instance = PINNED_LAYOUTS[case]()
    else:
        instance = generate_instance(300, seed=trial_seed(11, 300, case))
    for algo, expected in PINNED[case].items():
        assert _digest(_check_valid(algo, instance)) == expected, algo.__name__


# ----------------------------------------------------------------- optima


def test_sandwich_against_exact():
    # greedy independent set <= exact <= exact cover <= refined greedy cover
    for t in range(12):
        instance = generate_instance(13, seed=trial_seed(9, 13, t))
        lo = mis_greedy(instance).size
        hi = gcc_i(instance).size
        opt_ind = exact_mis(build_graph(instance.rects))[0]
        opt_cov = exact_mcc(list(instance.rects))[0]
        assert lo <= opt_ind <= opt_cov <= hi, t


def test_refined_cover_never_beaten_by_independent_set():
    for t in range(10):
        instance = generate_instance(200, seed=trial_seed(14, 200, t))
        assert mis_greedy(instance).size <= gcc_i(instance).size


def test_refined_cover_no_worse_on_average():
    # the simplicial refinement may lose on an individual instance, but not
    # in expectation; check the means over 50 seeds
    plain = []
    refined = []
    for t in range(50):
        instance = generate_instance(200, seed=trial_seed(27, 200, t))
        plain.append(gcc(instance).size)
        refined.append(gcc_i(instance).size)
    assert sum(refined) / 50 <= sum(plain) / 50


def test_domination_filter_matches_manual_prefilter():
    # running on pre-filtered survivors gives the same cover size
    for t in range(5):
        instance = generate_instance(100, seed=trial_seed(33, 100, t))
        kept, _ = filter_dominated(instance)
        survivors = inst_of([instance.rects[i] for i in kept])
        assert gcc_i(instance).size == gcc_i(survivors).size
        assert mis_greedy(instance).size == mis_greedy(survivors).size


# ------------------------------------------------------- one-ulp contract

ALL_HEURISTICS = [gcc, gcc_i, mis_greedy, mis_i]
ULP1 = math.nextafter(0.5, 1)  # the double right after 0.5
ULP2 = math.nextafter(ULP1, 1)


def _check_valid(algo, instance):
    result = algo(instance)
    if isinstance(result, CoverResult):
        assert verify_cover(instance.rects, result.points, result.assignment)
    else:
        assert verify_independent(instance.rects, result.members)
    return result


UNSTABBABLE = {
    # overlap (0.5, ULP1) on x holds no double
    "overlap-x": [mk(0, 0, ULP1, 1), mk(0.5, 0, 1, 1)],
    # the same on y
    "overlap-y": [mk(0, 0, 1, ULP1), mk(0, 0.5, 1, 1)],
    # one rectangle one ulp wide, next to a normal one
    "one-ulp-wide": [mk(0, 0, 1, 1), mk(0.5, 2, ULP1, 3)],
}


@pytest.mark.parametrize("algo", ALL_HEURISTICS)
@pytest.mark.parametrize("rects", list(UNSTABBABLE.values()), ids=list(UNSTABBABLE))
def test_unstabbable_overlap_is_a_typed_error(algo, rects):
    with pytest.raises(UnstabbableOverlapError):
        algo(inst_of(rects))


@pytest.mark.parametrize("algo", ALL_HEURISTICS)
def test_solves_keep_the_callers_ufunc_buffer(algo, caller_bufsize):
    algo(generate_instance(200, seed=12))
    assert np.getbufsize() == caller_bufsize
    with pytest.raises(UnstabbableOverlapError):
        algo(inst_of([mk(0, 0, ULP1, 1), mk(0.5, 0, 1, 1)]))
    assert np.getbufsize() == caller_bufsize


TWO_ULPS = {
    # overlap (0.5, ULP2) holds ULP1
    "overlap-x": [mk(0, 0, ULP2, 1), mk(0.5, 0, 1, 1)],
    "overlap-y": [mk(0, 0, 1, ULP2), mk(0, 0.5, 1, 1)],
    # sweep cells one ulp wide whose midpoint rounds onto a member's
    # edge: the cell (0.5, ULP1) on x, the gap (ULP1, ULP2) on y
    "thin-cell-x": [mk(0.5, 2, 0.8, 3), mk(ULP1, 0, 0.9, 1)],
    "thin-gap-y": [mk(0, 0.2, 1, ULP2), mk(2, 0.1, 3, ULP1)],
}


@pytest.mark.parametrize("algo", ALL_HEURISTICS)
@pytest.mark.parametrize("rects", list(TWO_ULPS.values()), ids=list(TWO_ULPS))
def test_overlaps_two_ulps_wide_solve(algo, rects):
    _check_valid(algo, inst_of(rects))


# ------------------------------------------------------ corner state in peels

CLIQUE_HEURISTICS = [gcc, gcc_i, mis_i]


PEEL, CORNER_DEPTHS, FIND_TOP_CLIQUES = heuristics._peel, heuristics.CornerDepths, heuristics.find_top_cliques
FIRST_CLIQUE_BOXES, MAX_CLIQUE_SWEEP = heuristics.first_clique_boxes, heuristics.max_clique_sweep


def _peels(algo, instance, monkeypatch):
    """Run ``algo`` as it is, with ``SweepOnlyDepths`` for the corner state,
    so that every clique comes from a sweep, and with ``find_top_cliques``
    finding nothing, so that every sweep reads all live boxes. All three
    must give the same result and rounds, or all raise
    ``UnstabbableOverlapError``. Returns the number of states the default
    peel built, at most one."""
    builds = []

    def counted(*args):
        builds.append(args)
        return CORNER_DEPTHS(*args)

    def run(depths, search):
        peels = []

        def recorded(*args):
            peels.append(PEEL(*args))
            return peels[-1]

        monkeypatch.setattr(heuristics, "_peel", recorded)
        monkeypatch.setattr(heuristics, "CornerDepths", depths)
        monkeypatch.setattr(heuristics, "find_top_cliques", search)
        try:
            result = algo(instance)
        except UnstabbableOverlapError:
            return UnstabbableOverlapError
        kept, removed, inside, _, rounds = peels[0]
        return result, (kept.tolist(), removed.tolist(), inside.tolist(), rounds)

    default = run(counted, FIND_TOP_CLIQUES)
    assert default == run(SweepOnlyDepths, FIND_TOP_CLIQUES)
    assert default == run(CORNER_DEPTHS, lambda graph: [])
    assert len(builds) <= 1
    return len(builds)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.sampled_from(FAMILIES),
    st.integers(1, 90),
    st.integers(0, 2**32),
)
def test_corner_state_keeps_every_round(family, n, seed):
    # hypothesis runs every example in one test call, so the stand-ins are
    # set and restored by hand instead of by a function-scoped fixture
    with pytest.MonkeyPatch.context() as monkeypatch:
        instance = family_instance(family, n, seed)
        for algo in CLIQUE_HEURISTICS:
            _peels(algo, instance, monkeypatch)


# (n, seed) of one instance per family whose default gcc peel builds the
# corner state and takes later cliques from it, so the state is reached on
# every family the property test above draws from
STATE_CASES = {
    "uniform": (40, 0),
    "squares": (40, 0),
    "snapped": (40, 2),
    "nested": (40, 5),
    "bars": (7, 0),
    "frame": (5, 0),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_gcc_reaches_the_corner_state_on_every_family(family, monkeypatch):
    assert _peels(gcc, family_instance(family, *STATE_CASES[family]), monkeypatch) == 1


# Nested clusters and snapped grids, where many of gcc's maximum cliques
# are a top-degree box's closed neighborhood, at sizes the families above
# do not reach
TOP_CLIQUE_CASES = {
    **{
        f"nested-{c}-{s}": lambda c=c, s=s: nested_clusters(2000, c, s)
        for c in (1, 5, 20)
        for s in range(3)
    },
    **{
        f"snapped-grid{g}-{s}": lambda g=g, s=s: snapped_boxes(random.Random(s), 1200, g)
        for g in (3, 6, 12)
        for s in range(3)
    },
}


@pytest.mark.parametrize("case", list(TOP_CLIQUE_CASES))
def test_gcc_with_and_without_the_top_clique_search(case, monkeypatch):
    picked, narrowed = [], []

    def counted(*args):
        picked.append(FIRST_CLIQUE_BOXES(*args))
        return picked[-1]

    def counted_sweep(boxes, *, bound):
        witness = MAX_CLIQUE_SWEEP(boxes, bound=bound)
        if picked:
            # the sweep over the rows first_clique_boxes just picked
            assert len(boxes) == len(picked.pop())
            narrowed.append((bound, witness.size))
        return witness

    monkeypatch.setattr(heuristics, "first_clique_boxes", counted)
    monkeypatch.setattr(heuristics, "max_clique_sweep", counted_sweep)
    builds = _peels(gcc, inst_of(TOP_CLIQUE_CASES[case]()), monkeypatch)
    assert not picked
    # here a peel sweeps narrowed sets exactly when it builds no corner
    # state: the peels that build one (20 centres, 12 grid steps) do so
    # after their first sweep, which found no top clique
    assert bool(narrowed) == (builds == 0)
    # the peel's one bound rule gives such a sweep the top cliques' size
    assert all(bound == size for bound, size in narrowed)


ONE_ULP_CASES = {
    **{f"unstabbable-{k}": v for k, v in UNSTABBABLE.items()},
    **{f"two-ulps-{k}": v for k, v in TWO_ULPS.items()},
}


# seeds for check_corner_state_follows_sweeps whose deletions, on two
# boxes, take one box first and query the other alone
DELETION_ORDERS = {"box-0-first": 2, "box-1-first": 18}


@pytest.mark.parametrize("algo", CLIQUE_HEURISTICS)
@pytest.mark.parametrize("rects", list(ONE_ULP_CASES.values()), ids=list(ONE_ULP_CASES))
def test_one_ulp_cases_through_the_corner_state(algo, rects, monkeypatch):
    # the sweep path raises on the unstabbable cases and solves the others
    # (the tests above), so the default peel must do the same as its
    # sweep-only run
    _peels(algo, inst_of(rects), monkeypatch)


@pytest.mark.parametrize("seed", list(DELETION_ORDERS.values()), ids=list(DELETION_ORDERS))
@pytest.mark.parametrize("rects", list(ONE_ULP_CASES.values()), ids=list(ONE_ULP_CASES))
def test_one_ulp_cases_in_the_corner_state_engine(rects, seed):
    # a peel of two boxes takes its cliques from sweeps, so the state meets
    # these cases at the engine level: it must raise on the unstabbable ones
    # and solve the others as the sweep does
    check_corner_state_follows_sweeps(rects, random.Random(seed))
