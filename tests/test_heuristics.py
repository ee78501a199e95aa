import pytest

from rectcover.bench import trial_seed
from rectcover.geometry import contains, domination_witnesses, filter_dominated, generate_instance
from rectcover.graph import build_graph
from rectcover.heuristics import gcc, gcc_i, mis_greedy, mis_i
from rectcover.oracles import exact_mcc, exact_mis, verify_cover, verify_independent

from conftest import inst_of, mk


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
    result = gcc_i(inst_of(triangle))
    assert result.size == 1
    assert result.theta_count == 1 and result.phi_count == 0


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
    # 1500 boxes leave more than 1024 removed, past the witness kernel's
    # first row block; the reference is a plain scan of kept in index order
    instance = generate_instance(1500, seed=trial_seed(41, 1500, 0))
    kept, removed = filter_dominated(instance)
    assert len(removed) > 1024
    rects = instance.rects
    expected = [next(j for j in kept if contains(rects[i], rects[j])) for i in removed]
    assert domination_witnesses(instance.rects, kept, removed) == expected
    for algo in (gcc, gcc_i):
        assignment = algo(instance).assignment
        assert [assignment[i] for i in removed] == [assignment[j] for j in expected]


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
