"""Assignment solver tests against exhaustive permutation oracles."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtask import assign

import oracles


def random_instance(rng, n, weight_spread=True):
    d = rng.uniform(0.0, 3.0, size=(n, n))
    p = rng.uniform(0.2, 1.0, size=(n, n))
    u = assign.compute_utility(d, p, 0.97)
    w = rng.uniform(0.5, 2.0, size=n) if weight_spread else np.ones(n)
    return u, w


# ---------------------------------------------------------------------------
# compute_utility / score matrix
# ---------------------------------------------------------------------------


def test_zero_distance_keeps_preference():
    u = assign.compute_utility([[0.0]], [[0.73]], 0.5)
    assert u[0, 0] == 0.73


def test_alpha_097_unit_case():
    u = assign.compute_utility([[1.0]], [[1.0]], 0.97)
    assert u[0, 0] == pytest.approx(0.97)


def test_infinite_distance_maps_to_zero():
    u = assign.compute_utility([[math.inf]], [[0.9]], 0.97)
    assert u[0, 0] == 0.0


def test_alpha_validation():
    for alpha in (0.0, 1.0, -0.3, 1.5):
        with pytest.raises(ValueError):
            assign.compute_utility([[1.0]], [[1.0]], alpha)


def test_utility_rebuild_invariant(rng):
    alpha = 0.97
    d = rng.uniform(0.0, 3.0, size=(5, 5))
    p = rng.uniform(0.2, 1.0, size=(5, 5))
    u = assign.compute_utility(d, p, alpha)
    expected = np.power(alpha, d) * p
    assert np.max(np.abs(u - expected)) <= 1e-12


# U* takes its utilities from an (m, N) matrix and an episode's realized
# utilities from a vector gathered over the assigned tasks; both come from
# compute_utility, and comparing them (regret, teleport's exact 0) is only
# meaningful if np.power gives the same bits for an entry whatever the shape
# of the array around it.  If a numpy release breaks that, this fails by name.
_DISTANCES = st.one_of(
    st.floats(0.0, 60.0),
    st.sampled_from([0.0, 5e-324, 1e300, math.inf, math.nan]),  # nan: a task never reached
)


@given(
    data=st.data(),
    shape=st.tuples(st.integers(1, 7), st.integers(1, 9)),
    alpha=st.just(0.97) | st.floats(0.01, 0.999),
)
@settings(max_examples=300, deadline=None)
def test_utility_bits_do_not_depend_on_array_shape(data, shape, alpha):
    size = shape[0] * shape[1]
    d = np.array(data.draw(st.lists(_DISTANCES, min_size=size, max_size=size))).reshape(shape)
    rate = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)))
    rate = rate.reshape(shape)
    rows, cols = np.unravel_index(data.draw(st.permutations(range(size))), shape)
    matrix = assign.compute_utility(d, rate, alpha)[rows, cols]
    gathered = assign.compute_utility(d[rows, cols], rate[rows, cols], alpha)
    single = np.concatenate([
        assign.compute_utility(d[r, c:c + 1], rate[r, c:c + 1], alpha) for r, c in zip(rows, cols)
    ])
    assert gathered.tobytes() == matrix.tobytes()
    assert single.tobytes() == matrix.tobytes()


def test_score_matrix_values():
    u = assign.compute_utility([[0.0]], [[1.0]], 0.97)  # utility exactly 1
    s = assign.eg_score_matrix(u, [1.0])
    assert 0.0 < s[0, 0] < 2e-12  # log(1 + eps) ~ eps

    u0 = assign.compute_utility([[math.inf]], [[1.0]], 0.97)  # utility 0
    s0 = assign.eg_score_matrix(u0, [2.0])
    assert s0[0, 0] == pytest.approx(2.0 * math.log(assign.EPSILON))
    assert math.isfinite(s0[0, 0])


def test_score_rows_linear_in_weight(rng):
    u, w = random_instance(rng, 4)
    s1 = assign.eg_score_matrix(u, w)
    w2 = w.copy()
    w2[2] *= 2.0
    s2 = assign.eg_score_matrix(u, w2)
    assert np.array_equal(s2[2], 2.0 * s1[2])
    assert np.array_equal(s2[0], s1[0])


# ---------------------------------------------------------------------------
# solve_hungarian_max
# ---------------------------------------------------------------------------


def test_hungarian_identity_dominant():
    n = 4
    scores = np.eye(n)
    res = assign.solve_hungarian_max(scores)
    assert np.array_equal(res.task_of_agent, np.arange(n))
    assert res.objective == pytest.approx(n)


def test_hungarian_rank_one_matrix_against_oracle():
    # Rank-one outer product [1,2,3] x [1,2,3]: the exhaustive oracle pins the
    # max at 14 (sorted-with-sorted by the rearrangement inequality).
    scores = np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    perm, best = oracles.brute_force_max_sum(scores)
    assert best == pytest.approx(14.0)
    res = assign.solve_hungarian_max(scores)
    assert res.objective == pytest.approx(best)


def test_hungarian_matches_oracle_random(rng):
    for n in (2, 3, 4, 5, 6):
        scores = rng.normal(size=(n, n))
        _, best = oracles.brute_force_max_sum(scores)
        assert assign.solve_hungarian_max(scores).objective == pytest.approx(
            best, abs=1e-9
        )


def test_hungarian_constant_shift_invariance(rng):
    scores = rng.normal(size=(5, 5))
    base = assign.solve_hungarian_max(scores)
    shifted = assign.solve_hungarian_max(scores + 3.7)
    assert np.array_equal(base.task_of_agent, shifted.task_of_agent)
    assert shifted.objective == pytest.approx(base.objective + 5 * 3.7)


def test_hungarian_rejects_bad_input():
    with pytest.raises(ValueError):
        assign.solve_hungarian_max(np.ones((3, 2)))  # more tasks than agents
    with pytest.raises(ValueError):
        assign.solve_hungarian_max(np.array([[1.0, math.inf], [0.0, 1.0]]))


@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.tuples(st.integers(1, 6), st.integers(1, 6)).map(sorted),
)
@settings(max_examples=60, deadline=None)
def test_rectangular_solvers_match_exhaustive_oracle(seed, dims):
    m, n = dims
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=(m, n))
    u = assign.compute_utility(
        rng.uniform(0.0, 3.0, size=(m, n)), rng.uniform(0.2, 1.0, size=(m, n)), 0.97
    )
    w = rng.uniform(0.5, 2.0, size=m)
    for res, best in (
        (assign.solve_hungarian_max(scores), oracles.best_injective_sum(scores)),
        (assign.solve_eg(u, w), oracles.best_injective_sum(w[:, None] * np.log(u))),
    ):
        served = res.task_of_agent[res.task_of_agent >= 0]
        assert sorted(served.tolist()) == list(range(m))  # one-to-one, every task served
        assert np.count_nonzero(res.task_of_agent == -1) == n - m
        assert [t for _, t in res.pairs()] == served.tolist()
        assert res.objective == pytest.approx(best, abs=1e-9)


# ---------------------------------------------------------------------------
# solve_eg
# ---------------------------------------------------------------------------


def test_eg_single_pair():
    u = assign.compute_utility([[1.0]], [[0.8]], 0.97)
    res = assign.solve_eg(u, [2.0])
    assert res.task_of_agent.tolist() == [0]
    assert res.objective == pytest.approx(2.0 * math.log(0.97 * 0.8))


def test_eg_matches_exhaustive_random(rng):
    for n in (2, 3, 4, 5):
        u, w = random_instance(rng, n)
        _, best = oracles.brute_force_eg(u, w)
        res = assign.solve_eg(u, w)
        assert res.objective == pytest.approx(best, abs=1e-9)


def test_eg_dominant_permutation():
    # One permutation strictly dominates entrywise; it must be selected.
    vals = np.array([[0.9, 0.1, 0.1], [0.1, 0.9, 0.1], [0.1, 0.1, 0.9]])
    u = assign.compute_utility(np.zeros((3, 3)), vals, 0.97)
    res = assign.solve_eg(u, np.ones(3))
    assert np.array_equal(res.task_of_agent, np.arange(3))


def test_eg_zero_row_flags_neg_inf():
    d = np.array([[math.inf, math.inf], [1.0, 2.0]])
    p = np.ones((2, 2))
    u = assign.compute_utility(d, p, 0.97)
    res = assign.solve_eg(u, np.ones(2))
    assert res.objective == -math.inf
    assert sorted(res.task_of_agent.tolist()) == [0, 1]


def test_eg_objective_consistency(rng):
    for _ in range(100):
        u, w = random_instance(rng, 4)
        res = assign.solve_eg(u, w)
        assert assign.weighted_log_value(assign.task_utilities(res, u), w) == res.objective


@given(seed=st.integers(0, 2**32 - 1), scale_idx=st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_eg_weight_scaling_argmax_invariance(seed, scale_idx):
    lam = (0.1, 1.0, 10.0)[scale_idx]
    rng = np.random.default_rng(seed)
    u, w = random_instance(rng, 4)
    base = assign.solve_eg(u, w)
    scaled = assign.solve_eg(u, lam * w)
    assert np.array_equal(base.task_of_agent, scaled.task_of_agent)
    if math.isfinite(base.objective):
        assert scaled.objective == pytest.approx(lam * base.objective, rel=1e-9)


def test_reduction_soundness(rng):
    # Linear-score argmax equals the weighted-log argmax whenever every
    # utility clears the epsilon floor.
    for _ in range(50):
        u, w = random_instance(rng, 4)
        assert np.all(u > 1e-6)
        perm_lin, _ = oracles.brute_force_max_sum(assign.eg_score_matrix(u, w))
        perm_log, _ = oracles.brute_force_eg(u, w)
        assert np.array_equal(perm_lin, perm_log)


# ---------------------------------------------------------------------------
# weighted-log objective / pareto
# ---------------------------------------------------------------------------


def test_eg_objective_log_one_is_zero():
    u = assign.compute_utility(np.zeros((3, 3)), np.ones((3, 3)), 0.5)
    res = assign.Assignment(task_of_agent=np.arange(3), objective=0.0)
    assert assign.weighted_log_value(assign.task_utilities(res, u), np.ones(3)) == 0.0


def test_eg_objective_single_task_log_e():
    u = np.array([[math.e]])
    res = assign.Assignment(task_of_agent=np.array([0]), objective=0.0)
    assert assign.weighted_log_value(assign.task_utilities(res, u), [2.0]) == pytest.approx(2.0)


def test_pareto_not_self_dominant(rng):
    u, _ = random_instance(rng, 3)
    a = assign.Assignment(task_of_agent=np.array([0, 1, 2]), objective=0.0)
    assert not oracles.pareto_dominates(a, a, u)


def test_pareto_strict_dominance():
    vals = np.array([[0.9, 0.1], [0.1, 0.9]])
    u = assign.compute_utility(np.zeros((2, 2)), vals, 0.97)
    good = assign.Assignment(task_of_agent=np.array([0, 1]), objective=0.0)
    bad = assign.Assignment(task_of_agent=np.array([1, 0]), objective=0.0)
    assert oracles.pareto_dominates(good, bad, u)
    assert not oracles.pareto_dominates(bad, good, u)


def test_pareto_trade_is_incomparable():
    # Hand-evaluable 2x2: identity gives task utilities (0.9, 0.4), the swap
    # gives (0.5, 0.8) -- each permutation trades one task off against the other.
    vals = np.array([[0.9, 0.5], [0.8, 0.4]])
    u = assign.compute_utility(np.zeros((2, 2)), vals, 0.97)
    a = assign.Assignment(task_of_agent=np.array([0, 1]), objective=0.0)
    b = assign.Assignment(task_of_agent=np.array([1, 0]), objective=0.0)
    assert not oracles.pareto_dominates(a, b, u)
    assert not oracles.pareto_dominates(b, a, u)


def test_eg_solution_is_pareto_efficient(rng):
    for _ in range(60):
        u, w = random_instance(rng, 4)
        res = assign.solve_eg(u, w)
        for perm in itertools.permutations(range(4)):
            rival = assign.Assignment(task_of_agent=np.array(perm), objective=0.0)
            assert not oracles.pareto_dominates(rival, res, u)


# ---------------------------------------------------------------------------
# the linear assignment against scipy's
# ---------------------------------------------------------------------------

# The Hungarian rule solves on preferences, where agents of one type share a
# column, and min-max on a big-M matrix, so ties are the common case and the
# port must pick scipy's pairs among them, not just an optimum.


@st.composite
def _matrices(draw, shape):
    m, n = draw(shape)
    kind = draw(st.sampled_from(["floats", "small-ints", "repeated-columns", "eg-scores"]))
    if kind == "floats" and m * n <= 144:
        values = draw(st.lists(st.floats(-100.0, 100.0), min_size=m * n, max_size=m * n))
        return np.array(values).reshape(m, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "floats":  # too many entries to draw one by one
        return rng.uniform(-100.0, 100.0, size=(m, n))
    if kind == "small-ints":
        return rng.integers(0, 4, size=(m, n)).astype(float)
    if kind == "repeated-columns":  # agents of one type share a column
        types = rng.integers(0, 3, size=n)
        return np.round(rng.uniform(0.0, 1.0, size=(m, 3)), 1)[:, types]
    u = np.where(rng.random((m, n)) < 0.3, 0.0, rng.uniform(0.0, 1.0, size=(m, n)))
    return assign.eg_score_matrix(u, rng.uniform(0.5, 2.0, size=m))  # log(EPSILON) at the zeros


def _wide(max_n):
    return st.integers(1, max_n).flatmap(lambda n: st.tuples(st.integers(1, n), st.just(n)))


def _square(sizes):
    return sizes.map(lambda n: (n, n))


def _assert_same(got: assign.Assignment, want: assign.Assignment):
    assert np.array_equal(got.task_of_agent, want.task_of_agent)
    assert got.objective.hex() == want.objective.hex()


@given(scores=_matrices(_wide(12)))
@settings(max_examples=400, deadline=None)
def test_hungarian_picks_scipys_pairs(scores):
    _assert_same(assign.solve_hungarian_max(scores), oracles.scipy_hungarian_max(scores))


@given(costs=_matrices(_square(st.integers(1, 12))))
@settings(max_examples=400, deadline=None)
def test_minmax_picks_scipys_pairs(costs):
    costs = np.abs(costs)
    _assert_same(assign.solve_minmax(costs), oracles.scipy_minmax(costs))


@given(scores=_matrices(st.tuples(st.integers(30, 40), st.just(40))))
@settings(max_examples=8, deadline=None)
def test_hungarian_picks_scipys_pairs_40(scores):
    _assert_same(assign.solve_hungarian_max(scores), oracles.scipy_hungarian_max(scores))


@given(costs=_matrices(_square(st.just(40))))
@settings(max_examples=8, deadline=None)
def test_minmax_picks_scipys_pairs_40(costs):
    costs = np.abs(costs)
    _assert_same(assign.solve_minmax(costs), oracles.scipy_minmax(costs))


def test_assign_rows_tie_rule():
    # A row's first scan runs from the last column down and, at an equal
    # reduced cost, moves to a column no row holds yet: among free columns at
    # the minimum the lowest wins, and a free one beats a held one.
    assert assign._assign_rows(np.zeros((4, 4))) == [0, 1, 2, 3]
    assert assign._assign_rows(np.array([[1.0, 0.0, 0.0, 0.0]])) == [1]
    assert assign._assign_rows(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])) == [0, 1]


# ---------------------------------------------------------------------------
# solve_minmax
# ---------------------------------------------------------------------------


def test_minmax_identity_cheap_diagonal():
    costs = np.full((3, 3), 10.0)
    np.fill_diagonal(costs, 1.0)
    res = assign.solve_minmax(costs)
    assert np.array_equal(res.task_of_agent, np.arange(3))
    assert res.objective == 1.0


def test_minmax_fixed_matrix_against_oracle():
    costs = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
    _, best = oracles.brute_force_minmax(costs)
    assert best == 2.0  # oracle value for this matrix
    res = assign.solve_minmax(costs)
    assert res.objective == best


def test_minmax_matches_oracle_random(rng):
    for n in (2, 3, 4, 5, 6):
        costs = rng.uniform(0.0, 5.0, size=(n, n))
        _, best = oracles.brute_force_minmax(costs)
        res = assign.solve_minmax(costs)
        assert res.objective == best
        assert costs[res.task_of_agent, np.arange(n)].max() == best


def test_minmax_scale_invariance(rng):
    costs = rng.uniform(0.0, 5.0, size=(4, 4))
    base = assign.solve_minmax(costs)
    for lam in (0.25, 3.0):
        scaled = assign.solve_minmax(lam * costs)
        assert np.array_equal(base.task_of_agent, scaled.task_of_agent)


def test_minmax_secondary_total_cost(rng):
    # Among bottleneck-optimal permutations the returned one minimizes the
    # total cost (checked exhaustively).
    for _ in range(30):
        costs = rng.integers(0, 4, size=(4, 4)).astype(float)  # many ties
        res = assign.solve_minmax(costs)
        best_total = math.inf
        for perm in itertools.permutations(range(4)):
            perm = np.array(perm)
            selected = costs[perm, np.arange(4)]
            if selected.max() == res.objective:
                best_total = min(best_total, selected.sum())
        assert costs[res.task_of_agent, np.arange(4)].sum() == pytest.approx(best_total)


def test_minmax_rejects_bad_input():
    with pytest.raises(ValueError):
        assign.solve_minmax(np.ones((2, 3)))
    with pytest.raises(ValueError):
        assign.solve_minmax(np.array([[1.0, -0.5], [0.0, 1.0]]))
