"""Fairness indices, optimum, realized value, and regret tests."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fairtask import assign, engine, metrics, pathfind, world

import oracles
from conftest import make_scenario


def _result(utilities, weights, **kw):
    m = len(utilities)
    defaults = dict(
        realized_utilities=np.asarray(utilities, dtype=float),
        weights=np.asarray(weights, dtype=float),
        completion_time=1.0,
        per_agent_distance=np.ones(m) / m,
        collision_count=0,
        discovery_times=np.zeros(m),
        commits=(),
        incomplete=False,
        rule="eg",
    )
    defaults.update(kw)
    return metrics.EpisodeResult(**defaults)


# ---------------------------------------------------------------------------
# rho / F / Jain
# ---------------------------------------------------------------------------


def test_rho_unit_when_utilities_match_weights():
    r = _result([0.5, 2.0, 1.3], [0.5, 2.0, 1.3])
    assert metrics.rho(r) == pytest.approx([1.0, 1.0, 1.0])


def test_rho_elementwise_division():
    r = _result([2.0, 1.0], [4.0, 1.0])
    assert metrics.rho(r) == pytest.approx([0.5, 1.0])


def test_rho_homogeneous_in_utilities():
    base = metrics.rho(_result([2.0, 1.0], [4.0, 1.0]))
    scaled = metrics.rho(_result([6.0, 3.0], [4.0, 1.0]))
    assert scaled == pytest.approx(3.0 * base)


def test_fairness_cv_sentinel_on_equality():
    value = metrics.fairness_cv([1.0, 1.0, 1.0])
    assert value == metrics.CV_SENTINEL
    assert metrics.fairness_cv([1.0, 2.0]) != metrics.CV_SENTINEL


def test_fairness_cv_two_point():
    # mu = 2, population sigma = 1 -> F = 2
    assert metrics.fairness_cv([1.0, 3.0]) == pytest.approx(2.0)


def test_fairness_cv_permutation_invariant(rng):
    vals = rng.uniform(0.1, 2.0, size=7)
    f = metrics.fairness_cv(vals)
    assert metrics.fairness_cv(vals[::-1]) == pytest.approx(f)
    assert metrics.fairness_cv(rng.permutation(vals)) == pytest.approx(f)


def test_fairness_cv_needs_two():
    with pytest.raises(ValueError):
        metrics.fairness_cv([1.0])


def test_jain_perfect_equality():
    assert metrics.jain([0.7, 0.7, 0.7, 0.7]) == pytest.approx(1.0)


def test_jain_single_nonzero_lower_bound():
    assert metrics.jain([1.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)


def test_jain_two_point_value():
    assert metrics.jain([1.0, 3.0]) == pytest.approx(16.0 / 20.0)


def test_jain_bounds_random(rng):
    for _ in range(200):
        m = int(rng.integers(1, 9))
        vals = rng.uniform(0.0, 3.0, size=m)
        if not np.any(vals > 0):
            continue
        j = metrics.jain(vals)
        assert 1.0 / m - 1e-12 <= j <= 1.0 + 1e-12


def test_jain_rejects_all_zero():
    with pytest.raises(ValueError):
        metrics.jain([0.0, 0.0])


def test_fairness_measures_agree_ordinally():
    samples = ([1.0, 1.0], [1.0, 3.0], [1.0, 9.0])
    f_vals = [metrics.fairness_cv(s) for s in samples]
    j_vals = [metrics.jain(s) for s in samples]
    assert f_vals[0] >= f_vals[1] >= f_vals[2]
    assert j_vals[0] >= j_vals[1] >= j_vals[2]


def test_fairness_measures_scale_invariant(rng):
    vals = rng.uniform(0.2, 2.0, size=6)
    for lam in (0.1, 7.3):
        assert metrics.fairness_cv(lam * vals) == pytest.approx(
            metrics.fairness_cv(vals)
        )
        assert metrics.jain(lam * vals) == pytest.approx(metrics.jain(vals))


# ---------------------------------------------------------------------------
# centralized optimum / realized value / regret
# ---------------------------------------------------------------------------


def test_centralized_optimum_single_pair():
    sc = make_scenario([(0.525, 0.525)], [(1.525, 0.525)], preference_rows=[(0.8,)],
                       weights=[2.0])
    solution, _ = metrics.centralized_optimum(sc)
    u_star = solution.objective
    d = sc.distances.pairwise([sc.tasks[0].position], [sc.agents[0].start_position])[0, 0]
    assert u_star == pytest.approx(2.0 * math.log(0.97**d * 0.8))
    assert solution.task_of_agent.tolist() == [0]


def test_centralized_optimum_near_euclidean_on_empty_map(rng):
    # Oracle: the same weighted-log solve on exact Euclidean distances; the
    # octile grid overestimates each distance by at most 8.3% plus snapping.
    sc = world.generate_scenario(4, 2.5, n_obstacles=0, n_walls=0, seed=31)
    u_star = metrics.centralized_optimum(sc)[0].objective

    deltas = sc.arrays.task_positions[:, None, :] - sc.arrays.agent_positions[None, :, :]
    d_euc = np.hypot(deltas[..., 0], deltas[..., 1])
    u = assign.compute_utility(d_euc, sc.arrays.preferences, sc.alpha)
    _, best_euc = oracles.brute_force_eg(u, sc.arrays.weights)

    margin = 0.083 * d_euc.min(axis=1) + 2 * pathfind.DEFAULT_RESOLUTION
    slack = math.log(1.0 / sc.alpha) * float(np.sum(sc.arrays.weights * margin))
    assert u_star <= best_euc + 1e-9
    assert u_star >= best_euc - slack


def test_realized_value_zero_distance_contribution():
    r = _result([0.8], [3.0])
    assert r.u_pi == pytest.approx(3.0 * math.log(0.8))


def test_realized_value_unserved_task_is_neg_inf():
    r = _result([0.8, 0.0], [1.0, 1.0])
    assert r.u_pi == -math.inf


def test_longer_detour_strictly_decreases_value():
    short = _result([0.97**1.0 * 0.8], [1.0])
    long = _result([0.97**1.5 * 0.8], [1.0])
    assert long.u_pi < short.u_pi


def test_teleport_realized_equals_optimum_exactly():
    sc = world.generate_scenario(3, 2.5, seed=17)
    res = engine.run_centralized_episode(sc, "eg", execution="teleport")
    assert res.u_pi == res.u_star
    assert res.regret_gap == 0.0


def test_optimum_upper_bounds_executions():
    # U* dominates every executed policy up to discretization slack.
    for i, rule in enumerate(("eg", "hungarian", "minmax")):
        sc = world.generate_scenario(3, 2.5, seed=40 + i)
        res = engine.run_centralized_episode(sc, rule)
        assert not res.incomplete
        assert res.u_star - res.u_pi >= -0.1


def test_regret_floor_across_policies():
    # Measured slacks on the N=7 family: centralized gaps bottom out around
    # -0.03 (realized straight lines can beat octile d*), online around -0.22
    # (agents wander closer to tasks before assignment commits).
    for rule in ("eg", "hungarian", "minmax"):
        batch = engine.batch_run(engine.Batch(
            rule, episodes=20, root_seed=7, generator=dict(n_agents=7, map_size=2.7),
        ))
        for row in batch.rows:
            if not row.incomplete:
                assert row.regret_gap >= -0.1
    online_batch = engine.batch_run(engine.Batch(
        "online", 3, episodes=20, root_seed=7, generator=dict(n_agents=7, map_size=2.7),
    ))
    gaps = [r.regret_gap for r in online_batch.rows if not r.incomplete]
    assert min(gaps) >= -0.5
    assert float(np.mean(gaps)) >= 0.0


def test_episode_result_distance_identity():
    r = _result([1.0, 1.0], [1.0, 1.0], per_agent_distance=np.array([0.4, 0.6]))
    assert abs(r.total_distance - r.per_agent_distance.sum()) <= 1e-9
    # A new total moves agent 0's distance, so the sum stays the one record.
    r.total_distance += 0.5
    assert r.per_agent_distance.tolist() == pytest.approx([0.9, 0.6])
    assert r.total_distance == pytest.approx(1.5)
