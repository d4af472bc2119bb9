"""Lattice exploration, softmax sampling, and subset assignment tests."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtask import assign, engine, metrics, online, pathfind, world

import oracles
from conftest import make_scenario


# ---------------------------------------------------------------------------
# init_lattice
# ---------------------------------------------------------------------------


def test_lattice_dimensions_quarter_radius(empty_scenario):
    emap = online.init_lattice(empty_scenario)  # 2.5 workspace, r = 0.5
    assert emap.points[1] - emap.points[0] == pytest.approx([0.0, 0.25])
    assert len(emap.points) == 11 * 11
    assert not emap.explored.any()


def test_lattice_width_is_half_min_radius():
    sc = make_scenario(
        [(0.5, 0.5), (2.0, 2.0)], [(1.0, 2.0), (2.0, 0.5)], sensing_radius=0.4
    )
    emap = online.init_lattice(sc)
    assert emap.points[1] - emap.points[0] == pytest.approx([0.0, 0.2])


def test_lattice_point_inside_obstacle_premarked():
    sc = make_scenario([(0.3, 0.3)], [(2.2, 2.2)], obstacles=[((1.25, 1.25), 0.12)])
    emap = online.init_lattice(sc)
    covered = np.hypot(*(emap.points - [1.25, 1.25]).T) <= 0.12
    assert covered.any()
    assert emap.explored[covered].all()
    assert not emap.explored[~covered].any()


@pytest.mark.parametrize(
    "n, map_size, seeds",
    [(3, 2.5, 6), (7, 2.7, 6), (12, 3.5, 10), (40, 6.0, 10)],
    ids=["N3", "N7", "N12", "N40"],
)
def test_lattice_premarks_exactly_obstacle_and_blocked_cell_points(n, map_size, seeds):
    # The scalar pre-mark with math.hypot and one blocked-cell lookup per point
    # is the oracle of init_lattice's array pre-mark.
    grid_only = 0  # points only the blocked-cell test marks, over all seeds
    for seed in range(seeds):
        sc = world.generate_scenario(n, map_size, seed=seed)
        assert sc.walls
        emap = online.init_lattice(sc)
        grid = sc.distances.grid
        in_disc = np.zeros(len(emap.points), dtype=bool)
        for (cx, cy), r in sc.obstacles:
            in_disc |= [math.hypot(px - cx, py - cy) <= r for px, py in emap.points]
        in_blocked = np.array([grid.blocked[grid.cell_of(p)] for p in emap.points])
        assert np.array_equal(emap.explored, in_disc | in_blocked)
        grid_only += int((in_blocked & ~in_disc).sum())
    assert grid_only > 0


# ---------------------------------------------------------------------------
# sample_target / mark_swept
# ---------------------------------------------------------------------------


def _tiny_map(points):
    points = np.asarray(points, dtype=float)
    return online.ExplorationMap(points=points, explored=np.zeros(len(points), dtype=bool))


def test_sample_single_point_certain(rng):
    emap = _tiny_map([(1.0, 1.0)])
    p = online.sample_target(emap, (0.0, 0.0), rng)
    assert p == pytest.approx([1.0, 1.0])
    assert emap.explored.all()
    assert online.sample_target(emap, (0.0, 0.0), rng) is None


def test_sample_equidistant_pair_is_even(rng):
    counts = np.zeros(2)
    for _ in range(10_000):
        emap = _tiny_map([(1.0, 0.0), (-1.0, 0.0)])
        p = online.sample_target(emap, (0.0, 0.0), rng)
        counts[0 if p[0] > 0 else 1] += 1
    freq = counts / counts.sum()
    assert freq == pytest.approx([0.5, 0.5], abs=0.02)


def test_sample_softmax_distances_zero_one(rng):
    # P = (e^0, e^-1) / (e^0 + e^-1) ~ (0.731, 0.269)
    expect = np.exp([0.0, -1.0])
    expect /= expect.sum()
    counts = np.zeros(2)
    for _ in range(10_000):
        emap = _tiny_map([(0.0, 0.0), (1.0, 0.0)])
        p = online.sample_target(emap, (0.0, 0.0), rng)
        counts[0 if p[0] < 0.5 else 1] += 1
    assert counts / counts.sum() == pytest.approx(expect, abs=0.02)


def test_mark_swept_between_points_no_change():
    emap = _tiny_map([(0.0, 0.0), (0.25, 0.0)])
    online.mark_swept(emap, [(0.125, 0.3)], [0.1])
    assert not emap.explored.any()


def test_mark_swept_on_point():
    emap = _tiny_map([(0.5, 0.5)])
    online.mark_swept(emap, [(0.5, 0.5)], [0.05])
    assert emap.explored.all()


def test_mark_swept_exact_cover(empty_scenario):
    emap = online.init_lattice(empty_scenario)
    center = np.array([1.25, 1.25])
    radius = 0.3  # covers the center point plus its 4 orthogonal neighbours
    expected = np.hypot(*(emap.points - center).T) <= radius
    assert int(expected.sum()) == 5
    online.mark_swept(emap, [center], [radius])
    assert np.array_equal(emap.explored, expected)


def test_mark_swept_validates_every_radius():
    emap = _tiny_map([(0.5, 0.5)])
    for radii in ([0.0, 0.5], [0.5, -0.1]):
        with pytest.raises(ValueError, match="radius must be positive"):
            online.mark_swept(emap, [(0.5, 0.5), (1.0, 1.0)], radii)
    with pytest.raises(ValueError, match="2 positions need as many radii"):
        online.mark_swept(emap, [(0.5, 0.5), (1.0, 1.0)], [0.5])
    assert not emap.explored.any()


@pytest.mark.parametrize(
    "n, map_size",
    [pytest.param(n, size, id=f"N{n}") for n, size in ((1, 2.5), (3, 2.5), (12, 3.5))],
)
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_mark_swept_matches_per_agent_oracle(n, map_size, seed):
    sc = world.generate_scenario(n, map_size, seed=seed)
    rng = np.random.default_rng(seed)
    fast = online.init_lattice(sc)
    fast.explored |= rng.random(len(fast.points)) < 0.3
    slow = online.ExplorationMap(points=fast.points, explored=fast.explored.copy())
    for _ in range(5):
        sweeping = np.flatnonzero(rng.random(n) < 0.7)
        positions = rng.uniform(0.0, map_size, size=(len(sweeping), 2))
        radii = rng.uniform(0.05, 0.6, size=len(sweeping))
        for f in range(len(sweeping)):
            # Half the balls pass exactly through a lattice point.
            gap = positions[f] - fast.points[rng.integers(len(fast.points))]
            d = float(np.hypot(gap[0], gap[1]))
            if rng.random() < 0.5 and d > 0.0:
                radii[f] = d
        if len(sweeping):
            online.mark_swept(fast, positions, radii)
        for f in range(len(sweeping)):
            oracles.mark_swept(slow, positions[f], radii[f])
        assert np.array_equal(fast.explored, slow.explored)


def test_one_sweep_per_tick(monkeypatch):
    log = []

    def logged(mark, fn):
        def wrapper(*args, **kwargs):
            log.append(mark)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(online, "mark_swept", logged("m", online.mark_swept))
    monkeypatch.setattr(world, "step_dynamics_events", logged("s", world.step_dynamics_events))
    sc = world.generate_scenario(7, seed=12)
    res = online.run_online_episode(sc, 3, np.random.default_rng(5))
    assert not res.incomplete
    ticks = "".join(log)
    assert ticks.startswith("ms")  # the sensing before any motion sweeps too
    assert "mm" not in ticks


@pytest.mark.parametrize("reached_a_target", [False, True], ids=["first-call", "after-a-target"])
def test_free_agent_on_a_spent_lattice_brakes_without_a_goal(reached_a_target):
    sc = make_scenario([(0.525, 0.525), (2.0, 2.0)], [(1.525, 0.525), (0.6, 2.0)])
    ep = engine.Episode(sc)
    policy = online.ExplorationPolicy(sc, 2, np.random.default_rng(3))
    nav = ep.navs[0]
    if reached_a_target:
        policy.observe(ep)
        assert nav.goal is not None
        ep.state.agent_positions[0] = nav.goal  # standing on the drawn target
    policy.emap.explored[:] = True
    v = np.array([0.2, -0.15])
    ep.state.agent_velocities[0] = v
    policy.observe(ep)
    action = nav.action(ep.state, sc, 0)
    assert action == engine.brake_action(v, sc.arrays.quantum[0])
    assert nav.goal is None


# ---------------------------------------------------------------------------
# select_subset_and_assign
# ---------------------------------------------------------------------------


def _agents(partial):
    return tuple(a for a, _ in partial.pairs())


def test_subset_degenerate_equals_centralized():
    sc = world.generate_scenario(4, 2.5, seed=3)
    positions = sc.agent_positions()
    pa = online.select_subset_and_assign({0, 1, 2, 3}, {0, 1, 2, 3}, 4, sc, positions)
    d = sc.distances.pairwise(sc.task_positions(), positions)
    u = assign.compute_utility(d, sc.arrays.preferences, sc.alpha)
    direct = assign.solve_eg(u, sc.arrays.weights)
    assert sorted(pa.pairs()) == sorted(direct.pairs())
    assert pa.objective == pytest.approx(direct.objective)


def test_subset_choice_matches_exhaustive_oracle():
    sc = world.generate_scenario(5, 2.6, seed=23)
    positions = sc.agent_positions()
    free, pending, k = {0, 1, 2, 3, 4}, {1, 3}, 2
    pa = online.select_subset_and_assign(free, pending, k, sc, positions)
    subset, obj = oracles.subset_oracle(free, pending, sc, sc.distances, positions)
    assert _agents(pa) == subset
    assert pa.objective == pytest.approx(obj, abs=1e-9)


def _random_triggers(count, seed):
    """Random triggers on generated N <= 8 scenarios, agents on free cells."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 9))
        sc = world.generate_scenario(n, 2.7, seed=int(rng.integers(2**31)))
        grid = sc.distances.grid
        cells = np.argwhere(~grid.blocked)
        positions = np.array(
            [grid.center(tuple(c)) for c in cells[rng.choice(len(cells), n)]]
        )
        free = sorted(rng.choice(n, int(rng.integers(1, n + 1)), replace=False).tolist())
        pending = sorted(
            rng.choice(n, int(rng.integers(1, len(free) + 1)), replace=False).tolist()
        )
        k = int(rng.integers(len(pending), n + 1))
        yield sc, free, pending, k, positions


def test_subset_choice_matches_oracle_on_random_triggers():
    for sc, free, pending, k, positions in _random_triggers(40, seed=5):
        pa = online.select_subset_and_assign(free, pending, k, sc, positions)
        subset, obj = oracles.subset_oracle(free, pending, sc, sc.distances, positions)
        assert _agents(pa) == subset
        assert pa.objective == pytest.approx(obj, abs=1e-9)
        assert sorted(t for _, t in pa.pairs()) == pending


def test_one_solve_and_one_distance_matrix_per_trigger(monkeypatch):
    calls = {"solve_eg": 0, "pairwise": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(assign, "solve_eg", counted("solve_eg", assign.solve_eg))
    monkeypatch.setattr(
        pathfind.DistanceProvider,
        "pairwise",
        counted("pairwise", pathfind.DistanceProvider.pairwise),
    )
    for sc, free, pending, k, positions in _random_triggers(10, seed=6):
        calls.update(solve_eg=0, pairwise=0)
        online.select_subset_and_assign(free, pending, k, sc, positions)
        assert calls == {"solve_eg": 1, "pairwise": 1}


def test_subset_tie_breaks_lexicographically():
    # Two agents mirror-symmetric about the task column: identical distances
    # and preferences give exactly equal objectives; the lower index wins.
    sc = make_scenario(
        [(0.624, 1.225), (1.824, 1.225)],  # snap to cells 12 and 36, task cell 24
        [(1.225, 1.225), (1.225, 2.0)],
        size=2.5,
    )
    positions = sc.agent_positions()
    d0, d1 = sc.distances.pairwise([sc.tasks[0].position], positions[:2])[0]
    assert d0 == d1  # exact symmetry of the snapped cells
    pa = online.select_subset_and_assign({0, 1}, {0}, 1, sc, positions)
    assert _agents(pa) == (0,)


def test_subset_overflow_is_internal_error():
    sc = world.generate_scenario(3, 2.5, seed=9)
    with pytest.raises(RuntimeError):
        online.select_subset_and_assign({0, 1, 2}, {0, 1, 2}, 2, sc, sc.agent_positions())


# ---------------------------------------------------------------------------
# run_online_episode
# ---------------------------------------------------------------------------


def test_all_visible_k_equals_n_matches_centralized():
    # Huge sensing radius: Phase I is skipped and the single trigger at t=0
    # must equal the centralized weighted-log solve of the initial scenario.
    sc = world.generate_scenario(4, 2.5, sensing_radius=4.0, seed=51)
    rng = np.random.default_rng(0)
    res = online.run_online_episode(sc, 4, rng)
    assert len(res.commits) == 1
    commit = res.commits[0]
    assert commit.time == 0.0
    solution, _ = metrics.centralized_optimum(sc)
    assert sorted(commit.pairs) == sorted(solution.pairs())


def test_all_visible_k_equals_n_episode_equals_centralized_eg():
    # Everything visible at t=0 and k=N: the one trigger commits the
    # centralized EG assignment before any motion, so both modes run the
    # same episode step for step.
    for n, size, seed in ((3, 2.5, 11), (3, 2.5, 12), (4, 2.5, 13), (4, 2.5, 14),
                          (7, 2.7, 15), (7, 2.7, 16)):
        sc = world.generate_scenario(n, size, sensing_radius=4.0, seed=seed)
        on = online.run_online_episode(sc, n, np.random.default_rng(seed))
        eg = engine.run_centralized_episode(sc, "eg")
        assert on.completion_time == eg.completion_time
        assert on.total_distance == eg.total_distance
        assert np.array_equal(on.realized_utilities, eg.realized_utilities)
        assert np.array_equal(on.per_agent_distance, eg.per_agent_distance)
        assert on.assignment_log == eg.assignment_log
        assert on.u_star == eg.u_star
        assert on.u_pi == eg.u_pi


def test_phase_trigger_boundaries():
    sc = world.generate_scenario(5, 2.6, seed=8)
    rng = np.random.default_rng(4)
    res = online.run_online_episode(sc, 2, rng)
    assert not res.incomplete
    assert res.commits
    for commit in res.commits:
        assert len(commit.pending_tasks) <= 2
    full = {t for commit in res.commits for _, t in commit.pairs}
    assert full == set(range(5))


@pytest.mark.parametrize("n,map_size", [(3, 2.5), (7, 2.7)])
def test_online_trigger_invariants(n, map_size):
    # A trigger fires at exactly k pending tasks, or once every task has been
    # discovered; its pairs serve exactly its pending tasks, found by then,
    # with free agents, and a complete episode commits each agent and each
    # task once.
    for index in range(3):
        seed = engine.episode_seed(77, index)
        sc = world.generate_scenario(n, map_size, seed=seed)
        for k in range(1, n + 1):
            res = online.run_online_episode(sc, k, np.random.default_rng([seed, 1]))
            assert not res.incomplete
            for commit in res.commits:
                all_found = bool(np.all(res.discovery_times <= commit.time))
                assert len(commit.pending_tasks) == k or all_found
                assert sorted(t for _, t in commit.pairs) == list(commit.pending_tasks)
                assert {a for a, _ in commit.pairs} <= set(commit.free_agents)
                assert all(res.discovery_times[t] <= commit.time for _, t in commit.pairs)
            assert sorted(a for _, a, _ in res.assignment_log) == list(range(n))
            assert sorted(t for _, _, t in res.assignment_log) == list(range(n))


def test_assignment_permanence():
    sc = world.generate_scenario(4, 2.5, seed=29)
    res = online.run_online_episode(sc, 2, np.random.default_rng(1))
    agents = [a for _, a, _ in res.assignment_log]
    tasks = [t for _, _, t in res.assignment_log]
    assert len(agents) == len(set(agents)) == 4
    assert len(tasks) == len(set(tasks)) == 4


def test_subset_commit_beats_alternatives():
    sc = world.generate_scenario(5, 2.6, seed=63)
    res = online.run_online_episode(sc, 2, np.random.default_rng(2))
    grid = pathfind.build_nav_grid(sc)
    provider = pathfind.DistanceProvider(grid)
    for commit in res.commits:
        _, best = oracles.subset_oracle(
            commit.free_agents, commit.pending_tasks, sc, provider, commit.agent_positions
        )
        assert commit.objective >= best - 1e-9


def test_online_determinism():
    sc = world.generate_scenario(4, 2.5, seed=71)

    def run():
        return online.run_online_episode(sc, 2, np.random.default_rng(99))

    a, b = run(), run()
    assert a.completion_time == b.completion_time
    assert a.total_distance == b.total_distance
    assert np.array_equal(a.realized_utilities, b.realized_utilities)
    assert a.assignment_log == b.assignment_log
    assert np.array_equal(a.discovery_times, b.discovery_times)


def test_discovery_completeness_over_seeds():
    # Probabilistic completeness: with a generous cap every task is found
    # and served across a spread of seeds.
    for seed in range(6):
        sc = world.generate_scenario(3, 2.5, seed=200 + seed)
        res = online.run_online_episode(sc, 2, np.random.default_rng(seed))
        assert not res.incomplete
        assert np.all(np.isfinite(res.discovery_times))


def test_k_validation():
    sc = world.generate_scenario(3, 2.5, seed=5)
    with pytest.raises(ValueError):
        online.run_online_episode(sc, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        online.run_online_episode(sc, 4, np.random.default_rng(0))
