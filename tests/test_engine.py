"""Scripted controller, episodes, and batch running."""

from __future__ import annotations

import dataclasses
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairtask import cli, engine, metrics, online, pathfind, world
from fairtask.world import _SURFACE_BACKOFF, ACTION_IDLE

import oracles
from conftest import make_scenario


# ---------------------------------------------------------------------------
# Scripted controller
# ---------------------------------------------------------------------------


def _first_action(sc, goal):
    """A fresh navigator's goal set and first action for agent 0 at t=0."""
    state = world.initial_state(sc)
    nav = engine.Navigator(sc.distances)
    nav.set_goal(state.agent_positions[0], goal)
    return nav, nav.action(state, sc, 0)


def test_policy_idles_when_parked(empty_scenario):
    sc = empty_scenario
    goal = world.initial_state(sc).agent_positions[0].copy()
    nav, action = _first_action(sc, goal)
    assert nav.waypoints == []
    assert action == ACTION_IDLE


def test_policy_accelerates_toward_distant_goal(empty_scenario):
    _, action = _first_action(empty_scenario, (2.0, 0.525))
    assert action == world.ACTION_ACCEL_PX


def test_policy_unreachable_goal_idles():
    sc = make_scenario(
        [(0.5, 0.5)], [(2.0, 0.5)], walls=[((0.0, 1.25), (2.5, 1.25))]
    )
    nav, action = _first_action(sc, (0.5, 2.0))
    assert nav.waypoints == []
    assert action == ACTION_IDLE


_COMPONENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.125, -0.125, 0.3, -0.3]),
    st.floats(-3.0, 3.0, allow_nan=False),
)


@settings(max_examples=400, deadline=None)
@given(x=_COMPONENTS, y=_COMPONENTS, quantum=st.floats(0.01, 1.0),
       shape=st.sampled_from(["free", "equal", "threshold"]))
@example(x=0.0, y=-0.0, quantum=0.25, shape="free")
@example(x=-0.0, y=0.0, quantum=0.25, shape="free")
@example(x=0.125, y=0.0, quantum=0.25, shape="free")     # |v| exactly 0.5 * quantum
@example(x=-0.0, y=-0.125, quantum=0.25, shape="free")
@example(x=0.3, y=-0.3, quantum=0.25, shape="free")      # |x| == |y|
@example(x=-0.3, y=-0.3, quantum=0.25, shape="free")
@example(x=-2.001, y=2.493, quantum=0.25, shape="threshold")  # math.hypot 1 ulp above np.hypot
@example(x=-1.024, y=-2.107, quantum=0.25, shape="threshold")  # and 1 ulp below
def test_axis_rule_matches_the_braking_and_goto_oracles(x, y, quantum, shape):
    if shape == "equal":
        y = math.copysign(abs(x), y)
    elif shape == "threshold" and math.hypot(x, y) > 0.0:
        # The vector sits exactly at 0.5 * quantum, where the float test idles;
        # the numpy oracle's np.hypot may land an ulp either side of it.
        quantum = 2.0 * math.hypot(x, y)
        assert engine.brake_action((x, y), quantum) == ACTION_IDLE
        assert engine._axis_action(x, y, quantum) == ACTION_IDLE
        return
    v = np.array([x, y])
    assert engine.brake_action(v, quantum) == oracles.brake_action(v, quantum)
    assert engine._axis_action(x, y, quantum) == oracles.goto_axis_action(v, quantum)


_SCENARIO_MAPS = {3: 2.5, 7: 2.7, 12: 3.5}


@functools.cache
def _steering_scenario(n: int, seed: int) -> world.Scenario:
    return world.generate_scenario(n, _SCENARIO_MAPS[n], seed=seed)


def _draw_position(data, sc, i) -> np.ndarray:
    s = sc.workspace_size
    where = data.draw(st.sampled_from(["start", "free", "wall", "disc"]))
    if where == "start":
        return np.array(sc.agents[i].start_position, dtype=float)
    if where == "free":
        return np.array([data.draw(st.floats(0.05, s - 0.05)) for _ in range(2)])
    side = data.draw(st.sampled_from([-1.0, 1.0]))
    if where == "wall":  # pressed on a wall, as the motion clip leaves an agent
        (x1, y1), (x2, y2) = sc.walls[data.draw(st.integers(0, len(sc.walls) - 1))]
        t = data.draw(st.floats(0.0, 1.0))
        normal = np.array([y1 - y2, x2 - x1]) / math.hypot(x2 - x1, y2 - y1)
        p = np.array([x1 + t * (x2 - x1), y1 + t * (y2 - y1)]) + side * _SURFACE_BACKOFF * normal
    else:  # on the rim of a disc, just outside or just inside
        (cx, cy), r = sc.obstacles[data.draw(st.integers(0, len(sc.obstacles) - 1))]
        a = data.draw(st.floats(0.0, 2.0 * math.pi))
        p = np.array([cx, cy]) + (r + side * _SURFACE_BACKOFF) * np.array([math.cos(a), math.sin(a)])
    return np.clip(p, 0.0, s)


def _draw_agent(data, sc, i, pos):
    """(velocity, goal, waypoints) of one agent; goal None means it brakes."""
    s, vmax = sc.workspace_size, sc.agents[i].max_speed
    quantum = float(sc.arrays.quantum[i])
    point = st.tuples(st.floats(0.0, s), st.floats(0.0, s)).map(np.array)
    u = data.draw(st.floats(-vmax, vmax))
    velocity = data.draw(st.sampled_from([
        (0.0, 0.0), (0.5 * quantum, 0.0), (0.0, -0.5 * quantum), (u, u), (u, -u),
        tuple(data.draw(st.tuples(st.floats(-vmax, vmax), st.floats(-vmax, vmax)))),
    ]))
    kind = data.draw(st.sampled_from(["none", "planned", "chain", "zero-leg", "tie", "threshold"]))
    if kind == "none":
        return velocity, None, None
    if kind == "planned":
        goal = sc.tasks[data.draw(st.integers(0, sc.n_tasks - 1))].position
        return velocity, np.array(goal, dtype=float), None
    chain = data.draw(st.lists(point, max_size=3 if kind != "chain" else 4))
    x, y = pos.tolist()
    if kind == "zero-leg":
        chain.insert(0, pos.copy())
    elif kind == "tie":  # |dx| == |dy| toward the first waypoint and |vx| == |vy|
        chain.insert(0, np.array([y, x]))
        velocity = (u, -u)
    elif kind == "threshold":  # v_cap = max speed, so |dv| sits exactly at 0.5 * quantum
        sign = 1.0 if x + 0.5 <= s else -1.0
        chain = [np.array([x + sign * 0.5, y])]
        velocity = (sign * (vmax - 0.5 * quantum), 0.0)
    goal = chain[-1].copy() if chain else data.draw(point)
    return velocity, goal, chain


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([7, 12]), seed=st.integers(0, 2), data=st.data())
def test_navigator_matches_the_numpy_controller_oracle(n, seed, data):
    """The float controller takes the array oracle's action and leaves its
    waypoints, stall counter, leg-check counter and last position, tick by tick."""
    sc = _steering_scenario(n, seed)
    grid = sc.distances.grid
    positions, velocities = [], []
    navs = [engine.Navigator(sc.distances) for _ in range(n)]
    refs = [oracles.Navigator(grid) for _ in range(n)]
    for i, (nav, ref) in enumerate(zip(navs, refs)):
        pos = _draw_position(data, sc, i)
        velocity, goal, chain = _draw_agent(data, sc, i, pos)
        positions.append(pos)
        velocities.append(velocity)
        if goal is None:
            continue
        for nv in (nav, ref):
            nv.set_goal(pos, goal.copy())
        if chain is not None:
            last = pos + [data.draw(st.floats(0.0, 0.01)), 0.0]
            stall = data.draw(st.integers(0, 19))
            since_check = data.draw(st.integers(0, 14))
            for nv, last_pos in ((nav, tuple(last.tolist())), (ref, last.copy())):
                nv.waypoints = [w.copy() for w in chain]
                nv._last_pos = last_pos
                nv._stall_steps, nv._steps_since_check = stall, since_check
    state = dataclasses.replace(
        world.initial_state(sc),
        agent_positions=np.array(positions),
        agent_velocities=np.array(velocities, dtype=float),
    )
    for _tick in range(30):  # long enough for pops, stall replans and failed leg checks
        actions = []
        for i, (nav, ref) in enumerate(zip(navs, refs)):
            action = nav.action(state, sc, i)
            assert action == ref.action(state, sc, i)
            assert (nav.goal is None) == (ref.goal is None)
            assert len(nav.waypoints) == len(ref.waypoints)
            assert all(np.array_equal(a, b) for a, b in zip(nav.waypoints, ref.waypoints))
            assert nav._stall_steps == ref._stall_steps
            assert nav._steps_since_check == ref._steps_since_check
            if ref._last_pos is not None:
                assert list(nav._last_pos) == ref._last_pos.tolist()
            actions.append(action)
        state, _ = world.step_dynamics_events(state, actions, sc)


# Single ticks found by search where a math.hypot length, one ulp off
# np.hypot's, flips the x/y tie of the velocity change: the first leg (also
# the direction's norm) and an inner leg of the speed cap's chain.
_LENGTH_BITS_CASES = {
    "first-leg": ((0.6290047804491996, 2.1081782167528886), 0.3873309872801368,
                  [(1.412737197846086, 1.6718784532860205)]),
    "inner-leg": ((1.68924894880477, 2.3315482532686302), 0.8972378914555225,
                  [(1.7328760679191746, 2.4294551804407396), (1.7429655122143837, 2.430623824274178)]),
}


@pytest.mark.parametrize("case", sorted(_LENGTH_BITS_CASES))
def test_chain_lengths_keep_numpy_hypot_bits(case):
    pos, vy, chain = _LENGTH_BITS_CASES[case]
    leg = np.subtract(chain[-1], chain[-2] if len(chain) > 1 else pos)
    assert math.hypot(*leg) != float(np.hypot(*leg))  # the case is on the edge
    sc = make_scenario([pos], [chain[-1]])
    state = dataclasses.replace(world.initial_state(sc), agent_velocities=np.array([[0.0, vy]]))
    actions = []
    for nav in (engine.Navigator(sc.distances), oracles.Navigator(sc.distances.grid)):
        nav.goal = np.array(chain[-1])
        nav.waypoints = [np.array(w) for w in chain]
        nav._last_pos = np.array(pos)
        actions.append(nav.action(state, sc, 0))
    assert actions[0] == actions[1] == world.ACTION_ACCEL_PX


# (pos, w0, w1) on a 2-decimal lattice at an exact right angle, where the
# float sum dx * ex + dy * ey reads 0.0; np.dot, on a host where it fuses a
# multiply-add, reads a few 1e-17 below zero and passes the corner.
_RIGHT_ANGLES = {
    "right-angle": ((1.06, 2.01), (0.68, 1.25), (1.44, 0.87)),
    "right-angle-short": ((1.07, 0.77), (1.27, 1.05), (0.43, 1.65)),
}


@pytest.mark.parametrize("case", sorted(_RIGHT_ANGLES))
def test_right_angle_corner_keeps_its_waypoint(case):
    """The corner test is the float sum, so a navigator outside the waypoint
    tolerance keeps a waypoint whose corner sum reads 0.0, though it could
    see past it."""
    pos, w0, w1 = _RIGHT_ANGLES[case]
    (dx, dy), (ex, ey) = np.subtract(w0, pos).tolist(), np.subtract(w1, w0).tolist()
    assert dx * ex + dy * ey == 0.0
    assert math.hypot(dx, dy) > engine._WAYPOINT_TOLERANCE
    sc = make_scenario([pos], [w1])
    assert pathfind.line_of_sight(sc.distances.grid, pos, w1)  # a passed corner would pop
    nav = engine.Navigator(sc.distances)
    nav.goal = np.array(w1)
    nav.waypoints = [w0, w1]
    nav._last_pos = pos
    nav.action(world.initial_state(sc), sc, 0)
    assert nav.waypoints == [w0, w1]


def test_end_term_sums_the_legs_in_order():
    """A tick found by search where adding the chain's legs to the first leg
    one by one, and adding their sum, give speed caps 1 ulp apart; the
    velocity change is an exact x/y tie under the in-order cap only."""
    pos = (1.0856883706965823, 1.6969008291455314)
    velocity = (0.6099538552193103, 0.3801167186805988)
    chain = [(1.2099427551361401, 1.780929681021221), (1.217176630871799, 1.7899454286044167),
             (1.227080886319469, 1.7929508647836774)]
    dist, *legs = (float(np.hypot(*np.subtract(b, a))) for a, b in zip([pos] + chain, chain))
    assert dist + legs[0] + legs[1] != dist + (legs[0] + legs[1])  # the case is on the edge
    sc = make_scenario([pos], [chain[-1]])
    state = dataclasses.replace(world.initial_state(sc), agent_velocities=np.array([velocity]))
    actions = []
    for nav in (engine.Navigator(sc.distances), oracles.Navigator(sc.distances.grid)):
        nav.goal = np.array(chain[-1])
        nav.waypoints = [np.array(w) for w in chain]
        nav._last_pos = np.array(pos)
        actions.append(nav.action(state, sc, 0))
    assert actions[0] == actions[1] == world.ACTION_ACCEL_PX


def test_controller_overhead_on_empty_map():
    # Measured bound: the realized travel path (assignment to first arrival,
    # recovered from the realized utility) stays within 15% of the shortest
    # path on obstacle-free maps.  Post-arrival stationkeeping jitter counts
    # toward D but not toward the travel path.
    for seed in (1, 2, 3, 4, 5):
        sc = world.generate_scenario(1, 2.5, n_obstacles=0, n_walls=0, seed=seed)
        grid = pathfind.build_nav_grid(sc)
        provider = pathfind.DistanceProvider(grid)
        d_star = provider.pairwise([sc.tasks[0].position], [sc.agents[0].start_position])[0, 0]
        res = engine.run_centralized_episode(sc, "eg")
        assert not res.incomplete
        pref = sc.arrays.preferences[0, 0]
        d_real = math.log(res.realized_utilities[0] / pref) / math.log(sc.alpha)
        assert d_real <= 1.15 * d_star + 0.1


# ---------------------------------------------------------------------------
# Centralized episodes
# ---------------------------------------------------------------------------


def test_single_agent_episode_closed_form():
    sc = make_scenario(
        [(0.525, 0.525)], [(1.525, 0.525)], preference_rows=[(0.5,)], workloads=[1.0]
    )
    res = engine.run_centralized_episode(sc, "eg")
    assert not res.incomplete
    d_star = 1.0
    service = 1.0 / 0.5
    travel_floor = d_star / sc.agents[0].max_speed
    assert res.total_distance == pytest.approx(d_star, rel=0.15)
    assert res.completion_time >= service + travel_floor - 1e-9
    assert res.completion_time <= service + 1.6 * travel_floor + 1.0
    assert res.assignment_log == ((0.0, 0, 0),)


def test_teleport_mode_closed_form():
    sc = make_scenario(
        [(0.525, 0.525)], [(1.525, 0.525)], preference_rows=[(0.5,)], workloads=[1.0]
    )
    res = engine.run_centralized_episode(sc, "eg", execution="teleport")
    assert res.completion_time == pytest.approx(1.0 / 1.0 + 2.0)
    assert res.total_distance == pytest.approx(1.0)
    assert res.regret_gap == 0.0
    assert res.collision_count == 0


def test_rule_recorded_and_differs():
    sc = world.generate_scenario(3, 2.5, seed=303)
    res_eg = engine.run_centralized_episode(sc, "eg")
    res_hun = engine.run_centralized_episode(sc, "hungarian")
    res_mm = engine.run_centralized_episode(sc, "minmax")
    assert (res_eg.rule, res_hun.rule, res_mm.rule) == ("eg", "hungarian", "minmax")
    ratios = metrics.rho(res_eg)
    assert metrics.fairness_cv(ratios) > 0
    with pytest.raises(ValueError):
        engine.run_centralized_episode(sc, "greedy")


def test_episode_determinism():
    sc = world.generate_scenario(3, 2.5, seed=55)
    a = engine.run_centralized_episode(sc, "eg")
    b = engine.run_centralized_episode(sc, "eg")
    assert a.completion_time == b.completion_time
    assert a.total_distance == b.total_distance
    assert np.array_equal(a.realized_utilities, b.realized_utilities)
    assert np.array_equal(a.per_agent_distance, b.per_agent_distance)


def _recorded_episode(sc, rule):
    """A centralized episode run with an observer that records every tick's time."""
    optimum, _ = metrics.centralized_optimum(sc)
    u_star = optimum.objective
    ep = engine.Episode(sc)
    ep.discover(range(sc.n_tasks))
    ep.commit(optimum if rule == "eg" else engine.solve_assignment(rule, sc))
    times = []
    return ep, engine.run_episode(ep, rule, u_star, lambda e: times.append(e.state.time)), times


def _capped_eg_episode(monkeypatch, sc, step_cap):
    monkeypatch.setattr(engine, "DEFAULT_STEP_CAP", step_cap)
    ep, res, _ = _recorded_episode(sc, "eg")
    return ep, res


def test_step_cap_completion_and_accounting(monkeypatch):
    # T is the time of the last completion: a cap of exactly T / dt steps
    # still completes the same episode, and one step fewer leaves it
    # incomplete at the cap's time.  D sums the per-agent odometry either way.
    sc = world.generate_scenario(3, 2.5, seed=91)
    full = engine.run_centralized_episode(sc, "eg")
    assert not full.incomplete
    steps = round(full.completion_time / sc.dt)

    _, exact = _capped_eg_episode(monkeypatch, sc, steps)
    assert not exact.incomplete
    assert exact.completion_time == full.completion_time
    assert exact.total_distance == full.total_distance

    ep, capped = _capped_eg_episode(monkeypatch, sc, steps - 1)
    assert capped.incomplete
    assert capped.completion_time == ep.state.time
    assert math.isnan(capped.u_pi)
    for res in (full, exact, capped):
        assert res.total_distance == pytest.approx(float(res.per_agent_distance.sum()), abs=1e-9)


def test_served_agents_have_no_navigation_goal(monkeypatch):
    # Serving a task clears its agent's goal, so the agent brakes through
    # its navigator like a free agent on a spent lattice.
    sc = world.generate_scenario(3, 2.5, seed=91)
    ep, res = _capped_eg_episode(monkeypatch, sc, engine.DEFAULT_STEP_CAP)
    assert not res.incomplete
    assert [nav.goal for nav in ep.navs] == [None] * sc.n_agents


def _check_episode_facts(ep, res, times):
    # T is the last tick's time, an episode is incomplete exactly when some
    # workload is left, and a task is served (its agent's goal cleared)
    # exactly when its workload is +0.0, bit for bit.
    assert res.completion_time == times[-1] == ep.state.time
    assert res.incomplete == bool(np.any(ep.state.remaining_workloads != 0.0))
    for agent, task in enumerate(ep.task_of.tolist()):
        served = ep.navs[agent].goal is None
        assert (ep.state.remaining_workloads[task] == 0.0) == served
        if served:
            assert ep.state.remaining_workloads[task].tobytes() == np.float64(0.0).tobytes()


@pytest.mark.parametrize("n, map_size", [(3, 2.5), (7, 2.7)])
@pytest.mark.parametrize("rule", ["eg", "hungarian", "minmax"])
def test_episode_end_facts_derive_from_the_world_state(n, map_size, rule):
    for index in range(2):
        sc = world.generate_scenario(n, map_size, seed=engine.episode_seed(23, index))
        ep, res, times = _recorded_episode(sc, rule)
        assert not res.incomplete
        _check_episode_facts(ep, res, times)


def test_capped_episode_end_facts_derive_from_the_world_state(monkeypatch):
    sc = world.generate_scenario(3, 2.5, seed=engine.episode_seed(23, 0))
    _, full, _ = _recorded_episode(sc, "eg")
    monkeypatch.setattr(engine, "DEFAULT_STEP_CAP", round(full.completion_time / sc.dt) - 5)
    ep, res, times = _recorded_episode(sc, "eg")
    assert res.incomplete
    assert len(times) == engine.DEFAULT_STEP_CAP
    _check_episode_facts(ep, res, times)


def test_minmax_optimizes_its_own_metric():
    # Bottleneck rule yields the smallest max assignment distance of the three.
    for seed in (401, 402, 403):
        sc = world.generate_scenario(4, 2.5, seed=seed)
        optimum, _ = metrics.centralized_optimum(sc)
        solutions = {"eg": optimum}
        for rule in ("hungarian", "minmax"):
            solutions[rule] = engine.solve_assignment(rule, sc)
        bottlenecks = {
            rule: float(sc.start_distances[sol.task_of_agent, np.arange(4)].max())
            for rule, sol in solutions.items()
        }
        assert bottlenecks["minmax"] <= bottlenecks["eg"] + 1e-12
        assert bottlenecks["minmax"] <= bottlenecks["hungarian"] + 1e-12


def test_waypoint_requests_read_task_fields_and_compute_none(monkeypatch):
    """A navigator's search toward a task reads the task's cached field, one
    toward a lattice point reads none, and neither runs Dijkstra or caches
    a field."""
    sc = world.generate_scenario(7, 2.7, seed=42)
    provider, grid = sc.distances, sc.distances.grid
    cached = dict(provider.fields)
    goal_fields = []
    astar = pathfind._astar_cells

    def counted_astar(grid, a, b, goal_field=None):
        goal_fields.append(goal_field)
        return astar(grid, a, b, goal_field)

    def no_dijkstra(*args, **kwargs):
        raise AssertionError("a waypoint request ran Dijkstra")

    monkeypatch.setattr(pathfind, "_astar_cells", counted_astar)
    monkeypatch.setattr(pathfind, "_sp_dijkstra", no_dijkstra)
    starts, tasks = sc.arrays.agent_positions, sc.arrays.task_positions
    agent, task = next(
        (i, t) for i in range(sc.n_agents) for t in range(sc.n_tasks)
        if not pathfind.line_of_sight(grid, starts[i], tasks[t])
    )
    nav = engine.Navigator(provider)
    nav.set_goal(starts[agent], tasks[task])
    task_cell = grid.flat_index(pathfind.nearest_free_cell(grid, tasks[task]))
    assert len(goal_fields) == 1 and goal_fields[0] is provider.fields[task_cell]

    emap = online.init_lattice(sc)
    point = next(
        p for p in emap.points[~emap.explored]
        if grid.flat_index(grid.cell_of(p)) not in cached
        and not pathfind.line_of_sight(grid, starts[agent], p)
    )
    nav.set_goal(starts[agent], point)
    assert len(goal_fields) == 2 and goal_fields[1] is None
    assert nav.waypoints
    assert provider.fields.keys() == cached.keys()
    assert all(provider.fields[cell] is field for cell, field in cached.items())


@pytest.mark.parametrize("mode", ["eg-scripted", "eg-teleport", "online-k3"])
def test_episode_reuses_the_generated_grid_and_task_fields(monkeypatch, mode):
    # The generator's connectivity check builds the scenario's grid, its edge
    # set and a Dijkstra field per task; the episode runs on those same
    # objects, and A* reads the edge set that Dijkstra searched.
    edge_builds = []
    build_edges = pathfind.NavGrid.edges.func

    def counted_edges(grid):
        edge_builds.append(grid)
        return build_edges(grid)

    monkeypatch.setattr(pathfind.NavGrid.edges, "func", counted_edges)
    sc = world.generate_scenario(7, 2.7, seed=42)
    assert len(edge_builds) == 1 and edge_builds[0] is sc.distances.grid
    grid = pathfind.build_nav_grid(sc)
    task_cells = {
        grid.flat_index(pathfind.nearest_free_cell(grid, p)) for p in sc.arrays.task_positions
    }
    builds, sources = [], []
    build_nav_grid, sp_dijkstra = pathfind.build_nav_grid, pathfind._sp_dijkstra

    def counted_build(*args, **kwargs):
        builds.append(args)
        return build_nav_grid(*args, **kwargs)

    def counted_dijkstra(graph, *, indices, **kwargs):
        sources.extend(indices)  # the one batch call takes a list of source cells
        return sp_dijkstra(graph, indices=indices, **kwargs)

    monkeypatch.setattr(pathfind, "build_nav_grid", counted_build)
    monkeypatch.setattr(pathfind, "_sp_dijkstra", counted_dijkstra)
    if mode == "online-k3":
        online.run_online_episode(sc, 3, np.random.default_rng(0))
    else:
        engine.run_centralized_episode(sc, "eg", execution=mode.split("-")[1])
    assert builds == []
    assert task_cells.isdisjoint(sources)
    assert len(edge_builds) == 1


def test_every_mode_records_each_commitment_once():
    # Commits ascend in time; each binds agents free at that commit to tasks
    # pending at it, no agent twice, and together they cover every agent and
    # task once.  A centralized rule makes one commit at t=0 over the whole
    # team: the solver's own assignment and objective.
    sc = world.generate_scenario(3, 2.5, seed=engine.episode_seed(16, 0))
    optimum, _ = metrics.centralized_optimum(sc)
    u_star = optimum.objective
    runs = {rule: engine.run_centralized_episode(sc, rule) for rule in ("eg", "hungarian", "minmax")}
    runs["eg-teleport"] = engine.run_centralized_episode(sc, "eg", execution="teleport")
    runs["online-k2"] = online.run_online_episode(sc, 2, np.random.default_rng([7, 1]))
    assert len(runs["online-k2"].commits) == 2
    everyone = (0, 1, 2)
    for mode, res in runs.items():
        times = [c.time for c in res.commits]
        assert times == sorted(times), mode
        bound = set()
        for c in res.commits:
            for agent, task in c.pairs:
                assert agent in c.free_agents and task in c.pending_tasks, mode
                assert agent not in bound, mode
                bound.add(agent)
        assert tuple(sorted(a for _, a, _ in res.assignment_log)) == everyone, mode
        assert tuple(sorted(t for _, _, t in res.assignment_log)) == everyone, mode
    for mode in ("eg", "hungarian", "minmax", "eg-teleport"):
        [commit] = runs[mode].commits
        rule = mode.split("-")[0]
        solution = optimum if rule == "eg" else engine.solve_assignment(rule, sc)
        assert commit.time == 0.0
        assert commit.free_agents == commit.pending_tasks == everyone
        assert np.array_equal(commit.agent_positions, sc.arrays.agent_positions)
        assert commit.pairs == tuple(solution.pairs())
        assert commit.objective == solution.objective
        if rule == "eg":
            assert commit.objective == u_star


@pytest.mark.parametrize("mode", ["eg", "hungarian", "minmax", "online-k1", "online-kN"])
@pytest.mark.parametrize("n", [3, 7])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=5, deadline=None)
def test_realized_distance_is_at_most_the_agents_cumulative_distance(n, mode, seed):
    # An agent travels at most its whole distance before it reaches its task,
    # so each realized utility is at least alpha ** per_agent_distance times
    # the preference.  4 eps covers the rounding of pow.
    sc = world.generate_scenario(n, seed=seed)
    if mode.startswith("online"):
        k = 1 if mode == "online-k1" else n
        res = online.run_online_episode(sc, k, np.random.default_rng([seed, 1]))
    else:
        res = engine.run_centralized_episode(sc, mode)
    if res.incomplete:
        return
    prefs = sc.arrays.preferences
    slack = 1.0 - 4 * np.finfo(float).eps
    for _, a, t in res.assignment_log:
        bound = sc.alpha ** res.per_agent_distance[a] * prefs[t, a] * slack
        assert res.realized_utilities[t] >= bound, (a, t)


@pytest.mark.parametrize(
    "mode", ["eg", "hungarian", "minmax", "online-k1", "online-khalf", "online-kN"]
)
@pytest.mark.parametrize("n", [3, 7])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=8, deadline=None)
def test_episode_motion_never_crosses_a_wall_or_enters_a_disc(n, mode, seed):
    # Every dynamics step of a real episode, steered by the navigators, moves
    # each agent along a segment that crosses no interior wall, to a point
    # inside the workspace and outside every disc.
    sc = world.generate_scenario(n, seed=seed)
    grid, s = sc.distances.grid, sc.workspace_size
    step = world.step_dynamics_events
    steps = 0

    def checked_step(state, actions, scenario):
        nonlocal steps
        out = step(state, actions, scenario)
        for i, (p, q) in enumerate(zip(state.agent_positions, out[0].agent_positions)):
            assert not pathfind._segment_crosses_wall(grid, p, q), (steps, i)
            x, y = q.tolist()
            assert -1e-9 <= x <= s + 1e-9 and -1e-9 <= y <= s + 1e-9, (steps, i)
            for (cx, cy), r in sc.obstacles:
                assert math.hypot(x - cx, y - cy) >= r - 1e-9, (steps, i)
        steps += 1
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(world, "step_dynamics_events", checked_step)
        if mode.startswith("online"):
            k = {"online-k1": 1, "online-khalf": n // 2, "online-kN": n}[mode]
            online.run_online_episode(sc, k, np.random.default_rng([seed, 1]))
        else:
            engine.run_centralized_episode(sc, mode)
    assert steps > 0


# ---------------------------------------------------------------------------
# Batch running
# ---------------------------------------------------------------------------


def test_batch_single_episode_equals_row():
    batch = engine.batch_run(engine.Batch(
        "eg", episodes=1, root_seed=5, generator=dict(n_agents=3, map_size=2.5),
    ))
    assert len(batch.rows) == 1
    stats = engine.episode_stats(batch.rows[0])
    assert batch.summary["mean"]["T"] == pytest.approx(stats["T"])
    assert batch.summary["std"]["T"] == 0.0


def test_batch_reruns_identically():
    batch = engine.Batch("eg", episodes=4, root_seed=11, generator=dict(n_agents=3, map_size=2.5))
    a = engine.batch_run(batch)
    b = engine.batch_run(batch)
    assert a.summary == b.summary
    for ra, rb in zip(a.rows, b.rows):
        assert ra.seed == rb.seed
        assert np.array_equal(ra.realized_utilities, rb.realized_utilities)


@pytest.mark.parametrize(
    "algorithm,k,fixed_scenario",
    [("eg", None, False), ("online", 2, False), ("online", 2, True)],
    ids=["eg", "online-k2", "online-k2-scenario"],
)
def test_batch_parallel_matches_serial(algorithm, k, fixed_scenario):
    if fixed_scenario:
        # Serial episodes share the scenario's distance cache; each worker
        # unpickles a copy without it and builds its own.
        source = dict(scenario=world.generate_scenario(3, 2.5, seed=19))
    else:
        source = dict(generator=dict(n_agents=3, map_size=2.5))
    kw = dict(algorithm=algorithm, k=k, episodes=4, root_seed=19, **source)
    serial = engine.batch_run(engine.Batch(**kw, parallel=1))
    parallel = engine.batch_run(engine.Batch(**kw, parallel=2))
    assert serial.summary == parallel.summary
    assert cli.format_result_rows(serial.rows) == cli.format_result_rows(parallel.rows)


def test_batch_online_requires_k():
    with pytest.raises(ValueError):
        engine.Batch("online", episodes=1, root_seed=0, generator=dict(n_agents=3, map_size=2.5))


@pytest.mark.parametrize(
    "overrides,message",
    [
        (dict(episodes=0), "episodes must be >= 1"),
        (dict(parallel=0), "parallel must be >= 1, got 0"),
        (dict(parallel=-4), "parallel must be >= 1, got -4"),
        (dict(generator=None), "pass exactly one of scenario or generator"),
        (dict(scenario=world.generate_scenario(3, 2.5, seed=0)),
         "pass exactly one of scenario or generator"),
        (dict(execution="bogus"), "unknown execution mode 'bogus'"),
        (dict(k=2), "k is required for online and invalid otherwise, got k=2"),
        (dict(algorithm="online", k=2, execution="teleport"),
         "teleport execution applies to centralized rules only"),
        (dict(root_seed=-1), "seed must be >= 0, got -1"),
        (dict(algorithm="online", k=4), "k=4 outside [1, 3]"),
        (dict(algorithm="bogus"),
         "unknown algorithm 'bogus', expected one of eg, hungarian, minmax, online"),
        (dict(algorithm="online", k=2, generator=dict(map_size=2.7)),
         "generator: missing a required argument: 'n_agents'"),
        (dict(generator=dict(n_agents=3, bogus=1)),
         "generator: got an unexpected keyword argument 'bogus'"),
        (dict(algorithm="online", k=True), "k must be an integer, got True"),
        (dict(episodes=2.5), "episodes must be an integer, got 2.5"),
    ],
    ids=["no-episodes", "parallel-0", "parallel-negative", "no-source", "both-sources",
         "unknown-execution", "eg-with-k", "online-teleport", "negative-seed", "k-above-n",
         "unknown-algorithm", "generator-without-n", "generator-unknown-key", "bool-k",
         "float-episodes"],
)
def test_batch_rejects_a_misrun_before_any_episode(monkeypatch, overrides, message):
    def no_episodes(*args, **kwargs):
        raise AssertionError("an episode ran before the batch was checked")

    def no_scenarios(*args, **kwargs):
        raise AssertionError("a scenario was generated before the batch was checked")

    monkeypatch.setattr(engine.Batch, "run_one", no_episodes)
    monkeypatch.setattr(world, "generate_scenario", no_scenarios)
    kw = dict(algorithm="eg", episodes=2, root_seed=0, generator=dict(n_agents=3, map_size=2.5))
    with pytest.raises(engine.ConfigError, match=re.escape(message)):
        engine.batch_run(engine.Batch(**{**kw, **overrides}))


def test_centralized_episode_rejects_an_unknown_execution(monkeypatch):
    def no_optimum(sc):
        raise AssertionError("U* was computed before the execution mode was checked")

    sc = world.generate_scenario(3, 2.5, seed=0)
    monkeypatch.setattr(metrics, "centralized_optimum", no_optimum)
    with pytest.raises(engine.ConfigError, match="unknown execution mode 'bogus'"):
        engine.run_centralized_episode(sc, "eg", execution="bogus")


class _OptimumReached(Exception):
    """Raised by a stand-in for metrics.centralized_optimum: the arguments passed."""


def _breaks_a_batch_rule(algorithm, k, execution, n) -> bool:
    """The batch rules on a fixed N-agent scenario, restated from README."""
    if algorithm not in ("eg", "hungarian", "minmax", "online"):
        return True
    if execution not in ("scripted", "teleport"):
        return True
    if algorithm != "online":
        return k is not None
    return k is None or not 1 <= k <= n or execution == "teleport"


@given(
    algorithm=st.sampled_from(engine.ALGORITHMS + ("bogus",)),
    k=st.none() | st.integers(-1, 4),
    execution=st.sampled_from(engine.EXECUTION_MODES + ("bogus",)),
)
@settings(max_examples=150, deadline=None)
def test_batches_and_both_episode_entry_points_apply_one_rule_set(algorithm, k, execution):
    # Each entry point either raises ConfigError or reaches U*, by the same
    # rules: a centralized episode is a batch without k, an online episode a
    # scripted online batch.
    sc = _steering_scenario(3, 0)

    def reach_optimum(sc):
        raise _OptimumReached

    def outcome(call) -> str:
        try:
            call()
        except engine.ConfigError:
            return "rejected"
        except _OptimumReached:
            return "ran"
        raise AssertionError("neither rejected nor reached U*")

    def expected(algorithm, k, execution) -> str:
        return "rejected" if _breaks_a_batch_rule(algorithm, k, execution, 3) else "ran"

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "centralized_optimum", reach_optimum)
        try:
            batch = engine.Batch(algorithm, k, scenario=sc, execution=execution)
        except engine.ConfigError:
            assert expected(algorithm, k, execution) == "rejected"
        else:
            assert expected(algorithm, k, execution) == "ran"
            assert outcome(lambda: batch.run_one(0)) == "ran"
        assert outcome(
            lambda: engine.run_centralized_episode(sc, algorithm, execution=execution)
        ) == expected(algorithm, None, execution)
        assert outcome(
            lambda: online.run_online_episode(sc, k, np.random.default_rng(0))
        ) == expected("online", k, "scripted")


def test_batch_seed_derivation_isolated():
    s0 = engine.episode_seed(42, 0)
    s1 = engine.episode_seed(42, 1)
    assert s0 != s1
    assert engine.episode_seed(42, 0) == s0
