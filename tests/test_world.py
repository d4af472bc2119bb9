"""World dynamics, sensing, service, and scenario tests."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtask import cli, pathfind, world
from fairtask.world import (
    ACTION_ACCEL_NX,
    ACTION_ACCEL_PX,
    ACTION_IDLE,
    ARRIVAL_RADIUS,
)

import oracles
from conftest import make_scenario


# ---------------------------------------------------------------------------
# step_dynamics
# ---------------------------------------------------------------------------


def test_idle_zero_velocity_is_fixed_point(empty_scenario):
    state = world.initial_state(empty_scenario)
    nxt = world.step_dynamics_events(state, [ACTION_IDLE], empty_scenario)[0]
    assert np.array_equal(nxt.agent_positions, state.agent_positions)
    assert nxt.cumulative_distance[0] == 0.0
    assert nxt.time == pytest.approx(empty_scenario.dt)


def test_single_accel_step_kinematics(empty_scenario):
    sc = empty_scenario
    quantum = sc.agents[0].max_speed / world.ACCEL_STEPS
    state = world.initial_state(sc)
    nxt = world.step_dynamics_events(state, [ACTION_ACCEL_PX], sc)[0]
    assert nxt.agent_velocities[0] == pytest.approx([min(quantum, 1.0), 0.0])
    expected = state.agent_positions[0] + [quantum * sc.dt, 0.0]
    assert nxt.agent_positions[0] == pytest.approx(expected)
    assert nxt.cumulative_distance[0] == pytest.approx(quantum * sc.dt)


def test_speed_clamped_to_max(empty_scenario):
    sc = empty_scenario
    state = world.initial_state(sc)
    for _ in range(20):
        state = world.step_dynamics_events(state, [ACTION_ACCEL_PX], sc)[0]
    assert float(np.hypot(*state.agent_velocities[0])) == pytest.approx(
        sc.agents[0].max_speed
    )


def test_wall_clip_stops_at_surface():
    # Analytic oracle: ray x(t) = 1.0 + t * 0.1 meets the wall x = 1.05 at
    # t = 0.5, so the contact point is (1.05, 1.0) and v_x is zeroed.
    sc = make_scenario([(1.0, 1.0)], [(2.0, 2.0)], walls=[((1.05, 0.5), (1.05, 1.5))])
    state = world.initial_state(sc)
    state.agent_velocities[0] = np.array([1.0, 0.0])
    nxt = world.step_dynamics_events(state, [ACTION_IDLE], sc)[0]
    assert nxt.agent_positions[0] == pytest.approx([1.05, 1.0], abs=1e-6)
    assert nxt.agent_velocities[0] == pytest.approx([0.0, 0.0])
    assert nxt.agent_positions[0][0] < 1.05  # backed off, not penetrating


def test_wall_clip_keeps_tangential_velocity():
    sc = make_scenario([(1.0, 1.0)], [(2.0, 2.0)], walls=[((1.05, 0.5), (1.05, 1.5))])
    state = world.initial_state(sc)
    state.agent_velocities[0] = np.array([0.8, 0.5])  # below the speed clamp
    nxt = world.step_dynamics_events(state, [ACTION_IDLE], sc)[0]
    assert nxt.agent_velocities[0] == pytest.approx([0.0, 0.5])


def test_slide_runs_its_own_broad_phase():
    # The agent starts pressed on the 45-degree wall and slides down it from
    # (1, 1) towards (0.95, 0.95).  The slide stops at the short wall at
    # y = 0.975, whose box the original motion box (y = 1 only) misses.
    sc = make_scenario(
        [(1.0 + 2e-9, 1.0)], [(2.0, 2.0)],
        walls=[((0.5, 0.5), (1.5, 1.5)), ((0.96, 0.975), (0.99, 0.975))],
    )
    state = world.initial_state(sc)
    state.agent_velocities[0] = np.array([-0.75, 0.0])
    fast, fast_events = world.step_dynamics_events(state, [ACTION_ACCEL_NX], sc)
    slow, slow_events = oracles.step_dynamics_events(state, [ACTION_ACCEL_NX], sc)
    assert fast.agent_positions[0] == pytest.approx([0.975, 0.975], abs=1e-6)
    assert np.array_equal(fast.agent_positions, slow.agent_positions)
    assert np.array_equal(fast.agent_velocities, slow.agent_velocities)
    assert fast_events == slow_events


def test_obstacle_clip_stops_at_disc():
    sc = make_scenario([(1.0, 1.0)], [(2.0, 2.0)], obstacles=[((1.2, 1.0), 0.1)])
    state = world.initial_state(sc)
    state.agent_velocities[0] = np.array([1.0, 0.0])
    nxt = world.step_dynamics_events(state, [ACTION_IDLE], sc)[0]
    # entry point of the ray into the disc is x = 1.2 - 0.1
    assert nxt.agent_positions[0] == pytest.approx([1.1, 1.0], abs=1e-6)
    assert nxt.agent_velocities[0][0] == pytest.approx(0.0)


def test_boundary_contains_agents(empty_scenario):
    sc = empty_scenario
    state = world.initial_state(sc)
    for _ in range(100):
        state = world.step_dynamics_events(state, [ACTION_ACCEL_NX], sc)[0]
    assert state.agent_positions[0][0] >= 0.0
    assert float(np.hypot(*state.agent_velocities[0])) <= sc.agents[0].max_speed


def test_collision_events_counted():
    sc = make_scenario([(1.0, 1.0), (1.04, 1.0)], [(2.0, 2.0), (2.2, 2.0)])
    state = world.initial_state(sc)
    _, events = world.step_dynamics_events(state, [ACTION_IDLE, ACTION_IDLE], sc)
    kinds = [e.kind for e in events]
    assert kinds == ["agent"]
    assert events[0].agents == (0, 1)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_walk_invariants(seed):
    sc = world.generate_scenario(7, seed=seed)
    grid = sc.distances.grid
    rng = np.random.default_rng(seed)
    state = world.initial_state(sc)
    for _ in range(60):
        actions = rng.integers(0, 5, size=sc.n_agents)
        before = state.agent_positions
        state = world.step_dynamics_events(state, actions, sc)[0]
        for i in range(sc.n_agents):
            speed = float(np.hypot(*state.agent_velocities[i]))
            assert speed <= sc.agents[i].max_speed + 1e-12
            x, y = state.agent_positions[i]
            assert -1e-9 <= x <= sc.workspace_size + 1e-9
            assert -1e-9 <= y <= sc.workspace_size + 1e-9
            for (cx, cy), r in sc.obstacles:
                assert math.hypot(x - cx, y - cy) >= r - 1e-9
            assert not pathfind._segment_crosses_wall(grid, before[i], state.agent_positions[i])


def _call_without_writing(fn, state, *args):
    """fn(state, *args), checking that it leaves every field of `state` as it
    was and that each array it changed is a new one, sharing no memory.  NaN
    (a task not yet found) equals NaN here."""
    before = copy.deepcopy(state)
    out = fn(state, *args)
    new = out[0] if isinstance(out, tuple) else out
    for field in dataclasses.fields(world.WorldState):
        old, now = getattr(before, field.name), getattr(new, field.name)
        assert np.array_equal(getattr(state, field.name), old, equal_nan=True), field.name
        if isinstance(now, np.ndarray) and not np.array_equal(now, old, equal_nan=True):
            assert not np.shares_memory(now, getattr(state, field.name)), field.name
    return out


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_world_functions_never_write_their_input(seed):
    sc = world.generate_scenario(3, 2.5, seed=seed)
    rng = np.random.default_rng(seed)
    state = world.initial_state(sc)
    for _ in range(60):
        actions = rng.integers(0, 5, size=sc.n_agents)
        state = _call_without_writing(world.step_dynamics_events, state, actions, sc)[0]
        visible = world.newly_visible_tasks(state, sc)
        state = _call_without_writing(world.discover, state, visible)
        # Agent 0 serves every discovered task from a copy of the state in
        # which it stands on that task; served tasks take the no-op path.
        for j in np.flatnonzero(~np.isnan(state.discovery_times)).tolist():
            on_task = state.agent_positions.copy()
            on_task[0] = sc.tasks[j].position
            probe = dataclasses.replace(state, agent_positions=on_task)
            served = _call_without_writing(world.service_tick, probe, sc, 0, j)
            state = dataclasses.replace(served, agent_positions=state.agent_positions)


# Generated team sizes and maps for the differential tests: the array shapes
# of the fast routines follow N.
_TEAMS = [
    pytest.param(n, size, id=f"N{n}") for n, size in ((1, 2.5), (3, 2.5), (7, 2.7), (12, 3.5))
]


@pytest.mark.parametrize("n, map_size", _TEAMS)
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_dynamics_match_exhaustive_clip_oracle(n, map_size, seed):
    sc = world.generate_scenario(n, map_size, seed=seed)
    rng = np.random.default_rng(seed)
    fast = slow = world.initial_state(sc)
    actions = rng.integers(0, 5, size=sc.n_agents)
    for _ in range(120):
        # Agents hold an action for several steps, so they run into walls and
        # discs and then press on them: the slide branch of the clip runs.
        change = rng.random(sc.n_agents) < 0.15
        actions = np.where(change, rng.integers(0, 5, size=sc.n_agents), actions)
        fast, fast_events = world.step_dynamics_events(fast, actions, sc)
        slow, slow_events = oracles.step_dynamics_events(slow, actions, sc)
        assert np.array_equal(fast.agent_positions, slow.agent_positions)
        assert np.array_equal(fast.agent_velocities, slow.agent_velocities)
        assert np.array_equal(fast.cumulative_distance, slow.cumulative_distance)
        assert fast_events == slow_events


@pytest.mark.parametrize(
    "action, message",
    [pytest.param(a, rf"{a} is not in 0\.\.4", id=repr(a)) for a in (-1, -2, 5, np.int64(5))]
    + [
        pytest.param(a, rf"{re.escape(repr(a))} is not an integer", id=repr(a))
        for a in (0.9, True, 2.0, np.bool_(True), np.float64(2.0))
    ],
)
def test_step_rejects_actions_outside_the_action_space(action, message):
    sc = make_scenario([(1.0, 1.0), (2.0, 1.0)], [(2.0, 2.0), (1.0, 2.0)])
    state = world.initial_state(sc)
    with pytest.raises(ValueError, match=rf"agent 1: action {message}"):
        world.step_dynamics_events(state, [ACTION_IDLE, action], sc)


def test_step_rejects_a_joint_action_of_the_wrong_length():
    sc = make_scenario([(1.0, 1.0), (2.0, 1.0)], [(2.0, 2.0), (1.0, 2.0)])
    state = world.initial_state(sc)
    for joint_action in ([ACTION_IDLE], np.zeros(3, dtype=int)):
        with pytest.raises(ValueError, match=rf"expected 2 actions, got {len(joint_action)}"):
            world.step_dynamics_events(state, joint_action, sc)


def test_trajectory_determinism():
    sc = make_scenario([(0.5, 0.5), (2.0, 2.0)], [(1.0, 2.0), (2.0, 0.5)])
    actions = np.random.default_rng(3).integers(0, 5, size=(50, 2))

    def run(as_actions):
        state = world.initial_state(sc)
        for a in actions:
            state = world.step_dynamics_events(state, as_actions(a), sc)[0]
        return state

    # Python ints, an int array and np.int64 entries give the same trajectory.
    s1, s2, s3, s4 = run(np.ndarray.tolist), run(np.ndarray.tolist), run(np.asarray), run(list)
    for other in (s2, s3, s4):
        assert np.array_equal(s1.agent_positions, other.agent_positions)
        assert np.array_equal(s1.agent_velocities, other.agent_velocities)
        assert np.array_equal(s1.cumulative_distance, other.cumulative_distance)


# The array dynamics, sensing, sweeping and arrival tests are byte-identical
# to per-agent loops only because numpy's hypot gives the same bits on an
# array, a strided column view or two scalars.  If a numpy release breaks
# that, this fails by name instead of as drift in the golden runs.
_HYPOT_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e299, max_value=1e301),
    st.floats(min_value=-1e-307, max_value=1e-307),  # subnormals and zeros
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]),
)


@given(pairs=st.lists(st.tuples(_HYPOT_FLOATS, _HYPOT_FLOATS), min_size=1, max_size=48))
@settings(max_examples=300, deadline=None)
def test_vector_hypot_equals_scalar_hypot(pairs):
    xy = np.array(pairs, dtype=float)
    with np.errstate(over="ignore"):
        scalar = np.array([np.hypot(x, y) for x, y in xy])
        strided = np.hypot(xy[:, 0], xy[:, 1])
        contiguous = np.hypot(np.ascontiguousarray(xy[:, 0]), np.ascontiguousarray(xy[:, 1]))
        grid = np.hypot(xy[:, :1], xy[None, :, 1])  # the (N, M) broadcast shape
    assert strided.tobytes() == scalar.tobytes()
    assert contiguous.tobytes() == scalar.tobytes()
    assert np.diagonal(grid).tobytes() == scalar.tobytes()


# ---------------------------------------------------------------------------
# Sensing and discovery
# ---------------------------------------------------------------------------


def test_sense_closed_ball_boundary():
    sc = make_scenario([(1.0, 1.0)], [(1.5, 1.0)], sensing_radius=0.5)
    state = world.initial_state(sc)
    assert world.newly_visible_tasks(state, sc) == [0]

    sc2 = make_scenario([(1.0, 1.0)], [(1.5001, 1.0)], sensing_radius=0.5)
    state2 = world.initial_state(sc2)
    assert world.newly_visible_tasks(state2, sc2) == []


def test_sense_selective_visibility():
    # Agent 0 sees only task 1 and agent 1 only task 2; agent 2 sees nothing,
    # so task 0 stays hidden.
    sc = make_scenario(
        [(0.5, 0.5), (2.0, 2.0), (0.5, 2.0)],
        [(2.0, 0.5), (0.8, 0.5), (2.2, 2.2)],
        sensing_radius=0.5,
    )
    state = world.initial_state(sc)
    assert world.newly_visible_tasks(state, sc) == [1, 2]


def _on_the_boundary(sc, positions, rng, targets):
    """sc with some agents' sensing radii set to their exact distance to a target.

    Those targets sit exactly on the closed ball's boundary, where `<=` and
    `<` disagree.
    """
    agents = []
    for i, a in enumerate(sc.agents):
        gap = positions[i] - targets[rng.integers(len(targets))]
        d = float(np.hypot(gap[0], gap[1]))
        if rng.random() < 0.5 and d > 0.0:
            a = dataclasses.replace(a, sensing_radius=d)
        agents.append(a)
    return dataclasses.replace(sc, agents=tuple(agents))


@pytest.mark.parametrize("n, map_size", [t for t in _TEAMS if t.id != "N7"])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_newly_visible_matches_scalar_oracle(n, map_size, seed):
    sc = world.generate_scenario(n, map_size, seed=seed)
    rng = np.random.default_rng(seed)
    state = world.initial_state(sc)
    for _ in range(5):
        state.agent_positions = rng.uniform(0.0, map_size, size=(n, 2))
        state.discovery_times = np.where(rng.random(n) < 0.3, 0.0, math.nan)
        probe = _on_the_boundary(sc, state.agent_positions, rng, sc.task_positions())
        assert world.newly_visible_tasks(state, probe) == oracles.newly_visible_tasks(
            state, probe
        )


def test_discovery_flags_monotone():
    sc = make_scenario([(1.0, 1.0)], [(1.4, 1.0)], sensing_radius=0.5)
    state = world.initial_state(sc)
    new = world.newly_visible_tasks(state, sc)
    assert new == [0]
    state = world.discover(state, new)
    assert state.discovery_times[0] == state.time
    assert world.newly_visible_tasks(state, sc) == []


# ---------------------------------------------------------------------------
# Service dynamics
# ---------------------------------------------------------------------------


def _service_scenario(workload=1.0, pref=0.5, dt=0.1):
    return make_scenario(
        [(1.0, 1.0)],
        [(1.0, 1.0 + ARRIVAL_RADIUS / 2)],
        preference_rows=[(pref,)],
        workloads=[workload],
        dt=dt,
    )


def test_service_tick_direct_substitution():
    sc = _service_scenario(workload=1.0, pref=0.5, dt=0.1)
    state = world.discover(world.initial_state(sc), [0])
    nxt = world.service_tick(state, sc, 0, 0)
    assert nxt.remaining_workloads[0] == pytest.approx(0.95)
    assert nxt.remaining_workloads[0] > 0.0  # not served yet


def test_service_tick_floor_and_completion():
    sc = _service_scenario(workload=1.0, pref=0.5, dt=0.1)
    state = world.discover(world.initial_state(sc), [0])
    state.remaining_workloads[0] = 0.03
    nxt = world.service_tick(state, sc, 0, 0)
    assert nxt.remaining_workloads[0] == 0.0  # served


def test_service_completed_is_noop():
    sc = _service_scenario()
    state = world.discover(world.initial_state(sc), [0])
    state.remaining_workloads[0] = 0.0  # served
    nxt = world.service_tick(state, sc, 0, 0)
    assert nxt is state
    assert nxt.remaining_workloads[0] == 0.0


def test_service_requires_proximity_and_discovery():
    sc = make_scenario([(1.0, 1.0)], [(2.0, 2.0)])
    state = world.initial_state(sc)
    with pytest.raises(ValueError):
        world.service_tick(world.discover(state, [0]), sc, 0, 0)
    near = _service_scenario()
    with pytest.raises(ValueError):
        world.service_tick(world.initial_state(near), near, 0, 0)


@pytest.mark.parametrize(
    "workload,pref,dt", [(1.0, 0.5, 0.1), (0.7, 0.33, 0.05), (2.5, 0.9, 0.2)]
)
def test_completion_tick_count_closed_form(workload, pref, dt):
    # Oracle: k ticks reduce the workload by k*pref*dt, so completion takes
    # ceil(workload / (pref*dt)) ticks.
    sc = _service_scenario(workload=workload, pref=pref, dt=dt)
    state = world.discover(world.initial_state(sc), [0])
    ticks = 0
    while state.remaining_workloads[0] > 0.0:
        state = world.service_tick(state, sc, 0, 0)
        ticks += 1
    assert ticks == math.ceil(workload / (pref * dt))


@settings(max_examples=60, deadline=None)
@given(workload=st.floats(0.1, 3.0), pref=st.floats(0.05, 1.0), dt=st.floats(0.01, 0.5),
       left=st.floats(0.0, 1.0), kind=st.sampled_from(["partial", "completing", "completed"]))
def test_service_tick_matches_the_replace_oracle(workload, pref, dt, left, kind):
    """The direct WorldState build returns the oracle's bits, and shares
    exactly the arrays the oracle's dataclasses.replace shares."""
    sc = _service_scenario(workload=workload, pref=pref, dt=dt)
    state = world.discover(world.initial_state(sc), [0])
    served = pref * dt
    # A workload of 0.0 is a served task, so a completing one keeps at least
    # the least positive float.
    state.remaining_workloads[0] = {
        "partial": served + 1e-3 + left * workload,
        "completing": max(left * served, math.ulp(0.0)),
        "completed": 0.0,
    }[kind]
    got = world.service_tick(state, sc, 0, 0)
    want = oracles.service_tick(state, sc, 0, 0)
    assert (got.remaining_workloads[0] == 0.0) == (kind != "partial")
    assert (got is state) == (want is state) == (kind == "completed")
    for field in dataclasses.fields(world.WorldState):
        a, b, before = (getattr(x, field.name) for x in (got, want, state))
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name
            assert (a is before) == (b is before), field.name
        else:
            assert a == b, field.name


def test_workload_conservation_identity():
    sc = _service_scenario(workload=1.3, pref=0.7, dt=0.07)
    state = world.discover(world.initial_state(sc), [0])
    while state.remaining_workloads[0] > 0.0:
        before = state.remaining_workloads[0]
        state = world.service_tick(state, sc, 0, 0)
        served = before - state.remaining_workloads[0]
        assert served == pytest.approx(min(0.7 * 0.07, before), abs=1e-12)
    assert state.remaining_workloads[0] == 0.0


# ---------------------------------------------------------------------------
# Scenario validation and generation
# ---------------------------------------------------------------------------


def test_scenario_count_mismatch_rejected():
    with pytest.raises(world.ScenarioError):
        make_scenario([(1.0, 1.0)], [(1.5, 1.0), (2.0, 2.0)])


def test_scenario_alpha_out_of_range_rejected():
    with pytest.raises(world.ScenarioError):
        make_scenario([(1.0, 1.0)], [(1.5, 1.0)], alpha=1.0)


def test_scenario_agent_inside_obstacle_rejected():
    with pytest.raises(world.ScenarioError):
        make_scenario([(1.0, 1.0)], [(2.0, 2.0)], obstacles=[((1.0, 1.05), 0.2)])


def test_generate_scenario_deterministic_and_clear():
    a = world.generate_scenario(5, 2.6, seed=99)
    b = world.generate_scenario(5, 2.6, seed=99)
    assert a == b
    pts = np.vstack([a.agent_positions(), a.task_positions()])
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert float(np.hypot(*(pts[i] - pts[j]))) >= world.MIN_CLEARANCE - 1e-12
    for p in pts:
        for (cx, cy), r in a.obstacles:
            assert math.hypot(p[0] - cx, p[1] - cy) >= r + world.MIN_CLEARANCE - 1e-12


@pytest.mark.parametrize("n_agents,map_size", [(3, 2.5), (7, 2.7), (12, 3.5)])
def test_generated_points_keep_clear_of_walls(n_agents, map_size):
    for seed in range(10):
        sc = world.generate_scenario(n_agents, map_size, seed=seed)
        assert sc.walls
        for p in np.vstack([sc.agent_positions(), sc.task_positions()]):
            for w1, w2 in sc.walls:
                gap = oracles.point_segment_distance(p, np.array(w1), np.array(w2))
                assert gap >= world.MIN_CLEARANCE - 1e-12


def test_generate_scenario_default_map_sizes():
    assert world.generate_scenario(3, seed=1).workspace_size == 2.5
    with pytest.raises(ValueError):
        world.generate_scenario(4, seed=1)


@pytest.mark.parametrize(
    "n_obstacles,n_walls,smallest",
    [(3, 2, 0.6), (0, 2, 0.6), (3, 0, 0.56), (0, 0, 0.2)],
    ids=["walls", "walls-only", "obstacles-only", "entities-only"],
)
def test_generator_rejects_maps_below_its_sampler_bounds(monkeypatch, n_obstacles, n_walls, smallest):
    counts = dict(n_obstacles=n_obstacles, n_walls=n_walls)
    # At the bound every draw range is valid: the generator succeeds or runs out of attempts.
    monkeypatch.setattr(world, "_MAX_ATTEMPTS", 5)
    try:
        world.generate_scenario(1, smallest, seed=0, **counts)
    except world.ScenarioError as err:
        assert "could not generate" in str(err)

    def no_draws(*args, **kwargs):
        raise AssertionError("the generator drew before checking map_size")

    monkeypatch.setattr(world.np.random, "default_rng", no_draws)
    with pytest.raises(world.ScenarioError, match="map_size"):
        world.generate_scenario(1, smallest - 1e-9, seed=0, **counts)


@pytest.mark.parametrize(
    "n_agents,counts,message",
    [
        (0, {}, "n_agents must be >= 1, got 0"),
        (-1, {}, "n_agents must be >= 1, got -1"),
        (3, dict(n_types=0), "n_types must be >= 1, got 0"),
        (3, dict(n_obstacles=-2), "n_obstacles must be >= 0, got -2"),
        (3, dict(n_walls=-1), "n_walls must be >= 0, got -1"),
    ],
    ids=["no-agents", "negative-agents", "no-types", "negative-obstacles", "negative-walls"],
)
def test_generator_rejects_bad_counts_before_drawing(monkeypatch, n_agents, counts, message):
    def no_draws(*args, **kwargs):
        raise AssertionError("the generator drew before checking its counts")

    monkeypatch.setattr(world.np.random, "default_rng", no_draws)
    with pytest.raises(world.ScenarioError, match=re.escape(message)):
        world.generate_scenario(n_agents, 2.5, seed=0, **counts)


@pytest.mark.parametrize(
    "value,message",
    [
        (dict(dt=0.0), "dt must be finite and positive, got 0.0"),
        (dict(max_speed=-1.0), "max_speed -1.0 must be finite and positive"),
        (dict(alpha=1.5), "alpha must lie in (0, 1), got 1.5"),
        (dict(sensing_radius=0.01), "exceeds the smallest sensing radius 0.01"),
    ],
    ids=["dt", "speed", "alpha", "sensing"],
)
def test_generator_reports_the_scenario_rule_a_value_breaks(value, message):
    with pytest.raises(world.ScenarioError, match=re.escape(message)):
        world.generate_scenario(3, 2.5, seed=0, **value)


def test_generator_says_when_no_attempt_placed_its_entities(monkeypatch):
    monkeypatch.setattr(world, "_MAX_ATTEMPTS", 3)
    with pytest.raises(world.ScenarioError) as info:
        world.generate_scenario(40, 0.7, seed=0, n_obstacles=0, n_walls=0)
    message = str(info.value)
    assert "3 could not place every entity" in message
    assert "last: None" not in message


def test_generator_counts_each_rejected_candidate_by_its_reason(monkeypatch):
    corners = [(0.3, 0.3), (0.7, 0.3), (0.7, 0.7), (0.3, 0.7)]
    box = [(corners[i - 1], corners[i]) for i in range(4)]

    def sealed():  # the agent is walled into a box, away from its task
        return make_scenario([(0.5, 0.5)], [(2.0, 2.0)], walls=box)

    def pressed():  # the start's cell lies in the wall's clearance band
        return make_scenario([(1.0, 1.02)], [(2.0, 2.0)], walls=[((0.5, 1.03), (1.5, 1.03))])

    candidates = iter([lambda: None, sealed, pressed, sealed])
    monkeypatch.setattr(world, "_sample_candidate", lambda *args: next(candidates)())
    monkeypatch.setattr(world, "_MAX_ATTEMPTS", 4)
    with pytest.raises(world.ScenarioError) as info:
        world.generate_scenario(1, 2.5, seed=0)
    assert str(info.value) == (
        "could not generate a usable scenario in 4 attempts: 1 could not place every entity "
        "with clearance, 2 left an agent-task pair unreachable, 1 put an entity in a blocked "
        "grid cell (last: agent 0 start is in a blocked cell)"
    )


GENERATED_GOLDEN = Path(__file__).resolve().parent / "data" / "generated_scenarios.json"


def scenario_fingerprint(sc: world.Scenario) -> str:
    """SHA-256 of a scenario's geometry and entities; float reprs round-trip exactly."""
    body = repr((sc.walls, sc.obstacles, sc.agents, sc.tasks))
    return hashlib.sha256(body.encode()).hexdigest()


def test_generator_matches_recorded_fingerprints():
    recorded = json.loads(GENERATED_GOLDEN.read_text())["scenarios"]
    assert len(recorded) == 20
    for row in recorded:
        sc = world.generate_scenario(row["n_agents"], row["map_size"], seed=row["seed"])
        assert scenario_fingerprint(sc) == row["sha256"], row


def test_scenario_pickle_leaves_out_the_distance_cache():
    # The connectivity check fills `distances`, `arrays` and `start_distances`.
    sc = world.generate_scenario(3, 2.5, seed=1)
    actions = np.random.default_rng(1).integers(0, 5, size=(40, sc.n_agents))
    cached = {"distances", "arrays", "start_distances"}
    assert cached <= set(vars(sc))
    copy = pickle.loads(pickle.dumps(sc))
    assert copy == sc
    assert not cached & set(vars(copy))
    tasks, agents = sc.task_positions(), sc.agent_positions()
    assert np.array_equal(copy.distances.pairwise(tasks, agents),
                          sc.distances.pairwise(tasks, agents))
    assert np.array_equal(copy.start_distances, sc.start_distances)
    a = b = world.initial_state(sc)
    for step in actions:
        a, a_events = world.step_dynamics_events(a, step, sc)
        b, b_events = world.step_dynamics_events(b, step, copy)
        assert np.array_equal(a.agent_positions, b.agent_positions)
        assert np.array_equal(a.agent_velocities, b.agent_velocities)
        assert a_events == b_events


_ARRAY_SCENARIOS = [
    *(pytest.param(n, id=f"N{n}") for n in (3, 7, 12, 40)),
    pytest.param(None, id="golden-file"),
]


def _array_scenario(n):
    if n is None:
        return cli.load_scenario(Path(__file__).parent / "data" / "golden_scenario_n3_seed123.json")
    return world.generate_scenario(n, {12: 3.5, 40: 6.0}.get(n), seed=n)


@pytest.mark.parametrize("n", _ARRAY_SCENARIOS)
def test_scenario_arrays_hold_the_spec_values_read_only(n):
    sc = _array_scenario(n)
    arrays = sc.arrays
    agents, tasks = sc.agents, sc.tasks
    expected = {
        "agent_positions": [a.start_position for a in agents],
        "task_positions": [t.position for t in tasks],
        "max_speed": [a.max_speed for a in agents],
        "quantum": [a.max_speed / world.ACCEL_STEPS for a in agents],
        "sensing_radius": [a.sensing_radius for a in agents],
        "preferences": [[a.preference_row[t.task_type] for a in agents] for t in tasks],
        "weights": [t.weight for t in tasks],
        "workloads": [t.workload for t in tasks],
        "disc_centers": np.array([c for c, _ in sc.obstacles]).reshape(-1, 2),
        "disc_radii": [r for _, r in sc.obstacles],
        "walls": sc.wall_segments(),
        "agents": range(sc.n_agents),
        "pairs": np.array(
            [(i, k) for i in range(sc.n_agents) for k in range(i + 1, sc.n_agents)]
        ).reshape(-1, 2).T,
    }
    for name, value in expected.items():
        assert np.array_equal(getattr(arrays, name), np.asarray(value, dtype=float)), name
    for i, a in enumerate(agents):
        quantum = a.max_speed / world.ACCEL_STEPS
        assert np.array_equal(arrays.deltas[i], quantum * world.ACTION_VECTORS)
    assert set(vars(arrays)) == set(expected) | {"deltas", "box_lo", "box_hi"}
    for name, value in [*vars(arrays).items(), ("start_distances", sc.start_distances)]:
        assert isinstance(value, np.ndarray), name
        with pytest.raises(ValueError, match="read-only"):
            value[(0,) * value.ndim] = 0
    assert sc.start_distances.shape == (sc.n_tasks, sc.n_agents)
    assert np.array_equal(
        sc.start_distances,
        pathfind.DistanceProvider(pathfind.build_nav_grid(sc)).pairwise(
            sc.task_positions(), sc.agent_positions()
        ),
    )
    state = world.initial_state(sc)  # a state owns its arrays
    state.agent_positions[0] = 0.0
    state.remaining_workloads[0] = 0.0
    assert np.array_equal(arrays.agent_positions, expected["agent_positions"])
    assert np.array_equal(arrays.workloads, expected["workloads"])


@pytest.mark.parametrize(
    "walls, obstacles, message",
    [
        ([((math.nan, 0.5), (1.0, 0.5))], [],
         "wall 0: endpoints ((nan, 0.5), (1.0, 0.5)) must be finite"),
        ([((0.5, 0.5), (1.0, math.inf))], [],
         "wall 0: endpoints ((0.5, 0.5), (1.0, inf)) must be finite"),
        ([], [((math.nan, 2.0), 0.1)], "obstacle 0: center (nan, 2.0) must be finite"),
        ([], [((2.0, 2.0), 0.1), ((2.0, -math.inf), 0.1)],
         "obstacle 1: center (2.0, -inf) must be finite"),
        ([((0.5, 0.5, 0.0), (1.0, 0.5))], [],
         "wall 0: endpoints ((0.5, 0.5, 0.0), (1.0, 0.5)) must be two (x, y) points"),
        ([], [((2.0, 2.0), 0.1), ((2.0, 2.0, 0.0), 0.1)],
         "obstacle 1: center (2.0, 2.0, 0.0) must be an (x, y) point"),
    ],
    ids=["nan-wall-end", "inf-wall-end", "nan-obstacle-center", "inf-obstacle-center",
         "3d-wall-end", "3d-obstacle-center"],
)
def test_scenario_non_finite_geometry_rejected(walls, obstacles, message):
    with pytest.raises(world.ScenarioError, match=re.escape(message)):
        make_scenario([(1.0, 1.0)], [(1.5, 1.0)], walls=walls, obstacles=obstacles)
