"""Episode orchestration: scripted navigation, the episode loop, batching.

Every scripted episode runs on one loop, run_episode, over an Episode that
holds the world state and the agents' commitments.  Assignment modes differ
only in when they commit agents: centralized baselines discover every task
and commit their whole assignment at t=0, while the online mode
(fairtask.online) passes an observer that explores and commits subsets as
tasks are found.  Every agent follows its navigator, a greedy waypoint
controller, and an agent with no navigation goal brakes.  A Batch is one
seeded episode family, checked against every batch rule when it is built;
batch_run runs its episodes serially or over a process pool.  All
randomness is owned by the caller through seeds; a Batch fully determines
every emitted number.
"""

from __future__ import annotations

import inspect
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from fairtask import assign, metrics, pathfind, world
from fairtask.world import ACTION_IDLE, ARRIVAL_RADIUS

EXECUTION_SCRIPTED = "scripted"
EXECUTION_TELEPORT = "teleport"
EXECUTION_MODES = (EXECUTION_SCRIPTED, EXECUTION_TELEPORT)
ALGORITHMS = (assign.RULE_EG, assign.RULE_HUNGARIAN, assign.RULE_MINMAX, "online")

DEFAULT_STEP_CAP = 3000
_WAYPOINT_TOLERANCE = 0.1   # waypoint capture radius when the next leg is visible
_WAYPOINT_SNAP = 0.05       # unconditional capture radius (> braking standoff)
_CORNER_SPEED_FRACTION = 0.4
_STUCK_WINDOW = 20          # steps without progress before replanning
_STUCK_DISTANCE = 0.005
_LEG_CHECK_INTERVAL = 15    # steps between leg line-of-sight revalidations


# ---------------------------------------------------------------------------
# Scripted navigation
# ---------------------------------------------------------------------------


def within_radius(dx: float, dy: float, r: float) -> bool:
    """float(np.hypot(dx, dy)) <= r, decided by math.hypot away from the edge.

    math.hypot and np.hypot both lie within 1 ulp of the exact length, so
    they can disagree about `<= r` only within a few ulp of r; np.hypot
    decides inside a band hundreds of ulp wide.
    """
    h = math.hypot(dx, dy)
    if abs(h - r) > 1e-13 * r:
        return h <= r
    return float(np.hypot(dx, dy)) <= r


def _axis_action(dx, dy, quantum: float) -> int:
    """Accelerate along the larger component of the velocity change (dx, dy).

    Idles once the change is within half a quantum; a tie goes to x.
    """
    if within_radius(dx, dy, 0.5 * quantum):
        return ACTION_IDLE
    if abs(dx) >= abs(dy):
        return world.ACTION_ACCEL_PX if dx > 0 else world.ACTION_ACCEL_NX
    return world.ACTION_ACCEL_PY if dy > 0 else world.ACTION_ACCEL_NY


def _turns_back(dx: float, dy: float, ex: float, ey: float) -> bool:
    """float(np.dot((dx, dy), (ex, ey))) < 0, decided in floats away from zero.

    np.dot may fuse a multiply-add, so it can round differently from
    dx * ex + dy * ey.  Both miss the exact product by a few ulp of
    |dx * ex| + |dy * ey|, so they can disagree about the sign only when
    the float sum is within 1e-12 of that from zero, where np.dot decides.
    """
    dot = dx * ex + dy * ey
    if abs(dot) > 1e-12 * (abs(dx * ex) + abs(dy * ey)):
        return dot < 0.0
    return float(np.dot((dx, dy), (ex, ey))) < 0.0


def brake_action(v, quantum: float) -> int:
    """Largest-axis counter-acceleration until speed is within half a quantum."""
    return _axis_action(-v[0], -v[1], quantum)


class Navigator:
    """Per-agent greedy waypoint controller with stuck detection and replanning.

    Steers on Python floats.  `waypoints` is the one chain, a list of
    (x, y) float pairs, and beside it the navigator keeps the np.hypot
    length of each leg between consecutive waypoints.  A new chain (set_goal,
    the stuck replan, any direct assignment) goes through the `waypoints`
    setter, which converts it and measures its legs; each pop in _advance
    drops the first waypoint and its leg and recomputes nothing.  The legs
    keep np.hypot's bits, the corner test np.dot's sign, and radius tests go
    through within_radius.
    """

    def __init__(self, distances: pathfind.DistanceProvider):
        self.grid = distances.grid
        self._fields = distances.fields  # caps each search toward a task
        self.goal: np.ndarray | None = None
        self.waypoints = []
        self._last_pos: tuple[float, float] | None = None  # set with every goal
        self._stall_steps = 0
        self._steps_since_check = 0

    @property
    def waypoints(self) -> list[tuple[float, float]]:
        return self._chain

    @waypoints.setter
    def waypoints(self, waypoints) -> None:
        """Any sequence of (x, y) pairs: path_waypoints' arrays or float pairs."""
        self._chain = chain = [(float(w[0]), float(w[1])) for w in waypoints]
        self._legs = [
            float(np.hypot(bx - ax, by - ay)) for (ax, ay), (bx, by) in zip(chain, chain[1:])
        ]

    def set_goal(self, pos: np.ndarray, goal) -> None:
        self.goal = np.asarray(goal, dtype=float)
        self.waypoints = pathfind.path_waypoints(self.grid, pos, self.goal, self._fields)
        self._last_pos = tuple(pos.tolist())
        self._stall_steps = 0
        self._steps_since_check = 0

    def action(self, state: world.WorldState, sc: world.Scenario, agent: int) -> int:
        """Accelerate toward the active waypoint under a speed cap.

        The cap slows the agent for corners and stops it at the goal; it
        brakes once parked there, or with no goal.  An empty chain away from
        the goal means the goal is unreachable, which yields idle.
        """
        v = state.agent_velocities[agent].tolist()
        quantum = float(sc.arrays.quantum[agent])
        if self.goal is None:
            return brake_action(v, quantum)
        pos = state.agent_positions[agent]
        px, py = pos.tolist()
        self._advance(px, py)
        self._check_stuck(pos, px, py)
        self._revalidate_leg(pos)

        chain = self._chain
        if not chain:
            gx, gy = self.goal.tolist()
            if not within_radius(gx - px, gy - py, ARRIVAL_RADIUS):
                return ACTION_IDLE  # unreachable goal: hold position
            return brake_action(v, quantum)
        dx, dy = chain[0][0] - px, chain[0][1] - py
        dist = float(np.hypot(dx, dy))
        if dist < 1e-12:
            return brake_action(v, quantum)

        # Speed cap from the remaining chain: slow for corners, stop at the
        # end.  A corner's bound grows with the chain length run up to it,
        # so the first corner's bound is the least of them.
        max_speed = float(sc.arrays.max_speed[agent])
        accel = quantum / sc.dt
        v_cap = max_speed
        run = dist
        if self._legs:
            corner_speed = _CORNER_SPEED_FRACTION * max_speed
            slack = max(run - ARRIVAL_RADIUS / 2.0, 0.0)
            v_cap = min(v_cap, math.sqrt(corner_speed ** 2 + 2.0 * accel * slack))
            for leg in self._legs:
                run += leg
        slack = max(run - ARRIVAL_RADIUS / 2.0, 0.0)
        v_cap = min(v_cap, math.sqrt(2.0 * accel * slack))
        return _axis_action(dx / dist * v_cap - v[0], dy / dist * v_cap - v[1], quantum)

    def _revalidate_leg(self, pos: np.ndarray) -> None:
        # A deflected agent can end up sliding a wall while its leg crosses
        # it; periodic line-of-sight checks catch that and force a replan.
        self._steps_since_check += 1
        if self._steps_since_check < _LEG_CHECK_INTERVAL or not self._chain:
            return
        self._steps_since_check = 0
        if not pathfind.line_of_sight(self.grid, pos, self._chain[0]):
            self.set_goal(pos, self.goal)

    def _advance(self, px: float, py: float) -> None:
        while len(self._chain) > 1:
            (x0, y0), w1 = self._chain[0], self._chain[1]
            dx, dy = x0 - px, y0 - py
            if within_radius(dx, dy, _WAYPOINT_SNAP):
                del self._chain[0], self._legs[0]
                continue
            near = within_radius(dx, dy, _WAYPOINT_TOLERANCE)
            if (near or _turns_back(dx, dy, w1[0] - x0, w1[1] - y0)) and pathfind.line_of_sight(
                self.grid, (px, py), w1
            ):  # only skip a corner the next leg can actually see past
                del self._chain[0], self._legs[0]
                continue
            break

    def _check_stuck(self, pos: np.ndarray, px: float, py: float) -> None:
        lx, ly = self._last_pos
        if not within_radius(px - lx, py - ly, _STUCK_DISTANCE):
            self._last_pos = (px, py)
            self._stall_steps = 0
            return
        self._stall_steps += 1
        if self._stall_steps >= _STUCK_WINDOW:
            self.waypoints = pathfind.path_waypoints(self.grid, pos, self.goal, self._fields)
            self._stall_steps = 0


# ---------------------------------------------------------------------------
# Centralized episodes
# ---------------------------------------------------------------------------


def solve_assignment(rule: str, sc: world.Scenario) -> assign.Assignment:
    """Hungarian (on rates) or min-max (on start distances); EG's is centralized_optimum's."""
    if rule == assign.RULE_HUNGARIAN:
        return assign.solve_hungarian_max(sc.arrays.preferences)
    if rule == assign.RULE_MINMAX:
        return assign.solve_minmax(sc.start_distances)
    raise ValueError(f"unknown assignment rule {rule!r}")


def run_centralized_episode(
    sc: world.Scenario,
    rule: str,
    *,
    execution: str = EXECUTION_SCRIPTED,
) -> metrics.EpisodeResult:
    """Solve the chosen rule at t=0, execute, and summarize the episode.

    execution="teleport" skips kinematics entirely: realized distances equal
    the shortest-path distances, giving the zero-overhead reference point.
    A rule or execution mode that no Batch accepts raises ConfigError.
    """
    Batch(rule, scenario=sc, execution=execution)
    optimum, u0 = metrics.centralized_optimum(sc)
    solution = optimum if rule == assign.RULE_EG else solve_assignment(rule, sc)

    if execution == EXECUTION_TELEPORT:
        return _teleport_result(sc, rule, solution, u0, optimum.objective)

    ep = Episode(sc)
    ep.discover(range(sc.n_tasks))  # centralized rules see everything
    ep.commit(solution)
    return run_episode(ep, rule, optimum.objective)


def _teleport_result(sc, rule, solution, u0, u_star):
    """Realized utilities are u0's entries, those U* was solved on: EG regret is exactly 0."""
    n, m = sc.n_agents, sc.n_tasks
    per_agent = np.zeros(n)
    t_done = 0.0
    commit = metrics.Commitment(  # the one commit: every agent and task at t=0
        0.0, tuple(range(n)), tuple(range(m)), sc.arrays.agent_positions,
        tuple(solution.pairs()), solution.objective,
    )
    for agent, task in commit.pairs:
        d = float(sc.start_distances[task, agent])
        per_agent[agent] = d
        rate = sc.arrays.preferences[task, agent]
        service = sc.arrays.workloads[task] / rate if rate > 0 else math.inf
        t_done = max(t_done, d / sc.arrays.max_speed[agent] + service)
    return metrics.EpisodeResult(
        realized_utilities=assign.task_utilities(solution, u0),
        weights=sc.arrays.weights,
        completion_time=t_done,
        per_agent_distance=per_agent,
        collision_count=0,
        discovery_times=np.zeros(m),
        commits=(commit,),
        incomplete=not np.isfinite(t_done),
        rule=rule,
        u_star=u_star,
        seed=sc.seed,
    )


# ---------------------------------------------------------------------------
# The episode loop
# ---------------------------------------------------------------------------


class Episode:
    """A running episode: world state, one navigator per agent, commitments.

    Assignment modes differ only in when they commit agents, so all of them
    drive this one object through discover() and commit(), and `commits` is
    the episode's one record of who serves what, from when.  The episode is
    the world state's one owner and treats it as a value: discover() and the
    loop rebind `state` to the new states world's functions return, so
    re-read `ep.state` after either.
    """

    def __init__(self, sc: world.Scenario):
        self.sc = sc
        self.state = world.initial_state(sc)
        self.navs = [Navigator(sc.distances) for _ in range(sc.n_agents)]
        self.task_of = np.full(sc.n_agents, -1)  # -1 marks a free agent
        self.dist_at_assign = np.zeros(sc.n_agents)
        self.commits: list[metrics.Commitment] = []

    def free_agents(self) -> list[int]:
        return [i for i, task in enumerate(self.task_of.tolist()) if task < 0]

    def pending_tasks(self) -> list[int]:
        """Discovered tasks that no agent serves yet, ascending."""
        served = set(self.task_of.tolist())
        found = np.flatnonzero(~np.isnan(self.state.discovery_times))
        return [t for t in found.tolist() if t not in served]

    def discover(self, tasks) -> None:
        self.state = world.discover(self.state, tasks)

    def commit(self, assignment: assign.Assignment) -> None:
        """Bind the assignment's pairs for good and steer each agent to its task."""
        state = self.state
        pairs = tuple(assignment.pairs())
        self.commits.append(metrics.Commitment(
            state.time, tuple(self.free_agents()), tuple(self.pending_tasks()),
            state.agent_positions.copy(), pairs, assignment.objective,
        ))
        for agent, task in pairs:
            goal = self.sc.arrays.task_positions[task]
            self.task_of[agent] = task
            self.dist_at_assign[agent] = float(state.cumulative_distance[agent])
            self.navs[agent].set_goal(state.agent_positions[agent], goal)


def run_episode(ep: Episode, rule: str, u_star: float, observe=None) -> metrics.EpisodeResult:
    """Step an episode until every task is served or DEFAULT_STEP_CAP runs out.

    Every agent follows its navigator; serving a task clears its agent's
    goal, so the agent brakes.  observe(ep) runs after each dynamics step,
    before arrival and service.  Realized distances run from an agent's
    commitment to its first arrival.  The loop ends on the tick after the last
    service, so the final state's time is T, complete or capped.
    """
    sc = ep.sc
    m = sc.n_tasks
    realized_distance = np.full(m, math.nan)
    collisions = 0

    for _step in range(DEFAULT_STEP_CAP):
        state = ep.state
        if not np.count_nonzero(state.remaining_workloads):
            break
        actions = [nav.action(state, sc, i) for i, nav in enumerate(ep.navs)]
        ep.state, events = world.step_dynamics_events(state, actions, sc)
        collisions += len(events)
        if observe is not None:
            observe(ep)

        state = ep.state
        # One take for the whole team is cheaper than selecting busy agents first.
        gaps = state.agent_positions - sc.arrays.task_positions.take(ep.task_of, axis=0)
        for i in np.flatnonzero(np.hypot(gaps[:, 0], gaps[:, 1]) <= ARRIVAL_RADIUS).tolist():
            t = int(ep.task_of[i])
            if t < 0:
                continue  # a free agent (-1 took the last task's row) never arrives
            if math.isnan(realized_distance[t]):  # first arrival
                realized_distance[t] = state.cumulative_distance[i] - ep.dist_at_assign[i]
            if state.remaining_workloads[t] > 0.0:
                state = world.service_tick(state, sc, i, t)
                if state.remaining_workloads[t] == 0.0:
                    ep.navs[i].goal = None
        ep.state = state

    state = ep.state
    incomplete = bool(np.count_nonzero(state.remaining_workloads))
    agents = np.flatnonzero(ep.task_of >= 0)
    tasks = ep.task_of[agents]
    realized = np.zeros(m)  # a task never reached has a nan distance: utility 0
    realized[tasks] = assign.compute_utility(
        realized_distance[tasks], sc.arrays.preferences[tasks, agents], sc.alpha
    )
    return metrics.EpisodeResult(
        realized_utilities=realized,
        weights=sc.arrays.weights,
        completion_time=state.time,
        per_agent_distance=state.cumulative_distance.copy(),
        collision_count=collisions,
        discovery_times=state.discovery_times,
        commits=tuple(ep.commits),
        incomplete=incomplete,
        rule=rule,
        u_star=u_star,
        seed=sc.seed,
    )


# ---------------------------------------------------------------------------
# Batch running
# ---------------------------------------------------------------------------


def episode_seed(root_seed: int, index: int) -> int:
    """Counter-derived per-episode seed, reproducible in isolation."""
    return int(np.random.SeedSequence([root_seed, index]).generate_state(1, np.uint64)[0])


@dataclass
class BatchResult:
    rows: list[metrics.EpisodeResult]
    summary: dict


class ConfigError(ValueError):
    """A run configuration that breaks a batch rule; fairtask.cli exits 1 on it."""


# Taken at import, so a Batch checks its generator against the real signature.
_GENERATOR_SIGNATURE = inspect.signature(world.generate_scenario)


@dataclass(frozen=True)
class Batch:
    """A seeded episode family: one algorithm over a generator or a fixed scenario.

    Construction applies every batch rule and raises ConfigError on the
    first one broken, so a Batch that exists runs as asked.  The CLI builds
    every batch before the first runs, and run_centralized_episode and
    run_online_episode check their own arguments by building one.
    """

    algorithm: str
    k: int | None = None
    episodes: int = 1
    root_seed: int = 0
    generator: dict | None = None
    scenario: world.Scenario | None = None
    execution: str = EXECUTION_SCRIPTED
    parallel: int = 1

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(
                f"unknown algorithm {self.algorithm!r}, expected one of {', '.join(ALGORITHMS)}"
            )
        for name in ("k", "episodes", "root_seed", "parallel"):
            value = getattr(self, name)
            if type(value) is not int and (name != "k" or value is not None):  # bool is an int
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.episodes < 1:
            raise ConfigError("episodes must be >= 1")
        if self.parallel < 1:
            raise ConfigError(f"parallel must be >= 1, got {self.parallel}")
        if self.root_seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.root_seed}")
        if (self.scenario is None) == (self.generator is None):
            raise ConfigError("pass exactly one of scenario or generator")
        if self.generator is not None:
            try:
                _GENERATOR_SIGNATURE.bind(seed=0, **self.generator)
            except TypeError as err:
                raise ConfigError(f"generator: {err}") from None
        if self.execution not in EXECUTION_MODES:
            raise ConfigError(f"unknown execution mode {self.execution!r}")
        if (self.algorithm == "online") != (self.k is not None):
            raise ConfigError(f"k is required for online and invalid otherwise, got k={self.k}")
        if self.k is None:
            return
        if self.execution == EXECUTION_TELEPORT:
            raise ConfigError("teleport execution applies to centralized rules only, not online")
        n = self.generator["n_agents"] if self.scenario is None else self.scenario.n_agents
        if not 1 <= self.k <= n:
            raise ConfigError(f"k={self.k} outside [1, {n}]")

    def run_one(self, index: int) -> metrics.EpisodeResult:
        """Episode `index`, from its own seed (root_seed, index)."""
        seed = episode_seed(self.root_seed, index)
        sc = self.scenario
        if sc is None:
            sc = world.generate_scenario(seed=seed, **self.generator)
        if self.algorithm == "online":
            from fairtask import online  # deferred: online builds on this module

            result = online.run_online_episode(sc, self.k, np.random.default_rng([seed, 1]))
        else:
            result = run_centralized_episode(sc, self.algorithm, execution=self.execution)
        result.episode = index
        result.seed = seed
        return result


def batch_run(batch: Batch) -> BatchResult:
    """Run every episode of the batch and aggregate summary statistics.

    Episode i draws its own seed from (root_seed, i), so any single episode
    can be reproduced in isolation.  Rows come back in episode order for
    any `parallel`.  Incomplete episodes are kept in the rows and counted,
    but excluded from the regret aggregate (a capped episode has no
    realized value).
    """
    indices = range(batch.episodes)
    if batch.parallel > 1:
        with ProcessPoolExecutor(max_workers=batch.parallel) as pool:
            rows = list(pool.map(batch.run_one, indices))
    else:
        rows = [batch.run_one(i) for i in indices]
    return BatchResult(rows=rows, summary=summarize(rows))


def episode_stats(result: metrics.EpisodeResult) -> dict:
    """Per-episode scalar metrics used for CSV rows and summaries."""
    ratios = metrics.rho(result)
    positive = bool(np.any(ratios > 0))
    return {
        "T": result.completion_time,
        "D": result.total_distance,
        "F_rho": metrics.fairness_cv(ratios) if ratios.size >= 2 else math.nan,
        "jain": metrics.jain(ratios) if positive else math.nan,
        "U_star": result.u_star,
        "U_pi": result.u_pi,
        "regret": result.regret_gap,
        "collisions": result.collision_count,
        "incomplete": result.incomplete,
    }


def summarize(rows) -> dict:
    stats = [episode_stats(r) for r in rows]
    complete = [s for s in stats if not s["incomplete"]]
    keys = ("T", "D", "F_rho", "jain", "regret")

    def _agg(fn):
        out = {}
        for key in keys:
            vals = [s[key] for s in complete if math.isfinite(s[key])]
            out[key] = float(fn(vals)) if vals else math.nan
        return out

    return {
        "episodes": len(rows),
        "complete": len(complete),
        "incomplete": len(rows) - len(complete),
        "mean": _agg(np.mean),
        "std": _agg(np.std),
    }
