"""Online explore-and-assign: lattice exploration plus subset-based assignment.

Free agents sweep a shared lattice (spacing = half the smallest sensing
radius), sampling targets with a distance softmax.  Whenever the pool of
discovered-but-unassigned tasks reaches k (or everything is discovered),
one rectangular weighted-log solve over the pending tasks and all free
agents picks the agent subset and its tasks together.  Episodes run on
engine.run_episode; ExplorationPolicy.observe is the observer that sweeps,
discovers tasks, reads the episode's free agents and pending tasks, hands
each solve to Episode.commit (which logs it) and retargets free agents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fairtask import assign, engine, metrics, world

_TARGET_RADIUS = 0.05  # lattice target capture distance


@dataclass
class ExplorationMap:
    """Shared lattice of explored/unexplored points.

    Points pre-marked explored at construction are unreachable (inside an
    obstacle or a blocked grid cell) and never sampled.  Explored flags are
    monotone: nothing ever unmarks a point.
    """

    points: np.ndarray        # (P, 2)
    explored: np.ndarray      # (P,) bool


def init_lattice(sc: world.Scenario) -> ExplorationMap:
    """Square lattice over the workspace at half the smallest sensing radius.

    Points inside an obstacle or in a blocked cell of the scenario's grid
    (`sc.distances.grid`) start explored.
    """
    grid, geom = sc.distances.grid, sc.arrays
    g = float(geom.sensing_radius.min()) / 2.0
    size = sc.workspace_size
    coords = np.minimum(np.arange(math.ceil(size / g) + 1) * g, size)
    xs, ys = np.meshgrid(coords, coords, indexing="ij")
    points = np.column_stack([xs.ravel(), ys.ravel()])
    explored = world.in_any_ball(points, geom.disc_centers, geom.disc_radii)
    explored |= grid.blocked_at(points)
    return ExplorationMap(points=points, explored=explored)


def sample_target(emap: ExplorationMap, agent_pos, rng: np.random.Generator):
    """Draw an unexplored lattice point with probability softmax(-distance).

    The drawn point is immediately marked explored so no other agent picks
    it.  Returns None when exploration is already complete.
    """
    candidates = np.flatnonzero(~emap.explored)
    if candidates.size == 0:
        return None
    deltas = emap.points[candidates] - np.asarray(agent_pos, dtype=float)
    dists = np.hypot(deltas[:, 0], deltas[:, 1])
    logits = np.exp(-dists)
    probs = logits / logits.sum()
    choice = int(rng.choice(candidates, p=probs))
    emap.explored[choice] = True
    return emap.points[choice].copy()


def mark_swept(emap: ExplorationMap, positions, radii) -> ExplorationMap:
    """Mark every lattice point within some closed sensing ball (in place).

    positions is (F, 2) and radii (F,): one ball per sweeping agent, all
    tested against the unexplored points in one `world.in_any_ball` call.
    """
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    radii = np.asarray(radii, dtype=float).reshape(-1)
    if radii.shape != (len(positions),):
        raise ValueError(f"{len(positions)} positions need as many radii, got {radii.size}")
    if np.any(radii <= 0):
        raise ValueError("radius must be positive")
    open_points = np.flatnonzero(~emap.explored)
    emap.explored[open_points[world.in_any_ball(emap.points[open_points], positions, radii)]] = True
    return emap


def select_subset_and_assign(
    free_agents,
    pending_tasks,
    k: int,
    sc: world.Scenario,
    agent_positions: np.ndarray,
) -> assign.Assignment:
    """Best agent subset for the pending tasks by weighted-log objective.

    Choosing which |pending| free agents serve and which task each takes is
    one rectangular linear assignment over the |pending| x |free| EG scores
    (`sc.distances` from current positions), so a single solve_eg
    picks both.  Among equal scores the choice is assign._assign_rows's,
    scipy's tie rule: a task's search settles a free agent before a held one
    at its lowest reduced score, and among free ones the one scanned last,
    which on a task's first scan is the lowest index; with one pending task
    and two agents at equal scores, the lower agent index wins.  When every
    choice serves some task at zero utility (objective -inf), the solve
    still commits the assignment with the highest eps-smoothed score.
    Agents outside the subset, free or not, get -1.
    """
    pending = sorted(pending_tasks)
    free = sorted(free_agents)
    if len(pending) > k:
        raise RuntimeError(f"{len(pending)} pending tasks exceed the threshold {k}")
    if len(pending) == k and len(free) < k:
        raise RuntimeError("fewer free agents than the subset size")
    d = sc.distances.pairwise(sc.arrays.task_positions[pending], agent_positions[free])
    u = assign.compute_utility(d, sc.arrays.preferences[np.ix_(pending, free)], sc.alpha)
    solution = assign.solve_eg(u, sc.arrays.weights[pending])
    task_of_agent = np.full(sc.n_agents, -1)
    for i, j in solution.pairs():
        task_of_agent[free[i]] = pending[j]
    return assign.Assignment(task_of_agent, solution.objective)


def _next_reachable_target(emap, nav, pos, rng):
    """Sample fresh targets until one is reachable (or the map is spent).

    Lattice points in pockets the grid cannot route to are consumed here
    (they were already marked explored by sampling) and skipped.
    """
    while True:
        target = sample_target(emap, pos, rng)
        if target is None:
            return None
        if math.dist(pos.tolist(), target.tolist()) <= _TARGET_RADIUS:
            continue  # already standing on it
        nav.set_goal(pos, target)
        if nav.waypoints:
            return target


class ExplorationPolicy:
    """engine.run_episode observer: free agents explore, discoveries trigger commits."""

    def __init__(self, sc: world.Scenario, k: int, rng: np.random.Generator):
        self.emap = init_lattice(sc)
        self.k = k
        self.rng = rng

    def observe(self, ep: engine.Episode) -> None:
        """Sweep around free agents, discover new tasks one by one, retarget.

        A subset is committed whenever k tasks are pending or every task has
        been found.  Then each agent that is still free and has no goal, or
        has reached it, gets its next lattice target; once the lattice is
        spent its navigator has no goal, so it brakes.
        """
        sc, state = ep.sc, ep.state
        sweeping = ep.free_agents()
        if sweeping:
            radii = sc.arrays.sensing_radius[sweeping]
            mark_swept(self.emap, state.agent_positions[sweeping], radii)
        # One task at a time so the pending pool triggers at exactly k.
        for j in world.newly_visible_tasks(state, sc):
            ep.discover([j])
            state = ep.state  # discover() replaces the state
            pending = ep.pending_tasks()
            if len(pending) < self.k and np.isnan(state.discovery_times).any():
                continue
            free = ep.free_agents()
            ep.commit(select_subset_and_assign(free, pending, self.k, sc, state.agent_positions))
        for i in ep.free_agents():  # ascending, the order of the target draws
            nav, pos = ep.navs[i], state.agent_positions[i]
            if nav.goal is None or math.dist(pos.tolist(), nav.goal.tolist()) <= _TARGET_RADIUS:
                if _next_reachable_target(self.emap, nav, pos, self.rng) is None:
                    nav.goal = None  # else the last unreachable candidate stays the goal


def run_online_episode(
    sc: world.Scenario,
    k: int,
    rng: np.random.Generator,
) -> metrics.EpisodeResult:
    """Alternate exploration and assignment until every task is served.

    Discoveries commit one task at a time, so the pending pool never
    overshoots k.  Assigned agents are redirected immediately and stop
    sweeping the lattice; only free agents explore.  A k that no online
    engine.Batch on sc accepts (None, or outside [1, N]) raises
    engine.ConfigError.
    """
    engine.Batch("online", k, scenario=sc)
    optimum, _ = metrics.centralized_optimum(sc)
    ep = engine.Episode(sc)
    policy = ExplorationPolicy(sc, k, rng)
    policy.observe(ep)  # initial sensing and targets before any motion
    result = engine.run_episode(ep, "online", optimum.objective, policy.observe)
    result.k = k
    return result
