"""Reference implementations the fast routines are compared against.

The navigation and world functions are the straightforward versions of
routines in `src/`: tuple-keyed A* with no distance-field cap, the
per-sample line-of-sight loop, the COO grid-graph build, the separate
braking and goto axis rules, the waypoint controller on numpy scalars, the
per-agent dynamics step with a motion clip that tests every wall and disc,
the task-by-agent sensing loop, the service tick built with
dataclasses.replace and the one-ball lattice sweep.  The
differential tests require the fast routines to return exactly what these
return.  point_segment_distance, on numpy 2-vectors, measures how far
generated points keep from the walls.  The assignment oracles enumerate
every permutation or agent subset, independent of the solvers they check;
scipy_hungarian_max and scipy_minmax are the two linear-assignment solvers
as they ran on scipy.optimize.linear_sum_assignment, whose pairs the
in-repo solve must reproduce tie for tie.
"""

from __future__ import annotations

import copy
import dataclasses
import heapq
import itertools
import math

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix

from fairtask import assign, engine, pathfind, world
from fairtask.assign import Assignment
from fairtask.pathfind import _NEIGHBORS, _SQRT2, NavGrid
from fairtask.world import (
    _SURFACE_BACKOFF,
    ACCEL_STEPS,
    ACTION_IDLE,
    ACTION_VECTORS,
    AGENT_RADIUS,
    CollisionEvent,
    Scenario,
    WorldState,
    _circle_hit,
    _segment_hit,
)

# ---------------------------------------------------------------------------
# pathfind
# ---------------------------------------------------------------------------


def _diagonal_ok(blocked, a: tuple[int, int], b: tuple[int, int]) -> bool:
    # Forbid corner cutting: both orthogonal companions of a diagonal move
    # must be free, otherwise a zero-width wall could be crossed.
    return not blocked[a[0], b[1]] and not blocked[b[0], a[1]]


def astar_cells(grid: NavGrid, a, b) -> list[tuple[int, int]] | None:
    """Octile A* cell path from a's cell to b's cell, or None when disconnected."""
    start = grid.cell_of(a)
    goal = grid.cell_of(b)
    if grid.blocked[start] or grid.blocked[goal]:
        raise ValueError("path endpoints must lie in free cells")
    if start == goal:
        return [start]
    nx, ny = grid.dims
    res = grid.resolution
    blocked = grid.blocked

    def h(cell):
        dx = abs(cell[0] - goal[0])
        dy = abs(cell[1] - goal[1])
        return res * (max(dx, dy) + (_SQRT2 - 1.0) * min(dx, dy))

    g_best = {start: 0.0}
    parent: dict[tuple[int, int], tuple[int, int]] = {}
    frontier = [(h(start), h(start), grid.flat_index(start), start)]
    closed: set[tuple[int, int]] = set()
    while frontier:
        _, _, _, cell = heapq.heappop(frontier)
        if cell in closed:
            continue
        if cell == goal:
            path = [cell]
            while path[-1] != start:
                path.append(parent[path[-1]])
            return path[::-1]
        closed.add(cell)
        cg = g_best[cell]
        for dx, dy, diag in _NEIGHBORS:
            nxt = (cell[0] + dx, cell[1] + dy)
            if not (0 <= nxt[0] < nx and 0 <= nxt[1] < ny):
                continue
            if blocked[nxt] or (diag and not _diagonal_ok(blocked, cell, nxt)):
                continue
            ng = cg + (res * _SQRT2 if diag else res)
            if ng < g_best.get(nxt, math.inf):
                g_best[nxt] = ng
                parent[nxt] = cell
                hh = h(nxt)
                heapq.heappush(frontier, (ng + hh, hh, grid.flat_index(nxt), nxt))
    return None


def shortest_path_distance(grid: NavGrid, a, b) -> float:
    """Octile A* distance between the snapped endpoint cells.

    Returns math.inf when the endpoints are disconnected.  Path lengths are
    rebuilt from the path's (straight, diagonal) step counts, so any two
    optimal paths produce bit-identical values.
    """
    cells = astar_cells(grid, a, b)
    if cells is None:
        return math.inf
    diag = sum(p[0] != q[0] and p[1] != q[1] for p, q in zip(cells, cells[1:]))
    straight = len(cells) - 1 - diag
    return straight * grid.resolution + diag * (grid.resolution * _SQRT2)


def line_of_sight(grid: NavGrid, a, b) -> bool:
    """True when the straight segment a-b is traversable.

    Combines a conservative free-cell sampling pass (keeps legs clear of the
    inflated blocked band) with exact segment tests against walls and discs;
    sampling alone can miss a diagonal wall slipping between cell centers.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    length = float(np.hypot(*(b - a)))
    if length == 0.0:
        return not grid.blocked[grid.cell_of(a)]
    if pathfind._segment_crosses_wall(grid, a, b):
        return False
    for (cx, cy), r in grid.obstacles:
        if world.near_segment(a, b, cx, cy, r):
            return False
    steps = max(int(math.ceil(length / (grid.resolution / 4.0))), 1)
    for k in range(steps + 1):
        if grid.blocked[grid.cell_of(a + (b - a) * (k / steps))]:
            return False
    return True


def path_waypoints(grid: NavGrid, a, b) -> list[np.ndarray]:
    """String-pulled waypoint chain after an A* search on every request.

    The sight test of a-b runs only as the first test of string pulling, so
    an in-sight goal still pays for its search.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if float(np.hypot(*(b - a))) == 0.0:
        return []
    ca = pathfind.nearest_free_cell(grid, a)
    cb = pathfind.nearest_free_cell(grid, b)
    if ca is None or cb is None:
        return []
    cells = pathfind._astar_cells(grid, grid.center(ca), grid.center(cb))
    if cells is None:
        return []
    centers = [grid.center(c) for c in cells]
    if cells[0] == grid.cell_of(a):
        centers = centers[1:]
    if cells and cells[-1] == grid.cell_of(b) and centers:
        centers = centers[:-1]
    pts = [a] + centers + [b]
    out: list[np.ndarray] = []
    i = 0
    while i < len(pts) - 1:
        j = len(pts) - 1
        while j > i + 1 and not pathfind.line_of_sight(grid, pts[i], pts[j]):
            j -= 1
        out.append(pts[j])
        i = j
    return out


def build_graph(grid: NavGrid) -> csr_matrix:
    """Grid graph from per-move meshgrids, assembled as COO and converted to CSR."""
    nx, ny = grid.dims
    res = grid.resolution
    blocked = grid.blocked
    rows, cols, data = [], [], []
    for dx, dy, diag in _NEIGHBORS:
        sl_x = slice(max(0, -dx), nx - max(0, dx))
        sl_y = slice(max(0, -dy), ny - max(0, dy))
        src_x, src_y = np.meshgrid(
            np.arange(nx)[sl_x], np.arange(ny)[sl_y], indexing="ij"
        )
        dst_x, dst_y = src_x + dx, src_y + dy
        ok = ~blocked[src_x, src_y] & ~blocked[dst_x, dst_y]
        if diag:
            ok &= ~blocked[src_x, dst_y] & ~blocked[dst_x, src_y]
        rows.append((src_x[ok] * ny + src_y[ok]).ravel())
        cols.append((dst_x[ok] * ny + dst_y[ok]).ravel())
        data.append(np.full(int(ok.sum()), res * _SQRT2 if diag else res))
    n = nx * ny
    return csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


def brake_action(v, quantum: float) -> int:
    """Largest-axis counter-acceleration until speed is within half a quantum."""
    if float(np.hypot(v[0], v[1])) <= 0.5 * quantum:
        return ACTION_IDLE
    axis = 0 if abs(v[0]) >= abs(v[1]) else 1
    if axis == 0:
        return 1 if v[0] > 0 else 0
    return 3 if v[1] > 0 else 2


def goto_axis_action(dv, quantum: float) -> int:
    """The action scripted_goto_policy takes for the velocity change dv."""
    if float(np.hypot(dv[0], dv[1])) <= 0.5 * quantum:
        return ACTION_IDLE
    axis = 0 if abs(dv[0]) >= abs(dv[1]) else 1
    if axis == 0:
        return 0 if dv[0] > 0 else 1
    return 2 if dv[1] > 0 else 3


def scripted_goto_policy(state, sc, agent, goal, waypoints) -> int:
    """Greedy waypoint following on numpy arrays, every leg rebuilt each call."""
    p = state.agent_positions[agent]
    v = state.agent_velocities[agent]
    spec = sc.agents[agent]
    quantum = float(sc.arrays.quantum[agent])
    goal = np.asarray(goal, dtype=float)

    if not waypoints:
        d_goal = float(np.hypot(*(goal - p)))
        if d_goal > world.ARRIVAL_RADIUS:
            return ACTION_IDLE  # unreachable goal: hold position
        return brake_action(v, quantum)

    accel = quantum / sc.dt
    chain = [p] + [np.asarray(w, dtype=float) for w in waypoints]
    v_cap = spec.max_speed
    run = 0.0
    for idx in range(1, len(chain)):
        run += float(np.hypot(*(chain[idx] - chain[idx - 1])))
        target_speed = 0.0 if idx == len(chain) - 1 else engine._CORNER_SPEED_FRACTION * spec.max_speed
        slack = max(run - world.ARRIVAL_RADIUS / 2.0, 0.0)
        v_cap = min(v_cap, math.sqrt(target_speed ** 2 + 2.0 * accel * slack))

    target = chain[1]
    delta = target - p
    dist = float(np.hypot(delta[0], delta[1]))
    if dist < 1e-12:
        return brake_action(v, quantum)
    dv = delta / dist * v_cap - v
    return goto_axis_action(dv, quantum)


class Navigator:
    """The per-agent controller on numpy arrays: waypoint pops, stuck replans, leg checks."""

    def __init__(self, grid: NavGrid):
        self.grid = grid
        self.goal = None
        self.waypoints: list[np.ndarray] = []
        self._last_pos = None
        self._stall_steps = 0
        self._steps_since_check = 0

    def set_goal(self, pos, goal) -> None:
        self.goal = np.asarray(goal, dtype=float)
        self.waypoints = pathfind.path_waypoints(self.grid, pos, self.goal)
        self._last_pos = pos.copy()
        self._stall_steps = 0
        self._steps_since_check = 0

    def action(self, state, sc, agent: int) -> int:
        pos = state.agent_positions[agent]
        if self.goal is None:
            return brake_action(state.agent_velocities[agent], sc.arrays.quantum[agent])
        self._advance(pos)
        self._check_stuck(pos)
        self._revalidate_leg(pos)
        return scripted_goto_policy(state, sc, agent, self.goal, self.waypoints)

    def _revalidate_leg(self, pos) -> None:
        self._steps_since_check += 1
        if self._steps_since_check < engine._LEG_CHECK_INTERVAL or not self.waypoints:
            return
        self._steps_since_check = 0
        if not pathfind.line_of_sight(self.grid, pos, self.waypoints[0]):
            self.set_goal(pos, self.goal)

    def _advance(self, pos) -> None:
        while len(self.waypoints) > 1:
            w0 = self.waypoints[0]
            d0 = float(np.hypot(*(w0 - pos)))
            if d0 <= engine._WAYPOINT_SNAP:
                self.waypoints.pop(0)
                continue
            w1 = self.waypoints[1]
            passed = float(np.dot(w0 - pos, w1 - w0)) < 0.0
            if (d0 <= engine._WAYPOINT_TOLERANCE or passed) and pathfind.line_of_sight(
                self.grid, pos, w1
            ):
                self.waypoints.pop(0)
                continue
            break

    def _check_stuck(self, pos) -> None:
        if float(np.hypot(*(pos - self._last_pos))) > engine._STUCK_DISTANCE:
            self._last_pos = pos.copy()
            self._stall_steps = 0
            return
        self._stall_steps += 1
        if self._stall_steps >= engine._STUCK_WINDOW:
            self.waypoints = pathfind.path_waypoints(self.grid, pos, self.goal)
            self._stall_steps = 0


# ---------------------------------------------------------------------------
# world
# ---------------------------------------------------------------------------


def step_dynamics_events(
    state: WorldState, joint_action, sc: Scenario
) -> tuple[WorldState, list[CollisionEvent]]:
    """Advance one timestep: accelerate, clamp speed, integrate, clip geometry.

    Returns the new state and the collision events of the step.
    """
    n = sc.n_agents
    actions = np.asarray(joint_action, dtype=int)
    if actions.shape != (n,):
        raise ValueError(f"expected {n} actions, got shape {actions.shape}")
    out = copy.deepcopy(state)
    walls = sc.wall_segments()
    events: list[CollisionEvent] = []

    for i in range(n):
        spec = sc.agents[i]
        quantum = spec.max_speed / ACCEL_STEPS
        v = out.agent_velocities[i] + quantum * ACTION_VECTORS[actions[i]]
        speed = float(np.hypot(v[0], v[1]))
        if speed > spec.max_speed:
            v = v * (spec.max_speed / speed)
        p = out.agent_positions[i]
        disp = v * sc.dt
        new_p, normal = clip_motion(p, disp, walls, sc.obstacles)
        if normal is not None:
            kind, n_hat = normal
            v = v - np.dot(v, n_hat) * n_hat
            events.append(CollisionEvent(kind=kind, agents=(i,)))
        out.cumulative_distance[i] += float(np.hypot(*(new_p - p)))
        out.agent_positions[i] = new_p
        out.agent_velocities[i] = v

    # Agent-agent contacts never block motion; they are only counted.
    for i in range(n):
        for k in range(i + 1, n):
            gap = out.agent_positions[i] - out.agent_positions[k]
            if float(np.hypot(gap[0], gap[1])) < 2.0 * AGENT_RADIUS:
                events.append(CollisionEvent(kind="agent", agents=(i, k)))

    out.time = state.time + sc.dt
    return out, events


def clip_motion(p, disp, walls, obstacles, allow_slide: bool = True):
    """First contact of the motion segment p -> p+disp against walls/discs.

    Returns (final_position, hit) where hit is None or (kind, outward_normal).
    The final position backs off the surface by a hair so the next step does
    not start in penetration.  An agent already pressed on a surface (contact
    at the very start of the step) keeps the tangential part of its motion,
    sliding along the surface; a mid-step hit stops dead at the contact.
    """
    dx, dy = float(disp[0]), float(disp[1])
    if dx == 0.0 and dy == 0.0:
        return p.copy(), None
    best_t = math.inf
    best = None  # (kind, normal)

    for w in range(walls.shape[0]):
        hit = _segment_hit(p, disp, walls[w, 0], walls[w, 1])
        if hit is not None and hit[0] < best_t:
            best_t, best = hit[0], ("wall", hit[1])

    for (cx, cy), r in obstacles:
        hit = _circle_hit(p, disp, np.array([cx, cy]), r)
        if hit is not None and hit[0] < best_t:
            best_t, best = hit[0], ("obstacle", hit[1])

    if best is None or best_t > 1.0:
        return p + disp, None
    length = math.hypot(dx, dy)
    if allow_slide and best_t * length < 10.0 * _SURFACE_BACKOFF:
        n_hat = best[1]
        tangential = disp - np.dot(disp, n_hat) * n_hat
        if math.hypot(tangential[0], tangential[1]) > 1e-12:
            slid, _ = clip_motion(p, tangential, walls, obstacles, allow_slide=False)
            return slid, best
        return p.copy(), best
    t_stop = max(best_t - _SURFACE_BACKOFF / length, 0.0)
    return p + disp * t_stop, best


def newly_visible_tasks(state: WorldState, sc: Scenario) -> list[int]:
    """Undiscovered tasks currently inside some agent's sensing ball."""
    found = []
    for j in range(sc.n_tasks):
        if not math.isnan(state.discovery_times[j]):
            continue
        tp = np.array(sc.tasks[j].position)
        for i in range(sc.n_agents):
            d = float(np.hypot(*(state.agent_positions[i] - tp)))
            if d <= sc.agents[i].sensing_radius:
                found.append(j)
                break
    return found


def service_tick(state: WorldState, sc: Scenario, agent: int, task: int) -> WorldState:
    """One service interval, built with dataclasses.replace from the changed arrays."""
    if state.remaining_workloads[task] == 0.0:
        return state
    if math.isnan(state.discovery_times[task]):
        raise ValueError(f"task {task} serviced before discovery")
    p = state.agent_positions[agent]
    if math.dist(tuple(p), sc.tasks[task].position) > world.ARRIVAL_RADIUS + 1e-12:
        raise ValueError(f"agent {agent} outside arrival radius of task {task}")
    rate = sc.agents[agent].preference_row[sc.tasks[task].task_type]
    remaining = state.remaining_workloads.copy()
    remaining[task] -= min(rate * sc.dt, float(remaining[task]))
    if remaining[task] <= 0.0:  # the fast tick relies on the subtraction landing on 0.0
        remaining[task] = 0.0
    return dataclasses.replace(state, remaining_workloads=remaining)


def point_segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Distance from p to the segment a-b, with np.dot and np.clip on 2-vectors."""
    ab = b - a
    denom = float(np.dot(ab, ab))
    if denom < 1e-30:
        return float(np.hypot(*(p - a)))
    t = float(np.clip(np.dot(p - a, ab) / denom, 0.0, 1.0))
    return float(np.hypot(*(p - (a + t * ab))))


# ---------------------------------------------------------------------------
# assign
# ---------------------------------------------------------------------------


def pareto_dominates(a: Assignment, b: Assignment, u: np.ndarray) -> bool:
    """True when a serves every task at least as well as b, one strictly."""
    ua = assign.task_utilities(a, u)
    ub = assign.task_utilities(b, u)
    return bool(np.all(ua >= ub) and np.any(ua > ub))


def _permutations_as_assignments(n: int):
    for perm in itertools.permutations(range(n)):
        yield np.array(perm, dtype=int)


def brute_force_max_sum(scores) -> tuple[np.ndarray, float]:
    """Exhaustive max of sum_j scores[j, pi(j)]; returns (task_of_agent, value)."""
    scores = np.asarray(scores, dtype=float)
    n = scores.shape[0]
    best_perm, best_val = None, -math.inf
    for task_of_agent in _permutations_as_assignments(n):
        val = float(scores[task_of_agent, np.arange(n)].sum())
        if val > best_val:
            best_perm, best_val = task_of_agent, val
    return best_perm, best_val


def brute_force_eg(u: np.ndarray, weights) -> tuple[np.ndarray, float]:
    """Exhaustive max of the weighted-log objective."""
    weights = np.asarray(weights, dtype=float)
    n = u.shape[0]
    best_perm, best_val = None, -math.inf
    for task_of_agent in _permutations_as_assignments(n):
        selected = u[task_of_agent, np.arange(n)]
        if np.any(selected <= 0.0):
            val = -math.inf
        else:
            val = float(np.sum(weights[task_of_agent] * np.log(selected)))
        if val > best_val:
            best_perm, best_val = task_of_agent, val
    return best_perm, best_val


def brute_force_minmax(costs) -> tuple[np.ndarray, float]:
    """Exhaustive min of the largest selected cost."""
    costs = np.asarray(costs, dtype=float)
    n = costs.shape[0]
    best_perm, best_val = None, math.inf
    for task_of_agent in _permutations_as_assignments(n):
        val = float(costs[task_of_agent, np.arange(n)].max())
        if val < best_val:
            best_perm, best_val = task_of_agent, val
    return best_perm, best_val


def best_injective_sum(scores):
    """Exhaustive max of sum_j scores[j, a_j] over distinct agents a_j (m <= n)."""
    m, n = scores.shape
    return max(
        float(scores[np.arange(m), list(agents)].sum())
        for agents in itertools.permutations(range(n), m)
    )


def scipy_hungarian_max(scores) -> Assignment:
    """solve_hungarian_max on scipy's linear_sum_assignment (m <= n)."""
    scores = np.asarray(scores, dtype=float)
    rows, cols = linear_sum_assignment(scores, maximize=True)
    task_of_agent = np.full(scores.shape[1], -1, dtype=int)
    task_of_agent[cols] = rows
    return Assignment(task_of_agent, float(scores[rows, cols].sum()))


def scipy_minmax(costs) -> Assignment:
    """solve_minmax on scipy: the smallest feasible threshold by a linear scan,
    then the same big-M minimum-total-cost solve among the edges under it."""
    costs = np.asarray(costs, dtype=float)
    n = costs.shape[0]
    for bottleneck in np.unique(costs):
        over = (costs > bottleneck).astype(float)
        rows, cols = linear_sum_assignment(over)
        if over[rows, cols].sum() == 0.0:
            break
    big = n * (float(costs.max()) + 1.0) + 1.0
    rows, cols = linear_sum_assignment(np.where(costs <= bottleneck, costs, big))
    task_of_agent = np.empty(n, dtype=int)
    task_of_agent[cols] = rows
    return Assignment(task_of_agent, float(costs[rows, cols].max()))


# ---------------------------------------------------------------------------
# online
# ---------------------------------------------------------------------------


def mark_swept(emap, agent_pos, radius: float):
    """Mark every lattice point within one closed sensing ball (in place)."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    deltas = emap.points - np.asarray(agent_pos, dtype=float)
    emap.explored |= np.hypot(deltas[:, 0], deltas[:, 1]) <= radius
    return emap


def subset_oracle(free, pending, sc, provider, positions):
    """Exhaustive subset comparison used to pin the committed choice.

    Rates and weights come from the specs, not `sc.arrays`, so the oracle
    stays independent of the arrays the solve reads.
    """
    prefs = np.array([[a.preference_row[t.task_type] for a in sc.agents] for t in sc.tasks])
    weights = np.array([t.weight for t in sc.tasks])
    best_obj, best_subset = -math.inf, None
    for subset in itertools.combinations(sorted(free), len(pending)):
        d = provider.pairwise(
            sc.task_positions()[sorted(pending)], positions[list(subset)]
        )
        u = assign.compute_utility(
            d, prefs[np.ix_(sorted(pending), list(subset))], sc.alpha
        )
        _, obj = brute_force_eg(u, weights[sorted(pending)])
        if obj > best_obj:
            best_obj, best_subset = obj, subset
    return best_subset, best_obj
