"""2-D navigation-and-service world: entities, kinematics, sensing, workloads.

Coordinates are world units inside the square [0, workspace_size]^2; time
advances in fixed dt steps.  Walls are zero-width segments, obstacles are
static discs, and every reader takes a scenario's facts from its read-only
`Scenario.arrays`.  Step functions return a new WorldState that shares the
arrays they do not change; nothing writes a state's arrays in place.
engine.Episode holds the current one; a task is found once it has a discovery
time and served once its remaining workload is zero.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

# Discrete action space: one acceleration quantum along an axis, or idle.
ACTION_VECTORS = np.array(
    [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.0, 0.0]]
)
ACTION_ACCEL_PX, ACTION_ACCEL_NX, ACTION_ACCEL_PY, ACTION_ACCEL_NY, ACTION_IDLE = range(5)
_N_ACTIONS = len(ACTION_VECTORS)

ACCEL_STEPS = 4          # quanta from rest to max speed; quantum = max_speed / 4
ARRIVAL_RADIUS = 0.05    # service contact threshold (world units)
AGENT_RADIUS = 0.05      # agent-agent contact counting radius
MIN_CLEARANCE = 0.1      # rejection-sampling clearance used by the generator

_WALL_ANGLES_DEG = (0.0, 45.0, 90.0, 135.0)
_SURFACE_BACKOFF = 1e-9  # stop just short of a hit surface to avoid re-penetration
_BOX_PAD = 1e-9          # broad-phase slack around wall and disc boxes
_INT_TYPES = (int, np.integer)
_BOOL_TYPES = (bool, np.bool_)


class ScenarioError(ValueError):
    """Raised when a scenario violates its structural invariants."""


@dataclass(frozen=True)
class AgentSpec:
    id: int
    start_position: tuple[float, float]
    agent_type: int
    sensing_radius: float
    max_speed: float
    preference_row: tuple[float, ...]  # indexed by task type


@dataclass(frozen=True)
class TaskSpec:
    id: int
    position: tuple[float, float]
    task_type: int
    workload: float
    weight: float


@dataclass(frozen=True)
class Scenario:
    """Immutable episode definition.

    walls are ((x1, y1), (x2, y2)) endpoint pairs; obstacles are
    ((cx, cy), radius) discs.  The workspace boundary itself acts as four
    implicit walls during motion but is not part of `walls`.
    """

    workspace_size: float
    walls: tuple[tuple[tuple[float, float], tuple[float, float]], ...]
    obstacles: tuple[tuple[tuple[float, float], float], ...]
    agents: tuple[AgentSpec, ...]
    tasks: tuple[TaskSpec, ...]
    seed: int
    dt: float = 0.1
    alpha: float = 0.97

    def __post_init__(self) -> None:
        validate_scenario(self)

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @functools.cached_property
    def distances(self):
        """pathfind.DistanceProvider on the default-resolution grid (`.grid`).

        Built once per object: the generator's connectivity check, U*,
        every assignment solve and every episode's navigators share its
        grid and cached distance fields.
        Raises pathfind.GridPlacementError if an entity is in a blocked cell.
        """
        from fairtask import pathfind  # deferred: pathfind depends on this module

        return pathfind.DistanceProvider(pathfind.build_nav_grid(self))

    @functools.cached_property
    def arrays(self) -> "ScenarioArrays":
        """The scenario's facts as read-only arrays, built once and shared by every reader."""
        return ScenarioArrays(self)

    @functools.cached_property
    def start_distances(self) -> np.ndarray:
        """Read-only (m, N) task-to-start distances: the generator checks them, U* solves on them."""
        d = self.distances.pairwise(self.arrays.task_positions, self.arrays.agent_positions)
        d.flags.writeable = False
        return d

    def __getstate__(self) -> dict:
        # Pickles (one per job of a parallel batch) leave out every cached
        # property: the distance cache alone is ~6 MB for a generated N=40
        # scenario.  Each is rebuilt on demand.
        return {k: v for k, v in self.__dict__.items() if k not in _CACHED_PROPERTIES}

    # bench/test_bench.py still calls these three; every other reader reads `arrays`.
    def agent_positions(self) -> np.ndarray:
        return self.arrays.agent_positions

    def task_positions(self) -> np.ndarray:
        return self.arrays.task_positions

    def wall_segments(self) -> np.ndarray:
        return self.arrays.walls


_CACHED_PROPERTIES = frozenset(
    name for name, attr in vars(Scenario).items()
    if isinstance(attr, functools.cached_property)
)


class ScenarioArrays:
    """A scenario's facts as read-only arrays, shared by every reader (`Scenario.arrays`).

    Agent fields are (N,) or (N, 2), task fields (m,) or (m, 2); `preferences[j, i]`
    is agent i's rate for task j's type, and `deltas` (N, 5, 2) agent i's velocity
    change per action.  `walls` include the boundary.  `box_lo` and `box_hi` are the
    (S, 2) corners of the wall then disc boxes, padded by _BOX_PAD, for `_touching`:
    a wall or disc hit needs a contact point on both the motion segment and the
    shape, so a shape whose box misses the segment's box cannot be hit.
    """

    def __init__(self, sc: Scenario) -> None:
        s = float(sc.workspace_size)
        box = ((0.0, 0.0), (s, 0.0), (s, s), (0.0, s))  # boundary corners, counter-clockwise
        self.walls = np.array([*sc.walls, *zip(box, box[1:] + box[:1])], dtype=float)  # (W+4, 2, 2)
        self.disc_centers = np.array([c for c, _ in sc.obstacles], dtype=float).reshape(-1, 2)
        self.disc_radii = np.array([r for _, r in sc.obstacles], dtype=float)
        corners = np.array([
            ((min(x1, x2), min(y1, y2)), (max(x1, x2), max(y1, y2)))
            for (x1, y1), (x2, y2) in self.walls.tolist()
        ] + [((cx - r, cy - r), (cx + r, cy + r)) for (cx, cy), r in sc.obstacles])
        self.box_lo = corners[:, 0] - _BOX_PAD
        self.box_hi = corners[:, 1] + _BOX_PAD
        self.pairs = np.array(np.triu_indices(sc.n_agents, 1))  # agent pairs (i, k), i < k
        self.agents = np.arange(sc.n_agents)
        self.agent_positions = np.array([a.start_position for a in sc.agents], dtype=float)
        self.max_speed = np.array([a.max_speed for a in sc.agents], dtype=float)
        self.quantum = self.max_speed / ACCEL_STEPS
        self.deltas = self.quantum[:, None, None] * ACTION_VECTORS  # [i, a]: i's velocity change
        self.sensing_radius = np.array([a.sensing_radius for a in sc.agents], dtype=float)
        self.task_positions = np.array([t.position for t in sc.tasks], dtype=float)
        rates = [[a.preference_row[t.task_type] for a in sc.agents] for t in sc.tasks]
        self.preferences = np.array(rates, dtype=float)
        self.weights = np.array([t.weight for t in sc.tasks], dtype=float)
        self.workloads = np.array([t.workload for t in sc.tasks], dtype=float)
        for value in vars(self).values():
            value.flags.writeable = False


def validate_scenario(sc: Scenario) -> None:
    """Raise ScenarioError on a broken invariant; `0 < x < inf` also rejects NaN."""
    if not 0.0 < sc.workspace_size < math.inf:
        raise ScenarioError(f"workspace_size must be finite and positive, got {sc.workspace_size}")
    if not 0.0 < sc.alpha < 1.0:
        raise ScenarioError(f"alpha must lie in (0, 1), got {sc.alpha}")
    if not 0.0 < sc.dt < math.inf:
        raise ScenarioError(f"dt must be finite and positive, got {sc.dt}")
    if len(sc.agents) != len(sc.tasks):
        raise ScenarioError(
            f"agent/task counts must match, got {len(sc.agents)} vs {len(sc.tasks)}"
        )
    if not sc.agents:
        raise ScenarioError("scenario needs at least one agent")
    s = sc.workspace_size
    types = min(len(a.preference_row) for a in sc.agents)
    first_of_type: dict[int, AgentSpec] = {}
    for i, a in enumerate(sc.agents):
        if a.id != i:
            raise ScenarioError(f"agent {i}: id {a.id} must equal its index")
        if not (0.0 < a.sensing_radius < math.inf and 0.0 < a.max_speed < math.inf):
            raise ScenarioError(
                f"agent {a.id}: sensing_radius {a.sensing_radius} and max_speed "
                f"{a.max_speed} must be finite and positive"
            )
        if not all(0.0 <= p < math.inf for p in a.preference_row):
            raise ScenarioError(
                f"agent {a.id}: preference entries {a.preference_row} must be finite and >= 0"
            )
        first = first_of_type.setdefault(a.agent_type, a)
        if first.preference_row != a.preference_row:
            raise ScenarioError(
                f"agents {first.id} and {a.id} share type {a.agent_type} but not a preference row"
            )
        _check_inside(a.start_position, s, f"agent {a.id}")
    for j, t in enumerate(sc.tasks):
        if t.id != j:
            raise ScenarioError(f"task {j}: id {t.id} must equal its index")
        if not (0.0 < t.workload < math.inf and 0.0 < t.weight < math.inf):
            raise ScenarioError(
                f"task {t.id}: workload {t.workload} and weight {t.weight} must be finite "
                f"and positive"
            )
        _check_inside(t.position, s, f"task {t.id}")
        if not 0 <= t.task_type < types:
            raise ScenarioError(f"task {t.id}: type {t.task_type} outside [0, {types})")
    for w, ends in enumerate(sc.walls):
        if len(ends) != 2 or any(len(end) != 2 for end in ends):
            raise ScenarioError(f"wall {w}: endpoints {ends} must be two (x, y) points")
        if not all(math.isfinite(c) for end in ends for c in end):
            raise ScenarioError(f"wall {w}: endpoints {ends} must be finite")
    for k, (center, r) in enumerate(sc.obstacles):
        if len(center) != 2:
            raise ScenarioError(f"obstacle {k}: center {center} must be an (x, y) point")
        cx, cy = center
        if not (math.isfinite(cx) and math.isfinite(cy)):
            raise ScenarioError(f"obstacle {k}: center {(cx, cy)} must be finite")
        if not 0.0 < r < math.inf:
            raise ScenarioError(f"obstacle radius {r} must be finite and positive")
        for a in sc.agents:
            if math.dist(a.start_position, (cx, cy)) < r:
                raise ScenarioError(f"agent {a.id} starts inside an obstacle")
        for t in sc.tasks:
            if math.dist(t.position, (cx, cy)) < r:
                raise ScenarioError(f"task {t.id} lies inside an obstacle")


def _check_inside(pos: tuple[float, float], size: float, label: str) -> None:
    x, y = pos
    if not (0.0 < x < size and 0.0 < y < size):
        raise ScenarioError(f"{label} position {pos} not strictly inside workspace")


# ---------------------------------------------------------------------------
# World state and dynamics
# ---------------------------------------------------------------------------


@dataclass
class WorldState:
    """The world at `time`.  A task is served exactly when its remaining
    workload is 0.0, and found exactly when its discovery time is not NaN."""

    time: float
    agent_positions: np.ndarray      # (N, 2)
    agent_velocities: np.ndarray     # (N, 2)
    remaining_workloads: np.ndarray  # (m,), 0.0 once served
    discovery_times: np.ndarray      # (m,), NaN until found
    cumulative_distance: np.ndarray  # (N,)


def initial_state(sc: Scenario) -> WorldState:
    n, m = sc.n_agents, sc.n_tasks
    return WorldState(
        time=0.0,
        agent_positions=sc.arrays.agent_positions.copy(),
        agent_velocities=np.zeros((n, 2)),
        remaining_workloads=sc.arrays.workloads.copy(),
        discovery_times=np.full(m, math.nan),
        cumulative_distance=np.zeros(n),
    )


@dataclass(frozen=True)
class CollisionEvent:
    kind: str                 # "wall" | "obstacle" | "agent"
    agents: tuple[int, ...]   # one index for geometry hits, a pair for contacts


def step_dynamics_events(
    state: WorldState, joint_action, sc: Scenario
) -> tuple[WorldState, list[CollisionEvent]]:
    """Advance one timestep: accelerate, clamp speed, integrate, clip geometry.

    Returns the new state and the collision events of the step.  The whole
    team moves as (N, 2) arrays; only agents whose motion box touches a wall
    or disc box go through the exact scalar clip, in ascending agent order,
    and it tests only the shapes touched.  Every array op is the elementwise
    IEEE op the per-agent loop did, so the result is the loop's, bit for bit.
    """
    n = sc.n_agents
    if len(joint_action) != n:
        raise ValueError(f"expected {n} actions, got {len(joint_action)}")
    for i, a in enumerate(joint_action):
        # A cast would read 0.9 as 0 and True as 1.
        if not isinstance(a, _INT_TYPES) or isinstance(a, _BOOL_TYPES):
            raise ValueError(f"agent {i}: action {a!r} is not an integer")
        if not 0 <= a < _N_ACTIONS:
            raise ValueError(f"agent {i}: action {a} is not in 0..4")
    geom = sc.arrays

    v = state.agent_velocities + geom.deltas[geom.agents, joint_action]
    speed = np.hypot(v[:, 0], v[:, 1])
    over = speed > geom.max_speed
    if np.count_nonzero(over):
        v[over] *= (geom.max_speed[over] / speed[over])[:, None]
    p = state.agent_positions
    disp = v * sc.dt
    new_p = p + disp

    touched = _touching(geom, p, new_p)
    events: list[CollisionEvent] = []
    for i in touched.any(axis=1).nonzero()[0].tolist():
        new_p[i], hit = _clip_motion(p[i], disp[i], geom, touched[i])
        if hit is not None:
            kind, n_hat = hit
            v[i] = v[i] - np.dot(v[i], n_hat) * n_hat
            events.append(CollisionEvent(kind=kind, agents=(i,)))

    # Agent-agent contacts never block motion; they are only counted.
    first, second = geom.pairs
    gaps = new_p[first] - new_p[second]
    close = np.hypot(gaps[:, 0], gaps[:, 1]) < 2.0 * AGENT_RADIUS
    if np.count_nonzero(close):
        events.extend(
            CollisionEvent(kind="agent", agents=(i, k))
            for i, k in zip(first[close].tolist(), second[close].tolist())
        )

    step = new_p - p
    return WorldState(
        time=state.time + sc.dt,
        agent_positions=new_p,
        agent_velocities=v,
        remaining_workloads=state.remaining_workloads,
        discovery_times=state.discovery_times,
        cumulative_distance=state.cumulative_distance + np.hypot(step[:, 0], step[:, 1]),
    ), events


def _touching(geom: ScenarioArrays, p, q) -> np.ndarray:
    """(n, S) mask of the shape boxes that each motion box p[k] -> q[k] touches."""
    lo, hi = np.minimum(p, q)[:, None], np.maximum(p, q)[:, None]
    return ~((geom.box_hi < lo) | (hi < geom.box_lo)).any(axis=2)


def _clip_motion(p, disp, geom: ScenarioArrays, touched, allow_slide: bool = True):
    """First contact of the motion segment p -> p+disp against walls/discs.

    Returns (final_position, hit) where hit is None or (kind, outward_normal).
    The final position backs off the surface by a hair so the next step does
    not start in penetration.  An agent already pressed on a surface (contact
    at the very start of the step) keeps the tangential part of its motion,
    sliding along the surface; a mid-step hit stops dead at the contact.
    Only the shapes in `touched`, the segment's row of `_touching`, get the
    exact hit tests, walls first; a slide runs `_touching` for its own segment.
    """
    dx, dy = float(disp[0]), float(disp[1])
    if dx == 0.0 and dy == 0.0:
        return p.copy(), None
    best_t = math.inf
    best = None  # (kind, normal)

    n_walls = len(geom.walls)
    for s in np.flatnonzero(touched).tolist():
        if s < n_walls:
            hit, kind = _segment_hit(p, disp, *geom.walls[s]), "wall"
        else:
            k = s - n_walls
            hit, kind = _circle_hit(p, disp, geom.disc_centers[k], geom.disc_radii[k]), "obstacle"
        if hit is not None and hit[0] < best_t:
            best_t, best = hit[0], (kind, hit[1])

    if best is None or best_t > 1.0:
        return p + disp, None
    length = math.hypot(dx, dy)
    if allow_slide and best_t * length < 10.0 * _SURFACE_BACKOFF:
        n_hat = best[1]
        tangential = disp - np.dot(disp, n_hat) * n_hat
        if math.hypot(tangential[0], tangential[1]) > 1e-12:
            row = _touching(geom, p[None], (p + tangential)[None])[0]
            slid, _ = _clip_motion(p, tangential, geom, row, allow_slide=False)
            return slid, best
        return p.copy(), best
    t_stop = max(best_t - _SURFACE_BACKOFF / length, 0.0)
    return p + disp * t_stop, best


def _segment_hit(p, disp, w1, w2):
    """Parametric crossing of motion ray against one wall segment."""
    r = disp
    s = w2 - w1
    denom = r[0] * s[1] - r[1] * s[0]
    if abs(denom) < 1e-15:
        return None  # parallel motion slides along the wall
    qp = w1 - p
    t = (qp[0] * s[1] - qp[1] * s[0]) / denom
    u = (qp[0] * r[1] - qp[1] * r[0]) / denom
    if not (0.0 <= t <= 1.0 and -1e-12 <= u <= 1.0 + 1e-12):
        return None
    n_hat = np.array([-s[1], s[0]])
    n_hat /= math.hypot(n_hat[0], n_hat[1])
    if np.dot(n_hat, r) > 0:
        n_hat = -n_hat
    return float(t), n_hat


def _circle_hit(p, disp, center, radius):
    """Earliest entry of the motion segment into a disc, if any."""
    f = p - center
    a = float(np.dot(disp, disp))
    if a < 1e-30:
        return None
    b = 2.0 * float(np.dot(f, disp))
    c = float(np.dot(f, f)) - radius * radius
    if c < 0:
        return None  # already inside (prevented elsewhere); do not trap
    disc = b * b - 4.0 * a * c
    if disc <= 0:
        return None
    t0 = (-b - math.sqrt(disc)) / (2.0 * a)
    if not 0.0 <= t0 <= 1.0:
        return None
    contact = p + disp * t0
    n_hat = (contact - center) / radius
    return float(t0), n_hat


# ---------------------------------------------------------------------------
# Sensing, discovery, service
# ---------------------------------------------------------------------------


def newly_visible_tasks(state: WorldState, sc: Scenario) -> list[int]:
    """Undiscovered tasks now inside some agent's closed sensing ball, ascending."""
    geom = sc.arrays
    hidden = np.flatnonzero(np.isnan(state.discovery_times))
    seen = in_any_ball(geom.task_positions[hidden], state.agent_positions, geom.sensing_radius)
    return hidden[seen].tolist()


def in_any_ball(points: np.ndarray, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """(P,) mask of the points in some closed ball (centers (B, 2), radii (B,)), one (B, P) test."""
    dx = points[:, 0] - centers[:, :1]
    dy = points[:, 1] - centers[:, 1:]
    return (np.hypot(dx, dy) <= radii[:, None]).any(axis=0)


def near_segment(p, q, cx, cy, r) -> bool:
    """Whether (cx, cy) lies closer than r to the segment p-q, on Python floats.

    The one scalar point-to-segment test: the generator's wall clearance and
    pathfind.line_of_sight's disc test both ask it.
    """
    px, py = float(p[0]), float(p[1])
    vx, vy = float(q[0]) - px, float(q[1]) - py
    denom = vx * vx + vy * vy
    if denom < 1e-30:
        return math.hypot(px - cx, py - cy) < r
    t = max(0.0, min(1.0, ((cx - px) * vx + (cy - py) * vy) / denom))
    return math.hypot(px + t * vx - cx, py + t * vy - cy) < r


def discover(state: WorldState, tasks) -> WorldState:
    discovery_times = state.discovery_times.copy()
    discovery_times[list(tasks)] = state.time
    return replace(state, discovery_times=discovery_times)


def service_tick(state: WorldState, sc: Scenario, agent: int, task: int) -> WorldState:
    """One service interval: workload drops by the agent's rate times dt.

    The drop is at most the workload left, so the completing tick leaves
    exactly 0.0.  Servicing a served task returns the state itself.  Range
    and discovery preconditions are enforced.
    """
    if state.remaining_workloads[task] == 0.0:
        return state
    if math.isnan(state.discovery_times[task]):
        raise ValueError(f"task {task} serviced before discovery")
    p = state.agent_positions[agent].tolist()
    if math.dist(p, sc.arrays.task_positions[task].tolist()) > ARRIVAL_RADIUS + 1e-12:
        raise ValueError(f"agent {agent} outside arrival radius of task {task}")
    rate = sc.arrays.preferences[task, agent]
    remaining = state.remaining_workloads.copy()
    remaining[task] -= min(rate * sc.dt, float(remaining[task]))
    return WorldState(
        time=state.time,
        agent_positions=state.agent_positions,
        agent_velocities=state.agent_velocities,
        remaining_workloads=remaining,
        discovery_times=state.discovery_times,
        cumulative_distance=state.cumulative_distance,
    )


# ---------------------------------------------------------------------------
# Scenario generation
# ---------------------------------------------------------------------------

DEFAULT_MAP_SIZES = {3: 2.5, 7: 2.7, 10: 2.9}
_MAX_OBSTACLE_RADIUS = 0.18
_WALL_MARGIN = 0.3       # wall midpoints keep this far from the boundary
_MAX_ATTEMPTS = 80       # candidate scenarios drawn before the generator gives up
_WORKLOAD_RANGE = (0.5, 1.5)
_WEIGHT_RANGE = (0.5, 2.0)
_PREFERENCE_RANGE = (0.2, 1.0)  # per (task type, agent type) service rate


def _generator_map_size(n_agents, map_size, n_obstacles, n_walls, n_types) -> float:
    """Check the counts, then return the map size (N's default when None).

    Raise ScenarioError for counts out of range, an N with no default map,
    or a map too small to draw in.  Points need 2 * MIN_CLEARANCE, obstacles
    2 * (0.18 + MIN_CLEARANCE) and wall midpoints 2 * 0.3.
    """
    for name, value, least in (
        ("n_agents", n_agents, 1), ("n_types", n_types, 1),
        ("n_obstacles", n_obstacles, 0), ("n_walls", n_walls, 0),
    ):
        if value < least:
            raise ScenarioError(f"{name} must be >= {least}, got {value}")
    if map_size is None:
        if n_agents not in DEFAULT_MAP_SIZES:
            raise ScenarioError(f"no default map size for N={n_agents}; pass map_size explicitly")
        map_size = DEFAULT_MAP_SIZES[n_agents]
    if not math.isfinite(map_size):
        raise ScenarioError(f"map_size must be finite, got {map_size}")
    bounds = [(2 * MIN_CLEARANCE, "entities")]
    if n_obstacles > 0:
        bounds.append((2 * (_MAX_OBSTACLE_RADIUS + MIN_CLEARANCE), "obstacles"))
    if n_walls > 0:
        bounds.append((2 * _WALL_MARGIN, "walls"))
    smallest, what = max(bounds)
    if not map_size >= smallest:
        raise ScenarioError(
            f"map_size {map_size:g} is below {smallest:g}, the smallest map the "
            f"generator can place {what} in"
        )
    return map_size


def generate_scenario(
    n_agents: int,
    map_size: float | None = None,
    *,
    seed: int,
    n_obstacles: int = 3,
    n_walls: int = 2,
    n_types: int = 3,
    sensing_radius: float = 0.5,
    max_speed: float = 1.0,
    dt: float = 0.1,
    alpha: float = 0.97,
) -> Scenario:
    """Sample a random usable scenario (rejection sampling, fully seeded).

    Entity positions keep MIN_CLEARANCE from each other, from walls, and from
    obstacle surfaces; wall orientations come from {0, 45, 90, 135} degrees.
    Candidate scenarios where some agent-task pair is unreachable on the
    navigation grid are resampled.  Agent/task types cycle through
    range(n_types) so every generated team is heterogeneous.

    Bad values raise ScenarioError: counts and a map too small to draw in
    before anything is drawn, the rest from the Scenario validator and
    build_nav_grid (sensing below the grid resolution).
    """
    from fairtask import pathfind  # deferred: pathfind depends on this module

    map_size = _generator_map_size(n_agents, map_size, n_obstacles, n_walls, n_types)
    rng = np.random.default_rng(seed)
    types = min(n_types, n_agents)
    preference_table = rng.uniform(*_PREFERENCE_RANGE, size=(types, types))

    unplaced = unreachable = 0
    last_err: Exception | None = None
    for _ in range(_MAX_ATTEMPTS):
        sc = _sample_candidate(
            n_agents, float(map_size), rng, n_obstacles, n_walls, types,
            sensing_radius, max_speed, dt, alpha, preference_table, seed,
        )
        if sc is None:
            unplaced += 1
            continue
        try:
            d = sc.start_distances
        except pathfind.GridPlacementError as err:
            last_err = err
            continue
        if np.all(np.isfinite(d)):
            return sc
        unreachable += 1
    blocked = _MAX_ATTEMPTS - unplaced - unreachable
    raise ScenarioError(
        f"could not generate a usable scenario in {_MAX_ATTEMPTS} attempts: "
        f"{unplaced} could not place every entity with clearance, "
        f"{unreachable} left an agent-task pair unreachable, "
        f"{blocked} put an entity in a blocked grid cell"
        + (f" (last: {last_err})" if last_err is not None else "")
    )


def _sample_candidate(
    n, size, rng, n_obstacles, n_walls, types,
    sensing_radius, max_speed, dt, alpha, preference_table, seed,
):
    obstacles = []
    for _ in range(n_obstacles):
        for _try in range(200):
            r = float(rng.uniform(0.08, _MAX_OBSTACLE_RADIUS))
            c = rng.uniform(r + MIN_CLEARANCE, size - r - MIN_CLEARANCE, size=2)
            if all(
                math.dist(tuple(c), oc) >= r + orad + MIN_CLEARANCE
                for oc, orad in obstacles
            ):
                obstacles.append((tuple(float(x) for x in c), r))
                break
        else:
            return None

    walls = []
    for _ in range(n_walls):
        ang = math.radians(float(rng.choice(_WALL_ANGLES_DEG)))
        length = float(rng.uniform(0.4, 0.9))
        mid = rng.uniform(_WALL_MARGIN, size - _WALL_MARGIN, size=2)
        dvec = np.array([math.cos(ang), math.sin(ang)]) * (length / 2.0)
        a = np.clip(mid - dvec, 0.05, size - 0.05)
        b = np.clip(mid + dvec, 0.05, size - 0.05)
        walls.append((tuple(float(x) for x in a), tuple(float(x) for x in b)))

    placed = np.empty((2 * n, 2))  # rows [:n_placed] are the points placed so far
    n_placed = 0

    def _sample_point():
        nonlocal n_placed
        for _try in range(400):
            p = rng.uniform(MIN_CLEARANCE, size - MIN_CLEARANCE, size=2)
            gaps = p - placed[:n_placed]
            if (np.hypot(gaps[:, 0], gaps[:, 1]) < MIN_CLEARANCE).any():
                continue
            x, y = p.tolist()
            if any(math.dist((x, y), oc) < orad + MIN_CLEARANCE for oc, orad in obstacles):
                continue
            if any(near_segment(w1, w2, x, y, MIN_CLEARANCE) for w1, w2 in walls):
                continue
            placed[n_placed] = p
            n_placed += 1
            return x, y
        return None

    agents = []
    for i in range(n):
        p = _sample_point()
        if p is None:
            return None
        g = i % types
        agents.append(
            AgentSpec(
                id=i,
                start_position=p,
                agent_type=g,
                sensing_radius=sensing_radius,
                max_speed=max_speed,
                preference_row=tuple(float(x) for x in preference_table[:, g]),
            )
        )

    tasks = []
    for j in range(n):
        p = _sample_point()
        if p is None:
            return None
        tasks.append(
            TaskSpec(
                id=j,
                position=p,
                task_type=j % types,
                workload=float(rng.uniform(*_WORKLOAD_RANGE)),
                weight=float(rng.uniform(*_WEIGHT_RANGE)),
            )
        )

    return Scenario(
        workspace_size=size,
        walls=tuple(walls),
        obstacles=tuple(obstacles),
        agents=tuple(agents),
        tasks=tuple(tasks),
        seed=seed,
        dt=dt,
        alpha=alpha,
    )
