"""Occupancy-grid discretization and obstacle-aware shortest paths.

The navigation grid covers the whole workspace at a fixed resolution; cells
whose centers come within clearance (resolution/2) of a wall, or inside an
obstacle inflated by the same clearance, are blocked.  Distances are
8-connected path lengths with octile edge costs (res, res*sqrt(2)), so
they slightly overestimate Euclidean lengths -- uniformly for every caller.
The grid's edge set is one cached fact, `NavGrid.edges`, and both searches
read it: A* for cell paths, expanding each cell's 8-bit move mask
`NavGrid.masks` through the table `NavGrid.moves_by_mask`, and Dijkstra
fields on its CSR form `NavGrid.graph` for batch distances.  The CSR
arrays come from indexing (cell, move) tables with the edge mask itself:
row-major order keeps each row's columns sorted, and the row counts give
the row pointers.  Every field, `DistanceProvider.field`'s cache misses
included, comes from the one batch call: `DistanceProvider.pairwise`
computes all its uncached source fields in one multi-source call.  A
waypoint request whose goal is in sight is answered with the straight
segment and no search.  A search toward a cell whose field is cached
(every task's) starts each cell's best g at the cap C* + s - field[c],
C* the start's field value and s a slack above the float error of the
sums and below the least gap between two octile lengths (`_astar_cells`):
it pushes only shortest-route cells and returns the uncapped search's
path.  A request never computes a field.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _sp_dijkstra

from fairtask import world

DEFAULT_RESOLUTION = 0.05
_SQRT2 = math.sqrt(2.0)
_OCTILE = _SQRT2 - 1.0
_UNIT_ROUNDOFF = 2.0 ** -53

# 8-neighborhood as (dx, dy, diagonal?), in (dx, dy) order: the order of the
# moves' target flat indices, so each CSR row's columns come out sorted.
_NEIGHBORS = (
    (-1, -1, True), (-1, 0, False), (-1, 1, True), (0, -1, False),
    (0, 1, False), (1, -1, True), (1, 0, False), (1, 1, True),
)


class GridPlacementError(world.ScenarioError):
    """An agent start or task position fell inside a blocked cell."""


@dataclass
class NavGrid:
    """Square cells of side `resolution`; cell (0, 0) has its corner at the origin."""

    resolution: float
    dims: tuple[int, int]            # (nx, ny) cells
    blocked: np.ndarray              # bool, shape (nx, ny)
    walls: tuple                     # the scenario's interior walls, ((x1, y1), (x2, y2))
    obstacles: tuple                 # the scenario's discs, ((cx, cy), radius)

    def cell_of(self, point) -> tuple[int, int]:
        nx, ny = self.dims
        ix = int(point[0] / self.resolution)
        iy = int(point[1] / self.resolution)
        return min(max(ix, 0), nx - 1), min(max(iy, 0), ny - 1)

    def center(self, cell: tuple[int, int]) -> np.ndarray:
        return np.array([(cell[0] + 0.5) * self.resolution, (cell[1] + 0.5) * self.resolution])

    def blocked_at(self, points: np.ndarray) -> np.ndarray:
        """Bool (P,): whether each point's cell, as `cell_of` clamps it, is blocked."""
        # astype truncates toward zero, as int() does in cell_of.
        cells = (points / self.resolution).astype(np.int64)
        nx, ny = self.dims
        np.minimum(cells, (nx - 1, ny - 1), out=cells)
        np.maximum(cells, 0, out=cells)  # points may lie outside the workspace
        return self.blocked[cells[:, 0], cells[:, 1]]

    def flat_index(self, cell: tuple[int, int]) -> int:
        return cell[0] * self.dims[1] + cell[1]

    @functools.cached_property
    def moves(self) -> tuple[tuple[int, int, int, float], ...]:
        """(dx, dy, flat offset, step cost) of each move, in _NEIGHBORS order."""
        ny, res = self.dims[1], self.resolution
        return tuple(
            (dx, dy, dx * ny + dy, res * _SQRT2 if diag else res) for dx, dy, diag in _NEIGHBORS
        )

    @functools.cached_property
    def edges(self) -> np.ndarray:
        """Bool (cells, moves): edges[c, k] when move k may leave flat cell c.

        A move joins two free cells in bounds; a diagonal also needs both
        orthogonal companions free, so it cannot cut a corner across a wall.
        """
        nx, ny = self.dims
        free = np.zeros((nx + 2, ny + 2), dtype=bool)
        free[1:-1, 1:-1] = ~self.blocked

        def shifted(dx, dy):
            return free[1 + dx:nx + 1 + dx, 1 + dy:ny + 1 + dy]

        ok = np.empty((nx, ny, len(_NEIGHBORS)), dtype=bool)
        for k, (dx, dy, diag) in enumerate(_NEIGHBORS):
            edge = shifted(0, 0) & shifted(dx, dy)
            if diag:
                edge &= shifted(0, dy) & shifted(dx, 0)
            ok[:, :, k] = edge
        return ok.reshape(nx * ny, len(_NEIGHBORS))

    @functools.cached_property
    def masks(self) -> list[int]:
        """`edges` as one int per flat cell: bit k is set when move k may leave it."""
        return (self.edges @ (1 << np.arange(len(_NEIGHBORS)))).tolist()

    @functools.cached_property
    def moves_by_mask(self) -> list[tuple]:
        """The `moves` of each mask's set bits, in _NEIGHBORS order, for the A* loop."""
        table: list[tuple] = [()]
        for move in self.moves:  # masks with bit k set extend those below 2**k
            table += [moves + (move,) for moves in table]
        return table

    @functools.cached_property
    def graph(self) -> csr_matrix:
        """`edges` weighted by step cost as a CSR graph (sorted rows), for Dijkstra."""
        edges = self.edges
        n = len(edges)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.count_nonzero(edges, axis=1), out=indptr[1:])
        _, _, offsets, costs = map(np.array, zip(*self.moves))
        # Row-major mask indexing keeps each row's moves in order: sorted columns.
        cells = np.arange(n, dtype=np.int32)[:, None]
        indices = (cells + offsets.astype(np.int32))[edges]
        data = np.broadcast_to(costs, edges.shape)[edges]
        return csr_matrix((data, indices, indptr), shape=(n, n))


def build_nav_grid(sc: world.Scenario) -> NavGrid:
    """Discretize scenario geometry at DEFAULT_RESOLUTION.

    Raises world.ScenarioError when the resolution exceeds the smallest
    sensing radius, and its subclass GridPlacementError when an entity sits
    in a blocked cell.
    """
    resolution = DEFAULT_RESOLUTION
    geom = sc.arrays
    min_sense = float(geom.sensing_radius.min())
    if not min_sense >= resolution:
        raise world.ScenarioError(
            f"resolution {resolution} exceeds the smallest sensing radius {min_sense}"
        )
    size = sc.workspace_size
    n_cells = int(math.ceil(size / resolution))
    xs = (np.arange(n_cells) + 0.5) * resolution
    cx, cy = np.meshgrid(xs, xs, indexing="ij")
    blocked = np.zeros((n_cells, n_cells), dtype=bool)
    clearance = resolution / 2.0

    for (ox, oy), r in sc.obstacles:
        blocked |= (cx - ox) ** 2 + (cy - oy) ** 2 <= (r + clearance) ** 2

    for (x1, y1), (x2, y2) in sc.walls:
        blocked |= _segment_distance_field(cx, cy, x1, y1, x2, y2) <= clearance

    grid = NavGrid(
        resolution=resolution, dims=(n_cells, n_cells),
        blocked=blocked, walls=sc.walls, obstacles=sc.obstacles,
    )
    agents = np.flatnonzero(grid.blocked_at(geom.agent_positions))
    if agents.size:
        raise GridPlacementError(f"agent {agents[0]} start is in a blocked cell")
    tasks = np.flatnonzero(grid.blocked_at(geom.task_positions))
    if tasks.size:
        raise GridPlacementError(f"task {tasks[0]} position is in a blocked cell")
    return grid


def _segment_distance_field(cx, cy, x1, y1, x2, y2):
    vx, vy = x2 - x1, y2 - y1
    denom = vx * vx + vy * vy
    if denom < 1e-30:
        return np.hypot(cx - x1, cy - y1)
    t = np.clip(((cx - x1) * vx + (cy - y1) * vy) / denom, 0.0, 1.0)
    return np.hypot(cx - (x1 + t * vx), cy - (y1 + t * vy))


def _cap_slack(c_star: float, res: float) -> float | None:
    """The slack s = res / (5 K) of `_astar_cells`' cap, or None when it is
    not above the error bound E = 8 (K + 1) u (C* + 2 res)."""
    k = c_star / res + 1.0
    slack = res / (5.0 * k)
    error = 8.0 * (k + 1.0) * _UNIT_ROUNDOFF * (c_star + 2.0 * res)
    return slack if error < slack else None


def _astar_cells(grid: NavGrid, a, b, goal_field=None) -> list[tuple[int, int]] | None:
    """Octile A* cell path from a's cell to b's cell, or None when disconnected.

    Expands along `grid.edges`, the edge set Dijkstra searches too, reading
    a cell's moves as `grid.moves_by_mask[grid.masks[cell]]`.  Cells are
    flat indices ix * ny + iy; the heap key (f, h, flat index) breaks
    ties the same way a key ending in the (ix, iy) tuple would.

    `goal_field`, the cached Dijkstra field of b's cell when there is one,
    caps the search without changing its result.  With C* = field[start]
    (None at once when it is inf), each cell's best g starts at the cap
    C* + s - field[c] instead of inf, so a step is pushed only when
    g + field[c] < C* + s, and the heap key, the strict `<` and the parent
    rule stay as they are.  Every route length is a res + b res*sqrt(2)
    for step counts a, b.  A route shorter than C* + res has at most
    K = C*/res + 1 steps, and two such lengths that differ do so by at
    least res / (2.5 K), since |p + q sqrt(2)| >= 1 / (2K + 1) for
    integers |p|, |q| <= K, not both 0, and K >= 2.  C*, field[c] and every
    g compared near the cap are float sums of at most K + 1 steps, and
    E = 8 (K + 1) u (C* + 2 res) bounds their joint error with the cap's
    two roundings (u = 2**-53).  A slack with E < s < res / (2.5 K) - E
    therefore keeps every step on a shortest route and drops every step
    that can only start a strictly longer one, whose pushes and their
    descendants never set a parent on the returned path: the cells
    returned are the uncapped search's.  s = res / (5 K) fits while
    E < s (`_cap_slack`); otherwise the search runs uncapped.
    """
    start = grid.cell_of(a)
    goal = grid.cell_of(b)
    if grid.blocked[start] or grid.blocked[goal]:
        raise ValueError("path endpoints must lie in free cells")
    if start == goal:
        return [start]
    ny = grid.dims[1]
    res = grid.resolution
    masks = grid.masks
    by_mask = grid.moves_by_mask
    gx, gy = goal
    goal_flat = grid.flat_index(goal)
    start_flat = grid.flat_index(start)
    hx, hy = abs(start[0] - gx), abs(start[1] - gy)
    h0 = res * (max(hx, hy) + _OCTILE * min(hx, hy))

    inf = math.inf
    slack = None
    if goal_field is not None:
        c_star = float(goal_field[start_flat])
        if c_star == inf:
            return None
        slack = _cap_slack(c_star, res)
    if slack is None:
        g_best = [inf] * len(masks)
    else:
        g_best = (c_star + slack - goal_field).tolist()
    g_best[start_flat] = 0.0
    parent: dict[int, int] = {}
    frontier = [(h0, h0, start_flat)]
    closed = bytearray(len(masks))
    heappop, heappush = heapq.heappop, heapq.heappush
    while frontier:
        cur = heappop(frontier)[2]
        if closed[cur]:
            continue
        if cur == goal_flat:
            path = [cur]
            while path[-1] != start_flat:
                path.append(parent[path[-1]])
            return [divmod(f, ny) for f in reversed(path)]
        closed[cur] = 1
        cg = g_best[cur]
        cx, cy = divmod(cur, ny)
        for dx, dy, offset, cost in by_mask[masks[cur]]:
            nxt = cur + offset
            ng = cg + cost
            if ng < g_best[nxt]:
                g_best[nxt] = ng
                parent[nxt] = cur
                # res * (max + (sqrt2 - 1) * min) of the cell offsets to the goal.
                x, y = cx + dx, cy + dy
                hx = x - gx if x >= gx else gx - x
                hy = y - gy if y >= gy else gy - y
                hh = res * (hx + _OCTILE * hy) if hx >= hy else res * (hy + _OCTILE * hx)
                heappush(frontier, (ng + hh, hh, nxt))
    return None


def _segment_crosses_wall(grid: NavGrid, p, q) -> bool:
    """True when the open segment p-q crosses an interior wall segment."""
    px, py = float(p[0]), float(p[1])
    qx, qy = float(q[0]), float(q[1])
    for (x1, y1), (x2, y2) in grid.walls:
        wx, wy = x2 - x1, y2 - y1
        side_p = wx * (py - y1) - wy * (px - x1)
        side_q = wx * (qy - y1) - wy * (qx - x1)
        if side_p * side_q >= 0.0:
            continue
        rx, ry = qx - px, qy - py
        denom = rx * wy - ry * wx
        if abs(denom) < 1e-18:
            continue
        u = ((x1 - px) * ry - (y1 - py) * rx) / denom
        if -1e-12 <= u <= 1.0 + 1e-12:
            return True
    return False


def nearest_free_cell(grid: NavGrid, point) -> tuple[int, int] | None:
    """Snapped cell, or the closest reachable free cell near it.

    Motion clipping can press an agent against a wall whose cell is blocked
    by clearance inflation.  Queries from such positions snap to the nearest
    free cell on the *same side* of the geometry: candidates whose connecting
    segment would cross a wall are rejected.  Deterministic tie-break by
    distance, then flat index.
    """
    cell = grid.cell_of(point)
    if not grid.blocked[cell]:
        return cell
    nx, ny = grid.dims
    for ring in range(1, 5):
        candidates = []
        for dx in range(-ring, ring + 1):
            for dy in range(-ring, ring + 1):
                if max(abs(dx), abs(dy)) != ring:
                    continue
                c = (cell[0] + dx, cell[1] + dy)
                if not (0 <= c[0] < nx and 0 <= c[1] < ny) or grid.blocked[c]:
                    continue
                center = grid.center(c)
                if _segment_crosses_wall(grid, point, center):
                    continue
                gap = float(np.hypot(*(center - np.asarray(point, dtype=float))))
                candidates.append((gap, grid.flat_index(c), c))
        if candidates:
            return min(candidates)[2]
    return None


def line_of_sight(grid: NavGrid, a, b) -> bool:
    """True when the straight segment a-b is traversable.

    Combines a conservative free-cell sampling pass (keeps legs clear of the
    inflated blocked band) with exact segment tests against walls and discs;
    sampling alone can miss a diagonal wall slipping between cell centers.
    """
    p = float(a[0]), float(a[1])
    q = float(b[0]), float(b[1])
    length = float(np.hypot(q[0] - p[0], q[1] - p[1]))
    if length == 0.0:
        return not grid.blocked_at(np.array([p]))[0]
    if _segment_crosses_wall(grid, p, q):
        return False
    for (cx, cy), r in grid.obstacles:
        if world.near_segment(p, q, cx, cy, r):
            return False
    steps = max(int(math.ceil(length / (grid.resolution / 4.0))), 1)
    t = np.arange(steps + 1) / steps
    start = np.array(p)
    pts = start + (np.array(q) - start) * t[:, None]
    return not np.count_nonzero(grid.blocked_at(pts))


def path_waypoints(grid: NavGrid, a, b, fields=None) -> list[np.ndarray]:
    """String-pulled waypoint chain from a to b (a excluded, b last).

    Consecutive waypoints are mutually visible.  Returns [] when a == b or
    when no path exists.  A goal in sight of a is answered [b] without an A*
    search, as Theta* takes a clear straight segment; otherwise string
    pulling from a skips the a-b pair it has just tested.  `fields`, a
    `DistanceProvider.fields` cache, lends the search the field of b's
    snapped cell when it holds one; a request never computes a field.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if float(np.hypot(*(b - a))) == 0.0:
        return []
    if line_of_sight(grid, a, b):
        return [b]
    ca = nearest_free_cell(grid, a)
    cb = nearest_free_cell(grid, b)
    if ca is None or cb is None:
        return []
    goal_field = None if fields is None else fields.get(grid.flat_index(cb))
    cells = _astar_cells(grid, grid.center(ca), grid.center(cb), goal_field)
    if cells is None:
        return []
    # Keep the snapped entry/exit centers when they differ from the endpoint
    # cells: a wall-pressed start must first step to its own-side free cell.
    centers = [grid.center(c) for c in cells]
    if cells[0] == grid.cell_of(a):
        centers = centers[1:]
    if cells and cells[-1] == grid.cell_of(b) and centers:
        centers = centers[:-1]
    pts = [a] + centers + [b]
    out: list[np.ndarray] = []
    i = 0
    while i < len(pts) - 1:
        j = max(len(pts) - 1 - (i == 0), i + 1)  # a-b was tested above
        while j > i + 1 and not line_of_sight(grid, pts[i], pts[j]):
            j -= 1
        out.append(pts[j])
        i = j
    return out


class DistanceProvider:
    """Batch shortest-path distances via cached per-source Dijkstra fields.

    Sources are snapped to cells; one field per distinct source cell is
    computed on `grid.graph`, the edge set that A* expands too, and reused
    for every query against it.  `pairwise` computes the fields of all its
    uncached source cells in one multi-source Dijkstra call, and `field` a
    miss through the same call; each row equals the single-source field.
    `fields` maps each flat source cell to its cached field; waypoint
    searches read it and never add to it.
    """

    def __init__(self, grid: NavGrid):
        self.grid = grid
        self.fields: dict[int, np.ndarray] = {}

    def _snap_index(self, point) -> int | None:
        cell = nearest_free_cell(self.grid, point)
        return None if cell is None else self.grid.flat_index(cell)

    def field(self, source) -> np.ndarray:
        idx = self._snap_index(source)
        if idx is None:
            return np.full(self.grid.dims[0] * self.grid.dims[1], math.inf)
        if idx not in self.fields:
            self._compute([idx])
        return self.fields[idx]

    def _compute(self, cells: list[int]) -> None:
        """Cache the fields of the uncached flat `cells` from one multi-source call."""
        if cells:
            rows = _sp_dijkstra(self.grid.graph, indices=cells, directed=True)
            self.fields.update(zip(cells, rows))  # each row a view of one block

    def pairwise(self, sources, targets) -> np.ndarray:
        sources = np.asarray(sources, dtype=float).reshape(-1, 2)
        targets = np.asarray(targets, dtype=float).reshape(-1, 2)
        self._compute(list(dict.fromkeys(
            i for i in map(self._snap_index, sources) if i is not None and i not in self.fields
        )))
        t_idx = [self._snap_index(t) for t in targets]
        out = np.empty((len(sources), len(targets)))
        for i, s in enumerate(sources):
            f = self.field(s)
            out[i] = [math.inf if t is None else f[t] for t in t_idx]
        return out
