"""Grid construction, A* distances, waypoints, and the Dijkstra oracle."""

from __future__ import annotations

import heapq
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from fairtask import pathfind, world

import oracles
from conftest import make_scenario

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Independent oracle: plain Dijkstra over the same grid graph, tracking
# (straight, diagonal) step counts so optimal costs are bit-reconstructable.
# ---------------------------------------------------------------------------


def dijkstra_oracle(grid: pathfind.NavGrid, a, b) -> float:
    start = grid.cell_of(a)
    goal = grid.cell_of(b)
    if start == goal:
        return 0.0
    nx, ny = grid.dims
    res = grid.resolution
    blocked = grid.blocked
    dist = {start: 0.0}
    counts = {start: (0, 0)}
    heap = [(0.0, start)]
    done = set()
    while heap:
        d, cell = heapq.heappop(heap)
        if cell in done:
            continue
        done.add(cell)
        if cell == goal:
            s, dg = counts[cell]
            return s * res + dg * (res * SQRT2)
        cs, cd = counts[cell]
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                nxt = (cell[0] + dx, cell[1] + dy)
                if not (0 <= nxt[0] < nx and 0 <= nxt[1] < ny) or blocked[nxt]:
                    continue
                diag = dx != 0 and dy != 0
                if diag and (blocked[cell[0], nxt[1]] or blocked[nxt[0], cell[1]]):
                    continue
                nd = d + (res * SQRT2 if diag else res)
                if nd < dist.get(nxt, math.inf):
                    dist[nxt] = nd
                    counts[nxt] = (cs, cd + 1) if diag else (cs + 1, cd)
                    heapq.heappush(heap, (nd, nxt))
    return math.inf


def _free_random_points(grid, rng, count):
    pts = []
    size = grid.dims[0] * grid.resolution
    while len(pts) < count:
        p = rng.uniform(0.05, size - 0.05, size=2)
        if not grid.blocked[grid.cell_of(p)]:
            pts.append(p)
    return pts


# ---------------------------------------------------------------------------
# build_nav_grid
# ---------------------------------------------------------------------------


def test_empty_workspace_grid_all_free(empty_scenario):
    grid = pathfind.build_nav_grid(empty_scenario)
    assert grid.dims == (50, 50)
    assert not grid.blocked.any()


def test_disc_blocked_count_matches_area():
    sc = make_scenario(
        [(0.3, 0.3)], [(2.2, 2.2)], obstacles=[((1.25, 1.25), 0.2)]
    )
    grid = pathfind.build_nav_grid(sc)
    blocked = int(grid.blocked.sum())
    inflated_r = 0.2 + 0.025
    expected = math.pi * inflated_r**2 / 0.05**2
    ring = 2 * math.pi * inflated_r / 0.05
    assert abs(blocked - expected) <= ring


def test_full_wall_disconnects_components():
    sc = make_scenario(
        [(0.5, 0.5)], [(2.0, 0.5)], walls=[((0.0, 1.25), (2.5, 1.25))]
    )
    grid = pathfind.build_nav_grid(sc)
    assert oracles.shortest_path_distance(grid, (0.5, 0.5), (0.5, 2.0)) == math.inf


def test_entity_in_blocked_cell_rejected():
    # Task outside the disc itself but inside the clearance-inflated cell.
    sc = make_scenario([(0.5, 0.5)], [(1.449, 1.299)], obstacles=[((1.25, 1.25), 0.2)])
    with pytest.raises(pathfind.GridPlacementError):
        pathfind.build_nav_grid(sc)


def test_resolution_validation():
    sc = make_scenario([(0.5, 0.5)], [(2.0, 2.0)], sensing_radius=0.04)
    with pytest.raises(ValueError, match="exceeds the smallest sensing radius"):
        pathfind.build_nav_grid(sc)  # 0.05 > sensing radius


# ---------------------------------------------------------------------------
# A* path lengths (oracles.shortest_path_distance)
# ---------------------------------------------------------------------------


def test_zero_distance_same_point(empty_scenario):
    grid = pathfind.build_nav_grid(empty_scenario)
    assert oracles.shortest_path_distance(grid, (1.0, 1.0), (1.0, 1.0)) == 0.0


def test_straight_line_within_octile_bound(empty_scenario):
    grid = pathfind.build_nav_grid(empty_scenario)
    d = oracles.shortest_path_distance(grid, (0.525, 0.525), (1.525, 0.525))
    assert d == pytest.approx(1.0)
    # 22.5-degree-ish line: octile overestimates Euclidean by <= ~8.2%
    d2 = oracles.shortest_path_distance(grid, (0.525, 0.525), (1.325, 0.925))
    euclid = math.hypot(0.8, 0.4)
    assert euclid <= d2 <= 1.09 * euclid


def test_detour_through_gap_matches_dijkstra():
    sc = make_scenario(
        [(0.5, 0.5)],
        [(0.5, 2.0)],
        walls=[((0.0, 1.25), (1.8, 1.25)), ((2.2, 1.25), (2.5, 1.25))],
    )
    grid = pathfind.build_nav_grid(sc)
    a, b = (0.5, 0.5), (0.5, 2.0)
    d = oracles.shortest_path_distance(grid, a, b)
    assert math.isfinite(d)
    assert d == dijkstra_oracle(grid, a, b)
    assert d > math.hypot(0.0, 1.5)  # forced detour is strictly longer


def test_astar_equals_dijkstra_on_random_pairs(rng):
    sc = world.generate_scenario(5, 2.6, seed=77)
    grid = pathfind.build_nav_grid(sc)
    pts = _free_random_points(grid, rng, 40)
    checked = 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            a, b = pts[i], pts[j]
            assert oracles.shortest_path_distance(grid, a, b) == dijkstra_oracle(
                grid, a, b
            )
            checked += 1
            if checked >= 200:
                return


def test_metric_sanity(rng):
    sc = world.generate_scenario(5, 2.6, seed=11)
    grid = pathfind.build_nav_grid(sc)
    res = grid.resolution
    pts = _free_random_points(grid, rng, 12)
    for a in pts[:6]:
        assert oracles.shortest_path_distance(grid, a, a) == 0.0
    for i in range(5):
        a, b, c = pts[i], pts[i + 4], pts[i + 7]
        dab = oracles.shortest_path_distance(grid, a, b)
        dba = oracles.shortest_path_distance(grid, b, a)
        assert dab == dba
        if math.isfinite(dab):
            dac = oracles.shortest_path_distance(grid, a, c)
            dcb = oracles.shortest_path_distance(grid, c, b)
            assert dab <= dac + dcb + 2 * res
            assert dab >= math.hypot(*(np.asarray(a) - np.asarray(b))) - 2 * res


# ---------------------------------------------------------------------------
# Differential tests: flat-index A* and array line-of-sight vs tests/oracles.py
# ---------------------------------------------------------------------------


def _generated_grid(seed, teams=((3, 2.5), (7, 2.7))):
    # One of `teams` (N, map size) by seed; the generator caches the grid.
    n_agents, map_size = teams[seed % len(teams)]
    return world.generate_scenario(n_agents, map_size, seed=seed).distances.grid


def _split_grid():
    # A full-width wall cuts the map in two, so pairs across it are disconnected.
    sc = make_scenario(
        [(0.5, 0.5)], [(2.0, 0.5)],
        walls=[((0.0, 1.25), (2.5, 1.25))], obstacles=[((1.8, 1.9), 0.15)],
    )
    return pathfind.build_nav_grid(sc)


def _goal_field(grid, b):
    """The Dijkstra field of b's cell, as `DistanceProvider.fields` caches it."""
    return pathfind.DistanceProvider(grid).field(grid.center(grid.cell_of(b)))


@given(seed=st.integers(0, 2**32 - 1))
@example(seed=0)  # N=3 and N=12
@example(seed=1)  # N=7 and N=40
@settings(max_examples=12, deadline=None)
def test_astar_matches_oracle_on_generated_scenarios(seed):
    rng = np.random.default_rng(seed)
    split = _split_grid()
    # The larger maps have other ny, through which the move masks are indexed.
    large = _generated_grid(seed, teams=((12, 3.5), (40, 6.0)))
    for grid in (_generated_grid(seed), large, split):
        pts = _free_random_points(grid, rng, 12)
        for a, b in zip(pts[::2], pts[1::2]):
            want = oracles.astar_cells(grid, a, b)
            assert pathfind._astar_cells(grid, a, b) == want
            # Capped by the goal cell's field, the search returns the same cells.
            assert pathfind._astar_cells(grid, a, b, _goal_field(grid, b)) == want
        blocked = np.argwhere(grid.blocked)
        wall_cell = grid.center(tuple(blocked[rng.integers(len(blocked))]))
        for fn in (pathfind._astar_cells, oracles.astar_cells):
            for a, b in ((wall_cell, pts[0]), (pts[0], wall_cell)):
                with pytest.raises(ValueError, match="free cells"):
                    fn(grid, a, b)
    across = ((0.5, 0.5), (0.5, 2.0))
    field = _goal_field(split, across[1])
    assert field[split.flat_index(split.cell_of(across[0]))] == math.inf
    assert pathfind._astar_cells(split, *across) is None
    assert pathfind._astar_cells(split, *across, field) is None
    assert oracles.astar_cells(split, *across) is None


def test_capped_astar_breaks_an_exact_tie_by_heap_order():
    """Two mirror routes around a square block are equally short, so the cap
    keeps both and the heap key picks one, as in the uncapped search."""
    n = 21
    blocked = np.zeros((n, n), dtype=bool)
    blocked[8:13, 6:15] = True  # symmetric about row iy = 10
    grid = pathfind.NavGrid(
        resolution=pathfind.DEFAULT_RESOLUTION, dims=(n, n), blocked=blocked, walls=(), obstacles=(),
    )
    a, b = grid.center((2, 10)), grid.center((18, 10))
    from_goal, from_start = _goal_field(grid, b), _goal_field(grid, a)
    want = oracles.astar_cells(grid, a, b)
    mirror = [(ix, 2 * 10 - iy) for ix, iy in want]
    assert mirror != want
    c_star = from_goal[grid.flat_index((2, 10))]
    for cells in (want, mirror):  # both routes are shortest, cell by cell
        for c in cells:
            flat = grid.flat_index(c)
            assert from_start[flat] + from_goal[flat] == pytest.approx(c_star, abs=1e-12)
    assert pathfind._astar_cells(grid, a, b) == want
    assert pathfind._astar_cells(grid, a, b, from_goal) == want


def test_cap_slack_lies_inside_its_float_bound(monkeypatch):
    res = pathfind.DEFAULT_RESOLUTION
    for c_star in (res, 1.0, 8.0, 300.0):
        k = c_star / res + 1.0
        slack = pathfind._cap_slack(c_star, res)
        error = 8.0 * (k + 1.0) * 2.0**-53 * (c_star + 2.0 * res)
        assert error < slack < res / (2.5 * k) - error
    assert pathfind._cap_slack(1e6, res) is None
    # When no slack fits, a search given the field runs uncapped.
    split = _split_grid()
    a, b = (0.5, 0.5), (2.0, 0.5)
    field = _goal_field(split, b)
    monkeypatch.setattr(pathfind, "_cap_slack", lambda c_star, res: None)
    assert pathfind._astar_cells(split, a, b, field) == oracles.astar_cells(split, a, b)


def _far_edge_grid():
    # Walls along the far sides block the last two columns and rows, so a
    # negative cell index that wrapped around instead of clamping to 0 would
    # read a blocked cell.
    sc = make_scenario(
        [(0.5, 0.5)], [(2.0, 0.5)], walls=[((2.45, 0.0), (2.45, 2.5)), ((0.0, 2.45), (2.5, 2.45))],
    )
    return pathfind.build_nav_grid(sc)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=12, deadline=None)
def test_line_of_sight_matches_oracle_on_generated_scenarios(seed):
    rng = np.random.default_rng(seed)
    for grid in (_generated_grid(seed), _far_edge_grid()):
        size = grid.dims[0] * grid.resolution
        for _ in range(40):
            # Endpoints may leave the workspace, where cells are clamped.
            a = rng.uniform(-0.1, size + 0.1, size=2)
            far = rng.uniform(-0.1, size + 0.1, size=2)
            near = a + rng.normal(scale=0.15, size=2)
            for b in (far, near, a):
                want = oracles.line_of_sight(grid, a, b)
                for ends in ((a, b), (tuple(a), list(b)), (a.tolist(), tuple(b.tolist()))):
                    assert pathfind.line_of_sight(grid, *ends) == want
        # Endpoints on cell boundaries, up to the far edge x = nx * res.
        nx, res = grid.dims[0], grid.resolution
        for _ in range(40):
            a, b = rng.integers(0, nx + 1, size=(2, 2)) * res
            edge = (nx * res, float(b[1]))
            for p, q in ((a, b), (a, edge), (edge, a), (tuple(a), (float(b[0]), nx * res))):
                assert pathfind.line_of_sight(grid, p, q) == oracles.line_of_sight(grid, p, q)
        pts = _free_random_points(grid, rng, 20)
        for a, b in zip(pts, pts[1:]):
            assert pathfind.line_of_sight(grid, a, b) == oracles.line_of_sight(grid, a, b)


def _sealed_grid():
    # The center of a wide disc lies more than four rings from any free cell,
    # so it snaps to no cell at all.
    sc = make_scenario([(0.3, 0.3)], [(2.2, 2.2)], obstacles=[((1.25, 1.25), 0.45)])
    return pathfind.build_nav_grid(sc)


def test_move_masks_unpack_to_the_edge_set():
    for grid in (_generated_grid(7), _split_grid(), _sealed_grid()):
        masks = np.array(grid.masks, dtype=np.uint8)
        bits = np.unpackbits(masks, bitorder="little").reshape(grid.edges.shape)
        assert np.array_equal(bits.astype(bool), grid.edges)
        assert len(grid.moves_by_mask) == 2 ** len(grid.moves)
        for mask, moves in enumerate(grid.moves_by_mask):
            assert moves == tuple(m for k, m in enumerate(grid.moves) if mask & (1 << k))


_GRAPH_TEAMS = ((3, 2.5), (7, 2.7), (12, 3.5), (40, 6.0))


@given(seed=st.integers(0, 2**32 - 1), team=st.sampled_from(_GRAPH_TEAMS))
@example(seed=0, team=_GRAPH_TEAMS[-1])
@settings(max_examples=12, deadline=None)
def test_graph_matches_coo_oracle_on_generated_scenarios(seed, team):
    n_agents, map_size = team
    generated = world.generate_scenario(n_agents, map_size, seed=seed).distances.grid
    for grid in (generated, _split_grid(), _sealed_grid()):
        got = grid.graph
        want = oracles.build_graph(grid)
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert got.has_sorted_indices and want.has_sorted_indices


def _single_source_rows(grid, sources, targets):
    """Each source's own one-source Dijkstra row on the oracle graph, read at the targets."""
    graph = oracles.build_graph(grid)
    cols = [pathfind.nearest_free_cell(grid, t) for t in targets]
    out = np.full((len(sources), len(targets)), math.inf)
    for i, s in enumerate(sources):
        cell = pathfind.nearest_free_cell(grid, s)
        if cell is None:
            continue
        row = dijkstra(graph, indices=grid.flat_index(cell), directed=True)
        for j, c in enumerate(cols):
            if c is not None:
                out[i, j] = row[grid.flat_index(c)]
    return out


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=12, deadline=None)
def test_pairwise_matches_single_source_fields(seed):
    rng = np.random.default_rng(seed)
    n_agents, map_size = ((3, 2.5), (7, 2.7), (12, 3.5))[seed % 3]
    generated = world.generate_scenario(n_agents, map_size, seed=seed).distances.grid
    # (0.5, 0.5) and (0.5, 2.0) lie on opposite sides of the split grid's wall;
    # (1.25, 1.25) snaps to no cell of the sealed grid.
    below, above, sealed = (0.5, 0.5), (0.5, 2.0), (1.25, 1.25)
    for grid in (generated, _split_grid(), _sealed_grid()):
        pts = _free_random_points(grid, rng, 10)
        # A second point in the first point's cell: two source rows, one field.
        twin = grid.center(grid.cell_of(pts[0])) + rng.uniform(-0.4, 0.4, size=2) * grid.resolution
        sources = np.array([*pts[:5], twin, pts[0], below, sealed])
        targets = np.array([*pts[5:], above, sealed])
        provider = pathfind.DistanceProvider(grid)
        got = provider.pairwise(sources, targets)
        assert np.array_equal(got, _single_source_rows(grid, sources, targets))
        assert np.array_equal(provider.pairwise(sources, targets), got)  # from the cache
        for empty in (np.empty((0, 2)), []):
            assert provider.pairwise(empty, targets).shape == (0, len(targets))
            assert provider.pairwise(sources, empty).shape == (len(sources), 0)
    assert np.isinf(got[-1]).all() and np.isinf(got[:, -1]).all()  # sealed grid
    split = pathfind.DistanceProvider(_split_grid()).pairwise([below], [above, (2.0, 0.5)])
    assert math.isinf(split[0, 0]) and math.isfinite(split[0, 1])


def test_pairwise_runs_one_dijkstra_for_its_uncached_sources(monkeypatch):
    sc = world.generate_scenario(7, seed=3)
    grid = sc.distances.grid
    batches, fields = [], []
    sp_dijkstra, field = pathfind._sp_dijkstra, pathfind.DistanceProvider.field

    def counting_dijkstra(graph, indices, **kw):
        batches.append(list(np.atleast_1d(indices)))
        return sp_dijkstra(graph, indices=indices, **kw)

    def counting_field(self, source):
        fields.append(tuple(source))
        return field(self, source)

    monkeypatch.setattr(pathfind, "_sp_dijkstra", counting_dijkstra)
    monkeypatch.setattr(pathfind.DistanceProvider, "field", counting_field)
    provider = pathfind.DistanceProvider(grid)
    tasks, agents = sc.arrays.task_positions, sc.arrays.agent_positions
    sources = np.vstack([tasks, tasks[:2]])  # two repeated source rows
    provider.pairwise(sources, agents)
    assert batches == [[grid.flat_index(grid.cell_of(t)) for t in tasks]]
    assert len(fields) == len(sources)
    provider.pairwise(sources, agents)
    assert len(batches) == 1
    assert len(fields) == 2 * len(sources)
    # Only the sources without a cached field are computed, in one batch.
    provider.pairwise(np.vstack([agents[:3], tasks]), tasks)
    assert batches[1:] == [[grid.flat_index(grid.cell_of(a)) for a in agents[:3]]]


def test_field_miss_runs_the_batch_call(monkeypatch):
    sc = world.generate_scenario(7, seed=3)
    grid = sc.distances.grid
    batches = []
    sp_dijkstra = pathfind._sp_dijkstra

    def counting_dijkstra(graph, indices, **kw):
        batches.append(indices)
        return sp_dijkstra(graph, indices=indices, **kw)

    monkeypatch.setattr(pathfind, "_sp_dijkstra", counting_dijkstra)
    provider = pathfind.DistanceProvider(grid)  # fresh: no cached field
    source, targets = sc.arrays.agent_positions[0], sc.arrays.task_positions
    cell = grid.flat_index(pathfind.nearest_free_cell(grid, source))
    field = provider.field(source)
    assert batches == [[cell]]
    cols = [grid.flat_index(pathfind.nearest_free_cell(grid, t)) for t in targets]
    assert np.array_equal(field[cols], _single_source_rows(grid, [source], targets)[0])
    assert np.array_equal(field, dijkstra(oracles.build_graph(grid), indices=cell, directed=True))
    assert provider.field(source) is field
    assert len(batches) == 1


# ---------------------------------------------------------------------------
# path_waypoints
# ---------------------------------------------------------------------------


def test_waypoints_collapse_on_free_line(empty_scenario):
    grid = pathfind.build_nav_grid(empty_scenario)
    wps = pathfind.path_waypoints(grid, (0.5, 0.5), (2.0, 1.7))
    assert len(wps) == 1
    assert wps[0] == pytest.approx([2.0, 1.7])


def test_waypoints_same_point_empty(empty_scenario):
    grid = pathfind.build_nav_grid(empty_scenario)
    assert pathfind.path_waypoints(grid, (1.0, 1.0), (1.0, 1.0)) == []


def test_waypoints_single_corner_detour():
    sc = make_scenario(
        [(0.625, 0.625)], [(1.875, 0.725)], walls=[((1.25, 0.0), (1.25, 1.05))]
    )
    grid = pathfind.build_nav_grid(sc)
    a, b = (0.625, 0.625), (1.875, 0.725)
    assert not pathfind.line_of_sight(grid, a, b)  # the wall blocks the beeline
    wps = pathfind.path_waypoints(grid, a, b)
    assert len(wps) == 2  # corner above the wall tip, then the goal
    assert wps[-1] == pytest.approx([1.875, 0.725])
    assert wps[0][1] > 1.05  # rounds the wall's upper end
    assert pathfind.line_of_sight(grid, a, wps[0])
    assert pathfind.line_of_sight(grid, wps[0], wps[1])


def _count_searches(monkeypatch):
    """Record each A* search and each line-of-sight pair path_waypoints makes."""
    searches, sights = [], []
    astar, los = pathfind._astar_cells, pathfind.line_of_sight

    def counted_astar(grid, a, b, goal_field=None):
        searches.append((tuple(a), tuple(b)))
        return astar(grid, a, b, goal_field)

    def counted_los(grid, a, b):
        sights.append((tuple(map(float, a)), tuple(map(float, b))))
        return los(grid, a, b)

    monkeypatch.setattr(pathfind, "_astar_cells", counted_astar)
    monkeypatch.setattr(pathfind, "line_of_sight", counted_los)
    return searches, sights


def test_waypoints_search_only_when_the_goal_is_out_of_sight(empty_scenario, monkeypatch):
    grid = pathfind.build_nav_grid(empty_scenario)
    searches, sights = _count_searches(monkeypatch)
    a, b = (0.5, 0.5), (2.0, 1.7)
    assert [w.tolist() for w in pathfind.path_waypoints(grid, a, b)] == [[2.0, 1.7]]
    assert searches == []
    assert sights == [(a, b)]

    sc = make_scenario(
        [(0.625, 0.625)], [(1.875, 0.725)], walls=[((1.25, 0.0), (1.25, 1.05))]
    )
    grid = pathfind.build_nav_grid(sc)
    a, b = (0.625, 0.625), (1.875, 0.725)
    searches.clear()
    sights.clear()
    assert len(pathfind.path_waypoints(grid, a, b)) == 2
    assert len(searches) == 1
    assert sights.count((a, b)) == 1
    assert len(set(sights)) == len(sights)  # no pair is tested twice


def _wall_pressed_points(grid, rng, count):
    """Points inside blocked cells that touch a free cell, as motion clipping leaves them."""
    nx, ny = grid.dims
    free = np.zeros((nx + 2, ny + 2), dtype=bool)
    free[1:-1, 1:-1] = ~grid.blocked
    near_free = np.zeros((nx, ny), dtype=bool)
    for dx, dy, _ in pathfind._NEIGHBORS:
        near_free |= free[1 + dx:nx + 1 + dx, 1 + dy:ny + 1 + dy]
    cells = np.argwhere(grid.blocked & near_free)
    picks = cells[rng.integers(len(cells), size=count)]
    return list((picks + rng.uniform(0.0, 1.0, size=(count, 2))) * grid.resolution)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=12, deadline=None)
def test_waypoints_match_search_every_request_oracle(seed):
    n_agents, map_size = ((7, 2.7), (12, 3.5), (40, 6.0))[seed % 3]
    sc = world.generate_scenario(n_agents, map_size, seed=seed)
    grid = sc.distances.grid
    rng = np.random.default_rng(seed)
    entities = [np.asarray(p) for p in (*sc.arrays.agent_positions, *sc.arrays.task_positions)]
    free = _free_random_points(grid, rng, 8)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=8)
    hops = [p + 0.2 * np.array([math.cos(t), math.sin(t)]) for p, t in zip(free, angles)]
    # Free to free, agent to task, lattice-like hops, and wall-pressed starts.
    starts = free + entities[:4] + free + _wall_pressed_points(grid, rng, 8)
    goals = free[::-1] + entities[-4:] + hops + entities[-8:]
    for a, b in zip(starts, goals):
        got = pathfind.path_waypoints(grid, a, b)
        want = oracles.path_waypoints(grid, a, b)
        assert len(got) == len(want), (a, b)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), (a, b)


def test_waypoints_disconnected_empty():
    sc = make_scenario(
        [(0.5, 0.5)], [(2.0, 0.5)], walls=[((0.0, 1.25), (2.5, 1.25))]
    )
    grid = pathfind.build_nav_grid(sc)
    assert pathfind.path_waypoints(grid, (0.5, 0.5), (0.5, 2.0)) == []


def test_waypoint_legs_have_line_of_sight(rng):
    sc = world.generate_scenario(5, 2.6, seed=5)
    grid = pathfind.build_nav_grid(sc)
    pts = _free_random_points(grid, rng, 16)
    for i in range(8):
        a, b = pts[i], pts[i + 8]
        wps = pathfind.path_waypoints(grid, a, b)
        if not wps:
            continue
        chain = [np.asarray(a)] + [np.asarray(w) for w in wps]
        for u, v in zip(chain, chain[1:]):
            assert pathfind.line_of_sight(grid, u, v)


# ---------------------------------------------------------------------------
# DistanceProvider
# ---------------------------------------------------------------------------


def test_provider_matches_astar(rng):
    sc = world.generate_scenario(5, 2.6, seed=21)
    grid = pathfind.build_nav_grid(sc)
    provider = pathfind.DistanceProvider(grid)
    pts = _free_random_points(grid, rng, 10)
    for i in range(5):
        a, b = pts[i], pts[i + 5]
        assert provider.pairwise([a], [b])[0, 0] == pytest.approx(
            oracles.shortest_path_distance(grid, a, b), abs=1e-9
        )


def test_provider_pairwise_shape_and_symmetry():
    sc = world.generate_scenario(3, 2.5, seed=13)
    grid = pathfind.build_nav_grid(sc)
    provider = pathfind.DistanceProvider(grid)
    d = provider.pairwise(sc.arrays.task_positions, sc.arrays.agent_positions)
    assert d.shape == (3, 3)
    d_t = provider.pairwise(sc.arrays.agent_positions, sc.arrays.task_positions)
    assert d == pytest.approx(d_t.T, abs=1e-9)


def test_nearest_free_cell_respects_walls():
    # A point pressed against a wall snaps to a free cell on its own side.
    sc = make_scenario(
        [(0.5, 0.5)], [(2.0, 0.5)], walls=[((1.25, 0.3), (1.25, 2.2))]
    )
    grid = pathfind.build_nav_grid(sc)
    left = pathfind.nearest_free_cell(grid, (1.25 - 1e-9, 1.0))
    right = pathfind.nearest_free_cell(grid, (1.25 + 1e-9, 1.0))
    assert grid.center(left)[0] < 1.25
    assert grid.center(right)[0] > 1.25
