"""Calibration kernel: the unit of the benchmark's reference time.

The host this benchmark runs on changes speed within a second and over
minutes, and every kind of work slows with it.  Timing this fixed kernel
between episodes, and dividing each episode's wall time by the mean of the
two kernel times around it, gives a cost in reference units (``ref``) that
cancels most of that drift.

The kernel mixes the three kinds of work the simulator does: a pure-Python
heap search on a grid (A*, string-pulling), a loop of small numpy operations
on 2-vectors (kinematics, line-of-sight) and scipy csgraph Dijkstra fields
(distance fields), in shares of about 30/30/40 % of its time.  Fitting the
shares to the drift of the online and teleport episodes, measured over two
passes of each family, put the best common mix near there; the teleport
workload alone tracks a Dijkstra-heavier mix, the online one a numpy-heavier
mix.  It imports nothing from fairtask, so a change to the program cannot
change the unit.
"""

from __future__ import annotations

import heapq
import time

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

_GRID = 28            # side of the heap-search grid
_VEC_STEPS = 450      # iterations of the 2-vector loop
_GRAPH_SIDE = 120     # side of the 8-connected Dijkstra grid


def _blocked_grid(n: int) -> list[list[bool]]:
    """A fixed grid with two staggered walls, so the search has to detour."""
    blocked = [[False] * n for _ in range(n)]
    for y in range(n - 6):
        blocked[n // 3][y] = True
    for y in range(6, n):
        blocked[2 * n // 3][y] = True
    return blocked


def _grid_graph(n: int) -> csr_matrix:
    rows, cols, data = [], [], []
    for dx, dy, w in ((1, 0, 1.0), (0, 1, 1.0), (1, 1, 1.4142135623730951), (1, -1, 1.4142135623730951)):
        x, y = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        ok = (x + dx < n) & (y + dy >= 0) & (y + dy < n)
        src = (x[ok] * n + y[ok]).ravel()
        dst = ((x[ok] + dx) * n + y[ok] + dy).ravel()
        rows += [src, dst]
        cols += [dst, src]
        data += [np.full(src.size, w)] * 2
    return csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(n * n, n * n)
    )


class Kernel:
    """The fixed calibration workload; build once, then call ``run`` or ``time``."""

    def __init__(self) -> None:
        self._blocked = _blocked_grid(_GRID)
        self._graph = _grid_graph(_GRAPH_SIDE)
        self.checksum = self.run()

    def _heap_search(self) -> float:
        n, blocked = _GRID, self._blocked
        goal = (n - 1, n - 1)
        best = {(0, 0): 0.0}
        frontier = [(0.0, 0.0, (0, 0))]
        while frontier:
            _, g, cell = heapq.heappop(frontier)
            if cell == goal:
                return g
            if g > best[cell]:
                continue
            cx, cy = cell
            for dx, dy, step in ((1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
                                 (1, 1, 1.41421356), (1, -1, 1.41421356),
                                 (-1, 1, 1.41421356), (-1, -1, 1.41421356)):
                nx_, ny_ = cx + dx, cy + dy
                if not (0 <= nx_ < n and 0 <= ny_ < n) or blocked[nx_][ny_]:
                    continue
                ng = g + step
                if ng < best.get((nx_, ny_), float("inf")):
                    best[(nx_, ny_)] = ng
                    h = max(abs(goal[0] - nx_), abs(goal[1] - ny_))
                    heapq.heappush(frontier, (ng + h, ng, (nx_, ny_)))
        return float("inf")

    def _vector_loop(self) -> float:
        p = np.array([0.1, 0.2])
        v = np.array([0.0, 0.0])
        a = np.array([0.03, -0.02])
        total = 0.0
        for i in range(_VEC_STEPS):
            v = 0.9 * v + a
            p = p + 0.1 * v
            total += float(np.hypot(*(p - v)))
            if float(np.dot(p, v)) < 0.0:
                a = -a
        return total

    def _dijkstra(self) -> float:
        corners = [0, _GRAPH_SIDE * _GRAPH_SIDE - 1]
        return float(dijkstra(self._graph, indices=corners, directed=True).sum())

    def run(self) -> float:
        """One kernel run; returns a checksum so no part is skipped."""
        return self._heap_search() + self._vector_loop() + self._dijkstra()

    def time(self) -> float:
        """Wall seconds of one run; fails loudly if the kernel computed something else."""
        t0 = time.perf_counter()
        value = self.run()
        elapsed = time.perf_counter() - t0
        if value != self.checksum:
            raise RuntimeError(f"calibration kernel checksum changed: {value!r} != {self.checksum!r}")
        return elapsed
