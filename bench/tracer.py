"""Per-layer tracing from outside the program.

``Tracer`` rebinds the public functions of each fairtask module (and the
calibration kernel) to timing wrappers, and puts the originals back when it
is closed.  Every cross-module call in ``src/fairtask`` goes through a module
attribute or a class attribute, so rebinding those catches every call.

Each wrapped function gets ``calls``, ``busy_s`` (wall time inside it) and
``self_s`` (busy time minus the busy time of wrapped functions it called).
The counts behind the ratios are taken where the calls happen: the calls
of ``NESTED`` made directly from their parent on the wrapper stack,
collision events returned by the dynamics step, and the snapped source cell
of each distance-field request.
"""

from __future__ import annotations

import functools
import time
import weakref


# Wrapped function -> the wrapped parent whose direct calls to it a ratio counts.
NESTED = {
    "pathfind.build_nav_grid": "world.generate_scenario",
    "assign.solve_eg": "online.select_subset_and_assign",
}


def targets(ft, calib) -> list[tuple[str, object, str]]:
    """(metric name, owner, attribute) of every wrapped function."""
    w, p, a, o, m, e, c = ft.world, ft.pathfind, ft.assign, ft.online, ft.metrics, ft.engine, ft.cli
    return [
        ("world.generate_scenario", w, "generate_scenario"),
        ("world.step_dynamics_events", w, "step_dynamics_events"),
        ("world.newly_visible_tasks", w, "newly_visible_tasks"),
        ("pathfind.build_nav_grid", p, "build_nav_grid"),
        ("pathfind.DistanceProvider.pairwise", p.DistanceProvider, "pairwise"),
        ("pathfind.DistanceProvider.field", p.DistanceProvider, "field"),
        ("pathfind.path_waypoints", p, "path_waypoints"),
        ("pathfind.line_of_sight", p, "line_of_sight"),
        ("assign.solve_eg", a, "solve_eg"),
        ("assign.solve_hungarian_max", a, "solve_hungarian_max"),
        ("assign.solve_minmax", a, "solve_minmax"),
        ("online.run_online_episode", o, "run_online_episode"),
        ("online.select_subset_and_assign", o, "select_subset_and_assign"),
        ("online.sample_target", o, "sample_target"),
        ("online.mark_swept", o, "mark_swept"),
        ("metrics.centralized_optimum", m, "centralized_optimum"),
        ("engine.run_centralized_episode", e, "run_centralized_episode"),
        ("engine.Navigator.set_goal", e.Navigator, "set_goal"),
        ("engine.Navigator.action", e.Navigator, "action"),
        ("cli.format_result_rows", c, "format_result_rows"),
        ("calib.kernel", calib.Kernel, "run"),
    ]


class Tracer:
    """Wraps the targets on construction; ``close`` restores the originals."""

    def __init__(self, ft, calib) -> None:
        self._ft = ft
        self.stats = {}            # name -> [calls, busy_s, self_s]
        self.nested = dict.fromkeys(NESTED, 0)  # name -> calls made directly from NESTED[name]
        self.collision_events = 0
        self._field_cells = weakref.WeakKeyDictionary()  # provider -> snapped source cells
        self.field_misses = 0
        self._stack = []           # one [name, child busy_s] per active wrapped call
        self._saved = []
        for name, owner, attr in targets(ft, calib):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            self.stats[name] = [0, 0.0, 0.0]
            setattr(owner, attr, self._wrap(name, original))

    def close(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _wrap(self, name, fn):
        stats, stack, nested = self.stats[name], self._stack, self.nested
        parent = NESTED.get(name)
        post = {
            "world.step_dynamics_events": self._count_collisions,
            "pathfind.DistanceProvider.field": self._count_field,
        }.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if parent is not None and stack and stack[-1][0] == parent:
                nested[name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += busy
                stats[2] += busy - frame[1]
                if stack:
                    stack[-1][1] += busy
            if post is not None:
                t1 = clock()
                post(args, result)
                if stack:  # the hook's time is the tracer's, not the caller's
                    stack[-1][1] += clock() - t1
            return result

        return wrapper

    def _count_collisions(self, args, result) -> None:
        self.collision_events += len(result[1])

    def _count_field(self, args, result) -> None:
        provider, source = args[0], args[1]
        snapped = self._field_cells.setdefault(provider, {})  # source point -> cell, or None
        point = (float(source[0]), float(source[1]))
        if point in snapped:
            cell = snapped[point]
            hit = cell is not None
        else:
            cell = self._ft.pathfind.nearest_free_cell(provider.grid, source)
            hit = cell is not None and cell in snapped.values()
            snapped[point] = cell
        if not hit:
            self.field_misses += 1

    def counts(self) -> dict[str, float]:
        """Every exact count and ratio of the traced calls, by metric name."""
        calls = {name: s[0] for name, s in self.stats.items()}
        scenarios = calls["world.generate_scenario"]
        triggers = calls["online.select_subset_and_assign"]
        fields = calls["pathfind.DistanceProvider.field"]
        out = {f"{name}.calls": n for name, n in calls.items()}
        out["world.grid_builds_per_scenario"] = (
            self.nested["pathfind.build_nav_grid"] / scenarios
            if scenarios else 0.0
        )
        out["world.collision_events"] = self.collision_events
        out["pathfind.field_hit_ratio"] = (fields - self.field_misses) / fields if fields else 0.0
        out["online.solves_per_trigger"] = (
            self.nested["assign.solve_eg"] / triggers
            if triggers else 0.0
        )
        return out

    def times(self) -> dict[str, float]:
        out = {}
        for name, (_, busy, self_s) in self.stats.items():
            out[f"{name}.busy_s"] = busy
            out[f"{name}.self_s"] = self_s
        return out
