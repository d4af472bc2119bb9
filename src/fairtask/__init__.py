"""Fair spatial task allocation: assignment solvers and a deterministic simulator.

Subpackage map:
    world     -- 2-D navigation/service environment, scenarios, kinematics, sensing
    pathfind  -- occupancy grid and its one edge set, searched by A* and Dijkstra
    assign    -- one-to-one assignment solvers (EG, Hungarian, min-max)
    online    -- explore-and-assign policy with subset-based assignment
    metrics   -- fairness / regret / efficiency evaluation quantities
    engine    -- the one episode loop and its commit log, scripted navigation, batching
    cli       -- command-line experiment front end
"""

import importlib

from fairtask import assign, engine, metrics, online, pathfind, world

__all__ = ["assign", "cli", "engine", "metrics", "online", "pathfind", "world"]
__version__ = "0.1.0"


def __getattr__(name: str):
    # `cli` loads on first use: importing it with the package would make
    # `python -m fairtask.cli` find it in sys.modules before running it.
    if name == "cli":
        return importlib.import_module("fairtask.cli")
    raise AttributeError(f"module 'fairtask' has no attribute {name!r}")
