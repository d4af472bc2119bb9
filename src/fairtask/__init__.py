"""Fair spatial task allocation: assignment solvers and a deterministic simulator.

Subpackage map:
    world     -- 2-D navigation/service environment, scenarios, kinematics, sensing
    pathfind  -- occupancy grid, A* shortest paths, waypoint extraction
    assign    -- one-to-one assignment solvers and brute-force oracles
    online    -- explore-and-assign policy with subset-based assignment
    metrics   -- fairness / regret / efficiency evaluation quantities
    engine    -- the one episode loop, scripted navigation, rewards, batching
    cli       -- command-line experiment front end
"""

from fairtask import assign, cli, engine, metrics, online, pathfind, world

__all__ = ["assign", "cli", "engine", "metrics", "online", "pathfind", "world"]
__version__ = "0.1.0"
