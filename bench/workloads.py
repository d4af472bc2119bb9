"""The benchmark's workloads: fixed episode families and their output digests.

Each workload is a fixed family of ``pool`` generated scenarios, derived the
way ``engine.batch_run`` derives them: scenario ``i`` is
``world.generate_scenario(seed=engine.episode_seed(root, i), ...)``.  An
episode is one scenario run under one rule.  The benchmark's ``--seed``
shuffles the family into the order a run takes it in, and every episode has
a recorded digest to check its output against, whatever the seed.

A family is sized so that one run covers all or nearly all of it even on a
slow host; a faster run goes round again from the start of its order.  Statistics are
taken over the family's distinct episodes, so every run describes the same
episodes.  With families drawn afresh from each seed, the sampling of
scenarios alone moved the online p90 by 11.5 % (quartile spread over five
seeds), which would hide any change smaller than that.

The digest of an episode is the SHA-256 of its formatted result rows
(``cli.format_result_rows``, the same rows ``fairtask run`` writes to
``results.csv``).  The recorded digests live in ``digests/<workload>.json``
and are written by ``python3 bench/worker.py record --workload <name>``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DIGEST_DIR = Path(__file__).resolve().parent / "digests"


@dataclass(frozen=True)
class Workload:
    name: str
    n_agents: int
    map_size: float
    rules: tuple[str, ...]
    execution: str      # "scripted" or "teleport"; ignored by online episodes
    k: int | None       # online subset size, None for centralized rules
    root: int           # root seed of the scenario family
    pool: int           # scenarios in the family
    traced: int         # episodes in the traced run, about 8 s of untraced episodes
    why: str

    def episodes(self, seed: int) -> list[tuple[int, str]]:
        """Every (scenario index, rule) of the family, in the order ``seed`` gives."""
        order = [(i, rule) for i in range(self.pool) for rule in self.rules]
        random.Random(seed).shuffle(order)
        return order

    def run_episode(self, ft, index: int, rule: str):
        """One episode through the public calls ``engine.batch_run`` makes.

        ``ft`` is the imported ``fairtask`` package.
        """
        seed = ft.engine.episode_seed(self.root, index)
        sc = ft.world.generate_scenario(n_agents=self.n_agents, map_size=self.map_size, seed=seed)
        if rule == "online":
            rng = np.random.default_rng([seed, 1])
            result = ft.online.run_online_episode(sc, self.k, rng)
        else:
            result = ft.engine.run_centralized_episode(sc, rule, execution=self.execution)
            result.k = None
        result.episode = index
        result.seed = seed
        return result


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="compare-n7", n_agents=7, map_size=2.7, rules=("eg", "hungarian", "minmax"),
            execution="scripted", k=None, root=20251117, pool=120, traced=180,
            why="The paper's headline fairtask compare run; time goes to A*, waypoints and "
                "kinematics, so it bypasses the online subset search.",
        ),
        Workload(
            name="online-n12-k6", n_agents=12, map_size=3.5, rules=("online",),
            execution="scripted", k=6, root=20251118, pool=64, traced=20,
            why="Online explore-and-assign; the first trigger runs C(12,6)=924 EG solves, and "
                "lattice sampling and sweeping run only here.",
        ),
        Workload(
            name="teleport-n40", n_agents=40, map_size=6.0, rules=("eg",),
            execution="teleport", k=None, root=20251119, pool=76, traced=24,
            why="Large teleport EG episodes with no kinematics; time goes to the generator, the "
                "nav grid and Dijkstra distance fields.",
        ),
    )
}


def digest(ft, result) -> str:
    """SHA-256 prefix of the episode's formatted result rows."""
    rows = ft.cli.format_result_rows([result])
    return hashlib.sha256(rows.encode()).hexdigest()[:16]


def episode_key(index: int, rule: str) -> str:
    return f"{index}/{rule}"


def load_digests(workload: Workload) -> dict[str, str]:
    """Recorded digests of the workload's family; raises if the record is missing or stale."""
    doc = json.loads((DIGEST_DIR / f"{workload.name}.json").read_text())
    if doc["root"] != workload.root or doc["pool"] != workload.pool:
        raise ValueError(f"digests for {workload.name} were recorded for another family")
    return doc["digests"]


def save_digests(workload: Workload, digests: dict[str, str]) -> Path:
    DIGEST_DIR.mkdir(exist_ok=True)
    path = DIGEST_DIR / f"{workload.name}.json"
    doc = {"root": workload.root, "pool": workload.pool, "digests": digests}
    path.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    return path
