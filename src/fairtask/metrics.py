"""Evaluation quantities: utility ratios, fairness indices, optimum, regret.

rho_j (realized utility over importance weight) is the unit of fairness
accounting; F(rho) is the reciprocal coefficient of variation and Jain's
index is (sum rho)^2 / (m * sum rho^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fairtask import assign, world

# Returned by fairness_cv for exactly-equal ratios so CSV output stays finite.
CV_SENTINEL = 1e9


@dataclass(frozen=True)
class Commitment:
    """One commit of an episode, with what it was solved on: enough to recompute it."""

    time: float
    free_agents: tuple[int, ...]        # agents with no task just before it, ascending
    pending_tasks: tuple[int, ...]      # discovered tasks with no agent, ascending
    agent_positions: np.ndarray         # (N, 2) at the commit
    pairs: tuple[tuple[int, int], ...]  # (agent, task), ascending agent
    objective: float                    # the solver's objective on this subproblem


@dataclass(eq=False)
class EpisodeResult:
    """Executed-trajectory summary produced by the episode runners."""

    realized_utilities: np.ndarray      # (m,)
    weights: np.ndarray                 # (m,)
    completion_time: float
    per_agent_distance: np.ndarray      # (N,)
    collision_count: int
    discovery_times: np.ndarray         # (m,)
    commits: tuple[Commitment, ...]     # in time order
    incomplete: bool
    rule: str
    k: int | None = None
    u_star: float = math.nan
    seed: int = 0
    episode: int = 0

    @property
    def total_distance(self) -> float:
        """Sum of per_agent_distance; setting it moves agent 0's entry by the change."""
        return float(self.per_agent_distance.sum())

    @total_distance.setter
    def total_distance(self, value: float) -> None:
        self.per_agent_distance[0] += value - self.total_distance

    @property
    def assignment_log(self) -> tuple[tuple[float, int, int], ...]:
        """(time, agent, task) of every committed pair, in commit order."""
        return tuple((c.time, a, t) for c in self.commits for a, t in c.pairs)

    @property
    def u_pi(self) -> float:
        """Realized weighted-log value (-inf on an unserved task); nan when incomplete."""
        if self.incomplete:
            return math.nan
        return assign.weighted_log_value(self.realized_utilities, self.weights)

    @property
    def regret_gap(self) -> float:
        return self.u_star - self.u_pi


def rho(result: EpisodeResult) -> np.ndarray:
    """Normalized utility-to-weight ratio per task."""
    if np.any(result.weights <= 0):
        raise ValueError("weights must be positive")
    return result.realized_utilities / result.weights


def fairness_cv(values) -> float:
    """Reciprocal coefficient of variation (population sigma); higher is fairer.

    Exactly equal inputs have sigma 0; the finite CV_SENTINEL is returned in
    place of infinity so downstream tabulation stays finite.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ValueError("fairness_cv needs at least two ratios")
    sigma = float(values.std())
    if sigma == 0.0:
        return CV_SENTINEL
    return float(values.mean()) / sigma


def jain(values) -> float:
    """Jain's fairness index, in [1/m, 1]; 1 at perfect equality."""
    values = np.asarray(values, dtype=float)
    if values.size < 1:
        raise ValueError("jain needs at least one ratio")
    sq = float(np.sum(values * values))
    if sq == 0.0:
        raise ValueError("jain undefined for all-zero ratios")
    total = float(np.sum(values))
    return total * total / (values.size * sq)


def centralized_optimum(sc: world.Scenario) -> tuple[assign.Assignment, np.ndarray]:
    """Full-information optimum of the weighted-log objective; U* is its `objective`.

    Utilities come from `sc.start_distances`, the matrix the generator checked,
    with the scenario's alpha.  Returns the EG solution and the (m, N) utility
    array it was solved on.
    """
    u = assign.compute_utility(sc.start_distances, sc.arrays.preferences, sc.alpha)
    return assign.solve_eg(u, sc.arrays.weights), u
