"""One-to-one assignment solvers: equilibrium (EG), utilitarian and bottleneck.

Conventions: matrices are task-major with shape (m, n) = (tasks, agents);
assignments map agents to tasks.  solve_hungarian_max and solve_eg accept
m <= n (every task served, n - m agents left idle); solve_minmax is square.
Utilities are plain arrays from compute_utility, u = alpha**d * rate: the
one place the program discounts a rate by distance.
The weighted-log objective sum_j w_j * log(u[j, pi(j)]) is concave in
utilities but reduces to a linear assignment over the score matrix
s[j, i] = w_j * log(u[j, i] + eps) under one-to-one constraints, because
each task's inner sum selects exactly one utility.  That reduction is what
solve_eg exploits.
Every linear assignment, min-max's threshold tests and tie-break included,
runs _assign_rows: the shortest augmenting path algorithm of D. F. Crouse,
"On implementing 2D rectangular assignment algorithms", IEEE TAES 52(4),
2016, in the form scipy's linear_sum_assignment runs it, so ties resolve
the same way whatever scipy is installed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EPSILON = 1e-12  # log-score smoothing; far below any meaningful utility

RULE_EG = "eg"
RULE_HUNGARIAN = "hungarian"
RULE_MINMAX = "minmax"


@dataclass(eq=False)
class Assignment:
    task_of_agent: np.ndarray  # (n,) ints; -1 marks an agent left unassigned
    objective: float

    def pairs(self) -> list[tuple[int, int]]:
        """(agent, task) for every assigned agent, in ascending agent order."""
        return [(i, int(j)) for i, j in enumerate(self.task_of_agent) if j >= 0]


def compute_utility(distances, rates, alpha: float) -> np.ndarray:
    """u = alpha**d * rate entrywise, for any shape; a non-finite distance maps to 0.

    The one place alpha is raised to a distance: U*, every online solve and
    every realized utility come from here, so equal (d, rate) pairs give equal
    bits whether they sit in an (m, n) matrix or a gathered vector.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    distances = np.asarray(distances, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if distances.shape != rates.shape:
        raise ValueError("distances and rates must share a shape")
    if np.any(rates < 0) or np.any(distances < 0):
        raise ValueError("distances and rates must be non-negative")
    finite = np.isfinite(distances)
    u = np.zeros(rates.shape)
    u[finite] = np.power(alpha, distances[finite]) * rates[finite]
    return u


def eg_score_matrix(u: np.ndarray, weights) -> np.ndarray:
    """Linear scores s[j, i] = w_j * log(u[j, i] + eps) for the reduction."""
    weights = np.asarray(weights, dtype=float)
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")
    if weights.shape[0] != u.shape[0]:
        raise ValueError("one weight per task required")
    return weights[:, None] * np.log(u + EPSILON)


def solve_hungarian_max(scores) -> Assignment:
    """Exact max-total-score assignment of every task to a distinct agent.

    Takes m tasks by n agents with m <= n; the n - m agents left over get -1.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[0] > scores.shape[1]:
        raise ValueError(f"assignment needs no more tasks than agents, got {scores.shape}")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    rows = np.arange(scores.shape[0])
    cols = _assign_rows(-scores)
    task_of_agent = np.full(scores.shape[1], -1, dtype=int)
    task_of_agent[cols] = rows
    return Assignment(task_of_agent=task_of_agent, objective=float(scores[rows, cols].sum()))


def solve_eg(u: np.ndarray, weights) -> Assignment:
    """Maximize sum_j w_j log(u[j, pi(j)]) via the linear score reduction.

    Accepts m tasks by n agents with m <= n.  The reported objective is the
    exact weighted-log value of the chosen assignment (no epsilon); it is
    -inf when some selected utility is zero.
    """
    weights = np.asarray(weights, dtype=float)
    asn = solve_hungarian_max(eg_score_matrix(u, weights))
    asn.objective = weighted_log_value(task_utilities(asn, u), weights)
    return asn


def weighted_log_value(utilities_by_task, weights) -> float:
    """sum_j w_j log(u_j), accumulated in task order; -inf on any zero."""
    utilities_by_task = np.asarray(utilities_by_task, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if np.any(utilities_by_task <= 0.0):
        return -math.inf
    return float(np.sum(weights * np.log(utilities_by_task)))


def solve_minmax(costs) -> Assignment:
    """Bottleneck assignment: minimize the largest selected cost.

    Binary search over the sorted distinct cost values; a threshold is
    feasible when the linear assignment on the 0/1 "over it" matrix picks
    no 1.  Among bottleneck-optimal permutations, ties resolve toward minimum
    total cost (the same assignment, restricted to feasible edges).
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 2 or costs.shape[0] != costs.shape[1]:
        raise ValueError(f"one-to-one assignment needs a square matrix, got {costs.shape}")
    if np.any(costs < 0) or not np.all(np.isfinite(costs)):
        raise ValueError("costs must be finite and non-negative")
    n = costs.shape[0]
    rows = np.arange(n)
    values = np.unique(costs)
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        over = (costs > values[mid]).astype(float)
        if not over[rows, _assign_rows(over)].any():
            hi = mid
        else:
            lo = mid + 1
    bottleneck = float(values[lo])

    big = n * (float(costs.max()) + 1.0) + 1.0
    restricted = np.where(costs <= bottleneck, costs, big)
    cols = _assign_rows(restricted)
    task_of_agent = np.empty(n, dtype=int)
    task_of_agent[cols] = rows
    return Assignment(task_of_agent=task_of_agent, objective=float(costs[rows, cols].max()))


def _assign_rows(cost: np.ndarray) -> list[int]:
    """Minimum-cost distinct column for each row of a finite (m, n) matrix, m <= n.

    Crouse's shortest augmenting path, one row at a time, with scipy's
    operation order and tie rule: the unsettled columns start as n-1 .. 0 and
    a settled one is replaced by the last; among equal reduced costs the scan
    moves to a column no row holds yet, so it takes the last free column at
    the minimum, else the first column at it.
    """
    c = cost.tolist()
    m, n = cost.shape
    u = [0.0] * m
    v = [0.0] * n
    col4row = [-1] * m
    row4col = [-1] * n
    path = [-1] * n
    for cur in range(m):
        spc = [math.inf] * n  # shortest path cost to each column
        remaining = list(range(n - 1, -1, -1))
        rows_seen, cols_seen = [], []
        i, min_val, sink = cur, 0.0, -1
        while sink == -1:
            rows_seen.append(i)
            ci, ui = c[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]  # left to right, as scipy sums it
                s = spc[j]
                if r < s:
                    path[j] = i
                    spc[j] = s = r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    index, lowest = it, s
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for k in rows_seen[1:]:  # rows_seen[0] is cur
            u[k] += min_val - spc[col4row[k]]
        for j in cols_seen:
            v[j] -= min_val - spc[j]
        j = sink
        while True:  # flip the path's edges back to the current row
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def task_utilities(assignment: Assignment, u: np.ndarray) -> np.ndarray:
    """Realized utility per task under a one-to-one allocation."""
    out = np.zeros(u.shape[0])
    for agent, task in assignment.pairs():
        out[task] = u[task, agent]
    return out
