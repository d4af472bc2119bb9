"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints one PASS line; failures surface through the assertions.
The N=7 episode family (map 2.7, alpha 0.97, root seed 42) is shared by the
desk-scale trend criteria: the scripted rules' batches by criteria 05, 07 and
11, and the online batches at every k by criteria 06 and 11.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest
from scipy import stats as sp_stats

from fairtask import assign, cli, engine, metrics, online, pathfind, world

ROOT_SEED = 42
N7_FAMILY = dict(n_agents=7, map_size=2.7, alpha=0.97)
EPISODES = 100
ONLINE_KS = tuple(range(2, 8))

_PERM_CACHE: dict[int, np.ndarray] = {}


def perm_matrix(n: int) -> np.ndarray:
    if n not in _PERM_CACHE:
        _PERM_CACHE[n] = np.array(list(itertools.permutations(range(n))), dtype=int)
    return _PERM_CACHE[n]


def random_instance(rng, n):
    d = rng.uniform(0.0, 3.0, size=(n, n))
    p = rng.uniform(0.2, 1.0, size=(n, n))
    u = assign.compute_utility(d, p, 0.97)
    w = rng.uniform(0.5, 2.0, size=n)
    return u, w


def exhaustive_eg_value(u, w):
    perms = perm_matrix(u.shape[0])
    logs = np.log(u)
    cols = np.arange(u.shape[0])
    return float((w[perms] * logs[perms, cols]).sum(axis=1).max())


def scripted_batches(family, parallel=1):
    return {
        algo: engine.batch_run(engine.Batch(
            algo, episodes=EPISODES, root_seed=ROOT_SEED, generator=dict(family),
            parallel=parallel,
        ))
        for algo in ("eg", "hungarian", "minmax")
    }


@pytest.fixture(scope="module")
def n7_batches():
    # Serial: criterion 05 bounds this fixture's wall time.
    start = time.perf_counter()
    out = scripted_batches(N7_FAMILY)
    out["elapsed"] = time.perf_counter() - start
    return out


@pytest.fixture(scope="module")
def online_batches():
    return {
        k: engine.batch_run(engine.Batch(
            "online", k, episodes=EPISODES, root_seed=ROOT_SEED, generator=dict(N7_FAMILY),
            parallel=2,
        ))
        for k in ONLINE_KS
    }


def per_episode_fairness(batch):
    f_vals, j_vals = [], []
    for row in batch.rows:
        ratios = metrics.rho(row)
        f_vals.append(metrics.fairness_cv(ratios))
        j_vals.append(metrics.jain(ratios))
    return np.array(f_vals), np.array(j_vals)


def bootstrap_fraction_positive(diffs, draws=2000, seed=7):
    rng = np.random.default_rng(seed)
    n = len(diffs)
    samples = rng.integers(0, n, size=(draws, n))
    means = diffs[samples].mean(axis=1)
    return float((means > 0).mean())


def assert_eg_fairest(fairness):
    """EG beats Hungarian and min-max on mean F and J at the 95% bootstrap level."""
    for rival in ("hungarian", "minmax"):
        for metric_idx, name in ((0, "F"), (1, "J")):
            mine = fairness["eg"][metric_idx]
            other = fairness[rival][metric_idx]
            assert mine.mean() > other.mean(), (rival, name)
            frac = bootstrap_fraction_positive(mine - other)
            assert frac >= 0.95, (rival, name, frac)


# ---------------------------------------------------------------------------


def test_criterion_01_eg_solver_exactness():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for idx in range(1000):
        n = 2 + idx % 5
        u, w = random_instance(rng, n)
        res = assign.solve_eg(u, w)
        assert abs(res.objective - exhaustive_eg_value(u, w)) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: weighted-log solver matched 1000 exhaustive "
          f"optima within 1e-9 in {elapsed:.2f}s")


def test_criterion_02_pareto_efficiency():
    rng = np.random.default_rng(1001)  # same instance stream as criterion 1
    violations = 0
    for idx in range(1000):
        n = 2 + idx % 5
        u, w = random_instance(rng, n)
        res = assign.solve_eg(u, w)
        mine = assign.task_utilities(res, u)
        perms = perm_matrix(n)  # reread as agent_of_task so rows are per-task
        tasks = np.arange(n)[None, :]
        all_utils = u[tasks, perms]  # [p, j] = utility of task j
        dominates = np.all(all_utils >= mine, axis=1) & np.any(all_utils > mine, axis=1)
        violations += int(dominates.sum())
    assert violations == 0
    print("\nACCEPTANCE 2 PASS: zero Pareto dominations over the equilibrium "
          "allocation in 1000 exhaustive sweeps")


def test_criterion_03_hungarian_and_minmax_exactness():
    rng = np.random.default_rng(1003)
    cols_cache = {}
    for idx in range(1000):
        n = 2 + idx % 5
        scores = rng.normal(size=(n, n))
        perms = perm_matrix(n)
        cols = cols_cache.setdefault(n, np.arange(n))
        best = float(scores[perms, cols].sum(axis=1).max())
        assert abs(assign.solve_hungarian_max(scores).objective - best) <= 1e-9
    for idx in range(1000):
        n = 2 + idx % 5
        costs = rng.uniform(0.0, 5.0, size=(n, n))
        perms = perm_matrix(n)
        cols = cols_cache[n]
        best = float(costs[perms, cols].max(axis=1).min())
        res = assign.solve_minmax(costs)
        assert res.objective == best
    print("\nACCEPTANCE 3 PASS: utilitarian sums within 1e-9 and bottleneck "
          "values exactly equal to brute force, 1000 instances each")


def test_criterion_04_weight_scaling_invariance():
    rng = np.random.default_rng(1004)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        u, w = random_instance(rng, n)
        base = assign.solve_eg(u, w).task_of_agent
        for lam in (0.1, 1.0, 10.0):
            scaled = assign.solve_eg(u, lam * w).task_of_agent
            assert np.array_equal(base, scaled)
    print("\nACCEPTANCE 4 PASS: weight rescaling by {0.1, 1, 10} never moved "
          "the optimal permutation on 200 instances")


def test_criterion_05_fairness_ordering_desk_scale(n7_batches):
    start = time.perf_counter()
    fairness = {
        a: per_episode_fairness(b) for a, b in n7_batches.items() if a != "elapsed"
    }
    assert_eg_fairest(fairness)
    elapsed = n7_batches["elapsed"] + (time.perf_counter() - start)
    assert elapsed < 300.0
    means = {
        a: (round(float(f.mean()), 3), round(float(j.mean()), 3))
        for a, (f, j) in fairness.items()
    }
    print(f"\nACCEPTANCE 5 PASS: fairness ordering holds at the 95% bootstrap "
          f"level in {elapsed:.1f}s; per-rule mean F/J: {means}")


def test_criterion_06_monotone_k_trend_and_k_equals_n(online_batches):
    mean_t = []
    for k in ONLINE_KS:
        batch = online_batches[k]
        assert batch.summary["incomplete"] == 0
        mean_t.append(batch.summary["mean"]["T"])
    rho, _ = sp_stats.spearmanr(ONLINE_KS, mean_t)
    assert rho <= -0.8

    # k = N: the single commit must equal the full-information weighted-log
    # solve on the recorded discovered state, episode by episode.  The batch's
    # rows hold each episode's commits; the scenario, its grid and the
    # provider are built afresh.
    rows = online_batches[7].rows
    assert [res.episode for res in rows] == list(range(EPISODES))
    for i, res in enumerate(rows):
        seed = engine.episode_seed(ROOT_SEED, i)
        assert res.seed == seed
        sc = world.generate_scenario(seed=seed, **N7_FAMILY)
        assert len(res.commits) == 1
        commit = res.commits[0]
        provider = pathfind.DistanceProvider(pathfind.build_nav_grid(sc))
        d = provider.pairwise(sc.arrays.task_positions, commit.agent_positions)
        u = assign.compute_utility(d, sc.arrays.preferences, sc.alpha)
        solution = assign.solve_eg(u, sc.arrays.weights)
        assert sorted(commit.pairs) == sorted(solution.pairs())
    print(f"\nACCEPTANCE 6 PASS: mean completion time non-increasing in k "
          f"(Spearman {rho:.3f}); k=7 commits identical to the centralized "
          f"solve in all {EPISODES} episodes; mean T by k: "
          f"{[round(t, 2) for t in mean_t]}")


def test_criterion_07_regret_self_consistency(n7_batches):
    gaps = [r.regret_gap for r in n7_batches["eg"].rows if not r.incomplete]
    assert len(gaps) == EPISODES
    mean_regret = float(np.mean(gaps))
    assert mean_regret <= 0.05

    for i in range(EPISODES):
        seed = engine.episode_seed(ROOT_SEED, i)
        sc = world.generate_scenario(seed=seed, **N7_FAMILY)
        res = engine.run_centralized_episode(sc, "eg", execution="teleport")
        assert res.regret_gap == 0.0
    print(f"\nACCEPTANCE 7 PASS: scripted mean regret {mean_regret:+.4f} <= 0.05 "
          f"(controller + octile slack); teleport regret exactly zero in "
          f"{EPISODES}/{EPISODES} episodes")


def test_criterion_08_softmax_sampling_law():
    rng = np.random.default_rng(1008)
    configs = [
        ((0.0, 0.0), [(0.3, 0.0), (0.0, 0.7), (-1.1, 0.0)]),
        ((1.0, 1.0), [(1.0, 1.2), (1.9, 1.0), (1.0, 0.4)]),
    ]
    for agent_pos, points in configs:
        dists = np.array([math.dist(agent_pos, p) for p in points])
        expected = np.exp(-dists) / np.exp(-dists).sum()
        counts = np.zeros(len(points))
        for _ in range(10_000):
            emap = online.ExplorationMap(
                points=np.array(points, dtype=float),
                explored=np.zeros(len(points), dtype=bool),
            )
            target = online.sample_target(emap, agent_pos, rng)
            counts[int(np.argmin(np.hypot(*(np.array(points) - target).T)))] += 1
        freq = counts / counts.sum()
        assert np.all(np.abs(freq - expected) <= 0.02), (freq, expected)
    print("\nACCEPTANCE 8 PASS: empirical selection frequencies within +/-0.02 "
          "of the distance softmax on 3-point configurations (10k draws)")


def test_criterion_09_workload_tick_counts():
    rng = np.random.default_rng(1009)
    from conftest import make_scenario

    for _ in range(100):
        workload = float(rng.uniform(0.1, 3.0))
        pref = float(rng.uniform(0.1, 1.0))
        dt = float(rng.uniform(0.02, 0.2))
        sc = make_scenario(
            [(1.0, 1.0)], [(1.0, 1.02)],
            preference_rows=[(pref,)], workloads=[workload], dt=dt,
        )
        state = world.discover(world.initial_state(sc), [0])
        ticks = 0
        while state.remaining_workloads[0] > 0.0:
            state = world.service_tick(state, sc, 0, 0)
            ticks += 1
        assert ticks == math.ceil(workload / (pref * dt))
    print("\nACCEPTANCE 9 PASS: completion tick counts equal "
          "ceil(workload / (rate * dt)) for 100 random triples, exactly")


def test_criterion_10_byte_identical_reruns(tmp_path):
    cases = [
        ("run", ["run", "--generate", "N=3,map=2.5", "--algorithm", "eg",
                 "--episodes", "2", "--seed", "77"], "results.csv"),
        ("online", ["run", "--generate", "N=3,map=2.5", "--algorithm", "online",
                    "--k", "2", "--episodes", "2", "--seed", "78"], "results.csv"),
        ("compare", ["compare", "--generate", "N=3,map=2.5",
                     "--algorithms", "eg,minmax", "--episodes", "2",
                     "--seed", "79"], "compare.csv"),
    ]
    for label, args, filename in cases:
        out_a = tmp_path / f"{label}_a"
        out_b = tmp_path / f"{label}_b"
        assert cli.main(args + ["--out", str(out_a)]) == 0
        assert cli.main(args + ["--out", str(out_b)]) == 0
        assert (out_a / filename).read_bytes() == (out_b / filename).read_bytes()
    print("\nACCEPTANCE 10 PASS: run/online/compare re-runs are byte-identical "
          "under a fixed root seed")


def test_criterion_11_fairness_across_team_sizes_and_online(n7_batches, online_batches):
    start = time.perf_counter()
    means = {}
    for n_agents in (3, 10):
        family = dict(N7_FAMILY, n_agents=n_agents, map_size=world.DEFAULT_MAP_SIZES[n_agents])
        batches = scripted_batches(family, parallel=2)
        fairness = {a: per_episode_fairness(b) for a, b in batches.items()}
        assert_eg_fairest(fairness)
        means[n_agents] = {a: round(float(j.mean()), 3) for a, (_, j) in fairness.items()}

    # Online J beats min-max's at every k; the other comparisons are reported.
    rules = {a: per_episode_fairness(n7_batches[a]) for a in ("eg", "hungarian", "minmax")}
    reported = {}
    for k in ONLINE_KS:
        f_online, j_online = per_episode_fairness(online_batches[k])
        frac_j = bootstrap_fraction_positive(j_online - rules["minmax"][1])
        assert frac_j >= 0.95, (k, frac_j)
        reported[k] = tuple(
            round(bootstrap_fraction_positive(mine - rules[rival][idx]), 2)
            for mine, rival, idx in (
                (f_online, "minmax", 0), (j_online, "hungarian", 1), (j_online, "eg", 1),
            )
        )
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 11 PASS: EG beats Hungarian and min-max on F and J at "
          f"N=3 and N=10 at the 95% bootstrap level in {elapsed:.1f}s (mean J: "
          f"{means}); online J beats min-max's at k={ONLINE_KS[0]}..{ONLINE_KS[-1]}; "
          f"reported, not tested, the bootstrap fractions by k of online F over "
          f"min-max, J over Hungarian and J over EG: {reported}")
