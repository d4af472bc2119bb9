"""Tests of the benchmark harness itself.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calib  # noqa: E402
import fairtask as ft  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

COMPARE = workloads.WORKLOADS["compare-n7"]


def test_episode_order_is_a_function_of_the_seed():
    for w in workloads.WORKLOADS.values():
        assert w.episodes(7) == w.episodes(7)
        assert w.episodes(7) != w.episodes(8)
        assert sorted(w.episodes(7)) == sorted(w.episodes(8))
        assert len(w.episodes(7)) == w.pool * len(w.rules)


def test_generated_scenarios_repeat_for_a_seed():
    index, _ = COMPARE.episodes(3)[0]
    seed = ft.engine.episode_seed(COMPARE.root, index)
    a = ft.world.generate_scenario(n_agents=7, map_size=2.7, seed=seed)
    b = ft.world.generate_scenario(n_agents=7, map_size=2.7, seed=seed)
    assert np.array_equal(a.agent_positions(), b.agent_positions())
    assert np.array_equal(a.task_positions(), b.task_positions())
    assert np.array_equal(a.wall_segments(), b.wall_segments())


def test_recorded_digest_matches_and_a_perturbed_row_does_not():
    recorded = workloads.load_digests(COMPARE)
    index, rule = COMPARE.episodes(0)[0]
    result = COMPARE.run_episode(ft, index, rule)
    key = workloads.episode_key(index, rule)
    assert workloads.digest(ft, result) == recorded[key]
    result.total_distance += 1e-3
    assert workloads.digest(ft, result) != recorded[key]


def test_tracer_restores_every_attribute_and_changes_no_output():
    originals = [(owner, attr, owner.__dict__[attr]) for _, owner, attr in tracer.targets(ft, calib)]
    index, rule = COMPARE.episodes(0)[0]
    expected = workloads.digest(ft, COMPARE.run_episode(ft, index, rule))
    with tracer.Tracer(ft, calib) as t:
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
        traced = workloads.digest(ft, COMPARE.run_episode(ft, index, rule))
        calib.Kernel().time()
    assert traced == expected
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
    counts = t.counts()
    assert counts["world.generate_scenario.calls"] == 1
    assert counts["engine.run_centralized_episode.calls"] == 1
    assert counts["calib.kernel.calls"] == 2  # one in Kernel(), one timed
    assert 0.0 <= counts["pathfind.field_hit_ratio"] < 1.0
    assert counts["world.grid_builds_per_scenario"] >= 1.0
    for name, (_, busy, self_s) in t.stats.items():
        assert 0.0 <= self_s <= busy + 1e-9, name


def test_tracer_restores_attributes_when_an_episode_raises():
    originals = [(owner, attr, owner.__dict__[attr]) for _, owner, attr in tracer.targets(ft, calib)]
    with pytest.raises(ValueError):
        with tracer.Tracer(ft, calib):
            ft.engine.run_centralized_episode(
                ft.world.generate_scenario(3, seed=1), "no-such-rule"
            )
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_benchmark_json_names_every_metric_the_harness_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    t = tracer.Tracer(ft, calib)
    t.close()
    layer_names = set(t.counts()) | set(t.times()) | {
        "calib.ref_s", "wall.episode_s.p50", "wall.episodes_per_s", "trace.episodes_per_kref_delta",
    }
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "episodes_per_kref", "episode_ref.p50", "episode_ref.p90", "peak_rss_mb",
    }


def test_summary_statistics_weigh_each_distinct_episode_once():
    sample = {
        "keys": ["a", "b", "c", "d", "a", "a"],
        "walls": [0.2, 0.4, 0.6, 0.8, 0.2, 0.5],
        "refs": [0.1, 0.1, 0.2, 0.2, 0.1, 0.1],
    }
    s = run.summarize(sample)
    assert (s["samples"], s["n"]) == (6, 4)
    # costs: a -> median(2, 2, 5) = 2, b -> 4, c -> 3, d -> 4
    assert s["episode_ref.p50"] == pytest.approx(3.5)
    assert s["episodes_per_kref"] == pytest.approx(1000.0 * 4 / 13.0)
    assert s["wall.episodes_per_s"] == pytest.approx(2.0)
    assert run._quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.9) == pytest.approx(4.6)


def test_setup_time_is_the_median_start_over_the_reference_starts_around_it(monkeypatch):
    starts, refs = iter([1.0, 2.0, 1.5]), iter([0.5, 1.5, 0.5, 1.0])
    monkeypatch.setattr(run, "_probe", lambda args: next(starts))
    monkeypatch.setattr(run, "_ref_start", lambda: next(refs))
    setup_s, pairs = run.setup_seconds(None)
    assert pairs == [(1.0, 1.0), (2.0, 1.0), (1.5, 0.75)]
    assert setup_s == pytest.approx(2.0 * run.REF_START_S)
