"""fairtask benchmark: end-to-end metrics, or per-layer metrics with ``--trace 1``.

    python3 bench/run.py --workload compare-n7 --seed 1 --seconds 34 --trace 0

Closed loop, one process, one episode at a time, BLAS/OpenMP threads pinned
to 1.  Episode times are reported in reference units (``ref``): an episode's
cost is its wall time divided by the mean wall time of the calibration
kernel (``calib.py``) run right before and right after it, which cancels
most of the host's speed drift.
Raw seconds are printed beside them.

End-to-end metrics (``--trace 0``):

    setup_s            s       median of 3 fresh interpreter starts, each timed
                               from spawn until the first timed episode is ready
                               (imports, first scenario, one warm-up episode), in
                               seconds of the reference host: wall seconds x
                               REF_START_S / the mean of the reference starts
                               run right before and right after it
    episodes_per_kref  1/kref  episodes per 1000 ref of episode time
    episode_ref.p50    ref     median per-episode cost
    episode_ref.p90    ref     90th percentile of per-episode cost
    peak_rss_mb        MB      peak resident memory of the timed process

A run cycles through its workload's fixed family of episodes (see
``workloads.py``).  An episode run more than once counts with the median of
its costs, so the statistics weigh each distinct episode of the family once.

With ``--trace 1`` a fixed list of episodes runs once untraced and twice
traced; the per-layer metrics are the second traced run's, and every count
must repeat exactly between the two traced runs.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when every
episode ran and matched its recorded digest.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SRC = HERE.parent / "src" / "fairtask"
START_TIMEOUT_S = 60
TRACE_TIMEOUT_S = 120  # the traced run's fixed episode lists take 20-45 s
# Set-up time is reported in seconds of the host the bounds were set on
# (2-core Xeon, Python 3.11, numpy 2.4, scipy 1.17), because host speed
# drifts by up to 40 % over minutes and raw set-up seconds drift with it.
# The reference start imports the libraries fairtask's set-up spends most of
# its time importing, and nothing from fairtask; REF_START_S is its median
# wall time on that host.  Over 20 starts of online-n12-k6, set-up seconds
# divided by it varied less than set-up seconds divided by the calibration
# kernel timed around each start (coefficient of variation 8 % against 12 %).
REF_START = "import numpy, scipy.optimize, scipy.sparse.csgraph"
REF_START_S = 0.85
SETUP_STARTS = 3
PIN_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


# Units of the traced ratios; every other count is a plain count.
COUNT_UNITS = {
    "world.grid_builds_per_scenario": "1/scenario",
    "pathfind.field_hit_ratio": "ratio",
    "online.solves_per_trigger": "1/trigger",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _spawn(mode: str, args) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its READY line; returns it and the seconds that took."""
    env = dict(os.environ, **PIN_ENV)
    cmd = [sys.executable, str(WORKER), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=HERE.parent)
    readable, _, _ = select.select([proc.stdout], [], [], START_TIMEOUT_S)
    line = proc.stdout.readline() if readable else ""
    ready_s = time.perf_counter() - t0
    if line.strip() != "READY":
        if not readable:
            proc.kill()
        _finish(proc, timeout=START_TIMEOUT_S)
        raise BenchError(f"{mode} worker did not start (exit {proc.returncode})")
    return proc, ready_s


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    """Read the rest of a worker's output; kill it if it overruns."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker overran its time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def _worker_result(proc: subprocess.Popen, timeout: float) -> dict:
    lines = _finish(proc, timeout).strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def _probe(args) -> float:
    proc, ready_s = _spawn("probe", args)
    _finish(proc, timeout=START_TIMEOUT_S)
    return ready_s


def _ref_start() -> float:
    """Wall seconds of one fresh interpreter running ``REF_START``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", REF_START], env=dict(os.environ, **PIN_ENV))
    _finish(proc, timeout=START_TIMEOUT_S)
    return time.perf_counter() - t0


def setup_seconds(args) -> tuple[float, list[tuple[float, float]]]:
    """``setup_s`` and its (raw seconds, reference start seconds) per fresh start.

    Each start is divided by the mean of the reference starts right before
    and right after it, which cancels the host's speed at that moment.
    """
    refs = [_ref_start()]
    starts = []
    for _ in range(SETUP_STARTS):
        starts.append(_probe(args))
        refs.append(_ref_start())
    pairs = [(t, 0.5 * (before + after)) for t, before, after in zip(starts, refs, refs[1:])]
    return statistics.median(t / ref for t, ref in pairs) * REF_START_S, pairs


def _quantile(values, q: float) -> float:
    """Linear-interpolated quantile (numpy's default) of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _per_episode(keys, values) -> list[float]:
    """The median of each distinct episode's values."""
    by_key: dict[str, list[float]] = {}
    for key, value in zip(keys, values):
        by_key.setdefault(key, []).append(value)
    return [statistics.median(v) for v in by_key.values()]


def summarize(sample: dict) -> dict:
    """Normalised and raw statistics of one pass of episodes."""
    costs = _per_episode(sample["keys"], [w / r for w, r in zip(sample["walls"], sample["refs"])])
    walls = _per_episode(sample["keys"], sample["walls"])
    p90 = _quantile(costs, 0.9)
    return {
        "samples": len(sample["keys"]),
        "n": len(costs),
        "episodes_per_kref": 1000.0 * len(costs) / sum(costs),
        "episode_ref.p50": statistics.median(costs),
        "episode_ref.p90": p90,
        "above_p90": sum(c > p90 for c in costs),
        "wall.episode_s.p50": statistics.median(walls),
        "wall.episodes_per_s": len(walls) / sum(walls),
        "calib.ref_s": statistics.median(sample["refs"]),
    }


def _check(sample: dict, label: str) -> list[str]:
    """Failures of one pass; raises if no episode passed, as nothing can be measured then."""
    problems = []
    if sample["failed"]:
        problems.append(f"{label}: {sample['failed']} of {sample['attempted']} episodes failed "
                        f"(digest mismatches: {sample['mismatches']})")
    if not sample["keys"]:
        raise BenchError("; ".join(problems) or f"{label}: no episode completed")
    return problems


def end_to_end(args) -> tuple[dict, dict, list[str]]:
    setup_s, starts = setup_seconds(args)
    proc, _ = _spawn("timed", args)
    sample = _worker_result(proc, timeout=args.seconds + START_TIMEOUT_S)
    problems = _check(sample, "timed run")
    s = summarize(sample)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}")
    print(f"  {s['samples']} episodes timed, {s['n']} distinct of a family of {sample['family']}; "
          f"{s['above_p90']} distinct episodes above p90; "
          f"{sample['incomplete']} step-capped")
    print(f"  fresh starts (s / reference start s): {', '.join(f'{t:.4f}/{r:.4f}' for t, r in starts)}")
    print(f"  raw: episode_s.p50 {s['wall.episode_s.p50']:.6f} s, "
          f"episodes_per_s {s['wall.episodes_per_s']:.4f} 1/s, calib.ref_s {s['calib.ref_s']:.6f} s")
    metrics = {
        "setup_s": (setup_s, "s"),
        "episodes_per_kref": (s["episodes_per_kref"], "1/kref"),
        "episode_ref.p50": (s["episode_ref.p50"], "ref"),
        "episode_ref.p90": (s["episode_ref.p90"], "ref"),
        "peak_rss_mb": (sample["peak_rss_kb"] / 1024.0, "MB"),
    }
    return metrics, sample, problems


def per_layer(args) -> tuple[dict, dict, list[str]]:
    proc, _ = _spawn("trace", args)
    out = _worker_result(proc, timeout=TRACE_TIMEOUT_S)
    untraced, (first, second) = out["untraced"], out["traced"]
    problems = []
    passes = (("untraced", untraced), ("traced 1", first), ("traced 2", second))
    for label, sample in passes:
        problems += _check(sample, label)
    total = {key: sum(sample[key] for _, sample in passes) for key in ("attempted", "failed")}
    if first["counts"] != second["counts"]:
        diff = sorted(k for k in first["counts"] if first["counts"][k] != second["counts"][k])
        problems.append(f"traced counts differ between the two traced runs: {diff}")
    u, t = summarize(untraced), summarize(second)
    metrics = {}
    for name, value in second["counts"].items():
        metrics[name] = (value, COUNT_UNITS.get(name, "count"))
    for name, value in second["times"].items():
        metrics[name] = (value, "s")
    metrics["calib.ref_s"] = (u["calib.ref_s"], "s")
    metrics["wall.episode_s.p50"] = (u["wall.episode_s.p50"], "s")
    metrics["wall.episodes_per_s"] = (u["wall.episodes_per_s"], "1/s")
    metrics["trace.episodes_per_kref_delta"] = (t["episodes_per_kref"] - u["episodes_per_kref"], "1/kref")
    print(f"workload {args.workload}  seed {args.seed}  traced episodes {u['n']} (x2)")
    print(f"  episodes_per_kref untraced {u['episodes_per_kref']:.4f}, traced {t['episodes_per_kref']:.4f}")
    layers: dict[str, float] = {}
    for name, value in second["times"].items():
        layer = name.split(".", 1)[0]
        if name.endswith(".self_s") and layer != "calib":
            layers[layer] = layers.get(layer, 0.0) + value
    traced_s = sum(layers.values())
    print("  self-time share of fairtask by layer: " + ", ".join(
        f"{layer} {100.0 * v / traced_s:.1f}%" for layer, v in sorted(layers.items(), key=lambda kv: -kv[1])))
    return metrics, total, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=34)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"bench: no fairtask sources at {SRC}", file=sys.stderr)
        return 2
    try:
        metrics, sample, problems = (per_layer if args.trace else end_to_end)(args)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6f} {unit}")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sample["attempted"],
        "failed": sample["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
