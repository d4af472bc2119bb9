"""The benchmark's timed process: one fresh interpreter running one workload.

Started by ``run.py``, never imported by it.  Modes:

``probe``   set up (imports, the first scenario, one warm-up episode), print
            ``READY`` and exit; ``run.py`` times this from outside.
``timed``   set up, print ``READY``, then run episodes for ``--seconds`` with
            the calibration kernel timed between them, and print the raw
            samples as one JSON line.
``trace``   set up, print ``READY``, then run a fixed list of episodes once
            untraced and twice traced, and print samples and layer counters
            as one JSON line.
``record``  run the workload's whole family and write its digests.

Every episode's result rows are checked against the recorded digest; a
mismatch or an exception counts the episode as failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import calib
import workloads
from tracer import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_fairtask():
    if not (SRC / "fairtask" / "__init__.py").is_file():
        sys.exit(f"worker: no fairtask sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fairtask

    return fairtask


class Runner:
    """A workload's episode order, recorded digests and calibration kernel in one process."""

    def __init__(self, workload: workloads.Workload, seed: int) -> None:
        self.ft = _import_fairtask()
        self.workload = workload
        self.order = workload.episodes(seed)
        index, rule = self.order[0]
        workload.run_episode(self.ft, index, rule)  # warm-up; the timed run repeats and checks it

    def prepare(self) -> None:
        """Build the kernel and load the digests; called after READY, so set-up time excludes them."""
        self.kernel = calib.Kernel()
        self.digests = workloads.load_digests(self.workload)

    def run(self, episodes, deadline: float | None) -> dict:
        """Run ``episodes`` in order (cycling if a deadline is set) and collect samples."""
        keys, walls, refs, mismatches = [], [], [], []
        attempted = failed = incomplete = 0
        pos = 0
        # Host speed changes within a second, so an episode is normalised by
        # the mean of the kernel runs that bracket it.
        ref_before = self.kernel.time()
        while pos < len(episodes) if deadline is None else time.perf_counter() < deadline:
            index, rule = episodes[pos % len(episodes)]
            pos += 1
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = self.workload.run_episode(self.ft, index, rule)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failed += 1
                ref_before = self.kernel.time()
                continue
            wall = time.perf_counter() - t0
            ref_after = self.kernel.time()
            ref = 0.5 * (ref_before + ref_after)
            ref_before = ref_after
            key = workloads.episode_key(index, rule)
            if workloads.digest(self.ft, result) != self.digests.get(key):
                failed += 1
                mismatches.append(key)
                continue
            keys.append(key)
            walls.append(wall)
            refs.append(ref)
            incomplete += bool(result.incomplete)
        return {
            "keys": keys, "walls": walls, "refs": refs, "attempted": attempted,
            "failed": failed, "incomplete": incomplete, "mismatches": mismatches[:20],
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("probe", "timed", "trace", "record"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    if args.mode == "record":
        ft = _import_fairtask()
        digests = {}
        for index in range(workload.pool):
            for rule in workload.rules:
                result = workload.run_episode(ft, index, rule)
                digests[workloads.episode_key(index, rule)] = workloads.digest(ft, result)
        print(f"wrote {workloads.save_digests(workload, digests)}")
        return 0

    runner = Runner(workload, args.seed)
    print("READY", flush=True)
    if args.mode == "probe":
        return 0
    runner.prepare()

    if args.mode == "timed":
        out = runner.run(runner.order, deadline=time.perf_counter() + args.seconds)
    else:
        episodes = runner.order[: workload.traced]
        out = {"untraced": runner.run(episodes, deadline=None), "traced": []}
        for _ in range(2):
            with Tracer(runner.ft, calib) as tracer:
                sample = runner.run(episodes, deadline=None)
            sample["counts"] = tracer.counts()
            sample["times"] = tracer.times()
            out["traced"].append(sample)
    out["family"] = len(runner.order)
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
