"""Command-line front end: scenario ingestion, experiments, CSV output.

Commands:
    run       one algorithm over a seeded episode family -> results.csv
    compare   several algorithms on the identical family -> compare.csv
    sweep-k   online algorithm across subset sizes       -> sweep.csv

Exit codes: 0 success, 1 configuration error, 2 runtime failure.  Output is
deterministic: a re-run with the same root seed is byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fairtask import engine, world
from fairtask.engine import ConfigError  # invalid experiment configuration: exit code 1

SCENARIO_FORMAT_VERSION = 1

RESULT_COLUMNS = (
    "episode", "seed", "algorithm", "k", "T", "D", "F_rho", "jain",
    "U_star", "U_pi", "regret", "collisions", "incomplete",
)


@dataclass
class ExperimentConfig:
    batch: engine.Batch
    out_dir: Path
    dump_json: bool


# ---------------------------------------------------------------------------
# Scenario file format
# ---------------------------------------------------------------------------


def save_scenario(sc: world.Scenario, path: Path | str) -> None:
    doc = {
        "version": SCENARIO_FORMAT_VERSION,
        "workspace_size": sc.workspace_size,
        "dt": sc.dt,
        "alpha": sc.alpha,
        "seed": sc.seed,
        "walls": [[list(a), list(b)] for a, b in sc.walls],
        "obstacles": [{"center": list(c), "radius": r} for c, r in sc.obstacles],
        "agents": [dataclasses.asdict(a) for a in sc.agents],
        "tasks": [dataclasses.asdict(t) for t in sc.tasks],
    }
    Path(path).write_text(_json_text(doc))


def _integer(doc: dict, key: str, owner: str = "") -> int:
    """doc[key] if it is a JSON integer; a float, bool or string is rejected, not truncated."""
    if type(doc[key]) is not int:  # bool is a subclass of int
        raise ValueError(f"{owner}{key} must be an integer, got {doc[key]!r}")
    return doc[key]


def _number(value, what: str) -> float:
    """value as a float if it is a JSON number; a bool or string is rejected, not converted."""
    if type(value) not in (int, float):  # bool is a subclass of int
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _numbers(values, what: str) -> tuple[float, ...]:
    return tuple(_number(v, f"{what} entry") for v in values)


def load_scenario(path: Path | str, alpha_override: float | None = None) -> world.Scenario:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read scenario file {path}: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError(f"scenario file {path}: expected a JSON object, got {type(doc).__name__}")
    if type(doc.get("version")) is not int or doc["version"] != SCENARIO_FORMAT_VERSION:
        raise ConfigError(f"scenario file {path}: unsupported version {doc.get('version')!r}")
    try:
        sc = world.Scenario(
            workspace_size=_number(doc["workspace_size"], "workspace_size"),
            walls=tuple(
                (_numbers(a, f"wall {w}: end"), _numbers(b, f"wall {w}: end"))
                for w, (a, b) in enumerate(doc["walls"])
            ),
            obstacles=tuple(
                (_numbers(o["center"], f"obstacle {k}: center"),
                 _number(o["radius"], f"obstacle {k}: radius"))
                for k, o in enumerate(doc["obstacles"])
            ),
            agents=tuple(
                world.AgentSpec(
                    id=_integer(a, "id", f"agent {i}: "),
                    start_position=_numbers(a["start_position"], f"agent {i}: start_position"),
                    agent_type=_integer(a, "agent_type", f"agent {i}: "),
                    sensing_radius=_number(a["sensing_radius"], f"agent {i}: sensing_radius"),
                    max_speed=_number(a["max_speed"], f"agent {i}: max_speed"),
                    preference_row=_numbers(a["preference_row"], f"agent {i}: preference_row"),
                )
                for i, a in enumerate(doc["agents"])
            ),
            tasks=tuple(
                world.TaskSpec(
                    id=_integer(t, "id", f"task {j}: "),
                    position=_numbers(t["position"], f"task {j}: position"),
                    task_type=_integer(t, "task_type", f"task {j}: "),
                    workload=_number(t["workload"], f"task {j}: workload"),
                    weight=_number(t["weight"], f"task {j}: weight"),
                )
                for j, t in enumerate(doc["tasks"])
            ),
            seed=_integer(doc, "seed"),
            dt=_number(doc["dt"], "dt"),
            alpha=_number(doc["alpha"], "alpha") if alpha_override is None else alpha_override,
        )
    except (KeyError, TypeError, ValueError) as err:  # ValueError covers world.ScenarioError
        raise ConfigError(f"scenario file {path}: {err}") from err
    return sc


def _parse_generate(text: str, alpha: float | None) -> dict:
    """Parse 'N=7,map=2.7,...' generator shorthand into generator kwargs.

    Only the syntax is checked here; world.generate_scenario rejects bad values.
    """
    keymap = {
        "N": ("n_agents", int),
        "map": ("map_size", float),
        "obstacles": ("n_obstacles", int),
        "walls": ("n_walls", int),
        "types": ("n_types", int),
        "sensing": ("sensing_radius", float),
        "speed": ("max_speed", float),
        "dt": ("dt", float),
    }
    out: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"--generate: expected key=value, got {part!r}")
        key, _, value = part.partition("=")
        if key not in keymap:
            raise ConfigError(f"--generate: unknown key {key!r}")
        name, cast = keymap[key]
        if name in out:
            raise ConfigError(f"--generate lists the key {key} twice: {text!r}")
        try:
            out[name] = cast(value)
        except ValueError as err:
            raise ConfigError(f"--generate: bad value for {key}: {value!r}") from err
    if "n_agents" not in out:
        raise ConfigError("--generate requires N=<count>")
    if alpha is not None:
        out["alpha"] = alpha
    return out


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
    v = float(value)
    if math.isnan(v):
        return "nan"
    return "%.6g" % v


def _row(r) -> dict:
    """One episode's value for each of RESULT_COLUMNS."""
    return dict(zip(RESULT_COLUMNS, (r.episode, r.seed, r.rule, r.k)), **engine.episode_stats(r))


def format_result_rows(rows) -> str:
    lines = [",".join(RESULT_COLUMNS)]
    for r in rows:
        row = _row(r)
        lines.append(",".join(_fmt(row[column]) for column in RESULT_COLUMNS))
    return "\n".join(lines) + "\n"


def _strict(value):
    """value with every non-finite float (NaN, +-inf) replaced by None, for strict JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _strict(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _json_text(doc) -> str:
    """The one JSON writer: sorted keys, non-finite floats written as null."""
    return json.dumps(_strict(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _dump_rows_json(rows) -> str:
    return _json_text([
        {
            **_row(r),
            "realized_utilities": r.realized_utilities.tolist(),
            "weights": r.weights.tolist(),
            "per_agent_distance": r.per_agent_distance.tolist(),
            "discovery_times": r.discovery_times.tolist(),
            "assignment_log": r.assignment_log,
        }
        for r in rows
    ])


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_run(config: ExperimentConfig) -> int:
    batch = config.batch
    [result] = engine.batch_run(batch)
    [(algorithm, k)] = batch.runs
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.csv").write_text(format_result_rows(result.rows))
    (out / "summary.json").write_text(_json_text(
        {"algorithm": algorithm, "k": k, "root_seed": batch.root_seed,
         **result.summary}
    ))
    if config.dump_json:
        (out / "results.json").write_text(_dump_rows_json(result.rows))
    print(f"wrote {out / 'results.csv'} ({batch.episodes} episodes)")
    return 0


def _write_table(config: ExperimentConfig, file_name: str, label: str, keys) -> int:
    """One row per run of the batch, named by its `label` ("algorithm" or "k").

    file_name gets the summary mean and std of each key, stdout the means.
    """
    rows = [
        (str(k if label == "k" else algorithm), result.summary)
        for (algorithm, k), result in zip(config.batch.runs, engine.batch_run(config.batch))
    ]
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    stats = [(stat, key) for key in keys for stat in ("mean", "std")]
    lines = [",".join([label] + [f"{key}_{stat}" for stat, key in stats])]
    for name, s in rows:
        lines.append(",".join([name] + [_fmt(s[stat][key]) for stat, key in stats]))
    (out / file_name).write_text("\n".join(lines) + "\n")

    width = len(label) + 3
    print(f"{label:<{width}}" + "".join(f"{key:>10}" for key in keys))
    for name, s in rows:
        print(f"{name:<{width}}" + "".join(f"{_fmt(s['mean'][key]):>10}" for key in keys))
    return 0


def cmd_compare(config: ExperimentConfig) -> int:
    return _write_table(config, "compare.csv", "algorithm", ("T", "D", "F_rho", "jain"))


def cmd_sweep_k(config: ExperimentConfig) -> int:
    return _write_table(config, "sweep.csv", "k", ("regret", "T", "D", "F_rho", "jain"))


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairtask", description="Fair spatial task allocation experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _common(p: argparse.ArgumentParser) -> None:
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--scenario", metavar="FILE", help="scenario JSON file")
        src.add_argument(
            "--generate", metavar="SPEC",
            help="generator spec, e.g. N=7,map=2.7,obstacles=3,walls=2",
        )
        p.add_argument("--episodes", type=int, default=100)
        p.add_argument("--seed", type=int, default=0, help="root seed")
        p.add_argument("--alpha", type=float,
                       help="overrides a scenario file's alpha (generated: 0.97)")
        p.add_argument("--out", default="out", help="output dir")
        p.add_argument("--parallel", type=int, default=1)

    p_run = sub.add_parser("run", help="run one algorithm over an episode family")
    _common(p_run)
    p_run.add_argument("--algorithm", choices=engine.ALGORITHMS, required=True)
    p_run.add_argument("--k", type=int, default=None, help="subset size (online only)")
    p_run.add_argument("--dump-json", action="store_true", help="full-precision dump")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare algorithms on one seed family")
    _common(p_cmp)
    p_cmp.add_argument(
        "--algorithms", required=True,
        help="comma-separated list from: " + ",".join(engine.ALGORITHMS),
    )
    p_cmp.add_argument("--k", type=int, default=None, help="subset size when online listed")
    p_cmp.set_defaults(func=cmd_compare)

    for p in (p_run, p_cmp):  # sweep-k runs online only, which is scripted only
        p.add_argument(
            "--execution", choices=engine.EXECUTION_MODES, default=engine.EXECUTION_SCRIPTED
        )

    p_swp = sub.add_parser("sweep-k", help="sweep the online subset size")
    _common(p_swp)
    p_swp.add_argument("--k-values", required=True, help="comma-separated ints")
    p_swp.set_defaults(func=cmd_sweep_k, execution=engine.EXECUTION_SCRIPTED)

    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The parsed options as a config of one engine.Batch, built before any episode runs.

    A bad option raises ConfigError here, so no file is written.
    """
    out = Path(args.out)
    if out.exists() and not out.is_dir():
        raise ConfigError(f"--out {out} exists and is not a directory")
    existing = next(p for p in (out, *out.parents) if p.exists())  # "." has no parents
    if not existing.is_dir():
        raise ConfigError(f"--out {out} lies below {existing}, which is not a directory")
    if args.scenario is not None:
        source = dict(scenario=load_scenario(args.scenario, alpha_override=args.alpha))
    else:
        source = dict(generator=_parse_generate(args.generate, args.alpha))

    if args.command == "run":  # runs: the batch's (algorithm, k) pairs, in output order
        runs = ((args.algorithm, args.k),)
    elif args.command == "compare":
        algorithms = tuple(a.strip() for a in args.algorithms.split(",") if a.strip())
        if len(algorithms) < 2:
            raise ConfigError("compare needs at least two algorithms")
        if len(set(algorithms)) < len(algorithms):
            raise ConfigError(f"--algorithms lists an algorithm twice: {args.algorithms!r}")
        if "online" not in algorithms and args.k is not None:  # no run would get it
            raise ConfigError("--k is required exactly when online is listed")
        runs = tuple((a, args.k if a == "online" else None) for a in algorithms)
    else:
        try:
            runs = tuple(("online", int(x)) for x in args.k_values.split(","))
        except ValueError as err:
            raise ConfigError(f"bad --k-values: {args.k_values!r}") from err
        if len(set(runs)) < len(runs):
            raise ConfigError(f"--k-values lists a value twice: {args.k_values!r}")

    batch = engine.Batch(
        runs, args.episodes, args.seed, execution=args.execution, parallel=args.parallel, **source
    )
    return ExperimentConfig(batch, out, bool(getattr(args, "dump_json", False)))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        config = _config_from_args(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        return args.func(config)
    except (ConfigError, world.ScenarioError) as err:  # a generator or scenario value
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - map any runtime failure to exit 2
        print(f"runtime failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
