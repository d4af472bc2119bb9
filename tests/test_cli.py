"""CLI commands: config validation, output schema, determinism, exit codes."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fairtask import cli, engine, metrics, world

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args):
    return cli.main(list(args))


# ---------------------------------------------------------------------------
# Scenario file round trip
# ---------------------------------------------------------------------------


def test_scenario_roundtrip(tmp_path):
    sc = world.generate_scenario(3, 2.5, seed=123)
    path = tmp_path / "scenario.json"
    cli.save_scenario(sc, path)
    loaded = cli.load_scenario(path)
    assert loaded == sc


def test_scenario_version_checked(tmp_path):
    sc = world.generate_scenario(3, 2.5, seed=123)
    path = tmp_path / "scenario.json"
    cli.save_scenario(sc, path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(cli.ConfigError):
        cli.load_scenario(path)


def test_scenario_alpha_override(tmp_path):
    sc = world.generate_scenario(3, 2.5, seed=123, alpha=0.97)
    path = tmp_path / "scenario.json"
    cli.save_scenario(sc, path)
    loaded = cli.load_scenario(path, alpha_override=0.9)
    assert loaded.alpha == 0.9


@pytest.mark.parametrize("flag,alpha", [([], 0.9), (["--alpha", "0.97"], 0.97)],
                         ids=["file-alpha", "flag-overrides"])
def test_run_scenario_file_keeps_its_alpha_unless_flagged(tmp_path, flag, alpha):
    sc = world.generate_scenario(3, 2.5, seed=123, alpha=0.9)
    path = tmp_path / "scenario.json"
    cli.save_scenario(sc, path)
    out = tmp_path / "out"
    rc = run_cli([
        "run", "--scenario", str(path), "--algorithm", "eg", "--execution", "teleport",
        "--episodes", "1", "--out", str(out), "--dump-json", *flag,
    ])
    assert rc == 0
    optimum, _ = metrics.centralized_optimum(cli.load_scenario(path, alpha_override=alpha))
    u_star = optimum.objective
    assert json.loads((out / "results.json").read_text())[0]["U_star"] == u_star


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_single_episode_csv_shape(tmp_path):
    out = tmp_path / "out"
    rc = run_cli([
        "run", "--generate", "N=3,map=2.5", "--algorithm", "eg",
        "--episodes", "1", "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == ",".join(cli.RESULT_COLUMNS)
    assert len(lines) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["episodes"] == 1


def test_run_byte_identical_reruns(tmp_path):
    args = [
        "run", "--generate", "N=3,map=2.5", "--algorithm", "hungarian",
        "--episodes", "2", "--seed", "9",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_run_online_requires_k(tmp_path):
    out = tmp_path / "never"
    rc = run_cli([
        "run", "--generate", "N=3,map=2.5", "--algorithm", "online",
        "--episodes", "1", "--out", str(out),
    ])
    assert rc == 1
    assert not out.exists()  # rejected before any file was written


def test_run_k_invalid_for_centralized(tmp_path):
    rc = run_cli([
        "run", "--generate", "N=3,map=2.5", "--algorithm", "eg", "--k", "2",
        "--episodes", "1", "--out", str(tmp_path / "x"),
    ])
    assert rc == 1


def test_run_online_end_to_end(tmp_path):
    out = tmp_path / "on"
    rc = run_cli([
        "run", "--generate", "N=3,map=2.5", "--algorithm", "online", "--k", "2",
        "--episodes", "1", "--seed", "5", "--out", str(out), "--dump-json",
    ])
    assert rc == 0
    rows = json.loads((out / "results.json").read_text())
    assert rows[0]["algorithm"] == "online"
    assert rows[0]["k"] == 2


@pytest.mark.parametrize(
    "golden,extra",
    [
        ("golden_run.csv", ["--algorithm", "eg"]),
        ("golden_run_online_k2.csv", ["--algorithm", "online", "--k", "2"]),
        ("golden_run_eg_teleport.csv", ["--algorithm", "eg", "--execution", "teleport"]),
    ],
    ids=["eg", "online-k2", "eg-teleport"],
)
def test_run_golden_reference(tmp_path, golden, extra):
    out = tmp_path / "golden"
    rc = run_cli([
        "run", "--generate", "N=3,map=2.5", *extra,
        "--episodes", "2", "--seed", "2024", "--out", str(out),
    ])
    assert rc == 0
    assert (out / "results.csv").read_bytes() == (DATA / golden).read_bytes()


def _assert_same_document(got, want, where="$"):
    """Equal JSON documents, floats within a relative 1e-12 (SIMD log/power ulps)."""
    if isinstance(want, float):
        assert isinstance(got, float), where
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), where
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_document(g, w, f"{where}[{i}]")
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_same_document(got[key], want[key], f"{where}.{key}")
    else:
        assert type(got) is type(want) and got == want, where


def test_run_json_golden_reference(tmp_path):
    out = tmp_path / "golden"
    rc = run_cli([
        "run", "--generate", "N=3,map=2.5", "--algorithm", "online", "--k", "2",
        "--episodes", "2", "--seed", "2024", "--dump-json", "--out", str(out),
    ])
    assert rc == 0
    got = json.loads((out / "results.json").read_text())
    _assert_same_document(got, json.loads((DATA / "golden_run_online_k2.json").read_text()))


def test_scenario_file_golden_reference(tmp_path):
    path = tmp_path / "scenario.json"
    cli.save_scenario(world.generate_scenario(3, 2.5, seed=123), path)
    assert path.read_bytes() == (DATA / "golden_scenario_n3_seed123.json").read_bytes()


def _strict_json(path: Path):
    """path's JSON document; NaN and Infinity, which strict JSON lacks, are refused."""
    def refuse(constant):
        raise ValueError(f"{path.name} holds {constant}")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_json_outputs_write_non_finite_values_as_null(tmp_path):
    # One task: the fairness index of a single ratio is NaN.
    out = tmp_path / "n1"
    assert run_cli([
        "run", "--generate", "N=1,map=1.0,obstacles=0,walls=0", "--algorithm", "eg",
        "--episodes", "2", "--dump-json", "--out", str(out),
    ]) == 0
    summary = _strict_json(out / "summary.json")
    assert summary["mean"]["F_rho"] is None and summary["std"]["F_rho"] is None
    assert [row["F_rho"] for row in _strict_json(out / "results.json")] == [None, None]
    csv_row = (out / "results.csv").read_text().splitlines()[1].split(",")
    assert dict(zip(cli.RESULT_COLUMNS, csv_row))["F_rho"] == "nan"  # the CSVs keep nan and inf
    # An agent with a zero preference row: its task's utility is 0 (U* is
    # -inf) and its service never ends (T is inf).
    path = tmp_path / "scenario.json"
    cli.save_scenario(world.generate_scenario(3, 2.5, seed=123), path)
    doc = json.loads(path.read_text())
    doc["agents"][0]["preference_row"] = [0.0, 0.0, 0.0]
    path.write_text(json.dumps(doc))
    out = tmp_path / "zero-row"
    assert run_cli([
        "run", "--scenario", str(path), "--algorithm", "hungarian", "--execution", "teleport",
        "--episodes", "1", "--dump-json", "--out", str(out),
    ]) == 0
    [row] = _strict_json(out / "results.json")
    assert row["T"] is None and row["U_star"] is None
    _strict_json(out / "summary.json")
    csv_row = (out / "results.csv").read_text().splitlines()[1].split(",")
    assert dict(zip(cli.RESULT_COLUMNS, csv_row))["T"] == "inf"
    assert dict(zip(cli.RESULT_COLUMNS, csv_row))["U_star"] == "-inf"


# ---------------------------------------------------------------------------
# compare / sweep-k
# ---------------------------------------------------------------------------


def test_compare_needs_two_algorithms(tmp_path):
    rc = run_cli([
        "compare", "--generate", "N=3,map=2.5", "--algorithms", "eg",
        "--episodes", "1", "--out", str(tmp_path / "c"),
    ])
    assert rc == 1


def test_compare_grid_output(tmp_path, capsys):
    out = tmp_path / "cmp"
    rc = run_cli([
        "compare", "--generate", "N=3,map=2.5",
        "--algorithms", "eg,hungarian,minmax",
        "--episodes", "2", "--seed", "6", "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[1].startswith("eg,")
    assert lines[2].startswith("hungarian,")
    printed = capsys.readouterr().out
    assert "algorithm" in printed and "jain" in printed


def test_compare_rerun_identical(tmp_path):
    args = [
        "compare", "--generate", "N=3,map=2.5", "--algorithms", "eg,minmax",
        "--episodes", "2", "--seed", "8",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert (a / "compare.csv").read_bytes() == (b / "compare.csv").read_bytes()


@pytest.mark.parametrize(
    "command,name",
    [
        (["compare", "--algorithms", "eg,hungarian,minmax,online", "--k", "2",
          "--episodes", "3", "--seed", "6"], "compare"),
        (["sweep-k", "--k-values", "1,2,3", "--episodes", "2", "--seed", "4"], "sweep"),
    ],
    ids=["compare", "sweep-k"],
)
def test_table_golden_reference(tmp_path, capsys, command, name):
    out = tmp_path / "golden"
    rc = run_cli([*command, "--generate", "N=3,map=2.5", "--out", str(out)])
    assert rc == 0
    assert (out / f"{name}.csv").read_bytes() == (DATA / f"golden_{name}.csv").read_bytes()
    assert capsys.readouterr().out == (DATA / f"golden_{name}_table.txt").read_text()


@pytest.mark.parametrize(
    "command,name",
    [
        (["compare", "--algorithms", "eg,hungarian,minmax,online", "--k", "3"], "compare"),
        (["sweep-k", "--k-values", "2,3,5"], "sweep"),
    ],
    ids=["compare", "sweep-k"],
)
def test_n7_table_golden_reference(tmp_path, command, name):
    # Recorded while every (algorithm, k) still generated its own scenarios:
    # sharing one scenario per episode index changes no byte.
    out = tmp_path / "golden"
    rc = run_cli([*command, "--generate", "N=7", "--episodes", "3", "--seed", "5",
                  "--out", str(out)])
    assert rc == 0
    assert (out / f"{name}.csv").read_bytes() == (DATA / f"golden_{name}_n7.csv").read_bytes()


@pytest.mark.parametrize(
    "command",
    [
        ["compare", "--algorithms", "eg,hungarian,minmax,online", "--k", "2"],
        ["sweep-k", "--k-values", "1,2,3"],
    ],
    ids=["compare", "sweep-k"],
)
def test_tables_generate_each_scenario_once(tmp_path, monkeypatch, command):
    seeds = []
    generate = world.generate_scenario

    def counted(*args, **kwargs):
        seeds.append(kwargs["seed"])
        return generate(*args, **kwargs)

    monkeypatch.setattr(world, "generate_scenario", counted)
    rc = run_cli([*command, "--generate", "N=3,map=2.5", "--episodes", "3", "--seed", "4",
                  "--out", str(tmp_path / "out")])
    assert rc == 0
    assert seeds == [engine.episode_seed(4, i) for i in range(3)]


@pytest.mark.parametrize(
    "command,k",
    [
        (["run", "--algorithm", "online", "--k", "4"], 4),
        (["compare", "--algorithms", "eg,online", "--k", "0"], 0),
        (["sweep-k", "--k-values", "2,4"], 4),
    ],
    ids=["run-online", "compare", "sweep-k"],
)
def test_k_outside_1_to_n_is_rejected(tmp_path, capsys, command, k):
    out = tmp_path / "never"
    rc = run_cli([*command, "--generate", "N=3,map=2.5", "--episodes", "1", "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    assert capsys.readouterr().err == f"error: k={k} outside [1, 3]\n"


def test_sweep_degenerate_single_task(tmp_path):
    out = tmp_path / "s1"
    rc = run_cli([
        "sweep-k", "--generate", "N=1,map=2.5", "--k-values", "1",
        "--episodes", "2", "--seed", "10", "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("1,")


@pytest.mark.parametrize(
    "command,message",
    [
        (["compare", "--algorithms", "eg,hungarian,eg"],
         "--algorithms lists an algorithm twice: 'eg,hungarian,eg'"),
        (["sweep-k", "--k-values", "2,2"], "--k-values lists a value twice: '2,2'"),
    ],
    ids=["compare", "sweep-k"],
)
def test_repeated_batches_are_rejected(tmp_path, capsys, command, message):
    out = tmp_path / "never"
    rc = run_cli([*command, "--generate", "N=3,map=2.5", "--episodes", "1", "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command,message",
    [
        (["run", "--generate", "N=3,map=2.5", "--algorithm", "eg", "--parallel", "0"],
         "parallel must be >= 1"),
        (["compare", "--generate", "N=3,map=2.5", "--algorithms", "eg,bogus"],
         "unknown algorithm 'bogus', expected one of eg, hungarian, minmax, online"),
        (["compare", "--generate", "N=3,map=2.5", "--algorithms", "eg,minmax", "--k", "2"],
         "--k is required exactly when online is listed"),
        (["sweep-k", "--generate", "N=3,map=2.5", "--k-values", "1,two"],
         "bad --k-values: '1,two'"),
        (["run", "--scenario", "missing.json", "--algorithm", "eg"],
         "cannot read scenario file missing.json: "),
        (["run", "--generate", "N=3,map=2.5", "--algorithm", "online"],
         "k is required for online and invalid otherwise, got k=None"),
        (["compare", "--generate", "N=3,map=2.5", "--algorithms", "eg,online", "--k", "2",
          "--execution", "teleport"],
         "teleport execution applies to centralized rules only, not online"),
    ],
    ids=["parallel-0", "unknown-algorithm", "k-without-online", "bad-k-values",
         "unreadable-scenario", "online-without-k", "online-teleport"],
)
def test_bad_options_are_config_errors(tmp_path, monkeypatch, capsys, command, message):
    def no_episodes(*args, **kwargs):
        raise AssertionError("an episode ran before every batch was checked")

    monkeypatch.setattr(engine.Batch, "run_one", no_episodes)
    monkeypatch.chdir(tmp_path)  # missing.json is relative to an empty directory
    rc = run_cli([*command, "--episodes", "1", "--out", "never"])
    assert rc == 1
    assert not (tmp_path / "never").exists()
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_repeated_generate_key_is_rejected(tmp_path, capsys):
    out = tmp_path / "never"
    rc = run_cli(["run", "--generate", "N=3,N=7", "--algorithm", "eg", "--episodes", "1",
                  "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    assert capsys.readouterr().err == "error: --generate lists the key N twice: 'N=3,N=7'\n"


def test_sweep_table_shape(tmp_path):
    out = tmp_path / "s2"
    rc = run_cli([
        "sweep-k", "--generate", "N=3,map=2.5", "--k-values", "1,2,3",
        "--episodes", "1", "--seed", "4", "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("k,regret_mean")
    assert [ln.split(",")[0] for ln in lines[1:]] == ["1", "2", "3"]


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_exit_code_parse_error():
    assert run_cli(["run", "--algorithm", "eg"]) == 1  # missing scenario source


def test_exit_code_config_error(tmp_path, capsys):
    rc = run_cli([
        "run", "--generate", "N=3,map=2.5", "--algorithm", "eg",
        "--episodes", "0", "--out", str(tmp_path / "x"),
    ])
    assert rc == 1
    # A map too crowded for the generator to place its entities.
    capsys.readouterr()
    rc = run_cli([
        "run", "--generate", "N=40,map=0.7,walls=0,obstacles=0", "--algorithm", "eg",
        "--episodes", "1", "--out", str(tmp_path / "y"),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: could not generate a usable scenario")
    # A negative root seed, which np.random.SeedSequence would reject mid-run.
    rc = run_cli([
        "run", "--generate", "N=3,map=2.5", "--algorithm", "eg",
        "--episodes", "1", "--seed", "-1", "--out", str(tmp_path / "z"),
    ])
    assert rc == 1
    assert not (tmp_path / "z").exists()
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize(
    "command",
    [
        ["run", "--algorithm", "eg"],
        ["compare", "--algorithms", "eg,minmax"],
        ["sweep-k", "--k-values", "1,2"],
    ],
    ids=["run", "compare", "sweep-k"],
)
def test_out_naming_an_existing_file_is_a_config_error(tmp_path, monkeypatch, capsys, command):
    def no_episodes(*args, **kwargs):
        raise AssertionError("an episode ran before --out was checked")

    monkeypatch.setattr(engine.Batch, "run_one", no_episodes)
    blocker = tmp_path / "file"
    blocker.write_text("occupied")
    rc = run_cli([*command, "--generate", "N=3,map=2.5", "--episodes", "1",
                  "--out", str(blocker)])
    assert rc == 1
    assert blocker.read_text() == "occupied"
    assert capsys.readouterr().err == f"error: --out {blocker} exists and is not a directory\n"


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_out_below_an_existing_file_is_a_config_error(tmp_path, monkeypatch, capsys, parallel):
    def no_episodes(*args, **kwargs):
        raise AssertionError("an episode ran before --out was checked")

    monkeypatch.setattr(engine.Batch, "run_one", no_episodes)
    blocker = tmp_path / "file"
    blocker.write_text("occupied")
    out = blocker / "sub"
    rc = run_cli(["run", "--generate", "N=3", "--algorithm", "eg", "--episodes", "2",
                  "--parallel", parallel, "--out", str(out)])
    assert rc == 1
    assert blocker.read_text() == "occupied"
    assert capsys.readouterr().err == (
        f"error: --out {out} lies below {blocker}, which is not a directory\n"
    )


def test_out_may_be_the_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # Path(".") has no parents to search for one that exists
    rc = run_cli(["run", "--generate", "N=3", "--algorithm", "eg", "--episodes", "1",
                  "--out", "."])
    assert rc == 0
    assert (tmp_path / "results.csv").is_file()


def test_exit_code_runtime_failure(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "results.csv").mkdir(parents=True)  # a valid --out whose results file cannot be written
    rc = run_cli([
        "run", "--generate", "N=3,map=2.5", "--algorithm", "eg",
        "--episodes", "1", "--out", str(out),
    ])
    assert rc == 2
    assert capsys.readouterr().err.startswith("runtime failure: ")


@pytest.mark.parametrize(
    "code",
    [
        ["-m", "fairtask.cli", "--help"],
        ["-c", "import sys, fairtask; assert 'fairtask.cli' not in sys.modules; "
               "assert callable(fairtask.cli.format_result_rows)"],
    ],
    ids=["module-entry", "lazy-attribute"],
)
def test_package_loads_cli_lazily_without_runtime_warning(code):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *code],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize(
    "command",
    [
        ["run", "--algorithm", "online", "--k", "2"],
        ["compare", "--algorithms", "eg,online", "--k", "2"],
        ["sweep-k", "--k-values", "1,2"],
    ],
    ids=["run-online", "compare-with-online", "sweep-k"],
)
def test_teleport_rejected_for_online_runs(tmp_path, command):
    out = tmp_path / "never"
    rc = run_cli([
        *command, "--generate", "N=3,map=2.5", "--execution", "teleport",
        "--episodes", "1", "--out", str(out),
    ])
    assert rc == 1
    assert not out.exists()


def test_sweep_k_has_no_execution_flag(tmp_path, capsys):
    # sweep-k runs only online batches, which run scripted only.
    out = tmp_path / "never"
    rc = run_cli([
        "sweep-k", "--k-values", "1,2", "--generate", "N=3,map=2.5",
        "--execution", "scripted", "--out", str(out),
    ])
    assert rc == 1
    assert "unrecognized arguments: --execution scripted" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "spec,key,message",
    [
        pytest.param(spec, key, message, id=f"{spec}-{key}")
        for spec, key, message in [
            ("N=0,map=2.5", "N", "n_agents must be >= 1, got 0"),
            ("N=0", "N", "n_agents must be >= 1, got 0"),
            ("N=5", "N", "no default map size for N=5"),
            ("N=3,map=-1", "map", "map_size -1 is below 0.6"),
            ("N=3,map=2.5,speed=0", "speed", "max_speed 0.0 must be finite and positive"),
            ("N=3,map=2.5,dt=0", "dt", "dt must be finite and positive, got 0.0"),
            ("N=3,map=2.5,sensing=0.01", "sensing", "exceeds the smallest sensing radius 0.01"),
            ("N=3,map=2.5,speed=nan", "speed", "max_speed nan must be finite and positive"),
            ("N=3,map=2.5,dt=nan", "dt", "dt must be finite and positive, got nan"),
            ("N=3,map=2.5,sensing=nan", "sensing", "sensing_radius nan and max_speed"),
            ("N=3,map=2.5,speed=inf", "speed", "max_speed inf must be finite and positive"),
            ("N=3,map=2.5,dt=inf", "dt", "dt must be finite and positive, got inf"),
            ("N=3,map=2.5,sensing=inf", "sensing", "sensing_radius inf and max_speed"),
            ("N=3,map=inf", "map", "map_size must be finite, got inf"),
            ("N=3,map=2.5,types=0", "types", "n_types must be >= 1, got 0"),
            ("N=3,map=2.5,types=-1", "types", "n_types must be >= 1, got -1"),
            ("N=3,map=2.5,obstacles=-2", "obstacles", "n_obstacles must be >= 0, got -2"),
            ("N=3,map=2.5,walls=-1", "walls", "n_walls must be >= 0, got -1"),
            ("N=3,map", "map", "--generate: expected key=value, got 'map'"),
            ("N=three", "N", "--generate: bad value for N: 'three'"),
        ]
    ],
)
def test_bad_generator_values_are_config_errors(tmp_path, capsys, spec, key, message):
    for parallel in ("1", "2"):  # the generator runs in the workers under --parallel
        out = tmp_path / f"never-{parallel}"
        rc = run_cli([
            "run", "--generate", spec, "--algorithm", "eg",
            "--episodes", "2", "--parallel", parallel, "--out", str(out),
        ])
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("source", ["generate", "scenario-file"])
def test_alpha_outside_0_1_is_rejected_by_the_scenario(tmp_path, capsys, source):
    if source == "generate":
        args = ["--generate", "N=3,map=2.5"]
    else:
        path = tmp_path / "scenario.json"
        cli.save_scenario(world.generate_scenario(3, 2.5, seed=123), path)
        args = ["--scenario", str(path)]
    out = tmp_path / "never"
    rc = run_cli(["run", *args, "--alpha", "1.5", "--algorithm", "eg",
                  "--episodes", "1", "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    assert "alpha must lie in (0, 1), got 1.5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit,message",
    [
        pytest.param(lambda doc: doc["tasks"][0].update(workload=float("nan")),
                     "task 0: workload nan and weight", id="nan-workload"),
        pytest.param(lambda doc: doc["tasks"][1].update(weight=float("nan")),
                     "and weight nan must be finite and positive", id="nan-weight"),
        pytest.param(lambda doc: doc["obstacles"][0].update(radius=float("nan")),
                     "obstacle radius nan must be finite and positive", id="nan-obstacle-radius"),
        pytest.param(lambda doc: doc["agents"][2]["preference_row"].__setitem__(1, float("nan")),
                     "agent 2: preference entries (", id="nan-preference"),
        pytest.param(lambda doc: doc["tasks"][2].update(workload=float("inf")),
                     "task 2: workload inf and weight", id="inf-workload"),
    ],
)
def test_non_finite_scenario_file_values_are_config_errors(tmp_path, capsys, edit, message):
    path = tmp_path / "scenario.json"
    cli.save_scenario(world.generate_scenario(3, 2.5, seed=123), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    out = tmp_path / "never"
    rc = run_cli(["run", "--scenario", str(path), "--algorithm", "eg",
                  "--episodes", "1", "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "edit,message",
    [
        pytest.param(lambda doc: doc["tasks"][0].update(workload="abc"),
                     "task 0: workload must be a number, got 'abc'", id="string-workload"),
        pytest.param(lambda doc: doc["tasks"][1].update(workload="1.2"),
                     "task 1: workload must be a number, got '1.2'", id="numeric-string-workload"),
        pytest.param(lambda doc: doc.update(dt=True), "dt must be a number, got True",
                     id="bool-dt"),
        pytest.param(lambda doc: doc.update(version=True), "unsupported version True",
                     id="bool-version"),
        pytest.param(lambda doc: doc["agents"][0].update(start_position=[1.0]),
                     "not enough values to unpack", id="start-1d"),
        pytest.param(lambda doc: doc["agents"][1].update(start_position=[1.0, 1.0, 1.0]),
                     "too many values to unpack", id="start-3d"),
        pytest.param(lambda doc: doc["walls"][0].__delitem__(1),
                     "not enough values to unpack", id="wall-one-endpoint"),
        pytest.param(lambda doc: [doc], "expected a JSON object, got list", id="top-level-list"),
        pytest.param(lambda doc: doc.update(agents=5), "object is not iterable", id="agents-number"),
        pytest.param(lambda doc: doc["tasks"][0].update(task_type=1.7),
                     "task 0: task_type must be an integer, got 1.7", id="float-task-type"),
        pytest.param(lambda doc: doc["agents"][0].update(id=7.9),
                     "agent 0: id must be an integer, got 7.9", id="float-agent-id"),
        pytest.param(lambda doc: doc["agents"][1].update(id=0),
                     "agent 1: id 0 must equal its index", id="repeated-agent-id"),
        pytest.param(lambda doc: doc["tasks"][0].update(task_type=True),
                     "task 0: task_type must be an integer, got True", id="bool-task-type"),
        pytest.param(lambda doc: doc.update(seed=2.5), "seed must be an integer, got 2.5",
                     id="float-seed"),
        pytest.param(lambda doc: doc["tasks"][0].update(task_type=-1),
                     "task 0: type -1 outside [0, 3)", id="negative-task-type"),
        pytest.param(lambda doc: doc["agents"][1].update(agent_type=0),
                     "agents 0 and 1 share type 0 but not a preference row",
                     id="shared-agent-type"),
        pytest.param(lambda doc: doc.update(workspace_size=0),
                     "workspace_size must be finite and positive, got 0.0", id="workspace-size"),
        pytest.param(lambda doc: doc.update(agents=[], tasks=[]),
                     "scenario needs at least one agent", id="no-agents"),
        pytest.param(lambda doc: doc["tasks"][1].update(id=0),
                     "task 1: id 0 must equal its index", id="repeated-task-id"),
        pytest.param(lambda doc: doc["tasks"][0].update(position=doc["obstacles"][0]["center"]),
                     "task 0 lies inside an obstacle", id="task-in-obstacle"),
        pytest.param(lambda doc: doc["agents"][0].update(start_position=[-0.5, 1.0]),
                     "agent 0 position (-0.5, 1.0) not strictly inside workspace",
                     id="outside-workspace"),
        pytest.param(lambda doc: doc["obstacles"][0]["center"].__setitem__(0, math.nan),
                     "obstacle 0: center (nan, ", id="nan-obstacle-center"),
        pytest.param(lambda doc: doc["walls"][0][0].__setitem__(0, math.inf),
                     "wall 0: endpoints ((inf, ", id="infinite-wall-end"),
        pytest.param(lambda doc: doc["walls"].__setitem__(0, [[1.0, 1.0, 1.0], [1.5, 1.0]]),
                     "wall 0: endpoints ((1.0, 1.0, 1.0), (1.5, 1.0)) must be two (x, y) points",
                     id="wall-end-3d"),
        pytest.param(lambda doc: doc["obstacles"][0].update(center=[1.0, 1.0, 1.0]),
                     "obstacle 0: center (1.0, 1.0, 1.0) must be an (x, y) point",
                     id="obstacle-center-3d"),
    ],
)
def test_malformed_scenario_files_are_config_errors(tmp_path, capsys, edit, message):
    path = tmp_path / "scenario.json"
    cli.save_scenario(world.generate_scenario(3, 2.5, seed=123), path)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(edit(doc) or doc))  # an edit in place returns None
    out = tmp_path / "never"
    rc = run_cli(["run", "--scenario", str(path), "--algorithm", "eg",
                  "--episodes", "1", "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: scenario file {path}: ") and message in err


def test_scenario_file_sensing_below_grid_resolution_is_a_config_error(tmp_path, capsys):
    sc = world.generate_scenario(3, 2.5, seed=123)
    path = tmp_path / "scenario.json"
    cli.save_scenario(sc, path)
    doc = json.loads(path.read_text())
    doc["agents"][1]["sensing_radius"] = 0.04
    path.write_text(json.dumps(doc))
    out = tmp_path / "never"
    rc = run_cli(["run", "--scenario", str(path), "--algorithm", "eg",
                  "--episodes", "1", "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    assert "exceeds the smallest sensing radius 0.04" in capsys.readouterr().err


def test_scenario_file_entity_in_a_blocked_cell_is_a_config_error(tmp_path, capsys):
    sc = world.generate_scenario(3, 2.5, seed=123)
    path = tmp_path / "scenario.json"
    cli.save_scenario(sc, path)
    doc = json.loads(path.read_text())
    (x1, y1), (x2, y2) = sc.walls[0]
    doc["agents"][0]["start_position"] = [(x1 + x2) / 2 + 0.01, (y1 + y2) / 2]  # 0.01 off wall 0
    path.write_text(json.dumps(doc))
    for parallel in ("1", "2"):  # the grid is built in the workers under --parallel
        out = tmp_path / f"never-{parallel}"
        rc = run_cli(["run", "--scenario", str(path), "--algorithm", "eg", "--episodes", "2",
                      "--parallel", parallel, "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        assert capsys.readouterr().err == "error: agent 0 start is in a blocked cell\n"


@pytest.mark.parametrize(
    "spec",
    ["N=3,map=0.15", "N=3,map=0.59", "N=3,map=0.55,walls=0", "N=3,map=0.19,walls=0,obstacles=0"],
)
def test_generator_maps_below_the_sampler_bounds_are_config_errors(tmp_path, capsys, spec):
    out = tmp_path / "never"
    rc = run_cli(["run", "--generate", spec, "--algorithm", "eg", "--episodes", "1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: map_size ")
    assert not out.exists()


def test_generate_spec_parsing():
    with pytest.raises(cli.ConfigError):
        cli._parse_generate("N=3,bogus=1", 0.97)
    with pytest.raises(cli.ConfigError):
        cli._parse_generate("map=2.5", 0.97)
    parsed = cli._parse_generate("N=7,map=2.7,obstacles=2,walls=1", 0.9)
    assert parsed == dict(
        n_agents=7, map_size=2.7, n_obstacles=2, n_walls=1, alpha=0.9
    )
    assert "alpha" not in cli._parse_generate("N=7", None)  # generator default applies
