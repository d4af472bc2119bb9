"""Structural checks on src/fairtask.

Every public name has a caller in the program, not only in tests, the
distance discount alpha**d has one implementation, only world.py and the
scenario file writer read a scenario's agent and task specs, running the
program does not load scipy.optimize, and assign.py imports only numpy and
the standard library.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fairtask"

# Public names kept without a caller in src/ or bench/, each with its reason.
EXEMPT = {
    "cli.save_scenario": "writes the scenario file format that load_scenario reads",
    **dict.fromkeys(
        ("world.Scenario.agent_positions", "world.Scenario.task_positions",
         "world.Scenario.wall_segments"),
        "bench/test_bench.py calls them; they return the `Scenario.arrays` entries",
    ),
}


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of public top-level functions and classes and public methods."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _fairtask_imports(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) of every `from fairtask.module import name`."""
    return {
        (node.module.removeprefix("fairtask."), alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fairtask.")
        for alias in node.names
    }


def test_public_surface_has_a_program_caller():
    """A module-level name is used through `module.name`, a `from fairtask.module
    import name`, or a bare use inside its own module; a method through `.name`
    or a string attribute name.  A definition's own lines do not count.
    """
    program = sorted(SRC.glob("*.py")) + [
        p for p in sorted((ROOT / "bench").glob("*.py")) if p.name != "test_bench.py"
    ]
    texts = {p: p.read_text() for p in program}
    imported = set().union(*(_fairtask_imports(ast.parse(t)) for t in texts.values()))
    unused = []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for qualname, node in _public_definitions(ast.parse(texts[path])):
            name = f"{module}.{qualname}"
            if name in EXEMPT or (module, qualname) in imported:
                continue
            word = re.escape(node.name)
            if "." in qualname:
                patterns = {p: rf"\.{word}\b|[\"']{word}[\"']" for p in program}
            else:
                patterns = {p: rf"\b{module}\.{word}\b" for p in program}
                patterns[path] += rf"|(?<![\w.]){word}\b"
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)]) - 1
            own = range(first, node.end_lineno)
            if not any(
                re.search(pattern, line)
                for p, pattern in patterns.items()
                for i, line in enumerate(texts[p].splitlines())
                if not (p == path and i in own)
            ):
                unused.append(name)
    assert unused == []


def _name(node) -> str:
    """The identifier a Name or Attribute node ends in; '' for any other node."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def _scopes(hit, modules) -> set[str]:
    """Qualified names of the functions and classes (or modules, at top level)
    of src/fairtask that hold a node for which hit(node) is true."""
    found = set()

    def visit(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if hit(child):
                found.add(scope)
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if named else scope)

    for module in modules:
        visit(ast.parse((SRC / f"{module}.py").read_text()), module)
    return found


def _alpha_power(node) -> bool:
    """A `power`/`pow` call or `alpha ** x`."""
    return isinstance(node, ast.Call) and _name(node.func) in ("power", "pow") or (
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
        and "alpha" in _name(node.left)
    )


def _spec_read(node) -> bool:
    """`x.agents` or `x.tasks`, except the `arrays.agents` index array."""
    return isinstance(node, ast.Attribute) and node.attr in ("agents", "tasks") and (
        _name(node.value) != "arrays"
    )


MODULES = sorted(path.stem for path in SRC.glob("*.py"))


def test_only_save_scenario_reads_the_specs_outside_world():
    # Every other reader takes a scenario's facts from its read-only
    # `Scenario.arrays`, so no second array view of the agent and task specs
    # can grow back; the scenario file writer needs the specs themselves.
    others = [m for m in MODULES if m != "world"]
    assert _scopes(_spec_read, others) == {"cli.save_scenario"}


def test_compute_utility_is_the_only_alpha_power():
    # U*, online solves and realized utilities compare utilities bit for bit,
    # so the distance discount alpha**d has exactly one implementation.
    assert _scopes(_alpha_power, MODULES) == {"assign.compute_utility"}


# Every rule and mode once, then the CLI, in a fresh interpreter: the test
# session itself has loaded scipy.optimize through scipy.stats.
_FOOTPRINT = """
import sys
import numpy as np
import fairtask
from fairtask import cli, engine, online, world
sc = world.generate_scenario(3, seed=123)
for rule in ("eg", "hungarian", "minmax"):
    for execution in ("scripted", "teleport"):
        engine.run_centralized_episode(sc, rule, execution=execution)
online.run_online_episode(sc, 2, np.random.default_rng(0))
assert cli.main(["run", "--generate", "N=3", "--algorithm", "eg", "--episodes", "1",
                 "--out", sys.argv[1]]) == 0
assert "scipy.optimize" not in sys.modules, "the program loaded scipy.optimize"
"""


def test_program_does_not_load_scipy_optimize(tmp_path):
    # scipy.optimize costs about 17 MB of resident memory and a quarter of the
    # set-up time; the program's linear assignments run assign._assign_rows.
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, str(tmp_path / "run")],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr


def test_assign_imports_only_numpy_and_the_standard_library():
    # Every linear assignment, min-max's threshold tests included, runs
    # assign._assign_rows; the module needs no second matching algorithm.
    tree = ast.parse((SRC / "assign.py").read_text())
    roots = {alias.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names}
    roots |= {node.module.split(".")[0] for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert roots - {"numpy"} <= sys.stdlib_module_names, sorted(roots)
