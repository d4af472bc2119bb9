"""Every public name in src/fairtask has a caller in the program, not only in tests."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fairtask"

# Public names kept without a caller in src/ or bench/, each with its reason.
EXEMPT = {
    "cli.save_scenario": "writes the scenario file format that load_scenario reads",
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


def test_public_surface_has_a_program_caller():
    program = sorted(SRC.glob("*.py")) + [
        p for p in sorted((ROOT / "bench").glob("*.py")) if p.name != "test_bench.py"
    ]
    lines = {p: p.read_text().splitlines() for p in program}
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for qualname, node in _public_definitions(ast.parse(path.read_text())):
            name = f"{path.stem}.{qualname}"
            if name in EXEMPT:
                continue
            # The definition's own lines, decorators included, do not count as a use.
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)]) - 1
            own = range(first, node.end_lineno)
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(
                word.search(line)
                for p, text in lines.items()
                for i, line in enumerate(text)
                if not (p == path and i in own)
            ):
                unused.append(name)
    assert unused == []
