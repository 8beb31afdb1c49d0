"""Every package name the benchmark scripts use must resolve.

``benchmarks/run.py`` imports ``layers.py`` even for untraced runs, so a
name pruned from the package stops every benchmark run, not only the
traced one.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def package_names_used(path: Path) -> set[tuple[str, str]]:
    """(module, name) pairs: ``from paramexpmv... import name`` and
    ``alias.name`` where alias is an imported paramexpmv module."""
    tree = ast.parse(path.read_text())
    used, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "paramexpmv":
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("paramexpmv"):
            used.update((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            used.add((aliases[node.value.id], node.attr))
    return used


SCRIPTS = sorted(BENCHMARKS.glob("*.py"))


def test_benchmark_scripts_found():
    assert {"run.py", "layers.py", "workloads.py"} <= {p.name for p in SCRIPTS}
    assert ("paramexpmv", "phi_columns") in package_names_used(BENCHMARKS / "layers.py")


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_benchmark_names_resolve(path):
    missing = [f"{module}.{name}" for module, name in sorted(package_names_used(path))
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{path.name} uses names the package lacks: {missing}"
