"""Every package name the benchmark scripts use must resolve, and every
call they make into the package must bind to its signature.

``benchmarks/run.py`` imports ``layers.py`` even for untraced runs, so a
name pruned from the package stops every benchmark run, not only the
traced one.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _package_aliases(tree: ast.AST) -> dict[str, str]:
    """Local name -> module for every ``import paramexpmv...``."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "paramexpmv":
                    aliases[a.asname or a.name] = a.name
    return aliases


def package_names_used(path: Path) -> set[tuple[str, str]]:
    """(module, name) pairs: ``from paramexpmv... import name`` and
    ``alias.name`` where alias is an imported paramexpmv module."""
    tree = ast.parse(path.read_text())
    aliases = _package_aliases(tree)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("paramexpmv"):
            used.update((node.module, a.name) for a in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            used.add((aliases[node.value.id], node.attr))
    return used


def package_calls(path: Path) -> list[tuple[str, str, int, list[str], int]]:
    """(module, name, positional count, keyword names, line) of every
    ``alias.name(...)`` call; calls with ``*args`` or ``**kwargs`` are skipped."""
    tree = ast.parse(path.read_text())
    aliases = _package_aliases(tree)
    calls = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in aliases):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                kw.arg is None for kw in node.keywords):
            continue
        calls.append((aliases[node.func.value.id], node.func.attr, len(node.args),
                      [kw.arg for kw in node.keywords], node.lineno))
    return calls


SCRIPTS = sorted(BENCHMARKS.glob("*.py"))


def test_benchmark_scripts_found():
    assert {"run.py", "layers.py", "workloads.py"} <= {p.name for p in SCRIPTS}
    assert ("paramexpmv", "phi_columns") in package_names_used(BENCHMARKS / "layers.py")
    called = {name for path in SCRIPTS for _, name, *_ in package_calls(path)}
    assert {"build", "solve_adaptive", "InfiniteArnoldi", "ParameterizedSolution",
            "ErrorReport", "BoundInputs", "AdaptiveResult"} <= called


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_benchmark_names_resolve(path):
    missing = [f"{module}.{name}" for module, name in sorted(package_names_used(path))
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{path.name} uses names the package lacks: {missing}"


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_benchmark_calls_bind(path):
    broken = []
    for module, name, nargs, keywords, line in package_calls(path):
        obj = getattr(importlib.import_module(module), name, None)
        if obj is None:
            continue  # reported by test_benchmark_names_resolve
        try:
            inspect.signature(obj).bind(*[None] * nargs, **{kw: None for kw in keywords})
        except TypeError as exc:
            broken.append(f"line {line}: {module}.{name}: {exc}")
    assert not broken, f"{path.name} calls that no longer bind: {broken}"
