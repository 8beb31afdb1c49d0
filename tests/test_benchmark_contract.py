"""Every package name the benchmark scripts use must resolve, every call
they make into the package must bind to its signature, and each workload
must run, shrunk, without a failed operation.

``benchmarks/run.py`` imports ``layers.py`` even for untraced runs, so a
name pruned from the package stops every benchmark run, not only the
traced one. The names and calls are checked from the scripts' source; the
attributes they read off returned objects (``S.scaled_poly``,
``K.hessenberg``, ``it.step``, ...) only by running them.
"""

import ast
import dataclasses
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


#: Each workload shrunk to run in well under a second; queries are unchanged.
SHRUNK = {
    "advdiff1-build": {"params": {"n": 60, "a": 3e-4}, "p": 12},
    "wave-sweep": {"params": {"points": 4, "gamma1": 2.0}, "p": 10},
    "advdiff2-adaptive": {"params": {"n": 40, "a": 3e-4, "b": 2e2}},
}


@pytest.mark.parametrize("name", sorted(SHRUNK))
def test_benchmark_workload_runs(name, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workloads = importlib.import_module("workloads")
    layers = importlib.import_module("layers")
    wl = dataclasses.replace(workloads.WORKLOADS[name](1), **SHRUNK[name])
    rec, S = workloads.run_pass(wl, workloads.Public, 1, fingerprint=True)
    assert S is not None and not rec.failures, rec.failures
    # The traced/untraced gate is not asserted: the traced pass still rebuilds
    # the old bound inputs, so it is known to differ.
    traced = layers.traced_pass(wl)
    assert not traced.failures, traced.failures
    assert traced.layers["arnoldi.steps"] == traced.p_used == S.p
