"""Built-in test problems and MatrixMarket-based problem ingestion.

The generators reproduce the operator magnitudes of the reference
experiments (see each docstring for the exact formulas used); user problems
come in as MatrixMarket files listed in a small JSON manifest.
"""

from __future__ import annotations

import json
import os

import numpy as np
import scipy.sparse as sp

from .linalg import _as_int, load_matrix, load_vector, save_matrix, save_vector
from .toeplitz import MatrixPolynomial


def _tridiag(n: int, scale: float, lower: float, diag: float, upper: float) -> sp.csr_array:
    """scale * tridiag(lower, diag, upper) as a canonical CSR array with int32
    indices. A zero band is left out, as a conversion from DIA format does."""
    offsets, values = zip(*[(off, scale * v) for off, v in ((-1, lower), (0, diag), (1, upper))
                            if v != 0.0])
    nb = len(offsets)
    # the row-major (n, nb) entries, less row 0's lower and row n-1's upper one
    start, stop = int(lower != 0.0), n * nb - int(upper != 0.0)
    cols = np.arange(n, dtype=np.int32)[:, None] + np.array(offsets, dtype=np.int32)
    data = np.empty((n, nb))
    data[:] = values
    indptr = np.arange(0, nb * (n + 1), nb, dtype=np.int32) - start
    indptr[0], indptr[n] = 0, stop - start
    return sp.csr_array((data.ravel()[start:stop], cols.ravel()[start:stop], indptr),
                        shape=(n, n))


def _initial_profile(n: int) -> np.ndarray:
    x = np.arange(1, n + 1) / (n + 1)
    return 16.0 * ((1.0 - x) * x) ** 2


def gen_advdiff1(n: int, a: float) -> tuple[MatrixPolynomial, np.ndarray]:
    """1-D advection-diffusion on the unit interval, Dirichlet boundaries.

    Degree-1 problem: A_0 = a*c^2 * tridiag(1, -2, 1) and
    A_1 = c * tridiag(1, 0, -1) with grid constant c = 2(n-1); the start
    vector samples 16((1-x)x)^2 on the interior nodes.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    c = 2.0 * (n - 1)
    A0 = _tridiag(n, a * c * c, 1.0, -2.0, 1.0)
    A1 = _tridiag(n, c, 1.0, 0.0, -1.0)
    return MatrixPolynomial([A0, A1]), _initial_profile(n)


def gen_advdiff2(n: int, a: float, b: float) -> tuple[MatrixPolynomial, np.ndarray]:
    """Advection-diffusion with a mirrored second-order feedback term.

    Extends :func:`gen_advdiff1` by A_2 with entries 5b on the antidiagonal
    (node i coupled to node n+1-i).
    """
    P1, u0 = gen_advdiff1(n, a)
    # row i holds its one entry in column n-1-i
    A2 = sp.csr_array((np.full(n, 5.0 * b), np.arange(n - 1, -1, -1), np.arange(n + 1)),
                      shape=(n, n))
    return MatrixPolynomial([P1.coeffs[0], P1.coeffs[1], A2]), u0


def gen_wave(points_per_dim: int, gamma1: float) -> tuple[MatrixPolynomial, np.ndarray]:
    """Damped wave equation in the 3-D unit box as a first-order system.

    7-point Laplacian K on a points_per_dim^3 grid (x-fastest ordering,
    boundary nodes included, unit mass matrix), with boundary damping split
    over disjoint face sets: C_1 acts on the faces at coordinate 0, C_2 on
    the faces at coordinate 1. The state is (displacement, velocity) of
    dimension 2*points_per_dim^3,

        A_0 = [[0, I], [-K, -gamma1*C_1]],   A_1 = [[0, 0], [0, -C_2]],

    and the parameter multiplies the C_2 damping. The initial state is a
    product-of-sines displacement with zero velocity.
    """
    P = points_per_dim
    if P < 3:
        raise ValueError("points_per_dim must be at least 3")
    n3 = P ** 3
    idx = np.arange(n3, dtype=np.int32 if 9 * n3 < 2 ** 31 else np.int64)  # A_0's nnz <= 9 n3
    k, j, i = np.unravel_index(idx, (P, P, P))
    c1 = (i == 0).astype(float) + (j == 0).astype(float) + (k == 0).astype(float)
    c2 = (i == P - 1).astype(float) + (j == P - 1).astype(float) + (k == P - 1).astype(float)
    damping = -gamma1 * c1

    # Both coefficients are written as canonical CSR arrays. Displacement
    # row r holds 1 at column n3+r. Velocity row n3+r holds -K over r and its
    # in-grid neighbours, then the damping at column n3+r, all in column
    # order; a zero damping entry is left out, as in a conversion from DIA.
    offsets = np.array([-P * P, -P, -1, 0, 1, P, P * P, n3], dtype=idx.dtype)
    stored = np.stack([k > 0, j > 0, i > 0, np.ones(n3, dtype=bool),
                       i < P - 1, j < P - 1, k < P - 1, damping != 0.0], axis=1)
    values = np.tile([1.0, 1.0, 1.0, -6.0, 1.0, 1.0, 1.0, 0.0], (n3, 1))
    values[:, 7] = damping
    # a node on c1 + c2 boundary faces has 6 - c1 - c2 in-grid neighbours
    row_nnz = (7.0 - c1 - c2).astype(idx.dtype) + (damping != 0.0)
    A0 = sp.csr_array(
        (np.concatenate([np.ones(n3), values[stored]]),
         np.concatenate([idx + n3, (idx[:, None] + offsets)[stored]]),
         np.concatenate([np.arange(n3 + 1, dtype=idx.dtype),
                         n3 + np.cumsum(row_nnz, dtype=idx.dtype)])),
        shape=(2 * n3, 2 * n3))
    # A_1 holds -C_2 on the velocity rows where it is nonzero
    damped = np.flatnonzero(c2).astype(idx.dtype)
    A1 = sp.csr_array((-c2[damped], damped + n3, np.concatenate(
        [np.zeros(n3 + 1, dtype=idx.dtype), np.cumsum(c2 != 0.0, dtype=idx.dtype)])),
        shape=(2 * n3, 2 * n3))

    # sin(pi x) sin(pi y) sin(pi z), each factor from the P grid coordinates
    s = np.sin(np.pi * (np.arange(P) / (P - 1.0)))
    u0 = np.concatenate([s[i] * s[j] * s[k], np.zeros(n3)])
    return MatrixPolynomial([A0, A1]), u0


#: Built-in generator registry used by the CLI and manifests.
GENERATORS = {
    "advdiff1": (gen_advdiff1, ("n", "a")),
    "advdiff2": (gen_advdiff2, ("n", "a", "b")),
    "wave": (gen_wave, ("points", "gamma1")),
}


def generate(name: str, parameters: dict) -> tuple[MatrixPolynomial, np.ndarray]:
    """Instantiate a built-in problem by name."""
    if name not in GENERATORS:
        raise ValueError(f"unknown problem '{name}' (choose from {sorted(GENERATORS)})")
    fn, arg_names = GENERATORS[name]
    missing = [arg for arg in arg_names if arg not in parameters]
    if missing:
        raise ValueError(f"problem '{name}' requires parameters {missing}")
    args = [parameters[arg] for arg in arg_names]
    return fn(_as_int(arg_names[0], args[0]), *map(float, args[1:]))


def load_problem(matrix_paths, u0_path) -> tuple[MatrixPolynomial, np.ndarray]:
    """Read coefficient matrices (degree order) and a start vector from files."""
    if not matrix_paths:
        raise ValueError("at least one coefficient file is required")
    mats = [load_matrix(path) for path in matrix_paths]
    u0 = load_vector(u0_path)
    n = mats[0].shape[0]
    for path, M in zip(matrix_paths, mats):
        if M.shape != (n, n):
            raise ValueError(f"{path}: shape {M.shape} inconsistent with dimension {n}")
    if u0.size != n:
        raise ValueError(f"{u0_path}: length {u0.size} inconsistent with dimension {n}")
    return MatrixPolynomial(mats), u0


def write_problem(out_dir, name: str, P: MatrixPolynomial, u0, parameters: dict) -> str:
    """Write MatrixMarket files plus a JSON manifest; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    coeff_files = []
    for ell, C in enumerate(P.coeffs):
        fname = f"A{ell}.mtx"
        save_matrix(os.path.join(out_dir, fname), C)
        coeff_files.append(fname)
    save_vector(os.path.join(out_dir, "u0.mtx"), u0)
    manifest = {
        "name": name,
        "n": P.dim,
        "parameters": parameters,
        "paths": {"coefficients": coeff_files, "u0": "u0.mtx"},
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest_path


def load_manifest(manifest_path) -> tuple[MatrixPolynomial, np.ndarray]:
    """Load a problem from a JSON manifest (paths relative to the manifest).

    Invalid JSON, a missing key and a value of the wrong type raise
    ValueError naming the manifest and the key.
    """
    with open(manifest_path) as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{manifest_path}: invalid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"{manifest_path}: manifest is not a JSON object")
    try:
        paths = manifest["paths"]
        if not isinstance(paths, dict):
            raise ValueError(f"{manifest_path}: 'paths' is not a JSON object")
        coefficients, u0 = paths["coefficients"], paths["u0"]
    except KeyError as exc:
        raise ValueError(f"{manifest_path}: manifest has no key {exc}") from None
    if not (isinstance(coefficients, list) and all(isinstance(f, str) for f in coefficients)):
        raise ValueError(f"{manifest_path}: 'coefficients' is not a list of strings")
    if not isinstance(u0, str):
        raise ValueError(f"{manifest_path}: 'u0' is not a string")
    base = os.path.dirname(os.path.abspath(manifest_path))
    matrix_paths = [os.path.join(base, f) for f in coefficients]
    return load_problem(matrix_paths, os.path.join(base, u0))
