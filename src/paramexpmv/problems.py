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

from .linalg import _as_int, as_csr, load_matrix, load_vector, save_matrix, save_vector
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
    idx = np.arange(n3)
    i = idx % P
    j = (idx // P) % P
    k = idx // (P * P)

    rows, cols = [], []
    for axis, coord in enumerate((i, j, k)):
        stride = P ** axis
        mask = coord < P - 1
        rows.append(idx[mask])
        cols.append(idx[mask] + stride)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    upper = sp.coo_array((np.full(rows.size, -1.0), (rows, cols)), shape=(n3, n3))
    K = as_csr(upper + upper.T + sp.diags_array(np.full(n3, 6.0)))

    c1_diag = (i == 0).astype(float) + (j == 0).astype(float) + (k == 0).astype(float)
    c2_diag = (i == P - 1).astype(float) + (j == P - 1).astype(float) + (k == P - 1).astype(float)
    C1 = sp.diags_array(c1_diag)
    C2 = sp.diags_array(c2_diag)

    Z = sp.csr_array((n3, n3))
    I = sp.eye_array(n3)
    A0 = as_csr(sp.block_array([[Z, I], [-K, -gamma1 * C1]]))
    A1 = as_csr(sp.block_array([[Z, Z], [Z, -C2]]))

    x = i / (P - 1.0)
    y = j / (P - 1.0)
    z = k / (P - 1.0)
    disp = np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)
    u0 = np.concatenate([disp, np.zeros(n3)])
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

    Invalid JSON and a missing key raise ValueError naming the manifest.
    """
    with open(manifest_path) as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{manifest_path}: invalid JSON: {exc}") from None
    try:
        coefficients, u0 = manifest["paths"]["coefficients"], manifest["paths"]["u0"]
    except KeyError as exc:
        raise ValueError(f"{manifest_path}: manifest has no key {exc}") from None
    base = os.path.dirname(os.path.abspath(manifest_path))
    matrix_paths = [os.path.join(base, f) for f in coefficients]
    return load_problem(matrix_paths, os.path.join(base, u0))
