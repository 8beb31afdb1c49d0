"""Explicit (t, eps)-parameterization of solutions to linear ODEs with
polynomially parameterized coefficient matrices.

One structured Arnoldi run produces a compact object that evaluates
approximate solutions for arbitrary parameter and time values, with
rigorous a priori bounds and residual-based a posteriori error estimates.

``__all__`` is the user-facing API. The other names imported here are
lower-level pieces kept at package level for scripts that time them.
"""

from .arnoldi import InfiniteArnoldi, run_arnoldi
from .linalg import log_norm, two_norm_estimate
from .matfun import expm, phi_columns
from .problems import generate
from .reference import dense_coefficients, dense_solution
from .solver import (
    AdaptiveResult,
    BoundInputs,
    ErrorReport,
    ParameterizedSolution,
    apriori_bounds,
    build,
    solve_adaptive,
)
from .toeplitz import MatrixPolynomial, heuristic_gamma, structured_matvec

__version__ = "0.1.0"

__all__ = [
    "AdaptiveResult",
    "BoundInputs",
    "ErrorReport",
    "MatrixPolynomial",
    "ParameterizedSolution",
    "apriori_bounds",
    "build",
    "dense_coefficients",
    "dense_solution",
    "generate",
    "run_arnoldi",
    "solve_adaptive",
]
