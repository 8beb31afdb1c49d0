"""Explicit (t, eps)-parameterization of solutions to linear ODEs with
polynomially parameterized coefficient matrices.

One structured Arnoldi run produces a compact object that evaluates
approximate solutions for arbitrary parameter and time values, with
rigorous a priori bounds and residual-based a posteriori error estimates.
"""

from .arnoldi import InfiniteArnoldi, KrylovDecomposition, run_arnoldi
from .linalg import (
    from_coo,
    load_matrix,
    load_vector,
    log_norm,
    save_matrix,
    save_vector,
    two_norm_estimate,
)
from .matfun import PhiPair, expm, phi_columns
from .problems import (
    gen_advdiff1,
    gen_advdiff2,
    gen_wave,
    generate,
    load_manifest,
    load_problem,
    write_problem,
)
from .reference import dense_coefficients, dense_solution, textbook_arnoldi
from .solver import (
    AdaptiveResult,
    BoundInputs,
    ErrorReport,
    ParameterizedSolution,
    apriori_bounds,
    build,
    solve_adaptive,
)
from .toeplitz import (
    MatrixPolynomial,
    assemble_lm,
    heuristic_gamma,
    structured_matvec,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveResult",
    "BoundInputs",
    "ErrorReport",
    "InfiniteArnoldi",
    "KrylovDecomposition",
    "MatrixPolynomial",
    "ParameterizedSolution",
    "PhiPair",
    "apriori_bounds",
    "assemble_lm",
    "build",
    "dense_coefficients",
    "dense_solution",
    "expm",
    "from_coo",
    "gen_advdiff1",
    "gen_advdiff2",
    "gen_wave",
    "generate",
    "heuristic_gamma",
    "load_manifest",
    "load_matrix",
    "load_problem",
    "load_vector",
    "log_norm",
    "phi_columns",
    "run_arnoldi",
    "save_matrix",
    "save_vector",
    "solve_adaptive",
    "structured_matvec",
    "textbook_arnoldi",
    "two_norm_estimate",
    "write_problem",
]
