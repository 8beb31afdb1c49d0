"""Command-line driver: solve, convergence studies, and problem generation.

Emits deterministic CSV (17 significant digits) plus gnuplot-ready scripts
for convergence studies. `--gamma` sets the scaling parameter (default the
heuristic; `--gamma 1` runs unscaled). Convergence studies measure the true
error against `scipy.sparse.linalg.expm_multiply`. Exit codes: 0 success,
2 usage/input error (also non-finite problem data or option values),
3 tolerance unreached.
"""

from __future__ import annotations

import argparse
import cmath
import os
import sys

import numpy as np
from scipy.sparse.linalg import expm_multiply

from . import problems, solver
from .linalg import save_vector

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TOL_UNREACHED = 3


def _fmt(x) -> str:
    if isinstance(x, complex):
        return f"{x.real:.16e}{x.imag:+.16e}i"
    return f"{float(x):.16e}"


def _parse_scalar(token: str):
    token = token.strip()
    try:
        if token.endswith(("i", "j")):
            value = complex(token[:-1] + "j")
        else:
            value = float(token)
    except ValueError as exc:
        raise ValueError(f"cannot parse scalar '{token}'") from exc
    if not cmath.isfinite(value):
        raise ValueError(f"non-finite value '{token}'")
    return value


def _parse_list(text: str) -> list:
    values = [_parse_scalar(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError("empty value list")
    return values


def _parse_reals(text: str, option: str) -> list[float]:
    values = _parse_list(text)
    if any(isinstance(v, complex) for v in values):
        raise ValueError(f"{option} takes real values, got '{text}'")
    return values


def _load_problem(args):
    if args.manifest:
        return problems.load_manifest(args.manifest)
    P, u0, _ = _generate(args)
    return P, u0


def _generate(args):
    """(P, u0, params) of the built-in problem the arguments name."""
    params = {"n": args.n, "a": args.a, "b": args.b,
              "points": args.points, "gamma1": args.gamma1}
    params = {k: v for k, v in params.items() if v is not None}
    return (*problems.generate(args.problem, params), params)


def _add_problem_args(p: argparse.ArgumentParser, manifest: bool = True) -> None:
    """--problem and its parameters; with manifest, --manifest as the one
    alternative to --problem."""
    source = p.add_mutually_exclusive_group(required=True) if manifest else p
    source.add_argument("--problem", choices=sorted(problems.GENERATORS),
                        required=not manifest, help="built-in problem name")
    if manifest:
        source.add_argument("--manifest", help="JSON manifest of a file-based problem")
    p.add_argument("--n", type=int, help="grid size (advdiff problems)")
    p.add_argument("--a", type=float, help="diffusion parameter")
    p.add_argument("--b", type=float, help="feedback parameter (advdiff2)")
    p.add_argument("--points", type=int, help="points per dimension (wave)")
    p.add_argument("--gamma1", type=float, help="fixed damping parameter (wave)")


def _write_lines(path, lines) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_solve(args) -> int:
    P, u0 = _load_problem(args)
    ts = _parse_reals(args.t, "--t")
    epss = _parse_list(args.eps) if args.eps else [0.0]
    targets = [(t, e) for t in ts for e in epss]
    gammas = _parse_reals(args.gamma, "--gamma") if args.gamma else [None]
    if len(gammas) != 1:
        raise ValueError("solve takes exactly one --gamma value")
    gamma = gammas[0]

    if args.tol is not None:
        result = solver.solve_adaptive(P, u0, targets, tol=args.tol,
                                       p_max=args.p_max, gamma=gamma)
        S, reports = result.solution, result.reports
        converged = result.converged
    else:
        S = solver.build(P, u0, args.p, gamma=gamma)
        reports = [S.error_report(t, e) for t, e in targets]
        converged = True

    lines = ["t,eps,p_used,aposteriori_estimate,apriori_total"]
    for r in reports:
        lines.append(",".join([
            _fmt(r.t), _fmt(r.eps), str(S.p),
            _fmt(r.total_estimate), _fmt(r.apriori_total),
        ]))
    _write_lines(args.out, lines)

    if args.save_solutions:
        os.makedirs(args.save_solutions, exist_ok=True)
        for idx, (t, e) in enumerate(targets):
            u = S.evaluate(t, e)
            save_vector(os.path.join(args.save_solutions, f"solution_{idx:03d}.mtx"), u)

    if not converged:
        print(f"tolerance not reached at p_max={S.p}", file=sys.stderr)
        return EXIT_TOL_UNREACHED
    return EXIT_OK


def _convergence_rows(P, u0, t, epss, p_max, gamma, refs):
    S_max = solver.build(P, u0, p_max, gamma=gamma)
    rows = []
    # after a breakdown at S_max.p < p_max the decomposition is exact
    for p in range(1, S_max.p + 1):
        S = S_max.with_p(p)
        for e in epss:
            err = float(np.linalg.norm(S.evaluate(t, e) - refs[e]))
            r = S.error_report(t, e)
            rows.append((p, e, err, r.total_estimate, r.apriori_total))
    return rows


def cmd_convergence(args) -> int:
    P, u0 = _load_problem(args)
    ts = _parse_reals(args.t, "--t")
    if len(ts) != 1:
        raise ValueError("convergence studies take exactly one --t value")
    t = ts[0]
    epss = _parse_list(args.eps) if args.eps else [0.0]
    gammas = _parse_reals(args.gamma, "--gamma") if args.gamma else [None]
    refs = {e: expm_multiply(t * P(e), u0) for e in epss}

    header = "p,eps,true_error,aposteriori_estimate,apriori_total"
    outputs = []
    for gi, gamma in enumerate(gammas):
        rows = _convergence_rows(P, u0, t, epss, args.p_max, gamma, refs)
        lines = [header]
        for p, e, err, est, bound in rows:
            lines.append(",".join([str(p), _fmt(e), _fmt(err), _fmt(est), _fmt(bound)]))
        if args.out is None or len(gammas) == 1:
            path = args.out
        else:
            stem, ext = os.path.splitext(args.out)
            path = f"{stem}_g{gi}{ext}"
        _write_lines(path, lines)
        if path is not None:
            outputs.append(path)

    if outputs:
        gp = [
            "set datafile separator ','",
            "set logscale y",
            "set xlabel 'iteration p'",
            "set ylabel '2-norm error'",
            "set key outside",
            "plot \\",
        ]
        plot_parts = []
        for path in outputs:
            plot_parts.append(
                f"  '{path}' using 1:3 with linespoints title '{path} error', \\\n"
                f"  '{path}' using 1:4 with lines title '{path} estimate'"
            )
        gp.append(", \\\n".join(plot_parts))
        _write_lines(os.path.splitext(outputs[0])[0] + ".gp", gp)
    return EXIT_OK


def cmd_generate(args) -> int:
    P, u0, params = _generate(args)
    print(problems.write_problem(args.out, args.problem, P, u0, params))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paramexpmv",
        description="Parameterized linear-ODE solver with adaptive Krylov iteration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve at (t, eps) targets")
    _add_problem_args(ps)
    ps.add_argument("--gamma", help="scaling parameter (default: heuristic; 1 turns scaling off)")
    ps.add_argument("--t", required=True, help="comma-separated time values")
    ps.add_argument("--eps", help="comma-separated parameter values (a+bi for complex)")
    steps = ps.add_mutually_exclusive_group(required=True)
    steps.add_argument("--tol", type=float, help="adaptive tolerance")
    steps.add_argument("--p", type=int, help="fixed iteration count")
    ps.add_argument("--p-max", type=int, default=solver.DEFAULT_P_MAX, help="iteration cap")
    ps.add_argument("--out", help="CSV output path (default stdout)")
    ps.add_argument("--save-solutions", help="directory for solution vectors")
    ps.set_defaults(func=cmd_solve)

    pc = sub.add_parser("convergence", help="error/estimate table over p")
    _add_problem_args(pc)
    pc.add_argument("--gamma", help="comma-separated scaling parameters to compare "
                    "(default: heuristic; 1 turns scaling off)")
    pc.add_argument("--t", required=True, help="time value")
    pc.add_argument("--eps", help="comma-separated parameter values")
    pc.add_argument("--p-max", type=int, default=60, help="largest iteration count")
    pc.add_argument("--out", help="CSV output path (default stdout)")
    pc.set_defaults(func=cmd_convergence)

    pg = sub.add_parser("generate", help="write a built-in problem to files")
    _add_problem_args(pg, manifest=False)
    pg.add_argument("--out", required=True, help="output directory")
    pg.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
