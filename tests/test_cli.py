import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paramexpmv
import paramexpmv.arnoldi
import paramexpmv.cli
import paramexpmv.reference
import paramexpmv.solver
from paramexpmv.cli import main
from paramexpmv.linalg import load_vector
from paramexpmv.problems import generate, write_problem
from paramexpmv.reference import dense_solution
from paramexpmv.solver import build
from paramexpmv.toeplitz import MatrixPolynomial
from test_problems import MISTYPED, broken_manifest, mistyped_manifest


def read_csv(path):
    lines = [ln for ln in Path(path).read_text().splitlines() if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def test_solve_fixed_p_stdout(capsys):
    rc = main(["solve", "--problem", "advdiff1", "--n", "30", "--a", "1e-3",
               "--t", "0.5", "--eps", "1e-2", "--p", "15"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "t,eps,p_used,aposteriori_estimate,apriori_total"
    fields = out[1].split(",")
    assert float(fields[0]) == 0.5
    assert int(fields[2]) == 15


def test_solve_fixed_p_batches_the_estimates(monkeypatch, capsys):
    # a 2 x 3 grid: one contraction of q_{p+1} per eps and one small
    # exponential per t, and every row as error_report gives it
    args = ["solve", "--problem", "advdiff1", "--n", "30", "--a", "1e-3",
            "--t", "0.3,0.5", "--eps", "1e-3,1e-2,2e-2i", "--p", "15"]
    calls = {"power_sum": 0, "at": 0}

    def counted(name, real):
        def wrapper(*a):
            calls[name] += 1
            return real(*a)
        return wrapper

    monkeypatch.setattr(paramexpmv.arnoldi, "_power_sum",
                        counted("power_sum", paramexpmv.arnoldi._power_sum))
    monkeypatch.setattr(paramexpmv.arnoldi.KrylovDecomposition, "at",
                        counted("at", paramexpmv.arnoldi.KrylovDecomposition.at))
    assert main(args) == 0
    assert calls == {"power_sum": 3, "at": 2}
    monkeypatch.undo()
    rows = capsys.readouterr().out.splitlines()[1:]
    S = build(*generate("advdiff1", {"n": 30, "a": 1e-3}), 15)
    expected = []
    for t in (0.3, 0.5):
        for e in (1e-3, 1e-2, 2e-2j):
            r = S.error_report(t, e)
            expected.append(",".join([paramexpmv.cli._fmt(x) for x in (r.t, r.eps)] + [
                "15", paramexpmv.cli._fmt(r.total_estimate), paramexpmv.cli._fmt(r.apriori_total)]))
    assert rows == expected


def test_solve_adaptive_to_file(tmp_path):
    out = tmp_path / "res.csv"
    rc = main(["solve", "--problem", "advdiff1", "--n", "30", "--a", "1e-3",
               "--t", "0.5", "--eps", "1e-3,1e-2", "--tol", "1e-8",
               "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert len(rows) == 2
    assert all(float(r[3]) <= 1e-8 for r in rows)


def test_solve_saved_solutions_match_oracle(tmp_path):
    sols = tmp_path / "sols"
    rc = main(["solve", "--problem", "advdiff1", "--n", "40", "--a", "1e-3",
               "--t", "0.4", "--eps", "5e-3", "--tol", "1e-9",
               "--out", str(tmp_path / "r.csv"), "--save-solutions", str(sols)])
    assert rc == 0
    u = load_vector(sols / "solution_000.mtx")
    P, u0 = generate("advdiff1", {"n": 40, "a": 1e-3})
    ref = dense_solution(P, u0, 0.4, 5e-3)
    assert np.linalg.norm(u - ref) <= 1e-7


def test_solve_complex_eps(tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["solve", "--problem", "advdiff1", "--n", "20", "--a", "1e-3",
               "--t", "0.3", "--eps", "1e-3+2e-3i", "--p", "18",
               "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out)
    assert "i" in rows[0][1]


def test_solve_tolerance_unreached_exit_code(tmp_path):
    rc = main(["solve", "--problem", "advdiff1", "--n", "30", "--a", "1e-3",
               "--t", "0.5", "--eps", "1e-2", "--tol", "1e-30",
               "--p-max", "5", "--out", str(tmp_path / "x.csv")])
    assert rc == 3


def test_p_max_below_one_is_usage_error(capsys):
    assert main(["solve", "--problem", "advdiff1", "--n", "20", "--a", "3e-4",
                 "--t", "0.5", "--eps", "1e-3", "--tol", "1e-8", "--p-max", "0"]) == 2
    captured = capsys.readouterr()
    assert "--p-max must be at least 1" in captured.err
    assert captured.out == ""


def test_missing_problem_is_usage_error():
    assert main(["solve", "--t", "0.5", "--p", "5"]) == 2


def test_missing_t_is_usage_error():
    assert main(["solve", "--problem", "advdiff1", "--n", "10", "--a", "1e-3",
                 "--p", "5"]) == 2


@pytest.mark.parametrize("steps", [["--tol", "1e-8", "--p", "3"], []], ids=["both", "neither"])
def test_solve_takes_exactly_one_of_tol_and_p(steps, capsys):
    # --p used to be dropped silently when --tol was given too
    assert main(["solve", "--problem", "advdiff1", "--n", "10", "--a", "1e-3",
                 "--t", "0.5", *steps]) == 2
    captured = capsys.readouterr()
    assert "--tol" in captured.err and "--p" in captured.err
    assert captured.out == ""


def test_bad_scalar_is_usage_error():
    assert main(["solve", "--problem", "advdiff1", "--n", "10", "--a", "1e-3",
                 "--t", "abc", "--p", "5"]) == 2


def test_convergence_table(tmp_path):
    out = tmp_path / "conv.csv"
    rc = main(["convergence", "--problem", "advdiff1", "--n", "30", "--a", "1e-3",
               "--t", "0.5", "--eps", "1e-2", "--p-max", "20", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["p", "eps", "true_error", "aposteriori_estimate", "apriori_total"]
    assert len(rows) == 20
    errs = [float(r[2]) for r in rows]
    assert errs[-1] < errs[3] * 1e-3
    # gnuplot companion script
    assert (tmp_path / "conv.gp").exists()


def test_convergence_multi_gamma_files(tmp_path):
    out = tmp_path / "g.csv"
    rc = main(["convergence", "--problem", "advdiff1", "--n", "25", "--a", "1e-3",
               "--t", "0.5", "--eps", "1e-2", "--p-max", "12",
               "--gamma", "10,50", "--out", str(out)])
    assert rc == 0
    assert (tmp_path / "g_g0.csv").exists()
    assert (tmp_path / "g_g1.csv").exists()


@pytest.mark.parametrize("out, gammas, written", [
    ("conv", "10", ["conv", "conv.gp"]),
    ("conv", "10,50", ["conv_g0", "conv_g1", "conv_g0.gp"]),
    ("run.v2/conv", "10", ["run.v2/conv", "run.v2/conv.gp"]),
    ("run.v2/conv", "10,50", ["run.v2/conv_g0", "run.v2/conv_g1", "run.v2/conv_g0.gp"]),
])
def test_convergence_output_names(out, gammas, written, tmp_path, monkeypatch):
    # names split at the extension of the file name, never at a dot of the
    # directory part or of "./"
    (tmp_path / "run.v2").mkdir()
    monkeypatch.chdir(tmp_path)
    rc = main(["convergence", "--problem", "advdiff1", "--n", "10", "--a", "1e-3",
               "--t", "0.5", "--p-max", "4", "--gamma", gammas, "--out", "./" + out])
    assert rc == 0
    files = sorted(str(f.relative_to(tmp_path)) for f in tmp_path.rglob("*") if f.is_file())
    assert files == sorted(written)


def test_convergence_one_build_against_expm_multiply(tmp_path, monkeypatch):
    # one Arnoldi run at p = --p-max; the reference needs no dense oracle
    builds = []
    real_build = paramexpmv.solver.build
    monkeypatch.setattr(paramexpmv.solver, "build",
                        lambda P, u0, p, **kw: builds.append(p) or real_build(P, u0, p, **kw))

    def no_dense(*args, **kwargs):
        raise AssertionError("dense oracle called")

    monkeypatch.setattr(paramexpmv.reference, "dense_solution", no_dense)
    monkeypatch.setattr(paramexpmv.reference, "dense_coefficients", no_dense)
    out = tmp_path / "s.csv"
    rc = main(["convergence", "--problem", "advdiff1", "--n", "25", "--a", "1e-3",
               "--t", "0.5", "--eps", "1e-3,2e-2", "--p-max", "15", "--out", str(out)])
    assert rc == 0
    assert builds == [15]
    monkeypatch.undo()

    _, rows = read_csv(out)
    assert len(rows) == 30
    P, u0 = generate("advdiff1", {"n": 25, "a": 1e-3})
    S = build(P, u0, 15)
    refs = {e: dense_solution(P, u0, 0.5, e) for e in (1e-3, 2e-2)}
    for p, e, err, *_ in rows:
        expected = np.linalg.norm(S.with_p(int(p)).evaluate(0.5, float(e)) - refs[float(e)])
        assert abs(float(err) - expected) <= 1e-12
    assert float(rows[-2][2]) < 1e-10


def test_convergence_stops_at_breakdown(tmp_path):
    # degree 0 on n = 8: the Krylov space is exhausted after at most 8 steps
    P, u0 = generate("advdiff1", {"n": 8, "a": 1e-3})
    manifest = write_problem(tmp_path / "prob", "advdiff1-A0", MatrixPolynomial([P.coeffs[0]]),
                             u0, {})
    out = tmp_path / "b.csv"
    rc = main(["convergence", "--manifest", manifest, "--t", "0.5", "--p-max", "20",
               "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out)
    S = build(MatrixPolynomial([P.coeffs[0]]), u0, 20)
    assert S.decomposition.breakdown and S.p < 20
    assert [int(r[0]) for r in rows] == list(range(1, S.p + 1))
    assert float(rows[-1][2]) < 1e-12


def test_non_finite_data_is_usage_error(tmp_path, capsys):
    P, u0 = generate("advdiff1", {"n": 8, "a": 1e-3})
    A0 = P.coeffs[0].toarray()
    A0[2, 3] = np.nan
    manifest = write_problem(tmp_path / "nan", "advdiff1-nan",
                             MatrixPolynomial([A0, P.coeffs[1]]), u0, {})
    rc = main(["solve", "--manifest", manifest, "--t", "0.5", "--p", "5"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_empty_coefficient_list_is_usage_error(tmp_path, capsys):
    P, u0 = generate("advdiff1", {"n": 8, "a": 1e-3})
    manifest = write_problem(tmp_path / "empty", "advdiff1", P, u0, {})
    data = json.loads(Path(manifest).read_text())
    data["paths"]["coefficients"] = []
    with open(manifest, "w") as fh:
        json.dump(data, fh)
    rc = main(["solve", "--manifest", manifest, "--t", "0.5", "--p", "5"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("kind, what", [
    ("paths", "has no key 'paths'"), ("u0", "has no key 'u0'"), ("json", "invalid JSON"),
])
def test_broken_manifest_is_usage_error(tmp_path, capsys, kind, what):
    manifest = broken_manifest(tmp_path, kind)
    rc = main(["solve", "--manifest", manifest, "--t", "0.5", "--p", "5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: ") and what in err


@pytest.mark.parametrize("kind, what", MISTYPED)
def test_mistyped_manifest_is_usage_error(tmp_path, capsys, kind, what):
    manifest = mistyped_manifest(tmp_path, kind)
    rc = main(["solve", "--manifest", manifest, "--t", "0.5", "--p", "5"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {manifest}: {what}\n"


def test_missing_coefficient_file_is_usage_error(tmp_path, capsys):
    P, u0 = generate("advdiff1", {"n": 8, "a": 1e-3})
    manifest = write_problem(tmp_path / "gone", "advdiff1", P, u0, {})
    os.remove(tmp_path / "gone" / "A1.mtx")
    rc = main(["solve", "--manifest", manifest, "--t", "0.5", "--p", "5"])
    assert rc == 2
    assert str(tmp_path / "gone" / "A1.mtx") in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [
    ("--eps", "nan"), ("--eps", "inf"), ("--eps", "1e400"), ("--eps", "nan+1i"),
    ("--gamma", "inf"),
])
def test_non_finite_values_are_usage_errors(option, value, capsys):
    argv = ["solve", "--problem", "advdiff1", "--n", "20", "--a", "1e-3",
            "--t", "0.5", "--p", "10"]
    assert main(argv + [option, value]) == 2
    assert f"error: non-finite value '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("command, t, gamma", [
    ("solve", "0.5+1i", "1"),
    ("convergence", "0.5+1i", "1"),
    ("solve", "0.5", "2+1i"),
    ("convergence", "0.5", "1,2+1i"),
    ("solve", "0.5", "1,50"),
])
def test_complex_or_repeated_reals_are_usage_errors(command, t, gamma, tmp_path):
    argv = [command, "--problem", "advdiff1", "--n", "10", "--a", "1e-3",
            "--p-max", "5", "--out", str(tmp_path / "x.csv")]
    if command == "solve":
        argv += ["--p", "5"]
    assert main(argv + ["--t", "0.5", "--gamma", "1"]) == 0
    assert main(argv + ["--t", t, "--gamma", gamma]) == 2


@pytest.mark.parametrize("command", ["solve", "convergence"])
@pytest.mark.parametrize("values", [["--t", "0"], ["--t", "-0.5"], ["--t", "0.5", "--gamma", "0"]],
                         ids=["t=0", "t=-0.5", "gamma=0"])
def test_non_positive_t_or_gamma_fails_before_any_work(command, values, monkeypatch, capsys):
    # both are rejected with the option's name before any build or reference
    # solve: a negative t used to run expm_multiply to an overflow first
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(paramexpmv.solver, "build", no_work)
    monkeypatch.setattr(paramexpmv.cli, "expm_multiply", no_work)
    argv = [command, "--problem", "advdiff1", "--n", "200", "--a", "3e-4", "--p-max", "60"]
    if command == "solve":
        argv += ["--p", "80"]
    assert main(argv + values) == 2
    assert f"error: {values[-2]} takes positive values" in capsys.readouterr().err


@pytest.mark.parametrize("command, values", [
    ("solve", ["--tol", "0"]), ("solve", ["--tol", "-1"]), ("solve", ["--tol", "nan"]),
    ("solve", ["--p", "0"]), ("solve", ["--tol", "1e-8", "--p-max", "0"]),
    ("convergence", ["--p-max", "0"]), ("convergence", ["--p-max", "-3"]),
], ids=["solve-tol=0", "solve-tol=-1", "solve-tol=nan", "solve-p=0", "solve-p-max=0",
        "convergence-p-max=0", "convergence-p-max=-3"])
def test_bad_tol_or_step_count_fails_before_any_work(command, values, monkeypatch, capsys):
    # rejected with the option's name before the problem is made: these used
    # to fail in the library, after generating or loading the problem
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(paramexpmv.problems, "generate", no_work)
    argv = [command, "--problem", "advdiff1", "--n", "200", "--a", "3e-4", "--t", "0.5"]
    assert main(argv + values) == 2
    assert f"error: {values[-2]} must be" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "convergence"])
@pytest.mark.parametrize("option", ["--eps", "--gamma"])
@pytest.mark.parametrize("value", ["", " , "])
def test_empty_value_list_is_usage_error(command, option, value, tmp_path, capsys):
    # an empty --eps or --gamma is an error, not the default (eps = 0, heuristic gamma)
    argv = [command, "--problem", "advdiff1", "--n", "10", "--a", "1e-3", "--t", "0.5",
            "--p-max", "5", "--out", str(tmp_path / "x.csv")]
    if command == "solve":
        argv += ["--p", "5"]
    assert main(argv + [option, value]) == 2
    assert "error: empty value list" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_generate_and_reload(tmp_path):
    out = tmp_path / "prob"
    rc = main(["generate", "--problem", "advdiff2", "--n", "12", "--a", "1e-3",
               "--b", "2.0", "--out", str(out)])
    assert rc == 0
    assert (out / "manifest.json").exists()
    res = tmp_path / "from_manifest.csv"
    rc = main(["solve", "--manifest", str(out / "manifest.json"),
               "--t", "0.5", "--eps", "1e-2", "--p", "12", "--out", str(res)])
    assert rc == 0
    _, rows = read_csv(res)
    assert len(rows) == 1


def test_generate_requires_out():
    assert main(["generate", "--problem", "advdiff1", "--n", "10", "--a", "1e-3"]) == 2


@pytest.mark.parametrize("command", ["solve", "convergence"])
def test_exactly_one_problem_source(command, tmp_path, capsys):
    out = tmp_path / "prob"
    manifest = str(out / "manifest.json")
    assert main(["generate", "--problem", "advdiff1", "--n", "10", "--a", "1e-3",
                 "--out", str(out)]) == 0
    argv = [command, "--t", "0.5", "--p-max", "5", "--out", str(tmp_path / "x.csv")]
    if command == "solve":
        argv += ["--p", "5"]
    assert main(argv + ["--manifest", manifest]) == 0
    capsys.readouterr()
    # two sources, or none, are usage errors
    assert main(argv + ["--manifest", manifest, "--problem", "advdiff2", "--n", "12"]) == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert main(argv) == 2
    assert "one of the arguments --problem --manifest is required" in capsys.readouterr().err


def test_generate_rejects_manifest(tmp_path, capsys):
    assert main(["generate", "--problem", "advdiff1", "--n", "10", "--a", "1e-3",
                 "--manifest", "m.json", "--out", str(tmp_path / "prob")]) == 2
    assert "unrecognized arguments: --manifest" in capsys.readouterr().err
    assert not (tmp_path / "prob").exists()
    assert main(["generate", "--n", "10", "--a", "1e-3", "--out", str(tmp_path / "prob")]) == 2


def test_no_scaling_flag(tmp_path):
    out = tmp_path / "ns.csv"
    rc = main(["solve", "--problem", "advdiff1", "--n", "20", "--a", "1e-3",
               "--t", "0.2", "--eps", "1e-3", "--p", "25", "--gamma", "1",
               "--out", str(out)])
    assert rc == 0


def test_deterministic_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["solve", "--problem", "advdiff1", "--n", "30", "--a", "1e-3",
            "--t", "0.5", "--eps", "1e-2", "--p", "15"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_module_run_writes_csv(tmp_path):
    # the README's adaptive `solve` command, run as `python -m paramexpmv.cli`
    readme = Path(__file__).parent.parent.joinpath("README.md").read_text()
    command = re.search(r"^paramexpmv solve .*?--out \S+$", readme, re.M | re.S).group(0)
    argv = shlex.split(command.replace("\\\n", " "))
    assert argv[argv.index("--out") + 1] == "solutions.csv"
    package_root = os.path.dirname(os.path.dirname(paramexpmv.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "paramexpmv.cli", *argv[1:]],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    header, rows = read_csv(tmp_path / "solutions.csv")
    assert header == ["t", "eps", "p_used", "aposteriori_estimate", "apriori_total"]
    assert len(rows) == 3
