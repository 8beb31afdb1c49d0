import json
import re

import numpy as np
import pytest
import scipy.sparse as sp

from paramexpmv.linalg import as_csr, save_matrix, two_norm_estimate
from paramexpmv.problems import (
    GENERATORS,
    gen_advdiff1,
    gen_advdiff2,
    gen_wave,
    generate,
    load_manifest,
    load_problem,
    write_problem,
)


def test_advdiff1_shapes():
    P, u0 = gen_advdiff1(50, 3e-4)
    assert P.dim == 50
    assert P.degree == 1
    assert u0.shape == (50,)


def test_advdiff1_stencils():
    P, u0 = gen_advdiff1(10, 1e-2)
    A0 = P.coeffs[0].toarray()
    A1 = P.coeffs[1].toarray()
    # tridiagonal second-difference and centered first-difference patterns
    assert A0[0, 0] < 0
    np.testing.assert_allclose(A0[0, 0], -2 * A0[0, 1])
    np.testing.assert_allclose(A1[0, 1], -A1[1, 0])
    assert A1[0, 0] == 0.0
    # initial profile vanishes at the boundary and peaks mid-interval
    assert u0.max() == pytest.approx(u0[len(u0) // 2], rel=0.05)
    assert u0.min() >= 0.0


def test_advdiff1_paper_scale_norms():
    P, _ = gen_advdiff1(200, 3e-4)
    t = 0.5
    assert t * two_norm_estimate(P.coeffs[0]) == pytest.approx(95.0, rel=0.05)
    assert t * 3e-2 * two_norm_estimate(P.coeffs[1]) == pytest.approx(12.0, rel=0.05)


def test_advdiff2_extends_advdiff1():
    P1, u1 = gen_advdiff1(30, 3e-4)
    P2, u2 = gen_advdiff2(30, 3e-4, 2e2)
    assert P2.degree == 2
    np.testing.assert_allclose(u1, u2)
    np.testing.assert_allclose(P1.coeffs[0].toarray(), P2.coeffs[0].toarray())
    np.testing.assert_allclose(P1.coeffs[1].toarray(), P2.coeffs[1].toarray())
    # A2 couples x with 1-x: antidiagonal structure
    A2 = P2.coeffs[2].toarray()
    assert A2[0, 29] != 0.0
    assert A2[0, 0] == 0.0
    np.testing.assert_allclose(A2, A2[::-1, ::-1].T)


def advdiff2_by_conversion(n, a, b):
    """The advdiff2 coefficients as first built: DIA and COO arrays converted
    to canonical CSR, the scalars applied as CSR products."""
    def tridiag(lower, diag, upper):
        return as_csr(sp.diags_array(
            [np.full(n - 1, lower), np.full(n, diag), np.full(n - 1, upper)],
            offsets=[-1, 0, 1],
        ))
    c = 2.0 * (n - 1)
    ar = np.arange(n)
    return [a * c * c * tridiag(1.0, -2.0, 1.0), c * tridiag(1.0, 0.0, -1.0),
            as_csr(sp.coo_array((np.full(n, 5.0 * b), (ar, n - 1 - ar)), shape=(n, n)))]


@pytest.mark.parametrize("n", [2, 3, 5, 300, 2000])
@pytest.mark.parametrize("a, b", [(3e-4, 2e2), (0.0, 0.0)])
def test_advdiff_coefficients_match_conversion(n, a, b):
    P, _ = gen_advdiff2(n, a, b)
    for got, ref in zip(P.coeffs, advdiff2_by_conversion(n, a, b), strict=True):
        assert type(got) is type(ref) and got.shape == ref.shape
        for name in ("data", "indices", "indptr"):
            x, y = getattr(got, name), getattr(ref, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        assert got.has_canonical_format and ref.has_canonical_format
        assert got.has_sorted_indices and ref.has_sorted_indices


def test_advdiff2_paper_scale_norm():
    P, _ = gen_advdiff2(200, 3e-4, 2e2)
    t = 0.5
    norm2 = two_norm_estimate(P.coeffs[2])
    assert t * 1.5e-2**2 * norm2 == pytest.approx(0.1125, rel=0.05)


def test_wave_dimensions():
    P, u0 = gen_wave(5, 2.0)
    n = 2 * 5**3
    assert P.dim == n
    assert u0.shape == (n,)
    # velocity half of the initial state is zero
    assert not u0[5**3:].any()
    assert u0[:5**3].any()


def test_wave_block_structure():
    m = 3**3
    P, _ = gen_wave(3, 1.5)
    A0 = P.coeffs[0].toarray()
    A1 = P.coeffs[1].toarray()
    # top-left block zero, top-right identity
    assert not A0[:m, :m].any()
    np.testing.assert_allclose(A0[:m, m:], np.eye(m))
    # damping enters only the velocity equations
    assert not A1[:m].any()
    assert not A1[:, :m].any()
    # A1 diagonal, nonpositive damping
    D = A1[m:, m:]
    assert np.allclose(D, np.diag(np.diag(D)))
    assert D.diagonal().max() <= 0.0
    assert D.diagonal().min() < 0.0


def test_wave_stiffness_symmetric_definite():
    m = 3**3
    P, _ = gen_wave(3, 1.0)
    A0 = P.coeffs[0].toarray()
    K = -A0[m:, :m]
    np.testing.assert_allclose(K, K.T)
    assert np.linalg.eigvalsh(K).min() > 0.0


def test_generate_registry_dispatch():
    P, u0 = generate("advdiff1", {"n": 20, "a": 1e-3})
    assert P.dim == 20
    assert u0.shape == (20,)
    with pytest.raises(ValueError):
        generate("unknown_problem", {})
    with pytest.raises(ValueError):
        generate("advdiff1", {"n": 20})


@pytest.mark.parametrize("name, params", [
    ("wave", {"points": 3.7, "gamma1": 1.0}),
    ("wave", {"points": 4.0, "gamma1": 1.0}),
    ("advdiff1", {"n": 20.5, "a": 1e-3}),
    ("advdiff2", {"n": "20", "a": 1e-3, "b": 1.0}),
], ids=["wave-3.7", "wave-4.0", "advdiff1-20.5", "advdiff2-str"])
def test_generate_rejects_non_integer_size(name, params):
    size = "points" if name == "wave" else "n"
    with pytest.raises(ValueError, match=f"{size} must be an integer"):
        generate(name, params)
    assert generate("advdiff1", {"n": np.int64(20), "a": 1e-3})[0].dim == 20


def test_generators_registry_names():
    assert set(GENERATORS) == {"advdiff1", "advdiff2", "wave"}


def test_problem_roundtrip(tmp_path):
    params = {"n": 15, "a": 1e-3, "b": 5.0}
    P, u0 = generate("advdiff2", params)
    out = tmp_path / "prob"
    manifest_path = write_problem(out, "advdiff2", P, u0, params)
    P2, u2 = load_manifest(manifest_path)
    np.testing.assert_allclose(u2, u0)
    assert P2.degree == 2
    for a, b in zip(P.coeffs, P2.coeffs):
        np.testing.assert_allclose(a.toarray(), b.toarray(), atol=1e-14)
    # direct file loading agrees
    paths = [out / f"A{i}.mtx" for i in range(3)]
    P3, u3 = load_problem(paths, out / "u0.mtx")
    np.testing.assert_allclose(u3, u0)


def test_manifest_contents(tmp_path):
    params = {"n": 8, "a": 1e-2}
    P, u0 = generate("advdiff1", params)
    out = tmp_path / "m"
    write_problem(out, "advdiff1", P, u0, params)
    data = json.loads((out / "manifest.json").read_text())
    assert data["name"] == "advdiff1"
    assert data["n"] == 8
    assert data["parameters"]["a"] == 1e-2
    assert data["paths"]["coefficients"] == ["A0.mtx", "A1.mtx"]


def broken_manifest(tmp_path, kind) -> str:
    """Path of a written manifest with its paths or its u0 entry removed, or
    replaced by text that is not JSON."""
    P, u0 = generate("advdiff1", {"n": 8, "a": 1e-3})
    manifest = write_problem(tmp_path / "prob", "advdiff1", P, u0, {})
    data = json.loads(open(manifest).read())
    if kind == "paths":
        del data["paths"]
    elif kind == "u0":
        del data["paths"]["u0"]
    with open(manifest, "w") as fh:
        fh.write("not json" if kind == "json" else json.dumps(data))
    return manifest


@pytest.mark.parametrize("kind, what", [
    ("paths", "has no key 'paths'"), ("u0", "has no key 'u0'"), ("json", "invalid JSON"),
])
def test_broken_manifest_names_file_and_fault(tmp_path, kind, what):
    manifest = broken_manifest(tmp_path, kind)
    with pytest.raises(ValueError, match=re.escape(manifest) + ".*" + re.escape(what)):
        load_manifest(manifest)


def test_load_problem_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError, match=re.escape(str(tmp_path / "nope.mtx"))):
        load_problem([tmp_path / "nope.mtx"], tmp_path / "u.mtx")
    save_matrix(tmp_path / "A0.mtx", np.eye(2))
    with pytest.raises(FileNotFoundError, match=re.escape(str(tmp_path / "u.mtx"))):
        load_problem([tmp_path / "A0.mtx"], tmp_path / "u.mtx")
