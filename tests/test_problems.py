import hashlib
import json
import re
from pathlib import Path

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


def wave_by_block_array(P, gamma1):
    """The wave coefficients and u0 as first built: the Laplacian from COO
    sums, the damping from DIA arrays, the blocks joined by block_array."""
    n3 = P ** 3
    idx = np.arange(n3)
    i, j, k = idx % P, (idx // P) % P, idx // (P * P)
    rows = np.concatenate([idx[c < P - 1] for c in (i, j, k)])
    cols = np.concatenate([idx[c < P - 1] + P ** a for a, c in enumerate((i, j, k))])
    upper = sp.coo_array((np.full(rows.size, -1.0), (rows, cols)), shape=(n3, n3))
    K = as_csr(upper + upper.T + sp.diags_array(np.full(n3, 6.0)))
    C1 = sp.diags_array(sum((c == 0).astype(float) for c in (i, j, k)))
    C2 = sp.diags_array(sum((c == P - 1).astype(float) for c in (i, j, k)))
    Z, I = sp.csr_array((n3, n3)), sp.eye_array(n3)
    A0 = as_csr(sp.block_array([[Z, I], [-K, -gamma1 * C1]]))
    A1 = as_csr(sp.block_array([[Z, Z], [Z, -C2]]))
    x, y, z = i / (P - 1.0), j / (P - 1.0), k / (P - 1.0)
    disp = np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)
    return [A0, A1], np.concatenate([disp, np.zeros(n3)])


@pytest.mark.parametrize("P", [3, 5, 8])
@pytest.mark.parametrize("gamma1", [0.0, 0.3, -1.5])
def test_wave_coefficients_match_block_array(P, gamma1):
    # the same entries, bit for bit; the index width may differ
    got, u0 = gen_wave(P, gamma1)
    ref, ref_u0 = wave_by_block_array(P, gamma1)
    for C, R in zip(got.coeffs, ref, strict=True):
        assert C.shape == R.shape and C.has_canonical_format
        assert C.data.tobytes() == R.data.tobytes()
        np.testing.assert_array_equal(C.indices, R.indices)
        np.testing.assert_array_equal(C.indptr, R.indptr)
    assert u0.tobytes() == ref_u0.tobytes()


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
    data = json.loads(Path(manifest).read_text())
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


def mistyped_manifest(tmp_path, kind) -> str:
    """Path of a written manifest with one value of the wrong JSON type."""
    P, u0 = generate("advdiff1", {"n": 8, "a": 1e-3})
    manifest = write_problem(tmp_path / "prob", "advdiff1", P, u0, {})
    data = json.loads(Path(manifest).read_text())
    if kind == "array":
        data = [data]
    elif kind == "paths":
        data["paths"] = ["A0.mtx", "A1.mtx", "u0.mtx"]
    elif kind == "coefficients":
        data["paths"]["coefficients"] = "A0.mtx"
    elif kind == "coefficient":
        data["paths"]["coefficients"] = ["A0.mtx", 1]
    else:
        data["paths"]["u0"] = ["u0.mtx"]
    with open(manifest, "w") as fh:
        json.dump(data, fh)
    return manifest


MISTYPED = [
    ("array", "manifest is not a JSON object"),
    ("paths", "'paths' is not a JSON object"),
    ("coefficients", "'coefficients' is not a list of strings"),
    ("coefficient", "'coefficients' is not a list of strings"),
    ("u0", "'u0' is not a string"),
]


@pytest.mark.parametrize("kind, what", MISTYPED)
def test_mistyped_manifest_names_file_and_key(tmp_path, kind, what):
    manifest = mistyped_manifest(tmp_path, kind)
    with pytest.raises(ValueError, match=re.escape(manifest) + ": " + re.escape(what)):
        load_manifest(manifest)


def test_load_problem_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError, match=re.escape(str(tmp_path / "nope.mtx"))):
        load_problem([tmp_path / "nope.mtx"], tmp_path / "u.mtx")
    save_matrix(tmp_path / "A0.mtx", np.eye(2))
    with pytest.raises(FileNotFoundError, match=re.escape(str(tmp_path / "u.mtx"))):
        load_problem([tmp_path / "A0.mtx"], tmp_path / "u.mtx")


def problem_digest(P, u0) -> str:
    """sha256 over each coefficient's indptr, indices (both as int64) and
    data, then u0: equal digests mean bit-identical problems, whatever the
    index width."""
    h = hashlib.sha256()
    for C in P.coeffs:
        for part in (C.indptr.astype(np.int64), C.indices.astype(np.int64), C.data):
            h.update(np.ascontiguousarray(part).tobytes())
    h.update(np.ascontiguousarray(u0).tobytes())
    return h.hexdigest()


# Recorded from the generators as first assembled: wave through SciPy's COO
# sums and block_array, advdiff through _tridiag. A generator rewrite must
# reproduce its problems bit for bit.
GOLDEN_DIGESTS = [
    ("wave", {"points": 3, "gamma1": 0.0},
     "af2169c17d47e4026b5acd18099502d5d5c3d48075883b2dd873d2889e666022"),
    ("wave", {"points": 3, "gamma1": 2.0},
     "e8ed5ae277b07288fb188d0816898c416e07e8ed527cd6b484e06894eab1d249"),
    ("wave", {"points": 4, "gamma1": 0.0},
     "a24e270f70251395e534d7768e294849d548e89c8c8701b8151a1dd8cee2d953"),
    ("wave", {"points": 4, "gamma1": 2.0},
     "fa0bb5244f7193db28b7419b005626017baf9de51df883f90b284351796fc98e"),
    ("wave", {"points": 15, "gamma1": 0.0},
     "e70415e1ac48677f54300a45af9622e824abc31efeb37403c01fc0288b956962"),
    ("wave", {"points": 15, "gamma1": 2.0},
     "d3f4fb0c3c90da692923e9d5bf9d4cfb98e589e65a20885e57e6a53e8049aeda"),
    ("advdiff1", {"n": 50, "a": 3e-4},
     "2ebd91973cd6f950976c7122c80e568dd0587cf959dcba360cded49ca515fdc2"),
    ("advdiff1", {"n": 2000, "a": 3e-4},
     "29ac5b450ca3d510656055717b715376fd22baa13001e595ecbfe1f10a68a082"),
    ("advdiff2", {"n": 40, "a": 3e-4, "b": 2e2},
     "7d2f558b0af00104be75364d553b0bd3990ecd3a8ec4cb3a7a9387c946dd4bbf"),
    ("advdiff2", {"n": 300, "a": 3e-4, "b": 2e2},
     "27f0d31e03c3c2e81d3d35a00dc8b590a48211ad9cd50482fa6594c1f33697b4"),
]


@pytest.mark.parametrize("name, params, expected", GOLDEN_DIGESTS,
                         ids=[f"{name}-" + "-".join(f"{k}={v:g}" for k, v in params.items())
                              for name, params, _ in GOLDEN_DIGESTS])
def test_generated_problem_matches_golden_digest(name, params, expected):
    P, u0 = generate(name, params)
    assert problem_digest(P, u0) == expected
    for C in P.coeffs:
        assert C.data.dtype == np.float64 and C.has_canonical_format
