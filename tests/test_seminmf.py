import numpy as np
import pytest

from mvclust import seminmf
from mvclust.errors import RankDeficientError
from mvclust.seminmf import fit_seminmf, mp_pinv, pos_neg_split

from conftest import (
    direct_fit_seminmf,
    planted_two_blocks,
    run_in_fresh_interpreter,
    traced_peak,
    update_basis,
    update_representation,
)


def test_pos_neg_split_definition():
    plus, minus = pos_neg_split(np.array([[1.0, -2.0], [0.0, 3.0]]))
    assert np.array_equal(plus, [[1.0, 0.0], [0.0, 3.0]])
    assert np.array_equal(minus, [[0.0, 2.0], [0.0, 0.0]])


def test_pos_neg_split_zero():
    plus, minus = pos_neg_split(np.zeros((3, 3)))
    assert not plus.any() and not minus.any()


def test_pos_neg_split_roundtrip():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((5, 5))
    plus, minus = pos_neg_split(A)
    assert np.array_equal(plus - minus, A)
    assert plus.min() >= 0 and minus.min() >= 0
    assert not (plus * minus).any()


def test_update_basis_consistent_system():
    rng = np.random.default_rng(1)
    Z0 = rng.standard_normal((7, 3))
    H0 = rng.random((3, 15)) + 0.1
    X = Z0 @ H0
    Z = update_basis(X, H0)
    assert np.linalg.norm(X - Z @ H0) <= 1e-10


def test_update_basis_identity_representation():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((5, 4))
    Z = update_basis(X, np.eye(4))
    assert np.allclose(Z, X, atol=1e-12)


def test_update_basis_matches_normal_equations():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((8, 20))
    H = rng.random((3, 20))
    Z = update_basis(X, H)
    oracle = np.linalg.solve(H @ H.T, H @ X.T).T  # independent dense solve
    assert np.abs(Z - oracle).max() <= 1e-9


def test_update_basis_residual_orthogonality():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((6, 18))
    H = rng.random((4, 18))
    Z = update_basis(X, H)
    assert np.linalg.norm((X - Z @ H) @ H.T) <= 1e-8 * np.linalg.norm(X)


def test_update_basis_optimality_under_perturbation():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, 14))
    H = rng.random((3, 14))
    Z = update_basis(X, H)
    base = np.linalg.norm(X - Z @ H)
    for _ in range(100):
        delta = rng.standard_normal(Z.shape)
        delta *= 1e-3 / np.linalg.norm(delta)
        assert np.linalg.norm(X - (Z + delta) @ H) >= base


def test_pinv_raises_on_collapse():
    with pytest.raises(RankDeficientError):
        mp_pinv(np.zeros((3, 3)))
    with pytest.raises(RankDeficientError):
        mp_pinv(np.full((2, 2), np.nan))


def test_update_representation_fixed_point():
    rng = np.random.default_rng(6)
    Z = rng.standard_normal((7, 3))
    H = rng.random((3, 11)) + 0.05
    X = Z @ H
    H2 = update_representation(X, Z, H)
    assert np.abs(H2 - H).max() <= 1e-9 * max(1.0, np.abs(H).max())


def test_update_representation_keeps_zero_rows():
    rng = np.random.default_rng(7)
    Z = rng.standard_normal((6, 3))
    H = rng.random((3, 9))
    H[1] = 0.0
    X = rng.standard_normal((6, 9))
    H2 = update_representation(X, Z, H)
    assert not H2[1].any()
    assert H2.min() >= 0


def test_alternating_sweeps_monotone():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((6, 12))
    H = rng.random((3, 12))
    prev = np.inf
    for _ in range(50):
        Z = update_basis(X, H)
        H = update_representation(X, Z, H)
        res = np.linalg.norm(X - Z @ H)
        assert res <= prev + 1e-10
        assert H.min() >= 0
        prev = res


def test_fit_seminmf_recovers_planted_blocks():
    X, labels = planted_two_blocks(d=6, n=12, seed=0)
    res = fit_seminmf(X, 2, iters=200, seed=0)
    pred = res.H.argmax(axis=0)
    same = (pred == labels).all() or (pred == 1 - labels).all()
    assert same


def test_fit_seminmf_history_contract():
    # every sweep asked for runs, also where the reconstruction error settles
    # early (its relative change drops below 1e-6 by sweep 44 here)
    X = planted_two_blocks(d=20, n=40, noise=0.3, seed=1)[0]
    res = fit_seminmf(X, 2, iters=300, seed=4)
    assert res.iters == 300
    assert np.isfinite(res.Z).all() and np.isfinite(res.H).all()


def test_fit_seminmf_deterministic():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((6, 14))
    a = fit_seminmf(X, 3, iters=40, seed=11)
    b = fit_seminmf(X, 3, iters=40, seed=11)
    assert np.array_equal(a.Z, b.Z)
    assert np.array_equal(a.H, b.H)


def test_fit_seminmf_rejects_wide_layer():
    with pytest.raises(RankDeficientError):
        fit_seminmf(np.ones((4, 3)), 4, iters=5, seed=0)


def test_fit_seminmf_needs_a_sweep():
    with pytest.raises(ValueError, match="iters must be >= 1"):
        fit_seminmf(np.ones((4, 3)), 2, iters=0, seed=0)


def test_fit_seminmf_holds_no_dxn_array():
    # l x n products only; a d x n residual per sweep took 2.04 X.nbytes
    X = np.random.default_rng(23).standard_normal((2000, 300))
    assert traced_peak(fit_seminmf, X, 10, 3, 0) / X.nbytes <= 0.25


def test_fit_seminmf_sweeps_fault_no_pages_in():
    # a sweep writes into the layer's work arrays. When it allocated its
    # l x n temporaries instead, a fresh process's allocator returned them
    # to the OS on free and the next sweep faulted them back in: about 350
    # minor faults per sweep on this large-n-sized layer (l x n is 504 KB).
    # A first fit takes the one-off faults (imports, BLAS buffers), so the
    # two measured fits differ only by their sweeps
    pytest.importorskip("resource")
    code = (
        "import resource\n"
        "import numpy as np\n"
        "from mvclust.seminmf import fit_seminmf\n"
        "X = np.random.default_rng(0).standard_normal((24, 3000))\n"
        "def faults(sweeps):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    fit_seminmf(X, 21, sweeps, 0)\n"
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
        "fit_seminmf(X, 21, 1, 0)\n"
        "short = faults(10)\n"
        "print((faults(60) - short) / 50)\n"
    )
    proc = run_in_fresh_interpreter(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 5


@pytest.mark.parametrize("d", [20, 700], ids=["d<=n", "d>n"])
def test_fit_seminmf_certified_layer_forms_no_pinv(monkeypatch, d):
    # a well-conditioned H takes the l x l Gram solve in every sweep
    X = np.random.default_rng(24).standard_normal((d, 80))
    calls = []
    monkeypatch.setattr(seminmf, "mp_pinv", lambda *a, **k: calls.append(a) or mp_pinv(*a, **k))
    res = fit_seminmf(X, 6, iters=30, seed=1)
    assert calls == []
    oracle = direct_fit_seminmf(X, 6, 30, 1)
    assert np.abs(res.Z - oracle.Z).max() <= 1e-9 * np.abs(oracle.Z).max()
    assert np.abs(res.H - oracle.H).max() <= 1e-9 * np.abs(oracle.H).max()


@pytest.mark.parametrize("d, sweeps_forming_z", [(79, 30), (80, 0)], ids=["d<n", "d=n"])
def test_fit_seminmf_takes_the_kernel_form_from_d_equal_n(monkeypatch, d, sweeps_forming_z):
    # a certified direct sweep forms Z^T in every sweep; the kernel form
    # forms none, and the returned basis is X P from the right factor
    X = np.random.default_rng(26).standard_normal((d, 80))
    basis_t, calls = seminmf._basis_t, []
    monkeypatch.setattr(seminmf, "_basis_t", lambda *a: calls.append(a) or basis_t(*a))
    res = fit_seminmf(X, 6, iters=30, seed=1)
    assert len(calls) == sweeps_forming_z
    oracle = direct_fit_seminmf(X, 6, 30, 1)
    assert np.abs(res.Z - oracle.Z).max() <= 1e-9 * np.abs(oracle.Z).max()
    assert np.abs(res.H - oracle.H).max() <= 1e-9 * np.abs(oracle.H).max()
    # the right factor, no larger than the basis from d = n, gives the basis
    if d < 80:
        assert res.P is None
    else:
        assert np.array_equal(X @ res.P, res.Z)


def test_fit_seminmf_uncertified_basis_is_x_p(monkeypatch):
    # with no Gram certified every sweep takes pinv(H); from d = n the
    # basis is still exactly X P
    monkeypatch.setattr(seminmf, "_certified_gram", lambda H: None)
    X = np.random.default_rng(27).standard_normal((90, 80))
    res = fit_seminmf(X, 6, iters=5, seed=1)
    assert np.array_equal(X @ res.P, res.Z)
    oracle = direct_fit_seminmf(X, 6, 5, 1)
    assert np.abs(res.Z - oracle.Z).max() <= 1e-9 * np.abs(oracle.Z).max()


@pytest.mark.parametrize("d", [4, 12], ids=["d<=n", "d>n"])
@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf, -np.inf])
def test_fit_seminmf_bad_input_raises_rank_deficient(d, bad):
    # zero and non-finite inputs fail the Gram certificate and reach mp_pinv's
    # typed error (eigvalsh raises LinAlgError on an infinite 3 x 3 Gram)
    X = np.random.default_rng(25).standard_normal((d, 6))
    if bad == 0.0:
        X[:] = 0.0
    else:
        X[1, 2] = bad
    with pytest.raises(RankDeficientError):
        fit_seminmf(X, 3, iters=2, seed=0)
