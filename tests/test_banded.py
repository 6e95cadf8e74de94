import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fe_oracles import to_dense
from plapmem import LinearSolveError
from plapmem.banded import BandedSymMatrix

SRC = Path(__file__).resolve().parent.parent / "src"


def random_banded(n, bw, seed=0, definite=True):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((bw + 1, n))
    for d in range(1, bw + 1):
        data[d, max(n - d, 0):] = 0.0
    # a diagonal shift keeps it solvable; alternating signs make it indefinite
    sign = np.ones(n) if definite else (-1.0) ** np.arange(n)
    data[0] += sign * (bw + 2.0)
    if definite:    # strict diagonal dominance: positive definite (Gershgorin)
        data[0] = np.abs(data[0])
        for d in range(1, bw + 1):
            band = np.abs(data[d, :n - d])
            data[0, :n - d] += band
            data[0, d:] += band
    return BandedSymMatrix(data)


class TestBandedSymMatrix:
    # the last three are the workloads' shapes (r = 1 at m = 40 and 256,
    # r = 4 at m = 256)
    @pytest.mark.parametrize("n,bw", [(1, 0), (1, 2), (5, 1), (8, 3), (12, 4),
                                      (39, 1), (255, 1), (1023, 4)])
    def test_matvec_matches_dense(self, n, bw):
        mat = random_banded(n, bw, seed=n + bw)
        rng = np.random.default_rng(42)
        x = rng.standard_normal(n)
        assert np.allclose(mat.matvec(x), to_dense(mat) @ x, atol=1e-13)

    @pytest.mark.parametrize("n,bw", [(1, 0), (1, 2), (5, 1), (12, 4), (39, 1)])
    def test_row_major_band_gives_the_same_product(self, n, bw):
        rows = random_banded(n, bw, seed=n + bw)
        columns = BandedSymMatrix(np.asfortranarray(rows.data))
        assert rows.data.flags.c_contiguous and columns.data.flags.f_contiguous
        x = np.random.default_rng(n).standard_normal(n)
        assert np.array_equal(rows.matvec(x), columns.matvec(x))

    # (n, bw) with bw >= n too; each band row-major and column-major
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n,bw", [(1, 0), (1, 2), (2, 2), (5, 1), (12, 4),
                                      (39, 1)])
    def test_scaled_product_onto_base_matches_dense(self, n, bw, order):
        mat = random_banded(n, bw, seed=n + bw)
        mat = BandedSymMatrix(np.asarray(mat.data, order=order))
        rng = np.random.default_rng(n)
        x, base = rng.standard_normal(n), rng.standard_normal(n)
        given = base.copy()
        for scale in (1.0, -0.37, 0.0):
            product = mat.matvec(x, scale, base)
            assert np.allclose(product, base + scale * (to_dense(mat) @ x),
                               rtol=0, atol=1e-13)
            assert product is not base and np.array_equal(base, given)
        assert np.allclose(mat.matvec(x, -0.37), -0.37 * (to_dense(mat) @ x),
                           rtol=0, atol=1e-13)

    # (4, 5) is a block of vectors: matvec takes one vector only
    @pytest.mark.parametrize("shape", [(4,), (6,), (3, 6), (), (5, 1), (4, 5)])
    def test_matvec_of_another_length_rejected(self, shape):
        with pytest.raises(ValueError, match="cannot multiply a band of n = 5"):
            random_banded(5, 2).matvec(np.ones(shape))

    # and adds it onto one vector of its own length: the same error
    @pytest.mark.parametrize("shape", [(4,), (6,), (3, 6), (), (5, 1), (4, 5)])
    def test_base_of_another_length_rejected(self, shape):
        with pytest.raises(ValueError, match=r"cannot multiply a band of n = 5 with an "
                                             rf"array of shape {re.escape(str(shape))}"):
            random_banded(5, 2).matvec(np.ones(5), 1.0, np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n,bw,where", [(12, 4, 0), (12, 4, 6), (12, 4, 11),
                                            (9, 1, 4), (9, 2, 8)])
    def test_nonfinite_entry_of_x_reaches_the_rows_it_touches(self, n, bw, where, bad):
        x = np.random.default_rng(n).standard_normal(n)
        x[where] = bad
        product = random_banded(n, bw, seed=n + bw).matvec(x)
        touched = np.abs(np.arange(n) - where) <= bw
        assert np.array_equal(~np.isfinite(product), touched)

    @pytest.mark.parametrize("d,i", [(0, 0), (0, 5), (1, 3), (2, 7)])
    def test_inf_in_the_band_times_zero_is_nan(self, d, i):
        # A[i, i+d] = A[i+d, i] = inf, x = 0: rows i and i+d get inf * 0
        data = np.asfortranarray(random_banded(10, 2, seed=1).data)
        data[d, i] = np.inf
        product = BandedSymMatrix(data).matvec(np.zeros(10))
        assert np.array_equal(np.flatnonzero(np.isnan(product)), sorted({i, i + d}))
        assert not np.delete(product, [i, i + d]).any()

    @pytest.mark.parametrize("n,bw,definite", [
        pytest.param(1, 0, True, id="1-0"),
        pytest.param(1, 1, True, id="1-1"),
        pytest.param(1, 2, True, id="1-2"),
        pytest.param(6, 1, True, id="6-1"),
        pytest.param(9, 2, True, id="9-2"),
        pytest.param(15, 4, True, id="15-4"),
        pytest.param(39, 1, True, id="39-1"),
        pytest.param(40, 4, True, id="40-4"),
        # tridiagonal bands with n >= 2 take LDL^T (dpttrf)
        pytest.param(2, 1, True, id="2-1"),
        pytest.param(3, 1, True, id="3-1"),
        pytest.param(255, 1, True, id="255-1"),
        # indefinite bands take the banded LU fallback
        pytest.param(6, 1, False, id="indefinite-6-1"),
        pytest.param(15, 4, False, id="indefinite-15-4"),
        pytest.param(2, 1, False, id="indefinite-2-1"),
        pytest.param(3, 1, False, id="indefinite-3-1"),
        pytest.param(255, 1, False, id="indefinite-255-1"),
        pytest.param(3, 4, False, id="indefinite-3-4"),    # wider than n - 1
    ])
    def test_solve_matches_dense(self, n, bw, definite):
        mat = random_banded(n, bw, seed=3 * n + bw, definite=definite)
        factor = mat.factor()
        assert (factor._lu is None) == definite
        # the width picks the definite routine: LDL^T for a tridiagonal band
        assert (factor._ldl is not None) == (bw == 1 and n >= 2)
        rng = np.random.default_rng(1)
        # one factor, reused: two vectors and an (n, 3) block
        for rhs in (*rng.standard_normal((2, n)), rng.standard_normal((n, 3))):
            x = factor.solve(rhs)
            assert x.shape == rhs.shape
            assert np.allclose(to_dense(mat) @ x, rhs, atol=1e-11)
            assert np.array_equal(x, mat.solve(rhs))

    @pytest.mark.parametrize("n,bw", [(6, 1), (9, 2)])
    def test_one_call_solve_equals_factor_solve(self, n, bw, monkeypatch):
        import plapmem.banded as banded
        mat = random_banded(n, bw, seed=5 * n + bw)
        rhs = np.random.default_rng(n).standard_normal(n)
        expected = mat.factor().solve(rhs)
        calls = dict.fromkeys(("dptsv", "dpbsv", "dpttrf", "dpbtrf", "dgbtrf"), 0)

        def counting(name):
            original = getattr(banded, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(banded, name, counting(name))
        assert np.array_equal(mat.solve(rhs), expected)
        # a definite band solved once is one driver call, with no separate
        # factorization and no LU: LDL^T's dptsv when it is tridiagonal,
        # banded Cholesky's dpbsv otherwise
        assert calls == {"dptsv": int(bw == 1), "dpbsv": int(bw != 1),
                         "dpttrf": 0, "dpbtrf": 0, "dgbtrf": 0}

    def test_lu_is_factored_once(self, monkeypatch):
        import plapmem.banded as banded
        calls = []
        original = banded.dgbtrf

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(banded, "dgbtrf", counting)
        factor = random_banded(15, 4, seed=2, definite=False).factor()
        for rhs in np.random.default_rng(3).standard_normal((2, 15)):
            factor.solve(rhs)
        assert len(calls) == 1

    @pytest.mark.parametrize("n,bw", [(2, 1), (6, 1), (39, 1), (9, 2), (15, 4), (40, 4)])
    def test_lu_matches_solve_banded(self, n, bw):
        from scipy.linalg import solve_banded
        mat = random_banded(n, bw, seed=11 * n + bw, definite=False)
        factor = mat.factor()
        assert factor._lu[1].shape == (3 * bw + 1, n)     # dgbtrf's band
        ab = np.zeros((2 * bw + 1, n))                    # solve_banded's
        for d in range(bw + 1):
            ab[bw - d, d:] = ab[bw + d, :n - d] = mat.data[d, :n - d]
        rng = np.random.default_rng(n)
        for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            x, expected = factor.solve(rhs), solve_banded((bw, bw), ab, rhs)
            if bw >= 2:     # the same dgbtrf + dgbtrs; scipy takes gtsv for (1, 1)
                assert np.array_equal(x, expected)
            else:
                assert np.max(np.abs(x - expected)) <= 1e-15 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n,bw", [(2, 1), (6, 1), (9, 2), (15, 4)])
    def test_one_call_solve_falls_back_to_lu(self, n, bw):
        mat = random_banded(n, bw, seed=7 * n + bw, definite=False)
        assert mat.factor()._lu is not None
        rhs = np.random.default_rng(n).standard_normal(n)
        x = mat.solve(rhs)
        assert np.allclose(x, np.linalg.solve(to_dense(mat), rhs), atol=1e-12)
        assert np.array_equal(x, mat.factor().solve(rhs))

    def test_dense_is_symmetric(self):
        dense = to_dense(random_banded(7, 3, seed=9))
        assert np.allclose(dense, dense.T)

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 4)])
    def test_storage_must_be_2d(self, shape):
        with pytest.raises(ValueError, match="must be 2-D"):
            BandedSymMatrix(np.ones(shape))

    def test_singular_raises(self):
        mat = BandedSymMatrix(np.zeros((2, 4)))
        with pytest.raises(LinearSolveError):
            mat.solve(np.ones(4))
        # [[1, 1], [1, 1]]: semidefinite and singular, Cholesky and LU fail
        # when it is factored
        semidefinite = BandedSymMatrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(LinearSolveError):
            semidefinite.factor()

    def test_nonfinite_raises(self):
        data = np.ones((1, 3))
        data[0, 1] = np.nan
        with pytest.raises(LinearSolveError):
            BandedSymMatrix(data).solve(np.ones(3))
        with pytest.raises(LinearSolveError):
            BandedSymMatrix(data).factor()
        factor = random_banded(3, 1).factor()
        for bad in (np.nan, np.inf):
            with pytest.raises(LinearSolveError):
                factor.solve(np.array([1.0, bad, 1.0]))
        # +inf on the last diagonal entry: LDL^T would end in d[-1] = inf and
        # a finite but wrong solution, so the factorization itself refuses it
        data = random_banded(5, 1).data
        data[0, -1] = np.inf
        with pytest.raises(LinearSolveError, match="non-finite entries in banded system"):
            BandedSymMatrix(data).factor()
        # and so does the one-call solve, before its driver sees the band
        with pytest.raises(LinearSolveError, match="non-finite entries in banded system"):
            BandedSymMatrix(data).solve(np.ones(5))

    @pytest.mark.parametrize("definite,bw,bad,where", [
        pytest.param(True, 2, np.nan, 1, id="cholesky"),
        pytest.param(False, 2, np.nan, 1, id="lu"),
    ] + [
        pytest.param(definite, bw, bad, where, id=f"{kind}-bw{bw}-{name}-{place}")
        for definite, kind in ((True, "definite"), (False, "indefinite"))
        for bw in (1, 2)
        for bad, name in ((np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf"))
        for where, place in ((0, "first"), (2, "middle"), (4, "last"))
    ])
    def test_nonfinite_rhs_named_as_input(self, definite, bw, bad, where):
        # not as a singular system, which is what the solve would report,
        # by a reused factor and by the one-call solve alike
        matrix = random_banded(5, bw, seed=3, definite=definite)
        factor = matrix.factor()
        assert (factor._lu is None) == definite
        rhs = np.ones(5)
        rhs[where] = bad
        for solve in (factor.solve, matrix.solve):
            with pytest.raises(LinearSolveError,
                               match="non-finite entries in banded system"):
                solve(rhs)

    def test_overflowing_solve_reported_singular(self):
        # finite inputs: the Cholesky factor of [[1e-308]] is 1e-154, and
        # 10 / 1e-154 / 1e-154 overflows to inf
        factor = BandedSymMatrix(np.array([[1e-308]])).factor()
        with pytest.raises(LinearSolveError,
                           match=r"produced non-finite values \(singular system\)"):
            factor.solve(np.array([10.0]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [None, np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("shape, order, where", [
        ((39,), "C", 0), ((39,), "C", 38), ((2, 39), "F", (1, 20)),
        ((5, 13), "C", (4, 12)), ((6, 8), "C", (2, 3)), ((0,), "C", None)])
    @pytest.mark.parametrize("scale", [1.0, 1e200])     # squares overflow at 1e200
    def test_all_finite_is_the_finiteness_mask(self, bad, shape, order, where, scale):
        # by one dot product, or by the mask where the squares overflowed;
        # either way without a warning
        from plapmem.banded import all_finite
        a = scale * np.asarray(np.random.default_rng(1).standard_normal(shape), order=order)
        if shape == (6, 8):
            a = a[:, ::2]       # not contiguous
        if bad is not None and where is not None:
            a[where] = bad
        assert all_finite(a) == bool(np.isfinite(a).all())



# Run in a new interpreter after a prelude: factors the saved definite,
# indefinite and tridiagonal bands, saves their solves for a vector and a
# 3-column right-hand side and their products with the vector, and reports
# where the routines came from, which of scipy.linalg, numpy.f2py and
# numpy.testing `import plapmem` loaded, and whether a later
# scipy.linalg.lapack Cholesky solve and scipy.linalg.blas product of the
# definite band are bitwise the same.
FRESH_SOLVES = """
import json
import sys

import numpy as np
import plapmem
from plapmem.banded import BandedSymMatrix

loaded = sorted(set(sys.modules) & {"scipy.linalg", "numpy.f2py", "numpy.testing"})
given = np.load(sys.argv[1])
solves = {}
for band in ("definite", "indefinite", "tridiagonal"):
    matrix = BandedSymMatrix(np.asfortranarray(given[band]))
    factor = matrix.factor()
    for rhs in ("vector", "block"):
        solves[f"{band}-{rhs}"] = factor.solve(given[rhs])
    solves[f"{band}-vector-product"] = matrix.matvec(given["vector"])
np.savez(sys.argv[2], **solves)

from scipy.linalg import blas, lapack
chol, _ = lapack.dpbtrf(given["definite"], lower=1)
x, _ = lapack.dpbtrs(chol, given["vector"], lower=1)
y = blas.dsbmv(4, 1.0, given["definite"], given["vector"], lower=1)
print(json.dumps({"routines": [plapmem.banded._lapack.__name__,
                               plapmem.banded._blas.__name__],
                  "loaded": loaded,
                  "same": bool(np.array_equal(x, solves["definite-vector"])
                               and np.array_equal(y, solves["definite-vector-product"]))}))
"""


def fresh_solves(tmp_path, name, prelude=""):
    """(solves, report) of FRESH_SOLVES run after `prelude` in a new process."""
    bands = {"definite": random_banded(15, 4, seed=4),
             "indefinite": random_banded(15, 4, seed=4, definite=False),
             "tridiagonal": random_banded(15, 1, seed=4)}
    assert bands["definite"].factor()._lu is None
    assert bands["indefinite"].factor()._lu is not None
    assert bands["tridiagonal"].factor()._ldl is not None
    rng = np.random.default_rng(8)
    given, out = tmp_path / "given.npz", tmp_path / f"{name}.npz"
    np.savez(given, vector=rng.standard_normal(15), block=rng.standard_normal((15, 3)),
             **{band: mat.data for band, mat in bands.items()})
    done = subprocess.run(
        [sys.executable, "-c", prelude + FRESH_SOLVES, str(given), str(out)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        timeout=120, check=True)
    with np.load(out) as solves:
        return dict(solves), json.loads(done.stdout)


class TestLapackLoader:
    def test_import_leaves_scipy_linalg_unloaded(self, tmp_path):
        _, report = fresh_solves(tmp_path, "direct")
        assert report == {"routines": ["scipy.linalg._flapack", "scipy.linalg._fblas"],
                          "loaded": [], "same": True}

    def test_fallback_gives_the_same_solves(self, tmp_path):
        direct, _ = fresh_solves(tmp_path, "direct")
        # no extension suffix: the file lookup finds nothing, and the
        # routines come from scipy.linalg.lapack and scipy.linalg.blas
        fallback, report = fresh_solves(
            tmp_path, "fallback",
            "import importlib.machinery\nimportlib.machinery.EXTENSION_SUFFIXES.clear()\n")
        assert report["routines"] == ["scipy.linalg.lapack", "scipy.linalg.blas"]
        assert "scipy.linalg" in report["loaded"] and report["same"]
        assert sorted(direct) == sorted(fallback) == sorted(
            f"{band}-{kind}" for band in ("definite", "indefinite", "tridiagonal")
            for kind in ("block", "vector", "vector-product"))
        for key, value in direct.items():
            assert value.shape == ((15, 3) if key.endswith("-block") else (15,))
            assert np.array_equal(value, fallback[key])
