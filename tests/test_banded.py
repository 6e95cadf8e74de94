import numpy as np
import pytest

from plapmem import LinearSolveError
from plapmem.banded import BandedSymMatrix


def random_banded(n, bw, seed=0, definite=True):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((bw + 1, n))
    for d in range(1, bw + 1):
        data[d, max(n - d, 0):] = 0.0
    # diagonal dominance keeps it solvable; alternating signs make it indefinite
    sign = np.ones(n) if definite else (-1.0) ** np.arange(n)
    data[0] += sign * (bw + 2.0)
    return BandedSymMatrix(data)


class TestBandedSymMatrix:
    @pytest.mark.parametrize("n,bw", [(1, 0), (1, 2), (5, 1), (8, 3), (12, 4)])
    def test_matvec_matches_dense(self, n, bw):
        mat = random_banded(n, bw, seed=n + bw)
        rng = np.random.default_rng(42)
        x = rng.standard_normal(n)
        assert np.allclose(mat.matvec(x), mat.to_dense() @ x, atol=1e-13)

    @pytest.mark.parametrize("n,bw", [(1, 0), (1, 2), (5, 1), (12, 4)])
    def test_matvec_of_a_block_is_row_by_row(self, n, bw):
        mat = random_banded(n, bw, seed=n + bw)
        block = np.random.default_rng(7).standard_normal((9, n))
        products = mat.matvec(block)
        assert products.shape == block.shape
        assert all(np.array_equal(row, mat.matvec(x)) for row, x in zip(products, block))

    @pytest.mark.parametrize("n,bw,definite", [
        pytest.param(1, 1, True, id="1-1"),
        pytest.param(6, 1, True, id="6-1"),
        pytest.param(9, 2, True, id="9-2"),
        pytest.param(15, 4, True, id="15-4"),
        # indefinite bands take the banded LU fallback
        pytest.param(6, 1, False, id="indefinite-6-1"),
        pytest.param(15, 4, False, id="indefinite-15-4"),
    ])
    def test_solve_matches_dense(self, n, bw, definite):
        mat = random_banded(n, bw, seed=3 * n + bw, definite=definite)
        factor = mat.factor()
        assert factor.is_cholesky == definite
        rng = np.random.default_rng(1)
        for rhs in rng.standard_normal((2, n)):    # one factor, reused
            x = factor.solve(rhs)
            assert np.allclose(mat.to_dense() @ x, rhs, atol=1e-11)
            assert np.array_equal(x, mat.solve(rhs))

    @pytest.mark.parametrize("n,bw", [(1, 0), (1, 2), (6, 1), (9, 2), (39, 1), (40, 4)])
    def test_one_call_solve_equals_factor_solve(self, n, bw, monkeypatch):
        import plapmem.banded as banded
        mat = random_banded(n, bw, seed=5 * n + bw)
        rhs = np.random.default_rng(n).standard_normal(n)
        expected = mat.factor().solve(rhs)
        calls = []
        original = banded.dpbsv

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(banded, "dpbsv", counting)
        assert np.array_equal(mat.solve(rhs), expected)
        assert len(calls) == 1

    @pytest.mark.parametrize("n,bw", [(2, 1), (6, 1), (9, 2), (15, 4)])
    def test_one_call_solve_falls_back_to_lu(self, n, bw):
        mat = random_banded(n, bw, seed=7 * n + bw, definite=False)
        assert not mat.factor().is_cholesky
        rhs = np.random.default_rng(n).standard_normal(n)
        x = mat.solve(rhs)
        assert np.allclose(x, np.linalg.solve(mat.to_dense(), rhs), atol=1e-12)
        assert np.array_equal(x, mat.factor().solve(rhs))

    def test_arithmetic(self):
        a = random_banded(6, 2, seed=1)
        b = random_banded(6, 2, seed=2)
        x = np.arange(6.0)
        combo = 2.0 * a + b - 0.5 * b
        expect = 2.0 * a.to_dense() + 0.5 * b.to_dense()
        assert np.allclose(combo.matvec(x), expect @ x)

    def test_dense_is_symmetric(self):
        dense = random_banded(7, 3, seed=9).to_dense()
        assert np.allclose(dense, dense.T)

    def test_singular_raises(self):
        mat = BandedSymMatrix(np.zeros((2, 4)))
        with pytest.raises(LinearSolveError):
            mat.solve(np.ones(4))
        # [[1, 1], [1, 1]]: semidefinite and singular, Cholesky and LU fail
        semidefinite = BandedSymMatrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(LinearSolveError):
            semidefinite.factor().solve(np.ones(2))

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
