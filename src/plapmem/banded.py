"""Symmetric banded matrices with reusable banded factors.

A factor is the banded Cholesky factor when the matrix is positive
definite and falls back to a banded LU with partial pivoting otherwise;
which one is used follows from the factorization itself, not from an
option. Either is factored once and reused by every solve.

The four LAPACK routines used (dpbtrf, dpbtrs, dgbtrf, dgbtrs) come from
scipy's f2py extension `scipy/linalg/_flapack`, loaded by its file path:
that skips `scipy.linalg`'s package init, most of the cost of importing
this package. If the file is missing or fails to load, they come from
`scipy.linalg.lapack` instead, which hands out the same routine objects.
"""

import importlib.util
import os
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np

from .errors import LinearSolveError


def _flapack():
    scipy = importlib.util.find_spec("scipy")
    if scipy is not None and scipy.submodule_search_locations:
        folder = os.path.join(scipy.submodule_search_locations[0], "linalg")
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(folder, "_flapack" + suffix)
            if not os.path.isfile(path):
                continue
            # under scipy's own name, so a later `import scipy.linalg` reuses it
            spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
            try:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
            except (ImportError, OSError):
                break
            return module
    from scipy.linalg import lapack
    return lapack


_lapack = _flapack()
dgbtrf, dgbtrs = _lapack.dgbtrf, _lapack.dgbtrs
dpbtrf, dpbtrs = _lapack.dpbtrf, _lapack.dpbtrs


class BandedSymMatrix:
    """Symmetric band matrix, upper diagonals only: data[d, i] = A[i, i+d].

    Row d holds the d-th superdiagonal in its leading n-d entries; the
    trailing entries of each row are kept at zero. By symmetry this is also
    LAPACK's lower band layout (data[d, i] = A[i+d, i]), so the Cholesky
    factorization reads it without a repack. Matrices the solver keeps
    (mass, stiffness, system matrices) are never written to; a band it has
    just assembled for one iteration may be turned into that iteration's
    system matrix in place.
    """

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise ValueError("band storage must be 2-D (bandwidth+1, n)")
        self.data = data

    @property
    def n(self) -> int:
        return self.data.shape[1]

    @property
    def bandwidth(self) -> int:
        return self.data.shape[0] - 1

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x for one vector, or row by row for a block of shape (levels, n);
        each row of a block gets bitwise the product of that row alone."""
        x = np.asarray(x, dtype=float)
        data = self.data
        rows, n = data.shape
        y = data[0] * x
        for d in range(1, min(rows, n)):
            band = data[d, :n - d]
            y[..., :n - d] += band * x[..., d:]
            y[..., d:] += band * x[..., :n - d]
        return y

    def factor(self) -> "BandedFactor":
        return BandedFactor(self)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Factor and solve once; keep `factor()` to solve repeatedly."""
        return self.factor().solve(rhs)


class BandedFactor:
    """Factorization of a BandedSymMatrix, reusable across right-hand sides.

    Holds the banded Cholesky factor when the matrix is positive definite,
    and otherwise (an indefinite matrix) its banded LU factors with partial
    pivoting; a singular matrix raises LinearSolveError here.
    """

    def __init__(self, matrix: BandedSymMatrix):
        _require_finite(matrix.data)
        # LAPACK's own routines: the scipy wrappers around them cost several
        # times the factorization itself at the small sizes solved per step
        chol, info = dpbtrf(matrix.data, lower=1)
        if info < 0:
            raise LinearSolveError(f"banded Cholesky rejected argument {-info}")
        self._chol = chol if info == 0 else None
        self._lu = None if info == 0 else _lu_factor(matrix)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        _require_finite(rhs)
        if self._chol is None:
            bw, lu, piv = self._lu
            x, info = dgbtrs(lu, bw, bw, rhs, piv)
        else:
            x, info = dpbtrs(self._chol, rhs, lower=1)
        if info != 0:
            raise LinearSolveError(f"banded solve failed (info {info})")
        return _finite_solution(x)


def _require_finite(*arrays) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise LinearSolveError("non-finite entries in banded system")


def _finite_solution(x: np.ndarray) -> np.ndarray:
    if not np.isfinite(x).all():
        raise LinearSolveError("banded solve produced non-finite values "
                               "(singular system)")
    return x


def _lu_factor(matrix: BandedSymMatrix):
    """(bw, lu, piv): LAPACK dgbtrf of the full band, bw the bandwidth that
    fits n; upper diagonal d sits in row 2*bw - d, lower diagonal d in row
    2*bw + d, and the top bw rows are dgbtrf's fill-in space."""
    n = matrix.n
    bw = min(matrix.bandwidth, n - 1)
    ab = np.zeros((3 * bw + 1, n))
    for d in range(bw + 1):
        band = matrix.data[d, :n - d]
        ab[2 * bw - d, d:] = band
        ab[2 * bw + d, :n - d] = band
    lu, piv, info = dgbtrf(ab, bw, bw)
    if info != 0:
        raise LinearSolveError(f"banded LU failed (info {info}): singular matrix")
    return bw, lu, piv
