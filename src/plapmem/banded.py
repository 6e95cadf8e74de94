"""Symmetric banded matrices with reusable banded factors.

A factor is the banded Cholesky factor when the matrix is positive
definite and falls back to a banded LU otherwise; which one is used
follows from the factorization itself, not from an option.
"""

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dpbsv, dpbtrf, dpbtrs

from .errors import LinearSolveError


class BandedSymMatrix:
    """Symmetric band matrix, upper diagonals only: data[d, i] = A[i, i+d].

    Row d holds the d-th superdiagonal in its leading n-d entries; the
    trailing entries of each row are kept at zero. By symmetry this is also
    LAPACK's lower band layout (data[d, i] = A[i+d, i]), so the Cholesky
    factorization reads it without a repack. Instances are treated as
    immutable by the solver (all arithmetic returns new matrices).
    """

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise ValueError("band storage must be 2-D (bandwidth+1, n)")
        self.data = data

    @classmethod
    def zeros(cls, n: int, bandwidth: int) -> "BandedSymMatrix":
        return cls(np.zeros((bandwidth + 1, n)))

    @property
    def n(self) -> int:
        return self.data.shape[1]

    @property
    def bandwidth(self) -> int:
        return self.data.shape[0] - 1

    def copy(self) -> "BandedSymMatrix":
        return BandedSymMatrix(self.data.copy())

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

    def __add__(self, other):
        if not isinstance(other, BandedSymMatrix) or other.data.shape != self.data.shape:
            return NotImplemented
        return BandedSymMatrix(self.data + other.data)

    def __sub__(self, other):
        if not isinstance(other, BandedSymMatrix) or other.data.shape != self.data.shape:
            return NotImplemented
        return BandedSymMatrix(self.data - other.data)

    def __mul__(self, c):
        if not np.isscalar(c):
            return NotImplemented
        return BandedSymMatrix(self.data * float(c))

    __rmul__ = __mul__

    def to_dense(self) -> np.ndarray:
        n = self.n
        dense = np.zeros((n, n))
        for d in range(self.bandwidth + 1):
            if d >= n:
                break
            diag = self.data[d, :n - d]
            dense += np.diag(diag, d)
            if d > 0:
                dense += np.diag(diag, -d)
        return dense

    def _lu_band(self):
        """(bw, ab): the bandwidth that fits n and the (2*bw+1, n)
        diagonal-ordered form of solve_banded."""
        bw, n = min(self.bandwidth, self.n - 1), self.n
        ab = np.zeros((2 * bw + 1, n))
        for d in range(bw + 1):
            band = self.data[d, :n - d]
            ab[bw - d, d:] = band
            if d > 0:
                ab[bw + d, :n - d] = band
        return bw, ab

    def factor(self) -> "BandedFactor":
        return BandedFactor(self)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Factor and solve once (LAPACK dpbsv: dpbtrf + dpbtrs in one call,
        the banded LU when the matrix is not positive definite); keep
        `factor()` to solve repeatedly."""
        rhs = np.asarray(rhs, dtype=float)
        _require_finite(self.data, rhs)
        _, x, info = dpbsv(self.data, rhs, lower=1)
        if info < 0:
            raise LinearSolveError(f"banded Cholesky rejected argument {-info}")
        return _finite_solution(x if info == 0 else _lu_solve(self._lu_band(), rhs))


class BandedFactor:
    """Factorization of a BandedSymMatrix, reusable across right-hand sides.

    Holds the banded Cholesky factor when the matrix is positive definite.
    Otherwise (an indefinite or singular matrix) it keeps the LU-ordered
    band and each solve runs a banded LU with partial pivoting.
    """

    def __init__(self, matrix: BandedSymMatrix):
        _require_finite(matrix.data)
        # LAPACK's own routines: the scipy wrappers around them cost several
        # times the factorization itself at the small sizes solved per step
        chol, info = dpbtrf(matrix.data, lower=1)
        if info < 0:
            raise LinearSolveError(f"banded Cholesky rejected argument {-info}")
        self._chol = chol if info == 0 else None
        self._lu = None if info == 0 else matrix._lu_band()

    @property
    def is_cholesky(self) -> bool:
        return self._chol is not None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        _require_finite(rhs)
        if self._chol is None:
            return _finite_solution(_lu_solve(self._lu, rhs))
        x, info = dpbtrs(self._chol, rhs, lower=1)
        if info != 0:
            raise LinearSolveError(f"banded Cholesky solve failed (info {info})")
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


def _lu_solve(lu, rhs: np.ndarray) -> np.ndarray:
    """Banded LU with partial pivoting of (bw, ab) from `_lu_band`."""
    bw, ab = lu
    try:
        return solve_banded((bw, bw), ab, rhs, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise LinearSolveError(f"banded factorization failed: {exc}") from exc
