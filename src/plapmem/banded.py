"""Symmetric banded matrices with reusable banded factors.

A factor is a symmetric positive definite factorization when the matrix
is one and falls back to a banded LU with partial pivoting otherwise;
which one is used follows from the factorization itself, not from an
option. Either is factored once and reused by every solve.

The band's width picks the definite routines. A tridiagonal band
(bandwidth 1, n >= 2, what linear elements give) takes the LDL^T pair
dpttrf/dpttrs; every other band (bandwidth 0 or >= 2, and n = 1) takes
the banded Cholesky pair dpbtrf/dpbtrs, whose BLAS call per column costs
more than the arithmetic at bandwidth 1. Every indefinite band takes
dgbtrf/dgbtrs. A product is one call of the Level-2 BLAS dsbmv, which
takes its scale and a base vector into the same call: base + scale*A x.

Solve once or reuse: a band that is solved once (every system a step
assembles) goes to one LAPACK driver, dptsv or dpbsv by the same width
rule, which factors and solves in one call, bitwise the same as the
factor-then-solve pair it runs inside; only an indefinite band, which the
driver reports, is factored again, by LU. A band solved with several
right-hand sides (the mass matrix, a system that is a run constant) is
factored once with factor() and the BandedFactor reused.

Nine routines, from two of scipy's f2py extensions: the eight LAPACK ones
from `scipy/linalg/_flapack` and dsbmv from `scipy/linalg/_fblas`, each
loaded by its file path: that skips `scipy.linalg`'s package init, most of
the cost of importing this package. If a file is missing or fails to
load, its routines come from `scipy.linalg.lapack` or `scipy.linalg.blas`
instead, which hand out the same routine objects.

The bands the solver builds are stored column-major (Fortran order), the
layout BLAS and LAPACK read: f2py hands them to dsbmv as they are, and
copies them for a factorization without transposing.
"""

import importlib.util
import math
import os
from importlib.machinery import EXTENSION_SUFFIXES
from typing import Optional

import numpy as np

from .errors import LinearSolveError


def _scipy_linalg(extension: str, fallback: str):
    """scipy.linalg's f2py extension module, loaded from its file, else the
    module scipy.linalg.<fallback>."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is not None and scipy.submodule_search_locations:
        folder = os.path.join(scipy.submodule_search_locations[0], "linalg")
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(folder, extension + suffix)
            if not os.path.isfile(path):
                continue
            # under scipy's own name, so a later `import scipy.linalg` reuses it
            spec = importlib.util.spec_from_file_location("scipy.linalg." + extension,
                                                          path)
            try:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
            except (ImportError, OSError):
                break
            return module
    return importlib.import_module("scipy.linalg." + fallback)


_lapack = _scipy_linalg("_flapack", "lapack")
_blas = _scipy_linalg("_fblas", "blas")
dgbtrf, dgbtrs = _lapack.dgbtrf, _lapack.dgbtrs
dpbtrf, dpbtrs, dpbsv = _lapack.dpbtrf, _lapack.dpbtrs, _lapack.dpbsv
dpttrf, dpttrs, dptsv = _lapack.dpttrf, _lapack.dpttrs, _lapack.dptsv
dsbmv = _blas.dsbmv


class BandedSymMatrix:
    """Symmetric band matrix, upper diagonals only: data[d, i] = A[i, i+d].

    Row d holds the d-th superdiagonal in its leading n-d entries; the
    trailing entries of each row are kept at zero. By symmetry this is also
    LAPACK's and BLAS's lower band layout (data[d, i] = A[i+d, i]), so the
    Cholesky factorization and the product read it without a repack. The
    bands the solver assembles are column-major (each column of data, the
    band entries of one node, contiguous); a row-major one gives the same
    results, through a copy f2py makes at every call. Matrices the solver
    keeps (mass, stiffness, system matrices) are never written to; a band it
    has just assembled for one iteration may be turned into that
    iteration's system matrix in place.
    """

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise ValueError("band storage must be 2-D (bandwidth+1, n)")
        self.data = data
        # the diagonals that fit n, which the product and the LU factor
        # read; data is only ever written in place, its shape unchanged
        self._k = min(data.shape[0] - 1, data.shape[1] - 1)

    @property
    def n(self) -> int:
        return self.data.shape[1]

    @property
    def bandwidth(self) -> int:
        return self.data.shape[0] - 1

    def matvec(self, x: np.ndarray, scale: float = 1.0,
               base: Optional[np.ndarray] = None) -> np.ndarray:
        """base + scale * A x for one vector x of shape (n,), by one dsbmv
        call (alpha = scale, beta = 1, y = base, which f2py copies: base is
        left as it was); base None is a zero vector. An x or a base of any
        other shape is a ValueError (dsbmv would read the first n entries of
        a longer one)."""
        x = np.asarray(x, dtype=float)
        shape = self.data.shape[1:]
        if x.shape != shape or base is not None and np.shape(base) != shape:
            bad = x.shape if x.shape != shape else np.shape(base)
            raise ValueError(f"cannot multiply a band of n = {self.n} with an "
                             f"array of shape {bad}")
        if base is None:
            return dsbmv(self._k, scale, self.data, x, lower=1)
        return dsbmv(self._k, scale, self.data, x, beta=1.0, y=base, lower=1)

    def factor(self) -> "BandedFactor":
        return BandedFactor(self)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Factor and solve once, by one LAPACK driver call (dptsv for a
        tridiagonal band with n >= 2, dpbsv otherwise), with factor()'s
        checks: a non-finite band or a singular one is a LinearSolveError,
        and an indefinite one is solved through factor()'s LU. Keep
        `factor()` to solve repeatedly. The band is left as it was: the LU
        needs it."""
        data = self.data
        _require_finite(data)
        n = data.shape[1]
        if data.shape[0] == 2 and n >= 2:
            x, info = dptsv(data[0], data[1, :n - 1], rhs)[2:]
        else:
            x, info = dpbsv(data, rhs, lower=1)[1:]
        if info > 0:        # not positive definite
            return self.factor().solve(rhs)
        if info < 0:
            raise LinearSolveError(f"banded solve rejected argument {-info}")
        return _finite_solution(x, rhs)


class BandedFactor:
    """Factorization of a BandedSymMatrix, reusable across right-hand sides.

    Holds, for a positive definite matrix, its LDL^T factors (d, e) when it
    is tridiagonal and its banded Cholesky factor otherwise; for an
    indefinite matrix, its banded LU factors with partial pivoting. A
    singular matrix raises LinearSolveError here, and so does a non-finite
    entry: +inf on the last diagonal entry would give a finite but wrong
    solution, so it cannot be left to the solution's test.
    """

    def __init__(self, matrix: BandedSymMatrix):
        data = matrix.data
        _require_finite(data)
        n = matrix.n
        self._ldl = self._chol = None
        # LAPACK's own routines: the scipy wrappers around them cost several
        # times the factorization itself at the small sizes solved per step
        if matrix.bandwidth == 1 and n >= 2:
            d, e, info = dpttrf(data[0], data[1, :n - 1])
            self._ldl = d, e
        else:
            self._chol, info = dpbtrf(data, lower=1)
        if info < 0:
            raise LinearSolveError(f"banded factorization rejected argument {-info}")
        self._lu = None if info == 0 else _lu_factor(matrix)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if self._lu is not None:
            bw, lu, piv = self._lu
            x, info = dgbtrs(lu, bw, bw, rhs, piv)
        elif self._ldl is not None:
            x, info = dpttrs(*self._ldl, rhs)
        else:
            x, info = dpbtrs(self._chol, rhs, lower=1)
        if info != 0:
            raise LinearSolveError(f"banded solve failed (info {info})")
        return _finite_solution(x, rhs)


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the array a is finite. Its sum of squares is
    finite only if every entry is, since inf and NaN carry through it, so
    one BLAS dot product decides, at half the cost of a mask of np.isfinite
    at the sizes a step solves; only a sum that overflowed takes the mask.
    np.vdot, unlike @ and np.dot, overflows without a RuntimeWarning."""
    flat = a.ravel(order="K")
    return math.isfinite(np.vdot(flat, flat)) or bool(np.isfinite(flat).all())


def _require_finite(data: np.ndarray) -> None:
    if not all_finite(data):
        raise LinearSolveError("non-finite entries in banded system")


def _finite_solution(x: np.ndarray, rhs) -> np.ndarray:
    """x, the solution for rhs, once it is tested finite. One sweep, of the
    solution: a non-finite entry of rhs always reaches it, since every
    substitution divides by a finite nonzero pivot, so inf stays inf or
    becomes NaN (inf - inf, and 0 * inf in a later row). Only a failed solve
    looks at rhs, to name the cause."""
    if not all_finite(x):
        _require_finite(np.asarray(rhs, dtype=float))
        raise LinearSolveError("banded solve produced non-finite values "
                               "(singular system)")
    return x


def _lu_factor(matrix: BandedSymMatrix):
    """(bw, lu, piv): LAPACK dgbtrf of the full band, bw the bandwidth that
    fits n; upper diagonal d sits in row 2*bw - d, lower diagonal d in row
    2*bw + d, and the top bw rows are dgbtrf's fill-in space."""
    n, bw = matrix.n, matrix._k
    ab = np.zeros((3 * bw + 1, n))
    for d in range(bw + 1):
        band = matrix.data[d, :n - d]
        ab[2 * bw - d, d:] = band
        ab[2 * bw + d, :n - d] = band
    lu, piv, info = dgbtrf(ab, bw, bw)
    if info != 0:
        raise LinearSolveError(f"banded LU failed (info {info}): singular matrix")
    return bw, lu, piv
