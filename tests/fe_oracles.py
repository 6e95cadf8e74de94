"""Point-at-a-time finite-element evaluation and dense band expansion, the
tests' oracles for the library's element-wise evaluation, assembly and
banded storage."""

import numpy as np

from plapmem.banded import BandedSymMatrix
from plapmem.mesh import Mesh1D, ReferenceBasis, full_coefficients


def to_dense(matrix: BandedSymMatrix) -> np.ndarray:
    """The full symmetric matrix that a band storage holds."""
    n = matrix.n
    dense = np.zeros((n, n))
    for d in range(min(matrix.bandwidth + 1, n)):
        diag = matrix.data[d, :n - d]
        dense += np.diag(diag, d)
        if d > 0:
            dense += np.diag(diag, -d)
    return dense


def basis_eval(basis: ReferenceBasis, j: int, xi: float, order: int = 0) -> float:
    """Value (order 0) or derivative (order 1) of one Lagrange polynomial."""
    if not 0 <= j <= basis.degree:
        raise ValueError(f"local index {j} out of range for degree {basis.degree}")
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"reference coordinate {xi} outside [0, 1]")
    return float(basis.tabulate(np.array([xi]), order)[0, j])


def _locate(mesh: Mesh1D, x: float):
    """Element index and reference coordinate of x, left-element convention.

    When x lies (numerically) on an inter-element node the element to the
    LEFT is used, so derivatives take their left limit there.
    """
    if not mesh.a <= x <= mesh.b:
        raise ValueError(f"x={x} outside [{mesh.a}, {mesh.b}]")
    s = (x - mesh.a) / mesh.h
    nearest = round(s)
    if abs(s - nearest) <= 1e-9 and 0 < nearest <= mesh.m:
        return int(nearest) - 1, 1.0
    e = min(int(np.floor(s)), mesh.m - 1)
    return e, s - e


def eval_fe(mesh: Mesh1D, coeffs: np.ndarray, x: float, order: int = 0) -> float:
    """Evaluate the finite-element function (or its derivative) at x.

    coeffs may be a full nodal vector or an interior one (boundary zero).
    """
    full = full_coefficients(mesh, coeffs)
    e, xi = _locate(mesh, x)
    tab = mesh.basis.tabulate(np.array([xi]), order)[0]
    local = full[e * mesh.r: e * mesh.r + mesh.r + 1]
    val = float(tab @ local)
    if order == 1:
        val /= mesh.h
    return val
