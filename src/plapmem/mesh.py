"""Uniform 1-D meshes, equispaced Lagrange bases and Gauss-Legendre rules.

The reference element is [0, 1]. A mesh of m elements with degree-r local
polynomials carries m*r + 1 global nodes; the two boundary nodes are
eliminated (homogeneous Dirichlet), leaving m*r - 1 interior degrees of
freedom. Local-to-global numbering is contiguous: element e owns global
nodes e*r .. e*r + r, so neighbouring elements share exactly one node.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

#: Equispaced Lagrange nodes are well conditioned only for low degree.
MAX_DEGREE = 6
MAX_QUAD_POINTS = 16


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre abscissae/weights mapped to the reference [0, 1]."""

    points: np.ndarray
    weights: np.ndarray

    @property
    def npoints(self) -> int:
        return len(self.points)


def default_quad_points(r: int, requested=None) -> int:
    """Resolve the per-element point count: r + 2 unless overridden.

    The diffusion integrand is not polynomial for fractional exponents, so
    exactness is impossible anyway; r + 2 keeps the quadrature error well
    below the discretization error (doubling it shifts errors by < 1%).
    """
    if requested is None:
        return int(r) + 2
    return int(requested)


def gauss_legendre(q: int) -> QuadratureRule:
    """Return the q-point Gauss-Legendre rule on [0, 1].

    Exact for polynomials of degree <= 2q - 1.
    """
    if not isinstance(q, (int, np.integer)) or not 1 <= q <= MAX_QUAD_POINTS:
        raise ConfigError("quadrature_points",
                          f"need an integer in [1, {MAX_QUAD_POINTS}], got {q!r}")
    t, w = np.polynomial.legendre.leggauss(int(q))
    return QuadratureRule(points=(t + 1.0) / 2.0, weights=w / 2.0)


class ReferenceBasis:
    """Lagrange basis of degree r on equispaced nodes of [0, 1]."""

    def __init__(self, degree: int):
        if not isinstance(degree, (int, np.integer)) or not 1 <= degree <= MAX_DEGREE:
            raise ConfigError("r", f"need an integer degree in [1, {MAX_DEGREE}], "
                                   f"got {degree!r}")
        self.degree = int(degree)
        self.nodes = np.linspace(0.0, 1.0, self.degree + 1)

    def tabulate(self, xi, order: int = 0) -> np.ndarray:
        """Evaluate all basis polynomials at points xi.

        Returns an array of shape (len(xi), degree + 1) holding values
        (order 0) or first derivatives (order 1).
        """
        if order not in (0, 1):
            raise ValueError(f"order must be 0 or 1, got {order}")
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        n = self.degree + 1
        xn = self.nodes
        out = np.zeros((len(xi), n))
        for i in range(n):
            if order == 0:
                prod = np.ones_like(xi)
                for j in range(n):
                    if j != i:
                        prod *= (xi - xn[j]) / (xn[i] - xn[j])
                out[:, i] = prod
            else:
                acc = np.zeros_like(xi)
                for j in range(n):
                    if j == i:
                        continue
                    prod = np.ones_like(xi) / (xn[i] - xn[j])
                    for k in range(n):
                        if k != i and k != j:
                            prod *= (xi - xn[k]) / (xn[i] - xn[k])
                    acc += prod
                out[:, i] = acc
        return out


def basis_eval(basis: ReferenceBasis, j: int, xi: float, order: int = 0) -> float:
    """Value (order 0) or derivative (order 1) of one Lagrange polynomial."""
    if not 0 <= j <= basis.degree:
        raise ValueError(f"local index {j} out of range for degree {basis.degree}")
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"reference coordinate {xi} outside [0, 1]")
    return float(basis.tabulate(np.array([xi]), order)[0, j])


class Mesh1D:
    """Uniform partition of [a, b] into m elements of degree r.

    Immutable after construction; shared freely between threads.
    """

    def __init__(self, a: float, b: float, m: int, r: int):
        if not np.isfinite(a) or not np.isfinite(b) or b <= a:
            raise ConfigError("domain", f"need finite b > a, got [{a}, {b}]")
        if not isinstance(m, (int, np.integer)) or m < 1:
            raise ConfigError("m", f"need a positive element count, got {m!r}")
        self.a = float(a)
        self.b = float(b)
        self.m = int(m)
        self.basis = ReferenceBasis(r)
        self.r = self.basis.degree
        self.h = (self.b - self.a) / self.m
        self.n_nodes = self.m * self.r + 1
        self.n_interior = self.n_nodes - 2
        # equispaced within each element == globally equispaced for uniform h
        self.nodes = np.linspace(self.a, self.b, self.n_nodes)

    @property
    def interior(self) -> np.ndarray:
        """Global indices of the interior degrees of freedom."""
        return np.arange(1, self.n_nodes - 1)

    def element_dofs(self) -> np.ndarray:
        """(m, r+1) array: global node indices per element."""
        return self.r * np.arange(self.m)[:, None] + np.arange(self.r + 1)[None, :]

    def __repr__(self):
        return (f"Mesh1D(a={self.a}, b={self.b}, m={self.m}, r={self.r}, "
                f"h={self.h:.6g})")


def build_uniform_mesh(a: float, b: float, m: int, r: int) -> Mesh1D:
    """Construct a uniform mesh; rejects degenerate inputs."""
    return Mesh1D(a, b, m, r)


def full_coefficients(mesh: Mesh1D, coeffs: np.ndarray) -> np.ndarray:
    """Pad an interior coefficient vector, or each row of a block of them,
    with the zero boundary values.

    A full-length vector (or block) passes through unchanged.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[-1:] == (mesh.n_nodes,):
        return coeffs
    if coeffs.shape[-1:] == (mesh.n_interior,):
        out = np.zeros(coeffs.shape[:-1] + (mesh.n_nodes,))
        out[..., 1:-1] = coeffs
        return out
    raise ValueError(f"coefficient vector of length {coeffs.shape} does not match "
                     f"mesh with {mesh.n_nodes} nodes / {mesh.n_interior} interior dofs")


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


def eval_on_elements(mesh: Mesh1D, coeffs: np.ndarray, ref_points: np.ndarray,
                     order: int = 0):
    """Evaluate on every element at the given reference points.

    Returns (x, values) with shape (m, len(ref_points)) each; the fast path
    for quadrature-resolution sampling and error integrals.
    """
    full = full_coefficients(mesh, coeffs)
    tab = mesh.basis.tabulate(ref_points, order)        # (q, r+1)
    local = full[mesh.element_dofs()]                   # (m, r+1)
    vals = local @ tab.T                                # (m, q)
    if order == 1:
        vals = vals / mesh.h
    x = mesh.a + mesh.h * (np.arange(mesh.m)[:, None] + ref_points[None, :])
    return x, vals
