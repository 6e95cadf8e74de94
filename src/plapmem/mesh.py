"""Uniform 1-D meshes, equispaced Lagrange bases and Gauss-Legendre rules.

The reference element is [0, 1]. A mesh of m elements with degree-r local
polynomials carries m*r + 1 global nodes; the two boundary nodes are
eliminated (homogeneous Dirichlet), leaving m*r - 1 interior degrees of
freedom. Local-to-global numbering is contiguous: element e owns global
nodes e*r .. e*r + r, so neighbouring elements share exactly one node.
"""

import numbers
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


def is_count(value) -> bool:
    """True for an int or numpy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a real number (an int, a float or a numpy one) that is not a
    bool; the one number rule of every entry point."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def default_quad_points(r: int, requested=None) -> int:
    """Resolve the per-element point count: r + 2 unless overridden.

    The diffusion integrand is not polynomial for fractional exponents, so
    exactness is impossible anyway; r + 2 keeps the quadrature error well
    below the discretization error (doubling it shifts errors by < 1%).
    """
    return int(r) + 2 if requested is None else requested


def gauss_legendre(q: int) -> QuadratureRule:
    """Return the q-point Gauss-Legendre rule on [0, 1].

    Exact for polynomials of degree <= 2q - 1.
    """
    if not is_count(q) or not 1 <= q <= MAX_QUAD_POINTS:
        raise ConfigError("quadrature_points",
                          f"need an integer in [1, {MAX_QUAD_POINTS}], got {q!r}")
    t, w = np.polynomial.legendre.leggauss(int(q))
    return QuadratureRule(points=(t + 1.0) / 2.0, weights=w / 2.0)


class ReferenceBasis:
    """Lagrange basis of degree r on equispaced nodes of [0, 1]."""

    def __init__(self, degree: int):
        if not is_count(degree) or not 1 <= degree <= MAX_DEGREE:
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
        xn = self.nodes

        def product(i, skip, scale):
            # scale * prod over k not in {i, skip} of (xi - x_k) / (x_i - x_k)
            prod = np.full_like(xi, scale)
            for k, xk in enumerate(xn):
                if k != i and k != skip:
                    prod *= (xi - xk) / (xn[i] - xk)
            return prod

        out = np.zeros((len(xi), len(xn)))
        for i in range(len(xn)):
            if order == 0:
                out[:, i] = product(i, i, 1.0)
            else:
                for j in range(len(xn)):     # phi_i' = sum over j != i, ascending
                    if j != i:
                        out[:, i] += product(i, j, 1.0 / (xn[i] - xn[j]))
        return out


class Mesh1D:
    """Uniform partition of [a, b] into m elements of degree r.

    Immutable after construction.
    """

    def __init__(self, a: float, b: float, m: int, r: int):
        if not np.isfinite(a) or not np.isfinite(b) or b <= a:
            raise ConfigError("domain", f"need finite b > a, got [{a}, {b}]")
        if not is_count(m) or m < 1:
            raise ConfigError("m", f"need a positive element count, got {m!r}")
        self.a = float(a)
        self.b = float(b)
        self.m = int(m)
        self.basis = ReferenceBasis(r)
        self.r = self.basis.degree
        self.h = (self.b - self.a) / self.m
        self.n_nodes = self.m * self.r + 1
        self.n_interior = self.n_nodes - 2
        # equispaced within each element == globally equispaced for uniform h;
        # past its size limit linspace raises ValueError, and IndexError for
        # counts near 2**63
        try:
            self.nodes = np.linspace(self.a, self.b, self.n_nodes)
        except (ValueError, IndexError, MemoryError) as exc:
            raise ConfigError("m", f"cannot allocate {self.n_nodes} nodes: {exc}") from exc

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


def eval_on_elements(mesh: Mesh1D, coeffs: np.ndarray, ref_points: np.ndarray):
    """Evaluate on every element at the given reference points.

    Returns (x, values) with shape (m, len(ref_points)) each; the fast path
    for quadrature-resolution sampling and error integrals.
    """
    full = full_coefficients(mesh, coeffs)
    tab = mesh.basis.tabulate(ref_points)               # (q, r+1)
    local = full[mesh.element_dofs()]                   # (m, r+1)
    vals = local @ tab.T                                # (m, q)
    x = mesh.a + mesh.h * (np.arange(mesh.m)[:, None] + ref_points[None, :])
    return x, vals
