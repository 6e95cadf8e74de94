"""Uniform 1-D meshes, equispaced Lagrange bases and Gauss-Legendre rules.

The reference element is [0, 1]. A mesh of m elements with degree-r local
polynomials carries m*r + 1 global nodes; the two boundary nodes are
eliminated (homogeneous Dirichlet), leaving m*r - 1 interior degrees of
freedom. Local-to-global numbering is contiguous: element e owns global
nodes e*r .. e*r + r, so neighbouring elements share exactly one node.
"""

import math
import numbers
import sys
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


def finite_real(field: str, value):
    """value, if it is a real number (an int, a float or a numpy one, not a
    bool) that a float holds finitely; else a ConfigError on field, "expected
    a real number, got ..." or "must be finite". The one number rule of
    every entry point."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigError(field, f"expected a real number, got {value!r}")
    # NaN, inf and ints past 1e308 fail; a numpy scalar is compared as a Python
    # number, since a float32 compared with 1.8e308 casts that to inf
    if not abs(value.item() if isinstance(value, np.generic) else value) <= sys.float_info.max:
        raise ConfigError(field, "must be finite")
    return value


def count(field: str, value, low: int, high=math.inf) -> int:
    """int(value), if value is an int or a numpy integer, not a bool, in
    [low, high]; else a ConfigError on field, "expected an integer, got ...",
    "must be finite" (past a float's range, as finite_real says) or "need an
    integer >= low" ("in [low, high]" for a finite high). The one count rule
    of every entry point."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigError(field, f"expected an integer, got {value!r}")
    if low <= finite_real(field, value) <= high:
        return int(value)
    bounds = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
    raise ConfigError(field, f"need an integer {bounds}, got {value}")


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
    t, w = np.polynomial.legendre.leggauss(count("quadrature_points", q, 1, MAX_QUAD_POINTS))
    return QuadratureRule(points=(t + 1.0) / 2.0, weights=w / 2.0)


class ReferenceBasis:
    """Lagrange basis of degree r on equispaced nodes of [0, 1]."""

    def __init__(self, degree: int):
        self.degree = count("r", degree, 1, MAX_DEGREE)
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
        self.a = float(finite_real("domain", a))
        self.b = float(finite_real("domain", b))
        if not self.b > self.a:
            raise ConfigError("domain", f"need b > a, got [{a}, {b}]")
        self.m = count("m", m, 1)
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
