"""Galerkin assembly on interior degrees of freedom.

Dirichlet conditions are handled by elimination: every matrix and vector
produced here lives on the m*r - 1 interior nodes, with the two boundary
values identically zero.
"""

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .banded import BandedSymMatrix
from .errors import ConfigError
from .mesh import Mesh1D, QuadratureRule

#: Regularization used for the singular range p < 2 when none is given.
DEFAULT_EPSILON_SINGULAR = 1e-8


@dataclass(frozen=True)
class FluxParams:
    """Exponent and regularization of the scalar flux a(s) = (s^2+eps^2)^((p-2)/2) s."""

    p: float
    epsilon: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.p) or self.p <= 1.0:
            raise ConfigError("p", f"exponent must satisfy p > 1, got {self.p}")
        if not np.isfinite(self.epsilon) or self.epsilon < 0.0:
            raise ConfigError("epsilon", f"must be >= 0, got {self.epsilon}")
        if self.p < 2.0 and self.epsilon == 0.0:
            raise ConfigError("epsilon",
                              f"p = {self.p} < 2 is singular at zero gradient; "
                              "a positive regularization is required")


def default_epsilon(p: float) -> float:
    """Zero for p >= 2; a small positive value for the singular range."""
    return 0.0 if p >= 2.0 else DEFAULT_EPSILON_SINGULAR


def flux(xi, params: FluxParams):
    """The scalar flux a(xi); odd, equals |xi|^(p-2) xi when epsilon = 0."""
    xi = np.asarray(xi, dtype=float)
    if params.p == 2.0:
        return xi if xi.ndim else float(xi)
    out = np.power(xi * xi + params.epsilon ** 2, (params.p - 2.0) / 2.0) * xi
    return out if out.ndim else float(out)


def flux_coefficient(xi, params: FluxParams):
    """Diffusion coefficient (xi^2 + eps^2)^((p-2)/2) seen by the Galerkin matrix."""
    xi = np.asarray(xi, dtype=float)
    if params.p == 2.0:
        return np.ones_like(xi)
    return np.power(xi * xi + params.epsilon ** 2, (params.p - 2.0) / 2.0)


def _interior_band(full: np.ndarray) -> BandedSymMatrix:
    """Drop boundary row/column 0 and n-1 from a full-mesh band array."""
    bw = full.shape[0] - 1
    n_int = full.shape[1] - 2
    data = full[:, 1:1 + n_int].copy()
    for d in range(1, bw + 1):
        data[d, max(n_int - d, 0):] = 0.0
    return BandedSymMatrix(data)


def _scatter(mesh: Mesh1D, local) -> np.ndarray:
    """Accumulate per-element (r+1, r+1) blocks into full band storage.

    local is either one block shared by all elements or an (m, r+1, r+1)
    stack. Contiguous numbering makes every (a, b) pair land on a distinct
    stride-r slice, so plain slice addition is race-free.
    """
    r, m, n = mesh.r, mesh.m, mesh.n_nodes
    band = np.zeros((r + 1, n))
    stacked = np.asarray(local)
    per_element = stacked.ndim == 3
    for a in range(r + 1):
        for b in range(a, r + 1):
            d = b - a
            vals = stacked[:, a, b] if per_element else stacked[a, b]
            band[d, a::r][:m] += vals
    return band


class ElementTables:
    """Reference-element tables of one (mesh, quadrature) pair.

    Basis values and the quadrature-weighted derivative products depend
    only on the degree, the rule and h, so a caller that assembles
    repeatedly builds them once and passes them to every assemble_* call.
    """

    def __init__(self, mesh: Mesh1D, quad: QuadratureRule):
        self.weights = quad.weights
        self.values = mesh.basis.tabulate(quad.points, order=0)      # (q, r+1)
        self.derivs = mesh.basis.tabulate(quad.points, order=1)      # (q, r+1)
        # (q, (r+1)^2): w_q phi_a'(xi_q) phi_b'(xi_q) / h, (a, b) flattened
        self.grad_products = np.einsum("q,qa,qb->qab", quad.weights, self.derivs,
                                       self.derivs).reshape(quad.npoints, -1) / mesh.h
        # (q, r+1): h w_q phi_a(xi_q)
        self.weighted_values = mesh.h * quad.weights[:, None] * self.values
        self.dofs = mesh.element_dofs()                              # (m, r+1)
        self.points = mesh.a + mesh.h * (np.arange(mesh.m)[:, None]
                                         + quad.points[None, :])     # (m, q)


def assemble_mass(mesh: Mesh1D, quad: QuadratureRule, *,
                  include_boundary: bool = False,
                  tables: Optional[ElementTables] = None) -> BandedSymMatrix:
    """Mass matrix of the Lagrange basis (interior dofs unless asked otherwise).

    tables, when given, must be ElementTables(mesh, quad); it saves the
    tabulation (as in the other assemble_* functions).
    """
    tables = tables or ElementTables(mesh, quad)
    tab = tables.values
    local = mesh.h * np.einsum("q,qa,qb->ab", tables.weights, tab, tab)
    band = _scatter(mesh, local)
    if include_boundary:
        return BandedSymMatrix(band)
    return _interior_band(band)


def assemble_plap(mesh: Mesh1D, w: np.ndarray, params: FluxParams,
                  quad: QuadratureRule, *,
                  tables: Optional[ElementTables] = None) -> BandedSymMatrix:
    """Gradient-weighted stiffness matrix linearized at the state w.

    Entry (i, j) integrates flux_coefficient(w_h') * phi_i' * phi_j'; for
    p = 2 the state drops out and the ordinary stiffness matrix results.
    """
    from .mesh import full_coefficients

    tables = tables or ElementTables(mesh, quad)
    local_coeffs = full_coefficients(mesh, w)[tables.dofs]      # (m, r+1)
    grads = local_coeffs @ tables.derivs.T / mesh.h             # (m, q)
    coef = flux_coefficient(grads, params)                      # (m, q)
    local = (coef @ tables.grad_products).reshape(mesh.m, mesh.r + 1, mesh.r + 1)
    return _interior_band(_scatter(mesh, local))


def assemble_load(mesh: Mesh1D, f, t: float, quad: QuadratureRule, *,
                  tables: Optional[ElementTables] = None) -> np.ndarray:
    """Interior load vector of integrals f(., t) * phi_i."""
    tables = tables or ElementTables(mesh, quad)
    x = tables.points
    fv = np.broadcast_to(np.asarray(f(x, t), dtype=float), x.shape)
    if not np.all(np.isfinite(fv)):
        raise ValueError(f"forcing term returned non-finite values at t={t}")
    contrib = fv @ tables.weighted_values                       # (m, r+1)
    out = np.zeros(mesh.n_nodes)
    for a in range(mesh.r + 1):      # contiguous numbering: stride-r slices
        out[a::mesh.r][:mesh.m] += contrib[:, a]
    return out[1:-1]


def interpolate(mesh: Mesh1D, u0) -> np.ndarray:
    """Nodal interpolant of u0, returned on the interior dofs.

    Nonzero boundary values are truncated silently by the Dirichlet
    elimination, so a warning is emitted when they exceed roundoff size.
    """
    vals = np.broadcast_to(np.asarray(u0(mesh.nodes), dtype=float),
                           mesh.nodes.shape)
    bmax = max(abs(vals[0]), abs(vals[-1]))
    if bmax > 1e-12:
        warnings.warn(f"initial datum is {bmax:.3e} at a boundary; "
                      "truncated to the homogeneous Dirichlet value 0",
                      stacklevel=2)
    return vals[1:-1].copy()
