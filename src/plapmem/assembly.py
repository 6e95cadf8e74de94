"""Galerkin assembly on interior degrees of freedom.

Dirichlet conditions are handled by elimination: every matrix and vector
produced here lives on the m*r - 1 interior nodes, with the two boundary
values identically zero.
"""

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .banded import BandedSymMatrix
from .errors import ConfigError
from .mesh import Mesh1D, QuadratureRule, finite_real, full_coefficients

#: Regularization used for the singular range p < 2 when none is given.
DEFAULT_EPSILON_SINGULAR = 1e-8


@dataclass(frozen=True)
class FluxParams:
    """Exponent and regularization of the scalar flux a(s) = (s^2+eps^2)^((p-2)/2) s.

    epsilon=None takes 0 for p >= 2 and DEFAULT_EPSILON_SINGULAR below 2."""

    p: float
    epsilon: Optional[float] = None

    def __post_init__(self):
        if not finite_real("p", self.p) > 1.0:
            raise ConfigError("p", f"exponent must satisfy p > 1, got {self.p!r}")
        default = 0.0 if self.p >= 2.0 else DEFAULT_EPSILON_SINGULAR
        epsilon = default if self.epsilon is None else finite_real("epsilon", self.epsilon)
        # kept as a Python float, as a numpy float32 would form eps^2 in
        # float32; its ** 2 is finite exactly up to this bound (past it a
        # float's ** raises OverflowError)
        object.__setattr__(self, "epsilon", float(epsilon))
        if not 0.0 <= self.epsilon <= math.sqrt(sys.float_info.max):
            raise ConfigError("epsilon", f"must be >= 0 with a finite square, "
                              f"got {self.epsilon}")
        if self.p < 2.0 and self.epsilon == 0.0:
            raise ConfigError("epsilon",
                              f"p = {self.p} < 2 is singular at zero gradient; "
                              "a positive regularization is required")


def flux(xi, params: FluxParams):
    """The scalar flux a(xi); odd, equals |xi|^(p-2) xi when epsilon = 0."""
    out = flux_coefficient(xi, params) * np.asarray(xi, dtype=float)
    return out if out.ndim else float(out)


def flux_coefficient(xi, params: FluxParams):
    """Diffusion coefficient (xi^2 + eps^2)^((p-2)/2) seen by the Galerkin matrix.

    At p = 2 the power is x**0.0, exactly 1.0 for every x (0, inf and NaN too).
    With eps = 0 the square is not added to: x*x + 0.0 is x*x, bitwise.
    """
    xi = np.asarray(xi, dtype=float)
    square = xi * xi
    if params.epsilon != 0.0:
        square += params.epsilon ** 2
    return np.power(square, (params.p - 2.0) / 2.0)


def _band_slots(mesh: Mesh1D):
    """Flat band slot of every element-local (a, b) pair, and the band shape.

    Band storage is (r+1, n) with n the interior node count, column-major:
    slot i*(r+1) + d holds A[i, i+d]. Lower-triangle pairs and pairs that
    touch a boundary node go to one extra dump slot, (r+1)*n, which the
    scatter drops; the trailing entries get nothing.
    """
    r = mesh.r
    dofs = mesh.element_dofs() - 1                          # interior numbering
    rows = np.repeat(dofs, r + 1, axis=1).ravel()           # node of a
    cols = np.tile(dofs, (1, r + 1)).ravel()                # node of b
    n = mesh.n_interior
    keep = (cols >= rows) & (rows >= 0) & (cols < n)
    return np.where(keep, rows * (r + 1) + cols - rows, (r + 1) * n), (r + 1, n)


def _scatter(slots: np.ndarray, local: np.ndarray, shape) -> BandedSymMatrix:
    """Sum element-local blocks, flattened in the order of slots, into
    column-major band storage of the given shape. A slot receives at most
    two contributions (the diagonal at a node two elements share), and a
    sum of two floats does not depend on their order."""
    rows, n = shape
    band = np.bincount(slots, weights=local.ravel(), minlength=rows * n + 1)
    return BandedSymMatrix(band[:rows * n].reshape(n, rows).T)


class ElementTables:
    """Reference-element tables of one (mesh, quadrature) pair.

    Basis values and the quadrature-weighted derivative products depend
    only on the degree, the rule and h, so a caller that assembles
    repeatedly builds them once and passes them to every assemble_* call.
    padded is assemble_plap's buffer for a state on the interior nodes,
    zero at the two boundary nodes, which nothing writes.
    """

    def __init__(self, mesh: Mesh1D, quad: QuadratureRule):
        self.weights = quad.weights
        self.values = mesh.basis.tabulate(quad.points, order=0)      # (q, r+1)
        self.derivs = mesh.basis.tabulate(quad.points, order=1)      # (q, r+1)
        # (q, (r+1)^2): w_q phi_a'(xi_q) phi_b'(xi_q) / h, (a, b) flattened
        self.grad_products = np.einsum("q,qa,qb->qab", quad.weights, self.derivs,
                                       self.derivs).reshape(len(quad.weights), -1) / mesh.h
        # (q, r+1): h w_q phi_a(xi_q)
        self.weighted_values = mesh.h * quad.weights[:, None] * self.values
        self.dofs = mesh.element_dofs()                              # (m, r+1)
        self.slots, self.band_shape = _band_slots(mesh)
        self.points = mesh.a + mesh.h * (np.arange(mesh.m)[:, None]
                                         + quad.points[None, :])     # (m, q)
        self.padded = np.zeros(mesh.n_nodes)


def _sample(fn, x: np.ndarray, field: str, message: str) -> np.ndarray:
    """fn(x), a user callable, broadcast to the shape of x. A result that is
    not real numbers, or of a shape that does not broadcast, is a ConfigError
    on field, and so is a non-finite value, with message formatted with x,
    the first point where it occurs, and count, "<bad> of <all>"."""
    with np.errstate(all="ignore"):     # a non-finite value is reported below
        vals = _floats(fn(x), field)
    try:
        vals = np.broadcast_to(vals, x.shape)
    except ValueError:
        raise ConfigError(field, f"returned an array of shape {vals.shape}, which "
                          f"does not broadcast to the {x.shape} points") from None
    if not np.all(np.isfinite(vals)):
        bad = x[~np.isfinite(vals)]
        raise ConfigError(field, message.format(x=float(bad[0]),
                                                count=f"{bad.size} of {x.size}"))
    return vals


def _floats(values, field: str) -> np.ndarray:
    """values, returned by a user callable, as a float array; a ConfigError
    on field if they are not real numbers."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(field, f"returned a value that is not a real number: {exc}") from None


def _pointwise(fn, points: np.ndarray, field: str) -> np.ndarray:
    """fn at every entry of points, a user callable: one call on the array
    where it gives one value per point, else one call per point (fn raises
    on an array, or returns the wrong shape). Values that are not real
    numbers are a ConfigError on field."""
    try:
        vals = np.asarray(fn(points), dtype=float)
    except (TypeError, ValueError):
        vals = None
    if vals is None or vals.shape != points.shape:
        vals = _floats([fn(s) for s in points.flat], field).reshape(points.shape)
    return vals


def assemble_mass(mesh: Mesh1D, quad: QuadratureRule, *,
                  tables: Optional[ElementTables] = None) -> BandedSymMatrix:
    """Mass matrix of the Lagrange basis on the interior dofs.

    tables, when given, must be ElementTables(mesh, quad); it saves the
    tabulation (as in the other assemble_* functions).
    """
    tables = tables or ElementTables(mesh, quad)
    tab = tables.values
    local = mesh.h * np.einsum("q,qa,qb->ab", tables.weights, tab, tab)
    return _scatter(tables.slots, np.broadcast_to(local, (mesh.m,) + local.shape),
                    tables.band_shape)


def assemble_plap(mesh: Mesh1D, w: np.ndarray, params: FluxParams,
                  quad: QuadratureRule, *,
                  tables: Optional[ElementTables] = None, tangent: bool = False):
    """Gradient-weighted stiffness matrix linearized at the state w.

    Entry (i, j) integrates flux_coefficient(w_h') * phi_i' * phi_j'; for
    p = 2 the state drops out and the ordinary stiffness matrix results.

    With tangent=True, returns the pair (A(w), K_T(w)): K_T integrates the
    flux slope a'(w_h') * phi_i' * phi_j' instead, the Jacobian of the flux
    vector A(w) w, from the same gradients and on the same band.
    """
    tables = tables or ElementTables(mesh, quad)
    padded = tables.padded
    if np.shape(w) == (len(padded) - 2,):   # interior: into the zero-padded buffer
        padded[1:-1] = w
    else:                                   # full length, or a ValueError
        padded = full_coefficients(mesh, w)
    local_coeffs = padded[tables.dofs]                          # (m, r+1), a copy
    grads = local_coeffs @ tables.derivs.T / mesh.h             # (m, q)
    coef = flux_coefficient(grads, params)                      # (m, q)
    matrix = _scatter(tables.slots, coef @ tables.grad_products, tables.band_shape)
    if not tangent:
        return matrix
    # a'(xi) = coef * (1 + (p-2) xi^2/(xi^2+eps^2)), which stays finite
    # where the power form (xi^2+eps^2)^((p-4)/2) ((p-1) xi^2 + eps^2) is
    # 0 to a negative power (xi = eps = 0, p < 4). Without regularization
    # the fraction is 1, also at xi = 0, so a' = (p-1) coef and K_T = (p-1) A,
    # which the stepper takes from A without asking for it.
    if params.epsilon == 0.0:
        return matrix, BandedSymMatrix((params.p - 1.0) * matrix.data)
    square = grads * grads
    slope = coef * (1.0 + (params.p - 2.0) * square / (square + params.epsilon ** 2))
    return matrix, _scatter(tables.slots, slope @ tables.grad_products,
                            tables.band_shape)


def assemble_load(mesh: Mesh1D, f, t: float, quad: QuadratureRule, *,
                  tables: Optional[ElementTables] = None) -> np.ndarray:
    """Interior load vector of integrals f(., t) * phi_i."""
    tables = tables or ElementTables(mesh, quad)
    fv = _sample(lambda x: f(x, t), tables.points, "forcing",
                 f"non-finite values at t={t}, x={{x}} ({{count}} quadrature points); "
                 "the forcing is singular there")
    contrib = fv @ tables.weighted_values                       # (m, r+1)
    # a node two elements share gets a sum of two floats, the same in either order
    return np.bincount(tables.dofs.ravel(), weights=contrib.ravel(),
                       minlength=mesh.n_nodes)[1:-1]


@dataclass(frozen=True)
class SeparableForcing:
    """A forcing declared as f(x, t) = sum_i space_i(x) * time_i(t).

    terms holds the (space, time) pairs; with none, f = 0. It is itself the
    callable f, for scalar or array x. The stepping loop integrates each
    space profile once per run and evaluates the time coefficients at all
    half-step times once per run (stepper.StepPlan), instead of assembling
    f anew at every step.
    """

    terms: tuple = ()

    def __call__(self, x, t):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for space, time in self.terms:
            out = out + space(x) * time(t)
        return out if out.ndim else float(out)

    def coefficients(self, t) -> np.ndarray:
        """The time coefficients at t, one per term: shape (terms,) for a
        scalar t, (len(t), terms) for an array of times. Each time_i is
        called once on the array, or once per time if it cannot take one
        (see _pointwise); a non-finite coefficient is a ConfigError naming
        the first t where one occurs."""
        times = np.asarray(t, dtype=float)
        table = np.empty(times.shape + (len(self.terms),))
        with np.errstate(all="ignore"):     # a non-finite value is reported below
            for term, (_, time) in enumerate(self.terms):
                table[..., term] = _pointwise(time, times, "forcing")
        bad = np.argwhere(~np.isfinite(np.atleast_2d(table)))     # (time, term) pairs
        if len(bad):
            row, term = bad[0]
            raise ConfigError("forcing", f"non-finite time coefficient at "
                              f"t={float(times.flat[row])} (term {term}); the "
                              "forcing is singular there")
        return table


def interpolate(mesh: Mesh1D, u0) -> np.ndarray:
    """Nodal interpolant of u0, returned on the interior dofs.

    A non-finite nodal value is a ConfigError. Nonzero boundary values are
    truncated silently by the Dirichlet elimination, so a warning is
    emitted when they exceed roundoff size.
    """
    vals = _sample(u0, mesh.nodes, "u0",
                   "non-finite initial datum at x={x} ({count} nodes)")
    bmax = max(abs(vals[0]), abs(vals[-1]))
    if bmax > 1e-12:
        warnings.warn(f"initial datum is {bmax:.3e} at a boundary; "
                      "truncated to the homogeneous Dirichlet value 0",
                      stacklevel=2)
    return vals[1:-1].copy()
