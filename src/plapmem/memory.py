"""Memory kernel and the discrete Volterra quadratures of the time scheme.

With the history integrals on composite trapezoid weights over the stored
levels and the final half-interval node averaged, step k's memory
relation reduces to the nodal form

    alpha * Y^{k+1} + beta * U^{k+1} = z = s - M^{-1}F,

alpha = 1/2 + (delta/8) g(0), beta = -(g(0)/2 + (delta/8) g'(0)), with s a
combination of stored levels and F the loads' share (alpha and beta from
`relation_coefficients`). The kernel is g = lam*exp(-s), so the sums are
discounted running sums, and a march carries them in a `MemoryBlock` at
O(1) cost per step; the README derives the recursions. The direct O(k)
sums (`history_sum`, `i_f`) take any kernel with g and gp and stay as the
oracle (`memory_residual`): each takes the levels or loads it reads and
the step index k, so any prefix of a history is summed in place.
"""

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .assembly import _pointwise
from .banded import BandedSymMatrix
from .errors import ConfigError, IllPosedStepError

QUADRATURE_MODES = ("consistent", "literal")


def check_mode(mode: str):
    """Reject a quadrature mode outside QUADRATURE_MODES."""
    if mode not in QUADRATURE_MODES:
        raise ConfigError("quadrature_mode",
                          f"must be one of {QUADRATURE_MODES}, got {mode!r}")


@dataclass(frozen=True)
class KernelSpec:
    """The memory kernel g(s) = lam*exp(-s) of the time lag s.

    lam must be a finite real number, not a bool; anything else is a
    ConfigError on the kernel. g and gp = g' = -g take a lag or an array.
    """

    lam: float

    def __post_init__(self):
        lam = self.lam
        if (isinstance(lam, bool) or not isinstance(lam, numbers.Real)
                or not math.isfinite(lam)):
            raise ConfigError("kernel", f"lam must be a finite real number, got {lam!r}")
        object.__setattr__(self, "lam", float(lam))

    def g(self, s):
        return self.lam * np.exp(-np.asarray(s, dtype=float))

    def gp(self, s):
        return -self.g(s)


def volterra_weights(k: int, delta: float):
    """Weights/lags of the memory quadrature over the stored levels t_0..t_k.

    For k >= 1: delta/2 at t_0, delta at t_1..t_{k-1} and 3*delta/4 at t_k.
    k = 0 collapses to the two-point trapezoid over the single half
    interval [0, t_{1/2}], with delta/4 at t_0. The averaged node t_{k+1/2}
    adds delta/8 on levels k and k+1 (see history_sum), so the weights sum
    to t_{k+1/2} - delta/4.
    """
    if k < 0:
        raise ValueError(f"step index must be >= 0, got {k}")
    t_half = (k + 0.5) * delta
    if k == 0:
        weights = np.array([delta / 4.0])
        lags = np.array([t_half])
    else:
        weights = np.full(k + 1, delta)
        weights[0] = delta / 2.0
        weights[k] = 3.0 * delta / 4.0
        lags = t_half - delta * np.arange(k + 1)
    return weights, lags


def forcing_weights(k: int, delta: float):
    """Weights/lags over the load levels [F(t_0), F(t_1/2), .., F(t_{k+1/2})].

    The composite trapezoid on the half-step grid (sums to t_{k+1/2} for a
    constant kernel).
    """
    t_half = (k + 0.5) * delta
    if k == 0:
        weights = np.array([delta / 4.0, delta / 4.0])
        lags = np.array([t_half, 0.0])
    else:
        # nodes t_0, t_{1/2}, t_{3/2}, ..., t_{k+1/2}
        weights = np.full(k + 2, delta)
        weights[0] = delta / 4.0
        weights[1] = 3.0 * delta / 4.0
        weights[k + 1] = delta / 2.0
        lags = np.empty(k + 2)
        lags[0] = t_half
        lags[1:] = delta * (k - np.arange(k + 1))
    return weights, lags


class StateHistory:
    """Dense record of one march: the coefficient vectors u and y.

    Arrays are preallocated for the full horizon; `k` always points at the
    newest completed level. A step reads the march's `MemoryBlock`
    (stepper.StepPlan carries it), so u and y are the only rows a march
    fills. A horizon too long to allocate is a ConfigError on N.
    """

    def __init__(self, n_dofs: int, n_steps: int, delta: float):
        self.n_dofs = int(n_dofs)
        self.n_steps = int(n_steps)
        self.delta = float(delta)
        try:
            self.u = np.zeros((self.n_steps + 1, self.n_dofs))
            self.y = np.zeros((self.n_steps + 1, self.n_dofs))
        except (ValueError, MemoryError) as exc:
            raise ConfigError("N", "cannot allocate a history of shape "
                              f"({self.n_steps + 1:.6g}, {self.n_dofs}): {exc}") from exc
        self.k = 0

    def set_initial(self, u0: np.ndarray):
        self.u[0] = u0
        self.y[0] = 0.0          # the memory term vanishes at t = 0
        self.k = 0

    @cached_property
    def loads(self) -> np.ndarray:
        """Room for the half-step loads, in the layout `i_f` reads: loads[0]
        the load at t = 0 and loads[1 + j] that at t_{j+1/2}, all zero until
        a caller fills them. Allocated at the first access, which no march
        makes; stepper.step_residuals assembles the loads it reads."""
        return np.zeros((self.n_steps + 2, self.n_dofs))

    def append(self, u_new: np.ndarray, y_new: np.ndarray):
        if self.k >= self.n_steps:
            raise ValueError("history already holds the full horizon")
        self.k += 1
        self.u[self.k] = u_new
        self.y[self.k] = y_new

    @property
    def times(self) -> np.ndarray:
        return self.delta * np.arange(self.n_steps + 1)


def history_sum(levels: np.ndarray, k: int, delta: float, fn, fn0: float):
    """Step k's trapezoid sum of fn(lag) * level over levels[0..k] (y under
    g, u under g'), with the averaged t_k share; and the delta/8 * fn0
    multiplier of level k+1, fn0 = fn(0). Rows past k are not read."""
    weights, lags = volterra_weights(k, delta)
    half = delta / 8.0 * fn0
    acc = (weights * _pointwise(fn, lags)) @ levels[:k + 1]
    acc += half * levels[k]
    return acc, half


def i_f(loads: np.ndarray, k: int, delta: float, kernel: KernelSpec,
        mode: str = "consistent") -> np.ndarray:
    """Step k's kernel-weighted sum of the loads over [0, t_{k+1/2}], with
    loads[0] the load at t = 0 and loads[1 + j] that at t_{j+1/2}; rows
    past k + 1 are not read.

    The literal mode adds delta * g(0) times the newest half-step load, as a
    printed upper summation limit that double-counts that node does.
    """
    check_mode(mode)
    weights, lags = forcing_weights(k, delta)
    out = (weights * _pointwise(kernel.g, lags)) @ loads[:k + 2]
    if mode == "literal":
        out = out + delta * float(kernel.g(0.0)) * loads[k + 1]
    return out


def relation_coefficients(g0: float, gp0: float, delta: float):
    """(alpha, beta) of the memory relation for g(0) = g0 and g'(0) = gp0,
    formed once per march; IllPosedStepError where alpha vanishes."""
    alpha = 0.5 + (delta / 8.0) * g0
    if abs(alpha) < 1e-12:
        raise IllPosedStepError(
            f"memory relation is ill posed: |1/2 + delta*g(0)/8| = {abs(alpha):.3e}; "
            "reduce the time step")
    return alpha, -(0.5 * g0 + (delta / 8.0) * gp0)


class MemoryBlock:
    """The rows one march with g = lam*exp(-s) carries from step to step.

    rows = [U_k, Y_k, S_{k-1}, H_{k-1}, U_0, M^{-1}L_0, R_1..R_T], with S
    the discounted sum over Y + U, H = M^{-1}G that over the half-step
    loads (both start at zero), and c @ R = M^{-1}L_{k+1/2}; stepper.StepPlan
    fills the solved loads rows[5:]. relation(c) forms step k's z and v by
    one product, and accept moves the block to level k+1. alpha is checked
    once, here; the mode is the caller's to check (SolverConfig does).
    """

    def __init__(self, lam: float, delta: float, mode: str,
                 u0: np.ndarray, y0: np.ndarray, n_load_rows: int):
        self.lam, self.delta, self.k = lam, delta, 0
        self.alpha, self.beta = relation_coefficients(lam, -lam, delta)
        self.rows = np.zeros((6 + n_load_rows, len(u0)))
        self.rows[0] = self.rows[4] = u0
        self.rows[1] = y0
        # coef = base * scale, scale = (1, 1, 1, 1, g_half, g_half, c) for
        # g_half = g(t_{k+1/2}): U_0's and M^{-1}L_0's columns of base are
        # per unit of g_half, and the load columns per unit of c
        self.coef = np.zeros((4, len(self.rows)))
        self._base = np.zeros_like(self.coef)
        self._scale = np.ones(len(self.rows))
        ratio = delta / self.alpha
        self._base[:2, 4:6] = ((-1.0, -delta / 4.0), (-ratio, -ratio * delta / 4.0))
        # i_f's share of the newest load beyond its trapezoid weight
        self._newest = -0.5 * delta if mode == "consistent" else 0.5 * delta
        self._weights(delta / 2.0, 3.0 * delta / 4.0)

    def _weights(self, w: float, w_load: float):
        """The coefficients that hold from step k on: w is level k's weight
        in S_k, w_load that of L_{k+1/2} in G_k (both delta from k = 1)."""
        lam, delta, decay = self.lam, self.delta, math.exp(-self.delta)
        ratio, half = delta / self.alpha, math.exp(-0.5 * delta)
        # z = s - M^{-1}F, with the history's weight on Y_k + U_k shared;
        # v = 2 U_k + delta Y_k + (delta/alpha) z + 2 delta M^{-1}L_{k+1/2}
        shared = lam * (half * (w - delta / 4.0) + delta / 8.0)
        z = np.array([0.5 * lam - shared, -0.5 - shared, -lam * half * decay, -lam * decay])
        self._base[:, :4] = (z, ratio * z + (2.0, delta, 0.0, 0.0),
                             (w, w, decay, 0.0), (0.0, 0.0, 0.0, decay))
        newest = -lam * (w_load + self._newest)
        self._base[:, 6:] = [[newest], [ratio * newest + 2.0 * delta], [0.0], [w_load]]

    def relation(self, c: Optional[np.ndarray]):
        """(z, v) of step k, with c @ R = M^{-1}L_{k+1/2} (None: no R rows)."""
        scale = self._scale
        scale[4:6] = self.lam * math.exp(-(self.k + 0.5) * self.delta)
        if c is not None:
            scale[6:] = c
        np.multiply(self._base, scale, out=self.coef)
        self._product = self.coef @ self.rows
        return self._product[0], self._product[1]

    def accept(self, u: np.ndarray, y: np.ndarray):
        """Move to level k+1 = (u, y), with the sums of the last relation."""
        self.rows[0] = u
        self.rows[1] = y
        self.rows[2:4] = self._product[2:4]
        self.k += 1
        if self.k == 1:
            self._weights(self.delta, self.delta)


def memory_residual(hist: StateHistory, k: int, loads: np.ndarray,
                    kernel: KernelSpec, mass: BandedSymMatrix,
                    mode: str = "consistent") -> np.ndarray:
    """Residual of the full memory relation across the completed step k -> k+1,
    with the loads L_0, L_{1/2}, .., L_{k+1/2} in loads' rows 0..k+1.

    Evaluates the averaged-unknowns form directly (not the rearranged one),
    so it cross-checks the alpha/beta/rhs reduction.
    """
    if k >= hist.k:
        raise ValueError(f"step {k} not completed yet (history at {hist.k})")
    delta = hist.delta
    t_half = (k + 0.5) * delta
    g0 = float(kernel.g(0.0))
    qg_explicit, qg_impl = history_sum(hist.y, k, delta, kernel.g, g0)
    qgp_explicit, qgp_impl = history_sum(hist.u, k, delta, kernel.gp, float(kernel.gp(0.0)))
    y_bar = 0.5 * (hist.y[k + 1] + hist.y[k])
    u_bar = 0.5 * (hist.u[k + 1] + hist.u[k])
    return (mass.matvec(y_bar)
            - g0 * mass.matvec(u_bar)
            + float(kernel.g(t_half)) * mass.matvec(hist.u[0])
            + mass.matvec(qg_explicit) + qg_impl * mass.matvec(hist.y[k + 1])
            - mass.matvec(qgp_explicit) - qgp_impl * mass.matvec(hist.u[k + 1])
            + i_f(loads, k, delta, kernel, mode))
