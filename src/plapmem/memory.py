"""Memory kernel and the discrete Volterra quadratures of the time scheme.

At step k the memory integral over [0, t_{k+1/2}] is approximated by a
composite trapezoid on the stored time levels; the value on the final
half-interval node t_{k+1/2} is the Crank-Nicolson average of levels k and
k+1, which is what produces the delta/8 shares on both of those levels.
Collecting the k+1 unknowns on the left reduces the whole relation to

    alpha * M Y^{k+1} + beta * M U^{k+1} = R,

with alpha = 1/2 + (delta/8) g(0) and beta = -(g(0)/2 + (delta/8) g'(0)).

Evaluated directly (`q_g`, `q_gp`, `i_f`) the trapezoid sums cost O(k) at
step k, so a march costs O(N^2). For the exponential kernel
g(s) = lam*exp(-s) (a `KernelSpec` with `lam` set, as `exponential_kernel`
builds) every lag factor splits as exp(-(k-j)*delta) times a constant, so
`memory_equation` instead keeps the discounted sums of `ExponentialSums`,

    E_k = exp(-delta) E_{k-1} + delta*y_k,          E_0 = (delta/2) y_0,

and over the half-step loads

    G_k = exp(-delta) G_{k-1} + delta*L_{k+1/2},    G_0 = (3*delta/4) L_{1/2},

and builds the relation from them in O(n) per step. The step takes it in
nodal form, alpha*Y^{k+1} + beta*U^{k+1} = s - M^{-1}F (`MemoryEquation`):
s combines stored levels, F the loads, and R = M*s - F. q_g's explicit
part is lam*exp(-delta/2)(E_k - (delta/4) y_k) + (delta/8) lam*y_k, the
u sum the same over u with -lam, and F = lam*[(delta/4) exp(-t_{k+1/2})
L_0 + G_k - (delta/2) L_{k+1/2}], for k = 0 too. R takes the y and u sums
with the same sign, so one running sum over y + u serves both. The load
levels may be summed in any linear coordinates (a SeparableForcing's time
coefficients, one scalar per term), and F comes out in the same ones. Only
decaying exponentials appear, so long horizons never overflow. Any other
kernel takes the direct quadratures, which also stay as the oracle
(`memory_residual`).
"""

import copy
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .banded import BandedSymMatrix
from .errors import ConfigError, IllPosedStepError

QUADRATURE_MODES = ("consistent", "literal")

#: Lags at which a declared exponential kernel is checked against its lam.
_LAM_CHECK_LAGS = np.array([0.0, 0.5, 1.0, 4.0])


def check_mode(mode: str):
    """Reject a quadrature mode outside QUADRATURE_MODES."""
    if mode not in QUADRATURE_MODES:
        raise ConfigError("quadrature_mode",
                          f"must be one of {QUADRATURE_MODES}, got {mode!r}")


@dataclass(frozen=True)
class KernelSpec:
    """Memory kernel g and its derivative gp as functions of the time lag.

    lam, when set, declares g = lam*exp(-s) and selects the recursive
    history sums; it is checked against g and gp at a few lags, so a
    kernel that is not that exponential cannot take them by mistake.
    """

    g: Callable
    gp: Callable
    lam: Optional[float] = None

    def __post_init__(self):
        if self.lam is None:
            return
        expected = self.lam * np.exp(-_LAM_CHECK_LAGS)
        for name, fn, sign in (("g", self.g, 1.0), ("gp", self.gp, -1.0)):
            dev = np.max(np.abs(_kernel_values(fn, _LAM_CHECK_LAGS) - sign * expected))
            if not dev <= 1e-12 * abs(self.lam):
                raise ConfigError("kernel", f"lam = {self.lam} declares "
                                  f"{name} = {sign * self.lam:g}*exp(-s), but {name} "
                                  f"deviates from it by {dev:.3e}")


def exponential_kernel(lam: float) -> KernelSpec:
    """The built-in family lam * exp(-s); its derivative is its negative."""

    def g(s):
        return lam * np.exp(-np.asarray(s, dtype=float))

    def gp(s):
        return -lam * np.exp(-np.asarray(s, dtype=float))

    return KernelSpec(g=g, gp=gp, lam=float(lam))


def _kernel_values(fn, lags: np.ndarray) -> np.ndarray:
    """Evaluate a kernel callable on an array, tolerating scalar-only ones."""
    try:
        vals = np.asarray(fn(lags), dtype=float)
    except (TypeError, ValueError):
        vals = None
    if vals is None or vals.shape != lags.shape:
        vals = np.array([float(fn(s)) for s in lags])
    return vals


@dataclass(frozen=True)
class VolterraWeights:
    """Trapezoid weights over the stored levels t_0..t_k plus the averaged node.

    node_weights[j] multiplies g(node_lags[j]) * value(t_j). The final
    half-interval node contributes half_weight * g(0) on value(t_k) and the
    same on value(t_{k+1}); the latter is the implicit share the caller
    moves to the left-hand side.
    """

    node_weights: np.ndarray
    node_lags: np.ndarray
    half_weight: float

    def total(self) -> float:
        """Weight sum for a constant kernel: equals t_{k+1/2} exactly."""
        return float(np.sum(self.node_weights) + 2.0 * self.half_weight)


def volterra_weights(k: int, delta: float) -> VolterraWeights:
    """Weights of the memory quadrature at step k.

    For k >= 1: delta/2 at t_0, delta at t_1..t_{k-1}, 3*delta/4 at t_k,
    and delta/8 on each of the two averaged values. k = 0 collapses to the
    two-point trapezoid over the single half interval [0, t_{1/2}], with
    delta/4 at t_0.
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
    return VolterraWeights(node_weights=weights, node_lags=lags,
                           half_weight=delta / 8.0)


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
    """Dense record of one march: coefficient vectors and half-step loads.

    Arrays are preallocated for the full horizon; `k` always points at the
    newest completed level. loads[0] holds the load at t = 0 and
    loads[1 + j] the load at t_{j+1/2}. The step itself needs only the
    newest levels (the exponential kernel's `ExponentialSums`); the whole
    tail is kept for the output and for the direct quadratures, which
    general kernels and the oracle use.
    """

    def __init__(self, n_dofs: int, n_steps: int, delta: float):
        self.n_dofs = int(n_dofs)
        self.n_steps = int(n_steps)
        self.delta = float(delta)
        self.u = np.zeros((self.n_steps + 1, self.n_dofs))
        self.y = np.zeros((self.n_steps + 1, self.n_dofs))
        self.loads = np.zeros((self.n_steps + 2, self.n_dofs))
        self.k = 0
        # (level, vector): the extrapolation predicted_start formed last
        self.extrapolation = None

    def set_initial(self, u0: np.ndarray, load0: np.ndarray):
        self.u[0] = u0
        self.y[0] = 0.0          # the memory term vanishes at t = 0
        self.loads[0] = load0
        self.k = 0
        self.extrapolation = None

    def set_half_load(self, j: int, load: np.ndarray):
        self.loads[1 + j] = load

    def append(self, u_new: np.ndarray, y_new: np.ndarray):
        if self.k >= self.n_steps:
            raise ValueError("history already holds the full horizon")
        self.k += 1
        self.u[self.k] = u_new
        self.y[self.k] = y_new

    @property
    def times(self) -> np.ndarray:
        return self.delta * np.arange(self.n_steps + 1)

    def truncated(self, k: int) -> "StateHistory":
        """Read-only alias of this history rewound to level k (shares arrays)."""
        if not 0 <= k <= self.k:
            raise ValueError(f"cannot rewind to {k}; history is at {self.k}")
        view = copy.copy(self)
        view.k = k
        view.extrapolation = None
        return view


@dataclass(frozen=True)
class MemoryEquation:
    """The relation alpha*M*Y^{k+1} + beta*M*U^{k+1} = M*state - forcing.

    state is a nodal combination of stored levels; forcing is the load
    share F, in the coordinates of the load levels it was summed from.
    """

    alpha: float
    beta: float
    state: np.ndarray
    forcing: np.ndarray


def _quadrature(hist: StateHistory, fn, levels: np.ndarray):
    """Trapezoid sum of fn(lag) * level over the stored levels, with the
    averaged t_k share; and the delta/8 * fn(0) multiplier of level k+1."""
    w = volterra_weights(hist.k, hist.delta)
    f0 = float(fn(0.0))
    acc = (w.node_weights * _kernel_values(fn, w.node_lags)) @ levels[:hist.k + 1]
    acc += w.half_weight * f0 * levels[hist.k]
    return acc, w.half_weight * f0


def q_g(hist: StateHistory, kernel: KernelSpec, mass: BandedSymMatrix):
    """Memory quadrature applied to the y history.

    Returns (explicit_part, implicit_coeff): the explicit part collects
    every stored level including the averaged t_k share; implicit_coeff is
    the delta/8 * g(0) multiplier of M Y^{k+1}.
    """
    acc, implicit = _quadrature(hist, kernel.g, hist.y)
    return mass.matvec(acc), implicit


def q_gp(hist: StateHistory, kernel: KernelSpec, mass: BandedSymMatrix):
    """Same quadrature applied to the u history with the kernel derivative."""
    acc, implicit = _quadrature(hist, kernel.gp, hist.u)
    return mass.matvec(acc), implicit


def i_f(hist: StateHistory, kernel: KernelSpec,
        mode: str = "consistent") -> np.ndarray:
    """Kernel-weighted sum of the stored load vectors over [0, t_{k+1/2}].

    The literal mode adds delta * g(0) times the newest half-step load, as a
    printed upper summation limit that double-counts that node does.
    """
    check_mode(mode)
    weights, lags = forcing_weights(hist.k, hist.delta)
    coeffs = weights * _kernel_values(kernel.g, lags)
    out = coeffs @ hist.loads[:hist.k + 2]
    if mode == "literal":
        out = out + hist.delta * float(kernel.g(0.0)) * hist.loads[hist.k + 1]
    return out


class ExponentialSums:
    """Discounted running sums of one march for g = lam*exp(-s).

    state_sum = sum_j c_j exp(-(k-j)*delta) (y_j + u_j) with c_0 = delta/2
    and c_j = delta after it; load_sum the same over the half-step load
    levels, with 3*delta/4 on L_{1/2}. lam is left out. Each level is
    folded in once, by one multiply-add per sum; first_load and newest_load
    keep L_0 and L_{k+1/2}. A march keeps one object for its own history,
    advanced with one kind of load levels.
    """

    def __init__(self):
        self.k = -1               # newest level folded in; -1: none yet
        self.decay = self.state_sum = self.load_sum = None
        self.first_load = self.newest_load = None

    def advance(self, hist: StateHistory, levels: Optional[Callable] = None):
        """Fold in the levels up to hist.k and the load L_{k+1/2}; a history
        behind the sums (a rewound or a new one) is replayed from level 0.
        levels(j) is load level j (L_0, then L_{j-1/2}) in the coordinates
        to sum; by default the load vector hist.loads[j]."""
        if hist.k < self.k:
            self.k = -1
        levels = levels or hist.loads.__getitem__
        delta = hist.delta
        while self.k < hist.k:
            j = self.k + 1
            self.newest_load = levels(j + 1)
            if j == 0:
                self.decay = math.exp(-delta)
                self.state_sum = (delta / 2.0) * (hist.y[0] + hist.u[0])
                self.load_sum = (3.0 * delta / 4.0) * self.newest_load
                self.first_load = levels(0)
            else:
                self.state_sum = (self.decay * self.state_sum
                                  + delta * (hist.y[j] + hist.u[j]))
                self.load_sum = self.decay * self.load_sum + delta * self.newest_load
            self.k = j


def memory_equation(hist: StateHistory, kernel: KernelSpec,
                    mode: str = "consistent",
                    sums: Optional[ExponentialSums] = None,
                    levels: Optional[Callable] = None) -> MemoryEquation:
    """Reduce the memory relation at step k to its unknowns-on-the-left form.

    Every history term lands in state or forcing; the two k+1 unknowns
    produce the scalar coefficients alpha and beta of M Y^{k+1} and
    M U^{k+1}. An exponential kernel builds both from the running sums (the
    march's `sums`, else ones replayed from level 0 here), with forcing in
    the coordinates of `levels` (see ExponentialSums.advance); any other
    kernel re-sums the trapezoid history, with forcing a load vector.
    """
    check_mode(mode)
    delta = hist.delta
    g0, gp0 = ((kernel.lam, -kernel.lam) if kernel.lam is not None
                else (float(kernel.g(0.0)), float(kernel.gp(0.0))))
    alpha = 0.5 + (delta / 8.0) * g0
    if abs(alpha) < 1e-12:
        raise IllPosedStepError(
            f"memory relation is ill posed: |1/2 + delta*g(0)/8| = {abs(alpha):.3e}; "
            "reduce the time step")
    beta = -(0.5 * g0 + (delta / 8.0) * gp0)
    k = hist.k
    t_half = (k + 0.5) * delta
    if kernel.lam is not None:
        sums = sums if sums is not None else ExponentialSums()
        sums.advance(hist, levels)
        lam = kernel.lam
        g_half = lam * math.exp(-t_half)
        # q_g's explicit part minus q_gp's, over y + u
        levels_k = hist.y[k] + hist.u[k]
        history = lam * (math.exp(-0.5 * delta) * (sums.state_sum - (delta / 4.0) * levels_k)
                         + (delta / 8.0) * levels_k)
        state = -0.5 * hist.y[k] + 0.5 * lam * hist.u[k] - g_half * hist.u[0] - history
        # i_f; the literal mode adds delta*g(0) on the newest load
        newest = -0.5 * delta if mode == "consistent" else 0.5 * delta
        forcing = ((delta / 4.0) * g_half * sums.first_load
                   + lam * (sums.load_sum + newest * sums.newest_load))
    else:
        state = (-0.5 * hist.y[k] + 0.5 * g0 * hist.u[k]
                 - float(kernel.g(t_half)) * hist.u[0]
                 - _quadrature(hist, kernel.g, hist.y)[0]
                 + _quadrature(hist, kernel.gp, hist.u)[0])
        forcing = i_f(hist, kernel, mode)
    return MemoryEquation(alpha=alpha, beta=beta, state=state, forcing=forcing)


def memory_residual(hist: StateHistory, k: int, kernel: KernelSpec,
                    mass: BandedSymMatrix, mode: str = "consistent") -> np.ndarray:
    """Residual of the full memory relation across the completed step k -> k+1.

    Evaluates the averaged-unknowns form directly (not the rearranged one),
    so it cross-checks the alpha/beta/rhs reduction.
    """
    if k >= hist.k:
        raise ValueError(f"step {k} not completed yet (history at {hist.k})")
    past = hist.truncated(k)
    delta = hist.delta
    t_half = (k + 0.5) * delta
    g0 = float(kernel.g(0.0))
    gp0 = float(kernel.gp(0.0))
    qg_explicit, qg_impl = q_g(past, kernel, mass)
    qgp_explicit, qgp_impl = q_gp(past, kernel, mass)
    y_bar = 0.5 * (hist.y[k + 1] + hist.y[k])
    u_bar = 0.5 * (hist.u[k + 1] + hist.u[k])
    return (mass.matvec(y_bar)
            - g0 * mass.matvec(u_bar)
            + float(kernel.g(t_half)) * mass.matvec(hist.u[0])
            + qg_explicit + qg_impl * mass.matvec(hist.y[k + 1])
            - qgp_explicit - qgp_impl * mass.matvec(hist.u[k + 1])
            + i_f(past, kernel, mode))
