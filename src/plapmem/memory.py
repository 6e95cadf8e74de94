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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .assembly import _sample
from .banded import BandedSymMatrix
from .errors import ConfigError, IllPosedStepError
from .mesh import finite_real

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
        object.__setattr__(self, "lam", float(finite_real("kernel", self.lam)))

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


_LAG_MESSAGE = "non-finite value at lag s={x} ({count} lags)"


def history_sum(levels: np.ndarray, k: int, delta: float, fn, fn0: float):
    """Step k's trapezoid sum of fn(lag) * level over levels[0..k] (y under
    g, u under g'), with the averaged t_k share; and the delta/8 * fn0
    multiplier of level k+1, fn0 = fn(0). Rows past k are not read. fn is
    sampled at the lags as every user callable is (assembly._sample): a
    non-finite value is a ConfigError on the kernel naming its lag."""
    weights, lags = volterra_weights(k, delta)
    half = delta / 8.0 * fn0
    acc = (weights * _sample(fn, lags, "kernel", _LAG_MESSAGE)) @ levels[:k + 1]
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
    out = (weights * _sample(kernel.g, lags, "kernel", _LAG_MESSAGE)) @ loads[:k + 2]
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


#: Steps whose coefficient matrices a MemoryBlock forms at a time, 4R
#: floats each for R rows: 12 kB at R = 6 (f = 0). A table for the whole
#: run would take 0.23 MB at R = 6 over 1200 steps, a third of the u and y
#: history of such a run at 39 unknowns. Formed 64 steps at a time, a
#: step's matrix costs about a sixth of forming it alone (0.3 against 1.7
#: us on the 2-CPU VM of README "Performance").
_TABLE_STEPS = 64


class MemoryBlock:
    """The rows one march with g = lam*exp(-s) carries from step to step.

    rows = [U_k, Y_k, S_{k-1}, H_{k-1}, U_0, M^{-1}L_0, R_1..R_T], with S
    the discounted sum over Y + U, H = M^{-1}G that over the half-step
    loads (both start at zero), and coefficients[k] @ R = M^{-1}L_{k+1/2}
    for coefficients of shape (steps, T): a SeparableForcing's time
    coefficients with its solved profiles as R (T = 0 for f = 0), or a
    column of ones and one R row that the caller writes into rows[6] before
    each relation. loads, M^{-1}L_0 and any solved profiles, fill rows[5:]
    of both buffers. Step k's 4 x (6 + T) coefficient matrix is
    table[k % _TABLE_STEPS], formed _TABLE_STEPS steps at a time.
    relation() forms z, v, S_k and H_k by one product into the spare
    buffer, next_y(U) forms Y_{k+1} there in place of v, and accept(U)
    writes U there and swaps the buffers. alpha is checked once, here; the
    mode is the caller's to check (SolverConfig does).
    """

    def __init__(self, lam: float, delta: float, mode: str, u0: np.ndarray,
                 y0: np.ndarray, coefficients: np.ndarray, loads: np.ndarray):
        self.lam, self.delta, self.k = lam, delta, 0
        self.alpha, self.beta = relation_coefficients(lam, -lam, delta)
        self.coefficients = coefficients
        self.rows = np.zeros((6 + coefficients.shape[1], len(u0)))
        self.rows[[0, 1, 4]] = u0, y0, u0
        self.rows[5:5 + len(loads)] = loads
        self._spare = self.rows.copy()
        # i_f's share of the newest load beyond its trapezoid weight
        newest = -0.5 * delta if mode == "consistent" else 0.5 * delta
        # step 0's weights, then those of every later step
        self._bases = np.array([self._base(w, w_load, newest) for w, w_load
                                in ((delta / 2.0, 3.0 * delta / 4.0), (delta, delta))])
        self._tabulate()

    def _base(self, w: float, w_load: float, newest: float) -> np.ndarray:
        """Coefficients per unit of scale = (1, 1, 1, 1, g_half, g_half, c)
        for g_half = g(t_{k+1/2}) and c step k's load coefficients: w is
        level k's weight in S_k, w_load that of L_{k+1/2} in G_k."""
        lam, delta, decay = self.lam, self.delta, math.exp(-self.delta)
        ratio, half = delta / self.alpha, math.exp(-0.5 * delta)
        base = np.zeros((4, len(self.rows)))
        # z = s - M^{-1}F, with the history's weight on Y_k + U_k shared;
        # v = 2 U_k + delta Y_k + (delta/alpha) z + 2 delta M^{-1}L_{k+1/2}
        shared = lam * (half * (w - delta / 4.0) + delta / 8.0)
        z = np.array([0.5 * lam - shared, -0.5 - shared, -lam * half * decay, -lam * decay])
        base[:, :4] = (z, ratio * z + (2.0, delta, 0.0, 0.0),
                       (w, w, decay, 0.0), (0.0, 0.0, 0.0, decay))
        base[:2, 4:6] = ((-1.0, -delta / 4.0), (-ratio, -ratio * delta / 4.0))
        newest = -lam * (w_load + newest)
        base[:, 6:] = [[newest], [ratio * newest + 2.0 * delta], [0.0], [w_load]]
        return base

    def _tabulate(self):
        """table: base * scale of steps k .. k + _TABLE_STEPS - 1, up to the
        last row of coefficients. An entry that overflows is left non-finite,
        silently: the step that reads it gets a non-finite Y, which cn_step
        reports with the step's index."""
        k, c = self.k, self.coefficients[self.k:self.k + _TABLE_STEPS]
        g_half = [self.lam * math.exp(-(j + 0.5) * self.delta) for j in range(k, k + len(c))]
        scale = np.column_stack((np.ones((len(c), 4)), g_half, g_half, c))
        with np.errstate(over="ignore", invalid="ignore"):
            self.table = self._bases[np.arange(k, k + len(c)).clip(max=1)] * scale[:, None]

    def relation(self):
        """(z, v) of step k, rows 0 and 1 of the spare buffer."""
        product = np.matmul(self.table[self.k % _TABLE_STEPS], self.rows,
                            self._spare[:4])
        return product[0], product[1]

    def next_y(self, u: np.ndarray) -> np.ndarray:
        """Y_{k+1} = (z - beta*U)/alpha of the last relation's z, formed in
        place of its v."""
        y = self._spare[1]
        np.multiply(u, self.beta, y)
        np.subtract(self._spare[0], y, y)
        return np.divide(y, self.alpha, y)

    def accept(self, u: np.ndarray):
        """Move to level k+1 = (u, next_y(u)), with the last relation's sums."""
        self._spare[0] = u
        self.rows, self._spare = self._spare, self.rows
        self.k += 1
        if self.k % _TABLE_STEPS == 0:
            self._tabulate()


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
