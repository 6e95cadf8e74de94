"""The direct memory march, the tests' oracle for the carried MemoryBlock.

`memory_equation` forms step k's memory relation by the direct O(k)
trapezoid sums of plapmem.memory for any kernel with g and gp (a `Kernel`
of two callables, or a KernelSpec), over loads such as
`plapmem.stepper.assembled_loads` gives, and `direct_relation` is a
drop-in for stepper.step_relation that takes z and v from those sums and
one mass solve, so one cn_step drives both marches; `step_coefficients` is the per-step formula of a
MemoryBlock's coefficient matrices:

    monkeypatch.setattr(stepper, "step_relation", direct_relation)
"""

import math
from typing import Callable, NamedTuple

import numpy as np

from plapmem.memory import (KernelSpec, StateHistory, history_sum, i_f,
                            relation_coefficients)
from plapmem.stepper import StepPlan, step_relation


class Kernel(NamedTuple):
    """An arbitrary memory kernel g and its derivative gp, functions of the
    time lag (scalar-only callables are sampled point by point)."""

    g: Callable
    gp: Callable


def relation_rhs(state, forcing, mass):
    """R = M*s - F of alpha*M*Y + beta*M*U = R, from the nodal form."""
    return mass.matvec(state) - forcing


def coefficients(kernel, delta):
    """(alpha, beta) of the kernel's memory relation, from g(0) and g'(0)."""
    return relation_coefficients(float(kernel.g(0.0)), float(kernel.gp(0.0)), delta)


def step_coefficients(lam: float, delta: float, mode: str, k: int, c) -> np.ndarray:
    """Step k's 4 x (6 + T) coefficient matrix of a MemoryBlock, by the
    per-step formula base * scale its table replaced: scale = (1, 1, 1, 1,
    g_half, g_half, c) with g_half = lam*exp(-(k + 1/2) delta) and c the
    step's T load coefficients; base from level k's weight w in S_k and
    w_load, that of L_{k+1/2} in G_k (delta/2 and 3 delta/4 at k = 0, both
    delta from k = 1)."""
    alpha = relation_coefficients(lam, -lam, delta)[0]
    w, w_load = (delta / 2.0, 3.0 * delta / 4.0) if k == 0 else (delta, delta)
    decay, ratio, half = math.exp(-delta), delta / alpha, math.exp(-0.5 * delta)
    base = np.zeros((4, 6 + len(c)))
    shared = lam * (half * (w - delta / 4.0) + delta / 8.0)
    z = np.array([0.5 * lam - shared, -0.5 - shared, -lam * half * decay, -lam * decay])
    base[:, :4] = (z, ratio * z + (2.0, delta, 0.0, 0.0),
                   (w, w, decay, 0.0), (0.0, 0.0, 0.0, decay))
    base[:2, 4:6] = ((-1.0, -delta / 4.0), (-ratio, -ratio * delta / 4.0))
    newest = -lam * (w_load + (-0.5 * delta if mode == "consistent" else 0.5 * delta))
    base[:, 6:] = [[newest], [ratio * newest + 2.0 * delta], [0.0], [w_load]]
    scale = np.ones(6 + len(c))
    scale[4:6] = lam * math.exp(-(k + 0.5) * delta)
    scale[6:] = c
    return base * scale


def memory_equation(hist: StateHistory, k: int, loads, kernel,
                    mode: str = "consistent"):
    """(state, forcing) of the memory relation at step k by the direct
    trapezoid sums over hist's levels 0..k and loads' rows 0..k+1: every
    history term lands in state (a nodal combination of stored levels) or
    forcing (the loads' share F), so alpha*M*Y^{k+1} + beta*M*U^{k+1} =
    M*state - forcing, with alpha and beta those of relation_coefficients."""
    g0, delta = float(kernel.g(0.0)), hist.delta
    t_half = (k + 0.5) * delta
    state = (-0.5 * hist.y[k] + 0.5 * g0 * hist.u[k]
             - float(kernel.g(t_half)) * hist.u[0]
             - history_sum(hist.y, k, delta, kernel.g, g0)[0]
             + history_sum(hist.u, k, delta, kernel.gp, float(kernel.gp(0.0)))[0])
    return state, i_f(loads, k, delta, kernel, mode)


def direct_relation(plan: StepPlan):
    """step_relation's (z, v) by the direct sums: the step's load
    L_{k+1/2} (L_0 too at k = 0) goes into plan.hist.loads, memory_equation
    over the kernel lam*exp(-s) of the plan's block, and one mass solve of
    the loads' share and L_{k+1/2}. The real step_relation runs first, so
    that the block cn_step accepts into stays in step, and the direct z and
    v overwrite its own in place: the block's next_y forms Y from this z."""
    z, v = step_relation(plan)
    hist, asm, table = plan.hist, plan.asm, plan.coefficients
    k, delta = hist.k, plan.cfg.delta
    t = (k + 0.5) * delta
    if k == 0:
        hist.loads[0] = asm.load(0.0)
    hist.loads[k + 1] = asm.load(t) if table is None else table[k] @ asm.profiles(t)
    state, load_share = memory_equation(hist, k, hist.loads, KernelSpec(plan.block.lam),
                                        plan.cfg.quadrature_mode)
    solved = asm.mass_factor.solve(np.stack((load_share, hist.loads[k + 1]), axis=1))
    z[:] = state - solved[:, 0]
    v[:] = (2.0 * hist.u[k] + delta * hist.y[k] + (delta / plan.alpha) * z
            + 2.0 * delta * solved[:, 1])
    return z, v
