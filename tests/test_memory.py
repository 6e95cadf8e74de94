import math

import numpy as np
import pytest

import plapmem.memory
from fe_oracles import to_dense
from memory_oracles import (Kernel, coefficients, direct_relation,
                            memory_equation, relation_rhs, step_coefficients)
from plapmem import (ConfigError, IllPosedStepError, KernelSpec, SeparableForcing,
                     SolverConfig, build_uniform_mesh, manufactured_example1, march,
                     stepper)
from plapmem.banded import BandedSymMatrix
from plapmem.memory import (MemoryBlock, StateHistory, forcing_weights,
                            history_sum, i_f, memory_residual, volterra_weights)
from plapmem.mesh import gauss_legendre
from plapmem.stepper import Assembler, StepPlan


def scalar_mass():
    """1x1 identity: turns the quadratures into plain scalar sums."""
    return BandedSymMatrix(np.array([[1.0]]))


def q_g(hist, kernel):
    """Q_g: the history sum of the y levels under g."""
    return history_sum(hist.y, hist.k, hist.delta, kernel.g, float(kernel.g(0.0)))


def q_gp(hist, kernel):
    """Q_g': the history sum of the u levels under g'."""
    return history_sum(hist.u, hist.k, hist.delta, kernel.gp, float(kernel.gp(0.0)))


def history_with(delta, u_levels, y_levels, loads=None, n_steps=10):
    hist = StateHistory(1, n_steps, delta)
    hist.set_initial(np.array([u_levels[0]], float))
    for u, y in zip(u_levels[1:], y_levels[1:]):
        hist.append(np.array([u], float), np.array([y], float))
    if loads:
        hist.loads[:len(loads), 0] = loads
    hist.y[0] = y_levels[0]
    return hist


class TestVolterraWeights:
    def test_weight_sum_is_half_level_time(self):
        # composite trapezoid integrates constants exactly, with delta/8 on
        # each of the two averaged values
        delta = 0.01
        for k in range(201):
            weights, _ = volterra_weights(k, delta)
            assert abs(np.sum(weights) + delta / 4.0 - (k + 0.5) * delta) < 1e-14

    def test_k2_pattern(self):
        weights, lags = volterra_weights(2, 0.1)
        assert weights == pytest.approx([0.05, 0.1, 0.075])
        assert lags == pytest.approx([0.25, 0.15, 0.05])
        assert np.sum(weights) + 2 * 0.0125 == pytest.approx(0.25)

    def test_k0_two_point_trapezoid(self):
        weights, lags = volterra_weights(0, 0.1)
        assert weights == pytest.approx([0.025])
        assert lags == pytest.approx([0.05])
        assert np.sum(weights) + 2 * 0.0125 == pytest.approx(0.05)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            volterra_weights(-1, 0.1)


class TestForcingWeights:
    def test_weight_sum_consistent_mode(self):
        delta = 0.01
        for k in range(201):
            w, _ = forcing_weights(k, delta)
            assert abs(float(np.sum(w)) - (k + 0.5) * delta) < 1e-14

    def test_lags_hit_half_grid(self):
        w, lags = forcing_weights(3, 0.1)
        assert lags == pytest.approx([0.35, 0.3, 0.2, 0.1, 0.0])
        assert w == pytest.approx([0.025, 0.075, 0.1, 0.1, 0.05])


class TestQg:
    """history_sum on y under g (scalar levels: no mass product)."""

    def test_zero_history_start(self):
        kernel = KernelSpec(2.0)
        hist = history_with(0.1, [1.0], [0.0])
        explicit, implicit = q_g(hist, kernel)
        assert explicit == pytest.approx([0.0])
        assert implicit == pytest.approx(0.1 / 8 * 2.0)

    def test_null_kernel(self):
        kernel = KernelSpec(0.0)
        hist = history_with(0.1, [1.0, 1.0], [0.0, 3.0])
        explicit, implicit = q_g(hist, kernel)
        assert explicit == pytest.approx([0.0])
        assert implicit == 0.0

    def test_k2_against_scripted_formula(self):
        # independent evaluation of the printed trapezoid sum
        delta, lam = 0.1, 1.0
        hist = history_with(delta, [0.0, 0.0, 0.0], [0.0, 1.0, 1.0])
        kernel = KernelSpec(lam)
        explicit, implicit = q_g(hist, kernel)
        t_half = 2.5 * delta
        g = lambda s: lam * math.exp(-s)
        expected = (delta / 2 * g(t_half) * 0.0
                    + delta * g(t_half - delta) * 1.0
                    + 3 * delta / 4 * g(t_half - 2 * delta) * 1.0
                    + delta / 8 * g(0.0) * 1.0)
        assert explicit == pytest.approx([expected], rel=1e-14)
        assert implicit == pytest.approx(delta / 8 * g(0.0))


class TestQgp:
    """history_sum on u under g'."""

    def test_null_kernel(self):
        hist = history_with(0.1, [1.0, 2.0], [0.0, 0.0])
        explicit, implicit = q_gp(hist, KernelSpec(0.0))
        assert explicit == pytest.approx([0.0])
        assert implicit == 0.0

    def test_exponential_implicit_coefficient(self):
        lam, delta = 3.0, 0.05
        hist = history_with(delta, [1.0], [0.0])
        _, implicit = q_gp(hist, KernelSpec(lam))
        assert implicit == pytest.approx(-lam * delta / 8)

    def test_k1_against_scripted_formula(self):
        delta, lam = 0.1, 1.0
        hist = history_with(delta, [1.0, 1.0], [0.0, 0.0])
        explicit, _ = q_gp(hist, KernelSpec(lam))
        gp = lambda s: -lam * math.exp(-s)
        t_half = 1.5 * delta
        expected = (delta / 2 * gp(t_half) * 1.0
                    + 3 * delta / 4 * gp(t_half - delta) * 1.0
                    + delta / 8 * gp(0.0) * 1.0)
        assert explicit == pytest.approx([expected], rel=1e-14)


class TestIf:
    def test_constant_forcing_constant_kernel(self):
        kernel = Kernel(g=lambda s: np.ones_like(np.asarray(s, float)),
                        gp=lambda s: np.zeros_like(np.asarray(s, float)))
        for k in (0, 1, 4, 9):
            hist = history_with(0.1, [0.0] * (k + 1), [0.0] * (k + 1),
                                loads=[1.0] * (k + 2))
            out = i_f(hist.loads, k, 0.1, kernel)
            assert out == pytest.approx([(k + 0.5) * 0.1], rel=1e-14)

    def test_zero_forcing(self):
        hist = history_with(0.1, [0.0, 0.0], [0.0, 0.0], loads=[0.0, 0.0, 0.0])
        assert i_f(hist.loads, 1, 0.1, KernelSpec(1.0)) == pytest.approx([0.0])

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_literal_minus_consistent_is_exact(self, k):
        delta, lam = 0.1, 1.0
        hist = history_with(delta, [0.0] * (k + 1), [0.0] * (k + 1),
                            loads=[1.0] * (k + 2))
        kernel = KernelSpec(lam)
        lit = i_f(hist.loads, k, delta, kernel, "literal")
        con = i_f(hist.loads, k, delta, kernel, "consistent")
        # literal is exactly consistent plus the one extra quadrature share
        extra = delta * lam * hist.loads[k + 1]
        assert np.array_equal(lit, con + extra)
        assert lit - con == pytest.approx(extra, rel=1e-15)


class TestMemoryEquation:
    def test_null_kernel_halves(self):
        hist = history_with(0.1, [2.0, 2.0], [0.0, 3.0], loads=[1.0, 1.0, 1.0])
        kernel = KernelSpec(0.0)
        alpha, beta = coefficients(kernel, 0.1)
        assert alpha == 0.5
        assert beta == 0.0
        assert (relation_rhs(*memory_equation(hist, 1, hist.loads, kernel), scalar_mass())
                == pytest.approx([-0.5 * 3.0]))

    def test_exponential_coefficients(self):
        alpha, beta = coefficients(KernelSpec(1.0), 0.1)
        assert alpha == pytest.approx(0.5125, abs=1e-15)
        assert beta == pytest.approx(-0.4875, abs=1e-15)

    def test_ill_posed_alpha(self):
        # delta * g(0) = -4 makes the diagonal coefficient vanish; a march
        # meets it when its StepPlan is set up
        kernel = KernelSpec(-40.0)
        with pytest.raises(IllPosedStepError):
            coefficients(kernel, 0.1)
        mesh = build_uniform_mesh(0, 1, 4, 1)
        cfg = SolverConfig(p=2.0, delta=0.1, n_steps=1)
        asm = Assembler(mesh, gauss_legendre(3), cfg.flux_params(),
                        lambda x, t: 0.0 * x)
        hist = StateHistory(mesh.n_interior, 1, 0.1)
        hist.set_initial(np.ones(mesh.n_interior))
        with pytest.raises(IllPosedStepError):
            StepPlan(hist, kernel, cfg, asm)

    def test_residual_form_consistent_with_reduction(self):
        # pick U^{k+1}, Y^{k+1} satisfying the reduced relation: the verbatim
        # averaged form must then vanish to roundoff
        delta = 0.05
        kernel = KernelSpec(1.3)
        hist = history_with(delta, [1.0, 0.8], [0.0, 0.4],
                            loads=[0.7, 0.6, 0.5])
        alpha, beta = coefficients(kernel, delta)
        u_next = 0.9
        y_next = (relation_rhs(*memory_equation(hist, 1, hist.loads, kernel),
                               scalar_mass())[0]
                  - beta * u_next) / alpha
        hist.append(np.array([u_next]), np.array([y_next]))
        res = memory_residual(hist, 1, hist.loads, kernel, scalar_mass())
        assert abs(res[0]) < 1e-15

    def test_residual_of_an_uncompleted_step_rejected(self):
        hist = history_with(0.05, [1.0, 0.8], [0.0, 0.4])
        for k in (1, 2):
            with pytest.raises(ValueError, match=f"step {k} not completed yet "
                                                 r"\(history at 1\)"):
                memory_residual(hist, k, hist.loads, KernelSpec(1.3), scalar_mass())


class TestExponentialKernel:
    def test_derivative_identity(self):
        # gp against a central difference of g on the same lags, over the
        # steps the rounded lags really take: a gp of the wrong sign or
        # scale fails, where gp + g, which is 0 by gp's definition, cannot
        kernel = KernelSpec(2.5)
        lags = np.random.default_rng(19).uniform(0, 10, size=1000)
        above, below = lags + 1e-5, lags - 1e-5
        central = (kernel.g(above) - kernel.g(below)) / (above - below)
        assert np.all(np.abs(kernel.gp(lags) - central) <= 1e-9 * kernel.g(lags))

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, None, "2.0", True],
                             ids=["nan", "inf", "-inf", "None", "str", "bool"])
    def test_bad_lam_rejected(self, lam):
        # lam is the whole kernel: anything but a finite real number is a
        # typed error on the kernel
        with pytest.raises(ConfigError) as err:
            KernelSpec(lam)
        assert err.value.field == "kernel"

    def test_lam_held_as_float(self):
        kernel = KernelSpec(np.int64(-3))
        assert type(kernel.lam) is float and kernel == KernelSpec(-3.0)

    def test_scalar_only_callables_accepted(self):
        kernel = Kernel(g=lambda s: math.exp(-s), gp=lambda s: -math.exp(-s))
        hist = history_with(0.1, [1.0, 1.0, 1.0], [0.0, 1.0, 1.0],
                            loads=[1.0, 1.0, 1.0, 1.0])
        explicit, implicit = q_g(hist, kernel)
        vec = q_g(hist, KernelSpec(1.0))[0]
        assert explicit == pytest.approx(vec)


class TestStateHistory:
    def test_initial_memory_level_is_zero(self):
        hist = StateHistory(3, 4, 0.1)
        hist.set_initial(np.ones(3))
        assert np.array_equal(hist.y[0], np.zeros(3))

    def test_append_guards_horizon(self):
        hist = StateHistory(2, 1, 0.1)
        hist.set_initial(np.zeros(2))
        hist.append(np.ones(2), np.ones(2))
        with pytest.raises(ValueError):
            hist.append(np.ones(2), np.ones(2))

    def test_out_of_memory_is_config_error(self, monkeypatch):
        def out_of_memory(shape, *args, **kwargs):
            raise MemoryError(f"Unable to allocate an array with shape {shape}")

        monkeypatch.setattr(plapmem.memory.np, "zeros", out_of_memory)
        with pytest.raises(ConfigError) as err:
            StateHistory(1000, 10**8, 1e-8)
        assert err.value.field == "N"
        assert "shape (1e+08, 1000)" in str(err.value)
        assert isinstance(err.value.__cause__, MemoryError)

    def test_loads_allocated_at_first_read_as_zeros(self):
        hist = StateHistory(2, 3, 0.1)
        assert "loads" not in vars(hist)
        loads = hist.loads
        assert loads.shape == (5, 2) and not loads.any()
        loads[4] = 1.0
        assert hist.loads is loads
        assert np.array_equal(hist.loads[4], [1.0, 1.0])


def random_history(n_steps, delta, n_dofs=3, seed=5):
    rng = np.random.default_rng(seed)
    hist = StateHistory(n_dofs, n_steps, delta)
    hist.set_initial(rng.uniform(-1, 1, n_dofs))
    hist.loads[0] = rng.uniform(-1, 1, n_dofs)
    hist.y[0] = rng.uniform(-1, 1, n_dofs)      # exercise the y_0 share too
    for j in range(n_steps):
        hist.loads[1 + j] = rng.uniform(-1, 1, n_dofs)
        hist.append(rng.uniform(-1, 1, n_dofs), rng.uniform(-1, 1, n_dofs))
    return hist


def tridiagonal_mass(n_dofs):
    bands = np.zeros((2, n_dofs))
    bands[0] = 4.0 / 6.0
    bands[1, :-1] = 1.0 / 6.0
    return BandedSymMatrix(bands)


class TestStepPrefix:
    """The direct sums of step k read levels 0..k+1 and loads 0..k+1 only:
    rows past them turned to NaN leave the results bitwise the same."""

    @pytest.mark.parametrize("which", ["history_sum", "i_f", "memory_residual"])
    def test_rows_past_step_not_read(self, which):
        n_steps, delta, k = 6, 0.1, 2
        hist = random_history(n_steps, delta)
        poisoned = StateHistory(hist.n_dofs, n_steps, delta)
        poisoned.u[:], poisoned.y[:] = hist.u, hist.y
        poisoned.k = hist.k
        loads = hist.loads.copy()
        loads[k + 2:] = np.nan
        kernel = KernelSpec(1.3)
        if which == "history_sum":
            poisoned.y[k + 1:] = np.nan
            def total(h, _):
                return history_sum(h.y, k, delta, kernel.g, float(kernel.g(0.0)))[0]
        elif which == "i_f":
            def total(_, ld):
                return i_f(ld, k, delta, kernel, "literal")
        else:
            poisoned.u[k + 2:] = np.nan
            poisoned.y[k + 2:] = np.nan
            mass = tridiagonal_mass(hist.n_dofs)
            def total(h, ld):
                return memory_residual(h, k, ld, kernel, mass)
        out = total(poisoned, loads)
        assert np.all(np.isfinite(out))
        assert np.array_equal(out, total(hist, hist.loads))


class TestRecursiveHistory:
    """The exponential kernel's carried block against the direct quadrature."""

    @pytest.mark.parametrize("mode", ["consistent", "literal"])
    @pytest.mark.parametrize("lam", [10.0, 1.0, -1.0, -10.0])
    def test_rhs_matches_direct_over_long_march(self, lam, mode):
        # z and M*v of MemoryBlock.relation, with the newest load as its one
        # R row, against the direct sums and the step's unreduced right-hand
        # side M(2U_k + delta Y_k + (delta/alpha) z) + 2 delta L_{k+1/2};
        # each accepted level is the random history's, its Y written over
        # the one next_y forms
        n_steps, delta = 2000, 1e-3
        hist = random_history(n_steps, delta)
        mass = tridiagonal_mass(hist.n_dofs)
        dense = to_dense(mass)
        solved = np.linalg.solve(dense, hist.loads.T).T
        kernel = KernelSpec(lam)
        block = MemoryBlock(lam, delta, mode, hist.u[0], hist.y[0],
                            np.ones((n_steps, 1)), solved[:1])
        alpha, beta = coefficients(kernel, delta)
        assert (block.alpha, block.beta) == (alpha, beta)
        worst = 0.0
        for k in range(n_steps):          # k = 0 included
            block.rows[6] = solved[k + 1]
            z, v = block.relation()
            ref = memory_equation(hist, k, hist.loads, kernel, mode)
            z_ref = np.linalg.solve(dense, relation_rhs(*ref, mass))
            mv_ref = (mass.matvec(2.0 * hist.u[k] + delta * hist.y[k]
                                  + (delta / alpha) * z_ref)
                      + 2.0 * delta * hist.loads[k + 1])
            for fast, slow in ((z, z_ref), (mass.matvec(v), mv_ref)):
                worst = max(worst, np.max(np.abs(fast - slow)) / np.max(np.abs(slow)))
            block.next_y(hist.u[k + 1])[:] = hist.y[k + 1]
            block.accept(hist.u[k + 1])
        assert block.k == n_steps
        assert worst <= 1e-12

    def test_unknown_mode_rejected(self):
        hist = random_history(2, 0.1)
        with pytest.raises(ConfigError) as err:
            i_f(hist.loads, hist.k, hist.delta, KernelSpec(1.0), "exact")
        assert err.value.field == "quadrature_mode"

    @pytest.mark.parametrize("lam", [1.0, -10.0])
    def test_march_matches_direct(self, lam, monkeypatch):
        problem = manufactured_example1(3.0, lam, horizon=0.05)
        mesh = build_uniform_mesh(0, 1, 8, 2)
        cfg = SolverConfig(p=3.0, delta=1e-3, n_steps=50, tol=1e-14)
        fast = march(problem, mesh, cfg)
        monkeypatch.setattr(stepper, "step_relation", direct_relation)
        ref = march(problem, mesh, cfg)
        assert ([d.iterations for d in fast.diagnostics]
                == [d.iterations for d in ref.diagnostics])
        for name in ("u", "y"):
            a, b = getattr(fast, name), getattr(ref, name)
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_march_never_uses_direct_quadrature(self, monkeypatch):
        # a refactor that quietly restores the O(N^2) path fails here even
        # when every accuracy test stays green
        def forbidden(*args, **kwargs):
            raise AssertionError("direct history quadrature called")

        for name in ("history_sum", "i_f", "volterra_weights", "forcing_weights"):
            monkeypatch.setattr(plapmem.memory, name, forbidden)
        for mode in ("consistent", "literal"):
            problem = manufactured_example1(2.0, -1.0, horizon=0.02)
            run = march(problem, build_uniform_mesh(0, 1, 6, 1),
                        SolverConfig(p=2.0, delta=1e-3, n_steps=20,
                                     quadrature_mode=mode))
            assert len(run.diagnostics) == 20

    def test_custom_kernel_takes_direct_quadrature(self):
        # the oracle's direct sums for a kernel that is not exponential
        # against the scripted trapezoid formula
        g = lambda s: 1.0 / (1.0 + s)
        gp = lambda s: -1.0 / (1.0 + s) ** 2
        kernel = Kernel(g=g, gp=gp)
        delta = 0.1
        u, y, loads = [1.0, 0.7, 0.4], [0.0, 0.5, 0.9], [0.3, 0.2, 0.6, 0.8]
        hist = history_with(delta, u, y, loads=loads)
        state, load_share = memory_equation(hist, 2, hist.loads, kernel)
        t = 2.5 * delta
        qg = (delta / 2 * g(t) * y[0] + delta * g(t - delta) * y[1]
              + 3 * delta / 4 * g(t - 2 * delta) * y[2] + delta / 8 * g(0) * y[2])
        qgp = (delta / 2 * gp(t) * u[0] + delta * gp(t - delta) * u[1]
               + 3 * delta / 4 * gp(t - 2 * delta) * u[2] + delta / 8 * gp(0) * u[2])
        forcing = (delta / 4 * g(t) * loads[0] + 3 * delta / 4 * g(2 * delta) * loads[1]
                   + delta * g(delta) * loads[2] + delta / 2 * g(0.0) * loads[3])
        expected = (-0.5 * y[2] + 0.5 * g(0) * u[2] - g(t) * u[0]
                    - qg + qgp - forcing)
        assert (relation_rhs(state, load_share, scalar_mass())
                == pytest.approx([expected], rel=1e-14))
        assert coefficients(kernel, delta)[0] == pytest.approx(0.5 + delta / 8 * g(0),
                                                               rel=1e-15)


class TestCoefficientTable:
    """A march's tabulated coefficient matrices against the per-step formula
    they replaced (memory_oracles.step_coefficients), bit for bit: at k = 0,
    across table boundaries and up to a last table cut short, for f = 0,
    SeparableForcings of one and two terms, and a plain callable f."""

    FORCINGS = {
        "zero": SeparableForcing(),
        "one-term": SeparableForcing(((np.sin, np.cos),)),
        "two-terms": SeparableForcing(((np.sin, np.cos), (lambda x: x * x, np.exp))),
        "callable": lambda x, t: np.sin(x) * np.cos(t),
    }

    @pytest.mark.parametrize("mode", ["consistent", "literal"])
    @pytest.mark.parametrize("table_steps,n_steps", [(64, 131), (64, 128), (5, 131)])
    @pytest.mark.parametrize("forcing", list(FORCINGS))
    def test_table_matches_per_step_formula(self, monkeypatch, forcing, table_steps,
                                            n_steps, mode):
        monkeypatch.setattr(plapmem.memory, "_TABLE_STEPS", table_steps)
        lam, delta = -3.0, 1e-3
        mesh = build_uniform_mesh(0, 1, 4, 1)
        cfg = SolverConfig(p=2.0, delta=delta, n_steps=n_steps, quadrature_mode=mode)
        asm = Assembler(mesh, gauss_legendre(3), cfg.flux_params(), self.FORCINGS[forcing])
        hist = StateHistory(mesh.n_interior, n_steps, delta)
        hist.set_initial(np.sin(np.pi * mesh.nodes[1:-1]))
        plan = StepPlan(hist, KernelSpec(lam), cfg, asm)
        block = plan.block
        for k in range(n_steps):
            c = np.ones(1) if plan.coefficients is None else plan.coefficients[k]
            expected = step_coefficients(lam, delta, mode, k, c)
            assert np.array_equal(block.table[k % table_steps], expected)
            z, v = stepper.step_relation(plan)
            assert np.array_equal(np.stack((z, v)), (expected @ block.rows)[:2])
            stepper.cn_step(plan)
        assert block.k == n_steps and len(block.table) == n_steps % table_steps


class TestParasiticRoot:
    """The step's amplification per mode at p = 2, f = 0, as an oracle.

    With A = mu*M on a generalized eigenvector of (A(0), M), a step from
    k >= 1 acts on (u, y, S) by a 3x3 matrix built from MemoryBlock's
    coefficients (U_0's decaying term aside): u' = (v - delta*mu*u)/(c +
    delta*mu) with c = 2 + delta*beta/alpha, y' = (z - beta*u')/alpha, and
    S' from the block's sum row. Two roots follow the continuous pair
    u' = -mu*u + y, y' = -lam*mu*u - y; the third is negative and real
    with modulus exp(lam*delta/2), so it grows for lam > 0 (the step-to-step
    alternation in y of example 2 at lam = 10) whatever mu is.
    """

    @staticmethod
    def step_matrix(lam, delta, mu):
        block = MemoryBlock(lam, delta, "consistent", np.zeros(1), np.zeros(1),
                            np.zeros((2, 0)), np.zeros((0, 1)))
        z, v, s = block.table[1][:3, :3]        # the coefficients of step 1 on
        alpha, beta = block.alpha, block.beta
        u_row = (v - (delta * mu, 0.0, 0.0)) / (2.0 + delta * beta / alpha + delta * mu)
        return np.array([u_row, (z - beta * u_row) / alpha, s])

    @pytest.fixture(scope="class")
    def spectrum(self):
        from scipy.linalg import eigh
        from plapmem.assembly import FluxParams, assemble_mass, assemble_plap
        mesh = build_uniform_mesh(-1, 1, 10, 1)      # example 2's mesh
        quad = gauss_legendre(3)
        stiff = assemble_plap(mesh, np.zeros(mesh.n_interior), FluxParams(p=2.0), quad)
        return eigh(to_dense(stiff), to_dense(assemble_mass(mesh, quad)),
                    eigvals_only=True)

    @pytest.mark.parametrize("lam", [10.0, 0.0, -10.0])
    @pytest.mark.parametrize("delta,rate_tol,physical_tol",
                             [(1e-3, 3e-3, 1e-3), (1e-4, 3e-4, 1e-5)])
    def test_roots(self, spectrum, lam, delta, rate_tol, physical_tol):
        assert len(spectrum) == 9
        for mu in spectrum:
            roots = np.linalg.eigvals(self.step_matrix(lam, delta, mu))
            i = int(np.argmin(roots.real))
            assert roots[i].imag == 0.0 and roots[i].real < 0.0
            assert abs(math.log(-roots[i].real) / delta - lam / 2.0) <= rate_tol
            if mu > 75.0 + 1e-9:
                continue
            # second order: the relative rate error falls 100-fold with delta
            exact = np.linalg.eigvals(np.array([[-mu, 1.0], [-lam * mu, -1.0]]))
            for rate in np.log(np.delete(roots, i).astype(complex)) / delta:
                nearest = exact[np.argmin(np.abs(exact - rate))]
                assert abs(rate - nearest) <= physical_tol * abs(nearest)
