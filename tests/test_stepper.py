import numpy as np
import pytest

from plapmem import (ConfigError, FixedPointDivergenceError, IllPosedStepError,
                     MemoryEquation, ProblemSpec, SolverConfig, assemble_mass,
                     build_uniform_mesh, cn_step, exponential_kernel,
                     fixed_point_init, gauss_legendre, manufactured_example1,
                     march, mass_norm, memory_equation, select_scheme,
                     step_residuals)
from plapmem.banded import BandedSymMatrix
from plapmem.assembly import interpolate
from plapmem.memory import StateHistory
from plapmem.mesh import default_quad_points
from plapmem.stepper import Assembler, BlockSystem, resolve_scheme


def zero_f(x, t):
    return np.zeros_like(np.asarray(x, dtype=float))


def free_decay(p, lam, u0, a=-1.0, b=1.0, horizon=1.0):
    return ProblemSpec(a=a, b=b, horizon=horizon, p=p,
                       kernel=exponential_kernel(lam), u0=u0, f=zero_f)


def sine_bump(x):
    x = np.asarray(x, dtype=float)
    return np.sin(np.pi * (x + 1) / 2)


class TestSchemeSelection:
    def test_high_exponent_implicit(self):
        assert select_scheme(3.0) == "A"
        assert select_scheme(4.0) == "A"

    def test_intermediate_exponent_explicit(self):
        assert select_scheme(2.5) == "B"

    def test_linear_exponent_implicit(self):
        # state-independent diffusion: the step is one exact linear solve
        assert select_scheme(2.0) == "A"

    def test_singular_exponent_implicit(self):
        # explicit-diffusion iterations cycle near extinction for p < 2;
        # the implicit route is the one that completes those runs
        assert select_scheme(1.5) == "A"
        cfg = SolverConfig(p=1.5, delta=0.1, n_steps=10)
        assert cfg.scheme == "A"
        assert cfg.epsilon == 1e-8

    def test_invalid_exponent(self):
        with pytest.raises(ConfigError):
            select_scheme(1.0)
        with pytest.raises(ConfigError):
            select_scheme(0.5)

    def test_override_rules(self):
        assert resolve_scheme(3.0, "B") == "B"
        assert resolve_scheme(1.5, "B") == "B"
        assert resolve_scheme(2.0, "A") == "A"
        with pytest.raises(ConfigError):
            resolve_scheme(2.5, "A")
        with pytest.raises(ConfigError):
            resolve_scheme(3.0, "C")


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig(p=3.0, delta=0.01, n_steps=10)
        assert cfg.tol == 1e-9
        assert cfg.max_iter == 100
        assert cfg.scheme == "A"
        assert cfg.epsilon == 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(p=3.0, delta=-0.1, n_steps=10),
        dict(p=3.0, delta=0.1, n_steps=0),
        dict(p=3.0, delta=0.1, n_steps=10, tol=0.0),
        dict(p=3.0, delta=0.1, n_steps=10, max_iter=1),
        dict(p=3.0, delta=0.1, n_steps=10, quadrature_mode="verbatim"),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            SolverConfig(**kwargs)


def make_assembler(problem, mesh, cfg):
    quad = gauss_legendre(default_quad_points(mesh.r, cfg.quad_points))
    return Assembler(mesh, quad, cfg.flux_params(), problem.f)


def fresh_history(problem, mesh, cfg, asm):
    hist = StateHistory(mesh.n_interior, cfg.n_steps, cfg.delta)
    hist.set_initial(interpolate(mesh, problem.u0), asm.load(0.0))
    return hist


class TestFixedPoint:
    def test_init_copies_latest_level(self):
        problem = free_decay(2.0, 0.0, sine_bump)
        mesh = build_uniform_mesh(-1, 1, 8, 1)
        cfg = SolverConfig(p=2.0, delta=0.01, n_steps=5)
        asm = make_assembler(problem, mesh, cfg)
        hist = fresh_history(problem, mesh, cfg, asm)
        u0, y0 = fixed_point_init(hist)
        assert np.array_equal(u0, hist.u[0])
        u0 += 1.0                      # must not alias the stored level
        assert not np.array_equal(u0, hist.u[0])

    def test_discrete_steady_state_converges_in_one_iteration(self):
        # u solving K u = F is a fixed point of the heat step; seeding with
        # it makes the very first increment vanish
        mesh = build_uniform_mesh(0, 1, 9, 1)
        cfg = SolverConfig(p=2.0, delta=0.02, n_steps=5)
        problem = ProblemSpec(a=0.0, b=1.0, horizon=0.1, p=2.0,
                              kernel=exponential_kernel(0.0),
                              u0=lambda x: np.zeros_like(np.asarray(x)),
                              f=lambda x, t: np.ones_like(np.asarray(x)))
        asm = make_assembler(problem, mesh, cfg)
        stiff = np.diag(np.full(mesh.n_interior, 2 / mesh.h)) \
            + np.diag(np.full(mesh.n_interior - 1, -1 / mesh.h), 1) \
            + np.diag(np.full(mesh.n_interior - 1, -1 / mesh.h), -1)
        steady = np.linalg.solve(stiff, asm.load(0.0))
        hist = StateHistory(mesh.n_interior, cfg.n_steps, cfg.delta)
        hist.set_initial(steady, asm.load(0.0))
        _, _, diag = cn_step(hist, problem.kernel, cfg, asm)
        assert diag.iterations == 1

    def test_linear_step_terminates_at_two_iterations(self):
        # iterate-independent system: the second solve repeats the first
        for lam in (0.0, 1.0, -1.0):
            problem = free_decay(2.0, lam, sine_bump)
            mesh = build_uniform_mesh(-1, 1, 10, 1)
            cfg = SolverConfig(p=2.0, delta=0.01, n_steps=3)
            asm = make_assembler(problem, mesh, cfg)
            hist = fresh_history(problem, mesh, cfg, asm)
            _, _, diag = cn_step(hist, problem.kernel, cfg, asm)
            assert diag.iterations == 2
            assert diag.increment_u < 1e-24
            assert diag.increment_y < 1e-24

    def test_divergence_error_reports_step(self):
        problem = manufactured_example1(4.0, 1.0)
        mesh = build_uniform_mesh(0, 1, 10, 4)
        cfg = SolverConfig(p=4.0, delta=0.01, n_steps=10, tol=1e-30, max_iter=3)
        with pytest.raises(FixedPointDivergenceError) as exc:
            march(problem, mesh, cfg)
        assert exc.value.iterations == 3
        assert np.isfinite(exc.value.last_ratio)

    def test_stalled_cycle_recovered_by_damping(self):
        # the coarsest time step drives the plain iteration into a 2-cycle;
        # the relaxed updates must still find the true fixed point
        problem = manufactured_example1(4.0, 1.0)
        mesh = build_uniform_mesh(0, 1, 10, 4)
        cfg = SolverConfig(p=4.0, delta=0.01, n_steps=10, tol=1e-14,
                           max_iter=100)
        run = march(problem, mesh, cfg)
        assert run.errors["u"] < 1e-6


class TestSolveBlock:
    def test_dense_oracle_small_system(self):
        rng = np.random.default_rng(31)
        n, bw, delta = 5, 1, 0.05
        mdata = rng.uniform(0.5, 1.0, size=(bw + 1, n))
        mdata[0] += 2.0
        mdata[1, -1] = 0.0
        mass = BandedSymMatrix(mdata)
        sdata = rng.uniform(0.1, 0.5, size=(bw + 1, n))
        sdata[0] += 3.0
        sdata[1, -1] = 0.0
        matrix = BandedSymMatrix(sdata)
        rhs = rng.standard_normal(n)
        mem = MemoryEquation(alpha=0.6, beta=-0.3, rhs=rng.standard_normal(n))
        block = BlockSystem(mem, mass.factor(), delta)
        u = (matrix + block.shift * mass).solve(rhs + block.rhs_share)
        y = block.memory_state(u)
        # independent dense solve of the coupled 2x2 block system
        md, sd = mass.to_dense(), matrix.to_dense()
        big = np.block([[sd, -delta * md],
                        [mem.beta * md, mem.alpha * md]])
        sol = np.linalg.solve(big, np.concatenate([rhs, mem.rhs]))
        assert np.allclose(u, sol[:n], atol=1e-12)
        assert np.allclose(y, sol[n:], atol=1e-12)
        # residuals of both original blocks
        r1 = sd @ u - delta * (md @ y) - rhs
        r2 = mem.beta * (md @ u) + mem.alpha * (md @ y) - mem.rhs
        assert np.max(np.abs(r1)) < 1e-10 * max(1, np.max(np.abs(rhs)))
        assert np.max(np.abs(r2)) < 1e-10 * max(1, np.max(np.abs(mem.rhs)))

    def test_vanishing_alpha_guard(self):
        # alpha = 1/2 + delta*g(0)/8 vanishes for delta*g(0) = -4
        mass = BandedSymMatrix(np.array([[1.0]]))
        hist = StateHistory(1, 5, 0.5)
        hist.set_initial(np.array([1.0]), np.array([0.0]))
        with pytest.raises(IllPosedStepError):
            memory_equation(hist, exponential_kernel(-8.0), mass)


class TestMarch:
    def test_zero_data_zero_trajectory(self):
        problem = free_decay(3.0, 2.0, lambda x: np.zeros_like(np.asarray(x)),
                             horizon=0.2)
        mesh = build_uniform_mesh(-1, 1, 8, 1)
        cfg = SolverConfig(p=3.0, delta=0.01, n_steps=20)
        run = march(problem, mesh, cfg)
        assert np.max(np.abs(run.u)) == 0.0
        assert np.max(np.abs(run.y)) == 0.0

    def test_single_step_matches_cn_step(self):
        problem = free_decay(3.0, 1.0, sine_bump, horizon=0.01)
        mesh = build_uniform_mesh(-1, 1, 8, 1)
        cfg = SolverConfig(p=3.0, delta=0.01, n_steps=1)
        run = march(problem, mesh, cfg)
        asm = make_assembler(problem, mesh, cfg)
        hist = fresh_history(problem, mesh, cfg, asm)
        u1, y1, _ = cn_step(hist, problem.kernel, cfg, asm)
        assert np.array_equal(run.u[1], u1)
        assert np.array_equal(run.y[1], y1)

    def test_null_kernel_memory_stays_zero(self):
        problem = free_decay(3.0, 0.0, sine_bump, horizon=0.1)
        mesh = build_uniform_mesh(-1, 1, 8, 1)
        cfg = SolverConfig(p=3.0, delta=0.01, n_steps=10)
        run = march(problem, mesh, cfg)
        assert np.max(np.abs(run.y)) == 0.0

    def test_deterministic_rerun(self):
        problem = manufactured_example1(3.0, 1.0, horizon=0.01)
        mesh = build_uniform_mesh(0, 1, 6, 2)
        cfg = SolverConfig(p=3.0, delta=1e-3, n_steps=10)
        run1 = march(problem, mesh, cfg)
        run2 = march(problem, mesh, cfg)
        assert np.array_equal(run1.u, run2.u)
        assert np.array_equal(run1.y, run2.y)

    def test_domain_mismatch_rejected(self):
        problem = manufactured_example1(3.0, 1.0)
        mesh = build_uniform_mesh(-1, 1, 8, 1)
        with pytest.raises(ConfigError):
            march(problem, mesh, SolverConfig(p=3.0, delta=1e-3, n_steps=100))

    def test_horizon_mismatch_rejected(self):
        problem = manufactured_example1(3.0, 1.0)   # horizon 0.1
        mesh = build_uniform_mesh(0, 1, 8, 1)
        with pytest.raises(ConfigError):
            march(problem, mesh, SolverConfig(p=3.0, delta=1e-3, n_steps=50))

    def test_no_interior_dofs_rejected(self):
        problem = free_decay(2.0, 0.0, lambda x: np.zeros_like(np.asarray(x)),
                             a=0.0, b=1.0, horizon=0.1)
        mesh = build_uniform_mesh(0, 1, 1, 1)
        with pytest.raises(ConfigError):
            march(problem, mesh, SolverConfig(p=2.0, delta=0.01, n_steps=10))


class TestLeanStep:
    """The per-run factors and the once-per-step Y recovery against the
    oracles: the memory relation itself and the unrearranged residuals."""

    # (p, lambda, m, r, delta, tol, bound on the relative evolution residual);
    # increments below tol bound the residual only through the contraction
    # of the iteration, so each bound is 4-12x the residual the stopping
    # rule leaves in that case (8e-15, 2.6e-5, 1.6e-3)
    CASES = {
        # p = 2, scheme A: one run-constant factor, linear step
        "p2-A": (2.0, 1.0, 8, 2, 0.01, 1e-14, 1e-13),
        # p = 2.5, scheme B: run-constant factor, assembled right-hand side
        "p2.5-B": (2.5, 1.0, 8, 1, 1e-3, 1e-14, 1e-4),
        # p = 4, scheme A at a coarse step: the 1/2-relaxation fires
        "p4-A-relaxed": (4.0, 1.0, 10, 4, 0.01, 1e-14, 1e-2),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_steps_satisfy_oracles(self, case):
        p, lam, m, r, delta, tol, bound = self.CASES[case]
        n_steps = 10
        problem = manufactured_example1(p, lam, horizon=delta * n_steps)
        mesh = build_uniform_mesh(0, 1, m, r)
        cfg = SolverConfig(p=p, delta=delta, n_steps=n_steps, tol=tol)
        asm = make_assembler(problem, mesh, cfg)
        hist = fresh_history(problem, mesh, cfg, asm)
        diags = [cn_step(hist, problem.kernel, cfg, asm)[2]
                 for _ in range(n_steps)]
        if case == "p4-A-relaxed":
            # updates are halved after a ratio >= 0.98 from iteration 5 on
            assert any(max(d.ratios[3:-1], default=0.0) >= 0.98 for d in diags)
        mass = asm.mass
        for k in range(n_steps):
            mem = memory_equation(hist.truncated(k), problem.kernel, mass)
            my = mem.alpha * mass.matvec(hist.y[k + 1])
            mu = mem.beta * mass.matvec(hist.u[k + 1])
            scale = max(np.max(np.abs(t)) for t in (my, mu, mem.rhs))
            assert np.max(np.abs(my + mu - mem.rhs)) <= 1e-12 * scale
            res_ev, res_mem = step_residuals(hist, k, problem.kernel, cfg, asm)
            u_mid = 0.5 * (hist.u[k + 1] + hist.u[k])
            terms = (mass.matvec(hist.u[k + 1] - hist.u[k]) / delta,
                     asm.plap(u_mid).matvec(u_mid),
                     mass.matvec(0.5 * (hist.y[k + 1] + hist.y[k])))
            scale = max(np.max(np.abs(t)) for t in terms)
            assert np.max(np.abs(res_ev)) <= bound * scale
            assert np.max(np.abs(res_mem)) < 1e-10
        rerun = march(problem, mesh, cfg)
        assert np.array_equal(rerun.u, hist.u)
        assert np.array_equal(rerun.y, hist.y)

    def test_tabulations_independent_of_step_count(self, monkeypatch):
        from plapmem.mesh import ReferenceBasis
        original = ReferenceBasis.tabulate
        calls = []

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ReferenceBasis, "tabulate", counting)
        counts = []
        for n_steps in (5, 20):
            calls.clear()
            problem = manufactured_example1(3.0, 1.0, horizon=1e-3 * n_steps)
            mesh = build_uniform_mesh(0, 1, 6, 2)
            march(problem, mesh, SolverConfig(p=3.0, delta=1e-3, n_steps=n_steps))
            counts.append(len(calls))
        assert counts[0] == counts[1]


class TestHeatReduction:
    def test_single_step_matches_textbook_form(self):
        # p = 2, null kernel: (2M + dK) U1 = (2M - dK) U0 + 2d F
        mesh = build_uniform_mesh(0, 1, 12, 1)
        problem = ProblemSpec(a=0.0, b=1.0, horizon=0.1, p=2.0,
                              kernel=exponential_kernel(0.0),
                              u0=lambda x: np.sin(np.pi * np.asarray(x)),
                              f=lambda x, t: np.ones_like(np.asarray(x)))
        cfg = SolverConfig(p=2.0, delta=0.01, n_steps=10)
        run = march(problem, mesh, cfg)
        h = mesh.h
        n = mesh.n_interior
        M = np.diag(np.full(n, 2 * h / 3)) + np.diag(np.full(n - 1, h / 6), 1) \
            + np.diag(np.full(n - 1, h / 6), -1)
        K = np.diag(np.full(n, 2 / h)) + np.diag(np.full(n - 1, -1 / h), 1) \
            + np.diag(np.full(n - 1, -1 / h), -1)
        F = h * np.ones(n)
        d = cfg.delta
        u = np.sin(np.pi * mesh.nodes[1:-1])
        for k in range(cfg.n_steps):
            u = np.linalg.solve(2 * M + d * K, (2 * M - d * K) @ u + 2 * d * F)
            assert np.allclose(run.u[k + 1], u, atol=1e-12)


class TestSchemeEquivalence:
    def test_linear_case_identical_limits(self):
        problem = free_decay(2.0, 1.0, sine_bump, horizon=0.05)
        mesh = build_uniform_mesh(-1, 1, 10, 1)
        runs = {}
        for scheme in ("A", "B"):
            cfg = SolverConfig(p=2.0, delta=1e-3, n_steps=50, tol=1e-22,
                               max_iter=200, scheme=scheme)
            runs[scheme] = march(problem, mesh, cfg)
        diff = np.max(np.abs(runs["A"].u - runs["B"].u))
        assert diff < 1e-10

    def test_degenerate_case_same_fixed_points(self):
        problem = manufactured_example1(3.0, 1.0, horizon=0.02)
        mesh = build_uniform_mesh(0, 1, 8, 1)
        mass = assemble_mass(mesh, gauss_legendre(3))
        runs = {}
        for scheme in ("A", "B"):
            cfg = SolverConfig(p=3.0, delta=1e-3, n_steps=20, tol=1e-20,
                               max_iter=300, scheme=scheme)
            runs[scheme] = march(problem, mesh, cfg)
        worst = max(mass_norm(runs["A"].u[k] - runs["B"].u[k], mass)
                    for k in range(21))
        assert worst < 1e-8


class TestEnergyDissipation:
    def test_exact_identity_linear_case(self):
        # 2(E+ - E-) = -delta * s^T K s with s the level sum, when f = 0
        mesh = build_uniform_mesh(-1, 1, 10, 1)
        problem = free_decay(2.0, 0.0, sine_bump, horizon=0.05)
        cfg = SolverConfig(p=2.0, delta=1e-3, n_steps=50)
        run = march(problem, mesh, cfg)
        n = mesh.n_interior
        h = mesh.h
        K = np.diag(np.full(n, 2 / h)) + np.diag(np.full(n - 1, -1 / h), 1) \
            + np.diag(np.full(n - 1, -1 / h), -1)
        for k in range(cfg.n_steps):
            s = run.u[k + 1] + run.u[k]
            lhs = 2 * (run.energies[k + 1] - run.energies[k])
            assert lhs == pytest.approx(-cfg.delta * s @ K @ s, abs=1e-12)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_energy_nonincreasing_free_decay(self, p):
        mesh = build_uniform_mesh(-1, 1, 10, 1)
        problem = free_decay(p, 0.0, sine_bump, horizon=0.05)
        cfg = SolverConfig(p=p, delta=1e-3, n_steps=50)
        run = march(problem, mesh, cfg)
        assert np.all(np.diff(run.energies) <= 10 * cfg.tol)


class TestContraction:
    def test_ratios_below_one_in_converged_runs(self):
        problem = manufactured_example1(3.0, 1.0, horizon=0.02)
        mesh = build_uniform_mesh(0, 1, 8, 2)
        cfg = SolverConfig(p=3.0, delta=1e-3, n_steps=20, tol=1e-18,
                           max_iter=100)
        run = march(problem, mesh, cfg)
        seen = 0
        for diag in run.diagnostics:
            for ratio in diag.ratios:
                assert ratio < 1.0
                seen += 1
        assert seen > 0


class TestStability:
    def test_halving_delta_keeps_bounds(self):
        mesh = build_uniform_mesh(-1, 1, 10, 1)
        mass = assemble_mass(mesh, gauss_legendre(3))
        bounds = {}
        for n_steps in (250, 500):
            problem = free_decay(4.0, 1.0, lambda x: 1 - np.asarray(x) ** 4,
                                 horizon=0.25)
            cfg = SolverConfig(p=4.0, delta=0.25 / n_steps, n_steps=n_steps)
            run = march(problem, mesh, cfg)
            bounds[n_steps] = (
                max(mass_norm(run.u[k], mass) for k in range(n_steps + 1)),
                max(mass_norm(run.y[k], mass) for k in range(n_steps + 1)))
        for i in range(2):
            coarse, fine = bounds[250][i], bounds[500][i]
            assert abs(coarse - fine) <= 0.10 * max(coarse, 1e-30)


class TestQuadratureInsensitivity:
    def test_doubling_points_barely_moves_errors(self):
        # the diffusion integrand is not polynomial; the default r + 2
        # points must already be in the quadrature-converged regime
        errors = {}
        for q_scale in (1, 2):
            problem = manufactured_example1(3.0, 1.0, horizon=0.05)
            mesh = build_uniform_mesh(0, 1, 8, 2)
            cfg = SolverConfig(p=3.0, delta=1e-3, n_steps=50, tol=1e-14,
                               quad_points=q_scale * (mesh.r + 2))
            errors[q_scale] = march(problem, mesh, cfg).errors["u"]
        assert abs(errors[2] - errors[1]) < 0.01 * errors[1]


class TestRoundTrip:
    def test_step_residuals_small_after_convergence(self):
        problem = manufactured_example1(3.0, 1.0, horizon=0.02)
        mesh = build_uniform_mesh(0, 1, 6, 1)
        cfg = SolverConfig(p=3.0, delta=1e-3, n_steps=20, tol=1e-10)
        asm = make_assembler(problem, mesh, cfg)
        hist = fresh_history(problem, mesh, cfg, asm)
        for _ in range(cfg.n_steps):
            cn_step(hist, problem.kernel, cfg, asm)
        bound = max(1e-9, 10 * np.sqrt(cfg.tol))
        for k in range(cfg.n_steps):
            res_ev, res_mem = step_residuals(hist, k, problem.kernel, cfg, asm)
            assert np.max(np.abs(res_ev)) < bound
            assert np.max(np.abs(res_mem)) < 1e-10
