import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fe_oracles import eval_fe, to_dense
from plapmem import ConfigError, SolverConfig, build_uniform_mesh
from plapmem import manufactured_example1
from plapmem.assembly import (ElementTables, FluxParams, SeparableForcing,
                              assemble_load, assemble_mass, assemble_plap,
                              default_epsilon, flux, flux_coefficient,
                              interpolate)
from plapmem.memory import StateHistory
from plapmem.mesh import default_quad_points, full_coefficients, gauss_legendre
from plapmem.stepper import Assembler, StepPlan


@pytest.fixture
def quad3():
    return gauss_legendre(3)


class TestFlux:
    def test_linear_case_is_identity(self):
        params = FluxParams(p=2.0)
        for xi in (-3.0, 0.0, 0.7):
            assert flux(xi, params) == xi

    def test_cubic_case(self):
        params = FluxParams(p=3.0)
        assert flux(2.0, params) == pytest.approx(4.0)
        assert flux(-2.0, params) == pytest.approx(-4.0)

    def test_singular_case_regularized_at_zero(self):
        params = FluxParams(p=1.5, epsilon=1e-8)
        assert flux(0.0, params) == 0.0
        assert np.isfinite(flux(1e-12, params))

    def test_odd_function(self):
        params = FluxParams(p=2.7, epsilon=0.0)
        xs = np.linspace(-5, 5, 11)
        assert np.allclose(flux(xs, params), -flux(-xs, params))

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            FluxParams(p=1.0)
        with pytest.raises(ConfigError):
            FluxParams(p=1.5, epsilon=0.0)
        with pytest.raises(ConfigError):
            FluxParams(p=2.0, epsilon=-1.0)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_epsilon_with_overflowing_square_rejected(self, p):
        # a float's ** raises OverflowError for eps above about 1.34e154: an
        # untyped crash at the first assembly, not a rejected config
        largest = math.sqrt(sys.float_info.max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # no overflow warning first
            for make in (lambda eps: FluxParams(p=p, epsilon=eps),
                         lambda eps: SolverConfig(p=p, delta=0.1, n_steps=1,
                                                  epsilon=eps)):
                for eps in (1e160, np.float64(1e160), math.nextafter(largest, 1e155)):
                    with pytest.raises(ConfigError) as err:
                        make(eps)
                    assert err.value.field == "epsilon"
        assert flux(1.0, FluxParams(p=p, epsilon=largest)) > 0.0

    def test_linear_case_has_no_special_path(self):
        # the general power is x**0.0 = 1.0 exactly, so a(xi) = xi bitwise,
        # signed zeros, infinities and NaN included
        params = FluxParams(p=2.0, epsilon=0.5)
        xs = np.array([-0.0, 0.0, -np.inf, np.inf, np.nan, 1e-300, -7.25])
        with np.errstate(all="ignore"):
            assert flux(xs, params).tobytes() == xs.tobytes()
            assert np.all(flux_coefficient(xs, params) == 1.0)
        assert flux_coefficient(3.0, params) == 1.0


class TestFluxInequalities:
    """Scalar flux bounds: monotonicity with the 2^(2-p) constant, and the
    difference bound with constant p - 1. The constants are confirmed by a
    dense sweep before the random sampling relies on them (the lower one is
    attained at antisymmetric pairs)."""

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_lower_constant_confirmed_by_sweep(self, p):
        params = FluxParams(p=p)
        grid = np.linspace(-10, 10, 201)
        z, g = np.meshgrid(grid, grid)
        mask = np.abs(z - g) > 1e-12
        ratio = ((flux(z, params) - flux(g, params)) * (z - g))[mask] \
            / np.abs(z - g)[mask] ** p
        c2 = 2.0 ** (2.0 - p)
        assert ratio.min() >= c2 * (1 - 1e-12)
        # attained (up to discretization) at antisymmetric pairs
        assert ratio.min() <= c2 * 1.01

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_monotonicity_random_pairs(self, p):
        params = FluxParams(p=p)
        rng = np.random.default_rng(17)
        z = rng.uniform(-10, 10, size=10_000)
        g = rng.uniform(-10, 10, size=10_000)
        keep = np.abs(z - g) > 1e-12
        z, g = z[keep], g[keep]
        prod = (flux(z, params) - flux(g, params)) * (z - g)
        assert np.all(prod > 0)
        assert np.all(prod >= 2.0 ** (2.0 - p) * np.abs(z - g) ** p
                      * (1 - 1e-12))

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_difference_bound(self, p):
        params = FluxParams(p=p)
        rng = np.random.default_rng(23)
        z = rng.uniform(-10, 10, size=10_000)
        g = rng.uniform(-10, 10, size=10_000)
        keep = (np.abs(z - g) > 1e-12) & (np.abs(z) + np.abs(g) > 1e-12)
        z, g = z[keep], g[keep]
        bound = (p - 1.0) * np.abs(z - g) * (np.abs(z) + np.abs(g)) ** (p - 2)
        assert np.all(np.abs(flux(z, params) - flux(g, params))
                      <= bound * (1 + 1e-12))


class TestAssembleMass:
    def test_linear_tridiagonal_values(self, quad3):
        mesh = build_uniform_mesh(0, 1, 8, 1)
        mass = assemble_mass(mesh, quad3)
        h = mesh.h
        dense = to_dense(mass)
        assert np.allclose(np.diag(dense), 2 * h / 3)
        assert np.allclose(np.diag(dense, 1), h / 6)

    def test_two_element_scalar(self, quad3):
        mesh = build_uniform_mesh(0, 1, 2, 1)
        mass = assemble_mass(mesh, quad3)
        assert to_dense(mass) == pytest.approx(np.array([[1 / 3]]))

    def test_full_row_sums_are_basis_integrals(self, quad3):
        # an inner row is full and sums to the integral of its hat, h; the
        # two edge rows lack their boundary neighbour's h/6
        mesh = build_uniform_mesh(0, 1, 6, 1)
        sums = to_dense(assemble_mass(mesh, quad3)).sum(axis=1)
        assert np.allclose(sums[1:-1], mesh.h)
        assert np.allclose(sums[[0, -1]], 5 * mesh.h / 6)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_positive_definite(self, r):
        mesh = build_uniform_mesh(-1, 1, 5, r)
        mass = assemble_mass(mesh, gauss_legendre(r + 2))
        np.linalg.cholesky(to_dense(mass))   # raises if not SPD


class TestAssemblePlap:
    def test_linear_case_is_stiffness(self, quad3):
        mesh = build_uniform_mesh(0, 1, 8, 1)
        rng = np.random.default_rng(2)
        w = rng.standard_normal(mesh.n_interior)
        mat = to_dense(assemble_plap(mesh, w, FluxParams(p=2.0), quad3))
        h = mesh.h
        assert np.allclose(np.diag(mat), 2 / h)
        assert np.allclose(np.diag(mat, 1), -1 / h)

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
    def test_unit_slope_equals_stiffness(self, p, quad3):
        mesh = build_uniform_mesh(0, 1, 6, 1)
        w = mesh.nodes.copy()            # gradient 1 everywhere
        rng = np.random.default_rng(4)
        stiff = assemble_plap(mesh, rng.standard_normal(mesh.n_interior),
                              FluxParams(p=2.0), quad3)
        mat = assemble_plap(mesh, w, FluxParams(p=p), quad3)
        assert np.allclose(to_dense(mat), to_dense(stiff), atol=1e-13)

    def test_zero_state_degenerate(self, quad3):
        mesh = build_uniform_mesh(0, 1, 5, 1)
        mat = assemble_plap(mesh, np.zeros(mesh.n_interior),
                            FluxParams(p=3.0, epsilon=0.0), quad3)
        assert np.allclose(to_dense(mat), 0.0)

    def test_symmetric_and_positive_semidefinite(self):
        mesh = build_uniform_mesh(-1, 1, 7, 2)
        rng = np.random.default_rng(8)
        w = rng.standard_normal(mesh.n_interior)
        mat = assemble_plap(mesh, w, FluxParams(p=3.0), gauss_legendre(4))
        dense = to_dense(mat)
        assert np.max(np.abs(dense - dense.T)) < 1e-13
        for _ in range(100):
            v = rng.standard_normal(mesh.n_interior)
            assert v @ dense @ v >= -1e-12

    def test_linear_case_state_independent(self, quad3):
        mesh = build_uniform_mesh(0, 1, 6, 1)
        rng = np.random.default_rng(12)
        m1 = assemble_plap(mesh, rng.standard_normal(mesh.n_interior),
                           FluxParams(p=2.0), quad3)
        m2 = assemble_plap(mesh, rng.standard_normal(mesh.n_interior),
                           FluxParams(p=2.0), quad3)
        assert np.array_equal(m1.data, m2.data)


class TestAssembleLoad:
    def test_constant_forcing_linear(self, quad3):
        mesh = build_uniform_mesh(0, 1, 5, 1)
        load = assemble_load(mesh, lambda x, t: np.ones_like(x), 0.0, quad3)
        assert np.allclose(load, mesh.h)

    def test_zero_forcing(self, quad3):
        mesh = build_uniform_mesh(0, 1, 5, 2)
        load = assemble_load(mesh, lambda x, t: 0.0, 0.0, quad3)
        assert np.array_equal(load, np.zeros(mesh.n_interior))

    def test_basis_function_forcing_gives_mass_column(self):
        # integrating phi_j against every phi_i reproduces column j of M
        mesh = build_uniform_mesh(0, 1, 4, 2)
        quad = gauss_legendre(5)
        mass = to_dense(assemble_mass(mesh, quad))
        j = 3
        unit = np.zeros(mesh.n_interior)
        unit[j] = 1.0
        f = lambda x, t: np.vectorize(lambda xx: eval_fe(mesh, unit, xx))(x)
        load = assemble_load(mesh, f, 0.0, quad)
        assert np.allclose(load, mass[:, j], atol=1e-13)

    def test_nonfinite_rejected(self, quad3):
        mesh = build_uniform_mesh(0, 1, 4, 1)
        with pytest.raises(ConfigError, match="t=0.0") as err:
            assemble_load(mesh, lambda x, t: np.full_like(x, np.nan), 0.0, quad3)
        assert err.value.field == "forcing"


def separable_assembler(mesh, forcing, p=2.0):
    quad = gauss_legendre(default_quad_points(mesh.r))
    return Assembler(mesh, quad, FluxParams(p, default_epsilon(p)), forcing), quad


class TestSeparableForcing:
    """Assembler.load combines once-integrated profiles; the generic
    per-step assembly of the same callable is the oracle."""

    def check_against_generic(self, mesh, forcing, times, p=2.0):
        asm, quad = separable_assembler(mesh, forcing, p)
        for t in times:
            expected = assemble_load(mesh, forcing, t, quad)
            got = asm.load(t)
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("r", [1, 4])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_manufactured_load_matches_generic(self, p, r):
        # m even: the singular point x = 1/2 of the p < 2 profile is a node
        problem = manufactured_example1(p, 1.3)
        delta = 1e-3
        self.check_against_generic(build_uniform_mesh(0, 1, 6, r), problem.f,
                                   (0.0, delta / 2, problem.horizon), p)

    @pytest.mark.parametrize("r", [1, 4])
    def test_two_term_load_matches_generic(self, r):
        # x (1 - x) cos t, split as x cos t - x^2 cos t
        forcing = SeparableForcing(((lambda x: x, np.cos),
                                    (lambda x: -x * x, np.cos)))
        self.check_against_generic(build_uniform_mesh(0, 1, 5, r), forcing,
                                   (0.0, 5e-4, 0.1, 2.0))

    def test_callable_matches_its_terms(self):
        forcing = SeparableForcing(((lambda x: x, np.cos), (np.sin, np.exp)))
        x = np.linspace(0, 1, 7)
        assert np.allclose(forcing(x, 0.3), x * np.cos(0.3) + np.sin(x) * np.exp(0.3),
                           rtol=1e-15, atol=0)
        assert isinstance(forcing(0.5, 0.3), float)

    def test_no_terms_is_exact_zero(self):
        forcing = SeparableForcing()
        x = np.linspace(-1, 1, 9)
        assert forcing(0.25, 1.0) == 0.0 and isinstance(forcing(0.25, 1.0), float)
        assert np.array_equal(forcing(x, 1.0), np.zeros_like(x))
        asm, _ = separable_assembler(build_uniform_mesh(-1, 1, 8, 2), forcing)
        for t in (0.0, 0.5, 3.0):
            load = asm.load(t)
            assert load.shape == (15,)
            assert np.all(load == 0.0) and not np.any(np.signbit(load))

    def test_singular_profile_names_t_and_x(self):
        # x = 1/2 is the middle Gauss point of the one-element, r = 1 mesh
        forcing = SeparableForcing(((lambda x: 1.0 / np.abs(x - 0.5), np.cos),))
        asm, _ = separable_assembler(build_uniform_mesh(0, 1, 1, 1), forcing)
        with np.errstate(divide="ignore"):
            with pytest.raises(ConfigError, match=r"t=0\.25, x=0\.5") as err:
                asm.load(0.25)
        assert err.value.field == "forcing"

    def test_nonfinite_time_coefficient_names_t(self):
        forcing = SeparableForcing(((lambda x: x, np.cos),
                                    (lambda x: x * x, lambda t: np.inf)))
        with pytest.raises(ConfigError, match=r"t=0\.5 \(term 1\)") as err:
            forcing.coefficients(0.5)
        assert err.value.field == "forcing"


class TestInterpolate:
    def test_parabola_midpoint(self):
        mesh = build_uniform_mesh(0, 1, 2, 1)
        vals = interpolate(mesh, lambda x: x * (1 - x))
        assert vals == pytest.approx([0.25])

    def test_dome_nodal_samples(self):
        mesh = build_uniform_mesh(-1, 1, 10, 1)
        vals = interpolate(mesh, lambda x: 1 - x ** 4)
        assert np.allclose(vals, 1 - mesh.nodes[1:-1] ** 4)

    def test_zero(self):
        mesh = build_uniform_mesh(0, 1, 3, 2)
        assert np.array_equal(interpolate(mesh, lambda x: np.zeros_like(x)),
                              np.zeros(mesh.n_interior))

    def test_nonzero_boundary_warns(self):
        mesh = build_uniform_mesh(0, 1, 4, 1)
        with pytest.warns(UserWarning, match="boundary"):
            interpolate(mesh, lambda x: np.cos(x))

    @pytest.mark.parametrize("a, u0", [
        (-1.0, lambda x: (1 - x * x) * np.log(np.abs(x))),     # -inf at x = 0
        (0.0, lambda x: np.sin(np.pi * x) / x),                 # nan at x = 0
    ], ids=["interior", "boundary"])
    def test_non_finite_datum_names_its_node(self, a, u0):
        # an interior one used to stop the march's first banded solve, and a
        # boundary one was dropped without a warning (nan > 1e-12 is False)
        mesh = build_uniform_mesh(a, 1, 4, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # and no numpy warning first
            with pytest.raises(ConfigError) as err:
                interpolate(mesh, u0)
        assert err.value.field == "u0"
        assert "x=0.0 (1 of 5 nodes)" in str(err.value)

    def test_coefficient_default(self):
        assert flux_coefficient(np.array([0.0, 2.0]),
                                FluxParams(p=3.0)) == pytest.approx([0.0, 2.0])


def dense_scatter(mesh, local):
    """Full-mesh dense matrix of element blocks added one entry at a time."""
    dense = np.zeros((mesh.n_nodes, mesh.n_nodes))
    dofs = mesh.element_dofs()
    for e in range(mesh.m):
        for a in range(mesh.r + 1):
            for b in range(mesh.r + 1):
                dense[dofs[e, a], dofs[e, b]] += local[e, a, b]
    return dense


def dense_to_band(dense, bandwidth):
    n = dense.shape[0]
    band = np.zeros((bandwidth + 1, n))
    for d in range(min(bandwidth + 1, n)):
        band[d, :n - d] = np.diagonal(dense, d)
    return band


class TestScatterProperty:
    """The precomputed band scatter against a dense element loop, exactly:
    the element blocks are the assemblers' own, only the summation into
    the matrix differs."""

    @settings(max_examples=60, deadline=None)
    @given(r=st.integers(1, 4), m=st.integers(1, 12),
           p=st.floats(1.0, 6.0, exclude_min=True),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bands_equal_dense_element_loop(self, r, m, p, seed):
        mesh = build_uniform_mesh(0, 1, m, r)
        quad = gauss_legendre(r + 2)
        tables = ElementTables(mesh, quad)
        params = FluxParams(p=p, epsilon=1e-3 if p < 2.0 else 0.0)
        w = np.random.default_rng(seed).standard_normal(mesh.n_interior)

        grads = full_coefficients(mesh, w)[tables.dofs] @ tables.derivs.T / mesh.h
        plap_local = (flux_coefficient(grads, params) @ tables.grad_products
                      ).reshape(m, r + 1, r + 1)
        mass_block = mesh.h * np.einsum("q,qa,qb->ab", quad.weights,
                                        tables.values, tables.values)
        mass_local = np.broadcast_to(mass_block, (m, r + 1, r + 1))

        cases = (
            (assemble_plap(mesh, w, params, quad, tables=tables), plap_local),
            (assemble_mass(mesh, quad, tables=tables), mass_local),
        )
        for matrix, local in cases:
            dense = dense_scatter(mesh, local)[1:-1, 1:-1]
            assert matrix.data.shape == (r + 1, dense.shape[0])
            assert np.array_equal(matrix.data, dense_to_band(dense, r))
            for d in range(1, r + 1):
                assert not matrix.data[d, max(matrix.n - d, 0):].any()


def flux_slope(x, p, eps):
    """a'(x) from its power form (x^2 + eps^2)^((p-4)/2) ((p-1) x^2 + eps^2),
    written (p-1)|x|^(p-2) for eps = 0 so that it stays finite at x = 0."""
    if eps == 0.0:
        return (p - 1) * np.abs(x) ** (p - 2)
    return (x * x + eps ** 2) ** ((p - 4) / 2) * ((p - 1) * x * x + eps ** 2)


def slope_modulus(xi, tau, p, eps):
    """max |a'(eta) - a'(xi)| over |eta - xi| <= tau: for p >= 2, a' is even
    and increasing in |eta|, so the extremes sit at |xi| + tau and at
    max(|xi| - tau, 0)."""
    at = flux_slope(xi, p, eps)
    return np.maximum(flux_slope(np.abs(xi) + tau, p, eps) - at,
                      at - flux_slope(np.maximum(np.abs(xi) - tau, 0.0), p, eps))


class TestTangent:
    """K_T(w) from assemble_plap(tangent=True) is the Jacobian of the flux
    vector A(w) w: it matches central differences of that vector to within
    what the step itself moves the slope, with and without regularization
    and on elements where the gradient is exactly zero (0 to a negative
    power in the power form of a' when eps = 0)."""

    @settings(max_examples=60, deadline=None)
    @given(p=st.floats(2.0, 6.0, exclude_min=True), r=st.integers(1, 4),
           m=st.integers(2, 8), seed=st.integers(0, 2 ** 32 - 1),
           eps=st.one_of(st.just(0.0), st.floats(1e-4, 1.0)))
    def test_matches_finite_difference_jacobian(self, p, r, m, seed, eps):
        mesh = build_uniform_mesh(0, 1, m, r)
        quad = gauss_legendre(r + 2)
        tables = ElementTables(mesh, quad)
        params = FluxParams(p=p, epsilon=eps)
        rng = np.random.default_rng(seed)
        full = np.concatenate(([0.0], rng.standard_normal(mesh.n_nodes - 2), [0.0]))
        flat = rng.random(m) < 0.4
        flat[rng.integers(m)] = True
        for e in np.flatnonzero(flat):      # zero-gradient (dead-zone) elements
            full[tables.dofs[e]] = 0.0
        w = full[1:-1]
        grads = full_coefficients(mesh, w)[tables.dofs] @ tables.derivs.T / mesh.h
        assert np.all(grads[flat] == 0.0)

        matrix, tangent = assemble_plap(mesh, w, params, quad, tables=tables,
                                        tangent=True)
        assert np.array_equal(matrix.data,
                              assemble_plap(mesh, w, params, quad, tables=tables).data)
        assert np.isfinite(tangent.data).all()
        k_t = to_dense(tangent)

        step = 1e-6
        fd = np.empty_like(k_t)
        for j in range(w.size):
            shift = np.zeros_like(w)
            shift[j] = step
            plus, minus = w + shift, w - shift
            fd[:, j] = (assemble_plap(mesh, plus, params, quad).matvec(plus)
                        - assemble_plap(mesh, minus, params, quad).matvec(minus)
                        ) / (2.0 * step)

        # per quadrature point the difference quotient is the mean of a' over
        # gradient +- tau, tau = step * max|phi'|/h
        tau = step * np.max(np.abs(tables.derivs)) / mesh.h
        local = slope_modulus(grads, tau, p, eps) @ np.abs(tables.grad_products)
        bound = dense_scatter(mesh, local.reshape(m, r + 1, r + 1))[1:-1, 1:-1]
        scale = np.max(np.abs(k_t))
        assert np.all(np.abs(fd - k_t) <= bound + 1e-7 * scale)


class TestColumnMajorBands:
    """Every band the solver builds is column-major, the layout BLAS and
    LAPACK read: the assembled ones, and the step's system, which
    elementwise arithmetic on them keeps in their order."""

    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_assembled_bands(self, r):
        mesh = build_uniform_mesh(0, 1, 6, r)
        quad = gauss_legendre(r + 2)
        tables = ElementTables(mesh, quad)
        w = np.random.default_rng(r).standard_normal(mesh.n_interior)
        bands = [assemble_mass(mesh, quad, tables=tables),
                 assemble_plap(mesh, w, FluxParams(p=3.0), quad, tables=tables)]
        for eps in (0.0, 1e-2):         # K_T = (p-1) A, and K_T assembled
            bands += assemble_plap(mesh, w, FluxParams(p=3.0, epsilon=eps), quad,
                                   tables=tables, tangent=True)
        for band in bands:
            assert band.data.shape == (r + 1, mesh.n_interior)
            assert band.data.flags.f_contiguous

    @pytest.mark.parametrize("p, scheme", [(2.0, "A"), (2.0, "B"), (4.0, "N")])
    def test_step_system(self, p, scheme):
        problem = manufactured_example1(p, 1.0, horizon=0.01)
        mesh = build_uniform_mesh(0, 1, 6, 2)
        cfg = SolverConfig(p=p, delta=1e-3, n_steps=10, scheme=scheme)
        quad = gauss_legendre(default_quad_points(mesh.r, cfg.quad_points))
        asm = Assembler(mesh, quad, cfg.flux_params(), problem.f)
        hist = StateHistory(mesh.n_interior, cfg.n_steps, cfg.delta)
        hist.set_initial(interpolate(mesh, problem.u0))
        assert StepPlan(hist, problem.kernel, cfg, asm).system.data.flags.f_contiguous
