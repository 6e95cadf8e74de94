"""The number rules of the entry points (mesh.finite_real and mesh.count):
every constructor either accepts a number or names the field it rejects, and
a user callable that returns something other than numbers is a ConfigError."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from plapmem import ConfigError, manufactured_example1
from plapmem.analysis import l2_error
from plapmem.assembly import FluxParams, SeparableForcing
from plapmem.memory import KernelSpec
from plapmem.mesh import build_uniform_mesh, gauss_legendre
from plapmem.stepper import SolverConfig, march

PROBLEM = manufactured_example1(3.0, 1.0)

# entry point: (build it with one keyword changed, {keyword: the fields its
# errors may name, the first being the keyword's own})
ENTRIES = {
    "SolverConfig": (
        lambda **kw: SolverConfig(**{"p": 3.0, "delta": 0.1, "n_steps": 10, **kw}),
        {"p": ("p",), "delta": ("delta",), "n_steps": ("N",), "tol": ("tol",),
         "max_iter": ("max_iter",), "epsilon": ("epsilon",),
         "quad_points": ("quadrature_points",)}),
    "FluxParams": (lambda **kw: FluxParams(**{"p": 3.0, **kw}),
                   {"p": ("p",), "epsilon": ("epsilon",)}),
    "KernelSpec": (KernelSpec, {"lam": ("kernel",)}),
    "ProblemSpec": (lambda **kw: dataclasses.replace(PROBLEM, **kw),
                    {"a": ("a", "domain"), "b": ("b", "domain"), "horizon": ("T",),
                     "p": ("p",)}),
    "build_uniform_mesh": (
        lambda **kw: build_uniform_mesh(**{"a": 0.0, "b": 1.0, "m": 4, "r": 1, **kw}),
        {"a": ("domain",), "b": ("domain",), "m": ("m",), "r": ("r",)}),
    "gauss_legendre": (gauss_legendre, {"q": ("quadrature_points",)}),
}
TARGETS = [(entry, key) for entry, (_, fields) in ENTRIES.items() for key in fields]
# keywords whose None asks for the default
OPTIONAL = {("SolverConfig", "epsilon"), ("SolverConfig", "quad_points"),
            ("FluxParams", "epsilon")}


def finite_real(value):
    """The rule, stated apart from mesh.finite_real: an int, a float or a
    numpy number, not a bool, that float() turns into a finite float."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:       # an int past 1e308
        return False


NOT_FINITE_REAL = ["0", None, True, False, math.nan, math.inf, -math.inf,
                   10**400, -10**400, np.float32(np.inf)]
EDGES = [0, -1, 1e308, 5e-324, np.float32(0.5), np.int64(3), np.int64(2**62)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(target=st.sampled_from(TARGETS), value=st.sampled_from(NOT_FINITE_REAL + EDGES))
@example(target=("KernelSpec", "lam"), value=10**400)
@example(target=("FluxParams", "p"), value=10**400)
@example(target=("SolverConfig", "p"), value=10**400)
@example(target=("SolverConfig", "delta"), value=10**400)
@example(target=("SolverConfig", "tol"), value=10**400)
@example(target=("ProblemSpec", "horizon"), value=10**400)
@example(target=("ProblemSpec", "a"), value=-10**400)
@example(target=("ProblemSpec", "b"), value=math.inf)
@example(target=("ProblemSpec", "p"), value=10**400)
@example(target=("ProblemSpec", "p"), value=math.inf)
@example(target=("build_uniform_mesh", "a"), value="0")
@example(target=("build_uniform_mesh", "a"), value=None)
@example(target=("build_uniform_mesh", "a"), value=True)
@example(target=("build_uniform_mesh", "a"), value=-10**400)
@example(target=("build_uniform_mesh", "m"), value=10**400)
# march takes its step count from the SolverConfig it is given
@example(target=("SolverConfig", "n_steps"), value=10**400)
def test_one_field_builds_or_names_itself(target, value):
    # a build succeeds or raises a ConfigError naming one of the field's
    # names, and no other exception; a value that is not a finite real
    # number always fails, under the field's own name
    build, fields = ENTRIES[target[0]]
    names = fields[target[1]]
    must_fail = not finite_real(value) and not (value is None and target in OPTIONAL)
    try:
        build(**{target[1]: value})
    except ConfigError as err:
        assert err.field == names[0] if must_fail else err.field in names
    else:
        assert not must_fail


# entry point: (build it with one count changed, the field its errors name)
COUNTS = {
    "SolverConfig n_steps": (lambda n: ENTRIES["SolverConfig"][0](n_steps=n), "N"),
    "SolverConfig max_iter": (lambda n: ENTRIES["SolverConfig"][0](max_iter=n), "max_iter"),
    "build_uniform_mesh m": (lambda n: build_uniform_mesh(0.0, 1.0, n, 1), "m"),
    "build_uniform_mesh r": (lambda n: build_uniform_mesh(0.0, 1.0, 4, n), "r"),
    "gauss_legendre q": (gauss_legendre, "quadrature_points"),
}


@pytest.mark.parametrize("value", [10**400, -10**400], ids=["huge", "-huge"])
@pytest.mark.parametrize("entry", COUNTS)
def test_a_count_past_float_range_is_not_finite(entry, value):
    # said in a short line, not with the count's 401 digits
    build, field = COUNTS[entry]
    with pytest.raises(ConfigError) as err:
        build(value)
    assert str(err.value) == f"{field}: must be finite"


@pytest.mark.parametrize("value", [True, np.bool_(True), 2.0, "2"])
@pytest.mark.parametrize("entry", COUNTS)
def test_a_count_that_is_no_integer_is_named(entry, value):
    build, field = COUNTS[entry]
    with pytest.raises(ConfigError, match=r"expected an integer, got ") as err:
        build(value)
    assert err.value.field == field


@pytest.mark.parametrize("entry, value, message", [
    ("SolverConfig n_steps", 0, "N: need an integer >= 1, got 0"),
    ("SolverConfig max_iter", np.int64(1), "max_iter: need an integer >= 2, got 1"),
    ("build_uniform_mesh m", -3, "m: need an integer >= 1, got -3"),
    ("build_uniform_mesh r", 7, "r: need an integer in [1, 6], got 7"),
    ("gauss_legendre q", 0, "quadrature_points: need an integer in [1, 16], got 0"),
])
def test_a_count_out_of_range_states_its_range(entry, value, message):
    with pytest.raises(ConfigError) as err:
        COUNTS[entry][0](value)
    assert str(err.value) == message


def test_counts_are_stored_as_python_ints():
    cfg = SolverConfig(p=3.0, delta=0.1, n_steps=np.int64(10), max_iter=np.int32(5))
    assert type(cfg.n_steps) is int and cfg.n_steps == 10
    assert type(cfg.max_iter) is int and cfg.max_iter == 5
    mesh = build_uniform_mesh(0.0, 1.0, np.int64(4), np.uint8(2))
    assert (type(mesh.m), type(mesh.r)) == (int, int) and (mesh.m, mesh.r) == (4, 2)


def test_a_float32_epsilon_is_kept_as_a_float():
    # a float32 eps once formed eps^2 in float32, inf for eps = 1e20, and its
    # bound test cast sqrt(float max) to float32 inf with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        epsilon = FluxParams(3.0, np.float32(1e20)).epsilon
        assert type(epsilon) is float
        assert math.isfinite(epsilon ** 2)
        assert epsilon ** 2 == float(np.float32(1e20)) ** 2


def returns_a_string(*_):
    return "a"


@pytest.mark.parametrize("change, field", [
    (dict(u0=returns_a_string), "u0"),
    (dict(f=returns_a_string), "forcing"),
    (dict(f=SeparableForcing(((returns_a_string, lambda t: 1.0),))), "forcing"),
    (dict(f=SeparableForcing(((np.sin, returns_a_string),))), "forcing"),
], ids=["u0", "f", "separable-space", "separable-time"])
def test_a_callable_returning_a_string_is_named(change, field):
    # numpy's ValueError "could not convert string to float" before
    mesh = build_uniform_mesh(PROBLEM.a, PROBLEM.b, 4, 1)
    with pytest.raises(ConfigError, match="returned a value that is not a real number: "
                                          "could not convert string to float") as err:
        march(dataclasses.replace(PROBLEM, **change), mesh,
              SolverConfig(p=3.0, delta=PROBLEM.horizon / 4, n_steps=4))
    assert err.value.field == field


def test_an_exact_solution_returning_a_string_is_named():
    mesh = build_uniform_mesh(0.0, 1.0, 4, 1)
    with pytest.raises(ConfigError, match="returned a value that is not a real") as err:
        l2_error(mesh, np.zeros(mesh.n_interior), returns_a_string)
    assert err.value.field == "exact"
    # a march reports it as the skipped error of u, as a non-finite one
    out = march(dataclasses.replace(PROBLEM, exact_u=returns_a_string), mesh,
                SolverConfig(p=3.0, delta=PROBLEM.horizon / 4, n_steps=4))
    assert out.skipped_errors["u"].startswith("exact: returned a value that is not")
