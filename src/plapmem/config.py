"""JSON run configuration: parsing, validation and the resolved echo."""

import json
from dataclasses import dataclass, field
from typing import List

from .errors import ConfigError
from .mesh import build_uniform_mesh, count, default_quad_points, finite_real
from .stepper import SolverConfig

_KNOWN_FIELDS = {
    "domain", "T", "p", "kernel", "lambda", "r", "m", "N", "tol", "max_iter",
    "epsilon", "scheme", "quadrature_points", "quadrature_mode",
    "snapshot_times", "output_dir",
}


@dataclass
class RunConfig:
    """Fully resolved configuration for one solve (all defaults filled in)."""

    domain: tuple
    T: float
    kernel_lambda: float
    r: int
    m: int
    solver: SolverConfig
    snapshot_times: List[float] = field(default_factory=list)
    output_dir: str = "out"


def _require(raw: dict, key: str):
    if key not in raw:
        raise ConfigError(key, "required field is missing")
    return raw[key]


def _as_number(key, value, *, integer=False):
    """A JSON number as a float, or as an int with integer=True; checked
    (mesh.finite_real) before int() or float(), as JSON admits NaN, Infinity
    and ints past 1e308."""
    finite_real(key, value)
    if integer and int(value) != value:
        raise ConfigError(key, f"expected an integer, got {value!r}")
    return int(value) if integer else float(value)


def validate_config(raw: dict) -> RunConfig:
    """Turn a raw JSON dictionary into a fully resolved RunConfig.

    Any missing optional field gets its documented default. Only the JSON
    shape is checked here; the value rules are those of the SolverConfig
    (its quadrature rule included) and mesh built from it. Every error
    names the field.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be a JSON object")
    unknown = set(raw) - _KNOWN_FIELDS
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown field")

    dom = _require(raw, "domain")
    if isinstance(dom, dict):
        dom = [dom.get("a"), dom.get("b")]
    if not isinstance(dom, (list, tuple)) or len(dom) != 2:
        raise ConfigError("domain", f"expected [a, b], got {dom!r}")
    a, b = (_as_number("domain", v) for v in dom)

    T = _as_number("T", _require(raw, "T"))
    if not T > 0.0:
        raise ConfigError("T", f"must be > 0, got {T}")
    p = _as_number("p", _require(raw, "p"))
    r = _as_number("r", _require(raw, "r"), integer=True)
    m = _as_number("m", _require(raw, "m"), integer=True)
    n_steps = count("N", _as_number("N", _require(raw, "N"), integer=True), 1)

    # kernel: nested object, or the top-level "lambda" shorthand, not both
    if "kernel" in raw:
        ker = raw["kernel"]
        if not isinstance(ker, dict):
            raise ConfigError("kernel", f"expected an object, got {ker!r}")
        unknown = set(ker) - {"type", "lambda"}
        if unknown:
            raise ConfigError(f"kernel.{sorted(unknown)[0]}", "unknown field")
        if ker.get("type", "exponential") != "exponential":
            raise ConfigError("kernel", f"unsupported type {ker.get('type')!r}; "
                              "only \"exponential\" is built in")
        if "lambda" in raw:
            raise ConfigError("lambda", "give kernel.lambda or a top-level one, not both")
        if "lambda" not in ker:
            raise ConfigError("kernel.lambda", "required field is missing")
        lam = _as_number("kernel.lambda", ker["lambda"])
    elif "lambda" in raw:
        lam = _as_number("lambda", raw["lambda"])
    else:
        raise ConfigError("kernel", "required field is missing "
                          "(give kernel.lambda or a top-level lambda)")

    tol = _as_number("tol", raw.get("tol", 1e-9))
    max_iter = _as_number("max_iter", raw.get("max_iter", 100), integer=True)
    epsilon = raw.get("epsilon")
    if epsilon is not None:
        epsilon = _as_number("epsilon", epsilon)
    q = raw.get("quadrature_points")
    if q is not None:
        q = _as_number("quadrature_points", q, integer=True)

    build_uniform_mesh(a, b, m, r)      # first, as the default point count r + 2 needs a valid r
    solver = SolverConfig(p=p, delta=T / n_steps, n_steps=n_steps, tol=tol,
                          max_iter=max_iter, scheme=raw.get("scheme", "auto"),
                          epsilon=epsilon, quad_points=default_quad_points(r, q),
                          quadrature_mode=raw.get("quadrature_mode", "consistent"))

    snaps = raw.get("snapshot_times")
    if snaps is None:
        snaps = [0.0, T / 2.0, T]
    if not isinstance(snaps, list):
        raise ConfigError("snapshot_times", f"expected a list of times, got {snaps!r}")
    snaps = [_as_number("snapshot_times", v) for v in snaps]
    if any(not 0.0 <= v <= T for v in snaps):
        raise ConfigError("snapshot_times", f"times must lie in [0, {T}]")

    out_dir = raw.get("output_dir", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("output_dir", f"expected a non-empty string, got {out_dir!r}")

    return RunConfig(domain=(a, b), T=T, kernel_lambda=lam, r=r, m=m,
                     solver=solver, snapshot_times=snaps, output_dir=out_dir)


def parse_config(path) -> RunConfig:
    """Load and validate a JSON configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}") from exc
    return validate_config(raw)


def config_to_dict(cfg: RunConfig) -> dict:
    """Normalized dictionary form; parse(write(cfg)) round-trips exactly."""
    return {
        "domain": [cfg.domain[0], cfg.domain[1]],
        "T": cfg.T,
        "p": cfg.solver.p,
        "kernel": {"type": "exponential", "lambda": cfg.kernel_lambda},
        "r": cfg.r,
        "m": cfg.m,
        "N": cfg.solver.n_steps,
        "tol": cfg.solver.tol,
        "max_iter": cfg.solver.max_iter,
        "epsilon": cfg.solver.epsilon,
        "scheme": cfg.solver.scheme,
        "quadrature_points": cfg.solver.quad_points,
        "quadrature_mode": cfg.solver.quadrature_mode,
        "snapshot_times": cfg.snapshot_times,
        "output_dir": cfg.output_dir,
    }


def write_config_echo(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")
