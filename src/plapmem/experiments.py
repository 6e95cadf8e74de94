"""The four built-in experiment drivers and the CSV emitters.

Each driver marches its sweep's cells one after another, writing a cell's
outputs before the next cell starts; the runs it returns are in sweep order.
"""

from pathlib import Path

import numpy as np

from .analysis import (ProblemSpec, RunOutput, convergence_orders,
                       manufactured_example1)
from .assembly import SeparableForcing
from .errors import ConfigError
from .memory import exponential_kernel
from .mesh import build_uniform_mesh, default_quad_points, eval_on_elements, gauss_legendre
from .stepper import SolverConfig, march


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats; plain str otherwise."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_lines(path: Path, header, lines) -> None:
    """A header and lines of already formatted fields."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line + "\n" for line in lines)


def _write_csv(path: Path, header, rows) -> None:
    """Rows of Python scalars, written by repr; a None field stays empty."""
    _write_lines(path, header,
                 (",".join(map(repr, row)).replace("None", "") for row in rows))


def write_outputs(run: RunOutput, out_dir, snapshot_times=None) -> dict:
    """Emit the standard CSV set for one run; returns the written paths.

    snapshots.csv samples u and y at quadrature resolution (r + 2 Gauss
    points per element) for each requested time, mapped to the nearest
    stored level. Fields are formatted as _write_csv formats them; a value
    that several rows share (a snapshot's t, the points x, a level's t) is
    formatted once.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc

    mesh = run.mesh
    times = run.times
    if snapshot_times is None:
        snapshot_times = [float(times[-1])]

    quad = gauss_legendre(default_quad_points(mesh.r))

    def snapshot_lines():
        xs = None           # every snapshot samples the same points
        for t_req in snapshot_times:
            k = int(np.argmin(np.abs(times - t_req)))
            points, uv = eval_on_elements(mesh, run.u[k], quad.points)
            _, yv = eval_on_elements(mesh, run.y[k], quad.points)
            xs = xs or list(map(repr, points.ravel().tolist()))
            t_k = repr(float(times[k]))
            yield from (f"{t_k},{x},{u!r},{y!r}" for x, u, y in zip(
                xs, uv.ravel().tolist(), yv.ravel().tolist()))

    paths = {}
    paths["snapshots"] = out / "snapshots.csv"
    _write_lines(paths["snapshots"], ("t", "x", "u", "y"), snapshot_lines())

    ts = list(map(repr, times.tolist()))
    paths["energy"] = out / "energy.csv"
    _write_lines(paths["energy"], ("t", "b"),
                 map("{},{!r}".format, ts, run.energies.tolist()))

    paths["support"] = out / "support.csv"
    _write_lines(paths["support"], ("t", "left", "right"),
                 (f"{t},{gap[0]!r},{gap[1]!r}" if gap else f"{t},,"
                  for t, gap in zip(ts, run.support)))

    paths["diagnostics"] = out / "diagnostics.csv"
    _write_csv(paths["diagnostics"],
               ("k", "iterations", "increment_u", "increment_y", "relaxed"),
               [(k, d.iterations, d.increment_u, d.increment_y, d.relaxed)
                for k, d in enumerate(run.diagnostics)])
    return paths


def run_example1(out_dir, p_values=(3.0, 4.0), lam=1.0) -> Path:
    """Convergence study: h-sweep for r = 1..3 and a time-step sweep at r = 4.

    The h-sweep fixes delta = 1e-4 over h in {1/4, 1/8, 1/16, 1/32}; the
    time-step sweep fixes r = 4, h = 0.1 (the exact spatial resolution for
    the quartic profile) and halves delta from T/10 to T/80. An error a run
    skipped (y's for p <= 1.5, see manufactured_example1) and its orders
    stay empty.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    horizon = 0.1
    # refinement series: (where the refined spacing sits in the row, cases);
    # a case is (p, r, m, delta, subdir) and its row starts (p, r, h, delta)
    series = [(2, [(p, r, m, 1e-4, f"p{_fmt(p)}_r{r}_m{m}") for m in (4, 8, 16, 32)])
              for p in p_values for r in (1, 2, 3)]
    series += [(3, [(p, 4, 10, horizon / n, f"p{_fmt(p)}_r4_N{n}")
                    for n in (10, 20, 40, 80)]) for p in p_values]
    rows = []
    for axis, cases in series:
        heads, err_u, err_y = [], [], []
        for p, r, m, delta, subdir in cases:
            n_steps = round(horizon / delta)
            cfg = SolverConfig(p=p, delta=horizon / n_steps, n_steps=n_steps, tol=1e-12,
                               max_iter=500)
            run = march(manufactured_example1(p, lam, horizon=horizon),
                        build_uniform_mesh(0.0, 1.0, m, r), cfg)
            write_outputs(run, out / subdir)
            heads.append((p, r, 1.0 / m, delta))
            err_u.append(run.errors["u"])
            err_y.append(run.errors.get("y"))
        spacing = [head[axis] for head in heads]
        ou = [None] + convergence_orders(err_u, spacing).tolist()
        oy = ([None] * len(err_y) if None in err_y
              else [None] + convergence_orders(err_y, spacing).tolist())
        rows += [head + errs for head, errs in zip(heads, zip(err_u, err_y, ou, oy))]

    table = out / "convergence.csv"
    _write_csv(table, ("p", "r", "h", "delta", "err_u", "err_y", "order_u", "order_y"),
               rows)
    return table


def _dome(x):
    return 1.0 - np.asarray(x, dtype=float) ** 4


def asymptotics_problem(p: float, lam: float, horizon: float = 3.0) -> ProblemSpec:
    """Free decay of the dome 1 - x^4 on (-1, 1); no forcing."""
    return ProblemSpec(a=-1.0, b=1.0, horizon=horizon, p=p,
                       kernel=exponential_kernel(lam),
                       u0=_dome, f=SeparableForcing())


def _sweep(out_dir, cells, m, n_snapshots):
    """March each (subdir, problem) cell and write its outputs under subdir.

    A cell runs on m linear elements of its problem's domain at
    delta = 1e-3 and tol 1e-9, with n_snapshots snapshots evenly spaced
    over [0, T]. Returns the runs in cell order.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    delta = 1e-3
    runs = []
    for subdir, problem in cells:
        mesh = build_uniform_mesh(problem.a, problem.b, m, 1)
        cfg = SolverConfig(p=problem.p, delta=delta,
                           n_steps=round(problem.horizon / delta), tol=1e-9)
        run = march(problem, mesh, cfg)
        write_outputs(run, out / subdir, snapshot_times=list(
            np.linspace(0.0, problem.horizon, n_snapshots)))
        runs.append(run)
    return runs


def run_example2(out_dir, p_values=(1.5, 2.0, 4.0), lam_values=(10.0, 0.0, -1.0, -10.0)):
    """Asymptotic behaviour of the dome datum for each (lambda, p) pair.

    The strongly negative amplitude drives space-oscillatory growth; at
    lambda = -10 with the degenerate p = 4 flux the solution grows to
    max |u(T)| ~ 3.7e3, which Newton follows at one to three iterations
    per step (1.4 on average).
    """
    cells = [(f"lambda{_fmt(lam)}_p{_fmt(p)}", asymptotics_problem(p, lam))
             for lam in lam_values for p in p_values]
    return _sweep(out_dir, cells, m=10, n_snapshots=7)


def _front_profile(x, sharpness: int, scale: float):
    """Datum vanishing on [-1/2, 1/2] with (x -+ 1/2)^sharpness edges."""
    x = np.asarray(x, dtype=float)
    left = scale * (x + 1.0) * np.maximum(-(x + 0.5), 0.0) ** sharpness
    right = scale * (1.0 - x) * np.maximum(x - 0.5, 0.0) ** sharpness
    return left + right


def propagation_problem(p: float, lam: float, sharpness: int, scale: float,
                        horizon: float) -> ProblemSpec:
    return ProblemSpec(a=-1.0, b=1.0, horizon=horizon, p=p,
                       kernel=exponential_kernel(lam),
                       u0=lambda x: _front_profile(x, sharpness, scale),
                       f=SeparableForcing())


def run_example3(out_dir, p=3.0, lam_values=(0.0, 1.0, -1.0)):
    """Finite propagation speed: quadratic-edge datum, dead zone shrinks."""
    cells = [(f"lambda{_fmt(lam)}", propagation_problem(p, lam, 2, 10.0, 0.5))
             for lam in lam_values]
    return _sweep(out_dir, cells, m=100, n_snapshots=6)


def run_example4(out_dir, p=3.0, lam_values=(0.0, -5.0)):
    """Waiting time: degree-7 edges keep the dead-zone boundary pinned."""
    cells = [(f"lambda{_fmt(lam)}", propagation_problem(p, lam, 7, 100.0, 0.5))
             for lam in lam_values]
    return _sweep(out_dir, cells, m=100, n_snapshots=6)


#: Each runner's p and lambda keywords; a "_values" keyword takes a tuple.
_RUNNERS = {1: (run_example1, "p_values", "lam"),
            2: (run_example2, "p_values", "lam_values"),
            3: (run_example3, "p", "lam_values"),
            4: (run_example4, "p", "lam_values")}


def run_example(example_id: int, overrides=None, out_dir="out"):
    """Dispatch one of the four built-in studies with optional overrides.

    overrides may carry "p" and "lambda"; each that is not None restricts
    the corresponding sweep to the single given value. The sweep defaults
    are the runners'.
    """
    if example_id not in _RUNNERS:
        raise ConfigError("example", f"must be 1, 2, 3 or 4, got {example_id}")
    overrides = overrides or {}
    runner, p_key, lam_key = _RUNNERS[example_id]
    kwargs = {}
    for key, value in ((p_key, overrides.get("p")),
                       (lam_key, overrides.get("lambda"))):
        if value is not None:
            kwargs[key] = (value,) if key.endswith("_values") else value
    return runner(Path(out_dir) / f"example{example_id}", **kwargs)
