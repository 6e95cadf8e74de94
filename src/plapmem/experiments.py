"""The four built-in experiment drivers and the CSV emitters.

Sweeps run sequentially by default; with parallel=True the independent
runs go through a thread pool (every run owns its state) and results are
merged in sweep order, so output files do not depend on completion order.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .analysis import (ProblemSpec, RunOutput, convergence_orders,
                       manufactured_example1)
from .errors import ConfigError
from .memory import exponential_kernel
from .mesh import build_uniform_mesh, default_quad_points, eval_on_elements, gauss_legendre
from .stepper import SolverConfig, march

WORKERS_ENV = "PLAPMEM_WORKERS"


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats; plain str otherwise."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("" if v is None else _fmt(v) for v in row) + "\n")


def write_outputs(run: RunOutput, out_dir, snapshot_times=None) -> dict:
    """Emit the standard CSV set for one run; returns the written paths.

    snapshots.csv samples u and y at quadrature resolution (r + 2 Gauss
    points per element) for each requested time, mapped to the nearest
    stored level.
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
    snap_rows = []
    for t_req in snapshot_times:
        k = int(np.argmin(np.abs(times - t_req)))
        x, uv = eval_on_elements(mesh, run.u[k], quad.points)
        _, yv = eval_on_elements(mesh, run.y[k], quad.points)
        t_k = float(times[k])
        for xi, ui, yi in zip(x.ravel(), uv.ravel(), yv.ravel()):
            snap_rows.append((t_k, xi, ui, yi))

    paths = {}
    paths["snapshots"] = out / "snapshots.csv"
    _write_csv(paths["snapshots"], ("t", "x", "u", "y"), snap_rows)

    paths["energy"] = out / "energy.csv"
    _write_csv(paths["energy"], ("t", "b"),
               zip(times, run.energies))

    paths["support"] = out / "support.csv"
    _write_csv(paths["support"], ("t", "left", "right"),
               [(t, gap[0] if gap else None, gap[1] if gap else None)
                for t, gap in zip(times, run.support)])

    paths["diagnostics"] = out / "diagnostics.csv"
    _write_csv(paths["diagnostics"],
               ("k", "iterations", "increment_u", "increment_y", "relaxed"),
               [(k, d.iterations, d.increment_u, d.increment_y, d.relaxed)
                for k, d in enumerate(run.diagnostics)])
    return paths


def write_convergence_table(path, rows) -> None:
    """rows: (p, r, h, delta, err_u, err_y, order_u, order_y)."""
    _write_csv(Path(path),
               ("p", "r", "h", "delta", "err_u", "err_y", "order_u", "order_y"),
               rows)


def _run_sweep(tasks, parallel: bool):
    """Execute callables, preserving task order in the returned list."""
    if not parallel:
        return [task() for task in tasks]
    workers = int(os.environ.get(WORKERS_ENV, "0")) or (os.cpu_count() or 2)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(task) for task in tasks]
        return [f.result() for f in futures]


def _solve_manufactured(p, lam, m, r, delta, horizon=0.1, tol=1e-12,
                        max_iter=500):
    problem = manufactured_example1(p, lam, horizon=horizon)
    mesh = build_uniform_mesh(0.0, 1.0, m, r)
    n_steps = round(horizon / delta)
    cfg = SolverConfig(p=p, delta=horizon / n_steps, n_steps=n_steps, tol=tol,
                       max_iter=max_iter)
    return march(problem, mesh, cfg)


def run_example1(out_dir, p_values=(3.0, 4.0), lam=1.0, parallel=False) -> Path:
    """Convergence study: h-sweep for r = 1..3 and a time-step sweep at r = 4.

    The h-sweep fixes delta = 1e-4 over h in {1/4, 1/8, 1/16, 1/32}; the
    time-step sweep fixes r = 4, h = 0.1 (the exact spatial resolution for
    the quartic profile) and halves delta from T/10 to T/80.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    horizon = 0.1

    def case(p, r, m, delta, subdir):
        return ((p, r, 1.0 / m, delta), subdir,
                lambda: _solve_manufactured(p, lam, m, r, delta, horizon=horizon))

    # refinement series: (where the refined spacing sits in the row, cases);
    # a row starts (p, r, h, delta)
    series = [(2, [case(p, r, m, 1e-4, f"p{_fmt(p)}_r{r}_m{m}") for m in (4, 8, 16, 32)])
              for p in p_values for r in (1, 2, 3)]
    series += [(3, [case(p, 4, 10, horizon / n, f"p{_fmt(p)}_r4_N{n}")
                    for n in (10, 20, 40, 80)]) for p in p_values]
    runs = iter(_run_sweep([task for _, cases in series for *_, task in cases],
                           parallel))
    rows = []
    for axis, cases in series:
        errs = []
        for _, subdir, _ in cases:
            run = next(runs)
            write_outputs(run, out / subdir)
            errs.append((run.errors["u"], run.errors["y"]))
        spacing = [head[axis] for head, _, _ in cases]
        ou = convergence_orders([eu for eu, _ in errs], spacing)
        oy = convergence_orders([ey for _, ey in errs], spacing)
        for i, ((head, _, _), (eu, ey)) in enumerate(zip(cases, errs)):
            rows.append(head + (eu, ey, None if i == 0 else ou[i - 1],
                                None if i == 0 else oy[i - 1]))

    table = out / "convergence.csv"
    write_convergence_table(table, rows)
    return table


def _dome(x):
    return 1.0 - np.asarray(x, dtype=float) ** 4


def asymptotics_problem(p: float, lam: float, horizon: float = 3.0) -> ProblemSpec:
    """Free decay of the dome 1 - x^4 on (-1, 1); no forcing."""
    return ProblemSpec(a=-1.0, b=1.0, horizon=horizon, p=p,
                       kernel=exponential_kernel(lam),
                       u0=_dome, f=lambda x, t: np.zeros_like(np.asarray(x)))


def run_example2(out_dir, p_values=(1.5, 2.0, 4.0), lam_values=(10.0, 0.0, -1.0, -10.0),
                 parallel=False):
    """Asymptotic behaviour of the dome datum for each (lambda, p) pair.

    The strongly negative amplitude drives space-oscillatory growth; at
    lambda = -10 with the degenerate p = 4 flux the solution grows to
    max |u(T)| ~ 3.7e3, which Newton follows at one to three iterations
    per step (1.4 on average).
    """
    sweep = [(lam, p) for lam in lam_values for p in p_values]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    horizon, h, delta = 3.0, 0.2, 1e-3
    m = round(2.0 / h)
    n_steps = round(horizon / delta)

    def solve(lam, p):
        problem = asymptotics_problem(p, lam, horizon)
        mesh = build_uniform_mesh(-1.0, 1.0, m, 1)
        cfg = SolverConfig(p=p, delta=delta, n_steps=n_steps, tol=1e-9)
        return march(problem, mesh, cfg)

    tasks = [lambda lam=lam, p=p: solve(lam, p) for lam, p in sweep]
    runs = _run_sweep(tasks, parallel)
    for (lam, p), run in zip(sweep, runs):
        sub = out / f"lambda{_fmt(lam)}_p{_fmt(p)}"
        write_outputs(run, sub, snapshot_times=list(np.linspace(0.0, horizon, 7)))
    return runs


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
                       f=lambda x, t: np.zeros_like(np.asarray(x)))


def run_example3(out_dir, p=3.0, lam_values=(0.0, 1.0, -1.0), horizon=0.5,
                 parallel=False):
    """Finite propagation speed: quadratic-edge datum, dead zone shrinks."""
    return _run_propagation(out_dir, p, lam_values, sharpness=2, scale=10.0,
                            horizon=horizon, parallel=parallel)


def run_example4(out_dir, p=3.0, lam_values=(0.0, -5.0), horizon=0.5,
                 parallel=False):
    """Waiting time: degree-7 edges keep the dead-zone boundary pinned."""
    return _run_propagation(out_dir, p, lam_values, sharpness=7, scale=100.0,
                            horizon=horizon, parallel=parallel)


def _run_propagation(out_dir, p, lam_values, sharpness, scale, horizon,
                     parallel):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    h, delta = 0.02, 1e-3
    m = round(2.0 / h)
    n_steps = round(horizon / delta)

    def solve(lam):
        problem = propagation_problem(p, lam, sharpness, scale, horizon)
        mesh = build_uniform_mesh(-1.0, 1.0, m, 1)
        cfg = SolverConfig(p=p, delta=delta, n_steps=n_steps, tol=1e-9)
        return march(problem, mesh, cfg)

    tasks = [lambda lam=lam: solve(lam) for lam in lam_values]
    runs = _run_sweep(tasks, parallel)
    for lam, run in zip(lam_values, runs):
        sub = out / f"lambda{_fmt(lam)}"
        write_outputs(run, sub, snapshot_times=list(np.linspace(0.0, horizon, 6)))
    return runs


#: Each runner's p and lambda keywords; a "_values" keyword takes a tuple.
_RUNNERS = {1: (run_example1, "p_values", "lam"),
            2: (run_example2, "p_values", "lam_values"),
            3: (run_example3, "p", "lam_values"),
            4: (run_example4, "p", "lam_values")}


def run_example(example_id: int, overrides=None, out_dir="out", parallel=False):
    """Dispatch one of the four built-in studies with optional overrides.

    overrides may carry "p" and "lambda"; each restricts the corresponding
    sweep to the single given value. The sweep defaults are the runners'.
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
    return runner(Path(out_dir) / f"example{example_id}", parallel=parallel,
                  **kwargs)
