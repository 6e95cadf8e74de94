"""The four built-in experiment drivers and the CSV emitters.

Sweeps run sequentially by default; with parallel=True the independent
runs go through a thread pool (every run owns its state) and results are
merged in sweep order, so output files do not depend on completion order.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional

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
               ("k", "iterations", "increment_u", "increment_y"),
               [(k, d.iterations, d.increment_u, d.increment_y)
                for k, d in enumerate(run.diagnostics)])
    return paths


def write_convergence_table(path, rows) -> None:
    """rows: (p, r, h, delta, err_u, err_y, order_u, order_y)."""
    _write_csv(Path(path),
               ("p", "r", "h", "delta", "err_u", "err_y", "order_u", "order_y"),
               rows)


def _run_sweep(tasks, parallel: bool, workers: Optional[int]):
    """Execute callables, preserving task order in the returned list."""
    if not parallel:
        return [task() for task in tasks]
    if workers is None:
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


def run_example1(out_dir, p_values=(3.0, 4.0), lam=1.0,
                 parallel=False, workers=None) -> Path:
    """Convergence study: h-sweep for r = 1..3 and a time-step sweep at r = 4.

    The h-sweep fixes delta = 1e-4 over h in {1/4, 1/8, 1/16, 1/32}; the
    time-step sweep fixes r = 4, h = 0.1 (the exact spatial resolution for
    the quartic profile) and halves delta from T/10 to T/80.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    horizon = 0.1
    ms = (4, 8, 16, 32)
    rs = (1, 2, 3)

    sweep = [(p, r, m) for p in p_values for r in rs for m in ms]
    tasks = [lambda p=p, r=r, m=m: _solve_manufactured(p, lam, m, r, 1e-4,
                                                       horizon=horizon)
             for p, r, m in sweep]
    runs = _run_sweep(tasks, parallel, workers)

    rows = []
    for (p, r, _), run in zip(sweep, runs):
        sub = out / f"p{_fmt(p)}_r{r}_m{run.mesh.m}"
        write_outputs(run, sub)
    for p in p_values:
        for r in rs:
            pts = [(run.mesh.h, run.errors["u"], run.errors["y"])
                   for (pp, rr, _), run in zip(sweep, runs)
                   if pp == p and rr == r]
            hs = [h for h, _, _ in pts]
            eu = [e for _, e, _ in pts]
            ey = [e for _, _, e in pts]
            ou = convergence_orders(eu, hs)
            oy = convergence_orders(ey, hs)
            for i, (h, u_err, y_err) in enumerate(pts):
                rows.append((p, r, h, 1e-4, u_err, y_err,
                             None if i == 0 else ou[i - 1],
                             None if i == 0 else oy[i - 1]))

    deltas = [horizon / n for n in (10, 20, 40, 80)]
    sweep_t = [(p, d) for p in p_values for d in deltas]
    tasks_t = [lambda p=p, d=d: _solve_manufactured(p, lam, 10, 4, d,
                                                    horizon=horizon)
               for p, d in sweep_t]
    runs_t = _run_sweep(tasks_t, parallel, workers)
    for (p, d), run in zip(sweep_t, runs_t):
        sub = out / f"p{_fmt(p)}_r4_N{round(horizon / d)}"
        write_outputs(run, sub)
    for p in p_values:
        pts = [(d, run.errors["u"], run.errors["y"])
               for (pp, d), run in zip(sweep_t, runs_t) if pp == p]
        ds = [d for d, _, _ in pts]
        eu = [e for _, e, _ in pts]
        ey = [e for _, _, e in pts]
        ou = convergence_orders(eu, ds)
        oy = convergence_orders(ey, ds)
        for i, (d, u_err, y_err) in enumerate(pts):
            rows.append((p, 4, 0.1, d, u_err, y_err,
                         None if i == 0 else ou[i - 1],
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
                 parallel=False, workers=None):
    """Asymptotic behaviour of the dome datum for each (lambda, p) pair.

    The strongly negative amplitude drives space-oscillatory growth; with
    the degenerate p = 4 flux on top the fixed-point iteration stops
    converging mid-run (step 477 at this time step), so lambda <= -10 with
    p >= 3 is kept out of the grid (it is also the one combination the
    reference study never shows). A request that leaves no cell raises
    ConfigError instead of writing nothing.
    """
    sweep = [(lam, p) for lam in lam_values for p in p_values
             if not (lam <= -10.0 and p >= 3.0)]
    if not sweep:
        raise ConfigError("lambda",
                          f"example 2 does not run lambda <= -10 with p >= 3 "
                          f"(the fixed-point iteration stops converging); "
                          f"got lambda in {tuple(lam_values)}, "
                          f"p in {tuple(p_values)}")
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
    runs = _run_sweep(tasks, parallel, workers)
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
                 parallel=False, workers=None):
    """Finite propagation speed: quadratic-edge datum, dead zone shrinks."""
    return _run_propagation(out_dir, p, lam_values, sharpness=2, scale=10.0,
                            horizon=horizon, parallel=parallel, workers=workers)


def run_example4(out_dir, p=3.0, lam_values=(0.0, -5.0), horizon=0.5,
                 parallel=False, workers=None):
    """Waiting time: degree-7 edges keep the dead-zone boundary pinned."""
    return _run_propagation(out_dir, p, lam_values, sharpness=7, scale=100.0,
                            horizon=horizon, parallel=parallel, workers=workers)


def _run_propagation(out_dir, p, lam_values, sharpness, scale, horizon,
                     parallel, workers):
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
    runs = _run_sweep(tasks, parallel, workers)
    for lam, run in zip(lam_values, runs):
        sub = out / f"lambda{_fmt(lam)}"
        write_outputs(run, sub, snapshot_times=list(np.linspace(0.0, horizon, 6)))
    return runs


def run_example(example_id: int, overrides=None, out_dir="out",
                parallel=False, workers=None):
    """Dispatch one of the four built-in studies with optional overrides.

    overrides may carry "p" and "lambda"; each restricts the corresponding
    sweep to the single given value.
    """
    overrides = overrides or {}
    p = overrides.get("p")
    lam = overrides.get("lambda")
    out = Path(out_dir) / f"example{example_id}"
    if example_id == 1:
        return run_example1(out, p_values=(p,) if p is not None else (3.0, 4.0),
                            lam=lam if lam is not None else 1.0,
                            parallel=parallel, workers=workers)
    if example_id == 2:
        return run_example2(out,
                            p_values=(p,) if p is not None else (1.5, 2.0, 4.0),
                            lam_values=(lam,) if lam is not None
                            else (10.0, 0.0, -1.0, -10.0),
                            parallel=parallel, workers=workers)
    if example_id == 3:
        return run_example3(out, p=p if p is not None else 3.0,
                            lam_values=(lam,) if lam is not None else (0.0, 1.0, -1.0),
                            parallel=parallel, workers=workers)
    if example_id == 4:
        return run_example4(out, p=p if p is not None else 3.0,
                            lam_values=(lam,) if lam is not None else (0.0, -5.0),
                            parallel=parallel, workers=workers)
    raise ConfigError("example", f"must be 1, 2, 3 or 4, got {example_id}")
