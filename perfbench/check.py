"""Oracles for one benchmark run, applied after the timed region.

Manufactured workloads: the L2 errors of u and y at T, computed here from
the written snapshots.csv against the exact solution written out here
(not taken from plapmem), must stay under the workload's bounds.

Dome workload: plapmem.stepper.step_residuals on sampled steps must be
small, and the written energy series must match the reference energies
(recorded from the seed code by make_reference.py) interpolated to the
run's λ.

Every written CSV must be free of NaN and infinity.
"""

import json
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")

#: Relative tolerance of the energy series against the reference. On the
#: seed, interpolation in λ is good to 4e-6 and tightening tol from 1e-9 to
#: 1e-11 (another converged iterate) moves the energies by 1.2e-6; dropping
#: the smallest history share (δ/8 g(0) y_k) moves them by 1.9e-3.
ENERGY_RTOL = 1e-4
#: Bound on max|residual| of each weak equation, relative to the largest
#: term it balances. At tol = 1e-9 converged steps leave up to 1.1e-3 in
#: the evolution equation (the matrix lags one iterate) and roundoff in the
#: memory relation.
RESIDUAL_RTOL = 1e-2
RESIDUAL_SAMPLES = 13


def _exact(x, t, p, lam):
    """u = (x(1-x))^2 e^-t and its memory term y = lam*psi*e^-t*(e^{(2-p)t}-1)/(2-p)."""
    w_x = 2.0 * x * (1.0 - x) * (1.0 - 2.0 * x)
    w_xx = 2.0 - 12.0 * x + 12.0 * x * x
    psi = (p - 1.0) * np.abs(w_x) ** (p - 2.0) * w_xx
    growth = t if p == 2.0 else np.expm1((2.0 - p) * t) / (2.0 - p)
    return (x * (1.0 - x)) ** 2 * np.exp(-t), lam * psi * np.exp(-t) * growth


def _read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _manufactured(workload, lam, mesh, out_dir):
    rows = _read_csv(out_dir / "snapshots.csv")
    rows = rows[rows[:, 0] == rows[:, 0].max()]
    q = workload.r + 2
    pts, wts = np.polynomial.legendre.leggauss(q)
    x_expect = (mesh.a + mesh.h * (np.arange(mesh.m)[:, None]
                                   + (pts[None, :] + 1.0) / 2.0)).ravel()
    if rows.shape[0] != x_expect.size or not np.allclose(rows[:, 1], x_expect,
                                                         rtol=0, atol=1e-12):
        return {"errors": ["snapshots.csv at T is not sampled at the Gauss points"]}
    u_ex, y_ex = _exact(rows[:, 1], rows[0, 0], workload.p, lam)
    weights = mesh.h * np.tile(wts / 2.0, mesh.m)
    err_u = float(np.sqrt(weights @ (rows[:, 2] - u_ex) ** 2))
    err_y = float(np.sqrt(weights @ (rows[:, 3] - y_ex) ** 2))
    errors = []
    if not err_u <= workload.max_err_u:
        errors.append(f"L2 error of u {err_u:.3e} > {workload.max_err_u:.1e}")
    if not err_y <= workload.max_err_y:
        errors.append(f"L2 error of y {err_y:.3e} > {workload.max_err_y:.1e}")
    return {"errors": errors, "err_u": err_u, "err_y": err_y}


def _reference_energies(workload, lam):
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload.name]
    nodes = np.asarray(ref["lambda"])
    table = np.asarray(ref["energy"])             # (len(nodes), len(steps))
    # Lagrange interpolation through all nodes, one column at a time.
    basis = np.array([np.prod([(lam - nodes[j]) / (nodes[i] - nodes[j])
                               for j in range(len(nodes)) if j != i])
                      for i in range(len(nodes))])
    return np.asarray(ref["steps"]), basis @ table


def _dome(workload, lam, problem, mesh, cfg, run, out_dir):
    from plapmem.memory import StateHistory
    from plapmem.mesh import default_quad_points, gauss_legendre
    from plapmem.stepper import Assembler, step_residuals

    errors = []
    energies = _read_csv(out_dir / "energy.csv")[:, 1]
    steps, ref = _reference_energies(workload, lam)
    rel = np.abs(energies[steps] - ref) / np.abs(ref)
    worst_energy = float(rel.max())
    if not worst_energy <= ENERGY_RTOL:
        k = int(steps[int(np.argmax(rel))])
        errors.append(f"energy at step {k} is {energies[k]:.9g}, reference "
                      f"{ref[int(np.argmax(rel))]:.9g} (rel {worst_energy:.2e})")

    quad = gauss_legendre(default_quad_points(mesh.r, cfg.quad_points))
    asm = Assembler(mesh, quad, cfg.flux_params(), problem.f)
    n_steps = cfg.n_steps
    hist = StateHistory(mesh.n_interior, n_steps, cfg.delta)
    hist.u[:] = run.u
    hist.y[:] = run.y
    hist.loads[0] = asm.load(0.0)
    for j in range(n_steps):
        hist.loads[1 + j] = asm.load((j + 0.5) * cfg.delta)
    hist.k = n_steps
    worst_residual = 0.0
    mass = asm.mass
    g0 = float(problem.kernel.g(0.0))
    for k in np.linspace(0, n_steps - 1, RESIDUAL_SAMPLES).astype(int):
        res_ev, res_mem = step_residuals(hist, int(k), problem.kernel, cfg, asm)
        u_mid = 0.5 * (hist.u[k + 1] + hist.u[k])
        my_bar = np.max(np.abs(mass.matvec(0.5 * (hist.y[k + 1] + hist.y[k]))))
        scale_ev = max(np.max(np.abs(mass.matvec(hist.u[k + 1] - hist.u[k]))) / cfg.delta,
                       np.max(np.abs(asm.plap(u_mid).matvec(u_mid))), my_bar)
        scale_mem = max(my_bar, abs(g0) * np.max(np.abs(mass.matvec(u_mid))))
        worst_residual = max(worst_residual,
                             float(np.max(np.abs(res_ev))) / scale_ev,
                             float(np.max(np.abs(res_mem))) / scale_mem)
    if not worst_residual <= RESIDUAL_RTOL:
        errors.append(f"step residual {worst_residual:.2e} relative > {RESIDUAL_RTOL:.0e}")
    return {"errors": errors, "energy_rel": worst_energy,
            "residual_rel": worst_residual}


def check_run(workload, lam, problem, mesh, cfg, run, out_dir):
    """{"errors": [...], ...measured oracle values}; no errors means correct."""
    out_dir = Path(out_dir)
    bad = [p.name for p in sorted(out_dir.glob("*.csv"))
           if any(tok in p.read_text(encoding="utf-8").lower()
                  for tok in ("nan", "inf"))]
    if workload.problem == "manufactured":
        result = _manufactured(workload, lam, mesh, out_dir)
    else:
        result = _dome(workload, lam, problem, mesh, cfg, run, out_dir)
    if bad:
        result["errors"].append(f"non-finite values in {', '.join(bad)}")
    return result
