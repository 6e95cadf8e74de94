"""Command-line interface: solve, example and verify subcommands."""

import argparse
import sys
from pathlib import Path

import numpy as np

from .analysis import manufactured_example1
from .config import parse_config, write_config_echo
from .errors import EXIT_IO, EXIT_OK, PlapmemError
from .experiments import run_example, write_outputs
from .mesh import build_uniform_mesh
from .stepper import march


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plapmem",
        description="1-D finite-element solver for p-Laplacian diffusion "
                    "with an exponential memory kernel")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the manufactured verification "
                                         "problem from a JSON config")
    solve.add_argument("--config", required=True, help="path to the JSON config")
    solve.add_argument("--out", default=None, help="output directory "
                                                   "(overrides output_dir)")

    example = sub.add_parser("example", help="run one of the built-in studies")
    example.add_argument("id", type=int, choices=(1, 2, 3, 4))
    example.add_argument("--p", type=float, default=None,
                         help="restrict the sweep to this exponent")
    example.add_argument("--lambda", dest="lam", type=float, default=None,
                         help="restrict the sweep to this kernel amplitude")
    example.add_argument("--out", default="out", help="output root directory")

    sub.add_parser("verify", help="run the built-in self checks")
    return parser


def _cmd_solve(args) -> int:
    cfg = parse_config(args.config)
    problem = manufactured_example1(cfg.solver.p, cfg.kernel_lambda, horizon=cfg.T)
    mesh = build_uniform_mesh(*cfg.domain, cfg.m, cfg.r)
    run = march(problem, mesh, cfg.solver)
    out = Path(args.out) if args.out else Path(cfg.output_dir)
    write_outputs(run, out, snapshot_times=cfg.snapshot_times)
    write_config_echo(cfg, out / "config.json")
    iters = [d.iterations for d in run.diagnostics]
    relaxed = sum(1 for d in run.diagnostics if d.relaxed)
    print(f"solved {cfg.solver.n_steps} steps on m={cfg.m}, r={cfg.r} "
          f"({sum(iters)} fixed-point iterations, at most {max(iters)} per step; "
          f"relaxed steps: {relaxed})")
    if run.errors is not None:
        measured = [f"{name} {err:.6e}" for name, err in run.errors.items()]
        skipped = [f"{name} not computed ({why})" for name, why in run.skipped_errors.items()]
        print(f"L2 error at T={cfg.T}: " + ", ".join(measured + skipped))
    print(f"outputs written to {out}")
    return EXIT_OK


def _cmd_example(args) -> int:
    run_example(args.id, overrides={"p": args.p, "lambda": args.lam}, out_dir=args.out)
    print(f"example {args.id} outputs written under "
          f"{Path(args.out) / f'example{args.id}'}")
    return EXIT_OK


def _cmd_verify() -> int:
    """Self checks: quadrature identities, kernel identity, manufactured
    forcing against an independent finite-difference/quadrature oracle.
    """
    from scipy.integrate import quad as scipy_quad

    from .analysis import plap_of_bump
    from .memory import exponential_kernel, forcing_weights, volterra_weights
    from .mesh import gauss_legendre

    failures = 0

    def report(name, ok, detail):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failures += 0 if ok else 1

    delta = 0.01
    worst = 0.0
    for k in range(201):
        vw, _ = volterra_weights(k, delta)
        worst = max(worst, abs(float(np.sum(vw)) + delta / 4.0 - (k + 0.5) * delta))
        fw, _ = forcing_weights(k, delta)
        worst = max(worst, abs(float(np.sum(fw)) - (k + 0.5) * delta))
    report("memory weight sums equal t_{k+1/2} (k <= 200)", worst < 1e-14,
           f"max deviation {worst:.2e}")

    kernel = exponential_kernel(1.7)
    lags = np.linspace(0.0, 5.0, 1000)
    dev = float(np.max(np.abs(kernel.gp(lags) + kernel.g(lags))))
    report("exponential kernel derivative identity", dev < 1e-14,
           f"max |g' + g| = {dev:.2e}")

    rule = gauss_legendre(6)
    errs = [abs(float(rule.weights @ rule.points ** d) - 1.0 / (d + 1))
            for d in range(12)]
    report("6-point Gauss rule exact through degree 11", max(errs) < 1e-14,
           f"max error {max(errs):.2e}")

    rng = np.random.default_rng(42)
    p, lam = 3.0, 1.0
    problem = manufactured_example1(p, lam)
    worst_rel = 0.0
    for _ in range(30):
        x = float(rng.uniform(0.05, 0.95))
        t = float(rng.uniform(0.01, 0.09))
        dt = 1e-6
        u_t = (problem.exact_u(x, t + dt) - problem.exact_u(x, t - dt)) / (2 * dt)
        lap = plap_of_bump(x, p) * np.exp(-(p - 1.0) * t)
        mem, _ = scipy_quad(lambda s: lam * np.exp(-(t - s))
                            * plap_of_bump(x, p) * np.exp(-(p - 1.0) * s),
                            0.0, t, epsabs=1e-12, epsrel=1e-12)
        expected = u_t - lap - mem
        got = problem.f(x, t)
        scale = max(1.0, abs(expected))
        worst_rel = max(worst_rel, abs(got - expected) / scale)
    report("manufactured forcing matches the defining equation",
           worst_rel < 1e-6, f"max relative deviation {worst_rel:.2e}")

    return EXIT_OK if failures == 0 else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "example":
            return _cmd_example(args)
        return _cmd_verify()
    except PlapmemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
