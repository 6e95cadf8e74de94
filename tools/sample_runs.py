"""Random forced-sine problems through plapmem's march: how many complete,
how many iterations they take, and how that compares with another checkout.

    python3 tools/sample_runs.py --scheme N --count 300 --seed 7 --steps 40
    python3 tools/sample_runs.py --scheme N --count 300 --seed 7 --steps 40 \\
        --against ../other-checkout

Run i draws, from numpy's default_rng(seed), an exponent p in (1, 6] (so
the regularized range p < 2 and the Newton tangent K_T there are sampled
too), a kernel amplitude lambda in [-10, 10], a degree r in 1..3, m in
4..12 elements and a time step delta = 10^U(-4, -1.5), in that order, and
solves u0 = sin(pi x), f = x (1 - x) cos t on (0, 1) for --steps steps at
tol 1e-12, tight enough that the counts measure the solver more than the
stopping rule. Every run takes the kernel KernelSpec(lambda). Every other
run (odd i) declares f as a SeparableForcing, the others pass it as a
plain callable, so both load paths are sampled with the same draws.
plapmem is loaded from src/ of this script's checkout into this process
(checkout.load_package). With --against DIR the same problems are also
solved by plapmem loaded from DIR/src, in the same process, and the runs
where this checkout does worse are counted: more iterations, or no
completion where DIR completed, and so are those whose slowest step got
slower. Iterations are counted over completed runs only. The last line
states the largest relative difference of the final u and y (max-norm of
the difference over max-norm of DIR's) over the runs that both checkouts
completed.
"""

import argparse
import sys
from pathlib import Path

from checkout import as_plapmem, load_package

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-12


def draw_problems(count, seed):
    import numpy as np
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(count):
        problems.append(dict(p=6.0 - 5.0 * rng.random(),
                             lam=rng.uniform(-10.0, 10.0),
                             r=int(rng.integers(1, 4)),
                             m=int(rng.integers(4, 13)),
                             delta=10.0 ** rng.uniform(-4.0, -1.5)))
    return problems


def solve_all(src, problems, scheme, n_steps):
    """One record per problem: status, total and largest per-step iterations,
    and the final u and y."""
    import numpy as np
    with as_plapmem(load_package(src, "plapmem_sampled")):
        from plapmem import (FixedPointDivergenceError, KernelSpec, PlapmemError,
                             ProblemSpec, SeparableForcing, SolverConfig,
                             build_uniform_mesh, march)

    separable = SeparableForcing(((lambda x: x * (1 - x), np.cos),))
    records = []
    for i, prob in enumerate(problems):
        delta = prob["delta"]
        problem = ProblemSpec(a=0.0, b=1.0, horizon=delta * n_steps, p=prob["p"],
                              kernel=KernelSpec(prob["lam"]),
                              u0=lambda x: np.sin(np.pi * np.asarray(x, dtype=float)),
                              f=separable if i % 2 else
                              lambda x, t: np.asarray(x) * (1 - np.asarray(x)) * np.cos(t))
        try:
            cfg = SolverConfig(p=prob["p"], delta=delta, n_steps=n_steps, tol=TOL,
                               scheme=scheme)
            with np.errstate(all="ignore"):
                run = march(problem, build_uniform_mesh(0, 1, prob["m"], prob["r"]), cfg)
        except FixedPointDivergenceError:
            records.append(dict(status="diverged"))
            continue
        except PlapmemError as exc:
            records.append(dict(status=f"failed ({type(exc).__name__})"))
            continue
        iters = [d.iterations for d in run.diagnostics]
        records.append(dict(status="completed", iterations=sum(iters),
                            max_step=max(iters), u=run.u[-1], y=run.y[-1]))
    return records


def summary(records):
    done = [r for r in records if r["status"] == "completed"]
    diverged = sum(r["status"] == "diverged" for r in records)
    total = sum(r["iterations"] for r in done)
    largest = max((r["max_step"] for r in done), default=0)
    return (f"{len(done)} completed, {diverged} diverged, "
            f"{len(records) - len(done) - diverged} failed; {total} iterations "
            f"in the completed runs, at most {largest} per step")


def compare(problems, ours, theirs):
    worse = []          # (ratio of total iterations, problem)
    for prob, a, b in zip(problems, ours, theirs):
        if b["status"] != "completed":
            continue
        if a["status"] != "completed":
            worse.append((float("inf"), prob))
        elif a["iterations"] > b["iterations"]:
            worse.append((a["iterations"] / b["iterations"], prob))
    slower = sum(a["status"] == b["status"] == "completed"
                 and a["max_step"] > b["max_step"]
                 for a, b in zip(ours, theirs))
    line = f"worse in {len(worse)} of {len(problems)} runs"
    if worse:
        ratio, prob = max(worse, key=lambda w: w[0])
        line += (f"; worst x{ratio:.2f} at p={prob['p']:.4g}, lambda={prob['lam']:.4g}, "
                 f"r={prob['r']}, m={prob['m']}, delta={prob['delta']:.3g}")
    return line + f"; slowest step slower in {slower} runs"


def accuracy(ours, theirs):
    """The largest relative difference of the final u and of the final y
    over the runs both completed."""
    import numpy as np
    both = [(a, b) for a, b in zip(ours, theirs)
            if a["status"] == b["status"] == "completed"]
    worst = {}
    for name in ("u", "y"):
        worst[name] = max((np.max(np.abs(np.subtract(a[name], b[name])))
                           / max(np.max(np.abs(b[name])), np.finfo(float).tiny)
                           for a, b in both), default=0.0)
    return (f"final level over the {len(both)} runs both completed: largest "
            f"relative difference {worst['u']:.3g} in u, {worst['y']:.3g} in y")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scheme", default="N", choices=("auto", "A", "B", "N"))
    parser.add_argument("--count", type=int, default=300)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--steps", type=int, default=40)
    parser.add_argument("--against", type=Path,
                        help="another checkout whose src/ solves the same problems")
    args = parser.parse_args(argv)

    problems = draw_problems(args.count, args.seed)
    ours = solve_all(ROOT / "src", problems, args.scheme, args.steps)
    print(f"scheme {args.scheme}, {args.count} runs, seed {args.seed}, "
          f"{args.steps} steps, tol {TOL:g}")
    print(f"this checkout: {summary(ours)}")
    if args.against is not None:
        theirs = solve_all(args.against / "src", problems, args.scheme, args.steps)
        print(f"{args.against}: {summary(theirs)}")
        print(compare(problems, ours, theirs))
        print(accuracy(ours, theirs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
