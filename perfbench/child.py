"""One benchmark run in a fresh process; run.py starts it, one at a time.

    python child.py --root DIR --workload NAME --lam VALUE --trace 0|1 --result FILE

Times set-up (from before ``import plapmem`` until problem, mesh and config
exist) and the solve (from the ``march`` call until ``write_outputs``
returns), reads the peak resident set size, times a fixed reference
computation just before and just after the solve, then checks the outputs
outside the timed region and writes one JSON result to FILE. With
--trace 1 the solve runs under the span tracer and the spans are written
next to FILE.
"""

import argparse
import hashlib
import json
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

#: Iterations of the reference computation (about 0.25 s on a 2 GHz Xeon).
REFERENCE_ITERATIONS = 3000


def reference_seconds():
    """Time a fixed numpy/scipy computation shaped like a solver iteration.

    It uses no plapmem code, so it measures how fast this process runs at
    the moment, not the code under test; run.py rescales the solve time by
    it to cancel the CPU-speed swings of a shared host.
    """
    import numpy as np
    from scipy.linalg import solve_banded

    n = 255
    band = np.zeros((3, n))
    band[0, 1:] = -1.0
    band[1] = 4.0
    band[2, :-1] = -1.0
    rng = np.random.default_rng(0)
    x = rng.random(n)
    history = rng.random((200, n))
    weights = rng.random(200)
    start = time.perf_counter()
    for _ in range(REFERENCE_ITERATIONS):
        y = solve_banded((1, 1), band, x, check_finite=False)
        z = band[1] * y
        z[1:] += band[0, 1:] * y[:-1]
        z[:-1] += band[2, :-1] * y[1:]
        s = weights @ history
        x = 0.5 * x + z / (8.0 * np.abs(z).max()) + s / (8.0 * s.max())
    return time.perf_counter() - start


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--lam", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    result = {"ok": False, "trace": args.trace}
    try:
        _run(args, result)
    except Exception:   # any failure of the program under test is a failed run
        result["error"] = traceback.format_exc()
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


def _run(args, result):
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    result_path = Path(args.result)
    src = Path(args.root) / "src"
    sys.path.insert(0, str(src))

    start = time.perf_counter()
    import plapmem
    problem, mesh, cfg = workloads.build(workload, args.lam)
    result["setup_s"] = time.perf_counter() - start

    if Path(plapmem.__file__).resolve().parent != (src / "plapmem").resolve():
        raise ImportError(f"imported plapmem from {plapmem.__file__}, not {src}")

    reference_before = reference_seconds()
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()

    scratch = result_path.parent
    with tempfile.TemporaryDirectory(dir=scratch) as out_dir:
        def solve():
            run = plapmem.stepper.march(problem, mesh, cfg)
            plapmem.experiments.write_outputs(run, out_dir,
                                              workloads.snapshot_times(workload))
            return run

        try:
            start = time.perf_counter()
            run = tracer.root(solve) if tracer else solve()
            result["run_s"] = time.perf_counter() - start
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        finally:
            if tracer:
                tracer.restore()
        result["ref_s"] = 0.5 * (reference_before + reference_seconds())
        if tracer:
            spans_path = result_path.with_suffix(".spans.jsonl")
            tracer.dump(spans_path)
            result["spans"] = str(spans_path)

        import check
        out = Path(out_dir)
        result["output_bytes"] = sum(p.stat().st_size for p in out.iterdir())
        result["iterations"] = sum(d.iterations for d in run.diagnostics)
        result["steps"] = len(run.diagnostics)
        result["u_digest"] = hashlib.sha256(run.u[-1].tobytes()
                                            + run.y[-1].tobytes()).hexdigest()[:16]
        result["check"] = check.check_run(workload, args.lam, problem, mesh, cfg,
                                          run, out)
    result["ok"] = not result["check"]["errors"]


if __name__ == "__main__":
    main()
