"""plapmem benchmark: end-to-end timings, or a traced run for per-layer time.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths are taken from
this file). Each measured solve runs in a fresh child process (child.py),
one at a time, until S seconds have been spent. The seed draws the kernel
amplitude λ of the workload (see workloads.py); every run's outputs are
checked against an oracle (check.py) outside the timed region, and a run
that fails its check counts as failed.

--trace 0 reports the end-to-end metrics, each the median over the runs:
  run_norm_s   run_wall_s rescaled to a fixed CPU speed: run_wall_s * 0.25 s / ref_s
  setup_s      setup_wall_s rescaled the same way
  peak_rss_mb  the child's ru_maxrss
where run_wall_s is the wall time from the march call until write_outputs
returns, setup_wall_s the wall time in the fresh process from before
`import plapmem` until problem, mesh and config exist, and ref_s the time
of a fixed numpy/scipy computation run in the same child just before and
just after the solve (child.py). On a shared host the CPU speed swings by
up to 2x over seconds to minutes; the wall times and ref_s move together,
so their ratios are steady where the wall times are not. The wall times
and ref_s are printed with their quartiles too.
--trace 1 alternates traced and untraced runs and reports the per-layer
metrics of the traced ones (tracer.py); the untraced ones serve only to
state the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. A full
report (environment, every sample, per-layer table) is written under
.bench_build/perfbench/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracer as tracing                      # noqa: E402
from workloads import WORKLOADS, draw_lambda  # noqa: E402

#: Whole-invocation budget; a child that would overrun it is killed.
BUDGET_S = 170.0
MIN_RUNS = 3           # untraced runs with --trace 0
MIN_TRACED = 2         # traced and untraced runs each with --trace 1

#: ref_s the wall times are rescaled to (child.reference_seconds).
REFERENCE_NOMINAL_S = 0.25


def normalized(key):
    """Wall seconds of `key` rescaled to the CPU speed where ref_s = 0.25 s."""
    return lambda result: result[key] * REFERENCE_NOMINAL_S / result["ref_s"]


run_norm_s = normalized("run_s")

# (name, unit, value of one run): the reported metrics, then the wall times
# they are computed from, which are printed only.
END_TO_END = (
    ("run_norm_s", "s", run_norm_s),
    ("setup_s", "s", normalized("setup_s")),
    ("peak_rss_mb", "MB", lambda r: r["peak_rss_mb"]),
)
WALL_TIMES = (
    ("run_wall_s", "s", lambda r: r["run_s"]),
    ("setup_wall_s", "s", lambda r: r["setup_s"]),
    ("ref_s", "s", lambda r: r["ref_s"]),
)


def _layer(name, key):
    return lambda layers, derived: layers[name].get(key, 0.0)


def _derived(key):
    return lambda layers, derived: derived[key]


# Per-layer metrics of a traced run: (metric name, unit, extractor).
PER_LAYER = (
    ("memory.memory_equation.self_s", "s", _layer("memory.memory_equation", "self_s")),
    ("memory.memory_equation.calls", "count", _layer("memory.memory_equation", "calls")),
    ("memory.memory_equation.growth", "ratio", _layer("memory.memory_equation", "growth")),
    ("assembly.assemble_plap.self_s", "s", _layer("assembly.assemble_plap", "self_s")),
    ("assembly.assemble_plap.us_per_call", "us", _layer("assembly.assemble_plap", "us_per_call")),
    ("assembly.assemble_load.self_s", "s", _layer("assembly.assemble_load", "self_s")),
    ("assembly.assemble_mass.calls", "count", _layer("assembly.assemble_mass", "calls")),
    ("banded.solve.self_s", "s", _layer("banded.solve", "self_s")),
    ("banded.solve.calls", "count", _layer("banded.solve", "calls")),
    ("banded.solve.us_per_call", "us", _layer("banded.solve", "us_per_call")),
    ("banded.solve.calls_per_iteration", "1/iter", _derived("solves_per_iteration")),
    ("banded.matvec.self_s", "s", _layer("banded.matvec", "self_s")),
    ("banded.matvec.calls", "count", _layer("banded.matvec", "calls")),
    ("stepper.cn_step.self_s", "s", _layer("stepper.cn_step", "self_s")),
    ("stepper.cn_step.p50_us", "us", _layer("stepper.cn_step", "p50_us")),
    ("stepper.cn_step.tail_us", "us", _layer("stepper.cn_step", "tail_us")),
    ("stepper.iterations_per_step", "iter/step", _derived("iterations_per_step")),
    ("stepper.relaxed_updates", "count", _derived("relaxed_updates")),
    ("stepper.solve_block.self_s", "s", _layer("stepper.solve_block", "self_s")),
    ("stepper.iteration_system.self_s", "s", _layer("stepper.iteration_system", "self_s")),
    ("stepper.recover_memory_state.self_s", "s",
     _layer("stepper.recover_memory_state", "self_s")),
    ("mesh.tabulate.calls", "count", _layer("mesh.tabulate", "calls")),
    ("mesh.tabulate.self_s", "s", _layer("mesh.tabulate", "self_s")),
    ("analysis.build_run_output.self_s", "s", _layer("analysis.build_run_output", "self_s")),
    ("experiments.write_outputs.self_s", "s", _layer("experiments.write_outputs", "self_s")),
    ("experiments.output_bytes", "B", _derived("output_bytes")),
    ("trace.overhead_pct", "%", _derived("overhead_pct")),
)


def environment(workload):
    import numpy
    import scipy

    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count(),
           "cpu_model": "unknown", "caches": {}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            env["caches"][f"L{level}"] = size
    n = workload.m * workload.r - 1
    # StateHistory keeps u and y for N+1 levels and N+2 loads, float64.
    env["history_working_set_mb_computed"] = 8 * n * (3 * workload.n_steps + 4) / 1e6
    return env


def run_child(workload, lam, trace, index, work_dir, deadline):
    result_path = work_dir / f"{workload.name}-{index}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, "-E", str(BENCH_DIR / "child.py"), "--root", str(ROOT),
           "--workload", workload.name, "--lam", repr(lam), "--trace", str(trace),
           "--result", str(result_path)]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"ok": False, "trace": trace, "error": "child timed out"}, \
            time.perf_counter() - started
    if not result_path.exists():
        return {"ok": False, "trace": trace,
                "error": f"child exited {proc.returncode}: {proc.stderr[-2000:]}"}, \
            time.perf_counter() - started
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if result.get("spans"):
        result["trace_summary"] = tracing.summarize(result["spans"])
        if index > 0:       # keep the first span file of an invocation only
            Path(result.pop("spans")).unlink()
    return result, time.perf_counter() - started


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure(workload, seed, seconds, trace, work_dir):
    """Run children until `seconds` are spent; returns the raw results."""
    lam = draw_lambda(workload, seed)
    started = time.monotonic()
    deadline = started + BUDGET_S
    results, durations = [], []
    while True:
        traced = sum(1 for r in results if r["trace"])
        plain = len(results) - traced
        if trace:
            want_trace = traced <= plain
            enough = traced >= MIN_TRACED and plain >= MIN_TRACED
        else:
            want_trace = False
            enough = plain >= MIN_RUNS
        spent = time.monotonic() - started
        estimate = statistics.median(durations) if durations else 0.0
        if enough and spent + estimate > seconds:
            break
        if time.monotonic() + estimate > deadline:
            break
        result, elapsed = run_child(workload, lam, int(want_trace), len(results),
                                    work_dir, deadline)
        results.append(result)
        durations.append(elapsed)
    return lam, results


def repeat_defects(results):
    """Counts that must repeat exactly across runs of one code version."""
    defects = []
    ok = [r for r in results if r["ok"]]
    for key in ("iterations", "output_bytes", "u_digest"):
        values = {r[key] for r in ok}
        if len(values) > 1:
            defects.append(f"{key} differs between runs: {sorted(map(str, values))}")
    calls = {tuple((name, r["trace_summary"]["layers"][name]["calls"])
                   for name in tracing.LAYERS)
             for r in ok if r["trace"]}
    if len(calls) > 1:
        defects.append("per-layer call counts differ between traced runs")
    return defects


def end_to_end_metrics(results):
    ok = [r for r in results if r["ok"] and not r["trace"]]
    metrics, lines = {}, []
    for name, unit, value in END_TO_END + WALL_TIMES:
        values = [value(r) for r in ok]
        med = statistics.median(values)
        q1, q3 = quartiles(values)
        tail = tracing.tail_percentile(len(values))
        tail_text = (f"p{tail:g} {tracing.percentile(sorted(values), tail):.4f}"
                     if tail else "tail n/a (<10 samples beyond p50)")
        lines.append(f"  {name:<12} median {med:.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}"
                     f"  n={len(values)}  {tail_text}")
        metrics[name] = {"value": med, "unit": unit}
    return {name: metrics[name] for name, _, _ in END_TO_END}, lines


def per_layer_metrics(results):
    ok = [r for r in results if r["ok"]]
    traced = [r for r in ok if r["trace"]]
    plain = [r for r in ok if not r["trace"]]
    per_run = []
    for r in traced:
        layers = r["trace_summary"]["layers"]
        absent = r["trace_summary"]["absent"]
        iterations = r["iterations"]
        relaxed = 0
        if not {"stepper.recover_memory_state", "stepper.solve_block"} & set(absent):
            relaxed = (layers["stepper.recover_memory_state"]["calls"]
                       - layers["stepper.solve_block"]["calls"])
        derived = {
            "iterations_per_step": iterations / r["steps"],
            "solves_per_iteration": layers["banded.solve"]["calls"] / iterations,
            "relaxed_updates": relaxed,
            "output_bytes": r["output_bytes"],
        }
        per_run.append((layers, derived))
    traced_norm_s = statistics.median(run_norm_s(r) for r in traced)
    plain_norm_s = statistics.median(run_norm_s(r) for r in plain)
    overhead = (traced_norm_s / plain_norm_s - 1.0) * 100.0
    for _, derived in per_run:
        derived["overhead_pct"] = overhead
    metrics = {name: {"value": statistics.median(fn(*run) for run in per_run), "unit": unit}
               for name, unit, fn in PER_LAYER}

    summary = traced[0]["trace_summary"]
    root_s = statistics.median(r["trace_summary"]["layers"][tracing.ROOT]["total_s"]
                               for r in traced)
    lines = [f"  traced run_norm_s {traced_norm_s:.4f} s vs untraced {plain_norm_s:.4f} s "
             f"(overhead {overhead:.1f} %, {len(traced)}+{len(plain)} runs, "
             f"{summary['spans']} spans, run id {summary['run_id']})",
             f"  {'layer':<30} {'calls':>8} {'self_s':>9} {'share':>7} {'total_s':>9}"]
    rows = []
    for name in (tracing.ROOT,) + tracing.LAYERS:
        self_s = statistics.median(r["trace_summary"]["layers"][name]["self_s"]
                                   for r in traced)
        total_s = statistics.median(r["trace_summary"]["layers"][name]["total_s"]
                                    for r in traced)
        rows.append((self_s, name, summary["layers"][name]["calls"], total_s))
    for self_s, name, calls, total_s in sorted(rows, reverse=True):
        lines.append(f"  {name:<30} {calls:>8} {self_s:>9.4f} "
                     f"{100 * self_s / root_s:>6.1f}% {total_s:>9.4f}")
    if summary["absent"]:
        lines.append(f"  absent layers (wrap target gone, reported as 0): "
                     f"{', '.join(summary['absent'])}")
    idle = [n for n in tracing.LAYERS
            if n not in summary["absent"] and summary["layers"][n]["calls"] == 0]
    if idle:
        lines.append(f"  layers wrapped but never called: {', '.join(idle)}")
    return metrics, lines


def bench_workload(workload, seed, seconds, trace, work_dir):
    env = environment(workload)
    lam, results = measure(workload, seed, seconds, trace, work_dir)
    failed = [r for r in results if not r["ok"]]
    print(f"workload {workload.name}  seed {seed}  lambda {lam:.6f}  trace {trace}  "
          f"(p={workload.p:g}, m={workload.m}, r={workload.r}, "
          f"n={workload.m * workload.r - 1}, delta={workload.delta:g}, "
          f"N={workload.n_steps}, tol={workload.tol:g})")
    caches = " ".join(f"{k} {v}" for k, v in env["caches"].items())
    print(f"  env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, cpu {env['cpu_model']!r}, {caches}")
    print(f"  history working set {env['history_working_set_mb_computed']:.1f} MB "
          f"(computed from array sizes) vs L3 {env['caches'].get('L3', 'unknown')}")
    for r in failed:
        reason = r.get("error") or "; ".join(r.get("check", {}).get("errors", []))
        print(f"  FAILED run: {reason.strip()}", file=sys.stderr)
    defects = repeat_defects(results)
    for d in defects:
        print(f"  BENCHMARK DEFECT: {d}", file=sys.stderr)
    metrics, lines = {}, []
    if len(failed) < len(results):
        try:
            if trace:
                metrics, lines = per_layer_metrics(results)
            else:
                metrics, lines = end_to_end_metrics(results)
        except statistics.StatisticsError:   # a needed run kind had no success
            metrics, lines = {}, ["  too few successful runs for the metrics"]
    for line in lines:
        print(line)
    checks = [r["check"] for r in results if "check" in r]
    if checks:
        keys = sorted({k for c in checks for k in c if k != "errors"})
        print("  oracle: " + ", ".join(
            f"{k} max {max(c[k] for c in checks if k in c):.3e}" for k in keys))
    print(f"  runs: {len(results)} attempted, {len(failed)} failed")
    report = {"workload": workload.name, "seed": seed, "lambda": lam, "trace": trace,
              "seconds": seconds, "environment": env, "defects": defects,
              "metrics": metrics, "runs": [
                  {k: v for k, v in r.items() if k != "trace_summary"}
                  | ({"layers": r["trace_summary"]["layers"]} if "trace_summary" in r else {})
                  for r in results]}
    report_path = work_dir / f"report-{workload.name}-seed{seed}-trace{trace}.json"
    report_path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    correct = not failed and not defects and len(metrics) > 0
    return correct, len(results), len(failed), metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "plapmem" / "__init__.py").is_file():
        print(f"error: no plapmem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work_dir = ROOT / ".bench_build" / "perfbench"
    work_dir.mkdir(parents=True, exist_ok=True)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, n_runs, n_failed, wl_metrics = bench_workload(
            WORKLOADS[name], args.seed, args.seconds, args.trace, work_dir)
        correct &= ok
        attempted += n_runs
        failed += n_failed
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in wl_metrics.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
