"""Run plapmem's examples and CLI commands in this checkout and another one,
and report every output that differs between the two.

    python3 tools/same_outputs.py --against ../other-checkout
    python3 tools/same_outputs.py --against ../other-checkout --examples 3
    python3 tools/same_outputs.py --against ../other-checkout --workloads --seeds 0,3

Each checkout's plapmem is loaded from its own src/ into this process
(checkout.load_package) and stands in for plapmem while it runs examples
1-4 (or those given with --examples) through `plapmem example ID --out
out`, one `plapmem solve` of the manufactured problem at p = 4, lambda = 1,
r = 2, m = 8, N = 50, T = 0.05 into `solve`, and `plapmem verify`, all in
a fresh temporary working directory of that checkout's own, so that
printed paths are the same on both sides. Every written file (the solve's
config echo included) and the stdout and exit status of every command are
then compared byte for byte: an output of one side only, or one whose
bytes differ, is reported, the latter with its first differing byte. A
differing CSV file gets a second line that says how much it differs:
whether its integer columns are identical, and for each float column the
largest difference between the two sides relative to the largest
magnitude in that column. The exit status is 0 when everything is
identical and 1 otherwise.

With --workloads, each checkout's plapmem, loaded the same way, instead
marches every perfbench workload at each seed of --seeds (default 0,3),
with its problem, mesh and config from this checkout's
perfbench/workloads.py (`build`, at the seed's drawn lambda). The u and y
of every level, the energies, the support gaps (NaN for a level without
one) and every step's StepDiagnostics field are compared byte for byte,
and each workload and seed gets one line: the levels all identical, or the
first level at which something differs and what, with how much u and y
change (level_changes). y's change is measured against u's scale too:
where y is far smaller than u, as on fine_mesh, a few-ulp change of u
carries over to y in absolute terms and would read as a large relative
change of y alone.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from checkout import as_plapmem, load_package

ROOT = Path(__file__).resolve().parent.parent
#: The name each side's plapmem is loaded under, one side at a time.
PACKAGE = "plapmem_compared"
SOLVE_CONFIG = {"domain": [0, 1], "p": 4, "lambda": 1, "T": 0.05, "r": 2, "m": 8,
                "N": 50}
#: The per-level arrays a workload march is compared by, with its step records.
LEVEL_FIELDS = ("u", "y", "energies", "support")


def jobs(examples):
    """(name, plapmem CLI arguments) of each command a checkout runs."""
    return ([(f"example {i}", ["example", str(i), "--out", "out"]) for i in examples]
            + [("solve", ["solve", "--config", "config.json", "--out", "solve"]),
               ("verify", ["verify"])])


def run_jobs(examples):
    """Run every job with the plapmem in force, in the working directory;
    returns {"<name> stdout": text, exit status included} and leaves the
    written files there."""
    from plapmem.cli import main
    Path("config.json").write_text(json.dumps(SOLVE_CONFIG), encoding="utf-8")
    stdout = {}
    for name, argv in jobs(examples):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            status = main(argv)
        stdout[f"{name} stdout"] = f"{buffer.getvalue()}exit status {status}\n"
    return stdout


def outputs(src, examples):
    """{name: bytes} of every file and stdout of one checkout's run, with
    plapmem loaded from src, in a fresh temporary working directory."""
    package, cwd = load_package(src, PACKAGE), os.getcwd()
    with tempfile.TemporaryDirectory() as workdir, as_plapmem(package):
        os.chdir(workdir)
        try:
            found = {name: text.encode() for name, text in run_jobs(examples).items()}
        finally:
            os.chdir(cwd)
        for path in sorted(Path(workdir).rglob("*")):
            name = path.relative_to(workdir).as_posix()
            if path.is_file() and name != "config.json":     # the solve's input
                found[name] = path.read_bytes()
    return found


def support_array(support) -> np.ndarray:
    """RunOutput.support as a (levels, 2) float array, NaN for no gap."""
    return np.array([gap or (np.nan, np.nan) for gap in support], dtype=float).reshape(-1, 2)


def workload_runs(src, seeds):
    """{"<workload>-seed<s>": saved march} of every perfbench workload at
    every seed, marched by plapmem loaded from src: the drawn lambda with
    the run's levels and step records, or the error of a march that
    raises."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    package, runs = load_package(src, PACKAGE), {}
    with as_plapmem(package):
        for name, workload in workloads.WORKLOADS.items():
            for seed in seeds:
                saved = runs[f"{name}-seed{seed}"] = {
                    "lam": workloads.draw_lambda(workload, seed)}
                try:
                    run = package.stepper.march(*workloads.build(workload, saved["lam"]))
                except Exception as exc:    # noqa: BLE001 - reported, not raised
                    saved["error"] = f"{type(exc).__name__}: {exc}"
                else:
                    saved.update(u=run.u, y=run.y, energies=run.energies,
                                 support=support_array(run.support),
                                 diagnostics=[d._asdict() for d in run.diagnostics])
    return runs


def as_bytes(value) -> bytes:
    """The bytes of a number, a tuple of numbers or an array, as floats."""
    return np.asarray(value, dtype=float).tobytes()


def first_differing_level(ours, theirs):
    """(level, names differing there) of two saved marches, or None if
    every level is byte for byte the same; a step's record belongs to the
    level it reaches. Level None where the runs do not line up: an error,
    or a different number of levels or unknowns."""
    if "error" in ours or "error" in theirs:
        return None if ours.get("error") == theirs.get("error") else (None, ["error"])
    if any(ours[name].shape != theirs[name].shape for name in LEVEL_FIELDS):
        return None, ["shape"]
    firsts = {}
    for name in LEVEL_FIELDS:
        for level, (a, b) in enumerate(zip(ours[name], theirs[name])):
            if as_bytes(a) != as_bytes(b):
                firsts[name] = level
                break
    for level, (a, b) in enumerate(zip(ours["diagnostics"], theirs["diagnostics"]), 1):
        for name in a:
            if name not in firsts and as_bytes(a[name]) != as_bytes(b[name]):
                firsts[name] = level
    if not firsts:
        return None
    level = min(firsts.values())
    return level, [name for name, first in firsts.items() if first == level]


def level_changes(ours, theirs) -> str:
    """The largest per-level change of u relative to max|u_k|, and of y
    relative to max(|y_k|, |u_k|), each level's magnitudes taken over both
    sides (a level that is zero on both sides changes by 0)."""
    def largest(name, scale):
        change = np.abs(ours[name] - theirs[name]).max(axis=1)
        return float(np.divide(change, scale, out=change, where=scale > 0).max())

    def magnitude(name):
        return np.maximum(np.abs(ours[name]).max(axis=1), np.abs(theirs[name]).max(axis=1))

    u_scale = magnitude("u")
    return (f"largest change per level: u {largest('u', u_scale):.2g} of max|u_k|, "
            f"y {largest('y', np.maximum(magnitude('y'), u_scale)):.2g} "
            "of max(|y_k|, |u_k|)")


def compare_workloads(against, seeds):
    """Print one line per workload and seed; returns how many differ."""
    ours, theirs = workload_runs(ROOT / "src", seeds), workload_runs(against / "src", seeds)
    differing = 0
    for stem in sorted(ours.keys() | theirs.keys()):
        if stem not in ours or stem not in theirs:
            differing += 1
            print(f"{stem}: only in {'this checkout' if stem in ours else against}")
            continue
        found = first_differing_level(ours[stem], theirs[stem])
        head = f"{stem} (lambda {ours[stem]['lam']:.6g})"
        if found is None:
            print(f"{head}: identical, " + (f"both fail: {ours[stem]['error']}"
                                           if "error" in ours[stem] else
                                           f"{len(ours[stem]['u'])} levels"))
            continue
        differing += 1
        level, fields = found
        print(f"{head}: " + (f"first differs at level {level}: {', '.join(fields)}; "
                             + level_changes(ours[stem], theirs[stem])
                             if level is not None else
                             f"runs do not line up: {', '.join(fields)}"))
    print(f"{len(ours)} workload runs here, {len(theirs)} in {against}: "
          f"{differing} differ")
    return differing


def first_difference(a: bytes, b: bytes) -> int:
    """The offset of the first byte where a and b differ (one is longer)."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def number(field: str):
    """A CSV field as int, else finite float, else None (empty, not finite or
    not a number)."""
    for parse in (int, float):
        try:
            value = parse(field)
        except ValueError:
            continue
        return value if math.isfinite(value) else None
    return None


def relative_difference(ours, theirs) -> float:
    """The largest |a - b| over a float column's differing rows, over the
    largest |a| or |b| in the column; inf where one of two differing
    fields is not a finite number."""
    scale = max((abs(v) for v in map(number, ours + theirs) if v is not None),
                default=0.0)
    largest = 0.0
    for x, y in zip(ours, theirs):
        if x != y:
            a, b = number(x), number(y)
            largest = max(largest, math.inf if a is None or b is None else abs(a - b))
    return largest / scale if scale else largest


def csv_difference(ours: bytes, theirs: bytes) -> str:
    """How two versions of one CSV file differ, on one line: whether the
    integer columns are identical, and each float column's
    relative_difference."""
    (head, *rows), (other_head, *other_rows) = (
        list(csv.reader(io.StringIO(data.decode()))) or [[]] for data in (ours, theirs))
    if (head != other_head or len(rows) != len(other_rows)
            or {len(row) for row in rows + other_rows} - {len(head)}):
        return "columns or rows differ"
    integers, floats = {}, []
    for name, a, b in zip(head, zip(*rows), zip(*other_rows)):
        if all(isinstance(number(field), int) for field in a + b if field):
            integers[name] = a == b
        else:
            floats.append(f"{name} {relative_difference(a, b):.2g}")
    parts = []
    if integers:
        differing = [name for name, same in integers.items() if not same]
        parts.append("integer columns " + (f"differ: {', '.join(differing)}"
                                           if differing else "identical"))
    if floats:
        parts.append("largest relative difference " + ", ".join(floats))
    return "; ".join(parts)


def compare(ours, theirs, against):
    """The report lines of every difference between two runs' outputs."""
    lines = []
    for name in sorted(ours.keys() | theirs.keys()):
        if name not in theirs:
            lines.append(f"only in this checkout: {name}")
        elif name not in ours:
            lines.append(f"only in {against}: {name}")
        elif ours[name] != theirs[name]:
            lines.append(f"differs: {name}, first at byte "
                         f"{first_difference(ours[name], theirs[name])}")
            if name.endswith(".csv"):
                lines.append(f"  {csv_difference(ours[name], theirs[name])}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, required=True,
                        help="another checkout whose src/ runs the same commands")
    parser.add_argument("--examples", type=int, nargs="*", default=[1, 2, 3, 4],
                        choices=(1, 2, 3, 4), help="the examples to run (default: all)")
    parser.add_argument("--workloads", action="store_true",
                        help="compare marches of the perfbench workloads instead")
    parser.add_argument("--seeds", default="0,3",
                        help="with --workloads, the seeds of the lambda draw (default 0,3)")
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]

    if args.workloads:
        return 1 if compare_workloads(args.against, seeds) else 0
    ours = outputs(ROOT / "src", args.examples)
    theirs = outputs(args.against / "src", args.examples)
    for line in compare(ours, theirs, args.against):
        print(line)
    differing = sum(ours.get(name) != theirs.get(name)
                    for name in ours.keys() | theirs.keys())
    print(f"{len(ours)} outputs here, {len(theirs)} in {args.against}: "
          f"{differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
