"""Time one benchmark workload with this checkout's plapmem and another
checkout's, interleaved in one process.

    python3 tools/interleave.py --against ../other-checkout --workload growth_damped
    python3 tools/interleave.py --against ../other-checkout --workload fine_mesh \\
        --rounds 30 --seed 3

Both checkouts' src/plapmem are loaded under distinct package names
(plapmem_here and plapmem_against), so the two solves of a round run back
to back in the same process and a shared host's slow swings of CPU speed
hit both alike. The workload comes from this checkout's
perfbench/workloads.py: its sizes, its lambda drawn for --seed and its
snapshot times, and its problem, mesh and config are made by
workloads.build with each package standing in for plapmem in turn, so
each side runs on its own modules' objects. A round times march +
write_outputs (into a fresh temporary directory) once per side, the other
checkout first in odd rounds. Printed: each side's minimum and median
round time and the rounds it won. In-process times like these support a
per-phase comparison; an end-to-end claim rests on perfbench/run.py
pairs, each run in a fresh process.
"""

import argparse
import contextlib
import gc
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("plapmem_here", "plapmem_against")


def load_package(src, name):
    """src/plapmem imported afresh as the package `name`, with its submodules."""
    for key in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[key]
    folder = Path(src) / "plapmem"
    spec = importlib.util.spec_from_file_location(
        name, folder / "__init__.py", submodule_search_locations=[str(folder)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for path in sorted(folder.glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"{name}.{path.stem}")
    return package


@contextlib.contextmanager
def as_plapmem(package):
    """Within the block, `import plapmem...` gives package and its modules."""
    prefix = package.__name__ + "."
    stand_in = {"plapmem": package}
    stand_in.update({"plapmem." + key[len(prefix):]: module
                     for key, module in sys.modules.items() if key.startswith(prefix)})
    saved = {key: sys.modules.get(key) for key in stand_in}
    sys.modules.update(stand_in)
    try:
        yield
    finally:
        for key, module in saved.items():
            if module is None:
                del sys.modules[key]
            else:
                sys.modules[key] = module


def timed_solve(package, problem, mesh, cfg, times):
    """Seconds of march + write_outputs at the given snapshot times."""
    with tempfile.TemporaryDirectory() as out:
        gc.collect()
        start = time.perf_counter()
        run = package.stepper.march(problem, mesh, cfg)
        package.experiments.write_outputs(run, out, times)
        return time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, required=True,
                        help="another checkout, whose src/plapmem is timed too")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0,
                        help="the seed of the workload's lambda draw")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    lam = workloads.draw_lambda(workload, args.seed)
    times = workloads.snapshot_times(workload)
    labels = {SIDES[0]: "this checkout", SIDES[1]: str(args.against)}
    built = {}
    for name, src in zip(SIDES, (ROOT / "src", args.against / "src")):
        package = load_package(src, name)
        with as_plapmem(package):
            built[name] = (package,) + workloads.build(workload, lam)

    seconds = {name: [] for name in SIDES}
    for round_ in range(args.rounds):
        for name in SIDES[::-1] if round_ % 2 else SIDES:
            seconds[name].append(timed_solve(*built[name], times))
    won = {SIDES[0]: 0, SIDES[1]: 0}
    for here, there in zip(*seconds.values()):
        won[SIDES[0] if here < there else SIDES[1]] += 1

    print(f"{args.workload}, lambda {lam:.6g} (seed {args.seed}), {args.rounds} rounds "
          "of march + write_outputs")
    for name in SIDES:
        print(f"{labels[name]}: min {min(seconds[name]):.4f} s, median "
              f"{statistics.median(seconds[name]):.4f} s, won {won[name]} of {args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
