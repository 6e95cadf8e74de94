"""Record the reference energies check.py compares the dome workload against.

    python3 perfbench/make_reference.py

Solves each dome workload at five λ spanning its seeded range and stores
the energy U^T M U every 100 steps in reference.json. check.py
interpolates these to a run's λ. Rerun only when the expected solution
itself changes, never to make a failing check pass.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS, build  # noqa: E402

NODES = (-1.0, -0.5, 0.0, 0.5, 1.0)
STRIDE = 100


def main():
    from plapmem.stepper import march

    reference = {}
    for workload in WORKLOADS.values():
        if workload.problem != "dome":
            continue
        lams = [workload.lam * (1.0 + workload.lam_spread * s) for s in NODES]
        steps = list(range(0, workload.n_steps + 1, STRIDE))
        energies = []
        for lam in lams:
            run = march(*build(workload, lam))
            energies.append([float(run.energies[k]) for k in steps])
            print(f"{workload.name} lambda {lam}: energy at T {energies[-1][-1]!r}")
        reference[workload.name] = {"lambda": lams, "steps": steps, "energy": energies}
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
