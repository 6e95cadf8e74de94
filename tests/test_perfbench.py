import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import check  # noqa: E402
import workloads  # noqa: E402
from plapmem.experiments import write_outputs  # noqa: E402
from plapmem.stepper import march  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_oracle(name, tmp_path):
    # the benchmark's run and oracle, untimed: the oracle writes
    # StateHistory.loads and calls flux_params and step_residuals, so a
    # change that breaks the benchmark's use of the package fails here
    workload = workloads.WORKLOADS[name]
    lam = workloads.draw_lambda(workload, 0)
    problem, mesh, cfg = workloads.build(workload, lam)
    run = march(problem, mesh, cfg)
    write_outputs(run, tmp_path, workloads.snapshot_times(workload))
    assert check.check_run(workload, lam, problem, mesh, cfg, run, tmp_path)["errors"] == []


def test_tracer_finds_every_layer_but_the_four_retired():
    # a refactor that moves or renames a wrapped lookup site (such as
    # stepper.cn_step) would otherwise hide that layer from the trace
    import plapmem.stepper
    import tracer

    original = plapmem.stepper.cn_step
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tr.absent == ["memory.memory_equation", "stepper.iteration_system",
                             "stepper.solve_block", "stepper.recover_memory_state"]
    finally:
        tr.restore()
    assert plapmem.stepper.cn_step is original
