import numpy as np
import pytest

from plapmem import ConfigError, manufactured_example1
from plapmem.cli import main
from plapmem.experiments import (asymptotics_problem, propagation_problem,
                                 run_example, write_outputs)
from plapmem.mesh import (build_uniform_mesh, default_quad_points,
                          eval_on_elements, gauss_legendre)
from plapmem.stepper import SolverConfig, march


class TestRunExample:
    def test_unknown_id(self, tmp_path):
        with pytest.raises(ConfigError):
            run_example(5, out_dir=tmp_path)

    def test_convergence_study_restricted(self, tmp_path):
        # one exponent keeps the smoke test quick; full grids run in the
        # acceptance suite
        table = run_example(1, overrides={"p": 3.0}, out_dir=tmp_path)
        lines = table.read_text().splitlines()
        assert lines[0] == "p,r,h,delta,err_u,err_y,order_u,order_y"
        # 3 degrees x 4 meshes + 4 time steps at degree 4
        assert len(lines) == 1 + 12 + 4
        # observed orders near degree + 1 on the finest pair
        rows = [line.split(",") for line in lines[1:]]
        for r in (1, 2, 3):
            orders = [float(row[6]) for row in rows
                      if row[1] == str(r) and row[6]]
            assert orders[-1] == pytest.approx(r + 1, abs=0.35)

    def test_asymptotics_single_case(self, tmp_path):
        runs = run_example(2, overrides={"p": 2.0, "lambda": -1.0},
                           out_dir=tmp_path)
        assert len(runs) == 1
        sub = tmp_path / "example2" / "lambda-1.0_p2.0"
        assert (sub / "energy.csv").exists()
        b = runs[0].energies
        assert b[-1] > 0 and b[-1] < b[0]

    def test_propagation_single_case(self, tmp_path):
        runs = run_example(3, overrides={"lambda": 0.0}, out_dir=tmp_path)
        run = runs[0]
        sub = tmp_path / "example3" / "lambda0.0"
        support = (sub / "support.csv").read_text().splitlines()
        assert support[0] == "t,left,right"
        first = support[1].split(",")
        assert float(first[1]) == pytest.approx(-0.5, abs=run.mesh.h + 1e-12)
        assert float(first[2]) == pytest.approx(0.5, abs=run.mesh.h + 1e-12)
        # the dead zone shrinks over the run
        open_rows = [row.split(",") for row in support[1:]
                     if row.split(",")[1]]
        first_w = float(open_rows[0][2]) - float(open_rows[0][1])
        last_w = float(open_rows[-1][2]) - float(open_rows[-1][1])
        assert last_w < first_w

    def test_waiting_time_single_case(self, tmp_path):
        from plapmem import waiting_time
        runs = run_example(4, overrides={"lambda": 0.0}, out_dir=tmp_path)
        ts = waiting_time(runs[0])
        assert ts is not None and ts > 0

    def test_propagation_runs_in_lambda_order(self, tmp_path):
        # one run per lambda of example 3's sweep, in sweep order, each the
        # march of its own cell and each written to its own directory
        lam_values = (0.0, 1.0, -1.0)
        runs = run_example(3, out_dir=tmp_path)
        assert len(runs) == len(lam_values)
        for lam, run in zip(lam_values, runs):
            alone = march(propagation_problem(3.0, lam, 2, 10.0, 0.5),
                          build_uniform_mesh(-1.0, 1.0, 100, 1),
                          SolverConfig(p=3.0, delta=1e-3, n_steps=500, tol=1e-9))
            assert run.u.tobytes() == alone.u.tobytes()
            energy = tmp_path / "example3" / f"lambda{lam}" / "energy.csv"
            b_column = [line.split(",")[1] for line in energy.read_text().splitlines()[1:]]
            assert b_column == list(map(repr, run.energies.tolist()))

    def test_cli_example_growth_cell_runs(self, tmp_path, capsys):
        # lambda = -10 with p = 4: the solution grows and Newton follows it
        code = main(["example", "2", "--p", "4", "--lambda", "-10",
                     "--out", str(tmp_path)])
        assert code == 0
        assert "example 2" in capsys.readouterr().out
        sub = tmp_path / "example2" / "lambda-10.0_p4.0"
        for name in ("snapshots.csv", "energy.csv", "support.csv",
                     "diagnostics.csv"):
            text = (sub / name).read_text()
            assert "nan" not in text and "inf" not in text
        rows = [line.split(",") for line in
                (sub / "diagnostics.csv").read_text().splitlines()[1:]]
        assert len(rows) == 3000
        assert max(int(row[1]) for row in rows) <= 3
        energy = [float(line.split(",")[1]) for line in
                  (sub / "energy.csv").read_text().splitlines()[1:]]
        assert energy[-1] > 1e3 * energy[0]

    def test_cli_example_entry(self, tmp_path, capsys):
        code = main(["example", "3", "--lambda", "0", "--out", str(tmp_path)])
        assert code == 0
        assert "example 3" in capsys.readouterr().out


def row_formatted_outputs(run, snapshot_times):
    """The four CSVs of write_outputs with every row formatted on its own,
    each field by repr and None written as empty."""
    def csv(header, rows):
        return "".join(line + "\n" for line in [",".join(header)] + [
            ",".join(map(repr, row)).replace("None", "") for row in rows])

    quad = gauss_legendre(default_quad_points(run.mesh.r))
    snapshots = []
    for t_req in snapshot_times:
        k = int(np.argmin(np.abs(run.times - t_req)))
        x, uv = eval_on_elements(run.mesh, run.u[k], quad.points)
        _, yv = eval_on_elements(run.mesh, run.y[k], quad.points)
        snapshots += [(float(run.times[k]), *row) for row in zip(
            x.ravel().tolist(), uv.ravel().tolist(), yv.ravel().tolist())]
    times = run.times.tolist()
    return {
        "snapshots": csv(("t", "x", "u", "y"), snapshots),
        "energy": csv(("t", "b"), zip(times, run.energies.tolist())),
        "support": csv(("t", "left", "right"),
                       [(t, *(gap or (None, None))) for t, gap in zip(times, run.support)]),
        "diagnostics": csv(("k", "iterations", "increment_u", "increment_y", "relaxed"),
                           [(k, d.iterations, d.increment_u, d.increment_y, d.relaxed)
                            for k, d in enumerate(run.diagnostics)]),
    }


class TestWriteOutputs:
    # (problem, mesh, solver config, snapshot times); the dome at p = 1.5
    # goes extinct at step 108, so its support column has both kinds of rows
    CASES = {
        "manufactured": (manufactured_example1(3.0, 1.0, horizon=0.02),
                         build_uniform_mesh(0, 1, 6, 2),
                         SolverConfig(p=3.0, delta=1e-3, n_steps=20),
                         [0.0, 0.01, 0.02]),
        "dome-extinction": (asymptotics_problem(1.5, 0.0, horizon=3.0),
                            build_uniform_mesh(-1, 1, 10, 1),
                            SolverConfig(p=1.5, delta=1e-2, n_steps=300, tol=1e-9),
                            list(np.linspace(0.0, 3.0, 7))),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_bytes_match_row_formatter(self, tmp_path, case):
        problem, mesh, cfg, snapshot_times = self.CASES[case]
        run = march(problem, mesh, cfg)
        if case == "dome-extinction":
            assert None in run.support and any(run.support)
        paths = write_outputs(run, tmp_path, snapshot_times=snapshot_times)
        expected = row_formatted_outputs(run, snapshot_times)
        assert sorted(paths) == sorted(expected)
        for name, text in expected.items():
            assert paths[name].read_bytes() == text.encode("utf-8")
