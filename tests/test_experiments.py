import numpy as np
import pytest

from plapmem import ConfigError
from plapmem.cli import main
from plapmem.experiments import run_example


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

    def test_parallel_matches_sequential(self, tmp_path):
        seq = run_example(3, overrides={"p": 3.0}, out_dir=tmp_path / "seq")
        par = run_example(3, overrides={"p": 3.0}, out_dir=tmp_path / "par",
                          parallel=True)
        for a, b in zip(seq, par):
            assert np.array_equal(a.u, b.u)

    def test_cli_example_filtered_cell_is_config_error(self, tmp_path, capsys):
        # the one requested cell lies outside example 2's grid: exit 2
        # naming the field, not exit 0 with an empty output directory
        code = main(["example", "2", "--p", "4", "--lambda", "-10",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "lambda" in capsys.readouterr().err
        assert not (tmp_path / "example2").exists()

    def test_cli_example_entry(self, tmp_path, capsys):
        code = main(["example", "3", "--lambda", "0", "--out", str(tmp_path)])
        assert code == 0
        assert "example 3" in capsys.readouterr().out
