import json
import re
import warnings

import numpy as np
import pytest

from plapmem import ConfigError, parse_config, stepper
from plapmem.cli import main
from plapmem.config import config_to_dict, validate_config, write_config_echo
from plapmem.experiments import write_outputs
from plapmem import build_uniform_mesh, march, SolverConfig
from plapmem.experiments import asymptotics_problem

MINIMAL = {"p": 3, "r": 1, "m": 10, "N": 100, "T": 0.1, "lambda": 1,
           "domain": [0, 1]}
NO_LAMBDA = {key: value for key, value in MINIMAL.items() if key != "lambda"}


def write_json(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestValidateConfig:
    def test_minimal_defaults(self):
        cfg = validate_config(dict(MINIMAL))
        assert cfg.solver.tol == 1e-9
        assert cfg.solver.max_iter == 100
        assert cfg.solver.scheme == "N"           # auto resolves for p = 3
        assert cfg.solver.epsilon == 0.0
        assert cfg.solver.quad_points == 3        # r + 2
        assert cfg.solver.quadrature_mode == "consistent"
        assert cfg.snapshot_times == [0.0, 0.05, 0.1]
        assert cfg.solver.delta == pytest.approx(1e-3)

    def test_builds_one_solver_config(self, monkeypatch):
        # its checks, resolve_scheme and FluxParams run once, not again for
        # the point count
        calls = []
        resolve = stepper.resolve_scheme
        monkeypatch.setattr(stepper, "resolve_scheme",
                            lambda *args: calls.append(args) or resolve(*args))
        assert validate_config(dict(MINIMAL, quadrature_points=5)).solver.quad_points == 5
        assert calls == [(3.0, "auto")]

    def test_nested_kernel_form(self):
        raw = dict(MINIMAL)
        del raw["lambda"]
        raw["kernel"] = {"type": "exponential", "lambda": 2.5}
        assert validate_config(raw).kernel_lambda == 2.5

    @pytest.mark.parametrize("kernel,top_level,field", [
        ({"lamda": 5}, False, "kernel.lamda"),
        ({}, False, "kernel.lambda"),
        ({"type": "exponential", "lambda": 2.5}, True, "lambda"),
    ], ids=["misspelt-key", "missing-lambda", "both-forms"])
    def test_kernel_object_checked(self, kernel, top_level, field):
        # each of these used to run, with lambda 0 or the kernel's value
        raw = dict(MINIMAL, kernel=kernel)
        if not top_level:
            del raw["lambda"]
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert err.value.field == field

    def test_low_exponent_rejected(self):
        raw = dict(MINIMAL, p=0.5)
        with pytest.raises(ConfigError, match="p"):
            validate_config(raw)

    def test_unknown_field_named(self):
        raw = dict(MINIMAL, mesh_size=4)
        with pytest.raises(ConfigError, match="mesh_size"):
            validate_config(raw)

    def test_missing_required_field_named(self):
        raw = dict(MINIMAL)
        del raw["T"]
        with pytest.raises(ConfigError, match="T"):
            validate_config(raw)

    def test_domain_object_form(self):
        raw = dict(MINIMAL, domain={"a": 0, "b": 1})
        assert validate_config(raw).domain == (0.0, 1.0)

    @pytest.mark.parametrize("field,value", [
        ("N", 0), ("m", 0), ("r", 0), ("r", 9), ("tol", -1.0),
        ("max_iter", 1), ("scheme", "C"), ("quadrature_mode", "verbatim"),
        ("quadrature_points", 40), ("snapshot_times", [-1.0]),
        ("domain", [1, 0]), ("T", 0), ("p", 0.5), ("epsilon", -1.0),
        ("quadrature_points", 0),
    ])
    def test_invalid_values_rejected(self, field, value):
        raw = dict(MINIMAL)
        raw[field] = value
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert err.value.field == field

    @pytest.mark.parametrize("overrides,field", [
        ({"p": 1.5, "epsilon": 0.0}, "epsilon"),
        ({"p": 2.5, "scheme": "A"}, "scheme"),
    ])
    def test_exponent_dependent_rules_name_the_field(self, overrides, field):
        with pytest.raises(ConfigError) as err:
            validate_config(dict(MINIMAL, **overrides))
        assert err.value.field == field

    @pytest.mark.parametrize("raw,field", [
        (dict(MINIMAL, T="0.1"), "T"),
        (dict(MINIMAL, N=True), "N"),
        (dict(MINIMAL, m=2.5), "m"),
        (dict(MINIMAL, p=json.loads("NaN")), "p"),
        ([MINIMAL], "config"),
        (dict(MINIMAL, domain=[0]), "domain"),
        (dict(MINIMAL, domain=[0, True]), "domain"),
        (dict(NO_LAMBDA, kernel=2.5), "kernel"),
        (dict(NO_LAMBDA, kernel={"type": "power", "lambda": 1}), "kernel"),
        (NO_LAMBDA, "kernel"),
        (dict(MINIMAL, snapshot_times=0.05), "snapshot_times"),
        (dict(MINIMAL, snapshot_times=[0.0, "0.05"]), "snapshot_times"),
        (dict(MINIMAL, snapshot_times=[True]), "snapshot_times"),
        (dict(MINIMAL, output_dir=""), "output_dir"),
        (dict(MINIMAL, output_dir=3), "output_dir"),
    ], ids=["string-number", "bool-number", "fractional-integer", "nan",
            "top-level-list", "short-domain", "bool-in-domain", "kernel-number",
            "kernel-type", "no-kernel", "snapshots-number", "string-snapshot",
            "bool-snapshot", "empty-output-dir", "number-output-dir"])
    def test_json_shape_errors_name_the_field(self, raw, field):
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert err.value.field == field

    @pytest.mark.parametrize("field,literal", [
        ("m", "NaN"), ("N", "Infinity"), ("r", "-Infinity"),
        ("T", "1" + "0" * 400), ("lambda", "-1" + "0" * 400),
        ("domain", "[0, 1" + "0" * 400 + "]"), ("snapshot_times", "[0, NaN]"),
    ], ids=["m-nan", "N-infinity", "r-minus-infinity", "T-int-past-1e308",
            "lambda-int-past-minus-1e308", "domain-int-past-1e308", "snapshot-nan"])
    def test_number_beyond_float_range_named(self, field, literal):
        # JSON admits these; int() or float() of them used to raise untyped
        with pytest.raises(ConfigError) as err:
            validate_config(dict(MINIMAL, **{field: json.loads(literal)}))
        assert err.value.field == field
        assert str(err.value) == f"{field}: must be finite"

    def test_singular_range_needs_regularization(self):
        raw = dict(MINIMAL, p=1.5, epsilon=0.0)
        with pytest.raises(ConfigError, match="epsilon"):
            validate_config(raw)

    def test_roundtrip_through_echo(self, tmp_path):
        cfg = validate_config(dict(MINIMAL))
        echo = tmp_path / "echo.json"
        write_config_echo(cfg, echo)
        cfg2 = parse_config(echo)
        assert cfg2 == cfg
        assert config_to_dict(cfg2) == config_to_dict(cfg)

    def test_parse_config_file_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            parse_config(bad)


class TestWriteOutputs:
    def small_run(self, n_steps=2):
        mesh = build_uniform_mesh(-1, 1, 6, 1)
        problem = asymptotics_problem(2.0, 0.0, horizon=n_steps * 0.01)
        cfg = SolverConfig(p=2.0, delta=0.01, n_steps=n_steps)
        return march(problem, mesh, cfg)

    def test_row_counts(self, tmp_path):
        run = self.small_run(n_steps=2)
        paths = write_outputs(run, tmp_path / "out")
        energy_lines = paths["energy"].read_text().splitlines()
        assert energy_lines[0] == "t,b"
        assert len(energy_lines) == 1 + 3          # header + N + 1 rows
        support_lines = paths["support"].read_text().splitlines()
        assert len(support_lines) == 1 + 3
        diag_lines = paths["diagnostics"].read_text().splitlines()
        assert len(diag_lines) == 1 + 2            # one row per step

    def test_zero_trajectory_energies(self, tmp_path):
        mesh = build_uniform_mesh(-1, 1, 6, 1)
        from plapmem import KernelSpec, ProblemSpec
        problem = ProblemSpec(a=-1, b=1, horizon=0.02, p=2.0,
                              kernel=KernelSpec(0.0),
                              u0=lambda x: np.zeros_like(np.asarray(x)),
                              f=lambda x, t: np.zeros_like(np.asarray(x)))
        run = march(problem, mesh, SolverConfig(p=2.0, delta=0.01, n_steps=2))
        paths = write_outputs(run, tmp_path / "zero")
        rows = paths["energy"].read_text().splitlines()[1:]
        assert all(row.split(",")[1] == "0.0" for row in rows)

    def test_deterministic_rerun_byte_identical(self, tmp_path):
        run = self.small_run()
        paths1 = write_outputs(run, tmp_path / "a")
        paths2 = write_outputs(run, tmp_path / "b")
        for key in paths1:
            assert paths1[key].read_bytes() == paths2[key].read_bytes()

    def test_snapshot_sampling(self, tmp_path):
        run = self.small_run(n_steps=4)
        paths = write_outputs(run, tmp_path / "snap",
                              snapshot_times=[0.0, 0.04])
        lines = paths["snapshots"].read_text().splitlines()
        assert lines[0] == "t,x,u,y"
        ts = {line.split(",")[0] for line in lines[1:]}
        assert ts == {"0.0", "0.04"}
        # quadrature resolution: r + 2 points per element per time
        assert len(lines) - 1 == 2 * run.mesh.m * 3


def run_cli(tmp_path, payload, extra=()):
    path = write_json(tmp_path, payload)
    return main(["solve", "--config", str(path), "--out",
                 str(tmp_path / "out"), *extra])


class TestCliExitCodes:
    def test_solve_success(self, tmp_path, capsys):
        payload = dict(MINIMAL, m=4, N=10)
        assert run_cli(tmp_path, payload) == 0
        out = capsys.readouterr().out
        assert "L2 error" in out
        for name in ("snapshots.csv", "energy.csv", "support.csv",
                     "diagnostics.csv", "config.json"):
            assert (tmp_path / "out" / name).exists()

    def test_solve_summary_counts_iterations(self, tmp_path, capsys):
        # p = 4 at delta = 1e-2 relaxes at least one step of scheme A
        assert run_cli(tmp_path, dict(MINIMAL, p=4, r=4, m=10, N=10,
                                      scheme="A")) == 0
        out = capsys.readouterr().out
        rows = [line.split(",") for line in
                (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()[1:]]
        iterations = sum(int(row[1]) for row in rows)
        relaxed = sum(1 for row in rows if int(row[-1]) > 0)
        assert relaxed > 0
        assert f"({iterations} fixed-point iterations, at most " in out
        assert f"; relaxed steps: {relaxed})" in out

    def test_solve_writes_roundtrippable_echo(self, tmp_path):
        payload = dict(MINIMAL, m=4, N=10)
        assert run_cli(tmp_path, payload) == 0
        echoed = parse_config(tmp_path / "out" / "config.json")
        assert echoed.m == 4 and echoed.solver.n_steps == 10

    def test_config_error_is_2(self, tmp_path, capsys):
        assert run_cli(tmp_path, dict(MINIMAL, p=0.5)) == 2
        assert "p" in capsys.readouterr().err

    def test_singular_forcing_is_2(self, tmp_path, capsys):
        # for p < 2 the manufactured forcing is singular at x = 1/2, a
        # quadrature point of the r = 3, m = 5 mesh
        with np.errstate(divide="ignore", invalid="ignore"):
            assert run_cli(tmp_path, dict(MINIMAL, p=1.5, r=3, m=5, N=10)) == 2
        err = capsys.readouterr().err
        assert "forcing" in err and "t=0.0" in err and "x=0.5" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_singular_forcing_warns_nothing(self, tmp_path, capsys):
        # the singular forcing above with no errstate around the call: the
        # error line is all that reaches stderr
        assert run_cli(tmp_path, dict(MINIMAL, p=1.5, r=3, m=5, N=10)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "forcing" in err[0] and "t=0.0" in err[0] and "x=0.5" in err[0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_unmeasurable_error_said_not_computed(self, tmp_path, capsys):
        # for p < 2 the exact y has |w'|^(p-2), unbounded at x = 1/2, a point
        # of l2_error's 5-point rule on the r = 2, m = 3 mesh: the y error is
        # reported as not computed, with no inf and no RuntimeWarning
        payload = {"domain": [0, 1], "p": 1.7, "lambda": 1.0, "T": 0.01, "r": 2,
                   "m": 3, "N": 10}
        assert run_cli(tmp_path, payload) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        [line] = [line for line in captured.out.splitlines() if "L2 error" in line]
        assert re.search(r"\b(inf|nan)\b", line) is None
        assert re.fullmatch(r"L2 error at T=0\.01: u \S+e-\d+, y not computed \(exact: "
                            r"non-finite values at x=0\.5, 1 of 15 quadrature points\)",
                            line)

    @pytest.mark.filterwarnings("error")
    def test_infinite_error_said_not_computed(self, tmp_path, capsys):
        # for p <= 1.5 the exact y is not square-integrable, on any mesh: at
        # m = 4 no point of the error rule is x = 1/2, and a quadrature
        # would print a finite y error that grows under refinement
        payload = {"domain": [0, 1], "p": 1.3, "lambda": 1.0, "T": 0.01, "r": 1,
                   "m": 4, "N": 10}
        assert run_cli(tmp_path, payload) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        [line] = [line for line in captured.out.splitlines() if "L2 error" in line]
        assert re.fullmatch(r"L2 error at T=0\.01: u \S+e-\d+, y not computed \(exact: "
                            r"y is not square-integrable at p = 1\.3 <= 1\.5, .*: the "
                            r"L2 error is infinite\)", line)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_system_is_4_in_one_line(self, tmp_path, capsys):
        # T = 1e308 in one step: the step plan's system overflows to NaN,
        # reported as step 0's failed solve with no numpy warning before it
        assert run_cli(tmp_path, dict(MINIMAL, T=1e308, N=1)) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: step 0, iteration 1: non-finite entries in banded system"]

    def test_unallocatable_history_is_2(self, tmp_path, capsys):
        # valid as a config; the history's shape is refused, nothing allocated
        assert run_cli(tmp_path, dict(MINIMAL, N=10**300)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: N: ")
        assert "shape (1e+300, 9)" in err[0]

    @pytest.mark.parametrize("overrides,field", [
        ({"epsilon": 1e160}, "epsilon"),
        ({"m": 2**62}, "m"),
        ({"m": 2**62, "r": 2}, "m"),
        ({"N": float("inf")}, "N"),
        ({"T": 10**400}, "T"),
    ], ids=["epsilon-squared-overflows", "m-too-big", "m-r-too-big", "N-infinite",
            "T-past-float-range"])
    def test_unrepresentable_value_is_2(self, tmp_path, capsys, overrides, field):
        # each used to end in a traceback and exit 1; nothing is allocated
        assert run_cli(tmp_path, dict(MINIMAL, **overrides)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {field}: ")

    def test_manufactured_domain_pinned(self, tmp_path, capsys):
        assert run_cli(tmp_path, dict(MINIMAL, domain=[-1, 1])) == 2
        assert "domain" in capsys.readouterr().err

    def test_divergence_is_3(self, tmp_path, capsys):
        payload = dict(MINIMAL, p=4, r=4, m=10, N=10, tol=1e-30, max_iter=3)
        assert run_cli(tmp_path, payload) == 3
        assert "converge" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [
        # the relaxed iteration of scheme B stalls at step 1
        dict(MINIMAL, p=2.5, r=2, m=48, scheme="B"),
        # the iterates grow until the assembled system overflows
        dict(MINIMAL, p=6, r=2, m=32, N=10, T=0.5, scheme="B"),
    ])
    def test_diverging_iteration_is_3(self, tmp_path, capsys, payload):
        with np.errstate(over="ignore", invalid="ignore"):
            assert run_cli(tmp_path, payload) == 3
        assert "did not converge at step" in capsys.readouterr().err

    def test_overflowing_iterates_end_with_the_error_alone(self, tmp_path, capsys):
        # the iterates of scheme B overflow within the first steps
        payload = dict(MINIMAL, p=4, r=4, m=10, N=10, scheme="B",
                       quadrature_mode="literal", quadrature_points=7)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(tmp_path, payload) == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_assembly_warns_nothing(self, tmp_path, capsys):
        # the p = 6 scheme-B iterates overflow the flux coefficient and the
        # assembled system at step 1; no numpy warning may precede the error
        payload = dict(MINIMAL, p=6, r=2, m=32, N=10, T=0.5, scheme="B")
        assert run_cli(tmp_path, payload) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "did not converge at step 1" in err[0]

    def test_ill_posed_step_is_4(self, tmp_path):
        # delta * g(0) = -4 zeroes the memory coefficient
        payload = dict(MINIMAL, N=2, T=0.2, **{"lambda": -40})
        assert run_cli(tmp_path, payload) == 4

    def test_overflowing_memory_relation_names_its_step(self, tmp_path, capsys):
        # lambda times the manufactured forcing overflows the load share of
        # step 0's memory relation; the next step's solve used to fail
        # without naming a step
        payload = dict(MINIMAL, m=4, r=1, T=0.01, N=5, **{"lambda": 1e300})
        assert run_cli(tmp_path, payload) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: step 0, ")

    def test_io_failure_is_5(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory", encoding="utf-8")
        path = write_json(tmp_path, dict(MINIMAL, m=4, N=5))
        code = main(["solve", "--config", str(path), "--out", str(blocker)])
        assert code == 5

    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert [line.split(":")[0] for line in out.splitlines()] == [
            "PASS  memory weight sums equal t_{k+1/2} (k <= 200)",
            "PASS  6-point Gauss rule exact through degree 11",
            "PASS  manufactured forcing matches the defining equation"]
