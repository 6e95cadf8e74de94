import ast
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_record  # noqa: E402
import checkout  # noqa: E402
import interleave  # noqa: E402
import same_outputs  # noqa: E402
import sample_runs  # noqa: E402
import src_lines  # noqa: E402


def test_sampler_against_its_own_checkout(capsys):
    # scheme A is refused on 2 < p < 3, which the first and third draws
    # (p = 2.87, 2.01) hit
    for scheme, counts in (("N", "3 completed, 0 diverged, 0 failed"),
                           ("A", "1 completed, 0 diverged, 2 failed")):
        assert sample_runs.main(["--scheme", scheme, "--count", "3", "--seed", "7",
                                 "--steps", "5", "--against", str(ROOT)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"scheme {scheme}, 3 runs, seed 7, 5 steps, tol 1e-12"
        assert lines[1].startswith(f"this checkout: {counts}")
        assert lines[2].split(": ", 1)[1] == lines[1].split(": ", 1)[1]
        assert lines[3] == "worse in 0 of 3 runs; slowest step slower in 0 runs"
        done = counts[0]
        assert lines[4] == (f"final level over the {done} runs both completed: "
                            "largest relative difference 0 in u, 0 in y")


def test_same_outputs_against_its_own_checkout(capsys):
    # example 3's 12 files, the solve's 5 and the stdout of 3 commands
    assert same_outputs.main(["--against", str(ROOT), "--examples", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"20 outputs here, 20 in {ROOT}: 0 differ"]


def test_same_outputs_workloads_against_its_own_checkout(capsys):
    assert same_outputs.main(["--against", str(ROOT), "--workloads", "--seeds", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "fine_mesh-seed3 (lambda 0.998628): identical, 201 levels",
        "growth_damped-seed3 (lambda -9.95459): identical, 1201 levels",
        "history_long-seed3 (lambda 0.995251): identical, 2001 levels",
        f"3 workload runs here, 3 in {ROOT}: 0 differ"]


def test_same_outputs_finds_the_first_differing_level(monkeypatch, capsys):
    def saved(levels=6):
        record = {"iterations": 2, "increment_u": 0.0, "ratios": (0.5,)}
        return {"u": np.zeros((levels, 3)), "y": np.ones((levels, 3)),
                "energies": np.zeros(levels),
                "support": same_outputs.support_array([(-0.5, 0.5)] * levels),
                "diagnostics": [dict(record) for _ in range(levels - 1)]}
    ours, theirs = saved(), saved()
    assert same_outputs.first_differing_level(ours, theirs) is None
    theirs["y"][4, 2] = np.nextafter(1.0, 2.0)      # one ulp, at a later level
    theirs["diagnostics"][2]["ratios"] = (0.25,)    # the third step's: level 3
    assert same_outputs.first_differing_level(ours, theirs) == (3, ["ratios"])
    theirs["energies"][3] = -0.0    # the same value, other bytes
    assert same_outputs.first_differing_level(ours, theirs) == (3, ["energies", "ratios"])
    theirs = saved()
    theirs["diagnostics"][1]["ratios"] = (0.5, 0.5)     # one ratio more
    theirs["diagnostics"][1]["increment_u"] = -0.0
    assert same_outputs.first_differing_level(ours, theirs) == (2, ["increment_u",
                                                                    "ratios"])
    assert same_outputs.first_differing_level(ours, saved(7)) == (None, ["shape"])
    # a support gap that moves by one ulp, or is lost, at level 1
    for gap in ((-0.5, np.nextafter(0.5, 1.0)), None):
        theirs = saved()
        theirs["support"] = same_outputs.support_array([(-0.5, 0.5), gap] + [(-0.5, 0.5)] * 4)
        assert same_outputs.first_differing_level(ours, theirs) == (1, ["support"])
    assert same_outputs.support_array([]).shape == (0, 2)
    failed = {"lam": 1.0, "error": "LinearSolveError: singular"}
    assert same_outputs.first_differing_level(ours, failed) == (None, ["error"])
    assert same_outputs.first_differing_level(failed, dict(failed)) is None
    # the printed line scales u's change by max|u_k| and y's by
    # max(|y_k|, |u_k|): here u is 4 and y 1 at every level
    runs = {side: {"w-seed0": dict(saved(), lam=1.0, u=np.full((6, 3), 4.0))}
            for side in ("ours", "theirs")}
    runs["theirs"]["w-seed0"]["u"][2, 1] = 4.0 + 4e-12
    runs["theirs"]["w-seed0"]["y"][4, 0] = 1.0 + 2e-12
    monkeypatch.setattr(same_outputs, "workload_runs",
                        lambda src, seeds: runs["ours" if src == ROOT / "src" else "theirs"])
    assert same_outputs.compare_workloads(Path("other"), [0]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "w-seed0 (lambda 1): first differs at level 2: u; largest change per level: "
        "u 1e-12 of max|u_k|, y 5e-13 of max(|y_k|, |u_k|)",
        "1 workload runs here, 1 in other: 1 differ"]
    # levels that are zero on both sides (saved()'s u) change by 0, not nan
    assert same_outputs.level_changes(saved(), saved()) == (
        "largest change per level: u 0 of max|u_k|, y 0 of max(|y_k|, |u_k|)")


def test_interleave_against_its_own_checkout(capsys):
    before = sys.modules.get("plapmem")
    assert interleave.main(["--against", str(ROOT), "--workload", "growth_damped",
                            "--rounds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("growth_damped, lambda -10.0342 (seed 0), 2 rounds")
    won = []
    for line, label in zip(lines[1:], ("this checkout", str(ROOT))):
        assert line.startswith(f"{label}: min ")
        won.append(int(line.split("won ")[1].split(" of 2")[0]))
    assert len(lines) == 3 and sum(won) == 2
    # each side ran on its own package, and plapmem is left as it was
    here, there = (sys.modules[name] for name in interleave.SIDES)
    assert here is not there and here.stepper.march is not there.stepper.march
    assert sys.modules.get("plapmem") is before


def test_interleave_counts_a_tie_for_neither_side(monkeypatch, capsys):
    monkeypatch.setattr(interleave, "timed_solve", lambda *args: 0.25)
    assert interleave.main(["--against", str(ROOT), "--workload", "growth_damped",
                            "--rounds", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("won ")[1] for line in lines[1:]] == ["0 of 3", "0 of 3"]


def test_load_package_reads_only_the_given_src(tmp_path):
    folder = tmp_path / "src" / "plapmem"
    shutil.copytree(ROOT / "src" / "plapmem", folder,
                    ignore=shutil.ignore_patterns("__pycache__"))
    before = sys.modules.get("plapmem")
    package = checkout.load_package(tmp_path / "src", "plapmem_copy")
    loaded = [module for key, module in sys.modules.items()
              if key.split(".")[0] == "plapmem_copy"]
    assert len(loaded) == len(list(folder.glob("*.py")))
    assert {Path(module.__file__).parent for module in loaded} == {folder.resolve()}
    assert sys.modules.get("plapmem") is before
    with checkout.as_plapmem(package):
        from plapmem.stepper import march
        assert sys.modules["plapmem"] is package and march is package.stepper.march
    assert sys.modules.get("plapmem") is before


def test_load_package_refuses_a_module_from_elsewhere(tmp_path):
    (tmp_path / "elsewhere").mkdir()
    (tmp_path / "elsewhere" / "stray.py").write_text("")
    folder = tmp_path / "src" / "plapmem"
    folder.mkdir(parents=True)
    (folder / "__init__.py").write_text(
        f"__path__.append({str(tmp_path / 'elsewhere')!r})\nfrom . import stray\n")
    with pytest.raises(ImportError, match=r"plapmem_stray\.stray loaded from .*elsewhere"):
        checkout.load_package(tmp_path / "src", "plapmem_stray")
    with pytest.raises(ImportError, match="no plapmem package in"):
        checkout.load_package(tmp_path / "elsewhere", "plapmem_none")
    # a refused package leaves none of its modules loaded
    assert [key for key in sys.modules if key.startswith(("plapmem_stray", "plapmem_none"))] == []


def test_same_outputs_reports_first_differing_byte():
    ours = {"a.csv": b"t,u\n0.0,1.5\n", "b stdout": b"ok\n", "c.csv": b"x"}
    theirs = {"a.csv": b"t,u\n0.0,1.25\n", "b stdout": b"ok\n", "d.csv": b"x"}
    assert same_outputs.compare(ours, theirs, "other") == [
        "differs: a.csv, first at byte 10",
        "  largest relative difference t 0, u 0.17",
        "only in this checkout: c.csv", "only in other: d.csv"]
    assert same_outputs.first_difference(b"abc", b"abcd") == 3


def test_same_outputs_says_how_much_a_csv_differs():
    ours = {"d.csv": b"k,iterations,inc,u,gap\n0,2,1e-20,1.0,\n1,3,2e-20,-0.5,0.25\n",
            "e.csv": b"k,u\n0,1.0\n", "f.txt": b"1.0\n"}
    theirs = {"d.csv": b"k,iterations,inc,u,gap\n0,2,3e-20,1.0,\n1,3,2e-20,-0.5,0.5\n",
              "e.csv": b"k,u\n0,1.0\n1,2.0\n", "f.txt": b"1.5\n"}
    assert same_outputs.compare(ours, theirs, "other") == [
        "differs: d.csv, first at byte 27",
        # 2e-20 of at most 3e-20 in inc, 0.25 of at most 0.5 in gap
        "  integer columns identical; "
        "largest relative difference inc 0.67, u 0, gap 0.5",
        "differs: e.csv, first at byte 10", "  columns or rows differ",
        "differs: f.txt, first at byte 2"]
    # an integer column that differs is named; a field missing on one side,
    # or not finite, is an infinite difference
    assert same_outputs.csv_difference(
        b"k,n,x,y\n0,1,0.5,nan\n1,2,,1.0\n", b"k,n,x,y\n0,1,0.5,1.0\n1,4,1.0,1.0\n"
    ) == "integer columns differ: n; largest relative difference x inf, y inf"
    assert same_outputs.csv_difference(b"t,gap\n0.0,\n", b"t,gap\n0.0,nan\n") == (
        "largest relative difference t 0, gap inf")


def test_problems_cover_the_stated_ranges():
    problems = sample_runs.draw_problems(200, 1)
    assert all(1.0 < q["p"] <= 6.0 and -10.0 <= q["lam"] <= 10.0
               and q["r"] in (1, 2, 3) and 4 <= q["m"] <= 12
               and 1e-4 <= q["delta"] <= 10 ** -1.5 for q in problems)
    assert {q["r"] for q in problems} == {1, 2, 3}
    assert {q["p"] > 2.0 for q in problems} == {True, False}
    assert {q["m"] for q in problems} == set(range(4, 13))


def synthetic_report(run_norm_s, failed=0):
    # run i takes (i + 1) times the wall times and ref_s of the first
    return {"workload": "growth_damped", "seed": 4, "lambda": -10.01, "trace": 0,
            "metrics": {"run_norm_s": {"value": run_norm_s, "unit": "s"},
                        "setup_s": {"value": 0.6, "unit": "s"},
                        "peak_rss_mb": {"value": 60.5, "unit": "MB"}},
            "runs": [{"ok": i >= failed, "run_s": 0.2 * (i + 1), "setup_s": 0.1 * (i + 1),
                      "ref_s": 0.25 * (i + 1)} for i in range(3)]}


def test_bench_record_of_one_pair(tmp_path, capsys):
    paths = {}
    for side, value, failed in (("change", 0.18, 0), ("parent", 0.20, 1)):
        paths[side] = tmp_path / f"{side}.json"
        paths[side].write_text(json.dumps(synthetic_report(value, failed)))
    out = tmp_path / "BENCH_0.json"
    assert bench_record.main(["--out", str(out), f"change:{paths['change']}",
                              f"parent:{paths['parent']}"]) == 0
    result = json.loads(out.read_text())
    assert result["metrics"] == {"run_norm_s": "lower", "setup_s": "lower",
                                 "peak_rss_mb": "lower"}
    entry = result["workloads"]["growth_damped"]
    (pair,) = entry["pairs"]
    assert (pair["first"], pair["seed"], pair["lambda"]) == ("change", 4, -10.01)
    # the raw medians are over the successful runs: runs 2 and 3 for the parent
    assert pair["parent"] == {"metrics": {"run_norm_s": 0.20, "setup_s": 0.6,
                                          "peak_rss_mb": 60.5}, "runs": 3, "failed": 1,
                              "raw": {"run_s": pytest.approx(0.5),
                                      "setup_s": pytest.approx(0.25),
                                      "ref_s": pytest.approx(0.625)}}
    assert pair["change"]["failed"] == 0
    assert pair["change"]["raw"] == {"run_s": 0.4, "setup_s": 0.2, "ref_s": 0.5}
    run = entry["metrics"]["run_norm_s"]
    assert run["parent"] == {"median": 0.20, "q1": 0.20, "q3": 0.20}
    assert run["change"]["median"] == 0.18 and run["change_wins"] == 1
    assert entry["metrics"]["setup_s"]["change_wins"] == 0     # a tie is no win
    assert "run_norm_s: parent 0.2 (0.2-0.2), change 0.18" in capsys.readouterr().out
    # an unpaired report is refused
    assert bench_record.main(["--out", str(out), f"change:{paths['change']}"]) == 2


def test_bench_record_raw_medians_need_a_successful_run():
    # a run that failed may have stopped before its clocks were read
    runs = [{"ok": False}, {"ok": False, "run_s": 1.0, "setup_s": 1.0, "ref_s": 1.0}]
    assert bench_record.raw_medians(runs) == {"run_s": None, "setup_s": None,
                                              "ref_s": None}


FIXTURE = '''"""Module docstring,

over three lines."""
import os  # a trailing comment: code

# a comment line


class Thing:
    """One-line class docstring."""

    def method(self):
        """Two lines
        of docstring."""
        text = """a string
that is not a docstring"""
        return text    # code
'''


def test_src_lines_of_a_fixture(tmp_path, capsys):
    assert src_lines.count_lines(FIXTURE) == {"code": 6, "docstring": 6,
                                              "comment": 1, "blank": 4}
    (tmp_path / "mod.py").write_text(FIXTURE, encoding="utf-8")
    assert src_lines.main([str(tmp_path)]) == 0
    total = capsys.readouterr().out.splitlines()[-1].split()
    assert total == ["total", "6", "6", "1", "4", "17"]


def test_src_lines_categories_add_up_to_wc():
    for path in (ROOT / "src" / "plapmem").glob("*.py"):
        source = path.read_text(encoding="utf-8")
        assert sum(src_lines.count_lines(source).values()) == source.count("\n")


def test_src_lines_fit_in_99_characters():
    long = [f"{path.relative_to(ROOT)}:{number}: {len(line)} characters"
            for path in sorted((ROOT / "src").rglob("*.py"))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 99]
    assert long == []


ENTRY_POINTS = {"SolverConfig", "FluxParams", "KernelSpec", "ProblemSpec", "Mesh1D"}


def test_one_number_rule_in_src():
    # numbers.Real appears only in mesh.finite_real and np.integer only in
    # mesh.count, is_count nowhere, and no entry point's __init__ or
    # __post_init__ tests finiteness on its own
    rule, counted, found, entries = [], [], [], set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {(function.name, id(node)) for function in tree.body
                  if isinstance(function, ast.FunctionDef) and path.name == "mesh.py"
                  for node in ast.walk(function)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "Real"
                    or isinstance(node, ast.ImportFrom) and node.module == "numbers"):
                (rule if ("finite_real", id(node)) in inside else found).append(
                    f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Attribute) and node.attr == "integer":
                (counted if ("count", id(node)) in inside else found).append(
                    f"{path.name}:{node.lineno}")
            if "is_count" in (getattr(node, "id", None), getattr(node, "attr", None),
                              getattr(node, "name", None)):
                found.append(f"{path.name}:{node.lineno}: is_count")
            if isinstance(node, ast.ClassDef) and node.name in ENTRY_POINTS:
                entries.add(node.name)
                found += [f"{path.name}:{call.lineno}: {node.name}.{method.name}"
                          for method in node.body if isinstance(method, ast.FunctionDef)
                          and method.name in ("__init__", "__post_init__")
                          for call in ast.walk(method)
                          if "isfinite" in (getattr(call, "attr", None), getattr(call, "id", None))]
    assert rule and counted and entries == ENTRY_POINTS
    assert found == []


def test_one_sampler_in_src():
    # np.isfinite appears only in assembly._sample, the one rule that samples
    # a user callable, and in banded.all_finite; _pointwise and _floats nowhere
    allowed = {("assembly.py", "_sample"), ("banded.py", "all_finite")}
    sampler, found = [], []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {id(node) for function in ast.walk(tree)
                  if isinstance(function, ast.FunctionDef)
                  and (path.name, function.name) in allowed
                  for node in ast.walk(function)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "isfinite"
                    and getattr(node.value, "id", None) == "np"):
                (sampler if id(node) in inside else found).append(
                    f"{path.name}:{node.lineno}")
            names = {getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None)}
            found += [f"{path.name}:{node.lineno}: {name}"
                      for name in names & {"_pointwise", "_floats"}]
    assert sampler and found == []


def test_one_separable_decision_in_src():
    # isinstance(..., SeparableForcing) appears only in StepPlan.__init__,
    # which owns the run's constants, and Assembler caches its mass alone
    decisions, found, cached = [], [], None
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {id(node) for plan in tree.body
                  if isinstance(plan, ast.ClassDef) and plan.name == "StepPlan"
                  for method in plan.body
                  if isinstance(method, ast.FunctionDef) and method.name == "__init__"
                  for node in ast.walk(method)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and any("SeparableForcing" in (getattr(name, "id", None),
                                                   getattr(name, "attr", None))
                            for arg in node.args[1:] for name in ast.walk(arg))):
                (decisions if id(node) in inside else found).append(
                    f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ClassDef) and node.name == "Assembler":
                cached = [method.name for method in node.body
                          if isinstance(method, ast.FunctionDef)
                          for decorator in method.decorator_list
                          if "cached_property" in (getattr(decorator, "id", None),
                                                   getattr(decorator, "attr", None))]
    assert decisions and found == []
    assert cached == ["mass"]
