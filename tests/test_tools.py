import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import sample_runs  # noqa: E402


def test_sampler_against_its_own_checkout(capsys):
    # scheme A is refused on 2 < p < 3, which the third draw (p = 2.81) hits
    for scheme, counts in (("N", "3 completed, 0 diverged, 0 failed"),
                           ("A", "2 completed, 0 diverged, 1 failed")):
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


def test_problems_cover_the_stated_ranges():
    problems = sample_runs.draw_problems(200, 1)
    assert all(2.0 < q["p"] <= 6.0 and -10.0 <= q["lam"] <= 10.0
               and q["r"] in (1, 2, 3) and 4 <= q["m"] <= 12
               and 1e-4 <= q["delta"] <= 10 ** -1.5 for q in problems)
    assert {q["r"] for q in problems} == {1, 2, 3}
    assert {q["m"] for q in problems} == set(range(4, 13))
