"""Gather perfbench reports of a parent and a change into one BENCH_<n>.json.

    python3 tools/bench_record.py --out BENCH_17.json \\
        parent:../parent/.bench_build/perfbench/report-growth_damped-seed1-trace0.json \\
        change:.bench_build/perfbench/report-growth_damped-seed1-trace0.json \\
        change:.bench_build/perfbench/report-growth_damped-seed2-trace0.json \\
        parent:../parent/.bench_build/perfbench/report-growth_damped-seed2-trace0.json

Each argument is SIDE:PATH, SIDE being parent or change, and PATH one
end-to-end report (`perfbench/run.py --trace 0` writes
.bench_build/perfbench/report-<workload>-seed<s>-trace0.json), given in the
order the invocations ran. A parent and a change report of the same
workload and seed form a pair; which of them ran first is its order. Per
workload the record holds every pair (order, seed, lambda, and per side each
end-to-end metric, the failed runs and, under "raw", the medians of the
successful runs' unscaled run_s, setup_s and ref_s), and per metric the
median and quartiles of each side over the pairs and the number of pairs in
which the change was better. The metric names and their better direction
come from BENCHMARK.json. The raw medians show what the rescaled metrics
hide: a setup_s that follows ref_s rather than the import it times.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
#: The wall times and the reference time every report run carries.
RAW = ("run_s", "setup_s", "ref_s")


def summary(values):
    """Median and quartiles (statistics.quantiles, n = 4, as perfbench)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def raw_medians(runs):
    """Median of each RAW time over the successful runs (None without one)."""
    ok = [run for run in runs if run["ok"]]
    return {key: statistics.median(run[key] for run in ok) if ok else None
            for key in RAW}


def pair_reports(tagged):
    """{workload: [pair, ...]} from (side, report) in run order."""
    pairs = {}
    for side, report in tagged:
        if report["trace"]:
            raise ValueError(f"{report['workload']} seed {report['seed']}: a traced "
                             "report has no end-to-end metrics")
        key = (report["workload"], report["seed"])
        pair = pairs.setdefault(key, {"first": side})
        if side in pair:
            raise ValueError(f"two {side} reports for {key[0]} seed {key[1]}")
        pair[side] = report
    by_workload = {}
    for (workload, seed), pair in pairs.items():
        missing = [s for s in SIDES if s not in pair]
        if missing:
            raise ValueError(f"{workload} seed {seed}: no {missing[0]} report")
        if pair["parent"]["lambda"] != pair["change"]["lambda"]:
            raise ValueError(f"{workload} seed {seed}: the two sides drew different lambda")
        by_workload.setdefault(workload, []).append(pair)
    return by_workload


def record(tagged, end_to_end):
    """The BENCH record of tagged reports, for end_to_end = BENCHMARK.json's
    list of {"name", "better", ...}."""
    out = {"metrics": {m["name"]: m["better"] for m in end_to_end}, "workloads": {}}
    for workload, pairs in pair_reports(tagged).items():
        rows = [{"first": pair["first"], "seed": pair["parent"]["seed"],
                 "lambda": pair["parent"]["lambda"]}
                | {side: {"metrics": {m["name"]: pair[side]["metrics"][m["name"]]["value"]
                                      for m in end_to_end},
                          "runs": len(pair[side]["runs"]),
                          "failed": sum(not r["ok"] for r in pair[side]["runs"]),
                          "raw": raw_medians(pair[side]["runs"])}
                   for side in SIDES}
                 for pair in pairs]
        stats = {}
        for m in end_to_end:
            name, sign = m["name"], (1.0 if m["better"] == "lower" else -1.0)
            values = {side: [row[side]["metrics"][name] for row in rows] for side in SIDES}
            stats[name] = {side: summary(values[side]) for side in SIDES}
            stats[name]["change_wins"] = sum(
                sign * (c - p) < 0.0 for p, c in zip(values["parent"], values["change"]))
        out["workloads"][workload] = {"pairs": rows, "metrics": stats}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("reports", nargs="+", metavar="SIDE:PATH",
                        help="parent:PATH or change:PATH, in run order")
    args = parser.parse_args(argv)
    tagged = []
    for arg in args.reports:
        side, _, path = arg.partition(":")
        if side not in SIDES or not path:
            parser.error(f"expected parent:PATH or change:PATH, got {arg!r}")
        tagged.append((side, json.loads(Path(path).read_text(encoding="utf-8"))))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = benchmark["end_to_end"]
    try:
        result = record(tagged, end_to_end)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for workload, entry in result["workloads"].items():
        n = len(entry["pairs"])
        for name, stat in entry["metrics"].items():
            p, c = stat["parent"], stat["change"]
            print(f"{workload} {name}: parent {p['median']:.4g} ({p['q1']:.4g}-"
                  f"{p['q3']:.4g}), change {c['median']:.4g} ({c['q1']:.4g}-"
                  f"{c['q3']:.4g}), change better in {stat['change_wins']} of {n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
