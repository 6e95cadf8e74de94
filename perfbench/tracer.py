"""Span tracing around plapmem's layers, done from outside the package.

The tracer replaces functions at the place the solver looks them up (a
module global such as ``plapmem.stepper.memory_equation`` or a class
attribute such as ``BandedSymMatrix.solve``) with a wrapper that records a
span: id, parent id, layer name, start and end (``perf_counter_ns``). All
spans of one traced run share a run id. Spans stay in memory while the
solver runs, are written out as JSON lines afterwards, and `summarize`
turns a written file into per-layer self time.

A target that no longer exists is reported as an absent layer instead of
failing the run, so the benchmark survives refactors of the internals.
"""

import importlib
import json
import time
import uuid
from collections import defaultdict

#: (layer name, module, attribute at the lookup site). One layer may have
#: several sites; it is absent only when none of them resolves.
TARGETS = (
    ("stepper.march", "plapmem.stepper", "march"),
    ("stepper.cn_step", "plapmem.stepper", "cn_step"),
    ("memory.memory_equation", "plapmem.stepper", "memory_equation"),
    ("stepper.iteration_system", "plapmem.stepper", "iteration_system_A"),
    ("stepper.iteration_system", "plapmem.stepper", "iteration_system_B"),
    ("stepper.solve_block", "plapmem.stepper", "solve_block"),
    ("stepper.recover_memory_state", "plapmem.stepper", "recover_memory_state"),
    ("assembly.assemble_plap", "plapmem.stepper", "assemble_plap"),
    ("assembly.assemble_load", "plapmem.stepper", "assemble_load"),
    ("assembly.assemble_mass", "plapmem.stepper", "assemble_mass"),
    ("banded.solve", "plapmem.banded", "BandedSymMatrix.solve"),
    ("banded.matvec", "plapmem.banded", "BandedSymMatrix.matvec"),
    ("mesh.tabulate", "plapmem.mesh", "ReferenceBasis.tabulate"),
    ("analysis.build_run_output", "plapmem.analysis", "build_run_output"),
    ("experiments.write_outputs", "plapmem.experiments", "write_outputs"),
)

LAYERS = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

#: Name of the benchmark's own root span around march + write_outputs.
ROOT = "run"


def _resolve(module_name, attr_path):
    """(owner, attribute) at the lookup site, or None if it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = attr_path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(vars(owner).get(attr)):
        return None
    return owner, attr


class Tracer:
    """Installs the wrappers, records spans, restores the originals."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans = []          # index = span id; (parent, name, start, end)
        self._stack = [-1]
        self._patched = []       # (owner, attr, original)
        self.absent = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (parent, name, start, end)

        return traced

    def install(self):
        found = set()
        for name, module_name, attr_path in TARGETS:
            site = _resolve(module_name, attr_path)
            if site is None:
                continue
            owner, attr = site
            original = vars(owner)[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
            found.add(name)
        self.absent = [name for name in LAYERS if name not in found]

    def restore(self):
        """Put every original back; raises if one did not come back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        for owner, attr, original in self._patched:
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"tracer failed to restore {owner!r}.{attr}")
        self._patched.clear()

    def root(self, fn):
        """Run fn() inside the root span."""
        return self._wrap(ROOT, fn)()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "clock": "perf_counter_ns",
                                 "layers": list(LAYERS), "absent": self.absent})
                     + "\n")
            for span_id, (parent, name, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": span_id,
                                     "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")


def percentile(sorted_vals, q):
    """Nearest-rank percentile of an ascending list."""
    idx = min(len(sorted_vals) - 1, max(0, int(round(q / 100.0 * len(sorted_vals))) - 1))
    return sorted_vals[idx]


def tail_percentile(n):
    """Highest of p50/p90/p99/p99.9 with at least 10 samples beyond it."""
    best = None
    for q in (50.0, 90.0, 99.0, 99.9):
        if n * (1.0 - q / 100.0) >= 10:
            best = q
    return best


def summarize(path):
    """Per-layer calls, inclusive and self seconds, plus the derived ratios.

    Returns {"run_id", "absent", "layers": {name: {...}}}. Self time is a
    span's duration minus the time its child spans cover.
    """
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    run_ids = {s["run"] for s in spans}
    if run_ids != {header["run_id"]}:
        raise ValueError(f"spans of {path} do not share one run id: {run_ids}")

    child_ns = defaultdict(int)
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    durations = defaultdict(list)        # name -> inclusive ns, in call order
    self_ns = defaultdict(int)
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        durations[s["name"]].append(dur)
        self_ns[s["name"]] += dur - child_ns[s["id"]]

    layers = {}
    for name in (ROOT,) + LAYERS:
        durs = durations.get(name, [])
        calls = len(durs)
        total_s = sum(durs) / 1e9
        info = {"calls": calls, "total_s": total_s, "self_s": self_ns[name] / 1e9,
                "us_per_call": total_s / calls * 1e6 if calls else 0.0}
        if calls:
            ordered = sorted(durs)
            info["p50_us"] = percentile(ordered, 50.0) / 1e3
            tail = tail_percentile(calls)
            info["tail_pct"] = tail
            info["tail_us"] = percentile(ordered, tail) / 1e3 if tail else 0.0
        if calls >= 4:
            quarter = calls // 4
            first = sum(durs[:quarter]) / quarter
            last = sum(durs[-quarter:]) / quarter
            info["growth"] = last / first if first else 0.0
        layers[name] = info
    return {"run_id": header["run_id"], "absent": header["absent"],
            "spans": len(spans), "layers": layers}
