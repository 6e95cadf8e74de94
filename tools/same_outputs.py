"""Run plapmem's examples and CLI commands in this checkout and another one,
and report every output that differs between the two.

    python3 tools/same_outputs.py --against ../other-checkout
    python3 tools/same_outputs.py --against ../other-checkout --examples 3

Each checkout runs, in a child process that imports plapmem from its own
src/, examples 1-4 (or those given with --examples) through `plapmem
example ID --out out`, one `plapmem solve` of the manufactured problem at
p = 4, lambda = 1, r = 2, m = 8, N = 50, T = 0.05 into `solve`, and
`plapmem verify`, all in a fresh temporary directory of that checkout's
own, so that printed paths are the same on both sides. Every written file
(the solve's config echo included) and the stdout and exit status of every
command are then compared byte for byte: an output of one side only, or
one whose bytes differ, is reported, the latter with its first differing
byte. The exit status is 0 when everything is identical and 1 otherwise.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOLVE_CONFIG = {"domain": [0, 1], "p": 4, "lambda": 1, "T": 0.05, "r": 2, "m": 8,
                "N": 50}


def jobs(examples):
    """(name, plapmem CLI arguments) of each command a checkout runs."""
    return ([(f"example {i}", ["example", str(i), "--out", "out"]) for i in examples]
            + [("solve", ["solve", "--config", "config.json", "--out", "solve"]),
               ("verify", ["verify"])])


def run_jobs(src, workdir, examples):
    """Run every job with plapmem imported from src, in workdir; returns
    {"<name> stdout": text, exit status included} and leaves the written
    files in workdir."""
    sys.path.insert(0, str(src))
    import plapmem
    from plapmem.cli import main
    if Path(plapmem.__file__).resolve().parent != (Path(src) / "plapmem").resolve():
        raise ImportError(f"imported plapmem from {plapmem.__file__}, not {src}")
    os.chdir(workdir)
    Path("config.json").write_text(json.dumps(SOLVE_CONFIG), encoding="utf-8")
    stdout = {}
    for name, argv in jobs(examples):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            status = main(argv)
        stdout[f"{name} stdout"] = f"{buffer.getvalue()}exit status {status}\n"
    return stdout


def outputs(src, examples):
    """{name: bytes} of every file and stdout of one checkout's run, from a
    child process that imports plapmem from src."""
    with tempfile.TemporaryDirectory() as workdir:
        child = subprocess.run(
            [sys.executable, __file__, "--src", str(src), "--workdir", workdir,
             "--examples", *map(str, examples)],
            check=True, capture_output=True, text=True)
        found = {name: text.encode() for name, text
                 in json.loads(child.stdout.splitlines()[-1]).items()}
        for path in sorted(Path(workdir).rglob("*")):
            name = path.relative_to(workdir).as_posix()
            if path.is_file() and name != "config.json":     # the solve's input
                found[name] = path.read_bytes()
    return found


def first_difference(a: bytes, b: bytes) -> int:
    """The offset of the first byte where a and b differ (one is longer)."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def compare(ours, theirs, against):
    """The report lines of every difference between two runs' outputs."""
    lines = []
    for name in sorted(ours.keys() | theirs.keys()):
        if name not in theirs:
            lines.append(f"only in this checkout: {name}")
        elif name not in ours:
            lines.append(f"only in {against}: {name}")
        elif ours[name] != theirs[name]:
            lines.append(f"differs: {name}, first at byte "
                         f"{first_difference(ours[name], theirs[name])}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path,
                        help="another checkout whose src/ runs the same commands")
    parser.add_argument("--examples", type=int, nargs="*", default=[1, 2, 3, 4],
                        choices=(1, 2, 3, 4), help="the examples to run (default: all)")
    parser.add_argument("--src", type=Path, help=argparse.SUPPRESS)    # child side
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.src is not None:
        print(json.dumps(run_jobs(args.src, args.workdir, args.examples)))
        return 0
    if args.against is None:
        parser.error("--against is required")
    ours = outputs(ROOT / "src", args.examples)
    theirs = outputs(args.against / "src", args.examples)
    differences = compare(ours, theirs, args.against)
    for line in differences:
        print(line)
    print(f"{len(ours)} outputs here, {len(theirs)} in {args.against}: "
          f"{len(differences)} differ")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
