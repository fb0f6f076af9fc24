"""Count the bytecodes one pass of a benchmark workload executes.

The requests are those of perfbench/bench.py (`catalog_requests`, and for
the rebased workload the files `write_rebased` makes from seed 1, written
to a temporary directory).  Each request runs in process through
`sechom.cli.main`: one untraced pass first, so lazy imports and the
argument parser are in place, then one pass under a `sys.settrace` hook
with `frame.f_trace_opcodes` set, which counts every bytecode executed in
a Python frame.  Unlike a clock, the count repeats exactly from run to run
on one Python version.

    python tools/opcount.py                        # all four workloads
    python tools/opcount.py --against ../parent    # deltas against a tree

`--against TREE` counts the same pass on a second source tree (its src/
and perfbench/) in a subprocess and prints both counts and their
difference.  Functions are listed per code object by file, first line and
name; in a comparison they are matched by file and name, since lines move.

Limits: work done in C is not counted (big-int arithmetic, dict and list
internals, `Fraction`), so a change that moves a loop into a builtin looks
cheaper than it may be, and needs the clock as well.  Counts differ between
Python versions; the version is printed with them.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["hh-two-var", "hc-cyclic", "verify-battery", "rebased"]
REBASED_SEED = 1
TOP = 10  # functions listed per workload
# Run by `--against` as `python -c _MEASURE TOOLS_DIR TREE`.
_MEASURE = ("import json, sys; from pathlib import Path; "
            "sys.path.insert(0, sys.argv[1]); import opcount; "
            "print(json.dumps(opcount.measure(Path(sys.argv[2]))))")


def load(tree: Path):
    """(sechom.cli, perfbench bench module) of a source tree."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import bench
    import sechom.cli
    for mod in (bench, sechom.cli):
        if tree not in Path(mod.__file__).resolve().parents:
            raise SystemExit(f"{mod.__name__} imported from {mod.__file__}, "
                             f"not from {tree}")
    return sechom.cli, bench


def requests(bench, workload: str, directory: Path) -> list:
    """argv lists of one pass; rebased files are written to directory."""
    argvs = bench.catalog_requests(workload)
    if workload != "rebased":
        return argvs
    paths = bench.write_rebased(REBASED_SEED, directory)
    return [[argv[0], str(paths[argv[2]]), *argv[3:]] for argv in argvs]


def label(argv: list) -> str:
    words = [Path(w).name if w.endswith(".triple") else w for w in argv]
    return " ".join(w for w in words if w not in ("--format", "machine"))


def _run(cli, argv: list, trace=None) -> int:
    """Exit status of one request, run under the trace function given."""
    previous = sys.gettrace()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        sys.settrace(trace)
        try:
            return cli.main(argv)
        finally:
            sys.settrace(previous)


def count(cli, argvs: list) -> tuple:
    """One untraced pass, then one traced pass of the requests.

    Returns (opcodes per request, opcodes per code object)."""
    for argv in argvs:
        _run(cli, argv)
    by_code: dict = defaultdict(int)

    def local(frame, event, arg):
        if event == "opcode":
            by_code[frame.f_code] += 1
        return local

    def on_call(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    per_request = []
    for argv in argvs:
        before = sum(by_code.values())
        code = _run(cli, argv, on_call)
        if code != 0:
            raise SystemExit(f"exit {code}: {label(argv)}")
        per_request.append(sum(by_code.values()) - before)
    return per_request, by_code


def _where(code, tree: Path) -> str:
    path = Path(code.co_filename)
    try:
        path = path.resolve().relative_to(tree)
    except (OSError, ValueError):
        path = Path(path.name)
    return path.as_posix()


def measure(tree: Path) -> dict:
    """Counts of each workload on a tree, as plain data."""
    cli, bench = load(tree)
    out = {"python": platform.python_version(), "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="sechom-opcount-") as tmp:
        for w in WORKLOADS:
            argvs = requests(bench, w, Path(tmp))
            per_request, by_code = count(cli, argvs)
            functions = [
                (_where(c, tree), c.co_firstlineno,
                 getattr(c, "co_qualname", c.co_name), n)
                for c, n in by_code.items()]
            out["workloads"][w] = {
                "requests": [[label(a), n] for a, n in zip(argvs, per_request)],
                "functions": sorted(functions, key=lambda f: -f[3])}
    return out


def _by_name(functions: list) -> dict:
    merged: dict = defaultdict(int)
    for path, _, name, n in functions:
        merged[f"{path} {name}"] += n
    return merged


def report(mine: dict, other: dict = None) -> None:
    print(f"Python {mine['python']}; opcodes of one warm pass")
    if other is not None:
        print(f"against: Python {other['python']}; delta = this - against")
    for w, data in mine["workloads"].items():
        reqs = data["requests"]
        total = sum(n for _, n in reqs)
        print(f"\n{w}: {len(reqs)} requests")
        if other is None:
            for name, n in reqs:
                print(f"  {n:>12,}  {name}")
            print(f"  {total:>12,}  total")
            print(f"  top {TOP} functions:")
            for path, line, name, n in data["functions"][:TOP]:
                print(f"  {n:>12,}  {path}:{line} {name}")
            continue
        theirs = other["workloads"][w]
        if [r[0] for r in theirs["requests"]] != [r[0] for r in reqs]:
            raise SystemExit(f"{w}: the two trees run different requests")
        print(f"  {'this':>12}  {'against':>12}  {'delta':>10}")
        for (name, n), (_, m) in zip(reqs, theirs["requests"]):
            print(f"  {n:>12,}  {m:>12,}  {n - m:>+10,}  {name}")
        base = sum(m for _, m in theirs["requests"])
        print(f"  {total:>12,}  {base:>12,}  {total - base:>+10,}  total "
              f"({(total - base) / base:+.4%})")
        a, b = _by_name(data["functions"]), _by_name(theirs["functions"])
        diff = {k: a.get(k, 0) - b.get(k, 0) for k in a.keys() | b.keys()}
        moved = sorted((k for k in diff if diff[k]), key=lambda k: -abs(diff[k]))
        print(f"  top {TOP} function deltas (of {len(moved)} that moved):")
        for key in moved[:TOP]:
            print(f"  {diff[key]:>+12,}  {key}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", type=Path, default=None, metavar="TREE",
                    help="second source tree to count and compare")
    args = ap.parse_args(argv)
    other = None
    if args.against is not None:
        # A fresh interpreter, so the second tree's modules are its own.
        done = subprocess.run(
            [sys.executable, "-c", _MEASURE, str(Path(__file__).parent),
             str(args.against.resolve())],
            stdout=subprocess.PIPE, check=True, text=True)
        other = json.loads(done.stdout)
    report(measure(ROOT), other)
    return 0


if __name__ == "__main__":
    sys.exit(main())
