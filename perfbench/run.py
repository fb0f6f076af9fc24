"""The sechom benchmark: one command, four workloads, frozen-output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N      # every workload

Workloads (see README.md for why each was chosen):

  hh-two-var      compute --flavor hh --degree 0..3 on the three
                  two-variable catalog triples
  hc-cyclic       compute --flavor hc: trunc3_k 0..6, mat2_k 0..4 and the
                  two-variable triples 0..2
  verify-battery  validate, verify --theorem all, omega and kernel over
                  the whole catalog
  rebased         validate, hh 0..2, hc 0..2 and verify on .triple files
                  holding four catalog triples in a seeded unimodular basis

Each workload runs in its own fresh Python process (bench.py), which
drives ``sechom.cli.main`` in-process in a closed loop: one client, one
request in flight, no threads.  Every request's output is checked against
golden.json.  The last line printed is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit.  With ``--trace 0`` the metrics are the
end-to-end ones, measured with tracing off, with the times scaled to a
reference speed (see reference.py); with ``--trace 1`` one pass
runs under the tracer and the metrics are the per-layer ones.

The command exits 1 when any request failed or a traced layer went
silent, and 2 when the sechom sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench import WORKLOADS
from reference import NOMINAL_CALL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = HERE / "bench.py"
OUT = HERE / "out"

# Fresh processes timed for setup_s, after one warm-up: half before the
# measured run and half after it.  The host's speed holds for seconds and
# then shifts, so probes taken 20 s apart see more than one of its states.
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 170


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "seed": seed,
            "loadavg_before": list(os.getloadavg())}


def spawn(args: list) -> tuple:
    """Start bench.py; return (process, set-up seconds as measured, set-up
    seconds at the reference speed).

    The READY wait runs from before the interpreter starts, so it covers
    interpreter start-up, the sechom import and building the inputs.  The
    READY line gives the seconds the process spent timing the reference
    around its set-up, which are taken out, and the reference's mean time
    per call, by which set-up time is scaled.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH), *args],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    words = line.split()
    if len(words) != 3 or words[0] != "READY":
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"bench.py {' '.join(args)} did not get ready")
    setup -= float(words[1])
    return proc, setup, setup * NOMINAL_CALL_S / float(words[2])


def finish(proc) -> dict:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed("bench.py timed out") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"bench.py exited with {proc.returncode}")
    return json.loads(lines[-1])


class ChildFailed(RuntimeError):
    pass


def tail(latencies: list):
    """(value, percentile) at the highest percentile with at least ten
    requests beyond it, or None when the run has fewer than 21 requests:
    then that percentile would not lie above the median."""
    xs = sorted(latencies)
    if len(xs) < 21:
        return None
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def end_to_end(raw: dict, setups: list) -> tuple:
    """(metrics, details) of one untraced workload run."""
    metrics = {
        "wall_ref_s": (statistics.median(raw["pass_wall_ref_s"]), "s"),
        "cpu_ref_s": (statistics.median(raw["pass_cpu_ref_s"]), "s"),
        "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    details = {
        "wall_s": statistics.median(raw["pass_wall_s"]),
        "cpu_s": statistics.median(raw["pass_cpu_s"]),
        "reference_samples_s": raw["reference_samples_s"],
        "req_p50_s": statistics.median(raw["latencies_s"]),
        "fail_ratio": len(raw["failures"]) / raw["attempted"],
        "req_tail": tail(raw["latencies_s"]),
        "requests": len(raw["latencies_s"]),
        "passes": len(raw["pass_wall_s"]),
        "setup_measured_s": statistics.median(m for m, _ in setups),
        "setup_samples_s": setups,
    }
    return metrics, details


def run_workload(workload: str, seed: int, seconds: int, trace: int,
                 golden: Path) -> dict:
    base = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--golden", str(golden)]
    env = environment(seed)
    setups = []
    if not trace:
        probe(base)  # warms the disk and bytecode caches; not counted
        setups += [probe(base) for _ in range(SETUP_PROBES // 2)]
    proc, own_setup, _ = spawn(base + ["--trace", str(trace)])
    raw = finish(proc)
    if not trace:
        setups += [probe(base) for _ in range(SETUP_PROBES - len(setups))]
    env["loadavg_after"] = list(os.getloadavg())
    failures = raw["failures"] + [["trace", f] for f in raw["trace_failures"]]
    if trace:
        metrics = {k: (v, per_layer_unit(k)) for k, v in raw["per_layer"].items()}
        details = {"layer_calls": raw["layer_calls"],
                   "spans_file": raw["spans_file"]}
    else:
        metrics, details = end_to_end(raw, setups)
        details["own_setup_s"] = own_setup
    details["per_request_median_s"] = raw["per_request_median_s"]
    record = {"workload": workload, "trace": trace, "env": env,
              "attempted": raw["attempted"], "failures": failures,
              "metrics": metrics, "details": details}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"run-{workload}-seed{seed}-trace{trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def probe(base: list) -> tuple:
    """Set-up time of one fresh process that stops once it is ready: (as
    measured, at the reference speed)."""
    proc, setup, scaled = spawn(base + ["--probe"])
    proc.communicate(timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ChildFailed(f"set-up probe exited with {proc.returncode}")
    return setup, scaled


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def report(record: dict) -> None:
    """Human-readable lines: every metric by name with its unit."""
    w = record["workload"]
    for name, (value, unit) in record["metrics"].items():
        print(f"{w}  {name} = {value:.6g} {unit}")
    d = record["details"]
    if not record["trace"]:
        print(f"{w}  wall_s = {d['wall_s']:.6g} s, cpu_s = {d['cpu_s']:.6g} s "
              f"(as measured; median of {d['passes']} passes, "
              f"{len(d['reference_samples_s'])} samples of the host's speed)")
        print(f"{w}  setup_s as measured = {d['setup_measured_s']:.6g} s "
              f"(median of {len(d['setup_samples_s'])} fresh processes)")
        print(f"{w}  req_p50_s = {d['req_p50_s']:.6g} s "
              f"(median of {d['requests']} requests)")
        print(f"{w}  fail_ratio = {d['fail_ratio']:.6g} ratio "
              f"({len(record['failures'])} of {record['attempted']} requests)")
        if d["req_tail"] is None:
            print(f"{w}  req_tail_s not reported: {d['requests']} requests, "
                  f"fewer than 21")
        else:
            value, pct = d["req_tail"]
            print(f"{w}  req_tail_s = {value:.6g} s (percentile {pct:.4g} "
                  f"of {d['requests']} requests in {d['passes']} passes)")
    for label, why in record["failures"][:20]:
        print(f"{w}  FAILED {label}: {why.strip().splitlines()[-1]}")
    print(f"{w}  env {json.dumps(record['env'], sort_keys=True)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20,
                    help="measured time per workload run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--golden", type=Path, default=HERE / "golden.json",
                    help="frozen outputs to check against")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sechom" / "__init__.py").is_file():
        print(f"error: no sechom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds,
                                        args.trace, args.golden.resolve()))
            report(records[-1])
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    prefix = len(names) > 1
    metrics = {(f"{r['workload']}.{k}" if prefix else k):
               {"value": v, "unit": u}
               for r in records for k, (v, u) in r["metrics"].items()}
    failed = sum(len(r["failures"]) for r in records)
    result = {"correct": failed == 0,
              "attempted": sum(r["attempted"] for r in records),
              "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
