"""Run-to-run spread of the end-to-end metrics, as the bounds are judged.

    python3 perfbench/spread.py --runs 10 [--first-seed 1] [--workload NAME]

Runs run.py once per seed for each workload (seeds first-seed ..
first-seed + runs - 1) and reports, for every end-to-end metric, the
median of the runs and the distance between their first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of that
median, next to the metric's bound in BENCHMARK.json; then the same for
the unscaled times and the median latency of the detail lines.  The
summary goes to standard output and to out/spread-<first seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Unlisted figures of each run's record, reported beside the listed ones.
DETAILS = ("wall_s", "cpu_s", "setup_measured_s", "req_p50_s")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    envs = []
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict = {name: [] for name in bounds}
        measured: dict = {name: [] for name in DETAILS}
        per_request: dict = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*spec["command"], "--workload", workload, "--seed",
                   str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed} failed:\n{done.stdout}",
                      file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            record = json.loads((HERE / "out" / f"run-{workload}-seed{seed}-trace0.json")
                                .read_text(encoding="utf-8"))
            envs.append(record["env"])
            for name in DETAILS:
                measured[name].append(record["details"][name])
            for label, t in record["details"]["per_request_median_s"].items():
                per_request.setdefault(label, []).append(t)
        summary[workload] = {"per_request_median_s": {
            label: statistics.median(ts) for label, ts in per_request.items()}}
        for name, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            share = (q3 - q1) / statistics.median(xs)
            summary[workload][name] = {"median": statistics.median(xs),
                                       "iqr_share": share,
                                       "bound": bounds[name], "values": xs}
            flag = "" if share < bounds[name] / 3 else "  <-- above bound/3"
            if name != "setup_s" and share >= bounds[name]:
                flag, ok = "  <-- ABOVE BOUND", False
            print(f"{workload:15s} {name:16s} median {statistics.median(xs):.6g}"
                  f"  spread {share:.3f}  bound {bounds[name]}{flag}",
                  flush=True)
        for name, xs in measured.items():
            q1, _, q3 = statistics.quantiles(xs, n=4)
            share = (q3 - q1) / statistics.median(xs)
            summary[workload][name] = {"median": statistics.median(xs),
                                       "iqr_share": share, "values": xs}
            print(f"{workload:15s} {name:16s} median {statistics.median(xs):.6g}"
                  f"  spread {share:.3f}  (detail line, not listed)",
                  flush=True)
    summary["env"] = {k: envs[0][k] for k in ("python", "nproc", "cpu_model")}
    summary["env"]["loadavg_first_run"] = envs[0]["loadavg_before"]
    summary["env"]["loadavg_last_run"] = envs[-1]["loadavg_after"]
    summary["env"]["seeds"] = [args.first_seed, args.first_seed + args.runs - 1]
    (HERE / "out").mkdir(exist_ok=True)
    out = HERE / "out" / f"spread-{args.first_seed}.json"
    out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
