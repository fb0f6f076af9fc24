"""One benchmark workload, run in this (fresh) process.

Usage, normally through run.py:

    python3 perfbench/bench.py --workload NAME --seed N --seconds S
                               [--trace 0|1] [--probe] [--golden FILE]

The process imports sechom from the checkout's ``src/``, builds the
workload's inputs from the seed, prints ``READY`` and then drives
``sechom.cli.main([..., "--format", "machine"])`` in a closed loop: one
client, one request in flight, no threads.  Every output is checked
against frozen values.  While the requests run, a timer samples the
host's speed with the reference of reference.py, and every request's
times are also given scaled to the reference speed.  The last line of
standard output is one JSON object with the raw measurements; run.py
turns it into metrics.

With ``--probe`` the process stops after printing ``READY``: run.py
spawns several probes to time set-up.  The ``READY`` line carries the
time spent timing the reference around set-up and its mean per call.
With ``--trace 1`` the requests run under the tracer of tracer.py, the
host's speed is not sampled, and the per-layer figures are reported.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from reference import NOMINAL_CALL_S, Sampler, call_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

CATALOG = ["k_k", "dual_k", "dual_dual_zero", "dual_dual_x", "prod_k",
           "trunc3_k", "dual_over_dual_id", "mat2_k"]
NONCOMMUTATIVE = {"mat2_k"}
TWO_VARIABLE = ["dual_dual_zero", "dual_dual_x", "dual_over_dual_id"]
# dual_k is left out: its four requests take about 10 ms each and would put
# the median request of a pass in the gap between request kinds.
REBASED_SOURCES = TWO_VARIABLE + ["trunc3_k"]
REBASED_SHAPES = [
    ["validate"],
    ["compute", "--flavor", "hh", "--degree", "0..2"],
    ["compute", "--flavor", "hc", "--degree", "0..2"],
    ["verify", "--theorem", "all"],
]

# Seconds one pass of the request list took on a 2-core Xeon VM.  A
# run makes floor(seconds / nominal) whole passes (at least one), so every
# run of a workload has the same mix of requests whatever the machine's
# speed, and the per-layer counts of a traced pass repeat exactly.
NOMINAL_PASS_S = {"hh-two-var": 20.0, "hc-cyclic": 15.0,
                  "verify-battery": 1.2, "rebased": 15.0}
WORKLOADS = list(NOMINAL_PASS_S)

# A run starts no further pass once this multiple of --seconds has gone
# by, so a much slower program still ends well within the time limit.
OVERRUN_FACTOR = 1.5


def import_sechom():
    """Import sechom from this checkout's src/, never from elsewhere."""
    if not (ROOT / "src" / "sechom" / "__init__.py").is_file():
        raise SystemExit(f"no sechom sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import sechom.cli
    where = Path(sechom.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"sechom imported from {where}, not from {ROOT / 'src'}")
    return sechom.cli


# -- request lists -------------------------------------------------------

def _catalog_argv(name: str, shape: list) -> list:
    return [shape[0], "--catalog", name, *shape[1:], "--format", "machine"]


def _compute(flavor: str, degrees: str, cap=None) -> list:
    shape = ["compute", "--flavor", flavor, "--degree", degrees]
    return shape + (["--max-degree-override", str(cap)] if cap else [])


def catalog_requests(workload: str) -> list:
    """argv lists of a catalog workload, in their canonical order."""
    if workload == "hh-two-var":
        return [_catalog_argv(n, _compute("hh", "0..3")) for n in TWO_VARIABLE]
    if workload == "hc-cyclic":
        return ([_catalog_argv("trunc3_k", _compute("hc", "0..6", 6)),
                 _catalog_argv("mat2_k", _compute("hc", "0..4", 4))]
                + [_catalog_argv(n, _compute("hc", "0..2"))
                   for n in TWO_VARIABLE])
    if workload == "verify-battery":
        out = []
        for name in CATALOG:
            out.append(_catalog_argv(name, ["validate"]))
            out.append(_catalog_argv(name, ["verify", "--theorem", "all"]))
            if name not in NONCOMMUTATIVE:
                out.append(_catalog_argv(name, ["compute", "--flavor", "omega"]))
                out.append(_catalog_argv(name, ["compute", "--flavor", "kernel"]))
        return out
    if workload == "rebased":
        # The catalog twins whose outputs the rebased files must reproduce.
        return [_catalog_argv(n, s) for n in REBASED_SOURCES
                for s in REBASED_SHAPES]
    raise KeyError(workload)


def golden_key(argv: list) -> str:
    return " ".join(argv)


# -- the rebased inputs --------------------------------------------------

# Integer matrices of determinant 1 with no zero entry, and their
# inverses: in the basis given by their columns every new basis vector
# mixes all the old ones.
_BASE_CHANGE = {
    1: ([[1]], [[1]]),
    2: ([[2, 1], [1, 1]], [[1, -1], [-1, 2]]),
    3: ([[1, 1, 2], [1, 2, 3], [2, 3, 6]],
        [[3, 0, -1], [0, 2, -1], [-1, -1, 1]]),
}


def _unimodular(rng: random.Random, n: int):
    """A seeded integer change of basis of determinant +-1 and its integer
    inverse: the fixed matrix of `_BASE_CHANGE` with its columns negated
    at random (and so the rows of its inverse).

    The seed only flips the signs of the new basis vectors, so every seed
    gives structure constants of the same sizes in the same places, and the
    rebased requests cost about the same from seed to seed.  (Permuting
    the new basis vectors too changed the cost of a request by up to 2x.)
    """
    base, inverse = _BASE_CHANGE[n]
    signs = [rng.choice((-1, 1)) if n > 1 else 1 for _ in range(n)]
    P = [[base[r][c] * signs[c] for c in range(n)] for r in range(n)]
    Pinv = [[inverse[r][c] * signs[r] for c in range(n)] for r in range(n)]
    return P, Pinv


def _apply(M: list, v: list) -> list:
    return [sum(Fraction(M[r][c]) * v[c] for c in range(len(v)))
            for r in range(len(M))]


def _rebase_algebra(alg, P, Pinv):
    """Structure constants and unit of `alg` in the basis given by the
    columns of P (coordinates in the old basis)."""
    d = alg.dim
    mult = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = [Fraction(0)] * d
            for p in range(d):
                for q in range(d):
                    s = P[p][i] * P[q][j]
                    if s:
                        for k, x in enumerate(alg.mult[p][q]):
                            acc[k] += s * x
            row.append(_apply(Pinv, acc))
        mult.append(row)
    return mult, _apply(Pinv, alg.unit)


def rebased_triple(name: str, rng: random.Random):
    """The catalog triple `name` in a seeded unimodular integer basis of
    A and of B, validated by make_triple."""
    from sechom.algebra import FinAlgebra
    from sechom.triples import catalog, make_triple

    T = catalog(name)
    PA, PAinv = _unimodular(rng, T.A.dim)
    PB, PBinv = _unimodular(rng, T.B.dim)
    mult_a, unit_a = _rebase_algebra(T.A, PA, PAinv)
    mult_b, unit_b = _rebase_algebra(T.B, PB, PBinv)
    eps = []
    for j in range(T.B.dim):
        image = [Fraction(0)] * T.A.dim
        for l in range(T.B.dim):
            for k, x in enumerate(T.eps.columns[l]):
                image[k] += PB[l][j] * x
        eps.append(_apply(PAinv, image))
    A = FinAlgebra(T.A.dim, mult_a, unit_a, name=f"rebased_{name}.A")
    B = FinAlgebra(T.B.dim, mult_b, unit_b, name=f"rebased_{name}.B")
    return make_triple(A, B, eps, name=f"rebased_{name}")


def write_rebased(seed: int, directory: Path) -> dict:
    """Write one rebased .triple file per source triple; return
    {source name: path}.  Each file is read back through
    parse_triple_file and must reproduce the generated tables."""
    from sechom.specfile import export_triple, parse_triple_file

    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in REBASED_SOURCES:
        T = rebased_triple(name, rng)
        path = directory / f"rebased_{name}.triple"
        path.write_text(export_triple(T), encoding="utf-8")
        back = parse_triple_file(str(path)).triple
        for mine, theirs in ((T.A, back.A), (T.B, back.B)):
            if (mine.mult, mine.unit) != (theirs.mult, theirs.unit):
                raise RuntimeError(f"{path} does not read back as written")
        if T.eps.columns != back.eps.columns:
            raise RuntimeError(f"{path} does not read back as written")
        paths[name] = path
    return paths


def basis_free(payload: dict) -> dict:
    """The parts of a machine report that do not depend on the basis or
    the name of the triple: dimensions, verdicts and check lists."""
    out = {k: v for k, v in payload.items() if k != "triple"}
    meta = payload.get("triple")
    if meta is not None:
        out["triple"] = {k: meta[k] for k in ("dim_A", "dim_B", "commutative")}
    if "reports" in payload:
        out["reports"] = [{k: v for k, v in rep.items() if k != "triple"}
                          for rep in payload["reports"]]
        out["skipped"] = [{k: v for k, v in rep.items() if k != "triple"}
                          for rep in payload["skipped"]]
    return out


# -- requests with their checks ------------------------------------------

class Request:
    """One CLI call and the frozen value its output must match."""

    def __init__(self, label: str, argv: list, expected: str,
                 rebased_name: str = ""):
        self.label = label
        self.argv = argv
        self.expected = expected
        self.rebased_name = rebased_name

    def check(self, stdout: str) -> str:
        """Empty when the output is right, else the reason it is not."""
        if not self.rebased_name:
            return "" if stdout == self.expected else "output differs from golden"
        try:
            got = json.loads(stdout)
        except ValueError:
            return "output is not JSON"
        if got.get("triple", {}).get("name") != self.rebased_name:
            return "output names another triple"
        if basis_free(got) != basis_free(json.loads(self.expected)):
            return "dimensions or verdicts differ from the catalog triple"
        return ""


def build_requests(workload: str, seed: int, golden: dict) -> list:
    twins = catalog_requests(workload)
    expected = [golden[golden_key(argv)] for argv in twins]
    if workload != "rebased":
        return [Request(" ".join([argv[0], argv[2], *argv[3:-2]]), argv, exp)
                for argv, exp in zip(twins, expected)]
    paths = write_rebased(seed, OUT / f"rebased-seed{seed}")
    out = []
    for argv, exp in zip(twins, expected):
        name = argv[2]
        mine = [argv[0], str(paths[name]), *argv[3:]]
        label = " ".join([argv[0], f"rebased_{name}", *argv[3:-2]])
        out.append(Request(label, mine, exp, rebased_name=f"rebased_{name}"))
    return out


def load_golden(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


# -- the closed loop -----------------------------------------------------

def passes_for(workload: str, seconds: float) -> int:
    return max(1, int(seconds // NOMINAL_PASS_S[workload]))


def run_request(cli, req: Request, sampler=None) -> dict:
    """Run one request and check its output.  The time `sampler`'s
    handler took while the request ran is not counted in its latency."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    spent = (sampler.spent_wall, sampler.spent_cpu) if sampler else (0.0, 0.0)
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(req.argv))
    except Exception:  # a crashing request counts as failed, the loop goes on
        code = None
        error = traceback.format_exc(limit=3)
    t1 = time.perf_counter()
    cpu = time.process_time() - c0
    latency = t1 - t0
    if sampler:
        latency -= sampler.spent_wall - spent[0]
        cpu -= sampler.spent_cpu - spent[1]
    stdout = out.getvalue()
    if not error:
        if code != 0:
            error = f"exit code {code}: {err.getvalue().strip()[:200]}"
        else:
            error = req.check(stdout)
    return {"label": req.label, "latency_s": latency, "cpu_s": cpu,
            "start": t0, "end": t1,
            "bytes": len(stdout.encode("utf-8")), "error": error,
            "stdout": stdout}


def run_loop(cli, requests: list, passes: int, seconds: float,
             tracer=None, sampler=None) -> list:
    """Run whole passes over the request list; one record per request.

    Every pass keeps the list's order.  The program's per-triple cache is
    never freed, so the heap grows along a pass and later requests pay more
    for garbage collection; a fixed order makes that cost the same in every
    run.  A `sampler` (see reference.py) samples the host's speed while
    the requests run.
    """
    start = time.perf_counter()
    records = []
    for p in range(passes):
        if p and time.perf_counter() - start > OVERRUN_FACTOR * seconds:
            break
        gc.collect()
        for i, req in enumerate(requests):
            if tracer is not None:
                tracer.request = f"{p}.{i}"
            rec = run_request(cli, req, sampler)
            rec["pass"] = p
            records.append(rec)
    return records


def normalize(records: list, sampler) -> None:
    """Add ``latency_ref_s`` and ``cpu_ref_s`` to every record: its times
    at the reference speed, that is, scaled by the nominal time of a
    reference call over the mean of the calls timed around it."""
    for rec in records:
        wall, cpu = sampler.speed(rec["start"], rec["end"])
        rec["latency_ref_s"] = rec["latency_s"] * NOMINAL_CALL_S / wall
        rec["cpu_ref_s"] = rec["cpu_s"] * NOMINAL_CALL_S / cpu


def summarize(records: list) -> dict:
    def per_pass(key):
        sums: dict = {}
        for rec in records:
            sums[rec["pass"]] = sums.get(rec["pass"], 0.0) + rec[key]
        return list(sums.values())

    per_label: dict = {}
    for rec in records:
        per_label.setdefault(rec["label"], []).append(rec["latency_s"])
    out = {
        "pass_wall_s": per_pass("latency_s"),
        "pass_cpu_s": per_pass("cpu_s"),
        "latencies_s": [rec["latency_s"] for rec in records],
        "per_request_median_s": {k: statistics.median(v)
                                 for k, v in sorted(per_label.items())},
        "attempted": len(records),
        "failures": [[rec["label"], rec["error"]] for rec in records
                     if rec["error"]],
    }
    if records and "latency_ref_s" in records[0]:
        out["pass_wall_ref_s"] = per_pass("latency_ref_s")
        out["pass_cpu_ref_s"] = per_pass("cpu_ref_s")
    return out


# -- the traced run ------------------------------------------------------

# Layers each workload must reach; a traced run in which one of them
# records no call fails.
EXPECTED_LAYERS = {
    "hh-two-var": ["cli", "specfile", "triples", "chains", "linalg",
                   "homology"],
    "hc-cyclic": ["cli", "specfile", "triples", "chains", "linalg",
                  "homology"],
    "verify-battery": ["cli", "specfile", "triples", "chains", "linalg",
                       "homology", "differentials", "kernel", "verify",
                       "oracles"],
    "rebased": ["cli", "specfile", "triples", "chains", "linalg", "homology",
                "differentials", "kernel", "verify", "oracles"],
}
# Spans that must not appear on a workload (its bypass prediction).
FORBIDDEN_SPANS = {"hh-two-var": ["chains.cyclic_quotient", "homology.hc"]}


def layer_metrics(tracer, records: list) -> dict:
    """The per-layer figures of one traced pass, by BENCHMARK.json name."""
    secs = 1e-9
    calls, counts = tracer.calls, tracer.counts
    m = {}

    def self_s(name):
        m[f"{name}.self_s"] = tracer.self_ns[name] * secs

    def ratio(num, den):
        return num / den if den else 0.0

    for name in ("chains.cyclic_quotient", "chains.boundary"):
        self_s(name)
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.hit_ratio"] = ratio(counts[name + ".hits"], calls[name])
    for key in ("chains.cyclic_quotient.ambient", "chains.cyclic_quotient.dim",
                "chains.boundary.cols", "chains.boundary.nnz"):
        m[key] = counts[key]
    self_s("linalg.Subspace")
    for key in ("vectors_in", "rank_out", "max_entry_bits"):
        m[f"linalg.Subspace.{key}"] = counts[f"linalg.Subspace.{key}"]
    m["linalg.Subspace.useful_ratio"] = ratio(
        counts["linalg.Subspace.rank_out"], counts["linalg.Subspace.vectors_in"])
    for name in ("linalg.nullspace", "linalg.colspace", "linalg.solve",
                 "linalg.induced_on_quotients", "linalg.SparseMat.matmul",
                 "differentials.omega", "differentials.d_one_A_subspace",
                 "kernel.kernel_data", "kernel.symmetry_check",
                 "verify.verify_prop_hh1_omega", "verify.verify_cor_hc1",
                 "verify.verify_prop_omega_J", "verify.verify_main",
                 "verify.verify_reduction_Bk", "oracles.classical_hh_dims",
                 "oracles.classical_hc_dims", "cli.main"):
        self_s(name)
    for name in ("linalg.Subspace.coords_of", "linalg.Subspace.contains",
                 "homology.hh", "homology.hc"):
        self_s(name)
        m[f"{name}.calls"] = calls[name]
    m["verify.checks"] = counts["verify.checks"]
    self_s("oracles.dense_rank")
    m["oracles.dense_rank.calls"] = calls["oracles.dense_rank"]
    m["cli.output_bytes"] = sum(rec["bytes"] for rec in records)
    for name in ("specfile.triple_hash", "specfile.parse_triple_file",
                 "triples.make_triple"):
        m[f"{name}.s"] = tracer.total_ns[name] * secs
        m[f"{name}.calls"] = calls[name]
    m["trace.wall_s"] = sum(rec["latency_s"] for rec in records)
    m["trace.spans"] = len(tracer.spans)
    return m


def trace_failures(workload: str, tracer) -> list:
    layer_calls = tracer.layer_calls()
    out = [f"layer {layer} recorded no call"
           for layer in EXPECTED_LAYERS[workload] if not layer_calls[layer]]
    out += [f"{name} was called {tracer.calls[name]} times"
            for name in FORBIDDEN_SPANS.get(workload, []) if tracer.calls[name]]
    return out


# -- entry point ---------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="stop once the inputs are ready (set-up timing)")
    ap.add_argument("--golden", type=Path, default=GOLDEN,
                    help="frozen outputs to check against")
    args = ap.parse_args(argv)

    # The reference is timed just before and just after set-up, in this
    # process, so that run.py can scale set-up time by the host's speed.
    t0 = time.perf_counter()
    before = call_time()
    spent = time.perf_counter() - t0
    cli = import_sechom()
    requests = build_requests(args.workload, args.seed, load_golden(args.golden))
    t0 = time.perf_counter()
    after = call_time()
    spent += time.perf_counter() - t0
    print(f"READY {spent!r} {(before + after) / 2!r}", flush=True)
    if args.probe:
        return 0

    result = {"workload": args.workload, "seed": args.seed}
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            records = run_loop(cli, requests, 1, args.seconds, tracer)
        finally:
            tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(str(spans))
        result["per_layer"] = layer_metrics(tracer, records)
        result["layer_calls"] = tracer.layer_calls()
        result["trace_failures"] = trace_failures(args.workload, tracer)
        result["spans_file"] = str(spans.relative_to(ROOT))
    else:
        passes = passes_for(args.workload, args.seconds)
        sampler = Sampler()
        sampler.start()
        try:
            records = run_loop(cli, requests, passes, args.seconds,
                               sampler=sampler)
        finally:
            sampler.stop()
        normalize(records, sampler)
        result["reference_samples_s"] = [s[1:] for s in sampler.samples]
        result["trace_failures"] = []
    result.update(summarize(records))
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
