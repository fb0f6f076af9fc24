"""Tests of the benchmark itself (not of sechom).

    python3 -m pytest perfbench -q

They cover the rebased-input generator, the tracer's promise to change
no output and to fail loudly, and the failure accounting of run.py.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402

CLI = bench.import_sechom()
GOLDEN = bench.load_golden(bench.GOLDEN)


def _golden_dims(name: str, flavor: str) -> list:
    argv = bench._catalog_argv(name, bench._compute(flavor, "0..2"))
    return [r["dimension"]
            for r in json.loads(GOLDEN[bench.golden_key(argv)])["results"]]


def test_two_seeds_give_different_files_with_the_catalog_dimensions(tmp_path):
    from sechom.homology import hc, hh
    from sechom.specfile import parse_triple_file

    files = {seed: bench.write_rebased(seed, tmp_path / str(seed))
             for seed in (1, 2)}
    for name in bench.REBASED_SOURCES:
        texts = [files[seed][name].read_text() for seed in (1, 2)]
        assert texts[0] != texts[1]
        for seed in (1, 2):
            T = parse_triple_file(str(files[seed][name])).triple
            # Degrees 0..1 keep the test fast; the benchmark checks 0..2.
            assert [hh(T, n).dimension for n in (0, 1)] == \
                _golden_dims(name, "hh")[:2]
            assert [hc(T, n).dimension for n in (0, 1)] == \
                _golden_dims(name, "hc")[:2]


def test_rebased_output_is_checked_against_the_catalog_twin(tmp_path):
    paths = bench.write_rebased(7, tmp_path)
    argv = bench._catalog_argv("dual_dual_x", ["verify", "--theorem", "all"])
    req = bench.Request("verify", ["verify", str(paths["dual_dual_x"]),
                                   "--theorem", "all", "--format", "machine"],
                        GOLDEN[bench.golden_key(argv)],
                        rebased_name="rebased_dual_dual_x")
    rec = bench.run_request(CLI, req)
    assert rec["error"] == ""
    flipped = rec["stdout"].replace('"passed":true', '"passed":false', 1)
    assert flipped != rec["stdout"]
    assert req.check(flipped)


def test_traced_and_untraced_outputs_are_byte_identical():
    requests = bench.build_requests("verify-battery", 1, GOLDEN)
    plain = [bench.run_request(CLI, r)["stdout"] for r in requests]
    t = tracer.Tracer()
    t.install()
    try:
        traced = [bench.run_request(CLI, r)["stdout"] for r in requests]
    finally:
        t.uninstall()
    assert traced == plain
    assert all(calls for calls in t.layer_calls().values())
    assert bench.run_request(CLI, requests[0])["stdout"] == plain[0]


def test_tracer_fails_when_a_traced_name_is_gone(monkeypatch):
    monkeypatch.setattr(tracer, "TRACED",
                        tracer.TRACED + [("chains", "no_such_function")])
    t = tracer.Tracer()
    with pytest.raises(tracer.MissingTraceTarget):
        t.install()
    t.uninstall()


def test_tracer_flags_silent_layers_and_cyclic_calls_on_hh():
    t = tracer.Tracer()
    t.calls["chains.cyclic_quotient"] = 1
    failures = bench.trace_failures("hh-two-var", t)
    assert any("cyclic_quotient" in f for f in failures)
    assert any(f == "layer cli recorded no call" for f in failures)


def test_a_wrong_expected_value_fails_the_run(tmp_path):
    doc = json.loads(bench.GOLDEN.read_text())
    key = bench.golden_key(bench._catalog_argv("k_k", ["validate"]))
    doc["outputs"][key] = doc["outputs"][key].replace('"dim_A":1', '"dim_A":2')
    bad = tmp_path / "golden.json"
    bad.write_text(json.dumps(doc))
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "verify-battery",
         "--seed", "1", "--seconds", "1", "--golden", str(bad)],
        capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 30
    ratio = next(ln for ln in lines if "fail_ratio" in ln)
    assert "fail_ratio = 0.0333333" in ratio


def test_metric_names_match_benchmark_json():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    raw = {"latencies_s": [1.0], "pass_wall_s": [1.0], "pass_cpu_s": [1.0],
           "pass_wall_ref_s": [1.0], "pass_cpu_ref_s": [1.0],
           "reference_samples_s": [[0.05, 0.05]] * 2,
           "peak_rss_mb": 50.0, "failures": [], "attempted": 1}
    metrics, _ = run.end_to_end(raw, [(0.3, 0.25)])
    assert [(k, u) for k, (_, u) in metrics.items()] == \
        [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    names = bench.layer_metrics(tracer.Tracer(), [])
    assert sorted((k, run.per_layer_unit(k)) for k in names) == \
        sorted((m["name"], m["unit"]) for m in spec["per_layer"])


def test_a_request_is_scaled_by_the_samples_around_it():
    s = reference.Sampler()
    # (midpoint, wall, cpu): the host runs at half speed from t = 10 on.
    s.samples = [(t / 4, 0.010 if t < 40 else 0.020, 0.010 if t < 40 else 0.020)
                 for t in range(80)]
    assert s.speed(12.0, 14.0) == (0.020, 0.020)      # samples inside
    assert s.speed(5.0, 5.01) == (0.010, 0.010)       # the nearest five
    recs = [{"start": 12.0, "end": 14.0, "latency_s": 2.0, "cpu_s": 2.0}]
    bench.normalize(recs, s)
    assert recs[0]["latency_ref_s"] == recs[0]["cpu_ref_s"] == 1.0


def test_sampler_time_is_not_counted_in_the_request():
    class Ticking:
        """A sampler whose handler ran for 0.5 s during the request."""
        spent_cpu = 0.0

        def __init__(self):
            self.walls = iter([0.0, 0.5])

        @property
        def spent_wall(self):
            return next(self.walls)

    req = bench.build_requests("verify-battery", 1, GOLDEN)[0]
    rec = bench.run_request(CLI, req, Ticking())
    assert rec["error"] == ""
    assert rec["latency_s"] == pytest.approx(rec["end"] - rec["start"] - 0.5)


def test_the_sampler_times_the_reference_from_its_signal():
    s = reference.Sampler()
    s.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.6:
            pass
    finally:
        s.stop()
    assert len(s.samples) >= 2
    assert s.spent_wall == pytest.approx(sum(w for _, w, _ in s.samples))
