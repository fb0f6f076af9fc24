"""Command line behavior: sources, flavors, exit codes, determinism."""

import json
import subprocess
import sys

from sechom.cli import main
from sechom.specfile import export_triple, parse_triple_file, triple_hash
from sechom.triples import catalog


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "machine")
    return code, json.loads(out), err


# -- sources and validate --------------------------------------------------

def test_validate_catalog_triple(capsys):
    code, out, _ = run(capsys, "validate", "--catalog", "dual_dual_x")
    assert code == 0
    assert "all axioms hold" in out
    assert "dim A = 2" in out


def test_validate_machine_payload(capsys):
    code, payload, _ = run_json(capsys, "validate", "--catalog", "trunc3_k")
    assert code == 0
    assert payload["status"] == "valid"
    assert payload["triple"]["hash"] == triple_hash(catalog("trunc3_k"))


def test_missing_source_is_a_usage_error(capsys):
    code, _, err = run(capsys, "validate")
    assert code == 2
    assert "required" in err


def test_both_sources_is_a_usage_error(capsys, tmp_path):
    p = tmp_path / "t.triple"
    p.write_text(export_triple(catalog("dual_k")), encoding="utf-8")
    code, _, err = run(capsys, "validate", str(p), "--catalog", "dual_k")
    assert code == 2
    assert "not both" in err


def test_unknown_catalog_name(capsys):
    code, _, err = run(capsys, "validate", "--catalog", "nope")
    assert code == 3
    assert "nope" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/no/such/file.triple")
    assert code == 2
    assert "no such file" in err


def test_malformed_file_is_a_parse_error(capsys, tmp_path):
    p = tmp_path / "bad.triple"
    p.write_text("algebra A 2\nunit A 1 0.5\n", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2
    assert "0.5" in err


def test_axiom_failure_is_a_validation_error(capsys, tmp_path):
    src = export_triple(catalog("dual_dual_x")).replace(
        "eps 1 0 1", "eps 1 1 0")
    p = tmp_path / "axiom.triple"
    p.write_text(src, encoding="utf-8")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 3
    assert "multiplicative" in err


# -- compute ---------------------------------------------------------------

def test_compute_homology_dimensions(capsys):
    code, payload, _ = run_json(capsys, "compute", "--catalog", "dual_k",
                                "--flavor", "hh", "--degree", "0..3")
    assert code == 0
    assert [r["dimension"] for r in payload["results"]] == [2, 1, 1, 1]


def test_compute_degree_list_and_representatives(capsys):
    code, payload, _ = run_json(capsys, "compute", "--catalog", "dual_k",
                                "--flavor", "hc", "--degree", "0,2",
                                "--representatives")
    assert code == 0
    assert [r["degree"] for r in payload["results"]] == [0, 2]
    assert [r["dimension"] for r in payload["results"]] == [2, 2]
    assert len(payload["representatives"]) == 4


def test_bad_degree_specs(capsys):
    for spec in ("x", "3..1", "-2", "1..y"):
        code, _, err = run(capsys, "compute", "--catalog", "dual_k",
                           "--degree", spec)
        assert code == 2, spec
        assert err


def test_degree_cap_and_override(capsys):
    code, _, err = run(capsys, "compute", "--catalog", "dual_k",
                       "--degree", "4")
    assert code == 4
    assert "override" in err
    code, payload, _ = run_json(capsys, "compute", "--catalog", "dual_k",
                                "--degree", "4", "--max-degree-override", "4")
    assert code == 0
    assert payload["results"][0]["dimension"] == 1


def test_file_degree_directive_raises_the_cap(capsys, tmp_path):
    p = tmp_path / "deep.triple"
    p.write_text(export_triple(catalog("dual_k"), max_degree=4),
                 encoding="utf-8")
    code, payload, _ = run_json(capsys, "compute", str(p),
                                "--flavor", "hh", "--degree", "4")
    assert code == 0
    assert payload["results"][0]["dimension"] == 1


def test_compute_symbol_module(capsys):
    code, payload, _ = run_json(capsys, "compute", "--catalog", "trunc3_k",
                                "--flavor", "omega")
    assert code == 0
    assert payload["results"] == {"ambient": 9, "relations": 7,
                                  "dimension": 2, "d_one_A": 2}


def test_compute_kernel_summary(capsys):
    code, payload, _ = run_json(capsys, "compute", "--catalog",
                                "dual_dual_zero", "--flavor", "kernel")
    assert code == 0
    res = payload["results"]
    assert res["dimension"] == 1
    assert res["readings_agree"] is False
    assert res["symmetric"] is True
    assert res["relations_span"] == 4 and res["relations"] == 5


def test_commutative_precondition_maps_to_exit_three(capsys):
    code, _, err = run(capsys, "compute", "--catalog", "mat2_k",
                       "--flavor", "omega")
    assert code == 3
    assert "commutative" in err


def test_reference_comparison_requires_ground_field(capsys):
    code, payload, _ = run_json(capsys, "compute", "--catalog", "trunc3_k",
                                "--flavor", "hh", "--degree", "0..2",
                                "--oracle")
    assert code == 0
    assert payload["reference"]["agrees"] is True
    code, _, err = run(capsys, "compute", "--catalog", "dual_dual_x",
                       "--flavor", "hh", "--oracle")
    assert code == 3
    assert "ground field" in err


# -- verify ----------------------------------------------------------------

def test_verify_single_theorem(capsys):
    code, payload, _ = run_json(capsys, "verify", "--catalog", "dual_k",
                                "--theorem", "main")
    assert code == 0
    assert len(payload["reports"]) == 1
    assert payload["reports"][0]["passed"] is True


def test_verify_battery_skips_noncommutative_module_checks(capsys):
    code, payload, _ = run_json(capsys, "verify", "--catalog", "mat2_k",
                                "--theorem", "all")
    assert code == 0
    assert [r["theorem"] for r in payload["reports"]] == ["Reduction_Bk"]
    assert {s["theorem"] for s in payload["skipped"]} == \
        {"Prop3", "Cor3", "Prop4", "Thm_main"}


def test_verify_precondition_exit_code(capsys):
    code, _, err = run(capsys, "verify", "--catalog", "mat2_k",
                       "--theorem", "main")
    assert code == 3
    assert "precondition" in err


def test_verify_reduction_requires_ground_field(capsys):
    code, _, err = run(capsys, "verify", "--catalog", "dual_dual_x",
                       "--theorem", "reduction")
    assert code == 3
    assert "ground field" in err


def test_verify_whole_catalog_is_deterministic(capsys):
    argv = ["verify", "--catalog", "--all", "--format", "machine"]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert all(r["passed"] for r in payload["reports"])
    # four module theorems on each commutative triple, plus the reduction
    # battery on the five triples over the ground field
    assert len(payload["reports"]) == 7 * 4 + 5


def test_verify_from_exported_file(capsys, tmp_path):
    p = tmp_path / "x.triple"
    p.write_text(export_triple(catalog("dual_dual_x")), encoding="utf-8")
    code, payload, _ = run_json(capsys, "verify", str(p),
                                "--theorem", "omega_kernel")
    assert code == 0
    assert payload["reports"][0]["passed"] is True


# -- export ----------------------------------------------------------------

def test_export_round_trip(capsys, tmp_path):
    out_path = tmp_path / "exported.triple"
    code, out, _ = run(capsys, "export", "--catalog", "trunc3_k",
                       "--out", str(out_path))
    assert code == 0
    assert "wrote" in out
    back = parse_triple_file(str(out_path)).triple
    assert triple_hash(back) == triple_hash(catalog("trunc3_k"))


def test_export_to_stdout(capsys):
    code, out, _ = run(capsys, "export", "--catalog", "dual_k")
    assert code == 0
    assert out.startswith("name dual_k\n")
    assert "eps 0 1 0" in out


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "sechom" in capsys.readouterr().out


def test_console_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "sechom.cli", "validate", "--catalog", "k_k",
         "--format", "machine"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "valid"


def test_runs_with_numpy_blocked():
    # Importing a module mapped to None in sys.modules raises ImportError,
    # so any numpy import left in the package fails this run.
    code = ("import sys\n"
            "sys.modules['numpy'] = None\n"
            "from sechom.cli import main\n"
            "sys.exit(main(['verify', '--catalog', '--format', 'machine']))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    reports = json.loads(proc.stdout)["reports"]
    assert reports and all(rep["passed"] for rep in reports)
