"""Command line behavior: sources, flavors, exit codes, determinism."""

import hashlib
import importlib.util
import json
import subprocess
import sys
import time
import weakref

import pytest

from _shared import child_env
from sechom import cli
from sechom.algebra import AlgebraReport, AlgMorphism, FinAlgebra
from sechom.chains import boundary
from sechom.cli import main
from sechom.homology import HomologyResult
from sechom.kernel import KernelData, kernel_data
from sechom.specfile import (ParsedTriple, export_triple, parse_triple_file,
                             triple_hash)
from sechom.triples import Triple, catalog, catalog_names
from sechom.verify import TheoremReport


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
    # A bare --catalog (the whole catalog) must not drop the file either.
    code, out, err = run(capsys, "verify", str(p), "--catalog")
    assert code == 2 and out == ""
    assert "not both" in err


def test_whole_catalog_with_one_theorem_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--catalog", "--theorem", "main")
    assert code == 2 and out == ""
    assert "--theorem" in err


def test_unknown_catalog_name(capsys):
    code, _, err = run(capsys, "validate", "--catalog", "nope")
    assert code == 3
    assert "nope" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/no/such/file.triple")
    assert code == 2
    assert "no such file" in err


def test_directory_is_a_parse_error(capsys, tmp_path):
    code, out, err = run(capsys, "validate", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read")


def test_non_utf8_file_is_a_parse_error(capsys, tmp_path):
    p = tmp_path / "latin1.triple"
    p.write_bytes("name caf\xe9\n".encode("latin-1"))
    code, out, err = run(capsys, "validate", str(p))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read") and "UTF-8" in err


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


# sha256 of `compute --format machine --representatives` (hh/hc at
# --degree 0..2, and omega) on each catalog triple, frozen from the
# output of the dense-representative implementation.
REPRESENTATIVE_HASHES = {
    ("k_k", "hh"): "a1c04588d3ce088b870f61de77a0e4466e395da9bddec20dd2d8269495cfdbfb",
    ("k_k", "hc"): "0385d15759e25f743c9fbe5cd951c7ec53fe11cb743464964c4084cd7bc6c0c0",
    ("k_k", "omega"): "a815a157ed7384934a2c1ec5ceb5a34ab08a4b9c8142602c4e9df621b0c53028",
    ("dual_k", "hh"): "475076d8d7bf4a6b6151184b5e837532dcd8426dc7030c2cba3a9a89096e11a3",
    ("dual_k", "hc"): "efa9f379dc6af3a9cd13fbaee56eb1c5ca3cb0a69d7897b546ab5df388029dda",
    ("dual_k", "omega"): "f1134b2046e932be290fb934bdcbae433628e129a6587319e58ac5d764082162",
    ("dual_dual_zero", "hh"): "81edc0a1111fd191b9d2d6c1f91c985bc9bfe0d9486faeb7c9af4ca8ba12052a",
    ("dual_dual_zero", "hc"): "06bcdc38daffca679c8ab7f86f4b8e6ce29d9a077dedd0a930661eaa1961af04",
    ("dual_dual_zero", "omega"): "9e36f551e2812224926bd5d8b1819e631a0a6b57157ab16aa194625bc2c12d69",
    ("dual_dual_x", "hh"): "4e9fe8edbcbb2983c11b80490ae17625de26f310575c25a5d8ac773ec04b25f9",
    ("dual_dual_x", "hc"): "850ac33b629fa8ae47081d4caa8230854c40d483e68a4f8a5507f7411c5532d5",
    ("dual_dual_x", "omega"): "2b4a9954d4e5fa79d0effd001ee42c72c344b460fee4f0620e0310977f8d4ea3",
    ("prod_k", "hh"): "158295aab07cc4dc11102e24db7cdd49c13426477e771a308092b17536009b82",
    ("prod_k", "hc"): "4fea72f9831500318ed2c9cd632a3237f74608a5f494514826a0c1c896d68cf1",
    ("prod_k", "omega"): "2282514dd9724c2b370959c42cd6defc78933635a2f8be1f1ba90c63168286d1",
    ("trunc3_k", "hh"): "feec35f699f3d267615d686455a28146244a770d71c2590dd8b3ed41fbd224bc",
    ("trunc3_k", "hc"): "a50d262ba52eae288d8da744e24d282d65b46d4a8614074bc3584a06b61a628f",
    ("trunc3_k", "omega"): "1fea2d1484049fa8d6dc06290c8d2df414ab9b30c04cf1b1e4a81f7a202f000c",
    ("dual_over_dual_id", "hh"): "8913964a5bca8b3aac31b1e418f4cf373b58b8306d21c1e918ac6274282cdf7a",
    ("dual_over_dual_id", "hc"): "20b23331ac1d32268b313973475f453502612a061abe99489169e3f955bc15c5",
    ("dual_over_dual_id", "omega"): "cec3761cad021816b67c39dac377cbc976c7d1237ae078041b03af157103bbbe",
    ("mat2_k", "hh"): "294ed411f8f0b7d52c06157fe7731bb368e27ed0a7a8f0aa6230cd71782a9ba0",
    ("mat2_k", "hc"): "5ef459b607e82eade602cc77e53afef5229fad00ed178b916c85e0bd71f12f98",
}


def test_representatives_output_is_frozen(capsys):
    # omega needs commutative A, so mat2_k has only hh and hc entries.
    assert {name for name, _ in REPRESENTATIVE_HASHES} == set(catalog_names())
    for (name, flavor), digest in REPRESENTATIVE_HASHES.items():
        argv = ["compute", "--catalog", name, "--flavor", flavor,
                "--representatives", "--format", "machine"]
        if flavor != "omega":
            argv += ["--degree", "0..2"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, \
            (name, flavor)


# sha256 of `compute --flavor hh|hc --degree 3 --representatives --format
# machine` on the two-variable triples, where the homology quotient is
# split into weight blocks that stop once they are spanned.
DEGREE_THREE_HASHES = {
    ("dual_dual_zero", "hh"): "ba098e91660db7a6343ad2074c930a9f95e24ee250d7b50cb28ed506276c3b06",
    ("dual_dual_zero", "hc"): "c53ccb8be47ff7833a3ce7994948811fd184c95f9660dc547c8f17df28e02f18",
    ("dual_dual_x", "hh"): "9e168da657044e66fe317a3c40e438130cd8f330ce80901d779c3c132f8c8972",
    ("dual_dual_x", "hc"): "10c2ea75e11bcc061cfe705945f27e82aeb4672b29bf67ce890c9e7796d46b0f",
    ("dual_over_dual_id", "hh"): "e203f1d1b1ef0479f8bef822a036bd2976c8bfd2687b44521689469528599903",
    ("dual_over_dual_id", "hc"): "4f729338021a7b5d9f209c6da04a63f14f942a878e40216877006b7e93f48976",
}


def test_degree_three_representatives_are_frozen(capsys):
    for (name, flavor), digest in DEGREE_THREE_HASHES.items():
        code, out, _ = run(capsys, "compute", "--catalog", name, "--flavor",
                           flavor, "--degree", "3", "--representatives",
                           "--format", "machine")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, \
            (name, flavor)


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


def test_negative_override_is_a_usage_error(capsys):
    # Refused like a spec file's negative max_degree: exit 2, same wording,
    # and not as a degree over the cap.
    code, _, err = run(capsys, "compute", "--catalog", "k_k", "--degree", "0",
                       "--max-degree-override", "-1")
    assert code == 2
    assert err == "error: --max-degree-override must be nonnegative\n"


def test_over_cap_degrees_are_refused_before_any_work(capsys, monkeypatch):
    # The smallest requested degree above the cap is refused first, so no
    # degree below it is computed.
    calls = []
    monkeypatch.setattr(cli, "hc", lambda T, n, max_degree=None: calls.append(n))
    code, _, err = run(capsys, "compute", "--catalog", "dual_dual_x",
                       "--flavor", "hc", "--degree", "5,0..4")
    assert code == 4 and calls == []
    assert err.startswith("error: degree 4 exceeds the cap 3;")


def test_huge_degree_range_is_refused_at_once(capsys):
    started = time.perf_counter()
    code, _, err = run(capsys, "compute", "--catalog", "dual_dual_x",
                       "--flavor", "hc", "--degree", "0..1000000000000")
    assert time.perf_counter() - started < 1
    assert code == 4
    assert err.startswith("error: degree 4 exceeds the cap 3;")


def test_huge_single_degree_is_refused_at_once(capsys):
    # The chain dimensions of these degrees have too many digits to print
    # (or to compute quickly), so the message writes them as powers.
    for degree, dims in (("200", "2^201*2^20100, 2^202*2^20301"),
                         ("10000", "2^10001*2^50005000, 2^10002*2^50015001")):
        started = time.perf_counter()
        code, _, err = run(capsys, "compute", "--catalog", "dual_dual_x",
                           "--flavor", "hh", "--degree", degree)
        assert time.perf_counter() - started < 1
        assert code == 4
        assert err.startswith(f"error: degree {degree} exceeds the cap 3; "
                              f"chain spaces involved have dimensions {dims}.")


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


def test_kernel_reference_refuses_noncommutative_a_before_the_oracle(
        capsys, monkeypatch):
    # The I/I^2 oracle refuses a non-commutative A with ValueError; the
    # command refuses first, with the kernel's own message and exit 3.
    plain = run(capsys, "compute", "--catalog", "mat2_k", "--flavor", "kernel")
    assert plain[0] == 3
    assert "the kernel presentation requires a commutative" in plain[2]

    def unreachable(A):
        raise AssertionError("the reference ran on a non-commutative A")

    monkeypatch.setattr(cli, "classical_I_mod_I2_dim", unreachable)
    assert run(capsys, "compute", "--catalog", "mat2_k", "--flavor", "kernel",
               "--oracle") == plain


def test_omega_reference_refuses_noncommutative_a_before_the_oracle(
        capsys, monkeypatch):
    # The Kahler oracle refuses a non-commutative A with ValueError; the
    # command refuses first, with the symbol module's own message and exit 3.
    plain = run(capsys, "compute", "--catalog", "mat2_k", "--flavor", "omega")
    assert plain[0] == 3
    assert "the module of differential symbols requires a commutative" \
        in plain[2]

    def unreachable(A):
        raise AssertionError("the reference ran on a non-commutative A")

    monkeypatch.setattr(cli, "classical_kahler_dim", unreachable)
    assert run(capsys, "compute", "--catalog", "mat2_k", "--flavor", "omega",
               "--oracle") == plain


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


def test_reference_over_its_cap_is_refused_before_the_engine(
        capsys, monkeypatch):
    # The degree-6 reference for trunc3_k needs 3^8 = 6561 > 5000 columns.
    argv = ["compute", "--catalog", "trunc3_k", "--flavor", "hc",
            "--degree", "6", "--max-degree-override", "6", "--oracle"]
    proc = subprocess.run([sys.executable, "-m", "sechom.cli", *argv],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("resource cap:")
    assert proc.stderr.count("\n") == 1

    def engine(*args, **kwargs):
        raise AssertionError("the engine ran before the refusal")

    monkeypatch.setattr(cli, "hc", engine)
    code, out, _ = run(capsys, *argv)
    assert code == 4 and out == ""


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


def test_export_to_a_missing_directory_is_a_parse_error(capsys, tmp_path):
    out_path = tmp_path / "no_such_dir" / "x.triple"
    code, out, err = run(capsys, "export", "--catalog", "k_k",
                         "--out", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write")
    assert not out_path.parent.exists()


def test_export_to_stdout(capsys):
    code, out, _ = run(capsys, "export", "--catalog", "dual_k")
    assert code == 0
    assert out.startswith("name dual_k\n")
    assert "eps 0 1 0" in out


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "sechom" in capsys.readouterr().out


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    fresh = cli.build_parser

    def counted():
        built.append(1)
        return fresh()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    assert main(["validate", "--catalog", "k_k"]) == 0
    assert main(["export", "--catalog", "dual_k"]) == 0
    assert main(["compute", "--catalog", "dual_k", "--degree", "0"]) == 0
    assert main(["validate"]) == 2
    assert main(["--version"]) == 0
    capsys.readouterr()
    assert len(built) == 1


def test_failed_parse_leaves_the_reused_parser_clean(capsys, monkeypatch):
    # The failing request sets --degree before its bad --flavor; the next
    # request must still get the default degrees of a freshly built parser.
    request = ["compute", "--catalog", "dual_k", "--format", "machine"]
    monkeypatch.setattr(cli, "_parser", None)
    assert main(request) == 0
    expected = capsys.readouterr().out
    code, out, err = run(capsys, "compute", "--catalog", "dual_k",
                         "--degree", "0..1", "--flavor", "nope")
    assert code == 2 and out == ""
    assert "invalid choice" in err
    assert main(request) == 0
    assert capsys.readouterr().out == expected
    assert [r["degree"] for r in json.loads(expected)["results"]] == [0, 1, 2]


def test_console_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "sechom.cli", "validate", "--catalog", "k_k",
         "--format", "machine"],
        capture_output=True, text=True, env=child_env())
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
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    reports = json.loads(proc.stdout)["reports"]
    assert reports and all(rep["passed"] for rep in reports)


def test_requests_hash_without_loading_openssl():
    # triple_hash takes SHA-256 from the interpreter's built-in module, so a
    # fresh process answers a compute and a verify request without hashlib's
    # OpenSSL binding; only an interpreter that lacks both built-in modules
    # falls back to hashlib.
    code = ("import sys\n"
            "from sechom.cli import main\n"
            "assert main(['compute', '--catalog', 'dual_dual_x', '--degree',"
            " '0..1', '--format', 'machine']) == 0\n"
            "assert main(['verify', '--catalog', 'dual_dual_x', '--theorem',"
            " 'hc1', '--format', 'machine']) == 0\n"
            "print('_hashlib' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    *outs, loaded = proc.stdout.splitlines()
    T = catalog("dual_dual_x")
    text = export_triple(Triple(T.A, T.B, T.eps, T.commutative, name=""))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert [json.loads(out)["triple"]["hash"] for out in outs] == [digest] * 2
    if any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")):
        assert loaded == "False"


def test_requests_import_neither_dataclasses_nor_typing():
    # The records are plain classes and no annotation is evaluated, so a
    # fresh process answers a request without dataclasses (nor the inspect,
    # ast and dis it pulls in) and without typing.
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "from sechom.cli import main\n"
            "assert main(['compute', '--catalog', 'dual_dual_x', '--degree',"
            " '0..1', '--format', 'machine']) == 0\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.splitlines()[-1].split())
    assert "sechom.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "typing"}


def test_value_records_compare_every_field():
    T = catalog("dual_dual_x")
    # (class, arguments, a different value for each compared argument)
    cases = [
        (AlgebraReport, (True, (0, 1, 1), False, 1, False, (0, 1)),
         (False, (1, 0, 0), True, None, True, None)),
        (TheoremReport, ("dual_k", "hc1", True, {"HC_1": 1}, [("c", True)],
                         {"w": 1}),
         ("trunc3_k", "Prop3", False, {"HC_1": 2}, [], None)),
        (ParsedTriple, (T, "dual_dual_x", 3), (catalog("dual_dual_x"), "x",
                                                None)),
        # the representatives are formed on demand and not compared
        (HomologyResult, ("dual_k", "hh", 1, 0, list),
         ("trunc3_k", "hc", 2, 1)),
    ]
    for cls, args, others in cases:
        record = cls(*args)
        assert record == cls(*args) and record != args
        for i, other in enumerate(others):
            assert cls(*args[:i], other, *args[i + 1:]) != record, (cls, i)
        with pytest.raises(TypeError):
            hash(record)
    res = HomologyResult("dual_k", "hh", 1, 0, list)
    assert res.representatives == []
    assert res == HomologyResult("dual_k", "hh", 1, 0, tuple)
    assert TheoremReport("t", "x", True, {}).checks == []
    assert (TheoremReport("t", "x", True, {}).checks
            is not TheoremReport("t", "x", True, {}).checks)


def test_engine_records_compare_by_identity():
    T = catalog("dual_dual_x")
    K = kernel_data(T)
    twins = [
        (T.A, FinAlgebra(T.A.dim, T.A.mult, T.A.unit, T.A.name)),
        (T.eps, AlgMorphism(T.B, T.A, T.eps.columns, T.eps.name)),
        (T, Triple(T.A, T.B, T.eps, T.commutative, T.name)),
        (K, KernelData(K.m_matrix, K.J, K.j_squared, K.j_hat, K.j_hat_closed,
                       K.span_relations, K.relations, K.quotient,
                       K.readings_agree)),
    ]
    for record, twin in twins:
        assert record == record and record != twin
        assert len({record, twin}) == 2


def test_triples_are_weakly_referenced_and_never_share_a_memo():
    C = catalog("dual_dual_x")
    T, twin = (Triple(C.A, C.B, C.eps, C.commutative, C.name)
               for _ in range(2))
    assert weakref.ref(T)() is T
    assert T._memo == twin._memo == {} and T._memo is not twin._memo
    boundary(T, 1)
    assert T._memo and twin._memo == {}


def test_reference_cap_counts_the_bar_complex_of_the_top_degree(
        capsys, monkeypatch):
    # The oracles rank the normalized complex, but their cap still counts
    # the bar complex one degree up, d^(n_max + 2): mat2_k's hh in degrees
    # 0..5 (4^7 = 16384) is refused before any engine work, and its hc in
    # degrees 0..4 (4^6 = 4096) is answered and agrees.
    def engine(*args, **kwargs):
        raise AssertionError("the engine ran before the refusal")

    with monkeypatch.context() as m:
        m.setattr(cli, "hh", engine)
        code, out, err = run(capsys, "compute", "--catalog", "mat2_k",
                             "--flavor", "hh", "--degree", "0..5",
                             "--max-degree-override", "5", "--oracle")
    assert code == 4 and out == ""
    assert err == ("resource cap: reference path refuses ambient dimension "
                   "16384 > 5000\n")
    code, payload, _ = run_json(capsys, "compute", "--catalog", "mat2_k",
                                "--flavor", "hc", "--degree", "0..4",
                                "--max-degree-override", "4", "--oracle")
    assert code == 0
    assert payload["reference"] == {
        "agrees": True, "classical": {"0": 1, "1": 0, "2": 1, "3": 0, "4": 1}}
    assert [r["dimension"] for r in payload["results"]] == [1, 0, 1, 0, 1]
