"""Acceptance battery: the properties this package promises, end to end.

Each test covers one numbered promise and prints a single pass/fail line
(visible with -s or in captured output).  All comparisons are exact; no
tolerances appear anywhere.
"""

import json
import subprocess
import sys
from fractions import Fraction

from _shared import (ALL_NAMES, COMMUTATIVE_NAMES, child_env,
                     commutator_subspace, derivation_identity_failures,
                     one_minus_cyclic, shared_triple)
from sechom.algebra import (field_algebra, multiply, split_product_algebra,
                            truncated_polynomial_algebra)
from sechom.chains import boundary, chain_dim
from sechom.homology import hc, hh
from sechom.linalg import colspace
from sechom.specfile import export_triple, parse_triple_source
from sechom.triples import EpsNotMultiplicativeError, catalog
from sechom.verify import (verify_connes_segment, verify_cor_hc1, verify_main,
                           verify_reduction_Bk)

F = Fraction

MAX_COMPOSITE_DIM = 40000


def _top_degree(T) -> int:
    n = 0
    while n < 4 and chain_dim(T, n + 2) <= MAX_COMPOSITE_DIM:
        n += 1
    return n


def _line(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def test_criterion_01_boundary_squares_to_zero():
    ok = True
    for name in ALL_NAMES:
        T = shared_triple(name)
        for n in range(1, _top_degree(T) + 1):
            if not (boundary(T, n) @ boundary(T, n + 1)).is_zero():
                ok = False
    _line(1, "boundary composes to zero", ok)


def test_criterion_02_boundary_respects_the_rotation():
    ok = True
    for name in ALL_NAMES:
        T = shared_triple(name)
        for n in range(1, _top_degree(T) + 1):
            M = boundary(T, n) @ one_minus_cyclic(T, n)
            W = colspace(one_minus_cyclic(T, n - 1))
            for c in range(M.ncols):
                if not W.contains(M.column(c)):
                    ok = False
                    break
    _line(2, "rotation-compatible boundary", ok)


def test_criterion_03_ground_field_reduction():
    ok = True
    for A in [field_algebra(), truncated_polynomial_algebra(2),
              truncated_polynomial_algebra(3), split_product_algebra(2)]:
        rep = verify_reduction_Bk(A, n_max=3)
        if not rep.passed:
            ok = False
    _line(3, "reduction to the classical theory", ok)


def test_criterion_04_degree_zero_is_the_abelianization():
    ok = True
    for name in ALL_NAMES:
        T = shared_triple(name)
        if hh(T, 0).dimension != T.A.dim - commutator_subspace(T.A).dim:
            ok = False
    ok = ok and hh(shared_triple("mat2_k"), 0).dimension == 1
    _line(4, "degree zero abelianization law", ok)


def test_criterion_05_degree_zero_cyclic_equals_plain():
    ok = all(hc(shared_triple(name), 0).dimension
             == hh(shared_triple(name), 0).dimension for name in ALL_NAMES)
    _line(5, "degree zero cyclic equality", ok)


def test_criterion_06_main_isomorphism_battery():
    ok = True
    for name in COMMUTATIVE_NAMES:
        T = shared_triple(name)
        assert T.A.dim <= 3 and T.B.dim <= 3
        rep = verify_main(T)
        if not (rep.passed and rep.dims["hh1"] == rep.dims["omega"]
                == rep.dims["kernel_quotient"]):
            ok = False
    _line(6, "main isomorphism chain", ok)


def test_criterion_07_cyclic_corollary_battery():
    ok = True
    for name in COMMUTATIVE_NAMES:
        rep = verify_cor_hc1(shared_triple(name))
        surjection = dict((l, o) for l, o in rep.checks)["induced map is onto"]
        if not (rep.passed and surjection
                and rep.dims["hc1"] == rep.dims["omega"] - rep.dims["d1A"]):
            ok = False
    _line(7, "degree one cyclic corollary", ok)


def test_criterion_08_connecting_segment_exactness():
    ok = True
    for name in COMMUTATIVE_NAMES:
        rep = verify_connes_segment(shared_triple(name))
        if not (rep.passed and rep.witness is None
                and all(o for _, o in rep.checks)
                and rep.dims["image_rank"] == rep.dims["hc1"]):
            ok = False
    _line(8, "connecting segment exactness", ok)


def test_criterion_09_derivation_consequence_identities():
    ok = True
    for name in COMMUTATIVE_NAMES:
        if derivation_identity_failures(shared_triple(name)):
            ok = False
    _line(9, "derivation consequence identities", ok)


def test_criterion_10_byte_identical_reports():
    argv = [sys.executable, "-m", "sechom.cli", "verify", "--catalog",
            "--all", "--format", "machine"]
    first = subprocess.run(argv, capture_output=True, env=child_env())
    second = subprocess.run(argv, capture_output=True, env=child_env())
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout and len(first.stdout) > 0)
    if ok:
        payload = json.loads(first.stdout)
        ok = all(r["passed"] for r in payload["reports"])
    _line(10, "deterministic machine reports", ok)


def test_criterion_11_mutation_leaves_a_replayable_witness(tmp_path):
    # One corrupted structure constant: x^2 = 1 instead of 0.  The algebra
    # alone is still associative and unital, so the damage must be caught
    # by the compatibility axioms, with a witness we can replay by hand.
    src = export_triple(catalog("dual_dual_x")) + "c A 1 1 0 1\n"
    ok = False
    try:
        parse_triple_source(src)
    except EpsNotMultiplicativeError as exc:
        p, q, lhs, rhs = exc.witness
        T = catalog("dual_dual_x")
        B = T.B
        fp = [F(1) if t == p else F(0) for t in range(B.dim)]
        fq = [F(1) if t == q else F(0) for t in range(B.dim)]
        prod = multiply(B, fp, fq)
        # replay against the *mutated* multiplication in A
        mutated_mult = [[list(v) for v in row] for row in T.A.mult]
        mutated_mult[1][1][0] += F(1)

        def mul_a(x, y):
            out = [F(0)] * 2
            for i, xi in enumerate(x):
                if xi:
                    for j, yj in enumerate(y):
                        if yj:
                            for k, c in enumerate(mutated_mult[i][j]):
                                out[k] += xi * yj * c
            return out

        eps_cols = T.eps.columns
        image_of_product = [
            sum(prod[t] * eps_cols[t][m] for t in range(B.dim))
            for m in range(2)]
        product_of_images = mul_a(eps_cols[p], eps_cols[q])
        ok = (image_of_product != product_of_images
              and lhs == image_of_product and rhs == product_of_images)

    # The command line surfaces the same failure as a validation error.
    mutated_file = tmp_path / "mutated.triple"
    mutated_file.write_text(src, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "sechom.cli", "validate", str(mutated_file)],
        capture_output=True, env=child_env())
    ok = ok and proc.returncode == 3 and b"multiplicative" in proc.stderr
    _line(11, "mutation leaves a replayable witness", ok)
