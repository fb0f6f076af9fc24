"""End-to-end theorem verifiers: pass across the catalog, fail loudly
with replayable witnesses when fed inconsistent data."""

from collections import Counter
from fractions import Fraction

import pytest

from _shared import (COMMUTATIVE_NAMES, rebased_triple, rescaled_triple,
                     shared_triple)
from sechom.algebra import (FinAlgebra, field_algebra, matrix_algebra,
                            multiply, split_product_algebra,
                            truncated_polynomial_algebra)
from sechom import chains, verify
from sechom.chains import boundary
from sechom.cli import main
from sechom.differentials import ambient_symbol, omega
from sechom.homology import _hh_pieces
from sechom.kernel import KernelData, kernel_data
from sechom.linalg import QuotientStructure, SparseMat, Subspace, colspace
from sechom.specfile import export_triple
from sechom.triples import CommutativeTripleRequiredError, Triple
from sechom.verify import (forward_matrix, transfer_matrices, verify_cor_hc1,
                           verify_main, verify_prop_hh1_omega,
                           verify_prop_omega_J, verify_reduction_Bk)

F = Fraction


# -- the batteries ---------------------------------------------------------

def test_degree_one_homology_comparison_passes_everywhere():
    for name in COMMUTATIVE_NAMES:
        rep = verify_prop_hh1_omega(shared_triple(name))
        assert rep.passed, f"{name}: {rep.witness}"
        assert rep.dims["hh1"] == rep.dims["omega"]


def test_cyclic_comparison_passes_everywhere():
    for name in COMMUTATIVE_NAMES:
        rep = verify_cor_hc1(shared_triple(name))
        assert rep.passed, f"{name}: {rep.witness}"
        assert rep.dims["hc1"] == rep.dims["omega"] - rep.dims["d1A"]


def test_kernel_comparison_passes_everywhere():
    for name in COMMUTATIVE_NAMES:
        rep = verify_prop_omega_J(shared_triple(name))
        assert rep.passed, f"{name}: {rep.witness}"
        assert rep.dims["omega"] == rep.dims["kernel_quotient"]


def test_main_chain_of_isomorphisms_passes_everywhere():
    for name in COMMUTATIVE_NAMES:
        rep = verify_main(shared_triple(name))
        assert rep.passed, f"{name}: {rep.witness}"
        labels = [label for label, _ in rep.checks]
        assert "composite round trip on the kernel quotient is the identity" \
            in labels
        assert "composite round trip on homology is the identity" in labels
        assert "all three dimensions agree" in labels
        assert rep.dims["hh1"] == rep.dims["omega"] \
            == rep.dims["kernel_quotient"]


def test_ground_field_reduction_battery():
    for A in [field_algebra(), truncated_polynomial_algebra(2),
              truncated_polynomial_algebra(3), split_product_algebra(2)]:
        rep = verify_reduction_Bk(A)
        assert rep.passed, f"{A.name}: {rep.witness}"
        assert rep.dims["omega"] == rep.dims["kernel_quotient"]


@pytest.mark.parametrize("rebase", [False, True])
def test_battery_builds_each_face_plan_once(monkeypatch, capsys, tmp_path,
                                            rebase):
    # verify --theorem all reads boundaries of degrees 1 and 2 on the
    # triple itself and of degrees 1..4 on its regrading (the rebased
    # triple has one); hh, hc and the degree-one verifiers share them, so
    # no (triple, degree) assembles its faces twice, whole, streamed or
    # scattered onto coinvariants.
    args = ["verify", "--catalog", "trunc3_k"]
    if rebase:
        path = tmp_path / "trunc3_k_rebased.triple"
        path.write_text(export_triple(rebased_triple("trunc3_k")),
                        encoding="utf-8")
        args = ["verify", str(path)]
    built = Counter()
    real = chains._face_plans

    def counted(T, n, faces):
        built[id(T), n] += 1
        return real(T, n, faces)

    monkeypatch.setattr(chains, "_face_plans", counted)
    assert main([*args, "--theorem", "all", "--format", "machine"]) == 0
    capsys.readouterr()
    assert sorted(Counter(n for _, n in built).items()) == (
        [(1, 2), (2, 2), (3, 1), (4, 1)] if rebase
        else [(1, 1), (2, 1), (3, 1), (4, 1)])
    assert set(built.values()) == {1}


def test_reduction_handles_noncommutative_coefficients():
    # Homology comparison still applies; the module comparisons are
    # skipped because they are only defined in the commutative case.
    rep = verify_reduction_Bk(matrix_algebra(2))
    assert rep.passed
    assert "omega" not in rep.dims
    assert rep.dims["hh1"] == 0


def test_commutative_preconditions_are_enforced():
    T = shared_triple("mat2_k")
    for fn in (verify_prop_hh1_omega, verify_cor_hc1, verify_prop_omega_J,
               verify_main):
        with pytest.raises(CommutativeTripleRequiredError):
            fn(T)


def test_report_string_shows_status_and_dims():
    rep = verify_main(shared_triple("dual_k"))
    s = str(rep)
    assert s.startswith("[pass]")
    assert "dual_k" in s and "omega=1" in s


# -- chain-level building blocks -------------------------------------------

def test_transfer_matrices_are_mutually_inverse_permutations():
    for name in ["dual_k", "dual_dual_x", "trunc3_k"]:
        T = shared_triple(name)
        phi, psi = transfer_matrices(T)
        assert psi @ phi == SparseMat.identity(psi.nrows)
        prod = phi @ psi
        assert prod.nrows == prod.ncols
        assert all(prod.column(c) == {c: F(1)} for c in range(prod.ncols))


def test_forward_matrix_lands_in_the_kernel():
    for name in ["dual_k", "dual_dual_x"]:
        T = shared_triple(name)
        K = kernel_data(T)
        assert (K.m_matrix @ forward_matrix(T)).is_zero()


def test_homology_relations_are_the_degree_two_boundary_span():
    # The degree-one comparison tests symbol relations against the
    # homology quotient's relations in place of colspace(boundary(T, 2)).
    triples = [shared_triple(name) for name in COMMUTATIVE_NAMES]
    triples += [rescaled_triple(name) for name in ["dual_dual_x", "trunc3_k"]]
    triples += [rebased_triple(name) for name in
                ["dual_dual_zero", "dual_dual_x", "dual_over_dual_id",
                 "trunc3_k"]]
    for T in triples:
        assert colspace(boundary(T, 2)) == _hh_pieces(T, 1)[1].relations, \
            T.name


# -- failure behavior ------------------------------------------------------

def test_doctored_relations_fail_with_replayable_witness(monkeypatch):
    # Swap in the raw balancing span as the denominator on the one triple
    # where the two readings differ; the comparison must detect it.
    from sechom.verify import _Builder, _prop_omega_J

    T = shared_triple("dual_dual_zero")
    P = omega(T)
    K = kernel_data(T)
    raw_in_J = Subspace(K.J.dim,
                        [K.J.coords_of(row) for row in K.span_relations.rows])
    K2 = KernelData(K.m_matrix, K.J, K.j_squared, K.j_hat, K.j_hat_closed,
                    K.span_relations, K.span_relations,
                    QuotientStructure(K.J.dim, raw_in_J), K.readings_agree)
    assert K2.quotient.dim == 2  # the raw reading leaves too much behind

    monkeypatch.setattr(verify, "kernel_data", lambda _: K2)
    b = _Builder(T.name, "doctored")
    _prop_omega_J(T, b)
    rep = b.report
    assert not rep.passed
    failed = {label for label, ok in rep.checks if not ok}
    assert "symbol relations map into kernel relations" in failed
    assert "dimensions agree" in failed

    # The first recorded witness must replay: that symbol relation really
    # maps outside the raw span but inside the closed reading.
    wit = rep.witness
    assert wit["check"] == "symbol relations map into kernel relations"
    row = P.relations.rows[wit["relation"]]
    img = forward_matrix(T).matvec(row)
    assert not K.span_relations.contains(img)
    assert K.relations.contains(img)


def test_product_rule_witness_is_the_first_failure_in_order(monkeypatch):
    # With the squared kernel emptied, a product-rule instance fails
    # exactly when its image is nonzero; the witness must be the first
    # failing (b_pair, a_pair) in (p, q, k, l) order.
    from sechom.verify import _Builder, _prop_omega_J

    T = shared_triple("dual_dual_x")
    A, B = T.A, T.B
    K = kernel_data(T)
    K2 = KernelData(K.m_matrix, K.J, Subspace(K.J.ambient_dim), K.j_hat,
                    K.j_hat_closed, K.span_relations, K.relations, K.quotient,
                    K.readings_agree)
    monkeypatch.setattr(verify, "kernel_data", lambda _: K2)
    b = _Builder(T.name, "doctored")
    _prop_omega_J(T, b)

    def e(dim, i):
        return [F(1) if t == i else F(0) for t in range(dim)]

    def first_failure():
        F_mat = forward_matrix(T)
        for p in range(B.dim):
            for q in range(B.dim):
                for k in range(A.dim):
                    for l in range(A.dim):
                        lhs = ambient_symbol(T, A.unit, B.mult[p][q],
                                             A.mult[k][l])
                        t1 = ambient_symbol(
                            T, multiply(A, e(A.dim, k), T.eps.columns[p]),
                            e(B.dim, q), e(A.dim, l))
                        t2 = ambient_symbol(
                            T, multiply(A, e(A.dim, l), T.eps.columns[q]),
                            e(B.dim, p), e(A.dim, k))
                        rel = [x - y - z for x, y, z in zip(lhs, t1, t2)]
                        if F_mat.matvec(rel):
                            return {"b_pair": (p, q), "a_pair": (k, l)}

    expect = first_failure()
    assert expect is not None
    assert expect != {"b_pair": (0, 0), "a_pair": (0, 0)}  # passes skipped
    label = "product-rule images land in the squared kernel"
    assert (label, False) in b.report.checks
    assert b.report.witness == {"check": label, **expect}


def test_doctored_multiplication_table_fails(monkeypatch):
    # Corrupt one structure constant after validation; the forward images
    # no longer span the kernel of the doctored multiplication matrix.
    import copy

    from sechom.verify import _Builder, _prop_omega_J

    # T2 keeps the presentations of T, built before the corruption.
    T = shared_triple("dual_dual_x")
    P, K = omega(T), kernel_data(T)
    mutated = copy.deepcopy(T.A.mult)
    mutated[1][1][0] += F(1)  # pretend x * x = 1
    A2 = FinAlgebra(T.A.dim, mutated, T.A.unit, T.A.name)
    T2 = Triple(A2, T.B, T.eps, T.commutative, T.name)
    monkeypatch.setattr(verify, "omega", lambda _: P)
    monkeypatch.setattr(verify, "kernel_data", lambda _: K)
    b = _Builder(T.name, "doctored")
    _prop_omega_J(T2, b)
    assert not b.report.passed
    # The doctored F no longer inverts the transfer permutation on J, so
    # the kernel relations fail to pull back while the classes still do.
    assert b.report.checks == [
        ("forward images lie in the kernel", False),
        ("forward images span the kernel", False),
        ("product-rule images land in the squared kernel", False),
        ("balancing images land in the balancing span", True),
        ("symbol relations map into kernel relations", False),
        ("kernel relations pull back to symbol relations", False),
        ("kernel classes pull back", True),
        ("round trip on the kernel quotient is the identity", True),
        ("round trip on the symbol module is the identity", True),
        ("dimensions agree", True),
    ]
