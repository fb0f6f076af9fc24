"""The degree-one layer built once per triple, in integers.

`omega`, `kernel_data`, `forward_matrix`, `multiplication_matrix` and
`connes_b_chain` are built from the triple's integer tables
(`triples._tables`), and `transfer_matrices` from integer ones; each must
equal its Fraction-built reference in `_shared` in canonical form, and
Prop4's pullback along the transfer permutation must give what the
`solve`-based body it replaced gave.  The Prop3 and Prop4 bodies run
once per triple and are replayed into every report that needs them, and
the B = Q reduction runs on its input triple when that triple's B is Q
itself.
"""

import hashlib

from _shared import (ALL_NAMES, COMMUTATIVE_NAMES, rebased_triple,
                     reference_connes_b_chain, reference_forward_matrix,
                     reference_kernel_data, reference_multiplication_matrix,
                     reference_omega_relations, reference_prop_omega_J,
                     reference_transfer_matrices, rescaled_triple,
                     shared_triple)
from sechom import cli, triples, verify
from sechom.differentials import omega
from sechom.homology import _hc_pieces, _hh_pieces
from sechom.kernel import KernelData, kernel_data, multiplication_matrix
from sechom.specfile import export_triple
from sechom.triples import catalog
from sechom.verify import (_Builder, _prop_hh1_omega, _prop_omega_J,
                           connes_b_chain, forward_matrix, transfer_matrices,
                           verify_main,
                           verify_prop_hh1_omega, verify_prop_omega_J,
                           verify_reduction_Bk)

REBASED_NAMES = ["dual_dual_zero", "dual_dual_x", "dual_over_dual_id",
                 "trunc3_k"]


def _gate_triples():
    return ([shared_triple(name) for name in COMMUTATIVE_NAMES]
            + [rescaled_triple(name) for name in ("dual_dual_x", "trunc3_k")]
            + [rebased_triple(name) for name in REBASED_NAMES])


# -- the equality gate -----------------------------------------------------

def test_integer_builds_equal_the_fraction_references():
    for T in _gate_triples():
        assert omega(T).relations == reference_omega_relations(T), T.name
        assert forward_matrix(T) == reference_forward_matrix(T), T.name
        assert multiplication_matrix(T) == \
            reference_multiplication_matrix(T), T.name
        K, refs = kernel_data(T), reference_kernel_data(T)
        assert K.quotient.relations == refs.pop("relations_in_J"), T.name
        for field, ref in refs.items():
            assert getattr(K, field) == ref, (T.name, field)


def test_noncommutative_matrices_equal_the_fraction_references():
    # Neither matrix needs A commutative: eps is central, so the sandwich
    # e_i eps(f_k) e_j of the tables is e_i e_j eps(f_k).
    T = shared_triple("mat2_k")
    assert forward_matrix(T) == reference_forward_matrix(T)
    assert multiplication_matrix(T) == reference_multiplication_matrix(T)


def test_chain_maps_equal_the_fraction_references():
    # Connes' map from A and the transfer permutations need no commutative
    # A, so every catalog triple and each rescaled and rebased twin is
    # gated, the stored denominators and numerators included.
    triples_ = ([shared_triple(name) for name in ALL_NAMES]
                + [rescaled_triple(name) for name in ALL_NAMES]
                + [rebased_triple(name) for name in ALL_NAMES
                   if name != "mat2_k"])
    dens = set()
    for T in triples_:
        got = connes_b_chain(T)
        assert got == reference_connes_b_chain(T), T.name
        assert transfer_matrices(T) == reference_transfer_matrices(T), T.name
        dens.add(got.den)
    assert dens - {1}, "no gated map has a denominator other than 1"


def test_prop4_pullback_equals_the_solve_reference():
    # The transfer permutation pulls the kernel back where `solve` did: on
    # every commutative catalog triple and each rescaled and rebased twin,
    # f_bar, g_bar, every check with its verdict and witness, and the dims
    # equal those of the solve-based body.
    for T in ([shared_triple(name) for name in COMMUTATIVE_NAMES]
              + [rescaled_triple(name) for name in COMMUTATIVE_NAMES]
              + [rebased_triple(name) for name in COMMUTATIVE_NAMES]):
        got, ref = _Builder(T.name, "Prop4"), _Builder(T.name, "Prop4")
        f_bar, g_bar = _prop_omega_J(T, got)
        assert g_bar is not None, T.name
        assert (f_bar, g_bar) == reference_prop_omega_J(T, ref), T.name
        assert got.log == ref.log, T.name
        assert got.report.dims == ref.report.dims, T.name


# -- frozen outputs on spec files ------------------------------------------

# sha256 of `verify --theorem all --format machine` and `compute --flavor
# omega|kernel --format machine` on each triple written to a spec file by
# export_triple, frozen from the Fraction-built degree-one layer.  Every
# report passes, so each witness is null.
SPEC_FILE_HASHES = {
    ("dual_dual_x_rescaled", "verify"): "b306bb4fb275ac9a6683b569a1ff7a0f35d9f18aa06989f8dcaf45e0b810d140",
    ("dual_dual_x_rescaled", "omega"): "4b047e1696ea9c9066549e991832b4935d2eb0b70dc3f7fd8029267a367d24d0",
    ("dual_dual_x_rescaled", "kernel"): "05b3410190c5a1ca61cafefa79e0ec10d7fef22bf456a3b6ab9896740c47938c",
    ("trunc3_k_rescaled", "verify"): "41669b503beeffc7a4c015427828edfd55fa5adde269679ed0a8bc6b4d6bf368",
    ("trunc3_k_rescaled", "omega"): "7ddb5b361a6b9069123e127e3487a32ee90c27a2e36a95d8a67266770a7d8435",
    ("trunc3_k_rescaled", "kernel"): "a0205bc7d9814783565534cf314410c324d0759c59269a0ee0bdbd1da7d668f5",
    ("dual_dual_zero_rebased", "verify"): "d25e51c5a5bcff365f298cf41903abf42b4710886d80241fac85b3ccb84faca3",
    ("dual_dual_zero_rebased", "omega"): "f7c0dab19347b84dfb2e37c4638cc036221f9533e21644eaf01333e488a7e863",
    ("dual_dual_zero_rebased", "kernel"): "ace6f840bfd34c6d5c41ced9b838bea106359c595b3fb4f632477871f59dd914",
    ("dual_dual_x_rebased", "verify"): "edce66269f6b7317711396dfa8859342d68d1eaf4331f5c4504f52cc297379cc",
    ("dual_dual_x_rebased", "omega"): "c6a7cd0eb6cecf3e67e55195e42ec2cbb34a25d9fcf51d852786fa745fc97ba0",
    ("dual_dual_x_rebased", "kernel"): "48ff60cca7352dab281c370e43b1c802745c524d4c3d53a1b9d42ac33afd8c2a",
    ("dual_over_dual_id_rebased", "verify"): "606ee5d519ef110e2d2558eaf07a939b8838b680db021f000038674274fe3670",
    ("dual_over_dual_id_rebased", "omega"): "12e03c7c4da7e56c19b1174185dd1d3665636d9edd443c4c631b9af440518fd4",
    ("dual_over_dual_id_rebased", "kernel"): "fd010cf91cb60b20d1ffebc36800d9927723008e0008b100dce654c6df7c8b64",
    ("trunc3_k_rebased", "verify"): "3b0623316cbcb84c4e95ae555ac7026809290da915cd885949296def4480fe3f",
    ("trunc3_k_rebased", "omega"): "839f9346a1e7eb24e24a8f709dfe1685e89de5cd7aa5c103a8bb2df321ad84da",
    ("trunc3_k_rebased", "kernel"): "1955ab319c7bb50b9bfc099f17e5c3dcae922ed4983f3faf60f4c12ace54ed94",
}


def test_spec_file_outputs_are_frozen(capsys, tmp_path):
    triples_ = ([rescaled_triple(name) for name in ("dual_dual_x", "trunc3_k")]
                + [rebased_triple(name) for name in REBASED_NAMES])
    assert {T.name for T in triples_} == {name for name, _ in SPEC_FILE_HASHES}
    for T in triples_:
        path = tmp_path / f"{T.name}.triple"
        path.write_text(export_triple(T), encoding="utf-8")
        for what in ("verify", "omega", "kernel"):
            argv = (["verify", str(path), "--theorem", "all"]
                    if what == "verify" else
                    ["compute", str(path), "--flavor", what])
            code = cli.main(argv + ["--format", "machine"])
            out = capsys.readouterr().out
            assert code == 0, (T.name, what)
            assert hashlib.sha256(out.encode()).hexdigest() == \
                SPEC_FILE_HASHES[(T.name, what)], (T.name, what)
    # The B = Q reduction in `verify` reads hh and hc of trunc3_k_rebased
    # on its regrading; the triple's own basis gives the same dimensions.
    T = triples_[-1]
    assert T.name == "trunc3_k_rebased" and triples.regrade(T) is not None
    dims = verify_reduction_Bk(T).dims
    assert [dims[f"hh{n}"] for n in range(4)] == \
        [_hh_pieces(T, n)[1].dim for n in range(4)]
    assert [dims[f"hc{n}"] for n in range(4)] == \
        [_hc_pieces(T, n)[2].dim for n in range(4)]


# -- one build per triple --------------------------------------------------

def _counting(monkeypatch, owner, attr: str) -> list:
    """Replace owner.attr by a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def test_each_comparison_body_runs_once_per_battery(monkeypatch):
    for name in ("dual_dual_x", "trunc3_k"):
        hh1 = _counting(monkeypatch, verify, "_prop_hh1_omega")
        kern = _counting(monkeypatch, verify, "_prop_omega_J")
        reports, _ = cli._battery(catalog(name))
        assert [r.theorem for r in reports][:4] == \
            ["Prop3", "Cor3", "Prop4", "Thm_main"]
        assert all(r.passed for r in reports), name
        assert (len(hh1), len(kern)) == (1, 1), name
        monkeypatch.undo()


def test_replayed_reports_equal_the_bodies_run_afresh():
    for T in _gate_triples():
        for run, theorem, bodies in (
                (verify_prop_hh1_omega, "Prop3", [_prop_hh1_omega]),
                (verify_prop_omega_J, "Prop4", [_prop_omega_J]),
                (verify_main, "Thm_main", [_prop_hh1_omega, _prop_omega_J])):
            b = _Builder(T.name, theorem)
            for body in bodies:
                body(T, b)
            got = run(T)
            # Thm_main adds its composite checks after the replayed ones.
            assert got.checks[:len(b.report.checks)] == b.report.checks
            assert (got.dims, got.witness) == \
                (b.report.dims, b.report.witness), (T.name, theorem)


def test_verify_all_on_a_ground_field_triple_builds_one_triple(
        monkeypatch, capsys):
    made = _counting(monkeypatch, triples, "make_triple")
    monkeypatch.setattr(verify, "make_triple", triples.make_triple)
    code = cli.main(["verify", "--catalog", "trunc3_k", "--theorem", "all",
                     "--format", "machine"])
    assert code == 0
    assert len(made) == 1
    assert '"Q[x]/x^3_over_k"' in capsys.readouterr().out


def test_a_rescaled_ground_field_still_gets_its_twin(monkeypatch):
    # Its B is one-dimensional but its tables are not Q's (f_0 = 2/3 * 1).
    T = rescaled_triple("trunc3_k")
    assert T.B.dim == 1 and T.B.mult != [[[1]]]
    made = _counting(monkeypatch, verify, "make_triple")
    rep = verify_reduction_Bk(T)
    assert rep.passed, rep.witness
    assert len(made) == 1
    assert rep.triple_name == "Q[x]/x^3_over_k"
    assert rep.dims == verify_reduction_Bk(T.A).dims


def test_a_failing_outcome_replays_its_first_witness(monkeypatch):
    # The raw balancing span as the kernel denominator fails Prop4 on
    # dual_dual_zero (see test_verify); Prop4 and Thm_main must both carry
    # the witness a fresh run of the body records.
    from sechom.linalg import QuotientStructure, Subspace

    T = catalog("dual_dual_zero")
    K = kernel_data(T)
    raw_in_J = Subspace(K.J.dim,
                        [K.J.coords_of(row) for row in K.span_relations.rows])
    K2 = KernelData(K.m_matrix, K.J, K.j_squared, K.j_hat, K.j_hat_closed,
                    K.span_relations, K.span_relations,
                    QuotientStructure(K.J.dim, raw_in_J), K.readings_agree)
    monkeypatch.setattr(verify, "kernel_data", lambda _: K2)
    b = _Builder(T.name, "Prop4")
    _prop_omega_J(T, b)
    assert not b.report.passed
    for rep in (verify_prop_omega_J(T), verify_main(T)):
        assert not rep.passed
        assert rep.witness == b.report.witness
    assert verify_prop_omega_J(T).checks == b.report.checks
