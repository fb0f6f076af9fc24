"""Homology of the main complex and of its cyclic coinvariants.

Dimensions for triples over the ground field are checked against the
classical reference path; the genuinely two-variable triples are frozen
from hand-audited runs and re-ranked densely as a second route.
"""

from collections import Counter
from fractions import Fraction

import pytest

from _shared import (ALL_NAMES, commutator_subspace, cube_over_prod,
                     dense_rank_of_sparse, dual_over_trunc3_x,
                     peel_sweeps, prod_over_prod_id, quotient_of_columns,
                     rebased_triple, reference_quotient_of_complex,
                     relation_span_inputs, rescaled_triple, shared_triple,
                     sqzero_dual_x, trunc3_over_dual_x2)
from sechom import chains, homology, verify
from sechom.chains import boundary, chain_dim, cyclic_quotient
from sechom.homology import (DegreeCapError, _hc_pieces, _hh_pieces, hc,
                             hh)
from sechom.linalg import InternalCheckError, SparseMat, Subspace
from sechom.specfile import triple_hash
from sechom.triples import catalog, recall, regrade
from sechom.oracles import classical_hc_dims, classical_hh_dims
from sechom.verify import (verify_connes_segment, verify_cor_hc1, verify_main,
                           verify_prop_hh1_omega, verify_prop_omega_J,
                           verify_reduction_Bk)

F = Fraction

GROUND_FIELD_NAMES = ["k_k", "dual_k", "prod_k", "trunc3_k", "mat2_k"]
# The catalog's dual_over_dual_id is dual_dual_x under another name (same
# triple_hash), so it is not run a second time.
TWO_VARIABLE_NAMES = ["dual_dual_zero", "dual_dual_x"]

# Frozen engine output for the two-variable triples (degrees 0..2).  Both
# share the same underlying dimensions even though the coefficient maps
# differ.
TWO_VARIABLE_HH = [2, 1, 1]
TWO_VARIABLE_HC = [2, 0, 2]


# -- dimensions ------------------------------------------------------------

def test_ground_field_homology_matches_classical_reference():
    for name in GROUND_FIELD_NAMES:
        T = shared_triple(name)
        got_hh = [hh(T, n).dimension for n in range(4)]
        got_hc = [hc(T, n).dimension for n in range(4)]
        assert got_hh == classical_hh_dims(T.A, 3)
        assert got_hc == classical_hc_dims(T.A, 3)


def test_cyclic_homology_matches_classical_reference_at_benchmark_degrees():
    # The degrees that the hc-cyclic benchmark serves past the default
    # cap, all under the oracle's cap of 5,000 coordinates.
    for name, top in (("trunc3_k", 5), ("dual_k", 5), ("mat2_k", 4)):
        T = shared_triple(name)
        got = [hc(T, n, max_degree=top).dimension for n in range(top + 1)]
        assert got == classical_hc_dims(T.A, top), name


def test_two_variable_homology_dimensions():
    assert (triple_hash(shared_triple("dual_over_dual_id"))
            == triple_hash(shared_triple("dual_dual_x")))
    for name in TWO_VARIABLE_NAMES:
        T = shared_triple(name)
        assert [hh(T, n).dimension for n in range(3)] == TWO_VARIABLE_HH
        assert [hc(T, n).dimension for n in range(3)] == TWO_VARIABLE_HC


def test_two_variable_degree_three_spot_check():
    # One deep probe past the cheap range; this is the most expensive
    # computation in the suite.
    T = shared_triple("dual_dual_x")
    assert hh(T, 3).dimension == 1
    assert hc(T, 3).dimension == 0


def test_homology_over_any_b_matches_the_classical_homology_of_a():
    # An observed conjecture, not a theorem: on every triple tried so far
    # the unit inclusion C(A) -> C(A, B, eps) induced an isomorphism, so
    # the classical dense oracles of A predict the engine's dimensions for
    # B other than Q.  Nothing the engine reports rests on it.  A failure
    # is either an engine bug or a counterexample to the conjecture.
    cases = ([(shared_triple(n), 3) for n in ("dual_dual_zero", "dual_dual_x")]
             + [(twin(n), 2) for twin in (rescaled_triple, rebased_triple)
                for n in ("dual_dual_zero", "dual_dual_x")]
             + [(trunc3_over_dual_x2(), 2), (prod_over_prod_id(), 3),
                (sqzero_dual_x(), 2), (cube_over_prod(), 3),
                (dual_over_trunc3_x(), 2)])
    # The rebased twins' hh and hc read their dimensions on the regraded
    # triple; the input's own basis, through the pieces the
    # representatives come from, must give them too.
    for T, top in cases:
        assert T.B.dim > 1, T.name
        want_hh = classical_hh_dims(T.A, top)
        want_hc = classical_hc_dims(T.A, top)
        assert [hh(T, n).dimension for n in range(top + 1)] == want_hh, T.name
        assert [hc(T, n).dimension for n in range(top + 1)] == want_hc, T.name
        assert (regrade(T) is not None) == T.name.endswith("_rebased")
        if regrade(T) is not None:
            assert [_hh_pieces(T, n)[1].dim for n in range(top + 1)] == \
                want_hh, T.name
            assert [_hc_pieces(T, n)[2].dim for n in range(top + 1)] == \
                want_hc, T.name


def test_degree_zero_is_the_abelianization():
    for name in ALL_NAMES:
        T = shared_triple(name)
        expect = T.A.dim - commutator_subspace(T.A).dim
        assert hh(T, 0).dimension == expect
        assert hc(T, 0).dimension == expect
    assert hh(shared_triple("mat2_k"), 0).dimension == 1


def test_dense_rank_route_agrees():
    # Independent elimination over the same boundary matrices.
    for name in TWO_VARIABLE_NAMES + ["trunc3_k"]:
        T = shared_triple(name)
        ranks = [0] + [dense_rank_of_sparse(boundary(T, k)) for k in (1, 2, 3)]
        for n in (1, 2):
            expect = chain_dim(T, n) - ranks[n] - ranks[n + 1]
            assert hh(T, n).dimension == expect


# -- representatives -------------------------------------------------------

def test_representatives_are_cycles():
    for name, n in [("dual_k", 1), ("trunc3_k", 2), ("dual_dual_x", 1),
                    ("dual_dual_x", 2)]:
        T = shared_triple(name)
        res = hh(T, n)
        assert len(res.representatives) == res.dimension
        d = boundary(T, n)
        for rep in res.representatives:
            assert not d.matvec(rep)


def test_representatives_are_independent_modulo_boundaries():
    for name, n in [("dual_k", 1), ("dual_dual_x", 2)]:
        T = shared_triple(name)
        res = hh(T, n)
        nxt = boundary(T, n + 1)
        bdry = Subspace(chain_dim(T, n),
                        [nxt.column(c) for c in range(nxt.ncols)])
        grown = Subspace(chain_dim(T, n),
                         list(bdry.rows) + res.representatives)
        assert grown.dim == bdry.dim + res.dimension


def test_cyclic_representatives_live_in_the_chain_space():
    T = shared_triple("dual_k")
    res = hc(T, 2)
    assert res.dimension == 2
    for rep in res.representatives:
        assert len(rep) == chain_dim(T, 2)


def test_hc_sweep_builds_each_induced_boundary_once(monkeypatch):
    # hc(T, n) needs the induced boundaries of degrees n and n + 1.  Swept
    # from the top down, as `compute` sweeps, it streams degree 7 and
    # builds degrees 1..6 whole, each from its face plans once.  Swept
    # upwards, it streams each degree n + 1 before it builds it whole for
    # hc(T, n + 1), so each degree's face plans are built at most twice.
    built = Counter()
    real = chains._face_plans

    def counted(T, n, *args):
        built[n] += 1
        return real(T, n, *args)

    monkeypatch.setattr(chains, "_face_plans", counted)
    T = catalog("trunc3_k")
    for n in range(6, -1, -1):
        hc(T, n, max_degree=6)
    assert built == Counter(range(1, 8))
    built.clear()
    T = catalog("trunc3_k")
    for n in range(7):
        hc(T, n, max_degree=6)
    assert set(built) == set(range(1, 8)) and max(built.values()) == 2


# -- weight blocks ---------------------------------------------------------

def _assert_blocks_match_single_span(T, flavor, degrees):
    for n in degrees:
        cycles, cols, weights = relation_span_inputs(T, flavor, n)
        Q = quotient_of_columns(cycles, cols, weights)
        ref = reference_quotient_of_complex(cycles, cols)
        assert Q.relations == ref.relations, (T.name, flavor, n)
        assert Q.nonpivots == ref.nonpivots


def test_weight_blocks_match_the_single_span():
    # The relations in canonical form, block by block and with stalled
    # blocks tested by their projection, against one plain span over
    # every weight: graded catalog triples, rescaled ones (graded,
    # fractional constants) and rebased ones (one block of weight 0).
    for name in ALL_NAMES:
        T = shared_triple(name)
        for flavor in ("hh", "hc"):
            _assert_blocks_match_single_span(T, flavor, range(4))
    _assert_blocks_match_single_span(shared_triple("trunc3_k"), "hc",
                                     range(4, 7))
    _assert_blocks_match_single_span(shared_triple("mat2_k"), "hc", [4])
    for T, top in ((rescaled_triple("dual_dual_x"), 3),
                   (rescaled_triple("trunc3_k"), 3),
                   (rebased_triple("dual_dual_zero"), 2),
                   (rebased_triple("dual_dual_x"), 2),
                   (rebased_triple("dual_over_dual_id"), 2),
                   (rebased_triple("trunc3_k"), 3)):
        for flavor in ("hh", "hc"):
            _assert_blocks_match_single_span(T, flavor, range(top + 1))


def test_weight_blocks_stop_feeding_columns_once_spanned(monkeypatch):
    # hh(dual_dual_x, 3) with one span fed 15,976 boundary columns to
    # `add` at degree 3 alone, because HH_3 = 1 kept it from filling up.
    calls = []
    real = Subspace.add
    monkeypatch.setattr(Subspace, "add",
                        lambda self, v: calls.append(1) or real(self, v))
    assert hh(catalog("dual_dual_x"), 3).dimension == 1
    assert len(calls) <= 6000


def test_streamed_and_memo_fed_quotients_match_the_single_span(monkeypatch):
    # hh reads the next boundary from the memo when it is there, and
    # otherwise streams it by weight block without memoizing it.  Both
    # give the relations of one plain span over every column: the
    # catalog, the triples whose B is not the ground field, and a rebased
    # triple (one block).
    streamed = []
    real = homology.boundary_blocks
    monkeypatch.setattr(homology, "boundary_blocks", lambda T, k: (
        streamed.append(k), real(T, k))[1])
    inputs = [(lambda name=name: catalog(name), range(4))
              for name in ALL_NAMES]
    inputs += [(make, range(3)) for make in (
        trunc3_over_dual_x2, prod_over_prod_id, cube_over_prod,
        dual_over_trunc3_x, sqzero_dual_x)]
    inputs.append((lambda: rebased_triple("dual_dual_zero"), range(3)))
    for make, degrees in inputs:
        T = make()
        for n in degrees:
            cycles, cols, weights = relation_span_inputs(make(), "hh", n)
            ref = reference_quotient_of_complex(cycles, cols).relations
            del streamed[:]
            assert recall(T, boundary, n + 1) is None
            assert _hh_pieces(T, n)[1].relations == ref, (T.name, n)
            assert streamed == [n + 1]
            assert recall(T, boundary, n + 1) is None
            boundary(T, n + 1)
            assert _hh_pieces(T, n)[1].relations == ref, (T.name, n)
            assert streamed == [n + 1]


def test_a_full_block_reads_no_further_column(monkeypatch):
    # Three live cycles of one weight, no unit and nothing to peel: the
    # first three columns span them, and the block reads none of the
    # forty after them (a span that read on would reject them, and at its
    # stall build a projection onto no coordinate).
    read = []

    class Logged(dict):
        def items(self):
            read.append(self.number)
            return super().items()

    cycles = Subspace(3, [{0: 1}, {1: 1}, {2: 1}])
    cols = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}]
    cols += [{0: k, 1: 1} for k in range(2, 42)]
    logged = {}
    for c, col in enumerate(cols):
        logged[c] = Logged(col)
        logged[c].number = c
    Q = homology._quotient_of_complex(cycles, [(0, set(), logged)],
                                      [0] * 3)
    assert Q.dim == 0 and read == [0, 1, 2]


def test_stalled_span_tests_columns_by_projection(monkeypatch):
    # Rebased dual_dual_x is one block, and its degree-2 span stops growing
    # after a few hundred of its 1,024 boundary columns; a plain span
    # reduces every one of them in `add`.
    T = rebased_triple("dual_dual_x")
    cycles, cols, weights = relation_span_inputs(T, "hh", 2)
    assert len(cols) == 1024
    calls = []
    real = Subspace.add
    monkeypatch.setattr(Subspace, "add",
                        lambda self, v: calls.append(1) or real(self, v))
    Q = quotient_of_columns(cycles, cols, weights)
    monkeypatch.undo()
    assert len(calls) < 1024
    assert Q.relations == reference_quotient_of_complex(cycles, cols).relations


def test_one_entry_columns_give_unit_relations_without_elimination(
        monkeypatch):
    # hh(dual_dual_x, 3): 8,878 of the 15,976 boundary columns have one
    # entry, at 523 distinct cycle pivots.  Each of those gives its unit
    # relation row with no `add`, and so does each coordinate the peel
    # settles after them: with the units, 921 of the 968 cycle
    # coordinates, leaving 47 live.  The weight blocks' spans hold the
    # other 46 relations, and the rest match one plain span.  On
    # dual_dual_zero the units and the peel give 833 of 967 relations.
    for name, settles, blocks in (("dual_dual_x", 921, 46),
                                  ("dual_dual_zero", 833, 134)):
        cycles, cols, weights = relation_span_inputs(shared_triple(name),
                                                     "hh", 3)
        pos = cycles._pivot_pos
        units = {pos[min(col)] for col in cols if len(col) == 1}
        settled = {pos[p] for p in peel_sweeps(cycles, cols)[0]}
        if name == "dual_dual_x":
            assert len(cols) == 15976 and len(units) == 523
            assert sum(len(col) == 1 for col in cols) == 8878
            assert cycles.dim - len(settled) == 47
        assert units < settled and len(settled) == settles
        spans = []
        real = Subspace.__init__
        monkeypatch.setattr(Subspace, "__init__", lambda self, *args: (
            spans.append(self), real(self, *args))[1])
        Q = quotient_of_columns(cycles, cols, weights)
        monkeypatch.undo()
        R = Q.relations
        assert Q.dim == 1
        assert sum(S.dim for S in spans) == R.dim - len(settled) == blocks
        assert all(R._int_rows[R._pivot_pos[k]] == {k: 1} for k in settled)
        assert R == reference_quotient_of_complex(cycles, cols).relations


def test_a_column_with_255_live_coordinates_is_left_out_of_the_peel():
    # Every chain index a cycle, one weight.  Units settle 0..99, and the
    # chain {i, i + 1} peels 100..599 one after the other.  The long
    # column holds 0..600, too many live coordinates for its count byte,
    # so the peel leaves it alone and its block strips it down to e_600.
    amb = 601
    cycles = Subspace(amb, [{i: 1} for i in range(amb)])
    cols = [{i: 1} for i in range(100)]
    cols += [{i: 1, i + 1: -1} for i in range(99, 599)]
    cols.append({i: 1 for i in range(amb)})
    Q = quotient_of_columns(cycles, cols, [0] * amb)
    assert Q.dim == 0
    assert Q.relations == reference_quotient_of_complex(cycles,
                                                        cols).relations
    cols[-1] = {i: 1 for i in range(amb - 1)}  # now e_600 is a class
    Q = quotient_of_columns(cycles, cols, [0] * amb)
    assert Q.dim == 1 and Q.nonpivots == [600]


def test_one_entry_column_off_the_cycle_pivots_is_a_hard_error():
    # A one-entry boundary column is a boundary, hence a cycle basis row
    # e_r.  At an index that is no cycle pivot, or at a pivot whose row
    # has other entries, d squared is not zero or the cycles are wrong.
    cycles, cols, weights = relation_span_inputs(shared_triple("dual_dual_x"),
                                                 "hh", 2)
    off = next(r for r in range(cycles.ambient_dim)
               if r not in cycles._pivot_pos)
    longer = next(p for p, row in zip(cycles.pivots, cycles._int_rows)
                  if len(row) > 1)
    quotient_of_columns(cycles, cols, weights)
    for r in (off, longer):
        with pytest.raises(InternalCheckError, match="one-entry"):
            quotient_of_columns(cycles, cols + [{r: 1}], weights)


def test_a_wrong_grading_is_a_hard_error_never_a_wrong_dimension(monkeypatch):
    # Gradings that break eps or a product: every degree either raises or
    # gives the true dimension, and hh in degree 2 raises.  A coarser
    # grading than the detected one is still a grading, with the same
    # dimensions.
    for name, rows in (("dual_dual_x", [(0, 1, 0, 0)]),
                       ("trunc3_k", [(0, 1, 1, 0)]),
                       ("mat2_k", [(0, 1, 1, 0, 0)]),
                       ("dual_dual_zero", [(0, 1, 0, 0)])):
        monkeypatch.setattr(chains, "grading", lambda T, rows=rows: rows)
        T = catalog(name)
        for n in range(4):
            for fn in (hh, hc):
                want = fn(shared_triple(name), n).dimension
                try:
                    assert fn(T, n).dimension == want
                except InternalCheckError as exc:
                    assert "not homogeneous" in str(exc)
                    assert name != "dual_dual_zero"
        if name != "dual_dual_zero":
            with pytest.raises(InternalCheckError, match="not homogeneous"):
                hh(catalog(name), 2)
        monkeypatch.undo()
    # A one-entry column off its block's weight, at a cycle pivot whose
    # row is e_r: its unit relation would land in the wrong block.
    cycles, cols, weights = relation_span_inputs(shared_triple("dual_dual_x"),
                                                 "hh", 2)
    r = next(min(col) for col in cols if len(col) == 1)
    homology._quotient_of_complex(cycles, [(weights[r], {r}, {})], weights)
    with pytest.raises(InternalCheckError, match="not homogeneous"):
        homology._quotient_of_complex(
            cycles, [(weights[r] + 1, {r}, {})], weights)


# -- guard rails -----------------------------------------------------------

def test_nonzero_square_is_a_hard_error_in_both_flavors(monkeypatch):
    def ones(nrows, ncols):
        return SparseMat(nrows, ncols, {c: {r: F(1) for r in range(nrows)}
                                        for c in range(ncols)})

    T = catalog("dual_k")
    monkeypatch.setattr(homology, "boundary", lambda T, k: ones(
        chain_dim(T, k - 1), chain_dim(T, k)))
    monkeypatch.setattr(homology, "boundary_blocks", lambda T, k: iter(
        [(0, set(), ones(chain_dim(T, k - 1), chain_dim(T, k)).num)]))
    with pytest.raises(InternalCheckError, match="^boundary squared"):
        hh(T, 1)
    monkeypatch.setattr(homology, "_induced_boundary", lambda T, k: ones(
        cyclic_quotient(T, k - 1).dim, cyclic_quotient(T, k).dim))
    with pytest.raises(InternalCheckError, match="^induced boundary squared"):
        hc(T, 1)


def test_a_one_entry_column_off_the_kernel_is_a_nonzero_square(monkeypatch):
    # A one-entry column x e_r is tested in closed form: d kills it
    # exactly when column r of d is zero.  At an r where it is not, the
    # square is nonzero, whatever the rest of the block holds.
    T = catalog("dual_dual_x")
    r = min(boundary(T, 2).num)
    real = homology.boundary_blocks
    monkeypatch.setattr(homology, "boundary_blocks", lambda T, k: (
        (w, units | {r}, cols) for w, units, cols in real(T, k)))
    with pytest.raises(InternalCheckError, match="^boundary squared"):
        hh(T, 2)
    monkeypatch.undo()
    assert hh(catalog("dual_dual_x"), 2).dimension == TWO_VARIABLE_HH[2]


def test_degree_cap_mentions_the_override():
    T = shared_triple("dual_k")
    with pytest.raises(DegreeCapError) as exc:
        hh(T, 4)
    msg = str(exc.value)
    assert "max_degree" in msg and "override" in msg
    assert hh(T, 4, max_degree=4).dimension == 1
    with pytest.raises(ValueError):
        hh(T, -1)
    with pytest.raises(DegreeCapError):
        hc(T, 5)


def test_rescaled_triples_match_their_catalog_twins():
    # Fractional structure constants: a change of basis must change no
    # dimension and no verdict.
    for name in ("dual_dual_x", "trunc3_k"):
        R, T = rescaled_triple(name), shared_triple(name)
        for n in range(4):
            assert hh(R, n).dimension == hh(T, n).dimension
            assert hc(R, n).dimension == hc(T, n).dimension
        runs = [verify_prop_hh1_omega, verify_cor_hc1, verify_prop_omega_J,
                verify_main]
        if T.B.dim == 1:
            runs.append(lambda X: verify_reduction_Bk(X.A))
        for run in runs:
            got, want = run(R), run(T)
            assert got.passed and want.passed
            assert (got.dims, got.checks) == (want.dims, want.checks)


def test_result_string_names_flavor_and_degree():
    s = str(hh(shared_triple("dual_k"), 1))
    assert "HH_1" in s and "dual_k" in s and "dimension 1" in s


# -- the degree-one connecting segment -------------------------------------

SEGMENT_CHECKS = ["induced map to cyclic homology is onto",
                  "its kernel is exactly the image of A"]


def _segment_numbers(T):
    rep = verify_connes_segment(T)
    assert rep.theorem == "Segment" and rep.triple_name == T.name
    assert [label for label, _ in rep.checks] == SEGMENT_CHECKS, T.name
    d = rep.dims
    return d["hh1"], d["hc1"], d["image_rank"], rep.passed


def test_connecting_segment_is_exact_across_catalog():
    # The rescaled and rebased twins are isomorphic to their catalog
    # triples, so the segment has the same numbers and verdict on them.
    for name in ALL_NAMES:
        T = shared_triple(name)
        want = _segment_numbers(T)
        rep = verify_connes_segment(T)
        assert rep.passed, f"{name}: {rep}"
        assert all(ok for _, ok in rep.checks) and rep.witness is None
        assert _segment_numbers(rescaled_triple(name)) == want, name
        if name != "mat2_k":
            assert _segment_numbers(rebased_triple(name)) == want, name


def test_connecting_segment_numbers_for_dual_numbers():
    rep = verify_connes_segment(shared_triple("dual_k"))
    assert (rep.dims["hh1"], rep.dims["hc1"], rep.dims["image_rank"]) == \
        (1, 0, 0)
    assert rep.checks == [(label, True) for label in SEGMENT_CHECKS]
    assert rep.witness is None
    assert str(rep) == "[pass] Segment on dual_k (hh1=1, hc1=0, image_rank=0)"


def test_connecting_segment_over_b_other_than_q():
    cases = {trunc3_over_dual_x2: (2, 0, 0), prod_over_prod_id: (0, 0, 0),
             sqzero_dual_x: (3, 1, 1)}
    for build, (hh1, hc1, image_rank) in cases.items():
        T = build()
        assert _segment_numbers(T) == (hh1, hc1, image_rank, True), T.name


def test_connecting_segment_fails_when_a_maps_to_zero(monkeypatch):
    # On dual_k the image of A is all of degree-one homology, the kernel of
    # the map to cyclic homology; a zero map from A leaves that kernel
    # unmatched, and the report says so with both dimensions.
    T = shared_triple("dual_k")
    zero = SparseMat.zeros(chain_dim(T, 1), T.A.dim)
    monkeypatch.setattr(verify, "connes_b_chain", lambda _: zero)
    rep = verify_connes_segment(T)
    assert not rep.passed
    assert rep.checks == [(SEGMENT_CHECKS[0], True), (SEGMENT_CHECKS[1], False)]
    assert rep.witness == {"check": SEGMENT_CHECKS[1], "kernel_dim": 1,
                           "image_of_A_dim": 0}
    assert rep.dims == {"hh1": 1, "hc1": 0, "image_rank": 0}
