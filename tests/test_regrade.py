"""Regrading: a triple whose basis hides its grading is rebuilt in the
eigenbasis of one of its derivations, and hh and hc read their
dimensions there.

Every gate compares the regraded route with the input's own basis: the
chain maps as a matrix identity, and the dimensions against the dense
path, which the representatives still take.
"""

from fractions import Fraction

import pytest

from _shared import (cube_over_prod, dual_over_trunc3_x, prod_over_prod_id,
                     rebased, rebased_triple, shared_triple, sqzero_dual_x,
                     trunc3_over_dual_x2)
from sechom import triples
from sechom.chains import boundary, chain_dim, chain_space
from sechom.homology import HomologyResult, _hc_pieces, _hh_pieces, hc, hh
from sechom.linalg import InternalCheckError, SparseMat, to_dense
from sechom.triples import (_derivations, _diagonalizes, _eigenbasis,
                            _inverse, _regrading, _transports, catalog,
                            catalog_names, grading, regrade)

# Sources whose every derivation is 0 (A and B are products of copies of
# Q), so no basis of theirs can be regraded.
RIGID = ["k_k", "prod_k"]


def _others():
    return [trunc3_over_dual_x2(), prod_over_prod_id(), cube_over_prod(),
            dual_over_trunc3_x(), sqzero_dual_x()]


def _regraded_twins():
    """The rebased twins of tests/_shared.py that have a nonzero
    derivation: those of the catalog (mat2_k has none, at dimension 4) and
    of the triples whose B is not Q."""
    twins = [rebased_triple(name) for name in catalog_names()
             if name not in RIGID + ["mat2_k"]]
    return twins + [rebased(T) for T in _others()
                    if T.name not in ("prod_over_prod_id", "cube_over_prod")]


def _tensor_power(T, n: int, gA: list, gB: list) -> SparseMat:
    """G_n: the tensor power of gA on the a-digits and of gB on the
    b-digits of degree n, a matrix from the chains of the regraded triple
    to those of T, both in mixed-radix order."""
    cs = chain_space(T, n)
    cols = [{0: 1}]
    for g in [gA] * (n + 1) + [gB] * len(cs.pairs):
        r = len(g)
        cols = [{i * r + k: x * g[k][j] for i, x in col.items()
                 for k in range(r) if g[k][j]}
                for col in cols for j in range(r)]
    return SparseMat.from_ints(cs.dim, cs.dim, dict(enumerate(cols)))


def test_every_rebased_twin_with_a_derivation_is_regraded():
    twins = _regraded_twins()
    assert len(twins) == 8
    for T in twins:
        R = regrade(T)
        assert grading(T) == [], T.name
        assert R is not None and grading(R), T.name
        assert R is regrade(T) and R.name == T.name
        assert (R.A.dim, R.B.dim, R.commutative) == \
            (T.A.dim, T.B.dim, T.commutative)


def test_triples_with_no_derivation_or_a_grading_are_not_regraded(
        monkeypatch):
    for T in ([catalog(name) for name in RIGID] + [cube_over_prod()]
              + [rebased_triple(name) for name in RIGID]
              + [rebased(T) for T in (prod_over_prod_id(), cube_over_prod())]):
        assert grading(T) == [] and _derivations(T).dim == 0, T.name
        assert regrade(T) is None, T.name
    # A basis that already carries a grading is never searched.
    monkeypatch.setattr(triples, "_derivations", None)
    for name in catalog_names():
        T = catalog(name)
        if grading(T):
            assert regrade(T) is None, name


def test_the_change_of_basis_is_a_chain_isomorphism():
    # G_n carries the chains of the regraded triple R onto those of T, and
    # boundary(T, n) G_n = G_(n-1) boundary(R, n): the identity
    # G^-1 d = d' G^-1 read the other way, with G invertible since g is.
    for T in _regraded_twins():
        R, gA, gB = _regrading(T)
        for n in (1, 2):
            assert boundary(T, n) @ _tensor_power(T, n, gA, gB) == \
                _tensor_power(T, n - 1, gA, gB) @ boundary(R, n), (T.name, n)


def _dense_dims(T, top: int) -> tuple:
    """hh and hc dimensions on T's own basis, the path `hh` and `hc` take
    only when there is no regrading."""
    return ([_hh_pieces(T, n)[1].dim for n in range(top + 1)],
            [_hc_pieces(T, n)[2].dim for n in range(top + 1)])


def test_regraded_dimensions_equal_the_dense_path():
    cases = [(T, 2) for T in _regraded_twins()]
    cases.append((rebased_triple("trunc3_k"), 3))
    for T, top in cases:
        assert regrade(T) is not None
        got = ([hh(T, n).dimension for n in range(top + 1)],
               [hc(T, n).dimension for n in range(top + 1)])
        assert got == _dense_dims(T, top), T.name


def test_representatives_come_from_the_input_basis():
    # Read on first use, on T's own cycles and quotient, whatever the
    # dimension was read on.
    T = rebased_triple("dual_dual_x")
    for n in range(3):
        res = hh(T, n)
        cycles, Q = _hh_pieces(T, n)
        assert res.representatives == [
            to_dense(cycles.row(c), chain_dim(T, n)) for c in Q.nonpivots]
        res = hc(T, n)
        q_n, cycles, Q = _hc_pieces(T, n)
        assert res.representatives == [
            to_dense(q_n.section(cycles.row(c)), chain_dim(T, n))
            for c in Q.nonpivots]


def test_representatives_of_another_count_are_refused():
    res = HomologyResult("T", "hh", 1, 2, lambda: [[Fraction(1)]])
    with pytest.raises(InternalCheckError, match="representatives"):
        res.representatives


def test_a_corrupted_change_of_basis_is_refused():
    T = rebased_triple("trunc3_k")
    R, gA, gB = _regrading(T)
    assert _transports(T, R, gA, gB)
    bad = [row[:] for row in gA]
    bad[0][1] += 1  # still invertible, no longer the eigenbasis R was built on
    assert _inverse(bad) is not None
    assert not _transports(T, R, bad, gB)
    K = _derivations(T)
    d = T.A.dim
    for row in K._int_rows:
        D = [[row.get(m * d + l, 0) for l in range(d)] for m in range(d)]
        found = _eigenbasis(D)
        if found:
            g, lams = found
            assert _diagonalizes(D, g, lams)
            assert not _diagonalizes(D, [[x + (i == 0) for x in r]
                                         for i, r in enumerate(g)], lams)
    assert _inverse([[1, 2], [2, 4]]) is None


def test_a_non_diagonalizable_derivation_is_refused():
    # x^2 d/dx on Q[x]/x^3 sends x to x^2 and x^2 to 2 x^3 = 0: a nilpotent
    # derivation of trunc3_k, whose only eigenvalue 0 has a kernel of
    # dimension 2.
    T = shared_triple("trunc3_k")
    D = [[0, 0, 0], [0, 0, 0], [0, 1, 0]]
    assert _derivations(T).contains({2 * 3 + 1: 1})
    assert _eigenbasis(D) is None
    # x d/dx has eigenvalues 0, 1, 2 on 1, x, x^2.
    assert _eigenbasis([[0, 0, 0], [0, 1, 0], [0, 0, 2]]) == \
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 1, 2])
    # A rotation has no real eigenvalue.
    assert _eigenbasis([[0, -1], [1, 0]]) is None
