"""Triple assembly: axiom checks, witnesses, and the built-in catalog."""

from fractions import Fraction

import pytest

from _shared import (ALL_NAMES, COMMUTATIVE_NAMES, rebased_triple,
                     shared_triple)
from sechom.algebra import (FinAlgebra, field_algebra, matrix_algebra,
                            multiply, truncated_polynomial_algebra)
from sechom.chains import chain_dim, chain_weights
from sechom.triples import (BaseNotCommutativeError,
                            CommutativeTripleRequiredError,
                            EpsImageNotCentralError,
                            EpsNotMultiplicativeError, EpsNotUnitalError,
                            TripleAxiomError, catalog, catalog_names,
                            grading, make_triple)

F = Fraction


def test_catalog_names_complete():
    assert sorted(catalog_names()) == sorted(ALL_NAMES)


def test_catalog_triples_all_validate():
    for name in ALL_NAMES:
        T = shared_triple(name)
        assert T.name == name
        assert T.commutative == (name in COMMUTATIVE_NAMES)


def test_catalog_returns_fresh_instances():
    assert catalog("dual_k") is not catalog("dual_k")


def test_base_must_be_commutative():
    A = field_algebra()
    M = matrix_algebra(2)
    cols = [[F(1)], [F(0)], [F(0)], [F(1)]]
    with pytest.raises(BaseNotCommutativeError):
        make_triple(A, M, cols)


def test_eps_must_be_unital():
    with pytest.raises(EpsNotUnitalError):
        make_triple(field_algebra(), field_algebra(), [[F(2)]])


def test_eps_must_be_multiplicative_with_replayable_witness():
    D = truncated_polynomial_algebra(2)
    B = truncated_polynomial_algebra(2, name="B")
    # sending the nilpotent generator to 1 cannot respect y^2 = 0
    with pytest.raises(EpsNotMultiplicativeError) as exc:
        make_triple(D, B, [[F(1), F(0)], [F(1), F(0)]])
    p, q, lhs, rhs = exc.value.witness
    cols = [[F(1), F(0)], [F(1), F(0)]]
    prod = multiply(B, [F(1) if t == p else F(0) for t in range(2)],
                    [F(1) if t == q else F(0) for t in range(2)])
    prod_image = [sum(prod[t] * cols[t][m] for t in range(2)) for m in range(2)]
    image_prod = multiply(D, cols[p], cols[q])
    assert prod_image != image_prod
    assert (lhs, rhs) == (prod_image, image_prod)


def test_eps_image_must_be_central():
    M = matrix_algebra(2)
    B = truncated_polynomial_algebra(2)
    e12 = [F(0), F(1), F(0), F(0)]
    # eps(y) = E12 squares to zero, so the map is multiplicative, but E12
    # is not central in the matrix algebra.
    with pytest.raises(EpsImageNotCentralError):
        make_triple(M, B, [list(M.unit), e12])


def test_invalid_algebra_rejected_up_front():
    bad = FinAlgebra.from_structure_constants(
        1, {(0, 0, 0): 2}, unit=[1])  # 1*1 = 2: unit law fails
    with pytest.raises(TripleAxiomError):
        make_triple(bad, field_algebra(), [[F(1)]])


def test_noncommutative_triple_is_allowed_but_flagged():
    T = shared_triple("mat2_k")
    assert not T.commutative
    with pytest.raises(CommutativeTripleRequiredError):
        T.require_commutative("this feature")


def test_known_catalog_shapes():
    assert shared_triple("k_k").A.dim == 1
    assert shared_triple("dual_k").A.dim == 2
    assert shared_triple("dual_k").B.dim == 1
    for name in ("dual_dual_zero", "dual_dual_x", "dual_over_dual_id"):
        T = shared_triple(name)
        assert (T.A.dim, T.B.dim) == (2, 2)
    assert shared_triple("trunc3_k").A.dim == 3
    assert shared_triple("mat2_k").A.dim == 4


def test_dual_dual_variants_differ_in_eps():
    z = shared_triple("dual_dual_zero")
    x = shared_triple("dual_dual_x")
    assert z.eps.columns[1] == [F(0), F(0)]
    assert x.eps.columns[1] == [F(0), F(1)]


# -- grading ---------------------------------------------------------------

def test_detected_grading_of_the_catalog():
    # Rows give weights to the basis of A, then of B.
    assert grading(shared_triple("dual_dual_zero")) == [(0, 1, 0, 0),
                                                        (0, 0, 0, 1)]
    assert grading(shared_triple("dual_dual_x")) == [(0, 1, 0, 1)]
    assert grading(shared_triple("dual_over_dual_id")) == [(0, 1, 0, 1)]
    assert grading(shared_triple("trunc3_k")) == [(0, 1, 2, 0)]
    # E11, E12, E21, E22: E12 E21 = E11 forces w(E21) = -w(E12).
    assert grading(shared_triple("mat2_k")) == [(0, 1, -1, 0, 0)]
    assert grading(shared_triple("k_k")) == grading(shared_triple("prod_k")) == []


def test_chain_weights_add_up_the_digits():
    T = shared_triple("dual_dual_x")
    # Degree 1: a_0, a_1, then the b-slot of (0, 1); x and y have weight 1.
    assert chain_weights(T, 1) == [0, 1, 1, 2, 1, 2, 2, 3]
    for n in range(4):
        assert len(chain_weights(T, n)) == chain_dim(T, n)


def test_rebased_twins_have_no_grading():
    for name in ("dual_k", "dual_dual_zero", "dual_dual_x",
                 "dual_over_dual_id", "trunc3_k"):
        T = rebased_triple(name)
        assert grading(T) == []
        assert set(chain_weights(T, 2)) == {0}
