"""The multiplication kernel, its relation spaces, and the quotient.

The two candidate relation spans (raw balancing span versus its closure
under the coefficient action) are both recorded by the engine; the catalog
contains exactly one triple where they differ, and that disagreement is
pinned here on purpose.
"""

from fractions import Fraction

import pytest

from _shared import (COMMUTATIVE_NAMES, rebased_triple, shared_triple,
                     tensor_cube)
from sechom.algebra import multiply
from sechom.differentials import omega
from sechom.kernel import (embed_tensor, j_generator, kernel_data,
                           multiplication_matrix, symmetry_check,
                           tensor_index)
from sechom.linalg import Subspace, colspace, to_dense
from sechom.triples import CommutativeTripleRequiredError

F = Fraction

def _kd(name):
    return kernel_data(shared_triple(name))


def _basis(dim, i):
    return [F(1) if t == i else F(0) for t in range(dim)]


# -- the ambient tensor cube and the multiplication map --------------------

def test_tensor_index_is_a_lex_bijection():
    T = shared_triple("dual_dual_x")
    seen = [tensor_index(T, i, j, k)
            for i in range(2) for j in range(2) for k in range(2)]
    assert seen == list(range(8))
    with pytest.raises(ValueError):
        tensor_index(T, 0, 0, 2)


def test_embed_tensor_places_single_entries():
    T = shared_triple("dual_dual_x")
    v = embed_tensor(T, _basis(2, 1), _basis(2, 0), _basis(2, 1))
    assert v[tensor_index(T, 1, 0, 1)] == 1
    assert sum(1 for x in v if x) == 1


def test_embed_tensor_checks_vector_lengths():
    # A vector of the wrong length once gave a shifted or truncated tensor.
    T = shared_triple("dual_dual_x")
    e_0 = _basis(2, 0)
    for x, y, beta in ((e_0, [F(0), F(0), F(1)], e_0),
                       ([F(1)], e_0, e_0),
                       (e_0, e_0, [F(1)])):
        with pytest.raises(ValueError):
            embed_tensor(T, x, y, beta)


def test_multiplication_routes_through_eps():
    T = shared_triple("dual_dual_x")
    col = multiplication_matrix(T).column(tensor_index(T, 0, 0, 1))
    assert col == {1: F(1)}  # 1 * 1 * eps(y) = x


def test_multiplication_is_onto_and_kernel_has_codimension_dim_A():
    for name in COMMUTATIVE_NAMES:
        T = shared_triple(name)
        mm = multiplication_matrix(T)
        assert colspace(mm).dim == T.A.dim
        K = _kd(name)
        assert K.J.dim == T.A.dim ** 2 * T.B.dim - T.A.dim


# -- generators ------------------------------------------------------------

def test_generator_vanishes_on_units():
    for name in ["dual_k", "dual_dual_x", "trunc3_k"]:
        T = shared_triple(name)
        assert not any(j_generator(T, T.B.unit, T.A.unit))


def test_generator_for_dual_numbers_is_the_classical_one():
    T = shared_triple("dual_k")
    g = j_generator(T, T.B.unit, _basis(2, 1))
    expect = [F(0)] * 4
    expect[tensor_index(T, 0, 1, 0)] = F(1)
    expect[tensor_index(T, 1, 0, 0)] = F(-1)
    assert g == expect
    assert _kd("dual_k").J.contains(g)


def test_generators_always_land_in_the_kernel():
    for name in COMMUTATIVE_NAMES:
        T = shared_triple(name)
        K = _kd(name)
        for j in range(T.B.dim):
            for k in range(T.A.dim):
                assert K.J.contains(
                    j_generator(T, _basis(T.B.dim, j), _basis(T.A.dim, k)))


def test_generator_outside_the_kernel_is_an_internal_error():
    # With eps(1) doctored to 2 after validation, 1 (x) x (x) 1 maps to 2x
    # and x eps(1) (x) 1 (x) 1 to 4x: the generator leaves the kernel.
    from sechom.algebra import AlgMorphism
    from sechom.linalg import InternalCheckError
    from sechom.triples import Triple

    T = shared_triple("dual_k")
    T2 = Triple(T.A, T.B, AlgMorphism(T.B, T.A, [[F(2), F(0)]]),
                T.commutative, T.name)
    with pytest.raises(InternalCheckError):
        j_generator(T2, T.B.unit, _basis(2, 1))


def test_generator_checks_vector_lengths():
    T = shared_triple("dual_k")
    with pytest.raises(ValueError):
        j_generator(T, [F(1), F(0)], T.A.unit)


# -- relation spaces and the quotient --------------------------------------

def test_relation_space_dimensions_are_frozen():
    # name: (squared, balancing, closed balancing, raw span, closed span,
    #        quotient)
    frozen = {
        "k_k": (0, 0, 0, 0, 0, 0),
        "dual_k": (1, 0, 0, 1, 1, 1),
        "dual_dual_zero": (3, 1, 4, 4, 5, 1),
        "dual_dual_x": (4, 1, 4, 5, 5, 1),
        "prod_k": (2, 0, 0, 2, 2, 0),
        "trunc3_k": (4, 0, 0, 4, 4, 2),
        "dual_over_dual_id": (4, 1, 4, 5, 5, 1),
    }
    for name, (sq, hat, hatc, span, rel, quot) in frozen.items():
        K = _kd(name)
        assert K.j_squared.dim == sq, name
        assert K.j_hat.dim == hat, name
        assert K.j_hat_closed.dim == hatc, name
        assert K.span_relations.dim == span, name
        assert K.relations.dim == rel, name
        assert K.dim == quot, name


def test_squared_span_needs_each_product_once():
    # P3 is commutative, so the products u v with u after v add nothing:
    # the span of all ordered products is the same canonical Subspace.
    for T in [shared_triple(name) for name in COMMUTATIVE_NAMES] + [
            rebased_triple("dual_dual_x")]:
        K = kernel_data(T)
        rows = [to_dense(row, K.J.ambient_dim) for row in K.J.rows]
        P3 = tensor_cube(T)
        every = [multiply(P3, u, v) for u in rows for v in rows]
        assert Subspace(K.J.ambient_dim, every) == K.j_squared, T.name


def test_relations_stay_inside_the_kernel():
    for name in COMMUTATIVE_NAMES:
        K = _kd(name)
        assert K.quotient.relations.dim == K.relations.dim, name
        for row in K.relations.rows:
            assert K.J.contains(row)


def test_the_two_readings_disagree_only_once():
    for name in COMMUTATIVE_NAMES:
        K = _kd(name)
        assert K.readings_agree == (name != "dual_dual_zero")


def test_balancing_span_is_trivial_over_the_ground_field():
    for name in ["k_k", "dual_k", "prod_k", "trunc3_k"]:
        K = _kd(name)
        assert K.j_hat.dim == 0
        assert K.j_hat_closed.dim == 0
        assert K.span_relations.dim == K.j_squared.dim


def test_left_and_right_coefficient_actions_agree():
    for name in COMMUTATIVE_NAMES:
        assert symmetry_check(shared_triple(name))


def test_quotient_dimension_matches_the_symbol_module():
    for name in COMMUTATIVE_NAMES:
        assert _kd(name).dim == omega(shared_triple(name)).dim


def test_noncommutative_triples_are_refused():
    with pytest.raises(CommutativeTripleRequiredError):
        kernel_data(shared_triple("mat2_k"))
