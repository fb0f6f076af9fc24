"""The presented module of differential symbols and its universal map.

Frozen dimensions come from hand-audited runs; triples over the ground
field are additionally pinned to the classical presentation computed by
the reference path.
"""

from fractions import Fraction

import pytest

from _shared import (COMMUTATIVE_NAMES, derivation_identity_failures,
                     shared_triple)
from sechom.differentials import (ambient_symbol, coefficient_action,
                                  d_one_A_subspace, d_symbol, omega,
                                  symbol_index)
from sechom.linalg import SparseMat
from sechom.oracles import classical_kahler_dim
from sechom.triples import CommutativeTripleRequiredError

F = Fraction

# In COMMUTATIVE_NAMES order.
FROZEN_DIMS = [0, 1, 1, 1, 0, 2, 1]

def _basis(dim, i):
    return [F(1) if t == i else F(0) for t in range(dim)]


# -- presentation shape ----------------------------------------------------

def test_symbol_index_is_a_lex_bijection():
    T = shared_triple("dual_dual_x")
    seen = [symbol_index(T, m, j, k)
            for m in range(2) for j in range(2) for k in range(2)]
    assert seen == list(range(8))
    with pytest.raises(ValueError):
        symbol_index(T, 2, 0, 0)
    with pytest.raises(ValueError):
        symbol_index(T, 0, 0, -1)


def test_presented_dimensions_are_frozen():
    for name, expect in zip(COMMUTATIVE_NAMES, FROZEN_DIMS):
        T = shared_triple(name)
        P = omega(T)
        assert P.ambient_dim == T.A.dim ** 2 * T.B.dim
        assert P.dim == expect
        assert P.dim == P.ambient_dim - P.relations.dim


def test_ground_field_case_is_the_classical_module():
    for name in ["k_k", "dual_k", "prod_k", "trunc3_k"]:
        T = shared_triple(name)
        assert omega(T).dim == classical_kahler_dim(T.A)


def test_noncommutative_triples_are_refused():
    with pytest.raises(CommutativeTripleRequiredError):
        omega(shared_triple("mat2_k"))


# -- the universal map -----------------------------------------------------

def test_derivative_of_the_unit_vanishes():
    for name in COMMUTATIVE_NAMES:
        T = shared_triple(name)
        assert d_symbol(T, T.B.unit, T.A.unit) == {}
        assert d_symbol(T, [F(3) * x for x in T.B.unit],
                        [F(5) * x for x in T.A.unit]) == {}


def test_square_relation_traps_the_nilpotent():
    # Over the dual numbers, 0 = d(1 (x) x^2) forces 2 x d(1 (x) x) into
    # the relation span, while d(1 (x) x) itself survives.
    T = shared_triple("dual_k")
    x = _basis(2, 1)
    doubled = [2 * v for v in ambient_symbol(T, x, T.B.unit, x)]
    assert omega(T).relations.contains(doubled)
    assert d_symbol(T, T.B.unit, x)


def test_derivation_laws_hold_in_the_quotient():
    for name in ["dual_dual_x", "trunc3_k"]:
        assert derivation_identity_failures(shared_triple(name)) == []


def test_span_of_plain_derivatives():
    for name, expect in zip(COMMUTATIVE_NAMES, FROZEN_DIMS):
        assert d_one_A_subspace(shared_triple(name)).dim == expect


# -- the coefficient action ------------------------------------------------

def test_unit_coefficient_acts_as_identity():
    for name in ["dual_k", "dual_dual_x", "trunc3_k"]:
        T = shared_triple(name)
        act = coefficient_action(T, 0)
        assert act == SparseMat.identity(omega(T).ambient_dim)


def test_coefficient_action_checks_its_index():
    # -1 once gave the action of the last basis vector, and dim A a bare
    # IndexError.
    T = shared_triple("dual_k")
    for m in (-1, T.A.dim):
        with pytest.raises(ValueError):
            coefficient_action(T, m)


def test_coefficient_action_preserves_relations():
    for name in ["dual_k", "dual_dual_x", "trunc3_k", "prod_k"]:
        T = shared_triple(name)
        P = omega(T)
        for m in range(T.A.dim):
            act = coefficient_action(T, m)
            for row in P.relations.rows:
                assert P.relations.contains(act.matvec(row))


def test_coefficient_action_composes_like_the_algebra():
    # Acting by x then x over the dual numbers is acting by x^2 = 0 on the
    # quotient (not on the ambient space, where symbols are formal).
    T = shared_triple("dual_k")
    P = omega(T)
    act = coefficient_action(T, 1)
    twice = act @ act
    for c in range(P.ambient_dim):
        col = twice.column(c)
        assert not P.project(col)
