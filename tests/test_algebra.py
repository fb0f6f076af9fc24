"""Structure-constant algebras: construction, validation, products."""

import copy
import random
from fractions import Fraction

import pytest

from _shared import (commutator_subspace, rebased_triple,
                     reference_is_central, reference_validate_algebra,
                     rescaled_triple, shared_triple, upper_triangular_algebra)
from sechom.algebra import (AlgMorphism, FinAlgebra, field_algebra,
                            is_central, matrix_algebra, multiply,
                            split_product_algebra, tensor_algebra,
                            truncated_polynomial_algebra, validate_algebra)
from sechom.differentials import ambient_symbol
from sechom.kernel import embed_tensor, j_generator
from sechom.triples import catalog_names

F = Fraction


def test_field_algebra_is_the_ground_field():
    Q = field_algebra()
    assert Q.dim == 1
    assert Q.unit == [F(1)]
    r = validate_algebra(Q)
    assert r.associative and r.unital and r.commutative


def test_truncated_polynomial_tables():
    D = truncated_polynomial_algebra(2)
    assert D.dim == 2
    assert multiply(D, [F(0), F(1)], [F(0), F(1)]) == [F(0), F(0)]  # x*x = 0
    T = truncated_polynomial_algebra(3)
    x = [F(0), F(1), F(0)]
    assert multiply(T, x, x) == [F(0), F(0), F(1)]  # x*x = x^2
    assert multiply(T, multiply(T, x, x), x) == [F(0)] * 3  # x^3 = 0


def test_split_product_is_componentwise():
    P = split_product_algebra(2)
    e0 = [F(1), F(0)]
    e1 = [F(0), F(1)]
    assert multiply(P, e0, e0) == e0
    assert multiply(P, e1, e1) == e1
    assert multiply(P, e0, e1) == [F(0), F(0)]
    assert P.unit == [F(1), F(1)]


def test_matrix_algebra_units_multiply():
    M = matrix_algebra(2)
    # E_{rc} sits at index r*2+c; E12 E21 = E11, E21 E12 = E22, E12 E12 = 0.
    e12 = [F(0), F(1), F(0), F(0)]
    e21 = [F(0), F(0), F(1), F(0)]
    e11 = [F(1), F(0), F(0), F(0)]
    e22 = [F(0), F(0), F(0), F(1)]
    assert multiply(M, e12, e21) == e11
    assert multiply(M, e21, e12) == e22
    assert multiply(M, e12, e12) == [F(0)] * 4
    r = validate_algebra(M)
    assert r.associative and r.unital and not r.commutative
    assert r.comm_witness is not None


def test_validator_accepts_perturbation_that_stays_associative():
    # Adding 1 to the x*x -> 1 entry of Q[x]/(x^2) yields the table of
    # Q[x]/(x^2-1): a perfectly valid commutative algebra, so the validator
    # must accept it.  (Rejection only happens at the triple level, where a
    # map with eps(y) nilpotent-valued stops being multiplicative.)
    D = truncated_polynomial_algebra(2)
    mult = copy.deepcopy(D.mult)
    mult[1][1][0] += 1
    r = validate_algebra(FinAlgebra(dim=2, mult=mult, unit=list(D.unit)))
    assert r.associative and r.unital and r.commutative


def test_validator_unit_witness():
    D = truncated_polynomial_algebra(2)
    mult = copy.deepcopy(D.mult)
    mult[1][0][1] -= 1  # now x*1 = 0
    r = validate_algebra(FinAlgebra(dim=2, mult=mult, unit=list(D.unit)))
    assert not r.unital
    assert r.unit_witness == 1  # basis element whose unit product fails


def test_validator_associativity_witness_is_replayable():
    T = truncated_polynomial_algebra(3)
    mult = copy.deepcopy(T.mult)
    mult[1][2][0] += 1  # x * x^2 = 1 while x^2 * x stays 0
    A = FinAlgebra(dim=3, mult=mult, unit=list(T.unit))
    r = validate_algebra(A)
    assert not r.associative
    i, j, k = r.assoc_witness
    ei = [F(1) if t == i else F(0) for t in range(3)]
    ej = [F(1) if t == j else F(0) for t in range(3)]
    ek = [F(1) if t == k else F(0) for t in range(3)]
    left = multiply(A, multiply(A, ei, ej), ek)
    right = multiply(A, ei, multiply(A, ej, ek))
    assert left != right
    assert not r.commutative


def _gated_algebras() -> list:
    """A and B of every catalog triple, of its rescaled twin and, where
    both have dimension at most 3, of its rebased twin."""
    triples = [shared_triple(name) for name in catalog_names()]
    triples += [rescaled_triple(name) for name in catalog_names()]
    triples += [rebased_triple(name) for name in catalog_names()
                if name != "mat2_k"]
    return [alg for T in triples for alg in (T.A, T.B)]


def test_validation_matches_the_multiply_based_reference():
    # Every field of the report, witnesses included, on the algebras the
    # engine validates and on seeded single-entry perturbations of their
    # tables: a change of -1, +1, 1/2 or -2/3 in one structure constant.
    rng = random.Random(2206)
    seen = set()
    algebras = _gated_algebras()
    for alg in algebras:
        reports = [(validate_algebra(alg), reference_validate_algebra(alg))]
        for _ in range(8):
            mult = copy.deepcopy(alg.mult)
            i, j, k = (rng.randrange(alg.dim) for _ in range(3))
            mult[i][j][k] += rng.choice([F(-1), F(1), F(1, 2), F(-2, 3)])
            bent = FinAlgebra(alg.dim, mult, list(alg.unit), alg.name)
            reports.append((validate_algebra(bent),
                            reference_validate_algebra(bent)))
        for new, old in reports:
            assert new == old, alg.name
            seen.add((new.associative, new.unital, new.commutative))
    # == reads every witness, so the comparisons above check them too.
    for field in ("assoc_witness", "unit_witness", "comm_witness"):
        bent = copy.copy(new)
        setattr(bent, field, -1)
        assert bent != old, field
    # The perturbations break each law, and some keep associativity.
    assert {(False, False, True), (False, True, False), (False, False, False),
            (True, False, True), (True, False, False),
            (True, True, True)} <= seen


def test_from_structure_constants_sparse_entries():
    A = FinAlgebra.from_structure_constants(
        2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}, unit=[1, 0])
    assert multiply(A, [F(0), F(1)], [F(0), F(1)]) == [F(0), F(0)]
    r = validate_algebra(A)
    assert r.associative and r.unital


def test_multiply_is_bilinear_random():
    rng = random.Random(99)
    T = truncated_polynomial_algebra(3)
    for _ in range(20):
        x = [F(rng.randrange(-3, 4)) for _ in range(3)]
        xp = [F(rng.randrange(-3, 4)) for _ in range(3)]
        y = [F(rng.randrange(-3, 4)) for _ in range(3)]
        a, b = F(rng.randrange(-2, 3)), F(rng.randrange(-2, 3))
        lhs = multiply(T, [a * u + b * v for u, v in zip(x, xp)], y)
        rhs = [a * u + b * v for u, v in
               zip(multiply(T, x, y), multiply(T, xp, y))]
        assert lhs == rhs


def test_commutator_subspace_dims():
    assert commutator_subspace(field_algebra()).dim == 0
    assert commutator_subspace(truncated_polynomial_algebra(3)).dim == 0
    assert commutator_subspace(matrix_algebra(2)).dim == 3


def test_center_detection():
    M = matrix_algebra(2)
    identity = list(M.unit)
    assert is_central(M, identity)
    e12 = [F(0), F(1), F(0), F(0)]
    assert not is_central(M, e12)
    D = truncated_polynomial_algebra(2)
    assert is_central(D, [F(0), F(1)])
    # In the upper-triangular matrices E12 fails only against E11, the last
    # basis vector, which the unit's support misses: a test that skipped
    # that vector would call E12 central.
    U = upper_triangular_algebra()
    assert validate_algebra(U).valid
    assert not is_central(U, [F(0), F(1), F(0)])
    assert not reference_is_central(U, [F(0), F(1), F(0)])
    assert is_central(U, U.unit)


def test_is_central_matches_the_multiply_based_reference():
    # Equality gate for the integer centrality test: every basis vector
    # and seeded random integer combinations, on the rescaled algebras,
    # whose tables have denominators other than 1.
    rng = random.Random(2206)
    seen = set()
    for name in catalog_names():
        T = rescaled_triple(name)
        for alg in (T.A, T.B):
            vecs = [[F(int(t == i)) for t in range(alg.dim)]
                    for i in range(alg.dim)]
            vecs += [[rng.randrange(-3, 4) for _ in range(alg.dim)]
                     for _ in range(12)]
            for v in vecs:
                got = is_central(alg, v)
                assert got == reference_is_central(alg, v), (name, v)
                seen.add(got)
    assert seen == {True, False}
    A = rescaled_triple("mat2_k").A
    with pytest.raises(ValueError):
        is_central(A, [F(1)] * (A.dim + 1))
    with pytest.raises(ValueError):
        is_central(A, [F(1)] * (A.dim - 1))
    with pytest.raises(TypeError):
        is_central(A, {0: F(1)})


def test_tensor_algebra_shape_and_commutativity():
    D = truncated_polynomial_algebra(2)
    P = split_product_algebra(2)
    T = tensor_algebra(D, P)
    assert T.dim == 4
    r = validate_algebra(T)
    assert r.associative and r.unital and r.commutative
    # left-factor-major indexing: basis (i, j) at position i*dimB + j
    x_tensor_1 = [F(0), F(0), F(1), F(1)]  # x (x) (1,1)
    assert multiply(T, x_tensor_1, x_tensor_1) == [F(0)] * 4


def test_tensor_with_ground_field_is_identity():
    D = truncated_polynomial_algebra(2)
    T = tensor_algebra(D, field_algebra())
    assert T.dim == D.dim
    assert T.mult == D.mult


def test_morphism_apply_is_matrix_action():
    D = truncated_polynomial_algebra(2)
    Q = field_algebra()
    f = AlgMorphism(source=Q, target=D, columns=[list(D.unit)])
    assert f.apply([F(3)]) == [F(3), F(0)]


def test_algebra_layer_refuses_sparse_vectors():
    # Iterating a dict reads its keys: {0: 1} would pass for the vector
    # (0,), so every algebra-element argument must refuse a sparse dict.
    T = shared_triple("dual_dual_x")
    A, B = T.A, T.B
    s = {0: F(1)}
    calls = [
        lambda: multiply(A, s, A.unit),
        lambda: multiply(A, A.unit, s),
        lambda: T.eps.apply(s),
        lambda: ambient_symbol(T, s, B.unit, A.unit),
        lambda: ambient_symbol(T, A.unit, s, A.unit),
        lambda: ambient_symbol(T, A.unit, B.unit, s),
        lambda: embed_tensor(T, s, A.unit, B.unit),
        lambda: embed_tensor(T, A.unit, s, B.unit),
        lambda: embed_tensor(T, A.unit, A.unit, s),
        lambda: j_generator(T, s, A.unit),
        lambda: j_generator(T, B.unit, s),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()
