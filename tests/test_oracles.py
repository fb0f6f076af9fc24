"""Reference-path checks: classical complexes, dense ranks, presentations.

Every dimension frozen here was produced by the reference code itself and
cross-checked against the standard closed-form answers for these small
algebras, so later engine comparisons test two genuinely independent routes.
"""

from fractions import Fraction
from random import Random

import pytest

from _shared import dense_rank_of_sparse
from sechom import oracles
from sechom.algebra import (field_algebra, matrix_algebra,
                            split_product_algebra,
                            truncated_polynomial_algebra)
from sechom.linalg import SparseMat, rank
from sechom.oracles import (bar_boundary, bar_rotation, classical_hc_dims,
                            classical_hh_dims, classical_I_mod_I2_dim,
                            classical_kahler_dim, dense_rank)

F = Fraction


def _matmul(X, Y):
    """Product of two list-of-rows matrices."""
    cols = list(zip(*Y))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols]
            for row in X]


def _algebras():
    return [
        ("Q", field_algebra()),
        ("dual", truncated_polynomial_algebra(2)),
        ("trunc3", truncated_polynomial_algebra(3)),
        ("QxQ", split_product_algebra(2)),
        ("mat2", matrix_algebra(2)),
    ]


# -- classical bar complex -------------------------------------------------

def test_bar_boundary_squares_to_zero():
    for _, A in _algebras():
        if A.dim > 3:
            tops = [1, 2]
        else:
            tops = [1, 2, 3]
        for n in tops:
            prod = _matmul(bar_boundary(A, n), bar_boundary(A, n + 1))
            assert not any(any(row) for row in prod)


def test_bar_rotation_has_finite_order():
    for _, A in _algebras()[:4]:
        for n in (1, 2):
            R = bar_rotation(A, n)
            acc = R
            for _ in range(n):
                acc = _matmul(acc, R)
            assert acc == [[int(i == j) for j in range(len(R))]
                           for i in range(len(R))]


def test_bar_boundary_rejects_degree_zero():
    with pytest.raises(ValueError):
        bar_boundary(field_algebra(), 0)


# -- frozen classical homology dimensions ----------------------------------

def test_classical_hochschild_dimensions():
    expect = {
        "Q": [1, 0, 0, 0],
        "dual": [2, 1, 1, 1],
        "trunc3": [3, 2, 2, 2],
        "QxQ": [2, 0, 0, 0],
        "mat2": [1, 0, 0, 0],
    }
    for name, A in _algebras():
        assert classical_hh_dims(A, 3) == expect[name]


def test_classical_cyclic_dimensions():
    expect = {
        "Q": [1, 0, 1, 0],
        "dual": [2, 0, 2, 0],
        "trunc3": [3, 0, 3, 0],
        "QxQ": [2, 0, 2, 0],
        "mat2": [1, 0, 1, 0],
    }
    for name, A in _algebras():
        assert classical_hc_dims(A, 3) == expect[name]


def test_degree_zero_cyclic_equals_hochschild():
    for _, A in _algebras():
        assert classical_hc_dims(A, 0)[0] == classical_hh_dims(A, 0)[0]


def test_matrix_algebra_looks_like_the_field():
    # Invariance under passing to matrices over the same coefficients.
    assert classical_hh_dims(matrix_algebra(2), 3) == \
        classical_hh_dims(field_algebra(), 3)
    assert classical_hc_dims(matrix_algebra(2), 3) == \
        classical_hc_dims(field_algebra(), 3)


# -- classical differential presentations ----------------------------------

def test_classical_differential_module_dimensions():
    expect = {"Q": 0, "dual": 1, "trunc3": 2, "QxQ": 0}
    for name, A in _algebras()[:4]:
        assert classical_kahler_dim(A) == expect[name]


def test_diagonal_ideal_presentation_dimensions():
    expect = {"Q": 0, "dual": 1, "trunc3": 2, "QxQ": 0}
    for name, A in _algebras()[:4]:
        assert classical_I_mod_I2_dim(A) == expect[name]


def test_two_classical_presentations_agree():
    for _, A in _algebras()[:4]:
        assert classical_kahler_dim(A) == classical_I_mod_I2_dim(A)


# -- dense rank ------------------------------------------------------------

def test_dense_rank_on_known_matrices():
    assert dense_rank([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 6)]]) == 1
    assert dense_rank([[2, 4], [6, 8]]) == 2
    assert dense_rank([[0, 0], [0, 0]]) == 0
    assert dense_rank([]) == 0


def test_dense_rank_agrees_with_sparse_elimination():
    rng = Random(20240818)
    for _ in range(10):
        nrows = rng.randrange(1, 7)
        ncols = rng.randrange(1, 7)
        entries = []
        for r in range(nrows):
            for c in range(ncols):
                if rng.random() < 0.5:
                    entries.append((r, c, F(rng.randrange(-4, 5),
                                            rng.randrange(1, 4))))
        M = SparseMat.from_entries(nrows, ncols, entries)
        assert rank(M) == dense_rank_of_sparse(M)


def test_reference_paths_refuse_large_problems():
    with pytest.raises(ValueError):
        bar_boundary(matrix_algebra(2), 6)
    with pytest.raises(ValueError):
        classical_hh_dims(matrix_algebra(2), 6)
    with pytest.raises(ValueError):
        dense_rank_of_sparse(SparseMat.zeros(6000, 1))


def test_oracle_caps_are_checked_before_any_rank(monkeypatch):
    def no_rank(M):
        raise AssertionError("ranked a matrix before refusing")

    monkeypatch.setattr(oracles, "dense_rank", no_rank)
    with pytest.raises(ValueError):
        classical_hh_dims(matrix_algebra(2), 6)
    with pytest.raises(ValueError):
        classical_hc_dims(matrix_algebra(2), 5)
