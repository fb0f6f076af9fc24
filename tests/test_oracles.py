"""Reference-path checks: classical complexes, dense ranks, presentations.

Every dimension frozen here was produced by the reference code itself and
cross-checked against the standard closed-form answers for these small
algebras, so later engine comparisons test two genuinely independent routes.
"""

import ast
import inspect
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from random import Random

import pytest

from _shared import (bar_boundary, bar_rotation, cube_over_prod,
                     dense_rank_of_sparse, densify, dual_over_trunc3_x,
                     from_entries, integer_rows, prod_over_prod_id, rebased,
                     rebased_triple, rescaled_triple, sqzero_dual_x,
                     trunc3_over_dual_x2, upper_triangular_algebra)
from sechom import oracles
from sechom.algebra import (field_algebra, matrix_algebra,
                            split_product_algebra, tensor_algebra,
                            truncated_polynomial_algebra, validate_algebra)
from sechom.linalg import SparseMat, colspace, nullspace
from sechom.oracles import (_connes_operator, _normalized,
                            _normalized_boundary, classical_hc_dims,
                            classical_hh_dims, classical_I_mod_I2_dim,
                            classical_kahler_dim, dense_rank)
from sechom.triples import catalog, catalog_names

F = Fraction


def _matmul(X, Y):
    """Product of two list-of-rows matrices."""
    cols = list(zip(*Y))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols]
            for row in X]


def _sparse(M) -> list:
    """The rows of a dense matrix as sparse dicts of their nonzeros."""
    return [{c: x for c, x in enumerate(row) if x} for row in M]


def _hstack(left, right, width) -> list:
    """[left | right] of two sparse row lists, left `width` columns wide."""
    return [{**lrow, **{c + width: x for c, x in rrow.items()}}
            for lrow, rrow in zip(left, right)]


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
            prod = _matmul(densify(bar_boundary(A, n), A.dim ** (n + 1)),
                           densify(bar_boundary(A, n + 1), A.dim ** (n + 2)))
            assert not any(any(row) for row in prod)


def test_bar_rotation_has_finite_order():
    for _, A in _algebras()[:4]:
        for n in (1, 2):
            R = densify(bar_rotation(A, n), A.dim ** (n + 1))
            acc = R
            for _ in range(n):
                acc = _matmul(acc, R)
            assert acc == [[int(i == j) for j in range(len(R))]
                           for i in range(len(R))]


def _bar_boundary_before(A, n):
    """Test-local copy of bar_boundary as it summed the Fraction table."""
    d = A.dim
    src = list(product(range(d), repeat=n + 1))
    dst_pos = {t: i for i, t in enumerate(product(range(d), repeat=n))}
    M = [[0] * d ** (n + 1) for _ in range(d ** n)]
    for c, tup in enumerate(src):
        for i in range(n):
            coeffs = A.mult[tup[i]][tup[i + 1]]
            rest = tup[:i] + tup[i + 2:]
            sign = 1 if i % 2 == 0 else -1
            for k, x in enumerate(coeffs):
                if x:
                    M[dst_pos[rest[:i] + (k,) + rest[i:]]][c] += sign * x
        sign = 1 if n % 2 == 0 else -1
        for k, x in enumerate(A.mult[tup[n]][tup[0]]):
            if x:
                M[dst_pos[(k,) + tup[1:n]]][c] += sign * x
    return M


def _bar_rotation_before(A, n):
    """Test-local copy of bar_rotation as it built a dense matrix."""
    d = A.dim
    pos = {t: i for i, t in enumerate(product(range(d), repeat=n + 1))}
    M = [[0] * d ** (n + 1) for _ in range(d ** (n + 1))]
    sign = 1 if n % 2 == 0 else -1
    for tup, c in pos.items():
        M[pos[(tup[-1],) + tup[:-1]]][c] = sign
    return M


def test_bar_boundary_matches_the_fraction_built_copy():
    integral = rebased_triple("trunc3_k").A
    fractional = rescaled_triple("trunc3_k").A
    assert all(x.denominator == 1 for row in integral.mult
               for prod in row for x in prod)
    assert any(x.denominator > 1 for row in fractional.mult
               for prod in row for x in prod)
    for A in (integral, fractional, matrix_algebra(2)):
        for n in (1, 2, 3):
            new = densify(bar_boundary(A, n), A.dim ** (n + 1))
            old = _bar_boundary_before(A, n)
            assert len(new) == len(old)
            for new_row, old_row in zip(new, old):
                assert len(new_row) == len(old_row)
                assert all(x == y for x, y in zip(new_row, old_row))


def test_sparse_bar_rows_equal_the_dense_builders():
    # Entry for entry on every algebra of the B = Q reduction battery, up
    # to the degrees its oracles build; the dicts hold only the nonzeros,
    # so a stored zero fails too.
    for A in _reduction_algebras():
        top = _reduction_degree(A)
        pairs = [(bar_boundary(A, n), _bar_boundary_before(A, n))
                 for n in range(1, top + 2)]
        pairs += [(bar_rotation(A, n), _bar_rotation_before(A, n))
                  for n in range(top + 1)]
        for sparse, dense in pairs:
            assert sparse == _sparse(dense), A.name


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


def _one_minus_rotation(A, k):
    """Sparse rows of 1 - t in degree k, from the dense rotation."""
    return _sparse([[int(r == c) - x for c, x in enumerate(row)]
                    for r, row in enumerate(_bar_rotation_before(A, k))])


def _classical_hc_dims_before(A, n_max):
    """Test-local copy of classical_hc_dims as it ranked [b_n | W_{n-1}]
    and [b_{n+1} | W_n] separately in each degree."""
    omegas = {k: _one_minus_rotation(A, k) for k in range(n_max + 1)}
    w_rank = {k: dense_rank(integer_rows(M)) for k, M in omegas.items()}
    dims = []
    for n in range(n_max + 1):
        N = A.dim ** (n + 1)
        if n == 0:
            dims.append(N - dense_rank(integer_rows(bar_boundary(A, 1))))
            continue
        low = dense_rank(integer_rows(_hstack(
            bar_boundary(A, n), omegas[n - 1], A.dim ** (n + 1))))
        high = dense_rank(integer_rows(_hstack(
            bar_boundary(A, n + 1), omegas[n], A.dim ** (n + 2))))
        dims.append(N + w_rank[n - 1] - low - high)
    return dims


def _reduction_degree(A):
    """The top degree of the B = Q reduction battery on A."""
    return 3 if A.dim <= 3 else 2


def test_cyclic_dimensions_match_the_code_they_replaced():
    algebras = [catalog(name).A for name in catalog_names()]
    algebras += [rebased_triple("trunc3_k").A, rebased_triple("dual_k").A,
                 rescaled_triple("trunc3_k").A,
                 tensor_algebra(truncated_polynomial_algebra(3),
                                truncated_polynomial_algebra(2))]
    for A in algebras:
        n_max = _reduction_degree(A)
        assert classical_hc_dims(A, n_max) == _classical_hc_dims_before(
            A, n_max)


def _classical_hh_dims_before(A, n_max):
    """Test-local copy of classical_hh_dims as it ranked the bar
    boundaries, d^(n+1) tensors in degree n."""
    ranks = [0] + [dense_rank(integer_rows(bar_boundary(A, k)))
                   for k in range(1, n_max + 2)]
    return [A.dim ** (n + 1) - ranks[n] - ranks[n + 1]
            for n in range(n_max + 1)]


def _oracle_algebras() -> list:
    """Every algebra the oracle tests build: the catalog's, its rebased and
    rescaled twins, the degree-one battery's commutative and
    non-commutative algebras and the seeded tensor products."""
    names = catalog_names()
    algebras = [catalog(name).A for name in names]
    algebras += [rebased_triple(name).A for name in names if name != "mat2_k"]
    algebras += [rescaled_triple(name).A for name in names]
    algebras += _commutative_algebras() + _noncommutative_algebras()
    return algebras + _seeded_tensor_algebras()


def test_hochschild_dimensions_match_the_code_they_replaced():
    # The normalized complex against the bar complex, at the top degree
    # of the B = Q reduction battery.
    for A in _oracle_algebras():
        n_max = _reduction_degree(A)
        assert classical_hh_dims(A, n_max) == _classical_hh_dims_before(
            A, n_max), A.name


def test_cyclic_dimensions_match_on_every_oracle_algebra():
    # The normalized (b, B) bicomplex against the Connes complex C/(1 - t).
    for A in _oracle_algebras():
        n_max = _reduction_degree(A)
        assert classical_hc_dims(A, n_max) == _classical_hc_dims_before(
            A, n_max), A.name


def _times(X, Y) -> list:
    """The product X Y of two matrices stored as sparse rows."""
    out = []
    for row in X:
        acc: dict = {}
        for c, x in row.items():
            for k, y in Y[c].items():
                acc[k] = acc.get(k, 0) + x * y
        out.append({k: v for k, v in acc.items() if v})
    return out


def _plus(X, Y) -> list:
    """The sum X + Y of two matrices stored as sparse rows."""
    out = []
    for xrow, yrow in zip(X, Y):
        acc = dict(xrow)
        for k, y in yrow.items():
            acc[k] = acc.get(k, 0) + y
        out.append({k: v for k, v in acc.items() if v})
    return out


def _identity_algebras() -> list:
    """The reduction battery's algebras, the upper triangular 2 x 2
    matrices and two seeded tensor products of dimension 4."""
    tensors = [A for A in _seeded_tensor_algebras() if A.dim == 4][:2]
    return _reduction_algebras() + [upper_triangular_algebra()] + tensors


def test_normalized_b_and_connes_b_square_to_zero_and_anticommute():
    # b b = 0, B B = 0 and b B + B b = 0 on C_n for n <= 3, so D = b + B
    # squares to zero on the total complex.
    for A in _identity_algebras():
        N = _normalized(A)
        b = {n: _normalized_boundary(N, n) for n in range(1, 5)}
        B = {n: _connes_operator(N, n) for n in range(5)}
        for n in range(4):
            assert not any(_times(B[n + 1], B[n])), A.name
            bB = _times(b[n + 1], B[n])
            if n:
                assert not any(_times(b[n], b[n + 1])), A.name
                bB = _plus(bB, _times(B[n - 1], b[n]))
            assert len(bB) == A.dim * (A.dim - 1) ** n
            assert not any(bB), A.name


def _quotient_map(A, n) -> list:
    """q_n from the bar complex onto the normalized one, a_0 (x) a_1 ...
    (x) a_n to a_0 abar_1 ... abar_n, in Fractions, as sparse rows, one
    per basis tensor of C_n; a bar tensor is numbered by its base-d
    digits, a normalized one by a_0 and then base-(d - 1) digits."""
    d, u = A.dim, A.unit
    j0 = next(j for j, x in enumerate(u) if x)
    rest = [j for j in range(d) if j != j0]
    proj = [{rest.index(k): F(1)} if k != j0 else
            {p: -u[j] / u[j0] for p, j in enumerate(rest) if u[j]}
            for k in range(d)]
    rows = [{} for _ in range(d * (d - 1) ** n)]
    for col, (a0, *tail) in enumerate(product(range(d), repeat=n + 1)):
        image = {a0: F(1)}
        for a in tail:
            image = {c * (d - 1) + p: x * y for c, x in image.items()
                     for p, y in proj[a].items()}
        for c, x in image.items():
            rows[c][col] = x
    return rows


def _bar_connes_operator(A, n) -> list:
    """Connes' (1 - t) s N from bar degree n to n + 1, in Fractions: N the
    sum of the powers of the signed rotation t, s the extra degeneracy
    a_0 ... a_n to 1 a_0 ... a_n (Loday, 2.1)."""
    d = A.dim
    t = bar_rotation(A, n)
    N = power = [{r: F(1)} for r in range(d ** (n + 1))]
    for _ in range(n):
        power = _times(power, t)
        N = _plus(N, power)
    s = [{} for _ in range(d ** (n + 2))]
    for c in range(d ** (n + 1)):
        for l, x in enumerate(A.unit):
            if x:
                s[l * d ** (n + 1) + c][c] = x
    one_minus_t = _plus([{r: F(1)} for r in range(d ** (n + 2))],
                        [{c: -x for c, x in row.items()}
                         for row in bar_rotation(A, n + 1)])
    return _times(_times(one_minus_t, s), N)


def test_normalized_maps_are_the_bar_maps_on_the_quotient():
    # b_n q_n = q_{n-1} b_n and B_n q_n = q_{n+1} B_n entry by entry, the
    # normalized maps built in integers at the one scale den^2 u_j0, den
    # the common denominator of table and unit, u_j0 the first nonzero
    # entry of the unit.
    for A in _identity_algebras():
        den = lcm(*(x.denominator for x in A.unit),
                  *(x.denominator for row in A.mult for p in row for x in p))
        scale = den * den * next(x for x in A.unit if x)
        top = _reduction_degree(A)
        N, q = _normalized(A), {n: _quotient_map(A, n) for n in range(top + 2)}
        for n in range(1, top + 2):
            assert _times(_normalized_boundary(N, n), q[n]) == [
                {c: scale * x for c, x in row.items()}
                for row in _times(q[n - 1], bar_boundary(A, n))], A.name
        for n in range(top + 1):
            assert _times(_connes_operator(N, n), q[n]) == [
                {c: scale * x for c, x in row.items()}
                for row in _times(q[n + 1], _bar_connes_operator(A, n))], \
                A.name


def _seeded_tensor_algebras() -> list:
    """Twenty tensor products of the catalog algebras and of monomial
    quotients Q[x]/(x^m), up to dimension 4, drawn with a fixed seed."""
    rng = Random(1992)
    factors = [A for _, A in _algebras()]
    factors += [truncated_polynomial_algebra(m) for m in (1, 2, 3, 4)]
    algebras = []
    for _ in range(20):
        while True:
            X, Y = rng.choice(factors), rng.choice(factors)
            if X.dim * Y.dim <= 4:
                break
        algebras.append(tensor_algebra(X, Y))
    return algebras


def test_cyclic_dimensions_match_on_random_algebras():
    algebras = _seeded_tensor_algebras()
    for A in algebras:
        n_max = _reduction_degree(A)
        assert classical_hc_dims(A, n_max) == _classical_hc_dims_before(
            A, n_max)
    assert {A.dim for A in algebras} == {1, 2, 3, 4}


def test_cyclic_dimensions_rank_each_concatenation_once(monkeypatch):
    # One rank of D = b + B per total degree 1..4 of the normalized (b, B)
    # bicomplex; the [W_{k-1} | b_k] concatenations it replaced made 7
    # calls, and the code before them 11.
    calls = []
    ranked = oracles.dense_rank

    def counting(M):
        calls.append(len(M))
        return ranked(M)

    monkeypatch.setattr(oracles, "dense_rank", counting)
    assert classical_hc_dims(truncated_polynomial_algebra(2), 3) == \
        [2, 0, 2, 0]
    assert len(calls) == 4


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


def _commutative_algebras() -> list:
    """Every commutative A the suite builds for the degree-one oracles: the
    catalog's and those of its rebased and rescaled twins, the A of the
    triples whose B is not Q and of their rebased twins, three tensor
    products, Q^3, Q[x]/x^4 and Q[x]/x^5."""
    names = [name for name in catalog_names() if name != "mat2_k"]
    others = [trunc3_over_dual_x2(), prod_over_prod_id(), cube_over_prod(),
              dual_over_trunc3_x(), sqzero_dual_x()]
    dual = truncated_polynomial_algebra(2)
    algebras = [catalog(name).A for name in names]
    algebras += [rebased_triple(name).A for name in names]
    algebras += [rescaled_triple(name).A for name in names]
    algebras += [T.A for T in others] + [rebased(T).A for T in others]
    algebras += [tensor_algebra(dual, dual),
                 tensor_algebra(truncated_polynomial_algebra(3), dual),
                 tensor_algebra(split_product_algebra(2), dual),
                 split_product_algebra(3), truncated_polynomial_algebra(4),
                 truncated_polynomial_algebra(5)]
    assert all(validate_algebra(A).commutative for A in algebras)
    return algebras


def _noncommutative_algebras() -> list:
    return [catalog("mat2_k").A, rescaled_triple("mat2_k").A,
            upper_triangular_algebra()]


def _ordered_I_mod_I2_dim(A):
    """I/I^2 with every ordered product u v of a basis of I, the kernel of
    the product map as the engine's `nullspace` reads it, ranked by the
    engine's `rank`: a route that shares nothing with the oracle's."""
    d = A.dim
    terms = [[[(k, x) for k, x in enumerate(prod) if x] for prod in row]
             for row in A.mult]
    mu = from_entries(d, d * d, ((k, i * d + j, x)
                                 for i, j in product(range(d), repeat=2)
                                 for k, x in terms[i][j]))
    kernel = nullspace(mu).rows
    entries = []
    for r, (u, v) in enumerate(product(kernel, repeat=2)):
        for (p, x), (q, y) in product(u.items(), v.items()):
            (i1, j1), (i2, j2) = divmod(p, d), divmod(q, d)
            for (k1, a), (k2, b) in product(terms[i1][i2], terms[j1][j2]):
                entries.append((r, k1 * d + k2, x * y * a * b))
    return len(kernel) - colspace(
        from_entries(len(kernel) ** 2, d * d, entries)).dim


def test_unordered_kernel_products_match_the_ordered_ones():
    # The closed-form basis of I and its products with the x_l against
    # every ordered product of a kernel basis.  A non-commutative A (M2(Q)
    # of mat2_k, its rescaled twin, the upper triangular matrices) is
    # refused: its kernel of the product map is not an ideal.
    for A in _commutative_algebras():
        assert classical_I_mod_I2_dim(A) == _ordered_I_mod_I2_dim(A), A.name
    for A in _noncommutative_algebras():
        with pytest.raises(ValueError, match="commutative"):
            classical_I_mod_I2_dim(A)


def test_kahler_reference_refuses_a_noncommutative_a():
    # Its Leibniz presentation gave 0 on M2(Q), a number with no meaning:
    # the engine's module of differential symbols refuses that A.
    for A in _noncommutative_algebras():
        assert not validate_algebra(A).commutative
        with pytest.raises(ValueError, match="commutative"):
            classical_kahler_dim(A)


def test_kahler_rows_with_p_after_q_add_nothing():
    # On a commutative A the Leibniz row (m, p, q) equals (m, q, p), so
    # the d * d(d+1)/2 rows with p <= q have the rank of all d^3.
    algebras = _commutative_algebras()
    assert len(algebras) == 37
    for A in algebras:
        d = A.dim
        mult = [[[(k, x) for k, x in enumerate(prod) if x] for prod in row]
                for row in A.mult]
        rows = []
        for m, p, q in product(range(d), repeat=3):
            row: dict = {}
            for c, x in ([(m * d + k, x) for k, x in mult[p][q]]
                         + [(t * d + q, -x) for t, x in mult[m][p]]
                         + [(t * d + p, -x) for t, x in mult[m][q]]):
                row[c] = row.get(c, 0) + x
            rows.append(row)
        assert classical_kahler_dim(A) == d * d - dense_rank(
            integer_rows(rows)), A.name


def test_two_classical_presentations_agree():
    for A in _commutative_algebras():
        assert classical_kahler_dim(A) == classical_I_mod_I2_dim(A), A.name


# -- dense rank ------------------------------------------------------------

def test_dense_rank_on_known_matrices():
    assert dense_rank(integer_rows([{0: F(1, 2), 1: F(1, 3)},
                                    {0: F(1, 4), 1: F(1, 6)}])) == 1
    assert dense_rank([{0: 2, 1: 4}, {0: 6, 1: 8}]) == 2
    assert dense_rank([{}, {}]) == 0
    assert dense_rank([{0: 0, 1: 3}, {1: -6}]) == 1  # a stored zero
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
        M = from_entries(nrows, ncols, entries)
        assert colspace(M).dim == dense_rank_of_sparse(M)


def _dense_rank_before(M) -> int:
    """Test-local copy of the dense elimination dense_rank replaced: for
    each column it scans every remaining row of a list-of-rows matrix,
    pivots on the first row of smallest absolute entry and rebuilds the
    tails of the rows below."""
    rows = []
    for row in M:
        if set(map(type, row)) <= {int}:
            ints = row
        else:
            den = lcm(*(x.denominator for x in row))
            ints = [x.numerator * (den // x.denominator) for x in row]
        g = gcd(*ints)
        if g:
            rows.append([x // g for x in ints] if g > 1 else list(ints))
    ncols = len(rows[0]) if rows else 0
    r = 0
    for col in range(ncols):
        if r == len(rows):
            break
        nonzero = [i for i in range(r, len(rows)) if rows[i][col]]
        if not nonzero:
            continue
        piv = min(nonzero, key=lambda i: abs(rows[i][col]))
        rows[r], rows[piv] = rows[piv], rows[r]
        ptail = rows[r][col:]
        p = ptail[0]
        for i in range(r + 1, len(rows)):
            row = rows[i]
            q = row[col]
            if q:
                tail = [p * a - q * b for a, b in zip(row[col:], ptail)]
                g = gcd(*tail)
                row[col:] = [x // g for x in tail] if g > 1 else tail
        r += 1
    return r


def test_dense_rank_matches_the_code_it_replaced():
    rng = Random(1968)
    for trial in range(200):
        nrows, ncols = rng.randrange(0, 9), rng.randrange(1, 9)
        big = rng.choice([1, 10 ** 12])
        density = rng.choice([0.3, 0.7, 1.0])
        # Sparse rows; an entry drawn as zero is stored as a zero.
        M = [{c: F(rng.randrange(-9, 10) * big + rng.randrange(-9, 10),
                   rng.randrange(1, 8))
              for c in range(ncols) if rng.random() < density}
             for _ in range(nrows)]
        if nrows and trial % 3 == 0:
            M[rng.randrange(nrows)] = {}  # a zero row
        if trial % 4 == 1:  # a rank-deficient tall matrix: repeated rows
            M += [{c: 2 * x for c, x in row.items()} for row in M]
        M = integer_rows(M)  # each row scaled: the same rank
        before = [dict(row) for row in M]
        assert dense_rank(M) == _dense_rank_before(densify(M, ncols))
        assert M == before
    # The oracle matrices of a rebased trunc3_k: boundaries, 1 - rotation
    # and the concatenations, in both orders, that classical_hc_dims ranks.
    A = rebased_triple("trunc3_k").A
    omegas = [_one_minus_rotation(A, k) for k in range(4)]
    mats = [bar_boundary(A, k) for k in range(1, 5)] + omegas
    mats += [_hstack(bar_boundary(A, n), omegas[n - 1], A.dim ** (n + 1))
             for n in range(1, 5)]
    mats += [_hstack(omegas[n - 1], bar_boundary(A, n), A.dim ** n)
             for n in range(1, 5)]
    for M in mats:
        assert dense_rank(integer_rows(M)) == _dense_rank_before(densify(M))


def _reduction_algebras() -> list:
    """Each distinct A of the catalog, of the rescaled twins (Fraction
    tables) and of the rebased twins (dense integer tables); the other
    catalog triples repeat one of these A."""
    algebras = [catalog(name).A for name in ("k_k", "dual_k", "prod_k",
                                             "trunc3_k", "mat2_k")]
    algebras += [rescaled_triple(name).A for name in
                 ("dual_k", "prod_k", "trunc3_k", "mat2_k")]
    algebras += [rebased_triple(name).A for name in
                 ("dual_k", "prod_k", "trunc3_k")]
    return algebras


def test_dense_rank_equals_the_reference_on_every_oracle_matrix(monkeypatch):
    # Every row set the B = Q reduction battery ranks, up to its top
    # degree: each rank must equal the reference's on the densified rows,
    # the caller's rows must come back unchanged, and every oracle, the
    # Kahler one on a fractional table included, must hand it integer
    # rows, the only rows it takes.
    ranked = oracles.dense_rank
    row_kinds = set()

    def gated(M):
        before = [dict(row) for row in M]
        r = ranked(M)
        assert M == before
        assert all(type(x) is type(y) for row, old in zip(M, before)
                   for x, y in zip(row.values(), old.values()))
        assert r == _dense_rank_before(densify(M))
        row_kinds.update(frozenset(map(type, row.values())) for row in M)
        return r

    monkeypatch.setattr(oracles, "dense_rank", gated)
    for A in _reduction_algebras():
        n_max = _reduction_degree(A)
        classical_hh_dims(A, n_max)
        classical_hc_dims(A, n_max)
        if validate_algebra(A).commutative:  # the only A they serve
            classical_kahler_dim(A)
            classical_I_mod_I2_dim(A)
    assert row_kinds == {frozenset(), frozenset({int})}


def test_oracles_import_nothing_from_the_engine_linear_algebra():
    tree = ast.parse(inspect.getsource(oracles))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported and not any("linalg" in name for name in imported)


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
