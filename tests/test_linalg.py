"""Exact sparse linear algebra: subspaces, quotients, solvers."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest

from _shared import (ALL_NAMES, cube_over_prod, dense_matrix,
                     dual_over_trunc3_x, from_canonical, from_entries,
                     peel_sweeps, prod_over_prod_id, quotient_of_columns,
                     rebased, rebased_triple, relation_span_inputs,
                     rescaled_triple, shared_triple, sqzero_dual_x,
                     trunc3_over_dual_x2, value_columns)
from sechom.chains import boundary, cyclic_quotient
from sechom import linalg
from sechom.homology import _induced_boundary, hc, hh
from sechom.linalg import (AmbientDimensionError, ClassMapQuotient,
                           InternalCheckError, KernelTest, QuotientStructure,
                           SparseMat, Subspace, _dict_is_zero, _row_dicts,
                           colspace, induced_on_quotients, nullspace,
                           product_is_zero, solve, to_dense)
from sechom.triples import grading, regrade

F = Fraction


def test_subspace_basic_membership():
    S = Subspace(3, [[1, 0, 1], [0, 1, 1]])
    assert S.dim == 2
    assert S.contains([1, 1, 2])
    assert S.contains([F(1, 2), 0, F(1, 2)])
    assert not S.contains([0, 0, 1])


def test_subspace_canonical_under_generator_order():
    gens = [[2, 4, 6], [1, 1, 1], [3, 5, 7]]
    spans = []
    for perm in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
        spans.append(Subspace(3, [gens[i] for i in perm]))
    assert spans[0] == spans[1] == spans[2]
    assert spans[0].rows == spans[1].rows  # literally the same echelon data


def test_subspace_accepts_sparse_dict_vectors():
    S = Subspace(4, [{0: F(1), 3: F(-2)}, {1: F(5)}])
    assert S.dim == 2
    assert S.contains({0: F(2), 3: F(-4), 1: F(1)})


def test_subspace_zero_and_full():
    Z = Subspace(5)
    assert Z.dim == 0 and not Z.contains([1, 0, 0, 0, 0])
    E = Subspace(3, ({i: F(1)} for i in range(3)))
    assert E.dim == 3 and E.contains([7, -2, F(1, 3)])


def test_coords_of_round_trip_and_rejection():
    S = Subspace(3, [[1, 2, 0], [0, 0, 3]])
    v = [2, 4, 5]
    coords = S.coords_of(v)
    assert all(coords.values())  # sparse: no zero coordinates stored
    rebuilt = [sum(c * S.rows[k].get(i, 0) for k, c in coords.items())
               for i in range(3)]
    assert rebuilt == [F(x) for x in v]
    with pytest.raises(ValueError):
        S.coords_of([1, 0, 0])


def test_subspace_sum_and_order():
    S = Subspace(3, [[1, 0, 0]])
    T = Subspace(3, [[0, 1, 0]])
    U = S.sum(T)
    assert U.dim == 2
    assert all(U.contains(row) for row in S.rows + T.rows)
    with pytest.raises(AmbientDimensionError):
        S.sum(Subspace(4, [[1, 0, 0, 0]]))


def test_reduce_length_checked():
    # Trailing zeros are harmless padding; a live entry past the ambient
    # dimension is an error.
    S = Subspace(3, [[1, 0, 0]])
    assert S.reduce([1, 0, 0, 0]) == {}
    with pytest.raises(AmbientDimensionError):
        S.reduce({5: F(1)})


def test_sparse_matrix_constructors_agree():
    entries = [(0, 0, F(1)), (1, 0, F(-2)), (0, 2, F(1, 3))]
    M = from_entries(2, 3, entries)
    N = SparseMat.from_columns(2, [{0: F(1), 1: F(-2)}, {}, {0: F(1, 3)}])
    assert M == N
    assert value_columns(M) == {0: {0: F(1), 1: F(-2)}, 2: {0: F(1, 3)}}
    assert M.nnz == 3


def test_sparse_matrix_bounds_checked():
    with pytest.raises(AmbientDimensionError):
        SparseMat.from_columns(2, [{2: F(1)}, {}])
    for cols in ({5: {9: 1}}, {2: {0: 1}}, {-1: {0: 1}}, {0: {2: 1}},
                 {1: {-1: 1}}, {0: [0, 0, 1]}):
        with pytest.raises(AmbientDimensionError):
            SparseMat(2, 2, cols)
    assert SparseMat(2, 2, {1: {1: 3}, 0: [F(1, 2), 0]}) == from_entries(
        2, 2, [(1, 1, F(3)), (0, 0, F(1, 2))])
    M = SparseMat.identity(2)
    with pytest.raises(AmbientDimensionError):
        M.column(5)


def test_matvec_matches_dense():
    M = from_entries(2, 3, [(0, 0, F(2)), (1, 1, F(3)), (0, 2, F(-1))])
    v = [F(1), F(1, 3), F(2)]
    dense = dense_matrix(M)
    expect = [sum(row[j] * v[j] for j in range(3)) for row in dense]
    assert to_dense(M.matvec(v), 2) == expect
    sparse_out = M.matvec({0: F(1), 1: F(1, 3), 2: F(2)})
    assert to_dense(sparse_out, 2) == expect
    with pytest.raises(AmbientDimensionError):
        M.matvec({3: F(1)})


def test_matmul_add_transpose():
    A = from_entries(2, 2, [(0, 0, F(1)), (0, 1, F(2)), (1, 1, F(1))])
    B = from_entries(2, 2, [(0, 1, F(1)), (1, 0, F(3))])
    C = A @ B
    assert dense_matrix(C) == [[F(6), F(1)], [F(3), F(0)]]
    assert A.transpose().transpose() == A
    with pytest.raises(AmbientDimensionError):
        A @ SparseMat.identity(3)


def test_rank_nullspace_rowspace_colspace():
    M = from_entries(3, 3, [
        (0, 0, F(1)), (0, 1, F(2)), (1, 0, F(2)), (1, 1, F(4)), (2, 2, F(1))])
    assert colspace(M).dim == 2
    ker = nullspace(M)
    assert ker.dim == 1
    for row in ker.rows:
        assert not M.matvec(row)
    assert Subspace(M.ncols, _row_dicts(M)).dim == 2
    assert colspace(M).dim == 2


def test_solve_finds_and_rejects():
    M = from_entries(2, 2, [(0, 0, F(1)), (1, 1, F(2))])
    x = solve(M, [F(3), F(5)])
    assert x is not None
    assert M.matvec(x) == {0: F(3), 1: F(5)}
    singular = from_entries(2, 1, [(0, 0, F(1))])
    assert solve(singular, [F(0), F(1)]) is None
    with pytest.raises(AmbientDimensionError):
        solve(M, [F(1), F(0), F(5)])


def test_quotient_projection_section_identities():
    rel = Subspace(4, [[1, 1, 0, 0], [0, 0, 1, -1]])
    Q = QuotientStructure(4, rel)
    assert Q.dim == 2
    for j in range(Q.dim):
        unit = [F(1) if t == j else F(0) for t in range(Q.dim)]
        assert Q.project(Q.section(unit)) == {j: F(1)}
        assert Q.section({j: F(1)}) == {Q.nonpivots[j]: F(1)}
    v = [F(3), F(1), F(2), F(7)]
    back = to_dense(Q.section(Q.project(v)), 4)
    assert rel.contains([a - b for a, b in zip(v, back)])
    with pytest.raises(AmbientDimensionError):
        Q.section({Q.dim: F(1)})
    assert Q.project_matrix() @ Q.section_matrix() == SparseMat.identity(Q.dim)


def test_quotient_relations_ambient_checked():
    with pytest.raises(AmbientDimensionError):
        QuotientStructure(3, Subspace(4, [[1, 0, 0, 0]]))


def test_class_map_quotient_equals_the_quotient_by_its_relations():
    # The map read directly (project, project_matrix, section) against the
    # generic quotient by the relations it forms, and those relations
    # against elimination of their generators.
    rng = random.Random(15)
    for _ in range(40):
        n = rng.randrange(1, 9)
        Q = _random_class_map(rng, n)
        gens = [{i: 1} if a is None else {i: 1, a: -s}
                for i, (a, s) in enumerate(zip(Q.axis, Q.sign)) if a != i]
        assert Q.relations == Subspace(n, gens)
        ref = QuotientStructure(n, Q.relations)
        assert Q.nonpivots == ref.nonpivots
        assert Q.project_matrix() == ref.project_matrix()
        assert Q.section_matrix() == ref.section_matrix()
        for _ in range(5):
            v = _random_sparse(rng, n, rng.randrange(0, n + 1))
            assert Q.project(v) == ref.project(v)
            _assert_sparse_result(Q.project(v), Q.dim)
        assert Q.project(to_dense({}, n)) == {}
    with pytest.raises(AmbientDimensionError):
        ClassMapQuotient([0, None], [1, 0]).project({2: 1})


def test_single_rows_equal_the_canonical_rows():
    S = Subspace(4, [[2, 4, 0, 6], [0, 0, 3, 1], [0, 1, 1, 1]])
    assert [S.row(k) for k in range(S.dim)] == S.rows


def test_induced_map_compatibility_enforced():
    Q = ClassMapQuotient([1, 1], [1, 1])  # e_0 and e_1 are one class
    assert Q.relations == Subspace(2, [[1, -1]])
    flip = from_entries(2, 2, [(0, 1, F(1)), (1, 0, F(1))])
    ind = induced_on_quotients(flip, Q, Q)
    assert ind == SparseMat.identity(1)
    bad = from_entries(2, 2, [(0, 0, F(1))])  # kills one summand
    with pytest.raises(InternalCheckError):
        induced_on_quotients(bad, Q, Q)


def test_random_span_membership_and_rank_nullity():
    rng = random.Random(20240817)
    for _ in range(25):
        nrows = rng.randrange(1, 5)
        ncols = rng.randrange(1, 6)
        entries = []
        for r in range(nrows):
            for c in range(ncols):
                if rng.random() < 0.5:
                    entries.append((r, c, F(rng.randrange(-4, 5))))
        M = from_entries(nrows, ncols, entries)
        assert colspace(M).dim + nullspace(M).dim == ncols
        S = colspace(M)
        combo = [F(0)] * nrows
        for c in range(ncols):
            w = F(rng.randrange(-3, 4))
            for i, x in M.column(c).items():
                combo[i] += w * x
        assert S.contains(combo)


def test_random_quotient_consistency():
    rng = random.Random(5)
    for _ in range(15):
        amb = rng.randrange(1, 6)
        gens = [[F(rng.randrange(-2, 3)) for _ in range(amb)]
                for _ in range(rng.randrange(0, amb + 1))]
        rel = Subspace(amb, gens)
        Q = QuotientStructure(amb, rel)
        assert Q.dim == amb - rel.dim
        v = [F(rng.randrange(-5, 6)) for _ in range(amb)]
        u = [F(rng.randrange(-5, 6)) for _ in range(amb)]
        lhs = to_dense(Q.project([a + b for a, b in zip(v, u)]), Q.dim)
        rhs = [a + b for a, b in zip(to_dense(Q.project(v), Q.dim),
                                     to_dense(Q.project(u), Q.dim))]
        assert lhs == rhs


def _reduce_full_scan(S, v):
    """Reference reduction: every stored row in pivot order."""
    v = {i: F(x) for i, x in v.items() if x}
    for p, row in zip(S.pivots, S.rows):
        c = v.get(p)
        if c:
            for i, x in row.items():
                y = v.get(i, F(0)) - c * x
                if y:
                    v[i] = y
                else:
                    v.pop(i, None)
    return v


def _random_sparse(rng, amb, nnz):
    return {rng.randrange(amb): F(rng.randrange(-4, 5), rng.randrange(1, 4))
            for _ in range(nnz)}


def test_reduce_matches_full_scan():
    rng = random.Random(77)
    for _ in range(40):
        amb = rng.randrange(1, 12)
        S = Subspace(amb, [_random_sparse(rng, amb, rng.randrange(1, 4))
                           for _ in range(rng.randrange(0, amb + 2))])
        for _ in range(5):
            v = _random_sparse(rng, amb, rng.randrange(0, amb + 1))
            assert S.reduce(v) == _reduce_full_scan(S, v)
    W = cyclic_quotient(shared_triple("dual_dual_x"), 3).relations
    for _ in range(200):
        v = _random_sparse(rng, W.ambient_dim, rng.randrange(1, 9))
        assert W.reduce(v) == _reduce_full_scan(W, v)


def _assert_sparse_result(v, n):
    """A vector result: a dict with keys in range(n) and no zero value."""
    assert type(v) is dict
    assert all(type(i) is int and 0 <= i < n for i in v)
    assert all(type(x) is F and x != 0 for x in v.values())


def test_vector_results_are_sparse_dicts():
    # Draws as in test_reduce_matches_full_scan (zero entries included);
    # inputs alternate between sparse dicts and dense lists.
    rng = random.Random(77)
    for trial in range(40):
        amb = rng.randrange(1, 12)
        gens = [_random_sparse(rng, amb, rng.randrange(1, 4))
                for _ in range(rng.randrange(0, amb + 2))]
        S = Subspace(amb, gens)
        Q = QuotientStructure(amb, S)
        M = SparseMat.from_columns(amb, gens)
        for _ in range(5):
            v = _random_sparse(rng, amb, rng.randrange(0, amb + 1))
            c = _random_sparse(rng, len(gens), len(gens)) if gens else {}
            q = _random_sparse(rng, Q.dim, Q.dim) if Q.dim else {}
            if trial % 2:
                v = [v.get(i, 0) for i in range(amb)]
                c = [c.get(i, 0) for i in range(len(gens))]
                q = [q.get(j, 0) for j in range(Q.dim)]
            _assert_sparse_result(S.reduce(v), amb)
            _assert_sparse_result(Q.project(v), Q.dim)
            _assert_sparse_result(Q.section(q), amb)
            image = M.matvec(c)
            _assert_sparse_result(image, amb)
            _assert_sparse_result(S.coords_of(image), S.dim)
            _assert_sparse_result(solve(M, image), M.ncols)
            x = solve(M, v)
            if x is not None:
                _assert_sparse_result(x, M.ncols)


def test_from_canonical_round_trip_and_rejection():
    S = Subspace(4, [[1, 2, 0, 3], [0, 0, 1, 5]])
    T = from_canonical(4, S.rows, S.pivots)
    assert T == S and T._pivot_pos == S._pivot_pos
    # Rows of ints are copied as they are, alone or next to Fraction rows.
    rows = [{0: 1, 1: 2, 3: 3}, {2: 1, 3: 5}]
    U = from_canonical(4, rows, [0, 2])
    assert from_canonical(4, [rows[0], S.rows[1]], [0, 2]) == S
    rows[0][1] = 7
    assert U == S
    with pytest.raises(ValueError):
        from_canonical(4, [{0: F(2)}], [0])  # pivot not 1
    with pytest.raises(ValueError):
        from_canonical(4, [{0: 2, 1: 1}], [0])
    with pytest.raises(ValueError):
        from_canonical(4, [{0: F(1), 2: F(1)}, {2: F(1)}], [0, 2])
    with pytest.raises(ValueError):
        from_canonical(4, [{1: F(1)}, {0: F(1)}], [1, 0])
    with pytest.raises(ValueError):
        from_canonical(4, [{3: F(1), 4: F(1)}], [3])
    with pytest.raises(ValueError):
        from_canonical(3, [{-1: 1, 0: 2}], [-1])  # negative pivot


def _fraction_rref(ambient_dim, vectors):
    """Test-local copy of the Fraction elimination that the fraction-free
    one replaced (echelon inserts with content stripping, then a full
    back-substitution); returns (rows, pivots, pivot positions)."""
    rows, pivots, pos = [], [], {}

    def axpy(v, c, w):
        for i, x in w.items():
            y = v.get(i, F(0)) + c * x
            if y:
                v[i] = y
            else:
                v.pop(i, None)

    for v in vectors:
        items = v.items() if isinstance(v, dict) else enumerate(v)
        v = {i: F(x) for i, x in items if x}
        while v:
            lead = min(v)
            p = pos.get(lead)
            if p is None:
                break
            axpy(v, -v[lead] / rows[p][lead], rows[p])
        if not v:
            continue
        den = lcm(*(x.denominator for x in v.values()))
        num = gcd(*(x.numerator * (den // x.denominator) for x in v.values()))
        scale = F(den, num) if v[lead] > 0 else F(-den, num)
        v = {i: x * scale for i, x in v.items()}
        at = sum(1 for p in pivots if p < lead)
        rows.insert(at, v)
        pivots.insert(at, lead)
        pos = {p: i for i, p in enumerate(pivots)}
    for i in range(len(rows) - 1, -1, -1):
        for j in range(i + 1, len(rows)):
            c = rows[i].get(pivots[j])
            if c:
                axpy(rows[i], -c / rows[j][pivots[j]], rows[j])
        lead = rows[i][pivots[i]]
        rows[i] = {k: x / lead for k, x in rows[i].items()}
    return rows, pivots, pos


def _assert_same_rref(ambient_dim, vectors):
    """Subspace built from the vectors in order, and through `add` in a
    shuffled order, against the Fraction elimination."""
    S = Subspace(ambient_dim, vectors)
    rows, pivots, pos = _fraction_rref(ambient_dim, vectors)
    assert S.rows == rows
    assert S.pivots == pivots
    assert S._pivot_pos == pos
    assert all(type(x) is F for row in S.rows for x in row.values())
    shuffled = list(vectors)
    random.Random(len(shuffled)).shuffle(shuffled)
    U = Subspace(ambient_dim)
    grew = [U.add(v) for v in shuffled]
    assert sum(grew) == U.dim
    assert U == S and U.rows == rows and U._pivot_pos == pos


def _nullspace_by_second_elimination(M):
    """Test-local copy of the kernel path that the closed form replaced:
    free column f gives e_f minus the sum of rows[p][f] * e_p over the
    pivots of the row space, and a second Subspace eliminates those."""
    R = Subspace(M.ncols, _row_dicts(M))
    held = {}
    for p, row in zip(R.pivots, R._int_rows):
        for c, x in row.items():
            if c != p:
                held.setdefault(c, []).append((p, x, row[p]))
    basis = []
    for f in range(M.ncols):
        if f in R._pivot_pos:
            continue
        terms = held.get(f, ())
        scale = lcm(*(r for _, _, r in terms))
        v = {f: scale}
        for p, x, r in terms:
            v[p] = -x * (scale // r)
        basis.append(v)
    return Subspace(M.ncols, basis)


def _assert_same_nullspace(M):
    K, ref = nullspace(M), _nullspace_by_second_elimination(M)
    assert K.pivots == ref.pivots
    assert K._int_rows == ref._int_rows
    assert K._pivot_pos == ref._pivot_pos
    assert K.rows == ref.rows


def test_fraction_free_elimination_matches_fraction_elimination():
    rng = random.Random(1968)
    for trial in range(300):
        amb = rng.randrange(1, 10)
        density = rng.choice([0.2, 0.5, 1.0])
        big = rng.choice([1, 10 ** 12])
        vectors = []
        for _ in range(rng.randrange(0, amb + 4)):
            v = {}
            for i in range(amb):
                if rng.random() < density:
                    v[i] = F(rng.randrange(-9, 10) * big, rng.randrange(1, 8))
            vectors.append(v if trial % 2 else [v.get(i, 0) for i in range(amb)])
        _assert_same_rref(amb, vectors)
        _assert_same_nullspace(SparseMat.from_columns(amb, vectors).transpose())
        if vectors:
            half = len(vectors) // 2
            U = Subspace(amb, vectors[:half]).sum(Subspace(amb, vectors[half:]))
            assert U == Subspace(amb, vectors)


def test_fraction_free_elimination_matches_on_catalog_inputs(monkeypatch):
    # Every Subspace that hh and hc construct up to degree 3 on the
    # catalog: per call, the row space in nullspace and one homology
    # relation span per weight block of the next boundary's columns that
    # has cycles neither one-entry boundary columns nor the peel settle
    # (the live cycles), which starts empty and grows through `add` (gated
    # in test_relation_span_stops_once_full_with_the_same_canonical_form).
    # nullspace wraps its kernel rows without a second elimination (gated
    # in the nullspace tests below).
    inputs = []
    orig = Subspace.__init__

    def recording(self, ambient_dim, vectors=()):
        vectors = list(vectors)
        inputs.append((ambient_dim, vectors))
        orig(self, ambient_dim, vectors)

    for name in ALL_NAMES:  # memoized, so found before recording starts
        grading(shared_triple(name))
        regrade(shared_triple(name))
    monkeypatch.setattr(Subspace, "__init__", recording)
    for name in ALL_NAMES:
        T = shared_triple(name)
        for n in range(4):
            hh(T, n)
            hc(T, n)
    monkeypatch.undo()
    blocks = 0
    for name in ALL_NAMES:
        for n in range(4):
            for flavor in ("hh", "hc"):
                cycles, cols, weights = relation_span_inputs(
                    shared_triple(name), flavor, n)
                settled = peel_sweeps(cycles, cols)[0]
                blocks += len({weights[p] for p in cycles.pivots
                               if p not in settled}
                              & {weights[min(col)] for col in cols})
    assert len(inputs) == 2 * 4 * len(ALL_NAMES) + blocks
    for ambient_dim, vectors in inputs:
        _assert_same_rref(ambient_dim, vectors)


# -- equality gates for the integer core -----------------------------------
#
# Test-local Fraction copies of the matrix and reduction code that the
# integer numerators replaced.  Matrices enter them as {column: {row:
# Fraction}}, read through the public entries by value_columns.

def _frac_axpy(v, c, w):
    for i, x in w.items():
        y = v.get(i, F(0)) + c * x
        if y:
            v[i] = y
        else:
            v.pop(i, None)


def _frac_times(cols, v):
    acc = {}
    for c, x in v.items():
        if cols.get(c):
            _frac_axpy(acc, x, cols[c])
    return acc


def _frac_matmul(a_cols, b_cols):
    out = {}
    for c, col in b_cols.items():
        acc = _frac_times(a_cols, col)
        if acc:
            out[c] = acc
    return out


def _frac_reduce(S, v):
    pos = {p: k for k, p in enumerate(S.pivots)}
    v = {i: F(x) for i, x in v.items() if x}
    for p in [p for p in v if p in pos]:
        _frac_axpy(v, -v[p], S.rows[pos[p]])
    return v


def _frac_project_matrix(Q):
    pos = {c: i for i, c in enumerate(Q.nonpivots)}
    cols = {c: {i: F(1)} for c, i in pos.items()}
    for p, row in zip(Q.relations.pivots, Q.relations.rows):
        col = {pos[c]: -x for c, x in row.items() if c in pos}
        if col:
            cols[p] = col
    return cols


def _frac_induced(M, src, dst):
    m_cols = value_columns(M)
    for row in src.relations.rows:
        if _frac_reduce(dst.relations, _frac_times(m_cols, row)):
            return None
    sect = {i: {c: F(1)} for i, c in enumerate(src.nonpivots)}
    return _frac_matmul(_frac_matmul(_frac_project_matrix(dst), m_cols), sect)


def _assert_integer_core_matches(M, N, vectors, dst):
    """M @ N, M.matvec on the vectors, and reduce/contains/project of
    their images (alone and shifted by relations) against dst's relations,
    each against the Fraction copy."""
    m_cols = value_columns(M)
    assert value_columns(M @ N) == _frac_matmul(m_cols, value_columns(N))
    R = dst.relations
    inside = {}
    for k, row in enumerate(R.rows[:3]):
        _frac_axpy(inside, F(2 * k - 3, k + 2), row)
    for v in vectors:
        image = M.matvec(v)
        assert image == _frac_times(m_cols, v)
        shifted = dict(image)
        _frac_axpy(shifted, F(1), inside)
        for w in (image, shifted, inside):
            rem = _frac_reduce(R, w)
            assert R.reduce(w) == rem
            assert R.contains(w) == (not rem)
            axes = dst.nonpivots
            assert dst.project(w) == {axes.index(c): x for c, x in rem.items()}


def _assert_induced_matches(M, src, dst):
    """The map M induces between class-map quotients against the Fraction
    copy, which reads only their relations and non-pivots."""
    ref = _frac_induced(M, src, dst)
    if ref is None:
        with pytest.raises(InternalCheckError):
            induced_on_quotients(M, src, dst)
    else:
        assert value_columns(induced_on_quotients(M, src, dst)) == ref


def _random_rational(rng, big):
    return F(rng.randrange(-9, 10) * big + rng.randrange(-9, 10),
             rng.randrange(1, 8))


def _random_class_map(rng, n):
    """A signed class map on n indices: a random partition into classes of
    one to three indices, about a quarter of them dead, the others with
    random signs off their axis, the largest index."""
    order = list(range(n))
    rng.shuffle(order)
    axis, sign = [None] * n, [0] * n
    while order:
        size = rng.randrange(1, 4)
        members, order = order[:size], order[size:]
        if rng.random() < 0.25:
            continue
        m = max(members)
        for i in members:
            axis[i], sign[i] = m, 1 if i == m else rng.choice([1, -1])
    return ClassMapQuotient(axis, sign)


def test_integer_core_matches_fraction_code_on_random_inputs():
    rng = random.Random(1968)
    for trial in range(150):
        big = rng.choice([1, 10 ** 12])  # entries up to about 10^13 / 7
        n, m, k = (rng.randrange(1, 7) for _ in range(3))

        def rand_mat(rows, cols):
            return from_entries(rows, cols, [
                (r, c, _random_rational(rng, big))
                for r in range(rows) for c in range(cols)
                if rng.random() < 0.6])

        def relation(Q):
            """A random element of Q's relations."""
            out = {}
            for row in Q.relations.rows:
                _frac_axpy(out, _random_rational(rng, big), row)
            return out

        M, N = rand_mat(n, m), rand_mat(m, k)
        gens = [{i: _random_rational(rng, big) for i in range(n)
                 if rng.random() < 0.5} for _ in range(rng.randrange(0, n))]
        vectors = [{i: _random_rational(rng, big) for i in range(m)
                    if rng.random() < 0.5} for _ in range(4)]
        _assert_integer_core_matches(M, N, vectors,
                                     QuotientStructure(n, Subspace(n, gens)))
        # Class maps, with M changed on odd trials so that it descends: a
        # column off an axis becomes its sign times the axis column, or 0
        # on a dead class, plus a random relation of dst.
        src, dst = _random_class_map(rng, m), _random_class_map(rng, n)
        _assert_integer_core_matches(M, N, vectors, dst)
        if trial % 2:
            cols = value_columns(M)
            for i, (a, s) in enumerate(zip(src.axis, src.sign)):
                if a != i:
                    col = relation(dst)
                    if a is not None:
                        _frac_axpy(col, F(s), cols.get(a, {}))
                    cols[i] = col
            M = SparseMat(n, m, cols)
        _assert_induced_matches(M, src, dst)


def test_integer_core_matches_fraction_code_on_catalog_boundaries():
    # d_n @ d_(n+1), boundary columns reduced against and projected onto
    # the degree n-1 coinvariants, and the induced boundary, for n <= 3;
    # the rescaled triples have boundaries over denominators 9 to 243.
    triples = [shared_triple(name) for name in ALL_NAMES]
    triples += [rescaled_triple("dual_dual_x"), rescaled_triple("trunc3_k")]
    for T in triples:
        for n in range(1, 4):
            d = boundary(T, n)
            d_next = boundary(T, n + 1) if n < 3 else SparseMat.zeros(d.ncols, 0)
            vectors = [{c: F(1), (5 * c + 1) % d.ncols: F(-3, 2)}
                       for c in range(0, d.ncols, 7)]
            _assert_integer_core_matches(d, d_next, vectors,
                                         cyclic_quotient(T, n - 1))
            _assert_induced_matches(d, cyclic_quotient(T, n),
                                    cyclic_quotient(T, n - 1))
    assert boundary(triples[-1], 3).den > 1


def test_matrices_and_subspaces_built_at_two_scalings_are_equal():
    M = SparseMat.from_ints(2, 3, {0: {0: 4, 1: -6}, 2: {1: 2}}, 6)
    N = SparseMat.from_ints(2, 3, {0: {0: 2, 1: -3}, 2: {1: 1}}, 3)
    assert M == N == SparseMat(2, 3, {0: {0: F(2, 3), 1: F(-1)},
                                      2: {1: F(1, 3)}})
    assert (M.num, M.den) == (N.num, N.den)
    # Products whose factors carry opposite scalings: (3M)(N/3) = MN.
    three = SparseMat.from_ints(2, 2, {0: {0: 3}, 1: {1: 3}})
    third = SparseMat.from_ints(3, 3, {c: {c: 1} for c in range(3)}, 3)
    assert (three @ M) @ third == M
    S = Subspace(3, [[F(1, 2), F(3, 2), 0], [0, 0, F(7, 3)]])
    assert S == Subspace(3, [[2, 6, 0], [0, 0, -1]])


def test_subspace_order_needs_one_ambient_space():
    small, big = Subspace(2, [[1, 0]]), Subspace(3, [[0, 0, 1]])
    with pytest.raises(AmbientDimensionError):
        small.contains(big.rows[0])
    with pytest.raises(AmbientDimensionError):
        small.sum(big)


def test_closed_form_nullspace_matches_second_elimination():
    # Every catalog boundary and induced boundary for n <= 3, on the
    # catalog, on the rescaled triples and, up to degree 2, on a rebased
    # triple; the random inputs are in the fraction-free elimination test.
    triples = [shared_triple(name) for name in ALL_NAMES]
    triples += [rescaled_triple("dual_dual_x"), rescaled_triple("trunc3_k")]
    for T in triples:
        for n in range(4):
            _assert_same_nullspace(boundary(T, n))
            _assert_same_nullspace(_induced_boundary(T, n))
    T = rebased_triple("dual_dual_x")
    for n in range(3):
        _assert_same_nullspace(boundary(T, n))
        _assert_same_nullspace(_induced_boundary(T, n))
    # Degree 3, where the second elimination takes about 10 s: rows in
    # canonical form, each killed by the boundary, as many as the nullity,
    # can only be the kernel's canonical form.
    d = boundary(T, 3)
    K = nullspace(d)
    assert from_canonical(d.ncols, K.rows, K.pivots) == K
    assert not any(d.matvec(row) for row in K.rows)
    assert K.dim == d.ncols - colspace(d).dim == 968


def test_nullspace_checks_each_kernel_row(monkeypatch):
    M = from_entries(1, 2, [(0, 0, F(1)), (0, 1, F(1))])
    assert nullspace(M).rows == [{0: F(1), 1: F(-1)}]
    monkeypatch.setattr(SparseMat, "_times", lambda self, v: {0: 1})
    with pytest.raises(InternalCheckError, match="not in the kernel"):
        nullspace(M)
    # A dense boundary's kernel rows are checked on the packed path: packed
    # as the identity, M kills no nonzero row.
    monkeypatch.undo()
    real = linalg._packed_columns
    monkeypatch.setattr(linalg, "_packed_columns",
                        lambda M, b: real(SparseMat.identity(M.ncols), b))
    with pytest.raises(InternalCheckError, match="not in the kernel"):
        nullspace(boundary(rebased_triple("dual_dual_x"), 2))


def _cycle_coordinates(cycles, cols):
    pos = cycles._pivot_pos
    return [{pos[p]: x for p, x in col.items() if p in pos} for col in cols]


class _RecordedColumn(dict):
    """A column that logs its number each time its entries are read with
    their values (`items`), as a weight block reads a column it strips."""

    def __init__(self, col, number, log):
        super().__init__(col)
        self.number, self.log = number, log

    def items(self):
        self.log.append(self.number)
        return super().items()


def test_relation_span_stops_once_full_with_the_same_canonical_form(
        monkeypatch):
    # The homology relations of hh and hc up to degree 3 on the catalog,
    # and up to degree 1 on rebased dual_dual_x (one block, whose span
    # stalls: after the peel no catalog block up to degree 3 kills a
    # column while it has homology), against the Fraction elimination of
    # every boundary column.  The weight blocks are read one after the
    # other, each block's columns in order and each at most once, and
    # feed `add` each column with two or more live coordinates, stripped
    # of the settled ones (those of the one-entry columns and of the
    # peel, found here by `peel_sweeps`).  A column that never reaches
    # `add` is a one-entry column, a peeled column (it had exactly one
    # live coordinate in a sweep), strips to zero, lies in a block that
    # spans all the cycles of its weight (its block was full), or
    # was read and killed by its block's projection: it lies in the span
    # of the stripped columns of its block that reached `add` before it.
    fed: dict = {}  # column number -> the vector `add` was given
    read: list = []  # numbers of the columns the blocks read, in order
    orig = Subspace.add

    def recording(self, v):
        fed[read[-1]] = dict(v)
        return orig(self, v)

    counts = Counter()
    inputs = [(shared_triple(name), range(4)) for name in ALL_NAMES]
    inputs.append((rebased_triple("dual_dual_x"), range(2)))
    for T, degrees in inputs:
        for n in degrees:
            for flavor in ("hh", "hc"):
                cycles, cols, weights = relation_span_inputs(T, flavor, n)
                read.clear()
                fed.clear()
                monkeypatch.setattr(Subspace, "add", recording)
                Q = quotient_of_columns(cycles, [
                    _RecordedColumn(col, k, read)
                    for k, col in enumerate(cols)], weights)
                monkeypatch.undo()
                blocks = [weights[min(cols[k])] for k in read]
                assert len(read) == len(set(read))
                assert [w for i, w in enumerate(blocks)
                        if i == 0 or blocks[i - 1] != w] == list(
                            dict.fromkeys(blocks))
                assert all(a < b for a, b, u, v in zip(
                    read, read[1:], blocks, blocks[1:]) if u == v)
                was_read = set(read)
                vectors = _cycle_coordinates(cycles, cols)
                rows, pivots, _ = _fraction_rref(cycles.dim, vectors)
                assert Q.relations.rows == rows
                assert Q.relations.pivots == pivots
                settled_pivots, peeled = peel_sweeps(cycles, cols)
                settled = {cycles._pivot_pos[p] for p in settled_pivots}
                assert all(Q.relations.rows[Q.relations._pivot_pos[k]]
                           == {k: 1} for k in settled)
                stripped = [{k: x for k, x in v.items() if k not in settled}
                            for v in vectors]
                cycle_weights = [weights[p] for p in cycles.pivots]
                spanned = Counter(cycle_weights[j] for j in Q.relations.pivots)
                full = {w for w, k in Counter(cycle_weights).items()
                        if spanned[w] == k}
                before: dict = {}  # weight -> span of the columns fed so far
                for k, col in enumerate(cols):
                    w = weights[min(col)]
                    span = before.setdefault(w, Subspace(cycles.dim))
                    if k in was_read:
                        assert k not in peeled and len(stripped[k]) > 1
                    if k in fed:
                        assert fed[k] == stripped[k]
                        span.add(stripped[k])
                    elif k in was_read:
                        assert span.contains(stripped[k])
                        counts["killed"] += 1
                        counts["killed with homology"] += Q.dim > 0
                    elif len(col) == 1:
                        counts["unit"] += 1
                    elif k in peeled:
                        counts["peeled"] += 1
                    elif not stripped[k]:
                        counts["stripped to zero"] += 1
                    else:
                        assert w in full
                        counts["full block"] += 1
    assert all(counts[c] for c in ("unit", "peeled", "stripped to zero",
                                   "full block", "killed",
                                   "killed with homology")), counts


def test_relation_span_over_b_other_than_q_matches_fraction_elimination():
    # The five triples of tests/_shared.py whose B is not the ground field
    # (one-entry columns from degree 1 up) and their rebased twins (dense,
    # one block, at most two one-entry columns), hh and hc in degrees 0..2,
    # against the Fraction elimination of the boundary columns.  A twin's
    # degree-2 span reads about 48 evenly spaced columns: the Fraction
    # elimination of all of them takes 49-78 s per twin, and its entries
    # grow fast on the dense twin of dual_over_trunc3_x.
    for make in (trunc3_over_dual_x2, prod_over_prod_id, cube_over_prod,
                 dual_over_trunc3_x, sqzero_dual_x):
        T = make()
        for twin in (T, rebased(T)):
            for n in range(3):
                for flavor in ("hh", "hc"):
                    cycles, cols, weights = relation_span_inputs(twin, flavor,
                                                                 n)
                    if twin is not T and n == 2:
                        cols = cols[::len(cols) // 48]
                    Q = quotient_of_columns(cycles, cols, weights)
                    rows, pivots, _ = _fraction_rref(
                        cycles.dim, _cycle_coordinates(cycles, cols))
                    assert Q.relations.rows == rows, (twin.name, flavor, n)
                    assert Q.relations.pivots == pivots


@pytest.fixture(scope="module")
def rebased_dual_dual_x():
    """Rebased dual_dual_x, shared by the degree-three tests of this file,
    so that its memoized boundary(4) (1.63M nonzeros) is built once."""
    return rebased_triple("dual_dual_x")


def test_rebased_degree_three_relation_slice_matches_fraction_elimination(
        rebased_dual_dual_x):
    # Every 256th column of the rebased dual_dual_x boundary(4) (1.63M
    # nonzeros), in coordinates on the 968 cycles of degree 3: dense
    # inputs whose elimination fills in.  The Fraction reference keeps the
    # slice small; it takes about 30 s on every 64th column.
    T = rebased_dual_dual_x
    cycles = nullspace(boundary(T, 3))
    d4 = boundary(T, 4)
    cols = [d4.num[c] for c in sorted(d4.num)[::256]]
    vectors = _cycle_coordinates(cycles, cols)
    assert len(vectors) == 128 and Subspace(cycles.dim, vectors).dim == 115
    _assert_same_rref(cycles.dim, vectors)


# -- packed zero tests ------------------------------------------------------

def _packed(M, N) -> bool:
    """The packed zero test of M N, M packed once for N's widest column."""
    cols = N.num.values()
    test = KernelTest(M)
    test.pack(max(map(sum, (map(abs, col.values()) for col in cols))))
    return all(map(test.kills, cols))


def _both_paths_are_zero(M, N) -> bool:
    """The verdict of the packed and the dict zero test of M N, which must
    agree with the product formed in full."""
    want = (M @ N).is_zero()
    assert _dict_is_zero(M, N.num.values()) == want
    if M.num and N.num:
        assert _packed(M, N) == want
    assert product_is_zero(M, N) == want
    return want


def _boundary_pairs(T, top):
    for n in range(top + 1):
        yield boundary(T, n), boundary(T, n + 1)
        yield _induced_boundary(T, n), _induced_boundary(T, n + 1)


def test_packed_and_dict_zero_tests_match_the_product():
    # d after d, boundary and induced boundary, on the catalog and the
    # rescaled triples for n <= 3 and on the rebased ones for n <= 2.
    triples = [(shared_triple(name), 3) for name in ALL_NAMES]
    triples += [(rescaled_triple(name), 3) for name in ALL_NAMES]
    triples += [(rebased_triple(name), 2) for name in ALL_NAMES
                if name != "mat2_k"]
    for T, top in triples:
        for M, N in _boundary_pairs(T, top):
            assert _both_paths_are_zero(M, N), (T.name, M, N)
    # Random integer operands, many of them near the slot bound: products
    # that vanish (N built from the kernel of M) and products that do not.
    rng = random.Random(14)
    for trial in range(300):
        rows, inner = rng.randrange(1, 7), rng.randrange(1, 7)
        big = rng.choice([1, 7, 2 ** 40])
        M = SparseMat.from_columns(rows, [
            [rng.choice([0, big, -big, rng.randrange(-big, big + 1)])
             for _ in range(rows)] for _ in range(inner)])
        K = nullspace(M)
        cols = [{c: x * rng.choice([1, -3, big]) for c, x in row.items()}
                for row in K._int_rows]
        if trial % 2 and cols:
            cols[-1] = dict(cols[-1])
            k = rng.randrange(inner)
            cols[-1][k] = cols[-1].get(k, 0) + rng.choice([-1, 1])
            cols[-1] = {k: x for k, x in cols[-1].items() if x}
        N = SparseMat.from_columns(inner, [c for c in cols if c])
        _both_paths_are_zero(M, N)


def test_product_is_zero_packs_dense_operands_only(monkeypatch):
    packed = []
    real = linalg._packed_columns
    monkeypatch.setattr(linalg, "_packed_columns",
                        lambda *args: packed.append(1) or real(*args))
    T = shared_triple("dual_dual_x")
    assert product_is_zero(boundary(T, 3), boundary(T, 4))
    T = shared_triple("trunc3_k")
    assert product_is_zero(boundary(T, 6), boundary(T, 7))
    assert not packed
    T = rebased_triple("dual_dual_x")
    assert product_is_zero(boundary(T, 2), boundary(T, 3))
    assert packed


def _perturbed(N, k, c, delta):
    """N with delta added at row k of column c; the other columns are
    shared, not copied."""
    col = dict(N.num.get(c, {}))
    col[k] = col.get(k, 0) + delta
    num = dict(N.num)
    num[c] = {r: x for r, x in col.items() if x}
    return SparseMat.from_ints(N.nrows, N.ncols, num, N.den)


def _assert_perturbations_caught(M, N):
    # A column of M whose entry in the last row, the largest slot of the
    # packing, is nonzero; the column of N that sets the slot width; and
    # one entry changed in N.
    k = next(k for k, col in M.num.items() if M.nrows - 1 in col)
    wide = max(N.num, key=lambda c: sum(map(abs, N.num[c].values())))
    other = next(c for c in sorted(N.num) if c != wide)
    for c, delta in ((other, -1), (wide, -1), (wide, 1),
                     (wide, M.num[k][M.nrows - 1] * 2 ** 60)):
        bad = _perturbed(N, k, c, delta)
        assert not _packed(M, bad), (c, delta)
        assert not _dict_is_zero(M, bad.num.values())
        assert not product_is_zero(M, bad)


def test_packed_zero_test_catches_one_perturbed_entry():
    T = rebased_triple("dual_dual_x")
    M, N = boundary(T, 2), boundary(T, 3)
    assert product_is_zero(M, N)
    _assert_perturbations_caught(M, N)
    # Products whose only nonzero entry is in the last row, positive or
    # negative, and one whose lower rows cancel to exactly zero.
    M = SparseMat.from_ints(3, 2, {0: {0: 5, 1: -5, 2: 5}, 1: {0: 5, 1: -5}})
    for col, last in (({0: 1, 1: -1}, 5), ({0: -1, 1: 1}, -5),
                      ({0: 2 ** 70, 1: -(2 ** 70)}, 5 * 2 ** 70)):
        N = SparseMat.from_ints(2, 1, {0: col})
        assert (M @ N).num == {0: {2: last}}
        assert not _packed(M, N)
    M = SparseMat.from_ints(2, 2, {0: {0: 3, 1: -7}, 1: {0: -3, 1: 7}})
    N = SparseMat.from_ints(2, 1, {0: {0: 2 ** 70, 1: 2 ** 70}})
    assert (M @ N).is_zero() and _packed(M, N)
    for M, ones in _slot_overflow_cases():
        N = SparseMat.from_ints(M.ncols, 1, {0: ones})
        assert not _packed(M, N)
        assert not product_is_zero(M, N)


def _slot_overflow_cases():
    """Pairs (M, v) where M v = (y * 2^j, -y) reaches max|M| * sum|v|: the
    packed sum vanishes for a slot of exactly j bits, so a slot width that
    misjudges the largest entry is caught."""
    for y in (1, 2, 3):
        for a in (0, 1, 3, 20):
            for m in (1, 2, 4, 8, 16, 32, 64):
                num = {k: {0: y * 2 ** a} for k in range(m)}
                num[0][1] = -y
                M = SparseMat.from_ints(2, m, num)
                ones = dict.fromkeys(range(m), 1)
                assert M._times(ones) == {0: y * 2 ** a * m, 1: -y}
                yield M, ones


def test_kernel_test_repacks_for_wider_vectors():
    for M, ones in _slot_overflow_cases():
        test = KernelTest(M)
        assert not test.kills({0: 1})  # packs for vectors of width 2
        assert not test.kills(ones)
        if M.ncols > 2:
            assert test.kills({1: 1, 2: -1})
        assert KernelTest(M).kills({})


def test_product_is_zero_packs_for_the_widest_column_sum(monkeypatch):
    # Four copies of the all-ones column make product_is_zero pack M once
    # m >= 4; its slots must hold max|M| times the column's sum, m, and
    # not max|M| times its largest entry, 1.
    packed = []
    real = linalg._packed_columns
    monkeypatch.setattr(linalg, "_packed_columns",
                        lambda *args: packed.append(1) or real(*args))
    for M, ones in _slot_overflow_cases():
        N = SparseMat.from_ints(M.ncols, 4, {c: dict(ones) for c in range(4)})
        packed.clear()
        assert not product_is_zero(M, N)
        assert bool(packed) == (M.ncols >= 4)


def test_kernel_test_packed_for_a_room_takes_narrower_vectors_as_packed(
        monkeypatch):
    widths = []
    real = linalg._packed_columns
    monkeypatch.setattr(linalg, "_packed_columns",
                        lambda M, b: widths.append(b) or real(M, b))
    for M, ones in _slot_overflow_cases():
        top = max(abs(x) for col in M.num.values() for x in col.values())
        for room in (M.ncols, 2 * M.ncols):
            widths.clear()
            test = KernelTest(M)
            test.pack(room)
            assert widths == [test.slot_bits(room)]
            assert test.slot_bits(room) == (top * room).bit_length()
            vectors = [ones, {0: 1}, {0: room}, {M.ncols - 1: -room},
                       dict.fromkeys(range(M.ncols), -1)]
            if M.ncols > 2:
                vectors += [{1: 1, 2: -1}, {1: room // 2, 2: -(room // 2)}]
            for v in vectors:
                assert sum(map(abs, v.values())) <= room
                assert test.kills(v) == (not M._times(v))
            assert len(widths) == 1


def test_rebased_degree_three_square_is_zero_on_the_packed_path(
        rebased_dual_dual_x, monkeypatch):
    packed = []
    real = linalg._packed_columns
    monkeypatch.setattr(linalg, "_packed_columns",
                        lambda *args: packed.append(1) or real(*args))
    M, N = boundary(rebased_dual_dual_x, 3), boundary(rebased_dual_dual_x, 4)
    assert product_is_zero(M, N) and packed
    monkeypatch.undo()
    _assert_perturbations_caught(M, N)
