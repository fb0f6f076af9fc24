"""Chain spaces, face maps, boundaries, and the cyclic structure.

The low-degree boundary checks here are written against hand-coded
term-by-term formulas that do their own index arithmetic, so they share no
construction logic with the face-recipe machinery they test.
"""

import copy
import dataclasses
import gc
import weakref
from fractions import Fraction
from itertools import product

import pytest

from _shared import (ALL_NAMES, COMMUTATIVE_NAMES, coinvariant_relations,
                     cyclic_operator, dense_matrix, dense_rank_of_sparse,
                     one_minus_cyclic, rebased_triple,
                     reference_induced_on_quotients, reference_sandwich,
                     rescaled_triple, shared_triple, value_columns)
from sechom import chains, homology
from sechom.algebra import multiply
from sechom.chains import (_face_sum, boundary, chain_dim, chain_space,
                           cyclic_quotient, pair_list)
from sechom.differentials import omega
from sechom.kernel import kernel_data, symmetry_check
from sechom.linalg import (ClassMapQuotient, InternalCheckError,
                           QuotientStructure, SparseMat, colspace,
                           induced_on_quotients)
from sechom.triples import catalog
from sechom.oracles import bar_boundary, bar_rotation
from sechom.verify import verify_main

F = Fraction


def _basis(dim, i):
    return [F(1) if t == i else F(0) for t in range(dim)]


# -- dimensions and linearization ------------------------------------------

def test_pair_list_lexicographic():
    assert pair_list(0) == []
    assert pair_list(1) == [(0, 1)]
    assert pair_list(2) == [(0, 1), (0, 2), (1, 2)]
    assert pair_list(3) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for n in range(6):
        assert len(pair_list(n)) == n * (n + 1) // 2


def test_chain_dim_formula():
    for name in ALL_NAMES:
        T = shared_triple(name)
        dA, dB = T.A.dim, T.B.dim
        for n in range(5):
            expect = dA ** (n + 1) * dB ** (n * (n + 1) // 2)
            assert chain_dim(T, n) == expect
            assert chain_space(T, n).dim == expect
    with pytest.raises(ValueError):
        chain_dim(shared_triple("k_k"), -1)


def _digits(cs, ix: int) -> tuple:
    """Test-local inverse of linearize: the a-slot digits and the b-slot
    digits of basis tensor ix, most significant digit first."""
    digits = []
    for r in reversed(cs.radices):
        ix, d = divmod(ix, r)
        digits.append(d)
    digits.reverse()
    return tuple(digits[:cs.degree + 1]), tuple(digits[cs.degree + 1:])


def test_linearize_delinearize_round_trip():
    cs = chain_space(shared_triple("dual_dual_x"), 2)
    assert cs.dim == 64
    seen = set()
    for ix in range(cs.dim):
        a, b = _digits(cs, ix)
        assert cs.linearize(a, dict(zip(cs.pairs, b))) == ix
        seen.add((a, b))
    assert len(seen) == cs.dim


def test_linearize_rejects_bad_input():
    cs = chain_space(shared_triple("dual_dual_x"), 1)
    with pytest.raises(ValueError):
        cs.linearize((0,), {(0, 1): 0})          # wrong a-slot count
    with pytest.raises(ValueError):
        cs.linearize((0, 0), {(1, 2): 0})        # unknown pair
    with pytest.raises(ValueError):
        cs.linearize((0, 0))                     # missing pair, dim B > 1
    with pytest.raises(ValueError):
        cs.linearize((0, 2), {(0, 1): 0})        # digit out of range


def test_linearize_b_slots_optional_over_ground_field():
    cs = chain_space(shared_triple("dual_k"), 2)
    assert cs.linearize((1, 0, 1)) == 5
    assert _digits(cs, 5) == ((1, 0, 1), (0, 0, 0))


# -- individual face maps --------------------------------------------------

def test_inner_face_kills_square_zero_product():
    # a0 = x, a1 = x over the ground field: the merged slot is x*x = 0.
    T = shared_triple("dual_k")
    cs = chain_space(T, 1)
    col = _face_sum(T, 1, [(0, 1)]).column(cs.linearize((1, 1)))
    assert col == {}


def test_inner_face_routes_through_eps():
    # a0 = a1 = 1 and b01 = y with eps(y) = x: the merged slot is x.
    T = shared_triple("dual_dual_x")
    cs = chain_space(T, 1)
    col = _face_sum(T, 1, [(0, 1)]).column(cs.linearize((0, 0), {(0, 1): 1}))
    assert col == {1: F(1)}


def test_wrap_face_moves_last_slot_to_front():
    # (1, x, x) with trivial coefficients wraps to (x*1, x) = (x, x).
    T = shared_triple("dual_k")
    src = chain_space(T, 2)
    dst = chain_space(T, 1)
    col = _face_sum(T, 2, [(2, 1)]).column(src.linearize((0, 1, 1)))
    assert col == {dst.linearize((1, 1)): F(1)}


def test_degree_one_boundary_on_matrix_units():
    # d(E12 (x) E21) = E12 E21 - E21 E12 = E11 - E22.
    T = shared_triple("mat2_k")
    cs = chain_space(T, 1)
    col = boundary(T, 1).column(cs.linearize((1, 2)))
    assert col == {0: F(1), 3: F(-1)}


def test_degree_one_boundary_vanishes_for_commutative_triples():
    for name in COMMUTATIVE_NAMES:
        assert boundary(shared_triple(name), 1).is_zero()


def test_degree_zero_boundary_is_the_zero_map():
    T = shared_triple("trunc3_k")
    M = boundary(T, 0)
    assert (M.nrows, M.ncols) == (0, T.A.dim)
    assert M.is_zero()
    with pytest.raises(ValueError):
        boundary(T, -1)


# -- term-by-term boundary oracles -----------------------------------------

def _d1_oracle(T):
    """d(a (x) b (x) alpha) = a eps(alpha) b - b eps(alpha) a, expanded
    over basis tensors with local index arithmetic."""
    A, B = T.A, T.B
    dA, dB = A.dim, B.dim
    cols = {}
    for a0 in range(dA):
        for a1 in range(dA):
            for b01 in range(dB):
                src = (a0 * dA + a1) * dB + b01
                e = T.eps.columns[b01]
                fwd = multiply(A, multiply(A, _basis(dA, a0), e), _basis(dA, a1))
                bwd = multiply(A, multiply(A, _basis(dA, a1), e), _basis(dA, a0))
                col = {}
                for m in range(dA):
                    x = fwd[m] - bwd[m]
                    if x:
                        col[m] = x
                if col:
                    cols[src] = col
    return SparseMat(dA, dA * dA * dB, cols)


def _d2_oracle(T):
    """Three-term degree-2 boundary, expanded slot by slot:

        d(a (x) b (x) c (x) al (x) be (x) ga)
          =   a eps(al) b (x) c (x) be ga
            - a (x) b eps(ga) c (x) al be
            + c eps(be) a (x) b (x) ga al
    """
    A, B = T.A, T.B
    dA, dB = A.dim, B.dim
    cols = {}
    for a0 in range(dA):
        for a1 in range(dA):
            for a2 in range(dA):
                for b01 in range(dB):
                    for b02 in range(dB):
                        for b12 in range(dB):
                            src = ((((a0 * dA + a1) * dA + a2) * dB + b01)
                                   * dB + b02) * dB + b12
                            ea, eb, ec = (_basis(dA, a0), _basis(dA, a1),
                                          _basis(dA, a2))
                            fal, fbe, fga = (T.eps.columns[b01],
                                             T.eps.columns[b02],
                                             T.eps.columns[b12])
                            terms = [
                                (F(1),
                                 multiply(A, multiply(A, ea, fal), eb), a2,
                                 multiply(B, _basis(dB, b02), _basis(dB, b12)),
                                 "left"),
                                (F(-1),
                                 multiply(A, multiply(A, eb, fga), ec), a0,
                                 multiply(B, _basis(dB, b01), _basis(dB, b02)),
                                 "right"),
                                (F(1),
                                 multiply(A, multiply(A, ec, fbe), ea), a1,
                                 multiply(B, _basis(dB, b12), _basis(dB, b01)),
                                 "left"),
                            ]
                            col = {}
                            for sign, prod, keep, bprod, side in terms:
                                for m in range(dA):
                                    if not prod[m]:
                                        continue
                                    for t in range(dB):
                                        if not bprod[t]:
                                            continue
                                        if side == "left":
                                            dst = (m * dA + keep) * dB + t
                                        else:
                                            dst = (keep * dA + m) * dB + t
                                        x = col.get(dst, F(0)) \
                                            + sign * prod[m] * bprod[t]
                                        if x:
                                            col[dst] = x
                                        else:
                                            col.pop(dst, None)
                            if col:
                                cols[src] = col
    return SparseMat(dA * dA * dB, dA ** 3 * dB ** 3, cols)


def test_degree_one_boundary_matches_termwise_formula():
    for name in ALL_NAMES:
        T = shared_triple(name)
        assert boundary(T, 1) == _d1_oracle(T)


def test_degree_two_boundary_matches_termwise_formula():
    for name in ["dual_dual_x", "dual_dual_zero", "trunc3_k", "mat2_k"]:
        T = shared_triple(name)
        assert boundary(T, 2) == _d2_oracle(T)


def test_boundary_squares_to_zero_spot_checks():
    for name, top in [("dual_dual_x", 3), ("trunc3_k", 4), ("mat2_k", 4)]:
        T = shared_triple(name)
        for n in range(1, top):
            assert (boundary(T, n) @ boundary(T, n + 1)).is_zero()


def test_boundary_matches_classical_bar_complex_over_ground_field():
    # With trivial coefficients the complex collapses to the classical bar
    # complex; the matrices must agree entry for entry.
    for name in ["k_k", "dual_k", "prod_k", "trunc3_k", "mat2_k"]:
        T = shared_triple(name)
        for n in range(1, 4):
            dense = dense_matrix(boundary(T, n))
            ref = bar_boundary(T.A, n)
            for r in range(len(dense)):
                for c in range(len(dense[r])):
                    assert dense[r][c] == ref[r][c]


# -- cyclic operator -------------------------------------------------------

def test_rotation_is_identity_in_degree_zero():
    for name in ALL_NAMES:
        T = shared_triple(name)
        assert cyclic_operator(T, 0) == SparseMat.identity(T.A.dim)


def test_rotation_in_degree_one_swaps_and_negates():
    T = shared_triple("dual_k")
    cs = chain_space(T, 1)
    col = cyclic_operator(T, 1).column(cs.linearize((0, 1)))
    assert col == {cs.linearize((1, 0)): F(-1)}


def test_rotation_order_divides_degree_plus_one():
    for name, top in [("dual_dual_x", 3), ("prod_k", 3), ("mat2_k", 3)]:
        T = shared_triple(name)
        for n in range(top + 1):
            L = cyclic_operator(T, n)
            acc = L
            for _ in range(n):
                acc = acc @ L
            assert acc == SparseMat.identity(L.nrows)


def test_rotation_matches_classical_bar_rotation_over_ground_field():
    for name in ["dual_k", "trunc3_k", "mat2_k"]:
        T = shared_triple(name)
        for n in range(1, 3):
            dense = dense_matrix(cyclic_operator(T, n))
            ref = bar_rotation(T.A, n)
            for r in range(len(dense)):
                for c in range(len(dense[r])):
                    assert dense[r][c] == ref[r][c]


# -- cyclic coinvariants ---------------------------------------------------

def test_coinvariants_in_degree_zero_are_everything():
    for name in ALL_NAMES:
        T = shared_triple(name)
        assert cyclic_quotient(T, 0).dim == T.A.dim


def test_coinvariants_collapse_for_odd_sign_on_the_field():
    # Over the field, degree 1 rotation is -1, so 1 - rotation is onto.
    assert cyclic_quotient(shared_triple("k_k"), 1).dim == 0


def test_coinvariant_dimension_agrees_with_dense_rank():
    for name, n in [("dual_k", 1), ("dual_dual_x", 2), ("trunc3_k", 2)]:
        T = shared_triple(name)
        cs = chain_space(T, n)
        diff = one_minus_cyclic(T, n)
        assert cyclic_quotient(T, n).dim == cs.dim - dense_rank_of_sparse(diff)


def test_degree_one_coinvariants_of_dual_numbers():
    # 1 - rotation symmetrizes pairs; only the antisymmetric line survives.
    T = shared_triple("dual_k")
    assert dense_rank_of_sparse(one_minus_cyclic(T, 1)) == 3
    assert cyclic_quotient(T, 1).dim == 1


def test_boundary_descends_to_coinvariants():
    # Building the induced boundary fails loudly if the boundary did not
    # descend, so building it across the catalog is itself the assertion.
    for name in ALL_NAMES:
        T = shared_triple(name)
        for n in range(3):
            homology._induced_boundary(T, n)


def _degree_cases(top_catalog, top_deep=5):
    """(triple, top degree) over the catalog, with dual_k and trunc3_k
    taken deeper."""
    cases = [(shared_triple(name), top_catalog) for name in ALL_NAMES]
    cases += [(shared_triple("dual_k"), top_deep),
              (shared_triple("trunc3_k"), top_deep)]
    return cases


def test_orbit_relations_equal_colspace_of_one_minus_rotation():
    # Equality gate for the class map: its non-pivots, its projection
    # matrix and its lazily formed relations are the canonical form that
    # the orbit rows gave before, and that elimination of 1 - rotation
    # produces.
    for T, top in _degree_cases(3):
        for n in range(top + 1):
            Q = cyclic_quotient(T, n)
            ref = QuotientStructure(chain_dim(T, n),
                                    coinvariant_relations(T, n))
            assert Q.nonpivots == ref.nonpivots, (T.name, n)
            assert Q.project_matrix() == ref.project_matrix(), (T.name, n)
            W = Q.relations
            assert W == ref.relations == colspace(one_minus_cyclic(T, n))
            assert W.rows == ref.relations.rows
            assert W._pivot_pos == ref.relations._pivot_pos


def test_induced_boundary_equals_the_projected_product():
    # Equality gate for the one-pass induced boundary: it is the very
    # matrix P M S of the path it replaced, on the catalog, on rescaled
    # triples (denominators) and on rebased ones (dense boundaries).
    cases = _degree_cases(3)
    cases += [(rescaled_triple(name), 2)
              for name in ["dual_dual_x", "trunc3_k"]]
    cases += [(rebased_triple(name), 2)
              for name in ALL_NAMES if name != "mat2_k"]
    for T, top in cases:
        quotients = [QuotientStructure(chain_dim(T, n),
                                       coinvariant_relations(T, n))
                     for n in range(top + 1)]
        for n in range(1, top + 1):
            ref = reference_induced_on_quotients(
                boundary(T, n), quotients[n], quotients[n - 1])
            assert homology._induced_boundary(T, n) == ref, (T.name, n)


def test_class_map_must_kill_one_minus_rotation(monkeypatch):
    # A class map with one sign flipped in a live orbit, or with one dead
    # orbit made live, is refused where it is built.
    real = chains._orbit_classes

    def flipped(img, rot_sign):
        axis, sign = real(img, rot_sign)
        i = next(i for i, a in enumerate(axis) if a is not None and a != i)
        sign[i] = -sign[i]
        return axis, sign

    def revived(img, rot_sign):
        axis, sign = real(img, rot_sign)
        i = axis.index(None)
        axis[i], sign[i] = i, 1
        return axis, sign

    for mutate, name, n in ((flipped, "dual_k", 2), (revived, "mat2_k", 1)):
        monkeypatch.setattr(chains, "_orbit_classes", mutate)
        with pytest.raises(InternalCheckError, match="1 - t"):
            cyclic_quotient(catalog(name), n)
    monkeypatch.undo()


def test_descent_check_fires_on_smaller_relations(monkeypatch):
    # Drop one orbit relation from the degree-1 coinvariants: the boundary
    # of degree 2 must then fail to descend, and loudly.
    T = catalog("mat2_k")  # fresh, so no cached quotient is reused
    smaller = _mutations(T, 1)["dropped"]
    real = homology.cyclic_quotient
    monkeypatch.setattr(homology, "cyclic_quotient",
                        lambda T2, k: smaller if k == 1 else real(T2, k))
    with pytest.raises(InternalCheckError):
        homology._induced_boundary(T, 2)


def _mutations(T, n):
    """The class map of the degree-n coinvariants, changed three ways at
    its first index of each kind: a relation dropped (the index becomes
    its own class), the sign of a live orbit element flipped, a dead orbit
    made live (signs alternating from its largest index)."""
    Q = cyclic_quotient(T, n)
    out = {}
    off = [i for i, a in enumerate(Q.axis) if a != i]
    if off:
        axis, sign = list(Q.axis), list(Q.sign)
        axis[off[0]], sign[off[0]] = off[0], 1
        out["dropped"] = ClassMapQuotient(axis, sign)
    live = [i for i in off if Q.axis[i] is not None]
    if live:
        sign = list(Q.sign)
        sign[live[0]] = -sign[live[0]]
        out["flipped"] = ClassMapQuotient(list(Q.axis), sign)
    if None in Q.axis:
        img = chains._rotation(T, n)
        orbit = [Q.axis.index(None)]
        while img[orbit[-1]] != orbit[0]:
            orbit.append(img[orbit[-1]])
        k = orbit.index(max(orbit))
        orbit = orbit[k:] + orbit[:k]
        axis, sign = list(Q.axis), list(Q.sign)
        for t, i in enumerate(orbit):
            axis[i], sign[i] = orbit[0], (-1) ** t
        out["revived"] = ClassMapQuotient(axis, sign)
    return out


def _per_column_descends(T, n, W_low):
    """Test-local copy of the descent check that induced_on_quotients
    replaced: column c of boundary composed with (1 - t) is
    d[c] - (-1)^n d[img[c]], and must lie in the relations W_low."""
    bnd = boundary(T, n).num
    img, sgn = _per_tuple_rotation(T, n)
    for c in range(len(img)):
        moved = dict(bnd.get(c, {}))
        for r, x in bnd.get(img[c], {}).items():
            y = moved.get(r, 0) - sgn[c] * x
            if y:
                moved[r] = y
            else:
                del moved[r]
        if moved and not W_low.contains(moved):
            return False
    return True


def _class_map_descends(T, n, dst):
    try:
        induced_on_quotients(boundary(T, n), cyclic_quotient(T, n), dst)
    except InternalCheckError:
        return False
    return True


def test_matrix_descent_check_matches_per_column_check():
    # Equality gate: the class-by-class descent check of
    # induced_on_quotients and the per-column membership loop give the
    # same verdict, on the true degree n-1 coinvariants (both accept) and
    # on each of their three mutations.  Each mutation is rejected at
    # least once, mat2_k in degree 2 among the rejections.
    cases = _degree_cases(3)
    cases += [(rescaled_triple(name), 2)
              for name in ["dual_dual_x", "trunc3_k"]]
    cases += [(rebased_triple(name), 2)
              for name in ALL_NAMES if name != "mat2_k"]
    rejected = {"dropped": set(), "flipped": set(), "revived": set()}
    for T, top in cases:
        for n in range(1, top + 1):
            full = cyclic_quotient(T, n - 1)
            assert _per_column_descends(T, n, full.relations)
            assert _class_map_descends(T, n, full)
            for kind, dst in _mutations(T, n - 1).items():
                verdict = _per_column_descends(T, n, dst.relations)
                assert _class_map_descends(T, n, dst) == verdict, \
                    (T.name, n, kind)
                if not verdict:
                    rejected[kind].add((T.name, n))
    for kind, where in rejected.items():
        assert ("mat2_k", 2) in where, kind


# -- the per-triple memo ---------------------------------------------------

def test_dropped_triple_frees_its_tables():
    # No memoized value refers back to its triple, so dropping the triple
    # frees it and its whole memo by reference counting, with the
    # collector off.
    T = catalog("dual_dual_x")
    for n in range(3):
        homology.hh(T, n)
        homology.hc(T, n)
    assert verify_main(T).passed and symmetry_check(T)
    values = [omega(T), kernel_data(T), *T._memo.values()]
    refs = [weakref.ref(T)] + [weakref.ref(v) for v in values
                               if type(v).__weakrefoffset__]
    assert len(refs) > 3
    gc.disable()
    try:
        del T, values
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_memo_returns_the_same_object_for_the_same_arguments():
    T = catalog("dual_dual_x")
    for fn, args in [(boundary, (2,)), (cyclic_quotient, (2,)),
                     (homology._induced_boundary, (2,)), (omega, ()),
                     (kernel_data, ())]:
        assert fn(T, *args) is fn(T, *args), fn.__name__
    assert boundary(T, 1) is not boundary(T, 2)
    assert boundary(catalog("dual_dual_x"), 2) is not boundary(T, 2)


def test_replaced_triple_starts_an_empty_memo():
    T = catalog("dual_dual_x")
    M, P = boundary(T, 2), omega(T)
    mutated = copy.deepcopy(T.A.mult)
    mutated[1][1][0] += F(1)  # pretend x * x = 1
    T2 = dataclasses.replace(T, A=dataclasses.replace(T.A, mult=mutated))
    assert T2._memo == {}
    assert boundary(T2, 2) != M
    assert omega(T2) is not P


def _fraction_face_sum(T, n, faces):
    """Test-local copy of the Fraction face assembly that the integer one
    replaced: Fraction tables, Fraction terms, one face at a time.  Returns
    the nonzero columns as {column: {row: Fraction}}."""
    A, B, eps = T.A, T.B, T.eps

    def support(vec):
        return tuple((k, x) for k, x in enumerate(vec) if x)

    bprod = [[support(B.mult[i][j]) for j in range(B.dim)]
             for i in range(B.dim)]
    sandwich = [[[support(multiply(A, multiply(A, _basis(A.dim, i),
                                               eps.columns[k]),
                                   _basis(A.dim, j)))
                  for j in range(A.dim)] for k in range(B.dim)]
                for i in range(A.dim)]
    src, dst = chain_space(T, n), chain_space(T, n - 1)
    recipes = [(chains._face_recipe(n, i), sign) for i, sign in faces]
    cols = {}
    for ix, digits in enumerate(product(*(range(r) for r in src.radices))):
        acc = {}
        for recipe, sign in recipes:
            terms = [(0, F(1))]
            for slot, op in enumerate(recipe):
                w = dst.weights[slot]
                if op[0] in ("a", "b"):
                    terms = [(r + digits[op[1]] * w, c) for r, c in terms]
                    continue
                if op[0] == "aba":
                    opts = sandwich[digits[op[1]]][digits[op[2]]][digits[op[3]]]
                else:
                    opts = bprod[digits[op[1]]][digits[op[2]]]
                terms = [(r + d * w, c * x) for r, c in terms for d, x in opts]
            for r, c in terms:
                acc[r] = acc.get(r, F(0)) + sign * c
        acc = {r: x for r, x in acc.items() if x}
        if acc:
            cols[ix] = acc
    return cols


def test_integer_face_assembly_matches_fraction_assembly():
    # Equality gate for the integer tables: every face and every boundary
    # equals the Fraction assembly, entry for entry, on the catalog and on
    # rescaled triples whose tables have denominators other than 1.  The
    # values are compared, since the matrices store integer numerators.
    triples = [shared_triple(name) for name in ALL_NAMES]
    triples += [rescaled_triple("dual_dual_x"), rescaled_triple("trunc3_k")]
    for T in triples:
        for n in range(1, 4):
            ref = _fraction_face_sum(
                T, n, [(i, 1 if i % 2 == 0 else -1) for i in range(n + 1)])
            assert value_columns(boundary(T, n)) == ref
            for i in range(n + 1):
                assert value_columns(_face_sum(T, n, [(i, 1)])) == \
                    _fraction_face_sum(T, n, [(i, 1)])
    for T in triples[-2:]:
        tb = chains._tables(T)
        assert tb.bden > 1 and tb.sden > 1


def test_sandwich_table_matches_the_multiply_based_reference():
    # Equality gate for the sandwich: two products of A's integer supports
    # with eps's, read over sden, equal the two Fraction `multiply` calls
    # value for value, and every support is in ascending index order.
    triples = [shared_triple(name) for name in ALL_NAMES]
    triples += [rescaled_triple(name) for name in ALL_NAMES]
    triples += [rebased_triple(name) for name in ALL_NAMES if name != "mat2_k"]
    for T in triples:
        tb = chains._tables(T)
        supports = [s for row in tb.sandwich for rk in row for s in rk]
        assert all([k for k, _ in s] == sorted({k for k, _ in s})
                   for s in supports)
        values = [[[[F(dict(s).get(t, 0), tb.sden) for t in range(T.A.dim)]
                    for s in rk] for rk in row] for row in tb.sandwich]
        assert values == reference_sandwich(T), T.name
    assert any(chains._tables(T).sden > 1 for T in triples)


def _per_column_face_sum(T, n, faces):
    """Test-local copy of the per-column integer face assembly that the
    digit-group build replaced: every face visits every basis tensor."""
    tb = chains._tables(T)
    src, dst = chain_space(T, n), chain_space(T, n - 1)
    split = []
    for i, sign in faces:
        shifts, products = [], []
        for op, w in zip(chains._face_recipe(n, i), dst.weights):
            if op[0] in ("a", "b"):
                shifts.append((op[1], w))
            else:
                products.append((op, w))
        split.append((shifts, products, sign))
    cols = {}
    for ix, digits in enumerate(product(*(range(r) for r in src.radices))):
        acc = {}
        for shifts, products, sign in split:
            terms = [(sum(digits[pos] * w for pos, w in shifts), 1)]
            for op, w in products:
                if op[0] == "aba":
                    opts = tb.sandwich[digits[op[1]]][digits[op[2]]][digits[op[3]]]
                else:
                    opts = tb.bprod[digits[op[1]]][digits[op[2]]]
                terms = [(r + d * w, c * x) for r, c in terms for d, x in opts]
            for r, x in terms:
                acc[r] = acc.get(r, 0) + sign * x
        col = {r: x for r, x in acc.items() if x}
        if col:
            cols[ix] = col
    return SparseMat.from_ints(dst.dim, src.dim, cols,
                               tb.sden * tb.bden ** (n - 1))


def _assert_same_assembly(T, n):
    alternating = [(i, 1 if i % 2 == 0 else -1) for i in range(n + 1)]
    for faces in [alternating] + [[(i, 1)] for i in range(n + 1)]:
        new, ref = _face_sum(T, n, faces), _per_column_face_sum(T, n, faces)
        assert new.den == ref.den
        assert new.num == ref.num
        assert list(new.num) == list(ref.num)
        # The stored form that SparseMat.from_ints takes on trust: no zero
        # entry, no empty column, columns in ascending order.
        assert all(col and all(col.values()) for col in new.num.values())
        assert list(new.num) == sorted(new.num)


def test_digit_group_assembly_matches_per_column_assembly():
    # Equality gate for the digit-group build: every single face and the
    # alternating sum equal the per-column assembly in numerators,
    # denominator and column order.  Rescaled trunc3_k has a
    # one-dimensional B with bprod[0][0] != 1, so no product group may be
    # skipped for having radix 1.
    for name in ALL_NAMES:
        T = shared_triple(name)
        for n in range(1, 9):
            if chain_dim(T, n) > 4096:
                break
            _assert_same_assembly(T, n)
    for name in ["dual_dual_x", "trunc3_k"]:
        T = rescaled_triple(name)
        for n in range(1, 4):
            _assert_same_assembly(T, n)
    tb = chains._tables(rescaled_triple("trunc3_k"))
    assert tb.bprod[0][0] != ((0, tb.bden),)
    for name in ["trunc3_k", "dual_over_dual_id"]:
        T = rebased_triple(name)
        for n in range(1, 4):
            _assert_same_assembly(T, n)


def test_assembly_matches_per_column_assembly_at_the_largest_cyclic_space():
    # boundary(trunc3_k, 7) has 6,561 columns, the largest space the
    # cyclic benchmark builds, past the 4,096-column cut of the gate above.
    T = shared_triple("trunc3_k")
    assert chain_dim(T, 7) == 6561
    _assert_same_assembly(T, 7)


def _per_tuple_rotation(T, n):
    """Test-local copy of the rotation that the digit-by-digit build
    replaced: one weighted sum per digit tuple."""
    cs = chain_space(T, n)
    bpos = {pr: t for t, pr in enumerate(cs.pairs)}
    na = n + 1
    src_of = list(range(na + len(cs.pairs)))
    for t in range(na):
        src_of[t] = n if t == 0 else t - 1
    for (r, s), t in bpos.items():
        if r == 0:
            src_of[na + t] = na + bpos[(s - 1, n)]
        else:
            src_of[na + t] = na + bpos[(r - 1, s - 1)]
    moves = list(zip(src_of, cs.weights))
    img = [sum(digits[src] * w for src, w in moves)
           for digits in product(*(range(r) for r in cs.radices))]
    return img, [1 if n % 2 == 0 else -1] * cs.dim


def test_digit_rotation_matches_per_tuple_rotation():
    triples = [shared_triple(name) for name in ALL_NAMES]
    triples += [rebased_triple(name) for name in ALL_NAMES if name != "mat2_k"]
    for T in triples:
        for n in range(9):
            if chain_dim(T, n) > 6561:
                break
            img, sgn = _per_tuple_rotation(T, n)
            assert chains._rotation(T, n) == img
            assert sgn == [(-1) ** n] * len(img)
            assert cyclic_operator(T, n).num == {
                c: {i: s} for c, (i, s) in enumerate(zip(img, sgn))}
