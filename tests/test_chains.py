"""Chain spaces, face maps, boundaries, and the cyclic structure.

The low-degree boundary checks here are written against hand-coded
term-by-term formulas that do their own index arithmetic, so they share no
construction logic with the face-recipe machinery they test.
"""

import copy
import gc
import weakref
from fractions import Fraction
from itertools import product

import pytest

from _shared import (ALL_NAMES, COMMUTATIVE_NAMES, bar_boundary,
                     bar_rotation, coinvariant_relations, cube_over_prod,
                     cyclic_operator, dense_matrix, dense_rank_of_sparse,
                     densify, dual_over_trunc3_x, one_minus_cyclic,
                     prod_over_prod_id, rebased_triple,
                     reference_induced_on_quotients, reference_sandwich,
                     rescaled_triple, rotation, shared_triple, sqzero_dual_x,
                     trunc3_over_dual_x2, value_columns)
from sechom import chains, hc, homology
from sechom.algebra import FinAlgebra, multiply
from sechom.chains import (_face_sum, boundary, chain_dim, chain_space,
                           cyclic_quotient, pair_list)
from sechom.differentials import omega
from sechom.kernel import kernel_data, symmetry_check
from sechom.linalg import (ClassMapQuotient, InternalCheckError,
                           QuotientStructure, SparseMat, colspace,
                           induced_on_quotients)
from sechom.triples import Triple, _tables, catalog, recall
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


def _boundary_ints(T, n) -> dict:
    """The columns of boundary(T, n) as integers over the faces'
    denominator, as `boundary_blocks` scatters them."""
    M = boundary(T, n)
    g = chains._face_den(T, n) // M.den if n else 1
    return {c: {r: x * g for r, x in col.items()} for c, col in M.num.items()}


def _merged_parts(T, n) -> list:
    """`chains.boundary_blocks(T, n)` as one block (w, units, cols) per
    weight, a weight's consecutive parts merged.  No part may be empty,
    the weights must not decrease, and no column may be in two parts."""
    blocks, seen = [], set()
    for w, units, cols in chains.boundary_blocks(T, n):
        assert units or cols, (T.name, n, w)
        assert not blocks or blocks[-1][0] <= w, (T.name, n, w)
        assert seen.isdisjoint(cols), (T.name, n, w)
        seen.update(cols)
        if not blocks or blocks[-1][0] != w:
            blocks.append((w, set(), {}))
        blocks[-1][1].update(units)
        blocks[-1][2].update(cols)
    return blocks


def _assert_blocks_make_the_boundary(T, n):
    # Blocks in increasing key order, none empty.  Per weight, cols holds
    # the boundary's columns of that weight with two or more entries,
    # entry for entry, and units the rows of its one-entry columns.
    weights = chains.chain_weights(T, n)
    want = {}
    for c, col in _boundary_ints(T, n).items():
        units, cols = want.setdefault(weights[c], (set(), {}))
        if len(col) == 1:
            units.update(col)
        else:
            cols[c] = col
    keys = []
    for w, units, cols in _merged_parts(T, n):
        keys.append(w)
        assert units or cols, (T.name, n, w)
        assert (units, cols) == want.pop(w, None), (T.name, n, w)
    assert keys == sorted(set(keys)) and not want, (T.name, n)
    return len(keys)


def test_boundary_blocks_are_the_boundary_by_weight():
    for name in ALL_NAMES:
        for n in range(4):
            _assert_blocks_make_the_boundary(shared_triple(name), n)
    # dual_dual_x has 11 nonzero blocks in degree 4, dual_dual_zero 35.
    for name, blocks in (("dual_dual_zero", 35), ("dual_dual_x", 11),
                         ("dual_over_dual_id", 11)):
        assert _assert_blocks_make_the_boundary(shared_triple(name),
                                                4) == blocks
    for make in (trunc3_over_dual_x2, prod_over_prod_id, cube_over_prod,
                 dual_over_trunc3_x, sqzero_dual_x):
        T = make()
        for n in range(4):
            _assert_blocks_make_the_boundary(T, n)
    T = rebased_triple("dual_dual_x")  # ungraded: one block
    assert _assert_blocks_make_the_boundary(T, 1) == 0  # boundary(1) = 0
    for n in range(2, 4):
        assert _assert_blocks_make_the_boundary(T, n) == 1
    with pytest.raises(ValueError):
        next(chains.boundary_blocks(T, -1))


def _assert_blocks_are_the_memo_route(T, n):
    # hh reads a memoized boundary through `homology._by_weight`, which
    # files each column by the weight of its least row, and streams it
    # otherwise: both routes must give the same blocks.
    want = homology._by_weight(_boundary_ints(T, n),
                               chains.chain_weights(T, n - 1))
    got = _merged_parts(T, n)
    assert sorted(got) == sorted(want), (T.name, n)


def test_streamed_blocks_are_the_blocks_of_the_whole_boundary():
    for name in ALL_NAMES:
        for n in range(1, 5 if name.startswith("dual_dual") else 4):
            _assert_blocks_are_the_memo_route(shared_triple(name), n)
    for make in (trunc3_over_dual_x2, prod_over_prod_id, cube_over_prod,
                 dual_over_trunc3_x, sqzero_dual_x):
        T = make()
        for n in range(1, 4):
            _assert_blocks_are_the_memo_route(T, n)
    T = rebased_triple("dual_dual_x")
    for n in range(2, 4):
        _assert_blocks_are_the_memo_route(T, n)


# -- the faces from the pair maps of SP^2(S^1) ------------------------------
#
# The complex is a Loday construction.  With S^1_n = {0, ..., n} the
# simplicial circle, X_n the unordered pairs {r, s} of its points (r = s
# allowed) and Y_n the diagonal, C_n = A^(Y_n) (x) B^(X_n - Y_n).  Face i
# merges point i into i + 1 (i < n), or n into 0 (i = n), and the face of
# the complex is the map this induces on pairs: each output pair takes
# the product of the factors of its preimages, in A in cyclic order from
# i, through eps for the pair that falls onto the diagonal.

def _sp2_points(m):
    """The points of X_m in the order of a basis tensor's digits: the
    diagonal {t, t} first, then the pairs r < s in lexicographic order."""
    return ([(t, t) for t in range(m + 1)]
            + [(r, s) for r in range(m + 1) for s in range(r + 1, m + 1)])


def _sp2_face(n, i):
    """Face i in degree n as, per output point, the positions of its
    preimage points: (output position, diagonal preimages in cyclic order
    from i, off-diagonal preimages)."""
    def d(j):
        return (j if j <= i else j - 1) if i < n else (j if j < n else 0)

    src = _sp2_points(n)
    face = []
    for t, y in enumerate(_sp2_points(n - 1)):
        pre = [p for p, (r, s) in enumerate(src)
               if tuple(sorted((d(r), d(s)))) == y]
        diag = sorted((p for p in pre if src[p][0] == src[p][1]),
                      key=lambda p: (src[p][0] - i) % (n + 1))
        off = [p for p in pre if src[p][0] != src[p][1]]
        assert (len(diag), len(off)) in ((1, 0), (2, 1), (0, 1), (0, 2))
        face.append((t, diag, off))
    return face


def _sp2_boundary(T, n):
    """The alternating sum of the faces in degree n, built from the pair
    maps alone with Fraction products, as {column: {row: Fraction}}."""
    A, B = T.A, T.B

    def support(vec):
        return [(k, x) for k, x in enumerate(vec) if x]

    sandwich = [[[support(multiply(A, multiply(A, _basis(A.dim, a),
                                                T.eps.columns[k]),
                                   _basis(A.dim, b)))
                  for b in range(A.dim)] for k in range(B.dim)]
                for a in range(A.dim)]
    bprod = [[support(B.mult[k][l]) for l in range(B.dim)]
             for k in range(B.dim)]
    radices = [A.dim if r == s else B.dim for r, s in _sp2_points(n)]
    out = [A.dim if r == s else B.dim for r, s in _sp2_points(n - 1)]
    place = [1] * len(out)  # the weight of each output digit
    for t in range(len(out) - 2, -1, -1):
        place[t] = place[t + 1] * out[t + 1]
    faces = [((-1) ** i, _sp2_face(n, i)) for i in range(n + 1)]
    cols = {}
    for c, digit in enumerate(product(*map(range, radices))):
        acc = {}
        for sign, face in faces:
            terms = [(0, F(sign))]
            for t, diag, off in face:
                if len(diag) == 2:
                    a, b = (digit[p] for p in diag)
                    opts = sandwich[a][digit[off[0]]][b]
                elif diag:
                    opts = [(digit[diag[0]], 1)]
                elif len(off) == 2:
                    opts = bprod[digit[off[0]]][digit[off[1]]]
                else:
                    opts = [(digit[off[0]], 1)]
                terms = [(r + k * place[t], x * y)
                         for r, x in terms for k, y in opts]
            for r, x in terms:
                acc[r] = acc.get(r, 0) + x
        acc = {r: x for r, x in acc.items() if x}
        if acc:
            cols[c] = acc
    return cols


def test_boundary_equals_the_faces_of_sp2_of_the_circle():
    # Entry for entry, up to degree 3, on the catalog and on the triples
    # whose B is not the ground field.
    triples = [shared_triple(name) for name in ALL_NAMES]
    triples += [make() for make in (trunc3_over_dual_x2, prod_over_prod_id,
                                    cube_over_prod, dual_over_trunc3_x,
                                    sqzero_dual_x)]
    for T in triples:
        for n in range(1, 4):
            assert value_columns(boundary(T, n)) == _sp2_boundary(T, n), (
                T.name, n)


def test_boundary_matches_classical_bar_complex_over_ground_field():
    # With trivial coefficients the complex collapses to the classical bar
    # complex; the matrices must agree entry for entry.
    for name in ["k_k", "dual_k", "prod_k", "trunc3_k", "mat2_k"]:
        T = shared_triple(name)
        for n in range(1, 4):
            dense = dense_matrix(boundary(T, n))
            ref = densify(bar_boundary(T.A, n), T.A.dim ** (n + 1))
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
            ref = densify(bar_rotation(T.A, n), T.A.dim ** (n + 1))
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


def _fresh_cases() -> list:
    """(make, top): a maker of fresh triples and the top degree each
    projected-boundary gate reaches on it."""
    cases = [(lambda name=name: catalog(name), 4) for name in ALL_NAMES]
    cases += [(lambda: catalog("trunc3_k"), 7),
              (lambda: catalog("mat2_k"), 5)]
    cases += [(make, 3) for make in (trunc3_over_dual_x2, prod_over_prod_id,
                                     cube_over_prod, dual_over_trunc3_x,
                                     sqzero_dual_x)]
    cases += [(lambda name=name: rebased_triple(name), 3)
              for name in ("dual_dual_x", "trunc3_k")]
    return cases


def test_projected_boundary_equals_the_induced_product():
    # Equality gate for the scatter onto coinvariant coordinates: on a
    # triple with no boundary in its memo, the induced boundary is the
    # projection of the whole boundary, as SparseMat data (den and num),
    # and the reference product; no boundary is left in the memo.
    for make, top in _fresh_cases():
        T, twin = make(), make()
        for k in range(1, top + 1):
            got = homology._induced_boundary(T, k)
            q_src = cyclic_quotient(twin, k)
            q_dst = cyclic_quotient(twin, k - 1)
            ref = induced_on_quotients(boundary(twin, k), q_src, q_dst)
            assert (got.den, got.num) == (ref.den, ref.num), (T.name, k)
            assert got == reference_induced_on_quotients(
                boundary(twin, k), q_src, q_dst), (T.name, k)
        assert all(recall(T, boundary, k) is None for k in range(top + 1))


def test_hc_sweep_builds_no_boundary():
    # hc reads these graded triples themselves.  Swept from the top down,
    # it streams the induced boundary of degree top + 1 by content block,
    # so neither it nor the class map of that degree is in the memo, and
    # no boundary is.
    for name, top in (("trunc3_k", 6), ("dual_dual_x", 3)):
        T = catalog(name)
        for n in range(top, -1, -1):
            hc(T, n, max_degree=top)
        assert recall(T, homology._induced_boundary, top) is not None
        assert recall(T, homology._induced_boundary, top + 1) is None
        assert recall(T, cyclic_quotient, top + 1) is None
        assert all(recall(T, boundary, k) is None for k in range(top + 2))


def _streamed(T, k):
    """`chains.projected_boundary_blocks` of degree k as {w: (units,
    cols)}, with the class map of degree k - 1 read from T's memo."""
    got = {}
    for w, units, cols in chains.projected_boundary_blocks(
            T, k, cyclic_quotient(T, k - 1)):
        assert w not in got and (units or cols), (T.name, k, w)
        got[w] = units, cols
    return got


def _assert_streamed_blocks_are_the_induced_boundary(T, top):
    # The blocks, one per weight and none empty, are those `_by_weight`
    # makes of the whole induced boundary, projected from the whole
    # boundary, a column keyed by its orbit's axis and not by its
    # quotient coordinate.
    for k in range(1, top + 1):
        got = _streamed(T, k)
        axes = cyclic_quotient(T, k).nonpivots
        q_dst = cyclic_quotient(T, k - 1)
        weights = [chains.chain_weights(T, k - 1)[c] for c in q_dst.nonpivots]
        whole = induced_on_quotients(boundary(T, k), cyclic_quotient(T, k),
                                     q_dst)
        g = chains._face_den(T, k) // whole.den
        want = {w: (units, {axes[j]: {r: x * g for r, x in whole.num[j].items()}
                            for j in cols})
                for w, units, cols in homology._by_weight(whole.num, weights)}
        assert got == want, (T.name, k)


def test_streamed_induced_boundary_is_the_whole_one_by_weight():
    for name in ALL_NAMES:
        _assert_streamed_blocks_are_the_induced_boundary(catalog(name), 3)
    _assert_streamed_blocks_are_the_induced_boundary(catalog("trunc3_k"), 7)
    _assert_streamed_blocks_are_the_induced_boundary(catalog("mat2_k"), 5)
    for make in (trunc3_over_dual_x2, prod_over_prod_id, cube_over_prod,
                 dual_over_trunc3_x, sqzero_dual_x):
        _assert_streamed_blocks_are_the_induced_boundary(make(), 3)
    for name in ("dual_dual_x", "trunc3_k"):  # ungraded: one weight
        _assert_streamed_blocks_are_the_induced_boundary(
            rebased_triple(name), 3)


def test_orbit_blocks_merge_to_the_class_map():
    # The content blocks' orbits, axes and signs, merged over the blocks,
    # are the class map of `cyclic_quotient`: the same axis, largest of
    # its orbit, and the same sign on every live index, and None and 0
    # on every dead one.  Both come from one walk, so the merged map's
    # relations are also checked against the orbit rows of
    # `coinvariant_relations`, walked apart from the engine.
    cases = [(catalog(name), 4) for name in ALL_NAMES]
    cases += [(catalog("trunc3_k"), 7), (catalog("mat2_k"), 5),
              (sqzero_dual_x(), 3), (rebased_triple("dual_dual_x"), 3)]
    for T, top in cases:
        for n in range(top + 1):
            Q = cyclic_quotient(T, n)
            keys, _ = chains._content_keys(T, n)
            signs = [0] * chain_dim(T, n)
            axis, sign = [False] * len(signs), [False] * len(signs)
            for _, idx, block_axis in chains._orbit_blocks(T, n, keys,
                                                            signs):
                for i, a in zip(idx, block_axis):
                    axis[i] = None if a is None else idx[a]
                    sign[i] = 0 if a is None else signs[i]
            assert (axis, sign) == (Q.axis, Q.sign), (T.name, n)
            assert ClassMapQuotient(axis, sign).relations == (
                coinvariant_relations(T, n)), (T.name, n)


def test_a_block_that_the_rotation_does_not_keep_is_refused(monkeypatch):
    # One slot's content keys moved one digit over: the rotation then
    # carries tensors out of their block, and the block's walk refuses it.
    real = chains._content_keys

    def moved(T, n):
        keys, Q = real(T, n)
        return [keys[0][1:] + keys[0][:1]] + keys[1:], Q

    for name, n in (("trunc3_k", 3), ("dual_dual_x", 2)):
        T = catalog(name)
        q = cyclic_quotient(T, n - 1)
        monkeypatch.setattr(chains, "_content_keys", moved)
        with pytest.raises(InternalCheckError):
            list(chains.projected_boundary_blocks(T, n, q))
        monkeypatch.undo()


def test_a_block_whose_class_map_keeps_one_minus_rotation_is_refused(
        monkeypatch):
    # A rotation that is not a permutation (one a-slot's digits all read
    # as 0) leaves an orbit open: P (1 - t) is then nonzero on it, and the
    # walk refuses it, by content block and over the whole degree alike.
    real = chains._rotation_keys

    def collapsed(T, n):
        keys = real(T, n)
        return [[0] * len(keys[0])] + keys[1:]

    for name, n in (("trunc3_k", 3), ("mat2_k", 2)):
        T = catalog(name)
        q = cyclic_quotient(T, n - 1)
        monkeypatch.setattr(chains, "_rotation_keys", collapsed)
        with pytest.raises(InternalCheckError, match="1 - t"):
            list(chains.projected_boundary_blocks(T, n, q))
        with pytest.raises(InternalCheckError, match="1 - t"):
            cyclic_quotient(catalog(name), n)
        monkeypatch.undo()


def test_half_digit_tables_stay_near_the_square_root():
    # Both tables of `_split_keys` stay within about twice the square root
    # of the chain dimension, also where every b-digit has radix 1, and
    # together they give each index its key.
    for name, top in (("trunc3_k", 7), ("mat2_k", 5), ("dual_dual_x", 5)):
        T = catalog(name)
        for n in range(1, top + 1):
            cs = chain_space(T, n)
            M, high, low = chains._split_keys(cs.radices,
                                              chains._slot_keys(T, n))
            assert len(high) * len(low) == cs.dim, (name, n)
            assert max(len(high), len(low)) ** 2 <= 4 * cs.dim, (name, n)
            if cs.dim <= 6561:
                assert [high[x // M] + low[x % M] for x in range(cs.dim)] == (
                    chains.chain_weights(T, n)), (name, n)


def _plain_face_terms(T, n, i) -> list:
    """Test-local plain product of face i in degree n: every copied digit
    expanded into the copies and only the groups' table entries in the
    items; its terms (input, output, coefficient), sorted."""
    tb = _tables(T)
    src, dst = chain_space(T, n), chain_space(T, n - 1)
    W = src.weights
    copies, items = [(0, 0)], [(0, 0, 1)]
    for op, w in zip(chains._face_recipe(n, i), dst.weights):
        if op[0] in ("a", "b"):
            copies = [(ci + d * W[op[1]], co + d * w) for ci, co in copies
                      for d in range(src.radices[op[1]])]
            continue
        if op[0] == "aba":
            group = [(a * W[op[1]] + k * W[op[2]] + b * W[op[3]], d * w, x)
                     for a in range(T.A.dim) for k in range(T.B.dim)
                     for b in range(T.A.dim)
                     for d, x in tb.sandwich[a][k][b]]
        else:
            group = [(a * W[op[1]] + b * W[op[2]], d * w, x)
                     for a in range(T.B.dim) for b in range(T.B.dim)
                     for d, x in tb.bprod[a][b]]
        items = [(pi + qi, po + qo, c * x)
                 for pi, po, c in items for qi, qo, x in group]
    return sorted((ci + pi, co + po, c) for ci, co in copies
                  for pi, po, c in items)


def _plan_cases() -> list:
    """The triples whose face plans the plan tests read, with top degrees."""
    cases = [(catalog("trunc3_k"), 7), (catalog("mat2_k"), 5),
             (catalog("dual_dual_x"), 5)]
    return cases + [(make(), 3) for make in (
        trunc3_over_dual_x2, prod_over_prod_id, cube_over_prod,
        dual_over_trunc3_x, sqzero_dual_x)]


def test_face_plans_fold_copies_into_items_and_keep_every_term():
    # Each face's plan folds copied digits into its items while the items
    # stay no more than the copies left.  Its terms, every copy with every
    # item, are the plain product's as a multiset.
    held = {}
    for T, top in _plan_cases():
        for n in range(1, top + 1):
            for i in range(n + 1):
                (copies, items), = chains._face_plans(T, n, [(i, 1)])
                assert sorted((ci + pi, co + po, c) for ci, co in copies
                              for pi, po, c in items) == (
                    _plain_face_terms(T, n, i)), (T.name, n, i)
                held.setdefault((T.name, n), set()).add(
                    (len(items), len(copies)))
    assert held[("trunc3_k", 7)] == {(54, 81)}  # 6 items, 729 copies unfolded
    assert held[("mat2_k", 5)] == {(32, 64)}  # 8 and 256 unfolded
    assert held[("dual_dual_x", 3)] == {(36, 8)}  # items outnumber copies
    assert held[("dual_dual_x", 5)] == {(324, 1024)}


def test_plans_by_key_file_every_term_once_under_its_input_key():
    # `_plans_by_key` files copies and items alike by the keys of their
    # input offsets, key(0) taken off the copies'.  Under the slot keys,
    # and under the content keys, where the digit 0 has a nonzero key so
    # the offset matters, every term of every face is filed exactly once,
    # under the key that `_keys_of_digits` gives its input tensor.
    # dual_dual_x stops at degree 4: its degree-5 plans make 2M terms.
    for T, top in _plan_cases():
        for n in range(1, (4 if T.name == "dual_dual_x" else top) + 1):
            radices = chain_space(T, n).radices
            terms = sorted(
                (ci + pi, co + po, c) for copies, items in chains._face_plans(
                    T, n, chains._alternating(n))
                for ci, co in copies for pi, po, c in items)
            for keys in (chains._slot_keys(T, n),
                         chains._content_keys(T, n)[0]):
                key = chains._keys_of_digits(radices, keys)
                filed = []
                for k, plans in chains._plans_by_key(T, n, keys).items():
                    got = [(ci + pi, co + po, c) for copies, items in plans
                           for ci, co in copies for pi, po, c in items]
                    assert {key[i] for i, _, _ in got} == {k}, (T.name, n, k)
                    filed += got
                assert sorted(filed) == terms, (T.name, n)


def test_descent_check_fires_on_smaller_relations(monkeypatch):
    # Drop one orbit relation from the degree-1 coinvariants: the boundary
    # of degree 2 must then fail to descend, and loudly, whether it is
    # scattered onto the quotient, projected from the memo or streamed by
    # content block.
    real = homology.cyclic_quotient
    for whole in (False, True):
        T = catalog("mat2_k")  # fresh, so no cached quotient is reused
        if whole:
            boundary(T, 2)
        smaller = _mutations(T, 1)["dropped"]
        monkeypatch.setattr(homology, "cyclic_quotient",
                            lambda T2, k, q=smaller: q if k == 1
                            else real(T2, k))
        with pytest.raises(InternalCheckError, match="does not descend"):
            homology._induced_boundary(T, 2)
    with pytest.raises(InternalCheckError, match="does not descend"):
        list(chains.projected_boundary_blocks(catalog("mat2_k"), 2, smaller))


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
        img = rotation(T, n)
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
    A2 = FinAlgebra(T.A.dim, mutated, T.A.unit, T.A.name)
    T2 = Triple(A2, T.B, T.eps, T.commutative, T.name)
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
        tb = _tables(T)
        assert tb.bden > 1 and tb.sden > 1


def test_sandwich_table_matches_the_multiply_based_reference():
    # Equality gate for the sandwich: two products of A's integer supports
    # with eps's, read over sden, equal the two Fraction `multiply` calls
    # value for value, and every support is in ascending index order.
    triples = [shared_triple(name) for name in ALL_NAMES]
    triples += [rescaled_triple(name) for name in ALL_NAMES]
    triples += [rebased_triple(name) for name in ALL_NAMES if name != "mat2_k"]
    for T in triples:
        tb = _tables(T)
        supports = [s for row in tb.sandwich for rk in row for s in rk]
        assert all([k for k, _ in s] == sorted({k for k, _ in s})
                   for s in supports)
        values = [[[[F(dict(s).get(t, 0), tb.sden) for t in range(T.A.dim)]
                    for s in rk] for rk in row] for row in tb.sandwich]
        assert values == reference_sandwich(T), T.name
    assert any(_tables(T).sden > 1 for T in triples)


def _per_column_face_sum(T, n, faces):
    """Test-local copy of the per-column integer face assembly that the
    digit-group build replaced: every face visits every basis tensor."""
    tb = _tables(T)
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
    tb = _tables(rescaled_triple("trunc3_k"))
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
            assert rotation(T, n) == img
            assert sgn == [(-1) ** n] * len(img)
            assert cyclic_operator(T, n).num == {
                c: {i: s} for c, (i, s) in enumerate(zip(img, sgn))}
