"""Shared helpers for the test suite.

Catalog triples are memoized here, so what the package memoizes on each
triple (boundaries, cyclic quotients, omega, kernel_data, ...; see
`sechom.triples.per_triple`) is reused across tests and test files
instead of being rebuilt for every test.  Each test file must still pass
on its own, with a cold memo.
"""

import os
from bisect import bisect_left
from fractions import Fraction
from itertools import product
from math import lcm
from pathlib import Path

from sechom import chains
from sechom.algebra import (AlgebraReport, AlgMorphism, FinAlgebra, multiply,
                            split_product_algebra, tensor_algebra,
                            truncated_polynomial_algebra)
from sechom.differentials import (_balancing, _product_rule, ambient_symbol,
                                  omega, symbol_index)
from sechom.homology import (_by_weight, _induced_boundary,
                             _quotient_of_complex)
from sechom.kernel import embed_tensor, kernel_data, tensor_index
from sechom.linalg import (ONE, AmbientDimensionError, InternalCheckError,
                           QuotientStructure, SparseMat, Subspace, _ints,
                           _kills, basis_vector, colspace, nullspace,
                           product_is_zero, projection_matrix, solve,
                           to_dense)
from sechom.oracles import _check_cap, _int_tables, dense_rank
from sechom.triples import (AlgebraInvalidError, BaseNotCommutativeError,
                            EpsImageNotCentralError,
                            EpsNotMultiplicativeError, EpsNotUnitalError,
                            Triple, _tables, catalog, make_triple)
from sechom.verify import _wvec, forward_matrix

_MEMO: dict = {}

COMMUTATIVE_NAMES = [
    "k_k", "dual_k", "dual_dual_zero", "dual_dual_x",
    "prod_k", "trunc3_k", "dual_over_dual_id",
]
ALL_NAMES = COMMUTATIVE_NAMES + ["mat2_k"]


def child_env() -> dict:
    """The environment for a child Python process that imports sechom:
    this checkout's src/ leads PYTHONPATH, as pyproject.toml's pytest
    `pythonpath` puts it on the tests' own path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                     env.get("PYTHONPATH")]))
    return env


def shared_triple(name: str):
    if name not in _MEMO:
        _MEMO[name] = catalog(name)
    return _MEMO[name]


def _rescaled_algebra(alg: FinAlgebra, t: int, s: Fraction) -> FinAlgebra:
    """The same algebra in the basis with e_t replaced by s * e_t."""
    sc = [s if i == t else Fraction(1) for i in range(alg.dim)]
    mult = [[[sc[i] * sc[j] * alg.mult[i][j][k] / sc[k] for k in range(alg.dim)]
             for j in range(alg.dim)] for i in range(alg.dim)]
    return FinAlgebra(alg.dim, mult, [u / c for u, c in zip(alg.unit, sc)],
                      alg.name)


def rescaled_triple(name: str):
    """A catalog triple rewritten with e_1 of A and f_0 of B (the unit of
    B) scaled by 2/3, built through make_triple.

    It is isomorphic to its catalog twin, but its structure constants,
    units and eps have denominators 2, 3 or 9, so its faces are assembled
    over a denominator other than 1.
    """
    key = ("rescaled", name)
    if key not in _MEMO:
        T = catalog(name)
        s = Fraction(2, 3)
        A = _rescaled_algebra(T.A, 1, s)
        B = _rescaled_algebra(T.B, 0, s)
        eps = [[(s if p == 0 else 1) * x / (s if k == 1 else 1)
                for k, x in enumerate(T.eps.columns[p])]
               for p in range(B.dim)]
        _MEMO[key] = make_triple(A, B, eps, name=f"{name}_rescaled")
    return _MEMO[key]


# Per dimension, an integer change of basis of determinant 1 with no zero
# entry (its columns are the new basis vectors) and its inverse.
_MIX = {
    1: ([[1]], [[1]]),
    2: ([[2, 1], [1, 1]], [[1, -1], [-1, 2]]),
    3: ([[1, 1, 2], [1, 2, 3], [2, 3, 6]],
        [[3, 0, -1], [0, 2, -1], [-1, -1, 1]]),
}


def _mixed(P: list, v: list) -> list:
    return [sum(P[r][c] * v[c] for c in range(len(v))) for r in range(len(P))]


def _mixed_algebra(alg: FinAlgebra) -> FinAlgebra:
    """The same algebra in the basis given by the columns of _MIX."""
    P, Pinv = _MIX[alg.dim]
    r = range(alg.dim)
    mult = [[_mixed(Pinv, [sum(P[p][i] * P[q][j] * alg.mult[p][q][k]
                               for p in r for q in r) for k in r])
             for j in r] for i in r]
    return FinAlgebra(alg.dim, mult, _mixed(Pinv, alg.unit), alg.name)


def rebased_triple(name: str):
    """`rebased` of a catalog triple.  Not memoized: its degree-4 boundary
    is large, and its tables go when the caller drops it."""
    return rebased(catalog(name))


def rebased(T: Triple) -> Triple:
    """A triple whose algebras have dimension at most 3, rewritten in the
    basis given by the columns of _MIX in A and in B, built through
    make_triple and named after T with the suffix `_rebased`.

    It is isomorphic to T, but every new basis vector mixes all the old
    ones, so its structure constants are dense and its boundaries carry
    many more nonzeros.
    """
    P = _MIX[T.B.dim][0]
    Pinv = _MIX[T.A.dim][1]
    r = range(T.B.dim)
    eps = [_mixed(Pinv, [sum(P[l][j] * T.eps.columns[l][k] for l in r)
                         for k in range(T.A.dim)]) for j in r]
    return make_triple(_mixed_algebra(T.A), _mixed_algebra(T.B), eps,
                       name=f"{T.name}_rebased")


# Triples outside the catalog whose B is not the ground field.

def trunc3_over_dual_x2() -> Triple:
    """Q[x]/x^3 over Q[y]/y^2, with y sent to x^2."""
    A = truncated_polynomial_algebra(3, "Q[x]/x^3")
    B = truncated_polynomial_algebra(2, "Q[y]/y^2")
    return make_triple(A, B, [A.unit, [0, 0, 1]], name="trunc3_over_dual_x2")


def prod_over_prod_id() -> Triple:
    """Q x Q over itself, with eps the identity."""
    A, B = split_product_algebra(2, "QxQ"), split_product_algebra(2, "QxQ")
    return make_triple(A, B, [[1, 0], [0, 1]], name="prod_over_prod_id")


def cube_over_prod() -> Triple:
    """Q^3 over Q x Q, with (1, 0) sent to (1, 1, 0) and (0, 1) to
    (0, 0, 1)."""
    A, B = split_product_algebra(3, "Q^3"), split_product_algebra(2, "QxQ")
    return make_triple(A, B, [[1, 1, 0], [0, 0, 1]], name="cube_over_prod")


def dual_over_trunc3_x() -> Triple:
    """Q[x]/x^2 over Q[y]/y^3, with y sent to x (so y^2 to 0)."""
    A = truncated_polynomial_algebra(2, "Q[x]/x^2")
    B = truncated_polynomial_algebra(3, "Q[y]/y^3")
    return make_triple(A, B, [A.unit, [0, 1], [0, 0]],
                       name="dual_over_trunc3_x")


def sqzero_dual_x() -> Triple:
    """A = Q[x, y]/(x, y)^2 on the basis 1, x, y, over B = Q[t]/t^2, with
    t sent to x."""
    A = FinAlgebra.from_structure_constants(
        3, {(0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1, (1, 0, 1): 1,
            (2, 0, 2): 1}, [1, 0, 0], "Q[x,y]/(x,y)^2")
    B = truncated_polynomial_algebra(2, "Q[t]/t^2")
    return make_triple(A, B, [A.unit, [0, 1, 0]], name="sqzero_dual_x")


def dense_matrix(M) -> list:
    """An engine sparse matrix as a list of rows of Fractions, read
    column by column."""
    cols = [M.column(c) for c in range(M.ncols)]
    return [[col.get(r, Fraction(0)) for col in cols] for r in range(M.nrows)]


def densify(rows, ncols=None) -> list:
    """Sparse rows {column: value} as a list of dense rows, ncols wide
    (by default, just wide enough for every entry)."""
    if ncols is None:
        ncols = 1 + max((c for row in rows for c in row), default=-1)
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


def bar_boundary(A: FinAlgebra, n: int):
    """Classical boundary from (n+1)-fold to n-fold tensors, as sparse rows:
    the unnormalized bar complex, a reference for the normalized one the
    oracles rank and for the engine's boundary over B = Q.

    Row r is {column: value} for the n-fold tensor numbered r, {} when it
    is zero; a tensor (t_0, ..., t_n) is numbered by its base-d digits,
    t_0 leading.  Adjacent factors are multiplied with alternating signs;
    the last face wraps the final factor around to the front.  Each face
    is scattered into the rows a block of trailing factors at a time, so
    no dense matrix is built.  The faces are summed in integers, over the
    table's common denominator, and each entry is divided by it last.
    """
    if n < 1:
        raise ValueError("boundary needs degree at least 1")
    d = A.dim
    _check_cap(d ** (n + 1))
    den, mult, _ = _int_tables(A)
    rows = [{} for _ in range(d ** n)]
    for i in range(n):
        # Face i: (head, a, b, tail) goes to (head, ab, tail), with `low`
        # tails after the pair.
        sign = 1 if i % 2 == 0 else -1
        low = d ** (n - 1 - i)
        for head in range(d ** i):
            for a in range(d):
                for b in range(d):
                    src = ((head * d + a) * d + b) * low
                    for k, x in mult[a][b]:
                        x *= sign
                        dst = (head * d + k) * low
                        for t in range(low):
                            row = rows[dst + t]
                            row[src + t] = row.get(src + t, 0) + x
    # Face n: (a, middle, b) goes to (ba, middle).
    sign = 1 if n % 2 == 0 else -1
    low = d ** (n - 1)
    for a in range(d):
        for b in range(d):
            for k, x in mult[b][a]:
                x *= sign
                for t in range(low):
                    row = rows[k * low + t]
                    src = (a * low + t) * d + b
                    row[src] = row.get(src, 0) + x
    return [{c: x if den == 1 else Fraction(x, den)
             for c, x in row.items() if x} for row in rows]


def bar_rotation(A: FinAlgebra, n: int):
    """Signed cyclic rotation on (n+1)-fold tensors, as sparse rows.

    The rotation moves the last factor to the front, so row r holds one
    entry, at the tensor that rotates to r.
    """
    d = A.dim
    _check_cap(d ** (n + 1))
    top = d ** n
    sign = 1 if n % 2 == 0 else -1
    return [{(r % top) * d + r // top: sign} for r in range(d * top)]


def integer_rows(rows) -> list:
    """Each sparse row times the lcm of its entries' denominators: integer
    rows of the same rank, as `oracles.dense_rank` takes them."""
    out = []
    for row in rows:
        den = lcm(1, *(x.denominator for x in row.values()))
        out.append({c: x.numerator * (den // x.denominator)
                    for c, x in row.items()})
    return out


def dense_rank_of_sparse(M) -> int:
    """Rank of an engine sparse matrix, recomputed by the oracle from the
    rows of its integer numerators."""
    _check_cap(max(M.nrows, M.ncols))
    rows = [{} for _ in range(M.nrows)]
    for c, col in M.num.items():
        for r, x in col.items():
            rows[r][c] = x
    return dense_rank(rows)


def from_entries(nrows: int, ncols: int, entries) -> SparseMat:
    """The matrix with these (row, column, value) entries; values at one
    position add up."""
    cols: dict = {}
    for r, c, x in entries:
        if not (0 <= r < nrows and 0 <= c < ncols):
            raise AmbientDimensionError(
                f"entry ({r},{c}) outside {nrows}x{ncols}")
        col = cols.setdefault(c, {})
        col[r] = col.get(r, 0) + Fraction(x)
    return SparseMat(nrows, ncols, cols)


def value_columns(M) -> dict:
    """The nonzero columns of a SparseMat as {column: {row: Fraction}},
    read through `column`, whatever the stored form."""
    cols: dict = {}
    for c in range(M.ncols):
        col = M.column(c)
        assert all(type(x) is Fraction for x in col.values())
        if col:
            cols[c] = col
    return cols


def rotation(T, n: int) -> list:
    """The rotation in degree n as a list img, read off the engine's
    digit offsets (`chains._rotation_keys`): basis tensor c goes to
    (-1)^n times basis tensor img[c]."""
    return chains._keys_of_digits(chains.chain_space(T, n).radices,
                                  chains._rotation_keys(T, n))


def _signed_rotation(T, n: int, one: int, t: int) -> SparseMat:
    """one * 1 + t * (the cyclic operator) in degree n, built column by
    column from the engine's digit rotation: the cyclic operator sends
    basis tensor c to (-1)^n times basis tensor rotation(T, n)[c]."""
    img = rotation(T, n)
    cols = {}
    for c, i in enumerate(img):
        col = {c: one}
        col[i] = col.get(i, 0) + t * (-1) ** n
        col = {r: x for r, x in col.items() if x}
        if col:
            cols[c] = col
    return SparseMat.from_ints(len(img), len(img), cols)


def cyclic_operator(T, n: int) -> SparseMat:
    """The cyclic operator t in degree n, as a matrix."""
    return _signed_rotation(T, n, 0, 1)


def one_minus_cyclic(T, n: int) -> SparseMat:
    """1 - t in degree n, as a matrix."""
    return _signed_rotation(T, n, 1, -1)


def from_canonical(ambient_dim: int, rows: list, pivots: list) -> Subspace:
    """Wrap rows that are already the canonical RREF, with no elimination.

    `rows[k]` (ints or Fractions) has its least index at `pivots[k]`,
    value 1 there and 0 at every other pivot; pivots are nonnegative
    and strictly increase.  This is checked in time linear in the
    entries, and a violation raises ValueError.
    """
    pivots = list(pivots)
    pos = {p: k for k, p in enumerate(pivots)}
    if len(rows) != len(pivots) or any(
            a >= b for a, b in zip(pivots, pivots[1:])):
        raise ValueError("pivots must strictly increase, one per row")
    for p, row in zip(pivots, rows):
        if (p < 0 or row.get(p) != 1 or min(row) != p
                or max(row) >= ambient_dim
                or not all(row.values())
                or any(k != p and k in pos for k in row)):
            raise ValueError(f"row with pivot {p} is not in canonical form")
    # Over the lcm of its denominators a row with a 1 at its pivot is
    # primitive and positive there.
    return Subspace._of_int_rows(ambient_dim, pivots,
                                 [_ints(row)[0] for row in rows])


def coinvariant_relations(T, n: int) -> Subspace:
    """im(1 - t) in degree n, in canonical form read off the orbits of
    the rotation, as the engine built it before it kept the coinvariants
    as a class map: orbits walked from their smallest index, every row
    written out and passed through `from_canonical`."""
    img = rotation(T, n)
    sign = 1 if n % 2 == 0 else -1
    rows = {}
    seen = bytearray(len(img))
    for start in range(len(img)):
        if seen[start]:
            continue
        orbit, coef = [], []
        i, c = start, 1
        while not seen[i]:
            seen[i] = 1
            orbit.append(i)
            coef.append(c)
            c *= sign
            i = img[i]
        if c < 0:
            for i in orbit:
                rows[i] = {i: 1}
            continue
        m = max(orbit)
        cm = coef[orbit.index(m)]
        for i, ci in zip(orbit, coef):
            if i != m:
                rows[i] = {i: 1, m: -ci * cm}
    pivots = sorted(rows)
    return from_canonical(len(img), [rows[p] for p in pivots], pivots)


def reference_induced_on_quotients(M: SparseMat, src: QuotientStructure,
                                   dst: QuotientStructure) -> SparseMat:
    """The map M induces from src to dst as the engine built it before
    class maps, on any quotients: F = P M as a product with dst's
    projection matrix read off its relations, descent as F killing every
    relation row of src (InternalCheckError otherwise), then F S with
    src's section."""
    F = projection_matrix(dst.relations, dst.nonpivots) @ M
    if not _kills(F, src.relations._int_rows):
        raise InternalCheckError("map does not descend to the quotient")
    return F @ src.section_matrix()


def reference_validate_algebra(A: FinAlgebra) -> AlgebraReport:
    """validate_algebra as it was before it read the table as integer
    supports: both bracketings of every basis triple, and the unit laws,
    through dense `multiply` calls in Fractions."""
    report = AlgebraReport(associative=True)
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                left = multiply(A, A.mult[i][j], basis_vector(A.dim, k))
                right = multiply(A, basis_vector(A.dim, i), A.mult[j][k])
                if left != right:
                    report.associative = False
                    report.assoc_witness = (i, j, k)
                    break
            if not report.associative:
                break
        if not report.associative:
            break
    for i in range(A.dim):
        e_i = basis_vector(A.dim, i)
        if multiply(A, A.unit, e_i) != e_i or multiply(A, e_i, A.unit) != e_i:
            report.unital = False
            report.unit_witness = i
            break
    for i in range(A.dim):
        for j in range(i + 1, A.dim):
            if A.mult[i][j] != A.mult[j][i]:
                report.commutative = False
                report.comm_witness = (i, j)
                break
        if not report.commutative:
            break
    return report


def reference_is_central(A: FinAlgebra, v) -> bool:
    """`algebra.is_central` as it was before it multiplied integer
    supports: v e_i against e_i v through dense `multiply` calls."""
    for i in range(A.dim):
        e_i = basis_vector(A.dim, i)
        if multiply(A, v, e_i) != multiply(A, e_i, v):
            return False
    return True


def upper_triangular_algebra() -> FinAlgebra:
    """The upper-triangular 2x2 matrices in the basis (I, E12, E11).  E12
    commutes with I and with itself but not with E11, the last basis
    vector, and the unit's support misses E11."""
    return FinAlgebra.from_structure_constants(
        3, {(0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1, (1, 0, 1): 1,
            (2, 0, 2): 1, (2, 1, 1): 1, (2, 2, 2): 1}, [1, 0, 0], "T2(Q)")


def reference_make_triple(A: FinAlgebra, B: FinAlgebra, eps_columns,
                          name: str = "") -> Triple:
    """`triples.make_triple` as it was before its eps checks multiplied
    integer supports: eps(f_i f_j) against eps(f_i) eps(f_j) and the
    centrality of each eps(f_i), in Fractions through `multiply`, with
    the same errors, messages and witnesses."""
    reports = []
    for label, alg in (("A", A), ("B", B)):
        rep = reference_validate_algebra(alg)
        if not rep.valid:
            bad = ("associativity", rep.assoc_witness) if not rep.associative \
                else ("unit law", rep.unit_witness)
            raise AlgebraInvalidError(
                f"algebra {label} ({alg.name or 'unnamed'}) fails {bad[0]} "
                f"at basis witness {bad[1]}", witness=(label, *bad))
        reports.append(rep)
    rep_a, rep_b = reports
    if not rep_b.commutative:
        i, j = rep_b.comm_witness
        raise BaseNotCommutativeError(
            f"B is not commutative: basis products {i},{j} and {j},{i} differ",
            witness=rep_b.comm_witness)
    eps = AlgMorphism(B, A, eps_columns, name=f"eps:{name}" if name else "eps")
    img_unit = eps.apply(B.unit)
    if img_unit != A.unit:
        raise EpsNotUnitalError(
            f"eps(1_B) = {img_unit} differs from 1_A = {A.unit}",
            witness=img_unit)
    for i in range(B.dim):
        for j in range(B.dim):
            lhs = eps.apply(B.mult[i][j])
            rhs = multiply(A, eps.columns[i], eps.columns[j])
            if lhs != rhs:
                raise EpsNotMultiplicativeError(
                    f"eps is not multiplicative on basis pair ({i}, {j}): "
                    f"eps(f_{i} f_{j}) = {lhs} but eps(f_{i}) eps(f_{j}) = {rhs}",
                    witness=(i, j, lhs, rhs))
    for i in range(B.dim):
        if not reference_is_central(A, eps.columns[i]):
            raise EpsImageNotCentralError(
                f"eps(f_{i}) = {eps.columns[i]} is not central in A",
                witness=(i, eps.columns[i]))
    return Triple(A, B, eps, commutative=rep_a.commutative, name=name)


def reference_sandwich(T) -> list:
    """The sandwiches e_i eps(f_k) e_j of `triples._Tables`, indexed
    [i][k][j], as dense Fraction vectors through two `multiply` calls
    each, as the tables built them before they multiplied A's integer
    supports."""
    A, da = T.A, T.A.dim
    return [[[multiply(A, multiply(A, basis_vector(da, i), col),
                       basis_vector(da, j)) for j in range(da)]
             for col in T.eps.columns] for i in range(da)]


def commutator_subspace(A: FinAlgebra) -> Subspace:
    """Span of all basis commutators e_i e_j - e_j e_i."""
    vectors = []
    for i in range(A.dim):
        for j in range(i + 1, A.dim):
            diff = [a - b for a, b in zip(A.mult[i][j], A.mult[j][i])]
            if any(diff):
                vectors.append(diff)
    return Subspace(A.dim, vectors)


def relation_span_inputs(T, flavor: str, n: int) -> tuple:
    """What `homology._quotient_of_complex` takes for hh or hc in degree n:
    the cycles, the next boundary's integer columns in order, and the
    weight key of each degree-n coordinate."""
    weights = chains.chain_weights(T, n)
    if flavor == "hh":
        d, d_next = chains.boundary(T, n), chains.boundary(T, n + 1)
    else:
        d, d_next = _induced_boundary(T, n), _induced_boundary(T, n + 1)
        weights = [weights[c] for c in chains.cyclic_quotient(T, n).nonpivots]
    return nullspace(d), [d_next.num[c] for c in sorted(d_next.num)], weights


def quotient_of_columns(cycles: Subspace, cols: list,
                        weights: list) -> QuotientStructure:
    """`homology._quotient_of_complex` on the columns `cols`, numbered in
    order, fed as weight blocks the way hc feeds its induced boundary."""
    return _quotient_of_complex(
        cycles, _by_weight(dict(enumerate(cols)), weights), weights)


def peel_sweeps(cycles: Subspace, cols) -> tuple:
    """The units and the peel of `homology._quotient_of_complex`, found
    with no incidence: sweeps over the columns settle the one live cycle
    pivot of each column that has exactly one when it is read, until a
    sweep settles nothing.  Returns the settled pivots and the numbers of
    the columns that settled one."""
    pos = cycles._pivot_pos
    settled = {min(col) for col in cols if len(col) == 1}
    peeled: set = set()
    while True:
        before = len(peeled)
        for c, col in enumerate(cols):
            left = [p for p in col if p in pos and p not in settled]
            if len(col) > 1 and len(left) == 1:
                peeled.add(c)
                settled.add(left[0])
        if len(peeled) == before:
            return settled, peeled


def reference_quotient_of_complex(cycles: Subspace, cols) -> QuotientStructure:
    """The homology quotient with one relation span over all weights, as
    the engine built it before the span was split into weight blocks: it
    stops only once it is the whole cycle space."""
    pos = cycles._pivot_pos
    rels = Subspace(cycles.dim)
    for col in cols:
        if rels.dim == cycles.dim:
            break
        rels.add({pos[p]: x for p, x in col.items() if p in pos})
    return QuotientStructure(cycles.dim, rels)


def derivation_identity_failures(T) -> list:
    """Check the four product laws of the universal derivation on every
    basis instantiation; return the offending (identity, indices) list.

    With e ranging over the basis of A, f over the basis of B, and classes
    taken in the presented quotient, the laws are:

      1. d(fp fq (x) ek el) = ek eps(fp) d(fq (x) el) + el eps(fq) d(fp (x) ek)
      2. d(1 (x) ek el)     = ek d(1 (x) el) + el d(1 (x) ek)
      3. d(fp fq (x) 1)     = eps(fp) d(fq (x) 1) + eps(fq) d(fp (x) 1)
      4. d(fp (x) ek)       = eps(fp) d(1 (x) ek) + ek d(fp (x) 1)
    """
    P = omega(T)
    A, B = T.A, T.B
    da, db = A.dim, B.dim
    one = Fraction(1)

    def eb(i):
        return [one if t == i else Fraction(0) for t in range(da)]

    def fb(i):
        return [one if t == i else Fraction(0) for t in range(db)]

    def sym(coeff, alpha, a):
        return ambient_symbol(T, coeff, alpha, a)

    bad = []
    for p in range(db):
        ep = T.eps.columns[p]
        for q in range(db):
            eq = T.eps.columns[q]
            for k in range(da):
                for l in range(da):
                    lhs = sym(A.unit, B.mult[p][q], A.mult[k][l])
                    rhs = sym(multiply(A, eb(k), ep), fb(q), eb(l))
                    t2 = sym(multiply(A, eb(l), eq), fb(p), eb(k))
                    diff = [x - y - z for x, y, z in zip(lhs, rhs, t2)]
                    if not P.relations.contains(diff):
                        bad.append((1, (p, q, k, l)))
            lhs = sym(A.unit, B.mult[p][q], A.unit)
            rhs = sym(ep, fb(q), A.unit)
            t2 = sym(eq, fb(p), A.unit)
            diff = [x - y - z for x, y, z in zip(lhs, rhs, t2)]
            if not P.relations.contains(diff):
                bad.append((3, (p, q)))
        for k in range(da):
            lhs = sym(A.unit, fb(p), eb(k))
            rhs = sym(ep, B.unit, eb(k))
            t2 = sym(eb(k), fb(p), A.unit)
            diff = [x - y - z for x, y, z in zip(lhs, rhs, t2)]
            if not P.relations.contains(diff):
                bad.append((4, (p, k)))
    for k in range(da):
        for l in range(da):
            lhs = sym(A.unit, B.unit, A.mult[k][l])
            rhs = sym(eb(k), B.unit, eb(l))
            t2 = sym(eb(l), B.unit, eb(k))
            diff = [x - y - z for x, y, z in zip(lhs, rhs, t2)]
            if not P.relations.contains(diff):
                bad.append((2, (k, l)))
    return bad


# -- the degree-one layer in Fractions -------------------------------------
#
# The engine builds these objects in integers from `triples._tables`; these
# are the Fraction builders it used before, most through `algebra.multiply`,
# kept as references for the equality gate.

def _sub(u: list, v: list) -> None:
    for i, x in enumerate(v):
        if x:
            u[i] -= x


def reference_omega_relations(T) -> Subspace:
    """The relation span of the symbol module, every product-rule instance
    and balancing vector formed in Fractions."""
    A, B, eps = T.A, T.B, T.eps
    da, db = A.dim, B.dim
    rels = []
    for m in range(da):
        e_m = basis_vector(da, m)
        for p in range(db):
            eps_p = eps.columns[p]
            for r in range(db):
                eps_r = eps.columns[r]
                for q in range(da):
                    for s in range(da):
                        vec = ambient_symbol(T, e_m, B.mult[p][r],
                                             A.mult[q][s])
                        c1 = multiply(A, e_m,
                                      multiply(A, basis_vector(da, q), eps_p))
                        _sub(vec, ambient_symbol(T, c1, basis_vector(db, r),
                                                 basis_vector(da, s)))
                        c2 = multiply(A, e_m,
                                      multiply(A, basis_vector(da, s), eps_r))
                        _sub(vec, ambient_symbol(T, c2, basis_vector(db, p),
                                                 basis_vector(da, q)))
                        if any(vec):
                            rels.append(vec)
            vec = [2 * x for x in
                   ambient_symbol(T, e_m, basis_vector(db, p), A.unit)]
            _sub(vec, ambient_symbol(T, e_m, B.unit, eps_p))
            if any(vec):
                rels.append(vec)
    return Subspace(da * db * da, rels)


def reference_forward_matrix(T) -> SparseMat:
    """`verify.forward_matrix` built column by column in Fractions."""
    A, B = T.A, T.B
    da, db = A.dim, B.dim
    cols = []
    for m in range(da):
        for j in range(db):
            sand = multiply(A, basis_vector(da, m), T.eps.columns[j])
            for k in range(da):
                scaled = multiply(A, sand, basis_vector(da, k))
                vec = [-x for x in embed_tensor(T, scaled, A.unit, B.unit)]
                vec[tensor_index(T, m, k, j)] += ONE
                cols.append(vec)
    return SparseMat.from_columns(da * da * db, cols)


def reference_multiplication_matrix(T) -> SparseMat:
    """`kernel.multiplication_matrix` built in Fractions."""
    A, eps = T.A, T.eps
    da, db = A.dim, T.B.dim
    return SparseMat.from_columns(
        da, [multiply(A, A.mult[i][j], eps.columns[k])
             for i in range(da) for j in range(da) for k in range(db)])


def tensor_cube(T) -> FinAlgebra:
    """A (x) A (x) B with the componentwise product."""
    return tensor_algebra(tensor_algebra(T.A, T.A), T.B)


def reference_kernel_data(T) -> dict:
    """The subspaces of `kernel.kernel_data`, by name, with every product
    formed in Fractions in the tensor algebra `tensor_cube(T)`."""
    A, B = T.A, T.B
    P3 = tensor_cube(T)
    mm = reference_multiplication_matrix(T)
    J = nullspace(mm)
    j_rows = [to_dense(row, mm.ncols) for row in J.rows]
    products = [multiply(P3, u, v) for i, u in enumerate(j_rows)
                for v in j_rows[i:]]
    j_squared = Subspace(mm.ncols, products)
    hat_vecs = []
    for p in range(B.dim):
        eps_p = T.eps.columns[p]
        vec = [2 * x for x in
               embed_tensor(T, A.unit, A.unit, basis_vector(B.dim, p))]
        _sub(vec, embed_tensor(T, eps_p, A.unit, B.unit))
        _sub(vec, embed_tensor(T, A.unit, eps_p, B.unit))
        hat_vecs.append(vec)
    j_hat = Subspace(mm.ncols, hat_vecs)
    closed = list(hat_vecs)
    for vec in hat_vecs:
        for i in range(A.dim):
            for j in range(A.dim):
                factor = embed_tensor(T, basis_vector(A.dim, i),
                                      basis_vector(A.dim, j), B.unit)
                closed.append(multiply(P3, factor, vec))
    j_hat_closed = Subspace(mm.ncols, closed)
    relations = j_squared.sum(j_hat_closed)
    rel_in_j = Subspace(J.dim, [J.coords_of(row) for row in relations.rows])
    return {"J": J, "j_squared": j_squared, "j_hat": j_hat,
            "j_hat_closed": j_hat_closed,
            "span_relations": j_squared.sum(j_hat), "relations": relations,
            "relations_in_J": rel_in_j}


def reference_connes_b_chain(T) -> SparseMat:
    """`verify.connes_b_chain` built as before it read the triple's
    integer tables: Fraction products of the units of A and B, summed
    entry by entry."""
    cs1 = chains.chain_space(T, 1)
    da = T.A.dim
    cols = {}
    for i in range(da):
        acc: dict = {}
        for j, ua in enumerate(T.A.unit):
            if not ua:
                continue
            for k, ub in enumerate(T.B.unit):
                if not ub:
                    continue
                for a0, a1 in ((j, i), (i, j)):
                    ix = cs1.linearize((a0, a1), {(0, 1): k})
                    val = acc.get(ix, Fraction(0)) + ua * ub
                    if val:
                        acc[ix] = val
                    else:
                        acc.pop(ix, None)
        if acc:
            cols[i] = acc
    return SparseMat(chains.chain_dim(T, 1), da, cols)


def reference_transfer_matrices(T) -> tuple:
    """`verify.transfer_matrices` built as before, from Fraction ones."""
    cs1 = chains.chain_space(T, 1)
    da, db = T.A.dim, T.B.dim
    cols = {}
    for i0 in range(da):
        for i1 in range(da):
            for j in range(db):
                src = cs1.linearize((i0, i1), {(0, 1): j})
                cols[src] = {symbol_index(T, i0, j, i1): ONE}
    phi = SparseMat(da * db * da, cs1.dim, cols)
    return phi, phi.transpose()


def reference_prop_omega_J(T, b) -> tuple:
    """`verify._prop_omega_J` as it was before it pulled back along the
    transfer permutation: each kernel relation and each kernel class is
    pulled back under the forward map by `solve`, one elimination apiece,
    and projected onto the symbol module by reduction against its
    relations.  Records its checks on the builder b and returns (f_bar,
    g_bar), as the engine's body does."""
    P, K = omega(T), kernel_data(T)
    F = forward_matrix(T)

    b.check("forward images lie in the kernel", product_is_zero(K.m_matrix, F))
    b.check("forward images span the kernel", colspace(F) == K.J)

    tb = _tables(T)
    da, db = T.A.dim, T.B.dim
    b.check_all("product-rule images land in the squared kernel",
                ({"b_pair": (p, q), "a_pair": (k, l)}
                 for p, q, k, l in product(range(db), range(db),
                                           range(da), range(da))
                 if not K.j_squared.contains(F._times(
                     _product_rule(tb, da, db, tb.aunit, p, q, k, l)))))
    b.check_all("balancing images land in the balancing span",
                ({"b_index": p} for p in range(db)
                 if not K.j_hat.contains(F._times(
                     _balancing(tb, da, db, tb.aunit, p)))))
    b.check_all("symbol relations map into kernel relations",
                ({"relation": i, "vector": _wvec(P.relations.row(i))}
                 for i, row in enumerate(P.relations._int_rows)
                 if not K.relations.contains(F._times(row))))

    pulled = (solve(F, row) for row in K.relations.rows)
    b.check_all("kernel relations pull back to symbol relations",
                ({"kernel_relation": i,
                  "preimage": "none" if w is None else
                  [str(x) for x in to_dense(w, F.ncols)]}
                 for i, w in enumerate(pulled)
                 if w is None or not P.relations.contains(w)))

    pos = K.J._pivot_pos  # pivot entries, read unchecked
    C = SparseMat.from_columns(
        K.J.dim, [{pos[p]: x for p, x in F.column(c).items() if p in pos}
                  for c in range(F.ncols)])
    f_bar = K.quotient.project_matrix() @ C @ P.section_matrix()

    def project(w):  # reduce against the relations, read the remainder
        axes = P.nonpivots
        return {bisect_left(axes, c): x
                for c, x in P.relations.reduce(w).items()}

    g_bar = None
    pulled = [solve(F, K.J.rows[c]) for c in K.quotient.nonpivots]
    if b.check_all("kernel classes pull back",
                   ({"class": j} for j, w in enumerate(pulled) if w is None)):
        g_bar = SparseMat.from_columns(P.dim, map(project, pulled))
        b.check("round trip on the kernel quotient is the identity",
                f_bar @ g_bar == SparseMat.identity(K.quotient.dim))
        b.check("round trip on the symbol module is the identity",
                g_bar @ f_bar == SparseMat.identity(P.dim))
    b.check("dimensions agree", P.dim == K.quotient.dim)
    b.dims(omega=P.dim, kernel=K.J.dim, j_squared=K.j_squared.dim,
           j_hat=K.j_hat.dim, kernel_relations_span=K.span_relations.dim,
           kernel_relations=K.relations.dim, readings_agree=K.readings_agree,
           kernel_quotient=K.quotient.dim)
    return f_bar, g_bar
