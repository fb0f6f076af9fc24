"""The kernel presentation of a commutative triple.

Inside the componentwise tensor algebra P = A (x) A (x) B, the
multiplication map sends a basis tensor e_i (x) e_j (x) f_k to
e_i e_j eps(f_k).  Its kernel J is an ideal (the map is an algebra
homomorphism because A is commutative).  Two relation spaces are formed
inside J: the span of pairwise products of J basis vectors, and the
balancing vectors

    2 (1 (x) 1 (x) beta) - eps(beta) (x) 1 (x) 1 - 1 (x) eps(beta) (x) 1.

The quotient of J by their sum is the object the degree-one isomorphism
checks target.  That quotient must carry the coefficient action of A --
both comparison maps in the isomorphism checks are coefficient-linear --
so the denominator uses the balancing span closed under multiplication
by the coefficient tensors e_i (x) e_j (x) 1.  The raw (unclosed) span
can be strictly smaller: its dimension is recorded alongside, and
``readings_agree`` reports whether the two coincide, so the difference
is always surfaced rather than silently absorbed.  Everything is formed
in integers from the triple's tables (`triples._tables`).
"""

from __future__ import annotations

from .algebra import _vec, multiply
from .linalg import (InternalCheckError, QuotientStructure, SparseMat,
                     Subspace, _ints, _outer, _summed, nullspace, to_dense)
from .triples import Triple, _tables, per_triple


class KernelData:
    def __init__(self, m_matrix: SparseMat, J: Subspace, j_squared: Subspace,
                 j_hat: Subspace, j_hat_closed: Subspace,
                 span_relations: Subspace, relations: Subspace,
                 quotient: QuotientStructure, readings_agree: bool):
        self.m_matrix, self.J, self.j_squared = m_matrix, J, j_squared
        self.j_hat = j_hat  # raw span of the balancing vectors
        self.j_hat_closed = j_hat_closed  # closed under the coefficient action
        # j_squared + j_hat in ambient coordinates, and j_squared +
        # j_hat_closed, the quotient denominator
        self.span_relations, self.relations = span_relations, relations
        self.quotient = quotient  # of J coordinates by the relations
        self.readings_agree = readings_agree  # span_relations == relations

    @property
    def dim(self) -> int:
        return self.quotient.dim


def tensor_index(T: Triple, i: int, j: int, k: int) -> int:
    """Position of e_i (x) e_j (x) f_k."""
    da, db = T.A.dim, T.B.dim
    if not (0 <= i < da and 0 <= j < da and 0 <= k < db):
        raise ValueError(f"tensor index ({i}, {j}, {k}) out of range")
    return (i * da + j) * db + k


def embed_tensor(T: Triple, x, y, beta) -> list:
    """Dense coordinates of x (x) y (x) beta."""
    da, db = T.A.dim, T.B.dim
    vecs = _vec(x), _vec(y), _vec(beta)
    if list(map(len, vecs)) != [da, da, db]:
        raise ValueError("tensor factors have wrong lengths")
    supports = [[(i, c) for i, c in enumerate(v) if c] for v in vecs]
    return to_dense(dict(_outer(da, db, *supports)), da * da * db)


# Vectors of A (x) A (x) B below are sparse dicts of integers over the
# tables `tb` of `triples._Tables`, each exact up to a scale, which leaves
# every span, kernel and membership built from them alone.

def _product(tb, da: int, db: int, u: dict, v: dict) -> dict:
    """The componentwise product u v, digit by digit: e_i (x) e_j (x) f_k
    times e_i' (x) e_j' (x) f_k' is e_i e_i' (x) e_j e_j' (x) f_k f_k'."""
    n = da * db
    return _summed(
        term for x, c in u.items() for y, d in v.items()
        for term in _outer(da, db, [(a, c * d * w) for a, w in
                                    tb.aprod[x // n][y // n]],
                           tb.aprod[x // db % da][y // db % da],
                           tb.bprod[x % db][y % db]))


def _m_column(tb, da: int, db: int, c: int) -> tuple:
    """The support of e_i e_j eps(f_k) = e_i eps(f_k) e_j (eps is central),
    c being the index of e_i (x) e_j (x) f_k."""
    return tb.sandwich[c // (da * db)][c % db][c // db % da]


def multiplication_matrix(T: Triple) -> SparseMat:
    """The map e_i (x) e_j (x) f_k to e_i e_j eps(f_k), as a matrix."""
    tb = _tables(T)
    da, db = T.A.dim, T.B.dim
    cols = {c: dict(_m_column(tb, da, db, c)) for c in range(da * da * db)}
    return SparseMat.from_ints(da, da * da * db,
                               {c: col for c, col in cols.items() if col},
                               tb.sden)


def j_generator(T: Triple, alpha, a) -> list:
    """The vector 1 (x) a (x) alpha - (a eps(alpha)) (x) 1 (x) 1; always in J."""
    A, B = T.A, T.B
    alpha, a = _vec(alpha), _vec(a)
    if len(alpha) != B.dim or len(a) != A.dim:
        raise ValueError("argument vectors have wrong lengths")
    vec = embed_tensor(T, A.unit, a, alpha)
    scaled = multiply(A, a, T.eps.apply(alpha))
    for i, x in enumerate(embed_tensor(T, scaled, A.unit, B.unit)):
        vec[i] -= x
    tb = _tables(T)
    if _summed((t, x * y) for c, x in _ints(vec)[0].items()
               for t, y in _m_column(tb, A.dim, B.dim, c)):
        raise InternalCheckError("generator escaped the multiplication kernel")
    return vec


@per_triple
def kernel_data(T: Triple) -> KernelData:
    """Assemble the kernel, its relation spaces, and the quotient."""
    T.require_commutative("the kernel presentation")
    tb = _tables(T)
    da, db = T.A.dim, T.B.dim
    mm = multiplication_matrix(T)
    J = nullspace(mm)
    n = mm.ncols

    # A (x) A (x) B is commutative, as A and B are, so each product is
    # formed once.
    rows = J._int_rows
    j_squared = Subspace(n, (_product(tb, da, db, u, v)
                             for i, u in enumerate(rows) for v in rows[i:]))

    one, minus = tb.aunit, [(k, -x) for k, x in tb.bunit]
    hat_vecs = [_summed(_outer(da, db, one, one, ((p, 2 * tb.lden),))
                        + _outer(da, db, e, one, minus)
                        + _outer(da, db, one, e, minus))
                for p, e in enumerate(tb.eps)]
    j_hat = Subspace(n, hat_vecs)

    # Multiplying by every basis tensor e_i (x) e_j (x) 1 in one sweep is the
    # full closure: products of such factors are again of that shape.
    j_hat_closed = Subspace(n, hat_vecs + [
        _product(tb, da, db, dict(_outer(da, db, ((i, 1),), ((j, 1),),
                                         tb.bunit)), vec)
        for vec in hat_vecs for i in range(da) for j in range(da)])

    span_relations = j_squared.sum(j_hat)
    relations = j_squared.sum(j_hat_closed)
    for row in relations._int_rows:
        if not J.contains(row):
            raise InternalCheckError("relation space escaped the kernel")

    return KernelData(
        m_matrix=mm, J=J, j_squared=j_squared,
        j_hat=j_hat, j_hat_closed=j_hat_closed,
        span_relations=span_relations, relations=relations,
        quotient=QuotientStructure(J.dim, Subspace(
            J.dim, map(J._coords, relations._int_rows))),
        readings_agree=(span_relations == relations))


def symmetry_check(T: Triple) -> bool:
    """Left and right coefficient actions agree on J modulo the relations.

    The difference (e_m (x) 1 (x) 1) v - (1 (x) e_m (x) 1) v factors as
    a product of two kernel elements, so membership is tested against the
    raw span reading -- the stronger of the two denominators.
    """
    K = kernel_data(T)
    tb = _tables(T)
    da, db = T.A.dim, T.B.dim
    minus = [(k, -x) for k, x in tb.bunit]
    return all(K.span_relations.contains(_product(tb, da, db, _summed(
        _outer(da, db, ((m, 1),), tb.aunit, tb.bunit)
        + _outer(da, db, tb.aunit, ((m, 1),), minus)), row))
        for row in K.J._int_rows for m in range(da))
