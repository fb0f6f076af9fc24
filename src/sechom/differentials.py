"""The module of differential symbols of a commutative triple.

The ambient space is the free A-module on symbols d(beta (x) b) with beta
from the B basis and b from the A basis; a basis symbol with coefficient
e_m is linearized as (m * dim(B) + j) * dim(A) + k.  Two relation families
are imposed, each closed under premultiplication by the A basis so the
span is a submodule:

* the product rule
  d(alpha beta (x) a b) = a eps(alpha) d(beta (x) b) + b eps(beta) d(alpha (x) a),
  instantiated on all basis pairs,
* the balancing rule  2 d(beta (x) 1) = d(1 (x) eps(beta)).

Additivity in both arguments is built into the symbol expansion, and
d(1 (x) 1) = 0 already lies in the product-rule span.  The relations are
formed in integers from the triple's tables (`triples._tables`).
"""

from __future__ import annotations

from .algebra import _vec
from .linalg import (QuotientStructure, SparseMat, Subspace, _outer, _summed,
                     to_dense)
from .triples import Triple, _tables, per_triple


def symbol_index(T: Triple, m: int, j: int, k: int) -> int:
    """Position of the symbol e_m d(f_j (x) e_k)."""
    da, db = T.A.dim, T.B.dim
    if not (0 <= m < da and 0 <= j < db and 0 <= k < da):
        raise ValueError(f"symbol index ({m}, {j}, {k}) out of range")
    return (m * db + j) * da + k


def ambient_symbol(T: Triple, coeff, alpha, a) -> list:
    """Dense ambient vector of (coeff) d(alpha (x) a), expanded trilinearly."""
    da, db = T.A.dim, T.B.dim
    vecs = _vec(coeff), _vec(alpha), _vec(a)
    if list(map(len, vecs)) != [da, db, da]:
        raise ValueError("coefficient and argument vectors have wrong lengths")
    supports = [[(i, x) for i, x in enumerate(v) if x] for v in vecs]
    return to_dense(dict(_outer(db, da, *supports)), da * db * da)


# The relations in integers over the tables `tb` of `triples._Tables`, for a
# coefficient c given by its integer support: each is exact up to a scale,
# which leaves every span and membership alone.

def _product_rule(tb, da: int, db: int, coeff, p: int, r: int, q: int,
                  s: int) -> dict:
    """c d(f_p f_r (x) e_q e_s) minus c e_q eps(f_p) d(f_r (x) e_s) and
    c e_s eps(f_r) d(f_p (x) e_q)."""
    w = -tb.aden * tb.bden
    return _summed(
        _outer(db, da, [(m, c * tb.sden) for m, c in coeff], tb.bprod[p][r],
               tb.aprod[q][s])
        + [term for m, c in coeff for term in
           _outer(db, da, tb.sandwich[m][p][q], ((r, w * c),), ((s, 1),))
           + _outer(db, da, tb.sandwich[m][r][s], ((p, w * c),), ((q, 1),))])


def _balancing(tb, da: int, db: int, coeff, p: int) -> dict:
    """c (2 d(f_p (x) 1) - d(1 (x) eps(f_p)))."""
    return _summed(
        _outer(db, da, [(m, 2 * tb.lden * c) for m, c in coeff], ((p, 1),),
               tb.aunit)
        + _outer(db, da, [(m, -c) for m, c in coeff], tb.bunit, tb.eps[p]))


@per_triple
def omega(T: Triple) -> QuotientStructure:
    """The presented module, the symbols modulo the relations; A must be
    commutative.  A and B commute, so the product-rule instance for
    (f_p, e_q), (f_r, e_s) is the one for (f_r, e_s), (f_p, e_q), and each
    pair is taken once."""
    T.require_commutative("the module of differential symbols")
    tb = _tables(T)
    da, db = T.A.dim, T.B.dim
    relations = Subspace(da * db * da)
    pairs = [(p, q) for p in range(db) for q in range(da)]
    for m in range(da):
        e_m = ((m, 1),)
        for i, (p, q) in enumerate(pairs):
            for r, s in pairs[i:]:
                relations.add(_product_rule(tb, da, db, e_m, p, r, q, s))
        for p in range(db):
            relations.add(_balancing(tb, da, db, e_m, p))
    return QuotientStructure(relations.ambient_dim, relations)


def d_symbol(T: Triple, alpha, a) -> dict:
    """Quotient coordinates of the class of d(alpha (x) a), sparse."""
    return omega(T).project(ambient_symbol(T, T.A.unit, alpha, a))


def d_one_A_subspace(T: Triple) -> Subspace:
    """Span of the classes d(1 (x) a) inside the quotient coordinates."""
    tb = _tables(T)
    Q = omega(T)
    return Subspace(Q.dim, (
        Q.project(dict(_outer(T.B.dim, T.A.dim, tb.aunit, tb.bunit,
                              ((k, 1),))))
        for k in range(T.A.dim)))


def coefficient_action(T: Triple, m: int) -> SparseMat:
    """Ambient matrix of premultiplication of the coefficient by e_m."""
    da, db = T.A.dim, T.B.dim
    if not 0 <= m < da:
        raise ValueError(f"coefficient index {m} out of range")
    tb = _tables(T)
    cols = {(mm * db + j) * da + k:
            dict(_outer(db, da, tb.aprod[m][mm], ((j, 1),), ((k, 1),)))
            for mm in range(da) for j in range(db) for k in range(da)
            if tb.aprod[m][mm]}
    return SparseMat.from_ints(da * db * da, da * db * da, cols, tb.aden)
