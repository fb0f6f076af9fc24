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
d(1 (x) 1) = 0 already lies in the product-rule span.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import _vec, multiply
from .linalg import (ZERO, QuotientStructure, SparseMat, Subspace,
                     basis_vector)
from .triples import Triple, per_triple


@dataclass(eq=False)
class OmegaPresentation:
    ambient_dim: int
    relations: Subspace
    quotient: QuotientStructure

    @property
    def dim(self) -> int:
        return self.quotient.dim


def symbol_index(T: Triple, m: int, j: int, k: int) -> int:
    """Position of the symbol e_m d(f_j (x) e_k)."""
    da, db = T.A.dim, T.B.dim
    if not (0 <= m < da and 0 <= j < db and 0 <= k < da):
        raise ValueError(f"symbol index ({m}, {j}, {k}) out of range")
    return (m * db + j) * da + k


def ambient_symbol(T: Triple, coeff, alpha, a) -> list:
    """Dense ambient vector of (coeff) d(alpha (x) a), expanded trilinearly."""
    da, db = T.A.dim, T.B.dim
    coeff, alpha, a = _vec(coeff), _vec(alpha), _vec(a)
    if len(coeff) != da or len(a) != da or len(alpha) != db:
        raise ValueError("coefficient and argument vectors have wrong lengths")
    out = [ZERO] * (da * db * da)
    for m, cm in enumerate(coeff):
        if not cm:
            continue
        for j, xj in enumerate(alpha):
            if not xj:
                continue
            base = (m * db + j) * da
            cx = cm * xj
            for k, yk in enumerate(a):
                if yk:
                    out[base + k] += cx * yk
    return out


def _sub(u: list, v: list) -> None:
    for i, x in enumerate(v):
        if x:
            u[i] -= x


@per_triple
def omega(T: Triple) -> OmegaPresentation:
    """Build the presented module; A must be commutative."""
    T.require_commutative("the module of differential symbols")
    A, B, eps = T.A, T.B, T.eps
    da, db = A.dim, B.dim
    ambient = da * db * da
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
    relations = Subspace(ambient, rels)
    return OmegaPresentation(ambient, relations,
                             QuotientStructure(ambient, relations))


def d_symbol(T: Triple, alpha, a) -> dict:
    """Quotient coordinates of the class of d(alpha (x) a), sparse."""
    return omega(T).quotient.project(ambient_symbol(T, T.A.unit, alpha, a))


def d_one_A_subspace(T: Triple) -> Subspace:
    """Span of the classes d(1 (x) a) inside the quotient coordinates."""
    vecs = [d_symbol(T, T.B.unit, basis_vector(T.A.dim, k))
            for k in range(T.A.dim)]
    return Subspace(omega(T).dim, vecs)


def coefficient_action(T: Triple, m: int) -> SparseMat:
    """Ambient matrix of premultiplication of the coefficient by e_m."""
    da, db = T.A.dim, T.B.dim
    cols = {}
    for mm in range(da):
        prod = T.A.mult[m][mm]
        for j in range(db):
            for k in range(da):
                src = (mm * db + j) * da + k
                col = {}
                for t, x in enumerate(prod):
                    if x:
                        col[(t * db + j) * da + k] = x
                if col:
                    cols[src] = col
    ambient = da * db * da
    return SparseMat(ambient, ambient, cols)
