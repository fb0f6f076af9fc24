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
is always surfaced rather than silently absorbed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FinAlgebra, _vec, multiply, tensor_algebra
from .linalg import (ZERO, InternalCheckError, QuotientStructure, SparseMat,
                     Subspace, basis_vector, nullspace, to_dense)
from .triples import Triple, per_triple


@dataclass(eq=False)
class KernelData:
    algebra: FinAlgebra  # A (x) A (x) B with componentwise product
    m_matrix: SparseMat
    J: Subspace
    j_squared: Subspace
    j_hat: Subspace  # raw span of the balancing vectors
    j_hat_closed: Subspace  # closed under the coefficient action
    span_relations: Subspace  # j_squared + j_hat, ambient coordinates
    relations: Subspace  # j_squared + j_hat_closed; the quotient denominator
    relations_in_J: Subspace
    quotient: QuotientStructure  # of J coordinates by relations_in_J
    readings_agree: bool  # span_relations == relations

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
    x, y, beta = _vec(x), _vec(y), _vec(beta)
    out = [ZERO] * (da * da * db)
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            for k, bk in enumerate(beta):
                if bk:
                    out[(i * da + j) * db + k] += xi * yj * bk
    return out


def multiplication_matrix(T: Triple) -> SparseMat:
    """The map e_i (x) e_j (x) f_k to e_i e_j eps(f_k), as a matrix."""
    A, eps = T.A, T.eps
    da, db = A.dim, T.B.dim
    return SparseMat.from_columns(
        da, [multiply(A, A.mult[i][j], eps.columns[k])
             for i in range(da) for j in range(da) for k in range(db)])


def j_generator(T: Triple, alpha, a) -> list:
    """The vector 1 (x) a (x) alpha - (a eps(alpha)) (x) 1 (x) 1; always in J."""
    A, B = T.A, T.B
    alpha, a = _vec(alpha), _vec(a)
    if len(alpha) != B.dim or len(a) != A.dim:
        raise ValueError("argument vectors have wrong lengths")
    vec = embed_tensor(T, A.unit, a, alpha)
    scaled = multiply(A, a, T.eps.apply(alpha))
    for i, x in enumerate(embed_tensor(T, scaled, A.unit, B.unit)):
        if x:
            vec[i] -= x
    if multiplication_matrix(T).matvec(vec):
        raise InternalCheckError("generator escaped the multiplication kernel")
    return vec


@per_triple
def kernel_data(T: Triple) -> KernelData:
    """Assemble the kernel, its relation spaces, and the quotient."""
    T.require_commutative("the kernel presentation")
    A, B = T.A, T.B
    P3 = tensor_algebra(tensor_algebra(A, A), B,
                        name=f"({A.name})x({A.name})x({B.name})")
    mm = multiplication_matrix(T)
    J = nullspace(mm)

    # P3 is commutative, as A and B are, so each product is formed once.
    j_rows = [to_dense(row, mm.ncols) for row in J.rows]
    products = []
    for i, u in enumerate(j_rows):
        for v in j_rows[i:]:
            w = multiply(P3, u, v)
            if any(w):
                products.append(w)
    j_squared = Subspace(mm.ncols, products)

    hat_vecs = []
    for p in range(B.dim):
        eps_p = T.eps.columns[p]
        vec = [2 * x for x in
               embed_tensor(T, A.unit, A.unit, basis_vector(B.dim, p))]
        for i, x in enumerate(embed_tensor(T, eps_p, A.unit, B.unit)):
            vec[i] -= x
        for i, x in enumerate(embed_tensor(T, A.unit, eps_p, B.unit)):
            vec[i] -= x
        if any(vec):
            hat_vecs.append(vec)
    j_hat = Subspace(mm.ncols, hat_vecs)

    # Multiplying by every basis tensor e_i (x) e_j (x) 1 in one sweep is the
    # full closure: products of such factors are again of that shape.
    closed_vecs = list(hat_vecs)
    for vec in hat_vecs:
        for i in range(A.dim):
            for j in range(A.dim):
                factor = embed_tensor(T, basis_vector(A.dim, i),
                                      basis_vector(A.dim, j), B.unit)
                closed_vecs.append(multiply(P3, factor, vec))
    j_hat_closed = Subspace(mm.ncols, closed_vecs)

    span_relations = j_squared.sum(j_hat)
    relations = j_squared.sum(j_hat_closed)
    for row in relations.rows:
        if not J.contains(row):
            raise InternalCheckError("relation space escaped the kernel")
    rel_in_j = Subspace(J.dim, [J.coords_of(row, verify=False)
                                for row in relations.rows])
    quotient = QuotientStructure(J.dim, rel_in_j)

    return KernelData(
        algebra=P3, m_matrix=mm, J=J, j_squared=j_squared,
        j_hat=j_hat, j_hat_closed=j_hat_closed,
        span_relations=span_relations, relations=relations,
        relations_in_J=rel_in_j, quotient=quotient,
        readings_agree=(span_relations == relations))


def symmetry_check(T: Triple) -> bool:
    """Left and right coefficient actions agree on J modulo the relations.

    The difference (e_m (x) 1 (x) 1) v - (1 (x) e_m (x) 1) v factors as
    a product of two kernel elements, so membership is tested against the
    raw span reading -- the stronger of the two denominators.
    """
    K = kernel_data(T)
    A = T.A
    for row in (to_dense(r, K.J.ambient_dim) for r in K.J.rows):
        for m in range(A.dim):
            e_m = basis_vector(A.dim, m)
            left = multiply(K.algebra,
                            embed_tensor(T, e_m, A.unit, T.B.unit), row)
            right = multiply(K.algebra,
                             embed_tensor(T, A.unit, e_m, T.B.unit), row)
            diff = [x - y for x, y in zip(left, right)]
            if not K.span_relations.contains(diff):
                return False
    return True
