"""Triples (A, B, eps): a unital algebra A, a commutative unital algebra B,
and a unital homomorphism eps from B into the center of A.

`make_triple` enforces every axiom and raises a distinct error carrying a
concrete witness, so a failed build can always be replayed by hand.  A
small catalog of ready-made triples covers the cases used by the tests
and the command line tool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps

from .algebra import (AlgMorphism, FinAlgebra, _central, _int_product,
                      _int_table, _validated, field_algebra, matrix_algebra,
                      multiply, split_product_algebra,
                      truncated_polynomial_algebra)
from .linalg import ONE, ZERO, SparseMat, _integer_supports, _summed, nullspace


class TripleAxiomError(ValueError):
    """Base class for triple validation failures; carries a witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class AlgebraInvalidError(TripleAxiomError):
    """A or B fails associativity or unitality."""


class BaseNotCommutativeError(TripleAxiomError):
    """B must be commutative."""


class EpsNotUnitalError(TripleAxiomError):
    """eps must send the unit of B to the unit of A."""


class EpsNotMultiplicativeError(TripleAxiomError):
    """eps must respect products."""


class EpsImageNotCentralError(TripleAxiomError):
    """eps must land in the center of A."""


class CommutativeTripleRequiredError(ValueError):
    """Operation defined only when A is commutative."""


@dataclass(eq=False)
class Triple:
    A: FinAlgebra
    B: FinAlgebra
    eps: AlgMorphism
    commutative: bool  # whether A is commutative
    name: str = ""
    # Not an init field, so dataclasses.replace starts an empty memo.
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def require_commutative(self, what: str) -> None:
        if not self.commutative:
            raise CommutativeTripleRequiredError(
                f"{what} requires a commutative algebra A "
                f"(triple {self.name or '<unnamed>'} is not)")


def per_triple(fn):
    """Memoize fn(T, *args) in a dict on the triple T itself.

    Every value lives exactly as long as its triple, and a repeated call
    returns the very object the first call built.  A value must not refer
    back to T, so dropping T frees its memo at once, by reference counting.
    """
    @wraps(fn)
    def memoized(T: Triple, *args):
        memo, key = T._memo, (fn, args)
        if key not in memo:
            memo[key] = fn(T, *args)
        return memo[key]
    return memoized


class _Tables:
    """The product tables of one triple, shared by its faces in every degree
    and by the degree-one layer.

    They hold integer supports over one denominator per table: `bden` for
    products in B, `aden` for products in A, `lden` for the units `aunit`,
    `bunit` and the columns `eps` of eps, and `sden` = aden^2 lden for the
    sandwiches e_i eps(f_k) e_j, two products through A's table.  `sden`
    need not be least: `SparseMat.from_ints` and `Subspace` normalise.
    """

    def __init__(self, T: Triple):
        self.bden, self.bprod = _int_table(T.B)
        self.aden, self.aprod = _int_table(T.A)
        self.lden, (self.aunit, self.bunit, *self.eps) = _integer_supports(
            [T.A.unit, T.B.unit, *T.eps.columns])
        self.sden = self.aden ** 2 * self.lden
        a, e = self.aprod, [((i, 1),) for i in range(T.A.dim)]
        self.sandwich = [[[tuple(sorted(_int_product(
            a, _int_product(a, e_i, f).items(), e_j).items()))
            for e_j in e] for f in self.eps] for e_i in e]


_tables = per_triple(_Tables)


def make_triple(A: FinAlgebra, B: FinAlgebra, eps_columns,
                name: str = "") -> Triple:
    """Validate and assemble a triple.

    eps_columns lists the image in A of each basis vector of B.  Failures
    raise subclasses of TripleAxiomError with a replayable witness.  Every
    check reads the triple's tables (`_tables`), which it then keeps, so
    the shape of eps is checked (ValueError) before the algebras are."""
    eps = AlgMorphism(B, A, eps_columns, name=f"eps:{name}" if name else "eps")
    T = Triple(A, B, eps, commutative=False, name=name)
    tb = _tables(T)
    reports = []
    for label, alg, den, prod, unit in (
            ("A", A, tb.aden, tb.aprod, tb.aunit),
            ("B", B, tb.bden, tb.bprod, tb.bunit)):
        rep = _validated(den, prod, tb.lden, unit)
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
    T.commutative = rep_a.commutative
    # eps(1_B) and 1_A in integers, over lden^2.
    if _summed((m, x * y) for k, x in tb.bunit for m, y in tb.eps[k]) != {
            m: tb.lden * x for m, x in tb.aunit}:
        img_unit = eps.apply(B.unit)  # the witness, in Fractions
        raise EpsNotUnitalError(
            f"eps(1_B) = {img_unit} differs from 1_A = {A.unit}",
            witness=img_unit)
    # eps(f_i f_j) and eps(f_i) eps(f_j) in integers, over aden bden lden^2.
    for i in range(B.dim):
        for j in range(B.dim):
            lhs = _summed((m, tb.aden * tb.lden * x * y)
                          for k, x in tb.bprod[i][j] for m, y in tb.eps[k])
            rhs = _int_product(tb.aprod, tb.eps[i], tb.eps[j])
            if lhs != {m: tb.bden * x for m, x in rhs.items()}:
                lhs = eps.apply(B.mult[i][j])  # the witness, in Fractions
                rhs = multiply(A, eps.columns[i], eps.columns[j])
                raise EpsNotMultiplicativeError(
                    f"eps is not multiplicative on basis pair ({i}, {j}): "
                    f"eps(f_{i} f_{j}) = {lhs} but eps(f_{i}) eps(f_{j}) = {rhs}",
                    witness=(i, j, lhs, rhs))
    for i in range(B.dim):
        if not _central(tb.aprod, tb.eps[i]):
            raise EpsImageNotCentralError(
                f"eps(f_{i}) = {eps.columns[i]} is not central in A",
                witness=(i, eps.columns[i]))
    return T


@per_triple
def grading(T: Triple) -> list:
    """A basis of the Z^r gradings of the triple's bases, as r integer rows.

    A row gives a weight to each basis vector of A, then of B, such that
    w_A(k) = w_A(i) + w_A(j) wherever e_i e_j has a nonzero e_k entry, the
    same in B, and w_A(m) = w_B(k) wherever eps(f_k) has a nonzero e_m
    entry.  The boundary and the rotation then keep the total weight of a
    basis tensor.  The rows are the primitive integer rows of the canonical
    basis of the rational solutions; a basis that carries no grading (a
    dense change of basis, say) gives none, and every weight is 0.
    """
    tb = _tables(T)
    da = T.A.dim
    eqs = []
    for table, off in ((tb.aprod, 0), (tb.bprod, da)):
        for i, row in enumerate(table):
            for j, prod in enumerate(row):
                eqs += [_summed(((off + k, 1), (off + i, -1), (off + j, -1)))
                        for k, _ in prod]
    for k, col in enumerate(tb.eps):
        eqs += [{m: 1, da + k: -1} for m, _ in col]
    cols: dict = {}
    for r, eq in enumerate(eqs):
        for v, c in eq.items():
            cols.setdefault(v, {})[r] = c
    K = nullspace(SparseMat.from_ints(len(eqs), da + T.B.dim, cols))
    return [tuple(row.get(v, 0) for v in range(K.ambient_dim))
            for row in K._int_rows]


# -- catalog ---------------------------------------------------------------

def _catalog_k_k() -> Triple:
    A = field_algebra("Q")
    B = field_algebra("Q")
    return make_triple(A, B, [[ONE]], name="k_k")


def _catalog_dual_k() -> Triple:
    A = truncated_polynomial_algebra(2, "Q[x]/x^2")
    B = field_algebra("Q")
    return make_triple(A, B, [list(A.unit)], name="dual_k")


def _catalog_dual_dual_zero() -> Triple:
    A = truncated_polynomial_algebra(2, "Q[x]/x^2")
    B = truncated_polynomial_algebra(2, "Q[y]/y^2")
    eps = [list(A.unit), [ZERO, ZERO]]
    return make_triple(A, B, eps, name="dual_dual_zero")


def _catalog_dual_dual_x() -> Triple:
    A = truncated_polynomial_algebra(2, "Q[x]/x^2")
    B = truncated_polynomial_algebra(2, "Q[y]/y^2")
    eps = [list(A.unit), [ZERO, ONE]]
    return make_triple(A, B, eps, name="dual_dual_x")


def _catalog_prod_k() -> Triple:
    A = split_product_algebra(2, "QxQ")
    B = field_algebra("Q")
    return make_triple(A, B, [list(A.unit)], name="prod_k")


def _catalog_trunc3_k() -> Triple:
    A = truncated_polynomial_algebra(3, "Q[x]/x^3")
    B = field_algebra("Q")
    return make_triple(A, B, [list(A.unit)], name="trunc3_k")


def _catalog_dual_over_dual_id() -> Triple:
    A = truncated_polynomial_algebra(2, "Q[x]/x^2")
    B = truncated_polynomial_algebra(2, "Q[x]/x^2")
    eps = [[ONE, ZERO], [ZERO, ONE]]
    return make_triple(A, B, eps, name="dual_over_dual_id")


def _catalog_mat2_k() -> Triple:
    A = matrix_algebra(2, "M2(Q)")
    B = field_algebra("Q")
    return make_triple(A, B, [list(A.unit)], name="mat2_k")


_CATALOG = {
    "k_k": _catalog_k_k,
    "dual_k": _catalog_dual_k,
    "dual_dual_zero": _catalog_dual_dual_zero,
    "dual_dual_x": _catalog_dual_dual_x,
    "prod_k": _catalog_prod_k,
    "trunc3_k": _catalog_trunc3_k,
    "dual_over_dual_id": _catalog_dual_over_dual_id,
    "mat2_k": _catalog_mat2_k,
}


def catalog_names() -> list:
    return list(_CATALOG)


def catalog(name: str) -> Triple:
    """A fresh instance of a named catalog triple."""
    try:
        build = _CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown catalog triple {name!r}; available: {', '.join(_CATALOG)}"
        ) from None
    return build()
