"""Triples (A, B, eps): a unital algebra A, a commutative unital algebra B,
and a unital homomorphism eps from B into the center of A.

`make_triple` enforces every axiom and raises a distinct error carrying a
concrete witness, so a failed build can always be replayed by hand.  A
small catalog of ready-made triples covers the cases used by the tests
and the command line tool.

`grading` reads the gradings that a triple's basis carries, and
`regrade` finds one that the basis hides: it rebuilds the triple in the
eigenbasis of one of its derivations, checked exactly, or gives None.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from math import isqrt, lcm

from .algebra import (AlgMorphism, FinAlgebra, _central, _int_product,
                      _int_table, _validated, field_algebra, matrix_algebra,
                      multiply, split_product_algebra,
                      truncated_polynomial_algebra)
from .linalg import (ONE, ZERO, SparseMat, Subspace, _integer_supports,
                     _summed, nullspace)


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


class Triple:
    def __init__(self, A: FinAlgebra, B: FinAlgebra, eps: AlgMorphism,
                 commutative: bool, name: str = ""):
        self.A, self.B, self.eps = A, B, eps
        self.commutative = commutative  # whether A is commutative
        self.name = name
        self._memo: dict = {}  # of `per_triple`; every triple starts empty

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


def recall(T: Triple, fn, *args):
    """What fn(T, *args) returned earlier, or None if it has not run: fn is
    a `per_triple` function, or a wrapper of one that keeps `__wrapped__`.
    Nothing is computed."""
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    return T._memo.get((fn, args))


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
    K = _solutions(eqs, da + T.B.dim)
    return [tuple(row.get(v, 0) for v in range(K.ambient_dim))
            for row in K._int_rows]


def _solutions(eqs: list, nvars: int) -> Subspace:
    """The rational solutions of the homogeneous integer equations `eqs`
    (sparse dicts {unknown: coefficient}) in `nvars` unknowns."""
    cols: dict = {}
    for r, eq in enumerate(eqs):
        for v, c in eq.items():
            cols.setdefault(v, {})[r] = c
    return nullspace(SparseMat.from_ints(len(eqs), nvars, cols))


# -- regrading -------------------------------------------------------------

def _by_entry(terms) -> list:
    """Terms (entry, unknown, coefficient) summed into one equation per
    entry, the empty ones dropped."""
    eqs: dict = {}
    for m, v, x in terms:
        eqs.setdefault(m, []).append((v, x))
    return [eq for eq in map(_summed, eqs.values()) if eq]


def _derivations(T: Triple) -> Subspace:
    """The derivations (D_A, D_B) of the triple: D_A of A and D_B of B
    with D_A eps = eps D_B, as one kernel.

    Unknown m dA + l is the e_m entry of D_A e_l, and dA^2 + j dB + k the
    f_j entry of D_B f_k.  For every basis pair (i, j) and entry m,
    D(e_i e_j) - D(e_i) e_j - e_i D(e_j) vanishes in A and in B, read over
    the table's denominator, and so does D_A eps(f_k) - eps(D_B f_k),
    read over eps's.
    """
    tb = _tables(T)
    da, db = T.A.dim, T.B.dim
    eqs = []
    for off, d, prod in ((0, da, tb.aprod), (da * da, db, tb.bprod)):
        for i in range(d):
            for j in range(d):
                eqs += _by_entry(
                    [(m, off + m * d + k, x)
                     for k, x in prod[i][j] for m in range(d)]
                    + [(m, off + k * d + i, -x)
                       for k in range(d) for m, x in prod[k][j]]
                    + [(m, off + k * d + j, -x)
                       for k in range(d) for m, x in prod[i][k]])
    for k in range(db):
        eqs += _by_entry(
            [(m, m * da + l, x) for l, x in tb.eps[k] for m in range(da)]
            + [(m, da * da + j * db + k, -x)
               for j in range(db) for m, x in tb.eps[j]])
    return _solutions(eqs, da * da + db * db)


def _combinations(r: int) -> list:
    """The coefficient vectors tried on a basis of r derivations, in order:
    points (1, t, ..., t^(r-1)) of the moment curve, each of which mixes
    every basis derivation (one that leaves a derivation out can leave
    two weights of the triple on one eigenspace), then each basis
    derivation alone.  With r = 0 there is none."""
    out = [tuple(t ** j for j in range(r)) for t in (1, -1, 2, -2, 3) if r]
    out += [tuple(int(j == s) for j in range(r)) for s in range(r)]
    return list(dict.fromkeys(out))


def _charpoly(D: list) -> list:
    """The coefficients c_0, ..., c_n of det(x - D) for an integer matrix
    D, by Faddeev and LeVerrier: M_k = D M_(k-1) + c_(n-k+1) and
    c_(n-k) = -tr(D M_k) / k, a division that is exact in integers."""
    n = len(D)
    c = [0] * n + [1]
    M = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        M = [[sum(D[i][l] * M[l][j] for l in range(n))
              + (c[n - k + 1] if i == j else 0) for j in range(n)]
             for i in range(n)]
        c[n - k] = -sum(D[i][l] * M[l][i]
                        for i in range(n) for l in range(n)) // k
    return c


def _diagonalizes(D: list, g: list, lams: list) -> bool:
    """Whether D g = g diag(lams): column c of g is an eigenvector of D
    with eigenvalue lams[c]."""
    n = len(D)
    return all(sum(D[i][k] * g[k][c] for k in range(n)) == g[i][c] * lam
               for c, lam in enumerate(lams) for i in range(n))


# The largest eigenvalue bound R that `_eigenbasis` scans up to: 2R + 1
# integers, a few milliseconds at this size.
_MAX_EIGENVALUE = 1 << 16


def _eigenbasis(D: list):
    """(g, lams): the columns of the integer matrix g are an eigenbasis of
    the integer matrix D, with eigenvalues lams in ascending order; None
    when D is not diagonalizable over Q.

    A rational root of the monic integer characteristic polynomial is an
    integer.  When every root is an integer, their squares sum to
    tr(D^2), so each lies in [-R, R] for R = isqrt(tr(D^2)), and a nonzero
    one divides the polynomial's lowest nonzero coefficient.  That range
    is scanned, so a D with R above _MAX_EIGENVALUE is passed over.  D is
    diagonalizable exactly when the kernels of D - lam over those roots
    have dimensions that sum to n; each kernel gives its primitive
    integer basis rows.
    """
    n = len(D)
    c = _charpoly(D)
    tr2 = sum(D[i][j] * D[j][i] for i in range(n) for j in range(n))
    if not 0 <= tr2 <= _MAX_EIGENVALUE ** 2:
        return None
    low = next(x for x in c if x)
    cols, lams = [], []
    for lam in range(-isqrt(tr2), isqrt(tr2) + 1):
        if (lam and low % lam) or sum(x * lam ** e for e, x in enumerate(c)):
            continue
        shifted = {j: col for j in range(n) if (col := {
            i: D[i][j] - (lam if i == j else 0) for i in range(n)
            if D[i][j] != (lam if i == j else 0)})}
        for row in nullspace(SparseMat.from_ints(n, n, shifted))._int_rows:
            cols.append(row)
            lams.append(lam)
    if len(cols) != n:
        return None
    g = [[col.get(i, 0) for col in cols] for i in range(n)]
    return (g, lams) if _diagonalizes(D, g, lams) else None


def _supports(g: list) -> list:
    """The columns of the integer matrix g as integer supports."""
    return [tuple((i, x) for i, x in enumerate(col) if x) for col in zip(*g)]


def _image(cols: list, v) -> dict:
    """g v for the column supports `cols` of g and a support v; with the
    columns `tb.eps` of `_tables`, eps(v) over tb.lden."""
    return _summed((i, x * y) for k, x in v for i, y in cols[k])


def _inverse(g: list):
    """(den, N) with g N = den, N an integer matrix: the inverse of the
    square integer matrix g is N / den.  It is read off the canonical form
    of [g | 1], which is [1 | g^-1], and returned only once g N = den
    holds; None when g is singular."""
    n = len(g)
    R = Subspace(2 * n, ({**{c: x for c, x in enumerate(row) if x}, n + i: 1}
                         for i, row in enumerate(g)))
    if R.pivots != list(range(n)):
        return None
    den = lcm(*(row[p] for p, row in zip(R.pivots, R._int_rows)))
    N = [[row.get(n + c, 0) * (den // row[p]) for c in range(n)]
         for p, row in zip(R.pivots, R._int_rows)]
    cols = _supports(g)
    return (den, N) if all(_image(cols, col) == {c: den} for c, col
                           in enumerate(_supports(N))) else None


def _rebuilt(T: Triple, gA: list, gB: list, inverses: tuple) -> Triple:
    """T in the bases given by the columns of gA and gB, with `inverses`
    the (den, N) of `_inverse` of each, built through make_triple under
    T's name."""
    tb = _tables(T)
    (dA, NA), (dB, NB) = inverses

    def carried(N, den, v: dict) -> list:  # N v / den, in Fractions
        return [Fraction(sum(row[k] * x for k, x in v.items()), den)
                for row in N]
    algebras = []
    for alg, g, N, d, prod, pden, unit in (
            (T.A, gA, NA, dA, tb.aprod, tb.aden, tb.aunit),
            (T.B, gB, NB, dB, tb.bprod, tb.bden, tb.bunit)):
        cols = _supports(g)
        algebras.append(FinAlgebra(
            alg.dim, [[carried(N, d * pden, _int_product(prod, a, b))
                       for b in cols] for a in cols],
            carried(N, d * tb.lden, dict(unit)), alg.name))
    eps = [carried(NA, dA * tb.lden, _image(tb.eps, f)) for f in _supports(gB)]
    return make_triple(*algebras, eps, name=T.name)


def _transports(T: Triple, R: Triple, gA: list, gB: list) -> bool:
    """Whether R's tables are T's carried by gA and gB: g (e'_i e'_j) =
    (g e'_i)(g e'_j) and g 1' = 1 in A and in B, and
    gA eps'(f'_k) = eps(gB f'_k).  Both sides are read in integers, on
    the tables each triple stores, and compared cross-multiplied by the
    other side's denominator."""
    tb, rb = _tables(T), _tables(R)

    def same(u: dict, du: int, v: dict, dv: int) -> bool:  # u/du == v/dv
        return {i: x * dv for i, x in u.items()} == {
            i: x * du for i, x in v.items()}
    cA, cB = _supports(gA), _supports(gB)
    for cols, prod, pden, rprod, rden, unit, runit in (
            (cA, tb.aprod, tb.aden, rb.aprod, rb.aden, tb.aunit, rb.aunit),
            (cB, tb.bprod, tb.bden, rb.bprod, rb.bden, tb.bunit, rb.bunit)):
        if not same(_image(cols, runit), rb.lden, dict(unit), tb.lden):
            return False
        if not all(same(_image(cols, rprod[i][j]), rden,
                        _int_product(prod, a, b), pden)
                   for i, a in enumerate(cols) for j, b in enumerate(cols)):
            return False
    return all(same(_image(cA, col), rb.lden, _image(tb.eps, f), tb.lden)
               for col, f in zip(rb.eps, cB))


@per_triple
def _regrading(T: Triple):
    """(R, gA, gB) for `regrade`, or None."""
    if grading(T):
        return None
    K = _derivations(T)
    da, db = T.A.dim, T.B.dim
    for coeffs in _combinations(K.dim):
        D = _summed((v, a * x) for a, row in zip(coeffs, K._int_rows)
                    for v, x in row.items())
        eig_a = _eigenbasis([[D.get(m * da + l, 0) for l in range(da)]
                             for m in range(da)])
        eig_b = _eigenbasis([[D.get(da * da + j * db + k, 0)
                              for k in range(db)] for j in range(db)])
        if eig_a and eig_b and any(eig_a[1] + eig_b[1]):
            break
    else:
        return None
    (gA, _), (gB, _) = eig_a, eig_b
    inverses = _inverse(gA), _inverse(gB)
    if None in inverses:
        return None
    R = _rebuilt(T, gA, gB, inverses)
    if not (_transports(T, R, gA, gB) and grading(R)):
        return None
    return R, gA, gB


def regrade(T: Triple):
    """A triple isomorphic to T whose basis carries a grading, found from
    T's derivations, or None.

    It is tried only when T's own basis carries none (`grading(T)` is
    empty).  The derivations (D_A, D_B) of the triple are the kernel of
    one integer system (`_derivations`).  The first combination of a fixed
    list (`_combinations`) whose D_A and D_B are both diagonalizable over
    Q, with eigenvalues not all zero, is taken; the eigenvalues are then
    integers.  With no derivation but 0 there is none.  Each
    eigenvector of eigenvalue w has weight w, and e_i e_j and eps(f_k)
    keep weights because D_A and D_B are derivations with
    D_A eps = eps D_B.  The triple is rebuilt in the eigenbases g_A and
    g_B through make_triple, and returned only once g g^-1 = 1,
    D g = g diag(eigenvalues), its tables equal T's carried by g
    (`_transports`), and its own grading is nonempty all hold exactly.
    The chain complexes of T and of the result are isomorphic, degree by
    degree, through the tensor powers of g_A and g_B, so their homology
    has the same dimensions.  Memoized on T.
    """
    found = _regrading(T)
    return found[0] if found else None


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
