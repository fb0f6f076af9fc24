"""Mechanical verification of the degree-one isomorphisms.

Each verifier builds the relevant spaces, realizes the claimed maps as
explicit matrices, and checks well-definedness, mutual inverseness, and
dimension bookkeeping.  Reports carry every sub-check plus a concrete
witness vector when something fails, so a failure can be replayed.

Report identifiers follow the fixed schema: Prop3 (degree-one homology
versus the differential-symbol module), Cor3 (degree-one cyclic homology
versus that module modulo d(1 (x) A)), Prop4 (the module versus the
multiplication-kernel quotient), Thm_main (the composed chain of the two
isomorphisms), Reduction_Bk (collapse to the classical complexes when B
is the ground field), and Segment (exactness of the connecting segment
A -> degree-one homology -> degree-one cyclic homology -> 0).
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product

from .algebra import field_algebra
from .chains import boundary, chain_dim, chain_space
from .differentials import (_balancing, _product_rule, d_one_A_subspace,
                            omega, symbol_index)
from .homology import _hc_pieces, _hh_pieces, hc, hh
from .kernel import kernel_data
from .linalg import (ONE, InternalCheckError, SparseMat, _outer, _summed,
                     colspace, nullspace, product_is_zero)
from .oracles import (classical_hh_dims, classical_hc_dims,
                      classical_I_mod_I2_dim, classical_kahler_dim)
from .triples import Triple, _tables, make_triple, per_triple, regrade


class TheoremReport:
    def __init__(self, triple_name: str, theorem: str, passed: bool,
                 dims: dict, checks: list | None = None,
                 witness: dict | None = None):
        self.triple_name, self.theorem = triple_name, theorem
        self.passed, self.dims = passed, dims
        self.checks = [] if checks is None else checks
        self.witness = witness

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.triple_name, self.theorem, self.passed, self.dims,
                 self.checks, self.witness)
                == (other.triple_name, other.theorem, other.passed,
                    other.dims, other.checks, other.witness))

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        parts = ", ".join(f"{k}={v}" for k, v in self.dims.items())
        return f"[{status}] {self.theorem} on {self.triple_name} ({parts})"


class _Builder:
    def __init__(self, triple_name: str, theorem: str):
        self.report = TheoremReport(triple_name, theorem, True, {})
        self.log: list = []  # (label, verdict, witness) of every check

    def check(self, label: str, ok: bool, witness: dict | None = None):
        self.log.append((label, bool(ok), witness))
        self.report.checks.append((label, bool(ok)))
        if not ok:
            self.report.passed = False
            if self.report.witness is None:
                self.report.witness = {"check": label, **(witness or {})}
        return ok

    def check_all(self, label: str, failures: Iterator[dict]) -> bool:
        """Pass when `failures` yields nothing; otherwise the first witness
        it yields is recorded and no later one is computed."""
        witness = next(failures, None)
        return self.check(label, witness is None, witness)

    def agree(self, label: str, engine, classical) -> bool:
        """Check that an engine value equals its classical reference."""
        return self.check(label, engine == classical,
                          {"engine": engine, "classical": classical})

    def dims(self, **kwargs):
        self.report.dims.update(kwargs)

    def replay(self, outcome: tuple):
        """Record an `_outcome` here check by check; return its value."""
        log, dims, value = outcome
        for label, ok, witness in log:
            self.check(label, ok, witness)
        self.dims(**dims)
        return value


def _wvec(v: dict) -> list:
    """Witness-friendly rendering of a sparse vector."""
    return [[i, str(x)] for i, x in sorted(v.items())]


@per_triple
def _outcome(T: Triple, body) -> tuple:
    """body(T, builder), run once per triple: every check it made as
    (label, verdict, witness), its dims, and what it returned."""
    b = _Builder(T.name, "")
    value = body(T, b)
    return b.log, b.report.dims, value


def transfer_matrices(T: Triple):
    """The degree-one chain space and the symbol ambient space are both
    spanned by triples (A basis, A basis, B basis); return the permutation
    phi identifying them and its inverse.  F phi = 1 - (1 (x) 1 (x) 1) mu
    for F of forward_matrix and mu the multiplication map."""
    cs1 = chain_space(T, 1)
    da, db = T.A.dim, T.B.dim
    phi = SparseMat.from_ints(da * db * da, cs1.dim, {
        cs1.linearize((i0, i1), {(0, 1): j}): {symbol_index(T, i0, j, i1): 1}
        for i0 in range(da) for i1 in range(da) for j in range(db)})
    return phi, phi.transpose()


def connes_b_chain(T: Triple) -> SparseMat:
    """The map sending a in A to (1 (x) a) + (a (x) 1) in degree one, with
    the connecting b-slot carrying the unit of B.

    Its image consists of cycles for any triple, because the boundary of
    either term is the commutator of a with the unit.  Built in integers
    from the triple's tables, over lden^2.
    """
    tb = _tables(T)
    cs1 = chain_space(T, 1)
    cols = {i: _summed((cs1.linearize(pair, {(0, 1): k}), x * y)
                       for j, x in tb.aunit for k, y in tb.bunit
                       for pair in ((j, i), (i, j)))
            for i in range(T.A.dim)}
    return SparseMat.from_ints(cs1.dim, T.A.dim,
                               {i: col for i, col in cols.items() if col},
                               tb.lden ** 2)


def forward_matrix(T: Triple) -> SparseMat:
    """Symbol ambient space into A (x) A (x) B: the symbol e_m d(f_j (x) e_k)
    goes to e_m (x) e_k (x) f_j minus (e_m eps(f_j) e_k) (x) 1 (x) 1, so
    F phi = 1 - (1 (x) 1 (x) 1) mu (transfer_matrices): phi v is a preimage
    of every v in J.  Built in integers, over sden * lden^2."""
    tb = _tables(T)
    da, db = T.A.dim, T.B.dim
    scale = tb.sden * tb.lden ** 2
    cols = {(m * db + j) * da + k: _summed(
        [((m * da + k) * db + j, scale)]
        + _outer(da, db, [(t, -x) for t, x in tb.sandwich[m][j][k]],
                 tb.aunit, tb.bunit))
        for m in range(da) for j in range(db) for k in range(da)}
    return SparseMat.from_ints(da * da * db, da * db * da,
                               {c: col for c, col in cols.items() if col},
                               scale)


def _hh1_interface(T: Triple):
    """Section and projection between degree-one chains and homology classes.

    Only valid when the degree-one boundary vanishes (commutative A), so
    cycle coordinates are plain chain coordinates.
    """
    cycles, Q_hh = _hh_pieces(T, 1)
    if cycles.dim != chain_dim(T, 1):
        raise InternalCheckError(
            "degree-one boundary does not vanish on a commutative triple")
    return Q_hh, Q_hh.project_matrix(), Q_hh.section_matrix()


def _hc1_interface(T: Triple):
    """Projection from degree-one chains onto cyclic homology coordinates."""
    q_1, hc_cycles, Q_hc = _hc_pieces(T, 1)
    if hc_cycles.dim != q_1.dim:
        raise InternalCheckError(
            "induced degree-one boundary does not vanish on a commutative triple")
    return Q_hc, Q_hc.project_matrix() @ q_1.project_matrix()


def _prop_hh1_omega(T: Triple, b: _Builder):
    """Shared body for the homology/symbol-module comparison.

    Returns (hh_quotient, phi_bar, psi_bar) with the induced matrices in
    quotient coordinates on both sides.
    """
    P = omega(T)
    rels = P.relations
    phi, psi = transfer_matrices(T)
    moved = phi @ boundary(T, 2)  # built whole before hh reads it
    Q_hh, p_hh, s_hh = _hh1_interface(T)
    b.check_all("boundaries map into relations",
                ({"column": c, "vector": _wvec(moved.column(c))}
                 for c in sorted(moved.num)
                 if not rels.contains(moved.num[c])))

    b.check("symbol images are cycles", product_is_zero(boundary(T, 1), psi))

    # Cycle coordinates are chain coordinates here (_hh1_interface), so
    # the homology relations are the span of the degree-two boundary.
    b.check_all("relations map into boundaries",
                ({"relation": i, "vector": _wvec(rels.row(i))}
                 for i, row in enumerate(rels._int_rows)
                 if not Q_hh.relations.contains(psi._times(row))))

    phi_bar = P.project_matrix() @ phi @ s_hh
    psi_bar = p_hh @ psi @ P.section_matrix()
    b.check("round trip on the symbol module is the identity",
            phi_bar @ psi_bar == SparseMat.identity(P.dim))
    b.check("round trip on homology is the identity",
            psi_bar @ phi_bar == SparseMat.identity(Q_hh.dim))
    b.check("dimensions agree", Q_hh.dim == P.dim)
    b.dims(chain=chain_dim(T, 1), symbol_relations=rels.dim,
           omega=P.dim, hh1=Q_hh.dim)
    return Q_hh, phi_bar, psi_bar


def verify_prop_hh1_omega(T: Triple) -> TheoremReport:
    """Degree-one homology equals the differential-symbol module."""
    T.require_commutative("the degree-one homology comparison")
    b = _Builder(T.name, "Prop3")
    b.replay(_outcome(T, _prop_hh1_omega))
    return b.report


def verify_cor_hc1(T: Triple) -> TheoremReport:
    """Degree-one cyclic homology equals the symbol module modulo d(1 (x) A)."""
    T.require_commutative("the degree-one cyclic comparison")
    P = omega(T)
    b = _Builder(T.name, "Cor3")
    _, psi = transfer_matrices(T)
    Q_hc, chain_to_hc = _hc1_interface(T)
    full_map = chain_to_hc @ psi  # symbol ambient -> cyclic classes

    rels = P.relations
    b.check_all("relations die in cyclic homology", (
        {"relation": i, "vector": _wvec(full_map.matvec(rels.row(i)))}
        for i, row in enumerate(rels._int_rows) if full_map._times(row)))

    eta = full_map @ P.section_matrix()
    d1a = d_one_A_subspace(T)
    ker = nullspace(eta)  # checks rank-nullity against its own elimination
    b.check("induced map is onto", eta.ncols - ker.dim == Q_hc.dim)
    b.check("kernel is exactly d(1 (x) A)", ker == d1a,
            {"kernel_dim": ker.dim, "d1A_dim": d1a.dim})
    b.check("dimension bookkeeping",
            Q_hc.dim == P.dim - d1a.dim)
    b.dims(omega=P.dim, d1A=d1a.dim, hc1=Q_hc.dim)
    return b.report


def verify_connes_segment(T: Triple) -> TheoremReport:
    """Exactness of A -> degree-one homology -> degree-one cyclic homology
    -> 0 at the matrix level, on any triple.

    The chain-level map from A lands in cycles (connes_b_chain).  That the
    boundary descends to coinvariants, so that the map to cyclic homology
    is well defined, is certified when the induced boundary is built
    (`homology._induced_boundary`); a failure there is a hard error.
    """
    b = _Builder(T.name, "Segment")
    # hh and hc both read boundary(T, 2), and hh builds boundary(T, 1):
    # built whole once, each is found in the memo by hc.
    boundary(T, 2)
    cycles, Q_hh = _hh_pieces(T, 1)
    q_1, hc_cycles, Q_hc = _hc_pieces(T, 1)

    # Induced map on degree-one homology classes, column per basis class.
    i_mat = SparseMat.from_columns(Q_hc.dim, (
        Q_hc.project(hc_cycles.coords_of(q_1.project(cycles.row(c))))
        for c in Q_hh.nonpivots))

    b_chain = connes_b_chain(T)
    b_mat = SparseMat.from_columns(
        Q_hh.dim, [Q_hh.project(cycles.coords_of(b_chain.column(c)))
                   for c in range(T.A.dim)])

    ker, image = nullspace(i_mat), colspace(b_mat)
    image_rank = i_mat.ncols - ker.dim
    b.check("induced map to cyclic homology is onto", image_rank == Q_hc.dim)
    b.check("its kernel is exactly the image of A", ker == image,
            {"kernel_dim": ker.dim, "image_of_A_dim": image.dim})
    b.dims(hh1=Q_hh.dim, hc1=Q_hc.dim, image_rank=image_rank)
    return b.report


def _prop_omega_J(T: Triple, b: _Builder):
    """Shared body for the symbol-module/kernel-quotient comparison.

    Returns (f_bar, g_bar); the induced matrices are None when a
    prerequisite check failed.
    """
    P, K = omega(T), kernel_data(T)
    F = forward_matrix(T)

    b.check("forward images lie in the kernel", product_is_zero(K.m_matrix, F))
    b.check("forward images span the kernel", colspace(F) == K.J)

    # Both rules with the coefficient 1, in integers (differentials).
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

    phi, _ = transfer_matrices(T)
    FP = F @ phi  # fixes J (forward_matrix); checked all the same
    b.check_all("kernel relations pull back to symbol relations",
                ({"kernel_relation": i,
                  "preimage": _wvec(phi.matvec(K.relations.row(i)))}
                 for i, row in enumerate(K.relations._int_rows)
                 if FP._times(row) != {r: FP.den * x for r, x in row.items()}
                 or not P.relations.contains(phi._times(row))))

    cols = {c: K.J._coords(col) for c, col in F.num.items()}
    C = SparseMat.from_ints(K.J.dim, F.ncols,
                            {c: v for c, v in cols.items() if v}, F.den)
    f_bar = K.quotient.project_matrix() @ C @ P.section_matrix()

    # Kernel class j is that of the J basis row at non-pivot axis j.
    g_bar = None
    reps = SparseMat.from_columns(F.nrows, map(K.J.row, K.quotient.nonpivots))
    back = FP @ reps
    if b.check_all("kernel classes pull back",
                   ({"class": j} for j in range(reps.ncols)
                    if back.column(j) != reps.column(j))):
        g_bar = P.project_matrix() @ phi @ reps
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


def verify_prop_omega_J(T: Triple) -> TheoremReport:
    """The symbol module equals the multiplication-kernel quotient."""
    T.require_commutative("the kernel comparison")
    b = _Builder(T.name, "Prop4")
    b.replay(_outcome(T, _prop_omega_J))
    return b.report


def verify_main(T: Triple) -> TheoremReport:
    """The full degree-one chain: homology, symbol module, and kernel
    quotient are pairwise isomorphic, with the composites mechanically
    mutually inverse.  Only the composites are new checks here."""
    T.require_commutative("the main degree-one comparison")
    P = omega(T)
    K = kernel_data(T)
    b = _Builder(T.name, "Thm_main")
    Q_hh, phi_bar, psi_bar = b.replay(_outcome(T, _prop_hh1_omega))
    f_bar, g_bar = b.replay(_outcome(T, _prop_omega_J))
    if g_bar is not None:
        comp = f_bar @ phi_bar  # homology classes -> kernel classes
        inv = psi_bar @ g_bar
        b.check("composite round trip on the kernel quotient is the identity",
                comp @ inv == SparseMat.identity(K.quotient.dim))
        b.check("composite round trip on homology is the identity",
                inv @ comp == SparseMat.identity(Q_hh.dim))
    b.check("all three dimensions agree",
            Q_hh.dim == P.dim == K.quotient.dim)
    return b.report


def verify_reduction_Bk(source, n_max: int = 3) -> TheoremReport:
    """Over B equal to the ground field the engine must reproduce the
    classical homology of A; for commutative A the degree-one modules must
    match the classical differential and kernel constructions too.

    `source` is A, or a triple whose A it is.  A triple whose B has exactly
    the tables of Q (its eps is then A's unit) is itself the B = Q triple
    of A, and the checks reuse what it has built; otherwise a twin over Q
    is built.  The report is named after A either way.
    """
    if isinstance(source, Triple):
        A, T = source.A, source
    else:
        A, T = source, None
    name = f"{A.name or 'A'}_over_k"
    if T is None or T.B.mult != [[[ONE]]] or T.B.unit != [ONE]:
        T = make_triple(A, field_algebra(), [list(A.unit)], name=name)
    b = _Builder(name, "Reduction_Bk")
    hh_classical = classical_hh_dims(A, n_max)
    hc_classical = classical_hc_dims(A, n_max)
    # hh and hc both read every boundary up to degree n_max + 1, on the
    # triple they compute on: built whole there once, each is found in the
    # memo by both.
    R = regrade(T) or T
    for k in range(1, n_max + 2):
        boundary(R, k)
    hc_dims = [hc(T, n, max_degree=n_max).dimension for n in range(n_max + 1)]
    hh_dims = [hh(T, n, max_degree=n_max).dimension for n in range(n_max + 1)]
    b.agree("homology dimensions match the classical complex",
            hh_dims, hh_classical)
    b.agree("cyclic dimensions match the classical complex",
            hc_dims, hc_classical)
    for n in range(n_max + 1):
        b.dims(**{f"hh{n}": hh_dims[n], f"hc{n}": hc_dims[n]})
    if T.commutative:
        P, K = omega(T), kernel_data(T)
        b.agree("symbol module matches classical differentials",
                P.dim, classical_kahler_dim(A))
        b.agree("kernel quotient matches classical I over I squared",
                K.quotient.dim, classical_I_mod_I2_dim(A))
        b.check("balancing span is zero over the ground field",
                K.j_hat.dim == 0)
        b.dims(omega=P.dim, kernel_quotient=K.quotient.dim)
    return b.report
