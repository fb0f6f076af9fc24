"""Mechanical verification of the degree-one isomorphisms.

Each verifier builds the relevant spaces, realizes the claimed maps as
explicit matrices, and checks well-definedness, mutual inverseness, and
dimension bookkeeping.  Reports carry every sub-check plus a concrete
witness vector when something fails, so a failure can be replayed.

Report identifiers follow the fixed schema: Prop3 (degree-one homology
versus the differential-symbol module), Cor3 (degree-one cyclic homology
versus that module modulo d(1 (x) A)), Prop4 (the module versus the
multiplication-kernel quotient), Thm_main (the composed chain of the two
isomorphisms), and Reduction_Bk (collapse to the classical complexes
when B is the ground field).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, Optional

from .algebra import FinAlgebra, field_algebra, multiply
from .chains import boundary, chain_dim, chain_space
from .differentials import (ambient_symbol, d_one_A_subspace, omega,
                            symbol_index)
from .homology import _hc_pieces, _hh_pieces, hc, hh
from .kernel import embed_tensor, kernel_data, tensor_index
from .linalg import (ONE, InternalCheckError, SparseMat, basis_vector,
                     colspace, nullspace, product_is_zero, rank, solve,
                     to_dense)
from .oracles import (classical_hh_dims, classical_hc_dims,
                      classical_I_mod_I2_dim, classical_kahler_dim)
from .triples import Triple, make_triple


@dataclass
class TheoremReport:
    triple_name: str
    theorem: str
    passed: bool
    dims: dict
    checks: list = field(default_factory=list)
    witness: Optional[dict] = None

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        parts = ", ".join(f"{k}={v}" for k, v in self.dims.items())
        return f"[{status}] {self.theorem} on {self.triple_name} ({parts})"


class _Builder:
    def __init__(self, triple_name: str, theorem: str):
        self.report = TheoremReport(triple_name, theorem, True, {})

    def check(self, label: str, ok: bool, witness: Optional[dict] = None):
        self.report.checks.append((label, bool(ok)))
        if not ok:
            self.report.passed = False
            if self.report.witness is None:
                payload = {"check": label}
                if witness:
                    payload.update(witness)
                self.report.witness = payload
        return ok

    def check_all(self, label: str, failures: Iterator[dict]) -> bool:
        """Pass when `failures` yields nothing; otherwise the first witness
        it yields is recorded and no later one is computed."""
        witness = next(failures, None)
        return self.check(label, witness is None, witness)

    def dims(self, **kwargs):
        self.report.dims.update(kwargs)


def _wvec(v: dict) -> list:
    """Witness-friendly rendering of a sparse vector."""
    return [[i, str(x)] for i, x in sorted(v.items())]


def transfer_matrices(T: Triple):
    """The degree-one chain space and the symbol ambient space are both
    spanned by triples (A basis, A basis, B basis); return the permutation
    identifying them and its inverse."""
    cs1 = chain_space(T, 1)
    da, db = T.A.dim, T.B.dim
    cols = {}
    for i0 in range(da):
        for i1 in range(da):
            for j in range(db):
                src = cs1.linearize((i0, i1), {(0, 1): j})
                cols[src] = {symbol_index(T, i0, j, i1): ONE}
    phi = SparseMat(da * db * da, cs1.dim, cols)
    return phi, phi.transpose()


def forward_matrix(T: Triple) -> SparseMat:
    """Symbol ambient space into A (x) A (x) B: the symbol e_m d(f_j (x) e_k)
    goes to e_m (x) e_k (x) f_j minus (e_m eps(f_j) e_k) (x) 1 (x) 1."""
    A, B = T.A, T.B
    da, db = A.dim, B.dim
    cols = []  # in symbol_index order
    for m in range(da):
        for j in range(db):
            sand = multiply(A, basis_vector(da, m), T.eps.columns[j])
            for k in range(da):
                scaled = multiply(A, sand, basis_vector(da, k))
                vec = [-x for x in embed_tensor(T, scaled, A.unit, B.unit)]
                vec[tensor_index(T, m, k, j)] += ONE
                cols.append(vec)
    return SparseMat.from_columns(da * da * db, cols)


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
    Q_hh, p_hh, s_hh = _hh1_interface(T)
    phi, psi = transfer_matrices(T)
    moved = phi @ boundary(T, 2)
    b.check_all("boundaries map into relations",
                ({"column": c, "vector": _wvec(moved.column(c))}
                 for c in sorted(moved.num)
                 if not P.relations.contains(moved.num[c])))

    b.check("symbol images are cycles", product_is_zero(boundary(T, 1), psi))

    # Cycle coordinates are chain coordinates here (_hh1_interface), so
    # the homology relations are the span of the degree-two boundary.
    b.check_all("relations map into boundaries",
                ({"relation": i, "vector": _wvec(row)}
                 for i, row in enumerate(P.relations.rows)
                 if not Q_hh.relations.contains(psi.matvec(row))))

    phi_bar = P.quotient.project_matrix() @ phi @ s_hh
    psi_bar = p_hh @ psi @ P.quotient.section_matrix()
    b.check("round trip on the symbol module is the identity",
            phi_bar @ psi_bar == SparseMat.identity(P.quotient.dim))
    b.check("round trip on homology is the identity",
            psi_bar @ phi_bar == SparseMat.identity(Q_hh.dim))
    b.check("dimensions agree", Q_hh.dim == P.quotient.dim)
    b.dims(chain=chain_dim(T, 1), symbol_relations=P.relations.dim,
           omega=P.quotient.dim, hh1=Q_hh.dim)
    return Q_hh, phi_bar, psi_bar


def verify_prop_hh1_omega(T: Triple) -> TheoremReport:
    """Degree-one homology equals the differential-symbol module."""
    T.require_commutative("the degree-one homology comparison")
    b = _Builder(T.name, "Prop3")
    _prop_hh1_omega(T, b)
    return b.report


def verify_cor_hc1(T: Triple) -> TheoremReport:
    """Degree-one cyclic homology equals the symbol module modulo d(1 (x) A)."""
    T.require_commutative("the degree-one cyclic comparison")
    P = omega(T)
    b = _Builder(T.name, "Cor3")
    _, psi = transfer_matrices(T)
    Q_hc, chain_to_hc = _hc1_interface(T)
    full_map = chain_to_hc @ psi  # symbol ambient -> cyclic classes

    images = (full_map.matvec(row) for row in P.relations.rows)
    b.check_all("relations die in cyclic homology",
                ({"relation": i, "vector": _wvec(img)}
                 for i, img in enumerate(images) if img))

    eta = full_map @ P.quotient.section_matrix()
    d1a = d_one_A_subspace(T)
    b.check("induced map is onto", rank(eta) == Q_hc.dim)
    ker = nullspace(eta)
    b.check("kernel is exactly d(1 (x) A)", ker == d1a,
            None if ker == d1a else {"kernel_dim": ker.dim,
                                     "d1A_dim": d1a.dim})
    b.check("dimension bookkeeping",
            Q_hc.dim == P.quotient.dim - d1a.dim)
    b.dims(omega=P.quotient.dim, d1A=d1a.dim, hc1=Q_hc.dim)
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

    A, B = T.A, T.B

    def product_rule(p, q, k, l) -> list:
        """d(f_p f_q (x) e_k e_l) minus its two product-rule terms."""
        e_k, e_l = basis_vector(A.dim, k), basis_vector(A.dim, l)
        terms = (ambient_symbol(T, A.unit, B.mult[p][q], A.mult[k][l]),
                 ambient_symbol(T, multiply(A, e_k, T.eps.columns[p]),
                                basis_vector(B.dim, q), e_l),
                 ambient_symbol(T, multiply(A, e_l, T.eps.columns[q]),
                                basis_vector(B.dim, p), e_k))
        return [x - y - z for x, y, z in zip(*terms)]

    b.check_all("product-rule images land in the squared kernel",
                ({"b_pair": (p, q), "a_pair": (k, l)}
                 for p, q, k, l in product(range(B.dim), range(B.dim),
                                           range(A.dim), range(A.dim))
                 if not K.j_squared.contains(
                     F.matvec(product_rule(p, q, k, l)))))

    def balancing(p) -> list:
        """2 d(f_p (x) 1) - d(1 (x) eps(f_p))."""
        return [2 * x - y for x, y in zip(
            ambient_symbol(T, A.unit, basis_vector(B.dim, p), A.unit),
            ambient_symbol(T, A.unit, B.unit, T.eps.columns[p]))]

    b.check_all("balancing images land in the balancing span",
                ({"b_index": p} for p in range(B.dim)
                 if not K.j_hat.contains(F.matvec(balancing(p)))))

    b.check_all("symbol relations map into kernel relations",
                ({"relation": i, "vector": _wvec(row)}
                 for i, row in enumerate(P.relations.rows)
                 if not K.relations.contains(F.matvec(row))))

    pulled = (solve(F, row) for row in K.relations.rows)
    b.check_all("kernel relations pull back to symbol relations",
                ({"kernel_relation": i,
                  "preimage": "none" if w is None else
                  [str(x) for x in to_dense(w, F.ncols)]}
                 for i, w in enumerate(pulled)
                 if w is None or not P.relations.contains(w)))

    C = SparseMat.from_columns(
        K.J.dim, [K.J.coords_of(F.column(c), verify=False)
                  for c in range(F.ncols)])
    f_bar = K.quotient.project_matrix() @ C @ P.quotient.section_matrix()

    # Kernel class j is that of the J basis row at non-pivot axis j.
    g_bar = None
    pulled = [solve(F, K.J.rows[c]) for c in K.quotient.nonpivots]
    if b.check_all("kernel classes pull back",
                   ({"class": j} for j, w in enumerate(pulled) if w is None)):
        g_bar = SparseMat.from_columns(
            P.quotient.dim, [P.quotient.project(w) for w in pulled])
        b.check("round trip on the kernel quotient is the identity",
                f_bar @ g_bar == SparseMat.identity(K.quotient.dim))
        b.check("round trip on the symbol module is the identity",
                g_bar @ f_bar == SparseMat.identity(P.quotient.dim))
    b.check("dimensions agree", P.quotient.dim == K.quotient.dim)
    b.dims(omega=P.quotient.dim, kernel=K.J.dim, j_squared=K.j_squared.dim,
           j_hat=K.j_hat.dim, kernel_relations_span=K.span_relations.dim,
           kernel_relations=K.relations.dim, readings_agree=K.readings_agree,
           kernel_quotient=K.quotient.dim)
    return f_bar, g_bar


def verify_prop_omega_J(T: Triple) -> TheoremReport:
    """The symbol module equals the multiplication-kernel quotient."""
    T.require_commutative("the kernel comparison")
    b = _Builder(T.name, "Prop4")
    _prop_omega_J(T, b)
    return b.report


def verify_main(T: Triple) -> TheoremReport:
    """The full degree-one chain: homology, symbol module, and kernel
    quotient are pairwise isomorphic, with the composites mechanically
    mutually inverse."""
    T.require_commutative("the main degree-one comparison")
    P = omega(T)
    K = kernel_data(T)
    b = _Builder(T.name, "Thm_main")
    Q_hh, phi_bar, psi_bar = _prop_hh1_omega(T, b)
    f_bar, g_bar = _prop_omega_J(T, b)
    if g_bar is not None:
        comp = f_bar @ phi_bar  # homology classes -> kernel classes
        inv = psi_bar @ g_bar
        b.check("composite round trip on the kernel quotient is the identity",
                comp @ inv == SparseMat.identity(K.quotient.dim))
        b.check("composite round trip on homology is the identity",
                inv @ comp == SparseMat.identity(Q_hh.dim))
    b.check("all three dimensions agree",
            Q_hh.dim == P.quotient.dim == K.quotient.dim)
    return b.report


def verify_reduction_Bk(A: FinAlgebra, n_max: int = 3) -> TheoremReport:
    """Over B equal to the ground field the engine must reproduce the
    classical homology of A; for commutative A the degree-one modules must
    match the classical differential and kernel constructions too."""
    T = make_triple(A, field_algebra(), [list(A.unit)],
                    name=f"{A.name or 'A'}_over_k")
    b = _Builder(T.name, "Reduction_Bk")
    hh_classical = classical_hh_dims(A, n_max)
    hc_classical = classical_hc_dims(A, n_max)
    hh_dims = []
    hc_dims = []
    for n in range(n_max + 1):
        hh_dims.append(hh(T, n, max_degree=n_max).dimension)
        hc_dims.append(hc(T, n, max_degree=n_max).dimension)
    b.check("homology dimensions match the classical complex",
            hh_dims == hh_classical,
            None if hh_dims == hh_classical else
            {"engine": hh_dims, "classical": hh_classical})
    b.check("cyclic dimensions match the classical complex",
            hc_dims == hc_classical,
            None if hc_dims == hc_classical else
            {"engine": hc_dims, "classical": hc_classical})
    dims = {}
    for n in range(n_max + 1):
        dims[f"hh{n}"] = hh_dims[n]
        dims[f"hc{n}"] = hc_dims[n]
    if T.commutative:
        P = omega(T)
        K = kernel_data(T)
        kd = classical_kahler_dim(A)
        id2 = classical_I_mod_I2_dim(A)
        b.check("symbol module matches classical differentials",
                P.quotient.dim == kd,
                None if P.quotient.dim == kd else
                {"engine": P.quotient.dim, "classical": kd})
        b.check("kernel quotient matches classical I over I squared",
                K.quotient.dim == id2,
                None if K.quotient.dim == id2 else
                {"engine": K.quotient.dim, "classical": id2})
        b.check("balancing span is zero over the ground field",
                K.j_hat.dim == 0)
        dims["omega"] = P.quotient.dim
        dims["kernel_quotient"] = K.quotient.dim
    b.dims(**dims)
    return b.report
