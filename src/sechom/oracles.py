"""Independent reference computations for cross-checking.

Everything here is deliberately separate from the engine: basis tensors
are numbered by their digits, matrices are lists of sparse rows {column:
value} of exact numbers, and ranks come from an integer fraction-free
elimination that files each row under its least column.  The only
shared inputs are the algebra structure tables themselves.

Hochschild and cyclic homology are ranked on the normalized complex
A (x) Abar^(x)n, Abar = A/Q.1, d (d - 1)^n tensors against the bar
complex's d^(n+1) (Loday, Cyclic Homology, 1.1): HH from its boundary
b, HC from b + B on the normalized (b, B) bicomplex (2.1).

The degree-one references serve commutative A only.  I/I^2 needs no
elimination for I, which has a basis in closed form; its one rank is that
of the integer products spanning I^2 (see classical_I_mod_I2_dim).

These are slow paths; every entry point refuses ambient dimensions above
5000 so an accidental call on a large instance fails fast instead of
grinding.
"""

from __future__ import annotations

from math import gcd, lcm

from .algebra import FinAlgebra

_CAP = 5000


class ReferenceCapError(ValueError):
    """A reference computation would exceed the size cap."""


def _check_cap(dim: int) -> None:
    if dim > _CAP:
        raise ReferenceCapError(
            f"reference path refuses ambient dimension {dim} > {_CAP}")


def _int_tables(A: FinAlgebra) -> tuple:
    """(den, table, unit): the table and the unit over one denominator den,
    as the integer terms (k, x) of each product e_i e_j and of the unit."""
    den = lcm(*(x.denominator for x in A.unit),
              *(x.denominator for row in A.mult for prod in row for x in prod))

    def ints(v):
        return [(k, x.numerator * (den // x.denominator))
                for k, x in enumerate(v) if x]

    return den, [[ints(prod) for prod in row] for row in A.mult], ints(A.unit)


def dense_rank(M) -> int:
    """Rank of the matrix with rows M, each a sparse dict {column: x}.

    Entries are ints: every oracle builds its rows in integers, over its
    table's denominator.  The rows are copied, so M is never changed.
    Each primitive integer row is filed under its least column.  Columns
    are visited in order; each pivots on the filed row with the smallest
    absolute entry there, the one with fewest nonzeros on a tie, so a +-1
    keeps the cleared rows from growing.  Every other row filed there is
    cleared fraction-free (scaled by nothing when the pivot entry divides
    its entry, up to sign), stripped of its content and filed again under
    its new least column.
    """
    filed: dict = {}
    ncols = 0
    for row in M:
        row = {c: x for c, x in row.items() if x}
        if not row:
            continue
        g = gcd(*row.values())
        if g > 1:
            row = {c: x // g for c, x in row.items()}
        filed.setdefault(min(row), []).append(row)
        ncols = max(ncols, max(row) + 1)
    r = 0
    for col in range(ncols):
        group = filed.pop(col, None)
        if not group:
            continue
        piv = min(group, key=lambda row: (abs(row[col]), len(row)))
        p = piv[col]
        r += 1
        for row in group:
            if row is piv:
                continue
            g = gcd(p, row[col])
            a, b = p // g, row[col] // g
            if a < 0:
                a, b = -a, -b
            new = dict(row) if a == 1 else {c: a * x for c, x in row.items()}
            for c, y in piv.items():
                x = new.get(c, 0) - b * y
                if x:
                    new[c] = x
                else:
                    del new[c]
            if new:
                g = gcd(*new.values())
                if g > 1:
                    new = {c: x // g for c, x in new.items()}
                filed.setdefault(min(new), []).append(new)
    return r


def _normalized(A: FinAlgebra) -> tuple:
    """A's tables for C_n = A (x) Abar^(x)n in ints: with u_j0 the first
    nonzero entry of the unit, Abar has the basis ebar_j, j != j0, in
    `rest`, and e_j0 maps to -sum (u_j/u_j0) ebar_j.  With table and unit
    over one denominator den, proj[k] is e_k in Abar times den u_j0, first
    the e_a ebar_p and last the ebar_q e_a in A, inner the ebar_p ebar_q
    in Abar, so each face and B is den^2 u_j0 times its rational self."""
    _, mult, unit = _int_tables(A)
    (j0, u0), rest = unit[0], [j for j in range(A.dim) if j != unit[0][0]]
    proj = [[(rest.index(k), u0)] if k != j0 else
            [(rest.index(l), -x) for l, x in unit[1:]] for k in range(A.dim)]
    full = [[[(k, u0 * x) for k, x in prod] for prod in row] for row in mult]
    inner = [[list(_collected((p, x * y) for k, x in mult[i][j]
                              for p, y in proj[k]).items()) for j in rest]
             for i in rest]
    return (rest, proj, unit, [[row[j] for j in rest] for row in full],
            inner, [full[j] for j in rest])


def _normalized_boundary(N: tuple, n: int) -> list:
    """The boundary of the normalized complex N = _normalized(A) from C_n
    to C_{n-1} (Loday, 1.1), as sparse rows, one per basis tensor of
    C_{n-1}; (a_0, p_1, ..., p_n) is numbered by its digits, base d then
    r = d - 1.  Faces 0 and n write the full product into slot 0, faces
    1..n-1 carry theirs to Abar; each is scattered a block of trailing
    factors at a time, so no dense matrix is built."""
    rest, _, _, first, inner, last = N
    d, r = len(first), len(rest)
    rows = [{} for _ in range(d * r ** (n - 1))]
    for i in range(n):  # face i: (head, x, y, tail) goes to (head, xy, tail)
        low, s = r ** (n - 1 - i), (-1) ** i
        for head in range(d * r ** (i - 1) if i else 1):
            for x, products in enumerate(inner if i else first):
                for y, terms in enumerate(products):
                    src = ((head * r + x) * r + y) * low
                    for k, v in terms:
                        for t in range(low):
                            row = rows[(head * r + k) * low + t]
                            row[src + t] = row.get(src + t, 0) + s * v
    low, s = r ** (n - 1), (-1) ** n
    for q, products in enumerate(last):  # face n: (a, mid, q) to (qa, mid)
        for a, terms in enumerate(products):
            for k, v in terms:
                for t in range(low):
                    row = rows[k * low + t]
                    src = (a * low + t) * r + q
                    row[src] = row.get(src, 0) + s * v
    return [{c: x for c, x in row.items() if x} for row in rows]


def _connes_operator(N: tuple, n: int) -> list:
    """Connes' B from C_n to C_{n+1} on the normalized complex (Loday,
    2.1), a_0 abar_1 ... abar_n to sum_i (-1)^(ni) 1 abar_i ... abar_n
    abar_0 ... abar_{i-1}, as sparse rows, one per basis tensor of C_{n+1}."""
    rest, proj, unit, _, _, _ = N
    d, r = len(proj), len(rest)
    top = r ** n
    rows = [{} for _ in range(d * r * top)]
    for a, (p, y), t in ((a, q, t) for a in range(d) for q in proj[a]
                         for t in range(top)):
        cycle, src = p * top + t, a * top + t  # abar_0 ... abar_n, base r
        for i in range(n + 1):
            low, s = r ** (n + 1 - i), (-1) ** (n * i) * y
            for l, x in unit:
                row = rows[l * r * top + (cycle % low) * r ** i + cycle // low]
                row[src] = row.get(src, 0) + s * x
    return [{c: x for c, x in row.items() if x} for row in rows]


def classical_hh_dims(A: FinAlgebra, n_max: int) -> list:
    """Hochschild homology dimensions of A in degrees 0..n_max, from the
    ranks of the normalized boundaries (Loday, 1.1): the degenerate
    tensors span an acyclic subcomplex, so C_n has d (d - 1)^n tensors."""
    _check_cap(A.dim ** (n_max + 2))  # the largest bar space, before any rank
    N = _normalized(A)
    ranks = [0] + [dense_rank(_normalized_boundary(N, k))
                   for k in range(1, n_max + 2)]
    return [A.dim * (A.dim - 1) ** n - ranks[n] - ranks[n + 1]
            for n in range(n_max + 1)]


def classical_hc_dims(A: FinAlgebra, n_max: int) -> list:
    """Cyclic homology dimensions of A in degrees 0..n_max, from the
    normalized (b, B) bicomplex (Loday, 2.1): Tot_n = C_n + C_{n-2} +
    ..., and D_n = b + B sends the summand C_m to C_{m-1} by b and, but
    for the first, to C_{m+1} by B.  Each D_n is ranked once, and dim HC_n
    = dim Tot_n - rank D_n - rank D_{n+1}; no quotient complex is built,
    so nothing is shared with the engine's route."""
    _check_cap(A.dim ** (n_max + 2))  # the largest bar space, before any rank
    N, d, r = _normalized(A), A.dim, A.dim - 1
    b = {m: _normalized_boundary(N, m) for m in range(1, n_max + 2)}
    B = {m: _connes_operator(N, m) for m in range(n_max)}
    tot = [[d * r ** m for m in range(n, -1, -2)] for n in range(n_max + 2)]

    def total(n):  # D_n, one row per basis tensor of Tot_{n-1}
        off = [sum(tot[n][:k]) for k in range(n // 2 + 2)]
        return [{**{c + off[k]: x for c, x in x_b.items()},
                 **{c + off[k + 1]: x for c, x in x_B.items()}}
                for k, m in enumerate(range(n - 1, -1, -2))  # the summand C_m
                for x_b, x_B in zip(b[m + 1], B[m - 1] if m else [{}] * d)]

    ranks = [0] + [dense_rank(total(n)) for n in range(1, n_max + 2)]
    return [sum(tot[n]) - ranks[n] - ranks[n + 1] for n in range(n_max + 1)]


def _require_commutative(A: FinAlgebra, what: str) -> None:
    d = A.dim
    if any(A.mult[i][j] != A.mult[j][i] for i in range(d) for j in range(i)):
        raise ValueError(f"{what} requires a commutative A")


def _collected(terms) -> dict:
    """The sparse row of (column, value) terms, values summed per column
    and zeros dropped."""
    row: dict = {}
    for c, x in terms:
        row[c] = row.get(c, 0) + x
    return {c: x for c, x in row.items() if x}


def classical_kahler_dim(A: FinAlgebra) -> int:
    """Dimension of the classical module of differentials of a commutative
    algebra, from the Leibniz presentation on the free module a d(b):
    m d(pq) = (mp) d(q) + (mq) d(p), a d(b) numbered a * d + b.  On a
    commutative A the row (m, p, q) is the row (m, q, p), so only the rows
    with p <= q are formed.  Any other A is refused with ValueError."""
    d = A.dim
    _require_commutative(A, "the Kahler reference")
    _check_cap(d * d)
    mult = _int_tables(A)[1]  # every term one product, times den
    rows = [_collected([(m * d + k, x) for k, x in mult[p][q]]
                       + [(t * d + q, -x) for t, x in mult[m][p]]
                       + [(t * d + p, -x) for t, x in mult[m][q]])
            for m in range(d) for p in range(d) for q in range(p, d)]
    return d * d - dense_rank(rows)


def classical_I_mod_I2_dim(A: FinAlgebra) -> int:
    """Dimension of I/I^2 for the kernel I of the product map on A (x) A,
    for a unital A, read off a basis of I in closed form.

    With u the unit and u_j0 != 0, the g_ij = e_i (x) e_j - (e_i e_j) (x) u
    over all i and all j != j0 are a basis of I: each has product zero,
    with the j = j0 ones they span I (x = sum c_ij g_ij for x in I), each
    sum_j u_j g_ij is zero, and dim I = d^2 - d since e_i (x) u maps onto
    e_i.  With x_l = u (x) e_l - e_l (x) u, g_aj = (e_a (x) u) x_j, so I^2
    is spanned by the g_aj x_l over all a and j <= l, both != j0.  I is
    an ideal only when A is commutative; any other A is refused with
    ValueError.
    """
    d = A.dim
    _require_commutative(A, "the I/I^2 reference")
    _check_cap(d * d)
    den, mult, unit = _int_tables(A)  # g_ij times den^2, x_l times den
    rest = [j for j in range(d) if j != unit[0][0]]

    def g(i, j):
        return _collected([(i * d + j, den * den)]
                          + [(k * d + l, -a * b) for k, a in mult[i][j]
                             for l, b in unit])

    def tensor_mult(u, v):
        return _collected((k1 * d + k2, s * t * a * b)
                          for p, s in u.items() for q, t in v.items()
                          for k1, a in mult[p // d][q // d]
                          for k2, b in mult[p % d][q % d])

    xs = {l: _collected([(m * d + l, b) for m, b in unit]
                        + [(l * d + m, -b) for m, b in unit]) for l in rest}
    squares = [tensor_mult(g(a, j), xs[l]) for a in range(d)
               for n, j in enumerate(rest) for l in rest[n:]]
    return d * (d - 1) - dense_rank(squares)
