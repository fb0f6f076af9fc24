"""Independent reference computations for cross-checking.

Everything here is deliberately separate from the engine: basis tensors
are numbered by their base-d digits, matrices are lists of sparse rows
{column: value} of exact numbers, and ranks come from an integer
fraction-free elimination that files each row under its least column.
The only shared inputs are the algebra structure tables themselves.

Cyclic homology takes one rank per degree, of [W_{k-1} | b_k] with W
the image of 1 - rotation, so the +-1 rotation columns pivot before any
boundary column is reduced (see classical_hc_dims).

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


def _terms(A: FinAlgebra) -> list:
    """The table read once: the nonzero terms (k, x) of each product e_i e_j,
    with integral x as int so that integral tables are summed in ints."""
    return [[[(k, int(x) if x.denominator == 1 else x)
              for k, x in enumerate(coeffs) if x] for coeffs in row]
            for row in A.mult]


def bar_boundary(A: FinAlgebra, n: int):
    """Classical boundary from (n+1)-fold to n-fold tensors, as sparse rows.

    Row r is {column: value} for the n-fold tensor numbered r, {} when it
    is zero; a tensor (t_0, ..., t_n) is numbered by its base-d digits,
    t_0 leading.  Adjacent factors are multiplied with alternating signs;
    the last face wraps the final factor around to the front.  Each face
    is scattered into the rows a block of trailing factors at a time, so
    no dense matrix is built.
    """
    if n < 1:
        raise ValueError("boundary needs degree at least 1")
    d = A.dim
    _check_cap(d ** (n + 1))
    mult = _terms(A)
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
    return [{c: x for c, x in row.items() if x} for row in rows]


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


def _integral(row) -> list:
    """Entries (ints and Fractions) times the lcm of their denominators."""
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def dense_rank(M) -> int:
    """Rank of the matrix with rows M, each a sparse dict {column: x}.

    Entries are ints or Fractions.  The rows are copied, so M is never
    changed: a row of ints is taken as it is, and only a row holding a
    Fraction is put over its common denominator.  Each primitive integer
    row is filed under its least column.  Columns are visited in order;
    each pivots on the filed row with the smallest absolute entry there,
    the one with fewest nonzeros on a tie, so a +-1 keeps the cleared rows
    from growing.  Every other row filed there is cleared fraction-free
    (scaled by nothing when the pivot entry divides its entry, up to
    sign), stripped of its content and filed again under its new least
    column.
    """
    filed: dict = {}
    ncols = 0
    for row in M:
        row = {c: x for c, x in row.items() if x}
        if not row:
            continue
        if not all(type(x) is int for x in row.values()):
            row = dict(zip(row, _integral(row.values())))
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


def classical_hh_dims(A: FinAlgebra, n_max: int) -> list:
    """Hochschild homology dimensions of A in degrees 0..n_max."""
    _check_cap(A.dim ** (n_max + 2))  # the largest space, before any rank
    dims = []
    ranks = {0: 0}
    for k in range(1, n_max + 2):
        ranks[k] = dense_rank(bar_boundary(A, k))
    for n in range(n_max + 1):
        dims.append(A.dim ** (n + 1) - ranks[n] - ranks[n + 1])
    return dims


def classical_hc_dims(A: FinAlgebra, n_max: int) -> list:
    """Cyclic homology dimensions of A in degrees 0..n_max.

    Computed purely from ranks of the Connes complex C/(1 - t): with W_k
    the image of (1 - rotation) in degree k and R_k the rank of the
    column concatenation [W_{k-1} | b_k] (R_0 = 0), the degree-n
    dimension is N_n + rank W_{n-1} - R_n - R_{n+1}, with rank W_{-1} = 0.
    W_0 is zero, so R_1 is the rank of b_1.  Each concatenation is ranked
    once, with the rotation columns first: b_k's columns are shifted past
    the d^k columns of W_{k-1}.  This avoids constructing quotient
    complexes entirely, so it shares nothing with the engine's route.
    """
    _check_cap(A.dim ** (n_max + 2))  # b_{n_max+1} is the largest matrix
    omegas = []  # the rows of 1 - t in degrees 0..n_max
    for k in range(n_max + 1):
        W = []
        for r, row in enumerate(bar_rotation(A, k)):
            w = {c: -x for c, x in row.items()}
            w[r] = w.get(r, 0) + 1
            W.append({c: x for c, x in w.items() if x})
        omegas.append(W)
    w_rank = [0] + [dense_rank(W) for W in omegas[:n_max]]  # rank W_{n-1}
    R = [0]
    for k in range(1, n_max + 2):
        shift = A.dim ** k
        R.append(dense_rank([{**w, **{c + shift: x for c, x in b.items()}}
                             for w, b in zip(omegas[k - 1], bar_boundary(A, k))]))
    return [A.dim ** (n + 1) + w_rank[n] - R[n] - R[n + 1]
            for n in range(n_max + 1)]


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
    mult = _terms(A)
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
    # In integers: the table over den, u over uden, g_ij times den * uden
    # and x_l times uden.
    den = lcm(*(x.denominator for row in A.mult for prod in row for x in prod))
    mult = [[[(k, x.numerator * (den // x.denominator))
              for k, x in enumerate(prod) if x] for prod in row]
            for row in A.mult]
    uden = lcm(*(x.denominator for x in A.unit))
    unit = [(l, x.numerator * (uden // x.denominator))
            for l, x in enumerate(A.unit) if x]
    rest = [j for j in range(d) if j != unit[0][0]]

    def g(i, j):
        return _collected([(i * d + j, den * uden)]
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
