"""Independent dense reference computations for cross-checking.

Everything here is deliberately separate from the sparse engine: basis
tensors are enumerated as tuples, matrices are dense lists of rows of
exact numbers, and ranks come from an integer fraction-free
elimination.  The only shared inputs are the algebra structure tables
themselves.

Cyclic homology takes one rank per degree, of [W_{k-1} | b_k] with W
the image of 1 - rotation, so the +-1 rotation columns pivot before any
boundary column is reduced (see classical_hc_dims).

These are slow paths; every entry point refuses ambient dimensions above
5000 so an accidental call on a large instance fails fast instead of
grinding.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .algebra import FinAlgebra, multiply

_CAP = 5000


class ReferenceCapError(ValueError):
    """A reference computation would exceed the size cap."""


def _check_cap(dim: int) -> None:
    if dim > _CAP:
        raise ReferenceCapError(
            f"reference path refuses ambient dimension {dim} > {_CAP}")


def _tuple_positions(dim: int, length: int) -> dict:
    return {t: i for i, t in enumerate(product(range(dim), repeat=length))}


def _zeros(nrows: int, ncols: int) -> list:
    return [[0] * ncols for _ in range(nrows)]


def bar_boundary(A: FinAlgebra, n: int):
    """Classical boundary from (n+1)-fold to n-fold tensors, dense.

    Adjacent factors are multiplied with alternating signs; the last face
    wraps the final factor around to the front.
    """
    if n < 1:
        raise ValueError("boundary needs degree at least 1")
    d = A.dim
    _check_cap(d ** (n + 1))
    # The table read once: the nonzero terms (k, x) of each product, with
    # integral x as int so that integral tables are summed in ints.
    mult = [[[(k, int(x) if x.denominator == 1 else x)
              for k, x in enumerate(coeffs) if x] for coeffs in row]
            for row in A.mult]
    src = list(product(range(d), repeat=n + 1))
    dst_pos = _tuple_positions(d, n)
    M = _zeros(d ** n, d ** (n + 1))
    for c, tup in enumerate(src):
        for i in range(n):
            rest = tup[:i] + tup[i + 2:]
            sign = 1 if i % 2 == 0 else -1
            for k, x in mult[tup[i]][tup[i + 1]]:
                M[dst_pos[rest[:i] + (k,) + rest[i:]]][c] += sign * x
        sign = 1 if n % 2 == 0 else -1
        for k, x in mult[tup[n]][tup[0]]:
            M[dst_pos[(k,) + tup[1:n]]][c] += sign * x
    return M


def bar_rotation(A: FinAlgebra, n: int):
    """Signed cyclic rotation on (n+1)-fold tensors, dense."""
    d = A.dim
    _check_cap(d ** (n + 1))
    pos = _tuple_positions(d, n + 1)
    M = _zeros(d ** (n + 1), d ** (n + 1))
    sign = 1 if n % 2 == 0 else -1
    for tup, c in pos.items():
        M[pos[(tup[-1],) + tup[:-1]]][c] = sign
    return M


def _integral(row) -> list:
    """A row of ints and Fractions times the lcm of its denominators."""
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def dense_rank(M) -> int:
    """Fraction-free integer elimination; rows are scaled primitive.

    Entries are ints or Fractions.  A row of ints is taken as it is; only
    a row holding a Fraction is put over its common denominator.  The rows
    are copied, so M is never changed.  Each column pivots on its first
    row of smallest nonzero absolute value, so a +-1 keeps the updated
    rows from growing.  Rows below the pivot row are zero left of the
    pivot column, so each update touches the columns from it on.
    """
    rows = []
    for row in M:
        ints = row if set(map(type, row)) <= {int} else _integral(row)
        g = gcd(*ints)
        if g:
            rows.append([x // g for x in ints] if g > 1 else list(ints))
    ncols = len(rows[0]) if rows else 0
    r = 0
    for col in range(ncols):
        if r == len(rows):
            break
        nonzero = [i for i in range(r, len(rows)) if rows[i][col]]
        if not nonzero:
            continue
        piv = min(nonzero, key=lambda i: abs(rows[i][col]))
        rows[r], rows[piv] = rows[piv], rows[r]
        ptail = rows[r][col:]
        p = ptail[0]
        for i in range(r + 1, len(rows)):
            row = rows[i]
            q = row[col]
            if q:
                tail = [p * a - q * b for a, b in zip(row[col:], ptail)]
                g = gcd(*tail)
                row[col:] = [x // g for x in tail] if g > 1 else tail
        r += 1
    return r


def _hstack(left: list, right: list) -> list:
    """Column concatenation [left | right] of two matrices with equal rows."""
    return [lrow + rrow for lrow, rrow in zip(left, right)]


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
    once, with the rotation columns first.  This avoids constructing
    quotient complexes entirely, so it shares nothing with the engine's
    route.
    """
    _check_cap(A.dim ** (n_max + 2))  # b_{n_max+1} is the largest matrix
    omegas = [[[int(r == c) - x for c, x in enumerate(row)]
               for r, row in enumerate(bar_rotation(A, k))]
              for k in range(n_max + 1)]
    w_rank = [0] + [dense_rank(W) for W in omegas[:n_max]]  # rank W_{n-1}
    R = [0] + [dense_rank(_hstack(omegas[k - 1], bar_boundary(A, k)))
               for k in range(1, n_max + 2)]
    return [A.dim ** (n + 1) + w_rank[n] - R[n] - R[n + 1]
            for n in range(n_max + 1)]


def classical_kahler_dim(A: FinAlgebra) -> int:
    """Dimension of the classical module of differentials of a commutative
    algebra, from the Leibniz presentation on the free module a d(b)."""
    d = A.dim
    _check_cap(d * d)
    rows = []
    for m in range(d):
        e_m = [Fraction(int(t == m)) for t in range(d)]
        for p in range(d):
            for q in range(d):
                vec = [Fraction(0)] * (d * d)
                for k, x in enumerate(A.mult[p][q]):
                    if x:
                        vec[m * d + k] += x
                cp = multiply(A, e_m, [Fraction(int(t == p)) for t in range(d)])
                for t, x in enumerate(cp):
                    if x:
                        vec[t * d + q] -= x
                cq = multiply(A, e_m, [Fraction(int(t == q)) for t in range(d)])
                for t, x in enumerate(cq):
                    if x:
                        vec[t * d + p] -= x
                if any(vec):
                    rows.append(vec)
    return d * d - dense_rank(rows)


def _dense_kernel(M) -> list:
    """Kernel basis of a dense matrix by textbook reduced elimination."""
    nrows = len(M)
    ncols = len(M[0]) if nrows else 0
    rows = [[Fraction(x) for x in row] for row in M]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][col]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -rows[i][f]
        basis.append(v)
    return basis


def classical_I_mod_I2_dim(A: FinAlgebra) -> int:
    """Dimension of I/I^2 for the kernel I of the product map on A (x) A."""
    d = A.dim
    _check_cap(d * d)
    mu = _zeros(d, d * d)
    for i in range(d):
        for j in range(d):
            for k, x in enumerate(A.mult[i][j]):
                if x:
                    mu[k][i * d + j] += x
    # Each kernel vector and the table scaled to integers: every square
    # then carries the table's scale den**2 and its factors' scales, so
    # the rank of the squares is unchanged.
    kernel = []
    for v in _dense_kernel(mu):
        ints = _integral(v)
        g = gcd(*ints)
        kernel.append([(p, x // g) for p, x in enumerate(ints) if x])
    den = lcm(*(x.denominator for row in A.mult for prod in row for x in prod))
    mult = [[[(k, x.numerator * (den // x.denominator))
              for k, x in enumerate(prod) if x] for prod in row]
            for row in A.mult]

    def tensor_mult(u, v):
        out = [0] * (d * d)
        for p, x in u:
            i1, j1 = divmod(p, d)
            for q, y in v:
                i2, j2 = divmod(q, d)
                for k1, a in mult[i1][i2]:
                    for k2, b in mult[j1][j2]:
                        out[k1 * d + k2] += x * y * a * b
        return out

    # For commutative A, A (x) A is commutative too, so u v = v u and each
    # unordered pair of kernel vectors is multiplied once.
    commutative = all(A.mult[i][j] == A.mult[j][i]
                      for i in range(d) for j in range(i))
    squares = [tensor_mult(u, v) for i, u in enumerate(kernel)
               for v in (kernel[i:] if commutative else kernel)]
    return len(kernel) - dense_rank(squares) if kernel else 0
