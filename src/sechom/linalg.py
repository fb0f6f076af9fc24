"""Exact linear algebra over the rationals.

Conventions used throughout the package:

* a *vector* is a sparse dict mapping index -> nonzero Fraction; inputs
  may be dense lists or sparse dicts of ints or Fractions, and every
  vector this module returns is a sparse dict of Fractions (`to_dense`
  turns one into a list where a caller needs coordinates by position),
* matrices are column-major sparse (`SparseMat`),
* subspaces are stored as reduced row echelon bases, so two subspaces are
  equal exactly when their stored data is equal.

Arithmetic is in integers over a common denominator, after Bareiss.  A
`SparseMat` holds integer numerator columns over one positive
denominator, in lowest terms (the gcd of the denominator and every entry
is 1), so products and transposes multiply plain ints and `==`
compares stored data.  A `Subspace` holds one primitive integer row per
pivot, positive at its pivot and zero at every other pivot; dividing a
row by its pivot entry gives the canonical row.

Elimination is fraction-free and one-pass: a `Subspace` keeps its basis
in canonical form after every vector it takes (`Subspace.add`).  A new
vector is reduced once, scaled by the lcm of the pivot entries it meets
and then cleared by integer multiples of those rows; if anything is left,
it is made primitive, its least index becomes a new pivot, and that
entry is cleared by cross-multiplication from the stored rows that hold
it.  No back-substitution runs at the end.  `nullspace` reads the
kernel's canonical form off one such elimination, with no second one.
Fractions are formed only for the vectors and rows that leave this module
(`rows`, `reduce`, `coords_of`, `column`, `matvec`, ...); engine callers
read pivot coordinates in integers (`Subspace._coords`).

A product that must vanish (d after d, the kernel rows, the verifier's
maps into kernels) is tested by `product_is_zero`, never formed.  On
dense operands it packs each column k of M's numerators into one
integer, P_k = sum of M[r][k] * 2^(r*b) (Kronecker substitution), so
column c of M N is zero iff S_c = sum of N[k][c] * P_k is.  Row r of
that column is the digit d_r of S_c in base 2^b, and |d_r| <= max|M| *
sum_k |N[k][c]|, which is below 2^b for b = bit length of (max|M| *
max_c sum_k |N[k][c]|).  So S_c = 0 only when every digit is zero: were
one nonzero, the lowest, d_r, would make S_c / 2^(r*b) = d_r plus a
multiple of 2^b, which is not zero since 0 < |d_r| < 2^b.  Packing
costs a pass over both operands and one big-integer multiply-add of
M.nrows * b bits per nonzero of N; the dict product costs one dict
update per nonzero of N per nonzero of the column of M it meets.  Sparse
operands (the catalog boundaries, about one nonzero per column)
therefore keep the dict product, and dense ones (rebased boundaries, six
to twenty nonzeros per column) are packed; the choice reads only the
operands' sizes.  `KernelTest` is the one packer: `product_is_zero`
packs M once for N's widest column, and the stalled homology relation
spans test one vector at a time, repacking for a wider one.

A quotient by relations that identify basis vectors up to sign (the
cyclic coinvariants) is kept as its signed class map
(`ClassMapQuotient`), and a map between two such quotients is induced
by relabelling rows, with descent checked class by class
(`induced_on_quotients`); no relation row or product is formed.

Everything is exact; no floats enter at any point.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from fractions import Fraction
from math import gcd, lcm
from operator import mul

ZERO = Fraction(0)
ONE = Fraction(1)


class AmbientDimensionError(ValueError):
    """Raised when vectors or matrices from different ambient spaces meet."""


class InternalCheckError(RuntimeError):
    """An internal consistency check failed; results would be unreliable."""


def basis_vector(dim: int, i: int) -> list:
    """The i-th standard basis vector of Q^dim, dense."""
    return [ONE if t == i else ZERO for t in range(dim)]


def _as_sparse(v) -> dict:
    """Accept a dense list or a sparse dict; return a sparse dict copy.

    Entries that already are Fractions are kept as they are.
    """
    items = v.items() if isinstance(v, dict) else enumerate(v)
    return {i: x if type(x) is Fraction else Fraction(x)
            for i, x in items if x}


def _ints(v) -> tuple:
    """A dense or sparse rational vector as (numerators, den): a sparse
    dict of nonzero ints over den, the lcm of the entries' denominators."""
    items = v.items() if isinstance(v, dict) else enumerate(v)
    v = {i: x for i, x in items if x}
    if all(type(x) is int for x in v.values()):
        return v, 1
    v = _as_sparse(v)
    den = lcm(*(x.denominator for x in v.values()))
    return {i: x.numerator * (den // x.denominator) for i, x in v.items()}, den


def _as_fractions(v: dict, den: int) -> dict:
    """The integer vector v divided by den > 0, as a sparse dict of Fractions."""
    if den == 1:
        return {i: Fraction(x) for i, x in v.items()}
    return {i: Fraction(x, den) for i, x in v.items()}


def to_dense(v: dict, n: int) -> list:
    """The sparse vector v as a dense list of length n."""
    out = [ZERO] * n
    for i, x in v.items():
        out[i] = x
    return out


def _axpy(v: dict, c: int, w: dict) -> None:
    """v += c*w in place for integer vectors and c != 0, dropping entries
    that cancel."""
    for i, x in w.items():
        y = v.get(i, 0) + c * x
        if y:
            v[i] = y
        else:
            del v[i]


def _integer_supports(vecs: list) -> tuple:
    """Supports of rational vectors as (k, numerator) pairs over one common
    denominator: returns (den, supports) with vecs[t][k] equal to
    numerator / den for every pair (k, numerator) in supports[t]."""
    den = lcm(*(x.denominator for vec in vecs for x in vec))
    return den, [tuple((k, x.numerator * (den // x.denominator))
                       for k, x in enumerate(vec) if x) for vec in vecs]


def _outer(r1: int, r2: int, x, y, z) -> list:
    """The terms (index, value) of x (x) y (x) z for supports x, y, z
    ((index, value) pairs), indexed mixed-radix with radices r1 and r2
    for the last two factors."""
    return [((i * r1 + j) * r2 + k, a * b * c)
            for i, a in x for j, b in y for k, c in z]


def _summed(terms) -> dict:
    """The sum of the (index, value) terms as a sparse vector, with the
    entries that cancel dropped."""
    out: dict = {}
    for i, x in terms:
        out[i] = out.get(i, 0) + x
    return {i: x for i, x in out.items() if x}


def _strip_content(v: dict) -> None:
    """Divide a nonzero integer vector in place by the gcd of its entries."""
    g = gcd(*v.values())
    if g != 1:
        for i in v:
            v[i] //= g


def _eliminate(v: dict, row: dict, p: int) -> None:
    """Clear entry p of the integer vector v with the integer row, in place.

    v becomes a*v - b*row for the smallest integers a > 0 and b that
    cancel entry p, and is then stripped of its content, which can
    exceed 1 even when a == 1.
    """
    a, b = row[p], v[p]
    g = gcd(a, b)
    if a < 0:
        g = -g
    a //= g
    b //= g
    if a != 1:
        for i in v:
            v[i] *= a
    _axpy(v, -b, row)
    _strip_content(v)


class Subspace:
    """A linear subspace of Q^n held as a reduced row echelon basis.

    Row k is stored as a primitive integer vector, positive at its pivot
    `pivots[k]` and zero at every other pivot; divided by its pivot entry
    it is the canonical row `rows[k]`.  Both forms are unique, so two
    Subspaces are equal iff they describe the same subspace of the same
    ambient space.

    The basis is kept in this form at every step: the constructor passes
    each vector to `add`, which reduces it once and clears its new pivot
    from the stored rows, so vectors can also be added after construction
    and the stored data never depends on the order they came in.
    """

    __slots__ = ("ambient_dim", "pivots", "_int_rows", "_pivot_pos")

    def __init__(self, ambient_dim: int, vectors: Iterable = ()):
        self.ambient_dim = ambient_dim
        self.pivots: list = []
        self._int_rows: list = []
        self._pivot_pos: dict = {}
        for v in vectors:
            self.add(v)

    def add(self, v) -> bool:
        """Put the vector v into the span, in place; return whether the
        dimension grew.

        v is reduced once against the basis, stripped of its content and
        made positive at q, its least surviving index.  The stored rows
        that hold q are cleared there with it, and it becomes the row for
        pivot q.  v is zero at every old pivot and its least index is q, so
        every row keeps its pivot as its least index: the basis is the
        canonical form after every call, whatever order vectors come in.
        """
        v = self._remainder(v)[0]
        if not v:
            return False
        _strip_content(v)
        q = min(v)
        if v[q] < 0:
            for i in v:
                v[i] = -v[i]
        for row in self._int_rows:
            if q in row:
                _eliminate(row, v, q)
        at = bisect_left(self.pivots, q)
        self.pivots.insert(at, q)
        self._int_rows.insert(at, v)
        for k in range(at, len(self.pivots)):
            self._pivot_pos[self.pivots[k]] = k
        return True

    @classmethod
    def _of_int_rows(cls, ambient_dim: int, pivots: list,
                     int_rows: list) -> "Subspace":
        """Wrap primitive integer rows that already are the canonical form
        (positive at their pivots, which strictly increase), unchecked."""
        sub = cls.__new__(cls)
        sub.ambient_dim = ambient_dim
        sub.pivots = pivots
        sub._int_rows = int_rows
        sub._pivot_pos = {p: k for k, p in enumerate(pivots)}
        return sub

    # -- queries -----------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> list:
        """The canonical basis rows, sparse dicts of Fractions: row k is 1
        at `pivots[k]` and 0 at every other pivot.  Formed on each read."""
        return list(map(self.row, range(len(self.pivots))))

    def row(self, k: int) -> dict:
        """Canonical basis row k (see `rows`), formed alone."""
        row = self._int_rows[k]
        return _as_fractions(row, row[self.pivots[k]])

    def _check_range(self, v: dict) -> None:
        if any(i < 0 or i >= self.ambient_dim for i in v):
            raise AmbientDimensionError(
                f"vector index out of range for ambient dimension {self.ambient_dim}")

    def _remainder(self, v) -> tuple:
        """The remainder of a rational vector v after reduction against the
        basis, as (numerators, den).

        Each stored row is zero at every other pivot, so subtracting one
        leaves the other pivot entries of v alone.  Only the rows whose
        pivots lie in v's support are used, each once, after v is scaled
        by the lcm of their pivot entries; the cost follows v's support
        and those rows, not the rank.
        """
        v, den = _ints(v)
        self._check_range(v)
        pos = self._pivot_pos
        hits = [(p, self._int_rows[pos[p]]) for p in v if p in pos]
        if not hits:
            return v, den
        scale = lcm(*(row[p] for p, row in hits))
        coefs = [(v[p] * (scale // row[p]), row) for p, row in hits]
        if scale != 1:
            for i in v:
                v[i] *= scale
        for c, row in coefs:
            _axpy(v, -c, row)
        return v, den * scale

    def reduce(self, v) -> dict:
        """Remainder of v after reduction against the basis (sparse)."""
        return _as_fractions(*self._remainder(v))

    def contains(self, v) -> bool:
        return not self._remainder(v)[0]

    def coords_of(self, v) -> dict:
        """Coordinates of v in the stored basis, sparse: {row number: x};
        ValueError when v is not in the subspace."""
        v, den = _ints(v)
        if self._remainder(v)[0]:
            raise ValueError("vector is not in the subspace")
        return _as_fractions(self._coords(v), den)

    def _coords(self, v: dict) -> dict:
        """Pivot entries of an integer vector: its coordinates, unchecked."""
        pos = self._pivot_pos
        return {pos[p]: x for p, x in v.items() if p in pos}

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise AmbientDimensionError("subspace sum across different ambient spaces")
        return Subspace(self.ambient_dim, self._int_rows + other._int_rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.pivots == other.pivots
                and self._int_rows == other._int_rows)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


class SparseMat:
    """Column-major sparse matrix over the rationals.

    The matrix is `num / den`: `num` maps a column index to its integer
    numerators (no zero entry, no empty column) and `den` is one positive
    integer, in lowest terms.  The stored form is therefore unique.
    """

    __slots__ = ("nrows", "ncols", "num", "den")

    def __init__(self, nrows: int, ncols: int,
                 cols: dict[int, dict] | None = None):
        """The matrix with these columns, {column: {row: rational}}."""
        self.nrows = nrows
        self.ncols = ncols
        cols = {c: _as_sparse(col) for c, col in (cols or {}).items()}
        for c, col in cols.items():
            if not 0 <= c < ncols:
                raise AmbientDimensionError(f"column {c} outside width {ncols}")
            if any(r < 0 or r >= nrows for r in col):
                raise AmbientDimensionError(f"row index out of range in column {c}")
        # Over the lcm of the denominators the numerators have no common
        # factor with it, so this is already in lowest terms.
        self.den = den = lcm(*(x.denominator for col in cols.values()
                               for x in col.values()))
        self.num = {c: {r: x.numerator * (den // x.denominator)
                        for r, x in col.items()}
                    for c, col in cols.items() if col}

    @classmethod
    def from_ints(cls, nrows: int, ncols: int, num: dict,
                  den: int = 1) -> "SparseMat":
        """The matrix num / den for integer columns num (no zero entry, no
        empty column; the dict is taken over) and den > 0, brought to
        lowest terms."""
        if den != 1:
            g = den
            for col in num.values():
                g = gcd(g, *col.values())
                if g == 1:
                    break
            if g != 1:
                num = {c: {r: x // g for r, x in col.items()}
                       for c, col in num.items()}
                den //= g
        m = cls.__new__(cls)
        m.nrows, m.ncols, m.num, m.den = nrows, ncols, num, den
        return m

    @classmethod
    def from_columns(cls, nrows: int, columns: Iterable) -> "SparseMat":
        """The matrix with these columns, each dense or sparse."""
        columns = list(columns)
        return cls(nrows, len(columns), dict(enumerate(columns)))

    @classmethod
    def identity(cls, n: int) -> "SparseMat":
        return cls.from_ints(n, n, {i: {i: 1} for i in range(n)})

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "SparseMat":
        return cls(nrows, ncols)

    def column(self, c: int) -> dict:
        if not 0 <= c < self.ncols:
            raise AmbientDimensionError(f"column {c} outside width {self.ncols}")
        return _as_fractions(self.num.get(c, {}), self.den)

    @property
    def nnz(self) -> int:
        return sum(map(len, self.num.values()))

    def is_zero(self) -> bool:
        return not self.num

    def transpose(self) -> "SparseMat":
        cols: dict[int, dict] = {}
        for c, col in self.num.items():
            for r, x in col.items():
                cols.setdefault(r, {})[c] = x
        return SparseMat.from_ints(self.ncols, self.nrows, cols, self.den)

    def matvec(self, v) -> dict:
        """Product M v for a dense or sparse vector v."""
        v, den = _ints(v)
        if any(c < 0 or c >= self.ncols for c in v):
            raise AmbientDimensionError(f"vector index outside width {self.ncols}")
        return _as_fractions(self._times(v), self.den * den)

    def _times(self, v: dict) -> dict:
        """num v for an integer vector already known to fit, unchecked."""
        acc: dict = {}
        cols = self.num
        for c, x in v.items():
            col = cols.get(c)
            if col:
                _axpy(acc, x, col)
        return acc

    def __matmul__(self, other: "SparseMat") -> "SparseMat":
        if self.ncols != other.nrows:
            raise AmbientDimensionError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        cols = {}
        for c, col in other.num.items():
            acc = self._times(col)
            if acc:
                cols[c] = acc
        return SparseMat.from_ints(self.nrows, other.ncols, cols,
                                   self.den * other.den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SparseMat)
                and (self.nrows, self.ncols) == (other.nrows, other.ncols)
                and self.den == other.den and self.num == other.num)

    def __repr__(self) -> str:
        return f"SparseMat({self.nrows}x{self.ncols}, nnz={self.nnz})"


# -- matrix-level operations ----------------------------------------------
#
# A span, a rank or a zero test does not change when a matrix is scaled,
# so these run on the integer numerators and never divide.

def _row_dicts(M: SparseMat) -> list:
    rows: list[dict] = [dict() for _ in range(M.nrows)]
    for c, col in M.num.items():
        for r, x in col.items():
            rows[r][c] = x
    return rows


# The cost model of `product_is_zero`, in dict updates of the dict
# product (about 0.24 us each), fitted to timings of both paths on random
# operands and on boundaries (CPython 3.11, 2-vCPU Xeon): a packed entry of
# M and a column of N each cost about two updates more on the packed path,
# and a 30-bit digit of a packed multiply-add about 1/_DIGITS_PER_UPDATE.
_DIGITS_PER_UPDATE = 100


def _packed_columns(M: SparseMat, b: int) -> list:
    """Column k of M's numerators as one integer, entry r in slot r of b
    bits: sum of M[r][k] * 2^(r*b)."""
    packed = [0] * M.ncols
    for k, col in M.num.items():
        packed[k] = sum(x << (r * b) for r, x in col.items())
    return packed


class KernelTest:
    """Exact tests of M v = 0 for one nonzero matrix M and integer vectors
    v, M's columns packed as in `product_is_zero`.

    `pack(room)` packs M into slots of `slot_bits(room)` bits, wide
    enough for every vector whose entries' absolute values sum to at most
    room.  `kills` takes such a vector on that packing; a wider one first
    repacks M with twice its width as the new room, so every test is
    exact.  Nothing is packed before the first test or `pack`.
    """

    __slots__ = ("_M", "_top", "_room", "_at")

    def __init__(self, M: SparseMat):
        self._M = M
        self._top = max(max(map(abs, col.values())) for col in M.num.values())
        self._room = -1

    def slot_bits(self, room: int) -> int:
        """The slot width b for vectors of width at most room: every entry
        of M v is below 2^b in absolute value."""
        return (self._top * room).bit_length()

    def pack(self, room: int) -> None:
        self._room = room
        self._at = _packed_columns(self._M, self.slot_bits(room)).__getitem__

    def kills(self, v: dict) -> bool:
        width = sum(map(abs, v.values()))
        if width > self._room:
            self.pack(2 * width)
        return not sum(map(mul, v.values(), map(self._at, v)))


def _dict_is_zero(M: SparseMat, cols) -> bool:
    """Whether M kills every vector in `cols`, each product accumulated in
    a dict."""
    return not any(map(M._times, cols))


def _kills(M: SparseMat, cols, nnz_m=None) -> bool:
    """Whether M v = 0 for every nonzero integer vector v in `cols` (a list
    or a dict's values, read more than once), on the path that costs less.
    `nnz_m` is M.nnz, for a caller that tests M against many sets.

    The packed test runs when the dict product's updates, about
    nnz(cols) * nnz(M) / M.ncols, exceed the packed test's cost in the
    same unit: two per nonzero of M and per vector, and
    1/_DIGITS_PER_UPDATE per 30-bit digit of the M.nrows * b-bit integers
    it forms, one per nonzero of M and of the vectors.
    """
    if not (M.num and cols):
        return True
    if nnz_m is None:
        nnz_m = M.nnz
    nnz_n = sum(map(len, cols))
    updates = nnz_n * nnz_m / M.ncols
    fixed = 2 * (nnz_m + len(cols))
    if updates > fixed:
        test = KernelTest(M)
        room = max(map(sum, (map(abs, col.values()) for col in cols)))
        digits = (nnz_m + nnz_n) * (M.nrows * test.slot_bits(room) // 30 + 1)
        if updates > fixed + digits / _DIGITS_PER_UPDATE:
            test.pack(room)
            at = test._at
            return not any(sum(map(mul, col.values(), map(at, col)))
                           for col in cols)
    return _dict_is_zero(M, cols)


def product_is_zero(M: SparseMat, N: SparseMat) -> bool:
    """Whether M N = 0, tested column by column without forming M N; both
    paths are exact (module docstring)."""
    if M.ncols != N.nrows:
        raise AmbientDimensionError(
            f"cannot multiply {M.nrows}x{M.ncols} by {N.nrows}x{N.ncols}")
    return _kills(M, N.num.values())


def colspace(M: SparseMat) -> Subspace:
    return Subspace(M.nrows, (M.num[c] for c in sorted(M.num)))


def nullspace(M: SparseMat) -> Subspace:
    """Kernel of M as a subspace of Q^ncols, read off in closed form.

    The rows of M are eliminated with the largest index of each row as its
    lead: the columns are reversed, `Subspace` runs, and the indices are
    mapped back.  Each stored row R_p then has its largest index at its
    pivot p and is zero at every other pivot.  A free column f gives the
    kernel row e_f - sum of R_p[f] / R_p[p] * e_p over the pivots p whose
    row holds f.  Every such p lies above f, so f is the row's least index
    and the row is zero at every other free column: these rows already are
    the kernel's canonical form, with pivots at the free columns, and are
    only scaled to primitive integers.  Every one is checked to be killed by
    M, as in `product_is_zero`.
    """
    last = M.ncols - 1
    R = Subspace(M.ncols, ({last - c: x for c, x in row.items()}
                           for row in _row_dicts(M)))
    held: dict[int, list] = {}  # free column -> [(pivot, entry, pivot entry)]
    for q, row in zip(R.pivots, R._int_rows):
        r = row[q]
        for c, x in row.items():
            if c != q:
                held.setdefault(last - c, []).append((last - q, x, r))
    pivots = {last - q for q in R.pivots}
    free = [f for f in range(M.ncols) if f not in pivots]
    rows = []
    for f in free:
        terms = held.get(f, ())
        scale = lcm(*(r for _, _, r in terms))
        v = {f: scale}
        for p, x, r in terms:
            v[p] = -x * (scale // r)
        _strip_content(v)
        rows.append(v)
    if not _kills(M, rows):
        raise InternalCheckError("nullspace row is not in the kernel")
    ker = Subspace._of_int_rows(M.ncols, free, rows)
    if ker.dim != M.ncols - R.dim:
        raise InternalCheckError("rank-nullity violated in nullspace computation")
    return ker


def solve(M: SparseMat, b) -> dict | None:
    """One solution of M x = b, or None when the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    b, bden = _ints(b)
    if any(i < 0 or i >= M.nrows for i in b):
        raise AmbientDimensionError("right-hand side has wrong length")
    # With M = num / den and b = numerators / bden, M x = b is
    # bden * num x = den * numerators.
    aug = M.ncols
    rows = _row_dicts(M)
    if bden != 1:
        rows = [{c: bden * x for c, x in row.items()} for row in rows]
    for i, x in b.items():
        rows[i][aug] = M.den * x
    R = Subspace(M.ncols + 1, rows)
    if R.pivots and R.pivots[-1] == aug:
        return None
    x = {p: Fraction(row[aug], row[p])
         for p, row in zip(R.pivots, R._int_rows) if aug in row}
    if M.matvec(x) != _as_fractions(b, bden):
        raise InternalCheckError("solver produced an invalid solution")
    return x


def projection_matrix(rel: Subspace, nonpivots: list) -> SparseMat:
    """The projection of Q^n onto Q^n / rel, in the coordinates
    `nonpivots`: a len(nonpivots) x n matrix.

    `nonpivots` (sorted) must hold every index of rel's rows other than
    their pivots; on the span of those axes and the pivots, the kernel of
    the matrix is exactly rel, and every other column is zero.  It is read
    off the canonical form: over the lcm of the pivot entries, column p of
    a pivot holds minus the row's non-pivot entries.
    """
    pos = {c: i for i, c in enumerate(nonpivots)}
    den = lcm(*(row[p] for p, row in zip(rel.pivots, rel._int_rows)))
    cols: dict[int, dict] = {c: {i: den} for c, i in pos.items()}
    for p, row in zip(rel.pivots, rel._int_rows):
        s = den // row[p]
        col = {pos[c]: -x * s for c, x in row.items() if c != p}
        if col:
            cols[p] = col
    return SparseMat.from_ints(len(nonpivots), rel.ambient_dim, cols, den)


class QuotientStructure:
    """Coordinates on Q^n / R for a relation subspace R.

    The non-pivot coordinates of the canonical form of R serve as
    coordinates on the quotient: class j is that of the axis
    `nonpivots[j]`.  `project` applies `project_matrix`, whose kernel is
    R; `section` embeds quotient coordinates back using the non-pivot
    axes, so project(section(c)) == c.
    """

    __slots__ = ("ambient_dim", "nonpivots", "_relations", "_proj", "_sect",
                 "__weakref__")

    def __init__(self, ambient_dim: int, relations: Subspace):
        if relations.ambient_dim != ambient_dim:
            raise AmbientDimensionError("relations live in a different ambient space")
        self.ambient_dim = ambient_dim
        self._relations = relations
        pivset = set(relations.pivots)
        self.nonpivots = [c for c in range(ambient_dim) if c not in pivset]
        self._proj: SparseMat | None = None
        self._sect: SparseMat | None = None

    @property
    def relations(self) -> Subspace:
        """R, in canonical form."""
        return self._relations

    @property
    def dim(self) -> int:
        return len(self.nonpivots)

    def project(self, v) -> dict:
        """Quotient coordinates of the class of v."""
        return self.project_matrix().matvec(v)

    def section(self, coords) -> dict:
        """The ambient vector on the non-pivot axes with these coordinates."""
        coords = _as_sparse(coords)
        if any(j < 0 or j >= self.dim for j in coords):
            raise AmbientDimensionError(
                f"quotient coordinate out of range for dimension {self.dim}")
        return {self.nonpivots[j]: x for j, x in coords.items()}

    def project_matrix(self) -> SparseMat:
        """Matrix of `project` (dim x ambient_dim)."""
        if self._proj is None:
            self._proj = projection_matrix(self.relations, self.nonpivots)
        return self._proj

    def section_matrix(self) -> SparseMat:
        if self._sect is None:
            cols = {i: {c: 1} for i, c in enumerate(self.nonpivots)}
            self._sect = SparseMat.from_ints(self.ambient_dim, self.dim, cols)
        return self._sect

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(ambient={self.ambient_dim}, "
                f"dim={self.dim})")


class ClassMapQuotient(QuotientStructure):
    """Q^n / R for relations that identify basis vectors up to sign.

    The quotient is held as its signed class map: basis vector e_i goes to
    sign[i] times the class of its axis, the basis vector e_axis[i]; on a
    dead class, which the relations kill, axis[i] is None and sign[i] is
    0.  Every axis must be the largest index of its class, with sign 1.
    Then R is spanned by e_i - sign[i] e_axis[i] for every i off an axis
    and e_i for every i on a dead class, and these rows are R's canonical
    form with pivots at those i, so the axes are exactly the non-pivots.
    `project_matrix` (one +-1 per live column, and so `project`) and
    `induced_on_quotients` read the map itself; R is formed only when
    `relations` is read.
    """

    __slots__ = ("axis", "sign", "_coord")

    def __init__(self, axis: list, sign: list):
        if len(axis) != len(sign):
            raise ValueError("one sign per basis index is needed")
        self.ambient_dim = len(axis)
        self.axis = axis
        self.sign = sign
        self.nonpivots = [i for i, a in enumerate(axis) if a == i]
        at = dict(zip(self.nonpivots, range(len(self.nonpivots))))
        self._coord = list(map(at.get, axis))  # quotient coordinate or None
        self._relations = self._proj = self._sect = None

    @property
    def relations(self) -> Subspace:
        """R in canonical form, formed on first use."""
        if self._relations is None:
            pivots, rows = [], []
            for i, (a, s) in enumerate(zip(self.axis, self.sign)):
                if a != i:
                    pivots.append(i)
                    rows.append({i: 1} if a is None else {i: 1, a: -s})
            self._relations = Subspace._of_int_rows(self.ambient_dim,
                                                    pivots, rows)
        return self._relations

    def project_matrix(self) -> SparseMat:
        if self._proj is None:
            self._proj = SparseMat.from_ints(self.dim, self.ambient_dim, {
                i: {j: s} for i, (j, s) in enumerate(zip(self._coord, self.sign))
                if s})
        return self._proj


def induced_on_quotients(M: SparseMat, src: ClassMapQuotient,
                         dst: ClassMapQuotient) -> SparseMat:
    """Matrix of the map induced by M on class-map quotient coordinates.

    F = P M, P being dst's projection, is formed in one pass over M's
    columns: row r moves to dst's class of r with r's sign, or drops on a
    dead class.  Column c is kept as sign[c] F e_c, src's sign (F e_c on
    a dead class), and `_descended` checks descent and reads the axes.
    """
    if M.ncols != src.ambient_dim or M.nrows != dst.ambient_dim:
        raise AmbientDimensionError("matrix shape does not match the quotients")
    coord, sign, src_sign = dst._coord, dst.sign, src.sign
    F = [None] * M.ncols
    for c, col in M.num.items():
        sc = src_sign[c] or 1
        acc: dict = {}
        for r, x in col.items():
            j = coord[r]
            if j is not None:
                if j in acc:
                    y = acc[j] + sc * sign[r] * x
                    if y:
                        acc[j] = y
                    else:
                        del acc[j]
                else:
                    acc[j] = sc * sign[r] * x
        if acc:
            F[c] = acc
    return _descended(F, src, dst.dim, M.den)


def _descended(F: list, src: ClassMapQuotient, nrows: int,
               den: int) -> SparseMat:
    """The induced map, over den, of a map F into nrows quotient
    coordinates that is given on every index c of src as F[c] =
    sign[c] F e_c, src's sign (F e_c on a dead class): an integer column
    dict, or None where it is zero.

    F descends when it kills every relation of src: F e_c = 0 on a dead
    class and F e_c = sign[c] F e_axis[c] elsewhere, that is F[c] equals
    F[axis[c]], or is None.  This is checked on every index of src, and a
    violation is a hard error.  Column j of the induced map is F e_m for
    the j-th axis m of src, whose sign is 1.
    """
    _descends(F, src.axis)
    return SparseMat.from_ints(nrows, src.dim, {
        j: F[m] for j, m in enumerate(src.nonpivots) if F[m]}, den)


def _descends(F: list, axis: list) -> None:
    """Raise unless F, given as in `_descended` on every index c of a class
    map whose axes are `axis`, kills its relations: F[c] is None where
    axis[c] is, and equals F[axis[c]] elsewhere."""
    if [None if a is None else F[a] for a in axis] != F:
        raise InternalCheckError(
            "map does not descend to the quotient: image of a relation "
            "is not a relation")
