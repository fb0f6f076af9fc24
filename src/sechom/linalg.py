"""Exact linear algebra over the rationals.

Conventions used throughout the package:

* a *vector* is a sparse dict mapping index -> nonzero Fraction; inputs
  may be dense lists or sparse dicts, and every vector this module
  returns is a sparse dict (`to_dense` turns one into a list where a
  caller needs coordinates by position),
* matrices are column-major sparse (`SparseMat`), each column such a dict,
* subspaces are stored as reduced row echelon bases, so two subspaces are
  equal exactly when their stored data is equal.

Elimination is fraction-free: `Subspace` turns each input vector into a
primitive integer row, reduces it against the integer working rows by
cross-multiplication and strips the content after each scaled step, so
no Fraction is formed while rows are combined.  Fractions appear
once, when the canonical rows (pivot entry 1, zero at every other pivot)
are emitted.

Everything is exact; no floats enter at any point.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Optional

Rat = Fraction

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


def to_dense(v: dict, n: int) -> list:
    """The sparse vector v as a dense list of length n."""
    out = [ZERO] * n
    for i, x in v.items():
        out[i] = x
    return out


def _axpy(v: dict, c: Fraction, w: dict) -> None:
    """v += c*w in place, dropping entries that cancel."""
    for i, x in w.items():
        y = v.get(i, ZERO) + c * x
        if y:
            v[i] = y
        else:
            v.pop(i, None)


def _primitive(v: dict) -> dict:
    """The primitive integer multiple of a nonzero sparse rational vector."""
    den = lcm(*(x.denominator for x in v.values()))
    if den == 1:
        ints = {i: x.numerator for i, x in v.items()}
    else:
        ints = {i: x.numerator * (den // x.denominator) for i, x in v.items()}
    _strip_content(ints)
    return ints


def _strip_content(v: dict) -> None:
    """Divide a nonzero integer vector in place by the gcd of its entries."""
    g = gcd(*v.values())
    if g != 1:
        for i in v:
            v[i] //= g


def _eliminate(v: dict, row: dict, p: int) -> None:
    """Clear entry p of the integer vector v with the integer row, in place.

    v becomes a*v - b*row for the smallest integers a > 0 and b that
    cancel entry p, and is then stripped of its content.
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
    for i, x in row.items():
        y = v.get(i, 0) - b * x
        if y:
            v[i] = y
        else:
            del v[i]
    if a != 1 and v:
        _strip_content(v)


class Subspace:
    """A linear subspace of Q^n held as a reduced row echelon basis.

    The basis rows are pivot-normalized and fully reduced, so the stored
    form is canonical: two Subspaces are equal iff they describe the same
    subspace of the same ambient space.
    """

    __slots__ = ("ambient_dim", "rows", "pivots", "_pivot_pos")

    def __init__(self, ambient_dim: int, vectors: Iterable = ()):
        self.ambient_dim = ambient_dim
        work: dict[int, dict] = {}  # pivot -> primitive integer row
        for v in vectors:
            v = _as_sparse(v)
            if any(i < 0 or i >= ambient_dim for i in v):
                raise AmbientDimensionError(
                    f"vector index out of range for ambient dimension {ambient_dim}")
            if not v:
                continue
            v = _primitive(v)
            while v:
                lead = min(v)
                row = work.get(lead)
                if row is None:
                    work[lead] = v
                    break
                _eliminate(v, row, lead)
        # Back-substitute from the last pivot down.  A row below is already
        # fully reduced, so clearing one pivot leaves the others alone and
        # each row visits only the pivots it holds.
        self.pivots = sorted(work)
        self.rows = [{}] * len(self.pivots)
        for k in range(len(self.pivots) - 1, -1, -1):
            p = self.pivots[k]
            row = work[p]
            for q in [q for q in row if q != p and q in work]:
                _eliminate(row, work[q], q)
            lead = row[p]
            self.rows[k] = {i: Fraction(x, lead) for i, x in row.items()}
        self._pivot_pos = {p: k for k, p in enumerate(self.pivots)}

    @classmethod
    def from_canonical(cls, ambient_dim: int, rows: list,
                       pivots: list) -> "Subspace":
        """Wrap rows that are already the canonical RREF, with no elimination.

        `rows[k]` has its least index at `pivots[k]`, value 1 there and 0 at
        every other pivot; pivots strictly increase.  This is checked in
        time linear in the entries, and a violation raises ValueError.
        """
        sub = cls.__new__(cls)
        sub.ambient_dim = ambient_dim
        sub.rows = list(rows)
        sub.pivots = list(pivots)
        sub._pivot_pos = {p: k for k, p in enumerate(sub.pivots)}
        if len(sub.rows) != len(sub.pivots) or any(
                a >= b for a, b in zip(sub.pivots, sub.pivots[1:])):
            raise ValueError("pivots must strictly increase, one per row")
        for p, row in zip(sub.pivots, sub.rows):
            if (row.get(p) != 1 or min(row) != p or max(row) >= ambient_dim
                    or not all(row.values())
                    or any(k != p and k in sub._pivot_pos for k in row)):
                raise ValueError(f"row with pivot {p} is not in canonical form")
        return sub

    # -- queries -----------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v) -> dict:
        """Remainder of v after reduction against the basis (sparse).

        Stored rows are fully reduced: each is 1 at its own pivot and 0 at
        every other pivot.  Subtracting one therefore leaves the other
        pivot entries of v alone, so only the rows whose pivots lie in v's
        support are used, each once with v's own entry as coefficient; the
        cost follows v's support and those rows, not the rank.
        """
        v = _as_sparse(v)
        if any(i < 0 or i >= self.ambient_dim for i in v):
            raise AmbientDimensionError(
                f"vector index out of range for ambient dimension {self.ambient_dim}")
        pos = self._pivot_pos
        for p in [p for p in v if p in pos]:
            _axpy(v, -v[p], self.rows[pos[p]])
        return v

    def contains(self, v) -> bool:
        return not self.reduce(v)

    def coords_of(self, v, verify: bool = True) -> dict:
        """Coordinates of v in the stored basis, sparse: {row number: x}.

        The pivot entries of a vector in the subspace are its coordinates.
        With verify on, a vector outside the subspace raises ValueError;
        with it off the caller must know v lies in the subspace.
        """
        v = _as_sparse(v)
        pos = self._pivot_pos
        coords = {pos[p]: x for p, x in v.items() if p in pos}
        if verify and self.reduce(v):
            raise ValueError("vector is not in the subspace")
        return coords

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise AmbientDimensionError("subspace sum across different ambient spaces")
        return Subspace(self.ambient_dim, self.rows + other.rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.pivots == other.pivots
                and self.rows == other.rows)

    def __le__(self, other: "Subspace") -> bool:
        return all(other.contains(row) for row in self.rows)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


class SparseMat:
    """Column-major sparse matrix over the rationals."""

    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, nrows: int, ncols: int,
                 cols: Optional[dict[int, dict]] = None):
        self.nrows = nrows
        self.ncols = ncols
        self.cols: dict[int, dict] = cols if cols is not None else {}

    @classmethod
    def from_entries(cls, nrows: int, ncols: int, entries) -> "SparseMat":
        m = cls(nrows, ncols)
        for r, c, x in entries:
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise AmbientDimensionError(f"entry ({r},{c}) outside {nrows}x{ncols}")
            x = Fraction(x)
            if x:
                col = m.cols.setdefault(c, {})
                y = col.get(r, ZERO) + x
                if y:
                    col[r] = y
                else:
                    del col[r]
        m._prune()
        return m

    @classmethod
    def from_columns(cls, nrows: int, columns: Iterable) -> "SparseMat":
        """The matrix with these columns, each dense or sparse."""
        cols = {}
        columns = list(columns)
        for c, col in enumerate(columns):
            col = _as_sparse(col)
            if any(r < 0 or r >= nrows for r in col):
                raise AmbientDimensionError(f"row index out of range in column {c}")
            if col:
                cols[c] = col
        return cls(nrows, len(columns), cols)

    @classmethod
    def identity(cls, n: int) -> "SparseMat":
        return cls(n, n, {i: {i: ONE} for i in range(n)})

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "SparseMat":
        return cls(nrows, ncols)

    def _prune(self) -> None:
        for c in [c for c, col in self.cols.items() if not col]:
            del self.cols[c]

    def column(self, c: int) -> dict:
        if not 0 <= c < self.ncols:
            raise AmbientDimensionError(f"column {c} outside width {self.ncols}")
        return dict(self.cols.get(c, {}))

    def entries(self) -> Iterator[tuple]:
        """Yield (row, col, value) sorted by (row, col)."""
        items = []
        for c, col in self.cols.items():
            for r, x in col.items():
                items.append((r, c, x))
        items.sort(key=lambda t: (t[0], t[1]))
        return iter(items)

    @property
    def nnz(self) -> int:
        return sum(len(col) for col in self.cols.values())

    def is_zero(self) -> bool:
        return not self.cols

    def transpose(self) -> "SparseMat":
        cols: dict[int, dict] = {}
        for c, col in self.cols.items():
            for r, x in col.items():
                cols.setdefault(r, {})[c] = x
        return SparseMat(self.ncols, self.nrows, cols)

    def matvec(self, v) -> dict:
        """Product M v for a dense or sparse vector v."""
        v = _as_sparse(v)
        if any(c < 0 or c >= self.ncols for c in v):
            raise AmbientDimensionError(f"vector index outside width {self.ncols}")
        return self._times(v)

    def _times(self, v: dict) -> dict:
        """M v for a sparse vector already known to fit, unchecked."""
        acc: dict = {}
        for c, x in v.items():
            col = self.cols.get(c)
            if col:
                _axpy(acc, x, col)
        return acc

    def __matmul__(self, other: "SparseMat") -> "SparseMat":
        if self.ncols != other.nrows:
            raise AmbientDimensionError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        cols = {}
        for c, col in other.cols.items():
            acc = self._times(col)
            if acc:
                cols[c] = acc
        return SparseMat(self.nrows, other.ncols, cols)

    def _combine(self, other: "SparseMat", sign: int) -> "SparseMat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise AmbientDimensionError("matrix shapes differ")
        cols = {c: dict(col) for c, col in self.cols.items()}
        for c, col in other.cols.items():
            acc = cols.setdefault(c, {})
            _axpy(acc, Fraction(sign), col)
        out = SparseMat(self.nrows, self.ncols, cols)
        out._prune()
        return out

    def __add__(self, other: "SparseMat") -> "SparseMat":
        return self._combine(other, 1)

    def __sub__(self, other: "SparseMat") -> "SparseMat":
        return self._combine(other, -1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SparseMat)
                and (self.nrows, self.ncols) == (other.nrows, other.ncols)
                and self.cols == other.cols)

    def to_dense(self) -> list:
        out = [[ZERO] * self.ncols for _ in range(self.nrows)]
        for c, col in self.cols.items():
            for r, x in col.items():
                out[r][c] = x
        return out

    def __repr__(self) -> str:
        return f"SparseMat({self.nrows}x{self.ncols}, nnz={self.nnz})"


# -- matrix-level operations ----------------------------------------------

def _row_dicts(M: SparseMat) -> list:
    rows: list[dict] = [dict() for _ in range(M.nrows)]
    for c, col in M.cols.items():
        for r, x in col.items():
            rows[r][c] = x
    return rows


def rank(M: SparseMat) -> int:
    """Rank via row elimination with content stripping."""
    sp = Subspace(M.ncols, _row_dicts(M))
    return sp.dim


def row_space(M: SparseMat) -> Subspace:
    return Subspace(M.ncols, _row_dicts(M))


def colspace(M: SparseMat) -> Subspace:
    return Subspace(M.nrows, (M.cols[c] for c in sorted(M.cols)))


def nullspace(M: SparseMat) -> Subspace:
    """Kernel of M as a subspace of Q^ncols."""
    R = row_space(M)
    pivset = set(R.pivots)
    free = [c for c in range(M.ncols) if c not in pivset]
    basis = []
    for f in free:
        v = {f: ONE}
        for p, row in zip(R.pivots, R.rows):
            x = row.get(f)
            if x:
                v[p] = -x
        basis.append(v)
    ker = Subspace(M.ncols, basis)
    if ker.dim != M.ncols - R.dim:
        raise InternalCheckError("rank-nullity violated in nullspace computation")
    return ker


def solve(M: SparseMat, b) -> Optional[dict]:
    """One solution of M x = b, or None when the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    b = _as_sparse(b)
    if any(i < 0 or i >= M.nrows for i in b):
        raise AmbientDimensionError("right-hand side has wrong length")
    aug = M.ncols
    rows = _row_dicts(M)
    for i, x in b.items():
        rows[i][aug] = x
    R = Subspace(M.ncols + 1, rows)
    if R.pivots and R.pivots[-1] == aug:
        return None
    x = {p: row[aug] for p, row in zip(R.pivots, R.rows) if aug in row}
    if M.matvec(x) != b:
        raise InternalCheckError("solver produced an invalid solution")
    return x


class QuotientStructure:
    """Coordinates on Q^n / R for a relation subspace R.

    The non-pivot coordinates of the canonical form of R serve as
    coordinates on the quotient: class j is that of the axis
    `nonpivots[j]`.  `project` reduces a vector against R and reads those
    coordinates; `section` embeds quotient coordinates back using the
    non-pivot axes, so project(section(c)) == c.
    """

    __slots__ = ("ambient_dim", "relations", "nonpivots", "_proj", "_sect")

    def __init__(self, ambient_dim: int, relations: Subspace):
        if relations.ambient_dim != ambient_dim:
            raise AmbientDimensionError("relations live in a different ambient space")
        self.ambient_dim = ambient_dim
        self.relations = relations
        pivset = set(relations.pivots)
        self.nonpivots = [c for c in range(ambient_dim) if c not in pivset]
        self._proj: Optional[SparseMat] = None
        self._sect: Optional[SparseMat] = None

    @property
    def dim(self) -> int:
        return len(self.nonpivots)

    def project(self, v) -> dict:
        """Quotient coordinates of the class of v."""
        axes = self.nonpivots  # sorted; the remainder lives on these axes
        return {bisect_left(axes, c): x
                for c, x in self.relations.reduce(v).items()}

    def section(self, coords) -> dict:
        """The ambient vector on the non-pivot axes with these coordinates."""
        coords = _as_sparse(coords)
        if any(j < 0 or j >= self.dim for j in coords):
            raise AmbientDimensionError(
                f"quotient coordinate out of range for dimension {self.dim}")
        return {self.nonpivots[j]: x for j, x in coords.items()}

    def project_matrix(self) -> SparseMat:
        """Matrix of `project` (dim x ambient_dim), read off the canonical form."""
        if self._proj is None:
            pos = {c: i for i, c in enumerate(self.nonpivots)}
            cols: dict[int, dict] = {}
            for c, i in pos.items():
                cols[c] = {i: ONE}
            for p, row in zip(self.relations.pivots, self.relations.rows):
                col = {}
                for c, x in row.items():
                    if c in pos:
                        col[pos[c]] = -x
                if col:
                    cols[p] = col
            self._proj = SparseMat(self.dim, self.ambient_dim, cols)
        return self._proj

    def section_matrix(self) -> SparseMat:
        if self._sect is None:
            cols = {i: {c: ONE} for i, c in enumerate(self.nonpivots)}
            self._sect = SparseMat(self.ambient_dim, self.dim, cols)
        return self._sect

    def __repr__(self) -> str:
        return f"QuotientStructure(ambient={self.ambient_dim}, dim={self.dim})"


def induced_on_quotients(M: SparseMat, src: QuotientStructure,
                         dst: QuotientStructure, check: bool = True) -> SparseMat:
    """Matrix of the map induced by M on quotient coordinates.

    Well-definedness needs M(src relations) inside the dst relations; with
    check on this is verified and violation is a hard error.
    """
    if M.ncols != src.ambient_dim or M.nrows != dst.ambient_dim:
        raise AmbientDimensionError("matrix shape does not match the quotients")
    if check:
        for row in src.relations.rows:
            if not dst.relations.contains(M.matvec(row)):
                raise InternalCheckError(
                    "map does not descend to the quotient: image of a relation "
                    "is not a relation")
    return dst.project_matrix() @ M @ src.section_matrix()


# -- sparse triplet serialization ------------------------------------------

def export_triplets(M: SparseMat) -> str:
    """Text form: `rows cols nnz` header, then `row col num/den` lines."""
    lines = [f"{M.nrows} {M.ncols} {M.nnz}"]
    for r, c, x in M.entries():
        lines.append(f"{r} {c} {x.numerator}/{x.denominator}")
    return "\n".join(lines) + "\n"


def parse_triplets(text: str) -> SparseMat:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty triplet text")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError(f"bad triplet header: {lines[0]!r}")
    nrows, ncols, nnz = (int(t) for t in head)
    if len(lines) - 1 != nnz:
        raise ValueError(f"header promises {nnz} entries, found {len(lines) - 1}")
    entries = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"bad triplet line: {ln!r}")
        r, c = int(parts[0]), int(parts[1])
        num, _, den = parts[2].partition("/")
        den = int(den or "1")
        if den == 0:
            raise ValueError(f"zero denominator in triplet line: {ln!r}")
        entries.append((r, c, Fraction(int(num), den)))
    return SparseMat.from_entries(nrows, ncols, entries)
