"""Homology of the chain complex of a triple, in two flavors.

The plain flavor is kernel-mod-image of the boundary; the cyclic flavor
runs the same computation on the quotient complex by the cyclic operator's
coinvariant relations.  Its boundary is scattered straight onto
coinvariant coordinates, never built whole (`_induced_boundary`), and
that it descends to the quotient is certified on every index as it is
built or streamed; a failure is a hard error.  Degrees above the cap
(default 3) must be requested explicitly since space grows as
dim(A)^(n+1) * dim(B)^(n(n+1)/2).

`hh` and `hc` read the dimension on `triples.regrade(T)` when it finds a
triple isomorphic to T whose basis is graded (T's own basis hides the
grading), and on T otherwise: isomorphic triples have isomorphic
complexes, and the graded one splits its relation span by weight.  The
quotient reads the next boundary one weight block at a time, each as the
rows r of its one-entry columns x e_r, its units, and its other columns;
`hh` takes the blocks from the memo when the boundary is built whole
there, and otherwise streams them from `chains.boundary_blocks`, which
scatters each block in sub-blocks and keeps only those two, so it never
holds the next boundary whole, nor a one-entry column once its sub-block
is scattered.  `hc` reads the next induced boundary the same way: from
the memo when it, or the boundary it is projected from, is there, and
otherwise streamed by `chains.projected_boundary_blocks`, one content
block of the rotation at a time, so that it holds neither the next
degree's class map nor a column per index of it.  d squared is tested on
a unit in closed form: it kills x e_r exactly when column r of d is
zero.  A caller that sweeps hh or hc over degrees should go from the top
down, so that only the top boundary is streamed; swept upwards, hc
streams each degree before it builds it whole, and builds its face plans
twice.

Representatives are always reported in the chain coordinates of the
requested degree, in T's own basis, and formed only when read; their
classes form a basis of the homology space.  Class j of a homology
quotient is that of the cycle basis row at the quotient's non-pivot axis
j, so each representative is a stored row.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cached_property
from math import log10

from .chains import (_face_den, boundary, boundary_blocks, chain_dim,
                     chain_weights, cyclic_quotient, projected_boundary,
                     projected_boundary_blocks)
from .linalg import (InternalCheckError, KernelTest, QuotientStructure,
                     SparseMat, Subspace, _descended, _kills,
                     induced_on_quotients, nullspace, projection_matrix,
                     to_dense)
from .triples import Triple, per_triple, recall, regrade

DEFAULT_MAX_DEGREE = 3
_MAX_DIGITS = 100  # longer chain dimensions are printed as powers
# Columns a weight block rejects in a row before later ones are tested
# against its projection (see _quotient_of_complex).
_STALL = 32


class DegreeCapError(ValueError):
    """Degree exceeds the cap; pass max_degree explicitly to go higher."""

    def __init__(self, n: int, cap: int, dims: str):
        super().__init__(
            f"degree {n} exceeds the cap {cap}; chain spaces involved have "
            f"dimensions {dims}. Pass max_degree={n} (library) or the "
            f"override flag (command line) to proceed anyway.")
        self.requested = n
        self.cap = cap


def _dim_text(T: Triple, k: int) -> str:
    """chain_dim(T, k) in decimal, or as a product of powers when it would
    have more than _MAX_DIGITS digits (it is then never computed)."""
    e_a, e_b = k + 1, k * (k + 1) // 2
    if e_a * log10(T.A.dim) + e_b * log10(T.B.dim) < _MAX_DIGITS:
        return str(chain_dim(T, k))
    return f"{T.A.dim}^{e_a}*{T.B.dim}^{e_b}"


def check_degree(T: Triple, n: int, max_degree) -> None:
    """Raise DegreeCapError when n exceeds the cap (default 3)."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    cap = DEFAULT_MAX_DEGREE if max_degree is None else max_degree
    if n > cap:
        dims = ", ".join(_dim_text(T, k) for k in range(n, n + 2))
        raise DegreeCapError(n, cap, dims)


class HomologyResult:
    """The dimension of one homology space, and its representatives.

    The representatives are formed on first read, by `_representatives`,
    and their number is checked against the dimension then.  Two results
    are equal when their names, flavors, degrees and dimensions are.
    """

    def __init__(self, triple_name: str, flavor: str, degree: int,
                 dimension: int, _representatives: Callable):
        self.triple_name = triple_name
        self.flavor = flavor  # "hh" or "hc"
        self.degree, self.dimension = degree, dimension
        self._representatives = _representatives

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.triple_name, self.flavor, self.degree, self.dimension)
                == (other.triple_name, other.flavor, other.degree,
                    other.dimension))

    @cached_property
    def representatives(self) -> list:
        reps = self._representatives()
        if len(reps) != self.dimension:
            raise InternalCheckError(
                f"{len(reps)} representatives in the input's basis for "
                f"dimension {self.dimension}")
        return reps

    def __str__(self) -> str:
        return (f"{self.flavor.upper()}_{self.degree}({self.triple_name}) "
                f"has dimension {self.dimension}")


def _inhomogeneous(what: str) -> InternalCheckError:
    return InternalCheckError(
        f"{what} is not homogeneous for the triple's grading")


def _weight(v: dict, weights: list, what: str):
    """The one weight key of every index of the nonzero vector v."""
    keys = set(map(weights.__getitem__, v))
    if len(keys) != 1:
        raise _inhomogeneous(what)
    return keys.pop()


def _by_weight(cols: dict, weights: list):
    """Nonzero columns as weight blocks (w, units, cols), as
    `chains.boundary_blocks` yields them, each column in the block of the
    weight key of its least index: a one-entry column x e_r puts r in
    units, and the others are kept in cols by column number."""
    blocks: dict = {}
    for (c, col), w in zip(cols.items(),
                           map(weights.__getitem__, map(min, cols.values()))):
        if w not in blocks:
            blocks[w] = set(), {}
        if len(col) == 1:
            blocks[w][0].update(col)
        else:
            blocks[w][1][c] = col
    return [(w, units, block) for w, (units, block) in blocks.items()]


def _quotient_of_complex(cycles: Subspace, blocks,
                         weights: list) -> QuotientStructure:
    """Homology quotient: cycle coordinates modulo boundary coordinates.

    `blocks` gives the next boundary's columns as weight blocks (w, units,
    cols), one per weight key w, read once in turn, as
    `chains.boundary_blocks` yields them and `_by_weight` groups a whole
    matrix: units holds the row r of every one-entry column x e_r of
    weight w, and cols maps column numbers to the other columns of weight
    w.  Callers must have certified that they are cycles, so their
    coordinates are read off the cycle pivots with no membership pass.
    Integer numerators serve as well as the columns themselves, since
    only their span matters, and their order does not matter either.

    `weights` gives the weight key of each chain coordinate.  Every cycle
    row and every column must be homogeneous, a column of its block's
    weight, or the grading is wrong and this is a hard error.  A column
    of weight w then has coordinates only on the cycles whose pivot has
    weight w, so each block's relations are found from its own columns
    (`_block_relations`), and the block is dropped before the next is
    read.  Rows of different blocks have disjoint supports, so together,
    merged by pivot, they are the canonical form.  The cycle rows are
    checked once every block is read, so that a caller that checks each
    block as it comes reports a nonzero square first.
    """
    members: dict = {}  # weight -> numbers of the cycle rows of its pivots
    for j, p in enumerate(cycles.pivots):
        members.setdefault(weights[p], []).append(j)
    rows = []
    for w, units, cols in blocks:
        rows += _block_relations(cycles, members.get(w, ()), w, units, cols,
                                 weights)
        del units, cols  # before the next block is built
    for row in cycles._int_rows:
        _weight(row, weights, "cycle row")
    rows.sort()
    relations = Subspace._of_int_rows(cycles.dim, [p for p, _ in rows],
                                      [row for _, row in rows])
    return QuotientStructure(cycles.dim, relations)


def _block_relations(cycles: Subspace, members, w, units, cols: dict,
                     weights: list) -> list:
    """The canonical relation rows of one weight block, as (pivot, row):
    those its one-entry columns, at the chain indices `units`, and its
    other columns `cols` give on the cycle rows numbered in `members`,
    the cycle rows of weight w.

    A column whose one entry is at chain index r makes e_r a boundary,
    hence a cycle: r is a cycle pivot whose row is e_r (a hard error
    otherwise), and the relation at its coordinate k is the unit row e_k,
    so every other canonical relation row is zero at k.  A cycle
    coordinate is live until its relation is known to be such a unit
    row.  The units are checked first; then the live coordinates of
    every other column are counted.  A column with exactly one live
    coordinate k makes e_k a relation, since its other coordinates are
    relations already, so k is peeled and every column that holds k
    loses a live coordinate, until no column has exactly one (the
    coreduction of Kaczynski, Mrozek & Slusarek, Comput. Math. Appl. 35,
    1998).  The numbers of the columns that hold each live coordinate are
    gathered only when some column has exactly one, and a column with 255
    or more is left out of the peel.

    The span then reads only the columns with two or more live
    coordinates, with the others dropped.  It never opens when no
    coordinate is live, and takes no more columns once it spans the live
    ones.  Once it has rejected _STALL columns in a row, its projection P
    onto the quotient of the live coordinates is built, and each later
    column v is tested by P v = 0, which is exact: the kernel of P is the
    span.  Only a column that P does not kill goes to `add`; it raises
    the rank, and P is built again at the next stall.  The unit rows of
    the units and of the peeled coordinates, with the span's rows, are
    the block's canonical form.
    """
    pos = cycles._pivot_pos
    for r in units:
        if weights[r] != w:
            raise _inhomogeneous("boundary column")
        if r not in pos or cycles._int_rows[pos[r]] != {r: 1}:
            raise InternalCheckError(
                "a one-entry boundary column is not a cycle basis row")
    pivots = cycles.pivots
    live = {pivots[j]: j for j in members if pivots[j] not in units}
    # Live coordinates, up to 255, of each column; the columns with
    # exactly one go on the stack.
    count = bytearray(max(cols, default=-1) + 1)
    stack = []
    for c, col in cols.items():
        if set(map(weights.__getitem__, col)) != {w}:
            raise _inhomogeneous("boundary column")
        n = sum(map(live.__contains__, col))
        if n == 1:
            stack.append(c)
        elif n:
            count[c] = min(n, 255)
    if stack:
        holders = {p: [] for p in live}
        for c, col in cols.items():
            if 1 < count[c] < 255:
                for p in col:
                    if p in live:
                        holders[p].append(c)
        while stack:
            # A column on the stack has one live coordinate left, or none
            # once another column has peeled it, and is then skipped.
            for k in cols[stack.pop()]:
                if k in live:
                    break
            else:
                continue
            del live[k]
            for c in holders.pop(k):
                count[c] -= 1
                if count[c] == 1:
                    stack.append(c)
    rows = [(k, {k: 1}) for k in members if pivots[k] not in live]
    if not live:
        return rows
    rels, rejected, test = Subspace(cycles.dim), 0, None
    for c, col in cols.items():
        if count[c] < 2:
            continue
        v = {live[p]: x for p, x in col.items() if p in live}
        if test is not None and test.kills(v):
            continue
        if rels.add(v):
            if rels.dim == len(live):
                break
            rejected, test = 0, None
        elif rejected + 1 < _STALL:
            rejected += 1
        else:
            rejected, test = 0, KernelTest(projection_matrix(rels, [
                k for k in live.values() if k not in rels._pivot_pos]))
    return rows + list(zip(rels.pivots, rels._int_rows))


def _checked(d: SparseMat, blocks, what: str, n: int):
    """The blocks, each once d has been found to kill its columns: a
    one-entry column x e_r exactly when column r of d is zero, and the
    others by `_kills`."""
    nnz = d.nnz
    for w, units, cols in blocks:
        if any(map(d.num.get, units)) or not _kills(d, cols.values(), nnz):
            raise InternalCheckError(
                f"{what} squared is nonzero between degrees {n + 1} and "
                f"{n - 1}")
        yield w, units, cols
        del units, cols  # before the next block is built


def _homology_pieces(d: SparseMat, blocks, weights: list, what: str,
                     n: int):
    """Cycles of d (degree n) and their quotient by the image of the next
    boundary, whose columns `blocks` gives by weight.

    d after the next boundary must vanish; otherwise the complex is
    broken and this is a hard error, checked block by block.  In degree
    0, d has no rows, so every chain is a cycle.  `weights` gives the
    weight key of each degree-n coordinate.
    """
    cycles = nullspace(d)
    Q = _quotient_of_complex(cycles, _checked(d, blocks, what, n), weights)
    return cycles, Q


def _hh_pieces(T: Triple, n: int):
    """Cycles of the boundary at degree n and the homology quotient.

    The next boundary is read from T's memo when it is there, and is
    otherwise streamed by `boundary_blocks`, never held whole.
    """
    weights = chain_weights(T, n)
    d_next = recall(T, boundary, n + 1)
    blocks = (boundary_blocks(T, n + 1) if d_next is None
              else _by_weight(d_next.num, weights))
    return _homology_pieces(boundary(T, n), blocks, weights, "boundary", n)


def hh(T: Triple, n: int, max_degree=None) -> HomologyResult:
    """Homology of the chain complex at degree n.

    The dimension is read on `regrade(T)` when there is one, else on T;
    the representatives are T's own (see `HomologyResult`).
    """
    check_degree(T, n, max_degree)
    R = regrade(T)
    pieces = _hh_pieces(R or T, n)

    def representatives() -> list:
        cycles, Q = _hh_pieces(T, n) if R else pieces
        return [to_dense(cycles.row(c), chain_dim(T, n)) for c in Q.nonpivots]
    return HomologyResult(T.name, "hh", n, pieces[1].dim, representatives)


@per_triple
def _induced_boundary(T: Triple, k: int) -> SparseMat:
    """Boundary on cyclic coinvariant coordinates, degree k to k - 1.

    F = P_{k-1} boundary(T, k) is scattered straight onto coinvariant
    coordinates (`chains.projected_boundary`), so the boundary is never
    built; when the memo holds it whole, because another reader built
    it, it is projected by `induced_on_quotients` instead.  Either way
    `linalg._descended` certifies that F descends, a failure being a
    hard error, and keeps only the axis columns.  Memoized, so a sweep
    over degrees builds each once.
    """
    q_src = cyclic_quotient(T, k)
    if k == 0:
        return SparseMat.zeros(0, q_src.dim)
    q_dst = cyclic_quotient(T, k - 1)
    d = recall(T, boundary, k)
    if d is not None:
        return induced_on_quotients(d, q_src, q_dst)
    return _descended(projected_boundary(T, k, q_src, q_dst), q_src,
                      q_dst.dim, _face_den(T, k))


def _hc_pieces(T: Triple, n: int):
    """Cycle subspace and homology quotient on coinvariant coordinates.

    The next induced boundary is read from T's memo when it, or the
    boundary it is projected from, is there, and is otherwise streamed
    by `projected_boundary_blocks`, never held whole.
    """
    q_n = cyclic_quotient(T, n)
    tensor_weights = chain_weights(T, n)
    weights = [tensor_weights[c] for c in q_n.nonpivots]
    d = _induced_boundary(T, n)
    if (recall(T, boundary, n + 1) is None
            and recall(T, _induced_boundary, n + 1) is None):
        blocks = projected_boundary_blocks(T, n + 1, q_n)
    else:
        blocks = _by_weight(_induced_boundary(T, n + 1).num, weights)
    cycles, Q = _homology_pieces(d, blocks, weights, "induced boundary", n)
    return q_n, cycles, Q


def hc(T: Triple, n: int, max_degree=None) -> HomologyResult:
    """Homology of the cyclic coinvariant complex at degree n, read as
    `hh` reads its own."""
    check_degree(T, n, max_degree)
    R = regrade(T)
    pieces = _hc_pieces(R or T, n)

    def representatives() -> list:
        q_n, cycles, Q = _hc_pieces(T, n) if R else pieces
        return [to_dense(q_n.section(cycles.row(c)), chain_dim(T, n))
                for c in Q.nonpivots]
    return HomologyResult(T.name, "hc", n, pieces[2].dim, representatives)

