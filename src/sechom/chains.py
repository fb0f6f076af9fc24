"""The chain complex of a triple (A, B, eps).

A degree-n chain space has basis tensors with n+1 factors from the A basis
(slots a_0..a_n) and one factor from the B basis for every index pair
(r, s) with 0 <= r < s <= n.  A basis tensor is linearized mixed-radix:
a-digits first (a_0 most significant), then the b-digits in lexicographic
pair order.  The total dimension is dim(A)^(n+1) * dim(B)^(n(n+1)/2).

The boundary is the alternating sum of n+1 face maps.  Face i < n merges
slots i and i+1, multiplying a_i and a_{i+1} through eps of the connecting
b-slot and pairing up the b-slots that used to reach the merged columns.
Face n wraps around, merging slot n into slot 0 the same way.  The cyclic
operator rotates the a-slots one step and reindexes the b-slots
accordingly, with sign (-1)^n; its (n+1)-st power is the identity.

A face copies some input digits to output slots and sends disjoint groups
of the others through a table of the triple's (`triples._tables`): an
`aba` group through the sandwich e_i eps(f_k) e_j, a `bb` group through a
product in B.  So a face is the Cartesian product of its copied digits,
as pairs (input offset, output offset), with the nonzero table entries of
its groups, as items (input offset, output offset, signed coefficient).
Assembly scatters every item once per copy (copies x items terms),
deleting an entry as soon as it cancels, so no column is copied or
repacked afterwards.  The rotation copies every digit.

The cyclic operator t is a signed permutation of the basis: it sends
e_i to (-1)^n e_img(i).  So the coinvariants C_n / (1 - t) have one axis
per orbit whose signs multiply to +1 (Loday, *Cyclic Homology*, 2.1), and
they are kept as a signed class map (`linalg.ClassMapQuotient`), with no
relation row written out.  Each orbit is walked once, from its largest
index m, which becomes its axis: the k-th element after m, img^k(m), maps
to (-1)^(nk) times the class of e_m.  An orbit that comes back to m with
sign -1 is dead: 1 - t is invertible on it, and its elements map to 0.
The map is then checked to kill 1 - t: P (1 - t) e_i = 0 for every
basis index i, P being the projection.  The relations, formed only when
a caller reads them, are e_i minus its sign times e_m, and e_i on a dead
orbit; they already are the canonical RREF of im(1 - t), and the axes
are its non-pivots.

A grading of the triple (`triples.grading`) gives each basis tensor a
weight, the sum of its digits' weights.  Faces multiply within a digit
group and the rotation permutes digits, so both keep the weight.  So the
boundary splits into weight blocks, and `boundary_blocks` assembles one
block at a time, in sub-blocks by the digits of a-slots 0 and 1 as well:
a copy and an item carry disjoint digits, so their keys add up to the
key of the column they scatter into, and sub-block k scatters only the
pairs whose keys sum to k.  A column is whole once its sub-block is, so
a one-entry column x e_r is then kept only as its row r, a unit, and
only the columns with two or more entries are held until the weight
block is read.

The cyclic flavor reads the boundary only on coinvariant coordinates,
and `projected_boundary` scatters the face plans straight onto them: a
term lands at its row's class, times the row's sign and its column's, or
is skipped on a dead class, so no boundary is built for it.  Descent to
the coinvariants is certified where the induced boundary is built, by
`linalg._descended`, class by class.
"""

from __future__ import annotations

from itertools import groupby, zip_longest

from .linalg import ClassMapQuotient, InternalCheckError, SparseMat
from .triples import Triple, _tables, grading, per_triple


def pair_list(n: int) -> list:
    """Index pairs (r, s), 0 <= r < s <= n, in lexicographic order."""
    return [(r, s) for r in range(n + 1) for s in range(r + 1, n + 1)]


def chain_dim(T: Triple, n: int) -> int:
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return T.A.dim ** (n + 1) * T.B.dim ** (n * (n + 1) // 2)


class ChainSpace:
    """Linearization bookkeeping for one degree."""

    def __init__(self, dim_a: int, dim_b: int, degree: int):
        self.degree = degree
        self.dim_a = dim_a
        self.dim_b = dim_b
        self.pairs = pair_list(degree)
        self.radices = [dim_a] * (degree + 1) + [dim_b] * len(self.pairs)
        self.dim = 1
        for r in self.radices:
            self.dim *= r
        self.weights = [0] * len(self.radices)
        w = 1
        for p in range(len(self.radices) - 1, -1, -1):
            self.weights[p] = w
            w *= self.radices[p]

    def linearize(self, a, b=None) -> int:
        """Linear index of a basis tensor.

        `a` lists the a-slot basis indices; `b` maps pairs (r, s) to basis
        indices.  Pairs may be omitted only when dim(B) is 1.
        """
        a = tuple(a)
        if len(a) != self.degree + 1:
            raise ValueError(f"need {self.degree + 1} a-slot indices, got {len(a)}")
        b = dict(b) if b else {}
        unknown = set(b) - set(self.pairs)
        if unknown:
            raise ValueError(f"unexpected b-slot pairs {sorted(unknown)}")
        digits = list(a)
        for pr in self.pairs:
            if pr in b:
                digits.append(b[pr])
            elif self.dim_b == 1:
                digits.append(0)
            else:
                raise ValueError(f"missing b-slot index for pair {pr}")
        ix = 0
        for d, r, w in zip(digits, self.radices, self.weights):
            if not 0 <= d < r:
                raise ValueError(f"basis digit {d} out of range 0..{r - 1}")
            ix += d * w
        return ix

# -- chain spaces, one per triple ------------------------------------------

@per_triple
def chain_space(T: Triple, n: int) -> ChainSpace:
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return ChainSpace(T.A.dim, T.B.dim, n)


# Weight (w_1, ..., w_r) has the key sum_j w_j * _KEY_BASE^j in every
# degree.  Distinct weights get distinct keys while each component stays
# below _KEY_BASE / 2 in absolute value; past that, two weight blocks
# would share a key and be split no further, which costs time only.
_KEY_BASE = 1 << 32


@per_triple
def chain_weights(T: Triple, n: int) -> list:
    """The weight key of every basis tensor in degree n under `grading(T)`:
    the sum of its digits' keys, expanded digit by digit.  All keys are 0
    when the triple's basis carries no grading."""
    cs = chain_space(T, n)
    return _keys_of_digits(cs.radices, _slot_keys(T, n))


def _slot_keys(T: Triple, n: int) -> list:
    """For each slot of a degree-n basis tensor, the weight key under
    `grading(T)` of each basis vector that the slot's digit picks."""
    G = grading(T)
    da = T.A.dim
    keys = [sum(row[v] * _KEY_BASE ** j for j, row in enumerate(G))
            for v in range(da + T.B.dim)]
    return [keys[:da]] * (n + 1) + [keys[da:]] * (n * (n + 1) // 2)


def _keys_of_digits(radices: list, keys: list) -> list:
    """The weight key of every digit string of these radices, numbered
    mixed-radix: the sum of its digits' keys."""
    out = [0]
    for r, digit in zip(radices, keys):
        if r > 1:  # a radix-1 digit is the unit, of weight 0
            out = [x + y for x in out for y in digit]
    return out


# -- face maps -------------------------------------------------------------

def _face_recipe(n: int, i: int) -> list:
    """One op per output slot of face i in degree n.

    Ops refer to input digit positions: a-slot t is position t, b-slot
    (r, s) is position n + 1 + its lexicographic rank.
    """
    bpos = {pr: n + 1 + t for t, pr in enumerate(pair_list(n))}
    recipe = []
    if i < n:
        for t in range(n):
            if t < i:
                recipe.append(("a", t))
            elif t == i:
                recipe.append(("aba", i, bpos[(i, i + 1)], i + 1))
            else:
                recipe.append(("a", t + 1))
        for (r, s) in pair_list(n - 1):
            if s < i:
                recipe.append(("b", bpos[(r, s)]))
            elif r < i and s == i:
                recipe.append(("bb", bpos[(r, i)], bpos[(r, i + 1)]))
            elif r < i:
                recipe.append(("b", bpos[(r, s + 1)]))
            elif r == i:
                recipe.append(("bb", bpos[(i, s + 1)], bpos[(i + 1, s + 1)]))
            else:
                recipe.append(("b", bpos[(r + 1, s + 1)]))
    else:
        recipe.append(("aba", n, bpos[(0, n)], 0))
        for t in range(1, n):
            recipe.append(("a", t))
        for (r, s) in pair_list(n - 1):
            if r == 0:
                recipe.append(("bb", bpos[(s, n)], bpos[(0, s)]))
            else:
                recipe.append(("b", bpos[(r, s)]))
    return recipe


def _face_plans(T: Triple, n: int, faces: list):
    """The copies and items (see the module docstring) of sign * face i
    in degree n, for each (i, sign) in faces in turn."""
    tb = _tables(T)
    src = chain_space(T, n)
    dst_weights = chain_space(T, n - 1).weights
    W = src.weights
    for i, sign in faces:
        copies, items = [(0, 0)], [(0, 0, sign)]
        for op, w in zip(_face_recipe(n, i), dst_weights):
            if op[0] == "aba":
                _, p, q, s = op
                group = [(a * W[p] + k * W[q] + b * W[s], d * w, x)
                         for a, row in enumerate(tb.sandwich)
                         for k, rk in enumerate(row)
                         for b, opts in enumerate(rk) for d, x in opts]
            elif op[0] == "bb":
                _, p, q = op
                group = [(a * W[p] + b * W[q], d * w, x)
                         for a, row in enumerate(tb.bprod)
                         for b, opts in enumerate(row) for d, x in opts]
            else:
                if src.radices[op[1]] > 1:  # a radix-1 digit is always 0
                    copies = [(ci + d * W[op[1]], co + d * w)
                              for ci, co in copies
                              for d in range(src.radices[op[1]])]
                continue
            items = [(pi + qi, po + qo, c * x)
                     for pi, po, c in items for qi, qo, x in group]
        yield copies, items


def _scatter(slots, rows: list, copies: list, items: list) -> None:
    """Add every item, once per copy, into the column dicts `slots` holds
    by input index (None where there is none yet), at the shared row ints
    `rows`, deleting an entry as soon as it cancels."""
    for ci, co in copies:
        for pi, po, c in items:
            col = slots[ci + pi]
            if col is None:
                col = slots[ci + pi] = {}
            r = rows[co + po]
            x = col.get(r, 0) + c
            if x:
                col[r] = x
            else:
                del col[r]


def _face_den(T: Triple, n: int) -> int:
    """The denominator of every face in degree n: each multiplies one
    sandwich and n - 1 products in B."""
    tb = _tables(T)
    return tb.sden * tb.bden ** (n - 1)


def _face_sum(T: Triple, n: int, faces: list) -> SparseMat:
    """The sum of sign * face i over (i, sign) in faces, degree n to n - 1.

    Each entry is an integer over `_face_den`, and the integer columns go
    into the matrix over that denominator as they are.  Each face
    scatters its flat item list once per copy (see the module docstring)
    into one slot per column, indexing one shared int per row:
    O(copies x items).  An entry whose sum cancels to 0 is deleted at
    once, so each column dict is written in that one pass, and the
    non-empty columns are read out in column order.
    """
    src = chain_space(T, n)
    dst = chain_space(T, n - 1)
    slots = [None] * src.dim
    rows = list(range(dst.dim))  # one int object per row, for all columns
    for copies, items in _face_plans(T, n, faces):
        _scatter(slots, rows, copies, items)
    return SparseMat.from_ints(
        dst.dim, src.dim, {c: col for c, col in enumerate(slots) if col},
        _face_den(T, n))


def _projected_scatter(slots, coord: list, sign: list, src_sign: list,
                       copies: list, items: list) -> None:
    """`_scatter` onto quotient coordinates: a term (input i, row r,
    coefficient c) adds c sign[r] src_sign[i] at coordinate coord[r] of
    column i, and is skipped when r is on a dead class (coord[r] None).
    A cancelled entry is deleted at once, and a column left empty is
    set back to None."""
    for ci, co in copies:
        for pi, po, c in items:
            r = co + po
            j = coord[r]
            if j is None:
                continue
            i = ci + pi
            col = slots[i]
            if col is None:
                col = slots[i] = {}
            x = col.get(j, 0) + c * sign[r] * src_sign[i]
            if x:
                col[j] = x
            else:
                del col[j]
                if not col:
                    slots[i] = None


def _alternating(n: int) -> list:
    """The faces of the boundary in degree n, as (i, sign)."""
    return [(i, 1 if i % 2 == 0 else -1) for i in range(n + 1)]


@per_triple
def boundary(T: Triple, n: int) -> SparseMat:
    """Alternating sum of the faces; degree 0 gets the zero map."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n == 0:
        return SparseMat.zeros(0, chain_space(T, 0).dim)
    return _face_sum(T, n, _alternating(n))


class _BlockSlots(dict):
    """The column dicts of one sub-block by input index, for `_scatter`:
    an index with no column yet reads None."""

    __slots__ = ()

    def __missing__(self, c):
        return None


def boundary_blocks(T: Triple, n: int):
    """The nonzero columns of boundary(T, n), one weight block at a time.

    Yields (w, units, cols) for every weight key w that a nonzero column
    has, in increasing order.  A column c of weight w (its key
    `chain_weights(T, n)[c]`) with one entry, x e_r, only puts r in the
    set `units`; cols maps each column c of weight w with two or more
    entries to its integer numerators over `_face_den(T, n)`, not brought
    to lowest terms.

    Each face's copies are grouped by the sub-block key of the digits they
    carry and its items by that of the other digits, so sub-block k
    scatters only the pairs whose keys sum to k, and each term is
    scattered once over all sub-blocks, as in `boundary`.  The sub-block
    key of a tensor of weight key w whose a-slots 0 and 1 hold d_0 and
    d_1 is w dim(A)^2 + d_0 + dim(A) d_1: a sum over the digits, read off
    the offsets of the copies and items, so no per-tensor key list is
    built.  A column is whole once its sub-block is scattered: its units
    are then kept as rows, its cancelled columns dropped, and the rest
    kept until the weight block is yielded, the sub-blocks' columns taken
    in turn.  Nothing is memoized: a block is garbage once its reader
    drops it.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n == 0:
        return
    src = chain_space(T, n)
    # The key of input index x is high[x // M] + low[x % M], from two
    # tables over the high and the low half of the digits.  A copy and an
    # item have disjoint digits, so their keys, each read with the other
    # digits at 0, sum to that of the tensor they make plus that of 0.
    da = T.A.dim
    keys = [[k * da * da for k in slot] for slot in _slot_keys(T, n)]
    keys[0] = [k + d for d, k in enumerate(keys[0])]
    keys[1] = [k + da * d for d, k in enumerate(keys[1])]
    h = len(src.radices) // 2
    M = src.weights[h - 1]
    high = _keys_of_digits(src.radices[:h], keys[:h])
    low = _keys_of_digits(src.radices[h:], keys[h:])

    def by_key(terms: list, base: int) -> dict:
        out: dict = {}
        for t in terms:
            x = t[0]
            out.setdefault(high[x // M] + low[x % M] - base, []).append(t)
        return out

    plans = [(by_key(copies, 0), by_key(items, high[0] + low[0]))
             for copies, items in _face_plans(T, n, _alternating(n))]
    rows = list(range(chain_space(T, n - 1).dim))
    sub_keys = sorted({kc + ki for cg, ig in plans for kc in cg for ki in ig})
    for w, block_keys in groupby(sub_keys, lambda k: k // (da * da)):
        units, parts = set(), []
        for k in block_keys:
            slots = _BlockSlots()
            for copies_by_key, items_by_key in plans:
                for kc, copies in copies_by_key.items():
                    items = items_by_key.get(k - kc)
                    if items:
                        _scatter(slots, rows, copies, items)
            if k == sub_keys[-1]:
                plans = copies = items = None  # free them for the last block
            part = {}
            for c, col in slots.items():
                if len(col) > 1:
                    part[c] = col
                elif col:
                    units.update(col)
            del slots
            if part:
                parts.append(part.items())
        if units or parts:
            # The sub-blocks' columns in turn: a dense block's span fills
            # up sooner than when it reads one sub-block after another.
            cols = {c: col for group in zip_longest(*parts)
                    for c, col in filter(None, group)}
            del parts, part
            yield w, units, cols
            del cols


# -- cyclic structure ------------------------------------------------------

def _rotation(T: Triple, n: int) -> list:
    """The rotation in degree n as a list img: basis tensor c goes to
    (-1)^n times basis tensor img[c]."""
    cs = chain_space(T, n)
    bpos = {pr: t for t, pr in enumerate(cs.pairs)}
    na = n + 1
    # The weight of the output digit that each input digit moves to.
    out_w = [cs.weights[(t + 1) % na] for t in range(na)]
    out_w += [cs.weights[na + bpos[(r + 1, s + 1) if s < n else (0, r + 1)]]
              for r, s in cs.pairs]
    img = [0]
    for r, w in zip(cs.radices, out_w):
        if r > 1:  # a radix-1 digit is always 0
            img = [x + d * w for x in img for d in range(r)]
    return img


def _orbit_classes(img: list, rot_sign: int) -> tuple:
    """The signed class map of the coinvariants, as (axis, sign) for
    `linalg.ClassMapQuotient`, of the rotation e_i -> rot_sign e_img[i]
    (see the module docstring)."""
    axis = [None] * len(img)
    sign = [0] * len(img)
    seen = bytearray(len(img))
    for m in range(len(img) - 1, -1, -1):
        if seen[m]:
            continue
        orbit = []
        i = m
        while not seen[i]:
            seen[i] = 1
            orbit.append(i)
            i = img[i]
        if rot_sign ** len(orbit) > 0:  # the orbit is live
            for k, i in enumerate(orbit):
                axis[i] = m
                sign[i] = rot_sign ** k
    return axis, sign


@per_triple
def cyclic_quotient(T: Triple, n: int) -> ClassMapQuotient:
    """The cyclic coinvariants C_n / (1 - t) in degree n, as a signed class
    map.  P (1 - t) = 0 is checked on every basis index, P being the
    projection; the boundary's descent is certified in
    `homology._induced_boundary`."""
    img = _rotation(T, n)
    rot_sign = 1 if n % 2 == 0 else -1
    axis, sign = _orbit_classes(img, rot_sign)
    # P (1 - t) e_i is sign[i] times the class of e_axis[i] minus
    # rot_sign * sign[k] times the class of e_axis[k], k = img[i].
    if ([axis[k] for k in img] != axis
            or [rot_sign * sign[k] for k in img] != sign):
        raise InternalCheckError(
            "the coinvariant class map does not kill 1 - t")
    return ClassMapQuotient(axis, sign)


def projected_boundary(T: Triple, n: int, src: ClassMapQuotient,
                       dst: ClassMapQuotient) -> list:
    """P boundary(T, n) on every input index, P being dst's projection,
    in integers over `_face_den(T, n)`: the column of index c is
    sign[c] P d e_c, src's sign (P d e_c on a dead class), as a column
    dict on dst's quotient coordinates, or None where it is zero.

    This is `linalg._descended`'s input, scattered straight from the face
    plans with the signs folded into each term, so the boundary itself is
    never built.
    """
    src_sign = [s or 1 for s in src.sign]
    slots = [None] * chain_space(T, n).dim
    for copies, items in _face_plans(T, n, _alternating(n)):
        _projected_scatter(slots, dst._coord, dst.sign, src_sign, copies,
                           items)
    return slots
