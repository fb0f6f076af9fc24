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
product in B.  So a face is the Cartesian product of its copied digits
with the nonzero table entries of its groups.  It is held as copies,
pairs (input offset, output offset), and items, triples (input offset,
output offset, signed coefficient).  The items start as the groups'
entries; a copied digit of radix r is then folded into them, in slot
order, while the items times r^2 stay within the copies left, and the
other copied digits make the copies.  There are copies x items terms
however the digits are split, and two balanced factors hold about twice
their square root: on trunc3_k in degree 7 a face holds 54 items and 81
copies, not 6 and 729.  Assembly scatters every item once per copy,
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
block at a time, in sub-blocks by the digits of the first half of the
a-slots as well.  Copies and items alike are keyed by their input
offsets, and a copy c and an item i carry disjoint digits, so key(c) +
key(i) = key(c + i) + key(0): with key(0) taken off the copies' keys,
sub-block k scatters only the pairs whose keys sum to k.  A column is
whole once its sub-block is, so each sub-block is yielded as a part of
its weight block as soon as it is scattered, a one-entry column x e_r
kept only as its row r, a unit, and nothing is held from one part to
the next.  A key that is a sum over the digits is read off two tables
(`_split_keys`), over the first and the second half of the digits of
radix above 1, each about the square root of the chain dimension long.

The cyclic flavor reads the boundary only on coinvariant coordinates,
and `projected_boundary` scatters the face plans straight onto them: a
term lands at its row's class, times the row's sign and its column's, or
is skipped on a dead class, so no boundary is built for it.  Descent to
the coinvariants is certified where the induced boundary is built, by
`linalg._descends`, class by class.

The rotation only permutes slots, so it keeps a tensor's content: the
multiset of its a-digits and that of its b-digits.  So every orbit lies
in one content block, the tensors of one content.  A tensor's content
key sums P^v over its a-digits v and P^(dim A + v) over its b-digits v;
P exceeds the number of slots of either kind, so the key tells contents
apart.  `_content_keys` adds it to the weight key times a base above
every content key, so that one key, a sum over the digits, gives both
the block and its weight.  Every digit, 0 included, has a nonzero
content key, so here key(0) is not 0.
`projected_boundary_blocks` reads the induced boundary of the top degree
one content block at a time, so that neither that degree's class map nor
a column per index is ever held whole: it lists the block's tensors from
the two key tables, walks their orbits (`_orbit_blocks`), scatters the
face plans whose keys add up to the block's, checks descent on every
index of the block, and keeps only its axis columns, yielded by weight
as `boundary_blocks` yields its blocks.
"""

from __future__ import annotations

from itertools import groupby
from math import prod

from .linalg import (ClassMapQuotient, InternalCheckError, SparseMat,
                     _descends)
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
    """The key of every digit string of these radices, numbered
    mixed-radix: the sum of its digits' keys."""
    out = [0]
    for r, digit in zip(radices, keys):
        if r > 1:  # a radix-1 digit is the unit, of weight 0
            out = [x + y for x in out for y in digit]
    return out


def _split_keys(radices: list, keys: list) -> tuple:
    """(M, high, low): the key of digit string x (`_keys_of_digits`) is
    high[x // M] + low[x % M], high and low being the keys of the digits
    before and from position h, which splits the digits of radix above 1
    in half, so that neither table is much longer than the square root
    of the number of strings."""
    big = [p for p, r in enumerate(radices) if r > 1]
    h = big[len(big) // 2] if big else len(radices)
    return (prod(radices[h:]), _keys_of_digits(radices[:h], keys[:h]),
            _keys_of_digits(radices[h:], keys[h:]))


def _plans_by_key(T: Triple, n: int, keys: list) -> dict:
    """The face plans of boundary(T, n) by the key under the slot keys
    `keys` (a sum over the digits) of the input indices they scatter: key
    k maps to the (copies, items) pairs, face by face, that scatter into
    the tensors of key k.

    Copies and items alike are filed by the key of their input offset,
    its other digits read as 0.  A copy and an item carry disjoint
    digits, so their keys add up to the key of the tensor they make plus
    the key of index 0, which is taken off the copies' keys.  Every
    face's plan is held for as long as the map is: 8 x (54 items + 81
    copies) on trunc3_k in degree 7, 6 x (32 + 64) on mat2_k in degree
    5."""
    M, high, low = _split_keys(chain_space(T, n).radices, keys)
    zero = high[0] + low[0]
    work: dict = {}
    for copies, items in _face_plans(T, n, _alternating(n)):
        filed = ({}, {})  # the copies and the items by key
        for plan, by_key, k0 in zip((copies, items), filed, (zero, 0)):
            for t in plan:
                x = t[0]
                by_key.setdefault(high[x // M] + low[x % M] - k0, []).append(t)
        for kc, group_c in filed[0].items():
            for ki, group_i in filed[1].items():
                work.setdefault(kc + ki, []).append((group_c, group_i))
    return work


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
    in degree n, for each (i, sign) in faces in turn.

    The items are the groups' entries with copied digits of radix r
    folded in, in slot order, for as long as len(items) r^2 is at most
    the number of copies left; the copies expand the rest.  So the items
    never outnumber the copies unless the groups' entries alone do, as
    on dual_dual_x (36 items and 8 copies in degree 3).  A plan carries
    no keys: `_plans_by_key` reads those off the input offsets.
    """
    tb = _tables(T)
    src = chain_space(T, n)
    dst_weights = chain_space(T, n - 1).weights
    W = src.weights
    for i, sign in faces:
        items, copied, left = [(0, 0, sign)], [], 1
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
                r = src.radices[op[1]]
                if r > 1:  # a radix-1 digit is always 0
                    copied.append((op[1], r, w))
                    left *= r
                continue
            items = [(pi + qi, po + qo, c * x)
                     for pi, po, c in items for qi, qo, x in group]
        while copied and len(items) * copied[0][1] ** 2 <= left:
            p, r, w = copied.pop(0)
            items = [(pi + d * W[p], po + d * w, c)
                     for pi, po, c in items for d in range(r)]
            left //= r
        copies = [(0, 0)]
        for p, r, w in copied:
            copies = [(ci + d * W[p], co + d * w) for ci, co in copies
                      for d in range(r)]
        yield copies, items


def _scatter(slots, rows: list, copies: list, items: list) -> None:
    """Add every item, once per copy, into the column dicts that `slots`
    holds by input index, at the shared row ints `rows`, deleting an
    entry as soon as it cancels.  `slots` is a dict of the columns
    scattered so far, or a list with None at every other index, which
    indexes faster when it spans the whole degree.  Copies run outside
    and items inside, which fixes the order of each column's entries."""
    get = slots.get if type(slots) is dict else slots.__getitem__
    for ci, co in copies:
        for pi, po, c in items:
            col = get(ci + pi)
            if col is None:
                col = slots[ci + pi] = {}
            r = rows[co + po]
            if r not in col:
                col[r] = c
            else:
                x = col[r] + c
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
                       plans) -> None:
    """`_scatter` onto quotient coordinates, for each (copies, items) pair
    of plans: a term (input i, row r, coefficient c) adds c sign[r]
    src_sign[i] at coordinate coord[r] of column i, and is skipped when r
    is on a dead class (coord[r] None).  A cancelled entry is deleted at
    once, and a column left empty is set back to None."""
    for copies, items in plans:
        for pi, po, c in items:
            for ci, co in copies:
                r = co + po
                j = coord[r]
                if j is None:
                    continue
                i = ci + pi
                col = slots[i]
                x = c * sign[r] * src_sign[i]
                if col is None:
                    slots[i] = {j: x}
                elif j not in col:
                    col[j] = x
                else:
                    x += col[j]
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


def boundary_blocks(T: Triple, n: int):
    """The nonzero columns of boundary(T, n), in parts by weight.

    Yields parts (w, units, cols), one per sub-block that has a nonzero
    column, w being the weight key of its columns (`chain_weights(T,
    n)[c]`), in nondecreasing order: the parts of one weight come in a
    row, and each nonzero column is in exactly one part.  A column x e_r
    with one entry only puts r in the set `units`; cols maps each column
    c with two or more entries to its integer numerators over
    `_face_den(T, n)`, not brought to lowest terms.

    Each face's copies and items are filed by the sub-block key of their
    input offsets (`_plans_by_key`), so sub-block k scatters only the
    pairs whose keys sum to k, and each term is scattered once over all
    sub-blocks, as in `boundary`.  The sub-block key of a tensor of
    weight key w whose first s = ceil((n + 1) / 2) a-slots hold d_0, ...,
    d_(s-1) is w dim(A)^s + sum_j d_j dim(A)^j, a sum over the digits, so
    no per-tensor key list is built.  A column is whole once its
    sub-block is scattered, so the part is yielded then, its cancelled
    columns dropped, and nothing is held from one part to the next: a
    part is garbage once its reader drops it.  Half the a-slots keep the
    parts small in the top degrees, where a weight block holds 10^5
    columns; every a-slot would cut degree 3 into parts so small that
    their number costs more than their size saves.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n == 0:
        return
    da = T.A.dim
    s = (n + 2) // 2  # ceil((n + 1) / 2) a-slots
    base = da ** s
    keys = [[k * base for k in slot] for slot in _slot_keys(T, n)]
    for j in range(s):
        keys[j] = [k + d * da ** j for d, k in enumerate(keys[j])]
    work = _plans_by_key(T, n, keys)
    rows = list(range(chain_space(T, n - 1).dim))
    for k in sorted(work):
        slots: dict = {}
        for copies, items in work.pop(k):  # freed once scattered
            _scatter(slots, rows, copies, items)
        units, cols = set(), {}
        for c, col in slots.items():
            if len(col) > 1:
                cols[c] = col
            elif col:
                units.update(col)
        del slots
        if units or cols:
            yield k // base, units, cols
            del units, cols


# -- cyclic structure ------------------------------------------------------

def _rotation_keys(T: Triple, n: int) -> list:
    """For each slot of a degree-n basis tensor, the offset in the rotated
    tensor's index of each digit the slot holds: the rotation sends index
    x to the sum of its digits' offsets (`_keys_of_digits`)."""
    cs = chain_space(T, n)
    bpos = {pr: t for t, pr in enumerate(cs.pairs)}
    na = n + 1
    # The weight of the output digit that each input digit moves to.
    out_w = [cs.weights[(t + 1) % na] for t in range(na)]
    out_w += [cs.weights[na + bpos[(r + 1, s + 1) if s < n else (0, r + 1)]]
              for r, s in cs.pairs]
    return [[d * w for d in range(r)] for r, w in zip(cs.radices, out_w)]


def _rotation(T: Triple, n: int) -> list:
    """The rotation in degree n as a list img: basis tensor c goes to
    (-1)^n times basis tensor img[c]."""
    return _keys_of_digits(chain_space(T, n).radices, _rotation_keys(T, n))


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


def _content_keys(T: Triple, n: int) -> tuple:
    """(keys, Q): for each slot of a degree-n basis tensor, the key of
    each digit, its weight key (`_slot_keys`) times Q plus its content
    key: P^v for a-digit v and P^(dim A + v) for b-digit v, P being above
    the number of slots of either kind.  So a tensor's key, the sum over
    its digits, gives its weight key w (key // Q) and the multisets of
    its a-digits and b-digits, which the rotation keeps."""
    da = T.A.dim
    P = max(n + 1, n * (n + 1) // 2) + 1
    Q = P ** (da + T.B.dim)
    slots = _slot_keys(T, n)
    a = [w * Q + P ** v for v, w in enumerate(slots[0])]
    b = [w * Q + P ** (da + v) for v, w in enumerate(slots[-1])]
    return [a] * (n + 1) + [b] * (len(slots) - n - 1), Q


def _orbit_blocks(T: Triple, n: int, keys: list, signs: list):
    """The class map of the degree-n coinvariants, one content block at a
    time.

    A content block holds the basis tensors of one key k under the slot
    keys `keys` (`_content_keys`).  Yields (k, idx, axis) for each k in
    increasing order: idx lists the block's tensors orbit by orbit, and
    tensor idx[p] goes to signs[idx[p]] times the class of tensor
    idx[axis[p]], or to 0 when axis[p] is None, as in `cyclic_quotient`.
    Each sign is written to `signs`, and is +-1 on a dead orbit too.

    The tensors of key k are the pairs of a high and a low half of the
    digits (`_split_keys`) whose keys sum to k, and the rotation of a
    tensor is read off two half tables as well.  Each orbit is walked
    from its largest tensor, its axis, as in `_orbit_classes`.  So P (1 -
    t) e_i = 0 for each tensor i of the orbit once the rotation takes its
    last tensor back to the axis, which is checked, and the block's
    orbits must hold all of its tensors and no others: a failure of
    either is a hard error.
    """
    cs = chain_space(T, n)
    M, high, low = _split_keys(cs.radices, keys)
    _, img_high, img_low = _split_keys(cs.radices, _rotation_keys(T, n))
    halves = []  # per half: key -> its index offsets
    for table, scale in ((high, M), (low, 1)):
        group: dict = {}
        for x, key in enumerate(table):
            group.setdefault(key, []).append(x * scale)
        halves.append(group)
    pairs: dict = {}  # key -> the pairs of halves of its tensors
    for kh, hs in halves[0].items():
        for kl, xs in halves[1].items():
            pairs.setdefault(kh + kl, []).append((hs, xs))
    rot_sign = 1 if n % 2 == 0 else -1
    seen = bytearray(cs.dim)
    for k in sorted(pairs):
        tensors = [h + x for hs, xs in pairs.pop(k) for h in hs for x in xs]
        tensors.sort(reverse=True)
        idx, axis = [], []
        for m in tensors:
            if seen[m]:
                continue
            p, s, i = len(idx), 1, m
            while not seen[i]:
                seen[i] = 1
                idx.append(i)
                axis.append(p)
                signs[i] = s
                s *= rot_sign
                i = img_high[i // M] + img_low[i % M]
            if i != m:
                raise InternalCheckError(
                    "the coinvariant class map does not kill 1 - t")
            if s < 0:  # the orbit is dead
                axis[p:] = [None] * (len(idx) - p)
        if len(idx) != len(tensors):
            raise InternalCheckError("the rotation moves a basis tensor "
                                     "out of its content block")
        yield k, idx, axis


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
    _projected_scatter(slots, dst._coord, dst.sign, src_sign,
                       _face_plans(T, n, _alternating(n)))
    return slots


def projected_boundary_blocks(T: Triple, n: int, dst: ClassMapQuotient):
    """The induced boundary of degree n on the coinvariants, P
    boundary(T, n) on the axes of the degree-n class map, P being dst's
    projection, one weight block at a time, in integers over
    `_face_den(T, n)`; neither the degree-n class map nor its columns are
    ever held whole.

    Yields one part (w, units, cols), shaped as `boundary_blocks`'s, for
    every weight key w that a nonzero column has, in increasing order, a
    column being read off the axis m of its orbit: a column x e_r puts
    its coordinate r in units, and cols maps m to each column with two
    or more entries.
    The face plans (`_plans_by_key`) of each block of `_orbit_blocks` are
    scattered onto dst's coordinates, its columns signed as
    `projected_boundary`'s, and the descent check of `linalg._descends`
    runs on every index of the block before its axis columns are kept.
    """
    if n < 1:
        raise ValueError("degree must be positive")
    keys, Q = _content_keys(T, n)
    work = _plans_by_key(T, n, keys)
    coord, sign = dst._coord, dst.sign
    dim = chain_space(T, n).dim
    # By input index: the columns of the block being read, and the signs.
    slots, signs = [None] * dim, [1] * dim
    for w, blocks in groupby(_orbit_blocks(T, n, keys, signs),
                             lambda b: b[0] // Q):
        units, cols = set(), {}
        for k, idx, axis in blocks:
            _projected_scatter(slots, coord, sign, signs, work.pop(k, ()))
            F = [slots[i] for i in idx]
            for i in idx:
                slots[i] = None
            _descends(F, axis)
            for m in [m for m, a in enumerate(axis) if a == m and F[m]]:
                if len(F[m]) > 1:
                    cols[idx[m]] = F[m]
                else:
                    units.update(F[m])
        if units or cols:
            yield w, units, cols
            del cols
