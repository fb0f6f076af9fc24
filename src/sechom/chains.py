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
of the others through a table: an `aba` group through the sandwich
e_i eps(f_k) e_j, made from A's table and eps, a `bb` group through a
product in B.  So a face is the Cartesian product of its copied digits,
as pairs (input offset, output offset), with the nonzero table entries of
its groups, as items (input offset, output offset, signed coefficient).
Assembly scatters every item once per copy (copies x items terms) and
repacks each column once after the last face.  The rotation copies every
digit.

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
group and the rotation permutes digits, so both keep the weight.

Descent of the boundary to the coinvariants is certified where the
induced boundary is built, by `linalg.induced_on_quotients`, orbit by
orbit.
"""

from __future__ import annotations

from .algebra import _int_product, _int_table
from .linalg import (ClassMapQuotient, InternalCheckError, SparseMat,
                     _integer_supports)
from .triples import Triple, grading, per_triple


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

# -- product tables and chain spaces, one per triple -----------------------

class _Tables:
    """The product tables of one triple, shared by its faces in every degree
    and by the degree-one layer.

    They hold integer supports over one denominator per table: `bden` for
    products in B, `aden` for products in A, `lden` for the units `aunit`,
    `bunit` and the columns `eps` of eps, and `sden` = aden^2 lden for the
    sandwiches e_i eps(f_k) e_j, two products through A's table.  `sden`
    need not be least: `SparseMat.from_ints` and `Subspace` normalise.
    """

    def __init__(self, T: Triple):
        self.bden, self.bprod = _int_table(T.B)
        self.aden, self.aprod = _int_table(T.A)
        self.lden, (self.aunit, self.bunit, *self.eps) = _integer_supports(
            [T.A.unit, T.B.unit, *T.eps.columns])
        self.sden = self.aden ** 2 * self.lden
        a, e = self.aprod, [((i, 1),) for i in range(T.A.dim)]
        self.sandwich = [[[_int_product(a, _int_product(a, e_i, f), e_j)
                           for e_j in e] for f in self.eps] for e_i in e]


_tables = per_triple(_Tables)


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
    G = grading(T)
    da = T.A.dim
    keys = [sum(row[v] * _KEY_BASE ** j for j, row in enumerate(G))
            for v in range(da + T.B.dim)]
    cs = chain_space(T, n)
    digits = [keys[:da]] * (n + 1) + [keys[da:]] * len(cs.pairs)
    out = [0]
    for r, digit in zip(cs.radices, digits):
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


def _face_sum(T: Triple, n: int, faces: list) -> SparseMat:
    """The sum of sign * face i over (i, sign) in faces, degree n to n - 1.

    Every face in degree n multiplies one sandwich and n - 1 products in B,
    so each entry is an integer over sden * bden^(n - 1), and the integer
    columns go into the matrix over that denominator as they are.  Each
    face scatters its flat item list once per copy (see the module
    docstring) into one slot per column, indexing one shared int per row:
    O(copies x items).  Every column is then repacked into a fresh dict
    without its cancelled zeros, and read out in column order.
    """
    tb = _tables(T)
    src = chain_space(T, n)
    dst = chain_space(T, n - 1)
    den = tb.sden * tb.bden ** (n - 1)
    W = src.weights
    slots = [None] * src.dim
    rows = list(range(dst.dim))  # one int object per row, for all columns
    for i, sign in faces:
        copies, items = [(0, 0)], [(0, 0, sign)]
        for op, w in zip(_face_recipe(n, i), dst.weights):
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
        for ci, co in copies:
            for pi, po, c in items:
                col = slots[ci + pi]
                if col is None:
                    col = slots[ci + pi] = {}
                r = rows[co + po]
                col[r] = col.get(r, 0) + c
    for c, col in enumerate(slots):  # fresh, packed dicts keep peak RSS down
        if col:
            slots[c] = {r: x for r, x in col.items() if x}
    return SparseMat.from_ints(
        dst.dim, src.dim, {c: col for c, col in enumerate(slots) if col}, den)


@per_triple
def boundary(T: Triple, n: int) -> SparseMat:
    """Alternating sum of the faces; degree 0 gets the zero map."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n == 0:
        return SparseMat.zeros(0, chain_space(T, 0).dim)
    return _face_sum(T, n, [(i, 1 if i % 2 == 0 else -1)
                            for i in range(n + 1)])


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
