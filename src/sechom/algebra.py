"""Finite-dimensional unital algebras over Q given by structure constants.

An algebra of dimension d is stored as a table c with
``e_i * e_j = sum_k c[i][j][k] e_k`` together with the coordinates of the
unit.  Validation reports witnesses instead of raising, so callers can
decide how to surface a failure.  The engine reads tables only through
`_int_table`, a triple's once (`triples._tables`), and multiplies only
through `_int_product`; `multiply` serves the public API and
`kernel.j_generator`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from .linalg import ZERO, ONE, _integer_supports, _summed


def _vec(coords) -> list:
    """Dense Fraction coordinates of an algebra element; entries that
    already are Fractions are kept as they are.

    A sparse dict is refused: iterating one reads its keys, not its
    entries, so it would be taken silently for a different vector.
    """
    if isinstance(coords, dict):
        raise TypeError("algebra elements are dense coordinate lists, "
                        "not sparse dicts")
    return [x if type(x) is Fraction else Fraction(x) for x in coords]


class FinAlgebra:
    def __init__(self, dim: int, mult: list, unit: list, name: str = ""):
        # mult[i][j] is the coordinate list of e_i * e_j
        self.dim, self.name = dim, name
        if len(mult) != dim or any(len(row) != dim for row in mult):
            raise ValueError("structure constant table has wrong shape")
        self.mult = [[_vec(mult[i][j]) for j in range(dim)]
                     for i in range(dim)]
        for i in range(dim):
            for j in range(dim):
                if len(self.mult[i][j]) != dim:
                    raise ValueError("structure constant table has wrong shape")
        self.unit = _vec(unit)
        if len(self.unit) != dim:
            raise ValueError("unit has wrong length")

    @classmethod
    def from_structure_constants(cls, dim: int, entries: dict, unit,
                                 name: str = "") -> "FinAlgebra":
        """Build from a sparse table {(i, j, k): value}."""
        mult = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j, k), x in entries.items():
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValueError(f"structure constant index {(i, j, k)} out of range")
            mult[i][j][k] = Fraction(x)
        return cls(dim, mult, unit, name)


class AlgebraReport:
    """Outcome of validate_algebra; witnesses are basis indices."""

    def __init__(self, associative: bool, assoc_witness: tuple | None = None,
                 unital: bool = True, unit_witness: int | None = None,
                 commutative: bool = True, comm_witness: tuple | None = None):
        self.associative, self.assoc_witness = associative, assoc_witness
        self.unital, self.unit_witness = unital, unit_witness
        self.commutative, self.comm_witness = commutative, comm_witness

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.associative, self.assoc_witness, self.unital,
                 self.unit_witness, self.commutative, self.comm_witness)
                == (other.associative, other.assoc_witness, other.unital,
                    other.unit_witness, other.commutative, other.comm_witness))

    @property
    def valid(self) -> bool:
        return self.associative and self.unital


def multiply(A: FinAlgebra, x, y) -> list:
    """Product of two coordinate vectors."""
    x, y = _vec(x), _vec(y)
    if len(x) != A.dim or len(y) != A.dim:
        raise ValueError(f"coordinate vectors must have length {A.dim}")
    out = [ZERO] * A.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = xi * yj
            for k, ck in enumerate(A.mult[i][j]):
                if ck:
                    out[k] += c * ck
    return out


def _int_table(A: FinAlgebra) -> tuple:
    """(den, prod): prod[i][j] is e_i e_j as an integer support over den."""
    den, flat = _integer_supports([v for row in A.mult for v in row])
    return den, [flat[i * A.dim:(i + 1) * A.dim] for i in range(A.dim)]


def _int_product(prod: list, x, y) -> dict:
    """x y for supports x and y, through the table prod of `_int_table`,
    as a sparse dict over den times their dens."""
    return _summed((k, a * b * c) for i, a in x for j, b in y
                   for k, c in prod[i][j])


def _validated(den: int, prod: list, uden: int, unit) -> AlgebraReport:
    """`validate_algebra` on a table already read: prod over den from
    `_int_table`, and the unit's support over uden."""
    d = len(prod)
    e = [((i, 1),) for i in range(d)]
    report = AlgebraReport(associative=True)
    for i, j, k in product(range(d), repeat=3):
        if (_int_product(prod, prod[i][j], e[k])
                != _int_product(prod, e[i], prod[j][k])):
            report.associative = False
            report.assoc_witness = (i, j, k)
            break
    for i in range(d):
        if not (_int_product(prod, unit, e[i]) == _int_product(prod, e[i], unit)
                == {i: den * uden}):
            report.unital = False
            report.unit_witness = i
            break
    for i, j in combinations(range(d), 2):
        if prod[i][j] != prod[j][i]:
            report.commutative = False
            report.comm_witness = (i, j)
            break
    return report


def validate_algebra(A: FinAlgebra) -> AlgebraReport:
    """Check associativity, two-sidedness of the unit, and commutativity.

    The first failing basis triple (resp. index, pair) is recorded as a
    witness.  Commutativity is reported but does not affect validity.
    """
    den, prod = _int_table(A)
    uden, (unit,) = _integer_supports([A.unit])
    return _validated(den, prod, uden, unit)


def _central(prod: list, s) -> bool:
    """Whether the support s commutes with every basis vector through prod."""
    return all(_int_product(prod, s, e) == _int_product(prod, e, s)
               for e in (((i, 1),) for i in range(len(prod))))


def is_central(A: FinAlgebra, v) -> bool:
    v = _vec(v)
    if len(v) != A.dim:
        raise ValueError(f"coordinate vectors must have length {A.dim}")
    return _central(_int_table(A)[1], _integer_supports([v])[1][0])


def tensor_algebra(A: FinAlgebra, B: FinAlgebra, name: str = "") -> FinAlgebra:
    """Tensor product algebra with componentwise multiplication.

    Basis index (i, j) is linearized as i * B.dim + j.
    """
    dim = A.dim * B.dim
    entries: dict = {}
    for i1 in range(A.dim):
        for j1 in range(B.dim):
            for i2 in range(A.dim):
                for j2 in range(B.dim):
                    row = i1 * B.dim + j1
                    col = i2 * B.dim + j2
                    pa = A.mult[i1][i2]
                    pb = B.mult[j1][j2]
                    for k1, xa in enumerate(pa):
                        if not xa:
                            continue
                        for k2, xb in enumerate(pb):
                            if xb:
                                entries[(row, col, k1 * B.dim + k2)] = xa * xb
    unit = [ZERO] * dim
    for i, xa in enumerate(A.unit):
        for j, xb in enumerate(B.unit):
            unit[i * B.dim + j] = xa * xb
    label = name or (f"{A.name}(x){B.name}" if A.name and B.name else "")
    return FinAlgebra.from_structure_constants(dim, entries, unit, label)


class AlgMorphism:
    """Unital algebra map given by the images of the source basis."""

    def __init__(self, source: FinAlgebra, target: FinAlgebra, columns: list,
                 name: str = ""):
        # columns[j] is the image of source basis vector j
        self.source, self.target, self.name = source, target, name
        if len(columns) != source.dim:
            raise ValueError("morphism needs one column per source basis vector")
        self.columns = [_vec(c) for c in columns]
        for c in self.columns:
            if len(c) != target.dim:
                raise ValueError("morphism column has wrong length")

    def apply(self, v) -> list:
        v = _vec(v)
        if len(v) != self.source.dim:
            raise ValueError(f"expected a vector of length {self.source.dim}")
        out = [ZERO] * self.target.dim
        for j, x in enumerate(v):
            if x:
                for k, y in enumerate(self.columns[j]):
                    if y:
                        out[k] += x * y
        return out


# -- reusable constructions ------------------------------------------------

def field_algebra(name: str = "Q") -> FinAlgebra:
    return FinAlgebra(1, [[[ONE]]], [ONE], name)


def truncated_polynomial_algebra(order: int, name: str = "") -> FinAlgebra:
    """Q[x] / (x^order) with basis 1, x, ..., x^(order-1)."""
    if order < 1:
        raise ValueError("order must be at least 1")
    entries = {}
    for i in range(order):
        for j in range(order):
            if i + j < order:
                entries[(i, j, i + j)] = ONE
    unit = [ONE] + [ZERO] * (order - 1)
    return FinAlgebra.from_structure_constants(
        order, entries, unit, name or f"Q[x]/x^{order}")


def split_product_algebra(copies: int, name: str = "") -> FinAlgebra:
    """Q x ... x Q with componentwise multiplication."""
    if copies < 1:
        raise ValueError("need at least one factor")
    entries = {(i, i, i): ONE for i in range(copies)}
    unit = [ONE] * copies
    return FinAlgebra.from_structure_constants(
        copies, entries, unit, name or f"Q^{copies}")


def matrix_algebra(size: int, name: str = "") -> FinAlgebra:
    """Full matrix algebra; basis E_{rc} linearized as r * size + c."""
    if size < 1:
        raise ValueError("size must be at least 1")
    entries = {}
    for r1 in range(size):
        for c1 in range(size):
            for r2 in range(size):
                for c2 in range(size):
                    if c1 == r2:
                        entries[(r1 * size + c1, r2 * size + c2,
                                 r1 * size + c2)] = ONE
    unit = [ZERO] * (size * size)
    for r in range(size):
        unit[r * size + r] = ONE
    return FinAlgebra.from_structure_constants(
        size * size, entries, unit, name or f"M{size}(Q)")
