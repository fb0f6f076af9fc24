"""Line-based text format for describing a triple.

A file is a sequence of whitespace-separated directives; `#` starts a
comment and blank lines are skipped:

    name <identifier>              optional
    max_degree <int>               optional
    algebra <A|B> <dim>            required, once per algebra
    unit <A|B> <r...>              required, dim rationals
    c <A|B> <i> <j> <k> <value>    sparse structure entries, default zero
    eps <j> <r...>                 image in A of the j-th basis vector of B

Every number must be an integer or a quotient `p/q` of integers; decimal
or exponent notation is rejected with the offending token named, since
the engine is exact and a float would silently poison it.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import FinAlgebra
from .linalg import ZERO
from .triples import Triple, make_triple

_RATIONAL = re.compile(r"^[+-]?\d+(/[+-]?\d+)?$")


class SpecParseError(ValueError):
    """Malformed triple file; carries the 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass
class ParsedTriple:
    triple: Triple
    name: str
    max_degree: Optional[int]


def _rational(token: str, line: int) -> Fraction:
    if not _RATIONAL.match(token):
        raise SpecParseError(
            f"numbers must be integers or quotients p/q; "
            f"offending token {token!r}", line)
    num, _, den = token.partition("/")
    if den in ("", None):
        return Fraction(int(num))
    if int(den) == 0:
        raise SpecParseError(f"zero denominator in token {token!r}", line)
    return Fraction(int(num), int(den))


def _int(token: str, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise SpecParseError(f"{what} must be an integer, got {token!r}",
                             line) from None


class _AlgebraDraft:
    def __init__(self):
        self.dim: Optional[int] = None
        self.unit: Optional[list] = None
        self.entries: dict = {}


def parse_triple_source(text: str) -> ParsedTriple:
    """Parse and validate; algebra axiom failures propagate as the usual
    triple errors, while structural problems raise SpecParseError."""
    drafts = {"A": _AlgebraDraft(), "B": _AlgebraDraft()}
    eps_cols: dict = {}
    name = ""
    max_degree: Optional[int] = None
    declared: set = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        head = tok[0]
        if head in ("name", "max_degree", "algebra", "unit"):
            key = " ".join(tok[:2] if head in ("algebra", "unit") else tok[:1])
            if key in declared:
                raise SpecParseError(f"{key} declared twice", lineno)
            declared.add(key)
        if head == "name":
            if len(tok) != 2:
                raise SpecParseError("name takes exactly one identifier", lineno)
            name = tok[1]
        elif head == "max_degree":
            if len(tok) != 2:
                raise SpecParseError("max_degree takes exactly one integer", lineno)
            max_degree = _int(tok[1], lineno, "max_degree")
            if max_degree < 0:
                raise SpecParseError("max_degree must be nonnegative", lineno)
        elif head == "algebra":
            if len(tok) != 3 or tok[1] not in drafts:
                raise SpecParseError("expected: algebra <A|B> <dim>", lineno)
            dim = _int(tok[2], lineno, "dimension")
            if dim < 1:
                raise SpecParseError("dimension must be positive", lineno)
            drafts[tok[1]].dim = dim
        elif head == "unit":
            if len(tok) < 3 or tok[1] not in drafts:
                raise SpecParseError("expected: unit <A|B> <coordinates>", lineno)
            d = drafts[tok[1]]
            if d.dim is None:
                raise SpecParseError(
                    f"unit given before 'algebra {tok[1]}'", lineno)
            if len(tok) - 2 != d.dim:
                raise SpecParseError(
                    f"unit of {tok[1]} needs {d.dim} coordinates, "
                    f"got {len(tok) - 2}", lineno)
            d.unit = [_rational(t, lineno) for t in tok[2:]]
        elif head == "c":
            if len(tok) != 6 or tok[1] not in drafts:
                raise SpecParseError(
                    "expected: c <A|B> <i> <j> <k> <value>", lineno)
            d = drafts[tok[1]]
            if d.dim is None:
                raise SpecParseError(
                    f"structure constant before 'algebra {tok[1]}'", lineno)
            i = _int(tok[2], lineno, "index")
            j = _int(tok[3], lineno, "index")
            k = _int(tok[4], lineno, "index")
            for ix in (i, j, k):
                if not 0 <= ix < d.dim:
                    raise SpecParseError(
                        f"index {ix} outside 0..{d.dim - 1}", lineno)
            if (i, j, k) in d.entries:
                raise SpecParseError(
                    f"duplicate structure constant ({i}, {j}, {k})", lineno)
            d.entries[(i, j, k)] = _rational(tok[5], lineno)
        elif head == "eps":
            if len(tok) < 3:
                raise SpecParseError("expected: eps <j> <coordinates>", lineno)
            da = drafts["A"].dim
            db = drafts["B"].dim
            if da is None or db is None:
                raise SpecParseError("eps given before both algebras", lineno)
            j = _int(tok[1], lineno, "eps column index")
            if not 0 <= j < db:
                raise SpecParseError(
                    f"eps column {j} outside 0..{db - 1}", lineno)
            if j in eps_cols:
                raise SpecParseError(f"duplicate eps column {j}", lineno)
            if len(tok) - 2 != da:
                raise SpecParseError(
                    f"eps column needs {da} coordinates, got {len(tok) - 2}",
                    lineno)
            eps_cols[j] = [_rational(t, lineno) for t in tok[2:]]
        else:
            raise SpecParseError(f"unknown directive {head!r}", lineno)

    for label in ("A", "B"):
        d = drafts[label]
        if d.dim is None:
            raise SpecParseError(f"missing 'algebra {label}' declaration")
        if d.unit is None:
            raise SpecParseError(f"missing unit of algebra {label}")
    db = drafts["B"].dim
    missing = [j for j in range(db) if j not in eps_cols]
    if missing:
        raise SpecParseError(f"missing eps columns {missing}")

    algebras = {}
    for label in ("A", "B"):
        d = drafts[label]
        algebras[label] = FinAlgebra.from_structure_constants(
            d.dim, d.entries, d.unit, name=f"{name}.{label}" if name else label)
    triple = make_triple(algebras["A"], algebras["B"],
                         [eps_cols[j] for j in range(db)], name=name)
    return ParsedTriple(triple, name, max_degree)


def parse_triple_file(path: str) -> ParsedTriple:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_triple_source(fh.read())


def export_triple(T: Triple, max_degree: Optional[int] = None) -> str:
    """Canonical text for a triple; parsing it back reproduces the data."""
    out = []
    if T.name:
        out.append(f"name {T.name}")
    for label, alg in (("A", T.A), ("B", T.B)):
        out.append(f"algebra {label} {alg.dim}")
        out.append(f"unit {label} " + " ".join(str(x) for x in alg.unit))
        for i in range(alg.dim):
            for j in range(alg.dim):
                for k, x in enumerate(alg.mult[i][j]):
                    if x != ZERO:
                        out.append(f"c {label} {i} {j} {k} {x}")
    for j in range(T.B.dim):
        out.append(f"eps {j} " +
                   " ".join(str(x) for x in T.eps.columns[j]))
    if max_degree is not None:
        out.append(f"max_degree {max_degree}")
    return "\n".join(out) + "\n"


def triple_hash(T: Triple) -> str:
    """Stable digest of the canonical export, name excluded."""
    text = export_triple(Triple(T.A, T.B, T.eps, T.commutative, name=""))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
