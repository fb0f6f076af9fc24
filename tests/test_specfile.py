"""The line-based triple description format: parse, export, digest."""

import hashlib
import re
from fractions import Fraction

import pytest

from _shared import (ALL_NAMES, cube_over_prod, dual_over_trunc3_x,
                     prod_over_prod_id, rebased_triple, rescaled_triple,
                     shared_triple, sqzero_dual_x, trunc3_over_dual_x2)
from sechom.specfile import (SpecParseError, export_triple, parse_triple_file,
                             parse_triple_source, triple_hash)
from sechom.triples import EpsNotMultiplicativeError, Triple, make_triple

F = Fraction

DUAL_SOURCE = """
# a two-variable example with nilpotent generators
name sample
algebra A 2
unit A 1 0
c A 0 0 0 1
c A 0 1 1 1
c A 1 0 1 1          # x * 1 = x; x * x is absent, hence zero
algebra B 2
unit B 1 0
c B 0 0 0 1
c B 0 1 1 1
c B 1 0 1 1
eps 0 1 0
eps 1 0 1            # the generator of B maps to the generator of A
max_degree 2
"""


def test_parse_builds_a_validated_triple():
    parsed = parse_triple_source(DUAL_SOURCE)
    assert parsed.name == "sample"
    assert parsed.max_degree == 2
    T = parsed.triple
    assert (T.A.dim, T.B.dim) == (2, 2)
    assert T.commutative
    assert triple_hash(T) == triple_hash(shared_triple("dual_dual_x"))


def test_export_round_trips_every_catalog_triple():
    for name in ALL_NAMES:
        T = shared_triple(name)
        back = parse_triple_source(export_triple(T)).triple
        assert back.A.mult == T.A.mult
        assert back.B.mult == T.B.mult
        assert back.eps.columns == T.eps.columns
        assert triple_hash(back) == triple_hash(T)


def test_hash_ignores_the_name_but_not_the_data():
    T = shared_triple("dual_dual_x")
    renamed = parse_triple_source(
        export_triple(T).replace("name dual_dual_x", "name other")).triple
    assert triple_hash(renamed) == triple_hash(T)
    assert triple_hash(shared_triple("dual_dual_zero")) != triple_hash(T)


def test_hash_is_the_hashlib_digest_of_the_nameless_export():
    # triple_hash takes SHA-256 from the interpreter's built-in module, not
    # from hashlib; both must give the same digest on every triple.
    triples = [shared_triple(name) for name in ALL_NAMES]
    triples += [rescaled_triple(name) for name in ALL_NAMES]
    triples += [rebased_triple(name) for name in ALL_NAMES if name != "mat2_k"]
    triples += [trunc3_over_dual_x2(), prod_over_prod_id(), cube_over_prod(),
                dual_over_trunc3_x(), sqzero_dual_x()]
    for T in triples:
        text = export_triple(Triple(T.A, T.B, T.eps, T.commutative, name=""))
        assert triple_hash(T) == hashlib.sha256(
            text.encode("utf-8")).hexdigest(), T.name


def test_export_refuses_a_name_that_would_not_read_back():
    T = shared_triple("dual_k")
    for name in ("my triple", "a#b", "tab\tname", "two\nlines"):
        renamed = make_triple(T.A, T.B, T.eps.columns, name=name)
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            export_triple(renamed)
    for name in ("plain", "a.b-c_1"):
        renamed = make_triple(T.A, T.B, T.eps.columns, name=name)
        assert parse_triple_source(export_triple(renamed)).name == name


def test_round_trip_through_a_file(tmp_path):
    p = tmp_path / "sample.triple"
    p.write_text(export_triple(shared_triple("trunc3_k"), max_degree=3),
                 encoding="utf-8")
    parsed = parse_triple_file(str(p))
    assert parsed.max_degree == 3
    assert triple_hash(parsed.triple) == triple_hash(shared_triple("trunc3_k"))


def test_rationals_are_accepted_but_floats_are_named_and_refused():
    # x^2 = 3/2 on both sides keeps everything associative and compatible.
    src = DUAL_SOURCE + "c A 1 1 0 3/2\nc B 1 1 0 3/2\n"
    parsed = parse_triple_source(src)
    assert parsed.triple.A.mult[1][1][0] == F(3, 2)
    text = export_triple(parsed.triple)
    assert "c A 1 1 0 3/2" in text.splitlines()
    assert "unit A 1 0" in text.splitlines()
    assert triple_hash(parsed.triple) == (
        "c6a6d709a179405c17331627a801d59acd4d0f99a69d1514d8e23248044b82a2")

    with pytest.raises(SpecParseError) as exc:
        parse_triple_source(DUAL_SOURCE.replace("c A 0 1 1 1", "c A 0 1 1 1.0"))
    assert "'1.0'" in str(exc.value)
    with pytest.raises(SpecParseError) as exc:
        parse_triple_source(DUAL_SOURCE.replace("c A 0 1 1 1", "c A 0 1 1 1e0"))
    assert "'1e0'" in str(exc.value)
    with pytest.raises(SpecParseError):
        parse_triple_source(DUAL_SOURCE.replace("c A 0 1 1 1", "c A 0 1 1 1/0"))


def test_structural_errors_carry_line_numbers():
    # A repeated once-only directive is refused, never silently replaced.
    for src, line, message in [
            ("algebra A 2\nalgebra A 2\n", 2, "algebra A declared twice"),
            ("algebra A 1\nunit A 3\nunit A 1\n", 3, "unit A declared twice"),
            (DUAL_SOURCE + "unit B 1 0\n", 17, "unit B declared twice"),
            (DUAL_SOURCE + "name other\n", 17, "name declared twice"),
            (DUAL_SOURCE + "max_degree 5\n", 17,
             "max_degree declared twice")]:
        with pytest.raises(SpecParseError) as exc:
            parse_triple_source(src)
        assert exc.value.line == line
        assert message in str(exc.value)

    with pytest.raises(SpecParseError) as exc:
        parse_triple_source(DUAL_SOURCE + "c A 0 1 1 5\n")
    assert "duplicate structure constant" in str(exc.value)

    with pytest.raises(SpecParseError) as exc:
        parse_triple_source(DUAL_SOURCE + "eps 1 0 1\n")
    assert "duplicate eps column" in str(exc.value)

    with pytest.raises(SpecParseError) as exc:
        parse_triple_source(DUAL_SOURCE + "c A 0 1 2 1\n")
    assert "outside 0..1" in str(exc.value)

    with pytest.raises(SpecParseError) as exc:
        parse_triple_source(DUAL_SOURCE + "banana 1\n")
    assert "banana" in str(exc.value)


def test_missing_blocks_are_reported():
    with pytest.raises(SpecParseError) as exc:
        parse_triple_source("algebra A 1\nunit A 1\nc A 0 0 0 1\n")
    assert "algebra B" in str(exc.value)

    src = "\n".join(line for line in DUAL_SOURCE.splitlines()
                    if not line.startswith("eps 1"))
    with pytest.raises(SpecParseError) as exc:
        parse_triple_source(src)
    assert "missing eps columns [1]" in str(exc.value)

    with pytest.raises(SpecParseError) as exc:
        parse_triple_source("algebra A 1\nc A 0 0 0 1\nalgebra B 1\n"
                            "unit B 1\nc B 0 0 0 1\neps 0 1\n")
    assert "unit of algebra A" in str(exc.value)


def test_order_constraints_are_enforced():
    with pytest.raises(SpecParseError) as exc:
        parse_triple_source("unit A 1\n")
    assert "before" in str(exc.value)
    with pytest.raises(SpecParseError) as exc:
        parse_triple_source("c A 0 0 0 1\n")
    assert "before" in str(exc.value)
    with pytest.raises(SpecParseError) as exc:
        parse_triple_source("algebra A 1\neps 0 1\n")
    assert "before both algebras" in str(exc.value)


def test_axiom_failures_surface_as_triple_errors():
    # Structurally fine, mathematically wrong: eps sends the nilpotent
    # generator to 1.
    src = DUAL_SOURCE.replace("eps 1 0 1", "eps 1 1 0")
    with pytest.raises(EpsNotMultiplicativeError):
        parse_triple_source(src)


def test_degree_directive_is_validated():
    with pytest.raises(SpecParseError):
        parse_triple_source(DUAL_SOURCE + "max_degree -1\n")
    with pytest.raises(SpecParseError):
        parse_triple_source(DUAL_SOURCE + "max_degree two\n")
