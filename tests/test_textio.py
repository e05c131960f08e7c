"""Text format round trips and error reporting."""

from __future__ import annotations

import pytest

from quiverglue.bundled import data_path, load_workspace
from quiverglue.errors import ParseError, UnknownName
from quiverglue.modcat import projective
from quiverglue.textio import (
    parse_algebra,
    parse_module,
    parse_universe,
    print_algebra,
    print_module,
)

LAMBDA_TEXT = (data_path() / "lambda.alg").read_text()


def test_algebra_round_trip():
    algebra = parse_algebra(LAMBDA_TEXT, name="lambda")
    canonical = print_algebra(algebra)
    again = parse_algebra(canonical, name="lambda")
    assert print_algebra(again) == canonical
    assert again.dim == algebra.dim


def test_bundled_lambda_shape():
    algebra = parse_algebra(LAMBDA_TEXT, name="lambda")
    assert len(algebra.quiver.vertices) == 5
    assert len(algebra.relations) == 2
    assert algebra.dim == 11


def test_prime_override_changes_field():
    algebra = parse_algebra(LAMBDA_TEXT, name="lambda", prime_override=32003)
    assert algebra.field.p == 32003
    assert algebra.dim == 11


def test_module_round_trip():
    algebra = parse_algebra(LAMBDA_TEXT, name="lambda")
    p3 = projective(algebra, "3")
    text = print_module("(P(1)|P(3))", p3)
    name, again = parse_module(text, algebra)
    assert name == "(P(1)|P(3))"
    assert again.equal_presentation(p3)
    assert print_module(name, again) == text


def test_relation_on_non_composable_arrows_rejected():
    bad = """field 101
vertices 1 2 3
arrow x 1 2
arrow y 1 3
relation 1*yx = 0
"""
    with pytest.raises(ParseError):
        parse_algebra(bad)


def test_unsegmentable_relation_word():
    bad = """field 101
vertices 1 2
arrow x 1 2
relation 1*xq = 0
"""
    with pytest.raises(ParseError):
        parse_algebra(bad)


def test_parse_error_carries_line_number():
    bad = "field 101\nvertices 1\nfrobnicate\n"
    with pytest.raises(ParseError) as err:
        parse_algebra(bad)
    assert "line 3" in str(err.value)


def test_module_over_wrong_algebra_name():
    algebra = parse_algebra(LAMBDA_TEXT, name="lambda")
    with pytest.raises(UnknownName):
        parse_module("module X over other\ndim 1 1\n", algebra)


def test_module_with_unknown_vertex():
    algebra = parse_algebra(LAMBDA_TEXT, name="lambda")
    with pytest.raises(UnknownName):
        parse_module("module X over lambda\ndim 9 1\n", algebra)


@pytest.mark.parametrize("entry", ["1.5", "2.9", "True", "'7'", "None"])
def test_module_rejects_non_integer_entries(entry):
    # a map entry that is not an int would otherwise be truncated or cast silently
    algebra = parse_algebra((data_path() / "lambda_dprime.alg").read_text(), name="lambda_dprime")
    text = f"module X over lambda_dprime\ndim 3 1\ndim 4 1\nmap a [[{entry}]]\n"
    with pytest.raises(ParseError) as err:
        parse_module(text, algebra)
    assert "line 4" in str(err.value)
    assert parse_module(text.replace(entry, "-1"), algebra)[1].maps["a"][0, 0] == 100


def test_universe_manifest_loads_bundled():
    ws = load_workspace()
    assert len(ws.universe_b) == 15
    assert len(ws.universe_a) == 3
    assert len(ws.universe_c) == 5
    assert ws.universe_b.module("(P(1)|P(3))").dim_vector() == (1, 1, 1, 1, 0)


def test_universe_manifest_missing_member(tmp_path):
    algebra = parse_algebra(LAMBDA_TEXT, name="lambda")
    manifest = tmp_path / "broken.univ"
    manifest.write_text("universe over lambda\nmember X nowhere.mod\n")
    with pytest.raises(UnknownName):
        parse_universe(manifest, algebra)


def test_multi_character_arrow_segmentation():
    text = """field 101
vertices 1 2 3
arrow ab 1 2
arrow cd 2 3
relation 1*cdab = 0
"""
    algebra = parse_algebra(text)
    (rel,) = algebra.relations
    ((_, path),) = rel.terms
    assert path.arrows == ("ab", "cd")
    assert algebra.dim == 5  # three vertices plus two arrows, composite killed
