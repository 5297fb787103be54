import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaglab as gl
from gaglab.io import ParseError, parse, serialize

from conftest import structures

SINGLETON_DOC = "order 1\ngammas 1\ngamma a\n1\n"


def test_parse_singleton():
    G = parse(SINGLETON_DOC)
    assert G.order == 1 and G.gamma_count == 1
    assert G.tables == (((0,),),)
    assert G.labels == ("1",)
    assert G.gamma_names == ("a",)


def test_parse_gamma5_fixture(gamma5):
    assert gamma5.order == 5 and gamma5.gamma_count == 3
    assert gamma5.gamma_names == ("α", "β", "γ")
    assert gamma5.labels == ("1", "2", "3", "4", "5")
    assert all(v == 0 for row in gamma5.tables[0] for v in row)
    assert all(v == 1 for row in gamma5.tables[1] for v in row)
    assert gamma5.tables[2][4] == (0, 0, 0, 2, 2)
    assert gl.check_law(gamma5, gl.Law.LEFT_INVERTIVE).holds


def test_parse_dot5_fixture(dot5):
    assert dot5.order == 5 and dot5.gamma_count == 1
    assert gl.identities(dot5, "left") == {3}
    assert dot5.tables[0][0] == (3, 4, 0, 1, 2)


def test_comments_blank_lines_and_spacing():
    doc = """
    # heading comment

    order   2
    gammas 1   # trailing comment
      labels a b
    gamma  op
       a   b
    b a    # rows may carry comments too
    """
    G = parse(doc)
    assert G.labels == ("a", "b")
    assert G.tables == (((0, 1), (1, 0)),)


def test_serialize_is_canonical(singleton):
    assert serialize(singleton) == "order 1\ngammas 1\nlabels 1\ngamma g1\n1\n"


@pytest.mark.parametrize("text,line,fragment", [
    ("", 1, "expected 'order <n>'"),
    ("order 2\n", 2, "expected 'gammas <m>'"),
    ("size 2\ngammas 1\n", 1, "expected 'order <number>'"),
    ("order two\ngammas 1\n", 1, "integer"),
    ("order 0\ngammas 1\n", 1, "at least 1"),
    ("order 2000000\ngammas 1\n", 1, "exceeds supported maximum 64"),
    ("order 2\ngammas 1\nlabels a\ngamma g\na a\na a\n", 3, "exactly 2 names"),
    ("order 2\ngammas 1\nlabels a a\ngamma g\na a\na a\n", 3, "duplicate element label"),
    ("order 2\ngammas 1\nlabels a b\nlabels a b\ngamma g\na a\na a\n", 4, "duplicate 'labels' line"),
    ("order 2\ngammas 1\ngamma g\n1 2\n1\n", 5, "expected 2 entries"),
    ("order 2\ngammas 1\ngamma g\n1 2\n1 2 1\n", 5, "expected 2 entries"),
    ("order 2\ngammas 1\ngamma g\n1 3\n1 2\n", 4, "unknown label '3'"),
    ("order 2\ngammas 2\ngamma g\n1 2\n2 1\n", 6, "unexpected end of document"),
    ("order 2\ngammas 2\ngamma g\n1 2\n2 1\ngamma g\n1 1\n2 2\n", 6, "duplicate gamma name"),
    ("order 2\ngammas 1\ngamma g\n1 2\n2 1\njunk\n", 6, "expected end of document"),
    ("order 2\ngammas 1\nrows g\n1 2\n2 1\n", 3, "expected 'gamma <name>'"),
])
def test_parse_errors(text, line, fragment):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line == line
    assert fragment in exc.value.message


@pytest.mark.parametrize("sep", ["\n", "\r\n", "\r", "\x0c", "\u2028"])
@pytest.mark.parametrize("lines,line", [
    ([], 1),
    (["order 2"], 2),
    (["order 1", "gammas 1"], 3),
    (["order 2", "gammas 2", "gamma g", "1 2", "2 1"], 6),
])
def test_end_of_document_is_the_line_after_the_last(sep, lines, line):
    # lines are numbered as str.splitlines counts them, whatever the line break
    for end in ("", sep) if lines else ("",):
        with pytest.raises(ParseError) as exc:
            parse(sep.join(lines) + end)
        assert exc.value.line == line
        assert "unexpected end of document" in exc.value.message


def test_round_trip_fixtures(gamma5, dot5, singleton):
    for G in (gamma5, dot5, singleton):
        assert parse(serialize(G)) == G


def test_round_trip_custom_labels():
    doc = "order 3\ngammas 2\nlabels x y z*\ngamma α\nx x x\ny y y\nz* z* z*\ngamma w\nx y z*\nz* y x\nx x x\n"
    G = parse(doc)
    assert G.labels == ("x", "y", "z*")
    assert parse(serialize(G)) == G


@settings(max_examples=60, deadline=None)
@given(structures())
def test_round_trip_random_structures(G):
    assert parse(serialize(G)) == G


def test_round_trip_search_output():
    spec = gl.SearchSpec(order=2, gammas=2,
                         filters=frozenset({gl.Filter.LEFT_INVERTIVE}))
    for G in gl.enumerate_structures(spec):
        assert parse(serialize(G)) == G


def test_fixture_path_and_file_io(tmp_path, gamma5):
    assert gl.fixture_path("gamma5").exists()
    assert gl.fixture_path("gamma5.gag").exists()
    target = tmp_path / "copy.gag"
    gl.write_file(target, gamma5)
    assert gl.parse_file(target) == gamma5
