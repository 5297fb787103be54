import tracemalloc

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
    ("order 1\ngammas 2\ngamma a\n1\nlabels x\ngamma b\n1\n", 5, "'labels' must come right after 'gammas'"),
    ("order 2\ngammas 1\ngamma g\n1 2\n1\n", 5, "expected 2 entries"),
    ("order 2\ngammas 1\ngamma g\n1 2\n1 2 1\n", 5, "expected 2 entries"),
    ("order 2\ngammas 1\ngamma g\n1 3\n1 2\n", 4, "unknown label '3'"),
    ("order 2\ngammas 2\ngamma g\n1 2\n2 1\n", 6, "unexpected end of document"),
    ("order 2\ngammas 2\ngamma g\n1 2\n2 1\ngamma g\n1 1\n2 2\n", 6, "duplicate gamma name"),
    ("order 1\ngammas 3\ngamma a\n1\ngamma b\n1\ngamma a\n1\n", 7, "duplicate gamma name 'a'"),
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


@pytest.mark.parametrize("head,line,fragment", [
    ("order 65\n", 1, "carrier size 65 exceeds supported maximum 64"),
    ("order 2\ngammas 1\ngamma g\n1 2\n2 1\n", 6, "expected end of document"),
])
def test_bad_document_fails_before_the_lines_after_it_are_split(head, line, fragment):
    # 100,000 lines of 16 labels, about 3.9 MB: splitting them all into tokens
    # takes about 20 times the text's size
    text = head + (" ".join(map(str, range(1, 17))) + "\n") * 100_000
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as exc:
            parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.line == line
    assert fragment in exc.value.message
    assert peak < 4 * len(text)


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


# parse builds its structure without GammaGroupoid's own checks; the checking
# constructor is the oracle, and must accept every document that parse accepts

FIXTURES = sorted(gl.fixture_path("gamma5").parent.glob("*.gag"))


def _checked(G):
    """G again, built by the checking constructor, which must accept it and agree."""
    again = gl.GammaGroupoid(G.tables, G.labels, G.gamma_names)
    assert again == G
    assert (G.order, G.gamma_count, G.carrier) == (again.order, again.gamma_count,
                                                   again.carrier)
    return again


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_a_parsed_fixture_passes_the_checking_constructor(path):
    _checked(gl.parse_file(path))


# a token is any run of non-blank characters but '#', zero-width ones included
_TOKEN = st.text(st.one_of(st.characters(blacklist_categories=("Z", "C"),
                                         blacklist_characters="#"),
                           st.sampled_from("\ufeff\u200b")), min_size=1, max_size=3)


@st.composite
def documents(draw):
    """A document that parse accepts, with or without a labels line, with comments,
    blank lines and uneven spacing, and the tables, labels and names it declares."""
    tables = draw(structures()).tables
    n, m = len(tables[0]), len(tables)
    labels = draw(st.one_of(st.none(), st.lists(_TOKEN, min_size=n, max_size=n, unique=True)))
    names = draw(st.lists(_TOKEN, min_size=m, max_size=m, unique=True))
    shown = labels or [str(v + 1) for v in range(n)]
    lines = [f"order {n}", f"gammas {m}", *(["labels " + " ".join(labels)] if labels else [])]
    for name, table in zip(names, tables):
        lines += [f"gamma {name}", *(" ".join(shown[v] for v in row) for row in table)]
    out = []
    for line in lines:
        out += draw(st.lists(st.sampled_from(["", " \t ", "# a comment", " # α # β"]),
                             max_size=2))
        out.append(draw(st.sampled_from(["", "  ", "\t"])) +
                   draw(st.sampled_from([" ", "   ", "\t"])).join(line.split(" ")) +
                   draw(st.sampled_from(["", " ", "# note", " \t# note #"])))
    text = "\n".join(out) + draw(st.sampled_from(["", "\n", "\n# the end\n\n"]))
    return text, (tables, tuple(shown), tuple(names))


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("documents") / "doc.gag"


@settings(max_examples=150, deadline=None)
@given(documents())
def test_a_parsed_document_passes_the_checking_constructor(doc_path, document):
    text, parts = document
    G = _checked(parse(text))
    assert (G.tables, G.labels, G.gamma_names) == parts
    for bom in (b"", b"\xef\xbb\xbf"):
        doc_path.write_bytes(bom + text.encode("utf-8"))
        assert _checked(gl.parse_file(doc_path)) == G


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_a_file_with_a_byte_order_mark_parses_as_without(tmp_path, path):
    target = tmp_path / path.name
    target.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert gl.parse_file(target) == gl.parse_file(path)
    # parse takes text, in which a byte-order mark is not a blank
    with pytest.raises(ParseError, match=r"^line 1: expected 'order <number>'"):
        parse(target.read_text(encoding="utf-8"))
