import json
import os
import shlex
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaglab as gl
from gaglab import cli
from gaglab.cli import run
from gaglab.ideals import _CLOSURE_KINDS, IdealKind

from conftest import ENUMERATING_UNLESS_REGULAR


ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def gamma5_path():
    return str(gl.fixture_path("gamma5"))


@pytest.fixture(scope="session")
def dot5_path():
    return str(gl.fixture_path("dot5"))


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# check

def test_check_gamma5(gamma5_path, capsys):
    code = run(["check", gamma5_path])
    out = capsys.readouterr().out
    assert code == 0
    assert "left-invertive: holds" in out
    assert "ag-star-star: holds" in out
    assert "medial: holds" in out
    assert "associative: fails at (1 α 1 β 1) -> 2 != 1" in out
    assert "commutative: fails at (4 γ 5) -> 1 != 3" in out


def test_check_json_agrees_with_text(gamma5_path, capsys):
    text_code = run(["check", gamma5_path])
    text = capsys.readouterr().out
    json_code = run(["check", gamma5_path, "--json"])
    payload = _json_out(capsys)
    assert text_code == json_code == payload["exit_code"]
    for entry in payload["laws"]:
        if entry["holds"]:
            assert f"{entry['law']}: holds" in text
        else:
            assert f"{entry['law']}: fails" in text
    assoc = next(e for e in payload["laws"] if e["law"] == "associative")
    assert assoc["witness"] == ["1", "α", "1", "β", "1"]
    assert (assoc["lhs"], assoc["rhs"]) == ("2", "1")


def test_check_exit_one_when_defining_law_fails(tmp_path, capsys):
    bad = tmp_path / "bad.gag"
    bad.write_text("order 2\ngammas 1\ngamma g\n1 1\n2 2\n", encoding="utf-8")
    code = run(["check", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "left-invertive: fails" in out


# ---------------------------------------------------------------------------
# ideals / closure

def test_ideals_two_sided(gamma5_path, capsys):
    code = run(["ideals", gamma5_path, "--kind", "two-sided"])
    out = capsys.readouterr().out
    assert code == 0
    assert "{1,2,3}" in out and "{1,2,3,4,5}" in out
    assert "(5 found)" in out


def test_ideals_right_contains_b(gamma5_path, capsys):
    run(["ideals", gamma5_path, "--kind", "right", "--json"])
    payload = _json_out(capsys)
    assert ["1", "2", "4"] in payload["ideals"]


def test_closure(gamma5_path, capsys):
    code = run(["closure", gamma5_path, "--elements", "5", "--kind", "left"])
    out = capsys.readouterr().out
    assert code == 0
    assert "{1,2,3,5}" in out


@pytest.mark.parametrize("kind", list(IdealKind), ids=lambda k: k.value)
def test_closure_kind_choices_are_the_closure_kinds(gamma5_path, capsys, kind):
    # closure --kind accepts exactly the kinds ideal_closure computes
    code = run(["closure", gamma5_path, "--elements", "5", "--kind", kind.value])
    if kind in _CLOSURE_KINDS:
        assert code == 0
    else:
        assert code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_closure_unknown_label_is_usage_error(gamma5_path, capsys):
    code = run(["closure", gamma5_path, "--elements", "9", "--kind", "left"])
    assert code == 2
    assert capsys.readouterr().err == "error: unknown element label '9'\n"


# the text reports of ideals, closure and semilattice as they are printed; FILE
# stands for the fixture's path
_TEXT_PINS = {
    ("gamma5", "ideals --kind sub"): """\
sub ideals of FILE (6 found):
{1,2}
{1,2,3}
{1,2,4}
{1,2,3,4}
{1,2,3,5}
{1,2,3,4,5}
""",
    ("gamma5", "ideals --kind left"): """\
left ideals of FILE (5 found):
{1,2}
{1,2,3}
{1,2,3,4}
{1,2,3,5}
{1,2,3,4,5}
""",
    ("gamma5", "ideals --kind right"): """\
right ideals of FILE (6 found):
{1,2}
{1,2,3}
{1,2,4}
{1,2,3,4}
{1,2,3,5}
{1,2,3,4,5}
""",
    ("gamma5", "ideals --kind two-sided"): """\
two-sided ideals of FILE (5 found):
{1,2}
{1,2,3}
{1,2,3,4}
{1,2,3,5}
{1,2,3,4,5}
""",
    ("gamma5", "ideals --kind bi"): """\
bi ideals of FILE (6 found):
{1,2}
{1,2,3}
{1,2,4}
{1,2,3,4}
{1,2,3,5}
{1,2,3,4,5}
""",
    ("gamma5", "ideals --kind quasi"): """\
quasi ideals of FILE (6 found):
{1,2}
{1,2,3}
{1,2,4}
{1,2,3,4}
{1,2,3,5}
{1,2,3,4,5}
""",
    ("gamma5", "ideals --kind interior"): """\
interior ideals of FILE (6 found):
{1,2}
{1,2,3}
{1,2,4}
{1,2,3,4}
{1,2,3,5}
{1,2,3,4,5}
""",
    ("gamma5", "closure --elements 3,5 --kind sub"): """\
sub closure of {3,5}: {1,2,3,5}
""",
    ("gamma5", "closure --elements 3,5 --kind left"): """\
left closure of {3,5}: {1,2,3,5}
""",
    ("gamma5", "closure --elements 3,5 --kind right"): """\
right closure of {3,5}: {1,2,3,5}
""",
    ("gamma5", "closure --elements 3,5 --kind two-sided"): """\
two-sided closure of {3,5}: {1,2,3,5}
""",
    ("gamma5", "semilattice"): """\
regular: false
two-sided ideals (5): {1,2} {1,2,3} {1,2,3,4} {1,2,3,5} {1,2,3,4,5}
closed: true
commutative: false
associative: true
idempotent: false
product table:
  {1,2}: {1,2} {1,2} {1,2} {1,2} {1,2}
  {1,2,3}: {1,2} {1,2} {1,2} {1,2} {1,2}
  {1,2,3,4}: {1,2} {1,2} {1,2} {1,2} {1,2}
  {1,2,3,5}: {1,2} {1,2} {1,2,3} {1,2,3} {1,2,3}
  {1,2,3,4,5}: {1,2} {1,2} {1,2,3} {1,2,3} {1,2,3}
""",
    ("dot5", "ideals --kind sub"): """\
sub ideals of FILE (2 found):
{4}
{1,2,3,4,5}
""",
    ("dot5", "ideals --kind left"): """\
left ideals of FILE (1 found):
{1,2,3,4,5}
""",
    ("dot5", "ideals --kind right"): """\
right ideals of FILE (1 found):
{1,2,3,4,5}
""",
    ("dot5", "ideals --kind two-sided"): """\
two-sided ideals of FILE (1 found):
{1,2,3,4,5}
""",
    ("dot5", "ideals --kind bi"): """\
bi ideals of FILE (1 found):
{1,2,3,4,5}
""",
    ("dot5", "ideals --kind quasi"): """\
quasi ideals of FILE (1 found):
{1,2,3,4,5}
""",
    ("dot5", "ideals --kind interior"): """\
interior ideals of FILE (1 found):
{1,2,3,4,5}
""",
    ("dot5", "closure --elements 3,5 --kind sub"): """\
sub closure of {3,5}: {1,2,3,4,5}
""",
    ("dot5", "closure --elements 3,5 --kind left"): """\
left closure of {3,5}: {1,2,3,4,5}
""",
    ("dot5", "closure --elements 3,5 --kind right"): """\
right closure of {3,5}: {1,2,3,4,5}
""",
    ("dot5", "closure --elements 3,5 --kind two-sided"): """\
two-sided closure of {3,5}: {1,2,3,4,5}
""",
    ("dot5", "semilattice"): """\
regular: true
two-sided ideals (1): {1,2,3,4,5}
closed: true
commutative: true
associative: true
idempotent: true
product table:
  {1,2,3,4,5}: {1,2,3,4,5}
""",
}


@pytest.mark.parametrize("fixture,request_", list(_TEXT_PINS), ids=" ".join)
def test_text_reports_are_pinned(fixture, request_, capsys):
    path = str(gl.fixture_path(fixture))
    command, *options = request_.split()
    run([command, path, *options])
    assert capsys.readouterr().out == _TEXT_PINS[fixture, request_].replace("FILE", path)


# ---------------------------------------------------------------------------
# verify / semilattice

def test_verify_gamma5(gamma5_path, capsys):
    code = run(["verify", gamma5_path])
    out = capsys.readouterr().out
    assert code == 0
    assert "l-medial: holds" in out
    assert "t-semilattice: not-applicable (hypothesis regular failed)" in out


def test_verify_single_lemma(dot5_path, capsys):
    code = run(["verify", dot5_path, "--lemma", "l1-left-identity-collapse"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "l1-left-identity-collapse: holds"


def test_verify_counterexample_fixture(capsys):
    path = str(gl.fixture_path("interior_not_right3"))
    code = run(["verify", path, "--lemma", "l-interior-iff-right"])
    out = capsys.readouterr().out
    assert code == 1
    assert "counterexample" in out
    assert "subset={1,3}" in out


def test_verify_json_agreement(capsys):
    path = str(gl.fixture_path("left_not_right_regular3"))
    text_code = run(["verify", path])
    text = capsys.readouterr().out
    json_code = run(["verify", path, "--json"])
    payload = _json_out(capsys)
    assert text_code == json_code == payload["exit_code"] == 1
    for entry in payload["lemmas"]:
        assert f"{entry['lemma']}: {entry['status']}" in text
    cx = {e["lemma"] for e in payload["lemmas"] if e["status"] == "counterexample"}
    assert cx == {"l-left-iff-right-regular", "t-regular-iff-idempotent-left"}


def test_verify_decodes_element_and_at_witness_keys(capsys):
    path = str(gl.fixture_path("principal_left_not_left9"))
    argv = ["verify", path, "--lemma", "l-principal-left-agss"]
    assert run(argv) == 1
    assert capsys.readouterr().out == ("l-principal-left-agss: counterexample "
                                       "subset={1,4,7,9} clause=LeftAbsorb at=(2 g2 9) "
                                       "element=2\n")
    assert run(argv + ["--json"]) == 1
    assert _json_out(capsys)["lemmas"][0]["witness"] == {
        "subset": ["1", "4", "7", "9"], "clause": "LeftAbsorb", "at": ["2", "g2", "9"],
        "element": "2"}


def test_gamma_witness_keys_decode_to_gamma_names():
    G = gl.GammaGroupoid((((0, 0), (0, 0)), ((0, 0), (0, 1))), ("a", "b"), ("α", "β"))
    w = {"gamma": 0, "gamma_b": 1, "at": (1, 1, 1)}
    assert gl.LemmaId.L1_LEFT_IDENTITY_COLLAPSE.verifier(G) == w
    assert cli._lemma_witness_json(G, w) == {"gamma": "α", "gamma_b": "β",
                                             "at": ["b", "β", "b"]}
    assert cli._fmt_lemma_witness(cli._lemma_witness_json(G, w)) == \
        "gamma=α gamma_b=β at=(b β b)"


def test_semilattice_exit_codes(gamma5_path, dot5_path, capsys):
    assert run(["semilattice", dot5_path]) == 0
    out = capsys.readouterr().out
    assert "regular: true" in out and "idempotent: true" in out
    assert run(["semilattice", gamma5_path]) == 1
    out = capsys.readouterr().out
    assert "commutative: false" in out
    assert "product table:" in out


# ---------------------------------------------------------------------------
# the --json writer

_CHARS = st.characters() | st.sampled_from('"\\/\u2028\u2029\x00\x1f\x7fé')
_SCALARS = (st.none() | st.booleans() | st.integers() | st.sampled_from([10 ** 99, -10 ** 99])
            | st.floats() | st.text(_CHARS, max_size=8))


@settings(max_examples=100, deadline=None)
@given(st.recursive(_SCALARS, lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
                    | st.dictionaries(st.text(_CHARS, max_size=8), inner), max_leaves=12))
def test_json_writer_equals_json_dumps(value):
    assert cli._json(value) == json.dumps(value, ensure_ascii=False, indent=2)


def test_json_writer_refuses_what_json_refuses():
    for value in ({1, 2}, object(), {"a": [b"x"]}):
        with pytest.raises(TypeError):
            json.dumps(value)
        with pytest.raises(TypeError):
            cli._json(value)


_FIXTURES = sorted(p.stem for p in gl.fixture_path("gamma5").parent.glob("*.gag"))


@pytest.mark.parametrize("request_", ["verify", "check", "ideals --kind bi", "semilattice"])
@pytest.mark.parametrize("fixture", _FIXTURES)
def test_json_reports_are_the_bytes_of_json_dumps(fixture, request_, capsys):
    command, *options = request_.split()
    argv = [command, str(gl.fixture_path(fixture)), *options, "--json"]
    args = cli._parser().parse_args(argv)
    report, code = args.func(args)
    assert run(argv) == code
    assert capsys.readouterr().out == json.dumps(report, ensure_ascii=False, indent=2) + "\n"


# ---------------------------------------------------------------------------
# search / hunt

def test_search_count(capsys):
    code = run(["search", "--order", "2", "--gammas", "2",
                "--filter", "left-invertive", "--count"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "14"


def test_search_emit_round_trips(tmp_path, capsys):
    out_dir = tmp_path / "structures"
    code = run(["search", "--order", "2", "--gammas", "1",
                "--filter", "left-invertive", "--emit", str(out_dir)])
    assert code == 0
    files = sorted(out_dir.glob("*.gag"))
    assert len(files) == 6
    for f in files:
        G = gl.parse_file(f)
        assert gl.check_law(G, gl.Law.LEFT_INVERTIVE).holds


def test_search_emit_makes_its_directory_once_before_the_search(tmp_path, monkeypatch, capsys):
    made = []
    real = cli.Path.mkdir
    monkeypatch.setattr(cli.Path, "mkdir",
                        lambda self, *a, **kw: made.append(self) or real(self, *a, **kw))
    out_dir = tmp_path / "out"
    # no result still leaves the empty directory that the message names
    assert run(["search", "--order", "2", "--gammas", "1", "--limit", "0",
                "--emit", str(out_dir)]) == 0
    assert capsys.readouterr().out == f"wrote 0 structures to {out_dir}\n"
    assert made == [out_dir] and list(out_dir.iterdir()) == []
    assert run(["search", "--order", "2", "--gammas", "1", "--limit", "3",
                "--emit", str(out_dir)]) == 0
    assert made == [out_dir] * 2 and len(list(out_dir.glob("*.gag"))) == 3


def test_search_emit_to_a_file_exits_2_before_the_search(tmp_path, monkeypatch, capsys):
    started = []

    def stub(spec):
        started.append(spec)
        yield from gl.enumerate_structures(spec)
    monkeypatch.setattr(cli, "enumerate_structures", stub)
    target = tmp_path / "plain"
    target.write_text("kept", encoding="utf-8")
    assert run(["search", "--order", "2", "--gammas", "1", "--emit", str(target)]) == 2
    assert capsys.readouterr() == ("", f"error: [Errno 17] File exists: '{target}'\n")
    assert started == [] and target.read_text(encoding="utf-8") == "kept"


@pytest.mark.parametrize("extra,message", [
    (["--emit", "DIR", "--count"], "--emit and --count cannot be given together"),
    (["--iso-carrier-only", "--count"], "--iso-carrier-only needs --canonical"),
    (["--iso-carrier-only", "--emit", "DIR"], "--iso-carrier-only needs --canonical"),
])
def test_search_refuses_an_ignored_flag_before_the_search(
        tmp_path, monkeypatch, capsys, extra, message):
    # each pair used to run the search and drop one flag: --emit DIR --count
    # printed the count and made no DIR, --iso-carrier-only alone counted labelled
    def never(*args):
        raise AssertionError("the search started")
    monkeypatch.setattr(cli, "count", never)
    monkeypatch.setattr(cli, "enumerate_structures", never)
    out_dir = tmp_path / "out"
    argv = ["search", "--order", "2", "--gammas", "1", "--filter", "left-invertive",
            *(str(out_dir) if arg == "DIR" else arg for arg in extra)]
    for json_flag in ([], ["--json"]):
        assert run(argv + json_flag) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out_dir.exists()


def test_search_streams_each_structure(tmp_path, monkeypatch, capsys):
    spec = gl.SearchSpec(order=2, gammas=1, limit=3)
    structs = list(gl.enumerate_structures(spec))
    out_dir = tmp_path / "structures"

    def stub(spec, written):
        for i, G in enumerate(structs):
            if i:
                assert written(i - 1)  # the previous structure is out already
            yield G

    def to_file(i):
        return (out_dir / f"structure_{i:05d}.gag").is_file()

    def to_stdout(i):
        return gl.serialize(structs[i]) in capsys.readouterr().out

    for written, extra in ((to_file, ["--emit", str(out_dir)]), (to_stdout, [])):
        monkeypatch.setattr(cli, "enumerate_structures",
                            lambda spec, written=written: stub(spec, written))
        assert run(["search", "--order", "2", "--gammas", "1", *extra]) == 0
    assert len(list(out_dir.glob("*.gag"))) == 3


def test_search_stdout_limit(capsys):
    code = run(["search", "--order", "2", "--gammas", "1", "--limit", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("order 2") == 2


def test_search_json_lists_the_stream(capsys):
    for limit in (None, 2):
        extra = [] if limit is None else ["--limit", str(limit)]
        assert run(["search", "--order", "2", "--gammas", "1", "--filter", "left-invertive",
                    "--json", *extra]) == 0
        spec = gl.SearchSpec(2, 1, filters={gl.Filter.LEFT_INVERTIVE}, limit=limit)
        texts = [gl.serialize(G) for G in gl.enumerate_structures(spec)]
        assert len(texts) == (6 if limit is None else limit)
        assert _json_out(capsys) == {"command": "search", "count": len(texts),
                                     "structures": texts}


def test_search_canonical_flag(capsys):
    code = run(["search", "--order", "2", "--gammas", "2",
                "--filter", "left-invertive", "--canonical", "--count"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "6"


@pytest.mark.parametrize("order,full,carrier_only", [("2", 6, 7), ("3", 112, 187)])
def test_search_iso_carrier_only_keeps_the_gamma_relabellings_apart(
        capsys, order, full, carrier_only):
    argv = ["search", "--order", order, "--gammas", "2", "--filter", "left-invertive",
            "--canonical", "--count"]
    for extra, expected in (([], full), (["--iso-carrier-only"], carrier_only)):
        assert run(argv + extra) == 0
        assert capsys.readouterr().out == f"{expected}\n"
        assert run(argv + extra + ["--json"]) == 0
        assert _json_out(capsys) == {"command": "search", "count": expected}


def test_hunt_clean(capsys):
    code = run(["hunt", "--order", "2", "--gammas", "2", "--lemma", "l-medial",
                "--filter", "left-invertive"])
    out = capsys.readouterr().out
    assert code == 0
    assert "no counterexample" in out


def test_hunt_finds_counterexample(capsys):
    code = run(["hunt", "--order", "3", "--gammas", "1",
                "--lemma", "l-interior-iff-right", "--hypotheses"])
    out = capsys.readouterr().out
    assert code == 1
    assert "counterexample to l-interior-iff-right" in out
    assert "subset={1,3}" in out


def test_hunt_json_agreement(capsys):
    argv = ["hunt", "--order", "3", "--gammas", "1",
            "--lemma", "l-left-iff-right-regular", "--hypotheses"]
    text_code = run(argv)
    capsys.readouterr()
    json_code = run(argv + ["--json"])
    payload = _json_out(capsys)
    assert text_code == json_code == 1
    assert payload["counterexample"]["witness"]["subset"] == ["1", "2"]


@pytest.mark.parametrize("lemma", ["l-interior-iff-right", "l-left-iff-right-regular",
                                   "t-regular-iff-idempotent-left"])
def test_hunt_json_matches_the_benchmark_pin(lemma, capsys):
    pins = ROOT / "perfbench" / "data" / "pins.json"
    pin = json.loads(pins.read_text(encoding="utf-8"))["hunt"]["refuted"][lemma]
    n, m = pin["size"]
    assert run(["hunt", "--order", str(n), "--gammas", str(m), "--lemma", lemma,
                "--hypotheses", "--json"]) == 1
    payload = _json_out(capsys)
    assert payload == pin["output"]
    assert payload["counterexample"]["note"] is None


# the hunt against its oracle: the same hunt over the labelled stream

HUNT_SIZES = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]  # the benchmark's sweep


def _spied_hunt(monkeypatch, capsys, argv, oracle=None):
    """The hunt's (exit code, stdout) and the specs it built; with ``oracle``, each
    spec's stream is that of ``oracle(spec)``, reported by the same code."""
    real = cli.enumerate_structures
    specs = []

    def spying(spec):
        specs.append(spec)
        return real(spec if oracle is None else oracle(spec))
    monkeypatch.setattr(cli, "enumerate_structures", spying)
    return (run(argv), capsys.readouterr().out), specs


def _hunt_and_labelled_hunt(monkeypatch, capsys, argv):
    """The hunt's (exit code, stdout) and those of the same hunt over the labelled
    stream, the spec without lex_pruned."""
    got, specs = _spied_hunt(monkeypatch, capsys, argv)
    assert [spec.lex_pruned for spec in specs] == [True]
    return got, _spied_hunt(monkeypatch, capsys, argv,
                            lambda spec: replace(spec, lex_pruned=False))[0]


@pytest.mark.parametrize("lemma", [lid.value for lid in gl.LemmaId])
def test_hunt_equals_the_labelled_hunt_over_the_benchmark_sizes(lemma, monkeypatch, capsys):
    for n, m in HUNT_SIZES:
        argv = ["hunt", "--order", str(n), "--gammas", str(m), "--lemma", lemma,
                "--hypotheses", "--json"]
        got, labelled = _hunt_and_labelled_hunt(monkeypatch, capsys, argv)
        assert got == labelled, (n, m)


@pytest.mark.parametrize("argv,code", [
    # the order-4 and order-5 refutations of the catalog entries as written
    ("--order 4 --gammas 1 --lemma l-principal-left-agss --hypotheses", 1),
    ("--order 5 --gammas 1 --lemma t1-union-construction --hypotheses --allow-large", 1),
    *((f"--order {n} --gammas {m} --lemma {lemma} --hypotheses --filter {f}", None)
      for n, m in ((2, 2), (3, 1))
      for lemma in ("l-medial", "l-interior-iff-right", "l-gg-bi", "t-semilattice")
      for f in ("no-left-identity", "non-associative")),
])
def test_hunt_equals_the_labelled_hunt(argv, code, monkeypatch, capsys):
    got, labelled = _hunt_and_labelled_hunt(monkeypatch, capsys,
                                            ["hunt", *argv.split(), "--json"])
    assert got == labelled
    assert code is None or got[0] == code


# a proved entry's hunt against the searched hunt: the same stream, every
# structure through verify, as theorems.hunt reads it when nothing is proved

def _searched_hunt(source, lid, refused=None):
    for G in source:
        v = gl.verify(G, lid)
        if v.status is gl.LemmaStatus.COUNTEREXAMPLE:
            return G, v
        if v.status is gl.LemmaStatus.REFUSED and refused is not None:
            refused.append(G)
    return None


@pytest.mark.parametrize("lemma", ["l-medial", "l-paramedial"])
def test_a_proved_hunt_equals_the_searched_hunt(lemma, monkeypatch, capsys):
    assert gl.LemmaId(lemma).proved
    for n, m in (*HUNT_SIZES, (4, 1), (3, 3)):
        for filters in ([], ["--filter", "non-associative"]):
            argv = ["hunt", "--order", str(n), "--gammas", str(m), "--lemma", lemma,
                    *filters, "--json"]
            got = run(argv), capsys.readouterr().out
            with monkeypatch.context() as patched:
                patched.setattr(cli, "hunt", _searched_hunt)
                searched = run(argv), capsys.readouterr().out
            assert got == searched, (n, m, filters)


def test_a_proved_hunt_answers_where_every_check_would_be_refused(capsys):
    # 6**4 * 25**3 medial instances, above core.MAX_LAW_INSTANCES: the searched hunt
    # would count every structure of its stream as refused and never end
    argv = ["hunt", "--order", "6", "--gammas", "25", "--lemma", "l-medial", "--allow-large"]
    assert run(argv) == 0
    assert capsys.readouterr().out == "no counterexample\n"
    # the search's own limits and the hunt-scope limit still come first
    assert run(["hunt", "--order", "6", "--gammas", "26", "--lemma", "l-medial",
                "--allow-large"]) == 2
    assert run(["hunt", "--order", "21", "--gammas", "1", "--lemma", "l-medial",
                "--allow-large"]) == 2
    assert "refused beyond" in capsys.readouterr().err


# the hunt against its other oracle: the same hunt over a stream without the
# entry's hypotheses, where every structure outside them is not applicable

@pytest.mark.parametrize("lid", list(gl.LemmaId), ids=lambda lid: lid.value)
def test_a_hunt_searches_its_entrys_hypotheses_with_or_without_the_flag(
        lid, monkeypatch, capsys):
    argv = ["hunt", "--order", "2", "--gammas", "1", "--lemma", lid.value]
    for filters in ([], ["non-associative"]):
        want = frozenset({*lid.hypotheses, *map(gl.Filter, filters)})
        for flag in ([], ["--hypotheses"]):
            extra = [a for f in filters for a in ("--filter", f)] + flag
            _, specs = _spied_hunt(monkeypatch, capsys, argv + extra)
            assert [spec.filters for spec in specs] == [want], extra


@pytest.mark.parametrize("lemma", [lid.value for lid in gl.LemmaId])
def test_hunt_equals_the_hunt_over_the_unrestricted_stream(lemma, monkeypatch, capsys):
    for n, m in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1)):
        for filters in ([], ["non-associative"]):
            argv = ["hunt", "--order", str(n), "--gammas", str(m), "--lemma", lemma,
                    *(a for f in filters for a in ("--filter", f)), "--json"]
            got, _ = _spied_hunt(monkeypatch, capsys, argv)
            unrestricted, _ = _spied_hunt(
                monkeypatch, capsys, argv,
                lambda spec: replace(spec, filters=frozenset(map(gl.Filter, filters))))
            assert got == unrestricted, (n, m, filters)


def test_a_hunt_whose_filter_contradicts_a_hypothesis_exits_2_before_searching(
        monkeypatch, capsys):
    monkeypatch.setattr(cli, "enumerate_structures",
                        lambda spec: pytest.fail("a contradictory spec was searched"))
    argv = ["hunt", "--order", "3", "--gammas", "1", "--lemma", "l1-left-identity-collapse",
            "--filter", "no-left-identity"]
    for extra in ([], ["--hypotheses"], ["--json"]):
        assert run(argv + extra) == 2
        assert capsys.readouterr() == (
            "", "error: has-left-identity and no-left-identity are mutually exclusive\n")


@pytest.mark.parametrize("fixture,lemma,shape", [
    ("principal_left_not_left4", "l-principal-left-agss", "--order 4 --gammas 1"),
    ("union_not_ideal5", "t1-union-construction", "--order 5 --gammas 1 --allow-large"),
])
def test_hunt_finds_the_shipped_refutation_fixture(fixture, lemma, shape, capsys):
    assert run(["hunt", *shape.split(), "--lemma", lemma, "--hypotheses", "--json"]) == 1
    found = _json_out(capsys)["counterexample"]
    assert gl.parse(found["structure"]) == gl.load_fixture(fixture)
    assert run(["verify", str(gl.fixture_path(fixture)), "--lemma", lemma, "--json"]) == 1
    assert _json_out(capsys)["lemmas"][0]["witness"] == found["witness"]


# ---------------------------------------------------------------------------
# error paths

def test_usage_errors(capsys):
    assert run([]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["search", "--order", "2"]) == 2  # missing --gammas
    capsys.readouterr()


def test_parse_error_exit(tmp_path, capsys):
    broken = tmp_path / "broken.gag"
    broken.write_text("order 2\ngammas 1\ngamma g\n1 9\n1 1\n", encoding="utf-8")
    assert run(["check", str(broken)]) == 2
    assert "parse error: line 4" in capsys.readouterr().err


def _wide(tmp_path, gammas=300):
    # one element under many gammas: medial and paramedial have gammas**3 instances
    doc = tmp_path / "wide.gag"
    doc.write_text(f"order 1\ngammas {gammas}\n"
                   + "".join(f"gamma g{i}\n1\n" for i in range(gammas)), encoding="utf-8")
    return str(doc)


@pytest.mark.parametrize("gammas,instances", [(300, 27000000), (4000, 64000000000)])
def test_check_refuses_an_oversized_law_scan(tmp_path, capsys, monkeypatch, gammas, instances):
    # every law's size is checked before the first verdict pass, so check names
    # medial's refusal and runs no pass, though at order 1 a law that fits its bound
    # holds without one
    passes = []

    def recording(law, G):
        passes.append(law.value)
        return True
    monkeypatch.setattr(gl.Law, "holds", recording)
    assert run(["check", _wide(tmp_path, gammas)]) == 2
    out, err = capsys.readouterr()
    assert (out, passes) == ("", [])
    assert err == f"error: medial scan over {instances} instances refused beyond 16777216\n"


def test_search_refuses_an_oversized_canonical_order_at_once(capsys):
    t0 = time.perf_counter()
    code = run(["search", "--order", "9", "--gammas", "1", "--filter", "regular",
                "--canonical", "--count", "--allow-large"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: canonical form over 9!·1! relabellings refused beyond 40320\n"


def test_search_refuses_an_oversized_gamma_relabelling_at_once(capsys):
    # 14! gamma orders of one element: the bound counts relabellings, not the order
    t0 = time.perf_counter()
    code = run(["search", "--order", "1", "--gammas", "14", "--canonical", "--count",
                "--allow-large"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: canonical form over 1!·14! relabellings refused beyond 40320\n"


@pytest.mark.parametrize("order,limit,message", [
    ("65", "0", "search over 4225 table cells refused beyond 900"),
    ("32", "1", "search over 1024 table cells refused beyond 900"),
])
def test_search_refuses_an_oversized_shape_at_once(capsys, order, limit, message):
    t0 = time.perf_counter()
    code = run(["search", "--order", order, "--gammas", "1", "--count", "--allow-large",
                "--limit", limit])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_search_refuses_a_law_filtered_shape_by_its_cells_at_once(capsys):
    # (64,9) has 21,233,664 left-invertive instances, but the cell bound refuses it first
    t0 = time.perf_counter()
    code = run(["search", "--order", "64", "--gammas", "9", "--filter", "left-invertive",
                "--count", "--allow-large"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: search over 36864 table cells refused beyond 900\n"


def test_above_the_kernel_ceiling_ideals_are_refused_and_verify_refuses_each_enumerating_entry(
        tmp_path, capsys):
    # ideals and semilattice refuse an order above MAX_ENUM_ORDER before the
    # powerset kernel (24·2**21 bytes here) is built; verify reports each entry
    doc = tmp_path / "order21.gag"
    doc.write_text("order 21\ngammas 1\ngamma g\n" + ("1 " * 20 + "1\n") * 21, encoding="utf-8")
    for argv in (["ideals", str(doc), "--kind", "left"], ["semilattice", str(doc)]):
        t0 = time.perf_counter()
        code = run(argv)
        assert time.perf_counter() - t0 < 1.0, argv
        assert code == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err == "error: subset enumeration over 21 elements refused beyond 20\n", argv
    t0 = time.perf_counter()
    code = run(["verify", str(doc)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [lid.value for lid in gl.LemmaId]
    assert [line for line in lines if "refused" in line] == [
        f"{lid.value}: refused (subset enumeration over 21 elements refused beyond 20)"
        for lid in ENUMERATING_UNLESS_REGULAR]
    assert not any("counterexample" in line for line in lines)


def test_verify_reports_the_order_24_counterexample_beside_the_refused_entries(
        tmp_path, capsys, product24):
    doc = str(tmp_path / "product24.gag")
    gl.write_file(doc, product24)
    line = ("l-principal-left-agss: counterexample subset={1,13} clause=LeftAbsorb "
            "at=(19 g1 13) element=19")
    assert run(["verify", doc, "--lemma", "l-principal-left-agss"]) == 1
    assert capsys.readouterr() == (line + "\n", "")
    assert run(["verify", doc]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 24 and line in lines
    assert [x for x in lines if "refused" in x] == [
        f"{lid.value}: refused (subset enumeration over 24 elements refused beyond 20)"
        for lid in ENUMERATING_UNLESS_REGULAR]
    assert run(["ideals", doc, "--kind", "left"]) == 2
    assert capsys.readouterr() == (
        "", "error: subset enumeration over 24 elements refused beyond 20\n")


def test_a_16000_gamma_document_is_parsed_and_refused_quickly(tmp_path, capsys):
    doc = tmp_path / "wide16000.gag"
    doc.write_text("order 1\ngammas 16000\n" +
                   "".join(f"gamma g{i}\n1\n" for i in range(16000)), encoding="utf-8")
    t0 = time.perf_counter()
    G = gl.parse_file(doc)
    assert time.perf_counter() - t0 < 1.0
    assert G.gamma_names == tuple(f"g{i}" for i in range(16000))
    assert run(["verify", str(doc)]) == 2
    assert capsys.readouterr() == ("".join(
        f"{lid.value}: refused (left-invertive scan over 256000000 instances "
        "refused beyond 16777216)\n" for lid in gl.LemmaId), "")


def test_hunt_refuses_an_order_above_the_kernel_ceiling_before_searching(monkeypatch, capsys):
    # every ideal entry would refuse every structure of order 21, and a
    # leaf-only filter may keep the first one from coming for minutes, so none
    # is searched
    real = cli.enumerate_structures

    def unsearched(spec):
        real(spec)  # the search's own limits are still checked at once
        return (pytest.fail("the order-21 stream was searched") for _ in [None])
    monkeypatch.setattr(cli, "enumerate_structures", unsearched)
    argv = ["hunt", "--order", "21", "--gammas", "1", "--lemma", "l-gg-regular",
            "--hypotheses", "--allow-large"]
    for extra in ([], ["--json"]):
        assert run(argv + extra) == 2
        assert capsys.readouterr() == (
            "", "error: subset enumeration over 21 elements refused beyond 20\n")
    # without --allow-large the search's own refusal comes first
    assert run(argv[:-1]) == 2
    assert capsys.readouterr() == ("", "error: search over order 21 with 1 gammas refused; "
                                       "set allow_large to override\n")


def _diagonal(tmp_path, n):
    # x·y = x if x = y, else 1: every subset holding 1 is a two-sided ideal
    doc = tmp_path / f"diagonal{n}.gag"
    rows = (" ".join(str(x + 1) if x == y else "1" for y in range(n)) for x in range(n))
    doc.write_text(f"order {n}\ngammas 1\ngamma g\n" + "\n".join(rows) + "\n",
                   encoding="utf-8")
    return str(doc)


def test_pairing_two_sided_ideals_refuses_beyond_the_bound_at_once(tmp_path, capsys):
    # order 8 has 128 two-sided ideals, whose triples would take minutes
    refusal = "pairing 128 two-sided ideals refused beyond 64"
    path = _diagonal(tmp_path, 8)
    for argv, want in (
            # one refused entry is reported as its verdict
            (["verify", path, "--lemma", "t-semilattice"],
             (f"t-semilattice: refused ({refusal})\n", "")),
            (["semilattice", path], ("", f"error: {refusal}\n"))):
        t0 = time.perf_counter()
        code = run(argv)
        assert time.perf_counter() - t0 < 1.0, argv
        assert code == 2, argv
        assert capsys.readouterr() == want, argv
    assert run(["verify", path, "--lemma", "t-semilattice", "--json"]) == 2
    assert _json_out(capsys)["lemmas"] == [
        {"lemma": "t-semilattice", "status": "refused", "refusal": refusal}]
    # order 7 has 64, at the bound
    assert run(["verify", _diagonal(tmp_path, 7), "--lemma", "t-semilattice"]) == 0
    assert capsys.readouterr().out == "t-semilattice: holds\n"


def test_verify_reports_refused_entries_and_decides_the_rest(tmp_path, capsys):
    path = _diagonal(tmp_path, 8)
    t0 = time.perf_counter()
    text_code = run(["verify", path])
    assert time.perf_counter() - t0 < 1.0
    text, err = capsys.readouterr()
    json_code = run(["verify", path, "--json"])
    payload = _json_out(capsys)
    # a refused entry and no counterexample: exit 2, with every entry reported
    assert text_code == json_code == payload["exit_code"] == 2
    assert err == ""
    refusal = "pairing 128 two-sided ideals refused beyond 64"
    refused = [e for e in payload["lemmas"] if e["status"] == "refused"]
    assert refused == [{"lemma": lid, "status": "refused", "refusal": refusal} for lid in
                       ("l-semiprime-regular", "t-semilattice", "l-comm-ideals-regular")]
    assert len(payload["lemmas"]) - len(refused) == 21
    # text and JSON agree, one line per entry
    lines = text.splitlines()
    assert len(lines) == 24
    for entry, line in zip(payload["lemmas"], lines):
        assert line.startswith(f"{entry['lemma']}: {entry['status']}")
    assert "t-semilattice: refused (pairing 128 two-sided ideals refused beyond 64)" in lines


@pytest.mark.parametrize("document,refused", [
    (lambda tmp_path: _diagonal(tmp_path, 8),
     ["l-semiprime-regular", "t-semilattice", "l-comm-ideals-regular"]),
    (_wide, ["l-medial", "l-paramedial"]),
], ids=["diagonal8", "wide300"])
def test_a_refused_entry_reads_the_same_alone_and_in_the_whole_catalog(
        document, refused, tmp_path, capsys):
    path = document(tmp_path)
    verdicts = gl.verify_all(gl.parse_file(path))
    assert [lid.value for lid, v in verdicts.items()
            if v.status is gl.LemmaStatus.REFUSED] == refused
    assert run(["verify", path]) == 2
    text = capsys.readouterr().out.splitlines()
    assert run(["verify", path, "--json"]) == 2
    entries = _json_out(capsys)["lemmas"]
    lines = {e["lemma"]: line for e, line in zip(entries, text)}
    entries = {e["lemma"]: e for e in entries}
    for lemma in refused:
        lid = gl.LemmaId(lemma)
        assert gl.verify(gl.parse_file(path), lid) == verdicts[lid]
        assert run(["verify", path, "--lemma", lemma]) == 2
        assert capsys.readouterr() == (lines[lemma] + "\n", "")
        assert run(["verify", path, "--lemma", lemma, "--json"]) == 2
        assert _json_out(capsys) == {"command": "verify", "file": path,
                                     "lemmas": [entries[lemma]], "exit_code": 2}


def test_verify_exits_1_on_a_counterexample_beside_a_refused_entry(monkeypatch, capsys):
    real = cli.verify_all

    def with_a_refusal(G):
        verdicts = real(G)
        verdicts[gl.LemmaId.T_SEMILATTICE] = gl.LemmaVerdict(gl.LemmaStatus.REFUSED,
                                                             refusal="refused here")
        return verdicts
    monkeypatch.setattr(cli, "verify_all", with_a_refusal)
    assert run(["verify", str(gl.fixture_path("interior_not_right3"))]) == 1
    assert "t-semilattice: refused (refused here)" in capsys.readouterr().out


def test_hunt_counts_refused_structures_and_goes_on(tmp_path, monkeypatch, capsys):
    G = gl.parse_file(_diagonal(tmp_path, 8))
    monkeypatch.setattr(cli, "enumerate_structures", lambda spec: iter([G, G]))
    argv = ["hunt", "--order", "8", "--gammas", "1", "--lemma", "t-semilattice"]
    text_code = run(argv)
    text = capsys.readouterr().out
    json_code = run(argv + ["--json"])
    payload = _json_out(capsys)
    assert text_code == json_code == 2
    assert payload == {"command": "hunt", "lemma": "t-semilattice", "counterexample": None,
                       "refused": 2}
    assert text == "no counterexample\nstructures refused: 2\n"
    cx = gl.load_fixture("interior_not_right3")
    monkeypatch.setattr(cli, "enumerate_structures", lambda spec: iter([G, cx]))
    assert run(["hunt", "--order", "8", "--gammas", "1", "--lemma", "l-interior-iff-right",
                "--json"]) == 1
    assert "refused" not in _json_out(capsys)


@pytest.mark.parametrize("argv", [
    ["ideals", "FILE", "--kind", "left"],
    ["verify", "FILE"],
    ["semilattice", "FILE"],
    ["hunt", "--order", "2", "--gammas", "1", "--lemma", "c-ideal-bi"],
], ids=lambda argv: argv[0])
def test_enumerating_commands_take_no_limit(gamma5_path, capsys, argv):
    # the enumeration bound is fixed; only search has a --limit, on its stream
    argv = [gamma5_path if a == "FILE" else a for a in argv]
    assert run(argv) in (0, 1)
    capsys.readouterr()
    assert run(argv + ["--limit", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --limit 5" in err


def _readme_commands():
    """The argv of each ``gaglab`` line in README's command-line block."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("gaglab ")]


def test_readme_commands_run(gamma5_path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    commands = _readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        argv = [gamma5_path if a == "FILE" else a for a in argv]
        if "--emit" in argv:
            argv[argv.index("--emit") + 1] = str(tmp_path / "out")
        assert run(argv) in (0, 1), argv
        capsys.readouterr()


def test_missing_file_exit(capsys):
    assert run(["check", "no-such-file.gag"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("case", ["directory", "missing", "emit-under-a-file"])
def test_an_os_error_is_one_line_and_exit_2(tmp_path, capsys, case):
    (tmp_path / "plain").write_text("", encoding="utf-8")
    argv, message = {
        "directory": (["verify", str(tmp_path)],
                      f"[Errno 21] Is a directory: '{tmp_path}'"),
        "missing": (["check", str(tmp_path / "absent.gag")],
                    f"[Errno 2] No such file or directory: '{tmp_path / 'absent.gag'}'"),
        "emit-under-a-file": (["search", "--order", "1", "--gammas", "1",
                               "--emit", str(tmp_path / "plain" / "out")],
                              f"[Errno 20] Not a directory: '{tmp_path / 'plain' / 'out'}'"),
    }[case]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_search_guard_is_usage_error(capsys):
    assert run(["search", "--order", "9", "--gammas", "1", "--count"]) == 2
    assert "refused" in capsys.readouterr().err


def test_usage_error_leaves_the_parser_reusable(gamma5_path, capsys):
    # the parser is built once per process; an earlier usage error must not
    # change how a later request is parsed
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    fresh = subprocess.run([sys.executable, "-m", "gaglab", "check", gamma5_path],
                           capture_output=True, text=True, env=env)
    assert run(["check", "--no-such-flag"]) == 2
    capsys.readouterr()
    assert run(["check", gamma5_path]) == fresh.returncode == 0
    assert capsys.readouterr().out == fresh.stdout
