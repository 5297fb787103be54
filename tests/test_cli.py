import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gaglab as gl
from gaglab import cli
from gaglab.cli import run
from gaglab.ideals import _CLOSURE_KINDS, IdealKind


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
    assert gl.LemmaId.L1_LEFT_IDENTITY_COLLAPSE.verifier(G).witness == w
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


def test_check_refuses_an_oversized_law_scan(tmp_path, capsys):
    doc = tmp_path / "wide.gag"
    doc.write_text("order 1\ngammas 300\n" + "".join(f"gamma g{i}\n1\n" for i in range(300)),
                   encoding="utf-8")
    assert run(["check", str(doc)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: medial scan over 27000000 instances refused beyond 16777216\n"


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


def test_ideals_refuses_an_order_above_the_kernel_ceiling_at_once(tmp_path, capsys):
    # every command that enumerates refuses an order above MAX_ENUM_ORDER before
    # the powerset kernel (24·2**21 bytes here) is built
    doc = tmp_path / "order21.gag"
    doc.write_text("order 21\ngammas 1\ngamma g\n" + ("1 " * 20 + "1\n") * 21, encoding="utf-8")
    for argv in (["ideals", str(doc), "--kind", "left"], ["verify", str(doc)],
                 ["semilattice", str(doc)]):
        t0 = time.perf_counter()
        code = run(argv)
        assert time.perf_counter() - t0 < 1.0, argv
        assert code == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err == "error: subset enumeration over 21 elements refused beyond 20\n", argv


def _diagonal(tmp_path, n):
    # x·y = x if x = y, else 1: every subset holding 1 is a two-sided ideal
    doc = tmp_path / f"diagonal{n}.gag"
    rows = (" ".join(str(x + 1) if x == y else "1" for y in range(n)) for x in range(n))
    doc.write_text(f"order {n}\ngammas 1\ngamma g\n" + "\n".join(rows) + "\n",
                   encoding="utf-8")
    return str(doc)


def test_pairing_two_sided_ideals_refuses_beyond_the_bound_at_once(tmp_path, capsys):
    # order 8 has 128 two-sided ideals, whose triples would take minutes
    for argv in (["verify", "--lemma", "t-semilattice"], ["semilattice"]):
        argv = argv[:1] + [_diagonal(tmp_path, 8)] + argv[1:]
        t0 = time.perf_counter()
        code = run(argv)
        assert time.perf_counter() - t0 < 1.0, argv
        assert code == 2, argv
        assert capsys.readouterr() == (
            "", "error: pairing 128 two-sided ideals refused beyond 64\n"), argv
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
