import json

import pytest

import gaglab as gl
from gaglab import cli
from gaglab.cli import run


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


def test_closure_unknown_label_is_usage_error(gamma5_path, capsys):
    code = run(["closure", gamma5_path, "--elements", "9", "--kind", "left"])
    assert code == 2
    assert "unknown element label" in capsys.readouterr().err


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


def test_search_canonical_flag(capsys):
    code = run(["search", "--order", "2", "--gammas", "2",
                "--filter", "left-invertive", "--canonical", "--count"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "6"


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


def test_missing_file_exit(capsys):
    assert run(["check", "no-such-file.gag"]) == 2
    capsys.readouterr()


def test_search_guard_is_usage_error(capsys):
    assert run(["search", "--order", "9", "--gammas", "1", "--count"]) == 2
    assert "refused" in capsys.readouterr().err
