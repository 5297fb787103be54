"""The frozen corpus and the pinned answers agree with each other and with the package."""
import json
import random

import pytest

import corpus
import workloads
from gaglab import cli, load_fixture, parse


@pytest.fixture(scope="module")
def entries():
    return corpus.load()


@pytest.fixture(scope="module")
def pins():
    return workloads.load_pins()


def test_corpus_shape(entries):
    ids = [eid for eid, _ in entries]
    assert len(ids) == len(set(ids)) == 1095 + 4 + 24
    orders = sorted({len(T[0]) for eid, T in entries if eid.startswith("product-")})
    assert orders == [9]


def test_naive_check_rejects_a_broken_entry():
    T = corpus.cells_to_tables("000000000000000000", 3, 2)
    assert corpus.left_invertive(T)
    assert not corpus.left_invertive(corpus.cells_to_tables("012012012000000000", 3, 2))


def test_relabelling_keeps_the_law(entries):
    rng = random.Random(3)
    for _, T in entries[::50]:
        assert corpus.left_invertive(corpus.relabel(T, rng))


def _pinned_tally(catalog, ids):
    tally = {lemma: {} for lemma in catalog["lemmas"]}
    for eid in ids:
        for lemma, code in zip(catalog["lemmas"], catalog["verdicts"][eid]):
            status = {"H": "holds", "C": "counterexample"}.get(code, "not-applicable")
            tally[lemma][status] = tally[lemma].get(status, 0) + 1
    return tally


def test_tally_is_the_sum_of_the_pinned_verdicts(pins):
    catalog = pins["catalog"]
    assert _pinned_tally(catalog, catalog["verdicts"]) == catalog["tally"]


def _tally(items, seed, tmp_path):
    rng = random.Random(seed)
    tally = {}
    for eid, T in items:
        path = tmp_path / f"{seed}-{eid}.gag"
        path.write_text(corpus.to_gag(corpus.relabel(T, rng)), encoding="utf-8")
        *_, out = workloads.call(cli, ["verify", str(path), "--json"])
        workloads.add_to_tally(tally, json.loads(out))
    return tally


def test_two_seeds_give_the_same_tally(entries, pins, tmp_path):
    sample = [e for e in entries if not e[0].startswith("product-")][::4]
    first = _tally(sample, 1, tmp_path)
    assert first == _tally(sample, 2, tmp_path)
    assert first == _pinned_tally(pins["catalog"], [eid for eid, _ in sample])


def test_enumerate_pin(pins):
    assert pins["enumerate"] == {"command": "search", "count": 331}


def test_hunt_pins_reproduce_the_red_criterion(pins, entries):
    refuted = pins["hunt"]["refuted"]
    assert {k: v["size"] for k, v in refuted.items()} == {
        "l-interior-iff-right": [3, 1], "l-left-iff-right-regular": [3, 1],
        "t-regular-iff-idempotent-left": [3, 1]}
    frozen = dict(entries)
    expect = {"l-interior-iff-right": "interior_not_right3",
              "l-left-iff-right-regular": "left_not_right_regular3",
              "t-regular-iff-idempotent-left": "left_not_right_regular3"}
    for lemma, fixture in expect.items():
        found = parse(refuted[lemma]["output"]["counterexample"]["structure"])
        assert found.tables == load_fixture(fixture).tables == frozen[f"fixture-{fixture}"]
    assert refuted["l-interior-iff-right"]["output"]["counterexample"]["witness"] == {
        "subset": ["1", "3"], "interior": True, "right": False}
