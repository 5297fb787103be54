"""Regenerate the frozen corpus and the pinned answers from the package in src/.

    python3 perfbench/freeze.py

Writes ``perfbench/data/corpus.json`` and ``perfbench/data/pins.json``.  Both
are frozen: the benchmark reads them and never regenerates them, so a later
change to the package cannot move the catalog inputs or the answers they are
checked against.  Regenerate them only when a workload's definition changes.
"""
from __future__ import annotations

import json
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import workloads  # noqa: E402
from gaglab import cli, load_fixture  # noqa: E402
from gaglab.core import Law, check_law, is_regular  # noqa: E402
from gaglab.search import Filter, SearchSpec, enumerate_structures  # noqa: E402
from gaglab.theorems import LemmaId  # noqa: E402

FIXTURES = ("gamma5", "dot5", "interior_not_right3", "left_not_right_regular3")
PAIRS_PER_POOL = 8
PAIR_SEED = 10121923


def freeze_corpus() -> None:
    spec = SearchSpec(order=3, gammas=2, filters=frozenset({Filter.LEFT_INVERTIVE}))
    base = [G for G in enumerate_structures(spec)]
    agss = [i for i, G in enumerate(base) if check_law(G, Law.AG_STAR_STAR).holds]
    pools = {"left-invertive": list(range(len(base))),
             "ag-star-star": agss,
             "ag-star-star-regular": [i for i in agss if is_regular(base[i])]}
    rng = random.Random(PAIR_SEED)
    fixtures = {}
    for name in FIXTURES:
        G = load_fixture(name)
        fixtures[name] = {"order": G.order, "gammas": G.gamma_count,
                          "cells": corpus.tables_to_cells(G.tables)}
    data = {
        "about": "left-invertive bundles of shape (3,2) in search order, the shipped "
                 "fixtures, and index pairs into base whose direct products are order 9",
        "base": [corpus.tables_to_cells(G.tables) for G in base],
        "fixtures": fixtures,
        "products": {pool: [[rng.choice(ids), rng.choice(ids)] for _ in range(PAIRS_PER_POOL)]
                     for pool, ids in pools.items()},
    }
    (corpus.DATA / "corpus.json").write_text(json.dumps(data, indent=1) + "\n",
                                             encoding="utf-8")


def pin_catalog(workdir: Path) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    verdicts = {}
    tally = {}
    for eid, tables in corpus.load():
        path = workdir / f"{eid}.gag"
        path.write_text(corpus.to_gag(tables), encoding="utf-8")
        *_, out = workloads.call(cli, ["verify", str(path), "--json"])
        payload = json.loads(out)
        verdicts[eid] = workloads.verdict_codes(payload)
        workloads.add_to_tally(tally, payload)
    return {"lemmas": [lid.value for lid in LemmaId], "tally": tally, "verdicts": verdicts}


def pin_hunt() -> dict:
    lemmas = [lid.value for lid in LemmaId]
    refuted = {}
    for lemma in lemmas:
        for n, m in workloads.SIZES:
            _, _, code, out = workloads.call(cli, workloads.hunt_argv(lemma, n, m))
            if code == 1:
                refuted[lemma] = {"size": [n, m], "output": json.loads(out)}
                break
    return {"lemmas": lemmas, "refuted": refuted}


def main() -> None:
    freeze_corpus()
    workdir = ROOT / ".perfbench" / "freeze"
    try:
        pins = {"catalog": pin_catalog(workdir)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _, _, code, out = workloads.call(cli, workloads.ENUMERATE_ARGV)
    if code != 0:
        raise SystemExit(f"enumerate request exited {code}")
    pins["enumerate"] = json.loads(out)
    pins["hunt"] = pin_hunt()
    workloads.PINS.write_text(json.dumps(pins, indent=1, ensure_ascii=False) + "\n",
                              encoding="utf-8")


if __name__ == "__main__":
    main()
