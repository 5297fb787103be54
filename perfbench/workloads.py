"""The three benchmark workloads and the checks of their answers.

Each workload is a closed loop with one client: requests go in-process
through ``gaglab.cli.run`` with stdout captured, and the next request starts
when the previous one returns.  A pass is one walk over the workload's
requests; ``run_pass`` times every request and checks every answer against
``data/pins.json``.

- ``catalog``: ``gaglab verify FILE --json`` on every entry of the frozen
  corpus, each relabelled by the seed.  The request is one verify call.
- ``enumerate``: one exhaustive, isomorphism-free count of the order-4
  left-invertive groupoids.  The request is that one search call.
- ``hunt``: for each catalog lemma a sweep of ``gaglab hunt --hypotheses``
  over six sizes, stopping at the first counterexample.  The request is one
  sweep.
"""
from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import corpus

PINS = corpus.DATA / "pins.json"
SIZES = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2))
ENUMERATE_ARGV = ["search", "--order", "4", "--gammas", "1", "--filter", "left-invertive",
                  "--canonical", "--count", "--json"]

# one letter per lemma verdict: status, or the hypothesis that was not met
VERDICT_CODES = {"holds": "H", "counterexample": "C"}
HYPOTHESIS_CODES = {"left-invertive": "l", "ag-star-star": "s", "regular": "r",
                    "left-identity": "i", "right-identity": "j"}


def call(cli, argv: list[str]) -> tuple[float, float, int, str]:
    """One request: (start, end, exit code, captured stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = perf_counter()
        code = cli.run(argv)
        end = perf_counter()
    return start, end, code, out.getvalue()


def hunt_argv(lemma: str, order: int, gammas: int) -> list[str]:
    return ["hunt", "--order", str(order), "--gammas", str(gammas), "--lemma", lemma,
            "--hypotheses", "--json"]


def verdict_codes(payload: dict) -> str:
    """The verify report as one letter per lemma, in report order."""
    return "".join(HYPOTHESIS_CODES[e["hypothesis_failed"]]
                   if e["status"] == "not-applicable" else VERDICT_CODES[e["status"]]
                   for e in payload["lemmas"])


def load_pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


def add_to_tally(tally: dict, payload: dict) -> None:
    """Count each lemma's verdict status of one verify report into ``tally``."""
    for e in payload["lemmas"]:
        counts = tally.setdefault(e["lemma"], {})
        counts[e["status"]] = counts.get(e["status"], 0) + 1


@dataclass
class PassResult:
    spans: list[tuple[float, float]] = field(default_factory=list)  # (start, end) per request
    failed: int = 0
    problems: list[str] = field(default_factory=list)   # first few failure reasons

    def fail(self, why: str):
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(why)


class Catalog:
    name = "catalog"
    seeded = True

    def __init__(self, seed: int, workdir: Path):
        pins = load_pins()["catalog"]
        self.lemmas = pins["lemmas"]
        self.tally = pins["tally"]
        rng = random.Random(seed)
        # a repeated set-up rewrites the files in place; creating them is paid once
        workdir.mkdir(parents=True, exist_ok=True)
        self.requests = []
        for eid, tables in corpus.load():
            path = workdir / f"{eid}.gag"
            path.write_text(corpus.to_gag(corpus.relabel(tables, rng)), encoding="utf-8")
            self.requests.append((str(path), pins["verdicts"][eid]))

    def run_pass(self, cli) -> PassResult:
        res = PassResult()
        tally = {}
        for path, expect in self.requests:
            t0 = perf_counter()
            try:
                start, end, code, out = call(cli, ["verify", path, "--json"])
                payload = json.loads(out)
                got = verdict_codes(payload)
                ok = ([e["lemma"] for e in payload["lemmas"]] == self.lemmas
                      and got == expect and code == payload["exit_code"]
                      and code == (1 if "C" in got else 0)
                      and all(("witness" in e) == (e["status"] == "counterexample")
                              for e in payload["lemmas"]))
            except Exception as exc:  # a raising request is a failed request
                res.spans.append((t0, perf_counter()))
                res.fail(f"{path}: {exc!r}")
                continue
            res.spans.append((start, end))
            if not ok:
                res.fail(f"{path}: verdicts {got}, expected {expect}, exit {code}")
                continue
            add_to_tally(tally, payload)
        if res.failed == 0 and tally != self.tally:
            res.fail("per-lemma verdict tally differs from the pinned tally")
        return res


class Enumerate:
    name = "enumerate"
    seeded = False  # the search is exhaustive

    def __init__(self, seed: int, workdir: Path):
        self.expect = load_pins()["enumerate"]

    def run_pass(self, cli) -> PassResult:
        res = PassResult()
        t0 = perf_counter()
        try:
            start, end, code, out = call(cli, ENUMERATE_ARGV)
            payload = json.loads(out)
        except Exception as exc:  # a raising request is a failed request
            res.spans.append((t0, perf_counter()))
            res.fail(repr(exc))
            return res
        res.spans.append((start, end))
        if code != 0 or payload != self.expect:
            res.fail(f"exit {code}, output {payload}, expected {self.expect}")
        return res


class Hunt:
    name = "hunt"
    seeded = False  # every sweep is exhaustive

    def __init__(self, seed: int, workdir: Path):
        pins = load_pins()["hunt"]
        self.lemmas = pins["lemmas"]
        self.refuted = pins["refuted"]

    def sweep(self, cli, lemma: str) -> str | None:
        """Run one lemma's sweep; None, or why it failed."""
        stop = self.refuted.get(lemma)
        for n, m in SIZES:
            _, _, code, out = call(cli, hunt_argv(lemma, n, m))
            payload = json.loads(out)
            if stop is not None and [n, m] == stop["size"]:
                if code != 1 or payload != stop["output"]:
                    return f"{lemma} at ({n},{m}): exit {code}, output differs from pin"
                return None
            if code != 0 or payload != {"command": "hunt", "lemma": lemma,
                                        "counterexample": None}:
                return f"{lemma} at ({n},{m}): exit {code}, unexpected counterexample"
        if stop is not None:
            return f"{lemma}: pinned counterexample not found"
        return None

    def run_pass(self, cli) -> PassResult:
        res = PassResult()
        for lemma in self.lemmas:
            t0 = perf_counter()
            try:
                problem = self.sweep(cli, lemma)
            except Exception as exc:  # a raising request is a failed request
                problem = f"{lemma}: {exc!r}"
            res.spans.append((t0, perf_counter()))
            if problem is not None:
                res.fail(problem)
        return res


WORKLOADS = {w.name: w for w in (Catalog, Enumerate, Hunt)}
