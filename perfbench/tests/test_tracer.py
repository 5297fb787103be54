"""The tracer's own accounting, and that tracing leaves the package as it found it.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""
import json
import sys
from pathlib import Path

import pytest

import workloads
from tracer import MODULES, Tracer, instrument

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_nested_call_tree():
    clock = FakeClock()
    tr = Tracer(clock)

    def tick(seconds):
        clock.now += seconds

    leaf = tr.wrap(lambda: tick(2), "leaf")

    def mid_body():
        tick(1)
        leaf()
        tick(3)
        leaf()

    mid = tr.wrap(mid_body, "mid")

    def top_body():
        tick(5)
        mid()
        leaf()
        tick(1)

    top = tr.wrap(top_body, "top")
    top()
    top()
    assert tr.layers == {"leaf": [6, 12.0, 12.0], "mid": [2, 16.0, 8.0],
                         "top": [2, 32.0, 12.0]}
    assert tr.stack == []


def test_a_raising_call_still_closes_its_span():
    clock = FakeClock()
    tr = Tracer(clock)

    def boom():
        clock.now += 4
        raise ValueError("boom")

    inner = tr.wrap(boom, "inner")

    def outer_body():
        clock.now += 1
        with pytest.raises(ValueError):
            inner()

    tr.wrap(outer_body, "outer")()
    assert tr.layers == {"inner": [1, 4.0, 4.0], "outer": [1, 5.0, 1.0]}
    assert tr.stack == []


def _bindings():
    return {(name, attr): value for name in MODULES
            for attr, value in vars(sys.modules[name]).items()}


def test_traced_requests_restore_every_binding(tmp_path):
    from gaglab import cli, fixture_path

    before = _bindings()
    tracer = Tracer()
    with instrument(tracer):
        assert cli.run is not before[("gaglab.cli", "run")]
        assert sys.modules["gaglab.theorems"].check_law is not \
            before[("gaglab.theorems", "check_law")]
        _, _, code, out = workloads.call(cli, workloads.hunt_argv("l-interior-iff-right", 3, 1))
        assert code == 1
        _, _, code, _ = workloads.call(cli, ["verify", str(fixture_path("gamma5")), "--json"])
        assert code == 0
        _, _, code, out = workloads.call(cli, ["search", "--order", "2", "--gammas", "1",
                                            "--filter", "left-invertive", "--canonical",
                                            "--count", "--json"])
        assert (code, json.loads(out)["count"]) == (0, 3)
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []

    m = tracer.metrics()
    assert m["cli.run.calls"][0] == 3
    assert m["io.parse.calls"][0] == 1
    assert m["theorems.verify.calls"][0] > 24
    assert m["search.leaf_rejects_prunable"][0] == 0
    # six labelled left-invertive (2,1) tables reach canonical_form, three are kept
    assert m["search.canonical_form.calls"][0] == 6
    assert m["search.emitted"][0] > 3
    assert sum(m[f"theorems.verdict.{s}"][0]
               for s in ("holds", "not_applicable", "counterexample")) \
        == m["theorems.verify.calls"][0]
    kinds = {s["kind"] for s in tracer.spans}
    assert kinds == {"request", "lemma"}
    assert json.loads(json.dumps(tracer.spans)) == tracer.spans


def test_bindings_are_restored_when_the_traced_block_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with instrument(Tracer()):
            raise RuntimeError("stop")
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def test_benchmark_declares_every_per_layer_metric():
    declared = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    assert declared == [*Tracer().metrics(), "trace.overhead"]
