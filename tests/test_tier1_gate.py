"""The CI gate over pytest's JUnit report, fed synthetic reports."""
import importlib.util
from pathlib import Path
from xml.sax.saxutils import quoteattr

import pytest

GATE = Path(__file__).resolve().parents[1] / ".github" / "check_tier1.py"
_spec = importlib.util.spec_from_file_location("check_tier1", GATE)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

_TABLES = "((((0, 0, 0), (0, 0, 0), (0, 1, 0)),), "
_REFUTED = {"l-interior-iff-right": "{'subset': 5, 'interior': True, 'right': False}",
            "l-left-iff-right-regular": "{'subset': 3, 'left': True, 'right': False}",
            "t-regular-iff-idempotent-left": "{'regular': True, 'subset': 3, 'product': 1}"}


def _red_message(refuted):
    failures = ", ".join(f"'{lid}': {_TABLES}{w})" for lid, w in refuted.items())
    return ("AssertionError: statements falsified by exhaustive search at order <= 3, "
            "gammas <= 2 (first counterexamples shipped as fixtures interior_not_right3.gag / "
            f"left_not_right_regular3.gag): {{{failures}}}\nassert not {{{failures[:40]}...}}")


def _report(tmp_path, message, passing_end="/>"):
    red = (f'<testcase classname="tests.test_acceptance" '
           f'name="test_criterion_3_lemma_catalog_hunt">'
           f'<failure message={quoteattr(message)}>traceback</failure></testcase>')
    xml = (f'<testsuites><testsuite name="pytest">'
           f'<testcase classname="tests.test_core" name="test_passes"{passing_end}{red}'
           f'</testsuite></testsuites>')
    path = tmp_path / "junit.xml"
    path.write_text(xml, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("message,code", [
    (_red_message(_REFUTED), 0),
    ("AttributeError: 'LemmaVerdict' object has no attribute 'note'", 1),
    (_red_message({**_REFUTED, "l-bi-product": "{'subset': 7, 'subset_b': 3, 'product': 5}"}), 1),
    (_red_message({k: _REFUTED[k] for k in list(_REFUTED)[:2]}), 1),
], ids=["as-stated", "crash", "fourth-id", "two-ids"])
def test_gate_checks_the_red_failure_message(tmp_path, message, code):
    assert gate.main(_report(tmp_path, message)) == code


def test_gate_reads_the_witness_keys_apart_from_the_ids():
    line = _red_message({"l-interior-iff-right": "{'subset': 5, 'at': (2, 0, 1)}"}).split("\n")[0]
    assert gate.refuted_ids(line) == ["l-interior-iff-right"]


@pytest.mark.parametrize("kind", ["pytest.skip", "pytest.xfail"])
def test_gate_refuses_a_skipped_test(tmp_path, kind):
    skipped = f'><skipped type="{kind}" message="reason">reason</skipped></testcase>'
    assert gate.main(_report(tmp_path, _red_message(_REFUTED), skipped)) == 1
