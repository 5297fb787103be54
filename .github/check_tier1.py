"""Pass only when the one tier-1 failure is the deliberate red test, failing as stated.

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors --junitxml=junit.xml
    python .github/check_tier1.py junit.xml

Reads pytest's JUnit XML report.  Exits 1 when any other test fails or
errors, and also when the red test passes: it states the catalog's claims as
written, three of which are refuted, so it must stay red until they change.
The red test must fail on its own assertion, with exactly those three
catalog ids refuted; a crash or a fourth refuted id also exits 1.  A skipped
or xfailed test also exits 1, since a test turned into a skip checks nothing.
"""
import re
import sys
import xml.etree.ElementTree as ET

RED = "tests.test_acceptance::test_criterion_3_lemma_catalog_hunt"
RED_MESSAGE = "AssertionError: statements falsified by exhaustive search"
REFUTED = ["l-interior-iff-right", "l-left-iff-right-regular", "t-regular-iff-idempotent-left"]


def refuted_ids(line: str) -> list[str]:
    """The ids keyed in the failure message's first line, in order: each keys
    a (tables, witness) pair, and the tables open with three parentheses."""
    return re.findall(r"'([\w-]+)': \(\(\(\(", line)


def main(path: str) -> int:
    cases = {f"{case.get('classname')}::{case.get('name')}": case
             for case in ET.parse(path).getroot().iter("testcase")}
    failed = sorted(name for name, case in cases.items()
                    if case.find("failure") is not None or case.find("error") is not None)
    skipped = sorted(name for name, case in cases.items() if case.find("skipped") is not None)
    print(f"{len(cases)} tests, failed: {', '.join(failed) or 'none'}")
    if skipped:
        print(f"expected no skipped test: {', '.join(skipped)}")
        return 1
    if failed != [RED]:
        print(f"expected exactly one failure: {RED}")
        return 1
    failure = cases[RED].find("failure")
    first = "" if failure is None else failure.get("message", "").split("\n", 1)[0]
    if not first.startswith(RED_MESSAGE) or sorted(refuted_ids(first)) != REFUTED:
        print(f"expected {RED} to fail with '{RED_MESSAGE} ...' refuting exactly "
              f"{', '.join(REFUTED)}; got: {first[:300] or 'no message'}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
