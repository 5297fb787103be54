"""Pass only when the one tier-1 failure is the deliberate red test.

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors --junitxml=junit.xml
    python .github/check_tier1.py junit.xml

Reads pytest's JUnit XML report.  Exits 1 when any other test fails or
errors, and also when the red test passes: it states the catalog's claims as
written, three of which are refuted, so it must stay red until they change.
"""
import sys
import xml.etree.ElementTree as ET

RED = "tests.test_acceptance::test_criterion_3_lemma_catalog_hunt"


def main(path: str) -> int:
    cases = list(ET.parse(path).getroot().iter("testcase"))
    failed = sorted(f"{case.get('classname')}::{case.get('name')}" for case in cases
                    if case.find("failure") is not None or case.find("error") is not None)
    print(f"{len(cases)} tests, failed: {', '.join(failed) or 'none'}")
    if failed != [RED]:
        print(f"expected exactly one failure: {RED}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
