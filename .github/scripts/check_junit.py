"""Check a tier-1 JUnit XML report against the by-design failures in ROADMAP.md.

Usage: python .github/scripts/check_junit.py REPORT.xml [ROADMAP.md]

The "## Failing tests" section of ROADMAP.md names each test that fails by
design as a bold, backticked entry.  Exit 0 when exactly those tests fail;
exit 1 on any other failure, error or collection error, and also when a
listed test passes or is missing, so the list cannot go stale.
"""

import re
import sys
import xml.etree.ElementTree as ET


def expected_failures(roadmap: str) -> set:
    section = roadmap.split("\n## Failing tests\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^- \*\*`(test_\w+)`", section, flags=re.MULTILINE))


def failed_tests(report: str) -> set:
    failed = set()
    for case in ET.parse(report).getroot().iter("testcase"):
        if case.find("failure") is not None or case.find("error") is not None:
            failed.add((case.get("classname"), case.get("name")))
    return failed


def main(argv) -> int:
    report = argv[1]
    roadmap = argv[2] if len(argv) > 2 else "ROADMAP.md"
    with open(roadmap, encoding="utf-8") as f:
        expected = expected_failures(f.read())
    failed = failed_tests(report)
    unexpected = sorted(f"{module}::{name}" for module, name in failed if name not in expected)
    stale = sorted(expected - {name for _, name in failed})
    for test in unexpected:
        print(f"unexpected failure or error: {test}")
    for name in stale:
        print(f"listed in ROADMAP.md 'Failing tests' but did not fail: {name}")
    print(f"{len(failed)} failed, {len(expected)} expected by design")
    return 1 if unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
