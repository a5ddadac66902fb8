"""Collects acceptance results and prints one pass/fail line per criterion."""

import re

import pytest

_CRITERION_RESULTS: dict[int, bool] = {}


@pytest.fixture(
    params=["\u0661", "\uff11", "1_0", "1" * 4301],
    ids=["arabic-indic-1", "fullwidth-1", "underscore", "over-length-cap"],
)
def int_lookalike(request):
    """A token int() reads as an integer that the text formats and --graph refuse:
    they read ASCII decimal digits only, at most 4300 of them."""
    return request.param


def pytest_runtest_logreport(report):
    match = re.search(r"::test_criterion_(\d+)", report.nodeid)
    if not match:
        return
    number = int(match.group(1))
    if report.failed:
        _CRITERION_RESULTS[number] = False
    elif report.when == "call" and report.passed:
        _CRITERION_RESULTS.setdefault(number, True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(_CRITERION_RESULTS):
        verdict = "PASS" if _CRITERION_RESULTS[number] else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {verdict}")
