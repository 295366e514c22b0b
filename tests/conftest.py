"""Shared pytest plumbing: the release-gate verdict block.

The hook below prints the verdict lines that the release gates register
through :func:`criteria.record_criterion` as a dedicated section of the
terminal summary, so every run ends with one pass/fail line per criterion.
"""

from criteria import _CRITERION_LINES


def pytest_terminal_summary(terminalreporter):
    if _CRITERION_LINES:
        terminalreporter.section("release gates")
        for number in sorted(_CRITERION_LINES):
            terminalreporter.write_line(_CRITERION_LINES[number])
