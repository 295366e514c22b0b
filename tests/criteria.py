"""The release-gate verdict lines.

Each release-gate test registers one verdict line via
:func:`record_criterion`; ``tests/conftest.py`` prints the collected lines
as a section of the terminal summary.  The lines live in this uniquely
named module, not in ``conftest``: pytest imports every directory's
``conftest.py`` as the same module name, so an import from ``conftest``
would see whichever was imported last.
"""

_CRITERION_LINES: dict[int, str] = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    _CRITERION_LINES[number] = f"criterion {number:02d} {verdict} - {detail}"
