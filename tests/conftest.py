"""Shared test configuration.

Collects the acceptance-criteria verdict lines and replays them in the
terminal summary, so a plain `pytest -v` run ends with one pass/fail line
per criterion regardless of output capturing.  Each test starts and ends
without a kept process pool, so that no pool, nor a test's stand-in for
one, carries over from one test to the next.
"""

import pytest
from hypothesis import settings

from pulseguard.ensemble import _drop_pool

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")

_ACCEPTANCE_LINES: list[str] = []


def record_verdict(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)


@pytest.fixture(autouse=True)
def no_kept_pool():
    _drop_pool()
    yield
    _drop_pool()


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.line(line)
