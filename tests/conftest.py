"""Shared engines. Group construction dominates test cost, so the common
fields are built once per session and reused."""

import sys

import pytest

from toric_correlator import PGL2


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion."""
    mod = sys.modules.get("test_acceptance")
    criteria = getattr(mod, "CRITERIA", None) if mod else None
    if not criteria:
        return
    results = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            name = rep.nodeid.rsplit("::", 1)[-1]
            if name in criteria and getattr(rep, "when", "call") in ("call", "setup"):
                results[name] = "PASS" if status == "passed" else "FAIL"
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for name, desc in criteria.items():
        status = results.get(name, "SKIP")
        label = name.split("_")[1]
        terminalreporter.write_line(f"{status} {label} {desc}")


@pytest.fixture(scope="session")
def g3():
    return PGL2(3, 1)


@pytest.fixture(scope="session")
def g5():
    return PGL2(5, 1)


@pytest.fixture(scope="session")
def g7():
    return PGL2(7, 1)


@pytest.fixture(scope="session")
def g9():
    return PGL2(3, 2)


@pytest.fixture(scope="session")
def g25():
    return PGL2(5, 2)


@pytest.fixture(scope="session")
def g49():
    return PGL2(7, 2)

