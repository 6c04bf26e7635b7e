import sys
import warnings

import pytest


@pytest.hookimpl(wrapper=True, tryfirst=True)
def pytest_runtest_makereport():
    # When a hypothesis test fails, its plugin's report hook imports libcst,
    # and with mypy_extensions installed that import warns that
    # mypy_extensions.TypedDict is deprecated.  Under -W error the warning
    # ends the session in an INTERNALERROR, so only it is ignored here.
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore",
            message="mypy_extensions.TypedDict is deprecated",
            category=DeprecationWarning,
        )
        return (yield)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if results:
        terminalreporter.section("acceptance criteria")
        for line in results:
            terminalreporter.write_line(line)
