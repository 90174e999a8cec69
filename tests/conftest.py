"""A wall-clock limit on every test, so that a fault which stops a loop from
ending (say, a kernel that never lets a path leave the wall) fails the test
instead of hanging the suite.

The limit covers a test's whole run, the set-up of the module-scoped
fixtures it is the first to use included: those compute the scalar
references of the near-wall tests.  It needs SIGALRM, so it is off where
the platform has none.
"""

import signal

import pytest

TEST_TIME_LIMIT_S = 120  # the slowest test takes about 15 s


class TimeLimitExceeded(Exception):
    pass


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{item.nodeid} ran past {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
