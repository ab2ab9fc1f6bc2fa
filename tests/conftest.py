"""A time limit on every test, so that a search or a simulation that stops
ending fails its test instead of hanging the suite."""

import signal

import pytest

# the slowest test takes a few seconds
TIME_LIMIT_S = 120


class TimeLimitExceeded(BaseException):
    """Raised in a test that ran past TIME_LIMIT_S.  Not an Exception, so
    neither the code under test nor Hypothesis catches it: Hypothesis
    would run a failing example again to shrink it, and hang again."""


def _expire(signum, frame):
    raise TimeLimitExceeded(f"the test ran longer than {TIME_LIMIT_S} s")


@pytest.fixture(autouse=True)
def time_limit():
    if not hasattr(signal, "SIGALRM"):  # no interval timers, as on Windows
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
