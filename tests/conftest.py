"""Shared pytest fixtures.

``cpu_time_bound``, used by every test, fails a test that runs past
``CPU_SECONDS_PER_TEST`` seconds of CPU time, so that a fault that keeps an
elimination, a tableau walk or a move search running fails the test
instead of hanging the suite.  It arms the process's
virtual interval timer (``ITIMER_VIRTUAL``, signal ``SIGVTALRM``), which
counts only this process's own CPU time, so a loaded machine does not
trip it, and it never clashes with a test that arms ``SIGALRM`` itself
(``assert_diagonal_profile_in_time`` in ``test_exactlin.py``, and
``test_cli.py``).  What it
raises is a ``BaseException``, not an ``Exception``: Hypothesis does not
take it for a failing example to shrink, so it ends the test at once.
"""

import signal

import pytest

# the slowest test takes under 6 s of CPU on an x86-64 VM
CPU_SECONDS_PER_TEST = 60


class CpuTimeExceeded(BaseException):
    """A test ran past its bound of CPU time."""


@pytest.fixture(autouse=True)
def cpu_time_bound():
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expired(signum, frame):
        raise CpuTimeExceeded(f"test ran past {CPU_SECONDS_PER_TEST} s of CPU time")

    previous = signal.signal(signal.SIGVTALRM, expired)
    signal.setitimer(signal.ITIMER_VIRTUAL, CPU_SECONDS_PER_TEST)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, previous)
