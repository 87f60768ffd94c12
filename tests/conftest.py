"""Per-test limits: a test still running after TEST_WALL_LIMIT seconds, or
whose resident memory grows by more than TEST_MEMORY_LIMIT bytes, fails
instead of hanging the suite or exhausting the machine.  A stabilizer chain
that places wrong residues can loop for ever, or grow without bound, and
either then shows as a failure.  Both are polled every POLL_INTERVAL
seconds from SIGALRM; resident memory is read from /proc/self/statm."""

import os
import signal
import time
import traceback

import pytest

TEST_WALL_LIMIT = 60
TEST_MEMORY_LIMIT = 1 << 30
POLL_INTERVAL = 0.25
PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")


class LimitExceeded(BaseException):
    """Raised from SIGALRM.  Not an Exception, so hypothesis does not take
    it for a failing example and rerun the hang while shrinking."""


def _resident_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * PAGE_SIZE


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    start, baseline = time.monotonic(), _resident_bytes()

    def poll(signum, frame):
        where = f"{frame.f_code.co_filename}:{frame.f_lineno}"
        if time.monotonic() - start > TEST_WALL_LIMIT:
            raise LimitExceeded(f"{item.nodeid} ran past {TEST_WALL_LIMIT} s, in {where}")
        if _resident_bytes() - baseline > TEST_MEMORY_LIMIT:
            raise LimitExceeded(f"{item.nodeid} grew past {TEST_MEMORY_LIMIT >> 20} MB, in {where}")

    previous = signal.signal(signal.SIGALRM, poll)
    signal.setitimer(signal.ITIMER_REAL, POLL_INTERVAL, POLL_INTERVAL)
    try:
        return (yield)
    except LimitExceeded as exc:
        # the interrupted frames may lack line numbers, which pytest's
        # report cannot render, so the failure is raised afresh; they are
        # cleared first, or the next test would start with what they hold
        traceback.clear_frames(exc.__traceback__)
        raise LimitExceeded(*exc.args) from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
