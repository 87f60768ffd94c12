"""Per-test wall limit: a test still running after TEST_WALL_LIMIT seconds
fails instead of hanging the suite.  A stabilizer chain that places wrong
residues can loop for ever, and a hang then shows as a failure."""

import signal

import pytest

TEST_WALL_LIMIT = 60


class WallLimitExceeded(BaseException):
    """Raised from SIGALRM.  Not an Exception, so hypothesis does not take
    it for a failing example and rerun the hang while shrinking."""


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    def expire(signum, frame):
        where = f"{frame.f_code.co_filename}:{frame.f_lineno}"
        raise WallLimitExceeded(f"{item.nodeid} ran past {TEST_WALL_LIMIT} s, in {where}")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_WALL_LIMIT)
    try:
        return (yield)
    except WallLimitExceeded as exc:
        # the interrupted frames may lack line numbers, which pytest's
        # report cannot render, so the failure is raised afresh
        raise WallLimitExceeded(*exc.args) from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
