import itertools
import signal

import pytest
from hypothesis import settings, strategies as st

from hypertile import build

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

TEST_SECONDS = 120


class _TestTimeout(BaseException):
    """A test ran past TEST_SECONDS.  Not an Exception, so neither a
    hypothesis search (which would shrink it as a failing example) nor the
    code under test catches it; pytest records the test as failed."""


def _out_of_time(signum, frame):
    raise _TestTimeout(f"test ran past {TEST_SECONDS} s")


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past TEST_SECONDS instead of hanging the suite."""
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# (number, passed, detail) tuples appended by the acceptance tests; echoed
# as one line per criterion in the terminal summary.
acceptance_results: list[tuple[int, bool, str]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for num, ok, detail in sorted(acceptance_results):
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d}: {verdict} - {detail}")


@st.composite
def hypergraphs(draw, k: int = 3, min_n: int | None = None, max_n: int = 6,
                min_edges: int = 0):
    """Random small k-graphs as a hypothesis strategy."""
    lo = max(k, min_n) if min_n is not None else k
    n = draw(st.integers(lo, max_n))
    pool = list(itertools.combinations(range(n), k))
    edges = draw(st.sets(st.sampled_from(pool), min_size=min_edges,
                         max_size=len(pool)))
    return build(k, n, sorted(edges))
