import sys
import threading

import numpy as np
import pytest

from varpath.grid_paths import TimeGrid

# one line per acceptance criterion, filled in by tests/test_acceptance.py
ACCEPTANCE_LINES = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    ACCEPTANCE_LINES[number] = f"ACCEPTANCE {number:2d}: {'PASS' if passed else 'FAIL'} — {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(ACCEPTANCE_LINES[n])


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def small_grid():
    return TimeGrid(1.0, 256)


@pytest.fixture
def kernel_workers(monkeypatch):
    """``run(workers, fn)`` calls fn on a fresh kernel pool of the given size
    and returns fn's result and the names of the threads that computed
    distance blocks.  The interpreter's switch interval is shortened
    meanwhile, so threads interleave as often as they can."""
    from varpath import measures

    real_cdist = measures.cdist
    interval = sys.getswitchinterval()

    def run(workers, fn):
        threads = set()

        def cdist(*args):
            threads.add(threading.current_thread().name)
            return real_cdist(*args)

        monkeypatch.setattr(measures, "KERNEL_WORKERS", workers)
        monkeypatch.setattr(measures, "_pool", None)
        monkeypatch.setattr(measures, "cdist", cdist)
        sys.setswitchinterval(1e-5)
        try:
            return fn(), threads
        finally:
            sys.setswitchinterval(interval)
            if measures._pool is not None:
                measures._pool.shutdown()
            monkeypatch.undo()

    return run
