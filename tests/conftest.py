import json
import sys
import threading

import numpy as np
import pytest

from varpath.grid_paths import TimeGrid

# one verdict per acceptance criterion, filled in by tests/test_acceptance.py
ACCEPTANCE = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    ACCEPTANCE[number] = {"passed": bool(passed), "detail": detail}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One ACCEPTANCE line per criterion, and the same verdicts as JSON
    (criterion -> {"passed", "detail"}) in pytest's cache, by default
    .pytest_cache/d/varpath/acceptance.json."""
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for n, v in sorted(ACCEPTANCE.items()):
        terminalreporter.write_line(
            f"ACCEPTANCE {n:2d}: {'PASS' if v['passed'] else 'FAIL'} — {v['detail']}")
    if getattr(config, "cache", None) is not None:  # None under -p no:cacheprovider
        out = config.cache.mkdir("varpath") / "acceptance.json"
        out.write_text(json.dumps({str(n): v for n, v in sorted(ACCEPTANCE.items())},
                                  indent=2, ensure_ascii=False) + "\n")


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
    from scipy.spatial.distance import cdist as real_cdist

    from varpath import measures

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
