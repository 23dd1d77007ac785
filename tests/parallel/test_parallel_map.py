"""``parallel_map`` on a healthy host: input order, worker bounds, errors.

Each call makes its own process pool and shuts it down before it
returns; ``test_fallback.py`` covers the pools that break or stall.
"""

from __future__ import annotations

import os

import pytest

from repro.parallel import parallel_map


def _pid(_item):
    return os.getpid()


def _square(item):
    return item * item


def _reject(item):
    raise ValueError("bad input {}".format(item))


def test_results_keep_input_order():
    results, outcome = parallel_map(_square, list(range(1, 9)), jobs=2)
    assert results == [1, 4, 9, 16, 25, 36, 49, 64]
    assert not outcome.fell_back
    assert outcome.errors == []


def test_items_run_on_at_most_jobs_worker_processes():
    pids, outcome = parallel_map(_pid, list(range(8)), jobs=2)
    assert not outcome.fell_back
    assert os.getpid() not in pids
    assert 1 <= len(set(pids)) <= 2


@pytest.mark.parametrize(
    "jobs, items", [(1, [1, 2, 3]), (4, [3])], ids=["one-job", "one-item"]
)
def test_serial_map_runs_in_process(jobs, items):
    pids, outcome = parallel_map(_pid, items, jobs=jobs)
    assert pids == [os.getpid()] * len(items)
    assert not outcome.fell_back


def test_function_errors_propagate_without_fallback():
    # Bad input is the caller's problem, not a broken pool: no serial
    # retry, no warning, and the next call gets workers again.
    warnings = []
    with pytest.raises(ValueError, match="bad input"):
        parallel_map(_reject, [1, 2], jobs=2, warn=warnings.append)
    assert warnings == []
    results, outcome = parallel_map(_square, [3, 4], jobs=2)
    assert results == [9, 16]
    assert not outcome.fell_back
