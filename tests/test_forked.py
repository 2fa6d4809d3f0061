"""The contract of ``forked.run_blocks`` itself: each block's result in
block order, a child's failure raised by class or naming its block, and
no child left behind."""

import os
import signal
import time

import pytest

from wavescat import forked
from wavescat.errors import DataError, NumericalError

from conftest import assert_no_child_left


def rows_and_pid(start, stop):
    return list(range(start, stop)), os.getpid()


def name(start, stop):
    return f"rows {start}-{stop - 1}"


@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_block_results_come_back_in_block_order(monkeypatch, forks, n, cpus):
    """Block 0 runs here and each later block in its own child; the
    blocks are contiguous, non-empty and cover every row once."""
    monkeypatch.setattr(forked, "cpus", lambda: cpus)
    blocks = forked.run_blocks(n, rows_and_pid, name)
    assert len(forks) == min(cpus, n) - 1
    assert [pid for _, pid in blocks] == [os.getpid()] + forks
    assert all(rows for rows, _ in blocks)
    assert [i for rows, _ in blocks for i in rows] == list(range(n))
    assert_no_child_left()


def test_without_fork_one_block_runs_here(monkeypatch, forks):
    monkeypatch.setattr(forked, "cpus", lambda: 3)
    assert forked.run_blocks(7, rows_and_pid, name, fork=False) == [
        (list(range(7)), os.getpid())]
    assert forks == []


@pytest.mark.parametrize("error", [DataError, NumericalError, MemoryError])
def test_a_childs_data_numerical_or_memory_error_keeps_its_class(
        monkeypatch, error):
    """Raised in two children, the earliest block's error reaches the
    caller as its class with the child's message."""
    def work(start, stop):
        if start:
            raise error(f"no rows from {start}")
        return start

    monkeypatch.setattr(forked, "cpus", lambda: 3)
    with pytest.raises(error) as caught:
        forked.run_blocks(7, work, name)
    assert type(caught.value) is error
    assert str(caught.value) == "no rows from 2"
    assert_no_child_left()


@pytest.mark.parametrize("result, reason", [
    (ValueError("bad row"), "ValueError: bad row"),
    (lambda: None, "PicklingError: "),       # a result pickle refuses
])
def test_any_other_child_failure_names_its_block(monkeypatch, result,
                                                 reason):
    def work(start, stop):
        if start == 4 and isinstance(result, Exception):
            raise result
        return result if start == 4 else start

    monkeypatch.setattr(forked, "cpus", lambda: 3)
    with pytest.raises(ChildProcessError) as caught:
        forked.run_blocks(7, work, name)
    assert str(caught.value).startswith(f"rows 4-6 failed: {reason}")
    assert_no_child_left()


def test_a_child_killed_by_a_signal_is_reported(monkeypatch):
    def work(start, stop):
        if start:
            os.kill(os.getpid(), signal.SIGKILL)
        return start

    monkeypatch.setattr(forked, "cpus", lambda: 2)
    with pytest.raises(ChildProcessError,
                       match=r"^rows 1-1 failed: killed by signal 9$"):
        forked.run_blocks(2, work, name)
    assert_no_child_left()


def test_a_failure_in_this_processs_block_still_reaps_every_child(
        monkeypatch, forks):
    """Block 0's own error is raised, after every child, each still
    running when it is raised, has exited."""
    def work(start, stop):
        if not start:
            raise ValueError("bad first block")
        time.sleep(0.2)
        raise DataError("a child's error, not raised")

    monkeypatch.setattr(forked, "cpus", lambda: 3)
    with pytest.raises(ValueError, match="^bad first block$"):
        forked.run_blocks(3, work, name)
    assert len(forks) == 2
    assert_no_child_left()


@pytest.fixture
def blas_threads():
    """The loaded OpenBLAS's thread count, set to 2 for the test and put
    back after it."""
    threads = forked._blas_threads()
    if threads is None:
        pytest.skip("no OpenBLAS thread control is loaded")
    get, put = threads
    before = get()
    put(2)
    yield get
    put(before)


def test_blocks_run_with_one_blas_thread(monkeypatch, blas_threads):
    """Block 0 here and each child's block read a one-thread BLAS pool,
    and the count set before is back once every child has exited."""
    monkeypatch.setattr(forked, "cpus", lambda: 3)
    counts = forked.run_blocks(3, lambda start, stop: blas_threads(), name)
    assert counts == [1, 1, 1]
    assert blas_threads() == 2
    assert forked.run_blocks(3, lambda start, stop: blas_threads(), name,
                             fork=False) == [2]


@pytest.mark.parametrize("failing", [0, 1])
def test_the_blas_count_is_restored_when_a_block_raises(
        monkeypatch, blas_threads, failing):
    def work(start, stop):
        if start == failing:
            raise DataError(f"block {start}")
        return start

    monkeypatch.setattr(forked, "cpus", lambda: 2)
    with pytest.raises(DataError, match=f"^block {failing}$"):
        forked.run_blocks(2, work, name)
    assert blas_threads() == 2
    assert_no_child_left()
