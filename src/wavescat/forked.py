"""Contiguous row blocks run on every CPU, in forked children.

``run_blocks`` is the one fork loop of the package, and the only code
that passes a result between processes: a child pickles its block's
result into an anonymous temp file, and the parent loads it back. Four
stages run through it, and none runs inside another's child, so at most
one block per CPU runs at a time:

- ``write_csv`` formats a large table's rows;
- ``feature_matrix`` scatters its segments;
- ``pipeline``'s CWT and coherence tables transform their sessions;
- ``run_kfold`` fits every fold of every job (``chambers`` and
  ``joint``), where it can cap the BLAS pool (``can_cap_blas``).

While more than one block runs, the loaded OpenBLAS is held at one
thread, in this process and in every child: a block per CPU already
fills every CPU, and a second BLAS thread per process would only spin
against the other processes' work.
"""

import contextlib
import ctypes
import functools
import os
import pickle
import tempfile

from .errors import DataError, NumericalError

# a child's failure of one of these (or of a subclass) is raised in the
# parent as this class with the same message, so a command exits with
# the same code and error line on any number of CPUs
PASSED_ON = {cls.__name__: cls
             for cls in (DataError, NumericalError, MemoryError)}


def cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def can_cap_blas() -> bool:
    """Whether ``run_blocks`` can fork onto more than one CPU with the
    BLAS pool held at one thread: false on one CPU, or where no OpenBLAS
    thread control is loaded (another BLAS, or no ``/proc``)."""
    return cpus() > 1 and _blas_threads() is not None


@functools.cache
def _blas_threads():
    """``(get, set)`` of the loaded OpenBLAS's thread count, or None
    where no loaded library exports them; looked up once per process.

    The library is found among the files mapped into this process, and
    its functions under the names OpenBLAS builds use: plain, or with
    the ``scipy_`` prefix and ``64_`` suffix of the wheels numpy ships.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({fields[5].strip() for fields in
                            (line.split(maxsplit=5) for line in maps)
                            if len(fields) == 6
                            and "openblas" in os.path.basename(fields[5])})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("", ""), ("scipy_", "64_"), ("", "64_"),
                               ("scipy_", "")):
            try:
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def _hold_blas_at_one(held: contextlib.ExitStack) -> None:
    """Set the BLAS pool to one thread until ``held`` closes, which then
    restores the count set before; nothing where none is found."""
    threads = _blas_threads()
    if threads is not None:
        get, put = threads
        held.callback(put, get())
        put(1)


def run_blocks(n: int, work, name, fork: bool = True) -> list:
    """``work(start, stop)`` of rows ``range(n)`` split into one
    contiguous block per CPU, as a list of each block's result in block
    order.

    Block 0 runs in this process. Each later block runs in a forked
    child, which pickles ``work``'s result into an anonymous temp file
    that this process loads once every child has exited. With ``fork``
    false, or one CPU, the list holds one result, of every row.

    A child that fails with a ``PASSED_ON`` error raises it here, as
    that class with the child's message; any other failure raises
    ``ChildProcessError`` naming ``name(start, stop)`` and the child's
    error. The earliest failed block is raised. Every child has exited
    when this returns or raises, even when block 0 raises.

    With more than one block, the loaded OpenBLAS runs one thread from
    before the first fork, so every child inherits the cap, until every
    child has exited; then the thread count set before is restored,
    also when a block raises.
    """
    blocks = min(cpus(), n) if fork else 1
    bounds = [n * b // blocks for b in range(blocks + 1)]
    with contextlib.ExitStack() as held:
        if blocks > 1:
            # closed last, after the reaping below
            _hold_blas_at_one(held)
        parts, pids = [], []
        try:
            for start, stop in zip(bounds[1:-1], bounds[2:]):
                # opened before the fork, so parent and child share it;
                # it has no name, so it vanishes with its last descriptor
                parts.append(held.enter_context(
                    tempfile.TemporaryFile()))
                pid = os.fork()
                if pid == 0:
                    _child(work, parts[-1], start, stop)
                pids.append(pid)
            results = [work(bounds[0], bounds[1])]
        finally:
            # a child ends on its own, after its block or on its error
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                     for pid in pids]
        for part, start, stop, code in zip(parts, bounds[1:], bounds[2:],
                                           codes):
            if code:
                _raise_failure(part, code, name(start, stop))
        for part in parts:
            part.seek(0)
            results.append(pickle.load(part))
        return results


def _raise_failure(part, code: int, what: str) -> None:
    """Raise the failure a child left in ``part``, or its signal."""
    if code < 0:
        raise ChildProcessError(f"{what} failed: killed by signal {-code}")
    part.seek(0)
    kind, _, why = part.read().decode(errors="replace").partition("\n")
    if kind in PASSED_ON:
        raise PASSED_ON[kind](why)
    raise ChildProcessError(f"{what} failed: {why}")


def _reason(exc: BaseException) -> str:
    """A failure as the parent reads it: the ``PASSED_ON`` class it is
    raised as (or nothing), a newline, then its message."""
    for kind, cls in PASSED_ON.items():
        if isinstance(exc, cls):
            return f"{kind}\n{exc}"
    return f"\n{type(exc).__name__}: {exc}"


def _child(work, part, start: int, stop: int) -> None:
    """A forked child's whole life: pickle its block's result into
    ``part``, or leave the reason for the failure there instead, and
    exit without running the parent's cleanup or flushing its buffers."""
    code = 1
    try:                    # whatever happens, the child ends in _exit
        pickle.dump(work(start, stop), part, pickle.HIGHEST_PROTOCOL)
        part.flush()
        code = 0
    except BaseException as exc:
        with contextlib.suppress(BaseException):
            os.ftruncate(part.fileno(), 0)
            os.pwrite(part.fileno(), _reason(exc).encode(), 0)
    finally:
        os._exit(code)
