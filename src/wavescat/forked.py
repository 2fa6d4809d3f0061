"""Contiguous row blocks run on every CPU, in forked children.

``run_blocks`` is the one fork loop of the package, and the only code
that passes a result between processes: a child pickles its block's
result into an anonymous temp file, and the parent loads it back. Four
stages run through it, and none runs inside another's child, so at most
one block per CPU runs at a time:

- ``write_csv`` formats a large table's rows;
- ``feature_matrix`` scatters its segments;
- ``pipeline``'s CWT and coherence tables transform their sessions;
- ``chambers`` fits its (source, group) cells, with ``--model dt``.
"""

import contextlib
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
    """
    blocks = min(cpus(), n) if fork else 1
    bounds = [n * b // blocks for b in range(blocks + 1)]
    with contextlib.ExitStack() as parts_open:
        parts, pids = [], []
        try:
            for start, stop in zip(bounds[1:-1], bounds[2:]):
                # opened before the fork, so parent and child share it;
                # it has no name, so it vanishes with its last descriptor
                parts.append(parts_open.enter_context(
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
