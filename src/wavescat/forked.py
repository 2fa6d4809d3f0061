"""Contiguous row blocks run on every CPU, in forked children.

``run_blocks`` is the one fork loop of the package. Four stages run
through it, and none runs inside another's child, so at most one block
per CPU runs at a time:

- ``write_csv`` formats a large table's rows;
- ``feature_matrix`` scatters its segments;
- ``pipeline``'s CWT and coherence tables transform their sessions;
- ``chambers`` fits its (source, group) cells, with ``--model dt``.
"""

import contextlib
import os
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


def run_blocks(n: int, parent, child, gather, name, fork: bool = True,
               directory=None) -> None:
    """Run rows ``range(n)`` as one contiguous block per CPU.

    Block 0 runs in this process as ``parent(start, stop)``. Each later
    block runs in a forked child as ``child(part, start, stop)``, which
    writes its result into ``part``, an anonymous binary temp file in
    ``directory``, and closes any file it opens on it. Once every child
    has exited, ``gather(part, start, stop)`` reads each child's result
    back here, in block order, from the start of its file. With
    ``fork`` false, or one CPU, ``parent`` runs every row.

    A child that fails with a ``PASSED_ON`` error raises it here, as
    that class with the child's message; any other failure raises
    ``ChildProcessError`` naming ``name(start, stop)`` and the child's
    error. The earliest failed block is raised, and ``gather`` is not
    called. Every child has exited when this returns or raises, even
    when ``parent`` raises.
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
                    tempfile.TemporaryFile(dir=directory)))
                pid = os.fork()
                if pid == 0:
                    _child(child, parts[-1], start, stop)
                pids.append(pid)
            parent(bounds[0], bounds[1])
        finally:
            # a child ends on its own, after its block or on its error
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                     for pid in pids]
        children = list(zip(parts, bounds[1:], bounds[2:]))
        for (part, start, stop), code in zip(children, codes):
            if code:
                _raise_failure(part, code, name(start, stop))
        for part, start, stop in children:
            part.seek(0)
            gather(part, start, stop)


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


def _child(child, part, start: int, stop: int) -> None:
    """A forked child's whole life: run its block into ``part``, or
    leave the reason for the failure there instead, and exit without
    running the parent's cleanup or flushing its buffers."""
    code = 1
    try:                    # whatever happens, the child ends in _exit
        child(part, start, stop)
        part.flush()
        code = 0
    except BaseException as exc:
        with contextlib.suppress(BaseException):
            os.ftruncate(part.fileno(), 0)
            os.pwrite(part.fileno(), _reason(exc).encode(), 0)
    finally:
        os._exit(code)
