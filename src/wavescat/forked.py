"""Contiguous row blocks run on every CPU, in forked children.

``run_blocks`` is the one fork loop of the package: ``write_csv``
formats a large table's rows with it, and ``feature_matrix`` scatters
its segments with it.
"""

import contextlib
import os
import tempfile


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

    A child that fails raises ``ChildProcessError`` naming
    ``name(start, stop)`` and the child's error, and ``gather`` is not
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
                part.seek(0)
                why = (part.read().decode(errors="replace") if code > 0
                       else f"killed by signal {-code}")
                raise ChildProcessError(f"{name(start, stop)} failed: {why}")
        for part, start, stop in children:
            part.seek(0)
            gather(part, start, stop)


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
            os.pwrite(part.fileno(),
                      f"{type(exc).__name__}: {exc}".encode(), 0)
    finally:
        os._exit(code)
