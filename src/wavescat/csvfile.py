"""The one CSV format of every wavescat output."""

import contextlib
import os
import shutil
import tempfile

# A table of fewer cells is formatted in-process: forking and copying a
# block back would cost more than the formatting a second CPU saves.
PARALLEL_CELLS = 100_000


class LazyRows:
    """A sequence of ``n`` rows whose row ``i`` is built by ``row(i)``
    only when the writer reaches it."""

    def __init__(self, n: int, row):
        self._n, self._row = n, row

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int):
        return self._row(i)


def write_csv(path, header, rows, config_line: str = "") -> None:
    """Write an optional ``# wavescat-config:`` line, then the header and
    the data rows, comma-joined with LF line endings.

    ``rows`` is a sequence (``len`` and indexing), such as a list or a
    ``LazyRows``. Cells are Python str, int or float (convert numpy rows
    with ``tolist``). ``str`` of a float is its ``repr``, the shortest
    text that reads back to the same float, so values round-trip exactly.

    A table of at least ``PARALLEL_CELLS`` cells is formatted on every
    CPU in the process's affinity set: its rows are split into one
    contiguous block per CPU, forked children format every block but the
    first into anonymous temp files in the output's directory, and the
    blocks are appended in order. Every block is formatted by the same
    function, so the bytes are those of an in-process run. A child that
    fails raises ``ChildProcessError`` once every child has exited.
    """
    n = len(rows)
    blocks = min(_cpus(), n) if n * len(header) >= PARALLEL_CELLS else 1
    with open(path, "w", newline="\n") as fh:
        if config_line:
            fh.write(f"# wavescat-config: {config_line}\n")
        _format(fh, [header], 0, 1)
        if blocks > 1:
            bounds = [n * b // blocks for b in range(blocks + 1)]
            _format_blocks(fh, rows, bounds,
                           os.path.dirname(os.path.abspath(path)))
        else:
            _format(fh, rows, 0, n)


def _cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _format(fh, rows, start: int, stop: int) -> None:
    for i in range(start, stop):
        fh.write(",".join(map(str, rows[i])))
        fh.write("\n")


def _format_blocks(fh, rows, bounds, directory) -> None:
    """Format rows ``bounds[0]:bounds[1]`` into ``fh`` while one forked
    child per later block formats it into its own temp file, then append
    the children's blocks in order."""
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
                    _child(parts[-1], rows, start, stop)
                pids.append(pid)
            _format(fh, rows, bounds[0], bounds[1])
        finally:
            # a child ends on its own, after its block or on its error
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                     for pid in pids]
        fh.flush()
        for part, code, start, stop in zip(parts, codes, bounds[1:],
                                           bounds[2:]):
            part.seek(0)
            if code:
                why = (part.read().decode(errors="replace") if code > 0
                       else f"killed by signal {-code}")
                raise ChildProcessError(
                    f"formatting rows {start}-{stop - 1} of {fh.name} "
                    f"failed: {why}")
            shutil.copyfileobj(part, fh.buffer)


def _child(part, rows, start: int, stop: int) -> None:
    """A forked child's whole life: format its block into ``part``, or
    leave the reason for the failure there instead, and exit without
    running the parent's cleanup or flushing its buffers."""
    code = 1
    try:                    # whatever happens, the child ends in _exit
        out = open(part.fileno(), "w", newline="\n", closefd=False)
        _format(out, rows, start, stop)
        out.flush()
        code = 0
    except BaseException as exc:
        with contextlib.suppress(BaseException):
            os.ftruncate(part.fileno(), 0)
            os.pwrite(part.fileno(),
                      f"{type(exc).__name__}: {exc}".encode(), 0)
    finally:
        os._exit(code)
