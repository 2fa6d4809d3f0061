"""The one CSV format of every wavescat output."""

import os
import shutil

from . import forked

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
    with open(path, "w", newline="\n") as fh:
        if config_line:
            fh.write(f"# wavescat-config: {config_line}\n")
        _format(fh, [header], 0, 1)

        def child(part, start: int, stop: int) -> None:
            # closed, so flushed, before a failure is reported in ``part``
            with open(part.fileno(), "w", newline="\n",
                      closefd=False) as out:
                _format(out, rows, start, stop)

        def gather(part, start: int, stop: int) -> None:
            fh.flush()
            shutil.copyfileobj(part, fh.buffer)

        forked.run_blocks(
            n, lambda start, stop: _format(fh, rows, start, stop), child,
            gather,
            lambda start, stop: f"formatting rows {start}-{stop - 1} of "
                                f"{fh.name}",
            fork=n * len(header) >= PARALLEL_CELLS,
            directory=os.path.dirname(os.path.abspath(path)))


def _format(fh, rows, start: int, stop: int) -> None:
    for i in range(start, stop):
        fh.write(",".join(map(str, rows[i])))
        fh.write("\n")
