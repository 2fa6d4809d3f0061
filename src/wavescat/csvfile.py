"""The one CSV format of every wavescat output."""

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
    the data rows, comma-joined with LF line endings, in UTF-8.

    ``rows`` is a sequence (``len`` and indexing), such as a list or a
    ``LazyRows``. Cells are Python str, int or float (convert numpy rows
    with ``tolist``). ``str`` of a float is its ``repr``, the shortest
    text that reads back to the same float, so values round-trip exactly.

    A table of at least ``PARALLEL_CELLS`` cells is formatted on every
    CPU in the process's affinity set: ``forked.run_blocks`` splits its
    rows into one contiguous block per CPU and returns each block's
    encoded lines, which are written in order after the header. Every
    block is formatted by ``_format``, so the bytes are those of an
    in-process run. A child that fails raises ``ChildProcessError`` once
    every child has exited.
    """
    n = len(rows)
    with open(path, "wb") as fh:
        if config_line:
            fh.write(f"# wavescat-config: {config_line}\n".encode())
        fh.writelines(_format([header], 0, 1))
        for lines in forked.run_blocks(
                n, lambda start, stop: _format(rows, start, stop),
                lambda start, stop: f"formatting rows {start}-{stop - 1} "
                                    f"of {fh.name}",
                fork=n * len(header) >= PARALLEL_CELLS):
            fh.writelines(lines)


def _format(rows, start: int, stop: int) -> list[bytes]:
    """Rows ``start`` to ``stop - 1`` as encoded CSV lines."""
    return [f"{','.join(map(str, rows[i]))}\n".encode()
            for i in range(start, stop)]
