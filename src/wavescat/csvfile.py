"""The one CSV format of every wavescat output."""

import itertools


def write_csv(path, header, rows, config_line: str = "") -> None:
    """Write an optional ``# wavescat-config:`` line, then the header and
    the data rows, comma-joined with LF line endings.

    Cells are Python str, int or float (convert numpy rows with
    ``tolist``). ``str`` of a float is its ``repr``, the shortest text
    that reads back to the same float, so values round-trip exactly.
    """
    with open(path, "w", newline="\n") as fh:
        if config_line:
            fh.write(f"# wavescat-config: {config_line}\n")
        for row in itertools.chain([header], rows):
            fh.write(",".join(map(str, row)))
            fh.write("\n")
