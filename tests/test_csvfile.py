import os

import pytest

from wavescat import cli, csvfile, forked
from wavescat.csvfile import LazyRows, write_csv

from conftest import assert_no_child_left


def mixed_rows(n_rows, width):
    """str, int and float cells, floats that need all 17 digits among
    them, plus the special values ``str`` spells out."""
    return [[f"row{i}", i, -i * 7]
            + [(i + 1) / (j + 3) for j in range(width)]
            + [0.1 + 0.2, -0.0, 1e-300, float("inf"), float("nan"), "x y"]
            for i in range(n_rows)]


def expected_text(header, rows, config_line):
    lines = [f"# wavescat-config: {config_line}"]
    lines += [",".join(str(cell) for cell in row) for row in [header] + rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n_rows, cpus", [
    (7, 3),      # 3 does not divide 7
    (11, 4),
    (2, 2),
    (3, 5),      # fewer rows than CPUs
    (1, 4),
])
def test_blocks_equal_in_process_formatting_byte_for_byte(
        tmp_path, monkeypatch, forks, n_rows, cpus):
    header = ["name", "id", "neg"] + [f"c{j}" for j in range(206)]
    rows = mixed_rows(n_rows, 200)
    monkeypatch.setattr(csvfile, "PARALLEL_CELLS", 1)
    monkeypatch.setattr(forked, "cpus", lambda: cpus)
    write_csv(tmp_path / "blocks.csv", header, rows, "cmd=test seed=1")
    assert len(forks) == min(cpus, n_rows) - 1
    monkeypatch.setattr(forked, "cpus", lambda: 1)
    write_csv(tmp_path / "serial.csv", header, rows, "cmd=test seed=1")
    assert len(forks) == min(cpus, n_rows) - 1
    blocks = (tmp_path / "blocks.csv").read_bytes()
    assert blocks == (tmp_path / "serial.csv").read_bytes()
    assert blocks == expected_text(header, rows, "cmd=test seed=1").encode()
    assert sorted(os.listdir(tmp_path)) == ["blocks.csv", "serial.csv"]
    assert_no_child_left()


def test_lazy_rows_of_a_large_table_use_every_cpu(tmp_path, monkeypatch,
                                                  forks):
    """At the real threshold, a matrix-sized table is split by CPU count
    and still reads like the in-process file."""
    rows = mixed_rows(9, csvfile.PARALLEL_CELLS // 8)
    header = list(range(len(rows[0])))
    monkeypatch.setattr(forked, "cpus", lambda: 3)
    write_csv(tmp_path / "lazy.csv", header,
              LazyRows(len(rows), lambda i: rows[i]))
    assert len(forks) == 2
    text = expected_text(header, rows, "").split("\n", 1)[1]
    assert (tmp_path / "lazy.csv").read_text() == text
    assert_no_child_left()


class BadCell:
    def __str__(self):
        raise ValueError("unprintable cell")


@pytest.mark.parametrize("bad_row, error", [
    (6, ChildProcessError),    # in the last child's block
    (0, ValueError),           # in the block formatted in-process
])
def test_a_failing_block_leaves_no_file_and_no_child(
        tmp_path, monkeypatch, bad_row, error):
    rows = mixed_rows(7, 50)
    rows[bad_row][10] = BadCell()
    monkeypatch.setattr(csvfile, "PARALLEL_CELLS", 1)
    monkeypatch.setattr(forked, "cpus", lambda: 3)
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(error, match="unprintable cell"):
        cli._atomic(out / "table.csv",
                    lambda p: write_csv(p, list(range(56)), rows))
    assert os.listdir(out) == []
    assert_no_child_left()


def test_a_child_killed_by_a_signal_is_reported(tmp_path, monkeypatch):
    rows = LazyRows(4, lambda i: os.kill(os.getpid(), 9) if i == 3 else [i])
    monkeypatch.setattr(csvfile, "PARALLEL_CELLS", 1)
    monkeypatch.setattr(forked, "cpus", lambda: 2)
    with pytest.raises(ChildProcessError, match="rows 2-3 .* signal 9"):
        write_csv(tmp_path / "t.csv", ["a"], rows)
    assert_no_child_left()
