"""What the benchmark's workload setup (``perfbench/workloads.py``) reads
of the library: joint's expected row count and the chamber check that
picks each chamber cohort's seed."""

import importlib.util
import os
import sys

import pytest

from wavescat.cli import main
from wavescat.model import Phase, chamber_windows
from wavescat.synth import generate_session

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                         "workloads.py")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_segment_count_equals_the_rows_joint_reports(tmp_path, capsys,
                                                      workloads):
    data = tmp_path / "data"
    assert main(["synth", "--seed", "4", "--session-len", "10", "--fs", "250",
                 "--rats-saline", "1", "--rats-morphine", "1",
                 "--rats-food", "1", "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["joint", "--seed", "1", "--k", "2", "--max-iter", "20",
                 "--data", str(data), "--out", str(tmp_path / "out")]) == 0
    rows = workloads.segment_count(data)
    assert rows > 0
    assert f"({rows} segments)" in capsys.readouterr().out


# the tiny chambers cohort: seed 1111 is the first from 1000 on whose
# post sessions visit every chamber in every group
@pytest.mark.parametrize("seed, expected", [(1110, False), (1111, True)])
def test_shows_every_chamber_reads_the_window_chambers(workloads, seed,
                                                       expected):
    spec = workloads.synth_spec(workloads.WORKLOADS["chambers"].tiny, seed)
    seen = {}
    for rat_id, group in spec.rats():
        session = generate_session(spec, rat_id, group, Phase.POST)
        codes = chamber_windows(session, workloads.WINDOW_S,
                                workloads.HOP_S)[3]
        seen.setdefault(group, set()).update(codes.tolist())
    assert all(len(chambers) == 3 for chambers in seen.values()) is expected
    assert workloads._shows_every_chamber(spec) is expected
