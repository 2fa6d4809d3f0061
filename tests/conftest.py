import os

import numpy as np
import pytest

from wavescat.model import (Chamber, Channel, Group, Phase, RecordingSession,
                            TimeSeries)


def make_session(hip, nac, fs=1000.0, track=None, rat="rat1",
                 group=Group.FOOD, phase=Phase.POST):
    if track is None:
        track = [(0.0, Chamber.REWARDED.value)]
    return RecordingSession(
        hip=TimeSeries(np.asarray(hip, dtype=float), fs, Channel.HIP),
        nac=TimeSeries(np.asarray(nac, dtype=float), fs, Channel.NAC),
        track=track, rat_id=rat, group=group, phase=phase)


@pytest.fixture
def single_chamber_session():
    rng = np.random.default_rng(11)
    n = 10_000
    return make_session(rng.standard_normal(n), rng.standard_normal(n))


@pytest.fixture
def forks(monkeypatch):
    """Counts the children forked in this process."""
    count = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            count.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return count


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
