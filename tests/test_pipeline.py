import numpy as np

from wavescat.coherence import SmoothingSpec
from wavescat.model import Channel
from wavescat.pipeline import BankConfig, cwt_table, wcoh_table

from conftest import make_session


def test_equal_length_sessions_share_one_filter_bank(monkeypatch):
    rng = np.random.default_rng(4)
    sessions = [make_session(rng.standard_normal(2000),
                             rng.standard_normal(2000), fs=250.0,
                             rat=f"rat{i}") for i in range(3)]
    builds = []
    original = BankConfig.build

    def counting_build(self, n, fs):
        builds.append((n, fs))
        return original(self, n, fs)

    monkeypatch.setattr(BankConfig, "build", counting_build)
    bank_cfg = BankConfig()
    cwt_table(sessions, Channel.HIP, 1.0, 1.0, bank_cfg)
    cwt_table(sessions, Channel.NAC, 1.0, 1.0, bank_cfg)
    wcoh_table(sessions, 1.0, 1.0, bank_cfg, SmoothingSpec())
    assert builds == [(2048, 250.0)]
