"""What the benchmark reads of the library: joint's expected row count
and the chamber check that pick each cohort (``perfbench/workloads.py``),
and the layers, argument names and model fields that the traced runs
record (``perfbench/traced.py``)."""

import importlib
import importlib.util
import inspect
import json
import os
import sys

import numpy as np
import pytest

from wavescat.classify import Dataset
from wavescat.cli import main
from wavescat.coherence import SmoothingSpec
from wavescat.model import Channel, Phase, chamber_windows
from wavescat.morse import MorseParams
from wavescat.scattering import ScatteringParams
from wavescat.synth import SynthSpec, generate_session

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def workloads():
    yield from _load("workloads")


@pytest.fixture(scope="module")
def traced():
    yield from _load("traced")


def _layer_function(module, attr):
    """The function a ``traced.LAYERS`` entry wraps, as ``install``
    finds it."""
    owner = importlib.import_module(module)
    for name in attr.split("."):
        owner = getattr(owner, name)
    return owner


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


def test_every_traced_layer_resolves_and_every_workload_layer_is_one(
        traced, workloads):
    for layer, module, attr, *_ in traced.LAYERS:
        assert callable(_layer_function(module, attr)), layer
    names = {layer for layer, *_ in traced.LAYERS}
    for workload in workloads.WORKLOADS.values():
        assert set(workload.layers) <= names, workload.name


def test_every_observed_layer_reads_what_a_real_call_returns(traced,
                                                             tmp_path):
    # one 10 s, 250 Hz session, and a small two-class problem
    spec = SynthSpec(rats_saline=1, rats_morphine=0, rats_food=0,
                     session_len=10.0, fs=250.0, seed=4)
    session = generate_session(spec, *spec.rats()[0], Phase.POST)
    bank_params = MorseParams()
    bank = bank_params.bank(session.hip.samples.size, session.fs)
    windows = [session.hip.samples[i:i + 250] for i in range(0, 2000, 125)]
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 3))
    y = np.arange(16) % 2
    signs = np.where(y == np.arange(2)[:, None], 1.0, -1.0)
    calls = {
        "morse.build_filterbank": (bank.n, session.fs, bank_params),
        "cwt": (session.hip, bank),
        "kernels.svm_dual_solve": (np.hstack([x, np.ones((16, 1))]), signs,
                                   np.ones_like(signs), 1e-3, 20),
        "pipeline.cwt_table": ([session], Channel.HIP, 1.0, 0.5,
                               bank_params),
        "pipeline.wcoh_table": ([session], 1.0, 0.5, bank_params,
                                SmoothingSpec()),
        "scattering.feature_matrix": (windows,
                                      ScatteringParams(fs=session.fs)),
        "classify.svm.train_svm_ova": (Dataset(x, y, ["a", "b"]),),
        "classify.mlp.loss_and_grad": ([rng.uniform(-1, 1, (3, 2))],
                                       [np.zeros(2)], x, y),
        "cli.write": (str(tmp_path / "out.txt"),
                      lambda path: open(path, "w").close()),
    }
    observed = [entry for entry in traced.LAYERS if entry[3]]
    assert sorted(calls) == sorted(layer for layer, *_ in observed)
    for layer, module, attr, observe, _ in observed:
        fn = _layer_function(module, attr)
        args = calls[layer]
        # as Tracer.wrap does: arguments bound by name, then the result
        attrs = observe(inspect.signature(fn).bind(*args).arguments,
                        fn(*args))
        assert isinstance(attrs, dict) and attrs, layer
        json.dumps(attrs, allow_nan=False)
