"""Seeded synthetic two-channel cohorts with separability dial ``delta``.

Every session is unit-variance shaped noise (amplitude falling as 1/f,
random phases) per channel. On top of that, band-limited components are
added whose amplitudes all scale with ``delta``, so delta=0 collapses
every group/phase/channel distinction to identical noise statistics:

* channel markers, always on: HIP carries a 2.5 Hz tone, NAc a 22 Hz
  tone - these keep the recording channels identifiable;
* one signature per (group, phase), present in both channels with a
  channel-weighted gain; the conditioned-reward components (the post
  signatures of food and morphine) are additionally modulated by the
  chamber the animal occupies (rewarded 1.0, null 0.55,
  unrewarded 0.3), which is what makes chambers decodable:

    ==============  ========================  ==========  =========  =======
    group, phase    component                 HIP weight  NAc weight chamber
    ==============  ========================  ==========  =========  =======
    food, pre       3 Hz tone                 0.7         0.4        no
    food, post      8 Hz bursts (0.7 Hz AM)   1.0         0.4        yes
    food, post      shared 6 Hz, NAc lagging
                    by a quarter period       0.8         0.8        yes
    morphine, pre   45 Hz tone                0.4         0.7        no
    morphine, post  60 Hz bursts (1.1 Hz AM)  0.3         1.0        yes
    saline, pre     30 Hz tone                0.5         0.5        no
    saline, post    16 Hz tone                0.5         0.5        no
    ==============  ========================  ==========  =========  =======

The hippocampus dominates the food signatures and the accumbens the
morphine ones; the shared 6 Hz component gives the food group genuine
inter-channel coherence with a fixed quarter-cycle lag. Signatures are
a test harness, not a biological model: they are narrow-band so that a
failure localizes to one stage of the analysis chain.

The chamber track is a seeded random walk over the three chambers with
exponential dwells (mean 20 s) quantized to a 30 fps grid. Everything
is a pure function of (spec, rat, group, phase).
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .model import (TRACK, Chamber, Channel, Group, Phase, RecordingSession,
                    TimeSeries, chamber_codes, save_session)

CHAMBER_GAIN = {Chamber.REWARDED: 1.0, Chamber.NULL: 0.55,
                Chamber.UNREWARDED: 0.3}
MEAN_DWELL = 20.0
TRACK_FPS = 30.0

# frequency (Hz), base amp, HIP weight, NAc weight, AM rate (0 = tone),
# chamber-gated?
_MARKERS = {
    Channel.HIP: (2.5, 0.9),
    Channel.NAC: (22.0, 0.6),
}
_SIGNATURES = {
    (Group.FOOD, Phase.PRE): [(3.0, 1.6, 0.7, 0.4, 0.0, False)],
    (Group.FOOD, Phase.POST): [(8.0, 2.8, 1.0, 0.4, 0.7, True),
                               (6.0, 1.5, 0.8, 0.8, 0.0, True)],
    (Group.MORPHINE, Phase.PRE): [(45.0, 1.0, 0.4, 0.7, 0.0, False)],
    (Group.MORPHINE, Phase.POST): [(60.0, 1.8, 0.3, 1.0, 1.1, True)],
    (Group.SALINE, Phase.PRE): [(30.0, 1.0, 0.5, 0.5, 0.0, False)],
    (Group.SALINE, Phase.POST): [(16.0, 1.2, 0.5, 0.5, 0.0, False)],
}
_SHARED_FREQ = 6.0  # the food/post component that repeats in both channels


@dataclass(frozen=True)
class SynthSpec:
    rats_saline: int = 7
    rats_morphine: int = 6
    rats_food: int = 6
    session_len: float = 60.0
    fs: float = 1000.0
    delta: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.delta <= 1.0):
            raise DataError("delta must lie in [0, 1]")
        if not self.session_len >= 10.0:
            raise DataError("session_len must be at least 10 s")
        if not self.fs >= 200.0:
            raise DataError("fs must be at least 200 Hz")
        samples = self.session_len * self.fs
        if not samples < 2.0 ** 63:
            raise DataError(f"session_len * fs gives {samples:g} samples, "
                            f"too many for int64")
        for name in ("rats_saline", "rats_morphine", "rats_food"):
            count = getattr(self, name)
            if count < 0:
                raise DataError(f"{name} must be non-negative, got {count}")
        if not (self.rats_saline or self.rats_morphine or self.rats_food):
            raise DataError("the cohort needs at least one rat")

    def rats(self):
        """(rat_id, group) pairs, ids unique across the cohort."""
        out = []
        counts = [(Group.SALINE, self.rats_saline),
                  (Group.MORPHINE, self.rats_morphine),
                  (Group.FOOD, self.rats_food)]
        rid = 1
        for group, n in counts:
            for _ in range(n):
                out.append((f"rat{rid}", group))
                rid += 1
        return out


def _rng(spec: SynthSpec, rat_id: str, group: Group, phase: Phase,
         stream: int) -> np.random.Generator:
    ident = zlib.crc32(rat_id.encode())
    groups = [Group.SALINE, Group.MORPHINE, Group.FOOD]
    return np.random.default_rng(
        (spec.seed, ident, groups.index(group), phase is Phase.POST, stream))


def _shaped_noise(rng: np.random.Generator, n: int, fs: float) -> np.ndarray:
    freqs = np.fft.rfftfreq(n, 1.0 / fs)
    amp = np.zeros(freqs.size)
    amp[1:] = 1.0 / np.maximum(freqs[1:], 1.0)
    phases = rng.uniform(0.0, 2.0 * np.pi, freqs.size)
    spectrum = amp * np.exp(1j * phases)
    spectrum[0] = 0.0
    if n % 2 == 0:
        spectrum[-1] = amp[-1]  # Nyquist bin must stay real
    x = np.fft.irfft(spectrum, n=n)
    return x / x.std()


def _make_track(rng: np.random.Generator, session_len: float) -> np.ndarray:
    track = []
    t = 0.0
    chamber = int(rng.integers(0, 3))
    while t < session_len:
        track.append((round(t * TRACK_FPS) / TRACK_FPS, chamber))
        dwell = max(1.0 / TRACK_FPS, rng.exponential(MEAN_DWELL))
        t += round(dwell * TRACK_FPS) / TRACK_FPS
        others = [c for c in (0, 1, 2) if c != chamber]
        chamber = others[int(rng.integers(0, 2))]
    return np.array(track, dtype=TRACK)


def generate_session(spec: SynthSpec, rat_id: str, group: Group,
                     phase: Phase) -> RecordingSession:
    n = int(round(spec.session_len * spec.fs))
    t = np.arange(n) / spec.fs
    rng = _rng(spec, rat_id, group, phase, 0)
    track = _make_track(_rng(spec, rat_id, group, phase, 1), spec.session_len)

    hip = _shaped_noise(rng, n, spec.fs)
    nac = _shaped_noise(rng, n, spec.fs)

    gain = np.empty(n)
    codes = chamber_codes(track, spec.fs, n)
    for chamber in Chamber:
        gain[codes == chamber.value] = CHAMBER_GAIN[chamber]

    delta = spec.delta
    for chan, x in ((Channel.HIP, hip), (Channel.NAC, nac)):
        f, amp = _MARKERS[chan]
        x += delta * amp * np.cos(2.0 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    for f, base, w_hip, w_nac, am, gated in _SIGNATURES[(group, phase)]:
        phi = rng.uniform(0.0, 2.0 * np.pi)
        env = gain if gated else np.ones(n)
        if am > 0.0:
            env = env * 0.5 * (1.0 + np.cos(2.0 * np.pi * am * t
                                            + rng.uniform(0, 2 * np.pi)))
        lag = 0.25 / f if f == _SHARED_FREQ else 0.0
        hip += env * delta * base * w_hip * np.cos(2.0 * np.pi * f * t + phi)
        nac += env * delta * base * w_nac * np.cos(
            2.0 * np.pi * f * (t - lag) + phi)
    return RecordingSession(
        hip=TimeSeries(hip, spec.fs, Channel.HIP),
        nac=TimeSeries(nac, spec.fs, Channel.NAC),
        track=track, rat_id=rat_id, group=group, phase=phase)


def generate_cohort(spec: SynthSpec, out_dir) -> list[str]:
    """Write every (rat, phase) bundle; returns the sorted file list."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for rat_id, group in spec.rats():
        for phase in (Phase.PRE, Phase.POST):
            session = generate_session(spec, rat_id, group, phase)
            name = f"{rat_id}_{group.value}_{phase.value}.wscat"
            path = os.path.join(out_dir, name)
            tmp = path + ".tmp"
            save_session(session, tmp)
            os.replace(tmp, path)
            paths.append(path)
    return sorted(paths)
