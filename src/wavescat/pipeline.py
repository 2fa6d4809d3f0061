"""Session-to-dataset plumbing shared by the CLI workflows.

CWT and coherence features are reduced from *session-level* transforms:
the whole recording is transformed once per channel, then each
chamber-constant window is summarized per scale. Cells inside the cone
of influence are preferred; a (scale, window) pair with no reliable
cell falls back to the plain window mean so every window still yields a
complete feature row (the contamination is identical across
equal-length sessions and adds no label information). Scattering
features are computed per segment, matching ``scattering.scatter``
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coherence import SmoothingSpec, coherence
from .csvfile import write_csv
from .cwt import cwt, next_pow2, scalogram_magnitude
from .errors import DataError
from .model import (Chamber, Channel, Group, Phase, RecordingSession,
                    Segment, chamber_windows, load_session,
                    segment_by_chamber)
from .morse import MorseParams, build_filterbank
from .classify import Dataset
from .scattering import ScatteringParams, feature_matrix

JOINT_CHANNELS = (Channel.HIP, Channel.NAC)
JOINT_PHASES = (Phase.POST, Phase.PRE)
JOINT_GROUPS = (Group.MORPHINE, Group.FOOD, Group.SALINE)
CHAMBER_ORDER = (Chamber.REWARDED, Chamber.NULL, Chamber.UNREWARDED)


@dataclass(frozen=True)
class BankConfig:
    gamma: float = 3.0
    time_bandwidth: float = 60.0
    voices_per_octave: int = 10
    fmin: float = 1.0
    fmax: float = 100.0
    _banks: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def build(self, n: int, fs: float):
        return build_filterbank(n, fs, MorseParams(self.gamma,
                                                   self.time_bandwidth),
                                self.voices_per_octave, self.fmin, self.fmax)

    def bank(self, n: int, fs: float):
        """The bank for (n, fs), built on its first request only, so every
        table given this config shares it."""
        if (n, fs) not in self._banks:
            self._banks[n, fs] = self.build(n, fs)
        return self._banks[n, fs]


def load_sessions(paths) -> list[RecordingSession]:
    """Load bundles and order them canonically so listing order is moot."""
    sessions = [load_session(p) for p in paths]
    sessions.sort(key=lambda s: (s.rat_id, s.group.value, s.phase.value))
    return sessions


def _masked_window_stats(mag, valid, start, win):
    """Per-scale mean and variance over one window, COI cells preferred."""
    block = mag[:, start:start + win]
    mask = valid[:, start:start + win]
    counts = mask.sum(axis=1)
    sums = np.where(mask, block, 0.0).sum(axis=1)
    sq = np.where(mask, block ** 2, 0.0).sum(axis=1)
    mean_all = block.mean(axis=1)
    var_all = block.var(axis=1)
    ok = counts > 0
    mean = np.where(ok, sums / np.maximum(counts, 1), mean_all)
    var = np.where(ok, sq / np.maximum(counts, 1) - mean ** 2, var_all)
    return mean, np.maximum(var, 0.0)


@dataclass
class FeatureTable:
    """Feature rows plus per-row segment metadata."""

    matrix: np.ndarray
    columns: list[str]
    segments: list[Segment]
    channel_label: str | None = None  # overrides per-segment channel (wcoh)

    def row_channel(self, seg: Segment) -> str:
        return self.channel_label or seg.channel.display


def cwt_table(sessions, channel: Channel, window_len: float, hop: float,
              bank_cfg: BankConfig) -> FeatureTable:
    """Per-scale magnitude mean and variance of each window."""
    rows, segs = [], []
    columns = None
    for session in sessions:
        win, windows = chamber_windows(session, window_len, hop)
        n = session.hip.samples.size
        bank = bank_cfg.bank(next_pow2(n), session.fs)
        scal = cwt(session.channel(channel), bank)
        mag = scalogram_magnitude(scal)
        valid = scal.valid_mask()
        if columns is None:
            columns = [f"cwt_mean[{f:.4g}]" for f in scal.scale_axis]
            columns += [f"cwt_var[{f:.4g}]" for f in scal.scale_axis]
        for start, chamber in windows:
            mean, var = _masked_window_stats(mag, valid, start, win)
            rows.append(np.concatenate([mean, var]))
            segs.append(Segment(np.empty(0), session.group, session.phase,
                                channel, chamber, start / session.fs,
                                session.rat_id))
    if not rows:
        raise DataError("no chamber-constant windows found")
    return FeatureTable(np.array(rows), columns, segs)


def wcoh_table(sessions, window_len: float, hop: float, bank_cfg: BankConfig,
               smoothing: SmoothingSpec) -> FeatureTable:
    """Per-scale mean coherence and circular-mean phase of each window."""
    rows, segs = [], []
    columns = None
    for session in sessions:
        win, windows = chamber_windows(session, window_len, hop)
        n = session.hip.samples.size
        bank = bank_cfg.bank(next_pow2(n), session.fs)
        cmap = coherence(cwt(session.hip, bank), cwt(session.nac, bank),
                         smoothing)
        valid = cmap.valid_mask() & np.isfinite(cmap.phase)
        coh = cmap.coherence
        sin = np.where(valid, np.sin(cmap.phase), 0.0)
        cos = np.where(valid, np.cos(cmap.phase), 0.0)
        if columns is None:
            columns = [f"coh_mean[{f:.4g}]" for f in cmap.scale_axis]
            columns += [f"phase_mean[{f:.4g}]" for f in cmap.scale_axis]
        for start, chamber in windows:
            sl = slice(start, start + win)
            mask = valid[:, sl]
            counts = mask.sum(axis=1)
            ok = counts > 0
            coh_mean = np.where(
                ok,
                np.where(mask, coh[:, sl], 0.0).sum(axis=1)
                / np.maximum(counts, 1),
                coh[:, sl].mean(axis=1))
            mean_sin = sin[:, sl].sum(axis=1)
            mean_cos = cos[:, sl].sum(axis=1)
            phase_mean = np.where(ok, np.arctan2(mean_sin, mean_cos), 0.0)
            rows.append(np.concatenate([coh_mean, phase_mean]))
            segs.append(Segment(np.empty(0), session.group, session.phase,
                                Channel.HIP, chamber, start / session.fs,
                                session.rat_id))
    if not rows:
        raise DataError("no chamber-constant windows found")
    return FeatureTable(np.array(rows), columns, segs, channel_label="HIP-NAc")


def scatter_table(sessions, window_len: float, hop: float,
                  params: ScatteringParams) -> FeatureTable:
    from .scattering import path_names
    segments = []
    for session in sessions:
        segments.extend(segment_by_chamber(session, window_len, hop))
    if not segments:
        raise DataError("no chamber-constant windows found")
    matrix, paths, segments = feature_matrix(segments, params)
    return FeatureTable(matrix, path_names(paths), segments)


def table_to_csv(table: FeatureTable, path, config_line: str = "") -> None:
    """Feature columns then the group,phase,channel,chamber label cells."""
    rows = (row.tolist() + [seg.group.value, seg.phase.value,
                            table.row_channel(seg), seg.chamber.display]
            for row, seg in zip(table.matrix, table.segments))
    write_csv(path, table.columns + ["group", "phase", "channel", "chamber"],
              rows, config_line)


def joint_class_name(channel: Channel, phase: Phase, group: Group) -> str:
    return (f"{channel.display}-{phase.value.capitalize()}-"
            f"{group.value.capitalize()}")


def joint_class_names() -> list[str]:
    return [joint_class_name(ch, ph, g)
            for ch in JOINT_CHANNELS for ph in JOINT_PHASES
            for g in JOINT_GROUPS]


def joint_dataset(table: FeatureTable) -> Dataset:
    """12-way (channel x phase x group) dataset in confusion-chart order."""
    names = joint_class_names()
    index = {name: i for i, name in enumerate(names)}
    labels = np.array([index[joint_class_name(s.channel, s.phase, s.group)]
                       for s in table.segments], dtype=np.int64)
    missing = [names[i] for i in range(len(names))
               if not np.any(labels == i)]
    if missing:
        raise DataError(f"combinations absent from the data: {missing}")
    return Dataset(table.matrix, labels, names)


def chamber_dataset(table: FeatureTable, group: Group,
                    phases=(Phase.POST,)) -> Dataset:
    """3-way chamber dataset for one treatment group."""
    keep = [i for i, s in enumerate(table.segments)
            if s.group is group and s.phase in phases]
    if not keep:
        raise DataError(f"no segments for group {group.value}")
    names = [c.display for c in CHAMBER_ORDER]
    index = {c: i for i, c in enumerate(CHAMBER_ORDER)}
    labels = np.array([index[table.segments[i].chamber] for i in keep],
                      dtype=np.int64)
    missing = [names[j] for j in range(3) if not np.any(labels == j)]
    if missing:
        raise DataError(f"chambers absent for group {group.value}: {missing}")
    return Dataset(table.matrix[keep], labels, names)
