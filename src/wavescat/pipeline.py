"""Session-to-dataset plumbing shared by the CLI workflows.

CWT and coherence features come from *session-level* transforms, one
pass per session against the bank that ``MorseParams.bank`` shares
among sessions of one padded length. The transforms stream a block of
scale rows at a time (``FilterBank.row_blocks``): each block's kept
windows on the hop grid, and only those, are summarized per scale at
once, so a session never holds a whole scalogram or coherence map,
only its (rows x windows) sums. The one COI rule, ``_coi_mean``,
averages a window's cells inside the cone of influence (Torrence &
Compo 1998) or, for a scale with none, the whole window, so every
window yields a complete row (the contamination is identical across
equal-length sessions and adds no label information). It finds those
fallback cells once, and the CWT variance reads the same whole
windows. In the wcoh table, a scale with no sample of a window inside
the cone (or none with a defined phase) reads phase 0 for that window.
Scattering features are computed per window, each a view of the
session's channel that ``scattering.feature_matrix`` reads uncopied.

A ``FeatureTable`` labels each row with one ``model.label_dtype`` record
(group, phase, channel and chamber codes, the window's start sample and
the whole rat id). Every table builds its records per session with
``model.window_labels``; CSV cells, class ids and row selections are
array operations on those records.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import forked
from .coherence import SmoothingSpec, coherence
from .csvfile import LazyRows, write_csv
from .cwt import cwt
from .errors import DataError
from .model import (CHANNELS, JOINT_GROUPS, JOINT_PHASES, Chamber, Channel,
                    Group, Phase, RecordingSession, chamber_windows,
                    load_session, segment_by_chamber, window_labels)
from .morse import MorseParams
from .classify import Dataset
from .scattering import ScatteringParams, feature_matrix, path_names

# the chamber classes, in confusion-chart order
CHAMBER_ORDER = (Chamber.REWARDED, Chamber.NULL, Chamber.UNREWARDED)


def load_sessions(paths) -> list[RecordingSession]:
    """Load bundles and order them canonically so listing order is moot."""
    sessions = [load_session(p) for p in paths]
    sessions.sort(key=lambda s: (s.rat_id, s.group.value, s.phase.value))
    return sessions


@dataclass
class FeatureTable:
    """Feature rows plus one ``label_dtype`` record per row."""

    matrix: np.ndarray
    columns: list[str]
    segments: np.ndarray


def _window_sums(mat, grid):
    """(rows x kept windows) sums of ``mat``, each window one pairwise sum
    over a contiguous row slice; ``grid`` is (win, step, starts). Each run
    of consecutive kept windows is one strided slice of the window view,
    summed into its columns of the result, so dropped windows are never
    summed and no window is copied."""
    win, step, starts = grid
    view = sliding_window_view(mat, win, axis=1)
    sums = np.empty((mat.shape[0], starts.size),
                    np.int64 if mat.dtype == bool else mat.dtype)
    ends = [*(np.flatnonzero(np.diff(starts) != step) + 1), starts.size]
    for a, b in zip([0, *ends[:-1]], ends):
        if b > a:
            view[:, starts[a]:starts[b - 1] + 1:step].sum(axis=2,
                                                          out=sums[:, a:b])
    return sums


def _coi_mean(mat, valid, grid):
    """The COI-preferred mean: each row's mean over a window's ``valid``
    cells, or over the whole window where it has none. Also returns the
    valid-cell counts, the (rows, windows) indices of the cells with
    none, and those cells' whole windows, one per row."""
    win, _, starts = grid
    counts = _window_sums(valid, grid)
    sums = _window_sums(np.where(valid, mat, 0.0), grid)
    mean = sums / np.maximum(counts, 1)
    empty = np.nonzero(counts == 0)
    whole = sliding_window_view(mat, win, axis=1)[empty[0], starts[empty[1]]]
    mean[empty] = whole.mean(axis=1)
    return mean, counts, empty, whole


def _cwt_rows(channel, session, bank, grid):
    scal = cwt(session.channel(channel), bank)
    m = bank.n_scales
    rows = np.empty((2 * m, grid[2].size))
    for a, b in scal.blocks:
        mag, valid = np.abs(scal.rows(a, b)), scal.valid_mask(slice(a, b))
        mean, counts, empty, whole = _coi_mean(mag, valid, grid)
        sq = _window_sums(np.where(valid, mag ** 2, 0.0), grid)
        var = sq / np.maximum(counts, 1) - mean ** 2
        var[empty] = whole.var(axis=1)
        rows[a:b], rows[m + a:m + b] = mean, np.maximum(var, 0.0)
    return rows


def _wcoh_rows(smoothing, session, bank, grid):
    hip, nac = cwt(session.hip, bank), cwt(session.nac, bank)
    coi = np.maximum(hip.coi, nac.coi)
    m = bank.n_scales
    rows = np.empty((2 * m, grid[2].size))
    # a block coherence forms again supersedes its first version
    for a, coh, phase in coherence(hip, nac, smoothing):
        b = a + len(coh)
        valid = (hip.scale_axis[a:b, None] >= coi) & np.isfinite(phase)
        coh_mean, counts, _, _ = _coi_mean(coh, valid, grid)
        sin = _window_sums(np.where(valid, np.sin(phase), 0.0), grid)
        cos = _window_sums(np.where(valid, np.cos(phase), 0.0), grid)
        rows[a:b] = coh_mean
        rows[m + a:m + b] = np.where(counts > 0, np.arctan2(sin, cos), 0.0)
    return rows


def _window_table(sessions, window_len, hop, params, session_rows, names,
                  channel) -> FeatureTable:
    """A row per kept window of every session; ``session_rows(session,
    bank, grid)`` returns one session's (features x windows) block.
    ``forked.run_blocks`` splits the sessions into one contiguous block
    per CPU, and their blocks are concatenated in session order. Banks
    come from ``params.bank`` here, with their e-fold times, before any
    fork, so the rows do not depend on the CPU count. Every row is
    labelled with the ``CHANNELS`` entry ``channel``."""
    grids = [chamber_windows(session, window_len, hop)
             for session in sessions]
    if not sum(starts.size for _, _, starts, _ in grids):
        raise DataError("no chamber-constant windows found")
    banks = [params.bank(session.hip.samples.size, session.fs)
             for session in sessions]
    # every bank of one spec has the same center frequencies
    columns = [f"{name}[{f:.4g}]" for name in names
               for f in banks[0].center_frequencies]

    def block(start: int, stop: int) -> np.ndarray:
        return np.concatenate([session_rows(sessions[i], banks[i],
                                            grids[i][:3])
                               for i in range(start, stop)], axis=1)

    # transposed into a C-ordered copy, so the matrix has one layout
    matrix = np.concatenate(forked.run_blocks(
        len(sessions), block,
        lambda start, stop: f"table sessions {start}-{stop - 1}"),
        axis=1).T.copy()
    labels = [window_labels(session, starts, codes, (channel,))
              for session, (_, _, starts, codes) in zip(sessions, grids)]
    return FeatureTable(matrix, columns, np.concatenate(labels))


def cwt_table(sessions, channel: Channel, window_len: float, hop: float,
              params: MorseParams) -> FeatureTable:
    """Per-scale magnitude mean and variance of each window."""
    return _window_table(sessions, window_len, hop, params,
                         partial(_cwt_rows, channel), ("cwt_mean", "cwt_var"),
                         channel.display)


def wcoh_table(sessions, window_len: float, hop: float, params: MorseParams,
               smoothing: SmoothingSpec) -> FeatureTable:
    """Per-scale mean coherence and circular-mean phase of each window."""
    return _window_table(sessions, window_len, hop, params,
                         partial(_wcoh_rows, smoothing),
                         ("coh_mean", "phase_mean"), "HIP-NAc")


def scatter_table(sessions, window_len: float, hop: float,
                  params: ScatteringParams) -> FeatureTable:
    """The scattering row of each channel of each window, HIP then NAc
    per window, as ``segment_by_chamber`` labels them; each window is a
    view of its session's channel."""
    labels, windows = [], []
    for session in sessions:
        records = segment_by_chamber(session, window_len, hop)
        win = chamber_windows(session, window_len, hop)[0]
        samples = (session.hip.samples, session.nac.samples)  # CHANNELS[:2]
        windows += [samples[channel][start:start + win] for channel, start
                    in zip(records.channel.tolist(), records.start.tolist())]
        labels.append(records)
    if not windows:
        raise DataError("no chamber-constant windows found")
    matrix, paths, _ = feature_matrix(windows, params)
    return FeatureTable(matrix, path_names(paths), np.concatenate(labels))


def table_to_csv(table: FeatureTable, path, config_line: str = "") -> None:
    """Feature columns then the group,phase,channel,chamber label cells."""
    labels = table.segments
    cells = np.stack([
        np.array([g.value for g in JOINT_GROUPS])[labels["group"]],
        np.array([p.value for p in JOINT_PHASES])[labels["phase"]],
        np.array(CHANNELS)[labels["channel"]],
        np.array([c.display for c in Chamber])[labels["chamber"]]], axis=1)
    rows = LazyRows(len(cells),
                    lambda i: table.matrix[i].tolist() + cells[i].tolist())
    write_csv(path, table.columns + ["group", "phase", "channel", "chamber"],
              rows, config_line)


def joint_class_names() -> list[str]:
    return [f"{ch}-{ph.value.capitalize()}-{g.value.capitalize()}"
            for ch in CHANNELS[:2] for ph in JOINT_PHASES
            for g in JOINT_GROUPS]


def joint_dataset(table: FeatureTable) -> Dataset:
    """12-way (channel x phase x group) dataset in confusion-chart order."""
    names = joint_class_names()
    labels = table.segments
    classes = ((labels["channel"].astype(np.int64) * len(JOINT_PHASES)
                + labels["phase"]) * len(JOINT_GROUPS) + labels["group"])
    counts = np.bincount(classes, minlength=len(names))
    missing = [names[i] for i in np.flatnonzero(counts[:len(names)] == 0)]
    if missing:
        raise DataError(f"combinations absent from the data: {missing}")
    return Dataset(table.matrix, classes, names)


def group_rows(table: FeatureTable, group: Group, phases) -> np.ndarray:
    """The indices of the rows of ``group`` in any of ``phases``."""
    labels = table.segments
    return np.flatnonzero(
        (labels["group"] == JOINT_GROUPS.index(group))
        & np.isin(labels["phase"], [JOINT_PHASES.index(p) for p in phases]))


def chamber_dataset(table: FeatureTable, group: Group,
                    phases=(Phase.POST,)) -> Dataset:
    """3-way chamber dataset for one treatment group."""
    keep = group_rows(table, group, phases)
    if not keep.size:
        raise DataError(f"no segments for group {group.value}")
    names = [c.display for c in CHAMBER_ORDER]
    rank = np.array([CHAMBER_ORDER.index(c) for c in Chamber])
    classes = rank[table.segments["chamber"][keep]]
    missing = [names[j] for j in range(3) if not np.any(classes == j)]
    if missing:
        raise DataError(f"chambers absent for group {group.value}: {missing}")
    return Dataset(table.matrix[keep], classes, names)
