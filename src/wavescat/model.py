"""Recording data model, session bundle I/O, window labels, fold splitting.

A session bundle is a single binary file:

* line 1: the magic ``WSCAT1``
* ``key=value`` header lines (UTF-8, LF): ``fs``, ``rat``, ``group``
  (saline|morphine|food), ``phase`` (pre|post), ``nsamples``, ``ntrack``
* one blank line
* ``nsamples`` little-endian float64 values for HIP, the same count for
  NAc, then ``ntrack`` records of (float64 time, uint8 chamber code)
  with chamber codes 0=unrewarded, 1=null, 2=rewarded.

``save_session`` always writes the canonical header ordering, so
``save(load(path))`` reproduces the file byte for byte.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BundleFormatError, DataError

MAGIC = b"WSCAT1"

_HEADER_KEYS = ("fs", "rat", "group", "phase", "nsamples", "ntrack")

# One chamber-track record, in a bundle and in memory alike.
TRACK = np.dtype([("t", "<f8"), ("c", "u1")])


class Channel(enum.Enum):
    HIP = "hip"
    NAC = "nac"

    @property
    def display(self) -> str:
        return "HIP" if self is Channel.HIP else "NAc"


class Group(enum.Enum):
    SALINE = "saline"
    MORPHINE = "morphine"
    FOOD = "food"


class Phase(enum.Enum):
    PRE = "pre"
    POST = "post"


class Chamber(enum.Enum):
    UNREWARDED = 0
    NULL = 1
    REWARDED = 2

    @property
    def display(self) -> str:
        return self.name.capitalize()


# A label record's channel, phase and group codes index these tuples,
# whose (channel, phase, group) product over HIP and NAc is the joint
# class order; its chamber code is the track code.
CHANNELS = ("HIP", "NAc", "HIP-NAc")
JOINT_PHASES = (Phase.POST, Phase.PRE)
JOINT_GROUPS = (Group.MORPHINE, Group.FOOD, Group.SALINE)


def label_dtype(rat_ids) -> np.dtype:
    """One row's label record: group, phase, channel and chamber codes,
    the first sample of the row's window, then the rat id in a field as
    wide as the longest of ``rat_ids``."""
    width = max([1, *map(len, rat_ids)])
    return np.dtype([("group", "u1"), ("phase", "u1"), ("channel", "u1"),
                     ("chamber", "u1"), ("start", "<i8"),
                     ("rat", f"U{width}")])


@dataclass
class TimeSeries:
    """One channel of sampled LFP."""

    samples: np.ndarray
    fs: float
    channel: Channel

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if not (self.fs > 0 and math.isfinite(self.fs)):
            raise DataError(f"fs must be positive and finite, got {self.fs}")
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise DataError("samples must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.samples)):
            raise DataError("samples contain non-finite values")

    @property
    def duration(self) -> float:
        return self.samples.size / self.fs


@dataclass
class RecordingSession:
    hip: TimeSeries
    nac: TimeSeries
    track: np.ndarray            # TRACK records: fix time (s), chamber code
    rat_id: str
    group: Group
    phase: Phase

    def __post_init__(self):
        if self.hip.fs != self.nac.fs:
            raise DataError("hip/nac sampling rates differ")
        if self.hip.samples.size != self.nac.samples.size:
            raise DataError("channel length mismatch")
        if not (isinstance(self.track, np.ndarray)
                and self.track.dtype == TRACK):
            self.track = _track_from_pairs(self.track)
        if self.track.ndim != 1:
            raise DataError("track must be a sequence of (t, code) pairs")
        if self.track.size == 0:
            raise DataError("track is empty")
        times, codes = self.track["t"], self.track["c"]
        if codes.max() > 2:
            raise DataError(f"unknown chamber code {codes[codes > 2][0]}")
        if not (times[0] >= 0 and np.all(times[1:] > times[:-1])):
            raise DataError("track times must be nonnegative and strictly increasing")
        if times[-1] > self.hip.duration:
            raise DataError("track extends past the end of the recording")

    @property
    def fs(self) -> float:
        return self.hip.fs

    @property
    def duration(self) -> float:
        return self.hip.duration

    def channel(self, which: Channel) -> TimeSeries:
        return self.hip if which is Channel.HIP else self.nac

    def chamber_per_sample(self) -> np.ndarray:
        """Zero-order-hold chamber code per sample; -1 before the first fix."""
        return chamber_codes(self.track, self.fs, self.hip.samples.size)


def _track_from_pairs(pairs) -> np.ndarray:
    """TRACK records from a sequence of (t, code) pairs. Casting to TRACK
    alone would truncate a code of 1.7 to 1 and spread a bare time t
    over both fields, so the pairs are also read as floats and compared."""
    try:
        track = np.asarray(pairs, dtype=TRACK)
        values = np.asarray(pairs, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise DataError("track must be a sequence of (t, code) pairs") from None
    if track.ndim != 1 or track.size == 0:
        return track                   # the session reports either fault
    if values.shape != (track.size, 2):
        raise DataError("track must be a sequence of (t, code) pairs")
    bad = np.flatnonzero(values[:, 1] != track["c"])
    if bad.size:
        raise DataError(f"unknown chamber code {float(values[bad[0], 1])!r}")
    return track


def chamber_codes(track: np.ndarray, fs: float, n: int) -> np.ndarray:
    """Zero-order-hold chamber code per sample of a validated TRACK
    array; -1 before the first fix."""
    starts = np.minimum(np.ceil(track["t"] * fs).astype(np.int64), n)
    held = np.repeat(track["c"].astype(np.int8), np.diff(starts, append=n))
    return np.concatenate([np.full(starts[0], -1, dtype=np.int8), held])


def _format_fs(fs: float) -> str:
    return str(int(fs)) if float(fs) == int(fs) else repr(float(fs))


def save_session(session: RecordingSession, path) -> None:
    header = "\n".join([
        MAGIC.decode(),
        f"fs={_format_fs(session.fs)}",
        f"rat={session.rat_id}",
        f"group={session.group.value}",
        f"phase={session.phase.value}",
        f"nsamples={session.hip.samples.size}",
        f"ntrack={len(session.track)}",
        "",
        "",
    ])
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(session.hip.samples.astype("<f8").tobytes())
        fh.write(session.nac.samples.astype("<f8").tobytes())
        fh.write(session.track.tobytes())


def load_session(path) -> RecordingSession:
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(MAGIC + b"\n"):
        raise BundleFormatError("missing WSCAT1 magic", line=1)
    head_end = blob.find(b"\n\n")
    if head_end < 0:
        raise BundleFormatError("header not terminated by a blank line",
                                offset=len(blob))
    header_lines = blob[:head_end].decode("utf-8").split("\n")[1:]
    fields = {}
    for i, raw in enumerate(header_lines, start=2):
        if "=" not in raw:
            raise BundleFormatError(f"malformed header line {raw!r}", line=i)
        key, value = raw.split("=", 1)
        if key not in _HEADER_KEYS:
            raise BundleFormatError(f"unknown header key {key!r}", line=i)
        if key in fields:
            raise BundleFormatError(f"duplicate header key {key!r}", line=i)
        fields[key] = (value, i)
    for key in _HEADER_KEYS:
        if key not in fields:
            raise BundleFormatError(f"missing header key {key!r}",
                                    line=len(header_lines) + 1)

    def _num(key, caster):
        value, line = fields[key]
        try:
            return caster(value)
        except ValueError:
            raise BundleFormatError(f"bad {key} value {value!r}", line=line)

    fs = _num("fs", float)
    nsamples = _num("nsamples", int)
    ntrack = _num("ntrack", int)
    if not (fs > 0 and math.isfinite(fs)):
        raise BundleFormatError(f"fs must be positive and finite, got {fs}",
                                line=fields["fs"][1])
    for key, count in (("nsamples", nsamples), ("ntrack", ntrack)):
        if count < 1:
            raise BundleFormatError(f"{key} must be positive, got {count}",
                                    line=fields[key][1])
    rat, rat_line = fields["rat"]
    # a rat id names output files, so it must stay one plain file name
    if rat in ("", ".", "..") or "/" in rat or "\\" in rat:
        raise BundleFormatError(f"bad rat id {rat!r}", line=rat_line)
    group_tok, group_line = fields["group"]
    phase_tok, phase_line = fields["phase"]
    try:
        group = Group(group_tok)
    except ValueError:
        raise BundleFormatError(f"unknown group token {group_tok!r}",
                                line=group_line)
    try:
        phase = Phase(phase_tok)
    except ValueError:
        raise BundleFormatError(f"unknown phase token {phase_tok!r}",
                                line=phase_line)

    body = blob[head_end + 2:]
    chan_bytes = 8 * nsamples
    track_bytes = 9 * ntrack
    expected = 2 * chan_bytes + track_bytes
    if len(body) != expected:
        if len(body) < 2 * chan_bytes:
            raise BundleFormatError(
                "channel length mismatch: binary section shorter than "
                f"2*nsamples ({len(body)} < {2 * chan_bytes} bytes)",
                offset=head_end + 2 + len(body))
        raise BundleFormatError(
            f"binary section is {len(body)} bytes, expected {expected}",
            offset=head_end + 2 + min(len(body), expected))
    hip = np.frombuffer(body, dtype="<f8", count=nsamples, offset=0)
    nac = np.frombuffer(body, dtype="<f8", count=nsamples, offset=chan_bytes)
    track = np.frombuffer(body, dtype=TRACK, count=ntrack,
                          offset=2 * chan_bytes).copy()
    # the first bad record is reported, its code before its time
    times = track["t"]
    bad_code = np.append(np.flatnonzero(track["c"] > 2), ntrack)[0]
    bad_time = np.append(np.flatnonzero(times[1:] <= times[:-1]) + 1,
                         ntrack)[0]
    record = head_end + 2 + 2 * chan_bytes + 9 * int(min(bad_code, bad_time))
    if bad_code < ntrack and bad_code <= bad_time:
        raise BundleFormatError(
            f"unknown chamber code {track['c'][bad_code]}", offset=record + 8)
    if bad_time < ntrack:
        raise BundleFormatError(
            f"non-monotone track time {float(times[bad_time])}",
            offset=record)
    try:
        return RecordingSession(
            hip=TimeSeries(hip.copy(), fs, Channel.HIP),
            nac=TimeSeries(nac.copy(), fs, Channel.NAC),
            track=track,
            rat_id=rat,
            group=group,
            phase=phase,
        )
    except DataError as exc:
        raise BundleFormatError(str(exc), line=1) from exc


def chamber_windows(session: RecordingSession, window_len: float,
                    hop: float) -> tuple[int, int, np.ndarray, np.ndarray]:
    """Window length and hop in samples, then the start sample and the
    chamber code of every chamber-constant window.

    Windows are [t, t + window_len) on the hop grid; any window whose
    samples span a chamber transition (or precede the first track fix)
    is discarded. A hop longer than the session counts as the session
    length: one window starts at sample 0.
    """
    if not (window_len > 0 and hop > 0):
        raise DataError("window_len and hop must be positive")
    fs, n = session.fs, session.hip.samples.size
    # bounded before the cast, so no length overflows an int
    win = int(round(min(window_len * fs, n + 1)))
    step = int(round(min(hop * fs, n)))
    if win < 2:
        raise DataError("window shorter than two samples")
    if step < 1:
        raise DataError("hop shorter than one sample")
    if win > n:
        raise DataError("window longer than the session")
    codes = session.chamber_per_sample()
    run_ends = np.append(np.flatnonzero(codes[1:] != codes[:-1]), n - 1)
    starts = np.arange(0, n - win + 1, step)
    run_end = run_ends[np.searchsorted(run_ends, starts)]  # of start's run
    starts = starts[(codes[starts] >= 0) & (run_end >= starts + win - 1)]
    return win, step, starts, codes[starts]


def window_labels(session: RecordingSession, starts: np.ndarray,
                  codes: np.ndarray, channels) -> np.recarray:
    """The label records of ``session``'s windows, which begin at the
    samples ``starts`` and hold the chamber codes ``codes``: per window,
    one record for each ``CHANNELS`` entry in ``channels``, in order.
    Their items read their fields as attributes."""
    per = len(channels)
    labels = np.empty(starts.size * per, label_dtype([session.rat_id]))
    labels["group"] = JOINT_GROUPS.index(session.group)
    labels["phase"] = JOINT_PHASES.index(session.phase)
    labels["channel"] = np.tile([CHANNELS.index(c) for c in channels],
                                starts.size)
    labels["chamber"] = np.repeat(codes, per)
    labels["start"] = np.repeat(starts, per)
    labels["rat"] = session.rat_id
    return labels.view(np.recarray)


def segment_by_chamber(session: RecordingSession, window_len: float,
                       hop: float) -> np.recarray:
    """The label records of both channels' windows from
    ``chamber_windows``: the HIP record then the NAc record per window."""
    _, _, starts, codes = chamber_windows(session, window_len, hop)
    return window_labels(session, starts, codes, CHANNELS[:2])


def stratified_folds(keys, k: int, seed: int) -> list[np.ndarray]:
    """Partition indices into k folds, stratified by the key sequence.

    Deterministic given the seed; every stratum is dealt round-robin
    after a seeded shuffle, so per-stratum fold sizes differ by at most
    one. Strata are visited in sorted key order and the dealing offset
    rotates so the folds stay globally balanced.
    """
    keys = list(keys)
    n = len(keys)
    if k < 2:
        raise DataError("k must be at least 2")
    if k > n:
        raise DataError(f"k={k} exceeds the number of items ({n})")
    strata = {key: code for code, key in enumerate(dict.fromkeys(keys))}
    codes = np.fromiter(map(strata.get, keys), np.int64, n)
    rng = np.random.default_rng(seed)
    fold = np.empty(n, dtype=np.int64)
    offset = 0
    for key in sorted(strata, key=str):
        idx = np.flatnonzero(codes == strata[key])
        rng.shuffle(idx)
        fold[idx] = (offset + np.arange(idx.size)) % k
        offset = (offset + idx.size) % k
    return [np.flatnonzero(fold == f) for f in range(k)]
