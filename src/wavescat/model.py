"""Recording data model, session bundle I/O, segmentation, fold splitting.

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
from dataclasses import dataclass, field

import numpy as np

from .errors import BundleFormatError, DataError

MAGIC = b"WSCAT1"

_HEADER_KEYS = ("fs", "rat", "group", "phase", "nsamples", "ntrack")


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


@dataclass
class TimeSeries:
    """One channel of sampled LFP."""

    samples: np.ndarray
    fs: float
    channel: Channel

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.fs <= 0:
            raise DataError(f"fs must be positive, got {self.fs}")
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise DataError("samples must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.samples)):
            raise DataError("samples contain non-finite values")

    @property
    def duration(self) -> float:
        return self.samples.size / self.fs


@dataclass(frozen=True)
class PositionSample:
    t: float
    chamber: Chamber


@dataclass
class RecordingSession:
    hip: TimeSeries
    nac: TimeSeries
    track: list[PositionSample]
    rat_id: str
    group: Group
    phase: Phase

    def __post_init__(self):
        if self.hip.fs != self.nac.fs:
            raise DataError("hip/nac sampling rates differ")
        if self.hip.samples.size != self.nac.samples.size:
            raise DataError("channel length mismatch")
        if not self.track:
            raise DataError("track is empty")
        times = [p.t for p in self.track]
        if times[0] < 0 or any(b <= a for a, b in zip(times, times[1:])):
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


@dataclass
class Segment:
    """A fixed-length, single-channel window with constant chamber label."""

    samples: np.ndarray
    group: Group
    phase: Phase
    channel: Channel
    chamber: Chamber
    start_time: float
    rat_id: str = ""


def chamber_codes(track, fs: float, n: int) -> np.ndarray:
    """Zero-order-hold chamber code per sample; -1 before the first fix."""
    codes = np.full(n, -1, dtype=np.int8)
    times = np.array([p.t for p in track])
    starts = np.minimum(np.ceil(times * fs).astype(np.int64), n)
    for i, p in enumerate(track):
        end = starts[i + 1] if i + 1 < len(track) else n
        codes[starts[i]:end] = p.chamber.value
    return codes


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
    track = np.zeros(len(session.track),
                     dtype=np.dtype([("t", "<f8"), ("c", "u1")]))
    track["t"] = [p.t for p in session.track]
    track["c"] = [p.chamber.value for p in session.track]
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(session.hip.samples.astype("<f8").tobytes())
        fh.write(session.nac.samples.astype("<f8").tobytes())
        fh.write(track.tobytes())


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
    if fs <= 0 or nsamples < 1 or ntrack < 1:
        raise BundleFormatError("fs, nsamples and ntrack must be positive",
                                line=fields["fs"][1])
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
    rec = np.frombuffer(body, dtype=np.dtype([("t", "<f8"), ("c", "u1")]),
                        count=ntrack, offset=2 * chan_bytes)
    track = []
    for i in range(ntrack):
        code = int(rec["c"][i])
        if code not in (0, 1, 2):
            raise BundleFormatError(
                f"unknown chamber code {code}",
                offset=head_end + 2 + 2 * chan_bytes + 9 * i + 8)
        t = float(rec["t"][i])
        if track and t <= track[-1].t:
            raise BundleFormatError(
                f"non-monotone track time {t}",
                offset=head_end + 2 + 2 * chan_bytes + 9 * i)
        track.append(PositionSample(t, Chamber(code)))
    try:
        return RecordingSession(
            hip=TimeSeries(hip.copy(), fs, Channel.HIP),
            nac=TimeSeries(nac.copy(), fs, Channel.NAC),
            track=track,
            rat_id=fields["rat"][0],
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
    is discarded.
    """
    if window_len <= 0 or hop <= 0:
        raise DataError("window_len and hop must be positive")
    if not session.track:
        raise DataError("track is empty")
    fs = session.fs
    win = int(round(window_len * fs))
    step = int(round(hop * fs))
    if win < 2:
        raise DataError("window shorter than two samples")
    if step < 1:
        raise DataError("hop shorter than one sample")
    n = session.hip.samples.size
    if win > n:
        raise DataError("window longer than the session")
    codes = session.chamber_per_sample()
    run_ends = np.append(np.flatnonzero(codes[1:] != codes[:-1]), n - 1)
    starts = np.arange(0, n - win + 1, step)
    run_end = run_ends[np.searchsorted(run_ends, starts)]  # of start's run
    starts = starts[(codes[starts] >= 0) & (run_end >= starts + win - 1)]
    return win, step, starts, codes[starts]


def segment_by_chamber(session: RecordingSession, window_len: float,
                       hop: float) -> list[Segment]:
    """Cut both channels into the windows of ``chamber_windows``; emits
    the HIP segment then the NAc segment per window."""
    win, _, starts, codes = chamber_windows(session, window_len, hop)
    segments: list[Segment] = []
    for start, code in zip(starts.tolist(), codes.tolist()):
        for chan in (Channel.HIP, Channel.NAC):
            data = session.channel(chan).samples[start:start + win].copy()
            segments.append(Segment(data, session.group, session.phase,
                                    chan, Chamber(code), start / session.fs,
                                    session.rat_id))
    return segments


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
    by_key: dict = {}
    for i, key in enumerate(keys):
        by_key.setdefault(key, []).append(i)
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    offset = 0
    for key in sorted(by_key, key=lambda x: str(x)):
        idx = np.array(by_key[key], dtype=np.int64)
        rng.shuffle(idx)
        for j, i in enumerate(idx):
            folds[(offset + j) % k].append(int(i))
        offset = (offset + idx.size) % k
    return [np.sort(np.array(f, dtype=np.int64)) for f in folds]
