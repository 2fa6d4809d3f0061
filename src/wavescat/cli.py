"""Batch command line: synth | features | chambers | joint | report.

Exit codes: 0 success, 2 usage or configuration error or an output that
cannot be written, 3 data error, 4 numerical failure. Every option can
also come from a ``key=value`` config file (``--config``); explicit
flags win. ``OPTIONS`` lists each option once and generates the flags,
the ``--help`` defaults and the config-file casts. A config key must
name an option of some command; keys of other commands are ignored, so
one file can serve every command. A command reads every option and
computes every result before it writes its first file, so a failed run
writes none, and every output of a run embeds the same resolved
configuration in a ``# wavescat-config:`` header line. Each file is
written atomically (temp file + rename), so re-running a command with
the same configuration reproduces every output byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import math
import os
import pickle
import sys
from dataclasses import dataclass

import numpy as np

from . import forked
from .classify import (Dataset, confusion_from_counts_csv, confusion_stats,
                       confusion_to_csv, run_kfold, train_mlp, train_svm_ova,
                       train_tree, tree_complexity)
from .coherence import (SmoothingSpec, coherence, overlay_to_csv,
                        phase_overlay)
from .csvfile import write_csv
from .cwt import cwt, scalogram_to_csv
from .errors import DataError, NumericalError
from .model import Channel, Group, Phase
from .netpbm import to_gray, write_pgm
from .pipeline import (BankConfig, chamber_dataset, cwt_table, group_rows,
                       joint_dataset, load_sessions, scatter_table,
                       table_to_csv, wcoh_table)
from .scattering import ScatteringParams
from .synth import SynthSpec, generate_cohort

_ALL = ("synth", "features", "chambers", "joint", "report")
_DATA = ("features", "chambers", "joint", "report")
_WINDOW = ("features", "chambers", "joint")
_BANK = ("features", "chambers", "report")
_MORSE = _BANK + ("joint",)
_SCATTER = ("features", "joint")


class UsageError(Exception):
    """A usage or configuration mistake: exit 2 with a one-line message."""


# The casters raise ArgumentTypeError, whose message argparse prints as
# is, so a flag and a config-file value get the same error text.

def _boolean(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"not a boolean: {text!r}")


def _finite(text: str) -> float:
    """A float option's value; NaN and infinities are refused."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _seed(text: str) -> int:
    """A random seed: numpy takes only non-negative integers."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"not a non-negative integer: {text!r}")
    return value


def _sizes(text: str) -> str:
    """Comma-separated layer sizes, recorded in the config line as
    ``8,4`` however the value was spaced."""
    try:
        return ",".join(str(int(size))
                        for size in filter(None, text.split(",")))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not comma-separated integers: {text!r}") from None


@dataclass(frozen=True)
class Option:
    """One option: the flag ``--name`` (``_`` written ``-``) and the
    config-file key ``name``."""

    name: str
    type: object                 # int, str, bool or a validator
    default: object
    help: str
    commands: tuple
    choices: tuple | dict = ()   # a dict maps a command to its choices
    required: tuple = ()         # commands that need a value
    record: str = "always"       # in the config line: always | set | never

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def cast(self, text: str):
        return (_boolean if self.type is bool else self.type)(text)

    def choices_for(self, command: str) -> tuple:
        if isinstance(self.choices, dict):
            return self.choices.get(command, ())
        return self.choices


OPTIONS = {o.name: o for o in (
    Option("seed", _seed, None, "random seed", _ALL,
           required=("synth", "chambers", "joint"), record="set"),
    Option("out", str, None, "output directory", _ALL,
           required=_ALL, record="never"),
    Option("data", str, None, "directory of .wscat bundles", _DATA,
           required=("features", "chambers", "report"), record="never"),
    Option("delta", _finite, 0.8, "separability in [0,1]", ("synth",)),
    Option("session_len", _finite, 60.0, "session length, s", ("synth",)),
    Option("fs", _finite, 1000.0, "sampling rate, Hz", ("synth",)),
    Option("rats_saline", int, 7, "saline cohort size", ("synth",)),
    Option("rats_morphine", int, 6, "morphine cohort size", ("synth",)),
    Option("rats_food", int, 6, "food cohort size", ("synth",)),
    Option("channel", str, "hip", "channel for kind=cwt", ("features",),
           choices=("hip", "nac")),
    Option("window", _finite, 1.0, "segment length, s", _WINDOW),
    Option("hop", _finite, 0.5, "segment hop, s", _WINDOW),
    Option("fmin", _finite, 1.0, "lowest center frequency, Hz", _BANK),
    Option("fmax", _finite, 100.0, "highest center frequency, Hz", _MORSE),
    Option("voices", int, 10, "voices per octave", _BANK),
    Option("gamma", _finite, 3.0, "Morse symmetry", _MORSE),
    Option("tb", _finite, 60.0, "Morse time-bandwidth product", _BANK),
    Option("c_t", _finite, 2.0, "time smoothing, cycles", _BANK),
    Option("c_s", _finite, 0.6, "scale smoothing, octaves", _BANK),
    Option("t", _finite, 0.5, "scattering invariance, s", _SCATTER),
    Option("q1", int, 8, "layer-1 voices per octave", _SCATTER),
    Option("q2", int, 1, "layer-2 voices per octave", _SCATTER),
    Option("model", str, "dt", "classifier", ("chambers",),
           choices=("dt", "mlp")),
    Option("source", str, "all", "feature source", ("chambers",),
           choices=("hip", "nac", "wcoh", "all")),
    Option("group", str, "all", "treatment group", ("chambers",),
           choices=("food", "morphine", "saline", "all")),
    Option("phase", str, "post", "session phase", ("chambers", "report"),
           choices={"chambers": ("pre", "post", "both"),
                    "report": ("pre", "post")}),
    Option("k", int, 10, "folds", ("chambers", "joint")),
    Option("per_rat", bool, False,
           "hold out whole rats instead of stratifying", ("chambers",)),
    Option("max_depth", int, 12, "DT depth limit", ("chambers",)),
    Option("min_leaf", int, 1, "DT minimum leaf size", ("chambers",)),
    Option("hidden", _sizes, "64", "MLP hidden sizes, comma separated",
           ("chambers",)),
    Option("epochs", int, 300, "MLP epochs", ("chambers",)),
    Option("learning_rate", _finite, 0.1, "MLP learning rate", ("chambers",)),
    Option("shuffle_labels", bool, False,
           "seeded label permutation (chance-level control)", ("joint",),
           record="set"),
    Option("stats_from", str, None,
           "skip the pipeline; recompute stats from a counts CSV",
           ("joint",), record="never"),
    Option("c", _finite, 1.0, "SVM penalty C", ("joint",)),
    Option("tol", _finite, 1e-3, "SVM duality-gap tolerance", ("joint",)),
    Option("max_iter", int, 300, "SVM epoch limit", ("joint",)),
    Option("rat", str, None, "rat id, e.g. rat14; unset takes the first "
           "in sort order", ("report",), record="never"),
    Option("threshold", _finite, 0.5,
           "coherence threshold for the phase overlay", ("report",)),
)}


class Config:
    """Flag > config file > table default. ``get`` records what a command
    reads, so ``line`` reproduces the run."""

    def __init__(self, args, file_values):
        self.args = args
        self.command = args.command
        self.file_values = {}
        for key, (text, where) in file_values.items():
            opt = OPTIONS[key]
            if self.command not in opt.commands:
                continue                # another command's key
            try:
                value = opt.cast(text)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError(f"{where}: {key}={text}: {exc}") from None
            choices = opt.choices_for(self.command)
            if choices and value not in choices:
                raise UsageError(f"{where}: {key}={text}: not one of "
                                 f"{', '.join(choices)}")
            self.file_values[key] = value
        for opt in OPTIONS.values():
            if (self.command in opt.required
                    and getattr(args, opt.name) is None
                    and opt.name not in self.file_values):
                raise UsageError(f"{opt.flag} is required")
        self.resolved = {}

    def get(self, key):
        opt = OPTIONS[key]
        value = getattr(self.args, key)
        if value is None:
            value = self.file_values.get(key, opt.default)
        if opt.record == "always" or (opt.record == "set"
                                      and value != opt.default):
            self.resolved[key] = value
        return value

    def line(self) -> str:
        pairs = [f"cmd={self.command}"]
        pairs += [f"{k}={v}" for k, v in sorted(self.resolved.items())]
        return " ".join(pairs)


def _load_config_file(path):
    """``key=value`` lines; ``#`` comments and blank lines are skipped.
    Every key must name an option of some command."""
    values = {}
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path} line {number}"
        key, sep, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if not sep or not key:
            raise UsageError(f"{where}: expected key=value, got {line!r}")
        if key not in OPTIONS:
            raise UsageError(f"{where}: unknown key {key!r}")
        if not val.strip():
            raise UsageError(f"{where}: {key} has no value")
        values[key] = (val.strip(), where)
    return values


def _atomic(path, writer):
    """``writer(tmp)`` then rename over ``path``; a failed write leaves
    neither ``tmp`` nor ``path`` changed. ``write_csv``'s block files have
    no name, so none is left either."""
    tmp = str(path) + ".tmp"
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _bundle_paths(data_dir):
    paths = sorted(glob.glob(os.path.join(data_dir, "*.wscat")))
    if not paths:
        raise DataError(f"no .wscat bundles under {data_dir}")
    return paths


def _bank_config(cfg: Config) -> BankConfig:
    return BankConfig(gamma=cfg.get("gamma"), time_bandwidth=cfg.get("tb"),
                      voices_per_octave=cfg.get("voices"),
                      fmin=cfg.get("fmin"), fmax=cfg.get("fmax"))


def _smoothing(cfg: Config) -> SmoothingSpec:
    return SmoothingSpec(c_t=cfg.get("c_t"), c_s=cfg.get("c_s"))


def _scatter_params(cfg: Config, fs: float) -> ScatteringParams:
    return ScatteringParams(t=cfg.get("t"), q1=cfg.get("q1"),
                            q2=cfg.get("q2"), fs=fs, fmax=cfg.get("fmax"),
                            gamma=cfg.get("gamma"))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_synth(cfg: Config):
    spec = SynthSpec(
        rats_saline=cfg.get("rats_saline"),
        rats_morphine=cfg.get("rats_morphine"),
        rats_food=cfg.get("rats_food"),
        session_len=cfg.get("session_len"),
        fs=cfg.get("fs"),
        delta=cfg.get("delta"),
        seed=cfg.get("seed"),
    )
    out = cfg.get("out")
    paths = generate_cohort(spec, out)
    print(f"wrote {len(paths)} bundles to {out}")
    return 0


def cmd_features(cfg: Config):
    kind = cfg.args.kind
    sessions = load_sessions(_bundle_paths(cfg.get("data")))
    window, hop = cfg.get("window"), cfg.get("hop")
    out_dir = cfg.get("out")
    os.makedirs(out_dir, exist_ok=True)
    if kind == "cwt":
        channel = Channel(cfg.get("channel"))
        table = cwt_table(sessions, channel, window, hop, _bank_config(cfg))
        name = f"features_cwt_{channel.value}.csv"
    elif kind == "wcoh":
        table = wcoh_table(sessions, window, hop, _bank_config(cfg),
                           _smoothing(cfg))
        name = "features_wcoh.csv"
    else:
        params = _scatter_params(cfg, sessions[0].fs)
        table = scatter_table(sessions, window, hop, params)
        name = "features_scatter.csv"
    path = os.path.join(out_dir, name)
    _atomic(path, lambda p: table_to_csv(table, p, cfg.line()))
    print(f"wrote {table.matrix.shape[0]} feature rows to {path}")
    return 0


def _chambers_fit(cfg: Config):
    """``fit(data, seed)`` for the ``--model`` classifier. Like joint's,
    it looks ``train_*`` up when called, so a wrapper later bound over
    the name (``perfbench/traced.py``) sees every fit made in this
    process: with ``--model dt`` that is only the first block of cells,
    because forked children fit the others."""
    if cfg.get("model") == "dt":
        max_depth, min_leaf = cfg.get("max_depth"), cfg.get("min_leaf")
        return lambda data, seed: train_tree(data, max_depth, min_leaf)
    hidden = tuple(int(h) for h in cfg.get("hidden").split(",") if h)
    epochs, rate = cfg.get("epochs"), cfg.get("learning_rate")
    return lambda data, seed: train_mlp(data, hidden, epochs, rate, seed)


def cmd_chambers(cfg: Config):
    window, hop = cfg.get("window"), cfg.get("hop")
    bank_cfg = _bank_config(cfg)
    seed, k = cfg.get("seed"), cfg.get("k")
    fit = _chambers_fit(cfg)
    is_tree = cfg.get("model") == "dt"
    phases = {"pre": (Phase.PRE,), "post": (Phase.POST,),
              "both": (Phase.PRE, Phase.POST)}[cfg.get("phase")]
    source_tok = cfg.get("source")
    sources = ["hip", "nac", "wcoh"] if source_tok == "all" else [source_tok]
    group_tok = cfg.get("group")
    groups = ([Group.FOOD, Group.MORPHINE, Group.SALINE]
              if group_tok == "all" else [Group(group_tok)])
    per_rat = cfg.get("per_rat")
    smoothing = _smoothing(cfg) if "wcoh" in sources else None
    out_dir = cfg.get("out")
    # only the sessions that give rows are transformed
    sessions = [s for s in load_sessions(_bundle_paths(cfg.get("data")))
                if s.phase in phases and s.group in groups]
    if not sessions:
        raise DataError(f"no segments for group {groups[0].value}")

    os.makedirs(out_dir, exist_ok=True)
    tables = {source: (wcoh_table(sessions, window, hop, bank_cfg, smoothing)
                       if source == "wcoh"
                       else cwt_table(sessions, Channel(source), window, hop,
                                      bank_cfg))
              for source in sources}
    cells = [(source, group) for source in sources for group in groups]
    results = [None] * len(cells)

    def fit_cells(start: int, stop: int) -> None:
        for i in range(start, stop):
            source, group = cells[i]
            table = tables[source]
            data = chamber_dataset(table, group, phases)
            rats = (table.segments["rat"][group_rows(table, group, phases)]
                    if per_rat else None)
            matrix = run_kfold(data, k, fit, seed, groups=rats)
            results[i] = (matrix, tree_complexity(fit(data, seed))
                          if is_tree else None)

    def child(part, start: int, stop: int) -> None:
        fit_cells(start, stop)
        pickle.dump(results[start:stop], part)

    def gather(part, start: int, stop: int) -> None:
        results[start:stop] = pickle.load(part)

    # the MLP's BLAS threads would contend with a forked child's
    forked.run_blocks(len(cells), fit_cells, child, gather,
                      lambda start, stop: f"chambers cells {start}-{stop - 1}",
                      fork=is_tree)
    matrices = {(source, group.value): (matrix, confusion_stats(matrix))
                for (source, group), (matrix, _) in zip(cells, results)}
    complexity = {(source, group.value): tree
                  for (source, group), (_, tree) in zip(cells, results)
                  if tree is not None}

    line = cfg.line()
    for (source, group), (matrix, stats) in matrices.items():
        out = os.path.join(out_dir, f"confusion_{source}_{group}.csv")
        _atomic(out, lambda p, m=matrix: confusion_to_csv(m, p, line))
        print(f"chambers {source}/{group}: "
              f"micro={stats['micro']:.2f}% macro={stats['macro']:.2f}%")
    rows = [[source] + [matrices[(source, g.value)][1]["micro"]
                        for g in groups]
            for source in sources]
    _atomic(os.path.join(out_dir, "chambers_accuracy.csv"),
            lambda p: write_csv(p, ["source"] + [g.value for g in groups],
                                rows, line))
    if complexity:
        rows = [[source, group, c["nodes"], c["leaves"], c["depth"],
                 c["grade"]]
                for (source, group), c in sorted(complexity.items())]
        _atomic(os.path.join(out_dir, "chambers_complexity.csv"),
                lambda p: write_csv(p, ["source", "group", "nodes", "leaves",
                                        "depth", "grade"], rows, line))
    return 0


def cmd_joint(cfg: Config):
    out_dir, stats_from = cfg.get("out"), cfg.get("stats_from")
    if not stats_from and cfg.get("data") is None:
        raise UsageError("--data or --stats-from is required")
    os.makedirs(out_dir, exist_ok=True)
    if stats_from:
        matrix = confusion_from_counts_csv(stats_from)
        stats = confusion_stats(matrix)
        out = os.path.join(out_dir, "joint_stats.csv")
        _atomic(out, lambda p: confusion_to_csv(matrix, p, cfg.line()))
        print(f"macro_accuracy={stats['macro']!r} "
              f"micro_accuracy={stats['micro']!r}")
        return 0
    sessions = load_sessions(_bundle_paths(cfg.get("data")))
    window, hop = cfg.get("window"), cfg.get("hop")
    params = _scatter_params(cfg, sessions[0].fs)
    seed, k = cfg.get("seed"), cfg.get("k")
    table = scatter_table(sessions, window, hop, params)
    data = joint_dataset(table)
    if cfg.get("shuffle_labels"):
        rng = np.random.default_rng(seed)
        data = Dataset(data.features, rng.permutation(data.labels),
                       data.class_names)
    c, tol, max_iter = cfg.get("c"), cfg.get("tol"), cfg.get("max_iter")
    fold_gaps = []

    def fit(d, _):
        # train_svm_ova is looked up per call, as in _chambers_fit
        model = train_svm_ova(d, c, tol, max_iter)
        fold_gaps.append(model.gaps)
        return model

    matrix = run_kfold(data, k, fit, seed)
    gaps = np.concatenate(fold_gaps)
    missed = int(np.count_nonzero(gaps > tol))
    if missed:
        print(f"warning: {missed} of {gaps.size} SVM machines stopped above "
              f"tol={tol:g} (largest gap {gaps.max():.3g})", file=sys.stderr)
    stats = confusion_stats(matrix)
    out = os.path.join(out_dir, "joint_confusion.csv")
    _atomic(out, lambda p: confusion_to_csv(matrix, p, cfg.line()))
    print(f"joint 12-way: macro={stats['macro']:.4f}% "
          f"micro={stats['micro']:.4f}% ({data.n_samples} segments)")
    return 0


def cmd_report(cfg: Config):
    smoothing, threshold = _smoothing(cfg), cfg.get("threshold")
    sessions = load_sessions(_bundle_paths(cfg.get("data")))
    rat = cfg.get("rat")
    if rat:
        sessions = [s for s in sessions if s.rat_id == rat]
    phase = Phase(cfg.get("phase"))
    sessions = [s for s in sessions if s.phase is phase]
    if not sessions:
        raise DataError("no session matches the rat/phase selection")
    session = sessions[0]
    bank = _bank_config(cfg).bank(session.hip.samples.size, session.fs)
    out_dir = cfg.get("out")
    os.makedirs(out_dir, exist_ok=True)
    hip, nac = cwt(session.hip, bank), cwt(session.nac, bank)
    cmap = coherence(hip, nac, smoothing)
    mag_hip, mag_nac = np.abs(hip.coefficients), np.abs(nac.coefficients)
    del hip, nac    # freed before the CSV writers fork their children
    images = [("hip_scalogram", mag_hip, to_gray(mag_hip)),
              ("nac_scalogram", mag_nac, to_gray(mag_nac)),
              ("wcoh", cmap.coherence, to_gray(cmap.coherence, 0.0, 1.0))]
    phase_mat = np.where(np.isfinite(cmap.phase), cmap.phase, 0.0)
    records = phase_overlay(cmap, threshold)

    line = cfg.line()
    stem = f"{session.rat_id}_{session.phase.value}"
    base = os.path.join(out_dir, stem)
    axes = cmap.scale_axis, cmap.time_axis
    for name, mat, gray in images:
        _atomic(f"{base}_{name}.csv",
                lambda p, m=mat: scalogram_to_csv(m, *axes, p, line))
        _atomic(f"{base}_{name}.pgm",
                lambda p, g=gray: write_pgm(p, g, f"wavescat-config: {line}"))
    _atomic(f"{base}_wcoh_phase.csv",
            lambda p: scalogram_to_csv(phase_mat, *axes, p, line))
    _atomic(f"{base}_wcoh_overlay.csv",
            lambda p: overlay_to_csv(records, p, line))
    print(f"report for {stem}: {len(records)} overlay records")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic cohort"),
    "features": (cmd_features, "export per-segment features"),
    "chambers": (cmd_chambers, "3-way chamber classification per group"),
    "joint": (cmd_joint, "12-way scattering + one-vs-all SVM pipeline"),
    "report": (cmd_report, "plot-ready scalogram/coherence exports"),
}


def _help(opt: Option, command: str) -> str:
    text = opt.help
    if opt.default is not None:
        text += f" [{opt.default}]"
    if command in opt.required:
        text += " (required)"
    return text


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wavescat",
        description="Two-channel LFP wavelet features and classification. "
                    "Bracketed values in the help are the built-in defaults.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if command == "features":
            p.add_argument("kind", choices=["cwt", "wcoh", "scatter"])
        p.add_argument("--config",
                       help="key=value config file; flags override")
        for opt in OPTIONS.values():
            if command not in opt.commands:
                continue
            if opt.type is bool:
                p.add_argument(opt.flag, dest=opt.name, action="store_true",
                               default=None, help=_help(opt, command))
            else:
                p.add_argument(opt.flag, dest=opt.name, type=opt.type,
                               choices=opt.choices_for(command) or None,
                               help=_help(opt, command))
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = Config(args, _load_config_file(args.config)
                     if args.config else {})
        cfg.get("seed")     # recorded whenever given, even if unused
        return args.func(cfg)
    except UsageError as exc:
        print(f"wavescat {args.command}: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"wavescat {args.command}: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    except MemoryError as exc:
        print(f"data error: out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
