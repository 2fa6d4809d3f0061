"""Batch command line: synth | features | chambers | joint | report.

Exit codes: 0 success, 2 usage or configuration error, 3 data error,
4 numerical failure. Every option can also come from a ``key=value``
config file (``--config``); explicit flags win. ``OPTIONS`` lists each
option once and generates the flags, the ``--help`` defaults and the
config-file casts. A config key must name an option of some command;
keys of other commands are ignored, so one file can serve every
command. All outputs embed the resolved configuration in a
``# wavescat-config:`` header line and are written atomically (temp
file + rename), so re-running a command with the same configuration
reproduces every output byte for byte.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
from dataclasses import dataclass

import numpy as np

from .classify import (Dataset, confusion_from_counts_csv, confusion_stats,
                       confusion_to_csv, run_kfold, train_mlp, train_svm_ova,
                       train_tree, tree_complexity)
from .coherence import SmoothingSpec, coherence, phase_overlay, overlay_to_csv
from .csvfile import write_csv
from .cwt import cwt, next_pow2, scalogram_magnitude, scalogram_to_csv
from .errors import DataError, NumericalError
from .model import Channel, Group, Phase
from .netpbm import to_gray, write_pgm
from .pipeline import (BankConfig, chamber_dataset, cwt_table,
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


def _boolean(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _sizes(text: str) -> str:
    """Comma-separated layer sizes, checked but kept as the text that
    the config line records."""
    for size in filter(None, text.split(",")):
        int(size)
    return text


@dataclass(frozen=True)
class Option:
    """One option: the flag ``--name`` (``_`` written ``-``) and the
    config-file key ``name``."""

    name: str
    type: object                 # float, int, str, bool or a str validator
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
    Option("seed", int, None, "random seed", _ALL,
           required=("synth", "chambers", "joint"), record="set"),
    Option("out", str, None, "output directory", _ALL,
           required=_ALL, record="never"),
    Option("data", str, None, "directory of .wscat bundles", _DATA,
           required=("features", "chambers", "report"), record="never"),
    Option("delta", float, 0.8, "separability in [0,1]", ("synth",)),
    Option("session_len", float, 60.0, "session length, s", ("synth",)),
    Option("fs", float, 1000.0, "sampling rate, Hz", ("synth",)),
    Option("rats_saline", int, 7, "saline cohort size", ("synth",)),
    Option("rats_morphine", int, 6, "morphine cohort size", ("synth",)),
    Option("rats_food", int, 6, "food cohort size", ("synth",)),
    Option("channel", str, "hip", "channel for kind=cwt", ("features",),
           choices=("hip", "nac")),
    Option("window", float, 1.0, "segment length, s", _WINDOW),
    Option("hop", float, 0.5, "segment hop, s", _WINDOW),
    Option("fmin", float, 1.0, "lowest center frequency, Hz", _BANK),
    Option("fmax", float, 100.0, "highest center frequency, Hz", _MORSE),
    Option("voices", int, 10, "voices per octave", _BANK),
    Option("gamma", float, 3.0, "Morse symmetry", _MORSE),
    Option("tb", float, 60.0, "Morse time-bandwidth product", _BANK),
    Option("c_t", float, 2.0, "time smoothing, cycles", _BANK),
    Option("c_s", float, 0.6, "scale smoothing, octaves", _BANK),
    Option("t", float, 0.5, "scattering invariance, s", _SCATTER),
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
    Option("learning_rate", float, 0.1, "MLP learning rate", ("chambers",)),
    Option("shuffle_labels", bool, False,
           "seeded label permutation (chance-level control)", ("joint",),
           record="set"),
    Option("stats_from", str, None,
           "skip the pipeline; recompute stats from a counts CSV",
           ("joint",), record="never"),
    Option("c", float, 1.0, "SVM penalty C", ("joint",)),
    Option("tol", float, 1e-3, "SVM duality-gap tolerance", ("joint",)),
    Option("max_iter", int, 300, "SVM epoch limit", ("joint",)),
    Option("rat", str, None, "rat id, e.g. rat14; unset takes the first "
           "in sort order", ("report",), record="never"),
    Option("threshold", float, 0.5,
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
            except ValueError as exc:
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
    tmp = str(path) + ".tmp"
    writer(tmp)
    os.replace(tmp, path)


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
    the name (``perfbench/traced.py``) still sees every fit."""
    if cfg.get("model") == "dt":
        max_depth, min_leaf = cfg.get("max_depth"), cfg.get("min_leaf")
        return lambda data, seed: train_tree(data, max_depth, min_leaf)
    hidden = tuple(int(h) for h in cfg.get("hidden").split(",") if h)
    epochs, rate = cfg.get("epochs"), cfg.get("learning_rate")
    return lambda data, seed: train_mlp(data, hidden, epochs, rate, seed)


def cmd_chambers(cfg: Config):
    sessions = load_sessions(_bundle_paths(cfg.get("data")))
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
    out_dir = cfg.get("out")

    os.makedirs(out_dir, exist_ok=True)
    accuracy = {}
    complexity = {}
    for source in sources:
        if source == "wcoh":
            table = wcoh_table(sessions, window, hop, bank_cfg,
                               _smoothing(cfg))
        else:
            table = cwt_table(sessions, Channel(source), window, hop,
                              bank_cfg)
        for group in groups:
            data = chamber_dataset(table, group, phases)
            rats = None
            if per_rat:
                rats = [s.rat_id for s in table.segments
                        if s.group is group and s.phase in phases]
            matrix = run_kfold(data, k, fit, seed, groups=rats)
            stats = confusion_stats(matrix)
            accuracy[(source, group.value)] = stats["micro"]
            out = os.path.join(out_dir, f"confusion_{source}_{group.value}.csv")
            _atomic(out, lambda p, m=matrix: confusion_to_csv(m, p, cfg.line()))
            if is_tree:
                complexity[(source, group.value)] = tree_complexity(
                    fit(data, seed))
            print(f"chambers {source}/{group.value}: "
                  f"micro={stats['micro']:.2f}% macro={stats['macro']:.2f}%")

    rows = [[source] + [accuracy[(source, g.value)] for g in groups]
            for source in sources]
    _atomic(os.path.join(out_dir, "chambers_accuracy.csv"),
            lambda p: write_csv(p, ["source"] + [g.value for g in groups],
                                rows, cfg.line()))
    if complexity:
        rows = [[source, group, c["nodes"], c["leaves"], c["depth"],
                 c["grade"]]
                for (source, group), c in sorted(complexity.items())]
        _atomic(os.path.join(out_dir, "chambers_complexity.csv"),
                lambda p: write_csv(p, ["source", "group", "nodes", "leaves",
                                        "depth", "grade"], rows, cfg.line()))
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
    matrix = run_kfold(data, k,
                       lambda d, _: train_svm_ova(d, c, tol, max_iter), seed)
    stats = confusion_stats(matrix)
    out = os.path.join(out_dir, "joint_confusion.csv")
    _atomic(out, lambda p: confusion_to_csv(matrix, p, cfg.line()))
    print(f"joint 12-way: macro={stats['macro']:.4f}% "
          f"micro={stats['micro']:.4f}% ({data.n_samples} segments)")
    return 0


def cmd_report(cfg: Config):
    sessions = load_sessions(_bundle_paths(cfg.get("data")))
    rat = cfg.get("rat")
    if rat:
        sessions = [s for s in sessions if s.rat_id == rat]
    phase = Phase(cfg.get("phase"))
    sessions = [s for s in sessions if s.phase is phase]
    if not sessions:
        raise DataError("no session matches the rat/phase selection")
    session = sessions[0]
    bank = _bank_config(cfg).bank(next_pow2(session.hip.samples.size),
                                  session.fs)
    out_dir = cfg.get("out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{session.rat_id}_{session.phase.value}"
    scal = {}
    for chan in (Channel.HIP, Channel.NAC):
        scal[chan] = cwt(session.channel(chan), bank)
        mag = scalogram_magnitude(scal[chan])
        base = os.path.join(out_dir, f"{stem}_{chan.value}_scalogram")
        _atomic(base + ".csv",
                lambda p, m=mag, s=scal[chan]: scalogram_to_csv(
                    m, s.scale_axis, s.time_axis, p, cfg.line()))
        _atomic(base + ".pgm",
                lambda p, m=mag: write_pgm(p, to_gray(m),
                                           f"wavescat-config: {cfg.line()}"))
    cmap = coherence(scal[Channel.HIP], scal[Channel.NAC], _smoothing(cfg))
    base = os.path.join(out_dir, f"{stem}_wcoh")
    _atomic(base + ".csv",
            lambda p: scalogram_to_csv(cmap.coherence, cmap.scale_axis,
                                       cmap.time_axis, p, cfg.line()))
    phase_mat = np.where(np.isfinite(cmap.phase), cmap.phase, 0.0)
    _atomic(base + "_phase.csv",
            lambda p: scalogram_to_csv(phase_mat, cmap.scale_axis,
                                       cmap.time_axis, p, cfg.line()))
    _atomic(base + ".pgm",
            lambda p: write_pgm(p, to_gray(cmap.coherence, 0.0, 1.0),
                                f"wavescat-config: {cfg.line()}"))
    records = phase_overlay(cmap, cfg.get("threshold"))
    _atomic(base + "_overlay.csv",
            lambda p: overlay_to_csv(records, p, cfg.line()))
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


if __name__ == "__main__":
    sys.exit(main())
