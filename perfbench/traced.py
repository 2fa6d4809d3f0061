"""Run one ``wavescat`` command in-process with every layer wrapped.

    PYTHONPATH=src python3 perfbench/traced.py OUT.json -- <cli args>

Each wrapped function records a span (name, start, end, parent) in
memory; OUT.json receives the spans, per-layer metrics and call counts
when the command returns, with the seconds the process then spent
measuring the hot wrapper's cost, which are not tracing overhead. The
process exit code is the command's.
Nothing under ``src/`` is modified: wrappers replace the function in
every ``wavescat`` module namespace that holds it, which is what catches
the copies that ``from ... import`` bound into ``pipeline``, ``cli`` and
``classify.kfold``; the benchmark then asserts each expected layer was
called, so a refactor that routes around a wrapper fails loudly.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import statistics
import sys
import time

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent, attrs, agg]
        self.stack = []       # indices into spans of the open spans

    def wrap(self, name, fn, observe=None):
        """A wrapper that records one span per call.

        ``observe(bound_arguments, result)`` may return attributes that
        are stored on the span; it runs after the span has closed.
        """
        sig = inspect.signature(fn) if observe else None
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe:
                span[4] = observe(sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def wrap_hot(self, name, fn):
        """A wrapper for layers called ~1e5 times per run: no span, only
        calls and seconds summed onto the enclosing span."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                parent = spans[stack[-1]]
                if parent[5] is None:
                    parent[5] = {}
                acc = parent[5].setdefault(name, [0, 0.0])
                acc[0] += 1
                acc[1] += clock() - start

        return wrapper


def _grid_windows(args):
    """Hop-grid windows of every session, before the chamber filter."""
    total = 0
    for session in args["sessions"]:
        win = int(round(args["window_len"] * session.fs))
        step = int(round(args["hop"] * session.fs))
        n = session.hip.samples.size
        total += (n - win) // step + 1 if n >= win else 0
    return total


def _observe_table(args, table):
    return {"kept": len(table.segments), "grid": _grid_windows(args)}


def _observe_bank(args, bank):
    """Everything a bank depends on: length, rate, wavelet and voices."""
    cf = bank.center_frequencies
    return {"key": [bank.n, float(bank.fs), repr(bank.params),
                    bank.voices_per_octave, cf.size, float(cf[0]),
                    float(cf[-1])]}


def _observe_svm(args, model):
    return {"converged": int(model.converged.sum()),
            "machines": int(model.converged.size),
            "max_gap": float(model.gaps.max())}


# (layer, module, attribute, observe, hot). Layer names are module names
# under ``wavescat``; ``_kernels`` reads ``kernels`` because metric names
# must start with a letter.
LAYERS = (
    ("cli.main", "wavescat.cli", "main", None, False),
    ("model.load_session", "wavescat.model", "load_session", None, False),
    ("model.segment_by_chamber", "wavescat.model", "segment_by_chamber",
     None, False),
    ("morse.build_filterbank", "wavescat.morse", "build_filterbank",
     _observe_bank, False),
    ("morse.efold_times", "wavescat.morse", "FilterBank.efold_times",
     None, False),
    ("cwt", "wavescat.cwt", "cwt",
     lambda a, r: {"points": int(a["bank"].filters.size)}, False),
    ("coherence", "wavescat.coherence", "coherence", None, False),
    ("coherence.phase_overlay", "wavescat.coherence", "phase_overlay",
     None, False),
    ("kernels.boxcar_time", "wavescat._kernels", "boxcar_time", None, False),
    ("kernels.boxcar_scale", "wavescat._kernels", "boxcar_scale",
     None, False),
    ("kernels.best_split_column", "wavescat._kernels", "best_split_column",
     None, True),
    ("kernels.svm_dual_solve", "wavescat._kernels", "svm_dual_solve",
     lambda a, r: {"epochs": int(r[3])}, False),
    ("pipeline.cwt_table", "wavescat.pipeline", "cwt_table",
     _observe_table, False),
    ("pipeline.wcoh_table", "wavescat.pipeline", "wcoh_table",
     _observe_table, False),
    ("scattering.feature_matrix", "wavescat.scattering", "feature_matrix",
     lambda a, r: {"segments": len(r[2])}, False),
    ("classify.svm.train_svm_ova", "wavescat.classify.svm", "train_svm_ova",
     _observe_svm, False),
    ("classify.tree.train_tree", "wavescat.classify.tree", "train_tree",
     None, False),
    ("classify.mlp.train_mlp", "wavescat.classify.mlp", "train_mlp",
     None, False),
    ("classify.mlp.loss_and_grad", "wavescat.classify.mlp", "loss_and_grad",
     lambda a, r: {"loss": float(r[0])}, False),
    ("classify.kfold.run_kfold", "wavescat.classify.kfold", "run_kfold",
     None, False),
    ("classify.kfold.predict", "wavescat.classify.kfold", "predict",
     None, False),
    ("cli.write", "wavescat.cli", "_atomic",
     lambda a, r: {"bytes": os.path.getsize(a["path"])}, False),
    ("netpbm.write_pgm", "wavescat.netpbm", "write_pgm", None, False),
)


def install(tracer: Tracer):
    """Wrap every layer and rebind each module-level reference to it."""
    for _, module, _, _, _ in LAYERS:
        importlib.import_module(module)
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "wavescat" or name.startswith("wavescat.")]
    for layer, module, attr, observe, hot in LAYERS:
        owner = sys.modules[module]
        if "." in attr:                         # a method: patch the class
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        original = getattr(owner, attr)
        wrapper = (tracer.wrap_hot(layer, original) if hot
                   else tracer.wrap(layer, original, observe))
        setattr(owner, attr, wrapper)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def hot_call_cost(tracer: Tracer, n=50_000) -> float:
    """Seconds one hot wrapper adds per call, measured on a no-op."""
    def noop():
        return None

    wrapped = tracer.wrap_hot("calibration", noop)
    tracer.spans.append(["calibration", 0.0, 0.0, None, None, None])
    tracer.stack.append(len(tracer.spans) - 1)
    try:
        costs = []
        for _ in range(3):
            start = clock()
            for _ in range(n):
                noop()
            bare = clock() - start
            start = clock()
            for _ in range(n):
                wrapped()
            costs.append((clock() - start - bare) / n)
    finally:
        tracer.stack.pop()
        tracer.spans.pop()
    return max(0.0, statistics.median(costs))


def layer_metrics(spans, hot_cost):
    """Calls and self time of every layer, plus the work counts and
    ratios ``BENCHMARK.json`` names; the benchmark reports the subset it
    declares."""
    calls, self_s = {}, {}
    for name, start, end, *_ in spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start)
    for name, start, end, parent, attrs, agg in spans:
        if parent is not None:
            pname = spans[parent][0]
            self_s[pname] -= end - start
        for hot, (n, secs) in (agg or {}).items():
            calls[hot] = calls.get(hot, 0) + n
            self_s[hot] = self_s.get(hot, 0.0) + secs
            self_s[name] -= secs

    def attr_sum(layer, key):
        return sum(s[4][key] for s in spans if s[0] == layer)

    keys = {tuple(s[4]["key"]) for s in spans
            if s[0] == "morse.build_filterbank"}
    kept = (attr_sum("pipeline.cwt_table", "kept")
            + attr_sum("pipeline.wcoh_table", "kept"))
    grid = (attr_sum("pipeline.cwt_table", "grid")
            + attr_sum("pipeline.wcoh_table", "grid"))
    segments = attr_sum("scattering.feature_matrix", "segments")
    fm_wall = sum(end - start for name, start, end, *_ in spans
                  if name == "scattering.feature_matrix")
    machines = attr_sum("classify.svm.train_svm_ova", "machines")
    gaps = [s[4]["max_gap"] for s in spans
            if s[0] == "classify.svm.train_svm_ova"]
    # final loss of each MLP fit: its last loss_and_grad child
    last_loss = {}
    for name, start, end, parent, attrs, agg in spans:
        if name == "classify.mlp.loss_and_grad":
            last_loss[parent] = attrs["loss"]
    hot_calls = sum(calls.get(layer, 0) for layer, *_, hot in LAYERS if hot)

    m = {}
    for layer, *_ in LAYERS:
        m[f"{layer}.calls"] = calls.get(layer, 0)
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    # above 1 when a bank is built again with identical inputs
    m["morse.build_filterbank.calls_per_key"] = (
        calls.get("morse.build_filterbank", 0) / len(keys) if keys else 0.0)
    m["cwt.points"] = attr_sum("cwt", "points")
    m["pipeline.windows_kept"] = kept
    m["pipeline.windows_kept_ratio"] = kept / grid if grid else 0.0
    m["scattering.feature_matrix.segments"] = segments
    m["scattering.ms_per_segment"] = (1000.0 * fm_wall / segments
                                      if segments else 0.0)
    m["kernels.svm_dual_solve.epochs"] = attr_sum("kernels.svm_dual_solve",
                                                  "epochs")
    m["classify.svm.converged_ratio"] = (
        attr_sum("classify.svm.train_svm_ova", "converged") / machines
        if machines else 0.0)
    m["classify.svm.max_gap"] = max(gaps) if gaps else 0.0
    m["classify.mlp.final_loss"] = (statistics.fmean(last_loss.values())
                                    if last_loss else 0.0)
    m["cli.write.bytes"] = attr_sum("cli.write", "bytes")
    m["trace.hot_wrap_s"] = hot_calls * hot_cost
    return m, calls, sum(self_s.values())


def main(argv):
    out_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: traced.py OUT.json -- <cli args>")
    tracer = Tracer()
    install(tracer)
    from wavescat import cli
    code = cli.main(cli_args)
    start = clock()
    hot_cost = hot_call_cost(tracer)
    calibration_s = clock() - start
    metrics, calls, self_sum = layer_metrics(tracer.spans, hot_cost)
    spans = [{"name": name, "start": start, "end": end, "parent": parent,
              "attrs": attrs, "aggregated": agg}
             for name, start, end, parent, attrs, agg in tracer.spans]
    with open(out_path, "w") as fh:
        json.dump({"metrics": metrics, "calls": calls,
                   "self_sum_s": self_sum, "hot_call_cost_s": hot_cost,
                   "calibration_s": calibration_s,
                   "spans": spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
