"""Traced in-process run of the exosim CLI.

Usage: python3 tracer.py SPANS_JSON CLI_ARG...

Imports ``exosim.cli`` (timing the import), wraps the public functions of
every layer in every exosim module that holds them by name, calls
``exosim.cli.main(argv)``, restores the originals and writes the spans and
counters to SPANS_JSON.  Spans stay in memory until the end: one
``(name, start, end, parent)`` record per call, parent being the index of the
enclosing span or -1.  The exit code is the CLI's.

``self_times`` turns the spans into per-layer call counts and self time: a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# span name -> (module, attribute): a module-level function or Class.method.
TRACED = {
    "cli.main": ("exosim.cli", "main"),
    "trial.run_trial": ("exosim.trial", "run_trial"),
    "trial.PoseResponse.at": ("exosim.trial", "PoseResponse.at"),
    "tendons.network_state": ("exosim.tendons", "network_state"),
    "tendons.calibrate_depth": ("exosim.tendons", "calibrate_depth"),
    "hand.validate_pose": ("exosim.hand", "HandModel.validate_pose"),
    "spasticity.resistance_force_n": ("exosim.spasticity", "resistance_force_n"),
    "actuation.update_coupling": ("exosim.actuation", "update_coupling"),
    "actuation.measure": ("exosim.actuation", "measure"),
    "analysis.analyze": ("exosim.analysis", "analyze"),
    "analysis.batch_report": ("exosim.analysis", "batch_report"),
    "traceio.render_trace_csv": ("exosim.traceio", "render_trace_csv"),
    "traceio.render_sidecar": ("exosim.traceio", "render_sidecar"),
    "traceio.write_text_atomic": ("exosim.traceio", "write_text_atomic"),
    "traceio.read_trace": ("exosim.traceio", "read_trace"),
    "traceio.render_report_yaml": ("exosim.traceio", "render_report_yaml"),
    "traceio.render_fit_csv": ("exosim.traceio", "render_fit_csv"),
    "config.load_config": ("exosim.config", "load_config"),
    "config.apply_overrides": ("exosim.config", "apply_overrides"),
    "config.config_hash": ("exosim.config", "config_hash"),
    "config.subject_bank_from_config": ("exosim.config", "subject_bank_from_config"),
    "reproduce.run_reproduction": ("exosim.reproduce", "run_reproduction"),
}


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = []
        self.counters = {
            "trial.samples": 0,
            "trial.max_trace_bytes": 0,
            "analysis.fitted": 0,
            "traceio.rows_read": 0,
            "traceio.rows_skipped": 0,
            "traceio.bytes_written": 0,
        }
        self.counting = {
            "trial.run_trial": self._count_trial,
            "analysis.analyze": self._count_analysis,
            "traceio.read_trace": self._count_read,
            "traceio.write_text_atomic": self._count_write,
        }

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        count = self.counting.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    def _count_trial(self, args, kwargs, trace):
        self.counters["trial.samples"] += len(trace)
        # One trial's share of what a batched run over (n_trials, n_samples)
        # would hold at once: its arrays, plus its poses as one float64 per
        # joint angle and sample.
        size = sum(v.nbytes for v in vars(trace).values() if hasattr(v, "nbytes"))
        size += sum(8 * (len(p.angles_deg) + 1) for p in trace.poses or ())
        counters = self.counters
        counters["trial.max_trace_bytes"] = max(counters["trial.max_trace_bytes"], size)

    def _count_analysis(self, args, kwargs, report):
        self.counters["analysis.fitted"] += report.correlation is not None

    def _count_read(self, args, kwargs, result):
        trace, warnings = result
        self.counters["traceio.rows_read"] += len(trace)
        self.counters["traceio.rows_skipped"] += len(warnings)

    def _count_write(self, args, kwargs, result):
        text = args[1] if len(args) > 1 else kwargs["text"]
        self.counters["traceio.bytes_written"] += len(text.encode())


@contextmanager
def traced_layers(recorder: Recorder):
    """Swap every TRACED function for its wrapper wherever an exosim module
    holds it, and put the originals back on exit."""
    undo = []
    try:
        for span, (module_name, attr) in TRACED.items():
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                undo.append((cls, meth, original))
                setattr(cls, meth, recorder.wrap(span, original))
                continue
            original = getattr(module, attr)
            wrapper = recorder.wrap(span, original)
            holders = [
                m for name, m in list(sys.modules.items())
                if name.split(".")[0] == "exosim" and vars(m).get(attr) is original
            ]
            for holder in holders:
                undo.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        yield
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)


def self_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: number of calls and summed self time in seconds."""
    child_s = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    layers: dict[str, dict[str, float]] = {}
    for (name, start, end, _), children in zip(spans, child_s):
        entry = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - children
    return layers


def main(argv: list[str]) -> int:
    out_path, cli_argv = Path(argv[0]), argv[1:]
    t0 = time.perf_counter()
    cli = importlib.import_module("exosim.cli")
    import_s = time.perf_counter() - t0
    recorder = Recorder()
    with traced_layers(recorder):
        rc = cli.main(cli_argv)
    sys.stdout.flush()
    out_path.write_text(
        json.dumps(
            {
                "import_s": import_s,
                "rc": rc,
                "spans": recorder.spans,
                "counters": recorder.counters,
            }
        )
    )
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
