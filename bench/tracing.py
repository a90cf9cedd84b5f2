"""Spans and counters at eventready's module boundaries, installed from outside.

`from .x import y` binds `y` in the importing module, so each wrapper
replaces the name where the caller looks it up (for example
`eventready.presets.compile_circuit`, not `eventready.circuit.compile_circuit`).
`Tracer.installed()` puts every wrapper in place and restores the original
objects when it exits, even on error.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# (owner, attribute, span).  The owner is a module, or "module:Class" for a
# method or staticmethod.  A name the package no longer binds is skipped and
# listed in Tracer.missing, so its per-layer metrics read 0.
TARGETS = (
    ("eventready.cli", "main", "cli.main"),
    ("eventready.cli", "scan", "presets.scan"),
    ("eventready.presets", "scan", "presets.scan"),
    ("eventready.cli", "run_preset", "presets.run_preset"),
    ("eventready.presets", "run_preset", "presets.run_preset"),
    ("eventready.cli", "write_json", "presets.write"),
    ("eventready.cli", "write_csv", "presets.write"),
    ("eventready.presets", "write_json", "presets.write"),
    ("eventready.presets", "write_csv", "presets.write"),
    ("eventready.config:ExperimentConfig", "from_dict", "config.from_dict"),
    ("eventready.config", "validate_config_dict", "config.validate"),
    ("eventready.circuit", "lower_element", "elements.lower"),
    ("eventready.presets", "compile_circuit", "circuit.compile"),
    ("eventready.circuit:Circuit", "prepared_input", "circuit.prepare"),
    ("eventready.presets", "run", "circuit.run"),
    ("eventready.circuit", "apply_mode_unitary", "fock.apply"),
    ("eventready.analysis", "partial_trace_to_polarization", "fock.partial_trace"),
    ("eventready.presets", "outcome_distribution", "analysis.outcomes"),
    ("eventready.presets", "group_herald_outcomes", "analysis.herald"),
    ("eventready.analysis", "group_herald_outcomes", "analysis.herald"),
    ("eventready.presets", "fidelity", "analysis.fom"),
    ("eventready.presets", "concurrence", "analysis.fom"),
    ("eventready.presets", "analyzer_probabilities", "analysis.fom"),
    ("eventready.presets", "chsh_S", "analysis.fom"),
    ("eventready.presets", "fit_delay_fringe", "analysis.fit"),
    ("eventready.presets", "fit_sinusoid", "analysis.fit"),
    ("eventready.presets", "joint_visibility", "analysis.fit"),
    ("eventready.presets", "sample_counts", "analysis.sample"),
    ("eventready.analysis", "sample_counts", "analysis.sample"),
)

# Per-layer metrics of the traced run.  A name ending in `.s` or `.self_s` is
# the summed self time of the span before it; every other name is a counter.
PER_LAYER = (
    ("config.validate.calls", "count"),
    ("config.validate.s", "s"),
    ("config.from_dict.self_s", "s"),
    ("elements.lower.calls", "count"),
    ("elements.lower.s", "s"),
    ("circuit.compile.calls", "count"),
    ("circuit.compile.self_s", "s"),
    ("circuit.prepare.s", "s"),
    ("circuit.run.calls", "count"),
    ("circuit.run.self_s", "s"),
    ("circuit.run.terms_out", "count"),
    ("fock.apply.calls", "count"),
    ("fock.apply.s", "s"),
    ("fock.apply.terms_in", "count"),
    ("fock.apply.terms_out", "count"),
    ("fock.apply.terms_max", "count"),
    ("fock.partial_trace.calls", "count"),
    ("fock.partial_trace.s", "s"),
    ("analysis.outcomes.calls", "count"),
    ("analysis.outcomes.s", "s"),
    ("analysis.herald.calls", "count"),
    ("analysis.herald.s", "s"),
    ("analysis.herald.patterns", "count"),
    ("analysis.fom.calls", "count"),
    ("analysis.fom.s", "s"),
    ("analysis.fit.calls", "count"),
    ("analysis.fit.s", "s"),
    ("analysis.sample.calls", "count"),
    ("analysis.sample.s", "s"),
    ("presets.scan.self_s", "s"),
    ("presets.run_preset.self_s", "s"),
    ("presets.write.calls", "count"),
    ("presets.write.s", "s"),
    ("presets.write.bytes", "bytes"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def _count_apply(counts, args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    n_in, n_out = len(state.terms), len(result.terms)
    counts["fock.apply.terms_in"] += n_in
    counts["fock.apply.terms_out"] += n_out
    counts["fock.apply.terms_max"] = max(counts["fock.apply.terms_max"], n_in, n_out)


def _count_run(counts, args, kwargs, result):
    counts["circuit.run.terms_out"] += len(result.terms)


def _count_herald(counts, args, kwargs, result):
    counts["analysis.herald.patterns"] += len(result)


def _count_write(counts, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counts["presets.write.bytes"] += Path(path).stat().st_size


COUNTERS = {
    "fock.apply": _count_apply,
    "circuit.run": _count_run,
    "analysis.herald": _count_herald,
    "presets.write": _count_write,
}


def _owner(spec: str):
    module_name, _, class_name = spec.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(owner, class_name, None) if class_name else owner


class Tracer:
    """Spans (name, start, end, parent index, run id) and counters, in memory.

    Spans are appended in the order their calls start; a parent index of
    -1 marks a root span.  `run_id` tags every span recorded.
    """

    def __init__(self, run_id: int = 0):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.run_id = run_id
        self.missing: list = []
        self._stack: list = []

    def wrap(self, span: str, fn):
        spans, stack = self.spans, self._stack
        count = COUNTERS.get(span)
        calls = f"{span}.calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (span, start, end, parent, self.run_id)
                self.counts[calls] += 1
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore it."""
        saved = []
        self.missing = []
        try:
            for owner_spec, attr, span in TARGETS:
                owner = _owner(owner_spec)
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    self.missing.append(f"{owner_spec}.{attr}")
                    continue
                if isinstance(raw, staticmethod):
                    replacement = staticmethod(self.wrap(span, raw.__func__))
                else:
                    replacement = self.wrap(span, raw)
                setattr(owner, attr, replacement)
                saved.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)


def self_times(spans) -> dict:
    """Summed self time per span name.

    A span's self time is its duration minus the part of its interval that
    its child spans cover; overlapping children are counted once.
    """
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[name] += (end - start) - covered
    return dict(totals)


def layer_metrics(pass_counts, pass_times, overhead_ratio) -> dict:
    """Per-layer metric values from the traced passes of one run.

    Counts come from the first pass (the caller checks that every pass
    repeats them); times are medians over the passes.
    """
    values = {}
    for name, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name == "trace.overhead_ratio":
            values[name] = overhead_ratio
        elif field in ("s", "self_s"):
            values[name] = statistics.median(t.get(span, 0.0) for t in pass_times)
        else:
            values[name] = pass_counts[0].get(name, 0)
    return values
