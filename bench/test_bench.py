"""Tests of the benchmark's own logic: self times, gates, wrapper restoration."""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, layer_metrics, self_times  # noqa: E402


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),  # covers 3 of root
        ("leaf", 1.5, 2.0, 1, 0),  # covers 0.5 of a
        ("b", 3.0, 6.0, 0, 0),  # overlaps a by 1: root loses 5 in total
        ("leaf", 5.0, 6.5, 3, 0),  # clipped to b's end: covers 1 of b
        ("root", 20.0, 21.0, -1, 1),  # a second run, no children
    ]
    got = self_times(spans)
    assert got["root"] == pytest.approx((10.0 - 5.0) + 1.0)
    assert got["a"] == pytest.approx(3.0 - 0.5)
    assert got["b"] == pytest.approx(3.0 - 1.0)
    assert got["leaf"] == pytest.approx(0.5 + 1.5)


def test_layer_metrics_take_counts_from_the_first_pass_and_median_times():
    counts = [{"fock.apply.calls": 8, "fock.apply.terms_max": 16}] * 3
    times = [{"fock.apply": 1.0}, {"fock.apply": 3.0}, {"fock.apply": 2.0}]
    values = layer_metrics(counts, times, 0.05)
    assert values["fock.apply.calls"] == 8
    assert values["fock.apply.terms_max"] == 16
    assert values["fock.apply.s"] == 2.0
    assert values["config.validate.calls"] == 0
    assert values["trace.overhead_ratio"] == 0.05
    assert set(values) == {name for name, _ in tracing.PER_LAYER}


def _herald_rows(start):
    w = workloads.WALKOFF_VISIBILITY
    rows = []
    for i in range(workloads.HERALD_POINTS):
        v = start + i * workloads.HERALD_STEP
        rows.append({
            "param": repr(v),
            "p_coincidence": repr(1.0 / 32.0),
            "fidelity_phi_plus": repr((1.0 + w) * (1.0 + v * v) / 4.0),
        })
    return rows


def test_herald_gate_counts_each_missed_point():
    rows = _herald_rows(0.43)
    assert workloads.gate_herald(rows, 0.43) == 0
    rows[3]["fidelity_phi_plus"] = repr(float(rows[3]["fidelity_phi_plus"]) + 1e-9)
    rows[7]["p_coincidence"] = "nan"
    assert workloads.gate_herald(rows, 0.43) == 2
    assert workloads.gate_herald(rows[:20], 0.43) == 6 + 2


def test_delay_gate_fails_every_point_when_the_fit_misses():
    rows = [{"delta_um": repr(float(d)), "p_coincidence": "0.25"} for d in range(-600, 601)]
    fit = {"envelope_width_um": 200.0000001, "peak_visibility": 0.9999999999}
    assert workloads.gate_delay({"fit_analytic": fit}, rows) == 0
    rows[10]["p_coincidence"] = "1.5"
    assert workloads.gate_delay({"fit_analytic": fit}, rows) == 1
    wide = dict(fit, envelope_width_um=200.01)
    assert workloads.gate_delay({"fit_analytic": wide}, rows) == workloads.DELAY_POINTS


def test_preset_gate_rejects_misses_and_nonzero_exits():
    assert workloads.gate_preset("chsh", 0, {"S": 2.0 * math.sqrt(2.0)})
    assert not workloads.gate_preset("chsh", 0, {"S": 2.0 * math.sqrt(2.0) + 1e-6})
    assert not workloads.gate_preset("chsh", 2, {"S": 2.0 * math.sqrt(2.0)})
    assert not workloads.gate_preset("eq1-check", 0, {"n_terms": 15})


def test_suite_check_counts_a_failed_call(tmp_path):
    suite = workloads.PresetSuite(7, tmp_path)
    results = suite.run_pass()
    assert suite.check(results) == 0
    results[4].report["S"] = 2.5
    results[1] = None  # a call that raised
    assert suite.check(results) == 2


def _bindings():
    out = {}
    for owner_spec, attr, _ in tracing.TARGETS:
        owner = tracing._owner(owner_spec)
        out[(owner_spec, attr)] = vars(owner)[attr]
    return out


def test_traced_pass_restores_every_wrapped_name(tmp_path):
    before = _bindings()
    suite = workloads.PresetSuite(3, tmp_path)
    tracer = Tracer()
    with tracer.installed():
        assert all(_bindings()[key] is not before[key] for key in before)
        suite.run_pass()
    assert tracer.missing == []
    after = _bindings()
    assert all(after[key] is before[key] for key in before)
    assert tracer.counts["presets.run_preset.calls"] == len(workloads.SUITE)
    assert all(span is not None for span in tracer.spans)

    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def test_two_traced_passes_with_one_seed_repeat_their_counts(tmp_path):
    counts = []
    for run_id in range(2):
        tracer = Tracer(run_id)
        suite = workloads.PresetSuite(5, tmp_path / str(run_id))
        with tracer.installed():
            assert suite.check(suite.run_pass()) == 0
        counts.append(dict(tracer.counts))
        assert {span[4] for span in tracer.spans} == {run_id}
    assert counts[0] == counts[1]
    assert counts[0]["fock.apply.terms_max"] > 0
