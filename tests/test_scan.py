"""Compile-once scans: the grid path against the per-point path.

A scan validates its first point in full, checks only the scanned leaves
of every later point, compiles once per mode registry and evolves its
points in blocks.  These tests hold it to the per-point path: the same
rows, the same error messages, and the committed reference outputs.
"""

import copy
import csv
import json
import math
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eventready.circuit as circuit_module
import eventready.config as config_module
import eventready.presets as presets
from eventready import ExperimentConfig
from eventready.cli import main
from eventready.circuit import CircuitError, ScanCircuit, SourceBranch, compile_circuit
from eventready.config import ConfigError, LeafCheck, validate_config_dict
from eventready.elements import ELEMENT_KINDS, ElementError
from eventready.fock import FockError, ModeTransform
from eventready.presets import (
    MAX_SCAN_POINTS,
    PresetError,
    build_preset_config,
    evaluate_config,
    fusion_delay_config,
    fusion_scheme_config,
    hom_config,
    parse_range,
    polarizer_variant_config,
    run_preset,
    scan,
)

DATA = Path(__file__).parent / "data"
FUSION_OVERLAPS = "sources.branches.0.photons.2.overlap,sources.branches.0.photons.3.overlap"


def _beamsplitter_config(transmissivity=0.5):
    raw = hom_config()
    raw["elements"].insert(1, {"kind": "beamsplitter", "ports": ["A1", "A2"], "transmissivity": transmissivity})
    return raw


def _delayed_config():
    raw = fusion_delay_config()
    raw["elements"][0]["delta_um"] = 150.0
    return raw


def _set(raw: dict, path: str, value) -> dict:
    """A deep copy of raw with the field at the dotted path set to value."""
    out = copy.deepcopy(raw)
    *parents, leaf = path.split(".")
    node = out
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    node[int(leaf) if isinstance(node, list) else leaf] = value
    return out


def _per_point_rows(raw: dict, path: str, spec: str):
    rows = []
    for value in parse_range(spec):
        point = raw
        for p in path.split(","):
            point = _set(point, p, value)
        rows.append({"param": value, **evaluate_config(ExperimentConfig.from_dict(point))})
    return rows


def _assert_rows_match(rows, expected):
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        assert list(row) == list(want)
        for key, value in want.items():
            if math.isnan(value):
                assert math.isnan(row[key]), key
            else:
                assert abs(row[key] - value) <= 1e-12, (key, row[key], value)


# (config builder, scan path, start range, step range): every grid the
# strategy draws from these stays inside the schema's limits.
SCAN_CASES = {
    "delta_um": (fusion_delay_config, "elements.0.delta_um", (-600.0, 600.0), (0.1, 150.0)),
    "hwp-angle": (fusion_delay_config, "elements.4.angle_deg", (0.0, 90.0), (0.5, 20.0)),
    "polarizer-angle": (hom_config, "elements.1.angle_deg", (0.0, 180.0), (0.5, 20.0)),
    "transmissivity": (_beamsplitter_config, "elements.1.transmissivity", (0.0, 0.5), (0.01, 0.12)),
    "bin-mixer-overlap": (
        lambda: polarizer_variant_config(analyzer_walkoff=0.9),
        "elements.5.overlap,elements.6.overlap",
        (0.0, 0.5),
        (0.01, 0.12),
    ),
    "photon-overlap": (hom_config, "sources.branches.0.photons.1.overlap", (0.0, 0.5), (0.01, 0.12)),
    "pol-angle": (hom_config, "sources.branches.0.photons.0.pol_angle_deg", (0.0, 180.0), (0.5, 30.0)),
    "coherence-length": (_delayed_config, "model.coherence_length_um", (10.0, 300.0), (1.0, 50.0)),
    "fusion-overlaps": (polarizer_variant_config, FUSION_OVERLAPS, (0.0, 0.5), (0.01, 0.12)),
    "element-and-source": (
        hom_config,
        "elements.1.angle_deg,sources.branches.0.photons.0.pol_angle_deg",
        (0.0, 90.0),
        (0.5, 20.0),
    ),
}


@st.composite
def scan_cases(draw):
    name = draw(st.sampled_from(sorted(SCAN_CASES)))
    build, path, (lo, hi), (step_lo, step_hi) = SCAN_CASES[name]
    start = draw(st.floats(lo, hi))
    step = draw(st.floats(step_lo, step_hi))
    n = draw(st.integers(2, 5))
    # The stop sits half a step past the last point, so rounding never changes the count.
    spec = f"{start!r}:{start + (n - 1) * step + step / 2!r}:{step!r}"
    return build(), path, spec, draw(st.sampled_from([1, 2, 3, presets.SCAN_BLOCK]))


class TestGridMatchesPerPointPath:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(scan_cases())
    def test_rows_equal_per_point_evaluation(self, case):
        raw, path, spec, block = case
        with mock.patch.object(presets, "SCAN_BLOCK", block):
            rows = scan(ExperimentConfig.from_dict(raw), path, spec)
        _assert_rows_match(rows, _per_point_rows(raw, path, spec))

    def test_block_mixes_heralds_that_fire_on_a_pair_off_it_or_never(self):
        raw = fusion_scheme_config()
        path, spec = "heralds.0.require.D1h", "0:4:1"
        rows = scan(ExperimentConfig.from_dict(raw), path, spec)
        _assert_rows_match(rows, _per_point_rows(raw, path, spec))
        # One block: D1h = 1 heralds a qubit pair, 0 and 2 fire off the kept pair, 3 and 4 never.
        assert len(rows) <= presets.SCAN_BLOCK
        assert [row["p_hh"] > 0 for row in rows] == [True, True, True, False, False]
        assert [math.isnan(row["concurrence"]) for row in rows] == [True, False, True, True, True]

    def test_registry_change_compiles_again(self, monkeypatch):
        compiled = []
        original = presets.compile_circuit
        monkeypatch.setattr(presets, "compile_circuit", lambda c: compiled.append(c.bins) or original(c))
        raw = _delayed_config()
        rows = scan(ExperimentConfig.from_dict(raw), "bins,elements.0.delta_um", "4:6:1")
        assert compiled == [4, 5, 6]
        _assert_rows_match(rows, _per_point_rows(raw, "bins,elements.0.delta_um", "4:6:1"))

    @pytest.mark.parametrize("block", [1, presets.SCAN_BLOCK])
    def test_bin_map_scan_mixes_mode_layouts(self, monkeypatch, block):
        # Each bin_map value moves the delay onto other modes, so one block
        # stacks transforms of up to three mode layouts.
        raw = fusion_delay_config(peak_visibility=0.8)
        raw["elements"][0].update(delta_um=150.0, bin_map={"0": 2})
        path, spec = "elements.0.bin_map.0", "1:3:1"
        layouts = []
        original = circuit_module.stack

        def counting(transforms):
            transforms = list(transforms)
            layouts.append(len({t.modes for t in transforms}))
            return original(transforms)

        monkeypatch.setattr(circuit_module, "stack", counting)
        monkeypatch.setattr(presets, "SCAN_BLOCK", block)
        rows = scan(ExperimentConfig.from_dict(raw), path, spec)
        assert layouts == ([1, 1, 1] if block == 1 else [3])
        _assert_rows_match(rows, _per_point_rows(raw, path, spec))
        assert rows[0]["p_coincidence"] != rows[1]["p_coincidence"]

    def test_blocks_cover_the_grid_in_order(self, monkeypatch):
        composed, pushed = [], []
        compose, push_creators = circuit_module.compose, circuit_module.push_creators

        def composing(transforms):
            transforms = list(transforms)
            composed.extend(t.matrix.ndim for t in transforms)
            return compose(transforms)

        def pushing(registry, columns, t):
            pushed.append(t.matrix.ndim)
            return push_creators(registry, columns, t)

        monkeypatch.setattr(circuit_module, "compose", composing)
        monkeypatch.setattr(circuit_module, "push_creators", pushing)
        raw = fusion_delay_config()
        spec = "-50:50:0.5"  # 201 points: three full blocks of 64 and one of 9
        rows = scan(ExperimentConfig.from_dict(raw), "elements.0.delta_um", spec)
        # Each block pushes its creators through its stacked delay, then the
        # other seven elements, composed once per scan; no stack is composed.
        assert pushed == [3, 2] * 4
        assert composed == [2] * 7
        assert [r["param"] for r in rows] == parse_range(spec)
        _assert_rows_match(rows[60:70], _per_point_rows(raw, "elements.0.delta_um", "-20:-15.5:0.5"))


class TestSameErrors:
    @pytest.mark.parametrize(
        "raw, path, spec, bad_point",
        [
            (_beamsplitter_config(0.95), "elements.1.transmissivity", "0.95:1.06:0.05", 2),
            (hom_config(), "sources.branches.0.photons.1.overlap", "0.8:1.25:0.2", 2),
            (_delayed_config(), "model.coherence_length_um", "0:100:50", 0),
        ],
        ids=["transmissivity-1.05", "photon-overlap-1.2", "coherence-length-0"],
    )
    def test_bad_point_gives_the_full_validation_messages(self, tmp_path, capsys, raw, path, spec, bad_point):
        bad = _set(raw, path, parse_range(spec)[bad_point])
        expected = validate_config_dict(bad)
        assert expected and all(v.startswith(f"$.{path}") for v in expected)
        with pytest.raises(ConfigError) as exc:
            scan(ExperimentConfig.from_dict(raw), path, spec)
        assert exc.value.violations == expected
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path), "--scan", f"{path}={spec}"]) == 1
        err = capsys.readouterr().err
        assert err == "".join(f"eventready: config error: {v}\n" for v in expected)

    @pytest.mark.parametrize(
        "path, value",
        [
            ("elements.1.transmissivity", 1.05),
            ("elements.1.transmissivity", -0.1),
            ("elements.4.delta_um", math.nan),
            ("sources.branches.0.photons.1.overlap", 1.2),
            ("sources.branches.0.photons.1.overlap.0", 1.2),
            ("sources.branches.0.amplitude.1", math.inf),
            ("bins", 2.5),
            ("bins", 1.0),
            ("photon_budget", 1.0),
            ("heralds.0.require.DA", -1.0),
            ("model.coherence_length_um", 0.0),
            ("elements.1.transmissivity", 0.3),
            ("elements.4.delta_um", 10**400),
        ],
    )
    def test_leaf_check_equals_full_validation(self, path, value):
        raw = _beamsplitter_config()
        raw["sources"]["branches"][0]["amplitude"] = [1.0, 0.0]
        raw["sources"]["branches"][0]["photons"][1]["overlap"] = [0.9, 0.0]
        raw["model"] = {"coherence_length_um": 100.0}
        raw["elements"].append({"kind": "delay", "port": "A2", "delta_um": 0.0})
        assert validate_config_dict(raw) == []
        keys = [int(k) if k.isdigit() else k for k in path.split(".")]
        bad = _set(raw, path, value)
        assert LeafCheck([keys])(bad) == validate_config_dict(bad)

    @pytest.mark.parametrize(
        "paths, value",
        [
            (["sources.branches.0.photons.0.pol_amps.0"], 0.9),
            (["sources.branches.0.photons.0.pol_amps.1.1"], 0.0),
            (["sources.branches.0.photons.0.bins.1"], 0.5),
            (["sources.branches.0.photons.0.bins.0.1"], 0.0),
            (["sources.branches.0.photons.1.pol_angle_deg"], 30.0),
            (["photon_budget", "bins"], 1.0),
        ],
        ids=["pol-amps", "pol-amps-im", "photon-bins", "photon-bins-im", "valid-pol-angle", "budget-and-bins"],
    )
    def test_leaf_check_equals_full_validation_on_photon_values(self, paths, value):
        raw = hom_config()
        photon = raw["sources"]["branches"][0]["photons"][0]
        del photon["pol_angle_deg"]
        photon["pol_amps"] = [0.6, [0.0, 0.8]]
        photon["bins"] = [[0.0, 0.6], 0.8]
        assert validate_config_dict(raw) == []
        leaves = [[int(k) if k.isdigit() else k for k in path.split(".")] for path in paths]
        bad = raw
        for path in paths:
            bad = _set(bad, path, value)
        assert LeafCheck(leaves)(bad) == validate_config_dict(bad)

    def test_element_scan_runs_no_cross_reference_check_after_its_first_point(self, monkeypatch):
        calls = {"validate": 0, "cross": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            config_module, "validate_config_dict", counting("validate", config_module.validate_config_dict)
        )
        monkeypatch.setattr(
            config_module,
            "_cross_reference_violations",
            counting("cross", config_module._cross_reference_violations),
        )
        result = run_preset("fusion-delay-scan")
        assert result.report["points"] == 1201
        # The preset's config and the scan's first point, each validated in full.
        assert calls == {"validate": 2, "cross": 2}

    def test_scan_validates_twice_and_compiles_once(self, monkeypatch):
        calls = {"validate": 0, "compile": 0, "lower": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            config_module, "validate_config_dict", counting("validate", config_module.validate_config_dict)
        )
        monkeypatch.setattr(presets, "compile_circuit", counting("compile", presets.compile_circuit))
        monkeypatch.setattr(circuit_module, "lower_element", counting("lower", circuit_module.lower_element))
        result = run_preset("fusion-delay-scan")
        assert result.report["points"] == 1201
        assert calls["validate"] <= 2
        assert calls["compile"] == 1
        assert calls["lower"] <= 8 + 1201

    @pytest.mark.parametrize(
        "path, spec, per_point",
        [("model.coherence_length_um", "100:300:50", 1), ("heralds.0.require.D1", "0:3:1", 0)],
        ids=["model", "herald"],
    )
    def test_scan_paths_fix_what_every_point_re_lowers(self, monkeypatch, path, spec, per_point):
        raw = _delayed_config()
        assert len(raw["elements"]) == 8
        lowered = []
        original = circuit_module.lower_element
        monkeypatch.setattr(circuit_module, "lower_element", lambda el, *a, **kw: lowered.append(el) or original(el, *a, **kw))
        rows = scan(ExperimentConfig.from_dict(raw), path, spec)
        # The compiled first point lowers every element once.
        assert len(lowered) == 8 + (len(rows) - 1) * per_point
        _assert_rows_match(rows, _per_point_rows(raw, path, spec))


def _lowering_with(monkeypatch, kind: str, field: str, bad_values: dict):
    """Make element `kind` pass its lowered transform through
    bad_values[v] when its `field` is v."""
    original = ELEMENT_KINDS[kind]

    def lower(reg, ports, el, model, convention):
        t = original.lower(reg, ports, el, model, convention)
        if el[field] in bad_values:
            return bad_values[el[field]](t)
        return t

    monkeypatch.setitem(ELEMENT_KINDS, kind, original._replace(lower=lower))


def _scaled(t: ModeTransform) -> ModeTransform:
    return ModeTransform(t.modes, 1.5 * t.matrix, name=t.name)


def _refused(t: ModeTransform):
    raise ElementError("refused")


class TestPerBlockUnitarity:
    @pytest.mark.parametrize("block", [1, 4, presets.SCAN_BLOCK])
    @pytest.mark.parametrize("bad_index", [0, 6, 20])
    def test_non_unitary_point_gives_its_own_error(self, tmp_path, capsys, monkeypatch, block, bad_index):
        raw, path, spec = fusion_delay_config(), "elements.0.delta_um", "-10:10:1"
        bad_value = parse_range(spec)[bad_index]
        _lowering_with(monkeypatch, "delay", "delta_um", {bad_value: _scaled})
        with pytest.raises(CircuitError) as alone:
            evaluate_config(ExperimentConfig.from_dict(_set(raw, path, bad_value)))
        assert "non-unitary lowering" in str(alone.value)
        monkeypatch.setattr(presets, "SCAN_BLOCK", block)
        with pytest.raises(CircuitError) as scanned:
            scan(ExperimentConfig.from_dict(raw), path, spec)
        assert str(scanned.value) == str(alone.value)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path), "--scan", f"{path}={spec}"]) == 1
        assert capsys.readouterr().err == f"eventready: error: {alone.value}\n"

    @pytest.mark.parametrize("later", ["leaf-check", "lowering"])
    def test_non_unitary_point_precedes_a_later_points_error(self, monkeypatch, later):
        raw, path, spec = _beamsplitter_config(0.9), "elements.1.transmissivity", "0.9:1.06:0.05"
        values = parse_range(spec)  # 0.9, 0.95, 1.0, 1.05: the last fails LeafCheck
        bad = {values[1]: _scaled}
        if later == "lowering":
            bad[values[2]] = _refused
        _lowering_with(monkeypatch, "beamsplitter", "transmissivity", bad)
        with pytest.raises(CircuitError) as alone:
            evaluate_config(ExperimentConfig.from_dict(_set(raw, path, values[1])))
        with pytest.raises(CircuitError) as scanned:
            scan(ExperimentConfig.from_dict(raw), path, spec)
        assert str(scanned.value) == str(alone.value)
        assert "non-unitary lowering" in str(scanned.value)


class TestBlockChecks:
    """A block evolves its source photons, with the checks of the ket path."""

    def test_photons_over_the_budget_fail_as_before(self):
        config = ExperimentConfig.from_dict(fusion_scheme_config())
        grid = ScanCircuit(compile_circuit(config), config, [["sources", "branches", 0, "photons", 0, "overlap"]])
        branch = grid.circuit.branches[0]
        crowded = SourceBranch(branch.amplitude, branch.photons + branch.photons[:1])
        with pytest.raises(FockError, match=r"^5 photons exceed the budget of 4$"):
            grid.evolve([({}, {0: crowded})] * 2)

    def test_zero_input_state_fails_as_before(self):
        raw = hom_config()
        branch = raw["sources"]["branches"][0]
        raw["sources"]["branches"] = [dict(branch, amplitude=[1.0, 0.0]), dict(branch, amplitude=[0.5, 0.0])]
        # At amplitude -1 the two equal branches cancel.
        with pytest.raises(FockError, match=r"^cannot normalize the zero state$"):
            scan(ExperimentConfig.from_dict(raw), "sources.branches.1.amplitude.0", "-1.5:0:0.5")

    def test_norm_drift_past_its_tolerance_raises(self, monkeypatch):
        raw, path, spec = fusion_delay_config(), "elements.0.delta_um", "-10:10:1"
        _lowering_with(monkeypatch, "delay", "delta_um", {parse_range(spec)[6]: _scaled})
        monkeypatch.setattr(ScanCircuit, "require_unitary", lambda self, points: None)
        with pytest.raises(FockError, match=r"^norm drifted 1\.000000000000 -> "):
            scan(ExperimentConfig.from_dict(raw), path, spec)


class TestRangeLimits:
    @pytest.mark.parametrize("spec", ["0:inf:0.5", "nan:1:0.1", "0:1:nan", "-inf:0:1"])
    def test_non_finite_range_rejected(self, tmp_path, capsys, spec):
        with pytest.raises(PresetError, match="non-finite"):
            parse_range(spec)
        cfg_path = tmp_path / "hom.json"
        cfg_path.write_text(json.dumps(hom_config()))
        assert main(["--config", str(cfg_path), "--scan", f"sources.branches.0.photons.1.overlap={spec}"]) == 1
        err = capsys.readouterr().err
        assert err == f"eventready: error: range {spec!r} has a non-finite start, stop or step\n"

    def test_step_that_does_not_advance_every_value_rejected(self, tmp_path, capsys):
        spec = "1e16:10000000000000002:1"  # 1e16 + 1 rounds back to 1e16
        cfg_path = tmp_path / "hom.json"
        cfg_path.write_text(json.dumps(hom_config()))
        assert main(["--config", str(cfg_path), "--scan", f"sources.branches.0.photons.1.overlap={spec}"]) == 1
        error = f"eventready: error: range {spec!r} has a step too small to advance every value\n"
        assert capsys.readouterr() == ("", error)

    def test_point_cap(self):
        assert len(parse_range(f"0:{MAX_SCAN_POINTS - 1}:1")) == MAX_SCAN_POINTS
        with pytest.raises(PresetError, match=f"more than {MAX_SCAN_POINTS} points"):
            parse_range(f"0:{MAX_SCAN_POINTS}:1")

    def test_overflowing_span_refused_before_counting(self):
        with pytest.raises(PresetError, match="more than"):
            parse_range("-1e308:1e308:1e-300")


def _csv_rows(text: str):
    return list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))


def _assert_csv_matches(text: str, reference: Path, counts=()):
    rows, expected = _csv_rows(text), _csv_rows(reference.read_text())
    assert len(rows) == len(expected) and list(rows[0]) == list(expected[0])
    for row, want in zip(rows, expected):
        for key, value in want.items():
            if key in counts:
                assert row[key] == value, key
            else:
                assert abs(float(row[key]) - float(value)) <= 1e-12, (key, row[key], value)


class TestReferenceOutputs:
    """Outputs of the per-point scan path, written before scans were batched."""

    def test_fusion_delay_scan_curve(self, tmp_path):
        run_preset("fusion-delay-scan", out_dir=tmp_path, seed=5, shots=10_000)
        _assert_csv_matches(
            (tmp_path / "fusion-delay-scan.csv").read_text(),
            DATA / "fusion_delay_scan_seed5.csv",
            counts=("counts_coincidence", "error_coincidence", "shots"),
        )

    def test_fusion_overlap_scan(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(build_preset_config("polarization-correlation", {}).to_dict()))
        assert main(["--config", str(cfg_path), "--scan", f"{FUSION_OVERLAPS}=0.5:1.0:0.02", "--out", str(tmp_path)]) == 0
        _assert_csv_matches((tmp_path / "scan.csv").read_text(), DATA / "overlap_scan.csv")
