"""Compile-once scans: the grid path against the per-point path.

A scan checks only the scanned leaves of its points, a block at once
(in full its first point when a scanned leaf is absent from the config,
and any point that fails), compiles once per mode registry and evolves
its points in blocks.  These tests hold it to the per-point path: the
same rows, the same error messages, and the committed reference outputs.
"""

import copy
import csv
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eventready.circuit as circuit_module
import eventready.config as config_module
import eventready.presets as presets
from eventready import ExperimentConfig
from eventready.cli import main
from eventready.analysis import HeraldError, heralded_polarization_dm, outcome_distribution
from eventready.circuit import CircuitError, ScanCircuit, compile_circuit, run
from eventready.config import ConfigError, LeafCheck, validate_config_dict
from eventready.elements import ELEMENT_KINDS, PBS_CONVENTIONS, ElementError
from eventready.fock import FockError, ModeTransform, creator_columns, one_point_grid
from eventready.presets import (
    MAX_SCAN_POINTS,
    PRESET_NAMES,
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


def _correlation_config():
    return build_preset_config("polarization-correlation", {}).to_dict()


def _herald_scan_config():
    """The benchmark's herald scan: the polarization-correlation config with analyzers set."""
    return {**_correlation_config(), "analyzers": {"theta_a_deg": 0.0, "theta_b_deg": 45.0}}


def _with_photon(raw: dict, photon: int, **fields) -> dict:
    """A deep copy of raw with fields set on one photon of its first
    branch, whose pol_angle_deg goes where pol_amps is set."""
    out = copy.deepcopy(raw)
    src = out["sources"]["branches"][0]["photons"][photon]
    if "pol_amps" in fields:
        del src["pol_angle_deg"]
    src.update(fields)
    return out


def _delayed_config():
    raw = fusion_delay_config()
    raw["elements"][0]["delta_um"] = 150.0
    return raw


def _cells(raw: dict) -> int:
    """The creator cells of one point of a scan of raw (ScanCircuit.cells)."""
    config = ExperimentConfig.from_dict(raw)
    return ScanCircuit(compile_circuit(config), config, ()).cells


def _block_points(raw: dict) -> int:
    """The points of a full block of a scan of raw under SCAN_CELLS."""
    return presets.SCAN_CELLS // _cells(raw)


def _leaf_check_config():
    """The beamsplitter config with a complex branch amplitude and photon
    overlap, a model and a delay: a leaf of each kind to check."""
    raw = _beamsplitter_config()
    raw["sources"]["branches"][0]["amplitude"] = [1.0, 0.0]
    raw["sources"]["branches"][0]["photons"][1]["overlap"] = [0.9, 0.0]
    raw["model"] = {"coherence_length_um": 100.0}
    raw["elements"].append({"kind": "delay", "port": "A2", "delta_um": 0.0})
    return raw


def _photon_values_config():
    """The HOM config with complex polarization and bin amplitudes on its first photon."""
    raw = hom_config()
    photon = raw["sources"]["branches"][0]["photons"][0]
    del photon["pol_angle_deg"]
    photon.update(pol_amps=[0.6, [0.0, 0.8]], bins=[[0.0, 0.6], 0.8])
    return raw


def _leaves(path: str) -> list:
    """The keys of each of a scan's comma-separated paths."""
    return [[int(k) if k.isdigit() else k for k in p.split(".")] for p in path.split(",")]


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
    # Blocks of 1, 2 or 3 points, or of as many as SCAN_CELLS holds (None).
    return build(), path, spec, draw(st.sampled_from([1, 2, 3, None]))


def _numeric_leaves(node, keys=()) -> list:
    """The keys of every number in a raw config."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [keys] if isinstance(node, (int, float)) and not isinstance(node, bool) else []
    return [leaf for key, item in items for leaf in _numeric_leaves(item, (*keys, key))]


def _absent_leaves(raw: dict) -> list:
    """The keys of numeric fields that raw leaves out and a scan may add:
    `bins`, `photon_budget`, a branch amplitude, a photon's overlap or
    polarization angle and the model's fields."""
    leaves = [("bins",), ("photon_budget",)]
    for b, branch in enumerate(raw["sources"]["branches"]):
        leaves.append(("sources", "branches", b, "amplitude"))
        for p, photon in enumerate(branch["photons"]):
            leaves += [("sources", "branches", b, "photons", p, key) for key in ("overlap", "pol_angle_deg")]
    if "model" in raw:
        leaves += [("model", "coherence_length_um"), ("model", "fringe_period_um")]
    present = set(_numeric_leaves(raw))
    return [keys for keys in leaves if keys not in present]


LEAF_CONFIGS = {
    **{name: build_preset_config(name, {}).to_dict() for name in PRESET_NAMES},
    "leaf-check": _leaf_check_config(),
    "photon-values": _photon_values_config(),
}


@st.composite
def leaf_values(draw):
    """(a preset's raw config, the keys of a numeric leaf it holds or
    leaves out, a list of values for it)."""
    raw = LEAF_CONFIGS[draw(st.sampled_from(sorted(LEAF_CONFIGS)))]
    keys = draw(st.sampled_from(_numeric_leaves(raw) if draw(st.booleans()) else _absent_leaves(raw)))
    value = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 9.0, -1.0, 1e308]), st.floats(-10.0, 10.0))
    return raw, keys, draw(st.lists(value, min_size=1, max_size=5))


class TestGridMatchesPerPointPath:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(scan_cases())
    def test_rows_equal_per_point_evaluation(self, case):
        raw, path, spec, block = case
        budget = presets.SCAN_CELLS if block is None else block * _cells(raw)
        with mock.patch.object(presets, "SCAN_CELLS", budget):
            rows = scan(ExperimentConfig.from_dict(raw), path, spec)
        _assert_rows_match(rows, _per_point_rows(raw, path, spec))

    def test_block_mixes_heralds_that_fire_on_a_pair_off_it_or_never(self):
        raw = fusion_scheme_config()
        path, spec = "heralds.0.require.D1h", "0:4:1"
        rows = scan(ExperimentConfig.from_dict(raw), path, spec)
        _assert_rows_match(rows, _per_point_rows(raw, path, spec))
        # One block: D1h = 1 heralds a qubit pair, 0 and 2 fire off the kept pair, 3 and 4 never.
        assert len(rows) <= _block_points(raw)
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

    @pytest.mark.parametrize("block", [1, None])
    def test_bin_map_scan_mixes_mode_layouts(self, monkeypatch, block):
        # Each bin_map value moves the delay onto other modes, so each of
        # the three points is compiled on its own.
        raw = fusion_delay_config(peak_visibility=0.8)
        raw["elements"][0].update(delta_um=150.0, bin_map={"0": 2})
        path, spec = "elements.0.bin_map.0", "1:3:1"
        compiled = []
        original = presets.compile_circuit
        monkeypatch.setattr(presets, "compile_circuit", lambda c: compiled.append(c.elements[0]["bin_map"]) or original(c))
        if block:
            monkeypatch.setattr(presets, "SCAN_CELLS", block * _cells(raw))
        rows = scan(ExperimentConfig.from_dict(raw), path, spec)
        assert compiled == [{"0": 1.0}, {"0": 2.0}, {"0": 3.0}]
        _assert_rows_match(rows, _per_point_rows(raw, path, spec))
        assert rows[0]["p_coincidence"] != rows[1]["p_coincidence"]

    @pytest.mark.parametrize(
        "build, path, spec, sizes",
        [
            (fusion_delay_config, "elements.0.delta_um", "-600:600:1", [256] * 4 + [177]),
            (polarizer_variant_config, FUSION_OVERLAPS, "0:0.995:0.01", [85, 15]),
            (_delayed_config, "bins", "4:6:1", [1, 1, 1]),
        ],
        ids=["delay", "polarizer-variant", "bins"],
    )
    def test_a_block_holds_at_most_the_budgets_cells(self, monkeypatch, build, path, spec, sizes):
        blocks = []  # (points, cells a point) of each evolved block
        evolve = ScanCircuit.evolve

        def recording(grid, elements, branches, n, heralds=None):
            blocks.append((n, grid.cells))
            return evolve(grid, elements, branches, n, heralds)

        monkeypatch.setattr(ScanCircuit, "evolve", recording)
        rows = scan(ExperimentConfig.from_dict(build()), path, spec)
        assert [n for n, _ in blocks] == sizes
        assert sum(sizes) == len(rows)
        assert all(n * cells <= presets.SCAN_CELLS for n, cells in blocks)

    def test_blocks_cover_the_grid_in_order(self, monkeypatch):
        raw = fusion_delay_config()
        assert _block_points(raw) == 256
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
        spec = "-150:150:0.5"  # 601 points: two full blocks of 256 and one of 89
        rows = scan(ExperimentConfig.from_dict(raw), "elements.0.delta_um", spec)
        # Each block pushes its creators through its stacked delay, then the
        # other seven elements, composed once per scan; no stack is composed.
        assert pushed == [3, 2] * 3
        assert composed == [2] * 7
        assert [r["param"] for r in rows] == parse_range(spec)
        # Rows 250 to 261 straddle the first block's end.
        _assert_rows_match(rows[250:262], _per_point_rows(raw, "elements.0.delta_um", "-25:-19.5:0.5"))


def _counting_checks(monkeypatch, path: str):
    """(rows, {"validate": full validations, "passes": LeafCheck.passes
    calls}) of a scan of the herald-scan config in blocks of 8."""
    raw = _herald_scan_config()
    monkeypatch.setattr(presets, "SCAN_CELLS", 8 * _cells(raw))
    counted = {"validate": 0, "passes": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counted[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(config_module, "validate_config_dict", counting("validate", config_module.validate_config_dict))
    monkeypatch.setattr(LeafCheck, "passes", counting("passes", LeafCheck.passes))
    return scan(ExperimentConfig.from_dict(raw), path, "0.43:0.94:0.02"), counted


class TestSameErrors:
    @pytest.mark.parametrize(
        "raw, path, spec, bad_point, where",
        [
            (_beamsplitter_config(0.95), "elements.1.transmissivity", "0.95:1.06:0.05", 2, "$.elements.1.transmissivity"),
            (hom_config(), "sources.branches.0.photons.1.overlap", "0.8:1.25:0.2", 2, "$.sources.branches.0.photons.1.overlap"),
            (_delayed_config(), "model.coherence_length_um", "0:100:50", 0, "$.model.coherence_length_um"),
            (_leaf_check_config(), "elements.1.transmissivity", "-0.1:0.2:0.1", 0, "$.elements.1.transmissivity"),
            (
                _leaf_check_config(),
                "sources.branches.0.photons.1.overlap.0",
                "0.8:1.25:0.2",
                2,
                "$.sources.branches.0.photons.1.overlap",
            ),
            (_leaf_check_config(), "bins", "2:3:0.5", 1, "$.bins"),
            (_leaf_check_config(), "bins", "1:2:1", 0, "$.sources.branches.0.photons.1.overlap"),
            (_leaf_check_config(), "photon_budget", "1:3:1", 0, "$.sources.branches.0.photons"),
            (_leaf_check_config(), "heralds.0.require.DA", "-1:1:1", 0, "$.heralds.0.require.DA"),
            (
                _photon_values_config(),
                "sources.branches.0.photons.0.pol_amps.0",
                "0.6:1:0.3",
                1,
                "$.sources.branches.0.photons.0.pol_amps",
            ),
            (
                _photon_values_config(),
                "sources.branches.0.photons.0.pol_amps.1.1",
                "0:0.8:0.8",
                0,
                "$.sources.branches.0.photons.0.pol_amps",
            ),
            (
                _photon_values_config(),
                "sources.branches.0.photons.0.bins.1",
                "0.5:0.8:0.3",
                0,
                "$.sources.branches.0.photons.0.bins",
            ),
            (
                _photon_values_config(),
                "sources.branches.0.photons.0.bins.0.1",
                "0:0.6:0.6",
                0,
                "$.sources.branches.0.photons.0.bins",
            ),
            (_photon_values_config(), "photon_budget,bins", "1:2:1", 0, "$.sources.branches.0.photons"),
            (_set(hom_config(), "spatial_labels", ["A1", "A2", "LP1", "LP2"] + [f"X{k}" for k in range(8)]), "bins", "4:8:1", 2, "$.bins"),
        ],
        ids=[
            "transmissivity-1.05",
            "photon-overlap-1.2",
            "coherence-length-0",
            "transmissivity-negative",
            "overlap-part-1.2",
            "bins-non-integral",
            "bins-1",
            "photon-budget-1",
            "herald-count-negative",
            "pol-amps",
            "pol-amps-im",
            "photon-bins",
            "photon-bins-im",
            "budget-and-bins",
            "bins-over-the-mode-cap",
        ],
    )
    def test_bad_point_gives_the_full_validation_messages(self, tmp_path, capsys, raw, path, spec, bad_point, where):
        # The bad point as a config file holds it: an integral value is an int at an integer field.
        bad = LeafCheck(_leaves(path)).at(raw, parse_range(spec)[bad_point])
        expected = validate_config_dict(bad)
        assert expected and all(v.startswith(where) for v in expected)
        with pytest.raises(ConfigError) as exc:
            scan(ExperimentConfig.from_dict(raw), path, spec)
        assert exc.value.violations == expected
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path), "--scan", f"{path}={spec}"]) == 1
        err = capsys.readouterr().err
        assert err == "".join(f"eventready: config error: {v}\n" for v in expected)

    @pytest.mark.parametrize(
        "raw, path, message",
        [
            (hom_config(), "junk", "$: Additional properties are not allowed ('junk' was unexpected)"),
            (
                hom_config(),
                "sources.branches.0.photons.0.junk",
                "$.sources.branches.0.photons.0: Additional properties are not allowed ('junk' was unexpected)",
            ),
            (
                {**hom_config(), "analyzers": {"theta_a_deg": 0.0, "theta_b_deg": 45.0}},
                "analyzers.junk",
                "$.analyzers: Additional properties are not allowed ('junk' was unexpected)",
            ),
            (hom_config(), "elements.0.transmissivity", "$.elements.0.transmissivity: not a field of pbs"),
            (
                _set(hom_config(), "sources.branches.0.photons.0.bins", [1.0]),
                "sources.branches.0.photons.0.overlap",
                "$.sources.branches.0.photons.0: set bins or overlap, not both",
            ),
        ],
        ids=["top-level-junk", "photon-junk", "analyzer-junk", "element-field", "bins-and-overlap"],
    )
    def test_absent_leaf_gives_the_first_points_full_validation_messages(self, tmp_path, capsys, raw, path, message):
        # The scanned key is absent from the config: the first point adds it.
        assert validate_config_dict(raw) == []
        assert validate_config_dict(_set(raw, path, 0.0)) == [message]
        with pytest.raises(ConfigError) as exc:
            scan(ExperimentConfig.from_dict(raw), path, "0:1:0.5")
        assert exc.value.violations == [message]
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path), "--scan", f"{path}=0:1:0.5"]) == 1
        assert capsys.readouterr().err == f"eventready: config error: {message}\n"

    @pytest.mark.parametrize("budget", [None, 3], ids=["absent", "present"])
    def test_integer_field_scan_fails_as_its_config_does(self, tmp_path, capsys, budget):
        """A scanned integral value of an integer field goes in as an int, as a config file gives it."""
        raw = hom_config() if budget is None else {**hom_config(), "photon_budget": budget}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path), "--scan", "photon_budget=1:3:1"]) == 1
        scanned = capsys.readouterr().err
        cfg_path.write_text(json.dumps({**raw, "photon_budget": 1}))
        assert main(["--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == scanned
        assert scanned.endswith(" photons exceed the budget of 1\n")

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
        raw = _leaf_check_config()
        assert validate_config_dict(raw) == []
        check = LeafCheck(_leaves(path))
        assert check.passes([value], raw) == (validate_config_dict(check.at(raw, value)) == [])

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
        raw = _photon_values_config()
        assert validate_config_dict(raw) == []
        check = LeafCheck(_leaves(",".join(paths)))
        assert check.passes([value], raw) == (validate_config_dict(check.at(raw, value)) == [])

    @pytest.mark.parametrize(
        "path, values",
        [
            ("elements.1.transmissivity", [0.5, 1.05]),
            ("elements.1.transmissivity", [-0.1, 0.5]),
            ("bins", [2.0, 9.0]),
            ("bins", [1.0, 2.0]),
            ("sources.branches.0.photons.1.overlap.0", [-1.2, 0.5]),
            ("sources.branches.0.photons.1.overlap.0", [0.5, 1.2]),
            ("heralds.0.require.DA", [0.0, 0.5, 1.0]),
        ],
        ids=["over-max", "under-min", "bins-over-max", "bins-too-few", "magnitude-low-end", "magnitude-high-end", "non-integral"],
    )
    def test_block_with_one_bad_point_fails(self, path, values):
        # Each block has a good and a bad point, the bad one where a block check could miss it.
        raw = _leaf_check_config()
        check = LeafCheck(_leaves(path))
        verdicts = [validate_config_dict(check.at(raw, value)) == [] for value in values]
        assert any(verdicts) and not all(verdicts)
        assert not check.passes(values, raw)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(leaf_values())
    def test_leaf_check_verdict_equals_full_validation(self, case):
        raw, keys, values = case
        check = LeafCheck([keys])
        verdicts = [validate_config_dict(check.at(raw, value)) == [] for value in values]
        assert [check.passes([value], raw) for value in values] == verdicts
        assert check.passes(values, raw) == all(verdicts)

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
        # Only the preset's config is validated in full; the scan's first
        # point, like every later one, has its scanned leaf checked.
        assert calls == {"validate": 1, "cross": 1}

    def test_photon_scan_checks_each_block_once(self, monkeypatch):
        rows, counted = _counting_checks(monkeypatch, FUSION_OVERLAPS)
        # The config is validated in full; its compiled first point is
        # checked alone, then each block of 8 of the 26 points at once.
        assert len(rows) == 26
        assert counted == {"validate": 1, "passes": 5}

    def test_photon_scan_of_absent_leaves_validates_its_first_point_in_full(self, monkeypatch):
        path = "sources.branches.0.photons.0.overlap,sources.branches.0.photons.1.overlap"
        rows, counted = _counting_checks(monkeypatch, path)
        # The config and the first point, which adds the keys, are
        # validated in full; then each block of 8 of the 26 points is checked at once.
        assert len(rows) == 26
        assert counted == {"validate": 2, "passes": 4}

    def test_photon_block_with_a_bad_fourth_point_fails_as_that_point(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(_herald_scan_config()))
        # 0.9, 0.95, 1.0, 1.05: one block, which fails LeafCheck and is redone point by point.
        assert main(["--config", str(cfg_path), "--scan", "sources.branches.0.photons.2.overlap=0.9:1.2:0.05"]) == 1
        message = "$.sources.branches.0.photons.2.overlap: overlap magnitude 1.05 exceeds 1"
        assert capsys.readouterr().err == f"eventready: config error: {message}\n"

    def test_scan_validates_once_and_compiles_once(self, monkeypatch):
        calls = {"validate": 0, "compile": 0, "lower": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        block = _block_points(fusion_delay_config())
        monkeypatch.setattr(
            config_module, "validate_config_dict", counting("validate", config_module.validate_config_dict)
        )
        monkeypatch.setattr(presets, "compile_circuit", counting("compile", presets.compile_circuit))
        monkeypatch.setattr(circuit_module, "lower_element", counting("lower", circuit_module.lower_element))
        result = run_preset("fusion-delay-scan")
        assert result.report["points"] == 1201
        assert calls["validate"] == 1
        assert calls["compile"] == 1
        # The compiled first point lowers every element once, then each
        # block of the 1201 points lowers the delay once.
        assert calls["lower"] == 8 + math.ceil(1201 / block)

    @pytest.mark.parametrize(
        "path, spec, per_block",
        [("model.coherence_length_um", "100:300:50", 1), ("heralds.0.require.D1", "0:3:1", 0)],
        ids=["model", "herald"],
    )
    def test_scan_paths_fix_what_every_point_re_lowers(self, monkeypatch, path, spec, per_block):
        raw = _delayed_config()
        assert len(raw["elements"]) == 8
        block = _block_points(raw)
        lowered = []
        original = circuit_module.lower_element
        monkeypatch.setattr(circuit_module, "lower_element", lambda el, *a, **kw: lowered.append(el) or original(el, *a, **kw))
        rows = scan(ExperimentConfig.from_dict(raw), path, spec)
        # The compiled first point lowers every element once; the one block
        # of points lowers the delay, which reads the model, once.
        assert len(rows) <= block
        assert len(lowered) == 8 + per_block
        _assert_rows_match(rows, _per_point_rows(raw, path, spec))


def _lowering_with(monkeypatch, kind: str, field: str, bad_values: dict):
    """Make element `kind` pass its lowered transform through
    bad_values[v] when its `field` is v; in a block's stack, the matrix of
    each point where it is v."""
    original = ELEMENT_KINDS[kind]

    def lower(reg, ports, el, model, convention):
        t = original.lower(reg, ports, el, model, convention)
        if isinstance(el[field], np.ndarray):
            matrices = [
                bad_values[v](ModeTransform(t.modes, m, name=t.name)).matrix if v in bad_values else m
                for v, m in zip(el[field].tolist(), t.matrix)
            ]
            return ModeTransform(t.modes, np.stack(matrices), name=t.name)
        if el[field] in bad_values:
            return bad_values[el[field]](t)
        return t

    monkeypatch.setitem(ELEMENT_KINDS, kind, original._replace(lower=lower))


def _scaled(t: ModeTransform) -> ModeTransform:
    return ModeTransform(t.modes, 1.5 * t.matrix, name=t.name)


def _refused(t: ModeTransform):
    raise ElementError("refused")


class TestPerBlockUnitarity:
    @pytest.mark.parametrize("block", [1, 4, None])
    @pytest.mark.parametrize("bad_index", [0, 6, 20])
    def test_non_unitary_point_gives_its_own_error(self, tmp_path, capsys, monkeypatch, block, bad_index):
        raw, path, spec = fusion_delay_config(), "elements.0.delta_um", "-10:10:1"
        if block:
            monkeypatch.setattr(presets, "SCAN_CELLS", block * _cells(raw))
        bad_value = parse_range(spec)[bad_index]
        _lowering_with(monkeypatch, "delay", "delta_um", {bad_value: _scaled})
        with pytest.raises(CircuitError) as alone:
            evaluate_config(ExperimentConfig.from_dict(_set(raw, path, bad_value)))
        assert "non-unitary lowering" in str(alone.value)
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

    def test_a_points_non_unitary_element_precedes_its_later_elements_lowering_error(self, monkeypatch):
        raw, path, spec = _beamsplitter_config(0.3), "elements.1.transmissivity,elements.2.angle_deg", "0.3:0.5:0.1"
        value = parse_range(spec)[1]
        _lowering_with(monkeypatch, "beamsplitter", "transmissivity", {value: _scaled})
        _lowering_with(monkeypatch, "polarizer", "angle_deg", {value: _refused})
        point = _set(_set(raw, "elements.1.transmissivity", value), "elements.2.angle_deg", value)
        with pytest.raises(CircuitError) as alone:
            evaluate_config(ExperimentConfig.from_dict(point))
        with pytest.raises(CircuitError) as scanned:
            scan(ExperimentConfig.from_dict(raw), path, spec)
        assert str(scanned.value) == str(alone.value)
        assert str(scanned.value).startswith("$.elements.1: non-unitary lowering")


class TestBlockChecks:
    """A block evolves its source photons, with the checks of the ket path."""

    def test_photons_over_the_budget_fail_as_before(self):
        config = ExperimentConfig.from_dict(fusion_scheme_config())
        grid = ScanCircuit(compile_circuit(config), config, [["sources", "branches", 0, "photons", 0, "overlap"]])
        branch = grid.circuit.branches[0]
        # The crowded branch at two points, as ScanCircuit.changes gives a scanned branch.
        crowded = creator_columns(grid.circuit.registry, branch.photons + branch.photons[:1], 2)
        with pytest.raises(FockError, match=r"^5 photons exceed the budget of 4$"):
            grid.evolve({}, {0: (np.full(2, branch.amplitude), crowded)}, 2)

    def test_zero_input_state_fails_as_before(self):
        raw = hom_config()
        branch = raw["sources"]["branches"][0]
        raw["sources"]["branches"] = [dict(branch, amplitude=[1.0, 0.0]), dict(branch, amplitude=[0.5, 0.0])]
        # At amplitude -1 the two equal branches cancel.
        with pytest.raises(FockError, match=r"^\$\.sources\.branches: cannot normalize the zero state$"):
            scan(ExperimentConfig.from_dict(raw), "sources.branches.1.amplitude.0", "-1.5:0:0.5")

    def test_norm_drift_past_its_tolerance_raises(self, monkeypatch):
        raw, path, spec = fusion_delay_config(), "elements.0.delta_um", "-10:10:1"
        _lowering_with(monkeypatch, "delay", "delta_um", {parse_range(spec)[6]: _scaled})
        monkeypatch.setattr(circuit_module, "_require_unitary", lambda i, t: None)
        with pytest.raises(FockError, match=r"^norm drifted 1\.000000000000 -> "):
            scan(ExperimentConfig.from_dict(raw), path, spec)


class TestPhotonColumns:
    """A scanned photon field or branch amplitude builds a block's creator
    columns at once from its values, with each point's own bits."""

    @pytest.mark.parametrize(
        "raw, path, spec",
        [
            (hom_config(), "sources.branches.0.photons.1.overlap", "0:1:0.05"),
            (
                _with_photon(polarizer_variant_config(), 2, overlap=[0.9, 0.1]),
                "sources.branches.0.photons.2.overlap.1",
                "-0.3:0.3:0.05",
            ),
            (hom_config(), "sources.branches.0.photons.0.pol_angle_deg", "0:180:7.5"),
            (
                _with_photon(hom_config(), 0, pol_amps=[0.6, [0.0, 0.8]]),
                "sources.branches.0.photons.0.pol_amps.1.1",
                "-0.8:0.8:1.6",
            ),
            (_with_photon(hom_config(), 0, bins=[0.6, 0.8]), "sources.branches.0.photons.0.bins.1", "-0.8:0.8:1.6"),
            (fusion_delay_config(), "sources.branches.1.amplitude.0", "0.1:1:0.1"),
        ],
        ids=["overlap", "overlap-part", "pol-angle", "pol-amps-part", "bins-part", "amplitude-part"],
    )
    def test_block_columns_equal_each_points_own(self, raw, path, spec):
        config, values = ExperimentConfig.from_dict(raw), parse_range(spec)
        keys, _ = presets._path_keys(config.to_dict(), path)
        grid = ScanCircuit(compile_circuit(config), config, [keys])
        _, branches = grid.changes(values, [config] * len(values))
        [(b, (amplitude, columns))] = branches.items()
        # Each point compiled alone: its branch read by compile_circuit, its columns built from that.
        alone = [compile_circuit(ExperimentConfig.from_dict(_set(raw, path, v))).branches[b] for v in values]
        each = [creator_columns(grid.circuit.registry, branch.photons) for branch in alone]
        assert np.array_equal(columns, np.concatenate(each, axis=2))
        assert np.array_equal(amplitude, [branch.amplitude for branch in alone])


class TestHeraldPruning:
    """scan() reads a block only through its heralds, so a block is
    multiplied out only into the rows they keep; so does the delay scan,
    whose one herald keeps the coincidence rows."""

    def _states(self, monkeypatch):
        states = []
        evolve = ScanCircuit.evolve

        def recording(self, elements, branches, n, heralds=None):
            states.append((evolve(self, elements, branches, n, heralds), evolve(self, elements, branches, n)))
            return states[-1][0]

        monkeypatch.setattr(ScanCircuit, "evolve", recording)
        return states

    def test_herald_scan_block_holds_only_its_heralded_rows(self, monkeypatch):
        states = self._states(monkeypatch)
        scan(ExperimentConfig.from_dict(_herald_scan_config()), FUSION_OVERLAPS, "0.43:0.94:0.02")
        assert [(len(state.occupations), len(full.occupations)) for state, full in states] == [(46, 1247)]

    def test_delay_scan_block_holds_only_its_heralds_rows(self, monkeypatch):
        states = self._states(monkeypatch)
        run_preset("fusion-delay-scan", overrides={"delta_range": "-10:10:1"}, shots=0)
        assert [(len(state.occupations), len(full.occupations)) for state, full in states] == [(4, 16)]
        [(state, full)] = states
        # The full state's rows with one photon on each detector's arm, in its order and with its bits.
        arms = [[full.registry.index(m) for m in full.registry.group(arm)] for arm in ("A2", "B2")]
        coincident = np.logical_and.reduce([full.occupations[:, arm].sum(axis=1) == 1 for arm in arms])
        assert np.array_equal(state.occupations, full.occupations[coincident])
        assert np.array_equal(state.amplitudes, full.amplitudes[coincident])
        assert np.array_equal(state.probabilities, full.probabilities[coincident])

    @pytest.mark.parametrize("convention", PBS_CONVENTIONS)
    def test_delay_scan_coincidence_is_the_full_states_pattern(self, monkeypatch, convention):
        """p_coincidence, the sum of a block's rows, against the (1, 1)
        count of the block's full state, read through outcome_distribution."""
        states = self._states(monkeypatch)
        params = {"delta_range": "-80:80:1", "peak_visibility": 1.0}
        config = build_preset_config("fusion-delay-scan", {**params, "convention": convention})
        _, (_, curve), _ = presets.run_fusion_delay_scan(config, params, 5, 0)
        groups = presets._detector_groups(states[0][1].registry, config.detectors)
        want = np.concatenate([_group_counts_by_loop(full, groups, ("D1", "D2"))[(1, 1)] for _, full in states])
        got = np.array([row["p_coincidence"] for row in curve])
        assert len(got) == 161 and np.abs(got - want).max() <= 1e-15

    @pytest.mark.parametrize("preset, rows", [("polarization-correlation", (46, 1247)), ("chsh", (2, 144))])
    def test_heralded_preset_holds_only_its_heralds_rows(self, monkeypatch, preset, rows):
        states = self._states(monkeypatch)
        presets._heralded_pair(build_preset_config(preset, {}))
        assert [(len(state.occupations), len(full.occupations)) for state, full in states] == [rows]


class TestLiveRows:
    """A block's creators are pushed and multiplied out only on their live
    modes; multiplied out over every registry mode instead, with the
    other rows 0, they give the same state, bit for bit."""

    @pytest.mark.parametrize("heralded", [True, False])
    @pytest.mark.parametrize("run_block", [
        lambda: run_preset("fusion-delay-scan", overrides={"delta_range": "-10:10:1"}, shots=0),
        lambda: scan(ExperimentConfig.from_dict(_herald_scan_config()), FUSION_OVERLAPS, "0.43:0.94:0.02"),
    ], ids=["delay", "polarizer-variant"])
    def test_multiply_out_on_live_rows_equals_the_full_width_call(self, monkeypatch, run_block, heralded):
        calls = []
        multiply_out = circuit_module.multiply_out

        def recording(registry, branches, n, heralds=None):
            calls.append((registry, branches, n, heralds if heralded else None))
            return multiply_out(registry, branches, n, heralds)

        monkeypatch.setattr(circuit_module, "multiply_out", recording)
        run_block()
        [(registry, branches, n, heralds)] = calls
        full = []
        for weight, (live, columns) in branches:
            assert len(live) < registry.size
            wide = np.zeros((registry.size,) + columns.shape[1:], dtype=complex)
            wide[live] = columns
            full.append((weight, (np.arange(registry.size), wide)))
        got, want = multiply_out(registry, branches, n, heralds), multiply_out(registry, full, n, heralds)
        assert np.array_equal(got.occupations, want.occupations)
        assert np.array_equal(got.amplitudes, want.amplitudes)


def _group_counts_by_loop(state, groups: dict, order) -> dict:
    """{photon count per detector group, in order: its probability}, a
    loop over outcome_distribution's patterns, each added to its count's
    running sum from 0.0."""
    modes = sorted({m for name in order for m in groups[name]})
    position = {m: order.index(name) for name in order for m in groups[name]}
    table: dict = {}
    for pattern, prob in outcome_distribution(state, modes):
        counts = [0] * len(order)
        for m, c in zip(modes, pattern):
            counts[position[m]] += c
        table[tuple(counts)] = table.get(tuple(counts), 0.0) + prob
    return table


def _ket_path_pair(config):
    """_heralded_pair's (probability, rho) read off the ket path's full state."""
    circuit = compile_circuit(config)
    groups = presets._detector_groups(circuit.registry, config.detectors)
    return heralded_polarization_dm(run(circuit), *presets._herald_request(groups, config.heralds[0]), config.kept)


def _assert_same_observables(got: dict, want: dict, tol: float):
    assert list(got) == list(want)
    for key, value in want.items():
        assert got[key] == value or abs(got[key] - value) <= tol or math.isnan(got[key]) and math.isnan(value), key


class TestOnePointHeraldedRuns:
    """A single heralded config evolves as a one-point scan multiplied out
    only into its heralds' rows; the ket path's full state is the
    reference it must equal."""

    @pytest.mark.parametrize(
        "raw",
        [
            *(build_preset_config(name, {"convention": c}).to_dict()
              for name in ("chsh", "polarization-correlation") for c in ("perm", "i-reflect")),
            *(polarizer_variant_config(overlap) for overlap in (0.0, 0.5, 1.0)),
        ],
        ids=["chsh-perm", "chsh-i-reflect", "correlation-perm", "correlation-i-reflect",
             "variant-0", "variant-0.5", "variant-1"],
    )
    def test_heralded_pair_equals_the_ket_paths(self, raw):
        config = ExperimentConfig.from_dict(raw)
        (p, rho), (want_p, want_rho) = presets._heralded_pair(config), _ket_path_pair(config)
        assert abs(p - want_p) <= 1e-15
        assert np.abs(rho - want_rho).max() <= 1e-15

    @pytest.mark.parametrize(
        "raw",
        [
            *(build_preset_config(name, {"convention": c}).to_dict() for name in presets.PRESET_NAMES
              for c in ("perm", "i-reflect")),
            *(json.loads((DATA / name).read_text()) for name in ("polarizer_variant_config.json", "fusion_delay_config.json")),
        ],
    )
    def test_evaluate_config_equals_the_observables_of_the_full_state(self, raw):
        config = ExperimentConfig.from_dict(raw)
        circuit = compile_circuit(config)
        groups = presets._detector_groups(circuit.registry, config.detectors)
        want = presets._observables([config], one_point_grid(run(circuit)), groups)[0]
        _assert_same_observables(evaluate_config(config), want, 1e-14)

    def test_herald_that_cannot_fire_still_fails_or_reads_nan(self, tmp_path, capsys):
        raw = polarizer_variant_config()
        raw["heralds"][0]["require"] = {"D1": 5}
        with pytest.raises(HeraldError, match="impossible"):
            presets._heralded_pair(ExperimentConfig.from_dict(raw))
        path = tmp_path / "never.json"
        path.write_text(json.dumps(raw))
        assert main(["--config", str(path), "--format", "json"]) == 0
        obs = json.loads(capsys.readouterr().out)
        assert obs.pop("p_coincidence") == 0.0
        assert obs and all(math.isnan(value) for value in obs.values())

    def test_off_pair_herald_gives_the_ket_paths_message(self):
        # One photon in D1h leaves kept supports that are not one photon per arm.
        config = ExperimentConfig.from_dict({**fusion_scheme_config(), "heralds": [{"name": "d1h", "require": {"D1h": 1}}]})
        with pytest.raises(FockError) as want:
            _ket_path_pair(config)
        with pytest.raises(FockError) as got:
            presets._heralded_pair(config)
        assert "kept-pair" in str(want.value)
        assert str(got.value) == str(want.value)


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

    @pytest.mark.parametrize("spec", ["-1e308:1e308:1e308", "-1.5e308:1.5e308:1e308"])
    def test_few_points_over_an_overflowing_span_are_counted_and_their_overflow_refused(self, tmp_path, capsys, spec):
        # 3 and 4 points; the last value, start + i * step, is inf (-1e308 + 2 * 1e308).
        cfg_path = tmp_path / "hom.json"
        cfg_path.write_text(json.dumps(hom_config()))
        assert main(["--config", str(cfg_path), "--scan", f"elements.1.angle_deg={spec}"]) == 1
        error = f"eventready: error: range {spec!r} has a value start + i * step that overflows a float\n"
        assert capsys.readouterr() == ("", error)

    def test_points_over_an_overflowing_span_are_counted(self):
        assert parse_range("-1e308:1e308:1.5e308") == [-1e308, -1e308 + 1.5e308]


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

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_fusion_delay_scan_draws_do_not_depend_on_the_block(self, tmp_path, monkeypatch, block):
        """One generator draws the whole grid, whatever the blocks it was evolved in."""
        run_preset("fusion-delay-scan", out_dir=tmp_path / "default", seed=5)
        monkeypatch.setattr(presets, "SCAN_CELLS", block * _cells(fusion_delay_config()))
        run_preset("fusion-delay-scan", out_dir=tmp_path, seed=5)
        default = (tmp_path / "default" / "fusion-delay-scan.csv").read_bytes()
        assert (tmp_path / "fusion-delay-scan.csv").read_bytes() == default

    def test_fusion_delay_scan_draws_coincidence_against_the_rest(self):
        """Each point's count is drawn from two outcomes, coincidence and
        the rest, all points from one generator in CSV order."""
        params = presets.PRESETS["fusion-delay-scan"].defaults
        _, (_, curve), _ = presets.run_fusion_delay_scan(build_preset_config("fusion-delay-scan", {}), params, 5, 10_000)
        p = [row["p_coincidence"] for row in curve]
        want = np.random.default_rng(5).multinomial(10_000, [[q, 1.0 - q] for q in p])[:, 0]
        assert [row["counts_coincidence"] for row in curve] == want.tolist()

    def test_fusion_overlap_scan(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(build_preset_config("polarization-correlation", {}).to_dict()))
        assert main(["--config", str(cfg_path), "--scan", f"{FUSION_OVERLAPS}=0.5:1.0:0.02", "--out", str(tmp_path)]) == 0
        _assert_csv_matches((tmp_path / "scan.csv").read_text(), DATA / "overlap_scan.csv")

    def test_fusion_overlap_scan_with_analyzers(self, tmp_path):
        """The benchmark's herald scan: 26 overlap points of the
        polarization-correlation config with analyzers set."""
        raw = build_preset_config("polarization-correlation", {}).to_dict()
        raw["analyzers"] = {"theta_a_deg": 0.0, "theta_b_deg": 45.0}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path), "--scan", f"{FUSION_OVERLAPS}=0.43:0.94:0.02", "--out", str(tmp_path)]) == 0
        _assert_csv_matches((tmp_path / "scan.csv").read_text(), DATA / "overlap_scan_analyzers.csv")


class TestExactOutputs:
    """Scan CSVs as written before a scan block was herald-pruned and its
    photons read as columns, compared byte for byte.  The corpus
    (test_corpus.py) holds the bytes of the other scans."""

    @pytest.mark.parametrize(
        "raw, scan_arg, reference",
        [
            (_correlation_config(), "sources.branches.0.photons.1.pol_angle_deg=0:90:5", "pol_angle_scan.csv"),
            (
                _with_photon(_with_photon(_correlation_config(), 2, overlap=[0.9, 0.1]), 3, overlap=[0.9, 0.1]),
                "sources.branches.0.photons.2.overlap.1,sources.branches.0.photons.3.overlap.1=-0.3:0.3:0.05",
                "overlap_part_scan.csv",
            ),
        ],
        ids=["pol-angle", "overlap-part"],
    )
    def test_scan_csv_bytes(self, tmp_path, raw, scan_arg, reference):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path), "--scan", scan_arg, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "scan.csv").read_bytes() == (DATA / "exact" / reference).read_bytes()
