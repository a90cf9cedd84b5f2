"""Built-in experiments, parameter scans, and file emission.

Each preset builds a config, runs it, analyzes the outcome, and writes a
report (JSON), any curves (CSV), and a manifest recording the config
hash and seed so that every emitted file is reproducible bit for bit.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import platform
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._version import __version__
from .analysis import (
    BELL_STATES,
    analyzer_probabilities,
    chsh_S,
    concurrence,
    fidelity,
    fit_delay_fringe,
    fit_sinusoid,
    heralded_polarization_dm,
    herald_terms,
    joint_visibility,
    sample_counts,
    validate_density_matrix,
)
from .analysis import group_herald_outcomes, outcome_distribution  # noqa: F401 -- bench/tracing.py wraps them here
from .circuit import ScanCircuit, compile_circuit, run
from .config import SCHEMA_VERSION, ConfigError, ExperimentConfig, LeafCheck
from .distinguishability import OverlapModel
from .fock import NORM_TOL, PRUNE_TOL, GridState, _arm_slices, distinct_rows, kept_pair_pass, kept_pair_violation, one_point_grid
from .fock import ordered_sum

SUCCESS_PROBABILITY_NOTE = (
    "Exhaustive enumeration of the one-photon-per-detector coincidence "
    "patterns gives a total success probability of 1/8; a commonly quoted "
    "upper bound for this class of fusion schemes is 3/16. Both numbers "
    "are reported side by side."
)


class PresetError(ValueError):
    pass


class PresetArgumentError(PresetError):
    """A run_preset argument out of range; the message begins with its name."""


# A scan evolves its grid in blocks of at least one point and at most this
# many creator cells (ScanCircuit.cells a point), which bounds its memory;
# a grid may hold at most MAX_SCAN_POINTS points.
SCAN_CELLS = 2**14
MAX_SCAN_POINTS = 100_000


# ---------------------------------------------------------------------------
# Config builders
# ---------------------------------------------------------------------------


def _photon(spatial, pol_angle_deg=45.0, overlap=None):
    out = {"spatial": spatial, "pol_angle_deg": pol_angle_deg}
    if overlap is not None and overlap != 1.0:
        out["overlap"] = overlap
    return out


def _four_photon_sources(fusion_overlap=1.0):
    return {
        "branches": [
            {
                "photons": [
                    _photon("A1"),
                    _photon("A2"),
                    _photon("B1", overlap=fusion_overlap),
                    _photon("B2", overlap=fusion_overlap),
                ]
            }
        ]
    }


def two_pbs_config() -> dict:
    """Four photons, two polarizing beamsplitters, nothing else."""
    return {
        "schema_version": SCHEMA_VERSION,
        "name": "two-pbs-stage",
        "spatial_labels": ["A1", "A2", "B1", "B2"],
        "sources": _four_photon_sources(),
        "elements": [
            {"kind": "pbs", "ports": ["A1", "A2"]},
            {"kind": "pbs", "ports": ["B1", "B2"]},
        ],
        "aliases": {"A1": "A1'", "A2": "A2'", "B1": "B1'", "B2": "B2'"},
    }


def fusion_scheme_config(fusion_overlap=1.0, convention=None) -> dict:
    """Full scheme: two PBS stages plus the 45-degree fusion, bare detectors.

    Output arms keep their physical labels; A2 feeds detector 1 and B2
    feeds detector 2 after the fusion.  A given convention is written
    into the config.
    """
    cfg = two_pbs_config()
    cfg["name"] = "event-ready-fusion"
    if convention:
        cfg["convention"] = convention
    cfg["sources"] = _four_photon_sources(fusion_overlap)
    cfg["elements"].append({"kind": "rpbs", "ports": ["A2", "B2"]})
    cfg["detectors"] = {
        "D1h": {"spatial": "A2", "pol": "H"},
        "D1v": {"spatial": "A2", "pol": "V"},
        "D2h": {"spatial": "B2", "pol": "H"},
        "D2v": {"spatial": "B2", "pol": "V"},
    }
    cfg["heralds"] = [
        {"name": "hh", "require": {"D1h": 1, "D2h": 1}, "zero": ["D1v", "D2v"]},
        {"name": "vv", "require": {"D1v": 1, "D2v": 1}, "zero": ["D1h", "D2h"]},
        {"name": "hv", "require": {"D1h": 1, "D2v": 1}, "zero": ["D1v", "D2h"]},
        {"name": "vh", "require": {"D1v": 1, "D2h": 1}, "zero": ["D1h", "D2v"]},
    ]
    cfg["kept"] = ["A1", "B1"]
    return cfg


def polarizer_variant_config(fusion_overlap=1.0, analyzer_walkoff=None) -> dict:
    """Fusion variant with 0-degree polarizers before two bucket detectors.

    analyzer_walkoff, if given, adds a polarization-selective bin mixer on
    each kept arm (V component only) with the given amplitude overlap,
    modelling analyzer-arm birefringence.
    """
    cfg = fusion_scheme_config(fusion_overlap)
    cfg["name"] = "event-ready-fusion-polarizer-variant"
    cfg["spatial_labels"] = ["A1", "A2", "B1", "B2", "LD1", "LD2"]
    cfg["elements"].append({"kind": "polarizer", "port": "A2", "angle_deg": 0.0, "loss": "LD1"})
    cfg["elements"].append({"kind": "polarizer", "port": "B2", "angle_deg": 0.0, "loss": "LD2"})
    if analyzer_walkoff is not None:
        cfg["elements"].append(
            {"kind": "bin_mixer", "port": "A1", "pol": "V", "overlap": analyzer_walkoff, "bin_map": {"0": 2}}
        )
        cfg["elements"].append(
            {"kind": "bin_mixer", "port": "B1", "pol": "V", "overlap": analyzer_walkoff, "bin_map": {"0": 2, "1": 3}}
        )
    cfg["detectors"] = {
        "D1": {"spatial": "A2"},
        "D2": {"spatial": "B2"},
        "L1": {"spatial": "LD1"},
        "L2": {"spatial": "LD2"},
    }
    cfg["heralds"] = [
        {"name": "coincidence", "require": {"D1": 1, "D2": 1}, "zero": ["L1", "L2"]}
    ]
    return cfg


def hom_config(overlap=1.0) -> dict:
    """One PBS fed by two diagonal photons, crossed +/-45 analyzers."""
    return {
        "schema_version": SCHEMA_VERSION,
        "name": "pbs-hom",
        "spatial_labels": ["A1", "A2", "LP1", "LP2"],
        "sources": {
            "branches": [
                {"photons": [_photon("A1"), _photon("A2", overlap=overlap)]}
            ]
        },
        "elements": [
            {"kind": "pbs", "ports": ["A1", "A2"]},
            {"kind": "polarizer", "port": "A1", "angle_deg": 45.0, "loss": "LP1"},
            {"kind": "polarizer", "port": "A2", "angle_deg": 135.0, "loss": "LP2"},
        ],
        "detectors": {"DA": {"spatial": "A1"}, "DB": {"spatial": "A2"}},
        "heralds": [{"name": "coincidence", "require": {"DA": 1, "DB": 1}}],
    }


def fusion_delay_config(peak_visibility=1.0) -> dict:
    """Alignment mode: bunched pair through the fusion with input plates at 0.

    The source is the coherent two-branch state (pair on one input port or
    the other); the movable-path branch carries the delay.  Behind the
    output plates the 0-degree polarizers act as effective 45-degree
    analyzers on the fusion inputs.
    """
    u = math.sqrt(peak_visibility)
    return {
        "schema_version": SCHEMA_VERSION,
        "name": "fusion-alignment-delay-scan",
        "spatial_labels": ["A2", "B2", "LD1", "LD2"],
        "sources": {
            "branches": [
                {
                    "amplitude": [1.0 / math.sqrt(2.0), 0.0],
                    "photons": [
                        _photon("A2", pol_angle_deg=90.0),
                        _photon("A2", pol_angle_deg=0.0),
                    ],
                },
                {
                    "amplitude": [1.0 / math.sqrt(2.0), 0.0],
                    "photons": [
                        _photon("B2", pol_angle_deg=90.0, overlap=u),
                        _photon("B2", pol_angle_deg=0.0, overlap=u),
                    ],
                },
            ]
        },
        "elements": [
            {"kind": "delay", "port": "B2", "delta_um": 0.0, "bin_map": {"0": 2, "1": 3}},
            {"kind": "hwp", "port": "A2", "angle_deg": 0.0},
            {"kind": "hwp", "port": "B2", "angle_deg": 0.0},
            {"kind": "pbs", "ports": ["A2", "B2"]},
            {"kind": "hwp", "port": "A2", "angle_deg": 22.5},
            {"kind": "hwp", "port": "B2", "angle_deg": 22.5},
            {"kind": "polarizer", "port": "A2", "angle_deg": 0.0, "loss": "LD1"},
            {"kind": "polarizer", "port": "B2", "angle_deg": 0.0, "loss": "LD2"},
        ],
        "detectors": {"D1": {"spatial": "A2"}, "D2": {"spatial": "B2"}},
        "heralds": [{"name": "coincidence", "require": {"D1": 1, "D2": 1}}],
        "model": {"coherence_length_um": 200.0, "fringe_period_um": 0.788},
    }


# Squared overlaps and visibilities, in [0, 1]: the builders take their square roots.
_UNIT_PARAMS = ("fusion_overlap_sq", "operating_overlap_sq", "peak_visibility", "visibility")
# Range parameters and the fewest points each needs: the delay fringe fit has four parameters,
# and theta_step_deg steps the 0:180 grid of each correlation fit, 8 points over a full period.
_RANGE_PARAMS = {"scan": 2, "delta_range": 5, "theta_step_deg": 8}
# The correlations of a chsh report, the keys a reference's 'E' may give.
_CHSH_CORRELATIONS = ("ab", "ab_prime", "a_prime_b", "a_prime_b_prime")


def _is_finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _is_chsh_reference(reference) -> bool:
    """A dict whose 'S', if given, is a finite number and whose 'E', if
    given, maps names to finite numbers."""
    if not isinstance(reference, dict):
        return False
    e = reference.get("E", {})
    return _is_finite(reference.get("S", 0.0)) and isinstance(e, dict) and all(map(_is_finite, e.values()))


def build_preset_config(name: str, params: dict) -> ExperimentConfig:
    """The validated config of one preset with its parameters overridden.

    Every preset takes `convention` besides the keys of its defaults;
    any other key, a squared overlap or visibility outside [0, 1], a
    range that is not a start:stop:step string of enough points, a theta
    step that does not divide 180 into 7 or more steps, chsh
    settings that are not four finite angles, or a chsh reference that is
    not null or a dict of finite 'S' and 'E' values, or that gives a key
    the report does not hold, raises PresetError before a config is built.
    """
    if name not in PRESETS:
        raise PresetError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    preset = PRESETS[name]
    for key in params:
        if key != "convention" and key not in preset.defaults:
            raise PresetError(
                f"preset {name!r} has no parameter {key!r}; "
                f"choose from {sorted([*preset.defaults, 'convention'])}"
            )
    full = {**preset.defaults, **params}
    for key, value in full.items():
        if key in _UNIT_PARAMS and not (isinstance(value, (int, float)) and value >= 0):
            raise PresetError(f"preset {name!r}: {key} must be a number >= 0, got {value!r}")
        if key in _UNIT_PARAMS and value > 1:
            raise PresetError(f"preset {name!r}: {key} must be <= 1, got {value!r}")
        least = _RANGE_PARAMS.get(key)
        if least:
            spec = f"0:180:{value}" if key == "theta_step_deg" else value
            try:
                points = parse_range(spec) if isinstance(spec, str) else []
            except PresetError as exc:
                raise PresetError(f"preset {name!r}: {key}: {exc}") from None
            if key == "theta_step_deg" and (len(points) < least or points[-1] < 180.0 - 1e-9):
                raise PresetError(f"preset {name!r}: {key} must divide 180 into {least - 1} or more steps, got {value!r}")
            if len(points) < least:
                raise PresetError(f"preset {name!r}: {key} must be a range of {least} or more points, got {value!r}")
    settings = full.get("settings", (0.0,) * 4)
    if not (isinstance(settings, (list, tuple)) and len(settings) == 4 and all(map(_is_finite, settings))):
        raise PresetError(f"preset {name!r}: settings must be four angles (a, a', b, b'), got {settings!r}")
    reference = full.get("reference")
    if reference is not None:
        if not _is_chsh_reference(reference):
            raise PresetError(
                f"preset {name!r}: reference must be null or a dict with a finite 'S' "
                f"and an 'E' dict of finite numbers, got {reference!r}"
            )
        keys = (("reference", reference, ("E", "S")), ("reference 'E'", reference.get("E", {}), _CHSH_CORRELATIONS))
        for where, given, known in keys:
            unknown = [key for key in given if key not in known]
            if unknown:
                raise PresetError(f"preset {name!r}: {where} has no key {unknown[0]!r}; choose from {list(known)}")
    raw = preset.build(full)
    if "convention" in params:
        raw["convention"] = params["convention"]
    return ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# Generic evaluation and scanning
# ---------------------------------------------------------------------------


def _detector_groups(registry, detectors: dict) -> dict:
    return {
        name: registry.group(d["spatial"], d.get("pol"))
        for name, d in detectors.items()
    }


def _herald_request(groups, herald_spec):
    requirements = {
        name: (groups[name], count) for name, count in herald_spec["require"].items()
    }
    read = [m for name in herald_spec["require"] for m in groups[name]]
    read += [m for name in herald_spec.get("zero", []) for m in groups[name]]
    return requirements, tuple(read)


def _heralded_pair(config: ExperimentConfig):
    """(herald probability, kept-pair polarization rho) under the first
    herald, from a one-point scan multiplied out only into that herald's
    rows."""
    circuit = compile_circuit(config)
    groups = _detector_groups(circuit.registry, config.detectors)
    request = _herald_request(groups, config.heralds[0])
    state = ScanCircuit(circuit, config, ()).evolve({}, {}, 1, [request])
    return heralded_polarization_dm(state, *request, config.kept)


def evaluate_config(config: ExperimentConfig) -> dict:
    """Every applicable observable of one config: a one-point scan, its
    state multiplied out only into the rows its heralds keep (in full when
    it has none), read as a scan block is."""
    circuit = compile_circuit(config)
    groups = _detector_groups(circuit.registry, config.detectors)
    heralds = [_herald_request(groups, spec) for spec in config.heralds]
    state = ScanCircuit(circuit, config, ()).evolve({}, {}, 1, heralds)
    return _observables([config], state, groups)[0]


def _observables(points: list, state: GridState, groups: dict) -> list:
    """Every applicable observable of each point (config) of a block, from
    the GridState of their final states, in one pass per distinct herald
    spec.  Where the first herald cannot fire, or fires on terms off the
    kept pair, fidelities read NaN and there are no analyzer keys.  The
    block's rhos are validated in one call, which raises for the first
    invalid point."""
    rows = [{} for _ in points]
    first = [None] * len(points)  # (probability, rho) under the first herald
    kept = points[0].kept
    for k in range(len(points[0].heralds)):
        # herald spec, as JSON: (probability, rho, off the pair) at each point; id of a spec: its JSON
        passes, keys = {}, {}
        for j, point in enumerate(points):
            spec = point.heralds[k]
            key = keys.get(id(spec)) or keys.setdefault(id(spec), json.dumps(spec, sort_keys=True))
            if key not in passes:
                patterns, heralded = herald_terms(state, *_herald_request(groups, spec))
                if kept:
                    prob, rho, bad = kept_pair_pass(heralded, kept, patterns)
                    passes[key] = prob, rho, (heralded.amplitudes[bad] != 0).any(axis=0)
                else:
                    passes[key] = ordered_sum(heralded.probabilities), None, None
            prob, rho, off_pair = passes[key]
            p = float(prob[j])
            rows[j][f"p_{spec['name']}"] = p
            if k == 0 and kept and p > 0 and not off_pair[j]:
                first[j] = (p, rho[j])
    for obs, point, pair in zip(rows, points, first):
        if pair is None and kept and point.heralds:
            obs.update(dict.fromkeys([*(f"fidelity_{name}" for name in BELL_STATES), "concurrence"], math.nan))
    valid = [j for j, pair in enumerate(first) if pair]  # the points with a rho
    if not valid:
        return rows
    # Each figure of merit once over the stack of rhos, and the analyzer
    # probabilities once per distinct setting.
    rhos = validate_density_matrix(np.stack([first[j][1] for j in valid]))
    merit = {f"fidelity_{name}": fidelity(rhos, vec) for name, vec in BELL_STATES.items()}
    merit["concurrence"] = concurrence(rhos)
    settings: dict = {}
    for k, j in enumerate(valid):
        rows[j].update({key: float(values[k]) for key, values in merit.items()})
        if points[j].analyzers:
            setting = (points[j].analyzers["theta_a_deg"], points[j].analyzers["theta_b_deg"])
            settings.setdefault(setting, []).append((k, j))
    for setting, pairs in settings.items():
        probabilities = analyzer_probabilities(rhos[[k for k, _ in pairs]], *setting)
        for (_, j), (pp, pf, fp, ff) in zip(pairs, zip(*probabilities)):
            pp, pf, fp, ff = float(pp), float(pf), float(fp), float(ff)
            rows[j].update(p_pass_pass=pp, p_pass_fail=pf, p_fail_pass=fp, p_fail_fail=ff)
            rows[j].update(correlation_E=pp + ff - pf - fp, coincidence_probability=first[j][0] * pp)
    return rows


def parse_range(spec: str):
    try:
        start_s, stop_s, step_s = spec.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError as exc:
        raise PresetError(f"bad range spec {spec!r}, expected start:stop:step") from exc
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise PresetError(f"range {spec!r} has a non-finite start, stop or step")
    if step <= 0:
        raise PresetError("range step must be positive")
    # Counted from the half span, which never overflows as stop - start can.
    # Compared as a float: a count too large for an int is inf here, not an OverflowError.
    steps = (stop / 2 - start / 2) / step * 2 + 1e-9
    if steps >= MAX_SCAN_POINTS:
        raise PresetError(f"range {spec!r} yields more than {MAX_SCAN_POINTS} points")
    n = int(math.floor(steps)) + 1
    if n < 2:
        raise PresetError(f"range {spec!r} yields fewer than 2 points")
    values = [start + i * step for i in range(n)]
    if not math.isfinite(values[-1]):
        raise PresetError(f"range {spec!r} has a value start + i * step that overflows a float")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise PresetError(f"range {spec!r} has a step too small to advance every value")
    return values


def _path_key(node, part: str, path: str, leaf: bool = False):
    """The dict key or list index that one part of a scan path names."""
    if isinstance(node, dict) and (leaf or part in node):
        return part
    if isinstance(node, list) and part.isdigit() and int(part) < len(node):
        return int(part)
    raise PresetError(f"scan path {path!r}: no field {part!r}")


def _path_keys(raw: dict, path: str) -> tuple:
    """(keys, present): the keys and indices of a scan path, which must
    name a numeric field of raw, and whether raw holds that field."""
    *parents, leaf = path.split(".")
    keys, node = [], raw
    for part in parents:
        keys.append(_path_key(node, part, path))
        node = node[keys[-1]]
    keys.append(_path_key(node, leaf, path, leaf=True))
    # An absent leaf is allowed: optional numeric fields (e.g. a photon's
    # overlap) default away when 1.0; _scan_blocks validates such a scan's
    # first point in full, which rejects junk keys.
    present = not isinstance(node, dict) or keys[-1] in node
    current = node[keys[-1]] if present else 0.0
    if not isinstance(current, (int, float)) or isinstance(current, bool):
        raise PresetError(f"scan path {path!r} does not address a numeric field")
    return keys, present


def _checked(check: LeafCheck, base: dict, value: float) -> ExperimentConfig:
    """The config of one scan point: checked at its leaves, and validated
    in full where that check fails, so that its ConfigError carries
    validate_config_dict's messages."""
    raw = check.at(base, value)
    return ExperimentConfig._from_valid(raw) if check.passes([value], base) else ExperimentConfig.from_dict(raw)


def _scan_blocks(config: ExperimentConfig, path: str, range_spec: str):
    """Yield (values, point configs, GridState, detector groups) for each
    block of scan()'s grid, as many points as SCAN_CELLS holds (at least one).

    config is already validated, so a point has only its scanned leaves
    checked (LeafCheck), a block of them at once.  The exception is a leaf
    absent from config: the first point then adds a key, which the schema
    may not know or which may clash with another field, so it is
    validated in full.  The first point is compiled into a ScanCircuit.  A
    block's values are lowered, made into creators and evolved at once; a
    config per point is built only where the observables or the model read
    a scanned field (`heralds`, `analyzers`, `model`).  A failing block is
    redone point by point, each checked (_checked: validated in full where
    its check fails) and compiled alone as --config compiles it, so its
    first bad point raises the error it raises alone.
    A `bins`, `photon_budget` or `bin_map` scan compiles each point alone.
    A block holds only the rows its points' heralds keep, or its full
    state where they have none.
    """
    values = parse_range(range_spec)
    paths = [p.strip() for p in path.split(",") if p.strip()]
    if not paths:
        raise PresetError("scan needs at least one parameter path")
    base = config.to_dict()
    leaves, present = zip(*(_path_keys(base, p) for p in paths))
    check = LeafCheck(leaves)
    if all(present):
        point = _checked(check, base, values[0])
    else:
        point = ExperimentConfig.from_dict(check.at(base, values[0]))
    grid = ScanCircuit(compile_circuit(point), point, leaves)
    per_config = any(keys[0] in ("heralds", "analyzers", "model") for keys in leaves)
    size = 1 if grid.per_point else max(1, SCAN_CELLS // grid.cells)
    for start in range(0, len(values), size):
        block = values[start : start + size]
        try:
            if not check.passes(block, base):
                raise ConfigError([f"a value of {path!r} fails its check"])
            if start and grid.per_point:
                point = ExperimentConfig._from_valid(check.at(base, block[0]))
                grid = ScanCircuit(compile_circuit(point), point, leaves)
            if per_config:
                points = [ExperimentConfig._from_valid(check.at(base, value)) for value in block]
            else:
                points = [point] * len(block)
            groups = _detector_groups(grid.circuit.registry, point.detectors)
            specs = {json.dumps(s, sort_keys=True): s for p in {id(p): p for p in points}.values() for s in p.heralds}
            heralds = [_herald_request(groups, spec) for spec in specs.values()]
            state = grid.evolve(*grid.changes(block, points), len(block), heralds)
        except ValueError:
            # Each point compiled alone, as --config compiles it: the first bad one raises its own error.
            for value in block:
                compile_circuit(_checked(check, base, value))
            raise
        yield block, points, state, groups


def scan(config: ExperimentConfig, path: str, range_spec: str):
    """One observable row per parameter value, in ascending order.

    config is a validated ExperimentConfig (ExperimentConfig.from_dict,
    parse_config or build_preset_config); a block of points is checked at
    once at the scanned leaves, save the first point when a scanned leaf
    is absent from config, which is validated in full.  A point that
    fails is validated in full, so its ConfigError carries the messages
    of validate_config_dict.  A block is multiplied out only into the rows
    its heralds keep, all that is read of it.  Several comma-separated
    paths move together through the same values, e.g. both photons of a
    delayed pair sharing one overlap.
    """
    rows = []
    for values, points, grid, groups in _scan_blocks(config, path, range_spec):
        rows += [{"param": value, **obs} for value, obs in zip(values, _observables(points, grid, groups))]
    return rows


# ---------------------------------------------------------------------------
# Preset pipelines
# ---------------------------------------------------------------------------


def run_eq1_check(config: ExperimentConfig, params: dict, seed: int, shots: int):
    circuit = compile_circuit(config)
    state = run(circuit)
    expected = 0.25
    deviations = []
    for _, amp in state.sorted_terms():
        if config.convention == "perm":
            deviations.append(abs(amp - expected))
        else:
            deviations.append(abs(abs(amp) - expected))
    n_terms = len(state.terms)
    max_dev = max(deviations) if deviations else float("inf")
    passed = n_terms == 16 and max_dev < 1e-12
    report = {
        "check": "state after the two polarizing beamsplitters",
        "convention": config.convention,
        "n_terms": n_terms,
        "expected_terms": 16,
        "expected_amplitude": expected,
        "max_amplitude_deviation": max_dev,
        "threshold": 1e-12,
        "passed": passed,
        "amplitudes": state.dump_amplitudes(),
    }
    return report, None, passed


def run_bell_decomposition(config: ExperimentConfig, params: dict, seed: int, shots: int):
    circuit = compile_circuit(config)
    grid = one_point_grid(run(circuit))
    registry = circuit.registry
    # The terms with one photon in each arm, renormalized, as an array over
    # the photons' places in A2, B2, A1 and B1 (fock._arm_slices).
    arms = [grid.occupations[:, arm] for arm in _arm_slices(registry, ("A2", "B2", "A1", "B1"))]
    kept = np.logical_and.reduce([arm.sum(axis=1) == 1 for arm in arms])
    projected = np.zeros((2 * registry.bins,) * 4, dtype=complex)
    projected[tuple(arm[kept].argmax(axis=1) for arm in arms)] = grid.amplitudes[kept, 0]
    norm_sq = float(ordered_sum(grid.probabilities[kept])[0])
    projected /= math.sqrt(norm_sq)
    # Each Bell pair at bin 0: a photon's place in its arm is its
    # polarization (H, V) times the bins, plus its bin.
    bells = ["psi_plus", "psi_minus", "phi_plus", "phi_minus"]
    pairs = np.zeros((len(bells), 2 * registry.bins, 2 * registry.bins), dtype=complex)
    pairs[:, :: registry.bins, :: registry.bins] = [BELL_STATES[name].reshape(2, 2) for name in bells]
    recomposed = 0.5 * np.einsum("kij,klm->ijlm", pairs, pairs)
    diff = projected - recomposed
    # Entries within PRUNE_TOL of 0 are dropped, as a state's terms are, so an exact re-expansion reads 0.
    residual = float(np.linalg.norm(diff[abs(diff) > PRUNE_TOL]))
    overlap = complex(np.vdot(projected, recomposed))
    passed = residual < 1e-12
    report = {
        "check": "Bell-basis re-expansion of the post-beamsplitter state",
        "convention": config.convention,
        "projected_norm_sq": norm_sq,
        "residual_norm": residual,
        "overlap": [overlap.real, overlap.imag],
        "threshold": 1e-12,
        "bell_terms": bells,
        "passed": passed,
    }
    return report, None, passed


def run_herald_table(config: ExperimentConfig, params: dict, seed: int, shots: int):
    circuit = compile_circuit(config)
    grid = one_point_grid(run(circuit))
    registry = circuit.registry
    groups = _detector_groups(registry, config.detectors)
    order = ["D1h", "D1v", "D2h", "D2v"]
    # Each term filed once under its counts, as herald_terms would keep it
    # for a herald requiring exactly those counts: the counts are the
    # points of one grid, and a term is 0 at every point but its own.
    read = sorted({m for name in order for m in groups[name]})
    read_idx = [registry.index(m) for m in read]
    group_of = np.array([next(k for k, name in enumerate(order) if m in groups[name]) for m in read])
    patterns = grid.occupations[:, read_idx]
    counts = np.stack([patterns[:, group_of == k].sum(axis=1) for k in range(len(order))], axis=1)
    counts, point = distinct_rows(counts)
    own = point[:, None] == np.arange(len(counts))
    emptied = grid.occupations.copy()
    emptied[:, read_idx] = 0
    filed = GridState(registry, emptied, np.where(own, grid.amplitudes, 0j), np.where(own, grid.probabilities, 0.0))
    probs, rhos, bad = kept_pair_pass(filed, config.kept, patterns)
    table = dict(zip(map(tuple, counts.tolist()), probs.tolist()))
    rows = []
    # Rounded so that probabilities equal up to float noise tie and sort by pattern.
    for k, key in sorted(enumerate(table), key=lambda item: (-round(table[item[1]], 12), item[1])):
        prob = table[key]
        if prob < 1e-15:
            continue
        row = {"pattern": dict(zip(order, key)), "probability": prob}
        if any(key):
            off_pair = bad & (point == k)
            if off_pair.any():
                # The first bad term by pattern and occupation, as heralded_polarization_dm reports it.
                row["kept_support"] = kept_pair_violation(filed, off_pair, config.kept, patterns)
            else:
                rho = validate_density_matrix(rhos[k])
                fids = {name: fidelity(rho, vec) for name, vec in BELL_STATES.items()}
                row["fidelity"] = fids
                row["concurrence"] = concurrence(rho)
                row["dominant_bell_state"] = max(fids, key=fids.get)
        rows.append(row)
    useful = {
        "hh": (1, 0, 1, 0),
        "vv": (0, 1, 0, 1),
        "hv": (1, 0, 0, 1),
        "vh": (0, 1, 1, 0),
    }
    useful_rows = {name: table.get(key, 0.0) for name, key in useful.items()}
    report = {
        "detector_order": order,
        "patterns": rows,
        "useful_patterns": useful_rows,
        "useful_total_probability": sum(useful_rows.values()),
        "enumerated_success_probability": sum(useful_rows.values()),
        "quoted_upper_bound": 3.0 / 16.0,
        "note": SUCCESS_PROBABILITY_NOTE,
    }
    return report, None, True


def run_hom_scan(config: ExperimentConfig, params: dict, seed: int, shots: int):
    rows = scan(config, "sources.branches.0.photons.1.overlap", params["scan"])
    curve = [
        {
            "overlap": r["param"],
            "overlap_sq": r["param"] ** 2,
            "coincidence_probability": r["p_coincidence"],
        }
        for r in rows
    ]
    baseline = curve[0]["coincidence_probability"]
    # A baseline within NORM_TOL of 0 is a rounding remnant, which would make the visibility noise.
    if not baseline > NORM_TOL:
        raise PresetError(
            f"preset 'hom-scan': scan must start where the coincidence probability, the dip's baseline, is not 0; "
            f"{params['scan']!r} starts at overlap {curve[0]['overlap']!r}, where it is 0"
        )
    operating = evaluate_config(config)["p_coincidence"]
    report = {
        "scan_parameter": "source overlap of the second photon",
        "baseline_coincidence": baseline,
        "operating_overlap_sq": params["operating_overlap_sq"],
        "operating_coincidence": operating,
        "dip_visibility": 1.0 - operating / baseline,
        "points": len(curve),
    }
    columns = ["overlap", "overlap_sq", "coincidence_probability"]
    return report, (columns, curve), True


def run_fusion_delay_scan(config: ExperimentConfig, params: dict, seed: int, shots: int):
    """The delay fringe: each point's coincidence probability, the sum of
    its block's rows, which hold only what the one herald keeps; with
    shots, coincidence against the rest at every point, all drawn from
    one default_rng(seed), whatever the blocks are."""
    model = OverlapModel(**config.model)
    # Both photons of the delayed pair acquire the fringe phase.
    effective_period = model.fringe_period_um / 2.0
    curve = []
    for values, _, grid, _ in _scan_blocks(config, "elements.0.delta_um", params["delta_range"]):
        coincidences = ordered_sum(grid.probabilities).tolist()
        curve += [{"delta_um": delta, "p_coincidence": p} for delta, p in zip(values, coincidences)]
    if shots:
        p = np.array([row["p_coincidence"] for row in curve])
        (_, sampled), _ = sample_counts([("coincidence", p), ("rest", 1.0 - p)], shots, seed)
        for row, n in zip(curve, sampled):
            row.update(counts_coincidence=n, error_coincidence=math.sqrt(max(1, n)), shots=shots)
    keys = ["p_coincidence", "counts_coincidence"][: 2 if shots else 1]
    fits = fit_delay_fringe([r["delta_um"] for r in curve], [[r[key] for r in curve] for key in keys], effective_period)
    report = {
        "scan_parameter": "delay delta_um on the movable input",
        "configured_peak_visibility": params["peak_visibility"],
        "coherence_length_um": model.coherence_length_um,
        "fringe_period_um": model.fringe_period_um,
        "effective_fringe_period_um": effective_period,
        "fit_analytic": fits[0],
        "points": len(curve),
    }
    columns = ["delta_um", "p_coincidence"]
    if shots:
        report["fit_sampled"] = fits[1]
        report["shots_per_point"] = shots
        report["seed"] = seed
        columns += ["counts_coincidence", "error_coincidence", "shots"]
    return report, (columns, curve), True


def run_polarization_correlation(config: ExperimentConfig, params: dict, seed: int, shots: int):
    """Analyzer curves at b = 0 and 45 degrees; with shots, all rows drawn from one default_rng(seed)."""
    p_herald, rho = _heralded_pair(config)
    thetas = parse_range(f"0:180:{params['theta_step_deg']}")
    keys = ("p_pass_pass", "p_pass_fail", "p_fail_pass", "p_fail_fail")
    curve = [
        {"theta_b_deg": theta_b, "theta_a_deg": theta_a, **dict(zip(keys, analyzer_probabilities(rho, theta_a, theta_b)))}
        for theta_b in (0.0, 45.0)
        for theta_a in thetas
    ]
    if shots:
        names = ("pp", "pf", "fp", "ff")
        drawn = dict(sample_counts([(name, [row[key] for row in curve]) for name, key in zip(names, keys)], shots, seed))
        for j, row in enumerate(curve):
            row.update({f"counts_{name}": drawn[name][j] for name in names})
            row["error_pp"] = math.sqrt(max(1.0, drawn["pp"][j]))

    def curves(key):
        return [(thetas, [row[key] for row in curve[start : start + len(thetas)]]) for start in (0, len(thetas))]

    analytic_curves = curves("p_pass_pass")
    period = 180.0  # coincidence goes as 1 + V cos 2(theta - b)
    per_curve = []
    for xs, ys in analytic_curves:
        c0, amp, _ = fit_sinusoid(xs, ys, period)
        per_curve.append(amp / c0)
    report = {
        "herald_probability": p_herald,
        "analyzer_settings_b_deg": [0.0, 45.0],
        "per_curve_visibility_analytic": per_curve,
        "joint_visibility_analytic": joint_visibility(analytic_curves, period),
        "fidelity_phi_plus": fidelity(rho, BELL_STATES["phi_plus"]),
        "concurrence": concurrence(rho),
        "points_per_curve": len(thetas),
    }
    columns = ["theta_b_deg", "theta_a_deg", *keys]
    if shots:
        report["joint_visibility_sampled"] = joint_visibility(curves("counts_pp"), period)
        report["shots_per_point"] = shots
        report["seed"] = seed
        columns += ["counts_pp", "counts_pf", "counts_fp", "counts_ff", "error_pp"]
    return report, (columns, curve), True


def run_chsh(config: ExperimentConfig, params: dict, seed: int, shots: int):
    p_herald, rho = _heralded_pair(config)
    a, a_p, b, b_p = params["settings"]
    report_obj = chsh_S(rho, a, a_p, b, b_p, shots=shots or None, seed=seed)
    report = report_obj.to_dict()
    report["herald_probability"] = p_herald
    report["fidelity_phi_plus"] = fidelity(rho, BELL_STATES["phi_plus"])
    report["concurrence"] = concurrence(rho)
    report["fusion_overlap_sq"] = params["fusion_overlap_sq"]
    reference = params["reference"]
    if reference:
        comparison = {f"E_{key}_delta": report["E"][key] - value for key, value in reference.get("E", {}).items()}
        if "S" in reference:
            comparison["S_delta"] = report["S"] - reference["S"]
        report["reference_comparison"] = comparison
    return report, None, True


# ---------------------------------------------------------------------------
# Preset table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Preset:
    """build maps the full parameter dict to a raw config; run maps
    (config, params, seed, shots) to (report, (columns, rows) or None,
    passed).  defaults names every parameter the preset takes, besides
    `convention`; shots is the default shots, None where run draws none."""

    build: Callable[[dict], dict]
    run: Callable
    defaults: dict
    shots: int | None = None


PRESETS = {
    "eq1-check": _Preset(lambda p: two_pbs_config(), run_eq1_check, {}),
    "bell-decomposition": _Preset(lambda p: two_pbs_config(), run_bell_decomposition, {}),
    "herald-table": _Preset(
        lambda p: fusion_scheme_config(math.sqrt(p["fusion_overlap_sq"])),
        run_herald_table,
        {"fusion_overlap_sq": 1.0},
    ),
    "hom-scan": _Preset(
        lambda p: hom_config(math.sqrt(p["operating_overlap_sq"])),
        run_hom_scan,
        {"operating_overlap_sq": 0.94, "scan": "0:1:0.05"},
    ),
    "fusion-delay-scan": _Preset(
        lambda p: fusion_delay_config(p["peak_visibility"]),
        run_fusion_delay_scan,
        {"peak_visibility": 1.0, "delta_range": "-600:600:1"},
        shots=10_000,
    ),
    "polarization-correlation": _Preset(
        lambda p: polarizer_variant_config(
            fusion_overlap=math.sqrt(p["visibility"]),
            analyzer_walkoff=math.sqrt(p["visibility"]),
        ),
        run_polarization_correlation,
        {"visibility": 0.89, "theta_step_deg": 10.0},
        shots=10_000,
    ),
    "chsh": _Preset(
        lambda p: polarizer_variant_config(math.sqrt(p["fusion_overlap_sq"])),
        run_chsh,
        {"fusion_overlap_sq": 1.0, "settings": (0.0, 45.0, 22.5, 67.5), "reference": None},
        shots=0,
    ),
}

PRESET_NAMES = tuple(PRESETS)


# ---------------------------------------------------------------------------
# File emission
# ---------------------------------------------------------------------------


# Cells by exact type, bool and np.bool_ apart from int; other types go through the chain.
_CELL_FORMATS = {float: repr, np.float64: lambda x: repr(float(x)), bool: str, np.bool_: str, int: str, str: str}


def _format_cell(value) -> str:
    exact = _CELL_FORMATS.get(type(value))
    if exact:
        return exact(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _flatten_report(report, prefix: str = "") -> dict:
    """{dotted key: scalar} of a report: dict keys sorted, list items by index."""
    items = sorted(report.items()) if isinstance(report, dict) else enumerate(report)
    flat = {}
    for key, value in items:
        name = f"{prefix}{key}"
        if isinstance(value, (dict, list, tuple)):
            flat.update(_flatten_report(value, f"{name}."))
        else:
            flat[name] = value
    return flat


def report_table(report: dict):
    """A report as CSV (columns, rows): one key,value row per scalar, in JSON order."""
    return ["key", "value"], [{"key": k, "value": _format_cell(v)} for k, v in _flatten_report(report).items()]


def csv_text(columns, rows) -> str:
    """A versioned CSV: the schema line, the column header, one line per
    row.  Only a cell with a comma, quote or line break is quoted."""
    text = io.StringIO()
    text.write(f"# schema_version={SCHEMA_VERSION}\n")
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(columns)
    cells = []
    for column in ([row.get(c, "") for row in rows] for c in columns):
        types = set(map(type, column))  # one type: the column in one map, as _format_cell would
        cells.append(list(map(len(types) == 1 and _CELL_FORMATS.get(types.pop()) or _format_cell, column)))
    writer.writerows(zip(*cells))
    return text.getvalue()


def write_csv(path: Path, columns, rows):
    path.write_text(csv_text(columns, rows), encoding="utf-8")


def json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(path: Path, payload: dict):
    path.write_text(json_text(payload), encoding="utf-8")


@functools.lru_cache(maxsize=None)
def _library_versions() -> tuple:
    """(name, version) of Python and of each library a run depends on.

    Read once per process from the installed package metadata, which
    does not import the libraries.
    """
    from importlib import metadata

    versions = [("python", platform.python_version())]
    for name in ("numpy", "jsonschema"):
        try:
            versions.append((name, metadata.version(name)))
        except metadata.PackageNotFoundError:
            versions.append((name, None))
    return tuple(versions)


@dataclass
class PresetResult:
    name: str
    report: dict
    files: list
    exit_code: int


def run_preset(
    name: str,
    overrides: dict | None = None,
    out_dir=None,
    seed: int | None = None,
    shots: int | None = None,
    convention: str | None = None,
    fmt: str = "json",
) -> PresetResult:
    """Build, run, and analyze one preset; emit files when out_dir is set.

    Exit code 0 on success, 2 when a check-style preset misses its
    threshold; errors raise (the CLI maps them to exit code 1).
    """
    # numpy's multinomial draws at most 2**63 - 1 shots.
    for argument, value, most in (("seed", seed, math.inf), ("shots", shots, 2**63 - 1)):
        if value is not None and value < 0:
            raise PresetArgumentError(f"{argument} must be >= 0, got {value}")
        if value is not None and value > most:
            raise PresetArgumentError(f"{argument} must be <= {most}, got {value}")
    if shots and name in PRESETS and PRESETS[name].shots is None:
        raise PresetArgumentError(f"shots cannot be used with preset {name!r}, which draws no samples")
    params = dict(overrides or {})
    if convention:
        params["convention"] = convention
    config = build_preset_config(name, params)
    preset = PRESETS[name]
    if seed is None:
        seed = 2024
    if shots is None:
        shots = preset.shots or 0
    report, curve, ok = preset.run(config, {**preset.defaults, **params}, seed, shots)

    exit_code = 0 if ok else 2
    files = []
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if fmt == "csv":
            report_path = out / f"{name}.report.csv"
            write_csv(report_path, *report_table(report))
        else:
            report_path = out / f"{name}.report.json"
            write_json(report_path, report)
        files.append(str(report_path))
        if curve is not None:
            columns, rows = curve
            curve_path = out / f"{name}.csv"
            write_csv(curve_path, columns, rows)
            files.append(str(curve_path))
        manifest = {
            "preset": name,
            "config_name": config.name,
            "config_hash": config.config_hash(),
            "schema_version": SCHEMA_VERSION,
            "seed": seed,
            "shots": shots,
            "convention": config.convention,
            "tool_version": __version__,
            "versions": dict(_library_versions()),
            "overrides": {k: v for k, v in sorted(params.items())},
        }
        manifest_path = out / f"{name}.manifest.json"
        write_json(manifest_path, manifest)
        files.append(str(manifest_path))
    return PresetResult(name, report, files, exit_code)
