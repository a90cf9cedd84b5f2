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
    outcome_distribution,
    sample_counts,
    validate_density_matrix,
)
from .analysis import group_herald_outcomes  # noqa: F401 -- unused, bench/tracing.py wraps it here
from .circuit import ScanCircuit, compile_circuit, run
from .config import SCHEMA_VERSION, ConfigError, ExperimentConfig, LeafCheck
from .distinguishability import OverlapModel
from .fock import GridState, PureState, basis_state, inner_product, kept_pair_pass, superpose
from .modes import H, V, ModeId

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


# A scan evolves its grid in blocks of this many points, which bounds its
# memory; a grid may hold at most MAX_SCAN_POINTS points.
SCAN_BLOCK = 64
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


# Squared overlaps and visibilities: the builders take their square roots.
_NON_NEGATIVE_PARAMS = ("fusion_overlap_sq", "operating_overlap_sq", "peak_visibility", "visibility")


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
    any other key, a negative squared overlap or visibility, chsh
    settings that are not four finite angles, or a chsh reference that is
    not null or a dict of finite 'S' and 'E' values, raises PresetError
    before a config is built.
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
        if key in _NON_NEGATIVE_PARAMS and not (isinstance(value, (int, float)) and value >= 0):
            raise PresetError(f"preset {name!r}: {key} must be a number >= 0, got {value!r}")
    settings = full.get("settings", (0.0,) * 4)
    if not (isinstance(settings, (list, tuple)) and len(settings) == 4 and all(map(_is_finite, settings))):
        raise PresetError(f"preset {name!r}: settings must be four angles (a, a', b, b'), got {settings!r}")
    reference = full.get("reference")
    if reference is not None and not _is_chsh_reference(reference):
        raise PresetError(
            f"preset {name!r}: reference must be null or a dict with a finite 'S' "
            f"and an 'E' dict of finite numbers, got {reference!r}"
        )
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
    """(herald probability, kept-pair polarization rho) under the first herald."""
    circuit = compile_circuit(config)
    state = run(circuit)
    groups = _detector_groups(circuit.registry, config.detectors)
    requirements, read = _herald_request(groups, config.heralds[0])
    return heralded_polarization_dm(state, requirements, read, config.kept)


def evaluate_config(config: ExperimentConfig) -> dict:
    """Run one config and report every applicable observable."""
    circuit = compile_circuit(config)
    state = GridState.broadcast(run(circuit), 1)
    return _observables([config], state, _detector_groups(circuit.registry, config.detectors))[0]


def _observables(points: list, state: GridState, groups: dict) -> list:
    """Every applicable observable of each point (config) of a block, from
    the GridState of their final states, in one pass per distinct herald
    spec.  Where the first herald cannot fire, or fires on terms off the
    kept pair, fidelities read NaN and there are no analyzer keys."""
    rows = [{} for _ in points]
    first = [(0.0, None)] * len(points)  # (probability, rho) under the first herald
    kept = points[0].kept
    for k in range(len(points[0].heralds)):
        passes = {}  # herald spec, as JSON: (probability, rho, bad terms) over the block
        for j, point in enumerate(points):
            spec = point.heralds[k]
            key = json.dumps(spec, sort_keys=True)
            if key not in passes:
                terms = herald_terms(state, *_herald_request(groups, spec))
                if kept:
                    passes[key] = kept_pair_pass(state.registry, terms, kept)
                else:
                    passes[key] = sum(abs(amp) ** 2 for *_, amp in terms), None, []
            prob, rho, bad = passes[key]
            p = float(np.broadcast_to(prob, len(points))[j])
            rows[j][f"p_{spec['name']}"] = p
            if k == 0 and kept and p > 0 and not any(amp[j] for *_, amp in bad):
                first[j] = (p, validate_density_matrix(rho[j]))
    valid = []  # the points with a rho
    for j, (obs, point, (_, rho)) in enumerate(zip(rows, points, first)):
        if rho is not None:
            valid.append(j)
        elif kept and point.heralds:
            obs.update(dict.fromkeys([*(f"fidelity_{name}" for name in BELL_STATES), "concurrence"], math.nan))
    if not valid:
        return rows
    # Each figure of merit once over the stack of rhos, and the analyzer
    # probabilities once per distinct setting.
    rhos = np.stack([first[j][1] for j in valid])
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
    # Compared as a float: a span too wide for an int is inf here, not an OverflowError.
    steps = (stop - start) / step + 1e-9
    if steps >= MAX_SCAN_POINTS:
        raise PresetError(f"range {spec!r} yields more than {MAX_SCAN_POINTS} points")
    n = int(math.floor(steps)) + 1
    if n < 2:
        raise PresetError(f"range {spec!r} yields fewer than 2 points")
    values = [start + i * step for i in range(n)]
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


def _path_keys(raw: dict, path: str) -> list:
    """The keys and indices of a scan path, which must name a numeric field of raw."""
    *parents, leaf = path.split(".")
    keys, node = [], raw
    for part in parents:
        keys.append(_path_key(node, part, path))
        node = node[keys[-1]]
    keys.append(_path_key(node, leaf, path, leaf=True))
    # An absent leaf is allowed: optional numeric fields (e.g. a photon's
    # overlap) default away when 1.0; schema validation rejects junk keys.
    current = node.get(keys[-1], 0.0) if isinstance(node, dict) else node[keys[-1]]
    if not isinstance(current, (int, float)) or isinstance(current, bool):
        raise PresetError(f"scan path {path!r} does not address a numeric field")
    return keys


def _with_leaf(node, keys, value):
    """A copy of node with the field at keys set to value; every subtree
    off that path is shared, not copied."""
    key, *rest = keys
    out = dict(node) if isinstance(node, dict) else list(node)
    out[key] = _with_leaf(node[key], rest, value) if rest else value
    return out


def _scan_blocks(config: ExperimentConfig, path: str, range_spec: str):
    """Yield (values, point configs, GridState, detector groups) for each
    block of at most SCAN_BLOCK points of scan()'s grid.

    The first point is validated in full and compiled into a ScanCircuit,
    which reads from the scan's leaves what each point changes.  Every
    later point has only its scanned leaves checked (LeafCheck) and
    re-lowers the elements and re-reads the branches those leaves lie
    under; their unitarity is checked with the block, before any error of
    a later point is raised.  In a `bins` or `photon_budget` scan every
    point has its own registry, so it is compiled again and starts a new
    block.
    """
    values = parse_range(range_spec)
    paths = [p.strip() for p in path.split(",") if p.strip()]
    if not paths:
        raise PresetError("scan needs at least one parameter path")
    base = config.to_dict()
    leaves = [_path_keys(base, p) for p in paths]
    check = grid = None
    block: list = []
    for value in values:
        raw = base
        for keys in leaves:
            raw = _with_leaf(raw, keys, value)
        changes = None  # until the point has a compiled registry
        if check is None:
            point = ExperimentConfig.from_dict(raw)
            check = LeafCheck(leaves)
        else:
            try:
                violations = check(raw)
                if violations:
                    raise ConfigError(violations)
                point = ExperimentConfig._from_valid(raw)
                if not grid.own_registry:
                    changes = grid.changes(point)
            except ValueError:
                # Errors come in grid order: a non-unitary point of the block first.
                grid.require_unitary([c for _, _, c in block])
                raise
        if block and (changes is None or len(block) == SCAN_BLOCK):
            yield _evolve_block(grid, block, groups)
            block = []
        if changes is None:
            grid = ScanCircuit(compile_circuit(point), point, leaves)
            groups = _detector_groups(grid.circuit.registry, point.detectors)
            changes = ({}, {})
        block.append((value, point, changes))
    yield _evolve_block(grid, block, groups)


def _evolve_block(grid: ScanCircuit, block: list, groups: dict):
    values, points, changes = zip(*block)
    return values, points, grid.evolve(changes), groups


def scan(config: ExperimentConfig, path: str, range_spec: str):
    """One observable row per parameter value, in ascending order.

    Several comma-separated paths move together through the same values,
    e.g. both photons of a delayed pair sharing one overlap.
    """
    rows = []
    for values, points, grid, groups in _scan_blocks(config, path, range_spec):
        rows += [{"param": value, **obs} for value, obs in zip(values, _observables(points, grid, groups))]
    return rows


def _group_counts(state, groups: dict, order) -> dict:
    """{photon count per detector group, in `order`: probability}.

    For a GridState each probability is an array over its points, 0 where
    no term of that count survives.
    """
    read = tuple(m for name in order for m in groups[name])
    modes = sorted(set(read))  # the order of outcome_distribution's patterns
    position = {m: order.index(name) for name in order for m in groups[name]}
    table: dict = {}
    for pattern, prob in outcome_distribution(state, read):
        counts = [0] * len(order)
        for m, c in zip(modes, pattern):
            counts[position[m]] += c
        key = tuple(counts)
        table[key] = table.get(key, 0.0) + prob
    return table


# ---------------------------------------------------------------------------
# Preset pipelines
# ---------------------------------------------------------------------------


def _bell_pair_state(registry, arms, which) -> PureState:
    a, b = arms
    sign = -1.0 if which.endswith("minus") else 1.0
    if which.startswith("phi"):
        kets = [((H, H), 1.0), ((V, V), sign)]
    else:
        kets = [((H, V), 1.0), ((V, H), sign)]
    states = [
        basis_state(registry, {ModeId(a, pa, 0): 1, ModeId(b, pb, 0): 1})
        for (pa, pb), _ in kets
    ]
    return superpose(states, [amp for _, amp in kets])


def _pair_product(registry, state1: PureState, state2: PureState) -> PureState:
    """Product of two two-photon states on disjoint arms."""
    terms = {}
    for occ1, a1 in state1.terms.items():
        for occ2, a2 in state2.terms.items():
            merged = tuple(x + y for x, y in zip(occ1, occ2))
            terms[merged] = terms.get(merged, 0.0j) + a1 * a2
    return PureState(registry, terms)


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
    state = run(circuit)
    registry = circuit.registry
    # Restrict to one photon in each arm and renormalize.
    arm_groups = {s: registry.group(s) for s in ("A1", "A2", "B1", "B2")}
    kept = {
        occ: amp
        for occ, amp in state.terms.items()
        if all(state.count_in(occ, g) == 1 for g in arm_groups.values())
    }
    projected = PureState(registry, dict(kept)).normalized()
    bells = ["psi_plus", "psi_minus", "phi_plus", "phi_minus"]
    pieces = [
        _pair_product(
            registry,
            _bell_pair_state(registry, ("A2", "B2"), name),
            _bell_pair_state(registry, ("A1", "B1"), name),
        )
        for name in bells
    ]
    recomposed = superpose(pieces, [0.5] * 4, normalize=False)
    diff = superpose([projected, recomposed], [1.0, -1.0], normalize=False)
    residual = diff.norm()
    overlap = inner_product(projected, recomposed)
    passed = residual < 1e-12
    report = {
        "check": "Bell-basis re-expansion of the post-beamsplitter state",
        "convention": config.convention,
        "projected_norm_sq": sum(abs(a) ** 2 for a in kept.values()),
        "residual_norm": residual,
        "overlap": [overlap.real, overlap.imag],
        "threshold": 1e-12,
        "bell_terms": bells,
        "passed": passed,
    }
    return report, None, passed


def run_herald_table(config: ExperimentConfig, params: dict, seed: int, shots: int):
    circuit = compile_circuit(config)
    state = run(circuit)
    registry = circuit.registry
    groups = _detector_groups(registry, config.detectors)
    order = ["D1h", "D1v", "D2h", "D2v"]
    table = _group_counts(state, groups, order)
    # Each term filed once under its counts, as herald_terms would keep it
    # for a herald requiring exactly those counts.
    read = sorted({m for name in order for m in groups[name]})
    read_idx = [registry.index(m) for m in read]
    group_of = [next(k for k, name in enumerate(order) if m in groups[name]) for m in read]
    unread = [i not in read_idx for i in range(registry.size)]
    terms: dict = {}
    for occ, amp in state.terms.items():
        pattern = tuple(occ[i] for i in read_idx)
        counts = tuple(sum(c for g, c in zip(group_of, pattern) if g == k) for k in range(len(order)))
        emptied = tuple(n * keep for n, keep in zip(occ, unread))
        terms.setdefault(counts, []).append((pattern, emptied, amp))
    rows = []
    # Rounded so that probabilities equal up to float noise tie and sort by pattern.
    for key in sorted(table, key=lambda k: (-round(table[k], 12), k)):
        prob = table[key]
        if prob < 1e-15:
            continue
        row = {"pattern": dict(zip(order, key)), "probability": prob}
        if any(key):
            _, rho, bad = kept_pair_pass(registry, terms[key], config.kept)
            if bad:
                # The first bad term by pattern, as heralded_polarization_dm reports it.
                row["kept_support"] = min(bad, key=lambda term: term[0])[1]
            else:
                rho = validate_density_matrix(rho)
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
    operating = evaluate_config(config)["p_coincidence"]
    report = {
        "scan_parameter": "source overlap of the second photon",
        "baseline_coincidence": baseline,
        "operating_overlap_sq": params["operating_overlap_sq"],
        "operating_coincidence": operating,
        "dip_visibility": 1.0 - operating / baseline if baseline else float("nan"),
        "points": len(curve),
    }
    columns = ["overlap", "overlap_sq", "coincidence_probability"]
    return report, (columns, curve), True


def run_fusion_delay_scan(config: ExperimentConfig, params: dict, seed: int, shots: int):
    model = OverlapModel(**config.model)
    # Both photons of the delayed pair acquire the fringe phase.
    effective_period = model.fringe_period_um / 2.0
    curve = []
    for values, _, grid, groups in _scan_blocks(config, "elements.0.delta_um", params["delta_range"]):
        table = {key: p.tolist() for key, p in _group_counts(grid, groups, ("D1", "D2")).items()}
        for k, delta in enumerate(values):
            counts = {key: p[k] for key, p in table.items() if p[k] > 0}
            row = {"delta_um": delta, "p_coincidence": counts.get((1, 1), 0.0)}
            if shots:
                i = len(curve)
                n = dict(sample_counts(sorted(counts.items()), shots, seed + i)).get((1, 1), 0)
                row["counts_coincidence"] = n
                row["error_coincidence"] = math.sqrt(max(1, n))
                row["shots"] = shots
            curve.append(row)
    deltas = [r["delta_um"] for r in curve]
    fit_analytic = fit_delay_fringe(
        deltas, [r["p_coincidence"] for r in curve], effective_period
    )
    report = {
        "scan_parameter": "delay delta_um on the movable input",
        "configured_peak_visibility": params["peak_visibility"],
        "coherence_length_um": model.coherence_length_um,
        "fringe_period_um": model.fringe_period_um,
        "effective_fringe_period_um": effective_period,
        "fit_analytic": fit_analytic,
        "points": len(curve),
    }
    columns = ["delta_um", "p_coincidence"]
    if shots:
        fit_sampled = fit_delay_fringe(
            deltas, [r["counts_coincidence"] for r in curve], effective_period
        )
        report["fit_sampled"] = fit_sampled
        report["shots_per_point"] = shots
        report["seed"] = seed
        columns += ["counts_coincidence", "error_coincidence", "shots"]
    return report, (columns, curve), True


def run_polarization_correlation(config: ExperimentConfig, params: dict, seed: int, shots: int):
    p_herald, rho = _heralded_pair(config)
    thetas = parse_range(f"0:180:{params['theta_step_deg']}")
    curve = []
    analytic_curves = []
    sampled_curves = []
    for curve_idx, theta_b in enumerate((0.0, 45.0)):
        xs, ys, ys_counts = [], [], []
        for j, theta_a in enumerate(thetas):
            pp, pf, fp, ff = analyzer_probabilities(rho, theta_a, theta_b)
            row = {
                "theta_b_deg": theta_b,
                "theta_a_deg": theta_a,
                "p_pass_pass": pp,
                "p_pass_fail": pf,
                "p_fail_pass": fp,
                "p_fail_fail": ff,
            }
            if shots:
                outcomes = sample_counts(
                    [("pp", pp), ("pf", pf), ("fp", fp), ("ff", ff)],
                    shots,
                    seed + 1000 * curve_idx + j,
                )
                counts = dict(outcomes)
                row.update(
                    {
                        "counts_pp": counts["pp"],
                        "counts_pf": counts["pf"],
                        "counts_fp": counts["fp"],
                        "counts_ff": counts["ff"],
                        "error_pp": math.sqrt(max(1.0, counts["pp"])),
                    }
                )
                ys_counts.append(counts["pp"])
            xs.append(theta_a)
            ys.append(pp)
            curve.append(row)
        analytic_curves.append((xs, ys))
        if shots:
            sampled_curves.append((xs, ys_counts))
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
    columns = [
        "theta_b_deg",
        "theta_a_deg",
        "p_pass_pass",
        "p_pass_fail",
        "p_fail_pass",
        "p_fail_fail",
    ]
    if shots:
        report["joint_visibility_sampled"] = joint_visibility(sampled_curves, period)
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
        comparison = {}
        for key, value in reference.get("E", {}).items():
            if key in report["E"]:
                comparison[f"E_{key}_delta"] = report["E"][key] - value
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
    `convention`."""

    build: Callable[[dict], dict]
    run: Callable
    defaults: dict
    shots: int = 0


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
    ),
}

PRESET_NAMES = tuple(PRESETS)


# ---------------------------------------------------------------------------
# File emission
# ---------------------------------------------------------------------------


def _format_cell(value) -> str:
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
    writer.writerows([_format_cell(row.get(c, "")) for c in columns] for row in rows)
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
    does not import the libraries (scipy takes longest to import).
    """
    from importlib import metadata

    versions = [("python", platform.python_version())]
    for name in ("numpy", "scipy", "jsonschema"):
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
    for argument, value in (("seed", seed), ("shots", shots)):
        if value is not None and value < 0:
            raise PresetArgumentError(f"{argument} must be >= 0, got {value}")
    params = dict(overrides or {})
    if convention:
        params["convention"] = convention
    config = build_preset_config(name, params)
    preset = PRESETS[name]
    if seed is None:
        seed = 2024
    if shots is None:
        shots = preset.shots
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
