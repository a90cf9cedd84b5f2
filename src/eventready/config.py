"""Experiment configuration: JSON schema, parsing, cross-reference checks.

A config is a plain JSON document.  Validation reports every schema
violation at once, not just the first; the package decides the schema
(`_valid`) and imports jsonschema only to word the violations.  It then
checks each element against its kind's entry in
`elements.ELEMENT_KINDS`, rejects photon fields that would override each
other and photons the sources cannot prepare (unnormalized amplitudes,
an overlap above 1, more bins than the config has, more photons than the
budget, branches of different photon counts, a photon on a loss label),
checks label cross-references (element ports, loss labels, detector
groups, herald names, kept arms) against the declared spatial labels,
and refuses a shared loss label, more than `modes.MAX_MODES` modes and a
herald that zeroes a mode it requires.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import math
import numbers
import operator
from dataclasses import dataclass, field, fields

from .distinguishability import OverlapError, bins_for_reference_overlap
from .elements import ELEMENT_KINDS, PBS_CONVENTIONS, _complex, element_ports
from .fock import INPUT_NORM_TOL
from .modes import MAX_MODES

SCHEMA_VERSION = 1

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "spatial_labels", "sources"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "name": {"type": "string"},
        "spatial_labels": {
            "type": "array",
            "items": {"type": "string", "minLength": 1},
            "minItems": 1,
            "uniqueItems": True,
        },
        "bins": {"type": "integer", "minimum": 1, "maximum": 8},
        "photon_budget": {"type": "integer", "minimum": 1, "maximum": 6},
        "convention": {"enum": list(PBS_CONVENTIONS)},
        "aliases": {"type": "object", "additionalProperties": {"type": "string"}},
        "sources": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "branches": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "required": ["photons"],
                        "additionalProperties": False,
                        "properties": {
                            "amplitude": {"$ref": "#/$defs/complexish"},
                            "photons": {
                                "type": "array",
                                "minItems": 1,
                                "items": {"$ref": "#/$defs/photon"},
                            },
                        },
                    },
                }
            },
            "required": ["branches"],
        },
        "elements": {"type": "array", "items": {"$ref": "#/$defs/element"}},
        "detectors": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["spatial"],
                "additionalProperties": False,
                "properties": {
                    "spatial": {"type": "string"},
                    "pol": {"enum": ["H", "V"]},
                },
            },
        },
        "heralds": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "require"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string", "minLength": 1},
                    "require": {
                        "type": "object",
                        "minProperties": 1,
                        "additionalProperties": {"type": "integer", "minimum": 0},
                    },
                    "zero": {"type": "array", "items": {"type": "string"}},
                },
            },
        },
        "kept": {
            "type": "array",
            "items": {"type": "string"},
            "minItems": 2,
            "maxItems": 2,
            "uniqueItems": True,
        },
        "analyzers": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "theta_a_deg": {"type": "number"},
                "theta_b_deg": {"type": "number"},
            },
            "required": ["theta_a_deg", "theta_b_deg"],
        },
        "model": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "coherence_length_um": {"type": "number", "exclusiveMinimum": 0},
                "fringe_period_um": {"type": "number", "exclusiveMinimum": 0},
            },
        },
    },
    "$defs": {
        "complexish": {
            "anyOf": [
                {"type": "number"},
                {
                    "type": "array",
                    "items": {"type": "number"},
                    "minItems": 2,
                    "maxItems": 2,
                },
            ]
        },
        "photon": {
            "type": "object",
            "required": ["spatial"],
            "additionalProperties": False,
            "properties": {
                "spatial": {"type": "string"},
                "pol_angle_deg": {"type": "number"},
                "pol_amps": {
                    "type": "array",
                    "items": {"$ref": "#/$defs/complexish"},
                    "minItems": 2,
                    "maxItems": 2,
                },
                "overlap": {"$ref": "#/$defs/complexish"},
                "bins": {
                    "type": "array",
                    "items": {"$ref": "#/$defs/complexish"},
                    "minItems": 1,
                },
            },
        },
        "element": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": list(ELEMENT_KINDS)},
                "port": {"type": "string"},
                "ports": {
                    "type": "array",
                    "items": {"type": "string"},
                    "minItems": 1,
                    "maxItems": 2,
                },
                "angle_deg": {"type": "number"},
                "phi": {"type": "number"},
                "transmissivity": {"type": "number", "minimum": 0, "maximum": 1},
                "delta_um": {"type": "number"},
                "overlap": {"$ref": "#/$defs/complexish"},
                "pol": {"enum": ["H", "V"]},
                "loss": {"type": "string"},
                "bin_map": {
                    "type": "object",
                    "additionalProperties": {"type": "integer", "minimum": 0},
                },
            },
            "additionalProperties": False,
        },
    },
}


class ConfigError(ValueError):
    """Carries the full list of validation problems."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass
class ExperimentConfig:
    """A validated config.  Each field but `source_branches` (the raw
    `sources.branches`) is named after its raw key and declares its default."""

    spatial_labels: tuple
    source_branches: list
    name: str = ""
    elements: list = field(default_factory=list)
    detectors: dict = field(default_factory=dict)
    heralds: list = field(default_factory=list)
    kept: tuple | None = None
    analyzers: dict | None = None
    model: dict = field(default_factory=dict)
    bins: int = 4
    photon_budget: int = 4
    convention: str = "perm"
    aliases: dict = field(default_factory=dict)

    def __post_init__(self):
        self.spatial_labels = tuple(self.spatial_labels)
        self.kept = tuple(self.kept) if self.kept else None
        self.bins, self.photon_budget = int(self.bins), int(self.photon_budget)

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        violations = validate_config_dict(raw)
        if violations:
            raise ConfigError(violations)
        return ExperimentConfig._from_valid(copy.deepcopy(raw))

    @staticmethod
    def _from_valid(raw: dict) -> "ExperimentConfig":
        """The config of an already validated raw dict, which it keeps
        without copying."""
        return ExperimentConfig(
            source_branches=raw["sources"]["branches"],
            **{key: value for key, value in raw.items() if key in ExperimentConfig.__dataclass_fields__},
        )

    def to_dict(self) -> dict:
        """The raw config, sharing nothing with this one: `schema_version`,
        `spatial_labels` and `sources`, then every other field that is
        neither empty nor equal to its default."""
        out = {
            "schema_version": SCHEMA_VERSION,
            "spatial_labels": list(self.spatial_labels),
            "sources": {"branches": copy.deepcopy(self.source_branches)},
        }
        for f in fields(self)[2:]:  # after spatial_labels and source_branches
            value = getattr(self, f.name)
            if value and value != f.default:
                out[f.name] = list(value) if isinstance(value, tuple) else copy.deepcopy(value)
        return out

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _element_violations(path: str, el: dict):
    """Unread fields, missing fields and port problems of one element, from its kind's entry."""
    name = el["kind"]
    kind = ELEMENT_KINDS[name]
    fields = ("kind", "port", "ports", *kind.required, *kind.optional)
    problems = [f"{path}.{key}: not a field of {name}" for key in el if key not in fields]
    problems += [f"{path}.{key}: {name} needs {key}" for key in kind.required if key not in el]
    if "port" in el and "ports" in el:
        problems.append(f"{path}: set port or ports, not both")
    ports = element_ports(el)
    if len(ports) != kind.ports or len(set(ports)) != kind.ports:
        needs = ("one port", "two distinct ports")[kind.ports - 1]
        where = "ports" if "ports" in el else "port"
        problems.append(f"{path}.{where}: {name} needs {needs}, got {ports}")
    return problems


def _photon_violations(path: str, photon: dict, bins: int):
    """Unnormalized amplitudes, an overlap above 1 and too many bins, which
    the sources would otherwise reject without a JSON path."""
    problems = []
    for key, what in (("pol_amps", "polarization"), ("bins", "bin")):
        if key in photon:
            norm = math.hypot(*(part for c in photon[key] for part in (c if isinstance(c, list) else [c])))
            if abs(norm - 1.0) > INPUT_NORM_TOL:
                problems.append(f"{path}.{key}: {what} amplitudes not normalized (norm {norm:.3e})")
    if "bins" in photon:
        key, used = "bins", photon["bins"]
    else:
        key = "overlap"
        try:
            used = bins_for_reference_overlap(_complex(photon.get("overlap", 1.0)))
        except OverlapError as exc:
            return problems + [f"{path}.overlap: {exc}"]
    if len(used) > bins:
        problems.append(f"{path}.{key}: uses {len(used)} bins, the config has {bins}")
    return problems


def _cross_reference_violations(raw: dict):
    """Checks that need a schema-valid config: field combinations, photon
    amplitudes and labels."""
    labels = set(raw.get("spatial_labels", []))
    budget = raw.get("photon_budget", ExperimentConfig.photon_budget)
    bins = raw.get("bins", ExperimentConfig.bins)
    problems = []
    modes = 2 * bins * len(labels)
    if modes > MAX_MODES:
        where = "bins" if "bins" in raw else "spatial_labels"
        problems.append(f"$.{where}: {len(labels)} spatial labels at {bins} bins would hold {modes} modes, cap is {MAX_MODES}")
    elements = raw.get("elements", [])
    # Each loss label's first element, which alone it serves; it starts in vacuum.
    owners = {el["loss"]: i for i, el in reversed(list(enumerate(elements))) if "loss" in el}
    branches = raw.get("sources", {}).get("branches", [])
    counts = [len(branch.get("photons", [])) for branch in branches]
    for b, branch in enumerate(branches):
        photons = branch.get("photons", [])
        if len(photons) > budget:
            problems.append(f"$.sources.branches.{b}.photons: {len(photons)} photons exceed the budget of {budget}")
        if counts[b] != counts[0]:
            problems.append(f"$.sources.branches.{b}.photons: {counts[b]} photons, branch 0 has {counts[0]}")
        for p, photon in enumerate(photons):
            path = f"$.sources.branches.{b}.photons.{p}"
            for first, second in (("pol_amps", "pol_angle_deg"), ("bins", "overlap")):
                if first in photon and second in photon:
                    problems.append(f"{path}: set {first} or {second}, not both")
            problems.extend(_photon_violations(path, photon, bins))
            s = photon.get("spatial")
            if s not in labels:
                problems.append(f"{path}.spatial: dangling label {s!r}")
            elif s in owners:
                problems.append(f"{path}.spatial: loss label {s!r} must start in vacuum")
    for i, el in enumerate(elements):
        problems.extend(_element_violations(f"$.elements.{i}", el))
        for port in element_ports(el):
            if port not in labels:
                problems.append(f"$.elements.{i}: dangling label {port!r}")
        loss = el.get("loss")
        if loss is not None and loss not in labels:
            problems.append(f"$.elements.{i}.loss: dangling label {loss!r}")
        if loss is not None and owners[loss] != i:
            problems.append(f"$.elements.{i}.loss: duplicate loss label {loss!r}")
    detectors = raw.get("detectors", {})
    # The (label, polarization) pairs each detector reads, in every bin.
    reads = {name: {(d["spatial"], pol) for pol in d.get("pol", "HV")} for name, d in detectors.items()}
    for name, det in detectors.items():
        if det.get("spatial") not in labels:
            problems.append(f"$.detectors.{name}.spatial: dangling label {det.get('spatial')!r}")
    for i, herald_spec in enumerate(raw.get("heralds", [])):
        require, zero = herald_spec.get("require", {}), herald_spec.get("zero", [])
        for where, names in (("require", require), ("zero", zero)):
            problems += [f"$.heralds.{i}.{where}: unknown detector {key!r}" for key in names if key not in detectors]
        # A zeroed mode that a requirement also counts would be read as required only.
        problems += [
            f"$.heralds.{i}.zero: detector {key!r} shares modes with required detector {other!r}"
            for key in zero
            for other in require
            if key in detectors and other in detectors and reads[key] & reads[other]
        ]
    for arm in raw.get("kept", []) or []:
        if arm not in labels:
            problems.append(f"$.kept: dangling label {arm!r}")
    return problems


def _non_finite_violations(value, path: str = "$"):
    """NaN, infinities and integers too large for a float, which JSON
    parsing and the schema's "number" accept."""
    if isinstance(value, float):
        return [] if math.isfinite(value) else [f"{path}: non-finite number"]
    if isinstance(value, int) and not isinstance(value, bool):
        try:
            float(value)
        except OverflowError:
            return [f"{path}: integer too large for a float"]
        return []
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    return [p for key, item in items for p in _non_finite_violations(item, f"{path}.{key}")]


# Draft 2020-12's types: a bool is neither a number nor an integer, and an integral float is an integer.
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
    "integer": lambda x: isinstance(x, int) and not isinstance(x, bool) or isinstance(x, float) and x.is_integer(),
}
# The bound keywords, each as the comparison that breaks it; a bound reads numbers only.
_BREAKS = {"minimum": operator.lt, "maximum": operator.gt, "exclusiveMinimum": operator.le}


def _same(a, b) -> bool:
    """JSON equality, as enum, const and uniqueItems read it: True is not 1, 1 is 1.0."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)
    return a is b or (isinstance(a, bool) == isinstance(b, bool) and a == b)


def _resolved(schema: dict) -> dict:
    """schema, or the CONFIG_SCHEMA $defs entry its $ref names."""
    return CONFIG_SCHEMA["$defs"][schema["$ref"].rsplit("/", 1)[1]] if "$ref" in schema else schema


def _valid(value, schema: dict = CONFIG_SCHEMA) -> bool:
    """Whether value meets schema, a part of CONFIG_SCHEMA, as a Draft 2020-12
    validator decides it, for each keyword CONFIG_SCHEMA uses."""
    schema = _resolved(schema)
    if (
        "type" in schema and not _TYPES[schema["type"]](value)
        or "anyOf" in schema and not any(_valid(value, option) for option in schema["anyOf"])
        or "enum" in schema and not any(_same(value, option) for option in schema["enum"])
        or "const" in schema and not _same(value, schema["const"])
    ):
        return False
    if _TYPES["number"](value):
        return not any(breaks(value, schema[key]) for key, breaks in _BREAKS.items() if key in schema)
    if isinstance(value, str):
        return len(value) >= schema.get("minLength", 0)
    if isinstance(value, dict):
        properties, other = schema.get("properties", {}), schema.get("additionalProperties", {})
        subs = [(item, properties.get(key, other)) for key, item in value.items()]
        return (
            len(value) >= schema.get("minProperties", 0)
            and all(key in value for key in schema.get("required", ()))
            and all(sub is not False and _valid(item, sub) for item, sub in subs)
        )
    if isinstance(value, list):
        return (
            schema.get("minItems", 0) <= len(value) <= schema.get("maxItems", len(value))
            and not (schema.get("uniqueItems") and any(_same(a, b) for i, a in enumerate(value) for b in value[:i]))
            and all(_valid(item, schema.get("items", {})) for item in value)
        )
    return True


@functools.lru_cache(maxsize=None)
def _validator():
    """jsonschema's validator, which words a refused config's violations, built once per process."""
    import jsonschema

    return jsonschema.Draft202012Validator(CONFIG_SCHEMA)


def validate_config_dict(raw: dict):
    """Every schema violation, non-finite number and cross-reference problem, as strings."""
    problems = []
    if not _valid(raw):
        for err in sorted(_validator().iter_errors(raw), key=lambda e: list(e.absolute_path)):
            problems.append(f"${''.join(f'.{key}' for key in err.absolute_path)}: {err.message}")
    problems.extend(_non_finite_violations(raw))
    if not problems:
        problems.extend(_cross_reference_violations(raw))
    return problems


def _with_leaves(node, leaves, value):
    """A copy of the raw config node with value at each leaf (a list of
    keys); every subtree off those paths is shared, not copied."""
    for key, *rest in leaves:
        node = dict(node) if isinstance(node, dict) else list(node)
        node[key] = _with_leaves(node[key], [rest], value) if rest else value
    return node


def _subschema(keys):
    """The part of CONFIG_SCHEMA that checks a number at keys: any number
    for a complex number or a part of one, {} past a key the schema does
    not know."""
    schema = CONFIG_SCHEMA
    for key in keys:
        schema = _resolved(schema)
        if "anyOf" in schema:
            break
        if key in schema.get("properties", {}):
            schema = schema["properties"][key]
        elif isinstance(schema.get("additionalProperties"), dict):
            schema = schema["additionalProperties"]
        else:
            schema = schema.get("items", {})
    schema = _resolved(schema)
    return {"type": "number"} if "anyOf" in schema else schema


class LeafCheck:
    """Whether validate_config_dict accepts a raw config that differs from
    a valid one only in the values at some leaves, each given as its list
    of keys.  A leaf absent from the valid config must have been accepted
    at one value, so that every point has the same keys.

    The schema has no constraint between fields, so a schema error can sit
    only at a changed leaf: each value is checked against each leaf's
    subschema, resolved once, and for finiteness.  Of the cross-reference
    checks, only those of photons, `photon_budget` and `bins` read a
    value, and each holds on an interval of magnitudes; where a leaf is
    one of those, _cross_reference_violations runs again at the values of
    least and greatest magnitude.  The others read keys, labels and ports,
    which every point shares with the valid config.  Where every leaf's
    subschema is a plain bounded number, its bounds are checked at the
    least and greatest value only.
    """

    def __init__(self, leaves):
        self._leaves = leaves = [tuple(keys) for keys in leaves]
        self._schemas = schemas = [_subschema(keys) for keys in leaves]
        self._integers = [keys for keys, schema in zip(leaves, schemas) if schema.get("type") == "integer"]
        bounds = {"type", "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum"}
        self._interval = all(s.get("type") in ("number", "integer") and set(s) <= bounds for s in schemas)
        self._cross = any(
            keys in (("photon_budget",), ("bins",)) or (keys[:2] == ("sources", "branches") and keys[3:4] == ("photons",))
            for keys in leaves
        )

    def at(self, raw: dict, value: float) -> dict:
        """raw with value at every leaf, as a config file holds it: an
        integral value is an int at a leaf the schema types `integer`."""
        plain = [keys for keys in self._leaves if keys not in self._integers]
        return _with_leaves(_with_leaves(raw, plain, value), self._integers, int(value) if value % 1 == 0 else value)

    def passes(self, values, raw: dict) -> bool:
        """Whether validate_config_dict accepts raw with each of values at every leaf."""
        checked = (min(values), max(values)) if self._interval else values
        magnitudes = {min(values, key=abs), max(values, key=abs)} if self._cross else ()
        return (
            not any(_non_finite_violations(x) for x in values)
            and (not self._integers or all(x % 1 == 0 for x in values))
            and all(_valid(x, schema) for x in checked for schema in self._schemas)
            and not any(_cross_reference_violations(self.at(raw, x)) for x in magnitudes)
        )


def parse_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"JSON parse error: {exc}"]) from exc
    return ExperimentConfig.from_dict(raw)


def schema_json() -> str:
    """The published config schema, as formatted JSON."""
    return json.dumps(CONFIG_SCHEMA, indent=2, sort_keys=True)
