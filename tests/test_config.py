import copy
import json
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from eventready import ConfigError, ExperimentConfig, parse_config, schema_json
from eventready.cli import build_parser
from eventready.config import _TYPES, CONFIG_SCHEMA, LeafCheck, _subschema, _valid, validate_config_dict
from eventready.elements import PBS_CONVENTIONS
from eventready.presets import (
    PRESET_NAMES,
    build_preset_config,
    fusion_delay_config,
    fusion_scheme_config,
    json_text,
    polarizer_variant_config,
    two_pbs_config,
)


MINIMAL = {
    "schema_version": 1,
    "spatial_labels": ["A1"],
    "sources": {"branches": [{"photons": [{"spatial": "A1", "pol_angle_deg": 45.0}]}]},
    "detectors": {"D": {"spatial": "A1"}},
}


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


class TestParseConfig:
    def test_minimal_config_parses(self, tmp_path):
        config = parse_config(write_config(tmp_path, MINIMAL))
        assert config.spatial_labels == ("A1",)
        assert config.detectors["D"]["spatial"] == "A1"

    def test_absent_fields_take_the_field_defaults_and_to_dict_leaves_them_out(self):
        declared = {f.name: f.default for f in fields(ExperimentConfig)}
        defaults = {name: declared[name] for name in ("bins", "photon_budget", "convention")}
        assert defaults == {"bins": 4, "photon_budget": 4, "convention": "perm"}
        config = ExperimentConfig.from_dict(MINIMAL)
        assert {name: getattr(config, name) for name in defaults} == defaults
        assert config.to_dict() == MINIMAL
        assert ExperimentConfig.from_dict({**MINIMAL, **defaults}).to_dict() == MINIMAL
        changed = {**MINIMAL, "bins": 5, "photon_budget": 3, "convention": "i-reflect"}
        assert ExperimentConfig.from_dict(changed).to_dict() == changed

    def test_string_angle_is_schema_violation_with_path(self, tmp_path):
        raw = json.loads(json.dumps(MINIMAL))
        raw["elements"] = [{"kind": "hwp", "port": "A1", "angle_deg": "ninety"}]
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, raw))
        messages = err.value.violations
        assert any("angle_deg" in m and "ninety" in m for m in messages)
        assert any("$.elements" in m for m in messages)

    def test_all_violations_reported_not_just_first(self, tmp_path):
        raw = json.loads(json.dumps(MINIMAL))
        raw["elements"] = [
            {"kind": "hwp", "port": "A1", "angle_deg": "ninety"},
            {"kind": "pbs", "ports": ["A1", "A1"], "angle_deg": True},
        ]
        raw["bins"] = "four"
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, raw))
        assert len(err.value.violations) >= 3

    def test_dangling_label_reported(self, tmp_path):
        raw = json.loads(json.dumps(MINIMAL))
        raw["elements"] = [{"kind": "hwp", "port": "Z9", "angle_deg": 0.0}]
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, raw))
        assert err.value.violations == ["$.elements.0: dangling label 'Z9'"]

    @pytest.mark.parametrize(
        "element, photons, message",
        [
            pytest.param(
                {"kind": "pbs", "ports": ["A1", "A2"], "angle_deg": 30.0},
                None,
                "$.elements.0.angle_deg: not a field of pbs",
                id="pbs-angle",
            ),
            pytest.param(
                {"kind": "polarizer", "port": "A1", "angle_deg": 0.0, "loss": "A2", "transmissivity": 0.5},
                None,
                "$.elements.0.transmissivity: not a field of polarizer",
                id="polarizer-transmissivity",
            ),
            pytest.param(
                {"kind": "hwp", "port": "A1", "ports": ["A2"], "angle_deg": 0.0},
                None,
                "$.elements.0: set port or ports, not both",
                id="port-and-ports",
            ),
            pytest.param(
                {"kind": "hwp", "port": "A1"},
                None,
                "$.elements.0.angle_deg: hwp needs angle_deg",
                id="hwp-no-angle",
            ),
            pytest.param(
                {"kind": "pbs", "ports": ["A1"]},
                None,
                "$.elements.0.ports: pbs needs two distinct ports, got ['A1']",
                id="pbs-one-port",
            ),
            pytest.param(
                {"kind": "pbs", "ports": ["A1", "A1"]},
                None,
                "$.elements.0.ports: pbs needs two distinct ports, got ['A1', 'A1']",
                id="pbs-repeated-port",
            ),
            pytest.param(
                None,
                [{"spatial": "A1", "pol_angle_deg": 45.0, "pol_amps": [1.0, 0.0]}],
                "$.sources.branches.0.photons.0: set pol_amps or pol_angle_deg, not both",
                id="pol-amps-and-angle",
            ),
            pytest.param(
                None,
                [{"spatial": "A1", "pol_angle_deg": 45.0, "bins": [1.0], "overlap": 0.5}],
                "$.sources.branches.0.photons.0: set bins or overlap, not both",
                id="bins-and-overlap",
            ),
            pytest.param(
                None,
                [{"spatial": "A1"}, {"spatial": "A2", "overlap": 1.2}],
                "$.sources.branches.0.photons.1.overlap: overlap magnitude 1.2 exceeds 1",
                id="overlap-above-one",
            ),
            pytest.param(
                None,
                [{"spatial": "A1"}, {"spatial": "A2", "bins": [0]}],
                "$.sources.branches.0.photons.1.bins: bin amplitudes not normalized (norm 0.000e+00)",
                id="bins-zero",
            ),
            pytest.param(
                None,
                [{"spatial": "A1"}, {"spatial": "A2", "pol_amps": [0, 0]}],
                "$.sources.branches.0.photons.1.pol_amps: "
                "polarization amplitudes not normalized (norm 0.000e+00)",
                id="pol-amps-zero",
            ),
            pytest.param(
                None,
                [{"spatial": "A1"}, {"spatial": "A2", "pol_amps": [1e308, 1e308]}],
                "$.sources.branches.0.photons.1.pol_amps: "
                "polarization amplitudes not normalized (norm 1.414e+308)",
                id="pol-amps-past-float-range",
            ),
            pytest.param(
                None,
                [{"spatial": "A1"}, {"spatial": "A2", "bins": [[1e308, 1e308]]}],
                "$.sources.branches.0.photons.1.bins: bin amplitudes not normalized (norm 1.414e+308)",
                id="bins-past-float-range",
            ),
            pytest.param(
                None,
                [{"spatial": "A1"}, {"spatial": "A2", "bins": [0.6, 0.8, 0, 0, 0]}],
                "$.sources.branches.0.photons.1.bins: uses 5 bins, the config has 4",
                id="more-bins-than-config",
            ),
            pytest.param(
                None,
                [{"spatial": "A1"}] * 3 + [{"spatial": "A2"}] * 3,
                "$.sources.branches.0.photons: 6 photons exceed the budget of 4",
                id="photons-over-budget",
            ),
        ],
    )
    def test_field_a_kind_does_not_read_is_rejected(self, tmp_path, capsys, element, photons, message):
        from eventready.cli import main

        raw = json.loads(json.dumps(MINIMAL))
        raw["spatial_labels"].append("A2")
        if photons is not None:
            raw["sources"]["branches"][0]["photons"] = photons
        if element is not None:
            raw["elements"] = [element]
        assert validate_config_dict(raw) == [message]
        assert main(["--config", str(write_config(tmp_path, raw))]) == 1
        assert capsys.readouterr().err == f"eventready: config error: {message}\n"

    def test_kept_pair_naming_one_arm_twice_is_rejected(self, tmp_path, capsys):
        from eventready.cli import main

        raw = {**polarizer_variant_config(), "kept": ["A1", "A1"]}
        message = "$.kept: ['A1', 'A1'] has non-unique elements"
        assert validate_config_dict(raw) == [message]
        assert main(["--config", str(write_config(tmp_path, raw)), "--format", "json"]) == 1
        assert capsys.readouterr() == ("", f"eventready: config error: {message}\n")

    @pytest.mark.parametrize(
        "require, zero, message",
        [
            ({"D1": 1, "D2h": 1}, ["D1h", "D2v"], "$.heralds.0.zero: detector 'D1h' shares modes with required detector 'D1'"),
            ({"D1h": 1, "D2h": 1}, ["D1", "D2v"], "$.heralds.0.zero: detector 'D1' shares modes with required detector 'D1h'"),
            (
                {"D1h": 1, "D2h": 1},
                ["D1h", "D1v", "D2v"],
                "$.heralds.0.zero: detector 'D1h' shares modes with required detector 'D1h'",
            ),
            ({"D1v": 1, "D2h": 1}, ["D1h", "D2v"], None),
        ],
        ids=["bucket-required", "bucket-zeroed", "same-detector", "other-polarization"],
    )
    def test_zeroed_detector_sharing_a_required_ones_modes_is_rejected(self, tmp_path, capsys, require, zero, message):
        """A zeroed mode that a requirement also counts would be read as required only."""
        from eventready.cli import main

        raw = fusion_scheme_config()
        raw["detectors"]["D1"] = {"spatial": "A2"}
        raw["heralds"] = [{"name": "h", "require": require, "zero": zero}]
        assert validate_config_dict(raw) == ([message] if message else [])
        assert main(["--config", str(write_config(tmp_path, raw)), "--format", "json"]) == (1 if message else 0)
        out, err = capsys.readouterr()
        if message:
            assert (out, err) == ("", f"eventready: config error: {message}\n")
        else:
            assert json.loads(out)["p_h"] == pytest.approx(1 / 32, abs=1e-15)

    @pytest.mark.parametrize("photons", [1, 3])
    def test_branches_of_different_photon_counts_are_rejected(self, tmp_path, capsys, photons):
        from eventready.cli import main
        from eventready.presets import hom_config

        raw = hom_config()
        pair = raw["sources"]["branches"][0]["photons"]
        raw["sources"]["branches"].append({"photons": (pair * 2)[:photons]})
        message = f"$.sources.branches.1.photons: {photons} photons, branch 0 has 2"
        assert validate_config_dict(raw) == [message]
        assert main(["--config", str(write_config(tmp_path, raw)), "--format", "json"]) == 1
        assert capsys.readouterr() == ("", f"eventready: config error: {message}\n")

    @pytest.mark.parametrize(
        "labels, bins, message",
        [
            (["A1", "A1", "A2", "LP1", "LP2"], None, "$.spatial_labels: ['A1', 'A1', 'A2', 'LP1', 'LP2'] has non-unique elements"),
            (
                ["A1", "A2", "LP1", "LP2"] + [f"X{k}" for k in range(13)],
                None,
                "$.spatial_labels: 17 spatial labels at 4 bins would hold 136 modes, cap is 128",
            ),
            (["A1", "A2", "LP1", "LP2"] + [f"X{k}" for k in range(5)], 8, "$.bins: 9 spatial labels at 8 bins would hold 144 modes, cap is 128"),
            (["A1", "A2", "LP1", "LP2"] + [f"X{k}" for k in range(12)], None, None),
        ],
        ids=["repeated-label", "labels-over-the-cap", "bins-over-the-cap", "at-the-cap"],
    )
    def test_registry_the_labels_cannot_make_is_rejected_with_its_path(self, tmp_path, capsys, labels, bins, message):
        """A repeated spatial label and more modes than modes.MAX_MODES are
        refused by validation, not by ModeRegistry after it."""
        from eventready.cli import main
        from eventready.presets import hom_config

        raw = {**hom_config(), "spatial_labels": labels, **({"bins": bins} if bins else {})}
        assert validate_config_dict(raw) == ([message] if message else [])
        assert main(["--config", str(write_config(tmp_path, raw)), "--format", "json"]) == (1 if message else 0)
        out, err = capsys.readouterr()
        if message:
            assert (out, err) == ("", f"eventready: config error: {message}\n")

    def test_loss_label_shared_or_holding_a_photon_is_rejected_with_the_others(self):
        """Both loss-label rules are reported with every other violation."""
        raw = polarizer_variant_config()
        raw["elements"][4]["loss"] = "LD1"
        raw["sources"]["branches"][0]["photons"][0]["spatial"] = "LD1"
        raw["kept"] = ["A1", "Z9"]
        assert validate_config_dict(raw) == [
            "$.sources.branches.0.photons.0.spatial: loss label 'LD1' must start in vacuum",
            "$.elements.4.loss: duplicate loss label 'LD1'",
            "$.kept: dangling label 'Z9'",
        ]

    def test_unparseable_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="parse error"):
            parse_config(path)

    def test_unknown_herald_detector_reported(self):
        raw = json.loads(json.dumps(MINIMAL))
        raw["heralds"] = [{"name": "c", "require": {"nope": 1}}]
        problems = validate_config_dict(raw)
        assert any("nope" in p for p in problems)

    def test_round_trip_preserves_config(self):
        config = ExperimentConfig.from_dict(fusion_scheme_config())
        again = ExperimentConfig.from_dict(config.to_dict())
        assert config.to_dict() == again.to_dict()
        assert config.config_hash() == again.config_hash()

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_preset_config_round_trips_through_json_text(self, preset):
        config = build_preset_config(preset, {})
        again = ExperimentConfig.from_dict(json.loads(json_text(config.to_dict())))
        assert again.config_hash() == config.config_hash()
        assert again.to_dict() == config.to_dict()

    def test_sampling_block_is_rejected(self):
        raw = json.loads(json.dumps(MINIMAL))
        raw["sampling"] = {"shots": 100, "seed": 1, "mode": "poisson"}
        problems = validate_config_dict(raw)
        assert len(problems) == 1
        assert problems[0].startswith("$: ") and "'sampling'" in problems[0]

    def test_non_finite_numbers_reported_with_paths(self):
        raw = json.loads(json.dumps(MINIMAL))
        raw["elements"] = [{"kind": "phase", "port": "A1", "phi": float("-inf")}]
        raw["sources"]["branches"][0]["photons"][0]["overlap"] = [1.0, float("nan")]
        assert validate_config_dict(raw) == [
            "$.sources.branches.0.photons.0.overlap.1: non-finite number",
            "$.elements.0.phi: non-finite number",
        ]

    def test_schema_is_published(self):
        schema = json.loads(schema_json())
        assert schema["properties"]["schema_version"]["const"] == 1
        assert schema["properties"]["convention"]["enum"] == list(PBS_CONVENTIONS)
        [flag] = [a for a in build_parser()._actions if a.dest == "convention"]
        assert list(flag.choices) == list(PBS_CONVENTIONS)

    def test_hash_changes_with_content(self):
        c1 = ExperimentConfig.from_dict(fusion_scheme_config())
        raw = fusion_scheme_config()
        raw["elements"][0]["ports"] = ["A1", "B1"]
        c2 = ExperimentConfig.from_dict(raw)
        assert c1.config_hash() != c2.config_hash()


def test_readme_lists_every_element_kind_with_its_fields():
    import re
    from pathlib import Path

    from eventready.elements import ELEMENT_KINDS

    readme = (Path(__file__).parent.parent / "README.md").read_text()
    items = dict(re.findall(r"\n  - `(\w+)`(.*?)(?=\n  - |\n\n)", readme, re.S))
    assert list(items) == list(ELEMENT_KINDS)
    for name, kind in ELEMENT_KINDS.items():
        assert ("one port", "two distinct ports")[kind.ports - 1] in items[name]
        for key in kind.required:
            assert f"`{key}`" in items[name] and f"[`{key}`]" not in items[name]
        for key in kind.optional:
            assert f"[`{key}`]" in items[name]


# The keywords the in-package verdict interprets; "$schema" only names the draft.
VERDICT_KEYWORDS = {
    "$schema", "type", "properties", "additionalProperties", "items", "required", "minItems", "maxItems",
    "uniqueItems", "minLength", "minProperties", "minimum", "maximum", "exclusiveMinimum", "enum", "const",
    "$ref", "$defs", "anyOf",
}
VALIDATOR = Draft202012Validator(CONFIG_SCHEMA)
PRESET_CONFIGS = [build_preset_config(name, {}).to_dict() for name in PRESET_NAMES]


def _nodes(node, keys=()):
    """(keys, value) of node and of everything under it."""
    yield keys, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, item in items:
        yield from _nodes(item, (*keys, key))


def _subschemas(schema):
    """schema and every schema inside it."""
    yield schema
    inner = [*schema.get("properties", {}).values(), *schema.get("$defs", {}).values(), *schema.get("anyOf", [])]
    inner += [schema[key] for key in ("items", "additionalProperties") if isinstance(schema.get(key), dict)]
    for sub in inner:
        yield from _subschemas(sub)


FIELD_NAMES = sorted({key for schema in _subschemas(CONFIG_SCHEMA) for key in schema.get("properties", {})})
# Wrong types, bools, 1 against 1.0, bounds and huge ints, and empties;
# then the parts of every preset config, which are right in some places only.
ODD_VALUES = [
    None, True, False, 0, 1, 1.0, -1, 0.5, 2.5, 4, 4.0, 6, 7, 8, 9, 10**400, -(10**400), 1e308, float("inf"),
    "", "x", "H", "A1", "perm", [], {}, [1, 1.0], [True, 1], [1.0, 0.0, 0.0], ["A1", "A1"], ["A1", "B1", "A2"],
    {"theta_a_deg": 0.0, "theta_b_deg": 45.0}, {"coherence_length_um": 0}, {"x": 1},
]
PRESET_PARTS = [value for raw in PRESET_CONFIGS for _, value in _nodes(raw)]
VALUES = st.one_of(st.sampled_from(ODD_VALUES), st.sampled_from(PRESET_PARTS))


@st.composite
def mutated_configs(draw):
    """A preset config with one to three mutations: a value replaced, a
    field dropped or added, an item repeated, a field's value duplicated
    into another field, a container emptied or a number turned into its
    float, int or bool."""
    holder = {"raw": copy.deepcopy(draw(st.sampled_from(PRESET_CONFIGS)))}
    for _ in range(draw(st.integers(1, 3))):
        if "raw" not in holder:
            break
        *parent_keys, key = draw(st.sampled_from([keys for keys, _ in _nodes(holder) if keys]))
        parent = holder
        for k in parent_keys:
            parent = parent[k]
        node = parent[key]
        what = draw(st.sampled_from(["replace", "drop", "add", "repeat", "duplicate", "empty", "number"]))
        if what == "replace":
            parent[key] = copy.deepcopy(draw(VALUES))
        elif what == "drop":
            del parent[key]
        elif what == "add" and isinstance(node, dict):
            node[draw(st.sampled_from([*FIELD_NAMES, "junk"]))] = copy.deepcopy(draw(VALUES))
        elif what == "repeat" and isinstance(node, list) and node:
            node.append(copy.deepcopy(draw(st.sampled_from(node))))
        elif what == "duplicate" and isinstance(node, dict) and node:
            node[draw(st.sampled_from(FIELD_NAMES))] = copy.deepcopy(draw(st.sampled_from(list(node.values()))))
        elif what == "empty" and isinstance(node, (dict, list)):
            parent[key] = type(node)()
        elif what == "number" and isinstance(node, (int, float)) and not isinstance(node, bool):
            twins = [-node, bool(node), *([float(node)] if abs(node) < 1e308 else []), *([int(node)] if node % 1 == 0 else [])]
            parent[key] = draw(st.sampled_from(twins))
    return holder.get("raw")


class TestSchemaVerdict:
    def test_the_verdict_interprets_every_keyword_and_type_of_the_schema(self):
        schemas = list(_subschemas(CONFIG_SCHEMA))
        assert set().union(*schemas) == VERDICT_KEYWORDS
        assert {schema["type"] for schema in schemas if "type" in schema} == set(_TYPES)

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(mutated_configs())
    @example({**two_pbs_config(), "bins": 4.0})  # an integral float is an integer
    @example({**two_pbs_config(), "bins": True})  # a bool is no integer
    @example({**two_pbs_config(), "analyzers": {"theta_a_deg": False, "theta_b_deg": 0}})  # nor a number
    @example({**two_pbs_config(), "schema_version": True})  # const tells True from 1
    @example({**two_pbs_config(), "schema_version": 1.0})
    @example({**polarizer_variant_config(), "kept": [1, 1.0]})  # uniqueItems counts 1 and 1.0 as equal
    @example({**fusion_delay_config(), "model": {"coherence_length_um": 0}})  # exclusiveMinimum
    @example({**two_pbs_config(), "spatial_labels": ["A1", "A2", "B1", "B2", ""]})  # minLength
    def test_verdict_equals_jsonschema(self, raw):
        assert _valid(raw) == VALIDATOR.is_valid(raw)

    @pytest.mark.parametrize(
        "value, schema, valid",
        [
            (1.0, {"type": "integer"}, True),
            (True, {"type": "integer"}, False),
            (True, {"type": "number"}, False),
            (True, {"const": 1}, False),
            (True, {"enum": [1, "perm"]}, False),
            (1.0, {"enum": [1]}, True),
            ([1, 1.0], {"uniqueItems": True}, False),
            ([True, 1], {"uniqueItems": True}, True),
            ([[1], [1.0]], {"uniqueItems": True}, False),
        ],
    )
    def test_draft_2020_12_traps(self, value, schema, valid):
        assert _valid(value, schema) == Draft202012Validator(schema).is_valid(value) == valid

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_leaf_verdict_equals_the_per_leaf_jsonschema_check(self, data):
        """LeafCheck decides a numeric leaf's subschema with the verdict, as
        it did with one jsonschema validator per leaf, and a scanned float
        passes where the whole config validates."""
        raw = data.draw(st.sampled_from(PRESET_CONFIGS))
        numbers = [keys for keys, node in _nodes(raw) if isinstance(node, (int, float)) and not isinstance(node, bool)]
        keys = data.draw(st.sampled_from([*numbers, ("bins",), ("photon_budget",), ("analyzers", "theta_a_deg")]))
        value = data.draw(VALUES)
        schema = _subschema(keys)
        assert _valid(value, schema) == Draft202012Validator(schema).is_valid(value)
        if keys in numbers and isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) < 1e308:
            check = LeafCheck([keys])
            assert check.passes([float(value)], raw) == (validate_config_dict(check.at(raw, float(value))) == [])
