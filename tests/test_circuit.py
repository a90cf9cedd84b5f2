import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from eventready import (
    ExperimentConfig,
    basis_state,
    compile_circuit,
    inner_product,
    prepare_product_state,
    run,
    superpose,
)
from eventready.circuit import SourceBranch, check_unitarity
from eventready.config import ConfigError
from eventready.distinguishability import OverlapModel
from eventready.elements import ELEMENT_KINDS, PBS_CONVENTIONS, compose, lower_element, rpbs
from eventready.fock import FockError, ModeTransform, PhotonSpec, PureState
from eventready.modes import H, V, ModeId, ModeRegistry
from eventready.presets import (
    PRESET_NAMES,
    build_preset_config,
    fusion_scheme_config,
    hom_config,
    run_bell_decomposition,
    two_pbs_config,
)

from oracles import embed_transform, evolve_state_via_permanent
from write_corpus import _inputs, _set

DATA = Path(__file__).parent / "data"


def compiled(raw):
    return compile_circuit(ExperimentConfig.from_dict(raw))


class TestCompile:
    def test_empty_element_list_maps_input_to_itself(self):
        raw = two_pbs_config()
        raw["elements"] = []
        circuit = compiled(raw)
        state = run(circuit)
        assert state.norm() == pytest.approx(1.0)
        assert len(state.terms) == 16  # four diagonal photons, no interference

    def test_fig1_steps_in_config_order(self):
        circuit = compiled(fusion_scheme_config())
        names = [name for name, _ in circuit.steps]
        assert names[0] == "pbs(A1,A2)"
        assert names[1] == "pbs(B1,B2)"
        assert names[2:] == ["rpbs(A2,B2)"]  # the fusion is one step

    def test_unbound_label_rejected(self):
        raw = two_pbs_config()
        raw["elements"].append({"kind": "hwp", "port": "Z9", "angle_deg": 0.0})
        with pytest.raises(Exception, match="Z9"):
            compiled(raw)

    def test_unknown_kind_rejected_by_schema(self):
        raw = two_pbs_config()
        raw["elements"].append({"kind": "teleporter", "port": "A1"})
        with pytest.raises(Exception, match="teleporter"):
            compiled(raw)

    def test_source_on_loss_label_rejected(self):
        from eventready.presets import polarizer_variant_config

        raw = polarizer_variant_config()
        raw["sources"]["branches"][0]["photons"][0]["spatial"] = "LD1"
        message = "$.sources.branches.0.photons.0.spatial: loss label 'LD1' must start in vacuum"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_dict(raw)

    def test_duplicate_loss_label_rejected(self):
        raw = two_pbs_config()
        raw["spatial_labels"].append("L1")
        raw["elements"].append(
            {"kind": "polarizer", "port": "A1", "angle_deg": 0.0, "loss": "L1"}
        )
        raw["elements"].append(
            {"kind": "polarizer", "port": "A2", "angle_deg": 0.0, "loss": "L1"}
        )
        message = "$.elements.3.loss: duplicate loss label 'L1'"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_dict(raw)

    def test_deterministic_lowering(self):
        c1 = compiled(fusion_scheme_config())
        c2 = compiled(fusion_scheme_config())
        assert [n for n, _ in c1.steps] == [n for n, _ in c2.steps]
        for (_, t1), (_, t2) in zip(c1.steps, c2.steps):
            assert t1.modes == t2.modes
            assert np.array_equal(t1.matrix, t2.matrix)

    def test_each_config_element_lowers_to_one_unitary_transform(self):
        reg = ModeRegistry(["p1", "p2", "loss"], bins=2)
        examples = {
            "pbs": {"ports": ["p1", "p2"]},
            "rpbs": {"ports": ["p1", "p2"]},
            "hwp": {"port": "p1", "angle_deg": 22.5},
            "polarizer": {"port": "p1", "angle_deg": 30.0, "loss": "loss"},
            "phase": {"port": "p2", "phi": 0.3, "pol": "H"},
            "beamsplitter": {"ports": ["p1", "p2"], "transmissivity": 0.3},
            "delay": {"port": "p1", "delta_um": 40.0},
            "bin_mixer": {"port": "p2", "overlap": [0.6, 0.0]},
        }
        assert set(examples) == set(ELEMENT_KINDS)
        for kind, fields in examples.items():
            t = lower_element({"kind": kind, **fields}, reg, model=OverlapModel())
            assert isinstance(t, ModeTransform), kind
            assert check_unitarity(t).ok, kind
        fusion = lower_element({"kind": "rpbs", **examples["rpbs"]}, reg)
        assert fusion.name == "rpbs(p1,p2)"
        assert np.array_equal(fusion.matrix, compose(rpbs(reg, "p1", "p2")).matrix)
        for name in PRESET_NAMES:
            config = build_preset_config(name, {})
            assert len(compile_circuit(config).steps) == len(config.elements), name


class TestRun:
    def test_two_pbs_stage_reproduces_sixteen_quarter_terms(self):
        circuit = compiled(two_pbs_config())
        state = run(circuit)
        assert len(state.terms) == 16
        for _, amp in state.sorted_terms():
            assert amp == pytest.approx(0.25, abs=1e-12)

    def test_single_photon_splits_across_pbs(self):
        raw = two_pbs_config()
        raw["sources"] = {
            "branches": [{"photons": [{"spatial": "A1", "pol_angle_deg": 45.0}]}]
        }
        state = run(compiled(raw))
        reg = state.registry
        h_a1 = basis_state(reg, {ModeId("A1", "H", 0): 1})
        v_a2 = basis_state(reg, {ModeId("A2", "V", 0): 1})
        s = 1 / math.sqrt(2)
        assert state.amplitude(next(iter(h_a1.terms))) == pytest.approx(s)
        assert state.amplitude(next(iter(v_a2.terms))) == pytest.approx(s)

    def test_run_is_deterministic_bit_for_bit(self):
        s1 = run(compiled(fusion_scheme_config()))
        s2 = run(compiled(fusion_scheme_config()))
        assert s1.sorted_terms() == s2.sorted_terms()

    def test_photon_number_conserved_including_losses(self):
        from eventready.presets import polarizer_variant_config

        state = run(compiled(polarizer_variant_config(fusion_overlap=0.9)))
        assert state.total_photons() == 4

    def test_distinguishable_photons_do_not_interfere_at_pbs(self):
        """Orthogonal-bin photons give the same coincidence as bunching: 1/2."""
        raw = {
            "schema_version": 1,
            "spatial_labels": ["A1", "A2"],
            "sources": {
                "branches": [
                    {
                        "photons": [
                            {"spatial": "A1", "pol_angle_deg": 45.0},
                            {"spatial": "A2", "pol_angle_deg": 45.0, "overlap": 0.0},
                        ]
                    }
                ]
            },
            "elements": [{"kind": "pbs", "ports": ["A1", "A2"]}],
        }
        state = run(compiled(raw))
        reg = state.registry
        p_coincidence = 0.0
        for occ, amp in state.terms.items():
            n1 = state.count_in(occ, reg.group("A1"))
            n2 = state.count_in(occ, reg.group("A2"))
            if n1 == 1 and n2 == 1:
                p_coincidence += abs(amp) ** 2
        # Brute-force expansion: |HV> terms bunch, |HH>/|VV> terms split.
        assert p_coincidence == pytest.approx(0.5, abs=1e-12)

    def test_prefix_runs_apply_one_composite_through_the_module_name(self, monkeypatch):
        import eventready.circuit as circuit_module

        circuit = compiled(fusion_scheme_config())
        calls = []
        original = circuit_module.apply_mode_unitary

        def counting(state, t):
            calls.append(t)
            return original(state, t)

        def prefix(k):
            return dataclasses.replace(circuit, steps=circuit.steps[:k])

        monkeypatch.setattr(circuit_module, "apply_mode_unitary", counting)
        assert run(prefix(0)).sorted_terms() == circuit.prepared_input().sorted_terms()
        assert calls == []
        stepped = circuit.prepared_input()
        for k, (_, t) in enumerate(circuit.steps, start=1):
            stepped = original(stepped, t)
            state = run(prefix(k))
            assert set(state.terms) == set(stepped.terms)
            for occ, amp in stepped.terms.items():
                assert state.amplitude(occ) == pytest.approx(amp, abs=1e-12)
        assert len(calls) == len(circuit.steps)

    def test_full_run_matches_permanent_evolution_oracle(self):
        circuit = compiled(fusion_scheme_config())
        state = run(circuit)
        reg = circuit.registry
        u_total = np.eye(reg.size, dtype=complex)
        for _, t in circuit.steps:
            idxs = [reg.index(m) for m in t.modes]
            u_total = embed_transform(reg.size, idxs, t.matrix) @ u_total
        source = circuit.prepared_input()
        expected = evolve_state_via_permanent(u_total, source.terms)
        assert set(expected) == set(state.terms)
        for occ, amp in expected.items():
            assert state.amplitude(occ) == pytest.approx(amp, abs=1e-10)


def _superposed_input(circuit) -> PureState:
    """The circuit's input as superpose of its branches' prepare_product_states."""
    states = [prepare_product_state(circuit.registry, branch.photons) for branch in circuit.branches]
    return states[0] if len(states) == 1 else superpose(states, [b.amplitude for b in circuit.branches])


class TestPreparedInput:
    """prepared_input multiplies out every branch at once, each weighted as
    a scan weights it; superpose of prepare_product_states is its reference."""

    @pytest.mark.parametrize(
        "raw",
        [
            *(build_preset_config(name, {"convention": c}).to_dict() for name in PRESET_NAMES for c in PBS_CONVENTIONS),
            *(json.loads((DATA / name).read_text()) for name in ("polarizer_variant_config.json", "fusion_delay_config.json")),
        ],
    )
    def test_equals_the_superposed_product_states(self, raw):
        circuit = compiled(raw)
        got, want = circuit.prepared_input(), _superposed_input(circuit)
        assert got.terms.keys() == want.terms.keys()
        assert all(abs(got.terms[occ] - amp) <= 1e-15 for occ, amp in want.terms.items())

    def test_cancelling_branches_cannot_be_normalized(self):
        circuit = compiled(_set(_inputs()["cancelling-branches"], "sources.branches.1.amplitude", [-1.0, 0.0]))
        with pytest.raises(FockError, match=r"^\$\.sources\.branches: cannot normalize the zero state$"):
            circuit.prepared_input()
        with pytest.raises(FockError, match="^cannot normalize the zero state$"):
            _superposed_input(circuit)

    @pytest.mark.parametrize(
        "photons",
        [
            [PhotonSpec("A1", (1.0, 1.0), (1.0,))],
            [PhotonSpec("A1", (1.0, 0.0), (1.0,) + (0.0,) * 4)],
            [PhotonSpec.plus("A1")] * 5,
        ],
        ids=["unnormalized", "too-many-bins", "over-budget"],
    )
    def test_a_bad_photon_gives_the_product_states_error(self, photons):
        circuit = compiled(hom_config())
        circuit = dataclasses.replace(circuit, branches=(SourceBranch(1.0, tuple(photons)),))
        with pytest.raises(FockError) as want:
            _superposed_input(circuit)
        with pytest.raises(FockError) as got:
            circuit.prepared_input()
        assert str(got.value) == str(want.value)


class TestBellDecomposition:
    """The re-expansion as dict states; run_bell_decomposition, which reads
    the state's rows into an array, must equal it."""

    @staticmethod
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

    @staticmethod
    def _pair_product(registry, state1: PureState, state2: PureState) -> PureState:
        """Product of two two-photon states on disjoint arms."""
        terms = {}
        for occ1, a1 in state1.terms.items():
            for occ2, a2 in state2.terms.items():
                merged = tuple(x + y for x, y in zip(occ1, occ2))
                terms[merged] = terms.get(merged, 0.0j) + a1 * a2
        return PureState(registry, terms)

    def _reexpansion(self, state):
        """(kept norm squared, projected, recomposed): the terms of state
        with one photon in each arm, normalized, and the matched Bell
        products at bin 0."""
        reg = state.registry
        kept = {
            occ: amp
            for occ, amp in state.terms.items()
            if all(
                state.count_in(occ, reg.group(s)) == 1
                for s in ("A1", "A2", "B1", "B2")
            )
        }
        projected = PureState(reg, dict(kept)).normalized()
        pieces = [
            self._pair_product(
                reg,
                self._bell_pair_state(reg, ("A2", "B2"), name),
                self._bell_pair_state(reg, ("A1", "B1"), name),
            )
            for name in ("psi_plus", "psi_minus", "phi_plus", "phi_minus")
        ]
        recomposed = superpose(pieces, [0.5] * 4, normalize=False)
        return sum(abs(a) ** 2 for a in kept.values()), projected, recomposed

    def test_eq_identity_between_pair_bases(self):
        """Projected two-pair state re-expands into matched Bell products."""
        _, projected, recomposed = self._reexpansion(run(compiled(two_pbs_config())))
        assert recomposed.norm() == pytest.approx(1.0, abs=1e-12)
        diff = superpose([projected, recomposed], [1.0, -1.0], normalize=False)
        assert diff.norm() < 1e-12
        assert inner_product(projected, recomposed) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("convention", PBS_CONVENTIONS)
    def test_runner_equals_the_dict_state_reexpansion(self, convention):
        config = build_preset_config("bell-decomposition", {"convention": convention})
        report, _, _ = run_bell_decomposition(config, {}, 5, 0)
        norm_sq, projected, recomposed = self._reexpansion(run(compile_circuit(config)))
        residual = superpose([projected, recomposed], [1.0, -1.0], normalize=False).norm()
        assert abs(report["projected_norm_sq"] - norm_sq) <= 1e-15
        assert abs(report["residual_norm"] - residual) <= 1e-15
        assert abs(complex(*report["overlap"]) - inner_product(projected, recomposed)) <= 1e-15
