import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventready import (
    BELL_STATES,
    ExperimentConfig,
    ModeId,
    ModeRegistry,
    ModeTransform,
    apply_mode_unitary,
    basis_state,
    chsh_S,
    compile_circuit,
    compose,
    concurrence,
    correlation_E,
    fidelity,
    fit_sinusoid,
    group_herald_outcomes,
    heralded_polarization_dm,
    joint_visibility,
    outcome_distribution,
    run,
    sample_counts,
    superpose,
    visibility,
)
from eventready.analysis import HeraldError, analyzer_probabilities
from eventready.fock import FockError
from eventready.presets import fusion_scheme_config, polarizer_variant_config, _detector_groups, run_preset

from oracles import heralded_rho_via_projector, random_unitary

PHI = BELL_STATES["phi_plus"]
RHO_PHI = np.outer(PHI, PHI.conj())


def fig1_state():
    circuit = compile_circuit(ExperimentConfig.from_dict(fusion_scheme_config()))
    return circuit, run(circuit)


def fig1_groups(circuit):
    return _detector_groups(
        circuit.registry,
        {
            "D1h": {"spatial": "A2", "pol": "H"},
            "D1v": {"spatial": "A2", "pol": "V"},
            "D2h": {"spatial": "B2", "pol": "H"},
            "D2v": {"spatial": "B2", "pol": "V"},
        },
    )


class TestOutcomeDistribution:
    def test_single_photon_split(self):
        reg = ModeRegistry(["a", "b"], bins=1)
        st = superpose(
            [
                basis_state(reg, {ModeId("a", "H", 0): 1}),
                basis_state(reg, {ModeId("b", "H", 0): 1}),
            ],
            [1.0, 1.0],
        )
        detectors = (ModeId("a", "H", 0), ModeId("b", "H", 0))
        dist = dict(outcome_distribution(st, detectors))
        assert dist[(1, 0)] == pytest.approx(0.5)
        assert dist[(0, 1)] == pytest.approx(0.5)
        assert len(dist) == 2

    def test_fig1_four_fold_detector_pattern(self):
        circuit, state = fig1_state()
        groups = fig1_groups(circuit)
        read = tuple(m for g in groups.values() for m in g)
        dist = outcome_distribution(state, read)
        total = sum(p for _, p in dist)
        assert total == pytest.approx(1.0, abs=1e-10)
        read_sorted = tuple(sorted(set(read)))
        want = {m: 0 for m in read_sorted}
        want[ModeId("A2", "H", 0)] = 1
        want[ModeId("B2", "H", 0)] = 1
        key = tuple(want[m] for m in read_sorted)
        assert dict(dist)[key] == pytest.approx(1 / 32, abs=1e-12)

    def test_probabilities_sum_to_one_over_all_patterns(self):
        circuit, state = fig1_state()
        dist = outcome_distribution(state, circuit.registry.modes)
        assert sum(p for _, p in dist) == pytest.approx(1.0, abs=1e-10)


def exact_herald(state, counts, read):
    """The one outcome of a herald with one single-mode group per required mode."""
    groups = {str(m): ((m,), c) for m, c in counts.items()}
    ((prob, conditional),) = group_herald_outcomes(state, groups, read)
    return prob, conditional


class TestHerald:
    def test_hh_pattern_collapses_to_phi_plus(self):
        circuit, state = fig1_state()
        reg = circuit.registry
        prob, conditional = exact_herald(
            state,
            {ModeId("A2", "H", 0): 1, ModeId("B2", "H", 0): 1},
            reg.group("A2") + reg.group("B2"),
        )
        assert prob == pytest.approx(1 / 32, abs=1e-12)
        from eventready import partial_trace_to_polarization

        rho = partial_trace_to_polarization(conditional, ("A1", "B1"))
        assert fidelity(rho, PHI) == pytest.approx(1.0, abs=1e-12)

    def test_hv_pattern_collapses_to_psi_plus(self):
        circuit, state = fig1_state()
        reg = circuit.registry
        prob, conditional = exact_herald(
            state,
            {ModeId("A2", "H", 0): 1, ModeId("B2", "V", 0): 1},
            reg.group("A2") + reg.group("B2"),
        )
        assert prob == pytest.approx(1 / 32, abs=1e-12)
        from eventready import partial_trace_to_polarization

        rho = partial_trace_to_polarization(conditional, ("A1", "B1"))
        assert fidelity(rho, BELL_STATES["psi_plus"]) == pytest.approx(1.0, abs=1e-12)

    def test_impossible_pattern_raises(self):
        # Ideal photons live in bin 0; bin 3 is empty in every term.
        circuit, state = fig1_state()
        reg = circuit.registry
        with pytest.raises(HeraldError, match="impossible"):
            exact_herald(state, {ModeId("A2", "H", 3): 1}, reg.group("A2") + reg.group("B2"))

    def test_probability_matches_outcome_distribution(self):
        circuit, state = fig1_state()
        reg = circuit.registry
        read = reg.group("A2") + reg.group("B2")
        prob, _ = exact_herald(
            state, {ModeId("A2", "H", 0): 1, ModeId("B2", "H", 0): 1}, read
        )
        read_sorted = tuple(sorted(set(read)))
        want = {m: 0 for m in read_sorted}
        want[ModeId("A2", "H", 0)] = 1
        want[ModeId("B2", "H", 0)] = 1
        key = tuple(want[m] for m in read_sorted)
        assert dict(outcome_distribution(state, read_sorted))[key] == pytest.approx(
            prob, abs=1e-12
        )

    def test_fig2_variant_heralds_phi_plus(self):
        circuit = compile_circuit(ExperimentConfig.from_dict(polarizer_variant_config()))
        state = run(circuit)
        reg = circuit.registry
        groups = {
            "D1": (reg.group("A2"), 1),
            "D2": (reg.group("B2"), 1),
        }
        read = reg.group("A2") + reg.group("B2") + reg.group("LD1") + reg.group("LD2")
        prob, rho = heralded_polarization_dm(state, groups, read, ("A1", "B1"))
        assert prob == pytest.approx(1 / 32, abs=1e-12)
        assert fidelity(rho, PHI) == pytest.approx(1.0, abs=1e-12)


class TestFigureOfMerit:
    def test_fidelity_of_bell_state(self):
        assert fidelity(RHO_PHI, PHI) == pytest.approx(1.0)

    def test_fidelity_of_maximally_mixed(self):
        assert fidelity(np.eye(4) / 4, PHI) == pytest.approx(0.25)

    def test_heralded_dm_with_walkoff_matches_analytic_form(self):
        """Fusion overlap u^2=V mixes psi+ at weight (1-V)/2; analyzer-arm
        walk-off sqrt(V) per arm scales both coherences by V."""
        from eventready.presets import polarizer_variant_config

        V = 0.89
        raw = polarizer_variant_config(
            fusion_overlap=math.sqrt(V), analyzer_walkoff=math.sqrt(V)
        )
        circuit = compile_circuit(ExperimentConfig.from_dict(raw))
        state = run(circuit)
        reg = circuit.registry
        groups = {"D1": (reg.group("A2"), 1), "D2": (reg.group("B2"), 1)}
        read = reg.group("A2") + reg.group("B2") + reg.group("LD1") + reg.group("LD2")
        _, rho = heralded_polarization_dm(state, groups, read, ("A1", "B1"))
        p, q, c = (1 + V) / 2, (1 - V) / 2, V
        phi_c = 0.5 * np.array(
            [[1, 0, 0, c], [0, 0, 0, 0], [0, 0, 0, 0], [c, 0, 0, 1]], dtype=complex
        )
        psi_c = 0.5 * np.array(
            [[0, 0, 0, 0], [0, 1, c, 0], [0, c, 1, 0], [0, 0, 0, 0]], dtype=complex
        )
        assert np.allclose(rho, p * phi_c + q * psi_c, atol=1e-12)

    def test_heralded_fidelity_with_imperfect_fusion(self):
        circuit = compile_circuit(
            ExperimentConfig.from_dict(polarizer_variant_config(fusion_overlap=math.sqrt(0.89)))
        )
        state = run(circuit)
        reg = circuit.registry
        groups = {"D1": (reg.group("A2"), 1), "D2": (reg.group("B2"), 1)}
        read = reg.group("A2") + reg.group("B2") + reg.group("LD1") + reg.group("LD2")
        _, rho = heralded_polarization_dm(state, groups, read, ("A1", "B1"))
        assert fidelity(rho, PHI) == pytest.approx((1 + 0.89) / 2, abs=1e-12)

    def test_concurrence_bell_and_product(self):
        assert concurrence(RHO_PHI) == pytest.approx(1.0, abs=1e-12)
        hh = np.zeros((4, 4))
        hh[0, 0] = 1.0
        assert concurrence(hh) == pytest.approx(0.0, abs=1e-12)

    def test_concurrence_rank3_mixture_matches_x_state_formula(self):
        v = 0.89
        hh = np.zeros((4, 4))
        hh[0, 0] = 1.0
        vv = np.zeros((4, 4))
        vv[3, 3] = 1.0
        rho = v * RHO_PHI + (1 - v) * (hh + vv) / 2
        # Independent X-state evaluation: C = 2 max(0, |rho_14| - sqrt(rho_22 rho_33)).
        expected = 2 * max(0.0, abs(rho[0, 3]) - math.sqrt(rho[1, 1].real * rho[2, 2].real))
        assert expected == pytest.approx(v)
        assert concurrence(rho) == pytest.approx(expected, abs=1e-12)

    def test_correlation_parallel_analyzers(self):
        assert correlation_E(RHO_PHI, 0.0, 0.0) == pytest.approx(1.0)

    def test_correlation_offset_analyzers(self):
        assert correlation_E(RHO_PHI, 0.0, 22.5) == pytest.approx(
            math.cos(math.radians(45.0)), abs=1e-12
        )

    def test_phi_plus_rotational_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            a, b, t = rng.uniform(0, 180, size=3)
            assert correlation_E(RHO_PHI, a + t, b + t) == pytest.approx(
                correlation_E(RHO_PHI, a, b), abs=1e-12
            )

    def test_analyzer_probabilities_sum_to_one(self):
        rng = np.random.default_rng(13)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        probs = analyzer_probabilities(rho, 17.0, 56.0)
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)


class TestChsh:
    def test_ideal_phi_plus_reaches_tsirelson(self):
        report = chsh_S(RHO_PHI, 0.0, 45.0, 22.5, 67.5)
        assert report.s == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        assert report.violation

    def test_maximally_mixed_gives_zero(self):
        report = chsh_S(np.eye(4) / 4, 0.0, 45.0, 22.5, 67.5)
        assert report.s == pytest.approx(0.0, abs=1e-12)
        assert not report.violation

    def test_separable_mixture_stays_classical(self):
        hh = np.zeros((4, 4))
        hh[0, 0] = 1.0
        vv = np.zeros((4, 4))
        vv[3, 3] = 1.0
        rho = (hh + vv) / 2
        report = chsh_S(rho, 0.0, 45.0, 22.5, 67.5)
        assert report.s == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert report.s <= 2.0

    def test_tsirelson_bound_on_random_states(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            a, ap, b, bp = rng.uniform(0, 180, size=4)
            report = chsh_S(rho, a, ap, b, bp)
            assert abs(report.s) <= 2 * math.sqrt(2) + 1e-9

    def test_sampled_mode_reports_uncertainty(self):
        report = chsh_S(RHO_PHI, 0.0, 45.0, 22.5, 67.5, shots=200_000, seed=5)
        assert report.s_std is not None
        assert report.s == pytest.approx(2 * math.sqrt(2), abs=0.02)
        assert report.to_dict()["std_devs_above_2"] > 100


class TestVisibilityFits:
    def test_pure_sinusoid_gives_unit_visibility(self):
        xs = np.arange(0, 181, 10.0)
        ys = 0.5 * (1 + np.cos(2 * np.pi * xs / 180.0))
        v, hi, lo = visibility(list(zip(xs, ys)), period=180.0)
        assert v == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)
        assert lo == pytest.approx(0.0, abs=1e-12)

    def test_constant_curve_gives_zero(self):
        xs = np.arange(0, 181, 10.0)
        ys = np.full_like(xs, 0.5)
        v, _, _ = visibility(list(zip(xs, ys)), period=180.0)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="8 points"):
            visibility([(0, 1), (90, 0), (180, 1)], period=180.0)

    def test_degenerate_zero_curve_rejected(self):
        xs = np.arange(0, 181, 10.0)
        with pytest.raises(ValueError, match="degenerate"):
            visibility([(x, 0.0) for x in xs], period=180.0)

    def test_fit_recovers_offset_amp_phase(self):
        xs = np.linspace(0, 360, 25)
        ys = 2.0 + 0.7 * np.cos(2 * np.pi * xs / 180.0 - 0.4)
        c0, amp, phase = fit_sinusoid(xs, ys, 180.0)
        assert c0 == pytest.approx(2.0, abs=1e-12)
        assert amp == pytest.approx(0.7, abs=1e-12)
        assert phase == pytest.approx(0.4, abs=1e-12)

    def test_joint_visibility_on_equal_amplitude_curves(self):
        xs = np.arange(0, 181, 10.0)
        y1 = 0.25 * (1 + 0.89 * np.cos(2 * np.pi * xs / 180.0))
        y2 = 0.25 * (1 + 0.89 * np.sin(2 * np.pi * xs / 180.0))
        v = joint_visibility([(xs, y1), (xs, y2)], period=180.0)
        assert v == pytest.approx(0.89, abs=1e-12)


class TestSampleCounts:
    def test_zero_shots(self):
        counts = sample_counts([("a", 0.5), ("b", 0.5)], 0, seed=1)
        assert all(c == 0 for _, c in counts)

    def test_multinomial_five_sigma(self):
        counts = dict(sample_counts([("a", 0.5), ("b", 0.5)], 1_000_000, seed=2))
        sigma = math.sqrt(1_000_000 * 0.25)
        assert abs(counts["a"] - 500_000) < 5 * sigma
        assert counts["a"] + counts["b"] == 1_000_000

    def test_deterministic_per_seed(self):
        d = [("a", 0.3), ("b", 0.7)]
        assert sample_counts(d, 1000, seed=42) == sample_counts(d, 1000, seed=42)
        assert sample_counts(d, 1000, seed=42) != sample_counts(d, 1000, seed=43)

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            sample_counts([("a", 0.4), ("b", 0.4)], 10, seed=1)


class TestHeraldProbabilitiesComplete:
    def test_group_probabilities_cover_everything(self):
        """Sum over all detector group patterns is 1, loss patterns included."""
        circuit = compile_circuit(
            ExperimentConfig.from_dict(polarizer_variant_config(fusion_overlap=0.97))
        )
        state = run(circuit)
        dist = outcome_distribution(state, circuit.registry.modes)
        assert sum(p for _, p in dist) == pytest.approx(1.0, abs=1e-10)

    def test_heralded_concurrence_under_both_conventions(self):
        for convention in ("perm", "i-reflect"):
            circuit = compile_circuit(
                ExperimentConfig.from_dict(fusion_scheme_config(convention=convention))
            )
            state = run(circuit)
            reg = circuit.registry
            groups = {
                "D1h": (reg.group("A2", "H"), 1),
                "D2h": (reg.group("B2", "H"), 1),
            }
            read = reg.group("A2") + reg.group("B2")
            _, rho = heralded_polarization_dm(state, groups, read, ("A1", "B1"))
            assert concurrence(rho) == pytest.approx(1.0, abs=1e-10)

    def test_fidelity_monotone_in_fusion_overlap(self):
        fid = []
        for v in (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0):
            circuit = compile_circuit(
                ExperimentConfig.from_dict(polarizer_variant_config(fusion_overlap=v))
            )
            state = run(circuit)
            reg = circuit.registry
            groups = {"D1": (reg.group("A2"), 1), "D2": (reg.group("B2"), 1)}
            read = (
                reg.group("A2") + reg.group("B2") + reg.group("LD1") + reg.group("LD2")
            )
            _, rho = heralded_polarization_dm(state, groups, read, ("A1", "B1"))
            fid.append(fidelity(rho, PHI))
        assert all(a >= b - 1e-12 for a, b in zip(fid, fid[1:]))
        assert fid[0] == pytest.approx(1.0, abs=1e-12)
        assert fid[-1] == pytest.approx(0.5, abs=1e-12)


ARM_SETS = (("a",), ("b",), ("c", "d"), ("a", "c"), ("b", "d"), ("a", "b", "c", "d"))


@st.composite
def herald_cases(draw):
    """Kept arms a and b hold one photon each and read arms c, d one or two;
    1-3 random unitaries act on all modes of some arms; 1-2 groups of c, d
    get required counts."""
    reg = ModeRegistry(("a", "b", "c", "d"), bins=draw(st.integers(1, 2)))
    photons = [draw(st.sampled_from(reg.group(arm))) for arm in ("a", "b")]
    photons += draw(st.lists(st.sampled_from(reg.group("c") + reg.group("d")), min_size=1, max_size=2))
    arm_sets = draw(st.lists(st.sampled_from(ARM_SETS), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    transforms = []
    for arms in arm_sets:
        modes = tuple(m for arm in arms for m in reg.group(arm))
        transforms.append(ModeTransform(modes, random_unitary(len(modes), rng)))
    state = apply_mode_unitary(basis_state(reg, Counter(photons)), compose(transforms))
    # Groups on one arm are disjoint only if they split it by polarization.
    picks = draw(
        st.sampled_from(
            [
                [("c", None)],
                [("d", "H")],
                [("c", "H"), ("c", "V")],
                [("c", None), ("d", None)],
                [("c", "V"), ("d", "H")],
            ]
        )
    )
    # Counts read off one term of the state, so that most heralds can fire.
    occ = sorted(state.terms)[draw(st.integers(0, len(state.terms) - 1))]
    groups = {}
    for s, pol in picks:
        modes = reg.group(s, pol)
        groups[f"{s}{pol or ''}"] = (modes, state.count_in(occ, modes))
    return state, groups, reg.group("c") + reg.group("d")


class TestGroupHeraldProperties:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(herald_cases())
    def test_outcomes_match_distribution_and_condition_cleanly(self, case):
        state, groups, read_out = case
        reg = state.registry
        read = tuple(sorted(set(read_out)))
        pos = {m: k for k, m in enumerate(read)}
        grouped = {m for modes, _ in groups.values() for m in modes}

        def matches(pattern):
            return (
                any(pattern)
                and all(pattern[pos[m]] == 0 for m in read if m not in grouped)
                and all(sum(pattern[pos[m]] for m in modes) == n for modes, n in groups.values())
            )

        matching = [p for pattern, p in outcome_distribution(state, read) if matches(pattern)]
        if not matching:
            with pytest.raises(HeraldError, match="impossible"):
                group_herald_outcomes(state, groups, read_out)
            return
        outcomes = group_herald_outcomes(state, groups, read_out)
        # Both lists are sorted by pattern.
        assert [p for p, _ in outcomes] == pytest.approx(matching, abs=1e-12)
        read_idx = [reg.index(m) for m in read]
        for _, conditional in outcomes:
            assert conditional.norm() == pytest.approx(1.0, abs=1e-12)
            assert all(occ[i] == 0 for occ in conditional.terms for i in read_idx)

        one_per_arm = all(
            state.count_in(occ, reg.group("a")) == 1 and state.count_in(occ, reg.group("b")) == 1
            for _, conditional in outcomes
            for occ in conditional.terms
        )
        if not one_per_arm:
            with pytest.raises(FockError, match="non-qubit support"):
                heralded_polarization_dm(state, groups, read_out, ("a", "b"))
            return
        total, rho = heralded_polarization_dm(state, groups, read_out, ("a", "b"))
        assert total == pytest.approx(sum(matching), abs=1e-12)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-10

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(herald_cases())
    def test_heralded_rho_matches_projector_oracle(self, case):
        state, groups, read_out = case
        p, rho = heralded_rho_via_projector(state.terms, state.registry.modes, groups, read_out, ("a", "b"))
        if p == 0:
            with pytest.raises(HeraldError, match="impossible"):
                heralded_polarization_dm(state, groups, read_out, ("a", "b"))
        elif rho is None:
            with pytest.raises(FockError, match="non-qubit support"):
                heralded_polarization_dm(state, groups, read_out, ("a", "b"))
        else:
            total, got = heralded_polarization_dm(state, groups, read_out, ("a", "b"))
            assert abs(total - p) <= 1e-12
            assert np.abs(got - rho).max() <= 1e-12


def _assert_same_report(got, want, path="report"):
    """Numbers within 1e-12; strings, booleans and the shape exactly."""
    assert type(got) is type(want) or {type(got), type(want)} <= {int, float}, path
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            _assert_same_report(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_same_report(g, w, f"{path}.{k}")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-12, (path, got, want)
    else:
        assert got == want, path


def test_herald_table_matches_its_reference_report(tmp_path):
    """The herald table as written before heralds were read in one pass
    over a state's terms, kept_support messages included."""
    run_preset("herald-table", out_dir=tmp_path)
    got = json.loads((tmp_path / "herald-table.report.json").read_text())
    want = json.loads((Path(__file__).parent / "data" / "herald_table_report.json").read_text())
    _assert_same_report(got, want)
