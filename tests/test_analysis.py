import csv
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
    fit_delay_fringe,
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
from eventready.analysis import HeraldError, analyzer_probabilities, validate_density_matrix
from eventready.fock import FockError, PureState
from eventready.presets import (
    _detector_groups,
    _herald_request,
    build_preset_config,
    fusion_delay_config,
    fusion_scheme_config,
    polarizer_variant_config,
    run_preset,
    scan,
)

from oracles import delay_fringe_model, delay_fringe_via_curve_fit, heralded_rho_via_projector, random_unitary

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


def _random_rho(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# Each breaks one check of validate_density_matrix.
INVALID_RHOS = {
    "hermitian": lambda rho: rho + np.triu(np.full((4, 4), 1e-9), 1),
    "trace": lambda rho: rho * 1.001,
    "eigenvalue": lambda rho: np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex),
}


class TestValidateDensityMatrix:
    @pytest.mark.parametrize("kind", sorted(INVALID_RHOS))
    @pytest.mark.parametrize("k", [0, 2, 5])
    def test_stack_raises_its_first_invalid_matrix_message(self, kind, k):
        rng = np.random.default_rng(k)
        rhos = np.stack([_random_rho(rng) for _ in range(6)])
        bad = INVALID_RHOS[kind](rhos[k])
        with pytest.raises(ValueError) as alone:
            validate_density_matrix(bad)
        rhos[k] = bad
        if k < 5:
            # A later matrix that fails another check does not win.
            rhos[5] = INVALID_RHOS["trace" if kind != "trace" else "hermitian"](rhos[5])
        for stack in (rhos, rhos.reshape(2, 3, 4, 4)):
            with pytest.raises(ValueError) as stacked:
                validate_density_matrix(stack)
            assert str(stacked.value) == str(alone.value)

    def test_valid_matrix_and_stack_pass_unchanged(self):
        rng = np.random.default_rng(1)
        rhos = np.stack([_random_rho(rng) for _ in range(4)])
        assert np.array_equal(validate_density_matrix(rhos), rhos)
        assert np.array_equal(validate_density_matrix(rhos[2]), rhos[2])

    @pytest.mark.parametrize("shape", [(3, 3), (4,), (2, 3, 3), (4, 4, 2)])
    def test_wrong_shape_is_named(self, shape):
        with pytest.raises(ValueError, match=rf"^density matrix must be 4x4, got \({', '.join(map(str, shape))},?\)$"):
            validate_density_matrix(np.zeros(shape))


def test_herald_probability_adds_terms_in_order():
    """A PureState is heralded as a one-point grid whose kept terms are
    added one after another, as a loop over its terms adds them.  For this
    state numpy's pairwise sum of the same values differs in the last bit."""
    config = build_preset_config("polarization-correlation", {})
    circuit = compile_circuit(config)
    state, reg = run(circuit), circuit.registry
    requirements, read = _herald_request(_detector_groups(reg, config.detectors), config.heralds[0])
    read_idx = {reg.index(m) for m in read}
    grouped = {reg.index(m) for modes, _ in requirements.values() for m in modes}
    kept = [
        abs(amp) ** 2
        for occ, amp in state.terms.items()
        if all(sum(occ[reg.index(m)] for m in modes) == n for modes, n in requirements.values())
        and not any(occ[i] for i in read_idx - grouped)
        and any(occ[i] for i in read_idx)
    ]
    in_order = 0.0
    for weight in kept:
        in_order += weight
    assert np.array(kept).reshape(-1, 1).sum(axis=0)[0] != in_order
    total, _ = heralded_polarization_dm(state, requirements, read, config.kept)
    assert total == in_order


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


CORPUS = Path(__file__).resolve().parent / "data" / "exact" / "corpus"
DELAY_PERIOD = 0.788 / 2.0  # both photons of the delayed pair acquire the fringe phase


def _sse(fit: dict, deltas, values) -> float:
    residuals = np.asarray(values, dtype=float) - delay_fringe_model(deltas, fit, DELAY_PERIOD)
    return float(residuals @ residuals)


def _delay_curve(peak_visibility: float, delta_range: str):
    rows = scan(ExperimentConfig.from_dict(fusion_delay_config(peak_visibility)), "elements.0.delta_um", delta_range)
    return [r["param"] for r in rows], [r["p_coincidence"] for r in rows]


def _fit_at_most_curve_fit(deltas, values) -> dict:
    """fit_delay_fringe's fit, after checking that its sum of squared
    residuals is at most curve_fit's, within 1e-12 relative, or below
    1e-26, where an exact curve leaves only rounding."""
    fit = fit_delay_fringe(deltas, values, DELAY_PERIOD)
    sse, oracle = _sse(fit, deltas, values), _sse(delay_fringe_via_curve_fit(deltas, values, DELAY_PERIOD), deltas, values)
    assert sse <= oracle * (1.0 + 1e-12) or sse < 1e-26, (sse, oracle)
    return fit


class TestDelayFringeFit:
    @pytest.mark.parametrize("run", ["perm", "i-reflect", "seed12345/perm", "seed12345/i-reflect"])
    @pytest.mark.parametrize("column", ["p_coincidence", "counts_coincidence"])
    def test_corpus_curves_fit_at_least_as_well_as_curve_fit(self, run, column):
        with open(CORPUS / run / "fusion-delay-scan" / "fusion-delay-scan.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        fit = _fit_at_most_curve_fit([float(r["delta_um"]) for r in rows], [float(r[column]) for r in rows])
        assert fit["envelope_width_um"] == pytest.approx(200.0, rel=0.01)

    def test_flat_curve_has_no_visibility(self):
        """curve_fit stopped at V0 = 4.5e-5 on this curve."""
        fit = _fit_at_most_curve_fit(*_delay_curve(0.0, "-600:600:1"))
        assert fit["peak_visibility"] < 1e-12

    def test_half_visibility_on_a_narrow_scan(self):
        """Without its halved steps the width search stopped at its upper bound here."""
        fit = _fit_at_most_curve_fit(*_delay_curve(0.5, "-50:50:1"))
        assert fit["peak_visibility"] == pytest.approx(0.5, abs=1e-12)
        assert fit["envelope_width_um"] == pytest.approx(200.0, rel=1e-9)

    def test_far_tail_recovers_the_envelope(self):
        """curve_fit stopped at V0 = 0.069 on the tail, where the fringe is under 1e-11."""
        fit = _fit_at_most_curve_fit(*_delay_curve(1.0, "1000:1200:1"))
        assert fit["peak_visibility"] == pytest.approx(1.0, abs=1e-3)
        assert fit["envelope_width_um"] == pytest.approx(200.0, rel=1e-4)

    def test_width_held_at_its_bound(self):
        """Five points within 2 um of zero delay cannot resolve a 200 um
        envelope: the width stops at its bound, 10 max|d|."""
        fit = _fit_at_most_curve_fit(*_delay_curve(1.0, "-2:2:1"))
        assert fit["envelope_width_um"] == 20.0

    def test_visibility_above_curve_fits_bound_is_reported(self):
        deltas = np.arange(-300.0, 301.0)
        truth = {"offset": 0.3, "peak_visibility": 2.0, "envelope_width_um": 120.0, "fringe_phase": 0.7}
        fit = fit_delay_fringe(deltas, delay_fringe_model(deltas, truth, DELAY_PERIOD), DELAY_PERIOD)
        assert fit == pytest.approx(truth, rel=1e-9)

    @pytest.mark.parametrize("offset", [0.0, -0.25])
    def test_offset_not_positive_rejected(self, offset):
        deltas = np.arange(-50.0, 51.0)
        truth = {"offset": offset, "peak_visibility": 0.5, "envelope_width_um": 30.0, "fringe_phase": 0.0}
        with pytest.raises(ValueError, match="^delay fringe fit: no finite peak visibility at the fitted offset C = "):
            fit_delay_fringe(deltas, delay_fringe_model(deltas, truth, DELAY_PERIOD), DELAY_PERIOD)


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

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 6), st.integers(1, 9), st.integers(0, 2**31), st.integers(0, 10_000), st.randoms())
    def test_block_is_its_rows_drawn_in_order_from_one_generator(self, patterns, points, seed, shots, rnd):
        # Each point's probabilities, some exactly 0, summing to 1 up to rounding.
        table = np.array([[rnd.choice([0.0, rnd.random()]) for _ in range(points)] for _ in range(patterns)])
        table[rnd.randrange(patterns)] += 1e-3
        table /= table.sum(axis=0)
        distribution = [(f"p{j}", column.tolist()) for j, column in enumerate(table)]
        block = dict(sample_counts(distribution, shots, seed))
        drawn = np.array([block[key] for key, _ in distribution]).T
        rows = np.ascontiguousarray(table.T)
        rows /= np.add.reduce(rows, axis=1)[:, None]
        rng = np.random.default_rng(seed)
        assert drawn.tolist() == [rng.multinomial(shots, row).tolist() for row in rows]
        # Two sub-blocks drawn back to back from that generator.
        rng, split = np.random.default_rng(seed), rnd.randrange(points + 1)
        assert drawn.tolist() == np.concatenate([rng.multinomial(shots, rows[:split]), rng.multinomial(shots, rows[split:])]).tolist()

    def test_scalar_draws_a_probability_within_tolerance_as_zero(self):
        distribution = [("a", 0.5), ("b", 0.5), ("c", -1e-15)]
        counts = dict(sample_counts(distribution, 10, seed=1))
        assert counts["c"] == 0 and counts["a"] + counts["b"] == 10
        block = dict(sample_counts([(key, [p]) for key, p in distribution], 10, seed=1))
        assert counts == {key: c[0] for key, c in block.items()}

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.sampled_from([0.0, 0.05, 0.3, 0.5, 1.0]), min_size=1, max_size=6), st.integers(0, 2**31), st.integers(0, 10_000))
    def test_scalar_draw_is_numpys_over_every_pattern(self, weights, seed, shots):
        """Zero-probability patterns, dropped from the draw, change no count."""
        weights[0] += 0.1
        p = np.array(weights) / sum(weights)
        counts = [c for _, c in sample_counts(list(enumerate(p.tolist())), shots, seed)]
        assert counts == np.random.default_rng(seed).multinomial(shots, p / np.add.reduce(p)).tolist()

    def test_block_rejects_its_first_bad_point(self):
        distribution = [("a", [0.5, 0.4, 0.3]), ("b", [0.5, 0.4, 0.3])]
        with pytest.raises(ValueError, match=r"^probabilities sum to 0\.8, not 1$"):
            sample_counts(distribution, 10, seed=1)


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


def test_off_pair_messages_do_not_depend_on_term_order(monkeypatch):
    """Every herald-table kept_support string, and the error each herald
    pattern's heralded_polarization_dm raises, names the same term
    whatever the order of the state's terms."""
    import eventready.presets as presets

    config = build_preset_config("herald-table", {})
    state = run(compile_circuit(config))
    want = run_preset("herald-table").report["patterns"]
    groups = _detector_groups(state.registry, config.detectors)
    read = tuple(m for name in sorted(groups) for m in groups[name])
    rng = np.random.default_rng(3)
    items = list(state.terms.items())
    for order in (items[::-1], [items[i] for i in rng.permutation(len(items))]):
        shuffled = PureState(state.registry, dict(order))
        monkeypatch.setattr(presets, "run", lambda circuit: shuffled)
        got = run_preset("herald-table").report["patterns"]
        assert [row.get("kept_support") for row in got] == [row.get("kept_support") for row in want]
        for row in want:
            if "kept_support" not in row:
                continue
            requirements = {name: (groups[name], count) for name, count in row["pattern"].items()}
            for each in (state, shuffled):
                with pytest.raises(FockError) as error:
                    heralded_polarization_dm(each, requirements, read, config.kept)
                assert str(error.value) == row["kept_support"]


def _csv_cells(text: str) -> list:
    """The cells of a CSV, as int, float or string, for _assert_same_report."""

    def cell(value):
        for kind in (int, float):
            try:
                return kind(value)
            except ValueError:
                pass
        return value

    return [[cell(value) for value in row] for row in csv.reader(text.splitlines())]


@pytest.mark.parametrize(
    "preset, curve",
    [
        ("eq1-check", False),
        ("bell-decomposition", False),
        ("hom-scan", True),
        ("polarization-correlation", True),
        ("chsh", False),
    ],
)
def test_preset_matches_its_reference_outputs(tmp_path, preset, curve):
    """The report, and any curve CSV, of each preset at its default
    arguments, as written before each config element lowered to one
    transform."""
    data = Path(__file__).parent / "data"
    stem = preset.replace("-", "_")
    run_preset(preset, out_dir=tmp_path)
    got = json.loads((tmp_path / f"{preset}.report.json").read_text())
    _assert_same_report(got, json.loads((data / f"{stem}_report.json").read_text()))
    if curve:
        got = _csv_cells((tmp_path / f"{preset}.csv").read_text())
        _assert_same_report(got, _csv_cells((data / f"{stem}.csv").read_text()))


def test_herald_table_files_each_term_once_without_herald_terms(monkeypatch):
    """The herald table reads its state in one pass, not one herald_terms
    filter per detector pattern."""
    import eventready.analysis as analysis
    import eventready.presets as presets

    calls = []
    for module in (analysis, presets):
        original = module.herald_terms
        monkeypatch.setattr(module, "herald_terms", lambda *a, original=original: calls.append(a) or original(*a))
    assert run_preset("herald-table").report["patterns"]
    assert calls == []
