import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventready import (
    ModeId,
    ModeRegistry,
    PhotonSpec,
    apply_mode_unitary,
    basis_state,
    beamsplitter,
    bin_mixer,
    check_unitarity,
    compose,
    delay,
    hwp,
    pbs,
    phase_shift,
    polarizer,
    prepare_product_state,
    rpbs,
)
from eventready.distinguishability import OverlapModel
from eventready.elements import ElementError, lower_element


@pytest.fixture
def reg():
    return ModeRegistry(["p1", "p2", "loss"], bins=2)


def one_photon(reg, spatial, pol, bin_index=0):
    return basis_state(reg, {ModeId(spatial, pol, bin_index): 1})


def mode_amplitudes(state, spatial):
    """Amplitude per (pol, bin) of a one-photon state restricted to one label."""
    out = {}
    for occ, amp in state.terms.items():
        for m, n in zip(state.registry.modes, occ):
            if n and m.spatial == spatial:
                out[(m.pol, m.bin)] = amp
    return out


class TestPBS:
    def test_h_transmits(self, reg):
        st = apply_mode_unitary(one_photon(reg, "p1", "H"), pbs(reg, "p1", "p2"))
        assert st.amplitude(next(iter(one_photon(reg, "p1", "H").terms))) == pytest.approx(1.0)

    def test_v_reflects(self, reg):
        st = apply_mode_unitary(one_photon(reg, "p1", "V"), pbs(reg, "p1", "p2"))
        assert st.amplitude(next(iter(one_photon(reg, "p2", "V").terms))) == pytest.approx(1.0)

    def test_plus_plus_gives_four_way_split(self, reg):
        st = prepare_product_state(reg, [PhotonSpec.plus("p1"), PhotonSpec.plus("p2")])
        out = apply_mode_unitary(st, pbs(reg, "p1", "p2"))
        hv_p1 = basis_state(reg, {ModeId("p1", "H", 0): 1, ModeId("p1", "V", 0): 1})
        hv_p2 = basis_state(reg, {ModeId("p2", "H", 0): 1, ModeId("p2", "V", 0): 1})
        hh = basis_state(reg, {ModeId("p1", "H", 0): 1, ModeId("p2", "H", 0): 1})
        vv = basis_state(reg, {ModeId("p1", "V", 0): 1, ModeId("p2", "V", 0): 1})
        assert len(out.terms) == 4
        for piece in (hv_p1, hv_p2, hh, vv):
            assert out.amplitude(next(iter(piece.terms))) == pytest.approx(0.5)

    def test_double_pbs_is_identity(self, reg):
        element = pbs(reg, "p1", "p2")
        twice = compose([element, element])
        assert np.allclose(twice.matrix, np.eye(len(twice.modes)), atol=1e-12)

    def test_i_reflect_convention(self, reg):
        st = apply_mode_unitary(
            one_photon(reg, "p1", "V"), pbs(reg, "p1", "p2", convention="i-reflect")
        )
        assert st.amplitude(next(iter(one_photon(reg, "p2", "V").terms))) == pytest.approx(1j)

    def test_same_port_rejected(self, reg):
        with pytest.raises(ElementError):
            pbs(reg, "p1", "p1")


class TestHWP:
    def test_zero_angle_flips_h_sign(self, reg):
        element = hwp(reg, "p1", 0.0)
        v_out = apply_mode_unitary(one_photon(reg, "p1", "V"), element)
        h_out = apply_mode_unitary(one_photon(reg, "p1", "H"), element)
        assert v_out.amplitude(next(iter(one_photon(reg, "p1", "V").terms))) == pytest.approx(1.0)
        assert h_out.amplitude(next(iter(one_photon(reg, "p1", "H").terms))) == pytest.approx(-1.0)

    def test_22p5_rotates_v_to_diagonal(self, reg):
        out = apply_mode_unitary(one_photon(reg, "p1", "V"), hwp(reg, "p1", 22.5))
        amps = mode_amplitudes(out, "p1")
        s = 1 / math.sqrt(2)
        assert amps[("V", 0)] == pytest.approx(s)
        assert amps[("H", 0)] == pytest.approx(s)

    def test_45_swaps_h_and_v(self, reg):
        out = apply_mode_unitary(one_photon(reg, "p1", "V"), hwp(reg, "p1", 45.0))
        assert out.amplitude(next(iter(one_photon(reg, "p1", "H").terms))) == pytest.approx(1.0)

    @pytest.mark.parametrize("angle", [0.0, 10.0, 22.5, 45.0, 80.0])
    def test_involutive(self, reg, angle):
        element = hwp(reg, "p1", angle)
        twice = compose([element, element])
        assert np.allclose(twice.matrix, np.eye(len(twice.modes)), atol=1e-12)


class TestRPBS:
    def test_composite_equals_conjugated_pbs(self, reg):
        composite = compose(rpbs(reg, "p1", "p2"))
        sandwich = compose(
            [hwp(reg, "p1", 22.5), hwp(reg, "p2", 22.5), pbs(reg, "p1", "p2"),
             hwp(reg, "p1", 22.5), hwp(reg, "p2", 22.5)]
        )
        assert np.allclose(composite.matrix, sandwich.matrix, atol=1e-12)
        assert check_unitarity(composite).ok

    def test_maps_diagonal_basis_like_pbs_maps_hv(self, reg):
        # +45 plays the role of V (reflects); -45 plays the role of H (transmits).
        s = 1 / math.sqrt(2)
        plus45 = prepare_product_state(reg, [PhotonSpec("p1", (s, s), (1.0,))])
        minus45 = prepare_product_state(reg, [PhotonSpec("p1", (-s, s), (1.0,))])
        composite = compose(rpbs(reg, "p1", "p2"))
        out_plus = apply_mode_unitary(plus45, composite)
        out_minus = apply_mode_unitary(minus45, composite)
        amps_plus = mode_amplitudes(out_plus, "p2")
        assert amps_plus[("V", 0)] == pytest.approx(s)
        assert amps_plus[("H", 0)] == pytest.approx(s)
        amps_minus = mode_amplitudes(out_minus, "p1")
        assert amps_minus[("V", 0)] == pytest.approx(s)
        assert amps_minus[("H", 0)] == pytest.approx(-s)

    def test_bunching_never_splits_hv_pair(self, reg):
        hv = basis_state(reg, {ModeId("p1", "H", 0): 1, ModeId("p1", "V", 0): 1})
        out = apply_mode_unitary(hv, compose(rpbs(reg, "p1", "p2")))
        for occ, amp in out.terms.items():
            port1 = out.count_in(occ, reg.group("p1"))
            port2 = out.count_in(occ, reg.group("p2"))
            assert (port1, port2) in {(2, 0), (0, 2)}, (occ, amp)


class TestPolarizer:
    def test_pass_axis_component_stays(self, reg):
        element = polarizer(reg, "p1", 0.0, "loss")
        out = apply_mode_unitary(one_photon(reg, "p1", "V"), element)
        assert out.amplitude(next(iter(one_photon(reg, "p1", "V").terms))) == pytest.approx(1.0)

    def test_diagonal_input_splits_half_half(self, reg):
        element = polarizer(reg, "p1", 0.0, "loss")
        st = prepare_product_state(reg, [PhotonSpec.plus("p1")])
        out = apply_mode_unitary(st, element)
        p_pass = sum(
            abs(a) ** 2 for occ, a in out.terms.items() if out.count_in(occ, reg.group("p1"))
        )
        assert p_pass == pytest.approx(0.5)

    def test_malus_law_at_45(self, reg):
        element = polarizer(reg, "p1", 45.0, "loss")
        out = apply_mode_unitary(one_photon(reg, "p1", "H"), element)
        p_pass = sum(
            abs(a) ** 2 for occ, a in out.terms.items() if out.count_in(occ, reg.group("p1"))
        )
        assert p_pass == pytest.approx(0.5)

    @pytest.mark.parametrize("angle", [0.0, 20.0, 45.0, 77.0])
    @pytest.mark.parametrize("pol", ["H", "V"])
    def test_pass_plus_loss_is_one(self, reg, angle, pol):
        element = polarizer(reg, "p1", angle, "loss")
        out = apply_mode_unitary(one_photon(reg, "p1", pol), element)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_loss_label_must_differ(self, reg):
        with pytest.raises(ElementError):
            polarizer(reg, "p1", 0.0, "p1")


class TestPhaseBeamsplitterDelay:
    def test_zero_phase_is_identity(self, reg):
        t = phase_shift(reg, "p1", 0.0)
        assert np.allclose(t.matrix, np.eye(len(t.modes)), atol=1e-15)

    def test_phase_applies_to_selected_pol(self, reg):
        t = phase_shift(reg, "p1", math.pi / 2, pol="V")
        out = apply_mode_unitary(one_photon(reg, "p1", "V"), t)
        assert out.amplitude(next(iter(one_photon(reg, "p1", "V").terms))) == pytest.approx(1j)

    def test_full_transmissivity_is_identity(self, reg):
        t = beamsplitter(reg, "p1", "p2", 1.0)
        assert np.allclose(t.matrix, np.eye(len(t.modes)), atol=1e-15)

    def test_transmissivity_range_checked(self, reg):
        with pytest.raises(ElementError):
            beamsplitter(reg, "p1", "p2", 1.2)

    def test_zero_delay_is_identity(self, reg):
        t = delay(reg, "p1", 0.0, model=OverlapModel())
        assert np.allclose(t.matrix, np.eye(len(t.modes)), atol=1e-15)

    def test_delay_moves_amplitude_to_fresh_bin(self, reg):
        model = OverlapModel(coherence_length_um=200.0, fringe_period_um=0.788)
        t = delay(reg, "p1", 200.0, model=model)
        out = apply_mode_unitary(one_photon(reg, "p1", "H"), t)
        amps = mode_amplitudes(out, "p1")
        assert abs(amps[("H", 0)]) == pytest.approx(math.exp(-0.5))
        assert abs(amps[("H", 1)]) == pytest.approx(math.sqrt(1 - math.exp(-1.0)))

    @pytest.mark.parametrize(
        "delta_um, model, message",
        [
            (5.0, OverlapModel(fringe_period_um=1e-310), "no finite fringe phase"),
            (10**400, OverlapModel(), "too large to convert to float"),
        ],
        ids=["infinite-phase", "huge-integer"],
    )
    def test_delay_without_a_float_overlap_raises_element_error(self, reg, delta_um, model, message):
        with pytest.raises(ElementError, match=message):
            delay(reg, "p1", delta_um, model=model)

    def test_bin_mixer_overlap_bound(self, reg):
        with pytest.raises(ElementError):
            bin_mixer(reg, "p1", 1.5)

    def test_bin_mixer_rejects_clashing_map(self, reg):
        with pytest.raises(ElementError):
            bin_mixer(reg, "p1", 0.5, bin_map={0: 0})


class TestUnitarity:
    def test_every_constructor_passes(self, reg):
        elements = [
            pbs(reg, "p1", "p2"),
            pbs(reg, "p1", "p2", convention="i-reflect"),
            hwp(reg, "p1", 22.5),
            hwp(reg, "p2", 0.0),
            polarizer(reg, "p1", 30.0, "loss"),
            phase_shift(reg, "p1", 1.23),
            beamsplitter(reg, "p1", "p2", 0.37),
            delay(reg, "p1", 130.0, model=OverlapModel()),
            bin_mixer(reg, "p2", 0.6 + 0.3j, pol="V"),
            compose(rpbs(reg, "p1", "p2")),
        ]
        for element in elements:
            report = check_unitarity(element)
            assert report.ok, report

    def test_check_unitarity_flags_scaled_row(self, reg):
        from eventready import ModeTransform

        m = np.eye(4, dtype=complex)
        m[1] *= 1.01
        t = ModeTransform(tuple(reg.group("p1")), m)
        report = check_unitarity(t)
        assert not report.ok
        assert report.max_deviation == pytest.approx(2.01e-2, rel=0.01)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# Per scanned field: the element without it, the field ("model": an array
# of OverlapModels instead), and a strategy for its values.
COLUMN_CASES = {
    "delay-delta": ({"kind": "delay", "port": "p1", "bin_map": {"0": 1}}, "delta_um", _floats(-900.0, 900.0)),
    "delay-model": ({"kind": "delay", "port": "p1", "delta_um": 130.0}, "model", _floats(1.0, 400.0)),
    "hwp": ({"kind": "hwp", "port": "p2"}, "angle_deg", _floats(-400.0, 400.0)),
    "polarizer": ({"kind": "polarizer", "port": "p1", "loss": "loss"}, "angle_deg", _floats(-400.0, 400.0)),
    "phase": ({"kind": "phase", "port": "p1", "pol": "V"}, "phi", _floats(-10.0, 10.0)),
    "beamsplitter": ({"kind": "beamsplitter", "ports": ["p1", "p2"]}, "transmissivity", _floats(0.0, 1.0)),
    "bin-mixer": ({"kind": "bin_mixer", "port": "p2"}, "overlap", _floats(-1.0, 1.0)),
    "bin-mixer-re": ({"kind": "bin_mixer", "port": "p2", "pol": "H"}, "overlap.0", _floats(-0.7, 0.7)),
    "bin-mixer-im": ({"kind": "bin_mixer", "port": "p2"}, "overlap.1", _floats(-0.7, 0.7)),
}


@st.composite
def column_cases(draw):
    el, field, values = COLUMN_CASES[draw(st.sampled_from(sorted(COLUMN_CASES)))]
    return el, field, draw(st.lists(values, min_size=1, max_size=6))


def _with_field(el: dict, field: str, value):
    """el with value at field, or at one part of an [re, im] field (the other part 0.3)."""
    name, _, part = field.partition(".")
    if part:
        value = [value, 0.3] if part == "0" else [0.3, value]
    return {**el, name: value}


class TestColumnLowering:
    """A field given as an array over a scan's points lowers, in one call,
    to the stack of the matrices its values lower to one at a time."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(column_cases())
    def test_stacked_lowering_equals_each_value_lowered_alone(self, case):
        el, field, values = case
        reg = ModeRegistry(["p1", "p2", "loss"], bins=2)
        if field == "model":
            models = [OverlapModel(coherence_length_um=v) for v in values]
            stacked = lower_element(el, reg, model=np.array(models))
            alone = [lower_element(el, reg, model=m) for m in models]
        else:
            stacked = lower_element(_with_field(el, field, np.array(values)), reg, model=OverlapModel())
            alone = [lower_element(_with_field(el, field, v), reg, model=OverlapModel()) for v in values]
        assert all(t.modes == stacked.modes for t in alone)
        assert stacked.matrix.shape == (len(values), len(stacked.modes), len(stacked.modes))
        assert np.array_equal(stacked.matrix, np.stack([t.matrix for t in alone]))

    def test_a_bad_value_in_a_stack_raises_its_own_error(self):
        reg = ModeRegistry(["p1", "p2", "loss"], bins=2)
        el = {"kind": "beamsplitter", "ports": ["p1", "p2"], "transmissivity": np.array([0.2, 1.5, -1.0])}
        with pytest.raises(ElementError, match=r"^transmissivity 1\.5 outside \[0, 1\]$"):
            lower_element(el, reg)
