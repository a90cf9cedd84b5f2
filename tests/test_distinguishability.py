import cmath
import math

import numpy as np
import pytest

from eventready import (
    ModeRegistry,
    ModeTransform,
    OverlapModel,
    PhotonSpec,
    apply_mode_unitary,
    bins_for_reference_overlap,
    overlap_from_delay,
    prepare_product_state,
)
from eventready.distinguishability import OverlapError


class TestOverlapFromDelay:
    def test_zero_delay_unity(self):
        assert overlap_from_delay(0.0) == pytest.approx(1.0)

    def test_magnitude_at_coherence_length(self):
        model = OverlapModel(coherence_length_um=200.0)
        assert abs(overlap_from_delay(200.0, model)) == pytest.approx(math.exp(-0.5))

    def test_three_coherence_lengths_kill_fringes(self):
        model = OverlapModel(coherence_length_um=200.0)
        assert abs(overlap_from_delay(600.0, model)) == pytest.approx(math.exp(-4.5), rel=1e-9)
        assert abs(overlap_from_delay(600.0, model)) < 0.012

    def test_magnitude_even_phase_odd(self):
        model = OverlapModel()
        for d in (0.37, 10.0, 123.4):
            v_plus = overlap_from_delay(d, model)
            v_minus = overlap_from_delay(-d, model)
            assert abs(v_plus) == pytest.approx(abs(v_minus), abs=1e-15)
            assert cmath.phase(v_plus) == pytest.approx(-cmath.phase(v_minus), abs=1e-12)

    def test_magnitude_monotone_in_abs_delay(self):
        model = OverlapModel()
        mags = [abs(overlap_from_delay(d, model)) for d in np.linspace(0, 800, 41)]
        assert all(a >= b - 1e-15 for a, b in zip(mags, mags[1:]))

    def test_phase_follows_fringe_period(self):
        model = OverlapModel(fringe_period_um=0.788)
        v = overlap_from_delay(0.197, model)  # quarter period
        assert cmath.phase(v) == pytest.approx(math.pi / 2, abs=1e-9)

    def test_in_range_values_follow_the_closed_form_bit_for_bit(self):
        for l, period in ((200.0, 0.788), (1e-150, 0.788), (1e150, 1e-300)):
            model = OverlapModel(coherence_length_um=l, fringe_period_um=period)
            for d in (-600.0, -1.5, 0.0, 1e-160, 0.197, 150.0, 1e150):
                try:
                    envelope = math.exp(-(d**2) / (2.0 * l * l))
                    phase = 2.0 * math.pi * d / period
                    expected = envelope * complex(math.cos(phase), math.sin(phase))
                except (ArithmeticError, ValueError):
                    continue
                assert overlap_from_delay(d, model) == expected, (l, period, d)

    def test_out_of_range_arithmetic_reaches_the_limits(self):
        # delta^2 overflows: the envelope is 0 (and so is the overlap) ...
        assert overlap_from_delay(1e200) == 0j
        # ... unless l is as large, when it is the scaled closed form.
        assert abs(overlap_from_delay(1e200, OverlapModel(coherence_length_um=1e200))) == pytest.approx(math.exp(-0.5))
        # 2 l^2 underflows: exactly 1 at zero delay, 0 away from it.
        tiny = OverlapModel(coherence_length_um=1e-200)
        assert overlap_from_delay(0.0, tiny) == 1.0
        assert overlap_from_delay(150.0, tiny) == 0j
        # The phase is not finite: 0 where the envelope is, an error elsewhere.
        assert overlap_from_delay(1e308) == 0j
        with pytest.raises(OverlapError, match="no finite fringe phase"):
            overlap_from_delay(5.0, OverlapModel(fringe_period_um=1e-310))

    def test_bad_model_rejected(self):
        with pytest.raises(OverlapError):
            OverlapModel(coherence_length_um=-1.0)


def test_reference_overlap_helper():
    bins = bins_for_reference_overlap(0.6)
    assert bins[0] == pytest.approx(0.6)
    assert abs(bins[1]) == pytest.approx(0.8)
    assert bins_for_reference_overlap(1.0) == (1.0,)


class TestBinsCollapse:
    def test_all_unit_overlaps_match_single_bin_simulation(self):
        """With every overlap at 1, extra bins change nothing downstream."""
        rng = np.random.default_rng(5)
        reg4 = ModeRegistry(["a", "b"], bins=4)
        reg1 = ModeRegistry(["a", "b"], bins=1)
        photons4 = [PhotonSpec.plus("a", bins=(1.0,)), PhotonSpec.plus("b", bins=(1.0,))]
        photons1 = [PhotonSpec.plus("a"), PhotonSpec.plus("b")]
        st4 = prepare_product_state(reg4, photons4)
        st1 = prepare_product_state(reg1, photons1)
        u = np.kron(
            np.array([[1, 1], [1, -1]]) / math.sqrt(2), np.eye(2)
        )  # couple a/b per polarization
        modes1 = reg1.modes
        t1 = ModeTransform(
            tuple(sorted(modes1, key=lambda m: (m.pol, m.spatial))), u.astype(complex)
        )
        modes4 = [m for m in reg4.modes if m.bin == 0]
        t4 = ModeTransform(
            tuple(sorted(modes4, key=lambda m: (m.pol, m.spatial))), u.astype(complex)
        )
        out4 = apply_mode_unitary(st4, t4)
        out1 = apply_mode_unitary(st1, t1)

        def strip(state):
            listing = {}
            for occ, amp in state.terms.items():
                label = tuple(
                    (m.spatial, m.pol, n)
                    for m, n in zip(state.registry.modes, occ)
                    if n
                )
                listing[label] = amp
            return listing

        l4, l1 = strip(out4), strip(out1)
        assert l4.keys() == l1.keys()
        for key, amp in l1.items():
            assert l4[key] == amp  # bit-identical
