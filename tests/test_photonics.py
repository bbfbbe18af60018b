"""Source, channel and detector model tests against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import folded_amplitudes, gain_by_sum, true_n_photon_stats
from rfiqsdc.photonics import (
    ChannelSpec,
    NoClicksError,
    PAIR_LABELS,
    _folded_amplitudes,
    ba_observed,
    bab_stats,
    detector_yield,
    distance_from_attenuation,
    gain_component,
    poisson_pn,
)

INTENSITIES = {"signal": 0.1, "decoy1": 0.005, "decoy2": 0.001}


class TestPoisson:
    def test_vacuum_source(self):
        assert poisson_pn(0.0, 0) == 1.0
        assert poisson_pn(0.0, 3) == 0.0

    def test_single_photon_probability(self):
        assert poisson_pn(0.1, 1) == pytest.approx(0.1 * math.exp(-0.1), abs=1e-12)
        assert poisson_pn(0.1, 1) == pytest.approx(0.0904837, abs=1e-7)

    def test_normalization(self):
        total = sum(poisson_pn(0.05, n) for n in range(51))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            poisson_pn(-0.1, 0)
        with pytest.raises(ValueError):
            poisson_pn(0.1, -1)


class TestChannel:
    def test_distance_mapping(self):
        assert distance_from_attenuation(ChannelSpec(attenuation_db=10.0)) == pytest.approx(25.0)
        assert distance_from_attenuation(ChannelSpec(attenuation_db=11.15)) == pytest.approx(27.875)
        assert distance_from_attenuation(ChannelSpec(attenuation_db=0.0)) == 0.0

    def test_leg_transmission(self):
        spec = ChannelSpec(attenuation_db=0.0)
        assert spec.transmission_ba == pytest.approx(0.21)
        spec10 = ChannelSpec(attenuation_db=10.0)
        assert spec10.transmission_ba == pytest.approx(0.21 * 10**-0.5, abs=1e-9)
        assert spec10.transmission_ba == pytest.approx(0.066408, abs=1e-6)
        assert spec10.transmission_bab == pytest.approx(0.0088, abs=1e-12)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ChannelSpec(attenuation_db=-1.0)
        with pytest.raises(ValueError):
            ChannelSpec(pd=1.5)
        with pytest.raises(ValueError):
            ChannelSpec(alpha_db_per_km=0.0)
        for bad in ({"n_pulses": 0.0}, {"n_pulses": math.nan}, {"u_sigma": -1.0}, {"u_sigma": math.inf}):
            with pytest.raises(ValueError):
                ChannelSpec(**bad)

    def test_fluctuation_scale(self):
        assert ChannelSpec(n_pulses=1e12, u_sigma=5.0).fluctuation == pytest.approx(5e-6)
        assert ChannelSpec(n_pulses=math.inf).fluctuation == 0.0
        assert ChannelSpec(u_sigma=0.0).fluctuation == 0.0


class TestAmplitudes:
    """The closed-form (nominal, complementary) amplitude table of the five pairs."""

    def test_matched_state_aligned(self):
        assert _folded_amplitudes(0.0)["XX"] == (1.0, 0.0)

    def test_misaligned_projection(self):
        beta = math.radians(45.0)
        nominal, _ = _folded_amplitudes(beta)["XX"]
        assert nominal == pytest.approx((1 + math.cos(beta)) / 2, abs=1e-12)
        assert nominal == pytest.approx(0.853553, abs=1e-6)

    def test_cross_basis_coupling(self):
        # an R preparation seen by the rotated X basis picks up cos(pi/2 - beta)
        assert _folded_amplitudes(0.0)["XY"] == pytest.approx((0.5, 0.5), abs=1e-15)
        nominal, _ = _folded_amplitudes(math.radians(45.0))["XY"]
        assert nominal == pytest.approx(0.853553, abs=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(beta=st.floats(-10.0, 10.0), label=st.sampled_from(PAIR_LABELS))
    def test_complementarity(self, beta, label):
        nominal, other = _folded_amplitudes(beta)[label]
        assert nominal >= other
        assert abs(nominal + other - 1.0) <= 1e-12

    @staticmethod
    def _assert_equals_bloch_oracle(beta):
        table = _folded_amplitudes(beta)
        assert tuple(table) == PAIR_LABELS
        for label in PAIR_LABELS:
            assert table[label] == folded_amplitudes(ChannelSpec(beta_rad=beta), label), (label, beta)

    def test_equals_bloch_oracle_on_grid(self):
        # bit for bit: every observed gain downstream inherits these amplitudes
        for half_degrees in range(181):
            self._assert_equals_bloch_oracle(math.radians(half_degrees / 2))

    @settings(max_examples=300, deadline=None)
    @given(beta=st.floats(-10.0, 10.0))
    def test_equals_bloch_oracle_at_any_beta(self, beta):
        self._assert_equals_bloch_oracle(beta)


class TestDetector:
    def test_vacuum_yield_is_dark_count_driven(self):
        pd = 8e-8
        assert detector_yield(0, 0.3, 0.7, pd) == pytest.approx(pd * (1 - pd), abs=1e-15)

    def test_single_photon_right_detector(self):
        assert detector_yield(1, 0.0, 0.7, 0.0) == pytest.approx(0.7, abs=1e-12)

    def test_two_photons_split(self):
        assert detector_yield(2, 0.5, 0.7, 0.0) == pytest.approx(0.65**2 - 0.3**2, abs=1e-12)
        assert detector_yield(2, 0.5, 0.7, 0.0) == pytest.approx(0.3325, abs=1e-12)


class TestGain:
    def test_direct_value(self):
        value = gain_component(0.1, 0.1, 0.7, 0.0, 0.0)
        assert value == pytest.approx(1.0 - math.exp(-0.007), abs=1e-12)
        assert value == pytest.approx(0.0069756, abs=1e-6)
        assert value == pytest.approx(gain_by_sum(0.1, 0.1, 0.7, 0.0, 0.0, n_max=60), abs=1e-12)

    def test_vacuum_pulse(self):
        pd = 8e-8
        assert gain_component(0.0, 0.5, 0.7, pd, 0.3) == pytest.approx(pd * (1 - pd), abs=1e-15)

    def test_all_light_on_other_detector(self):
        assert gain_component(0.2, 0.5, 0.7, 0.0, 1.0) == 0.0

    def test_poisson_sum_consistency(self):
        # the closed form must equal the photon-number-resolved sum; this pins
        # the detector-yield exponent structure to the exponential gains
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(200):
            intensity = rng.uniform(0.0, 0.6)
            eta_chan = rng.uniform(1e-4, 1.0)
            eta_d = rng.uniform(0.05, 1.0)
            pd = rng.uniform(0.0, 1e-2)
            fy_sq = rng.uniform(0.0, 1.0)
            direct = gain_component(intensity, eta_chan, eta_d, pd, fy_sq)
            summed = gain_by_sum(intensity, eta_chan, eta_d, pd, fy_sq)
            worst = max(worst, abs(direct - summed))
        assert worst <= 1e-10


class TestPairStats:
    def test_aligned_noiseless_x_basis(self):
        spec = ChannelSpec(attenuation_db=4.0, pd=0.0, ed_a=0.0, beta_rad=0.0)
        _, e = ba_observed(spec, INTENSITIES).entries[("signal", "XX")]
        assert e == pytest.approx(0.0, abs=1e-12)

    def test_single_photon_limit_misaligned(self):
        spec = ChannelSpec(attenuation_db=4.0, pd=0.0, ed_a=0.0, beta_rad=math.radians(45.0))
        table = ba_observed(spec, {"signal": 1e-9, "decoy1": 5e-10, "decoy2": 1e-10})
        _, e = table.entries[("signal", "XX")]
        assert e == pytest.approx((1 - math.cos(math.radians(45.0))) / 2, abs=1e-6)
        assert e == pytest.approx(0.146447, abs=1e-5)

    def test_matches_truncated_sum_oracle(self):
        for beta in (0.0, 0.3):
            spec = ChannelSpec(attenuation_db=4.0, beta_rad=beta)
            table = ba_observed(spec, INTENSITIES)
            for (intensity_label, label), (q, e) in table.entries.items():
                q_sum = 0.0
                z_sum = 0.0
                for n in range(81):
                    y_n, z_n = true_n_photon_stats(spec, label, n)
                    p = poisson_pn(INTENSITIES[intensity_label], n)
                    q_sum += p * y_n
                    z_sum += p * z_n
                assert q == pytest.approx(q_sum, abs=1e-10)
                assert e == pytest.approx(z_sum / q_sum, abs=1e-10)

    def test_vacuum_floor_and_monotonicity(self):
        spec = ChannelSpec(attenuation_db=8.0, beta_rad=0.3)
        vacuum = 2 * spec.pd * (1 - spec.pd) - spec.pd**2
        last = 0.0
        for intensity in (1e-4, 1e-3, 0.01, 0.05, 0.1, 0.3):
            table = ba_observed(spec, {"signal": intensity, "decoy1": intensity / 2, "decoy2": 0.0})
            q, e = table.entries[("signal", "XY")]
            assert q >= vacuum - 1e-18
            assert q >= last
            last = q
            assert spec.ed_a - 1e-12 <= e <= 1 - spec.ed_a + 1e-12

    def test_no_clicks_error(self):
        spec = ChannelSpec(attenuation_db=4.0, pd=0.0)
        with pytest.raises(NoClicksError, match="pair ZZ at intensity 0.0"):
            ba_observed(spec, {"signal": 0.1, "decoy1": 0.01, "decoy2": 0.0})
        with pytest.raises(NoClicksError, match="round-trip"):
            bab_stats(spec, 0.0)


class TestBasisPair:
    def test_observed_table_shape(self):
        spec = ChannelSpec(attenuation_db=2.0)
        table = ba_observed(spec, INTENSITIES)
        assert len(table.entries) == 15
        assert {pair for _, pair in table.entries} == {"ZZ", "XX", "XY", "YX", "YY"}
        assert table.q_ba_signal == table.entries[("signal", "ZZ")][0]
        for q, e in table.entries.values():
            assert 0.0 <= q <= 1.0
            assert 0.0 <= e <= 1.0

    def test_aligned_xy_errors_equiprobable(self):
        spec = ChannelSpec(attenuation_db=0.0, beta_rad=0.0)
        table = ba_observed(spec, INTENSITIES)
        _, e_zz = table.entries[("signal", "ZZ")]
        _, e_xy = table.entries[("signal", "XY")]
        assert e_zz == pytest.approx(spec.ed_a, abs=1e-3)
        assert e_xy == pytest.approx(0.5, abs=1e-3)


class TestBabStats:
    def test_noiseless_round_trip(self):
        spec = ChannelSpec(attenuation_db=6.0, pd=0.0, ed_b=0.0)
        _, e = bab_stats(spec, 0.1)
        assert e == 0.0

    def test_round_trip_gain_value(self):
        spec = ChannelSpec(attenuation_db=10.0)
        q, _ = bab_stats(spec, 0.1)
        # dominated by the right-detector exponential at tiny Pd
        expected = 1.0 - math.exp(-0.1 * 0.0088 * 0.7)
        assert q == pytest.approx(expected, rel=1e-3)
        assert q == pytest.approx(6.158e-4, rel=1e-3)

    def test_saturation(self):
        spec = ChannelSpec(attenuation_db=10.0)
        q, _ = bab_stats(spec, 1e6)
        assert q == pytest.approx(1.0 - spec.pd, abs=1e-9)

