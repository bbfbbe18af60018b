"""Invariants, information bounds and the capacity formula."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfiqsdc.security import (
    BellDiagonalAttack,
    CapacityInputs,
    binary_entropy,
    c_from_errors,
    ensemble_entropy,
    eve_gains,
    eve_info_bound,
    gram_entropy,
    holevo_oracle,
    secrecy_capacity,
)


def random_attack(rng, equal_tail=False):
    raw = rng.dirichlet(np.ones(3 if equal_tail else 4))
    if equal_tail:
        l1, l2, tail = raw
        lambdas = (l1, l2, tail / 2.0, tail / 2.0)
    else:
        lambdas = tuple(raw)
    return BellDiagonalAttack(
        lambdas=lambdas,
        chi=rng.uniform(0.0, 2.0 * math.pi),
        chi_prime=rng.uniform(0.0, 2.0 * math.pi),
    )


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_value(self):
        assert binary_entropy(0.02) == pytest.approx(0.141441, abs=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(x=st.floats(0.0, 1.0))
    def test_symmetry(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)


class TestInvariants:
    def test_perfect_aligned_correlations(self):
        assert c_from_errors(0.0, 0.5, 0.5, 0.0) == pytest.approx(2.0)

    def test_no_correlations(self):
        assert c_from_errors(0.5, 0.5, 0.5, 0.5) == 0.0

    def test_rotational_invariance(self):
        # an ideal noiseless single-photon channel keeps C = 2 at any angle
        beta = math.radians(30.0)
        e_xx = (1 - math.cos(beta)) / 2
        e_yy = e_xx
        e_xy = (1 + math.sin(beta)) / 2
        e_yx = (1 - math.sin(beta)) / 2
        assert c_from_errors(e_xx, e_xy, e_yx, e_yy) == pytest.approx(2.0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(e=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    def test_flip_symmetry(self, e):
        flipped = [1.0 - x for x in e]
        assert c_from_errors(*e) == pytest.approx(c_from_errors(*flipped), abs=1e-12)


class TestEveInfoBound:
    def test_extremes(self):
        assert eve_info_bound(2.0) == 0.0
        assert eve_info_bound(0.0) == 1.0

    def test_midpoint(self):
        assert eve_info_bound(1.0) == pytest.approx(0.600876, abs=1e-6)

    def test_monotone_decreasing(self):
        grid = np.linspace(0.0, 2.0, 101)
        values = [eve_info_bound(c) for c in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_marginal_clamp_and_rejection(self):
        assert eve_info_bound(-1e-10) == pytest.approx(1.0, abs=1e-6)
        assert eve_info_bound(2.0 + 1e-10) == pytest.approx(0.0, abs=1e-6)
        with pytest.raises(ValueError):
            eve_info_bound(-1e-3)
        with pytest.raises(ValueError):
            eve_info_bound(2.1)


class TestHolevoOracle:
    def test_pure_state_leaks_nothing(self):
        attack = BellDiagonalAttack(lambdas=(1.0, 0.0, 0.0, 0.0), chi=0.7)
        assert holevo_oracle(attack) == pytest.approx(0.0, abs=1e-10)
        assert attack.c_value == pytest.approx(2.0)

    def test_two_term_mixture_matches_closed_form(self):
        attack = BellDiagonalAttack(lambdas=(0.7, 0.3, 0.0, 0.0), chi=0.4)
        assert attack.c_value == pytest.approx(0.32, abs=1e-12)
        value = holevo_oracle(attack)
        assert value == pytest.approx(binary_entropy(0.7), abs=1e-10)
        assert value == pytest.approx(0.881291, abs=1e-6)
        assert value == pytest.approx(eve_info_bound(0.32), abs=1e-10)

    def test_closed_form_not_universal(self):
        # C = 1 here, yet the oracle says a full bit leaks: the closed form is
        # exact only when the last two mixture weights coincide
        attack = BellDiagonalAttack(lambdas=(0.5, 0.0, 0.5, 0.0))
        assert attack.c_value == pytest.approx(1.0)
        assert holevo_oracle(attack) == pytest.approx(1.0, abs=1e-10)
        assert holevo_oracle(attack) > eve_info_bound(1.0)

    def test_closed_form_regime(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            attack = random_attack(rng, equal_tail=True)
            gap = abs(holevo_oracle(attack) - eve_info_bound(attack.c_value))
            worst = max(worst, gap)
        assert worst <= 1e-8

    def test_route_agreement_and_unit_branch_entropy(self):
        from rfiqsdc.security import _eve_states

        rng = np.random.default_rng(13)
        for _ in range(200):
            attack = random_attack(rng, equal_tail=False)
            states = _eve_states(attack)
            probs = [0.25] * 4
            direct = ensemble_entropy(states, probs)
            gram = gram_entropy(states, probs)
            assert abs(direct - gram) <= 1e-10
            s0 = ensemble_entropy(states[:2], [0.5, 0.5])
            s1 = ensemble_entropy(states[2:], [0.5, 0.5])
            assert s0 == pytest.approx(1.0, abs=1e-10)
            assert s1 == pytest.approx(1.0, abs=1e-10)

    def test_attack_validation(self):
        with pytest.raises(ValueError):
            BellDiagonalAttack(lambdas=(0.5, 0.5, 0.1, -0.1))
        with pytest.raises(ValueError):
            BellDiagonalAttack(lambdas=(0.5, 0.4, 0.0, 0.0))


class TestEveGains:
    def test_no_single_photon_advantage(self):
        gains = eve_gains(0.1, 1e-6, 1e-6, 0.001)
        assert gains.q_n1 == 0.0

    def test_worked_values(self):
        gains = eve_gains(0.1, 0.02, 1.6e-7, 0.0021)
        assert gains.q_n1 == pytest.approx(1.80966e-3, rel=1e-4)
        assert gains.q_n2 == pytest.approx(2.9018e-4, rel=1e-3)
        assert not gains.clamped

    def test_dark_count_only_channel(self):
        y0 = 1.6e-7
        gains = eve_gains(0.1, y0, y0, y0)
        assert gains.q_n1 == 0.0
        assert gains.q_n2 == 0.0

    def test_clamp(self):
        gains = eve_gains(0.5, 0.9, 0.0, 0.01)
        assert gains.q_n2 == 0.0
        assert gains.clamped

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            eve_gains(0.1, 1e-7, 1e-6, 0.001)


class TestCapacity:
    def test_no_round_trip_clicks(self):
        value = secrecy_capacity(CapacityInputs(0.0, 0.0, 0.005, 0.001, 1.8))
        assert value <= 0.0

    def test_worked_value(self):
        value = secrecy_capacity(CapacityInputs(0.01, 0.02, 0.005, 0.001, 1.8))
        expected = 0.01 * (1 - binary_entropy(0.02)) - (
            0.005 * binary_entropy((1 + math.sqrt(0.9)) / 2) + 0.001
        )
        assert value == pytest.approx(expected, abs=1e-15)
        assert value == pytest.approx(6.7249e-3, rel=1e-4)

    def test_monotonicity(self):
        rng = np.random.default_rng(17)
        eps = 1e-6
        for _ in range(100):
            base = CapacityInputs(
                q_bab=rng.uniform(0.001, 0.5),
                e_bab=rng.uniform(0.0, 0.4),
                q_n1_bae=rng.uniform(0.0, 0.1),
                q_n2_bae=rng.uniform(0.0, 0.1),
                c_lower=rng.uniform(0.0, 2.0 - 2 * eps),
            )
            v = secrecy_capacity(base)

            def bump(**kwargs):
                fields = dict(
                    q_bab=base.q_bab, e_bab=base.e_bab, q_n1_bae=base.q_n1_bae,
                    q_n2_bae=base.q_n2_bae, c_lower=base.c_lower,
                )
                fields.update(kwargs)
                return secrecy_capacity(CapacityInputs(**fields))

            assert bump(c_lower=base.c_lower + eps) >= v
            assert bump(q_bab=base.q_bab + eps) >= v
            assert bump(e_bab=base.e_bab + eps) <= v
            assert bump(q_n1_bae=base.q_n1_bae + eps) <= v
            assert bump(q_n2_bae=base.q_n2_bae + eps) <= v
