"""End-to-end evaluation, intensity optimization, scans and cutoff search."""

import math
import sys
import threading

import pytest
from scipy.optimize._highspy import _core as highs

from oracle_utils import full_search_max_attenuation
from rfiqsdc import decoy, photonics, pipeline
from rfiqsdc.photonics import ChannelSpec, LegStatsTable, NoClicksError
from rfiqsdc.pipeline import (
    EstimatorSpec,
    MuSearchSpec,
    PointResult,
    ScanConfig,
    evaluate_point,
    evaluate_points,
    max_attenuation,
    optimize_mu,
    scan,
)

FAST_SEARCH = MuSearchSpec(coarse_points=13, rel_tol=1e-3)


class TestEvaluatePoint:
    def test_healthy_point_has_no_flags(self):
        point = evaluate_point(ChannelSpec(), 6.0, 0.0, 0.05)
        assert point.flags == []
        assert point.capacity > 0.0
        assert point.distance_km == pytest.approx(15.0)
        assert 0.0 < point.c_lower <= 2.0
        assert point.y1_min <= point.y1_max
        assert point.qn1_bae + point.qn2_bae <= point.q_ba_signal + 1e-12

    def test_deep_loss_is_insecure(self):
        point = evaluate_point(ChannelSpec(), 18.0, 0.0, 0.05)
        assert point.capacity <= 0.0

    def test_determinism(self):
        a = evaluate_point(ChannelSpec(), 8.0, 0.3, 0.03)
        b = evaluate_point(ChannelSpec(), 8.0, 0.3, 0.03)
        assert a == b

    def test_beta_sign_symmetry(self):
        beta = math.radians(20.0)
        plus = evaluate_point(ChannelSpec(), 8.0, beta, 0.03)
        minus = evaluate_point(ChannelSpec(), 8.0, -beta, 0.03)
        assert plus.capacity == pytest.approx(minus.capacity, abs=1e-9)
        assert plus.c_lower == pytest.approx(minus.c_lower, abs=1e-9)

    @pytest.mark.parametrize(
        "flag, zz_y1, c_lower",
        [
            ("vacuous_y1", (0.0, 1.0), None),  # the decoy bounds say nothing about Y1
            ("qn2_clamped", (0.5, 0.5), None),  # more single-photon gain than was observed
            ("c_lower_clamped", None, 2.5),  # above the invariant's maximum of 2
        ],
        ids=["vacuous_y1", "qn2_clamped", "c_lower_clamped"],
    )
    def test_diagnostic_flags(self, monkeypatch, flag, zz_y1, c_lower):
        honest = evaluate_point(ChannelSpec(), 6.0, 0.0, 0.05)
        read_bounds = decoy.read_bounds

        def patched(values):
            bounds = read_bounds(values)
            if zz_y1 is not None:
                bounds.y1["ZZ"] = zz_y1
            if c_lower is not None:
                bounds.c_lower = c_lower
            return bounds

        monkeypatch.setattr(decoy, "read_bounds", patched)
        point = evaluate_point(ChannelSpec(), 6.0, 0.0, 0.05)
        assert point.flags == [flag]
        assert point.c_lower == (2.0 if c_lower is not None else honest.c_lower)

    def test_failure_is_flagged_not_raised(self):
        # channel with no dark counts and complete loss: zero gain everywhere
        dead = ChannelSpec(pd=0.0, eta_d=0.0)
        point = evaluate_point(dead, 10.0, 0.0, 0.05)
        assert point.capacity == 0.0
        assert any(flag.startswith("no_clicks") for flag in point.flags)

    @pytest.mark.parametrize("tolerance", [None, 1e-10], ids=["default-tol", "tight-tol"])
    def test_misalignment_never_helps_near_cutoff(self, monkeypatch, tolerance):
        # criterion 3 compares cutoffs at 0 and 45 deg, so the ordering in beta
        # must hold just past the cutoff, where the decoy right-hand sides sit
        # near the solver's default feasibility tolerance, and must not depend
        # on that tolerance
        if tolerance is not None:
            solver = highs._Highs()
            solver.passOptions(decoy._OPTIONS)
            tight = solver.getOptions()  # a copy of the module's options
            tight.primal_feasibility_tolerance = tolerance
            tight.dual_feasibility_tolerance = tolerance
            monkeypatch.setattr(decoy, "_OPTIONS", tight)
        points = [
            evaluate_point(ChannelSpec(), 11.5, math.radians(beta_deg), 0.004)
            for beta_deg in (0.0, 15.0, 30.0, 45.0)
        ]
        for less, more in zip(points, points[1:]):
            assert more.c_lower <= less.c_lower
            assert more.capacity <= less.capacity


def _assert_same_points(batched, single):
    assert len(batched) == len(single)
    for got, want in zip(batched, single):
        assert got.flags == want.flags
        for name, value in vars(want).items():
            if name != "flags":
                assert getattr(got, name) == pytest.approx(value, rel=1e-9, abs=1e-15), name


class TestEvaluatePoints:
    MU_DEAD = 0.02  # ba_observed finds no clicks
    MU_BROKEN = 0.07  # ba_observed reports gains no yields can produce

    def _grid(self):
        points = [
            (atten, math.radians(beta_deg), mu)
            for atten in (2.0, 6.0, 10.0, 12.0)
            for beta_deg in (0.0, 45.0)
            for mu in (0.004, 0.03, 0.3)
        ]
        points.insert(7, (6.0, 0.0, self.MU_DEAD))
        points.insert(12, (6.0, 0.0, self.MU_BROKEN))
        return points

    @pytest.fixture
    def faulty_observations(self, monkeypatch):
        ba_observed = photonics.ba_observed

        def faulty(spec, intensities):
            if intensities["signal"] == self.MU_DEAD:
                raise NoClicksError("no clicks at all")
            table = ba_observed(spec, intensities)
            if intensities["signal"] == self.MU_BROKEN:
                # the weakest decoy reports a hundred times the signal gain
                entries = dict(table.entries)
                q_signal, e_signal = entries[("signal", "XX")]
                entries[("decoy2", "XX")] = (100.0 * q_signal, e_signal)
                table = LegStatsTable(entries=entries, q_ba_signal=table.q_ba_signal)
            return table

        monkeypatch.setattr(photonics, "ba_observed", faulty)

    @pytest.mark.parametrize("tight", [False, True], ids=["plain", "tight"])
    def test_matches_single_points(self, faulty_observations, tight):
        estimator = EstimatorSpec(tight_z_bounds=tight)
        points = self._grid()
        batched = evaluate_points(ChannelSpec(), points, estimator)
        _assert_same_points(batched, [evaluate_point(ChannelSpec(), *p, estimator) for p in points])

        flagged = {p[2]: r.flags for p, r in zip(points, batched) if r.flags}
        assert list(flagged) == [self.MU_DEAD, self.MU_BROKEN]
        assert flagged[self.MU_DEAD][0].startswith("no_clicks:")
        assert flagged[self.MU_BROKEN][0].startswith("lp_infeasible:")
        # the infeasible point's neighbours share its chunk and stay unflagged
        assert batched[11].flags == batched[13].flags == []

    def test_failed_batch_is_solved_point_by_point(self, monkeypatch):
        calls = []

        def multi_point_failure(lps):
            calls.append(len(lps) // 22)
            if len(lps) > 22:
                raise RuntimeError("LP solver failure (status 4): forced")
            return solve_lps(lps)

        points = [(atten, 0.0, 0.03) for atten in (2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0)]
        single = [evaluate_point(ChannelSpec(), *p) for p in points]
        solve_lps = decoy.solve_lps
        monkeypatch.setattr(decoy, "solve_lps", multi_point_failure)
        batched = evaluate_points(ChannelSpec(), points)
        assert calls == [5, 1, 1, 1, 1, 1, 2, 1, 1]
        assert batched == single

    def test_lone_point_solver_failure_propagates(self, monkeypatch):
        def failure(lps):
            raise RuntimeError("LP solver failure (status 4): forced")

        monkeypatch.setattr(decoy, "solve_lps", failure)
        with pytest.raises(RuntimeError, match="forced"):
            evaluate_points(ChannelSpec(), [(6.0, 0.0, 0.03), (8.0, 0.0, 0.03)])


    def test_threads_match_serial(self):
        # each thread solves on its own HiGHS solver, so concurrent callers get
        # the serial results bit for bit
        estimator = EstimatorSpec(tight_z_bounds=True)
        requests = [
            [(atten, math.radians(beta_deg), mu) for atten in (2.0, 7.0, 11.0) for mu in (0.004, 0.02, 0.08)]
            for beta_deg in (0.0, 15.0, 30.0, 45.0)
        ]
        serial = [evaluate_points(ChannelSpec(), points, estimator) for points in requests]
        threaded = [None] * len(requests)

        def work(k):
            threaded[k] = evaluate_points(ChannelSpec(), requests[k], estimator)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(requests))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert threaded == serial


class TestOptimizeMu:
    def test_low_loss_prefers_bright_pulses(self):
        mu_low, _ = optimize_mu(ChannelSpec(), 2.0, 0.0, FAST_SEARCH)
        assert abs(math.log(mu_low / 0.1)) < abs(math.log(mu_low / 0.01))

    def test_optimum_decreases_with_loss(self):
        mu_low, _ = optimize_mu(ChannelSpec(), 2.0, 0.0, FAST_SEARCH)
        mu_high, _ = optimize_mu(ChannelSpec(), 10.5, 0.0, FAST_SEARCH)
        assert mu_high < mu_low

    def test_degenerate_range(self):
        search = MuSearchSpec(mu_lo=0.05, mu_hi=0.05, coarse_points=1)
        mu, point = optimize_mu(ChannelSpec(), 6.0, 0.0, search)
        assert mu == 0.05
        assert point.mu == 0.05

    def test_all_negative_is_flagged(self):
        # the two degenerate searches evaluate mu_lo alone, and are flagged too
        for search in (FAST_SEARCH, MuSearchSpec(coarse_points=1), MuSearchSpec(mu_lo=0.05, mu_hi=0.05)):
            _, point = optimize_mu(ChannelSpec(), 19.0, 0.0, search)
            assert point.capacity <= 0.0
            assert "no_positive_capacity" in point.flags

    def test_beats_fixed_intensities(self):
        _, best = optimize_mu(ChannelSpec(), 8.0, 0.0, MuSearchSpec())
        for mu in (0.01, 0.05, 0.1):
            fixed = evaluate_point(ChannelSpec(), 8.0, 0.0, mu)
            assert best.capacity >= fixed.capacity - 1e-12


class TestScan:
    def test_fixed_mode_shape(self):
        config = ScanConfig(
            atten_start_db=0.0, atten_stop_db=4.0, atten_step_db=2.0,
            betas_rad=(0.0,), fixed_mus=(0.1, 0.01), mode="fixed",
        )
        points = scan(config)
        assert len(points) == 6
        assert [p.attenuation_db for p in points] == [0.0, 0.0, 2.0, 2.0, 4.0, 4.0]
        assert [p.mu for p in points[:2]] == [0.1, 0.01]

    def test_empty_beta_list(self):
        config = ScanConfig(
            atten_start_db=0.0, atten_stop_db=4.0, atten_step_db=2.0,
            betas_rad=(), fixed_mus=(0.1,), mode="fixed",
        )
        assert scan(config) == []

    def test_optimized_capacity_monotone_in_attenuation(self):
        config = ScanConfig(
            atten_start_db=2.0, atten_stop_db=10.0, atten_step_db=2.0,
            betas_rad=(0.0,), mode="optimized", mu_search=FAST_SEARCH,
        )
        points = scan(config)
        for earlier, later in zip(points, points[1:]):
            assert later.capacity <= earlier.capacity * (1 + 1e-6) + 1e-12

    def test_misalignment_never_helps(self):
        config = ScanConfig(
            atten_start_db=2.0, atten_stop_db=10.0, atten_step_db=4.0,
            betas_rad=(0.0, math.radians(45.0)), fixed_mus=(0.05,), mode="fixed",
        )
        points = scan(config)
        by_atten = {}
        for p in points:
            by_atten.setdefault(p.attenuation_db, []).append(p)
        for aligned, worst in by_atten.values():
            assert aligned.capacity >= worst.capacity - 1e-15

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScanConfig(mode="fixed")  # no intensities given
        with pytest.raises(ValueError):
            ScanConfig(atten_step_db=0.0)


@pytest.mark.parametrize(
    "spec, kwargs",
    [
        (MuSearchSpec, {"rel_tol": 0.0}),
        (MuSearchSpec, {"rel_tol": -1.0}),  # would never end the golden-section loop
        (EstimatorSpec, {"decoy_ratios": (0.01, 0.05)}),
        (EstimatorSpec, {"n_cut": 1}),
        (EstimatorSpec, {"n_cut": 10.0}),  # a float count failed later, inside the decoy layout
        (EstimatorSpec, {"n_cut": True}),
        (MuSearchSpec, {"coarse_points": 2.5}),
        (MuSearchSpec, {"coarse_points": 25.0}),
        (MuSearchSpec, {"coarse_points": True}),
        (ChannelSpec, {"attenuation_db": math.nan}),
        (ChannelSpec, {"attenuation_db": math.inf}),
        (ChannelSpec, {"attenuation_db": -math.inf}),
        (ChannelSpec, {"alpha_db_per_km": math.nan}),
        (ChannelSpec, {"alpha_db_per_km": math.inf}),
        (ChannelSpec, {"alpha_db_per_km": -math.inf}),
        (ScanConfig, {"mode": "optimized", "fixed_mus": (0.05,)}),  # the search picks its own mu
        *[
            (MuSearchSpec, {key: value})
            for key in ("mu_lo", "mu_hi", "rel_tol")
            for value in (math.nan, math.inf, -math.inf)
        ],
        *[
            (ScanConfig, {key: value})
            for key in ("atten_start_db", "atten_stop_db", "atten_step_db")
            for value in (math.nan, math.inf, -math.inf)
        ],
    ],
    ids=[
        "rel_tol-zero", "rel_tol-negative", "decoy-ratios-swapped", "n_cut-1",
        "n_cut-float", "n_cut-bool", "coarse_points-fraction", "coarse_points-float", "coarse_points-bool",
        "attenuation-nan", "attenuation-inf", "attenuation-neg-inf",
        "alpha-nan", "alpha-inf", "alpha-neg-inf", "optimized-with-fixed-mus",
        *[
            f"{key}-{name}"
            for key in ("mu_lo", "mu_hi", "rel_tol", "atten_start_db", "atten_stop_db", "atten_step_db")
            for name in ("nan", "inf", "neg-inf")
        ],
    ],
)
def test_spec_validation(spec, kwargs):
    with pytest.raises(ValueError):
        spec(**kwargs)


class TestMaxAttenuation:
    def test_useless_channel_always_insecure(self):
        # a 50% round-trip error rate zeroes the mutual information, so the
        # capacity can never be positive
        a_max, point = max_attenuation(
            ChannelSpec(ed_b=0.5), 0.0, MuSearchSpec(coarse_points=5, rel_tol=1e-2)
        )
        assert a_max is None
        assert point is None

    @pytest.fixture
    def evaluated(self, monkeypatch):
        """(attenuation, mu values) of every ``evaluate_points`` call, in order."""
        calls = []
        evaluate_points = pipeline.evaluate_points

        def recording(channel, points, *args):
            calls.append((points[0][0], [mu for _, _, mu in points]))
            return evaluate_points(channel, points, *args)

        monkeypatch.setattr(pipeline, "evaluate_points", recording)
        return calls

    def test_secure_upper_end_optimized_once(self, evaluated):
        search = MuSearchSpec(coarse_points=3, rel_tol=1e-1)
        a_max, point = max_attenuation(ChannelSpec(), 0.0, search, atten_hi_db=2.0)
        assert a_max == 2.0
        assert point.capacity > 0.0
        (first_attenuation, _), *upper_calls = evaluated
        assert first_attenuation == 0.0  # the 0 dB search stops after its first call, which is secure
        evaluated.clear()
        _, optimized = optimize_mu(ChannelSpec(), 2.0, 0.0, search)
        assert upper_calls == evaluated  # the upper end's search runs to the end, once
        upper_mus = [mu for _, mus in evaluated for mu in mus]
        assert len(set(upper_mus)) == len(upper_mus)
        assert point == optimized

    @pytest.mark.parametrize(
        "channel, beta_deg, estimator, atten_hi_db",
        [
            (ChannelSpec(), 0.0, EstimatorSpec(), 20.0),
            (ChannelSpec(), 45.0, EstimatorSpec(), 20.0),
            (ChannelSpec(), 45.0, EstimatorSpec(y0_from_model=True), 20.0),
            (ChannelSpec(u_sigma=0.0), 0.0, EstimatorSpec(tight_z_bounds=True), 20.0),
            (ChannelSpec(), 0.0, EstimatorSpec(), 8.0),  # the upper end is secure
        ],
        ids=["0deg", "45deg", "y0_from_model", "tight-u0", "secure-upper-end"],
    )
    def test_matches_full_search_bisection(self, evaluated, channel, beta_deg, estimator, atten_hi_db):
        search = MuSearchSpec(coarse_points=9, rel_tol=1e-2)
        args = (channel, math.radians(beta_deg), search, estimator, atten_hi_db)
        want = full_search_max_attenuation(optimize_mu, *args)
        full_evaluations = sum(len(mus) for _, mus in evaluated)
        evaluated.clear()
        assert max_attenuation(*args) == want
        assert want[1].capacity > 0.0
        assert sum(len(mus) for _, mus in evaluated) < full_evaluations

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"width_db": 0.0},  # would never end the bisection
            {"width_db": -0.01},
            {"width_db": math.nan},  # would end it at once and report 0 dB
            {"width_db": math.inf},
            {"atten_hi_db": -1.0},
            {"atten_hi_db": math.nan},
            {"atten_hi_db": math.inf},
        ],
        ids=["width-zero", "width-negative", "width-nan", "width-inf", "hi-negative", "hi-nan", "hi-inf"],
    )
    def test_bad_bracket_rejected(self, monkeypatch, kwargs):
        def no_evaluation(*args):
            raise AssertionError("a bad bracket must be rejected before any search")

        monkeypatch.setattr(pipeline, "evaluate_points", no_evaluation)
        with pytest.raises(ValueError):
            max_attenuation(ChannelSpec(), 0.0, **kwargs)

    def test_cutoff_bracket(self):
        search = MuSearchSpec(coarse_points=9, rel_tol=1e-2)
        a_max, point = max_attenuation(ChannelSpec(), 0.0, search, width_db=0.05)
        assert a_max is not None
        assert 10.0 < a_max < 13.0
        assert point.capacity > 0.0
