"""LP construction, solver accuracy and the bound-composition rules."""

import math

import numpy as np
import pytest

from oracle_utils import true_n_photon_stats, vertex_enumeration_optimum
from rfiqsdc import decoy, photonics
from rfiqsdc.decoy import (
    DEFAULT_N_CUT,
    InfeasibleError,
    LinearProgram,
    build_error_lp,
    build_yield_lp,
    c_lower_bound,
    estimate_bounds,
    solve_lp,
    solve_lps,
)
from rfiqsdc.photonics import ChannelSpec, LegStatsTable, ba_observed, poisson_pn
from rfiqsdc.pipeline import evaluate_point


def make_observations(spec, mu, what="gain"):
    intensities = {"signal": mu, "decoy1": 0.05 * mu, "decoy2": 0.01 * mu}
    table = ba_observed(spec, intensities)
    out = {}
    for label in ("ZZ", "XX", "XY", "YX", "YY"):
        rows = []
        for key in ("signal", "decoy1", "decoy2"):
            q, e = table.entries[(key, label)]
            rows.append((intensities[key], q if what == "gain" else q * e))
        out[label] = rows
    return out, intensities, table


class TestLpConstruction:
    def test_shape(self):
        obs = [(0.1, 0.01), (0.005, 0.001), (0.001, 0.0005)]
        lp = build_yield_lp(obs, n_cut=10, target_n=1, sense="minimize")
        assert len(lp.objective) == 11
        assert len(lp.constraints) == 6
        assert len(lp.variable_bounds) == 11
        assert all(b == (0.0, 1.0) for b in lp.variable_bounds)

    def test_truth_is_feasible(self):
        y0, y1 = 2e-4, 0.05
        obs = [(mu, poisson_pn(mu, 0) * y0 + poisson_pn(mu, 1) * y1) for mu in (0.1, 0.005, 0.001)]
        value, _ = solve_lp(build_yield_lp(obs, n_cut=10, target_n=1, sense="minimize"))
        assert value <= y1 + 1e-12

    def test_zero_error_channel(self):
        obs = [(0.1, 0.0), (0.005, 0.0), (0.001, 0.0)]
        value, _ = solve_lp(build_error_lp(obs, n_cut=10, sense="maximize"))
        # only the truncated tail slack survives when all observed errors vanish
        assert value <= 1e-10

    def test_error_lp_brackets_truth(self):
        z0, z1 = 1e-4, 0.01
        obs = [(mu, poisson_pn(mu, 0) * z0 + poisson_pn(mu, 1) * z1) for mu in (0.1, 0.005, 0.001)]
        lo, _ = solve_lp(build_error_lp(obs, n_cut=10, sense="minimize"))
        hi, _ = solve_lp(build_error_lp(obs, n_cut=10, sense="maximize"))
        assert lo - 1e-9 <= z1 <= hi + 1e-9

    def test_input_validation(self):
        with pytest.raises(ValueError):
            build_yield_lp([(0.1, 0.01)], n_cut=10, target_n=1, sense="minimize")
        with pytest.raises(ValueError):
            build_yield_lp([(0.1, 0.01), (0.05, 0.005)], n_cut=1, target_n=1, sense="minimize")
        with pytest.raises(ValueError):
            LinearProgram(sense="solve", objective=np.ones(2), variable_bounds=[(0, 1)] * 2)


class TestSolver:
    def test_trivial_box(self):
        lp = LinearProgram(sense="minimize", objective=np.array([1.0]), variable_bounds=[(0.0, 1.0)])
        value, x = solve_lp(lp)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert x[0] == pytest.approx(0.0, abs=1e-12)

    def test_hand_checkable_vertex(self):
        lp = LinearProgram(
            sense="maximize",
            objective=np.array([1.0, 1.0]),
            constraints=[(np.array([1.0, 2.0]), "<=", 1.0)],
            variable_bounds=[(0.0, 1.0)] * 2,
        )
        value, x = solve_lp(lp)
        assert value == pytest.approx(1.0, abs=1e-9)
        assert x[0] == pytest.approx(1.0, abs=1e-9)
        assert x[1] == pytest.approx(0.0, abs=1e-9)

    def test_infeasible_reported(self):
        lp = LinearProgram(
            sense="minimize",
            objective=np.array([1.0]),
            constraints=[(np.array([1.0]), ">=", 2.0)],
            variable_bounds=[(0.0, 1.0)],
        )
        with pytest.raises(InfeasibleError):
            solve_lp(lp)

    def test_against_vertex_enumeration(self):
        rng = np.random.default_rng(23)
        checked = 0
        attempts = 0
        while checked < 50 and attempts < 300:
            attempts += 1
            objective = rng.uniform(-1.0, 1.0, size=4)
            rows = [
                (rng.uniform(-1.0, 1.0, size=4), rng.choice(["<=", ">="]), rng.uniform(-0.5, 1.5))
                for _ in range(3)
            ]
            bounds = [(0.0, 1.0)] * 4
            sense = "minimize" if rng.uniform() < 0.5 else "maximize"
            lp = LinearProgram(sense=sense, objective=objective, constraints=rows, variable_bounds=bounds)
            reference = vertex_enumeration_optimum(objective, rows, bounds, sense)
            if reference is None:
                with pytest.raises(InfeasibleError):
                    solve_lp(lp)
                continue
            value, _ = solve_lp(lp)
            assert value == pytest.approx(reference, abs=1e-9)
            checked += 1
        assert checked == 50

    def test_production_instances_are_fast(self):
        import time

        spec = ChannelSpec(attenuation_db=6.0, beta_rad=math.radians(25.0))
        obs, _, _ = make_observations(spec, 0.05)
        lps = [
            build_yield_lp(obs["ZZ"], DEFAULT_N_CUT, target_n, sense)
            for target_n in (0, 1)
            for sense in ("minimize", "maximize")
        ]
        for lp in lps:
            solve_lp(lp)  # warm scipy up before timing
        start = time.perf_counter()
        for lp in lps:
            solve_lp(lp)
        per_call = (time.perf_counter() - start) / len(lps)
        assert per_call < 0.010

    def test_determinism(self):
        spec = ChannelSpec(attenuation_db=6.0, beta_rad=0.3)
        obs, _, _ = make_observations(spec, 0.05)
        lp = build_yield_lp(obs["XX"], DEFAULT_N_CUT, 1, "minimize")
        value1, x1 = solve_lp(lp)
        value2, x2 = solve_lp(lp)
        assert value1 == value2
        assert np.array_equal(x1, x2)


class TestBatchedSolve:
    def test_mixed_blocks_match_vertex_enumeration(self):
        # one call over minimize and maximize blocks of 2, 3 and 4 variables;
        # each row holds at an interior point, so every block is feasible
        rng = np.random.default_rng(7)
        lps = []
        for width in (2, 3, 4, 3, 2, 4):
            inside = rng.uniform(0.2, 0.8, size=width)
            rows = []
            for _ in range(width - 1):
                coeffs = rng.uniform(-1.0, 1.0, size=width)
                rel = rng.choice(["<=", ">="])
                slack = rng.uniform(0.0, 0.3)
                level = float(coeffs @ inside)
                rows.append((coeffs, rel, level + slack if rel == "<=" else level - slack))
            sense = "minimize" if len(lps) % 2 == 0 else "maximize"
            lps.append(LinearProgram(
                sense=sense,
                objective=rng.uniform(-1.0, 1.0, size=width),
                constraints=rows,
                variable_bounds=[(0.0, 1.0)] * width,
            ))
        solutions = solve_lps(lps)
        assert len(solutions) == len(lps)
        for lp, (value, x) in zip(lps, solutions):
            assert len(x) == len(lp.objective)
            reference = vertex_enumeration_optimum(lp.objective, lp.constraints, lp.variable_bounds, lp.sense)
            assert value == pytest.approx(reference, abs=1e-9)
            assert value == pytest.approx(float(lp.objective @ x), abs=1e-12)

    def test_one_infeasible_block_fails_the_batch(self):
        feasible = LinearProgram(sense="maximize", objective=np.array([1.0]), variable_bounds=[(0.0, 1.0)])
        infeasible = LinearProgram(
            sense="minimize",
            objective=np.array([1.0, 0.0]),
            constraints=[(np.array([1.0, 1.0]), ">=", 3.0)],
            variable_bounds=[(0.0, 1.0)] * 2,
        )
        assert solve_lps([feasible])[0][0] == pytest.approx(1.0)
        with pytest.raises(InfeasibleError):
            solve_lps([feasible, infeasible])


class TestCLowerBound:
    def test_perfect_case(self):
        assert c_lower_bound([(0, 0), (0.5, 0.5), (0.5, 0.5), (0, 0)]) == pytest.approx(2.0)

    def test_all_straddle(self):
        assert c_lower_bound([(0.4, 0.6)] * 4) == 0.0

    def test_worked_intervals(self):
        intervals = [(0.1, 0.2), (0.3, 0.45), (0.3, 0.45), (0.1, 0.2)]
        assert c_lower_bound(intervals) == pytest.approx(0.74, abs=1e-12)


class TestEstimateBounds:
    def test_sandwich_property(self):
        # every decoy interval must contain the model's true single-photon value
        count = 0
        for atten in (2.0, 6.0, 10.0):
            for beta_deg in (0.0, 25.0, 45.0):
                for mu in (0.01, 0.05, 0.1):
                    spec = ChannelSpec(attenuation_db=atten, beta_rad=math.radians(beta_deg))
                    obs, intensities, table = make_observations(spec, mu)
                    bounds = estimate_bounds(table, intensities, DEFAULT_N_CUT)
                    true_c = 0.0
                    for label in ("ZZ", "XX", "XY", "YX", "YY"):
                        y1_true, z1_true = true_n_photon_stats(spec, label, 1)
                        e1_true = z1_true / y1_true
                        y1_lo, y1_hi = bounds.y1[label]
                        assert y1_lo - 1e-9 <= y1_true <= y1_hi + 1e-9
                        e1_lo, e1_hi = bounds.e1[label]
                        assert e1_lo - 1e-9 <= e1_true <= e1_hi + 1e-9
                        if label != "ZZ":
                            true_c += (1.0 - 2.0 * e1_true) ** 2
                        else:
                            y0_true, _ = true_n_photon_stats(spec, label, 0)
                            assert bounds.y0[0] - 1e-12 <= y0_true <= bounds.y0[1] + 1e-12
                    assert bounds.c_lower <= true_c + 1e-9
                    count += 1
        assert count == 27

    def test_noiseless_aligned_channel(self):
        spec = ChannelSpec(attenuation_db=2.0, pd=0.0, ed_a=0.0, ed_b=0.0, beta_rad=0.0)
        obs, intensities, table = make_observations(spec, 0.05)
        bounds = estimate_bounds(table, intensities, DEFAULT_N_CUT)
        for label in ("XX", "YY"):
            assert bounds.e1[label][1] <= 1e-4
        for label in ("XY", "YX"):
            lo, hi = bounds.e1[label]
            assert lo <= 0.5 <= hi or abs(lo - 0.5) < 0.05
        assert bounds.c_lower >= 1.9

    def test_tight_z_bounds_never_looser(self):
        spec = ChannelSpec(attenuation_db=8.0, beta_rad=math.radians(20.0))
        obs, intensities, table = make_observations(spec, 0.05)
        plain = estimate_bounds(table, intensities, DEFAULT_N_CUT, tight_z_bounds=False)
        tight = estimate_bounds(table, intensities, DEFAULT_N_CUT, tight_z_bounds=True)
        for label in ("XX", "XY", "YX", "YY"):
            assert tight.e1[label][0] >= plain.e1[label][0] - 1e-9
            assert tight.e1[label][1] <= plain.e1[label][1] + 1e-9
        assert tight.c_lower >= plain.c_lower - 1e-9

    def test_fluctuation_widens_intervals(self):
        spec = ChannelSpec(attenuation_db=10.0, beta_rad=math.radians(45.0))
        obs, intensities, table = make_observations(spec, 0.015)
        exact_rows = build_yield_lp(obs["XX"], DEFAULT_N_CUT, 1, "minimize").constraints
        wide_rows = build_yield_lp(obs["XX"], DEFAULT_N_CUT, 1, "minimize", 5e-6).constraints
        for (_, q), upper, lower, wide_upper, wide_lower in zip(
            obs["XX"], exact_rows[::2], exact_rows[1::2], wide_rows[::2], wide_rows[1::2]
        ):
            assert wide_upper[2] - upper[2] == pytest.approx(5e-6 * math.sqrt(q), rel=1e-9)
            assert lower[2] - wide_lower[2] == pytest.approx(5e-6 * math.sqrt(q), rel=1e-9)
        exact = estimate_bounds(table, intensities, DEFAULT_N_CUT)
        wide = estimate_bounds(table, intensities, DEFAULT_N_CUT, fluctuation=5e-6)
        for label in ("ZZ", "XX", "XY", "YX", "YY"):
            for exact_iv, wide_iv in ((exact.y1[label], wide.y1[label]), (exact.e1[label], wide.e1[label])):
                assert wide_iv[0] <= exact_iv[0] + 1e-12
                assert wide_iv[1] >= exact_iv[1] - 1e-12
        assert wide.c_lower < exact.c_lower

    def test_monotone_information(self):
        # pushing the decoy intensities further apart never widens the interval
        spec = ChannelSpec(attenuation_db=6.0, beta_rad=0.2)
        mu = 0.1
        widths = []
        for ratios in ((0.5, 0.25), (0.2, 0.05), (0.05, 0.01)):
            intensities = {"signal": mu, "decoy1": ratios[0] * mu, "decoy2": ratios[1] * mu}
            table = ba_observed(spec, intensities)
            bounds = estimate_bounds(table, intensities, DEFAULT_N_CUT)
            lo, hi = bounds.y1["ZZ"]
            widths.append(hi - lo)
        assert widths[2] <= widths[0] + 1e-12

    @pytest.mark.parametrize("u_sigma", [0.0, 5.0])
    @pytest.mark.parametrize("tight", [False, True], ids=["plain", "tight"])
    @pytest.mark.parametrize("beta_deg", [0.0, 45.0])
    def test_batch_matches_separate_solves(self, monkeypatch, beta_deg, tight, u_sigma):
        batches = []

        def recording_solve_lps(lps):
            solutions = solve_lps(lps)
            batches.append((lps, solutions))
            return solutions

        monkeypatch.setattr(decoy, "solve_lps", recording_solve_lps)
        for atten in (2.0, 5.0, 8.0, 11.0, 12.5):
            spec = ChannelSpec(attenuation_db=atten, beta_rad=math.radians(beta_deg), u_sigma=u_sigma)
            _, intensities, table = make_observations(spec, 0.015)
            estimate_bounds(table, intensities, DEFAULT_N_CUT, tight_z_bounds=tight, fluctuation=spec.fluctuation)
        monkeypatch.undo()
        assert len(batches) == 5
        for lps, solutions in batches:
            # 5 pairs x {Y1, z1} x {min, max}, plus the ZZ vacuum yield
            assert len(lps) == 22
            for lp, (value, _) in zip(lps, solutions):
                separate, _ = solve_lp(lp)
                assert value == pytest.approx(separate, rel=1e-10, abs=1e-15)

    def test_inconsistent_observations_are_infeasible(self, monkeypatch):
        spec = ChannelSpec(attenuation_db=6.0)
        _, intensities, table = make_observations(spec, 0.05)
        # the weakest decoy reports a hundred times the signal gain, which no
        # non-negative yields bounded by 1 can produce
        entries = dict(table.entries)
        q_signal, e_signal = entries[("signal", "XX")]
        entries[("decoy2", "XX")] = (100.0 * q_signal, e_signal)
        broken = LegStatsTable(entries=entries, q_ba_signal=table.q_ba_signal)
        with pytest.raises(InfeasibleError, match="inconsistent observations"):
            estimate_bounds(broken, intensities, DEFAULT_N_CUT, fluctuation=spec.fluctuation)

        monkeypatch.setattr(photonics, "ba_observed", lambda *_: broken)
        point = evaluate_point(ChannelSpec(), 6.0, 0.0, 0.05)
        assert point.capacity == 0.0
        assert len(point.flags) == 1
        assert point.flags[0].startswith("lp_infeasible: inconsistent observations")

    def test_determinism(self):
        spec = ChannelSpec(attenuation_db=6.0, beta_rad=0.5)
        obs, intensities, table = make_observations(spec, 0.05)
        a = estimate_bounds(table, intensities, DEFAULT_N_CUT)
        b = estimate_bounds(table, intensities, DEFAULT_N_CUT)
        assert a.y1 == b.y1
        assert a.y0 == b.y0
        assert a.e1 == b.e1
        assert a.c_lower == b.c_lower
