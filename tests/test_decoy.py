"""LP construction, solver accuracy and the bound-composition rules."""

import math
import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csc_array

from oracle_utils import frozen_bound_programs, stack, true_n_photon_stats, vertex_enumeration_optimum
from rfiqsdc import decoy, photonics
from rfiqsdc.decoy import (
    DEFAULT_N_CUT,
    InfeasibleError,
    LinearPrograms,
    bound_programs,
    c_lower_bound,
    estimate_bounds,
    solve_lps,
)
from rfiqsdc.photonics import (
    INTENSITY_LABELS,
    PAIR_LABELS,
    ChannelSpec,
    LegStatsTable,
    NoClicksError,
    ba_observed,
    poisson_pn,
)
from rfiqsdc.pipeline import evaluate_point, evaluate_points


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


INTENSITIES = {"signal": 0.1, "decoy1": 0.005, "decoy2": 0.001}


def table_from_yields(yields, error_yields):
    """Exact observations of every pair from photon-number yields Y_n and
    error-weighted yields z_n (n = 0, 1, ...; the rest zero)."""
    entries = {}
    for k in INTENSITY_LABELS:
        q = sum(poisson_pn(INTENSITIES[k], n) * y for n, y in enumerate(yields))
        qe = sum(poisson_pn(INTENSITIES[k], n) * z for n, z in enumerate(error_yields))
        for pair in PAIR_LABELS:
            entries[(k, pair)] = (q, qe / q)
    return LegStatsTable(entries=entries, q_ba_signal=entries[("signal", "ZZ")][0])


def ranged(rows):
    """(a, lo, hi) of (coefficients, relation, bound) rows; relation "<=", ">=",
    or "range" with a (low, high) bound."""
    a = np.array([coeffs for coeffs, _, _ in rows]).reshape(len(rows), -1)
    lo = [bound[0] if rel == "range" else bound if rel == ">=" else -math.inf for _, rel, bound in rows]
    hi = [bound[1] if rel == "range" else bound if rel == "<=" else math.inf for _, rel, bound in rows]
    return a, np.array(lo), np.array(hi)


def matrix_of(programs):
    """The row matrix of ``programs`` as a scipy CSC array."""
    shape = (len(programs.lo), len(programs.objective))
    return csc_array((programs.data, programs.indices, programs.indptr), shape=shape)


def blocks_of(programs):
    """Each block of ``programs`` as a program of its own."""
    dense = matrix_of(programs).toarray()
    for b in range(len(programs)):
        cols = slice(programs.col0[b], programs.col0[b + 1])
        rows = np.flatnonzero(dense[:, cols].any(axis=1))
        sense = "minimize" if programs.sign[b] > 0 else "maximize"
        yield LinearPrograms.single(
            sense, programs.objective[cols], dense[rows, cols], programs.lo[rows], programs.hi[rows]
        )


PROGRAM_FIELDS = ("objective", "data", "indices", "indptr", "lo", "hi", "col0", "sign")


def observation(atten, beta_deg, mu, u_sigma):
    """One production point's (table, intensities, fluctuation)."""
    spec = ChannelSpec(attenuation_db=atten, beta_rad=math.radians(beta_deg), u_sigma=u_sigma)
    _, intensities, table = make_observations(spec, mu)
    return table, intensities, spec.fluctuation


def assert_same_programs(programs, reference):
    for name in PROGRAM_FIELDS:
        assert np.array_equal(getattr(programs, name), getattr(reference, name)), name


class TestLpConstruction:
    def test_shape(self):
        table = table_from_yields([2e-4, 0.05], [1e-4, 0.01])
        plain = bound_programs([(table, INTENSITIES, 0.0)], n_cut=10)
        # 5 pairs x {Y1, z1} x {min, max}, plus the ZZ vacuum yield; 3 ranged rows each
        assert len(plain) == 22
        assert matrix_of(plain).shape == (66, 22 * 11)
        assert matrix_of(plain).nnz == 22 * 3 * 11
        assert np.all(np.diff(plain.col0) == 11)
        assert np.all(plain.lo <= plain.hi)
        assert np.all(np.abs(matrix_of(plain).toarray()).max(axis=1) == 1.0)  # unit inf-norm rows
        targets = [np.flatnonzero(plain.objective[plain.col0[b] : plain.col0[b + 1]]) for b in range(22)]
        assert [int(t[0]) for t in targets[:6]] == [1, 1, 1, 1, 0, 0]
        assert list(plain.sign[:6]) == [1.0, -1.0] * 3

        tight = bound_programs([(table, INTENSITIES, 0.0)], n_cut=10, tight_z_bounds=True)
        # the 10 z1 programs run over (Y, z) with the 6 observation rows and 11 couplings
        assert len(tight) == 22
        assert matrix_of(tight).shape == (12 * 3 + 10 * 17, 12 * 11 + 10 * 22)
        assert np.sum(np.isneginf(tight.lo)) == 10 * 11
        assert np.all(tight.hi[np.isneginf(tight.lo)] == 0.0)
        z_block = tight.col0[2]
        assert np.flatnonzero(tight.objective[z_block : tight.col0[3]]).tolist() == [11 + 1]

        # each row brackets its observation o up to the truncated tail mass,
        # (o - tail) / s <= row . x <= o / s with s the row's largest weight
        short = bound_programs([(table, INTENSITIES, 0.0)], n_cut=2)
        for k, label in enumerate(INTENSITY_LABELS):
            weights = [poisson_pn(INTENSITIES[label], n) for n in range(3)]
            q = table.entries[(label, "ZZ")][0]
            assert short.hi[k] * max(weights) == pytest.approx(q, rel=1e-12)
            assert short.lo[k] * max(weights) == pytest.approx(q - (1.0 - sum(weights)), rel=1e-12)

    def test_truth_is_feasible(self):
        y0, y1 = 2e-4, 0.05
        optima, _ = solve_lps(bound_programs([(table_from_yields([y0, y1], [0.0, 0.0]), INTENSITIES, 0.0)], n_cut=10))
        y1_min, y0_min, y0_max = optima[0], optima[4], optima[5]
        assert y1_min <= y1 + 1e-12
        assert y0_min - 1e-12 <= y0 <= y0_max + 1e-12

    def test_zero_error_channel(self):
        table = table_from_yields([2e-4, 0.05], [0.0, 0.0])
        optima, _ = solve_lps(bound_programs([(table, INTENSITIES, 0.0)], n_cut=10))
        # only the truncated tail slack survives when all observed errors vanish
        z1_max = [optima[b] for b in (3, 9, 13, 17, 21)]
        assert max(z1_max) <= 1e-10

    def test_error_lp_brackets_truth(self):
        z1 = 0.01
        table = table_from_yields([2e-4, 0.05], [1e-4, z1])
        for tight in (False, True):
            optima, _ = solve_lps(bound_programs([(table, INTENSITIES, 0.0)], n_cut=10, tight_z_bounds=tight))
            for lo_block in (2, 8, 12, 16, 20):
                assert optima[lo_block] - 1e-9 <= z1 <= optima[lo_block + 1] + 1e-9

    def test_input_validation(self):
        with pytest.raises(ValueError):
            LinearPrograms.single("solve", np.ones(2), np.ones((1, 2)), [0.0], [1.0])
        with pytest.raises(ValueError):
            LinearPrograms.single("minimize", np.ones(2), np.ones(3), [0.0], [1.0])
        with pytest.raises(ValueError):
            LinearPrograms.single("minimize", np.ones(2), np.ones((1, 2)), [0.0, 0.0], [1.0])


class TestSolver:
    def test_trivial_box(self):
        (value,), x = solve_lps(LinearPrograms.single("minimize", [1.0], np.empty((0, 1)), [], []))
        assert value == pytest.approx(0.0, abs=1e-12)
        assert x[0] == pytest.approx(0.0, abs=1e-12)

    def test_hand_checkable_vertex(self):
        lp = LinearPrograms.single("maximize", [1.0, 1.0], [[1.0, 2.0]], [-math.inf], [1.0])
        (value,), x = solve_lps(lp)
        assert value == pytest.approx(1.0, abs=1e-9)
        assert x[0] == pytest.approx(1.0, abs=1e-9)
        assert x[1] == pytest.approx(0.0, abs=1e-9)

    def test_infeasible_reported(self):
        lp = LinearPrograms.single("minimize", [1.0], [[1.0]], [2.0], [math.inf])
        with pytest.raises(InfeasibleError):
            solve_lps(lp)

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
            sense = "minimize" if rng.uniform() < 0.5 else "maximize"
            a, lo, hi = ranged(rows)
            lp = LinearPrograms.single(sense, objective, a, lo, hi)
            reference = vertex_enumeration_optimum(objective, a, lo, hi, sense)
            if reference is None:
                with pytest.raises(InfeasibleError):
                    solve_lps(lp)
                continue
            (value,), _ = solve_lps(lp)
            assert value == pytest.approx(reference, abs=1e-9)
            checked += 1
        assert checked == 50

    def test_production_instances_are_fast(self):
        import time

        spec = ChannelSpec(attenuation_db=6.0, beta_rad=math.radians(25.0))
        _, intensities, table = make_observations(spec, 0.05)
        programs = bound_programs([(table, intensities, 0.0)], DEFAULT_N_CUT)
        solve_lps(programs)  # warm scipy up before timing
        start = time.perf_counter()
        for _ in range(4):
            solve_lps(programs)
        per_call = (time.perf_counter() - start) / 4
        assert per_call < 0.010

    def test_determinism(self):
        spec = ChannelSpec(attenuation_db=6.0, beta_rad=0.3)
        _, intensities, table = make_observations(spec, 0.05)
        programs = bound_programs([(table, intensities, 0.0)], DEFAULT_N_CUT)
        values1, x1 = solve_lps(programs)
        values2, x2 = solve_lps(programs)
        assert np.array_equal(values1, values2)
        assert np.array_equal(x1, x2)


class TestBatchedSolve:
    def test_mixed_blocks_match_vertex_enumeration(self):
        # one call over minimize and maximize blocks of 2, 3 and 4 variables
        # with "<=", ">=" and two-sided rows; each row holds at an interior
        # point, so every block is feasible
        rng = np.random.default_rng(7)
        blocks = []
        for width in (2, 3, 4, 3, 2, 4):
            inside = rng.uniform(0.2, 0.8, size=width)
            rows = []
            for _ in range(width - 1):
                coeffs = rng.uniform(-1.0, 1.0, size=width)
                rel = rng.choice(["<=", ">=", "range"])
                slack = rng.uniform(0.0, 0.3, size=2)
                level = float(coeffs @ inside)
                low, high = level - slack[0], level + slack[1]
                rows.append((coeffs, rel, {"<=": high, ">=": low, "range": (low, high)}[rel]))
            sense = "minimize" if len(blocks) % 2 == 0 else "maximize"
            blocks.append((sense, rng.uniform(-1.0, 1.0, size=width), *ranged(rows)))
        programs = stack([LinearPrograms.single(*block) for block in blocks])
        values, x = solve_lps(programs)
        assert len(values) == len(blocks)
        assert len(x) == sum(len(objective) for _, objective, *_ in blocks)
        for b, (sense, objective, a, lo, hi) in enumerate(blocks):
            reference = vertex_enumeration_optimum(objective, a, lo, hi, sense)
            assert values[b] == pytest.approx(reference, abs=1e-9)
            x_block = x[programs.col0[b] : programs.col0[b + 1]]
            assert values[b] == pytest.approx(float(objective @ x_block), abs=1e-12)

    def test_one_infeasible_block_fails_the_batch(self):
        feasible = LinearPrograms.single("maximize", [1.0], np.empty((0, 1)), [], [])
        infeasible = LinearPrograms.single("minimize", [1.0, 0.0], [[1.0, 1.0]], [3.0], [math.inf])
        assert solve_lps(feasible)[0][0] == pytest.approx(1.0)
        with pytest.raises(InfeasibleError):
            solve_lps(stack([feasible, infeasible]))


def milp_solution(programs):
    """``scipy.optimize.milp``'s result for ``programs``, posed as ``solve_lps`` poses them."""
    return milp(
        programs.objective * np.repeat(programs.sign, np.diff(programs.col0)),
        constraints=LinearConstraint(matrix_of(programs), programs.lo, programs.hi),
        bounds=Bounds(0.0, 1.0),
        options={"presolve": False},
    )


class TestAgreesWithMilp:
    """``solve_lps`` drives scipy's private HiGHS bindings; public ``milp``,
    which wraps the same bindings, must give the same bits."""

    @staticmethod
    def production_programs(atten, beta_deg, mu, tight, u_sigma):
        return bound_programs([observation(atten, beta_deg, mu, u_sigma)], DEFAULT_N_CUT, tight)

    def assert_agree(self, programs):
        reference = milp_solution(programs)
        assert reference.status == 0
        values, x = solve_lps(programs)
        assert np.array_equal(x, reference.x)
        assert np.array_equal(values, np.add.reduceat(programs.objective * reference.x, programs.col0[:-1]))

    # 11.3 dB at 0 deg and 10.6 dB at 45 deg lie just past the cutoffs
    @pytest.mark.parametrize("atten, beta_deg", [(4.0, 0.0), (10.0, 45.0), (11.3, 0.0), (10.6, 45.0), (12.0, 0.0)])
    @pytest.mark.parametrize("u_sigma", [0.0, 5.0])
    @pytest.mark.parametrize("tight", [False, True], ids=["plain", "tight"])
    def test_production_grid(self, atten, beta_deg, tight, u_sigma):
        for mu in (0.004, 0.02, 0.1):
            self.assert_agree(self.production_programs(atten, beta_deg, mu, tight, u_sigma))

    def test_stacked_chunk(self):
        chunk = [self.production_programs(10.0, 45.0, mu, True, 5.0) for mu in (0.004, 0.01, 0.02, 0.05, 0.1)]
        self.assert_agree(stack(chunk))

    def test_infeasible(self):
        spec = ChannelSpec(attenuation_db=6.0)
        _, intensities, table = make_observations(spec, 0.05)
        entries = dict(table.entries)
        q_signal, e_signal = entries[("signal", "XX")]
        entries[("decoy2", "XX")] = (100.0 * q_signal, e_signal)  # no yields in [0, 1] give this
        broken = LegStatsTable(entries=entries, q_ba_signal=table.q_ba_signal)
        programs = bound_programs([(broken, intensities, spec.fluctuation)], DEFAULT_N_CUT)
        assert milp_solution(programs).status == 2
        with pytest.raises(InfeasibleError):
            solve_lps(programs)


class TestChunkBuilder:
    """``bound_programs`` fills one chunk's tables and gathers them through a
    cached stacked index; its arrays must equal those of the one-point builder
    it replaced, stacked, exactly."""

    @pytest.mark.parametrize("u_sigma", [0.0, 5.0])
    @pytest.mark.parametrize("tight", [False, True], ids=["plain", "tight"])
    @pytest.mark.parametrize("beta_deg", [0.0, 45.0])
    def test_matches_frozen_builder(self, beta_deg, tight, u_sigma):
        points = [observation(atten, beta_deg, mu, u_sigma) for atten, mu in
                  ((2.0, 0.1), (6.0, 0.004), (10.0, 0.02), (11.3, 0.0123), (12.0, 0.5))]
        for n_points in range(1, 6):
            chunk = points[:n_points]
            reference = stack([frozen_bound_programs(*point[:2], DEFAULT_N_CUT, tight, point[2]) for point in chunk])
            assert_same_programs(bound_programs(chunk, DEFAULT_N_CUT, tight), reference)

    def test_chunk_without_its_no_clicks_point(self, monkeypatch):
        dead_mu = 0.03
        ba_observed_, bound_programs_ = photonics.ba_observed, decoy.bound_programs
        chunks = []

        def faulty(spec, intensities):
            if intensities["signal"] == dead_mu:
                raise NoClicksError("no clicks at all")
            return ba_observed_(spec, intensities)

        def recording(observations, *args):
            chunks.append((observations, args, bound_programs_(observations, *args)))
            return chunks[-1][2]

        monkeypatch.setattr(photonics, "ba_observed", faulty)
        monkeypatch.setattr(decoy, "bound_programs", recording)
        channel = ChannelSpec(u_sigma=5.0)
        results = evaluate_points(channel, [(8.0, 0.0, mu) for mu in (0.004, 0.01, dead_mu, 0.05, 0.1)])
        assert [r.flags[:1] for r in results] == [[], [], ["no_clicks: no clicks at all"], [], []]
        ((observations, args, programs),) = chunks
        assert [intensities["signal"] for _, intensities, _ in observations] == [0.004, 0.01, 0.05, 0.1]
        assert_same_programs(programs, stack([frozen_bound_programs(t, i, *args, f) for t, i, f in observations]))

    def test_shared_index_is_read_only(self):
        programs = bound_programs([observation(6.0, 0.0, 0.05, 5.0)] * 2, DEFAULT_N_CUT, True)
        for name in ("objective", "indices", "indptr", "col0", "sign"):
            with pytest.raises(ValueError):
                getattr(programs, name)[0] = 1


class TestPoissonWeights:
    def test_bit_equal_to_poisson_pn(self):
        # 1e-5 is the smallest decoy of the default search (0.01 x mu_lo); 0 is a vacuum decoy
        intensities = [*np.geomspace(1e-6, 2.0, 31), 0.01 * 1e-3, 0.0]
        for n_cut in range(2, 41):
            weights = decoy._poisson_weights(intensities, n_cut)
            reference = np.array([[poisson_pn(m, n) for n in range(n_cut + 1)] for m in intensities])
            assert weights.shape == reference.shape
            assert weights.tobytes() == reference.tobytes()
            assert len(decoy._log_factorials(n_cut)) == n_cut + 1


def outcome(programs):
    """``solve_lps``'s optima and x for ``programs``, or its error's type and message."""
    try:
        return solve_lps(programs)
    except RuntimeError as exc:
        return type(exc), str(exc)


class TestSharedSolver:
    """Each thread reuses one HiGHS solver; every solve on it must give what a
    fresh solver gives, whatever was solved on it before."""

    def test_reused_solver_matches_fresh(self, monkeypatch):
        rng = np.random.default_rng(5)
        programs = [
            bound_programs([observation(atten, beta_deg, mu, u_sigma)], DEFAULT_N_CUT, tight)
            for atten in (0.0, 4.0, 8.0, 11.3, 12.0)
            for beta_deg in (0.0, 45.0)
            for mu in (0.004, 0.02, 0.1)
            for tight in (False, True)
            for u_sigma in (0.0, 5.0)
        ]
        for tight, beta_deg in ((False, 0.0), (True, 45.0)):
            for atten in (2.0, 10.0, 11.5):
                mus = np.geomspace(1e-3, 0.5, 17)[rng.choice(17, size=5, replace=False)]
                chunk = [observation(atten, beta_deg, mu, 5.0) for mu in mus]
                programs.append(bound_programs(chunk, DEFAULT_N_CUT, tight))
        infeasible = LinearPrograms.single("minimize", [1.0], [[1.0]], [2.0], [math.inf])
        model_error = replace(  # a row index past the last row: HiGHS refuses the model
            LinearPrograms.single("minimize", [1.0, 1.0], [[1.0, 2.0]], [0.5], [1.0]),
            indices=np.array([0, 1], dtype=np.int32),
        )
        programs = [programs[i] for i in rng.permutation(len(programs))]
        for k in range(0, len(programs), 7):
            programs.insert(k, (infeasible, model_error)[k // 7 % 2])

        solve_lps(LinearPrograms.single("maximize", [1.0], np.empty((0, 1)), [], []))
        shared = decoy._SOLVERS.highs
        for program in programs:
            reused = outcome(program)
            with monkeypatch.context() as fresh:
                fresh.setattr(decoy, "_SOLVERS", threading.local())
                reference = outcome(program)
            assert type(reused[0]) is type(reference[0])
            if isinstance(reference[0], type):
                assert reused == reference
            else:
                assert np.array_equal(reused[0], reference[0])
                assert np.array_equal(reused[1], reference[1])
        assert decoy._SOLVERS.highs is shared
        assert outcome(infeasible)[0] is outcome(model_error)[0] is InfeasibleError


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
        exact_rows = bound_programs([(table, intensities, 0.0)], DEFAULT_N_CUT)
        wide_rows = bound_programs([(table, intensities, 5e-6)], DEFAULT_N_CUT)
        assert np.all(wide_rows.lo < exact_rows.lo)
        assert np.all(wide_rows.hi > exact_rows.hi)
        # rows 18-20 bound the XX gains (the 7th program, min Y1 of XX), each
        # row divided by its largest Poisson weight
        for k, (intensity, q) in enumerate(obs["XX"]):
            scale = max(poisson_pn(intensity, n) for n in range(DEFAULT_N_CUT + 1))
            widening = 5e-6 * math.sqrt(q)
            assert (wide_rows.hi[18 + k] - exact_rows.hi[18 + k]) * scale == pytest.approx(widening, rel=1e-9)
            assert (exact_rows.lo[18 + k] - wide_rows.lo[18 + k]) * scale == pytest.approx(widening, rel=1e-9)
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

        def recording_solve_lps(programs):
            solutions = solve_lps(programs)
            batches.append((programs, solutions))
            return solutions

        monkeypatch.setattr(decoy, "solve_lps", recording_solve_lps)
        for atten in (2.0, 5.0, 8.0, 11.0, 12.5):
            spec = ChannelSpec(attenuation_db=atten, beta_rad=math.radians(beta_deg), u_sigma=u_sigma)
            _, intensities, table = make_observations(spec, 0.015)
            estimate_bounds(table, intensities, DEFAULT_N_CUT, tight_z_bounds=tight, fluctuation=spec.fluctuation)
        monkeypatch.undo()
        assert len(batches) == 5
        for programs, (values, _) in batches:
            # 5 pairs x {Y1, z1} x {min, max}, plus the ZZ vacuum yield
            assert len(programs) == 22
            for block, value in zip(blocks_of(programs), values):
                (separate,), _ = solve_lps(block)
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
