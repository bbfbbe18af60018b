"""End-to-end capacity evaluation, intensity optimization and attenuation scans."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import decoy, photonics, security
from .photonics import ChannelSpec, NoClicksError

__all__ = [
    "MuSearchSpec",
    "EstimatorSpec",
    "ScanConfig",
    "PointResult",
    "evaluate_point",
    "evaluate_points",
    "optimize_mu",
    "scan",
    "max_attenuation",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _check_count(name, value, least):
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")


@dataclass(frozen=True)
class MuSearchSpec:
    """Signal-intensity search: coarse log grid, then golden-section refinement."""

    mu_lo: float = 1e-3
    mu_hi: float = 0.5
    coarse_points: int = 25
    rel_tol: float = 1e-4

    def __post_init__(self):
        if not 0.0 < self.mu_lo <= self.mu_hi < math.inf:
            raise ValueError(f"need 0 < mu_lo <= mu_hi < inf, got [{self.mu_lo}, {self.mu_hi}]")
        _check_count("coarse_points", self.coarse_points, 1)
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and > 0, got {self.rel_tol}")


@dataclass(frozen=True)
class EstimatorSpec:
    """Decoy-state estimator settings, the same for every evaluation of a run.

    ``n_cut`` is the largest photon number kept as an LP variable;
    ``decoy_ratios`` are (r1, r2), the two decoy intensities as fractions of the
    signal mu; ``tight_z_bounds`` couples the error programs through z_n <= Y_n
    (see ``decoy.estimate_bounds``); ``y0_from_model`` takes the vacuum yield
    from the dark-count model instead of its decoy lower bound.
    """

    n_cut: int = decoy.DEFAULT_N_CUT
    decoy_ratios: tuple = (0.05, 0.01)
    tight_z_bounds: bool = False
    y0_from_model: bool = False

    def __post_init__(self):
        _check_count("n_cut", self.n_cut, 2)
        r1, r2 = self.decoy_ratios
        if not 0.0 < r2 < r1 < 1.0:
            raise ValueError(f"decoy ratios must satisfy 0 < r2 < r1 < 1, got {self.decoy_ratios}")


@dataclass(frozen=True)
class ScanConfig:
    """An attenuation/misalignment grid plus everything needed to evaluate it."""

    channel: ChannelSpec = ChannelSpec()
    atten_start_db: float = 0.0
    atten_stop_db: float = 12.0
    atten_step_db: float = 0.5
    betas_rad: tuple = (0.0,)
    mu_search: MuSearchSpec = MuSearchSpec()
    fixed_mus: tuple = ()  # used by fixed-intensity scans
    mode: str = "optimized"  # "optimized" | "fixed"
    estimator: EstimatorSpec = EstimatorSpec()

    def __post_init__(self):
        for name in ("atten_start_db", "atten_stop_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.atten_step_db < math.inf:
            raise ValueError(f"atten_step_db must be finite and > 0, got {self.atten_step_db}")
        if self.mode not in ("optimized", "fixed"):
            raise ValueError(f"bad scan mode {self.mode!r}")
        if self.mode == "fixed" and not self.fixed_mus:
            raise ValueError("fixed-intensity scan requires at least one mu in fixed_mus")
        if self.mode == "optimized" and self.fixed_mus:
            raise ValueError("an optimized scan chooses its own mu and takes no fixed_mus")

    def attenuation_grid(self):
        n = int(math.floor((self.atten_stop_db - self.atten_start_db) / self.atten_step_db + 1e-9)) + 1
        return [self.atten_start_db + i * self.atten_step_db for i in range(max(n, 0))]


@dataclass
class PointResult:
    """Full record of one capacity evaluation."""

    attenuation_db: float
    distance_km: float
    beta_rad: float
    mu: float
    capacity: float
    c_lower: float
    q_value: float
    q_bab: float
    e_bab: float
    q_ba_signal: float
    y1_min: float
    y1_max: float
    qn1_bae: float
    qn2_bae: float
    flags: list = field(default_factory=list)

    @property
    def beta_deg(self) -> float:
        return math.degrees(self.beta_rad)


def _failed_point(spec: ChannelSpec, mu: float, flag: str) -> PointResult:
    return PointResult(
        attenuation_db=spec.attenuation_db,
        distance_km=photonics.distance_from_attenuation(spec),
        beta_rad=spec.beta_rad,
        mu=mu,
        capacity=0.0, c_lower=0.0, q_value=1.0, q_bab=0.0, e_bab=0.0, q_ba_signal=0.0,
        y1_min=0.0, y1_max=1.0, qn1_bae=0.0, qn2_bae=0.0,
        flags=[flag],
    )


# Points whose programs share one HiGHS call. The time per point is least at 5
# (CPU ms per point at 10 dB over a 25-point mu grid, for 1, 2, 3, 4, 5, 8, 10,
# 25 points per call: 1.22, 1.00, 0.97, 1.00, 0.96, 1.00, 1.00, 1.23), while
# HiGHS's memory grows by about 0.2 MB per point in one program (peak RSS
# +0.8 MB for 5 points, +1.6 MB for 9, +4.5 MB for 25).
_POINTS_PER_SOLVE = 5


@dataclass
class _Observed:
    """One point's decoy observations."""

    spec: ChannelSpec
    mu: float
    table: photonics.LegStatsTable
    intensities: dict


def _observe(channel, attenuation_db, beta_rad, mu, estimator) -> _Observed | PointResult:
    """The point's observations, or its flagged result if nothing clicks."""
    spec = replace(channel, attenuation_db=attenuation_db, beta_rad=beta_rad)
    r1, r2 = estimator.decoy_ratios
    intensities = {"signal": mu, "decoy1": r1 * mu, "decoy2": r2 * mu}
    try:
        table = photonics.ba_observed(spec, intensities)
    except NoClicksError as exc:
        return _failed_point(spec, mu, f"no_clicks: {exc}")
    return _Observed(spec, mu, table, intensities)


def _solve_groups(points, estimator) -> list:
    """Per observed point, the optima of its programs or its ``InfeasibleError``.

    All points' programs go to HiGHS in one call. A stacked program can fail
    where each point solves alone, so a failed call of several points is
    retried point by point; a lone point's infeasibility is its outcome, and
    any other failure of a lone point propagates.
    """
    if not points:
        return []
    observations = [(o.table, o.intensities, o.spec.fluctuation) for o in points]
    try:
        optima, _ = decoy.solve_lps(decoy.bound_programs(observations, estimator.n_cut, estimator.tight_z_bounds))
    except RuntimeError as exc:  # InfeasibleError is one
        if len(points) > 1:
            return [outcome for point in points for outcome in _solve_groups([point], estimator)]
        if isinstance(exc, decoy.InfeasibleError):
            return [exc]
        raise
    return optima.reshape(len(points), -1).tolist()


def _finish(observed: _Observed, outcome, estimator: EstimatorSpec) -> PointResult:
    """A point's result from its observations and the outcome of its programs."""
    spec, mu, table = observed.spec, observed.mu, observed.table
    if isinstance(outcome, decoy.InfeasibleError):
        return _failed_point(spec, mu, f"lp_infeasible: {outcome}")
    bounds = decoy.read_bounds(outcome)
    try:
        q_bab, e_bab = photonics.bab_stats(spec, mu)
    except NoClicksError as exc:
        return _failed_point(spec, mu, f"no_clicks: {exc}")

    flags = []
    if estimator.y0_from_model:
        y0 = 2.0 * spec.pd * (1.0 - spec.pd) - spec.pd**2
        y0 = max(y0, 0.0)
    else:
        y0 = bounds.y0[0]
    y1_min, y1_max = bounds.y1["ZZ"]
    if y1_max >= 1.0 - 1e-12 and y1_min <= 1e-12:
        flags.append("vacuous_y1")
    gains = security.eve_gains(mu, max(y1_min, y0), y0, table.q_ba_signal)
    if gains.clamped:
        flags.append("qn2_clamped")
    c_lower = bounds.c_lower
    if c_lower > 2.0:
        flags.append("c_lower_clamped")
        c_lower = 2.0
    capacity = security.secrecy_capacity(
        security.CapacityInputs(
            q_bab=q_bab,
            e_bab=e_bab,
            q_n1_bae=gains.q_n1,
            q_n2_bae=gains.q_n2,
            c_lower=c_lower,
        )
    )
    return PointResult(
        attenuation_db=spec.attenuation_db,
        distance_km=photonics.distance_from_attenuation(spec),
        beta_rad=spec.beta_rad,
        mu=mu,
        capacity=capacity,
        c_lower=c_lower,
        q_value=bounds.e1["ZZ"][1],
        q_bab=q_bab,
        e_bab=e_bab,
        q_ba_signal=table.q_ba_signal,
        y1_min=y1_min,
        y1_max=y1_max,
        qn1_bae=gains.q_n1,
        qn2_bae=gains.q_n2,
        flags=flags,
    )


def evaluate_points(
    channel: ChannelSpec, points, estimator: EstimatorSpec = EstimatorSpec()
) -> list[PointResult]:
    """Evaluate the secrecy message capacity at (attenuation_db, beta_rad, mu) triples.

    Returns one result per triple, in order. The decoy observations carry the
    statistical fluctuation set by ``channel.n_pulses`` and ``channel.u_sigma``.
    The programs of up to five points are solved in one HiGHS call, which can
    move last bits: at 0-11 dB x 25 mu at 0 deg, 199 of 300 points differ from
    one call per point, by at most 8.7e-13 relative. Failures of individual
    stages (no clicks, LP infeasibility) are reported as flagged zero-capacity
    results rather than exceptions.
    """
    results = []
    for start in range(0, len(points), _POINTS_PER_SOLVE):
        observed = [_observe(channel, *point, estimator) for point in points[start : start + _POINTS_PER_SOLVE]]
        outcomes = iter(_solve_groups([o for o in observed if isinstance(o, _Observed)], estimator))
        results += [_finish(o, next(outcomes), estimator) if isinstance(o, _Observed) else o for o in observed]
    return results


def evaluate_point(
    channel: ChannelSpec,
    attenuation_db: float,
    beta_rad: float,
    mu: float,
    estimator: EstimatorSpec = EstimatorSpec(),
) -> PointResult:
    """Evaluate one point: the single-point case of ``evaluate_points``."""
    return evaluate_points(channel, [(attenuation_db, beta_rad, mu)], estimator)[0]


def _evaluate_mus(channel, attenuation_db, beta_rad, estimator, mus) -> list[PointResult]:
    return evaluate_points(channel, [(attenuation_db, beta_rad, mu) for mu in mus], estimator)


def optimize_mu(
    channel: ChannelSpec,
    attenuation_db: float,
    beta_rad: float,
    search: MuSearchSpec = MuSearchSpec(),
    estimator: EstimatorSpec = EstimatorSpec(),
) -> tuple[float, PointResult]:
    """Best signal intensity at one grid point.

    Coarse logarithmic grid, then golden-section refinement on the bracketing
    interval; ties break toward smaller mu. Every evaluation uses ``estimator``.
    A best point without positive capacity is flagged ``no_positive_capacity``.
    """
    caps = functools.partial(_evaluate_mus, channel, attenuation_db, beta_rad, estimator)
    (best_mu, best), _ = _drive(_golden_search(search), caps)
    if best.capacity <= 0.0:
        best.flags.append("no_positive_capacity")
    return best_mu, best


def _golden_search(search: MuSearchSpec):
    """The coarse grid, then golden-section refinement, as a generator.

    Yields the mu values of each ``evaluate_points`` call, receives their
    results, and returns (best mu, its result). The coarse grid goes in
    chunks of ``_POINTS_PER_SOLVE``; each golden step depends on the one
    before, so only the opening pair shares a call.
    """
    if search.mu_lo == search.mu_hi or search.coarse_points == 1:
        (only,) = yield [search.mu_lo]
        return search.mu_lo, only
    grid = np.geomspace(search.mu_lo, search.mu_hi, search.coarse_points)
    results = []
    for start in range(0, len(grid), _POINTS_PER_SOLVE):
        results += yield grid[start : start + _POINTS_PER_SOLVE]
    i_best = int(np.argmax([r.capacity for r in results]))  # the first (smallest-mu) maximum

    # bracket around the coarse winner, then golden-section on log(mu)
    lo = grid[max(i_best - 1, 0)]
    hi = grid[min(i_best + 1, len(grid) - 1)]
    a, b = math.log(lo), math.log(hi)
    best_mu, best = grid[i_best], results[i_best]
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    rc, rd = yield [math.exp(c), math.exp(d)]
    while (b - a) > search.rel_tol:
        if rc.capacity >= rd.capacity:
            b, d, rd = d, c, rc
            c = b - _INV_PHI * (b - a)
            (rc,) = yield [math.exp(c)]
        else:
            a, c, rc = c, d, rd
            d = a + _INV_PHI * (b - a)
            (rd,) = yield [math.exp(d)]
    for mu, r in ((math.exp(c), rc), (math.exp(d), rd)):
        if r.capacity > best.capacity or (r.capacity == best.capacity and mu < best_mu):
            best_mu, best = mu, r
    return best_mu, best


def _drive(steps, caps, results=None, stop_if_secure=False):
    """Feed the search generator ``steps`` the ``caps`` of each request, sending ``results`` first.

    Returns (its return value, None) once it ends; under ``stop_if_secure``,
    (None, results) at the first results with a positive capacity, which a
    later call sends to resume the paused search.
    """
    try:
        while True:
            results = caps(steps.send(results))
            if stop_if_secure and any(r.capacity > 0.0 for r in results):
                return None, results
    except StopIteration as stop:
        return stop.value, None


def scan(config: ScanConfig) -> list[PointResult]:
    """Evaluate every grid point in grid order; never aborts on a single point's failure."""
    cells = [(a, beta) for a in config.attenuation_grid() for beta in config.betas_rad]
    if config.mode == "fixed":
        points = [(a, beta, mu) for a, beta in cells for mu in config.fixed_mus]
        return evaluate_points(config.channel, points, config.estimator)
    return [optimize_mu(config.channel, a, beta, config.mu_search, config.estimator)[1] for a, beta in cells]


def max_attenuation(
    channel: ChannelSpec,
    beta_rad: float,
    search: MuSearchSpec = MuSearchSpec(),
    estimator: EstimatorSpec = EstimatorSpec(),
    atten_hi_db: float = 20.0,
    width_db: float = 0.01,
) -> tuple[float | None, PointResult | None]:
    """Largest attenuation with positive optimized capacity, by bisection.

    Returns (None, None) when no attenuation in [0, atten_hi_db] yields a
    positive capacity. Every evaluation uses ``estimator``. A step is secure
    as soon as one of its evaluated mu has positive capacity, so its search
    stops there; only the last secure step's search is run to the end, which
    gives the same result as optimizing every step.
    """
    if not 0.0 < width_db < math.inf or not 0.0 <= atten_hi_db < math.inf:
        raise ValueError(f"need width_db > 0 and atten_hi_db >= 0, both finite; got {width_db}, {atten_hi_db}")

    def secure_search(attenuation):
        """The search at ``attenuation`` paused at its first secure call, or None if it has none."""
        steps = _golden_search(search)
        caps = functools.partial(_evaluate_mus, channel, attenuation, beta_rad, estimator)
        _, pending = _drive(steps, caps, stop_if_secure=True)
        return None if pending is None else (steps, caps, pending)

    def finish(paused):
        (_, best), _ = _drive(*paused)
        return best

    lo_search = secure_search(0.0)
    if lo_search is None:
        return None, None
    lo, hi = 0.0, atten_hi_db
    hi_search = secure_search(hi)
    if hi_search is not None:
        return hi, finish(hi_search)
    while hi - lo > width_db:
        mid = (lo + hi) / 2.0
        mid_search = secure_search(mid)
        if mid_search is not None:
            lo, lo_search = mid, mid_search
        else:
            hi = mid
    return lo, finish(lo_search)
