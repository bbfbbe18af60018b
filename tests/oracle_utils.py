"""Independent numerical oracles used by the test suite.

These deliberately avoid the closed forms under test: gains are rebuilt from
truncated Poisson/binomial sums, detector amplitudes from the general
six-state Bloch-sphere model, and LPs are re-solved by brute-force vertex
enumeration. Keep this module free of imports from the code paths it checks;
from ``photonics`` it takes only the ``ChannelSpec`` parameter record.
The vertex oracle lives in ``rfiqsdc.cli`` because the shipped ``selftest``
command uses it too; it shares no code with the ``decoy`` LP path it checks,
so one copy serves both.
"""

from __future__ import annotations

import math

from rfiqsdc.cli import vertex_enumeration_optimum  # noqa: F401  (re-exported for the tests)
from rfiqsdc.photonics import ChannelSpec

# The six protocol states as (theta, phi) on the Bloch sphere over {H, V}.
_BLOCH_STATES = {
    "H": (0.0, 0.0),
    "V": (math.pi, 0.0),
    "+": (math.pi / 2, 0.0),
    "-": (math.pi / 2, math.pi),
    "R": (math.pi / 2, math.pi / 2),
    "L": (math.pi / 2, 3 * math.pi / 2),
}

# The basis pairs the protocol keeps, labelled measurement basis first.
_RETAINED_PAIRS = ("ZZ", "XX", "XY", "YX", "YY")

# One preparation stands for each source basis, and each measurement basis has
# a (nominal, complementary) pair of outcomes; the primed X/Y outcomes live in
# the receiver's frame, rotated by beta.
_REPRESENTATIVE_STATE = {"Z": "H", "X": "+", "Y": "R"}
_OUTCOMES = {"Z": ("H", "V"), "X": ("+'", "-'"), "Y": ("R'", "L'")}


def amplitude_sq(state: str, outcome: str, beta_rad: float) -> float:
    """Squared projection of a named Bloch state onto a detector eigenstate."""
    theta, phi = _BLOCH_STATES[state]
    if outcome == "H":
        return (1.0 + math.cos(theta)) / 2.0
    if outcome == "V":
        return (1.0 - math.cos(theta)) / 2.0
    if outcome == "+'":
        return (1.0 + math.sin(theta) * math.cos(phi - beta_rad)) / 2.0
    if outcome == "-'":
        return (1.0 - math.sin(theta) * math.cos(phi - beta_rad)) / 2.0
    if outcome == "R'":
        return (1.0 + math.sin(theta) * math.sin(phi - beta_rad)) / 2.0
    if outcome == "L'":
        return (1.0 - math.sin(theta) * math.sin(phi - beta_rad)) / 2.0
    raise ValueError(f"unknown detector outcome {outcome!r}")


def folded_amplitudes(spec: ChannelSpec, pair: str) -> tuple[float, float]:
    """(nominal, complementary) squared amplitudes of a retained pair, with the
    more-illuminated detector taken as nominal, matching the package's folding
    convention."""
    if pair not in _RETAINED_PAIRS:
        raise ValueError(f"basis pair {pair!r} is not retained by the protocol")
    state = _REPRESENTATIVE_STATE[pair[1]]
    out_x, out_y = _OUTCOMES[pair[0]]
    fx = amplitude_sq(state, out_x, spec.beta_rad)
    fy = amplitude_sq(state, out_y, spec.beta_rad)
    if fx < fy:
        fx, fy = fy, fx
    return fx, fy


def poisson_pmf(mean: float, n: int) -> float:
    if mean == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1))


def yield_kx(k: int, fy_sq: float, eta_d: float, pd: float) -> float:
    """Reference detector yield, written independently of the package."""
    return (1.0 - pd) * (1.0 - fy_sq * eta_d) ** k - (1.0 - pd) ** 2 * (1.0 - eta_d) ** k


def gain_by_sum(intensity, eta_chan, eta_d, pd, fy_sq, n_max=80):
    """Gain as a truncated Poisson sum over photons arriving at the receiver."""
    mean = intensity * eta_chan
    return sum(poisson_pmf(mean, k) * yield_kx(k, fy_sq, eta_d, pd) for k in range(n_max + 1))


def true_n_photon_stats(spec: ChannelSpec, pair: str, n: int) -> tuple[float, float]:
    """True n-photon yield Y_n and error-weighted yield z_n = e_n * Y_n.

    Conditions on n photons leaving the source: each survives the one-way leg
    (half the round-trip fiber loss) independently with probability eta_chan,
    then the two-detector yields apply to the k arriving photons.
    """
    eta_chan = 10.0 ** (-spec.attenuation_db / 20.0) * spec.eta_opt_ba
    fx, fy = folded_amplitudes(spec, pair)
    y_n = 0.0
    z_n = 0.0
    for k in range(n + 1):
        binom = math.comb(n, k) * eta_chan**k * (1.0 - eta_chan) ** (n - k)
        y_x = yield_kx(k, fy, spec.eta_d, spec.pd)
        y_y = yield_kx(k, fx, spec.eta_d, spec.pd)
        y_n += binom * (y_x + y_y)
        z_n += binom * (spec.ed_a * y_x + (1.0 - spec.ed_a) * y_y)
    return y_n, z_n


def full_search_max_attenuation(
    optimize_mu, channel, beta_rad, search, estimator, atten_hi_db=20.0, width_db=0.01
):
    """The cutoff bisection with every step's intensity search run to the end.

    The reference for ``pipeline.max_attenuation``, which stops a step's
    search at its first secure call. ``optimize_mu`` is
    ``rfiqsdc.pipeline.optimize_mu``, passed in so that this module imports
    nothing from the pipeline.
    """

    def best(attenuation):
        return optimize_mu(channel, attenuation, beta_rad, search, estimator)[1]

    lo_point = best(0.0)
    if lo_point.capacity <= 0.0:
        return None, None
    lo, hi = 0.0, atten_hi_db
    hi_point = best(hi)
    if hi_point.capacity > 0.0:
        return hi, hi_point
    while hi - lo > width_db:
        mid = (lo + hi) / 2.0
        result = best(mid)
        if result.capacity > 0.0:
            lo, lo_point = mid, result
        else:
            hi = mid
    return lo, lo_point
