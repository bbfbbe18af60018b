"""Independent numerical oracles used by the test suite.

These deliberately avoid the closed forms under test: gains are rebuilt from
truncated Poisson/binomial sums, and LPs are re-solved by brute-force vertex
enumeration. Keep this module free of imports from the code paths it checks,
except for the elementary single-photon amplitudes and the vertex oracle.
The vertex oracle lives in ``rfiqsdc.cli`` because the shipped ``selftest``
command uses it too; it shares no code with the ``decoy`` LP path it checks,
so one copy serves both.
"""

from __future__ import annotations

import math

from rfiqsdc.cli import vertex_enumeration_optimum  # noqa: F401  (re-exported for the tests)
from rfiqsdc.photonics import (
    BasisPair,
    ChannelSpec,
    Leg,
    amplitude_sq,
    leg_transmission,
)


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


def folded_amplitudes(spec: ChannelSpec, pair: BasisPair) -> tuple[float, float]:
    """(nominal, complementary) squared amplitudes with the more-illuminated
    detector taken as nominal, matching the package's folding convention."""
    prep = pair.representative_prep()
    out_x, out_y = pair.outcomes()
    fx = amplitude_sq(prep, out_x, spec.beta_rad)
    fy = amplitude_sq(prep, out_y, spec.beta_rad)
    if fx < fy:
        fx, fy = fy, fx
    return fx, fy


def true_n_photon_stats(spec: ChannelSpec, pair: BasisPair, n: int) -> tuple[float, float]:
    """True n-photon yield Y_n and error-weighted yield z_n = e_n * Y_n.

    Conditions on n photons leaving the source: each survives the one-way leg
    independently with probability eta_chan, then the two-detector yields apply
    to the k arriving photons.
    """
    eta_chan = leg_transmission(spec, Leg.BA)
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

