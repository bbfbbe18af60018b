"""Weak-coherent-pulse source, lossy channel, misaligned bases and threshold detectors.

Everything here is a closed-form expectation value: no sampling. The model is a
two-detector polarization measurement behind a fiber channel, with Poissonian
photon statistics at the source and independent dark counts at each detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "NoClicksError",
    "ChannelSpec",
    "LegStatsTable",
    "PAIR_LABELS",
    "INTENSITY_LABELS",
    "poisson_pn",
    "distance_from_attenuation",
    "detector_yield",
    "gain_component",
    "ba_observed",
    "bab_stats",
]


class NoClicksError(ValueError):
    """Raised when a gain is exactly zero and no error rate can be defined."""


def _check_prob(name, value):
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class ChannelSpec:
    """Physical parameters of the two-leg channel.

    ``attenuation_db`` is the *round-trip* fiber attenuation; the one-way leg
    sees half of it.  Defaults are the standard simulation parameter set.

    ``n_pulses`` (N) and ``u_sigma`` (u) set the statistical fluctuation of the
    decoy observations: every observed gain Q and error gain Q*E is only known
    to within u standard deviations of a count over N pulses, Q(1 +- u/sqrt(NQ))
    (Ma, Qi, Zhao & Lo, PRA 72, 012326 (2005)). N counts the pulses sent per
    (intensity, basis-pair) cell. The defaults u = 5 and N = 1e12 are round
    values inferred from the abstract's 10 dB capacities and cutoffs, not read
    from the paper's parameter table. ``n_pulses=math.inf`` or ``u_sigma=0``
    gives the asymptotic model with exact observations.
    """

    attenuation_db: float = 0.0
    alpha_db_per_km: float = 0.2
    eta_opt_ba: float = 0.21
    eta_opt_bab: float = 0.088
    eta_d: float = 0.7
    pd: float = 8e-8
    ed_a: float = 0.0131
    ed_b: float = 0.0026
    beta_rad: float = 0.0
    n_pulses: float = 1e12
    u_sigma: float = 5.0

    def __post_init__(self):
        if not 0.0 <= self.attenuation_db < math.inf:
            raise ValueError(f"attenuation_db must be finite and >= 0, got {self.attenuation_db}")
        if not 0.0 < self.alpha_db_per_km < math.inf:
            raise ValueError(f"alpha_db_per_km must be finite and > 0, got {self.alpha_db_per_km}")
        for name in ("eta_opt_ba", "eta_opt_bab", "eta_d", "pd", "ed_a", "ed_b"):
            _check_prob(name, getattr(self, name))
        if not math.isfinite(self.beta_rad):
            raise ValueError("beta_rad must be finite")
        if not self.n_pulses > 0:
            raise ValueError(f"n_pulses must be > 0, got {self.n_pulses}")
        if not 0.0 <= self.u_sigma < math.inf:
            raise ValueError(f"u_sigma must be finite and >= 0, got {self.u_sigma}")

    @property
    def fluctuation(self) -> float:
        """u / sqrt(N): an observation o is known to within o +- fluctuation * sqrt(o)."""
        return self.u_sigma / math.sqrt(self.n_pulses)

    @property
    def transmission_ba(self) -> float:
        """One-way (receiver -> sender) transmission t * eta_opt: half the fiber loss."""
        return 10.0 ** (-(self.attenuation_db / 2.0) / 10.0) * self.eta_opt_ba

    @property
    def transmission_bab(self) -> float:
        """Round-trip transmission t * eta_opt: the whole fiber loss."""
        return 10.0 ** (-self.attenuation_db / 10.0) * self.eta_opt_bab


# Retained basis combinations, labelled measurement-basis first (Alice, Bob).
PAIR_LABELS = ("ZZ", "XX", "XY", "YX", "YY")

INTENSITY_LABELS = ("signal", "decoy1", "decoy2")


def _folded_amplitudes(beta_rad: float) -> dict[str, tuple[float, float]]:
    """(nominal, complementary) squared detector amplitudes of every retained pair.

    Each pair is represented by one preparation: H for a Z-basis source, + for
    X and R for Y. The frame misalignment rotates only the receiver's X-Y
    plane, so a pair's two amplitudes are (1 +- s)/2 with s = 1 for ZZ,
    cos(-beta) or sin(-beta) for the + state seen by X' or Y', and
    cos(pi/2 - beta) or sin(pi/2 - beta) for the R state. These are the
    Bloch-sphere projections cos(phi - beta) and sin(phi - beta) as written;
    sin(beta) and cos(beta) would round differently. The nominal detector is
    the more-illuminated one: the correlation sum C only uses squared
    correlators, and this folding keeps the estimate symmetric under
    beta -> -beta and beta -> 90 deg - beta.
    """
    right = math.pi / 2 - beta_rad
    overlaps = {
        "ZZ": 1.0,
        "XX": math.cos(-beta_rad),
        "XY": math.cos(right),
        "YX": math.sin(-beta_rad),
        "YY": math.sin(right),
    }
    return {label: ((1.0 + abs(s)) / 2.0, (1.0 - abs(s)) / 2.0) for label, s in overlaps.items()}


@dataclass
class LegStatsTable:
    """Observed gain/error statistics for one channel configuration.

    ``entries`` maps (intensity label, pair label) to (Q, E). ``q_ba_signal``
    is the Z-basis signal-intensity gain of the one-way leg.
    """

    entries: dict = field(default_factory=dict)
    q_ba_signal: float = 0.0


def poisson_pn(intensity: float, n: int) -> float:
    """Probability that a pulse of mean photon number ``intensity`` carries n photons."""
    if intensity < 0:
        raise ValueError(f"intensity must be >= 0, got {intensity}")
    if n < 0 or int(n) != n:
        raise ValueError(f"photon count must be a non-negative integer, got {n}")
    n = int(n)
    if intensity == 0:
        return 1.0 if n == 0 else 0.0
    # log-domain keeps large n stable
    return math.exp(-intensity + n * math.log(intensity) - math.lgamma(n + 1))


def distance_from_attenuation(spec: ChannelSpec) -> float:
    """One-way fiber distance in km implied by the round-trip attenuation."""
    return spec.attenuation_db / (2.0 * spec.alpha_db_per_km)


def detector_yield(k: int, fy_sq: float, eta_d: float, pd: float) -> float:
    """Probability that k photons at the receiver trigger the nominal detector.

    ``fy_sq`` is the squared amplitude on the *other* detector.  This is the
    generating-function-consistent closed form: summing it against a Poisson
    photon-number distribution reproduces the exponential gain expression.
    """
    if k < 0 or int(k) != k:
        raise ValueError(f"photon count must be a non-negative integer, got {k}")
    _check_prob("fy_sq", fy_sq)
    k = int(k)
    return (1.0 - pd) * (1.0 - fy_sq * eta_d) ** k - (1.0 - pd) ** 2 * (1.0 - eta_d) ** k


def gain_component(intensity: float, eta_chan: float, eta_d: float, pd: float, fy_sq: float) -> float:
    """Per-pulse click probability of the nominal detector for one preparation.

    Equals the Poisson-weighted sum of ``detector_yield`` over the photon
    number arriving at the receiver.
    """
    mean = intensity * eta_chan * eta_d
    return (1.0 - pd) * math.exp(-mean * fy_sq) - (1.0 - pd) ** 2 * math.exp(-mean)


def ba_observed(spec: ChannelSpec, intensities: dict[str, float]) -> LegStatsTable:
    """Fill the one-way-leg statistics table for all retained pairs and intensities.

    ``intensities`` maps the labels signal/decoy1/decoy2 to mean photon numbers
    with signal > decoy1 > decoy2 >= 0.
    """
    missing = set(INTENSITY_LABELS) - set(intensities)
    if missing:
        raise ValueError(f"missing intensity labels: {sorted(missing)}")
    mu, d1, d2 = (intensities[k] for k in INTENSITY_LABELS)
    if not (mu > d1 > d2 >= 0.0):
        raise ValueError(f"intensities must satisfy signal > decoy1 > decoy2 >= 0, got {mu}, {d1}, {d2}")
    eta = spec.transmission_ba
    amplitudes = _folded_amplitudes(spec.beta_rad)
    table = LegStatsTable()
    for label in INTENSITY_LABELS:
        intensity = intensities[label]
        for pair_label, (nominal_sq, other_sq) in amplitudes.items():
            q_x = gain_component(intensity, eta, spec.eta_d, spec.pd, other_sq)
            q_y = gain_component(intensity, eta, spec.eta_d, spec.pd, nominal_sq)
            q = q_x + q_y
            if q <= 0.0:
                raise NoClicksError(f"zero gain for pair {pair_label} at intensity {intensity}")
            table.entries[(label, pair_label)] = (q, (spec.ed_a * q_x + (1.0 - spec.ed_a) * q_y) / q)
    table.q_ba_signal = table.entries[("signal", "ZZ")][0]
    return table


def bab_stats(spec: ChannelSpec, mu: float) -> tuple[float, float]:
    """Round-trip gain and QBER, modeled as a Z-basis pass through both legs."""
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    eta = spec.transmission_bab
    q_x = gain_component(mu, eta, spec.eta_d, spec.pd, 0.0)
    q_y = gain_component(mu, eta, spec.eta_d, spec.pd, 1.0)
    q = q_x + q_y
    if q <= 0.0:
        raise NoClicksError("zero round-trip gain")
    e = (spec.ed_b * q_x + (1.0 - spec.ed_b) * q_y) / q
    return q, e
