"""Weak-coherent-pulse source, lossy channel, misaligned bases and threshold detectors.

Everything here is a closed-form expectation value: no sampling. The model is a
two-detector polarization measurement behind a fiber channel, with Poissonian
photon statistics at the source and independent dark counts at each detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "Basis",
    "Leg",
    "NoClicksError",
    "ChannelSpec",
    "PolarizationPrep",
    "BasisPair",
    "LegStatsTable",
    "PAIR_LABELS",
    "INTENSITY_LABELS",
    "named_prep",
    "poisson_pn",
    "distance_from_attenuation",
    "leg_transmission",
    "amplitude_sq",
    "detector_yield",
    "gain_component",
    "pair_stats",
    "ba_observed",
    "bab_stats",
]


class Basis(str, Enum):
    X = "X"
    Y = "Y"
    Z = "Z"


class Leg(str, Enum):
    """Transmission leg: receiver->sender one way, or the full round trip."""

    BA = "BA"
    BAB = "BAB"


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
        if self.attenuation_db < 0:
            raise ValueError(f"attenuation_db must be >= 0, got {self.attenuation_db}")
        if self.alpha_db_per_km <= 0:
            raise ValueError(f"alpha_db_per_km must be > 0, got {self.alpha_db_per_km}")
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


# Named single-photon polarization preparations: (theta, phi) on the Bloch sphere
# over {H, V}.
_NAMED_PREPS = {
    "H": (0.0, 0.0),
    "V": (math.pi, 0.0),
    "+": (math.pi / 2, 0.0),
    "-": (math.pi / 2, math.pi),
    "R": (math.pi / 2, math.pi / 2),
    "L": (math.pi / 2, 3 * math.pi / 2),
}


@dataclass(frozen=True)
class PolarizationPrep:
    theta: float
    phi: float


def named_prep(name: str) -> PolarizationPrep:
    """One of the six protocol states H, V, +, -, R, L."""
    try:
        theta, phi = _NAMED_PREPS[name]
    except KeyError:
        raise ValueError(f"unknown preparation {name!r}") from None
    return PolarizationPrep(theta, phi)


# Retained basis combinations, labelled measurement-basis first (Alice, Bob).
PAIR_LABELS = ("ZZ", "XX", "XY", "YX", "YY")

INTENSITY_LABELS = ("signal", "decoy1", "decoy2")

# Representative preparation per pair, exploiting the model's symmetry: H for a
# Z-basis source, + for X, R for Y.
_REPRESENTATIVE_PREP = {"Z": "H", "X": "+", "Y": "R"}

# Detector outcomes per measurement basis: (nominal, complementary). The primed
# X/Y outcomes live in the receiver's rotated frame.
_OUTCOMES = {"Z": ("H", "V"), "X": ("+'", "-'"), "Y": ("R'", "L'")}


@dataclass(frozen=True)
class BasisPair:
    """A retained (preparation basis, measurement basis) combination."""

    prep: Basis
    meas: Basis

    def __post_init__(self):
        if self.label not in PAIR_LABELS:
            raise ValueError(f"basis pair {self.label} is not retained by the protocol")

    @property
    def label(self) -> str:
        return f"{self.meas.value}{self.prep.value}"

    @classmethod
    def from_label(cls, label: str) -> "BasisPair":
        if len(label) != 2:
            raise ValueError(f"bad basis-pair label {label!r}")
        return cls(prep=Basis(label[1]), meas=Basis(label[0]))

    def representative_prep(self) -> PolarizationPrep:
        return named_prep(_REPRESENTATIVE_PREP[self.prep.value])

    def outcomes(self) -> tuple[str, str]:
        return _OUTCOMES[self.meas.value]


@dataclass
class LegStatsTable:
    """Observed gain/error statistics for one channel configuration.

    ``entries`` maps (intensity label, pair label) to (Q, E). ``q_ba_signal``
    is the Z-basis signal-intensity gain of the one-way leg.
    """

    entries: dict = field(default_factory=dict)
    q_bab: float = 0.0
    e_bab: float = 0.0
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


def leg_transmission(spec: ChannelSpec, leg: Leg) -> float:
    """Channel transmission efficiency t * eta_opt for the given leg."""
    if leg is Leg.BA:
        fiber_db = spec.attenuation_db / 2.0
        eta_opt = spec.eta_opt_ba
    elif leg is Leg.BAB:
        fiber_db = spec.attenuation_db
        eta_opt = spec.eta_opt_bab
    else:
        raise ValueError(f"unknown leg {leg!r}")
    return 10.0 ** (-fiber_db / 10.0) * eta_opt


def amplitude_sq(prep: PolarizationPrep, outcome: str, beta_rad: float) -> float:
    """Squared projection amplitude of a prepared state onto a detector eigenstate.

    ``outcome`` is one of H, V, +', -', R', L'; the primed states are the
    receiver's X/Y eigenstates, rotated by the frame misalignment ``beta_rad``.
    """
    theta, phi = prep.theta, prep.phi
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


def pair_stats(
    spec: ChannelSpec,
    eta_chan: float,
    intensity: float,
    pair: BasisPair,
    prep: PolarizationPrep | None = None,
    ed: float | None = None,
) -> tuple[float, float]:
    """Gain and error rate for one basis pair at one pulse intensity.

    Uses the representative preparation for the pair unless ``prep`` is given.
    ``ed`` defaults to the sender-side intrinsic error rate ``ed_a``.
    """
    if prep is None:
        prep = pair.representative_prep()
    if ed is None:
        ed = spec.ed_a
    out_x, out_y = pair.outcomes()
    fx_sq = amplitude_sq(prep, out_x, spec.beta_rad)
    fy_sq = amplitude_sq(prep, out_y, spec.beta_rad)
    # the nominal detector is the more-illuminated one; the correlation sum C
    # only uses squared correlators, and this folding keeps the estimate
    # symmetric under beta -> -beta and beta -> 90 deg - beta
    if fx_sq < fy_sq:
        fx_sq, fy_sq = fy_sq, fx_sq
    q_x = gain_component(intensity, eta_chan, spec.eta_d, spec.pd, fy_sq)
    q_y = gain_component(intensity, eta_chan, spec.eta_d, spec.pd, fx_sq)
    q = q_x + q_y
    if q <= 0.0:
        raise NoClicksError(f"zero gain for pair {pair.label} at intensity {intensity}")
    e = (ed * q_x + (1.0 - ed) * q_y) / q
    return q, e


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
    eta = leg_transmission(spec, Leg.BA)
    table = LegStatsTable()
    for label in INTENSITY_LABELS:
        for pair_label in PAIR_LABELS:
            pair = BasisPair.from_label(pair_label)
            q, e = pair_stats(spec, eta, intensities[label], pair)
            table.entries[(label, pair_label)] = (q, e)
    table.q_ba_signal = table.entries[("signal", "ZZ")][0]
    return table


def bab_stats(spec: ChannelSpec, mu: float) -> tuple[float, float]:
    """Round-trip gain and QBER, modeled as a Z-basis pass through both legs."""
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    eta = leg_transmission(spec, Leg.BAB)
    q_x = gain_component(mu, eta, spec.eta_d, spec.pd, 0.0)
    q_y = gain_component(mu, eta, spec.eta_d, spec.pd, 1.0)
    q = q_x + q_y
    if q <= 0.0:
        raise NoClicksError("zero round-trip gain")
    e = (spec.ed_b * q_x + (1.0 - spec.ed_b) * q_y) / q
    return q, e
