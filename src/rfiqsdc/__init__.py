"""Secrecy message capacity of frame-independent quantum secure direct
communication over weak-coherent-pulse channels.

Layers, bottom to top: ``photonics`` (source/channel/detector statistics),
``decoy`` (LP bounds on single-photon yields and errors), ``security``
(invariants, information bounds, capacity), ``pipeline`` (end-to-end
evaluation, intensity optimization, scans), ``cli`` (command-line front end).
"""

from .decoy import BoundsSet, estimate_bounds
from .photonics import ChannelSpec, LegStatsTable, ba_observed, bab_stats
from .pipeline import (
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
from .security import (
    BellDiagonalAttack,
    CapacityInputs,
    eve_info_bound,
    holevo_oracle,
    secrecy_capacity,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelSpec",
    "LegStatsTable",
    "ba_observed",
    "bab_stats",
    "BoundsSet",
    "estimate_bounds",
    "BellDiagonalAttack",
    "CapacityInputs",
    "eve_info_bound",
    "holevo_oracle",
    "secrecy_capacity",
    "MuSearchSpec",
    "EstimatorSpec",
    "ScanConfig",
    "PointResult",
    "evaluate_point",
    "evaluate_points",
    "optimize_mu",
    "scan",
    "max_attenuation",
    "__version__",
]
