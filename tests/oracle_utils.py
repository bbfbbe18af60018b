"""Independent numerical oracles used by the test suite.

These deliberately avoid the closed forms under test: gains are rebuilt from
truncated Poisson/binomial sums, detector amplitudes from the general
six-state Bloch-sphere model, and LPs are re-solved by brute-force vertex
enumeration, and the decoy programs by a frozen copy of their one-point
builder and of the stacking that once joined them. Keep this module free of
imports from the code paths it checks; from ``photonics`` it takes only the
``ChannelSpec`` parameter record.
The vertex oracle lives in ``rfiqsdc.cli`` because the shipped ``selftest``
command uses it too; it shares no code with the ``decoy`` LP path it checks,
so one copy serves both.
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace

import numpy as np
from scipy.sparse import block_diag, csc_array

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


# The decoy program builder as it stood before programs were built a chunk at a
# time: one point's programs from scalar Poisson weights through a sparse CSC
# index, and ``stack`` to join several points' programs. The pipeline's
# programs must equal these bit for bit.
_INTENSITIES = ("signal", "decoy1", "decoy2")
_PROGRAM_SIGNS = (1.0, -1.0)  # minimize, then maximize
_PROGRAMS = tuple(
    (pair, observation, target, sign)
    for pair, label in enumerate(_RETAINED_PAIRS)
    for observation, target in ((0, 1), (1, 1), (0, 0))[: 3 if label == "ZZ" else 2]
    for sign in _PROGRAM_SIGNS
)


@functools.cache
def _point_layout(n_cut, tight_z_bounds):
    n_var = n_cut + 1
    coupling = 2 * len(_RETAINED_PAIRS) * len(_INTENSITIES)  # bound index of (-inf, 0]
    weights = np.arange(1, 3 * n_var + 1).reshape(3, n_var)  # index + 1: only nonzeros are kept
    coupled = np.zeros((6 + n_var, 2 * n_var), dtype=int)
    coupled[:3, :n_var] = coupled[3:6, n_var:] = weights
    coupled[6:, :n_var] = np.diag(np.full(n_var, 3 * n_var + 1))  # the -1 entries
    coupled[6:, n_var:] = np.diag(np.full(n_var, 3 * n_var + 2))  # the +1 entries
    blocks, bound_at, objective = [], [], []
    for pair, observation, target, _ in _PROGRAMS:
        q_rows = [3 * pair + k for k in range(3)]
        qe_rows = [3 * (len(_RETAINED_PAIRS) + pair) + k for k in range(3)]
        if tight_z_bounds and observation == 1:
            block, target = coupled, n_var + target
            bound_at += q_rows + qe_rows + [coupling] * n_var
        else:
            block = weights
            bound_at += (q_rows, qe_rows)[observation]
        blocks.append(block)
        objective.append(np.eye(1, block.shape[1], target)[0])
    matrix = csc_array(block_diag(blocks, format="csc"))
    matrix.eliminate_zeros()
    matrix.sort_indices()
    matrix.data -= 1
    col0 = np.cumsum([0] + [block.shape[1] for block in blocks])
    return np.concatenate(objective), matrix, np.array(bound_at), col0, np.array([sign for *_, sign in _PROGRAMS])


def frozen_bound_programs(table, intensities, n_cut=10, tight_z_bounds=False, fluctuation=0.0):
    """One point's 22 decoy programs, built as the package once built them."""
    weights = np.array([[poisson_pmf(intensities[k], n) for n in range(n_cut + 1)] for k in _INTENSITIES])
    stats = np.array([[table.entries[(k, pair)] for k in _INTENSITIES] for pair in _RETAINED_PAIRS])
    observed = np.stack([stats[..., 0], stats[..., 0] * stats[..., 1]])  # Q and Q*E by pair and intensity
    tail = 1.0 - weights.sum(axis=1)
    spread = fluctuation * np.sqrt(np.maximum(observed, 0.0))
    scale = weights.max(axis=1)
    scale[scale == 0.0] = 1.0
    lo = np.append((observed - spread - tail) / scale, -np.inf)
    hi = np.append((observed + spread) / scale, 0.0)
    coefficients = np.append(weights / scale[:, None], (-1.0, 1.0))
    objective, index, bound_at, col0, sign = _point_layout(n_cut, tight_z_bounds)
    matrix = csc_array((coefficients[index.data], index.indices, index.indptr), shape=index.shape)
    return SimpleNamespace(
        objective=objective, data=matrix.data, indices=matrix.indices, indptr=matrix.indptr,
        lo=lo[bound_at], hi=hi[bound_at], col0=col0, sign=sign,
    )


def stack(programs):
    """The block-diagonal program of several programs, their blocks in order,
    of the type of the first."""
    if len(programs) == 1:
        return programs[0]
    rows = np.cumsum([0] + [len(p.lo) for p in programs])
    cols = np.cumsum([0] + [len(p.objective) for p in programs])
    nnz = np.cumsum([0] + [len(p.data) for p in programs])
    matrix = csc_array(
        (
            np.concatenate([p.data for p in programs]),
            np.concatenate([p.indices + r for p, r in zip(programs, rows)]),
            np.concatenate([[0]] + [p.indptr[1:] + k for p, k in zip(programs, nnz)]),
        ),
        shape=(rows[-1], cols[-1]),
    )
    return type(programs[0])(
        objective=np.concatenate([p.objective for p in programs]),
        data=matrix.data,
        indices=matrix.indices,
        indptr=matrix.indptr,
        lo=np.concatenate([p.lo for p in programs]),
        hi=np.concatenate([p.hi for p in programs]),
        col0=np.concatenate([p.col0[:-1] + c for p, c in zip(programs, cols)] + [cols[-1:]]),
        sign=np.concatenate([p.sign for p in programs]),
    )
