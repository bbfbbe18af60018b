"""Decoy-state estimation: LP bounds on single-photon yields and error rates.

The observed multi-intensity gains constrain the per-photon-number yields
through two-sided Poisson-weighted inequalities; small linear programs
extremize the single-photon quantities, and the resulting intervals compose
into a conservative lower bound on the correlation invariant C. Programs are
solved together as one block-diagonal program: a point's 22 in
``estimate_bounds``, or those of several points (``pipeline.evaluate_points``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_array

from .photonics import INTENSITY_LABELS, PAIR_LABELS, LegStatsTable, poisson_pn

__all__ = [
    "LinearProgram",
    "BoundsSet",
    "InfeasibleError",
    "build_yield_lp",
    "build_error_lp",
    "solve_lp",
    "solve_lps",
    "bound_programs",
    "read_bounds",
    "estimate_bounds",
    "c_lower_bound",
]

DEFAULT_N_CUT = 10

_SENSES = ("minimize", "maximize")


class InfeasibleError(RuntimeError):
    """The observations admit no photon-number yield decomposition."""


@dataclass
class LinearProgram:
    """A small LP: extremize ``objective . x`` under inequality rows and boxes.

    ``constraints`` is a list of (coefficients, relation, bound) with relation
    one of "<=" and ">=".
    """

    sense: str  # "minimize" | "maximize"
    objective: np.ndarray
    constraints: list = field(default_factory=list)
    variable_bounds: list = field(default_factory=list)

    def __post_init__(self):
        if self.sense not in _SENSES:
            raise ValueError(f"bad sense {self.sense!r}")
        n = len(self.objective)
        for coeffs, rel, _ in self.constraints:
            if len(coeffs) != n:
                raise ValueError("constraint dimension mismatch")
            if rel not in ("<=", ">="):
                raise ValueError(f"bad relation {rel!r}")
        if len(self.variable_bounds) != n:
            raise ValueError("variable bound dimension mismatch")


def _poisson_weights(intensities, n_cut):
    """Row k holds P_n(intensities[k]) for n = 0..n_cut."""
    return np.array([[poisson_pn(intensity, n) for n in range(n_cut + 1)] for intensity in intensities])


def _two_sided_rows(weights, observed, fluctuation):
    """Two-sided decoy constraints: the Poisson-weighted sum of the variables
    must bracket each observed value o up to the truncated tail mass, widened
    by ``fluctuation * sqrt(o)`` on both sides for the statistical fluctuation
    of o (zero for exact observations). ``weights`` row k weighs ``observed[k]``."""
    rows = []
    for p, value in zip(weights, observed):
        tail = 1.0 - p.sum()
        spread = fluctuation * math.sqrt(max(value, 0.0))
        rows.append((p, "<=", value + spread))
        rows.append((p, ">=", value - spread - tail))
    return rows


def _unit_lp(n_var, target, rows, sense) -> LinearProgram:
    """Extremize variable ``target`` of ``n_var`` variables boxed to [0, 1]."""
    objective = np.zeros(n_var)
    objective[target] = 1.0
    return LinearProgram(sense=sense, objective=objective, constraints=rows, variable_bounds=[(0.0, 1.0)] * n_var)


def _observation_rows(observations, n_cut, fluctuation):
    """Two-sided rows for (intensity, observed value) pairs."""
    if len({i for i, _ in observations}) < 2:
        raise ValueError("at least two distinct intensities required")
    if n_cut < 2:
        raise ValueError(f"n_cut must be >= 2, got {n_cut}")
    intensities, observed = zip(*observations)
    return _two_sided_rows(_poisson_weights(intensities, n_cut), observed, fluctuation)


def build_yield_lp(
    observations, n_cut: int, target_n: int, sense: str, fluctuation: float = 0.0
) -> LinearProgram:
    """LP bounding the ``target_n``-photon yield from (intensity, gain) pairs.

    ``fluctuation`` is u / sqrt(N): each gain Q is known to within
    Q +- fluctuation * sqrt(Q). Zero treats the gains as exact.
    """
    rows = _observation_rows(observations, n_cut, fluctuation)
    if not 0 <= target_n <= n_cut:
        raise ValueError(f"target_n must be in [0, {n_cut}], got {target_n}")
    return _unit_lp(n_cut + 1, target_n, rows, sense)


def build_error_lp(observations, n_cut: int, sense: str, fluctuation: float = 0.0) -> LinearProgram:
    """LP bounding the single-photon error-weighted yield z1 = e1*Y1.

    ``observations`` holds (intensity, Q*E) pairs; the variables are the
    error-weighted yields z_n, each boxed to [0, 1]. ``fluctuation`` widens the
    observations as in ``build_yield_lp``.
    """
    return _unit_lp(n_cut + 1, 1, _observation_rows(observations, n_cut, fluctuation), sense)


def _stacked_rows(lps, col0, n_total):
    """Every constraint row of ``lps`` as one sparse block-diagonal ``A_ub x <= b_ub``.

    Each row is divided by its infinity norm, since the Poisson weights span
    many orders of magnitude; ">=" rows are then negated into "<=" rows.
    """
    coeffs, bound, flip, row_col0 = [], [], [], []
    for lp, c0 in zip(lps, col0):
        for c, rel, b in lp.constraints:
            coeffs.append(c)
            bound.append(b)
            flip.append(rel == ">=")
            row_col0.append(c0)
    lengths = np.array([len(c) for c in coeffs])
    starts = np.cumsum(lengths) - lengths
    data = np.concatenate(coeffs).astype(float)
    scale = np.maximum.reduceat(np.abs(data), starts)
    scale[scale == 0.0] = 1.0
    data = data / np.repeat(scale, lengths)
    b_ub = np.asarray(bound, dtype=float) / scale
    flip = np.asarray(flip)
    np.negative(data, out=data, where=np.repeat(flip, lengths))
    np.negative(b_ub, out=b_ub, where=flip)
    row = np.repeat(np.arange(len(coeffs)), lengths)
    col = np.arange(len(data)) - np.repeat(starts - np.asarray(row_col0), lengths)
    keep = data != 0.0
    a_ub = coo_array((data[keep], (row[keep], col[keep])), shape=(len(coeffs), n_total))
    return a_ub, b_ub


def solve_lps(lps) -> list[tuple[float, np.ndarray]]:
    """Solve independent boxed LPs as one block-diagonal program; deterministic
    for identical input.

    The blocks share no variable and no row, so each block's part of the
    stacked optimum is that block's own optimum, and the stacked program is
    infeasible exactly when some block is. Returns (optimum, x) per LP.
    """
    widths = np.array([len(lp.objective) for lp in lps])
    col0 = np.cumsum(widths) - widths
    n_total = int(widths.sum())
    objective = np.concatenate(
        [np.asarray(lp.objective, dtype=float) * (1.0 if lp.sense == "minimize" else -1.0) for lp in lps]
    )
    a_ub = b_ub = None
    if any(lp.constraints for lp in lps):
        a_ub, b_ub = _stacked_rows(lps, col0, n_total)
    # presolve rejects the nearly-degenerate two-sided rows that arise when the
    # truncated Poisson tail underflows; the bare solver handles them fine
    res = linprog(
        objective,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[b for lp in lps for b in lp.variable_bounds],
        method="highs",
        options={"presolve": False},
    )
    if res.status == 2:
        raise InfeasibleError("inconsistent observations: no feasible yield decomposition")
    if res.status != 0:
        raise RuntimeError(f"LP solver failure (status {res.status}): {res.message}")
    solutions = []
    for lp, c0, width in zip(lps, col0, widths):
        x = res.x[c0 : c0 + width]
        solutions.append((float(np.dot(lp.objective, x)), x))
    return solutions


def solve_lp(lp: LinearProgram) -> tuple[float, np.ndarray]:
    """Solve one boxed LP: the single-block case of ``solve_lps``."""
    return solve_lps([lp])[0]


@dataclass
class BoundsSet:
    """Decoy-derived intervals and the composed C lower bound.

    ``y1`` and ``e1`` map pair labels to (lo, hi) intervals; ``y0`` is the
    Z-basis vacuum-yield interval.
    """

    y1: dict
    y0: tuple
    e1: dict
    c_lower: float


def _interval(lp_min_val, lp_max_val):
    lo = max(0.0, lp_min_val)
    hi = max(lo, lp_max_val)
    return (lo, hi)


def _coupled_error_rows(q_rows, qe_rows, n_var):
    """Rows over (Y_0..Y_ncut, z_0..z_ncut): the gain and error-gain rows, plus z_n <= Y_n."""
    pad = np.zeros(n_var)
    rows = [(np.concatenate([coeffs, pad]), rel, bound) for coeffs, rel, bound in q_rows]
    rows += [(np.concatenate([pad, coeffs]), rel, bound) for coeffs, rel, bound in qe_rows]
    for n in range(n_var):
        coupling = np.zeros(2 * n_var)
        coupling[n_var + n] = 1.0
        coupling[n] = -1.0
        rows.append((coupling, "<=", 0.0))
    return rows


def _e1_interval(z1_lo, z1_hi, y1_lo, y1_hi):
    """Conservative decoupled ratio: e1 in [z1_lo / y1_hi, z1_hi / y1_lo]."""
    if y1_hi <= 0.0:
        return (0.0, 1.0)  # vacuous: no single-photon information
    lo = min(1.0, z1_lo / y1_hi)
    hi = 1.0 if y1_lo <= 0.0 else min(1.0, z1_hi / y1_lo)
    return (lo, max(lo, hi))


def c_lower_bound(e1_intervals) -> float:
    """Lower-bound the correlation sum C from four error-rate intervals.

    Each squared correlator (1-2e)^2 is minimized over its interval; an
    interval straddling 1/2 contributes nothing.
    """
    total = 0.0
    for lo, hi in e1_intervals:
        if lo <= 0.5 <= hi:
            continue
        total += min((1.0 - 2.0 * lo) ** 2, (1.0 - 2.0 * hi) ** 2)
    return total


def bound_programs(
    table: LegStatsTable,
    intensities: dict[str, float],
    n_cut: int = DEFAULT_N_CUT,
    tight_z_bounds: bool = False,
    fluctuation: float = 0.0,
) -> list[LinearProgram]:
    """The 22 programs of one point, in the order ``read_bounds`` consumes
    their optima: per pair, min and max of Y1, then of z1, then (ZZ only) of Y0.

    ``tight_z_bounds`` switches the error program to the coupled form with
    z_n <= Y_n instead of the plain z_n <= 1 box. ``fluctuation`` (u / sqrt(N),
    see ``ChannelSpec``) widens every observed Q and Q*E by its statistical
    fluctuation; the default zero treats the observations as exact.
    """
    n_var = n_cut + 1
    weights = _poisson_weights([intensities[k] for k in INTENSITY_LABELS], n_cut)
    lps = []
    for pair_label in PAIR_LABELS:
        stats = [table.entries[(k, pair_label)] for k in INTENSITY_LABELS]
        q_rows = _two_sided_rows(weights, [q for q, _ in stats], fluctuation)
        qe_rows = _two_sided_rows(weights, [q * e for q, e in stats], fluctuation)
        lps += [_unit_lp(n_var, 1, q_rows, sense) for sense in _SENSES]
        if tight_z_bounds:
            error_rows = _coupled_error_rows(q_rows, qe_rows, n_var)
            lps += [_unit_lp(2 * n_var, n_var + 1, error_rows, sense) for sense in _SENSES]
        else:
            lps += [_unit_lp(n_var, 1, qe_rows, sense) for sense in _SENSES]
        if pair_label == "ZZ":
            lps += [_unit_lp(n_var, 0, q_rows, sense) for sense in _SENSES]
    return lps


def read_bounds(values) -> BoundsSet:
    """The intervals and the C bound from the optima of ``bound_programs``, in order."""
    values = iter(values)
    y1, e1 = {}, {}
    for pair_label in PAIR_LABELS:
        y1[pair_label] = _interval(next(values), next(values))
        z1_lo, z1_hi = _interval(next(values), next(values))
        e1[pair_label] = _e1_interval(z1_lo, z1_hi, *y1[pair_label])
        if pair_label == "ZZ":
            y0 = _interval(next(values), next(values))
    c_lower = c_lower_bound([e1[p] for p in ("XX", "XY", "YX", "YY")])
    return BoundsSet(y1=y1, y0=y0, e1=e1, c_lower=c_lower)


def estimate_bounds(
    table: LegStatsTable,
    intensities: dict[str, float],
    n_cut: int = DEFAULT_N_CUT,
    tight_z_bounds: bool = False,
    fluctuation: float = 0.0,
) -> BoundsSet:
    """Single-photon yield/error intervals for every retained pair, plus the C bound.

    Builds the point's programs with ``bound_programs`` (which explains the
    arguments), solves them in one ``solve_lps`` call and reads them with
    ``read_bounds``; any infeasible program raises ``InfeasibleError``.
    """
    lps = bound_programs(table, intensities, n_cut, tight_z_bounds, fluctuation)
    return read_bounds(value for value, _ in solve_lps(lps))
