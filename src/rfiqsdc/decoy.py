"""Decoy-state estimation: LP bounds on single-photon yields and error rates.

Each observed multi-intensity gain constrains the per-photon-number yields
through one ranged Poisson-weighted row; small linear programs extremize the
single-photon quantities, and the resulting intervals compose into a
conservative lower bound on the correlation invariant C. Programs are held as
CSC arrays and solved together as one block-diagonal program: a point's 22 in
``estimate_bounds``, or those of several points (``pipeline.evaluate_points``).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag
from scipy.optimize._highspy import _core as highs

from .photonics import INTENSITY_LABELS, PAIR_LABELS, LegStatsTable

__all__ = [
    "LinearPrograms",
    "BoundsSet",
    "InfeasibleError",
    "solve_lps",
    "bound_programs",
    "read_bounds",
    "estimate_bounds",
    "c_lower_bound",
]

DEFAULT_N_CUT = 10

_SIGNS = {"minimize": 1.0, "maximize": -1.0}

# presolve declares infeasible the nearly-degenerate ranged rows that arise
# when the truncated Poisson tail underflows (seen with tight_z_bounds and
# exact observations); the bare solver handles them fine
_OPTIONS = highs.HighsOptions()
_OPTIONS.log_to_console = False
_OPTIONS.presolve = "off"

_SOLVERS = threading.local()  # one HiGHS solver per thread, made on first use


class InfeasibleError(RuntimeError):
    """The observations admit no photon-number yield decomposition."""


def _csc(a):
    """(data, indices, indptr) of the nonzeros of the dense matrix ``a`` in CSC order."""
    cols, rows = np.nonzero(a.T)
    indptr = np.searchsorted(cols, np.arange(a.shape[1] + 1))
    return a[rows, cols], rows.astype(np.int32), indptr.astype(np.int32)


@dataclass
class LinearPrograms:
    """Independent boxed LPs in matrix form, as one block-diagonal program.

    Block b owns the columns ``col0[b]:col0[b + 1]`` and extremizes
    ``objective`` over them, minimizing where ``sign[b]`` is 1 and maximizing
    where it is -1, subject to the ranged rows ``lo <= A @ x <= hi`` (an
    infinite side is absent) and 0 <= x <= 1. No row of A, held as the CSC
    arrays ``data``, ``indices`` and ``indptr``, touches two blocks.
    """

    objective: np.ndarray
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    col0: np.ndarray
    sign: np.ndarray

    def __len__(self):
        return len(self.sign)

    @classmethod
    def single(cls, sense: str, objective, a, lo, hi) -> LinearPrograms:
        """One program with the dense row matrix ``a``; ``sense`` is "minimize" or "maximize"."""
        if sense not in _SIGNS:
            raise ValueError(f"bad sense {sense!r}")
        objective = np.asarray(objective, dtype=float)
        a = np.asarray(a, dtype=float).reshape(-1, len(objective))
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        if lo.shape != (len(a),) or hi.shape != (len(a),):
            raise ValueError("row bound dimension mismatch")
        return cls(objective, *_csc(a), lo, hi, np.array([0, len(objective)]), np.array([_SIGNS[sense]]))


def solve_lps(programs: LinearPrograms) -> tuple[np.ndarray, np.ndarray]:
    """Solve every block of ``programs`` in one HiGHS call; deterministic for
    identical input.

    The blocks share no variable and no row, so each block's part of the
    stacked optimum is that block's own optimum, and the stacked program is
    infeasible exactly when some block is. Returns each block's optimum and
    the stacked solution x. Each thread reuses one solver: ``passModel``
    replaces its model and restarts the solve, which then matches a fresh
    solver's bit for bit.
    """
    n_col = len(programs.objective)
    solver = getattr(_SOLVERS, "highs", None)
    if solver is None:
        solver = _SOLVERS.highs = highs._Highs()
    solver.passOptions(_OPTIONS)
    passed = solver.passModel(
        n_col, len(programs.lo), len(programs.data), highs.MatrixFormat.kColwise, highs.ObjSense.kMinimize, 0.0,
        programs.objective * np.repeat(programs.sign, np.diff(programs.col0)),
        np.zeros(n_col), np.ones(n_col), programs.lo, programs.hi,
        programs.indptr, programs.indices, programs.data,
        np.zeros(n_col, dtype=np.int32),  # all continuous; an empty array is a model error
    )
    if passed == highs.HighsStatus.kError:
        status = highs.HighsModelStatus.kModelError
    else:
        solver.run()
        status = solver.getModelStatus()
    if status in (highs.HighsModelStatus.kInfeasible, highs.HighsModelStatus.kModelError):
        raise InfeasibleError("inconsistent observations: no feasible yield decomposition")
    if status != highs.HighsModelStatus.kOptimal:
        raise RuntimeError(f"LP solver failure (HiGHS status {int(status)}): {solver.modelStatusToString(status)}")
    x = np.array(solver.getSolution().col_value)
    return np.add.reduceat(programs.objective * x, programs.col0[:-1]), x


@functools.cache
def _log_factorials(n_cut: int) -> tuple:
    return tuple(math.lgamma(n + 1) for n in range(n_cut + 1))


def _poisson_weights(intensities, n_cut):
    """Row k holds P_n(intensities[k]) for n = 0..n_cut, bit for bit as
    ``photonics.poisson_pn`` computes it, with one ``math.log`` per intensity."""
    log_factorials = _log_factorials(n_cut)
    rows = []
    for m in intensities:
        log_m = math.log(m) if m > 0.0 else -math.inf  # vacuum: P_0 = exp(0) = 1, P_n = exp(-inf) = 0
        rows.append([math.exp(-m + n * log_m - log_factorials[n]) if n else math.exp(-m) for n in range(n_cut + 1)])
    return np.array(rows)


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


# The 22 programs of a point in the order ``read_bounds`` consumes their optima:
# per pair, min and max of Y1, then of z1, then (ZZ only) of Y0. Each is
# (pair index, observation: 0 for Q and 1 for Q*E, target photon number, sign).
_PROGRAMS = tuple(
    (pair, observation, target, sign)
    for pair, label in enumerate(PAIR_LABELS)
    for observation, target in ((0, 1), (1, 1), (0, 0))[: 3 if label == "ZZ" else 2]
    for sign in _SIGNS.values()
)


@functools.cache
def _layout(n_cut: int, tight_z_bounds: bool, n_points: int) -> LinearPrograms:
    """The programs of ``n_points`` points, stacked in point order, with every
    matrix entry and row bound replaced by its index into the tables that
    ``bound_programs`` fills: all that the observations leave unchanged, built
    once per estimator and number of points, and read-only. Point p owns the
    p-th run of Poisson weights (3 x (n_cut + 1)) and of observations (30);
    the coupling entries -1, +1 and bound (-inf, 0] come last, shared by all.

    Plain blocks share one 3-row pattern over Y_0..Y_ncut (or z_0..z_ncut).
    Under ``tight_z_bounds`` the z1 blocks run over (Y_0..Y_ncut,
    z_0..z_ncut) with the Q rows, the Q*E rows and the coupling rows
    z_n - Y_n <= 0.
    """
    n_var = n_cut + 1
    n_weights, n_bounds = 3 * n_var, 2 * len(PAIR_LABELS) * len(INTENSITY_LABELS)
    weights = np.arange(1, n_weights + 1).reshape(3, n_var)  # index + 1: only nonzeros are kept
    coupled = np.zeros((6 + n_var, 2 * n_var), dtype=int)
    coupled[:3, :n_var] = coupled[3:6, n_var:] = weights
    coupled[6:, :n_var] = np.diag(np.full(n_var, n_weights + 1))  # the -1 entries
    coupled[6:, n_var:] = np.diag(np.full(n_var, n_weights + 2))  # the +1 entries
    blocks, bound_at, objective = [], [], []
    for pair, observation, target, _ in _PROGRAMS:
        q_rows = [3 * pair + k for k in range(3)]
        qe_rows = [3 * (len(PAIR_LABELS) + pair) + k for k in range(3)]
        if tight_z_bounds and observation == 1:
            block, target = coupled, n_var + target
            bound_at += q_rows + qe_rows + [n_bounds] * n_var
        else:
            block = weights
            bound_at += (q_rows, qe_rows)[observation]
        blocks.append(block)
        objective.append(np.eye(1, block.shape[1], target)[0])
    entry_at, indices, indptr = _csc(block_diag(*blocks))
    entry_at, bound_at = entry_at - 1, np.array(bound_at)
    col0 = np.cumsum([0] + [block.shape[1] for block in blocks])
    point = np.arange(n_points)[:, None]
    rows = (bound_at + n_bounds * np.where(bound_at < n_bounds, point, n_points - 1)).ravel()
    layout = LinearPrograms(
        objective=np.tile(np.concatenate(objective), n_points),
        data=(entry_at + n_weights * np.where(entry_at < n_weights, point, n_points - 1)).ravel(),
        indices=(indices + len(bound_at) * point).ravel().astype(np.int32),
        indptr=np.append((indptr[:-1] + len(entry_at) * point).ravel(), n_points * len(entry_at)).astype(np.int32),
        lo=rows,
        hi=rows,
        col0=np.append((col0[:-1] + col0[-1] * point).ravel(), n_points * col0[-1]),
        sign=np.tile([sign for *_, sign in _PROGRAMS], n_points),
    )
    for shared in vars(layout).values():
        shared.flags.writeable = False
    return layout


def bound_programs(observations, n_cut: int = DEFAULT_N_CUT, tight_z_bounds: bool = False) -> LinearPrograms:
    """The 22 programs of each observed point, stacked in point order.

    ``observations`` holds one (table, intensities, fluctuation) per point. A
    point's programs come in the order ``read_bounds`` consumes their optima:
    per pair, min and max of Y1, then of z1, then (ZZ only) of Y0.

    Each observed value o of an intensity gives one ranged row: the
    Poisson-weighted sum of the variables must bracket o up to the truncated
    tail mass, widened by ``fluctuation * sqrt(o)`` on both sides.
    ``fluctuation`` is u / sqrt(N) (see ``ChannelSpec``); zero treats the
    observations as exact. ``tight_z_bounds`` switches the error programs to
    the coupled form with z_n <= Y_n instead of the plain z_n <= 1 box. Each
    row is divided by its infinity norm, since the Poisson weights span many
    orders of magnitude. All points' tables are filled at once, then gathered.
    """
    tables, intensities, fluctuations = zip(*observations)
    n_points = len(tables)
    weights = _poisson_weights([i[k] for i in intensities for k in INTENSITY_LABELS], n_cut).reshape(n_points, 3, -1)
    stats = np.array([[table.entries[(k, pair)] for pair in PAIR_LABELS for k in INTENSITY_LABELS] for table in tables])
    stats = stats.reshape(n_points, len(PAIR_LABELS), len(INTENSITY_LABELS), 2)
    # Q and Q*E by point, observation, pair and intensity
    observed = np.stack([stats[..., 0], stats[..., 0] * stats[..., 1]], axis=1)
    tail = 1.0 - weights.sum(axis=2)[:, None, None]
    spread = np.reshape(fluctuations, (-1, 1, 1, 1)) * np.sqrt(np.maximum(observed, 0.0))
    scale = weights.max(axis=2)
    scale[scale == 0.0] = 1.0
    lo = np.append((observed - spread - tail) / scale[:, None, None], -np.inf)
    hi = np.append((observed + spread) / scale[:, None, None], 0.0)
    coefficients = np.append(weights / scale[..., None], (-1.0, 1.0))
    at = _layout(n_cut, tight_z_bounds, n_points)
    return LinearPrograms(
        at.objective, coefficients[at.data], at.indices, at.indptr, lo[at.lo], hi[at.hi], at.col0, at.sign
    )


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
    optima, _ = solve_lps(bound_programs([(table, intensities, fluctuation)], n_cut, tight_z_bounds))
    return read_bounds(optima.tolist())
