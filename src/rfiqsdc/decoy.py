"""Decoy-state estimation: LP bounds on single-photon yields and error rates.

Each observed multi-intensity gain constrains the per-photon-number yields
through one ranged Poisson-weighted row; small linear programs extremize the
single-photon quantities, and the resulting intervals compose into a
conservative lower bound on the correlation invariant C. Programs are held in
matrix form and solved together as one block-diagonal program: a point's 22
in ``estimate_bounds``, or those of several points (``pipeline.evaluate_points``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize._highspy import _core as highs
from scipy.sparse import block_diag, csc_array

from .photonics import INTENSITY_LABELS, PAIR_LABELS, LegStatsTable, poisson_pn

__all__ = [
    "LinearPrograms",
    "BoundsSet",
    "InfeasibleError",
    "stack",
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


class InfeasibleError(RuntimeError):
    """The observations admit no photon-number yield decomposition."""


@dataclass
class LinearPrograms:
    """Independent boxed LPs in matrix form, as one block-diagonal program.

    Block b owns the columns ``col0[b]:col0[b + 1]`` and extremizes
    ``objective`` over them, minimizing where ``sign[b]`` is 1 and maximizing
    where it is -1, subject to the ranged rows ``lo <= matrix @ x <= hi`` (an
    infinite side is absent) and 0 <= x <= 1. No row of the CSC ``matrix``
    touches two blocks.
    """

    objective: np.ndarray
    matrix: csc_array
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
        return cls(objective, csc_array(a), lo, hi, np.array([0, len(objective)]), np.array([_SIGNS[sense]]))


def stack(programs) -> LinearPrograms:
    """The block-diagonal program of several programs, their blocks in order."""
    if len(programs) == 1:
        return programs[0]
    rows = np.cumsum([0] + [len(p.lo) for p in programs])
    cols = np.cumsum([0] + [len(p.objective) for p in programs])
    nnz = np.cumsum([0] + [p.matrix.nnz for p in programs])
    matrix = csc_array(
        (
            np.concatenate([p.matrix.data for p in programs]),
            np.concatenate([p.matrix.indices + r for p, r in zip(programs, rows)]),
            np.concatenate([[0]] + [p.matrix.indptr[1:] + k for p, k in zip(programs, nnz)]),
        ),
        shape=(rows[-1], cols[-1]),
    )
    return LinearPrograms(
        objective=np.concatenate([p.objective for p in programs]),
        matrix=matrix,
        lo=np.concatenate([p.lo for p in programs]),
        hi=np.concatenate([p.hi for p in programs]),
        col0=np.concatenate([p.col0[:-1] + c for p, c in zip(programs, cols)] + [cols[-1:]]),
        sign=np.concatenate([p.sign for p in programs]),
    )


def solve_lps(programs: LinearPrograms) -> tuple[np.ndarray, np.ndarray]:
    """Solve every block of ``programs`` in one HiGHS call; deterministic for
    identical input.

    The blocks share no variable and no row, so each block's part of the
    stacked optimum is that block's own optimum, and the stacked program is
    infeasible exactly when some block is. Returns each block's optimum and
    the stacked solution x.
    """
    n_col, matrix = len(programs.objective), programs.matrix
    solver = highs._Highs()  # a fresh solver per call: nothing of an earlier solve carries over
    solver.passOptions(_OPTIONS)
    passed = solver.passModel(
        n_col, len(programs.lo), matrix.nnz, highs.MatrixFormat.kColwise, highs.ObjSense.kMinimize, 0.0,
        programs.objective * np.repeat(programs.sign, np.diff(programs.col0)),
        np.zeros(n_col), np.ones(n_col), programs.lo, programs.hi,
        matrix.indptr, matrix.indices, matrix.data,
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


def _poisson_weights(intensities, n_cut):
    """Row k holds P_n(intensities[k]) for n = 0..n_cut."""
    return np.array([[poisson_pn(intensity, n) for n in range(n_cut + 1)] for intensity in intensities])


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
def _layout(n_cut: int, tight_z_bounds: bool) -> LinearPrograms:
    """A point's programs with every matrix entry and row bound replaced by its
    index into the point's tables in ``bound_programs``: all that the
    observations leave unchanged, built once per estimator.

    Plain blocks share one 3-row pattern over Y_0..Y_ncut (or z_0..z_ncut).
    Under ``tight_z_bounds`` the z1 blocks run over (Y_0..Y_ncut,
    z_0..z_ncut) with the Q rows, the Q*E rows and the coupling rows
    z_n - Y_n <= 0.
    """
    n_var = n_cut + 1
    coupling = 2 * len(PAIR_LABELS) * len(INTENSITY_LABELS)  # bound index of (-inf, 0]
    weights = np.arange(1, 3 * n_var + 1).reshape(3, n_var)  # index + 1: only nonzeros are kept
    coupled = np.zeros((6 + n_var, 2 * n_var), dtype=int)
    coupled[:3, :n_var] = coupled[3:6, n_var:] = weights
    coupled[6:, :n_var] = np.diag(np.full(n_var, 3 * n_var + 1))  # the -1 entries
    coupled[6:, n_var:] = np.diag(np.full(n_var, 3 * n_var + 2))  # the +1 entries
    blocks, bound_at, objective = [], [], []
    for pair, observation, target, _ in _PROGRAMS:
        q_rows = [3 * pair + k for k in range(3)]
        qe_rows = [3 * (len(PAIR_LABELS) + pair) + k for k in range(3)]
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
    bound_at = np.array(bound_at)
    layout = LinearPrograms(
        objective=np.concatenate(objective),
        matrix=matrix,
        lo=bound_at,
        hi=bound_at,
        col0=np.cumsum([0] + [block.shape[1] for block in blocks]),
        sign=np.array([sign for *_, sign in _PROGRAMS]),
    )
    for shared in (layout.objective, layout.col0, layout.sign, matrix.indices, matrix.indptr):
        shared.flags.writeable = False
    return layout


def bound_programs(
    table: LegStatsTable,
    intensities: dict[str, float],
    n_cut: int = DEFAULT_N_CUT,
    tight_z_bounds: bool = False,
    fluctuation: float = 0.0,
) -> LinearPrograms:
    """The 22 programs of one point, in the order ``read_bounds`` consumes
    their optima: per pair, min and max of Y1, then of z1, then (ZZ only) of Y0.

    Each observed value o of an intensity gives one ranged row: the
    Poisson-weighted sum of the variables must bracket o up to the truncated
    tail mass, widened by ``fluctuation * sqrt(o)`` on both sides.
    ``fluctuation`` is u / sqrt(N) (see ``ChannelSpec``); the default zero
    treats the observations as exact. ``tight_z_bounds`` switches the error
    programs to the coupled form with z_n <= Y_n instead of the plain z_n <= 1
    box. Each row is divided by its infinity norm, since the Poisson weights
    span many orders of magnitude.
    """
    weights = _poisson_weights([intensities[k] for k in INTENSITY_LABELS], n_cut)
    stats = np.array([[table.entries[(k, pair)] for k in INTENSITY_LABELS] for pair in PAIR_LABELS])
    observed = np.stack([stats[..., 0], stats[..., 0] * stats[..., 1]])  # Q and Q*E by pair and intensity
    tail = 1.0 - weights.sum(axis=1)
    spread = fluctuation * np.sqrt(np.maximum(observed, 0.0))
    scale = weights.max(axis=1)
    scale[scale == 0.0] = 1.0
    lo = np.append((observed - spread - tail) / scale, -np.inf)
    hi = np.append((observed + spread) / scale, 0.0)
    coefficients = np.append(weights / scale[:, None], (-1.0, 1.0))
    layout = _layout(n_cut, tight_z_bounds)
    index = layout.matrix
    matrix = csc_array((coefficients[index.data], index.indices, index.indptr), shape=index.shape)
    return replace(layout, matrix=matrix, lo=lo[layout.lo], hi=hi[layout.hi])


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
    optima, _ = solve_lps(bound_programs(table, intensities, n_cut, tight_z_bounds, fluctuation))
    return read_bounds(optima.tolist())
