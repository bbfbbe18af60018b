"""Frame-independent security invariants, Eve's information bounds and the capacity.

The closed-form bound on Eve's single-photon information is a function of the
rotation-invariant correlation sum C alone.  A numeric oracle evaluates the
same Holevo quantity by explicit eigendecomposition of Eve's post-encoding
states, which delimits the regime where the closed form is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BellDiagonalAttack",
    "CapacityInputs",
    "EveGains",
    "binary_entropy",
    "c_from_errors",
    "eve_info_bound",
    "holevo_oracle",
    "gram_entropy",
    "ensemble_entropy",
    "eve_gains",
    "secrecy_capacity",
]

_C_TOL = 1e-9


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy h(x) in bits, with h(0) = h(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy argument must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def c_from_errors(e_xx: float, e_xy: float, e_yx: float, e_yy: float) -> float:
    """Rotation-invariant correlation sum C from the four X/Y-pair error rates."""
    return sum((1.0 - 2.0 * e) ** 2 for e in (e_xx, e_xy, e_yx, e_yy))


def eve_info_bound(c: float) -> float:
    """Closed-form upper bound on Eve's single-photon information given C."""
    if not -_C_TOL <= c <= 2.0 + _C_TOL:
        raise ValueError(f"C must be in [0, 2], got {c}")
    c = min(max(c, 0.0), 2.0)
    return binary_entropy((1.0 + math.sqrt(c / 2.0)) / 2.0)


@dataclass(frozen=True)
class BellDiagonalAttack:
    """Collective attack after symmetrization: a Bell-diagonal mixture.

    ``lambdas`` are the four mixture weights (must sum to one); ``chi`` and
    ``chi_prime`` are the residual phases of the diagonalizing basis.
    """

    lambdas: tuple[float, float, float, float]
    chi: float = 0.0
    chi_prime: float = 0.0

    def __post_init__(self):
        if len(self.lambdas) != 4:
            raise ValueError("exactly four mixture weights required")
        if any(l < 0 for l in self.lambdas):
            raise ValueError(f"mixture weights must be >= 0, got {self.lambdas}")
        if abs(sum(self.lambdas) - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1, got sum {sum(self.lambdas)}")

    @property
    def c_value(self) -> float:
        l1, l2, l3, l4 = self.lambdas
        return 2.0 * ((l1 - l2) ** 2 + (l3 - l4) ** 2)


def _eve_states(attack: BellDiagonalAttack) -> list[np.ndarray]:
    """Eve's four equiprobable post-encoding states in the 2x4 photon-register space.

    Basis ordering: |H>|E1..E4>, |V>|E1..E4>.
    """
    l1, l2, l3, l4 = (math.sqrt(l) for l in attack.lambdas)
    ec, ecp = np.exp(1j * attack.chi), np.exp(1j * attack.chi_prime)

    # pre-encoding intercepted states, H-component then V-component
    phi1 = np.concatenate([
        ec * np.array([l1, l2, 0, 0], dtype=complex),
        ecp.conjugate() * np.array([0, 0, l3, -l4], dtype=complex),
    ])
    phi2 = np.concatenate([
        ecp * np.array([0, 0, l3, l4], dtype=complex),
        ec.conjugate() * np.array([l1, -l2, 0, 0], dtype=complex),
    ])
    # encoding operators act on the photon factor only
    m0 = np.eye(2, dtype=complex)
    m1 = np.array([[0, -1], [1, 0]], dtype=complex)
    out = []
    for m in (m0, m1):
        big = np.kron(m, np.eye(4, dtype=complex))
        out.extend([big @ phi1, big @ phi2])
    return out


def _entropy_from_eigs(eigs: np.ndarray) -> float:
    eigs = np.clip(np.real(eigs), 0.0, None)
    eigs = eigs[eigs > 1e-15]
    return float(-np.sum(eigs * np.log2(eigs)))


def ensemble_entropy(states: list[np.ndarray], probs: list[float]) -> float:
    """Von Neumann entropy of a mixture of pure states, by direct eigendecomposition."""
    dim = states[0].shape[0]
    rho = np.zeros((dim, dim), dtype=complex)
    for p, s in zip(probs, states):
        rho += p * np.outer(s, s.conjugate())
    return _entropy_from_eigs(np.linalg.eigvalsh(rho))


def gram_entropy(states: list[np.ndarray], probs: list[float]) -> float:
    """Same entropy via the Gram matrix G_ij = sqrt(p_i p_j) <s_i|s_j>."""
    n = len(states)
    g = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            g[i, j] = math.sqrt(probs[i] * probs[j]) * np.vdot(states[i], states[j])
    return _entropy_from_eigs(np.linalg.eigvalsh(g))


def holevo_oracle(attack: BellDiagonalAttack) -> float:
    """Numeric Holevo quantity for Eve's two-message ensemble.

    Cross-checks the direct eigendecomposition against the Gram-matrix route
    and the known unit entropy of each per-message mixture.
    """
    s0_a, s0_b, s1_a, s1_b = _eve_states(attack)
    s_joint = ensemble_entropy([s0_a, s0_b, s1_a, s1_b], [0.25] * 4)
    s_joint_gram = gram_entropy([s0_a, s0_b, s1_a, s1_b], [0.25] * 4)
    if abs(s_joint - s_joint_gram) > 1e-10:
        raise AssertionError(
            f"entropy route disagreement: direct {s_joint} vs Gram {s_joint_gram}"
        )
    s0 = ensemble_entropy([s0_a, s0_b], [0.5, 0.5])
    s1 = ensemble_entropy([s1_a, s1_b], [0.5, 0.5])
    return s_joint - 0.5 * s0 - 0.5 * s1


@dataclass(frozen=True)
class EveGains:
    q_n1: float
    q_n2: float
    clamped: bool = False


def eve_gains(mu: float, y1_lower: float, y0: float, q_ba_signal: float) -> EveGains:
    """Single- and multi-photon portions of Eve's intercepted gain.

    Uses the decoy *lower* bound on the single-photon yield so the multi-photon
    remainder (which Eve reads perfectly) is maximized.
    """
    if y1_lower < y0:
        raise ValueError(f"y1_lower ({y1_lower}) must be >= y0 ({y0})")
    if y0 < 0:
        raise ValueError(f"y0 must be >= 0, got {y0}")
    if not 0.0 <= q_ba_signal <= 1.0:
        raise ValueError(f"q_ba_signal must be in [0, 1], got {q_ba_signal}")
    p1 = mu * math.exp(-mu)
    q_n1 = p1 * (y1_lower - y0)
    q_n2 = q_ba_signal - y0 - q_n1
    clamped = q_n2 < 0.0
    if clamped:
        q_n2 = 0.0
    return EveGains(q_n1=q_n1, q_n2=q_n2, clamped=clamped)


@dataclass(frozen=True)
class CapacityInputs:
    q_bab: float
    e_bab: float
    q_n1_bae: float
    q_n2_bae: float
    c_lower: float


def secrecy_capacity(inputs: CapacityInputs) -> float:
    """Secrecy message capacity in bits per pulse; may be negative."""
    mutual_ab = inputs.q_bab * (1.0 - binary_entropy(inputs.e_bab))
    eve = inputs.q_n1_bae * eve_info_bound(inputs.c_lower) + inputs.q_n2_bae
    return mutual_ab - eve
