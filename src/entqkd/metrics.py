"""Secure-key figures of merit: CHSH maximum, minimal QBER, Devetak-Winter rate.

The optimal CHSH value and QBER of a two-qubit state follow from the two
largest eigenvalues of U = T^T T:

    S_max = 2 sqrt(lambda_1 + lambda_2)
    Q_min = (1 - sqrt(lambda_1)) / 2

and the Devetak-Winter bound on secret bits per detected pair is

    r_DW = 1 - h(Q) - h((1 + sqrt((S/2)^2 - 1)) / 2)

with h the binary entropy in bits.  r_DW is clamped at zero and defined
as zero whenever S fails to violate the classical bound S <= 2, because
the protocol is only secure for violating S.

The eigenvalues come from ``states._correlation_eigensystems``, the one
analysis of U that also gives ``states.correlation_analysis`` (and so the
bases) its eigensystem; this module diagonalizes nothing itself.  Public
calls validate their state first, through ``states.correlation_analysis``,
which keeps the last state's content and analysis: a state that passes
through several public calls in a row is validated and analysed once.
The fitted stacks of ``tomography`` (``mle_curve``,
``monte_carlo_uncertainty``), whose solver returns symmetrized unit-trace
states, are evaluated as one stack without it.

The protocol also assumes unbiased single-party outcomes (both parties'
marginals average to zero).  That is a property of the measurement
statistics rather than of the state, so nothing here checks or enforces
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numeric import check_range
from .states import _correlation_eigensystems, correlation_analysis

TSIRELSON = 2.0 * math.sqrt(2.0)


def binary_entropy(q: float) -> float:
    """h(q) = -q log2 q - (1-q) log2 (1-q), with h(0) = h(1) = 0 by continuity."""
    check_range("binary entropy argument", q, 0.0, 1.0)
    if q == 0.0 or q == 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def _figures(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S, Q, r_DW) arrays from a (B, 3) stack of descending eigenvalues of T^T T."""
    s = np.minimum(2.0 * np.sqrt(lam[:, 0] + lam[:, 1]), TSIRELSON)
    q = (1.0 - np.sqrt(lam[:, 0])) / 2.0
    return s, q, np.array([devetak_winter(*sq) for sq in zip(s.tolist(), q.tolist())])


def _evaluate_stack(rhos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S, Q, r_DW) arrays of a (B, 4, 4) stack of states, which must be valid already.

    Reads the eigenvalues of ``states._correlation_eigensystems``; every
    row equals the evaluation of its state alone, bit for bit.
    """
    return _figures(_correlation_eigensystems(rhos)[1])


def evaluate_state(rho: np.ndarray) -> tuple[float, float, float]:
    """(S, Q, r_DW) of rho: optimal CHSH value, minimal QBER, Devetak-Winter rate.

    All three come from the eigenvalues of ``states.correlation_analysis``,
    so a state whose analysis the bases just built (or that was just
    evaluated) is neither validated nor diagonalized again.
    """
    s, q, r_dw = _figures(correlation_analysis(rho).eigenvalues[None])
    return float(s[0]), float(q[0]), float(r_dw[0])


def chsh_max(rho: np.ndarray) -> float:
    """Largest CHSH value reachable with projective measurements on rho."""
    return evaluate_state(rho)[0]


def qber_min(rho: np.ndarray) -> float:
    """Smallest QBER reachable in the key-generating bases of rho."""
    return evaluate_state(rho)[1]


def devetak_winter_raw(s: float, q: float) -> float:
    """Unclamped Devetak-Winter rate, for diagnostics and root bracketing.

    Below the classical bound the Holevo term is pinned at its S -> 2
    limit h(1/2) = 1, so the value continues to -h(Q) <= 0 there.
    """
    check_range("QBER", q, 0.0, 0.5)
    s = min(check_range("CHSH value", s, 0.0, TSIRELSON + 1e-9), TSIRELSON)
    holevo_arg = (1.0 + math.sqrt(max((s / 2.0) ** 2 - 1.0, 0.0))) / 2.0
    return 1.0 - binary_entropy(q) - binary_entropy(holevo_arg)


def devetak_winter(s: float, q: float) -> float:
    """Devetak-Winter rate in bits per detected pair, clamped to [0, 1].

    Returns 0 for S <= 2 (no violation, no security) and clamps small
    negative values to 0, matching reported zero rates for insecure
    states.
    """
    rate = devetak_winter_raw(s, q)  # called first: it checks (S, Q) for S <= 2 too
    return max(0.0, rate) if s > 2.0 else 0.0


def key_rate(r_dw: float, r_c: float) -> float:
    """Secure key bits per detection window: r_DW * r_C."""
    check_range("r_dw", r_dw, 0.0, 1.0)
    check_range("r_c", r_c, 0.0)
    return r_dw * r_c


def s_q_from_kappa(kappa: float) -> tuple[float, float]:
    """(S, Q) of a Bell state mixed with white-noise weight kappa.

    S = 2 sqrt(2) (1 - kappa) and Q = kappa / 2.
    """
    check_range("kappa", kappa, 0.0, 1.0)
    return TSIRELSON * (1.0 - kappa), kappa / 2.0


@dataclass(frozen=True)
class QkdMetrics:
    """Bundle of QKD figures of merit for one state and source setting.

    Invariants enforced on construction: r_key = r_dw * r_c, and
    r_dw = 0 whenever s <= 2.
    """

    s: float
    q: float
    r_dw: float
    r_c: float
    r_key: float

    def __post_init__(self):
        if abs(self.r_key - self.r_dw * self.r_c) > 1e-12:
            raise ValueError("r_key must equal r_dw * r_c")
        if self.s <= 2.0 and self.r_dw != 0.0:
            raise ValueError("r_dw must be 0 when S <= 2")

    @classmethod
    def from_state(cls, rho: np.ndarray, r_c: float) -> "QkdMetrics":
        """Evaluate S, Q, r_DW for a state and combine with a coincidence rate."""
        s, q, r_dw = evaluate_state(rho)
        return cls(s=s, q=q, r_dw=r_dw, r_c=r_c, r_key=key_rate(r_dw, r_c))

    def to_json_dict(self) -> dict:
        return {"S": self.s, "Q": self.q, "r_dw": self.r_dw,
                "r_c": self.r_c, "R_key": self.r_key}
