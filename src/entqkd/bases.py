"""Optimal measurement bases and waveplate dial settings.

Given a reconstructed state, the five protocol bases are built from the
eigensystem of U = T^T T.  With e1, e2 the leading eigenvectors and
lambda_1 >= lambda_2 their eigenvalues, the "alice_first" assignment
(state living in H_Alice (x) H_Bob) is

    a0 = T e1 / |T e1|
    a1,2 = sqrt(l1/(l1+l2)) T e1/|T e1| +- sqrt(l2/(l1+l2)) T e2/|T e2|
    b1,2 = e1, e2

and "bob_first" mirrors it (a0 = e1, b1,2 = T e1,2 / |T e1,2|).  Either
choice achieves S = 2 sqrt(l1 + l2) and Q = (1 - sqrt(l1))/2.

A projection along Bloch vector x is realized by a half-wave plate
followed by a quarter-wave plate and a polarizing beam splitter, with

    theta_Q = arcsin(x2) / 2
    theta_H = [atan2(x1, x3) + arcsin(x2)] / 4

measured between each fast axis and the horizontal plane.  Angles are
reduced to theta_H in (-pi/4, pi/4] and theta_Q in (-pi/2, pi/2], which
leaves the hardware setting unchanged (HWP has period pi/2, QWP period
pi).  The antipodal direction -x maps to the same dial settings with
the two beam-splitter outputs relabeled.  With atan2(0, 0) = 0 a
circular projection deterministically lands on theta_H = pi/8 even
though any HWP angle would do there.

``basis_report`` bundles the bases, their dials and the values they
achieve into the JSON block of a reconstruction report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numeric import check_range
from .states import _pauli_components, correlation_analysis, validate_density_matrix

ORDERINGS = ("alice_first", "bob_first")

_DEGENERATE_TOL = 1e-12


class NoSignalError(ValueError):
    """Raised when the state carries no correlations to align bases with."""


def _unit_vector(name: str, x) -> np.ndarray:
    """x as a float 3-vector of norm 1 within 1e-9; NaN or inf entries fail."""
    x = np.asarray(x, dtype=float)
    if x.shape != (3,) or not abs(np.linalg.norm(x) - 1.0) <= 1e-9:
        raise ValueError(f"{name} must be a unit 3-vector, got {x}")
    return x


@dataclass(frozen=True)
class BasisSet:
    """Protocol bases as Bloch vectors; a0/b1 generate the key."""

    a0: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    ordering: str

    def __post_init__(self):
        if self.ordering not in ORDERINGS:
            raise ValueError(f"ordering must be one of {ORDERINGS}, got {self.ordering!r}")
        for name in ("a0", "a1", "a2", "b1", "b2"):
            vec = _unit_vector(name, getattr(self, name))
            vec.flags.writeable = False
            object.__setattr__(self, name, vec)

    def labeled(self):
        return (("A0", self.a0), ("A1", self.a1), ("A2", self.a2),
                ("B1", self.b1), ("B2", self.b2))


@dataclass(frozen=True)
class WaveplateSetting:
    """Fast-axis angles (radians) of the quarter- and half-wave plates."""

    theta_q: float
    theta_h: float

    def __post_init__(self):
        check_range("theta_q", self.theta_q, -math.pi / 2, math.pi / 2, open_lo=True)
        check_range("theta_h", self.theta_h, -math.pi / 4, math.pi / 4, open_lo=True)


def optimal_bases(rho: np.ndarray, ordering: str = "alice_first") -> BasisSet:
    """Bases maximizing the CHSH value and minimizing the QBER for rho.

    Raises NoSignalError for (numerically) vanishing lambda_1, where no
    direction is preferred.  When lambda_2 = 0 the CHSH pair degenerates
    onto the key direction (a1 = a2 = a0) and only S = 2 is reachable.
    """
    if ordering not in ORDERINGS:
        raise ValueError(f"ordering must be one of {ORDERINGS}, got {ordering!r}")
    analysis = correlation_analysis(rho)
    lam = analysis.eigenvalues
    if lam[0] <= _DEGENERATE_TOL:
        raise NoSignalError("state has no correlations (lambda_1 = 0); no optimal basis")
    tensor = analysis.tensor
    e1 = analysis.eigenvectors[:, 0]
    e2 = analysis.eigenvectors[:, 1]
    u1 = tensor @ e1
    u1 /= np.linalg.norm(u1)
    weight1 = math.sqrt(lam[0] / (lam[0] + lam[1]))
    if lam[1] > _DEGENERATE_TOL:
        u2 = tensor @ e2
        u2 /= np.linalg.norm(u2)
        weight2 = math.sqrt(lam[1] / (lam[0] + lam[1]))
    else:
        u2, weight2 = u1, 0.0

    # (u1, u2) belong to the tensor's first mode and (e1, e2) to its second;
    # a0, a1, a2 are built from Alice's pair (k1, k2), and b1, b2 are Bob's
    pairs = ((u1, u2), (e1, e2))
    (k1, k2), (b1, b2) = pairs if ordering == "alice_first" else pairs[::-1]
    chsh_plus = weight1 * k1 + weight2 * k2
    chsh_minus = weight1 * k1 - weight2 * k2
    return BasisSet(a0=k1,
                    a1=chsh_plus / np.linalg.norm(chsh_plus),
                    a2=chsh_minus / np.linalg.norm(chsh_minus),
                    b1=b1, b2=b2, ordering=ordering)


def verify_bases(rho: np.ndarray, bs: BasisSet) -> tuple[float, float]:
    """Evaluate the CHSH polynomial and QBER for explicitly given bases.

    No optimization happens here; this is the independent check that a
    BasisSet achieves the values it promises.  It validates rho and
    contracts the bases with its correlation tensor T, read straight
    from the Pauli components, so it neither builds nor depends on the
    eigensystem of T^T T that ``optimal_bases`` derives the bases from.
    The first tensor index belongs to the first mode, so for
    ``bob_first`` Alice's vectors contract with the transposed tensor.
    """
    tensor = _pauli_components(validate_density_matrix(rho))[1:, 1:]
    corr = tensor if bs.ordering == "alice_first" else tensor.T
    s = bs.a1 @ corr @ (bs.b1 + bs.b2) + bs.a2 @ corr @ (bs.b1 - bs.b2)
    q = (1.0 - bs.a0 @ corr @ bs.b1) / 2.0
    return float(s), float(q)


def _reduce_angle(angle: float, period: float) -> float:
    # canonical representative in (-period/2, period/2]
    reduced = angle % period
    half = period / 2.0
    if reduced > half:  # within roundoff above half it is half itself
        reduced = half if reduced <= half + 1e-15 else reduced - period
    return reduced


def waveplate_angles(x) -> WaveplateSetting:
    """Dial settings projecting onto the Bloch direction x.

    The quotient atan2(x1, x3) is quadrant aware, so x3 = 0 is fine.
    Propagating through HWP(theta_h) then QWP(theta_q) (fast axes
    horizontal at zero, quarter-wave retardance diag(1, -i)) and
    selecting the horizontal beam-splitter output reproduces the
    projector onto x.
    """
    x = _unit_vector("x", x)
    arc = math.asin(min(1.0, max(-1.0, x[1])))
    theta_q = 0.5 * arc
    theta_h = 0.25 * (math.atan2(x[0], x[2]) + arc)
    return WaveplateSetting(theta_q=_reduce_angle(theta_q, math.pi),
                            theta_h=_reduce_angle(theta_h, math.pi / 2.0))


def basis_report(rho: np.ndarray, ordering: str = "alice_first") -> dict | None:
    """Optimal bases of rho with their dials, as a JSON-ready block.

    Holds the ordering, the S and Q the bases achieve (``verify_bases``)
    and, per basis, its label, Bloch vector and both waveplate angles in
    degrees rounded to 4 decimals.  Returns None when rho has no
    correlations to align bases with (``optimal_bases`` raises
    NoSignalError there).
    """
    try:
        basis_set = optimal_bases(rho, ordering)
    except NoSignalError:
        return None
    s_achieved, q_achieved = verify_bases(rho, basis_set)
    rows = []
    for label, vec in basis_set.labeled():
        dials = waveplate_angles(vec)
        rows.append({
            "label": label,
            "bloch": [float(v) for v in vec],
            "theta_h_deg": round(math.degrees(dials.theta_h), 4),
            "theta_q_deg": round(math.degrees(dials.theta_q), 4),
        })
    return {"ordering": ordering, "achieved_S": s_achieved,
            "achieved_Q": q_achieved, "settings": rows}
