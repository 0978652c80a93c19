"""Multi-pair model of a continuously pumped SPDC entanglement source.

Under CW pumping, the number of photon pairs collected within one
detection window is Poisson distributed with mean ``n_bar``.  Each pair
is an independent copy of the single-pair state ``rho_0``, and each arm
has an end-to-end transmittance ``eta_A`` / ``eta_B``.  For a projection
pair (psi_i, psi_j) the per-pair click pattern probabilities are

    p11 = eA eB <ij|rho0|ij>
    p10 = eA eB <ij_perp|rho0|ij_perp> + eA (1-eB) <i|rhoA|i>
    p01 = eA eB <i_perp j|rho0|i_perp j> + (1-eA) eB <j|rhoB|j>
    p00 = eA eB <i_perp j_perp|...> + eA (1-eB) <i_perp|rhoA|i_perp>
          + (1-eA) eB <j_perp|rhoB|j_perp> + (1-eA)(1-eB)

and a window registers a coincidence unless one side stays dark for all
n pairs.  Summing the Poisson mixture in closed form gives

    c = 1 - exp(-n(1-A)) - exp(-n(1-B)) + exp(-n(1-D)),
    A = p10 + p00, B = p01 + p00, D = p00.

When rho_0 is a Bell state, the maximum-likelihood estimate of the
effective two-qubit state is the Bell state mixed with white noise of
weight kappa(n_bar, eta_A, eta_B); ``kappa_exact`` evaluates that weight
in closed form, and ``kappa_approx`` is its low-gain limit
n_bar / (1 + n_bar).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import metrics
from .states import _partial_trace, bloch_projector, validate_density_matrix, werner_mix


@dataclass(frozen=True)
class SourceParams:
    """Mean pair number per window and the two arm transmittances."""

    n_bar: float
    eta_a: float
    eta_b: float

    def __post_init__(self):
        if self.n_bar < 0.0:
            raise ValueError(f"n_bar must be nonnegative, got {self.n_bar}")
        for name, eta in (("eta_a", self.eta_a), ("eta_b", self.eta_b)):
            if not 0.0 <= eta <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {eta}")


@dataclass(frozen=True)
class ClickProbabilities:
    """Per-pair probabilities of the four click patterns for one projection pair."""

    p11: float
    p10: float
    p01: float
    p00: float

    def __post_init__(self):
        total = self.p11 + self.p10 + self.p01 + self.p00
        for name, p in zip(("p11", "p10", "p01", "p00"),
                           (self.p11, self.p10, self.p01, self.p00)):
            if not -1e-12 <= p <= 1.0 + 1e-12:
                raise ValueError(f"{name} out of [0, 1]: {p}")
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"click probabilities must sum to 1, got {total}")


def click_probabilities(rho0: np.ndarray, psi_i, psi_j,
                        params: SourceParams) -> ClickProbabilities:
    """Four click-pattern probabilities for projections along Bloch vectors.

    ``psi_i`` and ``psi_j`` are unit Bloch vectors; internally each is
    converted to the projector (I + x.sigma)/2, and the orthogonal
    projection uses the antipodal direction -x.
    """
    return _click_probabilities(validate_density_matrix(rho0, name="rho0"), psi_i, psi_j, params)


def _click_probabilities(rho0: np.ndarray, psi_i, psi_j,
                         params: SourceParams) -> ClickProbabilities:
    """``click_probabilities`` for a ``rho0`` the caller has already validated."""
    ea, eb = params.eta_a, params.eta_b
    pi = bloch_projector(psi_i)
    pj = bloch_projector(psi_j)
    pi_perp = np.eye(2) - pi
    pj_perp = np.eye(2) - pj
    rho_a = _partial_trace(rho0, "A")
    rho_b = _partial_trace(rho0, "B")

    def joint(a, b):
        return np.trace(rho0 @ np.kron(a, b)).real

    def single(red, a):
        return np.trace(red @ a).real

    p11 = ea * eb * joint(pi, pj)
    p10 = ea * eb * joint(pi, pj_perp) + ea * (1.0 - eb) * single(rho_a, pi)
    p01 = ea * eb * joint(pi_perp, pj) + (1.0 - ea) * eb * single(rho_b, pj)
    p00 = (ea * eb * joint(pi_perp, pj_perp)
           + ea * (1.0 - eb) * single(rho_a, pi_perp)
           + (1.0 - ea) * eb * single(rho_b, pj_perp)
           + (1.0 - ea) * (1.0 - eb))
    return ClickProbabilities(p11=p11, p10=p10, p01=p01, p00=p00)


def coincidence_probability(cp: ClickProbabilities, n_bar: float) -> float:
    """Probability of a coincidence per window, Poisson mixture in closed form.

    Equals the series sum_n P(n; n_bar) [1 - A^n - B^n + D^n]; the
    grouped expm1 form below avoids cancellation at small n_bar.
    """
    if n_bar < 0.0:
        raise ValueError(f"n_bar must be nonnegative, got {n_bar}")
    a = cp.p10 + cp.p00
    b = cp.p01 + cp.p00
    d = cp.p00
    # c = (1 - e^{-n(1-A)}) - (e^{-n(1-B)} - e^{-n(1-D)})
    return (-math.expm1(-n_bar * (1.0 - a))
            - math.exp(-n_bar * (1.0 - d)) * math.expm1(n_bar * cp.p01))


def kappa_exact(n_bar: float, eta_a: float, eta_b: float) -> float:
    """White-noise weight of the effective state, closed form.

    The printed closed form

        2 (e^{eA n/2}-1)(e^{eB n/2}-1) /
        (1 - 2 e^{eA n/2} - 2 e^{eB n/2} + e^{eA eB n/2} + 2 e^{(eA+eB) n/2})

    is rewritten as num / (num + expm1(eA eB n / 2)), an algebraic
    identity that is stable at small gains and makes kappa in [0, 1]
    manifest.  n_bar = 0 returns 0 by continuity; the expression is
    degenerate when a transmittance vanishes, so such calls are
    rejected (use kappa_approx for the zero-transmittance limit).
    """
    if n_bar < 0.0:
        raise ValueError(f"n_bar must be nonnegative, got {n_bar}")
    for name, eta in (("eta_a", eta_a), ("eta_b", eta_b)):
        if not 0.0 < eta <= 1.0:
            raise ValueError(
                f"{name} must lie in (0, 1], got {eta}; "
                "the closed form is degenerate at zero transmittance")
    if n_bar == 0.0:
        return 0.0
    num = 2.0 * math.expm1(eta_a * n_bar / 2.0) * math.expm1(eta_b * n_bar / 2.0)
    return num / (num + math.expm1(eta_a * eta_b * n_bar / 2.0))


def kappa_approx(n_bar: float) -> float:
    """Low-gain white-noise weight, n_bar / (1 + n_bar)."""
    if n_bar < 0.0:
        raise ValueError(f"n_bar must be nonnegative, got {n_bar}")
    return n_bar / (1.0 + n_bar)


def coincidence_rate_exact(n_bar: float, eta_a: float, eta_b: float) -> float:
    """Detected pairs per window: 1 - e^{-eA n} - e^{-eB n} + e^{-(eA+eB-eA eB) n}."""
    if n_bar < 0.0:
        raise ValueError(f"n_bar must be nonnegative, got {n_bar}")
    for name, eta in (("eta_a", eta_a), ("eta_b", eta_b)):
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {eta}")
    return (1.0 - math.exp(-eta_a * n_bar) - math.exp(-eta_b * n_bar)
            + math.exp(-(eta_a + eta_b - eta_a * eta_b) * n_bar))


def effective_state(params: SourceParams, rho_b: np.ndarray) -> np.ndarray:
    """Effective two-qubit state of the source: rho_b mixed with white noise."""
    kappa = kappa_exact(params.n_bar, params.eta_a, params.eta_b)
    return werner_mix(rho_b, kappa)


class ModelPoint(NamedTuple):
    n_bar: float
    kappa: float
    s: float
    q: float
    r_dw: float
    r_c: float
    r_key: float


def _model_point(n_bar: float, eta_a: float, eta_b: float) -> ModelPoint:
    """Chain kappa_exact -> (S, Q) -> Devetak-Winter rate, times the exact r_C."""
    kappa = kappa_exact(n_bar, eta_a, eta_b)
    s, q = metrics.s_q_from_kappa(kappa)
    r_dw = metrics.devetak_winter(s, q)
    r_c = coincidence_rate_exact(n_bar, eta_a, eta_b)
    return ModelPoint(n_bar=float(n_bar), kappa=kappa, s=s, q=q, r_dw=r_dw, r_c=r_c,
                      r_key=metrics.key_rate(r_dw, r_c))


def model_curve(eta_a: float, eta_b: float, n_bar_grid) -> list[ModelPoint]:
    """Evaluate the Bell-input source model on a gain grid.

    Chains kappa_exact -> (S, Q) -> Devetak-Winter rate and multiplies
    by the exact coincidence rate; one ModelPoint per grid value, in
    grid order.  Suitable for plotting rate-versus-gain curves.
    """
    return [_model_point(n_bar, eta_a, eta_b) for n_bar in n_bar_grid]
