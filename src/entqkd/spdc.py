"""Multi-pair model of a continuously pumped SPDC entanglement source.

Under CW pumping, the number of photon pairs collected within one
detection window is Poisson distributed with mean ``n_bar``.  Each pair
is an independent copy of the single-pair state ``rho_0``, and each arm
has an end-to-end transmittance ``eta_A`` / ``eta_B``.  The model reads
``rho_0`` through its Pauli components

    P[mu, nu] = Tr[rho_0 (sigma_mu (x) sigma_nu)],   mu, nu in {I, x, y, z}.

For projections along the Bloch vectors a (Alice) and b (Bob), write
x_bar = (1, x).  Before loss, the photons project onto a and b jointly
with probability (a_bar P b_bar)/4 and singly with the marginal
probabilities m_A = (a_bar . P[:, 0])/2 and m_B = (P[0, :] . b_bar)/2.
The per-pair click pattern probabilities are then

    p11 = eA eB (a_bar P b_bar) / 4
    p10 = eA m_A - p11
    p01 = eB m_B - p11
    p00 = 1 - p11 - p10 - p01

and a window registers a coincidence unless one side stays dark for all
n pairs.  Summing the Poisson mixture in closed form gives

    c = 1 - exp(-n(1-A)) - exp(-n(1-B)) + exp(-n(1-D)),
    A = p10 + p00, B = p01 + p00, D = p00,

where 1 - A = eB m_B, 1 - B = eA m_A and 1 - D = eA m_A + eB m_B - p11
are the probabilities that Bob clicks, that Alice clicks, and that
either clicks.

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
from .numeric import check_range
from .states import _pauli_components, validate_density_matrix, werner_mix


@dataclass(frozen=True)
class SourceParams:
    """Mean pair number per window and the two arm transmittances."""

    n_bar: float
    eta_a: float
    eta_b: float

    def __post_init__(self):
        check_range("n_bar", self.n_bar, 0.0)
        check_range("eta_a", self.eta_a, 0.0, 1.0)
        check_range("eta_b", self.eta_b, 0.0, 1.0)


def _with_identity(bloch) -> np.ndarray:
    """x -> x_bar = (1, x) along the last axis."""
    bloch = np.asarray(bloch, dtype=float)
    return np.concatenate([np.ones(bloch.shape[:-1] + (1,)), bloch], axis=-1)


def click_probabilities(rho0: np.ndarray, bloch_a, bloch_b,
                        params: SourceParams) -> np.ndarray:
    """Per-pair click-pattern probabilities for projections along Bloch vectors.

    ``bloch_a`` and ``bloch_b`` are unit Bloch vectors of shape (..., 3);
    their leading axes broadcast against each other, so a (36, 3) pair
    of stacks gives every tomography setting in one call.  Returns an
    array of shape (..., 4) holding (p11, p10, p01, p00) along the last
    axis, from the Pauli components of ``rho0`` (module docstring).
    """
    pauli = _pauli_components(validate_density_matrix(rho0, name="rho0"))
    a_bar = _with_identity(bloch_a)
    b_bar = _with_identity(bloch_b)
    ea, eb = params.eta_a, params.eta_b
    p11 = ea * eb * np.sum((a_bar @ pauli) * b_bar, axis=-1) / 4.0
    p10 = ea * (a_bar @ pauli[:, 0]) / 2.0 - p11
    p01 = eb * (b_bar @ pauli[0, :]) / 2.0 - p11
    p00 = 1.0 - p11 - p10 - p01
    return np.stack([p11, p10, p01, p00], axis=-1)


def coincidence_probability(probs, n_bar) -> np.ndarray:
    """Probability of a coincidence per window, Poisson mixture in closed form.

    ``probs`` has shape (..., 4) with (p11, p10, p01, p00) along the last
    axis.  ``n_bar`` is a scalar or an array that broadcasts against
    ``probs.shape[:-1]``, so ``coincidence_probability(probs, grid[:, None])``
    gives every gain of a grid for a (36, 4) ``probs`` in one call; the
    result has the broadcast shape.  Each probability must lie in [0, 1]
    and each row must sum to 1, both within 1e-12.  Equals the series
    sum_n P(n; n_bar) [1 - A^n - B^n + D^n]; the grouped expm1 form below
    avoids cancellation at small n_bar.
    """
    n_bar = check_range("n_bar", np.asarray(n_bar, dtype=float), 0.0)
    probs = np.asarray(probs, dtype=float)
    if probs.shape[-1:] != (4,):
        raise ValueError(f"probs must have shape (..., 4), got {probs.shape}")
    check_range("click probabilities", probs, -1e-12, 1.0 + 1e-12)
    if not np.all(np.abs(probs.sum(axis=-1) - 1.0) <= 1e-12):
        raise ValueError("click probabilities must sum to 1")
    p11, p10, p01, _ = np.moveaxis(probs, -1, 0)
    # c = (1 - e^{-n(1-A)}) - (e^{-n(1-B)} - e^{-n(1-D)}), 1 - A = p11 + p01
    return (-np.expm1(-n_bar * (p11 + p01))
            - np.exp(-n_bar * (p11 + p10 + p01)) * np.expm1(n_bar * p01))


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
    check_range("n_bar", n_bar, 0.0)
    check_range("eta_a", eta_a, 0.0, 1.0, open_lo=True)
    check_range("eta_b", eta_b, 0.0, 1.0, open_lo=True)
    if n_bar == 0.0:
        return 0.0
    num = 2.0 * math.expm1(eta_a * n_bar / 2.0) * math.expm1(eta_b * n_bar / 2.0)
    return num / (num + math.expm1(eta_a * eta_b * n_bar / 2.0))


def kappa_approx(n_bar: float) -> float:
    """Low-gain white-noise weight, n_bar / (1 + n_bar)."""
    check_range("n_bar", n_bar, 0.0)
    return n_bar / (1.0 + n_bar)


def coincidence_rate_exact(n_bar: float, eta_a: float, eta_b: float) -> float:
    """Detected pairs per window: 1 - e^{-eA n} - e^{-eB n} + e^{-(eA+eB-eA eB) n}.

    Grouped as in ``coincidence_probability`` so that it does not cancel at small gains.
    """
    check_range("n_bar", n_bar, 0.0)
    check_range("eta_a", eta_a, 0.0, 1.0)
    check_range("eta_b", eta_b, 0.0, 1.0)
    return (-math.expm1(-n_bar * eta_b)
            - math.exp(-n_bar * (eta_a + eta_b - eta_a * eta_b))
            * math.expm1(n_bar * eta_b * (1.0 - eta_a)))


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
