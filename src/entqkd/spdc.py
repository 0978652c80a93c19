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
either clicks.  With x = n(1 - A), y = n(1 - B) and z = n p11, so that
n(1 - D) = x + y - z, it is evaluated as

    c = expm1(-x) expm1(-y) + e^{-(x+y)} expm1(z),

a sum of two nonnegative terms: nothing cancels, however small the
gain or the transmittances.

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
    sum_n P(n; n_bar) [1 - A^n - B^n + D^n], evaluated in the grouping of
    the module docstring so that no two terms cancel.
    """
    n_bar = check_range("n_bar", np.asarray(n_bar, dtype=float), 0.0)
    probs = np.asarray(probs, dtype=float)
    if probs.shape[-1:] != (4,):
        raise ValueError(f"probs must have shape (..., 4), got {probs.shape}")
    check_range("click probabilities", probs, -1e-12, 1.0 + 1e-12)
    if not np.all(np.abs(probs.sum(axis=-1) - 1.0) <= 1e-12):
        raise ValueError("click probabilities must sum to 1")
    p11, p10, p01, _ = np.moveaxis(probs, -1, 0)
    # x, y: mean Bob and Alice clicks per window; x + y - z: either side clicks
    x, y, z = n_bar * (p11 + p01), n_bar * (p11 + p10), n_bar * p11
    return np.expm1(-x) * np.expm1(-y) + np.exp(-(x + y)) * np.expm1(z)


def _expm1_ratio(t: float) -> float:
    """g(t) = expm1(t) / t, with g(0) = 1."""
    return math.expm1(t) / t if t != 0.0 else 1.0


def kappa_exact(n_bar: float, eta_a: float, eta_b: float) -> float:
    """White-noise weight of the effective state, closed form.

    The printed closed form

        2 (e^{eA n/2}-1)(e^{eB n/2}-1) /
        (1 - 2 e^{eA n/2} - 2 e^{eB n/2} + e^{eA eB n/2} + 2 e^{(eA+eB) n/2})

    equals 2 expm1(a) expm1(b) / (2 expm1(a) expm1(b) + expm1(c)) with
    a = eA n/2, b = eB n/2 and c = eA eB n/2.  Dividing by c, with
    g(t) = expm1(t)/t, gives

        n g(a) g(b) / (n g(a) g(b) + g(c)),

    in which nothing cancels or underflows however small the gain or
    the transmittances, and kappa in [0, 1] is manifest; n_bar = 0
    gives 0.  The expression is degenerate when a transmittance
    vanishes, so such calls are rejected (kappa_approx is the
    zero-transmittance limit, which small transmittances reach).
    """
    check_range("n_bar", n_bar, 0.0)
    check_range("eta_a", eta_a, 0.0, 1.0, open_lo=True)
    check_range("eta_b", eta_b, 0.0, 1.0, open_lo=True)
    num = n_bar * _expm1_ratio(eta_a * n_bar / 2.0) * _expm1_ratio(eta_b * n_bar / 2.0)
    return num / (num + _expm1_ratio(eta_a * eta_b * n_bar / 2.0))


def kappa_approx(n_bar: float) -> float:
    """Low-gain white-noise weight, n_bar / (1 + n_bar)."""
    check_range("n_bar", n_bar, 0.0)
    return n_bar / (1.0 + n_bar)


def coincidence_rate_exact(n_bar: float, eta_a: float, eta_b: float) -> float:
    """Detected pairs per window: 1 - e^{-eA n} - e^{-eB n} + e^{-(eA+eB-eA eB) n}.

    Grouped as in the module docstring, with x = eA n, y = eB n and
    z = eA eB n, so that it does not cancel at small gains or
    transmittances.
    """
    check_range("n_bar", n_bar, 0.0)
    check_range("eta_a", eta_a, 0.0, 1.0)
    check_range("eta_b", eta_b, 0.0, 1.0)
    x, y = eta_a * n_bar, eta_b * n_bar
    return math.expm1(-x) * math.expm1(-y) + math.exp(-(x + y)) * math.expm1(eta_a * y)


def _key_rate_per_transmittance(n_bar: float, eta_a: float, eta_b: float) -> float:
    """R_key / (eta_a eta_b), which stays normal where R_key itself underflows.

    The search objective of ``optimize.optimize_gain``: the Devetak-Winter
    rate of kappa_exact's (S, Q), times r_C / (eta_a eta_b).  Dividing
    coincidence_rate_exact's grouping through, with g(t) = expm1(t)/t,
    the latter is n^2 g(-eA n) g(-eB n) + e^{-(eA+eB) n} n g(eA eB n).
    """
    s, q = metrics.s_q_from_kappa(kappa_exact(n_bar, eta_a, eta_b))
    r_c_scaled = (n_bar * n_bar * _expm1_ratio(-eta_a * n_bar) * _expm1_ratio(-eta_b * n_bar)
                  + math.exp(-(eta_a + eta_b) * n_bar) * n_bar
                  * _expm1_ratio(eta_a * eta_b * n_bar))
    return metrics.devetak_winter(s, q) * r_c_scaled


def effective_state(params: SourceParams, rho_b: np.ndarray) -> np.ndarray:
    """Effective two-qubit state of the source: rho_b mixed with white noise."""
    kappa = kappa_exact(params.n_bar, params.eta_a, params.eta_b)
    return werner_mix(rho_b, kappa)


#: CSV column names of a ModelPoint row, in field order.
MODEL_CSV_HEADER = "n_bar,kappa,S,Q,r_dw,r_c,R_key"


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
