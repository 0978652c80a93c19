"""Gain optimization and the quantum-dot comparison thresholds.

The per-window key rate of the CW source,

    R_key(n_bar) = r_DW(S(kappa), Q(kappa)) * r_C(n_bar),

with kappa = kappa_exact(n_bar, eta_A, eta_B), rises linearly at small
gain and collapses once multi-pair noise pushes the state below the
security threshold; there is a single interior maximum.  The largest
gain with any security at all is 0.166839 in the zero-transmittance
limit, which bounds the search bracket.

Comparison sources with at most one pair per trigger are scored by the
coincidence rate they need to beat the CW bound R_KEY_MAX_SPDC: at
Devetak-Winter rate r_DW, the break-even rate is R_KEY_MAX_SPDC / r_DW.
``comparison_series`` gathers the CW curves, these thresholds, the
single-pair key lines and the reference measurements into the series
that ``entqkd compare`` writes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics, tomography
from .numeric import bisect_root, check_range, golden_section_max
from .spdc import (MODEL_CSV_HEADER, _key_rate_per_transmittance, _model_point,
                   coincidence_rate_exact, kappa_approx, kappa_exact, model_curve)
from .states import bell_state, werner_mix

#: Rounded CW-source key-rate bound used for the comparison thresholds
#: (the exact-model optimum at unit transmittance is ~0.0289 and is
#: reported by optimize_gain for diagnostics).
R_KEY_MAX_SPDC = 0.029

#: Largest gain with nonzero key rate, reached in the eta -> 0 limit.
CRITICAL_N_BAR_LIMIT = 0.166839

NOISE_MODELS = ("dephasing", "white")


class NoSecurityError(ValueError):
    """Raised when the requested state yields a vanishing Devetak-Winter rate."""


@dataclass(frozen=True)
class GainOptimum:
    """Gain maximizing the per-window key rate at fixed transmittances."""

    n_bar_opt: float
    r_key_opt: float
    eta_a: float
    eta_b: float


@dataclass(frozen=True)
class QdThreshold:
    """Break-even coincidence rate for a single-pair source of given quality."""

    concurrence: float
    noise_model: str
    r_dw: float
    r_c_threshold: float


def optimize_gain(eta_a: float, eta_b: float) -> GainOptimum:
    """Maximize the key rate over the gain by golden-section search.

    Searches n_bar on (0, 0.166839] to |delta n_bar| < 1e-7, on
    R_key / (eta_a eta_b): that has the same maximizer and stays a
    normal double when R_key underflows at tiny transmittances, where a
    search on R_key itself would compare zeros.  The located optimum
    sits near n_bar ~ 0.07 for all transmittances and tends to 0.07727
    as they vanish; the fixed setting n_bar = 0.0737 stays within 0.2 %
    of the maximum.  ``r_key_opt`` is R_key itself, 0.0 where it
    underflows.
    """
    check_range("eta_a", eta_a, 0.0, 1.0, open_lo=True)
    check_range("eta_b", eta_b, 0.0, 1.0, open_lo=True)
    n_opt = golden_section_max(lambda n: _key_rate_per_transmittance(n, eta_a, eta_b),
                               1e-9, CRITICAL_N_BAR_LIMIT, tol=1e-7)
    return GainOptimum(n_bar_opt=float(n_opt), r_key_opt=_model_point(n_opt, eta_a, eta_b).r_key,
                       eta_a=eta_a, eta_b=eta_b)


def critical_gain(eta_a: float, eta_b: float) -> float:
    """Largest gain with positive (unclamped) Devetak-Winter rate.

    Bisection to 1e-7 on the sign change of the unclamped rate.  Both
    transmittances zero selects the zero-transmittance limit
    kappa = n_bar / (1 + n_bar); mixing one zero arm with one positive
    arm has no defined closed form and is rejected.
    """
    check_range("eta_a", eta_a, 0.0, 1.0)
    check_range("eta_b", eta_b, 0.0, 1.0)
    if eta_a == 0.0 and eta_b == 0.0:
        kappa_of = kappa_approx
    elif eta_a > 0.0 and eta_b > 0.0:
        def kappa_of(n):
            return kappa_exact(n, eta_a, eta_b)
    else:
        raise ValueError("transmittances must be both positive or both zero")

    def raw_rate(n):
        s, q = metrics.s_q_from_kappa(kappa_of(n))
        return metrics.devetak_winter_raw(s, q)

    return bisect_root(raw_rate, 1e-9, 0.3, tol=1e-7)


def qd_reference_state(concurrence: float, noise_model: str) -> np.ndarray:
    """Noisy single-pair reference state of a given concurrence.

    "dephasing" scales both coherences of a Bell state by the
    concurrence (pure dephasing on one arm; the minimal QBER stays 0),
    "white" mixes in white noise with kappa = 2 (1 - C) / 3.  Both
    constructions have Wootters concurrence exactly C.
    """
    if noise_model not in NOISE_MODELS:
        raise ValueError(f"noise_model must be one of {NOISE_MODELS}, got {noise_model!r}")
    check_range("concurrence", concurrence, 0.0, 1.0)
    bell = bell_state("phi+")
    if noise_model == "white":
        return werner_mix(bell, 2.0 * (1.0 - concurrence) / 3.0)
    rho = np.array(bell)
    rho[0, 3] *= concurrence
    rho[3, 0] *= concurrence
    return rho


def qd_threshold(concurrence: float, noise_model: str) -> QdThreshold:
    """Coincidence rate a single-pair source needs to beat the CW bound."""
    _, _, r_dw = metrics.evaluate_state(qd_reference_state(concurrence, noise_model))
    if r_dw <= 0.0:
        raise NoSecurityError(
            f"concurrence {concurrence} under {noise_model} noise is not secure (r_DW = 0)")
    return QdThreshold(concurrence=concurrence, noise_model=noise_model,
                       r_dw=r_dw, r_c_threshold=R_KEY_MAX_SPDC / r_dw)


def qd_key_line(r_dw: float, r_c_grid) -> list[tuple[float, float]]:
    """Linear key-rate line R_key = r_DW * r_C of a single-pair source."""
    check_range("r_dw", r_dw, 0.0, 1.0)
    return [(float(r_c), metrics.key_rate(r_dw, float(r_c))) for r_c in r_c_grid]


def comparison_series(rho0: np.ndarray, eta_a: float, eta_b: float,
                      n_bar_grid) -> dict[str, tuple[str, list]]:
    """The CW source against single-pair sources, as named CSV series.

    Maps each series name to its (header, rows):

    - ``spdc_ideal``: the Bell-input model curve at unit transmittance;
    - ``spdc_model``: the curve of the single-pair state ``rho0`` at
      (eta_a, eta_b), fitted through ``tomography.mle_curve``;
    - ``thresholds``: the CW bound's coincidence rate and the break-even
      rates of single-pair sources of concurrence 0.95 under dephasing
      and white noise, each at R_key = R_KEY_MAX_SPDC;
    - ``single_pair_lines``: R_key = r_DW r_C of the ideal and the two
      noisy single-pair sources;
    - ``reference_points``: the bundled reference measurements.

    Everything is computed before the function returns, so an
    unconverged curve point raises ConvergenceError and leaves nothing
    half written for the caller.
    """
    # imported here, so that importing the package does not load the table reader
    from .refdata import load_reference_table

    dephasing = qd_threshold(0.95, "dephasing")
    white = qd_threshold(0.95, "white")
    peak = optimize_gain(1.0, 1.0)
    bound = R_KEY_MAX_SPDC
    rc_grid = np.geomspace(1e-6, 0.2, 60)
    return {
        "spdc_ideal": (MODEL_CSV_HEADER, model_curve(1.0, 1.0, n_bar_grid)),
        "spdc_model": (MODEL_CSV_HEADER, tomography.mle_curve(rho0, eta_a, eta_b, n_bar_grid)),
        "thresholds": ("label,r_c,R_key", [
            ("spdc_bound", coincidence_rate_exact(peak.n_bar_opt, 1.0, 1.0), bound),
            ("threshold_dephasing_c95", dephasing.r_c_threshold, bound),
            ("threshold_white_c95", white.r_c_threshold, bound)]),
        "single_pair_lines": ("source,r_c,R_key", [
            (name, r_c, r_key)
            for name, r_dw in (("ideal_single_pair", 1.0), ("dephasing_c95", dephasing.r_dw),
                               ("white_c95", white.r_dw))
            for r_c, r_key in qd_key_line(r_dw, rc_grid)]),
        "reference_points": ("tau_ns,r_c,S,Q,r_dw,R_key", [
            (row.tau_ns, row.r_c.value, row.s.value, row.q.value, row.r_dw.value,
             row.r_key.value) for row in load_reference_table()]),
    }
