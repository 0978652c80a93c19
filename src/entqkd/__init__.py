"""Quantifying the QKD potential of photonic entanglement sources.

The package reconstructs two-qubit density matrices from 36-setting
tomography data, evaluates the Devetak-Winter secure key rate through
the CHSH value and QBER, models the multi-pair degradation of a
continuously pumped SPDC source, finds its optimal gain, and derives
the optimal measurement bases together with waveplate dial settings.
"""

__version__ = "0.1.0"

from .bases import (BasisSet, NoSignalError, WaveplateSetting, basis_report,
                    optimal_bases, verify_bases, waveplate_angles)
from .metrics import (QkdMetrics, binary_entropy, chsh_max, devetak_winter,
                      devetak_winter_raw, evaluate_state, key_rate, qber_min,
                      s_q_from_kappa)
from .optimize import (CRITICAL_N_BAR_LIMIT, R_KEY_MAX_SPDC, GainOptimum,
                       NoSecurityError, QdThreshold, comparison_series,
                       critical_gain, optimize_gain, qd_key_line,
                       qd_reference_state, qd_threshold)
from .spdc import (ModelPoint, SourceParams, click_probabilities,
                   coincidence_probability, coincidence_rate_exact,
                   effective_state, kappa_approx, kappa_exact, model_curve)
from .states import (BELL_LABELS, MAXIMALLY_MIXED, POLARIZATION_BLOCH,
                     POLARIZATION_KETS, CorrelationAnalysis, bell_state,
                     bloch_projector, bloch_to_ket, concurrence,
                     correlation_analysis, fidelity, ket_to_dm, partial_trace,
                     pauli, validate_density_matrix, werner_mix)
from .tomography import (PROJECTION_LABELS, ConvergenceError, ReconstructionResult,
                         TomographyDataset, TomographySettings,
                         UncertaintyReport, coincidence_rate_from_counts,
                         fit_kappa, mle_curve, mle_reconstruct,
                         monte_carlo_uncertainty, synthesize_frequencies)

__all__ = [
    "__version__",
    "BELL_LABELS", "MAXIMALLY_MIXED", "POLARIZATION_BLOCH", "POLARIZATION_KETS",
    "PROJECTION_LABELS",
    "BasisSet", "ConvergenceError", "CorrelationAnalysis", "GainOptimum",
    "ModelPoint", "NoSecurityError", "NoSignalError", "QdThreshold",
    "QkdMetrics", "ReconstructionResult", "SourceParams", "TomographyDataset",
    "TomographySettings", "UncertaintyReport", "WaveplateSetting",
    "CRITICAL_N_BAR_LIMIT", "R_KEY_MAX_SPDC",
    "basis_report", "bell_state", "binary_entropy", "bloch_projector",
    "bloch_to_ket", "chsh_max", "click_probabilities", "coincidence_probability",
    "coincidence_rate_exact", "coincidence_rate_from_counts", "comparison_series",
    "concurrence",
    "correlation_analysis", "critical_gain", "devetak_winter",
    "devetak_winter_raw", "effective_state", "evaluate_state", "fidelity",
    "fit_kappa", "kappa_approx", "kappa_exact", "ket_to_dm", "key_rate",
    "mle_curve", "mle_reconstruct", "model_curve", "monte_carlo_uncertainty",
    "optimal_bases", "optimize_gain", "partial_trace", "pauli", "qber_min",
    "qd_key_line", "qd_reference_state", "qd_threshold", "s_q_from_kappa",
    "synthesize_frequencies", "validate_density_matrix", "verify_bases",
    "waveplate_angles", "werner_mix",
]
