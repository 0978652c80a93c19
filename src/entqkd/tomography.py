"""Two-qubit tomography: frequency synthesis, MLE, uncertainty, pipeline gain curve.

The measurement set is the 36 ordered pairs of the six polarization
states H, V, D, A, R, L.  Pairs sharing the same Pauli axis on both
sides form 9 complementary quadruples (3 x 3 axis combinations) whose
four projectors sum to the identity; counts are treated as multinomial
within each quadruple, which is why the likelihood

    log L = sum_k c_k log C_k,     C_k = <psi_k| rho |psi_k>

needs no per-group normalization of the input: rescaling all
frequencies by a constant leaves the maximizer unchanged.

Reconstruction is accelerated projected gradient ascent: a step along
R = sum_k (c_k / C_k) Pi_k (c normalized) from a point extrapolated
with Nesterov momentum, projected back onto the density matrices, with
a backtracked step length and a momentum restart whenever a step would
lower the likelihood, so accepted iterates are monotone.  It stops on
the certified gap lambda_max(R) - 1, which bounds the log-likelihood
per count that any state could still add.

Monte-Carlo uncertainty resamples every observed count as Poisson with
the observed value as mean.  Per-sample generators are spawned from a
single master seed, so results are reproducible and independent of any
parallel scheduling of the samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from .numeric import golden_section_max
from .spdc import (ModelPoint, SourceParams, click_probabilities, coincidence_probability,
                   coincidence_rate_exact)
from .states import (POLARIZATION_BLOCH, POLARIZATION_KETS, ket_to_dm,
                     validate_density_matrix)

PROJECTION_LABELS = ("H", "V", "D", "A", "R", "L")

_LL_FLOOR = 1e-300  # guards log of model probabilities that underflow to 0
_STEP_START = 1.0
_STEP_GROWTH = 1.2
_MAX_HALVINGS = 60
_EYE4 = np.eye(4)


@dataclass(frozen=True)
class TomographySettings:
    """Ordered list of the 36 projection pairs with cached projectors.

    The canonical order is row-major over (a, b) with both labels
    running through H, V, D, A, R, L; any order covering all 36 ordered
    pairs exactly once is accepted.
    """

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((str(a), str(b)) for a, b in self.pairs)
        expected = {(a, b) for a in PROJECTION_LABELS for b in PROJECTION_LABELS}
        if len(pairs) != 36 or set(pairs) != expected:
            raise ValueError("settings must cover all 36 ordered projection pairs exactly once")
        object.__setattr__(self, "pairs", pairs)

        projectors = np.empty((36, 4, 4), dtype=complex)
        bloch_a = np.empty((36, 3))
        bloch_b = np.empty((36, 3))
        groups = np.empty(36, dtype=int)
        axis = {"H": 0, "V": 0, "D": 1, "A": 1, "R": 2, "L": 2}
        for k, (a, b) in enumerate(pairs):
            projectors[k] = ket_to_dm(np.kron(POLARIZATION_KETS[a], POLARIZATION_KETS[b]))
            bloch_a[k] = POLARIZATION_BLOCH[a]
            bloch_b[k] = POLARIZATION_BLOCH[b]
            groups[k] = axis[a] * 3 + axis[b]
        # Tr[Pi_k M] = projectors_real[k] @ M.reshape(16).view(float) for Hermitian M
        projectors_real = np.ascontiguousarray(projectors.reshape(36, 16)).view(np.float64)
        for arr in (projectors, projectors_real, bloch_a, bloch_b, groups):
            arr.flags.writeable = False
        object.__setattr__(self, "projectors", projectors)
        object.__setattr__(self, "projectors_real", projectors_real)
        object.__setattr__(self, "bloch_a", bloch_a)
        object.__setattr__(self, "bloch_b", bloch_b)
        object.__setattr__(self, "group_index", groups)

    @classmethod
    def canonical(cls) -> "TomographySettings":
        return cls(tuple((a, b) for a in PROJECTION_LABELS for b in PROJECTION_LABELS))

    def born_probabilities(self, rho: np.ndarray) -> np.ndarray:
        """<psi_k| rho |psi_k> for all 36 settings."""
        flat = np.ascontiguousarray(rho, dtype=complex).reshape(16).view(np.float64)
        return self.projectors_real @ flat


@dataclass(frozen=True)
class TomographyDataset:
    """Coincidence counts for the 36 settings plus timing information."""

    settings: TomographySettings
    counts: np.ndarray
    tau_s: float
    duration_s: float

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.shape != (36,):
            raise ValueError(f"counts must have shape (36,), got {counts.shape}")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        if np.any(counts != np.floor(counts)):
            raise ValueError("counts must be integers")
        counts = counts.astype(np.int64)
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        if not self.tau_s > 0.0:
            raise ValueError(f"tau_s must be positive, got {self.tau_s}")
        if not self.duration_s > 0.0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")
        if self.duration_s < self.tau_s:
            raise ValueError("duration_s must be at least tau_s (need N_win >= 1)")

    @property
    def n_windows(self) -> float:
        return self.duration_s / self.tau_s


@dataclass(frozen=True)
class ReconstructionResult:
    """MLE state with the achieved log-likelihood and iteration diagnostics."""

    rho: np.ndarray
    log_likelihood: float
    iterations: int
    converged: bool
    gap: float


@dataclass(frozen=True)
class UncertaintyReport:
    """Monte-Carlo means and standard deviations of the key figures of merit."""

    s_mean: float
    s_std: float
    q_mean: float
    q_std: float
    r_dw_mean: float
    r_dw_std: float
    r_key_mean: float
    r_key_std: float
    samples: int
    seed: int
    #: samples whose reconstruction hit the iteration cap; they stay in the means
    unconverged: int

    def to_json_dict(self) -> dict:
        return {
            "S": {"mean": self.s_mean, "std": self.s_std},
            "Q": {"mean": self.q_mean, "std": self.q_std},
            "r_dw": {"mean": self.r_dw_mean, "std": self.r_dw_std},
            "R_key": {"mean": self.r_key_mean, "std": self.r_key_std},
            "samples": self.samples,
            "seed": self.seed,
            "unconverged": self.unconverged,
        }


def synthesize_frequencies(rho0: np.ndarray, params: SourceParams,
                           settings: TomographySettings) -> np.ndarray:
    """Model coincidence probability for every projection pair, shape (36,)."""
    return coincidence_probability(
        click_probabilities(rho0, settings.bloch_a, settings.bloch_b, params), params.n_bar)


def _check_frequencies(frequencies) -> np.ndarray:
    c = np.asarray(frequencies, dtype=float)
    if c.shape != (36,):
        raise ValueError(f"frequencies must have shape (36,), got {c.shape}")
    if np.any(c < 0):
        raise ValueError("frequencies must be nonnegative")
    if c.sum() <= 0.0:
        raise ValueError("frequencies must not be all zero")
    return c


def _log_likelihood(c: np.ndarray, p: np.ndarray) -> float:
    mask = c > 0
    return float(np.sum(c[mask] * np.log(np.maximum(p[mask], _LL_FLOOR))))


def _projected_step(sigma: np.ndarray, move: np.ndarray) -> np.ndarray:
    """proj(sigma + move) - sigma for a unit-trace sigma.

    proj is the nearest density matrix in Frobenius norm: it keeps the
    eigenvectors of sigma + move and projects the eigenvalues onto the
    probability simplex, shifting them all by one amount and cutting
    those that fall below it to zero.  The difference is assembled from
    ``move``, the shift and the cut part rather than by subtracting two
    states, so it stays accurate when the step is small.
    """
    vals, vecs = np.linalg.eigh(sigma + move)
    total = 0.0
    kept = 0
    for count, val in enumerate(reversed(vals.tolist()), start=1):
        total += val
        if val <= (total - 1.0) / count:
            break
        kept = count
    cut = vals[:4 - kept]
    shift = (np.trace(move).real - cut.sum()) / kept
    step = move - shift * _EYE4
    if cut.size:
        low = vecs[:, :cut.size]
        step += (low * (shift - cut)) @ low.conj().T
    return step


def _accelerated_ascent(projectors_real, c, rho, tol, max_iterations, on_iteration=None):
    """Accelerated projected gradient ascent of sum_k c_k log p_k, c normalized.

    Each step moves from the extrapolated point sigma along the gradient
    R(sigma) = sum_k (c_k / p_k) Pi_k and projects back onto the density
    matrices.  The step length is found by backtracking and grows again
    after every accepted step; sigma runs ahead of the last iterate with
    Nesterov momentum (Shang, Zhang & Ng, PRA 95, 062336, 2017).  A step
    that would lower the likelihood restarts the momentum from the
    current iterate, so the accepted iterates are monotone.  Likelihood
    changes are evaluated as sum_k c_k log1p(dp_k / p_k), dp being the
    Born probabilities of the difference of the two states, so they do
    not cancel; log1p of the difference's trace is subtracted, so a
    roundoff change of the trace is not taken for progress.

    Stops when the certified gap lambda_max(R(rho)) - 1 is at most
    ``tol`` (Glancy, Knill & Girard, NJP 14, 095017, 2012), or when two
    restarts in a row cannot raise the likelihood, which is the
    floating-point floor.  Returns (rho, log-likelihood per unit
    weight, gap, iterations, converged).
    """
    observed = c > 0
    c = c[observed]
    basis = projectors_real[observed]

    def born(mat):
        # Tr[Pi_k M] for Hermitian M, as a real dot product
        return basis @ mat.reshape(16).view(np.float64)

    def gradient(p):
        return ((c / p) @ basis).view(complex).reshape(4, 4)

    def gap_of(r_op):
        return float(np.linalg.eigvalsh(r_op)[-1] - 1.0)

    rho = rho / np.trace(rho).real
    p = born(rho)
    if p.min() <= 0.0:
        raise ValueError("rho_start gives zero probability to a setting with counts")
    ll = float(c @ np.log(p))
    r_rho = gradient(p)
    gap = gap_of(r_rho)
    sigma, p_sigma, r_sigma = rho, p, r_rho
    ahead = None  # sigma - rho, None while sigma is rho
    theta, step, failed_restarts = 1.0, _STEP_START, 0
    iterations = 0
    # a step off the likelihood's domain yields nan, which every test below refuses
    with np.errstate(divide="ignore", invalid="ignore"):
        while gap > tol and iterations < max_iterations:
            iterations += 1
            gain = -math.inf
            for _ in range(_MAX_HALVINGS):
                to_cand = _projected_step(sigma, step * r_sigma)
                cand = sigma + to_cand
                p_cand = born(cand)
                x = born(to_cand) / p_sigma
                bound = -np.vdot(to_cand, to_cand).real / (2.0 * step)
                if p_cand.min() > 0.0 and c @ (np.log1p(x) - x) >= bound:
                    move = to_cand if ahead is None else ahead + to_cand
                    gain = float(c @ np.log1p(born(move) / p) - np.log1p(move.trace().real))
                    break
                step *= 0.5
            if gain > 0.0:
                failed_restarts = 0
                theta_next = (1.0 + math.sqrt(1.0 + 4.0 * theta * theta)) / 2.0
                ahead = (theta - 1.0) / theta_next * move if theta > 1.0 else None
                rho, p, r_rho, theta = cand, p_cand, gradient(p_cand), theta_next
                ll += gain
                gap = gap_of(r_rho)
                step *= _STEP_GROWTH
                if on_iteration is not None:
                    on_iteration(iterations, ll)
            else:
                if ahead is None:
                    failed_restarts += 1
                    if failed_restarts == 2:
                        break
                    step *= 0.5
                theta, ahead = 1.0, None
            if ahead is not None:
                sigma = rho + ahead
                p_sigma = born(sigma)
                if p_sigma.min() > 0.0:
                    r_sigma = gradient(p_sigma)
                    continue
                theta, ahead = 1.0, None  # extrapolated off the domain
            sigma, p_sigma, r_sigma = rho, p, r_rho
    return rho, ll, gap, iterations, gap <= tol or failed_restarts == 2


def mle_reconstruct(frequencies, settings: TomographySettings,
                    tol: float = 1e-10, max_iterations: int = 10000,
                    rho_start=None, on_iteration=None) -> ReconstructionResult:
    """Maximum-likelihood state from 36 coincidence frequencies or counts.

    Parameters
    ----------
    frequencies : array_like, shape (36,)
        Nonnegative counts or relative frequencies in settings order;
        any overall scale is irrelevant.
    tol : float
        Stop once the certified gap lambda_max(R) - 1 is at most ``tol``;
        it bounds the log-likelihood per unit weight still to be gained.
        Ascents that reach the floating-point floor first (two restarts
        in a row that cannot raise the likelihood) also count as
        converged; ``gap`` then tells how close they came.
    max_iterations : int
        Iteration cap; hitting it returns the best iterate flagged
        ``converged=False``.
    rho_start : array_like, optional
        Starting state (default: maximally mixed).  It must give every
        setting with a nonzero frequency a positive probability.
    on_iteration : callable, optional
        Called as ``on_iteration(iteration, log_likelihood)`` after every
        accepted update (likelihoods are per unit weight, nondecreasing).

    Returns
    -------
    ReconstructionResult
        ``log_likelihood`` is reported on the scale of the input
        frequencies; ``gap`` is lambda_max(R) - 1 at the returned state.
    """
    c = _check_frequencies(frequencies)
    total = c.sum()
    c = c / total  # likelihood maximizer is scale invariant; normalize once

    if rho_start is None:
        rho = np.eye(4, dtype=complex) / 4.0
    else:
        rho = validate_density_matrix(rho_start, name="rho_start").astype(complex)
    rho, ll, gap, iterations, converged = _accelerated_ascent(
        settings.projectors_real, c, rho, tol, max_iterations, on_iteration)
    rho = (rho + rho.conj().T) / 2.0
    rho /= np.trace(rho).real
    return ReconstructionResult(rho=rho, log_likelihood=ll * total,
                                iterations=iterations, converged=converged, gap=gap)


def fit_kappa(frequencies, settings: TomographySettings, rho_b: np.ndarray) -> float:
    """White-noise weight maximizing the likelihood within the mixture family.

    Maximizes sum_k c_k log[(1 - kappa) B_k + kappa / 4] over
    kappa in [0, 1], where B_k are the Born probabilities of ``rho_b``;
    bracketed golden-section search to 1e-10.
    """
    c = _check_frequencies(frequencies)
    rho_b = validate_density_matrix(rho_b, name="rho_b")
    born = settings.born_probabilities(rho_b)

    def objective(kappa):
        model = (1.0 - kappa) * born + kappa / 4.0
        return _log_likelihood(c, model)

    kappa = golden_section_max(objective, 0.0, 1.0, tol=1e-10)
    return float(min(max(kappa, 0.0), 1.0))


def coincidence_rate_from_counts(ds: TomographyDataset) -> float:
    """Coincidences per window from the 9 complementary quadruple sums.

    The four complementary projections of each of the 9 tomographic
    bases each sum (in expectation) to the total coincidence count, so
    the 9 quadruple sums are averaged and divided by the number of
    windows T / tau.
    """
    sums = np.zeros(9)
    np.add.at(sums, ds.settings.group_index, ds.counts.astype(float))
    n_c = sums.mean()
    return float(n_c / ds.n_windows)


def _metrics_from_counts(counts, ds: TomographyDataset, rho_start,
                         mle_kwargs: dict) -> tuple[metrics.QkdMetrics, bool]:
    result = mle_reconstruct(counts, ds.settings, rho_start=rho_start, **mle_kwargs)
    resampled = TomographyDataset(settings=ds.settings, counts=np.asarray(counts, dtype=np.int64),
                                  tau_s=ds.tau_s, duration_s=ds.duration_s)
    qkd = metrics.QkdMetrics.from_state(result.rho, coincidence_rate_from_counts(resampled))
    return qkd, result.converged


def monte_carlo_uncertainty(ds: TomographyDataset, samples: int, seed: int,
                            **mle_kwargs) -> UncertaintyReport:
    """Poisson-resampling uncertainty of S, Q, r_DW and R_key.

    Every count is resampled as Poisson with the observed count as its
    mean (zero counts stay zero), the reconstruction and rate extraction
    are rerun, and sample means and standard deviations (ddof=1) are
    reported.  The output is fully determined by (dataset, samples,
    seed); per-sample generators are spawned from the master seed, so a
    parallel execution would reproduce the same report.

    Reconstructions start from the base dataset's estimate softened with
    a small admixture of the maximally mixed state; any full-rank start
    reaches the same maximizer, this one just reaches it sooner.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 Monte-Carlo samples, got {samples}")
    streams = np.random.SeedSequence(seed).spawn(samples)
    values = np.empty((samples, 4))
    base = ds.counts.astype(float)
    base_fit = mle_reconstruct(base, ds.settings, **mle_kwargs)
    warm_start = 0.99 * base_fit.rho + 0.01 * np.eye(4, dtype=complex) / 4.0
    unconverged = 0
    for i, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        resampled = rng.poisson(base)
        qkd, converged = _metrics_from_counts(resampled, ds, warm_start, mle_kwargs)
        values[i] = qkd.s, qkd.q, qkd.r_dw, qkd.r_key
        unconverged += not converged
    means = values.mean(axis=0)
    stds = values.std(axis=0, ddof=1)
    return UncertaintyReport(
        s_mean=float(means[0]), s_std=float(stds[0]),
        q_mean=float(means[1]), q_std=float(stds[1]),
        r_dw_mean=float(means[2]), r_dw_std=float(stds[2]),
        r_key_mean=float(means[3]), r_key_std=float(stds[3]),
        samples=samples, seed=seed, unconverged=unconverged)


def mle_curve(rho0: np.ndarray, eta_a: float, eta_b: float, n_bar_grid) -> list[ModelPoint]:
    """Gain curve via the full pipeline: synthesize, reconstruct, evaluate.

    The kappa column reports the effective white-noise weight inferred
    from the achieved S, 1 - S / (2 sqrt(2)); for mixture-family states
    this coincides with the mixing weight.
    """
    settings = TomographySettings.canonical()
    points = []
    for n_bar in n_bar_grid:
        params = SourceParams(n_bar=float(n_bar), eta_a=eta_a, eta_b=eta_b)
        rho = mle_reconstruct(synthesize_frequencies(rho0, params, settings), settings).rho
        r_c = coincidence_rate_exact(n_bar, eta_a, eta_b)
        qkd = metrics.QkdMetrics.from_state(rho, r_c)
        points.append(ModelPoint(n_bar=float(n_bar), kappa=1.0 - qkd.s / metrics.TSIRELSON,
                                 s=qkd.s, q=qkd.q, r_dw=qkd.r_dw, r_c=r_c, r_key=qkd.r_key))
    return points
