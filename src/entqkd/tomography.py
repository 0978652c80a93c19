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
per count that any state could still add.  Every fit starts from its
own data: the linear-inversion estimate of the quadruple-normalized
frequencies, projected onto the density matrices.  An estimate that
is certified already is the start: exact frequencies of a state invert
to the state itself, their maximizer, so such a fit stops before its
first step.  Every other estimate, which is every one of noisy counts,
is mixed with a little of I/4, so every setting starts with a positive
probability (Smolin, Gambetta & Smith, PRL 108, 070502, 2012).

Monte-Carlo uncertainty resamples every observed count as Poisson with
the observed value as mean.  Per-sample generators are spawned from a
single master seed, so results are reproducible and independent of any
parallel scheduling of the samples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from .numeric import check_range, golden_section_max
from .spdc import (ModelPoint, SourceParams, click_probabilities, coincidence_probability,
                   coincidence_rate_exact)
from .states import (POLARIZATION_BLOCH, POLARIZATION_KETS, ket_to_dm,
                     validate_density_matrix)

PROJECTION_LABELS = ("H", "V", "D", "A", "R", "L")

_LL_FLOOR = 1e-300  # guards log of model probabilities that underflow to 0
_STEP_START = 1.0
_STEP_GROWTH = 1.2
_MAX_HALVINGS = 60
#: a step is accepted only if every observed setting keeps at least this
#: fraction of its probability at the point the step starts from
_BOUNDARY_KEEP = 0.1
_TOL = 1e-10
#: a floor stop counts as converged only if its gap is at most this
_FLOOR_GAP = 1e-8
_MAX_ITERATIONS = 10000
#: weight of I/4 mixed into a start that is not certified already, which keeps every
#: setting's probability >= _START_MIX / 4
_START_MIX = 1e-3
#: a start keeps its estimate only if every observed probability is above this, far above
#: the roundoff of a Born product of a unit-trace state (32 terms of size <= 1), so the
#: solver's own product of the start is positive too
_BORN_ROUNDOFF = 1e-13
_EYE4 = np.eye(4)
_RANKS = np.arange(1, 5)


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
        # least-squares inverse of that map: (f @ linear_inversion).view(complex) is
        # the flattened Hermitian M whose probabilities are nearest to f
        linear_inversion = np.ascontiguousarray(np.linalg.pinv(projectors_real).T)
        for arr in (projectors, projectors_real, linear_inversion, bloch_a, bloch_b, groups):
            arr.flags.writeable = False
        object.__setattr__(self, "projectors", projectors)
        object.__setattr__(self, "projectors_real", projectors_real)
        object.__setattr__(self, "linear_inversion", linear_inversion)
        object.__setattr__(self, "bloch_a", bloch_a)
        object.__setattr__(self, "bloch_b", bloch_b)
        object.__setattr__(self, "group_index", groups)

    @classmethod
    def canonical(cls) -> "TomographySettings":
        """Row-major order; built once, as an instance never changes."""
        return _canonical_settings(cls)

    def born_probabilities(self, rho: np.ndarray) -> np.ndarray:
        """<psi_k| rho |psi_k> for all 36 settings."""
        flat = np.ascontiguousarray(rho, dtype=complex).reshape(16).view(np.float64)
        return self.projectors_real @ flat


@functools.cache
def _canonical_settings(cls) -> TomographySettings:
    return cls(tuple((a, b) for a in PROJECTION_LABELS for b in PROJECTION_LABELS))


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
        check_range("counts", counts, 0)
        # the Python int bound compares exactly with every dtype; the float
        # 2**63 - 1 would round up to 2**63 and let 2.0**63 through
        if np.any(counts >= 2 ** 63):
            raise ValueError(f"counts must be below 2**63 to fit int64, got {counts.max()}")
        if np.any(counts != np.floor(counts)):
            raise ValueError("counts must be integers")
        counts = counts.astype(np.int64)
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        check_range("tau_s", self.tau_s, 0.0, open_lo=True)
        check_range("duration_s", self.duration_s, 0.0, open_lo=True)
        if self.duration_s < self.tau_s:
            raise ValueError("duration_s must be at least tau_s (need N_win >= 1)")

    @property
    def n_windows(self) -> float:
        return self.duration_s / self.tau_s


@dataclass(frozen=True)
class ReconstructionResult:
    """MLE state with the achieved log-likelihood and iteration diagnostics.

    ``stop`` says why the ascent ended: ``"gap"`` when the certified gap
    reached the tolerance, ``"floor"`` when two restarts in a row could
    not raise the likelihood, ``"cap"`` at the iteration cap.
    ``converged`` is true for a gap stop, and for a floor stop whose gap
    is at most ``_FLOOR_GAP``.
    """

    rho: np.ndarray
    log_likelihood: float
    iterations: int
    converged: bool
    gap: float
    stop: str


class ConvergenceError(RuntimeError):
    """A pipeline curve point whose fit did not converge."""

    def __init__(self, n_bar: float, gap: float, stop: str, unconverged: int):
        super().__init__(f"the fit at n_bar = {n_bar!r} did not converge: stop {stop!r} at "
                         f"gap {gap:.3e}, {unconverged} unconverged point(s) in the grid")
        self.n_bar, self.gap, self.stop = n_bar, gap, stop


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
    #: samples whose reconstruction did not converge; they stay in the means
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
    check_range("frequencies", c, 0.0)
    if c.sum() <= 0.0:
        raise ValueError("frequencies must not be all zero")
    return c


def _certified(stop: str, gap: float) -> bool:
    """Whether a fit that ended for ``stop`` at ``gap`` counts as converged."""
    return stop == "gap" or (stop == "floor" and gap <= _FLOOR_GAP)


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

    A step must also keep every observed probability at least
    ``_BOUNDARY_KEEP`` times its value at sigma, the fraction-to-the-
    boundary rule of interior methods (Nocedal & Wright, Numerical
    Optimization, section 19.2).  Without it a step can land on a face
    where an observed probability nearly vanishes: that costs little
    likelihood, but the gradient there is so large that every later
    step fails the backtracking and the floor stop below fires far from
    the optimum.

    Stops when the certified gap lambda_max(R(rho)) - 1 is at most
    ``tol`` (Glancy, Knill & Girard, NJP 14, 095017, 2012), or when two
    restarts in a row cannot raise the likelihood, which is the
    floating-point floor, or at the iteration cap.  Returns (rho,
    log-likelihood per unit weight, gap, iterations, stop), stop being
    ``"gap"``, ``"floor"`` or ``"cap"``.
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
                if (p_cand.min() > 0.0 and x.min() >= _BOUNDARY_KEEP - 1.0
                        and c @ (np.log1p(x) - x) >= bound):
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
    stop = "gap" if gap <= tol else "floor" if failed_restarts == 2 else "cap"
    return rho, ll, gap, iterations, stop


def _simplex_kept_rows(vals: np.ndarray) -> np.ndarray:
    """How many of each row's ascending eigenvalues, shape (B, 4), the simplex keeps.

    In descending order with their running sums, each row keeps the
    leading run of values above the threshold, as ``_projected_step``'s
    loop does with its break.
    """
    desc = vals[:, ::-1]
    above = desc > (np.cumsum(desc, axis=1) - 1.0) / _RANKS
    return np.cumprod(above, axis=1).sum(axis=1)


def _projected_steps(sigma: np.ndarray, move: np.ndarray) -> np.ndarray:
    """``_projected_step`` on (B, 4, 4) stacks, row by row.

    The cut is decided from every row's eigenvalues at once, and only
    the rows that cut a value are diagonalized.  Every other row's step
    is its move less the mean trace, which is all of them on most passes
    of a gain curve.  (The scalar step diagonalizes at once: most steps
    of a Monte-Carlo fit land on the boundary and cut.)
    """
    total = sigma + move
    trace = np.einsum("bii->b", move).real
    shift = trace / 4.0
    rows = np.flatnonzero(_simplex_kept_rows(np.linalg.eigvalsh(total)) < 4)
    if not rows.size:
        return move - shift[:, None, None] * _EYE4
    vals, vecs = np.linalg.eigh(total[rows])
    kept = _simplex_kept_rows(vals)
    cut = _RANKS <= 4 - kept[:, None]  # the lowest 4 - kept values, ascending order
    shift[rows] = (trace[rows] - np.where(cut, vals, 0.0).sum(axis=1)) / kept
    weights = np.where(cut, shift[rows, None] - vals, 0.0)
    step = move - shift[:, None, None] * _EYE4
    step[rows] += (vecs * weights[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    return step


def _start_states(settings: TomographySettings, w: np.ndarray) -> np.ndarray:
    """Starting states for a (B, 36) stack of weights, shape (B, 4, 4).

    Each complementary quadruple is normalized to unit sum (an all-zero
    one gets 1/4 per setting) and inverted linearly by
    ``settings.linear_inversion``, and the estimate's eigenvalues are
    projected onto the probability simplex.  A row starts at that
    estimate if it is certified already: it gives every setting of
    positive weight a probability above ``_BORN_ROUNDOFF``, and its gap
    is at most ``_TOL``, which bounds every ratio c_k / p_k of the
    gradient by 1 + ``_TOL``.  Exact frequencies of a state pass, unless
    a weight is roundoff of an exact 0, so their fit stops before its
    first step.  Every other row, which is every row of noisy counts,
    gets ``_START_MIX`` of I/4 mixed in, so every setting starts at a
    probability of at least ``_START_MIX / 4`` and any weight, even one
    the projection gave probability 0, can be fitted.  The rows are
    independent.
    """
    group = settings.group_index
    sums = w @ (group[:, None] == group)  # each setting's quadruple sum
    f = np.divide(w, sums, out=np.full(w.shape, 0.25), where=sums > 0.0)
    estimate = (f @ settings.linear_inversion).view(complex).reshape(-1, 4, 4)
    vals, vecs = np.linalg.eigh(estimate)
    kept = _simplex_kept_rows(vals)
    cut = _RANKS <= 4 - kept[:, None]  # the lowest 4 - kept values, ascending order
    threshold = (np.where(cut, 0.0, vals).sum(axis=1) - 1.0) / kept
    vals = np.where(cut, 0.0, vals - threshold[:, None])
    starts = _outer_products(vecs, vals)
    p = starts.reshape(-1, 16).view(np.float64) @ settings.projectors_real.T
    # the rows whose estimate is certified already: every observed probability
    # above roundoff, and the gap of the normalized weights, lambda_max(R) - 1,
    # at most _TOL, taken on the weights as given
    keeps = ((w <= 0.0) | (p > _BORN_ROUNDOFF)).all(axis=1)
    c = w[keeps]
    ratios = np.divide(c, p[keeps], out=np.zeros(c.shape), where=c > 0.0)
    r_op = (ratios @ settings.projectors_real).view(complex).reshape(-1, 4, 4)
    keeps[keeps] = np.linalg.eigvalsh(r_op)[:, -1] <= (1.0 + _TOL) * c.sum(axis=1)
    mixed = ~keeps
    starts[mixed] = _outer_products(vecs[mixed],
                                    (1.0 - _START_MIX) * vals[mixed] + _START_MIX / 4.0)
    return starts


def _outer_products(vecs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The Hermitian (B, 4, 4) stack with eigenvectors ``vecs`` and eigenvalues ``vals``."""
    rho = (vecs * vals[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    return (rho + rho.conj().swapaxes(1, 2)) / 2.0


def _accelerated_ascent_batch(projectors_real, c, rho, tol, max_iterations):
    """``_accelerated_ascent`` on a (B, 36) stack of normalized weights from (B, 4, 4) starts.

    Each start is scaled to unit trace, as the scalar path does, and must
    give every setting of positive weight a positive probability.  Every
    row keeps its own step length, theta, momentum term, restart count
    and backtracking count, and takes the scalar path's decisions
    with its constants, its log1p acceptance test, its boundary guard
    and its positivity test.  Each pass makes one attempt for every live
    row: a row whose attempt fails halves its step and tries again on
    the next pass, and a row that completes an iteration (a step
    accepted, or ``_MAX_HALVINGS`` failures) updates its iterate in the
    same pass, so no row waits for another's backtracking.  An attempt
    takes one Born product, of the step: the probabilities of the
    extrapolated point and of the move from the iterate are sums with
    those of the momentum term, taken once per momentum update.  Only a
    candidate that passes the guard and the acceptance test gets its own
    Born product, which its positivity test and, once it is accepted,
    its gradient use.  Zero weights drop out of every sum.  A row leaves
    the live set at the first of the scalar stops: a certified gap of at
    most ``tol``, the floor stop or the iteration cap.  Returns the
    symmetrized unit-trace states, shape (B, 4, 4), with their gaps,
    completed iterations and stop reasons.
    """
    count = c.shape[0]
    rho_out = np.empty((count, 4, 4), dtype=complex)
    gap_out = np.empty(count)
    iterations_out = np.empty(count, dtype=int)
    stop_out = np.empty(count, dtype="<U5")
    to_born = projectors_real.T

    def born(mats):
        # Tr[Pi_k M] for a stack of Hermitian M, as one real product
        return mats.reshape(-1, 16).view(np.float64) @ to_born

    def gradient(w, p):
        return ((w / p) @ projectors_real).view(complex).reshape(-1, 4, 4)

    def row_dot(w, values):
        return np.einsum("bk,bk->b", w, values)

    rows = np.arange(count)
    w = c
    # the probabilities of unobserved settings are held at +inf: every ratio
    # over them is 0, so they drop out of every sum, minimum and gradient
    unobserved = np.where(w > 0.0, 0.0, np.inf)
    rho = rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    p = born(rho) + unobserved
    r_rho = gradient(w, p)
    gap = np.linalg.eigvalsh(r_rho)[:, -1] - 1.0
    # sigma = rho + ahead, the point the next attempt steps from; ahead and
    # its probabilities are zero on rows without momentum
    sigma, p_sigma, r_sigma = rho.copy(), p.copy(), r_rho.copy()
    ahead, p_ahead = np.zeros_like(rho), np.zeros_like(p)
    ahead_on = np.zeros(count, dtype=bool)
    theta = np.ones(count)
    step = np.full(count, _STEP_START)
    failed = np.zeros(count, dtype=int)
    halvings = np.zeros(count, dtype=int)  # failed attempts of the current iteration
    iterations = np.zeros(count, dtype=int)  # completed iterations
    completed = True  # whether a row completed an iteration since the last stop test
    # a step off the likelihood's domain yields nan, which every test below refuses
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            if completed:
                done = ~(gap > tol) | (failed == 2) | (iterations >= max_iterations)
                if done.any():
                    out = rows[done]
                    rho_out[out] = rho[done]
                    gap_out[out] = gap[done]
                    iterations_out[out] = iterations[done]
                    stop_out[out] = np.where(gap[done] <= tol, "gap",
                                             np.where(failed[done] == 2, "floor", "cap"))
                    live = ~done
                    if not live.any():
                        break
                    (rows, w, unobserved, rho, p, r_rho, gap, sigma, p_sigma, r_sigma, ahead,
                     p_ahead, ahead_on, theta, step, failed, halvings, iterations) = (
                        a[live] for a in (rows, w, unobserved, rho, p, r_rho, gap, sigma,
                                          p_sigma, r_sigma, ahead, p_ahead, ahead_on, theta,
                                          step, failed, halvings, iterations))
            to_cand = _projected_steps(sigma, step[:, None, None] * r_sigma)
            dp = born(to_cand)
            x = dp / p_sigma
            flat = to_cand.reshape(-1, 16).view(np.float64)
            bound = -row_dot(flat, flat) / (2.0 * step)
            # an iteration makes at most _MAX_HALVINGS attempts, as the scalar loop does
            ok = ((halvings < _MAX_HALVINGS) & (x.min(axis=1) >= _BOUNDARY_KEEP - 1.0)
                  & (row_dot(w, np.log1p(x) - x) >= bound))
            # the candidates that pass get their own Born product, which an accepted
            # iterate keeps; the guard holds them positive up to roundoff, which can
            # still zero the probability of a setting with a tiny weight
            hit = np.flatnonzero(ok)
            cand = sigma[hit] + to_cand[hit]
            p_cand = born(cand) + unobserved[hit]
            ok[hit] = p_cand.min(axis=1) > 0.0
            step *= np.where(ok, 1.0, 0.5)
            halvings = np.where(ok, 0, halvings + 1)
            complete = ok | (halvings >= _MAX_HALVINGS)
            completed = complete.any()
            if not completed:
                continue
            # the rows that completed an iteration: the scalar path's bookkeeping, row by row
            halvings[complete] = 0
            iterations += complete
            move = ahead + to_cand
            gain = (row_dot(w, np.log1p((p_ahead + dp) / p))
                    - np.log1p(np.einsum("bii->b", move).real))
            good = ok & (gain > 0.0)
            bad = np.flatnonzero(complete & ~good)
            if bad.size:  # an iteration that raised nothing restarts from the iterate
                restart = bad[~ahead_on[bad]]  # a step from the iterate itself failed
                failed[restart] += 1
                step[restart] *= 0.5
                theta[bad], ahead_on[bad] = 1.0, False
                ahead[bad], p_ahead[bad] = 0.0, 0.0
                sigma[bad], p_sigma[bad], r_sigma[bad] = rho[bad], p[bad], r_rho[bad]
            acc = np.flatnonzero(good)
            if acc.size:
                failed[acc] = 0
                step[acc] *= _STEP_GROWTH
                w_a, theta_a, kept = w[acc], theta[acc], good[hit]
                theta_next = (1.0 + np.sqrt(1.0 + 4.0 * theta_a * theta_a)) / 2.0
                theta[acc] = theta_next
                on = theta_a > 1.0  # momentum from the second accepted step on
                rho_a, p_a = cand[kept], p_cand[kept]
                coef = np.where(on, (theta_a - 1.0) / theta_next, 0.0)
                ahead_a = coef[:, None, None] * move[acc]
                p_ahead_a = born(ahead_a)
                p_sigma_a = p_a + p_ahead_a
                off = on & ~(p_sigma_a.min(axis=1) > 0.0)
                if off.any():  # extrapolated off the domain
                    on &= ~off
                    theta[acc[off]] = 1.0
                    ahead_a[off], p_ahead_a[off], p_sigma_a[off] = 0.0, 0.0, p_a[off]
                ahead_on[acc] = on
                r_a = gradient(w_a, p_a)
                rho[acc], p[acc], r_rho[acc] = rho_a, p_a, r_a
                gap[acc] = np.linalg.eigvalsh(r_a)[:, -1] - 1.0
                ahead[acc], p_ahead[acc] = ahead_a, p_ahead_a
                sigma[acc], p_sigma[acc] = rho_a + ahead_a, p_sigma_a
                r_sigma[acc] = np.where(on[:, None, None], gradient(w_a, p_sigma_a), r_a)
    rho_out = (rho_out + rho_out.conj().swapaxes(1, 2)) / 2.0
    rho_out /= np.einsum("bii->b", rho_out).real[:, None, None]
    return rho_out, gap_out, iterations_out, stop_out


def mle_reconstruct(frequencies, settings: TomographySettings,
                    tol: float = _TOL, max_iterations: int = _MAX_ITERATIONS,
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
        in a row that cannot raise the likelihood) stop with
        ``stop="floor"`` and count as converged only at a gap of at
        most 1e-8.
    max_iterations : int
        Iteration cap; hitting it returns the best iterate with
        ``stop="cap"`` and ``converged=False``.
    rho_start : array_like, optional
        Starting state.  It must give every setting with a nonzero
        frequency a positive probability.  The default is the projected
        linear-inversion estimate of the frequencies, mixed with 0.1 % of
        I/4 unless it is certified already; it is the start ``mle_curve``
        gives each of its points.  Exact frequencies of a state start at
        their maximizer and certify at 0 iterations.
    on_iteration : callable, optional
        Called as ``on_iteration(iteration, log_likelihood)`` after every
        accepted update (likelihoods are per unit weight, nondecreasing).

    Returns
    -------
    ReconstructionResult
        ``log_likelihood`` is reported on the scale of the input
        frequencies; ``gap`` is lambda_max(R) - 1 at the returned state
        and ``stop`` the reason the ascent ended.
    """
    c = _check_frequencies(frequencies)
    total = c.sum()
    c = c / total  # likelihood maximizer is scale invariant; normalize once

    if rho_start is None:
        rho = _start_states(settings, c[None])[0]
    else:
        rho = validate_density_matrix(rho_start, name="rho_start").astype(complex)
    rho, ll, gap, iterations, stop = _accelerated_ascent(
        settings.projectors_real, c, rho, tol, max_iterations, on_iteration)
    rho = (rho + rho.conj().T) / 2.0
    rho /= np.trace(rho).real
    return ReconstructionResult(rho=rho, log_likelihood=ll * total, iterations=iterations,
                                converged=_certified(stop, gap), gap=gap, stop=stop)


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


def _quadruple_sums(counts, settings: TomographySettings) -> np.ndarray:
    """Counts summed over each of the 9 complementary quadruples, shape (..., 9)."""
    one_hot = settings.group_index[:, None] == np.arange(9)
    return np.asarray(counts, dtype=float) @ one_hot


def coincidence_rate_from_counts(ds: TomographyDataset) -> float:
    """Coincidences per window from the 9 complementary quadruple sums.

    The four complementary projections of each of the 9 tomographic
    bases each sum (in expectation) to the total coincidence count, so
    the 9 quadruple sums are averaged and divided by the number of
    windows T / tau.
    """
    return float(_quadruple_sums(ds.counts, ds.settings).mean() / ds.n_windows)


def monte_carlo_uncertainty(ds: TomographyDataset, samples: int, seed: int,
                            **mle_kwargs) -> UncertaintyReport:
    """Poisson-resampling uncertainty of S, Q, r_DW and R_key.

    Every count is resampled as Poisson with the observed count as its
    mean (zero counts stay zero), the reconstruction and rate extraction
    are rerun, and sample means and standard deviations (ddof=1) are
    reported.  The output is fully determined by (dataset, samples,
    seed); per-sample generators are spawned from the master seed, so a
    parallel execution would reproduce the same report.

    All resamples are drawn first as one (samples, 36) array; each row
    is then reconstructed and evaluated, and the coincidence rates and
    key rates of all rows follow in one array step.  Reconstructions
    start from the base dataset's estimate softened with a small
    admixture of the maximally mixed state; any full-rank start reaches
    the same maximizer.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 Monte-Carlo samples, got {samples}")
    base = ds.counts.astype(float)
    resamples = np.array([np.random.default_rng(stream).poisson(base)
                          for stream in np.random.SeedSequence(seed).spawn(samples)])
    base_fit = mle_reconstruct(base, ds.settings, **mle_kwargs)
    warm_start = 0.99 * base_fit.rho + 0.01 * np.eye(4, dtype=complex) / 4.0
    values = np.empty((samples, 4))  # columns S, Q, r_DW, R_key
    unconverged = 0
    for row, counts in zip(values, resamples):
        fit = mle_reconstruct(counts, ds.settings, rho_start=warm_start, **mle_kwargs)
        row[:3] = metrics.evaluate_state(fit.rho)
        unconverged += not fit.converged
    r_c = _quadruple_sums(resamples, ds.settings).mean(axis=-1) / ds.n_windows
    values[:, 3] = values[:, 2] * r_c
    s_mean, q_mean, r_dw_mean, r_key_mean = values.mean(axis=0).tolist()
    s_std, q_std, r_dw_std, r_key_std = values.std(axis=0, ddof=1).tolist()
    return UncertaintyReport(
        s_mean=s_mean, s_std=s_std, q_mean=q_mean, q_std=q_std,
        r_dw_mean=r_dw_mean, r_dw_std=r_dw_std, r_key_mean=r_key_mean, r_key_std=r_key_std,
        samples=samples, seed=seed, unconverged=unconverged)


def mle_curve(rho0: np.ndarray, eta_a: float, eta_b: float, n_bar_grid) -> list[ModelPoint]:
    """Gain curve via the full pipeline: synthesize, reconstruct, evaluate.

    The kappa column reports the effective white-noise weight inferred
    from the achieved S, 1 - S / (2 sqrt(2)); for mixture-family states
    this coincides with the mixing weight.

    Every grid value must be positive and finite: a zero gain gives no
    coincidences to reconstruct from.  The frequencies of all grid
    points come from one array evaluation of the source model, and all
    points are fitted as one stack, each from its own projected
    linear-inversion estimate to the default certified gap, so each
    point is independent of the rest of the grid.  Synthesized
    frequencies that a state reproduces start at their maximizer and
    certify at once; the others start from the estimate mixed with a
    little of I/4.
    A point whose fit does not converge raises ``ConvergenceError``, so
    no uncertified point is returned.
    """
    grid = np.asarray(n_bar_grid, dtype=float)
    # NaN and inf get the domain message; zero and negative gains the cause below
    check_range("n_bar", grid[~np.isfinite(grid)], 0.0, open_lo=True)
    bad = grid[~(grid > 0.0)]
    if bad.size:
        raise ValueError(f"the pipeline curve needs n_bar > 0, got n_bar = {float(bad[0])!r}: "
                         "a zero gain gives no coincidences to reconstruct from")
    settings = TomographySettings.canonical()
    # the click probabilities depend on the transmittances only
    probs = click_probabilities(rho0, settings.bloch_a, settings.bloch_b,
                                SourceParams(n_bar=0.0, eta_a=eta_a, eta_b=eta_b))
    frequencies = coincidence_probability(probs, grid[:, None])
    totals = frequencies.sum(axis=1, keepdims=True)
    if not np.all(totals > 0.0):
        raise ValueError("frequencies must not be all zero")
    weights = frequencies / totals
    rhos, gaps, _, stops = _accelerated_ascent_batch(
        settings.projectors_real, weights, _start_states(settings, weights), _TOL,
        _MAX_ITERATIONS)
    failed = [(n_bar, gap, stop)
              for n_bar, gap, stop in zip(grid.tolist(), gaps.tolist(), stops.tolist())
              if not _certified(stop, gap)]
    if failed:
        raise ConvergenceError(*failed[0], unconverged=len(failed))
    points = []
    for n_bar, rho in zip(grid.tolist(), rhos):
        r_c = coincidence_rate_exact(n_bar, eta_a, eta_b)
        qkd = metrics.QkdMetrics.from_state(rho, r_c)
        points.append(ModelPoint(n_bar=n_bar, kappa=1.0 - qkd.s / metrics.TSIRELSON,
                                 s=qkd.s, q=qkd.q, r_dw=qkd.r_dw, r_c=r_c, r_key=qkd.r_key))
    return points
