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
per count that any state could still add.  The public fits normalize
their weights once, and everything below them takes normalized
weights, so the start rule, the Newton steps and both ascents read
this gap from one function (``_gaps``).

Both ascents hand a fit to Newton steps on a Cholesky factor of the
state once its gap is at most 1e-2 (``_HANDOFF``): rho = V L L^dagger
V^dagger with L lower-triangular, the 16 real parameters of James,
Kwiat, Munro & White (PRA 64, 052312, 2001), in ``_factor_newton``.  A
fit they certify ends there with stop "gap".  They take at most 40
steps (``_FACTOR_STEPS``), as near a rank boundary the factor converges
only linearly, and a fit they leave uncertified goes back to the ascent
from its hand-off state with the iterations it has left.  A fit's
iteration count includes its Newton steps.  A Monte-Carlo sample starts
below the hand-off gap and certifies in about 12 steps.

Every fit starts from its own data by one rule (``_start_states``),
for single fits and gain curves alike: the linear-inversion estimate
of the quadruple-normalized frequencies, projected onto the density
matrices.  An estimate that is certified already is the start: exact
frequencies of a state invert to the state itself, their maximizer, so
such a fit stops before its first step.  Every other estimate, which
is every one of noisy counts, is mixed with a little of I/4, so every
setting starts with a positive probability (Smolin, Gambetta & Smith,
PRL 108, 070502, 2012), and then takes full Newton steps in the
traceless Pauli coordinates of the state.  A fit whose optimum is
interior, as for full-rank states, certifies in two or three of them
and the ascent stops it before its first iteration; every other fit
keeps its mixed start.  A given ``rho_start`` replaces the whole rule.

Before a fit, a weight at most 1e-13 of its row's largest counts as 0
(``_ZERO_WEIGHT``): such weights are roundoff of an exact 0, as in the
Born products of a state, and no fit can certify against them.

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
from .states import (_PAULI_TABLE_REAL, POLARIZATION_BLOCH, POLARIZATION_KETS,
                     _pauli_components, validate_density_matrix)

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
#: a weight at most this fraction of its row's largest is roundoff of an exact 0, as in
#: Born products of a state that gives a setting probability 0, and counts as 0; a row of
#: integer counts loses no count unless it holds more than 1e13 counts.  The start rule
#: keeps an estimate only if every observed probability is above it too
_ZERO_WEIGHT = 1e-13
#: full Newton steps ``_interior_newton`` takes at most; from the starts of a gain
#: curve an interior optimum certifies in 2 or 3
_NEWTON_STEPS = 5
#: an ascent hands a row to ``_factor_newton`` once its certified gap is at most this
_HANDOFF = 1e-2
#: Newton steps ``_factor_newton`` takes at most: near a rank boundary the factor
#: converges only linearly, and the ascent finishes the few rows that do not certify
_FACTOR_STEPS = 40
#: the factor's starting diagonal is at least this: a zero column never grows back, and
#: a tiny one only doubles per step
_FACTOR_FLOOR = 1e-3
_EYE4 = np.eye(4)
_RANKS = np.arange(1, 5)
# a lower-triangular 4 x 4 factor with a real diagonal has 16 real parameters: the real
# parts of its 10 entries on and below the diagonal, then the imaginary parts of the 6
# below it.  Row n of this map is the flattened factor of parameter n alone at 1
_FACTOR_MAP = np.r_[np.eye(16)[np.tril(np.ones((4, 4))).ravel() > 0],
                    1j * np.eye(16)[np.tril(np.ones((4, 4)), -1).ravel() > 0]]
# parameter n is entry (row, column) of the factor, times _FACTOR_PHASE[n]; the second
# derivatives of every probability couple parameters of one column only
_FACTOR_ROWS, _FACTOR_COLS = np.divmod(np.abs(_FACTOR_MAP).argmax(axis=1), 4)
_FACTOR_PHASE = _FACTOR_MAP.sum(axis=1)
_FACTOR_PAIRS = (2.0 * (_FACTOR_COLS[:, None] == _FACTOR_COLS)
                 * _FACTOR_PHASE.conj()[:, None] * _FACTOR_PHASE)


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

        kets = np.array([np.kron(POLARIZATION_KETS[a], POLARIZATION_KETS[b]) for a, b in pairs])
        projectors = kets[:, :, None] * kets[:, None, :].conj()
        bloch_a = np.empty((36, 3))
        bloch_b = np.empty((36, 3))
        groups = np.empty(36, dtype=int)
        axis = {"H": 0, "V": 0, "D": 1, "A": 1, "R": 2, "L": 2}
        for k, (a, b) in enumerate(pairs):
            bloch_a[k] = POLARIZATION_BLOCH[a]
            bloch_b[k] = POLARIZATION_BLOCH[b]
            groups[k] = axis[a] * 3 + axis[b]
        # Tr[Pi_k M] = projectors_real[k] @ M.reshape(16).view(float) for Hermitian M
        projectors_real = np.ascontiguousarray(projectors.reshape(36, 16)).view(np.float64)
        # least-squares inverse of that map: (f @ linear_inversion).view(complex) is
        # the flattened Hermitian M whose probabilities are nearest to f
        linear_inversion = np.ascontiguousarray(np.linalg.pinv(projectors_real).T)
        # p = 1/4 + _pauli_design @ x for the 15 traceless Pauli coordinates x of a
        # unit-trace state, x[mu, nu] = Tr[rho (sigma_mu (x) sigma_nu)] without (I, I):
        # row k is (1, bloch_a[k]) (x) (1, bloch_b[k]) / 4 without its first entry
        ones = np.ones((36, 1))
        pauli_design = np.ascontiguousarray(np.einsum(
            "km,kn->kmn", np.hstack([ones, bloch_a]), np.hstack([ones, bloch_b])
        ).reshape(36, 16)[:, 1:] / 4.0)
        for arr in (kets, projectors, projectors_real, linear_inversion, pauli_design, bloch_a,
                    bloch_b, groups):
            arr.flags.writeable = False
        object.__setattr__(self, "_kets", kets)
        object.__setattr__(self, "projectors", projectors)
        object.__setattr__(self, "projectors_real", projectors_real)
        object.__setattr__(self, "linear_inversion", linear_inversion)
        object.__setattr__(self, "_pauli_design", pauli_design)
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

    ``stop`` says why the fit ended: ``"gap"`` when the certified gap
    reached the tolerance, in the ascent or in the Newton steps that
    finish it, ``"floor"`` when two restarts in a row of the ascent could
    not raise the likelihood, ``"cap"`` at the iteration cap.
    ``iterations`` counts the ascent's iterations and the Newton steps.
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


def _kept_weights(c: np.ndarray) -> np.ndarray:
    """c with every weight at most ``_ZERO_WEIGHT`` of its row's largest set to 0."""
    return np.where(c > _ZERO_WEIGHT * c.max(axis=-1, keepdims=True), c, 0.0)


def _certified(stop: str, gap: float) -> bool:
    """Whether a fit that ended for ``stop`` at ``gap`` counts as converged."""
    return stop == "gap" or (stop == "floor" and gap <= _FLOOR_GAP)


def _gaps(r_ops: np.ndarray) -> np.ndarray:
    """The certified gap lambda_max(R) - 1 of one 4 x 4 R or of each of a stack.

    R = sum_k (w_k / p_k) Pi_k for normalized weights w; the gap bounds the
    log-likelihood per unit weight that any state could still add (Glancy,
    Knill & Girard, NJP 14, 095017, 2012).
    """
    return np.linalg.eigvalsh(r_ops)[..., -1] - 1.0


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


def _accelerated_ascent(settings, c, rho, max_iterations, on_iteration=None):
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
    ``_TOL`` (Glancy, Knill & Girard, NJP 14, 095017, 2012), or when two
    restarts in a row cannot raise the likelihood, which is the
    floating-point floor, or at the iteration cap.  The first time the
    gap is at most ``_HANDOFF`` the fit goes to ``_factor_newton`` for at
    most ``_FACTOR_STEPS`` of the iterations left.  If they certify it, or
    use up the iterations, the fit ends at their state, and
    ``on_iteration`` sees each of their steps; otherwise the ascent goes
    on from the hand-off state with the iterations left.  Returns (rho,
    log-likelihood per unit weight, gap, iterations, stop), stop being
    ``"gap"``, ``"floor"`` or ``"cap"``.
    """
    report = on_iteration or (lambda iteration, ll: None)
    observed = c > 0
    weights, c = c[None], c[observed]  # the finisher takes the whole row
    basis = settings.projectors_real[observed]

    def born(mat):
        # Tr[Pi_k M] for Hermitian M, as a real dot product
        return basis @ mat.reshape(16).view(np.float64)

    def gradient(p):
        return ((c / p) @ basis).view(complex).reshape(4, 4)

    rho = rho / np.trace(rho).real
    p = born(rho)
    if p.min() <= 0.0:
        raise ValueError("rho_start gives zero probability to a setting with counts")
    ll = float(c @ np.log(p))
    r_rho = gradient(p)
    gap = float(_gaps(r_rho))
    sigma, p_sigma, r_sigma = rho, p, r_rho
    ahead = None  # sigma - rho, None while sigma is rho
    theta, step, failed_restarts = 1.0, _STEP_START, 0
    iterations = 0
    handed = False
    # a step off the likelihood's domain yields nan, which every test below refuses
    with np.errstate(divide="ignore", invalid="ignore"):
        while gap > _TOL and iterations < max_iterations:
            if not handed and gap <= _HANDOFF:
                handed = True
                rhos, gaps, steps, gains = _factor_newton(
                    settings, weights, rho[None], min(_FACTOR_STEPS, max_iterations - iterations))
                if gaps[0] <= _TOL or steps[0] == max_iterations - iterations:
                    # certified, or out of iterations: the fit ends at the Newton state
                    lls = np.cumsum(np.r_[ll, gains[0, :steps[0]]]).tolist()[1:]
                    for iterations, ll in enumerate(lls, start=iterations + 1):
                        report(iterations, ll)
                    rho, gap = rhos[0], float(gaps[0])
                    break
                iterations += int(steps[0])  # the ascent goes on from the hand-off state
                continue
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
                gap = float(_gaps(r_rho))
                step *= _STEP_GROWTH
                report(iterations, ll)
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
    stop = "gap" if gap <= _TOL else "floor" if failed_restarts == 2 else "cap"
    return rho, ll, gap, iterations, stop


def _born_rows(projectors_real, mats: np.ndarray) -> np.ndarray:
    """Tr[Pi_k M] for a (B, 4, 4) stack of Hermitian M, as one real product, shape (B, 36)."""
    return mats.reshape(-1, 16).view(np.float64) @ projectors_real.T


def _ratio_operators(projectors_real, w: np.ndarray, p: np.ndarray) -> np.ndarray:
    """R = sum_k (w_k / p_k) Pi_k for every row of (B, 36) weights and probabilities."""
    return ((w / p) @ projectors_real).view(complex).reshape(-1, 4, 4)


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
    of a gain curve.  ``_start_states`` projects its estimates here too,
    as steps from I/4.  (The scalar step diagonalizes at once: most
    steps of a Monte-Carlo fit land on the boundary and cut.)
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
    """Starting states for a (B, 36) stack of normalized weights, shape (B, 4, 4).

    This is the start rule of every fit that starts from its own data,
    and it takes the weights those fits take: ``_kept_weights`` of the
    input, each row normalized.
    Each complementary quadruple is normalized to unit sum (an all-zero
    one gets 1/4 per setting) and inverted linearly by
    ``settings.linear_inversion``, and the estimate is projected onto the
    density matrices as the step from I/4 to it, by
    ``_projected_steps``, then made exactly Hermitian.  A row starts at
    that estimate if it is certified already: it gives every setting of
    positive weight a probability above ``_ZERO_WEIGHT``, and its gap
    (``_gaps``) is at most ``_TOL``, which bounds every ratio w_k / p_k
    of the gradient by 1 + ``_TOL``.  A Born product of a unit-trace
    state is a sum of 32 real terms whose magnitudes sum to at most 1,
    so its roundoff is at most about 32 * 2**-53, 3.6e-15, and every
    product of a kept start, the solver's own included, is positive.  Exact
    frequencies of a state pass, as ``_kept_weights`` has zeroed the
    roundoff of their exact zeros, so their fit stops before its first
    step; a weight the policy did not zero, as when this function is
    called directly, can only send its row to the mixed start.  Every other
    row, which is every row of noisy counts, gets ``_START_MIX`` of I/4
    mixed in, so every setting starts at a probability of at least
    ``_START_MIX / 4`` and any weight, even one the projection gave
    probability 0, can be fitted; exactly these mixed rows then take
    ``_interior_newton``'s full Newton steps, which certify the rows
    whose optimum is interior and leave every other row at its mixed
    start, bit for bit.  The rows are independent.
    """
    sums = _quadruple_sums(w, settings)[:, settings.group_index]  # each setting's group sum
    f = np.divide(w, sums, out=np.full(w.shape, 0.25), where=sums > 0.0)
    estimate = (f @ settings.linear_inversion).view(complex).reshape(-1, 4, 4)
    starts = _EYE4 / 4.0 + _projected_steps(_EYE4 / 4.0, estimate - _EYE4 / 4.0)
    starts = (starts + starts.conj().swapaxes(1, 2)) / 2.0
    # the probabilities of unobserved settings are held at +inf, as in the ascent
    p = _born_rows(settings.projectors_real, starts) + np.where(w > 0.0, 0.0, np.inf)
    # the rows whose estimate is certified already: every observed probability
    # above roundoff and the gap at most _TOL
    keeps = p.min(axis=1) > _ZERO_WEIGHT
    keeps[keeps] = _gaps(_ratio_operators(settings.projectors_real, w[keeps], p[keeps])) <= _TOL
    starts[~keeps] = _interior_newton(
        settings, w[~keeps], (1.0 - _START_MIX) * starts[~keeps] + _START_MIX / 4.0 * _EYE4)
    return starts


def _solve_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a[i] x[i] = b[i] for a (B, n, n) stack; NaN rows where a[i] is singular.

    One singular matrix makes the stacked solve raise for every row, so
    then each row is solved alone.
    """
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for i, (a_i, b_i) in enumerate(zip(a, b)):
            try:
                out[i] = np.linalg.solve(a_i, b_i)
            except np.linalg.LinAlgError:
                pass
        return out


def _interior_newton(settings: TomographySettings, w: np.ndarray,
                     starts: np.ndarray) -> np.ndarray:
    """Certify fits whose optimum is interior by full Newton steps, shape (B, 4, 4).

    ``w`` is a (B, 36) stack of normalized weights and ``starts`` the
    states to step from; ``_start_states`` passes exactly its mixed rows,
    whose estimates are not certified, so every row takes steps and no
    row's gap is evaluated to choose them.  The steps work on the 15 traceless
    Pauli coordinates x of the state, whose probabilities are p = 1/4 +
    D x with D = ``settings._pauli_design``, so the trace stays 1
    without a multiplier.  Each step is a full Newton step of sum_k w_k
    log p_k, (D^T diag(w / p^2) D) dx = D^T (w / p), without a line
    search.  A row keeps a step only if the new state is positive
    definite, every setting of positive weight keeps a positive
    probability and the certified gap lambda_max(R) - 1 (``_gaps``) falls;
    the gap comes from the ascent's own Born product of the state scaled
    to unit trace, so the ascent reads the same gap.  A row leaves at the
    first step it cannot keep (a singular Hessian and a step that is not
    finite are such steps), when its gap reaches ``_TOL``, or after
    ``_NEWTON_STEPS`` steps.  A row that reached ``_TOL`` comes back as
    its Newton state, at which the ascent stops before its first
    iteration; every other row comes back as its start, bit for bit, and
    the ascent fits it as it would without this phase.  Steps toward an
    optimum on the boundary, where the state loses rank, soon leave the
    positive definite states, so those fits are left to the ascent.
    """
    out = starts.copy()
    design, projectors_real = settings._pauli_design, settings.projectors_real
    rho = starts / np.trace(starts, axis1=1, axis2=2).real[:, None, None]
    # the probabilities of unobserved settings are held at +inf, as in the ascent
    unobserved = np.where(w > 0.0, 0.0, np.inf)
    rows = np.arange(len(w))
    p = _born_rows(projectors_real, rho) + unobserved
    gap = _gaps(_ratio_operators(projectors_real, w, p))
    x = _pauli_components(rho).reshape(-1, 16)[:, 1:]
    # a step off the likelihood's domain overflows or yields nan, which every test
    # below refuses
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            if not rows.size:
                break
            ratio = w / p
            x_new = x + _solve_rows((design.T * (ratio / p)[:, None, :]) @ design,
                                    ratio @ design)
            # every Pauli coordinate of a state lies in [-1, 1]; a row outside stays at x,
            # so every later test sees finite, bounded states
            keep = (np.abs(x_new) <= 1.0).all(axis=1)
            x_new[~keep] = x[~keep]
            cand = ((_PAULI_TABLE_REAL[0] + x_new @ _PAULI_TABLE_REAL[1:]) / 4.0
                    ).view(complex).reshape(-1, 4, 4)
            scaled = cand / np.trace(cand, axis1=1, axis2=2).real[:, None, None]
            p_new = _born_rows(projectors_real, scaled) + unobserved
            keep &= (np.linalg.eigvalsh(scaled)[:, 0] > 0.0) & (p_new.min(axis=1) > 0.0)
            r_op = _ratio_operators(projectors_real, w, np.where(keep[:, None], p_new, 1.0))
            keep &= np.isfinite(r_op).all(axis=(1, 2))
            r_op[~keep] = _EYE4
            gap_new = _gaps(r_op)
            keep &= gap_new < gap
            done = keep & (gap_new <= _TOL)
            out[rows[done]] = cand[done]
            go = keep & ~done
            rows, w, unobserved = rows[go], w[go], unobserved[go]
            x, p, gap = x_new[go], p_new[go], gap_new[go]
    return out


def _factor_newton(settings: TomographySettings, w: np.ndarray, rhos: np.ndarray,
                   max_steps):
    """Certify a (B, 36) stack of normalized weights by Newton steps on a factor of rho.

    Each row's state is written rho~ = V L L^dagger V^dagger, V being the
    eigenvectors of its unit-trace start ``rhos[i]`` in descending order and L
    lower-triangular with a real diagonal: the 16 real parameters of
    James, Kwiat, Munro & White, PRA 64, 052312 (2001).  Every L gives a
    state, so a step needs no projection, and rank loss shows as a
    vanishing column.  L starts as the square roots of the eigenvalues,
    floored at ``_FACTOR_FLOOR`` so that every column can grow, and
    scaled to unit trace.  The steps maximize F = sum_k w_k log a_k -
    Tr rho~, a_k = |psi_k^dagger V L|^2, whose maximizer has unit trace.
    Each takes the Newton direction of F from its analytic gradient and
    16 x 16 Hessian; a Hessian whose direction does not ascend takes
    |H|^-1 g from its eigensystem.  Each row backtracks on its own, by
    halving, until F rises and the log-likelihood per unit weight l of
    rho~ / Tr rho~ does not fall, both evaluated from the change of every
    a_k, so they do not cancel; at most ``_MAX_HALVINGS`` attempts make a
    step.  The accepted point is scaled back to unit trace, which leaves
    l as it is, so F and l rise together from every point.  After every
    step the row's certificate is ``_gaps`` of the Born product of its
    state, of unit trace up to roundoff.  A row leaves when that gap
    reaches ``_TOL``, after ``max_steps`` steps (an int, or one per row),
    or when no attempt is accepted; it is computed on, unchanged, until
    the last row leaves.  Every product is a 3-D ``np.matmul`` or a
    row-wise reduction, so each row's bits do not depend on the rows
    beside it.

    Returns each row's last state (its start if it took no step), that
    state's gap (inf for a start), the steps taken and a (B, max steps)
    array of each step's gain in l; the first gain counts from
    ``rhos[i]`` itself.
    """
    max_steps = np.broadcast_to(max_steps, len(w))
    rho_out, gap = np.array(rhos, dtype=complex), np.full(len(w), np.inf)
    steps, gains = np.zeros(len(w), dtype=int), np.zeros((len(w), int(max_steps.max(initial=0))))
    # the probabilities of unobserved settings are held at +inf, as in the ascent
    unobserved = np.where(w > 0.0, 0.0, np.inf)

    def born(rho):
        return np.matmul(rho.reshape(-1, 1, 16).view(np.float64), settings.projectors_real.T)[:, 0]

    def factor(theta):
        return np.matmul(theta[:, None, :], _FACTOR_MAP)[:, 0].reshape(-1, 4, 4)

    def probabilities(lower):
        b_conj = np.matmul(u_conj, lower)  # row k: (L^dagger V^dagger psi_k)^*
        return b_conj, (b_conj.real ** 2 + b_conj.imag ** 2).sum(axis=2) + unobserved

    def direction():
        ratio, u = w / a, u_conj.conj()
        # the gradient of every a_k, and M - I with M = V^dagger R~ V, R~ = sum_k (w_k /
        # a_k) Pi_k: Tr rho~ adds -2 theta and -2 I, which the identity in M - I gives
        jac = 2.0 * (_FACTOR_PHASE.conj() * u[:, :, _FACTOR_ROWS]
                     * b_conj[:, :, _FACTOR_COLS]).real
        m = np.matmul(u.transpose(0, 2, 1), ratio[:, :, None] * u_conj) - _EYE4
        grad = np.matmul(ratio[:, None, :], jac)[:, 0] - 2.0 * theta
        neg_hess = (np.matmul(jac.transpose(0, 2, 1), (ratio / a)[:, :, None] * jac)
                    - (_FACTOR_PAIRS * m[:, _FACTOR_ROWS[:, None], _FACTOR_ROWS]).real)
        step = _solve_rows(neg_hess, grad)
        flat = ~((step * grad).sum(axis=1) > 0.0)
        if flat.any():  # not positive definite, or singular: |H|^-1 g
            vals, vecs = np.linalg.eigh(neg_hess[flat])
            along = np.matmul(grad[flat][:, None, :], vecs)[:, 0] / np.abs(vals)
            step[flat] = np.matmul(vecs, along[:, :, None])[:, :, 0]
        return step

    vals, vecs = (x[..., ::-1] for x in np.linalg.eigh(rhos))  # in descending order
    u_conj = np.matmul(settings._kets.conj(), vecs)  # row k: (V^dagger psi_k)^*
    diagonal = np.maximum(np.sqrt(np.maximum(vals, 0.0)), _FACTOR_FLOOR)
    theta = ((diagonal[:, :, None] * _EYE4).reshape(-1, 16) @ _FACTOR_MAP.conj().T).real
    theta /= np.sqrt((theta ** 2).sum(axis=1))[:, None]  # Tr rho~ = |theta|^2 = 1
    live, scale, tries = np.ones(len(w), dtype=bool), np.ones(len(w)), np.zeros(len(w), dtype=int)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        b_conj, a = probabilities(factor(theta))
        # l of the floored factor less l of the unit-trace start, counted in the first gain
        offset = np.where(w > 0.0, w * np.log(a / born(rho_out)), 0.0).sum(axis=1)
        step = direction()
        while True:
            live &= ((gap > _TOL) & (steps < max_steps) & (tries < _MAX_HALVINGS)
                     & np.isfinite(step).all(axis=1))
            if not live.any():
                break
            delta = scale[:, None] * step
            db_conj = np.matmul(u_conj, factor(delta))
            change = (w * np.log1p(
                (db_conj.conj() * (2.0 * b_conj + db_conj)).real.sum(axis=2) / a)).sum(axis=1)
            d_trace = ((2.0 * theta + delta) * delta).sum(axis=1)
            gain = change - np.log1p(d_trace) + offset
            ok = live & (change - d_trace > 0.0) & (gain >= 0.0)
            scale, tries = np.where(ok, 1.0, 0.5 * scale), np.where(ok, 0, tries + 1)
            if ok.any():  # the accepted points, scaled to unit trace, which leaves l as it is
                steps += ok
                gains[ok, steps[ok] - 1] = gain[ok]
                offset[ok] = 0.0
                theta = theta + ok[:, None] * delta
                theta[ok] /= np.sqrt((theta[ok] ** 2).sum(axis=1))[:, None]
                lower = factor(theta)
                b_conj, a = probabilities(lower)
                half = np.matmul(vecs[ok], lower[ok])
                rho_out[ok] = np.matmul(half, half.conj().transpose(0, 2, 1))
                ratio = w[ok] / (born(rho_out[ok]) + unobserved[ok])
                gap[ok] = _gaps(np.matmul(ratio[:, None, :], settings.projectors_real)[:, 0]
                                .view(complex).reshape(-1, 4, 4))
                if (live & (gap > _TOL) & (steps < max_steps)).any():
                    step = direction()
    return rho_out, gap, steps, gains


def _accelerated_ascent_batch(settings, c, rho, max_iterations):
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
    takes one Born product, of the step.  Only a candidate that passes
    the guard and the acceptance test gets its own Born product, which
    its positivity test and, once it is accepted, its gradient use; the
    move from the iterate and the extrapolated point of an accepted row
    get theirs as the scalar path takes them.  Zero weights drop out of
    every sum.  At the top of every pass the rows whose gap first fell to
    ``_HANDOFF`` go to ``_factor_newton`` as one stack, each for at most
    ``_FACTOR_STEPS`` of its iterations left, and each keeps the scalar
    path's rule: certified or out of iterations, it ends at its Newton
    state, and otherwise it goes on from its hand-off state.  A row then
    leaves the live set at the first of the scalar stops: a certified gap
    of at most ``_TOL``, the floor stop or the iteration cap; the loop
    ends when no row is left, at once for an empty stack.  Returns the
    symmetrized unit-trace states, shape (B, 4, 4), with their gaps,
    iterations (Newton steps included) and stop reasons.
    """
    count = c.shape[0]
    rho_out = np.empty((count, 4, 4), dtype=complex)
    gap_out = np.empty(count)
    iterations_out = np.empty(count, dtype=int)
    stop_out = np.empty(count, dtype="<U5")
    born = functools.partial(_born_rows, settings.projectors_real)
    gradient = functools.partial(_ratio_operators, settings.projectors_real)

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
    gap = _gaps(r_rho)
    # sigma = rho + ahead, the point the next attempt steps from; ahead is
    # zero on rows without momentum
    sigma, p_sigma, r_sigma = rho.copy(), p.copy(), r_rho.copy()
    ahead = np.zeros_like(rho)
    ahead_on = np.zeros(count, dtype=bool)
    theta = np.ones(count)
    step = np.full(count, _STEP_START)
    failed = np.zeros(count, dtype=int)
    halvings = np.zeros(count, dtype=int)  # failed attempts of the current iteration
    iterations = np.zeros(count, dtype=int)  # completed iterations and Newton steps
    handed = np.zeros(count, dtype=bool)
    # a step off the likelihood's domain yields nan, which every test below refuses
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            hand = np.flatnonzero(~handed & (gap <= _HANDOFF) & (gap > _TOL)
                                  & (iterations < max_iterations))
            if hand.size:
                handed[hand] = True
                rhos, gaps, steps, _ = _factor_newton(settings, w[hand], rho[hand], np.minimum(
                    _FACTOR_STEPS, max_iterations - iterations[hand]))
                iterations[hand] += steps
                # a row certified or out of iterations ends at its Newton state; every
                # other row goes on from its hand-off state
                end = (gaps <= _TOL) | (iterations[hand] == max_iterations)
                rho[hand[end]], gap[hand[end]] = rhos[end], gaps[end]
            done = ~(gap > _TOL) | (failed == 2) | (iterations >= max_iterations)
            if done.any():
                out = rows[done]
                rho_out[out] = rho[done]
                gap_out[out] = gap[done]
                iterations_out[out] = iterations[done]
                stop_out[out] = np.where(gap[done] <= _TOL, "gap",
                                         np.where(failed[done] == 2, "floor", "cap"))
                live = ~done
                (rows, w, unobserved, rho, p, r_rho, gap, sigma, p_sigma, r_sigma, ahead,
                 ahead_on, theta, step, failed, halvings, iterations, handed) = (
                    a[live] for a in (rows, w, unobserved, rho, p, r_rho, gap, sigma, p_sigma,
                                      r_sigma, ahead, ahead_on, theta, step, failed, halvings,
                                      iterations, handed))
            if not rows.size:
                break
            to_cand = _projected_steps(sigma, step[:, None, None] * r_sigma)
            x = born(to_cand) / p_sigma
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
            if not complete.any():
                continue
            # the rows that completed an iteration: the scalar path's bookkeeping, row by row
            halvings[complete] = 0
            iterations += complete
            move = ahead + to_cand
            gain = (row_dot(w, np.log1p(born(move) / p))
                    - np.log1p(np.einsum("bii->b", move).real))
            good = ok & (gain > 0.0)
            bad = np.flatnonzero(complete & ~good)
            if bad.size:  # an iteration that raised nothing restarts from the iterate
                restart = bad[~ahead_on[bad]]  # a step from the iterate itself failed
                failed[restart] += 1
                step[restart] *= 0.5
                theta[bad], ahead_on[bad], ahead[bad] = 1.0, False, 0.0
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
                sigma_a = rho_a + ahead_a
                p_sigma_a = born(sigma_a) + unobserved[acc]
                off = on & ~(p_sigma_a.min(axis=1) > 0.0)
                if off.any():  # extrapolated off the domain
                    on &= ~off
                    theta[acc[off]] = 1.0
                    ahead_a[off], sigma_a[off], p_sigma_a[off] = 0.0, rho_a[off], p_a[off]
                ahead_on[acc] = on
                r_a = gradient(w_a, p_a)
                rho[acc], p[acc], r_rho[acc] = rho_a, p_a, r_a
                gap[acc] = _gaps(r_a)
                ahead[acc], sigma[acc], p_sigma[acc] = ahead_a, sigma_a, p_sigma_a
                r_sigma[acc] = np.where(on[:, None, None], gradient(w_a, p_sigma_a), r_a)
    rho_out = (rho_out + rho_out.conj().swapaxes(1, 2)) / 2.0
    rho_out /= np.einsum("bii->b", rho_out).real[:, None, None]
    return rho_out, gap_out, iterations_out, stop_out


def mle_reconstruct(frequencies, settings: TomographySettings, *,
                    max_iterations: int = _MAX_ITERATIONS, rho_start=None,
                    on_iteration=None) -> ReconstructionResult:
    """Maximum-likelihood state from 36 coincidence frequencies or counts.

    The fit stops once the certified gap lambda_max(R) - 1 is at most
    1e-10; it bounds the log-likelihood per unit weight still to be
    gained.  The projected ascent hands the fit to Newton steps on a
    Cholesky factor of the state once the gap is at most 1e-2, and they
    certify nearly every fit in a few to a few tens of steps.  They take
    at most 40; a fit they leave uncertified goes back to the ascent from
    its hand-off state, with the iterations it has left.  Ascents that
    reach the floating-point floor first (two restarts in a row that
    cannot raise the likelihood) stop with ``stop="floor"`` and count as
    converged only at a gap of at most 1e-8.

    Parameters
    ----------
    frequencies : array_like, shape (36,)
        Nonnegative counts or relative frequencies in settings order;
        any overall scale is irrelevant.  A frequency at most 1e-13 of
        the largest counts as 0, as roundoff of an exact 0; integer
        counts lose none unless they sum to more than 1e13.  The
        parameters after ``settings`` are keyword-only.
    max_iterations : int
        Cap on the ascent's iterations and the Newton steps together;
        hitting it returns the best iterate with ``stop="cap"`` and
        ``converged=False``.
    rho_start : array_like, optional
        Starting state.  It must give every setting with a nonzero
        frequency a positive probability, and it replaces the whole
        start rule, Newton steps included.  The default is ``mle_curve``'s
        start: the projected linear-inversion estimate of the
        frequencies if it is certified already, and otherwise that
        estimate mixed with 0.1 % of I/4, then full Newton steps, which
        certify a fit whose optimum is interior.  Such a fit, like one of
        exact frequencies of a state, certifies at 0 iterations.
    on_iteration : callable, optional
        Called as ``on_iteration(iteration, log_likelihood)`` after every
        accepted update of the ascent and after each Newton step of a
        finish that ends the fit (likelihoods are per unit weight,
        nondecreasing).

    Returns
    -------
    ReconstructionResult
        ``log_likelihood`` is reported on the scale of the input
        frequencies; ``gap`` is lambda_max(R) - 1 at the returned state,
        ``iterations`` counts ascent iterations and Newton steps, and
        ``stop`` is the reason the fit ended.
    """
    c = _kept_weights(_check_frequencies(frequencies))
    total = c.sum()
    c = c / total  # likelihood maximizer is scale invariant; normalize once

    if rho_start is None:
        rho = _start_states(settings, c[None])[0]
    else:
        rho = validate_density_matrix(rho_start, name="rho_start").astype(complex)
    rho, ll, gap, iterations, stop = _accelerated_ascent(
        settings, c, rho, max_iterations, on_iteration)
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


def monte_carlo_uncertainty(ds: TomographyDataset, samples: int, seed: int) -> UncertaintyReport:
    """Poisson-resampling uncertainty of S, Q, r_DW and R_key.

    Every count is resampled as Poisson with the observed count as its
    mean (zero counts stay zero), the reconstruction and rate extraction
    are rerun, and sample means and standard deviations (ddof=1) are
    reported.  The output is fully determined by (dataset, samples,
    seed); per-sample generators are spawned from the master seed, so a
    parallel execution would reproduce the same report.

    All resamples are drawn first as one (samples, 36) array, and each
    row is reconstructed by its own ``mle_reconstruct`` call.  The fitted
    states are then evaluated as one stack, and the coincidence rates and
    key rates of all rows follow in one array step.  Reconstructions
    start from the base dataset's estimate softened with a small
    admixture of the maximally mixed state; any full-rank start reaches
    the same maximizer, and this one is within the hand-off gap of every
    sample (about 2e-3 on the criterion-12 dataset), so a sample fit is
    Newton steps on the factor of its state from the start.  Every fit
    runs with ``mle_reconstruct``'s default options; unconverged sample
    fits are counted in the report and kept in its statistics.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 Monte-Carlo samples, got {samples}")
    base = ds.counts.astype(float)
    resamples = np.array([np.random.default_rng(stream).poisson(base)
                          for stream in np.random.SeedSequence(seed).spawn(samples)])
    base_fit = mle_reconstruct(base, ds.settings)
    warm_start = 0.99 * base_fit.rho + 0.01 * np.eye(4, dtype=complex) / 4.0
    fits = [mle_reconstruct(counts, ds.settings, rho_start=warm_start) for counts in resamples]
    unconverged = sum(not fit.converged for fit in fits)
    s, q, r_dw = metrics._evaluate_stack(np.array([fit.rho for fit in fits]))
    r_c = _quadruple_sums(resamples, ds.settings).mean(axis=-1) / ds.n_windows
    values = np.column_stack([s, q, r_dw, r_dw * r_c])
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

    ``n_bar_grid`` must be one-dimensional, and every grid value
    positive and finite: a zero gain gives no coincidences to
    reconstruct from.  The frequencies of all grid points come from one
    array evaluation of the source model, and all points are fitted as
    one stack, each from its own start to the default certified gap, so
    each point is independent of the rest of the grid.  The start rule
    is ``mle_reconstruct``'s: synthesized frequencies that a state
    reproduces start at their maximizer and certify at once; the others
    start from the estimate mixed with a little of I/4, from which
    batched full Newton steps certify the points whose optimum is
    interior, and the ascent stops those at 0 iterations; every other
    point goes to the ascent, which hands it to Newton steps on the
    factor of the state once its gap is at most the hand-off gap (a
    point whose mixed start is already there, as on a pure state's
    curve, is certified by those steps alone).  Frequencies at most
    1e-13 of their point's largest count as 0.  A point whose fit does not
    converge raises ``ConvergenceError``, so no uncertified point is
    returned.  The fitted states are evaluated as one stack, without
    validating each again.
    """
    grid = np.asarray(n_bar_grid, dtype=float)
    if grid.ndim != 1:
        raise ValueError(f"n_bar_grid must be one-dimensional, got shape {grid.shape}")
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
    frequencies = _kept_weights(coincidence_probability(probs, grid[:, None]))
    totals = frequencies.sum(axis=1, keepdims=True)
    if not np.all(totals > 0.0):
        raise ValueError("frequencies must not be all zero")
    weights = frequencies / totals
    rhos, gaps, _, stops = _accelerated_ascent_batch(
        settings, weights, _start_states(settings, weights), _MAX_ITERATIONS)
    failed = [(n_bar, gap, stop)
              for n_bar, gap, stop in zip(grid.tolist(), gaps.tolist(), stops.tolist())
              if not _certified(stop, gap)]
    if failed:
        raise ConvergenceError(*failed[0], unconverged=len(failed))
    s, q, r_dw = metrics._evaluate_stack(rhos)
    r_c = np.array([coincidence_rate_exact(n_bar, eta_a, eta_b) for n_bar in grid.tolist()])
    columns = (grid, 1.0 - s / metrics.TSIRELSON, s, q, r_dw, r_c, r_dw * r_c)
    return [ModelPoint(*row) for row in np.column_stack(columns).tolist()]
