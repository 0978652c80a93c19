import itertools
import math
import signal
import statistics

import numpy as np
import pytest

import helpers
from entqkd import (SourceParams, TomographyDataset, TomographySettings,
                    bell_state, chsh_max, coincidence_rate_exact,
                    coincidence_rate_from_counts, fidelity, fit_kappa,
                    evaluate_state, kappa_exact, metrics, mle_curve, mle_reconstruct,
                    monte_carlo_uncertainty, synthesize_frequencies, tomography,
                    werner_mix)
from entqkd.metrics import TSIRELSON
from entqkd.states import POLARIZATION_KETS, validate_density_matrix

SETTINGS = TomographySettings.canonical()
PHI_PLUS = bell_state("phi+")
MIXED = np.eye(4, dtype=complex) / 4.0
#: the certificate a default fit stops at, read through ``helpers.likelihood_gap``
CERTIFIED = 1e-10 + helpers.GAP_ROUNDOFF


def make_dataset(counts, tau_s=1e-9, duration_s=1.0):
    return TomographyDataset(settings=SETTINGS, counts=np.asarray(counts, dtype=np.int64),
                             tau_s=tau_s, duration_s=duration_s)


def dephased_phi_plus(conc):
    """|phi+> with its two coherences scaled by ``conc``."""
    rho = PHI_PLUS.copy()
    rho[0, 3] *= conc
    rho[3, 0] *= conc
    return rho


def batch_fit(weights, starts=None, max_iterations=10000):
    """``_accelerated_ascent_batch`` of normalized weights to 1e-10, by default from
    ``_start_states``, the start ``mle_curve`` and ``mle_reconstruct`` use."""
    if starts is None:
        starts = tomography._start_states(SETTINGS, weights)
    return tomography._accelerated_ascent_batch(SETTINGS, weights, starts, max_iterations)


def criterion12_counts():
    """The criterion-12 dataset: Werner state of S = 2.815 at n_bar = 0.01, eta = 0.16,
    5e7 windows of 1 ns, Poisson counts drawn with seed 1212."""
    rho0 = werner_mix(PHI_PLUS, 1.0 - 2.815 / TSIRELSON)
    return np.random.default_rng(1212).poisson(
        synthesize_frequencies(rho0, SourceParams(0.01, 0.16, 0.16), SETTINGS) * 5.0e7)


def criterion12_resamples(indices, seed=99):
    """The criterion-12 resamples ``monte_carlo_uncertainty`` draws at these indices for
    ``seed``, and the warm start its sample fits take."""
    counts = criterion12_counts().astype(float)
    streams = np.random.SeedSequence(seed).spawn(max(indices) + 1)
    resamples = np.array([np.random.default_rng(streams[i]).poisson(counts) for i in indices],
                         dtype=float)
    return resamples, 0.99 * mle_reconstruct(counts, SETTINGS).rho + 0.01 * MIXED


def sampled_dataset(rho0, params, n_windows, rng, tau_s=1e-9):
    freqs = synthesize_frequencies(rho0, params, SETTINGS)
    counts = rng.poisson(freqs * n_windows)
    return make_dataset(counts, tau_s=tau_s, duration_s=tau_s * n_windows)


class TestSettings:
    def test_covers_all_pairs_once(self):
        assert len(set(SETTINGS.pairs)) == 36

    def test_quadruples_resolve_identity(self):
        # the four complementary projectors of each of the 9 bases sum to I
        for group in range(9):
            members = SETTINGS.projectors[SETTINGS.group_index == group]
            assert members.shape[0] == 4
            assert np.allclose(members.sum(axis=0), np.eye(4), atol=1e-12)

    def test_rejects_incomplete_lists(self):
        pairs = list(SETTINGS.pairs)
        pairs[0] = ("H", "V")  # duplicates an existing pair
        with pytest.raises(ValueError):
            TomographySettings(tuple(pairs))

    def test_custom_order_accepted(self):
        reordered = TomographySettings(tuple(reversed(SETTINGS.pairs)))
        assert set(reordered.pairs) == set(SETTINGS.pairs)

    def test_pauli_design_maps_coordinates_to_probabilities(self, rng):
        # p = 1/4 + D x, x the 15 traceless Pauli coordinates Tr[rho sigma_mu (x) sigma_nu]
        # taken from explicit Kronecker products, in either settings order
        paulis = [np.eye(2), *helpers.PAULIS]
        rho = helpers.random_density_matrix(rng)
        x = np.array([np.trace(rho @ np.kron(a, b)).real for a in paulis for b in paulis])[1:]
        for settings in (SETTINGS, TomographySettings(tuple(reversed(SETTINGS.pairs)))):
            assert not settings._pauli_design.flags.writeable
            assert np.max(np.abs(0.25 + settings._pauli_design @ x
                                 - settings.born_probabilities(rho))) <= 1e-15


class TestSynthesizeFrequencies:
    def test_bell_symmetry(self):
        freqs = synthesize_frequencies(PHI_PLUS, SourceParams(0.05, 0.7, 0.4), SETTINGS)
        idx = {pair: k for k, pair in enumerate(SETTINGS.pairs)}
        assert freqs[idx[("H", "H")]] == pytest.approx(freqs[idx[("V", "V")]], abs=1e-15)
        assert freqs[idx[("D", "D")]] == pytest.approx(freqs[idx[("A", "A")]], abs=1e-15)

    def test_isotropic_input(self):
        freqs = synthesize_frequencies(np.eye(4, dtype=complex) / 4,
                                       SourceParams(0.2, 0.5, 0.5), SETTINGS)
        assert np.allclose(freqs, freqs[0], atol=1e-15)

    def test_low_gain_born_rule(self):
        n_bar, ea, eb = 1e-6, 0.8, 0.6
        freqs = synthesize_frequencies(PHI_PLUS, SourceParams(n_bar, ea, eb), SETTINGS)
        born = SETTINGS.born_probabilities(PHI_PLUS)
        assert np.allclose(freqs, n_bar * ea * eb * born, rtol=1e-4, atol=5 * n_bar ** 2)


class TestMleReconstruct:
    def test_round_trip_random_states(self, rng):
        # every rank, 1 to 4, reconstructs and certifies
        for rank in (1, 2, 3, 4, 1, 2, 3, 4, 1, 4):
            rho = helpers.random_density_matrix(rng, rank=rank)
            freqs = SETTINGS.born_probabilities(rho)
            rec = mle_reconstruct(freqs, SETTINGS)
            assert rec.converged
            assert helpers.likelihood_gap(freqs, rec.rho) <= 1e-6
            assert fidelity(rec.rho, rho) > 0.999

    def test_isotropic_data(self):
        rec = mle_reconstruct(np.full(36, 0.25), SETTINGS)
        assert np.max(np.abs(rec.rho - np.eye(4) / 4)) < 1e-6

    def test_synthesized_bell_low_gain(self):
        freqs = synthesize_frequencies(PHI_PLUS, SourceParams(1e-4, 1.0, 1.0), SETTINGS)
        rec = mle_reconstruct(freqs, SETTINGS)
        assert fidelity(rec.rho, PHI_PLUS) >= 0.9999

    def test_werner_noise_weight_recovered(self):
        freqs = SETTINGS.born_probabilities(werner_mix(PHI_PLUS, 0.1))
        rec = mle_reconstruct(freqs, SETTINGS)
        recovered = 1.0 - chsh_max(rec.rho) / TSIRELSON
        assert recovered == pytest.approx(0.1, abs=1e-4)

    def test_multi_pair_estimate_is_white_noise_mixture(self):
        # unconstrained reconstruction of model data lands on the mixture
        # family with the closed-form weight, confirming the white-noise form
        params = SourceParams(0.0737, 1.0, 1.0)
        freqs = synthesize_frequencies(PHI_PLUS, params, SETTINGS)
        rec = mle_reconstruct(freqs, SETTINGS)
        target = werner_mix(PHI_PLUS, kappa_exact(0.0737, 1.0, 1.0))
        assert np.max(np.abs(rec.rho - target)) < 1e-5

    def test_scale_invariance(self):
        freqs = synthesize_frequencies(PHI_PLUS, SourceParams(0.01, 0.9, 0.7), SETTINGS)
        a = mle_reconstruct(freqs, SETTINGS)
        b = mle_reconstruct(freqs * 137.0, SETTINGS)
        assert np.max(np.abs(a.rho - b.rho)) < 1e-10

    def test_monotone_likelihood(self, rng):
        # from I/4: the default start of these full-rank counts certifies by Newton
        # steps, and the ascent has no step left to trace
        counts = rng.poisson(2000 * SETTINGS.born_probabilities(werner_mix(PHI_PLUS, 0.05)))
        trace = []
        mle_reconstruct(counts.astype(float), SETTINGS, rho_start=MIXED,
                        on_iteration=lambda i, ll: trace.append(ll))
        assert len(trace) > 1
        assert np.all(np.diff(trace) >= 0.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mle_reconstruct(np.zeros(36), SETTINGS)
        with pytest.raises(ValueError):
            mle_reconstruct(np.full(36, -1.0), SETTINGS)
        with pytest.raises(ValueError):
            mle_reconstruct(np.ones(35), SETTINGS)

    def test_iteration_cap_flags_non_convergence(self, rng):
        # from I/4: exact Born probabilities certify at their own start
        rho = helpers.random_density_matrix(rng)
        rec = mle_reconstruct(SETTINGS.born_probabilities(rho), SETTINGS, max_iterations=2,
                              rho_start=MIXED)
        assert not rec.converged
        assert rec.iterations == 2
        assert rec.stop == "cap"

    def test_warm_start_reaches_same_optimum(self, rng):
        counts = rng.poisson(5000 * SETTINGS.born_probabilities(werner_mix(PHI_PLUS, 0.1)))
        cold = mle_reconstruct(counts.astype(float), SETTINGS)
        warm = mle_reconstruct(counts.astype(float), SETTINGS,
                               rho_start=0.9 * cold.rho + 0.1 * np.eye(4) / 4)
        assert np.max(np.abs(cold.rho - warm.rho)) < 1e-5
        assert warm.log_likelihood == pytest.approx(cold.log_likelihood, rel=1e-12)


class TestStopReasons:
    """``converged`` means certified: a gap stop, or a floor stop at a gap of at most 1e-8."""

    WERNER = SETTINGS.born_probabilities(werner_mix(PHI_PLUS, 0.1))

    def test_gap_stop(self):
        rec = mle_reconstruct(self.WERNER, SETTINGS)
        assert rec.stop == "gap" and rec.converged and rec.gap <= 1e-10

    @pytest.mark.parametrize("stop,gap,converged", [
        ("gap", 1e-10, True), ("floor", 1e-8, True), ("floor", 1.0000001e-8, False),
        ("floor", math.nan, False), ("cap", 0.0, False)])
    def test_certified(self, stop, gap, converged):
        assert tomography._certified(stop, gap) is converged

    def test_floor_stop_far_from_the_optimum_is_unconverged(self, monkeypatch):
        # no backtracking attempt is allowed, so two restarts in a row fail at once
        # from I/4, as far from this optimum as the gap of 0.30 below
        monkeypatch.setattr(tomography, "_MAX_HALVINGS", 0)
        rec = mle_reconstruct(self.WERNER, SETTINGS, rho_start=MIXED)
        assert (rec.iterations, rec.stop, rec.converged) == (2, "floor", False)
        assert rec.gap == pytest.approx(0.30, abs=0.01)
        weights = np.array([self.WERNER, self.WERNER]) / self.WERNER.sum()
        _, gaps, iterations, stops = batch_fit(weights, np.array([MIXED, MIXED]))
        assert stops.tolist() == ["floor", "floor"] and iterations.tolist() == [2, 2]
        assert np.all(gaps > 0.29)


class TestCertificate:
    """The reported gap is lambda_max(R) - 1, checked by an independent evaluation."""

    def test_gap_matches_independent_evaluation(self, rng):
        for _ in range(5):
            rho = helpers.random_density_matrix(rng, rank=int(rng.integers(1, 5)))
            counts = rng.poisson(4000 * SETTINGS.born_probabilities(rho)).astype(float)
            rec = mle_reconstruct(counts, SETTINGS)
            assert rec.gap == pytest.approx(helpers.likelihood_gap(counts, rec.rho),
                                            abs=1e-12)

    def test_monte_carlo_fits_certify(self, monkeypatch):
        # the criterion-12 dataset: both fits of the data and every sample
        import entqkd.tomography as tomo
        n_windows = 5.0e7
        ds = make_dataset(criterion12_counts(), tau_s=1e-9, duration_s=1e-9 * n_windows)
        fits = []
        real = tomo.mle_reconstruct

        def recorded(frequencies, settings, **kwargs):
            result = real(frequencies, settings, **kwargs)
            fits.append((np.array(frequencies, dtype=float), result))
            return result

        monkeypatch.setattr(tomo, "mle_reconstruct", recorded)
        report = monte_carlo_uncertainty(ds, samples=40, seed=5)
        assert report.unconverged == 0
        assert len(fits) == 41
        for freqs, result in fits:
            assert result.converged
            assert result.iterations <= 500
            assert helpers.likelihood_gap(freqs, result.rho) <= 1e-6
        # the warm start puts every sample below the hand-off gap, and Newton steps on
        # the factor certify the median sample in about 12 steps; the ascent alone
        # took about 139 iterations
        assert statistics.median(result.iterations for _, result in fits[1:]) <= 30

    def test_zero_probability_start_rejected(self):
        counts = SETTINGS.born_probabilities(werner_mix(PHI_PLUS, 0.1))
        with pytest.raises(ValueError):
            mle_reconstruct(counts, SETTINGS, rho_start=PHI_PLUS)


class TestMleCurve:
    """The batched pipeline curve against scalar cold fits of each grid point."""

    @pytest.mark.parametrize("case", ["compare_default", "rank_deficient", "mixed"])
    def test_matches_cold_fits(self, case, rng, monkeypatch):
        # the mixed curve's optima are interior: Newton steps certify every point
        # before the ascent, which then takes no iteration, in the curve and in
        # the single fits alike
        import entqkd.tomography as tomo
        if case == "compare_default":
            rho0 = werner_mix(PHI_PLUS, 1.0 - 2.815 / TSIRELSON)
            eta_a = eta_b = 0.16
            grid = np.geomspace(1e-4, 0.2, 80)
        elif case == "rank_deficient":
            rho0 = dephased_phi_plus(0.9)
            eta_a, eta_b = 0.8, 0.3
            grid = np.geomspace(1e-3, 0.15, 40)
        else:
            rho0 = mixed_entangled_state(rng)
            eta_a, eta_b = 0.8, 0.3
            grid = np.geomspace(1e-3, 0.15, 40)
        frequencies = [synthesize_frequencies(rho0, SourceParams(n, eta_a, eta_b), SETTINGS)
                       for n in grid]
        cold = [mle_reconstruct(freqs, SETTINGS) for freqs in frequencies]
        cold_sq = np.array([evaluate_state(fit.rho)[:2] for fit in cold])

        stacks = []
        real = tomo._accelerated_ascent_batch

        def recorded(*args):
            result = real(*args)
            stacks.append(result)
            return result

        monkeypatch.setattr(tomo, "_accelerated_ascent_batch", recorded)
        points = mle_curve(rho0, eta_a, eta_b, grid)
        assert [pt.n_bar for pt in points] == grid.tolist()
        batch_sq = np.array([(pt.s, pt.q) for pt in points])
        assert np.max(np.abs(batch_sq - cold_sq)) <= 1e-8
        assert len(stacks) == 1
        rhos, _, iterations, stops = stacks[0]
        assert set(stops) == {"gap"}
        for freqs, rho in zip(frequencies, rhos):
            assert helpers.likelihood_gap(freqs, rho) <= CERTIFIED
        if case == "compare_default":
            # full-rank rows take the scalar path's decisions, so roundoff
            # can flip at most a few of them
            same = iterations == np.array([fit.iterations for fit in cold])
            assert np.mean(same) >= 0.9
        if case == "mixed":
            assert not iterations.any()
            assert all(fit.iterations == 0 and fit.stop == "gap" for fit in cold)
            for freqs, fit in zip(frequencies, cold):
                assert helpers.likelihood_gap(freqs, fit.rho) <= CERTIFIED

    def test_points_are_the_evaluations_of_their_fitted_states(self, rng, monkeypatch):
        # one evaluation of the whole fitted stack, with no per-point evaluation;
        # every row of the stack is a valid state, which the solver guarantees
        # and the evaluator no longer checks
        stacks = one_stack_evaluations(monkeypatch)
        local = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rho0 = 0.98 * local @ dephased_phi_plus(0.97) @ local.conj().T + 0.02 * MIXED
        eta_a, eta_b = 0.9, 0.8
        grid = np.geomspace(1e-3, 0.6, 24)
        points = mle_curve(rho0, eta_a, eta_b, grid)
        monkeypatch.undo()
        assert len(stacks) == 1 and stacks[0].shape == (24, 4, 4)
        for pt, rho in zip(points, stacks[0]):
            assert (pt.s, pt.q, pt.r_dw) == evaluate_state(rho)
            assert pt.kappa == 1.0 - pt.s / TSIRELSON
            assert pt.r_c == coincidence_rate_exact(pt.n_bar, eta_a, eta_b)
            assert pt.r_key == pt.r_dw * pt.r_c
            assert pt.r_dw == 0.0 or pt.s > 2.0
        # the grid reaches both secure points and points without any violation
        assert min(pt.s for pt in points) <= 2.0 < max(pt.s for pt in points)
        assert max(pt.r_dw for pt in points) > 0.0

    @pytest.mark.parametrize("grid,shape", [(0.1, r"\(\)"), ([[0.01, 0.1]], r"\(1, 2\)")],
                             ids=["scalar", "2d"])
    def test_rejects_grid_that_is_not_one_dimensional(self, grid, shape):
        with pytest.raises(ValueError,
                           match=rf"^n_bar_grid must be one-dimensional, got shape {shape}$"):
            mle_curve(PHI_PLUS, 0.5, 0.5, grid)

    def test_repeatable(self):
        rho0 = werner_mix(PHI_PLUS, 0.05)
        grid = np.geomspace(1e-3, 0.1, 12)
        assert mle_curve(rho0, 0.7, 0.4, grid) == mle_curve(rho0, 0.7, 0.4, grid)

    @pytest.mark.parametrize("grid,message", [
        ([0.0, 0.05], r"n_bar = 0\.0: a zero gain gives no coincidences"),
        ([0.05, 0.0], r"n_bar = 0\.0: a zero gain gives no coincidences"),
        ([0.02, -0.01], r"n_bar = -0\.01: a zero gain gives no coincidences"),
        ([0.1, math.nan], r"^n_bar must be positive and finite, got nan$"),
        ([0.1, math.inf], r"^n_bar must be positive and finite, got inf$"),
    ], ids=["grid0", "grid1", "grid2", "nan", "inf"])
    def test_rejects_nonpositive_gain(self, grid, message, monkeypatch):
        import entqkd.tomography as tomo

        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran before the grid was checked")

        monkeypatch.setattr(tomo, "mle_reconstruct", no_fit)
        monkeypatch.setattr(tomo, "_accelerated_ascent_batch", no_fit)
        with pytest.raises(ValueError, match=message):
            mle_curve(PHI_PLUS, 0.5, 0.5, grid)

    def test_unconverged_point_raises(self, rng, monkeypatch):
        # no state reproduces these model frequencies, so every fit starts away
        # from its optimum; their optima are interior, which Newton steps would
        # certify, so without them and without backtracking it stops on the floor
        monkeypatch.setattr(tomography, "_NEWTON_STEPS", 0)
        monkeypatch.setattr(tomography, "_MAX_HALVINGS", 0)
        with pytest.raises(tomography.ConvergenceError,
                           match=r"^the fit at n_bar = 0\.001 did not converge: stop 'floor' at "
                                 r"gap \d\.\d{3}e-\d\d, 4 unconverged point\(s\)") as info:
            mle_curve(mixed_entangled_state(rng), 0.8, 0.3, [1e-3, 1e-2, 0.05, 0.1])
        assert isinstance(info.value, RuntimeError)
        assert info.value.n_bar == 1e-3 and info.value.stop == "floor"
        assert info.value.gap > 1e-8

    def test_rejects_underflowing_frequencies(self):
        # every coincidence probability of the smallest positive gain underflows to 0
        with pytest.raises(ValueError, match="frequencies must not be all zero"):
            mle_curve(PHI_PLUS, 0.5, 0.5, [0.1, 5e-324])


def one_stack_evaluations(monkeypatch) -> list:
    """Record every stack ``metrics._evaluate_stack`` gets, after checking each row is a
    valid state, and fail any evaluation of a single state."""
    stacks = []
    real = metrics._evaluate_stack

    def recorded(rhos):
        for rho in rhos:
            validate_density_matrix(rho)
        stacks.append(rhos.copy())
        return real(rhos)

    def per_state(*args, **kwargs):
        raise AssertionError("a single state was evaluated")

    monkeypatch.setattr(metrics, "_evaluate_stack", recorded)
    monkeypatch.setattr(metrics, "evaluate_state", per_state)
    monkeypatch.setattr(metrics.QkdMetrics, "from_state", per_state)
    return stacks


def random_unitary(rng, dim=4):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def mixed_entangled_state(rng):
    """Full-rank mixture of a locally rotated, partially entangled pure state,

    a locally biased state and white noise, as in the gain benchmark.
    """
    ua, ub = helpers.random_single_qubit_unitary(rng), helpers.random_single_qubit_unitary(rng)
    theta = rng.uniform(0.3, 0.65)
    ket = np.kron(ua, ub) @ np.array([math.cos(theta), 0, 0, math.sin(theta)], dtype=complex)
    biased = np.kron(ua @ np.diag([1.0, 0.0]) @ ua.conj().T, np.eye(2) / 2)
    return 0.8 * np.outer(ket, ket.conj()) + 0.1 * biased + 0.1 * np.eye(4) / 4


class TestProjectedSteps:
    """``_projected_steps`` against ``_projected_step`` row by row and a sort-based oracle."""

    @staticmethod
    def cut_stack(rng, cuts):
        """(sigma, move) stacks whose sums have ``cut`` eigenvalues the projection zeroes."""
        sigmas, moves = [], []
        for rank, cut in zip((4, 3, 2, 1, 2, 4, 1, 3), cuts):
            kept = rng.uniform(0.2, 1.0, 4 - cut)
            shift = rng.normal()
            values = np.concatenate([shift - rng.uniform(0.05, 1.0, cut),
                                     shift + kept / kept.sum()])
            u = random_unitary(rng)
            sigma = helpers.random_density_matrix(rng, rank=rank)
            sigmas.append(sigma)
            moves.append((u * values) @ u.conj().T - sigma)
        return np.array(sigmas), np.array(moves)

    @pytest.mark.parametrize("cuts", [[0, 1, 2, 3, 3, 2, 1, 0], [0] * 8],
                             ids=["mixed_cuts", "no_cut"])
    def test_matches_scalar_and_oracle(self, rng, cuts):
        sigmas, moves = self.cut_stack(rng, cuts)
        steps = tomography._projected_steps(sigmas, moves)
        for sigma, move, step, cut in zip(sigmas, moves, steps, cuts):
            assert np.max(np.abs(step - tomography._projected_step(sigma, move))) <= 1e-14
            oracle = helpers.project_onto_density_matrices(sigma + move) - sigma
            assert np.max(np.abs(step - oracle)) <= 1e-12
            vals = np.linalg.eigvalsh(sigma + step)
            assert np.all(np.abs(vals[:cut]) <= 1e-12) and np.all(vals[cut:] > 0.01)

    def test_tiny_moves_do_not_cancel(self, rng):
        # a move of 1e-12 from states of rank 4 down to 1: a step formed as the
        # difference of two states would carry errors of about 1e-16, 1e-4 of it
        sigmas, moves = [], []
        for rank in (4, 3, 2, 1, 4, 3, 2, 1):
            u = random_unitary(rng)
            weights = np.concatenate([rng.uniform(0.2, 1.0, rank), np.zeros(4 - rank)])
            sigmas.append((u * (weights / weights.sum())) @ u.conj().T)
            h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            moves.append(1e-12 * (h + h.conj().T))
        sigmas, moves = np.array(sigmas), np.array(moves)
        steps = tomography._projected_steps(sigmas, moves)
        for sigma, move, step in zip(sigmas, moves, steps):
            size = np.max(np.abs(move))
            assert np.max(np.abs(step - tomography._projected_step(sigma, move))) <= 1e-9 * size
            assert abs(np.trace(step)) <= 1e-9 * size
            oracle = helpers.project_onto_density_matrices(sigma + move) - sigma
            assert np.max(np.abs(step - oracle)) <= 1e-15
            assert np.linalg.eigvalsh(sigma + step)[0] >= -1e-15
        # from a full-rank state nothing is cut: the step is the move less its mean trace
        full = moves[0] - np.trace(moves[0]) / 4.0 * np.eye(4)
        assert np.max(np.abs(steps[0] - full)) <= 1e-9 * np.max(np.abs(moves[0]))


def sparse_density_matrix(rng, rank):
    """g g^dagger / Tr for a complex 4 x rank g whose entries are zeroed with probability 0.4."""
    while True:
        g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        g[rng.random(g.shape) < 0.4] = 0.0
        if np.any(g):
            rho = g @ g.conj().T
            return rho / np.trace(rho).real


class TestStartStates:
    """Every fit starts at its projected linear-inversion estimate.

    The estimate is the start when it is certified already, with every
    setting with counts at a probability above roundoff; otherwise 0.1 %
    of I/4 is mixed in.
    """

    def test_exact_probabilities_invert_to_their_state(self, rng):
        # every quadruple of exact probabilities sums to 1: the inversion returns
        # the state, which the projection keeps, at every rank, and no I/4 is mixed in
        rhos = [helpers.random_density_matrix(rng, rank=rank) for rank in (1, 2, 3, 4)]
        weights = np.array([SETTINGS.born_probabilities(rho) for rho in rhos]) / 9.0
        starts = tomography._start_states(SETTINGS, weights)
        for rho, start in zip(rhos, starts):
            assert np.max(np.abs(start - rho)) <= 1e-12

    def test_exact_rank_deficient_data_certifies_at_the_start(self):
        # sparse states of rank 1 to 4, whose optimum can leave settings at exactly
        # zero: from a start mixed with I/4, 102 of these 300 batched fits and 97
        # scalar ones met the floating-point floor before the certificate
        rng = np.random.default_rng(1400)
        stack = np.array([np.maximum(SETTINGS.born_probabilities(
            sparse_density_matrix(rng, 1 + k % 4)), 0.0) for k in range(300)])
        rhos, gaps, iterations, stops = batch_fit(stack / stack.sum(axis=1, keepdims=True))
        assert set(stops) == {"gap"} and not iterations.any() and np.all(gaps <= 1e-10)
        for freqs, rho in zip(stack, rhos):
            rec = mle_reconstruct(freqs, SETTINGS)
            assert (rec.stop, rec.iterations) == ("gap", 0)
            for fit in (rho, rec.rho):
                assert helpers.likelihood_gap(freqs, fit) <= CERTIFIED

    def test_estimate_that_loses_a_setting_is_mixed(self, monkeypatch):
        # Poisson counts of a near-pure Bell state: the projected estimate keeps a
        # setting with counts at about 1e-3 of its frequency within its quadruple
        counts = np.random.default_rng(9).poisson(
            1e5 * SETTINGS.born_probabilities(werner_mix(PHI_PLUS, 0.001))).astype(float)
        weights = counts[None] / counts.sum()  # _start_states takes normalized weights
        start = tomography._start_states(SETTINGS, weights)[0]
        monkeypatch.setattr(tomography, "_START_MIX", 0.0)
        estimate = tomography._start_states(SETTINGS, weights)[0]
        group = SETTINGS.group_index
        f = counts / (counts @ (group[:, None] == group))
        observed = counts > 0
        assert np.min(SETTINGS.born_probabilities(estimate)[observed] / f[observed]) < 0.01
        assert np.max(np.abs(start - (0.999 * estimate + 0.001 * MIXED))) <= 1e-15

    def test_uncertified_estimate_is_mixed(self, monkeypatch):
        # no state reproduces these model frequencies: the estimate keeps every
        # setting near its frequency, but it is a gap of 3.6e-6 from the optimum;
        # without Newton steps, which certify this interior optimum, the start is
        # the mixed estimate
        monkeypatch.setattr(tomography, "_NEWTON_STEPS", 0)
        freqs = synthesize_frequencies(mixed_entangled_state(np.random.default_rng(3)),
                                       SourceParams(1e-3, 0.8, 0.3), SETTINGS)
        weights = freqs[None] / freqs.sum()  # _start_states takes normalized weights
        start = tomography._start_states(SETTINGS, weights)[0]
        monkeypatch.setattr(tomography, "_START_MIX", 0.0)
        estimate = tomography._start_states(SETTINGS, weights)[0]
        group = SETTINGS.group_index
        f = freqs / (freqs @ (group[:, None] == group))
        assert np.min(SETTINGS.born_probabilities(estimate) / f) > 0.99
        assert helpers.likelihood_gap(freqs, estimate) > 1e-6
        assert np.max(np.abs(start - (0.999 * estimate + 0.001 * MIXED))) <= 1e-15

    def test_roundoff_level_weights_get_a_mixed_start(self):
        # some settings of (|HH> - |LL>)/sqrt(2) get Born weights of about 1e-17, the
        # roundoff of an exact 0; the estimate's probabilities there are roundoff
        # too, below _ZERO_WEIGHT, and could come out nonpositive in the solver
        h, l = POLARIZATION_KETS["H"], POLARIZATION_KETS["L"]
        ket = np.kron(h, h) - np.kron(l, l)
        ket /= np.linalg.norm(ket)
        freqs = np.maximum(SETTINGS.born_probabilities(np.outer(ket, ket.conj())), 0.0)
        assert 0.0 < freqs[freqs > 0.0].min() < 1e-15
        start = tomography._start_states(SETTINGS, freqs[None] / freqs.sum())[0]
        assert np.linalg.eigvalsh(start)[0] >= tomography._START_MIX / 4.0 * (1.0 - 1e-9)
        # the fits zero those weights first (_kept_weights); the estimate of what is
        # left is the state itself, certified, and is the start
        kept = tomography._kept_weights(freqs)
        assert np.count_nonzero(kept) < np.count_nonzero(freqs)
        start = tomography._start_states(SETTINGS, kept[None] / kept.sum())[0]
        assert helpers.likelihood_gap(kept, start) <= CERTIFIED
        assert (ket.conj() @ start @ ket).real >= 1.0 - 1e-12
        rec = mle_reconstruct(freqs, SETTINGS)
        assert rec.stop == "gap" and helpers.likelihood_gap(freqs, rec.rho) <= CERTIFIED

    def test_dephased_grid_certifies_in_fewer_iterations(self):
        # a seeded subset of the 900 low-gain dephased fits the boundary guard is
        # for: from their default start they certify at once, and from I/4, where
        # the guard acts, they certify too
        concs = np.linspace(0.8, 0.999, 25)
        gains = np.geomspace(1e-6, 1e-2, 9)
        cases = [(conc, eta, n_bar) for conc in concs for eta in (1.0, 0.8, 0.5, 0.16)
                 for n_bar in gains]
        picked = np.random.default_rng(900).choice(len(cases), 16, replace=False)
        stack = np.array([synthesize_frequencies(dephased_phi_plus(conc),
                                                 SourceParams(n_bar, eta, eta), SETTINGS)
                          for conc, eta, n_bar in (cases[k] for k in picked)])
        weights = stack / stack.sum(axis=1, keepdims=True)
        rhos, gaps, iterations, stops = batch_fit(weights)
        assert set(stops) == {"gap"} and np.all(gaps <= 1e-10) and not iterations.any()
        for freqs, rho in zip(stack, rhos):
            assert helpers.likelihood_gap(freqs, rho) <= CERTIFIED
        rhos, gaps, iterations, stops = batch_fit(weights,
                                                  np.repeat(MIXED[None], len(weights), axis=0))
        assert set(stops) == {"gap"} and np.all(gaps <= 1e-10) and iterations.all()
        for freqs, rho in zip(stack, rhos):
            assert helpers.likelihood_gap(freqs, rho) <= CERTIFIED


class TestStartRule:
    """Every fit from its own data starts by ``_start_states``, Newton steps included."""

    def test_interior_optimum_certifies_at_zero_iterations(self):
        # Poisson counts of a Werner state, about 1e6 in all: the optimum is interior,
        # so Newton steps certify the single fit before the ascent
        born = SETTINGS.born_probabilities(werner_mix(PHI_PLUS, 0.1))
        counts = np.random.default_rng(3).poisson(1e6 / 9.0 * born).astype(float)
        rec = mle_reconstruct(counts, SETTINGS)
        assert (rec.stop, rec.iterations, rec.converged) == ("gap", 0, True)
        assert helpers.likelihood_gap(counts, rec.rho) <= CERTIFIED
        ascent = mle_reconstruct(counts, SETTINGS, rho_start=MIXED)
        assert ascent.iterations > 0 and ascent.stop == "gap"
        assert np.max(np.abs(rec.rho - ascent.rho)) <= 1e-8

    def test_newton_steps_only_the_mixed_rows_once_per_start(self, rng, monkeypatch):
        calls = newton_calls(monkeypatch)
        # compare's default grid: every start is certified, so no row steps
        compare = werner_mix(PHI_PLUS, 1.0 - 2.815 / TSIRELSON)
        mle_curve(compare, 0.16, 0.16, np.geomspace(1e-4, 0.2, 80))
        [[(w, starts, _)]] = calls
        assert w.shape == (0, 36) and starts.shape == (0, 4, 4)
        # the mixed curve: every start is mixed and steps, in one call
        mle_curve(mixed_entangled_state(rng), 0.8, 0.3, np.geomspace(1e-3, 0.15, 40))
        assert len(calls) == 2 and [len(w) for w, _, _ in calls[1]] == [40]
        # noisy counts interleaved with exact probabilities: the noisy rows step, from
        # their estimates mixed with I/4
        rows = []
        for rank in (1, 2, 3, 4):
            rho = helpers.random_density_matrix(rng, rank=rank)
            rows += [rng.poisson(1e4 * SETTINGS.born_probabilities(rho)),
                     SETTINGS.born_probabilities(rho)]
        stack = np.maximum(np.array(rows, dtype=float), 0.0)
        stack /= stack.sum(axis=1, keepdims=True)  # _start_states takes normalized weights
        tomography._start_states(SETTINGS, stack)
        [(w, starts, _)] = calls[2]
        assert np.array_equal(w, stack[::2])
        monkeypatch.setattr(tomography, "_START_MIX", 0.0)
        monkeypatch.setattr(tomography, "_NEWTON_STEPS", 0)
        estimates = tomography._start_states(SETTINGS, stack)[::2]
        assert np.max(np.abs(starts - (0.999 * estimates + 0.001 * MIXED))) <= 1e-15
        monkeypatch.undo()
        # a single fit takes one start of one row; a fit from rho_start takes none
        calls = newton_calls(monkeypatch)
        mle_reconstruct(stack[0], SETTINGS)
        mle_reconstruct(stack[0], SETTINGS, rho_start=MIXED)
        assert [[len(w) for w, _, _ in record] for record in calls] == [[1]]


class TestRoundoffZeroWeights:
    """A weight at most 1e-13 of its row's largest counts as 0 (``_ZERO_WEIGHT``)."""

    def test_superpositions_of_product_kets_certify(self):
        # |ab> + phi |cd> for the 630 pairs of the 36 product kets, phi in {1, -1, i, -i}:
        # 592 of these 2520 rows hold Born weights in (0, 1e-13] of their largest, the
        # roundoff of an exact 0; counted as weights, they left 104 fits uncertified
        kets = [np.kron(POLARIZATION_KETS[a], POLARIZATION_KETS[b]) for a, b in SETTINGS.pairs]
        tiny = 0
        for first, second in itertools.combinations(kets, 2):
            for phase in (1, -1, 1j, -1j):
                ket = first + phase * second
                ket /= np.linalg.norm(ket)
                freqs = np.maximum(SETTINGS.born_probabilities(np.outer(ket, ket.conj())), 0.0)
                kept = np.where(freqs > 1e-13 * freqs.max(), freqs, 0.0)
                tiny += np.any(kept != freqs)
                rec = mle_reconstruct(freqs, SETTINGS)
                assert rec.converged and rec.stop == "gap"
                assert helpers.likelihood_gap(kept, rec.rho) <= CERTIFIED
                assert (ket.conj() @ rec.rho @ ket).real >= 1.0 - 1e-12
        assert tiny == 592

    def test_weights_over_270_decades_certify_at_the_start(self):
        # the exact Born frequencies of this pure state span 278 decades; every weight
        # below 1e-13 of the largest counts as 0 (_kept_weights), so what is left are
        # the frequencies of the state itself and the fit certifies at its start
        ket = np.array([0.541, 1.6e-139, -0.139, 0.0])
        ket /= np.linalg.norm(ket)
        freqs = np.maximum(SETTINGS.born_probabilities(np.outer(ket, ket)), 0.0)
        assert 0.0 < freqs[freqs > 0.0].min() < 1e-277 * freqs.max()
        kept = np.where(freqs > 1e-13 * freqs.max(), freqs, 0.0)
        rec = mle_reconstruct(freqs, SETTINGS)
        assert (rec.stop, rec.iterations, rec.converged) == ("gap", 0, True)
        assert helpers.likelihood_gap(kept, rec.rho) <= CERTIFIED
        assert (ket @ rec.rho @ ket).real >= 1.0 - 1e-12

    def test_tiny_weights_fit_as_zero_weights(self):
        # the zeroed weights drop out of the likelihood as zero counts do
        freqs = SETTINGS.born_probabilities(werner_mix(PHI_PLUS, 0.2))
        tiny = freqs.copy()
        tiny[[1, 7]] = 1e-14 * freqs.max()
        zeroed = freqs.copy()
        zeroed[[1, 7]] = 0.0
        a, b = mle_reconstruct(tiny, SETTINGS), mle_reconstruct(zeroed, SETTINGS)
        assert np.array_equal(a.rho, b.rho) and a.log_likelihood == b.log_likelihood


def interior_newton(weights, starts):
    """``_interior_newton`` of a stack of weights, normalized row by row."""
    weights = np.asarray(weights, dtype=float)
    return tomography._interior_newton(SETTINGS, weights / weights.sum(axis=1, keepdims=True),
                                       starts)


def newton_calls(monkeypatch) -> list:
    """One list per ``_start_states`` call, holding (weights, starts, result) of each
    ``_interior_newton`` call it made; a Newton call outside ``_start_states`` fails."""
    records, inside = [], []
    real_start, real_newton = tomography._start_states, tomography._interior_newton

    def start(settings, w):
        records.append([])
        inside.append(True)
        try:
            return real_start(settings, w)
        finally:
            inside.pop()

    def newton(settings, w, starts):
        assert inside, "_interior_newton was called outside _start_states"
        out = real_newton(settings, w, starts)
        records[-1].append((w.copy(), starts.copy(), out.copy()))
        return out

    monkeypatch.setattr(tomography, "_start_states", start)
    monkeypatch.setattr(tomography, "_interior_newton", newton)
    return records


class TestInteriorNewton:
    """Full Newton steps certify interior optima; every other row keeps its start.

    The replays use ``helpers.newton_step``, which takes the step in other
    coordinates than the library, from explicit kets.
    """

    def test_uncertified_rows_come_back_as_their_starts(self, rng, monkeypatch):
        # noisy counts of states of rank 1 to 3, whose optima lie on the boundary;
        # exact probabilities of such states, certified at their start; and noisy
        # counts of full-rank states, whose optima are interior
        boundary = [rng.poisson(2e4 * SETTINGS.born_probabilities(
            helpers.random_density_matrix(rng, rank=1 + k % 3))) for k in range(9)]
        exact = [SETTINGS.born_probabilities(helpers.random_density_matrix(rng, rank=1 + k % 3))
                 for k in range(6)]
        interior = [rng.poisson(2e5 * SETTINGS.born_probabilities(
            0.7 * helpers.random_density_matrix(rng) + 0.3 * MIXED)) for _ in range(6)]
        stack = np.maximum(np.array(boundary + exact + interior, dtype=float), 0.0)
        stack /= stack.sum(axis=1, keepdims=True)  # _start_states takes normalized weights
        calls = newton_calls(monkeypatch)
        starts = tomography._start_states(SETTINGS, stack)
        # the exact rows are certified at their estimate and take no step
        [[(w, mixed, out)]] = calls
        noisy = np.r_[:len(boundary), len(boundary) + len(exact):len(stack)]
        assert np.array_equal(w, stack[noisy]) and np.array_equal(out, starts[noisy])
        for k, (freqs, start, rho) in enumerate(zip(stack[noisy], mixed, out)):
            if k < len(boundary):
                assert np.array_equal(rho, start)
            else:
                assert np.linalg.eigvalsh(rho)[0] > 0.0
                assert helpers.likelihood_gap(freqs, rho) <= CERTIFIED
        # the ascent takes the boundary rows from their mixed starts, as without
        # the phase, and stops on the others at once
        _, _, iterations, stops = batch_fit(stack, starts)
        assert iterations[:len(boundary)].all() and not iterations[len(boundary):].any()
        assert set(stops[len(boundary):]) == {"gap"}

    def test_a_step_that_raises_the_gap_ends_the_row(self, rng):
        # exact probabilities of full-rank states, from the state mixed with I/4: a
        # first step that raises the gap leaves the start in place even when later
        # steps would certify; a row whose replayed steps all lower the gap to
        # certification returns its certified Newton state
        targets = [helpers.random_density_matrix(rng) for _ in range(48)]
        stack = np.array([SETTINGS.born_probabilities(rho) for rho in targets])
        starts = np.array([(1.0 - mix) * rho + mix * MIXED
                           for rho, mix in zip(targets, rng.uniform(0.05, 0.5, len(targets)))])
        out = interior_newton(stack, starts)
        raised = certified = 0
        for freqs, start, rho in zip(stack, starts, out):
            gaps, state = [helpers.likelihood_gap(freqs, start)], start
            for _ in range(tomography._NEWTON_STEPS):
                state = helpers.newton_step(freqs, state)
                if np.linalg.eigvalsh(state)[0] <= 0.0:
                    break
                gaps.append(helpers.likelihood_gap(freqs, state))
                if gaps[-1] <= 1e-12 or gaps[-1] > gaps[-2]:
                    break
            if len(gaps) > 1 and gaps[1] > 1.1 * gaps[0]:
                raised += 1
                assert np.array_equal(rho, start)
            elif gaps[-1] <= 1e-12 and np.all(np.diff(gaps) < -0.1 * np.array(gaps[1:])):
                certified += 1
                assert helpers.likelihood_gap(freqs, rho) <= CERTIFIED
                assert np.max(np.abs(rho - state)) <= 1e-8
        assert raised >= 3 and certified >= 10

    def test_one_step_is_the_newton_step(self, rng, monkeypatch):
        # a start 1e-6 off an interior optimum certifies after its first step,
        # which the replay in other coordinates reproduces
        monkeypatch.setattr(tomography, "_NEWTON_STEPS", 1)
        targets = [0.8 * helpers.random_density_matrix(rng) + 0.2 * MIXED for _ in range(4)]
        stack = np.array([SETTINGS.born_probabilities(rho) for rho in targets])
        starts = np.array([rho + 1e-6 * (helpers.random_density_matrix(rng) - MIXED)
                           for rho in targets])
        out = interior_newton(stack, starts)
        for freqs, start, rho in zip(stack, starts, out):
            assert helpers.likelihood_gap(freqs, start) > 1e-10
            assert helpers.likelihood_gap(freqs, rho) <= CERTIFIED
            assert np.max(np.abs(rho - helpers.newton_step(freqs, start))) <= 1e-13

    def test_singular_hessians_leave_the_other_rows(self, rng, monkeypatch):
        # rows observed in a few quadruples only: their Hessians are singular, which
        # makes a stacked solve raise for every row; the interior row still certifies
        group = SETTINGS.group_index
        sparse = [np.where(np.isin(group, kept), rng.uniform(0.1, 1.0, 36), 0.0)
                  for kept in ([0], [0, 4, 8], [1, 2, 3, 5])]
        model = synthesize_frequencies(mixed_entangled_state(rng), SourceParams(0.05, 0.8, 0.3),
                                       SETTINGS)
        stack = np.array([sparse[0], model, *sparse[1:]])
        stack /= stack.sum(axis=1, keepdims=True)  # _start_states takes normalized weights
        calls = newton_calls(monkeypatch)
        tomography._start_states(SETTINGS, stack)
        [[(w, starts, out)]] = calls  # every row is mixed and steps
        assert np.array_equal(w, stack)
        assert helpers.likelihood_gap(model, out[1]) <= CERTIFIED
        for k in (0, 2, 3):
            assert helpers.likelihood_gap(stack[k], starts[k]) > 1e-3
            assert np.array_equal(out[k], starts[k])

    def test_solve_rows_marks_singular_systems(self):
        a = np.array([np.zeros((3, 3)), np.diag([2.0, 4.0, 8.0]), np.ones((3, 3))])
        x = tomography._solve_rows(a, np.ones((3, 3)))
        assert np.all(np.isnan(x[[0, 2]])) and x[1].tolist() == [0.5, 0.25, 0.125]


class TestFactorNewton:
    """Newton steps on a Cholesky factor finish the fits that reach the hand-off gap."""

    def test_certified_rows_carry_the_certificate(self):
        # criterion-12 resamples from the Monte-Carlo's warm start: the finisher
        # certifies every row to 1e-10, and the oracle reads the same gap
        resamples, warm = criterion12_resamples(range(40))
        w = resamples / resamples.sum(axis=1, keepdims=True)
        rhos, gaps, steps, gains = tomography._factor_newton(
            SETTINGS, w, np.repeat(warm[None], len(w), axis=0), tomography._FACTOR_STEPS)
        assert np.all(gaps <= 1e-10) and steps.max() <= tomography._FACTOR_STEPS
        assert np.all(gains >= 0.0)
        for freqs, rho, gap in zip(resamples, rhos, gaps):
            validate_density_matrix(rho)
            assert helpers.likelihood_gap(freqs, rho) == pytest.approx(
                gap, abs=helpers.GAP_ROUNDOFF)

    def test_log_likelihood_is_the_fitted_states(self, rng):
        # Poisson counts of states of rank 1 to 3 from I/4: the ascent hands over states
        # with eigenvalues at 0, which the factor's floor raises.  The fit adds up the
        # ascent's gains and the finisher's, the first counted from the hand-off state
        # itself, so the total is the likelihood of the returned state
        for k in range(6):
            counts = rng.poisson(3000 * SETTINGS.born_probabilities(
                helpers.random_density_matrix(rng, rank=1 + k % 3))).astype(float)
            rec = mle_reconstruct(counts, SETTINGS, rho_start=MIXED)
            assert rec.stop == "gap"
            observed = counts > 0
            direct = counts[observed] @ np.log(SETTINGS.born_probabilities(rec.rho)[observed])
            assert rec.log_likelihood == pytest.approx(direct, rel=1e-12)

    def test_fallback_without_newton_steps(self, monkeypatch):
        # with no Newton step allowed every sample fit goes on through the ascent from
        # its hand-off state, which still converges, at the finisher's optimum
        resamples, warm = criterion12_resamples(range(20))
        newton = [mle_reconstruct(counts, SETTINGS, rho_start=warm) for counts in resamples]
        monkeypatch.setattr(tomography, "_FACTOR_STEPS", 0)
        ascent = [mle_reconstruct(counts, SETTINGS, rho_start=warm) for counts in resamples]
        assert all(rec.stop == "gap" for rec in newton)
        assert all(rec.converged for rec in ascent)
        assert min(rec.iterations for rec in ascent) > max(rec.iterations for rec in newton)
        for a, b in zip(newton, ascent):
            assert np.max(np.abs(a.rho - b.rho)) <= 1e-8

    def test_stalled_row_leaves_after_the_cap(self, monkeypatch):
        # a cap of 2 steps stalls every row: from the warm start each criterion-12 row
        # needs at least 8 (after 2 the smallest gap of these rows is 1.4e-5).  Each
        # row leaves after the cap, uncertified, and the ascent finishes its fit from
        # the hand-off state, to a gap stop or a floor stop below 1e-8
        resamples, warm = criterion12_resamples(range(5))
        w = resamples / resamples.sum(axis=1, keepdims=True)
        _, gaps, steps, _ = tomography._factor_newton(
            SETTINGS, w, np.repeat(warm[None], len(w), axis=0), 2)
        assert steps.tolist() == [2] * len(w) and np.all(gaps > 1e-10)
        monkeypatch.setattr(tomography, "_FACTOR_STEPS", 2)
        for counts in resamples:
            rec = mle_reconstruct(counts, SETTINGS, rho_start=warm)
            assert rec.converged and rec.iterations > 2
            assert helpers.likelihood_gap(counts, rec.rho) <= 1e-8 + helpers.GAP_ROUNDOFF

    def test_row_near_a_rank_boundary_returns(self):
        # sample 1819 of SeedSequence(99) has its optimum near a rank boundary, where
        # the factor converges only linearly (measured: still at gap 1.4e-6 after the
        # 40 steps).  Whichever way it is certified, the fit returns and converges.
        # The alarm turns a fit that never returns into a failure, not a stalled suite
        resamples, warm = criterion12_resamples([1819])

        def hung(signum, frame):
            raise TimeoutError("the fit did not return within 10 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.setitimer(signal.ITIMER_REAL, 10.0)
        try:
            rec = mle_reconstruct(resamples[0], SETTINGS, rho_start=warm)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert rec.converged
        assert helpers.likelihood_gap(resamples[0], rec.rho) <= 1e-8 + helpers.GAP_ROUNDOFF

    def test_poisson_counts_of_random_states_certify(self, monkeypatch):
        # 300 to 1e5 counts of random states of rank 1 to 4: every fit converges, and
        # the finisher certifies most rows handed to it (237 of 238 measured; the
        # bound leaves room for other floating-point builds)
        handed = []
        real = tomography._factor_newton

        def recorded(settings, w, rhos, max_steps):
            out = real(settings, w, rhos, max_steps)
            handed.extend(out[1] <= 1e-10)
            return out

        monkeypatch.setattr(tomography, "_factor_newton", recorded)
        rng = np.random.default_rng(2026)
        for total in (300, 3000, 1e5):
            for rank in (1, 2, 3, 4):
                for _ in range(25):
                    born = SETTINGS.born_probabilities(helpers.random_density_matrix(rng, rank))
                    counts = rng.poisson(total / 9.0 * np.maximum(born, 0.0)).astype(float)
                    rec = mle_reconstruct(counts, SETTINGS)
                    assert rec.converged
                    assert helpers.likelihood_gap(counts, rec.rho) <= CERTIFIED
        assert len(handed) >= 200 and np.mean(handed) >= 0.9


class TestBatchedAscent:
    """Every row of one stack certifies and matches the same counts fitted alone."""

    def test_rows_certify_and_match_single_fits(self, rng):
        # every fit starts from I/4: at their default start these exact
        # frequencies certify before any step
        rows = [SETTINGS.born_probabilities(helpers.random_density_matrix(rng, rank=rank))
                for rank in (1, 2, 3, 4, 1, 2, 3, 4)]
        # near-pure dephased states at low gain, the family the boundary guard is for
        rows += [synthesize_frequencies(dephased_phi_plus(conc), SourceParams(n_bar, eta, eta),
                                        SETTINGS)
                 for conc in (0.95, 0.99) for n_bar in (1e-5, 1e-4) for eta in (0.16, 0.8)]
        # |HH> never gives a V click: (V, V) and the other V rows are exact zeros
        hh = np.zeros((4, 4), dtype=complex)
        hh[0, 0] = 1.0
        rows.append(synthesize_frequencies(hh, SourceParams(0.01, 0.8, 0.5), SETTINGS))
        stack = np.array(rows)
        assert stack[-1][SETTINGS.pairs.index(("V", "V"))] == 0.0
        weights = stack / stack.sum(axis=1, keepdims=True)
        rhos, gaps, iterations, stops = batch_fit(weights,
                                                  np.repeat(MIXED[None], len(stack), axis=0))
        assert set(stops) == {"gap"} and iterations.all()
        for freqs, w, rho, gap in zip(stack, weights, rhos, gaps):
            assert gap <= 1e-10
            assert helpers.likelihood_gap(freqs, rho) <= CERTIFIED
            assert np.array_equal(rho, rho.conj().T)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)
            alone, _, _, _ = batch_fit(w[None], MIXED[None])
            assert np.max(np.abs(rho - alone[0])) <= 1e-8
            rec = mle_reconstruct(freqs, SETTINGS, rho_start=MIXED)
            assert np.max(np.abs(rho - rec.rho)) <= 1e-8

    def test_roundoff_cannot_zero_an_accepted_probability(self):
        # a pure state with an amplitude of 2.8e-141 gives four settings weights of
        # about 2e-281, far below the roundoff of a Born product: the guard alone
        # let an accepted iterate reach a zero probability there, and the gap's
        # eigvalsh raised on the infinite gradient within 56 iterations from I/4
        ket = np.array([-0.217, 0.366, 0.0, -2.84e-141])
        freqs = SETTINGS.born_probabilities(np.outer(ket, ket) / (ket @ ket))
        assert freqs.min() == 0.0 and 0.0 < freqs[freqs > 0].min() < 1e-280
        # (public fits count these weights as 0, so the scalar ascent is called directly)
        w = freqs / freqs.sum()
        _, gaps, iterations, stops = batch_fit(w[None], MIXED[None], max_iterations=100)
        assert stops.tolist() == ["cap"] and iterations.tolist() == [100]
        _, _, scalar_gap, scalar_iterations, scalar_stop = tomography._accelerated_ascent(
            SETTINGS, w, MIXED, 100)
        assert (scalar_iterations, scalar_stop) == (100, "cap")
        assert gaps[0] == pytest.approx(scalar_gap, rel=1e-6)

    @pytest.mark.parametrize("case", ["compare_default", "mixed"])
    def test_rows_do_not_wait_for_each_other(self, case, rng, monkeypatch):
        # full-rank rows take the scalar path's decisions exactly, so one attempt
        # per row per pass makes the stack as long as its slowest row alone
        if case == "compare_default":
            rho0 = werner_mix(PHI_PLUS, 1.0 - 2.815 / TSIRELSON)
            eta_a = eta_b = 0.16
            grid = np.geomspace(1e-4, 0.2, 80)
        else:
            rho0 = mixed_entangled_state(rng)
            eta_a, eta_b = 0.8, 0.3
            grid = np.geomspace(1e-3, 0.15, 40)
        stack = np.array([synthesize_frequencies(rho0, SourceParams(n, eta_a, eta_b), SETTINGS)
                          for n in grid])
        weights = stack / stack.sum(axis=1, keepdims=True)
        # every path starts each row from I/4: the compare grid's default start
        # certifies before any step, and the mixed grid's by Newton steps
        starts = np.repeat(MIXED[None], len(weights), axis=0)
        passes = []
        real = tomography._projected_steps

        def counted(sigma, move):
            passes[-1] += 1
            return real(sigma, move)

        monkeypatch.setattr(tomography, "_projected_steps", counted)

        def fit(w, start):
            passes.append(0)
            return batch_fit(w, start)

        rhos, _, iterations, stops = fit(weights, starts)
        assert set(stops) == {"gap"} and iterations.all()
        alone = [fit(w[None], start[None]) for w, start in zip(weights, starts)]
        assert passes[0] == max(passes[1:])
        scalar = [mle_reconstruct(freqs, SETTINGS, rho_start=start)
                  for freqs, start in zip(stack, starts)]
        assert (iterations.tolist() == [int(its[0]) for _, _, its, _ in alone]
                == [rec.iterations for rec in scalar])
        for rho, (rho_alone, _, _, _), rec in zip(rhos, alone, scalar):
            assert np.max(np.abs(rho - rho_alone[0])) <= 1e-12
            assert np.max(np.abs(rho - rec.rho)) <= 1e-12

    def test_empty_stack_returns_at_once(self):
        # the alarm turns a fit that never returns into a failure, not a stalled suite
        def hung(signum, frame):
            raise TimeoutError("the fit of an empty stack did not return within 10 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.setitimer(signal.ITIMER_REAL, 10.0)
        try:
            rhos, gaps, iterations, stops = batch_fit(np.empty((0, 36)),
                                                    np.empty((0, 4, 4), dtype=complex))
            points = mle_curve(PHI_PLUS, 0.5, 0.5, [])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert rhos.shape == (0, 4, 4)
        assert gaps.shape == iterations.shape == stops.shape == (0,)
        assert points == []


class TestBoundaryGuard:
    """Fits that stopped far from the optimum while being flagged converged.

    |phi+> with its coherences scaled by C, detected with eta_A = eta_B
    at a low gain: without the boundary guard a step lands where an
    observed probability nearly vanishes and the floor stop fires at a
    gap far above the tolerance.  Each case is (index into
    linspace(0.8, 0.999, 25) for C, eta, index into geomspace(1e-6,
    1e-2, 9) for n_bar).  The fits start from I/4, as exact frequencies
    of a state certify at their default start before any step.
    """

    CASES = [(0, 1.0, 3), (0, 0.16, 0), (4, 0.5, 0), (5, 0.8, 1), (8, 0.16, 1), (14, 1.0, 0),
             (15, 0.5, 0), (16, 0.16, 3), (20, 1.0, 2), (23, 0.8, 3)]

    @classmethod
    def frequencies(cls):
        concs = np.linspace(0.8, 0.999, 25)
        gains = np.geomspace(1e-6, 1e-2, 9)
        return np.array([synthesize_frequencies(dephased_phi_plus(concs[i]),
                                                SourceParams(gains[j], eta, eta), SETTINGS)
                         for i, eta, j in cls.CASES])

    def test_single_fits_certify(self):
        for freqs in self.frequencies():
            rec = mle_reconstruct(freqs, SETTINGS, rho_start=MIXED)
            assert rec.stop == "gap" and rec.converged and rec.iterations > 0
            assert helpers.likelihood_gap(freqs, rec.rho) <= CERTIFIED

    def test_batched_fits_certify(self):
        stack = self.frequencies()
        rhos, _, iterations, stops = batch_fit(stack / stack.sum(axis=1, keepdims=True),
                                               np.repeat(MIXED[None], len(stack), axis=0))
        assert set(stops) == {"gap"} and iterations.all()
        for freqs, rho in zip(stack, rhos):
            assert helpers.likelihood_gap(freqs, rho) <= CERTIFIED


class TestFitKappa:
    def test_pure_bell_frequencies(self):
        assert fit_kappa(SETTINGS.born_probabilities(PHI_PLUS), SETTINGS, PHI_PLUS) < 1e-8

    def test_isotropic_frequencies(self):
        assert fit_kappa(np.full(36, 1.0), SETTINGS, PHI_PLUS) > 1.0 - 1e-8

    def test_matches_closed_form_weight(self):
        freqs = synthesize_frequencies(PHI_PLUS, SourceParams(0.0737, 1.0, 1.0), SETTINGS)
        fitted = fit_kappa(freqs, SETTINGS, PHI_PLUS)
        assert fitted == pytest.approx(kappa_exact(0.0737, 1.0, 1.0), abs=1e-6)

    def test_recovers_werner_weights(self):
        for kappa in np.arange(0.0, 0.55, 0.05):
            freqs = SETTINGS.born_probabilities(werner_mix(PHI_PLUS, kappa))
            assert fit_kappa(freqs, SETTINGS, PHI_PLUS) == pytest.approx(kappa, abs=1e-6)


class TestCoincidenceRateFromCounts:
    def test_quadruple_arithmetic(self):
        # every complementary quadruple summing to 900 over 1e9 windows
        counts = np.zeros(36, dtype=np.int64)
        for group in range(9):
            members = np.flatnonzero(SETTINGS.group_index == group)
            counts[members] = 225
        ds = make_dataset(counts, tau_s=1e-9, duration_s=1.0)
        assert coincidence_rate_from_counts(ds) == pytest.approx(9.0e-7, abs=1e-20)

    def test_all_zero(self):
        assert coincidence_rate_from_counts(make_dataset(np.zeros(36))) == 0.0

    def test_statistical_round_trip(self, rng):
        params = SourceParams(1e-3, 0.8, 0.8)
        n_windows = 2.0e7
        ds = sampled_dataset(PHI_PLUS, params, n_windows, rng)
        estimate = coincidence_rate_from_counts(ds)
        expected = coincidence_rate_exact(params.n_bar, params.eta_a, params.eta_b)
        # standard error of the mean of the 9 quadruple sums
        quad_mean = ds.counts.sum() / 9.0
        stderr = math.sqrt(9.0 * quad_mean) / 9.0 / n_windows
        assert abs(estimate - expected) < 3.0 * stderr

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            make_dataset(np.zeros(36), tau_s=0.0)
        with pytest.raises(ValueError):
            make_dataset(np.zeros(36), tau_s=1.0, duration_s=0.5)
        with pytest.raises(ValueError):
            make_dataset(np.full(36, -1))
        for field, value in (("tau_s", math.nan), ("duration_s", math.inf),
                             ("duration_s", math.nan)):
            with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
                make_dataset(np.zeros(36), **{field: value})
        # counts that int64 cannot hold are refused, not wrapped
        for counts in (np.full(36, 1e30), np.full(36, 2.0 ** 63), [2 ** 70] * 36):
            with pytest.raises(ValueError, match=r"^counts must be below 2\*\*63"):
                TomographyDataset(SETTINGS, counts, 1e-9, 1.0)
        ds = TomographyDataset(SETTINGS, np.full(36, 2.0 ** 62), 1e-9, 1.0)
        assert ds.counts.dtype == np.int64 and np.all(ds.counts == 2 ** 62)


class TestMonteCarlo:
    @pytest.fixture
    def dataset(self, rng):
        return sampled_dataset(PHI_PLUS, SourceParams(0.01, 0.5, 0.5), 2.0e7, rng)

    def test_deterministic_given_seed(self, dataset):
        a = monte_carlo_uncertainty(dataset, samples=20, seed=42)
        b = monte_carlo_uncertainty(dataset, samples=20, seed=42)
        assert a == b
        c = monte_carlo_uncertainty(dataset, samples=20, seed=43)
        assert c != a

    @pytest.mark.parametrize("mle_kwargs", [{}, {"max_iterations": 13}])
    def test_report_matches_oracle_over_the_recorded_fits(self, dataset, monkeypatch,
                                                          mle_kwargs):
        fits = []
        real = tomography.mle_reconstruct

        def recorded(frequencies, settings, **kwargs):
            result = real(frequencies, settings, **kwargs, **mle_kwargs)
            fits.append((np.array(frequencies), result))
            return result

        monkeypatch.setattr(tomography, "mle_reconstruct", recorded)
        stacks = one_stack_evaluations(monkeypatch)
        samples = 30
        report = monte_carlo_uncertainty(dataset, samples, 5)
        assert len(fits) == samples + 1 and np.array_equal(fits[0][0], dataset.counts)
        # the sampled fits are evaluated once, as one stack of valid states
        assert len(stacks) == 1 and np.array_equal(stacks[0], [fit.rho for _, fit in fits[1:]])
        columns = []
        for counts, fit in fits[1:]:
            s, q, r_dw = helpers.state_figures(fit.rho)
            r_c = helpers.quadruple_coincidence_rate(counts, SETTINGS.pairs, dataset.n_windows)
            columns.append((s, q, r_dw, r_dw * r_c))
        got = report.to_json_dict()
        for key, column in zip(("S", "Q", "r_dw", "R_key"), zip(*columns)):
            assert got[key]["mean"] == pytest.approx(statistics.fmean(column), rel=1e-12)
            assert got[key]["std"] == pytest.approx(statistics.stdev(column), rel=1e-12)
        unconverged = sum(not fit.converged for _, fit in fits[1:])
        assert report.unconverged == unconverged
        if mle_kwargs:  # the cap falls inside the spread of iteration counts
            assert 0 < unconverged < samples

    def test_unconverged_samples_are_counted_and_kept(self, dataset, monkeypatch):
        real = tomography.mle_reconstruct
        monkeypatch.setattr(tomography, "mle_reconstruct", lambda frequencies, settings, **kwargs:
                            real(frequencies, settings, **kwargs, max_iterations=1))
        report = monte_carlo_uncertainty(dataset, 4, 0)
        assert report.unconverged == 4
        assert report.samples == 4 and report.s_std > 0.0
        assert report.to_json_dict()["unconverged"] == 4

    def test_sample_count_guard(self, dataset):
        with pytest.raises(ValueError):
            monte_carlo_uncertainty(dataset, samples=1, seed=0)

    def test_takes_no_solver_options(self, dataset):
        # options would reach every sample fit; the report runs the defaults only
        with pytest.raises(TypeError, match="unexpected keyword argument 'max_iterations'"):
            monte_carlo_uncertainty(dataset, 2, 0, max_iterations=1)

    def test_poisson_scaling_of_spread(self, rng):
        base = sampled_dataset(PHI_PLUS, SourceParams(0.01, 0.5, 0.5), 2.0e6, rng)
        scaled = make_dataset(base.counts * 100, tau_s=base.tau_s,
                              duration_s=base.duration_s * 100)
        small = monte_carlo_uncertainty(base, samples=120, seed=7)
        big = monte_carlo_uncertainty(scaled, samples=120, seed=7)
        ratio = small.s_std / big.s_std
        assert 10.0 / 1.5 <= ratio <= 10.0 * 1.5

    def test_high_count_bell_statistics(self, rng):
        ds = sampled_dataset(PHI_PLUS, SourceParams(1e-3, 0.9, 0.9), 5.0e7, rng)
        report = monte_carlo_uncertainty(ds, samples=60, seed=11)
        assert report.s_mean == pytest.approx(TSIRELSON, abs=0.02)
        assert report.s_std > 0.0
        assert report.r_key_mean == pytest.approx(
            report.r_dw_mean * coincidence_rate_from_counts(ds), rel=0.05)
