import math
import statistics

import numpy as np
import pytest

import helpers
from entqkd import (SourceParams, TomographyDataset, TomographySettings,
                    bell_state, chsh_max, coincidence_rate_exact,
                    coincidence_rate_from_counts, fidelity, fit_kappa,
                    evaluate_state, kappa_exact, mle_curve, mle_reconstruct,
                    monte_carlo_uncertainty, synthesize_frequencies, tomography,
                    werner_mix)
from entqkd.metrics import TSIRELSON
from entqkd.states import POLARIZATION_KETS

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
    return tomography._accelerated_ascent_batch(SETTINGS.projectors_real, weights, starts,
                                                1e-10, max_iterations)


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
        counts = rng.poisson(2000 * SETTINGS.born_probabilities(werner_mix(PHI_PLUS, 0.05)))
        trace = []
        mle_reconstruct(counts.astype(float), SETTINGS,
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
        params = SourceParams(0.01, 0.16, 0.16)
        rho0 = werner_mix(PHI_PLUS, 1.0 - 2.815 / TSIRELSON)
        n_windows = 5.0e7
        counts = np.random.default_rng(1212).poisson(
            synthesize_frequencies(rho0, params, SETTINGS) * n_windows)
        ds = make_dataset(counts, tau_s=1e-9, duration_s=1e-9 * n_windows)
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

    def test_zero_probability_start_rejected(self):
        counts = SETTINGS.born_probabilities(werner_mix(PHI_PLUS, 0.1))
        with pytest.raises(ValueError):
            mle_reconstruct(counts, SETTINGS, rho_start=PHI_PLUS)


class TestMleCurve:
    """The batched pipeline curve against scalar cold fits of each grid point."""

    @pytest.mark.parametrize("case", ["compare_default", "rank_deficient"])
    def test_matches_cold_fits(self, case, monkeypatch):
        import entqkd.tomography as tomo
        if case == "compare_default":
            rho0 = werner_mix(PHI_PLUS, 1.0 - 2.815 / TSIRELSON)
            eta_a = eta_b = 0.16
            grid = np.geomspace(1e-4, 0.2, 80)
        else:
            rho0 = dephased_phi_plus(0.9)
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
        # from its optimum, and without backtracking it stops on the floor there
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
        start = tomography._start_states(SETTINGS, counts[None])[0]
        monkeypatch.setattr(tomography, "_START_MIX", 0.0)
        estimate = tomography._start_states(SETTINGS, counts[None])[0]
        group = SETTINGS.group_index
        f = counts / (counts @ (group[:, None] == group))
        observed = counts > 0
        assert np.min(SETTINGS.born_probabilities(estimate)[observed] / f[observed]) < 0.01
        assert np.max(np.abs(start - (0.999 * estimate + 0.001 * MIXED))) <= 1e-15

    def test_uncertified_estimate_is_mixed(self, monkeypatch):
        # no state reproduces these model frequencies: the estimate keeps every
        # setting near its frequency, but it is a gap of 3.6e-6 from the optimum
        freqs = synthesize_frequencies(mixed_entangled_state(np.random.default_rng(3)),
                                       SourceParams(1e-3, 0.8, 0.3), SETTINGS)
        start = tomography._start_states(SETTINGS, freqs[None])[0]
        monkeypatch.setattr(tomography, "_START_MIX", 0.0)
        estimate = tomography._start_states(SETTINGS, freqs[None])[0]
        group = SETTINGS.group_index
        f = freqs / (freqs @ (group[:, None] == group))
        assert np.min(SETTINGS.born_probabilities(estimate) / f) > 0.99
        assert helpers.likelihood_gap(freqs, estimate) > 1e-6
        assert np.max(np.abs(start - (0.999 * estimate + 0.001 * MIXED))) <= 1e-15

    def test_roundoff_level_weights_get_a_mixed_start(self):
        # some settings of (|HH> - |LL>)/sqrt(2) get Born weights of about 1e-17, the
        # roundoff of an exact 0; the estimate's probabilities there are roundoff
        # too, and without the mix they went nonpositive in the solver, which raised
        h, l = POLARIZATION_KETS["H"], POLARIZATION_KETS["L"]
        ket = np.kron(h, h) - np.kron(l, l)
        ket /= np.linalg.norm(ket)
        freqs = np.maximum(SETTINGS.born_probabilities(np.outer(ket, ket.conj())), 0.0)
        assert 0.0 < freqs[freqs > 0.0].min() < 1e-15
        start = tomography._start_states(SETTINGS, freqs[None])[0]
        assert np.linalg.eigvalsh(start)[0] >= tomography._START_MIX / 4.0 * (1.0 - 1e-9)
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
        _, gaps, iterations, stops = batch_fit((freqs / freqs.sum())[None], MIXED[None],
                                               max_iterations=100)
        assert stops.tolist() == ["cap"] and iterations.tolist() == [100]
        scalar = mle_reconstruct(freqs, SETTINGS, max_iterations=100, rho_start=MIXED)
        assert gaps[0] == pytest.approx(scalar.gap, rel=1e-6)

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
        # every path starts each row from the same state: the default one, or I/4
        # for the compare grid, whose default start certifies before any step
        if case == "compare_default":
            starts = np.repeat(MIXED[None], len(weights), axis=0)
        else:
            starts = tomography._start_states(SETTINGS, weights)
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

    @pytest.mark.parametrize("mle_kwargs", [{}, {"max_iterations": 150}])
    def test_report_matches_oracle_over_the_recorded_fits(self, dataset, monkeypatch,
                                                          mle_kwargs):
        fits = []
        real = tomography.mle_reconstruct

        def recorded(frequencies, settings, **kwargs):
            result = real(frequencies, settings, **kwargs)
            fits.append((np.array(frequencies), result))
            return result

        monkeypatch.setattr(tomography, "mle_reconstruct", recorded)
        samples = 30
        report = monte_carlo_uncertainty(dataset, samples, 5, **mle_kwargs)
        assert len(fits) == samples + 1 and np.array_equal(fits[0][0], dataset.counts)
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

    def test_unconverged_samples_are_counted_and_kept(self, dataset):
        report = monte_carlo_uncertainty(dataset, 4, 0, max_iterations=1)
        assert report.unconverged == 4
        assert report.samples == 4 and report.s_std > 0.0
        assert report.to_json_dict()["unconverged"] == 4

    def test_sample_count_guard(self, dataset):
        with pytest.raises(ValueError):
            monte_carlo_uncertainty(dataset, samples=1, seed=0)

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
