"""Property tests over random mixed states and random local unitaries.

Examples are derandomized and bounded in number, so a run is
deterministic and takes a few seconds.  The fits of random states and
of near-pure dephased states at low gain must certify and reproduce
their input probabilities, through both solver paths.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
from entqkd import (SourceParams, TomographySettings, bell_state, correlation_analysis,
                    evaluate_state, mle_reconstruct, optimal_bases, synthesize_frequencies,
                    tomography, verify_bases, waveplate_angles)
from entqkd.bases import ORDERINGS
from entqkd.states import POLARIZATION_KETS

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200, database=None)
#: each example runs three fits, so fewer of them
FITS = settings(derandomize=True, deadline=None, max_examples=12, database=None)
SETTINGS = TomographySettings.canonical()

_ENTRY = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
_ANGLE = st.floats(0.0, 2.0 * math.pi, allow_nan=False, allow_infinity=False)


@st.composite
def mixed_states(draw):
    """g g^dagger / Tr for a complex 4 x rank matrix g, rank 1 to 4."""
    rank = draw(st.integers(1, 4))
    parts = np.array(draw(st.lists(_ENTRY, min_size=8 * rank, max_size=8 * rank)))
    g = (parts[:4 * rank] + 1j * parts[4 * rank:]).reshape(4, rank)
    assume(np.linalg.norm(g) > 1e-3)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@st.composite
def dephased_low_gain_frequencies(draw):
    """Near-pure |phi+> with coherences scaled by C in [0.95, 0.999], at n_bar 1e-5 or 1e-4."""
    conc = draw(st.floats(0.95, 0.999))
    n_bar = draw(st.sampled_from([1e-5, 1e-4]))
    eta = draw(st.floats(0.1, 1.0))
    rho = bell_state("phi+")
    rho[0, 3] *= conc
    rho[3, 0] *= conc
    return synthesize_frequencies(rho, SourceParams(n_bar, eta, eta), SETTINGS)


#: the 36 product kets of the settings, in settings order
_PRODUCT_KETS = [np.kron(POLARIZATION_KETS[a], POLARIZATION_KETS[b]) for a, b in SETTINGS.pairs]


@st.composite
def weight_stacks(draw):
    """1 to 3 rows of 36 weights over 400 decades.

    A row holds random weights with some quadruples all zero, or the Born
    weights of a superposition of two product kets, whose exact zeros come
    out as zeros or as roundoff.
    """
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            row = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=36, max_size=36)))
            zeroed = draw(st.sets(st.integers(0, 8), max_size=9))
            row[np.isin(SETTINGS.group_index, list(zeroed))] = 0.0
        else:
            first, second = draw(st.lists(st.integers(0, 35), min_size=2, max_size=2,
                                          unique=True))
            ket = _PRODUCT_KETS[first] + draw(st.sampled_from([1, -1, 1j, -1j])) * (
                _PRODUCT_KETS[second])
            assume(np.linalg.norm(ket) > 1e-3)
            ket /= np.linalg.norm(ket)
            row = np.maximum(SETTINGS.born_probabilities(np.outer(ket, ket.conj())), 0.0)
        rows.append(row * 10.0 ** draw(st.integers(-200, 200)))
    return np.array(rows)


@st.composite
def unit_vectors(draw):
    v = np.array([draw(_ENTRY) for _ in range(3)])
    assume(np.linalg.norm(v) > 1e-3)
    return v / np.linalg.norm(v)


#: the Bloch vectors of H, V, D, A, R and L
_AXES = [np.array(v, dtype=float) for v in
         ([0, 0, 1], [0, 0, -1], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0])]


def _qubit_unitary(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Rz(alpha) Ry(beta) Rz(gamma), which covers SU(2)."""
    def rz(t):
        return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])
    c, s = math.cos(beta / 2.0), math.sin(beta / 2.0)
    return rz(alpha) @ np.array([[c, -s], [s, c]]) @ rz(gamma)


@st.composite
def local_unitaries(draw):
    return np.kron(_qubit_unitary(*(draw(_ANGLE) for _ in range(3))),
                   _qubit_unitary(*(draw(_ANGLE) for _ in range(3))))


@PROPERTY
@given(rho=mixed_states(), u=local_unitaries())
def test_figures_invariant_under_local_unitaries(rho, u):
    rotated = u @ rho @ u.conj().T
    rotated = (rotated + rotated.conj().T) / 2.0
    assert np.allclose(evaluate_state(rotated), evaluate_state(rho), rtol=0.0, atol=1e-9)


@PROPERTY
@given(rho=mixed_states())
def test_devetak_winter_rate_lies_in_unit_interval(rho):
    _, _, r_dw = evaluate_state(rho)
    assert 0.0 <= r_dw <= 1.0


@PROPERTY
@given(rho=mixed_states())
@pytest.mark.parametrize("ordering", ORDERINGS)
def test_optimal_bases_reproduce_s_and_q(rho, ordering):
    assume(correlation_analysis(rho).eigenvalues[0] > 1e-9)  # else no basis is preferred
    s, q, _ = evaluate_state(rho)
    s_achieved, q_achieved = verify_bases(rho, optimal_bases(rho, ordering))
    assert s_achieved == pytest.approx(s, abs=1e-9)
    assert q_achieved == pytest.approx(q, abs=1e-9)


@FITS
@given(rho=mixed_states(), dephased=dephased_low_gain_frequencies())
def test_fits_certify_and_recover_the_probabilities(rho, dephased):
    # certify or refuse: a converged fit carries its certificate and reproduces
    # its input.  A state whose optimum leaves settings at zero can meet the
    # floating-point floor first, near 1e-9 and on every solver path sometimes
    # above 1e-8, and one whose frequencies span 270 decades can fail
    # outright; both are refused.  Every fit starts from I/4, where the
    # boundary guard acts: at their default start exact frequencies of a
    # state certify before any step
    born = np.maximum(SETTINGS.born_probabilities(rho), 0.0)  # roundoff can dip below 0
    stack = np.array([born, dephased])
    weights = stack / stack.sum(axis=1, keepdims=True)
    mixed = np.eye(4, dtype=complex) / 4.0
    rhos, gaps, _, stops = tomography._accelerated_ascent_batch(
        SETTINGS.projectors_real, weights, np.array([mixed, mixed]), 1e-10, 10000)
    singles = [mle_reconstruct(freqs, SETTINGS, rho_start=mixed) for freqs in stack]
    assert stops[1] == "gap" and singles[1].stop == "gap"
    for freqs, w, single, batched, gap, stop in zip(stack, weights, singles, rhos, gaps, stops):
        for fit, fit_gap, fit_stop in ((single.rho, single.gap, single.stop),
                                       (batched, gap, stop)):
            if tomography._certified(fit_stop, fit_gap):
                assert helpers.likelihood_gap(freqs, fit) <= helpers.GAP_ROUNDOFF + (
                    1e-10 if fit_stop == "gap" else 1e-8)
                # every complementary quadruple of w sums to 1/9
                assert np.max(np.abs(SETTINGS.born_probabilities(fit) - 9.0 * w)) <= 1e-4


@PROPERTY
@given(w=weight_stacks())
def test_start_states_are_interior_density_matrices(w):
    # a start is the estimate when that is certified already, and otherwise
    # mixes in I/4; a certified start has lambda_max(R) <= 1 + 1e-10, so every
    # setting with weight keeps a probability of at least its normalized weight
    # over 1 + 1e-10
    for start, row_w in zip(tomography._start_states(SETTINGS, w), w):
        assert np.array_equal(start, start.conj().T)
        assert np.trace(start).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(start)[0] >= -1e-14
        mixed = np.linalg.eigvalsh(start)[0] >= tomography._START_MIX / 4.0 * (1.0 - 1e-9)
        assert mixed or helpers.likelihood_gap(row_w, start) <= 1e-10 + helpers.GAP_ROUNDOFF
        # a kept estimate's probabilities are above 1e-13, so 1 % allows for the
        # roundoff of two Born products of one state
        observed = row_w > 0.0
        floor = np.minimum(row_w[observed] / row_w.sum(), tomography._START_MIX / 4.0)
        assert np.all(SETTINGS.born_probabilities(start)[observed] >= 0.99 * floor)


@PROPERTY
@given(v=st.one_of(st.sampled_from(_AXES), unit_vectors()))
def test_waveplate_dials_realize_the_projector(v):
    dials = waveplate_angles(v)
    realized = helpers.analyzer_projector(dials.theta_q, dials.theta_h)
    assert np.max(np.abs(realized - helpers.bloch_projector_direct(v))) <= 1e-9
