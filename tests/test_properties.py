"""Property tests over random mixed states and random local unitaries.

Examples are derandomized and bounded in number, so a run is
deterministic and takes a few seconds.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entqkd import correlation_analysis, evaluate_state, optimal_bases, verify_bases
from entqkd.bases import ORDERINGS

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200, database=None)

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
