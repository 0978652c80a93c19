"""Two-qubit states, Pauli algebra, and correlation-tensor analysis.

Conventions used throughout the package:

* The two-qubit basis is ordered |HH>, |HV>, |VH>, |VV| with the first
  factor belonging to Alice unless an operation says otherwise.
* sigma_1 = sigma_x, sigma_2 = sigma_y, sigma_3 = sigma_z, and |H>, |V>
  are the +1/-1 eigenvectors of sigma_z.  The six tomography states map
  to Bloch vectors H=(0,0,1), V=(0,0,-1), D=(1,0,0), A=(-1,0,0),
  R=(0,1,0), L=(0,-1,0), with R = (|H> + i|V>)/sqrt(2).
* The correlation tensor T has rows indexed by Alice's Pauli and columns
  by Bob's: T[i, j] = Tr[rho (sigma_i (x) sigma_j)].
* Eigenvectors of U = T^T T are normalized with their first component of
  magnitude above 1e-12 made positive, so results are reproducible even
  though eigenvectors are only defined up to sign.
* ``fidelity`` uses the square-root (unsquared) Uhlmann convention
  F = Tr sqrt(sqrt(rho) sigma sqrt(rho)); for pure states this is
  |<a|b>|, and F(Bell, I/4) = 0.5.

All functions are pure and never mutate their arguments; module-level
constant arrays are marked read-only so they can be shared freely across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import check_range

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = -1e-10

_I2 = np.eye(2, dtype=complex)
_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_KET_H = np.array([1, 0], dtype=complex)
_KET_V = np.array([0, 1], dtype=complex)
_KET_D = np.array([1, 1], dtype=complex) / np.sqrt(2)
_KET_A = np.array([1, -1], dtype=complex) / np.sqrt(2)
_KET_R = np.array([1, 1j], dtype=complex) / np.sqrt(2)
_KET_L = np.array([1, -1j], dtype=complex) / np.sqrt(2)

#: Kets of the six tomography states, keyed by polarization label.
POLARIZATION_KETS = {
    "H": _KET_H, "V": _KET_V, "D": _KET_D, "A": _KET_A, "R": _KET_R, "L": _KET_L,
}

#: Bloch vectors of the six tomography states.
POLARIZATION_BLOCH = {
    "H": np.array([0.0, 0.0, 1.0]),
    "V": np.array([0.0, 0.0, -1.0]),
    "D": np.array([1.0, 0.0, 0.0]),
    "A": np.array([-1.0, 0.0, 0.0]),
    "R": np.array([0.0, 1.0, 0.0]),
    "L": np.array([0.0, -1.0, 0.0]),
}

BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")

MAXIMALLY_MIXED = np.eye(4, dtype=complex) / 4.0

# P.reshape(16) = _PAULI_TABLE_REAL @ rho.reshape(16).view(float) for Hermitian rho,
# with P[mu, nu] = Tr[rho (sigma_mu (x) sigma_nu)] and mu, nu running over I, x, y, z
_PAULI_TABLE_REAL = np.ascontiguousarray(
    [np.kron(a, b).reshape(16) for a in (_I2, _SIGMA_X, _SIGMA_Y, _SIGMA_Z)
     for b in (_I2, _SIGMA_X, _SIGMA_Y, _SIGMA_Z)]).view(np.float64)

for _arr in (_I2, _SIGMA_X, _SIGMA_Y, _SIGMA_Z, MAXIMALLY_MIXED, _PAULI_TABLE_REAL,
             *POLARIZATION_KETS.values(), *POLARIZATION_BLOCH.values()):
    _arr.flags.writeable = False


def pauli(i: int) -> np.ndarray:
    """Return the Pauli matrix sigma_i for i in {1, 2, 3} (x, y, z)."""
    if i == 1:
        return _SIGMA_X
    if i == 2:
        return _SIGMA_Y
    if i == 3:
        return _SIGMA_Z
    raise ValueError(f"Pauli index must be 1, 2 or 3, got {i!r}")


def ket_to_dm(ket: np.ndarray) -> np.ndarray:
    """Projector |ket><ket| for a normalized state vector."""
    ket = np.asarray(ket, dtype=complex)
    return np.outer(ket, ket.conj())


def bloch_to_ket(x) -> np.ndarray:
    """Unit Bloch vector -> +1 eigenvector of x . sigma.

    The global phase is fixed by making the first nonvanishing component
    real and positive.
    """
    x = np.asarray(x, dtype=float)
    op = x[0] * _SIGMA_X + x[1] * _SIGMA_Y + x[2] * _SIGMA_Z
    _, vecs = np.linalg.eigh(op)
    ket = vecs[:, 1]  # eigenvalues ascending, +1 is last
    idx = 0 if abs(ket[0]) > 1e-9 else 1
    ket = ket * np.exp(-1j * np.angle(ket[idx]))
    return ket


def bloch_projector(x) -> np.ndarray:
    """Projector (I + x . sigma)/2 onto the +1 eigenstate of x . sigma."""
    x = np.asarray(x, dtype=float)
    return (_I2 + x[0] * _SIGMA_X + x[1] * _SIGMA_Y + x[2] * _SIGMA_Z) / 2.0


def bell_state(kind: str) -> np.ndarray:
    """Density matrix of one of the four Bell states.

    ``kind`` is one of "phi+", "phi-", "psi+", "psi-", with
    |phi+-> = (|HH> +- |VV>)/sqrt(2) and |psi+-> = (|HV> +- |VH>)/sqrt(2).
    """
    if kind not in BELL_LABELS:
        raise ValueError(f"unknown Bell label {kind!r}, expected one of {BELL_LABELS}")
    sign = 1.0 if kind.endswith("+") else -1.0
    if kind.startswith("phi"):
        ket = (np.kron(_KET_H, _KET_H) + sign * np.kron(_KET_V, _KET_V)) / np.sqrt(2)
    else:
        ket = (np.kron(_KET_H, _KET_V) + sign * np.kron(_KET_V, _KET_H)) / np.sqrt(2)
    return ket_to_dm(ket)


def validate_density_matrix(rho, name: str = "rho") -> np.ndarray:
    """Check finiteness, Hermiticity, unit trace, and positivity; return as complex array.

    Eigenvalues are allowed to dip to -1e-10 (tomography and Monte-Carlo
    perturbations produce tiny negatives); anything lower is rejected.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"{name} must be a 4x4 matrix, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError(f"{name} has non-finite entries")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise ValueError(f"{name} is not Hermitian within {HERMITICITY_TOL}")
    trace = np.trace(rho)
    if abs(trace.real - 1.0) > TRACE_TOL or abs(trace.imag) > TRACE_TOL:
        raise ValueError(f"{name} does not have unit trace")
    if np.linalg.eigvalsh(rho).min() < PSD_TOL:
        raise ValueError(f"{name} has an eigenvalue below {PSD_TOL}")
    return rho


def werner_mix(rho_b: np.ndarray, kappa: float) -> np.ndarray:
    """Mix a state with white noise: (1 - kappa) rho_b + kappa I/4."""
    check_range("kappa", kappa, 0.0, 1.0)
    rho_b = validate_density_matrix(rho_b, name="rho_b")
    return (1.0 - kappa) * rho_b + kappa * np.asarray(MAXIMALLY_MIXED)


def partial_trace(rho: np.ndarray, keep: str) -> np.ndarray:
    """Reduced one-qubit state, tracing out Bob (keep="A") or Alice (keep="B")."""
    r4 = validate_density_matrix(rho).reshape(2, 2, 2, 2)
    if keep == "A":
        return np.einsum("ikjk->ij", r4)
    if keep == "B":
        return np.einsum("kikj->ij", r4)
    raise ValueError(f'keep must be "A" or "B", got {keep!r}')


@dataclass(frozen=True)
class CorrelationAnalysis:
    """Correlation tensor T, U = T^T T, and sorted eigensystem of U.

    ``eigenvectors`` holds e1, e2, e3 as columns, matching the descending
    ``eigenvalues``; signs follow the first-nonzero-positive convention.
    """

    tensor: np.ndarray
    matrix_u: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        for arr in (self.tensor, self.matrix_u, self.eigenvalues, self.eigenvectors):
            arr.flags.writeable = False


def _pauli_components(rho: np.ndarray) -> np.ndarray:
    """Real P[mu, nu] = Tr[rho (sigma_mu (x) sigma_nu)], mu, nu over I, x, y, z.

    ``rho`` has shape (..., 4, 4) and must be Hermitian (the caller
    validates it); the result has shape (..., 4, 4).  P[0, 0] is the
    trace, P[1:, 0] and P[0, 1:] are Alice's and Bob's Bloch vectors, and
    P[1:, 1:] is the correlation tensor T.  A stack takes one
    matrix-vector product per state, so every state's components equal
    those of the state alone, bit for bit.
    """
    lead = np.shape(rho)[:-2]
    flat = np.ascontiguousarray(rho, dtype=complex).reshape(*lead, 16).view(np.float64)
    return (_PAULI_TABLE_REAL @ flat[..., None]).reshape(*lead, 4, 4)


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    for comp in vec:
        if abs(comp) > 1e-12:
            return -vec if comp < 0 else vec
    return vec


def _correlation_eigensystems(rhos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """T, eigenvalues and eigenvectors of T^T T for a (B, 4, 4) stack of valid states.

    One Pauli-table product and one batched ``eigh``.  The eigenvalues
    are sorted descending and clipped to [0, 1]: U is positive
    semidefinite and, for a state, no eigenvalue exceeds 1, so only
    roundoff lies outside.  ``eigh`` returns them ascending, so reversing
    the last axis sorts both them and the eigenvector columns.  Signs are
    left as ``eigh`` returns them; every row equals the analysis of its
    state alone, bit for bit.
    """
    tensors = _pauli_components(rhos)[:, 1:, 1:]
    vals, vecs = np.linalg.eigh(tensors.swapaxes(1, 2) @ tensors)
    return tensors, np.clip(vals[:, ::-1], 0.0, 1.0), vecs[:, :, ::-1]


def correlation_analysis(rho: np.ndarray) -> CorrelationAnalysis:
    """Compute T[i,j] = Tr[rho (sigma_i (x) sigma_j)] and diagonalize T^T T.

    Validates rho and runs ``_correlation_eigensystems`` on it alone,
    the analysis that ``metrics`` reads S and Q from, then applies the
    sign convention to the eigenvectors.

    Returns
    -------
    CorrelationAnalysis
        Eigenvalues sorted descending and clipped to [0, 1].
    """
    tensors, vals, vecs = _correlation_eigensystems(validate_density_matrix(rho)[None])
    tensor, vecs = tensors[0], vecs[0]
    for k in range(3):
        vecs[:, k] = _fix_sign(vecs[:, k])
    return CorrelationAnalysis(tensor, tensor.T @ tensor, vals[0], vecs)


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit state.

    C = max(0, mu1 - mu2 - mu3 - mu4) where mu_i are the descending
    square roots of the eigenvalues of rho (sy (x) sy) rho* (sy (x) sy).
    """
    rho = validate_density_matrix(rho)
    yy = np.kron(_SIGMA_Y, _SIGMA_Y)
    m = rho @ yy @ rho.conj() @ yy
    # eigenvalues of a product of PSD matrices are real nonnegative up to noise
    vals = np.sort(np.abs(np.linalg.eigvals(m).real))[::-1]
    mu = np.sqrt(vals)
    return float(max(0.0, mu[0] - mu[1] - mu[2] - mu[3]))


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity F = Tr sqrt(sqrt(rho) sigma sqrt(rho)).

    This is the square-root (unsquared) convention: F(rho, rho) = 1,
    F is symmetric, F of orthogonal pure states is 0, and
    F(Bell, I/4) = 0.5.  Tests pin this convention.
    """
    rho = validate_density_matrix(rho)
    sigma = validate_density_matrix(sigma, name="sigma")
    sq = _psd_sqrt(rho)
    inner = np.clip(np.linalg.eigvalsh(sq @ sigma @ sq), 0.0, None)
    return float(min(1.0, np.sum(np.sqrt(inner))))
