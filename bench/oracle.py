"""Independent reference values for the benchmark's output checks.

Nothing here imports ``entqkd``.  Expectation values come from explicit
traces against freshly built Kronecker products, the CHSH value and
QBER from this module's own Pauli correlation tensor, the
Devetak-Winter rate from its own binary entropy, the multi-pair noise
weight from the printed five-term closed form, coincidence rates from
the literal Poisson series, and waveplate projectors from Jones
matrices.  Conventions follow the package README: basis order |HH>,
|HV>, |VH>, |VV>, R = (|H> + i|V>)/sqrt(2), tomography settings in
row-major H, V, D, A, R, L order.
"""

from __future__ import annotations

import math

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SX, SY, SZ)
TSIRELSON = 2.0 * math.sqrt(2.0)

LABELS = ("H", "V", "D", "A", "R", "L")
_S2 = 1.0 / math.sqrt(2.0)
KETS = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "D": np.array([_S2, _S2], dtype=complex),
    "A": np.array([_S2, -_S2], dtype=complex),
    "R": np.array([_S2, 1j * _S2], dtype=complex),
    "L": np.array([_S2, -1j * _S2], dtype=complex),
}
#: Orthogonal partner of each tomography state.
PARTNER = {"H": "V", "V": "H", "D": "A", "A": "D", "R": "L", "L": "R"}
#: Canonical order of the 36 settings.
PAIRS = tuple((a, b) for a in LABELS for b in LABELS)
_AXIS = {"H": 0, "V": 0, "D": 1, "A": 1, "R": 2, "L": 2}


def projector(ket: np.ndarray) -> np.ndarray:
    return np.outer(ket, ket.conj())


def setting_projectors() -> np.ndarray:
    """(36, 4, 4) two-photon projectors in canonical order."""
    return np.array([projector(np.kron(KETS[a], KETS[b])) for a, b in PAIRS])


_PROJECTORS = setting_projectors()


def correlation_tensor(rho: np.ndarray) -> np.ndarray:
    """T[i, j] = Tr[rho (sigma_i (x) sigma_j)]."""
    return np.array([[np.trace(rho @ np.kron(si, sj)).real for sj in PAULIS]
                     for si in PAULIS])


def chsh_qber(rho: np.ndarray) -> tuple[float, float]:
    """(S, Q) = (2 sqrt(l1 + l2), (1 - sqrt(l1)) / 2) from eig(T^T T).

    The eigenvalues of T^T T lie in [0, 1] for every state; they are
    clipped to that range so roundoff cannot leave it.
    """
    t = correlation_tensor(rho)
    lam = np.sort(np.clip(np.linalg.eigvalsh(t.T @ t), 0.0, 1.0))[::-1]
    return 2.0 * math.sqrt(lam[0] + lam[1]), (1.0 - math.sqrt(lam[0])) / 2.0


def h2(q: float) -> float:
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def devetak_winter_raw(s: float, q: float) -> float:
    """Unclamped rate; the Holevo term is pinned at 1 below S = 2."""
    s = min(s, TSIRELSON)
    return 1.0 - h2(q) - h2((1.0 + math.sqrt(max(s * s / 4.0 - 1.0, 0.0))) / 2.0)


def devetak_winter(s: float, q: float) -> float:
    """Clamped rate: 0 without a CHSH violation, never negative."""
    if s <= 2.0:
        return 0.0
    return max(0.0, devetak_winter_raw(s, q))


def werner_closed_form(kappa: float) -> tuple[float, float]:
    """(S, Q) of a maximally entangled state mixed with white noise of weight kappa."""
    return TSIRELSON * (1.0 - kappa), kappa / 2.0


def pure_closed_form(ket: np.ndarray) -> tuple[float, float]:
    """(S, Q) of a pure two-qubit state: 2 sqrt(1 + C^2) and 0, C = 2|det psi|."""
    a = np.asarray(ket).reshape(2, 2)
    conc = 2.0 * abs(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    return 2.0 * math.sqrt(1.0 + conc * conc), 0.0


def kappa_printed(n_bar: float, eta_a: float, eta_b: float) -> float:
    """White-noise weight from the printed five-term form, term by term."""
    x = math.exp(eta_a * n_bar / 2.0)
    y = math.exp(eta_b * n_bar / 2.0)
    return (2.0 * (x - 1.0) * (y - 1.0)
            / (1.0 - 2.0 * x - 2.0 * y + math.exp(eta_a * eta_b * n_bar / 2.0)
               + 2.0 * math.exp((eta_a + eta_b) * n_bar / 2.0)))


def poisson_series(p10: float, p01: float, p00: float, n_bar: float) -> float:
    """sum_n P(n; n_bar) [1 - A^n - B^n + D^n], summed literally.

    Terms are in [0, 1] times the Poisson weight, so the sum stops once
    the weight has fallen below 1e-20 past the mode.
    """
    a, b, d = p10 + p00, p01 + p00, p00
    pmf = math.exp(-n_bar)
    total, n = 0.0, 0
    while n <= n_bar or pmf > 1e-20:
        n += 1
        pmf *= n_bar / n
        total += pmf * (1.0 - a ** n - b ** n + d ** n)
    return total


def bell_coincidence_rate(n_bar: float, eta_a: float, eta_b: float) -> float:
    """Detected pairs per window for a source emitting one photon per arm and pair."""
    return poisson_series(eta_a * (1.0 - eta_b), (1.0 - eta_a) * eta_b,
                          (1.0 - eta_a) * (1.0 - eta_b), n_bar)


def werner_mix(rho: np.ndarray, kappa: float) -> np.ndarray:
    return (1.0 - kappa) * rho + kappa * np.eye(4) / 4.0


def phi_plus_ket() -> np.ndarray:
    return np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2.0)


def coincidence_probabilities(rho0: np.ndarray, n_bar: float,
                              eta_a: float, eta_b: float) -> np.ndarray:
    """Per-window coincidence probability of every setting under multi-pair emission.

    A pair leaves both photons with probability eA eB, then clicks by
    the two-photon Born rule; with one photon lost, the other clicks by
    its reduced state.  The window is dark on a side only if that side
    stays dark for every emitted pair.
    """
    r4 = rho0.reshape(2, 2, 2, 2)
    rho_a = np.einsum("ikjk->ij", r4)
    rho_b = np.einsum("kikj->ij", r4)
    out = np.empty(36)
    for k, (a, b) in enumerate(PAIRS):
        pa, pb = projector(KETS[a]), projector(KETS[b])
        qa, qb = projector(KETS[PARTNER[a]]), projector(KETS[PARTNER[b]])

        def joint(x, y):
            return np.trace(rho0 @ np.kron(x, y)).real

        p10 = eta_a * eta_b * joint(pa, qb) + eta_a * (1 - eta_b) * np.trace(rho_a @ pa).real
        p01 = eta_a * eta_b * joint(qa, pb) + (1 - eta_a) * eta_b * np.trace(rho_b @ pb).real
        p00 = (eta_a * eta_b * joint(qa, qb) + eta_a * (1 - eta_b) * np.trace(rho_a @ qa).real
               + (1 - eta_a) * eta_b * np.trace(rho_b @ qb).real
               + (1 - eta_a) * (1 - eta_b))
        out[k] = poisson_series(p10, p01, p00, n_bar)
    return out


def rate_from_counts(counts, n_windows: float) -> float:
    """Coincidences per window: mean of the nine complementary quadruple sums."""
    sums = np.zeros((3, 3))
    for (a, b), c in zip(PAIRS, counts):
        sums[_AXIS[a], _AXIS[b]] += float(c)
    return float(sums.mean() / n_windows)


def duality_gap(frequencies, rho: np.ndarray) -> float:
    """lambda_max(R) - 1 with R = sum_k (c_k / p_k) Pi_k and c normalized.

    Zero exactly at the likelihood maximum; an upper bound on the
    remaining log-likelihood per count (Glancy, Knill & Girard 2012).
    """
    c = np.asarray(frequencies, dtype=float)
    c = c / c.sum()
    p = np.einsum("kij,ji->k", _PROJECTORS, rho).real
    mask = c > 0
    r_op = np.einsum("k,kij->ij", c[mask] / p[mask], _PROJECTORS[mask])
    return float(np.linalg.eigvalsh(r_op)[-1] - 1.0)


def bloch_operator(x) -> np.ndarray:
    return x[0] * SX + x[1] * SY + x[2] * SZ


def chsh_of_bases(tensor: np.ndarray, a0, a1, a2, b1, b2,
                  alice_first: bool) -> tuple[float, float]:
    """CHSH polynomial and QBER achieved by explicit Bloch directions.

    ``tensor`` is ``correlation_tensor(rho)``, so E(x, y) = x . T y with
    x on the first tensor factor; with ``alice_first`` false the first
    factor is Bob's.
    """
    def e(x, y):
        return float(x @ tensor @ y) if alice_first else float(y @ tensor @ x)
    s = e(a1, b1) + e(a1, b2) + e(a2, b1) - e(a2, b2)
    return s, (1.0 - e(a0, b1)) / 2.0


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def analyzer_projector(theta_q: float, theta_h: float) -> np.ndarray:
    """Projector of HWP(theta_h) then QWP(theta_q) then the horizontal PBS output."""
    hwp = _rotation(theta_h) @ np.diag([1.0, -1.0]).astype(complex) @ _rotation(-theta_h)
    qwp = _rotation(theta_q) @ np.diag([1.0, -1.0j]) @ _rotation(-theta_q)
    ket = (qwp @ hwp).conj().T @ np.array([1.0, 0.0], dtype=complex)
    return projector(ket)


def bloch_projector(x) -> np.ndarray:
    return (np.eye(2, dtype=complex) + bloch_operator(x)) / 2.0


def random_unitary(rng) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_state(rng, rank: int) -> np.ndarray:
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def bell_key_rate(n_bar: float, eta_a: float, eta_b: float) -> float:
    """Key bits per window of the maximally entangled CW source."""
    s, q = werner_closed_form(kappa_printed(n_bar, eta_a, eta_b))
    return devetak_winter(s, q) * bell_coincidence_rate(n_bar, eta_a, eta_b)


def maximize(f, lo: float, hi: float, points: int = 2001, zooms: int = 8) -> float:
    """Argmax of f on [lo, hi] by a dense grid, then repeated zoomed grids."""
    for _ in range(zooms):
        grid = np.linspace(lo, hi, points)
        i = int(np.argmax([f(x) for x in grid]))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, points - 1)]
        points = 41
    return 0.5 * (lo + hi)
