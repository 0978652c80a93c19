"""Shared test oracles, independent of the library code paths they check.

Expectation values here are evaluated by explicit operator traces with
freshly built Kronecker products, the CHSH/QBER optima by grid search
plus local refinement over Bloch directions, the Poisson mixture by
literal series summation, and the waveplate check by Jones-matrix
propagation.  The source-model oracles take the white-noise weight from
the paper's printed five-term closed form (not the library's expm1
rewrite), the coincidence rate from the literal series and, where it
cancels at small gains or transmittances, from 80-digit decimal
arithmetic, the Werner-state
Devetak-Winter rate from their own binary entropy, and the gain optimum
from a dense grid refined by a bounded scalar search.  None of these
reuse the closed forms or the optimizer under test.
"""

from __future__ import annotations

import decimal
import math
import statistics

import numpy as np
from scipy.optimize import brentq, minimize, minimize_scalar

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SX, SY, SZ)
#: roundoff between ``likelihood_gap`` and a solver's own gap at the same state,
#: a few 1e-15; a fit stopped at 9.9999e-11 can read 1.00004e-10 here
GAP_ROUNDOFF = 1e-14


def random_density_matrix(rng, rank: int = 4, dim: int = 4) -> np.ndarray:
    """Hilbert-Schmidt-style random state of the given rank."""
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unit_vector(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_single_qubit_unitary(rng) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def bloch_operator(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x[0] * SX + x[1] * SY + x[2] * SZ


def correlation_along(rho: np.ndarray, a, b) -> float:
    """E(a, b) = Tr[rho (a.sigma (x) b.sigma)], built from scratch."""
    return np.trace(rho @ np.kron(bloch_operator(a), bloch_operator(b))).real


def correlation_tensor_direct(rho: np.ndarray) -> np.ndarray:
    """T[i, j] = Tr[rho (sigma_i (x) sigma_j)], one Kronecker product and trace each."""
    return np.array([[np.trace(rho @ np.kron(a, b)).real for b in PAULIS] for a in PAULIS])


def _conditional_bloch(rho: np.ndarray, b) -> np.ndarray:
    return np.array([np.trace(rho @ np.kron(s, bloch_operator(b))).real for s in PAULIS])


def _sphere_grid(n_theta: int, n_phi: int) -> np.ndarray:
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    t, p = np.meshgrid(thetas, phis, indexing="ij")
    return np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)],
                    axis=-1).reshape(-1, 3)


def _angles_of(v) -> list:
    return [math.acos(min(1.0, max(-1.0, v[2]))), math.atan2(v[1], v[0])]


def _dir_of(theta, phi) -> np.ndarray:
    return np.array([math.sin(theta) * math.cos(phi),
                     math.sin(theta) * math.sin(phi),
                     math.cos(theta)])


def chsh_max_brute(rho: np.ndarray, n_theta: int = 16, n_phi: int = 32) -> float:
    """Exhaustive maximization of the CHSH polynomial over Bloch directions.

    For fixed Bob directions the optimal Alice directions follow from
    Cauchy-Schwarz (a parallel to the conditional Bloch image), so only
    the (b1, b2) pair is searched: coarse grid, then Nelder-Mead.
    """
    dirs = _sphere_grid(n_theta, n_phi)
    images = np.array([_conditional_bloch(rho, b) for b in dirs])
    plus = np.linalg.norm(images[:, None, :] + images[None, :, :], axis=-1)
    minus = np.linalg.norm(images[:, None, :] - images[None, :, :], axis=-1)
    score = plus + minus
    i, j = np.unravel_index(np.argmax(score), score.shape)

    def negative(x):
        v1 = _conditional_bloch(rho, _dir_of(x[0], x[1]))
        v2 = _conditional_bloch(rho, _dir_of(x[2], x[3]))
        return -(np.linalg.norm(v1 + v2) + np.linalg.norm(v1 - v2))

    start = _angles_of(dirs[i]) + _angles_of(dirs[j])
    res = minimize(negative, start, method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 4000})
    return max(float(score[i, j]), -float(res.fun))


def qber_min_brute(rho: np.ndarray, n_theta: int = 16, n_phi: int = 32) -> float:
    """Exhaustive minimization of the QBER over Bloch direction pairs.

    For a fixed second direction the optimal first one is parallel to
    the conditional Bloch image, leaving Q = (1 - |image|)/2 to be
    minimized over one sphere.
    """
    dirs = _sphere_grid(n_theta, n_phi)
    norms = np.array([np.linalg.norm(_conditional_bloch(rho, b)) for b in dirs])
    i = int(np.argmax(norms))

    def negative(x):
        return -np.linalg.norm(_conditional_bloch(rho, _dir_of(x[0], x[1])))

    res = minimize(negative, _angles_of(dirs[i]), method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 2000})
    best = max(norms[i], -float(res.fun))
    return (1.0 - best) / 2.0


def likelihood_gap(frequencies, rho: np.ndarray) -> float:
    """lambda_max(R) - 1 with R = sum_k (c_k / p_k) Pi_k over the 36 canonical pairs.

    c is normalized and the sum runs over the settings with counts.  The
    projectors are built here from kets and Kronecker products, in the
    row-major H, V, D, A, R, L order; the gap bounds the log-likelihood
    per count that any state could still add (Glancy, Knill & Girard 2012).
    """
    c = np.asarray(frequencies, dtype=float)
    c = c / c.sum()
    r_op = np.zeros((4, 4), dtype=complex)
    for c_k, proj in zip(c, _canonical_projectors()):
        if c_k > 0.0:
            r_op += c_k / np.trace(rho @ proj).real * proj
    return float(np.linalg.eigvalsh(r_op)[-1] - 1.0)


def _canonical_projectors() -> list:
    """The 36 product projectors in the row-major H, V, D, A, R, L order, from kets."""
    s2 = 1.0 / math.sqrt(2.0)
    kets = [np.array(v, dtype=complex) for v in
            ([1, 0], [0, 1], [s2, s2], [s2, -s2], [s2, 1j * s2], [s2, -1j * s2])]
    products = [np.kron(a, b) for a in kets for b in kets]
    return [np.outer(ket, ket.conj()) for ket in products]


def newton_step(frequencies, rho: np.ndarray) -> np.ndarray:
    """rho after one full Newton step of sum_k c_k log Tr[rho Pi_k] at unit trace.

    c is normalized and the sum runs over the settings with counts.  The
    step is taken in the coordinates of 15 traceless Hermitian matrices
    built from matrix units, not Pauli products: a full Newton step does
    not depend on the affine coordinates it is taken in.
    """
    basis = []
    for i in range(4):
        for j in range(i + 1, 4):
            unit = np.zeros((4, 4), dtype=complex)
            unit[i, j] = 1.0
            basis += [unit + unit.T, 1j * unit - 1j * unit.T]
    for i in range(3):
        basis.append(np.diag([1.0 if k == i else -1.0 if k == 3 else 0.0
                              for k in range(4)]).astype(complex))
    c = np.asarray(frequencies, dtype=float)
    c = c / c.sum()
    projectors = [proj for c_k, proj in zip(c, _canonical_projectors()) if c_k > 0.0]
    c = c[c > 0.0]
    p = np.array([np.trace(rho @ proj).real for proj in projectors])
    a = np.array([[np.trace(b @ proj).real for b in basis] for proj in projectors])
    step = np.linalg.solve(a.T @ np.diag(c / p ** 2) @ a, a.T @ (c / p))
    return rho + sum(coef * b for coef, b in zip(step, basis))


def project_onto_density_matrices(h: np.ndarray) -> np.ndarray:
    """Nearest density matrix to the Hermitian h in Frobenius norm.

    The eigenvalues are projected onto the probability simplex by the
    sort-based rule: sorted in descending order, the threshold is set by
    the last of them that stays above (its running sum - 1) / its rank,
    and every eigenvalue is lowered by it and clipped at 0 (Held, Wolfe
    & Crowder 1974).  The result is assembled from the eigenvectors.
    """
    vals, vecs = np.linalg.eigh(h)
    ordered = sorted(vals.tolist(), reverse=True)
    total, threshold = 0.0, 0.0
    for rank, val in enumerate(ordered, start=1):
        total += val
        if val - (total - 1.0) / rank > 0.0:
            threshold = (total - 1.0) / rank
    clipped = [max(val - threshold, 0.0) for val in vals.tolist()]
    return sum(weight * np.outer(vecs[:, i], vecs[:, i].conj())
               for i, weight in enumerate(clipped))


def coincidence_series(p11: float, p10: float, p01: float, p00: float,
                       n_bar: float, tail: float = 1e-15) -> float:
    """Literal Poisson-mixture sum, truncated once the tail is below ``tail``."""
    a = p10 + p00
    b = p01 + p00
    d = p00
    pmf = math.exp(-n_bar)
    cumulative = pmf
    total = 0.0  # n = 0 term vanishes
    n = 0
    while cumulative < 1.0 - tail and n < 100000:
        n += 1
        pmf *= n_bar / n
        cumulative += pmf
        total += pmf * (1.0 - a ** n - b ** n + d ** n)
    return total


def kappa_printed(n_bar: float, eta_a: float, eta_b: float) -> float:
    """White-noise weight from the printed closed form, term by term.

        2 (e^{eA n/2}-1)(e^{eB n/2}-1) /
        (1 - 2 e^{eA n/2} - 2 e^{eB n/2} + e^{eA eB n/2} + 2 e^{(eA+eB) n/2})

    Undefined (0/0) at n_bar = 0 or at zero transmittance.
    """
    x = math.exp(eta_a * n_bar / 2.0)
    y = math.exp(eta_b * n_bar / 2.0)
    numerator = 2.0 * (x - 1.0) * (y - 1.0)
    denominator = (1.0 - 2.0 * x - 2.0 * y + math.exp(eta_a * eta_b * n_bar / 2.0)
                   + 2.0 * math.exp((eta_a + eta_b) * n_bar / 2.0))
    return numerator / denominator


def bell_coincidence_rate(n_bar: float, eta_a: float, eta_b: float) -> float:
    """Detected pairs per window by the literal series.

    Every pair puts one photon in each arm, so per pair the arm-level
    click pattern probabilities are products of the transmittances.
    """
    return coincidence_series(eta_a * eta_b, eta_a * (1.0 - eta_b),
                              (1.0 - eta_a) * eta_b, (1.0 - eta_a) * (1.0 - eta_b),
                              n_bar)


def coincidence_decimal(p11: float, p10: float, p01: float, n_bar: float) -> float:
    """1 - e^{-n(p11+p01)} - e^{-n(p11+p10)} + e^{-n(p11+p10+p01)} in 80-digit decimals.

    The inputs convert to decimals exactly.  The four terms cancel to
    about n p11 + n^2 (p11+p01)(p11+p10), so while that stays above
    1e-60 more than 20 digits survive.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        p11, p10, p01, n = (decimal.Decimal(v) for v in (p11, p10, p01, n_bar))
        rate = (1 - (-n * (p11 + p01)).exp() - (-n * (p11 + p10)).exp()
                + (-n * (p11 + p10 + p01)).exp())
        return float(rate)


def bell_coincidence_rate_decimal(n_bar: float, eta_a: float, eta_b: float) -> float:
    """1 - e^{-eA n} - e^{-eB n} + e^{-(eA+eB-eA eB) n} in 80-digit decimal arithmetic.

    The inputs convert to decimals exactly, and the four terms cancel to
    about n eA eB, so while that stays above 1e-60 more than 20 digits
    survive.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        n, ea, eb = (decimal.Decimal(v) for v in (n_bar, eta_a, eta_b))
        rate = 1 - (-ea * n).exp() - (-eb * n).exp() + (-(ea + eb - ea * eb) * n).exp()
        return float(rate)


def binary_entropy_bits(q: float) -> float:
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def devetak_winter_bits(s: float, q: float, clamp: bool = True) -> float:
    """Devetak-Winter rate 1 - h(Q) - h((1 + sqrt((S/2)^2 - 1)) / 2) in bits.

    Clamped, the rate is 0 without a CHSH violation and never negative;
    unclamped, the Holevo term is pinned at 1 below S = 2 so the value
    changes sign once.
    """
    if clamp and s <= 2.0:
        return 0.0
    holevo_arg = (1.0 + math.sqrt(max((s / 2.0) ** 2 - 1.0, 0.0))) / 2.0
    rate = 1.0 - binary_entropy_bits(q) - binary_entropy_bits(holevo_arg)
    return max(rate, 0.0) if clamp else rate


def werner_devetak_winter(kappa: float, clamp: bool = True) -> float:
    """Devetak-Winter rate of a Bell state mixed with white noise of weight kappa.

    The correlation tensor is (1 - kappa) diag(1, -1, 1), so
    S = 2 sqrt(2) (1 - kappa) and Q = kappa / 2.
    """
    return devetak_winter_bits(2.0 * math.sqrt(2.0) * (1.0 - kappa), kappa / 2.0, clamp)


def state_figures(rho: np.ndarray) -> tuple[float, float, float]:
    """(S, Q, r_DW) from the two largest eigenvalues of T^T T, T by explicit traces."""
    tensor = correlation_tensor_direct(rho)
    lam = np.sort(np.linalg.eigvalsh(tensor.T @ tensor))[::-1]
    s = 2.0 * math.sqrt(lam[0] + lam[1])
    q = (1.0 - math.sqrt(lam[0])) / 2.0
    return s, q, devetak_winter_bits(s, q)


def quadruple_coincidence_rate(counts, pairs, n_windows: float) -> float:
    """Mean over the 9 pairs of measurement axes of the four counts on them, per window."""
    axis = {"H": "z", "V": "z", "D": "x", "A": "x", "R": "y", "L": "y"}
    sums: dict = {}
    members: dict = {}
    for (a, b), count in zip(pairs, counts):
        key = (axis[a], axis[b])
        sums[key] = sums.get(key, 0) + int(count)
        members[key] = members.get(key, 0) + 1
    assert sorted(members.values()) == [4] * 9
    return statistics.fmean(sums.values()) / n_windows


def bell_key_rate(n_bar: float, eta_a: float, eta_b: float) -> float:
    """Key bits per window of the Bell-input CW source: r_DW(kappa) r_C."""
    return (werner_devetak_winter(kappa_printed(n_bar, eta_a, eta_b))
            * bell_coincidence_rate(n_bar, eta_a, eta_b))


def maximize_on_grid(f, upper: float = 0.2, points: int = 2001) -> tuple[float, float]:
    """(argmax, max) of f on (0, upper]: dense grid, then bounded Brent refinement."""
    grid = np.linspace(upper / points, upper, points)
    i = int(np.argmax([f(x) for x in grid]))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, points - 1)]
    res = minimize_scalar(lambda x: -f(x), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-10})
    return float(res.x), -float(res.fun)


def bell_key_rate_optimum(eta_a: float, eta_b: float) -> tuple[float, float]:
    """(n_bar_opt, R_opt) of the Bell-input CW source at fixed transmittances."""
    return maximize_on_grid(lambda n_bar: bell_key_rate(n_bar, eta_a, eta_b))


def surrogate_zero_crossing(kappa0: float, eta_a: float, eta_b: float,
                            lower: float = 1e-3, upper: float = 0.2) -> float:
    """Gain where a Werner state of weight kappa0 loses its key under multi-pair noise.

    Mixing white noise of weight kappa(n_bar) into a state that already
    carries weight kappa0 gives total weight 1 - (1 - kappa0)(1 - kappa).
    """
    def raw_rate(n_bar):
        kappa = 1.0 - (1.0 - kappa0) * (1.0 - kappa_printed(n_bar, eta_a, eta_b))
        return werner_devetak_winter(kappa, clamp=False)

    return brentq(raw_rate, lower, upper, xtol=1e-14)


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def hwp_jones(theta: float) -> np.ndarray:
    return rotation(theta) @ np.diag([1.0, -1.0]).astype(complex) @ rotation(-theta)


def qwp_jones(theta: float) -> np.ndarray:
    return rotation(theta) @ np.diag([1.0, -1.0j]) @ rotation(-theta)


def analyzer_projector(theta_q: float, theta_h: float) -> np.ndarray:
    """Projector realized by HWP -> QWP -> horizontal PBS output.

    The beam traverses the half-wave plate first, so the total Jones
    matrix is QWP(theta_q) @ HWP(theta_h); the measured projector is its
    pullback of |H><H|.
    """
    total = qwp_jones(theta_q) @ hwp_jones(theta_h)
    ket = total.conj().T @ np.array([1.0, 0.0], dtype=complex)
    return np.outer(ket, ket.conj())


def bloch_projector_direct(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return (np.eye(2, dtype=complex) + bloch_operator(x)) / 2.0


def click_probabilities_direct(rho: np.ndarray, a, b, eta_a: float,
                               eta_b: float) -> tuple[float, float, float, float]:
    """(p11, p10, p01, p00) summed over which photons survive, term by term.

    Joint projections use fresh Kronecker products of the projectors and
    their complements; a lone surviving photon is projected with the
    reduced state from an explicit partial trace.
    """
    pa, pb = bloch_projector_direct(a), bloch_projector_direct(b)
    pa_perp, pb_perp = np.eye(2) - pa, np.eye(2) - pb
    rho_a = np.zeros((2, 2), dtype=complex)
    rho_b = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                rho_a[i, j] += rho[2 * i + k, 2 * j + k]
                rho_b[i, j] += rho[2 * k + i, 2 * k + j]

    def joint(x, y):
        return np.trace(rho @ np.kron(x, y)).real

    def single(red, x):
        return np.trace(red @ x).real

    both, only_a, only_b = eta_a * eta_b, eta_a * (1.0 - eta_b), (1.0 - eta_a) * eta_b
    p11 = both * joint(pa, pb)
    p10 = both * joint(pa, pb_perp) + only_a * single(rho_a, pa)
    p01 = both * joint(pa_perp, pb) + only_b * single(rho_b, pb)
    p00 = (both * joint(pa_perp, pb_perp) + only_a * single(rho_a, pa_perp)
           + only_b * single(rho_b, pb_perp) + (1.0 - eta_a) * (1.0 - eta_b))
    return p11, p10, p01, p00
