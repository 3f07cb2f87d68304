"""Independent reference implementations used to cross-check the library.

Everything in this module is deliberately written with different algorithms
than the package under test: eigenvalues come from power iteration with
deflation instead of ``numpy.linalg.eigh``, channels are applied through an
explicit transfer matrix, average fidelities are integrated on a quadrature
grid over the Bloch sphere, and drive/qubit evolution goes through a dense
matrix exponential. Agreement between these and the library is therefore
meaningful evidence rather than the same code tested against itself.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm
from scipy import stats

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


# ---------------------------------------------------------------------------
# Spectral helpers: power iteration with deflation.
# ---------------------------------------------------------------------------

def power_spectrum(matrix: np.ndarray, tol: float = 1e-14, max_iter: int = 50000):
    """All eigenpairs of a Hermitian PSD matrix by power iteration + deflation.

    Returns (eigenvalues, eigenvectors) sorted descending; eigenvectors are
    columns. Slow but entirely independent of LAPACK eigensolvers.
    """
    a = np.array(matrix, dtype=complex)
    dim = a.shape[0]
    # Shift so the matrix is PSD even if tiny negative eigenvalues exist.
    shift = float(np.trace(a).real) + 1.0
    work = a + shift * np.eye(dim)
    vals = []
    vecs = []
    rng = np.random.default_rng(7)
    for _ in range(dim):
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        vec /= np.linalg.norm(vec)
        prev = 0.0
        for _ in range(max_iter):
            nxt = work @ vec
            lam = float(np.real(np.vdot(vec, nxt)))
            nrm = np.linalg.norm(nxt)
            if nrm < 1e-30:
                lam = 0.0
                break
            vec = nxt / nrm
            if abs(lam - prev) < tol * max(1.0, abs(lam)):
                break
            prev = lam
        # Rayleigh-quotient polish: inverse iteration converges cubically and
        # rescues the slow power-iteration convergence on near-degenerate
        # spectra. np.linalg.solve is LU-based, still independent of eigh.
        for _ in range(4):
            lam = float(np.real(np.vdot(vec, work @ vec)))
            try:
                nxt = np.linalg.solve(work - lam * np.eye(dim), vec)
            except np.linalg.LinAlgError:
                break
            nrm = np.linalg.norm(nxt)
            if not np.isfinite(nrm) or nrm < 1e-30:
                break
            vec = nxt / nrm
        for prev_vec in vecs:
            vec = vec - prev_vec * np.vdot(prev_vec, vec)
        vec /= np.linalg.norm(vec)
        lam = float(np.real(np.vdot(vec, work @ vec)))
        vals.append(lam - shift)
        vecs.append(vec)
        work = work - lam * np.outer(vec, vec.conj())
    order = np.argsort(vals)[::-1]
    values = np.array([vals[k] for k in order])
    vectors = np.column_stack([vecs[k] for k in order])
    return values, vectors


def spectral_fidelity(rho_matrix: np.ndarray, phi: np.ndarray) -> float:
    """<phi|rho|phi> evaluated through the power-iteration spectrum."""
    vals, vecs = power_spectrum(rho_matrix)
    overlaps = np.abs(vecs.conj().T @ phi) ** 2
    return float(np.sum(vals * overlaps))


def schatten_from_spectrum(rho_matrix: np.ndarray, p: float) -> float:
    vals, _ = power_spectrum(rho_matrix)
    vals = np.clip(vals, 0.0, None)
    return float(np.sum(vals ** p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# Channel helpers: transfer matrix, Bloch picture, quadrature averages.
# ---------------------------------------------------------------------------

def transfer_matrix(images) -> np.ndarray:
    """4x4 matrix acting on vec(rho) (row-major) equivalent to the channel.

    ``images`` is the tuple (E00, E01, E10, E11) of basis-operator images.
    """
    e = {(0, 0): images[0], (0, 1): images[1], (1, 0): images[2], (1, 1): images[3]}
    t = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for k in range(2):
            for j in range(2):
                for l in range(2):
                    t[2 * i + k, 2 * j + l] = e[(j, l)][i, k]
    return t


def transfer_apply(images, rho: np.ndarray) -> np.ndarray:
    out = transfer_matrix(images) @ rho.reshape(4)
    return out.reshape(2, 2)


def bloch_affine(images):
    """Affine Bloch map (M, c) with output vector m = M n + c."""
    e00, e01, e10, e11 = images
    c = np.array([np.real(np.trace(s @ (e00 + e11))) / 2 for s in (SX, SY, SZ)])
    m = np.zeros((3, 3))
    gens = [(e01 + e10) / 2, 1j * (e10 - e01) / 2, (e00 - e11) / 2]
    for j, gen in enumerate(gens):
        for k, s in enumerate((SX, SY, SZ)):
            m[k, j] = np.real(np.trace(s @ gen))
    return m, c


_GAUSS_Z, _GAUSS_W = np.polynomial.legendre.leggauss(200)
_PHI = np.linspace(0.0, 2.0 * np.pi, 257)[:-1]


def rbar_quadrature(images) -> float:
    """Average output eigenfidelity over uniform pure inputs by quadrature.

    Gauss-Legendre in cos(theta) times a trapezoid rule in the azimuth; for a
    qubit the largest output eigenvalue is 1/2 + |m|/2 with m the output
    Bloch vector, so the integrand is smooth and the grid converges far below
    Monte Carlo noise.
    """
    m, c = bloch_affine(images)
    z = _GAUSS_Z[:, None]
    st = np.sqrt(1.0 - z ** 2)
    nx = st * np.cos(_PHI)[None, :]
    ny = st * np.sin(_PHI)[None, :]
    nz = z * np.ones_like(nx)
    mx = m[0, 0] * nx + m[0, 1] * ny + m[0, 2] * nz + c[0]
    my = m[1, 0] * nx + m[1, 1] * ny + m[1, 2] * nz + c[1]
    mz = m[2, 0] * nx + m[2, 1] * ny + m[2, 2] * nz + c[2]
    norm = np.sqrt(mx ** 2 + my ** 2 + mz ** 2)
    avg = float(np.sum(_GAUSS_W * np.mean(norm, axis=1)) / 2.0)
    return 0.5 + 0.5 * avg


def purity_quadrature(images) -> float:
    """Average output purity over uniform pure inputs by the same grid."""
    m, c = bloch_affine(images)
    z = _GAUSS_Z[:, None]
    st = np.sqrt(1.0 - z ** 2)
    nx = st * np.cos(_PHI)[None, :]
    ny = st * np.sin(_PHI)[None, :]
    nz = z * np.ones_like(nx)
    mx = m[0, 0] * nx + m[0, 1] * ny + m[0, 2] * nz + c[0]
    my = m[1, 0] * nx + m[1, 1] * ny + m[1, 2] * nz + c[1]
    mz = m[2, 0] * nx + m[2, 1] * ny + m[2, 2] * nz + c[2]
    sq = mx ** 2 + my ** 2 + mz ** 2
    avg = float(np.sum(_GAUSS_W * np.mean(sq, axis=1)) / 2.0)
    return 0.5 + 0.5 * avg


def eigenerror_quadrature(images) -> float:
    return 1.0 - rbar_quadrature(images)


def compose_images(outer, inner):
    """Composition (outer after inner) on basis-operator image tuples."""
    def app(mat):
        return (mat[0, 0] * outer[0] + mat[0, 1] * outer[1]
                + mat[1, 0] * outer[2] + mat[1, 1] * outer[3])

    return tuple(app(inner[k]) for k in range(4))


def gate_fidelity_mp(images, unitary: np.ndarray, digits: int = 40) -> float:
    """Average gate fidelity at `digits` significant digits, from the same doubles.

    With T_ij = U^dag E_ij U, the Haar average of <a|U^dag E[|a><a|] U|a> is
    (sum_i tr T_ii + sum_ij <i|T_ij|j>) / 6: the twisted map's output trace
    over its inputs plus four times its entanglement fidelity (Horodecki,
    Nielsen), summed term by term in mpmath rather than through a Pauli or
    Choi matrix in floating point.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        u = mpmath.matrix(unitary.tolist())  # each double converts exactly
        t = [u.H * mpmath.matrix(e.tolist()) * u for e in images]
        total = t[0][0, 0] + t[0][1, 1] + t[3][0, 0] + t[3][1, 1]
        total += t[0][0, 0] + t[1][0, 1] + t[2][1, 0] + t[3][1, 1]
        return float(mpmath.re(total) / 6)


def eigenerror_lower_mp(coefficients, n_min: int, nbar: float, tau: float, count: int,
                        digits: int = 40) -> float:
    """S_bar/2 of the count-fold exact drive channel, at `digits` significant digits.

    From the drive's coefficients b_n on levels n_min, n_min + 1, ... (each
    double converts exactly), the images E00, E01 and E11 are the window
    sums of jcdrive._images: weights |b_n|^2, b_n conj(b_{n+1}),
    conj(b_n) b_{n+1} and conj(b_n) b_{n+2}, at angles tau sqrt(k/nbar) for
    the drive's realized mean nbar, as jcdrive._angles takes them, and
    E10 = E01^dag. The 4x4 transfer matrix (column 2i+j holds vec(E_ij)) is
    raised to the count-th power in mpmath, and the average purity of its
    images is the Haar average over psi (x) psi = (1 + SWAP)/6:
    (tr (E00 + E11)^2 + sum_ij tr E_ij E_ji) / 6. S_bar = 1 - that purity.

    Covered range: windows up to about 10^3 levels, where the library's
    bracket agrees with this to relative 1e-9 for Poisson nbar in [1, 1e3],
    binomial drives up to width 10^3, tau in [0.05, 3] and count <= 64. At
    much smaller tau (nbar = 1e3, tau = 1e-7) the library's 1 - purity
    cancels all its digits, so no such tolerance holds there.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        b = [mpmath.mpc(v.real, v.imag) for v in np.asarray(coefficients, dtype=complex)]
        b += [mpmath.mpc(0)] * 2  # past the window
        m = len(b) - 2
        theta = [mpmath.mpf(tau) * mpmath.sqrt(mpmath.mpf(n_min + j) / mpmath.mpf(nbar))
                 for j in range(m + 2)]
        c, s = [mpmath.cos(t) for t in theta], [mpmath.sin(t) for t in theta]
        # the nine distinct sums of _images' twelve entries, in its order: a
        # conjugate coherence and the repeated exchange are not summed again
        sums = [mpmath.mpc(0)] * 9
        for j in range(m):
            w = abs(b[j]) ** 2
            x1 = b[j] * mpmath.conj(b[j + 1])
            y1, y2 = mpmath.conj(b[j]) * b[j + 1], mpmath.conj(b[j]) * b[j + 2]
            terms = (w * c[j] ** 2, x1 * c[j] * s[j + 1], w * s[j] ** 2,
                     y1 * c[j + 1] * s[j + 1], w * c[j] * c[j + 1], y2 * s[j + 1] * s[j + 2],
                     w * s[j + 1] ** 2, x1 * s[j + 1] * c[j + 2], w * c[j + 1] ** 2)
            sums = [total + term for total, term in zip(sums, terms)]
        top00, coh00, bottom00, exchange, top01, bottom01, top11, coh11, bottom11 = sums
        e00 = mpmath.matrix([[top00, coh00], [mpmath.conj(coh00), bottom00]])
        e01 = mpmath.matrix([[-exchange, top01], [-bottom01, exchange]])
        e11 = mpmath.matrix([[top11, -coh11], [-mpmath.conj(coh11), bottom11]])
        images = {(0, 0): e00, (0, 1): e01, (1, 0): e01.H, (1, 1): e11}
        t = mpmath.matrix(4, 4)
        for (i, j), e in images.items():
            for a in range(2):
                for k in range(2):
                    t[2 * a + k, 2 * i + j] = e[a, k]
        t = t ** count
        e = {(i, j): mpmath.matrix([[t[2 * a + k, 2 * i + j] for k in range(2)]
                                    for a in range(2)])
             for i in range(2) for j in range(2)}
        diagonal = e[0, 0] + e[1, 1]
        purity = sum(((diagonal * diagonal)[a, a] for a in range(2)), mpmath.mpc(0))
        for i in range(2):
            for j in range(2):
                product = e[i, j] * e[j, i]
                purity += product[0, 0] + product[1, 1]
        return float(mpmath.re(1 - purity / 6) / 2)


def random_cptp_images(rng: np.random.Generator, env_dim: int = 4):
    """Random CPTP qubit channel from a Stinespring isometry.

    Draw a Haar-ish isometry V: C^2 -> C^2 (x) C^env via QR of a Gaussian
    matrix, then E_ij = tr_env(V |i><j| V^dagger). Trace preservation is
    automatic from V^dagger V = I.
    """
    g = rng.normal(size=(2 * env_dim, 2)) + 1j * rng.normal(size=(2 * env_dim, 2))
    v, _ = np.linalg.qr(g)
    images = []
    for i in range(2):
        for j in range(2):
            full = np.outer(v[:, i], v[:, j].conj())
            block = full.reshape(2, env_dim, 2, env_dim)
            images.append(np.einsum("sete->st", block))
    return tuple(images)


def random_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases[None, :]


# ---------------------------------------------------------------------------
# Bipartite drive + qubit helpers: dense Hamiltonian and exact exponential.
# ---------------------------------------------------------------------------

def dense_excitation_hamiltonian(n_lo: int, n_hi: int, factor: float = 1.0) -> np.ndarray:
    """Dense excitation-exchange Hamiltonian on the window [n_lo, n_hi].

    Basis index is (m - n_lo) * 2 + q for photon number m and qubit bit q.
    The only nonzero actions are H|m,0> = i f sqrt(m) |m-1,1> and
    H|m,1> = -i f sqrt(m+1) |m+1,0>, which is Hermitian on the window
    provided the amplitudes at the window edges vanish.
    """
    size = 2 * (n_hi - n_lo + 1)
    h = np.zeros((size, size), dtype=complex)

    def idx(m, q):
        return (m - n_lo) * 2 + q

    for m in range(n_lo, n_hi + 1):
        if m >= 1 and m - 1 >= n_lo:
            h[idx(m - 1, 1), idx(m, 0)] += 1j * factor * np.sqrt(m)
        if m + 1 <= n_hi:
            h[idx(m + 1, 0), idx(m, 1)] += -1j * factor * np.sqrt(m + 1)
    assert np.allclose(h, h.conj().T)
    return h


def dense_evolve(drive_coeffs, n_min, qubit_amps, tau, nbar):
    """Exact product-state evolution via a dense matrix exponential.

    Returns the evolved amplitudes on the window [max(0, n_min - 1),
    n_max + 1] in the same (m, qubit) layout used above.
    """
    coeffs = np.asarray(drive_coeffs, dtype=complex)
    n_max = n_min + coeffs.size - 1
    lo = max(0, n_min - 1)
    hi = n_max + 1
    size = 2 * (hi - lo + 1)
    psi = np.zeros(size, dtype=complex)
    for k, amp in enumerate(coeffs):
        m = n_min + k
        psi[(m - lo) * 2 + 0] = amp * qubit_amps[0]
        psi[(m - lo) * 2 + 1] = amp * qubit_amps[1]
    h = dense_excitation_hamiltonian(lo, hi)
    t = tau / np.sqrt(nbar) if tau != 0.0 else 0.0
    u = expm(-1j * h * t)
    return u @ psi, lo


def dense_moments(drive_coeffs, n_min, qubit_amps, hbar, coupling):
    """<H> and Var(H) for the product state, from the dense Hamiltonian."""
    coeffs = np.asarray(drive_coeffs, dtype=complex)
    n_max = n_min + coeffs.size - 1
    lo = max(0, n_min - 1)
    hi = n_max + 1
    size = 2 * (hi - lo + 1)
    psi = np.zeros(size, dtype=complex)
    for k, amp in enumerate(coeffs):
        m = n_min + k
        psi[(m - lo) * 2 + 0] = amp * qubit_amps[0]
        psi[(m - lo) * 2 + 1] = amp * qubit_amps[1]
    h = dense_excitation_hamiltonian(lo, hi, factor=hbar * coupling)
    hpsi = h @ psi
    mean = float(np.real(np.vdot(psi, hpsi)))
    second = float(np.real(np.vdot(hpsi, hpsi)))
    return mean, max(second - mean ** 2, 0.0)


def partial_trace_qubit(amplitudes: np.ndarray) -> np.ndarray:
    """Reduced qubit density matrix from a (levels, 2) amplitude table."""
    rho = np.zeros((2, 2), dtype=complex)
    for row in amplitudes:
        rho += np.outer(row, row.conj())
    return rho


# ---------------------------------------------------------------------------
# Distribution references.
# ---------------------------------------------------------------------------

def poisson_pmf(n: np.ndarray, nbar: float) -> np.ndarray:
    return stats.poisson.pmf(n, nbar)


def binom_pmf(k: np.ndarray, n_trials: int, p: float = 0.5) -> np.ndarray:
    return stats.binom.pmf(k, n_trials, p)


def haar_fourth_moment() -> float:
    """E |<0|psi>|^4 for a Haar qubit state, by direct quadrature.

    Parametrize |psi> = cos(a)|0> + e^{i phi} sin(a)|1>; the Haar weight in
    a is sin(2a) da on [0, pi/2] and the integrand has no phi dependence.
    """
    a = np.linspace(0.0, np.pi / 2.0, 200001)
    integrand = np.cos(a) ** 4 * np.sin(2.0 * a)
    return float(np.trapezoid(integrand, a))


def ks_critical(n: int, m: int, alpha: float = 0.01) -> float:
    """Two-sample Kolmogorov-Smirnov rejection threshold."""
    c = np.sqrt(-np.log(alpha / 2.0) / 2.0)
    return float(c * np.sqrt((n + m) / (n * m)))


# ---------------------------------------------------------------------------
# Full-array Monte Carlo references.
#
# Unlike the rest of this module, these repeat the package's own arithmetic:
# they are the single-draw, whole-array evaluation of the Bloch vectors and
# the three Monte Carlo estimators, kept so that the streamed block
# evaluation can be held to them bit for bit. Each takes the sampler's seed
# (a fresh stream) and the channel's real Pauli map r, (t - 1, m) = r (1, n).
# ---------------------------------------------------------------------------

def full_bloch(seed: int, n: int) -> np.ndarray:
    """(n, 3) Bloch vectors of the first n qubit draws of default_rng(seed)."""
    z0, z1, z2, z3 = np.random.default_rng(seed).standard_normal((n, 4)).T.copy()
    p, q = z0 * z0 + z2 * z2, z1 * z1 + z3 * z3
    b = np.empty((3, len(z0)))
    np.multiply(z0, z1, out=b[0])
    b[0] += z2 * z3
    np.multiply(z0, z3, out=b[1])
    b[1] -= z1 * z2
    np.subtract(p, q, out=b[2])
    b[:2] *= 2.0
    p += q
    b /= p
    return b.T


def full_outputs(r: np.ndarray, bloch: np.ndarray):
    """Output trace defects t - 1 (n,) and Bloch vectors (3, n) for Bloch rows (n, 3)."""
    out = r[:, 1:] @ bloch.T
    out += r[:, :1]
    return out[0], out[1:]


def _full_mean_stderr(vals: np.ndarray) -> tuple[float, float]:
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(len(vals)))


def full_mc_purity(r: np.ndarray, seed: int, n: int) -> tuple[float, float]:
    d, m = full_outputs(r, full_bloch(seed, n))
    t = 1.0 + d
    return _full_mean_stderr((t * t + np.einsum("ij,ij->j", m, m)) / 2)


def full_mc_eigenfidelity(r: np.ndarray, seed: int, n: int) -> tuple[float, float]:
    d, m = full_outputs(r, full_bloch(seed, n))
    return _full_mean_stderr(
        0.5 + 0.5 * np.sqrt(np.clip(np.einsum("ij,ij->j", m, m) - d * (2.0 + d), 0.0, None)))


def full_mc_gate_fidelity(r: np.ndarray, rotation: np.ndarray, seed: int,
                          n: int) -> tuple[float, float]:
    """rotation is the target gate's 3x3 Bloch rotation."""
    bloch = full_bloch(seed, n)
    d, m = full_outputs(r, bloch)
    targets = rotation @ bloch.T
    return _full_mean_stderr((1.0 + d + np.einsum("ij,ij->j", targets, m)) / 2)
