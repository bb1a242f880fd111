"""Reference computations for the benchmark checks, made apart from apndoa.

Nothing here imports the package.  Each function restates a formula from
the model (steering vectors, the SNR convention, the sweep's random
streams, the concentrated likelihoods, the stochastic Cramer-Rao bound)
in plain numpy, so that a fault in the package cannot hide behind a
shared helper.

Conventions are the package's documented ones: sensor positions in
half-wavelengths, angles in radians off broadside, ``lam`` the inverse
noise standard deviation per sensor (noise power ``lam**-2``), and the
array-average SNR = mean signal power over mean noise power.
"""

from __future__ import annotations

import itertools

import numpy as np


def steer(positions, theta) -> np.ndarray:
    """M x K steering matrix exp(1j pi p sin theta)."""
    p = np.asarray(positions, dtype=float)[:, None]
    return np.exp(1j * np.pi * p * np.sin(np.asarray(theta, dtype=float))[None, :])


def linear_trend(m: int, ratio: float) -> np.ndarray:
    """lambda profile rising linearly from 1 to ``ratio`` across the array."""
    return 1.0 + (ratio - 1.0) * np.arange(m) / (m - 1)


def lam_for_snr(positions, theta, rs, trend, snr_db: float) -> np.ndarray:
    """Scale ``trend`` so that the array-average SNR is ``snr_db``."""
    a = steer(positions, theta)
    p_sig = np.real(np.trace(a @ rs @ a.conj().T)) / a.shape[0]
    p_noise = np.mean(np.asarray(trend) ** -2.0)
    return np.sqrt(10.0 ** (snr_db / 10.0) * p_noise / p_sig) * np.asarray(trend)


def sweep_batch(positions, theta, s, lam, root: int, snr_index: int, trial: int):
    """The snapshot matrix a sweep cell sees for fixed source waveforms ``s``.

    The sweep roots cell (snr_index, trial) in the generator
    ``default_rng(SeedSequence([root, snr_index, trial]))`` and, with fixed
    waveforms, draws only the noise: real parts, then imaginary parts, of
    an M x N circular normal matrix of unit variance, scaled by 1/lambda.
    """
    rng = np.random.default_rng(np.random.SeedSequence([root, snr_index, trial]))
    m, n = len(positions), s.shape[1]
    noise = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)
    return steer(positions, theta) @ s + noise / np.asarray(lam)[:, None]


def sample_cov(z) -> np.ndarray:
    return z @ z.conj().T / z.shape[1]


def sml_likelihood(rz, n: int, positions, theta, lam) -> float:
    """Uncompressed concentrated SML log-likelihood (up to a constant).

    With whitened steering Phi = Lambda A, R_zl = Lambda R_z Lambda and
    the concentrated source covariance Rs = Phi^+ R_zl Phi^+H - (Phi^H Phi)^-1,
    the value is N (2 sum log lam - log|R| - tr(R^-1 R_zl) + K) with
    R = Phi Rs Phi^H + I.
    """
    lam = np.asarray(lam, dtype=float)
    phi = lam[:, None] * steer(positions, theta)
    k = phi.shape[1]
    r_zl = lam[:, None] * rz * lam[None, :]
    pinv = np.linalg.pinv(phi)
    rs = pinv @ r_zl @ pinv.conj().T - np.linalg.inv(phi.conj().T @ phi)
    r = phi @ rs @ phi.conj().T + np.eye(phi.shape[0])
    r = 0.5 * (r + r.conj().T)
    sign, logdet = np.linalg.slogdet(r)
    if np.real(sign) <= 0:
        return -np.inf
    tr = np.real(np.trace(np.linalg.solve(r, r_zl)))
    return float(n * (2.0 * np.sum(np.log(lam)) - logdet - tr + k))


def dml_residual(z, positions, theta, lam) -> float:
    """Concentrated DML cost in residual form, 2N sum log lam - ||(I-P) Lambda Z||_F^2."""
    lam = np.asarray(lam, dtype=float)
    x = lam[:, None] * z
    phi = lam[:, None] * steer(positions, theta)
    resid = x - phi @ np.linalg.lstsq(phi, x, rcond=None)[0]
    return float(2.0 * z.shape[1] * np.sum(np.log(lam)) - np.sum(np.abs(resid) ** 2))


def uniform_cost(rz, n: int, positions, theta) -> float:
    """Uniform-noise deterministic cost -N tr((I - P_A) R_z)."""
    a = steer(positions, theta)
    q, _ = np.linalg.qr(a)
    return float(-n * np.real(np.trace(rz - q @ (q.conj().T @ rz))))


def stochastic_crb(positions, theta, rs, lam, n: int) -> np.ndarray:
    """Per-angle CRB variances under unknown per-sensor noise powers.

    Slepian-Bangs Fisher information F_ij = N tr(R^-1 dR_i R^-1 dR_j) for
    R = A Rs A^H + diag(sigma^2) over the parameters theta (K), the K^2
    real parameters of Rs (diagonal, and real and imaginary parts above
    it) and the M noise powers sigma^2 = lam^-2.  Returns the first K
    diagonal entries of F^-1.
    """
    p = np.asarray(positions, dtype=float)
    theta = np.asarray(theta, dtype=float)
    a = steer(p, theta)
    m, k = a.shape
    da = (1j * np.pi * p[:, None] * np.cos(theta)[None, :]) * a
    r = a @ rs @ a.conj().T + np.diag(np.asarray(lam, dtype=float) ** -2.0)
    derivs = []
    for i in range(k):
        d = np.outer(da[:, i], (rs @ a.conj().T)[i])
        derivs.append(d + d.conj().T)
    for i in range(k):
        derivs.append(np.outer(a[:, i], a[:, i].conj()))
        for j in range(i + 1, k):
            aij = np.outer(a[:, i], a[:, j].conj())
            derivs.append(aij + aij.conj().T)
            derivs.append(1j * (aij - aij.conj().T))
    for mm in range(m):
        e = np.zeros((m, m))
        e[mm, mm] = 1.0
        derivs.append(e)
    rinv = np.linalg.inv(r)
    g = np.array([rinv @ d for d in derivs])
    fim = n * np.real(np.einsum("aij,bji->ab", g, g))
    return np.diagonal(np.linalg.inv(fim))[:k].copy()


def match(theta_true, theta_hat):
    """Squared errors of ``theta_hat`` against sorted ``theta_true`` under
    the best of all K! assignments."""
    t = np.sort(np.asarray(theta_true, dtype=float))
    h = np.asarray(theta_hat, dtype=float)
    best = None
    for perm in itertools.permutations(range(t.size)):
        sq = (h[list(perm)] - t) ** 2
        if best is None or sq.sum() < best.sum():
            best = sq
    return best


def _mp_whitened(mp, z, positions, theta, lam):
    m, n = z.shape
    phi = mp.matrix(m, len(theta))
    x = mp.matrix(m, n)
    for i in range(m):
        for j, t in enumerate(theta):
            phi[i, j] = mp.mpf(lam[i]) * mp.expj(mp.pi * mp.mpf(positions[i]) * mp.sin(mp.mpf(t)))
        for j in range(n):
            x[i, j] = mp.mpf(lam[i]) * mp.mpc(z[i, j].real, z[i, j].imag)
    return phi, x


def sml_likelihood_50_digits(z, positions, theta, lam) -> float:
    """:func:`sml_likelihood` in 50-digit arithmetic, R_z = Z Z^H / N included."""
    import mpmath as mp

    with mp.workdps(50):
        phi, x = _mp_whitened(mp, z, positions, theta, lam)
        m, n = z.shape
        r_zl = x * x.H / n
        ginv = (phi.H * phi) ** -1
        pinv = ginv * phi.H
        r = phi * (pinv * r_zl * pinv.H - ginv) * phi.H + mp.eye(m)
        logdet = mp.re(mp.log(mp.det(r)))
        tr = mp.re(mp.fsum((r ** -1 * r_zl)[i, i] for i in range(m)))
        return float(n * (2 * mp.fsum(mp.log(mp.mpf(v)) for v in lam) - logdet - tr + len(theta)))


def dml_residual_50_digits(z, positions, theta, lam) -> float:
    """:func:`dml_residual` in 50-digit arithmetic."""
    import mpmath as mp

    with mp.workdps(50):
        phi, x = _mp_whitened(mp, z, positions, theta, lam)
        resid = x - phi * ((phi.H * phi) ** -1 * (phi.H * x))
        sq = mp.fsum(abs(resid[i, j]) ** 2 for i in range(resid.rows) for j in range(resid.cols))
        return float(2 * z.shape[1] * mp.fsum(mp.log(mp.mpf(v)) for v in lam) - sq)
