"""Array geometry, steering vectors and snapshot synthesis.

Conventions used throughout the package:

* sensor positions are expressed in half-wavelength units, so a standard
  ULA is ``0, 1, ..., M-1``;
* arrival angles are broadside-referenced, in radians, restricted to the
  open interval (-pi/2, pi/2);
* a snapshot matrix ``Z`` is M x N (sensors x snapshots) and complex;
* the noise at sensor m is circular complex Gaussian with *deviation*
  1/lambda_m, i.e. total variance lambda_m**-2 split evenly between the
  real and imaginary parts.  Large lambda_m therefore means a clean
  sensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ArrayGeometry",
    "SteeringSet",
    "DeterministicModel",
    "StochasticModel",
    "steering",
    "steering_set",
    "random_unitary",
    "linear_trend",
    "scale_for_snr",
    "synthesize",
    "stream_rng",
]

_HALF_PI = np.pi / 2.0


@dataclass(frozen=True)
class ArrayGeometry:
    """Sensor positions of a linear array in half-wavelength units.

    Positions must be strictly increasing and at least two sensors are
    required.  The array need not be uniform.
    """

    positions: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.positions, dtype=float).ravel()
        if p.size < 2:
            raise ValueError("an array needs at least two sensors")
        if not np.isfinite(p).all():
            raise ValueError("sensor positions must be finite")
        if (np.diff(p) <= 0).any():
            raise ValueError("sensor positions must be strictly increasing")
        object.__setattr__(self, "positions", p)

    @property
    def m(self) -> int:
        return self.positions.size

    @property
    def aperture(self) -> float:
        return float(self.positions[-1] - self.positions[0])

    @classmethod
    def ula(cls, m: int, spacing: float = 1.0) -> "ArrayGeometry":
        """Uniform linear array with the given spacing (default half wavelength)."""
        if m < 2:
            raise ValueError("an array needs at least two sensors")
        if spacing <= 0:
            raise ValueError("spacing must be positive")
        return cls(spacing * np.arange(m, dtype=float))


@dataclass(frozen=True)
class SteeringSet:
    """Steering matrix and its first two angle derivatives, column per source.

    ``phi[:, k] = exp(1j * pi * p * sin(theta_k))`` and ``d1``/``d2`` hold
    the first and second derivatives with respect to ``theta_k``.
    """

    theta: np.ndarray
    phi: np.ndarray
    d1: np.ndarray
    d2: np.ndarray

    @property
    def k(self) -> int:
        return self.theta.shape[-1]

    @property
    def m(self) -> int:
        return self.phi.shape[-2]


def angles_valid(theta: np.ndarray) -> np.ndarray:
    """Whether each row of ``theta`` (the last axis holds one set of
    angles) is a valid angle set: sorted, it strictly increases inside
    (-pi/2, pi/2).  NaN sorts last and fails the bound."""
    s = np.sort(theta)
    return (np.abs(theta).max(axis=-1) < _HALF_PI) & (s[..., 1:] > s[..., :-1]).all(axis=-1)


def _check_angles(theta, m_sensors=None) -> np.ndarray:
    t = np.asarray(theta, dtype=float)
    if t.ndim != 2:
        t = t.ravel()
    if t.shape[-1] < 1:
        raise ValueError("at least one angle is required")
    # one test passes valid input (a NaN sorts last and fails the bound or
    # the order); only a failure looks further, to name the rule that broke
    s = np.sort(t)
    hi = np.abs(t).max() if t.ndim == 2 else max(-s[0], s[-1])
    if not (hi < _HALF_PI and (s[..., 1:] > s[..., :-1]).all()):
        if not np.isfinite(t).all():
            raise ValueError("angles must be finite")
        if (np.abs(t) >= _HALF_PI).any():
            raise ValueError("angles must lie strictly inside (-pi/2, pi/2)")
        raise ValueError("angles must be pairwise distinct")
    if m_sensors is not None and t.shape[-1] > m_sensors:
        raise ValueError("more sources than sensors")
    return t


def steering(geometry: ArrayGeometry, theta: float) -> np.ndarray:
    """Steering vector exp(1j*pi*p*sin(theta)) for a single angle."""
    t = _check_angles(theta)
    if t.size != 1:
        raise ValueError("steering() takes a single angle; use steering_set()")
    return np.exp(1j * np.pi * geometry.positions * np.sin(t[0]))


def steering_set(geometry: ArrayGeometry, theta) -> SteeringSet:
    """Build the steering matrix and its first two derivatives.

    Parameters
    ----------
    geometry : ArrayGeometry
    theta : array_like
        K source angles, strictly inside (-pi/2, pi/2), pairwise distinct,
        with K <= M; or a (T, K) stack of such sets, one per lane.

    Returns
    -------
    SteeringSet
        ``phi``, ``d1``, ``d2`` of shape (M, K), or (T, M, K) for a stack;
        each lane of a stack has the bits of its own call.
    """
    t = _check_angles(theta, geometry.m)
    jpp = 1j * np.pi * geometry.positions[:, None]
    lane = (slice(None), None) if t.ndim == 2 else ()       # (T, K) -> (T, 1, K)
    u = jpp * np.sin(t)[lane]
    phi = np.exp(u)
    # d/dt exp(j*pi*p*sin t) = (j*pi*p*cos t) * phi
    a = jpp * np.cos(t)[lane]
    d1 = a * phi
    d2 = (a * a - u) * phi
    return SteeringSet(theta=t, phi=phi, d1=d1, d2=d2)


@dataclass(frozen=True)
class DeterministicModel:
    """Fixed source waveforms; ``s`` is K x N and used verbatim."""

    s: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=complex)
        if s.ndim != 2:
            raise ValueError("waveform matrix must be K x N")
        object.__setattr__(self, "s", s)

    @property
    def k(self) -> int:
        return self.s.shape[0]

    def covariance(self) -> np.ndarray:
        """Sample source covariance (1/N) S S^H used for SNR bookkeeping."""
        n = self.s.shape[1]
        return self.s @ self.s.conj().T / n


@dataclass(frozen=True)
class StochasticModel:
    """Zero-mean circular Gaussian sources with covariance ``rs`` (K x K)."""

    rs: np.ndarray
    _sqrt: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        r = np.asarray(self.rs, dtype=complex)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError("source covariance must be square")
        scale = max(np.abs(r).max(), 1.0)
        if np.abs(r - r.conj().T).max() > 1e-12 * scale:
            raise ValueError("source covariance must be Hermitian")
        w, v = np.linalg.eigh(r)
        if w.min() < -1e-12 * scale:
            raise ValueError("source covariance must be positive semidefinite")
        w = np.clip(w, 0.0, None)
        object.__setattr__(self, "rs", r)
        object.__setattr__(self, "_sqrt", v * np.sqrt(w)[None, :])

    @property
    def k(self) -> int:
        return self.rs.shape[0]

    def covariance(self) -> np.ndarray:
        return self.rs

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw K x N source snapshots with column covariance ``rs``."""
        w = _cn_matrix(self.k, n, rng)
        return self._sqrt @ w


def _cn_matrix(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. circular complex normal entries with unit total variance."""
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)


def random_unitary(k: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed K x K unitary matrix (QR of a Ginibre draw)."""
    z = _cn_matrix(k, k, rng)
    q, r = np.linalg.qr(z)
    # fix the phase convention so the distribution is exactly Haar
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


def linear_trend(m: int, ratio: float = 10.0) -> np.ndarray:
    """Linearly increasing noise-ratio profile with lambda_M/lambda_1 = ratio."""
    if ratio <= 0:
        raise ValueError("trend ratio must be positive")
    return 1.0 + (ratio - 1.0) * np.arange(m, dtype=float) / (m - 1)


def scale_for_snr(geometry, theta, model, trend, snr_db: float) -> np.ndarray:
    """Scale a noise-parameter trend so the array-average SNR is ``snr_db``.

    SNR is defined as mean-over-sensors signal power divided by
    mean-over-sensors noise power,

        SNR = [tr(Phi_o Rs Phi_o^H) / M] / [(1/M) sum_m lambda_m^-2],

    and the returned profile is ``c * trend`` with the constant ``c``
    chosen to hit the target.  Raising the SNR by 20 dB multiplies every
    lambda_m by 10 (noise deviations shrink tenfold).
    """
    if not np.isfinite(snr_db):
        raise ValueError("snr_db must be finite")
    trend = np.asarray(trend, dtype=float).ravel()
    if trend.size != geometry.m:
        raise ValueError("trend length must match the sensor count")
    if (trend <= 0).any() or not np.isfinite(trend).all():
        raise ValueError("trend entries must be positive and finite")
    sset = steering_set(geometry, theta)
    rs = model.covariance()
    if rs.shape[0] != sset.k:
        raise ValueError("model order does not match the number of angles")
    p_sig = float(np.real(np.trace(sset.phi @ rs @ sset.phi.conj().T))) / geometry.m
    if p_sig <= 0:
        raise ValueError("source model carries no power")
    p_noise = float(np.mean(trend ** -2.0))
    c = np.sqrt(10.0 ** (snr_db / 10.0) * p_noise / p_sig)
    return c * trend


def _check_noise(lam, m: int) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 2:
        lam = lam.ravel()
    # one test passes valid input (NaN fails both bounds); only a failure
    # looks further, to name the rule that broke
    if not (lam.shape[-1] == m and 0.0 < lam.min() and lam.max() < np.inf):
        if lam.shape[-1] != m:
            raise ValueError("noise profile length must match the sensor count")
        raise ValueError("noise parameters must be positive and finite")
    return lam


def synthesize(geometry, theta, model, lam, n: int, rng) -> np.ndarray:
    """Draw one M x N snapshot matrix ``Z = Phi_o S + E``.

    ``lam`` holds the per-sensor noise parameters: row m of the noise has
    total variance ``lam[m]**-2``.  For a ``StochasticModel`` the source
    waveforms are redrawn; a ``DeterministicModel`` contributes its fixed
    waveforms.  The signal draw always precedes the noise draw so a given
    generator state yields a reproducible matrix.
    """
    if n < 1:
        raise ValueError("need at least one snapshot")
    rng = stream_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    sset = steering_set(geometry, theta)
    lam = _check_noise(lam, geometry.m)
    if isinstance(model, DeterministicModel):
        if model.s.shape != (sset.k, n):
            raise ValueError("waveform matrix must be K x N")
        s = model.s
    else:
        if model.k != sset.k:
            raise ValueError("model order does not match the number of angles")
        s = model.draw(n, rng)
    noise = _cn_matrix(geometry.m, n, rng) / lam[:, None]
    return sset.phi @ s + noise


def stream_rng(*key) -> np.random.Generator:
    """Deterministic generator for a hierarchical integer key.

    ``stream_rng(seed, i, j)`` always yields the same stream, independent
    of how many other streams were consumed, which keeps Monte Carlo
    trials reproducible under any evaluation order or thread count.
    """
    flat = []
    for part in key:
        if isinstance(part, (tuple, list)):
            flat.extend(int(p) for p in part)
        else:
            flat.append(int(part))
    return np.random.default_rng(np.random.SeedSequence(flat))
