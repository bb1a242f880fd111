"""Whitened workspace and concentrated likelihood costs.

Everything downstream (costs, gradients, Hessians) is evaluated on a
``WhitenedWorkspace`` built once per (theta, lambda) point; it holds what
a cost needs, and the derivatives form their own factors from it.  The
workspace keeps the QR factorization of the whitened steering matrix
``Phi = diag(lambda) @ Phi_o``, thin factors plus the complement basis
``Q_perp``, and derives every projection and pseudoinverse from it; the
Gram matrix ``Phi^H Phi`` is never inverted explicitly.

Cost conventions (all three are *maximized*):

* ``cost_dml_uniform``: -N * tr{(I - P_o) R_z}, the uniform-noise
  deterministic cost used by the line-search stage;
* ``cost_dml``: N * (2 log|Lambda| - tr{(I - P) R_zl}) with
  ``R_zl = Lambda R_z Lambda`` the whitened sample covariance, and
  ``tr{(I - P) R_zl} = tr{Q_perp^H R_zl Q_perp}``;
* ``cost_sml``: cost_dml + cost_lc where ``cost_lc = -N log|C|`` and
  ``C = I - P + P R_zl P`` is evaluated through the K x K compression
  ``|C| = |Q^H R_zl Q|``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._lapack import cho_solve, cholesky, complete_qr, solve_upper
from .arrays import SteeringSet, _check_noise

__all__ = [
    "RankDeficiencyError",
    "IndefiniteCovarianceError",
    "SampleCovariance",
    "WhitenedWorkspace",
    "sample_covariance",
    "build_workspace",
    "cost_dml_uniform",
    "cost_dml",
    "cost_lc",
    "cost_sml",
    "concentrated_rs",
]

# relative tolerance on the QR diagonal below which the steering matrix
# is treated as rank deficient (angles coalesced or mirror-ambiguous)
RANK_RTOL = 1e-12


class RankDeficiencyError(np.linalg.LinAlgError):
    """Steering matrix numerically rank deficient (angles too close)."""


class IndefiniteCovarianceError(np.linalg.LinAlgError):
    """Compressed covariance Q^H R_zl Q is not positive definite."""


@dataclass(frozen=True)
class SampleCovariance:
    """Sample covariance R_z = (1/N) Z Z^H together with the snapshot count."""

    matrix: np.ndarray
    n_snapshots: int

    def __post_init__(self):
        r = np.asarray(self.matrix, dtype=complex)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError("covariance must be square")
        if self.n_snapshots < 1:
            raise ValueError("snapshot count must be positive")
        if not np.isfinite(r).all():
            raise ValueError("covariance has non-finite (NaN or Inf) entries")
        scale = max(np.abs(r).max(), 1.0)
        if np.abs(r - r.conj().T).max() > 1e-12 * scale:
            raise ValueError("covariance must be Hermitian")
        object.__setattr__(self, "matrix", r)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


def sample_covariance(z: np.ndarray) -> SampleCovariance:
    """Form R_z = (1/N) Z Z^H from an M x N snapshot matrix."""
    z = np.asarray(z, dtype=complex)
    if z.ndim != 2:
        raise ValueError("snapshot matrix must be M x N")
    n = z.shape[1]
    return SampleCovariance(matrix=z @ z.conj().T / n, n_snapshots=n)


@dataclass
class WhitenedWorkspace:
    """Factorizations shared by cost, gradient and Hessian evaluations.

    Built by :func:`build_workspace`; treat instances as read-only.
    ``q_factor``/``r_factor`` come from the thin QR of ``phi``, so
    ``pinv = r_factor^-1 q_factor^H`` and the projector is applied as
    ``Q (Q^H A)`` without ever forming ``(Phi^H Phi)^-1`` directly.

    The fields are what a cost needs.  The derivatives of
    :mod:`apndoa.derivatives` form their factors as locals of one
    function per call; the properties ``rinv``, ``pinv``, ``minv``,
    ``m_zl`` and ``p_z`` evaluate the same factors on each access, for
    inspection and tests.  The Cholesky factor of the compressed
    covariance ``b = Q^H R_zl Q`` is kept once made, since the
    stochastic cost and its derivatives at one point both need it; it
    exists only if ``b`` is positive definite, and ``m_zl``, ``p_z``,
    ``logdet_c`` and ``b_solve`` raise :class:`IndefiniteCovarianceError`
    otherwise.  The deterministic cost path never touches it.
    """

    steering: SteeringSet
    lam: np.ndarray
    n_snapshots: int
    r_z: np.ndarray            # unwhitened sample covariance
    phi: np.ndarray            # whitened steering matrix Lambda Phi_o
    q_factor: np.ndarray       # thin Q, M x K
    q_perp: np.ndarray         # the other M - K columns of the complete Q
    r_factor: np.ndarray       # upper-triangular R, K x K
    r_zl: np.ndarray           # whitened sample covariance Lambda R_z Lambda
    qh: np.ndarray             # Q^H, K x M
    qh_r: np.ndarray           # Q^H R_zl, K x M
    b: np.ndarray              # compressed covariance Q^H R_zl Q, K x K
    _b_chol: tuple | None = field(default=None, init=False, repr=False)
    _b_error: Exception | None = field(default=None, init=False, repr=False)
    # the uniform-noise gradient and Hessian, which stage 1 asks for
    # together; made by one pass of apndoa.derivatives on first use
    _uniform: tuple | None = field(default=None, init=False, repr=False)

    @property
    def m(self) -> int:
        return self.phi.shape[0]

    @property
    def k(self) -> int:
        return self.phi.shape[1]

    @property
    def theta(self) -> np.ndarray:
        return self.steering.theta

    # -- derivative factors, evaluated on access ---------------------------

    @property
    def rinv(self) -> np.ndarray:
        """R^-1, K x K."""
        return solve_upper(self.r_factor, np.eye(self.k, dtype=complex))

    @property
    def pinv(self) -> np.ndarray:
        """Phi^+ = R^-1 Q^H, K x M."""
        return self.rinv @ self.qh

    @property
    def minv(self) -> np.ndarray:
        """(Phi^H Phi)^-1 = R^-1 R^-H, K x K."""
        rinv = self.rinv
        return rinv @ rinv.conj().T

    def projector(self) -> np.ndarray:
        """Dense M x M projector Q Q^H (small M only; debugging and demos)."""
        return self.q_factor @ self.qh

    # -- stochastic-path factors ------------------------------------------

    def _require_spd(self):
        if self._b_error is not None:
            raise self._b_error
        if self._b_chol is None:
            chol = cholesky(self.b)
            if chol is None:
                self._b_error = IndefiniteCovarianceError(
                    "compressed covariance Q^H R_zl Q is not positive definite"
                )
                raise self._b_error
            self._b_chol = chol
        return self._b_chol

    def b_solve(self, a: np.ndarray) -> np.ndarray:
        """Solve (Q^H R_zl Q) x = a via the kept Cholesky factor."""
        return cho_solve(self._require_spd(), a)

    @property
    def m_zl(self) -> np.ndarray:
        """(Phi^H R_zl Phi)^-1 = R^-1 B^-1 R^-H."""
        binv = self.b_solve(np.eye(self.k, dtype=complex))
        rinv_b = solve_upper(self.r_factor, binv)
        return solve_upper(self.r_factor, rinv_b.conj().T).conj().T

    @property
    def p_z(self) -> np.ndarray:
        """Oblique factor P_z = Phi M_zl Phi^H = Q B^-1 Q^H."""
        return self.q_factor @ self.b_solve(self.qh)

    @property
    def logdet_c(self) -> float:
        """log|C| with C = I - P + P R_zl P, via |C| = |Q^H R_zl Q|."""
        chol = self._require_spd()
        return 2.0 * float(np.log(chol[0].diagonal().real).sum())

    def trace_perp(self) -> float:
        """tr{(I - P) R_zl} = tr{Q_perp^H R_zl Q_perp}.

        A sum of M - K terms ``q^H R_zl q`` that are nonnegative for a
        positive semidefinite ``R_zl``.  The equal difference
        ``tr R_zl - tr B`` of two traces that grow with the largest
        lambda while the result does not loses the result to rounding
        once a lambda runs away: 9e-8 relative on a 40 dB batch where
        one lambda had grown to 7e4.
        """
        qp = self.q_perp
        return float(np.vdot(qp, self.r_zl @ qp).real)


def build_workspace(
    r_z: SampleCovariance,
    steering: SteeringSet,
    lam,
) -> WhitenedWorkspace:
    """Assemble the whitened workspace at a (theta, lambda) point.

    Only what a cost needs is formed here: the whitened steering matrix,
    its QR with the rank check (thin factors plus the complement basis
    ``q_perp``), the whitened covariance ``r_zl`` and its compression
    ``b``.  Derivative factors are built on first use;
    see :class:`WhitenedWorkspace`.

    Raises
    ------
    RankDeficiencyError
        If the whitened steering matrix is numerically rank deficient,
        which happens when two angles (or their steering responses)
        coalesce.
    """
    if not isinstance(r_z, SampleCovariance):
        raise TypeError("r_z must be a SampleCovariance")
    m = steering.phi.shape[0]
    if r_z.m != m:
        raise ValueError("covariance size does not match the steering set")
    lam = _check_noise(lam, m)

    phi = lam[:, None] * steering.phi
    q, r, q_perp = complete_qr(phi)
    diag = np.abs(r.diagonal())
    if not diag.min() > RANK_RTOL * diag.max():
        raise RankDeficiencyError(
            "whitened steering matrix is numerically rank deficient"
        )

    # row/column scaling instead of dense diagonal products
    r_zl = (lam[:, None] * r_z.matrix) * lam[None, :]
    qh = q.conj().T
    qh_r = qh @ r_zl
    b = qh_r @ q

    return WhitenedWorkspace(
        steering=steering,
        lam=lam,
        n_snapshots=r_z.n_snapshots,
        r_z=r_z.matrix,
        phi=phi,
        q_factor=q,
        q_perp=q_perp,
        r_factor=r,
        r_zl=r_zl,
        qh=qh,
        qh_r=qh_r,
        b=b,
    )


def _trace_cost(ws: WhitenedWorkspace) -> float:
    return -ws.n_snapshots * ws.trace_perp()


def cost_dml_uniform(ws: WhitenedWorkspace) -> float:
    """Uniform-noise deterministic cost -N tr{(I - P_o) R_z}.

    The workspace must have been built with lambda identically one; the
    arithmetic path is then shared bit-for-bit with :func:`cost_dml`,
    whose log term vanishes exactly.
    """
    if (ws.lam != 1.0).any():
        raise ValueError("uniform cost requires a workspace with lambda == 1")
    return _trace_cost(ws)


def cost_dml(ws: WhitenedWorkspace) -> float:
    """Concentrated deterministic cost N(2 log|Lambda| - tr{(I-P) R_zl})."""
    log_term = 2.0 * ws.n_snapshots * float(np.log(ws.lam).sum())
    return log_term + _trace_cost(ws)


def cost_lc(ws: WhitenedWorkspace) -> float:
    """Stochastic correction -N log|C|, C = I - P + P R_zl P."""
    return -ws.n_snapshots * ws.logdet_c


def cost_sml(ws: WhitenedWorkspace) -> float:
    """Concentrated stochastic cost, exactly cost_dml + cost_lc."""
    return cost_dml(ws) + cost_lc(ws)


def concentrated_rs(ws: WhitenedWorkspace) -> np.ndarray:
    """Concentrated source covariance Phi^+ R_zl Phi^+H - (Phi^H Phi)^-1.

    This is the stochastic-ML maximizer of the source covariance for
    fixed (theta, lambda); it is Hermitian by construction but not
    necessarily positive semidefinite at finite snapshot counts.
    """
    t = ws.pinv @ ws.r_zl
    rs = t @ ws.pinv.conj().T - ws.minv
    return 0.5 * (rs + rs.conj().T)
