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

Lanes.  A workspace may hold a (T, ...) stack of T points, one per
lane, each with its own covariance: see :func:`build_workspace`.  Every
lane of a stack has the bits of the unstacked workspace at its point.
On a stack the costs return one value per lane, and a lane whose point
is infeasible (rank-deficient steering, or for the stochastic cost a
compressed covariance that is not positive definite) reads ``-inf``
instead of raising, so that one lane cannot stop the others.  Each cost
is kept on its workspace once made.
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


def rank_error() -> RankDeficiencyError:
    return RankDeficiencyError("whitened steering matrix is numerically rank deficient")


def spd_error() -> IndefiniteCovarianceError:
    return IndefiniteCovarianceError("compressed covariance Q^H R_zl Q is not positive definite")


@dataclass(frozen=True)
class SampleCovariance:
    """Sample covariance R_z = (1/N) Z Z^H together with the snapshot count.

    ``matrix`` is M x M, or a (T, M, M) stack of T lanes' covariances
    with one snapshot count (see :meth:`stack`).  It is a read-only copy
    of the array given, so a result derived from it cannot go stale:
    :mod:`apndoa.apn` keeps stage 1 in the private ``_memo``, keyed by
    the settings it depends on.
    """

    matrix: np.ndarray
    n_snapshots: int
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        r = np.array(self.matrix, dtype=complex)
        if r.ndim not in (2, 3) or r.shape[-2] != r.shape[-1]:
            raise ValueError("covariance must be square")
        if self.n_snapshots < 1:
            raise ValueError("snapshot count must be positive")
        if not np.isfinite(r).all():
            raise ValueError("covariance has non-finite (NaN or Inf) entries")
        scale = max(np.abs(r).max(), 1.0)
        if np.abs(r - r.conj().mT).max() > 1e-12 * scale:
            raise ValueError("covariance must be Hermitian")
        r.flags.writeable = False
        object.__setattr__(self, "matrix", r)

    @property
    def m(self) -> int:
        return self.matrix.shape[-1]

    @classmethod
    def stack(cls, covariances) -> "SampleCovariance":
        """The (T, M, M) stack of T validated covariances of one size and
        snapshot count."""
        covariances = list(covariances)
        n = covariances[0].n_snapshots
        if any(c.n_snapshots != n for c in covariances):
            raise ValueError("stacked covariances must share one snapshot count")
        return cls._trusted(np.stack([c.matrix for c in covariances]), n)

    def lanes(self, idx) -> "SampleCovariance":
        """The sub-stack of the lanes ``idx`` of a stack."""
        return self._trusted(self.matrix[idx], self.n_snapshots)

    @classmethod
    def _trusted(cls, matrix, n):
        # lanes of covariances validated when they were made
        out = object.__new__(cls)
        object.__setattr__(out, "matrix", matrix)
        object.__setattr__(out, "n_snapshots", n)
        object.__setattr__(out, "_memo", {})
        return out


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

    A stack of T lanes has a leading (T,) axis on every array field;
    ``full_rank`` then marks the lanes whose steering passed the rank
    check, and the properties above are for unstacked workspaces only.
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
    full_rank: np.ndarray | bool = True
    all_full_rank: bool = True
    # the Cholesky factor of b; for a stack a list of them, None where b is
    # not positive definite
    _b_chol: tuple | list | None = field(default=None, init=False, repr=False)
    _b_error: Exception | None = field(default=None, init=False, repr=False)
    # the uniform-noise gradient and Hessian, which stage 1 asks for
    # together; made by one pass of apndoa.derivatives on first use
    _uniform: tuple | None = field(default=None, init=False, repr=False)
    # each cost by name, made on first use
    _costs: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def m(self) -> int:
        return self.phi.shape[-2]

    @property
    def k(self) -> int:
        return self.phi.shape[-1]

    @property
    def theta(self) -> np.ndarray:
        return self.steering.theta

    @property
    def stacked(self) -> bool:
        return self.phi.ndim == 3

    def take(self, idx) -> "WhitenedWorkspace":
        """The stack of the lanes ``idx`` of a stack, each lane with the
        memory layout it had, and with its Cholesky factor if made."""
        idx = np.arange(len(self.b))[idx]
        chol = self._b_chol
        if chol is not None:
            chol = [chol[i] for i in idx]
        return _restack([self], lambda arrays: arrays[0].take(idx, axis=0), chol)

    @staticmethod
    def join(parts) -> "WhitenedWorkspace":
        """One stack of the lanes of the stacks ``parts``, in order, each
        lane with the memory layout it had."""
        chol = None
        if all(p._b_chol is not None for p in parts):
            chol = [f for p in parts for f in p._b_chol]
        return _restack(parts, np.concatenate, chol)

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
        """Dense M x M projector Q Q^H, per lane of a stack (small M only)."""
        return self.q_factor @ self.qh

    # -- stochastic-path factors ------------------------------------------

    def b_factors(self) -> list:
        """The Cholesky factor of ``b`` per lane of a stack, ``None`` where
        ``b`` is not positive definite; made once."""
        if self._b_chol is None:
            self._b_chol = [cholesky(x) for x in self.b]
        return self._b_chol

    def _require_spd(self):
        """The factor of an unstacked workspace, or the lanes' factors of a
        stack; raises if any lane's ``b`` is not positive definite."""
        if self._b_error is not None:
            raise self._b_error
        if self.phi.ndim == 3:
            factors = self.b_factors()
            if None in factors:
                raise spd_error()
            return factors
        if self._b_chol is None:
            chol = cholesky(self.b)
            if chol is None:
                self._b_error = spd_error()
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
    def logdet_c(self):
        """log|C| with C = I - P + P R_zl P, via |C| = |Q^H R_zl Q|; per
        lane of a stack, ``+inf`` where ``b`` is not positive definite."""
        if self.phi.ndim == 2:
            chol = self._require_spd()
            return 2.0 * float(np.log(chol[0].diagonal().real).sum())
        # log and a sum over the last axis give each lane its own call's bits
        diag = np.array([np.full(self.k, np.inf) if f is None else f[0].diagonal().real for f in self.b_factors()])
        return 2.0 * np.log(diag).sum(axis=-1)

    def trace_perp(self):
        """tr{(I - P) R_zl} = tr{Q_perp^H R_zl Q_perp}, per lane of a stack.

        A sum of M - K terms ``q^H R_zl q`` that are nonnegative for a
        positive semidefinite ``R_zl``.  The equal difference
        ``tr R_zl - tr B`` of two traces that grow with the largest
        lambda while the result does not loses the result to rounding
        once a lambda runs away: 9e-8 relative on a 40 dB batch where
        one lambda had grown to 7e4.  ``np.vdot`` runs per lane: a batched
        trace sums in another order.
        """
        qp = self.q_perp
        rq = self.r_zl @ qp
        if qp.ndim == 2:
            return float(np.vdot(qp, rq).real)
        return np.array([np.vdot(qp[i], rq[i]).real for i in range(len(qp))])


# the array fields of a workspace stack, and those whose lanes are
# Fortran-ordered; matrix products can round differently with the layout
# of their operands, so a restacked lane keeps its layout
_LANE_FIELDS = ("lam", "r_z", "phi", "q_factor", "r_factor", "r_zl", "qh_r", "b", "full_rank")
_F_LANE_FIELDS = ("q_perp", "qh")


def _restack(parts, pick, chol) -> WhitenedWorkspace:
    """A workspace whose array fields are ``pick`` of the parts' arrays.
    Assembled without the dataclass constructors, which cost more than
    the copies at these sizes."""
    fields = {name: pick([p.__dict__[name] for p in parts]) for name in _LANE_FIELDS}
    for name in _F_LANE_FIELDS:
        fields[name] = pick([p.__dict__[name].mT for p in parts]).mT
    steering = object.__new__(SteeringSet)
    steering.__dict__.update(
        {name: pick([p.steering.__dict__[name] for p in parts]) for name in ("theta", "phi", "d1", "d2")}
    )
    ws = object.__new__(WhitenedWorkspace)
    ws.__dict__.update(
        fields,
        steering=steering,
        n_snapshots=parts[0].n_snapshots,
        all_full_rank=bool(fields["full_rank"].all()),
        _b_chol=chol,
        _b_error=None,
        _uniform=None,
        _costs={},
    )
    return ws


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

    A stack of T lanes takes a (T, M, M) ``r_z`` (see
    :meth:`SampleCovariance.stack`), a steering set of (T, K) angles and a
    (T, M) ``lam``, and gives a workspace whose fields have a leading
    (T,) axis; each lane has the bits of its own unstacked build.  A
    stack does not raise for a rank-deficient lane but marks it in
    ``full_rank``.

    Raises
    ------
    RankDeficiencyError
        If the whitened steering matrix is numerically rank deficient,
        which happens when two angles (or their steering responses)
        coalesce.
    """
    if not isinstance(r_z, SampleCovariance):
        raise TypeError("r_z must be a SampleCovariance")
    m = steering.phi.shape[-2]
    if r_z.m != m or r_z.matrix.shape[:-2] != steering.phi.shape[:-2]:
        raise ValueError("covariance size does not match the steering set")
    lam = _check_noise(lam, m)
    if lam.shape[:-1] != steering.phi.shape[:-2]:
        raise ValueError("noise profiles do not match the steering set")

    phi = lam[..., :, None] * steering.phi
    q, r, q_perp = complete_qr(phi)
    diag = np.abs(r.diagonal(0, -2, -1))
    full_rank = diag.min(axis=-1) > RANK_RTOL * diag.max(axis=-1)
    all_full_rank = bool(full_rank if phi.ndim == 2 else full_rank.all())
    if not (all_full_rank or phi.ndim == 3):
        raise rank_error()

    # row/column scaling instead of dense diagonal products
    r_zl = (lam[..., :, None] * r_z.matrix) * lam[..., None, :]
    qh = q.conj().mT
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
        full_rank=full_rank,
        all_full_rank=all_full_rank,
    )


def _cached(ws: WhitenedWorkspace, name: str, cost):
    """``cost(ws)``, kept on the workspace; a stack's infeasible lanes
    read -inf."""
    value = ws._costs.get(name)
    if value is None:
        value = cost(ws)
        if not ws.all_full_rank:
            value = np.where(ws.full_rank, value, -np.inf)
        ws._costs[name] = value
    return value


def _trace_cost(ws: WhitenedWorkspace):
    return -ws.n_snapshots * ws.trace_perp()


def _dml(ws: WhitenedWorkspace):
    if ws.phi.ndim == 2:
        log_term = 2.0 * ws.n_snapshots * float(np.log(ws.lam).sum())
    else:
        log_term = 2.0 * ws.n_snapshots * np.log(ws.lam).sum(axis=-1)
    return log_term + _trace_cost(ws)


def _lc(ws: WhitenedWorkspace):
    return -ws.n_snapshots * ws.logdet_c


def _sml(ws: WhitenedWorkspace):
    return _dml(ws) + _lc(ws)


def cost_dml_uniform(ws: WhitenedWorkspace):
    """Uniform-noise deterministic cost -N tr{(I - P_o) R_z}.

    The workspace must have been built with lambda identically one; the
    arithmetic path is then shared bit-for-bit with :func:`cost_dml`,
    whose log term vanishes exactly.
    """
    if (ws.lam != 1.0).any():
        raise ValueError("uniform cost requires a workspace with lambda == 1")
    return _cached(ws, "uniform", _trace_cost)


def cost_dml(ws: WhitenedWorkspace):
    """Concentrated deterministic cost N(2 log|Lambda| - tr{(I-P) R_zl})."""
    return _cached(ws, "dml", _dml)


def cost_lc(ws: WhitenedWorkspace):
    """Stochastic correction -N log|C|, C = I - P + P R_zl P."""
    return _cached(ws, "lc", _lc)


def cost_sml(ws: WhitenedWorkspace):
    """Concentrated stochastic cost, exactly cost_dml + cost_lc."""
    return _cached(ws, "sml", _sml)


def concentrated_rs(ws: WhitenedWorkspace) -> np.ndarray:
    """Concentrated source covariance Phi^+ R_zl Phi^+H - (Phi^H Phi)^-1.

    This is the stochastic-ML maximizer of the source covariance for
    fixed (theta, lambda); it is Hermitian by construction but not
    necessarily positive semidefinite at finite snapshot counts.
    """
    t = ws.pinv @ ws.r_zl
    rs = t @ ws.pinv.conj().T - ws.minv
    return 0.5 * (rs + rs.conj().T)
