"""Closed-form gradients and Hessians of the concentrated ML costs.

All blocks are stated for the whitened workspace quantities: ``P`` the
projector onto the whitened steering range, ``R`` the whitened sample
covariance, ``D``/``D2`` the whitened steering derivatives, ``pinv``
the steering pseudoinverse, ``M = (Phi^H Phi)^-1``,
``M_zl = (Phi^H R Phi)^-1`` and ``P_z = Phi M_zl Phi^H``.  With
``lambda = 1`` they reduce to the uniform-noise expressions used by the
line-search stage.

Deterministic cost ``L_D``:

    g_Dtheta  =  2N Re diag{ pinv R (I-P) D }
    g_Dlam    =  2N L^-1 diag{ I - (I-P) R (I-P) }
    H_Dtt     =  2N Re{ M o (D^H(I-P)R(I-P)D)^T - (pinv D) o (F)^T
                        - F o (pinv D)^T - (pinv R pinv^H) o (D^H(I-P)D)^T
                        + I o (pinv R (I-P) D2)^T },   F = pinv R (I-P) D
    H_Dtl     =  4N Re{ (pinv R (I-P)) o ((I-P)D)^T
                        + (D^H(I-P)R(I-P)) o pinv^* } L^-1
    H_Dll     =  2N L^-1 ( Re{ (4P - I) o ((I-P)R(I-P))^T } - I ) L^-1

Stochastic correction ``L_C = -N log|C|``:

    g_Ctheta  = -2N Re diag{ M_zl Phi^H R (I-P) D }
    g_Clam    =  2N L^-1 Re diag{ P - 2 R P_z }
    H_Ctt     =  2N Re{ G o (pinv D)^T + M o (D^H(I-P)D)^T
                        - I o (M_zl Phi^H R (I-P) D2)^T
                        - M_zl o (D^H(I - R P_z) R (I-P) D)^T
                        + (M_zl Phi^H R D) o G^T },  G = M_zl Phi^H R (I-P) D
    H_Ctl     =  4N Re{ (D^H(I-P)) o pinv^*
                        - (M_zl Phi^H) o (R(I - P_z R)D)^T
                        - (D^H(I - R P_z)) o (R Phi M_zl)^T } L^-1
    H_Cll     =  2N L^-1 Re{ (I - 2P) o P^T - 4 (R(I - P_z R)) o P_z^T
                        - 2 (R P_z) o (I - 2 R P_z)^T } L^-1

``o`` is the Hadamard product, ``L = diag(lambda)``, and ``N`` the
snapshot count.  ``diag{AB}`` is always evaluated as row sums of
``A o B^T``; diagonal scalings are applied as row/column scalings; real
parts of Hadamard products are formed from real and imaginary parts
directly, which is bit-identical to taking the real part afterwards.

The relative signs (s1, s2, s3) of the mixed stochastic block were
fixed numerically against mixed second differences of the stochastic
correction on batches of random instances; see ``_CTL_SIGNS`` below.

The stochastic cost is the exact sum L_S = L_D + L_C, so the S-blocks
are assembled as elementwise sums of the D- and C-blocks.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .workspace import WhitenedWorkspace

__all__ = [
    "GradientBlocks",
    "HessianBlocks",
    "gradient_blocks",
    "hessian_blocks",
    "gradient",
    "hessian",
    "grad_hess",
    "grad_dml_uniform",
    "hess_dml_uniform",
    "fd_gradient",
    "fd_hessian",
    "block_rel_err",
    "fd_check",
    "FdCheckReport",
]

# Relative signs of the three summands of the mixed stochastic
# Hessian block H_Ctl.  Fixed by an 8-way fit against mixed second
# central differences of cost_lc on random instances; the winning
# combination matched to ~1e-9 relative while every other one was off
# by O(1).
_CTL_SIGNS = (1.0, -1.0, -1.0)


def _diag_prod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """diag(a @ b) as row sums of a o b^T, without the full product."""
    return np.einsum("ij,ji->i", a, b)


def _re_hadamard(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re{a o b} assembled from real and imaginary parts."""
    return a.real * b.real - a.imag * b.imag


def _sym(x: np.ndarray) -> np.ndarray:
    """Symmetrize a square block (guards the last-ulp asymmetry left by
    the factored products)."""
    return 0.5 * (x + x.T)


class _Products:
    """Lazily cached matrix products shared by the gradient and Hessian
    blocks at one workspace point.

    The workspace holds its products (see :func:`_products`) and they
    refer back to it weakly, so the pair forms no reference cycle and is
    freed as soon as the workspace is dropped.
    """

    def __init__(self, ws: WhitenedWorkspace):
        self.ws = weakref.proxy(ws)

    # -- deterministic-path pieces --------------------------------------

    @cached_property
    def qh_r(self) -> np.ndarray:            # Q^H R, K x M
        return self.ws.q_factor.conj().T @ self.ws.r_zl

    @cached_property
    def d_perp(self) -> np.ndarray:          # (I-P) D, M x K
        return self.ws.perp(self.ws.d1)

    @cached_property
    def d2_perp(self) -> np.ndarray:         # (I-P) D2, M x K
        return self.ws.perp(self.ws.d2)

    @cached_property
    def r_dperp(self) -> np.ndarray:         # R (I-P) D, M x K
        return self.ws.r_zl @ self.d_perp

    @cached_property
    def pd(self) -> np.ndarray:              # pinv D, K x K
        return self.ws.pinv @ self.ws.d1

    @cached_property
    def fd(self) -> np.ndarray:              # pinv R (I-P) D, K x K
        return self.ws.pinv @ self.r_dperp

    @cached_property
    def prp(self) -> np.ndarray:             # pinv R pinv^H = rinv B rinv^H
        return (self.ws.rinv @ self.ws.b) @ self.ws.rinv.conj().T

    @cached_property
    def did(self) -> np.ndarray:             # D^H (I-P) D, K x K
        return self.d_perp.conj().T @ self.d_perp

    @cached_property
    def dirid(self) -> np.ndarray:           # D^H (I-P) R (I-P) D, K x K
        return self.d_perp.conj().T @ self.r_dperp

    @cached_property
    def ip_r(self) -> np.ndarray:            # (I-P) R, M x M
        return self.ws.r_zl - self.ws.q_factor @ self.qh_r

    @cached_property
    def iri(self) -> np.ndarray:             # (I-P) R (I-P), M x M
        return self.ws.perp_rows(self.ip_r)

    @cached_property
    def diag_iri(self) -> np.ndarray:        # real diag of the above
        q = self.ws.q_factor
        d_pr = _diag_prod(q, self.qh_r)                       # diag(P R)
        qb = q @ self.ws.b
        d_prp = np.einsum("ij,ij->i", qb, q.conj())           # diag(P R P)
        return (
            np.real(np.diagonal(self.ws.r_zl))
            - 2.0 * d_pr.real
            + d_prp.real
        )

    @cached_property
    def p_dense(self) -> np.ndarray:         # Q Q^H, M x M
        return self.ws.projector()

    @cached_property
    def fri(self) -> np.ndarray:             # pinv R (I-P), K x M
        return self.ws.perp_rows(self.ws.rinv @ self.qh_r)

    @cached_property
    def diri(self) -> np.ndarray:            # D^H (I-P) R (I-P), K x M
        return self.ws.perp_rows(self.r_dperp.conj().T)

    # -- stochastic-path pieces ------------------------------------------

    @cached_property
    def binv_qh(self) -> np.ndarray:         # B^-1 Q^H, K x M
        return self.ws.b_solve(self.ws.q_factor.conj().T)

    @cached_property
    def mzphir(self) -> np.ndarray:          # M_zl Phi^H R = rinv B^-1 Q^H R
        return self.ws.rinv @ self.ws.b_solve(self.qh_r)

    @cached_property
    def mzphih(self) -> np.ndarray:          # M_zl Phi^H = rinv B^-1 Q^H
        return self.ws.rinv @ self.binv_qh

    @cached_property
    def rq(self) -> np.ndarray:              # R Q, M x K
        return self.ws.r_zl @ self.ws.q_factor

    @cached_property
    def rd(self) -> np.ndarray:              # R D, M x K
        return self.ws.r_zl @ self.ws.d1

    @cached_property
    def qrd(self) -> np.ndarray:             # Q^H R D, K x K
        return self.qh_r @ self.ws.d1

    @cached_property
    def gfd(self) -> np.ndarray:             # M_zl Phi^H R (I-P) D, K x K
        return self.mzphir @ self.d_perp

    @cached_property
    def rpz(self) -> np.ndarray:             # R P_z = R Q B^-1 Q^H, M x M
        return self.rq @ self.binv_qh

    @cached_property
    def pz_dense(self) -> np.ndarray:        # P_z = Q B^-1 Q^H, M x M
        return self.ws.q_factor @ self.binv_qh

    @cached_property
    def diag_rpz(self) -> np.ndarray:
        return _diag_prod(self.rq, self.binv_qh)


def _products(ws: WhitenedWorkspace) -> _Products:
    """The products at the workspace's point, shared by every gradient and
    Hessian call there (the uniform gradient and Hessian of one stage-1
    iteration, the two block calls of one alternating step)."""
    if ws._products is None:
        ws._products = _Products(ws)
    return ws._products


@dataclass(frozen=True)
class GradientBlocks:
    """Gradient blocks; a piece is ``None`` when it was not evaluated
    (the stochastic pieces for which='D', the deterministic ones for
    which='C', the other parameter block for a single-block request)."""

    d_theta: np.ndarray | None = None
    d_lam: np.ndarray | None = None
    c_theta: np.ndarray | None = None
    c_lam: np.ndarray | None = None


@dataclass(frozen=True)
class HessianBlocks:
    """Hessian blocks; a piece is ``None`` when it was not evaluated, as
    for :class:`GradientBlocks` (a single-block request also skips the
    mixed blocks).

    ``d_tl``/``c_tl`` are K x M (theta rows, lambda columns); assembled
    matrices place the transpose in the lower-left block.
    """

    d_tt: np.ndarray | None = None
    d_tl: np.ndarray | None = None
    d_ll: np.ndarray | None = None
    c_tt: np.ndarray | None = None
    c_tl: np.ndarray | None = None
    c_ll: np.ndarray | None = None


def _check_which(which: str) -> str:
    if which not in ("D", "C", "S"):
        raise ValueError("which must be 'D', 'C' or 'S'")
    return which


def _grad_blocks(pr: _Products, which: str, block: str | None = None) -> GradientBlocks:
    ws = pr.ws
    n2 = 2.0 * ws.n_snapshots
    inv_lam = 1.0 / ws.lam
    want_t, want_l = block != "lam", block != "theta"

    d_theta = d_lam = c_theta = c_lam = None
    if which in ("D", "S"):
        if want_t:
            d_theta = n2 * _diag_prod(ws.pinv, pr.r_dperp).real
        if want_l:
            d_lam = n2 * inv_lam * (1.0 - pr.diag_iri)
    if which in ("C", "S"):
        if want_t:
            c_theta = -n2 * _diag_prod(pr.mzphir, pr.d_perp).real
        if want_l:
            diag_p = np.einsum("ij,ij->i", ws.q_factor, ws.q_factor.conj()).real
            c_lam = n2 * inv_lam * (diag_p - 2.0 * pr.diag_rpz.real)
    return GradientBlocks(d_theta=d_theta, d_lam=d_lam, c_theta=c_theta, c_lam=c_lam)


def _hess_blocks(
    pr: _Products, which: str, reduced: bool, block: str | None = None
) -> HessianBlocks:
    ws = pr.ws
    n2 = 2.0 * ws.n_snapshots
    inv_lam = 1.0 / ws.lam
    eye_m = np.eye(ws.m)
    want_t, want_l, want_tl = block != "lam", block != "theta", block is None

    d_tt = d_tl = d_ll = c_tt = c_tl = c_ll = None

    if which in ("D", "S"):
        if reduced:
            if want_t:
                d_tt = n2 * _sym(-_re_hadamard(pr.prp, pr.did.T))
            if want_tl:
                d_tl = np.zeros((ws.k, ws.m))
            if want_l:
                core = _re_hadamard(
                    4.0 * pr.p_dense - eye_m, (eye_m - pr.p_dense).T
                ) - eye_m
        else:
            if want_t:
                d_tt = n2 * _sym(
                    _re_hadamard(ws.minv, pr.dirid.T)
                    - _re_hadamard(pr.pd, pr.fd.T)
                    - _re_hadamard(pr.fd, pr.pd.T)
                    - _re_hadamard(pr.prp, pr.did.T)
                    + np.diag(_diag_prod(ws.pinv, ws.r_zl @ pr.d2_perp).real)
                )
            if want_tl:
                d_tl = (
                    2.0
                    * n2
                    * (
                        _re_hadamard(pr.fri, pr.d_perp.T)
                        + _re_hadamard(pr.diri, ws.pinv.conj())
                    )
                    * inv_lam[None, :]
                )
            if want_l:
                core = _re_hadamard(4.0 * pr.p_dense - eye_m, pr.iri.T) - eye_m
        if want_l:
            d_ll = n2 * _sym(inv_lam[:, None] * core * inv_lam[None, :])

    if which in ("C", "S"):
        s1, s2, s3 = _CTL_SIGNS
        if reduced:
            if want_t:
                c_tt = n2 * _sym(_re_hadamard(ws.minv, pr.did.T))
            if want_tl:
                c_tl = (
                    2.0
                    * n2
                    * s1
                    * _re_hadamard(pr.d_perp.conj().T, ws.pinv.conj())
                    * inv_lam[None, :]
                )
            if want_l:
                core = _re_hadamard(
                    eye_m - 2.0 * pr.p_dense, pr.p_dense.T
                ) - 2.0 * _re_hadamard(pr.rpz, (eye_m - 2.0 * pr.rpz).T)
        else:
            if want_t:
                s4 = pr.rd.conj().T @ pr.d_perp - pr.qrd.conj().T @ ws.b_solve(
                    ws.q_factor.conj().T @ pr.r_dperp
                )
                c_tt = n2 * _sym(
                    _re_hadamard(pr.gfd, pr.pd.T)
                    + _re_hadamard(ws.minv, pr.did.T)
                    - np.diag(_diag_prod(pr.mzphir, pr.d2_perp).real)
                    - _re_hadamard(ws.m_zl, s4.T)
                    + _re_hadamard(pr.mzphir @ ws.d1, pr.gfd.T)
                )
            if want_tl:
                t2 = pr.rd - pr.rq @ ws.b_solve(pr.qrd)
                t3 = ws.d1.conj().T - pr.qrd.conj().T @ pr.binv_qh
                rpm = pr.rq @ ws.b_solve(ws.rinv.conj().T)
                c_tl = (
                    2.0
                    * n2
                    * (
                        s1 * _re_hadamard(pr.d_perp.conj().T, ws.pinv.conj())
                        + s2 * _re_hadamard(pr.mzphih, t2.T)
                        + s3 * _re_hadamard(t3, rpm.T)
                    )
                    * inv_lam[None, :]
                )
            if want_l:
                ripzr = ws.r_zl - pr.rpz @ ws.r_zl
                core = (
                    _re_hadamard(eye_m - 2.0 * pr.p_dense, pr.p_dense.T)
                    - 4.0 * _re_hadamard(ripzr, pr.pz_dense.T)
                    - 2.0 * _re_hadamard(pr.rpz, (eye_m - 2.0 * pr.rpz).T)
                )
        if want_l:
            c_ll = n2 * _sym(inv_lam[:, None] * core * inv_lam[None, :])

    return HessianBlocks(
        d_tt=d_tt, d_tl=d_tl, d_ll=d_ll, c_tt=c_tt, c_tl=c_tl, c_ll=c_ll
    )


def gradient_blocks(ws: WhitenedWorkspace, which: str = "S") -> GradientBlocks:
    """Gradient blocks of the selected concentrated cost at the workspace point."""
    return _grad_blocks(_products(ws), _check_which(which))


def hessian_blocks(
    ws: WhitenedWorkspace, which: str = "S", reduced: bool = False
) -> HessianBlocks:
    """Hessian blocks of the selected cost; ``reduced=True`` keeps only the
    summands that dominate near convergence at high SNR."""
    return _hess_blocks(_products(ws), _check_which(which), reduced)


def _combine(which: str, d, c):
    """The selected cost's piece: D, C, or their sum for S."""
    if which == "D":
        return d
    if which == "C":
        return c
    return d + c


def _assemble_grad(blocks: GradientBlocks, which: str) -> np.ndarray:
    return np.concatenate([
        _combine(which, blocks.d_theta, blocks.c_theta),
        _combine(which, blocks.d_lam, blocks.c_lam),
    ])


def _assemble_hess(blocks: HessianBlocks, which: str) -> np.ndarray:
    tt = _combine(which, blocks.d_tt, blocks.c_tt)
    tl = _combine(which, blocks.d_tl, blocks.c_tl)
    ll = _combine(which, blocks.d_ll, blocks.c_ll)
    k, m = tl.shape
    h = np.empty((k + m, k + m))
    h[:k, :k] = tt
    h[:k, k:] = tl
    h[k:, :k] = tl.T
    h[k:, k:] = ll
    return h


def gradient(ws: WhitenedWorkspace, which: str = "S") -> np.ndarray:
    """Assembled gradient [d/dtheta; d/dlambda] of the selected cost."""
    which = _check_which(which)
    return _assemble_grad(gradient_blocks(ws, which), which)


def hessian(
    ws: WhitenedWorkspace, which: str = "S", reduced: bool = False
) -> np.ndarray:
    """Assembled symmetric (K+M) x (K+M) Hessian of the selected cost."""
    which = _check_which(which)
    return _assemble_hess(hessian_blocks(ws, which, reduced), which)


def grad_hess(
    ws: WhitenedWorkspace,
    which: str = "S",
    reduced: bool = False,
    block: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian together, sharing the intermediate products.

    ``block='theta'`` or ``'lam'`` evaluates only that parameter block:
    the gradient over it and its diagonal Hessian block, equal entry for
    entry to the matching slices of the full result.  The default
    ``None`` gives the full (K+M) gradient and Hessian.
    """
    which = _check_which(which)
    if block not in (None, "theta", "lam"):
        raise ValueError("block must be None, 'theta' or 'lam'")
    pr = _products(ws)
    gb = _grad_blocks(pr, which, block)
    hb = _hess_blocks(pr, which, reduced, block)
    if block == "theta":
        return _combine(which, gb.d_theta, gb.c_theta), _combine(which, hb.d_tt, hb.c_tt)
    if block == "lam":
        return _combine(which, gb.d_lam, gb.c_lam), _combine(which, hb.d_ll, hb.c_ll)
    return _assemble_grad(gb, which), _assemble_hess(hb, which)


def grad_dml_uniform(ws: WhitenedWorkspace) -> np.ndarray:
    """Gradient of the uniform-noise deterministic cost over theta."""
    if np.any(ws.lam != 1.0):
        raise ValueError("uniform gradient requires a workspace with lambda == 1")
    pr = _products(ws)
    return 2.0 * ws.n_snapshots * _diag_prod(ws.pinv, pr.r_dperp).real


def hess_dml_uniform(ws: WhitenedWorkspace, exact: bool = False) -> np.ndarray:
    """Hessian of the uniform-noise cost over theta.

    The default is the negative-semidefinite approximation
    ``-2N Re{(pinv R pinv^H) o (D^H (I-P) D)^T}`` (a Hadamard product of
    positive-semidefinite factors, so Newton steps built from it always
    ascend); ``exact=True`` evaluates all five summands.
    """
    if np.any(ws.lam != 1.0):
        raise ValueError("uniform Hessian requires a workspace with lambda == 1")
    pr = _products(ws)
    if exact:
        return _hess_blocks(pr, "D", reduced=False, block="theta").d_tt
    n2 = 2.0 * ws.n_snapshots
    return n2 * _sym(-_re_hadamard(pr.prp, pr.did.T))


# ---------------------------------------------------------------------------
# finite-difference oracles


def fd_gradient(f, x, rel_step: float = 1e-7, min_step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient with per-coordinate adaptive step
    ``h_i = max(min_step, rel_step * |x_i|)``."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        h = max(min_step, rel_step * abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def fd_hessian(f, x, rel_step: float = 1e-4) -> np.ndarray:
    """Second central differences on a four-point stencil,
    ``h_i = rel_step * max(1, |x_i|)``."""
    x = np.asarray(x, dtype=float)
    n = x.size
    h = rel_step * np.maximum(1.0, np.abs(x))
    hess = np.empty((n, n))
    f0 = f(x)
    for i in range(n):
        for j in range(i, n):
            if i == j:
                xp, xm = x.copy(), x.copy()
                xp[i] += 2.0 * h[i]
                xm[i] -= 2.0 * h[i]
                val = (f(xp) - 2.0 * f0 + f(xm)) / (4.0 * h[i] * h[i])
            else:
                xpp, xpm, xmp, xmm = x.copy(), x.copy(), x.copy(), x.copy()
                xpp[[i, j]] += h[[i, j]]
                xpm[i] += h[i]
                xpm[j] -= h[j]
                xmp[i] -= h[i]
                xmp[j] += h[j]
                xmm[[i, j]] -= h[[i, j]]
                val = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4.0 * h[i] * h[j])
            hess[i, j] = hess[j, i] = val
    return hess


def block_rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    """Blockwise relative error: max absolute deviation over the larger of
    the two block magnitudes (floored at 1e-12)."""
    analytic = np.asarray(analytic, dtype=float)
    fd = np.asarray(fd, dtype=float)
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(fd).max(initial=0.0), 1e-12)
    return float(np.abs(analytic - fd).max(initial=0.0) / scale)


@dataclass
class FdCheckReport:
    """Comparison of analytic derivatives against finite differences.

    ``*_rel_err`` are per-entry with denominators
    ``max(|analytic|, |fd|, 1e-12)``; ``*_block_err`` is the blockwise
    measure of :func:`block_rel_err`, which is the robust one for entries
    that are incidentally tiny.
    """

    grad_analytic: np.ndarray | None = None
    grad_fd: np.ndarray | None = None
    grad_rel_err: np.ndarray | None = None
    grad_block_err: float | None = None
    hess_analytic: np.ndarray | None = None
    hess_fd: np.ndarray | None = None
    hess_rel_err: np.ndarray | None = None
    hess_block_err: float | None = None


def _per_entry_rel(a, fd):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-12)
    return np.abs(a - fd) / denom


def fd_check(f, x, grad=None, hess=None) -> FdCheckReport:
    """Check analytic derivatives of scalar ``f`` at ``x`` against central
    differences; pass whichever of ``grad``/``hess`` should be verified."""
    report = FdCheckReport()
    if grad is not None:
        grad = np.asarray(grad, dtype=float)
        g_fd = fd_gradient(f, x)
        report.grad_analytic = grad
        report.grad_fd = g_fd
        report.grad_rel_err = _per_entry_rel(grad, g_fd)
        report.grad_block_err = block_rel_err(grad, g_fd)
    if hess is not None:
        hess = np.asarray(hess, dtype=float)
        h_fd = fd_hessian(f, x)
        report.hess_analytic = hess
        report.hess_fd = h_fd
        report.hess_rel_err = _per_entry_rel(hess, h_fd)
        report.hess_block_err = block_rel_err(hess, h_fd)
    return report
