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
snapshot count.

All of them are evaluated by one straight-line function, :func:`_kernel`,
from the workspace's thin QR factors, its whitened covariance and the
steering derivatives.  Each shared product is a local formed once.  A
block's ``Re{a o b^T}`` summands, over the D and C pieces the selected
cost needs, are added in complex arithmetic and the real part is taken
once; the symmetrisation and the ``L^-1`` scaling are applied once per
block.  The stochastic cost is the exact sum ``L_S = L_D + L_C``, so its
gradient is the sum of the D and C gradients; its Hessian blocks add the
D and C summands before the real part is taken.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import cho_solve, per_lane, solve_upper
from .workspace import WhitenedWorkspace, _require_uniform

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


def _h(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return x.conj().mT


def _rdiag(x: np.ndarray) -> np.ndarray:
    """Real part of the diagonal over the last two axes."""
    return x.diagonal(0, -2, -1).real


def _sym(x: np.ndarray, scale: float) -> np.ndarray:
    """``scale`` times the symmetric part over the last two axes (guards
    the last-ulp asymmetry left by the factored products)."""
    return (0.5 * scale) * (x + x.mT)


def _combine(which: str, d, c):
    """The selected cost's piece: D, C, or their sum for S."""
    if which == "D":
        return d
    if which == "C":
        return c
    return d + c


def _kernel(ws: WhitenedWorkspace, which: str, reduced: bool, block: str | None):
    """Gradient and Hessian of the selected cost at the workspace point.

    ``which`` is 'D', 'C' or 'S'; ``reduced`` keeps the dominant Hessian
    summands only; ``block`` is ``None`` for the assembled (K+M) result,
    or 'theta'/'lam' for that block's gradient and diagonal Hessian
    block, and then forms only that block's factors.  Matrix products
    broadcast over leading axes; the two solves (``R^-1``, ``B^-1``) are
    the only 2-D calls.

    The blocks of the module docstring are rewritten through the thin
    factors.  With ``f0 = Q^H R (I-P) D``, ``bf0 = B^-1 f0`` and
    ``Q^H R (I-P) = Q^H R - B Q^H``: ``pinv R (I-P) D = R^-1 f0``,
    ``G = R^-1 bf0``, ``M_zl Phi^H R D = G + pinv D``,
    ``D^H (I - R P_z) R (I-P) D = D^H (I-P) R (I-P) D - f0^H bf0``,
    ``R (I - P_z R) D = R (I-P) D - R Q bf0`` and
    ``conj(D^H (I - R P_z)) = ((I-P) D - Q bf0)^T``.  Under ``Re``,
    ``a o b^T`` may be replaced by ``conj(a) o conj(b)^T``, and, in a
    block that is symmetrised, by ``b o a^T``; so the theta-theta pairs
    ``x o y^T + y o x^T`` are formed once and doubled, and every mixed
    summand takes the form ``(K x M) o (M x K)^T``.  The identity
    Hadamard terms of the lambda-lambda blocks reduce to diagonals: for
    the full D block ``Re{(4P - I) o F^T} - I = Re{4 P o F^T}
    + diag(-diag F - 1)`` with ``F = (I-P) R (I-P)``.

    Signs of the mixed stochastic block.  ``H_Ctl[k, m]`` is the
    derivative in ``lambda_m`` of ``g_Ctheta = -2N Re diag X`` with
    ``X = M_zl Phi^H R (I-P) D``.  Scaling ``lambda_m`` by ``1 + e``
    maps ``Phi -> (I + eE) Phi``, ``D -> (I + eE) D`` and
    ``R -> (I + eE) R (I + eE)``, ``E = e_m e_m^T``, so
    ``dP = (I-P) E P + P E (I-P)`` and
    ``dM_zl = -2 M_zl Phi^H (E R + R E) Phi M_zl``.  Each term of ``dX``
    is ``a E b``, whose diagonal entry k is ``a_km b_mk``, the (k, m)
    entry of ``a o b^T``.  With ``M_zl Phi^H R Phi = I`` and
    ``M_zl Phi^H R P = pinv``, the six terms of ``Re diag dX`` collapse
    to ``2 Re{(M_zl Phi^H) o (R(I - P_z R)D)^T
    + (D^H(I - R P_z)) o (R Phi M_zl)^T - (D^H(I-P)) o pinv^*}``, which
    gives ``H_Ctl`` the signs (+1, -1, -1) of the module docstring.
    They match mixed central differences of ``cost_lc``; ``apndoa
    verify`` and acceptance criterion 1 check them.
    """
    want_d, want_c = which != "C", which != "D"
    want_t, want_l = block != "lam", block != "theta"
    n2 = 2.0 * ws.n_snapshots
    q, qh, qh_r, b, r = ws.q_factor, ws.qh, ws.qh_r, ws.b, ws.r_zl
    lam = ws.lam
    inv_lam = 1.0 / lam
    k, m = q.shape[-1], q.shape[-2]
    gd = gc = gld = glc = None
    eye = np.eye(k, dtype=complex)
    stacked = ws.stacked
    if want_c:
        factors = ws._require_spd()
        binv = per_lane(cho_solve, factors, eye) if stacked else cho_solve(factors, eye)  # B^-1

    if want_t:
        if stacked:
            rinv = per_lane(solve_upper, ws.r_factor, eye)
        else:
            rinv = solve_upper(ws.r_factor, eye)
        rih = _h(rinv)
        d1 = lam[..., :, None] * ws.steering.d1
        qhd = qh @ d1
        dp = d1 - q @ qhd                       # (I-P) D
        f0 = qh_r @ dp
        fd = rinv @ f0                          # pinv R (I-P) D
        did = _h(dp) @ dp                       # D^H (I-P) D
        if want_d:
            gd = n2 * _rdiag(fd)
            prp = (rinv @ b) @ rih              # pinv R pinv^H
        if want_c:
            bf0 = binv @ f0
            g = rinv @ bf0                      # G
            gc = -n2 * _rdiag(g)
        if reduced:
            w = -prp if want_d else 0.0
            acc = (w + rinv @ rih if want_c else w) * did.mT
        else:
            minv = rinv @ rih                   # M
            pd = rinv @ qhd                     # pinv D
            rdp = r @ dp                        # R (I-P) D
            dirid = _h(dp) @ rdp                # D^H (I-P) R (I-P) D
            qrp = qh_r - b @ qh                 # Q^H R (I-P)
            e = qrp @ (lam[..., :, None] * ws.steering.d2)
            acc = 0.0
            if want_d:
                acc = minv * dirid.mT - prp * did.mT - 2.0 * fd * pd.mT
            if want_c:
                rb = rinv @ binv
                s4 = dirid - _h(f0) @ bf0
                acc = acc + minv * did.mT - (rb @ rih) * s4.mT + (2.0 * pd + g) * g.mT
                e = e - binv @ e if want_d else -(binv @ e)
            # I o (R^-1 e)^T: + pinv R (I-P) D2 for D, - M_zl Phi^H R (I-P) D2 for C
            np.einsum("...ii->...i", acc)[...] += np.einsum("...ij,...ji->...i", rinv, e)
        h_tt = _sym(acc.real, n2)

    if block is None:
        pinv = rinv @ qh
        if reduced:
            acc = pinv * dp.mT if want_c else np.zeros(pinv.shape)
        else:
            v = 0.0
            acc = 0.0
            if want_d:
                v = rinv @ qrp                  # pinv R (I-P)
                acc = pinv * (rdp - q @ f0).mT
            if want_c:
                v = v + pinv
                acc = (
                    acc
                    - (rb @ qh) * (rdp - _h(qh_r) @ bf0).mT
                    - (rb @ qh_r) * (dp - q @ bf0).mT
                )
            acc = acc + v * dp.mT
        h_tl = (2.0 * n2) * acc.real * inv_lam[..., None, :]

    if want_l:
        n2_lam = n2 * inv_lam
        p = q @ qh                              # P
        diag_p = _rdiag(p)
        x = 0.0
        dvec = 0.0
        if want_d:
            ipr = r - q @ qh_r                  # (I-P) R
            iri = ipr - ipr @ p                 # (I-P) R (I-P)
            ud = 1.0 - _rdiag(iri)
            gld = n2_lam * ud
            x = -4.0 * p if reduced else 4.0 * iri
            dvec = 5.0 * diag_p - 2.0 if reduced else ud - 2.0
        if want_c:
            bq = binv @ qh
            rpz = _h(qh_r) @ bq                 # R P_z
            uc = diag_p - 2.0 * _rdiag(rpz)
            glc = n2_lam * uc
            x = x - 2.0 * p
            dvec = dvec + uc
        acc = p * x.mT
        if want_c:
            y = rpz * rpz.mT
            if not reduced:
                y = y - (r - rpz @ r) * (q @ bq).mT
            acc = acc + 4.0 * y
        core = acc.real
        np.einsum("...ii->...i", core)[...] += dvec
        h_ll = _sym(core * (inv_lam[..., :, None] * inv_lam[..., None, :]), n2)

    if block == "theta":
        return _combine(which, gd, gc), h_tt
    if block == "lam":
        return _combine(which, gld, glc), h_ll
    g_all = np.concatenate([_combine(which, gd, gc), _combine(which, gld, glc)], axis=-1)
    h_all = np.empty(g_all.shape + (k + m,))
    h_all[..., :k, :k] = h_tt
    h_all[..., :k, k:] = h_tl
    h_all[..., k:, :k] = h_tl.mT
    h_all[..., k:, k:] = h_ll
    return g_all, h_all


@dataclass(frozen=True)
class GradientBlocks:
    """Gradient blocks; a piece is ``None`` when it was not evaluated
    (the stochastic pieces for which='D', the deterministic ones for
    which='C')."""

    d_theta: np.ndarray | None = None
    d_lam: np.ndarray | None = None
    c_theta: np.ndarray | None = None
    c_lam: np.ndarray | None = None


@dataclass(frozen=True)
class HessianBlocks:
    """Hessian blocks; a piece is ``None`` when it was not evaluated, as
    for :class:`GradientBlocks`.

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


def _split(ws: WhitenedWorkspace, part: str, wanted: bool, reduced: bool = False):
    """(g_theta, g_lam, h_tt, h_tl, h_ll) of one cost piece, or Nones."""
    if not wanted:
        return (None,) * 5
    g, h = _kernel(ws, part, reduced, None)
    k = ws.k
    return g[:k], g[k:], h[:k, :k], h[:k, k:], h[k:, k:]


def gradient_blocks(ws: WhitenedWorkspace, which: str = "S") -> GradientBlocks:
    """Gradient blocks of the selected concentrated cost at the workspace point."""
    which = _check_which(which)
    d = _split(ws, "D", which != "C")
    c = _split(ws, "C", which != "D")
    return GradientBlocks(d_theta=d[0], d_lam=d[1], c_theta=c[0], c_lam=c[1])


def hessian_blocks(
    ws: WhitenedWorkspace, which: str = "S", reduced: bool = False
) -> HessianBlocks:
    """Hessian blocks of the selected cost; ``reduced=True`` keeps only the
    summands that dominate near convergence at high SNR."""
    which = _check_which(which)
    d = _split(ws, "D", which != "C", reduced)
    c = _split(ws, "C", which != "D", reduced)
    return HessianBlocks(d_tt=d[2], d_tl=d[3], d_ll=d[4], c_tt=c[2], c_tl=c[3], c_ll=c[4])


def gradient(ws: WhitenedWorkspace, which: str = "S") -> np.ndarray:
    """Assembled gradient [d/dtheta; d/dlambda] of the selected cost."""
    return grad_hess(ws, which)[0]


def hessian(
    ws: WhitenedWorkspace, which: str = "S", reduced: bool = False
) -> np.ndarray:
    """Assembled symmetric (K+M) x (K+M) Hessian of the selected cost."""
    return grad_hess(ws, which, reduced)[1]


def grad_hess(
    ws: WhitenedWorkspace,
    which: str = "S",
    reduced: bool = False,
    block: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian together, from one pass over the shared factors.

    ``block='theta'`` or ``'lam'`` evaluates only that parameter block:
    the gradient over it and its diagonal Hessian block, equal entry for
    entry to the matching slices of the full result.  The default
    ``None`` gives the full (K+M) gradient and Hessian.
    """
    which = _check_which(which)
    if block not in (None, "theta", "lam"):
        raise ValueError("block must be None, 'theta' or 'lam'")
    return _kernel(ws, which, reduced, block)


def _uniform(ws: WhitenedWorkspace) -> tuple:
    """The uniform-noise gradient and approximate Hessian, from one kernel
    pass per workspace (stage 1 asks for both at each point).  With
    lambda = 1 they are the theta block of the reduced deterministic
    cost."""
    if ws._uniform is None:
        ws._uniform = _kernel(ws, "D", True, "theta")
    return ws._uniform


def grad_dml_uniform(ws: WhitenedWorkspace) -> np.ndarray:
    """Gradient of the uniform-noise deterministic cost over theta."""
    _require_uniform(ws, "gradient")
    return _grad_dml_uniform(ws)


def hess_dml_uniform(ws: WhitenedWorkspace, exact: bool = False) -> np.ndarray:
    """Hessian of the uniform-noise cost over theta.

    The default is the negative-semidefinite approximation
    ``-2N Re{(pinv R pinv^H) o (D^H (I-P) D)^T}`` (a Hadamard product of
    positive-semidefinite factors, so Newton steps built from it always
    ascend); ``exact=True`` evaluates all five summands.
    """
    _require_uniform(ws, "Hessian")
    return _hess_dml_uniform(ws, exact)


def _grad_dml_uniform(ws: WhitenedWorkspace) -> np.ndarray:
    """:func:`grad_dml_uniform` at a workspace built with lambda one,
    which it does not check."""
    return _uniform(ws)[0]


def _hess_dml_uniform(ws: WhitenedWorkspace, exact: bool = False) -> np.ndarray:
    """:func:`hess_dml_uniform` at a workspace built with lambda one,
    which it does not check."""
    if exact:
        return _kernel(ws, "D", False, "theta")[1]
    return _uniform(ws)[1]


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
