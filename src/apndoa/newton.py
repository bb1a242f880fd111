"""Safeguarded damped Newton ascent.

The concentrated costs are maximized, so steps are built from a
negative-definite surrogate of the Hessian: a modified Cholesky
factorization of ``-H`` with a doubling shift.  Step lengths come from
plain backtracking that insists on a strict cost increase; coordinates
flagged positive (the noise parameters) are kept away from zero by
capping the step so no entry loses more than a fixed factor per
iteration, and a runaway of those coordinates is reported as
divergence instead of being iterated into overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._lapack import cho_solve, cholesky
from .workspace import IndefiniteCovarianceError, RankDeficiencyError

__all__ = [
    "DIVERGED_NOTE",
    "NewtonOptions",
    "NewtonOutcome",
    "modified_cholesky",
    "newton_maximize",
]

DIVERGED_NOTE = "positive-flagged coordinates diverged"


@dataclass(frozen=True)
class NewtonOptions:
    """Knobs shared by every Newton invocation.

    ``hessian_mode`` selects the stage-3 Hessian, joint or alternating:
    'full' uses every summand of the closed-form blocks, 'reduced' keeps
    only the summands that dominate near convergence at high SNR.  The
    uniform line-search stage always uses its negative-semidefinite
    approximate Hessian.

    ``divergence_factor`` bounds the growth of the positive-flagged
    coordinates over their starting maximum.  On the deterministic cost
    at 40 dB the rounding error of the cost outgrows the gain of a
    further doubling of lambda (2 N log 2) before 1e6-fold growth, and
    the line search stalls; the default sits an order below that.
    """

    max_iters: int = 50
    max_outer: int = 100
    step_tol: float = 1e-8       # on max_i |dx_i| / max(1, |x_i|)
    cost_tol: float = 1e-11      # relative cost stagnation
    backtrack: float = 0.5
    min_mu: float = 2.0 ** -20
    hessian_mode: str = "full"
    lam_floor: float = 0.1
    lam_growth: float = 10.0
    divergence_factor: float = 1e5

    def __post_init__(self):
        if self.hessian_mode not in ("full", "reduced"):
            raise ValueError("hessian_mode must be 'full' or 'reduced'")
        if not (0.0 < self.backtrack < 1.0):
            raise ValueError("backtrack factor must lie in (0, 1)")
        if not (0.0 < self.lam_floor < 1.0):
            raise ValueError("lam_floor must lie in (0, 1)")
        if not self.lam_growth > 1.0:
            raise ValueError("lam_growth must exceed 1")


@dataclass
class NewtonOutcome:
    """Result of one Newton run.

    ``iterations`` counts accepted steps.  ``cost_trace`` holds the cost
    after each accepted step, starting with the initial value, and is
    strictly increasing by construction.  ``pos_max_trace`` tracks the
    largest positive-flagged coordinate alongside it (empty when none
    are flagged).
    """

    x: np.ndarray
    cost: float
    iterations: int = 0
    n_grad_evals: int = 0
    n_cost_evals: int = 0
    converged: bool = False
    diverged: bool = False
    note: str = ""
    cost_trace: list = field(default_factory=list)
    pos_max_trace: list = field(default_factory=list)


def modified_cholesky(h: np.ndarray, scale: float = 1e-8):
    """Cholesky factor of ``-(h - tau I)`` with the smallest shift found
    by doubling.

    Returns ``(factor, tau)`` where ``factor`` is the lower Cholesky
    factor of ``-h + tau I`` as a ``(c, True)`` pair, equal to scipy's
    ``cho_factor(-h + tau I, lower=True)`` and accepted by its
    ``cho_solve``, and ``tau = 0`` whenever ``h`` is already negative
    definite.

    The doubling starts at ``scale`` times the smallest diagonal
    magnitude rather than the matrix norm: the joint Hessian mixes angle
    curvatures that grow with SNR against noise-parameter curvatures
    that shrink like 1/lambda^2, and a shift keyed to the largest block
    would swamp the weak coordinates and degrade Newton into a crawling
    gradient ascent along them.
    """
    h = np.asarray(h, dtype=float)
    if not np.isfinite(h).all():
        raise ValueError("Hessian contains non-finite entries")
    a = -h
    factor = cholesky(a)
    if factor is not None:
        return factor, 0.0
    diag = a.diagonal().copy()
    tau = scale * max(np.abs(diag).min(), 1e-300)
    shifted = a.copy()
    shifted_diag = np.einsum("ii->i", shifted)      # a writable view
    for _ in range(2000):
        shifted_diag[:] = diag + tau                # -h + tau I
        factor = cholesky(shifted)
        if factor is not None:
            return factor, tau
        tau *= 2.0
    raise np.linalg.LinAlgError("modified Cholesky failed to find a shift")


def _positive_index(positive, shape):
    """The positive-flagged coordinates of a boolean mask as an index, or
    ``None`` if none are flagged: a slice when they are contiguous, as
    the noise parameters are, since a slice indexes without copying."""
    if positive is None:
        return None
    mask = np.asarray(positive, dtype=bool)
    if mask.shape != shape:
        raise ValueError("positive mask must match the parameter vector")
    idx = np.flatnonzero(mask)
    if not idx.size:
        return None
    lo, hi = int(idx[0]), int(idx[-1]) + 1
    return slice(lo, hi) if hi - lo == idx.size else idx


def newton_maximize(
    cost_fn,
    grad_hess_fn,
    x0,
    options: NewtonOptions | None = None,
    positive: np.ndarray | None = None,
) -> NewtonOutcome:
    """Damped Newton ascent of a scalar cost.

    Parameters
    ----------
    cost_fn : callable
        Maps a parameter vector to a float; may return ``-inf`` to mark a
        trial point as infeasible (backtracking then shortens the step).
    grad_hess_fn : callable
        Maps a parameter vector to ``(gradient, hessian)``.  A
        rank-deficiency or indefiniteness error raised here terminates
        the run gracefully with a note instead of propagating.
    x0 : array_like
        Start point; the cost must be finite there.
    positive : ndarray of bool, optional
        Coordinates to be kept positive.  Trial points are clamped
        coordinatewise so each flagged entry retains at least
        ``lam_floor`` times its previous value, and the run stops with
        ``diverged=True`` once the largest flagged coordinate exceeds
        ``divergence_factor`` times its initial maximum.

    Notes
    -----
    Step-size termination uses the scaled infinity norm
    ``max_i |dx_i| / max(1, |x_i|)`` so that large noise coordinates do
    not hold an absolute tolerance hostage, checked both on the Newton
    step before the line search and on the accepted movement after it.
    A run also stops once an accepted step raises the cost by less than
    ``cost_tol`` relative to its magnitude: near the maximum the cost
    changes quadratically in the step, so increments demanded by
    ``step_tol`` sit below the cost's floating-point resolution and
    further "strict increases" are rounding noise, not ascent.
    """
    opts = options or NewtonOptions()
    x = np.array(x0, dtype=float, copy=True)
    c = cost_fn(x)
    if not math.isfinite(c):
        raise ValueError("cost is not finite at the starting point")

    out = NewtonOutcome(x=x, cost=c, n_cost_evals=1)
    out.cost_trace.append(c)
    pos = _positive_index(positive, x.shape)
    if pos is not None:
        if (x[pos] <= 0).any():
            raise ValueError("positive-flagged coordinates must start positive")
        pos_max0 = float(x[pos].max())
        out.pos_max_trace.append(pos_max0)
        pos_limit = opts.divergence_factor * pos_max0

    for _ in range(opts.max_iters):
        try:
            g, h = grad_hess_fn(x)
        except (RankDeficiencyError, IndefiniteCovarianceError) as exc:
            out.note = f"derivative evaluation failed: {exc}"
            break
        out.n_grad_evals += 1
        factor, _ = modified_cholesky(h)
        g = np.asarray(g, dtype=float)
        if not np.isfinite(g).all():
            raise ValueError("gradient contains non-finite entries")
        step = cho_solve(factor, g)

        scale = np.maximum(1.0, np.abs(x))
        if (np.abs(step) / scale).max() < opts.step_tol:
            out.converged = True
            break

        if pos is not None:
            x_pos = x[pos]
            floor = opts.lam_floor * x_pos
            ceil = opts.lam_growth * x_pos
        mu = 1.0
        while mu >= opts.min_mu:
            x_try = x + mu * step
            if pos is not None:
                # bound each step to a fixed factor per iteration,
                # clamping only offenders
                x_try[pos] = np.minimum(np.maximum(x_try[pos], floor), ceil)
            c_try = cost_fn(x_try)
            out.n_cost_evals += 1
            if c < c_try < math.inf:            # a strict, finite increase
                break
            mu *= opts.backtrack
        else:
            out.note = out.note or "line search found no ascent step"
            break

        moved = (np.abs(x_try - x) / scale).max()
        gained = c_try - c
        x, c = x_try, c_try
        out.iterations += 1
        out.cost_trace.append(c)
        if pos is not None:
            pos_max = float(x[pos].max())
            out.pos_max_trace.append(pos_max)
            if pos_max > pos_limit:
                out.diverged = True
                out.note = DIVERGED_NOTE
                break
        if moved < opts.step_tol or gained < opts.cost_tol * (1.0 + abs(c)):
            out.converged = True
            break

    out.x = x
    out.cost = c
    return out
