"""Safeguarded damped Newton ascent.

The concentrated costs are maximized, so steps are built from a
negative-definite surrogate of the Hessian: a modified Cholesky
factorization of ``-H`` with a doubling shift.  Step lengths come from
plain backtracking that insists on a strict cost increase; coordinates
flagged positive (the noise parameters) are kept away from zero by
capping the step so no entry loses more than a fixed factor per
iteration, and a runaway of those coordinates is reported as
divergence instead of being iterated into overflow.

One ascent is written once, as the generator :func:`_ascent`, which asks
for costs and derivatives instead of calling for them.
:func:`newton_maximize` answers one run's requests with direct calls;
:func:`newton_lanes` runs T independent problems at once as lanes and
answers, at each step, every lane's derivative requests with one call
and its cost requests with another, while each lane keeps its own step,
backtracking, termination and failure, and the outcome of its own run.
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
    "newton_lanes",
]

STALLED_NOTE = "line search found no ascent step"

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
    # a lane of newton_lanes that failed: the error its newton_maximize
    # run would raise
    error: Exception | None = field(default=None, repr=False)


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

    This is one lane of :func:`newton_lanes`: both drive the same
    iteration, :func:`_ascent`, here with direct calls to the callbacks.
    """
    opts = options or NewtonOptions()
    x = np.array(x0, dtype=float, copy=True)
    run = _ascent(x, opts, _positive_index(positive, x.shape))
    kind, x = next(run)
    while True:
        try:
            if kind is _COST:
                kind, x = run.send(cost_fn(x))
                continue
            try:
                value = grad_hess_fn(x)
            except (RankDeficiencyError, IndefiniteCovarianceError) as exc:
                kind, x = run.throw(exc)
            else:
                kind, x = run.send(value)
        except StopIteration as stop:
            return stop.value


def newton_lanes(
    cost_fn,
    grad_hess_fn,
    x0,
    options: NewtonOptions | None = None,
    positive: np.ndarray | None = None,
) -> list:
    """Damped Newton ascent of T costs at once, one per lane.

    Each lane runs the iteration of :func:`newton_maximize` (the same
    :func:`_ascent`), so its outcome is that of its own run, bit for bit.
    What the lanes share is the calls: at each step, one ``grad_hess_fn``
    call serves every lane that asks for derivatives and one ``cost_fn``
    call every lane that asks for a cost, whether for a first trial point
    or a shorter one.  Lanes that have stopped are not evaluated.

    Parameters
    ----------
    cost_fn : callable
        ``cost_fn(x, lanes)`` maps the (L, n) rows ``x`` of the lanes
        ``lanes`` (an index array into the T lanes) to L costs; ``-inf``
        marks an infeasible point.
    grad_hess_fn : callable
        ``grad_hess_fn(x, lanes)`` returns ``(g, h, failed)``: per row a
        gradient and Hessian, indexable by row, and ``failed``, a dict
        from row to the rank-deficiency or indefiniteness error of the
        rows whose derivatives could not be formed (their lanes stop
        with a note; ``g`` and ``h`` may hold anything there).
    x0 : array_like
        (T, n) start points.
    positive : ndarray of bool, optional
        (n,) coordinates kept positive in every lane.

    Returns
    -------
    list of NewtonOutcome
        One per lane.  A lane whose run raises ``ValueError`` or
        ``LinAlgError`` (a start that is not finite or not positive, a
        non-finite gradient or Hessian) stops alone, with the exception
        in its outcome's ``error``.  The callbacks may keep the arrays
        they are given, which are never written to afterwards.
    """
    opts = options or NewtonOptions()
    x0 = np.array(x0, dtype=float, copy=True)
    pos = _positive_index(positive, x0.shape[1:])
    runs = [_ascent(x, opts, pos) for x in x0]
    asks = {i: next(run) for i, run in enumerate(runs)}     # lane -> (kind, x)
    outs = [None] * len(runs)
    while asks:
        for kind in (_DERIVATIVES, _COST):
            lanes = [i for i, ask in asks.items() if ask[0] is kind]
            if not lanes:
                continue
            x = _rows([asks[i][1] for i in lanes])
            if kind is _COST:
                replies = [(c, None) for c in cost_fn(x, np.array(lanes))]
            else:
                g, h, failed = grad_hess_fn(x, np.array(lanes))
                replies = [((g[j], h[j]), failed.get(j)) for j in range(len(lanes))]
            for i, (value, exc) in zip(lanes, replies):
                try:
                    asks[i] = runs[i].send(value) if exc is None else runs[i].throw(exc)
                except StopIteration as stop:
                    outs[i] = stop.value
                    del asks[i]
                except (np.linalg.LinAlgError, ValueError) as exc:
                    outs[i] = NewtonOutcome(x=x0[i], cost=math.nan, error=exc)
                    del asks[i]
    return outs


# what a run of _ascent asks for
_COST, _DERIVATIVES = "cost", "derivatives"


def _ascent(x: np.ndarray, opts: NewtonOptions, pos):
    """One damped Newton ascent from ``x``, as a generator: it yields
    ``(_COST, x)`` and ``(_DERIVATIVES, x)`` requests, takes each cost,
    or ``(gradient, hessian)`` pair, as the value sent back, takes a
    rank-deficiency or indefiniteness error of the derivatives as thrown
    into it, and returns its :class:`NewtonOutcome`.  Its errors
    propagate.  It never writes to an array it has yielded."""
    c = yield _COST, x
    if not math.isfinite(c):
        raise ValueError("cost is not finite at the starting point")

    out = NewtonOutcome(x=x, cost=c, n_cost_evals=1)
    out.cost_trace.append(c)
    if pos is not None:
        if (x[pos] <= 0).any():
            raise ValueError("positive-flagged coordinates must start positive")
        pos_max0 = float(x[pos].max())
        out.pos_max_trace.append(pos_max0)
        pos_limit = opts.divergence_factor * pos_max0

    for _ in range(opts.max_iters):
        try:
            g, h = yield _DERIVATIVES, x
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
            c_try = yield _COST, x_try
            out.n_cost_evals += 1
            if c < c_try < math.inf:            # a strict, finite increase
                break
            mu *= opts.backtrack
        else:
            out.note = out.note or STALLED_NOTE
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


def _rows(rows: list) -> np.ndarray:
    """The lanes' vectors as the (L, n) rows of one array."""
    return rows[0][None] if len(rows) == 1 else np.array(rows)
