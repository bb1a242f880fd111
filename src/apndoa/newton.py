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
for costs and derivatives instead of calling for them.  It runs sweeps
over a block schedule: a joint ascent steps all coordinates at once, a
blocked one takes one step per block in turn (theta, then lambda, for
the alternating targets), and the one loop owns the steps, the stall
and derivative-failure notes, the divergence limit and the termination
tests of both.  :func:`newton_maximize` answers one run's requests with
direct calls; :func:`newton_lanes` runs T independent problems at once
as lanes and answers, at each step, every lane's derivative requests
with one call per block and its cost requests with another, while each
lane keeps its own step, backtracking, termination and failure, and the
outcome of its own run.
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

    ``max_iters`` caps the steps of a joint run and ``max_outer`` the
    sweeps of a blocked one, each of which takes one step per block.

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

    ``iterations`` counts accepted steps of a joint run and sweeps of a
    blocked one.  ``cost_trace`` holds the cost after each accepted step,
    of any block, starting with the initial value, and is strictly
    increasing by construction.  ``pos_max_trace`` tracks the
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
    """Cholesky factor of ``-(h - tau I)`` with a shift found by
    doubling: twice the first one that factors.

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
        factored = cholesky(shifted) is not None
        tau *= 2.0
        if factored:
            # the first shift that factors can sit just above a barely
            # positive eigenvalue; at twice it, the smallest is >= tau / 2
            shifted_diag[:] = diag + tau
            return cholesky(shifted), tau
    raise np.linalg.LinAlgError("modified Cholesky failed to find a shift")


def _index(mask, shape):
    """The coordinates a boolean mask flags, as an index, or ``None`` if
    there is no mask or it flags none: a slice when they are contiguous,
    as the noise parameters and the parameter blocks are, since a slice
    indexes without copying."""
    if mask is None:
        return None
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != shape:
        raise ValueError("positive mask and blocks must match the parameter vector")
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
    blocks: dict | None = None,
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
    blocks : dict, optional
        A block schedule: block names mapped to boolean masks of their
        coordinates, in the order a sweep visits them.  Each sweep then
        takes one Newton step per block over that block's coordinates
        alone, with ``grad_hess_fn(x, name)`` returning the gradient over
        the block and its Hessian block, and at most ``max_outer`` sweeps
        run.  Without it every step is joint, from ``grad_hess_fn(x)``,
        and at most ``max_iters`` run.

    Notes
    -----
    Step-size termination uses the scaled infinity norm
    ``max_i |dx_i| / max(1, |x_i|)`` so that large noise coordinates do
    not hold an absolute tolerance hostage, checked both on each block's
    Newton step, over its coordinates, before the line search and on a
    sweep's movement after it.  A joint run also stops once an accepted
    step raises the cost by less than ``cost_tol`` relative to its
    magnitude: near the maximum the cost changes quadratically in the
    step, so increments demanded by ``step_tol`` sit below the cost's
    floating-point resolution and further "strict increases" are
    rounding noise, not ascent.

    This is one lane of :func:`newton_lanes`: both drive the same
    iteration, :func:`_ascent`, here with direct calls to the callbacks.
    """
    opts = options or NewtonOptions()
    x = np.array(x0, dtype=float, copy=True)
    run = _ascent(x, opts, positive, blocks)
    kind, x, block = next(run)
    while True:
        try:
            if kind is _COST:
                kind, x, block = run.send(cost_fn(x))
                continue
            try:
                value = grad_hess_fn(x) if block is None else grad_hess_fn(x, block)
            except (RankDeficiencyError, IndefiniteCovarianceError) as exc:
                kind, x, block = run.throw(exc)
            else:
                kind, x, block = run.send(value)
        except StopIteration as stop:
            return stop.value


def newton_lanes(
    cost_fn,
    grad_hess_fn,
    x0,
    options: NewtonOptions | None = None,
    positive: np.ndarray | None = None,
    blocks: dict | None = None,
) -> list:
    """Damped Newton ascent of T costs at once, one per lane.

    Each lane runs the iteration of :func:`newton_maximize` (the same
    :func:`_ascent`), so its outcome is that of its own run, bit for bit.
    What the lanes share is the calls: at each step, one ``grad_hess_fn``
    call per block serves every lane that asks for that block's
    derivatives and one ``cost_fn`` call every lane that asks for a cost,
    whether for a first trial point or a shorter one.  Lanes that have
    stopped are not evaluated.

    Parameters
    ----------
    cost_fn : callable
        ``cost_fn(x, lanes)`` maps the (L, n) rows ``x`` of the lanes
        ``lanes`` (an index array into the T lanes) to L costs; ``-inf``
        marks an infeasible point.
    grad_hess_fn : callable
        ``grad_hess_fn(x, lanes)``, or ``grad_hess_fn(x, lanes, name)``
        for a block of ``blocks``, returns ``(g, h, failed)``: per row a
        gradient and Hessian, indexable by row, and ``failed``, a dict
        from row to the rank-deficiency or indefiniteness error of the
        rows whose derivatives could not be formed (their lanes stop
        with a note; ``g`` and ``h`` may hold anything there).
    x0 : array_like
        (T, n) start points.
    positive : ndarray of bool, optional
        (n,) coordinates kept positive in every lane.
    blocks : dict, optional
        The block schedule of every lane, as for :func:`newton_maximize`.

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
    runs = [_ascent(x, opts, positive, blocks) for x in x0]
    asks = {i: next(run) for i, run in enumerate(runs)}     # lane -> (kind, x, block)
    outs = [None] * len(runs)
    requests = [(_DERIVATIVES, name) for name in blocks or (None,)] + [(_COST, None)]
    while asks:
        for kind, block in requests:
            lanes = [i for i, ask in asks.items() if ask[0] is kind and ask[2] == block]
            if not lanes:
                continue
            x = _rows([asks[i][1] for i in lanes])
            if kind is _COST:
                replies = [(c, None) for c in cost_fn(x, np.array(lanes))]
            else:
                args = (x, np.array(lanes)) if block is None else (x, np.array(lanes), block)
                g, h, failed = grad_hess_fn(*args)
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

DERIVATIVE_NOTE = "derivative evaluation failed"


def _ascent(x: np.ndarray, opts: NewtonOptions, positive, blocks):
    """One damped Newton ascent from ``x``, as a generator: it yields
    ``(_COST, x, None)`` and ``(_DERIVATIVES, x, block)`` requests, takes
    each cost, or the block's ``(gradient, hessian)`` pair, as the value
    sent back, takes a rank-deficiency or indefiniteness error of the
    derivatives as thrown into it, and returns its :class:`NewtonOutcome`.
    Its errors propagate.  It never writes to an array it has yielded.

    ``positive`` and ``blocks`` are those of :func:`newton_maximize`.  A
    run is a sequence of sweeps, each one :func:`_step` per block.  A
    joint run is one block, named ``None``, of every coordinate, whose
    sweeps, capped by ``max_iters``, are its iterations; a blocked run's
    are capped by ``max_outer``.
    After a sweep, the run stops

    - if a block's derivatives failed, with the sweep's first note;
    - if the largest positive coordinate passed ``divergence_factor``
      times its start, as diverged;
    - if the sweep moved x by less than ``step_tol`` (for a joint run,
      also if it raised the cost by less than ``cost_tol``), converged
      unless a block's line search stalled, whose note it keeps.

    A block step that would start from the bytes its last step started
    from would repeat that step's outcome, so it is not run: its note
    stands and nothing is counted.  A run counts the costs it asks for,
    its start cost and each trial point's, and the iterations of a
    blocked run are its sweeps, those of a joint run its accepted steps.
    """
    pos = _index(positive, x.shape)
    joint = blocks is None
    blocks = [(None, slice(None))] if joint else [(name, _index(m, x.shape)) for name, m in blocks.items()]
    c = yield _COST, x, None
    if not math.isfinite(c):
        raise ValueError("cost is not finite at the starting point")

    out = NewtonOutcome(x=x, cost=c, n_cost_evals=1)
    out.cost_trace.append(c)
    if pos is not None:
        if (x[pos] <= 0).any():
            raise ValueError("positive-flagged coordinates must start positive")
        out.pos_max_trace.append(float(x[pos].max()))
        pos_limit = opts.divergence_factor * out.pos_max_trace[0]
    last = {}               # block -> (bytes of x its last step started from, its note)

    for _ in range(opts.max_iters if joint else opts.max_outer):
        x_sweep, c_sweep = x, c
        note = ""
        failed = False
        moved = 0.0         # each block step moves its own coordinates alone
        for name, idx in blocks:
            start = x.tobytes()
            if name in last and last[name][0] == start:
                note = note or last[name][1]
                continue
            x_new, c, step_note, step_moved = yield from _step(x, c, name, idx, pos, opts, out)
            last[name] = (start, step_note)
            note = note or step_note
            failed = failed or step_note.startswith(DERIVATIVE_NOTE)
            if x_new is not x:
                x = x_new
                moved = max(moved, step_moved)
                out.cost_trace.append(c)
                if pos is not None:
                    out.pos_max_trace.append(float(x[pos].max()))
        out.iterations += not joint or x is not x_sweep
        if failed:
            break
        if pos is not None and out.pos_max_trace[-1] > pos_limit:
            out.diverged = True
            note = DIVERGED_NOTE
            break
        if moved < opts.step_tol or (joint and c - c_sweep < opts.cost_tol * (1.0 + abs(c))):
            out.converged = not note
            break
    else:
        note = ""

    out.x = x
    out.cost = c
    out.note = note
    return out


def _step(x, c, name, idx, pos, opts: NewtonOptions, out: NewtonOutcome):
    """One damped Newton step of the block ``name``, the coordinates
    ``idx`` of ``x``, for :func:`_ascent`.  Returns ``(x, c, note,
    moved)``: the point and cost it accepts and its scaled movement
    ``max_i |dx_i| / max(1, |x_i|)``, or the given point and cost, 0 and
    a note if the derivatives failed or the line search stalled (no note
    if the step is below ``step_tol``).  Trial points are clamped on the
    positive coordinates ``pos``, which a step of another block leaves
    as they are."""
    try:
        g, h = yield _DERIVATIVES, x, name
    except (RankDeficiencyError, IndefiniteCovarianceError) as exc:
        return x, c, f"{DERIVATIVE_NOTE}: {exc}", 0.0
    out.n_grad_evals += 1
    factor, _ = modified_cholesky(h)
    g = np.asarray(g, dtype=float)
    if not np.isfinite(g).all():
        raise ValueError("gradient contains non-finite entries")
    step = cho_solve(factor, g)
    scale = np.maximum(1.0, np.abs(x[idx]))
    if (np.abs(step) / scale).max() < opts.step_tol:
        return x, c, "", 0.0

    if pos is not None:
        x_pos = x[pos]
        floor = opts.lam_floor * x_pos
        ceil = opts.lam_growth * x_pos
    mu = 1.0
    while mu >= opts.min_mu:
        x_try = x.copy()
        x_try[idx] += mu * step
        if pos is not None:
            # bound each step to a fixed factor per iteration, clamping
            # only offenders
            x_try[pos] = np.minimum(np.maximum(x_try[pos], floor), ceil)
        c_try = yield _COST, x_try, None
        out.n_cost_evals += 1
        if c < c_try < math.inf:            # a strict, finite increase
            return x_try, c_try, "", (np.abs(x_try[idx] - x[idx]) / scale).max()
        mu *= opts.backtrack
    return x, c, STALLED_NOTE, 0.0


def _rows(rows: list) -> np.ndarray:
    """The lanes' vectors as the (L, n) rows of one array."""
    return rows[0][None] if len(rows) == 1 else np.array(rows)
