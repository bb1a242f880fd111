"""Three-stage ML direction estimation.

Stage 1 inserts angles one at a time by a projection line search on the
uniform-noise deterministic cost and refines all angles so far with
damped Newton steps.  Stage 2 initializes the per-sensor noise
parameters from a covariance-fitting formula evaluated at the stage-1
angles.  Stage 3 maximizes the concentrated deterministic or stochastic
cost over (theta, lambda), either jointly or by alternating single
Newton sweeps over each parameter block.

Targets
-------
``dmlo``
    stage 1 only: uniform-noise deterministic ML angles.
``dml`` / ``sml``
    joint Newton on the concentrated deterministic / stochastic cost.
``dml-alt`` / ``sml-alt``
    alternating theta / lambda sweeps on the same costs.
``sml-red``
    joint Newton with the reduced Hessian blocks.

The deterministic cost is degenerate in the noise parameters (its
concentrated supremum is approached by diverging lambda), so ``dml``
and ``dml-alt`` exist for study and comparison; the run is flagged via
``diverged_lambda`` when the safeguard trips.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lstsq

from ._lapack import complete_qr
from .arrays import ArrayGeometry, steering_set
from .derivatives import grad_dml_uniform, grad_hess, hess_dml_uniform
from .newton import DIVERGED_NOTE, NewtonOptions, NewtonOutcome, newton_maximize
from .workspace import (
    IndefiniteCovarianceError,
    RankDeficiencyError,
    SampleCovariance,
    build_workspace,
    cost_dml,
    cost_dml_uniform,
    cost_sml,
    sample_covariance,
)
from . import flops as flop_model

__all__ = [
    "TARGETS",
    "StageCounts",
    "UniformStart",
    "EstimationResult",
    "ap_add_angle",
    "init_noise",
    "apn_estimate",
]

TARGETS = ("dmlo", "dml", "dml-alt", "sml", "sml-alt", "sml-red")

_HALF_PI = np.pi / 2.0


@dataclass(frozen=True)
class StageCounts:
    """Work bookkeeping for one pipeline stage (per insertion in stage 1)."""

    candidates: int = 0
    newton_iters: int = 0
    grad_evals: int = 0
    cost_evals: int = 0


@dataclass(frozen=True)
class UniformStart:
    """The outcome of stage 1 on one covariance, and what it was made from.

    Stage 1 depends only on the covariance, the geometry, k, the line
    search grid and exclusion radius, and the Newton options other than
    ``hessian_mode``, so every target run on one batch shares it: pass
    ``EstimationResult.start`` as ``apn_estimate(..., start=...)``.
    ``theta`` is sorted ascending and read-only; ``stage1`` holds the
    per-insertion counts and ``converged`` whether every refinement
    converged.  ``grid_size`` and ``exclusion_radius`` are the resolved
    values, defaults filled in.
    """

    theta: np.ndarray
    stage1: tuple
    converged: bool
    r_z: SampleCovariance
    geometry: ArrayGeometry
    k: int
    grid_size: int
    exclusion_radius: float
    options: NewtonOptions


@dataclass
class EstimationResult:
    """Estimate plus diagnostics for one snapshot batch.

    ``theta`` is sorted ascending.  ``lam`` is ``None`` for the
    uniform-noise target.  ``iters_stage3`` counts inner Newton
    iterations for the joint targets and outer alternations for the
    alternating ones.  ``flop_estimate`` applies the closed-form
    per-iteration polynomials to the recorded iteration counts; like
    ``stage1`` it is the run's standalone cost, also when stage 1 came
    in as a shared ``start``.  ``start`` is the stage-1 outcome, for
    other targets on the same covariance.
    """

    target: str
    theta: np.ndarray
    lam: np.ndarray | None
    cost: float
    converged: bool
    diverged_lambda: bool
    theta_initial: np.ndarray
    lam_initial: np.ndarray | None
    stage1: tuple
    stage3: StageCounts | None
    flop_estimate: float
    note: str = ""
    start: UniformStart | None = None

    @property
    def iters_stage1(self) -> int:
        return sum(s.newton_iters for s in self.stage1)

    @property
    def iters_stage3(self) -> int:
        return self.stage3.newton_iters if self.stage3 is not None else 0


def _default_grid(m: int) -> int:
    return 16 * m


def default_exclusion(geometry: ArrayGeometry) -> float:
    """Half the standard beamwidth: pi over the aperture in half-wavelengths."""
    return np.pi / geometry.aperture


def _line_search(geometry: ArrayGeometry, grid_size, exclusion_radius):
    """The insertion grid size and exclusion radius, defaults filled in."""
    grid = grid_size or _default_grid(geometry.m)
    r_excl = default_exclusion(geometry) if exclusion_radius is None else exclusion_radius
    return grid, r_excl


def ap_add_angle(
    r_z: SampleCovariance,
    geometry: ArrayGeometry,
    theta,
    grid_size: int | None = None,
    exclusion_radius: float | None = None,
    refine: bool = True,
):
    """Insert one source angle by a projection line search.

    Scans a uniform grid of midpoint angles over (-pi/2, pi/2), skipping
    candidates within ``exclusion_radius`` of an angle already present,
    and scores each candidate by the increase of the uniform-noise cost
    when its steering vector joins the current set.  The winner gets a
    three-point parabolic refinement when its grid neighbors exist.

    Returns ``(theta_extended, n_evaluated)`` with the new angle
    appended; ``n_evaluated`` counts scored candidates (line-search cost
    evaluations) for the flop model.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    m = geometry.m
    if theta.size >= m:
        raise ValueError("cannot insert more sources than sensors")
    grid, r_excl = _line_search(geometry, grid_size, exclusion_radius)
    if r_excl <= 0:
        raise ValueError("exclusion radius must be positive")

    centers = -_HALF_PI + np.pi * (np.arange(grid) + 0.5) / grid
    allowed = np.ones(grid, dtype=bool)
    for t in theta:
        allowed &= np.abs(centers - t) >= r_excl
    if not allowed.any():
        raise ValueError("exclusion radius removed every line-search candidate")

    q = None
    if theta.size:
        q, _, _ = complete_qr(steering_set(geometry, theta).phi)

    scores = np.full(grid, -np.inf)
    n_evaluated = int(allowed.sum())

    def _score(idx):
        phi = np.exp(
            1j * np.pi * geometry.positions[:, None] * np.sin(centers[idx])[None, :]
        )
        resid = phi if q is None else phi - q @ (q.conj().T @ phi)
        norms = np.einsum("ij,ij->j", resid.conj(), resid).real
        vals = np.einsum("ij,ij->j", resid.conj(), r_z.matrix @ resid).real
        ok = norms > m * 1e-24
        s = np.full(idx.shape, -np.inf)
        s[ok] = vals[ok] / norms[ok]
        return s

    scores[allowed] = _score(np.nonzero(allowed)[0])
    best = int(np.argmax(scores))
    theta_star = centers[best]

    if refine and 0 < best < grid - 1:
        for nb in (best - 1, best + 1):
            if not np.isfinite(scores[nb]):
                scores[nb] = _score(np.array([nb]))[0]
                n_evaluated += 1
        s_m, s_0, s_p = scores[best - 1], scores[best], scores[best + 1]
        denom = s_m - 2.0 * s_0 + s_p
        if np.isfinite(denom) and denom < 0:
            delta = 0.5 * (s_m - s_p) / denom * (np.pi / grid)
            candidate = theta_star + delta
            if abs(candidate) < _HALF_PI and (
                theta.size == 0 or np.abs(theta - candidate).min() >= r_excl
            ):
                theta_star = candidate

    return np.append(theta, theta_star), n_evaluated


def init_noise(r_z: SampleCovariance, projection: np.ndarray) -> np.ndarray:
    """Covariance-fitting initializer for the noise parameters.

    Given the uniform-noise projector ``P_o`` at the stage-1 angles and
    ``B = I - P_o``, the noise powers ``q`` are the least-squares fit of
    a diagonal noise covariance in the noise subspace,

        q = argmin || B (R_z - diag q) B ||_F,

    that is the solution of the M x M system

        (B o conj(B)) q = diag(B R_z B)        (o: entrywise product),

    and ``lambda_m = q_m^(-1/2)``.  The fit is exact on the expected
    covariance and reduces to ``diag(R_z)`` when ``P_o = 0``.  Where the
    system is rank deficient (many sources on a regular array), the
    minimum-norm correction is taken from the one-sided fit
    ``[R_z B]_mm / B_mm``, which is also exact in expectation.  Entries
    fall back to the signal-free value ``[R_z]_mm^(-1/2)`` whenever the
    projector diagonal is within 1e-9 of one or the fitted power is not
    positive.
    """
    rz = r_z.matrix
    diag_r = np.real(np.diagonal(rz))
    if (diag_r <= 0).any():
        raise ValueError("sample covariance has a nonpositive diagonal entry")
    b = np.eye(rz.shape[0]) - projection
    diag_b = np.real(np.diagonal(b))
    saturated = diag_b <= 1e-9
    rb = rz @ b
    one_sided = np.where(
        saturated, diag_r, np.real(np.diagonal(rb)) / np.maximum(diag_b, 1e-9)
    )
    fit = np.abs(b) ** 2
    rhs = np.real(np.einsum("ij,ji->i", b, rb))
    correction = lstsq(fit, rhs - fit @ one_sided, cond=1e-10, lapack_driver="gelsy")[0]
    q = one_sided + correction
    bad = saturated | (q <= 0)
    return np.where(bad, diag_r, q) ** -0.5


def _normalize_target(target: str) -> str:
    t = target.strip().lower().replace("_", "-")
    if t not in TARGETS:
        raise ValueError(f"unknown target {target!r}; choose from {TARGETS}")
    return t


def _stage_counts(out: NewtonOutcome, candidates: int = 0) -> StageCounts:
    return StageCounts(
        candidates=candidates,
        newton_iters=out.iterations,
        grad_evals=out.n_grad_evals,
        cost_evals=out.n_cost_evals,
    )


class _Workspaces:
    """The workspaces of one :func:`apn_estimate` call, keyed by the exact
    bytes of (theta, lambda).

    Two entries are kept: the last workspace built, and the one whose
    derivatives were taken last (``hold=True``).  Newton asks for
    derivatives at the point its last cost call accepted, and every
    stage or alternating block starts where the previous one stopped:
    at that point or, after a line search found no ascent step, at the
    held one.  No line search is repeated from the same start (see
    :func:`_alternating`), so no point is built twice.  Keys are bytes,
    not array identities, because Newton clips trial arrays in place.  A
    failed build leaves the last-built entry empty.
    """

    def __init__(self, r_z: SampleCovariance, geometry: ArrayGeometry):
        self.r_z = r_z
        self.geometry = geometry
        self.ones = np.ones(geometry.m)
        self._last = self._held = (None, None)

    def at(self, theta: np.ndarray, lam: np.ndarray, hold: bool = False):
        key = (theta.tobytes(), lam.tobytes())
        if self._last[0] == key:
            ws = self._last[1]
        elif self._held[0] == key:
            ws = self._held[1]
        else:
            self._last = (None, None)
            ws = build_workspace(self.r_z, steering_set(self.geometry, theta), lam)
            self._last = (key, ws)
        if hold:
            self._held = (key, ws)
        return ws

    def uniform_cost(self, theta: np.ndarray) -> float:
        try:
            ws = self.at(theta, self.ones)
        except (RankDeficiencyError, ValueError):
            return -np.inf
        return cost_dml_uniform(ws)

    def uniform_grad_hess(self, theta: np.ndarray):
        ws = self.at(theta, self.ones, hold=True)
        return grad_dml_uniform(ws), hess_dml_uniform(ws)


def _stage1(points: _Workspaces, k: int, opts: NewtonOptions, grid: int, r_excl: float):
    """Stage 1: k insertion line searches, each followed by uniform-noise
    Newton refinement of all angles so far, as a :class:`UniformStart`."""
    theta = np.empty(0)
    stage1 = []
    converged = True
    for _ in range(k):
        theta, n_cand = ap_add_angle(
            points.r_z, points.geometry, theta, grid_size=grid, exclusion_radius=r_excl
        )
        out = newton_maximize(points.uniform_cost, points.uniform_grad_hess, theta, opts)
        theta = out.x
        converged = converged and out.converged
        stage1.append(_stage_counts(out, candidates=n_cand))
    theta = np.sort(theta)
    theta.flags.writeable = False
    return UniformStart(
        theta=theta,
        stage1=tuple(stage1),
        converged=converged,
        r_z=points.r_z,
        geometry=points.geometry,
        k=k,
        grid_size=grid,
        exclusion_radius=r_excl,
        options=opts,
    )


def _check_start(start, rz, geometry, k, opts, grid, r_excl) -> None:
    """Refuse a stage-1 start made from other inputs than this run's."""
    if not isinstance(start, UniformStart):
        raise TypeError("start must be the UniformStart of an earlier estimate")
    same = (
        ("covariance object", start.r_z is rz),
        ("geometry", np.array_equal(start.geometry.positions, geometry.positions)),
        ("k", start.k == k),
        ("grid size", start.grid_size == grid),
        ("exclusion radius", start.exclusion_radius == r_excl),
        # stage 1 does not read hessian_mode, which sml-red alone changes
        ("Newton options", dataclasses.replace(start.options, hessian_mode=opts.hessian_mode) == opts),
    )
    for what, ok in same:
        if not ok:
            raise ValueError(f"start was made for another {what}")


def apn_estimate(
    z,
    geometry: ArrayGeometry,
    k: int,
    target: str = "sml",
    options: NewtonOptions | None = None,
    grid_size: int | None = None,
    exclusion_radius: float | None = None,
    start: UniformStart | None = None,
) -> EstimationResult:
    """Run the full estimation pipeline on a snapshot matrix.

    Parameters
    ----------
    z : ndarray or SampleCovariance
        M x N snapshot matrix, or a precomputed sample covariance.
    geometry : ArrayGeometry
    k : int
        Number of sources, 1 <= k < M.
    target : str
        One of :data:`TARGETS`.
    options : NewtonOptions, optional
        ``hessian_mode`` is forced to 'reduced' for the ``sml-red``
        target.
    start : UniformStart, optional
        The ``start`` of an earlier result on the same
        :class:`SampleCovariance` object, with the same geometry, k,
        grid, exclusion radius and options (``hessian_mode`` aside).
        Stage 1 is then taken from it instead of being run again; the
        result is the same, counts and ``flop_estimate`` included.  A
        start made from other inputs raises ``ValueError``.

    Notes
    -----
    Cost and derivative calls at one (theta, lambda) point share one
    workspace: see :class:`_Workspaces`.
    """
    target = _normalize_target(target)
    opts = options or NewtonOptions()
    if target == "sml-red":
        opts = dataclasses.replace(opts, hessian_mode="reduced")
    if not isinstance(z, SampleCovariance):
        z = np.asarray(z, dtype=complex)
        if z.ndim != 2 or z.shape[0] != geometry.m:
            raise ValueError("snapshot matrix must be M x N")
        z = sample_covariance(z)
    if z.m != geometry.m:
        raise ValueError("covariance size does not match the geometry")
    if not (1 <= k < geometry.m):
        raise ValueError("need 1 <= k < M")
    grid, r_excl = _line_search(geometry, grid_size, exclusion_radius)

    rz = z
    m = geometry.m
    points = _Workspaces(rz, geometry)

    # -- stage 1: insertion line searches + uniform Newton refinement -----
    if start is None:
        start = _stage1(points, k, opts, grid, r_excl)
    else:
        _check_start(start, rz, geometry, k, opts, grid, r_excl)
    theta = start.theta
    stage1 = start.stage1
    theta_initial = theta.copy()

    if target == "dmlo":
        flop_est = flop_model.pipeline_flop_estimate(
            m, k, stage1, None, target, n_snapshots=rz.n_snapshots
        )
        return EstimationResult(
            target=target,
            theta=theta.copy(),
            lam=None,
            cost=points.uniform_cost(theta),
            converged=start.converged,
            diverged_lambda=False,
            theta_initial=theta_initial,
            lam_initial=None,
            stage1=stage1,
            stage3=None,
            flop_estimate=flop_est,
            start=start,
        )

    # -- stage 2: noise initialization ------------------------------------
    lam0 = init_noise(rz, points.at(theta, points.ones).projector())

    # -- stage 3: joint or alternating Newton ------------------------------
    which = "D" if target.startswith("dml") else "S"
    reduced = opts.hessian_mode == "reduced"
    cost_of = cost_dml if which == "D" else cost_sml

    def cost_at(theta, lam):
        try:
            return cost_of(points.at(theta, lam))
        except (RankDeficiencyError, IndefiniteCovarianceError, ValueError):
            return -np.inf

    def grad_hess_at(theta, lam, block=None):
        return grad_hess(points.at(theta, lam, hold=True), which, reduced, block=block)

    if target in ("dml", "sml", "sml-red"):
        positive = np.zeros(k + m, dtype=bool)
        positive[k:] = True
        out = newton_maximize(
            lambda x: cost_at(x[:k], x[k:]),
            lambda x: grad_hess_at(x[:k], x[k:]),
            np.concatenate([theta, lam0]),
            opts,
            positive=positive,
        )
        x_fin = out.x
        stage3 = _stage_counts(out)
        converged = out.converged
        diverged = out.diverged
        cost = out.cost
        note = out.note
    else:
        x_fin, stage3, converged, diverged, cost, note = _alternating(
            cost_at, grad_hess_at, theta, lam0, opts
        )

    order = np.argsort(x_fin[:k])
    theta_fin = x_fin[:k][order]
    flop_est = flop_model.pipeline_flop_estimate(
        m, k, stage1, stage3, target, n_snapshots=rz.n_snapshots
    )
    return EstimationResult(
        target=target,
        theta=theta_fin,
        lam=x_fin[k:].copy(),
        cost=cost,
        converged=converged,
        diverged_lambda=diverged,
        theta_initial=theta_initial,
        lam_initial=lam0,
        stage1=stage1,
        stage3=stage3,
        flop_estimate=flop_est,
        note=note,
        start=start,
    )


def _alternating(cost_at, grad_hess_at, theta, lam, opts: NewtonOptions):
    """Outer alternation of single damped Newton sweeps over theta and lambda.

    Each block's sweep takes only its own derivatives (``grad_hess_at``
    with ``block='theta'`` or ``'lam'``) and starts at the point the
    other block's sweep accepted, so its first cost and derivative
    evaluations reuse that point's workspace.  The sweeps' closures pass
    the other block's current array as it is: Newton never writes to an
    array it has handed to the cost, so the blocks need no copying.

    A lambda sweep that would start where the previous one started (the
    previous one left lambda unchanged and the theta sweep between them
    left theta unchanged) is not run again: Newton is deterministic, so
    it would repeat the previous outcome, which is reused, and its
    evaluations are not counted.

    A sweep that moves the parameters by less than ``step_tol`` in the
    scaled norm ``max_i |dx_i| / max(1, |x_i|)`` ends the run; it counts
    as converged only if neither block's line search stalled.  The run
    stops as diverged once the largest lambda exceeds
    ``divergence_factor`` times its stage-2 value.  Returns the final
    ``concatenate([theta, lam])`` and the run's summary.
    """
    one_step = dataclasses.replace(opts, max_iters=1)
    lam_mask = np.ones(lam.size, dtype=bool)
    lam_limit = opts.divergence_factor * lam.max()
    grad_evals = cost_evals = outer = 0
    converged = diverged = False
    cost = cost_at(theta, lam)
    note = ""
    x = np.concatenate([theta, lam])
    l_start = None              # bytes of the point the last lambda sweep started at

    def t_cost(t):
        return cost_at(t, lam)

    def t_gh(t):
        return grad_hess_at(t, lam, "theta")

    def l_cost(lam_try):
        return cost_at(theta, lam_try)

    def l_gh(lam_try):
        return grad_hess_at(theta, lam_try, "lam")

    for _ in range(opts.max_outer):
        x_prev = x
        out_t = newton_maximize(t_cost, t_gh, theta, one_step)
        theta = out_t.x
        grad_evals += out_t.n_grad_evals
        cost_evals += out_t.n_cost_evals
        start = theta.tobytes() + lam.tobytes()
        if start != l_start:
            l_start = start
            out_l = newton_maximize(l_cost, l_gh, lam, one_step, positive=lam_mask)
            grad_evals += out_l.n_grad_evals
            cost_evals += out_l.n_cost_evals
        lam = out_l.x
        x = np.concatenate([theta, lam])
        outer += 1
        cost = max(out_t.cost, out_l.cost)
        if out_t.note.startswith("derivative") or out_l.note.startswith("derivative"):
            note = out_t.note or out_l.note
            break
        if lam.max() > lam_limit:
            diverged = True
            note = DIVERGED_NOTE
            break
        if (np.abs(x - x_prev) / np.maximum(1.0, np.abs(x_prev))).max() < opts.step_tol:
            note = out_t.note or out_l.note
            converged = not note
            break

    stage3 = StageCounts(
        candidates=0, newton_iters=outer, grad_evals=grad_evals, cost_evals=cost_evals
    )
    return x, stage3, converged, diverged, cost, note
