"""Three-stage ML direction estimation.

Stage 1 inserts angles one at a time by a projection line search on the
uniform-noise deterministic cost and refines all angles so far with
damped Newton steps.  Stage 2 initializes the per-sensor noise
parameters from a covariance-fitting formula evaluated at the stage-1
angles.  Stage 3 maximizes the concentrated deterministic or stochastic
cost over (theta, lambda), either jointly or by alternating single
Newton steps over each parameter block: one Newton loop with a block
schedule (:func:`~apndoa.newton.newton_maximize`'s ``blocks``) runs all
five stage-3 targets.

Stage 1 depends on the covariance and the settings alone, so it runs
once per :class:`~apndoa.workspace.SampleCovariance` and settings: the
covariance keeps its outcome in a memo, and every later target run on
the same object starts from it (see :func:`estimate_lanes`).

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
import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lstsq

from ._lapack import complete_qr
from .arrays import ArrayGeometry, angles_valid, steering_set
from .derivatives import grad_dml_uniform, grad_hess, hess_dml_uniform
from .newton import NewtonOptions, NewtonOutcome, newton_lanes, newton_maximize
from .workspace import (
    IndefiniteCovarianceError,
    RankDeficiencyError,
    SampleCovariance,
    WhitenedWorkspace,
    build_workspace,
    cost_dml,
    cost_dml_uniform,
    cost_sml,
    rank_error,
    sample_covariance,
    spd_error,
)
from . import flops as flop_model

__all__ = [
    "TARGETS",
    "StageCounts",
    "EstimationResult",
    "ap_add_angle",
    "init_noise",
    "apn_estimate",
    "estimate_lanes",
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
class _UniformStart:
    """The outcome of stage 1 on one covariance, as its memo keeps it:
    ``theta`` sorted ascending and read-only, ``stage1`` the
    per-insertion counts, and ``converged`` whether every refinement
    converged."""

    theta: np.ndarray
    stage1: tuple
    converged: bool


@dataclass
class EstimationResult:
    """Estimate plus diagnostics for one snapshot batch.

    ``theta`` is sorted ascending.  ``lam`` is ``None`` for the
    uniform-noise target.  ``iters_stage3`` counts Newton iterations
    for the joint targets and sweeps (one theta and one lambda step
    each) for the alternating ones.  ``flop_estimate`` applies the
    closed-form per-iteration polynomials to the recorded iteration
    counts; like ``stage1`` it is the run's standalone cost, also when
    stage 1 came from the covariance's memo (see :func:`estimate_lanes`).
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


@functools.lru_cache(maxsize=16)
def _grid_steering(positions: bytes, grid: int):
    """The insertion grid's midpoint angles and their M x grid steering
    matrix, read-only: made once per array and grid size, since every
    insertion of every estimate scores columns of the same matrix (each
    column has the bits it has when computed alone)."""
    centers = -_HALF_PI + np.pi * (np.arange(grid) + 0.5) / grid
    phi = np.exp(1j * np.pi * np.frombuffer(positions)[:, None] * np.sin(centers)[None, :])
    centers.flags.writeable = phi.flags.writeable = False
    return centers, phi


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

    centers, grid_phi = _grid_steering(geometry.positions.tobytes(), grid)
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
        phi = grid_phi.take(idx, axis=1)        # C-ordered, as computed alone
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
    ``[R_z B]_mm / B_mm``, which is also exact in expectation.  Where
    the projector diagonal is within 1e-9 of one, an entry takes
    ``[R_z]_mm^(-1/2)``.  Where the fitted power is not positive, it
    takes the one-sided fit if that is positive, else the smallest
    positive fitted power: ``[R_z]_mm`` holds the signal power as well,
    which at high SNR would start lambda far too small.
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
    fitted = ~saturated & (q > 0)
    # a saturated entry's one-sided value is [R_z]_mm
    floor = q[fitted].min() if fitted.any() else diag_r
    return np.where(fitted, q, np.where(one_sided > 0, one_sided, floor)) ** -0.5


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
    """The workspaces of one estimate over T lanes, keyed per lane by the
    exact bytes of (theta, lambda).

    Per lane two entries are kept: the last workspace built, and the one
    whose derivatives were taken last (``hold=True``).  Newton asks for
    derivatives at the point its last cost call accepted, and every
    stage or alternating block step starts where the previous one
    stopped: at that point or, after a line search found no ascent step,
    at the held one.  No block step is repeated from the same start
    (see :func:`~apndoa.newton._ascent`), so no point is built twice.
    Keys are bytes, not array identities.  A failed build leaves the last-built entry
    empty.  An entry is a lane of a stack built for several lanes at
    once, and :meth:`at` gathers the lanes it is asked for into one
    stack.  A single lane is not stacked: its workspaces are the
    unstacked ones, whose arrays have no lane axis, which saves the
    stacked calls' overhead where nothing is shared.  A single lane's
    build at the angles of its last or held entry, as a lambda step's
    is, takes that entry's steering set.
    """

    def __init__(self, covariances, geometry: ArrayGeometry):
        self.covariances = covariances
        self.single = len(covariances) == 1
        self.r_z = None if self.single else SampleCovariance.stack(covariances)
        self.geometry = geometry
        self._last = [None] * len(covariances)     # (key, stack, row)
        self._held = [None] * len(covariances)

    def at(self, lanes, theta: np.ndarray, lam: np.ndarray, hold: bool = False):
        """The stacked workspace at the rows of (theta, lam), one row per
        lane of ``lanes``, and ``None`` if every row has one, or else a
        mask of the rows that have one: rows with invalid angles or noise
        parameters have none (and the workspace is None if no row has
        one).  Rank-deficient rows are in the stack, marked in
        ``full_rank``."""
        last, held = self._last, self._held
        if self.single:
            return self._at_single(theta[0], lam[0], hold)
        refs = []
        missing = []
        for j, lane in enumerate(lanes.tolist()):
            key = (theta[j].tobytes(), lam[j].tobytes())
            entry = last[lane]
            if entry is None or entry[0] != key:
                entry = held[lane]
                if entry is None or entry[0] != key:
                    last[lane] = None
                    missing.append(j)
                    entry = key
            refs.append(entry)
        ok = None
        if missing:
            rows = np.array(missing)
            try:
                if len(missing) == len(lanes):
                    ws = build_workspace(self.r_z.lanes(lanes), steering_set(self.geometry, theta), lam)
                else:
                    ws = build_workspace(
                        self.r_z.lanes(lanes[rows]), steering_set(self.geometry, theta[rows]), lam[rows]
                    )
            except ValueError:
                # a row's angles or noise parameters are invalid: build the others
                lm = lam[rows]
                valid = angles_valid(theta[rows]) & (lm > 0.0).all(axis=-1) & (lm < np.inf).all(axis=-1)
                ok = np.ones(len(lanes), dtype=bool)
                ok[rows[~valid]] = False
                rows = rows[valid]
                ws = None
                if rows.size:
                    ws = build_workspace(
                        self.r_z.lanes(lanes[rows]), steering_set(self.geometry, theta[rows]), lam[rows]
                    )
            for r, j in enumerate(rows.tolist()):
                refs[j] = (refs[j], ws, r)
                if ws.all_full_rank or ws.full_rank[r]:
                    last[lanes[j]] = refs[j]
        found = refs if ok is None else [ref for ref, o in zip(refs, ok) if o]
        if hold:
            for lane, ref in zip(lanes.tolist() if ok is None else lanes[ok].tolist(), found):
                held[lane] = ref
        return (_gather(found) if found else None), ok

    def _at_single(self, theta: np.ndarray, lam: np.ndarray, hold: bool):
        """:meth:`at` for a single lane, on unstacked workspaces."""
        key = (theta.tobytes(), lam.tobytes())
        kept = [e for e in (self._last[0], self._held[0]) if e is not None]
        entry = next((e for e in kept if e[0] == key), None)
        if entry is None:
            self._last[0] = None
            # a lambda step keeps theta, and with it the steering set
            steering = next((e[1].steering for e in kept if e[0][0] == key[0]), None)
            try:
                if steering is None:
                    steering = steering_set(self.geometry, theta)
                ws = build_workspace(self.covariances[0], steering, lam)
            except (RankDeficiencyError, ValueError):     # the point is infeasible
                return None, np.zeros(1, dtype=bool)
            entry = self._last[0] = (key, ws, None)
        if hold:
            self._held[0] = entry
        return entry[1], None

    def ones(self, n: int) -> np.ndarray:
        """(n, M) noise parameters equal to one, for the uniform cost."""
        return np.ones((n, self.geometry.m))


class _Problem:
    """What one Newton run maximizes over the lanes of a store: a cost and
    its derivatives at the rows ``x`` of the lanes, where ``x`` is
    [theta, lambda] or, for stage 1 (``k`` None), theta with lambda one.

    ``costs`` and ``grad_hess`` are the lane callbacks of
    :func:`newton_lanes`; ``cost`` and ``grad_hess_one`` are those of
    :func:`newton_maximize` for a store of a single lane.  The
    derivative callbacks take the block a blocked run asks for.
    """

    def __init__(self, points: _Workspaces, cost, derivatives, k=None, stochastic=False):
        self.points = points
        self.cost_of = cost
        self.derivatives = derivatives
        self.k = k
        self.stochastic = stochastic
        self.ones = np.ones(points.geometry.m)

    def _split(self, x):
        """(theta, lambda) rows of the (L, n) rows x."""
        if self.k is None:
            return x, self.points.ones(len(x))
        return x[:, :self.k], x[:, self.k:]

    def _point(self, x):
        """(theta, lambda) of one lane's vector x."""
        if self.k is None:
            return x, self.ones
        return x[:self.k], x[self.k:]

    def costs(self, x, lanes):
        return _lane_costs(*self.points.at(lanes, *self._split(x)), self.cost_of)

    def grad_hess(self, x, lanes, block=None):
        ws, ok = self.points.at(lanes, *self._split(x), hold=True)
        return _derivatives(ws, ok, lambda ws: self.derivatives(ws, block), self.stochastic)

    def cost(self, x) -> float:
        ws, _ = self.points._at_single(*self._point(x), False)
        if ws is None:
            return -np.inf
        try:
            return self.cost_of(ws)
        except (np.linalg.LinAlgError, ValueError):      # the point is infeasible
            return -np.inf

    def grad_hess_one(self, x, block=None):
        ws, _ = self.points._at_single(*self._point(x), True)
        if ws is None:
            raise rank_error()
        return self.derivatives(ws, block)


def _lane_costs(ws, ok, cost) -> np.ndarray:
    """``cost`` per row of :meth:`_Workspaces.at`'s result: -inf for rows
    without a workspace."""
    if ok is None:
        if ws.stacked:
            return cost(ws)
        try:
            return [cost(ws)]
        except (np.linalg.LinAlgError, ValueError):      # the point is infeasible
            return [-np.inf]
    c = np.full(len(ok), -np.inf)
    if ws is not None:
        c[ok] = cost(ws)
    return c


def _gather(refs) -> WhitenedWorkspace:
    """One stack of the lanes that the (key, stack, row) entries name."""
    first = refs[0][1]
    if all(ref[1] is first for ref in refs):
        rows = [ref[2] for ref in refs]
        return first if rows == list(range(len(first.b))) else first.take(rows)
    groups: dict = {}
    for j, (_, ws, row) in enumerate(refs):
        ws_rows, js = groups.setdefault(id(ws), (ws, [], []))[1:]
        ws_rows.append(row)
        js.append(j)
    joined = WhitenedWorkspace.join([ws.take(rows) for ws, rows, _ in groups.values()])
    order = [j for _, _, js in groups.values() for j in js]
    return joined if order == sorted(order) else joined.take(np.argsort(order))


def _derivatives(ws, ok, evaluate, stochastic: bool = False):
    """``evaluate(ws)`` as :func:`newton_lanes` asks for derivatives:
    ``(g, h, failed)`` by row, where a row whose point is not feasible
    fails alone, with the error its single-lane call would raise."""
    if ok is None and ws.all_full_rank and not (stochastic and None in ws.b_factors()):
        g, h = evaluate(ws)
        return g, h, {}
    ok = np.ones(len(ws.b), dtype=bool) if ok is None else ok
    bad = ~ok
    rows = np.cumsum(ok) - 1
    if ws is not None:
        feasible = ws.full_rank
        if stochastic:
            feasible = feasible & np.array([f is not None for f in ws.b_factors()])
        bad[ok] = ~feasible
    failed = {
        j: rank_error() if not ok[j] or not ws.full_rank[rows[j]] else spd_error()
        for j in np.flatnonzero(bad)
    }
    if bad.all():
        return None, None, failed
    g, h = evaluate(ws.take(feasible))
    g_all = np.zeros((len(ok),) + g.shape[1:])
    h_all = np.zeros((len(ok),) + h.shape[1:])
    g_all[~bad], h_all[~bad] = g, h
    return g_all, h_all, failed


def _maximize(
    problem: _Problem, x0: np.ndarray, lanes: np.ndarray, opts: NewtonOptions, positive=None, blocks=None
):
    """Newton over the rows of ``x0``, which belong to ``lanes``, with the
    block schedule ``blocks`` (``None``: joint steps).  A store of a
    single lane runs through :func:`newton_maximize`, which drives the
    same ascent as :func:`newton_lanes` with direct calls; its error is
    kept in the outcome, as a lane of the other would keep it."""
    if not problem.points.single:
        return newton_lanes(
            lambda x, rows: problem.costs(x, lanes[rows]),
            lambda x, rows, block=None: problem.grad_hess(x, lanes[rows], block),
            x0,
            opts,
            positive=positive,
            blocks=blocks,
        )
    try:
        out = newton_maximize(
            problem.cost, problem.grad_hess_one, x0[0], opts, positive=positive, blocks=blocks
        )
    except (np.linalg.LinAlgError, ValueError) as exc:
        out = NewtonOutcome(x=x0[0], cost=np.nan, error=exc)
    return [out]


def _stage1(points: _Workspaces, lanes: np.ndarray, k: int, opts: NewtonOptions, grid: int, r_excl: float):
    """Stage 1 on ``lanes``: k insertion line searches, each followed by
    uniform-noise Newton refinement of all angles so far, one Newton run
    over every lane per insertion.  Returns per lane a
    :class:`_UniformStart`, or the error that stopped the lane."""
    theta = {i: np.empty(0) for i in lanes}
    counts = {i: [] for i in lanes}
    converged = dict.fromkeys(lanes, True)
    failed = {}
    uniform = _Problem(points, cost_dml_uniform, lambda ws, block=None: (grad_dml_uniform(ws), hess_dml_uniform(ws)))
    for _ in range(k):
        n_cand = {}
        for i in theta:
            try:
                theta[i], n_cand[i] = ap_add_angle(
                    points.covariances[i], points.geometry, theta[i], grid_size=grid, exclusion_radius=r_excl
                )
            except (np.linalg.LinAlgError, ValueError) as exc:
                failed[i] = exc
        live = np.array([i for i in theta if i not in failed], dtype=int)
        for i in failed:
            theta.pop(i, None)
        if not live.size:
            break
        x0 = np.array([theta[i] for i in live])
        for i, out in zip(live, _maximize(uniform, x0, live, opts)):
            if out.error is not None:
                failed[i] = out.error
                del theta[i]
                continue
            theta[i] = out.x
            converged[i] = converged[i] and out.converged
            counts[i].append(_stage_counts(out, candidates=n_cand[i]))
    starts = dict(failed)
    for i, t in theta.items():
        t = np.sort(t)
        t.flags.writeable = False
        starts[i] = _UniformStart(theta=t, stage1=tuple(counts[i]), converged=converged[i])
    return starts


def apn_estimate(
    z,
    geometry: ArrayGeometry,
    k: int,
    target: str = "sml",
    options: NewtonOptions | None = None,
    grid_size: int | None = None,
    exclusion_radius: float | None = None,
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

    Notes
    -----
    This is the one-lane call of :func:`estimate_lanes`, which runs T
    batches at once on (T, M, K) steering and (T, M, M) covariance
    stacks; it raises the error that its lane's result holds.  A single
    lane's workspaces are unstacked (M x K and M x M).  Cost and
    derivative calls at one (theta, lambda) point share one workspace:
    see :class:`_Workspaces`.  A :class:`SampleCovariance` given here
    keeps its stage 1 for later targets, as :func:`estimate_lanes`
    describes; a snapshot matrix makes a new covariance on every call.
    """
    if not isinstance(z, SampleCovariance):
        z = np.asarray(z, dtype=complex)
        if z.ndim != 2 or z.shape[0] != geometry.m:
            raise ValueError("snapshot matrix must be M x N")
        z = sample_covariance(z)
    (res,) = estimate_lanes([z], geometry, k, target, options, grid_size, exclusion_radius)
    if isinstance(res, Exception):
        raise res
    return res


def estimate_lanes(
    covariances,
    geometry: ArrayGeometry,
    k: int,
    target: str = "sml",
    options: NewtonOptions | None = None,
    grid_size: int | None = None,
    exclusion_radius: float | None = None,
) -> list:
    """Run the pipeline on T sample covariances at once, one lane each.

    Every lane's result is, bit for bit, what :func:`apn_estimate` gives
    on its covariance alone.  Stage 1's uniform Newton and the stage-3
    Newton of every target, joint or alternating, run every lane in one
    :func:`newton_lanes` call, on (T, M, K) steering and (T, M, M)
    covariance stacks; the insertion line searches and the stage-2 fits
    run lane by lane.

    Stage 1 depends only on the covariance, the geometry, k, the
    resolved grid size and exclusion radius, and the Newton options
    other than ``hessian_mode``.  Its outcome is kept in a memo on each
    lane's :class:`SampleCovariance` under those inputs, so a later
    call with the same inputs on the same covariance object takes it
    from there instead of running it again (a failed stage 1 is not
    kept).  Results are the same either way, counts and
    ``flop_estimate`` included.

    Parameters
    ----------
    covariances : sequence of SampleCovariance
        One per lane, all M x M with one snapshot count.
    geometry, k, target, options, grid_size, exclusion_radius
        As for :func:`apn_estimate`, shared by every lane.

    Returns
    -------
    list
        Per lane the :class:`EstimationResult`, or the ``LinAlgError`` or
        ``ValueError`` that ``apn_estimate`` would raise on that lane;
        one lane's failure leaves the others as they are.  Any other
        exception propagates.
    """
    target = _normalize_target(target)
    opts = options or NewtonOptions()
    if target == "sml-red":
        opts = dataclasses.replace(opts, hessian_mode="reduced")
    covariances = list(covariances)
    for rz in covariances:
        if not isinstance(rz, SampleCovariance):
            raise TypeError("covariances must be SampleCovariance objects")
        if rz.m != geometry.m:
            raise ValueError("covariance size does not match the geometry")
    if not (1 <= k < geometry.m):
        raise ValueError("need 1 <= k < M")
    grid, r_excl = _line_search(geometry, grid_size, exclusion_radius)
    m = geometry.m
    points = _Workspaces(covariances, geometry)
    results: list = [None] * len(covariances)

    # -- stage 1: insertion line searches + uniform Newton refinement -----
    # stage 1 does not read hessian_mode, which sml-red alone changes
    uniform_opts = dataclasses.replace(opts, hessian_mode="full")
    key = ("stage1", geometry.positions.tobytes(), k, grid, r_excl, uniform_opts)
    starts = [rz._memo.get(key) for rz in covariances]
    need = np.array([i for i, st in enumerate(starts) if st is None], dtype=int)
    if need.size:
        for i, st in _stage1(points, need, k, opts, grid, r_excl).items():
            if isinstance(st, Exception):
                results[i] = st
            else:
                starts[i] = covariances[i]._memo[key] = st
    lanes = np.array([i for i, r in enumerate(results) if r is None], dtype=int)
    if not lanes.size:
        return results
    theta = np.array([starts[i].theta for i in lanes])

    def flops(i, stage3):
        return flop_model.pipeline_flop_estimate(
            m, k, starts[i].stage1, stage3, target, n_snapshots=covariances[i].n_snapshots
        )

    if target == "dmlo":
        costs = _lane_costs(*points.at(lanes, theta, points.ones(len(lanes))), cost_dml_uniform)
        for j, i in enumerate(lanes):
            results[i] = EstimationResult(
                target=target,
                theta=theta[j].copy(),
                lam=None,
                cost=float(costs[j]),
                converged=starts[i].converged,
                diverged_lambda=False,
                theta_initial=theta[j].copy(),
                lam_initial=None,
                stage1=starts[i].stage1,
                stage3=None,
                flop_estimate=flops(i, None),
            )
        return results

    # -- stage 2: noise initialization ------------------------------------
    ws, ok = points.at(lanes, theta, points.ones(len(lanes)))
    proj = None if ws is None else ws.projector() if ws.stacked else ws.projector()[None]
    ok = np.ones(len(lanes), dtype=bool) if ok is None else ok
    rows = np.cumsum(ok) - 1
    lam0 = {}
    for j, i in enumerate(lanes):
        try:
            if not ok[j] or not (ws.all_full_rank or ws.full_rank[rows[j]]):
                # the lane's own build raises its error
                build_workspace(covariances[i], steering_set(geometry, theta[j]), np.ones(m))
            lam0[i] = init_noise(covariances[i], proj[rows[j]])
        except (np.linalg.LinAlgError, ValueError) as exc:
            results[i] = exc
    keep = np.array([i in lam0 for i in lanes], dtype=bool)
    lanes, theta = lanes[keep], theta[keep]
    if not lanes.size:
        return results

    # -- stage 3: joint or alternating Newton ------------------------------
    which = "D" if target.startswith("dml") else "S"
    reduced = opts.hessian_mode == "reduced"
    cost_of = cost_dml if which == "D" else cost_sml

    def derivatives(ws, block=None):
        return grad_hess(ws, which, reduced, block=block)

    positive = np.zeros(k + m, dtype=bool)
    positive[k:] = True
    # the alternating targets step theta, then lambda, in each sweep
    blocks = {"theta": ~positive, "lam": positive} if target.endswith("-alt") else None
    x0 = np.concatenate([theta, np.array([lam0[i] for i in lanes])], axis=1)
    problem = _Problem(points, cost_of, derivatives, k=k, stochastic=which == "S")
    for i, out in zip(lanes, _maximize(problem, x0, lanes, opts, positive, blocks)):
        if out.error is not None:
            results[i] = out.error
            continue
        stage3 = _stage_counts(out)
        order = np.argsort(out.x[:k])
        results[i] = EstimationResult(
            target=target,
            theta=out.x[:k][order],
            lam=out.x[k:].copy(),
            cost=out.cost,
            converged=out.converged,
            diverged_lambda=out.diverged,
            theta_initial=starts[i].theta.copy(),
            lam_initial=lam0[i],
            stage1=starts[i].stage1,
            stage3=stage3,
            flop_estimate=flops(i, stage3),
            note=out.note,
        )
    return results

