"""Three-stage ML direction estimation.

Stage 1 inserts angles one at a time by a projection line search on the
uniform-noise deterministic cost and refines all angles so far with
damped Newton steps.  Stage 2 initializes the per-sensor noise
parameters from a covariance-fitting formula evaluated at the stage-1
angles.  Stage 3 maximizes the concentrated deterministic or stochastic
cost over (theta, lambda), either jointly or by alternating single
Newton steps over each parameter block: one Newton loop with a block
schedule runs all five stage-3 targets, and every Newton run of stages 1
and 3, for one lane or many, goes through one driver,
:func:`~apndoa.newton.newton_lanes`.

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
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lstsq

from ._lapack import complete_qr
# steering_set, build_workspace and the uniform cost and derivatives are
# the cores that their public versions call after checking their inputs:
# here _Workspaces decides each point's feasibility once.  They keep the
# public names, through which the benchmark's per-layer trace
# (apnbench/layertrace.py) times and counts the calls.
from .arrays import ArrayGeometry, _check_angles, _grid_steering, _steering_set as steering_set, angles_valid, noise_valid
from .derivatives import _grad_dml_uniform as grad_dml_uniform, _hess_dml_uniform as hess_dml_uniform, grad_hess
from .newton import NewtonOptions, NewtonOutcome, newton_lanes
from .workspace import (
    SampleCovariance,
    WhitenedWorkspace,
    _build_workspace as build_workspace,
    _cost_dml_uniform as cost_dml_uniform,
    cost_dml,
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
        # steering_set is the unchecked core here, and theta the caller's
        q, _, _ = complete_qr(steering_set(geometry, _check_angles(theta)).phi)

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
    exact bytes of the point: [theta, lambda], or theta alone where
    lambda is one.

    An entry keeps whether its point is feasible, decided once, when the
    entry is made, by three tests: its angles and noise parameters are
    valid (a point that fails is not built; lambda one, the store's own
    read-only array, is valid as made); its whitened steering is
    full rank; and, for the stochastic cost (a ``stochastic`` store's
    points with lambda), its compressed covariance ``b`` is positive
    definite, read from the Cholesky factor that the cost and the
    derivatives then take.  Costs, derivatives and stage 2 read that
    result, and builds go through the cores that check nothing.

    Per lane two entries are kept: the last one made, and the one whose
    derivatives were taken last (``hold=True``).  Newton asks for
    derivatives at the point its last cost call accepted, and every
    stage or alternating block step starts where the previous one
    stopped: at that point or, after a line search found no ascent step,
    at the held one.  No block step is repeated from the same start
    (see :func:`~apndoa.newton._ascent`), so no point is built twice.
    Keys are bytes, not array identities.

    The representation is chosen once, by the lane count.  Entries of a
    store of several lanes are lanes of stacks built for several lanes
    at once, and :meth:`at` gathers the lanes it is asked for into one
    stack.  A store of one lane keeps unstacked workspaces, whose arrays
    have no lane axis: a stack of one costs more per call, and nothing
    is shared.  Its build at the angles of its last or held entry, as a
    lambda step's is, takes that entry's steering set.
    """

    def __init__(self, covariances, geometry: ArrayGeometry, stochastic: bool):
        self.covariances = covariances
        self.single = len(covariances) == 1
        self.r_z = None if self.single else SampleCovariance.stack(covariances)
        self.geometry = geometry
        self.stochastic = stochastic
        # (T, M) noise parameters equal to one, for the uniform cost
        self.ones = np.ones((len(covariances), geometry.m))
        self.ones.flags.writeable = False
        self._last = [None] * len(covariances)     # (key, workspace, row, fault)
        self._held = [None] * len(covariances)

    def at(self, lanes: list, x: np.ndarray, k: int | None = None, hold: bool = False):
        """The workspace at the feasible rows of ``x``, one row per lane
        of ``lanes``: [theta, lambda] rows with k angles, or with ``k``
        None rows of angles and lambda one.  For a store of several lanes
        it is a stack, for a store of one unstacked, and None if no row
        is feasible.  Returned with the rows' faults: ``None`` if every
        row is feasible, else per row ``None`` or, where its point is
        not, the factory of the error its derivatives raise."""
        last, held = self._last, self._held
        refs = []
        missing = []
        for j, lane in enumerate(lanes):
            key = x[j].tobytes()
            entry = last[lane]
            if entry is None or entry[0] != key:
                entry = held[lane]
                if entry is None or entry[0] != key:
                    missing.append(j)
                    entry = key
            refs.append(entry)
        if missing:
            with_lam = k is not None
            theta, lam = (x[:, :k], x[:, k:]) if with_lam else (x, self.ones[:len(x)])
            if self.single:
                self._build_single(theta[0], lam[0], refs, with_lam)
            else:
                self._build_stack(lanes, theta, lam, missing, refs, with_lam)
        if hold:
            for lane, ref in zip(lanes, refs):
                held[lane] = ref
        faults = [ref[3] for ref in refs]
        if any(faults):
            refs = [ref for ref in refs if ref[3] is None]
        else:
            faults = None
        if not refs:
            return None, faults
        return (refs[0][1] if self.single else _gather(refs)), faults

    def _build_single(self, theta, lam, refs, with_lam: bool):
        """Make the one lane's entry at (theta, lam) into ``refs``;
        ``lam`` is the point's own if ``with_lam``, else the store's
        ones."""
        angles = theta.tobytes()
        # a lambda step keeps theta, and with it the steering set, whose
        # angles a built entry has shown valid
        steering = None
        for entry in (self._last[0], self._held[0]):
            if entry is not None and entry[1] is not None and entry[0][:len(angles)] == angles:
                steering = entry[1].steering
                break
        ws, fault = None, rank_error
        if (steering is not None or angles_valid(theta)) and (not with_lam or noise_valid(lam)):
            ws = build_workspace(self.covariances[0], steering or steering_set(self.geometry, theta), lam)
            fault = _fault(ws.full_rank, not (with_lam and self.stochastic) or ws.b_definite())
        refs[0] = self._last[0] = (refs[0], ws, None, fault)

    def _build_stack(self, lanes, theta, lam, missing, refs, with_lam: bool):
        """Make the ``missing`` rows' entries into ``refs``, building the
        rows whose angles and noise parameters are valid as one stack;
        ``lam`` is as in :meth:`_build_single`."""
        if len(missing) < len(lanes):
            theta, lam = theta[missing], lam[missing]
        valid = angles_valid(theta)
        if with_lam:
            valid &= noise_valid(lam)
        valid = valid.tolist()
        built = [j for j, v in zip(missing, valid) if v]
        if built:
            if len(built) < len(valid):
                theta, lam = theta[valid], lam[valid]
            ws = build_workspace(self.r_z.lanes([lanes[j] for j in built]), steering_set(self.geometry, theta), lam)
            definite = ws.b_definite() if with_lam and self.stochastic else [True] * len(built)
            for r, (j, full_rank) in enumerate(zip(built, ws.full_rank.tolist())):
                refs[j] = (refs[j], ws, r, _fault(full_rank, definite[r]))
        for j, v in zip(missing, valid):
            if not v:
                refs[j] = (refs[j], None, None, rank_error)
            self._last[lanes[j]] = refs[j]


def _fault(full_rank: bool, definite: bool):
    """``None`` if a built point is feasible, else the factory of the
    error its derivatives raise: the rank error where its steering is
    not ``full_rank``, else the indefiniteness error where its
    compressed covariance is not ``definite``, as the stochastic cost
    requires.  A point that is not built has the rank error."""
    if not full_rank:
        return rank_error
    return None if definite else spd_error


class _Problem:
    """What one Newton run maximizes over the lanes ``lanes`` of a store:
    a cost and its derivatives at the rows ``x`` of the lanes, where
    ``x`` is [theta, lambda] or, for stage 1 (``k`` None), theta with
    lambda one.

    ``costs`` and ``grad_hess`` are the callbacks of :func:`newton_lanes`,
    whose lanes, its rows of ``x0``, index ``lanes``; the derivative
    callback takes the block a blocked run asks for.  A call for as many
    rows as there are lanes is for every lane, since the rows ascend.
    Both read which rows are feasible from the store (see
    :meth:`_Workspaces.at`).
    """

    def __init__(self, points: _Workspaces, lanes: list, cost, derivatives, k=None):
        self.points = points
        self.lanes = lanes
        self.cost_of = cost
        self.derivatives = derivatives
        self.k = k

    def _lanes(self, rows):
        return self.lanes if len(rows) == len(self.lanes) else [self.lanes[r] for r in rows]

    def costs(self, x, rows):
        return _lane_costs(*self.points.at(self._lanes(rows), x, self.k), self.cost_of)

    def grad_hess(self, x, rows, block=None):
        return _derivatives(*self.points.at(self._lanes(rows), x, self.k, hold=True), self.derivatives, block)


def _lane_costs(ws, faults, cost) -> list:
    """``cost`` per row of :meth:`_Workspaces.at`'s result ``(ws,
    faults)``, as floats: ``cost(ws)`` at the feasible rows, -inf at the
    others."""
    if faults is None:
        return cost(ws).tolist() if ws.stacked else [cost(ws)]
    c = np.full(len(faults), -np.inf)
    if ws is not None:
        c[[f is None for f in faults]] = cost(ws)
    return c.tolist()


def _gather(refs) -> WhitenedWorkspace:
    """One stack of the lanes that the (key, stack, row, fault) entries
    name."""
    first = refs[0][1]
    if all(ref[1] is first for ref in refs):
        rows = [ref[2] for ref in refs]
        return first if rows == list(range(len(first.b))) else first.take(rows)
    groups: dict = {}
    for j, (_, ws, row, _) in enumerate(refs):
        ws_rows, js = groups.setdefault(id(ws), (ws, [], []))[1:]
        ws_rows.append(row)
        js.append(j)
    joined = WhitenedWorkspace.join([ws.take(rows) for ws, rows, _ in groups.values()])
    order = [j for _, _, js in groups.values() for j in js]
    return joined if order == sorted(order) else joined.take(np.argsort(order))


def _derivatives(ws, faults, evaluate, block):
    """``evaluate(ws, block)`` on :meth:`_Workspaces.at`'s result ``(ws,
    faults)``, as :func:`newton_lanes` asks for derivatives: ``(g, h,
    failed)`` by row, where a row whose point is not feasible fails
    alone, with the error its fault names, the one its single-lane call
    raises.  An unstacked workspace is a stack of one."""
    if faults is None:
        g, h = evaluate(ws, block)
        return (g, h, {}) if ws.stacked else ((g,), (h,), {})
    failed = {j: fault() for j, fault in enumerate(faults) if fault is not None}
    if ws is None:
        return None, None, failed
    g, h = evaluate(ws, block)
    ok = [f is None for f in faults]
    g_all = np.zeros((len(faults),) + g.shape[1:])
    h_all = np.zeros((len(faults),) + h.shape[1:])
    g_all[ok], h_all[ok] = g, h
    return g_all, h_all, failed


def _stage1(points: _Workspaces, lanes: list, k: int, opts: NewtonOptions, grid: int, r_excl: float):
    """Stage 1 on ``lanes``: k insertion line searches, each followed by
    uniform-noise Newton refinement of all angles so far, one Newton run
    over every lane per insertion.  Returns per lane a
    :class:`_UniformStart`, or the error that stopped the lane."""
    theta = {i: np.empty(0) for i in lanes}
    counts = {i: [] for i in lanes}
    converged = dict.fromkeys(lanes, True)
    failed = {}

    def uniform(ws, block=None):
        return grad_dml_uniform(ws), hess_dml_uniform(ws)

    for _ in range(k):
        n_cand = {}
        for i in theta:
            try:
                theta[i], n_cand[i] = ap_add_angle(
                    points.covariances[i], points.geometry, theta[i], grid_size=grid, exclusion_radius=r_excl
                )
            except (np.linalg.LinAlgError, ValueError) as exc:
                failed[i] = exc
        live = [i for i in theta if i not in failed]
        for i in failed:
            theta.pop(i, None)
        if not live:
            break
        problem = _Problem(points, live, cost_dml_uniform, uniform)
        outs = newton_lanes(problem.costs, problem.grad_hess, [theta[i] for i in live], opts)
        for i, out in zip(live, outs):
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
    stacks; it raises the error that its lane's result holds.  Its one
    lane runs through the same Newton driver as T lanes do, on unstacked
    workspaces (M x K and M x M).  Cost and derivative calls at one
    (theta, lambda) point share one workspace: see :class:`_Workspaces`.
    A :class:`SampleCovariance` given here keeps its stage 1 for later
    targets, as :func:`estimate_lanes` describes; a snapshot matrix makes
    a new covariance on every call.
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
    covariance stacks (on unstacked workspaces if T is 1); the insertion
    line searches and the stage-2 fits run lane by lane.

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
    points = _Workspaces(covariances, geometry, stochastic=not target.startswith("dml"))
    results: list = [None] * len(covariances)

    # -- stage 1: insertion line searches + uniform Newton refinement -----
    # stage 1 does not read hessian_mode, which sml-red alone changes
    uniform_opts = dataclasses.replace(opts, hessian_mode="full")
    key = ("stage1", geometry.positions.tobytes(), k, grid, r_excl, uniform_opts)
    starts = [rz._memo.get(key) for rz in covariances]
    need = [i for i, st in enumerate(starts) if st is None]
    if need:
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
        costs = _lane_costs(*points.at(lanes.tolist(), theta), cost_dml_uniform)
        for j, i in enumerate(lanes):
            results[i] = EstimationResult(
                target=target,
                theta=theta[j].copy(),
                lam=None,
                cost=costs[j],
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
    ws, faults = points.at(lanes.tolist(), theta)
    proj = iter(() if ws is None else ws.projector().reshape(-1, m, m))
    lam0 = {}
    for j, i in enumerate(lanes):
        if faults is not None and faults[j] is not None:
            # stage 1 ended at a finite cost, so its angles are valid and
            # only the rank of the sorted set can fail
            results[i] = faults[j]()
            continue
        try:
            lam0[i] = init_noise(covariances[i], next(proj))
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
    problem = _Problem(points, lanes.tolist(), cost_of, derivatives, k=k)
    for i, out in zip(lanes, newton_lanes(problem.costs, problem.grad_hess, x0, opts, positive, blocks)):
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

