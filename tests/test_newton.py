"""Damped Newton ascent on analytic toy problems.

Quadratics give exact one-step answers, a pure log barrier exercises the
divergence detector, and small pathological callables cover the guard
paths (infeasible starts, failed line searches, derivative errors).
"""

import numpy as np
import pytest
from scipy.linalg import cho_solve

from apndoa import (
    IndefiniteCovarianceError,
    NewtonOptions,
    NewtonOutcome,
    RankDeficiencyError,
    modified_cholesky,
    newton_lanes,
    newton_maximize,
)
from apndoa.newton import _COST, _ascent


def quadratic(a_mat, x_star):
    def cost(x):
        d = x - x_star
        return -0.5 * d @ a_mat @ d

    def gh(x):
        return -a_mat @ (x - x_star), -a_mat

    return cost, gh


def test_one_newton_step_solves_a_concave_quadratic():
    a_mat = np.array([[3.0, 1.0], [1.0, 2.0]])
    x_star = np.array([0.7, -1.3])
    cost, gh = quadratic(a_mat, x_star)
    out = newton_maximize(cost, gh, np.array([5.0, 5.0]))
    assert out.converged and not out.diverged
    assert out.iterations == 1
    assert np.abs(out.x - x_star).max() < 1e-10
    assert out.cost == pytest.approx(0.0, abs=1e-18)


def test_start_at_the_maximum_converges_without_stepping():
    a_mat = np.eye(3)
    x_star = np.array([1.0, 2.0, 3.0])
    cost, gh = quadratic(a_mat, x_star)
    out = newton_maximize(cost, gh, x_star)
    assert out.converged
    assert out.iterations == 0
    assert out.n_grad_evals == 1
    assert out.cost_trace == [0.0]


def test_cost_trace_is_strictly_increasing():
    def cost(x):
        return -((x[0] - 1.0) ** 4) - (x[1] + 2.0) ** 2

    def gh(x):
        g = np.array([-4.0 * (x[0] - 1.0) ** 3, -2.0 * (x[1] + 2.0)])
        h = np.diag([-12.0 * (x[0] - 1.0) ** 2, -2.0])
        return g, h

    out = newton_maximize(cost, gh, np.array([3.0, 1.0]))
    assert out.converged
    assert out.iterations > 1
    diffs = np.diff(out.cost_trace)
    assert (diffs > 0).all()
    assert abs(out.x[1] + 2.0) < 1e-8


def test_modified_cholesky_keeps_negative_definite_untouched():
    h = np.array([[-4.0, 1.0], [1.0, -3.0]])
    factor, tau = modified_cholesky(h)
    assert tau == 0.0
    g = np.array([1.0, 2.0])
    assert np.allclose(cho_solve(factor, g), np.linalg.solve(-h, g))


def test_modified_cholesky_shifts_an_indefinite_matrix():
    h = np.diag([1.0, -1.0])
    factor, tau = modified_cholesky(h)
    assert tau > 1.0  # must override the +1 curvature
    shifted = -h + tau * np.eye(2)
    assert (np.linalg.eigvalsh(shifted) > 0).all()


def test_modified_cholesky_rejects_non_finite_input():
    with pytest.raises(ValueError):
        modified_cholesky(np.array([[np.nan, 0.0], [0.0, -1.0]]))


def test_modified_cholesky_gives_scipy_factors_at_every_shift():
    from scipy.linalg import cho_factor

    h = np.array([[-4.0, 1.0], [1.0, -3.0]])
    factor, tau = modified_cholesky(h)
    assert tau == 0.0 and factor[1] is True
    assert np.array_equal(factor[0], cho_factor(-h, lower=True)[0])
    h = np.array([[1.0, 0.5, 0.0], [0.5, -2.0, 0.3], [0.0, 0.3, -1.0]])
    factor, tau = modified_cholesky(h)
    assert tau > 1.0
    assert np.array_equal(factor[0], cho_factor(-h + tau * np.eye(3), lower=True)[0])


def test_non_finite_gradient_is_rejected_before_the_solve():
    def cost(x):
        return -float(x @ x)

    def gh(x):
        return np.array([np.nan, 1.0]), -2.0 * np.eye(2)

    with pytest.raises(ValueError, match="non-finite"):
        newton_maximize(cost, gh, np.array([1.0, 1.0]))


def test_divergence_detector_on_a_log_barrier():
    # cost 2N sum(log lam) grows without bound; Newton doubles lam each
    # iteration until the growth clamp, so the positive coordinates must
    # trip the divergence factor.
    n = 100.0

    def cost(x):
        return 2.0 * n * np.sum(np.log(x))

    def gh(x):
        return 2.0 * n / x, np.diag(-2.0 * n / x**2)

    x0 = np.array([1.0, 2.0])
    out = newton_maximize(cost, gh, x0, positive=np.array([True, True]))
    assert out.diverged and not out.converged
    assert "diverged" in out.note
    trace = np.array(out.pos_max_trace)
    assert trace[0] == 2.0
    assert (np.diff(trace) > 0).all()
    assert trace[-1] > NewtonOptions().divergence_factor * trace[0]
    assert trace[-2] <= NewtonOptions().divergence_factor * trace[0]


def test_growth_clamp_bounds_each_iteration():
    n = 100.0

    def cost(x):
        return 2.0 * n * np.sum(np.log(x))

    def gh(x):
        return 2.0 * n / x, np.diag(-2.0 * n / x**2)

    opts = NewtonOptions(lam_growth=1.5)
    out = newton_maximize(
        cost, gh, np.array([1.0]), options=opts, positive=np.array([True])
    )
    trace = np.array(out.pos_max_trace)
    ratios = trace[1:] / trace[:-1]
    assert ratios.max() <= 1.5 + 1e-12


def test_floor_clamp_keeps_positive_coordinates_positive():
    # the unconstrained Newton target is -5, far below zero
    def cost(x):
        return -0.5 * np.sum((x + 5.0) ** 2)

    def gh(x):
        return -(x + 5.0), -np.eye(x.size)

    out = newton_maximize(
        cost, gh, np.array([1.0]), positive=np.array([True])
    )
    assert (np.asarray(out.x) > 0).all()
    # each accepted step shrinks by exactly the floor factor
    assert out.x[0] == pytest.approx(NewtonOptions().lam_floor**out.iterations)


def test_infeasible_start_raises():
    with pytest.raises(ValueError):
        newton_maximize(lambda x: np.inf, lambda x: (x, -np.eye(1)), np.array([1.0]))
    with pytest.raises(ValueError):
        newton_maximize(
            lambda x: 0.0,
            lambda x: (x, -np.eye(2)),
            np.array([1.0, -1.0]),
            positive=np.array([True, True]),
        )
    with pytest.raises(ValueError):
        newton_maximize(
            lambda x: 0.0,
            lambda x: (x, -np.eye(2)),
            np.array([1.0, 1.0]),
            positive=np.array([True]),
        )


def test_failed_line_search_stops_with_a_note():
    calls = {"n": 0}

    def cost(x):
        calls["n"] += 1
        return 0.0 if calls["n"] == 1 else -np.inf

    def gh(x):
        return np.array([1.0]), np.array([[-1.0]])

    out = newton_maximize(cost, gh, np.array([0.0]))
    assert out.iterations == 0
    assert not out.converged
    assert "line search" in out.note
    # every backtracking trial was counted
    assert out.n_cost_evals > 10


def test_derivative_errors_terminate_gracefully():
    def gh(x):
        raise RankDeficiencyError("angles coalesced")

    out = newton_maximize(lambda x: 0.0, gh, np.array([0.0]))
    assert isinstance(out, NewtonOutcome)
    assert not out.converged
    assert "derivative evaluation failed" in out.note


def test_options_validation():
    with pytest.raises(ValueError):
        NewtonOptions(hessian_mode="fast")
    with pytest.raises(ValueError):
        NewtonOptions(backtrack=1.0)
    with pytest.raises(ValueError):
        NewtonOptions(lam_floor=0.0)
    with pytest.raises(ValueError):
        NewtonOptions(lam_growth=1.0)


def test_max_iters_caps_the_run():
    # quartic ridge approached slowly from far away
    def cost(x):
        return -(x[0] ** 4)

    def gh(x):
        return np.array([-4.0 * x[0] ** 3]), np.array([[-12.0 * x[0] ** 2]])

    out = newton_maximize(cost, gh, np.array([100.0]), NewtonOptions(max_iters=3))
    assert out.iterations == 3
    assert not out.converged


# -- lanes ---------------------------------------------------------------------


# a schedule of two blocks, the second of them kept positive
BLOCKS = {"a": np.array([True, False, False]), "b": np.array([False, True, True])}


def lane_problems(blocked=False):
    """Per lane a cost and its derivatives: quadratics in log coordinates
    with different curvatures and starts, so the lanes take different
    numbers of iterations; lane 2's trial points are all infeasible, so
    it stalls while the others accept; lane 3's Hessian is indefinite,
    which takes the shifted Cholesky factor.

    ``blocked`` is for the schedule :data:`BLOCKS`, whose steps ask for
    the derivatives of one block: lane 2's trial points are infeasible
    only where they move block b, which stalls in every sweep while
    block a ascends, and lane 4's cost is a log barrier in block b,
    which diverges."""
    rng = np.random.default_rng(3)
    problems = []
    for lane in range(5):
        a = rng.standard_normal((3, 3))
        a = a @ a.T + (1.0 + 3.0 * lane) * np.eye(3)
        x_star = np.exp(rng.standard_normal(3))
        start = x_star * (1.0 + 4.0 * lane)
        calls = {"n": 0}
        barrier = blocked and lane == 4
        if barrier:
            a[1:] = a[:, 1:] = 0.0

        def cost(x, a=a, x_star=x_star, lane=lane, calls=calls, start=start, barrier=barrier):
            calls["n"] += 1
            if lane == 2 and calls["n"] > 1 and (not blocked or (x[1:] != start[1:]).any()):
                return -np.inf
            with np.errstate(invalid="ignore"):     # a step past zero is infeasible: NaN
                d = np.log(x) - np.log(x_star)
            return -float(d @ a @ d) + (200.0 * np.log(x[1:]).sum() if barrier else 0.0)

        def gh(x, block=None, a=a, x_star=x_star, lane=lane, barrier=barrier):
            d = np.log(x) - np.log(x_star)
            g = -2.0 * (a @ d) / x
            h = -2.0 * a / np.outer(x, x)
            if lane == 3:
                h = h + 3.0 * np.abs(h).max() * np.diag([1.0, 0.0, 0.0])
            if barrier:
                g[1:] += 200.0 / x[1:]
                h[1:, 1:] -= np.diag(200.0 / x[1:] ** 2)
            if block is None:
                return g, h
            mask = BLOCKS[block]
            return g[mask], h[np.ix_(mask, mask)]

        problems.append((cost, gh, start, calls))
    return problems


def direct_run(cost, gh, x0, positive=None, blocks=None):
    """The reference the drivers are checked against: one ``_ascent`` run
    answered by direct calls to ``cost(x)`` and ``gh(x)``, or
    ``gh(x, name)`` for a block, with a rank-deficiency or indefiniteness
    error thrown into the run; its other errors propagate."""
    run = _ascent(np.array(x0, dtype=float, copy=True), NewtonOptions(), positive, blocks)
    block_args = [()] if blocks is None else [(name,) for name in blocks]
    request, x = next(run)
    while True:
        try:
            if request == _COST:
                request, x = run.send(cost(x))
                continue
            try:
                value = gh(x, *block_args[request])
            except (RankDeficiencyError, IndefiniteCovarianceError) as exc:
                request, x = run.throw(exc)
            else:
                request, x = run.send(value)
        except StopIteration as stop:
            return stop.value


def outcome_fields(out):
    return (
        out.x.tobytes(), out.cost, out.iterations, out.n_grad_evals, out.n_cost_evals,
        out.converged, out.diverged, out.note, out.cost_trace, out.pos_max_trace,
    )


@pytest.mark.parametrize(
    "positive, blocks",
    [(None, None), (np.ones(3, dtype=bool), None), (BLOCKS["b"], BLOCKS)],
    ids=["None", "positive1", "blocked"],
)
def test_each_lane_is_its_own_run(positive, blocks):
    """One newton_lanes call over five lanes gives each lane the outcome of
    its own run, bit for bit, as newton_maximize does for each problem
    alone: both equal the direct run of the reference driver, although
    the lanes stop at different iterations (or sweeps) and one of them
    never finds an ascent step (in one block); under the block schedule
    one lane diverges."""
    blocked = blocks is not None
    alone_problems = lane_problems(blocked)
    alone = []
    for cost, gh, start, calls in alone_problems:
        alone.append(direct_run(cost, gh, start, positive=positive, blocks=blocks))
    one_lane = [newton_maximize(cost, gh, start, positive=positive, blocks=blocks)
                for cost, gh, start, _ in lane_problems(blocked)]
    assert [outcome_fields(out) for out in one_lane] == [outcome_fields(out) for out in alone]
    problems = lane_problems(blocked)
    asked = []

    def costs(x, lanes):
        asked.append(len(lanes))
        return [problems[i][0](row) for i, row in zip(lanes, x)]

    def grad_hess(x, lanes, *block):
        pairs = [problems[i][1](row, *block) for i, row in zip(lanes, x)]
        return [g for g, _ in pairs], [h for _, h in pairs], {}

    lanes = newton_lanes(costs, grad_hess, [p[2] for p in problems], positive=positive, blocks=blocks)
    assert [outcome_fields(out) for out in lanes] == [outcome_fields(out) for out in alone]
    iterations = sorted(out.iterations for out in alone)
    assert iterations[0] < iterations[-1]
    assert lanes[2].note == "line search found no ascent step" and not lanes[2].converged
    if blocked:
        # block a ascended while block b stalled, until a stopped moving
        # and b's step, which would have started where its last one did,
        # was not run again
        assert lanes[2].iterations > 1 and lanes[2].n_grad_evals == 2 * lanes[2].iterations - 1
        assert lanes[4].diverged and [out.diverged for out in lanes].count(True) == 1
        # a stopped lane is not evaluated again
        assert sum(asked) == sum(calls["n"] for *_, calls in alone_problems)
        assert sum(asked) == sum(out.n_cost_evals for out in alone)
    else:
        assert lanes[2].iterations == 0
        # a stopped lane is not evaluated again
        assert sum(asked) == sum(out.n_cost_evals for out in alone)
    assert max(asked) == 5 and min(asked) < 5


def test_a_failing_lane_stops_alone():
    """Errors stay in their lane: a start with an infeasible cost and a
    gradient that turns non-finite give the lane the error its own run
    raises, and a derivative failure its note; the other lanes run on.
    Each lane, and newton_maximize on its problem alone, match the
    direct run of the reference driver."""

    def cost(x):
        return -float(x @ x)

    def gh(x):
        return -2.0 * x, -2.0 * np.eye(2)

    def bad_gh(x):
        return np.array([np.nan, 0.0]), -2.0 * np.eye(2)

    def rank_gh(x):
        raise RankDeficiencyError("angles coalesced")

    per_lane = [(cost, gh), (lambda x: np.inf, gh), (cost, bad_gh), (cost, rank_gh)]
    starts = np.array([[1.0, 2.0], [1.0, 1.0], [3.0, 1.0], [2.0, 2.0]])

    def costs(x, lanes):
        return [per_lane[i][0](row) for i, row in zip(lanes, x)]

    def grad_hess(x, lanes):
        g, h, failed = [], [], {}
        for j, (i, row) in enumerate(zip(lanes, x)):
            try:
                g_i, h_i = per_lane[i][1](row)
            except RankDeficiencyError as exc:
                failed[j] = exc
                g_i = h_i = None
            g.append(g_i)
            h.append(h_i)
        return g, h, failed

    outs = newton_lanes(costs, grad_hess, starts)
    assert outs[0].error is None and outs[0].converged
    for i in (0, 3):
        assert outs[i].error is None
        direct = outcome_fields(direct_run(*per_lane[i], starts[i]))
        assert outcome_fields(outs[i]) == direct
        assert outcome_fields(newton_maximize(*per_lane[i], starts[i])) == direct
    assert outs[3].note.startswith("derivative evaluation failed") and not outs[3].converged
    for i in (1, 2):
        with pytest.raises(ValueError) as direct:
            direct_run(*per_lane[i], starts[i])
        with pytest.raises(ValueError) as alone:
            newton_maximize(*per_lane[i], starts[i])
        assert type(alone.value) is type(direct.value) and str(alone.value) == str(direct.value)
        assert type(outs[i].error) is type(direct.value) and str(outs[i].error) == str(direct.value)
