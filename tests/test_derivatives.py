"""Closed-form derivative blocks against central differences.

The gradients and Hessians of both concentrated costs are compared
blockwise (theta block, lambda block, and the three Hessian blocks) to
finite differences of the cost itself, at mismatched evaluation points
where nothing is stationary.
"""

import numpy as np
import pytest

from apndoa import (
    ArrayGeometry,
    StochasticModel,
    block_rel_err,
    build_workspace,
    cost_dml,
    cost_dml_uniform,
    cost_sml,
    fd_check,
    fd_gradient,
    fd_hessian,
    grad_dml_uniform,
    grad_hess,
    gradient,
    hess_dml_uniform,
    hessian,
    sample_covariance,
    steering_set,
    stream_rng,
    synthesize,
)

GRAD_RTOL = 1e-5
HESS_RTOL = 1e-4


def make_point(seed=0, m=7, k=3, n=40):
    rng = stream_rng(seed)
    g = ArrayGeometry(
        np.concatenate([[0.0], np.cumsum(0.7 + rng.uniform(0, 0.6, m - 1))])
    )
    th_true = np.sort(rng.uniform(-1.0, 1.0, k))
    while k > 1 and np.diff(th_true).min() < 0.35:
        th_true = np.sort(rng.uniform(-1.0, 1.0, k))
    a = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(k)
    model = StochasticModel(a @ a.conj().T + 0.2 * np.eye(k))
    lam_true = rng.uniform(0.6, 1.8, m)
    z = synthesize(g, th_true, model, lam_true, n, rng)
    rz = sample_covariance(z)
    # evaluate away from the truth so no gradient block is near zero
    th = th_true + rng.uniform(-0.06, 0.06, k)
    lam = lam_true * rng.uniform(0.8, 1.25, m)
    return g, rz, th, lam


def cost_fn(g, rz, k, which):
    f = cost_dml if which == "D" else cost_sml

    def eval_at(x):
        return f(build_workspace(rz, steering_set(g, x[:k]), x[k:]))

    return eval_at


@pytest.mark.parametrize("which", ["D", "S"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradient_blocks_match_finite_differences(which, seed):
    g, rz, th, lam = make_point(seed)
    k = th.size
    x = np.concatenate([th, lam])
    ws = build_workspace(rz, steering_set(g, th), lam)
    g_an = gradient(ws, which)
    g_fd = fd_gradient(cost_fn(g, rz, k, which), x)
    assert block_rel_err(g_an[:k], g_fd[:k]) < GRAD_RTOL
    assert block_rel_err(g_an[k:], g_fd[k:]) < GRAD_RTOL


@pytest.mark.parametrize("which", ["D", "S"])
@pytest.mark.parametrize("seed", [0, 1])
def test_hessian_blocks_match_finite_differences(which, seed):
    g, rz, th, lam = make_point(seed)
    k = th.size
    x = np.concatenate([th, lam])
    ws = build_workspace(rz, steering_set(g, th), lam)
    h_an = hessian(ws, which)
    h_fd = fd_hessian(cost_fn(g, rz, k, which), x)
    assert block_rel_err(h_an[:k, :k], h_fd[:k, :k]) < HESS_RTOL
    assert block_rel_err(h_an[:k, k:], h_fd[:k, k:]) < HESS_RTOL
    assert block_rel_err(h_an[k:, k:], h_fd[k:, k:]) < HESS_RTOL


def test_stochastic_correction_matches_cost_difference():
    # which="C" differentiates cost_sml - cost_dml
    g, rz, th, lam = make_point(4)
    k = th.size
    x = np.concatenate([th, lam])
    ws = build_workspace(rz, steering_set(g, th), lam)
    f_d = cost_fn(g, rz, k, "D")
    f_s = cost_fn(g, rz, k, "S")
    g_fd = fd_gradient(lambda y: f_s(y) - f_d(y), x)
    assert block_rel_err(gradient(ws, "C"), g_fd) < GRAD_RTOL


def test_cost_blocks_are_additive():
    g, rz, th, lam = make_point(5)
    ws = build_workspace(rz, steering_set(g, th), lam)
    assert np.array_equal(gradient(ws, "S"), gradient(ws, "D") + gradient(ws, "C"))
    np.testing.assert_allclose(
        hessian(ws, "S"), hessian(ws, "D") + hessian(ws, "C"), rtol=0, atol=1e-9
    )


def test_grad_hess_matches_separate_calls():
    g, rz, th, lam = make_point(6)
    ws = build_workspace(rz, steering_set(g, th), lam)
    gr, he = grad_hess(ws, "S")
    assert np.array_equal(gr, gradient(ws, "S"))
    assert np.array_equal(he, hessian(ws, "S"))


@pytest.mark.parametrize("which", ["D", "S"])
@pytest.mark.parametrize("reduced", [False, True])
def test_single_block_equals_the_slice_of_the_full_result(which, reduced):
    g, rz, th, lam = make_point(8)
    k = th.size
    ws = build_workspace(rz, steering_set(g, th), lam)
    g_full, h_full = grad_hess(ws, which, reduced)
    g_t, h_t = grad_hess(ws, which, reduced, block="theta")
    g_l, h_l = grad_hess(ws, which, reduced, block="lam")
    assert np.array_equal(g_t, g_full[:k]) and np.array_equal(h_t, h_full[:k, :k])
    assert np.array_equal(g_l, g_full[k:]) and np.array_equal(h_l, h_full[k:, k:])
    with pytest.raises(ValueError):
        grad_hess(ws, which, reduced, block="mu")


def test_hessians_are_symmetric():
    g, rz, th, lam = make_point(7)
    ws = build_workspace(rz, steering_set(g, th), lam)
    for which in ("D", "C", "S"):
        h = hessian(ws, which)
        assert np.array_equal(h, h.T)


def test_reduced_hessian_is_symmetric_and_distinct():
    g, rz, th, lam = make_point(8)
    ws = build_workspace(rz, steering_set(g, th), lam)
    full = hessian(ws, "S")
    red = hessian(ws, "S", reduced=True)
    assert red.shape == full.shape
    assert np.array_equal(red, red.T)
    assert np.isfinite(red).all()
    assert np.abs(red - full).max() > 0


def test_uniform_gradient_and_exact_hessian():
    g, rz, th, _ = make_point(9)
    k = th.size
    ones = np.ones(rz.m)
    ws = build_workspace(rz, steering_set(g, th), ones)

    def f(t):
        return cost_dml_uniform(build_workspace(rz, steering_set(g, t), ones))

    report = fd_check(
        f, th, grad=grad_dml_uniform(ws), hess=hess_dml_uniform(ws, exact=True)
    )
    assert report.grad_block_err < GRAD_RTOL
    assert report.hess_block_err < HESS_RTOL
    # with lambda = 1 the uniform path is the theta block of the full cost
    assert np.array_equal(grad_dml_uniform(ws), gradient(ws, "D")[:k])


def test_default_uniform_hessian_is_negative_semidefinite():
    for seed in range(5):
        g, rz, th, _ = make_point(seed, m=8, k=4)
        ws = build_workspace(rz, steering_set(g, th), np.ones(rz.m))
        eig = np.linalg.eigvalsh(hess_dml_uniform(ws))
        assert eig.max() < 1e-8 * max(1.0, abs(eig.min()))


def test_derivative_calls_at_one_point_share_their_products(monkeypatch):
    """The uniform gradient and Hessian at one point come from one kernel
    pass, a single-block request forms only its own block's factors (the
    lambda block needs no R^-1), and each result equals the one a fresh
    workspace gives."""
    import apndoa.derivatives as derivatives

    g, rz, th, lam = make_point(11)
    ones = np.ones(rz.m)

    def point(l):
        return build_workspace(rz, steering_set(g, th), l)

    alone = (grad_dml_uniform(point(ones)), hess_dml_uniform(point(ones)),
             grad_hess(point(lam), "S", block="theta"), grad_hess(point(lam), "S", block="lam"))
    kernel_calls, rinv_calls = [], []
    kernel, solve_upper = derivatives._kernel, derivatives.solve_upper
    monkeypatch.setattr(
        derivatives, "_kernel", lambda *a: kernel_calls.append(a[1:]) or kernel(*a)
    )
    monkeypatch.setattr(
        derivatives, "solve_upper", lambda *a: rinv_calls.append(1) or solve_upper(*a)
    )
    uniform, joint = point(ones), point(lam)
    shared = (grad_dml_uniform(uniform), hess_dml_uniform(uniform),
              grad_hess(joint, "S", block="theta"), grad_hess(joint, "S", block="lam"))
    # one pass for the uniform pair, one per block request
    assert kernel_calls == [("D", True, "theta"), ("S", False, "theta"), ("S", False, "lam")]
    assert len(rinv_calls) == 2  # the uniform pass and the theta block
    for a, b in zip(alone[:2], shared[:2]):
        assert np.array_equal(a, b)
    for a, b in zip(alone[2:], shared[2:]):
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_uniform_paths_reject_nonuniform_lambda():
    g, rz, th, lam = make_point(10)
    ws = build_workspace(rz, steering_set(g, th), lam)
    with pytest.raises(ValueError):
        grad_dml_uniform(ws)
    with pytest.raises(ValueError):
        hess_dml_uniform(ws)


def test_which_argument_is_validated():
    g, rz, th, lam = make_point(11)
    ws = build_workspace(rz, steering_set(g, th), lam)
    with pytest.raises(ValueError):
        gradient(ws, "X")


def test_block_rel_err_basics():
    a = np.array([1.0, 2.0, 3.0])
    assert block_rel_err(a, a) == 0.0
    assert block_rel_err(np.zeros(3), np.zeros(3)) == 0.0
    assert block_rel_err(a, a + 3e-5) == pytest.approx(1e-5, rel=1e-4)


def test_fd_check_on_a_quadratic():
    h_true = np.array([[2.0, 0.5], [0.5, 1.0]])

    def f(x):
        return -0.5 * x @ h_true @ x + np.array([1.0, -2.0]) @ x

    x0 = np.array([0.3, -0.7])
    grad = np.array([1.0, -2.0]) - h_true @ x0
    report = fd_check(f, x0, grad=grad, hess=-h_true)
    assert report.grad_block_err < 1e-7
    assert report.hess_block_err < 1e-6
