"""Whitened workspace against dense linear-algebra oracles.

Every factorized quantity (pseudoinverse, projector, compressed
covariance pieces) is compared to a direct dense computation, and the
concentrated costs are checked to coincide with the uncompressed
likelihoods evaluated at their closed-form maximizers.
"""

import numpy as np
import pytest

from apndoa import (
    ArrayGeometry,
    IndefiniteCovarianceError,
    RankDeficiencyError,
    SampleCovariance,
    StochasticModel,
    build_workspace,
    concentrated_rs,
    cost_dml,
    cost_dml_uniform,
    cost_lc,
    cost_sml,
    sample_covariance,
    steering_set,
    stream_rng,
    synthesize,
)


def make_instance(seed=0, m=7, k=3, n=40):
    rng = stream_rng(seed)
    g = ArrayGeometry(np.concatenate([[0.0], np.cumsum(0.7 + rng.uniform(0, 0.6, m - 1))]))
    th = np.sort(rng.uniform(-1.0, 1.0, k))
    while k > 1 and np.diff(th).min() < 0.35:
        th = np.sort(rng.uniform(-1.0, 1.0, k))
    a = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(k)
    model = StochasticModel(a @ a.conj().T + 0.2 * np.eye(k))
    lam_true = rng.uniform(0.6, 1.8, m)
    z = synthesize(g, th + rng.uniform(-0.05, 0.05, k), model, lam_true, n, rng)
    lam = rng.uniform(0.6, 1.8, m)
    return g, th, lam, z


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_factorizations_match_dense_oracles(seed):
    g, th, lam, z = make_instance(seed)
    rz = sample_covariance(z)
    ws = build_workspace(rz, steering_set(g, th), lam)

    phi = lam[:, None] * steering_set(g, th).phi
    r_zl = lam[:, None] * rz.matrix * lam[None, :]
    pinv_dense = np.linalg.pinv(phi)
    p_dense = phi @ pinv_dense
    b_dense = ws.q_factor.conj().T @ r_zl @ ws.q_factor

    assert np.abs(ws.phi - phi).max() < 1e-13
    assert np.abs(ws.r_zl - r_zl).max() < 1e-13
    assert np.abs(ws.pinv - pinv_dense).max() < 1e-10
    assert np.abs(ws.projector() - p_dense).max() < 1e-11
    assert np.abs(ws.b - b_dense).max() < 1e-12
    assert np.abs(ws.minv - np.linalg.inv(phi.conj().T @ phi)).max() < 1e-10
    m_zl_dense = np.linalg.inv(phi.conj().T @ r_zl @ phi)
    assert np.abs(ws.m_zl - m_zl_dense).max() < 1e-9
    p_z_dense = ws.q_factor @ np.linalg.inv(b_dense) @ ws.q_factor.conj().T
    assert np.abs(ws.p_z - p_z_dense).max() < 1e-9
    sign, logdet = np.linalg.slogdet(b_dense)
    assert sign == pytest.approx(1.0)
    assert ws.logdet_c == pytest.approx(logdet, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_projection_identities(seed):
    g, th, lam, z = make_instance(seed, m=6 + seed % 3, k=2 + seed % 2)
    ws = build_workspace(sample_covariance(z), steering_set(g, th), lam)
    p = ws.projector()
    eye = np.eye(ws.m)
    assert np.abs(p @ p - p).max() < 1e-10
    assert np.abs(p - p.conj().T).max() < 1e-10
    assert abs(np.trace(ws.p_z @ ws.r_zl).real - ws.k) < 1e-9
    left = eye - p + ws.p_z
    right = eye - p + p @ ws.r_zl @ p
    assert np.abs(left @ right - eye).max() < 1e-9


def test_costs_match_dense_definitions():
    g, th, lam, z = make_instance(7)
    n = z.shape[1]
    rz = sample_covariance(z)
    ws = build_workspace(rz, steering_set(g, th), lam)

    phi = lam[:, None] * steering_set(g, th).phi
    r_zl = lam[:, None] * rz.matrix * lam[None, :]
    p = phi @ np.linalg.pinv(phi)
    eye = np.eye(g.m)
    trace_term = np.trace((eye - p) @ r_zl).real
    q = ws.q_factor
    _, logdet_b = np.linalg.slogdet(q.conj().T @ r_zl @ q)

    assert cost_dml(ws) == pytest.approx(
        n * (2 * np.log(lam).sum() - trace_term), rel=1e-12
    )
    assert cost_lc(ws) == pytest.approx(-n * logdet_b, rel=1e-12)
    assert cost_sml(ws) == pytest.approx(cost_dml(ws) + cost_lc(ws), rel=1e-14)

    ones = np.ones(g.m)
    ws_u = build_workspace(rz, steering_set(g, th), ones)
    p_o = steering_set(g, th).phi @ np.linalg.pinv(steering_set(g, th).phi)
    assert cost_dml_uniform(ws_u) == pytest.approx(
        -n * np.trace((eye - p_o) @ rz.matrix).real, rel=1e-12
    )


def test_deterministic_concentration_is_the_maximum():
    """The concentrated deterministic cost equals the uncompressed
    likelihood at S_hat = pinv(Phi) Lambda Z, and any other S does worse."""
    g, th, lam, z = make_instance(11)
    n = z.shape[1]
    ws = build_workspace(sample_covariance(z), steering_set(g, th), lam)
    phi = ws.phi
    zw = lam[:, None] * z
    s_hat = np.linalg.pinv(phi) @ zw

    def uncompressed(s):
        fit = zw - phi @ s
        return 2.0 * n * np.log(lam).sum() - np.linalg.norm(fit) ** 2

    assert uncompressed(s_hat) == pytest.approx(cost_dml(ws), rel=1e-12)
    rng = stream_rng(1)
    for scale in (1e-3, 1e-1, 1.0):
        pert = scale * (rng.standard_normal(s_hat.shape) + 1j * rng.standard_normal(s_hat.shape))
        assert uncompressed(s_hat + pert) < uncompressed(s_hat)


def test_stochastic_concentration_is_the_maximum():
    """cost_sml equals the uncompressed stochastic likelihood at the
    closed-form source covariance (the derivation drops the additive
    constant N K; restore it for the comparison), and perturbing the
    source covariance strictly decreases the likelihood."""
    g, th, lam, z = make_instance(13)
    n = z.shape[1]
    rz = sample_covariance(z)
    ws = build_workspace(rz, steering_set(g, th), lam)
    phi = ws.phi
    r_zl = ws.r_zl
    k, m = ws.k, ws.m

    def uncompressed(rs):
        c = phi @ rs @ phi.conj().T + np.eye(m)
        sign, logdet = np.linalg.slogdet(c)
        if sign <= 0:
            return -np.inf
        return n * (
            2.0 * np.log(lam).sum()
            - logdet
            - np.trace(np.linalg.solve(c, r_zl)).real
            + k
        )

    rs_hat = concentrated_rs(ws)
    assert np.abs(rs_hat - rs_hat.conj().T).max() < 1e-12
    assert uncompressed(rs_hat) == pytest.approx(cost_sml(ws), rel=1e-10)
    rng = stream_rng(2)
    for scale in (1e-3, 1e-2, 1e-1):
        a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        pert = scale * (a + a.conj().T) / 2.0
        assert uncompressed(rs_hat + pert) < uncompressed(rs_hat)


def test_rank_deficiency_raises():
    g, th, lam, z = make_instance(3)
    coalesced = np.array([0.3, 0.3 + 1e-14, 0.9])
    with pytest.raises((RankDeficiencyError, ValueError)):
        build_workspace(sample_covariance(z), steering_set(g, coalesced), lam)


def test_indefinite_covariance_raises_lazily():
    """The deterministic path tolerates an indefinite R_z; the stochastic
    pieces raise when the compressed covariance is not positive definite."""
    g = ArrayGeometry.ula(5)
    th = np.array([0.2, 0.8])
    sset = steering_set(g, th)
    q, _ = np.linalg.qr(sset.phi)
    # covariance that is negative definite on the steering subspace
    r_bad = np.eye(5) - 1.5 * (q @ q.conj().T)
    rz = SampleCovariance(r_bad, 10)
    ws = build_workspace(rz, sset, np.ones(5))
    cost_dml(ws)  # deterministic path fine
    with pytest.raises(IndefiniteCovarianceError):
        cost_sml(ws)


def test_sample_covariance_validation():
    z = stream_rng(0).standard_normal((4, 16)) + 0j
    rz = sample_covariance(z)
    assert rz.m == 4
    assert rz.n_snapshots == 16
    assert np.abs(rz.matrix - z @ z.conj().T / 16).max() < 1e-14
    with pytest.raises(ValueError):
        SampleCovariance(np.ones((2, 3)), 5)
    with pytest.raises(ValueError):
        SampleCovariance(np.array([[1.0, 1.0], [0.0, 1.0]]), 5)


def test_sample_covariance_rejects_non_finite_entries():
    r = np.eye(3, dtype=complex)
    r[1, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        SampleCovariance(r, 10)


def test_sample_covariance_keeps_a_read_only_copy():
    """What is kept in a covariance's memo cannot go stale, and the
    caller's array stays the caller's."""
    r = np.eye(3, dtype=complex)
    rz = SampleCovariance(r, 10)
    assert not rz.matrix.flags.writeable
    assert r.flags.writeable
    r[0, 0] = 2.0
    assert rz.matrix[0, 0] == 1.0


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_direct_lapack_calls_give_the_scipy_and_numpy_bits(seed, k):
    """The per-point factors come from direct BLAS/LAPACK calls; each must
    equal, bit for bit, the scipy or numpy call it replaced."""
    from scipy.linalg import cho_factor, cho_solve, solve_triangular

    g, th, lam, z = make_instance(seed, k=k)
    ws = build_workspace(sample_covariance(z), steering_set(g, th), lam)

    q, r = np.linalg.qr(ws.phi)
    assert np.array_equal(ws.q_factor, q)
    assert np.array_equal(ws.r_factor, r)
    eye = np.eye(k, dtype=complex)
    assert np.array_equal(ws.rinv, solve_triangular(r, eye))
    chol = cho_factor(ws.b, lower=True)
    assert np.array_equal(ws.b_solve(ws.q_factor.conj().T), cho_solve(chol, ws.q_factor.conj().T))
    rinv_b = solve_triangular(r, cho_solve(chol, eye))
    assert np.array_equal(ws.m_zl, solve_triangular(r, rinv_b.conj().T).conj().T)
    assert ws.logdet_c == 2.0 * float(np.sum(np.log(np.real(np.diagonal(chol[0])))))


def test_indefinite_compression_raises_and_caches_the_error():
    g = ArrayGeometry.ula(5)
    sset = steering_set(g, np.array([0.2, 0.8]))
    q, _ = np.linalg.qr(sset.phi)
    ws = build_workspace(SampleCovariance(np.eye(5) - 1.5 * (q @ q.conj().T), 10), sset, np.ones(5))
    with pytest.raises(IndefiniteCovarianceError, match="not positive definite") as first:
        ws.b_solve(np.eye(2, dtype=complex))
    with pytest.raises(IndefiniteCovarianceError) as again:
        ws.m_zl
    assert again.value is first.value is ws._b_error


def test_estimates_never_call_the_thread_waking_wrappers(monkeypatch):
    """OpenBLAS's trtrs, behind scipy's solve_triangular, wakes the BLAS
    worker threads on every call.  Every target runs with that wrapper,
    the Cholesky wrappers and numpy's QR made to raise, wherever a module
    of the package or their own packages holds them."""
    import sys

    import scipy.linalg

    from apndoa import TARGETS, apn_estimate

    banned = {
        "solve_triangular": scipy.linalg.solve_triangular,
        "cho_factor": scipy.linalg.cho_factor,
        "cho_solve": scipy.linalg.cho_solve,
        "qr": np.linalg.qr,
    }

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} was called")
        return call

    g = ArrayGeometry.ula(11)
    theta = np.array([-0.2513, 0.1571, 1.005])
    model = StochasticModel(np.diag([1.0, 0.64, 0.25]))
    z = synthesize(g, theta, model, np.full(11, 10.0), 100, stream_rng(3))
    patched = 0
    homes = ("apndoa", "scipy.linalg._", "numpy.linalg._")  # not scipy's deprecated shims
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if not (name in ("scipy.linalg", "numpy.linalg") or name.startswith(homes)):
            continue
        for attr, fn in banned.items():
            if getattr(module, attr, None) is fn:
                monkeypatch.setattr(module, attr, refuse(attr))
                patched += 1
    assert patched >= 2 * len(banned)  # each in its package and its home module
    for target in TARGETS:
        res = apn_estimate(z, g, 3, target=target)
        assert np.all(np.isfinite(res.theta))


def test_costs_form_no_derivative_factor(monkeypatch):
    """Backtracking evaluates costs only; they must not reach the
    derivative kernel, the triangular solve behind R^-1 or a solve with
    the compressed covariance.  An indefinite compression still raises."""
    import sys

    import apndoa.derivatives
    from apndoa import _lapack

    def refuse(*args, **kwargs):
        raise AssertionError("a cost evaluation formed a derivative factor")

    monkeypatch.setattr(apndoa.derivatives, "_kernel", refuse)
    solves = {name: getattr(_lapack, name) for name in ("solve_upper", "cho_solve")}
    patched = 0
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("apndoa"):
            for name, fn in solves.items():
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, refuse)
                    patched += 1
    assert patched >= 4  # each in _lapack and in the modules that call it
    for seed in range(3):
        g, th, lam, z = make_instance(seed)
        rz = sample_covariance(z)
        sset = steering_set(g, th)
        assert np.isfinite(cost_dml_uniform(build_workspace(rz, sset, np.ones(g.m))))
        ws = build_workspace(rz, sset, lam)
        assert np.isfinite(cost_dml(ws)) and np.isfinite(cost_sml(ws))
    g = ArrayGeometry.ula(5)
    sset = steering_set(g, np.array([0.2, 0.8]))
    q, _ = np.linalg.qr(sset.phi)
    ws = build_workspace(SampleCovariance(np.eye(5) - 1.5 * (q @ q.conj().T), 10), sset, np.ones(5))
    assert np.isfinite(cost_dml_uniform(ws))
    with pytest.raises(IndefiniteCovarianceError):
        cost_sml(ws)


def test_each_cost_is_made_once_per_workspace(monkeypatch):
    """A workspace keeps each cost it has made: a second call does no
    linear algebra, and gives the same value, for one point and for a
    stack of lanes."""
    import apndoa.workspace

    g, th, lam, z = make_instance(0)
    rz = sample_covariance(z)
    one = build_workspace(rz, steering_set(g, th), lam)
    ones = build_workspace(rz, steering_set(g, th), np.ones(g.m))
    stack = build_workspace(
        SampleCovariance.stack([rz, rz]), steering_set(g, np.stack([th, th + 0.01])), np.stack([lam, lam])
    )
    costs = (cost_dml, cost_lc, cost_sml)
    first = [cost(ws) for ws in (one, stack) for cost in costs] + [cost_dml_uniform(ones)]

    def refuse(*args, **kwargs):
        raise AssertionError("a kept cost was made again")

    monkeypatch.setattr(np, "vdot", refuse)
    monkeypatch.setattr(np, "log", refuse)
    monkeypatch.setattr(apndoa.workspace, "cholesky", refuse)
    again = [cost(ws) for ws in (one, stack) for cost in costs] + [cost_dml_uniform(ones)]
    assert [np.asarray(v).tobytes() for v in again] == [np.asarray(v).tobytes() for v in first]


def test_a_stack_gives_each_lane_the_bits_of_its_own_workspace():
    """Stacked builds, costs and derivatives equal the unstacked ones lane
    by lane, bit for bit, including a rank-deficient lane, which reads
    -inf instead of raising, and lanes taken and joined in another order."""
    from apndoa.derivatives import grad_hess

    g = ArrayGeometry.ula(11)
    rng = np.random.default_rng(4)
    covs = [sample_covariance(rng.standard_normal((11, 60)) + 1j * rng.standard_normal((11, 60))) for _ in range(4)]
    theta = np.sort(rng.uniform(-1.2, 1.2, (4, 3)), axis=1)
    theta[3] = [0.3, 0.3 + 1e-15, 0.9]                  # coalesced: rank deficient
    lam = rng.uniform(0.5, 20.0, (4, 11))
    stack = build_workspace(SampleCovariance.stack(covs), steering_set(g, theta), lam)
    assert stack.full_rank.tolist() == [True, True, True, False]
    assert cost_sml(stack)[3] == cost_dml(stack)[3] == -np.inf
    for i in range(3):
        ws = build_workspace(covs[i], steering_set(g, theta[i]), lam[i])
        assert cost_dml(stack)[i] == cost_dml(ws) and cost_sml(stack)[i] == cost_sml(ws)
    mixed = type(stack).join([stack.take([2, 0]), stack.take([1])])
    for which in ("D", "S"):
        for reduced in (False, True):
            g3, h3 = grad_hess(mixed, which, reduced)
            for row, i in enumerate((2, 0, 1)):
                g1, h1 = grad_hess(build_workspace(covs[i], steering_set(g, theta[i]), lam[i]), which, reduced)
                assert g3[row].tobytes() == g1.tobytes() and h3[row].tobytes() == h1.tobytes()
