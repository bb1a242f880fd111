"""End-to-end pipeline behavior: insertion searches, the noise
initializer, and full estimation runs for every target."""

import numpy as np
import pytest

import apndoa.apn
from apndoa import (
    DIVERGED_NOTE,
    ArrayGeometry,
    EstimationResult,
    NewtonOptions,
    SampleCovariance,
    StochasticModel,
    TARGETS,
    ap_add_angle,
    apn_estimate,
    benchmark_scenario,
    build_workspace,
    default_exclusion,
    gradient,
    init_noise,
    linear_trend,
    sample_covariance,
    scale_for_snr,
    steering_set,
    stream_rng,
    synthesize,
)

GEOM = ArrayGeometry.ula(11)
THETA = np.array([-0.2513, 0.1571, 1.005])
MODEL = StochasticModel(np.diag([1.0, 0.64, 0.25]))


def snapshots(snr_db, seed=0, n=100, theta=THETA, model=MODEL, geom=GEOM):
    lam = scale_for_snr(geom, theta, model, linear_trend(geom.m), snr_db)
    z = synthesize(geom, theta, model, lam, n, stream_rng(seed))
    return z, lam


def benchmark_batch(snr_db, trial=0):
    """The benchmark sweep's batch for one SNR and trial."""
    config = benchmark_scenario()
    lam = scale_for_snr(
        config.geometry, config.theta_true, config.source_model, config.noise_trend, snr_db
    )
    rng = stream_rng(config.seed, config.snr_db.index(snr_db), trial)
    return synthesize(
        config.geometry, config.theta_true, config.source_model, lam, config.n_snapshots, rng
    )


def test_first_insertion_matches_the_grid_argmax():
    z, _ = snapshots(20.0)
    rz = sample_covariance(z)
    grid = 64
    centers = -np.pi / 2 + np.pi * (np.arange(grid) + 0.5) / grid
    phi = np.exp(1j * np.pi * GEOM.positions[:, None] * np.sin(centers)[None, :])
    num = np.einsum("ij,ij->j", phi.conj(), rz.matrix @ phi).real
    den = np.einsum("ij,ij->j", phi.conj(), phi).real
    expect = centers[np.argmax(num / den)]
    got, n_eval = ap_add_angle(rz, GEOM, [], grid_size=grid, refine=False)
    assert got.size == 1
    assert got[0] == expect
    assert n_eval == grid


def test_single_source_lands_within_one_grid_cell():
    theta1 = np.array([0.37])
    model1 = StochasticModel(np.eye(1))
    lam = scale_for_snr(GEOM, theta1, model1, np.ones(11), 30.0)
    z = synthesize(GEOM, theta1, model1, lam, 200, stream_rng(3))
    got, _ = ap_add_angle(sample_covariance(z), GEOM, [])
    assert abs(got[0] - 0.37) < np.pi / (16 * 11)


def test_second_insertion_respects_the_exclusion_radius():
    z, _ = snapshots(20.0, seed=5)
    rz = sample_covariance(z)
    t1, _ = ap_add_angle(rz, GEOM, [])
    t2, _ = ap_add_angle(rz, GEOM, t1)
    assert t2.size == 2
    assert abs(t2[1] - t2[0]) >= default_exclusion(GEOM) - 1e-12


def test_add_angle_input_validation():
    z, _ = snapshots(10.0)
    rz = sample_covariance(z)
    with pytest.raises(ValueError):
        ap_add_angle(rz, GEOM, [], exclusion_radius=0.0)
    with pytest.raises(ValueError):
        ap_add_angle(rz, GEOM, [0.0], exclusion_radius=10.0)  # bans the whole grid
    with pytest.raises(ValueError):
        ap_add_angle(rz, GEOM, np.zeros(11))  # as many angles as sensors


def test_init_noise_is_exact_on_the_expected_covariance():
    lam = scale_for_snr(GEOM, THETA, MODEL, linear_trend(11), 20.0)
    phi = steering_set(GEOM, THETA).phi
    r_exact = phi @ MODEL.rs @ phi.conj().T + np.diag(lam**-2.0)
    rz = SampleCovariance(r_exact, 100)
    p_o = build_workspace(rz, steering_set(GEOM, THETA), np.ones(11)).projector()
    lam_hat = init_noise(rz, p_o)
    np.testing.assert_allclose(lam_hat, lam, rtol=1e-10)


def test_init_noise_with_no_sources_uses_the_diagonal():
    z, _ = snapshots(10.0, seed=7)
    rz = sample_covariance(z)
    lam_hat = init_noise(rz, np.zeros((11, 11)))
    np.testing.assert_allclose(lam_hat, np.real(np.diagonal(rz.matrix)) ** -0.5)


def test_init_noise_fallback_when_projector_diagonal_saturates():
    z, _ = snapshots(10.0, seed=8)
    rz = sample_covariance(z)
    lam_hat = init_noise(rz, np.eye(11))
    np.testing.assert_allclose(lam_hat, np.real(np.diagonal(rz.matrix)) ** -0.5)


def test_init_noise_rejects_bad_covariance_diagonal():
    rz = SampleCovariance(-np.eye(3), 10)
    with pytest.raises(ValueError):
        init_noise(rz, np.zeros((3, 3)))


def test_init_noise_is_consistent_in_the_snapshot_count():
    # at 0 dB the fitted denominators stay well conditioned, so the
    # sampling error of the initializer shrinks visibly with N
    lam = scale_for_snr(GEOM, THETA, MODEL, linear_trend(11), 0.0)

    def worst_err(n):
        z = synthesize(GEOM, THETA, MODEL, lam, n, stream_rng(11))
        rz = sample_covariance(z)
        p_o = build_workspace(rz, steering_set(GEOM, THETA), np.ones(11)).projector()
        return np.abs(init_noise(rz, p_o) / lam - 1.0).max()

    assert worst_err(100_000) < 0.05
    assert worst_err(100_000) < worst_err(1_000)


def test_init_noise_is_unbiased_on_sampled_high_snr_batches():
    # at 40 dB the signal x noise cross terms of a sample covariance
    # dwarf the noise power; a one-sided diagonal fit keeps them and
    # starts lambda about 8x too small, the two-sided fit cancels them
    config = benchmark_scenario()
    snr_index = config.snr_db.index(40.0)
    lam = scale_for_snr(GEOM, THETA, config.source_model, config.noise_trend, 40.0)
    ratios = []
    for trial in range(30):
        rng = stream_rng(config.seed, snr_index, trial)
        z = synthesize(GEOM, THETA, config.source_model, lam, 100, rng)
        rz = sample_covariance(z)
        p_o = build_workspace(rz, steering_set(GEOM, THETA), np.ones(11)).projector()
        ratios.append(init_noise(rz, p_o) / lam)
    assert 0.8 <= np.median(ratios) <= 1.25


def test_init_noise_is_exact_when_the_fit_is_rank_deficient():
    # seven sources on an 11-sensor ULA leave |B|^2 singular; the
    # one-sided start fills the unresolved directions exactly
    theta = np.linspace(-1.2, 1.2, 7)
    model = StochasticModel(np.eye(7))
    lam = scale_for_snr(GEOM, theta, model, linear_trend(11), 20.0)
    phi = steering_set(GEOM, theta).phi
    rz = SampleCovariance(phi @ model.rs @ phi.conj().T + np.diag(lam**-2.0), 100)
    p_o = build_workspace(rz, steering_set(GEOM, theta), np.ones(11)).projector()
    b = np.eye(11) - p_o
    assert np.linalg.matrix_rank(np.abs(b) ** 2) < 11
    np.testing.assert_allclose(init_noise(rz, p_o), lam, rtol=1e-9)


def test_estimates_are_deterministic():
    z, _ = snapshots(20.0, seed=1)
    a = apn_estimate(z, GEOM, 3, target="sml")
    b = apn_estimate(z, GEOM, 3, target="sml")
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.lam, b.lam)
    assert a.cost == b.cost
    assert a.flop_estimate == b.flop_estimate


def test_dmlo_in_the_noiseless_limit_recovers_the_angles():
    lam = scale_for_snr(GEOM, THETA, MODEL, linear_trend(11), 80.0)
    z = synthesize(GEOM, THETA, MODEL, lam, 100, stream_rng(2))
    res = apn_estimate(z, GEOM, 3, target="dmlo")
    assert res.lam is None
    assert res.stage3 is None
    assert res.iters_stage3 == 0
    assert np.abs(res.theta - THETA).max() < 1e-4


def test_sml_estimate_at_30_db():
    z, _ = snapshots(30.0, seed=4)
    res = apn_estimate(z, GEOM, 3, target="sml")
    assert res.converged and not res.diverged_lambda
    assert np.abs(res.theta - THETA).max() < 3 * np.pi / (16 * 11)
    ws = build_workspace(
        sample_covariance(z), steering_set(GEOM, res.theta), res.lam
    )
    assert np.abs(gradient(ws, "S")).max() < 1e-5 * 100


def test_dml_lambda_diverges_at_high_snr():
    z, _ = snapshots(40.0, seed=6)
    res = apn_estimate(z, GEOM, 3, target="dml")
    assert res.diverged_lambda
    assert not res.converged


def test_dml_alt_reports_lambda_divergence():
    z, _ = snapshots(40.0, seed=6)
    res = apn_estimate(z, GEOM, 3, target="dml-alt")
    assert res.diverged_lambda
    assert not res.converged
    assert res.note == DIVERGED_NOTE
    assert res.lam.max() > NewtonOptions().divergence_factor * res.lam_initial.max()


def test_all_targets_produce_results():
    z, _ = snapshots(20.0, seed=9)
    for target in TARGETS:
        res = apn_estimate(z, GEOM, 3, target=target)
        assert isinstance(res, EstimationResult)
        assert res.target == target
        assert res.theta.shape == (3,)
        assert np.all(np.diff(res.theta) > 0)  # sorted
        assert np.isfinite(res.cost)
        assert res.flop_estimate > 0
        assert res.iters_stage1 == sum(s.newton_iters for s in res.stage1)
        if target == "dmlo":
            assert res.lam is None
        else:
            assert res.lam.shape == (11,)
            assert (res.lam > 0).all()


def test_target_normalization_and_validation():
    z, _ = snapshots(20.0, seed=9)
    res = apn_estimate(z, GEOM, 3, target="SML_RED")
    assert res.target == "sml-red"
    with pytest.raises(ValueError):
        apn_estimate(z, GEOM, 3, target="mle")
    with pytest.raises(ValueError):
        apn_estimate(z, GEOM, 0)
    with pytest.raises(ValueError):
        apn_estimate(z, GEOM, 11)
    with pytest.raises(ValueError):
        apn_estimate(z[:5], GEOM, 3)


def test_precomputed_covariance_is_accepted():
    z, _ = snapshots(20.0, seed=10)
    rz = sample_covariance(z)
    a = apn_estimate(z, GEOM, 3, target="dmlo")
    b = apn_estimate(rz, GEOM, 3, target="dmlo")
    assert np.array_equal(a.theta, b.theta)


def result_fields(res):
    """Every field of an estimation result, arrays as bytes."""
    arrays = (res.theta, res.lam, res.theta_initial, res.lam_initial)
    return tuple(None if a is None else a.tobytes() for a in arrays) + (
        res.cost, res.converged, res.diverged_lambda, res.note, res.stage1, res.stage3, res.flop_estimate
    )


def test_a_shared_start_gives_the_standalone_result(monkeypatch):
    """Stage 1 runs once per covariance: after dmlo, every stage-3 target
    on the same SampleCovariance takes its stage-1 start from the memo
    and gives what it gives on a fresh copy."""
    z = benchmark_batch(20.0)
    targets = ("sml", "sml-red", "sml-alt", "dml-alt")
    fresh = {t: apn_estimate(sample_covariance(z), GEOM, 3, target=t) for t in targets}
    insertions = []
    add = apndoa.apn.ap_add_angle
    monkeypatch.setattr(apndoa.apn, "ap_add_angle", lambda *a, **kw: insertions.append(1) or add(*a, **kw))
    rz = sample_covariance(z)
    apn_estimate(rz, GEOM, 3, target="dmlo")
    for target in targets:
        assert result_fields(apn_estimate(rz, GEOM, 3, target=target)) == result_fields(fresh[target])
    assert len(insertions) == 3


@pytest.mark.parametrize(
    "what, change",
    [
        ("covariance object", lambda: dict(z=sample_covariance(benchmark_batch(20.0, trial=1)))),
        # same aperture, so the same default exclusion radius
        ("geometry", lambda: dict(geometry=ArrayGeometry(np.r_[0.0:9.0, 9.5, 10.0]))),
        ("k", lambda: dict(k=2)),
        ("grid size", lambda: dict(grid_size=100)),
        ("exclusion radius", lambda: dict(exclusion_radius=0.5)),
        ("Newton options", lambda: dict(options=NewtonOptions(max_iters=1))),
    ],
)
def test_a_start_made_from_other_inputs_is_refused(what, change):
    """The memo serves a stage-1 start only to the inputs it was made
    from: a run with one input changed, after a run that filled the
    memo, gives what it gives on a fresh covariance.  Each change moves
    stage 1, so a memo that ignored it would show."""
    rz = sample_covariance(benchmark_batch(20.0))
    filled = apn_estimate(rz, GEOM, 3, target="sml")
    args = dict(z=rz, geometry=GEOM, k=3, target="sml") | change()
    after = apn_estimate(**args)
    copy = SampleCovariance(args["z"].matrix, args["z"].n_snapshots)
    assert result_fields(after) == result_fields(apn_estimate(**(args | dict(z=copy)))), what
    stage1 = (after.stage1, after.theta_initial.tobytes())
    assert stage1 != (filled.stage1, filled.theta_initial.tobytes()), what


def test_alternating_target_counts_outer_sweeps():
    z, _ = snapshots(20.0, seed=12)
    opts = NewtonOptions(max_outer=7)
    res = apn_estimate(z, GEOM, 3, target="dml-alt", options=opts)
    assert res.stage3 is not None
    assert 0 < res.iters_stage3 <= 7


def benchmark_round_batch(seed, snr_index, rnd=0):
    """The batch the benchmark's ``single-sml`` and ``alt`` workloads draw
    for (seed, round, SNR index): fixed waveforms plus fresh noise from
    ``SeedSequence([seed, round, snr_index])``."""
    config = benchmark_scenario()
    lam = scale_for_snr(
        config.geometry,
        config.theta_true,
        config.source_model,
        config.noise_trend,
        config.snr_db[snr_index],
    )
    rng = np.random.default_rng(np.random.SeedSequence([seed, rnd, snr_index]))
    m, n = config.geometry.m, config.n_snapshots
    noise = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)
    phi = steering_set(config.geometry, config.theta_true).phi
    return phi @ config.source_model.s + noise / lam[:, None]


@pytest.fixture
def builds(monkeypatch):
    """The (theta, lambda) keys of every workspace apn_estimate builds."""
    built = []
    original = apndoa.apn.build_workspace

    def counting(r_z, steering, lam, *rest):
        built.append((steering.theta.tobytes(), np.asarray(lam).tobytes()))
        return original(r_z, steering, lam, *rest)

    monkeypatch.setattr(apndoa.apn, "build_workspace", counting)
    return built


@pytest.mark.parametrize("snr_db", [0.0, 40.0])
@pytest.mark.parametrize("target", TARGETS)
def test_no_point_is_built_twice(builds, target, snr_db):
    apn_estimate(benchmark_batch(snr_db), GEOM, 3, target=target)
    assert len(builds) > 0
    assert len(set(builds)) == len(builds)


@pytest.mark.parametrize("seed", [460])
def test_a_stalled_lambda_sweep_is_not_repeated(builds, seed):
    """On this 20 dB batch a lambda sweep stalls and the next theta sweep
    leaves theta as it was, so a new lambda sweep would retry the same
    trial points.  It is not run, and the stall is still reported.

    Stalls sit at the cost's rounding floor, so which batches reach this
    path moves with the last bits of the costs and derivatives.  With the
    cancellation-free trace and the doubled Cholesky shift, seeds 460,
    555, 608 and 712 reach it at 20 dB in seeds 0-999; seed 215, the first
    before the shift was doubled, no longer stalls."""
    res = apn_estimate(benchmark_round_batch(seed, 2), GEOM, 3, target="sml-alt")
    assert len(set(builds)) == len(builds)
    assert res.note == "line search found no ascent step"
    assert not res.converged
    # every outer step ran both sweeps except the last, whose lambda
    # sweep would have repeated its predecessor
    assert res.stage3.grad_evals == 2 * res.iters_stage3 - 1


@pytest.mark.parametrize("seed, rnd, snr_index", [(1727, 552, 2), (103, 22, 3)])
def test_joint_sml_reaches_the_reduced_hessian_maximum(seed, rnd, snr_index):
    """On these batches the first shift that factored sat just above a
    barely positive eigenvalue of -H, and joint sml stalled after one or
    two steps, 10 and 6.4 below the maximum that sml-red reaches.  With
    the shift doubled once more it converges there."""
    z = benchmark_round_batch(seed, snr_index, rnd)
    joint = apn_estimate(z, GEOM, 3, target="sml")
    reduced = apn_estimate(z, GEOM, 3, target="sml-red")
    assert joint.converged and joint.note == ""
    assert abs(joint.cost - reduced.cost) <= 1e-6


def sml_likelihood(z, theta, lam):
    """The stochastic log-likelihood -N (log|R| + tr R^-1 R_z) + N K at the
    source covariance that maximizes it for fixed (theta, lambda), formed
    unwhitened: R = A S A^H + W^-1 with W = diag(lambda^2) and
    S = (A^H W A)^-1 A^H W R_z W A (A^H W A)^-1 - (A^H W A)^-1."""
    n = z.shape[1]
    a = steering_set(GEOM, theta).phi
    w = lam**2
    rz = z @ z.conj().T / n
    g_inv = np.linalg.inv(a.conj().T @ (w[:, None] * a))
    aw = g_inv @ (a.conj().T * w[None, :])
    s = aw @ rz @ aw.conj().T - g_inv
    r = a @ s @ a.conj().T + np.diag(1.0 / w)
    _, logdet = np.linalg.slogdet(r)
    return -n * (logdet + np.trace(np.linalg.solve(r, rz)).real) + n * len(theta)


@pytest.mark.parametrize("target", ["sml", "sml-red", "sml-alt"])
def test_sml_cost_is_exact_when_a_lambda_runs_away(target):
    """On the benchmark's 40 dB batch of seed 1103, round 478, the largest
    lambda grows from 1.9e3 to 1e6 or more, and tr R_zl and tr B with it.
    Their difference missed the likelihood by up to 9e-8 relative (16x
    for sml-red); the trace over the complement of the steering range
    has no such cancellation."""
    z = benchmark_round_batch(1103, 4, rnd=478)
    res = apn_estimate(z, GEOM, 3, target=target)
    like = sml_likelihood(z, res.theta, res.lam)
    assert abs(res.cost - like) <= 1e-9 * abs(like)


# the (module, name) pairs through which apnbench/layertrace.py times one
# layer's calls into another; a name the package stops calling reads 0
# in the benchmark's per-layer metrics with only a warning
TRACED = (
    ("apn", "steering_set"),
    ("apn", "build_workspace"),
    ("apn", "cost_dml_uniform"),
    ("apn", "cost_dml"),
    ("apn", "cost_sml"),
    ("apn", "grad_hess"),
    ("apn", "grad_dml_uniform"),
    ("apn", "hess_dml_uniform"),
    ("apn", "newton_maximize"),
    ("newton", "modified_cholesky"),
    ("apn", "ap_add_angle"),
    ("apn", "init_noise"),
)
STAGE1_NAMES = {
    "steering_set", "build_workspace", "cost_dml_uniform", "grad_dml_uniform",
    "hess_dml_uniform", "newton_maximize", "modified_cholesky", "ap_add_angle",
}


@pytest.mark.parametrize("target", ["dmlo", "sml", "sml-red", "sml-alt", "dml-alt"])
def test_every_traced_layer_boundary_is_called(monkeypatch, target):
    import apndoa.newton

    modules = {"apn": apndoa.apn, "newton": apndoa.newton}
    calls = {name: 0 for _, name in TRACED}

    def counting(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for module, name in TRACED:
        monkeypatch.setattr(modules[module], name, counting(name, getattr(modules[module], name)))
    apn_estimate(benchmark_batch(20.0), GEOM, 3, target=target)
    expected = set(STAGE1_NAMES)
    if target != "dmlo":
        expected |= {"grad_hess", "init_noise", "cost_dml" if target.startswith("dml") else "cost_sml"}
    assert sorted(name for name in expected if calls[name] == 0) == []


def test_non_finite_snapshots_are_rejected_up_front():
    z, _ = snapshots(20.0, seed=9)
    z[4, 17] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        apn_estimate(z, GEOM, 3, target="sml")
