"""Monte Carlo harness: matching, aggregation, scenario construction,
serialization, and the determinism contracts."""

import dataclasses
import io
import itertools
import json

import numpy as np
import pytest

import apndoa.montecarlo as mc
from apndoa import (
    ESTIMATORS,
    TARGETS,
    AggregateRecord,
    DeterministicModel,
    MonteCarloResult,
    ScenarioConfig,
    StochasticModel,
    TrialRecord,
    aggregate,
    benchmark_scenario,
    load_scenario,
    match_angles,
    read_csv,
    read_jsonl,
    rows_from_result,
    run_monte_carlo,
    scenario_from_dict,
    write_csv,
    write_jsonl,
)


def tiny_config(**overrides):
    defaults = dict(trials=2, snr_db=(20.0,), estimators=("music", "dmlo"))
    defaults.update(overrides)
    return benchmark_scenario(**defaults)


# -- angle matching ---------------------------------------------------------

def _exhaustive_pairing(t, h):
    """The estimates reordered to the least-squared-error pairing against
    sorted ``t``, searched over all K! assignments."""
    t_sorted = np.sort(t)
    perms = np.array(list(itertools.permutations(range(len(h)))))
    candidates = np.asarray(h, dtype=float)[perms]
    return candidates[np.argmin(((candidates - t_sorted) ** 2).sum(axis=1))]


def _greedy_pairing(t, h):
    """The estimates reordered by pairing the closest remaining true angle
    and estimate first, against sorted ``t``."""
    t_sorted = np.sort(t)
    h = np.asarray(h, dtype=float)
    rem_t, rem_h = list(range(len(h))), list(range(len(h)))
    pick = {}
    while rem_t:
        _, i, j = min((abs(t_sorted[i] - h[j]), i, j) for i in rem_t for j in rem_h)
        pick[i] = j
        rem_t.remove(i)
        rem_h.remove(j)
    return h[[pick[i] for i in range(len(h))]]


def test_exhaustive_matching_beats_greedy_on_the_crossing_case():
    t = [0.0, 1.0]
    h = [0.4, -0.4]
    matched, sq = match_angles(t, h)
    greedy = _greedy_pairing(t, h)
    assert np.array_equal(matched, _exhaustive_pairing(t, h))
    assert np.array_equal(matched, [-0.4, 0.4])
    assert np.array_equal(greedy, [0.4, -0.4])
    assert sq.sum() == pytest.approx(0.52)
    assert ((greedy - np.sort(t)) ** 2).sum() == pytest.approx(2.12)


def test_exhaustive_never_loses_to_greedy():
    # match_angles is the searched minimum over all K! pairings, for
    # K = 1..7, and never worse than the nearest-first pairing
    rng = np.random.default_rng(0)
    for k in range(1, 8):
        for _ in range(30):
            t = rng.uniform(-1.5, 1.5, k)
            h = t + rng.normal(0, 0.5, k)
            rng.shuffle(h)
            t_sorted = np.sort(t)
            best = _exhaustive_pairing(t, h)
            matched, sq = match_angles(t, h)
            assert np.array_equal(matched, best)
            assert np.array_equal(sq, (best - t_sorted) ** 2)
            greedy_sq = ((_greedy_pairing(t, h) - t_sorted) ** 2).sum()
            assert sq.sum() <= greedy_sq + 1e-12


def test_records_pair_six_sources_at_the_least_squared_error():
    # six equal-power sources at -10 dB, where pairing each angle with its
    # nearest estimate first mis-pairs every record of these four trials
    spec = {
        "geometry": {"ula": 12},
        "k": 6,
        "theta_true": [-1.0, -0.6, -0.2, 0.2, 0.6, 1.0],
        "source": {"powers": [1.0] * 6},
        "snr_db": [-10],
        "trials": 4,
        "estimators": ["dmlo"],
        "seed": 1,
    }
    result = run_monte_carlo(scenario_from_dict(spec))
    assert len(result.records) == 4
    for r in result.records:
        assert not r.failed
        matched = np.sort(r.theta_hat)
        assert np.array_equal(r.theta_hat, matched)
        assert r.sq_err == tuple(float(e) for e in (matched - np.array(r.theta_true)) ** 2)


def test_matching_pairs_against_sorted_truth():
    matched, sq = match_angles([1.0, -1.0], [0.9, -1.1])
    assert np.array_equal(matched, [-1.1, 0.9])
    np.testing.assert_allclose(sq, [0.01, 0.01])


def test_matching_validation():
    with pytest.raises(ValueError):
        match_angles([0.0], [0.0, 1.0])


# -- aggregation ------------------------------------------------------------

def make_record(snr=20.0, trial=0, est="sml", sq=(0.01, 0.04), failed=False, **kw):
    fields = dict(
        snr_db=snr,
        trial=trial,
        estimator=est,
        theta_true=(-0.3, 0.2),
        theta_hat=(math_nan := float("nan"), math_nan) if failed else (-0.2, 0.0),
        lambda_hat=None,
        sq_err=(math_nan, math_nan) if failed else sq,
        iters_stage1=4,
        iters_stage3=10,
        flop_estimate=1e5,
        converged=not failed,
        diverged_lambda=False,
        failed=failed,
    )
    fields.update(kw)
    return TrialRecord(**fields)


def test_aggregate_pools_over_angles_and_trials():
    recs = [
        make_record(trial=0, sq=(0.01, 0.03)),
        make_record(trial=1, sq=(0.02, 0.06)),
    ]
    (agg,) = aggregate(recs)
    assert agg.n_trials == 2
    assert agg.mean_sq_err == pytest.approx(0.03)
    assert agg.rmse == pytest.approx(np.sqrt(0.03))
    assert agg.mean_iters_stage3 == 10.0
    assert agg.converged_rate == 1.0


def test_aggregate_is_order_invariant():
    rng = np.random.default_rng(3)
    recs = [
        make_record(snr=s, trial=t, est=e, sq=tuple(rng.uniform(0, 1, 2)))
        for s in (0.0, 20.0)
        for t in range(5)
        for e in ("sml", "music")
    ]
    a = aggregate(recs)
    shuffled = list(recs)
    rng.shuffle(shuffled)
    b = aggregate(shuffled)
    assert a == b


def test_aggregate_skips_failed_trials_in_means_but_not_rates():
    recs = [
        make_record(trial=0, sq=(0.01, 0.01)),
        make_record(trial=1, failed=True),
    ]
    (agg,) = aggregate(recs)
    assert agg.n_failed == 1
    assert agg.mean_sq_err == pytest.approx(0.01)
    assert agg.converged_rate == 0.5


# -- scenario construction --------------------------------------------------

def test_benchmark_scenario_source_models():
    unc = benchmark_scenario()
    assert isinstance(unc.source_model, DeterministicModel)
    cor = benchmark_scenario(correlated=True)
    assert isinstance(cor.source_model, StochasticModel)
    ev = np.linalg.eigvalsh(cor.source_model.rs)
    np.testing.assert_allclose(sorted(ev), [0.0004642, 0.06604, 2.337], rtol=1e-10)
    small = benchmark_scenario(trials=3, snr_db=(10.0, 20.0))
    assert small.trials == 3 and small.snr_db == (10.0, 20.0)


def test_bundled_overrides_take_what_the_config_takes():
    cfg = benchmark_scenario(snr_db=20.0, trials=2.0, estimators=["sml"])
    assert cfg.snr_db == (20.0,) and cfg.trials == 2 and cfg.estimators == ("sml",)
    with pytest.raises(ValueError, match="unknown config keys"):
        benchmark_scenario(snr=20.0)


def test_config_validation():
    base = benchmark_scenario()
    with pytest.raises(ValueError):
        ScenarioConfig(
            geometry=base.geometry, k=0, theta_true=[], source_model=base.source_model,
            noise_trend=base.noise_trend,
        )
    with pytest.raises(ValueError):
        ScenarioConfig(
            geometry=base.geometry, k=3, theta_true=[0.1, 0.2],
            source_model=base.source_model, noise_trend=base.noise_trend,
        )
    with pytest.raises(ValueError):
        benchmark_scenario(estimators=("sml", "sml"))
    with pytest.raises(ValueError):
        benchmark_scenario(estimators=("esprit",))
    with pytest.raises(ValueError):
        benchmark_scenario(trials=0)
    with pytest.raises(ValueError):
        benchmark_scenario(snr_db=())
    with pytest.raises(ValueError):
        ScenarioConfig(
            geometry=base.geometry, k=3, theta_true=base.theta_true,
            source_model=base.source_model, noise_trend=np.ones(4),
        )


def test_estimator_names_are_normalized():
    cfg = benchmark_scenario(estimators=("SML_RED", "Music"))
    assert cfg.estimators == ("sml-red", "music")


def full_dict():
    return {
        "geometry": {"ula": 7},
        "k": 2,
        "theta_true": [-0.4, 0.5],
        "source": {"powers": [1.0, 0.5]},
        "noise_trend": {"ratio": 4.0},
        "n_snapshots": 50,
        "snr_db": [10, 20],
        "trials": 3,
        "estimators": ["music", "sml"],
        "seed": 5,
        "options": {"max_iters": 30},
    }


def test_scenario_from_dict_full_schema():
    cfg = scenario_from_dict(full_dict())
    assert cfg.geometry.m == 7
    assert cfg.k == 2
    assert cfg.n_snapshots == 50
    assert cfg.snr_db == (10.0, 20.0)
    assert cfg.trials == 3
    assert cfg.seed == 5
    assert cfg.options.max_iters == 30
    assert isinstance(cfg.source_model, StochasticModel)
    assert cfg.noise_trend[-1] / cfg.noise_trend[0] == pytest.approx(4.0)


def test_scenario_from_dict_variants():
    d = full_dict()
    d["geometry"] = {"positions": [0.0, 1.0, 2.5, 4.0]}
    d["source"] = {"eigenvalues": [2.0, 0.01]}
    d["noise_trend"] = {"values": [1.0, 2.0, 3.0, 4.0]}
    cfg = scenario_from_dict(d)
    assert cfg.geometry.m == 4
    np.testing.assert_allclose(
        sorted(np.linalg.eigvalsh(cfg.source_model.rs)), [0.01, 2.0], rtol=1e-10
    )
    d = full_dict()
    d["source"] = {"powers": [1.0, 0.5], "fixed": True}
    assert isinstance(scenario_from_dict(d).source_model, DeterministicModel)


def test_scenario_from_dict_rejects_unknown_and_missing_keys():
    d = full_dict()
    d["snapshots"] = 10
    with pytest.raises(ValueError, match="unknown config keys"):
        scenario_from_dict(d)
    d = full_dict()
    del d["source"]
    with pytest.raises(ValueError, match="missing"):
        scenario_from_dict(d)
    d = full_dict()
    d["geometry"] = {"circle": 5}
    with pytest.raises(ValueError):
        scenario_from_dict(d)
    d = full_dict()
    d["source"] = {"amplitudes": [1.0]}
    with pytest.raises(ValueError):
        scenario_from_dict(d)


def test_load_scenario(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(full_dict()))
    cfg = load_scenario(path)
    assert cfg.geometry.m == 7 and cfg.trials == 3


# -- sweeps -----------------------------------------------------------------

# the first APN estimator of each order makes the batch's stage-1 start
# (dmlo with full Hessians, sml-red with reduced ones); the others take it
SHARING_ORDERS = (ESTIMATORS, ESTIMATORS[::-1])


@pytest.fixture(scope="module")
def shared_sweeps():
    """Records of sweeps of every estimator, in both orders, at 0 and 40
    dB, on one thread and on four."""
    return [
        run_monte_carlo(tiny_config(estimators=order, snr_db=(0.0, 40.0)), threads=threads).records
        for order in SHARING_ORDERS
        for threads in (1, 4)
    ]


@pytest.mark.parametrize("target", TARGETS)
def test_every_estimator_sees_the_same_batch(shared_sweeps, target):
    """An APN target's records are the same whether it runs alone or
    shares a stage-1 start made by another estimator on the batch."""
    alone = run_monte_carlo(tiny_config(estimators=(target,), snr_db=(0.0, 40.0))).records
    assert len(alone) == 4
    for records in shared_sweeps:
        assert [r for r in records if r.estimator == target] == list(alone)


def test_stage1_runs_once_per_batch(monkeypatch):
    import apndoa.apn

    calls = {"ap_add_angle": 0, "estimate_lanes": 0}

    def counting(module, name):
        fn = getattr(module, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    counting(apndoa.apn, "ap_add_angle")
    counting(mc, "estimate_lanes")
    cfg = tiny_config(estimators=("dmlo", "sml", "sml-red"), trials=1)
    run_monte_carlo(cfg)
    assert calls == {"ap_add_angle": cfg.k, "estimate_lanes": 3}


def test_a_stage1_failure_fails_every_apn_estimator_alike(monkeypatch):
    """With no start to share, each APN estimator runs stage 1 itself and
    records the same failure; MUSIC does not run stage 1."""
    import apndoa.apn

    cfg = tiny_config(estimators=("music", "dmlo", "sml", "sml-red"))
    music = [r for r in run_monte_carlo(cfg).records if r.estimator == "music"]

    def boom(*args, **kwargs):
        raise ValueError("synthetic insertion failure")

    monkeypatch.setattr(apndoa.apn, "ap_add_angle", boom)
    result = run_monte_carlo(cfg)
    apn = [r for r in result.records if r.estimator != "music"]
    assert len(apn) == 6
    assert all(r.failed and r.note == "ValueError: synthetic insertion failure" for r in apn)
    assert [r for r in result.records if r.estimator == "music"] == music


def test_thread_count_does_not_change_records():
    cfg = tiny_config(trials=3)
    r1 = run_monte_carlo(cfg, threads=1)
    r4 = run_monte_carlo(cfg, threads=4)
    assert r1.records == r4.records
    assert r1.aggregates == r4.aggregates
    with pytest.raises(ValueError):
        run_monte_carlo(cfg, threads=0)


def test_failures_are_recorded_not_raised(monkeypatch):
    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("synthetic failure")

    monkeypatch.setattr(mc, "estimate_lanes", boom)
    result = run_monte_carlo(tiny_config(estimators=("music", "sml")))
    sml = [r for r in result.records if r.estimator == "sml"]
    assert len(sml) == 2
    assert all(r.failed for r in sml)
    assert all("synthetic failure" in r.note for r in sml)
    assert all(np.isnan(r.theta_hat).all() for r in sml)
    agg = {a.estimator: a for a in result.aggregates}
    assert agg["sml"].n_failed == 2
    assert np.isnan(agg["sml"].rmse)
    assert agg["sml"].converged_rate == 0.0
    # the other estimator is untouched
    assert agg["music"].n_failed == 0
    assert np.isfinite(agg["music"].rmse)


def test_programming_errors_are_raised_not_recorded(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("synthetic bug")

    monkeypatch.setattr(mc, "estimate_lanes", broken)
    with pytest.raises(TypeError, match="synthetic bug"):
        run_monte_carlo(tiny_config(estimators=("sml",)))


# -- lanes: each worker's cells run as lanes of one estimate ------------------

LANE_GRID = dict(snr_db=(0.0, 40.0), trials=3)


def cell_covariances(config):
    """Every cell's sample covariance in key order, drawn as the sweep draws it."""
    from apndoa import sample_covariance, scale_for_snr, stream_rng, synthesize

    covs = []
    for si, snr in enumerate(config.snr_db):
        lam = scale_for_snr(config.geometry, config.theta_true, config.source_model, config.noise_trend, snr)
        for t in range(config.trials):
            z = synthesize(
                config.geometry, config.theta_true, config.source_model, lam,
                config.n_snapshots, stream_rng(config.seed, si, t),
            )
            covs.append(((si, t), sample_covariance(z)))
    return covs


def one_lane_records(config, covs=None):
    """The records the sweep must give: each estimator run on each cell's
    batch alone, through apn_estimate or music_estimate."""
    from apndoa import apn_estimate, music_estimate

    records = []
    for (si, t), rz in covs or cell_covariances(config):
        for est in config.estimators:
            try:
                if est == "music":
                    res = music_estimate(rz, config.geometry, config.k)
                else:
                    res = apn_estimate(rz, config.geometry, config.k, target=est, options=config.options)
            except (np.linalg.LinAlgError, ValueError) as exc:
                res = exc
            records.append(mc._record(config, est, config.snr_db[si], t, res))
    return records


@pytest.mark.parametrize("order", SHARING_ORDERS, ids=["forward", "reversed"])
def test_every_lane_record_is_its_one_lane_estimate(order):
    """Sweeps of all seven estimators, on one worker (one group of six
    lanes) and on four (groups of two), give every record the one-lane
    estimate of its cell field by field: angles, lambda, flags, note,
    iteration counts and flop estimate."""
    config = tiny_config(estimators=order, **LANE_GRID)
    expected = one_lane_records(config)
    for threads in (1, 4):
        assert list(run_monte_carlo(config, threads=threads).records) == expected


def test_capped_groups_give_the_same_records(monkeypatch):
    """Groups of at most MAX_LANES cells (here 4 of 6) leave every record
    as it is."""
    config = tiny_config(estimators=("music", "dmlo", "sml", "sml-red"), **LANE_GRID)
    whole = run_monte_carlo(config).records
    monkeypatch.setattr(mc, "MAX_LANES", 4)
    assert run_monte_carlo(config).records == whole


@pytest.mark.parametrize("target", TARGETS)
def test_lane_results_are_the_one_lane_results(target):
    """estimate_lanes gives each lane, field by field, apn_estimate's
    result on its covariance alone (a copy, so that stage 1 runs again):
    cost, stage counts and start values too, which the records do not
    carry, and a cost that is a float either way."""
    from apndoa import EstimationResult, SampleCovariance, apn_estimate, estimate_lanes

    config = tiny_config(**LANE_GRID)
    covs = [rz for _, rz in cell_covariances(config)]
    lanes = estimate_lanes(covs, config.geometry, config.k, target=target)
    assert len(lanes) == len(covs) > 1
    for rz, res in zip(covs, lanes):
        alone = apn_estimate(SampleCovariance(rz.matrix, rz.n_snapshots), config.geometry, config.k, target=target)
        assert isinstance(res, EstimationResult)
        assert type(res.cost) is float and type(alone.cost) is float
        for f in dataclasses.fields(EstimationResult):
            got, want = getattr(res, f.name), getattr(alone, f.name)
            if isinstance(want, np.ndarray):
                assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), f.name
            else:
                assert type(got) is type(want) and got == want, f.name


def test_a_raising_lane_fails_alone(monkeypatch):
    """Patched to raise on one cell's covariance, in stage 1, in stage 2
    or inside the joint Newton, a lane records the failure its one-lane
    estimate raises, and every other record is unchanged."""
    import apndoa.apn as apn

    config = tiny_config(estimators=("music", "dmlo", "sml", "sml-red", "dml-alt"), **LANE_GRID)
    n = len(config.estimators)
    clean = run_monte_carlo(config).records
    covs = cell_covariances(config)
    insert, noise, derivatives = apn.ap_add_angle, apn.init_noise, apn.grad_hess
    bad = {}                # stage -> the covariance matrix it fails on

    def failing_insert(r_z, *args, **kwargs):
        if "stage 1" in bad and np.array_equal(r_z.matrix, bad["stage 1"]):
            raise ValueError("synthetic insertion failure")
        return insert(r_z, *args, **kwargs)

    def failing_noise(r_z, *args):
        if "stage 2" in bad and np.array_equal(r_z.matrix, bad["stage 2"]):
            raise np.linalg.LinAlgError("synthetic noise failure")
        return noise(r_z, *args)

    def failing_hessian(ws, *args, **kwargs):
        g, h = derivatives(ws, *args, **kwargs)
        if "stage 3" in bad:
            # a non-finite Hessian in the lane of that covariance
            lanes = ws.r_z.reshape((-1,) + ws.r_z.shape[-2:])
            hit = [np.array_equal(r, bad["stage 3"]) for r in lanes]
            h = h.reshape((len(lanes),) + h.shape[-2:]).copy()
            h[hit] = np.nan
            h = h.reshape(g.shape + g.shape[-1:])
        return g, h

    monkeypatch.setattr(apn, "ap_add_angle", failing_insert)
    monkeypatch.setattr(apn, "init_noise", failing_noise)
    monkeypatch.setattr(apn, "grad_hess", failing_hessian)
    for stage, cell in (("stage 1", 4), ("stage 2", 2), ("stage 3", 1)):
        bad.clear()
        bad[stage] = covs[cell][1].matrix
        records = run_monte_carlo(config).records
        others = [i for i in range(len(records)) if i // n != cell]
        assert [records[i] for i in others] == [clean[i] for i in others]
        mine = records[cell * n:(cell + 1) * n]
        expected = one_lane_records(config, covs[cell:cell + 1])
        assert [r.failed for r in mine] == [r.failed for r in expected]
        assert any(r.failed for r in mine)
        assert [r.note for r in mine] == [r.note for r in expected]
        assert [r for r in mine if not r.failed] == [r for r in expected if not r.failed]


def test_a_stalled_run_keeps_its_note():
    """The default sweep's sml run on its second 0 dB batch stalls; its
    record says so, and so does the JSONL, while the CSV has no note."""
    result = run_monte_carlo(benchmark_scenario(snr_db=(0.0,), trials=2, estimators=("sml",)))
    stalled = result.records[1]
    assert (stalled.snr_db, stalled.trial, stalled.converged) == (0.0, 1, False)
    assert stalled.note == "line search found no ascent step"
    buf = io.StringIO()
    write_jsonl(result, buf)
    assert read_jsonl(io.StringIO(buf.getvalue())).records[1].note == stalled.note


def test_sml_red_reaches_the_maximum_from_the_stage2_start():
    """On the 30 dB batch of the benchmark sweep's seed 1723, round 401,
    two sensors' fitted noise powers are not positive.  Started at
    [R_z]_mm^(-1/2), which holds the signal power too, their lambda began
    some 100x too small and sml-red ran lambda away; started from the
    one-sided fit, or where that is not positive from the smallest
    positive fitted power, it converges to sml's maximum.  Cells are
    seeded by SNR index, so the grid stays whole; the waveform stays
    seed 0's, as in the benchmark."""
    from dataclasses import replace

    from apndoa import apn_estimate

    config = replace(benchmark_scenario(estimators=("sml", "sml-red")), seed=1723 * 1_000_003 + 401, trials=1)
    records = run_monte_carlo(config).records
    sml, red = (r for r in records if r.snr_db == 30.0)
    assert red.estimator == "sml-red" and red.converged and not red.diverged_lambda
    ((_, rz),) = [c for c in cell_covariances(config) if c[0] == (config.snr_db.index(30.0), 0)]
    costs = {}
    for record in (sml, red):
        res = apn_estimate(rz, config.geometry, config.k, target=record.estimator)
        assert tuple(res.theta) == tuple(sorted(record.theta_hat))
        costs[record.estimator] = res.cost
    assert abs(costs["sml-red"] - costs["sml"]) < 1e-6


def test_music_record_shape():
    result = run_monte_carlo(tiny_config(estimators=("music",), trials=1))
    (rec,) = result.records
    assert rec.estimator == "music"
    assert rec.lambda_hat is None
    assert rec.iters_stage3 == 0
    assert rec.flop_estimate == 0.0
    assert len(rec.theta_hat) == 3
    assert rec.theta_true == tuple(sorted(rec.theta_true))


# -- serialization ----------------------------------------------------------

def test_csv_round_trip_is_byte_identical():
    result = run_monte_carlo(tiny_config())
    buf1 = io.StringIO()
    write_csv(result, buf1)
    rows = read_csv(io.StringIO(buf1.getvalue()))
    buf2 = io.StringIO()
    write_csv(rows, buf2)
    assert buf1.getvalue() == buf2.getvalue()


def test_csv_layout():
    result = run_monte_carlo(tiny_config(trials=1))
    buf = io.StringIO()
    write_csv(result, buf)
    lines = buf.getvalue().splitlines()
    preamble = [ln for ln in lines if ln.startswith("#")]
    assert len(preamble) == 5
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header.split(",") == list(mc.CSV_COLUMNS)
    # 2 estimators x 1 trial x 3 angles + 2 aggregate rows
    assert len(lines) - len(preamble) - 1 == 8
    agg_rows = [ln for ln in lines if ",-1,-1," in ln]
    assert len(agg_rows) == 2
    for ln in agg_rows:
        assert ln.endswith(",")  # reserved crb cell stays empty


def test_read_csv_rejects_foreign_layout():
    with pytest.raises(ValueError):
        read_csv(io.StringIO("a,b,c\n1,2,3\n"))
    result = run_monte_carlo(tiny_config(trials=1))
    buf = io.StringIO()
    write_csv(result, buf)
    lines = buf.getvalue().splitlines()
    broken = "\n".join(ln + ",0" if ln and not ln.startswith(("#", "snr")) else ln for ln in lines)
    with pytest.raises(ValueError):
        read_csv(io.StringIO(broken))


def test_jsonl_round_trip_is_lossless():
    result = run_monte_carlo(tiny_config())
    buf = io.StringIO()
    write_jsonl(result, buf)
    back = read_jsonl(io.StringIO(buf.getvalue()))
    assert back.records == result.records
    assert back.aggregates == result.aggregates


def test_jsonl_rejects_unknown_record_type():
    with pytest.raises(ValueError):
        read_jsonl(io.StringIO('{"type":"summary"}\n'))


def test_rows_from_result_counts():
    result = run_monte_carlo(tiny_config())
    rows = rows_from_result(result)
    # 2 estimators x 2 trials x 3 angles + 2 aggregates
    assert len(rows) == 14
    agg = [r for r in rows if r[2] == -1]
    assert all(r[3] == -1 and r[4] is None and r[12] is None for r in agg)
