"""Closed-form flop polynomials and the per-run work estimates."""

import numpy as np
import pytest

from apndoa import (
    ArrayGeometry,
    CMULADD,
    EstimationResult,
    StageCounts,
    StochasticModel,
    apn_estimate,
    covariance_flops,
    eval_flops,
    flop_polynomials,
    flop_table,
    line_search_flops,
    linear_trend,
    noise_init_flops,
    pipeline_flop_estimate,
    scale_for_snr,
    stream_rng,
    synthesize,
)


def test_reference_point_values():
    assert flop_polynomials(11, 3) == (9288, 15946, 27660, 112003)


def test_smallest_case_by_hand():
    # m = k = 1, deterministic, no derivatives:
    # -2 + 8 + 8 + 2 + 46 + 14 = 76
    assert eval_flops(1, 1, "D") == 76


def test_stochastic_always_costs_more():
    for m in range(1, 33):
        for k in range(1, m + 1):
            assert eval_flops(m, k, "S") > eval_flops(m, k, "D")
            assert eval_flops(m, k, "S", derivatives=True) > eval_flops(
                m, k, "D", derivatives=True
            )
            assert eval_flops(m, k, "D", derivatives=True) > eval_flops(m, k, "D")


def test_counts_are_positive_integers_and_grow_with_m():
    for k in (1, 2, 4):
        prev = 0
        for m in range(k, 40):
            c = eval_flops(m, k, "S", derivatives=True)
            assert isinstance(c, int) and c > prev
            prev = c


def test_validation():
    with pytest.raises(ValueError):
        eval_flops(0, 0)
    with pytest.raises(ValueError):
        eval_flops(3, 4)
    with pytest.raises(ValueError):
        eval_flops(3, 2, which="Q")
    with pytest.raises(ValueError):
        flop_polynomials(3, 0)


def test_flop_table_matches_the_polynomials():
    rows = flop_table(7, [1, 3])
    assert len(rows) == 2
    assert rows[1]["cost_s_derivs"] == eval_flops(7, 3, "S", derivatives=True)
    assert rows[0]["m"] == 7 and rows[0]["k"] == 1


def test_line_search_and_covariance_models():
    # per candidate: CMULADD (m^2 + 2 m k + 2 m) + 1, times the count
    assert line_search_flops(11, 0, 1) == CMULADD * (121 + 22) + 1
    assert line_search_flops(11, 2, 10) == 10 * (CMULADD * (121 + 44 + 22) + 1)
    assert covariance_flops(4, 10) == CMULADD * 4 * 5 * 10 / 2 + 20


def test_zero_work_result_costs_exactly_zero():
    res = EstimationResult(
        target="sml",
        theta=np.zeros(2),
        lam=np.ones(5),
        cost=0.0,
        converged=True,
        diverged_lambda=False,
        theta_initial=np.zeros(2),
        lam_initial=np.ones(5),
        stage1=(StageCounts(), StageCounts()),
        stage3=StageCounts(),
        flop_estimate=0.0,
    )
    # all that is charged is the stage-2 noise fit: the evaluations cost
    # exactly zero
    total = pipeline_flop_estimate(5, 2, res.stage1, res.stage3, res.target)
    assert total - noise_init_flops(5) == 0.0


def test_total_estimate_is_linear_in_final_stage_iterations():
    base = EstimationResult(
        target="sml",
        theta=np.zeros(2),
        lam=np.ones(5),
        cost=0.0,
        converged=True,
        diverged_lambda=False,
        theta_initial=np.zeros(2),
        lam_initial=np.ones(5),
        stage1=(StageCounts(), StageCounts()),
        stage3=StageCounts(newton_iters=1, grad_evals=1, cost_evals=1),
        flop_estimate=0.0,
    )

    def evaluations(res):
        # the estimate less its fixed stage-2 charge, an exact difference
        # of integer-valued floats
        total = pipeline_flop_estimate(5, 2, res.stage1, res.stage3, res.target)
        return total - noise_init_flops(5)

    one = evaluations(base)
    base.stage3 = StageCounts(newton_iters=7, grad_evals=7, cost_evals=7)
    assert evaluations(base) == 7 * one
    assert one == eval_flops(5, 2, "S", derivatives=True)
    # extra backtracking evaluations are charged the plain polynomial
    base.stage3 = StageCounts(newton_iters=1, grad_evals=1, cost_evals=4)
    assert evaluations(base) == one + 3 * eval_flops(5, 2, "S")


def test_pipeline_estimate_tracks_an_actual_run():
    geom = ArrayGeometry.ula(11)
    theta = np.array([-0.2513, 0.1571, 1.005])
    model = StochasticModel(np.diag([1.0, 0.64, 0.25]))
    lam = scale_for_snr(geom, theta, model, linear_trend(11), 20.0)
    z = synthesize(geom, theta, model, lam, 100, stream_rng(31))
    res = apn_estimate(z, geom, 3, target="sml")
    again = pipeline_flop_estimate(
        11, 3, res.stage1, res.stage3, "sml", n_snapshots=100
    )
    assert res.flop_estimate == again
    # the self-reported estimate exceeds the evaluation-only one by the
    # fixed covariance charge and the stage-2 least-squares noise fit:
    # R_z B and diag(B R_z B) 8 (11^3 + 11^2), |B|^2 and its product
    # 5 * 11^2, elementwise work 4 * 11, pivoted QR floor(4 * 11^3 / 3)
    assert noise_init_flops(11) == 11616 + 605 + 44 + 1774
    fixed = covariance_flops(11, 100) + noise_init_flops(11)
    # the evaluation-only figure from the counts: each stage-1 insertion's
    # candidates and uniform-noise evaluations, then stage 3's
    evaluations = sum(
        line_search_flops(11, j, st.candidates)
        + st.grad_evals * eval_flops(11, j + 1, "D", derivatives=True)
        + (st.cost_evals - st.grad_evals) * eval_flops(11, j + 1, "D")
        for j, st in enumerate(res.stage1)
    )
    evaluations += res.stage3.grad_evals * eval_flops(11, 3, "S", derivatives=True)
    evaluations += (res.stage3.cost_evals - res.stage3.grad_evals) * eval_flops(11, 3, "S")
    assert res.flop_estimate == evaluations + fixed
