"""Maximum-likelihood DOA estimation under unknown per-sensor noise powers."""

from .arrays import (
    ArrayGeometry,
    DeterministicModel,
    StochasticModel,
    SteeringSet,
    linear_trend,
    random_unitary,
    scale_for_snr,
    steering,
    steering_set,
    stream_rng,
    synthesize,
)
from .workspace import (
    IndefiniteCovarianceError,
    RankDeficiencyError,
    SampleCovariance,
    WhitenedWorkspace,
    build_workspace,
    concentrated_rs,
    cost_dml,
    cost_dml_uniform,
    cost_lc,
    cost_sml,
    sample_covariance,
)
from .derivatives import (
    GradientBlocks,
    HessianBlocks,
    block_rel_err,
    fd_check,
    fd_gradient,
    fd_hessian,
    grad_dml_uniform,
    grad_hess,
    gradient,
    gradient_blocks,
    hess_dml_uniform,
    hessian,
    hessian_blocks,
)
from .newton import (
    DIVERGED_NOTE,
    NewtonOptions,
    NewtonOutcome,
    modified_cholesky,
    newton_lanes,
    newton_maximize,
)
from .apn import (
    TARGETS,
    EstimationResult,
    StageCounts,
    ap_add_angle,
    apn_estimate,
    default_exclusion,
    estimate_lanes,
    init_noise,
)
from .music import MusicOptions, MusicResult, music_estimate, music_spectrum
from .flops import (
    CMULADD,
    covariance_flops,
    eval_flops,
    flop_polynomials,
    flop_table,
    line_search_flops,
    noise_init_flops,
    pipeline_flop_estimate,
)
from .montecarlo import (
    ESTIMATORS,
    AggregateRecord,
    MonteCarloResult,
    ScenarioConfig,
    TrialRecord,
    aggregate,
    benchmark_scenario,
    benchmark_spec,
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
from .snapshots import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    read_snapshots,
    read_snapshots_csv,
    write_snapshots,
    write_snapshots_csv,
)
from .verify import VerifyReport, random_instance, run_verification

__version__ = "0.1.0"
