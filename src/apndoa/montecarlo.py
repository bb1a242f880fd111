"""Monte Carlo sweep engine and result serialization.

A sweep takes a scenario (geometry, true angles, source model, noise
trend), synthesizes one snapshot batch per (SNR, trial) cell from its
own deterministic random stream, runs every requested estimator on the
same batch, and pools the angle errors per (SNR, estimator).  Results
are written as a fixed-column CSV (or JSONL) whose bytes depend only on
the scenario and seed, never on evaluation order or thread count.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .apn import TARGETS, estimate_lanes
from .arrays import (
    ArrayGeometry,
    DeterministicModel,
    StochasticModel,
    linear_trend,
    random_unitary,
    scale_for_snr,
    stream_rng,
    synthesize,
)
from .flops import CMULADD
from .music import music_estimate
from .newton import NewtonOptions
from .snapshots import _opened
from .workspace import sample_covariance

__all__ = [
    "ESTIMATORS",
    "CSV_COLUMNS",
    "ScenarioConfig",
    "TrialRecord",
    "AggregateRecord",
    "MonteCarloResult",
    "match_angles",
    "aggregate",
    "run_monte_carlo",
    "benchmark_spec",
    "benchmark_scenario",
    "scenario_from_dict",
    "load_scenario",
    "rows_from_result",
    "write_csv",
    "read_csv",
    "write_jsonl",
    "read_jsonl",
]

ESTIMATORS = TARGETS + ("music",)

# most cells estimated at once as lanes of one group: a group holds about
# 0.13 MB of workspaces per lane while its estimators run (a 1500-cell
# sweep of the benchmark scenario peaked at 258 MB in one group, 101 MB in
# groups of 256, 69 MB one cell at a time), and past a few hundred lanes a
# larger group is no faster per lane (4.1 s in one group, 3.7 s in 256s)
MAX_LANES = 256

# stream tags for the once-per-scenario draws; trial streams use
# three-part keys so these two-part keys can never collide with them
_SIGNAL_STREAM = 1
_UNITARY_STREAM = 2


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one Monte Carlo sweep.

    ``noise_trend`` is the unscaled per-sensor profile; at every grid
    point it is rescaled so the array-average SNR (mean signal power
    over mean noise power across sensors) hits the target.  The master
    ``seed`` roots every random stream, so two configs differing only
    in ``estimators`` see bit-identical snapshot batches.
    """

    geometry: ArrayGeometry
    k: int
    theta_true: np.ndarray
    source_model: object
    noise_trend: np.ndarray
    n_snapshots: int = 100
    snr_db: tuple = (0.0, 10.0, 20.0, 30.0, 40.0)
    trials: int = 100
    estimators: tuple = ("music", "dmlo", "sml")
    seed: int = 0
    options: NewtonOptions | None = None

    def __post_init__(self):
        m = self.geometry.m
        theta = np.asarray(self.theta_true, dtype=float).ravel()
        if not (1 <= self.k < m):
            raise ValueError("need 1 <= k < M")
        if theta.size != self.k or not np.all(np.isfinite(theta)):
            raise ValueError("theta_true must hold k finite angles")
        trend = np.asarray(self.noise_trend, dtype=float).ravel()
        if trend.size != m or np.any(trend <= 0) or not np.all(np.isfinite(trend)):
            raise ValueError("noise_trend must hold M positive entries")
        if self.n_snapshots < 1:
            raise ValueError("need at least one snapshot")
        snr = tuple(float(s) for s in np.atleast_1d(self.snr_db))
        if not snr:
            raise ValueError("snr_db grid must be non-empty")
        if int(self.trials) < 1:
            raise ValueError("need at least one trial")
        names = tuple(str(e).strip().lower().replace("_", "-") for e in self.estimators)
        if not names:
            raise ValueError("at least one estimator is required")
        for name in names:
            if name not in ESTIMATORS:
                raise ValueError(f"unknown estimator {name!r}; choose from {ESTIMATORS}")
        if len(set(names)) != len(names):
            raise ValueError("estimators must be unique")
        if self.source_model.k != self.k:
            raise ValueError("source model order does not match k")
        if isinstance(self.source_model, DeterministicModel):
            if self.source_model.s.shape[1] != self.n_snapshots:
                raise ValueError("fixed waveforms must have n_snapshots columns")
        object.__setattr__(self, "theta_true", theta)
        object.__setattr__(self, "noise_trend", trend)
        object.__setattr__(self, "snr_db", snr)
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "n_snapshots", int(self.n_snapshots))
        object.__setattr__(self, "estimators", names)
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class TrialRecord:
    """One estimator's outcome on one synthesized batch.

    ``theta_hat`` and ``theta_true`` are both sorted ascending, the
    pairing of least total squared error (see :func:`match_angles`), so
    ``sq_err[i]`` pairs ``theta_hat[i]`` with ``theta_true[i]``.
    ``note`` is the run's termination note (empty for a run that
    converged, "line search found no ascent step" for a stall, and so
    on).  A failed run (a linear-algebra or value
    error out of the estimator) keeps NaN estimates and the error text
    in ``note``; such failures never abort a sweep or another lane.
    """

    snr_db: float
    trial: int
    estimator: str
    theta_true: tuple
    theta_hat: tuple
    lambda_hat: tuple | None
    sq_err: tuple
    iters_stage1: int
    iters_stage3: int
    flop_estimate: float
    converged: bool
    diverged_lambda: bool
    failed: bool = False
    note: str = ""


@dataclass(frozen=True)
class AggregateRecord:
    """Pooled statistics for one (SNR, estimator) cell.

    ``rmse`` is the root of the mean squared angle error pooled over all
    angles and non-failed trials, in radians.  Iteration and flop means
    skip failed trials; the flag rates do not (a failure counts as not
    converged).
    """

    snr_db: float
    estimator: str
    n_trials: int
    n_failed: int
    rmse: float
    mean_sq_err: float
    mean_iters_stage1: float
    mean_iters_stage3: float
    mean_flops: float
    converged_rate: float
    diverged_rate: float


@dataclass(frozen=True)
class MonteCarloResult:
    records: tuple
    aggregates: tuple


def match_angles(theta_true, theta_hat):
    """Pair estimates with true angles at the least total squared error.

    The pairing is both vectors sorted ascending: by the rearrangement
    inequality, pairing the i-th smallest estimate with the i-th
    smallest true angle minimizes the sum of squared errors over all K!
    assignments, at every K.

    Returns
    -------
    matched : ndarray
        ``theta_hat`` sorted ascending.
    sq_err : ndarray
        Entrywise squared errors against the sorted true angles.
    """
    t = np.sort(np.asarray(theta_true, dtype=float).ravel())
    matched = np.sort(np.asarray(theta_hat, dtype=float).ravel())
    if matched.size != t.size:
        raise ValueError("angle vectors must have equal length")
    return matched, (matched - t) ** 2


def _record(config: ScenarioConfig, estimator: str, snr_db: float, trial: int, res) -> TrialRecord:
    """The record of one estimator's result on one batch: an
    :class:`~apndoa.apn.EstimationResult`, a MUSIC result, or the
    exception that stopped the run."""
    t_true = np.sort(config.theta_true)
    if isinstance(res, Exception):
        nan = (math.nan,) * config.k
        return TrialRecord(
            snr_db=float(snr_db),
            trial=trial,
            estimator=estimator,
            theta_true=tuple(float(x) for x in t_true),
            theta_hat=nan,
            lambda_hat=None,
            sq_err=nan,
            iters_stage1=0,
            iters_stage3=0,
            flop_estimate=0.0,
            converged=False,
            diverged_lambda=False,
            failed=True,
            note=f"{type(res).__name__}: {res}",
        )
    if estimator == "music":
        lam_hat = None
        it1 = it3 = 0
        flops = 0.0  # subspace search is outside the flop model
        converged = bool(res.found_all)
        diverged = False
        note = "" if res.found_all else "fewer than K separated peaks"
    else:
        lam_hat = res.lam
        it1, it3 = res.iters_stage1, res.iters_stage3
        flops = res.flop_estimate
        converged, diverged = res.converged, res.diverged_lambda
        note = res.note
    matched, sq = match_angles(t_true, res.theta)
    return TrialRecord(
        snr_db=float(snr_db),
        trial=trial,
        estimator=estimator,
        theta_true=tuple(float(x) for x in t_true),
        theta_hat=tuple(float(x) for x in matched),
        lambda_hat=None if lam_hat is None else tuple(float(x) for x in lam_hat),
        sq_err=tuple(float(x) for x in sq),
        iters_stage1=int(it1),
        iters_stage3=int(it3),
        flop_estimate=float(flops),
        converged=bool(converged),
        diverged_lambda=bool(diverged),
        note=note,
    )


def _run_group(config: ScenarioConfig, keys, lam) -> list:
    """The records of the (SNR index, trial) cells ``keys``, in key order
    and, per cell, in estimator order.

    Every cell's batch is drawn first; each APN estimator then runs on
    all of them at once, one lane per cell (see
    :func:`~apndoa.apn.estimate_lanes`).
    """
    covariances = []
    for si, t in keys:
        rng = stream_rng(config.seed, si, t)
        z = synthesize(config.geometry, config.theta_true, config.source_model, lam[si], config.n_snapshots, rng)
        covariances.append(sample_covariance(z))
    records = [[] for _ in keys]
    for est in config.estimators:
        if est == "music":
            results = []
            for rz in covariances:
                try:
                    results.append(music_estimate(rz, config.geometry, config.k))
                except (np.linalg.LinAlgError, ValueError) as exc:  # record the failure, keep sweeping
                    results.append(exc)
        else:
            try:
                results = estimate_lanes(covariances, config.geometry, config.k, target=est, options=config.options)
            except (np.linalg.LinAlgError, ValueError) as exc:
                results = [exc] * len(keys)
        for j, ((si, t), res) in enumerate(zip(keys, results)):
            records[j].append(_record(config, est, config.snr_db[si], t, res))
    return [r for cell in records for r in cell]


def aggregate(records) -> tuple:
    """Pool records per (SNR, estimator) into :class:`AggregateRecord` rows.

    Accumulation uses exact summation over a canonically sorted copy, so
    the output is invariant to the ordering of ``records``.  That is
    what keeps sweep files byte-identical across thread counts.
    """
    groups: dict = {}
    for r in records:
        groups.setdefault((r.snr_db, r.estimator), []).append(r)
    out = []
    for snr, est in sorted(groups):
        rows = sorted(groups[(snr, est)], key=lambda r: r.trial)
        ok = [r for r in rows if not r.failed]
        sq = [e for r in ok for e in r.sq_err]
        mean_sq = math.fsum(sq) / len(sq) if sq else math.nan
        n_ok = len(ok)
        out.append(
            AggregateRecord(
                snr_db=snr,
                estimator=est,
                n_trials=len(rows),
                n_failed=len(rows) - n_ok,
                rmse=math.sqrt(mean_sq) if sq else math.nan,
                mean_sq_err=mean_sq,
                mean_iters_stage1=math.fsum(r.iters_stage1 for r in ok) / n_ok if ok else math.nan,
                mean_iters_stage3=math.fsum(r.iters_stage3 for r in ok) / n_ok if ok else math.nan,
                mean_flops=math.fsum(r.flop_estimate for r in ok) / n_ok if ok else math.nan,
                converged_rate=sum(r.converged for r in rows) / len(rows),
                diverged_rate=sum(r.diverged_lambda for r in rows) / len(rows),
            )
        )
    return tuple(out)


def run_monte_carlo(config: ScenarioConfig, threads: int | None = None) -> MonteCarloResult:
    """Run the full sweep and return per-trial records plus aggregates.

    Each (SNR index, trial index) cell owns the random stream
    ``stream_rng(seed, snr_index, trial)``, synthesizes one batch, and
    feeds it to every estimator in turn.  The cells are split, in key
    order, into one contiguous group per worker, of at most
    :data:`MAX_LANES` cells (more make more groups).  A group draws all its
    batches, then runs each APN estimator on them at once as lanes, on
    (T, M, K) steering and (T, M, M) covariance stacks over the group's
    T cells (:func:`~apndoa.apn.estimate_lanes`); every lane's result is,
    bit for bit, that of ``apn_estimate`` on its batch alone, so the
    grouping never shows in the output.  Stage 1 of the APN pipeline
    (insertion and uniform-noise Newton) depends only on the batch, so
    it runs once per cell, in the first APN estimator that succeeds, and
    the later ones take it from the memo of the cell's
    :class:`~apndoa.workspace.SampleCovariance`; each record's
    ``iters_stage1`` and ``flop_estimate`` stay that estimator's
    standalone figures.  With ``threads`` > 1 the groups run
    on a thread pool; records are assembled in cell order and aggregated
    order-insensitively, so results do not depend on the worker count.
    Estimator failures (``LinAlgError`` and ``ValueError``) are recorded,
    with the note the run would raise, in their :class:`TrialRecord` and
    never abort the sweep or another lane; any other exception is a bug
    and propagates.
    """
    workers = 1 if threads is None else int(threads)
    if workers < 1:
        raise ValueError("threads must be at least 1")
    lam = [
        scale_for_snr(config.geometry, config.theta_true, config.source_model, config.noise_trend, snr)
        for snr in config.snr_db
    ]
    keys = [(si, t) for si in range(len(config.snr_db)) for t in range(config.trials)]
    size = min(-(-len(keys) // workers), MAX_LANES)
    groups = [keys[i:i + size] for i in range(0, len(keys), size)]

    def run(group):
        return _run_group(config, group, lam)

    if len(groups) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(run, groups))
    else:
        chunks = [run(group) for group in groups]
    records = tuple(r for chunk in chunks for r in chunk)
    return MonteCarloResult(records=records, aggregates=aggregate(records))


# -- scenario construction -------------------------------------------------

def benchmark_spec(correlated: bool = False) -> dict:
    """The bundled 11-sensor benchmark scenario, as a
    :func:`scenario_from_dict` spec.

    Half-wavelength uniform linear array, three sources at
    [-0.2513, 0.1571, 1.005] rad, noise profile rising linearly to a
    10x ratio across the array.  The uncorrelated variant uses source
    powers diag([1, 0.64, 0.25]) with a single fixed waveform
    realization shared by all trials; the correlated variant redraws
    Gaussian sources each trial with covariance U diag(v) U^H, v =
    [2.337, 6.604e-2, 4.642e-4] and one fixed Haar-unitary realization
    U.  The other keys take :func:`scenario_from_dict`'s defaults.
    """
    if correlated:
        source = {"eigenvalues": [2.337, 0.06604, 0.0004642]}
    else:
        source = {"powers": [1.0, 0.64, 0.25], "fixed": True}
    return {
        "geometry": {"ula": 11},
        "k": 3,
        "theta_true": [-0.2513, 0.1571, 1.005],
        "source": source,
        "noise_trend": {"ratio": 10.0},
    }


def benchmark_scenario(correlated: bool = False, **overrides) -> ScenarioConfig:
    """The bundled benchmark scenario (see :func:`benchmark_spec`) with
    the keyword ``overrides`` applied as spec keys (``trials``,
    ``snr_db``, ``estimators``, ``seed``, ``options`` as a dict of
    :class:`~apndoa.newton.NewtonOptions` fields, ...); an unknown key
    raises ``ValueError``.
    """
    return scenario_from_dict({**benchmark_spec(correlated), **overrides})


def scenario_from_dict(spec: dict) -> ScenarioConfig:
    """Build a config from a plain JSON-style dictionary.

    Schema::

        {
          "geometry":    {"ula": 11, "spacing": 1.0} | {"positions": [..]},
          "k":           3,
          "theta_true":  [-0.2513, 0.1571, 1.005],
          "source":      {"powers": [..], "fixed": false}
                         | {"eigenvalues": [..]},
          "noise_trend": {"ratio": 10.0} | {"values": [..]},
          "n_snapshots": 100,
          "snr_db":      [0, 10, 20, 30, 40],
          "trials":      100,
          "estimators":  ["music", "dmlo", "sml"],
          "seed":        0,
          "options":     {"max_iters": 50, ...}
        }

    ``source.fixed`` freezes one waveform realization across trials;
    ``source.eigenvalues`` mixes the given spectrum through one Haar
    unitary.  Both draws are rooted in the master seed.  Unknown keys
    raise, to catch typos early.
    """
    spec = dict(spec)
    known = {
        "geometry", "k", "theta_true", "source", "noise_trend",
        "n_snapshots", "snr_db", "trials", "estimators", "seed", "options",
    }
    unknown = set(spec) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key in ("geometry", "k", "theta_true", "source"):
        if key not in spec:
            raise ValueError(f"config is missing {key!r}")

    geo = spec["geometry"]
    if isinstance(geo, dict) and "positions" in geo:
        geometry = ArrayGeometry(geo["positions"])
    elif isinstance(geo, dict) and "ula" in geo:
        geometry = ArrayGeometry.ula(int(geo["ula"]), float(geo.get("spacing", 1.0)))
    else:
        raise ValueError("geometry needs 'ula' or 'positions'")

    k = int(spec["k"])
    seed = int(spec.get("seed", 0))
    n = int(spec.get("n_snapshots", 100))

    src = spec["source"]
    if "powers" in src:
        powers = np.asarray(src["powers"], dtype=float)
        if powers.size != k:
            raise ValueError("source powers must have k entries")
        model = StochasticModel(np.diag(powers))
        if src.get("fixed", False):
            model = DeterministicModel(model.draw(n, stream_rng(seed, _SIGNAL_STREAM)))
    elif "eigenvalues" in src:
        v = np.asarray(src["eigenvalues"], dtype=float)
        if v.size != k:
            raise ValueError("source eigenvalues must have k entries")
        u = random_unitary(k, stream_rng(seed, _UNITARY_STREAM))
        model = StochasticModel((u * v[None, :]) @ u.conj().T)
    else:
        raise ValueError("source needs 'powers' or 'eigenvalues'")

    trend_spec = spec.get("noise_trend", {"ratio": 10.0})
    if "values" in trend_spec:
        trend = np.asarray(trend_spec["values"], dtype=float)
    else:
        trend = linear_trend(geometry.m, float(trend_spec.get("ratio", 10.0)))

    options = None
    if spec.get("options"):
        options = replace(NewtonOptions(), **spec["options"])

    # ScenarioConfig normalizes these, a single SNR included
    kwargs = {key: spec[key] for key in ("snr_db", "trials", "estimators") if key in spec}
    return ScenarioConfig(
        geometry=geometry,
        k=k,
        theta_true=np.asarray(spec["theta_true"], dtype=float),
        source_model=model,
        noise_trend=trend,
        n_snapshots=n,
        seed=seed,
        options=options,
        **kwargs,
    )


def load_scenario(path) -> ScenarioConfig:
    """Read a JSON config file, see :func:`scenario_from_dict`."""
    with open(path, "r") as fh:
        return scenario_from_dict(json.load(fh))


# -- serialization ---------------------------------------------------------

CSV_COLUMNS = (
    "snr_db",
    "estimator",
    "trial",
    "k_index",
    "theta_true",
    "theta_hat",
    "sq_err",
    "iters_stage1",
    "iters_stage3",
    "flops_est",
    "converged",
    "diverged_lambda",
    "crb",
)

_CSV_PREAMBLE = (
    "# apndoa sweep results, format 1",
    f"# flop convention: 1 complex multiply-add = {CMULADD} real flops",
    "# errors: squared angle error in radians, pooled RMSE = sqrt of the "
    "aggregate sq_err (mean over angles and trials)",
    "# aggregate rows: trial = -1, k_index = -1; iteration and flop columns "
    "hold means, flag columns hold rates",
    "# crb: reserved column, intentionally empty",
)


def rows_from_result(result: MonteCarloResult) -> list:
    """Flatten a result into fixed-layout rows, one per angle.

    Trial rows carry per-angle matched estimates; aggregate rows repeat
    the pooled statistics with ``trial = -1``.  The reserved ``crb``
    column stays empty.
    """
    rows = []
    for r in result.records:
        for i in range(len(r.sq_err)):
            rows.append(
                (
                    r.snr_db, r.estimator, r.trial, i,
                    r.theta_true[i], r.theta_hat[i], r.sq_err[i],
                    float(r.iters_stage1), float(r.iters_stage3),
                    r.flop_estimate, float(r.converged),
                    float(r.diverged_lambda), None,
                )
            )
    for a in result.aggregates:
        rows.append(
            (
                a.snr_db, a.estimator, -1, -1, None, None, a.mean_sq_err,
                a.mean_iters_stage1, a.mean_iters_stage3, a.mean_flops,
                a.converged_rate, a.diverged_rate, None,
            )
        )
    return rows


def _cell(x) -> str:
    # shortest round-trip rendering; integral floats drop the ".0" and
    # re-parse identically, which makes re-emission byte-stable
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    v = float(x)
    if v.is_integer() and abs(v) < 2**53:
        return str(int(v))
    return repr(v)


def write_csv(result, f) -> None:
    """Write rows in the fixed column layout, byte-deterministically.

    ``result`` may be a :class:`MonteCarloResult` or an iterable of row
    tuples as returned by :func:`read_csv`.  The preamble records the
    flop convention and the pooled-radian RMSE choice; no volatile
    content (timestamps, thread counts) is ever written.
    """
    rows = rows_from_result(result) if isinstance(result, MonteCarloResult) else result
    with _opened(f, "w") as fh:
        for line in _CSV_PREAMBLE:
            fh.write(line + "\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_cell(x) for x in row) + "\n")


def read_csv(f) -> list:
    """Parse a sweep file back into typed row tuples.

    The inverse of :func:`write_csv` up to byte identity: re-emitting
    the parsed rows reproduces the file exactly.
    """
    with _opened(f, "r") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines or tuple(lines[0].split(",")) != CSV_COLUMNS:
        raise ValueError("unexpected sweep column layout")

    def num(s):
        return None if s == "" else float(s)

    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ValueError(f"row has {len(parts)} cells, expected {len(CSV_COLUMNS)}")
        rows.append(
            (
                float(parts[0]), parts[1], int(parts[2]), int(parts[3]),
                num(parts[4]), num(parts[5]), num(parts[6]),
                float(parts[7]), float(parts[8]), float(parts[9]),
                float(parts[10]), float(parts[11]), num(parts[12]),
            )
        )
    return rows


def write_jsonl(result: MonteCarloResult, f) -> None:
    """One JSON object per line, trial records first, then aggregates.

    Unlike the CSV this carries every record field (noise estimates,
    failure notes), so it round-trips losslessly through
    :func:`read_jsonl`.  NaN is written with the common JSON extension
    literal.
    """
    with _opened(f, "w") as fh:
        for r in result.records:
            obj = {"type": "trial", **asdict(r)}
            fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
        for a in result.aggregates:
            obj = {"type": "aggregate", **asdict(a)}
            fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def read_jsonl(f) -> MonteCarloResult:
    """Rebuild a :class:`MonteCarloResult` from a JSONL file."""
    records, aggregates = [], []
    with _opened(f, "r") as fh:
        for ln in fh:
            if not ln.strip():
                continue
            obj = json.loads(ln)
            kind = obj.pop("type")
            if kind == "trial":
                for key in ("theta_true", "theta_hat", "sq_err", "lambda_hat"):
                    if obj[key] is not None:
                        obj[key] = tuple(obj[key])
                records.append(TrialRecord(**obj))
            elif kind == "aggregate":
                aggregates.append(AggregateRecord(**obj))
            else:
                raise ValueError(f"unknown record type {kind!r}")
    return MonteCarloResult(records=tuple(records), aggregates=tuple(aggregates))
