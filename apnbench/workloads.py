"""The three benchmark workloads, their timed rounds and their checks.

Every workload runs the bundled scenario (``benchmark_scenario()``:
11-sensor half-wavelength ULA, three uncorrelated sources with its one
fixed waveform realization, a 10x linear noise trend, N = 100) over its
0-40 dB grid, in whole rounds with one call in flight.  The seed draws
the noise of every batch:

* ``sweep``: a round is ``run_monte_carlo`` at one thread over the grid,
  one trial per SNR, with ``music, dmlo, sml, sml-red``, followed by
  ``write_csv`` to a file as ``apndoa sweep`` does it.  Round r roots its
  random streams in ``seed * 1_000_003 + r``.
* ``single-sml``: a round is one raw 11 x 100 snapshot matrix per SNR,
  made here in numpy, each passed to ``apn_estimate(z, target="sml")``.
* ``alt``: the same batches as ``single-sml``, but the covariance is
  formed beforehand as a ``SampleCovariance``; each batch gets
  ``sml-alt`` and then ``dml-alt``.

An op is one estimator on one batch.  Each op is checked against the
references in :mod:`reference`; an op that raises or breaks a check
counts as failed.  Checks on a whole run (the RMSE band, the divergence
share, the CSV) make ``correct`` false when they break.
"""

from __future__ import annotations

import dataclasses
import io
import math
import time
from pathlib import Path

import numpy as np

import reference as ref

ML_TARGETS = ("sml", "sml-red", "sml-alt")
SWEEP_ESTIMATORS = ("music", "dmlo", "sml", "sml-red")

# checks on every op; the margins measured over 20+ seeds are in README.md
COST_RTOL = 1e-9        # reported SML cost against the uncompressed likelihood
ML_FROM_DB = 10.0       # angle-error and MUSIC checks apply from this SNR up
Z_LIMIT = 8.0           # ML angle error, in per-angle CRB standard deviations
# checks on a run
RATIO_BAND = (0.75, 1.3)   # rmse_over_crb of the ML targets
DMLO_MIN_RATIO = 1.3       # dmlo RMSE over the CRB at 30 and 40 dB
DIVERGED_MIN = 0.95        # share of dml-alt runs reporting diverged_lambda

# rounds whose ops define rmse_over_crb and the run-level statistics, so
# those are computed on the same batches on every commit
QUALITY_ROUNDS = {"sweep": 60, "single-sml": 150, "alt": 40}


@dataclasses.dataclass
class Op:
    """One estimator on one batch, with what its checks need."""

    target: str
    rnd: int
    snr_index: int
    theta: np.ndarray | None = None
    lam: np.ndarray | None = None
    cost: float | None = None
    converged: bool = True
    diverged: bool = False
    error: str = ""
    problems: list = dataclasses.field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.error or self.problems)


class Recorder:
    """Wall and CPU time of the timed calls into the package."""

    def __init__(self):
        self.latencies: list = []    # seconds per estimate, one per sample
        self.wall = 0.0
        self.cpu = 0.0
        self.estimates = 0

    def call(self, n_estimates, fn, *args, **kwargs):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self.cpu += time.process_time() - c0
            self.wall += dt
            self.estimates += n_estimates
            self.latencies.append(dt / n_estimates)


class Scenario:
    """The bundled scenario as numbers, with its references per SNR."""

    def __init__(self, pkg):
        cfg = pkg.montecarlo.benchmark_scenario()
        self.config = cfg
        self.geometry = cfg.geometry
        self.positions = np.array(cfg.geometry.positions, dtype=float)
        self.theta = np.sort(np.array(cfg.theta_true, dtype=float))
        self.k = self.theta.size
        self.s = np.array(cfg.source_model.s)
        self.n = self.s.shape[1]
        self.snr_db = tuple(cfg.snr_db)
        self.rs = self.s @ self.s.conj().T / self.n
        trend = ref.linear_trend(self.positions.size, 10.0)
        self.lam = [ref.lam_for_snr(self.positions, self.theta, self.rs, trend, s) for s in self.snr_db]
        self._crb = None
        self.layout_problems = []
        if not np.array_equal(self.positions, np.arange(11.0)):
            self.layout_problems.append("scenario array is not the 11-sensor ULA")
        if self.k != 3 or self.n != 100 or self.snr_db != (0.0, 10.0, 20.0, 30.0, 40.0):
            self.layout_problems.append("scenario is not K = 3, N = 100 over 0-40 dB")
        if not np.allclose(cfg.noise_trend, trend, rtol=1e-14):
            self.layout_problems.append("scenario noise trend is not the 10x linear trend")

    @property
    def crb(self):
        """Per-angle CRB variances, one array per SNR."""
        if self._crb is None:
            self._crb = [ref.stochastic_crb(self.positions, self.theta, self.rs, lam, self.n) for lam in self.lam]
        return self._crb

    def batch(self, seed: int, rnd: int, snr_index: int):
        """The benchmark's own batch for (seed, round, SNR), and its covariance."""
        rng = np.random.default_rng(np.random.SeedSequence([seed, rnd, snr_index]))
        m = self.positions.size
        noise = (rng.standard_normal((m, self.n)) + 1j * rng.standard_normal((m, self.n))) / np.sqrt(2.0)
        z = ref.steer(self.positions, self.theta) @ self.s + noise / self.lam[snr_index][:, None]
        return z, ref.sample_cov(z)


class Workload:
    name = ""
    targets: tuple = ()

    def __init__(self, pkg, seed: int, out_dir: Path):
        self.pkg = pkg
        self.seed = seed
        self.out_dir = out_dir
        self.scen = Scenario(pkg)
        self.quality_rounds = QUALITY_ROUNDS[self.name]
        self.rz = {}          # (round, snr_index) -> reference covariance
        self.written = []     # sweep: (round, MonteCarloResult, CSV text) not yet checked

    def first_call(self) -> float:
        """The untimed first call; returns the seconds spent making inputs."""
        t0 = time.perf_counter()
        inputs = self.round_inputs(0)
        excluded = time.perf_counter() - t0
        self.run_round(0, inputs, Recorder(), first_only=True)
        self.rz.clear()
        self.written.clear()
        return excluded

    def estimate(self, rec, z, target):
        return rec.call(1, self.pkg.apn.apn_estimate, z, self.scen.geometry, self.scen.k, target=target)

    def run_round(self, rnd, inputs, rec, first_only=False):
        calls = [(si, z, t) for si, z in inputs for t in self.targets]
        ops = []
        for si, z, target in calls[:1] if first_only else calls:
            op = Op(target=target, rnd=rnd, snr_index=si)
            try:
                res = self.estimate(rec, z, target)
            except Exception as exc:  # an op that raises is a failed op
                op.error = f"{type(exc).__name__}: {exc}"
            else:
                op.theta, op.cost = np.array(res.theta), float(res.cost)
                op.converged, op.diverged = bool(res.converged), bool(res.diverged_lambda)
                op.lam = None if res.lam is None else np.array(res.lam)
            ops.append(op)
        return ops


class SingleSml(Workload):
    name = "single-sml"
    targets = ("sml",)

    def round_inputs(self, rnd):
        out = []
        for si in range(len(self.scen.snr_db)):
            z, rz = self.scen.batch(self.seed, rnd, si)
            self.rz[rnd, si] = rz
            out.append((si, z))
        return out


class Alternating(Workload):
    name = "alt"
    targets = ("sml-alt", "dml-alt")

    def round_inputs(self, rnd):
        out = []
        for si in range(len(self.scen.snr_db)):
            _, rz = self.scen.batch(self.seed, rnd, si)
            self.rz[rnd, si] = rz
            out.append((si, self.pkg.SampleCovariance(matrix=rz, n_snapshots=self.scen.n)))
        return out


class Sweep(Workload):
    name = "sweep"
    targets = SWEEP_ESTIMATORS

    def __init__(self, pkg, seed, out_dir):
        super().__init__(pkg, seed, out_dir)
        self.csv_path = out_dir / f"sweep-{seed}.csv"

    def root(self, rnd):
        return self.seed * 1_000_003 + rnd

    def config(self, rnd, trials=1):
        return dataclasses.replace(
            self.scen.config, trials=trials, estimators=SWEEP_ESTIMATORS, seed=self.root(rnd)
        )

    def round_inputs(self, rnd):
        return self.config(rnd)

    def run_round(self, rnd, cfg, rec, first_only=False):
        mc = self.pkg.montecarlo
        n_est = len(cfg.snr_db) * cfg.trials * len(cfg.estimators)

        def sweep_and_write():
            res = mc.run_monte_carlo(cfg, threads=1)
            mc.write_csv(res, self.csv_path)
            return res

        ops = []
        try:
            res = rec.call(n_est, sweep_and_write)
        except Exception as exc:  # the whole round's ops fail
            for si in range(len(cfg.snr_db)):
                for est in cfg.estimators:
                    ops.append(Op(target=est, rnd=rnd, snr_index=si, error=f"{type(exc).__name__}: {exc}"))
            return ops
        self.written.append((rnd, res, self.csv_path.read_text()))
        index = {s: i for i, s in enumerate(cfg.snr_db)}
        for r in res.records:
            op = Op(target=r.estimator, rnd=rnd, snr_index=index[r.snr_db])
            if r.failed:
                op.error = r.note
            else:
                op.theta = np.array(r.theta_hat)
                op.lam = None if r.lambda_hat is None else np.array(r.lambda_hat)
                op.converged, op.diverged = bool(r.converged), bool(r.diverged_lambda)
            ops.append(op)
        return ops

    def reference_cov(self, rnd, si):
        if (rnd, si) not in self.rz:
            z = ref.sweep_batch(self.scen.positions, self.scen.theta, self.scen.s, self.scen.lam[si], self.root(rnd), si, 0)
            self.rz[rnd, si] = ref.sample_cov(z)
        return self.rz[rnd, si]


WORKLOADS = {w.name: w for w in (Sweep, SingleSml, Alternating)}


# -- checks ---------------------------------------------------------------------


class Margins:
    """Worst value seen for each check, for the README's margin table."""

    def __init__(self):
        self.worst = {}

    def high(self, key, value):
        self.worst[key] = max(self.worst.get(key, -math.inf), float(value))

    def low(self, key, value):
        self.worst[key] = min(self.worst.get(key, math.inf), float(value))


def _rz_of(wl, op):
    if isinstance(wl, Sweep):
        return wl.reference_cov(op.rnd, op.snr_index)
    return wl.rz[op.rnd, op.snr_index]


def check_op(wl: Workload, op: Op, margins: Margins):
    """Append to ``op.problems`` every check the op breaks."""
    if op.error:
        return
    scen = wl.scen
    snr = scen.snr_db[op.snr_index]
    if op.theta is None or op.theta.shape != (scen.k,) or not np.all(np.isfinite(op.theta)):
        op.problems.append("angle estimate is not K finite numbers")
        return
    sq = ref.match(scen.theta, op.theta)
    if op.target in ML_TARGETS:
        rz = _rz_of(wl, op)
        like = ref.sml_likelihood(rz, scen.n, scen.positions, op.theta, op.lam)
        truth = ref.sml_likelihood(rz, scen.n, scen.positions, scen.theta, scen.lam[op.snr_index])
        if op.cost is not None:
            rel = abs(op.cost - like) / abs(like)
            margins.high("sml cost rel. diff", rel)
            if not rel <= COST_RTOL:
                op.problems.append(f"cost {op.cost!r} misses the likelihood {like!r} (rel {rel:.3g})")
        # an ML estimate, converged or not, is at least as likely as the truth
        margins.low(f"likelihood gain over truth, {op.target}", like - truth)
        if not like - truth >= 0.0:
            op.problems.append(f"likelihood at the estimate is {like - truth:.4g} below the truth")
        if snr >= ML_FROM_DB:
            z = float(np.sqrt(sq / scen.crb[op.snr_index]).max())
            margins.high(f"angle error / CRB sd at {snr:g} dB", z)
            if not z <= Z_LIMIT:
                op.problems.append(f"angle error is {z:.3g} CRB standard deviations at {snr:g} dB")
    elif op.target == "dmlo":
        rz = _rz_of(wl, op)
        gain = ref.uniform_cost(rz, scen.n, scen.positions, op.theta) - ref.uniform_cost(
            rz, scen.n, scen.positions, scen.theta
        )
        noise = scen.n * np.mean(scen.lam[op.snr_index] ** -2.0)
        margins.low("dmlo uniform-cost gain over truth / (N mean noise power)", gain / noise)
        if not gain >= 0.0:
            op.problems.append(f"uniform cost at the dmlo estimate is {gain:.4g} below the truth")
    elif op.target == "music" and snr >= ML_FROM_DB:
        if not op.converged:  # MUSIC reports found_all as converged
            op.problems.append(f"MUSIC found fewer than K peaks at {snr:g} dB")


def crb_ratio(wl: Workload, ops, targets, snrs) -> float:
    """RMSE in CRB units, sqrt(mean(err^2 / CRB)) over every angle of the
    non-failed ops of ``targets`` at the SNRs ``snrs``."""
    scen = wl.scen
    vals = [
        ref.match(scen.theta, op.theta) / scen.crb[op.snr_index]
        for op in ops
        if op.target in targets and not op.failed and scen.snr_db[op.snr_index] in snrs
    ]
    return float(np.sqrt(np.mean(np.concatenate(vals)))) if vals else math.nan


class Checker:
    """Checks each round's ops as the round ends, then the run as a whole.

    Only what the run-level checks need is kept (the quality set's
    angle estimates and a few counts), so the benchmark's memory does
    not grow with the number of rounds a fast program completes.
    """

    def __init__(self, wl: Workload):
        self.wl = wl
        self.margins = Margins()
        self.attempted = 0
        self.failed = []          # the first failed ops, for the log
        self.n_failed = 0
        self.quality = []         # ops of the quality rounds
        self.dml_alt = [0, 0]     # dml-alt runs reporting divergence, all dml-alt runs
        self.problems = list(wl.scen.layout_problems)

    def round(self, rnd, ops):
        wl = self.wl
        for op in ops:
            check_op(wl, op, self.margins)
            self.attempted += 1
            if op.failed:
                self.n_failed += 1
                if len(self.failed) < 10:
                    self.failed.append(op)
            if op.target == "dml-alt" and not op.failed:
                self.dml_alt[0] += op.diverged
                self.dml_alt[1] += 1
            if rnd < wl.quality_rounds:
                op.lam = None
                self.quality.append(op)
        if isinstance(wl, Sweep):
            for written in wl.written:
                self.problems += check_sweep_round(wl, *written)
            wl.written.clear()
        for key in [key for key in wl.rz if key[0] == rnd]:
            del wl.rz[key]

    def finish(self) -> float:
        """Run-level checks; returns rmse_over_crb."""
        wl, margins, problems = self.wl, self.margins, self.problems
        if len({op.rnd for op in self.quality}) < wl.quality_rounds:
            problems.append(f"run ended before its {wl.quality_rounds} quality rounds")
        high = tuple(s for s in wl.scen.snr_db if s >= ML_FROM_DB)
        ratio = crb_ratio(wl, self.quality, ML_TARGETS, high)
        margins.low("rmse_over_crb (low)", ratio)
        margins.high("rmse_over_crb (high)", ratio)
        if not RATIO_BAND[0] <= ratio <= RATIO_BAND[1]:
            problems.append(f"rmse_over_crb {ratio:.4g} is outside {RATIO_BAND}")
        if isinstance(wl, Alternating):
            share = self.dml_alt[0] / max(self.dml_alt[1], 1)
            margins.low("dml-alt diverged share", share)
            if not share >= DIVERGED_MIN:
                problems.append(f"dml-alt reports divergence in only {share:.3f} of runs")
        if isinstance(wl, Sweep):
            for snr in (30.0, 40.0):
                r = crb_ratio(wl, self.quality, ("dmlo",), (snr,))
                margins.low(f"dmlo rmse/crb at {snr:g} dB", r)
                if not r > DMLO_MIN_RATIO:
                    problems.append(f"dmlo RMSE is only {r:.3g}x the CRB at {snr:g} dB")
            problems += check_threads(wl)
        return ratio


def check_sweep_round(wl: Sweep, rnd, res, text) -> list:
    """Aggregates against the records, and the CSV against the records."""
    mc = wl.pkg.montecarlo
    problems = []
    groups = {}
    for r in res.records:
        if not r.failed:
            groups.setdefault((r.snr_db, r.estimator), []).append(ref.match(r.theta_true, r.theta_hat))
    for a in res.aggregates:
        sq = groups.get((a.snr_db, a.estimator))
        want = math.sqrt(math.fsum(np.concatenate(sq)) / (len(sq) * wl.scen.k)) if sq else math.nan
        if not math.isclose(a.rmse, want, rel_tol=1e-12, abs_tol=0.0):
            problems.append(f"round {rnd}: aggregate rmse {a.rmse!r} != recomputed {want!r}")
    again = io.StringIO()
    try:
        mc.write_csv(mc.read_csv(io.StringIO(text)), again)
        problems += _csv_matches(text, res, rnd)
    except (ValueError, KeyError, IndexError) as exc:
        return problems + [f"round {rnd}: the CSV does not parse: {exc}"]
    if again.getvalue() != text:
        problems.append(f"round {rnd}: the CSV does not re-emit byte for byte")
    return problems


def _csv_matches(text, res, rnd) -> list:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    cols = lines[0].split(",")
    rows = [dict(zip(cols, ln.split(","))) for ln in lines[1:]]
    trial_rows = [r for r in rows if int(r["trial"]) >= 0]
    want = [(float(r.snr_db), r.estimator, i, h) for r in res.records for i, h in enumerate(r.theta_hat)]
    got = [(float(r["snr_db"]), r["estimator"], int(r["k_index"]), float(r["theta_hat"] or "nan")) for r in trial_rows]
    same = len(want) == len(got) and all(
        w[:3] == g[:3] and (w[3] == g[3] or (math.isnan(w[3]) and math.isnan(g[3]))) for w, g in zip(want, got)
    )
    return [] if same else [f"round {rnd}: CSV trial rows do not match the records"]


def check_threads(wl: Sweep) -> list:
    """A short sweep writes the same CSV bytes at 1 and 2 threads."""
    mc = wl.pkg.montecarlo
    cfg = dataclasses.replace(wl.config(0, trials=2), snr_db=(0.0, 40.0))
    texts = []
    for threads in (1, 2):
        buf = io.StringIO()
        mc.write_csv(mc.run_monte_carlo(cfg, threads=threads), buf)
        texts.append(buf.getvalue())
    return [] if texts[0] == texts[1] else ["sweep CSV differs between 1 and 2 threads"]
