"""Command-line front end.

Subcommands: ``estimate`` (angles and noise from a snapshot file),
``simulate`` (synthesize one trial, optionally dump it), ``sweep``
(Monte Carlo from a JSON config to CSV or JSONL), ``flops`` (the four
per-evaluation polynomial values), ``verify`` (finite-difference and
identity suites).  Worker count for sweeps comes from ``--threads``,
falling back to the APN_THREADS environment variable, then 1.

``simulate`` reuses the sweep's random stream when the requested SNR
sits on the config grid, so a dumped batch is bit-identical to the one
the corresponding sweep cell sees; off-grid SNRs get their own stream
keyed by the millidecibel value.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .apn import apn_estimate
from .arrays import scale_for_snr, stream_rng, synthesize
from .flops import flop_polynomials
from .montecarlo import (
    ESTIMATORS,
    benchmark_spec,
    run_monte_carlo,
    scenario_from_dict,
    write_csv,
    write_jsonl,
)
from .music import music_estimate
from .snapshots import (
    SNAPSHOT_MAGIC,
    read_snapshots,
    read_snapshots_csv,
    write_snapshots,
    write_snapshots_csv,
)
from .verify import run_verification
from .workspace import sample_covariance

__all__ = ["main", "build_parser"]


def _default_threads() -> int:
    env = os.environ.get("APN_THREADS", "").strip()
    if not env:
        return 1
    try:
        value = int(env)
    except ValueError as exc:
        raise ValueError(f"APN_THREADS must be an integer, got {env!r}") from exc
    if value < 1:
        raise ValueError("APN_THREADS must be at least 1")
    return value


def _fmt_vec(v, prec: int = 6) -> str:
    return " ".join(f"{x:.{prec}f}" for x in np.asarray(v, dtype=float))


def _load_snapshots(path: str, forced: str | None):
    if forced == "csv":
        return read_snapshots_csv(path)
    if forced == "bin":
        return read_snapshots(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(SNAPSHOT_MAGIC))
    if magic == SNAPSHOT_MAGIC:
        return read_snapshots(path)
    try:
        return read_snapshots_csv(path)
    except UnicodeDecodeError as exc:
        # a container with damaged magic bytes falls through to the text reader
        raise ValueError(
            f"{path}: not a snapshot container (bad magic bytes) and not CSV text"
        ) from exc


def _geometry_from_args(args, m: int):
    from .arrays import ArrayGeometry

    if args.positions:
        return ArrayGeometry([float(p) for p in args.positions.split(",")])
    return ArrayGeometry.ula(m, args.spacing)


def _cmd_estimate(args) -> int:
    z = _load_snapshots(args.snapshots, args.input_format)
    m, n = z.shape
    geometry = _geometry_from_args(args, m)
    if geometry.m != m:
        raise ValueError(f"geometry has {geometry.m} sensors but the file holds {m} rows")
    rz = sample_covariance(z)
    print(f"sensors     {m}")
    print(f"snapshots   {n}")
    print(f"target      {args.target}")
    if args.target == "music":
        res = music_estimate(rz, geometry, args.k)
        print(f"theta_hat   {_fmt_vec(res.theta)}")
        print(f"found_all   {'yes' if res.found_all else 'no'}")
        return 0
    res = apn_estimate(rz, geometry, args.k, target=args.target)
    print(f"theta_hat   {_fmt_vec(res.theta)}")
    if res.lam is not None:
        print(f"lambda_hat  {_fmt_vec(res.lam, 4)}")
    print(f"cost        {res.cost:.6f}")
    print(f"iterations  stage1 {res.iters_stage1}  stage3 {res.iters_stage3}")
    print(f"converged   {'yes' if res.converged else 'no'}")
    if res.diverged_lambda:
        print("warning     noise iteration diverged (degenerate fit)")
    if res.note:
        print(f"note        {res.note}")
    print(f"flops_est   {res.flop_estimate:.4g}")
    return 0


def _scenario_from_args(args):
    if args.config:
        with open(args.config, "r") as fh:
            spec = json.load(fh)
    else:
        spec = benchmark_spec(correlated=args.correlated)
    if getattr(args, "seed", None) is not None:
        spec["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        spec["trials"] = args.trials
    if getattr(args, "snr", None):
        spec["snr_db"] = [float(s) for s in args.snr.split(",")]
    if getattr(args, "estimators", None):
        spec["estimators"] = [e for e in args.estimators.split(",") if e]
    return scenario_from_dict(spec)


def _cmd_simulate(args) -> int:
    config = _scenario_from_args(args)
    snr = float(args.snr_value)
    lam = scale_for_snr(config.geometry, config.theta_true, config.source_model, config.noise_trend, snr)
    if snr in config.snr_db:
        rng = stream_rng(config.seed, config.snr_db.index(snr), args.trial)
    else:
        rng = stream_rng(config.seed, 1_000_000 + round(snr * 1000), args.trial)
    z = synthesize(config.geometry, config.theta_true, config.source_model, lam, config.n_snapshots, rng)
    print(f"sensors     {config.geometry.m}")
    print(f"snapshots   {config.n_snapshots}")
    print(f"snr_db      {snr:g}")
    print(f"trial       {args.trial}")
    print(f"theta_true  {_fmt_vec(np.sort(config.theta_true))}")
    print(f"lambda_true {_fmt_vec(lam, 4)}")
    if args.out:
        if args.out.endswith(".csv"):
            write_snapshots_csv(z, args.out)
        else:
            write_snapshots(z, args.out)
        print(f"wrote       {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    config = _scenario_from_args(args)
    threads = args.threads if args.threads is not None else _default_threads()
    result = run_monte_carlo(config, threads=threads)
    if args.format == "jsonl":
        write_jsonl(result, args.out)
    else:
        write_csv(result, args.out)
    print(f"wrote {args.out} ({len(result.records)} trial records)")
    header = f"{'snr_db':>7} {'estimator':<9} {'rmse':>10} {'iters1':>7} {'iters3':>7} {'mflops':>8} {'conv':>5} {'div':>5}"
    print(header)
    for a in result.aggregates:
        print(
            f"{a.snr_db:>7g} {a.estimator:<9} {a.rmse:>10.4g} "
            f"{a.mean_iters_stage1:>7.2f} {a.mean_iters_stage3:>7.2f} "
            f"{a.mean_flops / 1e6:>8.3f} {a.converged_rate:>5.2f} {a.diverged_rate:>5.2f}"
        )
    return 0


def _cmd_flops(args) -> int:
    cost_d, cost_s, cost_dd, cost_sd = flop_polynomials(args.m, args.k)
    print(f"cost_D             {cost_d}")
    print(f"cost_S             {cost_s}")
    print(f"cost_D_with_derivs {cost_dd}")
    print(f"cost_S_with_derivs {cost_sd}")
    return 0


def _cmd_verify(args) -> int:
    report = run_verification(
        instances=args.instances,
        seed=args.seed,
        grad_rtol=args.grad_tol,
        hess_rtol=args.hess_tol,
    )
    print(f"instances   {report.instances}")
    print(f"checks      {report.checks}")
    print(f"failures    {len(report.failures)}")
    for line in report.failures:
        print(f"  {line}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apndoa",
        description="Direction finding with per-sensor noise powers: "
        "alternate-projection Newton estimators, MUSIC baseline, Monte Carlo harness.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("estimate", help="estimate angles and noise from a snapshot file")
    pe.add_argument("snapshots", help="binary snapshot container or interleaved re/im CSV")
    pe.add_argument("--k", type=int, required=True, help="number of sources")
    pe.add_argument("--target", default="sml", choices=ESTIMATORS)
    pe.add_argument("--spacing", type=float, default=1.0, help="ULA spacing in half-wavelengths")
    pe.add_argument("--positions", help="comma-separated sensor positions (overrides --spacing)")
    pe.add_argument(
        "--input-format",
        choices=("bin", "csv"),
        help="force the snapshot format instead of sniffing the magic bytes",
    )
    pe.set_defaults(func=_cmd_estimate)

    ps = sub.add_parser("simulate", help="synthesize one trial, optionally dump it")
    ps.add_argument("--config", help="scenario JSON (default: bundled benchmark)")
    ps.add_argument("--correlated", action="store_true", help="bundled benchmark: correlated sources")
    ps.add_argument("--snr", dest="snr_value", type=float, default=20.0, help="SNR in dB")
    ps.add_argument("--trial", type=int, default=0, help="trial index within the stream")
    ps.add_argument("--seed", type=int, help="override the master seed")
    ps.add_argument("--out", help="write the batch here (.csv for text, else binary)")
    ps.set_defaults(func=_cmd_simulate)

    pw = sub.add_parser("sweep", help="Monte Carlo sweep from a config file")
    pw.add_argument("--config", help="scenario JSON (default: bundled benchmark)")
    pw.add_argument("--correlated", action="store_true", help="bundled benchmark: correlated sources")
    pw.add_argument("--out", default="results.csv", help="output path")
    pw.add_argument("--seed", type=int, help="override the master seed")
    pw.add_argument("--trials", type=int, help="override the trial count")
    pw.add_argument("--snr", help="comma-separated SNR grid override, dB")
    pw.add_argument("--estimators", help="comma-separated estimator override")
    pw.add_argument("--threads", type=int, help="worker threads (default: APN_THREADS or 1)")
    pw.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    pw.set_defaults(func=_cmd_sweep)

    pf = sub.add_parser("flops", help="per-evaluation flop polynomial values")
    pf.add_argument("--m", type=int, required=True)
    pf.add_argument("--k", type=int, required=True)
    pf.set_defaults(func=_cmd_flops)

    pv = sub.add_parser("verify", help="finite-difference and identity suites")
    pv.add_argument("--instances", type=int, default=50)
    pv.add_argument("--seed", type=int, default=7)
    pv.add_argument("--grad-tol", type=float, default=1e-5)
    pv.add_argument("--hess-tol", type=float, default=1e-4)
    pv.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"apndoa: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
