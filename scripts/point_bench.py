"""Per-call timing of the work done at one (theta, lambda) point.

    python3 scripts/point_bench.py [--out point.json] [--repeat 21] [--number 50]

The point is where joint ``sml`` converges on the benchmark's 30 dB
batch of seed 7, round 0 (the batch ``apnbench`` draws for its
``single-sml`` workload).  Each row times one call, or a fresh
``build_workspace`` followed by one call, since derivative factors are
formed per workspace: ``steering_set``, ``build_workspace``, build plus
each cost, build plus ``grad_hess`` for every (which, reduced, block),
and build plus the uniform-noise gradient and Hessian at lambda = 1.
A row reports the median and quartiles over ``--repeat`` groups of
``--number`` calls, in microseconds per call.  The JSON also records the
core count and the Python, numpy, scipy and BLAS versions.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bench_pairs import environment  # noqa: E402  (same directory)

import apndoa  # noqa: E402

SEED, ROUND, SNR_DB = 7, 0, 30.0


def benchmark_batch(config, seed: int, rnd: int, snr_db: float) -> np.ndarray:
    """The 11 x 100 snapshot matrix of the benchmark's ``single-sml``
    workload: fixed waveforms plus noise from ``SeedSequence([seed, rnd,
    snr_index])``."""
    snr_index = config.snr_db.index(snr_db)
    lam = apndoa.scale_for_snr(
        config.geometry, config.theta_true, config.source_model, config.noise_trend, snr_db
    )
    rng = np.random.default_rng(np.random.SeedSequence([seed, rnd, snr_index]))
    m, n = config.geometry.m, config.n_snapshots
    noise = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)
    phi = apndoa.steering_set(config.geometry, config.theta_true).phi
    return phi @ config.source_model.s + noise / lam[:, None]


def time_call(fn, repeat: int, number: int) -> dict:
    fn()
    per_call = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        per_call.append(1e6 * (time.perf_counter() - t0) / number)
    q1, med, q3 = statistics.quantiles(per_call, n=4, method="inclusive")
    return {"median_us": round(med, 2), "q1_us": round(q1, 2), "q3_us": round(q3, 2)}


def rows(geometry, rz, theta, lam):
    """(name, callable) for every timed row."""
    sset = apndoa.steering_set(geometry, theta)
    ones = np.ones(geometry.m)

    def build():
        return apndoa.build_workspace(rz, sset, lam)

    out = [
        ("steering_set", lambda: apndoa.steering_set(geometry, theta)),
        ("build_workspace", build),
        ("build+cost_dml_uniform",
         lambda: apndoa.cost_dml_uniform(apndoa.build_workspace(rz, sset, ones))),
        ("build+cost_dml", lambda: apndoa.cost_dml(build())),
        ("build+cost_sml", lambda: apndoa.cost_sml(build())),
    ]
    for which in ("D", "C", "S"):
        for reduced in (False, True):
            for block in (None, "theta", "lam"):
                name = f"build+grad_hess({which}, reduced={reduced}, block={block})"
                out.append((name, lambda w=which, r=reduced, b=block:
                            apndoa.grad_hess(build(), w, r, block=b)))

    def uniform():
        ws = apndoa.build_workspace(rz, sset, ones)
        return apndoa.grad_dml_uniform(ws), apndoa.hess_dml_uniform(ws)

    out.append(("build+uniform grad and hess", uniform))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, help="write the JSON here as well as to stdout")
    ap.add_argument("--repeat", type=int, default=21)
    ap.add_argument("--number", type=int, default=50)
    args = ap.parse_args(argv)

    config = apndoa.benchmark_scenario()
    z = benchmark_batch(config, SEED, ROUND, SNR_DB)
    res = apndoa.apn_estimate(z, config.geometry, 3, target="sml")
    rz = apndoa.sample_covariance(z)
    report = {
        "point": {"seed": SEED, "round": ROUND, "snr_db": SNR_DB, "target": "sml",
                  "converged": res.converged, "theta": res.theta.tolist(),
                  "lam": res.lam.tolist()},
        "repeat": args.repeat,
        "number": args.number,
        "environment": environment(),
        "rows": {},
    }
    for name, fn in rows(config.geometry, rz, res.theta, res.lam):
        report["rows"][name] = time_call(fn, args.repeat, args.number)
    text = json.dumps(report, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
