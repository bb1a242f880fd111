"""apndoa benchmark: run one workload from a seed and print its metrics.

    python3 apnbench/run.py --workload {sweep,single-sml,alt} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; ``apndoa`` is imported from ``src/``
with no install step.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The exit code is 0 only if every check held.  Progress
notes, check margins and the BLAS setting go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def import_package():
    """Import apndoa from this checkout's src/ and nowhere else."""
    if not (SRC / "apndoa" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package at {SRC / 'apndoa'}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import apndoa
    import apndoa.apn
    import apndoa.montecarlo

    if Path(apndoa.__file__).resolve().parent != (SRC / "apndoa").resolve():
        raise SystemExit(f"benchmark: apndoa was imported from {apndoa.__file__}, not from {SRC}")
    return apndoa


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` lists the end-to-end
    (``trace`` 0) or per-layer (``trace`` 1) metrics."""
    try:
        spec = json.loads(SPEC.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"benchmark: cannot read {SPEC.name}: {exc}")
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def as_metrics(values: dict, units: dict) -> dict:
    """The result's metrics: every declared metric, with its unit, and no other."""
    if set(values) != set(units):
        raise SystemExit(
            f"benchmark: measured metrics differ from {SPEC.name}: "
            f"undeclared {sorted(set(values) - set(units))}, unmeasured {sorted(set(units) - set(values))}"
        )
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh processes of the time from process start until the
    first untimed call into the package has finished, less the time the
    probe spent making its inputs."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), repr(time.time())]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: setup probe exited with {proc.returncode}")
        samples.append(json.loads(out)["setup_s"])
    return statistics.median(samples)


def blas_note(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        lib = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        lib = "unknown"
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset (library default)")
    return f"blas {lib}, OPENBLAS_NUM_THREADS={threads}, cores={os.cpu_count()}"


def run_rounds(wl, checker, rec, seconds, tracer=None, traced=None):
    """Whole rounds until ``seconds`` have passed and the quality set is
    done, each checked as it ends.  With a tracer, each round runs
    untraced into ``rec`` and then again traced into ``traced``, so that
    drifts in machine speed fall on both sides of the overhead alike.
    Returns the number of rounds."""
    t0 = time.perf_counter()
    r = 0
    while r < wl.quality_rounds or time.perf_counter() - t0 < seconds:
        ops = wl.run_round(r, wl.round_inputs(r), rec)
        if tracer is not None:
            with tracer:
                ops += wl.run_round(r, wl.round_inputs(r), traced)
        checker.round(r, ops)
        r += 1
    return r


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "single-sml", "alt"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    units = declared_units(args.trace)
    pkg = import_package()
    import numpy as np

    import workloads as W
    from layertrace import Tracer

    OUT.mkdir(exist_ok=True)
    log(blas_note(np))
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    wl = W.WORKLOADS[args.workload](pkg, args.seed, OUT)
    wl.first_call()

    rec, checker = W.Recorder(), W.Checker(wl)
    if not args.trace:
        run_rounds(wl, checker, rec, args.seconds)
    else:
        tracer, traced = Tracer(pkg.flops.eval_flops), W.Recorder()
        n_rounds = run_rounds(wl, checker, rec, args.seconds, tracer, traced)
        for name in sorted(set(tracer.absent)):
            log(f"trace: {name} is absent")
        tracer.save(OUT / f"trace-{args.workload}.npz")
        n_cells = n_rounds * len(wl.scen.snr_db) if args.workload == "sweep" else 0
        overhead_ms = 1e3 * (traced.wall - rec.wall) / rec.estimates
        layer = tracer.metrics(traced.estimates, n_cells, n_rounds, overhead_ms)
    ratio = checker.finish()
    if args.workload == "sweep" and wl.csv_path.exists():
        wl.csv_path.unlink()

    for op in checker.failed:
        log(f"failed op: {op.target} round {op.rnd} snr {wl.scen.snr_db[op.snr_index]:g} dB: "
            f"{op.error or '; '.join(op.problems)}")
    for p in checker.problems:
        log(f"check failed: {p}")
    log("margins: " + json.dumps({k: float(f"{v:.4g}") for k, v in sorted(checker.margins.worst.items())}))

    if args.trace:
        values = layer
    else:
        values = {
            "setup_s": setup_s,
            "estimates_per_s": rec.estimates / rec.wall,
            "estimate_ms_p50": 1e3 * statistics.median(rec.latencies),
            "cpu_ms_per_estimate": 1e3 * rec.cpu / rec.estimates,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "rmse_over_crb": ratio,
        }
        log(f"{rec.estimates} estimates in {len(rec.latencies)} timed calls, {rec.wall:.2f} s in the package")
    metrics = as_metrics(values, units)
    correct = not checker.problems
    print(json.dumps({"correct": correct, "attempted": checker.attempted, "failed": checker.n_failed, "metrics": metrics}))
    return 0 if correct and not checker.n_failed else 1


if __name__ == "__main__":
    sys.exit(main())
