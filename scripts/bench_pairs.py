"""Interleaved before/after runs of the benchmark, summarised to JSON.

    python3 scripts/bench_pairs.py --base HEAD~1 --seeds 301-310 --out BENCH_N.json
    python3 scripts/bench_pairs.py --check-only --seeds 401-410

Exports the ``--base`` revision with ``git archive`` into
``.bench_build/base`` and runs ``python3 apnbench/run.py`` there and in
the working tree: one pair per workload of ``BENCHMARK.json`` and seed,
alternating which side runs first, one run at a time, each for the
``run_seconds`` that ``BENCHMARK.json`` sets.  The output holds, per
workload and side, the median and quartiles of every end-to-end metric,
the count of pairs in which the working tree did better, every run's
values, and the environment (core count, Python, numpy, scipy and BLAS
versions, ``OPENBLAS_NUM_THREADS``).  Per workload and metric it also
says, in the JSON and on stderr, whether a gain may be claimed and
whether the median is worse than the base's by more than the metric's
``BENCHMARK.json`` bound (see :func:`verdict`).  The exit code is 1 if
any run failed.

``--check-only`` compares nothing: in the working tree, for every
workload and seed, it runs ``apnbench/run.py`` at ``--trace 0`` for the
``run_seconds`` of ``BENCHMARK.json``, as a timed run goes, which reaches
rounds far past the quality rounds, and at ``--trace 1`` for
``--seconds 0`` (the quality rounds and their checks only).  It prints
each failing run's ``failed op:`` and ``check failed:`` lines, and exits
1 if any run exits non-zero or fails an op.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
BASE_DIR = ROOT / ".bench_build" / "base"


def parse_seeds(text: str) -> list:
    """'301-310' -> [301, ..., 310]."""
    lo, hi = (int(x) for x in text.split("-"))
    return list(range(lo, hi + 1))


def export_base(rev: str) -> Path:
    if BASE_DIR.exists():
        shutil.rmtree(BASE_DIR)
    BASE_DIR.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(BASE_DIR)], input=archive, check=True)
    return BASE_DIR


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    cmd = [sys.executable, "apnbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    failed_ops = [ln for ln in proc.stderr.splitlines() if ln.startswith(("failed op:", "check failed:"))]
    return {
        "exit": proc.returncode,
        "correct": result.get("correct"),
        "attempted": result.get("attempted"),
        "failed": result.get("failed"),
        "failed_ops": failed_ops,
        "values": {k: v["value"] for k, v in result.get("metrics", {}).items()},
    }


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def verdict(base: list, change: list, better: str, bound: float) -> dict:
    """What one metric's pairs (``base[i]`` against ``change[i]``) show.

    ``claim_met``: the change did better in at least nine tenths of the
    pairs, ties counting for neither, and its median is better than the
    base's by more than the base's interquartile range.
    ``beyond_bound``: the change's median is worse than the base's by
    more than ``bound``, relative to the base's median.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    b = summary(base)
    gain = sign * (summary(change)["median"] - b["median"])
    return {
        "change_better_pairs": wins,
        "claim_met": wins >= 0.9 * len(base) and gain > b["q3"] - b["q1"],
        "beyond_bound": -gain > bound * abs(b["median"]),
    }


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def check_only(workloads: list, seeds: list, seconds: float) -> int:
    """Every workload and seed in the working tree: a run of ``seconds``
    at trace 0 and the quality rounds alone at trace 1."""
    ok = True
    for workload in workloads:
        for seed in seeds:
            for trace, run_seconds in ((0, seconds), (1, 0)):
                run = run_once(ROOT, workload, seed, run_seconds, trace)
                print(f"{workload} seed {seed} trace {trace}: exit {run['exit']}, "
                      f"failed {run['failed']} of {run['attempted']}", flush=True)
                for line in run["failed_ops"]:
                    print(f"  {line}")
                ok = ok and run["exit"] == 0 and run["failed"] == 0
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", help="git revision to compare against")
    ap.add_argument("--seeds", required=True, type=parse_seeds)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--check-only", action="store_true",
                    help="run the checks of every workload and seed in the working tree only")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.check_only:
        return check_only([w["name"] for w in spec["workloads"]], args.seeds, spec["run_seconds"])
    if args.base is None or args.out is None:
        ap.error("--base and --out are required unless --check-only is given")
    end_to_end = spec["end_to_end"]
    seconds = spec["run_seconds"]
    trees = {"base": export_base(args.base), "change": ROOT}
    ok = True
    report = {
        "base": subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, check=True,
                               capture_output=True, text=True).stdout.strip(),
        "seconds": seconds,
        "environment": environment(),
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            runs = {}
            for side in order:
                runs[side] = run = run_once(trees[side], workload, seed, seconds)
                print(f"{workload} seed {seed} {side}: exit {run['exit']}, failed {run['failed']}, "
                      f"{run['values'].get('estimates_per_s', float('nan')):.2f} estimates/s",
                      file=sys.stderr, flush=True)
                for line in run["failed_ops"]:
                    print(f"  {line}", file=sys.stderr)
                ok = ok and run["exit"] == 0 and run["failed"] == 0
            pairs.append({"seed": seed, "first": order[0], **runs})
        metrics = {}
        for metric in end_to_end:
            name = metric["name"]
            base = [p["base"]["values"][name] for p in pairs if name in p["base"]["values"]]
            change = [p["change"]["values"][name] for p in pairs if name in p["change"]["values"]]
            if len(base) != len(pairs) or len(change) != len(pairs):
                continue
            metrics[name] = m = {
                "better": metric["better"],
                "base": summary(base),
                "change": summary(change),
                **verdict(base, change, metric["better"], metric["bound"]),
            }
            print(f"{workload} {name}: base {m['base']['median']:.4g}, change {m['change']['median']:.4g}, "
                  f"better in {m['change_better_pairs']}/{len(pairs)} pairs, "
                  f"claim {'met' if m['claim_met'] else 'not met'}, "
                  f"{'beyond' if m['beyond_bound'] else 'within'} the {metric['bound']:.0%} bound",
                  file=sys.stderr, flush=True)
        report["workloads"][workload] = {"pairs": len(pairs), "metrics": metrics, "runs": pairs}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
