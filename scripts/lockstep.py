"""In-process lock-step CPU timing of two trees of the package.

    python3 scripts/lockstep.py --base HEAD~1 --seed 11 --rounds 0-29 --reps 6

Loads the ``src/apndoa`` package of the ``--base`` tree (a directory, or
a git revision exported with ``git archive`` into ``.bench_build/base``,
the directory ``scripts/bench_pairs.py`` exports to, so the two do not
run at once with a revision) and of the working tree into one process, under two module names, and
runs the benchmark's own batches (``apnbench/workloads.py``'s
``Scenario.batch``, every SNR of each round) through both in lock step:
batch by batch, alternating which tree goes first, so that both trees
share the host's state from moment to moment.  Separate processes a few
seconds apart do not on a shared host, where the runs of one pair can
differ by 30%.

Three groups are timed, each as its benchmark workload calls the
package:

* ``sml``: ``apn_estimate(z, target="sml")`` on the raw snapshot matrix
  (the ``single-sml`` workload);
* ``alt``: ``sml-alt`` and then ``dml-alt`` on one ``SampleCovariance``
  made beforehand, untimed (the ``alt`` workload);
* ``sweep``: per round, ``run_monte_carlo(cfg, threads=1)`` and
  ``write_csv`` of its result to a ``StringIO``, where ``cfg`` is the
  bundled scenario with one trial of ``music``, ``dmlo``, ``sml`` and
  ``sml-red`` at the round's seed, made beforehand by each tree, untimed
  (the ``sweep`` workload: 20 estimates a round).

For each group it prints each tree's CPU milliseconds per estimate (all
repetitions pooled), their ratio, change over base, and the quartiles of
the ratio over the repetitions.  A ratio above one means the working
tree is slower.  The first batch and the first round run once on each
tree, untimed.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import io
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEP_ESTIMATORS = ("music", "dmlo", "sml", "sml-red")
GROUPS = {"sml": ("sml",), "alt": ("sml-alt", "dml-alt"), "sweep": SWEEP_ESTIMATORS}


def load_tree(tree: Path, name: str):
    """The ``apndoa`` package of ``tree/src``, imported as ``name``."""
    pkg_dir = tree / "src" / "apndoa"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def base_tree(base: str) -> Path:
    """``base`` as a directory, or the revision ``base`` exported."""
    if Path(base).is_dir():
        return Path(base)
    sys.path.insert(0, str(ROOT / "scripts"))
    from bench_pairs import export_base

    return export_base(base)


def time_group(pkg, scen, z, rz, targets) -> float:
    """CPU seconds of ``targets`` on one batch, as the workload calls them."""
    if targets == ("sml",):
        inputs = [z]
    else:
        cov = pkg.SampleCovariance(matrix=rz, n_snapshots=scen.n)
        inputs = [cov] * len(targets)
    total = 0.0
    for x, target in zip(inputs, targets):
        t0 = time.process_time()
        pkg.apn_estimate(x, scen.geometry, scen.k, target=target)
        total += time.process_time() - t0
    return total


def sweep_config(pkg, seed: int, rnd: int):
    """The ``sweep`` workload's one-trial config of round ``rnd``."""
    return dataclasses.replace(
        pkg.montecarlo.benchmark_scenario(), trials=1, estimators=SWEEP_ESTIMATORS, seed=seed * 1_000_003 + rnd
    )


def time_sweep(pkg, cfg) -> float:
    """CPU seconds of one ``sweep`` round, as the workload runs it."""
    t0 = time.process_time()
    pkg.montecarlo.write_csv(pkg.montecarlo.run_monte_carlo(cfg, threads=1), io.StringIO())
    return time.process_time() - t0


def summarize(cpu: dict, estimates: dict) -> dict:
    """Per group, from ``cpu[group][side]``, the CPU seconds of each
    repetition on each side (``"base"``, ``"change"``), and
    ``estimates[group]``, the estimates per repetition on one side: each
    side's milliseconds per estimate over all repetitions, their ratio
    (change over base), and the median and quartiles of the ratio of
    each repetition."""
    out = {}
    for group, sides in cpu.items():
        base, change = sides["base"], sides["change"]
        n = estimates[group] * len(base)
        ratios = [c / b for b, c in zip(base, change)]
        q1, med, q3 = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
        out[group] = {
            "base_ms": 1e3 * sum(base) / n,
            "change_ms": 1e3 * sum(change) / n,
            "ratio": sum(change) / sum(base),
            "rep_ratio": {"median": med, "q1": q1, "q3": q3},
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="tree directory or git revision to compare against")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--rounds", default="0-29", help="first-last round, inclusive")
    ap.add_argument("--reps", type=int, default=6)
    args = ap.parse_args(argv)

    trees = {"base": load_tree(base_tree(args.base), "_lockstep_base"),
             "change": load_tree(ROOT, "_lockstep_change")}
    sys.path.insert(0, str(ROOT / "apnbench"))
    from workloads import Scenario

    scen = Scenario(trees["change"])
    lo, hi = (int(x) for x in args.rounds.split("-"))
    rounds = range(lo, hi + 1)
    configs = {side: [sweep_config(pkg, args.seed, rnd) for rnd in rounds] for side, pkg in trees.items()}
    # the timed units in run order, as (group, index in group, timing of a
    # side): per round, both batch groups at each SNR, then the round's sweep
    units, batches = [], 0
    for i, rnd in enumerate(rounds):
        for si in range(len(scen.snr_db)):
            z, rz = scen.batch(args.seed, rnd, si)
            for g in ("sml", "alt"):
                units.append((g, batches, lambda side, g=g, z=z, rz=rz: time_group(trees[side], scen, z, rz, GROUPS[g])))
            batches += 1
        units.append(("sweep", i, lambda side, i=i: time_sweep(trees[side], configs[side][i])))
    for side in trees:
        for g, i, run in units:
            if i == 0:
                run(side)

    cpu = {g: {"base": [], "change": []} for g in GROUPS}
    for rep in range(args.reps):
        totals = {(g, side): 0.0 for g in GROUPS for side in trees}
        for g, i, run in units:
            for side in ("base", "change") if (i + rep) % 2 == 0 else ("change", "base"):
                totals[g, side] += run(side)
        for (g, side), seconds in totals.items():
            cpu[g][side].append(seconds)
        print(f"rep {rep}: " + ", ".join(
            f"{g} {cpu[g]['change'][-1] / cpu[g]['base'][-1]:.3f}" for g in GROUPS), file=sys.stderr, flush=True)

    estimates = {g: batches * len(GROUPS[g]) for g in ("sml", "alt")}
    estimates["sweep"] = len(rounds) * len(scen.snr_db) * len(SWEEP_ESTIMATORS)
    for g, s in summarize(cpu, estimates).items():
        r = s["rep_ratio"]
        print(f"{g}: base {s['base_ms']:.3f} ms, change {s['change_ms']:.3f} ms per estimate, "
              f"ratio {s['ratio']:.3f} (reps: median {r['median']:.3f}, quartiles {r['q1']:.3f}-{r['q3']:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
