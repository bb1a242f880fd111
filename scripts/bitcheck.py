"""Bit comparison of the estimates of two trees of the package.

    python3 scripts/bitcheck.py --base HEAD~1

Loads the ``src/apndoa`` package of the ``--base`` tree (a directory or
a git revision, as ``scripts/lockstep.py`` loads it) and of the working
tree into one process, runs both on the benchmark's own batches
(``apnbench/workloads.py``'s ``Scenario.batch``) of seeds 7 and 11,
rounds 0-9, every SNR, and compares every field of every result in
three record sets:

* ``standalone``: each target of ``TARGETS`` on each raw snapshot
  matrix alone, through ``apn_estimate`` (600 records);
* ``shared``: the five targets that follow the first on one
  ``SampleCovariance`` per batch, which take stage 1 from its memo, in
  ``TARGETS`` order and reversed (1000 records);
* ``lanes``: one ``estimate_lanes`` call per target over the 100
  batches' covariances (600 records).

A run that fails gives its error as its record.  Arrays compare by
dtype, shape and bytes; dataclasses (``EstimationResult``,
``StageCounts``) field by field, since the two trees' classes differ;
errors by type name and message; everything else by type and value.
Prints the count of differing records per set, and exits 1 if any
record differs.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (7, 11)
ROUNDS = range(10)


def same(a, b) -> bool:
    """Whether ``a`` and ``b``, a record of each tree, carry the same bits."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (type(a) is type(b) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, Exception) or isinstance(b, Exception):
        return (isinstance(a, Exception) and isinstance(b, Exception)
                and type(a).__name__ == type(b).__name__ and str(a) == str(b))
    if dataclasses.is_dataclass(a) or dataclasses.is_dataclass(b):
        names = [f.name for f in dataclasses.fields(a)] if dataclasses.is_dataclass(a) else None
        return (type(a).__name__ == type(b).__name__ and dataclasses.is_dataclass(b)
                and names == [f.name for f in dataclasses.fields(b)]
                and all(same(getattr(a, n), getattr(b, n)) for n in names))
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and (a == b or a != a and b != b)     # NaN matches NaN


def _run(pkg, x, scen, target):
    try:
        return pkg.apn_estimate(x, scen.geometry, scen.k, target=target)
    except (np.linalg.LinAlgError, ValueError) as exc:
        return exc


def records(pkg, scen, batches) -> dict:
    """The three record sets of one tree, each a list of results."""
    targets = pkg.TARGETS
    out = {"standalone": [], "shared": [], "lanes": []}
    for z in batches:
        out["standalone"] += [_run(pkg, z, scen, t) for t in targets]
        for order in (targets, targets[::-1]):
            cov = pkg.sample_covariance(z)
            out["shared"] += [_run(pkg, cov, scen, t) for t in order][1:]
    for t in targets:
        covs = [pkg.sample_covariance(z) for z in batches]
        out["lanes"] += pkg.estimate_lanes(covs, scen.geometry, scen.k, target=t)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="tree directory or git revision to compare against")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "scripts"))
    from lockstep import base_tree, load_tree

    base = load_tree(base_tree(args.base), "_bitcheck_base")
    change = load_tree(ROOT, "_bitcheck_change")
    sys.path.insert(0, str(ROOT / "apnbench"))
    from workloads import Scenario

    scen = Scenario(change)
    batches = [scen.batch(seed, rnd, si)[0] for seed in SEEDS for rnd in ROUNDS for si in range(len(scen.snr_db))]
    got, want = records(change, scen, batches), records(base, scen, batches)
    differ = 0
    for name, recs in got.items():
        n = sum(not same(a, b) for a, b in zip(recs, want[name])) + abs(len(recs) - len(want[name]))
        differ += n
        print(f"{name}: {n} of {len(want[name])} records differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
