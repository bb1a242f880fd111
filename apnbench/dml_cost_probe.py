"""Compare the DML cost that apndoa reports with the residual form.

    python3 apnbench/dml_cost_probe.py

For each of ``dml`` and ``dml-alt`` at 20, 30 and 40 dB this runs the
estimator on ``RUNS`` batches of the benchmark scenario, made as the
``single-sml`` workload makes them from seed ``SEED``, and compares the
reported ``cost`` with 2N sum log lam - ||(I - P) Lambda Z||_F^2 at the
reported estimate.
It prints, per cell, the share of runs whose relative difference
exceeds 1e-9 and the largest ratio of the two, and evaluates the worst
run once more with 50-digit arithmetic.  The benchmark itself does not
check the DML cost, because this difference is not certain to appear on
any workload.
"""

from __future__ import annotations

import reference as ref
import run
import workloads

RUNS = 80
SEED = 0


def main():
    pkg = run.import_package()
    scen = workloads.Scenario(pkg)
    print(f"{'target':8} {'snr_db':>6} {'share > 1e-9':>12} {'max cost/residual':>18}")
    for target in ("dml", "dml-alt"):
        for si, snr in enumerate(scen.snr_db):
            if snr < 20:
                continue
            worst, bad = None, 0
            for r in range(RUNS):
                z, _ = scen.batch(SEED, r, si)
                res = pkg.apn_estimate(z, scen.geometry, scen.k, target=target)
                resid = ref.dml_residual(z, scen.positions, res.theta, res.lam)
                rel = abs(res.cost - resid) / abs(resid)
                bad += rel > 1e-9
                if worst is None or rel > worst[0]:
                    worst = (rel, res.cost, resid, z, res.theta, res.lam)
            rel, cost, resid, z, theta, lam = worst
            exact = ref.dml_residual_50_digits(z, scen.positions, theta, lam)
            print(f"{target:8} {snr:6g} {bad / RUNS:12.3f} {cost / resid:18.6g}"
                  f"   worst: cost {cost:.6g}, residual {resid:.6g}, 50 digits {exact:.6g}")


if __name__ == "__main__":
    main()
