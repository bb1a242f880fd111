"""Closed-form per-iteration flop counts and the pipeline work model.

The polynomials count real floating-point operations for one evaluation
of a concentrated cost (optionally with its gradient and Hessian) when
implemented through the thin-QR workspace, under the stated convention
that one complex multiply-add costs CMULADD = 8 real flops (4 multiplies
+ 4 adds).  They are exact counts of the prescribed evaluation recipe,
polynomial in the sensor count M and source count K.
"""

from __future__ import annotations

__all__ = [
    "CMULADD",
    "eval_flops",
    "flop_polynomials",
    "flop_table",
    "line_search_flops",
    "covariance_flops",
    "noise_init_flops",
    "pipeline_flop_estimate",
]

# real flops charged per complex multiply-add throughout the model
CMULADD = 8


def eval_flops(m: int, k: int, which: str = "D", derivatives: bool = False) -> int:
    """Flops for one cost evaluation at a (theta, lambda) point.

    Parameters
    ----------
    m, k : int
        Sensor and source counts.
    which : {'D', 'S'}
        Deterministic or stochastic concentrated cost.
    derivatives : bool
        Count the evaluation of the gradient and full Hessian as well.
    """
    if m < 1 or k < 0 or k > m:
        raise ValueError("need 0 <= k <= m and m >= 1")
    if which not in ("D", "S"):
        raise ValueError("which must be 'D' or 'S'")
    m, k = int(m), int(k)
    if which == "D":
        if derivatives:
            return (
                8 * k**3 + 72 * k**2 * m + 38 * k**2 + 40 * k * m**2
                - 4 * k * m + 46 * m**2 + 20
            )
        return -2 * k**3 + 8 * k**2 * m + 8 * k * m**2 + 2 * k * m + 46 * m**2 + 14
    if derivatives:
        return (
            24 * k**3 + 112 * k**2 * m + 80 * k**2 + 192 * k * m**2
            + 37 * k * m + 3 * k + 236 * m**2 + 3 * m + 32
        )
    return (
        -2 * k**3 + 24 * k**2 * m - 2 * k**2 + 16 * k * m**2
        + 2 * k * m + 2 * k + 64 * m**2 + 18
    )


def flop_polynomials(m: int, k: int) -> tuple:
    """The four per-evaluation counts as a tuple, exact integers.

    Returns ``(cost_D, cost_S, cost_D_with_derivs, cost_S_with_derivs)``
    for one evaluation point.  Requires ``m >= k >= 1``.
    """
    if not (1 <= k <= m):
        raise ValueError("need m >= k >= 1")
    return (
        eval_flops(m, k, "D"),
        eval_flops(m, k, "S"),
        eval_flops(m, k, "D", derivatives=True),
        eval_flops(m, k, "S", derivatives=True),
    )


def flop_table(m: int, ks) -> list[dict]:
    """Rows of the four per-evaluation counts for each source count in ``ks``."""
    rows = []
    for k in ks:
        rows.append(
            {
                "m": int(m),
                "k": int(k),
                "cost_d": eval_flops(m, k, "D"),
                "cost_s": eval_flops(m, k, "S"),
                "cost_d_derivs": eval_flops(m, k, "D", derivatives=True),
                "cost_s_derivs": eval_flops(m, k, "S", derivatives=True),
            }
        )
    return rows


def line_search_flops(m: int, k_existing: int, n_candidates: int) -> float:
    """Work model for scoring candidates in one insertion line search.

    Per candidate: project the steering vector against the K current
    orthonormal columns (2 M K complex multiply-adds), take the residual
    norm (M), apply the sample covariance (M^2) and close the quadratic
    form (M), plus the scalar divide.
    """
    per = CMULADD * (m * m + 2 * m * k_existing + 2 * m) + 1
    return float(n_candidates) * per


def covariance_flops(m: int, n: int) -> float:
    """Forming the Hermitian sample covariance (1/N) Z Z^H, one triangle."""
    return CMULADD * m * (m + 1) * n / 2.0 + m * (m + 1)


def noise_init_flops(m: int) -> float:
    """Stage-2 least-squares noise fit at the stage-1 angles.

    The product R_z B (M^3 complex multiply-adds) and the diagonal of
    B R_z B (M^2 more), the fit matrix |B|^2 and its product with the
    one-sided start (5 M^2), the elementwise divides, differences, sums
    and powers (4 M), and a pivoted-QR least-squares solve of the real
    M x M system (4 M^3 / 3, rounded down).
    """
    return float(CMULADD * (m**3 + m**2) + 5 * m * m + 4 * m + 4 * m**3 // 3)


def pipeline_flop_estimate(
    m: int,
    k: int,
    stage1,
    stage3,
    target: str,
    n_snapshots: int | None = None,
    evaluations_only: bool = False,
) -> float:
    """Total work estimate for one pipeline run from its iteration counts.

    Stage-1 insertions are charged the line-search model plus the
    uniform-noise evaluations (deterministic-cost polynomials at the
    current source count, a mild upper bound); the joint or alternating
    stage is charged one with-derivatives evaluation per gradient call
    and one plain evaluation per extra backtracking cost call, plus the
    stage-2 noise fit (:func:`noise_init_flops`).  The reduced-Hessian
    target is charged the full polynomial, making its estimate a mild
    upper bound.

    ``evaluations_only=True`` charges the candidate scoring and the cost
    and derivative evaluations alone: nothing for the sample covariance
    or the noise fit, so a run with zero iterations and zero candidate
    evaluations costs exactly zero.
    """
    total = 0.0
    if n_snapshots and not evaluations_only:
        total += covariance_flops(m, n_snapshots)
    for j, st in enumerate(stage1):
        kk = j + 1
        total += line_search_flops(m, j, st.candidates)
        total += st.grad_evals * eval_flops(m, kk, "D", derivatives=True)
        total += max(st.cost_evals - st.grad_evals, 0) * eval_flops(m, kk, "D")
    if stage3 is not None:
        which = "D" if target.startswith("dml") else "S"
        total += stage3.grad_evals * eval_flops(m, k, which, derivatives=True)
        total += max(stage3.cost_evals - stage3.grad_evals, 0) * eval_flops(m, k, which)
        if not evaluations_only:
            total += noise_init_flops(m)
    return total
