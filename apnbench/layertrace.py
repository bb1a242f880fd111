"""Per-layer spans recorded from outside the package.

A :class:`Tracer` replaces the module-level names through which one
layer of ``apndoa`` calls another (``apndoa.apn.build_workspace``,
``apndoa.newton.modified_cholesky``, ...) with wrappers that record a
span per call and hand the call's result to a hook, and puts the
originals back on exit.  A name the package no longer has is reported
as absent, not as an error, so the trace survives refactors that move
or merge functions; the metrics that rest on it then read 0.

Spans are kept in parallel lists of names, start and end times, parent
indices and child time, which the garbage collector need not traverse.
The benchmark is single-threaded while tracing, so spans nest strictly,
and a span's self time is its duration minus the time its direct
children cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

STALLED_NOTE = "line search found no ascent step"

# span names of one estimator run on one batch
OP_SPANS = ("apn.apn_estimate", "music.music_estimate")


class Tracer:
    """Context manager that wraps the package's layer boundaries."""

    def __init__(self, eval_flops):
        self.eval_flops = eval_flops
        self.name: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.child: list = []
        self.stack: list = []
        self.absent: list = []
        self.counts = defaultdict(float)
        self.op_points: dict = defaultdict(set)
        self._op = -1
        self._restore: list = []

    # -- span recording ----------------------------------------------------

    def _open(self, name):
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.child.append(0.0)
        self.stack.append(idx)
        if name in OP_SPANS:
            self._op = idx
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        end = self.end[idx] = time.perf_counter()
        self.stack.pop()
        parent = self.parent[idx]
        if parent >= 0:
            self.child[parent] += end - self.start[idx]
        if self.name[idx] in OP_SPANS:
            self._op = -1

    def wrap(self, module, attr, name, hook=None):
        orig = getattr(module, attr, None)
        if orig is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(args, kwargs, out)
            return out

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, orig))

    def __enter__(self):
        import apndoa.apn as apn
        import apndoa.montecarlo as mc
        import apndoa.newton as newton

        w = self.wrap
        w(apn, "apn_estimate", "apn.apn_estimate", self._on_estimate)
        w(mc, "apn_estimate", "apn.apn_estimate", self._on_estimate)
        w(mc, "music_estimate", "music.music_estimate")
        w(mc, "run_monte_carlo", "montecarlo.run_monte_carlo")
        w(mc, "write_csv", "montecarlo.write_csv")
        w(mc, "synthesize", "arrays.synthesize")
        w(mc, "sample_covariance", "workspace.sample_covariance")
        w(apn, "sample_covariance", "workspace.sample_covariance")
        w(apn, "steering_set", "arrays.steering_set")
        w(apn, "build_workspace", "workspace.build_workspace", self._on_build)
        for cost in ("cost_dml_uniform", "cost_dml", "cost_sml"):
            w(apn, cost, "workspace.cost")
        w(apn, "grad_hess", "derivatives.grad_hess", self._on_grad_hess)
        w(apn, "grad_dml_uniform", "derivatives.uniform")
        w(apn, "hess_dml_uniform", "derivatives.uniform")
        w(apn, "newton_maximize", "newton.newton_maximize", self._on_newton)
        w(newton, "modified_cholesky", "newton.modified_cholesky", self._on_cholesky)
        w(apn, "ap_add_angle", "apn.ap_add_angle", self._on_add_angle)
        w(apn, "init_noise", "apn.init_noise")
        return self

    def __exit__(self, *exc):
        for module, attr, orig in reversed(self._restore):
            setattr(module, attr, orig)
        self._restore.clear()
        return False

    # -- hooks: counts taken at the boundary where the work happens --------

    def _on_estimate(self, args, kwargs, res):
        c = self.counts
        c["iters_stage1"] += res.iters_stage1
        c["iters_stage3"] += res.iters_stage3
        c["model_flops"] += res.flop_estimate
        c["stalled"] += STALLED_NOTE in getattr(res, "note", "")

    def _on_build(self, args, kwargs, ws):
        lam = np.asarray(args[2] if len(args) > 2 else kwargs["lam"], dtype=float)
        self.op_points[self._op].add(ws.theta.tobytes() + lam.tobytes())

    def _on_grad_hess(self, args, kwargs, out):
        ws = args[0]
        which = args[1] if len(args) > 1 else kwargs.get("which", "S")
        self.counts["grad_hess_flops"] += self.eval_flops(ws.m, ws.k, which, derivatives=True)

    def _on_newton(self, args, kwargs, out):
        self.counts["backtracks"] += out.n_cost_evals - 1 - out.iterations

    def _on_cholesky(self, args, kwargs, out):
        self.counts["shifted"] += out[1] > 0

    def _on_add_angle(self, args, kwargs, out):
        self.counts["candidates"] += out[1]

    # -- summaries -----------------------------------------------------------

    def save(self, path):
        """Write the spans as parallel arrays (names indexed into ``names``)."""
        names = sorted(set(self.name))
        index = {n: i for i, n in enumerate(names)}
        np.savez_compressed(
            path,
            names=np.array(names),
            name=np.array([index[n] for n in self.name], dtype=np.int16),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
        )

    def _stage_times(self):
        """Stage 1 runs from the start of ``apn_estimate`` to the end of the
        last Newton run before ``init_noise``; stage 2 from there to the end
        of ``init_noise``; stage 3 from there to the end of the estimate.  A
        run without ``init_noise`` (``dmlo``) is all stage 1."""
        children = defaultdict(list)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                children[parent].append(idx)
        t = [0.0, 0.0, 0.0]
        for idx, name in enumerate(self.name):
            if name != "apn.apn_estimate":
                continue
            start, end = self.start[idx], self.end[idx]
            noise = [i for i in children[idx] if self.name[i] == "apn.init_noise"]
            if not noise:
                t[0] += end - start
                continue
            init = noise[0]
            before = [
                self.end[i] for i in children[idx]
                if self.name[i] == "newton.newton_maximize" and self.end[i] <= self.start[init]
            ]
            split = before[-1] if before else self.start[init]
            t[0] += split - start
            t[1] += self.end[init] - split
            t[2] += end - self.end[init]
        return t

    def metrics(self, n_estimates: int, n_cells: int, n_rounds: int, overhead_ms: float):
        """Per-layer metric values by name, normalised per estimate unless
        named otherwise; ``BENCHMARK.json`` holds their units."""
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for name, start, end, child in zip(self.name, self.start, self.end, self.child):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child
        c = self.counts
        per = 1.0 / n_estimates

        def ratio(a, b):
            return a / b if b else 0.0

        builds = calls["workspace.build_workspace"]
        distinct = sum(len(v) for v in self.op_points.values())
        stages = self._stage_times()
        values = {
            "arrays.steering_set.calls_per_estimate": calls["arrays.steering_set"] * per,
            "arrays.steering_set.self_ms_per_estimate": 1e3 * own["arrays.steering_set"] * per,
            "arrays.synthesize.ms_per_cell": 1e3 * ratio(total["arrays.synthesize"], calls["arrays.synthesize"]),
            "workspace.sample_covariance.ms_per_call": 1e3 * ratio(
                total["workspace.sample_covariance"], calls["workspace.sample_covariance"]
            ),
            "workspace.build_workspace.calls_per_estimate": builds * per,
            "workspace.build_workspace.distinct_ratio": ratio(distinct, builds),
            "workspace.build_workspace.self_ms_per_estimate": 1e3 * own["workspace.build_workspace"] * per,
            "workspace.cost.calls_per_estimate": calls["workspace.cost"] * per,
            "workspace.cost.self_ms_per_estimate": 1e3 * own["workspace.cost"] * per,
            "derivatives.grad_hess.calls_per_estimate": calls["derivatives.grad_hess"] * per,
            "derivatives.grad_hess.self_ms_per_estimate": 1e3 * own["derivatives.grad_hess"] * per,
            "derivatives.grad_hess.mflop_per_s": 1e-6 * ratio(c["grad_hess_flops"], own["derivatives.grad_hess"]),
            "derivatives.uniform.calls_per_estimate": calls["derivatives.uniform"] * per,
            "derivatives.uniform.self_ms_per_estimate": 1e3 * own["derivatives.uniform"] * per,
            "newton.newton_maximize.calls_per_estimate": calls["newton.newton_maximize"] * per,
            "newton.newton_maximize.self_ms_per_estimate": 1e3 * own["newton.newton_maximize"] * per,
            "newton.modified_cholesky.calls_per_estimate": calls["newton.modified_cholesky"] * per,
            "newton.modified_cholesky.shifted_ratio": ratio(c["shifted"], calls["newton.modified_cholesky"]),
            "newton.backtracks_per_estimate": c["backtracks"] * per,
            "newton.stalled_ratio": ratio(c["stalled"], calls["apn.apn_estimate"]),
            "newton.iters_stage1_per_estimate": c["iters_stage1"] * per,
            "newton.iters_stage3_per_estimate": c["iters_stage3"] * per,
            "apn.stage1_ms_per_estimate": 1e3 * stages[0] * per,
            "apn.stage2_ms_per_estimate": 1e3 * stages[1] * per,
            "apn.stage3_ms_per_estimate": 1e3 * stages[2] * per,
            "apn.ap_add_angle.self_ms_per_estimate": 1e3 * own["apn.ap_add_angle"] * per,
            "apn.ap_add_angle.candidates_per_estimate": c["candidates"] * per,
            "music.music_estimate.ms_per_call": 1e3 * ratio(total["music.music_estimate"], calls["music.music_estimate"]),
            "flops.model_mflop_per_estimate": 1e-6 * c["model_flops"] * per,
            "montecarlo.self_ms_per_cell": 1e3 * ratio(own["montecarlo.run_monte_carlo"], n_cells),
            "montecarlo.write_csv.ms_per_round": 1e3 * ratio(total["montecarlo.write_csv"], n_rounds),
            "trace.overhead_ms_per_estimate": overhead_ms,
        }
        return values
