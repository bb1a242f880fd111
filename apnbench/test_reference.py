"""Tests of the benchmark's references and of its command-line contract.

    python3 -m pytest apnbench -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402


def _point(seed, m=5, k=2, n=8):
    rng = np.random.default_rng(seed)
    positions = np.arange(m, dtype=float)
    theta = np.sort(rng.uniform(-1.2, 1.2, k))
    while np.min(np.diff(theta)) < 0.3:
        theta = np.sort(rng.uniform(-1.2, 1.2, k))
    lam = rng.uniform(0.5, 3.0, m)
    z = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) * 0.3
    z += ref.steer(positions, theta) @ (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
    return z, positions, theta, lam


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sml_likelihood_matches_50_digits(seed):
    z, p, theta, lam = _point(seed)
    got = ref.sml_likelihood(ref.sample_cov(z), z.shape[1], p, theta, lam)
    assert got == pytest.approx(ref.sml_likelihood_50_digits(z, p, theta, lam), rel=1e-11)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_dml_residual_matches_50_digits(seed):
    z, p, theta, lam = _point(seed)
    want = ref.dml_residual_50_digits(z, p, theta, lam)
    assert ref.dml_residual(z, p, theta, lam) == pytest.approx(want, rel=1e-11)


def test_sml_likelihood_peaks_at_the_truth_of_the_expected_covariance():
    p = np.arange(6.0)
    theta = np.array([-0.4, 0.3])
    rs = np.array([[1.0, 0.2], [0.2, 0.5]])
    lam = np.linspace(1.0, 2.0, 6)
    a = ref.steer(p, theta)
    rz = a @ rs @ a.conj().T + np.diag(lam ** -2.0)
    best = ref.sml_likelihood(rz, 50, p, theta, lam)
    for d in (1e-3, -1e-3):
        assert ref.sml_likelihood(rz, 50, p, theta + [d, 0.0], lam) < best
        assert ref.sml_likelihood(rz, 50, p, theta, lam * (1 + d)) < best


def test_crb_fisher_matches_numerical_derivatives():
    """F = N tr(R^-1 dR R^-1 dR) with dR from central differences of R."""
    p = np.arange(5.0)
    theta = np.array([-0.3, 0.4])
    rs = np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 0.6]])
    lam = np.linspace(1.0, 3.0, 5)
    n = 100

    def cov(x):
        r = np.array([[x[2], x[4] + 1j * x[5]], [x[4] - 1j * x[5], x[3]]])
        a = ref.steer(p, x[:2])
        return a @ r @ a.conj().T + np.diag(x[6:])

    x0 = np.concatenate([theta, [1.0, 0.6, 0.3, 0.2], lam ** -2.0])
    rinv = np.linalg.inv(cov(x0))
    h = 1e-6
    d = []
    for i in range(x0.size):
        e = np.zeros(x0.size)
        e[i] = h
        d.append(rinv @ (cov(x0 + e) - cov(x0 - e)) / (2 * h))
    fim = n * np.real(np.einsum("aij,bji->ab", np.array(d), np.array(d)))
    want = np.diagonal(np.linalg.inv(fim))[:2]
    assert ref.stochastic_crb(p, theta, rs, lam, n) == pytest.approx(want, rel=1e-6)


def test_sweep_batch_is_the_batch_the_sweep_synthesizes():
    from apndoa import benchmark_scenario, scale_for_snr, stream_rng, synthesize

    cfg = benchmark_scenario(seed=4)
    s = cfg.source_model.s
    rs = s @ s.conj().T / s.shape[1]
    lam = ref.lam_for_snr(cfg.geometry.positions, cfg.theta_true, rs, ref.linear_trend(11, 10.0), 20.0)
    lam_pkg = scale_for_snr(cfg.geometry, cfg.theta_true, cfg.source_model, cfg.noise_trend, 20.0)
    np.testing.assert_allclose(lam, lam_pkg, rtol=1e-14)
    z_pkg = synthesize(cfg.geometry, cfg.theta_true, cfg.source_model, lam_pkg, 100, stream_rng(77, 2, 5))
    z = ref.sweep_batch(cfg.geometry.positions, cfg.theta_true, s, lam, 77, 2, 5)
    np.testing.assert_allclose(z, z_pkg, rtol=1e-12, atol=1e-12)


def test_match_takes_the_best_assignment():
    sq = ref.match([0.3, -0.2, 0.9], [0.88, 0.31, -0.25])
    np.testing.assert_allclose(sq, [0.05 ** 2, 0.01 ** 2, 0.02 ** 2])


def test_run_fails_without_the_package(tmp_path):
    """In a directory with only the benchmark, the command exits non-zero
    without printing a result."""
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "single-sml", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
