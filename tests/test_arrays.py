"""Geometry, steering derivatives, source models, SNR scaling, streams."""

import numpy as np
import pytest

from apndoa import (
    ArrayGeometry,
    DeterministicModel,
    StochasticModel,
    linear_trend,
    random_unitary,
    scale_for_snr,
    steering,
    steering_set,
    stream_rng,
    synthesize,
)


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry([0.0])
    with pytest.raises(ValueError):
        ArrayGeometry([0.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        ArrayGeometry([0.0, -1.0])
    with pytest.raises(ValueError):
        ArrayGeometry.ula(5, spacing=0.0)
    g = ArrayGeometry.ula(7, spacing=0.5)
    assert g.m == 7
    assert g.aperture == pytest.approx(3.0)


def test_steering_matches_definition():
    g = ArrayGeometry([0.0, 0.7, 1.9, 3.0])
    th = 0.4
    expected = np.exp(1j * np.pi * g.positions * np.sin(th))
    assert np.allclose(steering(g, th), expected, atol=1e-15)
    # unit modulus entries, first sensor at the phase origin
    s = steering_set(g, [-0.3, 0.4])
    assert np.allclose(np.abs(s.phi), 1.0, atol=1e-15)
    assert np.allclose(s.phi[0, :], 1.0, atol=1e-15)


def test_steering_derivatives_finite_difference():
    g = ArrayGeometry.ula(6)
    th = np.array([-0.5, 0.2, 0.9])
    s = steering_set(g, th)
    h1, h2 = 1e-6, 1e-4  # wider step for d2: h^2 in the denominator
    for k in range(3):
        tp, tm = th.copy(), th.copy()
        tp[k] += h1
        tm[k] -= h1
        d1_fd = (steering_set(g, tp).phi[:, k] - steering_set(g, tm).phi[:, k]) / (2 * h1)
        assert np.abs(s.d1[:, k] - d1_fd).max() < 1e-8
        tp, tm = th.copy(), th.copy()
        tp[k] += h2
        tm[k] -= h2
        d2_fd = (
            steering_set(g, tp).phi[:, k]
            - 2 * s.phi[:, k]
            + steering_set(g, tm).phi[:, k]
        ) / h2**2
        assert np.abs(s.d2[:, k] - d2_fd).max() < 1e-3


def test_steering_set_rejects_bad_angles():
    g = ArrayGeometry.ula(4)
    with pytest.raises(ValueError):
        steering_set(g, [0.1, 0.1])
    with pytest.raises(ValueError):
        steering_set(g, [np.pi / 2])
    with pytest.raises(ValueError):
        steering_set(g, [0.1, 0.2, 0.3, 0.4, 0.5])
    # the message names the first rule broken, in this order
    for theta, message in [
        ([], "at least one angle"),
        ([0.1, np.nan], "finite"),
        ([np.nan, np.nan, 0.1], "finite"),
        ([-np.inf, 0.1], "finite"),
        ([0.1, -np.pi / 2], "strictly inside"),
        ([0.3, 2.0, 0.3], "strictly inside"),
        ([0.1, 0.1], "pairwise distinct"),
        ([0.0, -0.0], "pairwise distinct"),
        ([0.1, 0.1, 0.3, 0.4, 0.5], "pairwise distinct"),
        ([0.1, 0.2, 0.3, 0.4, 0.5], "more sources than sensors"),
    ]:
        with pytest.raises(ValueError, match=message):
            steering_set(g, theta)


def test_stochastic_model_draw_covariance():
    rng = stream_rng(3)
    u = random_unitary(3, rng)
    rs = (u * np.array([2.0, 1.0, 0.3])[None, :]) @ u.conj().T
    model = StochasticModel(rs)
    s = model.draw(200_000, rng)
    emp = s @ s.conj().T / s.shape[1]
    assert np.abs(emp - rs).max() < 0.05
    with pytest.raises(ValueError):
        StochasticModel(np.array([[1.0, 0.5], [0.4, 1.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        StochasticModel(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite


def test_random_unitary_is_unitary_and_deterministic():
    u1 = random_unitary(5, stream_rng(11))
    u2 = random_unitary(5, stream_rng(11))
    assert np.allclose(u1, u2)
    assert np.abs(u1 @ u1.conj().T - np.eye(5)).max() < 1e-12


def test_linear_trend_endpoints():
    t = linear_trend(11, 10.0)
    assert t[0] == pytest.approx(1.0)
    assert t[-1] == pytest.approx(10.0)
    assert np.all(np.diff(t) > 0)
    with pytest.raises(ValueError):
        linear_trend(5, 0.0)


def test_scale_for_snr_convention():
    """20 dB more SNR multiplies every lambda by 10, and the scaled profile
    hits the stated mean-power ratio exactly."""
    g = ArrayGeometry.ula(8)
    th = np.array([-0.3, 0.5])
    model = StochasticModel(np.diag([1.0, 0.5]))
    trend = linear_trend(8, 4.0)
    lam20 = scale_for_snr(g, th, model, trend, 20.0)
    lam40 = scale_for_snr(g, th, model, trend, 40.0)
    assert np.allclose(lam40, 10.0 * lam20, rtol=1e-12)
    phi = steering_set(g, th).phi
    p_sig = np.real(np.trace(phi @ model.covariance() @ phi.conj().T)) / g.m
    p_noise = np.mean(lam20**-2.0)
    assert p_sig / p_noise == pytest.approx(100.0, rel=1e-12)


def test_synthesize_deterministic_and_scaled():
    g = ArrayGeometry.ula(5)
    th = np.array([0.2])
    model = StochasticModel(np.eye(1))
    lam = np.full(5, 2.0)
    z1 = synthesize(g, th, model, lam, 50, stream_rng(5, 0, 1))
    z2 = synthesize(g, th, model, lam, 50, stream_rng(5, 0, 1))
    assert np.array_equal(z1, z2)
    # different stream, different draw
    z3 = synthesize(g, th, model, lam, 50, stream_rng(5, 0, 2))
    assert not np.array_equal(z1, z3)
    assert z1.shape == (5, 50)


def test_synthesize_noise_power_follows_lambda():
    g = ArrayGeometry.ula(6)
    th = np.array([0.1])
    model = DeterministicModel(np.zeros((1, 40000)))  # noise only
    lam = np.array([1.0, 2.0, 4.0, 1.0, 0.5, 8.0])
    z = synthesize(g, th, model, lam, 40000, stream_rng(9))
    power = (np.abs(z) ** 2).mean(axis=1)
    assert np.allclose(power, lam**-2.0, rtol=0.05)


def test_stream_rng_key_independence():
    a = stream_rng(1, 2, 3).standard_normal(4)
    b = stream_rng(1, 2, 3).standard_normal(4)
    c = stream_rng(1, 2, 4).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
