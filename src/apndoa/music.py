"""MUSIC baseline on a pseudospectrum grid.

Included as the classical subspace comparison point.  It assumes
spatially white noise, so under per-sensor noise powers a weak signal
direction can fall inside the noise-power band and be assigned to the
wrong subspace; the correlated benchmark exposes that bias.  Its error
floor in the uncorrelated benchmark has another cause: the parabola is
fitted to the pseudospectrum on a 32 M grid, which leaves about 2.5e-3
rad on the exact covariance whether the noise is uniform or not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import ArrayGeometry, _grid_steering
from .apn import default_exclusion
from .workspace import SampleCovariance

__all__ = ["MusicOptions", "MusicResult", "music_estimate", "music_spectrum"]

_HALF_PI = np.pi / 2.0


@dataclass(frozen=True)
class MusicOptions:
    """Grid resolution (default 32 M points), peak separation (default
    half a beamwidth) and whether peaks get parabolic refinement."""

    grid_size: int | None = None
    exclusion_radius: float | None = None
    refine: bool = True


@dataclass
class MusicResult:
    theta: np.ndarray
    found_all: bool
    peak_values: np.ndarray


def music_spectrum(
    r_z: SampleCovariance, geometry: ArrayGeometry, k: int, grid_size: int | None = None
):
    """Pseudospectrum 1 / ||E_n^H phi(theta)||^2 on a midpoint grid.

    Returns ``(grid_angles, values)``; ``grid_angles`` is read-only, since
    it and the grid's steering matrix are made once per array and grid
    size and shared with every later call.  ``E_n`` spans the M - K
    smallest eigenvectors of the sample covariance.
    """
    m = geometry.m
    if not (1 <= k < m):
        raise ValueError("need 1 <= k < M")
    grid = grid_size or 32 * m
    _, vecs = np.linalg.eigh(r_z.matrix)      # ascending eigenvalues
    noise_basis = vecs[:, : m - k]
    angles, phi = _grid_steering(geometry.positions.tobytes(), grid)
    proj = noise_basis.conj().T @ phi
    denom = np.einsum("ij,ij->j", proj.conj(), proj).real
    return angles, 1.0 / np.maximum(denom, 1e-300)


def music_estimate(
    r_z: SampleCovariance,
    geometry: ArrayGeometry,
    k: int,
    options: MusicOptions | None = None,
) -> MusicResult:
    """Pick the K largest well-separated pseudospectrum peaks.

    Local maxima are collected in descending height and greedily
    accepted subject to the separation radius; interior peaks are
    sharpened by a three-point parabolic fit.  If fewer than K peaks
    survive, the remaining angles are padded with the best separated
    grid points and ``found_all`` is False.
    """
    opts = options or MusicOptions()
    angles, values = music_spectrum(r_z, geometry, k, opts.grid_size)
    grid = angles.size
    step = np.pi / grid
    r_excl = (
        default_exclusion(geometry)
        if opts.exclusion_radius is None
        else opts.exclusion_radius
    )

    interior = np.arange(1, grid - 1)
    is_peak = (values[interior] > values[interior - 1]) & (
        values[interior] >= values[interior + 1]
    )
    peak_idx = interior[is_peak]
    order = peak_idx[np.argsort(values[peak_idx])[::-1]]

    chosen: list[int] = []
    for idx in order:
        if all(abs(angles[idx] - angles[j]) >= r_excl for j in chosen):
            chosen.append(idx)
        if len(chosen) == k:
            break

    found_all = len(chosen) == k
    if not found_all:
        # pad with the highest remaining grid points that keep separation
        for idx in np.argsort(values)[::-1]:
            if len(chosen) == k:
                break
            if all(abs(angles[idx] - angles[j]) >= r_excl for j in chosen):
                chosen.append(int(idx))
        if len(chosen) < k:
            raise ValueError("separation radius leaves fewer than K grid points")

    theta = np.empty(k)
    heights = np.empty(k)
    for i, idx in enumerate(chosen):
        t, h = angles[idx], values[idx]
        if opts.refine and 0 < idx < grid - 1:
            v_m, v_0, v_p = values[idx - 1], values[idx], values[idx + 1]
            denom = v_m - 2.0 * v_0 + v_p
            if denom < 0:
                delta = 0.5 * (v_m - v_p) / denom * step
                if abs(t + delta) < _HALF_PI:
                    t = t + delta
        theta[i] = t
        heights[i] = h

    order = np.argsort(theta)
    return MusicResult(theta=theta[order], found_all=found_all, peak_values=heights[order])
