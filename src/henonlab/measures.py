"""Empirical measures on periodic points and their comparison.

The normalized measure nu_n assigns weight d^-n to every selected point
of Fix_n.  Convergence toward the equilibrium measure is witnessed by a
binned total-variation distance (C^2 read as R^4) and by polynomial
moments; no independent limit-measure oracle is computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .orbits import PeriodSpectrum

#: default cell side for the binned total-variation distance
DEFAULT_RESOLUTION = 1.0 / 32.0


@dataclass
class EmpiricalMeasure:
    """Weighted point cloud: rows of ``points`` are (x, y) in C^2."""

    points: np.ndarray          # (m, 2) complex
    weights: np.ndarray         # (m,) nonnegative real

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=complex).reshape(-1, 2)
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if self.points.shape[0] != self.weights.shape[0]:
            raise ValueError("points/weights length mismatch")
        if (self.weights < 0).any():
            raise ValueError("weights must be nonnegative")

    @property
    def total(self) -> float:
        return float(self.weights.sum())


def empirical_measure(spectrum: PeriodSpectrum, which: str = "fix") -> EmpiricalMeasure:
    """nu_n = d^-n sum of point masses over the selected subset of Fix_n."""
    d = spectrum.map.degree
    w = d ** (-float(spectrum.n))
    points = np.concatenate([np.empty((0, 2), dtype=complex)] + [
        np.stack((b.xs, np.roll(b.xs, 1, axis=1)), -1).reshape(-1, 2) for b in spectrum.select(which)])
    return EmpiricalMeasure(points, np.full(points.shape[0], w))


def _bin_keys(m: EmpiricalMeasure, resolution: float) -> np.ndarray:
    """Cell of each coordinate: k for [k - 1/2, k + 1/2) resolutions, so that
    round-off about 0 lands in cell 0 whatever its sign."""
    coords = np.column_stack(
        [m.points[:, 0].real, m.points[:, 0].imag, m.points[:, 1].real, m.points[:, 1].imag]
    )
    return np.floor(coords / resolution + 0.5).astype(np.int64)


def discrepancy(m1: EmpiricalMeasure, m2: EmpiricalMeasure, resolution: float = DEFAULT_RESOLUTION) -> float:
    """Binned total-variation distance at the given cell side.

    Half the summed absolute cell-mass differences over the 4-d grid of
    side ``resolution``; symmetric, and zero iff the binned masses agree.
    """
    if not 0 < resolution < np.inf:  # nan fails both tests
        raise ValueError(f"resolution must be finite and positive, not {resolution!r}")
    if m1.points.shape[0] == 0 and m2.points.shape[0] == 0:
        return 0.0
    keys = np.vstack([_bin_keys(m1, resolution), _bin_keys(m2, resolution)])
    signed = np.concatenate([m1.weights, -m2.weights])
    # number the cells in lexicographic order; bincount adds in input order
    order = np.lexsort(keys.T[::-1])
    sk = keys[order]
    inv = np.empty_like(order)
    inv[order] = np.cumsum(np.r_[False, (sk[1:] != sk[:-1]).any(axis=1)])
    mass = np.bincount(inv, weights=signed)
    return 0.5 * float(np.abs(mass).sum())


def moment_orders(max_order: int) -> list[tuple[int, int]]:
    """Fixed (j, k) ordering: ascending total degree, then ascending j."""
    return [(j, t - j) for t in range(max_order + 1) for j in range(t + 1)]


def moments(m: EmpiricalMeasure, max_order: int) -> dict[tuple[int, int], complex]:
    """Mixed moments sum_i w_i x_i^j y_i^k for all 0 <= j + k <= max_order."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    x, y = m.points[:, 0], m.points[:, 1]
    return {(j, k): complex(np.sum(m.weights * x**j * y**k)) for j, k in moment_orders(max_order)}

