"""Lyapunov exponents from periodic data.

Two routes to the finite-n average are kept side by side as a built-in
cross-check: the multiplier route sums log|lambda_u| per point, the
cocycle route sums log of the expansion of Df along unstable directions
pushed around each orbit (which telescopes to the same quantity).  Both
run over a block of orbits of one length at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maps import HenonMap
from .orbits import PeriodSpectrum, PeriodicOrbit, _eigenpair_rows, _monodromy_rows, _one_row


@dataclass
class UnstableDirection:
    """Unit tangent direction of maximal expansion at one orbit point."""

    base: tuple[complex, complex]
    dir: np.ndarray  # (2,) complex, unit norm

    def __post_init__(self) -> None:
        self.dir = np.asarray(self.dir, dtype=complex).reshape(2)
        nrm = float(np.linalg.norm(self.dir))
        if not math.isfinite(nrm) or nrm == 0.0:
            raise ValueError("direction must be a nonzero finite vector")
        # the largest-modulus component made real positive (deterministic rep)
        v = self.dir / nrm
        i = int(np.argmax(np.abs(v)))
        self.dir = v / (v[i] / abs(v[i]))


def _unstable_rows(m: HenonMap, X: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit eigenvectors for lambda_u at point 0 of each row of X (B, n), pushed ``steps`` points on.

    Returns the unit vectors (B, 2) reached and the sums of the logs of the
    expansions on the way.  Of the eigenvector candidates (M_01, lambda_u -
    M_00) and (lambda_u - M_11, M_10) of the monodromy, the longer is taken.
    """
    M, log_scale = _monodromy_rows(m, X)
    lam = _eigenpair_rows(M, log_scale)[0]
    c1 = np.stack((M[:, 0, 1], lam - M[:, 0, 0]), axis=1)
    c2 = np.stack((lam - M[:, 1, 1], M[:, 1, 0]), axis=1)
    n1, n2 = np.linalg.norm(c1, axis=1), np.linalg.norm(c2, axis=1)
    nrm = np.where(n1 >= n2, n1, n2)
    if (nrm == 0.0).any():
        raise ValueError("defective monodromy matrix: no eigenvector basis")
    V, total = np.where((n1 >= n2)[:, None], c1, c2) / nrm[:, None], np.zeros(len(X))
    dp, a = m.dp(X), np.reshape(m.a, -1)
    for k in range(steps):
        # Df(p_k) v = (p'(x_k) v_0 - a v_1, v_0)
        W = np.stack((dp[:, k] * V[:, 0] - a * V[:, 1], V[:, 0]), axis=1)
        nrm = np.linalg.norm(W, axis=1)
        total += np.log(nrm)
        V = W / nrm[:, None]
    return V, total


def _psi_sum_rows(m: HenonMap, X: np.ndarray) -> np.ndarray:
    """``orbit_psi_sum`` for each row of X (B, n)."""
    return _unstable_rows(m, X, X.shape[1])[1]


def unstable_direction(m: HenonMap, orbit: PeriodicOrbit, index: int = 0) -> UnstableDirection:
    """Eigenvector of the monodromy for lambda_u at the given orbit point.

    Only defined for saddles; marginal multipliers make the eigenproblem
    ill-conditioned and are rejected, as is an xs that is not one orbit vector.
    """
    if orbit.kind != "saddle":
        raise ValueError(f"unstable direction requires a saddle orbit, got {orbit.kind!r}")
    X = _one_row(orbit.xs)
    index %= orbit.n
    V, _ = _unstable_rows(m, X, index)
    return UnstableDirection(base=orbit.points[index], dir=V[0])


def psi(m: HenonMap, u: UnstableDirection) -> float:
    """log of the expansion of Df at u.base along u.dir (Eq. of the cocycle)."""
    w = m.jacobian(u.base) @ u.dir
    return float(math.log(np.linalg.norm(w)))


def orbit_psi_sum(m: HenonMap, orbit: PeriodicOrbit) -> float:
    """Sum of the expansion logs around the orbit (ValueError unless xs is one orbit vector);
    telescopes to log|lambda_u|."""
    return float(_psi_sum_rows(m, _one_row(orbit.xs))[0])


@dataclass
class LyapunovEstimate:
    n: int
    which: str
    point_count: int
    lambda_n: float | None
    chi_sum_form: float | None
    psi_sum_form: float | None

    @property
    def agreement_gap(self) -> float | None:
        if self.chi_sum_form is None or self.psi_sum_form is None:
            return None
        return abs(self.chi_sum_form - self.psi_sum_form)


def chi_average(terms: list[float], degree: int, n: int) -> float:
    """d^-n sum of ``terms``, the k chi of selected orbits: their points' finite-n Lyapunov average.

    A point of exact period k contributes (n/k) log|lambda_u| of its k-cycle
    to the multiplier of f^n.  ``math.fsum`` makes the terms' order irrelevant; NaN if none.
    """
    if not terms:
        return math.nan
    return degree ** (-float(n)) * math.fsum(terms)


def lambda_estimates(spectrum: PeriodSpectrum, whiches) -> list[LyapunovEstimate]:
    """Finite-n Lyapunov average (1 / (n d^n)) sum of log|lambda_u| of each point class in ``whiches``.

    The multiplier route is ``chi_average``; the cocycle route recomputes
    the same value through unstable directions, once per block over the
    rows that any of the classes selects; both are reported.
    Normalization always divides by d^n, so deficient spectra yield a
    lower-bound-biased value (flagged through spectrum.complete).
    """
    d, n, blocks = spectrum.map.degree, spectrum.n, spectrum.blocks
    masks = [spectrum.masks(which) for which in whiches]
    psi = [np.zeros(len(b)) for b in blocks]
    for b, p, rows in zip(blocks, psi, (np.logical_or.reduce(m) for m in zip(*masks))):
        p[rows] = _psi_sum_rows(spectrum.map, b.xs[rows])
    out = []
    for which, mask in zip(whiches, masks):
        count = sum(b.period * int(m.sum()) for b, m in zip(blocks, mask))
        chi = chi_average([t for b, m in zip(blocks, mask) for t in (b.period * b.chi[m]).tolist()], d, n)
        psi_sum = d ** (-float(n)) * math.fsum(t for p, m in zip(psi, mask) for t in p[m].tolist())
        out.append(LyapunovEstimate(n, which, count, *((chi, chi, psi_sum) if count else (None,) * 3)))
    return out


def lambda_estimate(spectrum: PeriodSpectrum, which: str = "sper") -> LyapunovEstimate:
    """``lambda_estimates`` for one point class."""
    return lambda_estimates(spectrum, [which])[0]
