"""Per-orbit references for the block code: counts, point-class selection,
the empirical measure, the Lyapunov estimate and the scan's per-cell sums
computed one PeriodicOrbit at a time, as they were before spectra held
their orbits as columns.  They read ``spectrum.orbits``, the PeriodicOrbit
view of the blocks, and the tests require the block code to give the same
bits."""

import math

import numpy as np

import henonlab as hl
from henonlab.exponents import _psi_sum_rows


def counts(spec) -> dict:
    per = {}
    for o in spec.orbits:
        per[o.n] = per.get(o.n, 0) + o.n
    sper = sum(o.n for o in spec.orbits if o.n == spec.n and o.kind == "saddle")
    return {"fix": sum(per.values()), "per": per, "sper": sper}


def select(spec, which: str) -> list:
    if which == "fix":
        return list(spec.orbits)
    if which == "per":
        return [o for o in spec.orbits if o.n == spec.n]
    if which == "sper":
        return [o for o in spec.orbits if o.kind == "saddle"]
    raise ValueError(f"unknown selection {which!r}")


def empirical_measure(spec, which: str = "fix") -> hl.EmpiricalMeasure:
    w = spec.map.degree ** (-float(spec.n))
    points = np.concatenate([np.empty((0, 2), dtype=complex)] + [
        np.column_stack((o.xs, np.roll(o.xs, 1))) for o in select(spec, which)])
    return hl.EmpiricalMeasure(points, np.full(points.shape[0], w))


def chi_average(orbits, degree: int, n: int) -> float:
    if not orbits:
        return math.nan
    return degree ** (-float(n)) * math.fsum(o.n * o.chi for o in orbits)


def _by_length(orbits) -> list:
    """The stacked xs of the orbits of each length, in list order."""
    groups = {}
    for o in orbits:
        groups.setdefault(len(o.xs), []).append(o.xs)
    return [np.array(xs, dtype=complex) for xs in groups.values()]


def lambda_estimate(spec, which: str = "sper") -> hl.LyapunovEstimate:
    orbits = select(spec, which)
    d, n = spec.map.degree, spec.n
    count = sum(o.n for o in orbits)
    if count == 0:
        return hl.LyapunovEstimate(n=n, which=which, point_count=0,
                                   lambda_n=None, chi_sum_form=None, psi_sum_form=None)
    chi_sum = chi_average(orbits, d, n)
    psi_sum = d ** (-float(n)) * math.fsum(
        t for X in _by_length(orbits) for t in _psi_sum_rows(spec.map, X).tolist())
    return hl.LyapunovEstimate(n=n, which=which, point_count=count, lambda_n=chi_sum,
                               chi_sum_form=chi_sum, psi_sum_form=psi_sum)


def scan_sums(maps, per_cell, n: int, tols) -> tuple:
    """(lambda_n, lambda_prev, n_sinks, n_elliptic) of each cell from its list of orbits."""
    lam = np.full((2, len(maps)), np.nan)
    sinks, elliptic = np.zeros((2, len(maps)), dtype=int)
    for i, (m, found) in enumerate(zip(maps, per_cell)):
        for row, p in enumerate((n, max(n - 1, 1))):
            saddles = [o for o in found if o.kind == "saddle" and p % o.n == 0]
            lam[row][i] = chi_average(saddles, m.degree, p)
        sinks[i] = sum(o.kind == "sink" for o in found)
        if abs(abs(m.a) - 1.0) <= 1e-9:  # marginal orbits with both multipliers on |z| = 1
            elliptic[i] = sum(o.kind == "marginal" and abs(abs(o.lambda_u) - 1.0) <= tols.eps_hyp
                              and abs(abs(o.lambda_s) - 1.0) <= tols.eps_hyp for o in found)
    return lam[0], lam[1], sinks, elliptic
