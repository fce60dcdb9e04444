"""Spectra held as blocks of columns, against the per-orbit references of
``per_orbit``: the same counts, selections, measure points, Lyapunov
estimates and scan sums, to the bit."""

import functools

import numpy as np
import pytest

import henonlab as hl
import per_orbit
from henonlab.exponents import lambda_estimates
from henonlab.orbits import DEFAULT_TOLERANCES, _catalogue, _certify_rows, _classify_rows

HORSESHOE = hl.quadratic_map(-6.0, 0.3)
MIXED = hl.quadratic_map(0.0, 0.5)
CUBIC = hl.HenonMap(coeffs=(0.3 + 0.2j, -1.5, 0.1j), a=0.4 - 0.3j)
COMPLEX_A = hl.quadratic_map(-0.8 + 0.4j, 0.6 - 0.5j)

#: name -> (map, n); "sink-only" is the spectrum of ``test_empty_selection``
SPECTRA = {**{f"horseshoe-{n}": (HORSESHOE, n) for n in range(1, 13)},
           **{f"mixed-{n}": (MIXED, n) for n in range(1, 13)},
           "cubic-6": (CUBIC, 6), "complex-a-8": (COMPLEX_A, 8), "sink-only": None}


@functools.cache
def _spectrum(name):
    if SPECTRA[name] is None:
        X = np.array([[0.0 + 0j]])
        ok, rho, _ = _certify_rows(MIXED, X)
        return hl.PeriodSpectrum(map=MIXED, n=1, blocks=[_classify_rows(MIXED, X, ok, rho)],
                                 complete=False)
    return hl.enumerate_fix(*SPECTRA[name])


def _bits(orbit):
    """Every field of an orbit record, floats to the last bit."""
    return repr(dict(vars(orbit), xs=orbit.xs.tolist()))


@pytest.mark.parametrize("name", list(SPECTRA))
def test_columns_match_the_per_orbit_references(name):
    s = _spectrum(name)
    assert s.counts == per_orbit.counts(s)
    for which in ("fix", "per", "sper"):
        got = [o for b in s.select(which) for o in b]
        assert [_bits(o) for o in got] == [_bits(o) for o in per_orbit.select(s, which)]
        mu, ref = hl.empirical_measure(s, which), per_orbit.empirical_measure(s, which)
        assert mu.points.tobytes() == ref.points.tobytes()
        assert mu.weights.tobytes() == ref.weights.tobytes()
        assert repr(hl.lambda_estimate(s, which)) == repr(per_orbit.lambda_estimate(s, which))
    # one cocycle pass over the rows of all three classes gives each class's estimate
    assert ([repr(e) for e in lambda_estimates(s, ["fix", "per", "sper"])]
            == [repr(per_orbit.lambda_estimate(s, w)) for w in ("fix", "per", "sper")])


def test_the_orbits_view_is_built_once_from_the_blocks():
    s = hl.enumerate_fix(MIXED, 4)
    assert s.orbits is s.orbits
    assert [_bits(o) for o in s.orbits] == [_bits(o) for b in s.blocks for o in b]
    assert [len(b) for b in s.blocks] == [2, 1, 3] and [b.period for b in s.blocks] == [1, 2, 4]


@pytest.mark.parametrize("family, n", [
    (hl.FamilySpec(coeffs=(0j, 0.0), a=0.5, center=0j, radius=0.25, grid_size=5), 6),
    # |a| = 1, so the elliptic fixed points near c = 0 are counted
    (hl.FamilySpec(coeffs=(0j, 0.0), a=1.0, center=0j, radius=0.25, grid_size=5), 2),
    (hl.FamilySpec(coeffs=(0.3 + 0.2j, -1.5, 0.1j), a=0.4 - 0.3j, center=-1.5 + 0j,
                   radius=0.2, grid_size=5, slot=1), 4),
], ids=["sink", "conservative", "cubic-x"])
def test_scan_sums_match_the_per_cell_reference(family, n):
    maps = [family.map_at(c) for c in family.grid().ravel()]
    found = _catalogue(maps, range(1, n + 1), hl.DEFAULT_RNG_SEED, DEFAULT_TOLERANCES)[0]
    per_cell = [[o for owner, b in found.values() for o in b.take(owner == i)]
                for i in range(len(maps))]
    fld = hl.scan(family, n)
    want = per_orbit.scan_sums(maps, per_cell, n, DEFAULT_TOLERANCES)
    for got, ref in zip((fld.lambda_n, fld.lambda_prev, fld.n_sinks, fld.n_elliptic), want):
        assert got.dtype == ref.dtype and got.ravel().tobytes() == ref.tobytes()
    assert (fld.n_elliptic > 0).any() == (family.a == 1.0)
