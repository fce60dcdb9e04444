"""Shared fixtures: the expensive enumeration and scan runs are done once
per session and reused by the unit tests and the acceptance gate."""

import time

import pytest

import henonlab as hl

#: wall-clock seconds of the expensive session runs, for the runtime gates
TIMINGS = {}


@pytest.fixture(scope="session")
def horseshoe_map():
    return hl.quadratic_map(-6.0, 0.3)


@pytest.fixture(scope="session")
def mixed_map():
    return hl.quadratic_map(0.0, 0.5)


@pytest.fixture(scope="session")
def near_1d_map():
    return hl.quadratic_map(0.0, 1e-3)


@pytest.fixture(scope="session")
def horseshoe_spectra(horseshoe_map):
    t0 = time.perf_counter()
    out = {n: hl.enumerate_fix(horseshoe_map, n)
           for n in range(1, 11)}
    TIMINGS["horseshoe_spectra"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def mixed_spectra(mixed_map):
    return {n: hl.enumerate_fix(mixed_map, n)
            for n in range(1, 11)}


@pytest.fixture(scope="session")
def near_1d_spectrum(near_1d_map):
    return hl.enumerate_fix(near_1d_map, 8)


@pytest.fixture(scope="session")
def horseshoe_family():
    return hl.FamilySpec(coeffs=(-6.0 + 0.0j, 0.0), a=0.3, center=-6.0 + 0.0j,
                         radius=0.25, grid_size=11)


@pytest.fixture(scope="session")
def sink_family():
    return hl.FamilySpec(coeffs=(0.0 + 0.0j, 0.0), a=0.5, center=0.0 + 0.0j,
                         radius=0.25, grid_size=11)


@pytest.fixture(scope="session")
def horseshoe_scan(horseshoe_family):
    t0 = time.perf_counter()
    fld = hl.scan(horseshoe_family, n=6)
    TIMINGS["horseshoe_scan"] = time.perf_counter() - t0
    return fld


@pytest.fixture(scope="session")
def sink_scan(sink_family):
    t0 = time.perf_counter()
    fld = hl.scan(sink_family, n=6)
    TIMINGS["sink_scan"] = time.perf_counter() - t0
    return fld
