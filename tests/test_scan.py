"""Parameter-disk scans and the discrete harmonicity defect."""

import dataclasses
import math

import numpy as np
import pytest

import henonlab as hl

SMALL = hl.FamilySpec(coeffs=(0.0 + 0.0j, 0.0), a=0.5, center=0.0 + 0.0j,
                      radius=0.1, grid_size=5)


class TestFamilySpec:
    def test_grid_geometry(self):
        g = SMALL.grid()
        assert g.shape == (5, 5)
        assert g[2, 2] == SMALL.center
        assert abs(g[2, 4] - (SMALL.center + 0.1)) < 1e-15
        assert abs(g[4, 2] - (SMALL.center + 0.1j)) < 1e-15
        assert abs(SMALL.step - 0.05) < 1e-15

    def test_disk_mask_drops_corners(self):
        mask = SMALL.disk_mask()
        assert not mask[0, 0] and not mask[4, 4]
        assert mask[2, 2] and mask[0, 2]

    def test_even_grid_rejected(self):
        with pytest.raises(ValueError):
            hl.FamilySpec(coeffs=(0j, 0.0), a=0.5, center=0j, radius=0.1, grid_size=6)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            hl.FamilySpec(coeffs=(0j, 0.0), a=0.5, center=0j, radius=0.1, grid_size=3)

    def test_bad_radius_and_slot(self):
        with pytest.raises(ValueError):
            hl.FamilySpec(coeffs=(0j, 0.0), a=0.5, center=0j, radius=0.0, grid_size=5)
        with pytest.raises(ValueError):
            hl.FamilySpec(coeffs=(0j, 0.0), a=0.5, center=0j, radius=0.1,
                          grid_size=5, slot=3)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, -0.1])
    def test_non_finite_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="radius"):
            hl.FamilySpec(coeffs=(0j, 0.0), a=0.5, center=0j, radius=radius, grid_size=5)

    @pytest.mark.parametrize("grid_size", [5.9, 7.5, math.nan, math.inf, "5"])
    def test_non_integral_grid_rejected(self, grid_size):
        with pytest.raises(ValueError, match="grid_size"):
            hl.FamilySpec(coeffs=(0j, 0.0), a=0.5, center=0j, radius=0.1, grid_size=grid_size)
        with pytest.raises(ValueError, match="grid_size"):
            hl.FamilySpec.from_spec(dict(SMALL.to_spec(), grid_size=grid_size))

    def test_integral_float_grid_accepted(self):
        fam = hl.FamilySpec.from_spec(dict(SMALL.to_spec(), grid_size=5.0))
        assert fam == SMALL and type(fam.grid_size) is int

    def test_non_finite_center_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            hl.FamilySpec(coeffs=(0j, 0.0), a=0.5, center=complex(math.nan, 0.0),
                          radius=0.1, grid_size=5)

    def test_spec_roundtrip(self):
        assert hl.FamilySpec.from_spec(SMALL.to_spec()) == SMALL

    @pytest.mark.parametrize("drop", ["p", "a", "center", "radius", "grid_size"])
    def test_malformed_spec(self, drop):
        spec = SMALL.to_spec()
        del spec[drop]
        with pytest.raises(ValueError, match="malformed family spec"):
            hl.FamilySpec.from_spec(spec)

    def test_map_at_substitutes_slot(self):
        m = SMALL.map_at(0.25 + 0.5j)
        assert m.coeffs[0] == 0.25 + 0.5j and m.a == 0.5


class TestStencil:
    def test_exact_on_harmonic_cubics(self):
        g = SMALL.grid()
        for field in (np.real(g**2), np.imag(g**3), np.real(g**3) - 2 * np.imag(g)):
            defect = hl.stencil_defect(field, SMALL.step)
            assert np.nanmax(defect) < 1e-9

    def test_laplacian_of_modulus_squared(self):
        defect = hl.stencil_defect(np.abs(SMALL.grid()) ** 2, SMALL.step)
        inner = defect[np.isfinite(defect)]
        assert np.allclose(inner, 4.0, atol=1e-8)

    def test_boundary_left_unset(self):
        defect = hl.stencil_defect(np.real(SMALL.grid() ** 2), SMALL.step)
        assert np.isnan(defect[0, :]).all() and np.isnan(defect[:, 0]).all()

    def test_validation_field_floor(self):
        v = hl.harmonic_validation_field(SMALL)
        defect = hl.stencil_defect(v, SMALL.step, SMALL.disk_mask())
        floor = hl.stencil_noise_floor(SMALL)
        assert floor > 0.0
        assert np.nanmax(defect) <= floor


class TestHarmonicFit:
    def test_reproduces_harmonic_polynomial(self):
        g = SMALL.grid()
        values = np.real(g**2) + 3 * np.imag(g) + 1.0
        fit = hl.harmonic_fit_field(SMALL, values, np.ones_like(values, dtype=bool))
        assert np.abs(fit - values).max() < 1e-9

    def test_flags_non_harmonic_field(self):
        values = np.abs(SMALL.grid()) ** 2
        fit = hl.harmonic_fit_field(SMALL, values, np.ones_like(values, dtype=bool))
        assert np.abs(fit - values).max() > 1e-6


@pytest.fixture(scope="module")
def small_scan():
    return hl.scan(SMALL, n=2)


class TestScan:
    def test_cells_complete_with_sinks(self, small_scan):
        assert small_scan.complete.all()
        assert (small_scan.n_sinks >= 1).all()  # the attracting fixed point

    def test_lambda_field_finite(self, small_scan):
        assert np.isfinite(small_scan.lambda_n).all()
        assert np.isfinite(small_scan.lambda_prev).all()

    def test_defect_nonnegative_inside(self, small_scan):
        inner = small_scan.defect[np.isfinite(small_scan.defect)]
        assert inner.size > 0 and (inner >= 0).all()

    def test_determinism_across_reruns(self, small_scan):
        again = hl.scan(SMALL, n=2)
        assert hl.scan_to_csv(again) == hl.scan_to_csv(small_scan)

    def test_csv_layout(self, small_scan):
        lines = hl.scan_to_csv(small_scan).strip().split("\n")
        assert lines[0] == ("re_c,im_c,complete,lambda_n,lambda_prev_n,"
                            "n_sinks,n_elliptic,laplacian_defect")
        assert len(lines) == 1 + 25
        for line in lines[1:]:
            for value in line.split(","):
                if value:
                    float(value)  # plain numbers, not numpy scalar reprs

    def test_volume_preserving_guard(self):
        fam = hl.FamilySpec(coeffs=(0.0 + 0.0j, 0.0), a=1.0, center=0.0 + 0.0j,
                            radius=0.05, grid_size=5)
        fld = hl.scan(fam, n=1)
        assert (fld.n_sinks == 0).all()
        assert fld.n_elliptic[2, 2] >= 1  # the multiplier pair +-i at c = 0

    def test_bad_period(self):
        with pytest.raises(ValueError):
            hl.scan(SMALL, n=0)

    def test_noise_floor_positive(self, small_scan):
        assert hl.lyapunov_noise_floor(small_scan) > 0.0
        assert np.isfinite(hl.max_interior_defect(small_scan))

    def test_no_finite_defect_reads_nan(self, small_scan):
        fld = dataclasses.replace(small_scan, defect=np.full_like(small_scan.defect, math.nan))
        assert math.isnan(hl.max_interior_defect(fld))


def _check_cells_against_enumeration(family, fld, cells):
    """Each cell's scan record equals the one built from enumerate_fix of its own map."""
    n = fld.n
    for i, j in cells:
        m = family.map_at(fld.c[i, j])
        specs = {p: hl.enumerate_fix(m, p) for p in range(1, n + 1)}
        for got, p in ((fld.lambda_n, n), (fld.lambda_prev, n - 1)):
            want = hl.lambda_estimate(specs[p], "sper").lambda_n
            assert np.float64(got[i, j]).tobytes() == np.float64(want).tobytes()
        sinks = sum(o.kind == "sink" for p, s in specs.items() for o in s.orbits if o.n == p)
        assert fld.n_sinks[i, j] == sinks
        assert fld.complete[i, j] == all(s.complete for s in specs.values())


def test_scan_cells_equal_their_own_enumeration(sink_family, sink_scan):
    _check_cells_against_enumeration(sink_family, sink_scan, [(5, 5), (0, 0), (3, 8)])


def test_cubic_scan_cells_equal_their_own_enumeration():
    # p' of the quadratic families does not depend on c, so their multipliers
    # do not tell the cells' maps apart; sweeping the x coefficient does
    fam = hl.FamilySpec(coeffs=(0.3 + 0.2j, -1.5, 0.1j), a=0.4 - 0.3j, center=-1.5,
                        radius=0.2, grid_size=5, slot=1)
    fld = hl.scan(fam, n=3)
    _check_cells_against_enumeration(fam, fld, [(i, j) for i in (0, 2, 4) for j in (0, 1, 3)])
