"""Empirical measures, binned total-variation distance, moments."""

import math

import numpy as np
import pytest

import henonlab as hl
from henonlab.measures import _bin_keys, moment_orders


def _atom(x, y, w):
    return hl.EmpiricalMeasure(np.array([[x, y]], dtype=complex), np.array([w]))


def _discrepancy_by_unique(m1, m2, resolution):
    """Reference: cells from ``np.unique(axis=0)``, masses added by ``np.add.at``."""
    keys = np.vstack([_bin_keys(m1, resolution), _bin_keys(m2, resolution)])
    signed = np.concatenate([m1.weights, -m2.weights])
    uniq, inv = np.unique(keys, axis=0, return_inverse=True)
    mass = np.zeros(uniq.shape[0])
    np.add.at(mass, inv, signed)
    return 0.5 * float(np.abs(mass).sum())


class TestEmpiricalMeasure:
    def test_mixed_fix1_atoms(self, mixed_spectra):
        mu = hl.empirical_measure(mixed_spectra[1], "fix")
        assert mu.points.shape == (2, 2)
        assert np.allclose(mu.weights, 0.5)
        xs = sorted(mu.points[:, 0].real)
        assert abs(xs[0]) < 1e-10 and abs(xs[1] - 1.5) < 1e-10

    def test_horseshoe_fix4_total(self, horseshoe_spectra):
        mu = hl.empirical_measure(horseshoe_spectra[4], "fix")
        assert mu.points.shape[0] == 16
        assert np.allclose(mu.weights, 1 / 16)
        assert abs(mu.total - 1.0) < 1e-12

    def test_sper_equals_fix_on_all_saddle_spectrum(self, horseshoe_spectra):
        s = horseshoe_spectra[6]
        assert hl.discrepancy(hl.empirical_measure(s, "fix"),
                              hl.empirical_measure(s, "sper")) == 0.0

    def test_mass_bound(self, mixed_spectra):
        for s in mixed_spectra.values():
            assert hl.empirical_measure(s, "fix").total <= 1.0 + 1e-12

    def test_atoms_lie_in_the_bounded_set(self, mixed_spectra):
        s = mixed_spectra[4]
        mu = hl.empirical_measure(s, "fix")
        for x, y in mu.points:
            assert s.map.green_plus((x, y), max_iter=100) < 1e-6
            assert s.map.green_minus((x, y), max_iter=100) < 1e-6

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            hl.EmpiricalMeasure(np.array([[0, 0]], dtype=complex), np.array([-1.0]))

    def test_one_weight_per_point(self):
        with pytest.raises(ValueError, match="length mismatch"):
            hl.EmpiricalMeasure(np.zeros((2, 2), dtype=complex), np.array([0.5]))


class TestDiscrepancy:
    def test_self_distance_zero(self, horseshoe_spectra):
        mu = hl.empirical_measure(horseshoe_spectra[5], "fix")
        assert hl.discrepancy(mu, mu, 0.25) == 0.0

    def test_empty_measures_agree(self):
        empty = hl.EmpiricalMeasure(np.zeros((0, 2), dtype=complex), np.zeros(0))
        assert hl.discrepancy(empty, empty) == 0.0

    def test_disjoint_atoms(self):
        m1 = _atom(0.0, 0.0, 0.3)
        m2 = _atom(5.0, 5.0, 0.3)
        assert abs(hl.discrepancy(m1, m2, 1.0) - 0.3) < 1e-15

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(9)
        ms = [hl.EmpiricalMeasure(rng.normal(size=(6, 2)) + 0j,
                                  np.full(6, 1 / 6)) for _ in range(3)]
        d01 = hl.discrepancy(ms[0], ms[1], 0.5)
        d10 = hl.discrepancy(ms[1], ms[0], 0.5)
        d02 = hl.discrepancy(ms[0], ms[2], 0.5)
        d12 = hl.discrepancy(ms[1], ms[2], 0.5)
        assert d01 == d10
        assert d02 <= d01 + d12 + 1e-15

    @pytest.mark.parametrize("resolution", [1e-12, 0.3, 2.0])
    def test_equals_the_unique_reference_bit_for_bit(self, resolution):
        rng = np.random.default_rng(17)
        for _ in range(100):
            # coarse points around 0 repeat cells and give negative keys
            ms = [hl.EmpiricalMeasure(np.round(rng.normal(scale=3, size=(k, 2, 2)) * 2)
                                      .view(complex)[..., 0] / 2, rng.random(k))
                  for k in rng.integers(0, 30, 2)]
            assert hl.discrepancy(*ms, resolution) == _discrepancy_by_unique(*ms, resolution)

    def test_catalogues_equal_the_unique_reference(self, horseshoe_spectra, mixed_spectra):
        for spectra in (horseshoe_spectra, mixed_spectra):
            mus = [hl.empirical_measure(spectra[n], "fix") for n in (7, 10)]
            for resolution in (1e-12, 1.0 / 32.0, 0.3):
                assert hl.discrepancy(*mus, resolution) == _discrepancy_by_unique(*mus, resolution)

    def test_round_off_imaginary_parts_do_not_move_it(self, horseshoe_spectra):
        # the horseshoe's orbits are stored exactly real; imaginary round-off
        # of either sign, as a polish in complex arithmetic leaves, must not
        # move the discrepancy
        real = [hl.empirical_measure(horseshoe_spectra[n], "fix") for n in (8, 10)]
        assert not any(mu.points.imag.any() for mu in real)
        rng = np.random.default_rng(1729)
        mus = [hl.EmpiricalMeasure(mu.points + 1e-17j * np.abs(mu.points)
                                   * rng.choice((-1.0, 1.0), mu.points.shape), mu.weights)
               for mu in real]
        assert all((mu.points.imag > 0).any() and (mu.points.imag < 0).any() for mu in mus)
        assert hl.discrepancy(*mus) == hl.discrepancy(*real)

    def test_bad_resolution(self):
        with pytest.raises(ValueError):
            hl.discrepancy(_atom(0, 0, 1), _atom(0, 0, 1), 0.0)

    @pytest.mark.parametrize("resolution", [math.nan, math.inf])
    def test_non_finite_resolution(self, resolution):
        # nan passed a test of resolution <= 0; inf put every point in one cell
        with pytest.raises(ValueError):
            hl.discrepancy(_atom(0, 0, 1), _atom(1, 0, 1), resolution)

    def test_convergence_trend(self, horseshoe_spectra):
        mus = {n: hl.empirical_measure(horseshoe_spectra[n], "fix") for n in (4, 8, 9)}
        assert hl.discrepancy(mus[4], mus[9]) > hl.discrepancy(mus[8], mus[9])

    def test_cross_set_gap_decays_at_mixed_parameter(self, mixed_spectra):
        # one sink orbit of weight d^-n separates fix from sper
        gaps = []
        for n in (4, 6, 8):
            s = mixed_spectra[n]
            gaps.append(hl.discrepancy(hl.empirical_measure(s, "fix"),
                                       hl.empirical_measure(s, "sper")))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 2.0 ** -8


class TestMoments:
    def test_zero_order_is_total_mass(self, mixed_spectra):
        mu = hl.empirical_measure(mixed_spectra[3], "fix")
        mo = hl.moments(mu, 2)
        assert abs(mo[(0, 0)] - mu.total) < 1e-14

    def test_order_listing(self):
        assert moment_orders(2) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]

    def test_real_map_real_moments(self, horseshoe_spectra):
        mu = hl.empirical_measure(horseshoe_spectra[6], "fix")
        for v in hl.moments(mu, 3).values():
            assert abs(v.imag) < 1e-10

    def test_moment_gaps_at_round_off(self, horseshoe_spectra):
        # the low moments stabilize to round-off well before n = 9, so
        # the convergence gap is only asserted up to the summation floor
        mus = {n: hl.empirical_measure(horseshoe_spectra[n], "fix") for n in (4, 8, 9)}
        mos = {n: hl.moments(v, 3) for n, v in mus.items()}
        scale = max(abs(v) for v in mos[9].values())
        floor = 100 * np.finfo(float).eps * scale
        for order in moment_orders(3):
            g4 = abs(mos[4][order] - mos[9][order])
            g8 = abs(mos[8][order] - mos[9][order])
            assert g8 <= max(g4, floor)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            hl.moments(_atom(0, 0, 1), 0)
