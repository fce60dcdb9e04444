"""Unstable directions, the expansion cocycle, and finite-n Lyapunov
averages with their built-in cross-check."""

import dataclasses
import math

import numpy as np
import pytest

import henonlab as hl
from henonlab.exponents import orbit_psi_sum
from henonlab.orbits import PeriodSpectrum, _certify_rows, _classify_rows

MIXED = hl.quadratic_map(0.0, 0.5)
LAMBDA_U = (3 + math.sqrt(7)) / 2  # unstable multiplier at the saddle (1.5, 1.5)


def _saddle():
    return hl.classify(MIXED, np.array([1.5 + 0j]))


def _sink():
    return hl.classify(MIXED, np.array([0.0 + 0j]))


def _sink_block():
    """``_sink()`` as the one row of an OrbitBlock."""
    X = np.array([[0.0 + 0j]])
    ok, rho, _ = _certify_rows(MIXED, X)
    return _classify_rows(MIXED, X, ok, rho)


class TestUnstableDirection:
    def test_eigenvector_at_fixed_saddle(self):
        u = hl.unstable_direction(MIXED, _saddle())
        # eigenvector of [[3, -0.5], [1, 0]] for lambda_u is prop to (lambda_u, 1)
        assert abs(u.dir[0] / u.dir[1] - LAMBDA_U) < 1e-10

    def test_eigen_residual(self, horseshoe_spectra):
        for o in horseshoe_spectra[5].orbits[:4]:
            u = hl.unstable_direction(horseshoe_spectra[5].map, o, 0)
            M = np.eye(2, dtype=complex)
            for pt in o.points:
                M = horseshoe_spectra[5].map.jacobian(pt) @ M
            r = M @ u.dir - o.lambda_u * u.dir
            assert np.linalg.norm(r) / abs(o.lambda_u) < 1e-8

    def test_equivariance(self, horseshoe_spectra):
        m = horseshoe_spectra[4].map
        o = horseshoe_spectra[4].orbits[0]
        u0 = hl.unstable_direction(m, o, 0)
        u1 = hl.unstable_direction(m, o, 1)
        w = m.jacobian(u0.base) @ u0.dir
        w = w / np.linalg.norm(w)
        w = w / (w[np.argmax(np.abs(w))] / abs(w[np.argmax(np.abs(w))]))
        assert np.abs(w - u1.dir).max() < 1e-6

    def test_real_saddle_real_direction(self):
        u = hl.unstable_direction(MIXED, _saddle())
        assert np.abs(u.dir.imag).max() < 1e-12

    def test_rejects_non_saddle(self):
        with pytest.raises(ValueError):
            hl.unstable_direction(MIXED, _sink())

    @pytest.mark.parametrize("v", [[0.0, 0.0], [math.nan, 1.0], [math.inf, 0.0]],
                             ids=["zero", "nan", "inf"])
    def test_direction_must_be_nonzero_and_finite(self, v):
        with pytest.raises(ValueError, match="nonzero finite"):
            hl.UnstableDirection(base=(1.5, 1.5), dir=np.array(v, dtype=complex))

    def test_scalar_monodromy_has_no_unstable_direction(self):
        # at xs = (0, 0) both p' vanish and the monodromy is -a I
        with pytest.raises(ValueError, match="defective monodromy"):
            hl.unstable_direction(MIXED, dataclasses.replace(_saddle(), xs=np.zeros(2, dtype=complex)))

    def test_period_is_the_length_of_xs(self, horseshoe_spectra):
        # a record carrying two of the three points of a Fix_3 orbit: n, the
        # points and the direction all read the two points it holds
        s = horseshoe_spectra[3]
        o = next(o for o in s.orbits if o.n == 3)
        cut = dataclasses.replace(o, xs=o.xs[:2])
        assert cut.n == len(cut.points) == 2
        u = hl.unstable_direction(s.map, cut, 1)
        assert u.base == cut.points[1] and np.isclose(np.linalg.norm(u.dir), 1.0)


class TestPsi:
    def test_fixed_point_value(self):
        u = hl.unstable_direction(MIXED, _saddle())
        assert abs(hl.psi(MIXED, u) - math.log(LAMBDA_U)) < 1e-10

    def test_telescoping(self, horseshoe_spectra):
        s = horseshoe_spectra[4]
        for o in s.orbits:
            assert abs(orbit_psi_sum(s.map, o) - o.log_lambda_u) < 1e-6

    def test_orbit_average_floor(self, mixed_spectra):
        # lambda_s lambda_u = a^n forces chi >= (1/2) log|a|
        floor = 0.5 * math.log(abs(MIXED.a))
        for s in mixed_spectra.values():
            for o in s.orbits:
                assert o.chi >= floor - 1e-9


class TestLambdaEstimate:
    def test_fix_oracle(self, mixed_spectra):
        est = hl.lambda_estimate(mixed_spectra[1], "fix")
        want = 0.5 * (math.log(LAMBDA_U) + math.log(1 / math.sqrt(2)))
        assert est.point_count == 2
        assert abs(est.lambda_n - want) < 1e-10

    def test_sper_oracle(self, mixed_spectra):
        est = hl.lambda_estimate(mixed_spectra[1], "sper")
        assert est.point_count == 1
        assert abs(est.lambda_n - 0.5 * math.log(LAMBDA_U)) < 1e-10

    def test_cross_form_agreement(self, mixed_spectra, horseshoe_spectra):
        for spectra in (mixed_spectra, horseshoe_spectra):
            for s in spectra.values():
                for which in ("fix", "sper"):
                    est = hl.lambda_estimate(s, which)
                    if est.point_count:
                        assert est.agreement_gap < 1e-6

    def test_horseshoe_lower_bound(self, horseshoe_spectra):
        est = hl.lambda_estimate(horseshoe_spectra[6], "sper")
        assert est.lambda_n >= math.log(2) - 0.01

    def test_empty_selection(self):
        sink_only = PeriodSpectrum(map=MIXED, n=1, blocks=[_sink_block()], complete=False)
        est = hl.lambda_estimate(sink_only, "sper")
        assert est.point_count == 0
        assert est.lambda_n is None and est.agreement_gap is None

    def test_estimate_floor(self, mixed_spectra):
        # averages can never fall below the Jacobian floor (1/2) log|a|
        floor = 0.5 * math.log(abs(MIXED.a))
        for s in mixed_spectra.values():
            est = hl.lambda_estimate(s, "fix")
            assert est.lambda_n >= floor - 1e-9
