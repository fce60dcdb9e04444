"""Map arithmetic, escape geometry and the escape-rate potentials."""

import math

import numpy as np
import pytest

import henonlab as hl
from henonlab.maps import ESCAPE_THRESHOLD


def _close(u, v, tol=1e-12):
    return abs(u - v) <= tol


class TestConstruction:
    def test_degree_and_coeff_coercion(self):
        m = hl.HenonMap(coeffs=(1, 2, 3), a=0.5)
        assert m.degree == 3
        assert all(isinstance(c, complex) for c in m.coeffs)

    def test_degree_below_two_rejected(self):
        with pytest.raises(ValueError):
            hl.HenonMap(coeffs=(1.0,), a=0.5)

    def test_zero_jacobian_rejected(self):
        with pytest.raises(ValueError):
            hl.HenonMap(coeffs=(0.0, 0.0), a=0.0)

    @pytest.mark.parametrize("coeffs, a", [
        ((math.nan, 0.0), 0.5),
        ((0.0, 0.0), math.nan),
        ((0.0, complex(0.0, math.inf)), 0.5),
        ((-math.inf, 0.0), 0.5),
        ((0.0, 0.0, 0.0), complex(0.5, math.nan)),
    ])
    def test_non_finite_coefficients_rejected(self, coeffs, a):
        with pytest.raises(ValueError, match="finite"):
            hl.HenonMap(coeffs=coeffs, a=a)

    @pytest.mark.parametrize("coeffs", [(1e308, 0.0), (0.0, 0.0, 1e200)])
    def test_huge_coefficients_overflow_the_filtration_radius(self, coeffs):
        m = hl.HenonMap(coeffs=coeffs, a=0.5)
        with pytest.raises(OverflowError):
            m.filtration_radius

    def test_spec_roundtrip(self):
        m = hl.HenonMap(coeffs=(1 + 2j, -0.5), a=0.3 - 0.1j)
        assert hl.HenonMap.from_spec(m.to_spec()) == m

    def test_malformed_spec(self):
        with pytest.raises(ValueError):
            hl.HenonMap.from_spec({"a": [0.5, 0.0]})


class TestEvaluate:
    # p = x^2, a = 0.5 throughout; hand-checkable
    m = hl.quadratic_map(0.0, 0.5)

    def test_origin_fixed(self):
        assert self.m.evaluate((0, 0)) == (0, 0)

    def test_other_fixed_point(self):
        # x^2 = (1 + a) x  =>  x = 1.5
        fx, fy = self.m.evaluate((1.5, 1.5))
        assert _close(fx, 1.5) and _close(fy, 1.5)

    def test_substitution(self):
        assert self.m.evaluate((2, 0)) == (4, 2)

    def test_inverse_formula(self):
        assert self.m.inverse((4, 2)) == (2, 0)

    def test_inverse_roundtrip_sampled(self):
        rng = np.random.default_rng(7)
        R = self.m.filtration_radius
        pts = R * (rng.uniform(-1, 1, (1000, 4)))
        for px, py, qx, qy in pts:
            pt = (complex(px, py), complex(qx, qy))
            back = self.m.inverse(self.m.evaluate(pt))
            err = max(abs(back[0] - pt[0]), abs(back[1] - pt[1]))
            assert err < 1e-10 * (1 + abs(pt[0]) + abs(pt[1]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            self.m.evaluate((float("nan"), 0))

    def test_overflow_raises_escape(self):
        with pytest.raises(hl.EscapeOverflow):
            self.m.evaluate((1e200, 0))


class TestJacobian:
    m = hl.quadratic_map(0.0, 0.5)

    def test_at_origin(self):
        J = self.m.jacobian((0, 0))
        assert np.allclose(J, [[0, -0.5], [1, 0]])

    def test_at_saddle(self):
        J = self.m.jacobian((1.5, 1.5))
        assert np.allclose(J, [[3, -0.5], [1, 0]])

    def test_determinant_constancy(self):
        m = hl.HenonMap(coeffs=(1 - 2j, 0.25, 0.0), a=0.7 + 0.2j)
        rng = np.random.default_rng(11)
        for _ in range(100):
            z = complex(*rng.uniform(-3, 3, 2)), complex(*rng.uniform(-3, 3, 2))
            det = np.linalg.det(m.jacobian(z))
            assert abs(det - m.a) < 1e-13 * abs(m.a)


class TestFiltrationRadius:
    def test_quadratic_no_constant(self):
        # R^2 = (1 + 0.5) R
        assert _close(hl.quadratic_map(0.0, 0.5).filtration_radius, 1.5, 1e-10)

    def test_quadratic_with_constant(self):
        # R^2 = 1.3 R + 6, largest root by the quadratic formula
        want = (1.3 + math.sqrt(1.3**2 + 24.0)) / 2.0
        assert _close(hl.quadratic_map(-6.0, 0.3).filtration_radius, want, 1e-9)

    def test_monotone_in_constant_term(self):
        r1 = hl.quadratic_map(-6.0, 0.3).filtration_radius
        r2 = hl.quadratic_map(-12.0, 0.3).filtration_radius
        assert r2 > r1

    def test_escape_invariant(self):
        m = hl.quadratic_map(-6.0, 0.3)
        R = m.filtration_radius
        rng = np.random.default_rng(3)
        for _ in range(200):
            r = R * (1 + rng.uniform(0, 2))
            x = r * np.exp(1j * rng.uniform(0, 2 * np.pi))
            y = rng.uniform(0, r) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            fx, _ = m.evaluate((x, y))
            assert abs(fx) > abs(x)


class TestGreen:
    m = hl.quadratic_map(0.0, 0.5)

    def test_zero_at_fixed_point(self):
        assert self.m.green_plus((1.5, 1.5)) == 0.0
        assert self.m.green_minus((1.5, 1.5)) == 0.0

    def test_large_x_asymptotic(self):
        # first coordinate squares each step, so the telescoped estimate
        # converges to log|x| + O(1/|x|)
        g = self.m.green_plus((1e10, 0.0))
        assert abs(g - math.log(1e10)) < 1e-6

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            pt = (complex(*rng.uniform(-4, 4, 2)), complex(*rng.uniform(-4, 4, 2)))
            assert self.m.green_plus(pt) >= 0.0
            assert self.m.green_minus(pt) >= 0.0

    def test_bad_max_iter(self):
        with pytest.raises(ValueError):
            self.m.green_plus((0, 0), max_iter=0)

    def test_vanishes_on_certified_orbits(self, mixed_spectra):
        # forward potential at enumerated periodic points (max_iter = 100)
        for o in mixed_spectra[4].orbits:
            for pt in o.points:
                assert mixed_spectra[4].map.green_plus(pt, max_iter=100) < 1e-6

    def test_high_precision_greens_on_strongly_hyperbolic_orbits(self, horseshoe_spectra):
        # backward iteration amplifies double-precision point error too
        # fast on this map; the extended-precision path resolves it
        s = horseshoe_spectra[4]
        for o in s.orbits[:3]:
            gp, gm = hl.orbit_greens_hp(s.map, o.xs)
            assert gp < 1e-12 and gm < 1e-12
