"""Cyclic orbit system: residuals, the Newton polish, certification,
enumeration, classification and exact periods."""

import dataclasses
import json
import math
import re
import time

import mpmath as mp
import numpy as np
import pytest

import henonlab as hl
from henonlab.orbits import SPECTRUM_SCHEMA, spectrum_from_dict, spectrum_to_dict

MIXED = hl.quadratic_map(0.0, 0.5)

# roots of t^2 + 1.5 t + 2.25 = 0: the x-values of the exact period-2
# orbit of p = x^2, a = 0.5 (sum -1.5, product 2.25 by elimination)
P2 = np.array([-0.75 + 1.2990381056766578j, -0.75 - 1.2990381056766578j])


def _legacy_json(spec) -> str:
    """The spectrum JSON as written before schema 2: ``indent=1``, one float pair per point."""
    return json.dumps({
        "map": spec.map.to_spec(), "n": spec.n, "complete": spec.complete,
        "counts": {"fix": spec.counts["fix"],
                   "per": {str(k): v for k, v in sorted(spec.counts["per"].items())},
                   "sper": spec.counts["sper"]},
        "orbits": [{"period": o.n, "xs": [[complex(z).real, complex(z).imag] for z in o.xs],
                    "lambda_s": [o.lambda_s.real, o.lambda_s.imag],
                    "lambda_u": [o.lambda_u.real, o.lambda_u.imag],
                    "chi": o.chi, "kind": o.kind, "residual": o.residual,
                    "certified": o.certified, "radius": o.certificate_radius}
                   for o in spec.orbits],
    }, indent=1)


class TestCyclicSystem:
    def test_fixed_point_residual_zero(self):
        r = hl.cyclic_residual(MIXED, np.array([1.5 + 0j]))
        assert np.abs(r).max() < 1e-14

    def test_substitution(self):
        r = hl.cyclic_residual(MIXED, np.array([1.0 + 0j]))
        assert np.allclose(r, [-0.5])

    def test_period_two_oracle(self):
        r = hl.cyclic_residual(MIXED, P2)
        assert np.abs(r).max() < 1e-12

    def test_jacobian_n1_collapses_bands(self):
        # at n = 1 the sub- and superdiagonal wrap onto the diagonal
        J = hl.cyclic_jacobian(MIXED, np.array([1.5 + 0j]))
        assert J.shape == (1, 1)
        assert abs(J[0, 0] - (2 * 1.5 - 0.5 - 1.0)) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_jacobian_keeps_mpmath_precision(self, n):
        # at n = 2 the sub- and superdiagonal entries coincide; -a - 1 must be
        # summed in mpmath, not rounded to a double as a Python complex
        m = hl.quadratic_map(0.25, 1.1983581723860424)
        with mp.workdps(40):
            z = np.array([mp.mpc(0.3 * k + 0.1, -0.2 * k) for k in range(n)], dtype=object)
            J = hl.cyclic_jacobian(m, z)
            for i in range(n):
                for j in range(n):
                    want = mp.mpc(0)
                    if i == j:
                        want += 2 * z[i]
                    if j == (i - 1) % n:
                        want -= mp.mpc(m.a)
                    if j == (i + 1) % n:
                        want -= 1
                    assert isinstance(J[i, j], mp.mpc) and J[i, j] == want

    @pytest.mark.parametrize("coeffs", [(0.3 - 0.1j, 0.0), (0.3 + 0.2j, -1.5, 0.1j),
                                        (0.5, 0.2, -0.3j, 0.1)], ids=["d2", "d3", "d4"])
    def test_homotopy_matches_the_complex_power(self, coeffs):
        # the start system's x^(d-1) is formed by multiplies; at d = 2 it is
        # X itself, so H, dH/dt and the diagonal keep the bits of X ** 1
        m = hl.HenonMap(coeffs=coeffs, a=0.4 - 0.3j)
        rng = np.random.default_rng(5)
        X = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
        gamma, t = np.exp(2j * rng.random((6, 1))), rng.random((6, 1))
        rows = hl.orbits._MapRows.stack([m], np.zeros(6, dtype=int))
        d, Xd1 = m.degree, X ** (m.degree - 1)
        G, F = gamma * (X * Xd1 - 1.0), hl.orbits.cyclic_residual(rows, X)
        diag = (1.0 - t) * gamma * d * Xd1 + t * rows.dp(X)
        # H alone, then H_t alone, each with the diagonal
        for h_t, want in ((False, ((1.0 - t) * G + t * F, diag)), (True, (F - G, diag))):
            got = hl.orbits._homotopy(rows, gamma, X, t, h_t=h_t)
            assert len(got) == 2
            for mine, ref in zip(got, want):
                if d == 2:
                    assert mine.tobytes() == ref.tobytes()
                else:
                    assert np.allclose(mine, ref, rtol=1e-13, atol=0)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(size=5) + 1j * rng.normal(size=5)
        J = hl.cyclic_jacobian(MIXED, xs)
        h = 1e-7
        for j in range(5):
            e = np.zeros(5, dtype=complex)
            e[j] = h
            col = (hl.cyclic_residual(MIXED, xs + e) - hl.cyclic_residual(MIXED, xs)) / h
            assert np.abs(col - J[:, j]).max() < 1e-5


# x* = 0.75 is a double root of p(x) = (1 + a) x for p = x^2 + 0.5625,
# a = 0.5, so p'(x*) = 1 + a and the cyclic Jacobian at the constant vector
# is singular for every n
SADDLE_NODE = hl.quadratic_map(0.5625, 0.5)


def _newton_rows(m, *rows):
    """``orbits._newton`` on the given rows of one length."""
    return hl.orbits._newton(m, np.array(rows, dtype=complex))


class TestNewtonRefine:
    def test_converges_to_fixed_point(self):
        X = _newton_rows(MIXED, [1.4])
        assert abs(X[0, 0] - 1.5) < 1e-15
        assert np.abs(hl.cyclic_residual(MIXED, X[0])).max() < 1e-15

    def test_exact_zero_is_returned(self, monkeypatch):
        solves = []
        solve = hl.orbits._band_solve
        monkeypatch.setattr(hl.orbits, "_band_solve", lambda *args: solves.append(1) or solve(*args))
        X0 = np.array([[1.5 + 0j], [1.5 - 0j]])
        X = hl.orbits._newton(MIXED, X0)
        # its correction is 0: it stops after one solve, with its bits, signed zeros too
        assert len(solves) == 1 and X.tobytes() == X0.tobytes()

    def test_seed_outside_safety_region(self):
        X = _newton_rows(MIXED, [100.0])
        assert abs(X[0, 0]) > 2 * MIXED.filtration_radius

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_double_fixed_point_is_singular(self, n, monkeypatch):
        # (at n = 3 LAPACK's last pivot rounds to a nonzero value, so
        # singularity is judged by the singular values, not by an exactly
        # zero pivot)
        flags = []
        solve = hl.orbits._band_solve

        def recording(*args):
            S, bad = solve(*args)
            flags.append(bad.copy())
            return S, bad

        monkeypatch.setattr(hl.orbits, "_band_solve", recording)
        X = _newton_rows(SADDLE_NODE, [0.75] * n)
        assert [f.tolist() for f in flags] == [[True]]
        assert (X == 0.75).all()

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_batch_rows_are_judged_alone(self, n):
        # each row of a batch ends where it ends alone, whatever the other
        # rows do: converge, stop at once, leave the safety radius or meet a
        # singular solve; the certificate, not Newton, then judges the rows,
        # and it rejects the one that Newton brought to the double root 0.75
        maps = [MIXED, SADDLE_NODE]
        cases = [(0, 1.4), (0, 1.5), (0, 100.0), (1, 0.75), (1, 0.75 + 1e-3), (0, 1.4 + 0.1j)]
        owner = np.array([i for i, _ in cases])
        rows = hl.orbits._MapRows.stack(maps, owner)
        X = hl.orbits._newton(rows, np.array([[x] * n for _, x in cases], dtype=complex))
        for r, (i, x) in enumerate(cases):
            assert X[r].tobytes() == _newton_rows(maps[i], [x] * n)[0].tobytes()
        ok = hl.orbits._certify_rows(rows, X)[0]
        assert ok.tolist() == [True, True, False, False, False, True]

    def test_zero_thomas_pivot_takes_dense_solve(self, monkeypatch):
        # at the fixed point 0 of p = x^2 the diagonal vanishes and, at even n,
        # the last Thomas pivot is -a + a = 0 although J is regular
        dense = []
        lapack = hl.orbits._lapack_solve

        def recording_lapack(J, F):
            dense.append(J.copy())
            return lapack(J, F)

        monkeypatch.setattr(hl.orbits, "_lapack_solve", recording_lapack)
        X = np.zeros((2, 4), dtype=complex)
        X[1] = [0.1, 0.2j, -0.3, 0.4]
        F = np.ones((2, 4), dtype=complex)
        S, bad = hl.orbits._band_solve(MIXED.dp(X), -MIXED.a, -1.0, F)
        # only the row at the fixed point 0 is solved densely, on its own Jacobian
        assert len(dense) == 1 and np.array_equal(dense[0], hl.cyclic_jacobian(MIXED, X[:1]))
        assert not bad.any()
        assert np.abs(S - np.linalg.solve(hl.cyclic_jacobian(MIXED, X), F[..., None])[..., 0]).max() < 1e-14


class TestCertify:
    def test_exact_fixed_point_certified(self):
        ok, rho = hl.certify(MIXED, np.array([1.5 + 0j]))
        assert ok and rho > 0

    def test_large_residual_rejected(self):
        ok, rho = hl.certify(MIXED, np.array([1.6 + 0j]))
        assert not ok and rho == 0.0

    def test_certified_orbits_separated(self, horseshoe_spectra):
        s = horseshoe_spectra[6]
        for i, o1 in enumerate(s.orbits):
            for o2 in s.orbits[i + 1:]:
                if o1.n != o2.n:
                    continue
                gap = hl.rotation_distance(o1.xs, o2.xs)
                assert gap > o1.certificate_radius + o2.certificate_radius

    def test_radius_covers_extended_precision_orbit(self, horseshoe_spectra, mixed_spectra):
        # the radius must also absorb the rounding error of the double
        # residual, or the true orbit can lie just outside it
        for spectra in (horseshoe_spectra, mixed_spectra):
            s = spectra[8]
            for o in s.orbits:
                assert o.certified
                z = hl.refine_orbit_hp(s.map, o.xs)
                with mp.workdps(60):
                    dist = float(max(abs(zk - complex(xk)) for zk, xk in zip(z, o.xs)))
                assert dist <= o.certificate_radius


class TestRealOrbits:
    """A certified orbit of a real map that conjugation proves real is stored with imaginary parts +0.0."""

    @staticmethod
    def _real(spec):
        return [o for o in spec.orbits if not o.xs.imag.any()]

    def test_horseshoe_orbits_are_real(self, horseshoe_map, horseshoe_spectra):
        # every point of the real horseshoe is real (Devaney-Nitecki)
        spectra = dict(horseshoe_spectra)
        spectra.update({n: hl.enumerate_fix(horseshoe_map, n) for n in (11, 12)})
        for n, s in spectra.items():
            assert s.complete and self._real(s) == s.orbits
            for o in s.orbits:
                assert np.signbit(o.xs.imag).sum() == 0
                assert np.array_equal(hl.canonical_rotation(o.xs), o.xs)
                z = hl.refine_orbit_hp(s.map, o.xs, dps=30)
                with mp.workdps(30):
                    assert all(zk.imag == 0 for zk in z)
                    dist = float(max(abs(zk - xk.real) for zk, xk in zip(z, o.xs)))
                assert dist <= o.certificate_radius

    def test_reversible_horseshoe_keeps_canonical_rotations(self):
        # at a = 1 the map is reversible and a symmetric orbit repeats its
        # coordinates, so rotations tie in the leading real key, where the
        # dropped imaginary round-off had chosen among them
        m = hl.quadratic_map(-12.0, 1.0)
        for n in range(4, 9):
            s = hl.enumerate_fix(m, n)
            assert s.complete and self._real(s) == s.orbits
            assert all(np.array_equal(hl.canonical_rotation(o.xs), o.xs) for o in s.orbits)

    def test_mixed_map_has_two_real_orbits(self, mixed_spectra):
        # p = x^2, a = 0.5: the fixed points 0 and 1.5 are its only real points
        real = self._real(mixed_spectra[8])
        assert [o.n for o in real] == [1, 1]
        assert np.allclose([o.xs[0].real for o in real], [0.0, 1.5], atol=1e-15)
        assert all(o.xs.imag.any() for o in mixed_spectra[8].orbits if o.n > 1)

    def test_conjugate_pair_stays_complex(self):
        # just past the saddle-node at c = 9/16 the two fixed points
        # 0.75 +- i sqrt(c - 9/16) are a conjugate pair 1e-3 off the real axis
        s = hl.enumerate_fix(hl.quadratic_map(0.5625 + 1e-6, 0.5), 1)
        assert s.complete and len(s.orbits) == 2
        assert sorted(o.xs[0].imag for o in s.orbits) == pytest.approx([-1e-3, 1e-3], rel=1e-6)

    def test_complex_a_has_no_real_row(self):
        # a is 1e-9 off the real axis, so every orbit is within about 1e-9
        # of real, but the map is not real and conjugation proves nothing
        s = hl.enumerate_fix(hl.quadratic_map(-6.0, 0.3 + 1e-9j), 6)
        assert s.complete
        assert max(np.abs(o.xs.imag).max() for o in s.orbits) < 1e-7
        assert self._real(s) == []

    def test_real_cubic_keeps_its_complex_orbits(self):
        s = hl.enumerate_fix(hl.HenonMap(coeffs=(0.3, -1.5, 0.1), a=0.4), 3)
        assert s.complete
        small = [o for o in s.orbits if np.abs(o.xs.imag).max() < 1e-9]
        assert self._real(s) == small and len(small) == 3


class TestClassify:
    def test_sink_at_origin(self):
        o = hl.classify(MIXED, np.array([0.0 + 0j]))
        assert o.kind == "sink"
        assert abs(abs(o.lambda_u) - 1 / math.sqrt(2)) < 1e-12
        assert abs(abs(o.lambda_s) - 1 / math.sqrt(2)) < 1e-12

    def test_saddle_multipliers(self):
        o = hl.classify(MIXED, np.array([1.5 + 0j]))
        lu = (3 + math.sqrt(7)) / 2
        assert o.kind == "saddle"
        assert abs(o.lambda_u - lu) < 1e-12
        assert abs(o.lambda_s - 0.5 / lu) < 1e-12
        assert abs(o.chi - math.log(lu)) < 1e-12

    def test_multiplier_product_is_jacobian_power(self, mixed_spectra):
        for n, s in mixed_spectra.items():
            for o in s.orbits:
                an = s.map.a ** o.n
                assert abs(o.lambda_s * o.lambda_u - an) < 1e-8 * abs(an)

    def test_monodromy_scaling_long_orbit(self, horseshoe_spectra):
        # chi stays finite and positive where raw 2x2 products overflow
        for o in horseshoe_spectra[10].orbits:
            assert math.isfinite(o.chi) and o.chi > 0


class TestVectorUtilities:
    def test_rotation_distance_on_rotations(self):
        v = np.array([1 + 1j, 2.0, 3 - 1j, 4.0])
        assert hl.rotation_distance(v, np.roll(v, 2)) < 1e-15
        assert hl.rotation_distance(v, v + 0.5) > 0.4

    def test_canonical_rotation_is_rotation_invariant(self):
        v = np.array([2.0 + 0j, 1.0, 3.0])
        for r in range(3):
            assert np.array_equal(hl.canonical_rotation(np.roll(v, r)),
                                  hl.canonical_rotation(v))

    def test_order_survives_one_ulp(self):
        # conjugate pairs of a real-parameter map have equal real parts up to
        # round-off; neither their places nor the chosen rotations may move
        # when every coordinate moves by one ulp
        rng = np.random.default_rng(7)
        s = hl.enumerate_fix(MIXED, 8)
        for k in sorted({o.n for o in s.orbits}):
            xs = np.array([o.xs for o in s.orbits if o.n == k])
            toward = np.where(rng.random((2,) + xs.shape) < 0.5, -np.inf, np.inf)
            bumped = np.nextafter(xs.real, toward[0]) + 1j * np.nextafter(xs.imag, toward[1])
            assert np.array_equal(hl.orbits._lex_order(bumped), np.arange(len(xs)))
            for row in bumped:
                assert hl.orbits._lex_order(hl.orbits._rotations(row))[0] == 0

    @pytest.mark.parametrize("call", [
        hl.canonical_rotation,
        lambda xs: hl.certify(MIXED, xs),
        lambda xs: hl.classify(MIXED, xs),
        # the saddle (1.5, 1.5) carrying a malformed xs; a horseshoe Fix_3 orbit
        # stacked to (2, 3) gave a psi sum of 9.67, twice its 4.83
        lambda xs: hl.exponents.orbit_psi_sum(MIXED, dataclasses.replace(hl.classify(MIXED, [1.5]), xs=xs)),
        lambda xs: hl.unstable_direction(MIXED, dataclasses.replace(hl.classify(MIXED, [1.5]), xs=xs)),
    ], ids=["canonical_rotation", "certify", "classify", "orbit_psi_sum",
            "unstable_direction"])
    @pytest.mark.parametrize("xs", [np.zeros(0, dtype=complex), np.ones((2, 3)), np.ones((1, 1)), 1.5],
                             ids=["empty", "2-d", "1x1", "scalar"])
    def test_one_row_calls_reject_other_shapes(self, call, xs):
        with pytest.raises(ValueError, match=re.escape(str(np.shape(xs)))):
            call(xs)

    @pytest.mark.parametrize("u, v", [([1.0, 2.0], [1.0, 2.0, 3.0]), ([], []), ([[1.0]], [[1.0]]),
                                      ([1.0], 1.0)], ids=["unequal", "empty", "2-d", "scalar"])
    def test_rotation_distance_rejects_other_shapes(self, u, v):
        with pytest.raises(ValueError, match="shapes"):
            hl.rotation_distance(np.array(u, dtype=complex), np.array(v, dtype=complex))


class TestEnumerate:
    def test_mixed_fix1(self, mixed_spectra):
        s = mixed_spectra[1]
        assert s.complete and s.counts["fix"] == 2
        xs = sorted(complex(o.xs[0]).real for o in s.orbits)
        assert abs(xs[0] - 0.0) < 1e-10 and abs(xs[1] - 1.5) < 1e-10

    def test_mixed_fix2_decomposition(self, mixed_spectra):
        s = mixed_spectra[2]
        assert s.counts == {"fix": 4, "per": {1: 2, 2: 2}, "sper": 2}
        orbit2 = [o for o in s.orbits if o.n == 2]
        assert len(orbit2) == 1
        assert hl.rotation_distance(orbit2[0].xs, P2) < 1e-8

    def test_horseshoe_fix4_all_saddles(self, horseshoe_spectra):
        s = horseshoe_spectra[4]
        assert s.complete and s.counts["fix"] == 16
        assert all(o.kind == "saddle" and o.certified for o in s.orbits)

    def test_invariance_under_the_map(self, mixed_spectra):
        s = mixed_spectra[4]
        pts = np.array([z for o in s.orbits for z, _ in o.points])
        for o in s.orbits:
            for pt in o.points:
                img = s.map.evaluate(pt)
                assert np.abs(pts - img[0]).min() < 1e-8

    def test_conjugation_symmetry(self, horseshoe_spectra):
        s = horseshoe_spectra[3]
        for o in s.orbits:
            conj = np.conj(o.xs)
            assert any(hl.rotation_distance(conj, q.xs) < 1e-8
                       for q in s.orbits if q.n == o.n)

    def test_determinism_across_reruns(self):
        m = hl.quadratic_map(-6.0, 0.3)
        j1 = hl.spectrum_to_json(hl.enumerate_fix(m, 5))
        j2 = hl.spectrum_to_json(hl.enumerate_fix(m, 5))
        assert j1 == j2

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            hl.enumerate_fix(MIXED, 3, budget=4)

    def test_bad_period(self):
        with pytest.raises(ValueError):
            hl.enumerate_fix(MIXED, 0)

    def test_over_count_raises(self, horseshoe_map, monkeypatch):
        # an orbit handed back twice and not recognised as one is over-counted
        monkeypatch.setattr(hl.orbits, "rotation_distance", lambda *args, **kw: math.inf)
        track = hl.orbits._track_and_check

        def doubled(*args):
            ends, failed = track(*args)
            w = max(ends)  # the first row of the widest length, twice
            ends[w] = tuple(np.concatenate((c, c[:1])) for c in ends[w])
            return ends, failed

        monkeypatch.setattr(hl.orbits, "_track_and_check", doubled)
        with pytest.raises(hl.AmbiguousOrbitError):
            hl.enumerate_fix(horseshoe_map, 4)

    @staticmethod
    def _dropping(monkeypatch, every_attempt, length=4):
        """Make the checks hand back one width-``length`` orbit twice in place of another.

        The orbit lost is the second width-``length`` endpoint of attempt 0;
        with ``every_attempt`` it is lost on every retrack as well.  Returns
        the widths checked in each ``_track_and_check`` call, widest first.
        """
        track = hl.orbits._track_and_check
        lost, lengths = [], []

        def jumping(maps, owner, X, width):
            ends, failed = track(maps, owner, X, width)
            lengths.append(sorted(set(width.tolist()), reverse=True))
            if length in width and (every_attempt or not lost):
                mine = ends[length][1]
                if not lost:
                    lost.append(mine[1])
                keep = np.flatnonzero([hl.rotation_distance(x, lost[0]) >= 1e-8 for x in mine])
                rows = np.concatenate((keep, np.repeat(keep[:1], len(mine) - keep.size)))
                ends[length] = tuple(c[rows] for c in ends[length])
            return ends, failed

        monkeypatch.setattr(hl.orbits, "_track_and_check", jumping)
        return lengths

    def test_jumped_path_is_retracked(self, horseshoe_map, monkeypatch):
        clean = hl.enumerate_fix(horseshoe_map, 4)
        lengths = self._dropping(monkeypatch, every_attempt=False)
        s = hl.enumerate_fix(horseshoe_map, 4)
        assert lengths == [[4, 2, 1], [4]]  # one check per attempt
        assert s.complete and s.counts == clean.counts
        assert s.budget_used == clean.budget_used + 3  # the three length-4 paths again
        for o in s.orbits:
            assert min(hl.rotation_distance(o.xs, q.xs) - q.certificate_radius
                       for q in clean.orbits if q.n == o.n) <= o.certificate_radius

    def test_persistent_fault_leaves_spectrum_incomplete(self, horseshoe_map, monkeypatch):
        lengths = self._dropping(monkeypatch, every_attempt=True)
        s = hl.enumerate_fix(horseshoe_map, 4)
        assert lengths == [[4, 2, 1], [4], [4]]
        assert not s.complete
        assert s.counts["per"] == {1: 2, 2: 2, 4: 8}
        assert s.budget_used == 2 + 1 + 3 * 3

    def test_budget_caps_tracked_paths(self, horseshoe_map, monkeypatch):
        # Fix_1 tracks both fixed points; a retrack of both needs a budget of 4
        for budget, complete, used in ((3, False, 2), (4, True, 4)):
            with monkeypatch.context() as patch:
                self._dropping(patch, every_attempt=False, length=1)
                s = hl.enumerate_fix(horseshoe_map, 1, budget=budget)
            assert (s.complete, s.budget_used) == (complete, used)

    @pytest.mark.parametrize("m, n, used, once", [
        (hl.HenonMap(coeffs=(0.3 + 0.2j, -1.5 + 0.08j, 0.1j), a=0.4 - 0.3j), 6, 246, (723, 0)),
        (hl.HenonMap(coeffs=(-0.6 + 0.5j, 0j), a=0.3 - 0.4j), 8, 66, (248, 1)),
    ], ids=["cubic-fix6-jump", "quadratic-fix8-failed-endpoint"])
    def test_retrack_rescues_an_orbit(self, m, n, used, once, monkeypatch):
        # no fault is injected: at attempt 0 a path of the cubic ends on an
        # orbit already found (a duplicate, so no unresolved endpoint), and
        # one endpoint of the quadratic fails its checks; the retrack with
        # the next gamma finds the orbit each attempt 0 missed
        orb = hl.orbits
        necklaces = sum(len(orb._lyndon_words(m.degree, k)) for k in orb._divisors(n))
        s = hl.enumerate_fix(m, n)
        assert s.complete and s.counts["fix"] == m.degree**n and not s.unresolved
        assert (necklaces, s.budget_used) == ({6: 130, 8: 36}[n], used)
        assert _euler_jacobi_ratio(_euler_jacobi_terms(s)) <= TestEulerJacobi.BOUND
        monkeypatch.setattr(orb, "_ATTEMPTS", 1)
        s = hl.enumerate_fix(m, n)
        assert not s.complete and s.budget_used == necklaces
        assert (s.counts["fix"], len(s.unresolved)) == once

    @pytest.mark.parametrize("delta", [1e-13, 4e-14, 1e-14])
    def test_near_double_fixed_point_is_complete(self, delta):
        # p = x^2 + 0.5625 - delta, a = 0.5 has its two fixed points
        # 0.75 +- sqrt(delta) within 1e-6 of each other, and the paths heading
        # there may stop short of t = 1.  Their polished endpoints certify, so
        # every Fix_n must still be complete.
        m = hl.quadratic_map(0.5625 - delta, 0.5)
        for n in range(1, 5):
            s = hl.enumerate_fix(m, n)
            assert s.complete and s.counts["fix"] == 2**n and not s.unresolved

    def test_degenerate_map_is_incomplete_quickly(self):
        # the origin of p = x^2, a = 1 is elliptic with multipliers +-i, so it
        # is a multiple fixed point of f^4 and length-4 paths end on it
        t0 = time.perf_counter()
        s = hl.enumerate_fix(hl.quadratic_map(0.0, 1.0), 4)
        assert not s.complete and s.unresolved
        assert time.perf_counter() - t0 < 20.0

    def test_select_classes(self, mixed_spectra):
        s = mixed_spectra[2]
        assert sum(map(len, s.select("fix"))) == 3      # all orbits
        assert sum(map(len, s.select("per"))) == 1      # the exact period-2 orbit
        kinds = {o.kind for b in s.select("sper") for o in b}
        assert kinds == {"saddle"}
        with pytest.raises(ValueError):
            s.select("nope")


class TestCertificateDecides:
    """The certificate's radius rho and reach alone decide exact period
    (``_track_and_check``) and orbit identity (``_merge``)."""

    XS = np.array([1.0 + 0.5j, 2.0 - 1j, -0.5 + 0.25j])

    def test_tiled_orbit_fails_the_period_rule(self):
        # P2 repeated is a zero of the length-4 system, and a simple one:
        # it certifies, but its shift by 2 moves it by 0 <= 2 rho
        orb = hl.orbits
        tiled = np.tile(P2, 2)
        assert hl.certify(MIXED, tiled)[0]
        ends, failed = orb._track_and_check([MIXED], np.array([0]), tiled[None], np.array([4]))
        assert ends == {} and [(w, i, len(x)) for w in failed for i, x in zip(*failed[w])] == [(4, 0, 4)]
        ends, failed = orb._track_and_check([MIXED], np.array([0]), P2[None], np.array([2]))
        assert failed == {} and list(ends) == [2] and len(ends[2][0]) == 1
        owner, xs, rho, reach = (c[0] for c in ends[2])
        assert owner == 0 and 0 < rho < reach and hl.rotation_distance(xs, P2) <= rho
        assert np.abs(xs[0] - xs[1]) > 2 * rho

    @staticmethod
    def _cols(*rows):
        """Rows (owner, xs, radius, reach) as ``_merge``'s columns."""
        return tuple(map(np.array, zip(*rows)))

    @staticmethod
    def _counting(monkeypatch):
        calls, rd = [], hl.orbits.rotation_distance
        monkeypatch.setattr(hl.orbits, "rotation_distance", lambda u, v: calls.append((u, v)) or rd(u, v))
        return calls

    def test_rows_further_apart_than_their_radii_are_two_orbits(self, monkeypatch):
        # the coordinate sums agree, so the pair is compared; 1e-6 > 2e-10
        calls = self._counting(monkeypatch)
        kept = hl.orbits._merge(self._cols((0, self.XS, 1e-10, 1e-3)),
                                self._cols((0, np.roll(self.XS + [1e-6, -1e-6, 0], 1), 1e-10, 1e-3)))
        assert len(kept[0]) == 2 and len(calls) == 1

    def test_a_rotation_within_the_radii_is_one_orbit(self, monkeypatch):
        # 1e-11 <= 2e-10, and 3e-10 < reach: one orbit; the other map's copy
        # and a copy within the new rows are handled alike
        calls = self._counting(monkeypatch)
        kept = self._cols((0, self.XS, 1e-10, 1e-3))
        new = self._cols((0, np.roll(self.XS, 2) + 1e-11, 1e-10, 1e-3), (1, self.XS, 1e-10, 1e-3),
                         (1, np.roll(self.XS, 1), 1e-10, 1e-3))
        kept = hl.orbits._merge(kept, new)
        assert [(i, x.tobytes()) for i, x, _, _ in zip(*kept)] == [(0, self.XS.tobytes()),
                                                                  (1, self.XS.tobytes())]
        assert len(calls) == 2

    def test_radii_that_decide_nothing_raise(self):
        # 1e-7 apart within radii of 1e-6, but 1e-6 + 2e-6 reaches past 2e-6
        kept = self._cols((0, self.XS, 1e-6, 2e-6))
        with pytest.raises(hl.AmbiguousOrbitError, match="neither separate"):
            hl.orbits._merge(kept, self._cols((0, self.XS + 1e-7, 1e-6, 2e-6)))

    def test_conjugates_are_told_apart_by_their_sums(self, monkeypatch):
        calls = self._counting(monkeypatch)
        kept = hl.orbits._merge(self._cols((0, self.XS, 1e-10, 1e-3)),
                                self._cols((0, np.conj(self.XS), 1e-10, 1e-3)))
        assert len(kept[0]) == 2 and calls == []

    def test_mixed_fix12_compares_no_conjugate_pair_with_a_complex_sum(self, monkeypatch):
        # the 342 rows of mixed Fix_12 that are conjugate pairs share the real
        # part of their coordinate sums, and a window on that part compared
        # all 171 pairs; the complex sums leave only the one pair whose sums
        # are real to round-off, where no sum can tell the two apart
        calls = self._counting(monkeypatch)
        s = hl.enumerate_fix(MIXED, 12)
        assert s.complete
        paired = 0
        for b in s.blocks:
            sums = b.xs.sum(axis=1)
            partner = np.abs(sums[:, None] - np.conj(sums)) < 1e-9
            np.fill_diagonal(partner, False)
            paired += np.count_nonzero(partner.any(axis=1))
        assert paired == 342
        assert len(calls) == 1
        for u, v in calls:
            assert max(abs(u.sum().imag), abs(v.sum().imag)) < 1e-14
            assert hl.rotation_distance(np.conj(u), v) < 1e-14


def _euler_jacobi_terms(s) -> np.ndarray:
    """k / ((1 - lambda_s^(n/k)) (1 - lambda_u^(n/k))) for each orbit of Fix_n, k its
    period: the orbit's share of the sum of 1 / det J over the zeros of the cyclic
    system, det J = -det(I - Df^n) at each of its k points."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.concatenate([np.zeros(0, complex)] + [
            b.period / ((1 - b.lambda_s ** (s.n // b.period)) * (1 - b.lambda_u ** (s.n // b.period)))
            for b in s.blocks])


def _euler_jacobi_ratio(terms) -> float:
    """|sum| / sum |term|: nan for no terms or an infinite one."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(abs(terms.sum()) / np.abs(terms).sum())


def _power_terms(s, j: int) -> tuple[np.ndarray, np.ndarray]:
    """(sum_i x_i^j) / det J_n for each orbit of Fix_n, J_n the dense length-n cyclic
    Jacobian of the orbit repeated n/k times: the orbit's share of the sum of
    x_0^j / det J over the zeros of the cyclic system, which are its k rotations.
    Also which orbits' power sums vanish to their rounding, k eps sum_i |x_i|^j."""
    sums = [(b.xs**j).sum(axis=1) for b in s.blocks]
    dets = [np.linalg.det(hl.cyclic_jacobian(s.map, np.tile(b.xs, (1, s.n // b.period)))) for b in s.blocks]
    tiny = [np.abs(p) <= b.period * np.finfo(float).eps * (np.abs(b.xs)**j).sum(axis=1)
            for p, b in zip(sums, s.blocks)]
    return (np.concatenate([np.zeros(0, complex)] + [p / det for p, det in zip(sums, dets)]),
            np.concatenate([np.zeros(0, bool)] + tiny))


class TestEulerJacobi:
    """The cyclic system has leading forms x_k^d, so it has d^n zeros and
    none at infinity; when all are simple, the Euler-Jacobi theorem gives
    sum g / det J = 0 over them for every polynomial g of degree < n (d - 1)
    (Khovanskii 1978; Cattani & Dickenstein 2005, ch. 1).  With g = 1 that
    sum reads only the stored multipliers.  Neither form shares code with
    the tracker, the merge or the certificate."""

    #: largest |sum| / sum |term| measured: 2.5e-14, and 3.5e-11 just below
    #: the saddle-node, where two fixed points nearly meet
    BOUND, NEAR_SADDLE_NODE_BOUND = 1e-13, 1e-10

    @pytest.mark.parametrize("m, ns, bound", [
        (hl.quadratic_map(-6.0, 0.3), (1, 2, 4, 8, 10), BOUND),
        (MIXED, (1, 2, 4, 8, 10), BOUND),
        (hl.quadratic_map(-1 + 0.2j, 0.3 - 0.4j), (1, 2, 4, 8, 10), BOUND),
        (hl.quadratic_map(-1.1, 0.2), (1, 2, 4, 8, 10), BOUND),
        (hl.HenonMap(coeffs=(0.3 + 0.2j, -1.5, 0.1j), a=0.4 - 0.3j), (1, 2, 4, 6), BOUND),
        (hl.quadratic_map(0.5625 - 1e-6, 0.5), (1, 2, 4, 8, 10), NEAR_SADDLE_NODE_BOUND),
    ], ids=["horseshoe", "mixed", "complex-a", "sink", "cubic", "near-saddle-node"])
    def test_sum_vanishes_on_complete_catalogues(self, m, ns, bound):
        for n in ns:
            s = hl.enumerate_fix(m, n)
            assert s.complete
            t = _euler_jacobi_terms(s)
            assert _euler_jacobi_ratio(t) <= bound, n
            # one orbit dropped or counted twice breaks the identity
            for k in range(len(t)):
                for wrong in (np.delete(t, k), np.append(t, t[k])):
                    assert _euler_jacobi_ratio(wrong) > 100 * bound, (n, k)

    # g = x_0^j, 1 <= j <= 3 and j < n (d - 1), from the xs and the dense
    # Jacobian: largest |sum| / sum |term| measured 2.5e-14 (sink) and 3.5e-11
    # (near-saddle-node); dropping an orbit whose power sum is not at
    # round-off raised it to at least 3.9e-7
    @pytest.mark.parametrize("m, ns, bound", [
        (hl.quadratic_map(-6.0, 0.3), (2, 4, 8, 10, 12), BOUND),
        (MIXED, (2, 4, 8, 10, 12), BOUND),
        (hl.quadratic_map(-1 + 0.2j, 0.3 - 0.4j), (2, 4, 8, 10), BOUND),
        (hl.quadratic_map(-1.1, 0.2), (2, 4, 8, 10), BOUND),
        (hl.HenonMap(coeffs=(0.3 + 0.2j, -1.5, 0.1j), a=0.4 - 0.3j), (1, 2, 4, 6), BOUND),
        (hl.quadratic_map(0.5625 - 1e-6, 0.5), (2, 4, 6), NEAR_SADDLE_NODE_BOUND),
    ], ids=["horseshoe", "mixed", "complex-a", "sink", "cubic", "near-saddle-node"])
    def test_power_sums_vanish_on_complete_catalogues(self, m, ns, bound):
        for n in ns:
            s = hl.enumerate_fix(m, n)
            assert s.complete
            at_zero = np.concatenate([(b.xs == 0).all(axis=1) for b in s.blocks])
            seen = np.zeros_like(at_zero)
            for j in range(1, min(4, n * (m.degree - 1))):
                t, tiny = _power_terms(s, j)
                assert _euler_jacobi_ratio(t) <= bound, (n, j)
                # only an orbit at 0 (the mixed map's sink) adds exactly 0
                assert np.array_equal(t == 0, at_zero), (n, j)
                # dropping an orbit breaks the identity unless its power sum is at
                # round-off: the sink, and at j = 1, 2 three mixed Fix_12 orbits
                # with sum x_i = 0, hence sum x_i^2 = (1 + a) sum x_i = 0
                for k in np.flatnonzero(~tiny):
                    assert _euler_jacobi_ratio(np.delete(t, k)) > 100 * bound, (n, j, k)
                seen |= ~tiny
            assert np.array_equal(seen, ~at_zero), n  # every other orbit counts for some j

    @pytest.mark.parametrize("family", [
        hl.FamilySpec(coeffs=(0j, 0.0), a=0.5, center=0j, radius=0.25, grid_size=5),
        hl.FamilySpec(coeffs=(0.3 + 0.2j, -1.5, 0.1j), a=0.4 - 0.3j, center=-1.5 + 0j,
                      radius=0.2, grid_size=5, slot=1),
    ], ids=["sink", "cubic-x"])
    def test_sum_vanishes_in_every_scan_cell(self, family):
        # measured at most 2e-16 (sink) and 1.5e-15 (cubic-x)
        n, maps = 6, [family.map_at(c) for c in family.grid().ravel()]
        found, complete, _, _ = hl.orbits._catalogue(maps, range(1, n + 1), hl.DEFAULT_RNG_SEED)
        assert complete.all()
        for i, m in enumerate(maps):
            blocks = [b.take(owner == i) for k, (owner, b) in found.items() if n % k == 0]
            s = hl.PeriodSpectrum(m, n, blocks, True)
            assert sum(b.period * len(b) for b in blocks) == m.degree**n
            assert _euler_jacobi_ratio(_euler_jacobi_terms(s)) <= self.BOUND, i

    @pytest.mark.parametrize("c, ns", [(0.5625, (1, 2, 3, 4)), (-1.6875, (2, 4))],
                             ids=["saddle-node", "period-doubling"])
    def test_degenerate_maps_are_far_off(self, c, ns):
        # multiple fixed points: the theorem does not apply, and the
        # incomplete catalogues read O(1), or nan where Fix_1 of the
        # saddle-node holds no orbit or a multiplier is exactly -1
        for n in ns:
            s = hl.enumerate_fix(hl.quadratic_map(c, 0.5), n)
            assert not s.complete
            ratio = _euler_jacobi_ratio(_euler_jacobi_terms(s))
            assert not ratio <= 0.1, n


class TestLargeCoefficients:
    """The certificate alone judges a polished endpoint, so no absolute scale
    drops the orbits of a map with large coefficients, where |x| ~ 1e3-1e4
    and the round-off of the residual alone is 1e-10 to 3e-8: more than a
    fixed residual bound such as 1e-10 allows."""

    @pytest.mark.parametrize("n", [1, 4, 8])
    @pytest.mark.parametrize("c", [-1e6, -1e8])
    def test_catalogue_is_complete_and_sound(self, c, n):
        s = hl.enumerate_fix(hl.quadratic_map(c, 0.3), n)
        assert s.complete and s.counts["fix"] == 2**n and s.unresolved == []
        # measured at most 2.4e-15
        assert _euler_jacobi_ratio(_euler_jacobi_terms(s)) <= TestEulerJacobi.BOUND
        # the 60-digit re-polish moved no orbit by more than 0.034 of its radius
        for o in s.orbits:
            z = hl.refine_orbit_hp(s.map, o.xs)
            with mp.workdps(60):
                dist = float(max(abs(zk - complex(xk)) for zk, xk in zip(z, o.xs)))
            assert dist <= o.certificate_radius


class TestItineraries:
    """For p = x^2 + c, c < -(5 + 2 sqrt 5)(1 + |a|)^2 / 4, each sign sequence s of
    length n is the itinerary of exactly one point of Fix_n (Devaney & Nitecki 1979),
    the fixed point of the contraction x_k <- s_k sqrt(x_{k+1} + a x_{k-1} - c)
    (Sterling & Meiss 1998).  That shares no code with the tracker, the polish, the
    certificate or the merge."""

    C, A = -6.0, 0.3

    def test_catalogue_rotations_are_the_itinerary_orbits(self):
        assert self.C < -(5 + 2 * math.sqrt(5)) * (1 + abs(self.A)) ** 2 / 4
        m = hl.quadratic_map(self.C, self.A)
        for n in range(1, 13):
            # row r has s_i = -1 where bit i of r is set
            signs = 1 - 2 * ((np.arange(2**n)[:, None] >> np.arange(n)) & 1)
            X = signs * math.sqrt(-self.C)
            for _ in range(200):
                X = signs * np.sqrt(np.roll(X, -1, axis=1) + self.A * np.roll(X, 1, axis=1) - self.C)
            rows = []
            for o in hl.enumerate_fix(m, n).orbits:
                tiled = np.tile(o.xs, n // o.n)
                for r in range(o.n):
                    rot = np.roll(tiled, -r)
                    rows.append(int(((rot.real < 0) << np.arange(n)).sum()))
                    assert np.abs(rot - X[rows[-1]]).max() <= o.certificate_radius, (n, rows[-1])
            assert sorted(rows) == list(range(2**n)), n


def dense_band_solve(diag, sub, sup, F, layout=None):
    """The dense LAPACK solve that the cyclic-tridiagonal solve replaced, each row at its width."""
    B, n = diag.shape
    groups = [(0, B, n)] if layout is None else layout[0]
    width = np.repeat([w for _, _, w in groups], [b - a for a, b, _ in groups])
    sub, sup = (np.broadcast_to(np.reshape(s, -1), (B,)) for s in (sub, sup))
    S, bad = np.zeros_like(F), np.zeros(B, dtype=bool)
    for w in set(width.tolist()):
        rows = np.flatnonzero(width == w)
        J = np.zeros((rows.size, w, w), dtype=diag.dtype)
        i = np.arange(w)
        J[:, i, i] += diag[rows, :w]
        J[:, i, (i - 1) % w] += sub[rows, None]
        J[:, i, (i + 1) % w] += sup[rows, None]
        try:
            S[rows, :w] = np.linalg.solve(J, F[rows, :w, None])[..., 0]
        except np.linalg.LinAlgError:
            for r, j, f in zip(rows, J, F[rows, :w]):
                try:
                    S[r, :w] = np.linalg.solve(j, f)
                except np.linalg.LinAlgError:
                    bad[r] = True
    return S, bad


class TestSolveParity:
    @pytest.mark.parametrize("m, n", [
        (hl.quadratic_map(-6.0, 0.3), 8),
        (MIXED, 8),
        (hl.HenonMap(coeffs=(0.3 + 0.2j, -1.5, 0.1j), a=0.4 - 0.3j), 4),
    ], ids=["horseshoe", "mixed", "cubic"])
    def test_enumeration_matches_dense_solve(self, m, n, monkeypatch):
        # the tracker and the Newton polish both solve through _band_solve
        fast = hl.enumerate_fix(m, n)
        monkeypatch.setattr(hl.orbits, "_band_solve", dense_band_solve)
        ref = hl.enumerate_fix(m, n)
        assert fast.complete and ref.complete
        assert (fast.budget_used, fast.counts) == (ref.budget_used, ref.counts)
        # the same orbits up to rotation; conjugate pairs may swap places
        for a, b in ((fast, ref), (ref, fast)):
            for o in a.orbits:
                assert min(hl.rotation_distance(o.xs, q.xs) for q in b.orbits if q.n == o.n) < 1e-12


def per_length_catalogue(maps, ks, rng_seed, budget=math.inf):
    """The per-length loop that the host-length batches replaced.

    Every length is tracked in its own length-k system, one ``_track`` per
    length and attempt, with one gamma for all its rows; all else is as in
    ``_catalogue``.
    """
    orb = hl.orbits
    d = maps[0].degree
    orbits = [{} for _ in maps]
    complete = np.ones(len(maps), dtype=bool)
    unresolved = [[] for _ in maps]
    paths = 0
    for k in ks:
        starts = np.exp(2j * np.pi / d * np.array(orb._lyndon_words(d, k)))
        need = len(starts)
        kept = [orb._no_rows(k) for _ in maps]
        todo, failed = np.arange(len(maps)), orb._no_rows(k)[:2]
        for attempt in range(orb._ATTEMPTS):
            if paths + need * todo.size > budget:
                break
            owner = np.repeat(todo, need)
            paths += owner.size
            gamma = np.full((owner.size, 1), orb._gamma(rng_seed, k, attempt))
            X = orb._track(orb._MapRows.stack(maps, owner), np.tile(starts, (todo.size, 1)), gamma,
                           np.full(owner.size, k))
            ends, failed = orb._track_and_check(maps, owner, X, np.full(owner.size, k))
            ends, failed = ends.get(k, orb._no_rows(k)), failed.get(k, orb._no_rows(k)[:2])
            for i in np.unique(ends[0]):
                kept[i] = orb._merge(kept[i], tuple(c[ends[0] == i] for c in ends))
            todo = todo[np.array([len(kept[i][0]) for i in todo]) < need]
            if todo.size == 0:
                break
        complete[todo] = False
        for i, x in zip(*failed):
            if i in todo:
                unresolved[i].append(x)
        sizes = [len(o[0]) for o in kept]
        owner = np.repeat(np.arange(len(maps)), sizes)
        X = np.concatenate([o[1] for o in kept])
        order = orb._lex_order(X)
        order = order[np.argsort(owner[order], kind="stable")]
        radii = np.concatenate([o[2] for o in kept])[order]
        rows = list(orb._classify_rows(orb._MapRows.stack(maps, owner), X[order], [True] * len(X),
                                       radii))
        for i, end in enumerate(np.cumsum(sizes)):
            orbits[i][k] = rows[end - sizes[i]:end]
    return orbits, complete, paths, unresolved


def _tracked_widths(monkeypatch):
    """Record the row widths of every ``_track`` batch, each batch's distinct widths in order."""
    track, widths = hl.orbits._track, []

    def counted(rows, X, gamma, width):
        widths.append(sorted(set(width.tolist())))
        return track(rows, X, gamma, width)

    monkeypatch.setattr(hl.orbits, "_track", counted)
    return widths


def _track_solves(monkeypatch):
    """Count the ``_band_solve`` calls made inside ``_track``."""
    orb, count = hl.orbits, {"inside": False, "solves": 0}
    solve, track = orb._band_solve, orb._track

    def counted_solve(*args):
        count["solves"] += count["inside"]
        return solve(*args)

    def counted_track(*args):
        count["inside"] = True
        try:
            return track(*args)
        finally:
            count["inside"] = False

    monkeypatch.setattr(orb, "_band_solve", counted_solve)
    monkeypatch.setattr(orb, "_track", counted_track)
    return count


def _bits(orbit):
    """Every field of an orbit record, floats to the last bit."""
    return repr(dict(vars(orbit), xs=orbit.xs.tolist()))


class TestHostLengths:
    @pytest.mark.parametrize("m, n", [
        (hl.quadratic_map(-6.0, 0.3), 12),
        (MIXED, 12),
        (hl.HenonMap(coeffs=(0.3 + 0.2j, -1.5, 0.1j), a=0.4 - 0.3j), 6),
        (hl.quadratic_map(0.0, 1e-3), 8),
        (hl.quadratic_map(-0.8 + 0.4j, 0.6 - 0.5j), 6),
    ], ids=["horseshoe", "mixed", "cubic", "near1d", "complex-a"])
    def test_matches_the_per_length_loop(self, m, n):
        ks = hl.orbits._divisors(n)
        budget = 1000 * m.degree**n
        got = hl.orbits._catalogue([m], ks, 1729, budget=budget)
        ref = per_length_catalogue([m], ks, 1729, budget)
        assert got[1].tolist() == ref[1].tolist() and got[2] == ref[2]
        # one path per necklace: no length was tracked again
        assert got[2] == sum(len(hl.orbits._lyndon_words(m.degree, k)) for k in ks)
        assert len(got[3][0]) == len(ref[3][0])
        for k in ks:
            mine, theirs = got[0][k][1], ref[0][0][k]
            assert len(mine) == len(theirs)
            for o, r in zip(mine, theirs):
                if k == n:  # the length-n rows do the same arithmetic: equal to the bit
                    assert _bits(o) == _bits(r)
                else:
                    assert np.abs(o.xs - r.xs).max() <= r.certificate_radius
                    assert o.kind == r.kind

    @pytest.mark.parametrize("m, ceiling", [(hl.quadratic_map(-6.0, 0.3), 84), (MIXED, 273)],
                             ids=["horseshoe", "mixed"])
    def test_tracker_solves_fewer_than_a_fixed_corrector(self, m, ceiling, monkeypatch):
        # a step capped at 0.1 with three corrections each took 84 and 273
        # solves here; the contraction-steered step must stay below that
        count = _track_solves(monkeypatch)
        assert hl.enumerate_fix(m, 12).complete
        assert 0 < count["solves"] < ceiling

    @pytest.mark.parametrize("c, n, ceiling, per, unresolved", [
        (-1.6875, 2, 1404, {1: 2}, 1),
        (-1.6875, 4, 1512, {1: 2, 4: 12}, 1),
        (-1.6875, 6, 1404, {1: 2, 3: 6, 6: 54}, 1),
        (0.5625, 4, 1416, {2: 2, 4: 12}, 2),
    ], ids=["period-doubling-2", "period-doubling-4", "period-doubling-6", "saddle-node-4"])
    def test_no_step_retries_the_length_that_just_failed(self, c, n, ceiling, per, unresolved,
                                                         monkeypatch):
        # a step that doubled right after a rejection, back to the length that
        # had failed, took ``ceiling`` solves on these stalling paths
        count = _track_solves(monkeypatch)
        s = hl.enumerate_fix(hl.quadratic_map(c, 0.5), n)
        assert (s.counts["per"], s.complete, len(s.unresolved)) == (per, False, unresolved)
        assert 0 < count["solves"] < ceiling

    def test_sink_scan_solves_fewer_than_a_doubling_retry(self, monkeypatch):
        # the slowest row spent 16 of its 35 iterations on rejected steps
        # when a step doubled right after a rejection: 210 solves
        fam = hl.FamilySpec(coeffs=(0j, 0.0), a=0.5, center=0j, radius=0.25, grid_size=5)
        count = _track_solves(monkeypatch)
        fld = hl.scan(fam, 6)
        assert fld.complete.all() and (fld.n_sinks == 1).all() and not fld.n_elliptic.any()
        assert 0 < count["solves"] < 210

    def test_fix_n_is_one_track(self, horseshoe_map, monkeypatch):
        widths, checks = _tracked_widths(monkeypatch), []
        check = hl.orbits._track_and_check
        monkeypatch.setattr(hl.orbits, "_track_and_check",
                            lambda maps, owner, X, width: checks.append(sorted(set(width.tolist())))
                            or check(maps, owner, X, width))
        assert hl.enumerate_fix(horseshoe_map, 12).complete
        assert widths == [[12]]
        assert checks == [[1, 2, 3, 4, 6, 12]]  # and one check, of every length

    @pytest.mark.parametrize("m, n, tie_rows", [(hl.quadratic_map(-6.0, 0.3), 12, 0), (MIXED, 12, 0),
                                                (hl.quadratic_map(-12.0, 1.0), 8, 16)],
                             ids=["horseshoe", "mixed", "reversible"])
    def test_rotation_tables_only_where_first_coordinates_tie(self, m, n, tie_rows, monkeypatch):
        # the first coordinates' coarse keys decide every canonical shift of
        # Fix_12; the reversible map's symmetric orbits tie there
        orb, built = hl.orbits, []
        rotations, rotation_rows = orb._rotations, orb._rotation_rows

        def inside(X):
            monkeypatch.setattr(orb, "_rotations", lambda xs: built.append(len(xs)) or rotations(xs))
            try:
                return rotation_rows(X)
            finally:
                monkeypatch.setattr(orb, "_rotations", rotations)

        monkeypatch.setattr(orb, "_rotation_rows", inside)
        assert hl.enumerate_fix(m, n).complete
        assert sum(built) == tie_rows

    def test_scan_is_one_ragged_track_per_attempt(self, monkeypatch):
        # an n = 6 scan tracks 1, 2, 3 and 6 in host 6, 4 in 4 and 5 in 5,
        # every cell and host in one batch; one cell loses a length-4 orbit
        # at attempt 0, and its length 4 alone is tracked again
        fam = hl.FamilySpec(coeffs=(0j, 0.0), a=0.5, center=0j, radius=0.25, grid_size=5)
        widths = _tracked_widths(monkeypatch)
        lengths = TestEnumerate._dropping(monkeypatch, every_attempt=False)
        assert hl.scan(fam, 6).complete.all()
        assert widths == [[4, 5, 6], [4]]
        assert lengths == [[6, 5, 4, 3, 2, 1], [4]]  # one check per attempt, then the retrack

    @pytest.mark.parametrize("delta", [0.0, 1e-9])
    def test_fixed_point_of_multiplier_minus_one_in_its_host(self, delta, monkeypatch):
        # x = -0.75 is a fixed point of p = x^2 - 1.6875, a = 0.5 with
        # multiplier -1: in the length-2 system it is a double root, yet
        # tracked there as a repeated word it is still judged at length 1
        m = hl.quadratic_map(-1.6875 + delta, 0.5)
        widths = _tracked_widths(monkeypatch)
        for n in (2, 4, 6):
            assert hl.enumerate_fix(m, n).counts["per"][1] == 2
        assert {w for ws in widths for w in ws} == {2, 4, 6}

    def test_near_period_doubling_is_complete(self):
        m = hl.quadratic_map(-1.6875 + 1e-6, 0.5)
        for n in (1, 2, 4, 6):
            assert hl.enumerate_fix(m, n).complete


def _ragged_batch(maps, widths, per=6):
    """Start rows of every map and width, widest first, by ``_catalogue``'s
    recipe: at most ``per`` Lyndon words of each length k dividing w, each
    repeated w/k times with the gamma of k, and zeros past w; with each
    row's map index."""
    orb = hl.orbits
    d, top = maps[0].degree, max(widths)
    X, owner, gamma, width = [], [], [], []
    for w in sorted(widths, reverse=True):
        for k in orb._divisors(w):
            words = np.exp(2j * np.pi / d * np.array(orb._lyndon_words(d, k)[:per]))
            for i in range(len(maps)):
                X.append(np.pad(np.tile(words, (1, w // k)), ((0, 0), (0, top - w))))
                owner += [i] * len(words)
                gamma += [orb._gamma(1729, k, 0)] * len(words)
                width += [w] * len(words)
    return (orb._MapRows.stack(maps, np.array(owner)), np.concatenate(X),
            np.array(gamma)[:, None], np.array(width), np.array(owner))


class TestRaggedTrack:
    @pytest.mark.parametrize("maps, thomas_fallback", [
        ([hl.HenonMap(coeffs=(0.3 + 0.2j, -1.5, 0.1j), a=0.4 - 0.3j)], False),
        ([hl.quadratic_map(-0.8 + 0.4j, 0.6 - 0.5j), hl.quadratic_map(0.0, 1e-3)], True),
    ], ids=["cubic", "complex-a-and-near1d"])
    def test_rows_match_a_batch_of_their_own_width(self, maps, thomas_fallback, monkeypatch):
        orb = hl.orbits
        rows, X, gamma, width, _ = _ragged_batch(maps, [2, 3, 4, 5, 6])
        solve, dense = orb._lapack_solve, []
        monkeypatch.setattr(orb, "_lapack_solve", lambda J, F: dense.append(J.shape[1]) or solve(J, F))
        got = orb._track(rows, X, gamma, width)
        # width-2 rows always take the dense solve; near a = 0 some rows of
        # width >= 3 fail the Thomas checks and take it as well
        assert min(dense) == 2 and (max(dense) >= 3) == thomas_fallback
        for w in range(2, 7):
            sel = np.flatnonzero(width == w)
            alone = orb._track(rows.take(sel), X[sel, :w], gamma[sel], width[sel])
            assert got[sel, :w].tobytes() == alone.tobytes()
            assert not got[sel, w:].any()

    def test_ragged_check_matches_a_check_per_width(self):
        # one polish and check of endpoints of widths 1-6 equals a call per
        # width, bit for bit; repeated words among them fail the period check
        orb = hl.orbits
        maps = [hl.quadratic_map(-0.8 + 0.4j, 0.6 - 0.5j), hl.quadratic_map(0.0, 1e-3),
                hl.quadratic_map(-6.0, 0.3)]
        rows, X, gamma, width, owner = _ragged_batch(maps, [1, 2, 3, 4, 5, 6])
        X = orb._track(rows, X, gamma, width)
        ends, failed = orb._track_and_check(maps, owner, X, width)
        ref_ends, ref_failed = {}, {}
        for w in range(6, 0, -1):
            sel = np.flatnonzero(width == w)
            e, f = orb._track_and_check(maps, owner[sel], X[sel, :w], width[sel])
            ref_ends.update(e)
            ref_failed.update(f)
        assert {xs.shape[1] for _, xs, _, _ in ends.values()} == set(ends) == set(range(1, 7))
        # the repeated words fail
        assert {xs.shape[1] for _, xs in failed.values()} == set(failed) == set(range(2, 7))

        def bits(cols):
            return [(w, *(c.dtype.str + c.tobytes().hex() for c in cols[w])) for w in cols]

        assert bits(ends) == bits(ref_ends) and bits(failed) == bits(ref_failed)

    def test_rejects_widths_that_increase(self):
        rows, X, gamma, width, _ = _ragged_batch([MIXED], [3, 4])
        with pytest.raises(ValueError):
            hl.orbits._track(rows, X[::-1], gamma[::-1], width[::-1])


class TestFlatCatalogue:
    def test_identical_maps_each_get_their_own_orbits(self, horseshoe_map):
        # the merge compares orbits of one owner only: a map's twin holds the
        # very same orbits, and neither may absorb the other's
        ref = hl.enumerate_fix(horseshoe_map, 4)
        found, complete, paths, unresolved = hl.orbits._catalogue(
            [horseshoe_map, horseshoe_map], [1, 2, 4], 1729)
        assert complete.tolist() == [True, True] and unresolved == [[], []]
        assert paths == 2 * ref.budget_used
        for i in (0, 1):
            got = [o for k in (1, 2, 4) for o in found[k][1].take(found[k][0] == i)]
            assert [_bits(o) for o in got] == [_bits(o) for o in ref.orbits]

    def test_catalogue_needs_no_one_row_calls(self, horseshoe_map, monkeypatch):
        # every endpoint goes through the row kernel, none through the one-row calls
        fam = hl.FamilySpec(coeffs=(0j, 0.0), a=0.5, center=0j, radius=0.25, grid_size=5)
        spec, fld = hl.enumerate_fix(horseshoe_map, 12), hl.scan(fam, 6)

        def refuse(*args, **kwargs):
            raise AssertionError("one-row call on the enumeration path")

        monkeypatch.setattr(hl.orbits, "canonical_rotation", refuse)
        assert hl.spectrum_to_json(hl.enumerate_fix(horseshoe_map, 12)) == hl.spectrum_to_json(spec)
        assert hl.scan_to_csv(hl.scan(fam, 6)) == hl.scan_to_csv(fld)


class TestSerialization:
    def test_roundtrip(self, mixed_spectra):
        s = mixed_spectra[3]
        back = spectrum_from_dict(json.loads(hl.spectrum_to_json(s)))
        assert back.n == s.n and back.complete == s.complete
        assert back.counts == s.counts
        for o1, o2 in zip(back.orbits, s.orbits):
            assert o1.kind == o2.kind
            assert np.abs(o1.xs - o2.xs).max() < 1e-15

    def test_schema_fields(self, mixed_spectra):
        data = spectrum_to_dict(mixed_spectra[2])
        assert set(data) == {"schema", "map", "n", "complete", "counts", "budget_used",
                             "unresolved", "orbits"}
        assert data["schema"] == SPECTRUM_SCHEMA == 2
        assert set(data["counts"]) == {"fix", "per", "sper"}
        for od in data["orbits"]:
            assert set(od) == {"period", "xs", "lambda_s", "lambda_u", "chi",
                               "kind", "residual", "certified", "radius"}

    def test_budget_used_and_unresolved_round_trip(self, mixed_spectra):
        s = dataclasses.replace(mixed_spectra[2], budget_used=7,
                                unresolved=[np.array([1.5 - 2e-17j, -0.25 + 3j]), np.array([0.1j])])
        data = json.loads(hl.spectrum_to_json(s))
        assert data["unresolved"] == [[[1.5, -2e-17], [-0.25, 3.0]], [[0.0, 0.1]]]
        back = spectrum_from_dict(data)
        assert back.budget_used == 7
        assert len(back.unresolved) == 2
        for u, v in zip(back.unresolved, s.unresolved):
            assert u.dtype == complex and np.array_equal(u, v)

    def test_one_header_line_then_one_line_per_orbit(self, mixed_spectra):
        s = mixed_spectra[4]
        head, *rows = hl.spectrum_to_json(s).split("\n")
        assert len(rows) == len(s.orbits)
        assert head.startswith('{"schema": 2, ') and head.endswith('"orbits": [')
        assert rows[-1].endswith("]}")
        records = [json.loads(r.removesuffix("]}").removesuffix(",")) for r in rows]
        assert records == spectrum_to_dict(s)["orbits"]

    def test_text_parses_to_the_indented_payload_plus_new_fields(self, horseshoe_spectra,
                                                                  mixed_spectra):
        for s in (horseshoe_spectra[10], mixed_spectra[7]):
            want = json.loads(_legacy_json(s))
            want.update(schema=2, budget_used=s.budget_used, unresolved=[])
            assert json.loads(hl.spectrum_to_json(s)) == want

    def test_legacy_file_loads(self, mixed_spectra, tmp_path):
        s = mixed_spectra[5]
        path = tmp_path / "legacy.json"
        path.write_text(_legacy_json(s) + "\n")
        back = hl.spectrum_from_file(path)
        assert back.budget_used == 0 and back.unresolved == []
        assert hl.spectrum_to_json(dataclasses.replace(back, budget_used=s.budget_used)) \
            == hl.spectrum_to_json(s)

    @pytest.mark.parametrize("endpoint", [[[1.0]], [1.0, 2.0], [[1.0, "2"]], [[True, 0.0]]],
                             ids=["short", "flat", "text", "bool"])
    def test_unresolved_non_pair_is_malformed(self, mixed_spectra, endpoint):
        data = spectrum_to_dict(mixed_spectra[1])
        data["unresolved"] = [[[0.5, 0.0]], endpoint]
        with pytest.raises(ValueError, match=r"^malformed spectrum: an unresolved endpoint"):
            spectrum_from_dict(data)

    def test_newer_schema_is_malformed(self, mixed_spectra, tmp_path):
        data = spectrum_to_dict(mixed_spectra[1])
        data["schema"] = 3
        path = tmp_path / "future.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=r"^malformed spectrum: schema 3 .*future\.json"):
            hl.spectrum_from_file(path)
