"""Extended-precision verify layer: the mpmath re-polish and the escape-rate
potentials against straightforward references kept here."""

import math

import mpmath as mp
import numpy as np
import pytest

import henonlab as hl
from henonlab import verify
from henonlab.maps import ESCAPE_THRESHOLD

HORSESHOE = hl.quadratic_map(-6.0, 0.3)
MIXED = hl.quadratic_map(0.0, 0.5)
CUBIC = hl.HenonMap(coeffs=(0.3 + 0.2j, -1.5, 0.1j), a=0.4 - 0.3j)
# degree 4, every coefficient complex and Re a = 0
QUARTIC = hl.HenonMap(coeffs=(0.2 - 0.1j, 0.5j, -1.0 + 0.3j, 0.25 + 0.1j), a=0.7j)
# a zero head coefficient, Re c = 0 and a real negative a
IMAGINARY_C = hl.HenonMap(coeffs=(2j, 0.0), a=-0.5)
# c just below the saddle-node at 0.5625 of p = x^2 + c, a = 0.5, where the
# two fixed points meet
NEAR_SADDLE_NODE = hl.quadratic_map(0.5625 - 1e-6, 0.5)


def _refine_dense(m, xs, dps=60, steps=6):
    """Newton re-polish with a dense mp.lu_solve and a fixed number of steps."""
    with mp.workdps(dps):
        z = np.array([mp.mpc(complex(v)) for v in xs], dtype=object)
        for _ in range(steps):
            s = mp.lu_solve(mp.matrix(hl.cyclic_jacobian(m, z)), mp.matrix(hl.cyclic_residual(m, z)))
            z = z - np.array(list(s), dtype=object)
        return list(z)


def _green_reference(m, x, y, forward, max_iter):
    """Escape-rate loop straight from the definition: HenonMap.p on mpmath
    numbers and the exact moduli at every step; it stops in V+ (V-) and
    subtracts log|a| / (d - 1) backward."""
    d = m.degree
    a = mp.mpc(m.a)
    n = 0
    while n <= max_iter:
        v, w = (x, y) if forward else (y, x)
        mag = abs(v)
        if mag > ESCAPE_THRESHOLD and mag >= abs(w):
            u = mp.log(mag)
            if not forward:
                u -= mp.log(abs(a)) / (d - 1)
            return float(u / mp.mpf(d) ** n)
        if forward:
            x, y = m.p(x) - a * y, x
        else:
            x, y = y, (m.p(y) - x) / a
        n += 1
    return 0.0


def _reference_greens(m, pt, max_iter=100, dps=60):
    with mp.workdps(dps):
        x, y = (v if isinstance(v, mp.mpc) else mp.mpc(v) for v in pt)
        return (_green_reference(m, x, y, True, max_iter),
                _green_reference(m, x, y, False, max_iter))


def _greens(m, pt, max_iter=100, dps=60):
    return verify.green_plus_hp(m, pt, max_iter, dps), verify.green_minus_hp(m, pt, max_iter, dps)


def _assert_close(m, pts, rtol, max_iter=100, dps=60):
    """The loop's (G+, G-) at pts, each within rtol of ``_reference_greens``
    relative and zero exactly where it is zero."""
    got = [_greens(m, pt, max_iter, dps) for pt in pts]
    refs = [_reference_greens(m, pt, max_iter, dps) for pt in pts]
    bad = [(pt, g, r) for pt, g, r in zip(pts, got, refs)
           if any((u == 0) != (v == 0) or abs(u - v) > rtol * v for u, v in zip(g, r))]
    assert bad == []
    return got


class TestRefine:
    @pytest.mark.parametrize("which", ["horseshoe", "mixed"])
    def test_fix8_matches_dense_reference(self, which, horseshoe_spectra, mixed_spectra):
        s = {"horseshoe": horseshoe_spectra, "mixed": mixed_spectra}[which][8]
        self._check(s)

    def test_cubic_fix5_matches_dense_reference(self):
        s = hl.enumerate_fix(CUBIC, 5)
        assert s.complete
        self._check(s)

    @staticmethod
    def _check(s, dps=60):
        for o in s.orbits:
            z = verify.refine_orbit_hp(s.map, o.xs, dps=dps)
            ref = _refine_dense(s.map, o.xs, dps=dps)
            with mp.workdps(dps):
                assert max(abs(u - v) for u, v in zip(z, ref)) <= mp.mpf(10) ** (5 - dps)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_double_fixed_point_raises(self, n):
        # x* = 0.75 is a double fixed point of p = x^2 + 0.5625, a = 0.5: the
        # cyclic Jacobian at the constant vector is singular for every n
        with pytest.raises(ZeroDivisionError):
            verify.refine_orbit_hp(hl.quadratic_map(0.5625, 0.5), np.full(n, 0.75 + 0j))

    def test_stops_once_converged(self, horseshoe_spectra, monkeypatch):
        steps = []
        solve = hl.orbits._band_solve
        monkeypatch.setattr(hl.orbits, "_band_solve", lambda *args: steps.append(1) or solve(*args))
        s = horseshoe_spectra[8]
        for o in s.orbits:
            verify.refine_orbit_hp(s.map, o.xs)
        assert len(steps) < 5 * len(s.orbits)

    @staticmethod
    def _solves_per_orbit(m, orbits, monkeypatch):
        """The number of _band_solve calls that re-polishing each orbit makes."""
        calls = []
        solve = hl.orbits._band_solve
        monkeypatch.setattr(hl.orbits, "_band_solve", lambda *args: calls.append(1) or solve(*args))
        counts = []
        for o in orbits:
            before = len(calls)
            verify.refine_orbit_hp(m, o.xs)
            counts.append(len(calls) - before)
        return counts

    @pytest.mark.parametrize("which", ["horseshoe", "mixed"])
    def test_fix8_takes_two_solves(self, which, horseshoe_spectra, mixed_spectra, monkeypatch):
        # corrections of about 1e-16 and then 1e-32 predict a next one far
        # below 2^-prec: a third solve would only confirm convergence.  A row
        # that is an exact zero at 60 digits (the mixed map's fixed points 0
        # and 1.5) stops after its first correction, which is 0; the mixed
        # period-2 row has a zero residual in doubles but not at 60 digits
        s = {"horseshoe": horseshoe_spectra, "mixed": mixed_spectra}[which][8]
        with mp.workdps(60):
            want = [2 if hl.cyclic_residual(s.map, [mp.mpc(complex(v)) for v in o.xs]).any() else 1
                    for o in s.orbits]
        assert self._solves_per_orbit(s.map, s.orbits, monkeypatch) == want
        assert want.count(1) == {"horseshoe": 0, "mixed": 2}[which]

    @pytest.mark.parametrize("n", [1, 3])
    def test_near_saddle_node(self, n, monkeypatch):
        # the corrections stall at a round-off floor of about 4e-59, above
        # 2^-prec: the predicted next correction ends the polish there
        s = hl.enumerate_fix(NEAR_SADDLE_NODE, n)
        assert s.orbits
        assert max(self._solves_per_orbit(s.map, s.orbits, monkeypatch)) <= 4
        for o in s.orbits:
            z = verify.refine_orbit_hp(s.map, o.xs)
            ref = _refine_dense(s.map, o.xs)
            with mp.workdps(60):
                assert max(abs(u - v) for u, v in zip(z, ref)) <= mp.mpf(10) ** -55

    def test_linear_convergence_is_not_cut_short(self, monkeypatch):
        # Newton halves the distance to the double fixed point 0.75 of
        # NEAR_SADDLE_NODE's c = 0.5625 at every step, exactly in dyadic
        # arithmetic: there the quadratic test ds^3 <= tol prev^2 reads
        # ds <= 4 tol, so the polish may not stop while ds > 4 tol, and stops
        # at the first correction below it
        dss = []
        solve = hl.orbits._band_solve

        def recording(*args):
            S, bad = solve(*args)
            dss.append(max(abs(v) for v in S[0]))
            return S, bad

        monkeypatch.setattr(hl.orbits, "_band_solve", recording)
        z = verify.refine_orbit_hp(hl.quadratic_map(0.5625, 0.5), np.array([0.75 + 2.0**-20]), steps=400)
        with mp.workdps(60):
            four_tol = 4 * mp.ldexp(1 + abs(z[0]), -mp.mp.prec)
            assert len(dss) < 400 and dss[1] == dss[0] / 2
            assert all(ds > four_tol for ds in dss[:-1]) and dss[-1] <= four_tol


def _escaping_points(rng, count):
    """Points spread over many scales, so they escape after varied numbers of steps."""
    r = 10.0 ** rng.uniform(-1, 7.5, size=(count, 2))
    ph = np.exp(2j * math.pi * rng.uniform(size=(count, 2)))
    return [(complex(u), complex(v)) for u, v in r * ph]


def _edge_points():
    """|Re| = |Im| just above and below T/sqrt(2) (|v| = T) and 0.7 T."""
    pts = []
    with mp.workdps(60):
        for base in (mp.mpf(ESCAPE_THRESHOLD) / mp.sqrt(2), mp.mpf(0.7 * ESCAPE_THRESHOLD)):
            for rel in (-1e-40, -1e-15, 0, 1e-15, 1e-40):
                e = base * (1 + mp.mpf(rel))
                for sx, sy in ((1, 1), (-1, 1), (1, -1)):
                    v = mp.mpc(sx * e, sy * e)
                    pts += [(v, mp.mpc(0.5, 0.25)), (mp.mpc(0.5, 0.25), v), (v, v)]
    return pts


def _polished_points(m, n, dps=60):
    """(z_k, z_{k-1}) at every point of Fix_n, re-polished at dps."""
    pts = []
    for o in hl.enumerate_fix(m, n).orbits:
        z = verify.refine_orbit_hp(m, o.xs, dps=dps)
        pts += [(z[k], z[k - 1]) for k in range(len(z))]
    return pts


def _fix_n(m):
    """Fix_4, or Fix_3 for the quartic: 16 to 81 points, not 256."""
    return 3 if m.degree == 4 else 4


class TestGreens:
    @pytest.mark.parametrize("m", [HORSESHOE, MIXED, CUBIC, QUARTIC, IMAGINARY_C],
                             ids=["horseshoe", "mixed", "cubic", "quartic", "imaginary-c"])
    def test_close_to_reference(self, m):
        rng = np.random.default_rng(1729)
        pts = _escaping_points(rng, 60)
        # past the threshold, but outside V+ (V-) until one more step
        pts += [(1e9, 1e20), (1e20, 1e9), (1e9j, 1e9 + 1j), (1e9 + 1j, 1e9j)]
        # input types: numpy numbers, and mpc carrying more digits than dps
        pts.append((np.complex128(0.3 - 0.1j), np.complex128(-0.2j)))
        with mp.workdps(90):
            pts.append((mp.mpc(1) / 3, mp.mpc(2, 1) / 7))
        got = _assert_close(m, pts, 1e-13) + _assert_close(m, _edge_points(), 1e-9)
        # escapes after many different numbers of steps: G = log|x_n| / d^n
        steps = {round(math.log(math.log(ESCAPE_THRESHOLD) / g, m.degree)) for g in sum(got, ()) if g > 0}
        assert len(steps) >= 4
        # bounded points: re-polished periodic orbits, which escape only
        # after ~dps digits of precision are used up
        assert max(max(_greens(m, pt)) for pt in _polished_points(m, _fix_n(m))) < 1e-12

    def test_coordinates_past_double_range(self):
        # (1e200, 1e300) is outside V+ until its first forward step, which
        # reaches about 1e400
        w = mp.mpc(0.5, 0.25)
        pts = [(mp.mpc("1e400"), w), (w, mp.mpc("1e400")), (1e200, 1e300), (1e300, 1e200)]
        for m in (HORSESHOE, CUBIC, QUARTIC):
            assert all(g > 0 for g in sum(_assert_close(m, pts, 1e-13), ()))

    @pytest.mark.parametrize("m", [HORSESHOE, MIXED, CUBIC, QUARTIC],
                             ids=["horseshoe", "mixed", "cubic", "quartic"])
    def test_double_methods_are_the_loop_at_dps_15(self, m):
        # dps 15 is 53 bits, the precision HenonMap's own methods run at
        rng = np.random.default_rng(3)
        pts = _escaping_points(rng, 20) + _edge_points()
        pts += [pt for o in hl.enumerate_fix(m, _fix_n(m)).orbits for pt in o.points]
        got = [(m.green_plus(pt), m.green_minus(pt)) for pt in pts]
        want = [(verify.green_plus_hp(m, pt, dps=15), verify.green_minus_hp(m, pt, dps=15)) for pt in pts]
        assert got == want

    def test_real_mpf_point_keeps_its_digits(self, horseshoe_spectra):
        # a real horseshoe orbit polished to 60 digits: its coordinates as
        # mpf and as mpc must give the same potentials; rounding the mpf
        # to double would make the backward orbit escape within ~25 steps
        s = horseshoe_spectra[8]
        o = next(o for o in s.orbits if not np.iscomplex(o.xs).any())
        z = verify.refine_orbit_hp(s.map, o.xs)
        assert all(v.imag == 0 for v in z)
        for k in range(len(z)):
            as_mpc, as_mpf = (z[k], z[k - 1]), (z[k].real, z[k - 1].real)
            for g in (verify.green_plus_hp, verify.green_minus_hp):
                assert g(s.map, as_mpf) == g(s.map, as_mpc) < 1e-12

    @pytest.mark.parametrize("max_iter", [0, -5])
    @pytest.mark.parametrize("g", [verify.green_plus_hp, verify.green_minus_hp])
    def test_rejects_max_iter_below_one(self, g, max_iter):
        with pytest.raises(ValueError):
            g(MIXED, (0.5 + 0j, 0.25 + 0j), max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [0, -5])
    def test_orbit_greens_reject_max_iter_below_one(self, max_iter):
        with pytest.raises(ValueError):
            verify.orbit_greens_hp(MIXED, np.array([0.0 + 0j]), max_iter=max_iter)

    def test_orbit_greens_are_pointwise_maxima(self, mixed_spectra):
        s = mixed_spectra[6]
        for o in s.orbits[:4]:
            z = verify.refine_orbit_hp(s.map, o.xs)
            pts = [(z[k], z[k - 1]) for k in range(len(z))]
            each = [_greens(s.map, pt) for pt in pts]
            expected = (max(g[0] for g in each), max(g[1] for g in each))
            assert verify.orbit_greens_hp(s.map, o.xs) == expected


def _green_limit(m, pt, forward):
    """G+ (G-) at 300 digits: the Richardson extrapolation (d g_{n+1} - g_n) / (d - 1)
    of g_n = (log|v_n| - c) / d^n at the first n with |v_n| > 1e200 and
    |v_n| >= |w_n|, c = 0 forward and log|a| / (d - 1) backward; 0 if the
    orbit does not get there in 200 steps."""
    d = m.degree
    with mp.workdps(300):
        a = mp.mpc(m.a)
        c = 0 if forward else mp.log(abs(a)) / (d - 1)
        x, y = mp.mpc(pt[0]), mp.mpc(pt[1])
        g = []
        for n in range(200):
            v, w = (x, y) if forward else (y, x)
            if g or (abs(v) > mp.mpf(10) ** 200 and abs(v) >= abs(w)):
                g.append((mp.log(abs(v)) - c) / mp.mpf(d) ** n)
                if len(g) == 2:
                    return float((d * g[1] - g[0]) / (d - 1))
            if forward:
                x, y = m.p(x) - a * y, x
            else:
                x, y = y, (m.p(y) - x) / a
        return 0.0


class TestGreensAccuracy:
    """Both precisions of the loop against the limit itself, off the bounded sets."""

    @pytest.mark.parametrize("m", [HORSESHOE, MIXED, CUBIC, hl.quadratic_map(0.0, 1e-3),
                                   hl.quadratic_map(-1.0, 2.5)],
                             ids=["horseshoe", "mixed", "cubic", "a=1e-3", "a=2.5"])
    @pytest.mark.parametrize("forward", [True, False], ids=["plus", "minus"])
    def test_relative_error_at_most_1e_9(self, m, forward):
        rng = np.random.default_rng(2024)
        r = 1.5 * m.filtration_radius
        pts = [tuple(complex(*rng.uniform(-r, r, 2)) for _ in range(2)) for _ in range(24)]
        # |v| > ESCAPE_THRESHOLD at once, but the point is still outside V+ (V-)
        pts.append((1e9, 1e20) if forward else (1e20, 1e9))
        double, hp = (m.green_plus, verify.green_plus_hp) if forward else (m.green_minus, verify.green_minus_hp)
        checked = 0
        for pt in pts:
            ref = _green_limit(m, pt, forward)
            if ref < 1e-3:
                continue
            checked += 1
            for got in (double(pt), hp(m, pt)):
                assert abs(got - ref) <= 1e-9 * ref, (pt, got, ref)
        assert checked >= 5


def _screen_edge_values():
    """A part of exactly 2^26 and 2^26 (1 +- 2^-70), the other part 0 or
    equal: exp + bc = 26 and 27, and |v| up to 2^26 sqrt(2), just below T."""
    with mp.workdps(60):
        es = [mp.ldexp(1 + rel, 26) for rel in (0, mp.ldexp(1, -70), -mp.ldexp(1, -70))]
        return [v for e in es for v in (mp.mpc(e, 0), mp.mpc(0, e), mp.mpc(e, e), mp.mpc(-e, e))]


class TestGreensBitIdentity:
    """The loop beyond the default settings: bit for bit against a fresh map
    across precisions, and elsewhere within its error model of
    ``_reference_greens`` (see ``_assert_close``)."""

    @pytest.mark.parametrize("dps", [30, 113])
    @pytest.mark.parametrize("m", [HORSESHOE, CUBIC], ids=["horseshoe", "cubic"])
    def test_other_precisions(self, m, dps):
        rng = np.random.default_rng(7)
        _assert_close(m, _escaping_points(rng, 20), 1e-13, dps=dps)
        # the bounded points escape once dps digits are used up, so the
        # potentials read the working precision, not a fixed 60 digits
        pts = _polished_points(m, 4, dps=dps)
        got = [_greens(m, pt, dps=dps) for pt in pts]
        assert got != [_greens(m, pt) for pt in pts]

    @pytest.mark.parametrize("m", [HORSESHOE, MIXED, CUBIC], ids=["horseshoe", "mixed", "cubic"])
    def test_max_iter_reached(self, m):
        rng = np.random.default_rng(11)
        pts = _polished_points(m, 4) + _escaping_points(rng, 20)
        flat = sum(_assert_close(m, pts, 1e-13, max_iter=3), ())
        assert 0.0 in flat and max(flat) > 0

    def test_zero_imaginary_parts(self, horseshoe_spectra):
        # real points of the real horseshoe: every imaginary part is zero
        rng = np.random.default_rng(13)
        _assert_close(HORSESHOE, [(complex(x.real), complex(y.real)) for x, y in _escaping_points(rng, 40)], 1e-13)
        for o in horseshoe_spectra[4].orbits:
            z = verify.refine_orbit_hp(HORSESHOE, o.xs.real)
            assert all(v.imag == 0 for v in z)
            assert max(max(_greens(HORSESHOE, (z[k], z[k - 1]))) for k in range(len(z))) < 1e-12

    def test_precisions_alternate_on_one_map(self):
        # the map keeps its constants per precision, 1/a and log|a| rounded
        # to each: none may leak into a later call at another precision
        m = hl.HenonMap(coeffs=CUBIC.coeffs, a=0.4 - 3e-11j)
        rng = np.random.default_rng(17)
        # polished at dps 60: at dps 30 the loop runs on all their digits,
        # as _green_reference does, and does not round them on entry
        pts = _escaping_points(rng, 20) + _polished_points(m, 3, dps=60)
        for dps in (30, 60, 30):
            fresh = hl.HenonMap(coeffs=m.coeffs, a=m.a)
            assert [_greens(m, pt, dps=dps) for pt in pts] == [_greens(fresh, pt, dps=dps) for pt in pts]
        _assert_close(m, pts[:20], 1e-13, dps=30)

    @pytest.mark.parametrize("m", [HORSESHOE, MIXED, CUBIC], ids=["horseshoe", "mixed", "cubic"])
    def test_screen_edge(self, m):
        # near-threshold points, within the estimator's own truncation
        vs = _screen_edge_values()
        assert {p[2] + p[3] for v in vs for p in v._mpc_ if p[1]} == {26, 27}
        w = mp.mpc(0.5, 0.25)
        _assert_close(m, [pt for v in vs for pt in ((v, w), (w, v), (v, v))], 1e-9)


class TestBadInput:
    @pytest.mark.parametrize("dps", [0, -3])
    @pytest.mark.parametrize("g", [verify.green_plus_hp, verify.green_minus_hp])
    def test_greens_reject_dps_below_one(self, g, dps):
        with pytest.raises(ValueError, match="dps"):
            g(HORSESHOE, (0.1, 0.2), dps=dps)

    @pytest.mark.parametrize("dps", [0, -3])
    @pytest.mark.parametrize("f", [verify.refine_orbit_hp, verify.orbit_greens_hp])
    def test_orbit_functions_reject_dps_below_one(self, f, dps):
        with pytest.raises(ValueError, match="dps"):
            f(HORSESHOE, np.array([1.0 + 0j, 2.0 + 0j]), dps=dps)

    @pytest.mark.parametrize("steps", [0, -2])
    def test_refine_rejects_steps_below_one(self, steps):
        # zero steps would return the unpolished double orbit as if polished
        with pytest.raises(ValueError, match="steps"):
            verify.refine_orbit_hp(HORSESHOE, np.array([1.0 + 0j, 2.0 + 0j]), steps=steps)

    @pytest.mark.parametrize("f", [verify.refine_orbit_hp, verify.orbit_greens_hp])
    def test_empty_orbit_vector_rejected(self, f):
        with pytest.raises(ValueError, match="empty"):
            f(HORSESHOE, np.array([], dtype=complex))

    def test_dps_one_works(self):
        z = verify.refine_orbit_hp(HORSESHOE, np.array([2.0 + 0j]), dps=1)
        assert len(z) == 1
        assert verify.green_plus_hp(HORSESHOE, (1e9, 0.0), dps=1) > 0


NAN, INF = float("nan"), float("inf")


class TestNonFinite:
    @pytest.mark.parametrize("pt", [(NAN, 0), (INF, 0), (0, INF), (mp.mpc("inf"), 0),
                                    (0.5, mp.mpf("nan"))],
                             ids=["nan-x", "inf-x", "inf-y", "mpc-inf", "mpf-nan"])
    @pytest.mark.parametrize("g", [verify.green_plus_hp, verify.green_minus_hp])
    def test_greens_reject(self, g, pt):
        with pytest.raises(ValueError, match="non-finite"):
            g(HORSESHOE, pt)

    @pytest.mark.parametrize("bad", [NAN, INF, complex(0, NAN)], ids=["nan", "inf", "nan-imag"])
    @pytest.mark.parametrize("f", [verify.refine_orbit_hp, verify.orbit_greens_hp])
    def test_orbit_vector_rejected(self, f, bad, horseshoe_spectra):
        xs = horseshoe_spectra[4].orbits[-1].xs.copy()
        xs[1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            f(HORSESHOE, xs)
