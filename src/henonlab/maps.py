"""Generalized complex Henon maps: iteration, Jacobians, escape geometry.

A map is f(x, y) = (p(x) - a*y, x) with p a monic polynomial of degree
d >= 2 and a != 0 the (constant) Jacobian determinant.  Its inverse is
f^-1(x, y) = (y, (p(y) - x) / a), so f is an automorphism of C^2.

The escape-rate potentials G+ and G- have one loop, ``HenonMap._green``,
which runs at the working mpmath precision: ``green_plus`` and
``green_minus`` run it at 53 bits, ``verify.green_plus_hp`` and
``green_minus_hp`` at a chosen number of digits.  It steps on the parts of
the coordinates as signed (mantissa, exponent) pairs of Python ints, m 2^e,
and gives bit for bit the floats of the same loop on mpc objects.  Each
libmp operation that the mpc operators call there rounds exactly once, at
a known precision and direction, and ``_round``, ``_add`` and ``_div``
reproduce that rounding: ``mpc_mul`` is four exact products and one
round-to-nearest subtraction and addition; ``mpf_add`` rounds the exact
sum, except that it swaps an operand far below the other for a sticky
unit, which ``_add`` copies; ``mpc_div`` rounds c^2 + d^2 and the two
numerators toward zero at prec + 10 bits, since it calls ``mpf_add`` with
no rounding argument, and then divides to nearest.  Nothing else needs a
normalized (odd) mantissa.  Exponents are Python ints, so no iterate
overflows.  The step skips each call that would give back its operand
unchanged: ``_round`` of a mantissa of at most prec bits, ``_add`` of a
zero and an operand already rounded at its precision, ``_div`` of a zero,
and with a real a the zero products of ``mpc_mul``.  The zeros come from
the zero head coefficient of p, from a real coefficient or a and from the
imaginary parts of a real orbit.  A skipped call changes no value, so the
loop's floats are those of the loop that makes every call.  Only the
exponent of a zero may differ from libmp's (0 for zero), and nothing but
the screen below reads it: a zero part can make the screen take one
modulus more, but it does not change that modulus.  The constants (the
parts of a and of the coefficients, |a|^2 as ``mpc_div`` rounds it and
log|a| / (d - 1)) are computed once per map and precision.  The loop
stops once the escaping coordinate v (x forward, y backward) has
|v| > ESCAPE_THRESHOLD and |v| >= |w|, w the other coordinate: that is
the region V+ (V-) of ``filtration_radius``, where the orbit keeps
escaping.  The modulus of v is taken, by ``libmp.mpc_abs``,
only once a part m 2^e of it has ``m.bit_length() + e > 26``: a finite
nonzero part is below 2^(bit_length + e), and 2^26 <
ESCAPE_THRESHOLD/sqrt(2), so that screen misses no escape; |w| is taken
only after |v| has passed the threshold.
The loop returns (log|v_n| - c) / d^n, with c = 0 forward and
c = log|a| / (d - 1) backward: f^-1 divides by a at every step, and in V-
|y'| = |y|^d / |a| (1 + o(1)), so u = log|y| - c satisfies u' = d u + o(1).
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from functools import cached_property

import mpmath as mp
import numpy as np
from mpmath.libmp import from_float, from_man_exp, fzero, mpc_abs, mpf_ge, mpf_gt

Point = tuple[complex, complex]

#: forward (backward) iterates whose first (second) coordinate exceeds this
#: and is at least the other coordinate in modulus are escaping
ESCAPE_THRESHOLD = 1e8

_THRESHOLD = from_float(ESCAPE_THRESHOLD)
#: a finite coordinate part m 2^e with m.bit_length() + e <= this is below
#: 2^26 < ESCAPE_THRESHOLD/sqrt(2)
_SCREEN_BITS = 26


class EscapeOverflow(OverflowError):
    """An iterate left the range representable in double precision."""


def _require_finite(pt: Point) -> Point:
    x, y = complex(pt[0]), complex(pt[1])
    if not (cmath.isfinite(x) and cmath.isfinite(y)):
        raise ValueError(f"non-finite point {pt!r}")
    return x, y


def _mp_point(pt) -> tuple:
    """``_mpc_`` tuples of the point's coordinates: mpmath coordinates keep
    all their digits, unrounded; Python and numpy numbers go through
    complex and are rounded to the working precision."""
    def parts(v):
        if isinstance(v, mp.mpc):
            return v._mpc_
        if isinstance(v, mp.mpf):
            return v._mpf_, fzero
        return mp.mpc(complex(v))._mpc_

    x, y = parts(pt[0]), parts(pt[1])
    # a special value (0, inf, nan) has a zero mantissa, and only 0 is finite
    if not all(p[1] or p == fzero for p in x + y):
        raise ValueError(f"non-finite point {pt!r}")
    return x, y


def _round(m: int, e: int, prec: int, down: bool = False) -> tuple[int, int]:
    """m 2^e rounded to prec bits: half to even (libmp's round_nearest), or
    toward zero if down (round_fast)."""
    n = m.bit_length() - prec
    if n <= 0:
        return m, e
    if down:
        return (m >> n if m >= 0 else -(-m >> n)), e + n
    # floor((m + 2^(n-1) - 1 + the quotient's parity) / 2^n): ties go to even
    return (m + (1 << (n - 1)) - 1 + (m >> n & 1)) >> n, e + n


def _add(m: int, e: int, k: int, f: int, prec: int, down: bool = False) -> tuple[int, int]:
    """m 2^e + k 2^f rounded as libmp.mpf_add rounds it: the exact sum, unless
    the operands lie far apart.  Then, if their odd-mantissa exponents also
    differ by more than 100, mpf_add puts a +-1 sticky unit prec + 4 bits
    below the larger operand's odd mantissa in place of the smaller one."""
    if not k:  # a zero sum keeps exponent 0, as libmp's zero does
        return _round(m, e, prec, down) if m else (0, 0)
    if not m:
        return _round(k, f, prec, down)
    gap = m.bit_length() + e - k.bit_length() - f
    if gap > prec + 4 or -gap > prec + 4:
        if gap < 0:
            m, e, k, f = k, f, m, e
        z, w = (m & -m).bit_length() - 1, (k & -k).bit_length() - 1
        if e + z - f - w > 100:
            return _round(((m >> z) << (prec + 4)) + (1 if k > 0 else -1), e + z - prec - 4, prec, down)
    if e > f:
        m, e = (m << (e - f)) + k, f
    else:
        m += k << (f - e)
    # _round, written out: calling it here adds about a quarter to the loop's time
    n = m.bit_length() - prec
    if n <= 0:
        return m, e
    if down:
        return (m >> n if m >= 0 else -(-m >> n)), e + n
    return (m + (1 << (n - 1)) - 1 + (m >> n & 1)) >> n, e + n


def _div(m: int, e: int, k: int, f: int, prec: int) -> tuple[int, int]:
    """m 2^e / k 2^f, k > 0, rounded to nearest as libmp.mpf_div rounds it:
    a quotient of at least prec + 5 bits, with a sticky bit for a remainder."""
    extra = max(prec - m.bit_length() + k.bit_length() + 5, 5)
    q, r = divmod(abs(m) << extra, k)
    if r:
        q, extra = 2 * q + 1, extra + 1
    return _round(-q if m < 0 else q, e - f - extra, prec)


@dataclass(frozen=True)
class HenonMap:
    """f(x, y) = (p(x) - a*y, x), p monic of degree len(coeffs) >= 2.

    ``coeffs`` are the non-leading coefficients of p in ascending powers;
    the leading coefficient is implicitly 1, so the degree equals
    ``len(coeffs)``.
    """

    coeffs: tuple[complex, ...]
    a: complex

    def __post_init__(self) -> None:
        coeffs = tuple(complex(c) for c in self.coeffs)
        a = complex(self.a)
        if len(coeffs) < 2:
            raise ValueError("polynomial degree must be at least 2")
        if not all(map(cmath.isfinite, coeffs + (a,))):
            raise ValueError("coefficients and a must be finite")
        if a == 0:
            raise ValueError("Jacobian constant a must be nonzero")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "a", a)

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    # -- polynomial evaluation (scalar or ndarray) --------------------------

    def p(self, x):
        """Evaluate p(x) by Horner's rule on scalars, arrays or mpmath numbers."""
        r = np.ones_like(x) if isinstance(x, np.ndarray) else 1.0 + 0j
        for c in reversed(self.coeffs):
            r = r * x + c
        return r

    def dp(self, x):
        """Evaluate p'(x)."""
        d = self.degree
        r = (d + np.zeros_like(x)) if isinstance(x, np.ndarray) else complex(d)
        for j in range(d - 1, 0, -1):
            r = r * x + j * self.coeffs[j]
        return r

    def d2p_bound(self, radius: float) -> float:
        """Upper bound for |p''| on the disk |z| <= radius."""
        d = self.degree
        total = d * (d - 1) * radius ** (d - 2)
        for j in range(2, d):
            total += j * (j - 1) * abs(self.coeffs[j]) * radius ** (j - 2)
        return total

    # -- the map ------------------------------------------------------------

    def evaluate(self, pt: Point) -> Point:
        x, y = _require_finite(pt)
        out = (self.p(x) - self.a * y, x)
        if not cmath.isfinite(out[0]):
            raise EscapeOverflow(f"orbit escaped beyond double range at {pt!r}")
        return out

    def inverse(self, pt: Point) -> Point:
        x, y = _require_finite(pt)
        out = (y, (self.p(y) - x) / self.a)
        if not cmath.isfinite(out[1]):
            raise EscapeOverflow(f"backward orbit escaped beyond double range at {pt!r}")
        return out

    def jacobian(self, pt: Point) -> np.ndarray:
        x, _ = _require_finite(pt)
        return np.array([[self.dp(x), -self.a], [1.0, 0.0]], dtype=complex)

    # -- escape geometry ----------------------------------------------------

    @cached_property
    def filtration_radius(self) -> float:
        """Largest real root R of r^d = (1 + |a|) r + sum_j |c_j| r^j.

        For |x| >= max(|y|, R) the triangle inequality gives
        |p(x) - a y| >= |x|^d - sum |c_j| |x|^j - |a| |x| > |x|, so the
        forward orbit escapes; all bounded orbits live in the bidisk of
        radius R.
        """
        d = self.degree
        mods = [abs(c) for c in self.coeffs]

        def g(r: float) -> float:
            acc = r**d - (1.0 + abs(self.a)) * r
            for j, m in enumerate(mods):
                acc -= m * r**j
            return acc

        hi = 1.0
        try:
            while g(hi) <= 0.0:
                hi *= 2.0
        except OverflowError:
            raise OverflowError("the map's coefficients are too large for a "
                                "double-precision escape radius") from None
        lo = 0.0
        # g has a single positive crossing (one coefficient sign change)
        while hi - lo > 1e-12 * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if g(mid) > 0.0:
                hi = mid
            else:
                lo = mid
        return hi

    @cached_property
    def _green_constants(self) -> dict:
        """``_green``'s parts of a and of the coefficients, mpc_div's |a|^2 and
        log|a| / (d - 1), keyed by the precision in bits they are rounded to."""
        return {}

    def _green(self, pt, forward: bool, max_iter: int) -> float:
        """Escape rate of pt at the working mpmath precision; 0 if the orbit
        stays out of V+ (V- backward) for max_iter steps."""
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        # what the mpc operators read; mpmath's context rounds to nearest
        prec, rnd = mp.mp._prec_rounding
        wp = prec + 10  # mpc_div's precision for c^2 + d^2, t and u

        def parts(z):  # an _mpc_ tuple as two signed (mantissa, exponent) pairs
            return tuple((-man if sign else man, exp) for sign, man, exp, _ in z)

        def mpc(z):  # and back
            return tuple(from_man_exp(*q) for q in z)

        if prec not in self._green_constants:
            a = mp.mpc(self.a)
            (ar, are), (ai, aie) = parts(a._mpc_)
            self._green_constants[prec] = (
                (ar, are, ai, aie), [parts(mp.mpc(c)._mpc_) for c in reversed(self.coeffs)],
                _add(ar * ar, 2 * are, ai * ai, 2 * aie, wp, True),  # |a|^2 as mpc_div has it
                mp.log(abs(a)) / (self.degree - 1))
        (ar, are, ai, aie), (((hr, hre), (hi, hie)), *tail), (mag, mage), log_a = self._green_constants[prec]
        x, y = map(parts, _mp_point(pt))
        for n in range(max_iter + 1):
            v, w = (x, y) if forward else (y, x)
            (m, e), (k, f) = v
            if m.bit_length() + e > _SCREEN_BITS or k.bit_length() + f > _SCREEN_BITS:
                abs_v = mpc_abs(mpc(v), prec, rnd)
                if mpf_gt(abs_v, _THRESHOLD) and mpf_ge(abs_v, mpc_abs(mpc(w), prec, rnd)):
                    u = mp.log(mp.make_mpf(abs_v))
                    if not forward:  # in V-, |y'| = |y|^d / |a| (1 + o(1))
                        u -= log_a
                    return float(u / mp.mpf(self.degree) ** n)
            # p(v) as HenonMap.p computes it on mpc: mpc_pos(v) + head, then
            # mpc_add(mpc_mul(r, v), c) for each further coefficient.  Calls
            # that would give back their operand are skipped (module docstring)
            rm, rme = _round(m, e, prec) if m.bit_length() > prec else (m, e)
            rk, rkf = _round(k, f, prec) if k.bit_length() > prec else (k, f)
            if hr:
                rm, rme = _add(rm, rme, hr, hre, prec)
            if hi:
                rk, rkf = _add(rk, rkf, hi, hie, prec)
            for (cr, cre), (ci, cie) in tail:
                q, qe = _add(rm * m, rme + e, -rk * k, rkf + f, prec)
                s, se = _add(rm * k, rme + f, rk * m, rkf + e, prec)
                rm, rme = _add(q, qe, cr, cre, prec) if cr else (q, qe)
                rk, rkf = _add(s, se, ci, cie, prec) if ci else (s, se)
            (u, g), (t, h) = w
            if forward:  # mpc_sub(p(x), mpc_mul(a, y))
                if ai:
                    q, qe = _add(ar * u, are + g, -ai * t, aie + h, prec)
                    s, se = _add(ar * t, are + h, ai * u, aie + g, prec)
                else:  # a real: mpc_mul's sub and add only round ar u and ar t
                    q, qe, s, se = ar * u, are + g, ar * t, are + h
                    if q.bit_length() > prec:
                        q, qe = _round(q, qe, prec)
                    if s.bit_length() > prec:
                        s, se = _round(s, se, prec)
                x, y = (_add(rm, rme, -q, qe, prec) if q else (rm, rme),
                        _add(rk, rkf, -s, se, prec) if s else (rk, rkf)), x
            else:  # mpc_div(mpc_sub(p(y), x), a)
                rm, rme = _add(rm, rme, -u, g, prec) if u else (rm, rme)
                rk, rkf = _add(rk, rkf, -t, h, prec) if t else (rk, rkf)
                if ai:
                    q, qe = _add(rm * ar, rme + are, rk * ai, rkf + aie, wp, True)
                    s, se = _add(rk * ar, rkf + are, -rm * ai, rme + aie, wp, True)
                else:  # a real: t and u are ar times the numerator, rounded
                    q, qe, s, se = rm * ar, rme + are, rk * ar, rkf + are
                    if q.bit_length() > wp:
                        q, qe = _round(q, qe, wp, True)
                    if s.bit_length() > wp:
                        s, se = _round(s, se, wp, True)
                x, y = y, (_div(q, qe, mag, mage, prec) if q else (0, 0),
                           _div(s, se, mag, mage, prec) if s else (0, 0))
        return 0.0

    def green_plus(self, pt: Point, max_iter: int = 100) -> float:
        """Forward escape-rate potential lim d^-n log+ |x_n| at 53 bits; 0 on K+."""
        with mp.workprec(53):
            return self._green(pt, forward=True, max_iter=max_iter)

    def green_minus(self, pt: Point, max_iter: int = 100) -> float:
        """Backward escape-rate potential lim d^-n (log+ |y_{-n}| - log|a|/(d-1))
        at 53 bits; 0 on K-."""
        with mp.workprec(53):
            return self._green(pt, forward=False, max_iter=max_iter)

    # -- serialization ------------------------------------------------------

    def to_spec(self) -> dict:
        return {
            "a": [self.a.real, self.a.imag],
            "p": [[c.real, c.imag] for c in self.coeffs],
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "HenonMap":
        try:
            a = complex(spec["a"][0], spec["a"][1])
            coeffs = tuple(complex(re, im) for re, im in spec["p"])
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"malformed map spec: {exc}") from exc
        return cls(coeffs=coeffs, a=a)

    @classmethod
    def from_file(cls, path) -> "HenonMap":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_spec(json.load(fh))


def quadratic_map(c: complex, a: complex) -> HenonMap:
    """Convenience constructor for p(x) = x^2 + c."""
    return HenonMap(coeffs=(c, 0.0), a=a)
