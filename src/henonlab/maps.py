"""Generalized complex Henon maps: iteration, Jacobians, escape geometry.

A map is f(x, y) = (p(x) - a*y, x) with p a monic polynomial of degree
d >= 2 and a != 0 the (constant) Jacobian determinant.  Its inverse is
f^-1(x, y) = (y, (p(y) - x) / a), so f is an automorphism of C^2.

The escape-rate potentials G+ and G- have one loop, ``HenonMap._green``,
which runs at the working mpmath precision prec: ``green_plus`` and
``green_minus`` run it at 53 bits, ``verify.green_plus_hp`` and
``green_minus_hp`` at a chosen number of digits.  It steps in fixed point,
on Gaussian integers scaled by 2^P with P = prec + 10: each coordinate part
and each constant (a, 1/a, the coefficients of p) is truncated to a
multiple of 2^-P, and each complex product is truncated once more by
``>> P``.  A step therefore errs by a few units of 2^-P in each part, so
an iterate of modulus r >= 1 carries a relative error of about 2^-P / r
per step, ten bits below the working precision, and the errors grow along
the orbit only as the map itself separates nearby points.  Iterates are
Python ints, so none overflows.  The loop stops once the escaping
coordinate v (x forward, y backward) has |v| > ESCAPE_THRESHOLD and
|v| >= |w|, w the other coordinate, comparing squared moduli as integers:
that is the region V+ (V-) of ``filtration_radius``, where the orbit keeps
escaping.  It returns (log|v_n| - c) / d^n, with c = 0 forward and
c = log|a| / (d - 1) backward: f^-1 divides by a at every step, and in V-
|y'| = |y|^d / |a| (1 + o(1)), so u = log|y| - c satisfies u' = d u + o(1).
That estimator is itself within about 1e-9 relative of the limit, since
|v_n| > 1e8; an orbit that reaches |v| = ESCAPE_THRESHOLD to the last digit
may escape one step earlier or later than in another rounding, and its G
then moves by that much.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from functools import cached_property

import mpmath as mp
import numpy as np
from mpmath.libmp import fzero, to_fixed

Point = tuple[complex, complex]

#: forward (backward) iterates whose first (second) coordinate exceeds this
#: and is at least the other coordinate in modulus are escaping
ESCAPE_THRESHOLD = 1e8


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
        """``_green``'s a, 1/a and the coefficients of p from the highest power
        down, as Gaussian integers scaled by 2^P, and log|a| / (d - 1), keyed by P."""
        return {}

    def _green(self, pt, forward: bool, max_iter: int) -> float:
        """Escape rate of pt at the working mpmath precision; 0 if the orbit
        stays out of V+ (V- backward) for max_iter steps."""
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        P = mp.mp.prec + 10
        if P not in self._green_constants:
            with mp.workprec(P):
                a = mp.mpc(self.a)
                self._green_constants[P] = (
                    [[to_fixed(q, P) for q in z._mpc_] for z in (a, 1 / a)],
                    [[to_fixed(q, P) for q in mp.mpc(c)._mpc_] for c in reversed(self.coeffs)],
                    mp.log(abs(a)) / (self.degree - 1))
        ((ar, ai), (br, bi)), ((hr, hi), *tail), log_a = self._green_constants[P]
        bound = int(ESCAPE_THRESHOLD) ** 2 << 2 * P
        x, y = ([to_fixed(q, P) for q in z] for z in _mp_point(pt))
        for n in range(max_iter + 1):
            (vr, vi), (wr, wi) = (x, y) if forward else (y, x)
            norm = vr * vr + vi * vi
            if norm > bound and norm >= wr * wr + wi * wi:
                u = mp.log(mp.ldexp(norm, -2 * P)) / 2
                if not forward:  # in V-, |y'| = |y|^d / |a| (1 + o(1))
                    u -= log_a
                return float(u / mp.mpf(self.degree) ** n)
            # p(v) by Horner's rule: 1 v + head is exact, then r v >> P + c
            rr, ri = vr + hr, vi + hi
            for cr, ci in tail:
                rr, ri = ((rr * vr - ri * vi) >> P) + cr, ((rr * vi + ri * vr) >> P) + ci
            if forward:  # x' = p(x) - a y
                x, y = [rr - ((ar * wr - ai * wi) >> P), ri - ((ar * wi + ai * wr) >> P)], x
            else:  # y' = (p(y) - x) / a
                rr, ri = rr - wr, ri - wi
                x, y = y, [(rr * br - ri * bi) >> P, (rr * bi + ri * br) >> P]
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
