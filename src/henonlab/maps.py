"""Generalized complex Henon maps: iteration, Jacobians, escape geometry.

A map is f(x, y) = (p(x) - a*y, x) with p a monic polynomial of degree
d >= 2 and a != 0 the (constant) Jacobian determinant.  Its inverse is
f^-1(x, y) = (y, (p(y) - x) / a), so f is an automorphism of C^2.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

Point = tuple[complex, complex]

#: iterates whose first (resp. second) coordinate exceed this are escaping
ESCAPE_THRESHOLD = 1e8

#: hard magnitude cap while polishing the escape-rate estimate
_REFINE_CAP = 1e100


class EscapeOverflow(OverflowError):
    """An iterate left the range representable in double precision."""


def _require_finite(pt: Point) -> Point:
    x, y = complex(pt[0]), complex(pt[1])
    if not (cmath.isfinite(x) and cmath.isfinite(y)):
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
        while g(hi) <= 0.0:
            hi *= 2.0
        lo = 0.0
        # g has a single positive crossing (one coefficient sign change)
        while hi - lo > 1e-12 * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if g(mid) > 0.0:
                hi = mid
            else:
                lo = mid
        return hi

    def _green(self, pt: Point, forward: bool, max_iter: int) -> float:
        x, y = _require_finite(pt)
        d = float(self.degree)
        coord = 0 if forward else 1
        step = self.evaluate if forward else self.inverse
        z = (x, y)
        n = 0
        while n <= max_iter:
            m = abs(z[coord])
            if m > ESCAPE_THRESHOLD:
                # a few more iterations sharpen the telescoped limit
                for _ in range(4):
                    try:
                        w = step(z)
                    except (EscapeOverflow, OverflowError):
                        break
                    if abs(w[coord]) > _REFINE_CAP:
                        break
                    z = w
                    n += 1
                return math.log(abs(z[coord])) / d**n
            try:
                z = step(z)
            except (EscapeOverflow, OverflowError):
                return math.log(_REFINE_CAP) / d ** (n + 1)
            n += 1
        return 0.0

    def green_plus(self, pt: Point, max_iter: int = 100) -> float:
        """Forward escape-rate potential lim d^-n log+ |x_n|; 0 on K+."""
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        return self._green(pt, forward=True, max_iter=max_iter)

    def green_minus(self, pt: Point, max_iter: int = 100) -> float:
        """Backward escape-rate potential, mirror of green_plus under f^-1."""
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
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
