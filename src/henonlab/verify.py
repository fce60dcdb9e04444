"""Extended-precision spot checks for certified orbits.

Double-precision orbit points carry O(1e-15) error, which backward
iteration amplifies by roughly the reciprocal stable multiplier per
step; on strongly hyperbolic maps the iterates leave the bounded set
after ~15 steps and the escape-rate estimate saturates near 1e-4 no
matter how many iterations are allowed.  Verifying that enumerated
periodic points genuinely lie in the bounded-orbit set therefore needs
more precision than the solver itself: these helpers re-polish a
certified orbit with mpmath Newton steps and evaluate the escape-rate
potentials without rounding back to doubles.

The Newton steps call the O(n) cyclic tridiagonal solve of the
double-precision solver, ``orbits._band_solve``, on object arrays of
mpmath numbers; that solve runs its own dense ``mp.lu_solve`` for n < 3
and for the systems it sends to its fallback, and raises
ZeroDivisionError on a singular Jacobian.  Newton converges
quadratically from the certified double orbit, so the polish stops at
the first step below the working precision, 2^-prec (1 + max |z_k|), and
after ``steps`` steps at most.
The potentials convert the map's coefficients to mpmath once per point,
and take a modulus only once a coordinate part exceeds
0.7 ESCAPE_THRESHOLD; 0.7 < 1/sqrt(2), so that screen misses no escape.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

from .maps import ESCAPE_THRESHOLD, HenonMap
from .orbits import _band_solve, cyclic_residual

#: a point whose coordinate parts are all below this cannot be escaping
_SCREEN = 0.7 * ESCAPE_THRESHOLD


def refine_orbit_hp(m: HenonMap, xs: np.ndarray, dps: int = 60, steps: int = 6) -> list:
    """Polish a certified cyclic orbit vector to ~dps digits (mpmath Newton)."""
    with mp.workdps(dps):
        z = np.array([mp.mpc(complex(v)) for v in xs], dtype=object)
        for _ in range(steps):
            F = cyclic_residual(m, z)
            s = _band_solve(m.dp(z)[None], -mp.mpc(m.a), mp.mpc(-1), F[None])[0][0]
            z = z - s
            if max(abs(v) for v in s) <= mp.ldexp(1 + max(abs(v) for v in z), -mp.mp.prec):
                break
        return list(z)


def _require_max_iter(max_iter: int) -> None:
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")


def _green_hp(m: HenonMap, x, y, forward: bool, max_iter: int) -> float:
    d = m.degree
    a = mp.mpc(m.a)
    head, *tail = (mp.mpc(c) for c in reversed(m.coeffs))

    def p(v):  # HenonMap.p with the coefficients already mpc: the same roundings
        r = +v + head
        for c in tail:
            r = r * v + c
        return r

    screen = mp.mpf(_SCREEN)
    for n in range(max_iter + 1):
        v = x if forward else y
        if abs(v.real) > screen or abs(v.imag) > screen:
            mag = abs(v)
            if mag > ESCAPE_THRESHOLD:
                return float(mp.log(mag) / mp.mpf(d) ** n)
        if forward:
            x, y = p(x) - a * y, x
        else:
            x, y = y, (p(y) - x) / a
    return 0.0


def _mp_point(pt) -> tuple:
    """mpmath coordinates keep their digits; Python and numpy numbers go through complex."""
    return tuple(mp.mpc(v) if isinstance(v, (mp.mpf, mp.mpc)) else mp.mpc(complex(v)) for v in pt[:2])


def green_plus_hp(m: HenonMap, pt, max_iter: int = 100, dps: int = 60) -> float:
    _require_max_iter(max_iter)
    with mp.workdps(dps):
        return _green_hp(m, *_mp_point(pt), forward=True, max_iter=max_iter)


def green_minus_hp(m: HenonMap, pt, max_iter: int = 100, dps: int = 60) -> float:
    _require_max_iter(max_iter)
    with mp.workdps(dps):
        return _green_hp(m, *_mp_point(pt), forward=False, max_iter=max_iter)


def orbit_greens_hp(m: HenonMap, xs: np.ndarray, max_iter: int = 100, dps: int = 60) -> tuple[float, float]:
    """(max green_plus, max green_minus) over the re-polished orbit points."""
    _require_max_iter(max_iter)
    z = refine_orbit_hp(m, xs, dps=dps)
    pts = [(z[k], z[k - 1]) for k in range(len(z))]
    return (max(green_plus_hp(m, pt, max_iter, dps) for pt in pts),
            max(green_minus_hp(m, pt, max_iter, dps) for pt in pts))
