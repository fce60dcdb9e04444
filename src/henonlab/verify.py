"""Extended-precision spot checks for certified orbits.

Double-precision orbit points carry O(1e-15) error, which backward
iteration amplifies by roughly the reciprocal stable multiplier per
step; on strongly hyperbolic maps the iterates leave the bounded set
after ~15 steps and the escape-rate estimate saturates near 1e-4 no
matter how many iterations are allowed.  Verifying that enumerated
periodic points genuinely lie in the bounded-orbit set therefore needs
more precision than the solver itself: these helpers re-polish a
certified orbit with mpmath Newton steps and evaluate the escape-rate
potentials without rounding back to doubles.  Non-finite points and
orbit vectors are rejected with ValueError, as ``HenonMap`` rejects them.

The Newton steps call the O(n) cyclic tridiagonal solve of the
double-precision solver, ``orbits._band_solve``, on object arrays of
mpmath numbers; that solve runs its own dense ``mp.lu_solve`` for n < 3
and for the systems it sends to its fallback, and raises
ZeroDivisionError on a singular Jacobian.  Newton converges
quadratically from the certified double orbit, so the polish stops at
the first step below the working precision, 2^-prec (1 + max |z_k|), and
after ``steps`` steps at most.

The potentials iterate on mpmath's raw ``_mpc_`` tuples: they call
``libmp.mpc_pos``, ``mpc_add``, ``mpc_mul``, ``mpc_sub``, ``mpc_div`` and
``mpc_abs`` with the working precision and rounding, which are the
functions and arguments the mpc operators call, so every rounding and
every returned float is the same as with mpc objects.  The modulus is
taken only once a coordinate part has ``exp + bc > 26``: a finite
nonzero part is below 2^(exp + bc), and 2^26 < ESCAPE_THRESHOLD/sqrt(2),
so that screen misses no escape.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np
from mpmath.libmp import from_float, mpc_abs, mpc_add, mpc_div, mpc_mul, mpc_pos, mpc_sub, mpf_gt

from .maps import ESCAPE_THRESHOLD, HenonMap
from .orbits import _band_solve, cyclic_residual

_THRESHOLD = from_float(ESCAPE_THRESHOLD)
#: a finite coordinate part with exp + bc <= this is below 2^26 < ESCAPE_THRESHOLD/sqrt(2)
_SCREEN_BITS = 26


def refine_orbit_hp(m: HenonMap, xs: np.ndarray, dps: int = 60, steps: int = 6) -> list:
    """Polish a certified cyclic orbit vector to ~dps digits (mpmath Newton)."""
    xs = [complex(v) for v in xs]
    if not np.isfinite(xs).all():
        raise ValueError(f"non-finite orbit vector {xs!r}")
    with mp.workdps(dps):
        z = np.array([mp.mpc(v) for v in xs], dtype=object)
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


def _green_hp(m: HenonMap, x: tuple, y: tuple, forward: bool, max_iter: int) -> float:
    """Escape rate of (x, y), given as ``_mpc_`` tuples, at the working precision."""
    prec, rnd = mp.mp._prec_rounding  # what the mpc operators read
    a = mp.mpc(m.a)._mpc_
    head, *tail = (mp.mpc(c)._mpc_ for c in reversed(m.coeffs))

    def p(v):  # HenonMap.p with the coefficients already mpc: the same roundings
        r = mpc_add(mpc_pos(v, prec, rnd), head, prec, rnd)
        for c in tail:
            r = mpc_add(mpc_mul(r, v, prec, rnd), c, prec, rnd)
        return r

    for n in range(max_iter + 1):
        v = x if forward else y
        if v[0][2] + v[0][3] > _SCREEN_BITS or v[1][2] + v[1][3] > _SCREEN_BITS:
            mag = mpc_abs(v, prec, rnd)
            if mpf_gt(mag, _THRESHOLD):
                return float(mp.log(mp.make_mpf(mag)) / mp.mpf(m.degree) ** n)
        if forward:
            x, y = mpc_sub(p(x), mpc_mul(a, y, prec, rnd), prec, rnd), x
        else:
            x, y = y, mpc_div(mpc_sub(p(y), x, prec, rnd), a, prec, rnd)
    return 0.0


def _mp_point(pt) -> tuple:
    """``_mpc_`` tuples of the point's coordinates: mpmath coordinates keep
    their digits, Python and numpy numbers go through complex."""
    x, y = (mp.mpc(v) if isinstance(v, (mp.mpf, mp.mpc)) else mp.mpc(complex(v)) for v in pt[:2])
    if not (mp.isfinite(x) and mp.isfinite(y)):
        raise ValueError(f"non-finite point {pt!r}")
    return x._mpc_, y._mpc_


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
