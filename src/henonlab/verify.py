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
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

from .maps import ESCAPE_THRESHOLD, HenonMap
from .orbits import cyclic_jacobian, cyclic_residual


def refine_orbit_hp(m: HenonMap, xs: np.ndarray, dps: int = 60, steps: int = 6) -> list:
    """Polish a certified cyclic orbit vector to ~dps digits (mpmath Newton)."""
    with mp.workdps(dps):
        z = np.array([mp.mpc(complex(v)) for v in xs], dtype=object)
        for _ in range(steps):
            s = mp.lu_solve(mp.matrix(cyclic_jacobian(m, z)), mp.matrix(cyclic_residual(m, z)))
            z = z - np.array(list(s), dtype=object)
        return list(z)


def _green_hp(m: HenonMap, x, y, forward: bool, max_iter: int) -> float:
    d = m.degree
    a = mp.mpc(m.a)
    n = 0
    while n <= max_iter:
        mag = abs(x if forward else y)
        if mag > ESCAPE_THRESHOLD:
            return float(mp.log(mag) / mp.mpf(d) ** n)
        if forward:
            x, y = m.p(x) - a * y, x
        else:
            x, y = y, (m.p(y) - x) / a
        n += 1
    return 0.0


def _mp_point(pt) -> tuple:
    return tuple(v if isinstance(v, mp.mpc) else mp.mpc(complex(v)) for v in pt[:2])


def green_plus_hp(m: HenonMap, pt, max_iter: int = 100, dps: int = 60) -> float:
    with mp.workdps(dps):
        return _green_hp(m, *_mp_point(pt), forward=True, max_iter=max_iter)


def green_minus_hp(m: HenonMap, pt, max_iter: int = 100, dps: int = 60) -> float:
    with mp.workdps(dps):
        return _green_hp(m, *_mp_point(pt), forward=False, max_iter=max_iter)


def orbit_greens_hp(m: HenonMap, xs: np.ndarray, max_iter: int = 100, dps: int = 60) -> tuple[float, float]:
    """(max green_plus, max green_minus) over the re-polished orbit points."""
    z = refine_orbit_hp(m, xs, dps=dps)
    n = len(z)
    gp = 0.0
    gm = 0.0
    with mp.workdps(dps):
        for k in range(n):
            x, y = z[k], z[k - 1]
            gp = max(gp, _green_hp(m, x, y, True, max_iter))
            gm = max(gm, _green_hp(m, x, y, False, max_iter))
    return gp, gm
