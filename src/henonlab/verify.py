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
orbit vectors are rejected with ValueError, as ``HenonMap`` rejects them,
and so are empty orbit vectors, ``dps < 1`` and ``steps < 1``.

The re-polish is the double-precision solver's own Newton loop,
``orbits._newton``, run at the working precision on an object array of
mpmath numbers; its O(n) ``_band_solve`` runs a dense ``mp.lu_solve``
for n < 3 and for the systems it sends to its fallback, and raises
ZeroDivisionError on a singular Jacobian.  Newton converges
quadratically from the certified double orbit, so the polish stops once a
correction ds = max |s_k| is below the working precision, tol = 2^-prec
(1 + max |z_k|), or once the quadratic model predicts the next one below
it, ds^3 <= tol prev^2 with prev the correction before, and after
``steps`` >= 1 steps at most.  The second test saves the solve that would
only confirm convergence: on the horseshoe and mixed Fix_8 the
corrections are about 1e-16, 1e-32 and then round-off, and the polish
stops after two.  Under linear convergence with ratio theta = ds / prev
it fires only once ds <= tol / theta^2.  Where the corrections stall at
a round-off floor above tol, as they may near a saddle-node, the polish
ends at that floor, by the prediction or because no halved step lowers
the residual, not after ``steps`` steps.

The potentials ``green_plus_hp`` and ``green_minus_hp`` run the one
escape-rate loop, ``HenonMap._green``, at ``dps`` digits, on mpmath
coordinates as given, with all their digits; ``HenonMap``'s
own methods run it at 53 bits, so at dps 15 both give the same floats.
Its fixed-point steps and their error model are described in ``maps``.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

from .maps import HenonMap
from .orbits import _newton


def _workdps(dps: int):
    """mp.workdps(dps) for dps >= 1: below that mpmath would quietly work at a few bits."""
    if dps < 1:
        raise ValueError(f"dps must be >= 1, got {dps}")
    return mp.workdps(dps)


def refine_orbit_hp(m: HenonMap, xs: np.ndarray, dps: int = 60, steps: int = 6) -> list:
    """Polish a certified cyclic orbit vector to ~dps digits (mpmath Newton)."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    xs = [complex(v) for v in xs]
    if not xs:
        raise ValueError("empty orbit vector")
    if not np.isfinite(xs).all():
        raise ValueError(f"non-finite orbit vector {xs!r}")
    with _workdps(dps):
        z = np.array([[mp.mpc(v) for v in xs]], dtype=object)
        return list(_newton(m, z, mp.mp.prec, steps)[0])


def green_plus_hp(m: HenonMap, pt, max_iter: int = 100, dps: int = 60) -> float:
    with _workdps(dps):
        return m._green(pt, forward=True, max_iter=max_iter)


def green_minus_hp(m: HenonMap, pt, max_iter: int = 100, dps: int = 60) -> float:
    with _workdps(dps):
        return m._green(pt, forward=False, max_iter=max_iter)


def orbit_greens_hp(m: HenonMap, xs: np.ndarray, max_iter: int = 100, dps: int = 60) -> tuple[float, float]:
    """(max green_plus, max green_minus) over the re-polished orbit points."""
    if max_iter < 1:  # before the polish, not after it
        raise ValueError("max_iter must be >= 1")
    z = refine_orbit_hp(m, xs, dps=dps)
    pts = [(z[k], z[k - 1]) for k in range(len(z))]
    return (max(green_plus_hp(m, pt, max_iter, dps) for pt in pts),
            max(green_minus_hp(m, pt, max_iter, dps) for pt in pts))
