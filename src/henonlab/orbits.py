"""Enumeration, refinement, certification and classification of periodic orbits.

A period-n orbit is stored as the cyclic vector (x_0, ..., x_{n-1}) of
first coordinates; the phase point at index k is (x_k, x_{k-1 mod n}).
The defining system is

    F_k(x) = p(x_k) - a x_{k-1} - x_{k+1} = 0   (indices mod n)

whose Jacobian is cyclic tridiagonal: diagonal p'(x_k), subdiagonal -a,
superdiagonal -1, plus the wrap-around corners J[0, n-1] = -a and
J[n-1, 0] = -1.  Batched Newton solves each step in O(n) per row without
forming J: Thomas elimination on the tridiagonal part and a
Sherman-Morrison correction for the corners.  Rows where that elimination
is unreliable, and every row when n < 3, use the dense LAPACK solve.
"""

from __future__ import annotations

import cmath
import json
import math
from bisect import bisect_left, bisect_right, insort
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .maps import HenonMap

#: documented default so every run is reproducible out of the box
DEFAULT_RNG_SEED = 1729


class NewtonFailure(RuntimeError):
    reason = "failed"


class NewtonDiverged(NewtonFailure):
    reason = "diverged"


class NewtonStalled(NewtonFailure):
    reason = "stalled"


class NewtonSingular(NewtonFailure):
    reason = "singular"


class AmbiguousOrbitError(RuntimeError):
    """Two certified orbits landed between the certificate and dedup scales."""


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances shared across the solver and its consumers."""

    newton: float = 1e-12       # residual sup-norm target for refinement
    dedup: float = 1e-8         # orbit identification scale (sup over rotations)
    eps_hyp: float = 1e-6       # hyperbolicity band around |lambda| = 1
    separation: float = 1e-6    # proper-divisor cycles must differ by this much
    certify_ball: float = 1e-3  # radius on which the Jacobian Lipschitz bound is taken

    def __post_init__(self) -> None:
        for name in ("newton", "dedup", "eps_hyp", "separation", "certify_ball"):
            if getattr(self, name) <= 0:
                raise ValueError(f"tolerance {name} must be positive")

    def key(self) -> tuple:
        return (self.newton, self.dedup, self.eps_hyp, self.separation, self.certify_ball)


DEFAULT_TOLERANCES = Tolerances()


# ---------------------------------------------------------------------------
# cyclic system
# ---------------------------------------------------------------------------

def _orbit_array(xs) -> np.ndarray:
    xs = np.asarray(xs)
    return xs if xs.dtype == object else xs.astype(complex, copy=False)


def _prev(xs: np.ndarray) -> np.ndarray:
    """x_{k-1} along the trailing axis (``np.roll(xs, 1, axis=-1)`` without its overhead)."""
    return np.concatenate((xs[..., -1:], xs[..., :-1]), axis=-1)


def _next(xs: np.ndarray) -> np.ndarray:
    """x_{k+1} along the trailing axis."""
    return np.concatenate((xs[..., 1:], xs[..., :1]), axis=-1)


def cyclic_residual(m: HenonMap, xs: np.ndarray) -> np.ndarray:
    """Residual of the cyclic period system; zero iff a genuine orbit.

    The system runs along the trailing axis, so ``xs`` may be one vector
    (n,), a batch (B, n) or an object array of mpmath numbers.
    """
    xs = _orbit_array(xs)
    return m.p(xs) - m.a * _prev(xs) - _next(xs)


def cyclic_jacobian(m: HenonMap, xs: np.ndarray) -> np.ndarray:
    """Jacobian of ``cyclic_residual``, shaped xs.shape + (n,), same dtype."""
    xs = _orbit_array(xs)
    n = xs.shape[-1]
    J = np.zeros(xs.shape + (n,), dtype=xs.dtype)
    idx = np.arange(n)
    J[..., idx, idx] += m.dp(xs)
    J[..., idx, (idx - 1) % n] += -m.a
    J[..., idx, (idx + 1) % n] += -1.0
    return J


def _residual_floor(m: HenonMap) -> float:
    R = m.filtration_radius
    scale = R**m.degree + abs(m.a) * R + sum(abs(c) * R**j for j, c in enumerate(m.coeffs))
    return 1e-15 * (1.0 + scale)


def _dense_solve(m: HenonMap, X: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK solve on the dense Jacobians; rows with singular Jacobians are flagged."""
    J = cyclic_jacobian(m, X)
    bad = np.zeros(J.shape[0], dtype=bool)
    try:
        return np.linalg.solve(J, F[..., None])[..., 0], bad
    except np.linalg.LinAlgError:
        S = np.zeros_like(F)
        for i in range(J.shape[0]):
            try:
                S[i] = np.linalg.solve(J[i], F[i])
            except np.linalg.LinAlgError:
                bad[i] = True
        return S, bad


#: a Thomas pivot or Sherman-Morrison denominator this small, relative to
#: its scale, sends the row to the dense solve
_FALLBACK_RTOL = 1e-6


def _solve_batch(m: HenonMap, X: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps S with J(X) S = F row by row; rows with singular J are flagged.

    J = A + u v^T, where A is J without its corners and with the first and
    last diagonal entries changed by gamma = -p'(x_0) (1 where that is 0)
    and J[n-1, 0] J[0, n-1] / gamma, u = (gamma, 0, ..., 0, J[n-1, 0]) and
    v = (1, 0, ..., 0, J[0, n-1] / gamma).  Thomas elimination solves
    A y = F and A z = u together, and S = y - z (v.y) / (1 + v.z)
    (Numerical Recipes, section 2.7).  Rows with a tiny pivot or
    denominator or a non-finite step are solved densely instead.
    """
    B, n = X.shape
    if n < 3:  # the corners fall on the off-diagonals
        return _dense_solve(m, X, F)
    sub = -m.a  # the superdiagonal is -1 and is written out below
    diag = m.dp(X)
    gamma = -diag[:, 0]
    gamma[gamma == 0] = 1.0
    rhs = np.zeros((n, 2, B), dtype=complex)
    rhs[:, 0] = F.T
    rhs[0, 1] = gamma
    rhs[-1, 1] = -1.0
    piv = diag.T.copy()
    piv[0] -= gamma
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v_last = sub / gamma
        piv[-1] += v_last
        for i in range(1, n):
            f = sub / piv[i - 1]
            piv[i] += f
            rhs[i] -= f * rhs[i - 1]
        rhs[-1] /= piv[-1]
        for i in range(n - 2, -1, -1):
            rhs[i] += rhs[i + 1]
            rhs[i] /= piv[i]
        (y0, z0), (y1, z1) = rhs[0], rhs[-1]
        vz = z0 + v_last * z1
        den = 1.0 + vz
        S = (rhs[:, 0] - rhs[:, 1] * ((y0 + v_last * y1) / den)).T
        scale = np.abs(diag).max(axis=1) + abs(sub) + 1.0
        dense = ((np.abs(piv).min(axis=0) < _FALLBACK_RTOL * scale)
                 | (np.abs(den) < _FALLBACK_RTOL * (1.0 + np.abs(vz)))
                 | ~np.isfinite(S).all(axis=1))
    bad = np.zeros(B, dtype=bool)
    if dense.any():
        S[dense], bad[dense] = _dense_solve(m, X[dense], F[dense])
    return S, bad


def _newton_batch(
    m: HenonMap,
    X: np.ndarray,
    tol: float,
    max_steps: int = 60,
    safety: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton on a batch of cyclic orbit vectors.

    Returns (X, converged, singular, residual_norms).  Rows converge when
    the residual sup-norm drops below ``tol`` and further steps stop
    improving (iteration continues to the round-off floor so certified
    orbits carry residuals near machine precision).  Each step is solved
    in O(n) per row by ``_solve_batch``; a row is singular when its dense
    fallback solve finds the Jacobian exactly singular.
    """
    X = np.array(X, dtype=complex)
    B, n = X.shape
    if safety is None:
        safety = 2.0 * m.filtration_radius
    floor = _residual_floor(m)

    rn = np.abs(cyclic_residual(m, X)).max(axis=1)
    done = np.zeros(B, dtype=bool)
    dead = np.zeros(B, dtype=bool)
    singular = np.zeros(B, dtype=bool)

    for _ in range(max_steps):
        act = np.flatnonzero(~done & ~dead)
        if act.size == 0:
            break
        Xa = X[act]
        Fa = cyclic_residual(m, Xa)
        S, bad = _solve_batch(m, Xa, Fa)
        if bad.any():
            idx = act[bad]
            dead[idx] = True
            singular[idx] = True
            keep = ~bad
            act, Xa, S = act[keep], Xa[keep], S[keep]
            if act.size == 0:
                continue
        r0 = rn[act]
        cand = Xa - S
        rc = np.abs(cyclic_residual(m, cand)).max(axis=1)
        worse = rc >= r0
        t = 1.0
        for _ in range(3):
            if not worse.any():
                break
            t *= 0.5
            cand[worse] = Xa[worse] - t * S[worse]
            rc[worse] = np.abs(cyclic_residual(m, cand[worse])).max(axis=1)
            worse = worse & (rc >= r0)
        stuck = worse  # no damping factor improved: at the attainable floor
        done[act[stuck & (r0 <= max(tol, floor))]] = True
        dead[act[stuck & (r0 > max(tol, floor))]] = True
        moved = ~stuck
        mi = act[moved]
        X[mi] = cand[moved]
        rn[mi] = rc[moved]
        out = np.abs(X[mi]).max(axis=1) > safety
        dead[mi[out]] = True
        done[mi[~out] [rn[mi[~out]] <= floor]] = True
    # rows that ran out of steps but already satisfy tol still count
    done |= (~dead) & (rn <= tol)
    return X, done, singular, rn


def newton_refine(
    m: HenonMap,
    seed: np.ndarray,
    tol: float = DEFAULT_TOLERANCES.newton,
    max_steps: int = 60,
) -> np.ndarray:
    """Refine one cyclic seed; raises NewtonDiverged/Stalled/Singular."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    seed = np.atleast_1d(np.asarray(seed, dtype=complex))
    safety = 2.0 * m.filtration_radius
    if np.abs(seed).max() > safety:
        raise NewtonDiverged("seed outside the safety region")
    X, done, singular, rn = _newton_batch(m, seed[None, :], tol, max_steps, safety)
    if done[0]:
        return X[0]
    if singular[0]:
        raise NewtonSingular("cyclic Jacobian numerically singular (possible multiple root)")
    if np.abs(X[0]).max() > safety or not np.isfinite(rn[0]):
        raise NewtonDiverged("iterates left the safety region")
    raise NewtonStalled(f"no convergence after {max_steps} steps (residual {rn[0]:.3e})")


# ---------------------------------------------------------------------------
# certification (a posteriori Newton-Kantorovich test)
# ---------------------------------------------------------------------------

def _residual_rounding(m: HenonMap, xs: np.ndarray) -> np.ndarray:
    """Bound on the rounding error of each entry of ``cyclic_residual(m, xs)``.

    An entry is Horner's rule over degree d followed by two subtractions;
    4 (d + 2) eps times the sum of the moduli of its terms covers the
    rounding of that chain in complex arithmetic.
    """
    ax = np.abs(xs)
    d = m.degree
    terms = (ax**d + sum(abs(c) * ax**i for i, c in enumerate(m.coeffs))
             + abs(m.a) * _prev(ax) + _next(ax))
    return 4 * (d + 2) * np.finfo(float).eps * terms


def certify(m: HenonMap, xs: np.ndarray, tols: Tolerances = DEFAULT_TOLERANCES) -> tuple[bool, float]:
    """Decide whether a unique true orbit lies near ``xs``.

    With eta = max_k sum_j |J^-1_kj| (|F_j| + e_j), where e_j bounds the
    rounding error of the computed residual F_j, beta = |J^-1|_inf and L
    the Lipschitz bound for the Jacobian on the ball of radius
    ``tols.certify_ball`` (driven by max |p''| there), h = beta L eta <= 1/2
    guarantees a unique zero within rho = (1 - sqrt(1 - 2h)) / (beta L).
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=complex))
    F = cyclic_residual(m, xs)
    if not np.all(np.isfinite(F)):
        return False, 0.0
    J = cyclic_jacobian(m, xs)
    try:
        Jinv = np.linalg.inv(J)
    except np.linalg.LinAlgError:
        return False, 0.0
    abs_inv = np.abs(Jinv)
    eta = float((abs_inv @ (np.abs(F) + _residual_rounding(m, xs))).max())
    beta = float(abs_inv.sum(axis=1).max())
    L = m.d2p_bound(float(np.abs(xs).max()) + tols.certify_ball)
    if L <= 0.0 or not math.isfinite(beta):
        return False, 0.0
    h = beta * L * eta
    if h > 0.5:
        return False, 0.0
    rho = (1.0 - math.sqrt(1.0 - 2.0 * h)) / (beta * L)
    if rho > tols.certify_ball:
        return False, 0.0
    # floating representation of xs itself is only good to machine precision
    rho = max(rho, np.finfo(float).eps * (1.0 + float(np.abs(xs).max())))
    return True, rho


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass
class PeriodicOrbit:
    """A certified period-n orbit with multipliers and classification."""

    n: int
    xs: np.ndarray
    lambda_s: complex
    lambda_u: complex
    chi: float
    kind: str
    residual: float
    certified: bool
    certificate_radius: float

    @property
    def points(self) -> list[tuple[complex, complex]]:
        return [(complex(self.xs[k]), complex(self.xs[k - 1])) for k in range(self.n)]

    @property
    def log_lambda_u(self) -> float:
        return self.n * self.chi


def monodromy(m: HenonMap, xs: np.ndarray, start: int = 0) -> tuple[np.ndarray, float]:
    """Scaled product Df(p_{start+n-1}) ... Df(p_start) along the orbit.

    Returns (M_scaled, log_scale) with the true monodromy M_scaled * e^log_scale;
    the running rescale keeps entries bounded for long orbits.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=complex))
    n = xs.shape[0]
    M = np.eye(2, dtype=complex)
    log_scale = 0.0
    for i in range(n):
        k = (start + i) % n
        A = np.array([[m.dp(xs[k]), -m.a], [1.0, 0.0]], dtype=complex)
        M = A @ M
        s = float(np.abs(M).max())
        if s > 0.0 and (s > 1e8 or s < 1e-8):
            M /= s
            log_scale += math.log(s)
    return M, log_scale


def _scaled_eigenpair(M: np.ndarray, log_scale: float) -> tuple[complex, complex, float, float]:
    """Eigenvalues of e^log_scale * M with stable root pairing.

    Returns (lu_scaled, ls_scaled, log_abs_lu, log_abs_ls) where the true
    multipliers are lu_scaled * e^log_scale etc.
    """
    T = M[0, 0] + M[1, 1]
    D = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    disc = np.lib.scimath.sqrt(T * T - 4.0 * D)
    l1 = (T + disc) / 2.0 if abs(T + disc) >= abs(T - disc) else (T - disc) / 2.0
    l2 = D / l1 if l1 != 0 else 0.0 + 0j
    if abs(l2) > abs(l1):
        l1, l2 = l2, l1
    log_lu = math.log(abs(l1)) + log_scale if l1 != 0 else -math.inf
    log_ls = math.log(abs(l2)) + log_scale if l2 != 0 else -math.inf
    return complex(l1), complex(l2), log_lu, log_ls


def classify(
    m: HenonMap,
    xs: np.ndarray,
    tols: Tolerances = DEFAULT_TOLERANCES,
    certified: bool | None = None,
    certificate_radius: float | None = None,
) -> PeriodicOrbit:
    """Build the PeriodicOrbit record (multipliers, exponent, kind)."""
    xs = np.atleast_1d(np.asarray(xs, dtype=complex))
    n = xs.shape[0]
    residual = float(np.abs(cyclic_residual(m, xs)).max())
    if certified is None:
        certified, certificate_radius = certify(m, xs, tols)
    M, log_scale = monodromy(m, xs)
    l1, l2, log_lu, log_ls = _scaled_eigenpair(M, log_scale)
    scale = math.exp(log_scale) if abs(log_scale) < 690 else math.inf
    lambda_u = l1 * scale if math.isfinite(scale) else complex(math.inf, 0)
    lambda_s = l2 * scale if math.isfinite(scale) else 0.0
    if math.isfinite(log_lu) and l1 != 0:
        # the determinant of Df^n is exactly a^n; the product of a long
        # near-singular 2x2 chain cancels catastrophically, so the stable
        # multiplier is pinned through the determinant in log-polar form
        log_ls = n * math.log(abs(m.a)) - log_lu
        arg_ls = n * cmath.phase(m.a) - cmath.phase(l1)
        lambda_s = cmath.exp(complex(log_ls, arg_ls))
    chi = log_lu / n
    eps = tols.eps_hyp
    lo, hi = math.log1p(-eps), math.log1p(eps)
    if log_ls < lo and log_lu > hi:
        kind = "saddle"
    elif log_ls < lo and log_lu < lo:
        kind = "sink"
    elif log_ls > hi and log_lu > hi:
        kind = "source"
    else:
        kind = "marginal"
    return PeriodicOrbit(
        n=n,
        xs=xs,
        lambda_s=complex(lambda_s),
        lambda_u=complex(lambda_u),
        chi=chi,
        kind=kind,
        residual=residual,
        certified=bool(certified),
        certificate_radius=float(certificate_radius or 0.0),
    )


# ---------------------------------------------------------------------------
# orbit vector utilities
# ---------------------------------------------------------------------------

def _divisors(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if n % k == 0]


def _rotations(xs: np.ndarray) -> np.ndarray:
    """The (n, n) table whose row r is ``np.roll(xs, -r)``."""
    n = xs.shape[0]
    return xs[(np.arange(n)[:, None] + np.arange(n)) % n]


def _lex_order(rows: np.ndarray) -> np.ndarray:
    """Stable order of complex rows by their (re_0, im_0, re_1, ...) keys."""
    keys = np.stack((rows.real, rows.imag), axis=-1).reshape(len(rows), 2 * rows.shape[1])
    return np.lexsort(keys.T[::-1])


def rotation_distance(u: np.ndarray, v: np.ndarray) -> float:
    """min over cyclic rotations r of sup_k |u_k - v_{k+r}|."""
    return float(np.abs(np.asarray(u) - _rotations(np.asarray(v))).max(axis=1).min())


def canonical_rotation(xs: np.ndarray) -> np.ndarray:
    """Rotation minimizing the (re, im) lexicographic key, ties to the smallest shift."""
    table = _rotations(np.asarray(xs, dtype=complex))
    return table[_lex_order(table)[0]]


def _period_and_gaps(xs: np.ndarray, tol: float) -> tuple[int, dict[int, float]]:
    """Minimal period under ``tol`` and the shift gaps of every proper divisor p of n.

    The gap of p is sup_k |x_{k+p} - x_k|.
    """
    n = xs.shape[0]
    table = _rotations(xs)
    gaps = {p: float(np.abs(xs - table[p]).max()) for p in _divisors(n)[:-1]}
    return next((p for p, gap in gaps.items() if gap < tol), n), gaps


def vector_period(xs: np.ndarray, tol: float) -> int:
    """Minimal p | n with sup_k |x_{k+p} - x_k| < tol."""
    return _period_and_gaps(xs, tol)[0]


def _reduce_to_period(m: HenonMap, xs: np.ndarray, k: int, tols: Tolerances) -> np.ndarray:
    """Average the n/k repeats of a k-periodic vector and re-polish the length-k result."""
    w = xs.reshape(xs.shape[0] // k, k).mean(axis=0)
    return newton_refine(m, w, tols.newton, 20)


# ---------------------------------------------------------------------------
# spectrum container
# ---------------------------------------------------------------------------

@dataclass
class PeriodSpectrum:
    """The catalogue of Fix_n for one map: orbits grouped by exact period."""

    map: HenonMap
    n: int
    orbits: list[PeriodicOrbit]
    complete: bool
    budget_used: int = 0
    unresolved: list[np.ndarray] = field(default_factory=list)

    @property
    def counts(self) -> dict:
        per: dict[int, int] = {}
        for o in self.orbits:
            per[o.n] = per.get(o.n, 0) + o.n
        fix = sum(per.values())
        sper = sum(o.n for o in self.orbits if o.n == self.n and o.kind == "saddle")
        return {"fix": fix, "per": per, "sper": sper}

    def select(self, which: str) -> list[PeriodicOrbit]:
        """Orbit subset for the three point classes of the limit theorem.

        fix: every point of f^n; per: exact period n only; sper: the
        saddle subset of Fix_n (coincides with fix on all-saddle spectra).
        """
        if which == "fix":
            return list(self.orbits)
        if which == "per":
            return [o for o in self.orbits if o.n == self.n]
        if which == "sper":
            return [o for o in self.orbits if o.kind == "saddle"]
        raise ValueError(f"unknown selection {which!r} (expected fix/per/sper)")


# ---------------------------------------------------------------------------
# multistart enumeration
# ---------------------------------------------------------------------------

class _Bucket:
    """Kept orbits of one exact period, indexed by Re(sum x_k) for lookup."""

    __slots__ = ("orbits", "s1r", "order")

    def __init__(self) -> None:
        self.orbits: list[dict] = []
        self.s1r: list[float] = []   # sorted Re(s1)
        self.order: list[int] = []   # orbit index parallel to s1r

    def near(self, s1: complex, window: float):
        lo = bisect_left(self.s1r, s1.real - window)
        hi = bisect_right(self.s1r, s1.real + window)
        for t in range(lo, hi):
            yield self.orbits[self.order[t]]

    def add(self, rec: dict) -> None:
        i = len(self.orbits)
        self.orbits.append(rec)
        pos = bisect_left(self.s1r, rec["s1"].real)
        self.s1r.insert(pos, rec["s1"].real)
        self.order.insert(pos, i)


def _seed_batch(m: HenonMap, n: int, count: int, seed_material: tuple) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed_material)))
    R = m.filtration_radius
    r = R * np.sqrt(rng.random((count, n)))
    theta = 2.0 * np.pi * rng.random((count, n))
    return r * np.exp(1j * theta)


def enumerate_fix(
    m: HenonMap,
    n: int,
    budget: int | None = None,
    rng_seed: int | tuple = DEFAULT_RNG_SEED,
    workers: int = 1,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> PeriodSpectrum:
    """Multistart enumeration of all fixed points of f^n.

    Seeds are uniform in the filtration polydisk; each is refined by
    damped Newton on the cyclic system, averaged over its exact-period
    repeats and looked up up to rotation; only a new orbit is re-polished
    at its exact period and certified.  Stops early once the point count
    reaches d^n; a count above d^n means a failed dedup and raises
    AmbiguousOrbitError.  Output is deterministic for a given rng_seed
    regardless of the worker count: wave composition is fixed and results
    are merged in batch order, then sorted lexicographically.
    """
    if n < 1:
        raise ValueError("period n must be >= 1")
    d = m.degree
    target = d**n
    if budget is None:
        budget = 1000 * target
    if budget < target:
        raise ValueError(f"budget {budget} below d^n = {target}")

    sub_size = int(min(4096, max(128, 4 * target)))
    subs_per_wave = 8
    safety = 2.0 * m.filtration_radius
    buckets: dict[int, _Bucket] = {}
    unresolved: list[np.ndarray] = []
    total = 0
    seeds_used = 0
    wave = 0

    seed_prefix = rng_seed if isinstance(rng_seed, tuple) else (rng_seed,)

    def run_sub(args):
        widx, sidx, count = args
        X = _seed_batch(m, n, count, (*seed_prefix, n, widx, sidx))
        X, done, _, rn = _newton_batch(m, X, tols.newton, 60, safety)
        keep = done & (rn < 10.0 * tols.newton)
        return X[keep]

    pool = ThreadPoolExecutor(max_workers=max(1, workers)) if workers > 1 else None
    try:
        while total < target and seeds_used < budget:
            jobs = []
            for s in range(subs_per_wave):
                count = min(sub_size, budget - seeds_used)
                if count <= 0:
                    break
                jobs.append((wave, s, count))
                seeds_used += count
            if not jobs:
                break
            if pool is not None:
                results = list(pool.map(run_sub, jobs))
            else:
                results = [run_sub(j) for j in jobs]
            for block in results:
                for vec in block:
                    total += _absorb_candidate(m, n, vec, buckets, unresolved, tols)
                    if total >= target:
                        break
                if total >= target:
                    break
            wave += 1
    finally:
        if pool is not None:
            pool.shutdown(wait=False)

    if total > target:
        raise AmbiguousOrbitError(f"{total} certified points exceed d^n = {target}: "
                                  "one orbit was kept twice")
    orbits: list[PeriodicOrbit] = []
    for k in sorted(buckets):
        recs = buckets[k].orbits
        for i in _lex_order(np.array([r["xs"] for r in recs]).reshape(-1, k)):
            rec = recs[i]
            orbits.append(
                classify(m, rec["xs"], tols, certified=True, certificate_radius=rec["radius"])
            )
    return PeriodSpectrum(
        map=m,
        n=n,
        orbits=orbits,
        complete=(total == target),
        budget_used=seeds_used,
        unresolved=unresolved,
    )


def _absorb_candidate(
    m: HenonMap,
    n: int,
    vec: np.ndarray,
    buckets: dict[int, _Bucket],
    unresolved: list[np.ndarray],
    tols: Tolerances,
) -> int:
    """Look up one converged vector, polish and certify it if new; returns points added to Fix_n."""
    # exact-period reduction: genuine k-periodic vectors repeat to round-off
    k, gaps = _period_and_gaps(vec, tols.dedup)
    if k == n and any(tols.dedup <= gap < tols.separation for gap in gaps.values()):
        unresolved.append(np.array(vec))
        return 0
    w = vec.reshape(n // k, k).mean(axis=0)
    bucket = buckets.setdefault(k, _Bucket())
    window = k * tols.dedup + 1e-12
    dmin, nearest = math.inf, None
    for rec in bucket.near(complex(w.sum()), window):
        dv = rotation_distance(w, rec["xs"])
        if dv < dmin:
            dmin, nearest = dv, rec
    if dmin < tols.dedup:
        # duplicate; sanity-check the merge against the certificate scale
        if dmin > max(100.0 * nearest["radius"], 1e-10):
            ok, rho = certify(m, w, tols)
            if ok and dmin > rho + nearest["radius"]:
                raise AmbiguousOrbitError(
                    f"certified orbits separated by {dmin:.3e}, inside the dedup scale"
                )
        return 0
    if k < n:
        try:
            w = _reduce_to_period(m, vec, k, tols)
        except NewtonFailure:
            return 0
    if float(np.abs(cyclic_residual(m, w)).max()) > 1e-10:
        return 0
    w = canonical_rotation(w)
    ok, rho = certify(m, w, tols)
    if not ok:
        if all(rotation_distance(w, u) >= tols.dedup for u in unresolved if u.shape[0] == k):
            unresolved.append(np.array(w))
        return 0
    bucket.add({"xs": w, "s1": complex(w.sum()), "radius": rho})
    return k


# ---------------------------------------------------------------------------
# period decomposition across divisor spectra
# ---------------------------------------------------------------------------

def decompose_periods(spectra: dict[int, PeriodSpectrum],
                      tols: Tolerances = DEFAULT_TOLERANCES) -> PeriodSpectrum:
    """Cross-check the exact-period decomposition of Fix_n against divisors.

    ``spectra`` must hold a complete spectrum for every divisor of the
    largest key n.  Each Fix_n point is matched against the divisor
    catalogues; matching must reproduce the recorded exact periods, and
    the disjoint-union count identity must hold exactly.
    """
    n = max(spectra)
    spec_n = spectra[n]
    for k in _divisors(n):
        if k not in spectra:
            raise ValueError(f"missing spectrum for divisor {k} of {n}")
        if not spectra[k].complete:
            raise ValueError(f"spectrum for divisor {k} is incomplete")

    # pool the divisor points with owning orbit ids
    pool_pts: list[complex] = []
    pool_owner: list[tuple[int, int]] = []
    for k in _divisors(n)[:-1]:
        for j, o in enumerate(spectra[k].orbits):
            if o.n == k:  # exact-period-k orbits only
                for z in o.xs:
                    pool_pts.append(complex(z))
                    pool_owner.append((k, j))
    pool = np.array(pool_pts, dtype=complex) if pool_pts else np.empty(0, dtype=complex)

    for o in spec_n.orbits:
        for z in o.xs:
            if pool.size:
                dist = np.abs(pool - z)
                hits = {pool_owner[i] for i in np.flatnonzero(dist < tols.dedup)}
            else:
                hits = set()
            if len(hits) > 1:
                raise AmbiguousOrbitError(
                    f"point {z} matches {len(hits)} divisor orbits (tolerance collision)"
                )
            matched_period = next(iter(hits))[0] if hits else n
            if matched_period != o.n:
                raise AmbiguousOrbitError(
                    f"orbit recorded with period {o.n} but matched divisor period {matched_period}"
                )
    counts = spec_n.counts
    if sum(counts["per"].values()) != counts["fix"]:
        raise AmbiguousOrbitError("disjoint-union count identity violated")
    return spec_n


# ---------------------------------------------------------------------------
# shadowing
# ---------------------------------------------------------------------------

def shadow_pseudo_orbit(
    m: HenonMap,
    pt: tuple[complex, complex],
    n: int,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> PeriodicOrbit:
    """Refine the forward orbit of an approximately returning point.

    The seed is the actual length-n forward orbit of ``pt``; Newton
    refinement plus certification produces the unique nearby true
    periodic orbit.  Point 0 of the result stays near ``pt``.
    """
    z = (complex(pt[0]), complex(pt[1]))
    seed = np.empty(n, dtype=complex)
    cur = z
    for i in range(n):
        seed[i] = cur[0]
        cur = m.evaluate(cur)
    xs = newton_refine(m, seed, tols.newton)
    k = vector_period(xs, tols.dedup)
    if k < n:
        xs = _reduce_to_period(m, xs, k, tols)
    ok, rho = certify(m, xs, tols)
    if not ok:
        raise NewtonSingular("refined orbit failed certification")
    return classify(m, xs, tols, certified=True, certificate_radius=rho)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _c2l(z: complex) -> list[float]:
    return [z.real, z.imag]


def spectrum_to_dict(spec: PeriodSpectrum) -> dict:
    counts = spec.counts
    return {
        "map": spec.map.to_spec(),
        "n": spec.n,
        "complete": spec.complete,
        "counts": {
            "fix": counts["fix"],
            "per": {str(k): v for k, v in sorted(counts["per"].items())},
            "sper": counts["sper"],
        },
        "orbits": [
            {
                "period": o.n,
                "xs": [_c2l(complex(z)) for z in o.xs],
                "lambda_s": _c2l(o.lambda_s),
                "lambda_u": _c2l(o.lambda_u),
                "chi": o.chi,
                "kind": o.kind,
                "residual": o.residual,
                "certified": o.certified,
                "radius": o.certificate_radius,
            }
            for o in spec.orbits
        ],
    }


def spectrum_to_json(spec: PeriodSpectrum) -> str:
    return json.dumps(spectrum_to_dict(spec), indent=1)


def spectrum_from_dict(data: dict) -> PeriodSpectrum:
    m = HenonMap.from_spec(data["map"])
    orbits = []
    for od in data["orbits"]:
        orbits.append(
            PeriodicOrbit(
                n=od["period"],
                xs=np.array([complex(re, im) for re, im in od["xs"]]),
                lambda_s=complex(od["lambda_s"][0], od["lambda_s"][1]),
                lambda_u=complex(od["lambda_u"][0], od["lambda_u"][1]),
                chi=od["chi"],
                kind=od["kind"],
                residual=od["residual"],
                certified=od["certified"],
                certificate_radius=od["radius"],
            )
        )
    return PeriodSpectrum(map=m, n=data["n"], orbits=orbits, complete=data["complete"])


def spectrum_from_file(path) -> PeriodSpectrum:
    with open(path, "r", encoding="utf-8") as fh:
        return spectrum_from_dict(json.load(fh))
