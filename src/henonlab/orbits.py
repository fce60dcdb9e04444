"""Enumeration, refinement, certification and classification of periodic orbits.

A period-n orbit is stored as the cyclic vector (x_0, ..., x_{n-1}) of
first coordinates; the phase point at index k is (x_k, x_{k-1 mod n}).
The defining system is

    F_k(x) = p(x_k) - a x_{k-1} - x_{k+1} = 0   (indices mod n)

whose Jacobian is cyclic tridiagonal: diagonal p'(x_k), subdiagonal -a,
superdiagonal -1, plus the wrap-around corners J[0, n-1] = -a and
J[n-1, 0] = -1.  ``_band_solve`` solves it in O(n) per row without
forming J, and densely where that is unreliable.

The orbits come from a total-degree homotopy.  The system has Bezout
number d^n, exactly the number of fixed points of f^n counted with
multiplicity, and the start system x_k^d = 1 shares its cyclic symmetry,
so one path per primitive necklace (Lyndon word of length k over the d-th
roots of unity) reaches one orbit of exact period k.  A length-k path runs
in the system of a multiple L of k as the word repeated L/k times, and
rows of one batch may run at different widths for different maps, so a
parameter scan tracks every grid cell and every length at once.  The
endpoints of every length then take one Newton polish and one check, each
row at its own width.  Its certificate radius and uniqueness reach alone
decide exact period (``_track_and_check``) and orbit identity (``_merge``).
The canonical rotation comes from the first coordinates, with rotation
tables only where they tie; the classified orbits of a length are one
OrbitBlock.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import accumulate, chain, groupby

import mpmath as mp
import numpy as np

from .maps import HenonMap

#: documented default so every run is reproducible out of the box
DEFAULT_RNG_SEED = 1729


class AmbiguousOrbitError(RuntimeError):
    """Two certified rows of one map that their radii cannot prove distinct or one orbit."""


#: the default width of the hyperbolicity band around |lambda| = 1
DEFAULT_EPS_HYP = 1e-6


# -- cyclic system -------------------------------------------------------------

def _orbit_array(xs) -> np.ndarray:
    xs = np.asarray(xs)
    return xs if xs.dtype == object else xs.astype(complex, copy=False)


def _one_row(xs) -> np.ndarray:
    """The orbit vector xs as a batch of one row (1, n); ValueError unless it is 1-D and not empty."""
    X = np.asarray(xs, dtype=complex)
    if X.ndim != 1 or not X.size:
        raise ValueError(f"expected a non-empty orbit vector, got shape {X.shape}")
    return X[None]


def _prev(xs: np.ndarray) -> np.ndarray:
    """x_{k-1} along the trailing axis (``np.roll(xs, 1, axis=-1)`` without its overhead)."""
    return np.concatenate((xs[..., -1:], xs[..., :-1]), axis=-1)


def _next(xs: np.ndarray) -> np.ndarray:
    """x_{k+1} along the trailing axis."""
    return np.concatenate((xs[..., 1:], xs[..., :1]), axis=-1)


@dataclass(frozen=True)
class _MapRows:
    """The maps of a batch, one per row.

    ``coeffs[j]``, ``a`` and ``filtration_radius`` are (B, 1) columns, and
    HenonMap's own ``p``, ``dp`` and ``d2p_bound`` broadcast them over the
    rows; so one batch can hold the cells of a whole parameter scan.
    """

    coeffs: tuple
    a: np.ndarray
    filtration_radius: np.ndarray

    degree = HenonMap.degree
    p = HenonMap.p
    dp = HenonMap.dp
    d2p_bound = HenonMap.d2p_bound

    @classmethod
    def stack(cls, maps: list[HenonMap], owner: np.ndarray) -> "_MapRows":
        """Row i holds ``maps[owner[i]]``; all maps have one degree."""
        def column(values, dtype=complex):
            return np.array(values, dtype=dtype)[owner, None]

        return cls(tuple(column([m.coeffs[j] for m in maps]) for j in range(maps[0].degree)),
                   column([m.a for m in maps]),
                   column([m.filtration_radius for m in maps], float))

    def take(self, idx) -> "_MapRows":
        return _MapRows(tuple(c[idx] for c in self.coeffs), self.a[idx],
                        self.filtration_radius[idx])


def _as_rows(m, B: int) -> _MapRows:
    return m if isinstance(m, _MapRows) else _MapRows.stack([m], np.zeros(B, dtype=int))


def cyclic_residual(m: HenonMap, xs: np.ndarray, shifts=None) -> np.ndarray:
    """Residual of the cyclic period system; zero iff a genuine orbit.

    The system runs along the trailing axis, so ``xs`` may be one vector
    (n,), a batch (B, n) or an object array of mpmath numbers.  ``shifts``,
    a pair of index arrays shaped like xs, gives the flat positions of
    x_{k-1} and x_{k+1} in xs when rows close their cycles at their own
    widths (see ``_track``).
    """
    xs = _orbit_array(xs)
    prev, nxt = (_prev(xs), _next(xs)) if shifts is None else (xs.take(shifts[0]), xs.take(shifts[1]))
    return m.p(xs) - m.a * prev - nxt


def _band_matrix(diag: np.ndarray, sub, sup) -> np.ndarray:
    """Dense cyclic tridiagonal matrices, shaped diag.shape + (n,), same dtype.

    ``sub`` and ``sup`` are the sub- and superdiagonals, which also fill the
    corners J[0, n-1] and J[n-1, 0]: scalars or per-row (B, 1) columns.  An
    object array starts from mpmath zeros, so entries where the bands meet
    (n = 2) add in mpmath arithmetic rather than in Python complex.
    """
    n = diag.shape[-1]
    J = np.full(diag.shape + (n,), mp.mpc(0) if diag.dtype == object else 0, dtype=diag.dtype)
    idx = np.arange(n)
    J[..., idx, idx] += diag
    J[..., idx, (idx - 1) % n] += sub
    J[..., idx, (idx + 1) % n] += sup
    return J


def cyclic_jacobian(m: HenonMap, xs: np.ndarray) -> np.ndarray:
    """Jacobian of ``cyclic_residual``, shaped xs.shape + (n,), same dtype."""
    xs = _orbit_array(xs)
    return _band_matrix(m.dp(xs), -m.a, -1.0)


def _lapack_solve(J: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense solves J S = F row by row; rows whose J is singular to working precision are flagged.

    A row is singular when sigma_min(J) <= n eps sigma_max(J), or when J is
    not finite.
    """
    B, n = F.shape
    with np.errstate(invalid="ignore"):
        finite = np.isfinite(J).all(axis=(1, 2))
    sv = np.zeros((B, n))
    if finite.any():
        sv[finite] = np.linalg.svd(J[finite], compute_uv=False)
    bad = ~(sv[:, -1] > n * np.finfo(float).eps * sv[:, 0])
    S = np.zeros_like(F)
    ok = np.flatnonzero(~bad)
    try:
        S[ok] = np.linalg.solve(J[ok], F[ok, :, None])[..., 0]
    except np.linalg.LinAlgError:
        for i in ok:
            try:
                S[i] = np.linalg.solve(J[i], F[i])
            except np.linalg.LinAlgError:
                bad[i] = True
    return S, bad


#: a Thomas pivot or Sherman-Morrison denominator this small, relative to
#: its scale, sends the row to the dense solve
_FALLBACK_RTOL = 1e-6

#: so does |v.z| above this: the correction then cancels parts of y and z
#: that much larger than the step, and with them as many units of roundoff
_CANCEL_MAX = 1e4


def _ragged_layout(width: np.ndarray, n: int) -> tuple[list, list]:
    """``_band_solve``'s ``layout`` of rows of non-increasing ``width`` in n
    columns: the runs of equal width, as (start, stop, w), and wider[i],
    the number of leading rows wider than column i."""
    cuts = [0, *(np.flatnonzero(np.diff(width)) + 1).tolist(), len(width)]
    groups = [(a, b, int(width[a])) for a, b in zip(cuts, cuts[1:])]
    wider = [0] * n
    for _, b, w in groups:  # widest first, so narrower runs overwrite
        wider[:w] = [b] * w
    return groups, wider


def _ragged_rows(width: np.ndarray, n: int):
    """(select, residual) for rows of non-increasing ``width`` (None: all n) in n columns, row i
    in the length-width[i] system on its first width[i] columns: for the batch x = X[rows],
    select(rows) gives ``cyclic_residual``'s shifts (an inert column points at itself) and
    ``_band_solve``'s layout, and residual(m, x, rows) is the residual, 0 in inert columns."""
    if width is None or (width == n).all():  # the plain cyclic system, as mpmath rows take it
        return (lambda rows: (None, None)), (lambda m, x, rows: cyclic_residual(m, x))
    if (np.diff(width) > 0).any():
        raise ValueError("rows must come widest first")
    cols, w = np.arange(n), width[:, None]
    real = cols < w
    prev, nxt = (np.where(real, (cols + s) % w, cols) for s in (-1, 1))

    def select(rows):
        base = n * np.arange(rows.size)[:, None]
        return (prev[rows] + base, nxt[rows] + base), _ragged_layout(width[rows], n)

    def residual(m, x, rows):
        return np.where(real[rows], cyclic_residual(m, x, select(rows)[0]), 0)

    return select, residual


def _band_solve(diag: np.ndarray, sub, sup, F: np.ndarray, layout=None) -> tuple[np.ndarray, np.ndarray]:
    """Solves of the cyclic tridiagonal systems J S = F, one per row, in O(n) each.

    J has diagonal ``diag`` (B, n) and constant sub- and superdiagonals
    ``sub`` and ``sup`` (scalars or (B, 1) columns), which also fill the
    corners.  J = A + u v^T, where A is J without its corners and with the
    first and last diagonal entries changed by gamma = -diag_0 (1 where that
    is 0) and sup sub / gamma, u = (gamma, 0, ..., 0, sup) and
    v = (1, 0, ..., 0, sub / gamma).  Thomas elimination solves A y = F and
    A z = u together, and S = y - z (v.y) / (1 + v.z) (Numerical Recipes,
    section 2.7).  When A is nearly singular although J is not (J close to
    a cyclic shift), y and z are large and the correction cancels them;
    |v.z| then is large as well.  Rows with a tiny pivot or denominator, a
    large |v.z| or a non-finite step, and every row of width < 3 (its
    corners fall on the off-diagonals), are solved here on their
    ``_band_matrix`` by ``_lapack_solve``, which flags the rows whose J is
    singular to working precision.  Returns (S, singular).

    ``layout``, ``_ragged_layout`` of the rows' non-increasing widths (all
    n by default), gives each row its own system size w <= n; rows of
    several widths take (B, 1) bands.  A row's columns from w on are
    inert and its S is 0 there: the elimination at column i runs over the
    leading rows wider than i, the corners sit at column w - 1, the
    fallback tests read real columns only, and the dense solve takes each
    width's rows on their own w x w matrices.  So a row's S and singular flag are, to the bit, those of a
    batch of its own width, and a batch of one width does the arithmetic
    of the uniform solve.

    The bands and F may also be object arrays of mpmath numbers, which
    raise on a zero divisor where doubles give inf or nan: then every row
    takes the dense solve, which is ``mp.lu_solve`` and raises
    ZeroDivisionError on a singular J.
    """
    B, n = diag.shape
    sub, sup = np.reshape(sub, -1), np.reshape(sup, -1)
    groups, wider = ([(0, B, n)], [B] * n) if layout is None else layout
    bad = np.zeros(B, dtype=bool)

    def dense(fallback, S):
        """Solve the ``fallback`` rows on their own w x w matrices, into S and bad."""
        for a, b, w in groups:
            rows = a + np.flatnonzero(fallback[a:b])
            if rows.size == 0:
                continue
            # broadcast here only: on the Thomas path it slows the many small batches of a scan
            J = _band_matrix(diag[rows, :w], *(np.broadcast_to(s, (B,))[rows, None] for s in (sub, sup)))
            if J.dtype != object:
                S[rows, :w], bad[rows] = _lapack_solve(J, F[rows, :w])
            else:
                S[rows, :w] = [list(mp.lu_solve(mp.matrix(j), mp.matrix(f)))
                               for j, f in zip(J, F[rows, :w])]
            S[rows, w:] = 0
        return S, bad

    if n < 3:  # the corners fall on the off-diagonals
        return dense(np.ones(B, dtype=bool), np.zeros_like(F))
    gamma = -diag[:, 0]
    gamma[gamma == 0] = 1.0
    rhs = np.zeros((n, 2, B), dtype=F.dtype)
    rhs[:, 0] = F.T
    rhs[0, 1] = gamma
    piv = diag.T.copy()
    short = [(a, b, w) for a, b, w in groups if w < n]
    for a, b, w in short:
        rhs[w:, 0, a:b] = piv[w:, a:b] = 0
    scale = np.abs(piv).max(axis=0) + np.abs(sub) + np.abs(sup)
    piv[0] -= gamma
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        try:
            v_last = sub / gamma
            for a, b, w in groups:
                rhs[w - 1, 1, a:b] = sup[a:b]
                piv[w - 1, a:b] -= sup[a:b] * v_last[a:b]
            views = {c: (piv[:, :c], rhs[:, :, :c], sub[:c], sup[:c]) for c in set(wider)}  # c leading rows
            for i in range(1, n):
                P, R, lo, up = views[wider[i]]
                f = lo / P[i - 1]
                P[i] -= f * up
                R[i] -= f * R[i - 1]
            for i in range(n - 1, -1, -1):
                if i < n - 1:  # rows wider than i + 1 couple column i to it
                    _, R, _, up = views[wider[i + 1]]
                    R[i] -= up * R[i + 1]
                P, R, _, _ = views[wider[i]]
                R[i] /= P[i]
            (y0, z0), (y1, z1) = rhs[0], np.concatenate([rhs[w - 1, :, a:b] for a, b, w in groups], axis=1)
            vz = z0 + v_last * z1
            den = 1.0 + vz
            # S = y - z (v.y) / den, formed in place
            rhs[:, 1] *= (y0 + v_last * y1) / den
            rhs[:, 0] -= rhs[:, 1]
            S = rhs[:, 0].T
        except ZeroDivisionError:
            return dense(np.ones(B, dtype=bool), np.zeros_like(F))
        # mpmath moduli never overflow, so only nan fails the object-array test
        finite = np.isfinite(S) if S.dtype != object else np.abs(S) < np.inf
        apiv, avz = np.abs(piv), np.abs(vz)
        for a, b, w in short:
            apiv[w:, a:b] = np.inf
        fallback = ((apiv.min(axis=0) < _FALLBACK_RTOL * scale)
                    | (np.abs(den) < _FALLBACK_RTOL * (1.0 + avz))
                    | (avz > _CANCEL_MAX)
                    | ~finite.all(axis=1))
        fallback[wider[2]:] = True  # the rows narrower than 3
    return dense(fallback, S) if fallback.any() else (S, bad)


def _newton(m, X: np.ndarray, prec: int = 53, steps: int = 60, width=None) -> tuple[np.ndarray, np.ndarray]:
    """Newton's method on cyclic orbit vectors, the rows of X (B, n): (X, converged).

    ``m`` is one map or a ``_MapRows`` batch with a map per row.  X holds
    complex numbers, or mpmath numbers in an object array, for which the
    coefficients are converted to mpc once, here.  Each step makes one
    ``_band_solve`` over the running rows and sets tol = 2^-prec
    (1 + max |x_k|) at the stepped row.  A row whose correction
    ds = max |s_k| is at most tol, or whose next one quadratic convergence
    predicts at most tol (ds^3 <= tol prev^2, prev the correction before;
    Deuflhard 2004, Newton Methods for Nonlinear Problems, section 2.1),
    takes its full step and has converged.  Every other row halves its
    step up to 3 times until the residual sup-norm falls; a row that no
    halving improves stays where it is, at its round-off floor, and has
    converged too, for the caller's checks to judge.  A row dies when its
    solve is singular (on mpmath numbers: ZeroDivisionError) or it leaves
    twice the filtration radius; one still running after ``steps`` steps
    has not converged.
    ``width`` (all n by default) gives each row its own system size, as
    in ``_track``; residuals count as 0 in the inert columns.
    """
    obj = X.dtype == object
    X = X.copy() if obj else X.astype(complex)
    B, n = X.shape
    m = _as_rows(m, B)
    sup, unit = np.full((B, 1), -1.0), math.ldexp(1.0, -prec)
    if obj:
        mpc = np.frompyfunc(mp.mpc, 1, 1)
        m = _MapRows(tuple(mpc(c) for c in m.coeffs), mpc(m.a), m.filtration_radius)
        sup, unit = np.full((B, 1), mp.mpc(-1), dtype=object), mp.ldexp(1, -prec)
    select, residual = _ragged_rows(width, n)
    safety = 2.0 * m.filtration_radius[:, 0]
    F = residual(m, X, np.arange(B))
    rn = np.abs(F).max(axis=1)
    prev = np.zeros(B, dtype=rn.dtype)  # no prediction from the first step
    converged = np.zeros(B, dtype=bool)
    run = np.arange(B)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            if run.size == 0:
                break
            ma, Xr = (m if run.size == B else m.take(run)), X[run]
            S, bad = _band_solve(ma.dp(Xr), -ma.a, sup[run], F[run], select(run)[1])
            new = Xr - S
            ds, reach = np.abs(S).max(axis=1), np.abs(new).max(axis=1)
            tol = (1 + reach) * unit
            done = ~bad & ((ds <= tol) | (ds**3 <= tol * prev[run]**2))
            damp = np.flatnonzero(~bad & ~done)
            better = np.zeros(run.size, dtype=bool)  # damped rows whose residual fell
            if damp.size:
                md, r0 = ma.take(damp), rn[run[damp]]
                Fd = residual(md, new[damp], run[damp])
                rd = np.abs(Fd).max(axis=1)
                worse = ~(rd < r0)
                t = 1.0
                for _ in range(3):
                    if not worse.any():
                        break
                    t *= 0.5
                    w = damp[worse]
                    new[w] = Xr[w] - t * S[w]
                    reach[w] = np.abs(new[w]).max(axis=1)
                    Fd[worse] = residual(md.take(worse), new[w], run[w])
                    rd[worse] = np.abs(Fd[worse]).max(axis=1)
                    worse &= ~(rd < r0)
                ok = damp[~worse]
                better[ok] = True
                F[run[ok]], rn[run[ok]], prev[run[ok]] = Fd[~worse], rd[~worse], ds[ok]
            move = done | better
            X[run[move]] = new[move]
            out = move & (reach > safety[run])
            converged[run[~bad & ~better & ~out]] = True  # a full step, or none that improves
            run = run[better & ~out]
    return X, converged


# -- certification (a posteriori Newton-Kantorovich test) ----------------------

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


#: Jacobian entries per stacked inverse (64 KB); a stack of a whole length grows the heap
_STACK_ENTRIES = 4096

#: radius of the ball around a row on which ``certify`` bounds the Jacobian's Lipschitz constant
_CERTIFY_BALL = 1e-3


def _certify_rows(m: HenonMap, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``certify`` for each row of X (B, n): (certified, radius, reach), 0 where not certified.

    ``reach`` = min(1 / (beta L), ``_CERTIFY_BALL``) is a radius around
    the row inside which its zero is the only one (Kantorovich's
    uniqueness half; see ``_real_rows``).  ``m`` is one map or a
    ``_MapRows`` batch.  The Jacobians of a block of rows are inverted as
    one stack; if LAPACK finds one exactly singular, the block is
    inverted row by row, so a singular row rejects only itself.
    """
    step = max(1, _STACK_ENTRIES // X.shape[1] ** 2)
    if len(X) > step:
        rows = _as_rows(m, len(X))
        parts = [_certify_rows(rows.take(slice(i, i + step)), X[i:i + step])
                 for i in range(0, len(X), step)]
        return tuple(np.concatenate(p) for p in zip(*parts))
    F, J = cyclic_residual(m, X), cyclic_jacobian(m, X)
    ok = np.isfinite(F).all(axis=1)
    try:
        Jinv = np.linalg.inv(J)
    except np.linalg.LinAlgError:
        Jinv = np.zeros_like(J)
        for i in np.flatnonzero(ok):
            try:
                Jinv[i] = np.linalg.inv(J[i])
            except np.linalg.LinAlgError:
                ok[i] = False
    abs_inv, top = np.abs(Jinv), np.abs(X).max(axis=1)
    with np.errstate(all="ignore"):
        err = np.where(ok[:, None], np.abs(F) + _residual_rounding(m, X), 0.0)
        eta = (abs_inv * err[:, None, :]).sum(axis=2).max(axis=1)
        beta = abs_inv.sum(axis=2).max(axis=1)
        L = np.reshape(m.d2p_bound(top[:, None] + _CERTIFY_BALL), -1)
        h = beta * L * eta
        rho = (1.0 - np.sqrt(1.0 - 2.0 * h)) / (beta * L)
        reach = np.minimum(1.0 / (beta * L), _CERTIFY_BALL)
    ok &= (L > 0.0) & np.isfinite(beta) & (h <= 0.5) & (rho <= _CERTIFY_BALL)
    # floating representation of xs itself is only good to machine precision
    return (ok, np.where(ok, np.maximum(rho, np.finfo(float).eps * (1.0 + top)), 0.0),
            np.where(ok, reach, 0.0))


def certify(m: HenonMap, xs: np.ndarray) -> tuple[bool, float]:
    """Decide whether a unique true orbit lies near ``xs``.

    With eta = max_k sum_j |J^-1_kj| (|F_j| + e_j), where e_j bounds the
    rounding error of the computed residual F_j, beta = |J^-1|_inf and L
    the Lipschitz bound for the Jacobian on the ball of radius
    ``_CERTIFY_BALL`` (driven by max |p''| there), h = beta L eta <= 1/2
    guarantees a zero z* within rho = (1 - sqrt(1 - 2h)) / (beta L), and
    no other zero within min(1 / (beta L), ``_CERTIFY_BALL``) of xs
    (which ``_real_rows`` and ``_merge`` use).  Returns (certified, rho),
    (False, 0.0) when the test fails.
    """
    ok, rho, _ = _certify_rows(m, _one_row(xs))
    return bool(ok[0]), float(rho[0])


def _real_rows(maps: list[HenonMap], owner: np.ndarray, X: np.ndarray, radius: np.ndarray,
               reach: np.ndarray) -> np.ndarray:
    """Which certified rows of X (B, n) hold a real orbit; row i belongs to ``maps[owner[i]]``.

    For a map with real coefficients and real a, F(conj z) = conj F(z), so
    the conjugate of the zero z* within ``radius`` of a row is a zero
    within radius + 2 max_k |Im x_k|.  Inside ``reach`` z* is the only
    zero, so there conj z* = z*: the orbit is real.  Re x is then at
    least as close to z* as x is, so the row's radius still holds for it.
    """
    real = np.array([m.a.imag == 0 and not any(c.imag for c in m.coeffs) for m in maps])
    return real[owner] & (radius + 2 * np.abs(X.imag).max(axis=1, initial=0.0) < reach)


# -- classification ------------------------------------------------------------

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


#: the kinds of an orbit, by their codes in ``OrbitBlock.kind``
_KINDS = ("saddle", "sink", "source", "marginal")


@dataclass(eq=False)
class OrbitBlock:
    """Orbits of one length k as columns: ``xs`` is (B, k), each other field one entry
    per orbit.  Iterating a block gives its orbits as PeriodicOrbit records."""

    xs: np.ndarray
    lambda_s: np.ndarray
    lambda_u: np.ndarray
    chi: np.ndarray
    kind: np.ndarray
    residual: np.ndarray
    certified: np.ndarray
    radius: np.ndarray

    @property
    def period(self) -> int:
        return self.xs.shape[1]

    def __len__(self) -> int:
        return len(self.xs)

    def take(self, rows) -> "OrbitBlock":
        """The block of ``rows``: an index array, a mask or a slice."""
        return OrbitBlock(*(getattr(self, f.name)[rows] for f in fields(self)))

    def __iter__(self):
        cols = (getattr(self, f.name).tolist() for f in fields(self)[1:])
        return (PeriodicOrbit(self.period, x, ls, lu, chi, _KINDS[c], r, ok, rho)
                for x, ls, lu, chi, c, r, ok, rho in zip(self.xs, *cols))


def _monodromy_rows(m: HenonMap, X: np.ndarray, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """``monodromy`` for each row of X (B, n): M (B, 2, 2) and log_scale (B,), rescaled row by row."""
    B, n = X.shape
    dp, a = m.dp(X), np.reshape(m.a, (-1, 1))
    M, log_scale = np.tile(np.eye(2, dtype=complex), (B, 1, 1)), np.zeros(B)
    for i in range(n):
        # Df(p_k) = [[p'(x_k), -a], [1, 0]]: the old first row becomes the second
        M = np.stack((dp[:, (start + i) % n, None] * M[:, 0] - a * M[:, 1], M[:, 0]), axis=1)
        s = np.abs(M).max(axis=(1, 2))
        big = (s > 0.0) & ((s > 1e8) | (s < 1e-8))
        M[big] /= s[big, None, None]
        log_scale[big] += np.log(s[big])
    return M, log_scale


def monodromy(m: HenonMap, xs: np.ndarray, start: int = 0) -> tuple[np.ndarray, float]:
    """Scaled product Df(p_{start+n-1}) ... Df(p_start) along the orbit.

    Returns (M_scaled, log_scale) with the true monodromy M_scaled * e^log_scale;
    the running rescale keeps entries bounded for long orbits.
    """
    M, log_scale = _monodromy_rows(m, _one_row(xs), start)
    return M[0], float(log_scale[0])


def _eigenpair_rows(M: np.ndarray, log_scale: np.ndarray):
    """Eigenvalues of e^log_scale M for each M (2, 2) of a stack, with stable root pairing.

    Returns (lu_scaled, ls_scaled, log_abs_lu, log_abs_ls) where the true
    multipliers are lu_scaled * e^log_scale etc.
    """
    T = M[:, 0, 0] + M[:, 1, 1]
    D = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    disc = np.sqrt(T * T - 4.0 * D)
    plus, minus = T + disc, T - disc
    l1 = np.where(np.abs(plus) >= np.abs(minus), plus, minus) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        l2 = np.where(l1 != 0, D / l1, 0.0)
        swap = np.abs(l2) > np.abs(l1)
        l1, l2 = np.where(swap, l2, l1), np.where(swap, l1, l2)
        return l1, l2, np.log(np.abs(l1)) + log_scale, np.log(np.abs(l2)) + log_scale


def _classify_rows(m: HenonMap, X: np.ndarray, certified, radii,
                   eps_hyp: float = DEFAULT_EPS_HYP) -> OrbitBlock:
    """``classify`` for each row of X (B, n) as one block, recording the given certificates."""
    if not eps_hyp > 0:
        raise ValueError(f"eps_hyp must be positive, not {eps_hyp!r}")
    n, a = X.shape[1], np.reshape(m.a, -1)
    residual = np.abs(cyclic_residual(m, X)).max(axis=1)
    M, log_scale = _monodromy_rows(m, X)
    l1, l2, log_lu, log_ls = _eigenpair_rows(M, log_scale)
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.abs(log_scale) < 690
        scale = np.exp(np.where(finite, log_scale, 0.0))
        lambda_u = np.where(finite, l1 * scale, complex(math.inf, 0))
        lambda_s = np.where(finite, l2 * scale, 0.0)
        # the determinant of Df^n is exactly a^n; the product of a long
        # near-singular 2x2 chain cancels catastrophically, so the stable
        # multiplier is pinned through the determinant in log-polar form
        pin = np.isfinite(log_lu) & (l1 != 0)
        log_ls = np.where(pin, n * np.log(np.abs(a)) - log_lu, log_ls)
        arg_ls = n * np.angle(a) - np.angle(l1)
        lambda_s = np.where(pin, np.exp(log_ls + 1j * arg_ls), lambda_s)
    lo, hi = math.log1p(-eps_hyp), math.log1p(eps_hyp)
    kind = np.select([(log_ls < lo) & (log_lu > hi), (log_ls < lo) & (log_lu < lo),
                      (log_ls > hi) & (log_lu > hi)], [0, 1, 2], 3)
    return OrbitBlock(X, lambda_s, lambda_u, log_lu / n, kind, residual,
                      np.asarray(certified, dtype=bool), np.asarray(radii, dtype=float))


def classify(m: HenonMap, xs: np.ndarray, eps_hyp: float = DEFAULT_EPS_HYP) -> PeriodicOrbit:
    """Certify ``xs`` and build its PeriodicOrbit record (multipliers, exponent, kind);
    a multiplier within ``eps_hyp`` of the unit circle makes the orbit marginal."""
    X = _one_row(xs)
    return next(iter(_classify_rows(m, X, *_certify_rows(m, X)[:2], eps_hyp)))


# -- orbit vector utilities ----------------------------------------------------

def _divisors(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if n % k == 0]


def _rotations(xs: np.ndarray) -> np.ndarray:
    """The rotation tables of xs (..., n): row r of each is ``np.roll(xs, -r, axis=-1)``."""
    n = xs.shape[-1]
    return xs[..., (np.arange(n)[:, None] + np.arange(n)) % n]


def _coarse(keys: np.ndarray) -> np.ndarray:
    """``keys`` rounded to 30 significant bits, as ``_lex_order`` first compares them."""
    mant, expo = np.frexp(keys)
    return np.ldexp(np.round(np.ldexp(mant, 30)), expo - 30)


def _lex_order(rows: np.ndarray, group=None) -> np.ndarray:
    """Stable order of complex rows by their (group, re_0, im_0, re_1, ...) keys.

    The keys are first compared rounded to 30 significant bits, so values
    that differ only by round-off (the equal real parts of a conjugate
    pair, say) tie and the next key decides; the full keys break the ties
    that remain.  ``group``, one integer per row, is optional.
    """
    keys = np.stack((rows.real, rows.imag), axis=-1).reshape(len(rows), 2 * rows.shape[1])
    cols = list(np.concatenate((_coarse(keys), keys), axis=1).T[::-1])
    return np.lexsort(cols if group is None else cols + [group])


def _rotation_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``canonical_rotation`` of each row of X (B, k), and gaps[:, j] = sup_i |x_{i+p} - x_i|.

    p is the j-th proper divisor of k; each gap takes one gather of X.  The
    canonical shift is the one whose first coordinate has the smallest
    coarse (re, im) key, the keys ``_lex_order`` compares first.  Rows where
    that key ties (repeated words, symmetric orbits, a nan) are ordered by
    their (k, k) rotation tables, ``_STACK_ENTRIES // k**2`` rows at a time;
    Booth (1980) finds least circular shifts in linear time, but ties are rare.
    """
    B, k = X.shape
    cols, shifts = np.arange(k), _divisors(k)[:-1]
    gaps = np.empty((B, len(shifts)))
    for j, p in enumerate(shifts):
        gaps[:, j] = np.abs(X - X[:, (cols + p) % k]).max(axis=1)
    re, im = _coarse(X.real), _coarse(X.imag)
    low = re == re.min(axis=1, keepdims=True)
    im = np.where(low, im, np.inf)
    best = low & (im == im.min(axis=1, keepdims=True))
    W = np.take_along_axis(X, (best.argmax(axis=1)[:, None] + cols) % k, axis=1)
    tie, step = np.flatnonzero(best.sum(axis=1) != 1), max(1, _STACK_ENTRIES // k**2)
    for i in range(0, tie.size, step):
        flat = _rotations(X[tie[i:i + step]]).reshape(-1, k)
        W[tie[i:i + step]] = flat[_lex_order(flat, np.arange(len(flat)) // k)[::k]]
    return W, gaps


def rotation_distance(u: np.ndarray, v: np.ndarray) -> float:
    """min over cyclic rotations r of sup_k |u_k - v_{k+r}|."""
    if np.ndim(u) != 1 or np.shape(u) != np.shape(v) or not np.size(u):
        raise ValueError(f"orbit vectors of shapes {np.shape(u)} and {np.shape(v)}, not of one length > 0")
    return float(np.abs(np.asarray(u) - _rotations(np.asarray(v))).max(axis=1).min())


def canonical_rotation(xs: np.ndarray) -> np.ndarray:
    """Rotation minimizing the (re, im) lexicographic key as ``_lex_order``
    compares it, ties to the smallest shift."""
    return _rotation_rows(_one_row(xs))[0][0]


def vector_period(xs: np.ndarray, tol: float) -> int:
    """Minimal p | n with sup_k |x_{k+p} - x_k| < tol."""
    gaps = _rotation_rows(X := _one_row(xs))[1][0]
    return next((p for p, gap in zip(_divisors(X.shape[1]), gaps) if gap < tol), X.shape[1])


# -- spectrum container --------------------------------------------------------

@dataclass
class PeriodSpectrum:
    """The catalogue of Fix_n for one map: an OrbitBlock per run of orbits of one
    period.  ``orbits`` lists them as PeriodicOrbit rows, built on first use and kept."""

    map: HenonMap
    n: int
    blocks: list[OrbitBlock]
    complete: bool
    budget_used: int = 0
    unresolved: list[np.ndarray] = field(default_factory=list)

    @cached_property
    def orbits(self) -> list[PeriodicOrbit]:
        return [o for b in self.blocks for o in b]

    @property
    def counts(self) -> dict:
        per: dict[int, int] = {}
        for b in self.blocks:
            per[b.period] = per.get(b.period, 0) + b.period * len(b)
        sper = sum(self.n * int((b.kind == 0).sum()) for b in self.blocks if b.period == self.n)
        return {"fix": sum(per.values()), "per": per, "sper": sper}

    def masks(self, which: str) -> list[np.ndarray]:
        """Each block's rows in a point class of the limit theorem: fix, every point
        of f^n; per, exact period n only; sper, the saddle subset of Fix_n
        (coincides with fix on all-saddle spectra)."""
        if which not in ("fix", "per", "sper"):
            raise ValueError(f"unknown selection {which!r} (expected fix/per/sper)")
        return [b.kind == 0 if which == "sper" else np.full(len(b), which == "fix" or b.period == self.n)
                for b in self.blocks]

    def select(self, which: str) -> list[OrbitBlock]:
        """The blocks of a point class (see ``masks``), empty ones left out."""
        return [b.take(m) for b, m in zip(self.blocks, self.masks(which)) if m.any()]


# -- necklace homotopy ---------------------------------------------------------

def _lyndon_words(d: int, k: int) -> list[tuple[int, ...]]:
    """Lyndon words of length k over {0, ..., d-1}, in lexicographic order (Duval).

    One per primitive necklace, so there are (1/k) sum_{j|k} mu(k/j) d^j.
    """
    words, w = [], [-1]
    while w:
        w[-1] += 1
        if len(w) == k:
            words.append(tuple(w))
        m = len(w)
        while len(w) < k:
            w.append(w[-m])
        while w and w[-1] == d - 1:
            w.pop()
    return words


def _gamma(rng_seed: int, k: int, attempt: int) -> complex:
    """The homotopy's gamma for one length and attempt: a point of the unit circle."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((rng_seed, k, attempt))))
    return cmath.exp(2j * math.pi * rng.random())


def _homotopy(rows: _MapRows, gamma: np.ndarray, X: np.ndarray, t: np.ndarray, shifts=None, h_t=False):
    """H(X, t), or H_t = dH/dt if ``h_t``, and the diagonal of dH/dX for the gamma trick.

    H = (1 - t) gamma (x^d - 1) + t F(x); ``gamma`` and ``t`` are (B, 1)
    columns, so each row follows its own gamma, and ``shifts`` are
    ``cyclic_residual``'s.  The sub- and superdiagonal of dH/dX are -t a
    and -t.
    """
    Xd1 = X
    for _ in range(rows.degree - 2):
        Xd1 = Xd1 * X
    G = gamma * (X * Xd1 - 1.0)
    F = cyclic_residual(rows, X, shifts)
    diag = (1.0 - t) * gamma * rows.degree * Xd1 + t * rows.dp(X)
    return F - G if h_t else (1.0 - t) * G + t * F, diag


#: path tracking: the smallest step in t, the number of steps a batch may
#: take, and the corrector's tests: the first correction at most
#: _PREDICTOR_TOL (1 + |x|), the second at most _THETA_MAX times the first
_DT_MIN, _TRACK_STEPS, _PREDICTOR_TOL, _THETA_MAX = 1e-8, 2000, 1e-2, 0.25


def _track(rows: _MapRows, X: np.ndarray, gamma: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Follow H(x, t) = 0 from the start points X at t = 0 to t = 1, row by row.

    ``gamma`` is a (B, 1) column: row i follows the homotopy of ``gamma[i]``
    in the length-``width[i]`` system on its first ``width[i]`` columns.
    Its other columns of X are 0 and stay 0: ``_band_solve`` treats them
    as inert, and the cyclic shifts of ``cyclic_residual`` close each row's
    cycle at its width (``_ragged_rows``).  Rows do
    not interact, so a row's path is, to the bit, that of a batch of its
    own width, and the batch takes as many steps as its slowest row.

    Each step predicts with RK4 on dx/dt = -H_x^-1 H_t and corrects with
    two Newton steps at the new t.  It is accepted when the first
    correction is small and Newton contracts (Telen, Van Barel & Verschelde
    2020): the second is within ``_THETA_MAX`` of the first or at
    round-off.  A rejected step halves, and a row whose step falls below
    ``_DT_MIN`` stops.  An accepted step doubles only if the row's step
    before it was accepted too, else keeps its length: a step does not go
    straight back to the length that just failed (Bertini grows a step only
    after successes; Bates, Hauenstein, Sommese & Wampler 2013).  Returns
    each row's last accepted point, for ``_track_and_check`` to polish: its
    endpoint at t = 1, or wherever its path stopped.
    """
    X = np.array(X, dtype=complex)
    B, n = X.shape
    select, _ = _ragged_rows(width, n)
    t, h = np.zeros(B), np.full(B, 0.1)
    live, grow = np.ones(B, dtype=bool), np.ones(B, dtype=bool)
    for _ in range(_TRACK_STEPS):
        act = np.flatnonzero(live)
        if act.size == 0:
            break
        r, g, x0, t0 = rows.take(act), gamma[act], X[act], t[act, None]
        shifts, layout = select(act)
        last = h[act] >= 1.0 - t[act]
        dt = np.where(last, 1.0 - t[act], h[act])[:, None]
        bad = np.zeros(act.size, dtype=bool)

        def step(x, tt, h_t):
            """-H_x^-1 times H, or H_t if ``h_t``, at (x, tt)."""
            rhs, diag = _homotopy(r, g, x, tt, shifts, h_t)
            S, singular = _band_solve(diag, -tt * r.a, -tt, rhs, layout)
            bad[singular] = True
            return -S

        with np.errstate(all="ignore"):
            # k1 + 2 k2 + 2 k3 + k4, summed as each stage ends so that no
            # more than two stages are held
            ks = k = step(x0, t0, True)
            k = step(x0 + 0.5 * dt * k, t0 + 0.5 * dt, True)
            ks = ks + 2.0 * k
            k = step(x0 + 0.5 * dt * k, t0 + 0.5 * dt, True)
            ks = ks + 2.0 * k
            k = step(x0 + dt * k, t0 + dt, True)
            x = x0 + dt / 6.0 * (ks + k)
            t1 = np.where(last, 1.0, t0[:, 0] + dt[:, 0])[:, None]
            S1 = step(x, t1, False)
            S2 = step(x + S1, t1, False)
            x = x + S1 + S2
            first, second = np.abs(S1).max(axis=1), np.abs(S2).max(axis=1)
            scale = 1.0 + np.abs(x).max(axis=1)
            good = (~bad & np.isfinite(x).all(axis=1) & (first <= _PREDICTOR_TOL * scale)
                    & ((second <= _THETA_MAX * first) | (second <= 1e-14 * scale)))
        acc, rej = act[good], act[~good]
        X[acc] = x[good]
        t[acc] = t1[good, 0]
        h[act] *= np.where(good, np.where(grow[act], 2.0, 1.0), 0.5)
        grow[act] = good
        live[acc[last[good]]] = False
        live[rej[h[rej] < _DT_MIN]] = False
    return X


def _track_and_check(maps: list[HenonMap], owner: np.ndarray, X: np.ndarray,
                     width: np.ndarray) -> tuple[list, list]:
    """Polish and check tracked endpoints, the rows of X (B, n), row i at length ``width[i]``.

    Row i belongs to ``maps[owner[i]]`` and fills its first width[i]
    columns, widest rows first, as ``_track`` takes them.  One ``_newton``
    polishes every row at its width, wherever its path stopped, and these
    checks alone judge it: its residual over its own columns is at most
    1e-10, ``certify`` accepts its canonical rotation with a radius rho,
    and every proper-divisor shift p moves it by a gap of more than 2 rho.
    Its zero, shifted by p, is then a zero at least gap - 2 rho > 0 away:
    another zero, so the orbit has exact period width[i].  Rotations and certificates run once per width.  A row that
    ``_real_rows`` proves real is stored as its real part, with imaginary
    parts +0.0, so later layers see exact zeros; Re x lies max |Im x| from
    x, so its reach shrinks by that much.  Returns (ends, failed), widest
    first, each vector at its own length: (owner, xs, radius, reach) per
    endpoint that passes, (owner, polished endpoint) per other.
    """
    B, n = X.shape
    rows = _MapRows.stack(maps, owner)
    X, ok = _newton(rows, X, width=width)
    ok &= np.abs(_ragged_rows(width, n)[1](rows, X, np.arange(B))).max(axis=1) <= 1e-10

    def runs(sel):
        """The rows ``sel`` (ascending) by width: (rows, w) for each run of one width."""
        return [(sel[a:b], w) for a, b, w in (_ragged_layout(width[sel], n)[0] if sel.size else [])]

    W, radii, reach = np.zeros_like(X), np.zeros(B), np.zeros(B)
    for r, w in runs(np.flatnonzero(ok)):
        W[r, :w], gaps = _rotation_rows(X[r, :w])
        ok[r], radii[r], reach[r] = _certify_rows(rows.take(r), W[r, :w])
        ok[r] &= (gaps > 2 * radii[r, None]).all(axis=1)  # exact period w
    idx = np.flatnonzero(ok)
    real = idx[_real_rows(maps, owner[idx], W[idx], radii[idx], reach[idx])]
    reach[real] -= np.abs(W[real].imag).max(axis=1, initial=0.0)
    W[real] = W[real].real
    # the imaginary round-off was a key of the canonical rotation; it decided
    # only where another rotation ties in the leading real key
    lead = _coarse(W[real].real)
    for r, w in runs(real[((lead == lead[:, :1]) & (np.arange(n) < width[real, None])).sum(axis=1) > 1]):
        W[r, :w] = _rotation_rows(W[r, :w])[0]
    return ([e for r, w in runs(idx) for e in zip(owner[r], W[r, :w], radii[r], reach[r])],
            [f for r, w in runs(np.flatnonzero(~ok)) for f in zip(owner[r], X[r, :w])])


def _merge(kept: list, new: list) -> None:
    """Append to ``kept`` each new (owner, xs, radius, reach) that is no rotation of an earlier
    same-owner one.

    Take rows 1 and 2 of one map, with zeros within rho1 and rho2 of them,
    at rotation distance dist.  If dist > rho1 + rho2, no rotation brings
    the zeros together: two orbits.  Otherwise a rotation of zero 2 lies
    within rho1 + 2 rho2 of row 1; if that is below reach1, it is zero 1:
    one orbit.  A pair that neither decides raises AmbiguousOrbitError.
    Rotation leaves a row's coordinate sum alone, and rows dist apart
    have sums within k dist; so only rows whose complex sums lie within
    k (rho1 + rho2), plus the rounding of the sums, are compared.  A
    conjugate pair shares the real part of its sum, but not the sum.
    """
    items = kept + new
    if not items:
        return
    X = np.array([x for _, x, _, _ in items])
    total, rho = X.sum(axis=1), np.array([r for _, _, r, _ in items])
    k = X.shape[1]
    half = k * (rho + 2 * np.finfo(float).eps * np.abs(X).sum(axis=1))  # each sum's share of the window
    order = np.argsort(total.real, kind="stable")
    lo = np.searchsorted(total.real[order], total.real - half - half.max(), "left")
    hi = np.searchsorted(total.real[order], total.real + half + half.max(), "right")
    alive = [True] * len(kept) + [False] * len(new)
    for i in range(len(kept), len(items)):
        owner, w, rho2, _ = items[i]
        for j in order[lo[i]:hi[i]]:
            if j < i and alive[j] and items[j][0] == owner and abs(total[i] - total[j]) <= half[i] + half[j]:
                _, v, rho1, reach1 = items[j]
                dist = rotation_distance(w, v)
                if dist <= rho1 + rho2:
                    if rho1 + 2 * rho2 >= reach1:
                        raise AmbiguousOrbitError(
                            f"certified orbits {dist:.3e} apart: their radii {rho1:.3e} and "
                            f"{rho2:.3e} neither separate them nor make them one")
                    break
        else:
            alive[i] = True
            kept.append(items[i])


#: tracking attempts per map and length before its catalogue is reported incomplete
_ATTEMPTS = 3


def _catalogue(maps: list[HenonMap], ks, rng_seed: int, eps_hyp: float = DEFAULT_EPS_HYP,
               budget=math.inf):
    """The orbits of exact period k, for each k in ``ks``, of every map: one path per necklace.

    Length k is tracked in its host length L, the largest length in ``ks``
    that k divides, from its Lyndon word's roots of unity repeated L/k
    times: one path of the length-L homotopy with its own gamma (the
    cyclic system commutes with the shift, so the repeats stay repeats).
    Each attempt makes one ``_track`` call, on a ragged batch of the rows
    of every map and length, widest host first, and one
    ``_track_and_check`` call on the first k coordinates of each endpoint,
    longest first.  A map short of the necklace count at length k (a path
    failed, or two ended on one orbit) has its length-k paths tracked again
    with the gamma of the next attempt.  Returns (found, complete, paths,
    unresolved): found[k] is (owner, block), the OrbitBlock of every map's
    period-k orbits in canonical rotation, by owner and then
    lexicographically, and each row's index into ``maps``; complete[i]
    says whether every length reached its count; ``paths`` counts tracked
    paths, retracks included; unresolved[i] holds the polished endpoints
    that failed the last attempt of a length still short.  ``budget`` caps
    ``paths`` attempt by attempt, and within an attempt length by length in
    the order of ``ks``: a length whose paths no longer fit is not tracked
    again.  A budget of d^n always fits the first attempts, one path per
    necklace.  ``eps_hyp`` is ``classify``'s.
    """
    d = maps[0].degree
    host = {k: max(L for L in ks if L % k == 0) for k in ks}
    words = {k: np.exp(2j * np.pi / d * np.array(_lyndon_words(d, k))) for k in ks}
    kept: dict[int, list] = {k: [] for k in ks}
    todo = {k: np.arange(len(maps)) for k in ks}
    failed: dict[int, list] = {k: [] for k in ks}
    paths = 0
    for attempt in range(_ATTEMPTS):
        lengths = []
        for k in ks:
            size = len(words[k]) * todo[k].size
            if size and paths + size <= budget:
                paths += size
                lengths.append(k)
        if not lengths:
            continue
        lengths.sort(key=lambda k: -host[k])  # _track takes the widest rows first
        owners = [np.repeat(todo[k], len(words[k])) for k in lengths]
        sizes = [o.size for o in owners]
        W = host[lengths[0]]
        starts = np.concatenate([np.pad(np.tile(words[k], (todo[k].size, host[k] // k)),
                                        ((0, 0), (0, W - host[k]))) for k in lengths])
        width = np.repeat([host[k] for k in lengths], sizes)
        gamma = np.repeat([_gamma(rng_seed, k, attempt) for k in lengths], sizes)
        owner = np.concatenate(owners)
        X = _track(_MapRows.stack(maps, owner), starts, gamma[:, None], width)
        # the first k columns of each length-k row, longest first
        k_row = np.repeat(lengths, sizes)
        order, K = np.argsort(-k_row, kind="stable"), max(lengths)
        ends, fails = _track_and_check(maps, owner[order], np.where(np.arange(K) < k_row[order, None],
                                                                    X[order, :K], 0), k_row[order])
        new, last = ({k: list(g) for k, g in groupby(e, key=lambda x: len(x[1]))} for e in (ends, fails))
        failed.update({k: last.get(k, []) for k in lengths})
        for k in lengths:
            _merge(kept[k], new.get(k, []))
            need = len(words[k])
            counts = np.bincount([e[0] for e in kept[k]], minlength=len(maps))[todo[k]]
            if (counts > need).any():
                raise AmbiguousOrbitError(
                    f"{counts.max()} certified orbits of period {k} exceed "
                    f"the {need} necklaces: one orbit was kept twice")
            todo[k] = todo[k][counts < need]
    found = {}
    complete = np.ones(len(maps), dtype=bool)
    unresolved: list[list[np.ndarray]] = [[] for _ in maps]
    for k in ks:
        complete[todo[k]] = False
        for i, x in failed[k]:
            if i in todo[k]:
                unresolved[i].append(x)
        owner = np.array([e[0] for e in kept[k]], dtype=int)
        X = np.array([e[1] for e in kept[k]], dtype=complex).reshape(-1, k)
        order = _lex_order(X, owner)
        radii = np.array([e[2] for e in kept[k]])[order]
        found[k] = owner[order], _classify_rows(_MapRows.stack(maps, owner[order]), X[order],
                                                np.ones(len(X), dtype=bool), radii, eps_hyp)
    return found, complete, paths, unresolved


def enumerate_fix(m: HenonMap, n: int, budget: int | None = None, rng_seed: int = DEFAULT_RNG_SEED,
                  eps_hyp: float = DEFAULT_EPS_HYP) -> PeriodSpectrum:
    """All fixed points of f^n from the necklace homotopy, one OrbitBlock per exact period.

    For each divisor k of n, ``_catalogue`` tracks one path per Lyndon word
    of length k, and each certified endpoint is one orbit of exact period
    k.  ``budget`` caps the number of tracked paths, retracks included
    (default 1000 d^n, never below d^n, which the first attempt always
    fits).  The spectrum is complete when every period reached its
    necklace count, which makes d^n distinct, certified, simple points.
    The gamma of each attempt derives from (rng_seed, k, attempt), so
    output is deterministic.  ``eps_hyp`` is ``classify``'s.
    """
    if n < 1:
        raise ValueError("period n must be >= 1")
    target = m.degree**n
    if budget is None:
        budget = 1000 * target
    if budget < target:
        raise ValueError(f"budget {budget} below d^n = {target}")
    ks = _divisors(n)
    found, complete, paths, unresolved = _catalogue([m], ks, rng_seed, eps_hyp, budget)
    return PeriodSpectrum(m, n, [b for k in ks if len(b := found[k][1])], bool(complete[0]),
                          paths, unresolved[0])


# -- serialization -------------------------------------------------------------

#: version of the spectrum JSON layout; ``spectrum_from_dict`` refuses a newer one
SPECTRUM_SCHEMA = 2


def _pairs(z) -> list:
    """[re, im] of each entry of the complex array z, nested as z is."""
    return np.stack((np.real(z), np.imag(z)), axis=-1).tolist()


def _from_pairs(pairs: list) -> np.ndarray | None:
    """The complex numbers of [re, im] pairs; None unless each is a list of two real, non-bool numbers."""
    flat = list(chain.from_iterable(pairs)) if set(map(type, pairs)) <= {list} else [None]
    ok = set(map(type, flat)) <= {int, float} and set(map(len, pairs)) <= {2}
    return np.array(flat, dtype=float).view(complex) if ok else None


def spectrum_to_dict(spec: PeriodSpectrum) -> dict:
    orbits = [{"period": b.period, "xs": x, "lambda_s": ls, "lambda_u": lu, "chi": chi,
               "kind": _KINDS[c], "residual": r, "certified": ok, "radius": rho}
              for b in spec.blocks for x, ls, lu, chi, c, r, ok, rho in zip(
                  _pairs(b.xs), _pairs(b.lambda_s), _pairs(b.lambda_u),
                  *(col.tolist() for col in (b.chi, b.kind, b.residual, b.certified, b.radius)))]
    return {"schema": SPECTRUM_SCHEMA, "map": spec.map.to_spec(), "n": spec.n, "complete": spec.complete,
            "counts": dict(counts := spec.counts, per={str(k): v for k, v in sorted(counts["per"].items())}),
            "budget_used": spec.budget_used, "unresolved": [_pairs(x) for x in spec.unresolved],
            "orbits": orbits}


def spectrum_to_json(spec: PeriodSpectrum) -> str:
    """A header line with ``"orbits"`` last, then one line per orbit, each by json's C encoder."""
    data = spectrum_to_dict(spec)
    orbits, data["orbits"] = data["orbits"], []
    head = json.dumps(data)[:-2]  # ends in '"orbits": ['
    return head + "\n" + ",\n".join(map(json.dumps, orbits)) + "]}"


def _bad_fields(od: dict) -> list[str]:
    """The fields of one orbit record whose type or value is wrong."""
    def real(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    bad = [f for f in ("chi", "residual", "radius") if not real(od[f])]
    if type(od["period"]) is not int or od["period"] < 1 or len(od["xs"]) != od["period"]:
        bad.append("period")
    return bad + ([] if od["kind"] in _KINDS else ["kind"])


def _block(records: list[dict], first: int) -> OrbitBlock:
    """The OrbitBlock of records of one period that ``_bad_fields`` passes; a ValueError
    names the first, counted from ``first``, whose xs, lambda_s or lambda_u is not made
    of [re, im] pairs of real, non-bool numbers, or whose certified is not a bool."""
    z = [_from_pairs(list(chain.from_iterable(od["xs"] for od in records)))] + [
        _from_pairs([od[f] for od in records]) for f in ("lambda_s", "lambda_u")]
    certified = [od["certified"] for od in records]
    bad = [f for f, c in zip(("xs", "lambda_s", "lambda_u"), z) if c is None]
    if bad or set(map(type, certified)) - {bool}:
        for i, od in enumerate(records if len(records) > 1 else []):
            _block([od], first + i)
        raise ValueError(f"orbit {first} has a bad {', '.join(bad or ['certified'])}")
    chi, residual, radius = (np.array([od[f] for od in records], dtype=float)
                             for f in ("chi", "residual", "radius"))
    return OrbitBlock(z[0].reshape(len(records), -1), *z[1:], chi,
                      np.array([_KINDS.index(od["kind"]) for od in records]), residual,
                      np.array(certified), radius)


def spectrum_from_dict(data: dict) -> PeriodSpectrum:
    """The spectrum a ``spectrum_to_dict`` record describes, an OrbitBlock per run of
    records of one period in record order; ValueError if it is malformed."""
    try:
        m = HenonMap.from_spec(data["map"])
        if data.get("schema", 1) > SPECTRUM_SCHEMA:
            raise ValueError(f"schema {data['schema']} is newer than {SPECTRUM_SCHEMA}")
        n, complete, budget_used = data["n"], data["complete"], data.get("budget_used", 0)
        if not (type(n) is int and n >= 1 and type(complete) is bool
                and type(budget_used) is int and budget_used >= 0):
            raise ValueError(f"bad n, complete or budget_used: {n!r}, {complete!r}, {budget_used!r}")
        records = data["orbits"]
        for i, od in enumerate(records):
            if bad := _bad_fields(od) or (["period"] if n % od["period"] else []):
                raise ValueError(f"orbit {i} has a bad {', '.join(bad)}")
        unresolved = [_from_pairs(u) for u in data.get("unresolved", [])]
        if any(u is None for u in unresolved):
            raise ValueError("an unresolved endpoint holds a point that is not two real numbers")
        runs = [list(run) for _, run in groupby(records, key=lambda od: od["period"])]
        blocks = list(map(_block, runs, accumulate(map(len, runs), initial=0)))
        return PeriodSpectrum(m, n, blocks, complete, budget_used, unresolved)
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed spectrum: {exc}") from exc


def spectrum_from_file(path) -> PeriodSpectrum:
    """The spectrum in a JSON file; a ValueError names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return spectrum_from_dict(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{exc} ({path})") from exc
