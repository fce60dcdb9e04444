"""Checks of henonlab output, computed apart from the program.

Every function here re-derives what it checks from the raw output files
(spectrum JSON, CSV) or from the orbit points, using numpy and mpmath
directly and none of henonlab's own helpers.  Each returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
import re

import mpmath as mp
import numpy as np

EPS = np.finfo(float).eps
LOG2 = math.log(2.0)

_NP_SCALAR = re.compile(r"^np\.float64\((.*)\)$")


def number(text: str) -> float:
    """Parse a CSV number; numpy 2 scalars may print as ``np.float64(v)``."""
    m = _NP_SCALAR.match(text)
    return float(m.group(1) if m else text)


def divisors(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if n % k == 0]


def moebius(n: int) -> int:
    out, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            out = -out
        k += 1
    return -out if n > 1 else out


def exact_period_points(k: int, d: int = 2) -> int:
    """Points of exact period k: sum over j | k of mu(k/j) d^j."""
    return sum(moebius(k // j) * d**j for j in divisors(k))


def cyclic_residual(xs: np.ndarray, c: complex, a: complex) -> np.ndarray:
    """F_k = x_k^2 + c - a x_{k-1} - x_{k+1} for p(x) = x^2 + c."""
    return xs * xs + c - a * np.roll(xs, 1) - np.roll(xs, -1)


def kantorovich_radius(xs: np.ndarray, c: complex, a: complex) -> float:
    """Newton-Kantorovich radius of the cyclic system at xs (p'' = 2),
    floored at the resolution of the stored doubles."""
    n = xs.shape[0]
    J = np.zeros((n, n), dtype=complex)
    i = np.arange(n)
    J[i, i] = 2.0 * xs
    J[i, (i - 1) % n] += -a
    J[i, (i + 1) % n] += -1.0
    Jinv = np.linalg.inv(J)
    eta = float(np.abs(Jinv @ cyclic_residual(xs, c, a)).max())
    beta = float(np.abs(Jinv).sum(axis=1).max())
    h = 2.0 * beta * eta
    if h > 0.5:
        return math.nan
    rho = (1.0 - math.sqrt(1.0 - 2.0 * h)) / (2.0 * beta)
    return max(rho, EPS * (1.0 + float(np.abs(xs).max())))


def monodromy_eigs(xs: np.ndarray, a: complex) -> tuple[complex, complex]:
    """(trace, largest-modulus eigenvalue) of Df(p_{n-1}) ... Df(p_0)."""
    M = np.eye(2, dtype=complex)
    for x in xs:
        M = np.array([[2.0 * x, -a], [1.0, 0.0]]) @ M
    tr = M[0, 0] + M[1, 1]
    eig = np.linalg.eigvals(M)
    return complex(tr), complex(eig[np.argmax(np.abs(eig))])


def attracting_fixed_points(c: complex, a: complex) -> int:
    """Fixed points x = p(x) - a x whose 2x2 Jacobian has both |lambda| < 1."""
    count = 0
    for x in np.roots([1.0, -(1.0 + a), c]):
        eig = np.linalg.eigvals(np.array([[2.0 * x, -a], [1.0, 0.0]]))
        count += bool(np.abs(eig).max() < 1.0)
    return count


def min_separation(points: np.ndarray, limit: float) -> float:
    """Smallest sup-norm distance between rows of ``points`` (m, 2) that
    lies below ``limit``, or ``limit`` if there is none.  Sorting on
    Re(x) confines the search to pairs whose Re(x) differ by < limit."""
    order = np.argsort(points[:, 0].real, kind="stable")
    p = points[order]
    best = limit
    for lag in range(1, p.shape[0]):
        gap = p[lag:, 0].real - p[:-lag, 0].real
        close = gap < limit
        if not close.any():
            break
        d = np.maximum(np.abs(p[lag:, 0] - p[:-lag, 0]), np.abs(p[lag:, 1] - p[:-lag, 1]))
        best = min(best, float(d[close].min()))
    return best


# ---------------------------------------------------------------------------
# catalogue
# ---------------------------------------------------------------------------

def check_spectrum(text: str, n: int, c: complex, a: complex) -> tuple[list[str], float]:
    """Check one horseshoe Fix_n spectrum JSON.

    Returns (problems, Lambda_n) where Lambda_n = 2^-n sum log|lambda_u|
    from monodromy products formed here, for the Lyapunov CSV check.
    """
    problems: list[str] = []
    data = json.loads(text)
    tag = f"Fix_{n}"
    orbits = data["orbits"]
    xs_list = [np.array([complex(re_, im) for re_, im in o["xs"]]) for o in orbits]
    points = sum(len(xs) for xs in xs_list)
    if not data["complete"]:
        problems.append(f"{tag}: not complete")
    if points != 2**n or data["counts"]["fix"] != 2**n:
        problems.append(f"{tag}: {points} points (counts.fix {data['counts']['fix']}), want {2**n}")
    if not math.isclose(points * 2.0**-n, 1.0, rel_tol=1e-12):
        problems.append(f"{tag}: nu_{n} has total mass {points * 2.0**-n}")

    per: dict[int, int] = {}
    for o, xs in zip(orbits, xs_list):
        if o["period"] != len(xs):
            problems.append(f"{tag}: orbit period {o['period']} with {len(xs)} points")
        per[len(xs)] = per.get(len(xs), 0) + len(xs)
    for k in sorted(set(per) | set(divisors(n))):
        want = exact_period_points(k) if n % k == 0 else 0
        if per.get(k, 0) != want:
            problems.append(f"{tag}: {per.get(k, 0)} points of exact period {k}, Moebius gives {want}")

    worst_res = max((float(np.abs(cyclic_residual(xs, c, a)).max()) for xs in xs_list), default=0.0)
    if not worst_res < 1e-10:
        problems.append(f"{tag}: residual {worst_res:.3e} >= 1e-10")

    if xs_list:
        pts = np.concatenate([np.column_stack([xs, np.roll(xs, 1)]) for xs in xs_list])
        sep = min_separation(pts, 1e-8)
        if not sep >= 1e-8:
            problems.append(f"{tag}: two points {sep:.3e} apart (<= 1e-8)")

    fixed = sorted((xs[0] for xs in xs_list if len(xs) == 1), key=lambda z: (z.real, z.imag))
    roots = sorted(np.roots([1.0, -(1.0 + a), c]), key=lambda z: (z.real, z.imag))
    if len(fixed) != 2 or max(abs(u - v) for u, v in zip(fixed, roots)) > 1e-10:
        problems.append(f"{tag}: Fix_1 {fixed} differs from numpy.roots {roots}")

    lam_sum = 0.0
    for o, xs in zip(orbits, xs_list):
        tr, lu = monodromy_eigs(xs, a)
        claimed = complex(*o["lambda_u"]) + complex(*o["lambda_s"])
        if abs(claimed - tr) > 1e-7 * max(1.0, abs(tr)):
            problems.append(f"{tag}: lambda_u + lambda_s = {claimed} but monodromy trace {tr}")
            break
        lam_sum += math.log(abs(lu))
        # one-sided: a radius below the Kantorovich radius of the stored
        # points is unfounded; a larger one (say, with a rounding bound
        # added to eta) is sound, as long as it still separates orbits
        rho = kantorovich_radius(xs, c, a)
        if not 0.7 * rho <= o["radius"] <= 1e-10:
            problems.append(f"{tag}: certificate radius {o['radius']:.3e}, Kantorovich gives {rho:.3e}")
            break
    return problems, lam_sum * 2.0**-n


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_lyapunov(rows: list[dict], want: dict[int, float]) -> list[str]:
    """Rows of `lyapunov --which fix,sper`; ``want`` maps n to Lambda_n."""
    problems = []
    seen = sorted((int(r["n"]), r["which"]) for r in rows)
    expect = sorted((n, w) for n in want for w in ("fix", "sper"))
    if seen != expect:
        return [f"lyapunov rows {seen}, want {expect}"]
    for r in rows:
        n = int(r["n"])
        lam, chi, psi = number(r["lambda_n"]), number(r["chi_sum_form"]), number(r["psi_sum_form"])
        if int(r["point_count"]) != 2**n:
            problems.append(f"lyapunov n={n} {r['which']}: point_count {r['point_count']}")
        if not abs(chi - psi) <= 1e-6:
            problems.append(f"lyapunov n={n}: chi {chi!r} and psi {psi!r} forms differ")
        if not lam >= LOG2 - 0.01:
            problems.append(f"lyapunov n={n}: Lambda_n {lam!r} < log 2 - 0.01")
        if not abs(lam - want[n]) <= 1e-8:
            problems.append(f"lyapunov n={n}: Lambda_n {lam!r}, monodromy products give {want[n]!r}")
    return problems


def check_measure(rows: list[dict], n_small: int, n_ref: int) -> list[str]:
    got = {(int(r["n1"]), int(r["n2"])): r for r in rows}
    if sorted(got) != [(n_small, n_ref), (n_ref, n_ref)]:
        return [f"measure rows {sorted(got)}"]
    problems = []
    self_row = got[(n_ref, n_ref)]
    gaps = [number(v) for k, v in self_row.items() if k.startswith("moment_gap_")]
    if number(self_row["discrepancy"]) != 0.0 or any(gaps):
        problems.append(f"measure: nu_{n_ref} differs from itself")
    disc = number(got[(n_small, n_ref)]["discrepancy"])
    if not 0.0 < disc <= 1.0:
        problems.append(f"measure: discrepancy(nu_{n_small}, nu_{n_ref}) = {disc!r} not in (0, 1]")
    return problems


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def check_scan(rows: list[dict], family: dict) -> list[str]:
    """Problems per cell of a sink-family scan CSV, one entry per bad cell."""
    a = complex(*family["a"])
    center = complex(*family["center"])
    t = np.linspace(-family["radius"], family["radius"], family["grid_size"])
    grid = [center + complex(re_, im) for im in t for re_ in t]
    if len(rows) != len(grid):
        return [f"scan: {len(rows)} rows, want {len(grid)}"]
    problems = []
    for r, c_want in zip(rows, grid):
        c = complex(number(r["re_c"]), number(r["im_c"]))
        lam = number(r["lambda_n"])
        sinks = int(r["n_sinks"])
        if abs(c - c_want) > 1e-12:
            problems.append(f"scan: cell at {c} where the grid has {c_want}")
        elif r["complete"] != "1":
            problems.append(f"scan c={c}: incomplete")
        elif not (math.isfinite(lam) and lam > 0.0):
            problems.append(f"scan c={c}: lambda_n {lam!r}")
        elif sinks < attracting_fixed_points(c, a):
            problems.append(f"scan c={c}: {sinks} sinks, but {attracting_fixed_points(c, a)} attracting fixed points")
    return problems


# ---------------------------------------------------------------------------
# verify-hp
# ---------------------------------------------------------------------------

def check_polished(z: list, xs: np.ndarray, radius: float, c: complex, a: complex,
                   greens: list[float], dps: int = 60) -> tuple[bool, list[str]]:
    """(inside, problems) for one re-polished orbit.

    ``inside`` says whether the polished orbit lies within the
    certificate radius of the double-precision one; the problems list
    covers the polish itself and the green potentials.
    """
    problems = []
    with mp.workdps(dps):
        n = len(z)
        res = max(abs(z[k] ** 2 + mp.mpc(c) - mp.mpc(a) * z[k - 1] - z[(k + 1) % n]) for k in range(n))
        dist = max(abs(z[k] - mp.mpc(complex(xs[k]))) for k in range(n))
    if not res < mp.mpf(10) ** (-30):
        problems.append(f"polished orbit residual {float(res):.3e}")
    worst = max(greens)
    if not worst < 1e-6:
        problems.append(f"green potential {worst:.3e} >= 1e-6 on a polished orbit")
    return float(dist) <= radius, problems
