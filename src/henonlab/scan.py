"""Parameter-disk scans: Lyapunov field, harmonicity defect, sink detectors.

A holomorphic one-parameter family is sampled on a square grid covering
a disk; the orbits of all periods k <= n are found for every cell at
once, each cell records the finite-n Lyapunov average over the saddle
subset (its multiplier form only) and counts sinks and elliptic flags,
and the discrete Laplacian of the Lyapunov field measures the
harmonicity defect tied to sink creation.
"""

from __future__ import annotations

import io
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .maps import HenonMap
from .orbits import DEFAULT_EPS_HYP, DEFAULT_RNG_SEED, _catalogue
from .exponents import chi_average


@dataclass(frozen=True)
class FamilySpec:
    """Template map with one complex coefficient slot swept over a disk."""

    coeffs: tuple[complex, ...]      # template non-leading coefficients
    a: complex
    center: complex
    radius: float
    grid_size: int
    slot: int = 0                    # index into coeffs; default: constant term

    def __post_init__(self) -> None:
        g = self.grid_size
        integral = isinstance(g, numbers.Integral) or (isinstance(g, float) and g.is_integer())
        if not integral or g < 5 or g % 2 == 0:
            raise ValueError("grid_size must be an odd integer >= 5")
        object.__setattr__(self, "grid_size", int(g))
        if not 0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite")
        if not 0 <= self.slot < len(self.coeffs):
            raise ValueError("slot out of range")
        self.map_at(self.center)  # validates degree and a

    @property
    def step(self) -> float:
        return 2.0 * self.radius / (self.grid_size - 1)

    def map_at(self, c: complex) -> HenonMap:
        coeffs = list(self.coeffs)
        coeffs[self.slot] = complex(c)
        return HenonMap(coeffs=tuple(coeffs), a=self.a)

    def grid(self) -> np.ndarray:
        """Cell parameters, row-major: rows sweep Im(c), columns Re(c)."""
        g = self.grid_size
        t = np.linspace(-self.radius, self.radius, g)
        return self.center + t[None, :] + 1j * t[:, None]

    def disk_mask(self) -> np.ndarray:
        return np.abs(self.grid() - self.center) <= self.radius + 1e-12

    def to_spec(self) -> dict:
        return {
            "p": [[c.real, c.imag] for c in self.coeffs],
            "a": [self.a.real, self.a.imag],
            "center": [self.center.real, self.center.imag],
            "radius": self.radius,
            "grid_size": self.grid_size,
            "slot": self.slot,
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "FamilySpec":
        try:
            return cls(
                coeffs=tuple(complex(re, im) for re, im in spec["p"]),
                a=complex(spec["a"][0], spec["a"][1]),
                center=complex(spec["center"][0], spec["center"][1]),
                radius=float(spec["radius"]),
                grid_size=spec["grid_size"],
                slot=int(spec.get("slot", 0)),
            )
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"malformed family spec: {exc}") from exc


@dataclass
class ScanField:
    """Per-cell scan record arrays, all shaped (grid, grid), row-major."""

    family: FamilySpec
    n: int
    c: np.ndarray
    lambda_n: np.ndarray
    lambda_prev: np.ndarray
    complete: np.ndarray
    n_sinks: np.ndarray
    n_elliptic: np.ndarray
    defect: np.ndarray = field(default=None)

    def __post_init__(self) -> None:
        if self.defect is None:
            self.defect = np.full(self.c.shape, np.nan)


def scan(
    family: FamilySpec,
    n: int,
    rng_seed: int = DEFAULT_RNG_SEED,
    eps_hyp: float = DEFAULT_EPS_HYP,
) -> ScanField:
    """Catalogue every grid cell and fill the defect column.

    Every grid cell of the bounding square is computed (output rows cover
    the full grid); the disk mask only restricts which cells enter the
    Laplacian statistics.  The orbits of every exact period k <= n come
    from one necklace-homotopy batch per attempt over all cells, each
    period tracked in the largest period <= n it divides.  lambda_n and
    lambda_prev are the ``chi_average`` of the saddle orbits of Fix_n and
    Fix_{n-1} (Fix_1 for both when n = 1).  ``eps_hyp`` is ``classify``'s;
    when |a| = 1, a marginal orbit with both multipliers within it of the
    unit circle counts as elliptic.  The homotopy's gamma derives from
    rng_seed, so reruns are byte-identical.
    """
    if n < 1:
        raise ValueError("period n must be >= 1")
    cs = family.grid()
    g = family.grid_size
    maps = [family.map_at(c) for c in cs.ravel()]
    found, complete, _, _ = _catalogue(maps, range(1, n + 1), rng_seed, eps_hyp)
    # every orbit of every cell, one entry each; kind 0 is a saddle, 1 a sink, 3 marginal
    owner, period, kind, chi, lu, ls = (np.concatenate(c) for c in zip(*[
        (o, np.full(len(b), k), b.kind, b.chi, b.lambda_u, b.lambda_s) for k, (o, b) in found.items()]))
    lam = np.full((2, g, g), np.nan)
    for row, p in enumerate((n, max(n - 1, 1))):
        saddle = (kind == 0) & (p % period == 0)
        order = np.argsort(owner[saddle], kind="stable")
        cuts = np.searchsorted(owner[saddle][order], np.arange(g * g + 1))
        terms = (period * chi)[saddle][order].tolist()
        lam[row] = np.reshape([chi_average(terms[a:b], maps[0].degree, p)
                               for a, b in zip(cuts, cuts[1:])], (g, g))
    # marginal orbits with both multipliers on |z| = 1, counted when |a| = 1
    on = (kind == 3) & (np.abs(np.abs(lu) - 1) <= eps_hyp) & (np.abs(np.abs(ls) - 1) <= eps_hyp)
    elliptic = np.bincount(owner[on], minlength=g * g) * (abs(abs(family.a) - 1.0) <= 1e-9)
    fld = ScanField(family=family, n=n, c=cs, lambda_n=lam[0], lambda_prev=lam[1],
                    complete=complete.reshape(g, g), n_elliptic=elliptic.reshape(g, g),
                    n_sinks=np.bincount(owner[kind == 1], minlength=g * g).reshape(g, g))
    laplacian_defect(fld)
    return fld


def _cross(a: np.ndarray) -> tuple:
    """Interior cells of ``a`` and their up, down, left and right neighbours."""
    return a[1:-1, 1:-1], a[:-2, 1:-1], a[2:, 1:-1], a[1:-1, :-2], a[1:-1, 2:]


def stencil_defect(values: np.ndarray, h: float, valid: np.ndarray | None = None) -> np.ndarray:
    """|5-point Laplacian stencil| / h^2; NaN on boundary or invalid cells.

    A cell gets a defect only if it and its four neighbors are valid.
    """
    values = np.asarray(values, dtype=float)
    valid = np.isfinite(values) if valid is None else np.asarray(valid, dtype=bool)
    ok = np.logical_and.reduce(_cross(valid))
    centre, up, down, left, right = _cross(values)
    with np.errstate(invalid="ignore"):
        s = up + down + left + right - 4.0 * centre
    out = np.full_like(values, np.nan)
    out[1:-1, 1:-1] = np.where(ok, np.abs(s) / (h * h), np.nan)
    return out


def laplacian_defect(fld: ScanField) -> ScanField:
    """Fill the defect column on interior disk cells with complete neighbors."""
    valid = fld.complete & np.isfinite(fld.lambda_n) & fld.family.disk_mask()
    fld.defect = stencil_defect(fld.lambda_n, fld.family.step, valid)
    return fld


def harmonic_validation_field(family: FamilySpec) -> np.ndarray:
    """Re(c^2) on the scan grid: harmonic, so its stencil is pure round-off."""
    return np.real(family.grid() ** 2)


def harmonic_fit_field(family: FamilySpec, values: np.ndarray,
                       valid: np.ndarray, degree: int = 6) -> np.ndarray:
    """Least-squares harmonic-polynomial surrogate of a scanned field.

    Basis: Re/Im of ((c - center) / radius)^k for k <= degree.  Harmonic
    fields are reproduced almost exactly (the residual then measures the
    field's own harmonicity defect independent of the stencil), and the
    surrogate's stencil output exposes the truncation scale the 5-point
    stencil has on harmonic data of the same smoothness.
    """
    z = ((family.grid() - family.center) / family.radius).ravel()
    cols = [np.ones(z.size)]
    for k in range(1, degree + 1):
        cols.append(np.real(z**k))
        cols.append(np.imag(z**k))
    A = np.column_stack(cols)
    mask = np.asarray(valid, dtype=bool).ravel()
    coef, *_ = np.linalg.lstsq(A[mask], np.asarray(values, dtype=float).ravel()[mask], rcond=None)
    return (A @ coef).reshape(values.shape)


def _stencil_floor(values: np.ndarray, h: float, valid: np.ndarray, scale: float) -> tuple[float, float]:
    """The max ``stencil_defect`` of values (0 when none is finite), and that
    max floored by the round-off amplification bound 8 eps scale / h^2."""
    defect = stencil_defect(values, h, valid)
    measured = float(np.nanmax(defect)) if np.isfinite(defect).any() else 0.0
    return measured, max(measured, float(8.0 * np.finfo(float).eps * scale / h**2))


def lyapunov_noise_floor(fld: ScanField) -> float:
    """Defect scale a harmonic field of this smoothness produces on this grid.

    The 5-point stencil is exact only on harmonic polynomials up to
    degree 3; genuinely harmonic Lyapunov fields still report an O(h^2)
    truncation defect.  The floor is the max stencil output on the
    harmonic surrogate fitted to the scanned field, floored by the
    round-off amplification bound.
    """
    valid = fld.complete & np.isfinite(fld.lambda_n) & fld.family.disk_mask()
    fit = harmonic_fit_field(fld.family, np.nan_to_num(fld.lambda_n), valid)
    scale = float(np.abs(fld.lambda_n[valid]).max()) if valid.any() else 0.0
    return _stencil_floor(fit, fld.family.step, valid, max(1.0, scale))[1]


def _harmonic_stencil(family: FamilySpec) -> tuple[float, float]:
    """(max stencil output on the synthetic harmonic field, stencil_noise_floor)."""
    v = harmonic_validation_field(family)
    return _stencil_floor(v, family.step, family.disk_mask(), float(np.abs(v).max()))


def stencil_noise_floor(family: FamilySpec) -> float:
    """Round-off scale of the defect estimator on this grid geometry.

    Measured as the max stencil output on the synthetic harmonic field,
    floored by the analytic amplification bound 8 eps max|field| / h^2
    (exact cancellations can otherwise report zero).
    """
    return _harmonic_stencil(family)[1]


def max_interior_defect(fld: ScanField) -> float:
    finite = fld.defect[np.isfinite(fld.defect)]
    if finite.size == 0:
        return math.nan
    return float(finite.max())


SCAN_CSV_HEADER = "re_c,im_c,complete,lambda_n,lambda_prev_n,n_sinks,n_elliptic,laplacian_defect"


def scan_to_csv(fld: ScanField) -> str:
    buf = io.StringIO()
    buf.write(SCAN_CSV_HEADER + "\n")
    g = fld.family.grid_size
    for i in range(g):
        for j in range(g):
            c = fld.c[i, j]
            dval = fld.defect[i, j]
            buf.write(
                f"{float(c.real)!r},{float(c.imag)!r},{int(fld.complete[i, j])},"
                f"{float(fld.lambda_n[i, j])!r},{float(fld.lambda_prev[i, j])!r},"
                f"{fld.n_sinks[i, j]},{fld.n_elliptic[i, j]},"
                f"{'' if math.isnan(dval) else repr(float(dval))}\n"
            )
    return buf.getvalue()
