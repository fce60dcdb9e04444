"""Write the outputs that a refactor must leave byte-identical.

    python3 tools/parity.py OUTDIR

writes, at rng_seed 1729, the spectrum JSON of

- the horseshoe (p = x^2 - 6, a = 0.3) and the mixed map (p = x^2,
  a = 0.5) at n = 1..12,
- the cubic map p = x^3 + 0.1j x^2 - 1.5 x + 0.3+0.2j, a = 0.4-0.3j, at
  n = 1..6,
- the near-one-dimensional map p = x^2, a = 1e-3, at n = 1..8,

the scan CSV of the 11x11 horseshoe and sink families, the 5x5 sink
family and a 5x5 family sweeping the cubic's x coefficient at n = 6,
and, through ``cli.main`` on the horseshoe and mixed Fix_8, Fix_10 and
Fix_12 files, the ``lyapunov --which fix,per,sper`` and ``measure
--moment-order 3`` CSVs.  For horseshoe and mixed Fix_8 and cubic Fix_5
it also writes one ``verify-*.txt`` file through ``henonlab.verify``:
the ``repr`` of every orbit coordinate re-polished at dps 60 and of
``green_plus_hp`` and ``green_minus_hp`` at each point.  That is 49
files in all.  It imports henonlab from the ``src/`` beside this
script, so two checkouts compare with

    python3 A/tools/parity.py outA && python3 B/tools/parity.py outB && diff -r outA outB

One documented difference: against a tree whose escape-rate loop stops
at |v| > ESCAPE_THRESHOLD alone and returns log|y_n| / d^n backward, the
G- column of the three ``verify-*.txt`` files differs.  The one loop of
``HenonMap._green`` stops in V+ (V-), where |v| >= |w| too, and subtracts
log|a| / (d - 1) backward; there G- is 0.6-6.5% higher and at most
2.3e-14, while the z and G+ columns and the other 46 files are
byte-identical.

A second one: against a tree that tracks each divisor length k of n in
its own length-k system, the orbits of period k < n differ in their
last bits, since they are now tracked in the length-n system as the
word repeated n/k times and polished from a slightly different
endpoint.  Their xs move by at most 2.3e-16, well inside their
certificate radii, and their lambdas, chi, radius and residual change
in the last bits.  It follows that the sink scans change lambda_n in a
few rows by at most 1.1e-16 and laplacian_defect by at most 1.8e-13,
that the round-off-level columns (about 1e-17) of the ``measure`` CSVs
change, that ``verify-horseshoe`` changes in imaginary parts of about
1e-156 and that ``verify-cubic`` changes in the G+ and G- of one fixed
point, which are zero up to the working precision (1e-33 and 1e-25).  Every period-n orbit, every count,
``complete``, the orbit order, the ``lyapunov`` CSVs and the
``horseshoe-11`` and ``cubic-x-5`` scans are byte-identical.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import henonlab as hl  # noqa: E402
from henonlab.cli import main as cli_main  # noqa: E402

SEED = 1729

#: the spectra whose orbits go through the verify layer
VERIFY = {"horseshoe": 8, "mixed": 8, "cubic": 5}

MAPS = {
    "horseshoe": (hl.quadratic_map(-6.0, 0.3), 12),
    "mixed": (hl.quadratic_map(0.0, 0.5), 12),
    "cubic": (hl.HenonMap(coeffs=(0.3 + 0.2j, -1.5, 0.1j), a=0.4 - 0.3j), 6),
    "near1d": (hl.quadratic_map(0.0, 1e-3), 8),
}

FAMILIES = {
    "horseshoe-11": hl.FamilySpec(coeffs=(-6.0 + 0j, 0.0), a=0.3, center=-6.0 + 0j,
                                  radius=0.25, grid_size=11),
    "sink-11": hl.FamilySpec(coeffs=(0j, 0.0), a=0.5, center=0j, radius=0.25, grid_size=11),
    "sink-5": hl.FamilySpec(coeffs=(0j, 0.0), a=0.5, center=0j, radius=0.25, grid_size=5),
    # p' of the families above does not depend on the swept constant term, so
    # their multipliers would not show a cell's orbits classified with another
    # cell's map; the cubic's swept x coefficient enters p'
    "cubic-x-5": hl.FamilySpec(coeffs=(0.3 + 0.2j, -1.5, 0.1j), a=0.4 - 0.3j,
                               center=-1.5 + 0j, radius=0.2, grid_size=5, slot=1),
}


def verify_lines(spec) -> str:
    """One line per orbit point: repr of z_k, G+ and G- at (z_k, z_{k-1})."""
    lines = []
    for o in spec.orbits:
        z = hl.refine_orbit_hp(spec.map, o.xs, dps=60)
        for k in range(len(z)):
            pt = (z[k], z[k - 1])
            lines.append(" ".join(map(repr, (z[k], hl.green_plus_hp(spec.map, pt),
                                             hl.green_minus_hp(spec.map, pt)))))
        lines.append("")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    if not Path(hl.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"henonlab imported from {hl.__file__}, not from {ROOT / 'src'}")
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    for name, (m, top) in MAPS.items():
        for n in range(1, top + 1):
            spec = hl.enumerate_fix(m, n, rng_seed=SEED)
            (out / f"{name}-fix{n:02d}.json").write_text(hl.spectrum_to_json(spec) + "\n")
            if VERIFY.get(name) == n:
                (out / f"verify-{name}-fix{n:02d}.txt").write_text(verify_lines(spec))
    for name, family in FAMILIES.items():
        (out / f"scan-{name}-n6.csv").write_text(hl.scan_to_csv(hl.scan(family, 6, rng_seed=SEED)))
    for name in ("horseshoe", "mixed"):
        spectra = [str(out / f"{name}-fix{n:02d}.json") for n in (8, 10, 12)]
        for cmd, extra in (("lyapunov", ["--which", "fix,per,sper"]),
                           ("measure", ["--moment-order", "3"])):
            argv = [cmd, "--spectra", *spectra, *extra, "--out", str(out / f"{cmd}-{name}.csv")]
            if cli_main(argv) != 0:
                raise SystemExit(f"henonlab {' '.join(argv)} failed")
    print(f"wrote {len(list(out.iterdir()))} files to {out} in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
