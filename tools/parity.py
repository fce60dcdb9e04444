"""Write the outputs that a refactor must leave byte-identical.

    python3 tools/parity.py OUTDIR

writes, at rng_seed 1729, the spectrum JSON of

- the horseshoe (p = x^2 - 6, a = 0.3) and the mixed map (p = x^2,
  a = 0.5) at n = 1..12,
- the cubic map p = x^3 + 0.1j x^2 - 1.5 x + 0.3+0.2j, a = 0.4-0.3j, at
  n = 1..6,
- the near-one-dimensional map p = x^2, a = 1e-3, at n = 1..8,
- the reversible map p = x^2 - 12, a = 1, at n = 1..10, whose symmetric
  orbits tie in the leading real key of several rotations once they are
  stored exactly real, so they take the canonical rotation's tie path,
- the degenerate maps p = x^2 + 0.5625, a = 0.5 (a saddle-node) at
  n = 1..4, p = x^2 - 1.6875, a = 0.5 (a period doubling) at n = 2, 4
  and 6, p = x^2, a = 1 at n = 4, and p = x^2 + 0.5625 - 1e-6, a = 0.5
  at n = 1..6,
- the two maps whose catalogues a retrack completes, so that ``_merge``
  drops duplicate orbits: the cubic p = x^3 + 0.1j x^2 + (-1.5+0.08j) x
  + 0.3+0.2j, a = 0.4-0.3j, at n = 6, and p = x^2 - 0.6+0.5j,
  a = 0.3-0.4j, at n = 8,

the scan CSV of the 11x11 horseshoe and sink families, the 5x5 sink
family and a 5x5 family sweeping the cubic's x coefficient at n = 6, of
the 5x5 sink family at n = 3, whose host lengths 2 and 3 put rows of the
dense solve and of the Thomas solve into one tracker batch,
and, through ``cli.main``, the ``lyapunov --which fix,per,sper`` and
``measure --moment-order 3`` CSVs of the horseshoe and mixed Fix_8,
Fix_10 and Fix_12 files and of the cubic's Fix_4, Fix_5 and Fix_6
(``lyapunov-*.csv``, ``measure-*.csv``), the ``measure --which per`` and
``--which sper`` CSVs of the mixed files, where the sink at 0 makes sper
differ from fix (``measure-mixed-per.csv``, ``measure-mixed-sper.csv``),
and the ``classify`` output of mixed Fix_12, which reads, re-certifies
and writes a spectrum (``classify-mixed-fix12.json``).  For horseshoe
and mixed Fix_8 and cubic Fix_5 it also writes one ``verify-*.txt`` file
through ``henonlab.verify``: the ``repr`` of every orbit coordinate
re-polished at dps 60, with all its 60 digits, and of ``green_plus_hp``
and ``green_minus_hp`` at each point.  That is 81 files in all.  It
imports henonlab from the ``src/``
beside this script, so two checkouts compare with

    python3 A/tools/parity.py outA && python3 B/tools/parity.py outB && diff -r outA outB

and

    python3 tools/parity.py --compare outA outB

prints one line per file that differs.  A spectrum JSON whose parsed
record equals outA's, apart from keys that outA lacks, is ``layout
only``.  For any other spectrum JSON it checks that the map, n,
``complete``, the counts, ``budget_used``, the number of ``unresolved``
endpoints and the period and kind of every orbit in order are equal,
and gives the largest move of an orbit's xs, also as a fraction of its
certificate radius in outA; for a CSV or ``verify-*.txt`` file it gives
the largest absolute difference of each column that differs (inf where
text or nan changes).  For a ``verify-*.txt`` file it also gives the
largest move of a re-polished coordinate, |z_B - z_A| / (1 + |z_A|),
the scale of the re-polish's own stopping tolerance, and the largest G+
or G- in outB.  Numbers are compared in mpmath at 70 digits, so moves
below double precision show.  It exits 1 when a spectrum differs in
more than its last bits (an orbit moves outside its outA radius), when
a ``verify-*.txt`` file's rows do not pair up, a coordinate moves by
more than ``Z_MOVE_LIMIT`` (1e-55) or a potential in outB reaches
``GREEN_LIMIT`` (1e-6), since the periodic points lie in K, where G+
and G- vanish, or when a file is missing on one side.

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

A third one: against a tree whose tracker caps its step at 0.1 and
takes three Newton corrections per step, each accepted only when the
last is at round-off, 47 of the 49 files differ in their last bits
(``--compare`` lists them); ``horseshoe-fix01.json`` and
``lyapunov-horseshoe.csv`` are byte-identical.  The tracker now ends
its paths less accurately and the polish starts from there.  Every
count, ``complete``, the orbit order and every kind are equal; xs move
by at most 4.5e-16 (horseshoe), 2.5e-15 (mixed), 2.4e-15 (cubic) and
2.0e-16 (near1d), at most 0.20 of the old certificate radius, and chi
by at most 3.6e-15 relatively.  The mixed map's sink at 0, whose two
multipliers ±i/√2 have one modulus, swaps ``lambda_s`` and
``lambda_u``.  The real horseshoe orbits now carry imaginary parts of
up to 3.9e-17 in place of 1.8e-40.  Since ``measure`` bins by the sign
of such round-off, its discrepancy column moves by up to 0.235
(horseshoe) and 7.3e-4 (mixed), while the round-off-level moment gaps
move by at most 3.3e-16.  The lyapunov ``psi_sum_form`` and
``agreement_gap`` of the mixed map move by 1.1e-16.  In the scans,
lambda_n and lambda_prev_n move by at most 2.2e-16 and
laplacian_defect by at most 7.1e-13.  The ``verify-*.txt`` files
differ in imaginary parts of at most 5.2e-126 and in G+ and G- values
that are zero up to round-off (at most 1.5e-25, and 2.9e-15 for
horseshoe G-, whose values there are of that size).

A fourth one: against a tree that writes spectra with ``json.dumps(...,
indent=1)`` and no ``schema`` field, every spectrum JSON differs in its
layout and is listed as ``layout only``: the file is now one header line
with ``"schema": 2``, ``budget_used`` and ``unresolved`` added and
``"orbits"`` last, then one compact line per orbit, and its parsed
record equals the old one apart from those three keys.  Against a tree
that also bins measures by ``floor(coord / resolution)``, the
``discrepancy`` column of the two ``measure`` CSVs differs: the cells are
now centred (``floor(coord / resolution + 0.5)``), so the round-off
imaginary parts of the real horseshoe orbits no longer split a cell by
their sign.  Horseshoe Fix_8 and Fix_10 against Fix_12 read 0.0681 and
0.00488 in place of 0.645 and 0.485; the mixed map's rows move by at
most 0.00317.  The moment gaps, the lyapunov and scan CSVs and the
``verify-*.txt`` files are byte-identical.

A fifth one: against a tree whose re-polish stops only at a correction
below 2^-prec (1 + max |z_k|), the three ``verify-*.txt`` files differ.
The re-polish now also stops when quadratic convergence predicts the
next correction below that, so it takes two solves where it took three.
At full precision the coordinates move by at most 1.03e-61 (horseshoe),
8.0e-62 (mixed) and 2.2e-61 (cubic) of 1 + |z|; in the printed digits
only parts at round-off level change, by at most 4.5e-65 (horseshoe)
and 5.3e-107 (mixed).  G+ and G- change with them and stay at round-off
level: the largest is 2.3e-14 in ``verify-horseshoe-fix08.txt``,
6.1e-25 in ``verify-mixed-fix08.txt`` and 1.7e-25 in
``verify-cubic-fix05.txt``.  The other 46 files are byte-identical; the
escape-rate loop's skipped calls on exact zeros, made in the same
change, alone leave all 49 byte-identical.

Outputs compare only when one version of this script wrote both: until
the verify files carried all 60 digits, they carried the 17 of mpmath's
default precision, and every coordinate of the three files differs
between the two layouts.

A sixth one: against a tree whose tracker doubles every accepted step,
also one taken right after a rejection, 35 of the 50 files differ in
their last bits; the same tree with only the step rule reverted leaves
all 50 byte-identical.  Every count, ``complete``, ``unresolved``,
``budget_used``, the orbit order and every kind are equal.  xs move by
at most 4.4e-16 (horseshoe Fix_3, 6 and 9-12), 2.6e-16 (mixed Fix_3 and
5-12), 9.4e-16 (cubic Fix_1-6) and 1.6e-16 (near1d Fix_3, 4 and 6-8),
at most 0.044 of the old certificate radius.  All five scans move
lambda_n and lambda_prev_n by at most 3e-16 and laplacian_defect by at
most 7.1e-13; the ``measure`` CSVs move only in moment gaps at
round-off level (at most 1.1e-16).  ``verify-mixed-fix08.txt`` and
``verify-cubic-fix05.txt`` move z by at most 7.4e-62 and 1.9e-61 of
1 + |z|, with G+ and G- at most 6.1e-25; ``verify-horseshoe-fix08.txt``
and both ``lyapunov`` CSVs are byte-identical.

A seventh one: against a tree that stores every certified orbit as the
polish leaves it, 34 of the 50 files differ.  A certified orbit of a
real map is now stored as its real part, with imaginary parts +0.0,
when its conjugate zero lies inside the Kantorovich uniqueness radius
(``orbits._real_rows``).  The spectra of the three real maps differ:
horseshoe Fix_2-12, mixed Fix_1-12 and near1d Fix_1-8.  There the xs of
the real orbits lose imaginary parts of at most 9.4e-17 (horseshoe),
1.3e-22 (mixed) and 1.0e-18 (near1d), at most 0.0055 of the old
radius.  Their residuals and lambdas change in the last bits; chi,
every count, ``complete``, ``unresolved``, ``budget_used``, the orbit
order and every kind are equal.  ``measure-horseshoe.csv`` moves only
in moment gaps at round-off level (at most 7.4e-19).
``verify-horseshoe-fix08.txt`` and ``verify-mixed-fix08.txt`` move z by
at most 9.7e-62 and 6.4e-62 of 1 + |z|, with G+ and G- at most 2.3e-14
and 6.1e-25.  ``horseshoe-fix01.json``, the cubic spectra and verify
file, every scan and both ``lyapunov`` CSVs are byte-identical.

An eighth one: against a tree that polishes endpoints with a damped
Newton loop run down to a residual floor, and re-polishes with a Newton
loop of its own, 61 of the 64 files differ in their last bits (that
tree's outputs written by this script, which adds the 14 files of the
degenerate maps).  One loop, ``orbits._newton``, now does both; a double
row stops once its correction is below 2^-53 (1 + max |x_k|) or
predicted below it.  ``horseshoe-fix01.json``, ``doubling-fix02.json``
and ``lyapunov-mixed.csv`` are byte-identical.  Every count,
``complete``, ``budget_used``, ``unresolved``, the orbit order and every
kind are equal, on the degenerate files too.  xs move by at most
4.4e-16 (horseshoe), 2.5e-15 (mixed Fix_11), 2.4e-15 (cubic), 2.0e-16
(near1d), 3.3e-16 (saddle-node, doubling, conservative) and 5.6e-14
(near-saddle-node), at most 0.159 of the old certificate radius; the
mixed map's fixed point 0 is now exactly 0, where it was -2.4e-27.  The
scans move lambda_n and lambda_prev_n by at most 4e-16 and
laplacian_defect by at most 7.1e-13, the ``measure`` CSVs only their
moment gaps (at most 4.4e-16) and ``lyapunov-horseshoe.csv`` by at most
3e-16.  The ``verify-*.txt`` files move z by at most 9.8e-62
(horseshoe), 9.1e-62 (mixed) and 1.4e-61 (cubic) of 1 + |z|, with G+
and G- at most 2.3e-14; given the same double orbits, the re-polish
returns bit-identical z.

A ninth one: against a tree whose escape-rate loop copies libmp's
rounding, bit for bit the floats of a loop on mpc objects, the three
``verify-*.txt`` files differ in their G+ and G- columns only.  The
loop now steps in fixed point at P = prec + 10 bits (``maps``).  The
values are at round-off level and move by factors of up to 25
(horseshoe), 1.3 (mixed) and 71 (cubic); exact zeros go from 82 to 86,
472 to 476 and 241 to 238 of the 512, 512 and 486 values.  The largest
is now 1.46e-14 in ``verify-horseshoe-fix08.txt``, 2.68e-25 in
``verify-mixed-fix08.txt`` and 3.03e-25 in ``verify-cubic-fix05.txt``.
z moves by 0, and the other 76 files are byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import mpmath as mp  # noqa: E402

import henonlab as hl  # noqa: E402
from henonlab.cli import main as cli_main  # noqa: E402

SEED = 1729

#: the spectra whose orbits go through the verify layer
VERIFY = {"horseshoe": 8, "mixed": 8, "cubic": 5}

#: name -> (map, the n of its spectra)
MAPS = {
    "horseshoe": (hl.quadratic_map(-6.0, 0.3), range(1, 13)),
    "mixed": (hl.quadratic_map(0.0, 0.5), range(1, 13)),
    "cubic": (hl.HenonMap(coeffs=(0.3 + 0.2j, -1.5, 0.1j), a=0.4 - 0.3j), range(1, 7)),
    "near1d": (hl.quadratic_map(0.0, 1e-3), range(1, 9)),
    # a = 1: symmetric orbits whose rotations tie in their leading real key
    "reversible": (hl.quadratic_map(-12.0, 1.0), range(1, 11)),
    # degenerate parameters: incomplete spectra, whose budget_used and
    # unresolved endpoints show how the polish treats multiple roots
    "saddle-node": (hl.quadratic_map(0.5625, 0.5), range(1, 5)),
    "doubling": (hl.quadratic_map(-1.6875, 0.5), (2, 4, 6)),
    "conservative": (hl.quadratic_map(0.0, 1.0), (4,)),
    "near-saddle-node": (hl.quadratic_map(0.5625 - 1e-6, 0.5), range(1, 7)),
    # a retrack completes these: attempt 0 of the cubic ends a path on an
    # orbit already found, and one endpoint of the quadratic fails its checks
    "rescue-cubic": (hl.HenonMap(coeffs=(0.3 + 0.2j, -1.5 + 0.08j, 0.1j), a=0.4 - 0.3j), (6,)),
    "rescue-quadratic": (hl.HenonMap(coeffs=(-0.6 + 0.5j, 0j), a=0.3 - 0.4j), (8,)),
}

#: name -> the n of the spectra that ``lyapunov`` and ``measure`` read
TABLES = {"horseshoe": (8, 10, 12), "mixed": (8, 10, 12), "cubic": (4, 5, 6)}

SINK_5 = hl.FamilySpec(coeffs=(0j, 0.0), a=0.5, center=0j, radius=0.25, grid_size=5)

#: (name, family, n) of each scan
SCANS = [
    ("horseshoe-11", hl.FamilySpec(coeffs=(-6.0 + 0j, 0.0), a=0.3, center=-6.0 + 0j,
                                   radius=0.25, grid_size=11), 6),
    ("sink-11", hl.FamilySpec(coeffs=(0j, 0.0), a=0.5, center=0j, radius=0.25, grid_size=11), 6),
    ("sink-5", SINK_5, 6),
    ("sink-5", SINK_5, 3),
    # p' of the families above does not depend on the swept constant term, so
    # their multipliers would not show a cell's orbits classified with another
    # cell's map; the cubic's swept x coefficient enters p'
    ("cubic-x-5", hl.FamilySpec(coeffs=(0.3 + 0.2j, -1.5, 0.1j), a=0.4 - 0.3j,
                                center=-1.5 + 0j, radius=0.2, grid_size=5, slot=1), 6),
]


def verify_lines(spec) -> str:
    """One line per orbit point: repr of z_k, G+ and G- at (z_k, z_{k-1})."""
    lines = []
    for o in spec.orbits:
        z = hl.refine_orbit_hp(spec.map, o.xs, dps=60)
        for k in range(len(z)):
            pt = (z[k], z[k - 1])
            greens = (hl.green_plus_hp(spec.map, pt), hl.green_minus_hp(spec.map, pt))
            with mp.workdps(60):  # all the re-polish's digits, not the 17 of the default dps
                lines.append(" ".join(map(repr, (z[k], *greens))))
        lines.append("")
    return "\n".join(lines)


#: the columns of a ``verify-*.txt`` line
VERIFY_COLUMNS = ("re z", "im z", "G+", "G-")

#: --compare fails when a re-polished coordinate moves by more than
#: Z_MOVE_LIMIT (1 + |z|) or a potential at a periodic point reaches GREEN_LIMIT
Z_MOVE_LIMIT, GREEN_LIMIT = 1e-55, 1e-6

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def compare_spectra(old: dict, new: dict) -> tuple[str, bool]:
    """One line on how two spectrum records differ, and whether only in last bits."""
    pairs = list(zip(old["orbits"], new["orbits"]))
    if (any(old[key] != new[key] for key in ("map", "n", "complete", "counts"))
            or old.get("budget_used") != new.get("budget_used")
            or len(old.get("unresolved", [])) != len(new.get("unresolved", []))
            or len(old["orbits"]) != len(new["orbits"])
            or any((o["period"], o["kind"]) != (q["period"], q["kind"]) for o, q in pairs)):
        return "counts, complete, paths, unresolved, orbit order or kinds differ", False
    moves = [(max(abs(complex(*x) - complex(*y)) for x, y in zip(o["xs"], q["xs"])), o["radius"])
             for o, q in pairs]
    move = max((m for m, _ in moves), default=0.0)
    share = max((m / r if r else math.inf if m else 0.0 for m, r in moves), default=0.0)
    inside = all(m <= r for m, r in moves)
    line = f"xs move by at most {move:.3g}, {share:.3g} of the old radius"
    return line + ("" if inside else ", OUTSIDE it"), inside


def _number_gap(u: str, v: str) -> float:
    """|u - v| of two numbers written out, at more digits than ``verify_lines`` writes."""
    with mp.workdps(70):
        return float(abs(mp.mpf(u) - mp.mpf(v)))


def column_differences(old: list[list[str]], new: list[list[str]], names) -> str:
    """The largest absolute difference of each column that differs, as one line."""
    if len(old) != len(new) or any(len(a) != len(b) for a, b in zip(old, new)):
        return "row or column counts differ"
    largest: dict[str, float] = {}
    for a, b in zip(old, new):
        for name, u, v in zip(names, a, b):
            if u != v:
                try:
                    diff = _number_gap(u, v)
                except ValueError:
                    diff = math.inf
                largest[name] = max(largest.get(name, 0.0), diff if diff == diff else math.inf)
    return ", ".join(f"{name} {diff:.3g}" for name, diff in largest.items()) or "text differs"


def compare_verify(old: list[list[str]], new: list[list[str]]) -> tuple[str, bool]:
    """The largest relative move of a coordinate and the largest potential in
    new, as one line, and whether both are inside the gate (a nan is not)."""
    if len(old) != len(new) or any(len(a) != len(b) or len(a) not in (0, 4) for a, b in zip(old, new)):
        return "", False
    moves, greens = [], []
    for a, b in zip(old, new):
        if a:
            with mp.workdps(70):
                za, zb = (mp.mpc(r[0], r[1]) for r in (a, b))
                moves.append(float(abs(zb - za) / (1 + abs(za))))
            greens += map(float, b[2:])
    inside = all(v <= Z_MOVE_LIMIT for v in moves) and all(g < GREEN_LIMIT for g in greens)
    return (f"; z moves by at most {max(moves, default=0.0):.3g} of 1 + |z|, greens at most "
            f"{max(greens, default=0.0):.3g}" + ("" if inside else ", OUTSIDE the gate")), inside


def compare(old_dir: Path, new_dir: Path) -> int:
    """Print one line per file of two parity outputs that differs; 1 if beyond last bits."""
    names = sorted({p.name for p in old_dir.iterdir()} | {p.name for p in new_dir.iterdir()})
    differ, ok = 0, True
    for name in names:
        old, new = old_dir / name, new_dir / name
        if not (old.exists() and new.exists()):
            line, ok = f"only in {old_dir if old.exists() else new_dir}", False
        elif old.read_bytes() == new.read_bytes():
            continue
        elif name.endswith(".json"):
            a, b = json.loads(old.read_text()), json.loads(new.read_text())
            if {key: b[key] for key in a if key in b} == a:
                line = "layout only"
            else:
                line, inside = compare_spectra(a, b)
                ok &= inside
        elif name.endswith(".csv"):
            (header, *a), (_, *b) = (list(csv.reader(p.read_text().splitlines())) for p in (old, new))
            line = column_differences(a, b, header)
        else:
            a, b = ([NUMBER.findall(s) for s in p.read_text().splitlines()] for p in (old, new))
            line = column_differences(a, b, VERIFY_COLUMNS)
            gate, inside = compare_verify(a, b)
            line += gate
            ok &= inside
        differ += 1
        print(f"{name}: {line}")
    print(f"{differ} of {len(names)} files differ")
    return 0 if ok else 1


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    if not Path(hl.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"henonlab imported from {hl.__file__}, not from {ROOT / 'src'}")
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    for name, (m, ns) in MAPS.items():
        for n in ns:
            spec = hl.enumerate_fix(m, n, rng_seed=SEED)
            (out / f"{name}-fix{n:02d}.json").write_text(hl.spectrum_to_json(spec) + "\n")
            if VERIFY.get(name) == n:
                (out / f"verify-{name}-fix{n:02d}.txt").write_text(verify_lines(spec))
    for name, family, n in SCANS:
        (out / f"scan-{name}-n{n}.csv").write_text(hl.scan_to_csv(hl.scan(family, n, rng_seed=SEED)))
    commands = {}
    for name, ns in TABLES.items():
        spectra = [str(out / f"{name}-fix{n:02d}.json") for n in ns]
        commands[f"lyapunov-{name}.csv"] = ["lyapunov", "--spectra", *spectra, "--which", "fix,per,sper"]
        commands[f"measure-{name}.csv"] = ["measure", "--spectra", *spectra, "--moment-order", "3"]
        if name == "mixed":
            for which in ("per", "sper"):
                commands[f"measure-mixed-{which}.csv"] = ["measure", "--spectra", *spectra,
                                                          "--which", which, "--moment-order", "3"]
    commands["classify-mixed-fix12.json"] = ["classify", "--spectrum", str(out / "mixed-fix12.json")]
    for name, argv in commands.items():
        argv += ["--out", str(out / name)]
        if cli_main(argv) != 0:
            raise SystemExit(f"henonlab {' '.join(argv)} failed")
    print(f"wrote {len(list(out.iterdir()))} files to {out} in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
