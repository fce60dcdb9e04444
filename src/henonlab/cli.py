"""Command-line front end: reproducible enumeration, measure, Lyapunov and
scan experiments with content-addressed caching.

Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import io
import json
import os
import sys
import tempfile

from . import __version__
from .maps import HenonMap
from .measures import DEFAULT_RESOLUTION, discrepancy, empirical_measure, moment_orders, moments
from .exponents import lambda_estimates
from .orbits import (
    DEFAULT_EPS_HYP,
    DEFAULT_RNG_SEED,
    SPECTRUM_SCHEMA,
    _certify_rows,
    _classify_rows,
    enumerate_fix,
    spectrum_from_file,
    spectrum_to_json,
)
from .scan import SCAN_CSV_HEADER, FamilySpec, _harmonic_stencil, scan, scan_to_csv


class UsageError(Exception):
    pass


#: the point classes of ``PeriodSpectrum.select``
_SELECTIONS = ("fix", "per", "sper")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract is 1
        raise UsageError(message)


def _add_common(p) -> None:
    p.add_argument("--seed", type=int, default=DEFAULT_RNG_SEED)
    p.add_argument("--eps-hyp", type=float, default=DEFAULT_EPS_HYP)
    p.add_argument("--out", required=True)


def _cache_fetch(cache_dir, key_obj, valid):
    """Cache path of ``key_obj`` and the bytes stored there.

    The key carries the package version, so a new release never serves
    an older one's results.  Bytes that ``valid`` rejects (a file cut
    short, say) count as a miss and are recomputed.
    """
    if cache_dir is None:
        return None, None
    os.makedirs(cache_dir, exist_ok=True)
    digest = hashlib.sha256(
        json.dumps(dict(key_obj, version=__version__), sort_keys=True,
                   separators=(",", ":")).encode()
    ).hexdigest()
    path = os.path.join(cache_dir, digest)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return path, None
    return path, (data if valid(data) else None)


def _parses_as_json(data: bytes) -> bool:
    try:
        json.loads(data)
    except ValueError:
        return False
    return True


def _write_out(out_path: str, payload: str, cache_path: str | None) -> None:
    data = payload.encode()
    if cache_path is not None:
        # write beside the entry and rename, so a killed run leaves no partial entry
        with tempfile.NamedTemporaryFile(dir=os.path.dirname(cache_path), prefix=".",
                                         delete=False) as fh:
            fh.write(data)
        os.replace(fh.name, cache_path)
    with open(out_path, "wb") as fh:
        fh.write(data)


# -- subcommands ---------------------------------------------------------------

def cmd_enumerate(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be a positive integer")
    m = HenonMap.from_file(args.map)
    key = {
        "cmd": "enumerate",
        "schema": SPECTRUM_SCHEMA,
        "map": m.to_spec(),
        "n": args.n,
        "budget": args.budget,
        "seed": args.seed,
        "eps_hyp": args.eps_hyp,
    }
    cache_path, hit = _cache_fetch(args.cache_dir, key, _parses_as_json)
    if hit is not None:
        with open(args.out, "wb") as fh:
            fh.write(hit)
        return 0
    spec = enumerate_fix(m, args.n, budget=args.budget, rng_seed=args.seed, eps_hyp=args.eps_hyp)
    _write_out(args.out, spectrum_to_json(spec) + "\n", cache_path)
    return 0


def cmd_classify(args) -> int:
    spec = spectrum_from_file(args.spectrum)
    blocks = [_classify_rows(spec.map, b.xs, *_certify_rows(spec.map, b.xs)[:2], args.eps_hyp)
              for b in spec.blocks]
    _write_out(args.out, spectrum_to_json(dataclasses.replace(spec, blocks=blocks)) + "\n", None)
    return 0


def _load_spectra(paths) -> list:
    """The spectra in ``paths``, sorted by n: one map, each n at most once."""
    specs = [spectrum_from_file(p) for p in paths]
    base = specs[0].map.to_spec()
    for s in specs[1:]:
        if s.map.to_spec() != base:
            raise ValueError("spectrum files refer to different maps")
    specs.sort(key=lambda s: s.n)
    for s, t in zip(specs, specs[1:]):
        if s.n == t.n:
            raise ValueError(f"two spectrum files hold n = {s.n}")
    return specs


def cmd_measure(args) -> int:
    specs = _load_spectra(args.spectra)
    ref = specs[-1]
    ref_measure = empirical_measure(ref, args.which)
    ref_moments = moments(ref_measure, args.moment_order) if args.moment_order else None
    buf = io.StringIO()
    header = "n1,n2,resolution,complete,discrepancy"
    if ref_moments is not None:
        header += "," + ",".join(f"moment_gap_{j}_{k}" for j, k in moment_orders(args.moment_order))
    buf.write(header + "\n")
    for s in specs:
        mu = ref_measure if s is ref else empirical_measure(s, args.which)
        disc = discrepancy(mu, ref_measure, args.resolution)
        row = f"{s.n},{ref.n},{args.resolution!r},{int(s.complete)},{disc!r}"
        if ref_moments is not None:
            mom = ref_moments if s is ref else moments(mu, args.moment_order)
            gaps = [abs(mom[o] - ref_moments[o]) for o in moment_orders(args.moment_order)]
            row += "," + ",".join(repr(g) for g in gaps)
        buf.write(row + "\n")
    _write_out(args.out, buf.getvalue(), None)
    return 0


def cmd_lyapunov(args) -> int:
    which_list = [w.strip() for w in args.which.split(",") if w.strip()]
    if not which_list or not set(which_list) <= set(_SELECTIONS):
        raise UsageError(f"--which must list one or more of {', '.join(_SELECTIONS)}, "
                         f"not {args.which!r}")
    if len(set(which_list)) < len(which_list):
        raise UsageError(f"--which names a point class twice: {args.which!r}")
    specs = _load_spectra(args.spectra)
    buf = io.StringIO()
    buf.write("n,which,point_count,lambda_n,chi_sum_form,psi_sum_form,agreement_gap\n")
    for s in specs:
        for est in lambda_estimates(s, which_list):
            values = (est.lambda_n, est.chi_sum_form, est.psi_sum_form, est.agreement_gap)
            buf.write(f"{s.n},{est.which},{est.point_count},"
                      + ",".join("" if v is None else repr(v) for v in values) + "\n")
    _write_out(args.out, buf.getvalue(), None)
    return 0


def cmd_scan(args) -> int:
    with open(args.family, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    try:
        family = FamilySpec.from_spec(raw)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.validate_stencil:
        worst, floor = _harmonic_stencil(family)
        payload = (
            "check,value\n"
            f"max_defect_on_harmonic_field,{worst!r}\n"
            f"stencil_noise_floor,{floor!r}\n"
        )
        _write_out(args.out, payload, None)
        return 0
    if args.n < 1:
        raise UsageError("--n must be a positive integer")
    key = {
        "cmd": "scan",
        "family": family.to_spec(),
        "n": args.n,
        "seed": args.seed,
        "eps_hyp": args.eps_hyp,
    }

    def whole_csv(data: bytes) -> bool:
        lines = data.decode(errors="replace").split("\n")  # ends with "" after the last row
        return lines[0] == SCAN_CSV_HEADER and len(lines) == family.grid_size**2 + 2 \
            and lines[-1] == ""

    cache_path, hit = _cache_fetch(args.cache_dir, key, whole_csv)
    if hit is not None:
        with open(args.out, "wb") as fh:
            fh.write(hit)
        return 0
    fld = scan(family, args.n, rng_seed=args.seed, eps_hyp=args.eps_hyp)
    _write_out(args.out, scan_to_csv(fld), cache_path)
    return 0


def cmd_report(args) -> int:
    lines = ["file,bytes"]
    if args.cache_dir and os.path.isdir(args.cache_dir):
        for name in sorted(os.listdir(args.cache_dir)):
            if name.startswith("."):  # a write in progress
                continue
            path = os.path.join(args.cache_dir, name)
            lines.append(f"{name},{os.path.getsize(path)}")
    _write_out(args.out, "\n".join(lines) + "\n", None)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="henonlab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("enumerate", help="enumerate and certify Fix_n")
    pe.add_argument("--map", required=True)
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--budget", type=int, default=None)
    pe.add_argument("--cache-dir", default=None)
    _add_common(pe)
    pe.set_defaults(func=cmd_enumerate)

    pc = sub.add_parser("classify", help="re-derive classifications from a spectrum")
    pc.add_argument("--spectrum", required=True)
    _add_common(pc)
    pc.set_defaults(func=cmd_classify)

    pm = sub.add_parser("measure", help="empirical-measure convergence table")
    pm.add_argument("--spectra", nargs="+", required=True)
    pm.add_argument("--which", default="fix", choices=_SELECTIONS)
    pm.add_argument("--resolution", type=float, default=DEFAULT_RESOLUTION)
    pm.add_argument("--moment-order", type=int, default=0)
    pm.add_argument("--seed", type=int, default=DEFAULT_RNG_SEED)
    pm.add_argument("--out", required=True)
    pm.set_defaults(func=cmd_measure)

    pl = sub.add_parser("lyapunov", help="finite-n Lyapunov estimates")
    pl.add_argument("--spectra", nargs="+", required=True)
    pl.add_argument("--which", default="fix,sper")
    pl.add_argument("--seed", type=int, default=DEFAULT_RNG_SEED)
    pl.add_argument("--out", required=True)
    pl.set_defaults(func=cmd_lyapunov)

    ps = sub.add_parser("scan", help="parameter-disk Lyapunov/sink scan")
    ps.add_argument("--family", required=True)
    ps.add_argument("--n", type=int, default=6)
    ps.add_argument("--validate-stencil", action="store_true")
    ps.add_argument("--cache-dir", default=None)
    _add_common(ps)
    ps.set_defaults(func=cmd_scan)

    pr = sub.add_parser("report", help="summarize cached runs")
    pr.add_argument("--cache-dir", default=None)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=cmd_report)

    return p


#: the parser of ``main``, built once per process: parsing leaves no state in it
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, OverflowError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
