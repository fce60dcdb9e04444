"""The benchmark's workloads: inputs, one pass, and the checks of that pass.

A workload object is built in the worker process once henonlab is
importable.  ``load`` makes the inputs (the program calls it makes there
count as set-up), ``warmup`` runs untimed, ``run_pass`` is the timed
unit and returns the time of each of its operations with what ``check``
needs, and ``check`` compares the pass against computations made in
``checks``.  Every pass attempts the same operations, so the failed
share is the same in every run.
"""

from __future__ import annotations

import json
import random
import shutil
import time
from pathlib import Path

import checks

#: every enumeration runs at the program's default seed, whatever --seed
#: is.  The multistart stops once it holds d^n points, and how many Newton
#: candidates it absorbs first depends on the seed: for horseshoe Fix_12,
#: 4,278 at seed 7 (4.1 s) and 18,770 at seed 2 (10.5 s), from the same
#: 32,768 Newton seeds; a 5x5 sink scan takes 11.4 s at seed 2 and 16.0 s
#: at seed 5.  Runs at different program seeds would compare that luck.
PROGRAM_SEED = 1729
HORSESHOE = {"p": [[-6.0, 0.0], [0.0, 0.0]], "a": [0.3, 0.0]}    # p = x^2 - 6, a = 0.3
MIXED = {"p": [[0.0, 0.0], [0.0, 0.0]], "a": [0.5, 0.0]}         # p = x^2, a = 0.5
# the release gate's sink family, p = x^2 + c with |c| <= 0.25, a = 0.5,
# on the smallest odd grid the program accepts: one pass takes 10-17 s
SINK_FAMILY = {"p": [[0.0, 0.0], [0.0, 0.0]], "a": [0.5, 0.0],
               "center": [0.0, 0.0], "radius": 0.25, "grid_size": 5}


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


class Workload:
    name = ""
    ops_per_pass = 0

    def __init__(self, henonlab, workdir: Path, seed: int) -> None:
        self.hl = henonlab
        self.workdir = workdir
        self.seed = seed

    def cli(self, *argv) -> int:
        # looked up on every call, so a traced run sees the wrapped main
        return self.hl.cli.main([str(v) for v in argv])

    def write_inputs(self) -> None:
        pass

    def load(self) -> None:
        """Program calls that build the inputs; part of set-up."""

    def warmup(self) -> None:
        pass

    def run_pass(self, i: int):
        raise NotImplementedError

    def check(self, result) -> tuple[int, list[str]]:
        """(failed operations, problems) for one pass."""
        raise NotImplementedError


class Catalogue(Workload):
    """enumerate Fix_10 and Fix_12 of the horseshoe into a fresh cache,
    lyapunov and measure over both, then enumerate Fix_12 again from the cache."""

    name = "catalogue"
    ops_per_pass = 5
    sizes = (10, 12)

    def write_inputs(self) -> None:
        self.map_file = self.workdir / "horseshoe.json"
        self.map_file.write_text(json.dumps(HORSESHOE))

    def warmup(self) -> None:
        # one Newton batch at the largest size (--budget d^n stops after it),
        # so the first timed pass does not first-touch the batch memory
        n = self.sizes[-1]
        self.cli("enumerate", "--map", self.map_file, "--n", n, "--budget", 2**n,
                 "--out", self.workdir / "warmup.json", "--seed", PROGRAM_SEED)

    def run_pass(self, i):
        d = self.workdir / f"pass{i}"
        d.mkdir()
        cache = d / "cache"
        files = {n: d / f"fix{n}.json" for n in self.sizes}
        hit = d / "fix12-hit.json"
        commands = [("enumerate", "--map", self.map_file, "--n", n, "--out", files[n],
                     "--cache-dir", cache) for n in self.sizes]
        commands.append(("lyapunov", "--spectra", *files.values(), "--which", "fix,sper",
                         "--out", d / "lyapunov.csv"))
        commands.append(("measure", "--spectra", *files.values(), "--moment-order", 3,
                         "--out", d / "measure.csv"))
        commands.append(("enumerate", "--map", self.map_file, "--n", self.sizes[-1],
                         "--out", hit, "--cache-dir", cache))
        times, codes = [], []
        for argv in commands:
            t0 = time.perf_counter()
            codes.append(self.cli(*argv, "--seed", PROGRAM_SEED))
            times.append(time.perf_counter() - t0)
        return times, (d, codes, files, hit)

    def check(self, result) -> tuple[int, list[str]]:
        d, codes, files, hit = result
        failed = sum(code != 0 for code in codes)
        if failed:
            shutil.rmtree(d)
            return failed, [f"catalogue: CLI exit codes {codes}"]
        c, a = _c(HORSESHOE["p"][0]), _c(HORSESHOE["a"])
        problems, lam = [], {}
        for n, path in files.items():
            found, lam[n] = checks.check_spectrum(path.read_text(), n, c, a)
            problems += found
        problems += checks.check_lyapunov(checks.read_csv(d / "lyapunov.csv"), lam)
        problems += checks.check_measure(checks.read_csv(d / "measure.csv"), *self.sizes)
        if hit.read_bytes() != files[self.sizes[-1]].read_bytes():
            problems.append("catalogue: the cache served other bytes than the first computation")
        shutil.rmtree(d)
        return 0, problems


class ScanSink(Workload):
    """CLI scan of the sink family at n = 6; one operation per grid cell.

    No warm-up: a pass takes 10-17 s here, and without one a 36 s run
    still fits two passes when the host is slow.  The first pass runs
    at most a few per cent slower, and the fastest pass is kept.
    """

    name = "scan-sink"
    ops_per_pass = SINK_FAMILY["grid_size"] ** 2
    n = 6

    def write_inputs(self) -> None:
        self.family_file = self.workdir / "sink-family.json"
        self.family_file.write_text(json.dumps(SINK_FAMILY))

    def run_pass(self, i: int):
        out = self.workdir / f"scan{i}.csv"
        t0 = time.perf_counter()
        code = self.cli("scan", "--family", self.family_file, "--n", self.n,
                        "--out", out, "--seed", PROGRAM_SEED)
        return [time.perf_counter() - t0], (code, out)

    def check(self, result) -> tuple[int, list[str]]:
        code, out = result
        if code != 0:
            return self.ops_per_pass, [f"scan-sink: CLI exit code {code}"]
        problems = checks.check_scan(checks.read_csv(out), SINK_FAMILY)
        out.unlink()
        return 0, problems


class VerifyHP(Workload):
    """mpmath re-polish and green potentials on every Fix_8 orbit of two maps.

    At the program's default seed two of these orbits fall outside their
    certificate radius (a fault in ``orbits.certify``); a failure count
    that moved with the seed could not be compared between runs either.
    ``--seed`` sets the order in which the orbits are polished.
    """

    name = "verify-hp"
    n = 8
    maps = (HORSESHOE, MIXED)
    ops_per_pass = 72   # orbits of Fix_8 at d = 2, per map 36

    def load(self) -> None:
        self.spectra = []
        for spec in self.maps:
            m = self.hl.HenonMap.from_spec(spec)
            self.spectra.append(self.hl.enumerate_fix(m, self.n, rng_seed=PROGRAM_SEED))
        self.work = [(s.map, o) for s in self.spectra for o in s.orbits]
        random.Random(self.seed).shuffle(self.work)
        if len(self.work) != self.ops_per_pass or not all(s.complete for s in self.spectra):
            raise RuntimeError(f"verify-hp inputs: {len(self.work)} orbits, "
                               f"complete {[s.complete for s in self.spectra]}")

    def warmup(self) -> None:
        self._polish(self.work[:2])

    def _polish(self, work) -> tuple[list[float], list]:
        verify = self.hl.verify
        times, out = [], []
        for m, o in work:
            t0 = time.perf_counter()
            z = verify.refine_orbit_hp(m, o.xs)
            greens = []
            for k in range(len(z)):
                pt = (z[k], z[k - 1])
                greens.append(verify.green_plus_hp(m, pt))
                greens.append(verify.green_minus_hp(m, pt))
            times.append(time.perf_counter() - t0)
            out.append((z, greens))
        return times, out

    def run_pass(self, i: int):
        return self._polish(self.work)

    def check(self, result) -> tuple[int, list[str]]:
        failed, problems = 0, []
        for (m, o), (z, greens) in zip(self.work, result):
            inside, found = checks.check_polished(z, o.xs, o.certificate_radius,
                                                  m.coeffs[0], m.a, greens)
            failed += not inside
            problems += found
        return failed, problems


WORKLOADS = {w.name: w for w in (Catalogue, ScanSink, VerifyHP)}
