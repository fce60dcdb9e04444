"""Show that the benchmark's checks reject broken output.

    python3 perfbench/selftest.py

Runs one pass of each workload at seed 1729, checks that the real output
passes, then breaks copies of it and checks that each is rejected:
an orbit dropped from a catalogue, a point moved by 1e-6, a certificate
radius halved, and a scan cell with n_sinks zeroed.  Exits 0 only if
the real output passes and every broken copy is rejected (about 40 s).
"""

from __future__ import annotations

import copy
import csv
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import henonlab  # noqa: E402
import henonlab.cli  # noqa: E402,F401

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 1729


def report(name: str, problems: list[str], want_rejected: bool) -> bool:
    ok = bool(problems) == want_rejected
    verdict = ("rejected" if problems else "accepted")
    detail = f": {problems[0]}" if problems else ""
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}{detail}")
    return ok


def catalogue(workdir: Path) -> bool:
    wl = workloads.Catalogue(henonlab, workdir, SEED)
    wl.write_inputs()
    _, (d, codes, files, _) = wl.run_pass(0)
    c, a = complex(*workloads.HORSESHOE["p"][0]), complex(*workloads.HORSESHOE["a"])
    n = 12
    text = files[n].read_text()
    data = json.loads(text)
    ok = report("catalogue Fix_12 as computed", checks.check_spectrum(text, n, c, a)[0], False)

    def broken(edit) -> str:
        bad = copy.deepcopy(data)
        edit(bad)
        return json.dumps(bad)

    mid = len(data["orbits"]) // 2
    cases = {
        "one orbit dropped": lambda s: s["orbits"].pop(mid),
        "a point moved by 1e-6": lambda s: s["orbits"][mid]["xs"][0].__setitem__(
            0, s["orbits"][mid]["xs"][0][0] + 1e-6),
    }
    for i in (0, mid, len(data["orbits"]) - 1):
        cases[f"certificate radius of orbit {i} halved"] = (
            lambda s, i=i: s["orbits"][i].__setitem__("radius", s["orbits"][i]["radius"] / 2))
    for name, edit in cases.items():
        ok &= report(f"catalogue Fix_12, {name}", checks.check_spectrum(broken(edit), n, c, a)[0], True)
    return ok & all(code == 0 for code in codes)


def scan(workdir: Path) -> bool:
    wl = workloads.ScanSink(henonlab, workdir, SEED)
    wl.write_inputs()
    _, (code, out) = wl.run_pass(0)
    text = out.read_text()
    rows = list(csv.DictReader(io.StringIO(text)))
    ok = report("scan-sink as computed", checks.check_scan(rows, workloads.SINK_FAMILY), False)
    caught = 0
    for i in range(len(rows)):
        bad = copy.deepcopy(rows)
        bad[i]["n_sinks"] = "0"
        caught += bool(checks.check_scan(bad, workloads.SINK_FAMILY))
    ok &= report(f"scan-sink, n_sinks zeroed in one cell ({caught} of {len(rows)} cells tried)",
                 ["every cell tried was rejected"] * (caught == len(rows)), True)
    return ok & (code == 0)


def verify(workdir: Path) -> bool:
    wl = workloads.VerifyHP(henonlab, workdir, SEED)
    wl.load()
    _, polished = wl.run_pass(0)
    failed, problems = wl.check(polished)
    ok = report(f"verify-hp as computed ({failed} of {wl.ops_per_pass} orbits outside their radius)",
                problems, False)
    for _, o in wl.work:
        o.certificate_radius /= 2
    halved, _ = wl.check(polished)
    print(f"     verify-hp, every radius halved: {halved} of {wl.ops_per_pass} orbits outside")
    return ok & (halved > failed)


def main() -> int:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=out))
    try:
        ok = catalogue(workdir) & scan(workdir) & verify(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("all checks behave" if ok else "SELF-TEST FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
