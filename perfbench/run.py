"""Benchmark for henonlab: run one workload and print its metrics.

    python3 perfbench/run.py --workload catalogue --seed 1729 --seconds 36 --trace 0

Run from the root of a henonlab source tree; the program is imported
from its ``src/``.  Workloads: catalogue, scan-sink, verify-hp (see
README.md beside this file).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  Traced runs also write their
spans to ``perfbench/out/trace-<workload>-<seed>.json``.

Each workload runs in a fresh worker process, so peak RSS is that
workload's.  Set-up time is the median over that process and up to four
more that only set up (fewer when set-up is slow, so a run stays short).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_EXTRA = 4        # set-up-only processes at most ...
SETUP_EXTRA_S = 6.0    # ... and no more once they took this long (at least two)
CHILD_TIMEOUT_S = 170.0
WORKLOADS = ("catalogue", "scan-sink", "verify-hp")


def spawn(args, workdir: Path, *extra, timeout: float) -> dict:
    """Run worker.py to completion and return the JSON it printed last."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), *extra]
    spawned_at = time.monotonic()
    proc = subprocess.run([*cmd, "--spawned-at", repr(spawned_at)], stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1729)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not (ROOT / "src" / "henonlab" / "__init__.py").is_file():
        print(f"error: no henonlab source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=outdir))
    try:
        setup = []
        t0 = time.monotonic()
        while not args.trace and len(setup) < SETUP_EXTRA and (
                len(setup) < 2 or time.monotonic() - t0 < SETUP_EXTRA_S):
            sub = workdir / f"setup{len(setup)}"
            sub.mkdir()
            setup.append(spawn(args, sub, "--setup-only",
                               timeout=deadline - time.monotonic())["setup_s"])
        extra = ["--trace-out", str(outdir / f"trace-{args.workload}-{args.seed}.json")] if args.trace else []
        res = spawn(args, workdir, *extra, timeout=deadline - time.monotonic())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup.append(res["setup_s"])
    values = dict(res.get("layers", {}))
    values.update(setup_s=statistics.median(setup), wall_s=res["wall_s"],
                  peak_rss_mb=res["peak_rss_mb"])
    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload}: passes {[round(w, 3) for w in res['pass_walls']]} s, "
          f"cpu of fastest {res['cpu_s']:.3f} s, set-up samples {[round(s, 3) for s in setup]} s",
          file=sys.stderr)
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
