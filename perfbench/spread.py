"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads catalogue scan-sink verify-hp]
                                [--seeds 1 2 ... 10] [--trace]

For each workload it runs ``run.py`` once per seed, in sequence, and
prints per metric the median, the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, and that share against the metric's bound in BENCHMARK.json.
It exits non-zero if a run fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    ok = True
    for wl in args.workloads:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in args.seeds:
            cmd = [sys.executable, "perfbench/run.py", "--workload", wl, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "1" if args.trace else "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if res is None or not res["correct"]:
                ok = False
                print(f"{wl} seed {seed}: FAILED\n{proc.stderr}")
                continue
            shares.add((res["failed"], res["attempted"]))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            shown = "" if args.trace else " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items())
            print(f"{wl} seed {seed}: attempted {res['attempted']} failed {res['failed']} {shown}",
                  flush=True)
        fractions = {f / a for f, a in shares}
        print(f"{wl}: failed share {sorted(fractions)}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            tail = f"  bound {bound}  ({share / bound:.2f} of it)" if bound else ""
            print(f"  {name:32s} median {med:.6g}  quartile spread {share:.4f}{tail}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
