"""One workload in one process; started by run.py, never by hand.

Prints one JSON line: set-up time, pass times, operation counts, the
problems the checks found, peak RSS and, with --trace 1, the per-layer
figures.  With --setup-only it stops after set-up, so run.py can take
set-up time as a median over fresh processes.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_pass(wl, i: int, stats: dict) -> tuple[list[float], float]:
    """Run and check pass ``i``; returns (time of each operation, cpu of the pass).

    Checks are untimed.
    """
    c0 = time.process_time()
    times, result = wl.run_pass(i)
    cpu = time.process_time() - c0
    failed, problems = wl.check(result)
    stats["attempted"] += wl.ops_per_pass
    stats["failed"] += failed
    stats["problems"] += problems
    return times, cpu


def passes_until(wl, until: float, stats: dict) -> list[tuple[list, float]]:
    """Whole passes while the next one, at the cost of the last, ends by ``until``.

    At least one pass runs.
    """
    out = []
    while True:
        t0 = time.perf_counter()
        out.append(one_pass(wl, len(out), stats))
        now = time.perf_counter()
        if now + (now - t0) > until:
            return out


def traced_passes(wl, tracer, until: float, stats: dict):
    """Untraced and traced passes in turn, so both sides of the overhead see
    the same machine; at least one of each.  Returns (untraced, traced,
    span ranges of the traced passes)."""
    plain, traced, ranges = [], [], []
    while True:
        t0 = time.perf_counter()
        i = len(plain) + len(traced)
        if i % 2:
            lo = tracer.mark()
            tracer.install()
            try:
                traced.append(one_pass(wl, i, stats))
            finally:
                tracer.remove()
            ranges.append(range(lo, tracer.mark()))
        else:
            plain.append(one_pass(wl, i, stats))
        now = time.perf_counter()
        if traced and now + (now - t0) > until:
            return plain, traced, ranges


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() before spawn")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None, help="file for the traced round's spans")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import henonlab
    import henonlab.cli  # noqa: F401  (workloads call henonlab.cli.main)
    import tracing
    import workloads

    if not Path(henonlab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"henonlab imported from {henonlab.__file__}, not from this checkout")

    wl = workloads.WORKLOADS[args.workload](henonlab, Path(args.workdir), args.seed)
    wl.write_inputs()
    wl.load()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    start = time.perf_counter()
    stats = {"attempted": 0, "failed": 0, "problems": []}
    wl.warmup()
    until = start + args.seconds
    if args.trace:
        # set-up's program calls again, warm, untraced and then traced
        t0 = time.perf_counter()
        wl.load()
        load_s = time.perf_counter() - t0
        tracer = tracing.Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            wl.load()
            traced_load_s = time.perf_counter() - t0
        finally:
            tracer.remove()
        load_spans = range(tracer.mark())
        plain, traced, ranges = traced_passes(wl, tracer, until, stats)
    else:
        plain = passes_until(wl, until, stats)
    # one pass as the run reports it: each operation at its fastest in this
    # run.  Neighbours on a shared host slow the CPU in phases of seconds;
    # a phase that spans one operation of one pass leaves this sum alone.
    wall = sum(map(min, zip(*(times for times, _ in plain))))
    cpu = min(c for _, c in plain)
    out = {"setup_s": setup_s, "wall_s": wall, "cpu_s": cpu,
           "pass_walls": [sum(times) for times, _ in plain]}

    if args.trace:
        k = min(range(len(traced)), key=lambda j: sum(traced[j][0]))
        # the traced round: the set-up's program calls plus the fastest traced pass
        indices = [*load_spans, *ranges[k]]
        layers = tracing.layer_metrics(tracer.spans, indices)
        layers["trace.wall_s"] = traced_load_s + sum(traced[k][0])
        layers["trace.untraced_wall_s"] = load_s + min(out["pass_walls"])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
        layers["pass.cpu_s"] = cpu
        out["layers"] = layers
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "seed": args.seed, "layers": layers,
                           "spans": [[i, *tracer.spans[i][:4]] for i in indices]}, fh)

    out.update(stats)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
