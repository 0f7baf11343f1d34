"""One workload in one fresh process: set up, run a closed loop, report.

Started by ``run.py`` with the program's ``src`` on ``PYTHONPATH`` and the
BLAS thread count fixed in the environment.  ``--t0`` is the parent's
``time.monotonic()`` just before it started this process, so ``setup_s``
counts interpreter start, the import of ``ovalbounds`` and the generation
and writing of the inputs.  With ``--setup-only`` the process stops there.
The last line of standard output is one JSON object.

Times are reported in reference seconds (see :mod:`calibration`); the
raw wall-time figures are printed on their own line for reference.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import ovalbounds  # noqa: F401  (timed as part of set-up)
import ovalbounds.cli  # noqa: F401

import calibration
import checks
import workloads


def _parse():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args()


class Outcome:
    """Attempted / failed counts and latencies of completed operations."""

    def __init__(self, clock):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.latencies = []
        self.wall = []

    def run(self, item, run, check, call=None):
        """One operation: time ``run`` (through ``call`` when traced), then
        check its output outside the timed interval."""
        self.attempted += 1
        mark = self.clock.start()
        try:
            out = call(run, item) if call else run(item)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        wall, latency = self.clock.stop(mark)
        try:
            check(item, out)
        except checks.CheckFailed as exc:
            self.failed += 1
            self.wrong += 1
            print(f"check failed ({item.family}, n={item.n}): {exc}", file=sys.stderr)
            return None
        self.latencies.append(latency)
        self.wall.append(wall)
        return latency


def closed_loop(items, seconds, one_round):
    """Run whole rounds over ``items``; start another round only while it is
    expected to end within ``seconds`` of the first, and always run one."""
    start = time.perf_counter()
    rounds = 0
    while True:
        t = time.perf_counter()
        one_round(rounds)
        rounds += 1
        now = time.perf_counter()
        if now - start + (now - t) > seconds:
            return rounds


def tail_line(latencies):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(latencies)
    if n < 40:
        return None
    best = max(q for q in (50, 75, 90, 95, 99, 99.9) if n * (1 - q / 100) >= 10)
    value = float(np.percentile(latencies, best))
    return f"tail: p{best:g} latency {value:.6g} s over {n} operations ({int(n * (1 - best / 100))} beyond)"


def main():
    args = _parse()
    make_items, run, check = workloads.WORKLOADS[args.workload]
    items = make_items(np.random.default_rng(args.seed), args.workdir)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # Warm-up: one operation on the smallest input, untimed and unchecked,
    # so lazy imports and first-call costs stay out of the loop.
    try:
        run(min(items, key=lambda it: it.n))
    except Exception:
        pass

    clock = calibration.Calibration(periodic=not args.trace)
    outcome = Outcome(clock)
    if not args.trace:
        closed_loop(items, args.seconds, lambda r: [outcome.run(it, run, check) for it in items])
        lat = outcome.latencies
        busy = sum(lat)
        metrics = {
            "setup_s": (setup_s, "s"),  # wall seconds; run.py converts
            "ops_per_s": (len(lat) / busy if busy else 0.0, "1/s"),
            "op_latency_p50_s": (statistics.median(lat) if lat else 0.0, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        if lat:
            print(
                f"wall time: {len(lat) / sum(outcome.wall):.6g} ops/s, "
                f"p50 latency {statistics.median(outcome.wall):.6g} s"
            )
        line = tail_line(lat)
        if line:
            print(line)
    else:
        import tracer

        tr = tracer.Tracer()
        plain = Outcome(clock)
        scales = {}  # op id -> reference seconds per wall second

        def traced_round(r):
            # alternate which copy goes first so neither always runs warm
            for it in items:
                def with_trace():
                    op = tr.ops
                    if outcome.run(it, run, check, tr.run_op) is not None:
                        scales[op] = outcome.latencies[-1] / outcome.wall[-1]

                pair = [with_trace, lambda: plain.run(it, run, check)]
                for go in pair if r % 2 == 0 else pair[::-1]:
                    go()

        closed_loop(items, args.seconds, traced_round)
        traced_s, untraced_s = sum(outcome.latencies), sum(plain.latencies)
        per_op = tr.metrics(scales)
        per_op["trace.overhead_s"] = (traced_s - untraced_s) / max(len(outcome.latencies), 1)
        per_op["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s if untraced_s else 0.0
        # every per-layer metric is printed; layers never called read 0
        with open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json"), encoding="utf-8") as fh:
            layers = json.load(fh)["per_layer"]
        metrics = {m["name"]: (per_op.get(m["name"], 0.0), m["unit"]) for m in layers}
        spans = os.path.join(args.workdir, "spans.tsv")
        tr.write(spans)
        print(f"spans: {len(tr.spans)} written to {spans}")
        print(
            f"tracing overhead: {metrics['trace.overhead_pct'][0]:.2f} % ({traced_s:.4f} s traced vs "
            f"{untraced_s:.4f} s untraced over {len(outcome.latencies)} operations each)"
        )
        outcome.attempted += plain.attempted
        outcome.failed += plain.failed
        outcome.wrong += plain.wrong

    clock.close()
    result = {
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
