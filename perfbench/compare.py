"""Compare two commits on the benchmark's end-to-end metrics.

    # alternate runs of two checkouts, same seed per pair, this benchmark's code
    python3 perfbench/compare.py run --parent DIR --change DIR --pairs 10 --out pairs.jsonl
    # verdicts from the collected runs
    python3 perfbench/compare.py report pairs.jsonl

``run`` uses the benchmark code next to this file for both sides, started
with the checkout as working directory, so both commits are measured with
identical benchmark code and settings; within each pair the side that runs
first alternates.  ``report`` prints, for each workload and end-to-end
metric, each side's median and quartiles, the pairs the change won (ties
count for neither), a verdict, and the attempted and failed operations.

Verdicts:

- improved: at least ten pairs, the change wins at least 9 in 10 of them,
  and the medians differ in the better direction by more than the parent's
  interquartile distance;
- worse: the change's median is worse than the parent's by more than the
  metric's bound (a share of the parent's median);
- unresolved: fewer than ten pairs show what would be a gain, or the
  parent's own interquartile distance, as a share of its median, is wider
  than the bound and not every change run reads better than every parent
  run;
- unchanged: otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(parent, change, better, bound):
    """Verdict for one metric from runs paired by index."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = min(len(parent), len(change))
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    gain = sign * (cm - pm)
    spread = (p3 - p1) / abs(pm) if pm else float("inf")
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins >= 0.9 * pairs and gain > p3 - p1:
        return ("improved" if pairs >= 10 else "unresolved"), wins, pairs
    if spread > bound and not all_better:
        return "unresolved", wins, pairs
    if -gain > bound * abs(pm):
        return "worse", wins, pairs
    return "unchanged", wins, pairs


def cmd_run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    sides = [("parent", args.parent), ("change", args.change)]
    with open(args.out, "a", encoding="utf-8") as out:
        for i in range(args.pairs):
            seed = args.first_seed + i
            for workload in names:
                for side, root in sides if i % 2 == 0 else sides[::-1]:
                    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
                    lines = proc.stdout.strip().splitlines()
                    if proc.returncode != 0 or not lines:
                        print(f"{side} {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                              file=sys.stderr)
                        return 1
                    rec = {"side": side, "pair": i, "seed": seed, "workload": workload,
                           "result": json.loads(lines[-1])}
                    out.write(json.dumps(rec) + "\n")
                    out.flush()
                    print(f"pair {i} {workload} {side}: done", file=sys.stderr)
    return 0


def report(records, spec):
    """Report lines for collected run records."""
    lines = []
    for w in spec["workloads"]:
        runs = {side: sorted((r for r in records if r["workload"] == w["name"] and r["side"] == side),
                             key=lambda r: r["pair"]) for side in ("parent", "change")}
        if not runs["parent"] or not runs["change"]:
            continue
        common = sorted({r["pair"] for r in runs["parent"]} & {r["pair"] for r in runs["change"]})
        for side in runs:
            runs[side] = [r for r in runs[side] if r["pair"] in common]
        lines.append(f"== {w['name']} ({len(common)} pairs)")
        for side in ("parent", "change"):
            att = sum(r["result"]["attempted"] for r in runs[side])
            fail = sum(r["result"]["failed"] for r in runs[side])
            lines.append(f"   {side}: attempted {att}, failed {fail}")
        for m in spec["end_to_end"]:
            vals = {side: [r["result"]["metrics"][m["name"]]["value"] for r in runs[side]]
                    for side in runs}
            v, wins, pairs = verdict(vals["parent"], vals["change"], m["better"], m["bound"])
            p1, pm, p3 = quartiles(vals["parent"])
            c1, cm, c3 = quartiles(vals["change"])
            lines.append(
                f"   {m['name']:<18} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
                f"change {cm:.6g} [{c1:.6g}, {c3:.6g}] {m['unit']}  "
                f"wins {wins}/{pairs}  bound {m['bound']:.0%}  -> {v}"
            )
    return lines


def cmd_report(args):
    with open(args.results, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    print("\n".join(report(records, load_spec())))
    return 0


def main():
    p = argparse.ArgumentParser(description="Compare two commits on the benchmark.")
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="alternate runs of two checkouts")
    r.add_argument("--parent", required=True, help="checkout of the parent commit")
    r.add_argument("--change", required=True, help="checkout of the change")
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1, help="seed of the first pair (pick seeds not used while writing the change)")
    r.add_argument("--out", required=True, help="JSON-lines file to append run records to")
    r.set_defaults(func=cmd_run)
    q = sub.add_parser("report", help="verdicts from collected runs")
    q.add_argument("results")
    q.set_defaults(func=cmd_report)
    args = p.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
