"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs in a fresh
worker process (``worker.py``) with ``src`` on ``PYTHONPATH`` and BLAS
fixed at ``BLAS_THREADS`` threads.  With ``--trace 0`` the end-to-end
metrics are printed; ``setup_s`` is the median over ``SETUP_SAMPLES``
fresh processes, the main worker included, scaled by baseline processes
(``BASELINE``) timed in between.  With ``--trace 1`` the worker
wraps the program's modules and prints the per-layer metrics.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: BLAS / OpenMP threads per worker.  One thread keeps the timings steady on
#: a small shared machine; the hot spots are Python loops, not BLAS.
BLAS_THREADS = 1

#: Fresh worker processes whose set-up time is measured (the measuring one
#: included), interleaved with as many baseline processes.
SETUP_SAMPLES = 3

#: The baseline: a fresh interpreter importing the third-party modules that
#: the program and the benchmark import.  Set-up wall time, which is mostly
#: such imports, follows the machine's drifting file and memory speed: over
#: ten sweep_small runs its median ranged 0.80-1.36 s, and 0.82-1.07 once
#: divided by the baselines timed in between.
BASELINE = (
    "import numpy, scipy.io, scipy.linalg, scipy.ndimage, scipy.optimize, "
    "scipy.sparse, xml.etree.ElementTree"
)

#: Baseline wall time that set-up is scaled to: about its time on the
#: reference machine, so set-up reads close to wall seconds there.
BASELINE_REFERENCE_S = 1.0

#: A worker that has not ended by then is killed and the run fails.
WORKER_TIMEOUT_S = 170.0

with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as _fh:
    WORKLOADS = [w["name"] for w in json.load(_fh)["workloads"]]


def _env():
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _worker(args, workdir, extra, deadline):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir,
    ] + extra
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, env=_env(), text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"error: {args.workload} worker did not end in time")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {args.workload} worker exited {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def _baseline(deadline):
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", BASELINE], env=_env(), check=True,
                   timeout=max(deadline - t0, 1.0))
    return time.monotonic() - t0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join("src", "ovalbounds", "__init__.py")):
        print("error: run from the root of an ovalbounds checkout (src/ovalbounds missing)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    workdir = os.path.join(".bench_work", f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setups, baselines = [], []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                baselines.append(_baseline(deadline))
                setups.append(_worker(args, workdir, ["--setup-only"], deadline)[1]["setup_s"])
            baselines.append(_baseline(deadline))
        lines, result = _worker(args, workdir, [], deadline)
    finally:
        if not args.trace:
            shutil.rmtree(workdir, ignore_errors=True)
    print(f"blas_threads: {BLAS_THREADS} (OMP/OPENBLAS/MKL_NUM_THREADS), cpus: {os.cpu_count()}")
    for line in lines:
        print(line)
    if not args.trace:
        setup = result["metrics"]["setup_s"]
        setups.append(setup["value"])
        print("set-up wall s: " + " ".join(f"{s:.4f}" for s in setups)
              + "; baseline wall s: " + " ".join(f"{s:.4f}" for s in baselines))
        setup["value"] = statistics.median(setups) * BASELINE_REFERENCE_S / statistics.median(baselines)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
