"""Self-test of the benchmark: its checks catch real errors, and the
comparison verdicts follow their rules.

    python3 perfbench/selftest.py

Each mutation below replaces one program function for the length of one
case and must turn the operation into a failed one; the unmutated
operations must pass.  Exits 0 when every case behaves as expected.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import ovalbounds as ob  # noqa: E402
import ovalbounds.overdamped as od  # noqa: E402

import checks  # noqa: E402
import compare  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from calibration import Calibration  # noqa: E402
from worker import Outcome  # noqa: E402


@contextlib.contextmanager
def patched(owner, attr, fn):
    original = getattr(owner, attr)
    setattr(owner, attr, fn(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def zero_extensions(union):
    """The same union with every extension (radius, r, q, bound) at zero."""
    fields = ("radius", "r", "q", "bound")
    prims = tuple(
        dataclasses.replace(p, **{f: 0.0 for f in fields if hasattr(p, f)}) for p in union.primitives
    )
    return dataclasses.replace(union, primitives=prims)


def failed(workload, items, patch=contextlib.nullcontext()):
    _, run, check = workloads.WORKLOADS[workload]
    outcome = Outcome(Calibration(periodic=False))
    with patch:
        for item in items:
            outcome.run(item, run, check)
    return outcome.failed


def main():
    rng = np.random.default_rng(2024)
    workdir = os.path.join(".bench_work", "selftest")
    os.makedirs(workdir, exist_ok=True)
    sweep = [workloads.Item("overdamped", *inputs.overdamped(4, rng))]
    modal = workloads.Item("modal_overdamped", *inputs.modal_overdamped(10, rng), epsilon=0.05)
    over = [workloads.write_item(modal, workdir, 0)]

    zero = patched(ob, "build_regions", lambda f: lambda *a: zero_extensions(f(*a)))
    moved_interval = patched(
        od,
        "exact_definiteness_interval",
        lambda f: lambda *a: od.DefinitenessInterval(f(*a).lo + 1e-3, f(*a).hi),
    )
    damping_up = patched(ob, "min_damping_d", lambda f: lambda s: (f(s)[0] * (1 + 1e-3), f(s)[1]))
    damping_down = patched(ob, "min_damping_d", lambda f: lambda s: (f(s)[0] * (1 - 1e-3), f(s)[1]))

    # the independent inclusion check on its own, without the program's audit
    form = ob.to_modal(ob.load_system(over[0].path))
    split = ob.modal_split(form)
    union = ob.build_regions(form, split, ob.mode_foci(form, split), ob.Method.UNDAMPED_OVAL_NORM)
    ref = checks.reference_eigenvalues(modal.M, modal.C, modal.K)
    try:
        checks.check_union_contains("zero", zero_extensions(union).primitives, ref)
        caught_alone = False
    except checks.CheckFailed:
        caught_alone = True

    cases = [
        ("sweep_small unmutated passes", failed("sweep_small", sweep) == 0),
        ("overdamped_mid unmutated passes", failed("overdamped_mid", over) == 0),
        ("union with zero extensions fails", failed("sweep_small", sweep, zero) == 1),
        ("inclusion check alone catches zero extensions", caught_alone),
        ("interval endpoint moved by 1e-3 fails", failed("overdamped_mid", over, moved_interval) == 1),
        ("min_damping_d above its bracket fails", failed("overdamped_mid", over, damping_up) == 1),
        ("min_damping_d below its bracket fails", failed("overdamped_mid", over, damping_down) == 1),
    ]

    base = [1.0 + 0.01 * i for i in range(10)]
    for name, parent, change, want in (
        ("clear gain is improved", base, [b - 0.2 for b in base], "improved"),
        ("same runs are unchanged", base, list(base), "unchanged"),
        ("30 % slower is worse", base, [1.3 * b for b in base], "worse"),
        ("noisy parent is unresolved", [1.0, 2.0] * 5, [1.1, 1.9] * 5, "unresolved"),
        ("a gain over five pairs is unresolved", base[:5], [b - 0.2 for b in base[:5]], "unresolved"),
    ):
        got = compare.verdict(parent, change, "lower", 0.15)[0]
        cases.append((f"verdict: {name} ({got})", got == want))

    for name, ok in cases:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    bad = sum(not ok for _, ok in cases)
    print(f"{len(cases) - bad}/{len(cases)} cases behave as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
