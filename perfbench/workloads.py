"""The four workloads: their inputs, one operation each, and its checks.

An operation is one system taken through the workload's whole pipeline.
``make_items`` generates the inputs from the seed (and writes the system
files the CLI reads); ``run`` performs one operation through the program's
public API or its in-process CLI and returns its outputs; ``check`` tests
those outputs with :mod:`checks`.  The program is always reached through
module attributes looked up at call time, so the tracer's wrappers see
every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

import checks
import inputs

import ovalbounds as ob
import ovalbounds.cli


@dataclass
class Item:
    """One generated system: its matrices, and its file for CLI workloads."""

    family: str
    M: np.ndarray
    C: np.ndarray
    K: np.ndarray
    path: str | None = None
    epsilon: float | None = None

    @property
    def n(self):
        return self.M.shape[0]


def _cli(argv):
    """Run the CLI in process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ob.cli.main(argv)
    return code, out.getvalue()


def _system(item):
    return ob.DampedSystem(ob.SymMatrix(item.M), ob.SymMatrix(item.C), ob.SymMatrix(item.K))


def write_item(item, workdir, index):
    item.path = os.path.join(workdir, f"system{index:02d}_n{item.n}.json")
    inputs.write_system(item.path, item.M, item.C, item.K)
    return item


# ---------------------------------------------------------------------------
# sweep_small: library calls on small systems of four families


SWEEP_ORDERS = range(2, 13)


def sweep_items(rng, workdir):
    return [
        Item(fam, *gen(n, rng))
        for n in SWEEP_ORDERS
        for fam, gen in inputs.SWEEP_FAMILIES.items()
    ]


def sweep_run(item):
    sys_ = _system(item)
    form = ob.to_modal(sys_)
    split = ob.modal_split(form)
    foci = ob.mode_foci(form, split)
    split_max = ob.modal_split(form, "maximal")
    foci_max = ob.mode_foci(form, split_max)
    spec = ob.true_spectrum(form)
    unions, audits = {}, {}
    for method in sorted(ob.RIGOROUS_METHODS, key=lambda m: m.value):
        if method is ob.Method.MODIFIED_OVAL:
            union = ob.build_regions(form, split_max, foci_max, method)
        elif method.value.startswith("MODAL_DISK") and foci.any_critical:
            continue
        else:
            union = ob.build_regions(form, split, foci, method)
        unions[method.value] = union
        audits[method.value] = ob.check_inclusion(spec, union)
    certs, bounds = {}, {}
    if item.family == "overdamped":
        for variant in ("norm", "gershgorin"):
            certs[variant] = ob.sufficient_certificate(form, split, variant)
            if not isinstance(certs[variant], ob.CertificateRefusal):
                bounds[variant] = ob.eigenvalue_intervals(form, split, variant)
    return spec, foci, unions, audits, certs, bounds


def sweep_check(item, out):
    spec, foci, unions, audits, certs, bounds = out
    ref = checks.reference_eigenvalues(item.M, item.C, item.K)
    checks.match_eigenvalues(spec.values, ref)
    expected = len(ob.RIGOROUS_METHODS) - (2 if foci.any_critical else 0)
    checks.require(len(unions) == expected, f"{len(unions)} unions built, expected {expected}")
    for name, union in unions.items():
        checks.require(audits[name].all_contained, f"{name}: program audit reports a violation")
        checks.check_union_contains(name, union.primitives, ref)
    if item.family == "overdamped":
        lower, upper = checks.split_groups(ref)
        for variant, cert in certs.items():
            if variant in bounds:
                checks.check_certificate(variant, cert.p_minus, cert.p_plus, lower, upper)
                b = bounds[variant]
                checks.check_interval_bounds(variant, b.lower, b.upper, lower, upper)


# ---------------------------------------------------------------------------
# verify_large: the CLI verify command at the ROADMAP orders


VERIFY_ORDERS = (50, 100, 200)


def verify_items(rng, workdir):
    return [write_item(Item("general", *inputs.general(n, rng)), workdir, i) for i, n in enumerate(VERIFY_ORDERS)]


def verify_run(item):
    return _cli(["verify", "--input", item.path, "--json"])


def verify_check(item, out):
    code, text = out
    checks.require(code == 0, f"verify exited {code}")
    report = json.loads(text)
    ref = checks.reference_eigenvalues(item.M, item.C, item.K)
    checks.match_eigenvalues([complex(v) for v in report["eigenvalues"]], ref)
    form = ob.to_modal(_system(item))
    split = ob.modal_split(form)
    foci = ob.mode_foci(form, split)
    for method in sorted(ob.RIGOROUS_METHODS, key=lambda m: m.value):
        name = method.value
        checks.require(report.get(f"{name}.all_contained") is True, f"{name}: not reported contained")
        union = ob.build_regions(form, split, foci, method)
        checks.check_union_contains(name, union.primitives, ref)


# ---------------------------------------------------------------------------
# overdamped_mid: the CLI overdamped command and min_damping_d


OVERDAMPED_ORDERS = (10, 30, 50)


def overdamped_items(rng, workdir):
    items = []
    for n in OVERDAMPED_ORDERS:
        items.append(Item("overdamped", *inputs.overdamped(n, rng)))
        modal = Item("modal_overdamped", *inputs.modal_overdamped(n, rng))
        modal.epsilon = float(rng.uniform(0.01, 0.08))
        items.append(modal)
    return [write_item(item, workdir, i) for i, item in enumerate(items)]


def overdamped_run(item):
    argv = ["overdamped", "--input", item.path, "--json"]
    if item.epsilon is not None:
        argv += ["--epsilon", repr(item.epsilon)]
    code, text = _cli(argv)
    damping = ob.min_damping_d(ob.load_system(item.path))
    return code, text, damping


def overdamped_check(item, out):
    code, text, (d, flag) = out
    checks.require(code == 0, f"overdamped exited {code}")
    report = json.loads(text)
    M, C, K = item.M, item.C, item.K
    lower, upper = checks.split_groups(checks.reference_eigenvalues(M, C, K))
    checks.require("exact_interval_lo" in report, "exact definiteness interval reported empty")
    checks.check_definiteness_interval(
        report["exact_interval_lo"], report["exact_interval_hi"], M, C, K, lower, upper
    )
    for variant in ("norm", "gershgorin"):
        status = report[f"certificate_{variant}"]
        if status != "success":
            checks.require(status.startswith("refused: "), f"certificate_{variant}: {status!r}")
            continue
        checks.check_certificate(
            variant,
            report[f"certificate_{variant}_p_minus"],
            report[f"certificate_{variant}_p_plus"],
            lower,
            upper,
        )
        ivs = {
            side: [report[f"intervals_{variant}.mode{j}.{side}"] for j in range(item.n)]
            for side in ("lower", "upper")
        }
        checks.check_interval_bounds(variant, ivs["lower"], ivs["upper"], lower, upper)
    if item.epsilon is not None:
        checks.require("envelope_minus_lower" in report, f"no envelope: {report.get('envelope')}")
        env = {k: report[f"envelope_{k}"] for k in ("minus_lower", "minus_upper", "plus_lower", "plus_upper")}
        checks.check_envelope(env, item.epsilon, M, C, K)
    checks.check_min_damping(d, flag, M, C, K, overdamped=True)


# ---------------------------------------------------------------------------
# figures_small: the CLI plot command, component analysis, region comparison


FIGURE_METHODS = ("MODAL_OVAL_NORM", "BRAUER", "MODAL_DISK_ROWSUM")
FIGURE_RESOLUTION = 512
FIGURE_ORDERS = range(3, 13)


def figures_items(rng, workdir):
    """Orders 3-12, alternately clustered and general with gamma = 1.  A
    fixed gamma keeps the plot's cost, which follows the boundary lengths,
    within about 8 % per system; log-uniform gamma spreads it by 15 %."""
    items = []
    for i, n in enumerate(FIGURE_ORDERS):
        if n % 2:
            item = Item("general", *inputs.general(n, rng, gamma=1.0))
        else:
            item = Item("clustered", *inputs.clustered(n, rng))
        items.append(write_item(item, workdir, i))
    return items


def figures_run(item):
    svg = item.path[: -len(".json")] + ".svg"
    argv = ["plot", "--input", item.path, "--output", svg, "--resolution", str(FIGURE_RESOLUTION)]
    for m in FIGURE_METHODS:
        argv += ["--method", m]
    code, _ = _cli(argv)
    form = ob.to_modal(ob.load_system(item.path))
    split = ob.modal_split(form)
    foci = ob.mode_foci(form, split)
    ovals = ob.build_regions(form, split, foci, ob.Method.MODAL_OVAL_NORM)
    analysis = ob.component_analysis(ovals, FIGURE_RESOLUTION)
    comparison = ob.compare_regions(
        ob.build_regions(form, split, foci, ob.Method.BRAUER),
        ob.build_regions(form, split, foci, ob.Method.MODAL_OVAL_ROWSUM),
    )
    return code, svg, (form, split, foci), ovals, analysis, comparison


def figures_check(item, out):
    code, svg, (form, split, foci), ovals, analysis, comparison = out
    checks.require(code == 0, f"plot exited {code}")
    ref = checks.reference_eigenvalues(item.M, item.C, item.K)
    crosses, paths = checks.parse_svg(svg)
    checks.check_crosses(crosses, ref)
    unions = [ob.build_regions(form, split, foci, m).primitives for m in FIGURE_METHODS]
    checks.check_boundaries(paths, unions, list(ob.cli.PALETTE), FIGURE_RESOLUTION)
    checks.check_components(analysis, ovals.primitives, ref)
    checks.require(
        comparison.subset_violations == 0,
        f"{comparison.subset_violations} BRAUER samples outside MODAL_OVAL_ROWSUM",
    )


WORKLOADS = {
    "sweep_small": (sweep_items, sweep_run, sweep_check),
    "verify_large": (verify_items, verify_run, verify_check),
    "overdamped_mid": (overdamped_items, overdamped_run, overdamped_check),
    "figures_small": (figures_items, figures_run, figures_check),
}
