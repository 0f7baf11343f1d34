"""Command-line surface: analyses, reports, SVG figures, system generation.

Exit codes: 0 success, 2 input validation failure, 3 inclusion violation in
``verify`` for a rigorous method, 4 numerical failure (an eigensolve or the
definiteness interval search did not converge).  Reports are line-oriented
``key: value`` text; ``--json`` prints the same fields as a strict JSON
document, a non-finite number as the string the text report prints.
Text reports and system files use 17 significant digits, JSON reports the
shortest decimal of each double, so files round-trip bit-exactly.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import overdamped as od
from .errors import (
    CriticalModePresent,
    EpsilonTooLarge,
    InputError,
    NoConvergence,
    OvalBoundsError,
    SingularFit,
)
from .matdense import DampedSystem, Spectrum, SymMatrix, load_system, save_system
from .matdense import _format_float as _f17
from .modal import (
    CLUSTER_RELTOL,
    ModalForm,
    cluster_frequencies,
    is_modally_damped,
    modal_split,
    mode_foci,
    proportional_fit,
    to_modal,
)
from .regions import (
    Box,
    Disk,
    Method,
    QuasiOval,
    RegionUnion,
    boundary_polylines,
    build_regions,
)
from .verify import check_inclusion, true_spectrum

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


def _f6(x) -> str:
    return format(float(x), ".6g")


# ---------------------------------------------------------------------------
# Random system generation


def random_system(
    n: int, seed: int, gamma: float = 1.0, overdamped: bool = False
) -> DampedSystem:
    """Reproducible random system: M, K are shifted Gram matrices, C a scaled
    Gram matrix; with ``overdamped`` the damping is doubled until the exact
    definiteness test passes."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    M = SymMatrix(A @ A.T + n * np.eye(n))
    B = rng.standard_normal((n, n))
    K = SymMatrix(B @ B.T + n * np.eye(n))
    G = rng.standard_normal((n, n))
    with np.errstate(over="ignore"):
        C = gamma * (G @ G.T)
    if not np.isfinite(C).all():
        raise InputError(f"damping scale gamma = {gamma!r} overflows C")
    sys_ = DampedSystem(M, SymMatrix(C), K)
    if overdamped:
        for _ in range(60):
            if not od.exact_definiteness_interval(sys_).empty:
                return sys_
            C = 2.0 * C
            sys_ = DampedSystem(M, SymMatrix(C), K)
        raise InputError("could not reach an overdamped system by scaling C")
    return sys_


# ---------------------------------------------------------------------------
# SVG emission


def _svg_path(loop) -> str:
    """Path data of a closed polyline (its last vertex repeats its first),
    y negated, in one %-format: "%.6g" % x equals ``_f6(x)``."""
    xy = loop[:-1] * (1.0, -1.0)
    return ("M %.6g %.6g " + "L %.6g %.6g " * (len(xy) - 1) + "Z") % tuple(xy.ravel().tolist())


def emit_svg(
    unions: list[RegionUnion],
    spectrum: Spectrum | None,
    path,
    resolution: int = 512,
) -> None:
    """Write an SVG 1.1 figure of the unions with eigenvalue markers.

    One path element per boundary polyline, small dots for degenerate
    primitives, crosses at eigenvalues, axes with Re/Im labels; the viewBox
    is the joint bounding box padded by 10%, and one whose width or height
    is not finite raises InputError before anything is written.  Output
    bytes depend only on the inputs.
    """
    with np.errstate(over="ignore"):  # regions too large for floats: checked below
        boxes = [u.bounding_box() for u in unions]
    if spectrum is not None:
        boxes += [Box(v.real, v.real, v.imag, v.imag) for v in spectrum.values.tolist()]
    box = functools.reduce(Box.merge, boxes) if boxes else Box(-1.0, 1.0, -1.0, 1.0)
    box = box.padded(0.10)
    w = box.xmax - box.xmin
    h = box.ymax - box.ymin
    if not (np.isfinite(w) and np.isfinite(h)):
        raise InputError("the figure's bounding box is not finite: its regions are too large")
    stroke = 0.0025 * max(w, h)
    font = 0.04 * max(w, h)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_f6(box.xmin)} {_f6(-box.ymax)} {_f6(w)} {_f6(h)}" '
        f'width="720" height="{_f6(720 * h / w)}">',
        f'<rect x="{_f6(box.xmin)}" y="{_f6(-box.ymax)}" width="{_f6(w)}" '
        f'height="{_f6(h)}" fill="white"/>',
    ]
    axis_style = f'stroke="#999999" stroke-width="{_f6(stroke)}"'
    if box.xmin <= 0.0 <= box.xmax:
        lines.append(
            f'<line x1="0" y1="{_f6(-box.ymax)}" x2="0" y2="{_f6(-box.ymin)}" {axis_style}/>'
        )
        lines.append(
            f'<text x="{_f6(0.01 * w)}" y="{_f6(-box.ymax + 1.2 * font)}" '
            f'font-size="{_f6(font)}" fill="#555555">Im</text>'
        )
    if box.ymin <= 0.0 <= box.ymax:
        lines.append(
            f'<line x1="{_f6(box.xmin)}" y1="0" x2="{_f6(box.xmax)}" y2="0" {axis_style}/>'
        )
        lines.append(
            f'<text x="{_f6(box.xmax - 2.0 * font)}" y="{_f6(-0.01 * h - 0.3 * font)}" '
            f'font-size="{_f6(font)}" fill="#555555">Re</text>'
        )
    for ui, u in enumerate(unions):
        color = PALETTE[ui % len(PALETTE)]
        style = f'fill="none" stroke="{color}" stroke-width="{_f6(stroke)}"'
        degenerate = u.primitives.degenerate
        dots = iter(u.primitives.foci()[degenerate].tolist())
        # a degenerate primitive is drawn as dots at its foci and has no loops
        for dot, loops in zip(degenerate.tolist(), boundary_polylines(u, resolution)):
            if dot:
                for focus in next(dots):
                    lines.append(
                        f'<circle cx="{_f6(focus.real)}" cy="{_f6(-focus.imag)}" '
                        f'r="{_f6(1.2 * stroke)}" fill="{color}"/>'
                    )
            for loop in loops:
                lines.append(f'<path d="{_svg_path(loop)}" {style}/>')
    if spectrum is not None:
        arm = 0.012 * max(w, h)
        style = f'stroke="black" stroke-width="{_f6(stroke)}"'
        for lam in spectrum.values:
            x, y = lam.real, -lam.imag
            lines.append(
                f'<path d="M {_f6(x - arm)} {_f6(y - arm)} L {_f6(x + arm)} {_f6(y + arm)} '
                f'M {_f6(x - arm)} {_f6(y + arm)} L {_f6(x + arm)} {_f6(y - arm)}" {style}/>'
            )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Reports


def _render_text(report: dict) -> str:
    out = []
    for key, value in report.items():
        if isinstance(value, float):
            out.append(f"{key}: {_f17(value)}")
        elif isinstance(value, (list, tuple)):
            out.append(
                f"{key}: "
                + " ".join(_f17(v) if isinstance(v, float) else str(v) for v in value)
            )
        else:
            out.append(f"{key}: {value}")
    return "\n".join(out)


def _json_scalar(value) -> str:
    """One report scalar in JSON, by the json module's rules, except that a
    non-finite float becomes the string the text report prints: strict JSON
    has no NaN or infinity."""
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return encode_basestring_ascii(_f17(value))
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"a report value of type {type(value).__name__} has no JSON form")


def _render_json(report: dict) -> str:
    """The report as a strict JSON document: the bytes that ``json.dumps``
    writes for it with ``indent=2``, each non-finite float being the string
    the text report prints.  A value is a scalar or a list or tuple of
    scalars.  Written here because the json module encodes in pure Python
    whenever it indents."""
    lines = []
    for key, value in report.items():
        if not isinstance(value, (list, tuple)):
            text = _json_scalar(value)
        elif value:
            text = "[\n    " + ",\n    ".join(map(_json_scalar, value)) + "\n  ]"
        else:
            text = "[]"
        lines.append(f"  {encode_basestring_ascii(key)}: {text}")
    return "{\n" + ",\n".join(lines) + "\n}"


def _emit(report: dict, as_json: bool) -> None:
    print(_render_json(report) if as_json else _render_text(report))


def _analysis(path):
    """The system in ``path``, its modal form, diagonal split and foci."""
    sys_ = load_system(path)
    form = to_modal(sys_)
    split = modal_split(form, "diagonal")
    return sys_, form, split, mode_foci(form, split)


def _unions(args, form, split, foci, report=None):
    """Yield the unions of ``args.methods`` with ``--extension`` applied.  A
    method refused for a critical mode is recorded in ``report`` as skipped,
    in method order; without a report the refusal propagates."""
    extension = getattr(args, "extension", None)
    for name in args.methods:
        try:
            union = build_regions(form, split, foci, Method(name))
        except CriticalModePresent as exc:
            if report is None:
                raise
            report[f"{name}.skipped"] = str(exc)
            continue
        if extension is not None:
            if union.method is Method.BRAUER:
                raise InputError("--extension does not apply to BRAUER double ovals")
            extended = union.primitives.extended(extension)
            union = RegionUnion(union.method, extended, union.mode_labels)
        yield union


def _cmd_analyze(args) -> int:
    sys_, form, split, foci = _analysis(args.input)
    report: dict = {"n": sys_.order}
    report["omega"] = [float(w) for w in form.omega]
    report["modally_damped"] = bool(is_modally_damped(form, args.rtol))
    report["damping_norm"] = form.damping_norm
    report["dprime_norm_diagonal"] = split.dprime_norm
    maximal = modal_split(form, "maximal")
    report["dprime_norm_maximal"] = maximal.dprime_norm
    report["frequency_clusters"] = [
        f"{lo}:{hi}" for lo, hi in cluster_frequencies(form.omega, CLUSTER_RELTOL)
    ]
    try:
        fit = proportional_fit(form)
        report["proportional_alpha"] = fit.alpha
        report["proportional_beta"] = fit.beta
        report["proportional_residual_norm"] = fit.residual_norm
    except SingularFit as exc:
        report["proportional_fit"] = f"singular ({exc})"
    for j in range(sys_.order):
        report[f"mode{j}.d"] = float(split.diag[j])
        report[f"mode{j}.theta"] = float(foci.theta[j])
        report[f"mode{j}.critical"] = bool(foci.critical[j])
        if not foci.critical[j]:
            report[f"mode{j}.kappa"] = float(foci.kappa[j])
        report[f"mode{j}.lambda_plus"] = str(complex(foci.lambda_plus[j]))
        report[f"mode{j}.lambda_minus"] = str(complex(foci.lambda_minus[j]))
    _emit(report, args.json)
    return 0


def _cmd_regions(args) -> int:
    sys_, form, split, foci = _analysis(args.input)
    report: dict = {"n": sys_.order}
    for union in _unions(args, form, split, foci, report):
        name = union.method.value
        report[f"{name}.primitives"] = len(union.primitives)
        report[f"{name}.rigorous"] = union.rigorous
        for k, p in enumerate(union.primitives):
            if isinstance(p, Disk):
                desc = f"disk center={complex(p.center)} radius={_f17(p.radius)}"
            elif isinstance(p, QuasiOval):
                desc = (
                    f"oval foci=({complex(p.focus_plus)}, {complex(p.focus_minus)}) "
                    f"r={_f17(p.r)} q={_f17(p.q)}"
                )
            else:
                desc = f"double-oval foci={tuple(map(complex, p.foci))} bound={_f17(p.bound)}"
            report[f"{name}.primitive{k}"] = desc
    _emit(report, args.json)
    return 0


def _cmd_overdamped(args) -> int:
    sys_, form, split, _ = _analysis(args.input)
    interval = od.exact_definiteness_interval(sys_, args.rtol)
    report: dict = {"n": sys_.order}
    if interval.empty:
        report["exact_interval"] = "empty"
    else:
        report["exact_interval_lo"] = interval.lo
        report["exact_interval_hi"] = interval.hi
    for variant in ("norm", "gershgorin"):
        cert = od.sufficient_certificate(form, split, variant)
        if isinstance(cert, od.CertificateRefusal):
            where = "" if cert.mode is None else f" at mode {cert.mode}"
            report[f"certificate_{variant}"] = f"refused: {cert.reason}{where}"
            continue
        report[f"certificate_{variant}"] = "success"
        report[f"certificate_{variant}_p_minus"] = cert.p_minus
        report[f"certificate_{variant}_p_plus"] = cert.p_plus
        for group in ("lower", "upper"):
            for j, pair in enumerate(getattr(cert.bounds, group)):
                report[f"intervals_{variant}.mode{j}.{group}"] = list(pair)
    if args.epsilon is not None:
        try:
            env = od.eta_envelope(form, args.epsilon)
            report["envelope_epsilon"] = env.epsilon
            for part in ("minus_lower", "minus_upper", "plus_lower", "plus_upper"):
                report[f"envelope_{part}"] = [float(v) for v in getattr(env, part)]
        except (EpsilonTooLarge, ValueError) as exc:
            report["envelope"] = f"unavailable: {exc}"
    _emit(report, args.json)
    return 0


def _cmd_plot(args) -> int:
    _, form, split, foci = _analysis(args.input)
    unions = list(_unions(args, form, split, foci))
    emit_svg(unions, true_spectrum(form), args.output, args.resolution)
    print(f"written: {args.output}")
    return 0


def _cmd_verify(args) -> int:
    sys_, form, split, foci = _analysis(args.input)
    spectrum = true_spectrum(form)
    report: dict = {"n": sys_.order, "eigenvalues": [str(complex(v)) for v in spectrum.values]}
    failed = False
    for union in _unions(args, form, split, foci, report):
        name = union.method.value
        audit = check_inclusion(spectrum, union)
        report[f"{name}.all_contained"] = audit.all_contained
        report[f"{name}.min_margin"] = audit.min_margin
        report[f"{name}.worst_eigenvalue"] = audit.worst
        k = audit.assigned[audit.worst]
        report[f"{name}.worst_modes"] = None if k is None else list(union.mode_labels[k])
        if union.rigorous and not audit.all_contained:
            failed = True
    _emit(report, args.json)
    return 3 if failed else 0


def _cmd_gen(args) -> int:
    sys_ = random_system(args.n, args.seed, args.gamma, args.overdamped)
    save_system(sys_, args.output)
    print(f"written: {args.output}")
    return 0


class _Methods(argparse.Action):
    """Repeatable ``--method``: the first use replaces the subcommand's
    default tuple, later uses append to the new list."""

    def __call__(self, parser, namespace, values, option_string=None):
        methods = getattr(namespace, self.dest)
        methods = [] if methods is self.default else methods
        setattr(namespace, self.dest, [*methods, values])


def _value(cast, accepts, wanted: str):
    """Argument type: ``cast(text)`` where ``accepts`` holds for it, else an
    error saying that it must be ``wanted``."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not accepts(value):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text!r}")
        return value

    return parse


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as it
    was, so every ``main`` call sees the same defaults."""
    parser = argparse.ArgumentParser(
        prog="ovalbounds",
        description="Eigenvalue inclusion regions for damped second-order systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    rtol = _value(float, lambda t: 0.0 < t < 1.0, "a relative tolerance in (0, 1)")

    def common(p, methods):
        p.add_argument("--input", required=True, help="system JSON file")
        p.add_argument(
            "--method",
            action=_Methods,
            dest="methods",
            choices=[m.value for m in Method],
            default=tuple(methods),
            help="region method (repeatable)",
        )

    def extension(p):
        p.add_argument(
            "--extension",
            type=_value(float, lambda e: 0.0 <= e < np.inf, "a finite number of at least 0"),
            default=None,
            help="override the disk radius or oval extension (not BRAUER)",
        )

    p = sub.add_parser("analyze", help="modal form, splits, proportional fit")
    p.add_argument("--input", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--rtol", type=rtol, default=1e-8)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("regions", help="build region unions and report them")
    common(p, ["MODAL_OVAL_NORM"])
    p.add_argument("--json", action="store_true", help="machine-readable output")
    extension(p)
    p.set_defaults(func=_cmd_regions)

    p = sub.add_parser("overdamped", help="certificates and interval bounds")
    p.add_argument("--input", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--rtol", type=rtol, default=1e-10)
    p.add_argument(
        "--epsilon",
        type=_value(float, lambda e: 0.0 <= e < 1.0, "a number in [0, 1)"),
        default=None,
        help="also report the relative-perturbation envelope (modally damped systems)",
    )
    p.set_defaults(func=_cmd_overdamped)

    p = sub.add_parser("plot", help="render selected unions to SVG")
    common(p, ["MODAL_OVAL_NORM"])
    extension(p)
    p.add_argument("--output", required=True, help="SVG output path")
    p.add_argument("--resolution", type=int, default=512)
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("verify", help="audit inclusion of the true spectrum")
    common(p, [m.value for m in Method if m is not Method.MODAL_DISK_APPROX])
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="write a random test system")
    p.add_argument("--output", required=True)
    p.add_argument("--n", type=_value(int, lambda n: n >= 1, "an integer of at least 1"), default=4)
    p.add_argument(
        "--seed", type=_value(int, lambda s: s >= 0, "an integer of at least 0"), default=0
    )
    p.add_argument(
        "--gamma",
        type=_value(float, lambda g: 0.0 <= g < np.inf, "a finite number of at least 0"),
        default=1.0,
        help="damping scale",
    )
    p.add_argument(
        "--overdamped", action="store_true", help="scale damping until overdamped"
    )
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OvalBoundsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, NoConvergence) else 2


if __name__ == "__main__":
    sys.exit(main())
