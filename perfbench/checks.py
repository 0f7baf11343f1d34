"""Output checks made apart from the program.

Every check recomputes what it needs from the original ``(M, C, K)``
matrices with numpy / scipy, or tests a property the output must have.  No
code here imports ``ovalbounds``; region primitives are read through their
public fields only (``center``/``radius``, ``focus_plus``/``focus_minus``/
``r``/``q``, ``foci``/``bound``).  A failed check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

import numpy as np
import scipy.linalg
import scipy.optimize

#: Relative distance allowed between a program eigenvalue and its assigned
#: reference eigenvalue, as a share of the spectral radius.  Both sides are
#: backward stable; the two solvers agree to ~1e-13 on these families.
EIG_RTOL = 1e-8

#: Error allowed for a reference eigenvalue in the inclusion checks, as a
#: share of the spectral radius.
EIG_ERR = 1e-12

#: Share of an inequality's own homogeneous size (left side plus right side)
#: by which an eigenvalue may miss a primitive and still count as inside.
INCLUSION_RTOL = 1e-9

#: Relative slack for interval endpoints against reference eigenvalues.
ENDPOINT_RTOL = 1e-8

#: Relative slack on the weak-duality bracket of min_damping_d; the program
#: bisects to 1e-8 relative.
DAMPING_RTOL = 1e-7

#: Points per chunk when evaluating many primitives against many points,
#: which keeps the checker's memory below the program's own peak.
CHUNK = 1 << 18


class CheckFailed(Exception):
    """An output failed an independent check."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Eigenvalues


def reference_eigenvalues(M, C, K):
    """All 2n eigenvalues of lam^2 M + lam C + K from the original pencil:
    [[0, I], [-K, -C]] z = lam [[I, 0], [0, M]] z, no modal transform."""
    n = M.shape[0]
    eye, zero = np.eye(n), np.zeros((n, n))
    A = np.block([[zero, eye], [-K, -C]])
    B = np.block([[eye, zero], [zero, M]])
    vals = scipy.linalg.eigvals(A, B)
    require(np.all(np.isfinite(vals)), "reference pencil has infinite eigenvalues")
    return vals


def match_eigenvalues(got, ref, what="eigenvalues"):
    """Match two spectra by minimum-cost assignment and bound the distance."""
    got = np.asarray(got, dtype=complex)
    require(got.shape == ref.shape, f"{what}: {len(got)} values, expected {len(ref)}")
    cost = np.abs(got[:, None] - ref[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    err = float(np.max(cost[rows, cols]))
    scale = float(np.max(np.abs(ref)))
    require(err <= EIG_RTOL * scale, f"{what}: off by {err:.3e} at spectral radius {scale:.3e}")
    return err / scale


# ---------------------------------------------------------------------------
# Region primitives, read through their public fields


def _pack(prims):
    """Group primitives by kind into arrays."""
    disks, ovals, doubles = [], [], []
    for p in prims:
        if hasattr(p, "radius"):
            disks.append((complex(p.center), float(p.radius)))
        elif hasattr(p, "focus_plus"):
            ovals.append((complex(p.focus_plus), complex(p.focus_minus), float(p.r), float(p.q)))
        elif hasattr(p, "bound"):
            doubles.append(tuple(complex(f) for f in p.foci) + (float(p.bound),))
        else:
            raise CheckFailed(f"unknown primitive {type(p).__name__}")
    return (
        np.array(disks, dtype=complex).reshape(-1, 2),
        np.array(ovals, dtype=complex).reshape(-1, 4),
        np.array(doubles, dtype=complex).reshape(-1, 5),
    )


def _sides(packed, z):
    """(left, right, slope) of every inequality at points z, each (len z, k).

    ``slope`` bounds |d(left - right)/d lam|, so that ``delta * slope``
    bounds how much an error of ``delta`` in lam can move the difference.
    """
    disks, ovals, doubles = packed
    z = z[:, None]
    out = []
    if len(disks):
        rad = disks[:, 1].real + 0.0 * z.real
        out.append((np.abs(z - disks[:, 0]), rad, np.ones_like(rad)))
    if len(ovals):
        a, b = np.abs(z - ovals[:, 0]), np.abs(z - ovals[:, 1])
        out.append((a * b, np.abs(z) * ovals[:, 2].real + ovals[:, 3].real, a + b + ovals[:, 2].real))
    if len(doubles):
        a = [np.abs(z - doubles[:, i]) for i in range(4)]
        lhs = a[0] * a[1] * a[2] * a[3]
        slope = a[1] * a[2] * a[3] + a[0] * a[2] * a[3] + a[0] * a[1] * a[3] + a[0] * a[1] * a[2]
        bound = doubles[:, 4].real
        out.append((lhs, bound * np.abs(z) ** 2, slope + 2.0 * bound * np.abs(z)))
    return out


def inside_union(prims, z, delta=0.0):
    """Boolean per point: some primitive holds it.

    The tolerance is ``INCLUSION_RTOL`` times the inequality's own
    homogeneous size |left| + |right|, plus what an error of ``delta`` in
    the point can change: eigenvalues can lie exactly on a boundary (for
    n = 2 every eigenvalue lies on the BRAUER double oval's), where only the
    eigenvalue's own error decides the sign.
    """
    packed = _pack(prims)
    z = np.asarray(z, dtype=complex)
    step = max(1, CHUNK // max(len(prims), 1))
    inside = np.zeros(len(z), dtype=bool)
    for lo in range(0, len(z), step):
        for lhs, rhs, slope in _sides(packed, z[lo : lo + step]):
            ok = lhs - rhs <= INCLUSION_RTOL * (lhs + rhs) + delta * slope
            inside[lo : lo + step] |= ok.any(axis=1)
    return inside


def check_union_contains(name, prims, eigs):
    """Every eigenvalue lies in the union, allowing each an error of
    ``EIG_ERR`` times the spectral radius."""
    inside = inside_union(prims, eigs, EIG_ERR * float(np.max(np.abs(eigs))))
    if not inside.all():
        k = int(np.argmin(inside))
        raise CheckFailed(f"{name}: eigenvalue {complex(eigs[k]):.6g} outside every primitive")


def primitive_margin(p, z):
    """Right side minus left side of one primitive's inequality."""
    ((lhs, rhs, _),) = _sides(_pack([p]), np.asarray(z, dtype=complex).ravel())
    return (rhs - lhs)[:, 0], (rhs + lhs)[:, 0]


# ---------------------------------------------------------------------------
# Overdamped systems


def split_groups(eigs):
    """Sorted real eigenvalues of an overdamped system, as (lower, upper)."""
    vals = np.asarray(eigs, dtype=complex)
    scale = float(np.max(np.abs(vals)))
    require(np.all(np.abs(vals.imag) <= 1e-10 * scale), "overdamped system has complex eigenvalues")
    vals = np.sort(vals.real)
    n = len(vals) // 2
    require(vals[n - 1] < vals[n], "eigenvalue groups do not separate")
    return vals[:n], vals[n:]


def check_definiteness_interval(lo, hi, M, C, K, lower, upper):
    """Endpoints are the n-th and (n+1)-th eigenvalues, and -Q(midpoint) is
    positive definite."""
    for got, want, side in ((lo, lower[-1], "lower"), (hi, upper[0], "upper")):
        require(
            abs(got - want) <= ENDPOINT_RTOL * (1.0 + abs(want)),
            f"definiteness interval {side} end {got!r} differs from eigenvalue {want!r}",
        )
    mid = 0.5 * (lo + hi)
    try:
        np.linalg.cholesky(-(mid * mid * M + mid * C + K))
    except np.linalg.LinAlgError as exc:
        raise CheckFailed(f"-Q({mid!r}) is not positive definite") from exc


def check_certificate(name, p_minus, p_plus, lower, upper):
    tol = ENDPOINT_RTOL * (1.0 + abs(p_minus) + abs(p_plus))
    require(p_minus < p_plus, f"{name}: empty certificate interval")
    require(
        lower[-1] - tol <= p_minus and p_plus <= upper[0] + tol,
        f"{name}: ({p_minus!r}, {p_plus!r}) not inside ({lower[-1]!r}, {upper[0]!r})",
    )


def check_interval_bounds(name, lower_ivs, upper_ivs, lower, upper):
    """Each eigenvalue of a group lies in some interval of that group."""
    for ivs, group, which in ((lower_ivs, lower, "lower"), (upper_ivs, upper, "upper")):
        ivs = np.asarray(ivs, dtype=float).reshape(-1, 2)
        for lam in group:
            tol = ENDPOINT_RTOL * (1.0 + abs(lam))
            require(
                np.any((ivs[:, 0] - tol <= lam) & (lam <= ivs[:, 1] + tol)),
                f"{name}: {which} eigenvalue {lam!r} in no interval",
            )


def check_envelope(env, eps, M, C, K):
    """The brackets contain the eigenvalues of both bracketing systems
    ((1+e)M, (1-e)C, (1+e)K) and ((1-e)M, (1+e)C, (1-e)K)."""
    for a, b in ((1 + eps, 1 - eps), (1 - eps, 1 + eps)):
        lower, upper = split_groups(reference_eigenvalues(a * M, b * C, a * K))
        for vals, lo, hi, which in (
            (lower, env["minus_lower"], env["minus_upper"], "lower"),
            (upper, env["plus_lower"], env["plus_upper"], "upper"),
        ):
            lo, hi = np.asarray(lo, float), np.asarray(hi, float)
            tol = ENDPOINT_RTOL * (1.0 + np.abs(vals))
            require(
                len(lo) == len(vals) and np.all(lo - tol <= vals) and np.all(vals <= hi + tol),
                f"eta envelope misses a {which}-group eigenvalue at epsilon {eps}",
            )


def damping_bracket(M, C, K):
    """Weak-duality bracket max_t lmin(C; tM + K/t) <= d <= x'Cx / (2 sqrt(x'Mx x'Kx)).

    Every t > 0 gives a lower bound, because tm + k/t >= 2 sqrt(mk); log of
    the bound is concave in log t, so a golden-section search finds the best
    one.  Every x gives an upper bound.  The candidates are the lowest
    eigenvector at the best t and, where the maximum sits on a kink (two
    eigenvalues meeting), the vectors of their span with x'Kx = t^2 x'Mx,
    at which the ratio equals the common eigenvalue.
    """
    wm = np.linalg.eigvalsh(M)
    wk = np.linalg.eigvalsh(K)

    def lowest(s, k=1):
        t = np.exp(s)
        return scipy.linalg.eigh(C, t * M + K / t, subset_by_index=[0, k - 1])

    a = 0.5 * np.log(wk[0] / wm[-1])
    b = 0.5 * np.log(wk[-1] / wm[0])
    g = 0.5 * (np.sqrt(5.0) - 1.0)
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = lowest(c)[0][0], lowest(d)[0][0]
    while b - a > 1e-13 * (1.0 + abs(a) + abs(b)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = lowest(c)[0][0]
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = lowest(d)[0][0]
    s = 0.5 * (a + b)
    w, V = lowest(s, min(2, M.shape[0]))
    candidates = [V[:, 0]]
    if V.shape[1] == 2:
        G = V.T @ (K - np.exp(2.0 * s) * M) @ V
        disc = G[0, 1] ** 2 - G[0, 0] * G[1, 1]
        if disc >= 0.0 and G[0, 0] != 0.0:
            for root in (np.sqrt(disc), -np.sqrt(disc)):
                candidates.append(V @ np.array([(-G[0, 1] + root) / G[0, 0], 1.0]))

    def ratio(x):
        return float(x @ C @ x / (2.0 * np.sqrt((x @ M @ x) * (x @ K @ x))))

    return float(w[0]), min(ratio(x) for x in candidates)


def check_min_damping(d, flag, M, C, K, overdamped):
    lo, hi = damping_bracket(M, C, K)
    slack = DAMPING_RTOL * (1.0 + abs(d))
    require(
        lo - slack <= d <= hi + slack,
        f"min_damping_d {d!r} outside weak-duality bracket [{lo!r}, {hi!r}]",
    )
    require(bool(flag) == overdamped, f"min_damping_d flag {flag} for overdamped={overdamped}")


# ---------------------------------------------------------------------------
# Figures

_NUM = r"(-?[0-9.]+(?:e[-+]?[0-9]+)?)"
_CROSS = re.compile(r"^M {0} {0} L {0} {0} M {0} {0} L {0} {0}$".format(_NUM))
_SVG_NS = "{http://www.w3.org/2000/svg}"


def parse_svg(path):
    """(crosses, paths): eigenvalue markers as complex centers, and boundary
    paths as (stroke colour, vertex array of complex points)."""
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise CheckFailed(f"SVG does not parse: {exc}") from exc
    require(root.tag == _SVG_NS + "svg", f"root element is {root.tag}")
    crosses, paths = [], []
    for el in root.iter(_SVG_NS + "path"):
        d = el.get("d", "")
        if el.get("stroke") == "black":
            m = _CROSS.match(d)
            require(m is not None, f"malformed eigenvalue marker {d[:60]!r}")
            x1, y1, x2, y2 = (float(m.group(i)) for i in (1, 2, 3, 4))
            crosses.append(complex(0.5 * (x1 + x2), -0.5 * (y1 + y2)))
            continue
        toks = d.split()
        require(toks[:1] == ["M"] and toks[-1:] == ["Z"], f"malformed boundary path {d[:60]!r}")
        nums = [float(t) for t in toks[:-1] if t not in ("M", "L")]
        xy = np.array(nums).reshape(-1, 2)
        paths.append((el.get("stroke"), xy[:, 0] - 1j * xy[:, 1]))
    return np.array(crosses, dtype=complex), paths


def _straddles(p, verts, h):
    """Each vertex has both signs of p's inequality within one cell h.

    Samples a 5 x 5 stencil of spacing h/2 and, finely, the two grid lines
    through the vertex: a vertex sits on a cell edge whose two end nodes
    straddle the boundary, and near a focus the inside part of that edge
    can be much shorter than a cell.
    """
    off = 0.5 * h * np.arange(-2, 3)
    line = h * np.linspace(-1.0, 1.0, 65)
    stencil = np.concatenate([(off[:, None] + 1j * off[None, :]).ravel(), line, 1j * line])
    margin, size = primitive_margin(p, (verts[:, None] + stencil[None, :]).ravel())
    margin = margin.reshape(len(verts), -1)
    tol = 1e-12 * size.reshape(len(verts), -1).max(axis=1)
    return (margin.min(axis=1) <= tol) & (margin.max(axis=1) >= -tol)


def check_boundaries(paths, unions, palette, resolution):
    """Every boundary vertex lies within one grid cell of a sign change of
    the inequality of some primitive of the union drawn in that colour."""
    for colour, verts in paths:
        require(colour in palette, f"boundary path with unknown stroke {colour}")
        union = unions[palette.index(colour)]
        ok = False
        for p in union:
            box = p.bounding_box()
            h = 1.1 * max(box.xmax - box.xmin, box.ymax - box.ymin) / resolution
            if _straddles(p, verts[:1], h)[0] and _straddles(p, verts, h).all():
                ok = True
                break
        require(ok, f"boundary path of {len(verts)} vertices near no primitive boundary")


def check_crosses(crosses, ref):
    require(len(crosses) == len(ref), f"{len(crosses)} eigenvalue markers for {len(ref)} eigenvalues")
    cost = np.abs(crosses[:, None] - ref[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    scale = 1.0 + float(np.max(np.abs(ref)))
    require(float(np.max(cost[rows, cols])) <= 1e-4 * scale, "eigenvalue marker misplaced")


def _cell_label(labels, box, lam):
    """Label of the labelled cell nearest to lam within three cells, or 0."""
    ny, nx = labels.shape
    dx = (box.xmax - box.xmin) / nx
    dy = (box.ymax - box.ymin) / ny
    ix = int(np.floor((lam.real - box.xmin) / dx))
    iy = int(np.floor((lam.imag - box.ymin) / dy))
    y0, x0 = max(iy - 3, 0), max(ix - 3, 0)
    win = labels[y0 : max(iy + 4, 0), x0 : max(ix + 4, 0)]
    hits = np.argwhere(win > 0)
    if not len(hits):
        return 0
    d2 = (hits[:, 0] + y0 - iy) ** 2 + (hits[:, 1] + x0 - ix) ** 2
    jy, jx = hits[np.argmin(d2)]
    return int(win[jy, jx])


def check_components(analysis, prims, ref):
    """Eigenvalues per component of an oval union equal the foci in it.

    As the extension grows from 0 each eigenvalue moves continuously from a
    focus and never leaves the union, so a component holds as many
    eigenvalues as foci: 2 x its modes when it holds whole ovals, one per
    lobe when an oval's two lobes are apart.
    """
    count = len(analysis.components)
    eig = np.zeros(count + 1, dtype=int)
    foc = np.zeros(count + 1, dtype=int)
    for lam in ref:
        eig[_cell_label(analysis.labels, analysis.box, complex(lam))] += 1
    for p in prims:
        for f in (p.focus_plus, p.focus_minus):
            foc[_cell_label(analysis.labels, analysis.box, complex(f))] += 1
    require(eig[0] == 0 and foc[0] == 0, "an eigenvalue or focus lies in no component")
    require(np.array_equal(eig, foc), f"eigenvalues per component {eig[1:]} != foci {foc[1:]}")
