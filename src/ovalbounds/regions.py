"""Eigenvalue inclusion regions: disks, quasi/modified Cassini ovals, double
ovals, the method constructors, and rasterized component analysis.

Membership predicates are exact (no tolerance).  A union holds one kind of
primitive, as each of the paper's inclusion sets does, packed as arrays.
Each kind writes its signed margin (right side minus left side of its
defining inequality, positive inside) and its bounding box once, over its
arrays; primitive values evaluate through a one-primitive kind.  Tracing,
rasterization and sampled membership settle whole blocks of points with
each kind's bound on the margin's variation and evaluate margins only where
it cannot.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import CriticalModePresent, InputError, ResolutionTooCoarse
from .matdense import spectral_norm
from .modal import ModalForm, ModalSplit, ModeFoci, mode_singular_values


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle in the complex plane (x = Re, y = Im)."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def merge(self, other: "Box") -> "Box":
        return Box(
            min(self.xmin, other.xmin),
            max(self.xmax, other.xmax),
            min(self.ymin, other.ymin),
            max(self.ymax, other.ymax),
        )

    def padded(self, frac: float) -> "Box":
        """Each side grown by frac of its width at both ends.  A side no
        wider than ``_ROUNDING`` times the larger |edge| on its axis, which
        only rounding separates, counts as zero; it takes the other side's
        width, or else the largest |edge|, or else 1, so the padding scales
        with the box."""
        w, h = (
            0.0 if hi - lo <= _ROUNDING * max(abs(lo), abs(hi)) else hi - lo
            for lo, hi in ((self.xmin, self.xmax), (self.ymin, self.ymax))
        )
        fill = max(w, h) or max(map(abs, (self.xmin, self.xmax, self.ymin, self.ymax))) or 1.0
        dx, dy = (w or fill) * frac, (h or fill) * frac
        return Box(self.xmin - dx, self.xmax + dx, self.ymin - dy, self.ymax + dy)


class _Primitive:
    """Shared evaluation of the region primitives: a value packs itself into
    a one-primitive kind and evaluates that kind's inequality and box.  A
    point is a member exactly where its margin is nonnegative.
    """

    def margin(self, z):
        """Margin at z, the one-primitive kind's ``best_margin``: a numpy
        scalar for a scalar z, otherwise an array of z's shape."""
        return _pack((self,)).best_margin(z)[0][()]

    def bounding_box(self) -> Box:
        return Box(*(float(edge[0]) for edge in _pack((self,)).boxes()))

    @property
    def is_degenerate(self) -> bool:
        """Whether the primitive is a point set of zero measure: its foci."""
        return bool(_pack((self,)).degenerate[0])

    def contains(self, lam: complex) -> bool:
        return bool(self.margin(lam) >= 0.0)


@dataclass(frozen=True)
class Disk(_Primitive):
    """{lam : |lam - center| <= radius}."""

    center: complex
    radius: float

    @property
    def foci(self) -> tuple[complex, ...]:
        return (self.center,)


@dataclass(frozen=True)
class QuasiOval(_Primitive):
    """{lam : |lam - f+| |lam - f-| <= |lam| r + q}.

    q == 0 is the plain quasi Cassini oval; q > 0 the modified variant used
    for clustered frequencies.  Both foci are always members.
    """

    focus_plus: complex
    focus_minus: complex
    r: float
    q: float = 0.0

    @property
    def foci(self) -> tuple[complex, ...]:
        return (self.focus_plus, self.focus_minus)


@dataclass(frozen=True)
class DoubleOval(_Primitive):
    """{lam : prod_i |lam - foci[i]| <= bound |lam|^2} over two foci pairs."""

    foci: tuple[complex, complex, complex, complex]
    bound: float


RegionPrimitive = Disk | QuasiOval | DoubleOval


def _moduli(z: np.ndarray) -> np.ndarray:
    """|z| elementwise, bit for bit as Python's scalar abs (np.abs of a
    complex array may differ from it in the last bit)."""
    return np.hypot(z.real, z.imag)


class Method(str, enum.Enum):
    """Inclusion-set constructions; all but MODAL_DISK_APPROX are rigorous."""

    UNDAMPED_DISK_NORM = "UNDAMPED_DISK_NORM"
    UNDAMPED_DISK_COLSUM = "UNDAMPED_DISK_COLSUM"
    UNDAMPED_OVAL_NORM = "UNDAMPED_OVAL_NORM"
    UNDAMPED_OVAL_REL = "UNDAMPED_OVAL_REL"
    UNDAMPED_OVAL_COLSUM = "UNDAMPED_OVAL_COLSUM"
    UNDAMPED_OVAL_RELSUM = "UNDAMPED_OVAL_RELSUM"
    MODAL_DISK_NORM = "MODAL_DISK_NORM"
    MODAL_DISK_ROWSUM = "MODAL_DISK_ROWSUM"
    MODAL_OVAL_NORM = "MODAL_OVAL_NORM"
    MODAL_OVAL_ROWSUM = "MODAL_OVAL_ROWSUM"
    MODAL_DISK_APPROX = "MODAL_DISK_APPROX"
    BRAUER = "BRAUER"
    MODIFIED_OVAL = "MODIFIED_OVAL"


RIGOROUS_METHODS: frozenset[Method] = frozenset(
    m for m in Method if m is not Method.MODAL_DISK_APPROX
)


#: Elements (primitives x points) in each temporary of a union's margin
#: evaluation: the points go through in chunks of this many over the
#: union's primitive count, so memory stays bounded at any union size.
#: At 2**15 the complex temporaries stay at 0.5 MB, and the widest union
#: (BRAUER, n = 200) takes one point per chunk, its fastest layout.
CHUNK_ELEMENTS = 1 << 15

#: Cells per side of the smallest grid blocks, the leaves, of the
#: coarse-to-fine descent by which ``boundary_polylines`` and
#: ``component_analysis`` settle blocks whole where a ``variation`` bound
#: allows.  At 4 the figure unions trace fastest: 8 evaluates a wider band,
#: 2 spends more on certifying than it saves.
BLOCK_CELLS = 4

#: A ``variation`` bound's rounding allowance relative to the margin's terms,
#: well above the few ulps of each of the two margins and of the bound.
_ROUNDING = 256 * np.finfo(float).eps

#: Modes from which a BRAUER union's ``best_margin`` settles a point from
#: its Pareto front of modes where that leaves one pair open, and hands only
#: the other points to the table of all pairs.  At the 2n eigenvalues of
#: ``cli.random_system(n, s)``, s = 0 to 3, the table took 0.45 ms against
#: the front's 0.38 ms at n = 44 and 0.74 against 0.48 ms at n = 52 (2 vCPU,
#: one BLAS thread; 37 against 5.5 ms at n = 200).
FRONT_ORDER = 48

#: The moduli |z| and focus distances, and the square roots of the radii,
#: that the Pareto-front search takes: 0 or within these limits, so that
#: every product of up to four of them stays a normal float.  Other points
#: go through the table.
_FRONT_RANGE = (2.0**-150, 2.0**150)


def _quiet() -> np.errstate:
    """Margins at nan, infinite or huge points (|z| beyond about 1e154) come
    out nan or -inf through inf - inf and overflow; such points are outside
    every primitive, which is the right answer, so the kinds' evaluations
    run with these warnings off."""
    return np.errstate(invalid="ignore", over="ignore")


def _moderate(x, scale: int = 1) -> np.ndarray:
    """Where x is 0 or within ``_FRONT_RANGE`` raised to ``scale`` (False at
    nan)."""
    lo, hi = (edge**scale for edge in _FRONT_RANGE)
    return (x == 0.0) | ((x >= lo) & (x <= hi))


def _cols(rows, *arrays):
    """A kind's parameter arrays as columns against a 1-d array of points,
    or with ``rows`` gathered one per point."""
    if rows is None:
        return [a[:, None] for a in arrays]
    return [a[rows] for a in arrays]


class _View(Sequence):
    """Read-only sequence whose items are built when accessed."""

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self._item(j) for j in range(self._len)[i])
        return self._item(range(self._len)[i])

    def __iter__(self):
        return (self._item(j) for j in range(self._len))

    def __eq__(self, other):
        if isinstance(other, Sequence) and not isinstance(other, str):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class _Kind(_View):
    """Primitives of one kind stored as arrays, read as a sequence of their
    dataclass values.

    Each kind writes its inequality and box once: ``margins(z)``, the
    (primitives x points) margins at a 1-d chunk of points, ``boxes()``, the
    (xmin, xmax, ymin, ymax) arrays of the primitives' bounding boxes, and
    ``variation(z0, delta)``, a (primitives x points) bound on |m(z) - m(z0)|
    over |z - z0| <= delta, plus an allowance for rounding in both computed
    margins, at 1-d z0 and delta.  Given ``rows``, an index array that
    broadcasts against the points, ``margins(z, rows)`` and ``variation(z0,
    delta, rows)`` evaluate pairs instead: primitive rows[k] at the points
    z[k], with the same operations in the same order, so each pair's value
    is its entry in the (primitives x points) table bit for bit.

    Each kind also answers for its primitives what their values would:
    ``degenerate``, the mask of the primitives that are their bare foci, a
    point set of zero measure, and ``foci()``, a (primitives x foci) table
    in the order of the values' ``foci``.  Disks and ovals give
    ``extended(e)``, the same kind with every radius or r set to e.
    """

    def best_margin(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Largest margin at each point of z and the index of the first
        primitive attaining it, both of z's shape.  The points go through in
        chunks of CHUNK_ELEMENTS / len(self), so memory stays O(len z)."""
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        best = np.empty(len(flat))
        index = np.empty(len(flat), dtype=int)
        step = max(1, CHUNK_ELEMENTS // len(self))
        with _quiet():
            for lo in range(0, len(flat), step):
                m = self.margins(flat[lo : lo + step])
                k = np.argmax(m, axis=0)
                best[lo : lo + step] = np.take_along_axis(m, k[None, :], axis=0)[0]
                index[lo : lo + step] = k
        return best.reshape(z.shape), index.reshape(z.shape)


class _Disks(_Kind):
    """Disks as centers and radii."""

    primitive = Disk

    def __init__(self, center, radius):
        self.center, self.radius, self._len = center, radius, len(radius)
        self.degenerate = radius == 0.0

    @classmethod
    def pack(cls, prims):
        return cls(
            np.array([p.center for p in prims], dtype=complex),
            np.array([p.radius for p in prims], dtype=float),
        )

    def _item(self, i) -> Disk:
        return Disk(complex(self.center[i]), float(self.radius[i]))

    def foci(self) -> np.ndarray:
        return self.center[:, None]

    def extended(self, e: float) -> "_Disks":
        return _Disks(self.center, np.full(self._len, float(e)))

    def margins(self, z, rows=None):
        center, radius = _cols(rows, self.center, self.radius)
        return radius - np.abs(z - center)

    def boxes(self):
        x, y, r = self.center.real, self.center.imag, self.radius
        return x - r, x + r, y - r, y + r

    def variation(self, z0, delta, rows=None):
        center, radius = _cols(rows, self.center, self.radius)
        dist = np.abs(z0 - center)
        return delta + _ROUNDING * (radius + dist + delta)


class _Ovals(_Kind):
    """Quasi ovals as foci f+, f- with r and q."""

    primitive = QuasiOval

    def __init__(self, plus, minus, r, q):
        self.plus, self.minus, self.r, self.q, self._len = plus, minus, r, q, len(r)
        self.degenerate = (r == 0.0) & (q == 0.0)

    @classmethod
    def pack(cls, prims):
        return cls(
            np.array([p.focus_plus for p in prims], dtype=complex),
            np.array([p.focus_minus for p in prims], dtype=complex),
            np.array([p.r for p in prims], dtype=float),
            np.array([p.q for p in prims], dtype=float),
        )

    def _item(self, i) -> QuasiOval:
        return QuasiOval(
            complex(self.plus[i]), complex(self.minus[i]), float(self.r[i]), float(self.q[i])
        )

    def foci(self) -> np.ndarray:
        return np.stack((self.plus, self.minus), axis=1)

    def extended(self, e: float) -> "_Ovals":
        """Every r set to e; each oval keeps its q."""
        return _Ovals(self.plus, self.minus, np.full(self._len, float(e)), self.q)

    def margins(self, z, rows=None):
        plus, minus, r, q = _cols(rows, self.plus, self.minus, self.r, self.q)
        prod = np.abs(z - plus)
        prod *= np.abs(z - minus)
        m = np.abs(z) * r
        m += q
        m -= prod
        return m

    def boxes(self):
        abs_plus, abs_minus = _moduli(self.plus), _moduli(self.minus)
        f = abs_plus + abs_minus + self.r
        disc = f * f - 4.0 * np.maximum(0.0, abs_plus * abs_minus - self.q)
        R = 0.5 * (f + np.sqrt(np.maximum(disc, 0.0)))
        return -R, R, -R, R

    def variation(self, z0, delta, rows=None):
        plus, minus, r, q = _cols(rows, self.plus, self.minus, self.r, self.q)
        dplus, dminus = np.abs(z0 - plus), np.abs(z0 - minus)
        terms = (np.abs(z0) + delta) * r + q + (dplus + delta) * (dminus + delta)
        return delta * (r + dplus + dminus + delta) + _ROUNDING * terms


class _DoubleOvals(_Kind):
    """Double ovals as a per-mode focus table (plus, minus), each primitive's
    two table rows (a, b) and its bound: foci plus[a], minus[a], plus[b],
    minus[b].  The distances to the table's foci are taken once per chunk
    and gathered for the pairs.

    ``radii`` marks the product form that ``build_regions`` makes for n >= 2
    modes: the pairs a < b in ``np.triu_indices`` order, with bounds
    radii[a] * radii[b].  From FRONT_ORDER modes on, its ``best_margin``
    settles each point whose Pareto front of modes leaves one pair open
    (``_front``) and hands the other points to the table; packed primitive
    values keep the table.
    """

    primitive = DoubleOval

    def __init__(self, plus, minus, a, b, bound, radii=None):
        self.plus, self.minus, self.a, self.b = plus, minus, a, b
        self.bound, self._len, self.radii = bound, len(bound), radii
        self.degenerate = bound == 0.0
        if radii is not None:
            self._by_radius = np.argsort(-radii, kind="stable")

    @classmethod
    def pack(cls, prims):
        foci = np.array([p.foci for p in prims], dtype=complex).reshape(-1, 2)
        rows = np.arange(len(foci))
        bound = np.array([p.bound for p in prims], dtype=float)
        return cls(foci[:, 0], foci[:, 1], rows[0::2], rows[1::2], bound)

    def _item(self, i) -> DoubleOval:
        a, b = self.a[i], self.b[i]
        foci = (self.plus[a], self.minus[a], self.plus[b], self.minus[b])
        return DoubleOval(tuple(map(complex, foci)), float(self.bound[i]))

    def foci(self) -> np.ndarray:
        a, b = self.a, self.b
        return np.stack((self.plus[a], self.minus[a], self.plus[b], self.minus[b]), axis=1)

    def _distances(self, z, rows):
        """|z - f| to each primitive's foci plus[a], minus[a], plus[b],
        minus[b]; for a table, taken once per focus of the table."""
        if rows is None:
            d = [np.abs(z - f[:, None]) for f in (self.plus, self.minus)]
            return [np.take(d[k], pair, axis=0) for pair in (self.a, self.b) for k in (0, 1)]
        foci = [f[pair[rows]] for pair in (self.a, self.b) for f in (self.plus, self.minus)]
        return [np.abs(z - f) for f in foci]

    def margins(self, z, rows=None):
        x = self._distances(z, rows)
        prod = x[0] * x[1]
        prod *= x[2]
        prod *= x[3]
        (bound,) = _cols(rows, self.bound)
        return np.subtract(bound * np.abs(z) ** 2, prod, out=prod)

    def boxes(self):
        mode = np.maximum(_moduli(self.plus), _moduli(self.minus))
        m = np.maximum(mode[self.a], mode[self.b])
        half = 2.0 * m + np.sqrt(np.maximum(self.bound, 0.0))
        disc = half * half - 4.0 * m * m
        R = 0.5 * (half + np.sqrt(np.maximum(disc, 0.0)))
        return -R, R, -R, R

    def variation(self, z0, delta, rows=None):
        # products, sums and differences in place, in the order of
        # spread = b delta (2|z0| + delta) + (grown - prod) and
        # spread + _ROUNDING (b (|z0| + delta)**2 + grown)
        x = self._distances(z0, rows)
        prod = x[0] * x[1]
        prod *= x[2]
        prod *= x[3]
        grown = x[0] + delta
        for d in x[1:]:
            grown *= d + delta
        del x
        (b,) = _cols(rows, self.bound)
        absz = np.abs(z0)
        spread = b * delta
        spread *= 2.0 * absz + delta
        np.subtract(grown, prod, out=prod)
        spread += prod
        allowance = b * (absz + delta) ** 2
        allowance += grown
        allowance *= _ROUNDING
        spread += allowance
        return spread

    def best_margin(self, z) -> tuple[np.ndarray, np.ndarray]:
        """As ``_Kind.best_margin``, bit for bit.  A product form of
        FRONT_ORDER modes or more first settles what it can from each
        point's Pareto front of modes (``_front``), chunk by chunk; the
        other points go through the table.

        A pair's margin separates: m_ab = s r_a r_b - P_a P_b, with s = |z|^2,
        r = ``radii`` >= 0 and P_k = |z - plus[k]| |z - minus[k]| >= 0, so it
        grows with r_b and falls with P_b.  Take the modes in order of
        descending radius, ties by index; the front F holds each mode whose
        P is below that of every mode before it.  Every mode b then has a c
        in F with r_c >= r_b and P_c <= P_b, and row a's bound

            R_a = max over c in F of (1 + g) s r_a r_c - (1 - g) P_a P_c,

        g = _ROUNDING, is at least the computed margin of every pair that
        holds a.  Proof: where |z| and the focus distances are 0 or within
        ``_FRONT_RANGE`` and the radii within its square, no product of them
        underflows or overflows, so each computed factor is within a few
        ulps of its exact value.  With u = eps / 2, the table's computed m_ab
        is then at most (1 + 11u) s r_a r_b - (1 - 16u) P_a P_b, and so at
        most (1 + 11u) s r_a r_c - (1 - 30u) P_a P_c for the c that covers b,
        as F compares the computed P.  The computed terms of R_a, off by a
        few ulps, still bound these two, as g = 512u; the margin is a float,
        so R_a's last rounding cannot take it below the margin.

        L, the computed margin of the pair of the two largest R_a, is at most
        the table's maximum, so every pair attaining that maximum has both
        modes in S = {a : R_a >= L}.  Where S holds L's pair alone, L is the
        maximum and its pair the only one attaining it.  Every other point,
        and every point outside the range (nan and infinite ones among
        them), goes through the table.
        """
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        search = self.radii is not None and len(self.radii) >= FRONT_ORDER
        search = search and _moderate(self.radii, 2).all()
        best = np.empty(len(flat))
        index = np.empty(len(flat), dtype=int)
        step = max(1, CHUNK_ELEMENTS // len(self.radii) if search else len(flat))
        with _quiet():
            for lo in range(0, len(flat), step):
                at = slice(lo, lo + step)
                rest = ~self._front(flat[at], best[at], index[at]) if search else slice(None)
                best[at][rest], index[at][rest] = super().best_margin(flat[at][rest])
        return best.reshape(z.shape), index.reshape(z.shape)

    def _front(self, z, best, index) -> np.ndarray:
        """Settle ``best_margin`` at the 1-d points z where the front leaves
        one pair open: write best and index there and return that mask."""
        absz = np.abs(z)
        dplus, dminus = (np.abs(z[:, None] - f) for f in (self.plus, self.minus))
        settled = _moderate(absz) & _moderate(dplus).all(axis=1) & _moderate(dminus).all(axis=1)
        if not settled.any():
            return settled
        z, s, P = z[settled], absz[settled] ** 2, dplus[settled] * dminus[settled]
        r, order = self.radii, self._by_radius
        # the front in order of radius: where P falls below every earlier P
        Pr = P[:, order]
        front = np.ones(Pr.shape, dtype=bool)
        np.less(Pr[:, 1:], np.minimum.accumulate(Pr[:, :-1], axis=1), out=front[:, 1:])
        # by descending front size, the points with a t-th front mode are a
        # prefix; cols[k, t] is the t-th front mode's position in the order
        count = np.count_nonzero(front, axis=1)
        by_size = np.argsort(-count, kind="stable")
        count = count[by_size]
        pt, j = np.nonzero(front[by_size])
        cols = np.zeros((len(z), count[0]), dtype=np.intp)
        cols[pt, np.arange(len(pt)) - np.repeat(np.cumsum(count) - count, count)] = j
        modes = order[cols]
        Ps = P[by_size]
        up = (1.0 + _ROUNDING) * s[by_size, None] * r[modes]
        down = (1.0 - _ROUNDING) * np.take_along_axis(Ps, modes, axis=1)
        Rs = r * up[:, :1] - Ps * down[:, :1]
        for t in range(1, count[0]):
            k = np.count_nonzero(count > t)
            np.maximum(Rs[:k], r * up[:k, t : t + 1] - Ps[:k] * down[:k, t : t + 1], out=Rs[:k])
        R = np.empty_like(Rs)
        R[by_size] = Rs

        first = np.argmax(R, axis=1)
        np.put_along_axis(R, first[:, None], -np.inf, axis=1)
        second = np.argmax(R, axis=1)
        pair = self._pair(np.minimum(first, second), np.maximum(first, second))
        L = self.margins(z, pair)
        # R >= L at both of L's modes, so with first's R dropped, S is L's
        # pair alone where only second's R reaches L
        alone = np.count_nonzero(R >= L[:, None], axis=1) == 1
        settled[settled] = alone
        best[settled], index[settled] = L[alone], pair[alone]
        return settled

    def _pair(self, a, b):
        """Index of the pair a < b in ``np.triu_indices`` order."""
        return a * (2 * len(self.radii) - a - 1) // 2 + b - a - 1


def _pack(prims) -> _Kind:
    """The packed kind of a sequence of primitive values, all of one type."""
    prims = tuple(prims)
    if not all(isinstance(p, _Primitive) for p in prims):
        raise InputError("region primitives must be Disk, QuasiOval or DoubleOval values")
    kinds = [
        k for k in (_Disks, _Ovals, _DoubleOvals) if any(isinstance(p, k.primitive) for p in prims)
    ]
    if not kinds:
        raise InputError("a region union must hold at least one primitive")
    if len(kinds) > 1:
        names = ", ".join(k.primitive.__name__ for k in kinds)
        raise InputError(f"a region union holds primitives of one kind, got {names} values")
    return kinds[0].pack(prims)


def _block_disks(x0, x1, y0, y1):
    """Centres z0 and radii delta of the disks about the rectangles
    [x0, x1] x [y0, y1], elementwise."""
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    hx, hy = np.maximum(cx - x0, x1 - cx), np.maximum(cy - y0, y1 - cy)
    return cx + 1j * cy, np.hypot(hx, hy)


def _point_blocks(pts: np.ndarray):
    """Bin the finite 1-d complex pts into g x g equal blocks over their box,
    g = floor(cbrt(len pts)), in chunks of CHUNK_ELEMENTS points.  Returns
    each point's block (row-major by y), the occupied blocks, their centres
    and the distance from each centre to its farthest point, whose few ulps
    of rounding the ``variation`` bounds' allowance covers."""
    g = int(np.cbrt(len(pts)))
    axes = []
    for v in (pts.real, pts.imag):
        vmin, vmax = v.min(), v.max()
        width = (vmax - vmin) / g
        if np.finfo(float).tiny <= width < np.inf:
            axes.append((vmin, 1.0 / width, vmin + (np.arange(g) + 0.5) * width))
        else:  # one value, or a span too narrow or too wide for floats: one bin
            mid = 0.5 * vmin + 0.5 * vmax
            axes.append((mid, 0.0, np.full(g, mid)))
    (x0, xscale, cx), (y0, yscale, cy) = axes
    blk = np.empty(len(pts), dtype=np.intp)
    far = np.full(g * g, -1.0)  # squared distance to the farthest point
    for lo in range(0, len(pts), CHUNK_ELEMENTS):
        x, y = pts[lo : lo + CHUNK_ELEMENTS].real, pts[lo : lo + CHUNK_ELEMENTS].imag
        ix = np.minimum(((x - x0) * xscale).astype(np.intp), g - 1)
        iy = np.minimum(((y - y0) * yscale).astype(np.intp), g - 1)
        b = blk[lo : lo + CHUNK_ELEMENTS]
        np.multiply(iy, g, out=b)
        b += ix
        np.maximum.at(far, b, np.square(x - cx[ix]) + np.square(y - cy[iy]))
    used = np.flatnonzero(far >= 0.0)
    centre = (cx[None, :] + 1j * cy[:, None]).ravel()
    return blk, used, centre[used], np.sqrt(far[used])


def _certify(kind: _Kind, z0: np.ndarray, delta: np.ndarray, rows=None) -> np.ndarray:
    """What the kind's ``variation`` bound settles about each primitive on
    each disk |z - z0| <= delta, as int8 (primitives x disks), or with
    ``rows`` about primitive rows[k] on disk k only: 1 where m(z0) >
    variation, so every point's computed margin is positive; -1 where m(z0)
    < -variation, so every one is negative; 0 where undecided.  Evaluated
    in chunks of about CHUNK_ELEMENTS pairs."""
    if rows is None:
        out = np.empty((len(kind), len(z0)), dtype=np.int8)
        step = max(1, CHUNK_ELEMENTS // len(kind))
    else:
        out, step = np.empty(len(z0), dtype=np.int8), CHUNK_ELEMENTS
    with _quiet():
        for lo in range(0, len(z0), step):
            at = slice(lo, lo + step)
            chunk = None if rows is None else rows[at]
            m = kind.margins(z0[at], chunk)
            bound = kind.variation(z0[at], delta[at], chunk)
            block = out[..., at]
            block[...] = m > bound
            block -= m < -bound
    return out


def _descend(kind: _Kind, rows, xs, ys, cells: int, ends: int):
    """Certify square blocks of a grid for the kind's primitives ``rows``,
    coarse to fine (Snyder, SIGGRAPH 1992).

    Row k of the C-contiguous tables ``xs`` and ``ys`` holds the x and y
    coordinates of the grid points of primitive rows[k]; tables of one row
    are shared by all.  The grid has ``cells`` cells per side, and a block
    of s cells starting at cell i0 holds the points i0 to i0 + s - 1 +
    ``ends`` of each axis, clipped at the last one: ``ends`` is 1 when the
    points are the cells' corner nodes, 0 when they are their centres.  The
    descent starts from one block of BLOCK_CELLS * 2**j >= cells cells per
    primitive and halves only the blocks that ``_certify`` leaves
    undecided, down to BLOCK_CELLS; blocks starting past the grid are
    dropped.  Yields each level as (size, blocks, verdict), the blocks as
    rows k, j0 and i0 of one array, from the top down; the blocks that the
    last level leaves undecided are the leaves.
    """
    size = _top_size(cells)
    # a block's four halves start at these offsets (k, j0, i0) in units of
    # their size
    blocks = np.zeros((3, len(rows)), dtype=np.intp)
    blocks[0] = np.arange(len(rows))
    halves = np.array([[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1]])[:, None, :]
    last = xs.shape[1] - 1
    while True:
        k, j0, i0 = blocks
        row = _row_offsets(xs, k)
        span = size - 1 + ends
        x0, x1 = (xs.take(row + i) for i in (i0, np.minimum(i0 + span, last)))
        y0, y1 = (ys.take(row + j) for j in (j0, np.minimum(j0 + span, last)))
        verdict = _certify(kind, *_block_disks(x0, x1, y0, y1), rows[k])
        yield size, blocks, verdict
        if size == BLOCK_CELLS:
            return
        blocks = blocks[:, verdict == 0]
        size //= 2
        blocks = (blocks[:, :, None] + size * halves).reshape(3, -1)
        if cells % (2 * size):  # some halves may start past the grid
            blocks = blocks[:, (blocks[1] < cells) & (blocks[2] < cells)]


def _top_size(cells: int) -> int:
    """Cells per side of the descent's first block: the least BLOCK_CELLS *
    2**j that is at least ``cells``."""
    return BLOCK_CELLS << ((cells - 1) // BLOCK_CELLS).bit_length()


def _row_offsets(table, k):
    """Flat offsets of the rows k of a (rows, points) table, all 0 for a
    table of one row."""
    return k * table.shape[1] if len(table) > 1 else np.zeros_like(k)


def _memberships(unions, z) -> list[np.ndarray]:
    """``u.best_margin(z)[0] >= 0`` for each union u, settled block by block
    where it can be.

    The finite points are binned once, into g x g equal blocks over their
    box, g the cube root of their count, and each block is taken as the disk
    about its centre through its farthest point.  For each union, a block in
    which ``_certify`` puts some primitive inside is inside, one where it
    puts every primitive outside is outside: the largest of its pairs'
    verdicts is 1 or -1.  The other blocks' points and the non-finite points
    go through the union's ``best_margin``.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    finite = np.isfinite(flat)
    binned = finite.any()
    if binned:
        with _quiet():
            blk, used, centre, delta = _point_blocks(flat if finite.all() else flat[finite])
    out = []
    for u in unions:
        verdict = np.zeros(flat.size, dtype=np.int8)
        if binned:
            settled = np.zeros(used[-1] + 1, dtype=np.int8)
            settled[used] = _certify(u.primitives, centre, delta).max(axis=0)
            verdict[finite] = settled[blk]
        member = verdict == 1
        direct = np.flatnonzero(verdict == 0)
        member[direct] = u.best_margin(flat[direct])[0] >= 0.0
        out.append(member.reshape(z.shape))
    return out


class _ModeLabels(_View):
    """Mode labels as two index arrays: (lo,) where lo == hi, else (lo, hi)."""

    def __init__(self, lo, hi):
        self._lo, self._hi, self._len = lo, hi, len(lo)

    def _item(self, j):
        lo, hi = int(self._lo[j]), int(self._hi[j])
        return (lo,) if lo == hi else (lo, hi)


@dataclass(frozen=True)
class RegionUnion:
    """A method tag with its primitives and the generating mode indices.

    Each of the paper's inclusion sets is a union of one kind of primitive,
    and so is every union: its primitives are packed as one kind's arrays
    (disks as centers and radii, ovals as foci with r and q, double ovals as
    a per-mode focus table with pair indices and bounds).  ``primitives``
    and ``mode_labels`` are read-only sequences whose items are built when
    accessed.  Any nonempty sequence of ``Disk``, of ``QuasiOval`` or of
    ``DoubleOval`` values may be given; one that mixes them raises
    ``InputError``.
    """

    method: Method
    primitives: Sequence[RegionPrimitive]
    mode_labels: Sequence[tuple[int, ...]]

    def __post_init__(self):
        prims = self.primitives
        if not isinstance(prims, _Kind):
            prims = _pack(prims)
        labels = self.mode_labels
        if not isinstance(labels, _ModeLabels):
            labels = tuple(labels)
        if len(prims) != len(labels):
            raise InputError("one mode label tuple per primitive required")
        object.__setattr__(self, "primitives", prims)
        object.__setattr__(self, "mode_labels", labels)

    @property
    def rigorous(self) -> bool:
        return self.method in RIGOROUS_METHODS

    def bounding_box(self) -> Box:
        """The merge of the primitives' boxes, from the packed arrays; among
        equal extremes the first primitive's wins, as in ``Box.merge``."""
        xmin, xmax, ymin, ymax = self.primitives.boxes()
        return Box(
            float(xmin[np.argmin(xmin)]),
            float(xmax[np.argmax(xmax)]),
            float(ymin[np.argmin(ymin)]),
            float(ymax[np.argmax(ymax)]),
        )

    def best_margin(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Largest primitive margin at each point and the index of the first
        primitive attaining it (see ``_Kind.best_margin``)."""
        return self.primitives.best_margin(z)

    def membership_many(self, z: np.ndarray) -> np.ndarray:
        """``best_margin(z)[0] >= 0``, settled block by block where it can
        be (see ``_memberships``)."""
        return _memberships((self,), z)[0]


def _disk_pairs(method: Method, plus, minus, r_plus, r_minus) -> RegionUnion:
    """One disk about each focus of every mode, the + disk first."""
    n = len(plus)
    disks = _Disks(
        np.stack((plus, minus), axis=1).ravel(), np.stack((r_plus, r_minus), axis=1).ravel()
    )
    modes = np.repeat(np.arange(n), 2)
    return RegionUnion(method, disks, _ModeLabels(modes, modes))


def build_regions(
    form: ModalForm,
    split: ModalSplit,
    foci: ModeFoci,
    method: Method | str,
) -> RegionUnion:
    """Construct the inclusion set of the requested method.

    Undamped methods use only the modal form (foci +-i omega_j); modal,
    Brauer and modified methods take their foci and perturbation norms from
    the split.  Methods based on per-mode condition numbers are refused when
    a critically damped mode is present.  Splits with unequal in-block
    frequencies are only rigorous for MODIFIED_OVAL, which carries the
    frequency defect in its additive extension.  The union's arrays are
    filled directly; no per-primitive value is built.
    """
    method = Method(method)
    n = form.order
    D = form.D.array
    omega = form.omega
    q = 0.0

    if method.name.startswith("UNDAMPED"):
        plus, minus = 1j * omega, -1j * omega
        if method in (Method.UNDAMPED_DISK_NORM, Method.UNDAMPED_OVAL_NORM):
            ext = np.full(n, form.damping_norm)
        elif method in (Method.UNDAMPED_DISK_COLSUM, Method.UNDAMPED_OVAL_COLSUM):
            ext = np.sum(np.abs(D), axis=0)
        elif method is Method.UNDAMPED_OVAL_REL:
            ext = spectral_norm(D / np.outer(omega, omega)) * omega**2
        else:  # UNDAMPED_OVAL_RELSUM
            # The diagonal term must stay in the sum: with it this is the
            # frequency-scaled column-sum bound; without it the set misses
            # plainly damped modes already at n = 1.
            ext = np.sum(np.abs(D) / np.outer(omega, omega), axis=0) * omega**2
    else:
        if len(foci) != n or split.order != n:
            raise InputError("form, split and foci orders disagree")
        plus, minus = foci.lambda_plus, foci.lambda_minus
        rsum = split.dprime_rowsums
        if method is Method.BRAUER:
            if not split.is_diagonal_mode:
                raise InputError("double ovals require the diagonal split")
            # a single mode has no pair; its bound rsum[0]^2 is 0, leaving the
            # double oval as the bare foci
            a, b = np.triu_indices(n, 1) if n > 1 else (np.zeros(1, dtype=int),) * 2
            doubles = _DoubleOvals(plus, minus, a, b, rsum[a] * rsum[b], rsum if n > 1 else None)
            return RegionUnion(method, doubles, _ModeLabels(a, b))
        if method.name.startswith("MODAL_DISK"):
            if foci.any_critical:
                raise CriticalModePresent(
                    f"critical mode at index {int(np.argmax(foci.critical))}"
                )
            if method is Method.MODAL_DISK_APPROX:
                # advisory linearization of the oval width
                gaps = np.abs(plus - minus)
                r_plus, r_minus = (split.dprime_norm * _moduli(fs) / gaps for fs in (plus, minus))
                return _disk_pairs(method, plus, minus, r_plus, r_minus)
            smax, smin = mode_singular_values(split, foci)
            if method is Method.MODAL_DISK_NORM:
                ext = np.full(n, float(np.max(smax) / np.min(smin)) * split.dprime_norm)
            else:  # MODAL_DISK_ROWSUM
                ext = smax / smin * rsum
        elif method is Method.MODAL_OVAL_ROWSUM:
            ext = rsum
        else:  # MODAL_OVAL_NORM, MODIFIED_OVAL
            ext = np.full(n, split.dprime_norm)
            if method is Method.MODIFIED_OVAL:
                q = float(np.max(np.abs(form.omega**2 - split.omega0**2)))

    if "_DISK_" in method.name:
        return _disk_pairs(method, plus, minus, ext, ext)
    modes = np.arange(n)
    ovals = _Ovals(plus, minus, ext, np.full(n, q))
    return RegionUnion(method, ovals, _ModeLabels(modes, modes))


# ---------------------------------------------------------------------------
# Contours


# Marching squares (Lorensen & Cline, SIGGRAPH 1987).  Corner bits: 1 =
# bottom-left, 2 = bottom-right, 4 = top-right, 8 = top-left, set when the
# corner is inside.  Row c holds the segments of case c as side pairs
# (B)ottom, (R)ight, (T)op, (L)eft, -1 padded; the saddle cases 5 and 10
# become rows 16 and 17 when the cell centre is inside.
_CASES = np.array(
    [
        ["BRTL".index(side) for side in row] + [-1] * (4 - len(row))
        for row in (
            "", "LB", "BR", "LR", "RT", "LBRT", "BT", "LT", "TL",
            "TB", "LTRB", "TR", "RL", "BR", "LB", "", "LTBR", "BLTR",
        )
    ]
)


def boundary_polylines(u: RegionUnion, resolution: int = 512) -> list[list[np.ndarray]]:
    """Closed polylines tracing each primitive's boundary (marching
    squares), one list per primitive in the union's order.

    Degenerate (zero-measure) primitives yield an empty list.  Each
    primitive's grid is its padded bounding box, so every contour closes
    inside it.  Each grid edge whose ends differ in sign carries one
    crossing, numbered so that horizontal edges come first, then by column,
    then by row; every loop starts at the lowest unused crossing and leaves
    it towards the crossing's neighbour in its lower or left cell.

    Only a narrow band is evaluated (Adalsteinsson & Sethian, J. Comput.
    Phys. 118, 1995).  The primitives go in batches of CHUNK_ELEMENTS /
    (2 BLOCK_CELLS resolution) through ``_descend``: from one block over
    the whole grid, the blocks that the kind's ``variation`` bound cannot
    settle are halved down to BLOCK_CELLS x BLOCK_CELLS cells, and margins
    are evaluated only at the nodes of the undecided leaves.  The loops are
    the full grid's, bit for bit.
    """
    if resolution < 32:
        raise InputError("resolution must be at least 32")
    kind = u.primitives
    loops = [[] for _ in range(len(kind))]
    # a primitive's undecided leaves number up to about 2 * resolution, so a
    # batch's leaves cover at most about BLOCK_CELLS * CHUNK_ELEMENTS cells
    batch = max(1, CHUNK_ELEMENTS // (2 * BLOCK_CELLS * resolution))
    live = np.flatnonzero(~kind.degenerate)
    boxes = kind.boxes()
    for lo in range(0, len(live), batch):
        rows = live[lo : lo + batch]
        for i, found in zip(rows.tolist(), _trace(kind, rows, boxes, resolution)):
            loops[i] = found
    return loops


def _grid_lines(lo, hi, w: int) -> np.ndarray:
    """Row k is ``np.linspace(lo[k], hi[k], w)`` bit for bit, where hi[k] -
    lo[k] is zero or not subnormal.  linspace of the arrays is not: once any
    row's step is zero it takes every row's points as (i / (w - 1)) *
    (hi - lo) + lo in place of i * step + lo."""
    lines = np.arange(w) * ((hi - lo) / (w - 1))[:, None]
    lines += lo[:, None]
    lines[:, -1] = hi
    return lines


def _trace(kind: _Kind, rows, boxes, resolution: int) -> list[list[np.ndarray]]:
    """The loops of the kind's primitives ``rows``, a list per row, each
    traced on its bounding box padded by its own widths, which are positive
    for a primitive that is not degenerate: as ``Box.padded(0.05)`` pads a
    box whose sides are wider than rounding."""
    w = resolution + 1
    xmin, xmax, ymin, ymax = (edge[rows] for edge in boxes)
    dx = (xmax - xmin) * 0.05
    dy = (ymax - ymin) * 0.05
    xs = _grid_lines(xmin - dx, xmax + dx, w)
    ys = _grid_lines(ymin - dy, ymax + dy, w)
    for _, level, verdict in _descend(kind, rows, xs, ys, resolution, 1):
        pass  # only the last level's undecided blocks, the leaves, are traced
    leaves = tuple(level[:, verdict == 0])
    # negated margins at the undecided leaves' nodes; exact zeros count as
    # inside, so boundaries through nodes still trace
    Gs = np.empty((len(leaves[0]), BLOCK_CELLS + 1, BLOCK_CELLS + 1))
    with _quiet():
        for at, z, prim in _leaf_points(rows, xs, ys, leaves, 1):
            Gs[at] = kind.margins(z, prim)
    np.negative(Gs, out=Gs)
    Gs[Gs == 0.0] = -np.finfo(float).tiny
    keys, end_leaf = _segment_ends(Gs, leaves, w)
    first, second, prim, points = _crossings(keys, end_leaf, Gs, leaves, xs, ys, w)
    return _loops(first, second, points, prim, len(rows))


def _leaf_points(rows, xs, ys, leaves, ends: int):
    """The grid points of the leaves (k, j0, i0) of ``_descend`` in batches
    of about CHUNK_ELEMENTS: for each batch its slice of the leaves, the
    points, BLOCK_CELLS + ``ends`` per side from (j0, i0) clipped at the
    last one, as (leaves, side, side), and each leaf's primitive row as
    (leaves, 1, 1), to evaluate the kind's margins with."""
    leaf, j0, i0 = leaves
    span = np.arange(BLOCK_CELLS + ends)
    last = xs.shape[1] - 1
    step = max(1, CHUNK_ELEMENTS // len(span) ** 2)
    for lo in range(0, len(leaf), step):
        at = slice(lo, lo + step)
        row = _row_offsets(xs, leaf[at])[:, None, None]
        cols = np.minimum(i0[at, None] + span, last)[:, None, :]
        lines = np.minimum(j0[at, None] + span, last)[:, :, None]
        yield at, xs.take(row + cols) + 1j * ys.take(row + lines), rows[leaf[at, None, None]]


def _segment_ends(Gs, leaves, w: int):
    """Marching squares over the leaves' cells: a sort key for each
    segment end, each segment's two ends in a row, and the index of each
    end's leaf in Gs.

    A key is twice its edge's id plus 1 where the end's cell is the upper
    or right one of the edge's two cells.  Edge ids: horizontal edge (ix,
    iy) of the batch's k-th primitive is (2w k + ix) w + iy, its vertical
    edge w*w more, with w nodes per row.  Cells past the grid's last row or
    column lie between copies of its nodes, all outside the padded box:
    case 0.
    """
    leaf, j0, i0 = leaves
    inside = (Gs <= 0.0).view(np.int8)
    cases = inside[:, :-1, :-1] | inside[:, :-1, 1:] << 1
    cases |= inside[:, 1:, 1:] << 2 | inside[:, 1:, :-1] << 3
    cell, j, i = np.nonzero((cases != 0) & (cases != 15))
    case = cases[cell, j, i]
    centre = Gs[cell, j, i] + Gs[cell, j, i + 1]
    centre += Gs[cell, j + 1, i]
    centre += Gs[cell, j + 1, i + 1]
    centre *= 0.25
    case[(case == 5) & (centre <= 0)] = 16
    case[(case == 10) & (centre <= 0)] = 17
    # sides B, R, T, L: their edges' offsets from the cell's bottom edge,
    # doubled, plus the far-cell bit
    side_key = np.array([1, 2 * (w * w + w), 2, 2 * w * w + 1])
    segs = _CASES[case]
    base = 2 * ((2 * w * leaf[cell] + i0[cell] + i) * w + j0[cell] + j)
    valid = segs >= 0
    keys = (base[:, None] + side_key[segs])[valid]
    return keys, cell[np.flatnonzero(valid) >> 2]


def _crossings(keys, end_leaf, Gs, leaves, xs, ys, w: int):
    """Number the crossings by one sort of the segment ends' keys, which
    puts each crossing's end from its lower or left cell first.  Returns
    each crossing's first and second neighbour (-1 for none), the batch
    index of its primitive and its point, interpolated once from its edge's
    first node to its last in the leaf of its first end."""
    order = np.argsort(keys)
    edge = keys[order] >> 1
    new = np.diff(edge, prepend=-1) != 0
    crossing = np.empty_like(order)
    crossing[order] = np.cumsum(new) - 1
    partner = crossing[order ^ 1]
    heads = np.flatnonzero(new)
    twice = np.diff(np.append(heads, edge.size)) == 2
    first = partner[heads]
    second = np.where(twice, partner[heads + twice], -1)

    _, j0, i0 = leaves
    c = end_leaf[order[heads]]
    prim, edge = np.divmod(edge[heads], 2 * w * w)
    horiz = edge < w * w
    col, row = np.divmod(edge % (w * w), w)
    col1, row1 = col + horiz, row + ~horiz
    a = Gs[c, row - j0[c], col - i0[c]]
    b = Gs[c, row1 - j0[c], col1 - i0[c]]
    t = a / (a - b)
    offset = _row_offsets(xs, prim)
    x, x1 = xs.take(offset + col), xs.take(offset + col1)
    y, y1 = ys.take(offset + row), ys.take(offset + row1)
    points = np.column_stack(
        (np.where(horiz, x + t * (x1 - x), x), np.where(horiz, y, y + t * (y1 - y)))
    )
    return first, second, prim, points


def _loops(first, second, points, owner, count: int) -> list[list[np.ndarray]]:
    """Chain crossings into loops, a list of loops for each owner 0 to
    count - 1.  Crossing c neighbours first[c] and second[c] (-1 for none)
    and sits at points[c]; a loop starts at its lowest crossing, leaves it
    towards first[c] and repeats its start at its end.

    This is the order of a depth-first search over the crossings from a
    root joined to each crossing below its neighbours, in ascending order:
    the first one not yet visited is always the lowest of a new loop.  It
    relies on ``scipy.sparse.csgraph.depth_first_order`` visiting a node's
    neighbours in the graph's storage order, which scipy does not document;
    the tests that compare traced loops with the full grid's pin it.
    csgraph is imported here, so only tracing pays for loading it.
    """
    import scipy.sparse.csgraph

    n = len(first)
    index = np.arange(n)
    twice = second >= 0
    lowest = np.flatnonzero((index < first) & (~twice | (index < second)))
    near = np.column_stack((first, second)).ravel()
    indices = np.concatenate((near[near >= 0], lowest))
    indptr = np.concatenate(([0], np.cumsum(1 + twice), [len(indices)]))
    graph = scipy.sparse.csr_array((np.ones(len(indices)), indices, indptr), shape=(n + 1, n + 1))
    order, pred = scipy.sparse.csgraph.depth_first_order(graph, n, return_predecessors=True)
    order = order[1:]
    starts = np.flatnonzero(pred[order] == n)
    stops = np.append(starts[1:], n)[: len(starts)]
    vertices = points[np.insert(order, stops, order[starts])]
    loops = np.split(vertices, (stops + np.arange(1, len(stops) + 1))[:-1])
    per_owner = np.cumsum(np.bincount(owner[order[starts]], minlength=count))
    return [loops[lo:hi] for lo, hi in zip([0] + per_owner[:-1].tolist(), per_owner.tolist())]


# ---------------------------------------------------------------------------
# Rasterized component analysis


@dataclass(frozen=True)
class Component:
    """One connected component of the rasterized union."""

    index: int
    modes: tuple[int, ...]
    primitive_indices: tuple[int, ...]
    cell_count: int

    @property
    def expected_eigenvalues(self) -> int:
        return 2 * len(self.modes)


@dataclass(frozen=True)
class ComponentAnalysis:
    components: tuple[Component, ...]
    labels: np.ndarray
    box: Box
    resolution: int

    def locate(self, lam: complex) -> int | None:
        """Component index whose cells are nearest to lam: over the cells
        of components within 3 cells of lam's cell (the 7 x 7 window about
        it), the least (Chebyshev ring, squared distance, label).  None when
        lam is not finite or no component is that near."""
        if not np.isfinite(lam):
            return None
        ny, nx = self.labels.shape
        dx = (self.box.xmax - self.box.xmin) / nx
        dy = (self.box.ymax - self.box.ymin) / ny
        # clipped where the window misses the grid, so that the index is small
        ix = int(np.clip(np.floor((lam.real - self.box.xmin) / dx), -4, nx + 3))
        iy = int(np.clip(np.floor((lam.imag - self.box.ymin) / dy), -4, ny + 3))
        off = np.arange(-3, 4)
        jy, jx = iy + off, ix + off
        on_y, on_x = (jy >= 0) & (jy < ny), (jx >= 0) & (jx < nx)
        label = np.zeros((len(off), len(off)), dtype=self.labels.dtype)
        label[np.ix_(on_y, on_x)] = self.labels[np.ix_(jy[on_y], jx[on_x])]
        ring = np.maximum.outer(abs(off), abs(off))
        d2 = np.add.outer(off**2, off**2)
        # unlabelled cells last, then by ring, squared distance and label
        best = np.lexsort([key.ravel() for key in (label, d2, ring, label == 0)])[0]
        return int(label.flat[best]) - 1 if label.flat[best] else None


def component_analysis(u: RegionUnion, resolution: int = 512) -> ComponentAnalysis:
    """Flood-fill the rasterized union (4-connected) into components.

    Each component records which primitives (and hence mode indices) put
    cells into it; for per-mode oval unions the expected number of
    eigenvalues per component is twice the number of involved modes.
    Degenerate point-set primitives are rasterized as their focus cells; a
    full-measure primitive that covers no cell raises ResolutionTooCoarse.

    A cell is in a primitive's mask where the margin at its centre is
    nonnegative.  The masks come from ``_descend`` over the grid padded to
    whole leaves of BLOCK_CELLS x BLOCK_CELLS cells: blocks it certifies
    inside a primitive are filled whole, those it certifies outside stay
    empty, and only the undecided leaves' cell centres are evaluated.
    """
    import scipy.ndimage  # loaded only where components are labelled

    if resolution < 32:
        raise InputError("resolution must be at least 32")
    box = u.bounding_box().padded(0.02)
    nx = ny = resolution
    dx = (box.xmax - box.xmin) / nx
    dy = (box.ymax - box.ymin) / ny
    # cell centres over whole leaves; the cells past the grid are cropped
    B, nb = BLOCK_CELLS, -(-resolution // BLOCK_CELLS)
    side = nb * B
    cx = box.xmin + (np.arange(side) + 0.5) * dx
    cy = box.ymin + (np.arange(side) + 0.5) * dy

    # The union over the grid padded to whole leaves, viewed as (leaf row,
    # cell row, leaf column, cell column); the leaves some primitive fills
    # whole; one cell of each degenerate focus and filled block with its
    # primitive's index; and the undecided leaves' primitives, leaf rows and
    # columns, and their cells inside the primitive.
    padded = np.zeros((side, side), dtype=bool)
    blocks = padded.reshape(nb, B, nb, B)
    top = _top_size(resolution) // B
    whole = np.zeros((top, top), dtype=bool)
    kind, degenerate = u.primitives, u.primitives.degenerate
    foci = kind.foci()[degenerate]
    # each degenerate focus's cell, clipped to the grid in float, then truncated
    jx = np.clip((foci.real - box.xmin) / dx, 0, nx - 1).astype(np.intp)
    jy = np.clip((foci.imag - box.ymin) / dy, 0, ny - 1).astype(np.intp)
    padded[jy, jx] = True
    held = [(np.repeat(np.flatnonzero(degenerate), foci.shape[1]), (jy * side + jx).ravel())]
    rows = np.flatnonzero(~degenerate)
    xs, ys = cx[None, :], cy[None, :]
    for size, level, verdict in _descend(kind, rows, xs, ys, resolution, 0):
        k, j0, i0 = level[:, verdict == 1]
        held.append((rows[k], j0 * side + i0))
        f = size // B
        whole.reshape(top // f, f, top // f, f)[j0 // size, :, i0 // size, :] = True
    leaves = tuple(level[:, verdict == 0])
    inside = np.empty((len(leaves[0]), B, B), dtype=bool)
    with _quiet():
        for at, z, prim in _leaf_points(rows, xs, ys, leaves, 0):
            inside[at] = kind.margins(z, prim) >= 0.0
    owners, by, bx = rows[leaves[0]], leaves[1] // B, leaves[2] // B
    # unbuffered, as a leaf may be undecided for several primitives
    np.logical_or.at(blocks, (by, slice(None), bx, slice(None)), inside)
    # cells past the grid lie outside the padded box, so no primitive holds them
    blocks |= whole[:nb, None, :nb, None]

    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    labels, count = scipy.ndimage.label(padded, structure=structure, output=int)

    # canonical order: by smallest flat cell index, the first one in the top
    # row of each label's bounding slices; each label's cells are counted
    # in its slices
    firsts, sizes = [], []
    for label, (rows, cols) in enumerate(scipy.ndimage.find_objects(labels), start=1):
        mine = labels[rows, cols] == label
        firsts.append(rows.start * side + cols.start + int(np.argmax(mine[0])))
        sizes.append(np.count_nonzero(mine))
    order = np.argsort(np.array(firsts, dtype=int))
    cells = np.array(sizes, dtype=int)[order]
    # scipy.ndimage.label numbers features in this order in practice, but
    # does not promise it
    if np.any(order != np.arange(count)):
        remap = np.zeros(count + 1, dtype=int)
        remap[order + 1] = np.arange(1, count + 1)
        labels = remap[labels]

    # the component labels that each primitive's cells take, in batches of
    # about CHUNK_ELEMENTS cells
    hits = np.zeros((len(kind), count + 1), dtype=bool)
    positions, cells_held = (np.concatenate(v) for v in zip(*held))
    hits[positions, labels.ravel()[cells_held]] = True
    by_leaf = labels.reshape(nb, B, nb, B)
    step = max(1, CHUNK_ELEMENTS // (B * B))
    for lo in range(0, len(by), step):
        cut = slice(lo, lo + step)
        label = by_leaf[by[cut], :, bx[cut], :]
        owner = np.broadcast_to(owners[cut, None, None], label.shape)
        hits[owner[inside[cut]], label[inside[cut]]] = True
    empty = np.flatnonzero(~hits[:, 1:].any(axis=1))
    if len(empty):
        raise ResolutionTooCoarse(
            f"primitive {empty[0]} of {u.method.value} covers no cell at resolution {resolution}"
        )
    labels = np.ascontiguousarray(labels[:ny, :nx])
    components = []
    for i in range(count):
        prim_idx = tuple(np.flatnonzero(hits[:, i + 1]).tolist())
        modes = tuple(sorted({m for k in prim_idx for m in u.mode_labels[k]}))
        components.append(
            Component(
                index=i,
                modes=modes,
                primitive_indices=prim_idx,
                cell_count=int(cells[i]),
            )
        )
    labels.setflags(write=False)
    return ComponentAnalysis(tuple(components), labels, box, resolution)
