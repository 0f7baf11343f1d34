"""Eigenvalue inclusion regions: disks, quasi/modified Cassini ovals, double
ovals, the method constructors, and rasterized component analysis.

Membership predicates are exact (no tolerance).  Each region kind writes
its signed margin (right side minus left side of its defining inequality,
positive inside) and its bounding box once, over packed arrays; primitive
values evaluate through a one-primitive kind.  Tracing, rasterization and
sampled membership settle whole blocks of points with each kind's bound on
the margin's variation and evaluate margins only where it cannot.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.ndimage

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
        dx = max(self.xmax - self.xmin, 1e-12) * frac
        dy = max(self.ymax - self.ymin, 1e-12) * frac
        return Box(self.xmin - dx, self.xmax + dx, self.ymin - dy, self.ymax + dy)

    def contains_point(self, x: float, y: float) -> bool:
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax


class _Primitive:
    """Shared evaluation of the region primitives: a value packs itself into
    a one-primitive kind and evaluates that kind's inequality and box.  A
    point is a member exactly where its margin is nonnegative.
    """

    def margin(self, z):
        """Margin at z in chunks of CHUNK_ELEMENTS points: a numpy scalar for
        a scalar z, otherwise an array of z's shape."""
        (kind,) = _Primitives.pack((self,)).kinds
        z = np.asarray(z, dtype=complex)
        flat, out = z.ravel(), np.empty(z.size)
        for lo in range(0, z.size, CHUNK_ELEMENTS):
            out[lo : lo + CHUNK_ELEMENTS] = kind.margins(flat[lo : lo + CHUNK_ELEMENTS])[0]
        return out.reshape(z.shape)[()]

    def bounding_box(self) -> Box:
        (kind,) = _Primitives.pack((self,)).kinds
        return Box(*(float(edge[0]) for edge in kind.boxes()))

    def contains(self, lam: complex) -> bool:
        return bool(self.margin(lam) >= 0.0)


@dataclass(frozen=True)
class Disk(_Primitive):
    """{lam : |lam - center| <= radius}."""

    center: complex
    radius: float

    @property
    def is_degenerate(self) -> bool:
        return self.radius == 0.0

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
    def is_degenerate(self) -> bool:
        return self.r == 0.0 and self.q == 0.0

    @property
    def foci(self) -> tuple[complex, ...]:
        return (self.focus_plus, self.focus_minus)


@dataclass(frozen=True)
class DoubleOval(_Primitive):
    """{lam : prod_i |lam - foci[i]| <= bound |lam|^2} over two foci pairs."""

    foci: tuple[complex, complex, complex, complex]
    bound: float

    @property
    def is_degenerate(self) -> bool:
        return self.bound == 0.0


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
#: primitive count of one kind, so memory stays bounded at any union size.
#: At 2**15 the complex temporaries stay at 0.5 MB, and the widest union
#: (BRAUER, n = 200) takes one point per chunk, its fastest layout.
CHUNK_ELEMENTS = 1 << 15

#: Cells per side of the grid blocks that ``boundary_polyline`` and
#: ``component_analysis`` settle whole where a ``variation`` bound allows.
BLOCK_CELLS = 8

#: A ``variation`` bound's rounding allowance relative to the margin's terms,
#: well above the few ulps of each of the two margins and of the bound.
_ROUNDING = 256 * np.finfo(float).eps


class _Kind:
    """The primitives of one kind in a union, stored as arrays.

    ``pos`` holds each primitive's position in the union, ascending.  Each
    kind writes its inequality and box once: ``margins(z)``, the (primitives
    x points) margins at a 1-d chunk of points, ``boxes()``, the (xmin,
    xmax, ymin, ymax) arrays of the primitives' bounding boxes, and
    ``variation(z0, delta)``, a (primitives x points) bound on |m(z) - m(z0)|
    over |z - z0| <= delta, plus an allowance for rounding in both computed
    margins, at 1-d z0 and delta.  ``item(i)``
    gives its i-th primitive as a dataclass value, which evaluates through
    a one-primitive kind.
    """

    def __len__(self) -> int:
        return len(self.pos)

    def best_margin(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Largest margin of the kind at each point of the 1-d complex z and
        the union position of the first primitive attaining it."""
        best = np.empty(len(z))
        index = np.empty(len(z), dtype=int)
        step = max(1, CHUNK_ELEMENTS // len(self.pos))
        for lo in range(0, len(z), step):
            zc = z[lo : lo + step]
            m = self.margins(zc)
            k = np.argmax(m, axis=0)
            best[lo : lo + step] = np.take_along_axis(m, k[None, :], axis=0)[0]
            index[lo : lo + step] = self.pos[k]
        return best, index


class _Disks(_Kind):
    """Disks as centers and radii."""

    primitive = Disk

    def __init__(self, pos, center, radius):
        self.pos, self.center, self.radius = pos, center, radius

    @classmethod
    def pack(cls, pos, prims):
        return cls(
            pos,
            np.array([p.center for p in prims], dtype=complex),
            np.array([p.radius for p in prims], dtype=float),
        )

    def item(self, i) -> Disk:
        return Disk(complex(self.center[i]), float(self.radius[i]))

    def margins(self, z):
        return self.radius[:, None] - np.abs(z - self.center[:, None])

    def boxes(self):
        x, y, r = self.center.real, self.center.imag, self.radius
        return x - r, x + r, y - r, y + r

    def variation(self, z0, delta):
        dist = np.abs(z0 - self.center[:, None])
        return delta + _ROUNDING * (self.radius[:, None] + dist + delta)


class _Ovals(_Kind):
    """Quasi ovals as foci f+, f- with r and q."""

    primitive = QuasiOval

    def __init__(self, pos, plus, minus, r, q):
        self.pos, self.plus, self.minus, self.r, self.q = pos, plus, minus, r, q

    @classmethod
    def pack(cls, pos, prims):
        return cls(
            pos,
            np.array([p.focus_plus for p in prims], dtype=complex),
            np.array([p.focus_minus for p in prims], dtype=complex),
            np.array([p.r for p in prims], dtype=float),
            np.array([p.q for p in prims], dtype=float),
        )

    def item(self, i) -> QuasiOval:
        return QuasiOval(
            complex(self.plus[i]), complex(self.minus[i]), float(self.r[i]), float(self.q[i])
        )

    def margins(self, z):
        prod = np.abs(z - self.plus[:, None])
        prod *= np.abs(z - self.minus[:, None])
        m = np.abs(z) * self.r[:, None]
        m += self.q[:, None]
        m -= prod
        return m

    def boxes(self):
        abs_plus, abs_minus = _moduli(self.plus), _moduli(self.minus)
        f = abs_plus + abs_minus + self.r
        disc = f * f - 4.0 * np.maximum(0.0, abs_plus * abs_minus - self.q)
        R = 0.5 * (f + np.sqrt(np.maximum(disc, 0.0)))
        return -R, R, -R, R

    def variation(self, z0, delta):
        dplus = np.abs(z0 - self.plus[:, None])
        dminus = np.abs(z0 - self.minus[:, None])
        r = self.r[:, None]
        terms = (np.abs(z0) + delta) * r + self.q[:, None] + (dplus + delta) * (dminus + delta)
        return delta * (r + dplus + dminus + delta) + _ROUNDING * terms


class _DoubleOvals(_Kind):
    """Double ovals as a per-mode focus table (plus, minus), each primitive's
    two table rows (a, b) and its bound: foci plus[a], minus[a], plus[b],
    minus[b].  The distances to the table's foci are taken once per chunk
    and gathered for the pairs."""

    primitive = DoubleOval

    def __init__(self, pos, plus, minus, a, b, bound):
        self.pos, self.plus, self.minus = pos, plus, minus
        self.a, self.b, self.bound = a, b, bound

    @classmethod
    def pack(cls, pos, prims):
        foci = np.array([p.foci for p in prims], dtype=complex).reshape(-1, 2)
        rows = np.arange(len(foci))
        bound = np.array([p.bound for p in prims], dtype=float)
        return cls(pos, foci[:, 0], foci[:, 1], rows[0::2], rows[1::2], bound)

    def item(self, i) -> DoubleOval:
        a, b = self.a[i], self.b[i]
        foci = (self.plus[a], self.minus[a], self.plus[b], self.minus[b])
        return DoubleOval(tuple(map(complex, foci)), float(self.bound[i]))

    def margins(self, z):
        dplus = np.abs(z - self.plus[:, None])
        dminus = np.abs(z - self.minus[:, None])
        prod = np.take(dplus * dminus, self.a, axis=0)
        m = np.take(dplus, self.b, axis=0)
        prod *= m
        prod *= np.take(dminus, self.b, axis=0, out=m)
        np.multiply(self.bound[:, None], np.abs(z) ** 2, out=m)
        m -= prod
        return m

    def boxes(self):
        mode = np.maximum(_moduli(self.plus), _moduli(self.minus))
        m = np.maximum(mode[self.a], mode[self.b])
        half = 2.0 * m + np.sqrt(np.maximum(self.bound, 0.0))
        disc = half * half - 4.0 * m * m
        R = 0.5 * (half + np.sqrt(np.maximum(disc, 0.0)))
        return -R, R, -R, R

    def variation(self, z0, delta):
        dplus = np.abs(z0 - self.plus[:, None])
        dminus = np.abs(z0 - self.minus[:, None])
        x = [np.take(d, rows, axis=0) for rows in (self.a, self.b) for d in (dplus, dminus)]
        prod = x[0] * x[1] * x[2] * x[3]
        grown = (x[0] + delta) * (x[1] + delta) * (x[2] + delta) * (x[3] + delta)
        b, absz = self.bound[:, None], np.abs(z0)
        spread = b * delta * (2.0 * absz + delta) + (grown - prod)
        return spread + _ROUNDING * (b * (absz + delta) ** 2 + grown)


def _block_disks(x0, x1, y0, y1):
    """Centres z0 and radii delta of the disks about the rectangles
    [x0, x1] x [y0, y1], one per y range and x range, row-major by y."""
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    hx, hy = np.maximum(cx - x0, x1 - cx), np.maximum(cy - y0, y1 - cy)
    return (cx[None, :] + 1j * cy[:, None]).ravel(), np.hypot(hx[None, :], hy[:, None]).ravel()


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


def _certify(kind: _Kind, z0: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """What the kind's ``variation`` bound settles about each primitive on
    each disk |z - z0| <= delta, as int8 (primitives x disks): 1 where
    m(z0) > variation, so every point's computed margin is positive; -1
    where m(z0) < -variation, so every one is negative; 0 where undecided.
    Evaluated in chunks of about CHUNK_ELEMENTS pairs."""
    out = np.empty((len(kind), len(z0)), dtype=np.int8)
    step = max(1, CHUNK_ELEMENTS // len(kind))
    for lo in range(0, len(z0), step):
        m = kind.margins(z0[lo : lo + step])
        bound = kind.variation(z0[lo : lo + step], delta[lo : lo + step])
        block = out[:, lo : lo + step]
        block[...] = m > bound
        block -= m < -bound
    return out


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


class _Primitives(_View):
    """A union's primitives, packed by kind."""

    def __init__(self, kinds):
        self.kinds = tuple(k for k in kinds if len(k))
        self._len = sum(map(len, self.kinds))
        self._where = None

    @classmethod
    def pack(cls, prims) -> "_Primitives":
        prims = tuple(prims)
        kinds = []
        for kind in (_Disks, _Ovals, _DoubleOvals):
            pos = [k for k, p in enumerate(prims) if isinstance(p, kind.primitive)]
            if pos:
                kinds.append(kind.pack(np.array(pos), [prims[k] for k in pos]))
        packed = cls(kinds)
        if len(packed) != len(prims):
            raise InputError("region primitives must be Disk, QuasiOval or DoubleOval values")
        return packed

    def _item(self, j):
        if self._where is None:
            where = [None] * self._len
            for kind in self.kinds:
                for i, k in enumerate(kind.pos.tolist()):
                    where[k] = (kind, i)
            self._where = where
        kind, i = self._where[j]
        return kind.item(i)


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

    The primitives are stored by kind as arrays (disks as centers and radii,
    ovals as foci with r and q, double ovals as a per-mode focus table with
    pair indices and bounds).  ``primitives`` and ``mode_labels`` are
    read-only sequences whose items are built when accessed; any sequence
    of ``Disk``, ``QuasiOval`` and ``DoubleOval`` values may be given.
    """

    method: Method
    primitives: Sequence[RegionPrimitive]
    mode_labels: Sequence[tuple[int, ...]]

    def __post_init__(self):
        prims = self.primitives
        if not isinstance(prims, _Primitives):
            prims = _Primitives.pack(prims)
        labels = self.mode_labels
        if not isinstance(labels, _ModeLabels):
            labels = tuple(labels)
        if len(prims) == 0:
            raise InputError("a region union must hold at least one primitive")
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
        edges = np.empty((4, len(self.primitives)))
        for kind in self.primitives.kinds:
            edges[:, kind.pos] = kind.boxes()
        xmin, xmax, ymin, ymax = edges
        return Box(
            float(xmin[np.argmin(xmin)]),
            float(xmax[np.argmax(xmax)]),
            float(ymin[np.argmin(ymin)]),
            float(ymax[np.argmax(ymax)]),
        )

    def best_margin(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Largest primitive margin at each point and the index of the first
        primitive attaining it.  Each kind is evaluated in one vectorized
        pass over chunks of points, so memory stays O(len z)."""
        z = np.asarray(z, dtype=complex)
        best = index = None
        for kind in self.primitives.kinds:
            m, k = kind.best_margin(z.ravel())
            if best is None:
                best, index = m, k
                continue
            better = (m > best) | ((m == best) & (k < index))
            best = np.where(better, m, best)
            index = np.where(better, k, index)
        return best.reshape(z.shape), index.reshape(z.shape)

    def membership_many(self, z: np.ndarray) -> np.ndarray:
        """``best_margin(z)[0] >= 0``, settled block by block where it can be.

        The finite points are binned into g x g equal blocks over their box,
        g the cube root of their count, and each block is taken as the disk
        about its centre through its farthest point.  A block in which
        ``_certify`` puts some primitive inside is inside, one where it puts
        every primitive outside is outside: the largest of its pairs'
        verdicts is 1 or -1.  The other blocks' points and the non-finite
        points go through ``best_margin``.
        """
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        verdict = np.zeros(flat.size, dtype=np.int8)
        finite = np.isfinite(flat)
        if finite.any():
            blk, used, centre, delta = _point_blocks(flat if finite.all() else flat[finite])
            settled = np.zeros(used[-1] + 1, dtype=np.int8)
            settled[used] = np.max(
                [_certify(kind, centre, delta).max(axis=0) for kind in self.primitives.kinds],
                axis=0,
            )
            verdict[finite] = settled[blk]
        member = verdict == 1
        direct = np.flatnonzero(verdict == 0)
        member[direct] = self.best_margin(flat[direct])[0] >= 0.0
        return member.reshape(z.shape)


def _packed(method: Method, kind: _Kind, lo, hi) -> RegionUnion:
    return RegionUnion(method, _Primitives([kind]), _ModeLabels(lo, hi))


def _disk_pairs(method: Method, plus, minus, r_plus, r_minus) -> RegionUnion:
    """One disk about each focus of every mode, the + disk first."""
    n = len(plus)
    disks = _Disks(
        np.arange(2 * n),
        np.stack((plus, minus), axis=1).ravel(),
        np.stack((r_plus, r_minus), axis=1).ravel(),
    )
    modes = np.repeat(np.arange(n), 2)
    return _packed(method, disks, modes, modes)


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
            doubles = _DoubleOvals(np.arange(len(a)), plus, minus, a, b, rsum[a] * rsum[b])
            return _packed(method, doubles, a, b)
        if method.name.startswith("MODAL_DISK"):
            if foci.any_critical:
                raise CriticalModePresent(
                    f"critical mode at index {int(np.argmax(foci.critical))}"
                )
            if method is Method.MODAL_DISK_APPROX:
                # advisory linearization of the oval width; the scalar abs()
                # differs from np.abs in the last bit and fixes the radii
                gaps = np.abs(plus - minus)
                r_plus, r_minus = (
                    [split.dprime_norm * abs(f) / g for f, g in zip(fs, gaps)]
                    for fs in (plus, minus)
                )
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
    return _packed(method, _Ovals(modes, plus, minus, ext, np.full(n, q)), modes, modes)


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


def boundary_polyline(p: RegionPrimitive, resolution: int = 512) -> list[np.ndarray]:
    """Closed polylines tracing the primitive boundary (marching squares).

    Degenerate (zero-measure) primitives yield an empty list.  The grid is
    the padded bounding box, so every contour closes inside it.  Each grid
    edge whose ends differ in sign carries one crossing, numbered so that
    horizontal edges come first, then by column, then by row; every loop
    starts at the lowest unused crossing.

    Only a narrow band is evaluated (Adalsteinsson & Sethian, J. Comput.
    Phys. 118, 1995): a block of BLOCK_CELLS x BLOCK_CELLS cells whose
    centre margin exceeds its kind's ``variation`` bound has one sign at all
    its nodes and is skipped.  The loops are the full grid's, bit for bit.
    """
    if resolution < 32:
        raise InputError("resolution must be at least 32")
    if p.is_degenerate:
        return []
    (kind,) = _Primitives.pack((p,)).kinds
    box = Box(*(float(edge[0]) for edge in kind.boxes())).padded(0.05)
    xs = np.linspace(box.xmin, box.xmax, resolution + 1)
    ys = np.linspace(box.ymin, box.ymax, resolution + 1)

    # each row (column) of blocks: its node indices, clipped at the last node
    B = BLOCK_CELLS
    nodes = np.minimum(np.arange(0, resolution, B)[:, None] + np.arange(B + 1), resolution)
    n0, n1 = nodes[:, 0], nodes[:, -1]
    z0, delta = _block_disks(xs[n0], xs[n1], ys[n0], ys[n1])
    by, bx = np.divmod(np.flatnonzero(_certify(kind, z0, delta)[0] == 0), len(nodes))

    # negated margins at the other blocks' nodes, in batches of blocks
    Gs = np.empty((len(by), B + 1, B + 1))
    step = max(1, CHUNK_ELEMENTS // (B + 1) ** 2)
    for lo in range(0, len(by), step):
        rows, cols = nodes[by[lo : lo + step]], nodes[bx[lo : lo + step]]
        z = xs[cols][:, None, :] + 1j * ys[rows][:, :, None]
        Gs[lo : lo + step] = kind.margins(z.ravel())[0].reshape(z.shape)
    np.negative(Gs, out=Gs)
    # treat exact zeros as inside so boundaries through nodes still trace
    Gs[Gs == 0.0] = -np.finfo(float).tiny
    inside = (Gs <= 0.0).view(np.int8)
    cases = inside[:, :-1, :-1] | inside[:, :-1, 1:] << 1
    cases |= inside[:, 1:, 1:] << 2 | inside[:, 1:, :-1] << 3
    # Crossed cells, row-major within row-major blocks, so an edge's lower or
    # left cell comes first.  Cells past the grid's last row or column lie
    # between copies of its nodes, all outside the padded box: case 0.
    blk, j, i = np.nonzero((cases != 0) & (cases != 15))
    case = cases[blk, j, i]
    centre = 0.25 * (Gs[blk, j, i] + Gs[blk, j, i + 1] + Gs[blk, j + 1, i] + Gs[blk, j + 1, i + 1])
    case[(case == 5) & (centre <= 0)] = 16
    case[(case == 10) & (centre <= 0)] = 17

    # Edge ids: horizontal edge (ix, iy) is ix*w + iy, vertical edge (ix, iy)
    # is w*w + ix*w + iy, with w nodes per row; a cell's sides offset its key.
    w = resolution + 1
    side_offset = np.array([0, w * w + w, 1, w * w])
    segs = _CASES[case].reshape(-1, 2)
    kept = segs[:, 0] >= 0
    end_cell = np.repeat(np.flatnonzero(kept) // 2, 2)
    ends = ((bx[blk] * B + i) * w + by[blk] * B + j)[end_cell] + side_offset[segs[kept].ravel()]

    # One stable sort groups each crossing's segment ends in cell order, so a
    # crossing's first neighbour comes from its lower or left cell.
    order = np.argsort(ends, kind="stable")
    ends = ends[order]
    new = np.diff(ends, prepend=-1) != 0
    crossing = np.empty_like(order)
    crossing[order] = np.cumsum(new) - 1
    partner = crossing[order ^ 1]
    heads = np.flatnonzero(new)
    twice = np.diff(np.append(heads, ends.size)) == 2
    first = partner[heads].tolist()
    second = np.where(twice, partner[heads + twice], -1).tolist()

    # each crossing interpolated once, from its edge's first node to its last,
    # in the block of its first cell
    horiz = ends[heads] < w * w
    col, row = np.divmod(ends[heads] % (w * w), w)
    col1, row1 = col + horiz, row + ~horiz
    k = blk[end_cell[order[heads]]]
    a = Gs[k, row - by[k] * B, col - bx[k] * B]
    b = Gs[k, row1 - by[k] * B, col1 - bx[k] * B]
    t = a / (a - b)
    points = np.column_stack(
        (
            np.where(horiz, xs[col] + t * (xs[col1] - xs[col]), xs[col]),
            np.where(horiz, ys[row], ys[row] + t * (ys[row1] - ys[row])),
        )
    )

    loops = []
    used = [False] * len(first)
    for start in range(len(first)):
        if used[start]:
            continue
        loop = [start]
        used[start] = True
        prev, cur = start, first[start]
        while cur >= 0 and cur != start and not used[cur]:
            loop.append(cur)
            used[cur] = True
            prev, cur = cur, second[cur] if first[cur] == prev else first[cur]
        loops.append(points[loop + [start]])
    return loops


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
        """Component index whose cells are nearest to lam (3-cell search)."""
        ny, nx = self.labels.shape
        dx = (self.box.xmax - self.box.xmin) / nx
        dy = (self.box.ymax - self.box.ymin) / ny
        ix = int(np.floor((lam.real - self.box.xmin) / dx))
        iy = int(np.floor((lam.imag - self.box.ymin) / dy))
        for radius in range(4):
            best = None
            for jy in range(iy - radius, iy + radius + 1):
                for jx in range(ix - radius, ix + radius + 1):
                    if 0 <= jy < ny and 0 <= jx < nx and self.labels[jy, jx] > 0:
                        d2 = (jy - iy) ** 2 + (jx - ix) ** 2
                        cand = (d2, int(self.labels[jy, jx]) - 1)
                        if best is None or cand < best:
                            best = cand
            if best is not None:
                return best[1]
        return None


def component_analysis(u: RegionUnion, resolution: int = 512) -> ComponentAnalysis:
    """Flood-fill the rasterized union (4-connected) into components.

    Each component records which primitives (and hence mode indices) put
    cells into it; for per-mode oval unions the expected number of
    eigenvalues per component is twice the number of involved modes.
    Degenerate point-set primitives are rasterized as their focus cells; a
    full-measure primitive that covers no cell raises ResolutionTooCoarse.

    A cell is in a primitive's mask where the margin at its centre is
    nonnegative.  The masks are built in blocks of BLOCK_CELLS x BLOCK_CELLS
    cells: a block that ``_certify`` puts inside the primitive is filled
    whole, one it puts outside stays empty, and only the other blocks' cell
    centres are evaluated.
    """
    if resolution < 32:
        raise InputError("resolution must be at least 32")
    box = u.bounding_box().padded(0.02)
    nx = ny = resolution
    dx = (box.xmax - box.xmin) / nx
    dy = (box.ymax - box.ymin) / ny
    # cell centres over whole blocks; the cells past the grid are cropped
    B, nb = BLOCK_CELLS, -(-resolution // BLOCK_CELLS)
    cx = (box.xmin + (np.arange(nb * B) + 0.5) * dx).reshape(nb, B)
    cy = (box.ymin + (np.arange(nb * B) + 0.5) * dy).reshape(nb, B)
    z0, delta = _block_disks(cx[:, 0], cx[:, -1], cy[:, 0], cy[:, -1])

    # The union over the grid padded to whole blocks, viewed as (block row,
    # cell row, block column, cell column), and each primitive's blocks
    # filled whole and other blocks with their cells inside it.
    padded = np.zeros((nb * B, nb * B), dtype=bool)
    blocks = padded.reshape(nb, B, nb, B)
    owned = [None] * len(u.primitives)
    whole = np.zeros(nb * nb, dtype=bool)
    for kind in u.primitives.kinds:
        settled = _certify(kind, z0, delta)
        whole |= (settled == 1).any(axis=0)
        for i, k in enumerate(kind.pos.tolist()):
            p = kind.item(i)
            if p.is_degenerate:
                jx = np.array([min(max(int((f.real - box.xmin) / dx), 0), nx - 1) for f in p.foci])
                jy = np.array([min(max(int((f.imag - box.ymin) / dy), 0), ny - 1) for f in p.foci])
                padded[jy, jx] = True
                by, bx = jy // B, jx // B
                inside = np.zeros((len(jy), B, B), dtype=bool)
                inside[np.arange(len(jy)), jy % B, jx % B] = True
            else:
                by, bx = np.divmod(np.flatnonzero(settled[i] == 0), nb)
                inside = p.margin(cx[bx][:, None, :] + 1j * cy[by][:, :, None]) >= 0.0
                blocks[by, :, bx, :] |= inside
            fy, fx = np.divmod(np.flatnonzero(settled[i] == 1), nb)
            owned[k] = (fy, fx, by, bx, inside)
    # cells past the grid lie outside the padded box, so no primitive holds them
    blocks |= whole.reshape(nb, 1, nb, 1)

    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    raw_labels, count = scipy.ndimage.label(padded, structure=structure)

    # canonical order: by smallest flat cell index, the first one in the top
    # row of each label's bounding slices
    firsts = [
        rows.start * nb * B + cols.start + int(np.argmax(raw_labels[rows.start, cols] == label))
        for label, (rows, cols) in enumerate(scipy.ndimage.find_objects(raw_labels), start=1)
    ]
    order = np.argsort(np.array(firsts, dtype=int))
    remap = np.zeros(count + 1, dtype=int)
    remap[order + 1] = np.arange(1, count + 1)
    labels = remap[raw_labels]
    cells = np.bincount(labels.ravel(), minlength=count + 1)

    # cells of each primitive per component label, one standing for each
    # block filled whole, whose cells are connected
    at = labels.reshape(nb, B, nb, B)
    hits = np.stack(
        [
            np.bincount(
                np.concatenate((at[fy, 0, fx, 0], at[by, :, bx, :][inside])), minlength=count + 1
            )
            for fy, fx, by, bx, inside in owned
        ]
    )
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
                cell_count=int(cells[i + 1]),
            )
        )
    labels.setflags(write=False)
    return ComponentAnalysis(tuple(components), labels, box, resolution)
