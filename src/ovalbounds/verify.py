"""Ground-truth spectrum via linearization and audits of inclusion claims."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matdense import Spectrum, complex_eig, spectral_norm
from .modal import ModalForm
from .regions import RegionUnion

#: Eigenvalues within this normalized distance of a boundary count as inside.
BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class Linearization:
    """First-order companion of the modal quadratic problem."""

    A: np.ndarray
    layout: str

    def __post_init__(self):
        a = np.ascontiguousarray(self.A, dtype=float)
        a.setflags(write=False)
        object.__setattr__(self, "A", a)


def linearize(form: ModalForm, layout: str = "block") -> Linearization:
    """Build the 2n x 2n companion matrix.

    ``block`` is [[0, W], [-W, -D]] with W = diag(omega); ``shuffled``
    interleaves the coordinates so each mode owns a 2x2 diagonal block
    [[0, w_j], [-w_j, -d_jj]] with couplings only through damping entries.
    The two layouts are permutation similar.
    """
    n = form.order
    W = np.diag(form.omega)
    D = form.D.array
    if layout == "block":
        A = np.block([[np.zeros((n, n)), W], [-W, -D]])
    elif layout == "shuffled":
        A = np.zeros((2 * n, 2 * n))
        for i in range(n):
            A[2 * i, 2 * i + 1] = form.omega[i]
            A[2 * i + 1, 2 * i] = -form.omega[i]
            for j in range(n):
                A[2 * i + 1, 2 * j + 1] = -D[i, j]
    else:
        raise ValueError(f"unknown layout {layout!r}")
    return Linearization(A, layout)


def qep_residuals(form: ModalForm, values: np.ndarray) -> np.ndarray:
    """Smallest singular value of lam^2 I + lam D + Omega^2 per eigenvalue."""
    n = form.order
    D = form.D.array
    W2 = np.diag(form.omega**2)
    out = np.empty(len(values))
    for i, lam in enumerate(values):
        P = lam * lam * np.eye(n) + lam * D + W2
        out[i] = np.linalg.svd(P, compute_uv=False)[-1]
    return out


def true_spectrum(form: ModalForm) -> Spectrum:
    """All 2n eigenvalues of the quadratic problem, with backward residuals."""
    A = linearize(form, "block").A
    values = complex_eig(A)
    return Spectrum(values, qep_residuals(form, values))


@dataclass(frozen=True)
class InclusionReport:
    """Per-eigenvalue containment audit for one region union.

    margin is the best (largest) normalized slack over the primitives;
    a negative margin beyond the boundary tolerance is a violation.
    """

    method: str
    assigned: tuple[int | None, ...]
    margins: np.ndarray
    all_contained: bool

    def __post_init__(self):
        m = np.ascontiguousarray(self.margins, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "margins", m)

    @property
    def min_margin(self) -> float:
        return float(np.min(self.margins)) if len(self.margins) else 0.0


def check_inclusion(spec: Spectrum, u: RegionUnion) -> InclusionReport:
    """Audit that every eigenvalue lies in the union.

    For each eigenvalue the margin is the maximum over primitives of
    (right side - left side) of the membership inequality, normalized by
    (1 + |lam|^2) so thresholds are scale free; the containing primitive is
    the first one attaining it.  Eigenvalues within BOUNDARY_TOL of a boundary
    count as contained.
    """
    best, index = u.best_margin(spec.values)
    margins = best / (1.0 + np.abs(spec.values) ** 2)
    assigned = tuple(
        int(k) if m >= -BOUNDARY_TOL else None for k, m in zip(index, margins)
    )
    all_contained = all(a is not None for a in assigned)
    return InclusionReport(u.method.value, assigned, margins, all_contained)


@dataclass(frozen=True)
class RegionComparison:
    """Monte Carlo area estimates and a one-sided subset audit."""

    area_first: float
    area_second: float
    subset_violations: int
    samples: int


def compare_regions(
    u1: RegionUnion, u2: RegionUnion, samples: int = 200_000, seed: int = 0
) -> RegionComparison:
    """Sample the joint bounding box uniformly (seeded, deterministic).

    Areas are box-area times hit fraction; subset_violations counts sampled
    points inside u1 but outside u2 (testing u1 contained in u2), with
    membership evaluated exactly.
    """
    box = u1.bounding_box().merge(u2.bounding_box())
    rng = np.random.default_rng(seed)
    xs = rng.uniform(box.xmin, box.xmax, samples)
    ys = rng.uniform(box.ymin, box.ymax, samples)
    z = xs + 1j * ys
    in1 = u1.membership_many(z)
    in2 = u2.membership_many(z)
    box_area = (box.xmax - box.xmin) * (box.ymax - box.ymin)
    return RegionComparison(
        area_first=float(np.mean(in1)) * box_area,
        area_second=float(np.mean(in2)) * box_area,
        subset_violations=int(np.sum(in1 & ~in2)),
        samples=samples,
    )


def layout_eigenvalue_gap(form: ModalForm) -> float:
    """Largest matched-pair distance between block and shuffled eigenvalues."""
    a = complex_eig(linearize(form, "block").A)
    b = complex_eig(linearize(form, "shuffled").A)
    return float(np.max(np.abs(a - b))) if len(a) else 0.0


def spectral_scale(form: ModalForm, lam: complex) -> float:
    """Residual normalization |lam|^2 + |lam| ||D|| + ||Omega^2||."""
    return (
        abs(lam) ** 2
        + abs(lam) * spectral_norm(form.D)
        + float(np.max(form.omega**2))
    )
