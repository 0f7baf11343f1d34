"""Ground-truth spectrum via linearization and audits of inclusion claims."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .matdense import Spectrum, _eigvals_sorted, _readonly
from .modal import ModalForm
from .regions import RegionUnion, _raster

#: Eigenvalues within this normalized distance of a boundary count as inside.
BOUNDARY_TOL = 1e-9


def linearize(form: ModalForm) -> np.ndarray:
    """The 2n x 2n companion matrix [[0, W], [-W, -D]] with W = diag(omega)."""
    n = form.order
    W = np.diag(form.omega)
    return np.block([[np.zeros((n, n)), W], [-W, -form.D.array]])


def true_spectrum(form: ModalForm) -> Spectrum:
    """All 2n eigenvalues of the quadratic problem, sorted by (real, imag).

    The eigenvalues of the block linearization are those of
    Q(lam) = lam^2 I + lam D + Omega^2: for an eigenvector [u; x], W x = lam u
    and -W u - D x = lam x give Q(lam) x = 0.  One LAPACK ``dgeev`` call
    computes them without eigenvectors.
    """
    return Spectrum(_eigvals_sorted(linearize(form)))


@dataclass(frozen=True)
class InclusionReport:
    """Per-eigenvalue containment audit for one region union.

    margin is the best (largest) normalized slack over the primitives;
    a negative margin beyond the boundary tolerance is a violation.  worst
    is the index of the eigenvalue of least margin (the first one on a
    tie), None when there are no eigenvalues.
    """

    method: str
    assigned: tuple[int | None, ...]
    margins: np.ndarray
    all_contained: bool
    worst: int | None

    def __post_init__(self):
        object.__setattr__(self, "margins", _readonly(self.margins))

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
        k if m >= -BOUNDARY_TOL else None for k, m in zip(index.tolist(), margins.tolist())
    )
    all_contained = None not in assigned
    worst = int(np.argmin(margins)) if len(margins) else None
    return InclusionReport(u.method.value, assigned, margins, all_contained, worst)


@dataclass(frozen=True)
class RegionComparison:
    """Raster areas of two unions and a one-sided subset audit over the
    resolution x resolution cell centres of their joint bounding box, whose
    count ``samples`` holds."""

    area_first: float
    area_second: float
    subset_violations: int
    samples: int


def compare_regions(u1: RegionUnion, u2: RegionUnion, resolution: int = 512) -> RegionComparison:
    """Evaluate both unions at the cell centres of a resolution x resolution
    grid over their joint bounding box, each through ``regions._raster``.

    A cell is in a union where some primitive's margin at its centre is
    nonnegative, so the comparison is deterministic.  Areas are box-area
    times the fraction of cells in the union; subset_violations counts the
    cells in u1 but not in u2 (testing u1 contained in u2).  A joint box
    whose width, height or area is not finite, or a resolution below 32,
    raises :class:`InputError`.
    """
    with np.errstate(over="ignore"):  # regions too large for floats: checked below
        box = u1.bounding_box().merge(u2.bounding_box())
    area = (box.xmax - box.xmin) * (box.ymax - box.ymin)
    if not math.isfinite(area):  # also where the width or height is not finite
        raise InputError("the joint bounding box is not finite: its regions are too large")
    in1, in2 = (
        _raster(u.primitives, np.arange(len(u.primitives)), box, resolution)[0]
        for u in (u1, u2)
    )
    in1, in2 = in1[:resolution, :resolution], in2[:resolution, :resolution]
    first, second, escapes = (int(np.count_nonzero(m)) for m in (in1, in2, in1 & ~in2))
    cells = resolution * resolution
    return RegionComparison(first / cells * area, second / cells * area, escapes, cells)
