"""Ground-truth spectrum via linearization and audits of inclusion claims."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .matdense import Spectrum, _eigvals_sorted, _readonly
from .modal import ModalForm
from .regions import RegionUnion, _memberships

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
    membership evaluated exactly; the samples are binned once for both
    unions.  Fewer than one sample raises :class:`InputError`.
    """
    if samples < 1:
        raise InputError(f"samples must be at least 1, got {samples}")
    box = u1.bounding_box().merge(u2.bounding_box())
    rng = np.random.default_rng(seed)
    xs = rng.uniform(box.xmin, box.xmax, samples)
    ys = rng.uniform(box.ymin, box.ymax, samples)
    z = xs + 1j * ys
    in1, in2 = _memberships((u1, u2), z)
    box_area = (box.xmax - box.xmin) * (box.ymax - box.ymin)
    return RegionComparison(
        area_first=float(np.mean(in1)) * box_area,
        area_second=float(np.mean(in2)) * box_area,
        subset_violations=int(np.sum(in1 & ~in2)),
        samples=samples,
    )
