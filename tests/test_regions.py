import dataclasses
import itertools
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.ndimage

from ovalbounds import cli, regions
from ovalbounds.errors import CriticalModePresent, InputError, ResolutionTooCoarse
from ovalbounds.matdense import SymMatrix, spectral_norm
from ovalbounds.modal import ModalForm, modal_split, mode_foci, quadratic_roots, to_modal
from ovalbounds.verify import RegionComparison, compare_regions, true_spectrum
from ovalbounds.regions import (
    RIGOROUS_METHODS,
    Disk,
    DoubleOval,
    Method,
    QuasiOval,
    RegionUnion,
    boundary_polylines,
    build_regions,
    component_analysis,
)

from conftest import random_system


def form_from(omega, D) -> ModalForm:
    omega = np.asarray(omega, dtype=float)
    return ModalForm(np.eye(len(omega)), omega, SymMatrix(D))


def pipeline(omega, D):
    form = form_from(omega, D)
    split = modal_split(form, "diagonal")
    return form, split, mode_foci(form, split)


def boundary_polyline(p, resolution):
    """The loops of one primitive, traced as a union that holds only it."""
    (loops,) = boundary_polylines(RegionUnion(Method.MODAL_OVAL_NORM, (p,), ((0,),)), resolution)
    return loops


def sample_members(p, count, seed=0):
    """Rejection-sample points of the primitive inside its bounding box."""
    rng = np.random.default_rng(seed)
    box = p.bounding_box()
    out = []
    for _ in range(40 * count):
        z = complex(rng.uniform(box.xmin, box.xmax), rng.uniform(box.ymin, box.ymax))
        if p.contains(z):
            out.append(z)
            if len(out) == count:
                break
    return out


class TestContains:
    def test_origin_outside(self):
        assert not QuasiOval(1j, -1j, 0.3).contains(0.0)

    def test_focus_inside(self):
        assert QuasiOval(1j, -1j, 0.3).contains(1j)

    def test_near_focus_arithmetic(self):
        # |1.01i - i| |1.01i + i| = 0.01 * 2.01 = 0.0201 <= 0.3 * 1.01
        assert QuasiOval(1j, -1j, 0.3).contains(1.01j)

    def test_disk(self):
        d = Disk(-1.0 + 0j, 0.5)
        assert d.contains(-1.4 + 0j)
        assert not d.contains(-0.4 + 0j)

    def test_double_oval(self):
        p = DoubleOval((1j, -1j, 2j, -2j), 0.5)
        assert p.contains(1j)
        assert not p.contains(10.0 + 0j)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(1)
        prims = [
            QuasiOval(-0.3 + 1.2j, -0.3 - 1.2j, 0.4),
            QuasiOval(-1.0 + 0j, -2.5 + 0j, 0.3, 0.1),
            Disk(-1.5 + 0j, 0.7),
            DoubleOval((1j, -1j, -1.0 + 0j, -2.0 + 0j), 0.2),
        ]
        for p in prims:
            for _ in range(200):
                z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                assert p.contains(z) == p.contains(np.conj(z))

    def test_degenerate_is_exactly_the_foci(self):
        p = QuasiOval(1j, -1j, 0.0, 0.0)
        assert p.contains(1j) and p.contains(-1j)
        for z in (0.0, 1.0001j, -0.999j, 0.01 + 1j):
            assert not p.contains(z)

    def test_extension_monotonicity(self):
        small = QuasiOval(-0.2 + 1j, -0.2 - 1j, 0.25)
        big = QuasiOval(-0.2 + 1j, -0.2 - 1j, 0.4)
        for z in sample_members(small, 300, seed=2):
            assert big.contains(z)


# one primitive of each kind, with a modified oval among the quasi ovals
KINDS = [
    Disk(-1.5 + 0.2j, 0.7),
    QuasiOval(-0.3 + 1.2j, -0.3 - 1.2j, 0.4),
    QuasiOval(-1.0 + 0j, -2.5 + 0j, 0.3, 0.1),
    DoubleOval((1j, -1j, -1.0 + 0j, -2.0 + 0j), 0.2),
]


def grid_points(count, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-3, 3, count) + 1j * rng.uniform(-3, 3, count)


def formula_margin(p, z):
    """Right side minus left side of each primitive's inequality, written out
    per primitive with numpy as in the paper."""
    if isinstance(p, Disk):
        return p.radius - np.abs(z - p.center)
    if isinstance(p, QuasiOval):
        return (np.abs(z) * p.r + p.q) - np.abs(z - p.focus_plus) * np.abs(z - p.focus_minus)
    f1, f2, f3, f4 = p.foci
    prod = np.abs(z - f1) * np.abs(z - f2) * np.abs(z - f3) * np.abs(z - f4)
    return p.bound * np.abs(z) ** 2 - prod


class TestMargin:
    @pytest.mark.parametrize("p", KINDS, ids=lambda p: type(p).__name__)
    def test_bitwise_equals_the_formulas(self, p):
        chunk = regions.CHUNK_ELEMENTS
        line = grid_points(chunk + 1, 10)
        xs = np.linspace(-3.0, 3.0, 65)
        cases = [complex(line[0]), line[1]]
        cases += [line[:count] for count in (0, 1, chunk - 1, chunk, chunk + 1)]
        cases.append(xs[None, :] + 1j * xs[::2, None])
        for z in cases:
            got, expect = p.margin(z), formula_margin(p, z)
            assert np.shape(got) == np.shape(z)
            assert isinstance(got, np.ndarray if np.ndim(z) else np.float64)
            assert np.asarray(got).tobytes() == np.asarray(expect).tobytes()

    @pytest.mark.parametrize("p", KINDS, ids=lambda p: type(p).__name__)
    def test_scalar_equals_array(self, p):
        for z in grid_points(200, 5):
            assert p.margin(z) == p.margin(np.array([z]))[0]
            assert p.contains(z) == (p.margin(np.array([z]))[0] >= 0.0)

    def test_best_margin_is_first_column_max(self):
        u = RegionUnion(Method.MODAL_OVAL_NORM, tuple(KINDS), tuple((j,) for j in range(4)))
        z = grid_points(5000, 6)
        stacked = np.stack([p.margin(z) for p in KINDS])
        best, index = u.best_margin(z)
        assert np.array_equal(best, stacked.max(axis=0))
        assert np.array_equal(index, np.argmax(stacked, axis=0))
        assert np.array_equal(u.membership_many(z), (stacked >= 0.0).any(axis=0))

    def test_best_margin_ties_go_to_first_index(self):
        twin = Disk(0j, 1.0)
        u = RegionUnion(
            Method.UNDAMPED_DISK_NORM, (Disk(5.0 + 0j, 0.1), twin, twin), ((0,), (1,), (1,))
        )
        _, index = u.best_margin(grid_points(100, 7))
        assert np.all(index == 1)


def assert_stacked_max(u, z):
    """best_margin is bitwise the column maximum of the stacked per-primitive
    margins, at the first row attaining it."""
    best, index = u.best_margin(z)
    z = np.asarray(z, dtype=complex)
    stacked = np.stack([p.margin(z) for p in u.primitives]).reshape(len(u.primitives), -1)
    expect = np.argmax(stacked, axis=0)
    assert best.shape == index.shape == z.shape
    assert np.array_equal(index.ravel(), expect)
    chosen = stacked[expect, np.arange(stacked.shape[1])]
    assert best.ravel().tobytes() == chosen.tobytes()


def pipeline_of(form):
    split = modal_split(form)
    return form, split, mode_foci(form, split)


def system_union(n, method, seed=0):
    form = to_modal(random_system(n, seed))
    return build_regions(*pipeline_of(form), method), form


def audit_points(u, form, count=400, seed=0):
    """The spectrum plus uniform points over the union's box."""
    rng = np.random.default_rng(seed)
    box = u.bounding_box().padded(0.1)
    z = rng.uniform(box.xmin, box.xmax, count) + 1j * rng.uniform(box.ymin, box.ymax, count)
    return np.concatenate([true_spectrum(form).values, z])


class TestPackedUnion:
    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    def test_brauer_equals_stacked_margins(self, n):
        u, form = system_union(n, Method.BRAUER, seed=n)
        assert len(u.primitives) == max(n * (n - 1) // 2, 1)
        if n == 1:
            assert u.mode_labels == ((0,),)
        assert_stacked_max(u, audit_points(u, form, seed=n))

    @pytest.mark.parametrize(
        "method", [m for m in Method if m is not Method.BRAUER], ids=lambda m: m.value
    )
    def test_oval_and_disk_methods_equal_stacked_margins(self, method):
        u, form = system_union(6, method, seed=3)
        assert_stacked_max(u, audit_points(u, form, seed=4))

    def test_mixed_kinds(self):
        prims = tuple(KINDS) + tuple(reversed(KINDS))
        u = RegionUnion(Method.MODAL_OVAL_NORM, prims, tuple((j,) for j in range(len(prims))))
        assert_stacked_max(u, grid_points(3000, 8))
        assert_stacked_max(u, grid_points(60, 9).reshape(3, 4, 5))

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_ties_across_kinds_go_to_the_lowest_index(self, order):
        # all three margins are exactly 1.0 at z = 1j
        tied = [Disk(1j, 1.0), QuasiOval(1j, -1j, 0.0, 1.0), DoubleOval((1j, -1j, 2j, 3j), 1.0)]
        prims = (Disk(5.0 + 0j, 0.1),) + tuple(tied[k] for k in order)
        u = RegionUnion(Method.MODAL_OVAL_NORM, prims, tuple((j,) for j in range(4)))
        assert all(p.margin(1j) == 1.0 for p in tied)
        best, index = u.best_margin(np.array([1j, 5.0 + 0j]))
        assert best[0] == 1.0 and index[0] == 1
        assert index[1] == 0

    def test_point_counts_around_the_chunk(self):
        u, form = system_union(12, Method.BRAUER, seed=5)
        chunk = regions.CHUNK_ELEMENTS // len(u.primitives)
        z = audit_points(u, form, count=chunk + 1, seed=6)[: chunk + 1]
        for count in (0, 1, chunk - 1, chunk, chunk + 1):
            assert_stacked_max(u, z[:count])
        mixed = RegionUnion(
            Method.MODAL_OVAL_NORM, tuple(u.primitives) + tuple(KINDS), tuple(u.mode_labels) + ((0,),) * 4
        )
        for count in (0, 1, chunk - 1, chunk, chunk + 1):
            assert_stacked_max(mixed, z[:count])

    @pytest.mark.parametrize("method", [Method.BRAUER, Method.MODAL_OVAL_ROWSUM, Method.MODAL_DISK_ROWSUM])
    def test_replace_with_primitive_values_keeps_margins(self, method):
        u, form = system_union(7, method, seed=2)
        again = dataclasses.replace(u, primitives=tuple(u.primitives))
        assert again == u
        assert again.mode_labels == u.mode_labels
        z = audit_points(u, form, seed=3)
        for a, b in zip(u.best_margin(z), again.best_margin(z)):
            assert a.tobytes() == b.tobytes()

    def test_views_are_read_only_sequences(self):
        u, _ = system_union(4, Method.BRAUER)
        assert u.mode_labels == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        assert u.primitives[-1] == u.primitives[5] == tuple(u.primitives)[5]
        assert u.primitives[1:3] == tuple(u.primitives)[1:3]
        with pytest.raises(IndexError):
            u.primitives[6]
        with pytest.raises(TypeError):
            u.primitives[0] = u.primitives[1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            u.primitives = ()

    def test_build_and_audit_make_no_primitive_values(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("primitive value built")

        form = to_modal(random_system(9, 0))
        z = true_spectrum(form).values
        expect = {m: build_regions(*pipeline_of(form), m).best_margin(z) for m in Method}
        for cls in ("Disk", "QuasiOval", "DoubleOval"):
            monkeypatch.setattr(regions, cls, refuse)
        for method in Method:
            u = build_regions(*pipeline_of(form), method)
            assert len(u.primitives) == len(u.mode_labels) > 0
            for a, b in zip(u.best_margin(z), expect[method]):
                assert a.tobytes() == b.tobytes()

    def test_unknown_primitive_refused(self):
        with pytest.raises(InputError):
            RegionUnion(Method.MODAL_OVAL_NORM, (object(),), ((0,),))

    def test_random_primitive_tuples(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        coord = st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False)
        point = st.builds(complex, coord, coord)
        size = st.floats(0.0, 4.0, allow_nan=False, allow_subnormal=False)
        primitive = st.one_of(
            st.builds(Disk, point, size),
            st.builds(QuasiOval, point, point, size, size),
            st.builds(DoubleOval, st.tuples(point, point, point, point), size),
        )

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(st.lists(primitive, min_size=1, max_size=12), st.lists(point, max_size=30))
        def check(prims, zs):
            u = RegionUnion(Method.MODAL_OVAL_NORM, tuple(prims), tuple((0,) for _ in prims))
            assert tuple(u.primitives) == tuple(prims)
            # at their own foci, repeated and degenerate primitives tie exactly
            assert_stacked_max(u, np.array(zs + [p.foci[0] for p in prims], dtype=complex))

        check()


class TestBoundingBox:
    def test_disk_exact(self):
        b = Disk(-1.0 + 0j, 0.5).bounding_box()
        assert (b.xmin, b.xmax, b.ymin, b.ymax) == (-1.5, -0.5, -0.5, 0.5)

    def test_oval_formula(self):
        p = QuasiOval(1j, -1j, 0.3)
        expect = 0.5 * (2.3 + np.sqrt(2.3**2 - 4.0))
        assert p.bounding_box().xmax == pytest.approx(expect)

    def test_members_inside_box(self):
        prims = [
            QuasiOval(1j, -1j, 0.3),
            QuasiOval(-0.5 + 0.9j, -0.5 - 0.9j, 0.8, 0.3),
            DoubleOval((1j, -1j, 2j, -2j), 1.5),
        ]
        for p in prims:
            box = p.bounding_box()
            # sample just outside the modulus bound: no members there
            for z in sample_members(p, 400, seed=3):
                assert box.xmin <= z.real <= box.xmax and box.ymin <= z.imag <= box.ymax

    def test_degenerate_contains_foci(self):
        p = QuasiOval(1j, -1j, 0.0)
        box = p.bounding_box()
        assert box.xmin <= 0.0 <= box.xmax and box.ymin <= -1.0 and 1.0 <= box.ymax

    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    def test_union_box_bitwise_equals_merged_primitive_boxes(self, n):
        def scalar_box(p):
            # the per-primitive formulas with Python scalars
            if isinstance(p, Disk):
                return p.bounding_box()
            if isinstance(p, QuasiOval):
                a, b = abs(p.focus_plus), abs(p.focus_minus)
                f = a + b + p.r
                disc = f * f - 4.0 * max(0.0, a * b - p.q)
                R = 0.5 * (f + np.sqrt(max(disc, 0.0)))
            else:
                m = max(abs(f) for f in p.foci)
                half = 2.0 * m + np.sqrt(max(p.bound, 0.0))
                disc = half * half - 4.0 * m * m
                R = 0.5 * (half + np.sqrt(max(disc, 0.0)))
            return regions.Box(-R, R, -R, R)

        def as_bytes(box):
            return np.array([box.xmin, box.xmax, box.ymin, box.ymax]).tobytes()

        form = to_modal(random_system(n, n, gamma=0.3))
        for method in Method:
            split = modal_split(form, "maximal" if method is Method.MODIFIED_OVAL else "diagonal")
            u = build_regions(form, split, mode_foci(form, split), method)
            boxes = [scalar_box(p) for p in u.primitives]
            for p, box in zip(u.primitives, boxes):
                assert as_bytes(p.bounding_box()) == as_bytes(box)
            merged = boxes[0]
            for box in boxes[1:]:
                merged = merged.merge(box)
            assert as_bytes(u.bounding_box()) == as_bytes(merged), method


class TestBuildRegions:
    def test_diagonal_damping_degenerate_ovals(self):
        form, split, foci = pipeline([1.0, 2.0], np.diag([0.3, 0.4]))
        u = build_regions(form, split, foci, Method.MODAL_OVAL_NORM)
        assert all(isinstance(p, QuasiOval) and p.r == 0.0 for p in u.primitives)

    def test_modal_oval_extension_from_coupling(self):
        form, split, foci = pipeline([1.0, 2.0], np.array([[1.0, 0.2], [0.2, 2.0]]))
        u = build_regions(form, split, foci, Method.MODAL_OVAL_NORM)
        assert len(u.primitives) == 2
        for j, p in enumerate(u.primitives):
            assert p.r == pytest.approx(0.2)
            assert p.focus_plus == pytest.approx(complex(foci.lambda_plus[j]))
            assert p.focus_minus == pytest.approx(complex(foci.lambda_minus[j]))

    def test_undamped_counts_and_extensions(self):
        D = np.array([[1.0, 0.5], [0.5, 2.0]])
        form, split, foci = pipeline([1.0, 2.0], D)
        norm = spectral_norm(D)
        u = build_regions(form, split, foci, Method.UNDAMPED_DISK_NORM)
        assert len(u.primitives) == 4
        assert all(p.radius == pytest.approx(norm) for p in u.primitives)
        assert {p.center for p in u.primitives} == {1j, -1j, 2j, -2j}

        u = build_regions(form, split, foci, Method.UNDAMPED_DISK_COLSUM)
        assert [p.radius for p in u.primitives[:2]] == [pytest.approx(1.5)] * 2
        assert [p.radius for p in u.primitives[2:]] == [pytest.approx(2.5)] * 2

        u = build_regions(form, split, foci, Method.UNDAMPED_OVAL_NORM)
        assert len(u.primitives) == 2
        assert all(p.r == pytest.approx(norm) for p in u.primitives)

        u = build_regions(form, split, foci, Method.UNDAMPED_OVAL_COLSUM)
        assert [p.r for p in u.primitives] == [pytest.approx(1.5), pytest.approx(2.5)]

        u = build_regions(form, split, foci, Method.UNDAMPED_OVAL_REL)
        scaled = D / np.outer([1.0, 2.0], [1.0, 2.0])
        s = spectral_norm(scaled)
        assert [p.r for p in u.primitives] == [pytest.approx(s), pytest.approx(4 * s)]

        u = build_regions(form, split, foci, Method.UNDAMPED_OVAL_RELSUM)
        # scaled column sums keep the diagonal term
        r0 = (1.0 / 1.0 + 0.5 / 2.0) * 1.0
        r1 = (0.5 / 2.0 + 2.0 / 4.0) * 4.0
        assert [p.r for p in u.primitives] == [pytest.approx(r0), pytest.approx(r1)]

    def test_modal_disks_use_explicit_condition_numbers(self):
        form, split, foci = pipeline([1.0, 2.0], np.array([[1.0, 0.2], [0.2, 2.0]]))
        u = build_regions(form, split, foci, Method.MODAL_DISK_NORM)
        assert len(u.primitives) == 4
        radii = {p.radius for p in u.primitives}
        assert len(radii) == 1
        (radius,) = radii
        # honest condition number exceeds the closed-form report
        assert radius >= float(np.max(foci.kappa)) * split.dprime_norm - 1e-12

        u = build_regions(form, split, foci, Method.MODAL_DISK_ROWSUM)
        from ovalbounds.modal import mode_singular_values

        smax, smin = mode_singular_values(split, foci)
        kappas = smax / smin
        rsums = np.sum(np.abs(split.Dprime.array), axis=1)
        for j in range(2):
            assert u.primitives[2 * j].radius == pytest.approx(kappas[j] * rsums[j])

    def test_modal_disk_rejects_critical(self):
        form, split, foci = pipeline([1.0, 2.0], np.diag([2.0, 1.0]))
        assert foci.any_critical
        for method in (Method.MODAL_DISK_NORM, Method.MODAL_DISK_ROWSUM, Method.MODAL_DISK_APPROX):
            with pytest.raises(CriticalModePresent):
                build_regions(form, split, foci, method)

    def test_brauer_counts(self):
        form, split, foci = pipeline([1.0, 2.0, 3.0], np.eye(3) + 0.1)
        u = build_regions(form, split, foci, Method.BRAUER)
        assert len(u.primitives) == 3
        assert u.mode_labels == ((0, 1), (0, 2), (1, 2))

    def test_brauer_single_mode_degenerate(self):
        form, split, foci = pipeline([1.0], np.array([[0.5]]))
        u = build_regions(form, split, foci, Method.BRAUER)
        assert len(u.primitives) == 1
        assert u.primitives[0].bound == 0.0
        assert u.primitives[0].contains(complex(foci.lambda_plus[0]))

    def test_brauer_requires_diagonal_split(self):
        form = form_from([1.0, 1.0], np.array([[1.0, 0.3], [0.3, 1.0]]))
        msplit = modal_split(form, "maximal")
        foci = mode_foci(form, msplit)
        with pytest.raises(InputError):
            build_regions(form, msplit, foci, Method.BRAUER)

    def test_modified_oval_carries_frequency_defect(self):
        form = form_from([1.0, 1.01], np.array([[1.0, 0.3], [0.3, 1.0]]))
        split = modal_split(form, "maximal", reltol=0.05)
        foci = mode_foci(form, split)
        u = build_regions(form, split, foci, Method.MODIFIED_OVAL)
        znorm = float(np.max(np.abs(form.omega**2 - split.omega0**2)))
        assert znorm > 0.0
        assert all(p.q == pytest.approx(znorm) for p in u.primitives)

    def test_approx_method_not_rigorous(self):
        form, split, foci = pipeline([1.0, 2.0], np.array([[1.0, 0.2], [0.2, 2.0]]))
        u = build_regions(form, split, foci, Method.MODAL_DISK_APPROX)
        assert not u.rigorous
        assert Method.MODAL_DISK_APPROX not in RIGOROUS_METHODS
        assert len(RIGOROUS_METHODS) == len(Method) - 1

    def test_sign_gauge_leaves_extensions_invariant(self):
        sys_ = random_system(4, 99)
        form = to_modal(sys_)
        signs = np.diag([1.0, -1.0, 1.0, -1.0])
        flipped = ModalForm(
            form.Phi @ signs, form.omega, SymMatrix(signs @ form.D.array @ signs)
        )
        for method in (Method.UNDAMPED_OVAL_COLSUM, Method.MODAL_OVAL_ROWSUM):
            u1 = build_regions(form, modal_split(form), mode_foci(form, modal_split(form)), method)
            u2 = build_regions(
                flipped, modal_split(flipped), mode_foci(flipped, modal_split(flipped)), method
            )
            for p1, p2 in zip(u1.primitives, u2.primitives):
                assert p1.r == pytest.approx(p2.r, abs=1e-13)


# figure panels: (d, r) with omega = 1; the d = 1.7 and 2.3 panels sit exactly
# on the tangency configuration |lam^2 + d lam + 1| = r |lam| at lam = -1, so
# their rasterized counts are the frozen oracle answers for that edge.
FIGURE_PANELS = [
    (0.1, 0.3, 2, 2),
    (1.0, 0.3, 2, 2),
    (1.7, 0.3, 1, 2),
    (2.3, 0.3, 2, 1),
    (2.2, 0.1, 2, 2),
]


def full_grid_polyline(p, resolution):
    """The tracer over the full grid of nodes, which the narrow band
    replaced: the reference for its loops, bit for bit."""
    if p.is_degenerate:
        return []
    box = p.bounding_box().padded(0.05)
    xs = np.linspace(box.xmin, box.xmax, resolution + 1)
    ys = np.linspace(box.ymin, box.ymax, resolution + 1)
    Gs = -p.margin(xs[None, :] + 1j * ys[:, None])
    Gs[Gs == 0.0] = -np.finfo(float).tiny
    inside = (Gs <= 0.0).view(np.int8)
    cases = inside[:-1, :-1] | inside[:-1, 1:] << 1 | inside[1:, 1:] << 2 | inside[1:, :-1] << 3
    centre_inside = 0.25 * (((Gs[:-1, :-1] + Gs[:-1, 1:]) + Gs[1:, :-1]) + Gs[1:, 1:]) <= 0
    cases[(cases == 5) & centre_inside] = 16
    cases[(cases == 10) & centre_inside] = 17

    w = resolution + 1
    side_offset = np.array([0, w * w + w, 1, w * w])
    iy, ix = np.nonzero((cases != 0) & (cases != 15))
    segs = regions._CASES[cases[iy, ix]].reshape(-1, 2)
    ends = (np.repeat(ix * w + iy, 2)[:, None] + side_offset[segs])[segs[:, 0] >= 0].ravel()
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

    horiz = ends[heads] < w * w
    col, row = np.divmod(ends[heads] % (w * w), w)
    col1, row1 = col + horiz, row + ~horiz
    a, b = Gs[row, col], Gs[row1, col1]
    t = a / (a - b)
    points = np.column_stack(
        (
            np.where(horiz, xs[col] + t * (xs[col1] - xs[col]), xs[col]),
            np.where(horiz, ys[row], ys[row] + t * (ys[row1] - ys[row])),
        )
    )
    loops, used = [], [False] * len(first)
    for start in range(len(first)):
        if used[start]:
            continue
        loop, used[start] = [start], True
        prev, cur = start, first[start]
        while cur >= 0 and cur != start and not used[cur]:
            loop.append(cur)
            used[cur] = True
            prev, cur = cur, second[cur] if first[cur] == prev else first[cur]
        loops.append(points[loop + [start]])
    return loops


class TestBoundaryPolyline:
    @pytest.mark.parametrize("resolution", [32, 33, 64, 512])
    @pytest.mark.parametrize("n,seed", [(1, 0), (3, 2), (6, 4)])
    def test_equals_the_full_grid_tracer(self, n, seed, resolution):
        form = to_modal(random_system(n, seed))
        prims = [
            QuasiOval(f, -f, 0.0, q)
            for f in (complex(np.exp(1j * np.pi / 4)), complex(np.exp(-1j * np.pi / 4)))
            for q in (0.995, 1.0)
        ]
        for method in Method:
            try:
                prims += build_regions(*pipeline_of(form), method).primitives
            except CriticalModePresent:
                continue
        for p in prims:
            loops, reference = boundary_polyline(p, resolution), full_grid_polyline(p, resolution)
            assert len(loops) == len(reference)
            assert all(np.array_equal(a, b) for a, b in zip(loops, reference))

    @pytest.mark.parametrize("resolution", [32, 33, 64, 512])
    @pytest.mark.parametrize("n,seed", [(1, 0), (3, 2), (6, 4)])
    def test_unions_equal_the_full_grid_tracer(self, n, seed, resolution):
        # every method's union, the bare foci with disks, and one union of
        # all three kinds interleaved with degenerate primitives: each
        # primitive's loops are the full grid's, in the union's order
        unions = all_unions(n, seed)
        mixed = [p for u in unions for p in u.primitives[:3]]
        mixed += [QuasiOval(0.5j, -0.5j, 0.0), Disk(1.0 + 0j, 0.0), DoubleOval((1j, -1j, 2j, -2j), 0.0)]
        mixed = mixed[::2] + mixed[1::2]
        unions.append(RegionUnion(Method.MODAL_OVAL_NORM, mixed, [(0,)] * len(mixed)))
        for u in unions:
            traced = boundary_polylines(u, resolution)
            assert len(traced) == len(u.primitives)
            for p, loops in zip(u.primitives, traced):
                reference = full_grid_polyline(p, resolution)
                assert len(loops) == len(reference)
                assert all(np.array_equal(a, b) for a, b in zip(loops, reference))

    def test_svg_equals_an_emission_from_full_grid_loops(self, tmp_path, monkeypatch):
        form = to_modal(random_system(6, 4))
        unions = [
            build_regions(*pipeline_of(form), m)
            for m in (Method.MODAL_OVAL_NORM, Method.BRAUER, Method.MODAL_DISK_ROWSUM)
        ]
        spectrum = true_spectrum(form)
        cli.emit_svg(unions, spectrum, tmp_path / "union.svg", 512)
        monkeypatch.setattr(
            cli,
            "boundary_polylines",
            lambda u, resolution: [full_grid_polyline(p, resolution) for p in u.primitives],
        )
        cli.emit_svg(unions, spectrum, tmp_path / "full.svg", 512)
        assert (tmp_path / "union.svg").read_bytes() == (tmp_path / "full.svg").read_bytes()

    def test_union_temporaries_stay_small(self):
        # batches of primitives bound the union tracer's temporaries as
        # component_analysis's are bounded; 4.2 to 4.8 MB on these unions
        for seed in (0, 1, 3):
            union, _ = system_union(12, Method.BRAUER, seed=seed)
            tracemalloc.start()
            try:
                boundary_polylines(union, 512)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 6e6

    def test_csgraph_loaded_only_by_tracing(self):
        # the chaining's scipy.sparse.csgraph adds 1-2 MB of peak RSS, which
        # commands that draw nothing should not pay; likewise scipy.ndimage,
        # which only component_analysis uses, and scipy.io and scipy.sparse,
        # which only read_matrix_market uses: no command calls either
        deferred = ["scipy.sparse.csgraph", "scipy.sparse", "scipy.ndimage", "scipy.io"]
        code = f"import sys, ovalbounds.cli; print([m for m in {deferred} if m in sys.modules])"
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(regions.__file__))}
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert run.stdout.strip() == "[]"

    def test_disk_radial_deviation(self):
        disk = Disk(0j, 1.0)
        loops = boundary_polyline(disk, 256)
        assert len(loops) == 1
        pts = loops[0]
        assert np.allclose(pts[0], pts[-1])
        radii = np.hypot(pts[:, 0], pts[:, 1])
        box = disk.bounding_box().padded(0.05)
        cell = (box.xmax - box.xmin) / 256
        assert np.max(np.abs(radii - 1.0)) <= 2 * cell

    def test_degenerate_empty(self):
        assert boundary_polyline(QuasiOval(1j, -1j, 0.0), 128) == []

    def test_rejects_low_resolution(self):
        with pytest.raises(InputError):
            boundary_polyline(Disk(0j, 1.0), 16)

    @pytest.mark.parametrize("d,r,_,loops", FIGURE_PANELS)
    def test_figure_loop_counts(self, d, r, _, loops):
        lp, lm = quadratic_roots(d, 1.0)
        assert len(boundary_polyline(QuasiOval(lp, lm, r), 512)) == loops

    @pytest.mark.parametrize("method", [Method.MODAL_OVAL_NORM, Method.BRAUER, Method.MODAL_DISK_ROWSUM])
    def test_temporaries_stay_small(self, method):
        # At 8.7 MB (a full complex grid plus copies) the temporaries sat at
        # glibc's heap trim threshold, about 8.4 MB here, and repeated calls
        # switched between reusing their memory and faulting it in again.
        # The narrow band peaks at 1.4 to 3.0 MB, in its batches of nodes.
        union, _ = system_union(8, method, seed=1)
        p = next(q for q in union.primitives if not q.is_degenerate)
        tracemalloc.start()
        try:
            boundary_polyline(p, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5e6

    def test_margins_only_in_a_narrow_band(self, monkeypatch):
        union, _ = system_union(8, Method.MODAL_OVAL_NORM, seed=1)
        evaluated = []
        margins = regions._Ovals.margins

        def counting(kind, z, rows=None):
            evaluated.append(z.size if rows is not None else len(kind) * z.size)
            return margins(kind, z, rows)

        monkeypatch.setattr(regions._Ovals, "margins", counting)
        assert boundary_polyline(union.primitives[0], 512)
        assert sum(evaluated) < 0.1 * 513**2
        evaluated.clear()
        assert all(boundary_polylines(union, 512))
        assert sum(evaluated) < 0.1 * 513**2 * len(union.primitives)

    @pytest.mark.parametrize("resolution", [33, 512])
    @pytest.mark.parametrize("n,seed", [(1, 0), (3, 2), (6, 4)])
    def test_certified_blocks_have_one_sign(self, monkeypatch, n, seed, resolution):
        # every block the descent certifies has its verdict's sign at all its
        # nodes of each primitive's full grid, whose last node stands in for
        # the clipped ones; degenerate primitives are never descended
        calls = []
        descend = regions._descend

        def recording(kind, rows, xs, ys, cells, ends):
            levels = []
            calls.append((kind, rows, xs, ys, levels))
            for level in descend(kind, rows, xs, ys, cells, ends):
                levels.append(level)
                yield level

        monkeypatch.setattr(regions, "_descend", recording)
        form = to_modal(random_system(n, seed))
        certified_blocks = 0
        for method in Method:
            try:
                union = build_regions(*pipeline_of(form), method)
            except CriticalModePresent:
                continue
            calls.clear()
            boundary_polylines(union, resolution)
            traced = sum(len(rows) for _, rows, *_ in calls)
            assert traced == sum(not p.is_degenerate for p in union.primitives)
            for kind, rows, xs, ys, levels in calls:
                grids = []
                for row, gx, gy in zip(rows.tolist(), xs, ys):
                    p = kind.item(row)
                    assert not p.is_degenerate
                    box = p.bounding_box().padded(0.05)
                    assert np.array_equal(gx, np.linspace(box.xmin, box.xmax, resolution + 1))
                    assert np.array_equal(gy, np.linspace(box.ymin, box.ymax, resolution + 1))
                    grids.append(p.margin(gx[None, :] + 1j * gy[:, None]))
                for size, blocks, verdict in levels:
                    settled = verdict != 0
                    for (k, j0, i0), v in zip(blocks[:, settled].T.tolist(), verdict[settled]):
                        nodes = grids[k][j0 : j0 + size + 1, i0 : i0 + size + 1]
                        assert np.all(nodes > 0) if v == 1 else np.all(nodes < 0)
                        certified_blocks += 1
        assert certified_blocks > 0

    def test_points_on_implicit_zero(self):
        p = QuasiOval(-0.5 + 0.9j, -0.5 - 0.9j, 0.35)
        box = p.bounding_box().padded(0.05)
        cell = (box.xmax - box.xmin) / 512
        # Lipschitz constant of the margin is bounded by a few units here
        for loop in boundary_polyline(p, 512):
            vals = np.array([p.margin(complex(x, y)) for x, y in loop[:-1]])
            assert np.max(np.abs(vals)) <= 10 * cell

    @pytest.mark.parametrize("sign,case", [(1, 5), (-1, 10)])
    @pytest.mark.parametrize("resolution", [33, 35])
    @pytest.mark.parametrize("q", [0.995, 1.0])
    def test_saddle_cell(self, sign, case, resolution, q):
        # |lam^2 - f^2| <= q with f^2 = +-i: a lemniscate at q = 1 whose
        # crossing point sits in the centre of one saddle cell, two ovals below
        f = complex(np.exp(sign * 1j * np.pi / 4))
        p = QuasiOval(f, -f, 0.0, q)
        box = p.bounding_box().padded(0.05)
        xs = np.linspace(box.xmin, box.xmax, resolution + 1)
        ys = np.linspace(box.ymin, box.ymax, resolution + 1)
        G = -p.margin(xs[None, :] + 1j * ys[:, None])
        G[G == 0.0] = -np.finfo(float).tiny  # exact zeros count as inside
        inside = G < 0.0
        cases = inside[:-1, :-1] + 2 * inside[:-1, 1:] + 4 * inside[1:, 1:] + 8 * inside[1:, :-1]
        (iy,), (ix,) = np.nonzero((cases == 5) | (cases == 10))
        assert cases[iy, ix] == case
        centre_inside = 0.25 * (G[iy, ix] + G[iy, ix + 1] + G[iy + 1, ix] + G[iy + 1, ix + 1]) <= 0
        assert centre_inside == (q == 1.0)

        loops = boundary_polyline(p, resolution)
        assert len(loops) == (1 if centre_inside else 2)

        # every sign-changing grid edge gives exactly one vertex on one loop
        expected = []
        h = np.nonzero(inside[:, :-1] != inside[:, 1:])
        a, b = G[h], G[h[0], h[1] + 1]
        expected += zip(xs[h[1]] + a / (a - b) * (xs[h[1] + 1] - xs[h[1]]), ys[h[0]])
        v = np.nonzero(inside[:-1, :] != inside[1:, :])
        a, b = G[v], G[v[0] + 1, v[1]]
        expected += zip(xs[v[1]], ys[v[0]] + a / (a - b) * (ys[v[0] + 1] - ys[v[0]]))
        vertices = [tuple(pt) for loop in loops for pt in loop[:-1]]
        assert sorted(vertices) == sorted(expected)

        # every loop closes, and each of its steps stays inside one grid cell
        for loop in loops:
            assert np.array_equal(loop[0], loop[-1])
            mid = 0.5 * (loop[1:] + loop[:-1])
            jx = np.searchsorted(xs, mid[:, 0]) - 1
            jy = np.searchsorted(ys, mid[:, 1]) - 1
            for end in (loop[1:], loop[:-1]):
                assert np.all((xs[jx] <= end[:, 0]) & (end[:, 0] <= xs[jx + 1]))
                assert np.all((ys[jy] <= end[:, 1]) & (end[:, 1] <= ys[jy + 1]))


def scaled_kinds(s):
    """A packed kind of each sort, its primitives scaled by s: regions
    and margins map to s times themselves (double ovals' margins to s**4)."""
    kinds = (
        (Disk(0.3 - 2j, 0.7), Disk(-1.0 + 0j, 0.05), Disk(2j, 3.0)),
        (
            QuasiOval(-0.1 + 1j, -0.1 - 1j, 0.4),
            QuasiOval(-0.5 + 0j, -2.0 + 0j, 0.1, 0.3),
            QuasiOval(-1e-3 + 3j, -1e-3 - 3j, 1e-4),
        ),
        (
            DoubleOval((-0.1 + 1j, -0.1 - 1j, -0.3 + 2j, -0.3 - 2j), 0.5),
            DoubleOval((-1.0 + 0j, -3.0 + 0j, -0.2 + 0.5j, -0.2 - 0.5j), 2.0),
        ),
    )
    scaled = [
        [Disk(s * p.center, s * p.radius) for p in kinds[0]],
        [QuasiOval(s * p.focus_plus, s * p.focus_minus, s * p.r, s * s * p.q) for p in kinds[1]],
        [DoubleOval(tuple(s * f for f in p.foci), s * s * p.bound) for p in kinds[2]],
    ]
    return [regions._Primitives.pack(prims).kinds[0] for prims in scaled]


class TestVariation:
    @pytest.mark.parametrize("s", [1e-4, 1.0, 1e4])
    @pytest.mark.parametrize("which", [0, 1, 2], ids=["disks", "ovals", "double_ovals"])
    def test_bounds_the_margin_change(self, which, s):
        # |m(z) - m(z0)| <= variation(z0, delta) for |z - z0| <= delta, at
        # random points, at and next to the foci and next to 0, for delta
        # from 1e-6 to 1e3 times the scale
        kind = scaled_kinds(s)[which]
        rng = np.random.default_rng(which)
        foci = np.array([f for i in range(len(kind)) for f in kind.item(i).foci])
        count = 400
        jitter = s * 1e-9 * (rng.normal(size=count) + 1j * rng.normal(size=count))
        z0 = np.concatenate(
            [
                s * (rng.uniform(-4, 4, count) + 1j * rng.uniform(-4, 4, count)),
                rng.choice(foci, count) + jitter,
                jitter,
                foci,
                [0j],
            ]
        )
        delta = s * 10.0 ** rng.uniform(-6, 3, z0.size)
        bound = kind.variation(z0, delta)
        m0 = kind.margins(z0)
        assert bound.shape == m0.shape == (len(kind), z0.size)
        for k in range(64):
            u = np.exp(2j * np.pi * rng.uniform(size=z0.size))
            # on the circle but for rounding, or inside it
            radius = 1 - 1e-8 if k % 2 else np.sqrt(rng.uniform(size=z0.size))
            m = kind.margins(z0 + delta * radius * u)
            assert np.all(np.abs(m - m0) <= bound)


def full_grid_components(u, resolution):
    """Component analysis over the full grid of cell centres, one margin
    per primitive and cell, which the certified blocks replaced: the
    reference for labels and components."""
    box = u.bounding_box().padded(0.02)
    n = resolution
    dx, dy = (box.xmax - box.xmin) / n, (box.ymax - box.ymin) / n
    cx = box.xmin + (np.arange(n) + 0.5) * dx
    cy = box.ymin + (np.arange(n) + 0.5) * dy
    masks = []
    for k, p in enumerate(u.primitives):
        if p.is_degenerate:
            m = np.zeros((n, n), dtype=bool)
            for f in p.foci:
                jx = min(max(int((f.real - box.xmin) / dx), 0), n - 1)
                jy = min(max(int((f.imag - box.ymin) / dy), 0), n - 1)
                m[jy, jx] = True
        else:
            m = p.margin(cx[None, :] + 1j * cy[:, None]) >= 0.0
            if not m.any():
                raise ResolutionTooCoarse(
                    f"primitive {k} of {u.method.value} covers no cell at resolution {resolution}"
                )
        masks.append(m)
    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    raw, count = scipy.ndimage.label(np.any(masks, axis=0), structure=structure)
    firsts = scipy.ndimage.minimum(np.arange(n * n).reshape(n, n), raw, index=range(1, count + 1))
    remap = np.zeros(count + 1, dtype=int)
    remap[np.argsort(np.atleast_1d(firsts)) + 1] = np.arange(1, count + 1)
    labels = remap[raw]
    cells = np.bincount(labels.ravel(), minlength=count + 1)
    components = []
    for i in range(count):
        prims = tuple(k for k, m in enumerate(masks) if np.any(labels[m] == i + 1))
        modes = tuple(sorted({j for k in prims for j in u.mode_labels[k]}))
        components.append(regions.Component(i, modes, prims, int(cells[i + 1])))
    return tuple(components), labels


def all_unions(n, seed):
    """The union of every method that builds for random_system(n, seed),
    and a mixed one: the bare foci of its MODAL_OVAL_NORM ovals with its
    MODAL_DISK_ROWSUM disks."""
    form = to_modal(random_system(n, seed))
    unions = []
    for method in Method:
        try:
            unions.append(build_regions(*pipeline_of(form), method))
        except CriticalModePresent:
            continue
    by_method = {u.method: u for u in unions}
    ovals, disks = by_method[Method.MODAL_OVAL_NORM], by_method.get(Method.MODAL_DISK_ROWSUM)
    prims = [dataclasses.replace(p, r=0.0) for p in ovals.primitives]
    labels = list(ovals.mode_labels)
    if disks is not None:
        prims += disks.primitives
        labels += disks.mode_labels
    unions.append(RegionUnion(Method.MODAL_OVAL_NORM, prims, labels))
    return unions


SYSTEMS = [(1, 0), (3, 2), (6, 4), (12, 1)]


def direct_comparison(u1, u2, samples, seed=0):
    """compare_regions with each sample's membership from its best margin."""
    box = u1.bounding_box().merge(u2.bounding_box())
    rng = np.random.default_rng(seed)
    z = rng.uniform(box.xmin, box.xmax, samples) + 1j * rng.uniform(box.ymin, box.ymax, samples)
    in1, in2 = (u.best_margin(z)[0] >= 0.0 for u in (u1, u2))
    area = (box.xmax - box.xmin) * (box.ymax - box.ymin)
    return RegionComparison(
        float(np.mean(in1)) * area, float(np.mean(in2)) * area, int(np.sum(in1 & ~in2)), samples
    )


def assert_membership(u, z):
    got = u.membership_many(z)
    assert got.shape == np.shape(z)
    assert np.array_equal(got, u.best_margin(z)[0] >= 0.0)


class TestMembership:
    @pytest.mark.parametrize("n,seed", SYSTEMS)
    def test_equals_the_best_margin_sign(self, n, seed):
        rng = np.random.default_rng(seed)
        bad = np.array([np.nan, np.inf, -np.inf, complex(np.inf, np.nan), complex(1.0, np.inf)])
        for u in all_unions(n, seed):
            box = u.bounding_box().padded(0.1)
            z = rng.uniform(box.xmin, box.xmax, 5000) + 1j * rng.uniform(box.ymin, box.ymax, 5000)
            for points in (
                np.empty(0, dtype=complex),
                z[:1],
                z,
                z.reshape(50, 100),
                np.concatenate((z, 1e6 * z[:50], 1e300 * z[:50])),
                np.concatenate((z, np.resize(bad, 500))),
                bad,
            ):
                assert_membership(u, points)

    def test_points_on_disk_boundaries(self):
        u = RegionUnion(
            Method.UNDAMPED_DISK_NORM,
            (Disk(0j, 1.0), Disk(-3.0 + 0j, 0.25), Disk(3.0 + 0j, 0.5)),
            ((0,), (1,), (2,)),
        )
        edge = np.array([1.0, -1.0, 1j, -1j, -2.75, -3.25, 3.5, 2.5, 3.0 + 0.5j, 3.0 - 0.5j])
        assert np.all(u.best_margin(edge)[0] == 0.0)
        rng = np.random.default_rng(0)
        z = np.concatenate((edge, rng.uniform(-4, 4, 20000) + 1j * rng.uniform(-2, 2, 20000)))
        assert_membership(u, z)
        assert u.membership_many(z)[: len(edge)].all()

    def test_one_value_and_spans_at_the_float_limits(self):
        u, _ = system_union(3, Method.MODAL_OVAL_NORM, seed=2)
        f = u.primitives[0].focus_plus
        for z in (
            np.full(1000, f),
            np.full(1000, 0.3 + 0.2j),
            5e-324 * np.arange(1000) + 0j,
            1e-300 * np.arange(1000) * (1 + 1j),
            np.array([-1.7e308, 1.7e308, 1.7e308j, -1.7e308j, f] * 200),
        ):
            assert_membership(u, z)

    def test_margins_only_in_a_narrow_band(self, monkeypatch):
        union, _ = system_union(12, Method.MODAL_OVAL_ROWSUM, seed=1)
        box = union.bounding_box()
        rng = np.random.default_rng(0)
        z = rng.uniform(box.xmin, box.xmax, 200_000) + 1j * rng.uniform(box.ymin, box.ymax, 200_000)
        evaluated = []
        margins = regions._Ovals.margins
        monkeypatch.setattr(
            regions._Ovals,
            "margins",
            lambda kind, z, rows=None: evaluated.append(z.size) or margins(kind, z, rows),
        )
        assert union.membership_many(z).any()
        assert sum(evaluated) < 0.15 * z.size

    @pytest.mark.parametrize("n,seed", SYSTEMS)
    def test_compare_regions_equals_a_direct_evaluation(self, n, seed):
        unions = all_unions(n, seed)
        for u1, u2 in zip(unions, unions[1:] + unions[:1]):
            assert compare_regions(u1, u2) == direct_comparison(u1, u2, 200_000)


class TestComponentAnalysis:
    @pytest.mark.parametrize("resolution", [32, 33, 64, 512])
    @pytest.mark.parametrize("n,seed", SYSTEMS)
    def test_equals_the_full_grid(self, n, seed, resolution):
        for u in all_unions(n, seed):
            try:
                components, labels = full_grid_components(u, resolution)
            except ResolutionTooCoarse as exc:
                with pytest.raises(ResolutionTooCoarse, match=re.escape(str(exc))):
                    component_analysis(u, resolution)
                continue
            ca = component_analysis(u, resolution)
            assert ca.components == components
            assert ca.labels.dtype == labels.dtype
            assert np.array_equal(ca.labels, labels)

    def test_margins_only_in_a_narrow_band(self, monkeypatch):
        union, _ = system_union(12, Method.MODAL_OVAL_NORM, seed=1)
        evaluated = []
        margins = regions._Ovals.margins

        def counting(kind, z, rows=None):
            evaluated.append(z.size if rows is not None else len(kind) * z.size)
            return margins(kind, z, rows)

        monkeypatch.setattr(regions._Ovals, "margins", counting)
        component_analysis(union, 512)
        assert sum(evaluated) < 0.03 * 12 * 512**2

    def test_temporaries_stay_small(self):
        # At the full-grid rasterization the peak was 16.1 MB (a complex grid
        # of the cell centres, a margin grid and one mask per primitive); the
        # coarse-to-fine descent peaks at 3.4 to 4.1 MB on these unions.
        for seed in (0, 1, 3):
            union, _ = system_union(12, Method.MODAL_OVAL_NORM, seed=seed)
            tracemalloc.start()
            try:
                component_analysis(union, 512)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 6e6

    def test_components_numbered_by_their_first_cell(self, monkeypatch):
        # whatever order scipy labels the features in, components and labels
        # follow their first cells in raster order
        u = RegionUnion(
            Method.UNDAMPED_DISK_NORM,
            (Disk(0j, 1.0), Disk(3.0 + 3j, 0.5), Disk(-3.0 + 2j, 0.7), Disk(2.0 - 3j, 0.4)),
            ((0,), (1,), (2,), (3,)),
        )
        expected = component_analysis(u, 128)
        assert [c.primitive_indices for c in expected.components] == [(3,), (0,), (2,), (1,)]
        label = scipy.ndimage.label

        def reversed_labels(mask, structure, output):
            labels, count = label(mask, structure=structure, output=output)
            labels[labels > 0] = count + 1 - labels[labels > 0]
            return labels, count

        monkeypatch.setattr(scipy.ndimage, "label", reversed_labels)
        got = component_analysis(u, 128)
        assert got.components == expected.components
        assert np.array_equal(got.labels, expected.labels)

    def test_two_disjoint_disks(self):
        u = RegionUnion(
            Method.UNDAMPED_DISK_NORM,
            (Disk(-1.0 + 0j, 0.3), Disk(2.0 + 0j, 0.4)),
            ((0,), (1,)),
        )
        ca = component_analysis(u, 256)
        assert len(ca.components) == 2
        assert sorted(c.modes for c in ca.components) == [(0,), (1,)]
        assert all(c.expected_eigenvalues == 2 for c in ca.components)

    @pytest.mark.parametrize("d,r,count,_", FIGURE_PANELS)
    def test_figure_component_counts(self, d, r, count, _):
        lp, lm = quadratic_roots(d, 1.0)
        u = RegionUnion(Method.MODAL_OVAL_NORM, (QuasiOval(lp, lm, r),), ((0,),))
        assert len(component_analysis(u, 512).components) == count

    def test_critical_single_component(self):
        lp, lm = quadratic_roots(2.0, 1.0)
        u = RegionUnion(Method.MODAL_OVAL_NORM, (QuasiOval(lp, lm, 0.3),), ((0,),))
        assert len(component_analysis(u, 512).components) == 1

    def test_merged_component_labels(self):
        u = RegionUnion(
            Method.UNDAMPED_DISK_NORM,
            (Disk(0j, 1.0), Disk(0.5 + 0j, 1.0), Disk(5.0 + 0j, 0.5)),
            ((0,), (1,), (2,)),
        )
        ca = component_analysis(u, 256)
        assert len(ca.components) == 2
        assert ca.components[0].modes in (((0, 1)), (0, 1))
        assert ca.components[1].modes == (2,)

    def test_resolution_too_coarse(self):
        u = RegionUnion(
            Method.UNDAMPED_DISK_NORM,
            (Disk(0j, 1e-9), Disk(10.0 + 0j, 3.0)),
            ((0,), (1,)),
        )
        with pytest.raises(ResolutionTooCoarse):
            component_analysis(u, 64)

    def test_degenerate_primitives_marked_at_foci(self):
        u = RegionUnion(
            Method.MODAL_OVAL_NORM,
            (QuasiOval(1j, -1j, 0.0), QuasiOval(-1.0 + 2j, -1.0 - 2j, 0.0)),
            ((0,), (1,)),
        )
        ca = component_analysis(u, 128)
        assert len(ca.components) == 4

    def test_locate(self):
        u = RegionUnion(
            Method.UNDAMPED_DISK_NORM,
            (Disk(-1.0 + 0j, 0.3), Disk(2.0 + 0j, 0.4)),
            ((0,), (1,)),
        )
        ca = component_analysis(u, 256)
        left = ca.locate(-1.0 + 0j)
        right = ca.locate(2.1 + 0j)
        assert left is not None and right is not None and left != right
        assert ca.components[left].modes == (0,)
        assert ca.components[right].modes == (1,)

    def test_determinism(self):
        lp, lm = quadratic_roots(0.4, 1.0)
        u = RegionUnion(Method.MODAL_OVAL_NORM, (QuasiOval(lp, lm, 0.25),), ((0,),))
        a = component_analysis(u, 192)
        b = component_analysis(u, 192)
        assert np.array_equal(a.labels, b.labels)
        assert a.components == b.components


class TestBrauerRefinement:
    def test_double_ovals_inside_cassini_union(self):
        rng = np.random.default_rng(4)
        for seed in range(10):
            n = int(rng.integers(2, 6))
            sys_ = random_system(n, 300 + seed)
            form = to_modal(sys_)
            split = modal_split(form)
            foci = mode_foci(form, split)
            brauer = build_regions(form, split, foci, Method.BRAUER)
            cassini = build_regions(form, split, foci, Method.MODAL_OVAL_ROWSUM)
            box = brauer.bounding_box()
            zs = (
                rng.uniform(box.xmin, box.xmax, 4000)
                + 1j * rng.uniform(box.ymin, box.ymax, 4000)
            )
            inside_b = brauer.membership_many(zs)
            inside_c = cassini.membership_many(zs)
            assert not np.any(inside_b & ~inside_c)
