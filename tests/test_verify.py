import numpy as np
import pytest
import scipy.linalg

from ovalbounds.errors import CriticalModePresent, InputError
from ovalbounds.matdense import DampedSystem, Spectrum, SymMatrix, spectral_norm
from ovalbounds.modal import ModalForm, modal_split, mode_foci, to_modal
from ovalbounds.regions import (
    RIGOROUS_METHODS,
    Method,
    QuasiOval,
    RegionUnion,
    build_regions,
    component_analysis,
)
from ovalbounds.verify import (
    check_inclusion,
    compare_regions,
    linearize,
    true_spectrum,
)

from conftest import lightly_damped_system, random_system


def spectral_scale(form: ModalForm, lam: complex) -> float:
    """Residual normalization |lam|^2 + |lam| ||D|| + ||Omega^2||."""
    return (
        abs(lam) ** 2
        + abs(lam) * spectral_norm(form.D)
        + float(np.max(form.omega**2))
    )


def form_from(omega, D) -> ModalForm:
    omega = np.asarray(omega, dtype=float)
    return ModalForm(np.eye(len(omega)), omega, SymMatrix(D))


def pipeline(sys_):
    form = to_modal(sys_)
    split = modal_split(form)
    return form, split, mode_foci(form, split)


def shuffled(form: ModalForm) -> np.ndarray:
    """The companion matrix with interleaved coordinates, 2i from block
    coordinate i and 2i + 1 from n + i: each mode owns a 2x2 diagonal block
    [[0, w_j], [-w_j, -d_jj]], coupled only through damping entries."""
    n = form.order
    p = np.arange(2 * n).reshape(2, n).T.ravel()
    return linearize(form)[p][:, p]


class TestLinearize:
    def test_undamped_single_mode(self):
        A = linearize(form_from([2.0], np.zeros((1, 1))))
        assert np.array_equal(A, [[0.0, 2.0], [-2.0, 0.0]])

    def test_single_damped_mode_eigenvalues(self):
        A = linearize(form_from([1.0], np.array([[3.0]])))
        assert np.array_equal(A, [[0.0, 1.0], [-1.0, -3.0]])
        vals = np.sort(np.linalg.eigvals(A).real)
        expect = np.sort([-1.5 - np.sqrt(1.25), -1.5 + np.sqrt(1.25)])
        assert np.allclose(vals, expect)

    def test_shuffled_structure(self):
        D = np.array([[1.0, 0.2, 0.3], [0.2, 2.0, 0.4], [0.3, 0.4, 3.0]])
        form = form_from([1.0, 2.0, 3.0], D)
        A = shuffled(form)
        for i in range(3):
            assert A[2 * i, 2 * i + 1] == form.omega[i]
            assert A[2 * i + 1, 2 * i] == -form.omega[i]
            for j in range(3):
                assert A[2 * i + 1, 2 * j + 1] == -D[i, j]
        # even rows couple only to their own mode
        assert np.count_nonzero(A[0]) == 1
        assert np.count_nonzero(A[:, 0]) == 1

    def test_layout_equivalence(self):
        # the block and interleaved layouts are permutation similar, so their
        # sorted eigenvalues agree pair by pair
        for seed in range(20):
            sys_ = random_system(int(np.random.default_rng(seed).integers(1, 7)), seed)
            form = to_modal(sys_)
            a, b = (np.linalg.eigvals(A) for A in (linearize(form), shuffled(form)))
            a, b = a[np.lexsort((a.imag, a.real))], b[np.lexsort((b.imag, b.real))]
            assert np.max(np.abs(a - b)) <= 1e-9 * (1.0 + np.max(form.omega) ** 2)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_shuffled_equals_explicit_interleaving(self, n):
        form = to_modal(random_system(n, n))
        D = form.D.array
        A = np.zeros((2 * n, 2 * n))
        for i in range(n):
            A[2 * i, 2 * i + 1] = form.omega[i]
            A[2 * i + 1, 2 * i] = -form.omega[i]
            for j in range(n):
                A[2 * i + 1, 2 * j + 1] = -D[i, j]
        assert np.array_equal(shuffled(form), A)

    def test_permutation_similarity(self):
        form = form_from([1.0, 2.0], np.array([[0.5, 0.1], [0.1, 0.7]]))
        A = linearize(form)
        B = shuffled(form)
        n = 2
        perm = np.zeros((2 * n, 2 * n))
        for i in range(n):
            perm[2 * i, i] = 1.0  # position coordinate of mode i
            perm[2 * i + 1, n + i] = 1.0  # velocity coordinate
        assert np.allclose(perm @ A @ perm.T, B)


class TestTrueSpectrum:
    def test_undamped(self):
        spec = true_spectrum(form_from([1.0, 2.0], np.zeros((2, 2))))
        got = np.sort_complex(spec.values)
        assert np.allclose(got, np.sort_complex(np.array([1j, -1j, 2j, -2j])))

    def test_overdamped_scalar(self):
        spec = true_spectrum(form_from([np.sqrt(2.0)], np.array([[3.0]])))
        assert np.allclose(np.sort(spec.values.real), [-2.0, -1.0])
        assert np.max(np.abs(spec.values.imag)) == 0.0

    def test_decoupled_matches_foci(self):
        form = form_from([1.0, 3.0], np.diag([0.5, 7.0]))
        split = modal_split(form)
        foci = mode_foci(form, split)
        spec = true_spectrum(form)
        expect = np.concatenate([foci.lambda_plus, foci.lambda_minus])
        assert np.allclose(np.sort_complex(spec.values), np.sort_complex(expect), atol=1e-10)

    @staticmethod
    def assert_singular_at_eigenvalues(form, spec):
        # sigma_min(Q(lam)) is the smallest residual ||Q(lam) x|| / ||x|| over
        # all x; a backward-stable eigenvalue makes it rounding-level
        n = form.order
        for lam in spec.values:
            Q = lam * lam * np.eye(n) + lam * form.D.array + np.diag(form.omega**2)
            smallest = np.linalg.svd(Q, compute_uv=False)[-1]
            assert smallest <= 1e-8 * spectral_scale(form, complex(lam))

    def test_residual_bound_sweep(self):
        for seed in range(20):
            n = int(np.random.default_rng(seed).integers(1, 9))
            form = to_modal(random_system(n, 500 + seed))
            spec = true_spectrum(form)
            assert len(spec) == 2 * n
            self.assert_singular_at_eigenvalues(form, spec)

    def test_residual_bounds_smallest_singular_value(self):
        for seed in range(30):
            n = int(np.random.default_rng(seed).integers(1, 9))
            form = to_modal(random_system(n, 1500 + seed))
            self.assert_singular_at_eigenvalues(form, true_spectrum(form))

    @pytest.mark.parametrize("overdamped", [False, True])
    @pytest.mark.parametrize("n", [*range(1, 13), 50])
    def test_matches_full_eigendecomposition(self, n, overdamped):
        # without eigenvectors dgeev's QR iteration updates only the active
        # block, not the whole Schur form, so the two paths may differ by
        # rounding
        form = to_modal(random_system(n, n, overdamped=overdamped))
        vals, _ = scipy.linalg.eig(linearize(form))
        ref = vals[np.lexsort((vals.imag, vals.real))]
        got = true_spectrum(form).values
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))

    def test_conjugate_closure(self):
        for seed in range(20):
            sys_ = random_system(int(np.random.default_rng(seed).integers(1, 9)), 600 + seed)
            spec = true_spectrum(to_modal(sys_))
            a = np.sort_complex(spec.values)
            b = np.sort_complex(np.conj(spec.values))
            assert np.allclose(a, b, atol=1e-9 * (1 + np.max(np.abs(a))))


class TestCheckInclusion:
    def test_undamped_eigenvalues_are_foci(self):
        form = form_from([1.0, 2.0], np.zeros((2, 2)))
        split = modal_split(form)
        foci = mode_foci(form, split)
        u = build_regions(form, split, foci, Method.UNDAMPED_OVAL_NORM)
        report = check_inclusion(true_spectrum(form), u)
        assert report.all_contained
        assert np.all(report.margins >= -1e-12)

    def test_random_sweep_contained(self):
        for seed in range(30):
            n = int(np.random.default_rng(seed).integers(1, 7))
            sys_ = random_system(n, 700 + seed)
            form, split, foci = pipeline(sys_)
            u = build_regions(form, split, foci, Method.MODAL_OVAL_NORM)
            report = check_inclusion(true_spectrum(form), u)
            assert report.all_contained
            assert all(a is not None for a in report.assigned)

    def test_maximal_split_ovals_on_repeated_frequencies(self):
        # rotated splits keep the inclusion valid when the in-block
        # frequencies are exactly repeated
        from conftest import system_with_modal_data

        for seed in range(15):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 7))
            base = np.sort(rng.uniform(1.0, 4.0, max(1, (n + 1) // 2)))
            omega = np.sort(np.concatenate([base, base]))[:n]
            g = rng.standard_normal((n, n))
            sys_ = system_with_modal_data(omega, 0.5 * (g @ g.T), seed + 1)
            form = to_modal(sys_)
            split = modal_split(form, "maximal", reltol=1e-6)
            foci = mode_foci(form, split)
            spec = true_spectrum(form)
            for method in (Method.MODAL_OVAL_NORM, Method.MODAL_OVAL_ROWSUM):
                report = check_inclusion(spec, build_regions(form, split, foci, method))
                assert report.min_margin >= -1e-9

    def test_shrunk_extension_reports_violation(self):
        sys_ = random_system(3, 1, gamma=1.5)
        form, split, foci = pipeline(sys_)
        spec = true_spectrum(form)
        u = build_regions(form, split, foci, Method.MODAL_OVAL_NORM)
        assert check_inclusion(spec, u).all_contained
        half = RegionUnion(
            u.method,
            tuple(QuasiOval(p.focus_plus, p.focus_minus, p.r / 2.0) for p in u.primitives),
            u.mode_labels,
        )
        report = check_inclusion(spec, half)
        assert not report.all_contained
        assert report.min_margin < -1e-9
        assert any(a is None for a in report.assigned)

    def test_assigned_exactly_where_membership_holds(self):
        sys_ = random_system(4, 11)
        form, split, foci = pipeline(sys_)
        rng = np.random.default_rng(12)
        for method in (Method.MODAL_OVAL_NORM, Method.BRAUER, Method.MODAL_DISK_ROWSUM):
            u = build_regions(form, split, foci, method)
            box = u.bounding_box()
            z = rng.uniform(box.xmin, box.xmax, 3000) + 1j * rng.uniform(box.ymin, box.ymax, 3000)
            best, _ = u.best_margin(z)
            z = z[np.abs(best) / (1.0 + np.abs(z) ** 2) > 1e-6]  # off the boundary
            report = check_inclusion(Spectrum(z), u)
            inside = u.membership_many(z)
            assert 0 < np.sum(inside) < len(z)
            assert [a is not None for a in report.assigned] == list(inside)


def rigorous_verdicts(sys_) -> dict:
    """``all_contained`` of every rigorous method on the diagonal split, as
    ``verify`` audits it; None for a method refused for a critical mode."""
    form, split, foci = pipeline(sys_)
    spectrum = true_spectrum(form)
    verdicts = {}
    for method in sorted(RIGOROUS_METHODS):
        try:
            union = build_regions(form, split, foci, method)
        except CriticalModePresent:
            verdicts[method.value] = None
            continue
        verdicts[method.value] = check_inclusion(spectrum, union).all_contained
    return verdicts


class TestDofPermutation:
    """(PMP', PCP', PKP') has the spectrum of (M, C, K), so no verdict
    should depend on the order of the degrees of freedom."""

    #: (n, seed, overdamped, method) of the ``gen`` systems whose verdict one
    #: of the test's permutations flips, measured on the modal form built
    #: with the Python-loop Cholesky factor of M.  Each is a verdict that
    #: the computed spectrum's own error decides (ROADMAP items 1 and 3);
    #: entries may only be removed.
    KNOWN = {
        (6, 4, True, "UNDAMPED_OVAL_REL"),
        (8, 2, True, "UNDAMPED_OVAL_REL"),
        (8, 4, True, "UNDAMPED_OVAL_REL"),
        (9, 1, True, "UNDAMPED_OVAL_REL"),
        (9, 3, True, "UNDAMPED_OVAL_REL"),
        (10, 1, True, "UNDAMPED_OVAL_REL"),
    }

    def test_verdicts_do_not_depend_on_dof_order(self):
        # the 120 systems of gen --n k --seed s, k = 1..12, s = 0..4, plain
        # and --overdamped, each under three seeded permutations
        flips = set()
        for overdamped in (False, True):
            for n in range(1, 13):
                for seed in range(5):
                    sys_ = random_system(n, seed, overdamped=overdamped)
                    expect = rigorous_verdicts(sys_)
                    rng = np.random.default_rng(1000 * n + seed + 7 * overdamped)
                    for _ in range(3):
                        p = np.ix_(*[rng.permutation(n)] * 2)
                        permuted = DampedSystem(
                            *(SymMatrix(S.array[p]) for S in (sys_.M, sys_.C, sys_.K))
                        )
                        got = rigorous_verdicts(permuted)
                        flips |= {(n, seed, overdamped, m) for m in expect if got[m] != expect[m]}
        assert flips <= self.KNOWN


class TestCompareRegions:
    def test_fewer_than_one_sample_refused(self):
        form, split, foci = pipeline(random_system(2, 41))
        u = build_regions(form, split, foci, Method.MODAL_OVAL_NORM)
        for samples in (0, -1):
            with pytest.raises(InputError, match="samples"):
                compare_regions(u, u, samples=samples)

    def test_identical_unions(self):
        sys_ = random_system(3, 31)
        form, split, foci = pipeline(sys_)
        u = build_regions(form, split, foci, Method.MODAL_OVAL_NORM)
        cmp_ = compare_regions(u, u, samples=20000, seed=5)
        assert cmp_.area_first == cmp_.area_second
        assert cmp_.subset_violations == 0

    def test_brauer_inside_cassini(self):
        for seed in range(10):
            n = int(np.random.default_rng(seed).integers(2, 7))
            sys_ = random_system(n, 800 + seed)
            form, split, foci = pipeline(sys_)
            brauer = build_regions(form, split, foci, Method.BRAUER)
            cassini = build_regions(form, split, foci, Method.MODAL_OVAL_ROWSUM)
            cmp_ = compare_regions(brauer, cassini, samples=50000, seed=seed)
            assert cmp_.subset_violations == 0
            assert cmp_.area_first <= cmp_.area_second + 1e-12

    def test_ovals_beat_disks_when_lightly_damped(self):
        wins = 0
        for seed in range(10):
            sys_ = lightly_damped_system(3, 900 + seed)
            form, split, foci = pipeline(sys_)
            ovals = build_regions(form, split, foci, Method.UNDAMPED_OVAL_NORM)
            disks = build_regions(form, split, foci, Method.UNDAMPED_DISK_NORM)
            cmp_ = compare_regions(ovals, disks, samples=50000, seed=seed)
            if cmp_.area_first <= cmp_.area_second:
                wins += 1
        assert wins >= 9

    def test_determinism(self):
        sys_ = random_system(2, 41)
        form, split, foci = pipeline(sys_)
        u1 = build_regions(form, split, foci, Method.MODAL_OVAL_NORM)
        u2 = build_regions(form, split, foci, Method.UNDAMPED_OVAL_NORM)
        a = compare_regions(u1, u2, samples=10000, seed=9)
        b = compare_regions(u1, u2, samples=10000, seed=9)
        assert a == b


class TestComponentCountLaw:
    def test_disjoint_components_isolate_eigenvalues(self):
        sys_ = lightly_damped_system(3, 77, level=0.05)
        form, split, foci = pipeline(sys_)
        u = build_regions(form, split, foci, Method.MODAL_OVAL_NORM)
        ca = component_analysis(u, 512)
        assert len(ca.components) == 6
        spec = true_spectrum(form)
        counts = np.zeros(len(ca.components), dtype=int)
        for lam in spec.values:
            idx = ca.locate(complex(lam))
            assert idx is not None
            counts[idx] += 1
        assert np.all(counts == 1)

    def test_merged_component_counts_doubled_modes(self):
        # two near-critical coupled modes merge into a single component that
        # contains both foci of both ovals, so it holds 2 x 2 eigenvalues;
        # the light third mode splits into two one-eigenvalue blobs
        D = np.array([[2.05, 0.35, 0.0], [0.35, 2.46, 0.0], [0.0, 0.0, 0.2]])
        form = form_from([1.0, 1.1, 5.0], D)
        split = modal_split(form)
        foci = mode_foci(form, split)
        u = build_regions(form, split, foci, Method.MODAL_OVAL_NORM)
        ca = component_analysis(u, 512)
        assert sorted(c.modes for c in ca.components) == [(0, 1), (2,), (2,)]
        spec = true_spectrum(form)
        counts = np.zeros(len(ca.components), dtype=int)
        for lam in spec.values:
            idx = ca.locate(complex(lam))
            assert idx is not None
            counts[idx] += 1
        for comp, count in zip(ca.components, counts):
            if comp.modes == (0, 1):
                assert count == comp.expected_eigenvalues == 4
            else:
                assert count == 1
