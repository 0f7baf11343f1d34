import numpy as np
import pytest

from ovalbounds.errors import NotPositiveDefinite, SingularFit
from ovalbounds.matdense import DampedSystem, SymMatrix, spectral_norm
from ovalbounds.modal import (
    ModalForm,
    ModalSplit,
    cluster_frequencies,
    is_modally_damped,
    modal_split,
    mode_foci,
    mode_singular_values,
    proportional_fit,
    quadratic_roots,
    spread_bounds,
    to_modal,
)

from conftest import random_pd, random_system, system_with_modal_data


def form_from(omega, D) -> ModalForm:
    omega = np.asarray(omega, dtype=float)
    return ModalForm(np.eye(len(omega)), omega, SymMatrix(D))


class TestToModal:
    def test_undamped_diagonal(self):
        sys_ = DampedSystem(
            SymMatrix(np.eye(2)), SymMatrix(np.zeros((2, 2))), SymMatrix(np.diag([1.0, 4.0]))
        )
        form = to_modal(sys_)
        assert np.allclose(form.omega, [1.0, 2.0])
        assert np.allclose(form.D.array, 0.0)

    def test_decoupled_scaling(self):
        sys_ = DampedSystem(
            SymMatrix(np.diag([4.0, 1.0])),
            SymMatrix(np.diag([8.0, 2.0])),
            SymMatrix(np.diag([4.0, 1.0])),
        )
        form = to_modal(sys_)
        assert np.allclose(form.omega, [1.0, 1.0])
        assert np.allclose(form.D.array, np.diag([2.0, 2.0]))

    def test_invariant_residuals(self):
        sys_ = random_system(5, 21)
        form = to_modal(sys_)
        n = sys_.order
        assert spectral_norm(form.Phi.T @ sys_.M.array @ form.Phi - np.eye(n)) <= 1e-10
        scale = max(spectral_norm(sys_.C), 1.0)
        assert (
            spectral_norm(form.Phi.T @ sys_.C.array @ form.Phi - form.D.array)
            <= 1e-10 * scale
        )
        kscale = max(spectral_norm(sys_.K), 1.0)
        assert (
            spectral_norm(form.Phi.T @ sys_.K.array @ form.Phi - np.diag(form.omega**2))
            <= 1e-9 * kscale
        )

    def test_caller_arrays_stay_writable_and_unshared(self):
        Phi, w, rotation = np.eye(2), np.array([1.0, 2.0]), np.eye(2)
        D = SymMatrix(np.diag([0.5, 0.8]))
        form = ModalForm(Phi, w, D)
        zero = SymMatrix(np.zeros((2, 2)))
        split = ModalSplit(((0, 1), (1, 2)), D, zero, rotation, w, "diagonal")
        Phi[0, 1] = w[0] = rotation[1, 0] = 3.0
        assert np.array_equal(form.Phi, np.eye(2)) and np.array_equal(form.omega, [1.0, 2.0])
        assert np.array_equal(split.rotation, np.eye(2))
        assert np.array_equal(split.omega0, [1.0, 2.0])
        for stored in (form.Phi, form.omega, split.rotation, split.omega0):
            assert not stored.flags.writeable


class TestModallyDamped:
    def test_proportional_is_modal(self):
        rng = np.random.default_rng(8)
        M = random_pd(4, rng)
        K = random_pd(4, rng)
        C = SymMatrix(2.0 * M.array + 3.0 * K.array)
        assert is_modally_damped(to_modal(DampedSystem(M, C, K)), 1e-10)

    def test_coupled_counterexample(self):
        # rank-one coupling: C K^-1 M = [[1, 1/4], [1, 1/4]] differs from its
        # transpose counterpart M K^-1 C
        sys_ = DampedSystem(
            SymMatrix(np.eye(2)),
            SymMatrix([[1.0, 1.0], [1.0, 1.0]]),
            SymMatrix(np.diag([1.0, 4.0])),
        )
        assert not is_modally_damped(to_modal(sys_), 1e-8)

    def test_zero_damping(self):
        rng = np.random.default_rng(9)
        sys_ = DampedSystem(random_pd(3, rng), SymMatrix(np.zeros((3, 3))), random_pd(3, rng))
        assert is_modally_damped(to_modal(sys_), 1e-10)


class TestClusterFrequencies:
    def test_exact_repeat(self):
        assert cluster_frequencies([1.0, 1.0, 2.0], 1e-8) == ((0, 2), (2, 3))

    def test_gap_rule(self):
        assert cluster_frequencies([1.0, 1.0005, 3.0], 1e-3) == ((0, 2), (2, 3))

    def test_all_singletons(self):
        assert cluster_frequencies([1.0, 2.0, 3.0], 1e-8) == ((0, 1), (1, 2), (2, 3))


class TestModalSplit:
    def test_diagonal_damping_gives_zero_perturbation(self):
        form = form_from([1.0, 2.0], np.diag([0.5, 0.8]))
        for mode in ("diagonal", "maximal"):
            split = modal_split(form, mode)
            assert split.dprime_norm == 0.0

    def test_repeated_block_fully_absorbed(self):
        D = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
        form = form_from([1.0, 1.0, 2.0], D)
        dsplit = modal_split(form, "diagonal")
        msplit = modal_split(form, "maximal")
        assert msplit.dprime_norm <= 1e-14
        assert dsplit.dprime_norm == pytest.approx(1.0)
        assert np.allclose(np.sort(msplit.diag[:2]), [1.0, 3.0])

    def test_distinct_frequencies_maximal_equals_diagonal(self):
        rng = np.random.default_rng(10)
        g = rng.standard_normal((4, 4))
        form = form_from([1.0, 2.0, 3.0, 4.0], g @ g.T)
        dsplit = modal_split(form, "diagonal")
        msplit = modal_split(form, "maximal")
        assert np.allclose(msplit.D0.array, dsplit.D0.array)
        assert msplit.partition == dsplit.partition

    def test_reconstruction_exact(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((5, 5))
        form = form_from([1.0, 1.0, 2.0, 2.0, 5.0], g @ g.T)
        for mode in ("diagonal", "maximal"):
            split = modal_split(form, mode)
            rotated = split.rotation.T @ form.D.array @ split.rotation
            recon = split.D0.array + split.Dprime.array
            assert np.max(np.abs(recon - rotated)) <= 1e-13 * np.max(np.abs(rotated))
            assert np.allclose(split.D0.array, np.diag(np.diag(split.D0.array)))

    def test_maximal_not_worse_in_frobenius(self):
        rng = np.random.default_rng(12)
        for trial in range(30):
            n = int(rng.integers(2, 8))
            base = np.sort(rng.uniform(1.0, 5.0, max(1, (n + 1) // 2)))
            omega = np.sort(np.concatenate([base, base]))[:n]
            g = rng.standard_normal((n, n))
            form = form_from(omega, g @ g.T)
            dsplit = modal_split(form, "diagonal")
            msplit = modal_split(form, "maximal")
            assert msplit.dprime_frobenius <= dsplit.dprime_frobenius + 1e-12

    def test_block_rotation_gauge_invariance(self):
        # same repeated-frequency system expressed in a rotated modal basis
        # must give the same maximal perturbation norm
        rng = np.random.default_rng(13)
        omega = np.array([1.0, 1.0, 2.0, 2.0, 3.0])
        g = rng.standard_normal((5, 5))
        D = g @ g.T
        U = np.eye(5)
        for lo, hi in ((0, 2), (2, 4)):
            q, _ = np.linalg.qr(rng.standard_normal((hi - lo, hi - lo)))
            U[lo:hi, lo:hi] = q
        form1 = form_from(omega, D)
        form2 = form_from(omega, U.T @ D @ U)
        m1 = modal_split(form1, "maximal")
        m2 = modal_split(form2, "maximal")
        assert m1.dprime_norm == pytest.approx(m2.dprime_norm, abs=1e-12)
        assert np.allclose(np.sort(m1.diag), np.sort(m2.diag), atol=1e-12)

    def test_sign_flip_gauge_invariance(self):
        sys_ = random_system(4, 22)
        form = to_modal(sys_)
        signs = np.diag([1.0, -1.0, -1.0, 1.0])
        flipped = ModalForm(
            form.Phi @ signs, form.omega, SymMatrix(signs @ form.D.array @ signs)
        )
        s1 = modal_split(form, "diagonal")
        s2 = modal_split(flipped, "diagonal")
        assert np.allclose(np.abs(form.D.array), np.abs(flipped.D.array))
        assert s1.dprime_norm == pytest.approx(s2.dprime_norm, abs=1e-14)
        assert np.allclose(
            np.sum(np.abs(s1.Dprime.array), axis=1),
            np.sum(np.abs(s2.Dprime.array), axis=1),
        )


def grid_search_fit(D, omega, levels=8, width=None):
    """Independent oracle: refine a 41x41 grid around the best objective."""
    Om = np.diag(np.asarray(omega, dtype=float) ** 2)
    n = D.shape[0]

    def objective(a, b):
        r = D - a * np.eye(n) - b * Om
        return np.sum(r * r)

    scale = max(np.max(np.abs(D)), 1.0)
    a0, b0, half = 0.0, 0.0, 4.0 * scale if width is None else width
    for _ in range(levels):
        axs = np.linspace(a0 - half, a0 + half, 41)
        bxs = np.linspace(b0 - half, b0 + half, 41)
        vals = np.array([[objective(a, b) for b in bxs] for a in axs])
        ia, ib = np.unravel_index(np.argmin(vals), vals.shape)
        a0, b0 = axs[ia], bxs[ib]
        half = half / 10.0
    return a0, b0, objective(a0, b0)


class TestProportionalFit:
    def test_exact_fit(self):
        omega = np.array([1.0, 2.0, 3.0])
        D = 2.0 * np.eye(3) + 3.0 * np.diag(omega**2)
        fit = proportional_fit(form_from(omega, D))
        assert fit.alpha == pytest.approx(2.0, abs=1e-12)
        assert fit.beta == pytest.approx(3.0, abs=1e-12)
        assert fit.residual_norm == pytest.approx(0.0, abs=1e-12)

    def test_singular_when_all_frequencies_equal(self):
        with pytest.raises(SingularFit):
            proportional_fit(form_from([1.0, 1.0], np.diag([1.0, 2.0])))

    def test_matches_grid_search(self):
        rng = np.random.default_rng(14)
        g = rng.standard_normal((3, 3))
        D = g @ g.T
        omega = np.array([1.0, 2.0, 3.0])
        fit = proportional_fit(form_from(omega, D))
        a, b, best = grid_search_fit(D, omega)
        assert abs(fit.alpha - a) <= 1e-6
        assert abs(fit.beta - b) <= 1e-6
        n = 3
        resid = D - fit.alpha * np.eye(n) - fit.beta * np.diag(omega**2)
        assert np.sum(resid * resid) <= best + 1e-9

    def test_weighted_fit_matches_weighted_oracle(self):
        rng = np.random.default_rng(15)
        g = rng.standard_normal((4, 4))
        D = g @ g.T
        omega = np.array([0.5, 1.0, 2.0, 4.0])
        W = random_pd(4, rng)
        fit = proportional_fit(form_from(omega, D), W)
        Om = np.diag(omega**2)

        def objective(a, b):
            r = D - a * np.eye(4) - b * Om
            return np.trace(r @ W.array @ r)

        # stationarity: tiny perturbations cannot improve the objective
        base = objective(fit.alpha, fit.beta)
        for da, db in ((1e-6, 0.0), (-1e-6, 0.0), (0.0, 1e-6), (0.0, -1e-6)):
            assert objective(fit.alpha + da, fit.beta + db) >= base - 1e-12

    def test_weight_not_positive_definite(self):
        omega = np.array([1.0, 2.0, 3.0])
        W = SymMatrix([[1.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 1.0]])
        with pytest.raises(NotPositiveDefinite) as err:
            proportional_fit(form_from(omega, np.eye(3)), W)
        assert (err.value.name, err.value.index, err.value.pivot) == ("W", 2, -3.0)

    def test_residual_dominates_diagonal_split_frobenius(self):
        for seed in range(40):
            sys_ = random_system(int(np.random.default_rng(seed).integers(2, 7)), seed)
            form = to_modal(sys_)
            split = modal_split(form, "diagonal")
            fit = proportional_fit(form)
            assert fit.residual_norm >= split.dprime_frobenius - 1e-10


def unit_column_eigenvectors(w, lam_p, lam_m):
    S = np.array([[w, w], [lam_p, lam_m]])
    return S / np.linalg.norm(S, axis=0)


class TestModeFoci:
    def test_undamped(self):
        form = form_from([1.0], np.zeros((1, 1)))
        foci = mode_foci(form, modal_split(form))
        assert foci.lambda_plus[0] == pytest.approx(1j)
        assert foci.lambda_minus[0] == pytest.approx(-1j)
        assert foci.theta[0] == 0.0
        assert foci.kappa[0] == pytest.approx(1.0)

    def test_overdamped_factorization(self):
        form = form_from([np.sqrt(2.0)], np.array([[3.0]]))
        foci = mode_foci(form, modal_split(form))
        assert foci.lambda_plus[0] == pytest.approx(-1.0)
        assert foci.lambda_minus[0] == pytest.approx(-2.0)

    def test_critical_flag(self):
        form = form_from([1.0], np.array([[2.0]]))
        foci = mode_foci(form, modal_split(form))
        assert foci.critical[0]
        assert np.isnan(foci.kappa[0])
        assert foci.lambda_plus[0] == pytest.approx(-1.0)
        assert foci.lambda_minus[0] == pytest.approx(-1.0)

    def test_sum_product_invariants(self):
        rng = np.random.default_rng(16)
        for seed in range(20):
            sys_ = random_system(int(rng.integers(1, 7)), 100 + seed)
            form = to_modal(sys_)
            split = modal_split(form)
            foci = mode_foci(form, split)
            for j in range(sys_.order):
                s = foci.lambda_plus[j] + foci.lambda_minus[j]
                p = foci.lambda_plus[j] * foci.lambda_minus[j]
                assert abs(s + split.diag[j]) <= 1e-12 * max(1.0, abs(split.diag[j]))
                assert abs(p - split.omega0[j] ** 2) <= 1e-12 * split.omega0[j] ** 2

    def test_conjugate_pair_when_underdamped(self):
        form = form_from([1.0], np.array([[0.5]]))
        foci = mode_foci(form, modal_split(form))
        assert foci.lambda_plus[0] == pytest.approx(np.conj(foci.lambda_minus[0]))

    def test_condition_number_dominates_closed_form(self):
        # the explicit eigenvector matrices can never be better conditioned
        # than the closed-form expression reported per mode
        for d, w in ((1.0, 1.0), (0.5, 2.0), (3.0, 1.0), (10.0, 1.0)):
            form = form_from([w], np.array([[d]]))
            split = modal_split(form)
            foci = mode_foci(form, split)
            smax, smin = mode_singular_values(split, foci)
            kappa = smax / smin
            assert kappa[0] >= foci.kappa[0] - 1e-12

    def test_singular_values_match_explicit_svd(self):
        # the explicit matrix diagonalizes the mode's block [[0, w], [-w, -d]]
        for d, w in ((0.4, 1.3), (5.0, 1.0)):
            S = unit_column_eigenvectors(w, *quadratic_roots(d, w))
            lam = np.linalg.solve(S, np.array([[0.0, w], [-w, -d]]) @ S)
            assert abs(lam[0, 1]) + abs(lam[1, 0]) <= 1e-12 * max(abs(d), w)
        # theta = d / (2 omega) from 1e-3 to 1e6, densest near critical damping
        near = 10.0 ** -np.arange(3.0, 10.5, 0.5)
        thetas = np.unique(np.concatenate([np.geomspace(1e-3, 1e6, 91), 1.0 - near, 1.0 + near]))
        thetas = thetas[thetas != 1.0]
        for w in (0.3, 1.0, 7.0):
            form = form_from(np.full(len(thetas), w), np.diag(2.0 * w * thetas))
            split = modal_split(form)
            foci = mode_foci(form, split)
            assert not foci.any_critical
            smax, smin = mode_singular_values(split, foci)
            for j in range(len(thetas)):
                S = unit_column_eigenvectors(w, foci.lambda_plus[j], foci.lambda_minus[j])
                ref = np.linalg.svd(S, compute_uv=False)
                assert abs(smax[j] - ref[0]) <= 1e-14 * ref[0]
                tol = 1e-12 if abs(foci.theta[j] - 1.0) >= 1e-3 else 1e-9
                assert abs(smin[j] - ref[1]) <= tol * ref[1], (w, foci.theta[j])

    def test_singular_values_nan_at_critical(self):
        form = form_from([1.0, 2.0], np.diag([2.0, 1.0]))
        split = modal_split(form)
        foci = mode_foci(form, split)
        smax, smin = mode_singular_values(split, foci)
        assert np.isnan(smax[0]) and np.isnan(smin[0])
        assert np.isfinite(smax[1]) and np.isfinite(smin[1])


RATIOS = (0.0, 0.3, 2.0, 5.0, 1e4)  # d / omega; 2 is critical damping


def assert_array_call_matches_scalar_calls(d, w):
    """The array call equals the per-element scalar calls bit for bit."""
    lam_p, lam_m = quadratic_roots(d, w)
    scalar = [quadratic_roots(float(a), float(b)) for a, b in zip(d, w)]
    assert all(type(x) is complex for pair in scalar for x in pair)
    assert lam_p.tobytes() == np.array([p for p, _ in scalar]).tobytes()
    assert lam_m.tobytes() == np.array([m for _, m in scalar]).tobytes()
    return lam_p, lam_m


class TestQuadraticRoots:
    def test_array_call_is_elementwise(self):
        w = np.repeat([0.3, 1.0, 7.0], len(RATIOS))
        d = np.tile(RATIOS, 3) * w
        lam_p, lam_m = assert_array_call_matches_scalar_calls(d, w)
        critical = np.tile(np.array(RATIOS) == 2.0, 3)
        assert np.all(lam_p[critical] == -w[critical])
        assert np.all(lam_m[critical] == -w[critical])

    def test_array_call_is_elementwise_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(
            st.lists(
                st.tuples(
                    st.floats(0.0, 1e8, allow_nan=False),
                    st.floats(1e-4, 1e4, allow_nan=False),
                ),
                min_size=1,
                max_size=16,
            )
        )
        def check(pairs):
            d, w = np.array(pairs).T
            assert_array_call_matches_scalar_calls(d, w)

        check()


class TestSpreadBounds:
    def test_diagonal_matrix(self):
        H = SymMatrix(np.diag([1.0, 5.0, -2.0]))
        sb = spread_bounds(H, ((0, 1), (1, 2), (2, 3)))
        assert sb.offdiag_norm == 0.0
        assert np.all(sb.bracket_lo <= 0.0) and np.all(sb.bracket_hi >= 0.0)

    def test_exchange_matrix(self):
        sb = spread_bounds(SymMatrix([[0.0, 1.0], [1.0, 0.0]]), ((0, 1), (1, 2)))
        assert sb.offdiag_norm == pytest.approx(1.0)
        assert sb.spread == pytest.approx(2.0)

    def test_psd_norm_domination(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            g = rng.standard_normal((n, n))
            H = SymMatrix(g @ g.T)
            sb = spread_bounds(H, tuple((j, j + 1) for j in range(n)))
            assert sb.offdiag_norm <= spectral_norm(H) + 1e-10
            assert sb.offdiag_norm <= sb.spread + 1e-10

    def test_bracket_holds(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            g = rng.standard_normal((n, n))
            H = SymMatrix(g + g.T)
            k = int(rng.integers(0, max(n - 1, 1)))
            cuts = np.sort(rng.choice(np.arange(1, n), size=k, replace=False)) if k else []
            edges = [0, *list(cuts), n]
            part = tuple((edges[i], edges[i + 1]) for i in range(len(edges) - 1))
            sb = spread_bounds(H, part)
            assert np.all(sb.offdiag_eigenvalues >= sb.bracket_lo - 1e-10)
            assert np.all(sb.offdiag_eigenvalues <= sb.bracket_hi + 1e-10)


class TestRecoveredModalData:
    def test_constructed_system_roundtrip(self):
        omega = np.array([1.0, 2.5, 4.0])
        D = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 3.0]])
        sys_ = system_with_modal_data(omega, D, seed=5)
        form = to_modal(sys_)
        assert np.allclose(form.omega, omega, rtol=1e-9)
        # modal damping recovered up to per-mode sign flips
        assert np.allclose(np.abs(form.D.array), np.abs(D), atol=1e-9)
