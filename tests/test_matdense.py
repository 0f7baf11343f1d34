import json

import numpy as np
import pytest

from ovalbounds.errors import InputError, NotPositiveDefinite
from ovalbounds.matdense import (
    DampedSystem,
    SymMatrix,
    _check_positive_definite,
    _eig_sorted,
    _pivot_floor,
    cholesky,
    gen_sym_def_eig,
    load_system,
    read_matrix_market,
    save_system,
    spectral_norm,
    sym_eig,
)

from conftest import random_pd, random_sym, random_system


class TestSymMatrix:
    def test_symmetrizes_small_noise(self):
        s = SymMatrix([[1.0, 2.0 + 1e-12], [2.0, 3.0]])
        assert s.array[0, 1] == s.array[1, 0]

    def test_rejects_asymmetry(self):
        with pytest.raises(InputError):
            SymMatrix([[1.0, 2.0], [2.1, 3.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            SymMatrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_from_flat_roundtrip(self):
        s = SymMatrix.from_flat(2, [1.0, 2.0, 2.0, 5.0])
        assert s.entries() == [1.0, 2.0, 2.0, 5.0]

    def test_immutable(self):
        s = SymMatrix([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            s.array[0, 0] = 5.0


class TestCholesky:
    def test_identity(self):
        L = cholesky(SymMatrix(np.eye(3)))
        assert np.allclose(L, np.eye(3))

    def test_two_by_two(self):
        L = cholesky(SymMatrix([[4.0, 2.0], [2.0, 5.0]]))
        assert np.allclose(L, [[2.0, 0.0], [1.0, 2.0]])
        assert np.max(np.abs(L @ L.T - [[4.0, 2.0], [2.0, 5.0]])) < 1e-12

    def test_indefinite_reports_pivot_index(self):
        with pytest.raises(NotPositiveDefinite) as err:
            cholesky(SymMatrix([[1.0, 2.0], [2.0, 1.0]]), name="K")
        assert err.value.index == 1
        assert err.value.name == "K"

    def test_reconstruction_sweep(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            S = random_pd(n, rng)
            L = cholesky(S)
            scale = np.max(np.abs(S.array))
            assert np.max(np.abs(L @ L.T - S.array)) <= 1e-10 * scale


def loop_pivots(A):
    """The pivots ``cholesky`` takes, up to and including a failing one."""
    try:
        return np.diag(cholesky(A)) ** 2
    except NotPositiveDefinite as err:
        j = err.index
        return np.append(np.diag(cholesky(A[:j, :j])) ** 2, err.pivot)


def rejection(check, A):
    try:
        check(A, "S")
    except NotPositiveDefinite as err:
        return err
    return None


class TestCheckPositiveDefinite:
    def test_parity_with_cholesky(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(
            st.integers(1, 40),
            st.floats(-150.0, 150.0),
            st.sampled_from(["spd", "indefinite", "rank-deficient"]),
            st.integers(0, 2**32 - 1),
        )
        def check(n, exponent, kind, seed):
            rng = np.random.default_rng(seed)
            d = rng.uniform(0.1, 1.0, n)
            if kind == "indefinite":
                d[: rng.integers(1, n + 1)] *= -1.0
            elif kind == "rank-deficient":
                d[: rng.integers(1, n + 1)] = 0.0
            rng.shuffle(d)
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            if kind == "rank-deficient":
                Q = np.where(d == 0.0, 0.0, 1.0)[:, None] * Q  # zero rows and columns
            A = (Q * d) @ Q.T * 10.0**exponent
            A = 0.5 * (A + A.T)
            # leave out pivots within a few ulps of the terms they are taken from
            p = loop_pivots(A)
            diag = np.diag(A)[: len(p)]
            floor = _pivot_floor(A)
            hypothesis.assume(
                np.all(np.abs(p - floor) > 64 * np.finfo(float).eps * (diag + np.abs(diag - p)))
            )
            old = rejection(cholesky, A)
            new = rejection(_check_positive_definite, A)
            assert (old is None) == (new is None)
            if old is not None:
                assert (new.name, new.index) == (old.name, old.index) == ("S", len(p) - 1)
                assert np.isfinite(new.pivot) and new.pivot <= floor

        check()

    def test_pivot_from_the_partial_factor(self):
        S = SymMatrix([[4.0, 2.0, 0.0], [2.0, 5.0, 4.0], [0.0, 4.0, 3.0]])
        with pytest.raises(NotPositiveDefinite) as err:
            _check_positive_definite(S, "K")
        assert (err.value.name, err.value.index, err.value.pivot) == ("K", 2, -1.0)

    def test_pivot_at_the_floor(self):
        floor = _pivot_floor(np.eye(2))
        with pytest.raises(NotPositiveDefinite) as err:
            _check_positive_definite(np.diag([1.0, floor]), "M")
        assert (err.value.index, err.value.pivot) == (1, floor)
        _check_positive_definite(np.diag([1.0, 2.0 * floor]), "M")

    def test_overflowing_pivot_is_finite(self):
        # L[1, 0] = 1e300 / 1e143 squares to inf, so the pivot is -inf
        S = SymMatrix([[1e286, 1e300], [1e300, 1e300]])
        with pytest.raises(NotPositiveDefinite) as err:
            _check_positive_definite(S, "K")
        assert (err.value.index, err.value.pivot) == (1, -np.finfo(float).max)


class TestSymEig:
    def test_diagonal(self):
        w, V = sym_eig(SymMatrix(np.diag([3.0, 1.0, 2.0])))
        assert np.allclose(w, [1.0, 2.0, 3.0])
        assert np.allclose(np.abs(V), np.eye(3)[:, [1, 2, 0]])

    def test_exchange(self):
        w, _ = sym_eig(SymMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])

    def test_residual_and_orthogonality(self):
        rng = np.random.default_rng(1)
        S = random_sym(5, rng)
        w, V = sym_eig(S)
        norm = spectral_norm(S)
        assert spectral_norm(S.array @ V - V @ np.diag(w)) <= 1e-10 * max(norm, 1.0)
        assert spectral_norm(V.T @ V - np.eye(5)) <= 1e-10
        assert np.all(np.diff(w) >= 0)

    def test_reconstruction_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            S = random_sym(n, rng)
            w, V = sym_eig(S)
            err = spectral_norm(S.array - V @ np.diag(w) @ V.T)
            assert err <= 10 * 1e-10 * max(spectral_norm(S), 1.0)


class TestGenSymDefEig:
    def test_identity_mass(self):
        w2, Phi = gen_sym_def_eig(SymMatrix(np.diag([4.0, 9.0])), SymMatrix(np.eye(2)))
        assert np.allclose(np.sqrt(w2), [2.0, 3.0])
        assert np.allclose(np.abs(Phi), np.eye(2))

    def test_decoupled_scaling(self):
        w2, Phi = gen_sym_def_eig(
            SymMatrix(np.diag([4.0, 1.0])), SymMatrix(np.diag([4.0, 1.0]))
        )
        assert np.allclose(w2, [1.0, 1.0])
        assert np.allclose(np.abs(np.diag(Phi)), [0.5, 1.0])

    def test_residual_identities(self):
        rng = np.random.default_rng(3)
        M = random_pd(4, rng)
        K = random_pd(4, rng)
        w2, Phi = gen_sym_def_eig(K, M)
        assert spectral_norm(Phi.T @ M.array @ Phi - np.eye(4)) <= 1e-10 * 10
        scale = max(spectral_norm(K), 1.0)
        assert spectral_norm(Phi.T @ K.array @ Phi - np.diag(w2)) <= 1e-9 * scale
        assert np.all(np.diff(w2) >= 0)

    def test_agrees_with_explicit_reduction(self):
        rng = np.random.default_rng(4)
        M = random_pd(5, rng)
        K = random_pd(5, rng)
        w2, _ = gen_sym_def_eig(K, M)
        L = cholesky(M)
        A = np.linalg.solve(L, np.linalg.solve(L, K.array).T)
        w_ref, _ = sym_eig(SymMatrix(0.5 * (A + A.T)))
        assert np.allclose(w2, w_ref, rtol=1e-10, atol=1e-12)

    def test_not_pd_mass(self):
        with pytest.raises(NotPositiveDefinite):
            gen_sym_def_eig(SymMatrix(np.eye(2)), SymMatrix([[1.0, 2.0], [2.0, 1.0]]))

    def test_indefinite_stiffness(self):
        from ovalbounds.errors import NonPositiveFrequency

        with pytest.raises(NonPositiveFrequency):
            gen_sym_def_eig(SymMatrix(np.diag([1.0, -1.0])), SymMatrix(np.eye(2)))


class TestComplexEig:
    """Complex eigenvalues of a general real matrix, from the sorted LAPACK
    eigendecomposition behind ``true_spectrum``."""

    def test_skew(self):
        vals, _ = _eig_sorted(np.array([[0.0, 2.0], [-2.0, 0.0]]))
        assert np.allclose(sorted(vals, key=lambda z: z.imag), [-2j, 2j])

    def test_triangular(self):
        vals, _ = _eig_sorted(np.triu(np.ones((3, 3))) + np.diag([0.0, 1.0, 2.0]))
        assert np.allclose(vals, [1.0, 2.0, 3.0])

    def test_companion(self):
        # companion of x^2 + 3x + 2 has roots -1, -2
        vals, _ = _eig_sorted(np.array([[0.0, 1.0], [-2.0, -3.0]]))
        assert np.allclose(vals, [-2.0, -1.0])

    def test_residuals_and_conjugate_closure(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 12))
            A = rng.standard_normal((n, n))
            vals, _ = _eig_sorted(A)
            norm = spectral_norm(A)
            for lam in vals:
                smin = np.linalg.svd(A - lam * np.eye(n), compute_uv=False)[-1]
                assert smin <= 1e-10 * max(norm, 1.0)
            # conjugate closure: flipping the sign of imaginary parts
            # permutes the multiset
            flipped = np.sort_complex(np.conj(vals))
            assert np.allclose(np.sort_complex(vals), flipped, atol=1e-8 * max(norm, 1.0))


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([1.0, -3.0])) == pytest.approx(3.0)

    def test_zero(self):
        assert spectral_norm(np.zeros((2, 2))) == 0.0

    def test_nilpotent(self):
        assert spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0)

    def test_matches_eigenvalues_for_symmetric(self):
        rng = np.random.default_rng(6)
        S = random_sym(6, rng)
        w, _ = sym_eig(S)
        assert spectral_norm(S) == pytest.approx(np.max(np.abs(w)), rel=1e-12)


class TestDampedSystem:
    def test_valid(self):
        rng = np.random.default_rng(7)
        sys_ = random_system(3, 7)
        assert sys_.order == 3

    def test_rejects_indefinite_mass(self):
        with pytest.raises(NotPositiveDefinite):
            DampedSystem(
                SymMatrix([[1.0, 2.0], [2.0, 1.0]]),
                SymMatrix(np.zeros((2, 2))),
                SymMatrix(np.eye(2)),
            )

    def test_rejects_negative_damping(self):
        with pytest.raises(InputError):
            DampedSystem(
                SymMatrix(np.eye(2)),
                SymMatrix(np.diag([1.0, -1.0])),
                SymMatrix(np.eye(2)),
            )

    def test_rejects_order_mismatch(self):
        with pytest.raises(InputError):
            DampedSystem(
                SymMatrix(np.eye(2)), SymMatrix(np.zeros((3, 3))), SymMatrix(np.eye(2))
            )


class TestFileIO:
    def test_roundtrip_bit_exact(self, tmp_path):
        sys_ = random_system(4, 11, gamma=0.37)
        path = tmp_path / "sys.json"
        save_system(sys_, path)
        back = load_system(path)
        for key in ("M", "C", "K"):
            assert np.array_equal(getattr(back, key).array, getattr(sys_, key).array)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 1, "M": [1.0], "C": [0.0]}')
        with pytest.raises(InputError):
            load_system(path)

    @pytest.mark.parametrize(
        "doc",
        [
            '{"n": true, "M": [1.0], "C": [0.0], "K": [1.0]}',
            '{"n": 1, "M": ["a"], "C": [0.0], "K": [1.0]}',
            '{"n": 1, "M": 5, "C": [0.0], "K": [1.0]}',
            '{"n": 1, "M": [1.0], "C": [1e308], "K": [1.0]}',
            '[1.0]',
        ],
    )
    def test_malformed_values_are_input_errors(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        with pytest.raises(InputError):
            load_system(path)

    def test_arbitrary_values_are_input_errors_or_valid(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        json_values = st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
            lambda inner: (
                st.lists(inner, max_size=5)
                | st.dictionaries(st.text(max_size=2), inner, max_size=3)
            ),
            max_leaves=10,
        )
        numbers = st.lists(st.integers() | st.floats(), min_size=4, max_size=4)
        path = tmp_path / "sys.json"

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(st.sampled_from("nMCK"), json_values | numbers)
        def check(key, value):
            doc = {"n": 2, "M": [2, 1, 1, 2], "C": [1, 0, 0, 1], "K": [3, 0, 0, 1]}
            doc[key] = value
            path.write_text(json.dumps(doc))
            try:
                sys_ = load_system(path)
            except (InputError, NotPositiveDefinite):  # both end in exit 2
                return
            for S in (sys_.M, sys_.C, sys_.K):
                assert np.all(np.isfinite(S.array))

        check()

    def test_wrong_length(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "M": [1.0], "C": [0.0], "K": [1.0]}')
        with pytest.raises(InputError):
            load_system(path)

    def test_matrix_market_array(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real symmetric\n2 2\n1.0\n2.0\n5.0\n"
        )
        s = read_matrix_market(path)
        assert np.allclose(s.array, [[1.0, 2.0], [2.0, 5.0]])

    def test_matrix_market_coordinate(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 4\n1 1 2.0\n2 2 3.0\n3 3 4.0\n3 1 0.5\n"
        )
        s = read_matrix_market(path)
        expect = np.array([[2.0, 0.0, 0.5], [0.0, 3.0, 0.0], [0.5, 0.0, 4.0]])
        assert np.allclose(s.array, expect)

    def test_matrix_market_garbage(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("not a matrix\n")
        with pytest.raises(InputError):
            read_matrix_market(path)
