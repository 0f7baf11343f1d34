import decimal
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from ovalbounds import cli
from ovalbounds.errors import InputError, NoConvergence, NotPositiveDefinite
from ovalbounds.matdense import (
    DampedSystem,
    SymMatrix,
    _eigvals_sorted,
    _pivot_floor,
    cholesky,
    gen_sym_def_eig,
    load_system,
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


def loop_cholesky(S, name="matrix"):
    """Reference for the pivot contract of ``cholesky``: the column-by-column
    factor with each pivot ``A[j, j] - L[j, :j] @ L[j, :j]`` compared with
    the same floor."""
    A = np.asarray(getattr(S, "array", S), dtype=float)
    n = A.shape[0]
    floor = _pivot_floor(A)
    L = np.zeros_like(A)
    for j in range(n):
        pivot = A[j, j] - L[j, :j] @ L[j, :j]
        if pivot <= floor:
            raise NotPositiveDefinite(name, j, float(pivot))
        L[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            L[j + 1 :, j] = (A[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


def loop_pivots(A):
    """The pivots ``loop_cholesky`` takes, up to and including a failing one."""
    try:
        return np.diag(loop_cholesky(A)) ** 2
    except NotPositiveDefinite as err:
        j = err.index
        return np.append(np.diag(loop_cholesky(A[:j, :j])) ** 2, err.pivot)


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
            old = rejection(loop_cholesky, A)
            new = rejection(cholesky, A)
            assert (old is None) == (new is None)
            if old is not None:
                assert (new.name, new.index) == (old.name, old.index) == ("S", len(p) - 1)
                assert np.isfinite(new.pivot) and new.pivot <= floor

        check()

    def test_verdicts_are_scale_invariant(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(
            st.integers(1, 40),
            st.floats(-150.0, 150.0),
            st.sampled_from(["spd", "indefinite", "rank-deficient", "zero"]),
            st.integers(0, 2**32 - 1),
        )
        def check(n, exponent, kind, seed):
            rng = np.random.default_rng(seed)
            d = rng.uniform(0.1, 1.0, n)
            if kind == "indefinite":
                d[: rng.integers(1, n + 1)] *= -1.0
            elif kind == "rank-deficient":
                d[: rng.integers(1, n + 1)] = 0.0
            elif kind == "zero":
                d[:] = 0.0
            rng.shuffle(d)
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            if kind == "rank-deficient":
                Q = np.where(d == 0.0, 0.0, 1.0)[:, None] * Q  # zero rows and columns
            A = (Q * d) @ Q.T
            A = 0.5 * (A + A.T)
            scaled = A * 10.0**exponent
            # leave out pivots within a few ulps of the terms they are taken
            # from, at either scale
            for S in (A, scaled):
                p = loop_pivots(S)
                diag = np.diag(S)[: len(p)]
                hypothesis.assume(
                    np.all(
                        np.abs(p - _pivot_floor(S))
                        > 64 * np.finfo(float).eps * (diag + np.abs(diag - p))
                    )
                    or kind == "zero"
                )
            for test in (loop_cholesky, cholesky):
                unit, other = rejection(test, A), rejection(test, scaled)
                assert (unit is None) == (other is None)
                if unit is not None:
                    assert unit.index == other.index
                    assert kind != "spd"
                else:
                    assert kind == "spd"

        check()

    def test_tiny_matrices_are_positive_definite(self):
        for scale in (1e-16, 1e-300):
            S = SymMatrix(scale * np.array([[2.0, 1.0], [1.0, 2.0]]))
            assert np.all(np.diag(cholesky(S, "M")) > 0.0)
            assert np.all(np.diag(loop_cholesky(S)) > 0.0)
        with pytest.raises(NotPositiveDefinite) as err:
            cholesky(np.zeros((2, 2)), "M")
        assert (err.value.index, err.value.pivot) == (0, 0.0)

    def test_pivot_from_the_partial_factor(self):
        S = SymMatrix([[4.0, 2.0, 0.0], [2.0, 5.0, 4.0], [0.0, 4.0, 3.0]])
        with pytest.raises(NotPositiveDefinite) as err:
            cholesky(S, "K")
        assert (err.value.name, err.value.index, err.value.pivot) == ("K", 2, -1.0)

    def test_pivot_at_the_floor(self):
        floor = _pivot_floor(np.eye(2))
        with pytest.raises(NotPositiveDefinite) as err:
            cholesky(np.diag([1.0, floor]), "M")
        assert (err.value.index, err.value.pivot) == (1, floor)
        cholesky(np.diag([1.0, 2.0 * floor]), "M")

    def test_overflowing_pivot_is_finite(self):
        # L[1, 0] = 1e300 / 1e143 squares to inf, so the pivot is -inf
        S = SymMatrix([[1e286, 1e300], [1e300, 1e300]])
        with pytest.raises(NotPositiveDefinite) as err:
            cholesky(S, "K")
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
        with pytest.raises(NotPositiveDefinite) as err:
            gen_sym_def_eig(SymMatrix(np.eye(2)), SymMatrix([[1.0, 2.0], [2.0, 1.0]]))
        assert (err.value.name, err.value.index) == ("M", 1)

    def test_mass_pivot_at_the_floor(self):
        # dsygvd's own Cholesky accepts any positive pivot; the floor is
        # n * eps * max|M|
        M = np.diag([1.0, _pivot_floor(np.eye(2))])
        assert scipy.linalg.lapack.dpotrf(M)[1] == 0
        with pytest.raises(NotPositiveDefinite) as err:
            gen_sym_def_eig(SymMatrix(np.eye(2)), SymMatrix(M))
        assert (err.value.name, err.value.index) == ("M", 1)

    def test_driver_failure_is_no_convergence(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("dsygvd failed in the test")

        monkeypatch.setattr(scipy.linalg, "eigh", fail)
        with pytest.raises(NoConvergence, match="dsygvd failed in the test"):
            gen_sym_def_eig(SymMatrix(np.eye(2)), SymMatrix(np.eye(2)))

    def test_indefinite_stiffness(self):
        from ovalbounds.errors import NonPositiveFrequency

        with pytest.raises(NonPositiveFrequency):
            gen_sym_def_eig(SymMatrix(np.diag([1.0, -1.0])), SymMatrix(np.eye(2)))

    def test_refusal_invariant_under_power_of_two_scaling(self):
        # K -> s^2 K scales every squared frequency by s^2, and the floor too
        from ovalbounds.errors import NonPositiveFrequency

        def refused(K, M):
            try:
                gen_sym_def_eig(SymMatrix(K), M)
            except NonPositiveFrequency:
                return True
            return False

        systems = [random_system(n, seed) for n in (1, 2, 4, 8) for seed in range(5)]
        cases = [(sys_.K.array, sys_.M) for sys_ in systems]
        cases.append((np.diag([1e-17, 1.0]), SymMatrix(np.eye(2))))
        verdicts = []
        for K, M in cases:
            verdicts.append(refused(K, M))
            for k in range(-40, 1):
                assert refused(2.0 ** (2 * k) * K, M) == verdicts[-1], k
        assert verdicts == [False] * len(systems) + [True]


class TestComplexEig:
    """Complex eigenvalues of a general real matrix, sorted, from the LAPACK
    ``dgeev`` call without eigenvectors behind ``true_spectrum``."""

    def test_skew(self):
        vals = _eigvals_sorted(np.array([[0.0, 2.0], [-2.0, 0.0]]))
        assert np.allclose(sorted(vals, key=lambda z: z.imag), [-2j, 2j])

    def test_triangular(self):
        vals = _eigvals_sorted(np.triu(np.ones((3, 3))) + np.diag([0.0, 1.0, 2.0]))
        assert np.allclose(vals, [1.0, 2.0, 3.0])

    def test_companion(self):
        # companion of x^2 + 3x + 2 has roots -1, -2
        vals = _eigvals_sorted(np.array([[0.0, 1.0], [-2.0, -3.0]]))
        assert np.allclose(vals, [-2.0, -1.0])

    def test_non_finite_is_input_error(self):
        with pytest.raises(InputError, match="finite"):
            _eigvals_sorted(np.array([[0.0, np.inf], [1.0, 0.0]]))

    def test_driver_failure_is_no_convergence(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("dgeev failed in the test")

        monkeypatch.setattr(scipy.linalg, "eigvals", fail)
        with pytest.raises(NoConvergence, match="dgeev failed in the test"):
            _eigvals_sorted(np.eye(2))

    def test_residuals_and_conjugate_closure(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 12))
            A = rng.standard_normal((n, n))
            vals = _eigvals_sorted(A)
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


def _bits(values) -> np.ndarray:
    """The values' IEEE bit patterns, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).view(np.uint64)


def _hard_decimals(rng) -> list[str]:
    """Decimal texts a parser must round correctly: the .17g text of random
    finite bit patterns (subnormals and both zeros among them), 18-25-digit
    roundings of binary halfway points from below and above, halfway points
    that are exact 19-25-digit integers, and the ends of the double range."""
    patterns = rng.integers(0, 2**64, 120_000, dtype=np.uint64, endpoint=False)
    patterns[:10_000] &= np.uint64(2**63 + 2**52 - 1)  # biased exponent 0: subnormal
    values = patterns.view(float)
    values = values[np.isfinite(values)]
    # .17g writes -0.0 as "-0", which JSON reads as the integer 0
    texts = ["0.0", "-0.0", "0", "-0"] + [format(float(x), ".17g") for x in values]

    ctx = decimal.Context(prec=800)  # exact for sums of two doubles
    for x in np.concatenate([values[:500], values[-2000:]]).tolist():
        mid = ctx.divide(ctx.add(decimal.Decimal(x), decimal.Decimal(np.nextafter(x, np.inf))), 2)
        for digits in range(18, 26):
            for rounding in (decimal.ROUND_FLOOR, decimal.ROUND_CEILING):
                texts.append(str(decimal.Context(prec=digits, rounding=rounding).plus(mid)))
    for e in rng.integers(60, 83, 2000).tolist():
        # a double in [2^e, 2^(e+1)) has ulp 2^(e-52); add half of it
        tie = int(rng.integers(2**52, 2**53)) * 2 ** (e - 52) + 2 ** (e - 53)
        texts.append(f"{tie}e0" if e % 2 else f"-{tie}e0")
    texts += ["2.4703282292062327e-324", "2.4703282292062328e-324", "1.7976931348623157e308"]
    return texts


class TestFileIO:
    def test_roundtrip_bit_exact(self, tmp_path, capsys, monkeypatch):
        sys_ = random_system(4, 11, gamma=0.37)
        path = tmp_path / "sys.json"
        save_system(sys_, path)
        back = load_system(path)
        for key in ("M", "C", "K"):
            assert np.array_equal(getattr(back, key).array, getattr(sys_, key).array)

        # the 120 files of gen --n k --seed s, k = 1..12, s = 0..9, against
        # the standard library's correctly rounded parse
        for k in range(1, 13):
            for s in range(10):
                assert cli.main(["gen", "--n", str(k), "--seed", str(s), "--output", str(path)]) == 0
                expect = json.loads(path.read_text())
                back = load_system(path)
                for key in ("M", "C", "K"):
                    assert np.array_equal(_bits(getattr(back, key).array.ravel()), _bits(expect[key]))
        capsys.readouterr()

        # hard decimals, as load_system parses them (caught on their way
        # into from_flat, before any validation)
        texts = _hard_decimals(np.random.default_rng(386))
        assert len(texts) > 100_000
        doc = '{"n": 1, "M": [' + ", ".join(texts) + '], "C": [], "K": []}'
        path.write_text(doc)
        seen = []

        def capture(n, entries):
            seen.append(entries)
            raise InputError("captured")

        monkeypatch.setattr(SymMatrix, "from_flat", capture)
        with pytest.raises(InputError, match="captured"):
            load_system(path)
        assert np.array_equal(_bits(seen[0]), _bits(json.loads(doc)["M"]))

    def test_negative_zero_roundtrips(self, tmp_path):
        C = SymMatrix(np.array([[1.0, -0.0], [-0.0, 1.0]]))
        sys_ = DampedSystem(SymMatrix(np.eye(2)), C, SymMatrix(np.eye(2)))
        path = tmp_path / "sys.json"
        save_system(sys_, path)
        assert '"C": [1, -0.0, -0.0, 1]' in path.read_text()
        assert np.array_equal(_bits(load_system(path).C.array), _bits(C.array))

    def test_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 1, "M": [1.0], "C": [0.0]}')
        with pytest.raises(InputError):
            load_system(path)

    @pytest.mark.parametrize(
        "doc",
        [
            b'{"n": true, "M": [1.0], "C": [0.0], "K": [1.0]}',
            b'{"n": 1, "M": ["a"], "C": [0.0], "K": [1.0]}',
            b'{"n": 1, "M": 5, "C": [0.0], "K": [1.0]}',
            b'{"n": 1, "M": [1.0], "C": [1e308], "K": [1.0]}',
            b"[1.0]",
            # not JSON: non-finite numbers, a byte order mark, bytes that
            # are not UTF-8, no document, "1." and "01", a truncated document
            b'{"n": 1, "M": [NaN], "C": [0.0], "K": [1.0]}',
            b'{"n": 1, "M": [1.0], "C": [Infinity], "K": [1.0]}',
            b'{"n": 1, "M": [1.0], "C": [0.0], "K": [-Infinity]}',
            b'{"n": 1, "M": [1e400], "C": [0.0], "K": [1.0]}',
            b'{"n": 1, "M": [1.0], "C": [-1e400], "K": [1.0]}',
            b'\xef\xbb\xbf{"n": 1, "M": [1.0], "C": [0.0], "K": [1.0]}',
            b'{"n": 1, "M": [1.0], "C": [0.0], "K": [1.0], "note": "\xff"}',
            b"",
            b'{"n": 1, "M": [1.], "C": [0.0], "K": [1.0]}',
            b'{"n": 01, "M": [1.0], "C": [0.0], "K": [1.0]}',
            b'{"n": 1, "M": [1.0], "C": [0.0], "K": [1.0',
            pytest.param(
                b'{"n": 1, "M": ' + b"[" * 2000 + b"]" * 2000 + b', "C": [0.0], "K": [1.0]}',
                id="nested_2000_deep",
            ),
            # the bracket count includes strings: a shallow file whose
            # extra key holds 1025 brackets is refused as well
            pytest.param(
                b'{"n": 1, "M": [1.0], "C": [0.0], "K": [1.0], "note": "' + b"[" * 1025 + b'"}',
                id="brackets_in_string",
            ),
        ],
    )
    def test_malformed_values_are_input_errors(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_bytes(doc)
        with pytest.raises(InputError, match=re.escape(str(path))):
            load_system(path)

    @pytest.mark.parametrize(
        "doc",
        [
            b'{"n": 1, "M": [NaN], "C": [0.0], "K": [1.0]}',
            # deep enough to overflow the C stack in orjson's recursive parse
            b'{"n": 1, "M": ' + b"[" * 10**6 + b"]" * 10**6 + b', "C": [0.0], "K": [1.0]}',
        ],
        ids=["nan", "deep"],
    )
    def test_malformed_file_is_one_error_line(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_bytes(doc)
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        run = subprocess.run(
            [sys.executable, "-m", "ovalbounds.cli", "analyze", "--input", str(path)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert run.returncode == 2
        assert run.stdout == ""
        assert run.stderr.startswith(f"error: {path}: ")
        assert run.stderr.count("\n") == 1

    def test_integers_beyond_64_bits_load_as_doubles(self, tmp_path):
        # strict JSON has no integer range; such an entry loads as the
        # nearest double, as its 17-digit decimal text does
        loaded = []
        for entry in ("123456789012345678901234567890", "1.2345678901234568e+29"):
            path = tmp_path / "big.json"
            path.write_text(f'{{"n": 1, "M": [1.0], "C": [0.0], "K": [{entry}]}}')
            loaded.append(load_system(path).K.array)
        assert _bits(loaded[0]) == _bits(loaded[1]) == _bits([[1.2345678901234568e29]])

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
