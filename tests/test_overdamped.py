from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

from ovalbounds import cli
from ovalbounds.errors import CertificateMissing, EpsilonTooLarge, NoConvergence
from ovalbounds.matdense import DampedSystem, SymMatrix, spectral_norm, sym_eig
from ovalbounds.modal import ModalForm, modal_split, mode_foci, to_modal
from ovalbounds.overdamped import (
    CertificateRefusal,
    OverdampedCertificate,
    duffin_values,
    eigenvalue_intervals,
    eta_envelope,
    exact_definiteness_interval,
    min_damping_d,
    sufficient_certificate,
)
from ovalbounds.verify import true_spectrum

from conftest import (
    modally_damped_overdamped_system,
    overdamped_system,
    random_pd,
    system_with_modal_data,
)


def scalar_system(m, c, k) -> DampedSystem:
    return DampedSystem(SymMatrix([[float(m)]]), SymMatrix([[float(c)]]), SymMatrix([[float(k)]]))


def pencil_max_eigenvalue(sys_: DampedSystem, mu: float) -> float:
    """Largest eigenvalue of mu^2 M + mu C + K, by a full dense eigensolve."""
    return np.linalg.eigvalsh(mu * mu * sys_.M.array + mu * sys_.C.array + sys_.K.array)[-1]


def form_from(omega, D) -> ModalForm:
    omega = np.asarray(omega, dtype=float)
    return ModalForm(np.eye(len(omega)), omega, SymMatrix(D))


def real_spectrum(sys_: DampedSystem) -> np.ndarray:
    spec = true_spectrum(to_modal(sys_))
    assert np.max(np.abs(spec.values.imag)) < 1e-7 * (1 + np.max(np.abs(spec.values)))
    return np.sort(spec.values.real)


class TestExactInterval:
    def test_scalar_roots(self):
        iv = exact_definiteness_interval(scalar_system(1, 3, 2))
        assert iv.lo == pytest.approx(-2.0, abs=1e-8)
        assert iv.hi == pytest.approx(-1.0, abs=1e-8)

    def test_scalar_underdamped_empty(self):
        assert exact_definiteness_interval(scalar_system(1, 1, 1)).empty

    @pytest.mark.parametrize("tol", [0.6, 0.3, 1e-3, 1e-10])
    def test_verdict_does_not_depend_on_tol(self, tol, eigensolves):
        # mu^2 + mu + 1 has c^2 < 4mk on its diagonal: refused before any probe
        scalar = scalar_system(1, 1, 1)
        eigensolves.clear()
        assert exact_definiteness_interval(scalar, tol).empty
        assert eigensolves == []
        # a coupled system with lambda_max(Q) >= 0.033 everywhere whose
        # diagonal Duffin values bracket (-1.82, -0.46): at tol = 0.6 the sides
        # stop after two steps and one without having crossed, and the
        # midpoint probe has to refuse it; only a probe with f < 0 may make it
        # nonempty
        coupled = DampedSystem(
            SymMatrix(np.diag([3.0, 1.0])),
            SymMatrix([[6.0, 2.5], [2.5, 7.0]]),
            SymMatrix(np.diag([1.0, 3.0])),
        )
        eigensolves.clear()
        assert exact_definiteness_interval(coupled, tol).empty
        assert len(eigensolves) >= 3
        iv = exact_definiteness_interval(scalar_system(1, 3, 2), tol)
        # outer bounds, up to the rounding of f near a root
        assert not iv.empty and iv.lo <= -2.0 + 1e-14 and -1.0 - 1e-14 <= iv.hi
        for seed in range(4):
            over = cli.random_system(5, seed, overdamped=True)
            under = DampedSystem(over.M, SymMatrix(0.5 * over.C.array), over.K)
            assert not exact_definiteness_interval(over, tol).empty
            assert exact_definiteness_interval(under, tol).empty

    def test_block_intersection(self):
        sys_ = DampedSystem(
            SymMatrix(np.eye(2)), SymMatrix(np.diag([6.0, 10.0])), SymMatrix(np.diag([1.0, 4.0]))
        )
        iv = exact_definiteness_interval(sys_)
        assert iv.lo == pytest.approx(-3.0 - 2.0 * np.sqrt(2.0), abs=1e-8)
        assert iv.hi == pytest.approx(-5.0 + np.sqrt(21.0), abs=1e-8)

    def test_against_mu_grid_oracle(self):
        sys_ = overdamped_system(3, 42)
        iv = exact_definiteness_interval(sys_)
        assert not iv.empty
        for mu in np.linspace(iv.lo + 1e-6, iv.hi - 1e-6, 50):
            assert pencil_max_eigenvalue(sys_, mu) < 0.0
        assert pencil_max_eigenvalue(sys_, iv.lo - 1e-5) > -1e-10
        assert pencil_max_eigenvalue(sys_, iv.hi + 1e-5) > -1e-10


def reference_eigenvalues(sys_: DampedSystem, dps: int = 40) -> list:
    """The 2n eigenvalues of the companion matrix of (M, C, K) in mpmath
    arithmetic at dps digits, as Python complex numbers, real parts
    ascending."""
    n = sys_.order
    with mpmath.workdps(dps):
        M, C, K = (mpmath.matrix(getattr(sys_, k).array.tolist()) for k in "MCK")
        Minv = mpmath.inverse(M)
        MK, MC = Minv * K, Minv * C
        A = mpmath.zeros(2 * n)
        for i in range(n):
            A[i, n + i] = 1
            for j in range(n):
                A[n + i, j], A[n + i, n + j] = -MK[i, j], -MC[i, j]
        vals = mpmath.eig(A, left=False, right=False)
        return sorted((complex(v) for v in vals), key=lambda v: v.real)


@pytest.fixture
def eigensolves(monkeypatch):
    """Records one entry per call of any dense symmetric eigensolver or SVD."""
    calls = []
    for mod, name in (
        (np.linalg, "eigvalsh"),
        (np.linalg, "eigh"),
        (scipy.linalg, "eigh"),
        (scipy.linalg.lapack, "dsyevr"),
        (scipy.linalg.lapack, "dsygvx"),
        (np.linalg, "svd"),
    ):
        real = getattr(mod, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)
    return calls


class TestIntervalSearch:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_endpoints_match_40_digit_eigenvalues(self, k):
        for seed in range(3):
            sys_ = cli.random_system(k, seed, overdamped=True)
            iv = exact_definiteness_interval(sys_)
            vals = reference_eigenvalues(sys_)
            assert max(abs(v.imag) for v in vals) < 1e-30
            for got, want in ((iv.lo, vals[k - 1].real), (iv.hi, vals[k].real)):
                assert abs(got - want) <= 1e-11 * (1.0 + abs(want))

    def test_eigensolves_at_order_50(self, eigensolves):
        for seed in range(4):
            over = cli.random_system(50, seed, overdamped=True)
            under = DampedSystem(over.M, SymMatrix(0.5 * over.C.array), over.K)
            for sys_, empty, most in ((over, False, 16), (under, True, 8)):
                eigensolves.clear()
                assert exact_definiteness_interval(sys_).empty == empty
                # Duffin steps from the diagonal: no eigvalsh of M, no SVD of C
                assert set(eigensolves) == {"dsyevr"}
                assert len(eigensolves) <= most
                eigensolves.clear()
                min_damping_d(sys_)
                assert len(eigensolves) <= 25

    @pytest.mark.parametrize(
        "C,K",
        [
            # the first diagonal entry has c^2 < 4mk
            ([[1.0, 0.1], [0.1, 5.0]], np.eye(2)),
            # a double root on the diagonal, c^2 = 4mk
            ([[2.0, 0.1], [0.1, 5.0]], np.eye(2)),
            # diagonal Duffin values (-2, -1) and (-20, -10): the brackets cross
            ([[3.0, 0.5], [0.5, 30.0]], [[2.0, 0.1], [0.1, 200.0]]),
        ],
    )
    def test_diagonal_certificates_need_no_eigensolve(self, eigensolves, C, K):
        sys_ = DampedSystem(SymMatrix(np.eye(2)), SymMatrix(C), SymMatrix(K))
        eigensolves.clear()
        assert exact_definiteness_interval(sys_).empty
        assert eigensolves == []
        assert not is_hyperbolic(sys_)

    def test_diagonal_systems_exact_at_start(self, eigensolves):
        rng = np.random.default_rng(7)
        nonempty = 0
        for _ in range(300):
            n = int(rng.integers(1, 6))
            m, k = rng.uniform(0.5, 2.0, n), 10.0 ** rng.uniform(-2.0, 2.0, n)
            c = 2.0 * np.sqrt(m * k) * rng.uniform(1.0, 2.0, n)
            sys_ = DampedSystem(*(SymMatrix(np.diag(v)) for v in (m, c, k)))
            eigensolves.clear()
            iv = exact_definiteness_interval(sys_)
            with mpmath.workdps(40):
                roots = [
                    ((-ci - mpmath.sqrt(ci * ci - 4 * mi * ki)) / (2 * mi),
                     (-ci + mpmath.sqrt(ci * ci - 4 * mi * ki)) / (2 * mi))
                    for mi, ci, ki in zip(*(map(mpmath.mpf, v.tolist()) for v in (m, c, k)))
                ]
                lo, hi = max(r[0] for r in roots), min(r[1] for r in roots)
                if lo >= hi:
                    assert iv.empty and eigensolves == []
                    continue
                nonempty += 1
                assert not iv.empty and len(eigensolves) <= 3
                for got, want in ((iv.lo, lo), (iv.hi, hi)):
                    assert abs(got - want) <= 4e-16 * abs(want)
        assert 50 <= nonempty <= 250

    def test_endpoints_scale_with_the_system(self):
        # C -> 2^k C and K -> 4^k K maps the interval to 2^k times itself;
        # the relative stop rule keeps the endpoints' accuracy at every k
        for n in (2, 4, 6, 8, 12):
            for seed in range(6):
                sys_ = cli.random_system(n, seed, overdamped=True)
                base = exact_definiteness_interval(sys_)
                assert not base.empty
                for k in (-40, -30, -20, -10, 10, 20, 30, 40):
                    s = 2.0**k
                    scaled = DampedSystem(
                        sys_.M, SymMatrix(s * sys_.C.array), SymMatrix(s * s * sys_.K.array)
                    )
                    iv = exact_definiteness_interval(scaled)
                    assert not iv.empty
                    for got, want in ((iv.lo, s * base.lo), (iv.hi, s * base.hi)):
                        assert abs(got - want) <= 1e-8 * abs(want)

    def test_interval_does_not_depend_on_a_common_scale(self):
        # M, C and K scaled together by 2^+-550 leave Q(mu)'s sign and the
        # Duffin values unchanged; the squares c^2 and 4mk would under- or
        # overflow there
        for n in (2, 4, 8):
            for seed in range(3):
                over = cli.random_system(n, seed, overdamped=True)
                under = DampedSystem(over.M, SymMatrix(0.5 * over.C.array), over.K)
                for sys_ in (over, under):
                    base = exact_definiteness_interval(sys_)
                    for s in (2.0**-550, 2.0**550):
                        scaled = DampedSystem(
                            *(SymMatrix(s * S.array) for S in (sys_.M, sys_.C, sys_.K))
                        )
                        iv = exact_definiteness_interval(scaled)
                        assert iv.empty == base.empty
                        if not iv.empty:
                            for got, want in ((iv.lo, base.lo), (iv.hi, base.hi)):
                                assert abs(got - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("s", [1e-165, 1e155])
    def test_tiny_and_huge_scalar(self, s):
        # s (mu^2 + 3 mu + 2): c^2 = 9 s^2 and 4mk = 8 s^2 both underflow to 0
        # at s = 1e-165 and overflow at s = 1e155
        iv = exact_definiteness_interval(scalar_system(s, 3.0 * s, 2.0 * s))
        assert not iv.empty
        assert iv.lo == pytest.approx(-2.0, rel=1e-14) and iv.hi == pytest.approx(-1.0, rel=1e-14)

    @pytest.mark.parametrize(
        "M,C,K,message",
        [
            # strongly overdamped, with roots near -1e160 and -1e-160: the
            # Duffin values are finite, but Q overflows at the outer one
            ([[2.0, 0.5], [0.5, 1.0]], 1e160 * np.eye(2), [[1.0, 0.2], [0.2, 3.0]], "Q"),
            ([[2.0, 0.5], [0.5, 1.0]], 1e200 * np.eye(2), [[1.0, 0.2], [0.2, 3.0]], "Q"),
            ([[1.0]], [[1e155]], [[1.0]], "Q"),
            ([[1.0]], [[1e200]], [[1.0]], "Q"),
            # the root -1e310 itself overflows
            ([[1e-10]], [[1e300]], [[1.0]], "diagonal Duffin values"),
        ],
    )
    def test_overflow_is_no_verdict(self, M, C, K, message):
        sys_ = DampedSystem(SymMatrix(M), SymMatrix(C), SymMatrix(K))
        with pytest.raises(NoConvergence, match=f"{message}.* overflow"):
            exact_definiteness_interval(sys_)


class TestSufficientCertificate:
    def test_decoupled_example(self):
        form = form_from([1.0, 2.0], np.diag([6.0, 10.0]))
        cert = sufficient_certificate(form, modal_split(form), "norm")
        assert isinstance(cert, OverdampedCertificate)
        assert cert.p_minus == pytest.approx((-6.0 - np.sqrt(32.0)) / 2.0, abs=1e-12)
        assert cert.p_plus == pytest.approx((-10.0 + np.sqrt(84.0)) / 2.0, abs=1e-12)

    def test_coupled_example_to_1e12(self):
        form = form_from([1.0, 2.0], np.array([[6.0, 0.1], [0.1, 10.0]]))
        cert = sufficient_certificate(form, modal_split(form), "norm")
        assert isinstance(cert, OverdampedCertificate)
        assert cert.p_minus == pytest.approx((-5.9 - np.sqrt(30.81)) / 2.0, abs=1e-12)
        assert cert.p_plus == pytest.approx((-9.9 + np.sqrt(82.01)) / 2.0, abs=1e-12)
        # cross-check: the pencil really is negative definite inside
        sys_ = DampedSystem(
            SymMatrix(np.eye(2)),
            SymMatrix([[6.0, 0.1], [0.1, 10.0]]),
            SymMatrix(np.diag([1.0, 4.0])),
        )
        assert pencil_max_eigenvalue(sys_, -2.0) < 0.0

    def test_refusal_underdamped(self):
        form = form_from([1.0, 1.0], np.diag([1.0, 1.0]))
        cert = sufficient_certificate(form, modal_split(form), "norm")
        assert isinstance(cert, CertificateRefusal)
        assert cert.reason == "nonpositive delta"

    def test_refusal_when_coupling_swamps_damping(self):
        # d - ||D'|| < 0: quadratic roots go positive, certificate must refuse
        D = np.full((3, 3), 2.0) + np.diag([0.5, 0.5, 0.5])
        D = D - np.diag(np.diag(D)) + np.diag([1.0, 1.0, 1.0])
        form = form_from([0.1, 0.2, 0.3], D)
        cert = sufficient_certificate(form, modal_split(form), "norm")
        assert isinstance(cert, CertificateRefusal)
        assert cert.reason == "nonpositive damping gap"

    def test_huge_damping_gives_finite_certificate(self):
        # d^2 - 4 omega^2 overflowed here and certified p_minus = -inf,
        # p_plus = inf
        sys_ = DampedSystem(
            SymMatrix([[2.0, 0.5], [0.5, 1.0]]),
            SymMatrix(1e160 * np.eye(2)),
            SymMatrix([[1.0, 0.2], [0.2, 3.0]]),
        )
        form = to_modal(sys_)
        for variant in ("norm", "gershgorin"):
            cert = sufficient_certificate(form, modal_split(form), variant)
            assert isinstance(cert, OverdampedCertificate)
            assert cert.p_minus == pytest.approx(-3.1560859520884e159, rel=1e-12)
            assert cert.p_plus == pytest.approx(-3.2573894134712e-160, rel=1e-12)
            for lo, hi in cert.bounds.lower + cert.bounds.upper:
                assert -np.inf < lo <= hi < 0.0
        assert pencil_max_eigenvalue(sys_, -1.0) < 0.0

    def test_overflowing_root_is_refused(self):
        # SymMatrix bounds entries by half the largest double, which keeps
        # d + x finite for a real split; a stand-in carries d = 1.79e308 so
        # that the outer roots overflow
        form = form_from([1.0, 2.0], np.eye(2))
        split = SimpleNamespace(
            is_diagonal_mode=True,
            diag=np.array([1.79e308, 1.79e308]),
            dprime_norm=1e306,
            dprime_rowsums=np.array([1e306, 1e306]),
        )
        for variant in ("norm", "gershgorin"):
            cert = sufficient_certificate(form, split, variant)
            assert cert == CertificateRefusal(variant, "root not finite", None)

    def test_gershgorin_variant(self):
        form = form_from([1.0, 2.0], np.array([[6.0, 0.1], [0.1, 10.0]]))
        cert = sufficient_certificate(form, modal_split(form), "gershgorin")
        assert isinstance(cert, OverdampedCertificate)
        # r_j = 0.1 for both modes here, same as the norm variant
        assert cert.p_minus == pytest.approx((-5.9 - np.sqrt(30.81)) / 2.0, abs=1e-12)

    def test_soundness_sweep(self):
        hits = 0
        for seed in range(60):
            n = int(np.random.default_rng(seed).integers(1, 6))
            sys_ = overdamped_system(n, 1000 + seed)
            form = to_modal(sys_)
            split = modal_split(form)
            for variant in ("norm", "gershgorin"):
                cert = sufficient_certificate(form, split, variant)
                if isinstance(cert, CertificateRefusal):
                    continue
                hits += 1
                iv = exact_definiteness_interval(sys_)
                assert not iv.empty
                assert iv.lo - 1e-8 <= cert.p_minus and cert.p_plus <= iv.hi + 1e-8
        assert hits >= 40  # the generator is certificate friendly


class TestEigenvalueIntervals:
    def test_collapse_without_coupling(self):
        form = form_from([1.0, 2.0], np.diag([6.0, 10.0]))
        split = modal_split(form)
        foci = mode_foci(form, split)
        bounds = eigenvalue_intervals(form, split, "norm")
        for j in range(2):
            lo, hi = bounds.lower[j]
            assert lo == pytest.approx(hi, abs=1e-12)
            assert lo == pytest.approx(foci.lambda_minus[j].real, abs=1e-12)
            lo, hi = bounds.upper[j]
            assert lo == pytest.approx(hi, abs=1e-12)
            assert lo == pytest.approx(foci.lambda_plus[j].real, abs=1e-12)

    def test_coupled_outer_endpoints(self):
        form = form_from([1.0, 2.0], np.array([[6.0, 0.1], [0.1, 10.0]]))
        bounds = eigenvalue_intervals(form, modal_split(form), "norm")
        disc = np.sqrt(6.1**2 - 4.0)
        assert bounds.lower[0][0] == pytest.approx((-6.1 - disc) / 2.0, abs=1e-12)
        assert bounds.upper[0][1] == pytest.approx((-6.1 + disc) / 2.0, abs=1e-12)

    def test_group_ordering(self):
        form = form_from([1.0, 2.0], np.array([[6.0, 0.1], [0.1, 10.0]]))
        bounds = eigenvalue_intervals(form, modal_split(form), "norm")
        top_lower = max(hi for _, hi in bounds.lower)
        bottom_upper = min(lo for lo, _ in bounds.upper)
        assert top_lower < bottom_upper

    def test_missing_certificate(self):
        form = form_from([1.0], np.array([[1.0]]))
        with pytest.raises(CertificateMissing):
            eigenvalue_intervals(form, modal_split(form), "norm")

    def test_contains_true_spectrum(self):
        for seed in range(25):
            n = int(np.random.default_rng(seed).integers(1, 6))
            sys_ = overdamped_system(n, 2000 + seed)
            form = to_modal(sys_)
            split = modal_split(form)
            for variant in ("norm", "gershgorin"):
                cert = sufficient_certificate(form, split, variant)
                if isinstance(cert, CertificateRefusal):
                    continue
                bounds = eigenvalue_intervals(form, split, variant)
                vals = real_spectrum(sys_)
                mid = 0.5 * (cert.p_minus + cert.p_plus)
                for lam in vals:
                    tol = 1e-9 * (1.0 + abs(lam))
                    group = bounds.lower if lam < mid else bounds.upper
                    assert any(lo - tol <= lam <= hi + tol for lo, hi in group)


class TestDuffin:
    def test_scalar(self):
        assert duffin_values(scalar_system(1, 3, 2), [1.0]) == pytest.approx((-1.0, -2.0))

    def test_undefined(self):
        assert duffin_values(scalar_system(1, 1, 1), [1.0]) is None

    @pytest.mark.parametrize("m,k", [(1.0, 1.0), (3.0, 0.5), (0.25, 7.0)])
    def test_stable_roots_to_1e12(self, m, k):
        # the small root -k/c (1 + ...) has no cancellation: -1e-8 at c = 1e8
        for e in range(1, 13):
            c = 10.0**e * 2.0 * np.sqrt(m * k)
            p_plus, p_minus = duffin_values(scalar_system(m, c, k), [1.0])
            with mpmath.workdps(40):
                r = mpmath.sqrt(mpmath.mpf(c) ** 2 - 4 * mpmath.mpf(m) * mpmath.mpf(k))
                want_plus = (-mpmath.mpf(c) + r) / (2 * mpmath.mpf(m))
                want_minus = (-mpmath.mpf(c) - r) / (2 * mpmath.mpf(m))
                assert abs(p_plus - want_plus) <= 4e-16 * abs(want_plus)
                assert abs(p_minus - want_minus) <= 4e-16 * abs(want_minus)

    @pytest.mark.parametrize("s", [1e-165, 1e155, 2.0**-550, 2.0**550])
    def test_common_scale(self, s):
        assert duffin_values(scalar_system(s, 3.0 * s, 2.0 * s), [1.0]) == pytest.approx(
            (-1.0, -2.0), rel=1e-15
        )
        assert duffin_values(scalar_system(s, s, s), [1.0]) is None

    def test_double_root(self):
        assert duffin_values(scalar_system(1, 2, 1), [1.0]) == (-1.0, -1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            duffin_values(scalar_system(1, 3, 2), [0.0])

    def test_sphere_extrema_bracket_inner_eigenvalues(self):
        sys_ = DampedSystem(
            SymMatrix(np.eye(2)), SymMatrix(np.diag([6.0, 10.0])), SymMatrix(np.diag([1.0, 4.0]))
        )
        vals = real_spectrum(sys_)  # lower group: vals[:2], upper: vals[2:]
        thetas = np.linspace(0.0, np.pi, 20001)
        plus = []
        minus = []
        for t in thetas:
            pv = duffin_values(sys_, [np.cos(t), np.sin(t)])
            assert pv is not None
            plus.append(pv[0])
            minus.append(pv[1])
        assert np.min(plus) == pytest.approx(vals[2], abs=1e-6)
        assert np.max(minus) == pytest.approx(vals[1], abs=1e-6)


class TestMinDamping:
    def test_scalar_closed_form(self):
        d, flag = min_damping_d(scalar_system(1, 3, 2))
        assert d == pytest.approx(3.0 / (2.0 * np.sqrt(2.0)), abs=1e-6)
        assert flag

    def test_scalar_critical(self):
        d, flag = min_damping_d(scalar_system(1, 2, 1))
        assert d == pytest.approx(1.0, abs=1e-6)
        assert not flag

    def test_matches_sphere_sampling(self):
        sys_ = DampedSystem(
            SymMatrix(np.eye(2)), SymMatrix(np.diag([6.0, 10.0])), SymMatrix(np.diag([1.0, 4.0]))
        )
        d, flag = min_damping_d(sys_)
        thetas = np.linspace(0.0, np.pi, 200001)
        x = np.vstack([np.cos(thetas), np.sin(thetas)])
        c = 6.0 * x[0] ** 2 + 10.0 * x[1] ** 2
        m = np.ones_like(c)
        k = x[0] ** 2 + 4.0 * x[1] ** 2
        oracle = np.min(c / (2.0 * np.sqrt(m * k)))
        assert flag
        assert d == pytest.approx(oracle, abs=1e-3)

    def test_no_factorization_of_the_built_system(self, monkeypatch):
        import ovalbounds.matdense as matdense

        sys_ = overdamped_system(4, 3)
        calls = []
        real = matdense.cholesky
        monkeypatch.setattr(matdense, "cholesky", lambda *a: calls.append(a) or real(*a))
        d, flag = min_damping_d(sys_)
        assert flag
        assert calls == []

    def test_relative_accuracy_at_small_damping(self):
        # weak duality: every t gives lambda_min(C; tM + K/t) <= d, every x
        # gives d <= x'Cx / (2 sqrt(x'Mx x'Kx)); log of the lower bound is
        # concave in s = log t, so a grid refined around its best point
        # finds the maximum
        for n in range(5, 11):
            sys_ = cli.random_system(n, n, gamma=0.01)
            M, C, K = sys_.M.array, sys_.C.array, sys_.K.array

            def lowest(s):
                t = np.exp(s)
                w, V = scipy.linalg.eigh(C, t * M + K / t, subset_by_index=[0, 0])
                return w[0], V[:, 0]

            wm, wk = np.linalg.eigvalsh(M), np.linalg.eigvalsh(K)
            grid = np.linspace(0.5 * np.log(wk[0] / wm[-1]), 0.5 * np.log(wk[-1] / wm[0]), 201)
            for _ in range(4):
                best = int(np.argmax([lowest(s)[0] for s in grid]))
                h = grid[1] - grid[0]
                grid = np.linspace(grid[best] - h, grid[best] + h, 201)
            lower, x = max((lowest(s) for s in grid), key=lambda p: p[0])
            upper = x @ C @ x / (2.0 * np.sqrt((x @ M @ x) * (x @ K @ x)))
            d, flag = min_damping_d(sys_)
            assert 1e-8 < d < 1e-4 and not flag
            assert lower * (1.0 - 1e-7) <= d <= upper * (1.0 + 1e-7)

    def test_double_lambda_min_at_the_maximiser(self, eigensolves):
        # for M = I, C = diag(6, 10), K = diag(1, 4) the two branches
        # 6/(t + 1/t) and 10/(t + 4/t) cross at t^2 = 3.5, where the first
        # falls and the second rises: the maximum is a kink with a double
        # lambda_min.  A rotation hides the diagonal structure.
        Q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((2, 2)))
        sys_ = DampedSystem(
            SymMatrix(np.eye(2)),
            SymMatrix(Q @ np.diag([6.0, 10.0]) @ Q.T),
            SymMatrix(Q @ np.diag([1.0, 4.0]) @ Q.T),
        )
        d, flag = min_damping_d(sys_)
        exact = 6.0 * np.sqrt(3.5) / 4.5
        assert flag
        assert exact * (1.0 - 1e-8) <= d <= exact * (1.0 + 1e-14)
        assert len(eigensolves) <= 25

    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_zero_tol_ends(self, n):
        # the cuts go on until the bracket is two adjacent floats
        sys_ = cli.random_system(n, 1, overdamped=True)
        d, flag = min_damping_d(sys_, tol=0.0)
        assert (d, flag) == pytest.approx(min_damping_d(sys_), rel=1e-8)

    def test_zero_tol_ends_at_a_kink(self, monkeypatch):
        # h = log lambda as the minimum of two lines: the tangent cuts stay a
        # rounding error above the best probe down to adjacent floats, where
        # the midpoint is no longer inside the bracket
        import ovalbounds.overdamped as overdamped

        s0, c, g1, g2 = 0.6095078625123933, 0.7710405334198935, 0.706113898437645, -0.9271797576704403
        calls = []

        def lines(M, C, K, s):
            calls.append(s)
            assert len(calls) < 500
            h1, h2 = c + g1 * (s - s0), c + g2 * (s - s0)
            return (float(np.exp(h1)), g1) if h1 < h2 else (float(np.exp(h2)), g2)

        monkeypatch.setattr(overdamped, "_pencil_bottom", lines)
        sys_ = DampedSystem(SymMatrix(np.eye(2)), SymMatrix(np.diag([6.0, 10.0])), SymMatrix(np.diag([1.0, 4.0])))
        d, flag = min_damping_d(sys_, tol=0.0)
        assert d == pytest.approx(np.exp(c), rel=1e-14) and flag

    def test_eigensolves_at_small_damping(self, eigensolves):
        for n in range(5, 11):
            sys_ = cli.random_system(n, n, gamma=0.01)
            eigensolves.clear()
            min_damping_d(sys_)
            assert len(eigensolves) <= 25

    def test_singular_damping(self):
        sys_ = DampedSystem(
            SymMatrix(np.eye(2)), SymMatrix(np.diag([4.0, 0.0])), SymMatrix(np.eye(2))
        )
        d, flag = min_damping_d(sys_)
        assert not flag
        assert d == pytest.approx(0.0, abs=1e-6)


def is_hyperbolic(sys_: DampedSystem) -> bool:
    """Oracle for a nonempty interval: all eigenvalues real and -Q negative
    definite between the n-th and the (n+1)-th, the interval's only place."""
    vals = np.linalg.eigvals(
        np.block(
            [
                [np.zeros((sys_.order, sys_.order)), np.eye(sys_.order)],
                [-np.linalg.solve(sys_.M.array, sys_.K.array), -np.linalg.solve(sys_.M.array, sys_.C.array)],
            ]
        )
    )
    if np.max(np.abs(vals.imag)) > 1e-8 * np.max(np.abs(vals)):
        return False
    vals = np.sort(vals.real)
    mu = 0.5 * (vals[sys_.order - 1] + vals[sys_.order])
    return bool(np.all(np.linalg.eigvalsh(mu * mu * sys_.M.array + mu * sys_.C.array + sys_.K.array) < 0.0))


@pytest.mark.parametrize("n", range(1, 9))
def test_damping_ratio_and_interval_agree(n):
    """min_damping_d's flag is the interval's nonemptiness, and a nonempty
    interval is bounded by the n-th and (n+1)-th eigenvalues."""
    for seed in range(4):
        over = cli.random_system(n, seed, overdamped=True)
        under = DampedSystem(over.M, SymMatrix(0.5 * over.C.array), over.K)
        # every system here needed C doubled at least once, so the halved
        # one is the last that random_system found not overdamped
        assert exact_definiteness_interval(under).empty
        assert is_hyperbolic(over) and not is_hyperbolic(under)
        for sys_ in (over, under):
            d, flag = min_damping_d(sys_)
            iv = exact_definiteness_interval(sys_)
            if abs(d - 1.0) < 1e-7:
                continue
            assert flag == (not iv.empty)
            if flag:
                vals = real_spectrum(sys_)
                assert iv.lo == pytest.approx(vals[n - 1], rel=1e-9)
                assert iv.hi == pytest.approx(vals[n], rel=1e-9)


def admissible_perturbation(sys_: DampedSystem, eps: float, seed: int) -> DampedSystem:
    """Random symmetric relative perturbation: |x' dA x| <= eps x' A x."""
    rng = np.random.default_rng(seed)
    mats = []
    for key in ("M", "C", "K"):
        A = getattr(sys_, key).array
        w, V = sym_eig(SymMatrix(A))
        root = V @ np.diag(np.sqrt(np.maximum(w, 0.0))) @ V.T
        S = rng.standard_normal(A.shape)
        S = 0.5 * (S + S.T)
        S *= eps / max(np.linalg.norm(S, 2), 1e-300)
        mats.append(SymMatrix(A + root @ S @ root))
    return DampedSystem(*mats)


class TestEtaEnvelope:
    def test_zero_epsilon_collapses(self):
        sys_ = modally_damped_overdamped_system(3, 7)
        form = to_modal(sys_)
        env = eta_envelope(form, 0.0)
        vals = real_spectrum(sys_)
        assert np.allclose(env.minus_lower, env.minus_upper)
        assert np.allclose(env.plus_lower, env.plus_upper)
        assert np.allclose(np.concatenate([env.minus_lower, env.plus_lower]), vals, atol=1e-7)

    def test_scalar_bracket(self):
        form = form_from([np.sqrt(2.0)], np.array([[3.0]]))
        env = eta_envelope(form, 0.01)
        for eta, got in ((0.99 / 1.01, env.plus_lower[0]), (1.01 / 0.99, env.plus_upper[0])):
            expect = (-3.0 * eta + np.sqrt(9.0 * eta**2 - 8.0)) / 2.0
            assert got == pytest.approx(expect, abs=1e-12)
        assert env.plus_lower[0] <= -1.0 <= env.plus_upper[0]

    def test_epsilon_too_large(self):
        form = form_from([1.0], np.array([[2.2]]))  # d = 1.1, margin (d-1)/(d+1) ~ .0476
        with pytest.raises(EpsilonTooLarge):
            eta_envelope(form, 0.2)

    def test_requires_diagonal_damping(self):
        form = form_from([1.0, 2.0], np.array([[6.0, 0.5], [0.5, 10.0]]))
        with pytest.raises(ValueError):
            eta_envelope(form, 0.01)

    def test_monotone_widening(self):
        form = form_from([1.0, 2.0], np.diag([6.0, 11.0]))
        e1 = eta_envelope(form, 0.02)
        e2 = eta_envelope(form, 0.05)
        assert np.all(e2.minus_lower <= e1.minus_lower)
        assert np.all(e2.minus_upper >= e1.minus_upper)
        assert np.all(e2.plus_lower <= e1.plus_lower)
        assert np.all(e2.plus_upper >= e1.plus_upper)

    def test_perturb_and_solve_oracle(self):
        for seed in range(20):
            n = int(np.random.default_rng(seed).integers(1, 5))
            sys_ = modally_damped_overdamped_system(n, 3000 + seed)
            form = to_modal(sys_)
            d, flag = min_damping_d(sys_, tol=1e-6)
            assert flag
            eps = 0.4 * (d - 1.0) / (d + 1.0)
            env = eta_envelope(form, eps)
            pert = admissible_perturbation(sys_, eps, seed)
            vals = real_spectrum(pert)
            minus, plus = vals[:n], vals[n:]
            tol = 1e-8 * (1.0 + np.max(np.abs(vals)))
            assert np.all(minus >= env.minus_lower - tol)
            assert np.all(minus <= env.minus_upper + tol)
            assert np.all(plus >= env.plus_lower - tol)
            assert np.all(plus <= env.plus_upper + tol)


class TestStructuralProperties:
    def test_projection_monotonicity(self):
        for seed in range(15):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 6))
            sys_ = overdamped_system(n, 4000 + seed)
            iv = exact_definiteness_interval(sys_)
            if iv.empty:
                continue
            m = int(rng.integers(1, n))
            X = rng.standard_normal((n, m))
            proj = DampedSystem(
                SymMatrix(X.T @ sys_.M.array @ X),
                SymMatrix(X.T @ sys_.C.array @ X),
                SymMatrix(X.T @ sys_.K.array @ X),
            )
            piv = exact_definiteness_interval(proj)
            assert not piv.empty
            assert piv.lo <= iv.lo + 1e-7 and iv.hi <= piv.hi + 1e-7

    def test_block_rule(self):
        a = modally_damped_overdamped_system(2, 11)
        b = modally_damped_overdamped_system(2, 12)
        iva = exact_definiteness_interval(a)
        ivb = exact_definiteness_interval(b)

        def blockdiag(x, y):
            return SymMatrix(np.block([[x.array, np.zeros((2, 2))], [np.zeros((2, 2)), y.array]]))

        joint = DampedSystem(blockdiag(a.M, b.M), blockdiag(a.C, b.C), blockdiag(a.K, b.K))
        ivj = exact_definiteness_interval(joint)
        lo, hi = max(iva.lo, ivb.lo), min(iva.hi, ivb.hi)
        if lo < hi:
            assert not ivj.empty
            assert ivj.lo == pytest.approx(lo, abs=1e-6)
            assert ivj.hi == pytest.approx(hi, abs=1e-6)
        else:
            assert ivj.empty

    def test_modal_approximation_preserves_overdamping(self):
        for seed in range(10):
            sys_ = overdamped_system(3, 5000 + seed)
            if exact_definiteness_interval(sys_).empty:
                continue
            form = to_modal(sys_)
            approx = DampedSystem(
                SymMatrix(np.eye(3)),
                SymMatrix(np.diag(np.diag(form.D.array))),
                SymMatrix(np.diag(form.omega**2)),
            )
            assert not exact_definiteness_interval(approx).empty

    def test_growing_viscosity_monotonicity(self):
        for seed in range(15):
            n = int(np.random.default_rng(seed).integers(2, 5))
            sys_ = overdamped_system(n, 6000 + seed)
            iv = exact_definiteness_interval(sys_)
            if iv.empty:
                continue
            rng = np.random.default_rng(seed + 1)

            def psd(scale, base):
                g = rng.standard_normal((n, n))
                P = g @ g.T
                return P * (scale / max(np.linalg.norm(P, 2), 1e-300)) * base

            dm = psd(0.05, float(np.linalg.eigvalsh(sys_.M.array)[0]))
            dk = psd(0.05, float(np.linalg.eigvalsh(sys_.K.array)[0]))
            dc = psd(0.1, spectral_norm(sys_.C))
            harder = DampedSystem(
                SymMatrix(sys_.M.array - dm),
                SymMatrix(sys_.C.array + dc),
                SymMatrix(sys_.K.array - dk),
            )
            mid = 0.5 * (iv.lo + iv.hi)
            vals = real_spectrum(sys_)
            hvals = real_spectrum(harder)
            minus, plus = vals[vals < mid], vals[vals >= mid]
            hminus, hplus = hvals[hvals < mid], hvals[hvals >= mid]
            assert len(minus) == n and len(hminus) == n
            slack = 1e-9 * (1.0 + np.max(np.abs(vals)))
            assert np.all(np.sort(hminus) <= np.sort(minus) + slack)
            assert np.all(np.sort(hplus) >= np.sort(plus) - slack)
