"""Overdampedness certificates, definiteness intervals, eigenvalue interval
bounds, Duffin functionals and viscosity-monotonicity envelopes.

A system is overdamped when some mu < 0 makes mu^2 M + mu C + K negative
definite; the set of such mu is an open interval separating the 2n real
eigenvalues into the lower and upper group.  The certificates here are
sufficient conditions computed from the diagonal modal split; the exact test
minimizes the largest eigenvalue of the pencil, which is convex in mu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import CertificateMissing, EpsilonTooLarge
from .matdense import DampedSystem, _readonly, spectral_norm
from .modal import ModalForm, ModalSplit, quadratic_roots


@dataclass(frozen=True)
class DefinitenessInterval:
    """Open interval (lo, hi) with lo < hi < 0, or the empty marker."""

    lo: float
    hi: float
    empty: bool = False

    @classmethod
    def none(cls) -> "DefinitenessInterval":
        return cls(np.nan, np.nan, empty=True)

    def contains_interval(self, lo: float, hi: float, slack: float = 0.0) -> bool:
        if self.empty:
            return False
        return self.lo - slack <= lo and hi <= self.hi + slack


@dataclass(frozen=True)
class OverdampedCertificate:
    """Sufficient-condition certificate: all deltas positive and the interval
    (p_minus, p_plus) proving negative definiteness."""

    variant: str
    deltas: np.ndarray
    p_minus: float
    p_plus: float

    def __post_init__(self):
        object.__setattr__(self, "deltas", _readonly(self.deltas))


@dataclass(frozen=True)
class CertificateRefusal:
    """Failed sufficient condition; not a proof of non-overdampedness."""

    variant: str
    reason: str
    mode: int | None = None


@dataclass(frozen=True)
class IntervalBounds:
    """Per-mode closed interval bounds for the two real eigenvalue groups."""

    variant: str
    lower: tuple[tuple[float, float], ...]
    upper: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class EtaEnvelope:
    """Componentwise eigenvalue brackets under relative form perturbations.

    Sorted sequences: the lower group is bracketed by minus_lower/minus_upper,
    the upper group by plus_lower/plus_upper.  At epsilon = 0 all four
    collapse to the sorted unperturbed eigenvalues.
    """

    epsilon: float
    minus_lower: np.ndarray
    minus_upper: np.ndarray
    plus_lower: np.ndarray
    plus_upper: np.ndarray

    def __post_init__(self):
        for name in ("minus_lower", "minus_upper", "plus_lower", "plus_upper"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))


def _pencil_max(M: np.ndarray, C: np.ndarray, K: np.ndarray, mu: float) -> float:
    return float(np.linalg.eigvalsh(mu * mu * M + mu * C + K)[-1])


def pencil_max_eigenvalue(sys: DampedSystem, mu: float) -> float:
    """Largest eigenvalue of Q(mu) = mu^2 M + mu C + K."""
    return _pencil_max(sys.M.array, sys.C.array, sys.K.array, mu)


def _golden_max(f, a: float, b: float):
    """Golden-section search for the maximum of a unimodal f on [a, b].

    Endless generator: after each step yields (a, b, x, f(x)), the current
    bracket and its best probe; the caller stops it.  Each step costs one
    evaluation of f and shrinks the bracket by (sqrt 5 - 1) / 2.
    """
    g = 0.5 * (np.sqrt(5.0) - 1.0)
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    while True:
        if fc >= fd:
            yield a, b, c, fc
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            yield a, b, d, fd
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)


def _bisect(f, lo: float, hi: float, tol: float) -> float:
    """Root of f (sign change assumed between lo and hi) by bisection."""
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol * (1.0 + abs(mid)):
            break
        fm = f(mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def exact_definiteness_interval(sys: DampedSystem, tol: float = 1e-10) -> DefinitenessInterval:
    """Compute the definiteness interval by convex minimization.

    f(mu) = lambda_max(Q(mu)) is a pointwise maximum of convex quadratics
    with positive leading coefficient, hence convex.  A golden-section search
    on [-2||C||/lambda_min(M) - 1, 0] (which brackets every root of every
    Rayleigh quotient quadratic) stops at its first probe with f < 0, and the
    two sign changes on either side of that probe are then bisected.  The
    interval is declared empty only when the search has converged on the
    minimum of f without finding a negative value.
    """
    M, C, K = sys.M.array, sys.C.array, sys.K.array
    min_m = float(np.linalg.eigvalsh(M)[0])
    lo = -2.0 * spectral_norm(C) / min_m - 1.0
    hi = 0.0
    f = lambda mu: _pencil_max(M, C, K, mu)
    for a, b, mu_star, minus_f in _golden_max(lambda mu: -f(mu), lo, hi):
        if minus_f > 0.0:
            break
        if b - a <= 1e-13 * (1.0 + abs(a) + abs(b)):
            return DefinitenessInterval.none()
    left = _bisect(f, lo, mu_star, tol)
    right = _bisect(f, mu_star, hi, tol)
    return DefinitenessInterval(left, right)


def _certificate_inputs(form: ModalForm, split: ModalSplit, variant: str):
    if not split.is_diagonal_mode:
        raise CertificateMissing("certificates require the diagonal split")
    d = split.diag
    if variant == "norm":
        x = np.full(len(d), split.dprime_norm)
    elif variant == "gershgorin":
        x = split.dprime_rowsums
    else:
        raise ValueError(f"unknown certificate variant {variant!r}")
    return d, form.omega, x


def sufficient_certificate(
    form: ModalForm, split: ModalSplit, variant: str = "norm"
) -> OverdampedCertificate | CertificateRefusal:
    """Sufficient overdampedness test from the diagonal modal split.

    The ``norm`` variant compares each diagonal entry against the spectral
    norm of the off-diagonal part, the ``gershgorin`` variant against the
    per-mode absolute row sum.  Success requires, for every mode,

        d_jj - x_j > 2 omega_j        (so Delta_j = (d_jj - x_j)^2 - 4 omega_j^2 > 0
                                       with negative quadratic roots)

    and a nonempty intersection p_minus < p_plus of the per-mode root
    intervals.  The gap positivity is part of the dominance argument: with
    d_jj <= x_j the quadratic roots turn positive and prove nothing.
    Refusal is a value, not an error, and does not imply non-overdamped.
    """
    d, omega, x = _certificate_inputs(form, split, variant)
    gap = d - x
    deltas = gap * gap - 4.0 * omega**2
    for j in range(len(d)):
        if gap[j] <= 0.0:
            return CertificateRefusal(variant, "nonpositive damping gap", j)
        if deltas[j] <= 0.0:
            return CertificateRefusal(variant, "nonpositive delta", j)
    roots_hi, roots_lo = quadratic_roots(gap, omega)
    p_minus = float(np.max(roots_lo.real))
    p_plus = float(np.min(roots_hi.real))
    if not p_minus < p_plus:
        return CertificateRefusal(variant, "interval ordering failed", None)
    return OverdampedCertificate(variant, deltas, p_minus, p_plus)


def eigenvalue_intervals(
    form: ModalForm, split: ModalSplit, variant: str = "norm"
) -> IntervalBounds:
    """Per-mode interval bounds for the two eigenvalue groups.

    Requires the corresponding sufficient certificate; raises
    CertificateMissing on refusal.  For mode j with perturbation size x_j
    (||Dprime|| or the row sum r_j) the outer/inner endpoints are

        (-d_jj - x_j +- sqrt((d_jj + x_j)^2 - 4 omega_j^2)) / 2
        (-d_jj + x_j +- sqrt((d_jj - x_j)^2 - 4 omega_j^2)) / 2

    giving the lower-group interval (outer-, inner-) and the upper-group
    interval (inner+, outer+).
    """
    cert = sufficient_certificate(form, split, variant)
    if isinstance(cert, CertificateRefusal):
        raise CertificateMissing(f"{variant} certificate refused: {cert.reason}")
    d, omega, x = _certificate_inputs(form, split, variant)
    outer_p, outer_m = quadratic_roots(d + x, omega)
    inner_p, inner_m = quadratic_roots(d - x, omega)
    lower = tuple(zip(outer_m.real.tolist(), inner_m.real.tolist()))
    upper = tuple(zip(inner_p.real.tolist(), outer_p.real.tolist()))
    return IntervalBounds(variant, lower, upper)


def duffin_values(sys: DampedSystem, x) -> tuple[float, float] | None:
    """Duffin functionals p_plus(x), p_minus(x) or None when undefined.

    With m = x'Mx, c = x'Cx, k = x'Kx these are the roots of
    m t^2 + c t + k, defined when c^2 >= 4 m k.
    """
    x = np.asarray(x, dtype=float)
    if not np.any(x):
        raise ValueError("x must be nonzero")
    m = float(x @ sys.M.array @ x)
    c = float(x @ sys.C.array @ x)
    k = float(x @ sys.K.array @ x)
    disc = c * c - 4.0 * m * k
    if disc < 0.0:
        return None
    t_plus, t_minus = quadratic_roots(c / m, np.sqrt(k / m))
    return t_plus.real, t_minus.real


def min_damping_d(sys: DampedSystem, tol: float = 1e-8) -> tuple[float, bool]:
    """Minimal damping ratio d = min_x x'Cx / (2 sqrt(x'Mx x'Kx)).

    Since t x'Mx + x'Kx / t >= 2 sqrt(x'Mx x'Kx) with equality at
    t = sqrt(x'Kx / x'Mx), d is the maximum over t > 0 of the smallest
    eigenvalue of the pencil (C, tM + K/t).  Its logarithm is concave and
    1-Lipschitz in s = log t, and every best t lies in
    [lambda_min(K) / lambda_max(M), lambda_max(K) / lambda_min(M)]^(1/2), so
    one golden-section search over s finds it; ``tol`` is the final width of
    the s bracket and hence the relative accuracy of d.  The returned d is
    an attained lower bound, clamped at 0, and exactly 0 when C is singular
    to working precision.  Returns (d, overdamped) where the flag is d > 1;
    values at or below 1 mean the system itself cannot be certified
    overdamped.
    """
    M, C, K = sys.M.array, sys.C.array, sys.K.array
    wm = np.linalg.eigvalsh(M)
    wk = np.linalg.eigvalsh(K)

    def f(s: float) -> float:
        t = np.exp(s)
        w = scipy.linalg.eigh(C, t * M + K / t, eigvals_only=True, subset_by_index=[0, 0])
        return float(w[0])

    lo, hi = 0.5 * np.log(wk[0] / wm[-1]), 0.5 * np.log(wk[-1] / wm[0])
    for a, b, _, best in _golden_max(f, lo, hi):
        if b - a <= tol:
            break
    # For a singular C the computed best value is rounding noise, within about
    # n eps lambda_max(C; B) of 0, and B = tM + K/t >= 2 sqrt(min M min K) I.
    noise = 8.0 * len(wm) * np.finfo(float).eps * spectral_norm(C) / (2.0 * np.sqrt(wm[0] * wk[0]))
    if best <= noise:
        return 0.0, False
    return best, bool(best > 1.0)


def modal_eigenvalues_at_viscosity(form: ModalForm, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Sorted eigenvalue groups of the decoupled system (I, eta D, Omega^2).

    Valid for diagonal modal damping with every mode overdamped at the given
    viscosity; returns (lower group, upper group), each ascending.
    """
    d = np.diag(form.D.array) * eta
    disc = d * d - 4.0 * form.omega**2
    if np.any(disc < 0.0):
        raise ValueError(f"a mode is underdamped at viscosity {eta}")
    lam_plus, lam_minus = quadratic_roots(d, form.omega)
    return np.sort(lam_minus.real), np.sort(lam_plus.real)


def eta_envelope(form: ModalForm, epsilon: float) -> EtaEnvelope:
    """Eigenvalue brackets for relative perturbations of size epsilon.

    The unperturbed system must be modally damped (diagonal D) and
    overdamped; epsilon must satisfy epsilon < (d - 1)/(d + 1) with the
    minimal damping ratio d, which keeps the bracketing systems
    ((1+e)M, (1-e)C, (1+e)K) and ((1-e)M, (1+e)C, (1-e)K) overdamped.  Both
    are the unperturbed system at viscosities eta = (1-e)/(1+e) and its
    reciprocal, so sorted per-mode eigenvalues bound the perturbed groups
    componentwise.
    """
    D = form.D.array
    off = D - np.diag(np.diag(D))
    if np.max(np.abs(off), initial=0.0) > 1e-12 * max(form.damping_norm, 1e-300):
        raise ValueError("eta envelope requires diagonal modal damping")
    if not 0.0 <= epsilon < 1.0:
        raise EpsilonTooLarge(f"epsilon must be in [0, 1), got {epsilon}")
    d = np.diag(D)
    theta_margin = np.min(d / (2.0 * form.omega))
    # admissibility: the softened viscosity must keep every mode overdamped
    # and the definiteness intervals intersecting; the ratio test below is
    # the per-mode necessary part, the interval check catches the rest.
    eta_soft = (1.0 - epsilon) / (1.0 + epsilon)
    eta_hard = (1.0 + epsilon) / (1.0 - epsilon)
    if theta_margin * eta_soft < 1.0:
        raise EpsilonTooLarge(
            f"epsilon {epsilon} drives a mode under critical damping"
        )
    soft_lo, soft_hi = _modal_interval(d * eta_soft, form.omega)
    if not soft_lo < soft_hi:
        raise EpsilonTooLarge(
            f"epsilon {epsilon} breaks the definiteness interval intersection"
        )
    minus_soft, plus_soft = modal_eigenvalues_at_viscosity(form, eta_soft)
    minus_hard, plus_hard = modal_eigenvalues_at_viscosity(form, eta_hard)
    return EtaEnvelope(
        epsilon=epsilon,
        minus_lower=minus_hard,
        minus_upper=minus_soft,
        plus_lower=plus_soft,
        plus_upper=plus_hard,
    )


def _modal_interval(d: np.ndarray, omega: np.ndarray) -> tuple[float, float]:
    """Intersection of per-mode root intervals of a decoupled system."""
    disc = d * d - 4.0 * omega**2
    if np.any(disc <= 0.0):
        return (0.0, 0.0)
    plus, minus = quadratic_roots(d, omega)
    return float(np.max(minus.real)), float(np.min(plus.real))
