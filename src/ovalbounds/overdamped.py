"""Overdampedness certificates, definiteness intervals, eigenvalue interval
bounds, Duffin functionals and viscosity-monotonicity envelopes.

A system is overdamped when some mu < 0 makes mu^2 M + mu C + K negative
definite; the set of such mu is an open interval separating the 2n real
eigenvalues into the lower and upper group.  The certificates here are
sufficient conditions computed from the diagonal modal split.  The exact
references are searches certified by derivatives: the interval comes from
Newton steps on the largest eigenvalue of the pencil, which is convex in mu,
from both outer ends, and the minimal damping ratio from tangent cuts on the
logarithm of a concave smallest pencil eigenvalue.  Each probe is one
eigensolve whose eigenvector gives the (sub)gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack

from .errors import CertificateMissing, EpsilonTooLarge, NoConvergence
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


@dataclass(frozen=True)
class OverdampedCertificate:
    """Sufficient-condition certificate: all deltas positive, the interval
    (p_minus, p_plus) proving negative definiteness, and the eigenvalue
    interval bounds it proves."""

    variant: str
    deltas: np.ndarray
    p_minus: float
    p_plus: float
    bounds: IntervalBounds

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


#: Cap on the Newton steps per side of the definiteness interval search.  A
#: simple root takes a handful; a double root (a critically overdamped
#: system) converges linearly, halving the distance per step.
_NEWTON_STEPS = 200


def _pencil_top(M: np.ndarray, C: np.ndarray, K: np.ndarray, mu: float) -> tuple[float, float]:
    """lambda_max(Q(mu)) and x'(2 mu M + C)x for its unit eigenvector x, a
    subgradient of the convex function mu -> lambda_max(Q(mu))."""
    n = len(M)
    w, v, _, _, info = scipy.linalg.lapack.dsyevr(mu * mu * M + mu * C + K, range="I", il=n, iu=n)
    if info:
        raise NoConvergence(f"dsyevr failed with info {info} at mu = {mu}")
    x = v[:, 0]
    return float(w[0]), float(x @ (2.0 * mu * (M @ x) + C @ x))


def exact_definiteness_interval(sys: DampedSystem, tol: float = 1e-10) -> DefinitenessInterval:
    """Compute the definiteness interval by Newton steps from both outer ends.

    f(mu) = lambda_max(Q(mu)) is a pointwise maximum of convex quadratics
    with positive leading coefficient, hence convex, and the top eigenvector
    x gives the subgradient f' = x'(2 mu M + C)x.  f > 0 at 0 and at
    lo = -2||C||/lambda_min(M) - 1, beyond every root of every Rayleigh
    quotient quadratic.  Every tangent lies below f, so a Newton sequence
    started at either end moves inward monotonically and never passes a
    root; a side stops when its step is at most tol (1 + |mu|).  Once both
    have stopped, the midpoint between them is probed: with f < 0 there the
    final iterates, outer bounds of the interval, are returned; otherwise
    the midpoint joins the side its subgradient points away from, and that
    side steps on.  The interval is empty exactly when a probe with f >= 0
    has a subgradient pointing outward (then f >= 0 on both sides of it) or
    when the two sequences cross (then f > 0 everywhere); both are
    certificates by convexity, so the verdict does not depend on tol.
    """
    M, C, K = sys.M.array, sys.C.array, sys.K.array
    min_m = float(np.linalg.eigvalsh(M)[0])
    ends = [-2.0 * spectral_norm(C) / min_m - 1.0, 0.0]
    outward = (1.0, -1.0)  # per side, the sign of f' that rules the interval out
    active = [True, True]
    for _ in range(_NEWTON_STEPS):
        for side in (0, 1):
            if not active[side]:
                continue
            mu = ends[side]
            f, g = _pencil_top(M, C, K, mu)
            if f <= 0.0:
                active[side] = False
                continue
            if g * outward[side] >= 0.0:
                return DefinitenessInterval.none()
            step = -f / g
            ends[side] = mu + step
            active[side] = abs(step) > tol * (1.0 + abs(ends[side]))
        if ends[0] >= ends[1]:
            return DefinitenessInterval.none()
        if not any(active):
            # Newton iterates stay outside the interval, so a point inside is
            # still owed.  A midpoint with f > 0 is an iterate of the side its
            # subgradient points away from, and that side steps on from it.
            mid = 0.5 * (ends[0] + ends[1])
            f, g = _pencil_top(M, C, K, mid)
            if f < 0.0:
                return DefinitenessInterval(ends[0], ends[1])
            if g == 0.0:
                return DefinitenessInterval.none()
            side = 0 if g < 0.0 else 1
            ends[side], active[side] = mid - f / g, True
    raise NoConvergence(f"definiteness interval search did not settle in {_NEWTON_STEPS} steps")


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

    A certificate carries the per-mode bounds of the two eigenvalue groups.
    For mode j with perturbation size x_j (||Dprime|| or the row sum r_j)
    the outer/inner endpoints are

        (-d_jj - x_j +- sqrt((d_jj + x_j)^2 - 4 omega_j^2)) / 2
        (-d_jj + x_j +- sqrt((d_jj - x_j)^2 - 4 omega_j^2)) / 2

    giving the lower-group interval (outer-, inner-) and the upper-group
    interval (inner+, outer+).
    """
    if not split.is_diagonal_mode:
        raise CertificateMissing("certificates require the diagonal split")
    d, omega = split.diag, form.omega
    if variant == "norm":
        x = np.full(len(d), split.dprime_norm)
    elif variant == "gershgorin":
        x = split.dprime_rowsums
    else:
        raise ValueError(f"unknown certificate variant {variant!r}")
    gap = d - x
    deltas = gap * gap - 4.0 * omega**2
    for j in range(len(d)):
        if gap[j] <= 0.0:
            return CertificateRefusal(variant, "nonpositive damping gap", j)
        if deltas[j] <= 0.0:
            return CertificateRefusal(variant, "nonpositive delta", j)
    p_minus, p_plus = _modal_interval(gap, omega)
    if not p_minus < p_plus:
        return CertificateRefusal(variant, "interval ordering failed", None)
    outer_p, outer_m = quadratic_roots(d + x, omega)
    inner_p, inner_m = quadratic_roots(d - x, omega)
    lower = tuple(zip(outer_m.real.tolist(), inner_m.real.tolist()))
    upper = tuple(zip(inner_p.real.tolist(), outer_p.real.tolist()))
    bounds = IntervalBounds(variant, lower, upper)
    return OverdampedCertificate(variant, deltas, p_minus, p_plus, bounds)


def eigenvalue_intervals(
    form: ModalForm, split: ModalSplit, variant: str = "norm"
) -> IntervalBounds:
    """The interval bounds of the corresponding sufficient certificate;
    raises CertificateMissing on refusal."""
    cert = sufficient_certificate(form, split, variant)
    if isinstance(cert, CertificateRefusal):
        raise CertificateMissing(f"{variant} certificate refused: {cert.reason}")
    return cert.bounds


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


def _pencil_bottom(M: np.ndarray, C: np.ndarray, K: np.ndarray, s: float) -> tuple[float, float]:
    """lambda = lambda_min(C; B) with B = tM + K/t, t = e^s, and the slope
    -x'(tM - K/t)x of log lambda in s for its eigenvector x with x'Bx = 1."""
    t = np.exp(s)
    w, z, _, _, info = scipy.linalg.lapack.dsygvx(C, t * M + K / t, range="I", il=1, iu=1)
    if info:
        raise NoConvergence(f"dsygvx failed with info {info} at t = {t}")
    x = z[:, 0]
    return float(w[0]), float(x @ (K @ x) / t - t * (x @ (M @ x)))


def min_damping_d(sys: DampedSystem, tol: float = 1e-8) -> tuple[float, bool]:
    """Minimal damping ratio d = min_x x'Cx / (2 sqrt(x'Mx x'Kx)).

    Since t x'Mx + x'Kx / t >= 2 sqrt(x'Mx x'Kx) with equality at
    t = sqrt(x'Kx / x'Mx), d is the maximum over t > 0 of lambda(t), the
    smallest eigenvalue of the pencil (C, tM + K/t), and every best t lies
    in [lambda_min(K) / lambda_max(M), lambda_max(K) / lambda_min(M)]^(1/2).
    h(s) = log lambda(e^s) is concave in s = log t, and the eigenvector of
    each probe gives its slope, so the tangents at the two ends of the
    bracket bound h from above.  The next probe is where they intersect
    (the midpoint whenever the bracket has not halved over the last two
    probes, which keeps a kink at a multiple lambda_min safe), and the
    search stops once that intersection lies at most ``tol`` above log of
    the best probe, a certified relative accuracy ``tol`` on d (or when the
    bracket is ``tol`` wide, as h is 1-Lipschitz).  The returned d is the
    best probe, an attained lower bound, clamped at 0, and exactly 0 when C
    is singular to working precision.  Returns (d, overdamped) where the
    flag is d > 1; values at or below 1 mean the system itself cannot be
    certified overdamped.
    """
    M, C, K = sys.M.array, sys.C.array, sys.K.array
    wm = np.linalg.eigvalsh(M)
    wk = np.linalg.eigvalsh(K)
    # For a singular C the computed best value is rounding noise, within about
    # n eps lambda_max(C; B) of 0, and B = tM + K/t >= 2 sqrt(min M min K) I.
    noise = 8.0 * len(wm) * np.finfo(float).eps * spectral_norm(C) / (2.0 * np.sqrt(wm[0] * wk[0]))
    a, b = 0.5 * np.log(wk[0] / wm[-1]), 0.5 * np.log(wk[-1] / wm[0])
    la, ga = _pencil_bottom(M, C, K, a)
    lb, gb = _pencil_bottom(M, C, K, b)
    widths = [np.inf, np.inf, b - a]  # after each probe
    while min(la, lb) > 0.0 and ga > 0.0 > gb and b - a > tol:
        ha, hb = np.log(la), np.log(lb)
        s = (hb - ha + ga * a - gb * b) / (ga - gb)
        if ha + ga * (s - a) - max(ha, hb) <= tol:
            break
        if not a < s < b or widths[-1] > 0.5 * widths[-3]:
            s = 0.5 * (a + b)
            if not a < s < b:  # adjacent floats: the bracket cannot shrink
                break
        lam, g = _pencil_bottom(M, C, K, s)
        if g >= 0.0:
            a, la, ga = s, lam, g
        if g <= 0.0:
            b, lb, gb = s, lam, g
        widths.append(b - a)
    best = max(la, lb)
    if best <= noise:
        return 0.0, False
    return best, bool(best > 1.0)


def eta_envelope(form: ModalForm, epsilon: float) -> EtaEnvelope:
    """Eigenvalue brackets for relative perturbations of size epsilon.

    The unperturbed system must be modally damped (diagonal D) and
    overdamped; epsilon must satisfy epsilon < (d - 1)/(d + 1) with the
    minimal damping ratio d, which keeps the bracketing systems
    ((1+e)M, (1-e)C, (1+e)K) and ((1-e)M, (1+e)C, (1-e)K) overdamped.  Both
    are the unperturbed system at viscosities eta = (1-e)/(1+e) and its
    reciprocal, so the sorted eigenvalue groups of the decoupled system
    (I, eta D, Omega^2) at these two viscosities bound the perturbed groups
    componentwise.  The interval check at eta_soft keeps every mode
    overdamped at both, as eta_hard >= eta_soft.
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
    plus_soft, minus_soft = (np.sort(v.real) for v in quadratic_roots(d * eta_soft, form.omega))
    plus_hard, minus_hard = (np.sort(v.real) for v in quadratic_roots(d * eta_hard, form.omega))
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
