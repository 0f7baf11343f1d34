"""Overdampedness certificates, definiteness intervals, eigenvalue interval
bounds, Duffin functionals and viscosity-monotonicity envelopes.

A system is overdamped when some mu < 0 makes mu^2 M + mu C + K negative
definite; the set of such mu is an open interval separating the 2n real
eigenvalues into the lower and upper group.  The certificates here are
sufficient conditions computed from the diagonal modal split.  The exact
references are certified searches.  The interval comes from Duffin's
minimax: every x bounds it by the roots p_minus(x) <= p_plus(x) of
x'Mx t^2 + x'Cx t + x'Kx, so the diagonal entries give an outer bracket, and
each side then steps to the Duffin value of the top eigenvector of the pencil
at its end, never passing the interval because that eigenvector's quadratic
lies below the convex largest pencil eigenvalue and touches it there.  The
minimal damping ratio comes from tangent cuts on the logarithm of a concave
smallest pencil eigenvalue.  Each probe is one eigensolve whose eigenvector
gives the (sub)gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack

from .errors import CertificateMissing, EpsilonTooLarge, NoConvergence
from .matdense import DampedSystem, _readonly, spectral_norm
from .modal import ModalForm, ModalSplit, overdamped_modes, quadratic_roots, real_roots


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
    """Sufficient-condition certificate: the interval (p_minus, p_plus)
    proving negative definiteness, and the eigenvalue interval bounds it
    proves."""

    variant: str
    p_minus: float
    p_plus: float
    bounds: IntervalBounds


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


#: Cap on the Duffin steps per side of the definiteness interval search.  A
#: simple root takes a handful; a double root (a critically overdamped
#: system) converges linearly.
_DUFFIN_STEPS = 200


def _probe(MCK: np.ndarray, mu: float) -> tuple[float, float, tuple[float, float] | None]:
    """f = lambda_max(Q(mu)), its subgradient g = x'(2 mu M + C)x and the
    Duffin values of its unit eigenvector x, None when c <= 2 sqrt(mk) with
    m = x'Mx, c = x'Cx, k = x'Kx; MCK stacks M, C and K as (3, n, n).  A
    Q(mu) that overflows (dsyevr then finds no eigenvalue or an infinite
    one), a quadratic form that is not finite and positive where it must
    be, or Duffin values that overflow raise NoConvergence."""
    M, C, K = MCK
    n = len(M)
    with np.errstate(over="ignore", invalid="ignore"):
        Q = mu * mu * M + mu * C + K
    w, v, found, _, info = scipy.linalg.lapack.dsyevr(Q, range="I", il=n, iu=n)
    if info:
        raise NoConvergence(f"dsyevr failed with info {info} at mu = {mu}")
    if found != 1 or not math.isfinite(w[0]):
        raise NoConvergence(f"Q(mu) overflows at mu = {mu}")
    x = v[:, 0]
    m, c, k = ((MCK.reshape(3 * n, n) @ x).reshape(3, n) @ x).tolist()
    if not (0.0 < m < math.inf and 0.0 < k < math.inf and math.isfinite(c)):
        raise NoConvergence(f"the Duffin quadratic is not finite and positive at mu = {mu}")
    roots = real_roots(m, c, k)
    if roots is not None and not math.isfinite(roots[0]):
        raise NoConvergence(f"the Duffin values overflow at mu = {mu}")
    return float(w[0]), 2.0 * mu * m + c, roots


def exact_definiteness_interval(sys: DampedSystem, tol: float = 1e-10) -> DefinitenessInterval:
    """Compute the definiteness interval by Duffin steps from the diagonal.

    For a fixed x, q_x(mu) = x'Q(mu)x / x'x is a convex quadratic whose
    roots p_minus(x) <= p_plus(x) are the Duffin values, and
    f(mu) = lambda_max(Q(mu)) is the maximum of all q_x, hence convex.  The
    interval {f < 0} lies in (p_minus(x), p_plus(x)) for every x, so the
    diagonal Duffin values L = max_i p_minus(e_i) and R = min_i p_plus(e_i),
    plain arithmetic on diag(M), diag(C) and diag(K), bracket it from
    outside.  Each side probes f at its end mu and moves to the Duffin value
    of the top unit eigenvector x there.  q_x lies below f and has f's value
    and slope x'(2 mu M + C)x at mu, so its root lies between the tangent
    (Newton) step and the interval: the ends move inward monotonically and
    never pass it.  A side stops when its step is at most tol |mu| (the
    ends are never 0) or at a probe with f <= 0.  Once both have stopped,
    the midpoint between them is probed: with f < 0 there the ends, outer
    bounds of the interval, are returned; otherwise the midpoint joins the
    side its subgradient points away from, and that side steps on from it.

    The interval is empty when some x has c <= 2 sqrt(mk) (a diagonal entry,
    or a probe's eigenvector: then q_x >= 0 everywhere), when a probe with
    f >= 0 has a subgradient pointing outward (then f >= 0 on both sides of
    it), or when the two sides cross (then f > 0 everywhere).  All three are
    certificates, so the verdict does not depend on tol.  A start or probe
    that overflows raises NoConvergence instead of giving a verdict.
    """
    M, C, K = sys.M.array, sys.C.array, sys.K.array
    ends = [-math.inf, 0.0]
    for m, c, k in zip(M.diagonal().tolist(), C.diagonal().tolist(), K.diagonal().tolist()):
        roots = real_roots(m, c, k)
        if roots is None:
            return DefinitenessInterval.none()
        if not math.isfinite(roots[0]):
            raise NoConvergence("diagonal Duffin values overflow")
        ends = [max(ends[0], roots[0]), min(ends[1], roots[1])]
    MCK = np.stack((M, C, K))
    outward = (1.0, -1.0)  # per side, the sign of f' that rules the interval out
    active = [True, True]
    for _ in range(_DUFFIN_STEPS):
        if ends[0] >= ends[1]:
            return DefinitenessInterval.none()
        if not any(active):
            # the ends stay outside the interval, so a point inside is still
            # owed.  A midpoint with f >= 0 lies on the side its subgradient
            # points away from, and that side steps on from it.
            mid = 0.5 * (ends[0] + ends[1])
            f, g, roots = _probe(MCK, mid)
            if f < 0.0:
                return DefinitenessInterval(ends[0], ends[1])
            if roots is None or g == 0.0:
                return DefinitenessInterval.none()
            side = 0 if g < 0.0 else 1
            ends[side], active[side] = roots[side], True
        for side in (0, 1):
            if not active[side]:
                continue
            mu = ends[side]
            f, g, roots = _probe(MCK, mu)
            if f <= 0.0:
                active[side] = False
                continue
            if roots is None or g * outward[side] >= 0.0:
                return DefinitenessInterval.none()
            ends[side] = roots[side]
            active[side] = abs(ends[side] - mu) > tol * abs(ends[side])
    raise NoConvergence(f"definiteness interval search did not settle in {_DUFFIN_STEPS} steps")


def sufficient_certificate(
    form: ModalForm, split: ModalSplit, variant: str = "norm"
) -> OverdampedCertificate | CertificateRefusal:
    """Sufficient overdampedness test from the diagonal modal split.

    The ``norm`` variant compares each diagonal entry against the spectral
    norm of the off-diagonal part, the ``gershgorin`` variant against the
    per-mode absolute row sum.  Success requires, for every mode,

        d_jj - x_j > 2 omega_j

    (the root kernel's real-roots test: x^2 + (d_jj - x_j) x + omega_j^2
    has two distinct negative roots; "nonpositive delta" refuses a mode
    with a positive gap that fails it), a nonempty intersection
    p_minus < p_plus of the per-mode root intervals, and finite roots.  The
    gap positivity is part of the dominance argument: with d_jj <= x_j the
    quadratic roots turn positive and prove nothing.  Refusal is a value,
    not an error, and does not imply non-overdamped.

    A certificate carries the per-mode bounds of the two eigenvalue groups.
    For mode j with perturbation size x_j (||Dprime|| or the row sum r_j)
    the outer and inner endpoints are the roots of x^2 + (d_jj + x_j) x +
    omega_j^2 and x^2 + (d_jj - x_j) x + omega_j^2, giving the lower-group
    interval (outer-, inner-) and the upper-group interval (inner+, outer+).
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
    real = overdamped_modes(gap, omega)
    for j in range(len(d)):
        if gap[j] <= 0.0:
            return CertificateRefusal(variant, "nonpositive damping gap", j)
        if not real[j]:
            return CertificateRefusal(variant, "nonpositive delta", j)
    inner_p, inner_m = (v.real for v in quadratic_roots(gap, omega))
    with np.errstate(over="ignore"):  # a d + x that overflows is refused below
        outer_p, outer_m = (v.real for v in quadratic_roots(d + x, omega))
    if not np.isfinite(np.concatenate((inner_p, inner_m, outer_p, outer_m))).all():
        return CertificateRefusal(variant, "root not finite", None)
    p_minus, p_plus = float(np.max(inner_m)), float(np.min(inner_p))
    if not p_minus < p_plus:
        return CertificateRefusal(variant, "interval ordering failed", None)
    lower = tuple(zip(outer_m.tolist(), inner_m.tolist()))
    upper = tuple(zip(inner_p.tolist(), outer_p.tolist()))
    return OverdampedCertificate(variant, p_minus, p_plus, IntervalBounds(variant, lower, upper))


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
    m t^2 + c t + k, defined when c >= 2 sqrt(mk) (a double root at
    equality); they depend only on the direction of x, which is normalized
    first, and not on a common scale of M, C and K.
    """
    x = np.asarray(x, dtype=float)
    if not np.any(x):
        raise ValueError("x must be nonzero")
    x = x / np.linalg.norm(x)
    m, c, k = (float(x @ S.array @ x) for S in (sys.M, sys.C, sys.K))
    roots = real_roots(m, c, k)
    if roots is None:
        if 0.5 * c < math.sqrt(m) * math.sqrt(k):
            return None
        roots = (-0.5 * c / m,) * 2
    return roots[1], roots[0]


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
    overdamped at both, as eta_hard >= eta_soft: the root kernel's
    real-roots test must hold for every mode of (I, eta_soft D, Omega^2),
    and its root intervals must intersect.
    """
    D = form.D.array
    off = D - np.diag(np.diag(D))
    if np.max(np.abs(off), initial=0.0) > 1e-12 * max(form.damping_norm, 1e-300):
        raise ValueError("eta envelope requires diagonal modal damping")
    if not 0.0 <= epsilon < 1.0:
        raise EpsilonTooLarge(f"epsilon must be in [0, 1), got {epsilon}")
    d = np.diag(D)
    eta_soft = (1.0 - epsilon) / (1.0 + epsilon)
    eta_hard = (1.0 + epsilon) / (1.0 - epsilon)
    if not np.all(overdamped_modes(d * eta_soft, form.omega)):
        raise EpsilonTooLarge(
            f"epsilon {epsilon} drives a mode under critical damping"
        )
    plus_soft, minus_soft = (np.sort(v.real) for v in quadratic_roots(d * eta_soft, form.omega))
    if not minus_soft[-1] < plus_soft[0]:
        raise EpsilonTooLarge(
            f"epsilon {epsilon} breaks the definiteness interval intersection"
        )
    plus_hard, minus_hard = (np.sort(v.real) for v in quadratic_roots(d * eta_hard, form.omega))
    return EtaEnvelope(
        epsilon=epsilon,
        minus_lower=minus_hard,
        minus_upper=minus_soft,
        plus_lower=plus_soft,
        plus_upper=plus_hard,
    )

