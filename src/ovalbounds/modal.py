"""Modal transformation, modal-damping splits, proportional fit, mode foci.

After the congruence Phi.T M Phi = I, Phi.T K Phi = diag(omega^2) the damping
matrix becomes D = Phi.T C Phi.  The approximations built here replace D by a
commuting block-diagonal part D0 and treat Dprime = D - D0 as the
perturbation; everything downstream (regions, certificates) consumes the
split, the per-mode foci and the conditioning numbers computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, SingularFit
from .matdense import (
    RTOL,
    DampedSystem,
    SymMatrix,
    _readonly,
    cholesky,
    gen_sym_def_eig,
    spectral_norm,
    sym_eig,
)

#: Default relative gap under which consecutive frequencies are clustered.
CLUSTER_RELTOL = 1e-6

#: |theta - 1| below this flags a critically damped mode (kappa undefined).
CRITICAL_TOL = 1e-12


@dataclass(frozen=True)
class ModalForm:
    """Transform Phi, frequencies omega (ascending > 0), modal damping D."""

    Phi: np.ndarray
    omega: np.ndarray
    D: SymMatrix

    def __post_init__(self):
        Phi = _readonly(self.Phi)
        omega = _readonly(self.omega)
        n = self.D.order
        if Phi.shape != (n, n) or omega.shape != (n,):
            raise ValueError("inconsistent modal form shapes")
        if not np.all(omega > 0):
            raise ValueError("frequencies must be strictly positive")
        if np.any(np.diff(omega) < 0):
            raise ValueError("frequencies must be ascending")
        object.__setattr__(self, "Phi", Phi)
        object.__setattr__(self, "omega", omega)

    @property
    def order(self) -> int:
        return self.D.order

    @cached_property
    def damping_norm(self) -> float:
        """Spectral norm of D, computed once."""
        return spectral_norm(self.D)


@dataclass(frozen=True)
class ModalSplit:
    """Block split of the modal damping after an optional block rotation.

    ``rotation`` is block-diagonal orthogonal; with Dr = rotation.T D rotation
    the stored parts satisfy D0 + Dprime == Dr exactly, D0 diagonal.
    ``omega0`` holds the per-index representative frequency (the arithmetic
    block mean), constant within each partition block.
    """

    partition: tuple[tuple[int, int], ...]
    D0: SymMatrix
    Dprime: SymMatrix
    rotation: np.ndarray
    omega0: np.ndarray
    mode: str

    def __post_init__(self):
        object.__setattr__(self, "rotation", _readonly(self.rotation))
        object.__setattr__(self, "omega0", _readonly(self.omega0))

    @property
    def order(self) -> int:
        return self.D0.order

    @property
    def diag(self) -> np.ndarray:
        """Rotated diagonal damping entries d_jj."""
        return np.diag(self.D0.array)

    @cached_property
    def dprime_norm(self) -> float:
        """Spectral norm of Dprime, computed once."""
        return spectral_norm(self.Dprime)

    @property
    def dprime_rowsums(self) -> np.ndarray:
        """Absolute row sums of Dprime, the per-mode perturbation size."""
        return np.sum(np.abs(self.Dprime.array), axis=1)

    @property
    def dprime_frobenius(self) -> float:
        return float(np.linalg.norm(self.Dprime.array, "fro"))

    @property
    def is_diagonal_mode(self) -> bool:
        return self.mode == "diagonal"


@dataclass(frozen=True)
class ProportionalFit:
    """Least-squares alpha, beta for C ~ alpha M + beta K.

    ``residual_norm`` is the Frobenius norm of D - alpha I - beta diag(omega^2)
    (the norm the fit minimizes); it never drops below the Frobenius norm of
    the diagonal-split perturbation.
    """

    alpha: float
    beta: float
    residual_norm: float


@dataclass(frozen=True)
class ModeFoci:
    """Per-mode quadratic roots, damping ratios and conditioning.

    lambda_plus/minus are the roots of x^2 + d_jj x + omega_j^2; theta is
    d_jj / (2 omega_j); kappa is sqrt((1+theta^2)/|1-theta^2|), NaN where the
    mode is critical (|theta - 1| <= CRITICAL_TOL).
    """

    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    theta: np.ndarray
    kappa: np.ndarray
    critical: np.ndarray

    def __post_init__(self):
        for name in ("lambda_plus", "lambda_minus", "theta", "kappa", "critical"):
            object.__setattr__(self, name, _readonly(getattr(self, name), None))

    def __len__(self) -> int:
        return len(self.theta)

    @property
    def any_critical(self) -> bool:
        return bool(np.any(self.critical))


def to_modal(sys: DampedSystem) -> ModalForm:
    """Modal form of a damped system: omega ascending, D = Phi.T C Phi."""
    w2, Phi = gen_sym_def_eig(sys.K, sys.M)
    D = Phi.T @ sys.C.array @ Phi
    return ModalForm(Phi, np.sqrt(w2), SymMatrix(0.5 * (D + D.T)))


def is_modally_damped(form: ModalForm, tol: float = RTOL) -> bool:
    """Test the commutation C K^-1 M == M K^-1 C within a relative tolerance.

    In modal coordinates it reads D Om^-1 == Om^-1 D with Om = diag(omega^2):
    the difference E = D o (omega_j^-2 - omega_i^-2) must satisfy
    ||E|| <= tol ||D|| / omega_1^2.
    """
    inv = form.omega**-2.0
    gap = spectral_norm(form.D.array * (inv[None, :] - inv[:, None]))
    return gap <= tol * form.damping_norm * inv[0]


def cluster_frequencies(omega, reltol: float = CLUSTER_RELTOL) -> tuple[tuple[int, int], ...]:
    """Contiguous blocks of nearly equal frequencies.

    Consecutive frequencies stay in one block while omega[i+1] - omega[i]
    <= reltol * omega[i].
    """
    omega = np.asarray(omega, dtype=float)
    cuts = np.flatnonzero(np.diff(omega) > reltol * omega[:-1]) + 1
    edges = [0, *cuts.tolist(), len(omega)]
    return tuple(zip(edges[:-1], edges[1:]))


def modal_split(
    form: ModalForm, mode: str = "diagonal", reltol: float = CLUSTER_RELTOL
) -> ModalSplit:
    """Split the modal damping into a diagonal part and a perturbation.

    ``diagonal`` keeps D as-is and takes its plain diagonal (singleton
    partition).  ``maximal`` clusters the frequencies, rotates each diagonal
    block of D to diagonal form by its own symmetric eigendecomposition, and
    replaces in-block frequencies by their mean; this realizes the coarsest
    commuting block-diagonal approximation, whose perturbation never exceeds
    that of any finer partition in the Frobenius norm.
    """
    n = form.order
    D = form.D.array
    if mode == "diagonal":
        partition = tuple((j, j + 1) for j in range(n))
        rotation = np.eye(n)
        omega0 = form.omega
        Dr = D
    elif mode == "maximal":
        partition = cluster_frequencies(form.omega, reltol)
        rotation = np.eye(n)
        omega0 = np.empty(n)
        for lo, hi in partition:
            omega0[lo:hi] = np.mean(form.omega[lo:hi])
            if hi - lo > 1:
                _, U = sym_eig(SymMatrix(D[lo:hi, lo:hi]))
                rotation[lo:hi, lo:hi] = U
        Dr = rotation.T @ D @ rotation
        Dr = 0.5 * (Dr + Dr.T)
    else:
        raise ValueError(f"unknown split mode {mode!r}")
    D0 = np.diag(np.diag(Dr))
    return ModalSplit(
        partition=partition,
        D0=SymMatrix(D0),
        Dprime=SymMatrix(Dr - D0),
        rotation=rotation,
        omega0=omega0,
        mode=mode,
    )


def proportional_fit(form: ModalForm, W: SymMatrix | None = None) -> ProportionalFit:
    """Weighted trace fit of alpha I + beta diag(omega^2) to the modal damping.

    Minimizes Tr[(D - alpha I - beta Om) W (D - alpha I - beta Om)] with
    Om = diag(omega^2) (so alpha, beta are the coefficients of
    C ~ alpha M + beta K).  Stationarity gives the 2x2 normal equations

        Tr[W]    alpha + Tr[W Om]    beta = Tr[W D]
        Tr[Om W] alpha + Tr[Om W Om] beta = Tr[Om W D]

    validated against a grid-search oracle in the tests.
    """
    n = form.order
    Wa = np.eye(n) if W is None else W.array
    if W is not None:
        if Wa.shape != (n, n):
            raise InputError(f"weight W has order {Wa.shape[0]}, the modal form {n}")
        cholesky(Wa, "W")
    D = form.D.array
    Om = np.diag(form.omega**2)
    a11 = np.trace(Wa)
    a12 = np.trace(Wa @ Om)
    a22 = np.trace(Om @ Wa @ Om)
    b1 = np.trace(Wa @ D)
    b2 = np.trace(Om @ Wa @ D)
    A = np.array([[a11, a12], [a12, a22]])
    det = a11 * a22 - a12 * a12
    if det <= max(a11 * a22, 1e-300) * 1e-13:
        raise SingularFit("identity and diag(omega^2) are numerically proportional")
    alpha, beta = np.linalg.solve(A, np.array([b1, b2]))
    resid = D - alpha * np.eye(n) - beta * Om
    return ProportionalFit(float(alpha), float(beta), float(np.linalg.norm(resid, "fro")))


def overdamped_modes(d, omega):
    """The root kernel's real-roots test, for floats or elementwise: d/2 >
    omega, where x^2 + d x + omega^2 has two distinct negative roots."""
    return 0.5 * d > omega


def real_roots(m: float, c: float, k: float) -> tuple[float, float] | None:
    """Float entry of the root kernel, for the interval search's probes:
    the roots (minus, plus) of m t^2 + c t + k, m, k > 0, or None unless
    they are real, negative and distinct.  y = m t solves y^2 + c y + h^2
    with h = sqrt(m) sqrt(k); with a = c/2 and s = sqrt(a - h) sqrt(a + h)
    the roots are q/m and k/q for q = -(a + s) (Higham, Accuracy and
    Stability of Numerical Algorithms, 1.8).  Neither is a difference of
    nearly equal terms and no term squares an entry, so a common scale of
    m, c and k by a power of two changes neither the test nor the roots.
    Roots that overflow are not finite."""
    a, h = 0.5 * c, math.sqrt(m) * math.sqrt(k)
    if not overdamped_modes(c, h):
        return None
    q = -(a + math.sqrt(a - h) * math.sqrt(a + h))
    return q / m, k / q


def _root_kernel(d, omega):
    """Array entry of the root kernel: real_roots' formula for m = 1 and
    k = omega^2, with k/q as (omega/q) omega and s = sqrt|a - omega|
    sqrt|a + omega|.  Returns the roots (plus, minus), a and s.  Where
    |a| > omega the roots are q = -(a + sign(a) s) and k/q, plus the
    larger; elsewhere they are -a +- i s."""
    d = np.asarray(d, dtype=float)
    omega = np.asarray(omega, dtype=float)
    a = 0.5 * d
    s = np.sqrt(np.abs(a - omega)) * np.sqrt(np.abs(a + omega))
    real = np.abs(a) > omega
    with np.errstate(divide="ignore", invalid="ignore"):  # only where roots are complex
        q = -(a + np.copysign(s, a))
        r = omega / q * omega
    lam_p, lam_m = np.empty(a.shape, complex), np.empty(a.shape, complex)
    lam_p.real = np.where(real, np.maximum(q, r), 0.0 - a)  # +0.0 at a = 0
    lam_m.real = np.where(real, np.minimum(q, r), 0.0 - a)
    lam_p.imag = np.where(real, 0.0, s)
    lam_m.imag = 0.0 - lam_p.imag
    return lam_p, lam_m, a, s


def quadratic_roots(d, omega):
    """Roots of x^2 + d x + omega^2, elementwise over arrays, ordered
    (plus, minus): the larger real root, or the one with positive imaginary
    part, first.  Scalar arguments give two complex scalars, arrays two
    complex arrays."""
    lam_p, lam_m, _, _ = _root_kernel(d, omega)
    if lam_p.ndim == 0:
        return complex(lam_p), complex(lam_m)
    return lam_p, lam_m


def mode_foci(form: ModalForm, split: ModalSplit) -> ModeFoci:
    """Per-mode foci, damping ratio theta and conditioning kappa.

    Uses the rotated diagonal entries of the split and its representative
    frequencies; kappa is hypot(a, omega) / s with the root kernel's a and
    s, so no square of theta is formed.  A mode with theta == 1 (double
    real root) is flagged critical; its kappa is NaN and condition-number
    based disk bounds are suppressed downstream, while oval regions remain
    valid.
    """
    w = split.omega0
    lam_p, lam_m, a, s = _root_kernel(split.diag, w)
    theta = a / w
    critical = np.abs(theta - 1.0) <= CRITICAL_TOL
    kappa = np.full(len(w), np.nan)
    ok = ~critical
    kappa[ok] = np.hypot(a[ok], w[ok]) / s[ok]
    return ModeFoci(lam_p, lam_m, theta, kappa, critical)


def mode_singular_values(split: ModalSplit, foci: ModeFoci) -> tuple[np.ndarray, np.ndarray]:
    """Largest/smallest singular values of the per-mode eigenvector matrices
    with unit columns along (omega, lambda_plus) and (omega, lambda_minus).

    In closed form: sigma_max^2 = 1 + |cos| of the angle between the columns,
    and sigma_min = |det| / sigma_max with |det| = omega |lambda_plus -
    lambda_minus| / (|col_plus| |col_minus|), which keeps its accuracy near
    critical damping.  NaN at critical modes, where the matrix is singular.
    """
    w = split.omega0
    lam_p, lam_m = foci.lambda_plus, foci.lambda_minus
    norms = np.hypot(w, np.abs(lam_p)) * np.hypot(w, np.abs(lam_m))
    smax = np.sqrt(1.0 + np.abs(w * w + np.conj(lam_p) * lam_m) / norms)
    smin = w * np.abs(lam_p - lam_m) / norms / smax
    smax[foci.critical] = np.nan
    smin[foci.critical] = np.nan
    return smax, smin


@dataclass(frozen=True)
class SpreadBounds:
    """spread(H), the off-block-diagonal norm, and the per-k eigenvalue
    bracket lo_k <= lambda_k(Hprime) <= hi_k."""

    spread: float
    offdiag_norm: float
    bracket_lo: np.ndarray
    bracket_hi: np.ndarray
    offdiag_eigenvalues: np.ndarray


def spread_bounds(H: SymMatrix, partition) -> SpreadBounds:
    """Eigenvalue bracket for the off-block-diagonal part of a symmetric H.

    With H0 the block diagonal of H under the given contiguous partition and
    Hprime = H - H0, the non-decreasing eigenvalues satisfy

        lambda_k(H) - lambda_n(H) <= lambda_k(Hprime) <= lambda_k(H) - lambda_1(H)

    hence ||Hprime|| <= spread(H), and ||Hprime|| <= ||H|| for semidefinite H.
    """
    A = H.array
    H0 = np.zeros_like(A)
    for lo, hi in partition:
        H0[lo:hi, lo:hi] = A[lo:hi, lo:hi]
    Hp = A - H0
    w = np.linalg.eigvalsh(A)
    wp = np.linalg.eigvalsh(Hp)
    return SpreadBounds(
        spread=float(w[-1] - w[0]),
        offdiag_norm=spectral_norm(Hp),
        bracket_lo=w - w[-1],
        bracket_hi=w - w[0],
        offdiag_eigenvalues=wp,
    )
