"""Dense symmetric linear algebra kernels and system file IO.

Everything here is plain double precision numpy aimed at orders up to a few
hundred.  Values are immutable after construction and safe to share across
threads; every operation is a pure function of its inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InputError, NoConvergence, NonPositiveFrequency, NotPositiveDefinite

#: Default relative tolerance for all residual contracts.
RTOL = 1e-10

#: Accepted relative asymmetry before construction is rejected.
ASYM_TOL = 1e-8

#: Accepted relative negativity of the damping matrix spectrum.
PSD_TOL = 1e-8


def _readonly(a, dtype=float) -> np.ndarray:
    """Read-only contiguous copy of ``a`` (``dtype=None`` keeps its dtype), so
    the caller's own array stays writable and later writes to it are not
    seen."""
    a = np.array(a, dtype=dtype, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SymMatrix:
    """Dense real symmetric matrix, symmetrized on construction.

    The stored array is read-only.  Asymmetry above ``ASYM_TOL`` times the
    largest entry is treated as an input error rather than silently averaged
    away.
    """

    array: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.array, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InputError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise InputError("matrix entries must be finite")
        scale = np.max(np.abs(a)) if a.size else 0.0
        if scale > 0.5 * np.finfo(float).max:  # a + a.T would overflow
            raise InputError("matrix entries must not exceed half the largest double")
        if scale > 0 and np.max(np.abs(a - a.T)) > ASYM_TOL * scale:
            raise InputError("matrix is not symmetric within tolerance")
        object.__setattr__(self, "array", _readonly(0.5 * (a + a.T)))

    @classmethod
    def from_flat(cls, n: int, entries) -> "SymMatrix":
        """Build from a row-major flat sequence of n*n real numbers."""
        try:
            a = np.asarray(entries)
        except ValueError as exc:  # ragged nesting
            raise InputError(f"expected a flat list of numbers: {exc}") from exc
        if a.ndim != 1 or a.dtype.kind not in "iuf":
            raise InputError("expected a flat list of numbers")
        if a.size != n * n:
            raise InputError(f"expected {n * n} entries for order {n}, got {a.size}")
        return cls(a.astype(float).reshape(n, n))

    @property
    def order(self) -> int:
        return self.array.shape[0]

    def entries(self) -> list[float]:
        """Row-major flat copy of the entries."""
        return [float(x) for x in self.array.ravel()]


def _as_array(S) -> np.ndarray:
    return S.array if isinstance(S, SymMatrix) else np.asarray(S, dtype=float)


def _pivot_floor(A: np.ndarray) -> float:
    """Largest pivot that counts as not positive: ``n * eps * max|A|``.  It
    scales with A, so A and sA get the same verdict; a zero matrix has a
    zero floor and still fails at its first pivot."""
    scale = np.max(np.abs(A)) if A.size else 0.0
    return A.shape[0] * np.finfo(float).eps * scale


def _check_positive_definite(S, name: str) -> None:
    """Raise :class:`NotPositiveDefinite` where :func:`cholesky` would, from a
    LAPACK ``dpotrf`` factor that is then thrown away.

    Each pivot ``A[j, j] - L[j, :j] @ L[j, :j]`` is taken from the (partial)
    factor.  The first index whose pivot is at or below :func:`_pivot_floor`,
    or at which dpotrf stopped (``info - 1``), is reported with its pivot; a
    pivot that overflowed (only possible far below zero) is reported as the
    most negative double.
    """
    A = _as_array(S)
    L, info = scipy.linalg.lapack.dpotrf(A, lower=1, clean=1)  # upper triangle zeroed
    np.fill_diagonal(L, 0.0)
    rows = L[: info or A.shape[0]]  # through the failing row, if any
    with np.errstate(over="ignore", invalid="ignore"):
        pivots = np.diag(A)[: len(rows)] - np.einsum("ij,ij->i", rows, rows)
    fails = np.flatnonzero(pivots <= _pivot_floor(A))
    if info > 0:
        fails = np.append(fails, info - 1)
    if fails.size:
        j, big = int(fails[0]), np.finfo(float).max
        raise NotPositiveDefinite(name, j, float(np.nan_to_num(pivots[j], nan=-big, neginf=-big)))


def cholesky(S: SymMatrix, name: str = "matrix") -> np.ndarray:
    """Lower-triangular L with L @ L.T == S, by a Python loop over columns.

    Raises :class:`NotPositiveDefinite` with the offending pivot index when a
    pivot drops to ``n * eps * max|S|`` or below.  Only the modal
    reduction (:func:`gen_sym_def_eig`, behind ``modal.to_modal``) uses this
    factor: the modal form's last bits still decide ``verify`` verdicts that
    rounding can flip, so the loop stays until the audit allows for the
    eigenvalues' own error.  Definiteness checks go through LAPACK
    (``_check_positive_definite``).
    """
    A = _as_array(S)
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


def sym_eig(S: SymMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of S."""
    try:
        w, V = np.linalg.eigh(_as_array(S))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return w, V


def gen_sym_def_eig(K: SymMatrix, M: SymMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Solve K phi = w2 * M phi for positive definite K, M.

    Returns ascending squared frequencies ``w2`` and the matrix ``Phi`` with
    Phi.T M Phi = I and Phi.T K Phi = diag(w2).  Reduction is the standard
    Cholesky congruence M = L L.T, eigendecomposition of L^-1 K L^-T.
    """
    L = cholesky(M, "M")
    X = scipy.linalg.solve_triangular(L, _as_array(K), lower=True)
    A = scipy.linalg.solve_triangular(L, X.T, lower=True).T
    w2, V = sym_eig(SymMatrix(0.5 * (A + A.T)))
    floor = K.array.shape[0] * np.finfo(float).eps * max(np.max(np.abs(w2)), 1.0)
    if w2[0] <= floor:
        raise NonPositiveFrequency(f"squared frequency {w2[0]:.3e} is not positive")
    Phi = scipy.linalg.solve_triangular(L.T, V, lower=False)
    return w2, Phi


def _eig_sorted(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a finite real square matrix sorted by (real, imag), and
    its right eigenvectors as columns in the same order."""
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise InputError("matrix entries must be finite")
    try:
        vals, vecs = scipy.linalg.eig(A)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NoConvergence(str(exc)) from exc
    order = np.lexsort((vals.imag, vals.real))
    return vals[order], vecs[:, order]


def spectral_norm(S) -> float:
    """Largest singular value."""
    a = _as_array(S)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


@dataclass(frozen=True)
class DampedSystem:
    """Mass / damping / stiffness triple of equal order.

    M and K must be positive definite (their Cholesky factorizations must
    succeed); C must be positive semidefinite up to ``PSD_TOL`` relative noise
    and is used as given, never clipped.
    """

    M: SymMatrix
    C: SymMatrix
    K: SymMatrix

    def __post_init__(self):
        n = self.M.order
        if self.C.order != n or self.K.order != n:
            raise InputError(
                f"order mismatch: M is {n}, C is {self.C.order}, K is {self.K.order}"
            )
        _check_positive_definite(self.M, "M")
        _check_positive_definite(self.K, "K")
        w = np.linalg.eigvalsh(self.C.array)
        # for symmetric C the spectral norm is the largest |eigenvalue|
        if w.size and w[0] < -PSD_TOL * max(abs(w[0]), abs(w[-1]), 1e-300):
            raise InputError(f"C is not positive semidefinite: min eigenvalue {w[0]:.3e}")

    @property
    def order(self) -> int:
        return self.M.order


@dataclass(frozen=True)
class Spectrum:
    """2n eigenvalues of the linearized quadratic problem with residuals."""

    values: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        r = np.asarray(self.residuals, dtype=float)
        if v.shape != r.shape or v.ndim != 1:
            raise InputError("values and residuals must be 1-d and the same length")
        object.__setattr__(self, "values", _readonly(v, complex))
        object.__setattr__(self, "residuals", _readonly(r))

    def __len__(self) -> int:
        return len(self.values)


# ---------------------------------------------------------------------------
# File formats


def _format_float(x: float) -> str:
    return format(float(x), ".17g")


def save_system(sys: DampedSystem, path) -> None:
    """Write the system as a JSON document with 17-significant-digit floats.

    The format is ``{"n": int, "M": [row-major], "C": [...], "K": [...]}``;
    decimal round trip is bit-exact.
    """
    parts = []
    for key in ("M", "C", "K"):
        flat = ", ".join(_format_float(x) for x in getattr(sys, key).entries())
        parts.append(f'  "{key}": [{flat}]')
    body = ",\n".join(parts)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + f'  "n": {sys.order},\n' + body + "\n}\n")


def load_system(path) -> DampedSystem:
    """Read a system file written by :func:`save_system` (or by hand)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise InputError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object")
    for key in ("n", "M", "C", "K"):
        if key not in doc:
            raise InputError(f"{path}: missing key {key!r}")
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InputError(f"{path}: n must be a positive integer, got {n!r}")
    mats = {}
    for key in ("M", "C", "K"):
        try:
            mats[key] = SymMatrix.from_flat(n, doc[key])
        except InputError as exc:
            raise InputError(f"{path}: matrix {key}: {exc}") from exc
    return DampedSystem(mats["M"], mats["C"], mats["K"])


def read_matrix_market(path) -> SymMatrix:
    """Read one real symmetric matrix in Matrix Market coordinate/array form."""
    import scipy.io  # loaded only here: no command reads Matrix Market
    import scipy.sparse

    try:
        mat = scipy.io.mmread(path)
    except Exception as exc:
        raise InputError(f"{path}: not a readable Matrix Market file: {exc}") from exc
    dense = np.asarray(mat.todense() if scipy.sparse.issparse(mat) else mat, dtype=float)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise InputError(f"{path}: expected a square matrix, got shape {dense.shape}")
    return SymMatrix(dense)
