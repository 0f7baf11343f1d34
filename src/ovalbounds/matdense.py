"""Dense symmetric linear algebra kernels and system file IO.

Everything here is plain double precision numpy aimed at orders up to a few
hundred.  Values are immutable after construction and safe to share across
threads; every operation is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InputError, NoConvergence, NonPositiveFrequency, NotPositiveDefinite

#: The default tolerance of ``modal.is_modally_damped`` when called from the
#: library; the ``analyze --rtol`` flag has its own default, 1e-8.
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


def cholesky(S, name: str = "matrix") -> np.ndarray:
    """Lower-triangular L with L @ L.T == S, by LAPACK ``dpotrf``; the one
    positive-definiteness check of M, K and weights.

    Each pivot ``A[j, j] - L[j, :j] @ L[j, :j]`` is taken from the (partial)
    factor.  The first index whose pivot is at or below :func:`_pivot_floor`
    (``n * eps * max|S|``, stricter than dpotrf's own pivot > 0), or at
    which dpotrf stopped (``info - 1``), raises :class:`NotPositiveDefinite`
    naming ``name``, the index and its pivot; a pivot that overflowed (only
    possible far below zero) is reported as the most negative double.
    """
    A = _as_array(S)
    L, info = scipy.linalg.lapack.dpotrf(A, lower=1, clean=1)  # upper triangle zeroed
    rows = np.tril(L[: info or A.shape[0]], -1)  # through the failing row, if any
    with np.errstate(over="ignore", invalid="ignore"):
        pivots = np.diag(A)[: len(rows)] - np.einsum("ij,ij->i", rows, rows)
    fails = np.flatnonzero(pivots <= _pivot_floor(A))
    if info > 0:
        fails = np.append(fails, info - 1)
    if fails.size:
        j, big = int(fails[0]), np.finfo(float).max
        raise NotPositiveDefinite(name, j, float(np.nan_to_num(pivots[j], nan=-big, neginf=-big)))
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
    Phi.T M Phi = I and Phi.T K Phi = diag(w2), from LAPACK's generalized
    symmetric-definite driver ``dsygvd`` (Cholesky congruence M = L L.T and
    eigendecomposition of L^-1 K L^-T in one call).  M first passes
    :func:`cholesky`, whose pivot floor the driver does not apply.  A
    smallest squared frequency at or below n * eps * max|w2| raises
    :class:`NonPositiveFrequency`; the floor scales with K, so K and s^2 K
    get the same verdict.
    """
    cholesky(M, "M")
    try:
        w2, Phi = scipy.linalg.eigh(_as_array(K), _as_array(M), driver="gvd")
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    floor = K.array.shape[0] * np.finfo(float).eps * np.max(np.abs(w2))
    if w2[0] <= floor:
        raise NonPositiveFrequency(f"squared frequency {w2[0]:.3e} is not positive")
    return w2, Phi


def _eigvals_sorted(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of a finite real square matrix sorted by (real, imag),
    from LAPACK ``dgeev`` without eigenvectors."""
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise InputError("matrix entries must be finite")
    try:
        vals = scipy.linalg.eigvals(A)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NoConvergence(str(exc)) from exc
    return vals[np.lexsort((vals.imag, vals.real))]


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
        cholesky(self.M, "M")
        cholesky(self.K, "K")
        w = np.linalg.eigvalsh(self.C.array)
        # for symmetric C the spectral norm is the largest |eigenvalue|
        if w.size and w[0] < -PSD_TOL * max(abs(w[0]), abs(w[-1]), 1e-300):
            raise InputError(f"C is not positive semidefinite: min eigenvalue {w[0]:.3e}")

    @property
    def order(self) -> int:
        return self.M.order


@dataclass(frozen=True)
class Spectrum:
    """2n eigenvalues of the linearized quadratic problem."""

    values: np.ndarray

    def __post_init__(self):
        v = _readonly(self.values, complex)
        if v.ndim != 1:
            raise InputError("values must be 1-d")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)


# ---------------------------------------------------------------------------
# File formats


def _format_float(x: float) -> str:
    return format(float(x), ".17g")


def save_system(sys: DampedSystem, path) -> None:
    """Write the system as a JSON document with 17-significant-digit floats,
    a negative zero as ``-0.0``.

    The format is ``{"n": int, "M": [row-major], "C": [...], "K": [...]}``;
    decimal round trip is bit-exact.
    """
    parts = []
    for key in ("M", "C", "K"):
        # -0.0 formats as "-0", which JSON reads as the integer 0
        text = (_format_float(x) for x in getattr(sys, key).entries())
        flat = ", ".join("-0.0" if t == "-0" else t for t in text)
        parts.append(f'  "{key}": [{flat}]')
    body = ",\n".join(parts)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + f'  "n": {sys.order},\n' + body + "\n}\n")


def load_system(path) -> DampedSystem:
    """Read a system file written by :func:`save_system` (or by hand).

    The file is parsed as strict JSON (RFC 8259, UTF-8): ``NaN``,
    ``Infinity`` and numbers beyond the double range are invalid.  Integers
    beyond 64 bits load as the nearest double.
    """
    import orjson  # loaded only here: library callers need not read files

    with open(path, "rb") as fh:
        data = fh.read()
    # orjson recurses once per nesting level with no limit, so a document
    # nested some 10^5 deep overflows the C stack.  Counting the brackets
    # bounds the depth; brackets inside strings count too.  A system file
    # opens 4
    if data.count(b"[") + data.count(b"{") > 1024:
        raise InputError(f"{path}: more than 1024 '[' and '{{' in the file, a system file has 4")
    try:
        doc = orjson.loads(data)
    except orjson.JSONDecodeError as exc:
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

