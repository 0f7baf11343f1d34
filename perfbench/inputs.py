"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of a ``numpy.random.Generator`` and
returns plain ``(M, C, K)`` float arrays; the program under test only ever
sees these matrices, or system files written from them by
:func:`write_system`.  Nothing here imports ``ovalbounds``.
"""

from __future__ import annotations

import numpy as np


def _pd(n, rng):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def _sym(a):
    return 0.5 * (a + a.T)


def _from_modal(omega, D, rng):
    """(M, C, K) whose modal frequencies are ``omega`` and whose modal
    damping is ``D``: M is random positive definite and K, C are congruent
    to diag(omega^2) and D through T = chol(M) Q with Q random orthogonal,
    so that Phi = T^-T satisfies Phi' M Phi = I."""
    n = len(omega)
    M = _pd(n, rng)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    T = np.linalg.cholesky(M) @ Q
    K = T @ np.diag(omega**2) @ T.T
    C = T @ D @ T.T
    return M, _sym(C), _sym(K)


def general(n, rng, gamma=None):
    """Gram-matrix M, K and damping C = gamma G G', by default with gamma
    log-uniform in [0.05, 3]: underdamped, overdamped and mixed spectra."""
    M = _pd(n, rng)
    K = _pd(n, rng)
    g = rng.standard_normal((n, n))
    if gamma is None:
        gamma = float(np.exp(rng.uniform(np.log(0.05), np.log(3.0))))
    return M, gamma * (g @ g.T), K


def lightly_damped(n, rng):
    """Frequencies at least 0.3 apart, damping norm 5-20 % of the lowest
    frequency: small, well separated ovals."""
    omega = 1.0 + np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 0.6, n - 1))])
    g = rng.standard_normal((n, n))
    D = g @ g.T
    D *= rng.uniform(0.05, 0.2) * omega[0] / np.linalg.norm(D, 2)
    return _from_modal(omega, D, rng)


def clustered(n, rng):
    """Frequencies in pairs within 0.5 % of each other, moderate damping:
    the maximal split merges each pair into one block."""
    centers = np.sort(rng.uniform(1.0, 6.0, (n + 1) // 2))
    omega = np.sort(np.repeat(centers, 2)[:n] * (1.0 + rng.uniform(-0.005, 0.005, n)))
    g = rng.standard_normal((n, n))
    return _from_modal(omega, 0.4 * (g @ g.T) / n, rng)


def _overdamped_diag(n, rng):
    omega = np.sort(rng.uniform(0.5, 3.0, n))
    # s^2 > omega_max / omega_min keeps every per-mode root window
    # (-omega_j s, -omega_j / s) overlapping; the factor 2 leaves room
    # for the coupling and for the eta envelope's softened viscosity.
    s = 2.0 * np.sqrt(omega[-1] / omega[0]) + rng.uniform(0.1, 1.0)
    return omega, omega * (s + 1.0 / s)


def overdamped(n, rng):
    """Diagonal overdamped modal damping plus a symmetric coupling of norm
    a tenth of the smallest gap d_jj - 2 omega_j: certificate friendly."""
    omega, d = _overdamped_diag(n, rng)
    e = _sym(rng.standard_normal((n, n)))
    e *= 0.1 * np.min(d - 2.0 * omega) / np.linalg.norm(e, 2)
    return _from_modal(omega, np.diag(d) + e, rng)


def modal_overdamped(n, rng):
    """Overdamped and modally damped (C commutes with M^-1 K)."""
    omega, d = _overdamped_diag(n, rng)
    return _from_modal(omega, np.diag(d), rng)


SWEEP_FAMILIES = {
    "general": general,
    "lightly_damped": lightly_damped,
    "clustered": clustered,
    "overdamped": overdamped,
}


def write_system(path, M, C, K):
    """System file in the program's JSON format, 17 significant digits so
    the matrices round-trip bit-exactly."""
    n = M.shape[0]
    parts = [f'"n": {n}']
    for key, a in (("M", M), ("C", C), ("K", K)):
        parts.append(f'"{key}": [' + ", ".join(format(float(x), ".17g") for x in a.ravel()) + "]")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{" + ", ".join(parts) + "}\n")
