"""Shared random-system generators for the test suite.

All generators are deterministic functions of an integer seed so failures
reproduce exactly.
"""

from __future__ import annotations

import numpy as np

from ovalbounds.cli import random_system  # noqa: F401  (shared by the test modules)
from ovalbounds.matdense import DampedSystem, SymMatrix


def random_sym(n: int, rng) -> SymMatrix:
    a = rng.standard_normal((n, n))
    return SymMatrix(a + a.T)


def random_pd(n: int, rng, shift: float | None = None) -> SymMatrix:
    a = rng.standard_normal((n, n))
    return SymMatrix(a @ a.T + (n if shift is None else shift) * np.eye(n))


def system_with_modal_data(omega, D, seed: int = 0) -> DampedSystem:
    """System whose modal frequencies and damping are exactly (omega, D) up
    to the eigensolver's own recovery: M random PD, K and C congruent."""
    omega = np.asarray(omega, dtype=float)
    D = np.asarray(D, dtype=float)
    n = len(omega)
    rng = np.random.default_rng(seed)
    M = random_pd(n, rng)
    L = np.linalg.cholesky(M.array)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    phi_inv_t = L @ Q  # Phi = L^-T Q has Phi^T M Phi = I
    K = phi_inv_t @ np.diag(omega**2) @ phi_inv_t.T
    C = phi_inv_t @ D @ phi_inv_t.T
    return DampedSystem(M, SymMatrix(0.5 * (C + C.T)), SymMatrix(0.5 * (K + K.T)))


def lightly_damped_system(n: int, seed: int, level: float = 0.15) -> DampedSystem:
    """Well separated frequencies, damping norm at most level * min omega."""
    rng = np.random.default_rng(seed)
    omega = np.sort(rng.uniform(1.0, 4.0, n))
    while n > 1 and np.min(np.diff(omega)) < 0.3:
        omega = np.sort(rng.uniform(1.0, 4.0, n))
    g = rng.standard_normal((n, n))
    D = g @ g.T
    D *= level * np.min(omega) / max(np.linalg.norm(D, 2), 1e-12)
    return system_with_modal_data(omega, D, seed + 1)


def clustered_system(n: int, seed: int, spread: float = 0.005) -> DampedSystem:
    """Frequencies in tight clusters (relative spread as given), moderate
    damping; exercises the modified ovals."""
    rng = np.random.default_rng(seed)
    n_centers = max(1, (n + 1) // 2)
    centers = np.sort(rng.uniform(1.0, 6.0, n_centers))
    reps = np.concatenate([centers, centers])[:n]
    omega = np.sort(reps * (1.0 + rng.uniform(-spread, spread, n)))
    g = rng.standard_normal((n, n))
    D = 0.4 * (g @ g.T) / n
    return system_with_modal_data(omega, D, seed + 1)


def overdamped_system(n: int, seed: int) -> DampedSystem:
    """Strongly damped system with a certificate-friendly structure:
    diagonal modal damping with a common definiteness window plus a small
    symmetric coupling."""
    rng = np.random.default_rng(seed)
    omega = np.sort(rng.uniform(0.5, 3.0, n))
    s = 2.2 * np.sqrt(omega[-1] / omega[0]) + rng.uniform(0.0, 1.0)
    d = omega * (s + 1.0 / s)
    noise = rng.standard_normal((n, n))
    noise = 0.5 * (noise + noise.T)
    margin = np.min(d - 2.0 * omega)
    D = np.diag(d) + noise * (0.1 * margin / max(np.linalg.norm(noise, 2), 1e-12))
    return system_with_modal_data(omega, D, seed + 1)


def modally_damped_overdamped_system(n: int, seed: int) -> DampedSystem:
    """Diagonal modal damping, every mode overdamped, intervals intersecting."""
    rng = np.random.default_rng(seed)
    omega = np.sort(rng.uniform(0.5, 3.0, n))
    s = 2.0 * np.sqrt(omega[-1] / omega[0]) + rng.uniform(0.1, 1.0)
    d = omega * (s + 1.0 / s)
    return system_with_modal_data(omega, np.diag(d), seed + 1)
