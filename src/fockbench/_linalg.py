"""Dense complex linear-algebra helpers: rank decisions, PSD roots, spans.

Rank decisions on spans go through ``numerical_rank`` (sigma > RANK_RTOL *
sigma_max); defects are cut at RANK_RTOL itself (``defect_root_and_basis``).
"""

from __future__ import annotations

import numpy as np

RANK_RTOL = 1e-9


def svd_positive(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full left singular vector basis and singular values, descending.

    Full matrices only for a tall input: for a wide or square one the thin U
    is already square, and the thin SVD does not form the wide V^H."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return np.eye(a.shape[0], dtype=complex), np.zeros(0)
    u, s, _ = np.linalg.svd(a, full_matrices=a.shape[0] > a.shape[1])
    return u, s


def svdvals(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return np.zeros(0)
    return np.linalg.svd(a, compute_uv=False)


def spectral_norm(a: np.ndarray) -> float:
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    if a.ndim < 2:
        return float(np.linalg.norm(a))
    a = a.astype(complex, copy=False)
    gram = a @ a.conj().T if a.shape[0] <= a.shape[1] else a.conj().T @ a
    top = float(np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))[-1])
    return float(np.sqrt(max(top, 0.0)))


def herm_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def herm_sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Hermitian square root of a PSD matrix.

    Eigenvalues in [-1e-10, 0) are treated as floating noise and clamped to
    zero; anything more negative raises ValueError.
    """
    vals, vecs = np.linalg.eigh(herm_part(np.asarray(a, dtype=complex)))
    if vals.size and float(vals.min()) < -1e-10:
        raise ValueError(f"matrix is not PSD: min eigenvalue {vals.min():.3e}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def eigh_descending(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs = np.linalg.eigh(herm_part(np.asarray(a, dtype=complex)))
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


def numerical_rank(singular_values: np.ndarray) -> int:
    """Count singular values above RANK_RTOL * sigma_max and above 1e-12.

    The absolute floor handles all-noise spectra (e.g. defects of coisometric
    tuples), where a purely relative rule would count machine eps as rank."""
    s = np.asarray(singular_values, dtype=float)
    if s.size == 0 or s.max() <= 0.0:
        return 0
    return int(np.count_nonzero(s > max(RANK_RTOL * s.max(), 1e-12)))


def matrix_rank(a: np.ndarray) -> int:
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0
    return numerical_rank(svdvals(a))


def range_basis(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span, deterministic given the input."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, : numerical_rank(s)]


def complement_basis(a: np.ndarray, ambient_dim: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the column span."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0 or a.shape[1] == 0:
        return np.eye(ambient_dim, dtype=complex)
    u, s = svd_positive(a)
    return u[:, numerical_rank(s):]


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles (radians) between the column spans of a and b,
    descending.

    Sine-based: the angles are the arcsines of the singular values of the
    component of one orthonormal basis outside the other span, which stays
    accurate for the near-zero angles the workbench compares (the cosine
    form loses half the digits there)."""
    qa = range_basis(a)
    qb = range_basis(b)
    if qa.shape[1] == 0 or qb.shape[1] == 0:
        return np.zeros(0)
    residual = qa - qb @ (qb.conj().T @ qa)
    s = svdvals(residual)
    return np.arcsin(np.clip(s, 0.0, 1.0))


def aitken_extrapolate(seq) -> float | None:
    """Aitken delta-squared acceleration from the last usable triple."""
    seq = list(seq)
    if len(seq) < 3:
        return None
    x0, x1, x2 = seq[-3], seq[-2], seq[-1]
    denom = x2 - 2.0 * x1 + x0
    if abs(denom) < 1e-300:
        return float(x2)
    return float(x2 - (x2 - x1) ** 2 / denom)

