"""Dense complex linear-algebra helpers: rank decisions, spans, angles.

Every rank in the package is one ``rank_decision``: of descending values
(singular values, or eigenvalues of a PSD matrix) it keeps those above
max(RANK_RTOL * largest, floor) and returns the rank with its gap. Three
floors serve every site: SPAN_FLOOR (1e-12) for spans, RANK_RTOL (1e-9) for
the defects, whose eigenvalues are at most 1, so the cut is absolute on the
contraction scale, and ``contractions.Q_RANK_FLOOR`` (1e-10) for the purity
limit Q.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

RANK_RTOL = 1e-9
SPAN_FLOOR = 1e-12


class RankDecision(NamedTuple):
    """A rank and its gap: the largest value counted as zero and the
    smallest counted as nonzero, None where a side is empty."""

    rank: int
    zero_max: float | None
    nonzero_min: float | None


def rank_decision(values: np.ndarray, floor: float = SPAN_FLOOR) -> RankDecision:
    """Count the descending ``values`` above max(RANK_RTOL * largest, floor).

    The floor handles all-noise spectra (e.g. defects of coisometric tuples),
    where a purely relative rule would count machine eps as rank."""
    v = np.asarray(values, dtype=float)
    rank = int(np.count_nonzero(v > max(RANK_RTOL * v.max(initial=0.0), floor)))
    return RankDecision(rank, float(v[rank]) if rank < v.size else None, float(v[rank - 1]) if rank else None)


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


def eigh_descending(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=complex)
    vals, vecs = np.linalg.eigh(0.5 * (a + a.conj().T))
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


def joint_decision(rank: int, decisions: list[RankDecision]) -> RankDecision:
    """One rank fixed by several decisions, with their joint gap: the largest
    value any of them counted as zero and the smallest any counted as nonzero."""
    zero = [d.zero_max for d in decisions if d.zero_max is not None]
    nonzero = [d.nonzero_min for d in decisions if d.nonzero_min is not None]
    return RankDecision(rank, max(zero, default=None), min(nonzero, default=None))


def range_basis(a: np.ndarray) -> tuple[np.ndarray, RankDecision]:
    """Orthonormal basis of the column span, deterministic given the input,
    from the thin SVD, and the rank decision of the span."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return np.zeros((a.shape[0], 0), dtype=complex), RankDecision(0, None, None)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    decision = rank_decision(s)
    return u[:, : decision.rank], decision


def complement_basis(a: np.ndarray) -> tuple[np.ndarray, RankDecision]:
    """Orthonormal basis of the orthogonal complement of the column span, and
    the rank decision of the span."""
    u, s = svd_positive(a)
    decision = rank_decision(s)
    return u[:, decision.rank :], decision


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles (radians) between the column spans of a and b,
    descending.

    Sine-based: the angles are the arcsines of the singular values of the
    component of one orthonormal basis outside the other span, which stays
    accurate for the near-zero angles the workbench compares (the cosine
    form loses half the digits there)."""
    qa, qb = range_basis(a)[0], range_basis(b)[0]
    if qa.shape[1] == 0 or qb.shape[1] == 0:
        return np.zeros(0)
    residual = qa - qb @ (qb.conj().T @ qa)
    s = svdvals(residual)
    return np.arcsin(np.clip(s, 0.0, 1.0))

