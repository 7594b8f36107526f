"""Constrained Nevanlinna-Pick feasibility: variety membership and the
Pick-matrix positivity test.

Only feasibility is decided; no interpolant is synthesized."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, InvalidParameterError, OutOfBallError
from .ideals import NcPolynomial


def _as_point(point, n: int) -> np.ndarray:
    z = np.asarray(point, dtype=complex).reshape(-1)
    if z.shape != (n,):
        raise InvalidParameterError(f"point must have {n} coordinates")
    return z


@dataclass
class MembershipResult:
    member: bool
    residuals: list[float]


def variety_membership(
    point, generators: Sequence[NcPolynomial], n: int, tol: float = 1e-10
) -> MembershipResult:
    """A ball point belongs to the zero set when every generator vanishes at
    the scalar commuting evaluation."""
    z = _as_point(point, n)
    if np.linalg.norm(z) >= 1.0:
        raise OutOfBallError(f"|point| = {np.linalg.norm(z):.6f} >= 1")
    residuals = [abs(p.evaluate_scalar(z)) for p in generators]
    return MembershipResult(member=all(r <= tol for r in residuals), residuals=residuals)


@dataclass
class PickProblem:
    """Interpolation data: distinct ball points and square matrix targets."""

    n: int
    points: np.ndarray  # (k, n) complex
    targets: list[np.ndarray]

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex).reshape(len(self.targets), -1)
        if pts.shape[1] != self.n:
            raise InvalidParameterError(f"points must have {self.n} coordinates")
        norms = np.linalg.norm(pts, axis=1)
        if np.any(norms >= 1.0):
            raise OutOfBallError("all points must lie strictly inside the unit ball")
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if np.linalg.norm(pts[i] - pts[j]) <= 1e-12:
                    raise DegenerateInputError(f"points {i} and {j} coincide")
        targets = [np.atleast_2d(np.asarray(a, dtype=complex)) for a in self.targets]
        d = targets[0].shape[0]
        for a in targets:
            if a.shape != (d, d):
                raise InvalidParameterError("targets must be equal-sized square matrices")
        self.points = pts
        self.targets = targets

    @property
    def k(self) -> int:
        return len(self.targets)

    @property
    def target_dim(self) -> int:
        return self.targets[0].shape[0]


def pick_matrix(problem: PickProblem) -> np.ndarray:
    """Block Hermitian matrix with (i, j) block (I - A_i A_j^*) / (1 - <p_i, p_j>).

    The strict lower triangle is one index copy of the conjugated strict upper
    triangle and the diagonal is made real, so Hermiticity is bitwise.
    """
    k, d = problem.k, problem.target_dim
    out = np.zeros((k * d, k * d), dtype=complex)
    for i in range(k):
        for j in range(i, k):
            inner = np.sum(problem.points[i] * np.conj(problem.points[j]))
            block = (np.eye(d) - problem.targets[i] @ problem.targets[j].conj().T) / (1.0 - inner)
            out[i * d : (i + 1) * d, j * d : (j + 1) * d] = block
    lower = np.tril_indices(k * d, -1)
    out[lower] = out.T[lower].conj()
    diag = np.diag_indices(k * d)
    out[diag] = out[diag].real
    return out


@dataclass
class FeasibilityResult:
    matrix: np.ndarray  # the Pick matrix the verdict was read from
    feasible: bool
    marginal: bool
    lambda_min: float
    lambda_max: float
    certificate: np.ndarray | None


def pick_feasible(problem: PickProblem, tol: float = 1e-9) -> FeasibilityResult:
    """Interpolation is feasible exactly when the Pick matrix is PSD; within
    the declared tolerance band the verdict is feasible (marginal)."""
    m = pick_matrix(problem)
    vals, vecs = np.linalg.eigh(m)
    lam_min = float(vals[0])
    lam_max = float(vals[-1])
    band = tol * max(1.0, lam_max)
    feasible = lam_min >= -band
    return FeasibilityResult(
        matrix=m,
        feasible=feasible,
        marginal=abs(lam_min) <= band,
        lambda_min=lam_min,
        lambda_max=lam_max,
        certificate=None if feasible else vecs[:, 0],
    )
