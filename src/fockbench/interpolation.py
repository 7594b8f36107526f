"""Constrained Nevanlinna-Pick feasibility: variety membership and the
Pick-matrix positivity test.

Only feasibility is decided; no interpolant is synthesized."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, InvalidParameterError, OutOfBallError
from .ideals import NcPolynomial


def variety_membership(point, generators: Sequence[NcPolynomial], n: int, tol: float = 1e-10) -> bool:
    """A ball point z is in the zero set when every generator p vanishes at
    the scalar commuting evaluation relative to the size of its terms,
    |p(z)| <= tol * sum_w |c_w| |z|^|w|, so that small terms of high degree
    (0.1^24 under truncated(24)) do not pass for zero."""
    z = np.asarray(point, dtype=complex).reshape(-1)
    if z.shape != (n,):
        raise InvalidParameterError(f"point must have {n} coordinates")
    norm = float(np.linalg.norm(z))
    if norm >= 1.0:
        raise OutOfBallError(f"|point| = {norm:.6f} >= 1")
    return all(abs(p.evaluate_scalar(z)) <= tol * sum(abs(c) * norm ** len(w) for w, c in p.terms.items())
               for p in generators)


def check_pick_counts(points: int, targets: int) -> None:
    """Pick data pairs each point with one target, and has at least one point."""
    if points != targets or not points:
        raise InvalidParameterError(f"pick needs one target per point, at least one: got {points} points and "
                                    f"{targets} targets")


@dataclass
class PickProblem:
    """Interpolation data: distinct ball points and square matrix targets."""

    n: int
    points: np.ndarray  # (k, n) complex
    targets: list[np.ndarray]

    def __post_init__(self):
        check_pick_counts(len(self.points), len(self.targets))
        pts = np.asarray(self.points, dtype=complex).reshape(len(self.targets), -1)
        if pts.shape[1] != self.n:
            raise InvalidParameterError(f"points must have {self.n} coordinates")
        norms = np.linalg.norm(pts, axis=1)
        if np.any(norms >= 1.0):
            raise OutOfBallError("all points must lie strictly inside the unit ball")
        distances = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        coincident = np.argwhere(np.triu(distances <= 1e-12, 1))
        if coincident.size:
            i, j = coincident[0]
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

    One broadcast: the k x k Gram of the points divides the k x k stack of
    products A_i A_j^*, each the same d x d product the per-block formula
    takes. The strict lower triangle is one index copy of the conjugated
    strict upper triangle and the diagonal is made real, so Hermiticity is
    bitwise.
    """
    k, d = problem.k, problem.target_dim
    pts = problem.points
    inner = (pts[:, None, :] * pts.conj()[None, :, :]).sum(axis=-1)
    targets = np.stack(problem.targets)
    products = targets[:, None] @ targets.conj().transpose(0, 2, 1)[None, :]
    blocks = (np.eye(d) - products) / (1.0 - inner)[:, :, None, None]
    out = blocks.transpose(0, 2, 1, 3).reshape(k * d, k * d)
    lower = np.tril_indices(k * d, -1)
    out[lower] = out.T[lower].conj()
    diag = np.diag_indices(k * d)
    out[diag] = out[diag].real
    return out


@dataclass
class FeasibilityResult:
    feasible: bool
    marginal: bool
    lambda_min: float
    lambda_max: float
    residual: float  # |P v - lambda_min v| / max(1, lambda_max) for the unit eigenvector v
    certificate: np.ndarray | None


def pick_feasible(problem: PickProblem, tol: float = 1e-9) -> FeasibilityResult:
    """Interpolation is feasible exactly when the Pick matrix is PSD; within
    the declared tolerance band the verdict is feasible (marginal). The
    eigenpair the verdict is read from is certified by its residual, scaled
    like the band; for an infeasible verdict its vector is the certificate."""
    m = pick_matrix(problem)
    vals, vecs = np.linalg.eigh(m)
    lam_min = float(vals[0])
    lam_max = float(vals[-1])
    v = vecs[:, 0]
    scale = max(1.0, lam_max)
    band = tol * scale
    feasible = lam_min >= -band
    return FeasibilityResult(
        feasible=feasible,
        marginal=abs(lam_min) <= band,
        lambda_min=lam_min,
        lambda_max=lam_max,
        residual=float(np.linalg.norm(m @ v - lam_min * v)) / scale,
        certificate=None if feasible else v,
    )
