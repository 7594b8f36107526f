"""Poisson kernels on the truncated Fock space, their constrained
compressions, the shift action on kernel rows and the intertwining identity.

The truncated kernel of a tuple stacks, per basis word alpha, the block
r^|alpha| (defect root) T_alpha^* expressed in defect coordinates. Its Gram
matrix telescopes exactly to I - r^(2(N+1)) Phi^(N+1)(I), so the isometry
statement is checked against that exact value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._linalg import RankDecision, spectral_norm
from .contractions import RowContraction, check_constraints, defect_root_and_basis
from .errors import InvalidParameterError, PreconditionError
from .ideals import ConstrainedSubspace, constrained_shifts
from .words import TruncatedFock, word_products


@dataclass
class PoissonKernel:
    """Truncated Poisson kernel of a row contraction.

    ``matrix`` maps the underlying space into (ambient basis) tensor (defect
    coordinates); for the constrained flavor the ambient is the constrained
    subspace basis and ``cs`` is set. ``defect_decision`` is the rank
    decision that cut the (radial) row defect to ``defect_basis``. Every check of the kernel
    (intertwining, truncated factorization, dilation, model space) takes the
    kernel itself and reads the tuple, the ambient and r from it.
    """

    rc: RowContraction
    r: float
    fock: TruncatedFock
    matrix: np.ndarray
    defect_basis: np.ndarray
    defect_decision: RankDecision
    isometry_defect: float
    tail_budget: float
    cs: ConstrainedSubspace | None = None
    range_containment: float | None = None

    @property
    def defect_dim(self) -> int:
        return self.defect_basis.shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.fock.dim if self.cs is None else self.cs.dim

    def interior_rows(self) -> np.ndarray:
        """Mask of the kernel rows of ambient degree <= N - 1, where the shift
        intertwining is exact: the top slice cannot receive weight from words
        of length N + 1."""
        degrees = self.fock.degrees if self.cs is None else self.cs.basis_degrees
        return np.repeat(degrees <= self.fock.max_degree - 1, self.defect_dim)

    def require_unit_radius(self, what: str) -> None:
        """InvalidParameterError unless r = 1, where K K^* = I - Theta Theta^*."""
        if self.r != 1.0:
            raise InvalidParameterError(f"{what} needs the r = 1 kernel, got r = {self.r}")


def _radial_defect(rc: RowContraction, r: float) -> tuple[np.ndarray, np.ndarray, RankDecision]:
    if r == 1.0:
        return rc.delta, rc.defect_basis, rc.defect_decision
    return defect_root_and_basis(np.eye(rc.dim) - (r * r) * rc.row_gram())


def poisson_kernel(rc: RowContraction, fock: TruncatedFock, r: float = 1.0) -> PoissonKernel:
    """Truncated radial Poisson kernel.

    The row blocks are one word walk: block alpha is (reduced defect root)
    T_alpha^*, built from its parent by one product with T_i^*, and the
    degree-m slice is scaled by r^m. The reported isometry defect is measured
    against the exact truncated Gram I - r^(2(N+1)) Phi^(N+1)(I), so it sits
    at rounding level for a correct kernel; ``tail_budget`` is the norm of
    the tail r^(2(N+1)) Phi^(N+1)(I), reported as data.
    """
    if not 0.0 < r <= 1.0:
        raise InvalidParameterError(f"radial parameter must lie in (0, 1], got {r}")
    delta_r, basis, decision = _radial_defect(rc, r)
    adjoints = [t.conj().T for t in rc.matrices]
    blocks = word_products(basis.conj().T @ delta_r, adjoints, fock.max_degree)
    blocks *= (r ** fock.degrees)[:, None, None]
    k = blocks.reshape(fock.dim * basis.shape[1], rc.dim)

    tail = (r ** (2 * (fock.max_degree + 1))) * rc.orbit(fock.max_degree + 1)
    defect = spectral_norm(k.conj().T @ k - (np.eye(rc.dim) - tail))
    return PoissonKernel(
        rc=rc,
        r=r,
        fock=fock,
        matrix=k,
        defect_basis=basis,
        defect_decision=decision,
        isometry_defect=defect,
        tail_budget=spectral_norm(tail),
    )


def constrained_poisson_kernel(rc: RowContraction, cs: ConstrainedSubspace, r: float = 1.0) -> PoissonKernel:
    """Compression of the Poisson kernel to the constrained subspace.

    This is the one place a tuple is checked against the ideal generators
    (PreconditionError for a residual beyond 1e-10); everything that reads
    the kernel relies on it. It also verifies that the full kernel's range
    already lies in the constrained part (exact, since every generator is
    homogeneous).
    Q^* acts on the word index only and N_J is graded, so on the
    (word, defect * dim) reshape of the kernel the compression is Q_m^* on
    the slice-m rows, and the containment residual stacks their remainders."""
    residuals = check_constraints(rc, cs.generators)
    if any(res > 1e-10 for res in residuals):
        raise PreconditionError(
            f"tuple violates the ideal generators: residuals {['%.2e' % r_ for r_ in residuals]}"
        )
    full = poisson_kernel(rc, cs.fock, r)
    words = full.matrix.reshape(cs.fock.dim, -1)
    rows = [words[cs.fock.slice_range(m)] for m in range(len(cs.slices))]
    coords = [q.conj().T @ w for q, w in zip(cs.slices, rows)]
    compressed = np.concatenate(coords).reshape(cs.dim * full.defect_dim, rc.dim)
    top = cs.fock.max_degree + 1
    exact_gram = np.eye(rc.dim) - (r ** (2 * top)) * rc.orbit(top)
    residual = np.concatenate([w - q @ c for q, w, c in zip(cs.slices, rows, coords)]).reshape(full.matrix.shape)
    return replace(
        full,
        matrix=compressed,
        isometry_defect=spectral_norm(compressed.conj().T @ compressed - exact_gram),
        cs=cs,
        range_containment=spectral_norm(residual),
    )


@dataclass
class IntertwiningReport:
    residual: float
    full_residual: float


def shift_adjoints(kernel: PoissonKernel, x: np.ndarray | None = None) -> list[np.ndarray]:
    """(S_i^* tensor I) x for i = 1..n on the kernel's ambient; x (default:
    the kernel matrix) has one row block per ambient basis vector.

    Slice m of the result is read from slice m + 1 of x; the top slice stays
    zero. On the Fock space it gathers the g_i-children of slice m
    (``TruncatedFock.child_rows``); on N_J it is X_{m,i}^* times slice m + 1,
    with X_{m,i} the blocks of ``constrained_shifts``."""
    x = kernel.matrix if x is None else x
    fock, cs = kernel.fock, kernel.cs
    rows = x.reshape(kernel.ambient_dim, -1)
    off = fock.slice_offsets if cs is None else np.cumsum([0, *cs.slice_dims])
    shifts = None if cs is None else constrained_shifts(cs, "left")
    out = []
    for i in range(1, fock.n + 1):
        moved = np.zeros_like(rows)
        for m in range(fock.max_degree):
            above = rows[off[m + 1] : off[m + 2]]
            moved[off[m] : off[m + 1]] = (above[fock.child_rows("left", i, m)] if cs is None
                                          else shifts[i - 1][m].conj().T @ above)
        out.append(moved.reshape(x.shape))
    return out


def intertwining_check(kernel: PoissonKernel) -> IntertwiningReport:
    """Residual of K (r T_i^*) = (shift_i^* tensor I) K over all generators.

    The identity is exact on the interior rows (``interior_rows``), so the
    top-slice rows are excluded from the headline residual; the residual over
    all rows is reported beside it.
    """
    rc, r = kernel.rc, kernel.r
    row_mask = kernel.interior_rows()
    diffs = [kernel.matrix @ (r * t.conj().T) - moved for t, moved in zip(rc.matrices, shift_adjoints(kernel))]
    return IntertwiningReport(
        residual=max((spectral_norm(diff[row_mask, :]) for diff in diffs), default=0.0),
        full_residual=max((spectral_norm(diff) for diff in diffs), default=0.0),
    )
