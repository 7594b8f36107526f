"""Dilation blocks, Wold decompositions (with the shift multiplicity), and
model spaces.

The model space is the range of I - Theta Theta^*, read from the seeded probe
of ``charfn.ThetaAction``, the reader the Euler ranks and the truncated
factorization share."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._linalg import (
    RankDecision,
    complement_basis,
    joint_decision,
    principal_angles,
    range_basis,
    spectral_norm,
)
from .charfn import ThetaAction
from .contractions import PurityResult, RowContraction, check_count
from .errors import PreconditionError
from .ideals import evaluate_polynomial
from .poisson import PoissonKernel, shift_adjoints


@dataclass
class DilationBlocks:
    """Dilation data: the kernel block, the Cuntz block, and the isometric
    embedding V = [K; Y] between them.

    ``isometry_defect`` is |V^*V - (I - Phi^(N+1)(I) + Q)|, the truncated
    form of V^*V = I: K^*K = I - Phi^(N+1)(I) and Y^*Y = Q. ``lsq_residual``
    is the residual of the Cuntz rows of V T_i^* = (dilation)_i^* V; its
    kernel rows are the Poisson intertwining (``intertwining_check``)."""

    kernel: PoissonKernel
    k_basis: np.ndarray
    z_ops: list[np.ndarray]
    embedding: np.ndarray
    isometry_defect: float
    cuntz_residual: float
    constraint_residuals: list[float]
    lsq_residual: float

    @property
    def k_dim(self) -> int:
        return self.k_basis.shape[1]


def build_dilation(kernel: PoissonKernel) -> DilationBlocks:
    """Split the kernel's tuple into a shift part on the kernel's ambient
    (N_J, or the Fock space for the free ideal) and a Cuntz part.

    The Cuntz block acts on the range of the purity limit Q, the leading
    eigenvectors that its rank decision keeps (``PurityResult.q_spectrum``);
    its generators are the adjoints of the operators that implement T_i^*
    there, obtained by least squares against Y, the root of Q on that range.
    The tuple met the ideal generators when the kernel was built."""
    kernel.require_unit_radius("the dilation")
    rc = kernel.rc
    generators = [] if kernel.cs is None else kernel.cs.generators
    pur = rc.purity_limit()
    q_vals, q_vecs, decision = pur.q_spectrum()
    kdim = decision.rank
    k_basis = q_vecs[:, :kdim]

    y_hat = np.sqrt(q_vals[:kdim])[:, None] * k_basis.conj().T  # coordinates of Y on its range
    z_ops: list[np.ndarray] = []
    lsq_res = 0.0
    if kdim:
        # least squares against the full-row-rank y_hat via its Gram matrix
        gram = y_hat @ y_hat.conj().T
        for t in rc.matrices:
            rhs = y_hat @ t.conj().T
            lam = np.linalg.solve(gram.conj().T, (rhs @ y_hat.conj().T).conj().T).conj().T
            lsq_res = max(lsq_res, spectral_norm(lam @ y_hat - rhs))
            z_ops.append(lam.conj().T)
        cuntz = spectral_norm(sum(z @ z.conj().T for z in z_ops) - np.eye(kdim))
        constraint_res = [spectral_norm(evaluate_polynomial(p, z_ops)) for p in generators]
    else:
        cuntz = 0.0
        constraint_res = [0.0 for _ in generators]

    embedding = np.concatenate([kernel.matrix, y_hat], axis=0)
    exact = np.eye(rc.dim) - rc.orbit(kernel.fock.max_degree + 1) + pur.q_limit
    return DilationBlocks(
        kernel=kernel,
        k_basis=k_basis,
        z_ops=z_ops,
        embedding=embedding,
        isometry_defect=spectral_norm(embedding.conj().T @ embedding - exact),
        cuntz_residual=cuntz,
        constraint_residuals=constraint_res,
        lsq_residual=lsq_res,
    )


@dataclass
class WoldSplit:
    k0_basis: np.ndarray
    k1_basis: np.ndarray
    k0_decision: RankDecision
    multiplicity: int
    idempotency_defect: float
    two_path_angles: np.ndarray
    two_path_dim_match: bool
    purity: PurityResult


def wold_decompose(rc: RowContraction, k_max: int | None = None) -> WoldSplit:
    """Split a row contraction into its shift part and its residual part.

    The shift part is computed two ways: as the span of word translates of
    the defect range ``rc.defect_basis``, and as the null space of the purity
    limit, the eigenvectors its rank decision drops; the principal angles
    between the two are reported, not assumed zero, and so is the joint gap
    of the rank decisions that fixed the span. The multiplicity is the
    defect rank, and the idempotency of the defect is reported only.
    ``k_max`` (default dim) bounds the word length of the translates;
    InvalidParameterError unless it is an integer >= 0."""
    dim = rc.dim
    k_max = dim if k_max is None else check_count("k_max", k_max, 0)
    q = np.eye(dim, dtype=complex) - rc.row_gram()
    k0_span, k0_decision = _word_translate_span([rc.defect_basis], rc.matrices, k_max)
    pur = rc.purity_limit()
    _, vecs, decision = pur.q_spectrum()
    k0_null = vecs[:, decision.rank :]
    return WoldSplit(
        k0_basis=k0_span,
        k1_basis=complement_basis(k0_span)[0],
        k0_decision=k0_decision,
        multiplicity=rc.defect_rank,
        idempotency_defect=spectral_norm(q @ q - q),
        two_path_angles=principal_angles(k0_span, k0_null),
        two_path_dim_match=k0_span.shape[1] == k0_null.shape[1],
        purity=pur,
    )


@dataclass
class ModelSpaceResult:
    basis: np.ndarray
    compressed: list[np.ndarray]
    projection_residual: float
    equivalence_residual: float
    complement_residual: float
    decision: RankDecision


def model_space(kernel: PoissonKernel, theta: ThetaAction | None = None) -> ModelSpaceResult:
    """Model a pure tuple inside (kernel ambient) tensor (row defect) as the
    complement of the range of its characteristic function, and compare it
    with the range of K. Theta is read from ``theta``
    (``ThetaAction.for_kernel``).

    At truncation M = I - Theta Theta^* = K K^* has rank at most dim H, so
    the model basis B is the range of M Omega, Omega the seeded Gaussian
    block of width dim H + EULER_PROBE_OVERSAMPLE (``ThetaAction.probe``):
    its thin SVD cut at the span floor, never read from K. ``decision`` is
    that rank decision, with its gap. The three checks are the exact
    truncated identities:
    - ``projection_residual`` = |K - B B^* K|: the range of K lies in the
      model space;
    - ``complement_residual`` = ||(I - Theta Theta^*)(I - B B^*)||_F, an
      upper bound of max |1 - lambda| over the eigenvalues of
      Theta Theta^* off the model, where Theta Theta^* = I: with D = M B it is
      ``ThetaAction.residual`` of D and B (||M||_F^2 - ||M B||_F^2 would lose
      half the digits);
    - ``equivalence_residual`` = max_i |K^* (B_i (x) I) K - T_i (I - Phi^N(I))|,
      with B_i the ambient's shift, since K^* (B_i (x) I) K telescopes to
      T_i (I - Phi^N(I)).
    One shift action on [K | B] gives both the compressed model operators
    and the kernel side of the equivalence."""
    kernel.require_unit_radius("the model space")
    rc = kernel.rc
    if not rc.purity_limit().is_pure:
        raise PreconditionError("model space requires a pure row contraction")

    theta = ThetaAction.for_kernel(kernel, theta)
    basis, decision = range_basis(theta.probe(theta.gaussian(rc.dim)).T)
    complement_residual = theta.residual(theta.probe(basis.T).T, basis)
    k = kernel.matrix
    projection_residual = spectral_norm(k - basis @ (basis.conj().T @ k))

    equivalence_residual = 0.0
    compressed = []
    interior_gram = np.eye(rc.dim) - rc.orbit(kernel.fock.max_degree)
    for t, moved in zip(rc.matrices, shift_adjoints(kernel, np.concatenate([k, basis], axis=1))):
        compressed.append(moved[:, k.shape[1] :].conj().T @ basis)
        kernel_side = moved[:, : k.shape[1]].conj().T @ k
        equivalence_residual = max(equivalence_residual, spectral_norm(kernel_side - t @ interior_gram))

    return ModelSpaceResult(
        basis=basis,
        compressed=compressed,
        projection_residual=projection_residual,
        equivalence_residual=equivalence_residual,
        complement_residual=complement_residual,
        decision=decision,
    )


def _word_translate_span(seeds: Sequence[np.ndarray], mats: Sequence[np.ndarray],
                         k_max: int) -> tuple[np.ndarray, RankDecision]:
    """Orthonormal basis of span{T_alpha s : s seed column, |alpha| <= k_max},
    with levels rank-reduced so widths never exceed the ambient dimension,
    and the joint gap of the rank decisions that fixed it. Stops early once
    the span stabilizes (it is then invariant)."""
    total, decision = range_basis(np.concatenate(list(seeds), axis=1))
    decisions = [decision]
    level = total
    for _ in range(k_max):
        if level.shape[1] == 0:
            break
        level, level_decision = range_basis(np.concatenate([t @ level for t in mats], axis=1))
        combined, combined_decision = range_basis(np.concatenate([total, level], axis=1))
        decisions += [level_decision, combined_decision]
        if combined.shape[1] == total.shape[1]:
            break
        total = combined
    return total, joint_decision(total.shape[1], decisions)
