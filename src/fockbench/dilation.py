"""Dilation blocks, Wold decompositions (with the shift multiplicity), model
spaces, and maximal constrained pieces.

The model space reads Theta Theta^* (``charfn.kernel_theta_gram``), the same
product the truncated factorization checks, and never Theta itself."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._linalg import (
    RANK_RTOL,
    complement_basis,
    eigh_descending,
    herm_part,
    herm_sqrt_psd,
    matrix_rank,
    principal_angles,
    range_basis,
    spectral_norm,
)
from .contractions import PURITY_TOL, PurityResult, RowContraction, check_count, validate
from .errors import InvalidParameterError, PreconditionError
from .ideals import ConstrainedSubspace, NcPolynomial, evaluate_polynomial
from .poisson import PoissonKernel, shift_adjoints


@dataclass
class DilationBlocks:
    """Dilation data: the kernel block, the Cuntz block, and the isometric
    embedding V = [K; Y] between them."""

    kernel: PoissonKernel
    k_basis: np.ndarray
    z_ops: list[np.ndarray]
    embedding: np.ndarray
    isometry_defect: float
    isometry_budget: float
    cuntz_residual: float
    constraint_residuals: list[float]
    lsq_residual: float

    @property
    def k_dim(self) -> int:
        return self.k_basis.shape[1]


def build_dilation(kernel: PoissonKernel) -> DilationBlocks:
    """Split the kernel's tuple into a shift part on the kernel's ambient
    (N_J, or the Fock space for the free ideal) and a Cuntz part.

    The Cuntz block acts on the closure of the range of the square root of
    the purity limit; its generators are the adjoints of the operators that
    implement T_i^* there, obtained by least squares on that range. The
    tuple met the ideal generators when the kernel was built."""
    kernel.require_unit_radius("the dilation")
    rc = kernel.rc
    generators = [] if kernel.cs is None else kernel.cs.generators
    q = rc.purity_limit().q_limit
    y = herm_sqrt_psd(q, clamp=1e-10)
    # Directions with q-eigenvalue at the iteration-error level are
    # indistinguishable from zero; an absolute cutoff keeps pure tuples from
    # acquiring a noise Cuntz block.
    q_vals, q_vecs = eigh_descending(q)
    keep = q_vals > max(100.0 * PURITY_TOL, RANK_RTOL * max(q_vals.max(initial=0.0), 0.0))
    k_basis = q_vecs[:, keep]
    kdim = k_basis.shape[1]

    y_hat = k_basis.conj().T @ y  # coordinates of Y on its range
    z_ops: list[np.ndarray] = []
    lsq_res = 0.0
    if kdim:
        # least squares against the full-row-rank y_hat via its Gram matrix
        gram = y_hat @ y_hat.conj().T
        for t in rc.matrices:
            rhs = k_basis.conj().T @ y @ t.conj().T
            lam = np.linalg.solve(gram.conj().T, (rhs @ y_hat.conj().T).conj().T).conj().T
            lsq_res = max(lsq_res, spectral_norm(lam @ y_hat - rhs))
            z_ops.append(lam.conj().T)
        cuntz = spectral_norm(sum(z @ z.conj().T for z in z_ops) - np.eye(kdim))
        constraint_res = [spectral_norm(evaluate_polynomial(p, z_ops)) for p in generators]
    else:
        cuntz = 0.0
        constraint_res = [0.0 for _ in generators]

    embedding = np.concatenate([kernel.matrix, y_hat], axis=0)
    gram = embedding.conj().T @ embedding
    defect = spectral_norm(gram - np.eye(rc.dim))
    n_top = kernel.fock.max_degree + 1
    budget = spectral_norm(rc.orbit(n_top) - q) + 1e-10
    return DilationBlocks(
        kernel=kernel,
        k_basis=k_basis,
        z_ops=z_ops,
        embedding=embedding,
        isometry_defect=defect,
        isometry_budget=budget,
        cuntz_residual=cuntz,
        constraint_residuals=constraint_res,
        lsq_residual=lsq_res,
    )


@dataclass
class DilationReport:
    residual: float
    budget: float
    full_residual: float


def verify_dilation(blocks: DilationBlocks) -> DilationReport:
    """Residual of V T_i^* = (block-diagonal dilation)_i^* V.

    The kernel block of the identity is exact on the kernel's interior rows
    (``PoissonKernel.interior_rows``) and the Cuntz block is off by the
    least-squares residual, so the residual reads those rows and the Cuntz
    rows, against the least-squares residual plus 1e-10. The residual over
    every row, top slice included, is reported as ``full_residual``."""
    rc = blocks.kernel.rc
    kdim = blocks.k_dim
    rows = np.concatenate([blocks.kernel.interior_rows(), np.ones(kdim, dtype=bool)])
    residual = full = 0.0
    for i, (t, top) in enumerate(zip(rc.matrices, shift_adjoints(blocks.kernel))):
        lhs = blocks.embedding @ t.conj().T
        bot = blocks.z_ops[i].conj().T @ blocks.embedding[-kdim:, :] if kdim else np.zeros((0, rc.dim))
        diff = lhs - np.concatenate([top, bot], axis=0)
        residual = max(residual, spectral_norm(diff[rows]))
        full = max(full, spectral_norm(diff))
    return DilationReport(residual=residual, budget=blocks.lsq_residual + 1e-10, full_residual=full)


@dataclass
class WoldSplit:
    q: np.ndarray
    k0_basis: np.ndarray
    k1_basis: np.ndarray
    multiplicity: int
    idempotency_defect: float
    two_path_angles: np.ndarray
    two_path_dim_match: bool
    purity: PurityResult


def wold_decompose(matrices: Sequence[np.ndarray] | RowContraction, k_max: int | None = None) -> WoldSplit:
    """Split a row contraction into its shift part and its residual part.

    The shift part is computed two ways: as the span of word translates of
    the defect range, and as the null space of the purity limit; the
    principal angles between the two are reported, not assumed zero. The
    idempotency of the defect is likewise reported only. ``k_max`` (default
    dim) bounds the word length of the translates; InvalidParameterError
    unless it is an integer >= 0. A RowContraction is taken as validated;
    raw matrices are validated with tolerance 1e-8."""
    rc = matrices if isinstance(matrices, RowContraction) else validate(matrices, tol=1e-8)
    dim = rc.dim
    k_max = dim if k_max is None else check_count("k_max", k_max, 0)
    q = np.eye(dim, dtype=complex) - rc.row_gram()
    idem = spectral_norm(q @ q - q)
    k0_span = _word_translate_span([q], rc.matrices, k_max)

    pur = rc.purity_limit()
    vals, vecs = eigh_descending(pur.q_limit)
    # absolute floor: a geometrically pure tuple leaves iteration-noise
    # eigenvalues that a relative rule would misread as a residual part
    null_mask = vals <= max(RANK_RTOL * vals.max(initial=0.0), 1e-10)
    k0_null = vecs[:, null_mask]

    angles = principal_angles(k0_span, k0_null)
    k1 = complement_basis(k0_span, dim)
    mult = matrix_rank(q)
    return WoldSplit(
        q=q,
        k0_basis=k0_span,
        k1_basis=k1,
        multiplicity=mult,
        idempotency_defect=idem,
        two_path_angles=angles,
        two_path_dim_match=k0_span.shape[1] == k0_null.shape[1],
        purity=pur,
    )


@dataclass
class ModelSpaceResult:
    basis: np.ndarray
    compressed: list[np.ndarray]
    projection_residual: float
    projection_budget: float
    equivalence_residual: float
    equivalence_budget: float
    complement_residual: float
    split: tuple[float | None, float | None]


def model_space(kernel: PoissonKernel, gram: np.ndarray) -> ModelSpaceResult:
    """Model a pure tuple inside (kernel ambient) tensor (row defect) as the
    complement of the range of its characteristic function, read from
    ``gram`` = Theta Theta^* on that ambient (``kernel_theta_gram(kernel)``),
    and compare it with the range of K K^*.

    At truncation Theta is a near-partial isometry whose singular values
    cluster at 0 and 1 with a gap controlled by the purity tail, so the model
    basis is the eigenvectors of Theta Theta^* with eigenvalue at most 1/4,
    the half gap squared, rather than a global relative cutoff. ``split`` is
    (largest eigenvalue counted into the model, smallest counted out), None
    where a side is empty. One shift action on [K | basis] gives both the
    compressed model operators and the kernel side of the equivalence."""
    kernel.require_unit_radius("the model space")
    rc, top = kernel.rc, kernel.fock.max_degree
    if not rc.purity_limit().is_pure:
        raise PreconditionError("model space requires a pure row contraction")

    vals, vecs = np.linalg.eigh(herm_part(gram))
    rank = int(np.count_nonzero(vals <= 0.25))
    basis = vecs[:, :rank]
    split = (float(vals[rank - 1]) if rank else None, float(vals[rank]) if rank < vals.size else None)

    p_model = basis @ basis.conj().T
    k = kernel.matrix
    projection_residual = spectral_norm(p_model - k @ k.conj().T)
    projection_budget = 3.0 * spectral_norm(rc.orbit(top + 1)) + 1e-9
    complement_residual = spectral_norm(p_model + gram - np.eye(gram.shape[0], dtype=complex))

    equivalence_residual = 0.0
    compressed = []
    for t, moved in zip(rc.matrices, shift_adjoints(kernel, np.concatenate([k, basis], axis=1))):
        compressed.append(moved[:, k.shape[1] :].conj().T @ basis)
        equivalence_residual = max(equivalence_residual, spectral_norm(moved[:, : k.shape[1]].conj().T @ k - t))
    equivalence_budget = spectral_norm(rc.orbit(top)) + 1e-9

    return ModelSpaceResult(
        basis=basis,
        compressed=compressed,
        projection_residual=projection_residual,
        projection_budget=projection_budget,
        equivalence_residual=equivalence_residual,
        equivalence_budget=equivalence_budget,
        complement_residual=complement_residual,
        split=split,
    )


def maximal_constrained_piece(
    matrices: Sequence[np.ndarray],
    polys: Sequence[NcPolynomial],
    k_max: int | None = None,
    cs: ConstrainedSubspace | None = None,
) -> tuple[np.ndarray, dict]:
    """Orthogonal complement of the span of all word translates of the
    generator ranges; the largest co-invariant piece on which the compressed
    tuple satisfies the constraints.

    When ``cs`` is passed (meaningful for the truncated creation tuple of the
    same ideal), the diagnostics report principal angles against its basis on
    the certified degree window."""
    polys = [p for p in polys if p.terms]
    if not polys:
        raise InvalidParameterError("need at least one nonzero polynomial")
    mats = [np.asarray(t, dtype=complex) for t in matrices]
    dim = mats[0].shape[0]
    if k_max is None:
        k_max = dim
    seeds = [evaluate_polynomial(p, mats) for p in polys]
    span = _word_translate_span(seeds, mats, k_max)
    basis = complement_basis(span, dim)
    compressed = [basis.conj().T @ t @ basis for t in mats]
    residuals = [spectral_norm(evaluate_polynomial(p, compressed)) for p in polys]
    diagnostics = {"span_rank": span.shape[1], "compressed_residuals": residuals}
    if cs is not None:
        if cs.fock.dim != dim:
            raise InvalidParameterError("comparison subspace lives on a different ambient space")
        window = cs.fock.degree_le_mask(cs.buffer_window)
        mask = window.astype(float)[:, None]
        angles = principal_angles(basis * mask, cs.basis * mask)
        diagnostics["window_degree"] = cs.buffer_window
        diagnostics["cs_principal_angles"] = angles
        diagnostics["cs_max_angle"] = float(angles.max(initial=0.0))
    return basis, diagnostics


def _word_translate_span(seeds: Sequence[np.ndarray], mats: Sequence[np.ndarray], k_max: int) -> np.ndarray:
    """Orthonormal basis of span{T_alpha s : s seed column, |alpha| <= k_max},
    with levels rank-reduced so widths never exceed the ambient dimension.
    Stops early once the span stabilizes (it is then invariant)."""
    total = range_basis(np.concatenate(list(seeds), axis=1))
    level = total
    for _ in range(k_max):
        if level.shape[1] == 0:
            break
        level = range_basis(np.concatenate([t @ level for t in mats], axis=1))
        combined = range_basis(np.concatenate([total, level], axis=1))
        if combined.shape[1] == total.shape[1]:
            break
        total = combined
    return total
