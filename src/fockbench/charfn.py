"""Characteristic functions as multi-analytic operators.

The symbol of a row contraction T is
    -T + (defect root)(I - sum z_i T_i^*)^(-1)[z_1 I, ..., z_n I](column defect root)
restricted to defect coordinates. Expanding the resolvent as a Neumann series
produces one Fourier coefficient per word; the expansion pairs the ambient
word with the *reverse* of the operator word, which is the one indexing trap
in this module. The coefficients are therefore stored in reversed-word order:
one (#words, target, source) array whose entry at basis word rho is the
coefficient of reverse(rho). In that order the degree-k coefficients are the
degree-(k-1) Poisson kernel blocks (defect root) T_rho^* of the shared word
walk (``words.word_products``) times the column-defect blocks, the word-level
form of I - Theta Theta^* = K K^*. ``assemble`` places coefficient beta at
ambient blocks (mu * reverse(beta), mu), matching the action of right
creation products, one degree pair at a time: the degree-k slice of the
stored array is the block from degree m to m + k of every ambient,
compressed to the slice bases of a constrained one. On the Fock space
Theta Theta^* is read from the same slices one degree block at a time
(``_gram_blocks``), block (a, b) being Theta_a Theta_b^* + I_n (x) block
(a-1, b-1): ``theta_gram`` writes the blocks into the whole Gram for the
model space, and the truncated factorization sums their residual norms
without forming it. On N_J ``theta_gram`` is the assembled Theta times its
adjoint and serves both. Curvature and Euler never form it: they read the
slices (``degree_slices``) through ``invariants``. A dedicated convention
test pins point evaluation against partial sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._linalg import herm_part, spectral_norm
from .contractions import RowContraction, spectral_radius, validate
from .errors import InvalidParameterError, PreconditionError
from .ideals import ConstrainedSubspace, evaluate_polynomial
from .poisson import PoissonKernel
from .words import TruncatedFock, word_products

EPS = np.finfo(float).eps


@dataclass
class MultiAnalyticOperator:
    """Fourier coefficient family of a multi-analytic operator.

    ``coefficients[j]`` is the coefficient of the reverse of basis word j (in
    the length-lexicographic order of ``TruncatedFock``), mapping source defect
    coordinates to target defect coordinates; the assembled matrix is the
    coefficient-weighted sum of right-creation word operators (or their
    constrained compressions)."""

    n: int
    max_degree: int
    coefficients: np.ndarray

    @property
    def target_dim(self) -> int:
        return self.coefficients.shape[1]

    @property
    def source_dim(self) -> int:
        return self.coefficients.shape[2]


def characteristic_coefficients(rc: RowContraction, max_degree: int) -> MultiAnalyticOperator:
    """Fourier coefficients of the characteristic function up to a degree.

    The constant coefficient is -T compressed between the defect spaces; the
    word gamma*g_i coefficient is the kernel block (row defect root)
    T_{reverse(gamma)}^* times the i-th block row of the column defect root.
    In reversed-word order the degree-k slice is therefore
    ``concatenate([K_{k-1} @ block_i for i])`` with K_{k-1} the degree-(k-1)
    slice of the kernel walk. At max_degree 0 only the constant coefficient
    is returned."""
    if max_degree < 0:
        raise InvalidParameterError("need max_degree >= 0")
    d, n = rc.dim, rc.n
    e_t = rc.defect_basis
    e_s = rc.defect_star_basis
    # i-th block row of the column defect root, already in source coordinates.
    blocks = [rc.delta_star[i * d : (i + 1) * d, :] @ e_s for i in range(n)]
    kernel = word_products(e_t.conj().T @ rc.delta, [t.conj().T for t in rc.matrices], max_degree - 1)
    below = TruncatedFock(n, max_degree - 1)
    thetas = [-(e_t.conj().T @ rc.row_matrix @ e_s)[None]]
    thetas += [np.concatenate([kernel[below.slice_range(k)] @ b for b in blocks]) for k in range(max_degree)]
    return MultiAnalyticOperator(n=n, max_degree=max_degree, coefficients=np.concatenate(thetas))


def assemble(
    op: MultiAnalyticOperator,
    fock: TruncatedFock | None = None,
    cs: ConstrainedSubspace | None = None,
) -> np.ndarray:
    """Truncated matrix of the multi-analytic operator on (ambient tensor source).

    Coefficient beta lands at block rows mu*reverse(beta) for every word mu it
    fits against. So with Theta_k the degree-k coefficients stacked in the
    order of the reversed words, the Fock block from degree m to degree m + k
    is I_{n^m} (x) Theta_k, written through a strided view. A constrained
    ambient compresses that block to its stored slice bases ``cs.slices``,
    (Q_{m+k}^* (x) I)(I_{n^m} (x) Theta_k)(Q_m (x) I), as two products; N_J is
    graded and co-invariant, so this equals the assembly against products of
    the compressed right shifts.
    """
    if (fock is None) == (cs is None):
        raise InvalidParameterError("pass exactly one ambient: fock or cs")
    ambient = fock if cs is None else cs.fock
    if op.max_degree < ambient.max_degree:
        raise InvalidParameterError("coefficients do not cover the ambient truncation degree")
    n, top, src, tgt = ambient.n, ambient.max_degree, op.source_dim, op.target_dim
    thetas = degree_slices(op, ambient)

    if cs is None:
        out = np.zeros((fock.dim * tgt, fock.dim * src), dtype=complex)
        off = fock.slice_offsets
        for k, theta_k in enumerate(thetas):
            for m in range(top - k + 1):
                block = out[off[m + k] * tgt : off[m + k + 1] * tgt, off[m] * src : off[m + 1] * src]
                mu = np.arange(n**m)
                # Every block is written once, onto zeros.
                block.reshape(n**m, n**k * tgt, n**m, src)[mu, :, mu, :] += theta_k
        return out

    off = np.cumsum([0, *cs.slice_dims])
    out = np.zeros((cs.dim * tgt, cs.dim * src), dtype=complex)
    out4 = out.reshape(cs.dim, tgt, cs.dim, src)
    for k, theta_k in enumerate(thetas):
        for m in range(top - k + 1):
            q_t, q_s = cs.slices[m + k], cs.slices[m]
            d_t, d_s = q_t.shape[1], q_s.shape[1]
            # Contract the word rho of Theta_k against Q_{m+k} = Q[(mu, rho), i],
            # then mu against Q_m.
            lhs = q_t.reshape(n**m, n**k, d_t).transpose(0, 2, 1).conj().reshape(n**m * d_t, n**k)
            y = lhs @ theta_k.reshape(n**k, tgt * src)
            z = y.reshape(n**m, d_t * tgt * src).T @ q_s
            out4[off[m + k] : off[m + k + 1], :, off[m] : off[m + 1], :] = (
                z.reshape(d_t, tgt, src, d_s).transpose(0, 1, 3, 2)
            )
    return out


def degree_slices(op: MultiAnalyticOperator, ambient: TruncatedFock) -> list[np.ndarray]:
    """Theta_k for k = 0..N: the degree-k coefficients stacked in the order of
    the reversed words, as an (n^k target, source) matrix."""
    n, tgt, src = ambient.n, op.target_dim, op.source_dim
    return [op.coefficients[ambient.slice_range(k)].reshape(n**k * tgt, src)
            for k in range(ambient.max_degree + 1)]


def theta_gram(
    op: MultiAnalyticOperator,
    fock: TruncatedFock | None = None,
    cs: ConstrainedSubspace | None = None,
) -> np.ndarray:
    """Theta Theta^* on (ambient tensor target), for exactly one ambient as in
    ``assemble``.

    On N_J with generators it is the product of the assembled Theta with its
    adjoint. On the Fock space, and on N_J without generators, whose basis is
    the identity, each block (a, b), b <= a, is written in place by
    ``_gram_blocks`` and its conjugate transpose fills block (b, a).
    """
    if (fock is None) == (cs is None):
        raise InvalidParameterError("pass exactly one ambient: fock or cs")
    if cs is not None and cs.generators:
        theta = assemble(op, cs=cs)
        return theta @ theta.conj().T
    fock = fock if cs is None else cs.fock
    off = [o * op.target_dim for o in fock.slice_offsets]
    out = np.empty((off[-1], off[-1]), dtype=complex)
    for a, b, block in _gram_blocks(op, fock, out):
        if b < a:
            np.conjugate(block.T, out=out[off[b] : off[b + 1], off[a] : off[a + 1]])
    return out


def _gram_blocks(op: MultiAnalyticOperator, fock: TruncatedFock, out: np.ndarray | None = None):
    """The blocks P_ab of Theta Theta^* on (Fock tensor target), b <= a, as
    (a, b, P_ab).

    Theta's block from degree c to degree c + k is I_{n^c} (x) Theta_k, so
    P_ab = sum_{c <= b} I_{n^c} (x) (Theta_{a-c} Theta_{b-c}^*), that is
    P_ab = Theta_a Theta_b^* + I_n (x) P_{a-1,b-1}: one product of two
    coefficient slices, and the previous block of the band k = a - b added
    onto its n diagonal sub-blocks. The walk goes band by band, b rising, and
    keeps only that previous block. With ``out`` (the whole Gram) each block
    is written into its place there; otherwise each is a fresh array, which
    the caller may change in place once the band is done with it, at a = N.
    """
    if op.max_degree < fock.max_degree:
        raise InvalidParameterError("coefficients do not cover the ambient truncation degree")
    n, top, tgt = fock.n, fock.max_degree, op.target_dim
    thetas = degree_slices(op, fock)
    adjoints = [theta.conj().T for theta in thetas]
    off = [o * tgt for o in fock.slice_offsets]
    for k in range(top + 1):
        for b in range(top - k + 1):
            a = b + k
            block = None if out is None else out[off[a] : off[a + 1], off[b] : off[b + 1]]
            block = np.matmul(thetas[a], adjoints[b], out=block)
            if b:
                inner = block.reshape(n, n ** (a - 1) * tgt, n, n ** (b - 1) * tgt)
                for mu in range(n):
                    inner[mu, :, mu, :] += prev
            yield a, b, block
            prev = block


def _lifted_point(point, n: int) -> list[np.ndarray]:
    """The point's n entries as finite k x k matrices, a scalar as 1 x 1."""
    mats = [np.atleast_2d(np.asarray(x, dtype=complex)) for x in point]
    k = mats[0].shape[0]
    if len(mats) != n or any(m.shape != (k, k) or not np.isfinite(m).all() for m in mats):
        raise InvalidParameterError(f"a point needs {n} finite scalars or equal-sized square matrices")
    return mats


def _kron(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x (x) m; a 1 x 1 x scales m, the products np.kron forms."""
    return x[0, 0] * m if x.shape == (1, 1) else np.kron(x, m)


class _PointLifts:
    """The tuple's constants lifted to points of size k, I_k (x) M; at k = 1
    the constants themselves."""

    def __init__(self, rc: RowContraction, row: np.ndarray, k: int):
        lift = (lambda m: m) if k == 1 else (lambda m: np.kron(np.eye(k, dtype=complex), m))
        self.eye, self.eye_defect = np.eye(k * rc.dim, dtype=complex), np.eye(k * rc.defect_rank, dtype=complex)
        self.neg_row, self.delta, self.delta_star = -lift(row), lift(rc.delta), lift(rc.delta_star)
        self.basis, self.star_basis = lift(rc.defect_basis), lift(rc.defect_star_basis)
        self.basis_adj = self.basis.conj().T


def _theta_at(lifts: _PointLifts, xs: list[np.ndarray], selectors: list[np.ndarray], a: np.ndarray) -> np.ndarray:
    """Theta(X) from a = I - sum X_i (x) T_i^*. X-hat maps (point space tensor
    n-fold column space) to (point space tensor row space); block i of the
    column space is hit by X_i."""
    xhat = sum(_kron(x, s) for x, s in zip(xs, selectors))
    mid = np.linalg.solve(a, xhat @ lifts.delta_star)
    return lifts.basis_adj @ (lifts.neg_row + lifts.delta @ mid) @ lifts.star_basis


def point_factorization(
    rc: RowContraction,
    points: Sequence[Sequence],
    cs: ConstrainedSubspace | None = None,
) -> tuple[list[np.ndarray], list[float]]:
    """Theta(X) at each strict point X, scalar or matrix, and the residual of
    I - Theta(X) Theta(X)^* against the Poisson-kernel square there, in the
    closed resolvent form; this is truncation-free. The boundary rule is joint
    spectral radius below one, ||z||_2 < 1 at a scalar point; with ``cs`` the
    point's matrices must also satisfy the ideal generators to 1e-8. The
    tuple's constants are formed once per call and point size, and
    I - sum X_i (x) T_i^* once per point for both solves."""
    d = rc.dim
    adjoints, eye_d = [t.conj().T for t in rc.matrices], np.eye(d)
    selectors = [np.zeros((d, rc.n * d), dtype=complex) for _ in range(rc.n)]
    for i, s in enumerate(selectors):
        s[:, i * d : (i + 1) * d] = eye_d
    row, by_size = rc.row_matrix, {}
    thetas, residuals = [], []
    for point in points:
        xs = _lifted_point(point, rc.n)
        if cs is not None and max((spectral_norm(evaluate_polynomial(p, xs)) for p in cs.generators),
                                  default=0.0) > 1e-8:
            raise PreconditionError("point violates the ideal generators")
        k = xs[0].shape[0]
        if (np.linalg.norm([x[0, 0] for x in xs]) if k == 1 else spectral_radius(xs)) >= 1.0:
            raise PreconditionError("point has joint spectral radius >= 1")
        lifts = by_size[k] if k in by_size else by_size.setdefault(k, _PointLifts(rc, row, k))
        a = lifts.eye - sum(_kron(x, t) for x, t in zip(xs, adjoints))
        theta = _theta_at(lifts, xs, selectors, a)
        # c = (I - T X*)^{-1} (I tensor delta); RHS = c^* (I - X X^* tensor I) c.
        c = np.linalg.solve(a.conj().T, lifts.delta)
        gram_x = sum(x @ x.conj().T for x in xs)
        rhs = lifts.basis_adj @ (c.conj().T @ (lifts.eye - _kron(gram_x, eye_d)) @ c) @ lifts.basis
        thetas.append(theta)
        residuals.append(spectral_norm(lifts.eye_defect - theta @ theta.conj().T - rhs))
    return thetas, residuals


def kernel_theta_gram(kernel: PoissonKernel) -> np.ndarray:
    """Theta_T Theta_T^* of the kernel's tuple on the kernel's ambient, the
    Fock space or N_J, truncated at the kernel's degree."""
    op = characteristic_coefficients(kernel.rc, kernel.fock.max_degree)
    return theta_gram(op, fock=kernel.fock if kernel.cs is None else None, cs=kernel.cs)


@dataclass
class FactorizationReport:
    residual: float
    budget: float


def verify_truncated_factorization(
    kernel: PoissonKernel,
    op: MultiAnalyticOperator | None = None,
    gram: np.ndarray | None = None,
) -> FactorizationReport:
    """Check I - Theta Theta^* = K K^* on the kernel's ambient, where the
    identity telescopes exactly, with ``op`` Theta's coefficients (default:
    the tuple's, at the kernel's truncation). The residual is the Frobenius
    norm, which bounds the spectral norm from above, over the whole ambient
    (N_J is graded). On the Fock space it is summed block by block
    (``_fock_residual``) and no Gram is formed; on N_J it reads ``gram`` =
    Theta Theta^* there (default ``theta_gram(op, cs=kernel.cs)``), which
    the scenario shares with the model space. The budget is
    ``_factorization_budget``, or the purity tail ||Phi^(N+1)(I)|| + 1e-10 if
    that is smaller."""
    kernel.require_unit_radius("the truncated factorization")
    if gram is not None and kernel.cs is None:
        raise InvalidParameterError("on the Fock space the factorization reads Theta's coefficients, not a Gram")
    if op is None and gram is None:
        op = characteristic_coefficients(kernel.rc, kernel.fock.max_degree)
    if kernel.cs is None:
        residual = _fock_residual(kernel, op)
    else:
        diff = (theta_gram(op, cs=kernel.cs) if gram is None else gram) + kernel.matrix @ kernel.matrix.conj().T
        diff[np.diag_indices_from(diff)] -= 1.0
        residual = float(np.linalg.norm(diff))
    tail = spectral_norm(kernel.rc.orbit(kernel.fock.max_degree + 1)) + 1e-10
    budget = min(_factorization_budget(kernel), tail)
    return FactorizationReport(residual, budget)


def _fock_residual(kernel: PoissonKernel, op: MultiAnalyticOperator) -> float:
    """||Theta Theta^* + K K^* - I||_F on the Fock space from its degree
    blocks G_ab = P_ab + K_a K_b^* - delta_ab I, with P_ab from
    ``_gram_blocks`` and K_a the kernel's degree-a rows: G is Hermitian, so
    the squared norm is sum_a ||G_aa||^2 + 2 sum_{a > b} ||G_ab||^2. The
    walk still needs P_ab while a < N, so K_a K_b^* goes into a copy there;
    the last block of each band takes it in place, one of n row groups at a
    time, so nothing of the whole ambient's size is formed."""
    top, tgt = kernel.fock.max_degree, kernel.defect_dim
    off = [o * tgt for o in kernel.fock.slice_offsets]
    rows = [kernel.matrix[off[m] : off[m + 1]] for m in range(top + 1)]
    adjoints = [row.conj().T for row in rows]
    squares = 0.0
    for a, b, block in _gram_blocks(op, kernel.fock):
        if a < top:
            diff = rows[a] @ adjoints[b]
            diff += block
        else:
            diff, step = block, max(len(block) // kernel.fock.n, 1)
            for lo in range(0, len(block), step):
                diff[lo : lo + step] += rows[a][lo : lo + step] @ adjoints[b]
        if a == b:
            diff[np.diag_indices_from(diff)] -= 1.0
        squares += (1.0 if a == b else 2.0) * np.vdot(diff, diff).real
    return float(np.sqrt(squares))


def _factorization_budget(kernel: PoissonKernel) -> float:
    """Rounding budget of ||Theta Theta^* + K K^* - I||_F at the kernel's
    truncation.

    For the computed tuple and defect roots the identity telescopes to zero,
    pure tuple or not, so what is left is rounding and what the defect rank
    cutoffs discard:
    - an entry of Theta Theta^* + K K^* sums at most
      L = (N + 1)(source + n dim) + dim(Fock) products of entries bounded by
      one (blocks of the contractions Theta and K, basis entries of N_J), and
      each factor is a word product of at most N + 1 matrices, so the entry
      is off by at most 4 (N + 2) L eps, 4 for complex arithmetic, and the
      Frobenius norm by the row count times that;
    - the root of a defect eigenvalue lambda moves by eps / (2 sqrt(lambda))
      when lambda moves by eps, and Theta pairs the row root with the column
      root, so that rounding is scaled by 1 + 1 / sqrt(lambda_min), with
      lambda_min the smallest eigenvalue either rank cutoff keeps;
    - a column-defect direction the cutoff drops leaves Theta's source, which
      leaves the positive matrix Theta (I - P) Theta^* in the residual; its
      trace, which bounds its Frobenius norm, is at most dim(ambient) times
      the dropped trace of D_*^2.
    """
    rc, fock = kernel.rc, kernel.fock
    pairs = ((rc.delta, rc.defect_basis), (rc.delta_star, rc.defect_star_basis))
    root_min = min((float(np.linalg.eigvalsh(herm_part(e.conj().T @ root @ e))[0]) for root, e in pairs if e.size),
                   default=1.0)
    e_s = rc.defect_star_basis
    dropped = float(np.linalg.norm(rc.delta_star - e_s @ (e_s.conj().T @ rc.delta_star))) ** 2
    terms = (fock.max_degree + 1) * (e_s.shape[1] + rc.n * rc.dim) + fock.dim
    rounding = 4 * (fock.max_degree + 2) * terms * kernel.matrix.shape[0] * EPS
    return rounding * (1.0 + 1.0 / max(root_min, EPS)) + kernel.ambient_dim * dropped


def unitary_invariance_check(rc: RowContraction, u: np.ndarray, max_degree: int = 6) -> float:
    """Residual of coefficient intertwining under conjugation of the tuple.

    Conjugating every matrix by a unitary conjugates the defect data; the
    induced unitaries between defect spaces must intertwine the coefficient
    families exactly."""
    u = np.asarray(u, dtype=complex)
    d = rc.dim
    if spectral_norm(u.conj().T @ u - np.eye(d)) > 1e-12:
        raise PreconditionError("conjugator is not unitary to 1e-12")
    primed = validate([u @ t @ u.conj().T for t in rc.matrices])
    op = characteristic_coefficients(rc, max_degree)
    op_p = characteristic_coefficients(primed, max_degree)
    tau = primed.defect_basis.conj().T @ u @ rc.defect_basis
    tau_star = primed.defect_star_basis.conj().T @ np.kron(np.eye(rc.n), u) @ rc.defect_star_basis
    diff = tau @ op.coefficients - op_p.coefficients @ tau_star
    return max(spectral_norm(block) for block in diff)
