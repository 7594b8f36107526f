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
form of I - Theta Theta^* = K K^*. The degree-k slice of the stored array
is the block from degree m to m + k of the Fock space, I_{n^m} (x) Theta_k
(``degree_slices``). On the Fock space Theta and Theta Theta^* are never
formed; I - Theta Theta^* is read from the slices as an action or one
degree block at a time:
- ``_fock_probe`` applies it to a block of vectors, one product per degree
  pair on a reshape: the Euler ranks of ``invariants`` and the model basis
  read it on the seeded Gaussian probe (``_gaussian_probe``);
- ``_gram_blocks`` walks the blocks of Theta Theta^*, block (a, b) being
  Theta_a Theta_b^* + I_n (x) block (a-1, b-1): the truncated factorization
  and the model's complement check sum residual norms over them.
On N_J with generators ``assemble`` compresses each Fock block to the slice
bases, and Theta Theta^* is the assembled Theta times its adjoint, which a
scenario forms once for the factorization and the model. A dedicated
convention test pins point evaluation against partial sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._linalg import RankDecision, range_basis, spectral_norm
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


def assemble(op: MultiAnalyticOperator, cs: ConstrainedSubspace) -> np.ndarray:
    """Truncated matrix of the multi-analytic operator on (N_J tensor source).

    Coefficient beta lands at block rows mu*reverse(beta) for every word mu it
    fits against. So with Theta_k the degree-k coefficients stacked in the
    order of the reversed words, the Fock block from degree m to degree m + k
    is I_{n^m} (x) Theta_k, and N_J compresses it to its stored slice bases
    ``cs.slices``, (Q_{m+k}^* (x) I)(I_{n^m} (x) Theta_k)(Q_m (x) I), as two
    products; N_J is graded and co-invariant, so this equals the assembly
    against products of the compressed right shifts.
    """
    if op.max_degree < cs.fock.max_degree:
        raise InvalidParameterError("coefficients do not cover the ambient truncation degree")
    n, top, src, tgt = cs.fock.n, cs.fock.max_degree, op.source_dim, op.target_dim
    off = np.cumsum([0, *cs.slice_dims])
    out = np.zeros((cs.dim * tgt, cs.dim * src), dtype=complex)
    out4 = out.reshape(cs.dim, tgt, cs.dim, src)
    for k, theta_k in enumerate(degree_slices(op, cs.fock)):
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


# The probe of I - Theta Theta^* is the randomized range finder of Halko,
# Martinsson and Tropp (SIAM Review 53, 2011): one complex Gaussian block of
# width dim H + EULER_PROBE_OVERSAMPLE, drawn once per reading from this
# constant seed, so every report is reproducible bit for bit. The Euler ranks
# and the model basis read it.
EULER_PROBE_SEED = 20110502
EULER_PROBE_OVERSAMPLE = 4


def _gaussian_probe(rank_bound: int, cols: int) -> np.ndarray:
    """The transposed probe of a matrix of rank <= ``rank_bound``: a
    (rank_bound + EULER_PROBE_OVERSAMPLE, cols) block of standard complex
    Gaussians from EULER_PROBE_SEED, splitmix64 of a counter giving the
    uniforms and Box-Muller the normals. It stays off ``numpy.random``, whose
    import alone adds 6.6 MB of resident memory (numpy 2.4, Linux x86-64)."""
    rows = rank_bound + EULER_PROBE_OVERSAMPLE
    count = rows * cols
    z = np.uint64(EULER_PROBE_SEED) + np.arange(1, 2 * count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    u = ((z ^ (z >> np.uint64(31))) >> np.uint64(11)).astype(float) * 2.0**-53 + 2.0**-54
    radius, angle = np.sqrt(-2.0 * np.log(u[:count])), 2.0 * np.pi * u[count:]
    return (radius * (np.cos(angle) + 1j * np.sin(angle))).reshape(rows, cols)


def _fock_probe(thetas: list[np.ndarray], n: int, omega: np.ndarray, m: int) -> np.ndarray:
    """((I - Theta_S Theta_S^*) Omega)^T on the Fock degrees <= m, with
    ``omega`` the probe transposed, (width, rows); its leading columns, the
    degrees <= m, are read, one contiguous block Omega_a per degree.
    Theta_S's block from degree c to c + k is I_{n^c} (x) Theta_k, so with
    the width axis first each block acts as one product on a reshape:
    Z_c = sum_k (I (x) Theta_k)^* Omega_{c+k}, then
    Y_a = Omega_a - sum_c (I (x) Theta_{a-c}) Z_c."""
    w, tgt, off = omega.shape[0], thetas[0].shape[0], np.cumsum([0, *(t.shape[0] for t in thetas[: m + 1])])
    omega = [np.ascontiguousarray(omega[:, off[a] : off[a + 1]]) for a in range(m + 1)]
    z = [sum(omega[c + k].reshape(w * n**c, n**k * tgt) @ thetas[k].conj() for k in range(m - c + 1))
         for c in range(m + 1)]
    return np.concatenate(
        [omega[a] - sum((z[c] @ thetas[a - c].T).reshape(w, n**a * tgt) for c in range(a + 1))
         for a in range(m + 1)], axis=1)


def _gram_blocks(op: MultiAnalyticOperator, fock: TruncatedFock):
    """The blocks P_ab of Theta Theta^* on (Fock tensor target), b <= a, as
    (a, b, P_ab).

    Theta's block from degree c to degree c + k is I_{n^c} (x) Theta_k, so
    P_ab = sum_{c <= b} I_{n^c} (x) (Theta_{a-c} Theta_{b-c}^*), that is
    P_ab = Theta_a Theta_b^* + I_n (x) P_{a-1,b-1}: one product of two
    coefficient slices, and the previous block of the band k = a - b added
    onto its n diagonal sub-blocks. The walk goes band by band, b rising, and
    keeps only that previous block. Each block is a fresh array, which the
    caller may change in place once the band is done with it, at a = N.
    """
    n, top, tgt = fock.n, fock.max_degree, op.target_dim
    thetas = degree_slices(op, fock)
    adjoints = [theta.conj().T for theta in thetas]
    for k in range(top + 1):
        for b in range(top - k + 1):
            a = b + k
            block = thetas[a] @ adjoints[b]
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


@dataclass
class FactorizationReport:
    residual: float
    budget: float


def _theta_reader(kernel: PoissonKernel, op: MultiAnalyticOperator | None,
                  gram: np.ndarray | None) -> tuple[MultiAnalyticOperator | None, np.ndarray | None]:
    """How a check reads Theta on the kernel's ambient: as (op, None) on the
    Fock space and on N_J without generators, whose basis is the identity,
    with ``op`` defaulting to the tuple's coefficients and a Gram refused; as
    (None, gram) on N_J with generators, with ``gram`` = Theta Theta^*
    defaulting to the assembled Theta times its adjoint."""
    if op is None and gram is None:
        op = characteristic_coefficients(kernel.rc, kernel.fock.max_degree)
    if kernel.cs is None or not kernel.cs.generators:
        if gram is not None:
            raise InvalidParameterError("on the Fock space Theta is read from its coefficients, not a Gram")
        if op.max_degree < kernel.fock.max_degree:
            raise InvalidParameterError("coefficients do not cover the ambient truncation degree")
        return op, None
    if gram is None:
        theta = assemble(op, kernel.cs)
        gram = theta @ theta.conj().T
    return None, gram


def verify_truncated_factorization(
    kernel: PoissonKernel,
    op: MultiAnalyticOperator | None = None,
    gram: np.ndarray | None = None,
) -> FactorizationReport:
    """Check I - Theta Theta^* = K K^* on the kernel's ambient, where the
    identity telescopes exactly, reading Theta as ``_theta_reader`` says. The
    residual is the Frobenius norm over the whole ambient (N_J is graded),
    which bounds the spectral norm from above (``_residual``). The budget is
    ``_factorization_budget``, or the purity tail ||Phi^(N+1)(I)|| + 1e-10
    if that is smaller."""
    kernel.require_unit_radius("the truncated factorization")
    residual = _residual(kernel.fock, *_theta_reader(kernel, op, gram), kernel.matrix, kernel.matrix)
    tail = spectral_norm(kernel.rc.orbit(kernel.fock.max_degree + 1)) + 1e-10
    budget = min(_factorization_budget(kernel), tail)
    return FactorizationReport(residual, budget)


def _residual(fock: TruncatedFock, op: MultiAnalyticOperator | None, gram: np.ndarray | None,
              left: np.ndarray, right: np.ndarray) -> float:
    """||Theta Theta^* + L R^* - I||_F over the ambient for thin L = ``left``
    and R = ``right``, Theta read as ``_theta_reader`` returns it. On N_J it
    is dense in ``gram``. On the Fock space no Gram is formed: with P_ab from
    ``_gram_blocks`` and L_a, R_a the degree-a rows, block (a, b), b <= a, is
    P_ab + L_a R_b^* - delta_ab I, and block (b, a) the adjoint of
    P_ab + R_a L_b^* (the same for L = R, counted twice). Each is summed
    into the product while the walk still needs P_ab (a < N), and in place,
    one of n row groups at a time, on the last block of each band."""
    if gram is not None:
        diff = gram + left @ right.conj().T
        diff[np.diag_indices_from(diff)] -= 1.0
        return float(np.linalg.norm(diff))
    top = fock.max_degree
    off = [o * op.target_dim for o in fock.slice_offsets]
    rows = [[x[off[a] : off[a + 1]] for a in range(top + 1)] for x in (left, right)]
    adjoints = [[x.conj().T for x in blocks] for blocks in rows]
    squares = 0.0
    for a, b, block in _gram_blocks(op, fock):
        pairs = [(rows[0][a], adjoints[1][b])]
        if a > b and left is not right:
            pairs.append((rows[1][a], adjoints[0][b]))
        weight = 2.0 if a > b and left is right else 1.0
        step = max(len(block) // fock.n if a == top else len(block), 1)
        for lo in range(0, len(block), step):
            group = block[lo : lo + step]
            for i, (lhs, rhs) in enumerate(pairs):
                diff = lhs[lo : lo + step] @ rhs
                diff = np.add(group, diff, out=group if a == top and i == len(pairs) - 1 else diff)
                if a == b:
                    diff[np.arange(len(diff)), lo + np.arange(len(diff))] -= 1.0
                squares += weight * np.vdot(diff, diff).real
                del diff  # before the next product or block is formed
    return float(np.sqrt(squares))


def _defect_range(kernel: PoissonKernel, op: MultiAnalyticOperator | None,
                  gram: np.ndarray | None) -> tuple[np.ndarray, RankDecision, float]:
    """The range B of M = I - Theta Theta^* on the kernel's ambient, its rank
    decision, and ||M (I - B B^*)||_F, reading Theta as ``_theta_reader`` says.

    M = K K^* has rank at most dim H, so B is the range of M Omega, Omega the
    seeded Gaussian block of width dim H + EULER_PROBE_OVERSAMPLE: its thin
    SVD cut at the span floor. On the Fock space M acts by ``_fock_probe``
    at m = N, on N_J as I - gram; with D = M B the residual is ``_residual``
    of D and B. (||M||_F^2 - ||M B||_F^2 would lose half the digits.)"""
    op, gram = _theta_reader(kernel, op, gram)
    fock = kernel.fock
    omega = _gaussian_probe(kernel.rc.dim, kernel.matrix.shape[0])
    if gram is None:
        thetas = degree_slices(op, fock)
        basis, decision = range_basis(_fock_probe(thetas, fock.n, omega, fock.max_degree).T)
        moved = _fock_probe(thetas, fock.n, basis.T, fock.max_degree).T
    else:
        basis, decision = range_basis(omega.T - gram @ omega.T)
        moved = basis - gram @ basis
    return basis, decision, _residual(fock, op, gram, moved, basis)


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
      lambda_min the smallest eigenvalue either rank decision keeps;
    - a column-defect direction the cutoff drops leaves Theta's source, which
      leaves the positive matrix Theta (I - P) Theta^* in the residual; its
      trace, which bounds its Frobenius norm, is at most dim(ambient) times
      the dropped trace of D_*^2.
    """
    rc, fock = kernel.rc, kernel.fock
    decisions = (rc.defect_decision, rc.defect_star_decision)
    root_min = min((d.nonzero_min**0.5 for d in decisions if d.nonzero_min is not None), default=1.0)
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
