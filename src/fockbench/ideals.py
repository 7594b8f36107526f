"""Noncommutative polynomials, constrained subspaces, and constrained shifts.

The ideal generated by a polynomial family is represented at truncation level
by the span of all vectors obtained from a generator by creating letters on
the left and right; the constrained subspace is its orthogonal complement.
Every generator must be homogeneous (all its terms of one length), so the
ideal and its complement are graded and the truncated picture is exact degree
by degree; a non-homogeneous generator is rejected with InvalidParameterError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from ._linalg import numerical_rank, spectral_norm, svd_positive
from .errors import InvalidParameterError, PreconditionError
from .words import TruncatedFock, Word, word_operator


class NcPolynomial:
    """Finitely supported word -> complex coefficient map."""

    def __init__(self, terms: dict[Word, complex] | None = None):
        cleaned: dict[Word, complex] = {}
        for word, coeff in (terms or {}).items():
            c = complex(coeff)
            if c != 0:
                cleaned[word] = c
        self.terms = cleaned

    @classmethod
    def monomial(cls, letters: Sequence[int], coeff: complex = 1.0) -> "NcPolynomial":
        return cls({Word(tuple(letters)): coeff})

    @property
    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(len(w) for w in self.terms)

    @property
    def is_homogeneous(self) -> bool:
        lengths = {len(w) for w in self.terms}
        return len(lengths) <= 1

    def evaluate_scalar(self, point: Sequence[complex]) -> complex:
        """Evaluate at a scalar commuting point (word -> product of coordinates)."""
        z = [complex(v) for v in point]
        total = 0j
        for word, coeff in self.terms.items():
            prod = 1.0 + 0j
            for letter in word.letters:
                prod *= z[letter - 1]
            total += coeff * prod
        return total

    def __repr__(self) -> str:
        if not self.terms:
            return "NcPolynomial(0)"
        parts = [f"({c:g})*{w}" for w, c in sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0].letters))]
        return "NcPolynomial(" + " + ".join(parts) + ")"


def evaluate_polynomial(p: NcPolynomial, ops: Sequence[np.ndarray]) -> np.ndarray:
    """Sum of coefficient-weighted letter-ordered products; the identity word
    evaluates to the identity matrix."""
    ops = [np.asarray(t, dtype=complex) for t in ops]
    if not ops:
        raise InvalidParameterError("need a nonempty operator tuple")
    dim = ops[0].shape[0]
    for t in ops:
        if t.shape != (dim, dim):
            raise InvalidParameterError("operator tuple entries must be square and equal-sized")
    result = np.zeros((dim, dim), dtype=complex)
    for word, coeff in p.terms.items():
        if any(letter > len(ops) for letter in word.letters):
            raise InvalidParameterError(f"word {word} references a generator beyond the tuple")
        result += coeff * word_operator(ops, word)
    return result


def commutator_generators(n: int) -> list[NcPolynomial]:
    """g_i g_j - g_j g_i for i < j; the commutative ideal."""
    gens = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            gens.append(NcPolynomial({Word((i, j)): 1.0, Word((j, i)): -1.0}))
    return gens


def q_commutator_generators(q: np.ndarray) -> list[NcPolynomial]:
    """g_j g_i - q_ij g_i g_j for i < j, with a complex deformation matrix q."""
    q = np.asarray(q, dtype=complex)
    n = q.shape[0]
    if q.shape != (n, n):
        raise InvalidParameterError("q must be a square matrix")
    gens = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            gens.append(NcPolynomial({Word((j, i)): 1.0, Word((i, j)): -q[i - 1, j - 1]}))
    return gens


def word_length_generators(n: int, m: int) -> list[NcPolynomial]:
    """All monomials of length exactly m; kills every degree >= m component."""
    if m < 1:
        raise InvalidParameterError("need m >= 1")
    level: list[tuple[int, ...]] = [()]
    for _ in range(m):
        level = [w + (i,) for w in level for i in range(1, n + 1)]
    return [NcPolynomial({Word(w): 1.0}) for w in level]


@dataclass
class ConstrainedSubspace:
    """Orthonormal basis of the truncated constrained subspace N_J.

    ``basis`` has one column per basis vector (in Fock coordinates); each
    column is supported in a single degree slice, the columns are ordered by
    degree, and slice m holds ``slice_dims[m]`` of them.
    ``slice_rank_gaps`` holds, per slice, the (largest singular value counted
    as zero, smallest counted as nonzero) of the rank decisions that fixed
    that slice's dimension, with None where a side is empty.
    The projection onto N_J is ``basis @ basis^*``; it is never stored.
    """

    fock: TruncatedFock
    generators: list[NcPolynomial]
    basis: np.ndarray
    slice_dims: list[int]
    slice_rank_gaps: list[tuple[float | None, float | None]]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def basis_degrees(self) -> np.ndarray:
        """The degree of each basis column."""
        return np.repeat(np.arange(len(self.slice_dims)), self.slice_dims)

    def contains_vacuum(self) -> bool:
        """Whether |P e_0 - e_0| <= 1e-10, with P e_0 = Q (row 0 of Q)^*."""
        residual = self.basis @ self.basis[0].conj()
        residual[0] -= 1.0
        return spectral_norm(residual) <= 1e-10

    def vacuum_vector(self) -> np.ndarray:
        """Coordinates of the vacuum in the subspace basis; requires 1 in N_J."""
        if not self.contains_vacuum():
            raise PreconditionError("the vacuum does not lie in the constrained subspace")
        return self.basis[0].conj()

    def degree_window_mask(self, max_degree: int) -> np.ndarray:
        return self.basis_degrees <= max_degree


def _generator_matrix(fock: TruncatedFock, generators: Sequence[NcPolynomial], d: int) -> np.ndarray:
    """Coefficient vectors of the degree-d generators, one column each, in
    the coordinates of slice d."""
    gens = [p for p in generators if p.degree == d]
    mat = np.zeros((fock.n**d, len(gens)), dtype=complex)
    for col, p in enumerate(gens):
        for w, c in p.terms.items():
            mat[fock.word_index(w) - fock.slice_offsets[d], col] += c
    return mat


def _complement(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``complement_basis`` of the column span of a, with the singular values
    its rank decision counted as zero and as nonzero."""
    u, s = svd_positive(a)
    rank = numerical_rank(s)
    return u[:, rank:], s[rank:], s[:rank]


def _next_slice(fock: TruncatedFock, gens: Sequence[NcPolynomial], prev: np.ndarray | None, m: int):
    """Orthonormal basis of N_m from the basis ``prev`` of N_{m-1}, with the
    rank gap of the decisions that fixed its dimension.

    The degree-m ideal slice is J_{m-1} (x) C^n + C^n (x) J_{m-1} + span of the
    degree-m generators, so N_m = (N_{m-1} (x) C^n) cap (C^n (x) N_{m-1}) cap G_m^perp.
    With C1 = prev (x) I and C2 = I (x) prev (both orthonormal), the
    intersection is C1 times the null space of (I - C2 C2^*) C1, a thin
    problem of width n dim N_{m-1}; the generators then act only inside that
    candidate space. N_0 starts from the candidate space C^1."""
    if m == 0:
        cand, zero, nonzero = np.ones((1, 1), dtype=complex), np.zeros(0), np.zeros(0)
    else:
        eye_n = np.eye(fock.n, dtype=complex)
        c1, c2 = np.kron(prev, eye_n), np.kron(eye_n, prev)
        null, zero, nonzero = _complement((c1 - c2 @ (c2.conj().T @ c1)).conj().T)
        cand = c1 @ null
    top = _generator_matrix(fock, gens, m)
    keep, zero_g, nonzero_g = _complement(cand.conj().T @ top)
    zero, nonzero = np.concatenate([zero, zero_g]), np.concatenate([nonzero, nonzero_g])
    gap = (float(zero.max()) if zero.size else None, float(nonzero.min()) if nonzero.size else None)
    return np.linalg.qr(cand @ keep)[0], gap


def build_constrained_subspace(fock: TruncatedFock, generators: Sequence[NcPolynomial]) -> ConstrainedSubspace:
    """Constrained subspace N_J at truncation level, built slice by slice.

    N_m comes from N_{m-1} by the thin intersection of ``_next_slice``, so
    every basis vector lives in one degree slice, no translate of a generator
    is formed, and the slice dimensions are stable under increasing the
    truncation. A generator above the truncation degree, with a letter beyond
    n, or whose terms have different lengths raises InvalidParameterError.
    """
    gens = [g for g in generators if g.terms]
    for g in gens:
        if g.degree > fock.max_degree:
            raise InvalidParameterError("generator degree exceeds the truncation degree")
        if any(x > fock.n for w in g.terms for x in w.letters):
            raise InvalidParameterError(f"generator {g} uses a letter beyond n = {fock.n}")
        if not g.is_homogeneous:
            raise InvalidParameterError(f"generator {g} is not homogeneous: its terms have different lengths")

    if not gens:
        return ConstrainedSubspace(
            fock=fock,
            generators=[],
            basis=np.eye(fock.dim, dtype=complex),
            slice_dims=[fock.n**m for m in range(fock.max_degree + 1)],
            slice_rank_gaps=[(None, None)] * (fock.max_degree + 1),
        )

    slices: list[np.ndarray] = []
    gaps: list[tuple[float | None, float | None]] = []
    for m in range(fock.max_degree + 1):
        block, gap = _next_slice(fock, gens, slices[-1] if slices else None, m)
        slices.append(block)
        gaps.append(gap)
    slice_dims = [block.shape[1] for block in slices]
    basis = np.zeros((fock.dim, sum(slice_dims)), dtype=complex)
    for m, (block, col) in enumerate(zip(slices, np.cumsum([0, *slice_dims]))):
        basis[fock.slice_range(m), col : col + block.shape[1]] = block
    return ConstrainedSubspace(fock=fock, generators=gens, basis=basis, slice_dims=slice_dims, slice_rank_gaps=gaps)


def ideal_orthogonality(cs: ConstrainedSubspace) -> float:
    """Largest |A^* Q| between the ideal vectors A and the basis Q, zero in
    exact arithmetic, per degree slice.

    The slice-m ideal vectors are the translates alpha (x) p (x) beta with
    |alpha| = a, deg p = d and |beta| = b, so their inner products with the
    slice basis Q_m, reshaped to (n^a, n^d, n^b, k), contract the generator
    coefficients against its middle axis; no translate is formed."""
    if not cs.generators:
        return 0.0
    fock, n = cs.fock, cs.fock.n
    worst = 0.0
    for m in range(fock.max_degree + 1):
        q = cs.basis[fock.slice_range(m), cs.basis_degrees == m]
        k = q.shape[1]
        if k == 0:
            continue
        rows = []
        for d in sorted({p.degree for p in cs.generators if p.degree <= m}):
            coeffs = _generator_matrix(fock, cs.generators, d).conj()
            for b in range(m - d + 1):
                inner = np.tensordot(coeffs, q.reshape(n ** (m - d - b), n**d, n**b, k), axes=([0], [1]))
                rows.append(inner.reshape(-1, k))
        if rows:
            worst = max(worst, spectral_norm(np.concatenate(rows)))
    return worst


def constrained_shifts(cs: ConstrainedSubspace, side: Literal["left", "right"]) -> list[np.ndarray]:
    """Compressions of the left or right creation tuple to the constrained
    subspace, expressed in its orthonormal basis.

    Q^* S is a gather through the Fock child map: each of its entries is one
    product with 1 plus exact zeros, so the gathered matrix equals the dense
    product bit for bit and no dim x dim creation matrix is built."""
    qh = cs.basis.conj().T
    out = []
    for i in range(1, cs.fock.n + 1):
        src, dst = cs.fock.child_map(side, i)
        g = np.zeros(qh.shape, dtype=complex)
        g[:, src] = qh[:, dst]
        out.append(g @ cs.basis)
    return out

