"""Noncommutative polynomials, constrained subspaces, and constrained shifts.

The ideal generated by a polynomial family is represented at truncation level
by the span of all vectors obtained from a generator by creating letters on
the left and right; the constrained subspace is its orthogonal complement.
Every generator must be homogeneous (all its terms of one length), so the
ideal and its complement are graded and the truncated picture is exact degree
by degree; a non-homogeneous generator is rejected with InvalidParameterError.
N_J is stored as its slice bases Q_m and each constrained shift as its blocks
Q_{m+1}^* S_i Q_m, so no array has a row per Fock basis word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from ._linalg import RankDecision, complement_basis, joint_decision, spectral_norm
from .errors import InvalidParameterError
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
    """The truncated constrained subspace N_J, stored as its degree slices:
    ``slices[m]`` is Q_m, an orthonormal basis of N_m in the coordinates of
    the degree-m Fock slice (n^m x dim N_m), and the coordinates of N_J list
    the slice bases in degree order. ``slice_decisions`` holds, per slice,
    its dimension with the joint gap of the rank decisions that fixed it (the
    largest value any counted as zero, the smallest any counted as nonzero).
    """

    fock: TruncatedFock
    generators: list[NcPolynomial]
    slices: list[np.ndarray]
    slice_decisions: list[RankDecision]

    @property
    def slice_dims(self) -> list[int]:
        return [q.shape[1] for q in self.slices]

    @property
    def dim(self) -> int:
        return sum(self.slice_dims)

    @property
    def basis_degrees(self) -> np.ndarray:
        """The degree of each coordinate of N_J."""
        return np.repeat(np.arange(len(self.slices)), self.slice_dims)

    def contains_vacuum(self) -> bool:
        """Whether 1 lies in N_J: N_0 is C or 0, since N_J is graded."""
        return self.slice_dims[0] == 1


def _generator_matrix(fock: TruncatedFock, generators: Sequence[NcPolynomial], d: int) -> np.ndarray:
    """Coefficient vectors of the degree-d generators, one column each, in
    the coordinates of slice d."""
    gens = [p for p in generators if p.degree == d]
    mat = np.zeros((fock.n**d, len(gens)), dtype=complex)
    for col, p in enumerate(gens):
        for w, c in p.terms.items():
            mat[fock.word_index(w) - fock.slice_offsets[d], col] += c
    return mat


def _next_slice(fock: TruncatedFock, gens: Sequence[NcPolynomial], prev: np.ndarray | None, m: int):
    """Orthonormal basis of N_m from the basis ``prev`` of N_{m-1}, with its
    dimension and the joint gap of the rank decisions that fixed it.

    The degree-m ideal slice is J_{m-1} (x) C^n + C^n (x) J_{m-1} + span of the
    degree-m generators, so N_m = (N_{m-1} (x) C^n) cap (C^n (x) N_{m-1}) cap G_m^perp.
    With C1 = prev (x) I and C2 = I (x) prev (both orthonormal), the
    intersection is C1 times the null space of (I - C2 C2^*) C1, a thin
    problem of width n dim N_{m-1}; the generators then act only inside that
    candidate space. N_0 starts from the candidate space C^1."""
    decisions = []
    if m == 0:
        cand = np.ones((1, 1), dtype=complex)
    else:
        eye_n = np.eye(fock.n, dtype=complex)
        c1, c2 = np.kron(prev, eye_n), np.kron(eye_n, prev)
        null, decision = complement_basis((c1 - c2 @ (c2.conj().T @ c1)).conj().T)
        cand = c1 @ null
        decisions.append(decision)
    keep, decision = complement_basis(cand.conj().T @ _generator_matrix(fock, gens, m))
    decisions.append(decision)
    basis = np.linalg.qr(cand @ keep)[0]
    return basis, joint_decision(basis.shape[1], decisions)


def build_constrained_subspace(fock: TruncatedFock, generators: Sequence[NcPolynomial]) -> ConstrainedSubspace:
    """Constrained subspace N_J at truncation level, built slice by slice.

    N_m comes from N_{m-1} by the thin intersection of ``_next_slice`` and is
    stored as its basis Q_m; no translate of a generator is formed, and the
    slice dimensions are stable under increasing the truncation. Without
    generators every Q_m is the identity. A generator above the truncation
    degree, with a letter beyond n, or whose terms have different lengths
    raises InvalidParameterError.
    """
    gens = [g for g in generators if g.terms]
    for g in gens:
        if g.degree > fock.max_degree:
            raise InvalidParameterError("generator degree exceeds the truncation degree")
        if any(x > fock.n for w in g.terms for x in w.letters):
            raise InvalidParameterError(f"generator {g} uses a letter beyond n = {fock.n}")
        if not g.is_homogeneous:
            raise InvalidParameterError(f"generator {g} is not homogeneous: its terms have different lengths")

    slices: list[np.ndarray] = []
    decisions: list[RankDecision] = []
    for m in range(fock.max_degree + 1):
        block, decision = (_next_slice(fock, gens, slices[-1] if slices else None, m) if gens
                           else (np.eye(fock.n**m, dtype=complex), RankDecision(fock.n**m, None, None)))
        slices.append(block)
        decisions.append(decision)
    return ConstrainedSubspace(fock=fock, generators=gens, slices=slices, slice_decisions=decisions)


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
    for m, q in enumerate(cs.slices):
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


def constrained_shifts(cs: ConstrainedSubspace, side: Literal["left", "right"]) -> list[list[np.ndarray]]:
    """Compressions B_i = P_{N_J} S_i|_{N_J} of the left or right creation
    tuple as their blocks: per generator, X_{m,i} = Q_{m+1}^* S_i Q_m for
    m < N (B_i maps N_m into N_{m+1}), read as Q_{m+1}[g_i-children]^* Q_m."""
    fock = cs.fock
    return [[cs.slices[m + 1][fock.child_rows(side, i, m)].conj().T @ cs.slices[m] for m in range(fock.max_degree)]
            for i in range(1, fock.n + 1)]


def shift_matrices(cs: ConstrainedSubspace, shifts: list[list[np.ndarray]]) -> list[np.ndarray]:
    """The dense matrices B_i of the blocks from ``constrained_shifts``:
    block (m + 1, m) of B_i is X_{m,i}, and every other block is zero."""
    off = np.cumsum([0, *cs.slice_dims])
    out = []
    for blocks in shifts:
        b = np.zeros((cs.dim, cs.dim), dtype=complex)
        for m, x in enumerate(blocks):
            b[off[m + 1] : off[m + 2], off[m] : off[m + 1]] = x
        out.append(b)
    return out
