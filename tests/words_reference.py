"""Oracles for the tests, kept from the dense paths the library replaced.

``enumerate_words`` is the length-lexicographic list of words that the
library's index arithmetic (``TruncatedFock.word_index``) encodes; the
per-word references iterate it. ``fock_row_basis``, ``child_map`` and
``dense_constrained_shifts`` are the former Fock-row representation of N_J:
the slice bases scattered into one fock.dim x dim N_J matrix Q, the creation
operators as index arrays over the whole Fock space, and the compressions
Q^* S_i Q gathered through them. ``shift_tuple`` is not an oracle: it is
the library's shift blocks placed into dense matrices, for the tests that
multiply the shifts as operators. ``vacuum_vector`` and ``coefficient`` read
one vector of N_J and one coefficient of Theta by name, for the tests that
check a single entry. ``numerical_rank``, ``matrix_rank``, ``defect_rank``,
``cuntz_rank`` and ``wold_null_dim`` are the four rank rules that
``_linalg.rank_decision`` replaced, one per site: spans, the defects, and
the purity limit Q in the dilation and in the Wold decomposition.
``model_split`` reads the former model ``split`` from the Gram's eigenvalues.
``fock_assemble`` and ``fock_theta_gram`` are the dense Fock-space Theta and
Theta Theta^* the library no longer forms: the strided degree-block
assembly, and the whole Gram written from ``charfn._gram_blocks``.
``eigh_model`` is the former model basis: the eigenvectors of the dense
Theta Theta^* with the rank K smallest eigenvalues.
"""

import numpy as np

from fockbench import TruncatedFock, Word, constrained_shifts
from fockbench._linalg import rank_decision, svdvals
from fockbench.charfn import _gram_blocks, degree_slices
from fockbench.ideals import shift_matrices
from fockbench.errors import InvalidParameterError, PreconditionError

IDENTITY_WORD = Word(())


def enumerate_words(n: int, max_len: int) -> list[Word]:
    """All words of length <= max_len in length-lexicographic order.

    Index 0 is the identity word; the degree-k slice holds exactly n**k words.
    """
    if n < 1:
        raise InvalidParameterError(f"need n >= 1 generators, got {n}")
    if max_len < 0:
        raise InvalidParameterError(f"need max_len >= 0, got {max_len}")
    words: list[Word] = [IDENTITY_WORD]
    level: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        level = [w + (i,) for w in level for i in range(1, n + 1)]
        words.extend(Word(w) for w in level)
    return words


def fock_row_basis(cs) -> np.ndarray:
    """The basis of N_J in Fock coordinates: column block m is Q_m on the
    rows of slice m, zero elsewhere."""
    q = np.zeros((cs.fock.dim, cs.dim), dtype=complex)
    off = np.cumsum([0, *cs.slice_dims])
    for m, block in enumerate(cs.slices):
        q[cs.fock.slice_range(m), off[m] : off[m + 1]] = block
    return q


def child_map(fock, side, i):
    """Index arrays (src, dst) with e_src -> e_dst under left (e_a -> e_{g_i a})
    or right (e_a -> e_{a g_i}) creation by g_i; top-degree words have no child."""
    src = np.arange(fock.slice_offsets[fock.max_degree])
    dst = np.empty_like(src)
    for m in range(fock.max_degree):
        j = np.arange(fock.n**m)
        child = (i - 1) * fock.n**m + j if side == "left" else j * fock.n + (i - 1)
        dst[fock.slice_offsets[m] : fock.slice_offsets[m + 1]] = fock.slice_offsets[m + 1] + child
    return src, dst


def dense_constrained_shifts(cs, side):
    """Q^* S_i Q for i = 1..n, with Q^* S_i gathered through ``child_map``."""
    q = fock_row_basis(cs)
    qh = q.conj().T
    out = []
    for i in range(1, cs.fock.n + 1):
        src, dst = child_map(cs.fock, side, i)
        g = np.zeros(qh.shape, dtype=complex)
        g[:, src] = qh[:, dst]
        out.append(g @ q)
    return out


def shift_tuple(cs, side):
    """The dense dim N_J x dim N_J shifts B_i built from the library's blocks."""
    return shift_matrices(cs, constrained_shifts(cs, side))


def vacuum_vector(cs) -> np.ndarray:
    """Coordinates of the vacuum in the basis of N_J; requires 1 in N_J."""
    if not cs.contains_vacuum():
        raise PreconditionError("the vacuum does not lie in the constrained subspace")
    return np.concatenate([cs.slices[0][0].conj(), np.zeros(cs.dim - 1, dtype=complex)])


def coefficient(op, beta: Word) -> np.ndarray:
    """The coefficient of the word beta in a MultiAnalyticOperator, zero
    beyond its degree."""
    idx = TruncatedFock(op.n, op.max_degree).word_index(beta.reverse())
    if idx is None:
        return np.zeros((op.target_dim, op.source_dim), dtype=complex)
    return op.coefficients[idx]


# --- the four rank rules that ``rank_decision`` replaced ---------------------


def numerical_rank(singular_values) -> int:
    """Spans: singular values above max(1e-9 sigma_max, 1e-12)."""
    s = np.asarray(singular_values, dtype=float)
    if s.size == 0 or s.max() <= 0.0:
        return 0
    return int(np.count_nonzero(s > max(1e-9 * s.max(), 1e-12)))


def matrix_rank(a) -> int:
    """``numerical_rank`` of the singular values of a."""
    a = np.asarray(a, dtype=complex)
    return 0 if a.size == 0 else numerical_rank(np.linalg.svd(a, compute_uv=False))


def defect_rank(eigenvalues) -> int:
    """The defects: eigenvalues, clipped at zero, above 1e-9, absolute."""
    return int(np.count_nonzero(np.clip(eigenvalues, 0.0, None) > 1e-9))


def cuntz_rank(q_eigenvalues) -> int:
    """The dilation's Cuntz part: eigenvalues of Q above
    max(1e-11, 1e-9 lambda_max)."""
    v = np.asarray(q_eigenvalues, dtype=float)
    return int(np.count_nonzero(v > max(1e-11, 1e-9 * max(v.max(initial=0.0), 0.0))))


def wold_null_dim(q_eigenvalues) -> int:
    """The Wold null space: eigenvalues of Q at most max(1e-9 lambda_max, 1e-10)."""
    v = np.asarray(q_eigenvalues, dtype=float)
    return int(np.count_nonzero(v <= max(1e-9 * v.max(initial=0.0), 1e-10)))


def model_split(gram, res):
    """(largest eigenvalue of Theta Theta^* counted into the model, smallest
    counted out), None where a side is empty: the eigenvalues of the one
    ``eigh`` the model basis is cut from."""
    vals = np.linalg.eigh(0.5 * (gram + gram.conj().T))[0]
    rank = res.basis.shape[1]
    return (float(vals[rank - 1]) if rank else None, float(vals[rank]) if rank < vals.size else None)


# --- the dense Fock-space Theta, Theta Theta^* and model basis -------------


def fock_assemble(op, fock) -> np.ndarray:
    """Theta on (Fock tensor source): the Fock block from degree m to m + k
    is I_{n^m} (x) Theta_k, written through a strided view."""
    if op.max_degree < fock.max_degree:
        raise InvalidParameterError("coefficients do not cover the ambient truncation degree")
    n, src, tgt = fock.n, op.source_dim, op.target_dim
    out = np.zeros((fock.dim * tgt, fock.dim * src), dtype=complex)
    off = fock.slice_offsets
    for k, theta_k in enumerate(degree_slices(op, fock)):
        for m in range(fock.max_degree - k + 1):
            block = out[off[m + k] * tgt : off[m + k + 1] * tgt, off[m] * src : off[m + 1] * src]
            mu = np.arange(n**m)
            # Every block is written once, onto zeros.
            block.reshape(n**m, n**k * tgt, n**m, src)[mu, :, mu, :] += theta_k
    return out


def fock_theta_gram(op, fock) -> np.ndarray:
    """Theta Theta^* on (Fock tensor target): each block (a, b), b <= a, of
    ``_gram_blocks`` written into its place, its conjugate transpose into
    block (b, a)."""
    off = [o * op.target_dim for o in fock.slice_offsets]
    out = np.empty((off[-1], off[-1]), dtype=complex)
    for a, b, block in _gram_blocks(op, fock):
        out[off[a] : off[a + 1], off[b] : off[b + 1]] = block
        if b < a:
            out[off[b] : off[b + 1], off[a] : off[a + 1]] = block.conj().T
    return out


def eigh_model(kernel, gram):
    """The former model basis and its eigenvalues: one ``eigh`` of the
    Hermitian part of the dense Theta Theta^*, split at the rank of K, the
    rank K eigenvectors with the smallest eigenvalues. Returns (basis,
    eigenvalues, the rank decision on the singular values of K)."""
    vals, vecs = np.linalg.eigh(0.5 * (gram + gram.conj().T))
    decision = rank_decision(svdvals(kernel.matrix))
    return vecs[:, : decision.rank], vals, decision
