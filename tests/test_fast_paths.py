"""Each graded fast path pinned to the dense path it replaced, exactly.

The fast paths (child-index maps for the shifts, slice-built ideal matrices,
block-restricted constrained assembly) rearrange the same floating-point
operations, so every comparison here is ``np.array_equal``, not a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fockbench.ideals as ideals_mod
import fockbench.words as words_mod
from fockbench import (
    IDENTITY_WORD,
    NcPolynomial,
    TruncatedFock,
    Word,
    assemble,
    build_constrained_subspace,
    characteristic_coefficients,
    commutator_generators,
    constrained_shifts,
    creation_matrix,
    q_commutator_generators,
    validate,
    word_length_generators,
)
from fockbench.ideals import _ideal_columns, _ideal_slice


def dense_creation(fock, side, i):
    """The word-by-word creation matrix, as built before the child map."""
    g = Word((i,))
    mat = np.zeros((fock.dim, fock.dim), dtype=complex)
    for col, w in enumerate(fock.words):
        if len(w) >= fock.max_degree:
            continue
        mat[fock.index[g * w if side == "left" else w * g], col] = 1.0
    return mat


def dense_assemble(op, cs, multiplicity=1, radial=1.0):
    """Constrained assembly as the full kron-sum over every word."""
    eye_m = np.eye(multiplicity, dtype=complex)
    _, w_ops = constrained_shifts(cs)
    src, tgt = op.source_dim * multiplicity, op.target_dim * multiplicity
    out = np.zeros((cs.dim * tgt, cs.dim * src), dtype=complex)
    prods = {IDENTITY_WORD: np.eye(cs.dim, dtype=complex)}
    for w in cs.fock.words[1:]:
        prods[w] = prods[Word(w.letters[:-1])] @ w_ops[w.letters[-1] - 1]
    for beta, theta in op.coefficients.items():
        if len(beta) > cs.fock.max_degree:
            continue
        block = (radial ** len(beta)) * (np.kron(theta, eye_m) if multiplicity > 1 else theta)
        out += np.kron(prods[beta], block)
    return out


@st.composite
def ideals(draw, homogeneous_only=False):
    """(n, N, generators) over commutative, q-commutative with a random q,
    truncated(m) and one non-homogeneous custom ideal."""
    n = draw(st.integers(1, 3))
    top = draw(st.integers(1, 5))
    kinds = ["commutative", "q-commutative", "truncated"] + ([] if homogeneous_only else ["custom"])
    kind = draw(st.sampled_from(kinds))
    if kind == "commutative":
        gens = commutator_generators(n)
    elif kind == "q-commutative":
        re = draw(st.floats(-1.5, 1.5))
        im = draw(st.floats(-1.5, 1.5))
        gens = q_commutator_generators(np.full((n, n), complex(re, im)))
    elif kind == "truncated":
        gens = word_length_generators(n, draw(st.integers(1, top)))
    else:
        k = min(2, top)
        gens = [NcPolynomial({Word((1,) * k): 1.0, Word((n,) * (k - 1)): -0.5})]
    return n, max([top] + [g.degree for g in gens]), gens


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 5), st.sampled_from(["left", "right"]), st.data())
def test_child_map_matches_dense_creation(n, top, side, data):
    fock = TruncatedFock(n, top)
    i = data.draw(st.integers(1, n))
    src, dst = fock.child_map(side, i)
    assert np.array_equal(creation_matrix(fock, side, i), dense_creation(fock, side, i))
    for s, d in zip(src, dst):
        w = fock.words[s]
        assert fock.words[d] == (Word((i,)) * w if side == "left" else w * Word((i,)))


@settings(max_examples=25, deadline=None)
@given(ideals())
def test_constrained_shifts_match_dense_compression(case):
    n, top, gens = case
    cs = build_constrained_subspace(TruncatedFock(n, top), gens)
    left, right = constrained_shifts(cs)
    q = cs.basis
    for i in range(1, n + 1):
        assert np.array_equal(left[i - 1], q.conj().T @ dense_creation(cs.fock, "left", i) @ q)
        assert np.array_equal(right[i - 1], q.conj().T @ dense_creation(cs.fock, "right", i) @ q)


@settings(max_examples=25, deadline=None)
@given(ideals(homogeneous_only=True))
def test_ideal_slices_match_ideal_columns(case):
    n, top, gens = case
    fock = TruncatedFock(n, top)
    columns = _ideal_columns(fock, gens)
    for m in range(top + 1):
        sl = fock.slice_range(m)
        ref = [vec[sl] for deg, vec in columns if deg == m]
        ref = np.stack(ref, axis=1) if ref else np.zeros((n**m, 0), dtype=complex)
        assert np.array_equal(_ideal_slice(fock, gens, m), ref)


@settings(max_examples=25, deadline=None)
@given(ideals(), st.integers(1, 2), st.sampled_from([1.0, 0.7]), st.integers(0, 2**31 - 1))
def test_constrained_assembly_matches_kron_sum(case, multiplicity, radial, seed):
    n, top, gens = case
    cs = build_constrained_subspace(TruncatedFock(n, top), gens)
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(n)]
    scale = 0.9 / np.linalg.norm(np.hstack(mats), 2)
    op = characteristic_coefficients(validate([scale * t for t in mats]), top)
    fast = assemble(op, cs=cs, multiplicity=multiplicity, radial=radial)
    assert np.array_equal(fast, dense_assemble(op, cs, multiplicity, radial))


def test_graded_paths_skip_dense_builders(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense builder called on a graded fast path")

    monkeypatch.setattr(ideals_mod, "_ideal_columns", forbidden)
    monkeypatch.setattr(words_mod, "creation_matrix", forbidden)
    for n, gens in ((3, commutator_generators(3)), (2, q_commutator_generators(np.full((2, 2), 0.5))),
                    (2, word_length_generators(2, 3))):
        constrained_shifts(build_constrained_subspace(TruncatedFock(n, 4), gens))
    with pytest.raises(AssertionError):
        build_constrained_subspace(TruncatedFock(2, 3), [NcPolynomial({Word((1, 2)): 1.0, Word((1,)): 1.0})])
