"""Each graded fast path pinned to the dense path it replaced.

The child-index maps for the shifts, the slice-built ideal matrices and the
block-restricted constrained assembly rearrange the same floating-point
operations, so those comparisons are ``np.array_equal``, not a tolerance.
The slice recursion for the constrained subspace computes a different
orthonormal basis of the same space, so it is pinned basis-free, to 1e-12:
equal slice dimensions, principal angles, and shifts unitarily similar to
those of the dense complement of each ideal slice.
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
from fockbench._linalg import complement_basis, principal_angles
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


def assert_recursion_matches_dense_complement(fock, gens):
    """The recursion's N_m against the complement of the dense ideal slice."""
    cs = build_constrained_subspace(fock, gens)
    ref = np.zeros((fock.dim, 0), dtype=complex)
    for m in range(fock.max_degree + 1):
        comp = complement_basis(_ideal_slice(fock, gens, m), fock.n**m)
        assert cs.slice_dims[m] == comp.shape[1]
        new = cs.basis[fock.slice_range(m), cs.basis_degrees == m]
        assert np.all(principal_angles(new, comp) <= 1e-12)
        block = np.zeros((fock.dim, comp.shape[1]), dtype=complex)
        block[fock.slice_range(m)] = comp
        ref = np.concatenate([ref, block], axis=1)
    u = ref.conj().T @ cs.basis
    assert np.linalg.norm(u.conj().T @ u - np.eye(cs.dim), 2) <= 1e-12
    for side, shifts in zip(("left", "right"), constrained_shifts(cs)):
        for i, fast in enumerate(shifts, start=1):
            dense = ref.conj().T @ dense_creation(fock, side, i) @ ref
            assert np.linalg.norm(fast - u.conj().T @ dense @ u, 2) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(ideals(homogeneous_only=True))
def test_slice_recursion_matches_dense_complement(case):
    n, top, gens = case
    assert_recursion_matches_dense_complement(TruncatedFock(n, top), gens)


@pytest.mark.parametrize("n,top,gens", [
    (2, 4, [NcPolynomial({IDENTITY_WORD: 1.0})]),
    (2, 4, [NcPolynomial({Word((1,)): 1.0, Word((2,)): -0.5j})]),
    (3, 3, [NcPolynomial.monomial([2])]),
    (2, 5, [*commutator_generators(2), NcPolynomial({Word((1, 1, 2)): 1.0, Word((2, 2, 2)): 0.3})]),
    (3, 4, [*q_commutator_generators(np.full((3, 3), 0.5 - 0.2j)), NcPolynomial.monomial([1, 2, 3])]),
    (2, 5, word_length_generators(2, 3)),
    (3, 3, word_length_generators(3, 1)),
], ids=["constant", "degree1_mix", "degree1_monomial", "degrees2and3", "q_degrees2and3",
        "word_length3", "word_length1"])
def test_slice_recursion_edge_cases(n, top, gens):
    assert_recursion_matches_dense_complement(TruncatedFock(n, top), gens)


def test_constant_generator_gives_the_zero_subspace():
    cs = build_constrained_subspace(TruncatedFock(2, 3), [NcPolynomial({IDENTITY_WORD: 2.0})])
    assert cs.dim == 0 and cs.slice_dims == [0, 0, 0, 0]
    assert not cs.contains_vacuum()


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
