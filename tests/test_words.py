import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockbench import (
    TruncatedFock,
    Word,
    build_constrained_subspace,
    constrained_shifts,
    word_operator,
)
from fockbench.ideals import shift_matrices
from fockbench.words import word_products
from fockbench.errors import InvalidParameterError
from words_reference import enumerate_words


def creation_tuples(f):
    """Left and right creation tuples as matrices: the compressions to the
    free ideal's N_J, whose slice bases are identities, equal bit for bit."""
    cs = build_constrained_subspace(f, [])
    return tuple(shift_matrices(cs, constrained_shifts(cs, side)) for side in ("left", "right"))


def children(f, side, i):
    """(src, dst): every word below the top degree and its g_i-child, as
    Fock indices, from the per-degree rule ``child_rows``."""
    src = [f.slice_offsets[m] + np.arange(f.n**m) for m in range(f.max_degree)]
    dst = [f.slice_offsets[m + 1] + np.arange(f.n ** (m + 1))[f.child_rows(side, i, m)] for m in range(f.max_degree)]
    return np.concatenate(src, dtype=int), np.concatenate(dst, dtype=int)


def reversal(f):
    """Basis index of reverse(alpha) for each basis word alpha."""
    return np.array([f.word_index(w.reverse()) for w in enumerate_words(f.n, f.max_degree)])


def test_enumerate_words_small_cases():
    words = enumerate_words(2, 1)
    assert words == [Word(()), Word((1,)), Word((2,))]
    assert len(enumerate_words(2, 3)) == 15
    assert len(enumerate_words(3, 2)) == 13


def test_enumerate_words_order_is_length_lex():
    words = enumerate_words(2, 3)
    keys = [(len(w), w.letters) for w in words]
    assert keys == sorted(keys)
    assert words[0] == Word(())


@pytest.mark.parametrize("n,bad_len", [(0, 2), (2, -1)])
def test_enumerate_words_rejects_bad_parameters(n, bad_len):
    with pytest.raises(InvalidParameterError):
        enumerate_words(n, bad_len)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4))
def test_word_index_is_the_enumeration_position(n, top):
    f = TruncatedFock(n, top)
    words = enumerate_words(n, top)
    assert [f.word_index(w) for w in words] == list(range(f.dim))
    assert np.array_equal(f.degrees, [len(w) for w in words])
    assert f.word_index(Word((1,) * (top + 1))) is None
    assert f.word_index(Word((n + 1,))) is None


def test_word_products_blocks_are_reversed_word_products():
    rng = np.random.default_rng(3)
    ops = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2)]
    start = rng.standard_normal((2, 3))
    stack = word_products(start, ops, 3)
    assert stack.shape == (15, 2, 3)
    for idx, w in enumerate(enumerate_words(2, 3)):
        assert np.allclose(stack[idx], start @ word_operator(ops, w.reverse()), atol=1e-13)


def test_truncated_fock_dimensions():
    assert TruncatedFock(1, 4).dim == 5
    assert TruncatedFock(2, 3).dim == 15
    assert TruncatedFock(3, 3).dim == (3**4 - 1) // 2
    f = TruncatedFock(2, 3)
    for m in range(4):
        sl = f.slice_range(m)
        assert sl.stop - sl.start == 2**m


def test_single_generator_left_creation_is_jordan_shift():
    f = TruncatedFock(1, 2)
    s = creation_tuples(f)[0][0]
    expected = np.zeros((3, 3), dtype=complex)
    expected[1, 0] = expected[2, 1] = 1.0
    assert np.array_equal(s, expected)


def test_creation_isometry_relations_on_low_degrees():
    f = TruncatedFock(2, 3)
    s, _ = creation_tuples(f)
    low = f.degrees <= 2
    assert np.linalg.norm((s[0].conj().T @ s[1])) == 0.0
    for i in range(2):
        gram = s[i].conj().T @ s[i]
        assert np.allclose(gram[np.ix_(low, low)], np.eye(low.sum()))


def test_left_and_right_creation_on_named_vectors():
    f = TruncatedFock(2, 2)
    (s1, _), (r1, _) = creation_tuples(f)
    e = np.eye(f.dim)
    e_g2 = e[f.word_index(Word((2,)))]
    assert np.array_equal(s1 @ e_g2, e[f.word_index(Word((1, 2)))])
    assert np.array_equal(r1 @ e_g2, e[f.word_index(Word((2, 1)))])


def test_creation_defect_is_vacuum_projection():
    f = TruncatedFock(2, 3)
    s, _ = creation_tuples(f)
    total = sum(m @ m.conj().T for m in s)
    expected = np.eye(f.dim, dtype=complex)
    expected[0, 0] = 0.0
    assert np.array_equal(total, expected)


def test_child_map_rejects_bad_generator():
    f = TruncatedFock(2, 2)
    for side, i, m in (("left", 3, 0), ("up", 1, 0), ("right", 1, 2), ("left", 1, -1)):
        with pytest.raises(InvalidParameterError):
            f.child_rows(side, i, m)


def test_flip_unitary_involution_and_fixed_short_words():
    # The flip e_alpha -> e_reverse(alpha) as an index permutation.
    f = TruncatedFock(2, 2)
    rev = reversal(f)
    assert np.array_equal(rev[rev], np.arange(f.dim))
    for word, image in [((), ()), ((1,), (1,)), ((1, 2), (2, 1))]:
        assert rev[f.word_index(Word(word))] == f.word_index(Word(image))


def test_flip_conjugation_swaps_creation_sides():
    # Exact on the whole truncation: both sides annihilate the top slice.
    f = TruncatedFock(2, 3)
    rev = reversal(f)
    for i in range(1, 3):
        left_src, left_dst = children(f, "left", i)
        right_src, right_dst = children(f, "right", i)
        assert np.array_equal(np.sort(rev[left_src]), right_src)
        right_child = dict(zip(right_src, right_dst))
        assert all(right_child[rev[a]] == rev[b] for a, b in zip(left_src, left_dst))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), max_size=6))
def test_word_reverse_is_an_involution(letters):
    w = Word(tuple(letters))
    assert w.reverse().reverse() == w
    assert len(w.reverse()) == len(w)


def test_word_concatenation_matches_operator_products():
    f = TruncatedFock(2, 3)
    s, _ = creation_tuples(f)
    w = Word((1, 2, 1))
    prod = s[0] @ s[1] @ s[0]
    assert np.array_equal(word_operator(s, w), prod)
    e = np.eye(f.dim)
    assert np.array_equal(prod @ e[0], e[f.word_index(w)])
