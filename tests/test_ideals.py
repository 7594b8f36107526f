import itertools
import math
import time

import numpy as np
import pytest

from fockbench import (
    NcPolynomial,
    TruncatedFock,
    Word,
    build_constrained_subspace,
    commutator_generators,
    constrained_shifts,
    evaluate_polynomial,
    q_commutator_generators,
    word_length_generators,
)
from fockbench.errors import InvalidParameterError, PreconditionError
from words_reference import child_map, shift_tuple, vacuum_vector


def multiset_slice_dimension(n: int, m: int) -> int:
    """Independent oracle: count distinct letter multisets of length-m words."""
    return len({tuple(sorted(w)) for w in itertools.product(range(1, n + 1), repeat=m)})


def q_commuting_pair(q: complex):
    # T2 T1 = q T1 T2 with T1 nilpotent and T2 diagonal, scaled to a row contraction.
    t1 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    t2 = np.array([[q, 0.0], [0.0, 1.0]], dtype=complex)
    scale = 1.0 / np.sqrt(1.0 + abs(q) ** 2)
    return [scale * t1, scale * t2]


class TestEvaluatePolynomial:
    def test_commutator_vanishes_on_commuting_diagonals(self):
        p = NcPolynomial({Word((1, 2)): 1.0, Word((2, 1)): -1.0})
        d1 = np.diag([0.1, 0.4])
        d2 = np.diag([0.3, -0.2])
        assert np.array_equal(evaluate_polynomial(p, [d1, d2]), np.zeros((2, 2)))

    def test_identity_word_gives_identity(self):
        p = NcPolynomial({Word(()): 1.0})
        tup = [np.random.default_rng(0).standard_normal((3, 3)) for _ in range(2)]
        assert np.array_equal(evaluate_polynomial(p, tup), np.eye(3))

    def test_q_commutation_pair_satisfies_its_relation(self):
        q = 0.5 + 0.25j
        pair = q_commuting_pair(q)
        p = NcPolynomial({Word((2, 1)): 1.0, Word((1, 2)): -q})
        assert np.linalg.norm(evaluate_polynomial(p, pair)) < 1e-15

    def test_rejects_mismatched_sizes(self):
        p = NcPolynomial({Word((1,)): 1.0})
        with pytest.raises(InvalidParameterError):
            evaluate_polynomial(p, [np.zeros((2, 2)), np.zeros((3, 3))])


class TestBuildConstrainedSubspace:
    def test_free_ideal_gives_full_space(self):
        f = TruncatedFock(2, 3)
        cs = build_constrained_subspace(f, [])
        assert cs.dim == 15
        assert all(np.array_equal(q, np.eye(2**m)) for m, q in enumerate(cs.slices))
        # the compressions are the creation matrices e_src -> e_dst themselves
        for side in ("left", "right"):
            for i, b in enumerate(shift_tuple(cs, side), start=1):
                src, dst = child_map(f, side, i)
                s = np.zeros((f.dim, f.dim), dtype=complex)
                s[dst, src] = 1.0
                assert np.array_equal(b, s)

    @pytest.mark.parametrize("n,top", [(2, 3), (2, 6), (3, 4)])
    def test_commutative_slice_dimensions_match_multiset_oracle(self, n, top):
        f = TruncatedFock(n, top)
        cs = build_constrained_subspace(f, commutator_generators(n))
        for m in range(top + 1):
            assert cs.slice_dims[m] == multiset_slice_dimension(n, m)
            assert cs.slice_dims[m] == math.comb(n + m - 1, m)

    @pytest.mark.parametrize("n,top", [(2, 12), (3, 8)])
    def test_symmetric_tensor_oracle_at_scale(self, n, top):
        # N_m is exactly the symmetric tensors: dimension C(m+n-1, n-1), and
        # every basis vector is fixed by each swap of adjacent tensor factors.
        f = TruncatedFock(n, top)
        start = time.perf_counter()
        cs = build_constrained_subspace(f, commutator_generators(n))
        assert time.perf_counter() - start < 1.0
        for m in range(top + 1):
            assert cs.slice_dims[m] == math.comb(m + n - 1, n - 1)
            q = cs.slices[m].reshape((n,) * m + (-1,))
            for k in range(m - 1):
                assert np.abs(np.swapaxes(q, k, k + 1) - q).max() < 1e-12

    def test_word_length_ideal_keeps_low_degrees(self):
        f = TruncatedFock(2, 3)
        cs = build_constrained_subspace(f, word_length_generators(2, 2))
        assert cs.dim == 3
        assert cs.slice_dims == [1, 2, 0, 0]

    def test_graded_stability_across_truncations(self):
        gens = commutator_generators(2)
        dims5 = build_constrained_subspace(TruncatedFock(2, 5), gens).slice_dims
        dims3 = build_constrained_subspace(TruncatedFock(2, 3), gens).slice_dims
        assert dims5[:4] == dims3

    def test_projection_is_orthogonal_projection(self):
        # N_J is graded, so its projection is the sum of the slice projections
        f = TruncatedFock(2, 4)
        cs = build_constrained_subspace(f, q_commutator_generators(np.array([[1, 0.3], [0, 1]])))
        for q in cs.slices:
            p = q @ q.conj().T
            assert np.linalg.norm(p @ p - p, 2) < 1e-12
            assert np.linalg.norm(p - p.conj().T, 2) < 1e-12
            assert np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1]), 2) < 1e-12

    def test_vacuum_membership_for_constant_killing_generators(self):
        f = TruncatedFock(2, 3)
        for gens in (commutator_generators(2), word_length_generators(2, 2)):
            cs = build_constrained_subspace(f, gens)
            assert cs.contains_vacuum()

    def test_non_homogeneous_generator_is_rejected(self):
        # z_1^2 = z_2 / 4 holds at the scalar pair (0.4, 0.64), but its terms
        # have lengths 2 and 1
        p = NcPolynomial({Word((1, 1)): 1.0, Word((2,)): -0.25})
        with pytest.raises(InvalidParameterError, match="not homogeneous"):
            build_constrained_subspace(TruncatedFock(2, 3), [p])

    def test_vacuum_compression_requires_vacuum(self):
        # a nonzero constant is homogeneous of degree 0 and kills the vacuum
        f = TruncatedFock(2, 3)
        cs = build_constrained_subspace(f, [NcPolynomial({Word(()): 0.5})])
        with pytest.raises(PreconditionError):
            vacuum_vector(cs)

    def test_generator_degree_beyond_truncation_rejected(self):
        f = TruncatedFock(2, 1)
        with pytest.raises(InvalidParameterError):
            build_constrained_subspace(f, commutator_generators(2))

    @pytest.mark.parametrize("gen", [
        NcPolynomial.monomial([1, 3]),
        NcPolynomial({Word((3,)): 1.0, Word(()): 1.0}),
    ], ids=["homogeneous", "non_homogeneous"])
    def test_generator_letter_beyond_n_rejected(self, gen):
        with pytest.raises(InvalidParameterError):
            build_constrained_subspace(TruncatedFock(2, 3), [gen])


class TestConstrainedShifts:
    def test_defect_is_vacuum_projection_for_standard_ideals(self):
        f = TruncatedFock(2, 4)
        ideals = [
            commutator_generators(2),
            q_commutator_generators(np.array([[1, 0.5 + 0.1j], [0, 1]])),
            word_length_generators(2, 2),
        ]
        for gens in ideals:
            cs = build_constrained_subspace(f, gens)
            left = shift_tuple(cs, "left")
            defect = np.eye(cs.dim) - sum(b @ b.conj().T for b in left)
            v0 = vacuum_vector(cs)
            window = cs.basis_degrees <= f.max_degree - 1
            diff = (defect - np.outer(v0, v0.conj()))[np.ix_(window, window)]
            assert np.linalg.norm(diff, 2) < 1e-10

    def test_generators_annihilate_low_degree_vectors(self):
        f = TruncatedFock(2, 4)
        gens = commutator_generators(2)
        cs = build_constrained_subspace(f, gens)
        left = shift_tuple(cs, "left")
        window = cs.basis_degrees <= f.max_degree - max(g.degree for g in gens)
        for p in gens:
            image = evaluate_polynomial(p, left)[:, window]
            assert np.linalg.norm(image, 2) < 1e-10

    @pytest.mark.parametrize("n,top,gens", [
        (2, 9, commutator_generators(2)),
        (2, 5, q_commutator_generators(np.array([[1, 0.48 + 0.36j], [0, 1]]))),
    ], ids=["commutative", "q_commutative"])
    def test_no_array_has_a_row_per_fock_word(self, n, top, gens):
        """N_J is held as its slices and the shifts as their blocks: beside the
        ambient ``fock``, no array held by the subspace and none of the shift
        blocks has fock.dim rows."""
        f = TruncatedFock(n, top)
        cs = build_constrained_subspace(f, gens)
        held = [a for name, value in vars(cs).items() if name != "fock"
                for a in (value if isinstance(value, list) else [value]) if isinstance(a, np.ndarray)]
        blocks = [x for side in ("left", "right") for per_i in constrained_shifts(cs, side) for x in per_i]
        assert len(held) == top + 1 and len(blocks) == 2 * n * top
        assert all(a.shape[0] != f.dim for a in held + blocks)
        assert max(a.shape[0] for a in held + blocks) == n**top

    def test_commutation_of_shifts_on_safe_degrees(self):
        f = TruncatedFock(2, 3)
        cs = build_constrained_subspace(f, commutator_generators(2))
        left = shift_tuple(cs, "left")
        window = cs.basis_degrees <= 1
        comm = (left[0] @ left[1] - left[1] @ left[0])[:, window]
        assert np.linalg.norm(comm, 2) < 1e-12
