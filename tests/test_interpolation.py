import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockbench import (
    NcPolynomial,
    PickProblem,
    TruncatedFock,
    build_constrained_subspace,
    commutator_generators,
    pick_feasible,
    pick_matrix,
    q_commutator_generators,
    variety_membership,
)
from fockbench.errors import DegenerateInputError, OutOfBallError
from fockbench.serialize import ideal_from_spec, point_from_json
from fockbench.words import Word, word_products
from words_reference import fock_row_basis, shift_tuple, vacuum_vector


def kernel_vectors(cs, points):
    """Truncated kernel vectors of the points in N_J coordinates, one column
    per point: entry alpha of the vector of p is conj(p)^alpha, one word walk
    over the conjugate coordinates of all the points."""
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    walk = word_products(np.ones(len(pts)), [np.diag(np.conj(pts[:, i])) for i in range(cs.fock.n)], cs.fock.max_degree)
    return fock_row_basis(cs).conj().T @ walk


def schwarz_problem(t):
    """Two scalar nodes 0 and 1/2 with targets 0 and t."""
    return PickProblem(n=1, points=np.array([[0.0], [0.5]]), targets=[np.array([[0.0]]), np.array([[t]])])


class TestVarietyMembership:
    def test_commutators_vanish_at_every_scalar_point(self):
        gens = commutator_generators(3)
        # every residual is exactly zero: the point passes at tolerance 0
        assert variety_membership([0.1, 0.2j, -0.3], gens, 3, tol=0.0)

    def test_coordinate_generator_cuts_a_hyperplane(self):
        gen = [NcPolynomial({Word((1,)): 1.0})]
        assert variety_membership([0.0, 0.4], gen, 2)
        assert not variety_membership([0.2, 0.4], gen, 2)

    def test_q_commutator_zero_set(self):
        q = 0.5
        gens = q_commutator_generators(np.array([[1.0, q], [0.0, 1.0]]))
        # lambda_2 lambda_1 (1 - q) = 0 characterizes membership
        assert variety_membership([0.0, 0.3], gens, 2)
        assert variety_membership([0.3, 0.0], gens, 2)
        assert not variety_membership([0.3, 0.3], gens, 2)

    def test_rejects_boundary_points(self):
        with pytest.raises(OutOfBallError):
            variety_membership([1.0, 0.0], [], 2)

    def test_high_degree_generators_scale_with_their_terms(self):
        # truncated(24) as the pick task tests it without N: the powers g_i^24.
        # The variety is the origin; 0.1^24 = 1e-24 lies below the absolute
        # 1e-10, not below 1e-10 times the size 0.1^24 of the term.
        gens = [NcPolynomial.monomial([i] * 24) for i in (1, 2)]
        assert not variety_membership([0.1, 0.0], gens, 2)
        assert not variety_membership([0.3, 0.0], gens, 2)
        assert variety_membership([0.0, 0.0], gens, 2)

    def test_golden_and_q_commutative_points_keep_their_verdicts(self):
        """The verdicts of the absolute rule, max |p(z)| <= 1e-10, on the
        golden scenario's pick points and on q-commutative zero sets."""
        def absolute_rule(z, gens):
            return all(abs(p.evaluate_scalar(z)) <= 1e-10 for p in gens)

        golden = json.loads((Path(__file__).parent / "data" / "golden_scenario.json").read_text())
        gens = ideal_from_spec(2, golden["ideal"])
        (pick,) = [t for t in golden["tasks"] if t["task"] == "pick"]
        cases = [(point_from_json(z, 2), gens) for z in pick["points"]]
        for q in (0.5, 0.48 + 0.36j, -1.0):
            q_gens = q_commutator_generators(np.array([[1.0, q], [0.0, 1.0]]))
            cases += [(z, q_gens) for z in ([0.0, 0.3], [0.3, 0.0], [0.3, 0.3], [0.0, 0.0], [1e-6, 0.5j])]
        assert all(absolute_rule(*case) for case in cases[:2])
        for z, gens in cases:
            assert variety_membership(z, gens, 2) == absolute_rule(z, gens)


class TestKernelVector:
    """The kernel vector of a variety point is a joint eigenvector of the
    adjoint constrained shifts, B_i^* k = conj(z_i) k, up to the |z|^(N+1)
    mass the truncation cuts off."""

    @staticmethod
    def eigen_residual(cs, z, k):
        shifts = shift_tuple(cs, "left")
        return max(np.linalg.norm(b.conj().T @ k - np.conj(zi) * k) for b, zi in zip(shifts, z)) / np.linalg.norm(k)

    def test_origin_gives_vacuum(self):
        cs = build_constrained_subspace(TruncatedFock(2, 4), commutator_generators(2))
        k = kernel_vectors(cs, [0.0, 0.0])[:, 0]
        assert np.allclose(k, vacuum_vector(cs))
        assert self.eigen_residual(cs, [0.0, 0.0], k) < 1e-14

    def test_scalar_geometric_vector(self):
        cs = build_constrained_subspace(TruncatedFock(1, 10), [])
        lam = 0.5
        k = kernel_vectors(cs, [lam])[:, 0]
        assert np.allclose(k, np.conj(lam) ** np.arange(11))
        # the residual sits at the |lambda|^(N+1) tail scale
        assert 0.5 * lam**11 < self.eigen_residual(cs, [lam], k) < 2 * lam**11

    def test_commutative_point_within_tail(self):
        cs = build_constrained_subspace(TruncatedFock(2, 8), commutator_generators(2))
        z = [0.3, 0.4]
        k = kernel_vectors(cs, z)[:, 0]
        assert self.eigen_residual(cs, z, k) <= 2 * np.linalg.norm(z) ** 9


class TestPickMatrix:
    def test_single_node_scalar(self):
        prob = PickProblem(n=1, points=np.array([[0.0]]), targets=[np.array([[0.3]])])
        m = pick_matrix(prob)
        assert m.shape == (1, 1)
        assert abs(m[0, 0] - (1 - 0.09)) < 1e-15

    def test_schwarz_determinant(self):
        for t in (0.2, 0.5, 0.7):
            m = pick_matrix(schwarz_problem(t))
            det = np.linalg.det(m).real
            expected = (1 - t * t) / 0.75 - 1.0
            assert abs(det - expected) < 1e-13

    def test_hermitian_bitwise(self):
        rng = np.random.default_rng(30)
        pts = 0.4 * (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
        targets = [0.5 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) for _ in range(3)]
        m = pick_matrix(PickProblem(n=2, points=pts, targets=targets))
        assert np.array_equal(m, m.conj().T)

    def test_mirror_is_the_entrywise_loop_with_signed_zeros(self):
        # the index copy of the lower triangle and the real diagonal repeat the
        # per-entry loop they replaced bit for bit, signs of zero included
        rng = np.random.default_rng(32)
        pts = 0.25 * (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        pts[1] = [0.3, 0.0]
        targets = [0.5 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) for _ in range(4)]
        targets[2] = np.diag([0.25, -0.5])
        prob = PickProblem(n=2, points=pts, targets=targets)
        m = pick_matrix(prob)
        ref = m.copy()
        ref[np.tril_indices(8, -1)] = 7.0  # overwritten by the loop below
        for p in range(8):
            for q in range(p):
                ref[p, q] = np.conj(ref[q, p])
            ref[p, p] = ref[p, p].real
        assert np.array_equal(m.view(float), ref.view(float))
        assert np.array_equal(np.signbit(m.view(float)), np.signbit(ref.view(float)))
        # the verdict is read from this matrix: the reported spectrum ends are
        # its extreme eigenvalues, to within the rounding of two eigensolvers
        vals = np.linalg.eigvalsh(m)
        res = pick_feasible(prob)
        scale = 64 * np.finfo(float).eps * max(1.0, vals[-1])
        assert abs(res.lambda_min - vals[0]) <= scale and abs(res.lambda_max - vals[-1]) <= scale

    def test_zero_targets_give_kernel_gram(self):
        rng = np.random.default_rng(31)
        pts = 0.3 * rng.standard_normal((3, 2))
        prob = PickProblem(n=2, points=pts, targets=[np.zeros((1, 1))] * 3)
        m = pick_matrix(prob)
        # Cholesky succeeds after an eps shift: Gram matrices are PSD
        np.linalg.cholesky(m + 1e-12 * np.eye(3))
        # and the matrix agrees with the Gram matrix of the truncated kernel vectors
        vecs = kernel_vectors(build_constrained_subspace(TruncatedFock(2, 8), commutator_generators(2)), pts)
        gram = vecs.T @ vecs.conj()
        tail = max(np.linalg.norm(p) for p in pts) ** 8
        assert np.linalg.norm(m - gram, 2) < 3 * tail + 1e-9

    def test_coincident_points_rejected(self):
        with pytest.raises(DegenerateInputError):
            PickProblem(n=1, points=np.array([[0.2], [0.2]]), targets=[np.eye(1), np.eye(1)])


class TestFeasibility:
    def test_schwarz_boundary_is_marginal(self):
        res = pick_feasible(schwarz_problem(0.5))
        assert res.feasible
        assert res.marginal
        assert abs(res.lambda_min) < 1e-12

    def test_schwarz_flips_across_boundary(self):
        delta = 1e-8
        below = pick_feasible(schwarz_problem(0.5 - delta))
        above = pick_feasible(schwarz_problem(0.5 + delta))
        assert below.feasible
        assert not above.feasible
        assert above.certificate is not None

    def test_clearly_infeasible_has_certificate(self):
        res = pick_feasible(schwarz_problem(0.6))
        assert not res.feasible
        m = pick_matrix(schwarz_problem(0.6))
        v = res.certificate
        rayleigh = float(np.real(v.conj() @ m @ v))
        assert rayleigh < 0

    def test_constant_contractive_targets_always_feasible(self):
        rng = np.random.default_rng(32)
        pts = 0.5 * (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True) / 0.6
        a = 0.5 * np.eye(2)
        prob = PickProblem(n=2, points=pts, targets=[a] * 4)
        assert pick_feasible(prob).feasible

    def test_feasibility_invariant_under_joint_unitary_conjugation(self):
        rng = np.random.default_rng(33)
        pts = 0.4 * (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
        targets = [0.6 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) for _ in range(3)]
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        base = pick_feasible(PickProblem(n=2, points=pts, targets=targets))
        conj = pick_feasible(
            PickProblem(n=2, points=pts, targets=[q @ a @ q.conj().T for a in targets])
        )
        assert base.feasible == conj.feasible
        assert abs(base.lambda_min - conj.lambda_min) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.95))
def test_scalar_two_point_feasibility_matches_determinant(t):
    res = pick_feasible(schwarz_problem(t))
    det = (1 - t * t) / 0.75 - 1.0
    if abs(det) > 1e-9:
        assert res.feasible == (det >= 0)
