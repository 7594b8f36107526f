import itertools
import math

import numpy as np
import pytest

from fockbench import (
    SymmetricTruncation,
    TruncatedFock,
    arveson_curvature,
    curvature_phi,
    curvature_theta,
    euler_phi,
    validate,
)
from fockbench.errors import InvalidParameterError, PreconditionError


def brute_force_trace_sequence(mats, m_max):
    """Oracle: trace[I - sum_{|alpha|=m} T_alpha T_alpha^*] by word enumeration."""
    n = len(mats)
    dim = mats[0].shape[0]
    out = []
    for m in range(1, m_max + 1):
        total = np.zeros((dim, dim), dtype=complex)
        for word in itertools.product(range(n), repeat=m):
            prod = np.eye(dim, dtype=complex)
            for letter in word:
                prod = prod @ mats[letter]
            total += prod @ prod.conj().T
        out.append(float(np.trace(np.eye(dim) - total).real))
    return out


def nilpotent_commuting_pair():
    a = np.array([[0, 1 / np.sqrt(2)], [0, 0]], dtype=complex)
    b = np.array([[0, 1j / np.sqrt(2)], [0, 0]], dtype=complex)
    return validate([a, b])


def coisometric_pair():
    return validate([np.array([[1 / np.sqrt(2)]]), np.array([[1 / np.sqrt(2)]])])


class TestCurvaturePhi:
    def test_coisometric_sequence_is_zero(self):
        rep = curvature_phi(coisometric_pair(), 6)
        assert all(abs(x) < 1e-14 for x in rep.sequence)

    def test_zero_scalar_anchor_value(self):
        rep = curvature_phi(validate([np.zeros((1, 1))]), 6)
        # geometric denominator at m is m for one generator: the sequence is 1/m,
        # with the anchor value exactly 1 at m = 1
        assert rep.sequence[0] == 1.0
        for m, value in zip(rep.m_values, rep.sequence):
            assert abs(value - 1.0 / m) < 1e-15

    def test_nilpotent_pair_matches_word_sum_oracle(self):
        rc = nilpotent_commuting_pair()
        rep = curvature_phi(rc, 6)
        oracle = brute_force_trace_sequence(list(rc.matrices), 6)
        for m, value in zip(rep.m_values, rep.sequence):
            denom = 2**m - 1
            assert abs(value - oracle[m - 1] / denom) < 1e-13
        # frozen golden values: trace gap is 1 at m=1 and 2 afterwards
        expected = [1.0, 2.0 / 3.0, 2.0 / 7.0, 2.0 / 15.0, 2.0 / 31.0, 2.0 / 63.0]
        assert np.allclose(rep.sequence, expected)

    def test_monotone_trace_gap(self):
        rng = np.random.default_rng(23)
        mats = [rng.standard_normal((3, 3)) for _ in range(2)]
        norm = np.linalg.norm(np.concatenate(mats, axis=1), 2)
        rc = validate([m / (norm * 1.05) for m in mats])
        rep = curvature_phi(rc, 8)
        traces = rep.extras["traces"]
        gaps = [traces[0] - traces[m] for m in range(1, 9)]
        assert all(g2 >= g1 - 1e-12 for g1, g2 in zip(gaps, gaps[1:]))

    def test_rejects_bad_m_max(self):
        with pytest.raises(InvalidParameterError):
            curvature_phi(coisometric_pair(), 0)


class TestEulerPhi:
    def test_coisometric_is_zero(self):
        rep = euler_phi(coisometric_pair(), 5)
        assert all(x == 0.0 for x in rep.sequence)
        assert rep.extras["ranks"] == [0] * 5  # rank floor absorbs eps noise

    def test_zero_scalar(self):
        rep = euler_phi(validate([np.zeros((1, 1))]), 5)
        assert rep.extras["ranks"] == [1] * 5
        assert rep.sequence[0] == 1.0

    def test_nilpotent_pair_ranks_stabilize_at_dimension(self):
        rep = euler_phi(nilpotent_commuting_pair(), 5)
        assert rep.extras["ranks"] == [1, 2, 2, 2, 2]
        assert rep.sequence == [1 / 1, 2 / 3, 2 / 7, 2 / 15, 2 / 31]


class TestCurvatureTheta:
    def test_cross_method_identity_random_tuples(self):
        rng = np.random.default_rng(24)
        for n, dim in ((1, 2), (2, 2), (2, 3), (3, 2)):
            mats = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) for _ in range(n)]
            norm = np.linalg.norm(np.concatenate(mats, axis=1), 2)
            rc = validate([m / (norm * 1.02) for m in mats])
            rep = curvature_theta(rc, TruncatedFock(n, 5), 4)
            assert max(rep.extras["cross_check_vs_phi"]) < 1e-8

    def test_coisometric_anchor(self):
        rep = curvature_theta(coisometric_pair(), TruncatedFock(2, 4), 3)
        assert all(x == 0.0 for x in rep.sequence)

    def test_theta_euler_ranks_shift_against_phi_ranks(self):
        # rank[(I - Theta Theta^*)(P_{<=m} tensor I)] telescopes to
        # rank[I - Phi^(m+1)(I)]: the two routes agree up to that index shift.
        rc = nilpotent_commuting_pair()
        rep_t = curvature_theta(rc, TruncatedFock(2, 5), 4)
        rep_p = euler_phi(rc, 5)
        assert rep_t.extras["euler_ranks"] == rep_p.extras["ranks"][1:5]

    def test_truncation_window_enforced(self):
        with pytest.raises(InvalidParameterError):
            curvature_theta(coisometric_pair(), TruncatedFock(2, 3), 3)


def test_curvature_routes_share_one_orbit(monkeypatch):
    # phi needs Phi^m(I) up to m_max + 1 and the theta budget Phi^(m_max + 2)(I):
    # read from one orbit, that is m_max + 2 CP steps in total.
    import fockbench.contractions as contractions

    steps = []
    original = contractions.cp_apply

    def counting(rc, x, k=1):
        steps.append(k)
        return original(rc, x, k)

    monkeypatch.setattr(contractions, "cp_apply", counting)
    m_max = 6
    rc = nilpotent_commuting_pair()
    curvature_phi(rc, m_max)
    euler_phi(rc, m_max)
    curvature_theta(rc, TruncatedFock(2, m_max + 1), m_max)
    assert 0 < sum(steps) <= m_max + 2


class TestSymmetricTruncation:
    def test_dimensions_match_binomials(self):
        sym = SymmetricTruncation(3, 5)
        for m in range(6):
            assert sym.slice_dims[m] == math.comb(3 + m - 1, m)

    def test_creation_operators_commute_and_contract(self):
        sym = SymmetricTruncation(2, 4)
        b1, b2 = sym.creation(1), sym.creation(2)
        assert np.linalg.norm(b1 @ b2 - b2 @ b1, 2) < 1e-14
        gram = b1 @ b1.conj().T + b2 @ b2.conj().T
        assert np.linalg.eigvalsh(gram).max() <= 1 + 1e-12


class TestArveson:
    def test_requires_seed_and_commutativity(self):
        rc = nilpotent_commuting_pair()
        with pytest.raises(InvalidParameterError):
            arveson_curvature(rc, seed=None)
        a = np.array([[0, 0.5], [0, 0]])
        b = np.array([[0.5, 0], [0, -0.5]])
        with pytest.raises(PreconditionError):
            arveson_curvature(validate([a, b]), seed=1)

    @pytest.mark.parametrize("sizes", [
        {"mc_samples": 0}, {"mc_samples": 1}, {"m_max": 0}, {"r_values": ()},
    ])
    def test_rejects_bad_sizes(self, sizes):
        with pytest.raises(InvalidParameterError):
            arveson_curvature(nilpotent_commuting_pair(), seed=1, **{"m_max": 2, "mc_samples": 100, **sizes})

    def test_coisometric_estimates_vanish(self):
        rep = arveson_curvature(coisometric_pair(), m_max=4, mc_samples=2000, seed=3)
        assert all(abs(est) < 1e-12 for est, _ in rep.boundary.values())
        assert all(abs(x) < 1e-12 for x in rep.qm_sequence)

    def test_scalar_zero_normalized_anchor_and_trajectory(self):
        rc = validate([np.zeros((1, 1))])
        rep = arveson_curvature(rc, m_max=4, mc_samples=5000, seed=11)
        # integrand is exactly (1 - r^2): the Szego-normalized anchor is 1
        assert abs(rep.normalized_anchor - 1.0) < 1e-12
        for r, (est, _) in rep.boundary.items():
            assert abs(est - (1.0 - r * r)) < 1e-12

    def test_seeded_reproducibility(self):
        rc = validate([np.diag([0.4, 0.1]), np.diag([0.1, 0.3])])
        rep1 = arveson_curvature(rc, m_max=4, mc_samples=4000, seed=7)
        rep2 = arveson_curvature(rc, m_max=4, mc_samples=4000, seed=7)
        assert rep1.boundary == rep2.boundary
        assert rep1.qm_sequence == rep2.qm_sequence

    def test_nilpotent_pair_methods_agree(self):
        rep = arveson_curvature(nilpotent_commuting_pair(), m_max=6, mc_samples=20000, seed=5)
        assert rep.deviations["boundary_vs_qm"] < 2e-2

    def test_symmetric_theta_matches_full_compression(self):
        # two-path check of the symmetric-space assembly at a small degree
        from fockbench import assemble, build_constrained_subspace, commutator_generators
        from fockbench import constrained_characteristic
        from fockbench.invariants import _symmetric_char_matrix

        rc = validate([np.diag([0.3, -0.2]), np.diag([0.15, 0.25])])
        top = 3
        sym = SymmetricTruncation(2, top)
        theta_sym = _symmetric_char_matrix(rc, sym)
        f = TruncatedFock(2, top)
        cs = build_constrained_subspace(f, commutator_generators(2))
        theta_cs = assemble(constrained_characteristic(rc, cs, top), cs=cs)
        # both are the compression of the same operator; compare singular values
        sv1 = np.linalg.svd(theta_sym, compute_uv=False)
        sv2 = np.linalg.svd(theta_cs, compute_uv=False)
        assert np.allclose(sorted(sv1), sorted(sv2), atol=1e-10)
