import numpy as np
import pytest

from fockbench import (
    TruncatedFock,
    Word,
    build_constrained_subspace,
    commutator_generators,
    constrained_poisson_kernel,
    cp_apply,
    intertwining_check,
    poisson_kernel,
    shift_adjoints,
    validate,
    word_operator,
)
from fockbench._linalg import spectral_norm
from fockbench.errors import InvalidParameterError, PreconditionError
from words_reference import shift_tuple


def left_creation(f):
    """The left creation tuple as matrices (compressions to the free ideal's
    N_J, whose basis is the identity)."""
    return shift_tuple(build_constrained_subspace(f, []), "left")


def random_pair(seed, dim=3, slack=1.02):
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) for _ in range(2)]
    norm = np.linalg.norm(np.concatenate(mats, axis=1), 2)
    return validate([m / (norm * slack) for m in mats])


def top_slice_budget(kern):
    """Bound on the unwindowed intertwining residual: the kernel's top-slice
    mass sqrt|Phi^N(I - r^2 Phi(I))|, read from the cached orbit, times
    r^(N+1) and the largest generator norm, plus 1e-12."""
    rc, r, top = kern.rc, kern.r, kern.fock.max_degree
    mass = spectral_norm(rc.orbit(top) - (r * r) * rc.orbit(top + 1))
    t_norm = max(spectral_norm(t) for t in rc.matrices)
    return r ** (top + 1) * float(np.sqrt(max(mass, 0.0))) * t_norm + 1e-12


def gram(kern):
    return kern.matrix.conj().T @ kern.matrix


def nilpotent_commuting_pair():
    a = np.array([[0, 1 / np.sqrt(2)], [0, 0]], dtype=complex)
    b = np.array([[0, 1j / np.sqrt(2)], [0, 0]], dtype=complex)
    return validate([a, b])


def test_zero_tuple_kernel_is_vacuum_embedding():
    rc = validate([np.zeros((1, 1))])
    f = TruncatedFock(1, 5)
    kern = poisson_kernel(rc, f)
    expected = np.zeros((f.dim, 1), dtype=complex)
    expected[0, 0] = 1.0
    assert np.allclose(kern.matrix, expected)
    assert kern.isometry_defect < 1e-14
    assert np.allclose(gram(kern), np.eye(1))


def test_coisometric_kernel_is_zero():
    rc = validate([np.array([[1 / np.sqrt(2)]]), np.array([[1 / np.sqrt(2)]])])
    f = TruncatedFock(2, 3)
    kern = poisson_kernel(rc, f)
    assert kern.matrix.shape[0] == 0  # trivial defect space
    assert kern.defect_dim == 0


def test_nilpotent_kernel_exactly_isometric():
    rc = nilpotent_commuting_pair()
    f = TruncatedFock(2, 4)
    kern = poisson_kernel(rc, f)
    assert np.linalg.norm(gram(kern) - np.eye(2), 2) < 1e-14
    assert kern.tail_budget == 0.0


def test_radial_gram_matches_geometric_sum():
    t = 0.6
    rc = validate([np.array([[t]])])
    n_top = 8
    f = TruncatedFock(1, n_top)
    kern = poisson_kernel(rc, f, r=1.0)
    expected = 1.0 - t ** (2 * (n_top + 1))
    assert abs(gram(kern)[0, 0].real - expected) < 1e-14


def test_kernel_rejects_bad_radius():
    rc = validate([np.zeros((1, 1))])
    f = TruncatedFock(1, 3)
    for r in (0.0, 1.5, -0.1):
        with pytest.raises(InvalidParameterError):
            poisson_kernel(rc, f, r)


class TestConstrainedKernel:
    def test_free_ideal_reduces_to_standard(self):
        rng = np.random.default_rng(2)
        mats = [rng.standard_normal((2, 2)) for _ in range(2)]
        norm = np.linalg.norm(np.concatenate(mats, axis=1), 2)
        rc = validate([m / (norm * 1.1) for m in mats])
        f = TruncatedFock(2, 4)
        cs = build_constrained_subspace(f, [])
        full = poisson_kernel(rc, f)
        constrained = constrained_poisson_kernel(rc, cs)
        assert np.allclose(full.matrix, constrained.matrix)

    def test_commuting_tuple_range_already_symmetric(self):
        rc = validate([np.diag([0.3, -0.1]), np.diag([0.2, 0.4])])
        f = TruncatedFock(2, 5)
        cs = build_constrained_subspace(f, commutator_generators(2))
        kern = constrained_poisson_kernel(rc, cs)
        assert kern.range_containment < 1e-12
        full = poisson_kernel(rc, f)
        # compression preserves column norms when the range is contained
        assert np.allclose(
            np.linalg.norm(kern.matrix, axis=0), np.linalg.norm(full.matrix, axis=0)
        )

    def test_constraint_violation_rejected(self):
        a = np.array([[0, 0.5], [0, 0]])
        b = np.array([[0.5, 0], [0, -0.5]])
        rc = validate([a, b])
        f = TruncatedFock(2, 3)
        cs = build_constrained_subspace(f, commutator_generators(2))
        with pytest.raises(PreconditionError):
            constrained_poisson_kernel(rc, cs)


class TestIntertwining:
    def test_zero_tuple(self):
        rc = validate([np.zeros((1, 1))])
        rep = intertwining_check(poisson_kernel(rc, TruncatedFock(1, 4)))
        assert rep.residual < 1e-14
        assert rep.full_residual < 1e-14

    def test_constrained_commuting_pair(self):
        rc = validate([np.diag([0.3, -0.1]), np.diag([0.2, 0.4])])
        cs = build_constrained_subspace(TruncatedFock(2, 5), commutator_generators(2))
        kern = constrained_poisson_kernel(rc, cs)
        rep = intertwining_check(kern)
        assert rep.residual < 1e-10
        assert rep.full_residual <= top_slice_budget(kern) + 1e-12

    def test_radial_variant(self):
        rng = np.random.default_rng(9)
        mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2)]
        norm = np.linalg.norm(np.concatenate(mats, axis=1), 2)
        rc = validate([m / (norm * 1.02) for m in mats])
        rep = intertwining_check(poisson_kernel(rc, TruncatedFock(2, 4), r=0.9))
        assert rep.residual < 1e-10


    @pytest.mark.parametrize("r", [1.0, 0.8])
    def test_fock_gather_matches_the_dense_adjoint_shift(self, r):
        # the child-map gather equals (S_i^* (x) I) K bit for bit, and the
        # top-slice budget read from the orbit equals Phi^N applied to the
        # squared defect and bounds the unwindowed residual
        rc, f = random_pair(21), TruncatedFock(2, 4)
        kern = poisson_kernel(rc, f, r=r)
        rep = intertwining_check(kern)
        eye_d = np.eye(kern.defect_dim)
        mask = np.repeat(f.degrees <= f.max_degree - 1, kern.defect_dim)
        diffs = [kern.matrix @ (r * t.conj().T) - np.kron(s.conj().T, eye_d) @ kern.matrix
                 for t, s in zip(rc.matrices, left_creation(f), strict=True)]
        assert rep.residual == max(spectral_norm(diff[mask, :]) for diff in diffs)
        assert rep.full_residual == max(spectral_norm(diff) for diff in diffs)
        delta_sq = np.eye(rc.dim) - r * r * rc.row_gram()
        top = spectral_norm(cp_apply(rc, delta_sq, f.max_degree))
        t_norm = max(spectral_norm(t) for t in rc.matrices)
        dense_budget = r ** (f.max_degree + 1) * np.sqrt(top) * t_norm + 1e-12
        assert abs(top_slice_budget(kern) - dense_budget) <= 1e-12 * dense_budget
        assert rep.full_residual <= dense_budget


class TestPoissonTransform:
    """K_r^* (S_alpha S_beta^* (x) I) K_r, read through ``shift_adjoints``. The
    sum over nu of K_{alpha nu}^* K_{beta nu} telescopes to
    r^(|alpha| + |beta|) T_alpha (I - r^(2(M+1)) Phi^(M+1)(I)) T_beta^*, with
    M = N - max(|alpha|, |beta|)."""

    @staticmethod
    def transform(kern, alpha, beta):
        def lowered(word):
            # (S_word^* (x) I) K: S_word^* applies the first letter first
            x = kern.matrix
            for letter in word.letters:
                x = shift_adjoints(kern, x)[letter - 1]
            return x

        return lowered(alpha).conj().T @ lowered(beta)

    @staticmethod
    def exact(kern, alpha, beta):
        rc, r = kern.rc, kern.r
        top = kern.fock.max_degree - max(len(alpha), len(beta)) + 1
        middle = np.eye(rc.dim) - r ** (2 * top) * rc.orbit(top)
        outer = word_operator(rc.matrices, alpha) @ middle @ word_operator(rc.matrices, beta).conj().T
        return r ** (len(alpha) + len(beta)) * outer

    @pytest.mark.parametrize("alpha,beta", [((), ()), ((1,), ()), ((), (2, 1)), ((1, 2), (2,)), ((2, 1, 1), (1,)),
                                            ((1, 2, 2, 1), ())])
    def test_matches_the_dense_word_operators(self, alpha, beta):
        rc, f = random_pair(22, dim=2), TruncatedFock(2, 4)
        s = left_creation(f)
        alpha, beta = Word(alpha), Word(beta)
        mid = word_operator(s, alpha) @ word_operator(s, beta).conj().T
        for r in (0.9, 1.0):
            kern = poisson_kernel(rc, f, r)
            val = self.transform(kern, alpha, beta)
            dense = kern.matrix.conj().T @ np.kron(mid, np.eye(kern.defect_dim)) @ kern.matrix
            assert np.abs(val - dense).max() <= 1e-14
            assert np.abs(val - self.exact(kern, alpha, beta)).max() <= 1e-14

    def test_scalar_single_letter(self):
        t = 0.5
        rc, f = validate([np.array([[t]])]), TruncatedFock(1, 30)
        # value at radial r is r * t * (1 - r^(2(N+1)) t^(2(N+1)))
        for r in (0.9, 0.99, 0.999):
            val = self.transform(poisson_kernel(rc, f, r), Word((1,)), Word(()))
            assert abs(val[0, 0] - r * t * (1.0 - r ** 62 * t ** 62)) < 1e-12
        assert abs(val[0, 0] - t) < 2e-3

    def test_pure_tuple_at_unit_radius(self):
        rc = nilpotent_commuting_pair()
        val = self.transform(poisson_kernel(rc, TruncatedFock(2, 4)), Word((1,)), Word((2,)))
        assert np.abs(val - rc.matrices[0] @ rc.matrices[1].conj().T).max() < 1e-12


class TestKernelGram:
    """K^*K against its exact truncated value I - Phi^(N+1)(I), to the 1e-12
    the poisson task checks; the distance from I - Q is the purity tail."""

    def test_pure_tuple_gram_close_to_identity(self):
        kern = poisson_kernel(nilpotent_commuting_pair(), TruncatedFock(2, 4))
        assert kern.isometry_defect < 1e-12
        assert np.allclose(gram(kern), np.eye(2))

    def test_coisometric_gram_zero(self):
        rc = validate([np.array([[1 / np.sqrt(2)]]), np.array([[1 / np.sqrt(2)]])])
        kern = poisson_kernel(rc, TruncatedFock(2, 3))
        assert np.linalg.norm(gram(kern)) < 1e-12
        assert kern.isometry_defect < 1e-12

    def test_generic_contraction_within_budget(self):
        rng = np.random.default_rng(8)
        mats = [rng.standard_normal((3, 3)) for _ in range(2)]
        norm = np.linalg.norm(np.concatenate(mats, axis=1), 2)
        rc = validate([m / (norm * 1.01) for m in mats])
        kern = poisson_kernel(rc, TruncatedFock(2, 6))
        assert kern.isometry_defect <= 1e-12
        q = rc.purity_limit().q_limit
        tail = spectral_norm(rc.orbit(7) - q)
        assert tail > 1e-3
        assert spectral_norm(gram(kern) - (np.eye(3) - q)) <= tail + 1e-12
