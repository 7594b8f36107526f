import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fockbench import (
    NcPolynomial,
    TruncatedFock,
    build_constrained_subspace,
    assemble,
    build_dilation,
    characteristic_coefficients,
    commutator_generators,
    constrained_poisson_kernel,
    evaluate_polynomial,
    intertwining_check,
    model_space,
    poisson_kernel,
    q_commutator_generators,
    shift_adjoints,
    validate,
    wold_decompose,
)
from fockbench._linalg import complement_basis, principal_angles, rank_decision, spectral_norm, svdvals
from fockbench.cli import RunContext, task_model
from fockbench.dilation import _word_translate_span
from fockbench.errors import InvalidParameterError, PreconditionError
from words_reference import eigh_model, fock_row_basis, fock_theta_gram, model_split, shift_tuple


def model_of(kernel):
    return model_space(kernel)


def kernel_gram(kernel):
    """Theta Theta^* of the kernel's tuple on the kernel's ambient, at its
    truncation: on N_J the assembled Theta times its adjoint, on the Fock
    space the dense oracle."""
    op = characteristic_coefficients(kernel.rc, kernel.fock.max_degree)
    if kernel.cs is None:
        return fock_theta_gram(op, kernel.fock)
    theta = assemble(op, kernel.cs)
    return theta @ theta.conj().T


def dilation_intertwining(blocks):
    """The dilate task's intertwining value: the kernel rows of
    V T_i^* = (dilation)_i^* V are the Poisson intertwining, and the Cuntz
    rows are off by the least-squares residual."""
    return max(intertwining_check(blocks.kernel).residual, blocks.lsq_residual)


def decaying_pair():
    """A pure commuting pair whose purity tail at N = 3 is 0.073."""
    return validate([np.diag([0.5, -0.4]), np.diag([0.3, 0.6])])


def nilpotent_commuting_pair():
    a = np.array([[0, 1 / np.sqrt(2)], [0, 0]], dtype=complex)
    b = np.array([[0, 1j / np.sqrt(2)], [0, 0]], dtype=complex)
    return validate([a, b])


def mixed_pair():
    """Block-diagonal: nilpotent commuting pair plus a coisometric scalar pair."""
    base = nilpotent_commuting_pair()
    out = []
    for t in base.matrices:
        out.append(np.block([
            [t, np.zeros((2, 1))],
            [np.zeros((1, 2)), np.array([[1 / np.sqrt(2)]])],
        ]))
    return validate(out)


def near_coisometry(dim=6, eps=1e-3):
    """(1 - eps) times a random coisometric pair on C^dim."""
    rng = np.random.default_rng(6)
    cols = np.linalg.qr(rng.standard_normal((2 * dim, dim)) + 1j * rng.standard_normal((2 * dim, dim)))[0]
    row = (1.0 - eps) * cols.conj().T
    return [row[:, :dim], row[:, dim:]]


def free_cs(n, top):
    return build_constrained_subspace(TruncatedFock(n, top), [])


def commutative_cs(n, top):
    return build_constrained_subspace(TruncatedFock(n, top), commutator_generators(n))


class TestBuildDilation:
    def test_pure_tuple_has_no_cuntz_block(self):
        blocks = build_dilation(constrained_poisson_kernel(nilpotent_commuting_pair(), commutative_cs(2, 4)))
        assert blocks.k_dim == 0
        assert blocks.isometry_defect < 1e-12
        assert blocks.cuntz_residual == 0.0

    def test_coisometric_tuple_is_all_cuntz(self):
        rc = validate([np.array([[1 / np.sqrt(2)]]), np.array([[1 / np.sqrt(2)]])])
        blocks = build_dilation(constrained_poisson_kernel(rc, commutative_cs(2, 3)))
        assert blocks.k_dim == 1
        assert max(np.linalg.norm(z - t) for z, t in zip(blocks.z_ops, rc.matrices)) < 1e-12
        assert blocks.isometry_defect < 1e-12

    def test_mixed_tuple_splits_by_blocks(self):
        rc = mixed_pair()
        blocks = build_dilation(constrained_poisson_kernel(rc, commutative_cs(2, 4)))
        assert blocks.k_dim == 1
        assert blocks.cuntz_residual < 1e-12
        assert max(blocks.constraint_residuals) < 1e-12
        assert blocks.isometry_defect < 1e-12

    def test_near_coisometric_tuple_has_no_cuntz_block(self):
        # (1 - 1e-3) x a coisometry is pure; a purity walk stopped at k_max
        # leaves Q ~ e^-20 I and would build a spurious Cuntz block of dim 6
        rc = validate(near_coisometry())
        blocks = build_dilation(constrained_poisson_kernel(rc, free_cs(2, 2)))
        assert rc.purity_limit().method == "certified"
        assert blocks.k_dim == 0 and blocks.cuntz_residual == 0.0
        assert blocks.isometry_defect <= 1e-10

    def test_constraint_violation_rejected(self):
        a = np.array([[0, 0.5], [0, 0]])
        b = np.array([[0.5, 0], [0, -0.5]])
        with pytest.raises(PreconditionError):
            build_dilation(constrained_poisson_kernel(validate([a, b]), commutative_cs(2, 3)))


class TestVerifyDilation:
    """The dilate task's checks: V^*V against I - Phi^(N+1)(I) + Q, and the
    intertwining on the kernel's interior rows and the Cuntz rows."""

    def test_zero_scalar(self):
        rc = validate([np.zeros((1, 1))])
        assert dilation_intertwining(build_dilation(constrained_poisson_kernel(rc, free_cs(1, 4)))) < 1e-13

    def test_coisometric(self):
        rc = validate([np.array([[1 / np.sqrt(2)]]), np.array([[1 / np.sqrt(2)]])])
        assert dilation_intertwining(build_dilation(constrained_poisson_kernel(rc, commutative_cs(2, 3)))) < 1e-12

    def test_decayed_commuting_tuple(self):
        rc = validate([np.diag([0.22, -0.15]), np.diag([0.1, 0.2])])
        blocks = build_dilation(constrained_poisson_kernel(rc, commutative_cs(2, 8)))
        assert dilation_intertwining(blocks) <= 1e-10
        assert blocks.isometry_defect <= 1e-10

    def test_residual_reads_the_exact_window_and_reports_the_full_one(self):
        blocks = build_dilation(constrained_poisson_kernel(decaying_pair(), commutative_cs(2, 3)))
        inter = intertwining_check(blocks.kernel)
        assert blocks.k_dim == 0 and blocks.lsq_residual == 0.0
        assert dilation_intertwining(blocks) == inter.residual < 1e-14
        assert inter.full_residual > 1e-2  # the top slice, which words of length N + 1 would fill

    @pytest.mark.parametrize("row", [0, 3], ids=["vacuum", "degree1"])
    def test_perturbed_embedding_fails(self, row):
        """The kernel rows of V are the kernel itself: a kernel row off by
        1e-8 fails the intertwining."""
        rc = validate([np.array([[0.3, 0.2], [0.1, -0.4]]), np.array([[0.1, -0.3], [0.2, 0.2]])])
        kernel = poisson_kernel(rc, TruncatedFock(2, 3))
        assert dilation_intertwining(build_dilation(kernel)) <= 1e-10
        kernel.matrix[row] += 1e-8
        assert dilation_intertwining(build_dilation(kernel)) > 1e-10

    def test_random_commuting_tuple_beyond_decay(self):
        rng = np.random.default_rng(42)
        rc = validate([np.diag(0.05 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)))
                       for _ in range(2)])
        assert dilation_intertwining(build_dilation(constrained_poisson_kernel(rc, commutative_cs(2, 8)))) < 1e-9

    def test_embedding_off_by_1e9_fails_where_the_tail_budget_passed_it(self):
        """V scaled by 1 + 1e-9 on a tuple with tail 0.073: |V^*V - I| stays
        within the removed budget |Phi^4(I) - Q| + 1e-10, while V^*V misses
        its exact value I - Phi^4(I) + Q by 2e-9."""
        kernel = constrained_poisson_kernel(decaying_pair(), commutative_cs(2, 3))
        rc, tail = kernel.rc, kernel.rc.orbit(4)
        assert spectral_norm(tail) > 1e-3
        assert build_dilation(kernel).isometry_defect <= 1e-10
        blocks = build_dilation(replace(kernel, matrix=kernel.matrix * (1 + 1e-9)))
        v = blocks.embedding
        assert spectral_norm(v.conj().T @ v - np.eye(rc.dim)) <= spectral_norm(tail - rc.purity_limit().q_limit) + 1e-10
        assert blocks.isometry_defect > 1e-10

    def test_purity_limit_off_by_1e9_fails_where_the_lsq_budget_passed_it(self):
        """A purity limit off by 1e-9 on the mixed pair (tail 1) leaves the
        Cuntz rows a least-squares residual of 1e-9. The removed check
        compared the stacked residual, at most the kernel rows' residual plus
        that one, with the least-squares residual plus 1e-10, so it passed."""
        rc = mixed_pair()
        pur = rc.purity_limit()
        kernel = constrained_poisson_kernel(rc, commutative_cs(2, 4))
        assert spectral_norm(rc.orbit(5)) > 1e-3
        assert dilation_intertwining(build_dilation(kernel)) <= 1e-10
        q = pur.q_limit.copy()
        q[1, 2] += 1e-9
        q[2, 1] += 1e-9
        rc._purity = replace(pur, q_limit=q)
        blocks = build_dilation(kernel)
        assert intertwining_check(kernel).residual <= 1e-10
        assert blocks.lsq_residual > 1e-10
        assert dilation_intertwining(blocks) > 1e-10


class TestDilationIndex:
    def test_zero_scalar(self):
        assert validate([np.zeros((1, 1))]).defect_rank == 1

    def test_coisometric(self):
        rc = validate([np.array([[1 / np.sqrt(2)]]), np.array([[1 / np.sqrt(2)]])])
        assert rc.defect_rank == 0

    def test_rank_two_commuting_example(self):
        rc = validate([np.diag([0.4, 0.1]), np.diag([0.2, 0.3])])
        assert rc.defect_rank == 2


class TestWold:
    def test_unitary_scalar(self):
        split = wold_decompose(validate([np.array([[np.exp(0.4j)]])]))
        assert split.multiplicity == 0
        assert split.k0_basis.shape[1] == 0
        assert split.k1_basis.shape[1] == 1

    def test_jordan_shift(self):
        jordan = np.zeros((4, 4))
        jordan[0, 1] = jordan[1, 2] = jordan[2, 3] = 1.0
        split = wold_decompose(validate([jordan]))
        assert split.multiplicity == 1
        assert split.k0_basis.shape[1] == 4
        assert split.idempotency_defect < 1e-14

    def test_block_diagonal_two_paths_agree(self):
        jordan = np.zeros((3, 3))
        jordan[0, 1] = jordan[1, 2] = 1.0
        v = np.block([
            [jordan, np.zeros((3, 1))],
            [np.zeros((1, 3)), np.array([[np.exp(0.9j)]])],
        ])
        split = wold_decompose(validate([v]))
        assert split.multiplicity == 1
        assert split.k0_basis.shape[1] == 3
        assert split.two_path_dim_match
        assert split.two_path_angles.max(initial=0.0) < 1e-8
        # K_0 is exactly the Jordan block
        proj = split.k0_basis @ split.k0_basis.conj().T
        expected = np.diag([1.0, 1.0, 1.0, 0.0])
        assert np.linalg.norm(proj - expected, 2) < 1e-10

    def test_near_coisometric_tuple_is_all_shift(self):
        split = wold_decompose(validate(near_coisometry()))
        assert split.purity.method == "certified"
        assert split.k0_basis.shape[1] == 6 and split.two_path_dim_match

    @pytest.mark.parametrize("k_max", [-1, 2.0, True, "3"])
    def test_rejects_bad_k_max(self, k_max):
        with pytest.raises(InvalidParameterError):
            wold_decompose(validate([np.array([[0.5]])]), k_max=k_max)

    def test_zero_k_max_spans_the_defect_range_only(self):
        jordan = np.diag([1.0, 1.0, 1.0], 1)
        assert wold_decompose(validate([jordan]), k_max=0).k0_basis.shape[1] == 1
        assert wold_decompose(validate([jordan])).k0_basis.shape[1] == 4

    def test_strict_scalar_contraction_is_all_shift(self):
        split = wold_decompose(validate([np.array([[0.5]])]))
        assert split.multiplicity == 1
        assert split.k0_basis.shape[1] == 1
        assert split.k1_basis.shape[1] == 0
        assert split.two_path_dim_match
        assert split.two_path_angles.max(initial=0.0) < 1e-8

    def test_truncated_creation_block_plus_cuntz(self):
        f = TruncatedFock(2, 3)
        s = shift_tuple(build_constrained_subspace(f, []), "left")
        z = [np.array([[1 / np.sqrt(2)]]), np.array([[1j / np.sqrt(2)]])]
        v = [np.block([
            [si, np.zeros((f.dim, 1))],
            [np.zeros((1, f.dim)), zi],
        ]) for si, zi in zip(s, z)]
        split = wold_decompose(validate(v))
        assert split.k0_basis.shape[1] == f.dim
        assert split.k1_basis.shape[1] == 1
        assert split.idempotency_defect < 1e-14
        assert split.two_path_angles.max(initial=0.0) < 1e-8


class TestShiftMultiplicity:
    """The shift multiplicity is the Wold split's defect rank; the tuple is a
    (constrained) shift exactly when its purity limit vanishes."""

    def test_tensor_multiplicity_of_constrained_shift(self):
        cs = commutative_cs(2, 3)
        left = shift_tuple(cs, "left")
        for mult in (1, 2, 3):
            eye = np.eye(mult, dtype=complex)
            split = wold_decompose(validate([np.kron(b, eye) for b in left]))
            assert split.multiplicity == mult
            assert split.purity.is_pure

    def test_unitary_is_not_a_shift(self):
        split = wold_decompose(validate([np.array([[np.exp(0.2j)]])]))
        assert split.multiplicity == 0
        assert not split.purity.is_pure

    def test_jordan_shift(self):
        jordan = np.zeros((3, 3))
        jordan[0, 1] = jordan[1, 2] = 1.0
        split = wold_decompose(validate([jordan]))
        assert split.multiplicity == 1
        assert split.purity.is_pure


class TestModelSpace:
    def test_zero_scalar_models_on_constants(self):
        rc = validate([np.zeros((1, 1))])
        res = model_of(constrained_poisson_kernel(rc, free_cs(1, 5)))
        assert res.basis.shape[1] == 1
        assert res.projection_residual < 1e-12
        assert res.equivalence_residual < 1e-12
        # the compression of the shift to the constants is the zero operator
        assert np.linalg.norm(res.compressed[0]) < 1e-12

    def test_scalar_contraction_model(self):
        t = 0.5
        rc = validate([np.array([[t]])])
        res = model_of(constrained_poisson_kernel(rc, free_cs(1, 24)))
        assert res.basis.shape[1] == 1
        assert res.equivalence_residual < 1e-9
        assert abs(res.compressed[0][0, 0] - t) < 1e-6

    def test_commuting_nilpotent_pair(self):
        rc = nilpotent_commuting_pair()
        kern = constrained_poisson_kernel(rc, commutative_cs(2, 4))
        res = model_of(kern)
        assert res.basis.shape[1] == 2
        assert res.projection_residual < 1e-10
        assert res.equivalence_residual < 1e-10
        assert res.complement_residual < 1e-10
        # the compressed model operators are T_i, carried by U = basis^* K
        u = res.basis.conj().T @ kern.matrix
        for b, t in zip(res.compressed, rc.matrices, strict=True):
            assert np.linalg.norm(b - u @ t @ u.conj().T, 2) < 1e-10

    def test_split_brackets_the_quarter(self):
        kern = constrained_poisson_kernel(nilpotent_commuting_pair(), commutative_cs(2, 4))
        gram = kernel_gram(kern)
        largest_in_model, smallest_in_range = model_split(gram, model_space(kern, gram=gram))
        assert abs(largest_in_model) < 1e-12
        assert abs(smallest_in_range - 1.0) < 1e-12

    def test_split_counts_the_rank_of_k_past_a_quarter(self):
        """At N = 1 the scalar 0.9's Theta Theta^* has the eigenvalue
        Phi^2(I) = 0.9^4 > 1/4 on the range of K and 1 off it: the split
        counts rank K = 1 direction into the model, and every model identity
        holds to rounding."""
        kern = poisson_kernel(validate([np.array([[0.9]])]), TruncatedFock(1, 1))
        gram = kernel_gram(kern)
        res = model_space(kern)
        assert res.basis.shape == (2, 1)
        largest_in_model, smallest_in_range = model_split(gram, res)
        assert abs(largest_in_model - 0.9**4) < 1e-12 and abs(smallest_in_range - 1.0) < 1e-12
        assert max(res.projection_residual, res.complement_residual, res.equivalence_residual) <= 1e-15

    def test_non_pure_rejected(self):
        rc = validate([np.array([[1 / np.sqrt(2)]]), np.array([[1 / np.sqrt(2)]])])
        with pytest.raises(PreconditionError):
            model_of(constrained_poisson_kernel(rc, commutative_cs(2, 3)))

    @pytest.mark.parametrize("case", ["scalar_0.9_N1", "q_commuting_N5"])
    def test_model_passes_with_a_tail_above_a_quarter(self, case):
        """Where Phi^(N+1)(I) has an eigenvalue above 1/4, a split of
        Theta Theta^* at 1/4 counted a direction of the range of K out of the
        model: the scalar 0.9 at N = 1 (model dimension 0 of 1) and an unscaled
        q-commuting pair at N = 5 (1 of 2). Split by the rank of K, the model
        has every direction and the model task passes."""
        if case == "scalar_0.9_N1":
            rc, trunc, gens = validate([np.array([[0.9]])]), 1, []
        else:
            q = 0.5 + 0.25j
            s = 1.0 / np.sqrt(1.0 + abs(q) ** 2)
            rc = validate([s * np.array([[0.0, 1.0], [0.0, 0.0]]), s * np.diag([q, 1.0])])
            trunc, gens = 5, q_commutator_generators(np.array([[1.0, q], [0.0, 1.0]]))
        ctx = RunContext(n=rc.n, trunc=trunc, generators=gens, rc=rc, tol=1e-9, seed=None)
        report = task_model(ctx, {})
        assert report["data"]["model_dim"] == rc.dim
        assert np.linalg.eigvalsh(ctx.theta_gram())[rc.dim - 1] > 0.25
        assert all(c["pass"] for c in report["checks"])

    @pytest.mark.parametrize("mutation", ["kernel_column_off_the_model", "gram_minus_1e9", "kernel_scaled"])
    def test_a_1e9_mutation_fails_where_the_tail_budgets_passed_it(self, mutation):
        """On a pure pair with tail |Phi^4(I)| = 0.073: a kernel column moved
        1e-9 off the model, Theta Theta^* shifted by -1e-9 I, and the kernel
        scaled by 1 + 1e-9 each stay within the removed tail budgets, and
        fail the projection, complement and equivalence identities in turn."""
        kern = constrained_poisson_kernel(decaying_pair(), commutative_cs(2, 3))
        rc, gram = kern.rc, kernel_gram(kern)
        tail = spectral_norm(rc.orbit(4))
        assert tail > 1e-3
        res = model_space(kern, gram=gram)
        assert res.basis.shape[1] == rc.dim
        assert max(res.projection_residual, res.complement_residual, res.equivalence_residual) <= 1e-10

        if mutation == "kernel_column_off_the_model":
            off_model = np.zeros_like(kern.matrix)
            off_model[:, 0] = np.linalg.eigh(gram)[1][:, -1]
            kern = replace(kern, matrix=kern.matrix + 1e-9 * off_model)
        elif mutation == "gram_minus_1e9":
            gram = gram - 1e-9 * np.eye(gram.shape[0])
        else:
            kern = replace(kern, matrix=kern.matrix * (1 + 1e-9))
        res = model_space(kern, gram=gram)

        # the removed checks, on the removed route (the eigh of the Gram split
        # at the rank of K): |P - K K^*| and |P + Theta Theta^* - I| against
        # 3 |Phi^4(I)| + 1e-9, and |K^* (B_i (x) I) K - T_i| against
        # |Phi^3(I)| + 1e-9
        removed_basis, k = eigh_model(kern, gram)[0], kern.matrix
        p = removed_basis @ removed_basis.conj().T
        assert spectral_norm(p - k @ k.conj().T) <= 3 * tail + 1e-9
        assert spectral_norm(p + gram - np.eye(gram.shape[0])) <= 3 * tail + 1e-9
        equivalence = max(spectral_norm(moved.conj().T @ k - t) for t, moved in zip(rc.matrices, shift_adjoints(kern)))
        assert equivalence <= spectral_norm(rc.orbit(3)) + 1e-9

        failed = {
            "kernel_column_off_the_model": res.projection_residual,
            "gram_minus_1e9": res.complement_residual,
            "kernel_scaled": res.equivalence_residual,
        }[mutation]
        assert failed > 1e-10

    @pytest.mark.parametrize("mutation", ["coefficient_plus_1e9", "kernel_column_off_the_model"])
    def test_a_1e9_fock_mutation_fails_its_check(self, mutation):
        """On the Fock space the model reads Theta's coefficients: one entry
        of one coefficient moved by 1e-9 leaves I - Theta Theta^* off the
        range of the probe by about that much and fails the Frobenius
        complement check, and a kernel column moved 1e-9 off the model fails
        the projection check, since the basis is read from the probe, not
        from K. The unperturbed model passes every check."""
        rc = pure_tuple(2, 3, 4)
        kern = poisson_kernel(rc, TruncatedFock(2, 3))
        op = characteristic_coefficients(rc, 3)
        res = model_space(kern, op)
        assert res.decision.rank == rc.dim
        assert max(res.projection_residual, res.complement_residual, res.equivalence_residual) <= 1e-10
        if mutation == "coefficient_plus_1e9":
            entry = op.coefficients[3]
            entry.flat[np.argmax(np.abs(entry))] += 1e-9
            assert model_space(kern, op).complement_residual > 1e-10
        else:
            off_model = np.zeros_like(kern.matrix)
            off_model[:, 0] = np.linalg.eigh(kernel_gram(kern))[1][:, -1]
            assert model_space(replace(kern, matrix=kern.matrix + 1e-9 * off_model), op).projection_residual > 1e-10

    def test_fock_model_refuses_a_gram_and_short_coefficients(self):
        rc = pure_tuple(2, 2, 1)
        kern = poisson_kernel(rc, TruncatedFock(2, 2))
        with pytest.raises(InvalidParameterError, match="not a Gram"):
            model_space(kern, gram=np.eye(kern.matrix.shape[0]))
        with pytest.raises(InvalidParameterError, match="do not cover"):
            model_space(kern, characteristic_coefficients(rc, 1))

    @pytest.mark.parametrize("top", [1, 3])
    @pytest.mark.parametrize("eps,rank", [(2e-9, 2), (1e-9, 1), (7e-10, None)])
    def test_near_purity_band_on_the_fock_space(self, eps, rank, top):
        """(diag(0.3, 0.6a), diag(0.2, 0.8a)) with a = sqrt(1 - eps) has the
        defect eigenvalue eps, at the defect cutoff 1e-9. Where the tuple is
        decided pure, the probe's model dimension is the rank of K, and its
        gap is reported; at eps = 7e-10 purity is not decided and the model
        is refused."""
        a = np.sqrt(1.0 - eps)
        rc = validate([np.diag([0.3, 0.6 * a]), np.diag([0.2, 0.8 * a])])
        kern = poisson_kernel(rc, TruncatedFock(2, top))
        if rank is None:
            with pytest.raises(PreconditionError, match="requires a pure row contraction"):
                model_space(kern)
            return
        res = model_space(kern)
        assert res.decision.rank == rank_decision(svdvals(kern.matrix)).rank == rank
        assert res.decision.zero_max is not None and res.decision.nonzero_min is not None
        assert res.decision.zero_max < 1e-12 < res.decision.nonzero_min

    def test_fock_model_peaks_below_one_dense_gram(self):
        """At (n, dim, N) = (3, 3, 5) Theta Theta^* has 1092^2 complex
        entries, 19.1 MB. The model reads I - Theta Theta^* on its probe and
        its complement check walks the degree blocks, so its traced peak
        stays below one such Gram; the eigh route formed it."""
        rng = np.random.default_rng(0)
        mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3)]
        rc = validate([0.85 * t / np.linalg.norm(np.hstack(mats), 2) for t in mats])
        kern = poisson_kernel(rc, TruncatedFock(3, 5))
        rows = kern.matrix.shape[0]
        assert rows == 1092
        tracemalloc.start()
        try:
            res = model_space(kern)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.decision.rank == rc.dim
        assert max(res.projection_residual, res.complement_residual, res.equivalence_residual) <= 1e-10
        assert peak < rows**2 * np.dtype(complex).itemsize


def pure_tuple(n, dim, seed):
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) for _ in range(n)]
    return validate([0.6 * t / np.linalg.norm(np.hstack(mats), 2) for t in mats])


@pytest.mark.parametrize("rc,top", [
    (pure_tuple(1, 2, 1), 8),
    (pure_tuple(2, 3, 2), 4),
    (pure_tuple(3, 2, 3), 3),
    (mixed_pair(), 4),
], ids=["n1", "n2", "n3", "n2_cuntz_block"])
def test_fock_kernel_equals_the_free_nj_kernel_bit_for_bit(rc, top):
    fock = TruncatedFock(rc.n, top)
    kernels = [poisson_kernel(rc, fock), constrained_poisson_kernel(rc, free_cs(rc.n, top))]
    dilations = [build_dilation(k) for k in kernels]
    for name in ("embedding", "k_basis", "isometry_defect", "cuntz_residual", "lsq_residual"):
        assert np.array_equal(getattr(dilations[0], name), getattr(dilations[1], name)), name
    assert all(np.array_equal(a, b) for a, b in zip(dilations[0].z_ops, dilations[1].z_ops, strict=True))
    assert intertwining_check(kernels[0]) == intertwining_check(kernels[1])
    if rc.purity_limit().is_pure:
        models = [model_of(k) for k in kernels]
        assert np.array_equal(models[0].basis, models[1].basis)
        assert all(np.array_equal(a, b) for a, b in zip(models[0].compressed, models[1].compressed, strict=True))
        for name in ("projection_residual", "equivalence_residual", "complement_residual"):
            assert getattr(models[0], name) == getattr(models[1], name), name


@pytest.mark.parametrize("check", [build_dilation, model_of], ids=["build_dilation", "model_space"])
def test_dilation_and_model_need_the_unit_radius_kernel(check):
    with pytest.raises(InvalidParameterError, match="r = 1"):
        check(poisson_kernel(nilpotent_commuting_pair(), TruncatedFock(2, 3), r=0.5))


class TestMaximalConstrainedPiece:
    """The maximal constrained piece of a tuple is the complement of the span
    of the word translates of the generator ranges; for the truncated
    creation tuple it is N_J. The piece is formed here, as an oracle, and
    checked first on tuples whose piece is known."""

    @staticmethod
    def piece(mats, gens, k_max):
        span = _word_translate_span([evaluate_polynomial(p, mats) for p in gens], mats, k_max)[0]
        return complement_basis(span)[0]

    def test_commutators_on_truncated_creation_recover_symmetric_space(self):
        f = TruncatedFock(2, 4)
        s = shift_tuple(build_constrained_subspace(f, []), "left")
        gens = commutator_generators(2)
        basis = self.piece(s, gens, f.max_degree)
        cs = build_constrained_subspace(f, gens)
        # spans coincide exactly in the graded case
        q = fock_row_basis(cs)
        gap = basis @ basis.conj().T - q @ q.conj().T
        assert np.linalg.norm(gap, 2) < 1e-10
        compressed = [basis.conj().T @ t @ basis for t in s]
        assert max(spectral_norm(evaluate_polynomial(p, compressed)) for p in gens) < 1e-10
        assert principal_angles(basis, q).max() < 1e-8

    def test_commuting_tuple_is_its_own_piece(self):
        mats = [np.diag([0.2, 0.3]), np.diag([0.4, 0.1])]
        assert self.piece(mats, commutator_generators(2), 2).shape[1] == 2

    def test_single_generator_range_complement(self):
        t = np.array([[0.0, 0.5], [0.0, 0.0]])
        basis = self.piece([t], [NcPolynomial.monomial([1])], 2)
        # complement of span{T_alpha T e_j} = complement of range(T) = kernel of T^*
        assert basis.shape[1] == 1
        assert np.linalg.norm(t.conj().T @ basis) < 1e-12


class TestWoldPartialSumIdentities:
    def test_defect_translates_resolve_the_shift_projection(self):
        # sum over words up to the nilpotency depth of V_alpha Q V_alpha^*
        # recovers the projection onto the shift part, and the CP powers of
        # the identity converge to the projection onto the residual part.
        f = TruncatedFock(2, 3)
        s = shift_tuple(build_constrained_subspace(f, []), "left")
        z = [np.array([[1 / np.sqrt(2)]]), np.array([[1j / np.sqrt(2)]])]
        v = [np.block([
            [si, np.zeros((f.dim, 1))],
            [np.zeros((1, f.dim)), zi],
        ]) for si, zi in zip(s, z)]
        split = wold_decompose(validate(v))
        dim = v[0].shape[0]
        q = np.eye(dim) - sum(t @ t.conj().T for t in v)
        # direct word sum of V_alpha Q V_alpha^* up to the nilpotency depth
        total = q.copy()
        for depth in range(1, f.max_degree + 2):
            for word in itertools.product(range(2), repeat=depth):
                prod = np.eye(dim, dtype=complex)
                for letter in word:
                    prod = prod @ v[letter]
                total += prod @ q @ prod.conj().T
        p_k0 = split.k0_basis @ split.k0_basis.conj().T
        assert np.linalg.norm(total - p_k0, 2) < 1e-10
        # CP powers of the identity converge to the residual projection
        x = np.eye(dim, dtype=complex)
        for _ in range(f.max_degree + 2):
            x = sum(t @ x @ t.conj().T for t in v)
        p_k1 = split.k1_basis @ split.k1_basis.conj().T
        assert np.linalg.norm(x - p_k1, 2) < 1e-10

    def test_defect_range_is_joint_kernel_of_adjoints(self):
        jordan = np.zeros((3, 3))
        jordan[0, 1] = jordan[1, 2] = 1.0
        v = [np.block([
            [jordan, np.zeros((3, 1))],
            [np.zeros((1, 3)), np.array([[np.exp(0.7j)]])],
        ])]
        split = wold_decompose(validate(v))
        # Q is a projection here; its range is the joint kernel of the adjoints
        from fockbench._linalg import range_basis

        q_range = range_basis(np.eye(4) - sum(t @ t.conj().T for t in v))[0]
        stacked = np.concatenate([m.conj().T @ q_range for m in v], axis=0)
        assert np.linalg.norm(stacked) < 1e-12
        assert q_range.shape[1] == split.multiplicity
