import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockbench import (
    MultiAnalyticOperator,
    TruncatedFock,
    Word,
    assemble,
    build_constrained_subspace,
    characteristic_coefficients,
    commutator_generators,
    constrained_poisson_kernel,
    evaluate_polynomial,
    point_factorization,
    poisson_kernel,
    spectral_radius,
    unitary_invariance_check,
    validate,
    verify_truncated_factorization,
    word_operator,
)
from fockbench._linalg import spectral_norm
from fockbench.cli import RunContext, task_factorize
from fockbench.errors import InvalidParameterError, PreconditionError
from words_reference import coefficient, enumerate_words, fock_assemble, fock_row_basis, shift_tuple


def random_contraction(rng, n, dim, scale=1.05):
    mats = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) for _ in range(n)]
    norm = np.linalg.norm(np.concatenate(mats, axis=1), 2)
    return validate([m / (norm * scale) for m in mats])


def creation_tuples(f):
    """Left and right creation tuples as matrices (the free ideal's N_J has
    the identity basis, so its compressions equal them bit for bit)."""
    cs = build_constrained_subspace(f, [])
    return shift_tuple(cs, "left"), shift_tuple(cs, "right")


def fock_theta(op, f):
    """Theta on the Fock space, as the library assembles it: on N_J of the
    free ideal, whose basis is the identity."""
    return assemble(op, build_constrained_subspace(f, []))


def coefficient_items(op):
    """(beta, theta_beta) for every stored coefficient: the entry at basis
    word rho is the coefficient of reverse(rho)."""
    return [(rho.reverse(), theta) for rho, theta in zip(enumerate_words(op.n, op.max_degree), op.coefficients)]


def transformed(op, fn):
    """The operator whose coefficient at beta is fn(beta, theta_beta)."""
    coeffs = np.stack([fn(beta, theta) for beta, theta in coefficient_items(op)])
    return MultiAnalyticOperator(op.n, op.max_degree, coeffs)


def random_commuting_contraction(rng, n, dim, scale=1.05):
    diags = [np.diag(rng.uniform(-1, 1, dim) + 1j * rng.uniform(-1, 1, dim)) for _ in range(n)]
    norm = np.linalg.norm(np.concatenate(diags, axis=1), 2)
    return validate([d / (norm * scale) for d in diags])


def theta_at(rc, point, cs=None):
    return point_factorization(rc, [point], cs=cs)[0][0]


def point_residual(rc, point, cs=None):
    return point_factorization(rc, [point], cs=cs)[1][0]


def oracle_point_factorization(rc, point, cs=None):
    """Theta(X) and the factorization residual at one point, evaluated on
    its own: every lift through np.kron, I - sum X_i (x) T_i^* formed for each
    of the two solves, and the boundary rule ``spectral_radius`` at scalar
    points too. ``point_factorization`` must match it bit for bit."""
    xs = [np.asarray(x, dtype=complex).reshape(1, 1) if np.ndim(x) == 0 else np.asarray(x, dtype=complex)
          for x in point]
    if cs is not None and max((spectral_norm(evaluate_polynomial(p, xs)) for p in cs.generators),
                              default=0.0) > 1e-8:
        raise PreconditionError("point violates the ideal generators")
    if spectral_radius(xs) >= 1.0:
        raise PreconditionError("point has joint spectral radius >= 1")
    k, d = xs[0].shape[0], rc.dim
    eye_k = np.eye(k, dtype=complex)
    a = np.eye(k * d, dtype=complex) - sum(np.kron(x, t.conj().T) for x, t in zip(xs, rc.matrices))
    sel = [np.zeros((d, rc.n * d), dtype=complex) for _ in range(rc.n)]
    for i in range(rc.n):
        sel[i][:, i * d : (i + 1) * d] = np.eye(d)
    xhat = sum(np.kron(x, s) for x, s in zip(xs, sel))
    mid = np.linalg.solve(a, xhat @ np.kron(eye_k, rc.delta_star))
    full = -np.kron(eye_k, rc.row_matrix) + np.kron(eye_k, rc.delta) @ mid
    theta = np.kron(eye_k, rc.defect_basis).conj().T @ full @ np.kron(eye_k, rc.defect_star_basis)
    a = np.eye(k * d, dtype=complex) - sum(np.kron(x, t.conj().T) for x, t in zip(xs, rc.matrices))
    gram_x = sum(x @ x.conj().T for x in xs)
    c = np.linalg.solve(a.conj().T, np.kron(eye_k, rc.delta))
    rhs_full = c.conj().T @ (np.eye(k * d, dtype=complex) - np.kron(gram_x, np.eye(d))) @ c
    lift = np.kron(eye_k, rc.defect_basis)
    rhs = lift.conj().T @ rhs_full @ lift
    lhs = np.eye(theta.shape[0], dtype=complex) - theta @ theta.conj().T
    return theta, spectral_norm(lhs - rhs)


class TestCoefficients:
    def test_zero_scalar_is_the_shift_symbol(self):
        rc = validate([np.zeros((1, 1))])
        op = characteristic_coefficients(rc, 4)
        assert np.allclose(coefficient(op, Word(())), [[0.0]])
        assert np.allclose(coefficient(op, Word((1,))), [[1.0]])
        for k in (2, 3, 4):
            assert np.linalg.norm(coefficient(op, Word((1,) * k))) < 1e-15

    def test_scalar_moebius_coefficients(self):
        t = 0.35 - 0.2j
        rc = validate([np.array([[t]])])
        op = characteristic_coefficients(rc, 5)
        assert abs(coefficient(op, Word(()))[0, 0] + t) < 1e-14
        for k in range(1, 6):
            expected = (1 - abs(t) ** 2) * np.conj(t) ** (k - 1)
            assert abs(coefficient(op, Word((1,) * k))[0, 0] - expected) < 1e-14

    def test_coisometric_tuple_has_trivial_target(self):
        rc = validate([np.array([[1 / np.sqrt(2)]]), np.array([[1 / np.sqrt(2)]])])
        op = characteristic_coefficients(rc, 3)
        assert op.target_dim == 0
        assert coefficient(op, Word(())).shape == (0, 1)

    def test_fourier_pairing_reads_reversed_words(self):
        # Block of the assembled matrix at (word row, vacuum column) is the
        # coefficient of the reversed word.
        rng = np.random.default_rng(6)
        rc = random_contraction(rng, 2, 2)
        f = TruncatedFock(2, 3)
        op = characteristic_coefficients(rc, 3)
        mat = fock_theta(op, f)
        tgt, src = op.target_dim, op.source_dim
        for row, w in enumerate(enumerate_words(2, 3)):
            block = mat[row * tgt : (row + 1) * tgt, 0:src]
            assert np.allclose(block, coefficient(op, w.reverse()), atol=1e-13)


class TestAssemble:
    def test_identity_symbol(self):
        rc = validate([np.zeros((1, 1))])
        op = characteristic_coefficients(rc, 3)
        op.coefficients = np.zeros_like(op.coefficients)
        op.coefficients[0] = np.eye(1)
        f = TruncatedFock(1, 3)
        assert np.array_equal(fock_theta(op, f), np.eye(f.dim))

    def test_zero_scalar_assembles_to_shift(self):
        rc = validate([np.zeros((1, 1))])
        f = TruncatedFock(1, 3)
        mat = fock_theta(characteristic_coefficients(rc, 3), f)
        assert np.allclose(mat, creation_tuples(f)[1][0])

    def test_multi_analyticity_is_exact(self):
        rng = np.random.default_rng(12)
        rc = random_contraction(rng, 2, 3)
        f = TruncatedFock(2, 4)
        op = characteristic_coefficients(rc, 4)
        mat = fock_theta(op, f)
        for s in creation_tuples(f)[0]:
            lhs = mat @ np.kron(s, np.eye(op.source_dim, dtype=complex))
            rhs = np.kron(s, np.eye(op.target_dim, dtype=complex)) @ mat
            assert np.linalg.norm(lhs - rhs, 2) < 1e-12

    def test_radial_weights_converge_monotonically(self):
        rng = np.random.default_rng(13)
        rc = random_contraction(rng, 2, 2)
        f = TruncatedFock(2, 3)
        op = characteristic_coefficients(rc, 3)
        full = fock_theta(op, f)
        gaps = []
        for r in (0.9, 0.99, 0.999):
            radial = transformed(op, lambda beta, theta: r ** len(beta) * theta)
            gaps.append(np.abs(full - fock_theta(radial, f)).max())
        assert gaps[0] > gaps[1] > gaps[2]

    def test_multiplicity_tensors_coefficients(self):
        rc = validate([np.array([[0.4]])])
        f = TruncatedFock(1, 2)
        op = characteristic_coefficients(rc, 2)
        single = fock_theta(op, f)
        doubled = fock_theta(transformed(op, lambda beta, theta: np.kron(theta, np.eye(2))), f)
        assert doubled.shape == (2 * single.shape[0], 2 * single.shape[1])
        perm = np.kron(single, np.eye(2))
        assert np.allclose(doubled, perm)


class TestPointEvaluate:
    def test_zero_point_gives_negative_compression(self):
        rng = np.random.default_rng(14)
        rc = random_contraction(rng, 2, 3)
        theta = theta_at(rc, [0.0, 0.0])
        expected = -(rc.defect_basis.conj().T @ rc.row_matrix @ rc.defect_star_basis)
        assert np.allclose(theta, expected)

    def test_scalar_moebius(self):
        t = 0.3 + 0.4j
        rc = validate([np.array([[t]])])
        for z in (0.2, -0.5j, 0.3 + 0.3j):
            got = theta_at(rc, [z])[0, 0]
            assert abs(got - (z - t) / (1 - np.conj(t) * z)) < 1e-13

    def test_partial_sums_converge_with_matrix_point(self):
        # Convention guard: the Neumann expansion pairs word-ordered point
        # products with the stored coefficients; a reversal bug would stall
        # the convergence of partial sums toward the direct solve.
        rng = np.random.default_rng(15)
        rc = random_contraction(rng, 2, 2)
        xs = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2)]
        norm = np.linalg.norm(np.concatenate(xs, axis=1), 2)
        xs = [x / (norm * 3.0) for x in xs]
        direct = theta_at(rc, xs)
        max_deg = 12
        op = characteristic_coefficients(rc, max_deg)
        k = xs[0].shape[0]
        partial = np.zeros_like(direct)
        errors = []
        for deg in range(max_deg + 1):
            for beta, theta in coefficient_items(op):
                if len(beta) == deg:
                    partial += np.kron(word_operator(xs, beta), theta)
            errors.append(np.linalg.norm(partial - direct, 2))
        assert errors[-1] < 1e-6
        assert errors[-1] < errors[4] / 10

    def test_contractivity_at_strict_points(self):
        rng = np.random.default_rng(16)
        rc = random_contraction(rng, 3, 3)
        for _ in range(10):
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            z = 0.9 * z / np.linalg.norm(z) * rng.uniform(0.1, 1.0)
            theta = theta_at(rc, list(z))
            gap = np.eye(theta.shape[0]) - theta @ theta.conj().T
            assert np.linalg.eigvalsh(gap).min() > -1e-9

    def test_rejects_expansive_points(self):
        rc = validate([np.array([[0.4]])])
        with pytest.raises(PreconditionError):
            theta_at(rc, [1.0])


class TestFactorization:
    def test_scalar_anchor_at_half(self):
        rc = validate([np.zeros((1, 1))])
        assert point_residual(rc, [0.5]) < 1e-15
        theta = theta_at(rc, [0.5])
        assert abs((1 - abs(theta[0, 0]) ** 2) - 0.75) < 1e-14

    def test_random_points_commuting_and_not(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for builder in (random_contraction, random_commuting_contraction):
            for n in (1, 2, 3):
                rc = builder(rng, n, 3)
                for _ in range(5):
                    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                    z = 0.9 * z / np.linalg.norm(z) * rng.uniform(0.05, 1.0)
                    worst = max(worst, point_residual(rc, list(z)))
        assert worst < 1e-9

    def test_truncated_mode_is_exact_for_nilpotent(self):
        a = np.array([[0, 1 / np.sqrt(2)], [0, 0]], dtype=complex)
        b = np.array([[0, 1j / np.sqrt(2)], [0, 0]], dtype=complex)
        rc = validate([a, b])
        rep = verify_truncated_factorization(poisson_kernel(rc, TruncatedFock(2, 4)))
        assert rep.residual < 1e-10

    def test_truncated_mode_generic_within_budget(self):
        rng = np.random.default_rng(18)
        rc = random_contraction(rng, 2, 3, scale=1.01)
        rep = verify_truncated_factorization(poisson_kernel(rc, TruncatedFock(2, 5)))
        assert rep.residual <= rep.budget
        assert rep.residual < 1e-12  # telescopes exactly at truncation

    @pytest.mark.parametrize("word_index", [0, 1, 6])
    def test_truncated_residual_reads_a_perturbed_coefficient(self, word_index):
        rng = np.random.default_rng(18)
        rc = random_contraction(rng, 2, 3, scale=1.01)
        kernel = poisson_kernel(rc, TruncatedFock(2, 4))
        op = characteristic_coefficients(rc, 4)
        rep = verify_truncated_factorization(kernel, op)
        assert rep.residual < 1e-12 and rep.residual <= rep.budget
        op.coefficients[word_index, 0, 0] += 1e-6
        rep = verify_truncated_factorization(kernel, op)
        assert rep.residual > 1e-7
        assert rep.residual > rep.budget

    def test_truncated_check_fails_on_a_constant_coefficient_off_by_a_percent(self):
        """The purity tail, 0.083 here, would pass this residual of 0.048."""
        rng = np.random.default_rng(18)
        rc = random_contraction(rng, 2, 3, scale=1.01)
        kernel = poisson_kernel(rc, TruncatedFock(2, 4))
        op = characteristic_coefficients(rc, 4)
        op.coefficients[0, 0, 0] += 1e-2
        rep = verify_truncated_factorization(kernel, op)
        assert np.linalg.norm(rc.orbit(5), 2) > rep.residual > 1e-2
        assert rep.residual > rep.budget

    @pytest.mark.parametrize("group", [0, 1])
    def test_truncated_check_fails_on_top_degree_kernel_rows_off_by_1e_6(self, group):
        """The top-degree block of each band takes K_N K_b^* in place, one of
        n row groups at a time; kernel rows of either group off by 1e-6 fail
        the check."""
        rng = np.random.default_rng(18)
        rc = random_contraction(rng, 2, 3, scale=1.01)
        kernel = poisson_kernel(rc, TruncatedFock(2, 4))
        top = kernel.fock.slice_offsets[4] * kernel.defect_dim
        step = (kernel.matrix.shape[0] - top) // 2
        matrix = kernel.matrix.copy()
        matrix[top + group * step : top + (group + 1) * step] += 1e-6
        rep = verify_truncated_factorization(replace(kernel, matrix=matrix))
        assert rep.residual > 1e-7
        assert rep.residual > rep.budget

    def test_fock_check_reads_coefficients_not_a_gram(self):
        rc = random_contraction(np.random.default_rng(18), 2, 3, scale=1.01)
        kernel = poisson_kernel(rc, TruncatedFock(2, 3))
        with pytest.raises(InvalidParameterError, match="not a Gram"):
            verify_truncated_factorization(kernel, gram=np.eye(kernel.matrix.shape[0]))

    def test_fock_check_peaks_below_one_dense_gram(self):
        """At (n, dim, N) = (3, 3, 5) Theta Theta^* has 1092^2 complex
        entries, 19.1 MB. The block walk holds the band's last and previous
        blocks and one row group, so its traced peak stays below one such
        Gram; the dense check formed three of them."""
        rc = random_contraction(np.random.default_rng(5), 3, 3, scale=1 / 0.85)
        kernel = poisson_kernel(rc, TruncatedFock(3, 5))
        rows = kernel.matrix.shape[0]
        assert rows == 1092
        tracemalloc.start()
        try:
            rep = verify_truncated_factorization(kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.residual <= rep.budget
        assert peak < rows**2 * np.dtype(complex).itemsize

    def test_truncation_zero_keeps_the_constant_coefficient(self):
        """At N = 0 Theta is its constant coefficient -E^* T E_*, and
        I - Theta_0 Theta_0^* = K_0 K_0^* holds exactly."""
        rc = random_contraction(np.random.default_rng(3), 2, 3, scale=1 / 0.85)
        op = characteristic_coefficients(rc, 0)
        assert op.max_degree == 0 and len(op.coefficients) == 1
        assert np.array_equal(op.coefficients[0],
                              -(rc.defect_basis.conj().T @ rc.row_matrix @ rc.defect_star_basis))
        rep = verify_truncated_factorization(poisson_kernel(rc, TruncatedFock(2, 0)), op)
        assert rep.residual <= rep.budget and rep.residual < 1e-14
        with pytest.raises(InvalidParameterError, match="max_degree >= 0"):
            characteristic_coefficients(rc, -1)

    def test_one_defect_cutoff_keeps_the_ranks_consistent(self):
        """Row singular values sqrt(1 - 1e-10), sqrt(1 - 1e-3) twice: the
        defect eigenvalue 1e-10 lies below the cutoff 1e-9 for both defects.
        A cutoff relative to each defect's largest eigenvalue kept it in the
        row defect (largest 1e-3) and dropped it from the column defect
        (largest 1), ranks (3, 5), and the residual read 5.57."""
        rng = np.random.default_rng(0)
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        v, _ = np.linalg.qr(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
        row = (u * np.sqrt([1 - 1e-10, 1 - 1e-3, 1 - 1e-3])) @ v.conj().T
        rc = validate([row[:, :3], row[:, 3:]])
        assert (rc.defect_rank, rc.defect_star_basis.shape[1]) == (2, 5)
        rep = verify_truncated_factorization(poisson_kernel(rc, TruncatedFock(2, 4)))
        assert rep.residual <= rep.budget and rep.residual < 1e-11

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["fock", "commutative"]), st.sampled_from([0.5, 1.0 - 1e-4, 1.0 - 1e-8, 1.0]),
           st.integers(1, 3), st.integers(1, 3), st.integers(2, 4), st.integers(0, 2**31 - 1))
    def test_truncated_budget_holds_at_rounding_level(self, ambient, top_singular, n, dim, top, seed):
        """The rounding budget holds on tuples pure or not, with defects near
        zero, and it is never looser than the purity tail."""
        rng = np.random.default_rng(seed)
        fock = TruncatedFock(n if ambient == "fock" else max(n, 2), top)
        if ambient == "fock":
            row = rng.standard_normal((dim, n * dim)) + 1j * rng.standard_normal((dim, n * dim))
            u, s, vh = np.linalg.svd(row, full_matrices=False)
            s = np.sort(rng.uniform(0.0, 0.9, dim))[::-1]
            s[0] = top_singular
            row = (u * s) @ vh
            kernel = poisson_kernel(validate([row[:, i * dim : (i + 1) * dim] for i in range(n)]), fock)
        else:
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            z = rng.standard_normal((fock.n, dim)) + 1j * rng.standard_normal((fock.n, dim))
            z *= rng.uniform(0.0, 0.9, dim) / np.linalg.norm(z, axis=0)
            z[:, 0] *= top_singular / np.linalg.norm(z[:, 0])
            rc = validate([q @ np.diag(zi) @ q.conj().T for zi in z])
            kernel = constrained_poisson_kernel(rc, build_constrained_subspace(fock, commutator_generators(fock.n)))
        rep = verify_truncated_factorization(kernel)
        assert rep.residual <= rep.budget
        assert rep.budget <= np.linalg.norm(kernel.rc.orbit(top + 1), 2) + 1e-10

    def test_constrained_truncated_two_path(self):
        rc = validate([np.diag([0.3, -0.2]), np.diag([0.1, 0.35])])
        cs = build_constrained_subspace(TruncatedFock(2, 5), commutator_generators(2))
        rep = verify_truncated_factorization(constrained_poisson_kernel(rc, cs))
        assert rep.residual < 1e-10

    def test_constrained_point_checks_membership(self):
        a = np.array([[0, 0.5], [0, 0]])
        b = np.array([[0.5, 0], [0, -0.5]])
        rc = validate([np.diag([0.3, -0.2]), np.diag([0.1, 0.35])])
        cs = build_constrained_subspace(TruncatedFock(2, 3), commutator_generators(2))
        with pytest.raises(PreconditionError):
            point_factorization(rc, [[a, b]], cs=cs)

    def test_point_mode_checks_membership_only_with_cs(self):
        # the same non-commuting matrix point passes without the ideal
        a = np.array([[0, 0.5], [0, 0]])
        b = np.array([[0.5, 0], [0, -0.5]])
        rc = validate([np.diag([0.3, -0.2]), np.diag([0.1, 0.35])])
        assert point_residual(rc, [a, b]) <= 1e-9
        cs = build_constrained_subspace(TruncatedFock(2, 3), commutator_generators(2))
        commuting = [np.diag([0.2, -0.1]), np.diag([0.3, 0.1j])]
        assert point_residual(rc, commuting, cs=cs) <= 1e-9

    def test_nilpotent_matrix_point_needs_only_a_spectral_radius_below_one(self):
        """([[0, 1.5], [0, 0]], 0) has row norm 1.5 but joint spectral radius
        0, and its matrices commute: it passes on N_J of the commutator ideal
        as on the free ideal, at rounding level."""
        rc = validate([np.diag([0.3, -0.1]), np.diag([0.2, 0.4])])
        point = [np.array([[0.0, 1.5], [0.0, 0.0]]), np.zeros((2, 2))]
        cs = build_constrained_subspace(TruncatedFock(2, 3), commutator_generators(2))
        assert point_residual(rc, point, cs=cs) == point_residual(rc, point) <= 1e-14

    def test_truncated_mode_needs_the_unit_radius_kernel(self):
        rc = validate([np.diag([0.3, -0.2]), np.diag([0.1, 0.35])])
        with pytest.raises(InvalidParameterError, match="r = 1"):
            verify_truncated_factorization(poisson_kernel(rc, TruncatedFock(2, 3), r=0.9))

    @pytest.mark.parametrize("mode", ["constrained_point", "constrained_truncated"])
    def test_removed_mode_names_are_unknown(self, mode):
        rc = validate([np.diag([0.3, -0.2]), np.diag([0.1, 0.35])])
        ctx = RunContext(n=2, trunc=3, generators=commutator_generators(2), rc=rc, tol=1e-9, seed=None)
        with pytest.raises(InvalidParameterError, match="unknown factorize mode"):
            task_factorize(ctx, {"mode": mode})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["free", "commutative"]), st.integers(1, 3), st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_per_call_factorization_is_the_per_point_oracle_bit_for_bit(ideal, n, dim, seed):
    """One call over scalar and 2 x 2 points (the origin, strict points and
    points at norm 1 - 1e-9), on the free ideal and on N_J of the commutator
    ideal: each Theta(X) and residual equals the oracle's exactly."""
    rng = np.random.default_rng(seed)
    cs = None
    if ideal == "commutative":
        n = max(n, 2)
        rc = random_commuting_contraction(rng, n, dim)
        cs = build_constrained_subspace(TruncatedFock(n, 2), commutator_generators(n))
    else:
        rc = random_contraction(rng, n, dim)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    z /= np.linalg.norm(z)
    if ideal == "commutative":
        # polynomials in one matrix commute
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        c = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        mats = [ci[0] * np.eye(2) + ci[1] * a for ci in c]
    else:
        mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(n)]
    mats = [m / np.linalg.norm(np.concatenate(mats, axis=1), 2) for m in mats]
    points = [np.zeros(n, dtype=complex), (1 - 1e-9) * z, rng.uniform(0.05, 0.9) * z,
              [np.zeros((2, 2))] * n, [(1 - 1e-9) * m for m in mats], [0.5 * m for m in mats]]
    thetas, residuals = point_factorization(rc, points, cs=cs)
    for point, theta, residual in zip(points, thetas, residuals):
        want_theta, want_residual = oracle_point_factorization(rc, point, cs)
        assert np.array_equal(theta, want_theta) and np.array_equal(residual, want_residual)
        assert residual <= 1e-9


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.floats(0.0, 2.0), st.integers(0, 2**31 - 1))
def test_scalar_boundary_rule_is_the_radius_of_a_one_by_one_tuple(n, radius, seed):
    """||z||_2 is the joint spectral radius of the 1 x 1 tuple z to rounding,
    and the scalar rule rejects exactly the points spectral_radius does away
    from the sphere."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    z *= radius / np.linalg.norm(z)
    norm, jsr = np.linalg.norm(z), spectral_radius([np.array([[v]]) for v in z])
    assert abs(norm - jsr) <= 4 * np.finfo(float).eps * max(norm, 1.0)
    if abs(norm - 1.0) > 1e-12:
        rc = validate([np.full((1, 1), 0.1)] * n)
        if jsr < 1.0:
            assert point_residual(rc, z) < 1e-12
        else:
            with pytest.raises(PreconditionError, match="spectral radius"):
                point_factorization(rc, [z])


class TestConstrainedCompression:
    def test_compression_matches_constrained_assembly(self):
        rc = validate([np.diag([0.3, -0.2 + 0.1j]), np.diag([0.1j, 0.35])])
        f = TruncatedFock(2, 4)
        cs = build_constrained_subspace(f, commutator_generators(2))
        op = characteristic_coefficients(rc, f.max_degree)
        constrained = assemble(op, cs=cs)
        standard = fock_assemble(op, f)
        q = fock_row_basis(cs)
        lift_t = np.kron(q, np.eye(op.target_dim, dtype=complex))
        lift_s = np.kron(q, np.eye(op.source_dim, dtype=complex))
        compressed = lift_t.conj().T @ standard @ lift_s
        assert np.linalg.norm(constrained - compressed, 2) < 1e-10

    def test_free_ideal_flavors_coincide(self):
        rng = np.random.default_rng(19)
        rc = random_contraction(rng, 2, 2)
        f = TruncatedFock(2, 3)
        cs = build_constrained_subspace(f, [])
        op = characteristic_coefficients(rc, 3)
        assert np.allclose(assemble(op, cs=cs), fock_assemble(characteristic_coefficients(rc, 3), f))


class TestUnitaryInvariance:
    def test_identity_conjugation(self):
        rng = np.random.default_rng(20)
        rc = random_contraction(rng, 2, 3)
        assert unitary_invariance_check(rc, np.eye(3)) < 1e-13

    def test_diagonal_phase_on_scalar(self):
        rc = validate([np.array([[0.5]])])
        assert unitary_invariance_check(rc, np.array([[np.exp(1.3j)]])) < 1e-13

    def test_random_unitary_on_commuting_tuple(self):
        rng = np.random.default_rng(22)
        rc = random_commuting_contraction(rng, 2, 3)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        assert unitary_invariance_check(rc, q) < 1e-10

    def test_rejects_non_unitary(self):
        rc = validate([np.array([[0.5]])])
        with pytest.raises(PreconditionError):
            unitary_invariance_check(rc, np.array([[0.9]]))


@pytest.mark.parametrize("n,top", [(1, 4), (2, 3), (3, 2)])
def test_coefficients_are_one_array_in_reversed_word_order(n, top):
    rng = np.random.default_rng(25)
    rc = random_contraction(rng, n, 2)
    op = characteristic_coefficients(rc, top)
    assert len(op.coefficients) == sum(n**k for k in range(top + 1))
    assert op.coefficients.shape[1:] == (op.target_dim, op.source_dim)
    for rho, theta in zip(enumerate_words(n, top), op.coefficients):
        assert np.array_equal(coefficient(op, rho.reverse()), theta)
    beyond = coefficient(op, Word((1,) * (top + 1)))
    assert beyond.shape == (op.target_dim, op.source_dim) and not beyond.any()


class TestConstrainedMultiAnalyticity:
    def test_assembled_operator_intertwines_constrained_shifts(self):
        rc = validate([np.diag([0.3, -0.2 + 0.1j]), np.diag([0.1j, 0.35])])
        f = TruncatedFock(2, 4)
        cs = build_constrained_subspace(f, commutator_generators(2))
        op = characteristic_coefficients(rc, f.max_degree)
        mat = assemble(op, cs=cs)
        b_ops = shift_tuple(cs, "left")
        for b in b_ops:
            lhs = mat @ np.kron(b, np.eye(op.source_dim, dtype=complex))
            rhs = np.kron(b, np.eye(op.target_dim, dtype=complex)) @ mat
            assert np.linalg.norm(lhs - rhs, 2) < 1e-12

    def test_constrained_assembly_with_multiplicity(self):
        rc = validate([np.diag([0.25, -0.15]), np.diag([0.1, 0.3])])
        f = TruncatedFock(2, 3)
        cs = build_constrained_subspace(f, commutator_generators(2))
        op = characteristic_coefficients(rc, 3)
        single = assemble(op, cs=cs)
        doubled = assemble(transformed(op, lambda beta, theta: np.kron(theta, np.eye(2))), cs=cs)
        assert doubled.shape == (2 * single.shape[0], 2 * single.shape[1])
        # (ambient, target, multiplicity) x (ambient, source, multiplicity)
        tgt, src = op.target_dim, op.source_dim
        blocks = doubled.reshape(cs.dim, tgt, 2, cs.dim, src, 2)
        for a in range(2):
            for b in range(2):
                expected = single if a == b else np.zeros_like(single)
                assert np.abs(blocks[:, :, a, :, :, b].reshape(single.shape) - expected).max() < 1e-14
