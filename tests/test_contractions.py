import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockbench import (
    check_constraints,
    commutator_generators,
    contractions,
    cp_apply,
    purity,
    spectral_radius,
    validate,
)
from fockbench.errors import InvalidParameterError, NotARowContractionError
from fockbench.ideals import NcPolynomial
from fockbench.words import Word


def brute_force_word_sum(mats, k):
    """Oracle: sum over all words of length k of T_alpha T_alpha^*."""
    n = len(mats)
    dim = mats[0].shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    for word in itertools.product(range(n), repeat=k):
        prod = np.eye(dim, dtype=complex)
        for letter in word:
            prod = prod @ mats[letter]
        total += prod @ prod.conj().T
    return total


def dense_radius(mats):
    """Reference: square root of the largest eigenvalue modulus of the dense
    dim^2 x dim^2 matrix of Phi."""
    eigs = np.linalg.eigvals(sum(np.kron(np.conj(t), t) for t in mats))
    return float(np.sqrt(np.abs(eigs).max()))


def counting_eigvals(monkeypatch):
    """Patch np.linalg.eigvals to record the shape of every matrix it gets."""
    calls = []
    real = np.linalg.eigvals

    def eigvals(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    return calls


def counting_cholesky(monkeypatch):
    """Patch np.linalg.cholesky to record the shape of every matrix it gets:
    each Collatz-Wielandt bracket read factors its iterate once."""
    calls = []
    real = np.linalg.cholesky

    def cholesky(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    return calls


def counting_phi_steps(monkeypatch):
    """Patch contractions._phi so that every Phi product of the spectral code
    (one per CP step) is recorded."""
    calls = []
    real = contractions._phi

    def phi(mats):
        product = real(mats)

        def counted(x):
            calls.append(x.shape)
            return product(x)

        return counted

    monkeypatch.setattr(contractions, "_phi", phi)
    return calls


def cycle_walk(dim, loss):
    """T_1 = P D / sqrt(2), T_2 = P^* D / sqrt(2) with P the cyclic shift of
    C^dim and D = I except sqrt(1 - loss) at the last site. On diagonal X,
    Phi is a random walk on the cycle that loses mass at one site, so
    rho(Phi) < 1; yet on 11 sites the bracket's upper bound stays at 1, to
    rounding, through CP step 9."""
    shift = np.roll(np.eye(dim), 1, axis=0)
    d = np.diag([1.0] * (dim - 1) + [np.sqrt(1.0 - loss)])
    return [shift @ d / np.sqrt(2), shift.T @ d / np.sqrt(2)]


def family_tuple(family, n, dim, seed):
    rng = np.random.default_rng(seed)

    def gaussian():
        return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))

    if family == "random":
        return [gaussian() for _ in range(n)]
    if family == "nilpotent":
        return [np.triu(gaussian(), 1) for _ in range(n)]
    if family == "diagonal":
        return [np.diag(np.diag(gaussian())) for _ in range(n)]
    return [c * np.linalg.qr(gaussian())[0] for c in rng.uniform(0.1, 1.0, n)]


def scaled_coisometry(rng, n, dim, c=1.0):
    """c times a random coisometry: [T_1 ... T_n] has orthonormal rows."""
    gauss = rng.standard_normal((n * dim, dim)) + 1j * rng.standard_normal((n * dim, dim))
    row = c * np.linalg.qr(gauss)[0].conj().T
    return [row[:, i * dim : (i + 1) * dim] for i in range(n)]


def random_row_contraction(rng, n, dim, margin=1.05):
    mats = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) for _ in range(n)]
    norm = np.linalg.norm(np.concatenate(mats, axis=1), 2)
    return validate([m / (norm * margin) for m in mats])


class TestValidate:
    def test_zero_contraction_has_full_defects(self):
        rc = validate([np.zeros((1, 1))])
        assert np.allclose(rc.delta, np.eye(1))
        assert np.allclose(rc.delta_star, np.eye(1))
        assert rc.defect_rank == 1 and rc.defect_star_basis.shape[1] == 1

    def test_unitary_scalar_has_trivial_defects(self):
        rc = validate([np.array([[np.exp(0.7j)]])])
        assert rc.defect_rank == 0
        assert rc.defect_star_basis.shape[1] == 0

    def test_coisometric_scalar_pair(self):
        rc = validate([np.array([[1 / np.sqrt(2)]]), np.array([[1 / np.sqrt(2)]])])
        assert np.allclose(rc.row_gram(), np.eye(1))
        assert rc.defect_rank == 0
        # column defect of the coisometric pair has rank 1 on C^2
        assert rc.defect_star_basis.shape[1] == 1
        assert np.linalg.norm(rc.delta_star @ rc.delta_star + rc.row_matrix.conj().T @ rc.row_matrix - np.eye(2)) < 1e-12

    def test_rejects_expansive_tuple(self):
        with pytest.raises(NotARowContractionError) as err:
            validate([np.array([[1.2]])])
        assert err.value.excess > 0.4

    def test_defect_identities(self):
        rng = np.random.default_rng(3)
        rc = random_row_contraction(rng, 3, 4)
        assert np.linalg.norm(rc.delta @ rc.delta + rc.row_gram() - np.eye(4), 2) < 1e-12
        row = rc.row_matrix
        assert np.linalg.norm(rc.delta_star @ rc.delta_star + row.conj().T @ row - np.eye(12), 2) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.1, np.nan)])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(InvalidParameterError):
            validate([np.array([[bad]]), np.array([[0.1]])])


class TestCpApply:
    def test_zero_iterate_is_identity_map(self):
        rng = np.random.default_rng(0)
        rc = random_row_contraction(rng, 2, 3)
        x = np.diag([1.0, 2.0, 3.0]).astype(complex)
        assert np.array_equal(cp_apply(rc, x, 0), x)

    def test_nilpotent_power_vanishes(self):
        jordan = np.zeros((3, 3))
        jordan[0, 1] = jordan[1, 2] = 1.0
        rc = validate([jordan])
        assert np.linalg.norm(cp_apply(rc, np.eye(3), 3)) == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_word_sum_oracle(self, k):
        rng = np.random.default_rng(11)
        rc = random_row_contraction(rng, 2, 3)
        oracle = brute_force_word_sum(list(rc.matrices), k)
        assert np.linalg.norm(cp_apply(rc, np.eye(3), k) - oracle, 2) < 1e-12

    def test_stacked_phi_product_matches_cp_apply(self):
        # the spectral code's one-product Phi sums in another order: equal to rounding
        rng = np.random.default_rng(4)
        rc = random_row_contraction(rng, 3, 5)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        x = g @ g.conj().T
        expected = cp_apply(rc, x)
        assert np.linalg.norm(contractions._phi(rc.matrices)(x) - expected) <= 1e-14 * np.linalg.norm(expected)

    def test_monotone_decreasing_in_operator_order(self):
        rng = np.random.default_rng(7)
        rc = random_row_contraction(rng, 2, 4)
        prev = np.eye(4, dtype=complex)
        for _ in range(6):
            nxt = cp_apply(rc, prev)
            gap_eigs = np.linalg.eigvalsh(prev - nxt)
            assert gap_eigs.min() > -1e-12
            prev = nxt


def test_orbit_rejects_negative_power():
    with pytest.raises(InvalidParameterError):
        validate([np.zeros((1, 1))]).orbit(-1)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(0, 12), min_size=1, max_size=6),
)
def test_orbit_matches_cp_apply_from_identity(n, dim, seed, requests):
    rc = random_row_contraction(np.random.default_rng(seed), n, dim)
    for k in requests:
        power = rc.orbit(k)
        assert np.array_equal(power, cp_apply(rc, np.eye(rc.dim), k))
        with pytest.raises(ValueError):
            power[...] = 0.0


class TestPurity:
    def test_coisometric_tuple_is_not_pure(self):
        rc = validate([np.array([[1 / np.sqrt(2)]]), np.array([[1 / np.sqrt(2)]])])
        res = purity(rc)
        assert not res.is_pure
        assert np.allclose(res.q_limit, np.eye(1))

    def test_nilpotent_tuple_is_pure(self):
        jordan = np.zeros((3, 3))
        jordan[0, 1] = jordan[1, 2] = 1.0
        res = purity(validate([jordan]))
        assert res.is_pure
        assert np.linalg.norm(res.q_limit) == 0.0

    def test_scalar_decay_rate(self):
        # diag(r, 1) has rho(Phi) = 1, so no certificate exists and the walk
        # decides; its stop rule must follow the r^2 decay of the pure part
        r = 0.9
        res = purity(validate([np.diag([r, 1.0])]), tol=1e-10)
        assert res.method == "walk" and res.converged and not res.is_pure
        assert np.linalg.norm(res.q_limit - np.diag([0.0, 1.0])) < 1e-9
        predicted = np.log(1e-10) / np.log(r**2)
        assert res.k_used < 2 * predicted

    def test_certificate_replaces_the_walk(self, monkeypatch):
        calls = []
        real = contractions.cp_apply

        def cp_apply(rc, x, k=1):
            calls.append(k)
            return real(rc, x, k)

        monkeypatch.setattr(contractions, "cp_apply", cp_apply)
        # (1 - 1e-3) x a coisometry: rho(Phi) = (1 - 1e-3)^2, certified by
        # the first bound, the top eigenvalue of sum T_i T_i^*
        res = purity(validate(scaled_coisometry(np.random.default_rng(8), 2, 8, 1.0 - 1e-3)))
        assert (res.method, res.k_used, res.converged, res.is_pure) == ("certified", 1, True, True)
        assert not res.q_limit.any() and calls == []
        # the golden nilpotent pair: Phi^2(I) = 0 certifies Q = 0 at step 2
        golden = [np.array([[0, c / np.sqrt(2)], [0, 0]]) for c in (1, 1j)]
        res = purity(validate(golden))
        assert (res.method, res.k_used) == ("certified", 2) and calls == []
        # a Jordan block: Phi(I) is singular, the bracket gives up, the walk decides
        jordan = np.diag([1.0, 1.0], 1)
        res = purity(validate([jordan]))
        assert (res.method, res.k_used, res.converged, res.is_pure) == ("walk", 4, True, True)
        assert calls == [1] * 4 and not res.q_limit.any()

    def test_certificate_after_step_8_reports_its_checkpoint(self, monkeypatch):
        # no bracket of steps 1..8 is below 1 - PURITY_GAP
        rc = validate(cycle_walk(11, 0.5))
        reads = list(contractions._collatz_wielandt(rc.matrices))
        first = next(step for step, _, hi in reads if hi <= 1.0 - contractions.PURITY_GAP)
        steps = counting_phi_steps(monkeypatch)
        res = purity(rc)
        assert (res.method, res.k_used) == ("certified", first)
        assert res.k_used > 8 and res.k_used % contractions.PERRON_READ_EVERY == 0
        assert len(steps) == res.k_used

    @pytest.mark.parametrize("k_max", [0, -1, 1.5, 10.0, True, "10", None])
    def test_rejects_bad_k_max(self, k_max):
        with pytest.raises(InvalidParameterError):
            purity(validate([np.array([[0.5]])]), k_max=k_max)

    def test_purity_is_scale_consistent(self):
        rng = np.random.default_rng(21)
        mats = [rng.standard_normal((3, 3)) for _ in range(2)]
        norm = np.linalg.norm(np.concatenate(mats, axis=1), 2)
        rc = validate([0.9 * m / norm for m in mats])
        assert purity(rc).is_pure

    def test_rejects_nonpositive_tolerance(self):
        rc = validate([np.zeros((1, 1))])
        with pytest.raises(InvalidParameterError):
            purity(rc, tol=0.0)


class TestSpectralRadius:
    def test_scalar(self):
        assert abs(spectral_radius(validate([np.array([[0.37]])])) - 0.37) < 1e-12

    def test_nilpotent(self):
        jordan = np.zeros((4, 4))
        jordan[0, 1] = jordan[1, 2] = jordan[2, 3] = 1.0
        assert spectral_radius(validate([0.5 * jordan])) < 1e-8

    def test_scaled_unitary_pair(self):
        u1 = np.diag([1.0, np.exp(0.4j)])
        u2 = np.array([[0, 1], [1, 0]], dtype=complex)
        rc = validate([u1 / np.sqrt(2), u2 / np.sqrt(2)])
        assert abs(spectral_radius(rc) - 1.0) < 1e-10

    @pytest.mark.parametrize(
        "mats",
        [
            [],
            [np.zeros((2, 3))],
            [np.zeros((2, 2)), np.zeros((3, 3))],
            [np.array([[0.5, np.nan], [0.0, 0.1]])],
            [np.eye(2), np.array([[np.inf, 0.0], [0.0, 0.0]])],
        ],
        ids=["empty", "not_square", "unequal_sizes", "nan_entry", "inf_entry"],
    )
    def test_rejects_bad_input(self, mats):
        with pytest.raises(InvalidParameterError):
            spectral_radius(mats)

    def test_certified_path_skips_dense_eigvals(self, monkeypatch):
        rng = np.random.default_rng(24)
        pair = [rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24)) for _ in range(2)]
        reference = dense_radius(pair)
        calls = counting_eigvals(monkeypatch)
        value = spectral_radius(pair)
        assert calls == []
        assert abs(value - reference) <= 1e-10 * reference

    def test_bracket_is_read_at_checkpoints(self, monkeypatch):
        # |lambda_2 / lambda_1| = 0.74: the bracket closes at CP step 104, and
        # is read after steps 1..8 and every 8th step after that
        rng = np.random.default_rng(25)
        pair = [rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24)) for _ in range(2)]
        reference = dense_radius(pair)
        reads = counting_cholesky(monkeypatch)
        steps = counting_phi_steps(monkeypatch)
        value = spectral_radius(pair)
        k = len(steps)
        assert k > 8 and len(reads) <= 8 + math.ceil(k / 8)
        assert abs(value - reference) <= 1e-10 * reference

    @pytest.mark.parametrize(
        "mats",
        [[0.5 * np.diag(np.ones(7), 1)], [np.diag(np.linspace(0.1, 0.6, 8)), np.diag(np.linspace(0.5, -0.3, 8))]],
        ids=["nilpotent_jordan", "diagonal_pair"],
    )
    def test_fallback_returns_the_dense_value(self, monkeypatch, mats):
        # the Jordan block's iterate is singular at step 2; the diagonal pair's
        # bracket never narrows and stalls within the stall window
        reference = dense_radius(mats)
        calls = counting_eigvals(monkeypatch)
        steps = counting_phi_steps(monkeypatch)
        assert spectral_radius(mats) == reference
        assert calls == [(64, 64)]
        assert len(steps) <= contractions.PERRON_STALL_STEPS + 8

    def test_known_radius_beyond_the_dense_cutoff(self):
        # T_i = S (c V_i) S^{-1} with [V_1 V_2] a coisometry: Phi_T is similar to
        # c^2 times a unital map, so rho(Phi_T) = c^2 and the radius is c.
        rng = np.random.default_rng(72)
        dim, c = 72, 0.7
        scaled = scaled_coisometry(rng, 2, dim, c)
        s = np.eye(dim) + 0.3 * rng.standard_normal((dim, dim)) / np.sqrt(dim)
        assert np.linalg.cond(s) < 5
        s_inv = np.linalg.inv(s)
        mats = [s @ v @ s_inv for v in scaled]
        assert abs(spectral_radius(mats) - c) <= 1e-10 * c

    def test_block_triangular_tuple_beyond_the_dense_cutoff(self, monkeypatch):
        # Phi of a block upper-triangular pair leaves the upper-left block
        # invariant, so rho(Phi) is the larger of the radii of the two diagonal
        # blocks (each irreducible, dim 36); dim 72 is past the dense cutoff.
        rng = np.random.default_rng(5)

        def gaussian():
            return rng.standard_normal((36, 36)) + 1j * rng.standard_normal((36, 36))

        mats = [np.block([[gaussian(), gaussian()], [np.zeros((36, 36)), 0.9 * gaussian()]]) for _ in range(2)]
        mats = [t / np.linalg.norm(np.hstack(mats), 2) for t in mats]
        reference = max(dense_radius([t[:36, :36] for t in mats]), dense_radius([t[36:, 36:] for t in mats]))
        calls = counting_eigvals(monkeypatch)
        assert abs(spectral_radius(mats) - reference) <= 1e-10 * reference
        assert calls == []

    @pytest.mark.parametrize("a, b", [(1.0, 0.5), (1.0, 0.01)])
    def test_imprimitive_tuple_beyond_the_dense_cutoff(self, a, b):
        # T_1 = a [[0, I], [0, 0]], T_2 = b [[0, 0], [I, 0]] with I of dim 36:
        # Phi swaps the diagonal blocks, Phi^2 = a^2 b^2 on them, so the traces
        # of the power iteration alternate and rho(Phi) = ab.
        eye, zero = np.eye(36), np.zeros((36, 36))
        mats = [a * np.block([[zero, eye], [zero, zero]]), b * np.block([[zero, zero], [eye, zero]])]
        expected = np.sqrt(a * b)
        assert abs(spectral_radius(mats) - expected) <= 1e-12 * expected

    def test_reducible_tuple_beyond_the_dense_cutoff(self):
        # diagonal pair: the bracket stalls, and the power iteration converges
        # at the rate of the two largest of the 72 radii
        d1, d2 = np.linspace(0.1, 0.6, 72), np.linspace(0.5, -0.3, 72)
        expected = np.sqrt(np.max(d1**2 + d2**2))
        assert abs(spectral_radius([np.diag(d1), np.diag(d2)]) - expected) <= 1e-12


class TestCheckConstraints:
    def test_commuting_diagonals(self):
        rc = validate([np.diag([0.2, 0.3]), np.diag([0.1, -0.4])])
        assert max(check_constraints(rc, commutator_generators(2))) < 1e-15

    def test_noncommuting_pair_reports_commutator_norm(self):
        a = np.array([[0, 0.5], [0, 0]])
        b = np.array([[0.5, 0], [0, -0.5]])
        rc = validate([a, b])
        expected = np.linalg.norm(a @ b - b @ a, 2)
        res = check_constraints(rc, [NcPolynomial({Word((1, 2)): 1.0, Word((2, 1)): -1.0})])
        assert abs(res[0] - expected) < 1e-14


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95))
def test_scalar_purity_limit_is_zero(r):
    res = purity(validate([np.array([[r]])]), tol=1e-8)
    assert res.is_pure


def reference_walk(mats):
    """Phi^k(I) at k = 2^17 (131 072 steps) and k = 2^40: the dense
    dim^2 x dim^2 matrix of Phi (row-major vec, vec(T X T^*) = (T kron
    conj(T)) vec(X)) raised to k by repeated squaring, applied to vec(I).
    The short walk is compared with a converged walk; the long one, where
    rounding has drifted a unit-modulus eigenvalue by about k * eps, decides
    only whether the orbit tends to 0."""
    dim = mats[0].shape[0]
    m = sum(np.kron(t, t.conj()) for t in mats)
    powers = {}
    for j in range(1, 41):
        m = m @ m
        powers[j] = m
    return [(powers[j] @ np.eye(dim).reshape(-1)).reshape(dim, dim) for j in (17, 40)]


def purity_family(family, n, dim, seed, exponent):
    """A tuple of the family and whether rho(Phi) = 1. ``exponent`` in [0, 1]
    sets the family's scale: the row norm 1 - 10^-(0.05 + 5.95 exponent) of a
    strict contraction, eps = 10^-(3 + 3 exponent) of a near-coisometry, the
    condition number 10^(6 exponent) of the similarity on the strict block."""
    rng = np.random.default_rng(seed)

    def gaussian(d):
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    def to_row_norm(mats, r):
        top = np.linalg.norm(np.concatenate(mats, axis=1), 2)
        return [m * (r / top) for m in mats] if top > 0 else mats

    if family == "strict":
        return to_row_norm([gaussian(dim) for _ in range(n)], 1.0 - 10.0 ** -(0.05 + 5.95 * exponent)), False
    if family == "near_coisometric":
        return scaled_coisometry(rng, n, dim, 1.0 - 10.0 ** -(3.0 + 3.0 * exponent)), False
    if family == "nilpotent":
        w = np.linalg.qr(gaussian(dim))[0]
        scale = rng.choice([1.0, rng.uniform(0.1, 1.0)])
        mats = to_row_norm([np.triu(gaussian(dim), 1) for _ in range(n)], scale)
        return [w @ m @ w.conj().T for m in mats], False
    if family == "coisometry":
        return scaled_coisometry(rng, n, dim), True
    # a coisometric block plus a strict block, mixed by a unitary. For a row
    # contraction with rho(Phi) = 1 the coisometric part always reduces the
    # tuple (Popescu's decomposition), so the similarity of condition number
    # 10^(6 exponent) acts inside the strict block. The two blocks fill dim + 1.
    du = int(rng.integers(1, dim + 1))
    ds = dim + 1 - du
    sim = np.linalg.qr(gaussian(ds))[0] @ np.diag(np.logspace(0, 6 * exponent, ds))
    sim = sim @ np.linalg.qr(gaussian(ds))[0]
    sim_inv = np.linalg.inv(sim)
    strict = [sim @ g @ sim_inv for g in (gaussian(ds) for _ in range(n))]
    if rng.random() < 0.3:
        strict = [np.triu(c, 1) for c in strict]
    strict = to_row_norm(strict, rng.uniform(0.05, 0.95))
    w = np.linalg.qr(gaussian(du + ds))[0]
    mats = [w @ np.block([[u, np.zeros((du, ds))], [np.zeros((ds, du)), c]]) @ w.conj().T
            for u, c in zip(scaled_coisometry(rng, n, du), strict)]
    return mats, True


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["strict", "near_coisometric", "nilpotent", "coisometry", "unitary_plus_strict"]),
    st.integers(1, 3),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 1.0),
)
def test_certified_purity_matches_a_long_dense_walk(family, n, dim, seed, exponent):
    mats, peripheral = purity_family(family, n, dim, seed, exponent)
    res = purity(validate(mats))
    walk, long_walk = reference_walk(mats)
    if res.method == "certified":
        assert not peripheral
        assert not res.q_limit.any() and res.is_pure and res.converged
        assert np.linalg.norm(long_walk, 2) < 1e-8
    elif res.converged:
        assert np.linalg.norm(res.q_limit - walk, 2) < 1e-8
    if family in ("strict", "near_coisometric"):
        # row norm below 1 - PURITY_GAP: the first bound certifies
        assert (res.method, res.k_used) == ("certified", 1)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["random", "nilpotent", "diagonal", "scaled_unitary"]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_spectral_radius_matches_dense_reference(family, n, dim, seed):
    mats = family_tuple(family, n, dim, seed)
    reference = dense_radius(mats)
    assert abs(spectral_radius(mats) - reference) <= 1e-10 * reference
