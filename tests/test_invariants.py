import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fockbench.invariants as invariants_mod
from fockbench import (
    PurityResult,
    TruncatedFock,
    Word,
    arveson_curvature,
    assemble,
    build_constrained_subspace,
    characteristic_coefficients,
    commutator_generators,
    curvature_phi,
    curvature_theta,
    euler_phi,
    validate,
)
from fockbench._linalg import spectral_norm
from fockbench.errors import InvalidParameterError, PreconditionError
from words_reference import IDENTITY_WORD, coefficient, enumerate_words, fock_assemble, matrix_rank


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
        traces = [float(np.trace(rc.orbit(m)).real) for m in range(10)]
        gaps = [traces[0] - traces[m] for m in range(1, 9)]
        assert all(g2 >= g1 - 1e-12 for g1, g2 in zip(gaps, gaps[1:]))
        assert curvature_phi(rc, 8).sequence == [g / (2**m - 1) for m, g in enumerate(gaps, start=1)]

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
            rep = curvature_theta(rc, 4)
            assert max(rep.extras["cross_check_vs_phi"]) < 1e-8

    def test_coisometric_anchor(self):
        rep = curvature_theta(coisometric_pair(), 3)
        assert all(x == 0.0 for x in rep.sequence)

    def test_theta_euler_ranks_shift_against_phi_ranks(self):
        # rank[(I - Theta Theta^*)(P_{<=m} tensor I)] telescopes to
        # rank[I - Phi^(m+1)(I)]: the two routes agree up to that index shift.
        rc = nilpotent_commuting_pair()
        rep_t = curvature_theta(rc, 4)
        rep_p = euler_phi(rc, 5)
        assert [d.rank for d in rep_t.extras["euler_decisions"]] == rep_p.extras["ranks"][1:5]

    def test_rejects_bad_m_max(self):
        with pytest.raises(InvalidParameterError):
            curvature_theta(coisometric_pair(), 0)


def test_curvature_routes_share_one_orbit(monkeypatch):
    # phi and the theta cross-check need Phi^m(I) up to m_max + 1: read from
    # one orbit, that is m_max + 1 CP steps in total.
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
    curvature_theta(rc, m_max)
    assert 0 < sum(steps) <= m_max + 1


# --- the symmetric-truncation reference for arveson_curvature ---------------
#
# Routes (b) and (c) of arveson_curvature on a private occupation-number
# basis of the symmetric Fock space, with its own creation matrices; the
# library computes the same sequences on N_J of the commutator ideal.


def _multisets(n, m):
    """Occupation vectors (mu_1..mu_n) with total m, in lexicographic order."""
    if n == 1:
        return [(m,)]
    out = []
    for first in range(m, -1, -1):
        for rest in _multisets(n - 1, m - first):
            out.append((first,) + rest)
    return out


def coefficient_items(op):
    """(beta, theta_beta) for every stored coefficient: the entry at basis
    word rho is the coefficient of reverse(rho)."""
    return [(rho.reverse(), theta) for rho, theta in zip(enumerate_words(op.n, op.max_degree), op.coefficients)]


def walk_order(item):
    """Sort key putting coefficient words gamma*g_i in the order of a
    depth-first walk over the prefixes gamma (the order the pruned walk below
    sums them in): prefixes in preorder, then the last letter."""
    letters = item[0].letters
    return letters[:-1], letters[-1]


class SymmetricTruncation:
    """Occupation-number basis of the symmetric subspace up to a degree, with
    the compressed creation tuple acting by sqrt((mu_i+1)/(m+1)) transitions."""

    def __init__(self, n, max_degree):
        self.n = n
        self.max_degree = max_degree
        self.states = []
        self.slice_dims = []
        for m in range(max_degree + 1):
            block = _multisets(n, m)
            self.states.extend(block)
            self.slice_dims.append(len(block))
        self.index = {s: k for k, s in enumerate(self.states)}
        self.degrees = np.array([sum(s) for s in self.states], dtype=int)

    @property
    def dim(self):
        return len(self.states)

    def creation(self, i):
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        for col, mu in enumerate(self.states):
            m = sum(mu)
            if m >= self.max_degree:
                continue
            nu = list(mu)
            nu[i - 1] += 1
            mat[self.index[tuple(nu)], col] = math.sqrt((mu[i - 1] + 1) / (m + 1))
        return mat


def _symmetric_char_matrix(rc, sym):
    """Characteristic function assembled on the symmetric truncation: the
    compressed creation operators commute, so the word sum collapses to one
    coefficient sum per occupation class."""
    op = characteristic_coefficients(rc, sym.max_degree)
    class_sums = {}
    for beta, theta in sorted(coefficient_items(op)[1:], key=walk_order):
        occ = tuple(beta.letters.count(i) for i in range(1, rc.n + 1))
        class_sums[occ] = class_sums[occ] + theta if occ in class_sums else theta

    creations = [sym.creation(i) for i in range(1, rc.n + 1)]
    out = np.kron(np.eye(sym.dim, dtype=complex), coefficient(op, IDENTITY_WORD))
    powers = {tuple([0] * rc.n): np.eye(sym.dim, dtype=complex)}
    for m in range(1, sym.max_degree + 1):
        for mu in _multisets(rc.n, m):
            j = next(k for k, c in enumerate(mu) if c > 0)
            parent = list(mu)
            parent[j] -= 1
            powers[mu] = powers[tuple(parent)] @ creations[j]
            out += np.kron(powers[mu], class_sums[mu])
    return out


def symmetric_reference_sequences(rc, m_max):
    """(qm_sequence, euler_sequence) of arveson_curvature on the symmetric
    truncation."""
    sym = SymmetricTruncation(rc.n, m_max)
    theta = _symmetric_char_matrix(rc, sym)
    tgt = rc.defect_rank
    gram = theta @ theta.conj().T
    resid_full = np.eye(gram.shape[0]) - gram
    qm_seq, euler_seq = [], []
    for m in range(1, m_max + 1):
        rows = np.repeat(sym.degrees == m, tgt)
        slice_trace = float(np.trace(gram[np.ix_(rows, rows)]).real)
        qm_seq.append(math.factorial(rc.n - 1) * (sym.slice_dims[m] * tgt - slice_trace) / m ** (rc.n - 1))
        rank = matrix_rank(resid_full[:, np.repeat(sym.degrees <= m, tgt)])
        euler_seq.append(math.factorial(rc.n) * rank / m**rc.n)
    return qm_seq, euler_seq


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
    def test_requires_commutativity(self):
        a = np.array([[0, 0.5], [0, 0]])
        b = np.array([[0.5, 0], [0, -0.5]])
        with pytest.raises(PreconditionError):
            arveson_curvature(validate([a, b]))

    @pytest.mark.parametrize("sizes", [
        {"m_max": -1}, {"r_values": (0.9, float("nan"))}, {"m_max": 0}, {"r_values": ()},
        {"r_values": (1.0,)}, {"r_values": (0.9, 1.5)}, {"r_values": (-0.5,)}, {"r_values": (0.0,)},
    ])
    def test_rejects_bad_sizes(self, sizes):
        with pytest.raises(InvalidParameterError):
            arveson_curvature(nilpotent_commuting_pair(), **{"m_max": 2, **sizes})

    def test_coisometric_estimates_vanish(self):
        rep = arveson_curvature(coisometric_pair(), m_max=4)
        assert all(abs(value) < 1e-12 for value, _ in rep.boundary.values())
        assert all(abs(x) < 1e-12 for x in rep.qm_sequence)

    def test_scalar_zero_normalized_anchor_and_trajectory(self):
        rc = validate([np.zeros((1, 1))])
        rep = arveson_curvature(rc, m_max=4)
        # the integrand is exactly (1 - r^2), so the Szego-normalized anchor is
        # 1; Phi(I) = 0 ends the series after one step with no tail
        assert rep.orbit_steps == 1
        for r, (value, tail) in rep.boundary.items():
            assert abs(value / (1.0 - r * r) / rc.defect_rank - 1.0) < 1e-12
            assert abs(value - (1.0 - r * r)) < 1e-15 and tail == 0.0

    def test_exact_series_is_reproducible(self):
        rc = validate([np.diag([0.4, 0.1]), np.diag([0.1, 0.3])])
        rep1 = arveson_curvature(rc, m_max=4)
        rep2 = arveson_curvature(rc, m_max=4)
        assert rep1.boundary == rep2.boundary
        assert rep1.qm_sequence == rep2.qm_sequence

    def test_nilpotent_pair_methods_agree(self):
        rep = arveson_curvature(nilpotent_commuting_pair(), m_max=6)
        assert rep.deviations["boundary_vs_qm"] < 2e-2

    def test_non_pure_pair_stops_at_the_cap_and_grows_no_cache(self):
        """Without a converged purity limit the series bounds its tail by t_M:
        the coisometric pair has trace Phi^m(I) = 1 for every m, so at
        r = 0.999 the bound 0.002 * 0.998^M stays above 1e-15 until the step
        cap; the walk beyond the powers the slice check cached is local."""
        rc, m_max = coisometric_pair(), 4
        rc._purity = PurityResult(np.eye(1, dtype=complex), False, 10_000, False, "walk")
        rep = arveson_curvature(rc, m_max=m_max, r_values=(0.999,))
        _, tail = rep.boundary[0.999]
        assert rep.orbit_steps == invariants_mod.BOUNDARY_MAX_STEPS == 10_000 and tail > 1e-15
        assert len(rc._orbit) <= m_max + 2

    @pytest.mark.parametrize("mats", [
        [np.array([[0.6]]), np.array([[0.8]])],
        [np.diag([0.6, 0.3]), np.diag([0.8, 0.4])],
    ], ids=["scalar_pair", "diagonal_pair"])
    def test_non_pure_tuples_stop_at_their_purity_limit(self, mats):
        """A tuple with a coisometric part walks only until t_M reaches
        trace Q, and every bound is at most 1e-15. The capped walk sums the
        same non-negative terms and more, so its value exceeds this one by at
        most this one's bound."""
        rep = arveson_curvature(validate(mats), m_max=2)
        capped_rc = validate(mats)
        capped_rc._purity = PurityResult(np.zeros((capped_rc.dim,) * 2, dtype=complex), False, 1, False, "walk")
        capped = arveson_curvature(capped_rc, m_max=2)
        assert rep.orbit_steps <= 100 and capped.orbit_steps == invariants_mod.BOUNDARY_MAX_STEPS
        for r, (value, tail) in rep.boundary.items():
            assert tail <= 1e-15
            assert -1e-15 <= capped.boundary[r][0] - value <= tail + 1e-15

    @pytest.mark.parametrize("rc", [
        validate([np.diag([0.4, 0.1]), np.diag([0.1, 0.3])]),
        validate([np.diag([0.3, -0.2 + 0.1j, 0.05]), np.diag([0.1j, 0.35, -0.2]), np.diag([0.2, 0.1, 0.4j])]),
    ], ids=["diagonal_pair", "diagonal_triple"])
    def test_series_is_within_its_tail_bound_of_the_long_sum(self, rc):
        """The reported value plus its tail bound brackets the sum of the
        first 400 terms, formed term by term with exact binomials."""
        traces = [float(np.trace(rc.orbit(m)).real) for m in range(401)]
        rep = arveson_curvature(rc, m_max=2)
        assert rep.orbit_steps < 400
        for r, (value, tail) in rep.boundary.items():
            long_sum = (1 - r * r) * sum(r ** (2 * m) * (traces[m] - traces[m + 1]) / math.comb(rc.n - 1 + m, m)
                                         for m in range(400))
            assert tail <= 1e-15
            assert value - 1e-15 <= long_sum <= value + tail + 1e-15


    def test_symmetric_theta_matches_full_compression(self):
        # two-path check of the symmetric reference at a small degree
        rc = validate([np.diag([0.3, -0.2]), np.diag([0.15, 0.25])])
        top = 3
        sym = SymmetricTruncation(2, top)
        theta_sym = _symmetric_char_matrix(rc, sym)
        f = TruncatedFock(2, top)
        cs = build_constrained_subspace(f, commutator_generators(2))
        theta_cs = assemble(characteristic_coefficients(rc, top), cs=cs)
        # both are the compression of the same operator; compare singular values
        sv1 = np.linalg.svd(theta_sym, compute_uv=False)
        sv2 = np.linalg.svd(theta_cs, compute_uv=False)
        assert np.allclose(sorted(sv1), sorted(sv2), atol=1e-10)


@pytest.mark.parametrize("rc,m_max", [
    (validate([np.diag([0.4, 0.1]), np.diag([0.1, 0.3])]), 6),
    (validate([np.diag([0.3, -0.2 + 0.1j, 0.05]), np.diag([0.1j, 0.35, -0.2]), np.diag([0.2, 0.1, 0.4j])]), 5),
    (nilpotent_commuting_pair(), 6),
    (coisometric_pair(), 4),
    (validate([np.array([[0.5, 0.2], [0.0, -0.3]])]), 5),
    (validate([np.zeros((1, 1))]), 4),
], ids=["diagonal_pair", "diagonal_triple", "nilpotent_pair", "coisometric_pair", "n1_jordan", "n1_zero"])
def test_arveson_matches_the_symmetric_reference(rc, m_max):
    rep = arveson_curvature(rc, m_max=m_max)
    qm_ref, euler_ref = symmetric_reference_sequences(rc, m_max)
    assert rep.euler_sequence == euler_ref
    for got, ref in zip(rep.qm_sequence, qm_ref, strict=True):
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


# --- the symmetric reference reads the one Neumann word walk ------------------


def pruned_walk_char_matrix(rc, sym):
    """The symmetric assembly as it was built on a private word walk that
    dropped every branch whose product had spectral norm at most 1e-16.

    Returns the matrix and the number of non-constant coefficients summed."""
    op0 = characteristic_coefficients(rc, 1)
    class_sums = {}
    d = rc.dim
    blocks = [rc.delta_star[(i - 1) * d : i * d, :] @ rc.defect_star_basis for i in range(1, rc.n + 1)]
    reduced = rc.defect_basis.conj().T @ rc.delta
    summed = 0

    def walk(gamma, m_gamma):
        nonlocal summed
        for i in range(1, rc.n + 1):
            letters = gamma + (i,)
            occ = tuple(letters.count(a) for a in range(1, rc.n + 1))
            coeff = m_gamma @ blocks[i - 1]
            class_sums[occ] = class_sums[occ] + coeff if occ in class_sums else coeff
            summed += 1
        if len(gamma) + 1 < sym.max_degree:
            for j in range(1, rc.n + 1):
                nxt = m_gamma @ rc.matrices[j - 1].conj().T
                if spectral_norm(nxt) > 1e-16:
                    walk(gamma + (j,), nxt)

    walk((), reduced)
    creations = [sym.creation(i) for i in range(1, rc.n + 1)]
    out = np.kron(np.eye(sym.dim, dtype=complex), coefficient(op0, Word(())))
    powers = {tuple([0] * rc.n): np.eye(sym.dim, dtype=complex)}
    for m in range(1, sym.max_degree + 1):
        for mu in _multisets(rc.n, m):
            j = next(k for k, c in enumerate(mu) if c > 0)
            parent = list(mu)
            parent[j] -= 1
            powers[mu] = powers[tuple(parent)] @ creations[j]
            if mu in class_sums:
                out += np.kron(powers[mu], class_sums[mu])
    return out, summed


# Entries are exact zeros or bounded away from zero, so every walk product is
# either an exact zero (where pruning fires) or far above the 1e-16 cut.
_entries = st.one_of(
    st.just(0j),
    st.builds(lambda r, phase: r * np.exp(1j * phase), st.floats(0.1, 1.0), st.floats(0.0, 6.3)),
)


def _scaled(mats, row_norm):
    norm = np.linalg.norm(np.concatenate(mats, axis=1), 2)
    return validate([m * (row_norm / norm) for m in mats] if norm > 0 else mats)


@st.composite
def diagonal_tuples(draw):
    n = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 3))
    mats = [np.diag(draw(st.lists(_entries, min_size=dim, max_size=dim))) for _ in range(n)]
    return _scaled(mats, draw(st.floats(0.3, 0.9)))


@st.composite
def nilpotent_pairs(draw):
    dim = draw(st.integers(2, 3))
    mats = []
    for _ in range(2):
        t = np.zeros((dim, dim), dtype=complex)
        t[np.triu_indices(dim, 1)] = draw(st.lists(_entries, min_size=dim * (dim - 1) // 2,
                                                   max_size=dim * (dim - 1) // 2))
        mats.append(t)
    return _scaled(mats, draw(st.floats(0.3, 0.9)))


@settings(max_examples=40, deadline=None)
@given(st.one_of(diagonal_tuples(), nilpotent_pairs()), st.integers(1, 5))
def test_symmetric_assembly_matches_the_pruned_walk(rc, m_max):
    sym = SymmetricTruncation(rc.n, m_max)
    expected, _ = pruned_walk_char_matrix(rc, sym)
    assert np.array_equal(_symmetric_char_matrix(rc, sym), expected)


def test_pruned_walk_dropped_only_exact_zeros_on_the_nilpotent_pair():
    rc = nilpotent_commuting_pair()
    sym = SymmetricTruncation(2, 4)
    expected, summed = pruned_walk_char_matrix(rc, sym)
    op = characteristic_coefficients(rc, 4)
    # the walk stopped after length 2; the 24 longer coefficients are exact zeros
    assert summed == 6 and len(op.coefficients) - 1 == 30
    assert all(not theta.any() for beta, theta in coefficient_items(op) if len(beta) > 2)
    assert np.array_equal(_symmetric_char_matrix(rc, sym), expected)


@pytest.mark.parametrize("rc", [nilpotent_commuting_pair(), validate([np.diag([0.3, 0.1]), np.diag([0.2, 0.4])])],
                         ids=["nilpotent_pair", "diagonal_pair"])
def test_arveson_m_max_1_is_the_first_entry_of_m_max_2(rc):
    one = arveson_curvature(rc, m_max=1)
    two = arveson_curvature(rc, m_max=2)
    assert one.qm_sequence == two.qm_sequence[:1]
    assert one.euler_sequence == two.euler_sequence[:1]


def test_arveson_walks_the_coefficients_once(monkeypatch):
    calls = []
    original = invariants_mod.characteristic_coefficients

    def counting(rc, max_degree):
        calls.append(max_degree)
        return original(rc, max_degree)

    monkeypatch.setattr(invariants_mod, "characteristic_coefficients", counting)
    arveson_curvature(nilpotent_commuting_pair(), m_max=5)
    assert calls == [5]


# --- one reader of I - Theta Theta^*, against the full-column reading --------


def column_reference(rc, m_max, generators):
    """The reading the shared helper replaced: Theta at truncation m_max + 1,
    slice traces from its Gram matrix, and Euler ranks of the degree <= m
    column blocks of the whole I - Theta Theta^*."""
    fock = TruncatedFock(rc.n, m_max + 1)
    op = characteristic_coefficients(rc, m_max + 1)
    if generators:
        cs = build_constrained_subspace(fock, generators)
        theta, degrees = assemble(op, cs=cs), cs.basis_degrees
    else:
        theta, degrees = fock_assemble(op, fock), fock.degrees
    degrees = np.repeat(degrees, op.target_dim)
    gram = theta @ theta.conj().T
    resid_full = np.eye(gram.shape[0]) - gram
    traces, ranks = [], []
    for m in range(1, m_max + 1):
        rows = degrees == m
        traces.append(float(np.trace(gram[np.ix_(rows, rows)]).real))
        ranks.append(matrix_rank(resid_full[:, degrees <= m]))
    return traces, ranks


@st.composite
def general_tuples(draw):
    n = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 3))
    mats = [np.array(draw(st.lists(_entries, min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim)
            for _ in range(n)]
    return _scaled(mats, draw(st.floats(0.3, 0.99)))


@st.composite
def commuting_tuples(draw):
    """S D_i S^-1 with diagonal D_i and a unipotent upper-triangular S:
    commuting, and non-normal when S is not diagonal."""
    n = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 3))
    s = np.eye(dim, dtype=complex)
    s[np.triu_indices(dim, 1)] = draw(st.lists(_entries, min_size=dim * (dim - 1) // 2,
                                               max_size=dim * (dim - 1) // 2))
    s_inv = np.linalg.inv(s)
    mats = [s @ np.diag(draw(st.lists(_entries, min_size=dim, max_size=dim))) @ s_inv for _ in range(n)]
    return _scaled(mats, draw(st.floats(0.3, 0.99)))


SHIFT_6 = np.diag(np.ones(5), -1).astype(complex)
JORDAN_4 = np.diag(np.ones(3), 1).astype(complex)


# m_max = 1 on N_J reads degree 1 of Theta assembled at the commutators' degree 2.
# The examples have Euler ranks that grow with m (the shift pair 2, 3, 4, 5, 6, 6
# and the Jordan block 2, 3, 4, 4, 4, 4), stay at dim H (the zero tuple) or are 0
# (a coisometry, whose row defect is 0).
@settings(max_examples=30, deadline=None)
@given(st.one_of(
    st.tuples(general_tuples(), st.just(False), st.integers(1, 4)),
    st.tuples(commuting_tuples(), st.just(True), st.integers(1, 4)),
))
@example((validate([SHIFT_6 / np.sqrt(2)] * 2), False, 6))
@example((validate([SHIFT_6 / np.sqrt(2)] * 2), True, 6))
@example((validate([JORDAN_4]), False, 6))
@example((validate([np.zeros((2, 2))] * 2), False, 4))
@example((validate([np.zeros((2, 2))] * 2), True, 4))
@example((coisometric_pair(), False, 4))
@example((coisometric_pair(), True, 4))
def test_principal_block_ranks_equal_the_column_block_ranks(case):
    """The probe's Euler ranks and the coefficient-norm slice traces against
    the dense reading of the whole I - Theta Theta^*."""
    rc, on_nj, m_max = case
    generators = commutator_generators(rc.n) if on_nj else []
    traces, ranks = column_reference(rc, m_max, generators)
    got = invariants_mod._theta_defect_by_degree(rc, m_max, generators)
    assert [decision.rank for _, _, decision in got] == ranks
    for (slice_dim, trace, _), ref in zip(got, traces, strict=True):
        assert abs(trace - ref) <= 1e-12 * max(1, slice_dim)


def test_the_shift_pair_ranks_grow_to_dim_h():
    got = invariants_mod._theta_defect_by_degree(validate([SHIFT_6 / np.sqrt(2)] * 2), 6)
    assert [decision.rank for _, _, decision in got] == [2, 3, 4, 5, 6, 6]


def test_each_rank_decision_reports_its_probe_gap():
    """The gap brackets the cutoff: the smallest value counted as nonzero is
    above it, the largest counted as zero below it, None on an empty side."""
    for rc in (validate([SHIFT_6 / np.sqrt(2)] * 2), validate([np.zeros((2, 2))] * 2), coisometric_pair()):
        for _, _, (rank, zero_max, nonzero_min) in invariants_mod._theta_defect_by_degree(rc, 4):
            assert (nonzero_min is None) == (rank == 0)
            if zero_max is not None and nonzero_min is not None:
                assert zero_max <= 1e-9 * nonzero_min
    assert all(decision[1:] == (None, None) for _, _, decision in
               invariants_mod._theta_defect_by_degree(coisometric_pair(), 4))


def test_curvature_theta_reads_a_3x3_triple_at_m_max_7():
    """Degree <= 7 on the Fock space of three letters has dimension 3280, so
    Theta Theta^* would be 9840^2 complex entries; the reader forms neither
    it nor Theta."""
    rng = np.random.default_rng(7)
    rc = _scaled([rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3)], 0.85)
    rep = curvature_theta(rc, 7)
    assert max(rep.extras["cross_check_vs_phi"]) <= 1e-12
    assert [d.rank for d in rep.extras["euler_decisions"]] == [3] * 7


# --- the Monte-Carlo boundary integral, kept as the oracle of the series ------


def monte_carlo_boundary(rc, r, samples, seed):
    """The estimator the exact series replaced: the mean over uniform sphere
    samples xi of (1 - r^2) |(I - r sum conj(xi_i) T_i)^{-1} Delta|_F^2, and
    its standard error."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((samples, rc.n)) + 1j * rng.standard_normal((samples, rc.n))
    z = r * g / np.linalg.norm(g, axis=1, keepdims=True)
    a = np.eye(rc.dim) - np.einsum("si,ijk->sjk", z.conj(), np.stack(rc.matrices))
    y = np.linalg.solve(a, np.broadcast_to(rc.delta, a.shape))
    integrand = (1.0 - r * r) * np.sum(np.abs(y) ** 2, axis=(1, 2))
    return float(integrand.mean()), float(integrand.std(ddof=1) / np.sqrt(samples))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(diagonal_tuples(), commuting_tuples()), st.sampled_from([0.5, 0.9, 0.99]))
def test_boundary_series_matches_the_monte_carlo_oracle(rc, r):
    """Diagonal and non-normal commuting tuples: the series is within four
    standard errors of 4000 sphere samples (a constant integrand, as for the
    zero tuple, has standard error 0 and is met to rounding)."""
    value, tail = arveson_curvature(rc, m_max=1, r_values=(r,)).boundary[r]
    estimate, stderr = monte_carlo_boundary(rc, r, 4000, seed=0)
    assert tail <= 1e-15
    assert abs(value - estimate) <= 4.0 * stderr + 1e-12
