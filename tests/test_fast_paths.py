"""Each fast path pinned to the dense path it replaced.

The per-degree child rows for the free shifts and the degree-by-degree Fock
assembly rearrange the same floating-point operations, so those comparisons
are ``np.array_equal``, not a tolerance. N_J is stored as its slice bases and
its shifts as their blocks Q_{m+1}[children]^* Q_m; the former Fock-row
representation (the scattered basis Q, the whole-space child map and
Q^* S_i Q, in ``words_reference``) is kept as the oracle, and the shift blocks
of both sides, the kernel compression, its range containment and the three
``shifts`` check values are pinned against it to 1e-13. The shared word walk (``word_products``) is
pinned against the per-word parent recursions it replaced, kept here as
references, and each reference against the dense ``word_operator`` of every
word: bit for bit where the walk associates the products the same way (the
walk itself and the Θ coefficients), under a computed rounding budget where
it does not (the Poisson kernel, whose old recursion multiplied the adjoints
before the defect root). The constrained assembly compresses each Fock
block to the slice bases by two products, a different association than the
word products of compressed shifts, so it is pinned under a computed rounding
budget. The slice recursion for the constrained subspace computes a different
orthonormal basis of the same space, so it is pinned basis-free, to 1e-12:
equal slice dimensions, principal angles, and shifts unitarily similar to
those of the dense complement of each ideal slice. The ideal slices
themselves are a dense reference built here, pinned bit for bit against the
per-word ideal columns S_alpha p(S) S_beta (vacuum), kept here as a
reference. Every generator is homogeneous; the ``ideals()`` strategy draws
random custom ones beside the named ideals. The shift action on kernel rows
(``shift_adjoints``) is pinned against the dense lift (S_i^* (x) I) x: bit for
bit on the Fock space, where it is a gather, and under a computed rounding
budget on N_J, where it is one product on a reshape instead of a Kronecker
product. The library never forms the Fock-space Theta or Theta Theta^*;
the oracles ``fock_assemble`` and ``fock_theta_gram`` (``words_reference``)
do. The strided assembly is pinned against the per-word placement loop bit
for bit. Theta Theta^* written from the degree blocks (``_gram_blocks``)
sums the same products as the dense product of the assembled Theta in
another order, so it is pinned under a computed rounding budget, on tuples
whose defects are zero too; the scenario's Theta Theta^* on N_J is the
product of the assembled Theta, bit for bit. The one-step recursion, block
(a, b) = Theta_a Theta_b^* + I_n (x) block (a-1, b-1), adds the same
products as the loop that added each into every block it reaches, with the
operands of each addition commuted, so it is pinned against that loop, kept
here as a reference, bit for bit. The Fock-space truncated factorization
sums the residual norms of those blocks plus K_a K_b^* without forming
Theta Theta^*; it is pinned against the dense ||Theta Theta^* + K K^* - I||_F,
kept here as a reference: the same verdict unperturbed, and 1e-6 relative
under a perturbation. The model space is the range of the seeded probe
(I - Theta Theta^*) Omega instead of the left singular vectors of the rank K
smallest singular values of Theta, so it is pinned against that SVD, kept
here as a reference: the same model dimension, and projectors within a
computed rounding budget over the eigenvalue gap. On the Fock space it is
also pinned against the former route, the eigh of the dense Gram split at
the rank of K (``words_reference.eigh_model``): the same model dimension,
and the block-walked complement residual equal to the dense one to
rounding. The Pick matrix is one
broadcast over a k x k stack of target products instead of a loop over its
blocks, pinned against that loop, kept here as a reference, entrywise within
4 eps of its largest entry and Hermitian bit for bit; the pairwise-distance
test for coincident points is pinned against the pair loop it replaced. The
one ``rank_decision`` is pinned against the four rank rules it replaced
(``words_reference``) on planted spectra around each floor, at each site:
the same rank everywhere except Q's band (1e-11, 1e-10], which the dilation
counted as its Cuntz part and which now, as in the Wold decomposition,
counts as zero.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fockbench.charfn as charfn_mod
import fockbench.contractions as contractions_mod
import fockbench.poisson as poisson_mod
from fockbench import (
    NcPolynomial,
    PickProblem,
    ThetaAction,
    TruncatedFock,
    Word,
    assemble,
    build_constrained_subspace,
    characteristic_coefficients,
    commutator_generators,
    constrained_shifts,
    constrained_poisson_kernel,
    model_space,
    pick_matrix,
    poisson_kernel,
    q_commutator_generators,
    shift_adjoints,
    validate,
    verify_truncated_factorization,
    word_length_generators,
    word_operator,
)
from fockbench._linalg import (
    complement_basis,
    principal_angles,
    range_basis,
    rank_decision,
    spectral_norm,
    svd_positive,
)
from fockbench.cli import RunContext
from fockbench.errors import DegenerateInputError, InvalidParameterError, PreconditionError
from fockbench.ideals import _generator_matrix, ideal_orthogonality, shift_matrices
from fockbench.poisson import _radial_defect
from fockbench.words import word_products
from parsed_run import run_parsed
from words_reference import (
    IDENTITY_WORD,
    child_map,
    dense_constrained_shifts,
    enumerate_words,
    cuntz_rank,
    defect_rank,
    eigh_model,
    fock_assemble,
    fock_row_basis,
    fock_theta_gram,
    model_split,
    numerical_rank,
    wold_null_dim,
)

EPS = np.finfo(float).eps


def dense_creation(fock, side, i):
    """The word-by-word creation matrix, as built before the child map."""
    g = Word((i,))
    mat = np.zeros((fock.dim, fock.dim), dtype=complex)
    for col, w in enumerate(enumerate_words(fock.n, fock.max_degree)):
        if len(w) >= fock.max_degree:
            continue
        mat[fock.word_index(g * w if side == "left" else w * g), col] = 1.0
    return mat


def coefficient_items(op):
    """(beta, theta_beta) for every stored coefficient: the entry at basis
    word rho is the coefficient of reverse(rho)."""
    return [(rho.reverse(), theta) for rho, theta in zip(enumerate_words(op.n, op.max_degree), op.coefficients)]


# --- the per-word parent recursions the shared walk replaced ---------------


def letter_products(start, ops, top):
    """start @ op_{a_1} @ ... @ op_{a_m} for every word of length <= top,
    each from its parent a_1 ... a_{m-1} by one product (the recursion of the
    former constrained word-product assembly)."""
    prods = {IDENTITY_WORD: start}
    for w in enumerate_words(len(ops), top)[1:]:
        prods[w] = prods[Word(w.letters[:-1])] @ ops[w.letters[-1] - 1]
    return prods


def word_adjoint_products(rc, top):
    """T_alpha^* for every word of length <= top, by the parent recursion
    T_{gamma g_i}^* = T_i^* T_gamma^* of the former Poisson kernel."""
    prods = {IDENTITY_WORD: np.eye(rc.dim, dtype=complex)}
    for w in enumerate_words(rc.n, top)[1:]:
        prods[w] = rc.matrices[w.letters[-1] - 1].conj().T @ prods[Word(w.letters[:-1])]
    return prods


def recursive_kernel(rc, top, r):
    """The former Poisson kernel: block alpha is r^|alpha| (reduced defect
    root) T_alpha^*; returns the stacked blocks and the reduced root."""
    delta, basis, _ = _radial_defect(rc, r)
    reduced = basis.conj().T @ delta
    prods = word_adjoint_products(rc, top)
    blocks = [(r ** len(w)) * (reduced @ prods[w]) for w in enumerate_words(rc.n, top)]
    return np.stack(blocks), reduced


def extend_coefficients(rc, top):
    """The former depth-first coefficient recursion: the coefficient of
    gamma*g_i is (reduced defect root) T_{reverse(gamma)}^* times the i-th
    block row of the column defect root, with the running product extended by
    one adjoint per letter of gamma."""
    d = rc.dim
    e_t, e_s = rc.defect_basis, rc.defect_star_basis
    coeffs = {IDENTITY_WORD: -(e_t.conj().T @ rc.row_matrix @ e_s)}
    blocks = [rc.delta_star[(i - 1) * d : i * d, :] @ e_s for i in range(1, rc.n + 1)]

    def extend(gamma, m_gamma):
        for i in range(1, rc.n + 1):
            coeffs[Word(gamma + (i,))] = m_gamma @ blocks[i - 1]
        if len(gamma) + 1 < top:
            for j in range(1, rc.n + 1):
                extend(gamma + (j,), m_gamma @ rc.matrices[j - 1].conj().T)

    extend((), e_t.conj().T @ rc.delta)
    return coeffs, blocks


def dense_assemble(op, cs):
    """Constrained assembly as the full kron-sum over every word, with the
    word products of the compressed right shifts from the parent recursion."""
    right = dense_constrained_shifts(cs, "right")
    prods = letter_products(np.eye(cs.dim, dtype=complex), right, cs.fock.max_degree)
    out = np.zeros((cs.dim * op.target_dim, cs.dim * op.source_dim), dtype=complex)
    for beta, theta in coefficient_items(op):
        if len(beta) <= cs.fock.max_degree:
            out += np.kron(prods[beta], theta)
    return out


def word_loop_assemble(op, fock):
    """Fock assembly as the per-word placement loop: coefficient beta at
    block (mu * reverse(beta), mu) for every word mu it fits against."""
    src, tgt = op.source_dim, op.target_dim
    out = np.zeros((fock.dim * tgt, fock.dim * src), dtype=complex)
    for beta, theta in coefficient_items(op):
        if len(beta) > fock.max_degree:
            continue
        rev = beta.reverse()
        for col, mu in enumerate(enumerate_words(fock.n, fock.max_degree)):
            if len(mu) + len(beta) > fock.max_degree:
                continue
            r0 = fock.word_index(mu * rev)
            out[r0 * tgt : (r0 + 1) * tgt, col * src : (col + 1) * src] += theta
    return out


def assembly_budget(op, cs):
    """Rounding budget between the two constrained assemblies.

    Every entry of either one sums terms P[i, j] theta_beta[t, s] with
    |P[i, j]| <= 1 (entries of contractions and of orthonormal bases), so its
    value is at most the sum S of the largest coefficient entries; each path
    reaches it through at most (N + 1) dim(Fock) roundings of that size."""
    total = np.abs(op.coefficients).max(axis=(1, 2), initial=0.0).sum()
    return (cs.fock.max_degree + 1) * cs.fock.dim * EPS * total


def ideal_columns(fock, generators):
    """Vectors S_alpha p(S) S_beta (vacuum) for |alpha| + deg p + |beta| <= N,
    each with its degree, built word by word: the column for (alpha, p, beta)
    is sum_w c_w e_{alpha w beta}."""
    top = fock.max_degree
    columns = []
    all_words = enumerate_words(fock.n, top)
    for p in generators:
        d = p.degree
        for beta in all_words:
            if len(beta) > top - d:
                continue
            for alpha in all_words:
                if len(alpha) + d + len(beta) > top:
                    continue
                vec = np.zeros(fock.dim, dtype=complex)
                for w, c in p.terms.items():
                    vec[fock.word_index(alpha * w * beta)] += c
                columns.append((len(alpha) + d + len(beta), vec))
    return columns


def ideal_slice(fock, generators, m):
    """Dense degree-m ideal slice: the degree-m columns of ``ideal_columns``,
    in slice coordinates and in the same order
    (generator, then beta by length and lexicographically, then alpha
    lexicographically) with the same values. The column for (alpha, p, beta)
    holds c_w at the slice index of alpha*w*beta, which is
    idx(alpha) n^(d+|beta|) + idx(w) n^|beta| + idx(beta) for deg p = d."""
    n = fock.n
    degrees = [p.degree for p in generators if p.degree <= m]
    mat = np.zeros((n**m, sum((m - d + 1) * n ** (m - d) for d in degrees)), dtype=complex)
    col = 0
    for p in generators:
        d = p.degree
        if d > m:
            continue
        for b in range(m - d + 1):
            a = m - d - b
            rows = (np.arange(n**b)[:, None] + np.arange(n**a)[None, :] * n ** (d + b)).ravel()
            cols = np.arange(col, col + rows.size)
            for w, c in p.terms.items():
                mat[rows + (fock.word_index(w) - fock.slice_offsets[d]) * n**b, cols] += c
            col += rows.size
    return mat


@st.composite
def ideals(draw):
    """(n, N, generators) over commutative, q-commutative with a random q,
    truncated(m) and a custom ideal: one homogeneous generator of a random
    degree 1 <= d <= N with random complex coefficients on one to three
    words of length d."""
    n = draw(st.integers(1, 3))
    top = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["commutative", "q-commutative", "truncated", "custom"]))
    if kind == "commutative":
        gens = commutator_generators(n)
    elif kind == "q-commutative":
        re = draw(st.floats(-1.5, 1.5))
        im = draw(st.floats(-1.5, 1.5))
        gens = q_commutator_generators(np.full((n, n), complex(re, im)))
    elif kind == "truncated":
        gens = word_length_generators(n, draw(st.integers(1, top)))
    else:
        d = draw(st.integers(1, top))
        words = draw(st.lists(st.tuples(*[st.integers(1, n)] * d), min_size=1, max_size=3, unique=True))
        gens = [NcPolynomial({Word(w): draw(st.floats(0.5, 2.0)) * np.exp(1j * draw(st.floats(-np.pi, np.pi)))
                              for w in words})]
    return n, max([top] + [g.degree for g in gens]), gens


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 5), st.sampled_from(["left", "right"]), st.data())
def test_child_map_matches_dense_creation(n, top, side, data):
    """The per-degree child rows are the former whole-space child map, slice
    by slice, and the free shifts built from them are the creation matrices."""
    fock = TruncatedFock(n, top)
    i = data.draw(st.integers(1, n))
    src, dst = child_map(fock, side, i)
    for m in range(top):
        rows = fock.slice_offsets[m + 1] + np.arange(n ** (m + 1))[fock.child_rows(side, i, m)]
        assert np.array_equal(rows, dst[fock.slice_range(m)])
    cs = build_constrained_subspace(fock, [])
    assert np.array_equal(shift_matrices(cs, constrained_shifts(cs, side))[i - 1], dense_creation(fock, side, i))
    words = enumerate_words(n, top)
    for s, d in zip(src, dst):
        w = words[s]
        assert words[d] == (Word((i,)) * w if side == "left" else w * Word((i,)))


@settings(max_examples=25, deadline=None)
@given(ideals())
def test_constrained_shifts_match_dense_compression(case):
    n, top, gens = case
    cs = build_constrained_subspace(TruncatedFock(n, top), gens)
    left, right = dense_constrained_shifts(cs, "left"), dense_constrained_shifts(cs, "right")
    q = fock_row_basis(cs)
    for i in range(1, n + 1):
        assert np.array_equal(left[i - 1], q.conj().T @ dense_creation(cs.fock, "left", i) @ q)
        assert np.array_equal(right[i - 1], q.conj().T @ dense_creation(cs.fock, "right", i) @ q)


def dense_shift_checks(cs):
    """The shifts task's three check values on the Fock-row basis Q:
    |Q^*Q - I|, the ideal slices against the rows of each slice, and, when
    |Q Q^* e_0 - e_0| <= 1e-10, I - sum B_i B_i^* minus the vacuum
    projection on the degrees <= N - 1."""
    fock, q = cs.fock, fock_row_basis(cs)
    out = {
        "basis_orthonormal": spectral_norm(q.conj().T @ q - np.eye(cs.dim)),
        "ideal_orthogonality": max(spectral_norm(ideal_slice(fock, cs.generators, m).conj().T @ q[fock.slice_range(m)])
                                   for m in range(fock.max_degree + 1)),
    }
    residual = q @ q[0].conj()
    residual[0] -= 1.0
    if spectral_norm(residual) <= 1e-10:
        v0 = q[0].conj()
        defect = np.eye(cs.dim) - sum(b @ b.conj().T for b in dense_constrained_shifts(cs, "left"))
        window = cs.basis_degrees <= fock.max_degree - 1
        out["defect_is_vacuum_projection"] = spectral_norm((defect - np.outer(v0, v0.conj()))[np.ix_(window, window)])
    return out


@settings(max_examples=40, deadline=None)
@given(ideals(), st.integers(0, 2**31 - 1))
def test_slice_path_matches_the_fock_row_oracle(case, seed):
    """The slice blocks of both shift tuples, the compression of a Fock-row
    kernel, its range containment and the shifts checks agree with the
    Fock-row oracle to 1e-13. The kernel rows are random, so they do not lie
    in N_J and the containment residual is of order one."""
    n, top, gens = case
    cs = build_constrained_subspace(TruncatedFock(n, top), gens)
    for side in ("left", "right"):
        pairs = zip(shift_matrices(cs, constrained_shifts(cs, side)), dense_constrained_shifts(cs, side), strict=True)
        assert all(np.abs(got - ref).max(initial=0.0) <= 1e-13 for got, ref in pairs)

    rc, rng = validate([np.zeros((2, 2))] * n), np.random.default_rng(seed)
    rows = rng.standard_normal((cs.fock.dim * 2, 2)) + 1j * rng.standard_normal((cs.fock.dim * 2, 2))
    real = poisson_mod.poisson_kernel
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poisson_mod, "poisson_kernel", lambda *args: replace(real(*args), matrix=rows))
        kern = constrained_poisson_kernel(rc, cs)
    q, words = fock_row_basis(cs), rows.reshape(cs.fock.dim, -1)
    coords = q.conj().T @ words
    assert np.abs(kern.matrix - coords.reshape(kern.matrix.shape)).max(initial=0.0) <= 1e-13
    assert abs(kern.range_containment - spectral_norm((words - q @ coords).reshape(rows.shape))) <= 1e-13

    ctx = RunContext(n=n, trunc=top, generators=gens, rc=None, tol=1e-9, seed=None)
    ctx._cs = cs
    got = {c["name"]: c["value"] for c in run_parsed(ctx, "shifts", {"emit_matrices": False})["checks"]}
    ref = dense_shift_checks(cs)
    assert got.keys() == ref.keys()
    assert all(abs(got[name] - ref[name]) <= 1e-13 for name in ref)


@settings(max_examples=25, deadline=None)
@given(ideals())
def test_ideal_slices_match_ideal_columns(case):
    n, top, gens = case
    fock = TruncatedFock(n, top)
    columns = ideal_columns(fock, gens)
    for m in range(top + 1):
        sl = fock.slice_range(m)
        ref = [vec[sl] for deg, vec in columns if deg == m]
        ref = np.stack(ref, axis=1) if ref else np.zeros((n**m, 0), dtype=complex)
        assert np.array_equal(ideal_slice(fock, gens, m), ref)
        degree_m = [p for p in gens if p.degree == m]
        assert np.array_equal(_generator_matrix(fock, gens, m), ideal_slice(fock, degree_m, m))


@settings(max_examples=40, deadline=None)
@given(ideals())
def test_ideal_orthogonality_matches_dense_slices(case):
    n, top, gens = case
    cs = build_constrained_subspace(TruncatedFock(n, top), gens)
    fock, dense = cs.fock, 0.0
    for m in range(top + 1):
        inner = ideal_slice(fock, gens, m).conj().T @ cs.slices[m]
        if inner.size:
            dense = max(dense, np.linalg.norm(inner, 2))
    assert abs(ideal_orthogonality(cs) - dense) <= 1e-15


def assert_recursion_matches_dense_complement(fock, gens):
    """The recursion's N_m against the complement of the dense ideal slice."""
    cs = build_constrained_subspace(fock, gens)
    ref = np.zeros((fock.dim, 0), dtype=complex)
    for m in range(fock.max_degree + 1):
        comp = complement_basis(ideal_slice(fock, gens, m))[0]
        assert cs.slice_dims[m] == comp.shape[1]
        new = cs.slices[m]
        assert np.all(principal_angles(new, comp) <= 1e-12)
        block = np.zeros((fock.dim, comp.shape[1]), dtype=complex)
        block[fock.slice_range(m)] = comp
        ref = np.concatenate([ref, block], axis=1)
    u = ref.conj().T @ fock_row_basis(cs)
    assert np.linalg.norm(u.conj().T @ u - np.eye(cs.dim), 2) <= 1e-12
    for side in ("left", "right"):
        for i, fast in enumerate(shift_matrices(cs, constrained_shifts(cs, side)), start=1):
            dense = ref.conj().T @ dense_creation(fock, side, i) @ ref
            assert np.linalg.norm(fast - u.conj().T @ dense @ u, 2) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(ideals())
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


def random_coefficients(n, top, seed, dim=2):
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) for _ in range(n)]
    scale = 0.9 / np.linalg.norm(np.hstack(mats), 2)
    return characteristic_coefficients(validate([scale * t for t in mats]), top)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 5), st.integers(1, 3), st.integers(0, 2**31 - 1))
def test_fock_assembly_matches_the_word_loop(n, top, dim, seed):
    op = random_coefficients(n, top, seed, dim)
    fock = TruncatedFock(n, top)
    assert np.array_equal(fock_assemble(op, fock), word_loop_assemble(op, fock))


@settings(max_examples=25, deadline=None)
@given(ideals(), st.integers(0, 2**31 - 1))
def test_constrained_assembly_matches_kron_sum(case, seed):
    n, top, gens = case
    cs = build_constrained_subspace(TruncatedFock(n, top), gens)
    op = random_coefficients(n, top, seed)
    fast = assemble(op, cs=cs)
    assert np.abs(fast - dense_assemble(op, cs)).max(initial=0.0) <= assembly_budget(op, cs)


def coisometric_pair():
    return validate([np.array([[1 / np.sqrt(2)]]), np.array([[1 / np.sqrt(2)]])])


@pytest.mark.parametrize("rc,n,gens", [
    (validate([np.array([[0.5, 0.2], [0.0, -0.3]])]), 1, []),
    (coisometric_pair(), 2, commutator_generators(2)),
    (coisometric_pair(), 2, []),
    (validate([np.diag([0.3, 0.1]), np.diag([0.2, -0.4])]), 2, [NcPolynomial({IDENTITY_WORD: 1.0})]),
], ids=["n1", "defect_rank0_commutative", "defect_rank0_free", "constant_generator"])
def test_assembly_edge_cases(rc, n, gens):
    top = 4
    op = characteristic_coefficients(rc, top)
    fock = TruncatedFock(n, top)
    cs = build_constrained_subspace(fock, gens)
    fast = assemble(op, cs=cs)
    assert fast.shape == (cs.dim * op.target_dim, cs.dim * op.source_dim)
    assert np.abs(fast - dense_assemble(op, cs)).max(initial=0.0) <= assembly_budget(op, cs)
    assert np.array_equal(fock_assemble(op, fock), word_loop_assemble(op, fock))


def test_point_factorization_forms_the_tuple_constants_once(monkeypatch):
    """A factorize task at 30 scalar points reads the row matrix once and
    never runs spectral_radius (a scalar point's radius is ||z||_2), and it
    makes as many np.kron calls as at 60 points."""
    calls = {"spectral_radius": 0, "row_matrix": 0, "kron": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(charfn_mod, "spectral_radius", counted("spectral_radius", charfn_mod.spectral_radius))
    monkeypatch.setattr(contractions_mod.RowContraction, "row_matrix",
                        property(counted("row_matrix", contractions_mod.RowContraction.row_matrix.fget)))
    monkeypatch.setattr(np, "kron", counted("kron", np.kron))
    rc = random_tuple(2, 6, 3)
    krons = []
    for count in (30, 60):
        calls.update(spectral_radius=0, row_matrix=0, kron=0)
        ctx = RunContext(n=2, trunc=None, generators=[], rc=rc, tol=1e-9, seed=5)
        out = run_parsed(ctx, "factorize", {"mode": "point", "random_points": count})
        assert len(out["data"]["residuals"]) == count and out["checks"][0]["pass"]
        assert calls["spectral_radius"] == 0 and calls["row_matrix"] == 1
        krons.append(calls["kron"])
    assert krons[0] == krons[1]


def random_tuple(n, dim, seed, row_norm=0.9):
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) for _ in range(n)]
    return validate([row_norm * t / np.linalg.norm(np.hstack(mats), 2) for t in mats])


def product_budget(top, dim):
    """Rounding budget between two evaluations of a product of at most
    top + 1 factors of norm <= 1 (a reduced defect root, then adjoints of a
    row contraction): each matmul perturbs an entry by at most dim eps, and
    either path takes top + 1 of them."""
    return 2 * (top + 1) * (dim + 1) * EPS


# A row contraction from every branch the walk must cover: n = 1, a random
# pair, and a coisometry (defect rank 0, so every kernel block has no rows).
WALK_TUPLES = [
    pytest.param(validate([np.array([[0.5, 0.2], [0.0, -0.3]])]), id="n1"),
    pytest.param(random_tuple(2, 3, 4), id="random_pair"),
    pytest.param(coisometric_pair(), id="defect_rank0"),
]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 2), st.integers(1, 3), st.integers(0, 2**31 - 1))
def test_word_products_match_the_parent_recursion(n, top, rows, dim, seed):
    rng = np.random.default_rng(seed)
    ops = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) for _ in range(n)]
    ops = [t / max(np.linalg.norm(t, 2), 1.0) for t in ops]
    start = rng.standard_normal((rows, dim)) / np.sqrt(dim)
    stack = word_products(start, ops, top)
    assert stack.shape == (TruncatedFock(n, top).dim, rows, dim)
    ref = letter_products(start, ops, top)
    for rho, block in zip(enumerate_words(n, top), stack):
        assert np.array_equal(block, ref[rho.reverse()])
        dense = start @ word_operator(ops, rho.reverse())
        assert np.abs(block - dense).max(initial=0.0) <= product_budget(top, dim)


def assert_kernel_matches_references(rc, top, r):
    fock = TruncatedFock(rc.n, top)
    kern = poisson_kernel(rc, fock, r)
    ref, reduced = recursive_kernel(rc, top, r)
    assert kern.matrix.shape == (fock.dim * reduced.shape[0], rc.dim)
    budget = product_budget(top, rc.dim)
    assert np.abs(kern.matrix - ref.reshape(kern.matrix.shape)).max(initial=0.0) <= budget
    for w, block in zip(enumerate_words(rc.n, top), ref):
        dense = (r ** len(w)) * (reduced @ word_operator(rc.matrices, w).conj().T)
        assert np.abs(block - dense).max(initial=0.0) <= budget


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 3), st.sampled_from([1.0, 0.95, 0.5]),
       st.integers(0, 2**31 - 1))
def test_poisson_kernel_matches_the_word_adjoint_recursion(n, top, dim, r, seed):
    assert_kernel_matches_references(random_tuple(n, dim, seed), top, r)


@pytest.mark.parametrize("r", [1.0, 0.8])
@pytest.mark.parametrize("rc", WALK_TUPLES)
def test_poisson_kernel_edge_cases(rc, r):
    assert_kernel_matches_references(rc, 4, r)


def assert_coefficients_match_references(rc, top):
    op = characteristic_coefficients(rc, top)
    assert len(op.coefficients) == sum(rc.n**k for k in range(top + 1))
    ref, blocks = extend_coefficients(rc, top)
    reduced = rc.defect_basis.conj().T @ rc.delta
    budget = product_budget(top, rc.dim)
    for beta, theta in coefficient_items(op):
        assert np.array_equal(theta, ref[beta])
        if len(beta):
            gamma, i = Word(beta.letters[:-1]), beta.letters[-1]
            dense = reduced @ word_operator(rc.matrices, gamma.reverse()).conj().T @ blocks[i - 1]
            assert np.abs(theta - dense).max(initial=0.0) <= budget


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**31 - 1))
def test_theta_coefficients_match_the_extend_recursion(n, top, dim, seed):
    assert_coefficients_match_references(random_tuple(n, dim, seed), top)


@pytest.mark.parametrize("rc", WALK_TUPLES)
def test_theta_coefficient_edge_cases(rc):
    assert_coefficients_match_references(rc, 4)


def gram_budget(op, fock):
    """Rounding budget between ``fock_theta_gram`` and the dense product of the
    assembled Theta. An entry of either sums at most (N + 1) source nonzero
    products, each at most M^2 with M the largest coefficient entry; the
    dense product reaches it through an inner dimension of dim(Fock) source,
    the structured one through source plus N + 1 partial sums, and a complex
    product rounds a few times more than a real one."""
    top, src = fock.max_degree, op.source_dim
    biggest = np.abs(op.coefficients).max(initial=0.0)
    return 4 * (fock.dim * src + top + 1) * EPS * (top + 1) * src * biggest**2


def assert_gram_matches_dense(rc, top):
    op = characteristic_coefficients(rc, top)
    fock = TruncatedFock(rc.n, top)
    theta = fock_assemble(op, fock)
    dense = theta @ theta.conj().T
    fast = fock_theta_gram(op, fock)
    assert fast.shape == dense.shape == (fock.dim * op.target_dim,) * 2
    assert np.abs(fast - dense).max(initial=0.0) <= gram_budget(op, fock)


def coisometric_tuple(n, dim, seed):
    """Rows of [T_1 ... T_n] orthonormal: the row defect, Theta's target, is 0."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n * dim, dim)) + 1j * rng.standard_normal((n * dim, dim)))
    row = q.conj().T
    return validate([row[:, i * dim : (i + 1) * dim] for i in range(n)])


def unitary_tuple(dim, seed):
    """One unitary: both defects, Theta's target and source, are 0."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return validate([q])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["random", "coisometric", "unitary"]), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_theta_gram_matches_the_dense_product(kind, n, dim, top, seed):
    if kind == "random":
        rc = random_tuple(n, dim, seed)
    elif kind == "coisometric":
        rc = coisometric_tuple(n, dim, seed)
    else:
        rc = unitary_tuple(dim, seed)
    assert_gram_matches_dense(rc, top)


@pytest.mark.parametrize("rc", [*WALK_TUPLES, pytest.param(unitary_tuple(2, 0), id="source_dim0")])
def test_theta_gram_edge_cases(rc):
    op = characteristic_coefficients(rc, 4)
    if rc.n == 1 and rc.defect_rank == 0:
        assert op.source_dim == 0 and op.target_dim == 0
    assert_gram_matches_dense(rc, 4)


def gram_by_reach(op, fock):
    """The Fock Theta Theta^* as built before the one-step recursion: each
    product Theta_i Theta_j^* added, from zero, into every block (i + c, j + c)
    it reaches, then the upper blocks mirrored."""
    n, top, tgt = fock.n, fock.max_degree, op.target_dim
    thetas = charfn_mod.degree_slices(op, fock)
    off = [o * tgt for o in fock.slice_offsets]
    out = np.zeros((fock.dim * tgt, fock.dim * tgt), dtype=complex)
    for i in range(top + 1):
        for j in range(i + 1):
            prod = thetas[i] @ thetas[j].conj().T
            for c in range(top - i + 1):
                a, b, mu = i + c, j + c, np.arange(n**c)
                block = out[off[a] : off[a + 1], off[b] : off[b + 1]]
                block.reshape(n**c, n**i * tgt, n**c, n**j * tgt)[mu, :, mu, :] += prod
    for a in range(top + 1):
        for b in range(a):
            out[off[b] : off[b + 1], off[a] : off[a + 1]] = out[off[a] : off[a + 1], off[b] : off[b + 1]].conj().T
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["random", "coisometric", "unitary"]), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 4), st.integers(0, 2**31 - 1))
def test_theta_gram_recursion_equals_the_reach_loop(kind, n, dim, top, seed):
    """Bit for bit, also where the target (a coisometry) or both defects (a
    unitary) are 0."""
    if kind == "random":
        rc = random_tuple(n, dim, seed)
    elif kind == "coisometric":
        rc = coisometric_tuple(n, dim, seed)
    else:
        rc = unitary_tuple(dim, seed)
    op = characteristic_coefficients(rc, max(top, 1))
    fock = TruncatedFock(rc.n, top)
    assert np.array_equal(fock_theta_gram(op, fock), gram_by_reach(op, fock))


@pytest.mark.parametrize("gens", [
    commutator_generators(2), q_commutator_generators(np.array([[1.0, 0.5], [0.0, 1.0]])),
    word_length_generators(2, 3), [],
], ids=["commutative", "q_commutative", "truncated", "free"])
def test_theta_gram_on_nj_is_the_product_of_the_assembled_theta(gens):
    """The one reading of Theta on N_J (``ThetaAction``, which
    ``RunContext.theta`` builds once per scenario). With generators its
    Theta Theta^* is the assembled Theta times its adjoint, bit for bit;
    the residual is that of this Gram, and the probe on the degrees <= m
    reads its principal block, I - Theta_S Theta_S^* with Theta_S the
    leading block of the assembled Theta (Theta is lower-triangular in
    degree), to rounding. Without generators Theta is read from its
    coefficients, never assembled: the assembled Gram is the Fock Gram to
    rounding, and the residual is that of the dense Fock Gram."""
    rc = random_tuple(2, 2, 5)
    op = characteristic_coefficients(rc, 4)
    fock = TruncatedFock(2, 4)
    cs = build_constrained_subspace(fock, gens)
    reading = ThetaAction(op, cs)
    thin = np.random.default_rng(5).standard_normal((cs.dim * op.target_dim, 3)) * (1 + 1j)
    theta = assemble(op, cs=cs)
    gram = theta @ theta.conj().T
    if gens:
        assert np.array_equal(reading.matrix, theta)
        assert np.array_equal(reading._gram, gram)
        x = reading.gaussian(rc.dim)
        for m in range(fock.max_degree + 1):
            rows, cols = reading.row_offsets[m + 1], reading.offsets[m + 1] * op.source_dim
            lead, x_m = theta[:rows, :cols], x[:, :rows].T
            assert np.abs(reading.probe(x, m).T - (x_m - lead @ (lead.conj().T @ x_m))).max() <= 1e-13
    else:
        assert reading.matrix is None
        assert np.abs(gram - fock_theta_gram(op, fock)).max() <= gram_budget(op, fock)
        gram = fock_theta_gram(op, fock)
    diff = gram + thin @ thin.conj().T
    diff[np.diag_indices_from(diff)] -= 1.0
    if gens:
        assert reading.residual(thin, thin) == float(np.linalg.norm(diff))
    else:
        assert reading.residual(thin, thin) == pytest.approx(float(np.linalg.norm(diff)), rel=1e-12)


def dense_factorization_residual(kernel, op):
    """||theta_gram + K K^* - I||_F over the whole Fock ambient: the dense
    reader the block walk of ``verify_truncated_factorization`` replaced."""
    diff = fock_theta_gram(op, kernel.fock) + kernel.matrix @ kernel.matrix.conj().T
    diff[np.diag_indices_from(diff)] -= 1.0
    return float(np.linalg.norm(diff))


def weighted_shift(ambient, n, depth, seed):
    """The shift on the basis vectors of degree <= depth of the Fock space
    (words, weight 1) or of the symmetric Fock space (monomials z^alpha, the
    Drury-Arveson weights sqrt((alpha_i + 1) / (|alpha| + 1)), a commuting
    tuple), conjugated by a random diagonal unitary; and the degree of each
    basis vector. Either way sum T_i T_i^* = I - E_0, so Phi^m(I) is the
    projection onto the degrees >= m, and the rank of K at truncation N, the
    model dimension, is the number of basis vectors of degree <= N: it grows
    with N up to the depth."""
    if ambient == "fock":
        basis = [w for k in range(depth + 1) for w in itertools.product(range(n), repeat=k)]
        degree = len
    else:
        basis = sorted((a for a in itertools.product(range(depth + 1), repeat=n) if sum(a) <= depth), key=sum)
        degree = sum
    index = {b: k for k, b in enumerate(basis)}
    mats = [np.zeros((len(basis), len(basis)), dtype=complex) for _ in range(n)]
    for b in (b for b in basis if degree(b) < depth):
        for i, t in enumerate(mats):
            if ambient == "fock":
                t[index[(i, *b)], index[b]] = 1.0
            else:
                t[index[tuple(x + (j == i) for j, x in enumerate(b))], index[b]] = np.sqrt((b[i] + 1) / (sum(b) + 1))
    phases = np.exp(2j * np.pi * np.random.default_rng(seed).uniform(size=len(basis)))
    return validate([phases[:, None] * t * phases.conj() for t in mats]), np.array([degree(b) for b in basis])


def oracle_tuple(kind, n, dim, seed):
    """A random tuple, a diagonal one, a multiple of one nilpotent Jordan
    block per letter (dim >= 2), a coisometry (row defect 0), at row norm
    0.9 but for the coisometry, or the free weighted shift of depth dim."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return random_tuple(n, dim, seed)
    if kind == "coisometric":
        return coisometric_tuple(n, dim, seed)
    if kind == "weighted_shift":
        return weighted_shift("fock", n, dim, seed)[0]
    if kind == "diagonal":
        z = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
        z *= 0.9 / np.linalg.norm(z, axis=0).max()
        return validate([np.diag(zi) for zi in z])
    jordan = np.eye(max(dim, 2), k=1)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return validate([0.9 * ci / np.linalg.norm(c) * jordan for ci in c])


def perturb_a_large_entry(array, size, rng):
    """Add ``size`` to one entry, drawn among those of modulus at least a
    tenth of the largest. The entry's column then reaches the residual at
    first order: an entry of a zero column (a kernel direction of T in
    Theta_0 at N = 0) moves it only by size^2, below rounding at 1e-9."""
    large = np.flatnonzero(np.abs(array) >= 0.1 * np.abs(array).max())
    array.flat[rng.choice(large)] += size


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["random", "diagonal", "jordan", "coisometric"]), st.integers(1, 3), st.integers(1, 4),
       st.integers(0, 5), st.sampled_from([None, "coefficient", "kernel_row"]), st.sampled_from([1e-9, 1e-6]),
       st.integers(0, 2**31 - 1))
def test_block_factorization_residual_matches_the_dense_oracle(kind, n, dim, top, target, size, seed):
    """Unperturbed, both residuals lie within the budget. With one
    coefficient or kernel entry off by 1e-9 or 1e-6 they agree to 1e-6
    relative. A coisometry has no kernel rows and no coefficient entries:
    its blocks are empty and only the unperturbed case applies."""
    rc = oracle_tuple(kind, n, dim, seed)
    kernel = poisson_kernel(rc, TruncatedFock(n, top))
    op = characteristic_coefficients(rc, top)
    rng = np.random.default_rng(seed)
    if kind == "coisometric":
        assert op.target_dim == 0 and kernel.matrix.size == 0
        target = None
    if target == "coefficient":
        perturb_a_large_entry(op.coefficients, size, rng)
    elif target == "kernel_row":
        matrix = kernel.matrix.copy()
        perturb_a_large_entry(matrix, size, rng)
        kernel = replace(kernel, matrix=matrix)
    rep = verify_truncated_factorization(kernel, ThetaAction(op, kernel.fock))
    dense = dense_factorization_residual(kernel, op)
    if target is None:
        assert rep.residual <= rep.budget and dense <= rep.budget
    else:
        assert abs(rep.residual - dense) <= 1e-6 * dense


def svd_model_basis(theta, count):
    """The model basis as read from the assembled Theta before the Gram
    route: the left singular vectors of its ``count`` smallest singular
    values, the zero ones of a tall Theta included."""
    u, _ = svd_positive(theta)
    return u[:, u.shape[1] - count :]


def model_budget(kern, op, gap):
    """Rounding budget between the model projectors of the two routes. Each
    route is exact for a matrix within E of Theta Theta^*: the rounding of
    forming the Gram, at most ``gram_budget`` per entry with every coefficient
    entry at most one (on N_J the inner dimension is dim(N_J) source too),
    plus the backward error of ``eigh`` or of the SVD, a few rows eps per
    entry. ||E|| is at most rows times its largest entry, and by the
    Davis-Kahan sin theta theorem the projectors onto the dim smallest
    eigenvalues differ by at most 2 ||E|| / gap, with gap the distance between
    the eigenvalues on the two sides of the split."""
    top, src, rows = kern.fock.max_degree, op.source_dim, kern.matrix.shape[0]
    entry = 4 * (kern.ambient_dim * src + top + 1) * EPS * (top + 1) * max(src, 1) + 4 * rows * EPS
    return 2 * rows * entry / gap


def commuting_tuple(n, dim, seed, row_norm):
    """A normal commuting tuple, one unitary diagonalizing every matrix, whose
    eigenvalue columns all have norm row_norm (coisometric at 1)."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    z = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    z *= row_norm / np.linalg.norm(z, axis=0)
    return validate([q @ np.diag(zi) @ q.conj().T for zi in z])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["fock", "commutative"]), st.sampled_from([0.5, 0.9, 1.0, "weighted_shift"]),
       st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_model_space_matches_the_svd_of_theta(ambient, row_norm, n, dim, top, seed):
    """On random or commuting tuples at row norm 0.5 or 0.9, a coisometry
    (refused: not pure), and weighted shifts of depth dim, whose model
    dimension is the number of basis vectors of degree <= N."""
    fock = TruncatedFock(max(n, 2), max(top, 2)) if ambient == "commutative" else TruncatedFock(n, top)
    if row_norm == "weighted_shift":
        rc, degrees = weighted_shift(ambient, fock.n, dim, seed)
        model_dim, row_norm = int(np.count_nonzero(degrees <= fock.max_degree)), 0.0
    elif ambient == "fock":
        rc = coisometric_tuple(n, dim, seed) if row_norm == 1.0 else random_tuple(n, dim, seed, row_norm)
    else:
        rc = commuting_tuple(fock.n, dim, seed, row_norm)
    if row_norm != 0.0:
        # K^*K = I - Phi^(N+1)(I) >= (1 - row_norm^2) I, so the model has dim
        # directions, on which Theta Theta^* has the eigenvalues of Phi^(N+1)(I)
        model_dim = rc.dim
    if ambient == "fock":
        kern = poisson_kernel(rc, fock)
    else:
        kern = constrained_poisson_kernel(rc, build_constrained_subspace(fock, commutator_generators(fock.n)))
    op = characteristic_coefficients(rc, fock.max_degree)
    if kern.cs is None:
        theta = fock_assemble(op, fock)
        gram = fock_theta_gram(op, fock)
    else:
        theta = assemble(op, cs=kern.cs)
        gram = theta @ theta.conj().T
    if row_norm == 1.0:
        assert op.target_dim == 0 and theta.shape[0] == 0
        with pytest.raises(PreconditionError, match="pure"):
            model_space(kern)
        return
    ref = svd_model_basis(theta, model_dim)
    res = model_space(kern)
    largest_in_model, smallest_in_range = model_split(gram, res)
    assert res.basis.shape == ref.shape
    assert res.decision.rank == model_dim
    assert largest_in_model <= row_norm ** (2 * (fock.max_degree + 1)) + 1e-12
    assert smallest_in_range is None or smallest_in_range >= 1.0 - 1e-10
    gap = (1.0 if smallest_in_range is None else smallest_in_range) - largest_in_model
    diff = res.basis @ res.basis.conj().T - ref @ ref.conj().T
    assert np.linalg.norm(diff, 2) <= model_budget(kern, op, gap)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(["random", "diagonal", "jordan", "weighted_shift"]), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 4), st.sampled_from([None, 1e-9, 1e-6]), st.integers(0, 2**31 - 1))
def test_fock_model_matches_the_eigh_route(kind, n, dim, top, size, seed):
    """On the Fock space the probe's model dimension is the former split, the
    rank of K, every model check passes, and the block-walked complement
    residual is the dense ||(I - Theta Theta^*)(I - B B^*)||_F to the rounding
    of forming the Gram and D = (I - Theta Theta^*) B. With one coefficient
    entry off by 1e-9 or 1e-6 the two agree to 1e-6 relative, or to that
    rounding where the probe's range takes the whole ambient. On a weighted
    shift of depth dim the rank of K is the number of words of length
    <= min(N, dim)."""
    rc = oracle_tuple(kind, n, dim, seed)
    fock = TruncatedFock(n, top)
    kern = poisson_kernel(rc, fock)
    op = characteristic_coefficients(rc, top)
    if size is not None:
        perturb_a_large_entry(op.coefficients, size, np.random.default_rng(seed))
    res = model_space(kern, ThetaAction(op, fock))
    gram = fock_theta_gram(op, fock)
    defect, rows = np.eye(len(gram)) - gram, len(gram)
    dense = np.linalg.norm(defect - (defect @ res.basis) @ res.basis.conj().T)
    rounding = rows * (gram_budget(op, fock) + 8 * rows * EPS)
    assert abs(res.complement_residual - dense) <= max(1e-6 * dense, rounding)
    if size is not None:
        return
    assert res.decision.rank == eigh_model(kern, gram)[2].rank
    if kind == "weighted_shift":
        assert res.decision.rank == sum(n**k for k in range(min(top, dim) + 1))
    assert max(res.projection_residual, res.complement_residual, res.equivalence_residual) <= 1e-10


def variety_tuple(n):
    """The zero scalar tuple, on which every generator drawn by ``ideals()``
    vanishes: each one is homogeneous of degree at least 1."""
    return validate([np.zeros((1, 1))] * n)


def assert_shift_adjoints_match_dense(kern, x):
    fock = kern.fock
    ops = dense_constrained_shifts(kern.cs, "left") if kern.cs is not None else [
        dense_creation(fock, "left", i) for i in range(1, fock.n + 1)]
    eye = np.eye(x.shape[0] // kern.ambient_dim)
    for b, got in zip(ops, shift_adjoints(kern, x), strict=True):
        dense = np.kron(b.conj().T, eye) @ x
        if kern.cs is None:
            assert np.array_equal(got, dense)
        else:
            # each entry sums at most dim N_J * d products on either path
            bound = np.kron(np.abs(b).T, eye) @ np.abs(x)
            assert np.all(np.abs(got - dense) <= 2 * (b.shape[0] * eye.shape[0] + 2) * EPS * bound)


@settings(max_examples=40, deadline=None)
@given(ideals(), st.booleans(), st.integers(0, 2), st.integers(1, 3), st.integers(0, 2**31 - 1))
def test_shift_adjoints_match_the_dense_lift(case, on_nj, d, cols, seed):
    n, top, gens = case
    rc = variety_tuple(n)
    fock = TruncatedFock(n, top)
    kern = constrained_poisson_kernel(rc, build_constrained_subspace(fock, gens)) if on_nj else poisson_kernel(rc, fock)
    rng = np.random.default_rng(seed)
    shape = (kern.ambient_dim * d, cols)
    assert_shift_adjoints_match_dense(kern, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    assert_shift_adjoints_match_dense(kern, kern.matrix)
    assert all(np.array_equal(a, b) for a, b in zip(shift_adjoints(kern), shift_adjoints(kern, kern.matrix)))


@pytest.mark.parametrize("rc,gens", [
    (validate([np.array([[0.5, 0.2], [0.0, -0.3]])]), []),
    (validate([np.diag([0.5, 0.5], 1)]), word_length_generators(1, 3)),
    (coisometric_pair(), commutator_generators(2)),
    (coisometric_pair(), []),
], ids=["n1_free", "n1_truncated", "defect_rank0_commutative", "defect_rank0_free"])
def test_shift_adjoint_edge_cases(rc, gens):
    fock = TruncatedFock(rc.n, 4)
    for kern in (poisson_kernel(rc, fock), constrained_poisson_kernel(rc, build_constrained_subspace(fock, gens))):
        assert_shift_adjoints_match_dense(kern, kern.matrix)
        assert [a.shape for a in shift_adjoints(kern)] == [kern.matrix.shape] * rc.n


def loop_pick_matrix(problem):
    """The per-block Pick assembly: block (i, j) for j >= i, then the mirror."""
    k, d = problem.k, problem.target_dim
    out = np.zeros((k * d, k * d), dtype=complex)
    for i in range(k):
        for j in range(i, k):
            inner = np.sum(problem.points[i] * np.conj(problem.points[j]))
            block = (np.eye(d) - problem.targets[i] @ problem.targets[j].conj().T) / (1.0 - inner)
            out[i * d : (i + 1) * d, j * d : (j + 1) * d] = block
    lower = np.tril_indices(k * d, -1)
    out[lower] = out.T[lower].conj()
    diag = np.diag_indices(k * d)
    out[diag] = out[diag].real
    return out


def ball_points(rng, k, n, radius=0.95):
    z = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    return z * (rng.uniform(0.0, radius, (k, 1)) / np.linalg.norm(z, axis=1, keepdims=True))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 3), st.sampled_from([1, 3]), st.sampled_from([0.5, 1.0, 2.0]),
       st.integers(0, 2**31 - 1))
def test_pick_matrix_matches_the_per_block_loop(k, n, d, target_norm, seed):
    rng = np.random.default_rng(seed)
    targets = [target_norm * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / (2 * d)
               for _ in range(k)]
    problem = PickProblem(n=n, points=ball_points(rng, k, n), targets=targets)
    got, ref = pick_matrix(problem), loop_pick_matrix(problem)
    assert np.array_equal(got, got.conj().T)
    assert np.all(np.abs(got - ref) <= 4 * EPS * np.abs(ref).max())


def first_coincident_pair(points):
    """The pair loop the coincident-point test replaced: the first (i, j),
    i < j, with |p_i - p_j| <= 1e-12, or None."""
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if np.linalg.norm(points[i] - points[j]) <= 1e-12:
                return i, j
    return None


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(1, 3), st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
       st.sampled_from([0.0, 1e-13, 5e-13, 3e-12, 1e-6])), max_size=3), st.integers(0, 2**31 - 1))
def test_coincident_points_are_rejected_as_by_the_pair_loop(k, n, copies, seed):
    """Points j copied from point i and moved by an offset below, near or
    above the 1e-12 threshold: the same inputs are rejected, naming the same
    first pair."""
    rng = np.random.default_rng(seed)
    points = ball_points(rng, k, n, radius=0.9)
    for src, dst, offset in copies:
        if src % k != dst % k:
            points[dst % k] = points[src % k] + offset
    expected = first_coincident_pair(points)
    if expected is None:
        PickProblem(n=n, points=points, targets=[np.eye(1)] * k)
    else:
        with pytest.raises(DegenerateInputError, match=f"points {expected[0]} and {expected[1]} coincide"):
            PickProblem(n=n, points=points, targets=[np.eye(1)] * k)


# --- one rank decision against the four rules it replaced ---------------------

# Planted values around the three floors (1e-12 spans, 1e-10 Q, 1e-9 defects)
# and the former dilation floor 1e-11, the floors themselves among them.
PLANTED = st.one_of(st.sampled_from([1e-12, 1e-11, 1e-10, 1e-9]),
                    st.floats(-13.0, -7.0).map(lambda e: 10.0**e))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from([1.0, 0.5, 1e-2, 1e-5]), max_size=3), st.lists(PLANTED, min_size=1, max_size=5),
       st.integers(0, 2))
@example([1e-2], [5e-11, 2e-10], 0)
@example([1.0], [1e-9, 1e-10, 1e-12], 1)
@example([], [3e-9, 1e-13], 0)
def test_rank_decision_matches_each_old_rule(tops, planted, zeros):
    """Spans, defects and Wold's null space decide as before; the dilation's
    Cuntz part drops Q's band (1e-11, 1e-10] above its relative cut, which it
    used to keep. The gap is the pair of values beside the cut."""
    vals = np.array(sorted(tops + planted + [0.0] * zeros, reverse=True))
    diag = np.diag(vals).astype(complex)
    span = rank_decision(vals)
    assert span.rank == numerical_rank(vals) == range_basis(diag)[0].shape[1]
    assert span.zero_max == (vals[span.rank] if span.rank < vals.size else None)
    assert span.nonzero_min == (vals[span.rank - 1] if span.rank else None)
    assert contractions_mod.defect_root_and_basis(diag)[2].rank == defect_rank(vals)
    q = contractions_mod.PurityResult(diag, False, 1, True, "walk").q_spectrum()[2]
    assert q.rank == vals.size - wold_null_dim(vals)
    band = (vals > 1e-11) & (vals <= 1e-10) & (vals > 1e-9 * vals.max())
    assert cuntz_rank(vals) - q.rank == np.count_nonzero(band)
