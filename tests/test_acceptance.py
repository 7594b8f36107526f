"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Tolerances are pinned here, not configurable.
"""

import itertools
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import fockbench as fb
from fockbench._linalg import spectral_norm
from words_reference import shift_tuple, vacuum_vector

DATA = Path(__file__).parent / "data"


def report(line: str) -> None:
    print(line, flush=True)


def random_tuple(rng, n, dim, commuting, scale=1.05):
    if commuting:
        mats = [np.diag(rng.uniform(-1, 1, dim) + 1j * rng.uniform(-1, 1, dim)) for _ in range(n)]
    else:
        mats = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) for _ in range(n)]
    norm = np.linalg.norm(np.concatenate(mats, axis=1), 2)
    return fb.validate([m / (norm * scale) for m in mats])


def random_ball_point(rng, n, radius=0.9):
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return radius * z / np.linalg.norm(z) * rng.uniform(0.05, 1.0)


def nilpotent_commuting_pair():
    a = np.array([[0, 1 / np.sqrt(2)], [0, 0]], dtype=complex)
    b = np.array([[0, 1j / np.sqrt(2)], [0, 0]], dtype=complex)
    return fb.validate([a, b])


def coisometric_pair():
    return fb.validate([np.array([[1 / np.sqrt(2)]]), np.array([[1 / np.sqrt(2)]])])


def q_commuting_pair(q=0.5 + 0.25j):
    t1 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    t2 = np.array([[q, 0.0], [0.0, 1.0]], dtype=complex)
    s = 1.0 / np.sqrt(1.0 + abs(q) ** 2)
    return fb.validate([s * t1, s * t2]), q


def mixed_pair():
    base = nilpotent_commuting_pair()
    out = []
    for t in base.matrices:
        out.append(np.block([
            [t, np.zeros((2, 1))],
            [np.zeros((1, 2)), np.array([[1 / np.sqrt(2)]])],
        ]))
    return fb.validate(out)


def test_criterion_01_point_factorization():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    count_rc = 0
    worst = 0.0
    for n in (1, 2, 3):
        for commuting in (False, True):
            for dim in (2, 3, 4, 4, 5, 5, 3, 2, 4):
                rc = random_tuple(rng, n, dim, commuting)
                count_rc += 1
                points = [list(random_ball_point(rng, n)) for _ in range(18)]
                for _ in range(2):
                    mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(n)]
                    norm = np.linalg.norm(np.concatenate(mats, axis=1), 2)
                    points.append([m / (norm * 1.3) for m in mats])
                worst = max(worst, *fb.point_factorization(rc, points)[1])
    elapsed = time.monotonic() - start
    assert count_rc >= 50
    assert worst <= 1e-9
    assert elapsed < 10.0
    report(f"ACCEPTANCE 01 point-factorization ({count_rc} tuples x 20 points, "
           f"max residual {worst:.2e}, {elapsed:.1f}s): PASS")


def test_criterion_02_truncated_factorization():
    jordan = np.zeros((3, 3))
    jordan[0, 1] = jordan[1, 2] = 1.0
    upper1 = np.triu(np.ones((3, 3)), 1) / 2.0
    upper2 = np.triu(np.array([[0, 1.0, -1.0], [0, 0, 0.5], [0, 0, 0]]), 1) / 2.0
    norm = np.linalg.norm(np.concatenate([upper1, upper2], axis=1), 2)
    nilpotents = [
        (nilpotent_commuting_pair(), 2, 3),
        (nilpotent_commuting_pair(), 2, 4),
        (fb.validate([jordan]), 3, 3),
        (fb.validate([jordan]), 3, 5),
        (fb.validate([upper1 / norm, upper2 / norm]), 3, 4),
    ]
    for rc, degree, top in nilpotents:
        assert top >= degree
        kern = fb.poisson_kernel(rc, fb.TruncatedFock(rc.n, top))
        rep = fb.verify_truncated_factorization(kern, fb.characteristic_coefficients(rc, top))
        assert rep.residual <= 1e-10

    rng = np.random.default_rng(102)
    for _ in range(3):
        rc = random_tuple(rng, 2, 3, commuting=False, scale=1.02)
        kern = fb.poisson_kernel(rc, fb.TruncatedFock(2, 5))
        rep = fb.verify_truncated_factorization(kern, fb.characteristic_coefficients(rc, 5))
        assert rep.residual <= rep.budget
    report("ACCEPTANCE 02 truncated-factorization (nilpotent exact, generic within budget): PASS")


def test_criterion_03_defect_projection():
    fock = fb.TruncatedFock(2, 4)
    ideals = {
        "commutative": fb.commutator_generators(2),
        "q-commutative": fb.q_commutator_generators(np.array([[1.0, 0.4 + 0.2j], [0.0, 1.0]])),
        "truncated(2)": fb.word_length_generators(2, 2),
    }
    worst = 0.0
    for name, gens in ideals.items():
        cs = fb.build_constrained_subspace(fock, gens)
        assert cs.contains_vacuum()
        left = shift_tuple(cs, "left")
        defect = np.eye(cs.dim) - sum(b @ b.conj().T for b in left)
        v0 = vacuum_vector(cs)
        window = cs.basis_degrees <= fock.max_degree - 1
        res = spectral_norm((defect - np.outer(v0, v0.conj()))[np.ix_(window, window)])
        assert res <= 1e-10, name
        worst = max(worst, res)
    report(f"ACCEPTANCE 03 defect-projection (3 ideals, max residual {worst:.2e}): PASS")


def test_criterion_04_symmetric_dimensions():
    for n in (2, 3):
        fock = fb.TruncatedFock(n, 6)
        cs = fb.build_constrained_subspace(fock, fb.commutator_generators(n))
        for m in range(7):
            oracle = len({tuple(sorted(w)) for w in itertools.product(range(n), repeat=m)})
            assert cs.slice_dims[m] == oracle == math.comb(n + m - 1, m)
    report("ACCEPTANCE 04 symmetric-dimensions (n in {2,3}, m <= 6, multiset oracle): PASS")


def test_criterion_05_poisson_intertwining_and_gram():
    rng = np.random.default_rng(105)
    q_rc, q = q_commuting_pair()
    pairs = [
        (fb.validate([np.zeros((1, 1))]), [], 1, 5),
        (fb.validate([np.array([[0.55]])]), [], 1, 8),
        (nilpotent_commuting_pair(), fb.commutator_generators(2), 2, 4),
        (fb.validate([np.diag([0.3, -0.1]), np.diag([0.2, 0.4])]), fb.commutator_generators(2), 2, 5),
        (q_rc, fb.q_commutator_generators(np.array([[1.0, q], [0.0, 1.0]])), 2, 5),
        (random_tuple(rng, 2, 3, commuting=False), [], 2, 4),
        (mixed_pair(), fb.commutator_generators(2), 2, 4),
    ]
    worst = 0.0
    for rc, gens, n, top in pairs:
        fock = fb.TruncatedFock(n, top)
        if gens:
            cs = fb.build_constrained_subspace(fock, gens)
            kern = fb.constrained_poisson_kernel(rc, cs)
        else:
            kern = fb.poisson_kernel(rc, fock)
        inter = fb.intertwining_check(kern)
        assert inter.residual <= 1e-10
        worst = max(worst, inter.residual)
        # K^*K = I - Phi^(N+1)(I) exactly at truncation
        exact = np.eye(rc.dim) - fb.cp_apply(rc, np.eye(rc.dim), top + 1)
        assert spectral_norm(kern.matrix.conj().T @ kern.matrix - exact) <= 1e-12
        assert kern.isometry_defect <= 1e-12
    report(f"ACCEPTANCE 05 poisson-intertwining+gram (7 pairs, max residual {worst:.2e}): PASS")


def test_criterion_06_dilation_zoo():
    rng = np.random.default_rng(106)
    q_rc, q = q_commuting_pair()
    free: list = []
    comm = fb.commutator_generators(2)
    zoo = [
        (fb.validate([np.zeros((1, 1))]), free, 1, 5),
        (fb.validate([np.array([[0.5]])]), free, 1, 8),
        (fb.validate([np.array([[1.0]])]), free, 1, 4),            # coisometric scalar
        (coisometric_pair(), comm, 2, 4),                           # coisometric pair
        (nilpotent_commuting_pair(), comm, 2, 4),                   # pure nilpotent
        (mixed_pair(), comm, 2, 4),                                 # pure block + Cuntz block
        (q_rc, fb.q_commutator_generators(np.array([[1.0, q], [0.0, 1.0]])), 2, 5),
        (fb.validate([np.diag([0.2, -0.1]), np.diag([0.1, 0.15])]), comm, 2, 6),
        (random_tuple(rng, 2, 3, commuting=False, scale=1.4), free, 2, 4),
        (random_tuple(rng, 3, 2, commuting=True, scale=1.3), fb.commutator_generators(3), 3, 4),
        (fb.validate([np.zeros((2, 2)), np.eye(2) / np.sqrt(2), np.eye(2) / np.sqrt(2)]),
         fb.commutator_generators(3), 3, 3),                        # mixed defect
    ]
    assert len(zoo) >= 10
    for rc, gens, n, top in zoo:
        cs = fb.build_constrained_subspace(fb.TruncatedFock(n, top), gens)
        blocks = fb.build_dilation(fb.constrained_poisson_kernel(rc, cs))
        assert blocks.isometry_defect <= 1e-10
        assert blocks.cuntz_residual <= 1e-10
        assert max(blocks.constraint_residuals, default=0.0) <= 1e-10
        # independent oracle for rank of the row defect, cut at 1e-9 on the
        # contraction scale 1
        eigs = np.linalg.eigvalsh(np.eye(rc.dim) - rc.row_gram())
        oracle_rank = int(np.count_nonzero(eigs > 1e-9))
        assert rc.defect_rank == oracle_rank
        # kernel rows: the Poisson intertwining; Cuntz rows: the least squares
        assert max(fb.intertwining_check(blocks.kernel).residual, blocks.lsq_residual) <= 1e-10
    report(f"ACCEPTANCE 06 dilation-zoo ({len(zoo)} tuples): PASS")


def test_criterion_07_wold_two_path():
    families = []
    for jordan_size in (2, 3, 4):
        for phase in (0.3, 1.1):
            j = np.zeros((jordan_size, jordan_size))
            for k in range(jordan_size - 1):
                j[k, k + 1] = 1.0
            families.append([np.block([
                [j, np.zeros((jordan_size, 1))],
                [np.zeros((1, jordan_size)), np.array([[np.exp(1j * phase)]])],
            ])])
    fock = fb.TruncatedFock(2, 3)
    s = shift_tuple(fb.build_constrained_subspace(fock, []), "left")
    z = [np.array([[1 / np.sqrt(2)]]), np.array([[1j / np.sqrt(2)]])]
    families.append([np.block([
        [si, np.zeros((fock.dim, 1))],
        [np.zeros((1, fock.dim)), zi],
    ]) for si, zi in zip(s, z)])

    for mats in families:
        split = fb.wold_decompose(fb.validate(mats))
        assert split.two_path_dim_match
        assert split.two_path_angles.max(initial=0.0) <= 1e-8
        defect = np.eye(mats[0].shape[0]) - sum(m @ m.conj().T for m in mats)
        eigs = np.clip(np.linalg.eigvalsh(defect), 0.0, None)
        oracle_rank = int(np.count_nonzero(eigs > max(1e-9 * eigs.max(initial=0.0), 1e-12)))
        assert split.multiplicity == oracle_rank
    report(f"ACCEPTANCE 07 wold-two-path ({len(families)} families): PASS")


def test_criterion_08_model_theorem():
    q_rc, q = q_commuting_pair()
    # a q-commuting pair scaled by 1/4; the unscaled pair is a model-task test
    # in tests/test_dilation.py
    q_scaled = fb.validate([0.25 * m for m in q_rc.matrices])
    cases = [
        (fb.validate([np.zeros((1, 1))]), [], 1, 6),
        (fb.validate([np.array([[0.5]])]), [], 1, 24),
        (nilpotent_commuting_pair(), fb.commutator_generators(2), 2, 4),
        (q_scaled, fb.q_commutator_generators(np.array([[1.0, q], [0.0, 1.0]])), 2, 8),
        (fb.validate([np.diag([0.12, -0.1]), np.diag([0.08, 0.1])]), fb.commutator_generators(2), 2, 8),
    ]
    for rc, gens, n, top in cases:
        cs = fb.build_constrained_subspace(fb.TruncatedFock(n, top), gens)
        kern = fb.constrained_poisson_kernel(rc, cs)
        res = fb.model_space(kern)
        assert res.complement_residual <= 1e-10
        assert res.projection_residual <= 1e-10
        assert res.equivalence_residual <= 1e-10
        assert res.basis.shape[1] == rc.dim
    report(f"ACCEPTANCE 08 model-theorem ({len(cases)} pure constrained tuples): PASS")


def test_criterion_09_curvature_cross_method():
    rng = np.random.default_rng(109)
    examples = [
        coisometric_pair(),
        fb.validate([np.zeros((1, 1))]),
        nilpotent_commuting_pair(),
        mixed_pair(),
        q_commuting_pair()[0],
        fb.validate([np.array([[0.6]])]),
        random_tuple(rng, 1, 3, commuting=False),
        random_tuple(rng, 2, 2, commuting=False),
        random_tuple(rng, 2, 3, commuting=True),
        random_tuple(rng, 3, 2, commuting=False),
    ]
    assert len(examples) >= 10
    for rc in examples:
        rep = fb.curvature_theta(rc, 4)
        assert max(rep.extras["cross_check_vs_phi"]) <= 1e-8

    # trivial anchors, exact
    coiso = fb.curvature_phi(coisometric_pair(), 6)
    assert all(abs(x) < 1e-14 for x in coiso.sequence)
    zero = fb.curvature_phi(fb.validate([np.zeros((1, 1))]), 6)
    assert zero.sequence[0] == 1.0  # the geometric denominator is 1 at m=1
    report(f"ACCEPTANCE 09 curvature-cross-method ({len(examples)} examples + anchors): PASS")


def test_criterion_10_arveson_cross_method():
    rep = fb.arveson_curvature(nilpotent_commuting_pair(), m_max=12)
    assert rep.deviations["boundary_vs_qm"] <= 2e-2
    assert rep.slice_trace_gap <= 1e-10
    # scalar anchor: the integrand of the zero module is exactly (1 - r^2)
    anchor = fb.arveson_curvature(fb.validate([np.zeros((1, 1))]), m_max=6)
    for r, (value, tail) in anchor.boundary.items():
        assert abs(value - (1.0 - r * r)) <= 1e-15 and tail == 0.0
    report(
        "ACCEPTANCE 10 arveson-cross-method (|boundary - qm| = "
        f"{rep.deviations['boundary_vs_qm']:.3e} <= 2e-2, scalar anchor 1 - r^2 within 1e-15): PASS"
    )


def test_criterion_11_pick_criterion():
    def schwarz(t):
        return fb.PickProblem(n=1, points=np.array([[0.0], [0.5]]),
                              targets=[np.array([[0.0]]), np.array([[t]])])

    boundary = fb.pick_feasible(schwarz(0.5))
    assert boundary.feasible and boundary.marginal and abs(boundary.lambda_min) < 1e-12
    assert fb.pick_feasible(schwarz(0.5 - 1e-8)).feasible
    assert not fb.pick_feasible(schwarz(0.5 + 1e-8)).feasible

    rng = np.random.default_rng(111)
    for _ in range(10):
        k = int(rng.integers(2, 5))
        pts = rng.standard_normal((k, 2)) + 1j * rng.standard_normal((k, 2))
        pts *= (0.8 * rng.uniform(0.1, 1.0, (k, 1))) / np.linalg.norm(pts, axis=1, keepdims=True)
        prob = fb.PickProblem(n=2, points=pts, targets=[np.zeros((1, 1))] * k)
        m = fb.pick_matrix(prob)
        np.linalg.cholesky(m + 1e-12 * np.eye(k))
        assert fb.pick_feasible(prob).feasible

    pts = 0.3 * (np.random.default_rng(112).standard_normal((3, 2)))
    targets = [0.6 * np.random.default_rng(113 + i).standard_normal((2, 2)) for i in range(3)]
    u, _ = np.linalg.qr(np.random.default_rng(114).standard_normal((2, 2))
                        + 1j * np.random.default_rng(115).standard_normal((2, 2)))
    base = fb.pick_feasible(fb.PickProblem(n=2, points=pts, targets=targets))
    conj = fb.pick_feasible(fb.PickProblem(n=2, points=pts, targets=[u @ a @ u.conj().T for a in targets]))
    assert base.feasible == conj.feasible
    report("ACCEPTANCE 11 pick-criterion (Schwarz boundary, Gram PSD, unitary invariance): PASS")


def test_criterion_12_unitary_invariance():
    rng = np.random.default_rng(120)
    worst = 0.0
    for n, dim in ((1, 3), (2, 2), (2, 4), (3, 3)):
        rc = random_tuple(rng, n, dim, commuting=(dim % 2 == 0))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        u, _ = np.linalg.qr(g)
        res = fb.unitary_invariance_check(rc, u, max_degree=5)
        worst = max(worst, res)
        assert res <= 1e-10
    report(f"ACCEPTANCE 12 unitary-invariance (max residual {worst:.2e}): PASS")


def test_criterion_13_determinism():
    scenario = DATA / "golden_scenario.json"
    blobs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "fockbench.cli", "scenario", "run", str(scenario)],
            capture_output=True,
            cwd=str(Path(__file__).parent.parent),
        )
        assert proc.returncode == 0, proc.stderr.decode()
        blobs.append(proc.stdout)
    assert blobs[0] == blobs[1]
    from fockbench.cli import report_text, run_scenario

    live = report_text(run_scenario(str(scenario)))
    assert live == (DATA / "golden_report.json").read_text()
    report("ACCEPTANCE 13 determinism (byte-identical reruns + stored golden): PASS")
