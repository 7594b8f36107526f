import ast
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockbench.cli import (
    TASKS,
    RunContext,
    build_parser,
    main,
    report_text,
    run_scenario,
    run_task,
    task_arveson,
    task_curvature,
    task_factorize,
    task_pick,
    task_shifts,
    task_wold,
)
from fockbench.contractions import validate
from fockbench.errors import InvalidParameterError
from fockbench.serialize import (
    ideal_from_spec,
    matrix_from_json,
    matrix_to_json,
    point_from_json,
    polynomial_from_json,
)
from fockbench.ideals import NcPolynomial, _generator_matrix, commutator_generators
from fockbench.words import Word

DATA = Path(__file__).parent / "data"
GOLDENS = ("golden_report.json", "golden_qcomm_report.json")


def nilpotent_pair_json():
    a = np.array([[0, 1 / np.sqrt(2)], [0, 0]], dtype=complex)
    b = np.array([[0, 1j / np.sqrt(2)], [0, 0]], dtype=complex)
    return {"n": 2, "T": [matrix_to_json(a), matrix_to_json(b)]}


@pytest.fixture
def rc_file(tmp_path):
    path = tmp_path / "rc.json"
    path.write_text(json.dumps(nilpotent_pair_json()))
    return str(path)


class TestSerialize:
    def test_matrix_roundtrip(self):
        rng = np.random.default_rng(40)
        a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        assert np.array_equal(matrix_from_json(matrix_to_json(a)), a)

    def test_polynomial_roundtrip(self):
        p = NcPolynomial({Word((1, 2)): 1.0, Word((2, 1)): -1.0 + 0.5j})
        terms = [{"word": list(w.letters), "re": c.real, "im": c.imag} for w, c in p.terms.items()]
        q = polynomial_from_json(json.loads(json.dumps(terms)))
        assert q.terms == p.terms

    def test_ideal_shorthands(self):
        assert ideal_from_spec(2, "free") == []
        gens = ideal_from_spec(2, "commutative")
        assert len(gens) == 1
        assert len(ideal_from_spec(2, "truncated(2)")) == 4
        q_spec = {"kind": "q-commutative", "q": [[1.0, 0.5], [0.0, 1.0]]}
        assert len(ideal_from_spec(2, q_spec)) == 1

    def test_bad_matrix_rejected(self):
        with pytest.raises(InvalidParameterError):
            matrix_from_json({"shape": [2, 2], "data": [[0, 0]]})

    @pytest.mark.parametrize(
        "entry", [[float("nan"), 0.0], [0.0, float("inf")], [float("-inf"), 0.0], ["abc", 0.0]]
    )
    def test_non_finite_or_malformed_entry_rejected(self, entry):
        with pytest.raises(InvalidParameterError):
            matrix_from_json({"shape": [1, 2], "data": [[0.5, 0.0], entry]})

    @pytest.mark.parametrize(
        "point", [[[float("nan"), 0.0], [0.0, 0.0]], [float("inf"), 0.0], [["abc", 0], [0, 0]]]
    )
    def test_non_finite_or_malformed_point_rejected(self, point):
        with pytest.raises(InvalidParameterError):
            point_from_json(point, 2)

    @pytest.mark.parametrize("term", [
        {"word": [1], "re": float("inf")}, {"word": [1], "im": 10**400}, {"word": [1], "re": True},
        {"word": [0], "re": 1.0}, {"word": [1.0], "re": 1.0}, [1],
    ], ids=["re_inf", "im_beyond_float", "re_bool", "letter_zero", "letter_float", "term_not_an_object"])
    def test_malformed_polynomial_term_rejected(self, term):
        with pytest.raises(InvalidParameterError):
            polynomial_from_json([term])

    def test_non_finite_q_rejected(self):
        with pytest.raises(InvalidParameterError):
            ideal_from_spec(2, {"kind": "q-commutative", "q": [[0, float("inf")], [0, 0]]})

    def test_non_finite_pick_target_rejected(self):
        ctx = RunContext(n=1, trunc=2, generators=[], rc=None, tol=1e-9, seed=None)
        params = {"points": [[[0.0, 0.0]], [[0.5, 0.0]]], "targets": [[0.0, 0.0], [float("nan"), 0.0]]}
        with pytest.raises(InvalidParameterError):
            task_pick(ctx, params)


    def test_matrix_data_keeps_every_entry_and_its_sign(self):
        """The data pairs are the real and imaginary parts of the row-major
        entries as Python floats, signed zeros included, for a strided view
        as for a contiguous array."""
        a = np.array([[-0.0, complex(0.5, -0.0)], [complex(-1e-300, 2.0), 3.0]])
        for view in (a, a.T, a[:, ::-1]):
            data = matrix_to_json(view)["data"]
            expected = [[float(v.real), float(v.imag)] for v in np.asarray(view).reshape(-1)]
            assert data == expected
            assert [[math.copysign(1.0, x) for x in pair] for pair in data] == \
                [[math.copysign(1.0, x) for x in pair] for pair in expected]
            assert all(type(x) is float for pair in data for x in pair)


class TestSubcommands:
    def test_pick_schwarz_boundary(self, tmp_path, capsys):
        out = tmp_path / "pick.json"
        code = main(["pick", "--n", "1", "--points", "0,0.5", "--targets", "0,0.5", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["tasks"][0]["data"]["verdict"] == "feasible (marginal)"

    @pytest.mark.parametrize("targets", [[[0.0, 0.0], [0.2, 0.0]], [[0.0, 0.0], [0.9, 0.0]]],
                             ids=["feasible", "infeasible"])
    def test_pick_check_fails_on_a_shifted_lambda_min(self, monkeypatch, targets):
        """lambda_min off by 1e-9 max(1, lambda_max), on the golden points with
        a feasible and an infeasible target, fails lambda_min_residual."""
        import fockbench.interpolation as interpolation

        ctx = RunContext(n=2, trunc=None, generators=[], rc=None, tol=1e-9, seed=None)
        params = {"points": [[[0.0, 0.0], [0.0, 0.0]], [[0.3, 0.0], [0.1, 0.0]]], "targets": targets}
        clean = task_pick(ctx, params)
        assert [c["name"] for c in clean["checks"]] == ["lambda_min_residual"]
        assert clean["checks"][0]["value"] < 1e-15 and clean["checks"][0]["pass"]
        assert ("certificate" in clean["data"]) == (clean["data"]["verdict"] == "infeasible")

        eigh = np.linalg.eigh

        def shifted(m):
            vals, vecs = eigh(m)
            vals[0] += 1e-9 * max(1.0, vals[-1])
            return vals, vecs

        monkeypatch.setattr(interpolation.np.linalg, "eigh", shifted)
        check = task_pick(ctx, params)["checks"][0]
        assert check["value"] == pytest.approx(1e-9, rel=1e-6)
        assert not check["pass"]

    def test_shifts_commutative_dims(self, tmp_path):
        out = tmp_path / "shifts.json"
        code = main(["shifts", "--n", "2", "--N", "3", "--ideal", "commutative", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        task = report["tasks"][0]
        assert task["data"]["slice_dims"] == [1, 2, 3, 4]
        assert task["status"] == "pass"
        assert len(task["data"]["left_shifts"]) == 2
        # Every rank decision behind slice_dims is reported with a clear gap;
        # slice 0 makes none.
        gaps = task["data"]["slice_rank_gaps"]
        assert gaps[0] == {"sigma_zero_max": None, "sigma_nonzero_min": None}
        for gap in gaps[1:]:
            assert gap["sigma_zero_max"] <= 1e-12
            assert gap["sigma_nonzero_min"] is None or gap["sigma_nonzero_min"] > 0.5

    @pytest.mark.parametrize("mutation,failing", [("scale", "basis_orthonormal"), ("rotate", "ideal_orthogonality")])
    def test_shifts_checks_fail_on_a_perturbed_basis(self, mutation, failing):
        gens = commutator_generators(2)
        ctx = RunContext(n=2, trunc=4, generators=gens, rc=None, tol=1e-8, seed=None)
        cs = ctx.cs()
        slices = [q.copy() for q in cs.slices]
        q = slices[2]
        if mutation == "scale":
            q[:, 0] *= 1.0 + 1e-11
        else:
            # Turn one slice-2 vector towards the ideal: the basis stays
            # orthonormal, since the ideal is orthogonal to every basis vector.
            ideal = _generator_matrix(cs.fock, gens, 2)[:, 0]
            q[:, 0] = np.cos(1e-11) * q[:, 0] + np.sin(1e-11) * ideal / np.linalg.norm(ideal)
        ctx._cs = dataclasses.replace(cs, slices=slices)
        checks = {c["name"]: c for c in task_shifts(ctx, {"emit_matrices": False})["checks"]}
        assert not checks[failing]["pass"]
        assert all(c["pass"] for name, c in checks.items() if name != failing)

    def test_defect_check_fails_on_shrunk_shifts(self, monkeypatch):
        """Left shifts scaled by 1 - 5e-10 move I - sum B_i B_i^* off the
        vacuum projection by about 1e-9, ten times the bound; the basis checks
        do not read the shifts and still pass."""
        import fockbench.cli as cli

        ctx = RunContext(n=2, trunc=4, generators=commutator_generators(2), rc=None, tol=1e-8, seed=None)
        assert all(c["pass"] for c in task_shifts(ctx, {"emit_matrices": False})["checks"])
        shifts = cli.constrained_shifts
        monkeypatch.setattr(cli, "constrained_shifts",
                            lambda cs, side: [[(1 - 5e-10) * x for x in blocks] for blocks in shifts(cs, side)])
        checks = {c["name"]: c for c in task_shifts(ctx, {"emit_matrices": False})["checks"]}
        assert not checks["defect_is_vacuum_projection"]["pass"]
        assert checks["basis_orthonormal"]["pass"] and checks["ideal_orthogonality"]["pass"]

    def test_defect_check_fails_on_a_perturbed_slice_n_block(self, monkeypatch):
        """The block X_{N-1,1} maps into the top slice N, where
        I - sum B_i B_i^* = 0 holds as on every slice below it; moved by 1e-9
        it fails the check, which reads slice N as well."""
        import fockbench.cli as cli

        ctx = RunContext(n=2, trunc=4, generators=commutator_generators(2), rc=None, tol=1e-8, seed=None)
        shifts = cli.constrained_shifts

        def perturbed(cs, side):
            blocks = shifts(cs, side)
            blocks[0][-1] = blocks[0][-1] + 1e-9 * np.ones_like(blocks[0][-1])
            return blocks

        monkeypatch.setattr(cli, "constrained_shifts", perturbed)
        checks = {c["name"]: c for c in task_shifts(ctx, {"emit_matrices": False})["checks"]}
        assert not checks["defect_is_vacuum_projection"]["pass"]
        assert checks["basis_orthonormal"]["pass"] and checks["ideal_orthogonality"]["pass"]

    def test_two_rank_rules_probe_reports_one_defect_rank(self):
        """T = (diag(sqrt 0.5, sqrt(1 - 6e-10)), 0): the row defect has the
        eigenvalues 0.5 and 6e-10, and 6e-10 is below the defect cutoff 1e-9.
        Every task reads the one defect decision, so every defect rank is 1,
        each defect gap straddles the cutoff, and the two Wold paths agree.
        The kernel identities of poisson and dilate are not asserted here:
        they compare with a value that ignores the dropped eigenvalue
        (ROADMAP item 3)."""
        t1 = np.diag([np.sqrt(0.5), np.sqrt(1 - 6e-10)])
        scenario = {"n": 2, "N": 3, "T": [matrix_to_json(t1), matrix_to_json(np.zeros((2, 2)))],
                    "tasks": [{"task": "wold"}, {"task": "poisson"}, {"task": "dilate"}]}
        tasks = run_scenario(scenario)["tasks"]
        wold, poisson, dilate = (t["data"] for t in tasks)
        assert wold["multiplicity"] == poisson["defect_dim"] == dilate["defect_rank"] == 1
        assert [c["name"] for c in tasks[0]["checks"] if c["pass"]] == ["two_path_max_angle", "two_path_dim_mismatch"]
        gaps = [wold["defect_rank_gap"]] + [task[key] for task in (poisson, dilate)
                                            for key in ("defect_rank_gap", "column_defect_rank_gap")]
        for gap in gaps:
            assert gap["sigma_zero_max"] == pytest.approx(6e-10, rel=1e-6)
            assert gap["sigma_nonzero_min"] == pytest.approx(0.5, abs=1e-15)

    def test_q_is_decomposed_once_per_tuple(self, monkeypatch):
        """wold and dilate read one eigendecomposition of the purity limit Q:
        on a tuple with a Cuntz part (Q = diag(1, 0)) the scenario calls
        ``eigh`` on Q once, though wold runs twice and dilate once."""
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(np.array(a)) or eigh(a))
        t1, t2 = np.diag([1.0, 0.3]), np.diag([0.0, 0.3])
        scenario = {"n": 2, "N": 2, "T": [matrix_to_json(t1), matrix_to_json(t2)],
                    "tasks": [{"task": "wold"}, {"task": "dilate"}, {"task": "wold"}]}
        report = run_scenario(scenario)
        assert report["tasks"][1]["data"]["k_dim"] == 1
        q = np.diag([1.0, 0.0])
        assert sum(a.shape == (2, 2) and np.abs(a - q).max() < 1e-9 for a in calls) == 1

    def test_wold_angle_check_fails_on_a_rotated_purity_limit(self):
        """A Jordan block plus a unitary scalar: the purity limit is the
        projection onto the unitary direction. Rotated by 1e-7 radians, ten
        times the bound, towards the Jordan block, its null space leaves the
        word-translate span of the defect by that angle."""
        v = np.zeros((4, 4), dtype=complex)
        v[0, 1] = v[1, 2] = 1.0
        v[3, 3] = np.exp(0.9j)
        rc = validate([v])
        ctx = RunContext(n=1, trunc=3, generators=[], rc=rc, tol=1e-9, seed=None)
        assert all(c["pass"] for c in task_wold(ctx, {})["checks"])
        c, s = np.cos(1e-7), np.sin(1e-7)
        u = np.eye(4, dtype=complex)
        u[np.ix_([0, 3], [0, 3])] = [[c, -s], [s, c]]
        pur = rc.purity_limit()
        rc._purity = dataclasses.replace(pur, q_limit=u @ pur.q_limit @ u.conj().T)
        checks = {c["name"]: c for c in task_wold(ctx, {})["checks"]}
        assert not checks["two_path_max_angle"]["pass"]
        assert checks["two_path_dim_mismatch"]["pass"]

    def test_cross_method_check_fails_on_a_shifted_theta_gram(self, monkeypatch):
        """The theta route reads each slice trace of Theta Theta^* from the
        coefficient norms. Each trace moved by 1e-7 n^m, as a Theta Theta^*
        shifted by a multiple of I would move it, is 1e-7 per n^m, ten times
        the bound, away from the CP-map route."""
        import fockbench.invariants as invariants

        rc = validate([np.diag([0.3, -0.1]), np.diag([0.2, 0.4])])
        ctx = RunContext(n=2, trunc=None, generators=[], rc=rc, tol=1e-9, seed=None)
        assert all(c["pass"] for c in task_curvature(ctx, {"method": "theta", "m_max": 4})["checks"])
        by_degree = invariants._theta_defect_by_degree

        def shifted(*args, **kwargs):
            return [(slice_dim, trace + 1e-7 * 2**m, rank)
                    for m, (slice_dim, trace, rank) in enumerate(by_degree(*args, **kwargs), start=1)]

        monkeypatch.setattr(invariants, "_theta_defect_by_degree", shifted)
        checks = task_curvature(ctx, {"method": "theta", "m_max": 4})["checks"]
        assert [c["name"] for c in checks] == ["cross_method_gap"] and not checks[0]["pass"]
        assert abs(checks[0]["value"] - 1e-7) < 1e-12

    def test_slice_trace_check_fails_on_a_slice_trace_off_by_1e_9(self, monkeypatch):
        """For a commuting tuple each slice trace of I - Theta Theta^* on N_J
        is the CP orbit increment exactly; one slice trace moved by 1e-9, ten
        times the bound, fails ``slice_trace_vs_orbit``."""
        import fockbench.invariants as invariants

        rc = validate([np.diag([0.3, -0.1]), np.diag([0.2, 0.4])])
        ctx = RunContext(n=2, trunc=None, generators=[], rc=rc, tol=1e-9, seed=None)
        check = task_arveson(ctx, {"m_max": 3})["checks"][1]
        assert check["name"] == "slice_trace_vs_orbit" and check["pass"] and check["value"] <= 1e-13
        by_degree = invariants._theta_defect_by_degree

        def moved(*args, **kwargs):
            first, (slice_dim, trace, rank), *rest = by_degree(*args, **kwargs)
            return [first, (slice_dim, trace + 1e-9, rank), *rest]

        monkeypatch.setattr(invariants, "_theta_defect_by_degree", moved)
        check = task_arveson(ctx, {"m_max": 3})["checks"][1]
        assert check["name"] == "slice_trace_vs_orbit" and not check["pass"]
        assert abs(check["value"] - 1e-9) < 1e-12

    def test_point_check_fails_on_one_theta_of_30_off_by_1e_8(self, monkeypatch):
        """The per-call point factorization still checks every point: Theta at
        the 17th of 30 random points moved by 1e-8 reads about 1e-8 in
        ``point_factorization_max_residual`` and fails it."""
        import fockbench.charfn as charfn

        rng = np.random.default_rng(3)
        mats = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(2)]
        rc = validate([0.9 * t / np.linalg.norm(np.hstack(mats), 2) for t in mats])
        ctx = RunContext(n=2, trunc=None, generators=[], rc=rc, tol=1e-9, seed=7)
        params = {"mode": "point", "random_points": 30}
        check = task_factorize(ctx, params)["checks"][0]
        assert check["name"] == "point_factorization_max_residual" and check["pass"] and check["value"] < 1e-13
        theta_at, calls = charfn._theta_at, []

        def moved(*args):
            calls.append(None)
            theta = theta_at(*args)
            return theta + 1e-8 if len(calls) == 17 else theta

        monkeypatch.setattr(charfn, "_theta_at", moved)
        check = task_factorize(ctx, params)["checks"][0]
        assert len(calls) == 30 and not check["pass"]
        assert 1e-9 < check["value"] < 1e-7

    def test_point_check_bound_is_the_task_tol_or_the_run_tol(self):
        rc = validate([np.diag([0.3, -0.2]), np.diag([0.1, 0.4])])
        ctx = RunContext(n=2, trunc=None, generators=[], rc=rc, tol=3e-9, seed=7)
        params = {"mode": "point", "points": [[[0.1, 0.0], [0.2, 0.0]]]}
        assert task_factorize(ctx, params)["checks"][0]["bound"] == 3e-9
        assert task_factorize(ctx, {**params, "tol": 2e-5})["checks"][0]["bound"] == 2e-5

    def test_arveson_task_carrying_mc_samples_runs_and_passes(self):
        """Scenarios written for the former Monte-Carlo route still run (the
        benchmark's generator writes mc_samples): the key is echoed and read
        by nothing."""
        s = np.array([[1.0, 0.3, -0.2j], [0.0, 1.0, 0.4], [0.0, 0.0, 1.0]])
        mats = [0.5 * s @ np.diag(d) @ np.linalg.inv(s) for d in ([0.3, -0.5j, 0.1], [0.2j, 0.1, -0.4])]
        scenario = {"n": 2, "N": 2, "seed": 3, "ideal": "free", "T": [matrix_to_json(m) for m in mats],
                    "tasks": [{"task": "arveson", "m_max": 8, "mc_samples": 20_000}]}
        report = run_scenario(scenario)
        (task,) = report["tasks"]
        assert task["status"] == "pass" and report["scenario"]["tasks"][0]["mc_samples"] == 20_000
        assert "mc_samples" not in task["data"] and task["data"]["orbit_steps"] > 0

    def test_one_parser_serves_consecutive_calls(self, rc_file, tmp_path):
        """``main`` builds its parser once per process; calls with different
        subcommands in a row write the bytes that fresh parsers write."""
        runs = [
            ["shifts", "--n", "2", "--N", "2"],
            ["arveson", "--input", rc_file, "--m-max", "2"],
            ["pick", "--n", "1", "--points", "0,0.5", "--targets", "0,0.5"],
            ["curvature", "--input", rc_file, "--m-max", "2"],
            ["scenario", "run", str(DATA / "golden_scenario.json")],
            ["shifts", "--n", "1", "--N", "3", "--no-matrices"],
        ]

        def report_bytes(k, argv):
            out = tmp_path / f"{k}.json"
            assert main(argv + ["--out", str(out)]) == 0
            return out.read_bytes()

        shared = [report_bytes(k, argv) for k, argv in enumerate(runs)]
        assert build_parser() is build_parser()
        fresh = []
        for k, argv in enumerate(runs):
            build_parser.cache_clear()
            fresh.append(report_bytes(k, argv))
        assert shared == fresh

    def test_curvature_coisometric_all_zero(self, tmp_path):
        rc = {"n": 2, "T": [matrix_to_json(np.eye(1) / np.sqrt(2))] * 2}
        path = tmp_path / "rc.json"
        path.write_text(json.dumps(rc))
        out = tmp_path / "curv.json"
        code = main(["curvature", "--input", str(path), "--m-max", "4", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        seq = report["tasks"][0]["data"]["phi"]["sequence"]
        assert all(abs(x) < 1e-12 for x in seq)

    def test_unknown_curvature_method_fails_its_task(self):
        rc = validate([np.eye(1) / np.sqrt(2)] * 2)
        ctx = RunContext(n=2, trunc=3, generators=[], rc=rc, tol=1e-9, seed=None)
        with pytest.raises(InvalidParameterError, match="unknown curvature method 'thetta'"):
            task_curvature(ctx, {"method": "thetta", "m_max": 2})
        report = run_task(ctx, {"task": "curvature", "method": "thetta"})
        assert report["status"] == "fail" and report["error"].startswith("InvalidParameterError: ")

    def test_subcommand_report_echoes_its_scenario(self, rc_file, tmp_path):
        out = tmp_path / "poisson.json"
        assert main(["poisson", "--input", rc_file, "--ideal", "commutative", "--N", "3", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["scenario"] == dict(nilpotent_pair_json(), N=3, ideal="commutative",
                                          tasks=[{"task": "poisson"}])
        assert "params" not in report["tasks"][0]

    def test_pick_reads_no_truncation(self, tmp_path):
        """pick sends no N, so a word-length ideal of any degree is a variety
        to test membership in, not a truncation to exceed."""
        out = tmp_path / "pick.json"
        argv = ["pick", "--n", "2", "--points", "0,0", "--targets", "0", "--ideal", "truncated(3)", "--out", str(out)]
        assert main(argv) == 0
        scenario = json.loads(out.read_text())["scenario"]
        assert "N" not in scenario and scenario["n"] == 2 and scenario["ideal"] == "truncated(3)"

    @pytest.mark.parametrize("ideal", ["truncated(24)", {"kind": "truncated", "m": 24}], ids=["shorthand", "kind"])
    def test_pick_decides_a_word_length_ideal_from_its_degree(self, tmp_path, monkeypatch, ideal):
        """Without N, truncated(m) is tested by the n powers g_i^m: none of
        its n^m words is built. The origin passes; (0.5, 0), whose largest
        word residual 0.5^24 = 6e-8 exceeds 1e-10 times its term size 0.5^24,
        does not."""
        import fockbench.serialize as serialize

        monkeypatch.setattr(serialize, "word_length_generators", lambda n, m: pytest.fail("built n^m words"))
        scenario = {"n": 2, "ideal": ideal, "tasks": [
            {"task": "pick", "points": [[[0.0, 0.0], [0.0, 0.0]]], "targets": [[0.3, 0.0]]},
            {"task": "pick", "points": [[[0.5, 0.0], [0.0, 0.0]]], "targets": [[0.3, 0.0]]}]}
        origin, off = run_scenario(scenario)["tasks"]
        assert origin["status"] == "pass" and origin["data"]["verdict"] == "feasible"
        assert off["status"] == "fail" and "is not in the variety of the ideal" in off["error"]
        out = tmp_path / "pick.json"
        assert main(["pick", "--n", "2", "--points", "0,0", "--targets", "0", "--ideal", "truncated(24)",
                     "--out", str(out)]) == 0
        assert main(["pick", "--n", "2", "--points", "0.1,0", "--targets", "0", "--ideal", "truncated(3)",
                     "--out", str(out)]) == 1
        assert "is not in the variety of the ideal" in json.loads(out.read_text())["tasks"][0]["error"]

    @pytest.mark.parametrize("point", [[0.1, 0.0], [0.0, 0.02j], [1e-4, -1e-4], [0.0, 0.0]])
    def test_word_length_powers_give_the_verdict_of_every_word(self, point):
        """The n powers g_i^m and all n^m words of length m decide membership
        alike, at the default tolerance and at the largest word residual."""
        from fockbench.cli import _generators
        from fockbench.interpolation import variety_membership

        for m in (1, 2, 3, 5):
            words = ideal_from_spec(2, f"truncated({m})", max_degree=m)
            powers = _generators(2, f"truncated({m})", None)
            assert len(powers) == 2
            worst = max(abs(p.evaluate_scalar(point)) for p in words)
            assert worst == max(abs(p.evaluate_scalar(point)) for p in powers)
            for tol in (1e-10, worst):
                assert variety_membership(point, powers, 2, tol) == variety_membership(point, words, 2, tol)

    def test_scenarios_with_n_keep_every_word_of_a_word_length_ideal(self):
        from fockbench.cli import context_from_scenario

        ctx = context_from_scenario({"n": 2, "N": 4, "ideal": "truncated(3)", "tasks": []}, 1e-9, None)
        assert [p.terms for p in ctx.generators] == [p.terms for p in ideal_from_spec(2, "truncated(3)")]
        assert len(ctx.generators) == 8

    def test_factorize_point_passes(self, rc_file, tmp_path):
        out = tmp_path / "fact.json"
        code = main([
            "factorize", "--input", rc_file, "--ideal", "commutative",
            "--mode", "point", "--points", "0.1,0.2", "--out", str(out),
        ])
        assert code == 0

    def test_factorize_expansive_point_fails_task(self, rc_file, tmp_path):
        out = tmp_path / "fact.json"
        code = main([
            "factorize", "--input", rc_file, "--mode", "point",
            "--points", "0.9,0.9", "--out", str(out),
        ])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["tasks"][0]["status"] == "fail"
        assert "error" in report["tasks"][0]

    def test_unknown_flag_exits_2(self, rc_file):
        assert main(["factorize", "--input", rc_file, "--bogus"]) == 2

    def test_unknown_format_exits_2(self):
        assert main(["shifts", "--n", "1", "--N", "2", "--format", "xml"]) == 2

    def test_missing_input_exits_2(self, tmp_path):
        assert main(["wold", "--input", str(tmp_path / "none.json")]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["pick", "--n", "1", "--points", "0,0.5", "--targets", "0,0.5", "--tol", "nan"],
            ["poisson", "--input", "RC", "--r", "inf"],
            ["pick", "--n", "1", "--points", "0,nan", "--targets", "0,0.5"],
            ["factorize", "--input", "RC", "--points", "0.1,0.2;0,-inf"],
            ["pick", "--n", "1", "--points", "0,0.5", "--targets", "0,-inf"],
            ["arveson", "--input", "RC", "--r-list", "0.9,nan"],
        ],
        ids=["tol", "r", "pick_points", "factorize_points", "targets", "r_list"],
    )
    def test_non_finite_flag_exits_2_before_any_report(self, rc_file, tmp_path, capsys, argv):
        out = tmp_path / "report.json"
        argv = [rc_file if a == "RC" else a for a in argv]
        assert main(argv + ["--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("radii", ["1.0", "0.9,1.5", "-0.5", "0"])
    def test_r_list_outside_the_unit_interval_exits_2(self, rc_file, tmp_path, capsys, radii):
        out = tmp_path / "report.json"
        argv = ["arveson", "--input", rc_file, "--r-list", radii, "--out", str(out)]
        assert main(argv) == 2
        assert "(0, 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_wold_reuses_the_validated_tuple_and_its_purity(self, monkeypatch):
        # wold_decompose takes only a RowContraction, so it cannot validate
        # again; its purity limit is the tuple's cached one
        import fockbench.contractions as contractions

        calls = {"purity": 0}
        purity = contractions.purity

        def counting(*args, **kwargs):
            calls["purity"] += 1
            return purity(*args, **kwargs)

        monkeypatch.setattr(contractions, "purity", counting)
        rc = validate([matrix_from_json(m) for m in nilpotent_pair_json()["T"]])
        ctx = RunContext(n=2, trunc=3, generators=[], rc=rc, tol=1e-9, seed=None)
        data = task_wold(ctx, {})["data"]
        assert task_wold(ctx, {})["data"] == data
        assert calls == {"purity": 1}
        assert data["is_shift"] is True


class TestScenario:
    def scenario_dict(self):
        return {
            "name": "nilpotent-pair",
            "n": 2,
            "N": 4,
            "seed": 7,
            "ideal": "commutative",
            "T": nilpotent_pair_json()["T"],
            "tasks": [
                {"task": "shifts", "emit_matrices": False},
                {"task": "factorize", "mode": "point", "points": [[[0.1, 0.0], [0.2, 0.0]]]},
                {"task": "factorize", "mode": "truncated"},
                {"task": "poisson"},
                {"task": "curvature", "m_max": 3},
                {"task": "wold"},
                {"task": "dilate"},
                {"task": "model"},
                {"task": "pick", "points": [[[0.0, 0.0], [0.0, 0.0]], [[0.3, 0.0], [0.1, 0.0]]],
                 "targets": [[0.0, 0.0], [0.2, 0.0]]},
            ],
        }

    def test_scenario_runs_green(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self.scenario_dict()))
        report = run_scenario(str(path))
        assert report["summary"]["failed"] == 0
        assert report["summary"]["total"] == 9

    def test_scenario_task_failure_sets_exit_one(self, tmp_path):
        scenario = self.scenario_dict()
        scenario["tasks"] = [
            {"task": "factorize", "mode": "point", "points": [[[0.9, 0.0], [0.9, 0.0]]]},
            {"task": "curvature", "m_max": 2},
        ]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "report.json"
        code = main(["scenario", "run", str(path), "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        # the failing task does not abort the rest
        assert [t["status"] for t in report["tasks"]] == ["fail", "pass"]

    @pytest.mark.parametrize("bad_task, error_prefix", [
        ({"task": "factorize", "mode": "point", "points": [[[0.9, 0.0], [0.9, 0.0]]]}, "PreconditionError: "),
    ], ids=["point_outside_the_ball"])
    def test_raising_task_is_recorded_and_the_rest_run(self, tmp_path, bad_task, error_prefix):
        scenario = self.scenario_dict()
        scenario["tasks"] = [bad_task, {"task": "curvature", "m_max": 2}]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "report.json"
        assert main(["scenario", "run", str(path), "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert [t["status"] for t in report["tasks"]] == ["fail", "pass"]
        assert report["tasks"][0]["error"].startswith(error_prefix)

    @pytest.mark.parametrize("bad_task", [
        {"task": "arveson", "m_max": 2, "r_values": [0.9, 1.0]},
        {"task": "arveson", "m_max": 2, "r_values": []},
        {"task": "arveson", "m_max": 2, "r_values": ["0.9"]},
        {"task": "arveson", "m_max": 2, "r_values": 0.9},
        {"task": "curvature", "m_max": 3.9},
        {"task": "curvature", "m_max": True},
        {"task": "curvature", "m_max": 0},
        {"task": "curvature", "m_max": 2, "method": "thetta"},
        {"task": "arveson", "m_max": 2.5},
    ], ids=["arveson_radius_one", "arveson_no_radius", "arveson_radius_string", "arveson_radius_not_a_list",
            "curvature_m_max_float", "curvature_m_max_bool", "curvature_m_max_0", "curvature_unknown_method",
            "arveson_m_max_float"])
    def test_bad_curvature_or_arveson_parameter_exits_2(self, tmp_path, capsys, bad_task):
        """These parameters are checked when the scenario loads: the run exits
        2 before any compute and writes no report."""
        scenario = self.scenario_dict()
        scenario["tasks"] = [{"task": "curvature", "m_max": 2}, bad_task]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "report.json"
        assert main(["scenario", "run", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("bad_task, drop_seed", [
        ({"task": "factorize", "mode": "point", "points": [[[0.1, 0.0], [0.2, 0.0]]], "tol": "abc"}, False),
        ({"task": "factorize", "mode": "point", "points": [[[0.1, 0.0], [0.2, 0.0]]], "tol": 0.0}, False),
        ({"task": "factorize", "mode": "truncated", "tol": True}, False),
        ({"task": "pick", "points": [[[0.0, 0.0], [0.0, 0.0]]], "targets": [[0.0, 0.0]], "tol": -1e-9}, False),
        ({"task": "poisson", "r": 0.0}, False),
        ({"task": "poisson", "r": 1.5}, False),
        ({"task": "poisson", "r": "0.5"}, False),
        ({"task": "arveson", "m_max": 2, "agree_tol": -0.01}, False),
        ({"task": "arveson", "m_max": 2, "agree_tol": [0.1]}, False),
        ({"task": "factorize", "mode": "point", "random_points": 2}, True),
    ], ids=["tol_not_a_number", "factorize_tol_zero", "factorize_tol_bool", "pick_tol_negative", "poisson_r_zero",
            "poisson_r_above_one", "poisson_r_string", "arveson_agree_tol_negative", "arveson_agree_tol_list",
            "random_points_without_a_seed"])
    def test_bad_tolerance_radius_or_missing_seed_exits_2(self, tmp_path, capsys, bad_task, drop_seed):
        """A tol, r or agree_tol out of range, and random points with no seed
        from the task, the scenario or --seed, are checked when the scenario
        loads: the run exits 2 before any compute and writes no report."""
        scenario = self.scenario_dict()
        scenario["tasks"] = [{"task": "curvature", "m_max": 2}, bad_task]
        if drop_seed:
            del scenario["seed"]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "report.json"
        assert main(["scenario", "run", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("seeded", [{"seed": 5}, {}], ids=["task_seed", "flag_seed"])
    def test_random_points_take_a_seed_from_the_task_or_the_flag(self, tmp_path, seeded):
        scenario = self.scenario_dict()
        del scenario["seed"]
        scenario["tasks"] = [{"task": "factorize", "mode": "point", "random_points": 2, **seeded}]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        argv = ["scenario", "run", str(path), "--out", str(tmp_path / "report.json")]
        assert main(argv + ([] if seeded else ["--seed", "5"])) == 0

    @pytest.mark.parametrize("bad_task", [
        {"task": "factorize", "mode": "pointwise", "points": [[[0.1, 0.0], [0.2, 0.0]]]},
        {"task": "factorize"},
        {"task": "factorize", "mode": "point", "points": []},
        {"task": "factorize", "mode": "point", "random_points": 0},
        {"task": "factorize", "mode": "point", "random_points": 2.5},
        {"task": "factorize", "mode": "point", "points": [[[0.1, 0.0], [0.2, 0.0]]], "random_points": -1},
        {"task": "wold", "k_max": -1},
        {"task": "wold", "k_max": 1.5},
        {"task": "wold", "k_max": "3"},
        {"task": "wold", "k_max": True},
    ], ids=["factorize_unknown_mode", "factorize_no_points", "factorize_empty_points",
            "factorize_zero_random_points", "factorize_random_points_float", "factorize_negative_random_points",
            "wold_negative_k_max", "wold_k_max_float", "wold_k_max_string", "wold_k_max_bool"])
    def test_bad_factorize_or_wold_parameter_exits_2(self, tmp_path, capsys, bad_task):
        """Checked when the scenario loads, like the curvature and arveson
        parameters: the run exits 2 before any compute and writes no report."""
        scenario = self.scenario_dict()
        scenario["tasks"] = [{"task": "curvature", "m_max": 2}, bad_task]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "report.json"
        assert main(["scenario", "run", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("emit", ["no", 0, None, [False]], ids=["string", "integer", "null", "list"])
    def test_non_bool_emit_matrices_exits_2(self, tmp_path, capsys, emit):
        """emit_matrices is read as a JSON bool: any other value, even a
        falsy one, exits 2 when the scenario loads and names the key."""
        scenario = self.scenario_dict()
        scenario["tasks"] = [{"task": "shifts", "emit_matrices": emit}]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "report.json"
        assert main(["scenario", "run", str(path), "--out", str(out)]) == 2
        assert "emit_matrices" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["factorize", "--input", "RC"], "point mode needs points"),
        (["factorize", "--input", "RC", "--random-points", "0"], "point mode needs points"),
        (["factorize", "--input", "RC", "--random-points", "-2"], "need an integer random_points >= 0"),
        (["wold", "--input", "RC", "--k-max", "-1"], "need an integer k_max >= 0"),
    ], ids=["factorize_no_points", "factorize_zero_random_points", "factorize_negative_random_points",
            "wold_negative_k_max"])
    def test_bad_factorize_or_wold_flag_exits_2_before_any_compute(self, rc_file, tmp_path, capsys, monkeypatch,
                                                                  argv, message):
        import fockbench.cli as cli

        calls = []
        monkeypatch.setattr(cli, "context_from_scenario", lambda *a: calls.append(a))
        out = tmp_path / "report.json"
        assert main([rc_file if a == "RC" else a for a in argv] + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("where, seed", [("scenario", "abc"), ("task", -1), ("scenario", 1.5), ("task", True),
                                             ("flag", -1), ("subcommand_flag", -1)],
                             ids=["scenario_string", "task_negative", "scenario_float", "task_bool", "flag_negative",
                                  "subcommand_flag_negative"])
    def test_bad_seed_exits_2_before_any_compute(self, rc_file, tmp_path, capsys, monkeypatch, where, seed):
        """A seed that is not an integer >= 0, on the scenario, on a factorize
        task or from --seed, is an InvalidParameterError naming seed when the
        scenario loads: no task runs and no report is written."""
        import fockbench.cli as cli

        scenario = self.scenario_dict()
        del scenario["seed"]
        task = {"task": "factorize", "mode": "point", "random_points": 2}
        if where in ("scenario", "task"):
            (scenario if where == "scenario" else task)["seed"] = seed
        scenario["tasks"] = [task]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "report.json"
        argv = {"subcommand_flag": ["factorize", "--input", rc_file, "--random-points", "2"]}.get(
            where, ["scenario", "run", str(path)])
        argv += ["--seed", str(seed)] if where.endswith("flag") else []
        calls = []
        monkeypatch.setattr(cli, "run_task", lambda *a: calls.append(a))
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: need an integer seed >= 0")
        assert calls == [] and not out.exists()
        with pytest.raises(InvalidParameterError, match="integer seed >= 0"):
            run_scenario(scenario, seed=seed if where.endswith("flag") else None)

    @pytest.mark.parametrize("target", [[0.2], "x"], ids=["one_number", "string"])
    def test_malformed_pick_target_exits_2_naming_it(self, tmp_path, capsys, target):
        scenario = self.scenario_dict()
        scenario["tasks"] = [{"task": "pick", "points": [[[0.0, 0.0], [0.0, 0.0]], [[0.3, 0.0], [0.1, 0.0]]],
                              "targets": [[0.0, 0.0], target]}]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "report.json"
        assert main(["scenario", "run", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: pick target 1 must be a matrix object or an [re, im] "
                                                  f"pair of finite numbers, got {target!r}")
        assert not out.exists()
        with pytest.raises(InvalidParameterError, match="pick target 1"):
            run_scenario(scenario)

    def custom_ideal_scenario(self, words, t2, tasks):
        """The scalar pair (0.4, t2) at N = 3 under the custom generator
        x1 x1 - 0.25 x_words, with these tasks."""
        scenario = self.scenario_dict()
        scenario.update(N=3, T=[matrix_to_json(np.array([[0.4]])), matrix_to_json(np.array([[t2]]))], tasks=tasks,
                        ideal={"kind": "custom", "generators": [[{"word": [1, 1], "re": 1.0},
                                                                 {"word": words, "re": -0.25}]]})
        return scenario

    @pytest.mark.parametrize("tasks", [
        [{"task": "shifts"}, {"task": "model"}],
        [{"task": "pick", "points": [[[0.0, 0.0], [0.0, 0.0]], [[0.2, 0.0], [0.16, 0.0]]],
          "targets": [[0.0, 0.0], [0.2, 0.0]]}],
    ], ids=["shifts_and_model", "pick"])
    def test_non_homogeneous_generator_exits_2_before_any_compute(self, tmp_path, capsys, monkeypatch, tasks):
        """x1 x1 - 0.25 x2 holds at the scalar pair (0.4, 0.64), but its terms
        have lengths 2 and 1: the scenario exits 2 and names the generator."""
        import fockbench.cli as cli

        calls = []
        monkeypatch.setattr(cli, "run_task", lambda *a: calls.append(a))
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self.custom_ideal_scenario([2], 0.64, tasks)))
        out = tmp_path / "report.json"
        assert main(["scenario", "run", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "custom generator 1, NcPolynomial((-0.25+0j)*g2 + (1+0j)*g1g1), is not homogeneous" in err
        assert calls == [] and not out.exists()

    def test_homogeneous_custom_generator_runs_every_task(self):
        """x1 x1 - 0.25 x2 x2 is homogeneous and holds at the scalar pair
        (0.4, 0.8): every task runs on its N_J and passes."""
        scenario = self.custom_ideal_scenario([2, 2], 0.8, [
            {"task": "shifts"}, {"task": "factorize", "points": [[[0.1, 0.0], [0.2, 0.0]]]},
            {"task": "factorize", "mode": "truncated"}, {"task": "poisson"}, {"task": "curvature"},
            {"task": "arveson"}, {"task": "wold"}, {"task": "dilate"}, {"task": "model"},
            {"task": "pick", "points": [[[0.0, 0.0], [0.0, 0.0]], [[0.1, 0.0], [0.2, 0.0]]],
             "targets": [[0.0, 0.0], [0.2, 0.0]]}])
        report = run_scenario(scenario)
        assert {t["task"] for t in report["tasks"]} == set(TASKS)
        assert report["summary"] == {"total": 10, "passed": 10, "failed": 0}
        assert report["tasks"][0]["data"]["slice_dims"] == [1, 2, 3, 4]

    def test_non_finite_point_fails_its_task_at_the_boundary(self, tmp_path, capsys):
        # the NaN token is rejected when the scenario is parsed, before any
        # compute, so no report is written that could echo it
        scenario = self.scenario_dict()
        scenario["tasks"] = [
            {"task": "factorize", "mode": "point", "points": [[[float("nan"), 0.0], [0.0, 0.0]]]},
            {"task": "curvature", "m_max": 2},
        ]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "report.json"
        assert main(["scenario", "run", str(path), "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_strict_json_constants_exit_2(self, tmp_path, capsys, token):
        rc_path = tmp_path / "rc.json"
        rc_path.write_text('{"n": 1, "T": [{"shape": [1, 1], "data": [[%s, 0.0]]}]}' % token)
        assert main(["wold", "--input", str(rc_path)]) == 2
        targets = tmp_path / "targets.json"
        targets.write_text('[{"shape": [1, 1], "data": [[%s, 0.0]]}]' % token)
        assert main(["pick", "--n", "1", "--points", "0.1", "--targets-file", str(targets)]) == 2
        err = capsys.readouterr().err
        assert err.count("finite") == 2 and token in err

    def test_non_finite_tuple_entry_exits_2(self, tmp_path, capsys):
        scenario = self.scenario_dict()
        scenario["T"][0]["data"][1] = [float("nan"), 0.0]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        assert main(["scenario", "run", str(path)]) == 2
        assert "finite" in capsys.readouterr().err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        assert main(["scenario", "run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_tuple_task_without_tuple_exits_2(self, tmp_path):
        scenario = {"name": "x", "n": 1, "N": 2, "tasks": [{"task": "wold"}]}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        assert main(["scenario", "run", str(path)]) == 2

    @pytest.mark.parametrize("task,code", [({"task": "curvature", "m_max": 2}, 0), ({"task": "model"}, 2)],
                             ids=["curvature_runs", "model_exits_2"])
    def test_scenario_needs_N_only_for_a_task_on_the_truncation(self, tmp_path, capsys, task, code):
        scenario = self.scenario_dict()
        del scenario["N"]
        scenario["tasks"] = [task]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        assert main(["scenario", "run", str(path), "--out", str(tmp_path / "report.json")]) == code
        assert ("scenario key 'N'" in capsys.readouterr().err) == (code == 2)

    def test_pick_task_without_targets_exits_2(self, tmp_path):
        scenario = {"name": "x", "n": 1, "N": 2,
                    "tasks": [{"task": "pick", "points": [[[0.0, 0.0]]]}]}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        assert main(["scenario", "run", str(path)]) == 2

    @pytest.mark.parametrize("argv,text", [
        (["scenario", "run", "FILE"], "5"),
        (["scenario", "run", "FILE"], '{"n": 1, "N": 2, "tasks": 5}'),
        (["scenario", "run", "FILE"], '{"n": 1, "N": 2, "tasks": [1]}'),
        (["wold", "--input", "FILE"], "[1, 2]"),
        (["wold", "--input", "FILE"], '{"n": 1, "T": 5}'),
    ], ids=["scenario_number", "tasks_number", "task_number", "input_list", "input_T_number"])
    def test_malformed_json_shape_exits_2_before_any_report(self, tmp_path, capsys, argv, text):
        path = tmp_path / "input.json"
        path.write_text(text)
        out = tmp_path / "report.json"
        assert main([str(path) if a == "FILE" else a for a in argv] + ["--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_task_exits_2(self, tmp_path):
        scenario = self.scenario_dict()
        scenario["tasks"] = [{"task": "frobnicate"}]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        assert main(["scenario", "run", str(path)]) == 2


    @pytest.mark.parametrize("ideal", [
        "truncated(x)",
        {"kind": "truncated", "m": "x"},
        {"kind": "custom", "generators": [[{"word": [1, 2], "re": "abc"}]]},
        [[{"word": 5, "re": 1.0}]],
        [[{"word": "ab", "re": 1.0}]],
        [[{"word": [1, 2], "re": "nan"}]],
        [[{"word": [3], "re": 1.0}]],
    ], ids=["shorthand_m", "kind_m", "re_not_a_number", "word_number", "word_string", "re_nan", "letter_beyond_n"])
    def test_malformed_ideal_exits_2_before_any_report(self, tmp_path, capsys, ideal):
        scenario = self.scenario_dict()
        scenario["ideal"] = ideal
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "report.json"
        assert main(["scenario", "run", str(path), "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_factorize_and_model_run_at_truncation_zero(self, tmp_path):
        """At N = 0 Theta is its constant coefficient -E^* T E_*, and
        I - Theta_0 Theta_0^* = K_0 K_0^* holds exactly: the truncated
        factorization and the model pass beside shifts, poisson and dilate."""
        rng = np.random.default_rng(4)
        mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2)]
        mats = [0.85 * m / np.linalg.norm(np.hstack(mats), 2) for m in mats]
        scenario = {**self.scenario_dict(), "N": 0, "ideal": "free", "T": [matrix_to_json(m) for m in mats],
                    "tasks": [{"task": "shifts"}, {"task": "poisson"}, {"task": "dilate"},
                              {"task": "factorize", "mode": "truncated"}, {"task": "model"}]}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "report.json"
        assert main(["scenario", "run", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["summary"] == {"total": 5, "passed": 5, "failed": 0}
        factorize, model = report["tasks"][3:]
        assert 0.0 < factorize["data"]["residual"] <= factorize["data"]["budget"]
        assert model["data"]["model_dim"] == 2

    def test_free_truncated_factorization_never_forms_theta_theta_star(self, monkeypatch):
        """On the Fock space the check reads Theta's degree blocks one at a
        time, and the model space reads Theta as an action on its probe:
        neither forms the whole Gram."""
        import fockbench.charfn as charfn

        def refuse(*args, **kwargs):
            raise AssertionError("theta_gram or assemble called")

        monkeypatch.setattr(RunContext, "theta_gram", refuse)
        monkeypatch.setattr(charfn, "assemble", refuse)
        scenario = {**self.scenario_dict(), "ideal": "free",
                    "tasks": [{"task": "factorize", "mode": "truncated"}, {"task": "model"}]}
        assert run_scenario(scenario)["summary"] == {"total": 2, "passed": 2, "failed": 0}

    def count_calls(self, tmp_path, monkeypatch, ideal, tasks):
        """Run a scenario with these tasks and count the calls of the kernel
        constructor, the constraint check, purity, the constrained shifts and
        Theta's assembly."""
        import fockbench.charfn as charfn
        import fockbench.contractions as contractions
        import fockbench.ideals as ideals
        import fockbench.poisson as poisson

        counts = {}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        # patch every fockbench namespace that binds each function
        for home, name in ((poisson, "poisson_kernel"), (contractions, "check_constraints"),
                           (contractions, "purity"), (ideals, "constrained_shifts"), (charfn, "assemble")):
            original, counts[name] = getattr(home, name), 0
            for module in [m for key, m in sys.modules.items() if key.startswith("fockbench")]:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting(name, original))
        scenario = self.scenario_dict()
        scenario["ideal"] = ideal
        scenario["tasks"] = tasks
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        assert run_scenario(str(path))["summary"]["failed"] == 0
        return counts

    @pytest.mark.parametrize("ideal,constraint_checks,shift_bound,assembles",
                             [("commutative", 1, 4, 1), ("free", 0, 1, 0)], ids=["commutative-1-4", "free-0-1"])
    def test_one_kernel_constraint_check_and_purity_per_scenario(self, tmp_path, monkeypatch, ideal,
                                                                 constraint_checks, shift_bound, assembles):
        """On N_J factorize and model read one Theta Theta^* from one
        assembled Theta; on the Fock space model reads it from the
        coefficients and factorize reads their degree blocks."""
        counts = self.count_calls(tmp_path, monkeypatch, ideal, [
            {"task": "shifts", "emit_matrices": False}, {"task": "factorize", "mode": "truncated"},
            {"task": "poisson"}, {"task": "wold"}, {"task": "dilate"}, {"task": "model"}])
        assert counts.pop("constrained_shifts") <= shift_bound
        assert counts == {"poisson_kernel": 1, "check_constraints": constraint_checks, "purity": 1,
                          "assemble": assembles}

    def test_free_factorize_and_curvature_never_assemble_theta(self, tmp_path, monkeypatch):
        """On the Fock space the truncated factorization, the model space and
        the theta curvature read Theta's coefficients and never assemble it."""
        counts = self.count_calls(tmp_path, monkeypatch, "free", [
            {"task": "factorize", "mode": "truncated"}, {"task": "model"},
            {"task": "curvature", "method": "theta", "m_max": 3}])
        assert counts == {"poisson_kernel": 1, "check_constraints": 0, "purity": 1, "constrained_shifts": 0,
                          "assemble": 0}

    @pytest.mark.parametrize("key,value", [("N", "abc"), ("N", -1), ("N", 4.5), ("n", 0), ("n", True)])
    def test_malformed_scenario_sizes_exit_2(self, tmp_path, capsys, key, value):
        scenario = self.scenario_dict()
        scenario[key] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        assert main(["scenario", "run", str(path)]) == 2
        assert f"need an integer {key} >=" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["shifts", "--n", "0", "--N", "3"], "need an integer n >= 1"),
        (["shifts", "--n", "2", "--N", "-1"], "need an integer N >= 0"),
        (["factorize", "--input", "RC", "--N", "-1", "--mode", "truncated"], "need an integer N >= 0"),
        (["poisson", "--input", "RC", "--N", "-2"], "need an integer N >= 0"),
        (["wold", "--input", "RC3"], "tuple length disagrees"),
    ], ids=["shifts_n", "shifts_N", "factorize_N", "poisson_N", "wold_n_mismatch"])
    def test_malformed_subcommand_sizes_exit_2_before_any_report(self, tmp_path, capsys, monkeypatch, argv, message):
        """A subcommand's flags go through the scenario checks: a bad size
        exits 2 before the tuple is validated, and a tuple whose length
        disagrees with its declared n exits 2 too."""
        import fockbench.cli as cli

        rc3 = tmp_path / "rc3.json"
        rc3.write_text(json.dumps(dict(nilpotent_pair_json(), n=3)))
        rc2 = tmp_path / "rc.json"
        rc2.write_text(json.dumps(nilpotent_pair_json()))
        validated = []
        monkeypatch.setattr(cli, "validate", lambda mats: validated.append(mats) or validate(mats))
        out = tmp_path / "report.json"
        argv = [{"RC": str(rc2), "RC3": str(rc3)}.get(a, a) for a in argv]
        assert main(argv + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert len(validated) == int(str(rc3) in argv)

    @pytest.mark.parametrize("ideal", ["truncated(24)", {"kind": "truncated", "m": 24}], ids=["shorthand", "kind"])
    def test_truncated_ideal_above_the_truncation_degree_exits_2_before_any_monomial(
            self, tmp_path, capsys, monkeypatch, ideal):
        import fockbench.serialize as serialize

        calls = []
        monkeypatch.setattr(serialize, "word_length_generators", lambda n, m: calls.append((n, m)) or [])
        scenario = self.scenario_dict()
        scenario["ideal"] = ideal
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        assert main(["scenario", "run", str(path)]) == 2
        assert main(["shifts", "--n", "2", "--N", "4", "--ideal", "truncated(24)"]) == 2
        assert "exceeds the truncation degree 4" in capsys.readouterr().err
        assert calls == []


    @pytest.mark.parametrize("N", [0, 1])
    @pytest.mark.parametrize("ideal", [
        "commutative",
        {"kind": "q-commutative", "q": [[1.0, 0.5], [0.0, 1.0]]},
        [[{"word": [1, 2], "re": 1.0}, {"word": [2, 1], "re": -1.0}]],
    ], ids=["commutative", "q-commutative", "custom"])
    def test_named_ideal_above_the_truncation_degree_exits_2_at_load(self, tmp_path, capsys, monkeypatch, ideal, N):
        """A degree-2 generator at N = 0 or 1 is rejected before any task
        runs, with the generator and the truncation named."""
        import fockbench.cli as cli

        ran = []
        monkeypatch.setattr(cli, "run_task", lambda ctx, spec: ran.append(spec))
        scenario = dict(self.scenario_dict(), ideal=ideal, N=N)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "report.json"
        assert main(["scenario", "run", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "ideal generator 1" in err and f"of degree 2 exceeds the truncation degree {N}" in err
        assert ran == [] and not out.exists()


class TestDeterminism:
    def test_golden_scenario_reruns_byte_identically(self, tmp_path):
        scenario_path = DATA / "golden_scenario.json"
        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "fockbench.cli", "scenario", "run", str(scenario_path), "--out", str(out)],
                capture_output=True,
                cwd=str(Path(__file__).parent.parent),
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_golden_scenario_imports_only_numpy_and_the_stdlib(self, tmp_path):
        # numpy is the one declared dependency; numpy.random is in the baseline
        # because it loads its cython runtime modules lazily, and a numpy
        # submodule loaded later still counts as numpy.
        script = (
            "import json, sys\n"
            "import numpy, numpy.random\n"
            "before = set(sys.modules)\n"
            "from fockbench.cli import main\n"
            "code = main(['scenario', 'run', sys.argv[1], '--out', sys.argv[2]])\n"
            "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(json.dumps([code, sorted(new - set(sys.stdlib_module_names) - {'fockbench', 'numpy'})]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(DATA / "golden_scenario.json"), str(tmp_path / "report.json")],
            capture_output=True,
            cwd=str(Path(__file__).parent.parent),
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert json.loads(proc.stdout) == [0, []]

    def test_golden_report_matches_stored(self, tmp_path):
        scenario_path = DATA / "golden_scenario.json"
        report = run_scenario(str(scenario_path))
        text = report_text(report)
        stored = (DATA / "golden_report.json").read_text()
        assert text == stored

    def test_qcomm_golden_report_matches_stored(self, tmp_path):
        """Pins the graded fast paths (shifts, slice-built ideal, block-wise
        constrained assembly) to the stored report, byte for byte."""
        out = tmp_path / "report.json"
        assert main(["scenario", "run", str(DATA / "golden_qcomm_scenario.json"), "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / "golden_qcomm_report.json").read_bytes()

    def test_golden_check_bounds_are_constants_not_tail_budgets(self):
        """Every check of both stored reports compares with a bound of at most
        1e-8, except ``boundary_vs_qm``, the gap between two routes to the
        curvature at a finite radius and a finite m; a bound
        sized by the purity tail (0.069 to 0.21 on the q-commuting golden)
        would pass whatever the code computes."""
        for name in ("golden_report.json", "golden_qcomm_report.json"):
            report = json.loads((DATA / name).read_text())
            checks = [check for task in report["tasks"] for check in task["checks"]]
            assert checks
            loose = [(c["name"], c["bound"]) for c in checks if c["bound"] > 1e-8 and c["name"] != "boundary_vs_qm"]
            assert loose == [], name


DOCS = Path(__file__).parent.parent / "docs"

SUBCOMMAND_ARGV = {
    "shifts": ["--n", "2", "--N", "2"],
    "factorize": ["--input", "RC", "--points", "0.1,0.2"],
    "curvature": ["--input", "RC", "--m-max", "2"],
    "arveson": ["--input", "RC", "--m-max", "2"],
    "pick": ["--n", "1", "--points", "0,0.5", "--targets", "0,0.5"],
    "wold": ["--input", "RC"],
    "dilate": ["--input", "RC", "--N", "3"],
    "model": ["--input", "RC", "--N", "3"],
    "poisson": ["--input", "RC", "--N", "3"],
}


def load_schema(name):
    return json.loads((DOCS / name).read_text())


def resolve(schema, root):
    """The schema a "$ref" ("file#/pointer", within ``root`` or to a schema
    file in docs/) points to, and the root it lives in; others as they are."""
    if "$ref" not in schema:
        return schema, root
    name, _, pointer = schema["$ref"].partition("#")
    root = load_schema(name) if name else root
    target = root
    for part in filter(None, pointer.split("/")):
        target = target[part]
    return resolve(target, root)


def holds(condition, value):
    """Whether the value meets an ``if`` condition of the schemas in docs/:
    ``required`` keys, each property's ``const``, ``enum`` or ``contains``,
    and ``not``."""
    if "not" in condition:
        return not holds(condition["not"], value)
    if "const" in condition:
        return value == condition["const"]
    if "enum" in condition:
        return value in condition["enum"]
    if "contains" in condition:
        return isinstance(value, list) and any(holds(condition["contains"], v) for v in value)
    if isinstance(value, dict):
        return all(key in value for key in condition.get("required", [])) and all(
            holds(sub, value[key]) for key, sub in condition.get("properties", {}).items() if key in value)
    return True


def applied_rules(schema, value, root):
    """Yield (schema, root) for the schema, with references resolved, and for
    every rule that applies to the value: each ``allOf`` entry, the ``then``
    of an ``if`` that holds, and the ``oneOf`` branch of the value's
    container type (object or array)."""
    schema, root = resolve(schema, root)
    yield schema, root
    if "if" in schema and holds(schema["if"], value):
        yield from applied_rules(schema["then"], value, root)
    for rule in schema.get("allOf", []):
        yield from applied_rules(rule, value, root)
    kind = {dict: "object", list: "array"}.get(type(value))
    for branch in schema.get("oneOf", []):
        if kind is not None and resolve(branch, root)[0].get("type") == kind:
            yield from applied_rules(branch, value, root)


def missing_required(schema, value, root, path="$"):
    """Yield the path of every key the applying rules require that the value
    lacks, following properties and items."""
    rules = list(applied_rules(schema, value, root))
    if isinstance(value, dict):
        yield from (f"{path}.{key}" for rule, _ in rules for key in rule.get("required", []) if key not in value)
        for rule, rule_root in rules:
            for key, sub in rule.get("properties", {}).items():
                if key in value:
                    yield from missing_required(sub, value[key], rule_root, f"{path}.{key}")
    elif isinstance(value, list):
        for rule, rule_root in rules:
            for idx, item in enumerate(value if "items" in rule else []):
                yield from missing_required(rule["items"], item, rule_root, f"{path}[{idx}]")


def undocumented_keys(schemas, value, path="$"):
    """Yield the path of every key of the value that no rule applying under
    the (schema, root) pairs describes, in its ``properties`` or by an
    ``additionalProperties`` schema; the rules of a key or of the items of a
    list are walked together."""
    rules = [rule for schema, root in schemas for rule in applied_rules(schema, value, root)]
    if isinstance(value, dict):
        for key, item in value.items():
            subs = [(rule["properties"][key], root) for rule, root in rules if key in rule.get("properties", {})]
            subs += [(rule["additionalProperties"], root) for rule, root in rules
                     if isinstance(rule.get("additionalProperties"), dict)]
            if not subs:
                yield f"{path}.{key}"
            yield from undocumented_keys(subs, item, f"{path}.{key}")
    elif isinstance(value, list):
        items = [(rule["items"], root) for rule, root in rules if "items" in rule]
        for idx, item in enumerate(value):
            yield from undocumented_keys(items, item, f"{path}[{idx}]")


def missing_report_keys(report):
    schema = load_schema("report.schema.json")
    return list(missing_required(schema, report, schema))


def extra_report_keys(report):
    """The keys of a report that docs/report.schema.json does not describe."""
    schema = load_schema("report.schema.json")
    return list(undocumented_keys([(schema, schema)], report))


def task_rule(name):
    """The report schema's rule for the data and checks of one task."""
    rules = load_schema("report.schema.json")["properties"]["tasks"]["items"]["allOf"]
    (rule,) = [r for r in rules if r["if"]["properties"]["task"] == {"const": name}]
    return rule


JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.text()
               | st.floats() | st.sampled_from([-0.0, 1e-300, -1e-300, math.nan, math.inf, -math.inf]))
JSON_VALUES = st.recursive(JSON_LEAVES, lambda kids: st.lists(kids, max_size=4)
                           | st.dictionaries(st.text(max_size=4), kids, max_size=4), max_leaves=24)


# Each rank-valued report leaf and the key of the gap beside it.
RANK_LEAVES = {"slice_dims": "slice_rank_gaps", "ranks": "rank_gaps", "euler_sequence": "euler_rank_gaps",
               "defect_dim": "defect_rank_gap", "defect_rank": "defect_rank_gap", "multiplicity": "defect_rank_gap",
               "k_dim": "cuntz_rank_gap", "model_dim": "split", "k0_dim": "k0_rank_gap", "k1_dim": "k0_rank_gap"}
# Rank-valued leaves that count what their decision left out (k1_dim = dim - k0_dim), not what it kept.
CORANK_LEAVES = {"k1_dim"}


@pytest.mark.parametrize("name", GOLDENS)
def test_every_rank_in_the_goldens_reports_its_gap(name):
    """Beside every rank-valued leaf of a golden report sits its gap in the
    shared shape, one per rank for a list; the gap brackets the cutoff, and
    a single decision has a nonzero side exactly when its rank is nonzero
    (for a leaf that counts the complement, the decision's rank is the
    other leaf's)."""
    found = set()

    def walk(value):
        if isinstance(value, dict):
            for key in RANK_LEAVES.keys() & value.keys():
                found.add(key)
                rank, gap = value[key], value[RANK_LEAVES[key]]
                for r, g in zip(rank, gap, strict=True) if isinstance(rank, list) else [(rank, gap)]:
                    assert set(g) == {"sigma_zero_max", "sigma_nonzero_min"}
                    if None not in g.values():
                        assert g["sigma_zero_max"] < g["sigma_nonzero_min"]
                    if not isinstance(rank, list) and key not in CORANK_LEAVES:
                        assert (g["sigma_nonzero_min"] is None) == (r == 0)
            value = list(value.values())
        if isinstance(value, list):
            for item in value:
                walk(item)

    walk(json.loads((DATA / name).read_text())["tasks"])
    expected = {"golden_report.json": set(RANK_LEAVES),
                "golden_qcomm_report.json": {"slice_dims", "defect_dim", "defect_rank", "k_dim", "model_dim"}}
    assert found == expected[name]


class TestReportText:
    def test_objects_are_indented_and_arrays_of_numbers_sit_on_one_line(self):
        report = {"b": [{"data": [[0.5, -0.0], [1e-300, 2.0]], "shape": [1, 2]}], "a": {}, "c": [], "é": "ü"}
        assert report_text(report) == (
            '{\n'
            '  "a": {},\n'
            '  "b": [\n'
            '    {\n'
            '      "data": [[0.5, -0.0], [1e-300, 2.0]],\n'
            '      "shape": [1, 2]\n'
            '    }\n'
            '  ],\n'
            '  "c": [],\n'
            '  "\\u00e9": "\\u00fc"\n'
            '}\n')
        assert report_text([[1, 2.5], None]) == "[[1, 2.5], null]\n"

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(JSON_VALUES)
    @example({"\u00e9\u4e2d": [{}, [], -0.0, 1e-300, math.nan, math.inf, -math.inf, True, None, "\u00fc"]})
    @example([[{"z": 1, "a": [{"y": [], "b": {}}]}], {"k": [1, {"j": None}]}])
    def test_report_text_reads_back_as_the_value(self, value):
        assert json.dumps(json.loads(report_text(value)), sort_keys=True) == json.dumps(value, sort_keys=True)

    @pytest.mark.parametrize("name", ["golden_report.json", "golden_qcomm_report.json"])
    def test_golden_layout(self, name):
        """No line of a stored report holds a bare number, and every "data"
        array (a matrix's entries) sits whole on its own line."""
        text = (DATA / name).read_text()
        lines = text.splitlines()
        assert not [line for line in lines if _is_number(line.strip().rstrip(","))]
        data_lines = [line.strip().rstrip(",") for line in lines if line.strip().startswith('"data": [')]
        assert all(isinstance(json.loads(line[len('"data": '):]), list) for line in data_lines)

        def count_data(value):
            if isinstance(value, dict):
                return isinstance(value.get("data"), list) + sum(count_data(v) for v in value.values())
            return sum(count_data(v) for v in value) if isinstance(value, list) else 0

        assert len(data_lines) == count_data(json.loads(text)) > 0


def _is_number(text: str) -> bool:
    try:
        value = json.loads(text)
    except ValueError:
        return False
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class TestSchemas:
    """The schemas in docs/ agree with the CLI, read with the stdlib only."""

    def test_task_lists_match_the_cli(self):
        from fockbench.cli import PARAMETER_CHECKS, TASKS, TRUNCATION_TASKS, TUPLE_TASKS

        scenario = load_schema("scenario.schema.json")
        assert scenario["properties"]["tasks"]["items"]["properties"]["task"]["enum"] == list(TASKS)
        assert list(SUBCOMMAND_ARGV) == list(TASKS)
        conditional = {rule["then"]["required"][0]: rule["if"]["properties"]["tasks"]["contains"]
                       for rule in scenario["allOf"]}
        assert set(conditional["N"]["properties"]["task"]["enum"]) == TRUNCATION_TASKS
        assert set(conditional["T"]["properties"]["task"]["enum"]) == TUPLE_TASKS
        parameter_rules = scenario["properties"]["tasks"]["items"]["allOf"]
        assert {rule["if"]["properties"]["task"]["const"] for rule in parameter_rules} == set(PARAMETER_CHECKS)

    def test_factorize_and_wold_parameters_are_the_ones_the_cli_checks(self):
        """Each value the scenario schema allows passes the load-time check,
        and the value just outside it is rejected."""
        from fockbench.cli import PARAMETER_CHECKS

        rules = {rule["if"]["properties"]["task"]["const"]: rule["then"]
                 for rule in load_schema("scenario.schema.json")["properties"]["tasks"]["items"]["allOf"]}
        factorize, wold = PARAMETER_CHECKS["factorize"], PARAMETER_CHECKS["wold"]
        point = [[[0.1, 0.0], [0.2, 0.0]]]
        props = rules["factorize"]["properties"]
        for mode in props["mode"]["enum"]:
            factorize({"mode": mode, "points": point})
        low = props["random_points"]["minimum"]
        factorize({"points": point, "random_points": low})
        factorize({"mode": "truncated"})
        with_points, with_random = rules["factorize"]["then"]["anyOf"]
        need = with_random["properties"]["random_points"]["minimum"]
        factorize({"random_points": need})
        k_max = rules["wold"]["properties"]["k_max"]["minimum"]
        wold({"k_max": k_max})
        for check, params in ((factorize, {"mode": "pointwise", "points": point}),
                              (factorize, {"points": point, "random_points": low - 1}),
                              (factorize, {"random_points": need - 1}),
                              (factorize, {"points": [None] * (with_points["properties"]["points"]["minItems"] - 1)}),
                              (wold, {"k_max": k_max - 1})):
            with pytest.raises(InvalidParameterError):
                check(params)

    @pytest.mark.parametrize("task,key", [("factorize", "tol"), ("pick", "tol"), ("poisson", "r"),
                                          ("arveson", "agree_tol")])
    def test_number_parameters_are_the_ones_the_cli_checks(self, task, key):
        """The bounds the scenario schema gives a number parameter are the
        load-time check's: an inclusive bound passes, an exclusive one fails,
        and so does a value just beyond either."""
        from fockbench.cli import PARAMETER_CHECKS

        rules = {rule["if"]["properties"]["task"]["const"]: rule["then"]
                 for rule in load_schema("scenario.schema.json")["properties"]["tasks"]["items"]["allOf"]}
        prop = rules[task]["properties"][key]
        base = {"points": [[[0.1, 0.0], [0.2, 0.0]]]} if task == "factorize" else {}

        def check(value):
            PARAMETER_CHECKS[task]({**base, key: value})

        assert prop["type"] == "number"
        for bound, step in (("minimum", -1e-3), ("exclusiveMinimum", -1e-3), ("maximum", 1e-3)):
            if bound not in prop:
                continue
            if bound != "exclusiveMinimum":
                check(prop[bound])
            for bad in ([prop[bound]] if bound == "exclusiveMinimum" else []) + [prop[bound] + step]:
                with pytest.raises(InvalidParameterError):
                    check(bad)

    @pytest.mark.parametrize("name", ["golden_report.json", "golden_qcomm_report.json"])
    def test_golden_reports_carry_every_required_key(self, name):
        report = json.loads((DATA / name).read_text())
        assert missing_report_keys(report) == []

    @pytest.mark.parametrize("name", GOLDENS)
    def test_golden_reports_document_every_key(self, name):
        """Every key of a stored report is described by docs/report.schema.json
        (or the scenario schema it references for the echo), task i reports
        scenario task i, and a leaf the schema does not describe is found."""
        report = json.loads((DATA / name).read_text())
        assert extra_report_keys(report) == []
        assert [t["task"] for t in report["tasks"]] == [t["task"] for t in report["scenario"]["tasks"]]
        report["tasks"][0]["params"] = {}
        report["tasks"][0]["data"]["graded"] = True
        report["scenario"]["tasks"][0]["emit_matrices"] = {"stray": 1}
        assert set(extra_report_keys(report)) == {"$.scenario.tasks[0].emit_matrices.stray", "$.tasks[0].params",
                                                  "$.tasks[0].data.graded"}

    @pytest.mark.parametrize("command", list(SUBCOMMAND_ARGV))
    def test_subcommand_reports_document_every_key(self, rc_file, tmp_path, command):
        out = tmp_path / "report.json"
        argv = [command] + [rc_file if a == "RC" else a for a in SUBCOMMAND_ARGV[command]]
        assert main(argv + ["--out", str(out)]) in (0, 1)
        report = json.loads(out.read_text())
        assert extra_report_keys(report) == []
        assert [t["task"] for t in report["tasks"]] == [t["task"] for t in report["scenario"]["tasks"]]

    @pytest.mark.parametrize("targets", ["0,0.2", "0,0.9"], ids=["feasible", "infeasible"])
    def test_pick_data_and_checks_are_the_ones_the_schema_describes(self, tmp_path, targets):
        rule = task_rule("pick")
        data_schema, checks_schema = rule["then"]["properties"]["data"], rule["then"]["properties"]["checks"]
        out = tmp_path / "pick.json"
        assert main(["pick", "--n", "1", "--points", "0,0.5", "--targets", targets, "--out", str(out)]) == 0
        golden = json.loads((DATA / "golden_report.json").read_text())["tasks"][9]
        for task in (json.loads(out.read_text())["tasks"][0], golden):
            assert task["task"] == "pick"
            assert set(data_schema["required"]) <= set(task["data"]) <= set(data_schema["properties"])
            assert task["data"]["verdict"] in data_schema["properties"]["verdict"]["enum"]
            assert ("certificate" in task["data"]) == (task["data"]["verdict"] == "infeasible")
            assert [c["name"] for c in task["checks"]] == checks_schema["items"]["properties"]["name"]["enum"]

    def test_arveson_data_and_checks_are_the_ones_the_schema_describes(self, rc_file, tmp_path):
        rule = task_rule("arveson")
        data_schema, checks_schema = rule["then"]["properties"]["data"], rule["then"]["properties"]["checks"]
        entry = data_schema["properties"]["boundary"]["additionalProperties"]
        out = tmp_path / "arveson.json"
        assert main(["arveson", "--input", rc_file, "--m-max", "3", "--out", str(out)]) == 0
        golden = json.loads((DATA / "golden_report.json").read_text())["tasks"][5]
        for task in (json.loads(out.read_text())["tasks"][0], golden):
            assert task["task"] == "arveson"
            assert set(data_schema["required"]) == set(task["data"]) == set(data_schema["properties"])
            assert all(set(value) == set(entry["required"]) for value in task["data"]["boundary"].values())
            assert set(task["data"]["deviations"]) == set(data_schema["properties"]["deviations"]["required"])
            assert [c["name"] for c in task["checks"]] == checks_schema["items"]["properties"]["name"]["enum"]

    def test_curvature_data_and_checks_are_the_ones_the_schema_describes(self, rc_file, tmp_path):
        rule = task_rule("curvature")
        data_schema, checks_schema = rule["then"]["properties"]["data"], rule["then"]["properties"]["checks"]
        out = tmp_path / "curvature.json"
        assert main(["curvature", "--input", rc_file, "--m-max", "3", "--out", str(out)]) == 0
        golden = json.loads((DATA / "golden_report.json").read_text())["tasks"][4]
        for task in (json.loads(out.read_text())["tasks"][0], golden):
            assert task["task"] == "curvature"
            assert set(task["data"]) == set(data_schema["properties"])
            for key, value in task["data"].items():
                assert set(value) == set(data_schema["properties"][key]["required"])
            gaps = task["data"]["theta"]["euler_rank_gaps"]
            assert len(gaps) == len(task["data"]["theta"]["m"])
            assert all(set(gap) == {"sigma_zero_max", "sigma_nonzero_min"} for gap in gaps)
            assert [c["name"] for c in task["checks"]] == checks_schema["items"]["properties"]["name"]["enum"]

    @pytest.mark.parametrize("name", ["shifts", "poisson", "dilate", "wold", "model", "curvature", "arveson"])
    def test_every_gap_leaf_is_the_shared_rank_gap(self, rc_file, tmp_path, name):
        """Each gap leaf the schema gives a task references the one $defs
        rank_gap entry, alone or as the items of an array, and holds that
        shape in the subcommand's report and in every golden task."""
        gap_def = load_schema("report.schema.json")["$defs"]["rank_gap"]
        out = tmp_path / "report.json"
        argv = [name] + [rc_file if a == "RC" else a for a in SUBCOMMAND_ARGV[name]]
        assert main(argv + ["--out", str(out)]) in (0, 1)
        tasks = [json.loads(out.read_text())["tasks"][0]] + [
            t for g in GOLDENS for t in json.loads((DATA / g).read_text())["tasks"] if t["task"] == name]
        data_schema = task_rule(name)["then"]["properties"]["data"]
        leaves = [(data_schema, key) for key in data_schema["properties"]]
        leaves += [(sub, key) for sub in data_schema["properties"].values() for key in sub.get("properties", {})]
        refs = [(sub, key) for sub, key in leaves if key.endswith(("_gap", "_gaps")) or key == "split"]
        assert refs
        for sub, key in refs:
            prop = sub["properties"][key]
            assert prop.get("$ref", prop.get("items", {}).get("$ref")) == "#/$defs/rank_gap"
        for task in tasks:
            values = [task["data"]] + [v for v in task["data"].values() if isinstance(v, dict)]
            found = [(key, v[key]) for v in values for sub, key in refs if key in v]
            assert found
            for key, value in found:
                for gap in value if isinstance(value, list) else [value]:
                    assert set(gap) == set(gap_def["required"]) == set(gap_def["properties"])
                    assert all(x is None or _is_number(json.dumps(x)) for x in gap.values())

    @pytest.mark.parametrize("command", list(SUBCOMMAND_ARGV))
    def test_subcommand_reports_carry_every_required_key(self, rc_file, tmp_path, command):
        out = tmp_path / "report.json"
        argv = [command] + [rc_file if a == "RC" else a for a in SUBCOMMAND_ARGV[command]]
        assert main(argv + ["--out", str(out)]) in (0, 1)
        report = json.loads(out.read_text())
        assert missing_report_keys(report) == []
        assert report["scenario"]["tasks"][0]["task"] == command


# Public module-level names that no task reaches, each with the reason it stays.
UNREACHED_ALLOWED = {
    ("charfn", "unitary_invariance_check"):
        "acceptance criterion 12 reads it until Theta decides unitary equivalence (ROADMAP item 6)",
}


def package_definitions(package: Path):
    """The module-level definitions (functions, classes, assigned names) of
    each module of the package, keyed by (module, name), and each module's
    relative imports as local name -> (module, name)."""
    defs, imports = {}, {}
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        mod = path.stem
        imports[mod] = {}
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs.update(((mod, t.id), node) for t in targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                imports[mod].update((a.asname or a.name, (node.module, a.name)) for a in node.names)
    return defs, imports


def test_every_public_name_is_reached_by_a_task():
    """Start from the module-level definitions of ``cli`` (the handlers in
    ``cli.TASKS`` among them) and follow name references through the
    package's module-level definitions, private ones included. Every public
    name is reached, or listed in UNREACHED_ALLOWED with its reason."""
    import fockbench.cli

    defs, imports = package_definitions(Path(fockbench.cli.__file__).parent)
    todo = [key for key in defs if key[0] == "cli"]
    reached = set(todo)
    while todo:
        mod, name = todo.pop()
        for node in ast.walk(defs[mod, name]):
            if isinstance(node, ast.Name):
                target = (mod, node.id) if (mod, node.id) in defs else imports[mod].get(node.id)
                if target in defs and target not in reached:
                    reached.add(target)
                    todo.append(target)
    unreached = {key for key in defs if not key[1].startswith("_")} - reached
    assert sorted(unreached) == sorted(UNREACHED_ALLOWED)


# Dataclass fields that no code in src/ reads, each with the reason it stays.
UNREAD_FIELDS_ALLOWED = {
    ("dilation", "DilationBlocks", "z_ops"):
        "the Cuntz generators of the dilation, its operator content; the report carries their checks",
    ("dilation", "DilationBlocks", "embedding"):
        "the isometry V = [K; Y] the dilation is built from; the report carries its isometry defect",
    ("dilation", "ModelSpaceResult", "compressed"):
        "the model tuple, the shifts compressed to the model space, which the model theorem is about",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    names = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in names)


def test_every_dataclass_field_is_read():
    """Every annotated field of a dataclass in the package is read as an
    attribute (``x.field``) somewhere in the package, or is listed in
    UNREAD_FIELDS_ALLOWED with its reason. Reads are matched by name, so a
    field counts as read when any attribute of that name is."""
    import fockbench.cli

    fields, reads = set(), set()
    for path in sorted(Path(fockbench.cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields.update((path.stem, node.name, st.target.id) for st in node.body
                              if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    assert fields
    unread = {key for key in fields if key[2] not in reads}
    assert sorted(unread) == sorted(UNREAD_FIELDS_ALLOWED)


# Public methods and properties that no code in src/ reads, each with the reason it stays.
UNREAD_METHODS_ALLOWED = {
    ("words", "Word", "reverse"):
        "the reversal of a word, part of the word type: Theta's coefficients are stored in reversed-word order",
}


def test_every_public_method_is_read():
    """Every public method or property of a class in the package is read as
    an attribute somewhere in the package, or is listed in
    UNREAD_METHODS_ALLOWED with its reason, so code that only the tests
    call lives in the tests. Reads are matched by name, as for fields."""
    import fockbench.cli

    methods, reads = set(), set()
    for path in sorted(Path(fockbench.cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                methods.update((path.stem, node.name, f.name) for f in node.body
                               if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    assert methods
    unread = {key for key in methods if key[2] not in reads}
    assert sorted(unread) == sorted(UNREAD_METHODS_ALLOWED)
