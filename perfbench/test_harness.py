"""Tests of the benchmark harness itself: span arithmetic, wrapper
restoration, generator determinism and the correctness helpers.

    python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

import gen
import run
from spans import LAYERS, Tracer, svd_flops
import worker
from worker import exact_fields, radius_bracket

fb = gen.import_fockbench()


# --- self-time arithmetic ---------------------------------------------------


def test_self_time_subtracts_nested_children():
    tr = Tracer()
    root = tr.record("cli.main", 0, 100)
    tr.record("ideals.build", 10, 30, root)
    b = tr.record("charfn.assemble", 40, 60, root)
    tr.record("linalg.svdvals", 42, 45, b)
    tr.record("linalg.svdvals", 50, 58, b)
    assert tr.self_times_ns() == [60, 20, 9, 3, 8]
    selfs = tr.layer_self_seconds()
    assert selfs["cli"] == 60e-9 and selfs["ideals"] == 20e-9
    assert selfs["charfn"] == 9e-9 and selfs["linalg"] == 11e-9
    assert selfs["poisson"] == 0.0


def test_self_time_counts_overlapping_children_once():
    tr = Tracer()
    root = tr.record("cli.main", 0, 100)
    tr.record("words.x", 10, 50, root)
    tr.record("words.y", 30, 70, root)  # overlaps the first child
    tr.record("words.z", 90, 120, root)  # runs past the parent's end
    assert tr.self_times_ns()[0] == 100 - 60 - 10


def test_inclusive_seconds_counts_outermost_spans_only():
    tr = Tracer()
    root = tr.record("contractions.spectral_radius", 0, 50)
    tr.record("contractions.spectral_radius", 10, 20, root)
    tr.record("contractions.spectral_radius", 60, 70)
    assert tr.inclusive_seconds("contractions.spectral_radius") == 60e-9
    assert tr.inclusive_seconds("invariants.curvature_theta") == 0.0


def test_open_close_nest_through_the_stack():
    ticks = iter(range(0, 1000, 10))
    tr = Tracer(clock=lambda: next(ticks))
    outer = tr.open(tr.intern("cli.main"))
    inner = tr.open(tr.intern("words.creation_matrix"))
    tr.close(inner)
    tr.close(outer)
    assert list(tr.span_parent) == [-1, outer]
    assert tr.self_times_ns() == [20, 10]


def test_metric_names_match_benchmark_json():
    spec = json.loads((gen.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(worker.layer_metrics(Tracer(), 0)) | {"trace.overhead_s"} == per_layer
    assert set(run.METRIC_HELP) == per_layer | {m["name"] for m in spec["end_to_end"]}


def test_svd_flops_formula():
    assert svd_flops(4, 2) == 16 * 4 * 2 * 2 - (16 * 8) // 3
    assert svd_flops(2, 4) == svd_flops(4, 2)


# --- wrappers ---------------------------------------------------------------


def _bindings():
    return {(name, attr): obj for name, module in sys.modules.items()
            if module is not None and (name == "fockbench" or name.startswith("fockbench."))
            for attr, obj in vars(module).items()}


def test_wrappers_cover_every_binding_and_are_removed():
    before = _bindings()
    tr = Tracer()
    replaced = tr.install()
    try:
        # cli imports names directly and the package re-exports them: both are wrapped.
        assert fb.cli.validate is not before[("fockbench.cli", "validate")]
        assert fb.spectral_radius is not before[("fockbench", "spectral_radius")]
        assert fb.charfn.spectral_radius is fb.contractions.spectral_radius
        assert fb.cli.main.__wrapped__ is before[("fockbench.cli", "main")]
        rc = fb.validate([np.diag([0.3, 0.2]), np.diag([0.1, 0.4])])
        fb.spectral_radius(rc)
        fb.cp_apply(rc, np.eye(2), 3)
    finally:
        tr.remove()
    assert replaced > len(LAYERS)
    assert _bindings() == before
    names = {tr.names[i] for i in tr.span_name}
    assert {"contractions.validate", "contractions.spectral_radius", "linalg.spectral_norm"} <= names
    assert tr.counts["contractions.cp_steps"] == 3
    # A second tracer installs and removes cleanly after the first.
    again = Tracer()
    assert again.install() == replaced
    again.remove()
    assert _bindings() == before


def test_install_twice_without_remove_is_refused():
    tr = Tracer()
    tr.install()
    try:
        with pytest.raises(RuntimeError):
            tr.install()
    finally:
        tr.remove()


# --- generators ---------------------------------------------------------------


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_same_scenario_bytes(workload, tmp_path):
    gen.write_jobs(gen.build_jobs(workload, 5), tmp_path / "a")
    gen.write_jobs(gen.build_jobs(workload, 5), tmp_path / "b")
    gen.write_jobs(gen.build_jobs(workload, 6), tmp_path / "c")
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert all((tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes() for f in files)
    assert any((tmp_path / "a" / f).read_bytes() != (tmp_path / "c" / f).read_bytes() for f in files)


def _row_norm(mats):
    return float(np.sqrt(np.linalg.norm(sum(t @ t.conj().T for t in mats), 2)))


def test_generated_tuples_have_their_stated_structure():
    rng = np.random.default_rng(3)
    for make in (gen.random_row_contraction, gen.diagonal_commuting, gen.nonnormal_commuting):
        mats = make(rng, 3, 4)
        assert _row_norm(mats) == pytest.approx(gen.ROW_NORM, abs=1e-12)
    a, b = gen.nonnormal_commuting(rng, 2, 4)
    assert np.linalg.norm(a @ b - b @ a) < 1e-12
    assert np.linalg.norm(a @ a.conj().T - a.conj().T @ a) > 1e-3
    w, d = gen.q_commuting_pair(rng, 4, 0.6)
    assert np.linalg.norm(d @ w - 0.6 * w @ d) < 1e-14
    mats = gen.near_coisometric(rng, 2, 6)
    row = np.concatenate(mats, axis=1)
    assert np.allclose(row @ row.conj().T, (1 - gen.EPS) ** 2 * np.eye(6), atol=1e-12)


def test_pick_data_is_infeasible_by_construction():
    rng = np.random.default_rng(4)
    points, targets = gen.infeasible_pick_data(rng, 10, 2, 3)
    assert np.all(np.linalg.norm(points, axis=1) < 1)
    problem = fb.PickProblem(n=2, points=points, targets=targets)
    assert not fb.pick_feasible(problem).feasible


# --- correctness helpers ------------------------------------------------------


def test_radius_bracket_contains_the_dense_value():
    rng = np.random.default_rng(5)
    for mats in (gen.random_row_contraction(rng, 2, 5), gen.near_coisometric(rng, 2, 4)):
        lo, hi = radius_bracket(mats)
        assert lo <= fb.spectral_radius(mats) * (1 + 1e-9)
        assert fb.spectral_radius(mats) <= hi * (1 + 1e-9)
    lo, hi = radius_bracket(gen.near_coisometric(rng, 2, 4))
    assert lo == pytest.approx(1 - gen.EPS, abs=1e-9) and hi == pytest.approx(1 - gen.EPS, abs=1e-9)


def test_exact_fields_pick_the_gated_entries():
    report = {"tasks": [
        {"task": "shifts", "data": {"dim": 6, "slice_dims": [1, 2, 3], "graded": True}},
        {"task": "poisson", "data": {"defect_dim": 2, "tail_budget": 0.1}},
        {"task": "curvature", "data": {"euler_phi": {"ranks": [2, 2]}, "theta": {"euler_sequence": [2.0, 0.5]}}},
        {"task": "wold", "status": "fail", "data": {"k0_dim": 2}},
        {"task": "dilate", "status": "fail", "error": "boom"},
        {"task": "pick", "data": {"verdict": "infeasible"}},
    ]}
    assert exact_fields(report) == {
        "0.shifts.dim": 6, "0.shifts.slice_dims": [1, 2, 3], "1.poisson.defect_dim": 2,
        "2.curvature.euler_phi.ranks": [2, 2], "2.curvature.theta.euler_sequence": [2.0, 0.5],
        "5.pick.verdict": "infeasible",
    }


def test_gate_flags_a_field_that_differs_from_the_reference(tmp_path, monkeypatch):
    (tmp_path / "job.json").write_bytes(worker.GOLDEN_SCENARIO.read_bytes())
    (tmp_path / "jobs.json").write_text(json.dumps([{"name": "job", "kind": "scenario", "path": "job.json"}]))
    reference = tmp_path / "reference.json"
    reference.write_text(json.dumps({"w": {"job": {"0.shifts.dim": 999}}}))
    monkeypatch.setattr(worker, "REFERENCE", reference)
    work = worker.Workload("w", tmp_path / "jobs.json", tmp_path / "reports")
    checked = work.check_pass(work.jobs, work.run_pass(work.jobs)[1])
    tasks = len(json.loads(worker.GOLDEN_SCENARIO.read_text())["tasks"])
    assert (checked["attempted"], checked["failed"]) == (2 * tasks, 0)
    assert "job: 0.shifts.dim = 15, reference 999" in checked["problems"]
    assert not any(p.startswith("golden") for p in checked["problems"])
