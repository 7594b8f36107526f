"""One workload in one process: repeated passes over the job list, the
correctness gate, and (with --trace 1) the traced passes.

A pass runs every job once, one after another, in a closed loop: the
golden scenario first, then the workload's jobs. A scenario job is the real
CLI entry point, ``fockbench.cli.main(["scenario", "run", FILE, "--out",
REPORT])``; a spectral-radius job is a direct ``fockbench.spectral_radius``
call. Passes repeat until the next one would overrun the time budget.

Prints one JSON object as its last stdout line; see ``run.py`` for the
metrics built from it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from gen import ROOT, import_fockbench
from spans import Tracer

GOLDEN_SCENARIO = ROOT / "tests" / "data" / "golden_scenario.json"
GOLDEN_REPORT = ROOT / "tests" / "data" / "golden_report.json"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
GOLDEN = "golden"


def exact_fields(report: dict) -> dict:
    """Report fields no correct optimisation may change, keyed by task
    position: constrained dim and slice dims, defect dims, Euler ranks (as
    the reported rank sequences) and the Pick verdict. Tasks that produced
    no data contribute nothing."""
    out = {}
    for pos, task in enumerate(report["tasks"]):
        data = task.get("data")
        if data is None:
            continue
        key = f"{pos}.{task['task']}"
        if task["task"] == "shifts":
            out[f"{key}.dim"] = data["dim"]
            out[f"{key}.slice_dims"] = data["slice_dims"]
        elif task["task"] == "poisson":
            out[f"{key}.defect_dim"] = data["defect_dim"]
        elif task["task"] == "curvature":
            if "euler_phi" in data:
                out[f"{key}.euler_phi.ranks"] = data["euler_phi"]["ranks"]
            if "theta" in data:
                out[f"{key}.theta.euler_sequence"] = data["theta"]["euler_sequence"]
        elif task["task"] == "arveson":
            out[f"{key}.euler_sequence"] = data["euler_sequence"]
        elif task["task"] == "pick":
            out[f"{key}.verdict"] = data["verdict"]
    return out


def radius_bracket(mats) -> tuple[float, float]:
    """Rigorous bounds on the joint spectral radius sqrt(rho(Phi)).

    For the positive map Phi(X) = sum T_i X T_i^*, if l I <= Phi^k(I) <= u I
    then l^(1/k) <= rho(Phi) <= u^(1/k); the bracket narrows like
    cond(Phi^k(I))^(1/2k). Iterates are normalized and their scale
    accumulated in logs, so nothing underflows."""
    k = 64
    x = np.eye(mats[0].shape[0], dtype=complex)
    log_scale = 0.0
    for _ in range(k):
        x = sum(t @ x @ t.conj().T for t in mats)
        top = float(np.linalg.norm(x, 2))
        x /= top
        log_scale += np.log(top)
    vals = np.linalg.eigvalsh(0.5 * (x + x.conj().T))
    lo = np.exp((log_scale + np.log(max(vals[0], 1e-300))) / (2 * k))
    hi = np.exp((log_scale + np.log(vals[-1])) / (2 * k))
    return float(lo), float(hi)


class Workload:
    """Loaded job list plus the checks that apply to its outputs."""

    def __init__(self, workload: str, jobs_path: Path, reports: Path):
        self.fb = import_fockbench()
        import fockbench.cli

        self.cli = fockbench.cli
        self.reports = reports
        reports.mkdir(parents=True, exist_ok=True)
        listing = json.loads(jobs_path.read_text(encoding="utf-8"))
        self.jobs = [{"name": GOLDEN, "kind": "scenario", "path": str(GOLDEN_SCENARIO)}]
        tuples = {}
        for job in listing:
            if job["kind"] == "scenario":
                job["path"] = str(jobs_path.parent / job["path"])
                scenario = json.loads(Path(job["path"]).read_text(encoding="utf-8"))
                tuples[job["name"]] = [self.fb.serialize.matrix_from_json(m) for m in scenario["T"]]
            else:
                job["matrices"] = tuples[job["tuple"]]
                job["bracket"] = radius_bracket(job["matrices"])
            self.jobs.append(job)
        self.golden = GOLDEN_REPORT.read_bytes()
        self.reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload]

    def report_path(self, job: dict) -> Path:
        return self.reports / f"{job['name']}.report.json"

    def run_pass(self, jobs: list[dict]) -> tuple[float, list, list]:
        """Run the jobs once, in order; returns the wall time, the per-job
        outcomes (None for a scenario, the radius, or the exception raised)
        and the per-job end times."""
        for job in jobs:
            self.report_path(job).unlink(missing_ok=True)
        outcomes = []
        ends = []
        start = time.perf_counter()
        for job in jobs:
            try:
                if job["kind"] == "scenario":
                    self.cli.main(["scenario", "run", job["path"], "--out", str(self.report_path(job))])
                    outcomes.append(None)
                else:
                    outcomes.append(self.fb.spectral_radius(job["matrices"]))
            except Exception as exc:  # a job that dies is a failed job, not a dead benchmark
                outcomes.append(exc)
            ends.append(time.perf_counter())
        return ends[-1] - start, outcomes, [b - a for a, b in zip([start] + ends, ends)]

    def check_pass(self, jobs: list[dict], outcomes: list) -> dict:
        """Count attempted and failed tasks and collect correctness problems."""
        attempted = failed = report_bytes = 0
        problems = []
        for job, outcome in zip(jobs, outcomes):
            name = job["name"]
            if isinstance(outcome, Exception):
                print(f"job {name} failed: {type(outcome).__name__}: {outcome}", file=sys.stderr)
            if job["kind"] != "scenario":
                attempted += 1
                if isinstance(outcome, Exception):
                    failed += 1
                    continue
                lo, hi = job["bracket"]
                if not lo * (1 - 1e-9) <= outcome <= hi * (1 + 1e-9):
                    problems.append(f"{name}: spectral radius {outcome!r} outside [{lo!r}, {hi!r}]")
                continue
            path = self.report_path(job)
            if not path.exists():
                # The job died before writing a report: all its tasks failed.
                scenario = json.loads(Path(job["path"]).read_text(encoding="utf-8"))
                attempted += len(scenario["tasks"])
                failed += len(scenario["tasks"])
                continue
            raw = path.read_bytes()
            report_bytes += len(raw)
            report = json.loads(raw)
            attempted += len(report["tasks"])
            failed += sum(1 for task in report["tasks"] if task["status"] != "pass")
            if name == GOLDEN:
                if raw != self.golden:
                    problems.append("golden report differs from tests/data/golden_report.json")
                continue
            expected = self.reference.get(name, {})
            for key, value in exact_fields(report).items():
                if key not in expected:
                    problems.append(f"{name}: no reference for {key}")
                elif value != expected[key]:
                    problems.append(f"{name}: {key} = {value!r}, reference {expected[key]!r}")
        return {"attempted": attempted, "failed": failed, "report_bytes": report_bytes, "problems": problems}


def job_medians(passes: list[dict], names: list[str]) -> dict[str, float]:
    """Median time of each job over the given passes."""
    return {name: statistics.median(p["job_s"][k] for p in passes) for k, name in enumerate(names)}


def layer_metrics(tracer: Tracer, report_bytes: int) -> dict:
    metrics = {f"{label}.self_s": seconds for label, seconds in tracer.layer_self_seconds().items()}
    metrics.update(tracer.counts)
    converged = metrics.pop("contractions.purity_converged")
    calls = metrics["contractions.purity_calls"]
    metrics["contractions.purity_converged_ratio"] = converged / calls if calls else 1.0
    metrics["invariants.curvature_theta_s"] = tracer.inclusive_seconds("invariants.curvature_theta")
    metrics["contractions.spectral_radius_s"] = tracer.inclusive_seconds("contractions.spectral_radius")
    metrics["cli.report_bytes"] = report_bytes
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload's passes (started by run.py).")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--jobs", type=Path, required=True, help="jobs.json written by gen.py")
    parser.add_argument("--reports", type=Path, required=True, help="directory for CLI reports")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    work = Workload(args.workload, args.jobs, args.reports)
    # Warm-up: one golden run outside the timed passes fills lazy imports.
    golden = work.jobs[:1]
    problems = work.check_pass(golden, work.run_pass(golden)[1])["problems"]

    passes = []
    tracers = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        try:
            wall, outcomes, job_times = work.run_pass(work.jobs)
        finally:
            if tracer is not None:
                tracer.remove()
        checked = work.check_pass(work.jobs, outcomes)
        problems.extend(checked.pop("problems"))
        passes.append({"traced": traced, "wall_s": wall, "job_s": job_times, **checked})
        if len(passes) == 1:
            # Later passes repeat the same jobs; what they add to the peak is
            # allocator fragmentation from the repetition, which varies from
            # run to run and which no single CLI call pays.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracers.append((tracer, checked["report_bytes"]))
        elapsed = time.perf_counter() - start
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and elapsed + statistics.median(p["wall_s"] for p in passes) > args.seconds:
            break

    # wall_s is the time of one pass with every job at its median over the
    # passes. A slow moment of the host during one job of one pass moves it
    # less than it moves the median of whole-pass times.
    names = [job["name"] for job in work.jobs]
    job_s = job_medians([p for p in passes if not p["traced"]], names)
    result = {
        "passes": passes,
        "wall_s": sum(job_s.values()),
        "job_s": job_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": sorted(set(problems)),
    }
    if tracers:
        per_pass = [layer_metrics(tracer, size) for tracer, size in tracers]
        result["layers"] = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        traced_wall = sum(job_medians([p for p in passes if p["traced"]], names).values())
        result["layers"]["trace.overhead_s"] = traced_wall - result["wall_s"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
