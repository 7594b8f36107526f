"""fockbench benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. Untraced runs (--trace 0) report the end-to-end metrics,
traced runs (--trace 1) the per-layer metrics; BENCHMARK.json lists both
with their units. Lines before it repeat every metric by name with its unit.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import json
import os
import shutil
import statistics
import subprocess
import tempfile
import textwrap
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Timed set-up launches per run: half before the worker, half after it, so
# the median spans the run rather than its first second.
SETUP_REPEATS = 12
# The whole run, set-up included, must end well inside three minutes.
RUN_LIMIT_S = 170.0

WORKLOAD_HELP = {
    "constrained-ladder": (
        "commuting tuples (dim 2-4, diagonal and non-normal) under the commutative ideal at "
        "(n,N) = (2,7) (2,8) (2,9) (3,5) (3,6), plus a q-commuting pair (weighted shift, diag(q^k)) "
        "under the q-commutative ideal at (2,8); tasks shifts, factorize truncated, poisson, dilate, "
        "model. Stresses ideals (dense ideal columns, one SVD per slice) and the dense creation "
        "matrices in words; n=3, N=6 dominates."),
    "free-theta": (
        "random non-commuting tuples under the free ideal: n=2, dim 3-4 (curvature both, m_max 5, "
        "factorize truncated at N=7) and n=3, dim 2-3 (m_max 4, N=5), plus one commuting tuple for "
        "arveson (m_max 8, 20k samples). Stresses charfn assembly, the dense Theta Theta* and the "
        "per-m SVDs in invariants; ideals works only inside the golden scenario."),
    "cp-orbit": (
        "random tuples of dim 16, 24, 32 and (1-1e-3) x coisometries of dim 6, 8, free ideal, N=2; "
        "tasks wold, poisson, dilate, factorize at 30 random points, curvature phi to m=24, pick with "
        "60 points and 3x3 targets, plus one direct spectral_radius call per tuple. Stresses "
        "contractions: repeated cp_apply/purity restarts (purity hits k_max=10000 on the "
        "near-coisometric tuples, where wold and dilate fail today) and dense eigvals on the dim^2 "
        "CP matrix."),
}

METRIC_HELP = {
    "wall_s": "wall time of one pass over the job list, tracing off: the sum over the jobs of each "
              "job's median time over the run's passes",
    "setup_s": f"median over {SETUP_REPEATS} runs (half before the passes, half after; one untimed "
               "run first fills the bytecode cache) of: interpreter start, import numpy and fockbench, seeded input generation, "
               "writing the scenario files",
    "peak_rss_mb": "peak RSS (ru_maxrss) of the process that runs only this workload, read after its "
                   "first pass",
    "ideals.self_s": "self time in fockbench.ideals (moves wall_s, peak_rss_mb on constrained-ladder)",
    "ideals.build_calls": "build_constrained_subspace calls",
    "ideals.ambient_dim_max": "largest Fock dimension a constrained subspace was built in",
    "words.self_s": "self time in fockbench.words",
    "words.creation_bytes": "computed: bytes of dense creation matrices built (dim^2 x 16 each)",
    "charfn.self_s": "self time in fockbench.charfn (moves wall_s, peak_rss_mb on free-theta)",
    "charfn.coefficients_count": "Fourier coefficients produced by characteristic_coefficients",
    "charfn.assemble_bytes": "computed: bytes of the dense matrices assemble returned",
    "invariants.self_s": "self time in fockbench.invariants (moves wall_s on free-theta)",
    "invariants.curvature_theta_s": "inclusive time of curvature_theta",
    "contractions.self_s": "self time in fockbench.contractions (moves wall_s on cp-orbit)",
    "contractions.cp_steps": "sum of k over cp_apply calls",
    "contractions.purity_calls": "purity calls",
    "contractions.purity_converged_ratio": "purity calls that converged over purity calls (moves fail_ratio)",
    "contractions.spectral_radius_s": "inclusive time of spectral_radius",
    "poisson.self_s": "self time in fockbench.poisson (constrained-ladder, cp-orbit)",
    "poisson.kernel_calls": "poisson_kernel calls",
    "dilation.self_s": "self time in fockbench.dilation (constrained-ladder, cp-orbit)",
    "interpolation.self_s": "self time in fockbench.interpolation (cp-orbit)",
    "linalg.self_s": "self time in fockbench._linalg (constrained-ladder, free-theta)",
    "linalg.svd_calls": "SVDs of non-empty matrices through fockbench._linalg",
    "linalg.svd_flops": "computed: sum of 16 (m n k - k^3/3), k = min(m, n), over those SVDs",
    "linalg.spectral_norm_calls": "spectral_norm calls",
    "serialize.self_s": "self time in fockbench.serialize (JSON matrix codecs)",
    "cli.self_s": "self time in fockbench.cli: argument parsing, task dispatch, JSON emit (all workloads)",
    "cli.report_bytes": "bytes of the JSON reports one pass writes",
    "trace.overhead_s": "traced wall_s minus untraced wall_s, both from this run; reads "
                        "negative when the overhead is below the pass-to-pass noise",
}

def _entries(items) -> list[str]:
    return [textwrap.fill(text, 100, initial_indent=f"  {name}: ", subsequent_indent="      ")
            for name, text in items]


EPILOG = "\n".join(
    ["workloads (a pass = the golden scenario, then the workload's jobs, run one after another):"]
    + _entries(WORKLOAD_HELP.items())
    + ["", "metrics (values per pass, medians over the run's passes):"]
    + _entries(METRIC_HELP.items())
    + [""]
    + [textwrap.fill(text, 100) for text in (
        "fail_ratio (tasks with status != pass, plus jobs that raised, over tasks attempted) is "
        "printed as a summary line; the JSON line carries it as failed / attempted.",
        "correct is false if the golden report differs from tests/data/golden_report.json, if an "
        "exact report field (constrained dim and slice dims, defect_dim, Euler ranks, Pick verdict) "
        "differs from perfbench/reference.json, or if a spectral radius falls outside its bracket.")]
)


def child_env(build: Path) -> dict:
    """Environment of every child: one BLAS thread, and bytecode read from and
    written to a cache under the build directory only. Any __pycache__ left
    in the source tree by other tools is then ignored, so whether a set-up
    launch compiles fockbench does not depend on what ran before."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(build / "pycache")
    return env


def timed_run(cmd: list[str], env: dict, timeout: float) -> float:
    """Wall time of a child process from spawn to exit.

    Waits in a blocking waitpid: subprocess's timed wait polls with sleeps of
    up to 50 ms, which would quantize the measurement. A watchdog kills a
    child that outlives the timeout."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return elapsed


def same_tree(a: Path, b: Path) -> bool:
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    return files_a == files_b and all((a / f).read_bytes() == (b / f).read_bytes() for f in files_a)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__,
        epilog=EPILOG, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOAD_HELP), required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed for the generated inputs")
    parser.add_argument("--seconds", type=float, required=True, help="measurement budget of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "fockbench" / "cli.py",
              ROOT / "tests" / "data" / "golden_scenario.json", ROOT / "tests" / "data" / "golden_report.json"]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"error: missing {', '.join(missing)}; run from a fockbench checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    undocumented = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]} ^ set(METRIC_HELP)
    if undocumented:
        print(f"error: metrics in BENCHMARK.json or --help but not both: {sorted(undocumented)}", file=sys.stderr)
        return 2

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=build))
    env = child_env(build)
    try:
        setup_cmd = [sys.executable, str(HERE / "gen.py"), "--workload", args.workload, "--seed", str(args.seed)]
        # Untimed: fills the bytecode cache, so the timed launches all load
        # compiled modules.
        timed_run(setup_cmd + ["--out", str(work / "warm")], env, timeout=60)

        def timed_setups(ks: range) -> list[float]:
            return [timed_run(setup_cmd + ["--out", str(work / f"setup-{k}")], env, timeout=60) for k in ks]

        setup_times = timed_setups(range(SETUP_REPEATS // 2))
        # Leaves time for the set-up launches after the worker.
        budget = max(30.0, RUN_LIMIT_S - 15.0 - (time.perf_counter() - started))
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--jobs", str(work / "setup-0" / "jobs.json"), "--reports", str(work / "reports"),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, stdout=subprocess.PIPE, text=True, timeout=budget)
        if proc.returncode != 0:
            print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        setup_times += timed_setups(range(SETUP_REPEATS // 2, SETUP_REPEATS))
        problems = [f"setup {k} wrote different scenario bytes than setup 0"
                    for k in range(1, SETUP_REPEATS) if not same_tree(work / "setup-0", work / f"setup-{k}")]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = dict(result.get("layers", {}))
    measured.update(wall_s=result["wall_s"], setup_s=statistics.median(setup_times),
                    peak_rss_mb=result["peak_rss_mb"])
    problems += result["problems"]
    unmeasured = [m["name"] for m in wanted if m["name"] not in measured]
    if unmeasured:
        print(f"error: the worker reported no value for {unmeasured}", file=sys.stderr)
        return 1
    for line in problems:
        print(f"incorrect: {line}", file=sys.stderr)

    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    passes = result["passes"]
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes "
          f"({sum(p['traced'] for p in passes)} traced), wall_s of each: "
          + " ".join(f"{p['wall_s']:.4f}" for p in passes))
    print("setup launches, in order (s): " + " ".join(f"{t:.4f}" for t in setup_times))
    for name, seconds in result["job_s"].items():
        print(f"job {name} {seconds:.4f} s (median over untraced passes)")
    for name, metric in metrics.items():
        computed = " (computed)" if METRIC_HELP[name].startswith("computed") else ""
        print(f"{name} {metric['value']} {metric['unit']}{computed}")
    print(f"fail_ratio {result['failed'] / result['attempted']} ratio "
          f"({result['failed']} of {result['attempted']} tasks)")
    print(json.dumps({"correct": not problems, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
