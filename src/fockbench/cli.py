"""Scenario-driven command line producing deterministic JSON reports.

``scenario run`` executes a task list from a JSON file; every other
subcommand runs a one-task scenario built from its flags, through the same
checks, and its report echoes that scenario. Reports are self-contained
(matrices embedded), schema-tagged, and byte-stable across runs for fixed
seeds. Exit codes: 0 all tasks passed, 1 at least one task failed, 2 for
usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from ._linalg import RankDecision, spectral_norm
from .charfn import assemble, characteristic_coefficients, point_factorization, verify_truncated_factorization
from .contractions import RowContraction, check_count, validate
from .dilation import build_dilation, model_space, wold_decompose
from .errors import FockbenchError, InvalidParameterError
from .ideals import NcPolynomial, build_constrained_subspace, constrained_shifts, ideal_orthogonality, shift_matrices
from .interpolation import PickProblem, pick_feasible, variety_membership
from .invariants import arveson_curvature, curvature_phi, curvature_theta, euler_phi
from .poisson import PoissonKernel, constrained_poisson_kernel, intertwining_check, poisson_kernel
from .serialize import (
    complex_to_json,
    ideal_from_spec,
    matrix_from_json,
    matrix_to_json,
    point_from_json,
    word_length_degree,
)
from .words import TruncatedFock

SCHEMA = "fockbench-report/1"


@dataclass
class RunContext:
    n: int
    trunc: int | None
    generators: list[NcPolynomial]
    rc: RowContraction | None
    tol: float
    seed: int | None
    _fock: TruncatedFock | None = field(default=None, repr=False)
    _cs: object = field(default=None, repr=False)
    _kernels: dict = field(default_factory=dict, repr=False)
    _theta_gram: np.ndarray | None = field(default=None, repr=False)

    def fock(self) -> TruncatedFock:
        if self._fock is None:
            self._fock = TruncatedFock(self.n, self.trunc)
        return self._fock

    def cs(self):
        if self._cs is None:
            self._cs = build_constrained_subspace(self.fock(), self.generators)
        return self._cs

    def kernel(self, r: float = 1.0) -> PoissonKernel:
        """The scenario's Poisson kernel at radius r, built once: on N_J when
        the scenario has generators, on the Fock space otherwise. Every task
        that checks a kernel identity reads it."""
        if r not in self._kernels:
            self._kernels[r] = (constrained_poisson_kernel(self.rc, self.cs(), r) if self.generators
                                else poisson_kernel(self.rc, self.fock(), r))
        return self._kernels[r]

    def theta_gram(self) -> np.ndarray:
        """Theta_T Theta_T^* on N_J, formed once for the tasks of a scenario
        with generators that read it: ``factorize`` (truncated) and
        ``model``. On the Fock space both read Theta's coefficients instead."""
        if self._theta_gram is None:
            theta = assemble(characteristic_coefficients(self.rc, self.trunc), self.cs())
            self._theta_gram = theta @ theta.conj().T
        return self._theta_gram


def _check(name: str, value: float, bound: float) -> dict:
    return {"name": name, "value": float(value), "bound": float(bound), "pass": bool(value <= bound)}


def _gap(decision: RankDecision) -> dict:
    """The report shape of every rank decision: the largest value it counted
    as zero and the smallest it counted as nonzero, null where a side is empty."""
    return {"sigma_zero_max": decision.zero_max, "sigma_nonzero_min": decision.nonzero_min}


def _purity(rc: RowContraction) -> dict:
    """How the tuple's one purity limit was decided: certified or walked, in how many steps."""
    pur = rc.purity_limit()
    return {"method": pur.method, "k_used": pur.k_used, "converged": pur.converged}


# --- task handlers ---------------------------------------------------------


def _shifts_params(params: dict) -> bool:
    """The shifts task's ``emit_matrices``: a JSON bool, default true."""
    emit = params.get("emit_matrices", True)
    if not isinstance(emit, bool):
        raise InvalidParameterError(f"need a bool emit_matrices, got {emit!r}")
    return emit


def task_shifts(ctx: RunContext, params: dict) -> dict:
    """Slice by slice: Q_m^* Q_m = I, and the block-diagonal I - sum B_i B_i^*
    is Q_0 Q_0^* on slice 0 and 0 on slices 1..N."""
    cs = ctx.cs()
    left = constrained_shifts(cs, "left")
    checks = [
        _check("basis_orthonormal", max(spectral_norm(q.conj().T @ q - np.eye(q.shape[1])) for q in cs.slices), 1e-12),
        _check("ideal_orthogonality", ideal_orthogonality(cs), 1e-12),
    ]
    data: dict = {
        "dim": cs.dim,
        "slice_dims": cs.slice_dims,
        "slice_rank_gaps": list(map(_gap, cs.slice_decisions)),
    }
    if cs.contains_vacuum():
        blocks = [np.eye(q.shape[1]) - (sum(x[m - 1] @ x[m - 1].conj().T for x in left) if m else q @ q.conj().T)
                  for m, q in enumerate(cs.slices)]
        checks.append(_check("defect_is_vacuum_projection", max(map(spectral_norm, blocks), default=0.0), 1e-10))
    if _shifts_params(params):
        data["left_shifts"] = [matrix_to_json(b) for b in shift_matrices(cs, left)]
        data["right_shifts"] = [matrix_to_json(w) for w in shift_matrices(cs, constrained_shifts(cs, "right"))]
    return {"checks": checks, "data": data}


def _number(key: str, default: float, ok, what: str):
    """The reader of a task's number parameter ``key``: a finite number (not
    a bool) with ``ok(value)``; anything else raises InvalidParameterError."""
    def read(params: dict) -> float:
        value = params.get(key, default)
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not (np.isfinite(value) and ok(value)):
            raise InvalidParameterError(f"need a finite number {key} {what}, got {value!r}")
        return float(value)
    return read


# The tol of pick (and of factorize), poisson's radius r and arveson's agree_tol.
_tol_params = _number("tol", 1e-9, lambda v: v > 0, "> 0")
_poisson_params = _number("r", 1.0, lambda v: 0 < v <= 1, "in (0, 1]")
_agree_tol = _number("agree_tol", 2e-2, lambda v: v >= 0, ">= 0")


def _factorize_params(params: dict) -> tuple[str, int, float | None, int | None]:
    """The factorize task's ``mode`` (point or truncated), in point mode its
    ``random_points`` (an integer >= 0), its ``tol`` (a number > 0, None
    when absent: the run's tolerance applies) and its ``seed`` (an integer
    >= 0, None when absent: the scenario's applies); point mode needs
    ``points`` or at least one random point."""
    tol = _tol_params(params) if "tol" in params else None
    seed = check_count("seed", params["seed"], 0) if "seed" in params else None
    mode = params.get("mode", "point")
    if mode not in ("point", "truncated"):
        raise InvalidParameterError(f"unknown factorize mode {mode!r}")
    count = check_count("random_points", params.get("random_points", 0), 0) if mode == "point" else 0
    if mode == "point" and not (params.get("points") or count):
        raise InvalidParameterError("point mode needs points or random_points >= 1")
    return mode, count, tol, seed


def task_factorize(ctx: RunContext, params: dict) -> dict:
    rc = ctx.rc
    mode, count, tol, seed = _factorize_params(params)
    checks = []
    data: dict = {"mode": mode}
    if mode == "point":
        tol = ctx.tol if tol is None else tol
        points = [point_from_json(p, ctx.n) for p in params.get("points", [])]
        if count:
            rng = np.random.default_rng(ctx.seed if seed is None else seed)
            for _ in range(count):
                z = rng.standard_normal(ctx.n) + 1j * rng.standard_normal(ctx.n)
                points.append(0.8 * z / max(np.linalg.norm(z), 1e-12) * rng.uniform(0.1, 1.0))
        _, residuals = point_factorization(rc, points, cs=ctx.cs() if ctx.generators else None)
        data["points"] = [[complex_to_json(v) for v in z] for z in points]
        data["residuals"] = residuals
        checks.append(_check("point_factorization_max_residual", max(residuals), tol))
    else:
        rep = verify_truncated_factorization(ctx.kernel(), gram=ctx.theta_gram() if ctx.generators else None)
        data["residual"] = rep.residual
        data["budget"] = rep.budget
        checks.append(_check("truncated_factorization_residual", rep.residual, rep.budget))
    return {"checks": checks, "data": data}


def _curvature_params(params: dict) -> tuple[int, str]:
    """The curvature task's ``m_max`` (an integer >= 1) and ``method``."""
    m_max = check_count("m_max", params.get("m_max", 6), 1)
    method = params.get("method", "both")
    if method not in ("phi", "theta", "both"):
        raise InvalidParameterError(f"unknown curvature method {method!r}")
    return m_max, method


def _arveson_params(params: dict) -> tuple[int, tuple[float, ...], float]:
    """The arveson task's ``m_max`` (an integer >= 1), ``r_values`` (a
    non-empty list of numbers in (0, 1)) and ``agree_tol`` (a number >= 0)."""
    m_max = check_count("m_max", params.get("m_max", 8), 1)
    r_values = params.get("r_values", (0.9, 0.99, 0.999))
    if not (isinstance(r_values, (list, tuple)) and r_values
            and all(isinstance(r, (int, float)) and not isinstance(r, bool) and 0.0 < r < 1.0 for r in r_values)):
        raise InvalidParameterError(f"r_values must be a non-empty list of radial parameters in (0, 1), "
                                    f"got {r_values!r}")
    return m_max, tuple(r_values), _agree_tol(params)


def task_curvature(ctx: RunContext, params: dict) -> dict:
    rc = ctx.rc
    m_max, method = _curvature_params(params)
    checks = []
    data: dict = {}
    if method in ("phi", "both"):
        rep = curvature_phi(rc, m_max)
        data["phi"] = {
            "m": rep.m_values, "sequence": rep.sequence,
            "kernel_slice_increments": rep.extras["kernel_slice_increments"],
        }
        erep = euler_phi(rc, m_max)
        data["euler_phi"] = {"m": erep.m_values, "sequence": erep.sequence, "ranks": erep.extras["ranks"],
                             "rank_gaps": list(map(_gap, erep.extras["rank_decisions"]))}
    if method in ("theta", "both"):
        rep = curvature_theta(rc, m_max)
        data["theta"] = {
            "m": rep.m_values, "sequence": rep.sequence,
            "euler_sequence": rep.extras["euler_sequence"],
            "euler_rank_gaps": list(map(_gap, rep.extras["euler_decisions"])),
        }
        checks.append(_check("cross_method_gap", max(rep.extras["cross_check_vs_phi"]), 1e-8))
    return {"checks": checks, "data": data}


def task_arveson(ctx: RunContext, params: dict) -> dict:
    m_max, r_values, agree_tol = _arveson_params(params)
    rep = arveson_curvature(ctx.rc, m_max=m_max, r_values=r_values)
    data = {
        "boundary": {f"{r:g}": {"value": value, "tail_bound": tail} for r, (value, tail) in rep.boundary.items()},
        "orbit_steps": rep.orbit_steps,
        "qm_sequence": rep.qm_sequence,
        "euler_sequence": rep.euler_sequence,
        "euler_rank_gaps": list(map(_gap, rep.euler_decisions)),
        "deviations": rep.deviations,
    }
    checks = [
        _check("boundary_vs_qm", rep.deviations["boundary_vs_qm"], agree_tol),
        _check("slice_trace_vs_orbit", rep.slice_trace_gap, 1e-10),
    ]
    return {"checks": checks, "data": data}


def _pick_params(params: dict) -> tuple[list[np.ndarray], float]:
    """The pick task's ``targets``, each a matrix object or an [re, im] pair
    of finite numbers, and its ``tol``; ``check_scenario`` requires targets."""
    targets = params.get("targets", [])
    if not isinstance(targets, list):
        raise InvalidParameterError(f"pick targets must be a list, got {targets!r}")
    parsed = []
    for k, a in enumerate(targets):
        pair = isinstance(a, list) and len(a) == 2 and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) and np.isfinite(x) for x in a)
        if not (pair or isinstance(a, dict)):
            raise InvalidParameterError(f"pick target {k} must be a matrix object or an [re, im] pair of "
                                        f"finite numbers, got {a!r}")
        parsed.append(matrix_from_json(a) if isinstance(a, dict) else np.atleast_2d(complex(a[0], a[1])))
    return parsed, _tol_params(params)


def task_pick(ctx: RunContext, params: dict) -> dict:
    points = [point_from_json(p, ctx.n) for p in params["points"]]
    targets, tol = _pick_params(params)
    for z in points:
        if not variety_membership(z, ctx.generators, ctx.n):
            raise FockbenchError(f"point {z} is not in the variety of the ideal")
    problem = PickProblem(n=ctx.n, points=np.array(points), targets=targets)
    res = pick_feasible(problem, tol)
    verdict = "feasible (marginal)" if (res.feasible and res.marginal) else (
        "feasible" if res.feasible else "infeasible")
    data = {
        "verdict": verdict,
        "feasible": res.feasible,
        "marginal": res.marginal,
        "lambda_min": res.lambda_min,
        "lambda_max": res.lambda_max,
    }
    if res.certificate is not None:
        data["certificate"] = matrix_to_json(res.certificate.reshape(-1, 1))
    return {"checks": [_check("lambda_min_residual", res.residual, 1e-12)], "data": data}


def _wold_params(params: dict) -> int | None:
    """The wold task's ``k_max``: an integer >= 0, or None for the default."""
    k_max = params.get("k_max")
    return None if k_max is None else check_count("k_max", k_max, 0)


def task_wold(ctx: RunContext, params: dict) -> dict:
    split = wold_decompose(ctx.rc, k_max=_wold_params(params))
    checks = [
        _check("two_path_max_angle", float(split.two_path_angles.max(initial=0.0)), 1e-8),
        _check("two_path_dim_mismatch", 0.0 if split.two_path_dim_match else 1.0, 0.0),
    ]
    data = {
        "multiplicity": split.multiplicity,
        "defect_rank_gap": _gap(ctx.rc.defect_decision),
        "q_rank_gap": _gap(split.purity.q_spectrum()[2]),
        "k0_dim": int(split.k0_basis.shape[1]),
        "k1_dim": int(split.k1_basis.shape[1]),
        "k0_rank_gap": _gap(split.k0_decision),
        "idempotency_defect": split.idempotency_defect,
        "is_shift": split.purity.is_pure,
        "purity": _purity(ctx.rc),
    }
    return {"checks": checks, "data": data}


def task_dilate(ctx: RunContext, params: dict) -> dict:
    blocks = build_dilation(ctx.kernel())
    inter = intertwining_check(blocks.kernel)
    checks = [
        _check("embedding_isometry_defect", blocks.isometry_defect, 1e-10),
        _check("cuntz_identity", blocks.cuntz_residual, 1e-10),
        _check("cuntz_constraints", max(blocks.constraint_residuals, default=0.0), 1e-10),
        _check("dilation_intertwining", max(inter.residual, blocks.lsq_residual), 1e-10),
    ]
    data = {
        "k_dim": blocks.k_dim,
        "cuntz_rank_gap": _gap(ctx.rc.purity_limit().q_spectrum()[2]),
        "defect_rank": ctx.rc.defect_rank,
        "defect_rank_gap": _gap(ctx.rc.defect_decision),
        "column_defect_rank_gap": _gap(ctx.rc.defect_star_decision),
        "kernel_isometry_defect": blocks.kernel.isometry_defect,
        "intertwining_full_residual": inter.full_residual,
        "purity": _purity(ctx.rc),
    }
    return {"checks": checks, "data": data}


def task_model(ctx: RunContext, params: dict) -> dict:
    res = model_space(ctx.kernel(), gram=ctx.theta_gram() if ctx.generators else None)
    checks = [
        _check("projection_residual", res.projection_residual, 1e-10),
        _check("complement_residual", res.complement_residual, 1e-10),
        _check("equivalence_residual", res.equivalence_residual, 1e-10),
    ]
    data = {
        "model_dim": res.decision.rank,
        "split": _gap(res.decision),
        "purity": _purity(ctx.rc),
    }
    return {"checks": checks, "data": data}


def task_poisson(ctx: RunContext, params: dict) -> dict:
    kern = ctx.kernel(_poisson_params(params))
    inter = intertwining_check(kern)
    checks = [
        _check("intertwining_residual", inter.residual, 1e-10),
        _check("isometry_defect_vs_exact_tail", kern.isometry_defect, 1e-12),
    ]
    if kern.range_containment is not None:
        checks.append(_check("range_containment", kern.range_containment, 1e-10))
    data = {"defect_dim": kern.defect_dim, "defect_rank_gap": _gap(kern.defect_decision),
            "column_defect_rank_gap": _gap(ctx.rc.defect_star_decision), "tail_budget": kern.tail_budget,
            "purity": _purity(ctx.rc)}
    return {"checks": checks, "data": data}


TASKS = {
    "shifts": task_shifts,
    "factorize": task_factorize,
    "curvature": task_curvature,
    "arveson": task_arveson,
    "pick": task_pick,
    "wold": task_wold,
    "dilate": task_dilate,
    "model": task_model,
    "poisson": task_poisson,
}


def run_task(ctx: RunContext, spec: dict) -> dict:
    name = spec.get("task")
    params = {k: v for k, v in spec.items() if k != "task"}
    report = {"task": name}
    try:
        result = TASKS[name](ctx, params)
        checks = result["checks"]
        report["checks"] = checks
        report["data"] = result["data"]
        report["status"] = "pass" if all(c["pass"] for c in checks) else "fail"
    except Exception as exc:  # any task failure is recorded; the scenario goes on
        report["status"] = "fail"
        report["error"] = f"{type(exc).__name__}: {exc}"
    return report


# --- scenario runner -------------------------------------------------------


TUPLE_TASKS = {"factorize", "curvature", "arveson", "wold", "dilate", "model", "poisson"}
TRUNCATION_TASKS = {"shifts", "factorize", "dilate", "model", "poisson"}
# Task parameters checked when the scenario loads, before any compute.
PARAMETER_CHECKS = {"shifts": _shifts_params, "factorize": _factorize_params, "curvature": _curvature_params,
                    "arveson": _arveson_params, "pick": _pick_params, "wold": _wold_params, "poisson": _poisson_params}


def _reject_constant(name: str):
    raise InvalidParameterError(f"JSON constant {name} is not allowed: numbers must be finite")


def _strict_json(text: str):
    """Parse JSON input, rejecting NaN and +-Infinity so no report can echo them."""
    return json.loads(text, parse_constant=_reject_constant)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return _strict_json(fh.read())


def check_scenario(scenario: dict) -> dict:
    """Reject a scenario that lacks what its tasks read: ``n`` and a list of
    task objects always, ``T`` for a task on the tuple, ``N`` for a task on the
    truncation, and points and targets for ``pick``; and one whose task has
    a parameter in ``PARAMETER_CHECKS`` that its handler would reject."""
    if not isinstance(scenario, dict):
        raise InvalidParameterError("a scenario is a JSON object")
    for key in ("n", "tasks"):
        if key not in scenario:
            raise InvalidParameterError(f"scenario is missing required key {key!r}")
    if not (isinstance(scenario["tasks"], list) and all(isinstance(t, dict) for t in scenario["tasks"])):
        raise InvalidParameterError("scenario key 'tasks' must be a list of objects")
    for t in scenario["tasks"]:
        name = t.get("task")
        if name not in TASKS:
            raise InvalidParameterError(f"scenario names an unknown task {name!r}")
        if name in TUPLE_TASKS and "T" not in scenario:
            raise InvalidParameterError(f"task {name!r} needs a row contraction (scenario key 'T')")
        if name in TRUNCATION_TASKS and "N" not in scenario:
            raise InvalidParameterError(f"task {name!r} needs a truncation degree (scenario key 'N')")
        if name == "pick" and not ("points" in t and "targets" in t):
            raise InvalidParameterError("pick task needs 'points' and 'targets'")
        if name in PARAMETER_CHECKS:
            PARAMETER_CHECKS[name](t)
    return scenario


def load_scenario(path: str) -> dict:
    return check_scenario(_load_json(path))


def _generators(n: int, spec, trunc: int | None) -> list[NcPolynomial]:
    """The scenario ideal's generators. Without N only ``pick`` reads them,
    for its zero-set test, so truncated(m) gives the n powers g_i^m in place
    of its n^m words of length m: at a scalar point both families vanish
    only at the origin and have the same largest residual, max_i |z_i|^m."""
    m = word_length_degree(spec)
    if trunc is None and m is not None:
        return [NcPolynomial.monomial([i] * m) for i in range(1, n + 1)]
    return ideal_from_spec(n, spec, max_degree=trunc)


def context_from_scenario(scenario: dict, tol: float, seed: int | None) -> RunContext:
    n = check_count("n", scenario["n"], 1)
    trunc = check_count("N", scenario["N"], 0) if "N" in scenario else None
    generators = _generators(n, scenario.get("ideal"), trunc)
    rc = None
    if "T" in scenario:
        rc = validate([matrix_from_json(m) for m in scenario["T"]])
        if rc.n != n:
            raise InvalidParameterError("tuple length disagrees with the scenario dimension")
    if "seed" in scenario or seed is not None:
        seed = check_count("seed", scenario.get("seed", seed), 0)
    if any(t["task"] == "factorize" and _factorize_params(t)[1] and t.get("seed", seed) is None
           for t in scenario["tasks"]):
        raise InvalidParameterError("random points need a seed: from the task, the scenario or --seed")
    return RunContext(
        n=n,
        trunc=trunc,
        generators=generators,
        rc=rc,
        tol=tol,
        seed=seed,
    )


def run_scenario(scenario: str | dict, tol: float = 1e-9, seed: int | None = None) -> dict:
    """Run a scenario, given as a dict or as the path of its JSON file, and
    return the report that echoes it."""
    scenario = load_scenario(scenario) if isinstance(scenario, str) else check_scenario(scenario)
    ctx = context_from_scenario(scenario, tol, seed)
    results = [run_task(ctx, t) for t in scenario["tasks"]]
    failed = sum(1 for r in results if r["status"] != "pass")
    return {
        "schema": SCHEMA,
        "version": __version__,
        "scenario": scenario,
        "tasks": results,
        "summary": {"total": len(results), "passed": len(results) - failed, "failed": failed},
    }


# --- argument handling -----------------------------------------------------


def _finite_float(text: str) -> float:
    """argparse type of a float flag: rejects NaN and +-inf at parse time."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _radii(text: str) -> list[float]:
    """argparse type of a comma-separated list of radial parameters, each in (0, 1)."""
    values = [_finite_float(x) for x in text.split(",")]
    if not all(0.0 < value < 1.0 for value in values):
        raise argparse.ArgumentTypeError(f"radial parameters must lie in (0, 1), got {text!r}")
    return values


def _finite_complex(text: str) -> complex:
    """One entry of a comma-separated complex list (``--points``, ``--targets``)."""
    text = text.strip()
    try:
        value = complex(text)
    except ValueError:
        raise InvalidParameterError(f"{text!r} is not a number") from None
    if not np.isfinite(value):
        raise InvalidParameterError(f"{text!r} is not a finite number")
    return value


def _parse_points(text: str, n: int) -> list[list[list[float]]]:
    """``--points`` as JSON points: n = 1 'z1,z2,...', n > 1 'a,b;c,d;...'."""
    points = []
    chunks = text.split(";") if n > 1 else text.split(",")
    for chunk in chunks:
        coords = chunk.split(",") if n > 1 else [chunk]
        if len(coords) != n:
            raise InvalidParameterError(f"point {chunk!r} does not have {n} coordinates")
        points.append([[v.real, v.imag] for v in map(_finite_complex, coords)])
    return points


def _parse_targets(args) -> list:
    if args.targets_file:
        return [matrix_to_json(matrix_from_json(m)) for m in _load_json(args.targets_file)]
    if args.targets is None:
        raise InvalidParameterError("pick needs --targets or --targets-file")
    return [matrix_to_json(np.atleast_2d(_finite_complex(t))) for t in args.targets.split(",")]


def report_text(report) -> str:
    """The JSON text of a report, the one writer of every report: a dict,
    or a list that holds a dict, has one item a line, indented by 2, keys
    sorted; any other value (a number, a matrix's data, a point list) is one
    ``json.dumps`` on its line, so the C encoder writes all the numbers."""
    out: list[str] = []
    _write_json(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value, pad: str, out: list[str]) -> None:
    if isinstance(value, dict) and value:
        inner = pad + "  "
        out.append("{")
        for i, key in enumerate(sorted(value)):
            out.append(("," if i else "") + inner + json.dumps(key) + ": ")
            _write_json(value[key], inner, out)
        out.append(pad + "}")
    elif isinstance(value, list) and any(isinstance(v, dict) for v in value):
        inner = pad + "  "
        out.append("[")
        for i, item in enumerate(value):
            out.append(("," if i else "") + inner)
            _write_json(item, inner, out)
        out.append(pad + "]")
    else:
        out.append(json.dumps(value, sort_keys=True))


def _emit(report: dict, out: str | None) -> None:
    text = report_text(report)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _task_flags(p: argparse.ArgumentParser, *flags: tuple[str, dict]) -> None:
    """Add the flags that go into the subcommand's task spec. Each defaults to
    None and an unset one is left out of the spec, so the task handler's
    default is the only default."""
    p.set_defaults(task_keys=[p.add_argument(flag, default=None, **kw).dest for flag, kw in flags])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (about 2 ms) for every
    ``main`` call; parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=_finite_float, default=1e-9, help="default check tolerance")
    common.add_argument("--seed", type=int, default=None, help="master seed for sampled quantities")
    common.add_argument("--out", default=None, help="write the JSON report here instead of stdout")

    parser = argparse.ArgumentParser(prog="fockbench", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shifts", parents=[common], help="emit constrained shift matrices and defect checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True, dest="trunc")
    p.add_argument("--ideal", default="free")
    p.add_argument("--q", default=None, help="JSON q matrix for the q-commutative ideal")
    _task_flags(p, ("--no-matrices", {"action": "store_false", "dest": "emit_matrices"}))

    for name, flags in {
        "factorize": [("--mode", {"choices": ["point", "truncated"]}), ("--points", {}),
                      ("--random-points", {"type": int})],
        "curvature": [("--m-max", {"type": int}), ("--method", {"choices": ["phi", "theta", "both"]})],
        "arveson": [("--m-max", {"type": int}), ("--r-list", {"type": _radii, "dest": "r_values"})],
        "wold": [("--k-max", {"type": int})],
        "dilate": [],
        "model": [],
        "poisson": [("--r", {"type": _finite_float})],
    }.items():
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--input", required=True, help="JSON file with {n, T: [matrices]}")
        if name not in ("curvature", "arveson", "wold"):
            p.add_argument("--ideal", default="free")
            p.add_argument("--q", default=None)
        p.add_argument("--N", type=int, default=6, dest="trunc")
        _task_flags(p, *flags)

    p = sub.add_parser("pick", parents=[common], help="Pick-matrix feasibility test")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--points", required=True, help="n=1: 'z1,z2,...'; n>1: 'a,b;c,d;...'")
    p.add_argument("--targets", default=None, help="comma-separated scalar targets")
    p.add_argument("--targets-file", default=None, help="JSON list of matrix targets")
    p.add_argument("--ideal", default="free")
    p.add_argument("--q", default=None)

    p = sub.add_parser("scenario", parents=[common], help="scenario file runner")
    p.add_argument("action", choices=["run"])
    p.add_argument("path")
    return parser


def _ideal_arg(args):
    spec = getattr(args, "ideal", "free")
    if spec == "q-commutative":
        if args.q is None:
            raise InvalidParameterError("q-commutative ideal needs --q")
        return {"kind": "q-commutative", "q": _strict_json(args.q)}
    return spec


def _scenario_from_args(args) -> dict:
    """The one-task scenario of a subcommand: n and T from ``--input`` (n from
    ``--n`` for shifts and pick), N from ``--N`` except for pick, which reads
    no truncation, the ideal, and one task carrying the flags the user set."""
    if args.command in ("shifts", "pick"):
        scenario: dict = {"n": args.n}
    else:
        tup = _load_json(args.input)
        if not (isinstance(tup, dict) and isinstance(tup.get("T"), list)):
            raise InvalidParameterError("--input needs a JSON object with a list of matrices 'T'")
        scenario = {"n": tup.get("n", len(tup["T"])), "T": tup["T"]}
    if args.command != "pick":
        scenario["N"] = args.trunc
    scenario["ideal"] = _ideal_arg(args)
    if args.seed is not None:
        scenario["seed"] = args.seed
    task = {"task": args.command}
    task.update((key, getattr(args, key)) for key in getattr(args, "task_keys", ()) if getattr(args, key) is not None)
    if args.command == "pick":
        task.update(points=args.points, targets=_parse_targets(args), tol=args.tol)
    if "points" in task:
        task["points"] = _parse_points(task["points"], check_count("n", scenario["n"], 1))
    scenario["tasks"] = [task]
    return scenario


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        scenario = args.path if args.command == "scenario" else _scenario_from_args(args)
        report = run_scenario(scenario, tol=args.tol, seed=args.seed)
        _emit(report, args.out)
        return 0 if report["summary"]["failed"] == 0 else 1
    except json.JSONDecodeError as exc:
        print(f"error: cannot parse JSON at line {exc.lineno} column {exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    except (InvalidParameterError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FockbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
