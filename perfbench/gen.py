"""Seeded inputs for the fockbench benchmark: row-contraction generators and
the fixed job list of each workload.

Every workload has a fixed structure (tuple sizes, ideals, truncations, task
lists); the seed only draws the matrix entries, the random points and the
Pick data. Identical seeds therefore give identical scenario bytes, and the
exact report fields the correctness gate compares (constrained dimensions,
defect dimensions, Euler ranks, the Pick verdict) depend on the structure
alone, so one reference serves every seed.

Run as a script, this is the set-up step the benchmark times: it imports
fockbench and numpy, draws the inputs and writes one scenario file per job.

    python3 perfbench/gen.py --workload cp-orbit --seed 7 --out DIR
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("constrained-ladder", "free-theta", "cp-orbit")

# Row norm of every generated strict contraction. Strictly below one, so the
# row defect has full rank and every tuple is pure.
ROW_NORM = 0.85
# (1 - EPS) times a coisometry: the CP orbit decays like (1 - EPS)^(2k), so
# the purity iteration runs to its k_max cap without converging.
EPS = 1e-3


def import_fockbench():
    """Import fockbench from this checkout's ``src``; never from elsewhere."""
    if not (SRC / "fockbench" / "__init__.py").is_file():
        raise SystemExit(f"error: no fockbench sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fockbench
    import fockbench.cli

    if Path(fockbench.__file__).resolve().parent != (SRC / "fockbench").resolve():
        raise SystemExit(f"error: fockbench imported from {fockbench.__file__}, not from {SRC}")
    return fockbench


# --- tuple generators ------------------------------------------------------


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _scale_to_row_norm(mats: list[np.ndarray]) -> list[np.ndarray]:
    gram = sum(t @ t.conj().T for t in mats)
    top = float(np.sqrt(np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))[-1]))
    return [t * (ROW_NORM / top) for t in mats]


def random_row_contraction(rng, n: int, d: int) -> list[np.ndarray]:
    """n independent complex Gaussian d x d matrices scaled to ROW_NORM."""
    return _scale_to_row_norm([_complex_normal(rng, (d, d)) for _ in range(n)])


def diagonal_commuting(rng, n: int, d: int) -> list[np.ndarray]:
    """n diagonal matrices with random complex eigenvalues (exactly commuting)."""
    return _scale_to_row_norm([np.diag(_complex_normal(rng, d)) for _ in range(n)])


def nonnormal_commuting(rng, n: int, d: int) -> list[np.ndarray]:
    """S D_i S^-1 for diagonal D_i and a well-conditioned non-unitary S."""
    s = np.eye(d) + 0.3 * _complex_normal(rng, (d, d)) / np.sqrt(d)
    s_inv = np.linalg.inv(s)
    return _scale_to_row_norm([s @ np.diag(_complex_normal(rng, d)) @ s_inv for _ in range(n)])


def q_commuting_pair(rng, d: int, q: float) -> list[np.ndarray]:
    """A weighted shift W and diag(q^k); they satisfy D W = q W D."""
    w = np.zeros((d, d), dtype=complex)
    for k in range(d - 1):
        w[k + 1, k] = rng.uniform(0.5, 1.0)
    diag = np.diag(q ** np.arange(d)).astype(complex)
    return _scale_to_row_norm([w, diag])


def near_coisometric(rng, n: int, d: int) -> list[np.ndarray]:
    """(1 - EPS) times a random coisometry: the row [T_1 ... T_n] has
    orthonormal rows before scaling."""
    q, _ = np.linalg.qr(_complex_normal(rng, (n * d, d)))
    row = (1.0 - EPS) * q.conj().T
    return [np.ascontiguousarray(row[:, i * d : (i + 1) * d]) for i in range(n)]


def ball_points(rng, count: int, n: int, radius: float) -> np.ndarray:
    """Distinct points of the open ball, norms uniform in (0.1, radius)."""
    z = _complex_normal(rng, (count, n))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z * rng.uniform(0.1, radius, size=(count, 1))


def infeasible_pick_data(rng, count: int, n: int, d: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Pick data whose verdict is 'infeasible' by construction.

    Point 0 is the origin with target 0 and point 1 has target norm 0.99 > |z_1|.
    The principal 2x2 block of the Pick matrix then has the negative
    eigenvalue (|z_1|^2 - 0.99^2) / (1 - |z_1|^2), so the whole matrix is
    not PSD whatever the remaining (random contraction) targets are."""
    points = ball_points(rng, count, n, 0.9)
    points[0] = 0.0
    points[1] *= 0.8 / np.linalg.norm(points[1])
    targets = []
    for k in range(count):
        a = _complex_normal(rng, (d, d))
        norm = 0.0 if k == 0 else (0.99 if k == 1 else rng.uniform(0.2, 0.95))
        targets.append(a * (norm / np.linalg.norm(a, 2)))
    return points, targets


# --- workloads -------------------------------------------------------------


def _point_json(z) -> list:
    return [[float(v.real), float(v.imag)] for v in z]


def _scenario(fb, name: str, n: int, trunc: int, ideal, mats, tasks, seed: int) -> dict:
    return {
        "name": name,
        "n": n,
        "N": trunc,
        "seed": seed,
        "ideal": ideal,
        "T": [fb.serialize.matrix_to_json(t) for t in mats],
        "tasks": tasks,
    }


# Constrained ladder: (n, N, tuple kind, dim). Kinds alternate so both
# diagonal and non-normal commuting tuples meet every layer.
LADDER = (
    (2, 7, "diagonal", 3),
    (2, 8, "non-normal", 2),
    (2, 9, "diagonal", 4),
    (3, 5, "non-normal", 3),
    (3, 6, "diagonal", 2),
)
LADDER_TASKS = (
    {"task": "shifts", "emit_matrices": False},
    {"task": "factorize", "mode": "truncated"},
    {"task": "poisson"},
    {"task": "dilate"},
    {"task": "model"},
)
# Free theta: (n, dim, m_max, N).
THETA = ((2, 3, 5, 7), (2, 4, 5, 7), (3, 2, 4, 5), (3, 3, 4, 5))
# CP orbit: random tuples of these dims, then near-coisometric ones.
ORBIT_RANDOM_DIMS = (16, 24, 32)
ORBIT_COISO_DIMS = (6, 8)
PICK_POINTS = 60
PICK_TARGET_DIM = 3


def build_jobs(workload: str, seed: int) -> list[dict]:
    """The workload's job list for one seed.

    Each job is {"name", "kind": "scenario", "scenario": {...}} or, in
    cp-orbit, {"name", "kind": "spectral_radius", "tuple": <scenario name>}."""
    fb = import_fockbench()
    children = iter(np.random.SeedSequence([seed, WORKLOADS.index(workload)]).spawn(16))
    jobs: list[dict] = []

    def add(rng, name, n, trunc, ideal, mats, tasks):
        sub_seed = int(rng.integers(2**31))
        jobs.append({"name": name, "kind": "scenario",
                     "scenario": _scenario(fb, name, n, trunc, ideal, mats, tasks, sub_seed)})

    if workload == "constrained-ladder":
        for n, trunc, kind, d in LADDER:
            rng = np.random.default_rng(next(children))
            make = diagonal_commuting if kind == "diagonal" else nonnormal_commuting
            add(rng, f"commutative-n{n}-N{trunc}-{kind}-d{d}", n, trunc, "commutative",
                make(rng, n, d), list(LADDER_TASKS))
        rng = np.random.default_rng(next(children))
        q = float(rng.uniform(0.4, 0.8))
        add(rng, "q-commutative-n2-N8-d4", 2, 8, {"kind": "q-commutative", "q": [[0.0, q], [0.0, 0.0]]},
            q_commuting_pair(rng, 4, q), list(LADDER_TASKS))
    elif workload == "free-theta":
        for n, d, m_max, trunc in THETA:
            rng = np.random.default_rng(next(children))
            add(rng, f"free-n{n}-d{d}-m{m_max}", n, trunc, "free", random_row_contraction(rng, n, d),
                [{"task": "curvature", "method": "both", "m_max": m_max},
                 {"task": "factorize", "mode": "truncated"}])
        rng = np.random.default_rng(next(children))
        add(rng, "arveson-n2-d3", 2, 2, "free", nonnormal_commuting(rng, 2, 3),
            [{"task": "arveson", "m_max": 8, "mc_samples": 20_000}])
    elif workload == "cp-orbit":
        tuples = [(f"random-d{d}", random_row_contraction, d) for d in ORBIT_RANDOM_DIMS]
        tuples += [(f"near-coisometric-d{d}", near_coisometric, d) for d in ORBIT_COISO_DIMS]
        for name, make, d in tuples:
            rng = np.random.default_rng(next(children))
            mats = make(rng, 2, d)
            points, targets = infeasible_pick_data(rng, PICK_POINTS, 2, PICK_TARGET_DIM)
            add(rng, name, 2, 2, "free", mats, [
                {"task": "wold"},
                {"task": "poisson"},
                {"task": "dilate"},
                {"task": "factorize", "mode": "point", "random_points": 30},
                {"task": "curvature", "method": "phi", "m_max": 24},
                {"task": "pick", "points": [_point_json(z) for z in points],
                 "targets": [fb.serialize.matrix_to_json(a) for a in targets]},
            ])
            jobs.append({"name": f"spectral-radius-{name}", "kind": "spectral_radius", "tuple": name})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


def write_jobs(jobs: list[dict], out: Path) -> Path:
    """Write one scenario file per scenario job plus the job list; returns the
    job-list path."""
    out.mkdir(parents=True, exist_ok=True)
    listing = []
    for job in jobs:
        entry = {k: v for k, v in job.items() if k != "scenario"}
        if job["kind"] == "scenario":
            path = out / f"{job['name']}.json"
            path.write_text(json.dumps(job["scenario"], indent=2, sort_keys=True) + "\n", encoding="utf-8")
            entry["path"] = path.name
        listing.append(entry)
    jobs_path = out / "jobs.json"
    jobs_path.write_text(json.dumps(listing, indent=2) + "\n", encoding="utf-8")
    return jobs_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write one workload's seeded scenario files.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    write_jobs(build_jobs(args.workload, args.seed), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
