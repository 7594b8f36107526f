"""Record the exact report fields of every workload job into reference.json.

The fields (see ``worker.exact_fields``) depend on the job structure, not on
the seed, so the script runs each workload under several seeds and refuses
to write a reference when two seeds disagree. Run it only at a commit whose
reports are trusted; the benchmark compares every later run against it.

    python3 perfbench/record_reference.py [--seeds 0 1 2 3]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from gen import ROOT, WORKLOADS, build_jobs, import_fockbench, write_jobs
from worker import REFERENCE, exact_fields


def record(workload: str, seed: int, work: Path) -> dict:
    cli = import_fockbench().cli
    write_jobs(build_jobs(workload, seed), work)
    fields = {}
    for job in json.loads((work / "jobs.json").read_text(encoding="utf-8")):
        if job["kind"] != "scenario":
            continue
        out = work / "report.json"
        cli.main(["scenario", "run", str(work / job["path"]), "--out", str(out)])
        fields[job["name"]] = exact_fields(json.loads(out.read_text(encoding="utf-8")))
    return fields


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3])
    args = parser.parse_args(argv)
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    reference = {}
    for workload in WORKLOADS:
        runs = []
        for seed in args.seeds:
            with tempfile.TemporaryDirectory(dir=build) as tmp:
                runs.append(record(workload, seed, Path(tmp)))
        for seed, fields in zip(args.seeds[1:], runs[1:]):
            if fields != runs[0]:
                print(f"error: {workload} exact fields differ between seeds {args.seeds[0]} and {seed}",
                      file=sys.stderr)
                return 1
        reference[workload] = runs[0]
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
