"""Record or check the reference output of every job the benchmark can run.

    python3 perfbench/references.py record [--seed N]
    python3 perfbench/references.py check [--seed N]

``record`` runs ``Workload.cover`` rounds of every workload, which together
run every job, and rewrites ``references.json``: per job its exit code, the
SHA-256 of its report file (``verify``) or stdout (``ni``/``sni``) and its
verdict counts, and per workload the verdict multiset with its SHA-256.  A job
that runs twice must give the same result both times.  ``check`` reruns every
job under another seed (other witness values, another cycle rotation) and
compares; it exits 1 naming each job that differs.  References are recorded
once, at the commit that defined the benchmark, and re-recorded only by a
change that means to change verdicts or report bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

import run
import workloads


def multiset(jobs: dict[str, dict]) -> dict[str, int]:
    total: Counter = Counter()
    for job in jobs.values():
        total.update(job["verdicts"])
    return dict(sorted(total.items()))


def multiset_sha256(counts: dict[str, int]) -> str:
    return hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()


def run_all(workload: workloads.Workload, seed: int,
            workdir: Path) -> tuple[dict[str, dict], list[str]]:
    """Every job's result over ``workload.cover`` consecutive rounds, and the
    jobs whose repeated runs disagreed."""
    out: dict[str, dict] = {}
    problems = []
    for index in range(workload.cover):
        for tasks in workload.round(seed, index):
            result = run.run_pass(tasks, False, workdir, time.monotonic())
            for job in result["jobs"]:
                why = run.judge(job, out.setdefault(job["id"], job))
                if why is not None:
                    problems.append(f"{job['id']}: repeated run differs: {why}")
    return dict(sorted(out.items())), problems


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("mode", choices=("record", "check"))
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    stored = json.loads(run.REFERENCES.read_text()) \
        if args.mode == "check" else {}
    doc, problems = {}, []
    with run.workspace() as workdir:
        for name, workload in workloads.WORKLOADS.items():
            jobs, unstable = run_all(workload, args.seed, workdir)
            problems += unstable
            problems += [f"{i}: raised {j['error']}" for i, j in jobs.items()
                         if j["exit"] is None]
            refs = {i: {"exit": j["exit"], "sha256": j["sha256"],
                        "verdicts": j["verdicts"]} for i, j in jobs.items()}
            counts = multiset(refs)
            doc[name] = {"verdict_multiset": counts,
                         "verdict_multiset_sha256": multiset_sha256(counts),
                         "jobs": refs}
            if args.mode == "check":
                want = stored[name]
                problems += [f"{i}: {why}" for i, j in jobs.items()
                             if (why := run.judge(j, want["jobs"].get(i)))]
                if doc[name]["verdict_multiset_sha256"] != \
                        want["verdict_multiset_sha256"]:
                    problems.append(f"{name}: verdict multiset {counts}, "
                                    f"expected {want['verdict_multiset']}")
            print(f"{name}: {len(jobs)} jobs, verdicts {counts}")
    for line in problems:
        print(f"FAILED {line}", file=sys.stderr)
    if args.mode == "record" and not problems:
        run.REFERENCES.write_text(json.dumps(doc, indent=1, sort_keys=True)
                                  + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
