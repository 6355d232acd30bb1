"""One pass: a fresh process that sets up its inputs and runs its jobs.

Usage: bench_pass.py SPEC_JSON OUT_JSON T0

``T0`` is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide), so set-up time covers interpreter start,
importing probewise, and generating and writing the input files.  The result
file holds the set-up time, the closed-loop wall time, ``ru_maxrss``, one
record per job (exit code, SHA-256 of its report or stdout, verdict counts,
wall time) and, when tracing, every span.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import tracing
import workloads

_STATUS = re.compile(r": (secure|leaks|inconclusive)$")


def verdict_counts(report: bytes | None, stdout: str) -> dict[str, int]:
    """Verdict multiset of one job: report entries, or the ni/sni line."""
    counts: Counter = Counter()
    if report is not None:
        for line in report.decode().splitlines():
            doc = json.loads(line)
            if "verdict" in doc:
                counts[doc["verdict"]] += 1
    else:
        first = stdout.splitlines()[0] if stdout else ""
        found = _STATUS.search(first)
        if found:
            counts[found.group(1)] += 1
    return dict(sorted(counts.items()))


def run_job(cli, task: dict, files, report: Path) -> dict:
    report.unlink(missing_ok=True)
    argv = workloads.argv_for(task, files, str(report))
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:   # a crash is a failed job, not a failed pass
        code, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    body = report.read_bytes() if files is not None and report.exists() else None
    digest = hashlib.sha256(body if body is not None
                            else out.getvalue().encode()).hexdigest()
    if error is None and err.getvalue():
        error = err.getvalue().strip().splitlines()[-1]
    return {"id": task["id"], "exit": code, "sha256": digest,
            "verdicts": verdict_counts(body, out.getvalue()),
            "wall_s": wall, "error": error}


def main(spec_path: str, out_path: str, t0: float) -> int:
    spec = json.loads(Path(spec_path).read_text())
    workdir = Path(spec["workdir"])
    import numpy
    from probewise import cli

    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    files = [workloads.write_inputs(t["circuit"], t["witness_seed"], workdir)
             if t["circuit"] is not None else None for t in spec["tasks"]]

    first = time.monotonic()
    jobs = []
    for index, (task, job_files) in enumerate(zip(spec["tasks"], files)):
        if tracer is not None:
            tracer.job = f"{index}:{task['id']}"
        jobs.append(run_job(cli, task, job_files,
                            workdir / f"job{index}.report"))
        if tracer is not None:
            tracer.job = None
    loop_s = time.monotonic() - first

    result = {"setup_s": first - t0, "loop_s": loop_s,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024,
              "numpy": numpy.__version__, "jobs": jobs,
              "spans": tracer.spans if tracer is not None else None}
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], float(sys.argv[3])))
