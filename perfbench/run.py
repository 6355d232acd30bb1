"""probewise benchmark: run one workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

or, for every workload in turn:

    for w in random_rr1sw long_trace probe_tuples; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20
    done

``--trace 0`` runs whole rounds of the workload's job mix (see
``workloads.py``) until at least S seconds of jobs have been timed, and
reports the end-to-end metrics.  ``--trace 1`` runs round 0 twice per pass,
once plain and once with every layer wrapped (``tracing.py``), and reports
the per-layer metrics, the unattributed remainder and the tracing overhead.
Either way every job's exit code, verdicts and output bytes are checked
against ``references.json``; a mismatch fails the job, and any failed job
makes the run exit 1 naming it.

End-to-end metrics (wall time on the host):

* ``setup_s``: median over passes of process start to first job (interpreter
  start, importing probewise, generating and writing the pass's inputs);
* ``job_p50_s``: median wall time of one ``cli.main`` job;
* ``job_tail_s``: the highest percentile of one round's job times with at
  least ten samples beyond it (the run prints the percentile and counts);
* ``jobs_per_s``: jobs per second of the passes' closed-loop wall time;
* ``peak_rss_mb``: the largest ``ru_maxrss`` of any pass process.

``failed_frac`` (failed jobs over jobs attempted) is printed with the
metrics; the result line carries it as ``failed`` and ``attempted``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
DEADLINE_S = 170          # a run must end within 180 s
TAIL_BEYOND = 10          # samples the tail percentile must leave above it

END_TO_END = (("setup_s", "s"), ("job_p50_s", "s"), ("job_tail_s", "s"),
              ("jobs_per_s", "1/s"), ("peak_rss_mb", "MiB"))

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class PassFailed(Exception):
    pass


def tail_fraction(per_round: int) -> float:
    """The highest quantile of one round's job times with at least
    ``TAIL_BEYOND`` samples beyond it.  It is fixed per workload, so a run of
    k rounds takes the same quantile and has 10k samples beyond it."""
    if per_round <= TAIL_BEYOND:
        raise ValueError(f"{per_round} jobs per round leave no tail with "
                         f"{TAIL_BEYOND} samples beyond it")
    return (per_round - TAIL_BEYOND) / per_round


def quantile(samples: list[float], fraction: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(round(fraction * len(ordered), 9)))
    return ordered[rank - 1]


def judge(job: dict, reference: dict | None) -> str | None:
    """Why ``job`` failed against its reference, or None if it matched."""
    if reference is None:
        return "no recorded reference"
    if job["exit"] is None:
        return f"raised {job['error']}"
    if job["exit"] != reference["exit"]:
        return f"exit code {job['exit']}, expected {reference['exit']}"
    if job["verdicts"] != reference["verdicts"]:
        return f"verdicts {job['verdicts']}, expected {reference['verdicts']}"
    if job["sha256"] != reference["sha256"]:
        return "report/stdout SHA-256 differs from the reference"
    return None


def failures(passes: list[dict], references: dict) -> list[str]:
    out = []
    for p in passes:
        for job in p["jobs"]:
            reason = judge(job, references.get(job["id"]))
            if reason is not None:
                out.append(f"{job['id']}: {reason}")
    return out


def pass_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


@contextlib.contextmanager
def workspace():
    """A scratch directory inside the checkout, removed afterwards."""
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()        # only once no other run is using it


def run_pass(tasks: list[dict], trace: bool, workdir: Path,
             started: float) -> dict:
    """Run one pass in a fresh process and return its result document."""
    passdir = Path(tempfile.mkdtemp(prefix="pass", dir=workdir))
    spec, out = passdir / "spec.json", passdir / "result.json"
    spec.write_text(json.dumps({"tasks": tasks, "trace": trace,
                                "workdir": str(passdir)}))
    timeout = max(1.0, DEADLINE_S - (time.monotonic() - started))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "bench_pass.py"), str(spec), str(out),
             repr(t0)], env=pass_env(), capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass timed out after {timeout:.0f} s; its jobs: "
                         + ", ".join(t["id"] for t in tasks)) from None
    if proc.returncode != 0 or not out.exists():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise PassFailed(f"pass exited with code {proc.returncode} "
                         f"({tail[0]}); its jobs: "
                         + ", ".join(t["id"] for t in tasks))
    result = json.loads(out.read_text())
    shutil.rmtree(passdir)
    return result


def run_timed(workload, seed: int, seconds: float, workdir: Path,
              started: float) -> tuple[list[dict], int]:
    """Whole rounds until ``seconds`` of jobs are timed; (passes, rounds)."""
    passes: list[dict] = []
    measured = last_round = 0.0
    rounds = 0
    while rounds == 0 or (measured < seconds and time.monotonic() - started
                          + last_round < DEADLINE_S):
        begin = time.monotonic()
        for tasks in workload.round(seed, rounds):
            passes.append(run_pass(tasks, False, workdir, started))
            measured += passes[-1]["loop_s"]
        last_round = time.monotonic() - begin
        rounds += 1
    return passes, rounds


def run_traced(workload, seed: int, workdir: Path,
               started: float) -> tuple[list[dict], list[dict]]:
    """Round 0, each pass run plain and then traced; (plain, traced)."""
    plain, traced = [], []
    for tasks in workload.round(seed, 0):
        plain.append(run_pass(tasks, False, workdir, started))
        traced.append(run_pass(tasks, True, workdir, started))
    return plain, traced


def job_walls(passes: list[dict]) -> list[float]:
    return [job["wall_s"] for p in passes for job in p["jobs"]]


def end_to_end(passes: list[dict], per_round: int) -> dict[str, float]:
    walls = job_walls(passes)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": quantile(walls, tail_fraction(per_round)),
        "jobs_per_s": len(walls) / sum(p["loop_s"] for p in passes),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }


def commit() -> str:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                               "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode == 0 and len(lines) == 2 \
            and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return "unknown"


def environment(args, numpy_version: str) -> dict:
    return {"commit": commit(), "python": platform.python_version(),
            "numpy": numpy_version, "nproc": len(os.sched_getaffinity(0)),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            **dict.fromkeys(THREAD_VARS, "1")}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "probewise" / "__init__.py").is_file():
        print(f"error: no probewise sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    references = json.loads(REFERENCES.read_text())[workload.name]["jobs"]
    started = time.monotonic()
    try:
        with workspace() as workdir:
            if args.trace:
                plain, traced = run_traced(workload, args.seed, workdir,
                                           started)
                passes = plain + traced
                metrics = tracing.layer_metrics(
                    [p["spans"] for p in traced], sum(job_walls(traced)),
                    sum(job_walls(plain)))
                units = dict(tracing.PER_LAYER)
                rounds = 1
            else:
                passes, rounds = run_timed(workload, args.seed, args.seconds,
                                           workdir, started)
                metrics = end_to_end(passes, workload.jobs_per_round())
                units = dict(END_TO_END)
    except PassFailed as exc:
        print(f"error: {workload.name}: {exc}", file=sys.stderr)
        return 1

    failed = failures(passes, references)
    attempted = len(job_walls(passes))
    print(json.dumps({"environment": environment(args, passes[0]["numpy"])},
                     sort_keys=True))
    print(f"{workload.name}: {attempted} jobs, {rounds} round(s) of "
          f"{workload.jobs_per_round()}, {len(passes)} passes")
    if not args.trace:
        fraction = tail_fraction(workload.jobs_per_round())
        beyond = sum(w > metrics["job_tail_s"] for w in job_walls(passes))
        print(f"  job_tail_s is the p{100 * fraction:.2f} job time of "
              f"{attempted} samples, {beyond} beyond it")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")
    print(f"  {'failed_frac':34s} {len(failed) / attempted:.6g} ratio "
          f"({len(failed)}/{attempted})")
    for line in failed:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed, "attempted": attempted, "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
