"""Tests of the benchmark harness itself (not of probewise).

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import bench_pass  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def span(ident, parent, name, start, end, job="j", note=None):
    return [job, ident, parent, name, start, end, note]


def test_self_time_subtracts_children_on_a_synthetic_tree():
    spans = [
        span(0, None, "cli.main", 0.0, 10.0),
        span(1, 0, "manager.run", 1.0, 9.0),
        span(2, 1, "sim.step_cycle", 1.0, 3.0),
        span(3, 1, "verify.check", 4.0, 8.0),
        span(4, 3, "verify.enumeration", 4.5, 7.5),
        span(5, 0, "manager.report_jsonl", 9.0, 9.5),
    ]
    assert tracing.self_times(spans) == pytest.approx(
        [1.5, 2.0, 2.0, 1.0, 3.0, 0.5])
    # self times partition the root span
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [span(0, None, "cli.main", 0.0, 10.0),
             span(1, 0, "manager.run", 2.0, 6.0),
             span(2, 0, "manager.run", 4.0, 8.0)]
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_layer_metrics_from_spans():
    summary = {"verified_expr": 3, "cache_hits": 9, "trivial_skipped": 2}
    spans = [
        span(0, None, "gadgets.generate", 0.0, 0.5, job=None),
        span(1, None, "cli.main", 1.0, 5.0),
        span(2, 1, "manager.run", 1.5, 4.5, note=summary),
        span(3, 2, "verify.check", 2.0, 4.0),
        span(4, 3, "verify.substitution", 2.0, 2.5, note="secure"),
        span(5, 3, "verify.substitution", 2.5, 3.0, note="inconclusive"),
        span(6, 3, "verify.enumeration", 3.0, 3.25, note="TooLarge"),
        span(7, 3, "verify.enumeration", 3.25, 4.0),
    ]
    m = tracing.layer_metrics([spans], job_wall_s=4.5,
                              untraced_job_wall_s=4.0)
    assert set(m) == {name for name, _ in tracing.PER_LAYER}
    assert m["gadgets.generate_s"] == pytest.approx(0.5)
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert m["manager.run_self_s"] == pytest.approx(1.0)
    assert m["verify.enumeration_s"] == pytest.approx(1.0)
    assert m["verify.enumeration_max_s"] == pytest.approx(0.75)
    assert m["verify.enumeration_calls"] == 2
    assert m["verify.too_large"] == 1
    assert m["verify.substitution_secure_ratio"] == pytest.approx(0.5)
    assert m["manager.cache_hit_ratio"] == pytest.approx(9 / 12)
    assert m["manager.trivial_skipped"] == 2
    # the set-up span is no job's time
    assert m["trace.unattributed_s"] == pytest.approx(0.5)
    assert m["trace.overhead_ratio"] == pytest.approx(4.5 / 4.0)
    assert m["trace.spans"] == 8


def test_tracer_nests_spans_and_notes_exceptions():
    tracer = tracing.Tracer(clock=iter(range(100)).__next__)

    def inner(fail):
        if fail:
            raise KeyError("x")
        return "ok"

    inner_t = tracer.wrap("verify.enumeration", inner)
    outer_t = tracer.wrap("verify.check", lambda: [inner_t(False),
                                                   _swallow(inner_t)])
    tracer.job = "job0"
    outer_t()
    outer, ok, failed = tracer.spans
    assert outer[tracing.PARENT] is None
    assert ok[tracing.PARENT] == failed[tracing.PARENT] == outer[tracing.ID]
    assert failed[tracing.NOTE] == "KeyError"
    assert all(s[tracing.JOB] == "job0" for s in tracer.spans)
    assert outer[tracing.START] < ok[tracing.START] < failed[tracing.END] \
        < outer[tracing.END]


def _swallow(fn):
    try:
        fn(True)
    except KeyError:
        return None


def test_tail_keeps_at_least_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    fraction = run.tail_fraction(100)
    tail = run.quantile(samples, fraction)
    assert fraction == pytest.approx(0.9)
    assert tail == 90.0
    assert sum(s > tail for s in samples) == 10
    # two rounds of the same mix: same quantile, twice the samples beyond
    doubled = samples + samples
    assert run.quantile(doubled, fraction) == 90.0
    assert sum(s > 90.0 for s in doubled) == 20
    # a 32-job round puts the tail at the 22nd of 32
    assert run.quantile(samples[:32], run.tail_fraction(32)) == 22.0
    with pytest.raises(ValueError):
        run.tail_fraction(10)


def _job(sha="a" * 64, exit_code=0, verdicts=None, error=None):
    return {"id": "rng1:--model rr1sw", "exit": exit_code, "sha256": sha,
            "verdicts": verdicts or {"secure": 3}, "wall_s": 0.1,
            "error": error}


def test_reference_mismatch_is_a_failure_not_a_crash():
    reference = {"rng1:--model rr1sw": {"exit": 0, "sha256": "a" * 64,
                                        "verdicts": {"secure": 3}}}
    passes = [{"jobs": [_job(), _job(sha="b" * 64),
                        _job(exit_code=1), _job(verdicts={"leaks": 3}),
                        _job(exit_code=None, error="KeyError: 'x'")]}]
    failed = run.failures(passes, reference)
    assert len(failed) == 4
    assert all(line.startswith("rng1:--model rr1sw: ") for line in failed)
    assert "SHA-256" in failed[0]
    assert run.failures(passes, {})[0].endswith("no recorded reference")


def test_a_job_that_raises_is_recorded_not_propagated(tmp_path):
    class Cli:
        @staticmethod
        def main(argv):
            print("partial output")
            raise RuntimeError("boom")

    task = {"id": "ni --gadget dom_and", "args": ["ni"], "circuit": None}
    job = bench_pass.run_job(Cli, task, None, tmp_path / "job.report")
    assert job["exit"] is None and job["error"] == "RuntimeError: boom"
    assert run.judge(job, {"exit": 0, "sha256": job["sha256"],
                           "verdicts": {}}) == "raised RuntimeError: boom"


def test_verdict_counts_from_reports_and_stdout():
    report = b'{"verdict": "secure"}\n{"verdict": "leaks"}\n' \
             b'{"verdict": "secure"}\n{"cycles": 3}\n'
    assert bench_pass.verdict_counts(report, "") == {"leaks": 1, "secure": 2}
    line = "dom_and order 2, NI at d=2 with glitches: leaks\n  probes: x\n"
    assert bench_pass.verdict_counts(None, line) == {"leaks": 1}


def test_rounds_fix_the_job_sequence_and_long_trace_covers_every_job():
    def ids(workload, seed, index):
        return [t["id"] for p in workload.round(seed, index) for t in p]

    for workload in workloads.WORKLOADS.values():
        assert workload.jobs_per_round() > run.TAIL_BEYOND
    for name in ("random_rr1sw", "probe_tuples"):
        workload = workloads.WORKLOADS[name]
        assert ids(workload, 3, 0) == ids(workload, 4, 1)
    long_trace = workloads.WORKLOADS["long_trace"]
    seen = {i for index in range(long_trace.cover)
            for i in ids(long_trace, 11, index)}
    assert len(seen) == 2 * 3 * 5 * len(workloads.LONG_TRACE_CYCLES)


def test_benchmark_json_names_what_the_harness_reports():
    doc = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        list(tracing.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    references = json.loads(run.REFERENCES.read_text())
    for workload in workloads.WORKLOADS.values():
        ids = {t["id"] for i in range(workload.cover)
               for p in workload.round(0, i) for t in p}
        assert ids == set(references[workload.name]["jobs"])
