"""Span recorder for the traced run, and the per-layer metrics built from it.

The program is traced from outside: every public function in ``TARGETS`` is
replaced, at the module attribute through which the program looks it up, by
a wrapper that records one span per call.  A span is ``[job, id, parent,
name, start, end, note]``: spans of one job share ``job`` (None during the
pass's set-up), ``parent`` is the id of the enclosing span, and ``note`` holds
what a counter needs from the call (a verdict status, a report summary, the
name of the exception it raised).  Spans stay in memory and are written out
when the pass ends.

``expr`` has no span: its functions run 10^5+ times per job, so a wrapper
would distort them; their time shows in their callers' self time.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable, Sequence

JOB, ID, PARENT, NAME, START, END, NOTE = range(7)

# (module, attribute, span name).  A function imported into another module
# under its own name is wrapped there too, because that binding is the one
# the caller looks up.
TARGETS = (
    ("probewise.cli", "main", "cli.main"),
    ("probewise.cli", "parse_netlist", "netlist.parse"),
    ("probewise.manager", "validate_and_schedule", "netlist.schedule"),
    ("probewise.netlist", "validate_and_schedule", "netlist.schedule"),
    ("probewise.manager", "structural_index", "netlist.index"),
    ("probewise.sim", "parse_stimuli", "sim.parse_stimuli"),
    ("probewise.sim", "step_cycle", "sim.step_cycle"),
    ("probewise.manager", "run", "manager.run"),
    ("probewise.manager", "wires_to_verify", "manager.select"),
    ("probewise.manager", "expr_sets_for", "manager.exprset"),
    ("probewise.manager", "LeakReport.to_jsonl", "manager.report_jsonl"),
    ("probewise.manager", "verify_higher_order", "manager.higher_order"),
    ("probewise.verify", "check", "verify.check"),
    ("probewise.verify", "check_substitution", "verify.substitution"),
    ("probewise.verify", "check_enumeration", "verify.enumeration"),
    ("probewise.verify", "collect_probes", "verify.collect_probes"),
    ("probewise.verify", "check_ni", "verify.ni_sni"),
    ("probewise.verify", "check_sni", "verify.ni_sni"),
    ("probewise.gadgets", "gen_dom_and", "gadgets.generate"),
    ("probewise.gadgets", "gen_isw_and", "gadgets.generate"),
    ("probewise.gadgets", "gen_random_circuit", "gadgets.generate"),
)

_NOTES: dict[str, Callable] = {
    "manager.run": lambda report: report.summary.to_json(),
    "manager.higher_order": lambda result: result.tuples_checked,
    "verify.substitution": lambda verdict: verdict.status,
}


class Tracer:
    """Records nested spans of one single-threaded process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.job: str | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        note = _NOTES.get(name)
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.job, len(self.spans),
                    self._stack[-1] if self._stack else None, name, 0.0, 0.0,
                    None]
            self.spans.append(span)
            self._stack.append(span[ID])
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[NOTE] = type(exc).__name__
                raise
            else:
                if note is not None:
                    span[NOTE] = note(result)
                return result
            finally:
                span[END] = clock()
                self._stack.pop()

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every target; call after importing probewise, before using it."""
    for module_name, attr, name in TARGETS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, leaf, tracer.wrap(name, getattr(owner, leaf)))


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for s in spans:
        covered = 0.0
        reach = s[START]
        for start, end in sorted(children.get(s[ID], ())):
            start, end = max(start, reach), min(end, s[END])
            if end > start:
                covered += end - start
                reach = end
        out.append(s[END] - s[START] - covered)
    return out


# (metric, unit); every traced run reports all of them.
PER_LAYER = (
    ("cli.self_s", "s"),
    ("gadgets.generate_s", "s"),
    ("netlist.parse_s", "s"),
    ("netlist.schedule_s", "s"),
    ("netlist.index_s", "s"),
    ("sim.parse_stimuli_s", "s"),
    ("sim.step_cycle_s", "s"),
    ("sim.step_cycle_calls", "count"),
    ("manager.select_s", "s"),
    ("manager.exprset_s", "s"),
    ("manager.run_self_s", "s"),
    ("manager.report_jsonl_s", "s"),
    ("manager.requests", "count"),
    ("manager.cache_hits", "count"),
    ("manager.cache_hit_ratio", "ratio"),
    ("manager.trivial_skipped", "count"),
    ("manager.higher_order_self_s", "s"),
    ("manager.ho_tuples_checked", "count"),
    ("verify.check_calls", "count"),
    ("verify.check_self_s", "s"),
    ("verify.substitution_s", "s"),
    ("verify.substitution_calls", "count"),
    ("verify.substitution_secure_ratio", "ratio"),
    ("verify.enumeration_s", "s"),
    ("verify.enumeration_calls", "count"),
    ("verify.enumeration_max_s", "s"),
    ("verify.too_large", "count"),
    ("verify.collect_probes_s", "s"),
    ("verify.ni_sni_self_s", "s"),
    ("trace.job_wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
)

# span name -> metric holding its summed self time
_SELF_METRIC = {
    "cli.main": "cli.self_s",
    "gadgets.generate": "gadgets.generate_s",
    "netlist.parse": "netlist.parse_s",
    "netlist.schedule": "netlist.schedule_s",
    "netlist.index": "netlist.index_s",
    "sim.parse_stimuli": "sim.parse_stimuli_s",
    "sim.step_cycle": "sim.step_cycle_s",
    "manager.select": "manager.select_s",
    "manager.exprset": "manager.exprset_s",
    "manager.run": "manager.run_self_s",
    "manager.report_jsonl": "manager.report_jsonl_s",
    "manager.higher_order": "manager.higher_order_self_s",
    "verify.check": "verify.check_self_s",
    "verify.substitution": "verify.substitution_s",
    "verify.enumeration": "verify.enumeration_s",
    "verify.collect_probes": "verify.collect_probes_s",
    "verify.ni_sni": "verify.ni_sni_self_s",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(passes: Iterable[Sequence[Sequence]], job_wall_s: float,
                  untraced_job_wall_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of every traced pass.

    ``job_wall_s`` is the traced jobs' wall time as the harness timed it, and
    ``untraced_job_wall_s`` the same jobs' wall time without tracing.
    """
    values = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    calls: Counter = Counter()
    notes: dict[str, list] = defaultdict(list)
    attributed = 0.0
    for spans in passes:
        for span, own in zip(spans, self_times(spans)):
            name = span[NAME]
            values[_SELF_METRIC[name]] += own
            calls[name] += 1
            notes[name].append(span[NOTE])
            if span[JOB] is not None:
                attributed += own
            if name == "verify.enumeration":
                values["verify.enumeration_max_s"] = max(
                    values["verify.enumeration_max_s"], span[END] - span[START])
    summaries = [n for n in notes["manager.run"] if isinstance(n, dict)]
    requests = sum(s["verified_expr"] for s in summaries)
    hits = sum(s["cache_hits"] for s in summaries)
    values.update({
        "sim.step_cycle_calls": calls["sim.step_cycle"],
        "manager.requests": requests,
        "manager.cache_hits": hits,
        "manager.cache_hit_ratio": _ratio(hits, hits + requests),
        "manager.trivial_skipped": sum(s["trivial_skipped"] for s in summaries),
        "manager.ho_tuples_checked": sum(
            n for n in notes["manager.higher_order"] if isinstance(n, int)),
        "verify.check_calls": calls["verify.check"],
        "verify.substitution_calls": calls["verify.substitution"],
        "verify.substitution_secure_ratio": _ratio(
            notes["verify.substitution"].count("secure"),
            calls["verify.substitution"]),
        "verify.enumeration_calls": calls["verify.enumeration"],
        "verify.too_large": notes["verify.enumeration"].count("TooLarge"),
        "trace.job_wall_s": job_wall_s,
        "trace.unattributed_s": job_wall_s - attributed,
        "trace.overhead_ratio": _ratio(job_wall_s, untraced_job_wall_s),
        "trace.spans": sum(calls.values()),
    })
    return values
