"""The benchmark's workloads: job mixes, their inputs, and why each exists.

A *job* is one ``probewise.cli.main`` call with fixed inputs, run with the
default options (``--jobs 1``).  A *round* is one pass over a workload's job
mix.  The harness splits every round into a few *passes*; each pass is a
fresh process that generates its input files and then runs its jobs one
after another in a closed loop, one job in flight.  The expression intern
table and numpy's allocator therefore start cold in every pass, as they do
for a user's CLI call, and are shared by the jobs of one pass, as in a
library user's batch.

What the workload seed draws: the concrete witness values written into every
stimuli file and, on ``long_trace``, which cycle count each job gets.
Neither changes a verdict or a report byte, so every job is checked against
one recorded reference (``references.json``) whatever the seed.

What it does not draw:

* The order of jobs and their split into passes.  Within one process the
  operand order of commutative terms in rendered expressions follows the
  order in which the expression intern table first met their operands, so a
  job's report bytes depend on the jobs run before it in the same process
  (same verdicts, different bytes).  A fixed sequence keeps every job's
  reference well defined.
* Circuit structure on ``random_rr1sw``.  Job times of seeded random
  circuits spread over two orders of magnitude (0.06 s to 8.8 s for circuit
  seeds 1-40 on a 2-core x86 machine, Python 3.11, numpy 2.4), so a run over
  a few dozen freshly drawn circuits would move ``jobs_per_s`` by about a
  third from one workload seed to the next: far more than any bound a
  regression check could use.  The circuit pool is therefore fixed.

random_rr1sw
    Jobs: ``gen_random_circuit(s, n_gates=100, n_inputs=12, n_registers=10,
    cycles=10)`` for circuit seeds 1-32, each verified with
    ``verify --model rr1sw --report``.
    Why: a few large enumerations of up to 20 bits dominate, job times are
    heavy-tailed and some sets exceed the enumeration budget and come back
    Inconclusive.  It is the workload for the counting kernel and the memory
    budget.
    Should stress: ``verify.enumeration`` (about 93 % of traced job time),
    ``verify.too_large`` and ``peak_rss_mb`` (2^20-row int64 columns).
    Should not stress: simulation, report writing.

long_trace
    Jobs: ``gen_dom_and(d, cycles=N)`` and ``gen_isw_and(d, cycles=N)`` for
    d = 1-3, N from 60-100 in steps of 10 (rotated by the seed and the
    round, so five rounds run every job at every N), each verified under
    ``--model 0,0``, ``0,1``, ``1,0`` and ``1,1`` with ``--granularity bit``
    and under ``--model rr1sw``: 30 jobs per round.
    Why: after the first cycles every verdict comes from the cache, so the
    work is simulation, wire selection, expression-set building, cache-key
    rendering and report writing, and enumeration is bypassed.
    Should stress: ``sim.step_cycle``, ``manager.exprset``,
    ``manager.select``, ``manager.run_self`` and ``manager.report_jsonl``
    (together about 90 % of traced job time); ``manager.cache_hit_ratio``
    is near 1.
    Should not stress: ``verify.enumeration`` (about 3 %); enumeration
    changes should not move this workload.

probe_tuples
    Jobs: ``ni``/``sni`` x ``dom_and``/``isw_and`` x ``--glitches``
    false/true at ``--order 2`` (the eight order-2 composability checks) and
    ``verify --model 0,0 --order 2 --ho-mode spatial`` on the d=2 and d=3
    DOM/ISW fixtures, each 16 times per round; plus, once per round, the
    order-3 checks ``ni --gadget dom_and --order 3`` and ``verify --model 0,0
    --order 3 --ho-mode spatial`` on ``dom_and_d3``: 194 jobs per round.
    The other order-3 checks (``ni dom_and`` with glitches, ``ni isw_and``,
    ``sni dom_and``: 5-10 s each, ``sni isw_and``: 26 s) are left out so a
    round fits the run length.  The cheap jobs repeat so that the job-time
    tail has ten samples beyond it and the median rests on many samples:
    on a shared 2-core VM, speed drifts by tens of percent over seconds.
    Why: the enumeration layer is used differently from random_rr1sw: tens
    of thousands of tiny, overhead-bound calls (shares free in NI/SNI)
    instead of a few sort-bound calls of 2^20 rows.  A kernel that speeds up
    large sorts but adds a fixed cost per call shows up here as a
    regression.  It is also the workload for one probe-tuple engine.
    Should stress: ``verify.enumeration_calls`` (tens of thousands),
    ``verify.check_calls``, ``manager.higher_order_self``,
    ``verify.ni_sni_self`` and ``verify.collect_probes``.
    Should not stress: ``sim.step_cycle``, ``manager.run``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Job:
    """One CLI call.  ``circuit`` names the generated input files of a
    ``verify`` job; jobs without one (``ni``/``sni``) take no files."""
    id: str                          # key into references.json
    args: tuple[str, ...]            # CLI arguments besides input/report files
    circuit: tuple | None = None     # ("random", s) or (gadget, d, cycles)


@dataclass(frozen=True)
class Workload:
    name: str
    passes: Callable[[int, int], list[list[Job]]]   # (seed, round) -> passes
    cover: int        # consecutive rounds that together run every job

    def round(self, seed: int, index: int) -> list[list[dict]]:
        """Round ``index`` for workload seed ``seed``: a list of passes, each
        a list of tasks (a job plus the seed of its witness values)."""
        rng = random.Random(f"{self.name}:{seed}:{index}")
        return [[{"id": j.id, "args": list(j.args), "circuit": j.circuit,
                  "witness_seed": rng.getrandbits(32)} for j in jobs]
                for jobs in self.passes(seed, index)]

    def jobs_per_round(self) -> int:
        return sum(map(len, self.passes(0, 0)))


def _verify_job(circuit: tuple, *args: str) -> Job:
    return Job(f"{input_name(circuit)}:{' '.join(args)}", args, circuit)


def _cli_job(*args: str) -> Job:
    return Job(" ".join(args), args)


# -- random_rr1sw -----------------------------------------------------------

RANDOM_CIRCUIT_SEEDS = range(1, 33)


def _random_passes(seed: int, index: int) -> list[list[Job]]:
    jobs = [_verify_job(("random", s), "--model", "rr1sw")
            for s in RANDOM_CIRCUIT_SEEDS]
    return [jobs[i:i + 8] for i in range(0, len(jobs), 8)]


# -- long_trace -------------------------------------------------------------

LONG_TRACE_CYCLES = (60, 70, 80, 90, 100)
LONG_TRACE_MODELS = (("--model", "0,0", "--granularity", "bit"),
                     ("--model", "0,1", "--granularity", "bit"),
                     ("--model", "1,0", "--granularity", "bit"),
                     ("--model", "1,1", "--granularity", "bit"),
                     ("--model", "rr1sw"))


def _long_trace_passes(seed: int, index: int) -> list[list[Job]]:
    # Job k runs LONG_TRACE_CYCLES[(k + seed + index) % 5] cycles, so any five
    # consecutive rounds run every job at every cycle count once.
    kinds = [(gadget, d, model) for gadget in ("dom_and", "isw_and")
             for d in (1, 2, 3) for model in LONG_TRACE_MODELS]
    n = len(LONG_TRACE_CYCLES)
    return [[_verify_job((gadget, d, LONG_TRACE_CYCLES[(k + seed + index) % n]),
                         *model)
             for k, (gadget, d, model) in enumerate(kinds)]]


# -- probe_tuples -----------------------------------------------------------

def _probe_passes(seed: int, index: int) -> list[list[Job]]:
    cheap = [_cli_job(cmd, "--gadget", gadget, "--order", "2",
                      "--glitches", glitches)
             for cmd in ("ni", "sni") for gadget in ("dom_and", "isw_and")
             for glitches in ("false", "true")]
    cheap += [_verify_job((gadget, d, 2), "--model", "0,0", "--order", "2",
                          "--ho-mode", "spatial")
              for gadget in ("dom_and", "isw_and") for d in (2, 3)]
    ni3 = _cli_job("ni", "--gadget", "dom_and", "--order", "3")
    spatial3 = _verify_job(("dom_and", 3, 2), "--model", "0,0", "--order", "3",
                           "--ho-mode", "spatial")
    # cheap jobs on both sides of each order-3 job, so that they sample the
    # machine over the whole round rather than one stretch of it
    return [cheap * 3 + [ni3] + cheap * 3, cheap * 3 + [spatial3] + cheap * 3,
            cheap * 4]


WORKLOADS = {w.name: w for w in (
    Workload("random_rr1sw", _random_passes, 1),
    Workload("long_trace", _long_trace_passes, len(LONG_TRACE_CYCLES)),
    Workload("probe_tuples", _probe_passes, 1),
)}


# -- inputs (run inside a pass process, which has probewise importable) -----

def input_name(circuit: tuple) -> str:
    if circuit[0] == "random":
        return f"rng{circuit[1]}"
    gadget, d, cycles = circuit
    return f"{gadget}_d{d}_c{cycles}"


def write_inputs(circuit: tuple, witness_seed: int, directory: Path) -> \
        tuple[str, str, str]:
    """Generate one job's netlist, labels and stimuli files with the
    witness values drawn from ``witness_seed``; return their paths."""
    from probewise import gadgets, sim
    from probewise.netlist import serialize_netlist

    if circuit[0] == "random":
        fixture = gadgets.gen_random_circuit(
            circuit[1], n_gates=100, n_inputs=12, n_registers=10, cycles=10)
        net, labels, stimuli = fixture.circuit, fixture.labels, fixture.stimuli
    else:
        gadget, d, cycles = circuit
        gen = gadgets.gen_dom_and if gadget == "dom_and" else gadgets.gen_isw_and
        net, labels, stimuli, _ = gen(d, cycles=cycles)
    stimuli = sim.Stimuli(reseed_witness(labels, stimuli.witness, witness_seed),
                          stimuli.frames)
    base = directory / f"{input_name(circuit)}.{witness_seed}"
    paths = (f"{base}.netlist.json", f"{base}.labels.json", f"{base}.stim.jsonl")
    Path(paths[0]).write_text(serialize_netlist(net))
    Path(paths[1]).write_text(json.dumps(labels.to_json(), indent=1))
    Path(paths[2]).write_text(sim.dump_stimuli(stimuli, labels.widths()))
    return paths


def reseed_witness(labels, witness: dict[str, int], seed: int) -> dict[str, int]:
    """Fresh concrete values for every witness symbol; a secret with shares
    stays the XOR of its shares so the witness remains consistent."""
    from probewise import expr as ex

    rng = random.Random(seed)
    out = {name: rng.getrandbits(labels.width(name)) for name in sorted(witness)}
    for name in out:
        shares = labels.shares_of(name) if labels.kind(name) == ex.SECRET else []
        if shares:
            value = 0
            for share in shares:
                value ^= out[share]
            out[name] = value
    return out


def argv_for(task: dict, files: tuple[str, str, str] | None,
             report: str) -> list[str]:
    if files is None:
        return list(task["args"])
    netlist, labels, stimuli = files
    return ["verify", "--netlist", netlist, "--labels", labels,
            "--stimuli", stimuli, *task["args"], "--report", report]
