"""Verification manager: drives interleaved simulate-then-verify runs.

Per cycle it selects the wires worth verifying for the configured leakage
model, builds the model's expression set for each (value / transition /
glitch / both, at bit or support-wise granularity), skips trivial sets,
deduplicates through a verdict cache and dispatches the rest to the checker.
Split wires are recombined into their parent signal for support-wise runs.
A set is keyed by its members alone, since an ARRAY node carries the memory
contents it read; order-1 runs and d-uplet checks build and decide keys
alike.

A report holds each cycle's entries as one block, a tuple sorted by wire.
A cycle whose simulated state is settled, and whose last cycle's state was
settled too, has the same valuations, current and previous, as that cycle:
with the cache on, :func:`run` gives it that cycle's block, the same object,
instead of selecting, building and deciding its sets again.

Wire selection mirrors the model:

* value / transition / full transition+glitch: every wire, every cycle;
* glitches only: register inputs, primary outputs, split parents, inputs of
  gates with a stable output bit, the non-selected data inputs of muxes with
  a stable constant selector, partially-consumed wires and memory-write
  feeds — anything whose LeakSet would otherwise shrink or vanish on its way
  to an always-verified wire;
* transition+glitch with the over-approximated expression set (both cycles'
  flattened LeakSets): the glitch rule widened to stability at t or t-1.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field, replace
from typing import Iterator, Mapping, NamedTuple

from . import expr as ex
from . import sim as sm
from . import verify as vf
from .expr import Expr, SymbolTable, bits, render
from .netlist import Circuit, SplitGroup, StructuralIndex, \
    structural_index, validate_and_schedule
from .sim import SimOptions, SimState, Stimuli, Valuation
from .verify import TupleResult, Verdict, make_expr_set

BIT = "bit"
SUPPORT_WISE = "sw"


@dataclass(frozen=True)
class LeakageModel:
    glitches: bool = False
    transitions: bool = False
    use_stability: bool = True
    granularity: str = SUPPORT_WISE
    order: int = 1
    overapprox: bool = False

    def __post_init__(self):
        if self.granularity not in (BIT, SUPPORT_WISE):
            raise ValueError(f"granularity must be bit or sw, got "
                             f"{self.granularity!r}")
        if self.granularity == SUPPORT_WISE and not self.use_stability:
            raise ValueError("support-wise verification requires stability")
        if self.overapprox and not (self.glitches and self.transitions):
            raise ValueError("over-approximation only applies to the "
                             "transition+glitch model")
        if self.order < 1:
            raise ValueError("order must be >= 1")

    @property
    def facet(self) -> str:
        if self.glitches and self.transitions:
            return "transition+glitch"
        if self.glitches:
            return "glitch"
        if self.transitions:
            return "transition"
        return "value"

    @staticmethod
    def rr1sw() -> "LeakageModel":
        return LeakageModel(glitches=True, transitions=True, use_stability=True,
                            granularity=SUPPORT_WISE, order=1, overapprox=True)


class ReportEntry(NamedTuple):
    cycle: int
    wire: str
    src: tuple[str, int] | None
    facet: str
    verdict: Verdict
    exprs: tuple[str, ...]

    def to_json(self) -> dict:
        doc: dict = {"cycle": self.cycle, "wire": self.wire}
        if self.src is not None:
            doc["src"] = {"file": self.src[0], "line": self.src[1]}
        doc["facet"] = self.facet
        doc["verdict"] = self.verdict.status
        doc["exprs"] = list(self.exprs)
        if self.verdict.witness is not None:
            doc["witness"] = self.verdict.witness.to_json()
        if self.verdict.reason:
            doc["reason"] = self.verdict.reason
        return doc


@dataclass
class Summary:
    cycles: int = 0
    leaking_cycles: int = 0
    expr_to_verify: int = 0
    verified_expr: int = 0
    cache_hits: int = 0
    trivial_skipped: int = 0

    def to_json(self) -> dict:
        return {"cycles": self.cycles, "leaking_cycles": self.leaking_cycles,
                "expr_to_verify": self.expr_to_verify,
                "verified_expr": self.verified_expr,
                "cache_hits": self.cache_hits,
                "trivial_skipped": self.trivial_skipped}


# one cycle's entries without their cycle number, (wire, src, facet,
# verdict, exprs) each, stably sorted by wire
Block = tuple[tuple[str, tuple[str, int] | None, str, Verdict,
                    tuple[str, ...]], ...]


@dataclass
class LeakReport:
    """A run's entries as one block per cycle, in cycle order; a replayed
    cycle holds the same block object as the cycle it replays."""
    cycles: list[tuple[int, Block]] = field(default_factory=list)
    warnings: list[tuple[int, str, str]] = field(default_factory=list)
    summary: Summary = field(default_factory=Summary)

    @property
    def entries(self) -> list[ReportEntry]:
        """Every entry in (cycle, wire) order, built on each access."""
        return [ReportEntry(t, *e) for t, block in self.cycles for e in block]

    def flagged(self) -> list[ReportEntry]:
        # a block's leak positions, found once per block
        positions: dict[int, list[int]] = {}
        out = []
        for t, block in self.cycles:
            leaks = positions.get(id(block))
            if leaks is None:
                leaks = positions[id(block)] = [
                    i for i, e in enumerate(block) if not e[3].is_secure]
            out += [ReportEntry(t, *block[i]) for i in leaks]
        return out

    def to_jsonl(self) -> str:
        encode = json.JSONEncoder(sort_keys=True).encode
        # sort_keys puts "cycle" first, so a line is that field followed by
        # a tail that entries of one unit over settled cycles share. Each
        # block's tails, newline included, are gathered once after an empty
        # string: joining them with a cycle's prefix gives its lines
        tails: dict[tuple, str] = {}
        blocks: dict[int, list[str]] = {}
        lines = []
        for t, block in self.cycles:
            joined = blocks.get(id(block))
            if joined is None:
                joined = blocks[id(block)] = [""]
                for e in block:
                    key = (e[0], e[1], e[2], id(e[3]), e[4])
                    tail = tails.get(key)
                    if tail is None:
                        doc = ReportEntry(t, *e).to_json()
                        del doc["cycle"]
                        tail = tails[key] = encode(doc)[1:] + "\n"
                    joined.append(tail)
            lines.append(f'{{"cycle": {t}, '.join(joined))
        lines += [encode({"cycle": c, "wire": w, "warning": msg}) + "\n"
                  for c, w, msg in self.warnings]
        lines.append(encode(self.summary.to_json()) + "\n")
        return "".join(lines)


# ---------------------------------------------------------------------------
# Expression sets per model (Table "expressions to verify")
# ---------------------------------------------------------------------------

def _flatten(lset) -> list[Expr]:
    return [m for s in lset for m in s]


def _previous(state: SimState) -> Mapping[int, Valuation]:
    # At cycle 0 the wires' own cycle-0 valuations double as "previous":
    # transitions are only meaningful from cycle 1 onward.
    return state.previous or state.current


def expr_sets_for(val: Valuation, prev: Valuation, model: LeakageModel) -> \
        list[tuple[int | None, tuple[Expr, ...]]]:
    """Expression sets for one wire at the current cycle, per granularity:
    each rank (None for the whole wire) with the set's canonical members."""
    out: list[tuple[int | None, tuple[Expr, ...]]] = []
    if model.granularity == SUPPORT_WISE:
        out.append((None, _one_set(val, prev, model, None)))
    else:
        for i in range(val.symb.width):
            out.append((i, _one_set(val, prev, model, i)))
    return out


def _one_set(val: Valuation, prev: Valuation, model: LeakageModel,
             rank: int | None) -> tuple[Expr, ...]:
    """The facet's set of one wire, or of its bit ``rank``: only the members
    the facet reads are built."""
    def symb(v: Valuation) -> list[Expr]:
        return [v.symb if rank is None else bits(v.symb)[rank]]

    def lset(v: Valuation) -> list[Expr]:
        return _flatten(v.lset) if rank is None else list(v.lset[rank])

    g, t = model.glitches, model.transitions
    if not g and not t:
        members = symb(val)
    elif not g and t:
        members = symb(val) + symb(prev)
    elif g and not t:
        members = lset(val)
    elif model.overapprox:
        members = lset(prev) + lset(val)
    else:
        members = symb(prev) + lset(val)
    return make_expr_set(members)


def _split(circuit: Circuit, parent_name: str) -> SplitGroup:
    return next(s for s in circuit.splits if s.parent_name == parent_name)


def recombine_split_wires(circuit: Circuit, vals: Mapping[int, Valuation],
                          parent_name: str) -> Valuation:
    """Valuation of a split parent rebuilt from its 1-bit member wires."""
    group = _split(circuit, parent_name)
    by_index = {idx: vals[uid] for uid, idx in group.members}
    width = group.parent_width
    conc = 0
    stab = 0
    lset = []
    parts_hi_to_lo = []
    for i in range(width):
        v = by_index[i]
        conc |= (v.conc & 1) << i
        stab |= (v.stab & 1) << i
        lset.append(v.lset[0])
    for i in reversed(range(width)):
        parts_hi_to_lo.append(by_index[i].symb)
    symb = ex.concat(parts_hi_to_lo)
    return Valuation(conc, symb, tuple(lset), stab)


# ---------------------------------------------------------------------------
# Wire selection per model (Table "wires to verify")
# ---------------------------------------------------------------------------

def _stable_gate_inputs(circuit: Circuit,
                        vals: Mapping[int, Valuation]) -> set[int]:
    picked: set[int] = set()
    for g in circuit.gates:
        out_val = vals[g.output]
        if out_val.stab != 0:
            picked.update(g.inputs)
    return picked


def _mux_exposed_inputs(circuit: Circuit, vals: Mapping[int, Valuation],
                        index: StructuralIndex) -> set[int]:
    picked: set[int] = set()
    for gid, (sel, in0, in1) in index.mux_roles.items():
        sel_val = vals[sel]
        if not sel_val.stable(0):
            continue
        if sel_val.symb.is_cst:
            picked.add(in0 if sel_val.symb.value else in1)   # non-selected
        else:
            picked.update((in0, in1))
    return picked


def wires_to_verify(circuit: Circuit, index: StructuralIndex,
                    model: LeakageModel, state: SimState) -> list[object]:
    """Verification units at the current cycle: wire uids, plus split-parent
    names at support-wise granularity."""
    parents = [s.parent_name for s in circuit.splits] \
        if model.granularity == SUPPORT_WISE else []
    g, t = model.glitches, model.transitions
    if (not g) or (t and not model.overapprox):
        units: list[object] = [w.uid for w in circuit.wires]
        return units + parents

    base: set[int] = set()
    base |= index.register_input_wires
    base |= index.primary_output_wires
    base |= index.split_member_wires
    base |= index.partially_used_wires
    base |= index.mem_write_input_wires
    base |= _stable_gate_inputs(circuit, state.current)
    base |= _mux_exposed_inputs(circuit, state.current, index)
    if model.overapprox and state.previous:
        base |= _stable_gate_inputs(circuit, state.previous)
        base |= _mux_exposed_inputs(circuit, state.previous, index)
    return sorted(base) + parents


# ---------------------------------------------------------------------------
# One cycle's keyed sets
# ---------------------------------------------------------------------------

UnitSet = tuple[str, tuple[str, int] | None, tuple[Expr, ...]]


def _unit_sets(circuit: Circuit, model: LeakageModel, state: SimState,
               units: list[object], memo: dict) -> list[UnitSet]:
    """Each unit's expression sets at this state's cycle, with their label,
    source line and members; a set's members are its key.

    ``memo`` belongs to one model and one simulation: it maps each unit of
    the last call to its sets and the valuations they came from, which
    stand while those are the same objects: a wire's current and previous
    valuations, or those of each member wire of a split parent."""
    previous = _previous(state)
    last_call = memo.copy()
    memo.clear()
    out: list[UnitSet] = []
    for unit in units:
        last = last_call.get(unit)
        if isinstance(unit, str):
            uids = [uid for uid, _ in _split(circuit, unit).members]
            vals = [state.current[uid] for uid in uids] \
                + [previous[uid] for uid in uids]
            if last is None or not all(map(operator.is_, last[1:], vals)):
                val = recombine_split_wires(circuit, state.current, unit)
                prev = recombine_split_wires(circuit, previous, unit)
                last = (_labelled_sets(unit, None, val, prev, model), *vals)
        else:
            val, prev = state.current[unit], previous[unit]
            if last is None or last[1] is not val or last[2] is not prev:
                wire = circuit.wire(unit)
                src = (wire.src.file, wire.src.line) if wire.src else None
                last = (_labelled_sets(wire.name, src, val, prev, model),
                        val, prev)
        memo[unit] = last
        out += last[0]
    return out


def _labelled_sets(name: str, src: tuple[str, int] | None, val: Valuation,
                   prev: Valuation, model: LeakageModel) -> list[UnitSet]:
    return [(name if rank is None else f"{name}[{rank}]", src, members)
            for rank, members in expr_sets_for(val, prev, model)]


# ---------------------------------------------------------------------------
# The interleaved run
# ---------------------------------------------------------------------------

@dataclass
class RunOptions:
    """How a run simulates and dispatches; what it models, stability
    included, is the :class:`LeakageModel`."""
    enum_limit: int = vf.DEFAULT_ENUM_LIMIT
    stop_on_first_leak: bool = False
    use_cache: bool = True
    reset_unstable: bool = False            # registers unstable at cycle 0
    check_consistency: bool = False


def _simulate(circuit: Circuit, stimuli: Stimuli, model: LeakageModel,
              options: RunOptions) -> Iterator[SimState]:
    opts = SimOptions(model.use_stability, options.reset_unstable,
                      options.check_consistency)
    return sm.simulate(circuit, validate_and_schedule(circuit), stimuli, opts)


def run(circuit: Circuit, stimuli: Stimuli, labels: SymbolTable,
        model: LeakageModel, options: RunOptions | None = None) -> LeakReport:
    """Simulate every frame and verify the selected wires each cycle; with
    the cache on, a settled cycle after a settled one replays the last
    cycle's block."""
    if model.order != 1:
        raise ValueError(f"run checks order 1, not {model.order}: use "
                         f"verify_higher_order")
    options = options or RunOptions()
    states = _simulate(circuit, stimuli, model, options)
    index = structural_index(circuit)
    report = LeakReport()
    cache: dict[tuple, Verdict] = {}
    rendered: dict[tuple, tuple[str, ...]] = {}
    facet = model.facet
    memo: dict = {}
    baseline_memo: dict = {}
    baseline_seen: set[tuple] = set()
    # after a cycle whose state was settled: its block, its trivial count
    # and whether it leaked
    replay = None
    stopped = False

    for t, state in enumerate(states):
        report.summary.cycles = t + 1
        report.warnings += state.warnings
        if replay is not None and state.settled:
            # this cycle's valuations, current and previous, are the same
            # objects as the last cycle's: so are its units, sets and
            # verdicts, every one of them now in the cache
            block, trivial, flagged = replay
            report.cycles.append((t, block))
            report.summary.cache_hits += len(block)
            report.summary.trivial_skipped += trivial
            report.summary.leaking_cycles += flagged
            continue

        units = wires_to_verify(circuit, index, model, state)
        sets = _unit_sets(circuit, model, state, units, memo)
        requests = [s for s in sets if s[2]]
        report.summary.trivial_skipped += len(sets) - len(requests)

        if model.overapprox:
            report.summary.expr_to_verify += _baseline_count(
                circuit, index, model, state, baseline_memo, baseline_seen)
        entries = []
        cycle_flagged = False
        for label, src, key in requests:
            verdict = cache.get(key)
            if verdict is None:
                verdict = vf.check(key, labels, options.enum_limit)
                report.summary.verified_expr += 1
                if options.use_cache:
                    cache[key] = verdict
            else:
                report.summary.cache_hits += 1
            exprs = rendered.get(key)
            if exprs is None:
                exprs = rendered[key] = tuple(map(render, key))
            entries.append((label, src, facet, verdict, exprs))
            if not verdict.is_secure:
                cycle_flagged = True
                if options.stop_on_first_leak:
                    stopped = True
                    break
        # sorted stably by wire cycle by cycle, the report is in the
        # (cycle, wire) order of one stable sort over all entries
        block = tuple(sorted(entries, key=operator.itemgetter(0)))
        report.cycles.append((t, block))
        if cycle_flagged:
            report.summary.leaking_cycles += 1
        if stopped:
            break
        # the next settled state replays this cycle if this one is settled
        # too; without the cache every cycle is decided again
        replay = (block, len(sets) - len(requests), cycle_flagged) \
            if state.settled and options.use_cache else None

    if not model.overapprox:
        # without the over-approximation both counters mean the same thing
        report.summary.expr_to_verify = report.summary.verified_expr
    report.warnings = list(dict.fromkeys(report.warnings))
    return report


def _baseline_count(circuit: Circuit, index: StructuralIndex,
                    model: LeakageModel, state: SimState, memo: dict,
                    seen: set[tuple]) -> int:
    """Sets the standard (non-over-approximated) run would have dispatched;
    ``memo`` is that run's :func:`_unit_sets` memo."""
    std = replace(model, overapprox=False)
    units = wires_to_verify(circuit, index, std, state)
    count = 0
    for _, _, key in _unit_sets(circuit, std, state, units, memo):
        if key and key not in seen:
            seen.add(key)
            count += 1
    return count


# ---------------------------------------------------------------------------
# Higher-order d-uplets
# ---------------------------------------------------------------------------

SPATIAL = "spatial"
TEMPORAL = "temporal"
MIXED = "mixed"


def verify_higher_order(circuit: Circuit, stimuli: Stimuli, labels: SymbolTable,
                        model: LeakageModel, mode: str = SPATIAL,
                        options: RunOptions | None = None) -> TupleResult:
    """Check every d-uplet of probe positions under the given model.

    spatial: wire d-uplets, each combination checked at every cycle;
    temporal: cycle d-uplets, checked per wire; mixed: (wire, cycle) pairs.
    Of ``options`` it reads the simulation settings and ``enum_limit``.
    A view is the union of its (wire, cycle) sets; each ARRAY node in it
    reads the contents its own cycle read, so a view over cycles that read
    different contents of a memory is decided like any other. KeyError,
    before any tuple is walked, if a set holds an unlabeled symbol. The
    result holds the simulation's warnings as :func:`run`'s report does.
    """
    if mode not in (SPATIAL, TEMPORAL, MIXED):
        raise ValueError(f"unknown mode {mode!r}")
    options = options or RunOptions()
    units: list[object] = [w.uid for w in circuit.wires]
    memo: dict = {}
    # each cycle's (wire, cycle) parts, by wire label
    per_cycle = []
    warnings: list[tuple[int, str, str]] = []
    for state in _simulate(circuit, stimuli, model, options):
        warnings += state.warnings
        per_cycle.append({label: vf.make_part(key, labels) for label, _, key
                          in _unit_sets(circuit, model, state, units, memo)})

    wires = sorted(per_cycle[0]) if per_cycle else []
    cycles = range(len(per_cycle))
    # each mode's positions, and each position's (wire, cycle) part in each
    # view of a combo
    if mode == SPATIAL:
        positions: list = wires
        parts = [[per_cycle[t][w] for t in cycles] for w in wires]
    elif mode == TEMPORAL:
        positions = list(cycles)
        parts = [[per_cycle[t][w] for w in wires] for t in cycles]
    else:
        positions = [(w, t) for t in cycles for w in sorted(per_cycle[t])]
        parts = [[per_cycle[t][w]] for w, t in positions]

    result = vf.check_tuples(
        positions, (model.order,), parts, None,
        lambda exprs, budget: vf.check_from_fixpoint(
            exprs, labels, options.enum_limit, budget),
        labels, vf.TUPLE_CAP)
    return replace(result, warnings=tuple(dict.fromkeys(warnings)))
