"""Mixed-domain simulation: concrete, symbolic, LeakSet and stability.

Each cycle computes, for every wire, a :class:`Valuation` holding the four
domains. Registers emit the previous cycle's input valuation (their reset
vector at cycle 0); combinatorial gates evaluate in schedule order. Stability
marks bits that provably cannot toggle within the cycle; LeakSets collect,
per bit, the expressions whose values a glitch on that bit may expose.
LeakSets whose members are all constants are stored as empty sets.

Primary inputs are driven by a :class:`StimulusFrame` per cycle and are
always unstable. A symbolic input carries a singleton LeakSet per bit.

One switch over the gate kinds gives each non-memory, non-mux gate both its
concrete value and its term. The value is integer arithmetic on the input
values and never touches a term; the term is built from the input terms.
The two share no operator table, so a consistency check compares two
independent computations. It evaluates each term by :func:`expr.apply`,
the rule enumeration's columns are computed by, so it referees that rule.

Each memory is one immutable :class:`Memory` record; a cycle's writes
replace a record only when they change one of its words, and a state holds
only its own cycle's warnings.

A wire whose valuation did not change keeps last cycle's object. An input
driven by the same expression under the same witness, and a gate whose
inputs all kept theirs, are not evaluated again. A state is *settled* when
all its simulation state is the last cycle's: every valuation and every
memory record is the same object, and the cycle warned nothing. A settled
state whose next frame drives every input alike steps to a settled state
over the same valuations and memories, without evaluating anything.
"""

from __future__ import annotations

import json
import dataclasses
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from . import expr as ex
from .expr import Expr, bit, bits, cst, mask
from .inputs import InputError, expect, field, literal, load
from .netlist import Circuit, Gate, SHIFT_KINDS, rank_sources


class SimError(Exception):
    pass


class ConsistencyViolation(SimError):
    def __init__(self, wire: str, expected: int, actual: int):
        super().__init__(
            f"wire {wire!r}: symbolic constant {actual:#x} disagrees with "
            f"concrete value {expected:#x}")
        self.wire = wire


class SymbolicIndexUnhandled(SimError):
    """A memory access at a symbolic index with no exact term: a write, or a
    read of a memory that holds a symbolic value."""
    def __init__(self, wire: str, access: str):
        why = " into a memory holding a symbolic value" \
            if access == "read" else ""
        super().__init__(f"memory {access} at {wire!r} has a symbolic "
                         f"index{why}")
        self.wire = wire


LeakSet = tuple[frozenset[Expr], ...]


def norm_set(members) -> frozenset[Expr]:
    """A LeakSet entry; all-constant populations collapse to the empty set."""
    s = frozenset(members)
    if s and all(m.is_cst for m in s):
        return frozenset()
    return s


_EMPTY = frozenset()


@dataclass(frozen=True)
class Valuation:
    conc: int
    symb: Expr
    lset: LeakSet
    stab: int          # bit i set <=> rank i stable

    def stable(self, i: int) -> bool:
        return bool((self.stab >> i) & 1)


def _const_valuation(value: int, width: int, stable: bool) -> Valuation:
    return Valuation(value & mask(width), cst(value, width),
                     tuple(_EMPTY for _ in range(width)),
                     mask(width) if stable else 0)


@dataclass(frozen=True)
class Memory:
    """A memory's contents after a cycle's writes: its concrete words, their
    terms, and how many cycles changed a concrete word so far."""
    conc: tuple[int, ...]
    symb: tuple[Expr, ...]
    version: int


@dataclass(frozen=True)
class StimulusFrame:
    """Input drive for one cycle: input wire name -> the expression that
    drives it, a CST node for a constant drive."""
    inputs: Mapping[str, Expr]


@dataclass
class Stimuli:
    witness: dict[str, int]
    frames: list[StimulusFrame]


@dataclass(frozen=True)
class SimOptions:
    use_stability: bool = True
    reset_unstable: bool = False   # registers unstable at cycle 0
    check_consistency: bool = False   # check every state against the witness


@dataclass
class SimState:
    circuit: Circuit
    cycle: int
    current: dict[int, Valuation]
    previous: dict[int, Valuation]
    memories: dict[str, Memory]            # after the cycle's writes
    # this cycle's warnings alone
    warnings: list[tuple[int, str, str]] = dataclasses.field(
        default_factory=list)
    # every valuation and memory record is last cycle's object, and the
    # cycle warned nothing
    settled: bool = False
    # the witness mapping the state was stepped under, None before any step
    witness: Mapping[str, int] | None = None


def initial_state(circuit: Circuit) -> SimState:
    return SimState(circuit, 0, {}, {}, {
        m.mid: Memory(tuple(m.init), tuple(cst(v, m.width) for v in m.init), 0)
        for m in circuit.memories})


def simulate(circuit: Circuit, schedule: Sequence[Gate], stimuli: Stimuli,
             opts: SimOptions = SimOptions()) -> Iterator[SimState]:
    """Yield the state after each stimulus frame, each checked against the
    witness first when ``opts.check_consistency`` is set; a settled state
    holds the last one's valuations, which were checked."""
    state = initial_state(circuit)
    for frame in stimuli.frames:
        state = step_cycle(circuit, schedule, state, frame, stimuli.witness,
                           opts)
        if opts.check_consistency and not state.settled:
            consistency_check(state, stimuli.witness)
        yield state


def step_cycle(circuit: Circuit, schedule: Sequence[Gate], state: SimState,
               frame: StimulusFrame, witness: Mapping[str, int],
               opts: SimOptions = SimOptions()) -> SimState:
    """Advance the simulation by one cycle, computing all four domains;
    ``schedule`` is the gates in evaluation order.

    Its table reads see the contents before its own writes and carry them
    in their ARRAY nodes.

    ``state`` must come from the same circuit and ``opts``, as in
    :func:`simulate`: a register or memory read whose valuation equals the
    last cycle's keeps that object, and a non-memory gate whose inputs all
    kept theirs keeps its own without being evaluated again. An input driven
    by the same ``Expr`` as last cycle, under the ``witness`` object
    ``state`` was stepped under, keeps its valuation unevaluated, so that
    mapping must not change in between. A settled ``state`` whose inputs all keep theirs
    steps to a settled state over the same valuations."""
    t = state.cycle
    vals: dict[int, Valuation] = {}
    last = state.current
    kept = state.settled      # and every input keeps its valuation

    for uid in sorted(circuit.inputs):
        wire = circuit.wire(uid)
        e = frame.inputs.get(wire.name)
        if e is None:
            raise SimError(f"cycle {t}: no stimulus for input {wire.name!r}")
        if e.width != wire.width:
            raise SimError(f"stimulus for {wire.name!r} has width {e.width}, "
                           f"wire is {wire.width}")
        was = last.get(uid)
        # the same drive under the same witness has last cycle's value
        if was is None or was.symb is not e or state.witness is not witness:
            conc = ex.eval_concrete(e, witness)
            if was is None or was.symb is not e or was.conc != conc:
                lset = tuple(norm_set((b,)) for b in bits(e))
                was = Valuation(conc, e, lset, 0)
                kept = False
        vals[uid] = was

    if kept:
        # registers and gates see what they saw last cycle
        return SimState(circuit, t + 1, last, last, state.memories, [], True,
                        witness)

    warnings: list[tuple[int, str, str]] = []

    for r in circuit.registers:
        val = register_step(circuit, r, state, opts)
        was = last.get(r.output)
        vals[r.output] = was if val == was else val

    pending_writes: list[tuple[str, int, int, Expr]] = []
    for g in schedule:
        ins = [vals[w] for w in g.inputs]
        val = _eval_gate(circuit, state, g, ins, opts, pending_writes,
                         warnings, t)
        if val.symb.is_cst and val.symb.value != val.conc:
            raise ConsistencyViolation(circuit.name(g.output), val.conc,
                                       val.symb.value)
        vals[g.output] = val

    memories = _write(state.memories, pending_writes)
    settled = not warnings and memories is state.memories \
        and all(v is last.get(uid) for uid, v in vals.items())
    return SimState(circuit, t + 1, vals, last, memories, warnings, settled,
                    witness)


def _write(memories: dict[str, Memory],
           writes: list[tuple[str, int, int, Expr]]) -> dict[str, Memory]:
    """``memories`` after ``writes``, each ``(memory, index, conc, symb)``
    and at most one per memory, since a memory has one write port. A write
    that changes no word keeps its memory's record, and ``memories`` itself
    is kept when every record is; a new concrete word adds one version."""
    out = memories
    for mid, idx, conc, symb in writes:
        m = memories[mid]
        if m.conc[idx] == conc and m.symb[idx] is symb:
            continue
        if out is memories:
            out = dict(memories)
        out[mid] = Memory(m.conc[:idx] + (conc,) + m.conc[idx + 1:],
                          m.symb[:idx] + (symb,) + m.symb[idx + 1:],
                          m.version + (m.conc[idx] != conc))
    return out


# ---------------------------------------------------------------------------
# Per-gate evaluation
# ---------------------------------------------------------------------------

def register_step(circuit: Circuit, register, state: SimState,
                  opts: SimOptions = SimOptions()) -> Valuation:
    """Register output at the cycle being computed.

    Cycle 0 emits the reset vector (stable unless configured otherwise).
    Afterwards the output carries the previous cycle's input valuation; a
    bit is stable iff its canonical expression equals the previous output's,
    and its LeakSet holds both cycles' expressions.
    """
    out_w = circuit.wire(register.output).width
    if state.cycle == 0:
        stable = opts.use_stability and not opts.reset_unstable
        return _const_valuation(register.init, out_w, stable)
    cur = state.current[register.input]
    prev = state.current[register.output]
    stab = 0
    lset = []
    cur_bits, prev_bits = bits(cur.symb), bits(prev.symb)
    for i in range(out_w):
        if opts.use_stability and cur_bits[i] is prev_bits[i]:
            stab |= 1 << i
        lset.append(norm_set((cur_bits[i], prev_bits[i])))
    return Valuation(cur.conc, cur.symb, tuple(lset), stab)


def _eval_gate(circuit: Circuit, state: SimState, g: Gate, ins: list[Valuation],
               opts: SimOptions, pending_writes: list, warnings: list,
               t: int) -> Valuation:
    if g.kind == "mem_read":
        val = _eval_mem_read(circuit, state, g, ins, opts)
        was = state.current.get(g.output)
        return was if val == was else val
    if g.kind == "mem_write":
        return _eval_mem_write(circuit, state, g, ins, pending_writes)
    if g.kind == "mux" and not ins[0].symb.is_cst:
        warnings.append((t, circuit.name(g.inputs[0]),
                         "mux selector is symbolic"))
    # a gate whose inputs all kept last cycle's objects keeps its own
    last = state.current
    was = last.get(g.output)
    if was is not None:
        for v, w in zip(ins, g.inputs):
            if v is not last[w]:
                break
        else:
            return was
    return eval_combinational(circuit, g, ins, opts)


def eval_combinational(circuit: Circuit, g: Gate, ins: list[Valuation],
                       opts: SimOptions = SimOptions()) -> Valuation:
    """All four domains for one non-memory gate from its input valuations."""
    kind = g.kind
    w_out = circuit.wire(g.output).width
    if kind == "mux":
        return _eval_mux(circuit, g, ins, opts)

    conc, symb = _value_and_term(circuit, g, ins, w_out)

    if kind in ("bit_and", "bit_or", "bit_xor", "bit_not"):
        stab, lset = _bitwise_domains(kind, ins, symb, w_out)
    elif (sources := rank_sources(circuit, g)) is not None:
        stab, lset = _remap_domains(sources, ins, symb, w_out)
    else:
        # Width-mixing: every output bit depends on every input bit.
        all_stable = all(v.stab == mask(v.symb.width) for v in ins)
        stab = mask(w_out) if (all_stable and opts.use_stability) else 0
        union = norm_set(m for v in ins for s in v.lset for m in s)
        lset = _finish_lset(stab, symb, w_out, lambda i: union)
    return Valuation(conc, symb, lset, stab)


def _finish_lset(stab: int, symb: Expr, width: int,
                 unstable_set: Callable[[int], frozenset]) -> LeakSet:
    symb_bits = bits(symb)
    out = []
    for i in range(width):
        if (stab >> i) & 1:
            out.append(norm_set((symb_bits[i],)))
        else:
            out.append(norm_set(unstable_set(i)))
    return tuple(out)


def _bitwise_domains(kind: str, ins: list[Valuation], symb: Expr,
                     width: int) -> tuple[int, LeakSet]:
    if kind == "bit_not":
        (a,) = ins
        stab = a.stab
        return stab, _finish_lset(stab, symb, width, lambda i: a.lset[i])
    a, b = ins
    a_bits, b_bits = bits(a.symb), bits(b.symb)
    stab = 0
    for i in range(width):
        sa, sb = a.stable(i), b.stable(i)
        ok = sa and sb
        if not ok and kind == "bit_and":
            zero = cst(0, 1)
            ok = (sa and a_bits[i] is zero) or (sb and b_bits[i] is zero)
        elif not ok and kind == "bit_or":
            one = cst(1, 1)
            ok = (sa and a_bits[i] is one) or (sb and b_bits[i] is one)
        if ok:
            stab |= 1 << i
    return stab, _finish_lset(stab, symb, width,
                              lambda i: a.lset[i] | b.lset[i])


def _remap_domains(sources: list[tuple], ins: list[Valuation], symb: Expr,
                   w_out: int) -> tuple[int, LeakSet]:
    stab = 0
    for i, src in enumerate(sources):
        if src[0] == "cst" or ins[src[1]].stable(src[2]):
            stab |= 1 << i

    def unstable(i):
        src = sources[i]
        return ins[src[1]].lset[src[2]] if src[0] == "in" else _EMPTY

    return stab, _finish_lset(stab, symb, w_out, unstable)


def _eval_mux(circuit: Circuit, g: Gate, ins: list[Valuation],
              opts: SimOptions) -> Valuation:
    sel, in0, in1 = ins
    w = in0.symb.width
    conc = in1.conc if sel.conc else in0.conc
    rep = ex.concat([sel.symb] * w) if w > 1 else sel.symb
    not_rep = ex.build("NOT", [rep])
    symb = ex.build("OR", [ex.build("AND", [rep, in1.symb]),
                           ex.build("AND", [not_rep, in0.symb])])

    sel_stable = sel.stable(0)
    sel_const = sel.symb.is_cst
    stab = 0
    if sel_stable and opts.use_stability:
        if sel_const:
            chosen = in1 if sel.symb.value else in0
            stab = chosen.stab
        else:
            stab = in0.stab & in1.stab

    def unstable(i):
        if sel_stable and sel_const:
            chosen = in1 if sel.symb.value else in0
            data = chosen.lset[i]
        else:
            data = in0.lset[i] | in1.lset[i]
        return sel.lset[0] | data

    lset = _finish_lset(stab, symb, w, unstable)
    return Valuation(conc, symb, lset, stab)


def _eval_mem_read(circuit: Circuit, state: SimState, g: Gate,
                   ins: list[Valuation], opts: SimOptions) -> Valuation:
    """A read sees the contents before the cycle's writes. At a symbolic
    index it is exact only over constant contents: ``ARRAY`` reads the
    table at the index modulo its depth."""
    mid = circuit.gate_param(g, "memory")
    index = ins[0]
    memory = state.memories[mid]
    contents, stored = memory.conc, memory.symb
    w_out = circuit.wire(g.output).width
    conc = contents[index.conc % len(contents)]
    if index.symb.is_cst:
        symb = stored[index.symb.value % len(stored)]
    elif all(e.is_cst for e in stored):
        symb = ex.array_lookup(mid, index.symb, w_out, contents,
                               memory.version)
    else:
        raise SymbolicIndexUnhandled(circuit.name(g.output), "read")

    index_stable = index.stab == mask(index.symb.width)
    stab = mask(w_out) if (index_stable and opts.use_stability) else 0
    index_union = frozenset(m for s in index.lset for m in s)
    symb_bits = bits(symb)
    lset = _finish_lset(stab, symb, w_out,
                        lambda i: index_union | {symb_bits[i]})
    return Valuation(conc, symb, lset, stab)


def _eval_mem_write(circuit: Circuit, state: SimState, g: Gate,
                    ins: list[Valuation], pending_writes: list) -> Valuation:
    index, value = ins
    if not index.symb.is_cst:
        raise SymbolicIndexUnhandled(circuit.name(g.output), "write")
    mid = circuit.gate_param(g, "memory")
    depth = len(state.memories[mid].conc)
    pending_writes.append((mid, index.conc % depth, value.conc, value.symb))
    return value


# ---------------------------------------------------------------------------
# Concrete / symbolic functionalities
# ---------------------------------------------------------------------------

_SHIFT_TERM = {"shl": "LSL", "shr": "LSR", "sshr": "ASR"}


def _value_and_term(circuit: Circuit, g: Gate, ins: list[Valuation],
                    w: int) -> tuple[int, Expr]:
    """The concrete value and the term of a non-memory, non-mux gate of
    output width ``w``. The value is integer arithmetic on the input values
    alone; the term is built from the input terms alone."""
    kind = g.kind
    vs = [v.conc for v in ins]
    es = [v.symb for v in ins]
    if kind == "bit_not":
        return ~vs[0] & mask(w), ex.build("NOT", es)
    if kind == "bit_and":
        return vs[0] & vs[1], ex.build("AND", es)
    if kind == "bit_or":
        return vs[0] | vs[1], ex.build("OR", es)
    if kind == "bit_xor":
        return vs[0] ^ vs[1], ex.build("XOR", es)
    if kind == "add":
        return (vs[0] + vs[1]) & mask(w), ex.build("ADD", es)
    if kind == "sub":
        return (vs[0] - vs[1]) & mask(w), ex.build("SUB", es)
    if kind == "mul":
        return (vs[0] * vs[1]) & mask(w), ex.build("MUL", es)
    if kind == "neg":
        return -vs[0] & mask(w), ex.build("SUB", [cst(0, w), es[0]])
    if kind == "ucmp":
        return int(vs[0] < vs[1]), _ucmp(es[0], es[1])
    if kind == "equal":
        return int(vs[0] == vs[1]), \
            ex.build("NOT", [_or_reduce(ex.build("XOR", es))])
    if kind == "not_equal":
        return int(vs[0] != vs[1]), _or_reduce(ex.build("XOR", es))
    if kind == "is_zero":
        return int(vs[0] == 0), ex.build("NOT", [_or_reduce(es[0])])
    if kind in SHIFT_KINDS:
        amount = circuit.gate_param(g, "amount")
        if amount is None:
            s, amt = vs[1], es[1]
        else:
            s = int(amount)
            amt = cst(s, max(s.bit_length(), 1))
        x, s = vs[0], min(s, w)   # past w places every bit is shifted out
        if kind == "shl":
            value = (x << s) & mask(w)
        elif kind == "shr":
            value = x >> s
        else:   # sshr: the two's-complement value, floor-shifted
            value = ((x ^ (1 << (w - 1))) - (1 << (w - 1)) >> s) & mask(w)
        return value, ex.build(_SHIFT_TERM[kind], [es[0], amt])
    if kind == "trunc":
        lo = int(circuit.gate_param(g, "lo", 0))
        return (vs[0] >> lo) & mask(w), ex.extract(es[0], lo, lo + w - 1)
    if kind == "blit":
        lo = int(circuit.gate_param(g, "lo", 0))
        ws = circuit.wire(g.inputs[1]).width
        dst, src = es
        pieces = []
        if lo + ws < w:
            pieces.append(ex.extract(dst, lo + ws, w - 1))
        pieces.append(src)
        if lo > 0:
            pieces.append(ex.extract(dst, 0, lo - 1))
        return (vs[0] & ~(mask(ws) << lo) | (vs[1] << lo)) & mask(w), \
            ex.concat(pieces)
    if kind == "zext":
        return vs[0], ex.zext(es[0], w)
    # the rest read their first input's width
    win = circuit.wire(g.inputs[0]).width
    if kind == "scmp":
        flip = 1 << (win - 1)
        sign = cst(flip, win)
        return int((vs[0] ^ flip) < (vs[1] ^ flip)), \
            _ucmp(ex.build("XOR", [es[0], sign]), ex.build("XOR", [es[1], sign]))
    if kind == "is_neg":
        return (vs[0] >> (win - 1)) & 1, bit(es[0], win - 1)
    if kind == "sext":
        v = vs[0]
        if (v >> (win - 1)) & 1:
            v |= mask(w) & ~mask(win)
        return v, ex.sext(es[0], w)
    if kind == "repeat":
        count = int(circuit.gate_param(g, "count"))
        out = 0
        for _ in range(count):
            out = (out << win) | vs[0]
        return out, ex.concat([es[0]] * count)
    raise AssertionError(kind)


def _or_reduce(e: Expr) -> Expr:
    return ex.build("OR", list(bits(e))) if e.width > 1 else e


def _ucmp(a: Expr, b: Expr) -> Expr:
    w = a.width
    diff = ex.build("SUB", [ex.zext(a, w + 1), ex.zext(b, w + 1)])
    return bit(diff, w)


# ---------------------------------------------------------------------------
# Consistency and stimuli
# ---------------------------------------------------------------------------

def consistency_check(state: SimState, witness: Mapping[str, int]) -> None:
    """Assert conc == eval_concrete(symb, witness) on every simulated wire."""
    memo: dict = {}
    for uid in sorted(state.current):
        val = state.current[uid]
        got = ex.eval_concrete(val.symb, witness, memo)
        if got != val.conc:
            raise ConsistencyViolation(state.circuit.name(uid), val.conc, got)


def parse_stimuli(text: str, widths: Mapping[str, int],
                  circuit: Circuit) -> Stimuli:
    """Parse JSONL stimuli for ``circuit``: a witness header then one frame
    per cycle.

    A malformed line, no frame at all, a frame that leaves an input of
    ``circuit`` undriven or drives it at another width, or a symbol that a
    frame drives without a witness value, raises
    :class:`~probewise.inputs.InputError` naming its path. A frame whose
    inputs object equals the last frame's takes the mapping that one
    validated as."""
    ports = [circuit.wire(uid) for uid in sorted(circuit.inputs)]
    witness: dict[str, int] = {}
    frames: list[tuple[int, StimulusFrame]] = []
    driven: set[str] = set()
    # the last frame's inputs object, and the mapping it validated as
    last: tuple[dict, dict[str, Expr]] = ({}, {})
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        where = f"stimuli line {line_no}"
        doc = load(line, where)
        try:
            if "witness" in doc:
                for name, lit in field(doc, "", "witness", dict).items():
                    witness[name] = literal(lit, f"witness.{name}",
                                            widths.get(name))
                continue
            for key in ("cycle", "inputs"):
                if key not in doc:
                    raise InputError(f"frame has no {key!r}")
            cycle = field(doc, "", "cycle", int, 0)
            given = field(doc, "", "inputs", dict)
            if frames and given == last[0]:
                # the last frame's inputs again: no drive is read or checked
                frames.append((cycle, StimulusFrame(last[1])))
                continue
            inputs = {}
            for name, drive in given.items():
                e = inputs[name] = _read_drive(drive, f"inputs.{name}", widths)
                driven |= ex.symbols_of(e)
            for wire in ports:
                e = inputs.get(wire.name)
                if e is None:
                    raise InputError(f"inputs.{wire.name}: missing")
                if e.width != wire.width:
                    raise InputError(f"inputs.{wire.name}: width {e.width}, "
                                     f"wire is {wire.width}")
        except InputError as exc:
            raise InputError(f"{where}: {exc}") from None
        frames.append((cycle, StimulusFrame(inputs)))
        last = given, inputs
    if not frames:
        raise InputError("stimuli: no frames")
    missing = sorted(driven - witness.keys())
    if missing:
        raise InputError(f"stimuli: witness.{missing[0]}: missing")
    frames.sort(key=lambda p: p[0])
    if [c for c, _ in frames] != list(range(len(frames))):
        raise InputError("stimuli: cycles must be 0..n-1 without gaps")
    return Stimuli(witness, [f for _, f in frames])


def _read_drive(drive, where: str, widths: Mapping[str, int]) -> Expr:
    if "const" in expect(drive, where, dict):
        lit = drive["const"]
        return cst(literal(lit, f"{where}.const"), len(lit) - 2)
    if "symbol" in drive:
        name = field(drive, where, "symbol", str)
        if name not in widths:
            raise InputError(f"{where}.symbol: undeclared symbol {name!r}")
        return ex.sym(name, widths[name])
    if "expr" in drive:
        text = field(drive, where, "expr", str)
        try:
            return ex.parse_expr(text, widths)
        except (ValueError, TypeError, IndexError, RecursionError) as exc:
            raise InputError(f"{where}.expr: {exc}") from None
    raise InputError(f"{where}: expected a const, symbol or expr drive")


def dump_stimuli(stimuli: Stimuli, widths: Mapping[str, int]) -> str:
    lines = [json.dumps({"witness": {
        name: ex.format_bits(v, widths[name])
        for name, v in sorted(stimuli.witness.items())}}, sort_keys=True)]
    for cycle, frame in enumerate(stimuli.frames):
        doc: dict = {"cycle": cycle, "inputs": {}}
        for name in sorted(frame.inputs):
            e = frame.inputs[name]
            if e.kind == "cst":
                doc["inputs"][name] = {"const": ex.format_bits(e.value, e.width)}
            elif e.kind == "sym":
                doc["inputs"][name] = {"symbol": e.name}
            else:
                doc["inputs"][name] = {"expr": ex.render(e)}
        lines.append(json.dumps(doc, sort_keys=True))
    return "\n".join(lines) + "\n"
