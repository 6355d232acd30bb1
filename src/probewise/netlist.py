"""Circuit data model, JSON netlist parsing, validation and scheduling.

The netlist format is a single JSON document (see ``docs in README``):
wires with widths, primary inputs/outputs, combinatorial gates, registers
with reset values, optional split-wire groups and memories. Parsing resolves
all names, checks arity/width rules per gate kind, enforces single drivers,
and :func:`validate_and_schedule` puts the gates in a topological evaluation
order (registers break all cycles).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .expr import format_bits
from .inputs import MAX_DEPTH, MAX_WIDTH, InputError, expect, field, \
    literal, load


class NetlistError(Exception):
    """Base class for netlist construction problems."""


class MalformedDocument(NetlistError):
    pass


class UnknownGateKind(NetlistError):
    pass


class WidthMismatch(NetlistError):
    def __init__(self, where: str, expected, actual):
        super().__init__(f"{where}: expected width {expected}, got {actual}")
        self.where, self.expected, self.actual = where, expected, actual


class MultipleDrivers(NetlistError):
    def __init__(self, wire: str):
        super().__init__(f"wire {wire!r} has more than one driver")
        self.wire = wire


class DanglingReference(NetlistError):
    def __init__(self, name: str, where: str):
        super().__init__(f"{where}: reference to undeclared name {name!r}")
        self.name, self.where = name, where


class CombinatorialLoop(NetlistError):
    def __init__(self, cycle: list[str]):
        super().__init__("combinatorial loop through " + " -> ".join(cycle))
        self.cycle = cycle


@dataclass(frozen=True)
class SrcLoc:
    file: str
    line: int


@dataclass(frozen=True)
class Wire:
    uid: int
    name: str
    width: int
    src: SrcLoc | None = None


@dataclass(frozen=True)
class Gate:
    uid: int
    kind: str
    inputs: tuple[int, ...]   # wire uids, order significant
    output: int               # wire uid
    params: tuple = ()        # sorted (key, value) pairs


@dataclass(frozen=True)
class Register:
    uid: int
    input: int
    output: int
    init: int


@dataclass(frozen=True)
class SplitGroup:
    parent_name: str
    parent_width: int
    members: tuple[tuple[int, int], ...]   # (wire uid, bit index of parent)


@dataclass(frozen=True)
class MemoryDecl:
    mid: str
    depth: int
    width: int
    init: tuple[int, ...]


# kind -> input arity (-1: shifts, whose arity depends on params["amount"]);
# width rules live in _check_gate_shape.
GATE_KINDS: dict[str, int] = {
    "bit_not": 1, "bit_and": 2, "bit_or": 2, "bit_xor": 2,
    "ucmp": 2, "scmp": 2, "equal": 2, "not_equal": 2,
    "add": 2, "sub": 2, "neg": 1, "mul": 2,
    "shl": -1, "shr": -1, "sshr": -1,   # 2 inputs, or 1 with params["amount"]
    "trunc": 1, "zext": 1, "sext": 1, "blit": 2, "repeat": 1,
    "is_zero": 1, "is_neg": 1,
    "mem_read": 1, "mem_write": 2,
    "mux": 3,
}

SHIFT_KINDS = ("shl", "shr", "sshr")
_RANK_REMAP = frozenset({"trunc", "zext", "sext", "blit", "repeat"})


class Circuit:
    """Immutable wires/gates/registers graph with name and driver indexes."""

    def __init__(self, wires: Sequence[Wire], gates: Sequence[Gate],
                 registers: Sequence[Register], inputs: Iterable[int],
                 outputs: Iterable[int], splits: Sequence[SplitGroup] = (),
                 memories: Sequence[MemoryDecl] = ()):
        self.wires = tuple(wires)
        self.gates = tuple(gates)
        self.registers = tuple(registers)
        self.inputs = frozenset(inputs)
        self.outputs = frozenset(outputs)
        self.splits = tuple(splits)
        self.memories = tuple(memories)
        self.by_name = {w.name: w for w in self.wires}
        self.by_uid = {w.uid: w for w in self.wires}
        # every wire has one driver: a gate, a register or the inputs
        driven = set(self.inputs)
        for uid in [g.output for g in self.gates] + \
                [r.output for r in self.registers]:
            if uid in driven:
                raise MultipleDrivers(self.by_uid[uid].name)
            driven.add(uid)
        for w in self.wires:
            if w.uid not in driven:
                raise NetlistError(f"wire {w.name!r} has no driver and is not an input")

    def wire(self, uid: int) -> Wire:
        return self.by_uid[uid]

    def name(self, uid: int) -> str:
        return self.by_uid[uid].name

    def gate_param(self, gate: Gate, key: str, default=None):
        for k, v in gate.params:
            if k == key:
                return v
        return default


@dataclass
class StructuralIndex:
    register_input_wires: frozenset[int]
    primary_output_wires: frozenset[int]
    split_member_wires: frozenset[int]
    mux_roles: dict[int, tuple[int, int, int]]          # gate uid -> (sel, in0, in1)
    partially_used_wires: frozenset[int]                # some input rank dropped
    mem_write_input_wires: frozenset[int]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse_netlist(text: str) -> Circuit:
    """Parse a JSON netlist document into a validated :class:`Circuit`."""
    try:
        return _read_netlist(load(text, "netlist"))
    except InputError as exc:
        raise MalformedDocument(str(exc)) from None


def _read_netlist(doc: dict) -> Circuit:
    wires: list[Wire] = []
    names: dict[str, Wire] = {}
    for i, entry in enumerate(field(doc, "", "wires", list)):
        where = f"wires[{i}]"
        name = field(entry, where, "name", str)
        width = field(entry, where, "width", int, 1, maximum=MAX_WIDTH)
        if name in names:
            raise MalformedDocument(f"{where}.name: duplicate wire name {name!r}")
        src = field(entry, where, "src", dict, default=None)
        if src is not None:
            src = SrcLoc(field(src, f"{where}.src", "file", str),
                         field(src, f"{where}.src", "line", int))
        wire = Wire(i, name, width, src)
        wires.append(wire)
        names[name] = wire

    def resolve(name, where: str) -> Wire:
        if expect(name, where, str) not in names:
            raise DanglingReference(name, where)
        return names[name]

    def wire_field(entry, where: str, key: str) -> Wire:
        return resolve(field(entry, where, key, str), f"{where}.{key}")

    def resolve_all(values: list, where: str) -> list[Wire]:
        return [resolve(name, f"{where}[{j}]")
                for j, name in enumerate(values)]

    inputs = [w.uid for w in resolve_all(field(doc, "", "inputs", list),
                                         "inputs")]
    outputs = [w.uid for w in resolve_all(field(doc, "", "outputs", list),
                                          "outputs")]

    memories = []
    for i, entry in enumerate(field(doc, "", "memories", list, default=[])):
        where = f"memories[{i}]"
        mid = field(entry, where, "id", str)
        if any(m.mid == mid for m in memories):
            raise MalformedDocument(f"{where}.id: duplicate memory id {mid!r}")
        depth = field(entry, where, "depth", int, 1, maximum=MAX_DEPTH)
        width = field(entry, where, "width", int, 1, maximum=MAX_WIDTH)
        raw = field(entry, where, "init", list, default=[])
        if len(raw) > depth:
            raise MalformedDocument(f"{where}.init: longer than depth {depth}")
        init = [literal(lit, f"{where}.init[{j}]", width)
                for j, lit in enumerate(raw)]
        init += [0] * (depth - len(init))
        memories.append(MemoryDecl(mid, depth, width, tuple(init)))
    memory_widths = {m.mid: m.width for m in memories}

    gates: list[Gate] = []
    ports_used: dict[tuple[str, str], str] = {}
    for i, entry in enumerate(field(doc, "", "gates", list)):
        where = f"gates[{i}]"
        kind = field(entry, where, "kind", str)
        if kind not in GATE_KINDS:
            raise UnknownGateKind(f"{where}.kind: unknown kind {kind!r}")
        out = wire_field(entry, where, "output")
        ins = resolve_all(field(entry, where, "inputs", list), f"{where}.inputs")
        # a null parameter reads as an absent one
        params = {k: v for k, v in
                  field(entry, where, "params", dict, default={}).items()
                  if v is not None}
        gate = Gate(i, kind, tuple(w.uid for w in ins), out.uid,
                    tuple(sorted(params.items())))
        _check_gate_shape(gate, where, ins, out, params, memory_widths,
                          ports_used)
        gates.append(gate)

    registers: list[Register] = []
    for i, entry in enumerate(field(doc, "", "registers", list)):
        where = f"registers[{i}]"
        win, wout = (wire_field(entry, where, k) for k in ("input", "output"))
        if win.width != wout.width:
            raise WidthMismatch(f"{where} ({wout.name})", win.width, wout.width)
        init = literal(field(entry, where, "init", str), f"{where}.init",
                       wout.width)
        registers.append(Register(i, win.uid, wout.uid, init))

    splits: list[SplitGroup] = []
    for i, entry in enumerate(field(doc, "", "splits", list, default=[])):
        where = f"splits[{i}]"
        parent = field(entry, where, "parent", str)
        width = field(entry, where, "width", int, 1)
        members = []
        seen_idx = set()
        for j, m in enumerate(field(entry, where, "bits", list)):
            at = f"{where}.bits[{j}]"
            w = wire_field(m, at, "wire")
            idx = field(m, at, "index", int, 0)
            if w.width != 1:
                raise WidthMismatch(f"{at}.wire ({w.name})", 1, w.width)
            if idx in seen_idx or idx >= width:
                raise MalformedDocument(
                    f"{at}.index: bad or duplicate bit index {idx} of "
                    f"split {parent!r}")
            seen_idx.add(idx)
            members.append((w.uid, idx))
        if len(seen_idx) != width:
            raise MalformedDocument(
                f"{where}.bits: bit indices must cover 0..{width - 1}")
        splits.append(SplitGroup(parent, width, tuple(members)))

    return Circuit(wires, gates, registers, inputs, outputs, splits, memories)


def _check_gate_shape(gate: Gate, where: str, ins: Sequence[Wire], out: Wire,
                      params: dict, memory_widths: dict[str, int],
                      ports_used: dict) -> None:
    kind = gate.kind
    at = f"{where} ({kind} -> {out.name})"
    p = f"{where}.params"
    arity = GATE_KINDS[kind]
    if kind in SHIFT_KINDS:
        amount = field(params, p, "amount", int, 0, default=None)
        arity = 2 if amount is None else 1
    if len(ins) != arity:
        raise MalformedDocument(f"{at}: expected {arity} inputs, got {len(ins)}")

    def want(cond: bool, expected, actual):
        if not cond:
            raise WidthMismatch(at, expected, actual)

    if kind in ("bit_and", "bit_or", "bit_xor", "add", "sub", "mul"):
        want(ins[0].width == ins[1].width == out.width, ins[0].width, out.width)
    elif kind in ("bit_not", "neg"):
        want(ins[0].width == out.width, ins[0].width, out.width)
    elif kind in ("ucmp", "scmp", "equal", "not_equal"):
        want(ins[0].width == ins[1].width, ins[0].width, ins[1].width)
        want(out.width == 1, 1, out.width)
    elif kind in ("is_zero", "is_neg"):
        want(out.width == 1, 1, out.width)
    elif kind in SHIFT_KINDS:
        want(ins[0].width == out.width, ins[0].width, out.width)
    elif kind == "trunc":
        lo = field(params, p, "lo", int, 0, default=0)
        want(lo + out.width <= ins[0].width, ins[0].width, lo + out.width)
    elif kind in ("zext", "sext"):
        want(out.width >= ins[0].width, f">={ins[0].width}", out.width)
    elif kind == "blit":
        lo = field(params, p, "lo", int, 0, default=0)
        want(out.width == ins[0].width, ins[0].width, out.width)
        want(lo + ins[1].width <= ins[0].width, ins[0].width, lo + ins[1].width)
    elif kind == "repeat":
        count = field(params, p, "count", int, 1)
        want(out.width == count * ins[0].width, count * ins[0].width, out.width)
    elif kind == "mux":
        want(ins[0].width == 1, 1, ins[0].width)
        want(ins[1].width == ins[2].width == out.width, out.width, ins[1].width)
    elif kind in ("mem_read", "mem_write"):
        mem_id = field(params, p, "memory", str)
        if mem_id not in memory_widths:
            raise DanglingReference(mem_id, f"{p}.memory")
        port = (mem_id, kind)
        if port in ports_used:
            raise MalformedDocument(
                f"{at}: memory {mem_id!r} already has a {kind} port")
        ports_used[port] = out.name
        # a read gives, and a write takes, one stored word
        data = ins[1] if kind == "mem_write" else out
        want(data.width == memory_widths[mem_id], memory_widths[mem_id],
             data.width)
        if kind == "mem_write":
            want(ins[1].width == out.width, ins[1].width, out.width)


def serialize_netlist(circuit: Circuit) -> str:
    """Inverse of :func:`parse_netlist` (round-trips every valid circuit)."""
    doc: dict = {
        "wires": [
            {"name": w.name, "width": w.width,
             **({"src": {"file": w.src.file, "line": w.src.line}} if w.src else {})}
            for w in circuit.wires
        ],
        "inputs": sorted(circuit.name(u) for u in circuit.inputs),
        "outputs": sorted(circuit.name(u) for u in circuit.outputs),
        "gates": [
            {"kind": g.kind,
             "output": circuit.name(g.output),
             "inputs": [circuit.name(u) for u in g.inputs],
             **({"params": dict(g.params)} if g.params else {})}
            for g in circuit.gates
        ],
        "registers": [
            {"input": circuit.name(r.input), "output": circuit.name(r.output),
             "init": format_bits(r.init, circuit.wire(r.output).width)}
            for r in circuit.registers
        ],
    }
    if circuit.splits:
        doc["splits"] = [
            {"parent": s.parent_name, "width": s.parent_width,
             "bits": [{"wire": circuit.name(u), "index": i} for u, i in s.members]}
            for s in circuit.splits
        ]
    if circuit.memories:
        doc["memories"] = [
            {"id": m.mid, "depth": m.depth, "width": m.width,
             "init": [format_bits(v, m.width) for v in m.init]}
            for m in circuit.memories
        ]
    return json.dumps(doc, indent=1, sort_keys=False)


# ---------------------------------------------------------------------------
# Scheduling and structural index
# ---------------------------------------------------------------------------

def validate_and_schedule(circuit: Circuit) -> tuple[Gate, ...]:
    """The combinatorial gates in topological order (Kahn, deterministic)."""
    gates = {g.uid: g for g in circuit.gates}
    gate_of_output = {g.output: g for g in circuit.gates}
    deps: dict[int, list[int]] = {uid: [] for uid in gates}
    rdeps: dict[int, list[int]] = {uid: [] for uid in gates}
    for g in circuit.gates:
        for wu in g.inputs:
            drv = gate_of_output.get(wu)
            if drv is not None:
                deps[g.uid].append(drv.uid)
                rdeps[drv.uid].append(g.uid)
    pending = {uid: len(ds) for uid, ds in deps.items()}
    order = sorted(uid for uid, n in pending.items() if n == 0)
    for uid in order:   # the gates a gate readies join the end of the walk
        for nxt in sorted(rdeps[uid]):
            pending[nxt] -= 1
            if pending[nxt] == 0:
                order.append(nxt)
    if len(order) != len(circuit.gates):
        raise CombinatorialLoop(_find_cycle(circuit, deps, pending))
    return tuple(gates[uid] for uid in order)


def _find_cycle(circuit: Circuit, deps, pending) -> list[str]:
    gates = {g.uid: g for g in circuit.gates}
    stuck = sorted(uid for uid, n in pending.items() if n > 0)
    seen: dict[int, int] = {}
    path: list[int] = []
    node = stuck[0]
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        node = sorted(d for d in deps[node] if pending[d] > 0)[0]
    cycle = path[seen[node]:] + [node]
    return [circuit.name(gates[uid].output) for uid in cycle]


def rank_sources(circuit: Circuit, g: Gate) -> list[tuple] | None:
    """Per output rank of a rank-remapping gate (trunc, zext, sext, blit,
    repeat, shift by ``params.amount``): ('in', input pos, input rank) or
    ('cst', bit value). None for every other kind, each of which reads every
    rank of every input."""
    kind = g.kind
    amount = circuit.gate_param(g, "amount")
    if kind not in _RANK_REMAP and (kind not in SHIFT_KINDS or amount is None):
        return None
    w_out = circuit.wire(g.output).width
    w = circuit.wire(g.inputs[0]).width
    lo = circuit.gate_param(g, "lo", 0)
    if kind == "trunc":
        return [("in", 0, lo + i) for i in range(w_out)]
    if kind == "zext":
        return [("in", 0, i) if i < w else ("cst", 0) for i in range(w_out)]
    if kind == "sext":
        return [("in", 0, min(i, w - 1)) for i in range(w_out)]
    if kind == "blit":
        ws = circuit.wire(g.inputs[1]).width
        return [("in", 1, i - lo) if lo <= i < lo + ws else ("in", 0, i)
                for i in range(w_out)]
    if kind == "repeat":
        return [("in", 0, i % w) for i in range(w_out)]
    if kind == "shl":
        return [("in", 0, i - amount) if i >= amount else ("cst", 0)
                for i in range(w_out)]
    if kind == "shr":
        return [("in", 0, i + amount) if i + amount < w else ("cst", 0)
                for i in range(w_out)]
    return [("in", 0, min(i + amount, w - 1)) for i in range(w_out)]  # sshr


def structural_index(circuit: Circuit) -> StructuralIndex:
    partially_used: set[int] = set()
    mux_roles: dict[int, tuple[int, int, int]] = {}
    mem_write_inputs: set[int] = set()
    for g in circuit.gates:
        sources = rank_sources(circuit, g)
        for pos, wu in enumerate(g.inputs if sources is not None else ()):
            ranks = {src[2] for src in sources if src[:2] == ("in", pos)}
            if len(ranks) < circuit.wire(wu).width:
                partially_used.add(wu)
        if g.kind == "mux":
            mux_roles[g.uid] = (g.inputs[0], g.inputs[1], g.inputs[2])
        if g.kind == "mem_write":
            mem_write_inputs.update(g.inputs)
    members = set()
    for s in circuit.splits:
        members.update(u for u, _ in s.members)
    return StructuralIndex(
        register_input_wires=frozenset(r.input for r in circuit.registers),
        primary_output_wires=frozenset(circuit.outputs),
        split_member_wires=frozenset(members),
        mux_roles=mux_roles,
        partially_used_wires=frozenset(partially_used),
        mem_write_input_wires=frozenset(mem_write_inputs),
    )
