"""Circuit data model, JSON netlist parsing, validation and scheduling.

The netlist format is a single JSON document (see ``docs in README``):
wires with widths, primary inputs/outputs, combinatorial gates, registers
with reset values, optional split-wire groups and memories. Parsing resolves
all names, checks arity/width rules per gate kind, enforces single drivers,
and :func:`validate_and_schedule` produces a topological evaluation order
(registers break all cycles).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .expr import format_bits, parse_bits


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
    def __init__(self, name: str):
        super().__init__(f"reference to undeclared name {name!r}")
        self.name = name


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
        self.memory_by_id = {m.mid: m for m in self.memories}
        # wire uid -> ('gate'|'reg', object)
        self.driver: dict[int, tuple[str, object]] = {}
        for g in self.gates:
            if g.output in self.driver or g.output in self.inputs:
                raise MultipleDrivers(self.by_uid[g.output].name)
            self.driver[g.output] = ("gate", g)
        for r in self.registers:
            if r.output in self.driver or r.output in self.inputs:
                raise MultipleDrivers(self.by_uid[r.output].name)
            self.driver[r.output] = ("reg", r)
        for w in self.wires:
            if w.uid not in self.driver and w.uid not in self.inputs:
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


@dataclass(frozen=True)
class Schedule:
    order: tuple[int, ...]   # gate uids, topologically sorted


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

def _object(entry, where: str) -> dict:
    """``entry`` if it is a JSON object, else MalformedDocument naming ``where``."""
    if not isinstance(entry, dict):
        raise MalformedDocument(f"{where}: expected an object")
    return entry


def _list(value, where: str) -> list:
    """``value`` if it is a JSON list, else MalformedDocument naming ``where``."""
    if not isinstance(value, list):
        raise MalformedDocument(f"{where}: expected a list")
    return value


def _field(entry, where: str, key: str):
    """``entry[key]``, or MalformedDocument naming ``where`` or ``where.key``."""
    if key not in _object(entry, where):
        raise MalformedDocument(f"{where}.{key}: missing")
    return entry[key]


def parse_netlist(text: str) -> Circuit:
    """Parse a JSON netlist document into a validated :class:`Circuit`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MalformedDocument("top-level value must be an object")
    for key in ("wires", "inputs", "outputs", "gates", "registers"):
        if key not in doc:
            raise MalformedDocument(f"missing required key {key!r}")
        _list(doc[key], key)

    wires: list[Wire] = []
    names: dict[str, Wire] = {}
    for i, entry in enumerate(doc["wires"]):
        try:
            name, width = entry["name"], int(entry["width"])
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedDocument(f"bad wire entry {entry!r}: {exc}") from None
        if width < 1:
            raise MalformedDocument(f"wire {name!r} has width {width} < 1")
        if name in names:
            raise MalformedDocument(f"duplicate wire name {name!r}")
        src = None
        if entry.get("src") is not None:
            src = SrcLoc(entry["src"]["file"], int(entry["src"]["line"]))
        wire = Wire(i, name, width, src)
        wires.append(wire)
        names[name] = wire

    def resolve(name) -> Wire:
        if not isinstance(name, str) or name not in names:
            raise DanglingReference(str(name))
        return names[name]

    inputs = [resolve(n).uid for n in doc["inputs"]]
    outputs = [resolve(n).uid for n in doc["outputs"]]

    memories = []
    for i, entry in enumerate(_list(doc.get("memories") or [], "memories")):
        where = f"memories[{i}]"
        mid = _field(entry, where, "id")
        depth, width = (int(_field(entry, where, k)) for k in ("depth", "width"))
        if depth < 1 or width < 1:
            raise MalformedDocument(f"memory {mid!r} needs positive depth and width")
        raw = entry.get("init") or []
        if len(raw) > depth:
            raise MalformedDocument(f"memory {mid!r} init longer than depth")
        init = [parse_bits(lit, width) for lit in raw]
        init += [0] * (depth - len(init))
        memories.append(MemoryDecl(mid, depth, width, tuple(init)))
    memory_ids = {m.mid for m in memories}

    gates: list[Gate] = []
    ports_used: dict[tuple[str, str], str] = {}
    for i, entry in enumerate(doc["gates"]):
        kind = _object(entry, f"gates[{i}]").get("kind")
        if kind not in GATE_KINDS:
            raise UnknownGateKind(f"gate #{i}: unknown kind {kind!r}")
        out = resolve(_field(entry, f"gates[{i}]", "output"))
        ins = tuple(resolve(n) for n in _list(
            _field(entry, f"gates[{i}]", "inputs"), f"gates[{i}].inputs"))
        params_doc = entry.get("params") or {}
        params = tuple(sorted(params_doc.items()))
        gate = Gate(i, kind, tuple(w.uid for w in ins), out.uid, params)
        _check_gate_shape(gate, ins, out, params_doc, memory_ids, ports_used)
        gates.append(gate)

    registers: list[Register] = []
    for i, entry in enumerate(doc["registers"]):
        where = f"registers[{i}]"
        win, wout = (resolve(_field(entry, where, k)) for k in ("input", "output"))
        if win.width != wout.width:
            raise WidthMismatch(f"register #{i} ({wout.name})", win.width, wout.width)
        init = parse_bits(_field(entry, where, "init"), wout.width)
        registers.append(Register(i, win.uid, wout.uid, init))

    splits: list[SplitGroup] = []
    for i, entry in enumerate(_list(doc.get("splits") or [], "splits")):
        where = f"splits[{i}]"
        parent = _field(entry, where, "parent")
        width = int(_field(entry, where, "width"))
        members = []
        seen_idx = set()
        for j, m in enumerate(_list(_field(entry, where, "bits"),
                                    f"{where}.bits")):
            w = resolve(_field(m, f"{where}.bits[{j}]", "wire"))
            idx = int(_field(m, f"{where}.bits[{j}]", "index"))
            if w.width != 1:
                raise WidthMismatch(f"split member {w.name!r}", 1, w.width)
            if idx in seen_idx or not 0 <= idx < width:
                raise MalformedDocument(
                    f"split {parent!r}: bad or duplicate bit index {idx}")
            seen_idx.add(idx)
            members.append((w.uid, idx))
        if len(seen_idx) != width:
            raise MalformedDocument(f"split {parent!r}: bit indices must cover 0..{width - 1}")
        splits.append(SplitGroup(parent, width, tuple(members)))

    return Circuit(wires, gates, registers, inputs, outputs, splits, memories)


def _check_gate_shape(gate: Gate, ins: Sequence[Wire], out: Wire,
                      params: Mapping, memory_ids: set[str],
                      ports_used: dict) -> None:
    kind = gate.kind
    where = f"{kind} gate -> {out.name}"
    arity = GATE_KINDS[kind]
    if kind in SHIFT_KINDS:
        has_amount = "amount" in params
        want = 1 if has_amount else 2
        if len(ins) != want:
            raise MalformedDocument(f"{where}: expected {want} inputs, got {len(ins)}")
        if has_amount and int(params["amount"]) < 0:
            raise MalformedDocument(f"{where}: negative shift amount")
    elif len(ins) != arity:
        raise MalformedDocument(f"{where}: expected {arity} inputs, got {len(ins)}")

    def want(cond: bool, expected, actual):
        if not cond:
            raise WidthMismatch(where, expected, actual)

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
        lo = int(params.get("lo", 0))
        want(lo >= 0 and lo + out.width <= ins[0].width, ins[0].width,
             lo + out.width)
    elif kind in ("zext", "sext"):
        want(out.width >= ins[0].width, f">={ins[0].width}", out.width)
    elif kind == "blit":
        lo = int(params.get("lo", 0))
        want(out.width == ins[0].width, ins[0].width, out.width)
        want(lo >= 0 and lo + ins[1].width <= ins[0].width, ins[0].width,
             lo + ins[1].width)
    elif kind == "repeat":
        count = int(params.get("count", 0))
        if count < 1:
            raise MalformedDocument(f"{where}: repeat needs params.count >= 1")
        want(out.width == count * ins[0].width, count * ins[0].width, out.width)
    elif kind == "mux":
        want(ins[0].width == 1, 1, ins[0].width)
        want(ins[1].width == ins[2].width == out.width, out.width, ins[1].width)
    elif kind in ("mem_read", "mem_write"):
        mem_id = params.get("memory")
        if mem_id not in memory_ids:
            raise DanglingReference(str(mem_id))
        port = (mem_id, kind)
        if port in ports_used:
            raise MalformedDocument(
                f"{where}: memory {mem_id!r} already has a {kind} port")
        ports_used[port] = out.name
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

def validate_and_schedule(circuit: Circuit) -> Schedule:
    """Topological order of the combinatorial gates (Kahn, deterministic)."""
    gate_of_output = {g.output: g for g in circuit.gates}
    deps: dict[int, list[int]] = {g.uid: [] for g in circuit.gates}
    rdeps: dict[int, list[int]] = {g.uid: [] for g in circuit.gates}
    for g in circuit.gates:
        for wu in g.inputs:
            drv = gate_of_output.get(wu)
            if drv is not None:
                deps[g.uid].append(drv.uid)
                rdeps[drv.uid].append(g.uid)
    pending = {uid: len(ds) for uid, ds in deps.items()}
    ready = sorted(uid for uid, n in pending.items() if n == 0)
    order: list[int] = []
    qi = 0
    while qi < len(ready):
        uid = ready[qi]
        qi += 1
        order.append(uid)
        for nxt in sorted(rdeps[uid]):
            pending[nxt] -= 1
            if pending[nxt] == 0:
                ready.append(nxt)
    if len(order) != len(circuit.gates):
        raise CombinatorialLoop(_find_cycle(circuit, deps, pending))
    return Schedule(tuple(order))


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


def _consumed_ranks(circuit: Circuit, gate: Gate, input_pos: int) -> bool:
    """True when the gate reads every rank of the input at ``input_pos``."""
    kind = gate.kind
    w_in = circuit.wire(gate.inputs[input_pos]).width
    w_out = circuit.wire(gate.output).width
    if kind == "trunc":
        lo = int(circuit.gate_param(gate, "lo", 0))
        return lo == 0 and w_out == w_in
    if kind in SHIFT_KINDS and input_pos == 0:
        amount = circuit.gate_param(gate, "amount")
        if amount is None:
            return True  # dynamic shift: conservatively a full use
        return int(amount) == 0
    if kind == "blit" and input_pos == 0:
        return circuit.wire(gate.inputs[1]).width == 0  # widths >= 1: never full
    return True


def structural_index(circuit: Circuit) -> StructuralIndex:
    partially_used: set[int] = set()
    mux_roles: dict[int, tuple[int, int, int]] = {}
    mem_write_inputs: set[int] = set()
    for g in circuit.gates:
        for pos, wu in enumerate(g.inputs):
            if not _consumed_ranks(circuit, g, pos):
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
