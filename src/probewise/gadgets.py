"""Benchmark circuit generators: DOM-AND, ISW-AND, the three counterexample
fixtures, and seeded random circuits for property testing.

DOM-AND at order d splits a and b into d+1 shares, refreshes every
cross-domain product with one fresh mask per share pair and registers it
before compression, so glitches cannot cross share domains. ISW-AND is the
classic construction: the same masks, no registers, cross terms folded as
(z ^ a_i b_j) ^ a_j b_i.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Mapping

from . import expr as ex
from .expr import SymbolTable
from .netlist import Circuit, parse_netlist
from .sim import StimulusFrame, Stimuli
from .verify import GadgetSpec


@dataclass
class Fixture:
    name: str
    circuit: Circuit
    labels: SymbolTable
    stimuli: Stimuli
    doc: dict    # the raw netlist document, for serialisation round-trips


def _circuit(doc: dict) -> Circuit:
    return parse_netlist(json.dumps(doc))


def _frames_from_symbols(names: list[str], cycles: int,
                         widths: Mapping[str, int]) -> list[StimulusFrame]:
    frame = StimulusFrame({n: ex.sym(n, widths[n]) for n in names})
    return [frame] * cycles


def _pair_mask(i: int, j: int) -> str:
    lo, hi = min(i, j), max(i, j)
    return f"z{lo}{hi}"


def _share_labels(d: int) -> SymbolTable:
    labels = SymbolTable()
    labels.declare("a", 1, ex.SECRET)
    labels.declare("b", 1, ex.SECRET)
    for i in range(d + 1):
        labels.declare(f"a{i}", 1, ex.SHARE, secret="a", index=i)
        labels.declare(f"b{i}", 1, ex.SHARE, secret="b", index=i)
    for i in range(d + 1):
        for j in range(i + 1, d + 1):
            labels.declare(_pair_mask(i, j), 1, ex.MASK)
    return labels


def _masked_and_witness(d: int, seed: int = 7) -> dict[str, int]:
    rng = random.Random(seed)
    names = [f"a{i}" for i in range(d + 1)] + [f"b{i}" for i in range(d + 1)]
    names += [_pair_mask(i, j) for i in range(d + 1) for j in range(i + 1, d + 1)]
    witness = {n: rng.getrandbits(1) for n in names}
    witness["a"] = 0
    witness["b"] = 0
    for i in range(d + 1):
        witness["a"] ^= witness[f"a{i}"]
        witness["b"] ^= witness[f"b{i}"]
    return witness


def gen_dom_and(d: int, cycles: int = 2) -> tuple[Circuit, SymbolTable,
                                                  Stimuli, GadgetSpec]:
    """DOM masked AND: cross products refreshed and registered before the
    share-wise XOR compression. Needs d(d+1)/2 fresh masks."""
    return _masked_and(d, cycles, registered=True)


def gen_isw_and(d: int, cycles: int = 2) -> tuple[Circuit, SymbolTable,
                                                  Stimuli, GadgetSpec]:
    """ISW masked AND: unregistered cross terms, glitch-sensitive."""
    return _masked_and(d, cycles, registered=False)


def _masked_and(d: int, cycles: int, registered: bool):
    if d < 1:
        raise ValueError("order must be >= 1")
    n = d + 1
    wires = []
    gates = []
    registers = []
    inputs = []

    def wire(name: str):
        wires.append({"name": name, "width": 1})

    def gate(kind: str, out: str, ins: list[str]):
        wire(out)
        gates.append({"kind": kind, "output": out, "inputs": ins})

    for i in range(n):
        wire(f"a{i}")
        wire(f"b{i}")
        inputs += [f"a{i}", f"b{i}"]
    masks = [_pair_mask(i, j) for i in range(n) for j in range(i + 1, n)]
    for m in masks:
        wire(m)
    inputs += masks
    for i in range(n):
        for j in range(n):
            gate("bit_and", f"p{i}{j}", [f"a{i}", f"b{j}"])
    if registered:
        # DOM: t_ij = a_i b_j ^ z_ij, registered as r_ij, folded into c_i
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                gate("bit_xor", f"t{i}{j}", [f"p{i}{j}", _pair_mask(i, j)])
                wire(f"r{i}{j}")
                registers.append({"input": f"t{i}{j}", "output": f"r{i}{j}",
                                  "init": "0b0"})
        terms = [[f"r{i}{j}" for j in range(n) if j != i] for i in range(n)]
        partial = "s"
    else:
        # ISW: v_ij = (z_ij ^ a_i b_j) ^ a_j b_i, the term folded into c_j
        for i in range(n):
            for j in range(i + 1, n):
                gate("bit_xor", f"u{i}{j}", [_pair_mask(i, j), f"p{i}{j}"])
                gate("bit_xor", f"v{i}{j}", [f"u{i}{j}", f"p{j}{i}"])
        terms = [[(_pair_mask(i, j) if i < j else f"v{j}{i}")
                  for j in range(n) if j != i] for i in range(n)]
        partial = "w"
    outputs = [f"c{i}" for i in range(n)]
    for i in range(n):
        acc = f"p{i}{i}"
        for k, term in enumerate(terms[i]):
            out = outputs[i] if k == len(terms[i]) - 1 else f"{partial}{i}_{k}"
            gate("bit_xor", out, [acc, term])
            acc = out

    doc = {"wires": wires, "inputs": inputs, "outputs": outputs,
           "gates": gates, "registers": registers}
    circuit = _circuit(doc)
    labels = _share_labels(d)
    names = sorted(set(inputs))
    stimuli = Stimuli(_masked_and_witness(d),
                      _frames_from_symbols(names, cycles, labels.widths()))
    spec = GadgetSpec(circuit, labels, stimuli,
                      output_wires=tuple(outputs), order=d)
    return circuit, labels, stimuli, spec


# ---------------------------------------------------------------------------
# Counterexample fixtures
# ---------------------------------------------------------------------------

def _km_labels() -> SymbolTable:
    labels = SymbolTable()
    labels.declare("k", 1, ex.SECRET)
    labels.declare("m", 1, ex.MASK)
    return labels


def gen_counterexamples() -> dict[str, Fixture]:
    """The three hand-sized circuits that motivate the wire-selection rules.

    fig5: an AND fed by a swapping masked input; the input leaks in
    transition at the second cycle, the output never does.
    fig6: a 2-bit signal split into two registered 1-bit wires; only the
    recombined parent leaks.
    fig7: an AND that is stable during the first observed cycle; its inputs
    only leak under the t-1 stability extension of the over-approximation.
    """
    out: dict[str, Fixture] = {}
    labels = _km_labels()
    widths = labels.widths()
    xor_km = ex.parse_expr("XOR(k, m)", widths)
    just_m = ex.sym("m", 1)
    zero, one = ex.cst(0, 1), ex.cst(1, 1)

    doc5 = {
        "wires": [{"name": "i0", "width": 1}, {"name": "i1", "width": 1},
                  {"name": "o0", "width": 1}],
        "inputs": ["i0", "i1"],
        "outputs": ["o0"],
        "gates": [{"kind": "bit_and", "output": "o0", "inputs": ["i0", "i1"]}],
        "registers": [],
    }
    frames5 = [StimulusFrame({"i0": zero, "i1": xor_km}),
               StimulusFrame({"i0": one, "i1": just_m})]
    out["fig5"] = Fixture("fig5", _circuit(doc5), labels,
                          Stimuli({"k": 1, "m": 1}, frames5), doc5)

    doc6 = {
        "wires": [{"name": "b0", "width": 1}, {"name": "b1", "width": 1},
                  {"name": "q0", "width": 1}, {"name": "q1", "width": 1}],
        "inputs": ["b0", "b1"],
        "outputs": ["q0", "q1"],
        "gates": [],
        "registers": [{"input": "b0", "output": "q0", "init": "0b0"},
                      {"input": "b1", "output": "q1", "init": "0b0"}],
        "splits": [{"parent": "w", "width": 2,
                    "bits": [{"wire": "b0", "index": 0},
                             {"wire": "b1", "index": 1}]}],
    }
    frames6 = [StimulusFrame({"b0": xor_km, "b1": just_m})] * 2
    out["fig6"] = Fixture("fig6", _circuit(doc6), labels,
                          Stimuli({"k": 1, "m": 1}, frames6), doc6)

    doc7 = {
        "wires": [{"name": "c_in", "width": 1}, {"name": "i0", "width": 1},
                  {"name": "i1", "width": 1}, {"name": "o0", "width": 1}],
        "inputs": ["c_in", "i1"],
        "outputs": ["o0"],
        "gates": [{"kind": "bit_and", "output": "o0", "inputs": ["i0", "i1"]}],
        "registers": [{"input": "c_in", "output": "i0", "init": "0b0"}],
    }
    frames7 = [StimulusFrame({"c_in": zero, "i1": xor_km}),
               StimulusFrame({"c_in": one, "i1": xor_km}),
               StimulusFrame({"c_in": one, "i1": just_m})]
    out["fig7"] = Fixture("fig7", _circuit(doc7), labels,
                          Stimuli({"k": 1, "m": 1}, frames7), doc7)
    return out


# ---------------------------------------------------------------------------
# Random circuits
# ---------------------------------------------------------------------------

_WIDTH_POOL = (1, 1, 2, 3, 4)


def gen_random_circuit(seed: int, n_gates: int = 20, n_inputs: int = 4,
                       n_registers: int = 3, cycles: int = 4,
                       max_symbol_bits_per_cycle: int = 10) -> Fixture:
    """Seeded, deterministic random circuit with labels, stimuli and witness.

    Circuits are acyclic by construction, every sink wire is a primary
    output, and the symbolic input budget per cycle is capped so the glitch
    brute-force oracle stays tractable.
    """
    rng = random.Random(seed)
    wires: list[dict] = []
    gates: list[dict] = []
    registers: list[dict] = []
    by_width: dict[int, list[str]] = {}
    n_wires = 0

    def new_wire(width: int) -> str:
        nonlocal n_wires
        name = f"w{n_wires}"
        n_wires += 1
        wires.append({"name": name, "width": width,
                      "src": {"file": f"rng{seed}.v", "line": n_wires}})
        by_width.setdefault(width, []).append(name)
        return name

    def pick(width: int) -> str:
        pool = by_width.get(width)
        if not pool:
            return new_input(width)
        return rng.choice(pool)

    inputs: list[str] = []

    def new_input(width: int) -> str:
        name = new_wire(width)
        inputs.append(name)
        return name

    for _ in range(n_inputs):
        new_input(rng.choice(_WIDTH_POOL))

    kinds = ["bit_xor"] * 5 + ["bit_and", "bit_or"] * 2 + ["bit_not", "mux"] * 2 \
        + ["add", "sub", "mul", "ucmp", "scmp", "equal", "not_equal",
           "is_zero", "is_neg", "neg", "shl", "shr", "sshr", "trunc",
           "zext", "sext", "blit", "repeat"]
    for gi in range(n_gates):
        kind = rng.choice(kinds)
        if kind in ("bit_and", "bit_or", "bit_xor", "add", "sub", "mul"):
            w = rng.choice(_WIDTH_POOL)
            g = {"kind": kind, "inputs": [pick(w), pick(w)],
                 "output": new_wire(w)}
        elif kind in ("bit_not", "neg"):
            w = rng.choice(_WIDTH_POOL)
            g = {"kind": kind, "inputs": [pick(w)], "output": new_wire(w)}
        elif kind in ("ucmp", "scmp", "equal", "not_equal"):
            w = rng.choice(_WIDTH_POOL)
            g = {"kind": kind, "inputs": [pick(w), pick(w)],
                 "output": new_wire(1)}
        elif kind in ("is_zero", "is_neg"):
            w = rng.choice(_WIDTH_POOL)
            g = {"kind": kind, "inputs": [pick(w)], "output": new_wire(1)}
        elif kind in ("shl", "shr", "sshr"):
            w = rng.choice((2, 3, 4))
            g = {"kind": kind, "inputs": [pick(w)], "output": new_wire(w),
                 "params": {"amount": rng.randrange(0, w + 1)}}
        elif kind == "trunc":
            w = rng.choice((2, 3, 4))
            wo = rng.randrange(1, w + 1)
            lo = rng.randrange(0, w - wo + 1)
            g = {"kind": kind, "inputs": [pick(w)], "output": new_wire(wo),
                 "params": {"lo": lo}}
        elif kind in ("zext", "sext"):
            w = rng.choice((1, 2, 3))
            wo = w + rng.randrange(0, 3)
            g = {"kind": kind, "inputs": [pick(w)], "output": new_wire(wo)}
        elif kind == "blit":
            w = rng.choice((2, 3, 4))
            ws = rng.randrange(1, w + 1)
            lo = rng.randrange(0, w - ws + 1)
            g = {"kind": kind, "inputs": [pick(w), pick(ws)],
                 "output": new_wire(w), "params": {"lo": lo}}
        elif kind == "repeat":
            w = rng.choice((1, 2))
            count = rng.randrange(1, 4 // w + 1)
            g = {"kind": kind, "inputs": [pick(w)],
                 "output": new_wire(w * count), "params": {"count": count}}
        else:  # mux
            w = rng.choice(_WIDTH_POOL)
            g = {"kind": "mux", "inputs": [pick(1), pick(w), pick(w)],
                 "output": new_wire(w)}
        gates.append(g)
        if len(registers) < n_registers and rng.random() < 0.25:
            w = rng.choice(_WIDTH_POOL)
            src = pick(w)
            registers.append({"input": src, "output": new_wire(w),
                              "init": ex.format_bits(rng.getrandbits(w), w)})

    consumed: set[str] = set()
    for g in gates:
        consumed.update(g["inputs"])
    for r in registers:
        consumed.add(r["input"])
    sinks = [w["name"] for w in wires if w["name"] not in consumed]
    doc = {"wires": wires, "inputs": inputs, "outputs": sinks or [wires[-1]["name"]],
           "gates": gates, "registers": registers}
    # occasionally group 1-bit wires into a split parent, as yosys-style
    # wire splitting would
    singles = [w["name"] for w in wires if w["width"] == 1]
    if len(singles) >= 2 and rng.random() < 0.5:
        k = rng.choice((2, 3))
        members = rng.sample(singles, min(k, len(singles)))
        doc["splits"] = [{"parent": f"split{seed}", "width": len(members),
                          "bits": [{"wire": m, "index": i}
                                   for i, m in enumerate(members)]}]
    circuit = _circuit(doc)

    labels = SymbolTable()
    witness: dict[str, int] = {}
    frames: list[StimulusFrame] = []
    width_of = {w["name"]: w["width"] for w in wires}
    for t in range(cycles):
        budget = max_symbol_bits_per_cycle
        drive: dict[str, ex.Expr] = {}
        for name in inputs:
            w = width_of[name]
            if w <= budget and rng.random() < 0.7:
                sym_name = f"x{t}_{name}"
                kind = rng.choice((ex.SECRET, ex.MASK, ex.MASK, ex.PUBLIC))
                labels.declare(sym_name, w, kind)
                witness[sym_name] = rng.getrandbits(w)
                drive[name] = ex.sym(sym_name, w)
                budget -= w
            else:
                drive[name] = ex.cst(rng.getrandbits(w), w)
        frames.append(StimulusFrame(drive))
    return Fixture(f"rng{seed}", circuit, labels, Stimuli(witness, frames), doc)
