"""Mixed-domain simulator: the four domains, registers, memories, stimuli."""

import json

import pytest

from probewise import expr as ex, gadgets, netlist, sim
from probewise.inputs import InputError
from probewise.netlist import SHIFT_KINDS
from probewise.sim import (ConsistencyViolation, SimOptions, Stimuli,
                           StimulusFrame, SymbolicIndexUnhandled,
                           consistency_check, initial_state, parse_stimuli,
                           step_cycle)

import oracles


def _states(circuit, stimuli, opts=SimOptions()):
    sched = netlist.validate_and_schedule(circuit)
    return list(sim.simulate(circuit, sched, stimuli, opts))


def simulate(fixture, opts=SimOptions()):
    return _states(fixture.circuit, fixture.stimuli, opts)


def valuation(state, name):
    return state.current[state.circuit.by_name[name].uid]


def lset_strs(val):
    return [sorted(ex.render(e) for e in s) for s in val.lset]


def test_fig5_full_valuation_table():
    fx = gadgets.gen_counterexamples()["fig5"]
    s0, s1 = simulate(fx)
    km = "OP_XOR(SYMB(k), SYMB(m))"
    # cycle t-1
    i0, i1, o0 = (valuation(s0, n) for n in ("i0", "i1", "o0"))
    assert (ex.render(i0.symb), lset_strs(i0), i0.stab) == ("CST(0b0)", [[]], 0)
    assert (ex.render(i1.symb), lset_strs(i1), i1.stab) == (km, [[km]], 0)
    assert (ex.render(o0.symb), lset_strs(o0), o0.stab) == ("CST(0b0)", [[km]], 0)
    # cycle t
    i0, i1, o0 = (valuation(s1, n) for n in ("i0", "i1", "o0"))
    assert (ex.render(i0.symb), lset_strs(i0), i0.stab) == ("CST(0b1)", [[]], 0)
    assert (ex.render(i1.symb), lset_strs(i1), i1.stab) == \
        ("SYMB(m)", [["SYMB(m)"]], 0)
    assert (ex.render(o0.symb), lset_strs(o0), o0.stab) == \
        ("SYMB(m)", [["SYMB(m)"]], 0)


def test_fig7_stability_rows():
    fx = gadgets.gen_counterexamples()["fig7"]
    _, s1, s2 = simulate(fx)
    # row t-1: the AND output is stable with an empty LeakSet
    o0 = valuation(s1, "o0")
    assert (ex.render(o0.symb), lset_strs(o0), o0.stab) == ("CST(0b0)", [[]], 1)
    i0 = valuation(s1, "i0")
    assert (ex.render(i0.symb), i0.stab) == ("CST(0b0)", 1)
    # row t: everything unstable, o0 now exposes m
    o0 = valuation(s2, "o0")
    assert (ex.render(o0.symb), lset_strs(o0), o0.stab) == \
        ("SYMB(m)", [["SYMB(m)"]], 0)
    assert valuation(s2, "i0").stab == 0


def test_constant_circuit_has_empty_leaksets():
    doc = {
        "wires": [{"name": "a", "width": 2}, {"name": "b", "width": 2},
                  {"name": "o", "width": 2}, {"name": "q", "width": 2}],
        "inputs": ["a", "b"], "outputs": ["o", "q"],
        "gates": [{"kind": "bit_xor", "output": "o", "inputs": ["a", "b"]}],
        "registers": [{"input": "o", "output": "q", "init": "0b00"}],
    }
    circuit = netlist.parse_netlist(json.dumps(doc))
    frame = StimulusFrame({"a": ex.cst(2, 2), "b": ex.cst(3, 2)})
    for state in _states(circuit, Stimuli({}, [frame] * 3)):
        for uid, val in state.current.items():
            assert all(s == frozenset() for s in val.lset)


# ---------------------------------------------------------------------------
# Stability rules (Table "stability computation")
# ---------------------------------------------------------------------------

def _reg_and_circuit():
    # r holds a constant, so at cycle >= 1 it is a stable input of the AND.
    doc = {
        "wires": [{"name": "c", "width": 1}, {"name": "x", "width": 1},
                  {"name": "r", "width": 1}, {"name": "o", "width": 1}],
        "inputs": ["c", "x"], "outputs": ["o"],
        "gates": [{"kind": "bit_and", "output": "o", "inputs": ["r", "x"]}],
        "registers": [{"input": "c", "output": "r", "init": "0b0"}],
    }
    return netlist.parse_netlist(json.dumps(doc))


def test_and_stabilised_by_constant_zero_input():
    circuit = _reg_and_circuit()
    labels = {"m": 1}
    frames = [StimulusFrame({"c": ex.cst(0, 1),
                             "x": ex.sym("m", 1)})] * 2
    s0, s1 = _states(circuit, Stimuli({"m": 1}, frames))
    o0 = s1.current[circuit.by_name["o"].uid]
    # r is stable CST(0) at cycle 1, so the unstable m input cannot glitch o.
    assert o0.stab == 1
    assert o0.lset == (frozenset(),)


def test_or_stabilised_by_constant_one_input():
    doc = {
        "wires": [{"name": "c", "width": 1}, {"name": "x", "width": 1},
                  {"name": "r", "width": 1}, {"name": "o", "width": 1}],
        "inputs": ["c", "x"], "outputs": ["o"],
        "gates": [{"kind": "bit_or", "output": "o", "inputs": ["r", "x"]}],
        "registers": [{"input": "c", "output": "r", "init": "0b1"}],
    }
    circuit = netlist.parse_netlist(json.dumps(doc))
    frames = [StimulusFrame({"c": ex.cst(1, 1),
                             "x": ex.sym("m", 1)})] * 2
    _, s1 = _states(circuit, Stimuli({"m": 0}, frames))
    o = s1.current[circuit.by_name["o"].uid]
    assert o.stab == 1 and o.symb is ex.cst(1, 1)
    assert o.lset == (frozenset(),)


def test_xor_requires_both_stable():
    circuit = _reg_and_circuit()
    doc = json.loads(netlist.serialize_netlist(circuit))
    doc["gates"] = [{"kind": "bit_xor", "output": "o", "inputs": ["r", "x"]}]
    circuit = netlist.parse_netlist(json.dumps(doc))
    frames = [StimulusFrame({"c": ex.cst(0, 1),
                             "x": ex.sym("m", 1)})] * 2
    _, s1 = _states(circuit, Stimuli({"m": 1}, frames))
    assert s1.current[circuit.by_name["o"].uid].stab == 0


def test_register_initial_and_held_stability():
    fx = gadgets.gen_counterexamples()["fig6"]
    s0, s1 = simulate(fx)
    q0_t0 = valuation(s0, "q0")
    assert q0_t0.symb is ex.cst(0, 1) and q0_t0.stab == 1
    assert q0_t0.lset == (frozenset(),)
    # input held at k^m for two cycles: output becomes stable at the second
    # observation after the load, with the singleton LeakSet
    km = ex.parse_expr("XOR(k, m)", {"k": 1, "m": 1})
    q0_t1 = valuation(s1, "q0")
    assert q0_t1.symb is km and q0_t1.stab == 0   # CST(0) -> k^m: a change
    s2 = step_cycle(fx.circuit, netlist.validate_and_schedule(fx.circuit),
                    s1, fx.stimuli.frames[0], fx.stimuli.witness)
    q0_t2 = s2.current[fx.circuit.by_name["q0"].uid]
    assert q0_t2.stab == 1
    assert q0_t2.lset == (frozenset((km,)),)


def test_register_transition_leakset():
    fx = gadgets.gen_counterexamples()["fig5"]
    doc = dict(fx.doc)
    doc["wires"] = doc["wires"] + [{"name": "q", "width": 1}]
    doc["registers"] = [{"input": "i1", "output": "q", "init": "0b0"}]
    doc["outputs"] = ["o0", "q"]
    circuit = netlist.parse_netlist(json.dumps(doc))
    frames = fx.stimuli.frames + [fx.stimuli.frames[1]]
    states = _states(circuit, Stimuli(fx.stimuli.witness, frames))
    q = states[2].current[circuit.by_name["q"].uid]
    # holds m now, held k^m before: both leak, unstable
    assert q.stab == 0
    assert {ex.render(e) for e in q.lset[0]} == \
        {"SYMB(m)", "OP_XOR(SYMB(k), SYMB(m))"}


def test_reset_unstable_option():
    fx = gadgets.gen_counterexamples()["fig6"]
    sched = netlist.validate_and_schedule(fx.circuit)
    state = initial_state(fx.circuit)
    state = step_cycle(fx.circuit, sched, state, fx.stimuli.frames[0],
                       fx.stimuli.witness, SimOptions(reset_unstable=True))
    assert state.current[fx.circuit.by_name["q0"].uid].stab == 0


def _and_gate_fixture():
    fx = gadgets.gen_counterexamples()["fig5"]
    (gate,) = fx.circuit.gates
    return fx.circuit, gate


def _val(symb, lset=None, stab=0, conc=0):
    if lset is None:
        lset = tuple(frozenset(() if b.is_cst else (b,))
                     for b in ex.bits(symb))
    return sim.Valuation(conc, symb, lset, stab)


def test_stab_eval_and_rule_direct():
    circuit, gate = _and_gate_fixture()
    stable_zero = _val(ex.cst(0, 1), stab=1)
    unstable_m = _val(ex.sym("m", 1))
    assert sim.eval_combinational(circuit, gate,
                                  [stable_zero, unstable_m]).stab == 1
    assert sim.eval_combinational(circuit, gate,
                                  [_val(ex.cst(0, 1)), unstable_m]).stab == 0


def test_lset_eval_direct():
    circuit, gate = _and_gate_fixture()
    m = ex.sym("m", 1)
    # unstable output: rank-wise union of the input sets
    out = sim.eval_combinational(circuit, gate,
                                 [_val(ex.cst(1, 1)), _val(m)]).lset
    assert out == (frozenset((m,)),)
    # stable output carries its own symbolic bit
    stable = sim.eval_combinational(
        circuit, gate, [_val(ex.cst(1, 1), stab=1), _val(m, stab=1)]).lset
    assert stable == (frozenset((m,)),)


def test_conc_and_symb_eval_direct():
    circuit, gate = _and_gate_fixture()
    k, m = ex.sym("k", 1), ex.sym("m", 1)
    ones = [_val(k, conc=1), _val(m, conc=1)]
    assert sim.eval_combinational(circuit, gate, ones).conc == 1
    assert sim.eval_combinational(circuit, gate, [_val(k), _val(m)]).symb \
        is ex.build("AND", [k, m])
    assert sim.eval_combinational(
        circuit, gate, [_val(k), _val(ex.cst(0, 1))]).symb is ex.cst(0, 1)


@pytest.mark.parametrize("kind, widths, params, ins, expected", [
    ("bit_and", (2, 2, 2), {}, (0b10, 0b11), 0b10),
    ("sshr", (3, 3), {"amount": 1}, (0b100,), 0b110),
    ("mul", (2, 2, 2), {}, (0b11, 0b11), 0b01),
    ("ucmp", (2, 2, 1), {}, (0b01, 0b10), 1),
    ("scmp", (2, 2, 1), {}, (0b10, 0b01), 1),   # -2 < 1 signed
    ("neg", (3, 3), {}, (0b011,), 0b101),
])
def test_conc_eval_semantics(kind, widths, params, ins, expected):
    names = [f"w{i}" for i in range(len(widths))]
    doc = {
        "wires": [{"name": n, "width": w} for n, w in zip(names, widths)],
        "inputs": names[:-1], "outputs": [names[-1]],
        "gates": [{"kind": kind, "output": names[-1], "inputs": names[:-1],
                   **({"params": params} if params else {})}],
        "registers": [],
    }
    circuit = netlist.parse_netlist(json.dumps(doc))
    vals = [_val(ex.cst(v, w), conc=v) for v, w in zip(ins, widths)]
    assert sim.eval_combinational(circuit, circuit.gates[0],
                                  vals).conc == expected


def test_register_step_direct():
    fx = gadgets.gen_counterexamples()["fig7"]
    (reg,) = fx.circuit.registers
    state = sim.initial_state(fx.circuit)
    v0 = sim.register_step(fx.circuit, reg, state)
    assert v0.symb is ex.cst(0, 1) and v0.stab == 1
    assert sim.register_step(fx.circuit, reg, state,
                             sim.SimOptions(reset_unstable=True)).stab == 0


# ---------------------------------------------------------------------------
# Mux semantics
# ---------------------------------------------------------------------------

def _mux_doc(sel_from_reg: bool):
    wires = [{"name": "s", "width": 1}, {"name": "a", "width": 1},
             {"name": "b", "width": 1}, {"name": "o", "width": 1}]
    registers = []
    gates = [{"kind": "mux", "output": "o", "inputs": ["sel", "a", "b"]}]
    if sel_from_reg:
        wires.append({"name": "sel", "width": 1})
        registers.append({"input": "s", "output": "sel", "init": "0b0"})
    else:
        gates = [{"kind": "mux", "output": "o", "inputs": ["s", "a", "b"]}]
    doc = {"wires": wires, "inputs": ["s", "a", "b"], "outputs": ["o"],
           "gates": gates, "registers": registers}
    return netlist.parse_netlist(json.dumps(doc))


def test_mux_constant_selector_folds():
    circuit = _mux_doc(sel_from_reg=False)
    frames = [StimulusFrame({"s": ex.cst(1, 1),
                             "a": ex.sym("m", 1),
                             "b": ex.sym("mp", 1)})]
    (s0,) = _states(circuit, Stimuli({"m": 0, "mp": 1}, frames))
    o = s0.current[circuit.by_name["o"].uid]
    assert o.symb is ex.sym("mp", 1)    # selector 1 picks in1
    # unstable selector: selector and both data sets union
    assert {ex.render(e) for e in o.lset[0]} == {"SYMB(m)", "SYMB(mp)"}


def test_mux_stable_constant_selector_drops_unselected():
    circuit = _mux_doc(sel_from_reg=True)
    frames = [StimulusFrame({"s": ex.cst(1, 1),
                             "a": ex.sym("m", 1),
                             "b": ex.sym("mp", 1)})] * 3
    states = _states(circuit, Stimuli({"m": 0, "mp": 1}, frames))
    o = states[2].current[circuit.by_name["o"].uid]
    sel = states[2].current[circuit.by_name["sel"].uid]
    assert sel.stab == 1 and sel.symb is ex.cst(1, 1)
    # stable constant selector: only the selected input (in1 = b) contributes
    assert {ex.render(e) for e in o.lset[0]} == {"SYMB(mp)"}


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

def _memory_doc():
    return {
        "wires": [{"name": "idx", "width": 2}, {"name": "out", "width": 2}],
        "inputs": ["idx"], "outputs": ["out"],
        "gates": [{"kind": "mem_read", "output": "out", "inputs": ["idx"],
                   "params": {"memory": "t"}}],
        "registers": [],
        "memories": [{"id": "t", "depth": 4, "width": 2,
                      "init": ["0b11", "0b01", "0b00", "0b10"]}],
    }


def test_mem_read_constant_index():
    circuit = netlist.parse_netlist(json.dumps(_memory_doc()))
    frames = [StimulusFrame({"idx": ex.cst(3, 2)})]
    (s,) = _states(circuit, Stimuli({}, frames))
    out = s.current[circuit.by_name["out"].uid]
    assert out.conc == 0b10 and out.symb is ex.cst(0b10, 2)


def test_mem_read_symbolic_index_unhandled():
    # a symbolic value stored at t[1] makes every later symbolic-index read
    # of t inexact, so it raises; the constant-index read of the write cycle
    # and the write itself are exact
    doc = _memory_doc()
    doc["wires"] += [{"name": "wi", "width": 2}, {"name": "wv", "width": 2},
                     {"name": "ww", "width": 2}]
    doc["inputs"] += ["wi", "wv"]
    doc["gates"].append({"kind": "mem_write", "output": "ww",
                         "inputs": ["wi", "wv"], "params": {"memory": "t"}})
    circuit = netlist.parse_netlist(json.dumps(doc))
    write = {"wi": ex.cst(1, 2), "wv": ex.sym("v", 2)}
    frames = [StimulusFrame({"idx": ex.cst(0, 2), **write}),
              StimulusFrame({"idx": ex.sym("p", 2), **write})]
    stimuli = Stimuli({"p": 1, "v": 2}, frames)
    sched = netlist.validate_and_schedule(circuit)
    states = sim.simulate(circuit, sched, stimuli)
    assert valuation(next(states), "out").symb is ex.cst(0b11, 2)
    with pytest.raises(SymbolicIndexUnhandled,
                       match="memory read at 'out' has a symbolic index into "
                             "a memory holding a symbolic value"):
        next(states)


def test_masked_table_read_is_exact():
    # tp is remasked as tp[i ^ 1] = t[i] ^ 2 for the witness's masks only;
    # every entry is a constant, so a read at the symbolic index p ^ m is
    # exactly ARRAY(tp, p ^ m), over the contents before the cycle's writes,
    # and it equals tp[p ^ m] for every p and m, not just the witness's
    base = [3, 1, 0, 2]
    masked = [0] * 4
    for i in range(4):
        masked[i ^ 1] = base[i] ^ 2
    doc = _memory_doc()
    doc["memories"] = [
        {"id": "tp", "depth": 4, "width": 2,
         "init": [ex.format_bits(v, 2) for v in masked]},
        {"id": "t", "depth": 4, "width": 2,
         "init": [ex.format_bits(v, 2) for v in base]},
    ]
    doc["gates"][0]["params"]["memory"] = "tp"
    circuit = netlist.parse_netlist(json.dumps(doc))
    idx = ex.parse_expr("XOR(p, m)", {"p": 2, "m": 2})
    sched = netlist.validate_and_schedule(circuit)
    witness = {"p": 2, "m": 1}
    state = step_cycle(circuit, sched, initial_state(circuit),
                       StimulusFrame({"idx": idx}), witness)
    out = state.current[circuit.by_name["out"].uid]
    assert out.symb is ex.array_lookup("tp", idx, 2, masked)
    assert ex.render(out.symb) == f"ARRAY(tp, {ex.render(idx)})"
    assert out.conc == base[2] ^ 2 and state.warnings == []
    assert all(ex.eval_concrete(out.symb, {"p": p, "m": m}) == masked[p ^ m]
               for p in range(4) for m in range(4))
    consistency_check(state, witness)
    # index bits contribute to the read's LeakSet
    members = {ex.render(e) for e in out.lset[0]}
    assert any("SYMB(m)" in m for m in members)


def test_mem_write_visible_next_cycle():
    doc = {
        "wires": [{"name": "idx", "width": 1}, {"name": "v", "width": 2},
                  {"name": "w", "width": 2}, {"name": "out", "width": 2}],
        "inputs": ["idx", "v"], "outputs": ["out", "w"],
        "gates": [{"kind": "mem_write", "output": "w", "inputs": ["idx", "v"],
                   "params": {"memory": "t"}},
                  {"kind": "mem_read", "output": "out", "inputs": ["idx"],
                   "params": {"memory": "t"}}],
        "registers": [],
        "memories": [{"id": "t", "depth": 2, "width": 2}],
    }
    circuit = netlist.parse_netlist(json.dumps(doc))
    frames = [StimulusFrame({"idx": ex.cst(1, 1),
                             "v": ex.sym("m", 2)})] * 2
    states = _states(circuit, Stimuli({"m": 3}, frames))
    out0 = states[0].current[circuit.by_name["out"].uid]
    assert out0.symb is ex.cst(0, 2)         # write lands after the cycle
    out1 = states[1].current[circuit.by_name["out"].uid]
    assert out1.symb is ex.sym("m", 2)


def test_a_write_replaces_only_its_memorys_record():
    # t is written each cycle, u is only read
    doc = {
        "wires": [{"name": n, "width": w} for n, w in
                  (("i", 1), ("v", 2), ("w", 2), ("out", 2))],
        "inputs": ["i", "v"], "outputs": ["w", "out"],
        "gates": [{"kind": "mem_write", "output": "w", "inputs": ["i", "v"],
                   "params": {"memory": "t"}},
                  {"kind": "mem_read", "output": "out", "inputs": ["i"],
                   "params": {"memory": "u"}}],
        "registers": [],
        "memories": [{"id": "t", "depth": 2, "width": 2},
                     {"id": "u", "depth": 2, "width": 2,
                      "init": ["0b11", "0b11"]}],
    }
    circuit = netlist.parse_netlist(json.dumps(doc))
    zero, one, two, k = (ex.cst(0, 2), ex.cst(1, 2), ex.cst(2, 2),
                         ex.sym("k", 2))
    drives = [(0, one),        # t[0]: 0 -> 1
              (0, one),        # the same word again
              (0, k),          # k's value is 1: a new term, no new value
              (1, two)]        # t[1]: 0 -> 2
    frames = [StimulusFrame({"i": ex.cst(i, 1), "v": v}) for i, v in drives]
    states = _states(circuit, Stimuli({"k": 1}, frames))
    u = states[0].memories["u"]
    assert u == initial_state(circuit).memories["u"]
    assert all(s.memories["u"] is u for s in states)
    t = [s.memories["t"] for s in states]
    assert [m.conc for m in t] == [(1, 0), (1, 0), (1, 0), (1, 2)]
    assert [m.symb for m in t] == [(one, zero), (one, zero), (k, zero),
                                   (k, two)]
    assert [m.version for m in t] == [1, 1, 1, 2]
    assert t[1] is t[0] and t[2] is not t[1]
    # the repeated cycle reads and writes what the last one did: it settles
    assert [s.settled for s in states] == [False, True, False, False]
    assert states[1].memories is states[0].memories


# ---------------------------------------------------------------------------
# Consistency and determinism
# ---------------------------------------------------------------------------

def test_consistency_on_random_circuits():
    for seed in range(50):
        fx = gadgets.gen_random_circuit(seed, n_gates=20, cycles=8)
        for state in simulate(fx):
            consistency_check(state, fx.stimuli.witness)


def test_dynamic_shift_is_width_mixing():
    doc = {
        "wires": [{"name": "v", "width": 4}, {"name": "n", "width": 2},
                  {"name": "o", "width": 4}],
        "inputs": ["v", "n"], "outputs": ["o"],
        "gates": [{"kind": "shr", "output": "o", "inputs": ["v", "n"]}],
        "registers": [],
    }
    circuit = netlist.parse_netlist(json.dumps(doc))
    frames = [StimulusFrame({"v": ex.sym("m", 4),
                             "n": ex.sym("s", 2)})]
    witness = {"m": 0b1010, "s": 1}
    (st,) = _states(circuit, Stimuli(witness, frames))
    o = st.current[circuit.by_name["o"].uid]
    assert o.conc == 0b0101
    assert o.symb.op == "LSR"
    consistency_check(st, witness)
    # every output rank unions every rank of both inputs
    flat = {ex.render(e) for e in o.lset[0]}
    expected = {ex.render(b) for b in ex.bits(ex.sym("m", 4))} | \
        {ex.render(b) for b in ex.bits(ex.sym("s", 2))}
    assert flat == expected
    assert o.stab == 0


def _shift_by_a_symbol(kinds=SHIFT_KINDS):
    """A gate of each of ``kinds``, named after it, shifting a 4-bit ``v``
    by a 3-bit symbolic amount ``n``, which reaches past the width."""
    doc = {
        "wires": [{"name": "v", "width": 4}, {"name": "n", "width": 3},
                  *({"name": k, "width": 4} for k in kinds)],
        "inputs": ["v", "n"], "outputs": list(kinds),
        "gates": [{"kind": k, "output": k, "inputs": ["v", "n"]}
                  for k in kinds],
        "registers": [],
    }
    return netlist.parse_netlist(json.dumps(doc))


_SHIFT_FRAMES = [StimulusFrame({"v": ex.sym("m", 4), "n": ex.sym("s", 3)})]


def test_shift_values_by_a_symbolic_amount():
    circuit = _shift_by_a_symbol()
    for m in (0b0110, 0b1011):
        for s in range(8):
            (st,) = _states(circuit, Stimuli({"m": m, "s": s}, _SHIFT_FRAMES),
                            SimOptions(check_consistency=True))
            signed = m - 16 if m & 8 else m
            assert [valuation(st, k).conc for k in SHIFT_KINDS] == \
                [(m << s) & 15, m >> s, (signed >> s) & 15]


@pytest.mark.parametrize("kind", SHIFT_KINDS)
def test_a_wrong_shift_value_is_a_consistency_violation(monkeypatch, kind):
    # The term evaluates by ex.shift_value, the gate's value by the
    # simulator's own arithmetic: a fault in the first shows.
    real = ex.shift_value
    monkeypatch.setattr(ex, "shift_value",
                        lambda op, x, s, w: real(op, x, s, w) ^ 1)
    with pytest.raises(ConsistencyViolation) as err:
        _states(_shift_by_a_symbol([kind]),
                Stimuli({"m": 0b1011, "s": 1}, _SHIFT_FRAMES),
                SimOptions(check_consistency=True))
    assert err.value.wire == kind


def test_consistency_fault_injection():
    fx = gadgets.gen_counterexamples()["fig5"]
    (state, _) = simulate(fx)
    uid = fx.circuit.by_name["i1"].uid
    val = state.current[uid]
    state.current[uid] = sim.Valuation(val.conc ^ 1, val.symb, val.lset, val.stab)
    with pytest.raises(ConsistencyViolation) as err:
        consistency_check(state, fx.stimuli.witness)
    assert err.value.wire == "i1"


def test_symbolic_constant_mismatch_detected(monkeypatch):
    # Break the concrete AND on purpose: the constant symbolic value CST(0)
    # then disagrees with the faulty concrete bit and must be reported.
    fx = gadgets.gen_counterexamples()["fig5"]
    real = sim._value_and_term

    def broken(circuit, g, ins, w):
        conc, symb = real(circuit, g, ins, w)
        return (conc ^ 1 if g.kind == "bit_and" else conc), symb

    monkeypatch.setattr(sim, "_value_and_term", broken)
    with pytest.raises(ConsistencyViolation) as err:
        simulate(fx)
    assert err.value.wire == "o0"


_TERM_SWAPS = {"ADD": "SUB", "SUB": "ADD", "AND": "OR", "OR": "AND",
               "XOR": "OR", "ASR": "LSR", "LSL": "LSR", "MUL": "ADD"}


@pytest.mark.parametrize("op", _TERM_SWAPS)
def test_a_wrong_term_operator_is_a_consistency_violation(monkeypatch, op):
    # Build every op term with the operator into instead: the concrete
    # values, computed without any term, then disagree with the terms on
    # some random circuit.
    into = _TERM_SWAPS[op]
    real = ex.build

    def swapped(o, children, params=()):
        return real(into if o == op else o, children, params)

    for seed in range(40):
        fx = gadgets.gen_random_circuit(seed, n_gates=25, cycles=3)
        with monkeypatch.context() as patch:
            patch.setattr(ex, "build", swapped)
            try:
                simulate(fx, SimOptions(check_consistency=True))
            except ConsistencyViolation:
                return
    pytest.fail(f"{op} built as {into} went unnoticed")


@pytest.mark.parametrize("op", ["XOR", "AND", "OR", "ADD", "SUB", "MUL",
                                "CONCAT", "EXTRACT"])
def test_a_wrong_value_rule_is_a_consistency_violation(monkeypatch, op):
    # Flip bit 0 of op's value in the one rule that folds constants,
    # evaluates terms and fills enumeration's columns: the concrete values,
    # computed without it, then disagree with the terms on some random
    # circuit.
    real = ex.apply

    def flipped(o, w, params, children, kids):
        out = real(o, w, params, children, kids)
        return out ^ 1 if o == op else out

    for seed in range(40):
        fx = gadgets.gen_random_circuit(seed, n_gates=25, cycles=3)
        with monkeypatch.context() as patch:
            patch.setattr(ex, "apply", flipped)
            try:
                simulate(fx, SimOptions(check_consistency=True))
            except ConsistencyViolation:
                return
    pytest.fail(f"{op} with a flipped value went unnoticed")


def test_random_circuits_with_dynamic_shifts_are_consistent():
    fixtures = [oracles.dynamic_shift_circuit(seed) for seed in range(40)]
    assert sum(fx is not None for fx in fixtures) > 30
    for fx in filter(None, fixtures):
        simulate(fx, SimOptions(check_consistency=True))


@pytest.mark.parametrize("op", ["LSL", "LSR", "ASR"])
def test_a_wrong_shift_rule_is_a_consistency_violation(monkeypatch, op):
    # Flip bit 0 of op's result in its per-row rule, which evaluates terms
    # and fills enumeration's columns: the concrete values, computed
    # without it, then disagree with the terms on some random circuit whose
    # shifts are by a symbolic amount (a constant one leaves no op term).
    real = ex.int_rule

    def flipped(o, w, params):
        rule = real(o, w, params)
        return (lambda *kids: rule(*kids) ^ 1) if o == op else rule

    for seed in range(40):
        fx = oracles.dynamic_shift_circuit(seed)
        if fx is None:
            continue
        with monkeypatch.context() as patch:
            patch.setattr(ex, "int_rule", flipped)
            try:
                simulate(fx, SimOptions(check_consistency=True))
            except ConsistencyViolation:
                return
    pytest.fail(f"{op} with a flipped value went unnoticed")


def _steady_gate(kind, inputs):
    """Three cycles of one gate ``o`` of ``kind`` over inputs driven alike
    every cycle (s by k, a by CST(0), b by CST(1)); cycle 2 carries o."""
    doc = {"wires": [{"name": n, "width": 1} for n in ("s", "a", "b", "o")],
           "inputs": ["s", "a", "b"], "outputs": ["o"],
           "gates": [{"kind": kind, "output": "o", "inputs": inputs}],
           "registers": []}
    circuit = netlist.parse_netlist(json.dumps(doc))
    frame = StimulusFrame({"s": ex.sym("k", 1), "a": ex.cst(0, 1),
                           "b": ex.cst(1, 1)})
    states = _states(circuit, Stimuli({"k": 1}, [frame] * 3))
    o = circuit.by_name["o"].uid
    assert states[2].current[o] is states[1].current[o]
    return states


def test_carried_symbolic_mux_warns_every_cycle():
    # each state holds its own cycle's warning alone
    states = _steady_gate("mux", ["s", "a", "b"])
    assert [s.warnings for s in states] == [
        [(t, "s", "mux selector is symbolic")] for t in range(3)]
    assert not any(s.settled for s in states)


def test_trivial_set_invariant_on_random_circuits():
    for seed in range(20):
        fx = gadgets.gen_random_circuit(seed + 50, n_gates=18, cycles=3)
        for state in simulate(fx):
            for val in state.current.values():
                for s in val.lset:
                    if s:
                        assert not all(m.is_cst for m in s)


def test_stable_bits_have_singleton_or_empty_sets():
    for seed in range(20):
        fx = gadgets.gen_random_circuit(seed + 80, n_gates=18, cycles=3)
        for state in simulate(fx):
            for val in state.current.values():
                for i in range(val.symb.width):
                    if val.stable(i):
                        allowed = (frozenset(), frozenset((ex.bits(val.symb)[i],)))
                        assert val.lset[i] in allowed


def test_determinism_across_runs():
    def snapshot():
        fx = gadgets.gen_random_circuit(3, n_gates=20, cycles=3)
        rows = []
        for state in simulate(fx):
            for uid in sorted(state.current):
                v = state.current[uid]
                rows.append((uid, v.conc, ex.render(v.symb), v.stab,
                             tuple(tuple(sorted(map(ex.render, s)))
                                   for s in v.lset)))
        return rows
    assert snapshot() == snapshot()


def test_parse_stimuli_round_trip():
    widths = {"k": 1, "m": 1}
    circuit = netlist.parse_netlist(json.dumps({
        "wires": [{"name": "a", "width": 2}, {"name": "b", "width": 1}],
        "inputs": ["a", "b"], "outputs": ["a", "b"], "gates": [],
        "registers": []}))
    text = "\n".join([
        json.dumps({"witness": {"k": "0b1", "m": "0b0"}}),
        json.dumps({"cycle": 0, "inputs": {"a": {"const": "0b10"},
                                           "b": {"symbol": "m"}}}),
        json.dumps({"cycle": 1, "inputs": {"a": {"const": "0b01"},
                                           "b": {"expr": "XOR(k, m)"}}}),
    ])
    stim = parse_stimuli(text, widths, circuit)
    assert stim.witness == {"k": 1, "m": 0}
    assert stim.frames[0].inputs["a"] == ex.cst(2, 2)
    assert ex.render(stim.frames[1].inputs["b"]) == "OP_XOR(SYMB(k), SYMB(m))"
    again = parse_stimuli(sim.dump_stimuli(stim, widths), widths, circuit)
    assert again == stim


def test_parse_stimuli_repeated_frames(monkeypatch):
    # a frame whose inputs equal the last frame's reads no drive again, and
    # its cycle is still read and checked
    circuit, labels, stimuli, _ = gadgets.gen_dom_and(1)
    widths = labels.widths()
    header, frame = sim.dump_stimuli(stimuli, widths).splitlines()[:2]
    held = json.loads(frame)["inputs"]
    name = min(held)
    width = next(w.width for w in circuit.wires if w.name == name)
    other = {**held, name: {"const": "0b" + "0" * width}}
    fresh = [held, held, other, other, other, held, held]
    lines = [header] + [json.dumps({"cycle": t, "inputs": inputs})
                        for t, inputs in enumerate(fresh)]
    read_drive, read = sim._read_drive, []

    def counted_read_drive(*args):
        read.append(args[1])
        return read_drive(*args)

    monkeypatch.setattr(sim, "_read_drive", counted_read_drive)
    stim = parse_stimuli("\n".join(lines), widths, circuit)
    assert len(read) == 3 * len(circuit.inputs)   # frames 0, 2 and 5
    for inputs, parsed in zip(fresh, stim.frames):
        alone = json.dumps({"cycle": 0, "inputs": inputs})
        assert parsed == parse_stimuli(f"{header}\n{alone}", widths,
                                       circuit).frames[0]
    for bad, error in (
            ({"cycle": -1}, "cycle: expected a non-negative integer, got -1"),
            ({"cycle": "2"}, "cycle: expected a non-negative integer"),
            ({"cycle": 9}, None)):
        last = {**json.loads(lines[-1]), **bad}
        broken = "\n".join([*lines[:-1], json.dumps(last)])
        with pytest.raises(InputError) as exc:
            parse_stimuli(broken, widths, circuit)
        assert str(exc.value).startswith(
            f"stimuli line {len(lines)}: {error}" if error else
            "stimuli: cycles must be 0..n-1 without gaps"), str(exc.value)


def test_step_cycle_under_another_witness_recomputes():
    # the same drives under another witness change concrete values only
    fx = gadgets.gen_counterexamples()["fig5"]
    sched = netlist.validate_and_schedule(fx.circuit)
    frame = fx.stimuli.frames[0]
    state = step_cycle(fx.circuit, sched, initial_state(fx.circuit), frame,
                       fx.stimuli.witness)
    flipped = {**fx.stimuli.witness, "k": fx.stimuli.witness["k"] ^ 1}
    state = step_cycle(fx.circuit, sched, state, frame, flipped)
    consistency_check(state, flipped)


def test_a_held_input_is_not_evaluated_again(monkeypatch):
    # the same drive under the same witness has the same concrete value
    circuit, _, stimuli, _ = gadgets.gen_dom_and(2, cycles=40)
    schedule = netlist.validate_and_schedule(circuit)
    drives = {id(e) for frame in stimuli.frames for e in frame.inputs.values()}
    eval_concrete = ex.eval_concrete
    calls = []

    def counting(e, *args):
        calls.append(id(e) in drives)
        return eval_concrete(e, *args)

    for opts in (SimOptions(), SimOptions(check_consistency=True)):
        # calls per cycle: to the inputs' drives, and in all
        per_cycle = []
        with monkeypatch.context() as patch:
            patch.setattr(ex, "eval_concrete", counting)
            for state in sim.simulate(circuit, schedule, stimuli, opts):
                per_cycle.append((sum(calls), len(calls), state.settled))
                calls.clear()
        consistency_check(state, stimuli.witness)
        if not opts.check_consistency:
            assert per_cycle[0] == (len(circuit.inputs),) * 2 + (False,)
        first = next(t for t, (*_, settled) in enumerate(per_cycle)
                     if settled)
        assert first < 5
        assert per_cycle[first + 1:] == [(0, 0, True)] * (39 - first)


def test_missing_stimulus_is_an_error():
    fx = gadgets.gen_counterexamples()["fig5"]
    sched = netlist.validate_and_schedule(fx.circuit)
    with pytest.raises(sim.SimError):
        step_cycle(fx.circuit, sched, initial_state(fx.circuit),
                   StimulusFrame({"i0": ex.cst(0, 1)}),
                   fx.stimuli.witness)
