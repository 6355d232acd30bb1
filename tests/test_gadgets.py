"""Generated gadgets and fixtures: structure, functional correctness,
reproduction of the counterexample valuation tables, random circuits."""

import itertools

import pytest

from probewise import expr as ex, gadgets, sim
from probewise.netlist import parse_netlist, serialize_netlist, \
    validate_and_schedule


def _states(circuit, stimuli, opts=sim.SimOptions()):
    sched = validate_and_schedule(circuit)
    return list(sim.simulate(circuit, sched, stimuli, opts))


def _output_exprs(circuit, stimuli, output_wires):
    state = _states(circuit, stimuli)[-1]
    sim.consistency_check(state, stimuli.witness)
    return [state.current[circuit.by_name[w].uid].symb for w in output_wires]


def _masks(labels):
    return [n for n in labels if labels.kind(n) == ex.MASK]


def _functional_check(circuit, stimuli, spec, d):
    outs = _output_exprs(circuit, stimuli, spec.output_wires)
    names = sorted({n for e in outs for n in ex.symbols_of(e)})
    for values in itertools.product((0, 1), repeat=len(names)):
        assignment = dict(zip(names, values))
        got = 0
        for e in outs:
            got ^= ex.eval_concrete(e, assignment)
        a = b = 0
        for i in range(d + 1):
            a ^= assignment.get(f"a{i}", 0)
            b ^= assignment.get(f"b{i}", 0)
        assert got == (a & b), assignment


@pytest.mark.parametrize("d", [1, 2])
def test_dom_and_functional(d):
    circuit, _, stimuli, spec = gadgets.gen_dom_and(d)
    _functional_check(circuit, stimuli, spec, d)


@pytest.mark.parametrize("d", [1, 2])
def test_isw_and_functional(d):
    circuit, _, stimuli, spec = gadgets.gen_isw_and(d)
    _functional_check(circuit, stimuli, spec, d)


def test_dom_and_d1_structure():
    circuit, labels, _, spec = gadgets.gen_dom_and(1)
    kinds = [g.kind for g in circuit.gates]
    assert kinds.count("bit_and") == 4
    # 2 refresh XORs plus 2 compression XORs
    refresh = [g for g in circuit.gates if g.kind == "bit_xor"
               and circuit.name(g.output).startswith("t")]
    assert len(refresh) == 2
    assert len(circuit.registers) == 2
    assert spec.output_wires == ("c0", "c1")
    assert _masks(labels) == ["z01"]


def test_dom_and_d2_structure():
    circuit, labels, _, spec = gadgets.gen_dom_and(2)
    assert len(spec.output_wires) == 3
    assert len(_masks(labels)) == 3   # d(d+1)/2 fresh masks
    assert len(circuit.registers) == 6


def test_generated_netlists_round_trip():
    for gen in (gadgets.gen_dom_and, gadgets.gen_isw_and):
        circuit, _, _, _ = gen(2)
        text = serialize_netlist(circuit)
        assert serialize_netlist(parse_netlist(text)) == text


def test_counterexample_fixture_names():
    fx = gadgets.gen_counterexamples()
    assert set(fx) == {"fig5", "fig6", "fig7"}


def test_fig6_bit_wires_verify_secure_individually():
    from probewise import manager as mg
    fx = gadgets.gen_counterexamples()["fig6"]
    report = mg.run(fx.circuit, fx.stimuli, fx.labels,
                    mg.LeakageModel(glitches=True, granularity=mg.BIT))
    assert not [e for e in report.flagged()
                if e.wire.startswith(("b0", "b1"))]


def test_fig7_t_minus_1_row():
    fx = gadgets.gen_counterexamples()["fig7"]
    state = _states(fx.circuit, fx.stimuli)[1]
    o0 = state.current[fx.circuit.by_name["o0"].uid]
    assert o0.lset == (frozenset(),) and o0.stab == 1


def test_random_circuit_deterministic_per_seed():
    a = gadgets.gen_random_circuit(123)
    b = gadgets.gen_random_circuit(123)
    assert a.doc == b.doc
    assert serialize_netlist(a.circuit) == serialize_netlist(b.circuit)
    assert a.stimuli.witness == b.stimuli.witness
    assert gadgets.gen_random_circuit(124).doc != a.doc


def test_random_circuits_schedule_and_simulate():
    for seed in range(30):
        fx = gadgets.gen_random_circuit(seed, n_gates=25, cycles=3)
        _states(fx.circuit, fx.stimuli, sim.SimOptions(check_consistency=True))


def test_glitch_model_separates_dom_from_isw_at_order_1():
    from probewise import manager as mg
    model = mg.LeakageModel(glitches=True, granularity=mg.BIT)
    circuit, labels, stimuli, _ = gadgets.gen_dom_and(1)
    dom = mg.run(circuit, stimuli, labels, model)
    assert not dom.flagged()
    circuit, labels, stimuli, _ = gadgets.gen_isw_and(1)
    isw = mg.run(circuit, stimuli, labels, model)
    leaks = [e for e in isw.flagged() if e.verdict.status == "leaks"]
    assert leaks and all(e.verdict.witness is not None for e in leaks)


def test_random_circuit_sinks_are_outputs():
    for seed in range(10):
        fx = gadgets.gen_random_circuit(seed, n_gates=15)
        consumed = set()
        for g in fx.circuit.gates:
            consumed.update(g.inputs)
        consumed.update(r.input for r in fx.circuit.registers)
        for w in fx.circuit.wires:
            if w.uid not in consumed:
                assert w.uid in fx.circuit.outputs
