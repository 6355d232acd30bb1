"""Manager: expression sets per model, wire selection, cache, runs, duplets."""

import collections
import itertools
import json
import math
import operator
import random

import pytest

from probewise import expr as ex, gadgets, manager as mg, netlist, sim
from probewise import verify as vf
from probewise.manager import (BIT, SUPPORT_WISE, LeakageModel, RunOptions,
                               expr_sets_for, recombine_split_wires, run,
                               wires_to_verify)
from probewise.verify import make_expr_set

import oracles


def _states(fixture):
    sched = netlist.validate_and_schedule(fixture.circuit)
    return list(sim.simulate(fixture.circuit, sched, fixture.stimuli))


def _set_strs(eset):
    return {ex.render(e) for e in eset}


KM = "OP_XOR(SYMB(k), SYMB(m))"


# ---------------------------------------------------------------------------
# Expression sets (Table "expressions to verify")
# ---------------------------------------------------------------------------

def test_expr_sets_fig5_transition_model():
    fx = gadgets.gen_counterexamples()["fig5"]
    s1 = _states(fx)[1]
    model = LeakageModel(transitions=True)
    i1 = s1.current[fx.circuit.by_name["i1"].uid]
    i1_prev = s1.previous[fx.circuit.by_name["i1"].uid]
    ((rank, eset),) = expr_sets_for(i1, i1_prev, model)
    assert rank is None and _set_strs(eset) == {KM, "SYMB(m)"}
    o0 = s1.current[fx.circuit.by_name["o0"].uid]
    o0_prev = s1.previous[fx.circuit.by_name["o0"].uid]
    ((_, eset0),) = expr_sets_for(o0, o0_prev, model)
    assert _set_strs(eset0) == {"SYMB(m)"}   # CST(0) filtered out


def test_expr_sets_all_four_models():
    fx = gadgets.gen_counterexamples()["fig5"]
    s1 = _states(fx)[1]
    i1 = s1.current[fx.circuit.by_name["i1"].uid]
    prev = s1.previous[fx.circuit.by_name["i1"].uid]

    def one(model):
        ((_, eset),) = expr_sets_for(i1, prev, model)
        return _set_strs(eset)

    assert one(LeakageModel()) == {"SYMB(m)"}
    assert one(LeakageModel(transitions=True)) == {KM, "SYMB(m)"}
    assert one(LeakageModel(glitches=True)) == {"SYMB(m)"}
    assert one(LeakageModel(glitches=True, transitions=True)) == \
        {KM, "SYMB(m)"}
    assert one(LeakageModel(glitches=True, transitions=True,
                            overapprox=True)) == {KM, "SYMB(m)"}


def test_expr_sets_bit_granularity():
    labels = {"k": 2, "m": 2}
    e = ex.parse_expr("XOR(k, m)", labels)
    val = sim.Valuation(0, e, tuple(frozenset((b,)) for b in ex.bits(e)), 0)
    model = LeakageModel(granularity=BIT)
    sets = expr_sets_for(val, val, model)
    assert len(sets) == 2
    assert sets[0][0] == 0 and sets[1][0] == 1
    # compared as interned terms: the rendered operand order of XOR follows
    # the intern history of earlier tests
    k, m = ex.sym("k", 2), ex.sym("m", 2)
    for rank, (_, eset) in enumerate(sets):
        assert set(eset) == {ex.build("XOR", [ex.bit(k, rank), ex.bit(m, rank)])}


def test_model_invariants():
    with pytest.raises(ValueError):
        LeakageModel(granularity=SUPPORT_WISE, use_stability=False)
    with pytest.raises(ValueError):
        LeakageModel(overapprox=True)   # needs glitches and transitions
    assert LeakageModel.rr1sw().facet == "transition+glitch"


# ---------------------------------------------------------------------------
# Wire selection (Table "wires to verify")
# ---------------------------------------------------------------------------

def test_all_wires_for_value_and_transition_models():
    fx = gadgets.gen_counterexamples()["fig5"]
    s1 = _states(fx)[1]
    index = netlist.structural_index(fx.circuit)
    for model in (LeakageModel(), LeakageModel(transitions=True),
                  LeakageModel(glitches=True, transitions=True)):
        units = wires_to_verify(fx.circuit, index, model, s1)
        assert set(units) >= {w.uid for w in fx.circuit.wires}


def test_glitch_model_reduces_wires():
    # one register, no stable gates: register input + outputs only
    fx = gadgets.gen_counterexamples()["fig5"]
    doc = dict(fx.doc)
    doc["wires"] = doc["wires"] + [{"name": "q", "width": 1}]
    doc["registers"] = [{"input": "o0", "output": "q", "init": "0b0"}]
    doc["outputs"] = ["q"]
    import json
    circuit = netlist.parse_netlist(json.dumps(doc))
    sched = netlist.validate_and_schedule(circuit)
    state = next(sim.simulate(circuit, sched, fx.stimuli))
    index = netlist.structural_index(circuit)
    units = wires_to_verify(circuit, index, LeakageModel(glitches=True), state)
    names = {circuit.name(u) for u in units}
    assert names == {"o0", "q"}


def test_fig7_past_stability_selects_and_inputs():
    fx = gadgets.gen_counterexamples()["fig7"]
    s2 = _states(fx)[2]
    index = netlist.structural_index(fx.circuit)
    model = LeakageModel(glitches=True, transitions=True, overapprox=True)
    names = {fx.circuit.name(u)
             for u in wires_to_verify(fx.circuit, index, model, s2)}
    assert {"i0", "i1"} <= names   # inputs of the gate stable at t-1
    narrowed = LeakageModel(glitches=True)
    now_only = {fx.circuit.name(u)
                for u in wires_to_verify(fx.circuit, index, narrowed, s2)}
    assert "i1" not in now_only


# ---------------------------------------------------------------------------
# Split recombination
# ---------------------------------------------------------------------------

def test_recombine_fig6_parent():
    fx = gadgets.gen_counterexamples()["fig6"]
    s0 = _states(fx)[0]
    parent = recombine_split_wires(fx.circuit, s0.current, "w")
    assert ex.render(parent.symb) == \
        "OP_CONCAT(SYMB(m), OP_XOR(SYMB(k), SYMB(m)))"
    flat = {ex.render(e) for s in parent.lset for e in s}
    assert flat == {KM, "SYMB(m)"}


def test_recombine_random_splits_concretely():
    rng = random.Random(11)
    import json
    for trial in range(20):
        width = rng.choice((2, 3, 4))
        perm = list(range(width))
        rng.shuffle(perm)
        doc = {
            "wires": [{"name": f"b{i}", "width": 1} for i in range(width)],
            "inputs": [f"b{i}" for i in range(width)],
            "outputs": [f"b{i}" for i in range(width)],
            "gates": [], "registers": [],
            "splits": [{"parent": "p", "width": width,
                        "bits": [{"wire": f"b{i}", "index": perm[i]}
                                 for i in range(width)]}],
        }
        circuit = netlist.parse_netlist(json.dumps(doc))
        sched = netlist.validate_and_schedule(circuit)
        labels = {f"x{i}": 1 for i in range(width)}
        frame = sim.StimulusFrame({f"b{i}": ex.sym(f"x{i}", 1)
                                   for i in range(width)})
        witness = {f"x{i}": rng.getrandbits(1) for i in range(width)}
        (state,) = sim.simulate(circuit, sched, sim.Stimuli(witness, [frame]))
        parent = recombine_split_wires(circuit, state.current, "p")
        assert ex.eval_concrete(parent.symb, witness) == parent.conc
        packed = 0
        for i in range(width):
            packed |= witness[f"x{i}"] << perm[i]
        assert parent.conc == packed


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def test_run_fig5_flags_exactly_i1():
    fx = gadgets.gen_counterexamples()["fig5"]
    report = run(fx.circuit, fx.stimuli, fx.labels,
                 LeakageModel(transitions=True))
    assert sorted({e.cycle for e in report.flagged()}) == [1]
    assert [(e.cycle, e.wire) for e in report.flagged()] == [(1, "i1")]
    assert report.summary.leaking_cycles == 1


def test_run_rejects_a_higher_order_model():
    fx = gadgets.gen_counterexamples()["fig5"]
    with pytest.raises(ValueError, match="verify_higher_order"):
        run(fx.circuit, fx.stimuli, fx.labels,
            LeakageModel(transitions=True, order=2))


def test_run_fig6_support_wise_vs_bit():
    fx = gadgets.gen_counterexamples()["fig6"]
    sw = run(fx.circuit, fx.stimuli, fx.labels,
             LeakageModel(glitches=True, granularity=SUPPORT_WISE))
    assert {e.wire for e in sw.flagged()} == {"w"}
    bit = run(fx.circuit, fx.stimuli, fx.labels,
              LeakageModel(glitches=True, granularity=BIT))
    assert not bit.flagged()


def test_cache_transparency():
    fx = gadgets.gen_random_circuit(17, n_gates=20, cycles=4)
    model = LeakageModel(glitches=True, transitions=True)
    with_cache = run(fx.circuit, fx.stimuli, fx.labels, model)
    without = run(fx.circuit, fx.stimuli, fx.labels, model,
                  RunOptions(use_cache=False))
    key = lambda rep: sorted((e.cycle, e.wire, e.verdict.status)
                             for e in rep.entries)
    assert key(with_cache) == key(without)
    assert without.summary.cache_hits == 0
    assert with_cache.summary.verified_expr <= without.summary.verified_expr
    for rep in (with_cache, without):
        assert rep.summary.cache_hits + rep.summary.verified_expr == \
            len(rep.entries)


def test_report_determinism():
    fx = gadgets.gen_random_circuit(23, n_gates=18, cycles=3)
    model = LeakageModel(glitches=True, transitions=True, overapprox=True)
    a = run(fx.circuit, fx.stimuli, fx.labels, model).to_jsonl()
    b = run(fx.circuit, fx.stimuli, fx.labels, model).to_jsonl()
    assert a == b


def test_stop_on_first_leak():
    fx = gadgets.gen_counterexamples()["fig5"]
    report = run(fx.circuit, fx.stimuli, fx.labels,
                 LeakageModel(transitions=True),
                 RunOptions(stop_on_first_leak=True))
    flagged = report.flagged()
    assert len(flagged) == 1
    # entries are built on each access: equal, field by field
    assert report.entries[-1] == flagged[0]
    assert report.summary.cycles == flagged[0].cycle + 1   # run terminates


@pytest.mark.parametrize("model", [LeakageModel(),
                                   LeakageModel(transitions=True),
                                   LeakageModel(glitches=True,
                                                granularity=BIT)],
                         ids=["0,0", "0,1", "1,0-bit"])
def test_stop_on_first_leak_decides_only_what_it_reports(model):
    # a set after the first leak is neither decided nor counted: every
    # reported entry is one cache hit or one decision
    for seed in range(40):
        fx = gadgets.gen_random_circuit(seed, n_gates=18, cycles=3)
        for cache in (True, False):
            report = run(fx.circuit, fx.stimuli, fx.labels, model,
                         RunOptions(stop_on_first_leak=True, use_cache=cache))
            assert report.summary.cache_hits + report.summary.verified_expr \
                == len(report.entries), (seed, cache)


LONG_TRACE_MODELS = [LeakageModel(granularity=BIT),
                     LeakageModel(transitions=True, granularity=BIT),
                     LeakageModel(glitches=True, granularity=BIT),
                     LeakageModel(glitches=True, transitions=True,
                                  granularity=BIT),
                     LeakageModel.rr1sw()]


@pytest.mark.parametrize("model", LONG_TRACE_MODELS,
                         ids=["0,0", "0,1", "1,0", "1,1", "rr1sw"])
@pytest.mark.parametrize("gen", [gadgets.gen_dom_and, gadgets.gen_isw_and],
                         ids=["dom_and", "isw_and"])
def test_cache_on_and_off_give_the_same_entry_lines(gen, model):
    # a settled cycle replays last cycle's entries only with the cache on;
    # with it off every request is decided and rendered again
    circuit, labels, stimuli, _ = gen(2, cycles=20)

    def entry_lines(**options):
        reports = [run(circuit, stimuli, labels, model,
                       RunOptions(use_cache=cache, **options))
                   for cache in (True, False)]
        for report in reports:
            assert report.summary.cache_hits + report.summary.verified_expr \
                == len(report.entries)
        lines = [report.to_jsonl().splitlines()[:-1] for report in reports]
        assert lines[0] == lines[1]
        return reports[0]

    full = entry_lines()
    stopped = entry_lines(stop_on_first_leak=True)
    assert len(stopped.flagged()) == min(1, len(full.flagged()))


def test_report_lines_encode_each_entry():
    # to_jsonl encodes an entry's fields other than its cycle once per
    # distinct tail; every line must still be the entry's own encoding
    fig5, fig6 = (gadgets.gen_counterexamples()[name]
                  for name in ("fig5", "fig6"))
    doc = json.loads(netlist.serialize_netlist(fig5.circuit))
    doc["wires"][1]["src"] = {"file": "fig5.v", "line": 7}    # i1 leaks
    with_src = netlist.parse_netlist(json.dumps(doc))
    reports = [run(fig5.circuit, fig5.stimuli, fig5.labels,
                   LeakageModel(transitions=True)),
               # i1 is secure at both cycles, with other members at each
               run(fig5.circuit, fig5.stimuli, fig5.labels, LeakageModel()),
               run(fig6.circuit, fig6.stimuli, fig6.labels, LeakageModel(),
                   RunOptions(enum_limit=0)),
               run(with_src, fig5.stimuli, fig5.labels,
                   LeakageModel(transitions=True))]
    entries = [e for report in reports for e in report.entries]
    assert any(e.verdict.witness is not None for e in entries)
    assert any(e.verdict.reason for e in entries)
    assert any(e.src is not None and e.verdict.witness is not None
               for e in entries)
    for report in reports:
        lines = report.to_jsonl().splitlines()
        assert len(lines) == len(report.entries) + 1
        for e, line in zip(report.entries, lines):
            assert line == json.dumps(e.to_json(), sort_keys=True)


def test_overapprox_counters():
    # rr1sw's expr_to_verify counts what the same model without the
    # over-approximation dispatches.
    fixtures = [gadgets.gen_dom_and(1)[:3], gadgets.gen_isw_and(2)[:3]]
    for seed in (1, 17, 23):
        fx = gadgets.gen_random_circuit(seed, n_gates=20, cycles=4)
        fixtures.append((fx.circuit, fx.labels, fx.stimuli))
    for circuit, labels, stimuli in fixtures:
        report = run(circuit, stimuli, labels, LeakageModel.rr1sw())
        std = run(circuit, stimuli, labels, LeakageModel(glitches=True,
                                                         transitions=True))
        assert std.summary.expr_to_verify == std.summary.verified_expr
        assert report.summary.expr_to_verify == std.summary.verified_expr
        assert report.summary.verified_expr <= report.summary.expr_to_verify


def test_bit_flags_imply_support_wise_flags(monkeypatch):
    monkeypatch.setattr(mg, "wires_to_verify", oracles.every_unit)
    for seed in (2, 5, 8, 13):
        fx = gadgets.gen_random_circuit(seed + 300, n_gates=18, cycles=3)
        bit_rep = run(fx.circuit, fx.stimuli, fx.labels,
                      LeakageModel(glitches=True, granularity=BIT))
        sw_rep = run(fx.circuit, fx.stimuli, fx.labels,
                     LeakageModel(glitches=True, granularity=SUPPORT_WISE))
        sw_flagged = {(e.cycle, e.wire) for e in sw_rep.flagged()}
        for e in bit_rep.flagged():
            wire = e.wire.rsplit("[", 1)[0]
            assert (e.cycle, wire) in sw_flagged


def test_model_inclusion_on_random_circuits(monkeypatch):
    monkeypatch.setattr(mg, "wires_to_verify", oracles.every_unit)
    for seed in (1, 4, 7):
        fx = gadgets.gen_random_circuit(seed + 400, n_gates=16, cycles=3,
                                        max_symbol_bits_per_cycle=6)
        flags = {}
        for g, t in ((1, 1), (0, 0), (0, 1), (1, 0)):
            model = LeakageModel(glitches=bool(g), transitions=bool(t))
            rep = run(fx.circuit, fx.stimuli, fx.labels, model)
            flags[(g, t)] = {(e.cycle, e.wire) for e in rep.flagged()}
        for weaker in ((0, 0), (0, 1), (1, 0)):
            assert flags[weaker] <= flags[(1, 1)]


def test_warning_on_symbolic_mux_selector():
    import json
    doc = {
        "wires": [{"name": "s", "width": 1}, {"name": "a", "width": 1},
                  {"name": "b", "width": 1}, {"name": "o", "width": 1}],
        "inputs": ["s", "a", "b"], "outputs": ["o"],
        "gates": [{"kind": "mux", "output": "o", "inputs": ["s", "a", "b"]}],
        "registers": [],
    }
    circuit = netlist.parse_netlist(json.dumps(doc))
    labels = ex.SymbolTable()
    labels.declare("m", 1, ex.MASK)
    frames = [sim.StimulusFrame({"s": ex.sym("m", 1),
                                 "a": ex.cst(0, 1),
                                 "b": ex.cst(1, 1)})]
    report = run(circuit, sim.Stimuli({"m": 1}, frames), labels,
                 LeakageModel())
    assert report.warnings == [(0, "s", "mux selector is symbolic")]


# ---------------------------------------------------------------------------
# Settled cycles are replayed
# ---------------------------------------------------------------------------

def _replays(monkeypatch, circuit, stimuli, labels, model, options=None):
    """Check ``run``'s report against the same run with no settled state,
    which takes every cycle's full path; return the number of cycles whose
    state and the one before were settled."""
    options = options or RunOptions()
    with monkeypatch.context() as patch:
        patch.setattr(sim, "step_cycle", oracles.unsettled_step(sim.step_cycle))
        want = run(circuit, stimuli, labels, model, options)
    got = run(circuit, stimuli, labels, model, options)
    assert got.to_jsonl() == want.to_jsonl()
    cycle_wire = [(e.cycle, e.wire) for e in got.entries]
    assert cycle_wire == sorted(cycle_wire)
    assert got.entries == want.entries
    assert got.summary == want.summary
    assert got.warnings == want.warnings
    settled = [s.settled for s in mg._simulate(circuit, stimuli, model,
                                               options)]
    return sum(map(operator.and_, settled, settled[1:]))


@pytest.mark.parametrize("model", LONG_TRACE_MODELS,
                         ids=["0,0", "0,1", "1,0", "1,1", "rr1sw"])
def test_a_replayed_cycle_is_the_last_cycles_block(monkeypatch, model):
    # nothing of a replayed cycle is copied, and to_jsonl encodes each
    # distinct tail once however many cycles share it
    circuit, labels, stimuli, _ = gadgets.gen_dom_and(3, cycles=100)
    report = run(circuit, stimuli, labels, model)
    settled = [s.settled for s in mg._simulate(circuit, stimuli, model,
                                               RunOptions())]
    replayed = [t for t in range(1, 100) if settled[t - 1] and settled[t]]
    assert len(replayed) >= 90
    assert [t for t, _ in report.cycles] == list(range(100))
    for t in replayed:
        assert report.cycles[t][1] is report.cycles[t - 1][1]

    encoded = []
    to_json = mg.ReportEntry.to_json
    monkeypatch.setattr(mg.ReportEntry, "to_json",
                        lambda e: encoded.append(e) or to_json(e))
    lines = report.to_jsonl().splitlines()[:-1]
    assert len(lines) == sum(len(block) for _, block in report.cycles)
    assert len(encoded) == len({line.split(", ", 1)[1] for line in lines})


def test_a_fresh_share_trace_is_secure_in_every_cycle():
    # new secrets, shares and masks every cycle: no cycle replays, and every
    # entry is decided on labels that grow by two sharings a cycle
    circuit, labels, stimuli = oracles.fresh_share_trace(2, 100)
    report = run(circuit, stimuli, labels,
                 LeakageModel(glitches=True, transitions=True))
    assert report.summary.to_json() == {
        "cycles": 100, "leaking_cycles": 0, "expr_to_verify": 3588,
        "verified_expr": 3588, "cache_hits": 6, "trivial_skipped": 6}
    assert len(report.entries) == 3594 and not report.flagged()


def _driven(doc, frames):
    """``doc``'s circuit with input w driven at cycle t by ``frames[t][w]``:
    the secret k, the mask m or n, or the constant 0."""
    labels = ex.SymbolTable()
    labels.declare("k", 1, ex.SECRET)
    labels.declare("m", 1, ex.MASK)
    labels.declare("n", 1, ex.MASK)
    frames = [sim.StimulusFrame({w: ex.sym(d, labels.width(d)) if d
                                 else ex.cst(0, 1)
                                 for w, d in frame.items()})
              for frame in frames]
    stimuli = sim.Stimuli({"k": 1, "m": 0, "n": 1}, frames)
    return netlist.parse_netlist(json.dumps(doc)), stimuli, labels


def _one_wire_run(drives):
    """An input ``b`` and its negation ``o``, ``b`` driven by ``drives[t]``
    at cycle t."""
    doc = {"wires": [{"name": n, "width": 1} for n in ("b", "o")],
           "inputs": ["b"], "outputs": ["o"],
           "gates": [{"kind": "bit_not", "output": "o", "inputs": ["b"]}],
           "registers": []}
    return _driven(doc, [{"b": d} for d in drives])


@pytest.mark.parametrize("cache", [True, False], ids=["cache", "no-cache"])
@pytest.mark.parametrize("model", LONG_TRACE_MODELS,
                         ids=["0,0", "0,1", "1,0", "1,1", "rr1sw"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("gen", [gadgets.gen_dom_and, gadgets.gen_isw_and],
                         ids=["dom_and", "isw_and"])
def test_replayed_cycles_equal_the_full_path_on_gadgets(monkeypatch, gen, d,
                                                        model, cache):
    circuit, labels, stimuli, _ = gen(d, cycles=12)
    assert _replays(monkeypatch, circuit, stimuli, labels, model,
                    RunOptions(use_cache=cache)) >= 8


def test_replayed_cycles_equal_the_full_path_on_random_circuits(monkeypatch):
    # each circuit's last frame held for 5 more cycles
    replayed = 0
    for seed in range(30):
        fx = gadgets.gen_random_circuit(seed, n_gates=20, cycles=4)
        frames = fx.stimuli.frames + [fx.stimuli.frames[-1]] * 5
        replayed += _replays(monkeypatch, fx.circuit,
                             sim.Stimuli(fx.stimuli.witness, frames),
                             fx.labels, LeakageModel.rr1sw())
    assert replayed > 0


def test_a_cycle_replays_only_after_two_settled_states(monkeypatch):
    # b changes from m to n at cycle 1 and then holds: state 2 is the first
    # settled one, but its transition set still differs from cycle 1's
    circuit, stimuli, labels = _one_wire_run(["m", "n", "n", "n", "n"])
    model = LeakageModel(transitions=True)
    assert _replays(monkeypatch, circuit, stimuli, labels, model) == 2
    report = run(circuit, stimuli, labels, model)
    exprs = {e.cycle: list(e.exprs) for e in report.entries if e.wire == "b"}
    assert exprs == {0: ["SYMB(m)"], 1: ["SYMB(m)", "SYMB(n)"],
                     2: ["SYMB(n)"], 3: ["SYMB(n)"], 4: ["SYMB(n)"]}


def test_a_change_after_replayed_cycles_is_decided(monkeypatch):
    # b holds the mask m, then carries the secret k: the run stops there
    circuit, stimuli, labels = _one_wire_run(["m"] * 5 + ["k", "m"])
    options = RunOptions(stop_on_first_leak=True)
    assert _replays(monkeypatch, circuit, stimuli, labels, LeakageModel(),
                    options) == 3
    report = run(circuit, stimuli, labels, LeakageModel(), options)
    assert report.summary.cycles == 6
    assert [(e.cycle, e.wire) for e in report.flagged()] == [(5, "b")]
    circuit, labels, stimuli, _ = gadgets.gen_isw_and(2, cycles=12)
    for model in LONG_TRACE_MODELS:
        _replays(monkeypatch, circuit, stimuli, labels, model, options)


def test_a_symbolic_mux_warns_in_every_cycle(monkeypatch):
    doc = {"wires": [{"name": n, "width": 1} for n in ("s", "a", "c", "o")],
           "inputs": ["s", "a", "c"], "outputs": ["o"],
           "gates": [{"kind": "mux", "output": "o", "inputs": ["s", "a", "c"]}],
           "registers": []}
    circuit, stimuli, labels = _driven(doc, [{"s": "k", "a": "m", "c": "n"}]
                                       * 6)
    for model in LONG_TRACE_MODELS:
        _replays(monkeypatch, circuit, stimuli, labels, model)
        states = mg._simulate(circuit, stimuli, model, RunOptions())
        assert [s.warnings for s in states] == [
            [(t, "s", "mux selector is symbolic")] for t in range(6)]
        report = run(circuit, stimuli, labels, model)
        assert report.warnings == [(t, "s", "mux selector is symbolic")
                                   for t in range(6)]


def test_a_memory_written_every_cycle_is_decided_alike(monkeypatch):
    doc = {"wires": [{"name": n, "width": 1}
                     for n in ("wi", "a", "ww", "ri", "o")],
           "inputs": ["wi", "a", "ri"], "outputs": ["ww", "o"],
           "gates": [{"kind": "mem_write", "output": "ww",
                      "inputs": ["wi", "a"], "params": {"memory": "t"}},
                     {"kind": "mem_read", "output": "o", "inputs": ["ri"],
                      "params": {"memory": "t"}}],
           "registers": [],
           "memories": [{"id": "t", "depth": 2, "width": 1}]}
    circuit, stimuli, labels = _driven(doc, [{"wi": 0, "a": "m", "ri": 0}]
                                       * 6)
    for model in LONG_TRACE_MODELS:
        assert _replays(monkeypatch, circuit, stimuli, labels, model) > 0


@pytest.mark.parametrize("model", [LeakageModel(), LeakageModel.rr1sw()],
                         ids=["0,0", "rr1sw"])
def test_split_parents_are_replayed(monkeypatch, model):
    fx = gadgets.gen_counterexamples()["fig6"]
    stimuli = sim.Stimuli(fx.stimuli.witness, [fx.stimuli.frames[0]] * 10)
    assert _replays(monkeypatch, fx.circuit, stimuli, fx.labels, model) > 0
    report = run(fx.circuit, stimuli, fx.labels, model)
    assert "w" in {e.wire for e in report.entries if e.cycle == 9}


# ---------------------------------------------------------------------------
# Expression-set identity and d-uplets
# ---------------------------------------------------------------------------

def test_reduction_covers_stable_mux_selector_drop(monkeypatch):
    # A register-held selector becomes stable, which drops the non-selected
    # input's LeakSet from the mux output; the reduced wire set must still
    # flag the secret carried by that input, like the all-wires run does.
    import json
    doc = {
        "wires": [{"name": "c", "width": 1}, {"name": "sel", "width": 1},
                  {"name": "a", "width": 1}, {"name": "b", "width": 1},
                  {"name": "o", "width": 1}, {"name": "q", "width": 1}],
        "inputs": ["c", "a", "b"], "outputs": ["q"],
        "gates": [{"kind": "mux", "output": "o", "inputs": ["sel", "a", "b"]}],
        "registers": [{"input": "c", "output": "sel", "init": "0b1"},
                      {"input": "o", "output": "q", "init": "0b0"}],
    }
    circuit = netlist.parse_netlist(json.dumps(doc))
    labels = ex.SymbolTable()
    labels.declare("k", 1, ex.SECRET)
    labels.declare("m", 1, ex.MASK)
    frames = [sim.StimulusFrame({"c": ex.cst(1, 1),
                                 "a": ex.sym("k", 1),
                                 "b": ex.sym("m", 1)})] * 3
    stimuli = sim.Stimuli({"k": 1, "m": 0}, frames)
    model = LeakageModel(glitches=True)
    reduced = run(circuit, stimuli, labels, model)
    monkeypatch.setattr(mg, "wires_to_verify", oracles.every_unit)
    full = run(circuit, stimuli, labels, model)
    assert {e.cycle for e in reduced.flagged()} == \
        {e.cycle for e in full.flagged()}
    # the dropped input is the secret-carrying one and it is flagged directly
    assert any(e.wire == "a" for e in reduced.flagged())


def test_report_jsonl_schema():
    fx = gadgets.gen_counterexamples()["fig5"]
    report = run(fx.circuit, fx.stimuli, fx.labels,
                 LeakageModel(transitions=True))
    lines = [json.loads(line) for line in report.to_jsonl().splitlines()]
    summary = lines[-1]
    assert set(summary) == {"cycles", "leaking_cycles", "expr_to_verify",
                            "verified_expr", "cache_hits", "trivial_skipped"}
    for entry in lines[:-1]:
        if "warning" in entry:
            assert set(entry) == {"cycle", "wire", "warning"}
            continue
        assert {"cycle", "wire", "facet", "verdict", "exprs"} <= set(entry)
        assert entry["verdict"] in ("secure", "leaks", "inconclusive")
        assert entry["facet"] in ("value", "transition", "glitch",
                                  "transition+glitch")
        if entry["verdict"] == "leaks":
            assert "witness" in entry


def test_expr_set_canonicalisation():
    k, m, mp = ex.sym("k", 1), ex.sym("m", 1), ex.sym("mp", 1)
    a = make_expr_set([ex.build("XOR", [k, m]), mp, m])
    b = make_expr_set([m, ex.build("XOR", [m, k]), mp, ex.cst(1, 1)])
    assert a == b
    assert make_expr_set([m]) != make_expr_set([mp])


def test_expr_set_tuples_identify_member_sets():
    # The verdict memo is keyed by ``exprs``: the same members in any order
    # must give the same tuple, and distinct member sets distinct tuples.
    rng = random.Random(3)
    symbols = {"a": 1, "b": 2, "c": 3}
    sets = {}
    for _ in range(10_000):
        exprs = [oracles.tree_to_expr(
            oracles.random_tree(rng, symbols, rng.randrange(0, 3),
                                rng.choice((1, 2, 3))))
            for _ in range(rng.randrange(1, 4))]
        eset = make_expr_set(exprs)
        rng.shuffle(exprs)
        assert make_expr_set(exprs) == eset
        ident = frozenset(e.uid for e in eset)
        sets.setdefault(eset, set()).add(ident)
    for key, idents in sets.items():
        assert len(idents) == 1, [ex.render(e) for e in key]


def test_check_tuples_counts(monkeypatch):
    # every C(p, q) tuple is walked; one distinct view is decided once
    labels = ex.SymbolTable()
    labels.declare("k", 1, ex.SECRET)
    part = vf.make_part((ex.sym("k", labels.width("k")),), labels)
    decided = []

    def decide(exprs, budget):
        decided.append((exprs, budget))
        return vf.Verdict.secure()

    for p, sizes, count in ((4, (2,), 6), (10, (3,), 120),
                            (5, (1, 2, 3), 25)):
        decided.clear()
        res = vf.check_tuples(list(range(p)), sizes, [(part,)] * p, None,
                              decide, labels)
        assert (res.verdict.is_secure, res.tuples_checked,
                res.tuple_count) == (True, count, count)
        assert decided == [((ex.sym("k", labels.width("k")),), None)]

    # past the cap, TooMany before any count or decision
    counted = []
    monkeypatch.setattr(vf, "_share_count_proves",
                        lambda *args: counted.append(args))
    decided.clear()
    with pytest.raises(vf.TooMany, match="3921225 tuples exceed the cap "
                                         "of 1000"):
        vf.check_tuples(list(range(100)), (1, 4), [(part,)] * 100, None,
                        decide, labels, cap=1000)
    assert counted == [] and decided == []


def test_higher_order_rejects_unknown_mode():
    circuit, labels, stimuli, _ = gadgets.gen_dom_and(1)
    with pytest.raises(ValueError, match="sideways"):
        mg.verify_higher_order(circuit, stimuli, labels,
                               LeakageModel(order=2), mode="sideways")


def test_higher_order_counts_match_ncr():
    circuit, labels, stimuli, _ = gadgets.gen_dom_and(1)
    model = LeakageModel(order=2)
    res = mg.verify_higher_order(circuit, stimuli, labels, model,
                                 mode=mg.SPATIAL)
    n = len(circuit.wires)
    assert res.tuple_count == n * (n - 1) // 2
    cycles = len(stimuli.frames)
    for mode, positions in ((mg.TEMPORAL, cycles), (mg.MIXED, n * cycles)):
        for d in (1, 2):
            res = mg.verify_higher_order(circuit, stimuli, labels,
                                         LeakageModel(order=d), mode=mode)
            assert res.tuple_count == math.comb(positions, d), (mode, d)


@pytest.mark.parametrize("mode", [mg.SPATIAL, mg.TEMPORAL, mg.MIXED])
def test_higher_order_checks_each_distinct_union_once(monkeypatch, mode):
    # secure order-2 gadget at d=2: every tuple is walked; each distinct
    # union that the share count does not prove reaches the checker once,
    # and every other union is independent under brute force
    circuit, labels, stimuli, _ = gadgets.gen_dom_and(2)
    model = LeakageModel(order=2)
    checked = []
    check = vf.check_from_fixpoint

    def counting_check(eset, *args):
        checked.append(eset)
        return check(eset, *args)

    monkeypatch.setattr(vf, "check_from_fixpoint", counting_check)
    res = mg.verify_higher_order(circuit, stimuli, labels, model, mode=mode)
    assert res.verdict.is_secure
    assert res.tuples_checked == res.tuple_count

    sched = netlist.validate_and_schedule(circuit)
    sets = {}
    for t, state in enumerate(sim.simulate(circuit, sched, stimuli)):
        for uid in state.current:
            prev = state.previous[uid] if state.previous else state.current[uid]
            ((_, eset),) = expr_sets_for(state.current[uid], prev, model)
            sets[circuit.name(uid), t] = eset
    wires = sorted({w for w, _ in sets})
    cycles = range(len(stimuli.frames))
    if mode == mg.SPATIAL:
        views = [[(w, t) for w in pair] for pair in
                 itertools.combinations(wires, 2) for t in cycles]
    elif mode == mg.TEMPORAL:
        views = [[(w, t) for t in pair] for pair in
                 itertools.combinations(cycles, 2) for w in wires]
    else:
        views = itertools.combinations(sorted(sets, key=lambda p: p[::-1]), 2)
    unions = {make_expr_set(e for p in view for e in sets[p])
              for view in views}
    unions.discard(())
    counted = {u for u in unions if oracles.share_count(
        {n for e in u for n in ex.symbols_of(e)}, labels)}
    assert len(checked) == len(set(checked))
    assert set(checked) == unions - counted
    for union in counted:
        assert oracles.independence_bruteforce(union, labels)


@pytest.mark.parametrize("mode", [mg.SPATIAL, mg.TEMPORAL, mg.MIXED])
def test_higher_order_counts_each_footprint_once(monkeypatch, mode):
    # the walk counts each distinct footprint once per run; a set it
    # decides is counted again only after a substitution step, never on
    # its own symbols
    circuit, labels, stimuli, _ = gadgets.gen_dom_and(2)
    count, decide = vf._share_count_proves, vf.check_from_fixpoint
    walked, deciding, decided = collections.Counter(), [], []

    def counted_count(fp, labels, budget=None):
        if deciding:
            deciding[-1] += 1
        else:
            walked[fp, budget] += 1
        return count(fp, labels, budget)

    def counted_decide(eset, *args):
        deciding.append(0)
        verdict = decide(eset, *args)
        decided.append((eset, deciding.pop()))
        return verdict

    monkeypatch.setattr(vf, "_share_count_proves", counted_count)
    monkeypatch.setattr(vf, "check_from_fixpoint", counted_decide)
    res = mg.verify_higher_order(circuit, stimuli, labels,
                                 LeakageModel(order=2), mode=mode)
    assert res.verdict.is_secure
    assert max(walked.values()) == 1
    assert {budget for _, budget in walked} == {None}
    assert decided
    for eset, counts in decided:
        own = vf._footprint({n for e in eset for n in ex.symbols_of(e)},
                            labels)
        assert walked[own, None] == 1
        # one count after each step, up to the first that proves
        steps = sum(1 for _ in vf._substitutions(eset, labels))
        assert counts <= steps, [ex.render(e) for e in eset]


_SHARE_PAIR_LEAK = {
    "assignment_a": {"a": 0}, "assignment_b": {"a": 1}, "fixed": {},
    "evidence": "joint value (SYMB(a0)=0b0, SYMB(a1)=0b0) occurs 1 vs 0 times"}
_ISW_GLITCH_LEAK = {
    "assignment_a": {"a": 0, "b": 0}, "assignment_b": {"a": 0, "b": 1},
    "fixed": {},
    "evidence": "joint value (SYMB(a0)=0b0, SYMB(a1)=0b0, SYMB(a2)=0b0, "
                "SYMB(b0)=0b0, SYMB(b1)=0b0, SYMB(b2)=0b0, SYMB(z02)=0b0, "
                "SYMB(z12)=0b0) occurs 1 vs 0 times"}


@pytest.mark.parametrize("gen, d, glitches, mode, expected", [
    (gadgets.gen_dom_and, 2, False, mg.TEMPORAL, (1, 1, "secure", None, None)),
    (gadgets.gen_dom_and, 2, False, mg.MIXED,
     (2556, 2556, "secure", None, None)),
    (gadgets.gen_isw_and, 2, False, mg.TEMPORAL, (1, 1, "secure", None, None)),
    (gadgets.gen_isw_and, 2, False, mg.MIXED,
     (1770, 1770, "secure", None, None)),
    (gadgets.gen_dom_and, 2, True, mg.TEMPORAL, (1, 1, "secure", None, None)),
    (gadgets.gen_dom_and, 2, True, mg.MIXED,
     (2556, 2556, "secure", None, None)),
    (gadgets.gen_isw_and, 2, True, mg.TEMPORAL,
     (1, 1, "leaks", (0, 1), _ISW_GLITCH_LEAK)),
    (gadgets.gen_isw_and, 2, True, mg.MIXED,
     (1770, 8, "leaks", (("a0", 0), ("c2", 0)), _ISW_GLITCH_LEAK)),
    (gadgets.gen_dom_and, 1, False, mg.SPATIAL,
     (105, 1, "leaks", ("a0", "a1"), _SHARE_PAIR_LEAK)),
    (gadgets.gen_dom_and, 1, False, mg.TEMPORAL, (1, 1, "secure", None, None)),
    (gadgets.gen_dom_and, 1, False, mg.MIXED,
     (435, 1, "leaks", (("a0", 0), ("a1", 0)), _SHARE_PAIR_LEAK)),
])
def test_higher_order_results_are_pinned(gen, d, glitches, mode, expected):
    # counts, verdict, leaking tuple and witness of the modes and models the
    # benchmark does not run, recorded when every view was decided as a set
    circuit, labels, stimuli, _ = gen(d)
    res = mg.verify_higher_order(circuit, stimuli, labels,
                                 LeakageModel(glitches=glitches, order=2),
                                 mode=mode)
    witness = res.verdict.witness
    assert (res.tuple_count, res.tuples_checked, res.verdict.status,
            res.leaking_tuple, witness and witness.to_json()) == expected
    assert res.verdict.reason is None


@pytest.mark.parametrize("mode", [mg.SPATIAL, mg.MIXED])
def test_higher_order_names_an_unlabeled_symbol(mode, monkeypatch):
    # a set with an unlabeled symbol is rejected when its part is built,
    # before any view is checked, and the error names the symbol
    checked = []
    monkeypatch.setattr(vf, "check_from_fixpoint",
                        lambda *args: checked.append(args))
    circuit, labels, stimuli, _ = gadgets.gen_dom_and(2)
    doc = labels.to_json()
    doc["symbols"] = [e for e in doc["symbols"] if e["name"] != "z01"]
    with pytest.raises(KeyError, match="symbol 'z01' is not labeled"):
        mg.verify_higher_order(circuit, stimuli, ex.SymbolTable.from_json(doc),
                               LeakageModel(order=2), mode=mode)
    assert checked == []


def test_higher_order_honours_the_model_stability_switch():
    fx = gadgets.gen_random_circuit(20, n_gates=12, cycles=3)
    model = LeakageModel(glitches=True, granularity=BIT, use_stability=False,
                         order=2)
    res = mg.verify_higher_order(fx.circuit, fx.stimuli, fx.labels, model,
                                 mode=mg.MIXED)
    assert res.tuples_checked == 10
    assert res.leaking_tuple == (("w0[0]", 0), ("w13[0]", 0))


def test_higher_order_temporal_and_mixed_modes():
    circuit, labels, stimuli, _ = gadgets.gen_dom_and(1)
    temporal = mg.verify_higher_order(circuit, stimuli, labels,
                                      LeakageModel(order=2), mode=mg.TEMPORAL)
    assert temporal.tuple_count == 1   # C(2 cycles, 2)
    # a single wire observed over both cycles never combines two positions
    # that straddle wires, so the leaking share pairs are invisible here
    assert temporal.verdict.is_secure
    mixed = mg.verify_higher_order(circuit, stimuli, labels,
                                   LeakageModel(order=2), mode=mg.MIXED)
    n = 2 * len(circuit.wires)
    assert mixed.tuple_count == n * (n - 1) // 2
    assert mixed.verdict.status == "leaks"   # (a0, a1) across any cycles


def test_overapprox_never_misses_standard_leaks(monkeypatch):
    # Per-cycle flags of the over-approximated reduced run must cover the
    # flags of the standard (1,1) verification over all wires.
    for seed in range(40):
        fx = gadgets.gen_random_circuit(seed + 1000, n_gates=20, cycles=4,
                                        max_symbol_bits_per_cycle=8)
        over = run(fx.circuit, fx.stimuli, fx.labels,
                   LeakageModel(glitches=True, transitions=True,
                                overapprox=True))
        with monkeypatch.context() as patch:
            patch.setattr(mg, "wires_to_verify", oracles.every_unit)
            std = run(fx.circuit, fx.stimuli, fx.labels,
                      LeakageModel(glitches=True, transitions=True))
        over_cycles = {e.cycle for e in over.flagged()}
        assert {e.cycle for e in std.flagged()} <= over_cycles


def test_fig7_overapprox_set_contents():
    fx = gadgets.gen_counterexamples()["fig7"]
    s2 = _states(fx)[2]
    i1 = s2.current[fx.circuit.by_name["i1"].uid]
    prev = s2.previous[fx.circuit.by_name["i1"].uid]
    model = LeakageModel(glitches=True, transitions=True, overapprox=True)
    ((_, eset),) = expr_sets_for(i1, prev, model)
    assert _set_strs(eset) == {KM, "SYMB(m)"}   # lset(t-1) U lset(t)


def test_recombine_single_member_split_is_identity():
    import json
    doc = {
        "wires": [{"name": "b", "width": 1}],
        "inputs": ["b"], "outputs": ["b"],
        "gates": [], "registers": [],
        "splits": [{"parent": "p", "width": 1,
                    "bits": [{"wire": "b", "index": 0}]}],
    }
    circuit = netlist.parse_netlist(json.dumps(doc))
    frame = sim.StimulusFrame({"b": ex.sym("m", 1)})
    (state,) = sim.simulate(circuit, netlist.validate_and_schedule(circuit),
                            sim.Stimuli({"m": 1}, [frame]))
    member = state.current[circuit.by_name["b"].uid]
    parent = recombine_split_wires(circuit, state.current, "p")
    assert parent == member
