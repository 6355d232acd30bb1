"""End-to-end scenarios modelled on classic micro-architectural leaks."""

import json
from collections import Counter

from hypothesis import given, settings, strategies as st

import oracles

from probewise import expr as ex, gadgets, manager as mg, netlist, sim
from probewise.manager import BIT, LeakageModel, RunOptions, run


def _labels_shares():
    labels = ex.SymbolTable()
    labels.declare("a", 1, ex.SECRET)
    labels.declare("a0", 1, ex.SHARE, secret="a", index=0)
    labels.declare("a1", 1, ex.SHARE, secret="a", index=1)
    labels.declare("z", 1, ex.MASK)
    return labels


def test_share_swap_through_one_register_leaks_in_transition():
    # Loading both shares of a secret through the same bus register on
    # consecutive cycles pairs them in the transition model.
    doc = {
        "wires": [{"name": "bus", "width": 1},
                  {"name": "r", "width": 1, "src": {"file": "lsu.v", "line": 7}}],
        "inputs": ["bus"], "outputs": ["r"],
        "gates": [],
        "registers": [{"input": "bus", "output": "r", "init": "0b0"}],
    }
    circuit = netlist.parse_netlist(json.dumps(doc))
    labels = _labels_shares()
    frames = [
        sim.StimulusFrame({"bus": ex.sym("a0", 1)}),
        sim.StimulusFrame({"bus": ex.sym("a0", 1)}),
        sim.StimulusFrame({"bus": ex.sym("a1", 1)}),  # swap
        sim.StimulusFrame({"bus": ex.cst(0, 1)}),
    ]
    stimuli = sim.Stimuli({"a0": 1, "a1": 0}, frames)

    value = run(circuit, stimuli, labels, LeakageModel())
    assert not value.flagged()              # each share alone is uniform
    trans = run(circuit, stimuli, labels, LeakageModel(transitions=True))
    flagged = {(e.cycle, e.wire) for e in trans.flagged()}
    # the bus swaps shares at cycle 2, the register one cycle later
    assert flagged == {(2, "bus"), (3, "r")}
    reg_leak = next(e for e in trans.flagged() if e.wire == "r")
    assert reg_leak.src == ("lsu.v", 7)
    assert reg_leak.verdict.witness is not None


def test_register_file_read_port_glitch_recombines_shares():
    # Two registers hold the two shares; an unstable read-address bit can
    # glitch the output mux across both of them.
    doc = {
        "wires": [{"name": "d0", "width": 1}, {"name": "d1", "width": 1},
                  {"name": "addr", "width": 1},
                  {"name": "r0", "width": 1}, {"name": "r1", "width": 1},
                  {"name": "rd", "width": 1}],
        "inputs": ["d0", "d1", "addr"], "outputs": ["rd"],
        "gates": [{"kind": "mux", "output": "rd",
                   "inputs": ["addr", "r0", "r1"]}],
        "registers": [{"input": "d0", "output": "r0", "init": "0b0"},
                      {"input": "d1", "output": "r1", "init": "0b0"}],
    }
    circuit = netlist.parse_netlist(json.dumps(doc))
    labels = _labels_shares()
    frames = [sim.StimulusFrame({"d0": ex.sym("a0", 1),
                                 "d1": ex.sym("a1", 1),
                                 "addr": ex.cst(0, 1)})] * 3
    stimuli = sim.Stimuli({"a0": 1, "a1": 0}, frames)

    glitch = run(circuit, stimuli, labels, LeakageModel(glitches=True))
    flagged = {(e.cycle, e.wire) for e in glitch.flagged()}
    assert any(w == "rd" for _, w in flagged)   # {a0, a1} jointly observable
    value = run(circuit, stimuli, labels, LeakageModel())
    assert not value.flagged()


def test_masked_and_then_unmask_pipeline():
    # A two-stage pipeline that masks, registers, and unmasks: the unmasked
    # stage output carries the secret and must be flagged even in the value
    # model, everywhere else stays clean.
    doc = {
        "wires": [{"name": "s", "width": 1}, {"name": "z", "width": 1},
                  {"name": "masked", "width": 1}, {"name": "q", "width": 1},
                  {"name": "zq", "width": 1}, {"name": "clear", "width": 1}],
        "inputs": ["s", "z"], "outputs": ["clear"],
        "gates": [{"kind": "bit_xor", "output": "masked", "inputs": ["s", "z"]},
                  {"kind": "bit_xor", "output": "clear", "inputs": ["q", "zq"]}],
        "registers": [{"input": "masked", "output": "q", "init": "0b0"},
                      {"input": "z", "output": "zq", "init": "0b0"}],
    }
    circuit = netlist.parse_netlist(json.dumps(doc))
    labels = ex.SymbolTable()
    labels.declare("k", 1, ex.SECRET)
    labels.declare("z", 1, ex.MASK)
    frames = [sim.StimulusFrame({"s": ex.sym("k", 1),
                                 "z": ex.sym("z", 1)})] * 2
    stimuli = sim.Stimuli({"k": 1, "z": 1}, frames)
    report = run(circuit, stimuli, labels, LeakageModel())
    flagged = {(e.cycle, e.wire) for e in report.flagged()}
    # cycle 0: clear = 0^0 is trivial; cycle 1: clear = (k^z)^z = k
    assert flagged == {(0, "s"), (1, "s"), (1, "clear")}


def _masked_table(wires=(), gates=(), drives=({},)):
    """A table remasked as masked[i ^ m] = base[i] ^ mp, indexed by the
    masked secret k ^ m, plus extra wires and gates, over one frame per
    entry of ``drives`` (extra input -> constant); returns the circuit,
    labels, stimuli and options with the table hook."""
    base = [3, 1, 0, 2]
    m_val, mp_val = 1, 2
    masked = [0] * 4
    for i in range(4):
        masked[i ^ m_val] = base[i] ^ mp_val
    doc = {
        "wires": [{"name": "kw", "width": 2}, {"name": "mw", "width": 2},
                  {"name": "idx", "width": 2}, {"name": "out", "width": 2},
                  *({"name": w, "width": 2} for w in wires)],
        "inputs": ["kw", "mw", *drives[0]], "outputs": ["out"],
        "gates": [{"kind": "bit_xor", "output": "idx", "inputs": ["kw", "mw"]},
                  {"kind": "mem_read", "output": "out", "inputs": ["idx"],
                   "params": {"memory": "sbox_m"}}, *gates],
        "registers": [],
        "memories": [
            {"id": "sbox_m", "depth": 4, "width": 2,
             "init": [ex.format_bits(v, 2) for v in masked]},
            {"id": "sbox", "depth": 4, "width": 2,
             "init": [ex.format_bits(v, 2) for v in base]},
        ],
    }
    circuit = netlist.parse_netlist(json.dumps(doc))
    labels = ex.SymbolTable()
    labels.declare("k", 2, ex.SECRET)
    labels.declare("m", 2, ex.MASK)
    labels.declare("mp", 2, ex.MASK)
    frames = [sim.StimulusFrame({"kw": ex.sym("k", 2),
                                 "mw": ex.sym("m", 2),
                                 **{w: ex.cst(v, 2)
                                    for w, v in drive.items()}})
              for drive in drives]
    stimuli = sim.Stimuli({"k": 3, "m": m_val, "mp": mp_val}, frames)
    hook = sim.MaskedTableHook("sbox_m", "sbox", "m", "mp")
    return circuit, labels, stimuli, RunOptions(memory_hook=hook,
                                                check_consistency=True)


def test_masked_table_lookup_run():
    # The looked-up value stays blinded by mp, but a glitchy address bus
    # exposes the raw index share k.
    circuit, labels, stimuli, opts = _masked_table()
    value = run(circuit, stimuli, labels, LeakageModel(), opts)
    # the raw secret input is flagged no matter what; the masked address and
    # the remasked lookup value stay blinded (by m and mp respectively)
    assert {e.wire for e in value.flagged()} == {"kw"}

    glitch = run(circuit, stimuli, labels, LeakageModel(glitches=True), opts)
    leaks = [e for e in glitch.flagged() if e.wire == "out"]
    # the address XOR can glitch, exposing the raw index share k on the bus
    assert leaks
    assert all(e.verdict.witness is not None for e in leaks
               if e.verdict.status == "leaks")


def test_higher_order_reads_the_memory_contents():
    # a2 = out & idx needs enumeration, and out reads ARRAY(sbox, k): the
    # view's memory contents must reach the checker, as they do in run
    circuit, labels, stimuli, opts = _masked_table(
        ["a2"], [{"kind": "bit_and", "output": "a2", "inputs": ["out", "idx"]}])
    assert {e.wire: e.verdict.status for e in run(
        circuit, stimuli, labels, LeakageModel(), opts).entries}["a2"] == \
        "secure"
    for mode, leak in ((mg.SPATIAL, ("a2", "kw")),
                       (mg.MIXED, (("a2", 0), ("kw", 0)))):
        res = mg.verify_higher_order(circuit, stimuli, labels,
                                     LeakageModel(order=2), mode, opts)
        # (a2, idx) is decided secure, then the raw secret on kw leaks
        assert (res.tuples_checked, res.leaking_tuple) == (2, leak), mode
        assert res.verdict.status == "leaks"


def test_higher_order_view_over_changed_memory_is_decided():
    # sbox[0] is written 1 at cycle 0, so the temporal view of a1 = out ^ mw
    # holds two versions of sbox, each read over the contents its own cycle
    # saw; the view leaks, as brute force over its members confirms
    circuit, labels, stimuli, opts = _masked_table(
        ["a1", "wi", "wv", "ww"],
        [{"kind": "bit_xor", "output": "a1", "inputs": ["out", "mw"]},
         {"kind": "mem_write", "output": "ww", "inputs": ["wi", "wv"],
          "params": {"memory": "sbox"}}],
        drives=[{"wi": 0, "wv": 1}, {"wi": 0, "wv": 2}])
    model = LeakageModel(order=2)
    res = mg.verify_higher_order(circuit, stimuli, labels, model,
                                 mg.TEMPORAL, opts)
    assert (res.tuples_checked, res.leaking_tuple) == (1, (0, 1))
    a1 = circuit.by_name["a1"].uid
    view = mg.make_expr_set(state.current[a1].symb for state in
                            mg._simulate(circuit, stimuli, model, opts))
    assert [ex.render(e) for e in view] == [
        "OP_XOR(SYMB(m), SYMB(mp), ARRAY(sbox, SYMB(k)))",
        "OP_XOR(SYMB(m), SYMB(mp), ARRAY(sbox@1, SYMB(k)))"]
    assert not oracles.independence_bruteforce(view, labels)
    assert res.verdict.status == "leaks"
    witness = res.verdict.witness
    assert witness.fixed == {}
    assert witness.evidence.endswith("=0b00) occurs 4 vs 0 times")
    # a true counterexample: (0b00, 0b00) occurs 4 vs 0 times by brute force
    assert [oracles.joint_value_counts(view, labels, vary).get((0, 0), 0)
            for vary in (witness.vary_a, witness.vary_b)] == [4, 0]


def _written_table_circuit(cycles=1):
    """Input a reads ARRAY(t, k) from the 1-bit table t = [0, 1], and
    t[0] = 1 is written at cycle 0 (and again at every later cycle); the
    register q holds the previous cycle's a."""
    doc = {
        "wires": [{"name": n, "width": 1}
                  for n in ("a", "mw", "wi", "wv", "ww", "q")],
        "inputs": ["a", "mw", "wi", "wv"], "outputs": ["ww", "q"],
        "gates": [{"kind": "mem_write", "output": "ww", "inputs": ["wi", "wv"],
                   "params": {"memory": "t"}}],
        "registers": [{"input": "a", "output": "q", "init": "0b0"}],
        "memories": [{"id": "t", "depth": 2, "width": 1,
                      "init": ["0b0", "0b1"]}],
    }
    circuit = netlist.parse_netlist(json.dumps(doc))
    labels = ex.SymbolTable()
    labels.declare("k", 1, ex.SECRET)
    labels.declare("m", 1, ex.MASK)
    frame = sim.StimulusFrame({"a": ex.array_lookup("t", ex.sym("k", 1), 1),
                               "mw": ex.sym("m", 1),
                               "wi": ex.cst(0, 1), "wv": ex.cst(1, 1)})
    return circuit, labels, sim.Stimuli({"k": 0, "m": 1}, [frame] * cycles)


def test_higher_order_reads_the_contents_before_the_cycles_writes():
    # cycle 0 reads t = [0, 1], so a = k; over the written table [1, 1] it
    # would be the constant 1 and every set would be Secure
    circuit, labels, stimuli = _written_table_circuit()
    (state,) = mg._simulate(circuit, stimuli, LeakageModel(), RunOptions())
    assert state.current[circuit.by_name["a"].uid].conc == 0
    for mode, leak in ((mg.SPATIAL, ("a", "mw")),
                       (mg.MIXED, (("a", 0), ("mw", 0)))):
        res = mg.verify_higher_order(circuit, stimuli, labels,
                                     LeakageModel(order=2), mode)
        assert res.verdict.status == "leaks", mode
        assert res.leaking_tuple == leak


def test_run_reads_the_contents_before_the_cycles_writes():
    # cycle 0 reads t = [0, 1], so a = k leaks; cycle 1 reads the written
    # table [1, 1], so a is the constant 1: with and without the memo, and
    # the consistency check evaluates a over the same contents
    circuit, labels, stimuli = _written_table_circuit(cycles=2)
    for opts in (RunOptions(), RunOptions(use_cache=False),
                 RunOptions(check_consistency=True)):
        report = run(circuit, stimuli, labels, LeakageModel(), opts)
        verdicts = {(e.cycle, e.wire): e.verdict.status
                    for e in report.entries if e.wire == "a"}
        assert verdicts == {(0, "a"): "leaks", (1, "a"): "secure"}, opts


def test_register_carries_the_contents_its_value_read():
    # q at cycle 1 holds cycle 0's a = ARRAY(t, k) over t = [0, 1], which is
    # k; t[0] = 1 is written at cycle 0, and cycle 1's own read of t sees
    # the written table, a version later
    circuit, labels, stimuli = _written_table_circuit(cycles=2)
    for opts in (RunOptions(), RunOptions(use_cache=False),
                 RunOptions(check_consistency=True)):
        report = run(circuit, stimuli, labels, LeakageModel(), opts)
        entries = {(e.cycle, e.wire): (e.verdict.status, e.exprs)
                   for e in report.entries if e.cycle == 1}
        assert entries[1, "q"] == ("leaks", ("ARRAY(t, SYMB(k))",)), opts
        assert entries[1, "a"] == ("secure", ("ARRAY(t@1, SYMB(k))",)), opts


def test_rr1sw_on_pipeline_is_deterministic_and_supersets_value():
    doc = {
        "wires": [{"name": "s", "width": 1}, {"name": "z", "width": 1},
                  {"name": "masked", "width": 1}, {"name": "q", "width": 1},
                  {"name": "zq", "width": 1}, {"name": "clear", "width": 1}],
        "inputs": ["s", "z"], "outputs": ["clear"],
        "gates": [{"kind": "bit_xor", "output": "masked", "inputs": ["s", "z"]},
                  {"kind": "bit_xor", "output": "clear", "inputs": ["q", "zq"]}],
        "registers": [{"input": "masked", "output": "q", "init": "0b0"},
                      {"input": "z", "output": "zq", "init": "0b0"}],
    }
    circuit = netlist.parse_netlist(json.dumps(doc))
    labels = ex.SymbolTable()
    labels.declare("k", 1, ex.SECRET)
    labels.declare("z", 1, ex.MASK)
    frames = [sim.StimulusFrame({"s": ex.sym("k", 1),
                                 "z": ex.sym("z", 1)})] * 2
    stimuli = sim.Stimuli({"k": 1, "z": 1}, frames)
    value = run(circuit, stimuli, labels, LeakageModel())
    rr = run(circuit, stimuli, labels, LeakageModel.rr1sw())
    # rr1sw runs on the reduced wire set, so inclusion holds per cycle: any
    # leak the value model sees surfaces on some rr-verified wire that cycle
    assert {e.cycle for e in value.flagged()} <= \
        {e.cycle for e in rr.flagged()}
    assert rr.to_jsonl() == run(circuit, stimuli, labels,
                                LeakageModel.rr1sw()).to_jsonl()


# ---------------------------------------------------------------------------
# A settled pipeline is carried forward, not evaluated again
# ---------------------------------------------------------------------------

def _repeating_frames(source, seed, picks):
    """A circuit, stimuli and memory hook whose frame t is drive
    ``picks[t]`` of the source's, so frames repeat and wires settle."""
    if source == "table":
        circuit, _, stimuli, opts = _masked_table(
            ["a1", "wi", "wv", "ww"],
            [{"kind": "bit_xor", "output": "a1", "inputs": ["out", "mw"]},
             {"kind": "mem_write", "output": "ww", "inputs": ["wi", "wv"],
              "params": {"memory": "sbox"}}],
            drives=[{"wi": 0, "wv": p} for p in picks])
        return circuit, stimuli, opts.memory_hook
    if source == "random":
        fx = gadgets.gen_random_circuit(seed, n_gates=20, cycles=4)
        circuit, stimuli = fx.circuit, fx.stimuli
    else:
        gen = gadgets.gen_dom_and if source == "dom" else gadgets.gen_isw_and
        circuit, _, stimuli, _ = gen(seed % 3 + 1, cycles=4)
    frames = [stimuli.frames[p] for p in picks]
    return circuit, sim.Stimuli(stimuli.witness, frames), None


@settings(max_examples=80, deadline=None, derandomize=True)
@given(source=st.sampled_from(["random", "dom", "isw", "table"]),
       seed=st.integers(0, 99),
       picks=st.lists(st.integers(0, 3), min_size=1, max_size=8),
       stability=st.booleans())
def test_carried_state_equals_fresh_evaluation(source, seed, picks, stability):
    circuit, stimuli, hook = _repeating_frames(source, seed, picks)
    opts = sim.SimOptions(use_stability=stability)
    schedule = netlist.validate_and_schedule(circuit)
    before = sim.initial_state(circuit)
    for state in sim.simulate(circuit, schedule, stimuli, opts, hook):
        for g in schedule:
            if g.kind not in ("mem_read", "mem_write"):
                ins = [state.current[w] for w in g.inputs]
                assert state.current[g.output] == \
                    sim.eval_combinational(circuit, g, ins, opts), g
        for r in circuit.registers:
            assert state.current[r.output] == \
                sim.register_step(circuit, r, before, opts), r
        before = state


def test_settled_pipeline_is_not_evaluated_again(monkeypatch):
    # DOM settles within a few cycles, so 40 more cycles evaluate no gate
    # and build no expression set
    calls = Counter()
    for module, name in ((sim, "eval_combinational"), (mg, "expr_sets_for")):
        def counted(*args, _real=getattr(module, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(module, name, counted)
    models = [LeakageModel(glitches=g, transitions=t, granularity=BIT)
              for g in (False, True) for t in (False, True)]
    models.append(LeakageModel.rr1sw())
    counts = []
    for cycles in (20, 60):
        circuit, labels, stimuli, _ = gadgets.gen_dom_and(2, cycles=cycles)
        calls.clear()
        for model in models:
            run(circuit, stimuli, labels, model)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert set(counts[0]) == {"eval_combinational", "expr_sets_for"}


def test_split_parent_keeps_its_sets_while_its_members_settle(monkeypatch):
    # fig6's frame repeated, b1's drive changed at cycle 3: the sets of the
    # split parent w are built again only in the cycles where one of its
    # member wires changed
    fx = gadgets.gen_counterexamples()["fig6"]
    frame = fx.stimuli.frames[0]
    later = sim.StimulusFrame({**frame.inputs, "b1": fx.labels.sym("k")})
    stimuli = sim.Stimuli(fx.stimuli.witness, [frame] * 3 + [later] * 7)
    model = LeakageModel()
    group, = fx.circuit.splits
    members = [uid for uid, _ in group.members]
    states = list(sim.simulate(fx.circuit,
                               netlist.validate_and_schedule(fx.circuit),
                               stimuli))
    changed = [t for t, state in enumerate(states) if t == 0 or any(
        state.current[u] is not states[t - 1].current[u]
        or mg._previous(state)[u] is not mg._previous(states[t - 1])[u]
        for u in members)]
    assert changed == [0, 3, 4]

    cycle, built = [-1], []

    def select(*args, _real=mg.wires_to_verify):
        cycle[0] += 1
        return _real(*args)

    def sets_for(val, prev, model, _real=mg.expr_sets_for):
        if val.symb.width == group.parent_width:
            built.append(cycle[0])
        return _real(val, prev, model)

    def fresh_sets(circuit, model, state, units, memo,
                   _real=mg._unit_sets):
        return _real(circuit, model, state, units, {})

    with monkeypatch.context() as patch:
        patch.setattr(mg, "_unit_sets", fresh_sets)
        fresh = run(fx.circuit, stimuli, fx.labels, model).to_jsonl()
    monkeypatch.setattr(mg, "wires_to_verify", select)
    monkeypatch.setattr(mg, "expr_sets_for", sets_for)
    report = run(fx.circuit, stimuli, fx.labels, model)
    assert built == changed
    assert report.to_jsonl() == fresh
