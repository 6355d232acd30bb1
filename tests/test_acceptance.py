"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

from probewise import expr as ex, gadgets, manager as mg, netlist, sim
from probewise import verify as vf
from probewise.manager import BIT, SUPPORT_WISE, LeakageModel, RunOptions, run
from probewise.verify import check_enumeration, check_ni, check_sni, \
    check_substitution, make_expr_set

import oracles

KM = "OP_XOR(SYMB(k), SYMB(m))"
M = "SYMB(m)"


def _report(fixture, model, options=None):
    return run(fixture.circuit, fixture.stimuli, fixture.labels, model,
               options or RunOptions())


def _passed(n, text):
    print(f"PASS criterion {n}: {text}")


def _states(circuit, stimuli, opts=sim.SimOptions()):
    sched = netlist.validate_and_schedule(circuit)
    return list(sim.simulate(circuit, sched, stimuli, opts))


def _table(fixture):
    rows = []
    for state in _states(fixture.circuit, fixture.stimuli):
        row = {}
        for w in fixture.circuit.wires:
            v = state.current[w.uid]
            row[w.name] = (ex.render(v.symb),
                           tuple(tuple(sorted(map(ex.render, s)))
                                 for s in v.lset),
                           v.stab)
        rows.append(row)
    return rows


def test_criterion_1_fig5_reproduction():
    start = time.time()
    fx = gadgets.gen_counterexamples()["fig5"]
    rows = _table(fx)
    expected = [
        {"i0": ("CST(0b0)", ((),), 0),
         "i1": (KM, ((KM,),), 0),
         "o0": ("CST(0b0)", ((KM,),), 0)},
        {"i0": ("CST(0b1)", ((),), 0),
         "i1": (M, ((M,),), 0),
         "o0": (M, ((M,),), 0)},
    ]
    assert rows == expected
    for model in (LeakageModel(transitions=True),
                  LeakageModel(glitches=True, transitions=True)):
        report = _report(fx, model)
        assert [(e.cycle, e.wire) for e in report.flagged()] == [(1, "i1")]
    elapsed = time.time() - start
    assert elapsed < 1.0
    _passed(1, f"fig5 valuation table exact; i1 flagged at cycle t under "
               f"(0,1) and (1,1), o0 never ({elapsed:.2f}s)")


def test_criterion_2_fig6_reproduction():
    start = time.time()
    fx = gadgets.gen_counterexamples()["fig6"]
    sw = _report(fx, LeakageModel(glitches=True, granularity=SUPPORT_WISE))
    assert {e.wire for e in sw.flagged()} == {"w"}
    parent = mg.recombine_split_wires(
        fx.circuit, _last_state(fx).current, "w")
    assert ex.render(parent.symb) == f"OP_CONCAT({M}, {KM})"
    bit = _report(fx, LeakageModel(glitches=True, granularity=BIT))
    assert not bit.flagged()
    elapsed = time.time() - start
    assert elapsed < 1.0
    _passed(2, f"fig6: recombined 2-bit parent leaks under (1,0) sw, no "
               f"wire leaks at bit granularity ({elapsed:.2f}s)")


def _last_state(fixture):
    return _states(fixture.circuit, fixture.stimuli)[-1]


def test_criterion_3_fig7_reproduction(monkeypatch):
    start = time.time()
    fx = gadgets.gen_counterexamples()["fig7"]
    rows = _table(fx)
    # rows t-1 and t of the paper's table
    assert rows[1]["i0"] == ("CST(0b0)", ((),), 1)
    assert rows[1]["o0"] == ("CST(0b0)", ((),), 1)
    assert rows[2]["i0"] == ("CST(0b1)", ((),), 0)
    assert rows[2]["o0"] == (M, ((M,),), 0)
    model = LeakageModel(glitches=True, transitions=True, overapprox=True)
    report = _report(fx, model)
    assert [(e.cycle, e.wire) for e in report.flagged()] == [(2, "i1")]
    monkeypatch.setattr(mg, "wires_to_verify",
                        oracles.glitch_rule_at_t(mg.wires_to_verify))
    control = _report(fx, model)
    assert not control.flagged()
    elapsed = time.time() - start
    assert elapsed < 1.0
    _passed(3, f"fig7: i1 flagged at cycle t via the t-1 stability rule, "
               f"negative control clean ({elapsed:.2f}s)")


def test_criterion_4_gadget_verdicts():
    start = time.time()
    _, _, _, dom = gadgets.gen_dom_and(2)
    _, _, _, isw = gadgets.gen_isw_and(2)
    expected = [
        (dom, check_ni, False, True), (dom, check_ni, True, True),
        (dom, check_sni, False, True), (dom, check_sni, True, False),
        (isw, check_ni, False, True), (isw, check_ni, True, False),
        (isw, check_sni, False, True), (isw, check_sni, True, False),
    ]
    for spec, checker, glitches, secure in expected:
        verdict = checker(spec, 2, glitches).verdict
        assert verdict.is_secure == secure, (checker.__name__, glitches)
        if not secure:
            assert verdict.status == vf.LEAKS
            assert verdict.witness is not None
    elapsed = time.time() - start
    assert elapsed < 300
    _passed(4, f"DOM/ISW order-2 NI and SNI verdicts all match, every leak "
               f"carries an enumeration witness ({elapsed:.1f}s)")


def test_criterion_5_higher_order_verdicts():
    start = time.time()
    import math
    outcomes = []
    for order, d, secure in ((1, 2, False), (2, 2, True), (2, 3, False)):
        circuit, labels, stimuli, _ = gadgets.gen_dom_and(order)
        model = LeakageModel(order=d)
        res = mg.verify_higher_order(circuit, stimuli, labels, model,
                                     mode=mg.SPATIAL)
        n = len(circuit.wires)
        assert res.tuple_count == math.comb(n, d)
        if secure:
            assert res.verdict.is_secure
            assert res.tuples_checked == res.tuple_count
        else:
            assert res.verdict.status == vf.LEAKS
            assert res.verdict.witness is not None
        outcomes.append(res.verdict.status)
    assert vf.check_tuples(list(range(7)), (2,), [()] * 7, None, None,
                           labels).tuple_count == 21
    elapsed = time.time() - start
    assert elapsed < 600
    _passed(5, f"DOM-AND order 1@d=2 leaks, 2@d=2 secure, 2@d=3 leaks; "
               f"d-uplet counts exactly C(p,d) ({elapsed:.1f}s)")


def test_criterion_6_substitution_soundness():
    start = time.time()
    rng = random.Random(2024)
    secure_count = 0
    violations = 0
    total = 0
    while total < 1000:
        exprs, labels = oracles.random_expr_set(rng)
        eset = make_expr_set(exprs)
        total += 1
        if check_substitution(eset, labels).is_secure:
            secure_count += 1
            if not check_enumeration(eset, labels, limit=16).is_secure:
                violations += 1
                print("VIOLATION:", [ex.render(e) for e in eset])
    assert violations == 0
    assert secure_count >= 100
    elapsed = time.time() - start
    _passed(6, f"substitution Secure => enumeration Secure on {total} random "
               f"sets ({secure_count} provable), zero violations "
               f"({elapsed:.1f}s)")


def test_criterion_7_wire_reduction_equivalence(monkeypatch):
    start = time.time()
    mismatches = 0
    for seed in range(200):
        gran = SUPPORT_WISE if seed % 2 == 0 else BIT
        fx = gadgets.gen_random_circuit(seed, n_gates=(seed % 16) + 14,
                                        n_inputs=4, cycles=4,
                                        max_symbol_bits_per_cycle=8)
        assert len(fx.circuit.gates) <= 30
        model = LeakageModel(glitches=True, granularity=gran)
        reduced = run(fx.circuit, fx.stimuli, fx.labels, model)
        with monkeypatch.context() as patch:
            patch.setattr(mg, "wires_to_verify", oracles.every_unit)
            full = run(fx.circuit, fx.stimuli, fx.labels, model)
        if {e.cycle for e in reduced.flagged()} != \
                {e.cycle for e in full.flagged()}:
            mismatches += 1
    assert mismatches == 0
    elapsed = time.time() - start
    _passed(7, f"(1,0) reduced wire set matches all-wires per-cycle verdicts "
               f"on 200 circuits, zero mismatches ({elapsed:.1f}s)")


def test_criterion_8_glitch_overapproximation_soundness():
    start = time.time()
    total_checked = 0
    total_violations = 0
    for seed in range(100):
        fx = gadgets.gen_random_circuit(seed + 7000, n_gates=16, n_inputs=4,
                                        cycles=2, max_symbol_bits_per_cycle=10)
        checked, violations = oracles.glitch_coverage_violations(
            fx, sim, netlist, ex)
        total_checked += checked
        total_violations += violations
    assert total_violations == 0
    elapsed = time.time() - start
    _passed(8, f"brute-force toggle oracle: {total_checked} observable-value "
               f"checks across 100 circuits, zero LeakSet misses "
               f"({elapsed:.1f}s)")


def test_criterion_9_domain_coherence():
    start = time.time()
    for fx in gadgets.gen_counterexamples().values():
        sim.consistency_check(_last_state(fx), fx.stimuli.witness)
    every_state = sim.SimOptions(check_consistency=True)
    for gen in (gadgets.gen_dom_and, gadgets.gen_isw_and):
        circuit, _, stimuli, _ = gen(2)
        _states(circuit, stimuli, every_state)
    for seed in range(200):
        fx = gadgets.gen_random_circuit(seed + 9000, n_gates=20, cycles=3)
        _states(fx.circuit, fx.stimuli, every_state)
    elapsed = time.time() - start
    _passed(9, f"conc == eval_concrete(symb, witness) on every wire of every "
               f"fixture and 200 random circuits ({elapsed:.1f}s)")


def test_criterion_10_cache_transparency_and_determinism():
    start = time.time()
    circuit, labels, stimuli, _ = gadgets.gen_dom_and(2)
    model = LeakageModel(glitches=True, transitions=True, overapprox=True)
    cached = run(circuit, stimuli, labels, model)
    uncached = run(circuit, stimuli, labels, model, RunOptions(use_cache=False))
    multiset = lambda rep: sorted((e.cycle, e.wire, e.verdict.status)
                                  for e in rep.entries)
    assert multiset(cached) == multiset(uncached)
    assert cached.summary.cache_hits > 0 and uncached.summary.cache_hits == 0
    again = run(circuit, stimuli, labels, model)
    assert cached.to_jsonl() == again.to_jsonl()
    fx = gadgets.gen_random_circuit(55, n_gates=20, cycles=3)
    rr = LeakageModel.rr1sw()
    assert run(fx.circuit, fx.stimuli, fx.labels, rr).to_jsonl() == \
        run(fx.circuit, fx.stimuli, fx.labels, rr).to_jsonl()
    elapsed = time.time() - start
    _passed(10, f"cache on/off verdict multisets identical; reports "
                f"byte-identical across reruns ({elapsed:.1f}s)")
