"""Netlist parsing, validation, scheduling and the structural index."""

import json
import random

import pytest

from probewise import expr as ex, gadgets, manager as mg, sim
from probewise.cli import main
from probewise.netlist import (CombinatorialLoop, DanglingReference,
                               MalformedDocument, MultipleDrivers,
                               UnknownGateKind, WidthMismatch, parse_netlist,
                               serialize_netlist, structural_index,
                               validate_and_schedule)

import oracles


def doc_and(out_width=1):
    return {
        "wires": [{"name": "a", "width": 1}, {"name": "b", "width": 1},
                  {"name": "o", "width": out_width}],
        "inputs": ["a", "b"],
        "outputs": ["o"],
        "gates": [{"kind": "bit_and", "output": "o", "inputs": ["a", "b"]}],
        "registers": [],
    }


def parse(doc):
    return parse_netlist(json.dumps(doc))


def test_minimal_and_gate():
    c = parse(doc_and())
    assert len(c.wires) == 3 and len(c.gates) == 1 and not c.registers


def test_width_mismatch():
    with pytest.raises(WidthMismatch):
        parse(doc_and(out_width=2))


def _memory_port_doc(kind, data_width):
    """A 3-bit memory ``t`` with one ``kind`` port whose data wire has
    ``data_width`` bits; a read's data is XORed with the input x."""
    doc = {"wires": [{"name": "i", "width": 1},
                     {"name": "x", "width": data_width},
                     {"name": "d", "width": data_width},
                     {"name": "y", "width": data_width}],
           "inputs": ["i", "x"], "outputs": ["y"], "registers": [],
           "memories": [{"id": "t", "depth": 2, "width": 3}]}
    if kind == "mem_read":
        doc["gates"] = [{"kind": "mem_read", "output": "d", "inputs": ["i"],
                         "params": {"memory": "t"}},
                        {"kind": "bit_xor", "output": "y",
                         "inputs": ["d", "x"]}]
    else:
        doc["inputs"].append("d")
        doc["gates"] = [{"kind": "mem_write", "output": "y",
                         "inputs": ["i", "d"], "params": {"memory": "t"}}]
    return doc


@pytest.mark.parametrize("kind", ["mem_read", "mem_write"])
def test_memory_port_width_is_the_memory_width(kind, tmp_path, capsys):
    out = "d" if kind == "mem_read" else "y"
    with pytest.raises(WidthMismatch) as info:
        parse(_memory_port_doc(kind, 1))
    assert str(info.value) == \
        f"gates[0] ({kind} -> {out}): expected width 3, got 1"
    if kind == "mem_read":
        assert parse(_memory_port_doc(kind, 3)).gates[0].kind == kind
        # the CLI names the gate and exits 2
        (tmp_path / "n.json").write_text(json.dumps(_memory_port_doc(kind, 1)))
        (tmp_path / "l.json").write_text(json.dumps({"symbols": []}))
        (tmp_path / "s.jsonl").write_text(
            '{"witness": {}}\n'
            '{"cycle": 0, "inputs": {"i": {"const": "0b0"}, '
            '"x": {"const": "0b1"}}}\n')
        code = main(["verify", "--netlist", str(tmp_path / "n.json"),
                     "--labels", str(tmp_path / "l.json"),
                     "--stimuli", str(tmp_path / "s.jsonl"),
                     "--model", "0,0"])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: gates[0] (mem_read -> d): expected width 3, got 1\n"
    else:
        assert parse(_memory_port_doc(kind, 3)).gates[0].kind == kind


def test_unknown_gate_kind():
    doc = doc_and()
    doc["gates"][0]["kind"] = "nand3"
    with pytest.raises(UnknownGateKind):
        parse(doc)


def test_dangling_reference():
    doc = doc_and()
    doc["gates"][0]["inputs"] = ["a", "missing"]
    with pytest.raises(DanglingReference):
        parse(doc)


def test_multiple_drivers():
    doc = doc_and()
    doc["wires"].append({"name": "x", "width": 1})
    doc["gates"].append({"kind": "bit_not", "output": "o", "inputs": ["x"]})
    doc["inputs"].append("x")
    with pytest.raises(MultipleDrivers):
        parse(doc)


def test_malformed_json():
    with pytest.raises(MalformedDocument):
        parse_netlist("{not json")


def test_missing_key():
    with pytest.raises(MalformedDocument):
        parse_netlist(json.dumps({"wires": []}))


def _doc_all_sections():
    doc = doc_and()
    doc["wires"].append({"name": "q", "width": 1})
    doc["registers"] = [{"input": "o", "output": "q", "init": "0b0"}]
    doc["splits"] = [{"parent": "ab", "width": 2,
                      "bits": [{"wire": "a", "index": 0},
                               {"wire": "b", "index": 1}]}]
    doc["memories"] = [{"id": "t", "depth": 2, "width": 1}]
    return doc


@pytest.mark.parametrize("path, message", [
    (("gates", 0, "output"), "gates[0].output: missing"),
    (("gates", 0, "inputs"), "gates[0].inputs: missing"),
    (("registers", 0, "init"), "registers[0].init: missing"),
    (("splits", 0, "bits", 1, "index"), "splits[0].bits[1].index: missing"),
    (("memories", 0, "depth"), "memories[0].depth: missing"),
])
def test_missing_entry_field_is_named(path, message):
    doc = _doc_all_sections()
    parse(doc)
    owner = doc
    for step in path[:-1]:
        owner = owner[step]
    del owner[path[-1]]
    with pytest.raises(MalformedDocument) as info:
        parse(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("path, message", [
    (("gates", 0), "gates[0]: expected an object"),
    (("registers", 0), "registers[0]: expected an object"),
    (("splits", 0, "bits", 1), "splits[0].bits[1]: expected an object"),
    (("memories", 0), "memories[0]: expected an object"),
])
def test_non_object_entry_is_named(path, message):
    doc = _doc_all_sections()
    owner = doc
    for step in path[:-1]:
        owner = owner[step]
    owner[path[-1]] = "x"
    with pytest.raises(MalformedDocument) as info:
        parse(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("path, message", [
    (("wires",), "wires: expected a list"),
    (("gates", 0, "inputs"), "gates[0].inputs: expected a list"),
    (("memories",), "memories: expected a list"),
    (("splits", 0, "bits"), "splits[0].bits: expected a list"),
])
def test_non_list_field_is_named(path, message):
    doc = _doc_all_sections()
    owner = doc
    for step in path[:-1]:
        owner = owner[step]
    owner[path[-1]] = 5
    with pytest.raises(MalformedDocument) as info:
        parse(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("path, value, message", [
    (("wires", 0, "src"), 5, "wires[0].src: expected an object"),
    (("wires", 0, "src"), {"line": 1}, "wires[0].src.file: missing"),
    (("wires", 0, "name"), [1], "wires[0].name: expected a string"),
    (("wires", 0, "width"), "1",
     "wires[0].width: expected a positive integer, got '1'"),
    (("wires", 0, "width"), True,
     "wires[0].width: expected a positive integer, got True"),
    (("splits", 0, "width"), None,
     "splits[0].width: expected a positive integer, got None"),
    (("splits", 0, "parent"), [1], "splits[0].parent: expected a string"),
    (("splits", 0, "bits", 0, "index"), None,
     "splits[0].bits[0].index: expected a non-negative integer, got None"),
    (("memories", 0, "depth"), None,
     "memories[0].depth: expected a positive integer, got None"),
    (("memories", 0, "init"), 5, "memories[0].init: expected a list"),
    (("memories", 0, "id"), [1], "memories[0].id: expected a string"),
    (("gates", 0, "params"), [1], "gates[0].params: expected an object"),
])
def test_wrong_type_is_named(path, value, message):
    doc = _doc_all_sections()
    owner = doc
    for step in path[:-1]:
        owner = owner[step]
    owner[path[-1]] = value
    with pytest.raises(MalformedDocument) as info:
        parse(doc)
    assert str(info.value) == message


def test_duplicate_names_are_named():
    doc = _doc_all_sections()
    doc["memories"].append({"id": "t", "depth": 1, "width": 1})
    with pytest.raises(MalformedDocument) as info:
        parse(doc)
    assert str(info.value) == "memories[1].id: duplicate memory id 't'"
    doc = doc_and()
    doc["wires"].append({"name": "a", "width": 1})
    with pytest.raises(MalformedDocument) as info:
        parse(doc)
    assert str(info.value) == "wires[3].name: duplicate wire name 'a'"


def _fields(circuit):
    return (circuit.wires, circuit.gates, circuit.registers, circuit.inputs,
            circuit.outputs, circuit.splits, circuit.memories)


def test_memories_round_trip():
    # a table remasked as sbox_m[i ^ m] = sbox[i] ^ mp, read at the masked
    # index k ^ m, and a second memory initialised below its depth and
    # written at a constant index each cycle
    doc = {
        "wires": [{"name": n, "width": 2}
                  for n in ("kw", "mw", "idx", "out", "wi", "wv", "ww")],
        "inputs": ["kw", "mw", "wi", "wv"], "outputs": ["out"],
        "gates": [{"kind": "bit_xor", "output": "idx", "inputs": ["kw", "mw"]},
                  {"kind": "mem_read", "output": "out", "inputs": ["idx"],
                   "params": {"memory": "sbox_m"}},
                  {"kind": "mem_write", "output": "ww", "inputs": ["wi", "wv"],
                   "params": {"memory": "log"}}],
        "registers": [],
        "memories": [{"id": "sbox_m", "depth": 4, "width": 2,
                      "init": ["0b10", "0b01", "0b11", "0b00"]},
                     {"id": "log", "depth": 4, "width": 2, "init": ["0b01"]}],
    }
    circuit = parse(doc)
    text = serialize_netlist(circuit)
    again = parse_netlist(text)
    assert _fields(again) == _fields(circuit)
    assert [m.init for m in again.memories] == [(2, 1, 3, 0), (1, 0, 0, 0)]
    assert serialize_netlist(again) == text
    labels = ex.SymbolTable()
    for name in ("k", "m", "v"):
        labels.declare(name, 2, ex.SECRET if name == "k" else ex.MASK)
    frame = sim.StimulusFrame({"kw": ex.sym("k", 2), "mw": ex.sym("m", 2),
                               "wi": ex.cst(1, 2), "wv": ex.sym("v", 2)})
    stimuli = sim.Stimuli({"k": 3, "m": 1, "v": 2}, [frame] * 3)
    for model in (mg.LeakageModel(), mg.LeakageModel.rr1sw()):
        reports = [mg.run(c, stimuli, labels, model).to_jsonl()
                   for c in (circuit, again)]
        assert reports[0] == reports[1]
        assert '"verdict": "leaks"' in reports[0]


def test_fig6_split_round_trip():
    fx = gadgets.gen_counterexamples()["fig6"]
    text = serialize_netlist(fx.circuit)
    again = parse_netlist(text)
    assert serialize_netlist(again) == text
    (group,) = again.splits
    assert group.parent_name == "w" and group.parent_width == 2
    members = {again.name(u): i for u, i in group.members}
    assert members == {"b0": 0, "b1": 1}


def test_split_validation():
    fx = gadgets.gen_counterexamples()["fig6"]
    doc = dict(fx.doc)
    doc["splits"] = [{"parent": "w", "width": 2,
                      "bits": [{"wire": "b0", "index": 0},
                               {"wire": "b1", "index": 0}]}]
    with pytest.raises(MalformedDocument):
        parse(doc)


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------

def test_schedule_linear_chain():
    doc = {
        "wires": [{"name": "a", "width": 1}, {"name": "x", "width": 1},
                  {"name": "y", "width": 1}],
        "inputs": ["a"], "outputs": ["y"],
        "gates": [{"kind": "bit_not", "output": "y", "inputs": ["x"]},
                  {"kind": "bit_not", "output": "x", "inputs": ["a"]}],
        "registers": [],
    }
    c = parse(doc)
    assert [c.name(g.output) for g in validate_and_schedule(c)] == ["x", "y"]


def test_schedule_self_loop():
    doc = {
        "wires": [{"name": "a", "width": 1}, {"name": "o", "width": 1}],
        "inputs": ["a"], "outputs": ["o"],
        "gates": [{"kind": "bit_and", "output": "o", "inputs": ["a", "o"]}],
        "registers": [],
    }
    with pytest.raises(CombinatorialLoop) as err:
        validate_and_schedule(parse(doc))
    assert "o" in err.value.cycle


def test_register_breaks_cycle():
    # Combinatorial loop through a register is legal: q feeds back into g0.
    doc = {
        "wires": [{"name": "a", "width": 1}, {"name": "x", "width": 1},
                  {"name": "q", "width": 1}, {"name": "y", "width": 1}],
        "inputs": ["a"], "outputs": ["y"],
        "gates": [{"kind": "bit_xor", "output": "x", "inputs": ["a", "q"]},
                  {"kind": "bit_not", "output": "y", "inputs": ["q"]}],
        "registers": [{"input": "x", "output": "q", "init": "0b0"}],
    }
    c = parse(doc)
    assert len(validate_and_schedule(c)) == 2


def test_schedule_respects_dependencies_on_random_circuits():
    for seed in range(25):
        fx = gadgets.gen_random_circuit(seed, n_gates=25)
        sched = validate_and_schedule(fx.circuit)
        assert sorted(g.uid for g in sched) == \
            sorted(g.uid for g in fx.circuit.gates)
        ready = set(fx.circuit.inputs) | \
            {r.output for r in fx.circuit.registers}
        for g in sched:
            assert all(w in ready for w in g.inputs)
            assert g.output not in ready   # each wire computed exactly once
            ready.add(g.output)


def test_loop_detection_matches_dfs_oracle():
    rng = random.Random(5)
    agree = 0
    total = 0
    for _ in range(200):
        n_wires = rng.randrange(4, 10)
        n_inputs = rng.randrange(1, 3)
        wires = [{"name": f"w{i}", "width": 1} for i in range(n_wires)]
        inputs = [f"w{i}" for i in range(n_inputs)]
        gates = []
        for i in range(n_inputs, n_wires):
            gates.append({"kind": rng.choice(("bit_and", "bit_or", "bit_xor")),
                          "output": f"w{i}",
                          "inputs": [f"w{rng.randrange(n_wires)}",
                                     f"w{rng.randrange(n_wires)}"]})
        doc = {"wires": wires, "inputs": inputs,
               "outputs": [wires[-1]["name"]], "gates": gates, "registers": []}
        total += 1
        try:
            validate_and_schedule(parse(doc))
            looped = False
        except CombinatorialLoop:
            looped = True
        if looped == oracles.has_combinational_cycle(doc):
            agree += 1
    assert agree == total


def test_round_trip_on_random_circuits():
    for seed in range(30):
        fx = gadgets.gen_random_circuit(seed)
        text = serialize_netlist(fx.circuit)
        assert serialize_netlist(parse_netlist(text)) == text


# ---------------------------------------------------------------------------
# Structural index
# ---------------------------------------------------------------------------

def test_index_register_inputs():
    fx = gadgets.gen_counterexamples()["fig7"]
    idx = structural_index(fx.circuit)
    assert idx.register_input_wires == \
        {fx.circuit.by_name["c_in"].uid}
    assert idx.primary_output_wires == {fx.circuit.by_name["o0"].uid}


def test_index_mux_roles():
    doc = {
        "wires": [{"name": "s", "width": 1}, {"name": "a", "width": 2},
                  {"name": "b", "width": 2}, {"name": "o", "width": 2}],
        "inputs": ["s", "a", "b"], "outputs": ["o"],
        "gates": [{"kind": "mux", "output": "o", "inputs": ["s", "a", "b"]}],
        "registers": [],
    }
    c = parse(doc)
    idx = structural_index(c)
    (roles,) = idx.mux_roles.values()
    assert roles == (c.by_name["s"].uid, c.by_name["a"].uid, c.by_name["b"].uid)


def test_index_split_members():
    fx = gadgets.gen_counterexamples()["fig6"]
    idx = structural_index(fx.circuit)
    assert idx.split_member_wires == \
        {fx.circuit.by_name["b0"].uid, fx.circuit.by_name["b1"].uid}


@pytest.mark.parametrize("kind, in_widths, out_width, params, partial", [
    ("trunc", (4,), 2, {"lo": 1}, (True,)),
    ("zext", (4,), 4, {}, (False,)),
    ("shl", (4,), 4, {"amount": 0}, (False,)),
    ("shl", (4,), 4, {"amount": 2}, (True,)),
    ("shr", (4, 2), 4, {}, (False, False)),
    ("sshr", (1,), 1, {"amount": 1}, (False,)),
    ("blit", (4, 2), 4, {"lo": 1}, (True, False)),
    ("sext", (2,), 4, {}, (False,)),
    ("repeat", (2,), 4, {"count": 2}, (False,)),
], ids=["trunc-lo-1", "zext", "shift-0", "shift-2", "shift-dynamic",
        "sshr-1-bit", "blit", "sext", "repeat"])
def test_index_partial_use(kind, in_widths, out_width, params, partial):
    names = [f"i{k}" for k in range(len(in_widths))]
    doc = {
        "wires": [{"name": n, "width": w} for n, w in zip(names, in_widths)]
        + [{"name": "o", "width": out_width}],
        "inputs": names, "outputs": ["o"],
        "gates": [{"kind": kind, "output": "o", "inputs": names,
                   "params": params}],
        "registers": [],
    }
    c = parse(doc)
    idx = structural_index(c)
    assert idx.partially_used_wires == \
        {c.by_name[n].uid for n, p in zip(names, partial) if p}
