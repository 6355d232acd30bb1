"""Command-line interface: flag handling, exit codes, report files."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import probewise
from probewise import gadgets
from probewise.cli import main
from probewise.manager import BIT, LeakageModel, run
from probewise.netlist import parse_netlist, serialize_netlist
from probewise.expr import SymbolTable
from probewise.inputs import MAX_DEPTH, MAX_WIDTH
from probewise.sim import dump_stimuli, parse_stimuli


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixtures")
    assert main(["gen-fixtures", "--out", str(out)]) == 0
    return out


def _fig_args(fixture_dir, name):
    return ["--netlist", str(fixture_dir / f"{name}.netlist.json"),
            "--labels", str(fixture_dir / f"{name}.labels.json"),
            "--stimuli", str(fixture_dir / f"{name}.stim.jsonl")]


def test_fig5_transition_run_exits_1(fixture_dir, capsys):
    code = main(["verify", *_fig_args(fixture_dir, "fig5"),
                 "--glitches=false", "--transitions=true"])
    captured = capsys.readouterr()
    assert code == 1
    assert "leaking cycles:   1" in captured.out


def test_dom_and_value_model_exits_0(fixture_dir):
    code = main(["verify", *_fig_args(fixture_dir, "dom_and_d1"),
                 "--model", "0,0"])
    assert code == 0


def test_unknown_flag_exits_2(fixture_dir, capsys):
    assert main(["verify", *_fig_args(fixture_dir, "fig5"),
                 "--frobnicate"]) == 2
    capsys.readouterr()


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["verify", "--netlist", str(tmp_path / "nope.json"),
                 "--labels", str(tmp_path / "nope.json"),
                 "--stimuli", str(tmp_path / "nope.jsonl")]) == 2
    capsys.readouterr()


def test_combinatorial_loop_exits_3(tmp_path, capsys):
    doc = {"wires": [{"name": "a", "width": 1}, {"name": "o", "width": 1}],
           "inputs": ["a"], "outputs": ["o"],
           "gates": [{"kind": "bit_or", "output": "o", "inputs": ["a", "o"]}],
           "registers": []}
    (tmp_path / "loop.json").write_text(json.dumps(doc))
    (tmp_path / "labels.json").write_text(json.dumps({"symbols": []}))
    (tmp_path / "stim.jsonl").write_text(
        json.dumps({"cycle": 0, "inputs": {"a": {"const": "0b0"}}}) + "\n")
    code = main(["verify", "--netlist", str(tmp_path / "loop.json"),
                 "--labels", str(tmp_path / "labels.json"),
                 "--stimuli", str(tmp_path / "stim.jsonl")])
    assert code == 3
    capsys.readouterr()


def _memory_args(tmp_path, doc, symbols, witness, frames):
    """Verify arguments for the netlist ``doc``, the labels ``symbols``
    (name -> (width, kind)) and stimuli of ``witness`` then ``frames``
    (input -> drive, one dict per cycle)."""
    (tmp_path / "mem.json").write_text(json.dumps(doc))
    (tmp_path / "labels.json").write_text(json.dumps({"symbols": [
        {"name": n, "width": w, "kind": k}
        for n, (w, k) in symbols.items()]}))
    lines = [{"witness": witness}] + [{"cycle": c, "inputs": f}
                                      for c, f in enumerate(frames)]
    (tmp_path / "stim.jsonl").write_text(
        "".join(json.dumps(line) + "\n" for line in lines))
    return ["verify", "--netlist", str(tmp_path / "mem.json"),
            "--labels", str(tmp_path / "labels.json"),
            "--stimuli", str(tmp_path / "stim.jsonl")]


def test_memory_write_at_symbolic_index_exits_3(tmp_path, capsys):
    # t[s ^ mm] = mm at cycle 0, so t[0] holds s & mm at cycle 1, which
    # leaks; a write at the witness's index alone would give t[0] = mm
    doc = {"wires": [{"name": n, "width": 1}
                     for n in ("wi", "m", "ri", "ww", "out")],
           "inputs": ["wi", "m", "ri"], "outputs": ["out"],
           "gates": [{"kind": "mem_write", "output": "ww",
                      "inputs": ["wi", "m"], "params": {"memory": "t"}},
                     {"kind": "mem_read", "output": "out", "inputs": ["ri"],
                      "params": {"memory": "t"}}],
           "registers": [],
           "memories": [{"id": "t", "depth": 2, "width": 1,
                         "init": ["0b0", "0b0"]}]}
    zero = {"const": "0b0"}
    args = _memory_args(
        tmp_path, doc, {"s": (1, "secret"), "mm": (1, "mask")},
        {"s": "0b1", "mm": "0b1"},
        [{"wi": {"expr": "XOR(s, mm)"}, "m": {"symbol": "mm"}, "ri": zero},
         {"wi": zero, "m": zero, "ri": zero}])
    assert main([*args, "--model", "0,0", "--check-consistency"]) == 3
    assert capsys.readouterr().err == \
        "error: memory write at 'ww' has a symbolic index\n"


def test_rom_read_at_secret_index_leaks(tmp_path, capsys):
    # a constant 4-entry ROM read at the secret k is exactly ARRAY(t, k)
    doc = {"wires": [{"name": "i", "width": 2}, {"name": "out", "width": 1}],
           "inputs": ["i"], "outputs": ["out"],
           "gates": [{"kind": "mem_read", "output": "out", "inputs": ["i"],
                      "params": {"memory": "t"}}],
           "registers": [],
           "memories": [{"id": "t", "depth": 4, "width": 1,
                         "init": ["0b0", "0b1", "0b1", "0b0"]}]}
    args = _memory_args(tmp_path, doc, {"k": (2, "secret")}, {"k": "0b01"},
                        [{"i": {"symbol": "k"}}])
    report = tmp_path / "report.jsonl"
    assert main([*args, "--model", "rr1sw", "--check-consistency",
                 "--report", str(report)]) == 1
    assert "leaks: cycle 0 wire out" in capsys.readouterr().out
    entry = json.loads(report.read_text().splitlines()[0])
    assert (entry["wire"], entry["verdict"]) == ("out", "leaks")
    assert "ARRAY(t, SYMB(k))" in entry["exprs"]


def test_report_file_is_deterministic(fixture_dir, tmp_path, capsys):
    args = ["verify", *_fig_args(fixture_dir, "fig6"),
            "--model", "1,0", "--granularity", "sw"]
    main([*args, "--report", str(tmp_path / "a.jsonl")])
    main([*args, "--report", str(tmp_path / "b.jsonl")])
    capsys.readouterr()
    a = (tmp_path / "a.jsonl").read_bytes()
    assert a == (tmp_path / "b.jsonl").read_bytes()
    lines = [json.loads(line) for line in a.decode().splitlines()]
    assert any(e.get("verdict") == "leaks" and e.get("wire") == "w"
               for e in lines)
    assert "leaking_cycles" in lines[-1]


def test_library_run_matches_cli_without_stability(fixture_dir, tmp_path,
                                                   capsys):
    # the model's stability switch alone decides, in the library and the CLI
    fx = gadgets.gen_counterexamples()["fig7"]
    model = LeakageModel(glitches=True, granularity=BIT, use_stability=False)
    report = run(fx.circuit, fx.stimuli, fx.labels, model)
    main(["verify", *_fig_args(fixture_dir, "fig7"), "--glitches", "true",
          "--transitions", "false", "--granularity", "bit",
          "--stability", "false", "--report", str(tmp_path / "r.jsonl")])
    capsys.readouterr()
    assert (tmp_path / "r.jsonl").read_text() == report.to_jsonl()


def test_rr1sw_preset(fixture_dir, capsys):
    code = main(["verify", *_fig_args(fixture_dir, "fig7"),
                 "--model", "rr1sw"])
    captured = capsys.readouterr()
    assert code == 1
    assert "cycle 2 wire i1" in captured.out


def test_ni_sni_subcommands(capsys):
    assert main(["ni", "--gadget", "dom_and", "--order", "1",
                 "--glitches=true"]) == 0
    assert main(["sni", "--gadget", "dom_and", "--order", "2",
                 "--verif-order", "2", "--glitches=true"]) == 1
    out = capsys.readouterr().out
    assert "witness" in out


def test_ni_over_enum_limit_is_inconclusive(capsys):
    code = main(["ni", "--gadget", "isw_and", "--order", "2",
                 "--glitches", "true", "--enum-limit", "4"])
    out = capsys.readouterr().out
    assert code == 1
    assert "inconclusive" in out
    assert "5 symbolic bits, limit is 4" in out
    assert "probes: v01@0[int]" in out


def test_higher_order_mode(fixture_dir, capsys):
    code = main(["verify", *_fig_args(fixture_dir, "dom_and_d1"),
                 "--model", "0,0", "--order", "2", "--ho-mode", "spatial"])
    captured = capsys.readouterr()
    assert code == 1
    assert "d-uplets" in captured.out


def test_higher_order_inconclusive_prints_and_reports_its_reason(
        fixture_dir, tmp_path, capsys):
    report = tmp_path / "ho.json"
    code = main(["verify", *_fig_args(fixture_dir, "isw_and_d1"),
                 "--model", "0,0", "--order", "2", "--enum-limit", "1",
                 "--report", str(report)])
    reason = ("substitution left sensitive symbols: a0, a1; enumeration over "
              "limit (2 > 1 bits): potential false positive")
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "d-uplets: 78 total, 1 checked", "verdict:  inconclusive",
        "leaking:  ('a0', 'a1')", f"reason:   {reason}"]
    doc = json.loads(report.read_text())
    assert (doc["verdict"], doc["reason"]) == ("inconclusive", reason)
    # a decided verdict has no reason
    assert main(["verify", *_fig_args(fixture_dir, "isw_and_d1"),
                 "--model", "0,0", "--order", "2", "--report",
                 str(report)]) == 1
    assert "reason" not in json.loads(report.read_text())
    assert "reason:" not in capsys.readouterr().out


def test_higher_order_report_lists_the_simulator_warnings(tmp_path, capsys):
    # a mux whose selector s carries the mask m over three held frames: the
    # order-2 report warns once per cycle, as the order-1 report does
    files = {"netlist": {
        "wires": [{"name": n, "width": 1} for n in ("s", "a", "b", "o")],
        "inputs": ["s", "a", "b"], "outputs": ["o"], "registers": [],
        "gates": [{"kind": "mux", "output": "o", "inputs": ["s", "a", "b"]}]},
        "labels": {"symbols": [{"name": "k", "width": 1, "kind": "secret"},
                               {"name": "m", "width": 1, "kind": "mask"}]},
        "stimuli": [{"witness": {"k": "0b1", "m": "0b0"}}] + [
            {"cycle": t, "inputs": {"s": {"symbol": "m"},
                                    "a": {"symbol": "k"},
                                    "b": {"const": "0b1"}}}
            for t in range(3)]}
    args = []
    for kind, doc in files.items():
        path = tmp_path / f"mux.{kind}"
        _write(path, kind, doc)
        args += [f"--{kind}", str(path)]
    warned = [{"cycle": t, "wire": "s", "warning": "mux selector is symbolic"}
              for t in range(3)]
    for order in (1, 2):
        report = tmp_path / f"order{order}.jsonl"
        assert main(["verify", *args, "--model", "0,0", "--order", str(order),
                     "--report", str(report)]) == 1
        lines = [json.loads(line) for line in report.read_text().splitlines()]
        if order == 1:
            assert [d for d in lines if "warning" in d] == warned
        else:
            assert [d["warnings"] for d in lines] == [warned]
    capsys.readouterr()


def test_stimuli_with_expressions_round_trip(fixture_dir):
    text = (fixture_dir / "fig5.stim.jsonl").read_text()
    assert '"expr"' in text   # fig5 drives i1 with XOR(k, m)


def test_constant_expr_drive_is_a_const_drive(fixture_dir, tmp_path, capsys):
    # fig5's i0 at cycle 0 written as {"expr": "CST(0b0)"}: the same report
    # bytes, and the drive is written back as a const
    const = fixture_dir / "fig5.stim.jsonl"
    lines = _read(const, "stimuli")
    assert lines[1]["inputs"]["i0"] == {"const": "0b0"}
    lines[1]["inputs"]["i0"] = {"expr": "CST(0b0)"}
    expr = tmp_path / "expr.stim.jsonl"
    _write(expr, "stimuli", lines)
    for model in ("0,1", "rr1sw"):
        reports = []
        for stimuli in (const, expr):
            report = tmp_path / f"{stimuli.stem}.{model}.jsonl"
            main(["verify", *_fig_args(fixture_dir, "fig5"), "--stimuli",
                  str(stimuli), "--model", model, "--report", str(report)])
            reports.append(report.read_bytes())
        assert reports[0] == reports[1], model
    capsys.readouterr()
    widths = SymbolTable.from_json(
        _read(fixture_dir / "fig5.labels.json", "labels")).widths()
    circuit = parse_netlist((fixture_dir / "fig5.netlist.json").read_text())
    assert dump_stimuli(parse_stimuli(expr.read_text(), widths, circuit),
                        widths) == const.read_text()


_SUFFIX = {"netlist": "netlist.json", "labels": "labels.json",
           "stimuli": "stim.jsonl"}


def _read(path, kind):
    """A fixture document; stimuli are the list of their JSONL line docs."""
    text = path.read_text()
    if kind == "stimuli":
        return [json.loads(line) for line in text.splitlines()]
    return json.loads(text)


def _write(path, kind, doc):
    if kind == "stimuli":
        path.write_text("".join(json.dumps(line) + "\n" for line in doc))
    else:
        path.write_text(json.dumps(doc))


def _edit(kind, edit, fixture="fig5"):
    """Verify arguments for ``fixture`` with its ``kind`` document passed
    through ``edit``, which changes the document in place or returns a new
    one."""
    def mutate(fixture_dir, tmp_path):
        doc = _read(fixture_dir / f"{fixture}.{_SUFFIX[kind]}", kind)
        new = edit(doc)
        path = tmp_path / f"bad.{_SUFFIX[kind]}"
        _write(path, kind, doc if new is None else new)
        return [*_fig_args(fixture_dir, fixture), f"--{kind}", str(path)]
    return mutate


_DROP = object()


def _change(doc, path, value):
    """Set the value at a JSON path (adding a missing key), or delete it when
    ``value`` is ``_DROP``."""
    for step in path[:-1]:
        doc = doc[step]
    if value is _DROP:
        del doc[path[-1]]
    else:
        doc[path[-1]] = value


def _set(*path_and_value):
    *path, value = path_and_value
    return lambda doc: _change(doc, path, value)


def _with_memory(edit):
    """Fig5's netlist plus one memory, passed through ``edit``."""
    def add(doc):
        doc["memories"] = [{"id": "t", "depth": 2, "width": 1}]
        edit(doc)
    return _edit("netlist", add)


def _share_a0(**changes):
    """dom_and_d1's labels with share a0 (symbols[1]) changed."""
    return _edit("labels", lambda doc: doc["symbols"][1].update(changes),
                 "dom_and_d1")


def _third_frame_drive(drive):
    """Fig5's cycle-0 frame three times over, with i1 driven by ``drive``
    (given the frames' i1 drive) on the third."""
    def edit(doc):
        witness, frame = doc[0], doc[1]
        frames = [dict(frame, cycle=c, inputs=dict(frame["inputs"]))
                  for c in range(3)]
        frames[2]["inputs"]["i1"] = drive(frame["inputs"]["i1"])
        return [witness, *frames]
    return _edit("stimuli", edit)


def _over_tuple_cap(fixture_dir, tmp_path):
    # C(36 wires, 6) = 1,947,792 spatial 6-uplets
    return [*_fig_args(fixture_dir, "dom_and_d2"), "--model", "0,0",
            "--order", "6"]


@pytest.mark.parametrize("mutate, message", [
    (_edit("netlist", _set("gates", 0, "output", _DROP)),
     "gates[0].output: missing"),
    (_edit("labels", _set("symbols", 0, "width", _DROP)),
     "symbols[0].width: missing"),
    (_edit("stimuli", _set(1, "inputs", _DROP)),
     "stimuli line 2: frame has no 'inputs'"),
    (_edit("stimuli", _set(1, [])), "stimuli line 2: expected a JSON object"),
    (lambda *_: ["--model", "2,x"], "--model must be"),
    (lambda *_: ["--model", "2,0"], "--model must be"),
    (_edit("netlist", _set("gates", 0, "inputs", 5)),
     "gates[0].inputs: expected a list"),
    (_edit("labels", _set("symbols", 0, "width", None)),
     "symbols[0].width: expected a positive integer"),
    (_edit("labels", _set("symbols", 0, "width", -3)),
     "symbols[0].width: expected a positive integer"),
    (_edit("labels", lambda doc: doc["symbols"]),
     "labels: expected a JSON object"),
    (_edit("labels", lambda doc: {"symbols": ["k"]}),
     "symbols[0]: expected an object"),
    (_edit("labels", lambda doc: {"symbols": [{"name": 5, "width": 1,
                                               "kind": "secret"}]}),
     "symbols[0].name: expected a string"),
    (_over_tuple_cap, "1947792 tuples exceed the cap of 1000000"),
    (_edit("netlist", _set("wires", 0, "src", 5)),
     "wires[0].src: expected an object"),
    (_edit("netlist", _set("wires", 0, "src", {"line": 1})),
     "wires[0].src.file: missing"),
    (_edit("netlist", _set("wires", 0, "name", [1])),
     "wires[0].name: expected a string"),
    (_edit("netlist", _set("splits", 0, "width", None), "fig6"),
     "splits[0].width: expected a positive integer, got None"),
    (_edit("netlist", _set("splits", 0, "parent", [1]), "fig6"),
     "splits[0].parent: expected a string"),
    (_edit("netlist", _set("splits", 0, "bits", 0, "index", None), "fig6"),
     "splits[0].bits[0].index: expected a non-negative integer, got None"),
    (_with_memory(_set("memories", 0, "depth", None)),
     "memories[0].depth: expected a positive integer, got None"),
    (_with_memory(_set("memories", 0, "init", 5)),
     "memories[0].init: expected a list"),
    (_with_memory(_set("memories", 0, "id", [1])),
     "memories[0].id: expected a string"),
    (_edit("netlist", _set("gates", 0, "params", [1])),
     "gates[0].params: expected an object"),
    (_edit("stimuli", _set(1, "inputs", 5)),
     "stimuli line 2: inputs: expected an object"),
    (_edit("stimuli", _set(1, "inputs", "i1", 5)),
     "stimuli line 2: inputs.i1: expected an object"),
    (_edit("stimuli", _set(1, "inputs", "i1", {"symbol": [1]})),
     "stimuli line 2: inputs.i1.symbol: expected a string"),
    (_edit("stimuli", _set(1, "inputs", "i1", {"expr": 5})),
     "stimuli line 2: inputs.i1.expr: expected a string"),
    (_edit("stimuli", _set(1, "inputs", "i1", {"expr": "XOR(k, m) !!"})),
     "stimuli line 2: inputs.i1.expr: unexpected character '!'"),
    (_edit("stimuli", _set(1, "inputs", "i1", {"expr": "ARRAY(k)"})),
     "stimuli line 2: inputs.i1.expr: table reads (ARRAY) cannot be parsed"),
    (_third_frame_drive(lambda good: {"expr": good["expr"] + " !!"}),
     "stimuli line 4: inputs.i1.expr: unexpected character '!'"),
    # the const key is read first, so the valid expr beside it is not used
    (_third_frame_drive(lambda good: {**good, "const": 5}),
     "stimuli line 4: inputs.i1.const: expected a string"),
    (_edit("stimuli", _set(1, "cycle", None)),
     "stimuli line 2: cycle: expected a non-negative integer, got None"),
    (_edit("stimuli", _set(1, "inputs", "i0", {"const": "0b00"})),
     "stimuli line 2: inputs.i0: width 2, wire is 1"),
    (_edit("stimuli", _set(1, "inputs", "i1", _DROP)),
     "stimuli line 2: inputs.i1: missing"),
    (_edit("stimuli", _set(0, "witness", 5)),
     "stimuli line 1: witness: expected an object"),
    (_edit("stimuli", _set(0, "witness", "m", _DROP)),
     "stimuli: witness.m: missing"),
    (_edit("stimuli", lambda doc: []), "stimuli: no frames"),
    (_edit("stimuli", lambda doc: doc[:1]), "stimuli: no frames"),
    (_share_a0(secret=[1]), "symbols[1].secret: expected a string"),
    (_share_a0(index="0"),
     "symbols[1].index: expected a non-negative integer, got '0'"),
    (_share_a0(secret="q"), "symbols[1].secret: 'q' is not a declared secret"),
    (_share_a0(secret="z01"),
     "symbols[1].secret: 'z01' is not a declared secret"),
    (_share_a0(width=2),
     "symbols[1].width: 2 differs from the width of secret 'a'"),
    (lambda fixture_dir, tmp_path: ["--enum-limit", "-1"],
     "--enum-limit must be >= 0, got -1"),
    # one past each size bound, rejected before anything is simulated
    (_edit("netlist", _set("wires", 0, "width", MAX_WIDTH + 1)),
     "wires[0].width: expected at most 4096, got 4097"),
    (_with_memory(_set("memories", 0, "width", MAX_WIDTH + 1)),
     "memories[0].width: expected at most 4096, got 4097"),
    (_with_memory(_set("memories", 0, "depth", MAX_DEPTH + 1)),
     "memories[0].depth: expected at most 65536, got 65537"),
    (_edit("labels", _set("symbols", 0, "width", MAX_WIDTH + 1)),
     "symbols[0].width: expected at most 4096, got 4097"),
    (_edit("stimuli", _set(1, "inputs", "i1", {"expr": "ZEXT(k, 4097)"})),
     "stimuli line 2: inputs.i1.expr: ZEXT width: expected at most 4096, "
     "got 4097"),
    (_edit("stimuli", _set(1, "inputs", "i1", {"expr": "SEXT(k, 4097)"})),
     "stimuli line 2: inputs.i1.expr: SEXT width: expected at most 4096, "
     "got 4097"),
], ids=["gate-output", "label-width", "frame-inputs", "frame-not-object",
        "model-2x", "model-20", "gate-inputs-int", "label-width-null",
        "label-width-negative", "labels-list", "label-not-object",
        "label-name-int", "tuple-cap", "wire-src-int", "wire-src-no-file",
        "wire-name-list", "split-width-null", "split-parent-list",
        "split-index-null", "memory-depth-null", "memory-init-int",
        "memory-id-list", "gate-params-list", "frame-inputs-int",
        "drive-int", "drive-symbol-list", "drive-expr-int", "drive-expr-junk",
        "drive-expr-array", "drive-expr-junk-frame-3",
        "drive-const-int-frame-3", "frame-cycle-null", "drive-width",
        "drive-missing",
        "witness-int", "witness-missing", "stimuli-empty",
        "stimuli-witness-only", "share-secret-list",
        "share-index-string", "share-secret-undeclared", "share-of-mask",
        "share-width", "enum-limit-negative", "wire-width-past-bound",
        "memory-width-past-bound", "memory-depth-past-bound",
        "label-width-past-bound", "drive-zext-past-bound",
        "drive-sext-past-bound"])
def test_malformed_input_exits_2_with_one_line(fixture_dir, tmp_path, capsys,
                                               mutate, message):
    # later flags override the valid fig5 paths
    code = main(["verify", *_fig_args(fixture_dir, "fig5"),
                 *mutate(fixture_dir, tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err
    assert "Traceback" not in err


def _with_gates(*gates, wires=()):
    """Fig5's netlist plus memory ``t`` (depth 2, width 1), the 1-bit
    ``wires`` and ``gates``."""
    def add(doc):
        doc["wires"] += [{"name": w, "width": 1} for w in wires]
        doc["gates"] += gates
    return _with_memory(add)


def _read_port(output):
    return {"kind": "mem_read", "output": output, "inputs": ["i0"],
            "params": {"memory": "t"}}


def _drive(text):
    return _edit("stimuli", _set(1, "inputs", "i1", {"expr": text}))


def _wide_split_bit(doc):
    doc["wires"].append({"name": "wide", "width": 2})
    doc["splits"][0]["bits"][0]["wire"] = "wide"


@pytest.mark.parametrize("args, message", [
    (_with_memory(_set("memories", 0, "init", ["0b0", "0b1", "0b0"])),
     "memories[0].init: longer than depth 2"),
    (_edit("netlist", lambda doc: doc.update(
        wires=[*doc["wires"], {"name": "r", "width": 2}],
        registers=[{"input": "i0", "output": "r", "init": "0b00"}])),
     "registers[0] (r): expected width 1, got 2"),
    (_edit("netlist", _wide_split_bit, "fig6"),
     "splits[0].bits[0].wire (wide): expected width 1, got 2"),
    (_edit("netlist", _set("gates", 0, "inputs", ["i0"])),
     "gates[0] (bit_and -> o0): expected 2 inputs, got 1"),
    (_with_gates(dict(_read_port("r"), params={"memory": "u"}), wires=["r"]),
     "gates[1].params.memory: reference to undeclared name 'u'"),
    (_with_gates(_read_port("r"), _read_port("s"), wires=["r", "s"]),
     "gates[2] (mem_read -> s): memory 't' already has a mem_read port"),
    (_drive("XOR(k,"), "inputs.i1.expr: unexpected end of expression"),
    (_drive("XOR k"), "inputs.i1.expr: expected '(', got 'k'"),
    (_drive("k m"), "inputs.i1.expr: trailing tokens at 'm'"),
    (_drive("CST(1)"), "inputs.i1.expr: CST literal must be 0b…, got '1'"),
    (_drive("EXTRACT(k, 0)"), "inputs.i1.expr: EXTRACT(expr, lo, hi)"),
    (_drive("ZEXT(k)"), "inputs.i1.expr: ZEXT(expr, width)"),
    (_drive("XOR(k, 1)"),
     "inputs.i1.expr: unexpected integer argument for XOR"),
    (_edit("stimuli", _set(1, "inputs", "i0", {"const": "1"})),
     "inputs.i0.const: expected a 0b literal, got '1'"),
    (lambda fixture_dir, tmp_path: ["gen-fixtures", "--out",
                                    str(tmp_path / "fx"), "--orders", "1,x"],
     "--orders must be comma-separated integers"),
], ids=["memory-init-past-depth", "register-widths", "split-bit-wide",
        "gate-arity", "memory-undeclared", "memory-second-port",
        "expr-end", "expr-token", "expr-trailing", "expr-cst",
        "expr-extract", "expr-zext", "expr-int-argument", "const-literal",
        "gen-fixtures-orders"])
def test_rare_malformed_input_exits_2_naming_its_path(fixture_dir, tmp_path,
                                                      capsys, args, message):
    # the malformed inputs no other test feeds the readers: each exits 2
    # with one line that names where in its document the fault is
    argv = args(fixture_dir, tmp_path)
    if argv[0] != "gen-fixtures":
        argv = ["verify", *_fig_args(fixture_dir, "fig5"), *argv]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err
    assert "Traceback" not in err


def test_one_process_answers_like_fresh_ones(fixture_dir, capsys):
    # the parser is built once per process: a call after a usage error
    # answers as the same call does in a fresh process
    calls = [(["ni", "--gadget", "aes", "--order", "1"], 2),
             (["ni", "--gadget", "dom_and", "--order", "1"], 0),
             (["verify", *_fig_args(fixture_dir, "fig5"), "--model", "0,1"],
              1)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(probewise.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    for argv, code in calls:
        assert main(argv) == code
        ours = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "probewise.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert fresh.returncode == code
        assert (ours.out, ours.err) == (fresh.stdout, fresh.stderr), argv


@pytest.fixture(scope="module")
def mutation_sites(fixture_dir):
    """(fixture, document kind, JSON path) for every value of the fig5-7,
    dom_and_d1 and rng3 documents."""
    fx = gadgets.gen_random_circuit(3)
    (fixture_dir / "rng3.netlist.json").write_text(
        serialize_netlist(fx.circuit))
    (fixture_dir / "rng3.labels.json").write_text(json.dumps(fx.labels.to_json()))
    (fixture_dir / "rng3.stim.jsonl").write_text(
        dump_stimuli(fx.stimuli, fx.labels.widths()))

    def paths(value, prefix=()):
        if isinstance(value, (dict, list)):
            keys = value if isinstance(value, dict) else range(len(value))
            for key in keys:
                yield prefix + (key,)
                yield from paths(value[key], prefix + (key,))

    return [(name, kind, path)
            for name in ("fig5", "fig6", "fig7", "dom_and_d1", "rng3")
            for kind in _SUFFIX
            for path in paths(_read(fixture_dir / f"{name}.{_SUFFIX[kind]}",
                                    kind))]


# Every drawn integer stays small, so no mutated size makes the simulator
# allocate much; the size bounds are tested at parse time only.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(),
       value=st.sampled_from([_DROP, None, True, -3, 0, 7, "x", [], {}, [1]]))
def test_mutated_fixture_exit_codes(fixture_dir, tmp_path_factory,
                                    mutation_sites, data, value):
    name, kind, path = data.draw(st.sampled_from(mutation_sites))
    doc = _read(fixture_dir / f"{name}.{_SUFFIX[kind]}", kind)
    _change(doc, path, value)
    bad = tmp_path_factory.mktemp("mutated") / f"bad.{_SUFFIX[kind]}"
    _write(bad, kind, doc)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["verify", *_fig_args(fixture_dir, name),
                     f"--{kind}", str(bad)])
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        text = err.getvalue()
        assert text.startswith("error: ") and text.count("\n") == 1, text


@pytest.mark.parametrize("command", ["ni", "sni"])
@pytest.mark.parametrize("args, message", [
    (["--order", "0"], "--order must be >= 1, got 0"),
    (["--order", "1", "--verif-order", "0"], "--verif-order must be >= 1, got 0"),
    (["--order", "1", "--cycles", "0"], "--cycles must be >= 1, got 0"),
    (["--order", "1", "--enum-limit", "-1"],
     "--enum-limit must be >= 0, got -1"),
], ids=["order-0", "verif-order-0", "cycles-0", "enum-limit-negative"])
def test_ni_sni_reject_arguments_below_1(capsys, command, args, message):
    code = main([command, "--gadget", "dom_and", *args])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_sizes_at_their_bounds_parse():
    # a wire, a memory word and a symbol of MAX_WIDTH bits, a memory of
    # MAX_DEPTH words and drives extended to MAX_WIDTH bits; parsed only
    circuit = parse_netlist(json.dumps({
        "wires": [{"name": "i", "width": MAX_WIDTH}], "inputs": ["i"],
        "outputs": ["i"], "gates": [], "registers": [],
        "memories": [{"id": "t", "depth": MAX_DEPTH, "width": MAX_WIDTH}]}))
    assert circuit.wire(0).width == MAX_WIDTH
    (memory,) = circuit.memories
    assert (memory.depth, memory.width, len(memory.init)) == \
        (MAX_DEPTH, MAX_WIDTH, MAX_DEPTH)
    labels = SymbolTable.from_json({"symbols": [
        {"name": "k", "width": 1, "kind": "secret"},
        {"name": "w", "width": MAX_WIDTH, "kind": "public"}]})
    assert labels.width("w") == MAX_WIDTH
    lines = [{"witness": {"k": "0b1"}}] + [
        {"cycle": c, "inputs": {"i": {"expr": f"{op}(k, {MAX_WIDTH})"}}}
        for c, op in enumerate(("ZEXT", "SEXT"))]
    stimuli = parse_stimuli("\n".join(map(json.dumps, lines)),
                            labels.widths(), circuit)
    assert [f.inputs["i"].width for f in stimuli.frames] == [MAX_WIDTH] * 2


@pytest.mark.parametrize("orders", ["0", "-1", "1,0"])
def test_gen_fixtures_rejects_orders_below_1(tmp_path, capsys, orders):
    out = tmp_path / "fx"
    assert main(["gen-fixtures", "--out", str(out), f"--orders={orders}"]) == 2
    captured = capsys.readouterr()
    bad = [d for d in orders.split(",") if int(d) < 1][0]
    assert captured.err == f"error: --orders must be >= 1, got {bad}\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_gen_fixtures_out_naming_a_file_exits_2(tmp_path, capsys, under):
    # --out names a file, or a directory under one: mkdir fails
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "fx" if under else taken
    assert main(["gen-fixtures", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(out) in err
    assert "Traceback" not in err and taken.read_text() == ""
