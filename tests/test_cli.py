"""Command-line interface: flag handling, exit codes, report files."""

import json

import pytest

from probewise.cli import main


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
                 "--enum-limit", "4"])
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


def test_stimuli_with_expressions_round_trip(fixture_dir):
    text = (fixture_dir / "fig5.stim.jsonl").read_text()
    assert '"expr"' in text   # fig5 drives i1 with XOR(k, m)


def _drop_gate_output(fixture_dir, tmp_path):
    doc = json.loads((fixture_dir / "fig5.netlist.json").read_text())
    del doc["gates"][0]["output"]
    path = tmp_path / "bad.netlist.json"
    path.write_text(json.dumps(doc))
    return ["--netlist", str(path)]


def _drop_label_width(fixture_dir, tmp_path):
    doc = json.loads((fixture_dir / "fig5.labels.json").read_text())
    del doc["symbols"][0]["width"]
    path = tmp_path / "bad.labels.json"
    path.write_text(json.dumps(doc))
    return ["--labels", str(path)]


def _second_stimuli_line(fixture_dir, tmp_path, edit):
    lines = (fixture_dir / "fig5.stim.jsonl").read_text().splitlines()
    lines[1] = edit(lines[1])
    path = tmp_path / "bad.stim.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return ["--stimuli", str(path)]


def _drop_frame_inputs(fixture_dir, tmp_path):
    def edit(line):
        frame = json.loads(line)
        del frame["inputs"]
        return json.dumps(frame)
    return _second_stimuli_line(fixture_dir, tmp_path, edit)


def _frame_not_object(fixture_dir, tmp_path):
    return _second_stimuli_line(fixture_dir, tmp_path, lambda line: "[]")


def _edit_netlist(edit):
    def mutate(fixture_dir, tmp_path):
        doc = json.loads((fixture_dir / "fig5.netlist.json").read_text())
        edit(doc)
        path = tmp_path / "bad.netlist.json"
        path.write_text(json.dumps(doc))
        return ["--netlist", str(path)]
    return mutate


def _edit_labels(edit):
    def mutate(fixture_dir, tmp_path):
        doc = json.loads((fixture_dir / "fig5.labels.json").read_text())
        path = tmp_path / "bad.labels.json"
        path.write_text(json.dumps(edit(doc)))
        return ["--labels", str(path)]
    return mutate


def _set_label_width(width):
    def edit(doc):
        doc["symbols"][0]["width"] = width
        return doc
    return _edit_labels(edit)


def _over_tuple_cap(fixture_dir, tmp_path):
    # C(36 wires, 6) = 1,947,792 spatial 6-uplets
    return [*_fig_args(fixture_dir, "dom_and_d2"), "--model", "0,0",
            "--order", "6"]


@pytest.mark.parametrize("mutate, message", [
    (_drop_gate_output, "gates[0].output: missing"),
    (_drop_label_width, "symbols[0].width: missing"),
    (_drop_frame_inputs, "stimuli line 2: frame has no 'inputs'"),
    (_frame_not_object, "stimuli line 2: expected a JSON object"),
    (lambda *_: ["--model", "2,x"], "--model must be"),
    (lambda *_: ["--model", "2,0"], "--model must be"),
    (_edit_netlist(lambda doc: doc["gates"][0].update(inputs=5)),
     "gates[0].inputs: expected a list"),
    (_set_label_width(None), "symbols[0].width: expected a positive integer"),
    (_set_label_width(-3), "symbols[0].width: expected a positive integer"),
    (_edit_labels(lambda doc: doc["symbols"]), "labels: expected a JSON object"),
    (_edit_labels(lambda doc: {"symbols": ["k"]}),
     "symbols[0]: expected an object"),
    (_edit_labels(lambda doc: {"symbols": [{"name": 5, "width": 1,
                                            "kind": "secret"}]}),
     "symbols[0].name: expected a string"),
    (_over_tuple_cap, "1947792 tuples exceed the cap of 1000000"),
], ids=["gate-output", "label-width", "frame-inputs", "frame-not-object",
        "model-2x", "model-20", "gate-inputs-int", "label-width-null",
        "label-width-negative", "labels-list", "label-not-object",
        "label-name-int", "tuple-cap"])
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


@pytest.mark.parametrize("command", ["ni", "sni"])
@pytest.mark.parametrize("args, message", [
    (["--order", "0"], "--order must be >= 1, got 0"),
    (["--order", "1", "--verif-order", "0"], "--verif-order must be >= 1, got 0"),
    (["--order", "1", "--cycles", "0"], "--cycles must be >= 1, got 0"),
], ids=["order-0", "verif-order-0", "cycles-0"])
def test_ni_sni_reject_arguments_below_1(capsys, command, args, message):
    code = main([command, "--gadget", "dom_and", *args])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"
