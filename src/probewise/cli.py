"""Command-line entry point.

Subcommands:
  verify        simulate a netlist against stimuli and check a leakage model
  ni / sni      (strong) non-interference checks on generated gadgets
  gen-fixtures  write the bundled benchmark fixtures to a directory

Exit codes: 0 no leak found; 1 leaks or inconclusive verdicts; 2 usage, I/O
or malformed-input errors; 3 simulation errors (combinatorial loop,
consistency violation, a memory write at a symbolic index or a symbolic-index
read of a memory that holds a symbolic value).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import expr as ex
from . import gadgets
from . import manager as mg
from . import sim as sm
from . import verify as vf
from .inputs import load
from .netlist import CombinatorialLoop, NetlistError, parse_netlist, \
    serialize_netlist

EXIT_OK = 0
EXIT_LEAKS = 1
EXIT_USAGE = 2
EXIT_SIM = 3


def _bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {value!r}")


@functools.cache     # parse_args leaves the parser as it found it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probewise",
        description="Masked-circuit leakage verifier over glitch/transition "
                    "probing models")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="simulate + verify a netlist")
    v.add_argument("--netlist", required=True)
    v.add_argument("--labels", required=True)
    v.add_argument("--stimuli", required=True)
    v.add_argument("--model", default=None,
                   help="preset: 0,0 | 0,1 | 1,0 | 1,1 | rr1sw")
    v.add_argument("--glitches", type=_bool, default=None)
    v.add_argument("--transitions", type=_bool, default=None)
    v.add_argument("--stability", type=_bool, default=None)
    v.add_argument("--granularity", choices=(mg.BIT, mg.SUPPORT_WISE),
                   default=None)
    v.add_argument("--order", type=int, default=1)
    v.add_argument("--overapprox", action="store_true", default=None)
    v.add_argument("--ho-mode", choices=(mg.SPATIAL, mg.TEMPORAL, mg.MIXED),
                   default=mg.SPATIAL, help="position kind for order >= 2")
    v.add_argument("--enum-limit", type=int, default=vf.DEFAULT_ENUM_LIMIT)
    v.add_argument("--stop-on-first-leak", action="store_true")
    v.add_argument("--no-cache", action="store_true")
    v.add_argument("--reset-unstable", action="store_true",
                   help="treat registers as unstable at cycle 0")
    v.add_argument("--check-consistency", action="store_true")
    v.add_argument("--report", default=None, help="write the JSONL report here")

    for name in ("ni", "sni"):
        p = sub.add_parser(name, help=f"{name.upper()} check on a gadget")
        p.add_argument("--gadget", choices=("dom_and", "isw_and"), required=True)
        p.add_argument("--order", type=int, required=True,
                       help="masking order of the generated gadget")
        p.add_argument("--verif-order", type=int, default=None,
                       help="number of probes d (default: masking order)")
        p.add_argument("--glitches", type=_bool, default=False)
        p.add_argument("--cycles", type=int, default=2)
        p.add_argument("--enum-limit", type=int, default=vf.DEFAULT_ENUM_LIMIT)

    g = sub.add_parser("gen-fixtures", help="write benchmark fixtures")
    g.add_argument("--out", required=True)
    g.add_argument("--orders", default="1,2",
                   help="comma-separated gadget orders (default 1,2)")
    return parser


def _leakage_model(args) -> mg.LeakageModel:
    model = mg.LeakageModel()
    if args.model is not None:
        preset = args.model.strip().lower()
        if preset == "rr1sw":
            model = mg.LeakageModel.rr1sw()
        else:
            flags = [f.strip() for f in preset.split(",")]
            if len(flags) != 2 or not set(flags) <= {"0", "1"}:
                raise ValueError(f"--model must be 0,0, 0,1, 1,0, 1,1 or "
                                 f"rr1sw, got {args.model!r}")
            model = mg.LeakageModel(glitches=flags[0] == "1",
                                    transitions=flags[1] == "1")
    overrides = {"glitches": args.glitches, "transitions": args.transitions,
                 "use_stability": args.stability,
                 "granularity": args.granularity,
                 "overapprox": args.overapprox}
    return replace(model, order=args.order,
                   **{k: v for k, v in overrides.items() if v is not None})


def _below(flag: str, value: int, least: int) -> bool:
    """Print the usage error of an integer flag below ``least``."""
    if value < least:
        print(f"error: {flag} must be >= {least}, got {value}", file=sys.stderr)
    return value < least


def _cmd_verify(args) -> int:
    if _below("--enum-limit", args.enum_limit, 0):
        return EXIT_USAGE
    try:
        netlist_text = Path(args.netlist).read_text()
        labels_text = Path(args.labels).read_text()
        stimuli_text = Path(args.stimuli).read_text()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        circuit = parse_netlist(netlist_text)
        labels = ex.SymbolTable.from_json(load(labels_text, "labels"))
        stimuli = sm.parse_stimuli(stimuli_text, labels.widths(), circuit)
        model = _leakage_model(args)
    except (NetlistError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    options = mg.RunOptions(
        enum_limit=args.enum_limit,
        stop_on_first_leak=args.stop_on_first_leak,
        use_cache=not args.no_cache,
        reset_unstable=args.reset_unstable,
        check_consistency=args.check_consistency,
    )
    try:
        if model.order > 1:
            return _higher_order(args, circuit, stimuli, labels, model, options)
        report = mg.run(circuit, stimuli, labels, model, options)
    except (CombinatorialLoop, sm.SimError, ex.UnboundSymbol) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIM
    except vf.TooMany as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.report:
        Path(args.report).write_text(report.to_jsonl())
    summary = report.summary
    flagged = report.flagged()
    print(f"cycles:           {summary.cycles}")
    print(f"leaking cycles:   {summary.leaking_cycles}")
    print(f"expr to verify:   {summary.expr_to_verify}")
    print(f"verified expr:    {summary.verified_expr}")
    print(f"cache hits:       {summary.cache_hits}")
    print(f"trivial skipped:  {summary.trivial_skipped}")
    for entry in flagged[:20]:
        where = f" ({entry.src[0]}:{entry.src[1]})" if entry.src else ""
        print(f"  {entry.verdict.status}: cycle {entry.cycle} wire "
              f"{entry.wire}{where} [{entry.facet}]")
    if len(flagged) > 20:
        print(f"  ... {len(flagged) - 20} more")
    return EXIT_LEAKS if flagged else EXIT_OK


def _higher_order(args, circuit, stimuli, labels, model, options) -> int:
    result = mg.verify_higher_order(circuit, stimuli, labels, model,
                                    args.ho_mode, options)
    print(f"d-uplets: {result.tuple_count} total, {result.tuples_checked} checked")
    print(f"verdict:  {result.verdict.status}")
    if result.leaking_tuple is not None:
        print(f"leaking:  {result.leaking_tuple}")
    if result.verdict.reason:
        print(f"reason:   {result.verdict.reason}")
    if args.report:
        doc = {"order": model.order, "mode": args.ho_mode,
               "tuples": result.tuple_count,
               "checked": result.tuples_checked,
               "verdict": result.verdict.status}
        if result.verdict.reason:
            doc["reason"] = result.verdict.reason
        if result.leaking_tuple is not None:
            doc["leaking_tuple"] = list(result.leaking_tuple)
            if result.verdict.witness:
                doc["witness"] = result.verdict.witness.to_json()
        if result.warnings:
            doc["warnings"] = [{"cycle": c, "wire": w, "warning": msg}
                               for c, w, msg in result.warnings]
        Path(args.report).write_text(json.dumps(doc, sort_keys=True) + "\n")
    return EXIT_OK if result.verdict.is_secure else EXIT_LEAKS


def _cmd_ni(args, strong: bool) -> int:
    d = args.verif_order if args.verif_order is not None else args.order
    for flag, value, least in (("--order", args.order, 1),
                               ("--verif-order", d, 1),
                               ("--cycles", args.cycles, 1),
                               ("--enum-limit", args.enum_limit, 0)):
        if _below(flag, value, least):
            return EXIT_USAGE
    gen = gadgets.gen_dom_and if args.gadget == "dom_and" else gadgets.gen_isw_and
    _, _, _, spec = gen(args.order, cycles=args.cycles)
    checker = vf.check_sni if strong else vf.check_ni
    result = checker(spec, d, args.glitches, args.enum_limit)
    verdict = result.verdict
    prop = "SNI" if strong else "NI"
    glitch_txt = "with" if args.glitches else "without"
    print(f"{args.gadget} order {args.order}, {prop} at d={d} {glitch_txt} "
          f"glitches: {verdict.status}")
    if result.leaking_tuple is not None:
        probes = ", ".join(p.describe() for p in result.leaking_tuple)
        print(f"  probes: {probes}")
    if verdict.reason:
        print(f"  reason: {verdict.reason}")
    if verdict.witness is not None:
        print(f"  witness: {json.dumps(verdict.witness.to_json(), sort_keys=True)}")
    return EXIT_OK if verdict.is_secure else EXIT_LEAKS


def _cmd_gen_fixtures(args) -> int:
    out = Path(args.out)
    try:
        orders = [int(x) for x in args.orders.split(",") if x]
    except ValueError:
        print("error: --orders must be comma-separated integers", file=sys.stderr)
        return EXIT_USAGE
    if any(_below("--orders", d, 1) for d in orders):
        return EXIT_USAGE

    def emit(name: str, circuit, labels, stimuli):
        (out / f"{name}.netlist.json").write_text(serialize_netlist(circuit))
        (out / f"{name}.labels.json").write_text(
            json.dumps(labels.to_json(), indent=1))
        widths = labels.widths()
        (out / f"{name}.stim.jsonl").write_text(sm.dump_stimuli(stimuli, widths))

    try:
        out.mkdir(parents=True, exist_ok=True)
        for fixture in gadgets.gen_counterexamples().values():
            emit(fixture.name, fixture.circuit, fixture.labels, fixture.stimuli)
        for d in orders:
            circuit, labels, stimuli, _ = gadgets.gen_dom_and(d)
            emit(f"dom_and_d{d}", circuit, labels, stimuli)
            circuit, labels, stimuli, _ = gadgets.gen_isw_and(d)
            emit(f"isw_and_d{d}", circuit, labels, stimuli)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"fixtures written to {out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    if args.command == "verify":
        code = _cmd_verify(args)
    elif args.command == "ni":
        code = _cmd_ni(args, strong=False)
    elif args.command == "sni":
        code = _cmd_ni(args, strong=True)
    else:
        code = _cmd_gen_fixtures(args)
    return code


if __name__ == "__main__":
    sys.exit(main())
