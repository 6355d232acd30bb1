"""Gate-level verifier for masked circuits under glitch/transition probing
models, with bit- or support-wise probe granularity."""

from .expr import (Expr, SymbolTable, build, cst, sym, bit, bits, concat,
                   extract, eval_concrete, parse_expr, render, symbols_of)
from .netlist import (Circuit, CombinatorialLoop, Gate, Register,
                      StructuralIndex, parse_netlist, serialize_netlist,
                      structural_index, validate_and_schedule)
from .sim import (ConsistencyViolation, SimOptions, SimState, Stimuli,
                  StimulusFrame, SymbolicIndexUnhandled, Valuation,
                  parse_stimuli, simulate, step_cycle)
from .verify import (GadgetSpec, LeakWitness, TooLarge, TooMany,
                     TupleResult, Verdict, check, check_enumeration, check_ni,
                     check_sni, check_substitution, make_expr_set)
from .manager import (BIT, SUPPORT_WISE, LeakReport, LeakageModel,
                      ReportEntry, RunOptions, expr_sets_for, run,
                      verify_higher_order, wires_to_verify)
from . import gadgets

__all__ = [name for name in dir() if not name.startswith("_")]
