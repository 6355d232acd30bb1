"""Independent oracles used by the test suite.

Everything here re-derives expected behaviour from first principles, without
going through the code paths under test: a direct big-integer evaluator for
operator trees, a plain DFS cycle finder, and a brute-force concrete
simulator used to cross-check stability and LeakSet claims by toggling the
symbolic input bits of a cycle. It also holds the wire selections that tests
substitute for ``manager.wires_to_verify``, and the step that tests
substitute for ``sim.step_cycle`` to run without settled states.

Two reference loops are kept for the faster code in ``verify`` to agree
with, each with its own term rewriting and share count: the substitution
fixpoint run to its end with a rescan after each replacement, and the
probe-tuple walk that counts every view's footprint afresh.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import math
import random

from probewise import expr as ex
from probewise import gadgets, netlist
from probewise import verify as vf
from probewise.sim import Stimuli, StimulusFrame


def mask(w: int) -> int:
    return (1 << w) - 1


# ---------------------------------------------------------------------------
# Operator-tree evaluator (oracle for expr.build + eval_concrete)
# ---------------------------------------------------------------------------
# Trees are ('cst', value, width) | ('sym', name, width) | (op, [children],
# params). Evaluation follows two's-complement bit-vector semantics directly.

def tree_width(tree) -> int:
    tag = tree[0]
    if tag in ("cst", "sym"):
        return tree[2]
    op, children, params = tree
    if op in ("XOR", "AND", "OR", "ADD", "SUB", "MUL", "POW", "LSL", "LSR",
              "ASR"):
        return tree_width(children[0])
    if op == "NOT":
        return tree_width(children[0])
    if op == "CONCAT":
        return sum(tree_width(c) for c in children)
    if op == "EXTRACT":
        lo, hi = params
        return hi - lo + 1
    if op in ("ZEXT", "SEXT"):
        return params[0]
    raise AssertionError(op)


def tree_eval(tree, assignment) -> int:
    tag = tree[0]
    if tag == "cst":
        return tree[1] & mask(tree[2])
    if tag == "sym":
        return assignment[tree[1]] & mask(tree[2])
    op, children, params = tree
    vals = [tree_eval(c, assignment) for c in children]
    w = tree_width(tree)
    if op == "XOR":
        out = 0
        for v in vals:
            out ^= v
        return out
    if op == "AND":
        out = mask(w)
        for v in vals:
            out &= v
        return out
    if op == "OR":
        out = 0
        for v in vals:
            out |= v
        return out
    if op == "NOT":
        return ~vals[0] & mask(w)
    if op == "ADD":
        return (vals[0] + vals[1]) & mask(w)
    if op == "SUB":
        return (vals[0] - vals[1]) & mask(w)
    if op == "MUL":
        return (vals[0] * vals[1]) & mask(w)
    if op == "POW":
        return pow(vals[0], vals[1], 1 << w)
    if op == "LSL":
        return (vals[0] << vals[1]) & mask(w) if vals[1] < w else 0
    if op == "LSR":
        return vals[0] >> vals[1] if vals[1] < w else 0
    if op == "ASR":
        sign = (vals[0] >> (w - 1)) & 1
        s = vals[1]
        if s >= w:
            return mask(w) if sign else 0
        out = vals[0] >> s
        if sign:
            out |= mask(w) & ~mask(w - s)
        return out
    if op == "CONCAT":
        out = 0
        for child, v in zip(children, vals):
            out = (out << tree_width(child)) | v
        return out
    if op == "EXTRACT":
        lo, hi = params
        return (vals[0] >> lo) & mask(hi - lo + 1)
    if op == "ZEXT":
        return vals[0]
    if op == "SEXT":
        cw = tree_width(children[0])
        v = vals[0]
        if (v >> (cw - 1)) & 1:
            v |= mask(w) & ~mask(cw)
        return v
    raise AssertionError(op)


def tree_to_expr(tree) -> ex.Expr:
    tag = tree[0]
    if tag == "cst":
        return ex.cst(tree[1], tree[2])
    if tag == "sym":
        return ex.sym(tree[1], tree[2])
    op, children, params = tree
    return ex.build(op, [tree_to_expr(c) for c in children], params)


def random_tree(rng: random.Random, symbols: dict[str, int], depth: int,
                width: int):
    """Random operator tree of the requested width over the given symbols."""
    if depth == 0:
        pool = [n for n, w in symbols.items() if w == width]
        if pool and rng.random() < 0.75:
            return ("sym", rng.choice(pool), width)
        return ("cst", rng.getrandbits(width), width)
    roll = rng.random()
    if roll < 0.45:
        op = rng.choice(("XOR", "XOR", "AND", "OR"))
        n = rng.choice((2, 2, 3))
        return (op, [random_tree(rng, symbols, depth - 1, width)
                     for _ in range(n)], ())
    if roll < 0.55:
        return ("NOT", [random_tree(rng, symbols, depth - 1, width)], ())
    if roll < 0.7:
        op = rng.choice(("ADD", "SUB", "MUL"))
        return (op, [random_tree(rng, symbols, depth - 1, width),
                     random_tree(rng, symbols, depth - 1, width)], ())
    if roll < 0.78 and width >= 2:
        lo = rng.randrange(0, width)
        hi = rng.randrange(lo, width)
        inner_w = width + rng.randrange(0, 3)
        t = random_tree(rng, symbols, depth - 1, inner_w)
        if hi - lo + 1 != width:
            hi = lo + width - 1
            if hi >= inner_w:
                return random_tree(rng, symbols, 0, width)
        return ("EXTRACT", [t], (lo, hi))
    if roll < 0.86:
        w1 = rng.randrange(1, width) if width > 1 else 1
        if width - w1 >= 1:
            return ("CONCAT", [random_tree(rng, symbols, depth - 1, w1),
                               random_tree(rng, symbols, depth - 1, width - w1)],
                    ())
        return random_tree(rng, symbols, depth - 1, width)
    if roll < 0.93:
        inner = rng.randrange(1, width + 1)
        op = rng.choice(("ZEXT", "SEXT"))
        return (op, [random_tree(rng, symbols, depth - 1, inner)], (width,))
    op = rng.choice(("LSL", "LSR", "ASR"))
    amt_w = rng.choice((1, 2))
    return (op, [random_tree(rng, symbols, depth - 1, width),
                 random_tree(rng, symbols, depth - 1, amt_w)
                 if rng.random() < 0.5 else ("cst", rng.randrange(0, width + 1),
                                             amt_w)], ())


# ---------------------------------------------------------------------------
# Independent cycle detector
# ---------------------------------------------------------------------------

def has_combinational_cycle(doc: dict) -> bool:
    """DFS over gate-to-gate edges of a netlist document."""
    producer = {g["output"]: i for i, g in enumerate(doc["gates"])}
    adj = {i: [] for i in range(len(doc["gates"]))}
    for i, g in enumerate(doc["gates"]):
        for w in g["inputs"]:
            if w in producer:
                adj[producer[w]].append(i)
    color = {i: 0 for i in adj}

    def dfs(u) -> bool:
        color[u] = 1
        for v in adj[u]:
            if color[v] == 1 or (color[v] == 0 and dfs(v)):
                return True
        color[u] = 2
        return False

    return any(color[i] == 0 and dfs(i) for i in adj)


# ---------------------------------------------------------------------------
# Random circuits that shift by a symbolic amount
# ---------------------------------------------------------------------------

def dynamic_shift_circuit(seed: int) -> gadgets.Fixture | None:
    """``gadgets.gen_random_circuit(seed, n_gates=25, cycles=3)`` with each
    of its ``shl``/``shr``/``sshr`` gates, which shift by a constant
    ``params.amount``, made a two-input shift by a fresh 3-bit input
    ``amt<i>``. Each cycle drives every such input by a new 3-bit mask or
    public symbol. None when the circuit has no shift gate.

    The builder rewrites a shift by a constant into CONCAT and EXTRACT, so
    only a shift by a symbolic amount keeps an LSL, LSR or ASR term."""
    fx = gadgets.gen_random_circuit(seed, n_gates=25, cycles=3)
    doc = copy.deepcopy(fx.doc)
    amounts = []
    for g in doc["gates"]:
        if g["kind"] in netlist.SHIFT_KINDS:
            name = f"amt{len(amounts)}"
            doc["wires"].append({"name": name, "width": 3})
            doc["inputs"].append(name)
            g["inputs"].append(name)
            del g["params"]
            amounts.append(name)
    if not amounts:
        return None
    rng = random.Random(seed)
    labels, witness, frames = fx.labels, dict(fx.stimuli.witness), []
    for t, frame in enumerate(fx.stimuli.frames):
        drive = dict(frame.inputs)
        for name in amounts:
            symbol = f"a{t}_{name}"
            labels.declare(symbol, 3, rng.choice((ex.MASK, ex.PUBLIC)))
            witness[symbol] = rng.getrandbits(3)
            drive[name] = ex.sym(symbol, 3)
        frames.append(StimulusFrame(drive))
    return gadgets.Fixture(fx.name, netlist.parse_netlist(json.dumps(doc)),
                           labels, Stimuli(witness, frames), doc)


# ---------------------------------------------------------------------------
# A trace that draws fresh shares every cycle
# ---------------------------------------------------------------------------

def fresh_share_trace(d: int, cycles: int):
    """``gadgets.gen_dom_and(d)``'s circuit over ``cycles`` cycles, each of
    which drives every input by a symbol of its own: cycle t's shares
    ``a<i>.t`` and ``b<i>.t`` of the secrets ``a.t`` and ``b.t``, and its
    masks ``z<ij>.t``. Returns the circuit, the labels and the stimuli.

    The labels grow by two sharings a cycle, so a share count that reads
    every sharing of the table costs time quadratic in the trace's length."""
    circuit, _, _, _ = gadgets.gen_dom_and(d)
    rng = random.Random(d)
    labels, witness, frames = ex.SymbolTable(), {}, []
    for t in range(cycles):
        drive = {}
        for secret in "ab":
            name = f"{secret}.{t}"
            labels.declare(name, 1, ex.SECRET)
            witness[name] = 0
            for i in range(d + 1):
                share = f"{secret}{i}.{t}"
                labels.declare(share, 1, ex.SHARE, secret=name, index=i)
                witness[share] = rng.getrandbits(1)
                witness[name] ^= witness[share]
                drive[f"{secret}{i}"] = ex.sym(share, 1)
        for i, j in itertools.combinations(range(d + 1), 2):
            name = f"z{i}{j}.{t}"
            labels.declare(name, 1, ex.MASK)
            witness[name] = rng.getrandbits(1)
            drive[f"z{i}{j}"] = ex.sym(name, 1)
        frames.append(StimulusFrame(drive))
    return circuit, labels, Stimuli(witness, frames)


# ---------------------------------------------------------------------------
# Brute-force concrete simulator (glitch / stability oracle)
# ---------------------------------------------------------------------------

class ConcreteSim:
    """Plain concrete simulator over the netlist document, used as the
    ground truth for toggle experiments. Registers and memories keep their
    own state; no symbolic machinery involved."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.width = {w["name"]: w["width"] for w in doc["wires"]}
        self.reg_state = {r["output"]: int(r["init"], 2)
                          for r in doc["registers"]}
        self.gates = doc["gates"]

    def eval_cycle(self, input_values: dict[str, int]) -> dict[str, int]:
        """Wire values for one cycle, registers held at their stored state."""
        values = dict(input_values)
        values.update(self.reg_state)
        remaining = list(self.gates)
        while remaining:
            again = []
            for g in remaining:
                if all(w in values for w in g["inputs"]):
                    values[g["output"]] = self._gate(g, values)
                else:
                    again.append(g)
            if len(again) == len(remaining):
                raise AssertionError("netlist not acyclic")
            remaining = again
        return values

    def commit(self, values: dict[str, int]) -> None:
        for r in self.doc["registers"]:
            self.reg_state[r["output"]] = values[r["input"]]

    def _gate(self, g: dict, values: dict[str, int]) -> int:
        kind = g["kind"]
        ins = [values[w] for w in g["inputs"]]
        w_out = self.width[g["output"]]
        params = g.get("params") or {}
        if kind == "bit_not":
            return ~ins[0] & mask(w_out)
        if kind == "bit_and":
            return ins[0] & ins[1]
        if kind == "bit_or":
            return ins[0] | ins[1]
        if kind == "bit_xor":
            return ins[0] ^ ins[1]
        if kind == "add":
            return (ins[0] + ins[1]) & mask(w_out)
        if kind == "sub":
            return (ins[0] - ins[1]) & mask(w_out)
        if kind == "mul":
            return (ins[0] * ins[1]) & mask(w_out)
        if kind == "neg":
            return -ins[0] & mask(w_out)
        if kind == "ucmp":
            return int(ins[0] < ins[1])
        if kind == "scmp":
            w = self.width[g["inputs"][0]]
            flip = 1 << (w - 1)
            return int((ins[0] ^ flip) < (ins[1] ^ flip))
        if kind == "equal":
            return int(ins[0] == ins[1])
        if kind == "not_equal":
            return int(ins[0] != ins[1])
        if kind == "is_zero":
            return int(ins[0] == 0)
        if kind == "is_neg":
            w = self.width[g["inputs"][0]]
            return (ins[0] >> (w - 1)) & 1
        if kind in ("shl", "shr", "sshr"):
            s = int(params["amount"]) if "amount" in params else ins[1]
            w = w_out
            if kind == "shl":
                return (ins[0] << s) & mask(w) if s < w else 0
            if kind == "shr":
                return ins[0] >> s if s < w else 0
            sign = (ins[0] >> (w - 1)) & 1
            if s >= w:
                return mask(w) if sign else 0
            out = ins[0] >> s
            if sign:
                out |= mask(w) & ~mask(w - s)
            return out
        if kind == "trunc":
            lo = int(params.get("lo", 0))
            return (ins[0] >> lo) & mask(w_out)
        if kind == "zext":
            return ins[0]
        if kind == "sext":
            w = self.width[g["inputs"][0]]
            v = ins[0]
            if (v >> (w - 1)) & 1:
                v |= mask(w_out) & ~mask(w)
            return v
        if kind == "blit":
            lo = int(params.get("lo", 0))
            ws = self.width[g["inputs"][1]]
            return (ins[0] & ~(mask(ws) << lo) | (ins[1] << lo)) & mask(w_out)
        if kind == "repeat":
            w = self.width[g["inputs"][0]]
            out = 0
            for _ in range(int(params["count"])):
                out = (out << w) | ins[0]
            return out
        if kind == "mux":
            return ins[2] if ins[0] else ins[1]
        raise AssertionError(kind)


def random_expr_set(rng: random.Random):
    """A random expression set plus labels, biased toward masked patterns.

    The members' symbols take at most 18 bits, and so does their
    enumeration space: a 2-bit ``k``, ``k2``, three 2-bit shares of ``ks``
    (the space holds ``ks`` for the top one), four 2-bit masks and ``p``.
    Callers that need a smaller space skip the sets past their own limit.
    """
    labels = ex.SymbolTable()
    widths = {}
    symbols: dict[str, int] = {}

    def declare(name, width, kind, secret=None, index=None):
        labels.declare(name, width, kind, secret, index)
        widths[name] = width
        symbols[name] = width

    w = rng.choice((1, 1, 2))
    declare("k", w, ex.SECRET)
    if rng.random() < 0.4:
        declare("k2", 1, ex.SECRET)
    if rng.random() < 0.35:
        # a shared secret: shares obey the Boolean resharing relation
        n_shares = rng.choice((2, 3))
        labels.declare("ks", w, ex.SECRET)
        widths["ks"] = w
        for i in range(n_shares):
            declare(f"ks{i}", w, ex.SHARE, secret="ks", index=i)
    n_masks = rng.randrange(1, 5)
    for i in range(n_masks):
        declare(f"m{i}", w if rng.random() < 0.7 else 1, ex.MASK)
    if rng.random() < 0.3:
        declare("p", 1, ex.PUBLIC)

    exprs = []
    for _ in range(rng.randrange(1, 4)):
        width = rng.choice((w, 1))
        depth = rng.randrange(1, 4)
        tree = random_tree(rng, symbols, depth, width)
        e = tree_to_expr(tree)
        if rng.random() < 0.6:
            pool = [n for n in symbols if n.startswith("m")
                    and symbols[n] == e.width]
            if pool:
                e = ex.build("XOR", [e, ex.sym(rng.choice(pool),
                                               e.width)])
        exprs.append(e)
    return exprs, labels


def toggle_assignments(base: dict[str, int], toggled: dict[str, int],
                       cap: int = 1 << 12):
    """All assignments of the toggled symbols, others fixed at base."""
    names = sorted(toggled)
    widths = [toggled[n] for n in names]
    total = sum(widths)
    assert (1 << total) <= cap, f"too many toggle bits ({total})"
    for combo in itertools.product(*[range(1 << w) for w in widths]):
        a = dict(base)
        a.update(dict(zip(names, combo)))
        yield a


def _basis(exprs, labels, shares_free=False):
    """Base variable widths, derived symbols (name -> the names whose XOR
    it is), secrets and publics of a set.

    Base variables are masks, publics, declared secrets and all shares but
    the top-index one (which equals its secret XOR the rest). With
    ``shares_free``, as in NI/SNI, every share is a base variable and a
    secret is the XOR of all of its shares; ValueError for a secret
    declared without shares, which no simulator's budget holds.
    """
    symbols = sorted({n for e in exprs for n in ex.symbols_of(e)})
    base: dict[str, int] = {}
    derived: dict[str, list[str]] = {}
    secrets: set[str] = set()
    publics: set[str] = set()
    for name in symbols:
        kind = labels.kind(name)
        if kind == "secret" and shares_free:
            derived[name] = labels.shares_of(name)
            if not derived[name]:
                raise ValueError(f"secret {name!r} has no shares to simulate")
            base.update((s, labels.width(s)) for s in derived[name])
        elif kind == "share" and shares_free:
            base[name] = labels.width(name)
        elif kind == "share":
            parent, _ = labels.share_parent(name)
            siblings = labels.shares_of(parent)
            if name == siblings[-1]:
                base[parent] = labels.width(parent)
                secrets.add(parent)
                for o in siblings[:-1]:
                    base[o] = labels.width(o)
                derived[name] = [parent, *siblings[:-1]]
            else:
                base[name] = labels.width(name)
        else:
            base[name] = labels.width(name)
            if kind == "secret":
                secrets.add(name)
            elif kind == "public":
                publics.add(name)
    return base, derived, secrets, publics


def _assignments(base, derived):
    """Every assignment of the base variables, derived shares filled in."""
    names = sorted(base)
    for combo in itertools.product(*[range(1 << base[n]) for n in names]):
        a = dict(zip(names, combo))
        for name, parts in derived.items():
            a[name] = 0
            for part in parts:
                a[name] ^= a[part]
        yield a


def leaking_publics(exprs, labels) -> list[dict[str, int]]:
    """Every public assignment under which the joint histogram of the
    expression tuple differs between secret assignments, in key order
    (public names sorted, the first most significant); see ``_basis`` for
    the variables enumerated."""
    base, derived, secrets, publics = _basis(exprs, labels)
    if not secrets:
        return []
    names = sorted(publics)
    hists: dict[tuple, dict[tuple, dict]] = {}
    for a in _assignments(base, derived):
        pk = tuple(a[n] for n in names)
        sk = tuple(a[n] for n in sorted(secrets))
        value = tuple(ex.eval_concrete(e, a) for e in exprs)
        hist = hists.setdefault(pk, {}).setdefault(sk, {})
        hist[value] = hist.get(value, 0) + 1
    return [dict(zip(names, pk)) for pk, by_secret in sorted(hists.items())
            if any(h != next(iter(by_secret.values()))
                   for h in by_secret.values())]


def first_uneven_group(exprs, labels, selection=None):
    """The leak witness of the counting kernel, by dict counting: the first
    group in key order whose rows are not spread alike over the vary
    values, and the two vary values the witness names.

    Without a ``selection`` the key is the publics (sorted by name), then
    the member values in member order, and the secrets vary, as for a set.
    A ``(fixed, vary)`` selection of share names makes shares free, as for
    a probe tuple: the key is the fixed shares, then the members, and the
    publics are not in it. Vary values are compared as tuples in ``vary``
    order. The two picked are the lowest present in the group and the
    lowest absent from it, else the lowest present with another count.

    Returns None when every group is even, else ``(fixed, vary_a, vary_b,
    values, count_a, count_b)``: ``fixed`` maps the key's leading names to
    the group's values, ``values`` are the members'.
    """
    base, derived, secrets, publics = _basis(exprs, labels,
                                             selection is not None)
    lead, vary = (sorted(publics), sorted(secrets)) if selection is None \
        else selection
    groups: dict[tuple, dict[tuple, int]] = {}
    for a in _assignments(base, derived):
        key = (tuple(a[n] for n in lead),
               tuple(ex.eval_concrete(e, a) for e in exprs))
        counts = groups.setdefault(key, {})
        v = tuple(a[n] for n in vary)
        counts[v] = counts.get(v, 0) + 1
    every = list(itertools.product(*[range(1 << base[n]) for n in vary]))
    for key in sorted(groups):
        counts = groups[key]
        if len({counts.get(v, 0) for v in every}) == 1:
            continue
        a = min(counts)
        absent = [v for v in every if v not in counts]
        b = absent[0] if absent else \
            min(v for v in counts if counts[v] != counts[a])
        return (dict(zip(lead, key[0])), dict(zip(vary, a)),
                dict(zip(vary, b)), key[1], counts[a], counts.get(b, 0))
    return None


def share_count(symbols, labels, budget=None) -> bool:
    """The share count as the README states it, on a set of symbol names.

    With no budget: no secret occurs, and of each secret only a proper
    subset of its shares. With a budget: at most ``budget`` shares of each
    secret occur, a secret observed directly counting as all of its shares.
    """
    secrets = {n for n in symbols if labels.kind(n) == "secret"}
    if budget is None:
        return not secrets and all(
            len(set(shares) & set(symbols)) < len(shares)
            for shares in labels.sharings())
    seen = set(symbols).union(*(labels.shares_of(s) for s in secrets))
    return all(len(set(shares) & seen) <= budget
               for shares in labels.sharings())


RANGE_CAP = 6   # a mask with more occurrences than this is never replaced


def occurrence_ranges(e, masks) -> dict[str, list[tuple[int, int]]]:
    """The bit ranges at which each of ``masks`` occurs in the tree
    expansion of ``e``, walked afresh: an occurrence under a direct EXTRACT
    uses the extracted range, any other the full width, and each list
    stops past ``RANGE_CAP`` ranges."""
    out: dict[str, list[tuple[int, int]]] = {}
    if e.kind == "sym":
        if e.name in masks:
            out[e.name] = [(0, e.width - 1)]
    elif e.kind == "op":
        if e.op == "EXTRACT" and e.children[0].kind == "sym" \
                and e.children[0].name in masks:
            out[e.children[0].name] = [e.params]
        else:
            for c in e.children:
                for name, ranges in occurrence_ranges(c, masks).items():
                    bucket = out.setdefault(name, [])
                    if len(bucket) <= RANGE_CAP:
                        bucket.extend(ranges[:RANGE_CAP + 1 - len(bucket)])
    return out


def _atom_range(node, name):
    """The bit range of ``name`` that ``node`` is, a whole symbol or a
    direct EXTRACT of one, else None."""
    if node.kind == "sym" and node.name == name:
        return (0, node.width - 1)
    if node.kind == "op" and node.op == "EXTRACT" \
            and node.children[0].kind == "sym" \
            and node.children[0].name == name:
        return node.params
    return None


def replace_xor_of(e, name, rng, fresh):
    """``e`` with the first XOR node, in child order, that has the atom
    ``(name, rng)`` as an operand replaced by ``fresh``, searched below
    XOR, CONCAT and EXTRACT nodes only; None if there is no such node."""
    if e.kind != "op":
        return None
    if e.op == "XOR" and any(_atom_range(c, name) == rng
                             for c in e.children):
        return fresh
    if e.op not in ("XOR", "CONCAT", "EXTRACT"):
        return None
    for pos, child in enumerate(e.children):
        sub = replace_xor_of(child, name, rng, fresh)
        if sub is not None:
            return ex.build(e.op, [*e.children[:pos], sub,
                                   *e.children[pos + 1:]], e.params)
    return None


def substitution_fixpoint(exprs, labels) -> set[str]:
    """The labeled symbols left in ``exprs`` once no bijective mask is left
    to replace, by the loop that rescans every member after each
    replacement and restarts at the first mask name, until a pass replaces
    nothing."""
    masks = frozenset(n for e in exprs for n in ex.symbols_of(e)
                      if labels.kind(n) == ex.MASK)
    members = list(exprs)
    fresh_n = 0
    progress = True
    while progress:
        progress = False
        occ: dict[str, list[tuple[int, int]]] = {}
        for m in members:
            for name, ranges in occurrence_ranges(m, masks).items():
                occ.setdefault(name, []).extend(ranges)
        for name in sorted(occ):
            ranges = occ[name]
            if len(ranges) > RANGE_CAP:
                continue
            for rng in ranges:
                # a range alone: it overlaps no other occurrence
                if sum(not (rng[1] < o[0] or o[1] < rng[0])
                       for o in ranges) != 1:
                    continue
                fresh = ex.sym(f"$sub{fresh_n}", rng[1] - rng[0] + 1)
                for idx, m in enumerate(members):
                    sub = replace_xor_of(m, name, rng, fresh)
                    if sub is not None:
                        members[idx] = sub
                        masks = masks | {fresh.name}
                        fresh_n += 1
                        progress = True
                        break
                if progress:
                    break
            if progress:
                break
    return {n for m in members for n in ex.symbols_of(m) if n in labels}


def fixpoint_count(exprs, labels, budget):
    """The verdict of the share count on the symbols the whole fixpoint
    leaves: Secure, or Inconclusive naming the sensitive ones."""
    left = substitution_fixpoint(exprs, labels)
    if share_count(left, labels, budget):
        return vf.Verdict.secure()
    sensitive = sorted(n for n in left if labels.is_sensitive(n))
    return vf.Verdict.inconclusive(
        "substitution left sensitive symbols: " + ", ".join(sensitive))


def check_tuples(positions, sizes, parts, weights, decide, labels, cap=None):
    """The reference probe-tuple walk: no packed footprints and no memo of
    unions or counts, each view of each tuple counted as the README states
    the count (:func:`share_count`) on its members' symbols. The same
    tuples, views and ``decide`` calls in the same order, and the same
    result, as ``vf.check_tuples``."""
    sizes = list(sizes)
    counts = [math.comb(len(positions), q) for q in sizes]
    for count in counts:
        if cap is not None and count > cap:
            raise vf.TooMany(count, cap)
    total = sum(counts)
    memo: dict = {}
    checked = 0
    for combo in itertools.chain.from_iterable(
            itertools.combinations(range(len(positions)), q) for q in sizes):
        checked += 1
        budget = None if weights is None else sum(weights[i] for i in combo)
        for view in range(len(parts[0]) if parts else 0):
            members = [e for i in combo for e in parts[i][view][0]]
            symbols = {n for e in members for n in ex.symbols_of(e)}
            if share_count(symbols, labels, budget):
                continue
            key = (vf.make_expr_set(members), budget)
            verdict = memo.get(key)
            if verdict is None:
                verdict = memo[key] = decide(*key)
            if not verdict.is_secure:
                return vf.TupleResult(verdict, checked, total,
                                      tuple(positions[i] for i in combo))
    return vf.TupleResult(vf.Verdict.secure(), checked, total)


def independence_bruteforce(exprs, labels) -> bool:
    """Dict-counting twin of the enumeration verdict: the set is independent
    iff, for every public assignment, the joint histogram of the expression
    tuple is the same for every secret assignment."""
    return not leaking_publics(exprs, labels)


def joint_value_counts(exprs, labels, pinned,
                       shares_free=False) -> dict[tuple, int]:
    """How often each value tuple of ``exprs`` occurs over the enumerated
    assignments that agree with ``pinned`` (name -> value)."""
    base, derived, _, _ = _basis(exprs, labels, shares_free)
    counts: dict[tuple, int] = {}
    for a in _assignments(base, derived):
        if all(a[n] == v for n, v in pinned.items()):
            value = tuple(ex.eval_concrete(e, a) for e in exprs)
            counts[value] = counts.get(value, 0) + 1
    return counts


def simulatable_bruteforce(exprs, labels, secrets: dict[str, list[str]],
                           budget: int) -> bool:
    """Dict-counting reimplementation of NI probe-tuple simulatability.

    Tries every selection of at most ``budget`` shares per secret; the tuple
    is simulatable when, for the fixed selected shares, its joint
    distribution does not depend on the other shares. Shares are free and
    a secret is the XOR of all of its shares, so observing a secret
    observes every one of them.
    """
    base, derived, _, _ = _basis(exprs, labels, shares_free=True)
    present = {s: [n for n in shares if n in base]
               for s, shares in secrets.items()}
    if all(len(p) <= budget for p in present.values()):
        return True
    selections = []
    for s in sorted(present):
        k = min(budget, len(present[s]))
        selections.append(list(itertools.combinations(present[s], k)))
    assignments = list(_assignments(base, derived))
    values = []
    for a in assignments:
        values.append(tuple(ex.eval_concrete(e, a) for e in exprs))
    for selection in itertools.product(*selections):
        sel = sorted(n for c in selection for n in c)
        non_sel = sorted(n for p in present.values() for n in p
                         if n not in sel)
        dists: dict[tuple, dict[tuple, dict]] = {}
        for a, v in zip(assignments, values):
            sk = tuple(a[n] for n in sel)
            nk = tuple(a[n] for n in non_sel)
            hist = dists.setdefault(sk, {}).setdefault(nk, {})
            hist[v] = hist.get(v, 0) + 1
        ok = True
        for by_nonsel in dists.values():
            hists = list(by_nonsel.values())
            if any(h != hists[0] for h in hists[1:]):
                ok = False
                break
        if ok:
            return True
    return False


def glitch_coverage_violations(fixture, sim_module, netlist_module,
                               expr_module) -> tuple[int, int]:
    """Brute-force toggle oracle for LeakSet coverage and stability.

    Within a cycle, registers and memories hold their settled values while
    the symbolic input bits of that cycle range over every assignment. A
    wire bit's transient value must be a function of its LeakSet members'
    values, and a stable bit must not move at all. Returns (bit checks,
    violations).
    """
    ex = expr_module
    sched = netlist_module.validate_and_schedule(fixture.circuit)
    states = sim_module.simulate(fixture.circuit, sched, fixture.stimuli)
    oracle = ConcreteSim(fixture.doc)
    checked = violations = 0
    for frame, state in zip(fixture.stimuli.frames, states):
        toggled: dict[str, int] = {}
        base_inputs: dict[str, int] = {}
        for name, drive in frame.inputs.items():
            base_inputs[name] = ex.eval_concrete(drive, fixture.stimuli.witness)
            for sname in ex.symbols_of(drive):
                toggled[sname] = fixture.labels.width(sname)
        members: list = []
        seen = set()
        for w in fixture.circuit.wires:
            for bucket in state.current[w.uid].lset:
                for m in bucket:
                    if m.uid not in seen:
                        seen.add(m.uid)
                        members.append(m)
        rows = []
        for assignment in toggle_assignments(fixture.stimuli.witness, toggled):
            inputs = {}
            for name, drive in frame.inputs.items():
                inputs[name] = ex.eval_concrete(drive, assignment)
            values = oracle.eval_cycle(inputs)
            memo: dict = {}
            member_vals = {m.uid: ex.eval_concrete(m, assignment, memo)
                           for m in members}
            rows.append((values, member_vals))
        base_vals = oracle.eval_cycle(base_inputs)
        for w in fixture.circuit.wires:
            assert base_vals[w.name] == state.current[w.uid].conc
            val = state.current[w.uid]
            for i in range(w.width):
                bucket = sorted(val.lset[i], key=lambda m: m.uid)
                groups: dict = {}
                stable_outs = set()
                for values, member_vals in rows:
                    out_bit = (values[w.name] >> i) & 1
                    checked += 1
                    key = tuple(member_vals[m.uid] for m in bucket)
                    groups.setdefault(key, set()).add(out_bit)
                    if val.stable(i):
                        stable_outs.add(out_bit)
                if any(len(outs) > 1 for outs in groups.values()):
                    violations += 1
                if len(stable_outs) > 1:
                    violations += 1
        oracle.commit(base_vals)
    return checked, violations


# ---------------------------------------------------------------------------
# Wire selections to substitute for manager.wires_to_verify
# ---------------------------------------------------------------------------

def every_unit(circuit, index, model, state) -> list:
    """Every wire, plus the split parents at support-wise granularity: the
    selection that the reduced wire sets are checked against."""
    units = [w.uid for w in circuit.wires]
    if model.granularity == "sw":
        units += [s.parent_name for s in circuit.splits]
    return units


def glitch_rule_at_t(select):
    """``select`` (the real ``wires_to_verify``) with the glitch-only rule
    for the over-approximated model: its selection rules evaluated at cycle
    t only, without the stability-at-t-1 extension."""
    def at_t(circuit, index, model, state):
        if model.overapprox:
            model = dataclasses.replace(model, transitions=False,
                                        overapprox=False)
        return select(circuit, index, model, state)
    return at_t


def unsettled_step(step_cycle):
    """``step_cycle`` (the real ``sim.step_cycle``) that neither takes nor
    gives a settled state: every cycle is simulated in full, and a run over
    it selects, builds and decides every cycle's sets."""
    def step(circuit, schedule, state, *args):
        state = dataclasses.replace(state, settled=False)
        return dataclasses.replace(
            step_cycle(circuit, schedule, state, *args), settled=False)
    return step
