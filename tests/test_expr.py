"""Expression construction, simplification, evaluation and interning."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from probewise import expr as ex

import oracles


def xor(*es):
    return ex.build("XOR", list(es))


@pytest.fixture
def syms():
    return ex.sym("k", 1), ex.sym("m", 1), ex.sym("mp", 1)


# ---------------------------------------------------------------------------
# Simplification rules
# ---------------------------------------------------------------------------

def test_and_with_zero_folds(syms):
    k, _, _ = syms
    assert ex.build("AND", [k, ex.cst(0, 1)]) is ex.cst(0, 1)


def test_xor_self_cancels(syms):
    k, _, _ = syms
    assert xor(k, k) is ex.cst(0, 1)


def test_xor_flattening_cancels_nested(syms):
    k, m, _ = syms
    assert xor(xor(k, m), m) is k


@pytest.mark.parametrize("op, ident, absorb", [
    ("AND", 1, 0),
    ("OR", 0, 1),
])
def test_bitwise_identities(op, ident, absorb, syms):
    k, _, _ = syms
    assert ex.build(op, [k, ex.cst(ident, 1)]) is k
    assert ex.build(op, [k, ex.cst(absorb, 1)]) is ex.cst(absorb, 1)
    assert ex.build(op, [k, k]) is k


def test_double_negation(syms):
    k, _, _ = syms
    assert ex.build("NOT", [ex.build("NOT", [k])]) is k


def test_extract_resolves_through_concat(syms):
    k, m, _ = syms
    c = ex.concat([m, xor(k, m)])
    assert ex.bit(c, 0) is xor(k, m)
    assert ex.bit(c, 1) is m


def test_bit_of_constant():
    assert ex.bit(ex.cst(0b10, 2), 1) is ex.cst(1, 1)


def test_bit_distributes_over_bitwise():
    a, b = ex.sym("a", 2), ex.sym("b", 2)
    assert ex.bit(xor(a, b), 0) is xor(ex.bit(a, 0), ex.bit(b, 0))


def test_bit_of_arith_stays_opaque():
    a, b = ex.sym("a", 2), ex.sym("b", 2)
    e = ex.bit(ex.build("ADD", [a, b]), 0)
    assert e.op == "EXTRACT" and e.children[0].op == "ADD"


def test_bit_out_of_range():
    with pytest.raises(IndexError):
        ex.bit(ex.sym("a", 2), 2)


def test_zext_sext_of_constants_fold():
    assert ex.zext(ex.cst(0b1, 1), 3) is ex.cst(0b001, 3)
    assert ex.sext(ex.cst(0b10, 2), 4) is ex.cst(0b1110, 4)


def test_constant_shift_becomes_structure():
    a = ex.sym("a", 4)
    shifted = ex.build("LSL", [a, ex.cst(1, 2)])
    assert shifted.op == "CONCAT"
    assert ex.bit(shifted, 0) is ex.cst(0, 1)
    assert ex.bit(shifted, 1) is ex.bit(a, 0)


def test_pow_is_not_simplified():
    a, b = ex.sym("a", 2), ex.sym("b", 2)
    p = ex.build("POW", [a, b])
    assert p.op == "POW"
    assert ex.eval_concrete(p, {"a": 3, "b": 2}) == (3 ** 2) % 4


def test_width_mismatch_rejected():
    with pytest.raises(ex.WidthError):
        ex.build("XOR", [ex.sym("a", 2), ex.sym("b", 3)])


# ---------------------------------------------------------------------------
# Structural equality and interning
# ---------------------------------------------------------------------------

def test_structural_equality_modulo_order(syms):
    k, m, mp = syms
    assert xor(k, m) is xor(m, k)
    assert xor(k, m) is not xor(k, mp)
    assert xor(k, ex.cst(0, 1)) is k


def _deep_equal(a, b):
    if (a.kind, a.width) != (b.kind, b.width):
        return False
    if a.kind == "cst":
        return a.value == b.value
    if a.kind == "sym":
        return a.name == b.name
    if a.op != b.op or a.params != b.params or len(a.children) != len(b.children):
        return False
    return all(_deep_equal(x, y) for x, y in zip(a.children, b.children))


def test_interning_matches_deep_compare():
    rng = random.Random(1234)
    symbols = {"a": 1, "b": 1, "c": 2}
    pairs = 0
    agree = 0
    for _ in range(10_000):
        t1 = oracles.random_tree(rng, symbols, rng.randrange(0, 3), rng.choice((1, 2)))
        t2 = oracles.random_tree(rng, symbols, rng.randrange(0, 3), rng.choice((1, 2)))
        e1, e2 = oracles.tree_to_expr(t1), oracles.tree_to_expr(t2)
        pairs += 1
        if (e1 is e2) == _deep_equal(e1, e2):
            agree += 1
    assert agree == pairs


def test_build_is_idempotent_on_canonical_terms():
    rng = random.Random(99)
    symbols = {"a": 1, "b": 2, "c": 2}
    for _ in range(500):
        tree = oracles.random_tree(rng, symbols, 3, rng.choice((1, 2, 3)))
        e = oracles.tree_to_expr(tree)
        if e.kind == "op":
            assert ex.build(e.op, list(e.children), e.params) is e


# ---------------------------------------------------------------------------
# Concrete evaluation
# ---------------------------------------------------------------------------

def test_eval_xor(syms):
    k, m, _ = syms
    assert ex.eval_concrete(xor(k, m), {"k": 1, "m": 1}) == 0


def test_eval_add_wraps():
    assert ex.eval_concrete(
        ex.build("ADD", [ex.cst(0b11, 2), ex.cst(0b01, 2)]), {}) == 0


def test_eval_unbound_symbol(syms):
    k, _, _ = syms
    with pytest.raises(ex.UnboundSymbol):
        ex.eval_concrete(k, {})


def test_array_nodes_carry_their_table():
    k, m = ex.sym("k", 2), ex.sym("m", 2)
    first = xor(ex.array_lookup("t", k, 2, [3, 1, 0, 2]), m)
    later = xor(ex.array_lookup("t", k, 2, (0, 0, 0, 1), version=1), m)
    assert first is not later
    # the same read of the same contents is the same term
    assert first is xor(ex.array_lookup("t", k, 2, (3, 1, 0, 2)), m)
    assert ex.render(first) == "OP_XOR(SYMB(m), ARRAY(t, SYMB(k)))"
    assert ex.render(later) == "OP_XOR(SYMB(m), ARRAY(t@1, SYMB(k)))"
    assert [ex.eval_concrete(e, {"k": 3, "m": 0}) for e in (first, later)] \
        == [2, 1]
    # the index wraps modulo the table's depth
    wide = ex.array_lookup("t", ex.sym("j", 3), 2, (3, 1, 0, 2))
    assert ex.eval_concrete(wide, {"j": 6}) == 0


def test_eval_matches_bigint_oracle_on_random_trees():
    rng = random.Random(7)
    symbols = {"a": 1, "b": 2, "c": 3, "d": 4}
    for i in range(200):
        width = rng.choice((1, 2, 3, 4))
        tree = oracles.random_tree(rng, symbols, rng.randrange(1, 5), width)
        e = oracles.tree_to_expr(tree)
        for _ in range(4):
            assignment = {n: rng.getrandbits(w) for n, w in symbols.items()}
            assert ex.eval_concrete(e, assignment) == \
                oracles.tree_eval(tree, assignment), (i, ex.render(e))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(1, 4), st.integers(0, 4))
def test_simplification_soundness(seed, width, depth):
    rng = random.Random(seed)
    symbols = {"a": 1, "b": 2, "c": width}
    tree = oracles.random_tree(rng, symbols, depth, width)
    e = oracles.tree_to_expr(tree)
    assert e.width == oracles.tree_width(tree)
    for _ in range(3):
        assignment = {n: rng.getrandbits(w) for n, w in symbols.items()}
        assert ex.eval_concrete(e, assignment) == \
            oracles.tree_eval(tree, assignment)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(1, 4))
def test_bit_soundness(seed, width):
    rng = random.Random(seed)
    symbols = {"a": width, "b": width, "c": 1}
    tree = oracles.random_tree(rng, symbols, rng.randrange(0, 4), width)
    e = oracles.tree_to_expr(tree)
    assignment = {n: rng.getrandbits(w) for n, w in symbols.items()}
    value = ex.eval_concrete(e, assignment)
    for i in range(e.width):
        assert ex.eval_concrete(ex.bit(e, i), assignment) == (value >> i) & 1


# ---------------------------------------------------------------------------
# symbols_of, rendering, parsing
# ---------------------------------------------------------------------------

def test_symbols_of(syms):
    k, m, _ = syms
    assert ex.symbols_of(xor(k, m)) == {"k", "m"}
    assert ex.symbols_of(ex.cst(1, 1)) == frozenset()
    assert ex.symbols_of(ex.concat([m, xor(k, m)])) == {"k", "m"}


def test_render_stable_forms(syms):
    k, m, _ = syms
    assert ex.render(xor(k, m)) == "OP_XOR(SYMB(k), SYMB(m))"
    assert ex.render(ex.cst(0b01, 2)) == "CST(0b01)"


def test_parse_render_round_trip():
    rng = random.Random(21)
    symbols = {"a": 1, "b": 2, "c": 3}
    for _ in range(300):
        tree = oracles.random_tree(rng, symbols, rng.randrange(0, 4),
                                   rng.choice((1, 2, 3)))
        e = oracles.tree_to_expr(tree)
        assert ex.parse_expr(ex.render(e), symbols) is e


def test_parse_shorthand():
    assert ex.parse_expr("XOR(k, m)", {"k": 1, "m": 1}) is \
        xor(ex.sym("k", 1), ex.sym("m", 1))
    with pytest.raises(ValueError):
        ex.parse_expr("XOR(k, unknown)", {"k": 1})


@pytest.mark.parametrize("text", ["XOR(k, m) !!", "XOR(k, @m)"])
def test_parse_rejects_unmatched_characters(text):
    with pytest.raises(ValueError, match="unexpected character"):
        ex.parse_expr(text, {"k": 1, "m": 1})


# ---------------------------------------------------------------------------
# Symbol table
# ---------------------------------------------------------------------------

def test_symbol_table_share_bookkeeping():
    t = ex.SymbolTable()
    t.declare("k", 1, ex.SECRET)
    t.declare("s0", 1, ex.SHARE, secret="k", index=0)
    t.declare("s1", 1, ex.SHARE, secret="k", index=1)
    assert t.shares_of("k") == ["s0", "s1"]
    assert t.is_sensitive("s0") and t.is_sensitive("k")
    with pytest.raises(ValueError):
        t.declare("s1b", 1, ex.SHARE, secret="k", index=1)
    with pytest.raises(ValueError):
        t.declare("s1", 1, ex.SHARE, secret="k", index=3)
    assert t.shares_of("k") == ["s0", "s1"]
    # out of index order, and after a shares_of call
    t.declare("j", 1, ex.SECRET)
    t.declare("j2", 1, ex.SHARE, secret="j", index=2)
    t.declare("j0", 1, ex.SHARE, secret="j", index=0)
    assert t.shares_of("j") == ["j0", "j2"]
    t.declare("j1", 1, ex.SHARE, secret="j", index=1)
    assert t.shares_of("j") == ["j0", "j1", "j2"]
    assert t.shares_of("k") == ["s0", "s1"] and t.shares_of("m") == []
    assert sorted(t.sharings()) == [("j0", "j1", "j2"), ("s0", "s1")]


def test_symbol_table_json_round_trip():
    t = ex.SymbolTable()
    t.declare("k", 2, ex.SECRET)
    t.declare("m", 2, ex.MASK)
    t.declare("p", 1, ex.PUBLIC)
    t.declare("s0", 2, ex.SHARE, secret="k", index=0)
    again = ex.SymbolTable.from_json(t.to_json())
    assert again.to_json() == t.to_json()
