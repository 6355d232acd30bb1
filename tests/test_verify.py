"""Independence checking: substitution, enumeration, combined, NI/SNI."""

import collections
import itertools
import json
import math
import re
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from probewise import expr as ex, gadgets, manager as mg, netlist, verify as vf
from probewise.expr import SymbolTable
from probewise.sim import Stimuli, StimulusFrame
from probewise.verify import (GadgetSpec, TooLarge, check,
                              check_enumeration, check_ni, check_sni,
                              check_substitution, make_expr_set)

import oracles


@pytest.fixture
def km_labels():
    labels = SymbolTable()
    labels.declare("k", 1, ex.SECRET)
    labels.declare("m", 1, ex.MASK)
    labels.declare("mp", 1, ex.MASK)
    return labels


def xor(*es):
    return ex.build("XOR", list(es))


def s(name, w=1):
    return ex.sym(name, w)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def test_an_empty_set_is_secure(km_labels):
    # no member, no symbol: the share count proves the empty footprint
    assert check((), km_labels) is vf.Verdict.secure()


def test_substitution_one_time_pad(km_labels):
    assert check_substitution(make_expr_set([xor(s("k"), s("m"))]),
                              km_labels).is_secure


def test_substitution_reused_mask_is_inconclusive(km_labels):
    v = check_substitution(make_expr_set([xor(s("k"), s("m")), s("m")]),
                           km_labels)
    assert v.status == vf.INCONCLUSIVE


def test_substitution_chained_masks(km_labels):
    v = check_substitution(
        make_expr_set([xor(s("k"), s("m")), xor(s("m"), s("mp"))]), km_labels)
    assert v.is_secure
    # confirmed against the exact oracle
    assert check_enumeration(
        make_expr_set([xor(s("k"), s("m")), xor(s("m"), s("mp"))]),
        km_labels).is_secure


def test_substitution_under_concat_context(km_labels):
    e = ex.concat([s("mp"), xor(s("k"), s("m"))])
    assert check_substitution(make_expr_set([e]), km_labels).is_secure


def test_substitution_blocked_under_and(km_labels):
    e = ex.build("AND", [s("mp"), xor(s("k"), s("m"))])
    v = check_substitution(make_expr_set([e]), km_labels)
    assert v.status == vf.INCONCLUSIVE   # context rule: AND is opaque
    assert check_enumeration(make_expr_set([e]), km_labels).is_secure


def test_substitution_disjoint_extractions():
    labels = SymbolTable()
    labels.declare("k", 2, ex.SECRET)
    labels.declare("m", 2, ex.MASK)
    k, m = s("k", 2), s("m", 2)
    pair = make_expr_set([xor(ex.bit(k, 0), ex.bit(m, 0)),
                          xor(ex.bit(k, 1), ex.bit(m, 1))])
    assert check_substitution(pair, labels).is_secure
    overlap = make_expr_set([xor(ex.bit(k, 0), ex.bit(m, 0)),
                             xor(ex.bit(k, 1), ex.bit(m, 0))])
    assert check_substitution(overlap, labels).status == vf.INCONCLUSIVE


def test_substitution_requires_labels(km_labels):
    with pytest.raises(KeyError):
        check_substitution(make_expr_set([s("unlabeled")]), km_labels)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_enumeration_pair_leak_with_witness(km_labels):
    v = check_enumeration(make_expr_set([xor(s("k"), s("m")), s("m")]),
                          km_labels)
    assert v.status == vf.LEAKS
    assert {v.witness.vary_a["k"], v.witness.vary_b["k"]} == {0, 1}


def test_enumeration_mask_only_is_secure(km_labels):
    assert check_enumeration(make_expr_set([s("m")]), km_labels).is_secure


def test_enumeration_and_leaks(km_labels):
    # P[k & m = 1] is 0 for k=0 and 1/2 for k=1
    v = check_enumeration(make_expr_set([ex.build("AND", [s("k"), s("m")])]),
                          km_labels)
    assert v.status == vf.LEAKS


def test_enumeration_respects_publics():
    labels = SymbolTable()
    labels.declare("k", 1, ex.SECRET)
    labels.declare("p", 1, ex.PUBLIC)
    labels.declare("m", 1, ex.MASK)
    # k ^ m is fine for any public; (k & p) ^ m is also fine; k & p leaks
    assert check_enumeration(
        make_expr_set([xor(ex.build("AND", [s("k"), s("p")]), s("m"))]),
        labels).is_secure
    v = check_enumeration(make_expr_set([ex.build("AND", [s("k"), s("p")])]),
                          labels)
    assert v.status == vf.LEAKS
    assert v.witness.fixed == {"p": 1}   # distinguishable only when p = 1


def test_enumeration_share_resharing():
    labels = SymbolTable()
    labels.declare("k", 1, ex.SECRET)
    for i in range(3):
        labels.declare(f"s{i}", 1, ex.SHARE, secret="k", index=i)
    # any two shares are independent of k; all three reconstruct it
    assert check_enumeration(make_expr_set([s("s0"), s("s1")]), labels).is_secure
    v = check_enumeration(make_expr_set([s("s0"), s("s1"), s("s2")]), labels)
    assert v.status == vf.LEAKS
    v = check_enumeration(make_expr_set([xor(s("s0"), xor(s("s1"), s("s2")))]),
                          labels)
    assert v.status == vf.LEAKS   # the XOR of all shares is the secret


def test_enumeration_too_large():
    labels = SymbolTable()
    labels.declare("k", 16, ex.SECRET)
    labels.declare("m", 16, ex.MASK)
    eset = make_expr_set([xor(s("k", 16), s("m", 16)), s("m", 16)])
    with pytest.raises(TooLarge):
        check_enumeration(eset, labels, limit=20)
    v = check(eset, labels, limit=20)
    assert v.status == vf.INCONCLUSIVE
    assert "false positive" in v.reason


def test_enumeration_witness_is_deterministic(km_labels):
    eset = make_expr_set([xor(s("k"), s("m")), s("m")])
    a = check_enumeration(eset, km_labels)
    b = check_enumeration(eset, km_labels)
    assert a.witness == b.witness


def test_check_uses_substitution_before_enumeration(km_labels, monkeypatch):
    called = []
    real = vf.check_enumeration

    def spy(*args, **kwargs):
        called.append(True)
        return real(*args, **kwargs)

    monkeypatch.setattr(vf, "check_enumeration", spy)
    assert check(make_expr_set([xor(s("k"), s("m"))]), km_labels).is_secure
    assert not called
    assert check(make_expr_set([xor(s("k"), s("m")), s("m")]),
                 km_labels).status == vf.LEAKS
    assert called


def test_enumeration_matches_bruteforce_oracle():
    # independence, then simulatability with one and two shares of each
    # secret; k and k2 are declared without shares, so no budget holds
    # them, and the engine and the oracle both refuse such a set
    rng = random.Random(88)
    compared = simulated = leaks = 0
    while compared < 250 or simulated < 150:
        exprs, labels = oracles.random_expr_set(rng)
        eset = make_expr_set(exprs)
        symbols = {n for e in eset for n in ex.symbols_of(e)}
        if sum(labels.width(n) for n in symbols) > 10:
            continue
        try:
            fast = check_enumeration(eset, labels, limit=14).is_secure
        except TooLarge:
            continue   # share expansion pushed the basis over the cap
        compared += 1
        slow = oracles.independence_bruteforce(eset, labels)
        assert fast == slow, [ex.render(e) for e in eset]
        for budget in (1, 2):
            if symbols & {"k", "k2"}:
                with pytest.raises(ValueError, match="has no shares"):
                    check_enumeration(eset, labels, 12, budget)
                with pytest.raises(ValueError, match="has no shares"):
                    oracles.simulatable_bruteforce(eset, labels,
                                                   _secrets(labels), budget)
                continue
            try:
                fast = check_enumeration(eset, labels, 12, budget).is_secure
            except TooLarge:
                continue   # every share of a probed secret joins the space
            slow = oracles.simulatable_bruteforce(eset, labels,
                                                  _secrets(labels), budget)
            assert fast == slow, (budget, [ex.render(e) for e in eset])
            simulated += any(n.startswith("ks") for n in symbols)
            leaks += not fast
    assert leaks > 10


def test_substitution_secure_implies_enumeration_secure():
    rng = random.Random(42)
    checked = 0
    for _ in range(300):
        exprs, labels = oracles.random_expr_set(rng)
        eset = make_expr_set(exprs)
        if check_substitution(eset, labels).is_secure:
            checked += 1
            assert check_enumeration(eset, labels, limit=18).is_secure, \
                [ex.render(e) for e in eset]
    assert checked > 30   # the generator must produce provable sets


# ---------------------------------------------------------------------------
# NI / SNI
# ---------------------------------------------------------------------------

def _refresh_gadget():
    # c0 = a0 ^ z, c1 = a1 ^ z: a first-order refresh
    doc = {
        "wires": [{"name": "a0", "width": 1}, {"name": "a1", "width": 1},
                  {"name": "z", "width": 1}, {"name": "c0", "width": 1},
                  {"name": "c1", "width": 1}],
        "inputs": ["a0", "a1", "z"], "outputs": ["c0", "c1"],
        "gates": [{"kind": "bit_xor", "output": "c0", "inputs": ["a0", "z"]},
                  {"kind": "bit_xor", "output": "c1", "inputs": ["a1", "z"]}],
        "registers": [],
    }
    circuit = netlist.parse_netlist(json.dumps(doc))
    labels = SymbolTable()
    labels.declare("a", 1, ex.SECRET)
    labels.declare("a0", 1, ex.SHARE, secret="a", index=0)
    labels.declare("a1", 1, ex.SHARE, secret="a", index=1)
    labels.declare("z", 1, ex.MASK)
    frame = StimulusFrame({n: ex.sym(n, 1) for n in ("a0", "a1", "z")})
    stimuli = Stimuli({"a0": 0, "a1": 1, "z": 1}, [frame])
    return GadgetSpec(circuit, labels, stimuli, ("c0", "c1"), order=1)


def test_refresh_gadget_is_1_ni():
    gadget = _refresh_gadget()
    assert check_ni(gadget, 1, glitches=False).verdict.is_secure
    assert check_ni(gadget, 1, glitches=True).verdict.is_secure


def test_refresh_gadget_is_not_1_sni():
    # (c0, c1) jointly reveal a0 ^ a1 = a; with one internal probe allowed,
    # probing c0 (internal z-side) plus output c1 needs both shares.
    gadget = _refresh_gadget()
    v = check_sni(gadget, 1, glitches=False).verdict
    assert v.is_secure   # single probes only at d=1: still SNI
    two = check_sni(gadget, 2, glitches=False).verdict
    assert two.status == vf.LEAKS


def test_dom_and_d1_table_style_checks():
    _, _, _, spec = gadgets.gen_dom_and(1)
    assert check_ni(spec, 1, glitches=False).verdict.is_secure
    assert check_ni(spec, 1, glitches=True).verdict.is_secure


@pytest.mark.parametrize("checker, gen, glitches", [
    (check_ni, gadgets.gen_dom_and, True),
    (check_sni, gadgets.gen_isw_and, False),
])
def test_secure_ni_sni_walks_every_tuple(checker, gen, glitches):
    _, _, _, spec = gen(2)
    p = len(vf.collect_probes(spec, glitches))
    res = checker(spec, 2, glitches)
    assert res.verdict.is_secure and res.leaking_tuple is None
    assert res.tuples_checked == res.tuple_count == p + math.comb(p, 2)


def test_gadget_spec_validates_share_count():
    gadget = _refresh_gadget()
    with pytest.raises(ValueError, match="secret 'a' declares 2 shares for "
                                         "order 2"):
        GadgetSpec(gadget.circuit, gadget.labels, gadget.stimuli, ("c0",),
                   order=2)


def test_gadget_spec_rejects_a_secret_without_shares():
    gadget = _refresh_gadget()
    gadget.labels.declare("k", 1, ex.SECRET)
    with pytest.raises(ValueError, match="secret 'k' declares 0 shares for "
                                         "order 1"):
        GadgetSpec(gadget.circuit, gadget.labels, gadget.stimuli, ("c0",),
                   order=1)


def test_a_probed_secret_costs_all_of_its_shares():
    # observing a is observing a0 ^ a1: one share cannot simulate it
    _, labels, _, _ = gadgets.gen_dom_and(1)
    a = ex.sym("a", labels.width("a"))
    v = vf.check_from_fixpoint((a,), labels, 20, 1)
    assert v.status == vf.LEAKS
    _assert_witness_counts((a,), labels, v.witness, shares_free=True)
    assert vf.check_from_fixpoint((xor(ex.sym("a0", labels.width("a0")),
                                       ex.sym("a1", labels.width("a1"))),),
                                  labels, 20, 1).status == vf.LEAKS
    assert not oracles.simulatable_bruteforce((a,), labels, _secrets(labels), 1)
    probed = vf._footprint({"a"}, labels)
    assert not vf._share_count_proves(probed, labels, 1)
    # with both shares in the budget, and with the secret cancelled
    assert vf._share_count_proves(probed, labels, 2)
    assert vf.check_from_fixpoint((a,), labels, 20, 2).is_secure
    assert vf.check_from_fixpoint((xor(a, ex.sym("a0", labels.width("a0"))),),
                                  labels, 20, 1).is_secure


def test_ni_leak_carries_witness():
    _, _, _, spec = gadgets.gen_isw_and(2)
    res = check_ni(spec, 2, glitches=True)
    assert res.verdict.status == vf.LEAKS
    assert res.verdict.witness is not None and res.leaking_tuple


def test_ni_tuple_a_count_proves_is_secure_past_the_limit():
    # v01@0 needs 5 bits, but its mask z01 hides the cross products: the
    # count after substitution proves it without enumeration
    _, _, _, spec = gadgets.gen_isw_and(2)
    assert check_ni(spec, 2, glitches=False, limit=4).verdict.is_secure


def test_ni_names_an_unlabeled_mask_before_any_check(monkeypatch):
    decided = []
    monkeypatch.setattr(vf, "check_from_fixpoint",
                        lambda *args: decided.append(args))
    circuit, labels, stimuli, spec = gadgets.gen_dom_and(1)
    doc = labels.to_json()
    doc["symbols"] = [e for e in doc["symbols"] if e["name"] != "z01"]
    unlabeled = GadgetSpec(circuit, SymbolTable.from_json(doc), stimuli,
                           spec.output_wires, spec.order)
    with pytest.raises(KeyError, match="symbol 'z01' is not labeled"):
        check_ni(unlabeled, 1, glitches=False)
    assert decided == []


def _secrets(labels):
    """Each declared secret's shares, by share index."""
    return {n: labels.shares_of(n) for n in labels
            if labels.kind(n) == ex.SECRET}


@pytest.mark.parametrize("gen, glitches", [
    (gadgets.gen_dom_and, False), (gadgets.gen_dom_and, True),
    (gadgets.gen_isw_and, False), (gadgets.gen_isw_and, True),
])
def test_simulatability_matches_bruteforce_oracle(gen, glitches):
    # cross-check the vectorised engine against direct dict counting on
    # every single- and pair-probe tuple of the order-1 gadgets
    import itertools as it
    _, _, _, spec = gen(1)
    probes = vf.collect_probes(spec, glitches)
    for q, budget in ((1, 1), (2, 2), (2, 1)):
        for combo in it.combinations(probes, q):
            union = tuple(sorted({e for p in combo for e in p.obs},
                                 key=ex.render))
            fast = vf.check_from_fixpoint(union, spec.labels, 20,
                                          budget).is_secure
            slow = oracles.simulatable_bruteforce(union, spec.labels,
                                                  _secrets(spec.labels), budget)
            assert fast == slow, (q, budget, [p.describe() for p in combo])


# ---------------------------------------------------------------------------
# Leak witnesses and the counting kernel
# ---------------------------------------------------------------------------

_EVIDENCE = re.compile(r"joint value (\(.*\)) occurs (\d+) vs (\d+) times")


def _format_values(exprs, values):
    return "(" + ", ".join(f"{ex.render(e)}={ex.format_bits(v, e.width)}"
                           for e, v in zip(exprs, values)) + ")"


def _assert_witness_counts(exprs, labels, witness, shares_free=False):
    """The evidence tuple occurs, under ``fixed``, exactly as often as the
    witness claims for each of its two assignments; returns those counts."""
    joint, count_a, count_b = _EVIDENCE.fullmatch(witness.evidence).groups()
    assert witness.vary_a != witness.vary_b
    seen = []
    for vary in (witness.vary_a, witness.vary_b):
        counts = oracles.joint_value_counts(exprs, labels,
                                            {**witness.fixed, **vary},
                                            shares_free)
        seen.append(sum(n for values, n in counts.items()
                        if _format_values(exprs, values) == joint))
    assert seen == [int(count_a), int(count_b)], witness.evidence
    return seen


def test_enumeration_witness_counts_match_bruteforce():
    rng = random.Random(5)
    missing_value = unequal_counts = 0
    for _ in range(400):
        exprs, labels = oracles.random_expr_set(rng)
        eset = make_expr_set(exprs)
        symbols = {n for e in eset for n in ex.symbols_of(e)}
        if sum(labels.width(n) for n in symbols) > 10:
            continue
        try:
            v = check_enumeration(eset, labels, limit=14)
        except TooLarge:
            continue
        if v.status != vf.LEAKS:
            continue
        _, count_b = _assert_witness_counts(eset, labels, v.witness)
        if count_b == 0:
            missing_value += 1
        else:
            unequal_counts += 1
    assert missing_value > 5 and unequal_counts > 5


@pytest.mark.parametrize("checker, gen, order, glitches", [
    (check_ni, gadgets.gen_isw_and, 2, True),
    (check_sni, gadgets.gen_dom_and, 2, True),
])
def test_ni_sni_witness_counts_match_bruteforce(checker, gen, order, glitches):
    _, _, _, spec = gen(order)
    res = checker(spec, order, glitches)
    assert res.verdict.status == vf.LEAKS
    union = tuple(sorted({e for p in res.leaking_tuple for e in p.obs},
                         key=ex.render))
    _assert_witness_counts(union, spec.labels, res.verdict.witness,
                           shares_free=True)


def _agrees_with_oracle(exprs, labels):
    """The verdict is the brute-force one, and a leak's witness is fixed at
    the smallest leaking public assignment in key order, with true counts."""
    eset = make_expr_set(exprs)
    v = check_enumeration(eset, labels)
    leaking = oracles.leaking_publics(eset, labels)
    assert v.is_secure == (not leaking), [ex.render(e) for e in eset]
    if v.status == vf.LEAKS:
        assert v.witness.fixed == leaking[0]
        _assert_witness_counts(eset, labels, v.witness)
    return v


def test_kernel_without_secrets_or_publics(km_labels):
    k, m, mp = s("k"), s("m"), s("mp")
    assert _agrees_with_oracle([s("m"), xor(m, mp)], km_labels).is_secure
    assert _agrees_with_oracle([xor(k, m), mp], km_labels).is_secure
    assert _agrees_with_oracle([xor(k, m), m], km_labels).status == vf.LEAKS


def test_kernel_packed_bound_equal_to_rows():
    labels = SymbolTable()
    labels.declare("k", 1, ex.SECRET)
    labels.declare("m0", 1, ex.MASK)
    labels.declare("m1", 1, ex.MASK)
    k, m0, m1 = s("k"), s("m0"), s("m1")
    # three 1-bit members over three base bits: 8 packed keys, 8 rows
    secure = [xor(k, m0), m1, ex.build("AND", [xor(k, m0), m1])]
    assert _agrees_with_oracle(secure, labels).is_secure
    leak = [xor(k, m0), m0, m1]
    assert _agrees_with_oracle(leak, labels).status == vf.LEAKS


def test_kernel_pigeonhole_leak(km_labels):
    # k & m = 0 on three of four rows: no group splits evenly over k
    v = _agrees_with_oracle([ex.build("AND", [s("k"), s("m")])], km_labels)
    assert v.witness.evidence.endswith("occurs 2 vs 1 times")


def test_kernel_first_bad_group_after_good_ones():
    labels = SymbolTable()
    labels.declare("k", 1, ex.SECRET)
    labels.declare("p", 1, ex.PUBLIC)
    labels.declare("m", 2, ex.MASK)
    # p = 0 is invariant; under p = 1 the value 0 occurs 4 + 2 times, an
    # even split in size but not in shape
    e = ex.build("AND", [s("p"), s("k"), ex.bit(s("m", 2), 0)])
    v = _agrees_with_oracle([e], labels)
    assert v.witness.fixed == {"p": 1}
    assert v.witness.evidence.endswith("occurs 4 vs 2 times")


def test_kernel_sparse_groups():
    labels = SymbolTable()
    labels.declare("k", 3, ex.SECRET)
    labels.declare("m", 3, ex.MASK)
    k, m = s("k", 3), s("m", 3)
    # a 6-bit member over 6 base bits: 64 possible groups, 8 occupied
    assert _agrees_with_oracle([ex.zext(xor(k, m), 6)], labels).is_secure
    v = _agrees_with_oracle([ex.zext(xor(k, m), 6), ex.bit(m, 0)], labels)
    assert v.status == vf.LEAKS


def test_kernel_wide_members():
    labels = SymbolTable()
    labels.declare("k", 2, ex.SECRET)
    labels.declare("m", 2, ex.MASK)
    k, m = s("k", 2), s("m", 2)
    assert _agrees_with_oracle([ex.zext(xor(k, m), 40)], labels).is_secure
    wide = ex.concat([xor(k, m), ex.cst(0, 36), m])
    assert _agrees_with_oracle([wide], labels).status == vf.LEAKS


def test_kernel_compose_cap_redensify():
    labels = SymbolTable()
    labels.declare("k", 1, ex.SECRET)
    labels.declare("p", 1, ex.PUBLIC)
    labels.declare("m", 1, ex.MASK)
    k, p, m = s("k"), s("p"), s("m")
    # two 31-bit members pack past 2**62 and force a re-densify
    members = [ex.zext(xor(k, m), 31), ex.zext(p, 31)]
    assert _agrees_with_oracle(members, labels).is_secure
    members.append(ex.zext(m, 31))
    assert _agrees_with_oracle(members, labels).status == vf.LEAKS


def test_kernel_array_reads():
    labels = SymbolTable()
    labels.declare("k", 2, ex.SECRET)
    labels.declare("m", 2, ex.MASK)
    k, m = s("k", 2), s("m", 2)
    perm = (3, 1, 0, 2)   # a permutation of 2-bit values
    lookup = ex.array_lookup("t", xor(k, m), 2, perm)
    assert _agrees_with_oracle([lookup], labels).is_secure
    assert _agrees_with_oracle([lookup, m], labels).status == vf.LEAKS
    flat = (0, 0, 0, 1)
    assert _agrees_with_oracle([ex.array_lookup("t", k, 2, flat)],
                               labels).status == vf.LEAKS
    # two versions of one table in one set: each reads its own contents
    later = ex.array_lookup("t", xor(k, m), 2, flat, version=1)
    assert _agrees_with_oracle([lookup, later], labels).is_secure
    assert _agrees_with_oracle(
        [lookup, ex.array_lookup("t", m, 2, perm[::-1], version=1)],
        labels).status == vf.LEAKS
    assert _agrees_with_oracle(
        [ex.array_lookup("t", k, 2, perm), later], labels).status == vf.LEAKS


# ---------------------------------------------------------------------------
# Range-wise enumeration of public values
# ---------------------------------------------------------------------------

@pytest.fixture
def ranges(monkeypatch):
    """The row ranges ``[start, stop)`` enumerated, in call order: the
    kernel runs once per range of a set."""
    seen = []
    kernel = vf._first_bad_group

    def spy(exprs, rows):
        seen.append((rows.start, rows.stop))
        return kernel(exprs, rows)

    monkeypatch.setattr(vf, "_first_bad_group", spy)
    return seen


@pytest.fixture
def small_ranges(monkeypatch, ranges):
    """Blocks of 4 rows, so ranges of 4 rows or one public value: small
    sets span many."""
    monkeypatch.setattr(vf, "_BLOCK_ROWS", 4)
    return ranges


def _at_least(e, t):
    """1 exactly when the unsigned value of ``e`` is at least ``t`` >= 1."""
    w = e.width
    return ex.bit(ex.build("ADD", [ex.zext(e, w + 1),
                                   ex.cst((1 << w) - t, w + 1)]), w)


@pytest.fixture
def two_publics():
    labels = SymbolTable()
    labels.declare("k", 1, ex.SECRET)
    labels.declare("m", 3, ex.MASK)
    labels.declare("pa", 7, ex.PUBLIC)
    labels.declare("pb", 4, ex.PUBLIC)
    # (pa, pb) read as one 11-bit number, pa most significant: key order
    return labels, ex.concat([s("pa", 7), s("pb", 4)])


def test_range_first_leak_past_the_first_range(ranges, two_publics):
    labels, pub = two_publics
    k, m = s("k"), s("m", 3)
    # 16 rows per public value: the first range holds values 0-1023
    leak = [ex.build("AND", [k, _at_least(pub, 1500)]), xor(k, ex.bit(m, 0))]
    v = _agrees_with_oracle(leak, labels)
    assert v.witness.fixed == {"pa": 1500 >> 4, "pb": 1500 & 15}
    assert ranges == [(0, 1 << 14), (1 << 14, 1 << 15)]


def test_range_secure_set_spans_every_range(ranges, two_publics):
    labels, pub = two_publics
    k, m = s("k"), s("m", 3)
    secure = [xor(k, ex.bit(m, 0), ex.bit(pub, 0)),
              ex.build("AND", [_at_least(pub, 1500), ex.bit(m, 1)]),
              ex.extract(pub, 3, 10)]
    assert _agrees_with_oracle(secure, labels).is_secure
    assert ranges == [(0, 1 << 14), (1 << 14, 1 << 15)]


def test_range_without_publics_is_one_pass(ranges):
    labels = SymbolTable()
    labels.declare("k", 1, ex.SECRET)
    labels.declare("m", 19, ex.MASK)
    k, top = s("k"), ex.bit(s("m", 19), 18)
    # secure, though m's top bit is 0 on every row of the first 2^14: the
    # space is not cut where no public value ends
    assert check_enumeration(make_expr_set([xor(k, top)]), labels).is_secure
    v = check_enumeration(make_expr_set([ex.build("AND", [k, top])]), labels)
    assert v.witness.fixed == {}
    assert v.witness.evidence.endswith("occurs 524288 vs 262144 times")
    assert ranges == [(0, 1 << 20)] * 2


def test_range_without_publics_past_the_cap(small_ranges):
    labels = SymbolTable()
    labels.declare("k", 1, ex.SECRET)
    labels.declare("m", 5, ex.MASK)
    k, top = s("k"), ex.bit(s("m", 5), 4)
    assert _agrees_with_oracle([xor(k, top)], labels).is_secure
    assert _agrees_with_oracle([ex.build("AND", [k, top])],
                              labels).status == vf.LEAKS
    assert small_ranges == [(0, 64)] * 2


def test_range_wide_member(small_ranges):
    labels = SymbolTable()
    labels.declare("k", 2, ex.SECRET)
    labels.declare("m", 2, ex.MASK)
    labels.declare("p", 3, ex.PUBLIC)
    k, m, p = s("k", 2), s("m", 2), s("p", 3)
    flag = _at_least(p, 5)
    secure = ex.concat([ex.cst(0, 36), xor(k, m), flag])
    assert _agrees_with_oracle([secure], labels).is_secure
    leak = ex.concat([ex.cst(0, 36), xor(k, m),
                      ex.build("AND", [flag, ex.bit(k, 0)])])
    assert _agrees_with_oracle([leak], labels).witness.fixed == {"p": 5}
    # 16 rows per public value: one value per range, the leak in the sixth
    assert small_ranges[-1] == (80, 96)


def test_range_array_read(small_ranges):
    labels = SymbolTable()
    labels.declare("k", 2, ex.SECRET)
    labels.declare("m", 2, ex.MASK)
    labels.declare("p", 3, ex.PUBLIC)
    k, m, p = s("k", 2), s("m", 2), s("p", 3)
    table = ex.array_lookup("t", p, 1, (0, 0, 0, 1, 0, 1, 1, 1))
    sbox = ex.array_lookup("s", xor(k, m), 2, (3, 1, 0, 2))
    exposed = ex.build("AND", [ex.bit(m, 0), table])
    assert _agrees_with_oracle([sbox, table], labels).is_secure
    v = _agrees_with_oracle([sbox, exposed], labels)
    assert v.witness.fixed == {"p": 3}


def test_range_secret_through_its_top_share_only(small_ranges):
    labels = SymbolTable()
    labels.declare("a", 1, ex.SECRET)
    for i in range(3):
        labels.declare(f"a{i}", 1, ex.SHARE, secret="a", index=i)
    labels.declare("p", 3, ex.PUBLIC)
    flag = _at_least(s("p", 3), 5)
    members = [s("a2"), ex.build("AND", [flag, s("a0")])]
    assert _agrees_with_oracle(members, labels).is_secure
    members.append(ex.build("AND", [flag, s("a1")]))
    small_ranges.clear()
    v = _agrees_with_oracle(members, labels)
    assert v.witness.fixed == {"p": 5} and set(v.witness.vary_a) == {"a"}
    # 8 rows per public value, one value per range: the leak in the sixth
    assert small_ranges == [(r, r + 8) for r in range(0, 48, 8)]


@pytest.mark.parametrize("rows", [1, 4, 16])
def test_range_wise_random_sets(monkeypatch, rows):
    monkeypatch.setattr(vf, "_BLOCK_ROWS", rows)
    rng = random.Random(rows)
    leaks = 0
    for _ in range(150):
        exprs, labels = oracles.random_expr_set(rng)
        symbols = {n for e in exprs for n in ex.symbols_of(e)}
        if sum(labels.width(n) for n in symbols) > 12:
            continue
        leaks += _agrees_with_oracle(exprs, labels).status == vf.LEAKS
    assert leaks > 10


# ---------------------------------------------------------------------------
# A leak's witness is the first uneven group in key order
# ---------------------------------------------------------------------------

def _is_first_uneven_group(v, exprs, labels, selection=None):
    """``v`` is Secure iff every group is even; a leak's whole witness is
    the oracle's first uneven group."""
    want = oracles.first_uneven_group(exprs, labels, selection)
    if want is None:
        assert v.is_secure, [ex.render(e) for e in exprs]
        return v
    fixed, vary_a, vary_b, values, count_a, count_b = want
    assert v.witness == vf.LeakWitness(
        vary_a, vary_b, fixed, f"joint value {_format_values(exprs, values)} "
                               f"occurs {count_a} vs {count_b} times")
    return v


def _enumerated(exprs, labels):
    eset = make_expr_set(exprs)
    return _is_first_uneven_group(check_enumeration(eset, labels), eset,
                                  labels)


def test_first_uneven_group_on_random_sets():
    rng = random.Random(20)
    leaks = 0
    for _ in range(300):
        exprs, labels = oracles.random_expr_set(rng)
        eset = make_expr_set(exprs)
        try:
            v = check_enumeration(eset, labels, limit=12)
        except TooLarge:
            continue
        leaks += _is_first_uneven_group(v, eset, labels).status == vf.LEAKS
    assert leaks > 50


def test_first_uneven_group_is_not_row_zeros(km_labels):
    k, m = s("k"), s("m")
    # row 0 (k = m = 0) is in the uneven group (NOT m, k ^ m) = (1, 0); the
    # first group in key order is (0, 0), which holds k = m = 1 only
    v = _enumerated([ex.build("NOT", [m]), xor(k, m)], km_labels)
    assert v.witness.vary_a == {"k": 1}


def test_first_uneven_group_after_an_even_one_of_the_same_public():
    labels = SymbolTable()
    labels.declare("k", 1, ex.SECRET)
    labels.declare("m", 1, ex.MASK)
    labels.declare("p", 1, ex.PUBLIC)
    k, m, p = s("k"), s("m"), s("p")
    # under p = 0, the group m = 0 holds k = 0 and k = 1; m = 1 shows k
    v = _enumerated([xor(m, p), ex.build("AND", [m, k])], labels)
    assert v.witness.fixed == {"p": 0}


def test_first_uneven_group_past_the_first_range(ranges, two_publics):
    labels, pub = two_publics
    k, m = s("k"), s("m", 3)
    # every group of the first 2^14 rows is even
    v = _enumerated([ex.build("AND", [k, _at_least(pub, 1500)]),
                     xor(k, ex.bit(m, 0))], labels)
    assert v.witness.fixed == {"pa": 1500 >> 4, "pb": 1500 & 15}
    assert ranges == [(0, 1 << 14), (1 << 14, 1 << 15)]


def test_first_uneven_group_of_wide_members(km_labels):
    k, m = s("k"), s("m")
    # the first group (0, 0) is even, the next shows k
    v = _enumerated([ex.zext(m, 40), ex.zext(ex.build("AND", [m, k]), 40)],
                    km_labels)
    assert v.witness.evidence.endswith("occurs 1 vs 0 times")
    _enumerated([ex.concat([xor(k, m), ex.cst(0, 36), m])], km_labels)


def test_first_uneven_group_of_array_reads():
    labels = SymbolTable()
    labels.declare("k", 2, ex.SECRET)
    labels.declare("m", 2, ex.MASK)
    k, m = s("k", 2), s("m", 2)
    lookup = ex.array_lookup("t", xor(k, m), 2, (3, 1, 0, 2))
    assert _enumerated([lookup, m], labels).status == vf.LEAKS
    flat = ex.array_lookup("t", k, 2, (0, 0, 0, 1))
    assert _enumerated([flat, ex.bit(m, 0)], labels).status == vf.LEAKS


def test_first_uneven_group_of_a_probe_tuple():
    labels = SymbolTable()
    labels.declare("a", 1, ex.SECRET)
    for i in range(3):
        labels.declare(f"a{i}", 1, ex.SHARE, secret="a", index=i)
    # the first selection fixes a0: a0 = 0 makes the member 0 for every
    # (a1, a2), an even first group, and a0 = 1 shows a1 ^ a2
    exprs = make_expr_set([ex.build("AND", [s("a0"), xor(s("a1"), s("a2"))])])
    v = vf.check_from_fixpoint(exprs, labels, 20, 1)
    _is_first_uneven_group(v, exprs, labels, (["a0"], ["a1", "a2"]))
    assert v.witness.fixed == {"a0": 1}


def test_an_even_first_group_before_a_leak_far_into_the_range():
    for width, t in ((3, 5), (15, 30000)):
        labels = SymbolTable()
        labels.declare("k", 1, ex.SECRET)
        labels.declare("m", width, ex.MASK)
        k, m = s("k"), s("m", width)
        # groups (0, m) are even below t and show k from t on: the witness
        # is read from the members' columns over all rows, at row 2t
        exprs = make_expr_set([ex.build("AND", [k, _at_least(m, t)]), m])
        v = _enumerated(exprs, labels)
        assert v.witness.vary_a == {"k": 0}
        assert v.witness.evidence.endswith(
            f"SYMB(m)={ex.format_bits(t, width)}) occurs 1 vs 0 times")
        assert _assert_witness_counts(exprs, labels, v.witness) == [1, 0]


def test_an_even_first_group_of_the_first_of_many_selections():
    labels = SymbolTable()
    labels.declare("a", 3, ex.SECRET)
    for i in range(3):
        labels.declare(f"a{i}", 3, ex.SHARE, secret="a", index=i)
    a0, a1, a2 = (s(f"a{i}", 3) for i in range(3))
    # three selections, each of one share, and all leak. Fixing a0, the
    # first group (a0 = 0, both members 0) holds every (a1, a2); under
    # a0 = 1 the AND shows a1 ^ a2, and the witness is read from the
    # members' columns over all rows
    exprs = make_expr_set([ex.build("AND", [a0, xor(a1, a2)]), a0])
    v = vf.check_from_fixpoint(exprs, labels, 20, 1)
    assert v.status == vf.LEAKS
    _is_first_uneven_group(v, exprs, labels, (["a0"], ["a1", "a2"]))
    assert v.witness.fixed == {"a0": 1}
    _assert_witness_counts(exprs, labels, v.witness, shares_free=True)


def _first_group_leaks():
    """Two 2^20-row sets that leak at their first group: ``k ^ m0`` and
    nineteen 1-bit masks, and ``k ^ m0`` and eighteen nodes
    ``(m_i & m_i+1) ^ m_i+2`` over them, indices modulo 19."""
    labels = SymbolTable()
    labels.declare("k", 1, ex.SECRET)
    masks = [s(f"m{i}") for i in range(19)]
    for e in masks:
        labels.declare(e.name, 1, ex.MASK)
    nodes = [xor(ex.build("AND", [masks[i], masks[(i + 1) % 19]]),
                 masks[(i + 2) % 19]) for i in range(18)]
    head = xor(s("k"), masks[0])
    return labels, make_expr_set([head, *masks]), make_expr_set([head, *nodes])


def test_a_leak_in_the_first_group_packs_no_full_key(monkeypatch):
    labels, bare, nodes = _first_group_leaks()
    packed, densified, columns = [], [], []
    pack, dense, field, term = vf._pack, vf._dense, vf._field, vf._Rows._term

    def spy_pack(parts):
        packed.append([len(col) for col, _ in parts])
        return pack(parts)

    def spy_dense(arr):
        densified.append(len(arr))
        return dense(arr)

    def spy_field(off, width, start, stop):
        columns.append(("field", stop - start))
        return field(off, width, start, stop)

    def spy_term(rows, e):
        columns.append((e, rows.n))
        return term(rows, e)

    monkeypatch.setattr(vf, "_pack", spy_pack)
    monkeypatch.setattr(vf, "_dense", spy_dense)
    monkeypatch.setattr(vf, "_field", spy_field)
    monkeypatch.setattr(vf._Rows, "_term", spy_term)
    # twenty 1-bit members over 20 bits: the first group, every member 0,
    # is the one row k = 0. The walk reads the vary key as one row field,
    # so it packs nothing
    v = check_enumeration(bare, labels)
    assert v.witness.evidence.endswith("occurs 1 vs 0 times")
    assert packed == [] and densified == []
    # the 2^20 rows are walked one block at a time: no field and no member
    # column is built over more than one block
    assert max(n for _, n in columns) == vf._BLOCK_ROWS
    packed.clear()
    columns.clear()
    v = check_enumeration(nodes, labels)
    assert v.witness.evidence.endswith("occurs 2 vs 1 times")
    # the group's three rows lie in two blocks: each counts its own
    assert packed == [] and densified == []
    assert {e for e, _ in columns} >= set(nodes)
    assert max(n for _, n in columns) == vf._BLOCK_ROWS


def _traced_enumeration(exprs, labels):
    """The verdict of ``check_enumeration`` and its traced peak in MiB."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        v = check_enumeration(exprs, labels)
        return v, (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        if not tracing:
            tracemalloc.stop()


def test_a_leak_in_the_first_group_stays_within_its_memory_bound():
    labels, bare, nodes = _first_group_leaks()
    # traced peaks (numpy's buffers included): 28 and 64 MiB when every
    # field and member column was built over all rows, 11.5 and 17 MiB
    # when the first member's were, 1.3 and 3.6 MiB when no column was
    # built over more than one 2^16-row block, 0.4 and 0.9 MiB with
    # 2^14-row blocks: the bound keeps a margin
    for exprs in (bare, nodes):
        v, peak = _traced_enumeration(exprs, labels)
        assert v.status == vf.LEAKS
        assert peak < 4, f"{peak:.1f} MiB traced, bound 4"


def test_a_secure_set_with_publics_stays_within_its_memory_bound():
    labels = SymbolTable()
    labels.declare("k", 1, ex.SECRET)
    m = [s(f"m{i}") for i in range(13)]
    for e in m:
        labels.declare(e.name, 1, ex.MASK)
    labels.declare("p", 4, ex.PUBLIC)
    p = s("p", 4)
    exprs = make_expr_set([xor(s("k"), m[0], ex.bit(p, 0)),
                           ex.build("AND", [xor(*m[1:7]), ex.bit(p, 3)]),
                           xor(*m[7:13], ex.bit(p, 2))])
    # 18 bits, 2^14 rows per public value: each range is one public value,
    # and the even path of every range holds its members' columns and
    # packed keys over 2^14 rows. Traced peaks (numpy's buffers included):
    # 5.96 MiB when later ranges doubled up to 2^17 rows, 0.92 MiB with
    # one range size: the bound keeps a margin
    v, peak = _traced_enumeration(exprs, labels)
    assert v.is_secure
    assert peak < 2, f"{peak:.1f} MiB traced, bound 2"


@pytest.fixture
def first_selections(monkeypatch):
    """The (fixed, vary) selection of each kernel call, in call order: an
    enumeration's first call is its first selection."""
    seen = []
    kernel = vf._first_bad_group

    def spy(exprs, rows):
        seen.append((rows.space.fixed, rows.space.vary))
        return kernel(exprs, rows)

    monkeypatch.setattr(vf, "_first_bad_group", spy)
    return seen


@pytest.mark.parametrize("block", [1, 4, 16])
def test_block_wise_first_groups_on_random_sets(monkeypatch, first_selections,
                                                block):
    monkeypatch.setattr(vf, "_BLOCK_ROWS", block)
    rng = random.Random(block)
    leaks = probe_leaks = 0
    for _ in range(200):
        exprs, labels = oracles.random_expr_set(rng)
        eset = make_expr_set(exprs)
        try:
            v = check_enumeration(eset, labels, limit=12)
        except TooLarge:
            continue
        leaks += _is_first_uneven_group(v, eset, labels).status == vf.LEAKS
    for _ in range(100):
        exprs, labels, _ = _shared_set(rng.choice)
        first_selections.clear()
        v = vf.check_from_fixpoint(exprs, labels, 20, rng.choice((1, 2)))
        if v.status == vf.LEAKS:
            _is_first_uneven_group(v, exprs, labels, first_selections[0])
            probe_leaks += 1
    assert leaks > 30 and probe_leaks > 10


def _top_share_tuple(rng):
    """A probe tuple's members without a public, over two masks that sort
    before every share and one or two secrets whose shares are named in
    reverse index order: with one secret, the first selection of one share
    fixes the last share in name order, which the fields' own order puts
    on top. A member that observes the secret ``s`` itself lists its shares
    in index order instead, so the selected shares may lie anywhere in
    that order."""
    labels = SymbolTable()
    atoms = ["m0", "m1"]
    for name in ("s", "t")[:rng.choice((1, 1, 2))]:
        labels.declare(name, 1, ex.SECRET)
        n = rng.choice((2, 3, 4))
        for i in range(n):
            labels.declare(f"{name}{n - 1 - i}", 1, ex.SHARE, secret=name,
                           index=i)
            atoms.append(f"{name}{i}")
    labels.declare("m0", 1, ex.MASK)
    labels.declare("m1", 1, ex.MASK)
    exprs = []
    for _ in range(rng.choice((1, 2, 3))):
        leaves = [s(rng.choice(atoms + ["s"]))
                  for _ in range(rng.choice((1, 2, 3)))]
        exprs.append(leaves[0] if len(leaves) == 1 else
                     ex.build(rng.choice(("XOR", "AND", "OR")), leaves))
    return make_expr_set(exprs), labels


def _assert_fixed_on_top(space):
    """The fixed fields hold the top bits of the row index, the vary fields
    the bits right below them, each with the first most significant, and
    every other field the bits below those."""
    top = space.total_bits
    for name in space.fixed:
        top -= space.widths[name]
        assert space.offsets[name] == top, (space.fixed, space.offsets)
    assert space.low == top
    for name in space.vary:
        top -= space.widths[name]
        assert space.offsets[name] == top, (space.vary, space.offsets)
    assert space.vary_low == top
    selected = {*space.fixed, *space.vary}
    assert all(space.offsets[n] + space.widths[n] <= top
               for n in space.widths if n not in selected), space.offsets


@pytest.mark.parametrize("block", [1, 2])
def test_top_share_fields_cut_the_first_group_walk(monkeypatch, block):
    # each selection lays its fixed shares out on the row index's top bits,
    # so its first group is walked on the rows where they are 0 only: each
    # selection's walk is the oracle's first uneven group of that
    # selection, and a leak's witness is its first selection's
    monkeypatch.setattr(vf, "_BLOCK_ROWS", block)
    calls = []
    walk = vf._first_leak

    def spy(exprs, space):
        _assert_fixed_on_top(space)
        leak = walk(exprs, space)
        calls.append((space.fixed, space.vary, leak))
        return leak

    monkeypatch.setattr(vf, "_first_leak", spy)
    rng = random.Random(block)
    selections = leaks = 0
    for _ in range(300):
        exprs, labels = _top_share_tuple(rng)
        budget = rng.choice((1, 2))
        if vf._share_count_proves(vf._footprint(
                vf._symbols(exprs, labels), labels), labels, budget):
            continue   # check_tuples never decides it
        calls.clear()
        v = vf.check_from_fixpoint(exprs, labels, 20, budget)
        if not calls:
            continue   # the count after a substitution step proved it
        for fixed, vary, leak in calls:
            got = vf.Verdict.secure() if leak is None else \
                vf.Verdict.leaks(leak)
            _is_first_uneven_group(got, exprs, labels, (fixed, vary))
        # the walk stops at the first invariant selection
        assert v.is_secure == (calls[-1][2] is None)
        if v.status == vf.LEAKS:
            _is_first_uneven_group(v, exprs, labels, calls[0][:2])
        selections += len(calls)
        leaks += v.status == vf.LEAKS
    assert selections > 100 and leaks > 20


def test_every_kernel_call_has_its_fixed_fields_on_top(monkeypatch):
    # a probe tuple's selected shares, like a set's publics, hold the top
    # bits of the row index at every kernel call, though the shares seldom
    # lead the fields' own order
    calls = collections.Counter()
    kernel = vf._first_bad_group

    def spy(exprs, rows):
        space = rows.space
        _assert_fixed_on_top(space)
        unselected = vf._Space(space.widths, space.derived)
        calls[phase, "fixed"] += bool(space.fixed)
        calls[phase, "moved"] += bool(space.fixed) and unselected.offsets[
            space.fixed[0]] + space.widths[space.fixed[0]] != space.total_bits
        return kernel(exprs, rows)

    monkeypatch.setattr(vf, "_first_bad_group", spy)
    phase = "order-2 checks"
    for gen in (gadgets.gen_dom_and, gadgets.gen_isw_and):
        _, _, _, spec = gen(2)
        for checker in (check_ni, check_sni):
            for glitches in (False, True):
                checker(spec, 2, glitches)
    rng = random.Random(33)
    phase = "random tuples"
    for _ in range(100):
        exprs, labels, _ = _shared_set(rng.choice)
        vf.check_from_fixpoint(exprs, labels, 20, rng.choice((1, 2)))
    phase = "random sets"
    for _ in range(200):
        check_enumeration(*_public_set(rng), limit=12)
    print(f"kernel calls with fixed fields: {dict(calls)}")
    assert calls["order-2 checks", "moved"] > 4
    assert calls["random tuples", "moved"] > 40
    assert calls["random sets", "fixed"] > 30


def test_a_range_builds_each_column_once(monkeypatch):
    labels = SymbolTable()
    labels.declare("k", 1, ex.SECRET)
    labels.declare("m", 3, ex.MASK)
    labels.declare("p", 2, ex.PUBLIC)
    k, m, p = s("k"), s("m", 3), s("p", 2)
    # 64 rows, one range of four public values: the walk finds the even
    # first group on the range's own columns, and the even path reuses them
    built = collections.Counter()
    term = vf._Rows._term

    def spy(rows, e):
        built[e] += 1
        return term(rows, e)

    monkeypatch.setattr(vf._Rows, "_term", spy)
    exprs = make_expr_set([xor(k, ex.bit(m, 0), ex.bit(p, 1)),
                           ex.build("AND", [ex.bit(m, 1), ex.bit(p, 0)])])
    assert check_enumeration(exprs, labels).is_secure
    assert set(built) >= set(exprs) and set(built.values()) == {1}, \
        {ex.render(e): n for e, n in built.items()}


def test_a_witness_whose_vary_key_is_wider_than_16_bits():
    labels = SymbolTable()
    labels.declare("a", 9, ex.SECRET)
    labels.declare("b", 9, ex.SECRET)
    labels.declare("m", 1, ex.MASK)
    labels.declare("p", 1, ex.PUBLIC)
    a, b = s("a", 9), s("b", 9)
    # the vary key (a, b) is an 18-bit row field, read as int64. Under
    # p = 0 every group is even; under p = 1 the first group, both members
    # 0, holds one row for each (a, b) with b's bit 3 clear: the lowest
    # (a, b) present is (0, 0), the lowest absent (0, 8)
    exprs = make_expr_set([xor(ex.bit(a, 8), s("m")),
                           ex.build("AND", [ex.bit(b, 3), s("p")])])
    [space] = vf._space_for(vf._symbols(exprs, labels), labels, 20, None)
    assert space.low - space.vary_low == 18
    v = check_enumeration(exprs, labels)
    assert (v.witness.vary_a, v.witness.vary_b, v.witness.fixed) == \
        ({"a": 0, "b": 0}, {"a": 0, "b": 8}, {"p": 1})
    assert v.witness.evidence.endswith("occurs 1 vs 0 times")


def test_block_wise_first_group_in_a_later_block(monkeypatch):
    monkeypatch.setattr(vf, "_BLOCK_ROWS", 4)
    labels = SymbolTable()
    labels.declare("k", 1, ex.SECRET)
    labels.declare("m", 3, ex.MASK)
    k, m = s("k"), s("m", 3)
    # row k + 2m: the block b holds m = 2b and 2b + 1, so each block's
    # least NOT m is smaller than the last one's, and the first group,
    # m = 7 and k = 0, lies in the last block
    v = _enumerated([xor(m, ex.cst(7, 3)), ex.build("AND", [k, ex.bit(m, 0)])],
                    labels)
    assert v.witness.evidence.endswith("occurs 1 vs 0 times")


def test_block_wise_first_group_across_blocks(monkeypatch):
    monkeypatch.setattr(vf, "_BLOCK_ROWS", 4)
    labels = SymbolTable()
    labels.declare("k", 1, ex.SECRET)
    labels.declare("m", 3, ex.MASK)
    k, m = s("k"), s("m", 3)
    # the first group, m < 4 and k & m0 = 0, has rows in the first two
    # blocks, which tie on its key; the last two are abandoned at m's top
    # bit
    v = _enumerated([ex.bit(m, 2), ex.build("AND", [k, ex.bit(m, 0)])],
                    labels)
    assert v.witness.evidence.endswith("occurs 4 vs 2 times")


def _public_set(rng):
    """A random set with 1 to 4 public bits, in one public or two; most
    members mix a public term in."""
    labels = SymbolTable()
    symbols = {}

    def declare(name, width, kind, secret=None, index=None):
        labels.declare(name, width, kind, secret, index)
        symbols[name] = width

    w = rng.choice((1, 2))
    declare("k", w, ex.SECRET)
    if rng.random() < 0.3:
        labels.declare("ks", 1, ex.SECRET)
        for i in range(rng.choice((2, 3))):
            declare(f"ks{i}", 1, ex.SHARE, secret="ks", index=i)
    for i in range(rng.randrange(1, 4)):
        declare(f"m{i}", rng.choice((1, w)), ex.MASK)
    bits = rng.randint(1, 4)
    top = rng.randrange(1, bits) if bits > 1 and rng.random() < 0.5 else bits
    declare("p", top, ex.PUBLIC)
    if top < bits:
        declare("q", bits - top, ex.PUBLIC)
    publics = {n: symbols[n] for n in ("p", "q") if n in symbols}
    exprs = []
    for _ in range(rng.randrange(1, 4)):
        e = oracles.tree_to_expr(oracles.random_tree(
            rng, symbols, rng.randrange(1, 4), rng.choice((w, 1))))
        if rng.random() < 0.7:
            public = oracles.random_tree(rng, publics, 2, e.width)
            e = ex.build(rng.choice(("AND", "OR", "XOR")),
                         [e, oracles.tree_to_expr(public)])
        exprs.append(e)
    return make_expr_set(exprs), labels


@pytest.mark.parametrize("block", [1, 2, 8, 16])
def test_whole_witnesses_over_many_ranges(monkeypatch, ranges, block):
    # small blocks: a set spans several ranges, a range of one public
    # value several blocks, and a range of one block holds several small
    # public values, told apart in the walk and the even path by the lead
    monkeypatch.setattr(vf, "_BLOCK_ROWS", block)
    rng = random.Random(block)
    leaks = several = 0
    for _ in range(300):
        exprs, labels = _public_set(rng)
        ranges.clear()
        try:
            v = check_enumeration(exprs, labels, limit=12)
        except TooLarge:
            continue
        leaks += _is_first_uneven_group(v, exprs, labels).status == vf.LEAKS
        several += len(ranges) > 1
    assert leaks > 60 and several > 10


# ---------------------------------------------------------------------------
# Narrow columns
# ---------------------------------------------------------------------------

_BOUNDARY_WIDTHS = (1, 7, 8, 9, 15, 16, 17, 30, 31, 32)


def test_column_type_follows_width():
    assert [vf._dtype(w).name for w in _BOUNDARY_WIDTHS] == \
        ["uint8"] * 3 + ["uint16"] * 3 + ["int64"] * 3 + ["object"]


def test_narrow_columns_equal_the_tree_oracle():
    rng = random.Random(17)
    symbols = {f"x{w}": w for w in _BOUNDARY_WIDTHS}
    rows = 48
    cols = {name: np.array([rng.getrandbits(w) for _ in range(rows)],
                           dtype=vf._dtype(w)) for name, w in symbols.items()}
    x = {w: ("sym", f"x{w}", w) for w in _BOUNDARY_WIDTHS}
    trees = [oracles.random_tree(rng, symbols, 3, w)
             for w in _BOUNDARY_WIDTHS for _ in range(6)]
    trees += [
        # sums, differences and products that wrap in uint8/uint16/int64
        ("ADD", [x[8], ("cst", 255, 8)], ()), ("SUB", [x[7], x[7]], ()),
        ("SUB", [("cst", 0, 16), x[16]], ()), ("MUL", [x[9], x[9]], ()),
        ("MUL", [x[16], x[16]], ()), ("MUL", [x[31], x[31]], ()),
        ("ADD", [x[17], x[17]], ()), ("POW", [x[15], x[15]], ()),
        # concatenations and extractions across a type boundary
        ("CONCAT", [x[8], x[1]], ()), ("CONCAT", [x[16], x[15]], ()),
        ("CONCAT", [x[16], x[16]], ()), ("CONCAT", [x[1], x[30]], ()),
        ("EXTRACT", [x[17]], (16, 16)), ("EXTRACT", [x[9]], (1, 8)),
        ("EXTRACT", [x[32]], (1, 31)), ("EXTRACT", [x[32]], (0, 15)),
        # shifts by a symbolic amount, and a constant past int64
        ("LSL", [x[9], x[7]], ()), ("ASR", [x[16], x[1]], ()),
        ("LSR", [x[32], x[7]], ()), ("XOR", [x[32], ("cst", 1 << 31, 32)], ()),
    ]
    # each row's assignment: eval_concrete computes by the same rule as
    # the columns, on Python ints past 31 bits
    assignments = [{n: int(c[r]) for n, c in cols.items()}
                   for r in range(rows)]
    # the symbols' columns given, each term's is evaluated on first read
    columns = vf._Rows(vf._Space({}, {}), 0, rows)
    columns.update(cols)
    for tree in trees:
        e = oracles.tree_to_expr(tree)
        got = [int(v) for v in columns[e]]
        want = [oracles.tree_eval(tree, a) for a in assignments]
        assert got == want, ex.render(e)
        assert [ex.eval_concrete(e, a) for a in assignments] == want, \
            ex.render(e)
    # a bound table read, indexed past uint16, its values past its width
    table = [rng.getrandbits(7) for _ in range(10)]
    read = ex.array_lookup("t", oracles.tree_to_expr(x[17]), 5, table)
    got = [int(v) for v in columns[read]]
    assert got == [table[int(i) % 10] & 31 for i in cols["x17"]]
    assert [ex.eval_concrete(read, a) for a in assignments] == got
    terms = {e: col for e, col in columns.items() if isinstance(e, ex.Expr)}
    assert len(terms) > len(trees)
    for e, col in terms.items():
        assert len(col) == rows and col.dtype == vf._dtype(e.width), \
            ex.render(e)


def test_materialise_every_public_range():
    labels = SymbolTable()
    labels.declare("k", 1, ex.SECRET)
    for i in range(2):
        labels.declare(f"k{i}", 1, ex.SHARE, secret="k", index=i)
    labels.declare("m", 3, ex.MASK)
    labels.declare("pa", 8, ex.PUBLIC)
    labels.declare("pb", 9, ex.PUBLIC)
    [space] = vf._space_for({"k1", "m", "pa", "pb"}, labels, 22, budget=None)
    assert space.derived == {"k1": ["k", "k0"]}
    assert (space.fixed, space.vary) == (["pa", "pb"], ["k"])
    assert sorted(space.widths.values()) == [1, 1, 3, 8, 9]
    # 2^11-row ranges: the public fields' runs (pa's are 2^14 rows)
    # outgrow the ranges, which then cut them
    size = 1 << 11
    assert space.size % size == 0 and 1 << space.offsets["pa"] > size
    for start in range(0, space.size, size):
        stop = start + size
        rows = vf._Rows(space, start, stop)
        assert rows.n == stop - start
        for name in space.widths:
            off, w = space.offsets[name], space.widths[name]
            col = rows[name]
            assert col.dtype == vf._dtype(w) and len(col) == stop - start
            assert col.tolist() == [(r >> off) & ((1 << w) - 1)
                                    for r in range(start, stop)], name
        k1 = rows["k1"]
        assert k1.dtype == np.uint8
        assert np.array_equal(k1, rows["k"] ^ rows["k0"])


# ---------------------------------------------------------------------------
# Share counts after the substitution fixpoint
# ---------------------------------------------------------------------------

@pytest.fixture
def three_shares():
    labels = SymbolTable()
    labels.declare("k", 1, ex.SECRET)
    for i in range(3):
        labels.declare(f"s{i}", 1, ex.SHARE, secret="k", index=i)
    labels.declare("m", 1, ex.MASK)
    return labels


def test_share_count_pinned_cases(three_shares):
    def sub(*names):
        return check_substitution(make_expr_set(s(n) for n in names),
                                  three_shares)

    assert sub("s0", "s1").is_secure
    for names in (("s0", "s1", "s2"), ("k", "s0")):
        verdict = sub(*names)
        assert verdict.status == vf.INCONCLUSIVE
        assert verdict.reason == \
            "substitution left sensitive symbols: " + ", ".join(names)
    # the mask hides s2, leaving a proper subset of the sharing
    assert check_substitution(make_expr_set([xor(s("s2"), s("m")), s("s0"),
                                             s("s1")]), three_shares).is_secure


def _shared_set(pick):
    """Members over secrets of 2-4 shares, two masks and a public, some read
    through either of two versions of a 1-bit table or widened to 40 bits;
    ``pick(options)`` makes every choice. Returns members, labels and
    secrets."""
    labels = SymbolTable()
    secrets = {}
    for name, counts in (("a", (2, 3, 4)), ("b", (2, 3)))[:pick((1, 2))]:
        labels.declare(name, 1, ex.SECRET)
        secrets[name] = [f"{name}{i}" for i in range(pick(counts))]
        for i, share in enumerate(secrets[name]):
            labels.declare(share, 1, ex.SHARE, secret=name, index=i)
    labels.declare("m0", 1, ex.MASK)
    labels.declare("m1", 1, ex.MASK)
    labels.declare("p", 1, ex.PUBLIC)
    atoms = [n for shares in secrets.values() for n in shares] + \
        ["a", "m0", "m1", "p"]
    tables = [(pick((0, 1)), pick((0, 1))) for _ in range(2)]
    exprs = []
    for _ in range(pick((1, 2, 3))):
        leaves = [s(pick(atoms)) for _ in range(pick((1, 2, 3)))]
        e = leaves[0] if len(leaves) == 1 else \
            ex.build(pick(("XOR", "XOR", "AND")), leaves)
        if pick((False, True)):
            e = xor(e, s(pick(("m0", "m1"))))
        wrap = pick((None, None, "array", "wide"))
        if wrap == "array":
            version = pick((0, 1))
            e = ex.array_lookup("t", e, 1, tables[version], version)
        elif wrap == "wide":
            e = ex.zext(e, 40)
        exprs.append(e)
    return make_expr_set(exprs), labels, secrets


def _assert_share_counts_sound(exprs, labels, secrets, budget):
    """Each Secure of substitution is confirmed by brute force, and the
    simulatability verdict is the brute-force one; returns whether only the
    share count after the fixpoint proved independence."""
    proved = check_substitution(exprs, labels).is_secure
    if proved:
        assert oracles.independence_bruteforce(exprs, labels), \
            [ex.render(e) for e in exprs]
    if check_substitution(exprs, labels, budget).is_secure:
        assert oracles.simulatable_bruteforce(exprs, labels, secrets, budget), \
            (budget, [ex.render(e) for e in exprs])
    assert vf.check_from_fixpoint(exprs, labels, 20, budget).is_secure == \
        oracles.simulatable_bruteforce(exprs, labels, secrets, budget), \
        (budget, [ex.render(e) for e in exprs])
    return proved and any(labels.is_sensitive(n) for n in
                          oracles.substitution_fixpoint(exprs, labels))


def test_share_count_agrees_with_bruteforce_on_random_sets():
    rng = random.Random(7)
    count_only = 0
    for _ in range(400):
        exprs, labels, secrets = _shared_set(rng.choice)
        if exprs:
            count_only += _assert_share_counts_sound(
                exprs, labels, secrets, rng.choice((1, 2, 3)))
    assert count_only > 30   # sets that only the share count proves


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 3))
def test_share_count_agrees_with_bruteforce_hypothesis(data, budget):
    exprs, labels, secrets = _shared_set(
        lambda options: data.draw(st.sampled_from(options)))
    if exprs:
        _assert_share_counts_sound(exprs, labels, secrets, budget)


@pytest.mark.parametrize("gen", [gadgets.gen_dom_and, gadgets.gen_isw_and])
def test_share_count_keys_of_gadgets_are_enumeration_secure(gen, monkeypatch):
    # every NI/SNI key (glitches on and off) and every spatial order-2 union
    # that a share count proves is Secure under enumeration
    circuit, labels, stimuli, spec = gen(2)
    proven = set()
    for glitches in (False, True):
        probes = vf.collect_probes(spec, glitches)
        for combo in itertools.chain(*(itertools.combinations(probes, q)
                                       for q in (1, 2))):
            exprs = make_expr_set(e for p in combo for e in p.obs)
            symbols = {n for e in exprs for n in ex.symbols_of(e)}
            for budget in {len(combo),
                           sum(1 for p in combo if not p.is_output)}:
                if any(sum(n in symbols for n in shares) > budget
                       for shares in labels.sharings()) and \
                        vf.check_from_fixpoint(exprs, labels, 20,
                                               budget).is_secure:
                    proven.add((exprs, budget))
    sets = []
    check = vf.check_from_fixpoint

    def proving_check(eset, *args):
        if check_substitution(eset, labels).is_secure:
            sets.append(eset)
        return check(eset, *args)

    monkeypatch.setattr(vf, "check_from_fixpoint", proving_check)
    mg.verify_higher_order(circuit, stimuli, labels, mg.LeakageModel(order=2))
    assert any(labels.is_sensitive(n) for eset in sets
               for n in oracles.substitution_fixpoint(eset, labels))
    for eset in sets:
        assert check_enumeration(eset, labels).is_secure

    # keys past the raw count, decided by enumeration alone
    assert len(proven) > 100
    for exprs, budget in proven:
        assert check_enumeration(exprs, labels, 20, budget).is_secure


# ---------------------------------------------------------------------------
# Share footprints and the occurrence cache
# ---------------------------------------------------------------------------

@st.composite
def _label_table(draw):
    """1-12 sharings of 2-4 shares, possibly a secret without shares, masks
    and publics, and a random subset of the declared names."""
    labels = SymbolTable()
    for i in range(draw(st.integers(1, 12))):
        labels.declare(f"k{i}", 1, ex.SECRET)
        for j in range(draw(st.integers(2, 4))):
            labels.declare(f"k{i}s{j}", 1, ex.SHARE, secret=f"k{i}", index=j)
    if draw(st.booleans()):
        labels.declare("u", 1, ex.SECRET)
    for i in range(draw(st.integers(0, 2))):
        labels.declare(f"m{i}", 1, ex.MASK)
    for i in range(draw(st.integers(0, 2))):
        labels.declare(f"p{i}", 1, ex.PUBLIC)
    symbols = draw(st.sets(st.sampled_from(sorted(labels))))
    return labels, symbols


@settings(max_examples=300, deadline=None)
@given(_label_table())
def test_footprint_count_is_the_stated_rule(table):
    labels, symbols = table
    fp = vf._footprint(symbols, labels)
    for budget in (None, 0, 1, 2):
        assert vf._share_count_proves(fp, labels, budget) == \
            oracles.share_count(symbols, labels, budget), budget


def test_a_share_count_reads_only_the_sharings_it_touches():
    # 5,000 sharings: a count on one share's footprint reads its own
    # sharing, not the table's 5,000
    labels = SymbolTable()
    for i in range(5000):
        labels.declare(f"k{i}", 1, ex.SECRET)
        for j in range(2):
            labels.declare(f"k{i}s{j}", 1, ex.SHARE, secret=f"k{i}", index=j)
    counts = [(vf._footprint({f"k{i}s{n % 2}"}, labels), (None, 0)[n % 2])
              for n, i in enumerate(range(0, 5000, 10))]
    start = time.perf_counter()
    proves = [vf._share_count_proves(fp, labels, budget)
              for fp, budget in counts]
    assert time.perf_counter() - start < 0.1
    assert proves == [budget is None for _, budget in counts]


def test_footprints_follow_later_declarations():
    labels = SymbolTable()
    labels.declare("k", 1, ex.SECRET)
    labels.declare("k0", 1, ex.SHARE, secret="k", index=0)
    assert not vf._share_count_proves(vf._footprint({"k0"}, labels), labels)
    labels.declare("k1", 1, ex.SHARE, secret="k", index=1)
    assert vf._share_count_proves(vf._footprint({"k0"}, labels), labels)


@pytest.mark.parametrize("gen", [gadgets.gen_dom_and, gadgets.gen_isw_and])
@pytest.mark.parametrize("glitches", [False, True])
def test_footprint_proven_probe_tuples_are_simulatable(gen, glitches):
    # every NI/SNI view of the order-1 gadget at d=2 that the engine never
    # decides is simulatable under brute force
    _, labels, _, spec = gen(1)
    probes = vf.collect_probes(spec, glitches)
    parts = [(vf.make_part(p.obs, labels),) for p in probes]
    views, decided = set(), set()
    for weights in _ni_and_sni_weights(probes):
        walked = []

        def decide(exprs, budget):
            walked.append((exprs, budget))
            return vf.Verdict.secure()   # walk every tuple

        for combo in itertools.chain(*(itertools.combinations(
                range(len(probes)), q) for q in (1, 2))):
            views.add((make_expr_set(e for i in combo for e in probes[i].obs),
                       sum(weights[i] for i in combo)))
        res = vf.check_tuples(probes, (1, 2), parts, weights, decide, labels)
        assert res.tuples_checked == res.tuple_count
        assert len(walked) == len(set(walked))
        decided.update(walked)
    proven = views - decided
    assert len(proven) > 20
    for exprs, budget in proven:
        assert oracles.simulatable_bruteforce(exprs, labels, _secrets(labels),
                                              budget), exprs


def _ni_and_sni_weights(probes):
    """Each probe's share of a tuple's budget under NI, then under SNI."""
    return [1] * len(probes), [0 if p.is_output else 1 for p in probes]


def _random_term(rng, depth, shared):
    widths = {"m": 8, "n": 4, "k": 1}
    if depth == 0 or rng.random() < 0.2:
        name = rng.choice(sorted(widths))
        e = s(name, widths[name])
        if e.width > 1 and rng.random() < 0.7:
            lo = rng.randrange(e.width)
            e = ex.extract(e, lo, rng.randrange(lo, e.width))
        return ex.zext(e, 8)
    if shared and rng.random() < 0.3:
        return rng.choice(shared)
    op = rng.choice(("XOR", "XOR", "AND", "CONCAT", "EXTRACT", "BITS"))
    if op == "BITS":
        # every bit of a mask: more occurrences than the lists keep
        m = s("m", 8)
        return xor(*(ex.zext(ex.bit(m, i), 8) for i in range(8)),
                   _random_term(rng, depth - 1, shared))
    kids = [_random_term(rng, depth - 1, shared) for _ in range(2)]
    if op == "CONCAT":
        e = ex.extract(ex.concat(kids), 4, 11)
    elif op == "EXTRACT":
        e = ex.zext(ex.extract(kids[0], 1, 6), 8)
    else:
        e = ex.build(op, kids)
    shared.append(e)
    return e


def test_cached_occurrences_equal_a_fresh_walk():
    rng = random.Random(11)
    saturated = 0
    for _ in range(300):
        e = _random_term(rng, rng.randrange(1, 5), [])
        for masks in ({"m"}, {"m", "n"}, {"n", "k"}, set()):
            cached = {name: ranges for name, ranges
                      in vf._occurrence_ranges(e).items() if name in masks}
            assert cached == oracles.occurrence_ranges(e, masks), ex.render(e)
        saturated += len(vf._occurrence_ranges(e).get("m", ())) > vf._RANGE_CAP
    assert saturated > 10


def test_the_reference_fixpoint_keeps_its_own_range_cap():
    # the referee saturates its occurrence lists at a cap of its own, which
    # must stay the one it referees
    assert oracles.RANGE_CAP == vf._RANGE_CAP


def _fixpoint_left(exprs, labels):
    """The labeled symbols left once every substitution step has run."""
    members = exprs
    for members in vf._substitutions(exprs, labels):
        pass
    return vf._labeled(members, labels)


def test_one_term_under_two_tables_gets_each_tables_fixpoint():
    # u is a mask in one table and a share in the other, v the other way
    # round; the cached occurrence lists serve both
    tables = []
    for mask, share in (("u", "v"), ("v", "u")):
        labels = SymbolTable()
        labels.declare("k", 1, ex.SECRET)
        labels.declare(share, 1, ex.SHARE, secret="k", index=0)
        labels.declare("w", 1, ex.SHARE, secret="k", index=1)
        labels.declare(mask, 1, ex.MASK)
        tables.append(labels)
    exprs = make_expr_set([xor(s("u"), s("v")),
                           ex.build("AND", [s("u"), s("w")])])
    for _ in range(2):
        # u occurs twice, so no mask is replaced; v once, under the XOR
        assert _fixpoint_left(exprs, tables[0]) == {"u", "v", "w"}
        assert _fixpoint_left(exprs, tables[1]) == {"u", "w"}


def _fresh_xor_operands(e):
    """The fresh masks in ``e`` that are an XOR operand or the extraction
    of one: those a substitution step could replace."""
    out = set()
    if e.kind == "op":
        for c in e.children if e.op == "XOR" else ():
            atom = c.children[0] if c.kind == "op" and c.op == "EXTRACT" else c
            if atom.kind == "sym" and atom.name.startswith("$sub"):
                out.add(atom.name)
        for c in e.children:
            out |= _fresh_xor_operands(c)
    return out


def test_a_fresh_mask_is_never_an_xor_operand():
    # the fixpoint scans the labeled masks only: no step leaves a fresh
    # mask where a later one could replace it, and the symbols left are
    # those of the reference loop, which scans the fresh masks too
    rng = random.Random(34)
    sets = [(make_expr_set(exprs), labels) for exprs, labels in
            (oracles.random_expr_set(rng) for _ in range(300))]
    for gen in (gadgets.gen_dom_and, gadgets.gen_isw_and):
        for d in (1, 2):
            _, labels, _, spec = gen(d)
            for glitches in (False, True):
                probes = vf.collect_probes(spec, glitches)
                sets += [(make_expr_set(e for p in combo for e in p.obs),
                          labels) for q in (1, 2)
                         for combo in itertools.combinations(probes, q)]
    steps = 0
    for exprs, labels in sets:
        members = exprs
        for members in vf._substitutions(exprs, labels):
            steps += 1
            assert not set().union(*map(_fresh_xor_operands, members)), \
                [ex.render(e) for e in members]
        assert vf._labeled(members, labels) == \
            oracles.substitution_fixpoint(exprs, labels), \
            [ex.render(e) for e in exprs]
    assert steps > 1000


# ---------------------------------------------------------------------------
# The fixpoint's first proving step and the walk's count memo, refereed by
# the reference loops in oracles
# ---------------------------------------------------------------------------

def _drawn_term(data, names, depth):
    if depth == 0 or data.draw(st.booleans()):
        return s(data.draw(st.sampled_from(names)))
    kids = [_drawn_term(data, names, depth - 1)
            for _ in range(data.draw(st.integers(2, 3)))]
    return ex.build(data.draw(st.sampled_from(("XOR", "XOR", "AND", "OR"))),
                    kids)


@settings(max_examples=300, deadline=None)
@given(st.data(), _label_table())
def test_fixpoint_count_agrees_with_the_run_to_fixpoint_loop(data, table):
    labels, symbols = table
    names = sorted(symbols) or sorted(labels)
    exprs = make_expr_set(_drawn_term(data, names, 2)
                          for _ in range(data.draw(st.integers(1, 4))))
    for budget in (None, 1, 2):
        if exprs:
            # the count on the set's own symbols, then the fixpoint's
            assert vf.check_substitution(exprs, labels, budget) == \
                oracles.fixpoint_count(exprs, labels, budget), budget


@pytest.mark.parametrize("gen", [gadgets.gen_dom_and, gadgets.gen_isw_and])
def test_fixpoint_count_agrees_on_every_decided_gadget_set(gen, monkeypatch):
    # every set that d=2 NI and SNI (glitches off and on) and the spatial
    # order-2 check decide
    circuit, labels, stimuli, spec = gen(2)
    decided = set()
    check = vf.check_from_fixpoint

    def recording_check(exprs, *args):
        decided.add(exprs)
        return check(exprs, *args)

    monkeypatch.setattr(vf, "check_from_fixpoint", recording_check)
    for glitches in (False, True):
        vf.check_ni(spec, 2, glitches)
        vf.check_sni(spec, 2, glitches)
    mg.verify_higher_order(circuit, stimuli, labels, mg.LeakageModel(order=2))
    assert len(decided) > 100
    steps = 0
    for exprs in decided:
        for budget in (None, 1, 2):
            assert vf.check_substitution(exprs, labels, budget) == \
                oracles.fixpoint_count(exprs, labels, budget), \
                (budget, [ex.render(e) for e in exprs])
        steps += any(True for _ in vf._substitutions(exprs, labels))
    assert steps > 100   # sets with a substitution step to stop at


def test_every_enumerated_view_goes_through_check_enumeration(monkeypatch):
    # NI and SNI (glitches off and on) at d=2 and 3 and the order-2 checks
    # in every mode decide each view from the fixpoint, and each view its
    # count leaves unproven is enumerated by check_enumeration at the
    # view's budget, None for the d-uplets: no space is built or walked
    # elsewhere
    decide, enumeration = vf.check_from_fixpoint, vf.check_enumeration
    space_for, first_leak = vf._space_for, vf._first_leak
    decided, enumerated, inside = [], [], []

    def recording_decide(exprs, labels, limit, budget):
        decided.append((exprs, labels, budget))
        return decide(exprs, labels, limit, budget)

    def recording_enumeration(exprs, labels, limit, budget):
        enumerated.append((exprs, labels, budget))
        inside.append(budget)
        try:
            return enumeration(exprs, labels, limit, budget)
        finally:
            inside.pop()

    def inner_space_for(symbols, labels, limit, budget):
        assert inside == [budget]
        return space_for(symbols, labels, limit, budget)

    def inner_first_leak(exprs, space):
        assert len(inside) == 1
        return first_leak(exprs, space)

    monkeypatch.setattr(vf, "check_from_fixpoint", recording_decide)
    monkeypatch.setattr(vf, "check_enumeration", recording_enumeration)
    monkeypatch.setattr(vf, "_space_for", inner_space_for)
    monkeypatch.setattr(vf, "_first_leak", inner_first_leak)
    for gen in (gadgets.gen_dom_and, gadgets.gen_isw_and):
        for order in (1, 2, 3):
            circuit, labels, stimuli, spec = gen(order)
            before = len(decided)
            for checker in (check_ni, check_sni):
                for glitches in (False, True):
                    checker(spec, max(order, 2), glitches)
            assert None not in {b for _, _, b in decided[before:]}
            before = len(decided)
            for mode in (mg.SPATIAL, mg.TEMPORAL, mg.MIXED):
                mg.verify_higher_order(circuit, stimuli, labels,
                                       mg.LeakageModel(order=2), mode)
            assert {b for _, _, b in decided[before:]} <= {None}
    assert enumerated == [
        (exprs, labels, budget) for exprs, labels, budget in decided
        if not vf._fixpoint_count(exprs, labels, budget).is_secure]
    assert {budget for _, _, budget in enumerated} == {None, 0, 1, 2, 3}


def test_a_set_proven_at_its_first_substitution_stops_there(three_shares,
                                                            monkeypatch):
    exprs = make_expr_set([xor(s("s2"), s("m")), s("s0"), s("s1")])
    scans, replaced = [], []
    replacement, substitute = vf._replacement, vf._substitute

    def counted_replacement(members, *args):
        scans.append(tuple(members))
        return replacement(members, *args)

    def counted_substitute(*args):
        sub = substitute(*args)
        if sub is not None:
            replaced.append(sub)
        return sub

    monkeypatch.setattr(vf, "_replacement", counted_replacement)
    monkeypatch.setattr(vf, "_substitute", counted_substitute)
    assert vf._fixpoint_count(exprs, three_shares, None).is_secure
    assert len(replaced) == 1
    assert scans == [exprs]   # the members are scanned for masks once
    # the run to the fixpoint scans them again, and finds no mask
    scans.clear()
    assert _fixpoint_left(exprs, three_shares) == {"s0", "s1"}
    assert len(scans) == 2


def test_check_tuples_counts_each_footprint_once_per_run(monkeypatch):
    # one walk has one budget rule: NI's, then SNI's
    _, labels, _, spec = gadgets.gen_dom_and(2)
    count = vf._share_count_proves
    for glitches in (False, True):
        probes = vf.collect_probes(spec, glitches)
        parts = [(vf.make_part(p.obs, labels),) for p in probes]
        for weights in _ni_and_sni_weights(probes):
            counted = collections.Counter()

            def counted_count(fp, labels, budget=None):
                counted[fp, budget] += 1
                return count(fp, labels, budget)

            monkeypatch.setattr(vf, "_share_count_proves", counted_count)
            res = vf.check_tuples(probes, (1, 2), parts, weights,
                                  lambda *_: vf.Verdict.secure(), labels)
            assert res.tuples_checked == res.tuple_count
            assert max(counted.values()) == 1
            # most tuples repeat a count
            assert res.tuple_count > 5 * len(counted)


@pytest.mark.parametrize("gen", [gadgets.gen_dom_and, gadgets.gen_isw_and])
def test_walk_decides_as_the_reference_walk(gen, monkeypatch):
    # each check_tuples call is run again by the reference walk: the
    # decide arguments, in order, and the result are the same
    circuit, labels, stimuli, spec = gen(2)
    walk, results = vf.check_tuples, []

    def both_walks(positions, sizes, parts, weights, decide, labels,
                   cap=None):
        runs = []
        for engine in (walk, oracles.check_tuples):
            decided = []

            def recording_decide(exprs, budget):
                decided.append((exprs, budget))
                return decide(exprs, budget)

            runs.append((engine(positions, sizes, parts, weights,
                                recording_decide, labels, cap), decided))
        assert runs[0] == runs[1]
        results.append(runs[0][0])
        return runs[0][0]

    monkeypatch.setattr(vf, "check_tuples", both_walks)
    for glitches in (False, True):
        vf.check_ni(spec, 2, glitches)
        vf.check_sni(spec, 2, glitches)
    for mode in (mg.SPATIAL, mg.TEMPORAL, mg.MIXED):
        mg.verify_higher_order(circuit, stimuli, labels,
                               mg.LeakageModel(order=2), mode)
    # the order-1 gadget at d=2 leaks: spatially and in (wire, cycle)
    # pairs without glitches, over cycles with glitches and transitions
    circuit, labels, stimuli, _ = gen(1)
    for mode, model in ((mg.SPATIAL, mg.LeakageModel(order=2)),
                        (mg.MIXED, mg.LeakageModel(order=2)),
                        (mg.TEMPORAL, mg.LeakageModel(
                            glitches=True, transitions=True, order=2))):
        mg.verify_higher_order(circuit, stimuli, labels, model, mode)
    assert len(results) == 10
    assert {r.verdict.status for r in results} == {vf.SECURE, vf.LEAKS}
    # leaks found before the last tuple
    assert sum(r.tuples_checked < r.tuple_count for r in results) >= 3
