"""Symbolic bit-vector expressions with hash-consing and canonical simplification.

Every expression is interned: building the same term twice returns the same
object, so structural equality is an ``is`` check and terms can be used as
dict keys at zero cost. Construction goes through :func:`build` (or the
convenience wrappers), which simplifies to a canonical fixpoint:

* constants fold; Boolean identities (x^x, x&0, x|1, ...) apply;
* XOR/AND/OR are flattened n-ary nodes with children in a fixed total order
  and at most one leading constant child;
* NOT, ZEXT and SEXT are rewritten into XOR/CONCAT form, and shifts by a
  constant amount into CONCAT/EXTRACT form, so canonical terms only ever use
  the operator set in :data:`CANONICAL_OPS`;
* EXTRACT pushes through CONCAT and the flattened bitwise operators.

Arithmetic operators (ADD, SUB, MUL, POW) only fold constants; they are kept
opaque otherwise. :func:`apply` is the one value rule of each operator:
constant folding, :func:`eval_concrete` and enumeration's column evaluator
all compute through it.
"""

from __future__ import annotations

import functools
import operator
import re
from typing import Iterable, Iterator, Mapping, Sequence

from .inputs import MAX_WIDTH, InputError, expect, field


class WidthError(TypeError):
    """Operator applied to children of incompatible widths."""


class UnboundSymbol(KeyError):
    """Concrete evaluation hit a symbol with no assigned value."""


# Operators that may appear in canonical (post-simplification) terms.
CANONICAL_OPS = frozenset({
    "XOR", "AND", "OR", "ADD", "SUB", "MUL", "POW",
    "LSL", "LSR", "ASR", "CONCAT", "EXTRACT", "ARRAY",
})

# Accepted by build() but normalised away.
REWRITTEN_OPS = frozenset({"NOT", "ZEXT", "SEXT"})

# The flattened n-ary bitwise operators, each with its two-operand function:
# every builder and evaluator folds their children with it.
CONNECTIVES = {"XOR": operator.xor, "AND": operator.and_, "OR": operator.or_}

# ADD, SUB and MUL: a column computes them whole and masks what wrapped; the
# INT_ONLY operators are computed row by row (int_rule).
_WRAPPING = {"ADD": operator.add, "SUB": operator.sub, "MUL": operator.mul}
INT_ONLY = frozenset({"POW", "LSL", "LSR", "ASR", "ARRAY"})

_COMMUTATIVE = frozenset({"XOR", "AND", "OR", "ADD", "MUL"})
_KIND_RANK = {"cst": 0, "sym": 1, "op": 2}


def mask(width: int) -> int:
    return (1 << width) - 1


class Expr:
    """An interned bit-vector term: constant, symbol, or operator node.

    Instances are immutable and unique per structure; never construct
    directly, use :func:`cst`, :func:`sym` or :func:`build`.
    """

    __slots__ = ("uid", "kind", "width", "op", "value", "name", "children",
                 "params", "_symbols", "_bits", "_render", "_occ",
                 "__weakref__")

    uid: int
    kind: str            # 'cst' | 'sym' | 'op'
    width: int
    op: str | None
    value: int | None
    name: str | None
    children: tuple["Expr", ...]
    params: tuple

    def __repr__(self) -> str:
        return f"<Expr {render(self)}>"

    def __hash__(self) -> int:
        return self.uid

    # Identity equality: interning guarantees structurally equal terms are
    # the same object.
    def __eq__(self, other) -> bool:
        return self is other

    @property
    def is_cst(self) -> bool:
        return self.kind == "cst"

    @property
    def sort_key(self) -> tuple[int, int]:
        return (_KIND_RANK[self.kind], self.uid)


_intern: dict[tuple, Expr] = {}
_next_uid = 0


def _make(kind: str, width: int, *, op: str | None = None, value: int | None = None,
          name: str | None = None, children: tuple[Expr, ...] = (),
          params: tuple = ()) -> Expr:
    if kind == "cst":
        key = ("cst", width, value)
    elif kind == "sym":
        key = ("sym", width, name)
    else:
        key = ("op", op, width, tuple(c.uid for c in children), params)
    node = _intern.get(key)
    if node is not None:
        return node
    global _next_uid
    node = object.__new__(Expr)
    node.uid = _next_uid
    _next_uid += 1
    node.kind = kind
    node.width = width
    node.op = op
    node.value = value
    node.name = name
    node.children = children
    node.params = params
    node._symbols = None
    node._bits = None
    node._render = None
    node._occ = None
    _intern[key] = node
    return node


def cst(value: int, width: int) -> Expr:
    if width < 1:
        raise WidthError(f"constant width must be >= 1, got {width}")
    return _make("cst", width, value=value & mask(width))


def sym(name: str, width: int) -> Expr:
    if width < 1:
        raise WidthError(f"symbol width must be >= 1, got {width}")
    return _make("sym", width, name=name)


def _sorted_children(children: list[Expr]) -> tuple[Expr, ...]:
    return tuple(sorted(children, key=lambda e: e.sort_key))


def build(op: str, children: Sequence[Expr], params: tuple = ()) -> Expr:
    """Build the canonically simplified, interned term ``op(children)``."""
    cs = list(children)
    if op == "NOT":
        _expect_arity(op, cs, 1)
        return build("XOR", [cs[0], cst(mask(cs[0].width), cs[0].width)])
    if op == "ZEXT":
        _expect_arity(op, cs, 1)
        (w,) = params
        return zext(cs[0], w)
    if op == "SEXT":
        _expect_arity(op, cs, 1)
        (w,) = params
        return sext(cs[0], w)
    if op in CONNECTIVES:
        _expect_arity(op, cs, None)
        return _build_bitwise(op, cs)
    if op in ("ADD", "SUB", "MUL", "POW"):
        _expect_arity(op, cs, 2)
        return _build_arith(op, cs[0], cs[1])
    if op in ("LSL", "LSR", "ASR"):
        _expect_arity(op, cs, 2)
        return _build_shift(op, cs[0], cs[1])
    if op == "CONCAT":
        return concat(cs)
    if op == "EXTRACT":
        _expect_arity(op, cs, 1)
        lo, hi = params
        return extract(cs[0], lo, hi)
    raise ValueError(f"unknown operator {op!r}")


def _expect_arity(op: str, cs: list[Expr], n: int | None) -> None:
    if n is not None and len(cs) != n:
        raise WidthError(f"{op} expects {n} children, got {len(cs)}")
    if n is None and len(cs) < 1:
        raise WidthError(f"{op} expects at least one child")


def _build_bitwise(op: str, children: list[Expr]) -> Expr:
    w = children[0].width
    for c in children:
        if c.width != w:
            raise WidthError(f"{op} children must share width {w}, got {c.width}")
    flat: list[Expr] = []
    stack = list(reversed(children))
    while stack:
        c = stack.pop()
        if c.kind == "op" and c.op == op:
            stack.extend(reversed(c.children))
        else:
            flat.append(c)

    full = mask(w)
    fold = CONNECTIVES[op]
    unit = full if op == "AND" else 0
    acc = unit
    count: dict[Expr, int] = {}   # in first-occurrence order
    for c in flat:
        if c.is_cst:
            acc = fold(acc, c.value)
        else:
            count[c] = count.get(c, 0) + 1
    # x ^ x cancels; x & x and x | x are x
    keep = [c for c, n in count.items() if n & 1] if op == "XOR" \
        else list(count)
    # the unit's complement absorbs: x & 0 is 0 and x | 1..1 is 1..1
    if not keep or (op != "XOR" and acc == full ^ unit):
        return cst(acc, w)
    if acc == unit and len(keep) == 1:
        return keep[0]
    if acc != unit:
        keep.append(cst(acc, w))
    return _make("op", w, op=op, children=_sorted_children(keep))


def _build_arith(op: str, a: Expr, b: Expr) -> Expr:
    if a.width != b.width:
        raise WidthError(f"{op} children must share width, got {a.width} vs {b.width}")
    w = a.width
    if a.is_cst and b.is_cst:
        return cst(apply(op, w, (), (a, b), [a.value, b.value]), w)
    if op == "ADD":
        if a.is_cst and a.value == 0:
            return b
        if b.is_cst and b.value == 0:
            return a
    elif op == "SUB":
        if b.is_cst and b.value == 0:
            return a
        if a is b:
            return cst(0, w)
    elif op == "MUL":
        for c, other in ((a, b), (b, a)):
            if c.is_cst:
                if c.value == 0:
                    return cst(0, w)
                if c.value == 1:
                    return other
    if op in _COMMUTATIVE:
        a, b = sorted((a, b), key=lambda e: e.sort_key)
    return _make("op", w, op=op, children=(a, b))


def _build_shift(op: str, value: Expr, amount: Expr) -> Expr:
    w = value.width
    if amount.is_cst:
        k = amount.value
        if k == 0:
            return value
        if op == "LSL":
            if k >= w:
                return cst(0, w)
            return concat([extract(value, 0, w - 1 - k), cst(0, k)])
        if op == "LSR":
            if k >= w:
                return cst(0, w)
            return concat([cst(0, k), extract(value, k, w - 1)])
        # ASR: shifted-in bits replicate the sign bit
        top = extract(value, w - 1, w - 1)
        if k >= w:
            return _replicate(top, w)
        return concat([_replicate(top, k), extract(value, k, w - 1)])
    if value.is_cst and value.value == 0:
        return cst(0, w)
    return _make("op", w, op=op, children=(value, amount))


def _replicate(bit_expr: Expr, count: int) -> Expr:
    if bit_expr.width != 1:
        raise WidthError("replication needs a 1-bit expression")
    return concat([bit_expr] * count)


def zext(e: Expr, width: int) -> Expr:
    if width < e.width:
        raise WidthError(f"zext target {width} narrower than {e.width}")
    if width == e.width:
        return e
    return concat([cst(0, width - e.width), e])


def sext(e: Expr, width: int) -> Expr:
    if width < e.width:
        raise WidthError(f"sext target {width} narrower than {e.width}")
    if width == e.width:
        return e
    top = extract(e, e.width - 1, e.width - 1)
    return concat([_replicate(top, width - e.width), e])


def concat(children: Sequence[Expr]) -> Expr:
    """CONCAT(hi, ..., lo); bit 0 of the result is bit 0 of the last child."""
    flat: list[Expr] = []
    for c in children:
        if c.kind == "op" and c.op == "CONCAT":
            flat.extend(c.children)
        else:
            flat.append(c)
    if not flat:
        raise WidthError("CONCAT needs at least one child")
    merged: list[Expr] = []
    for c in flat:
        if merged and merged[-1].is_cst and c.is_cst:
            prev = merged.pop()
            merged.append(cst((prev.value << c.width) | c.value, prev.width + c.width))
        else:
            merged.append(c)
    if len(merged) == 1:
        return merged[0]
    w = sum(c.width for c in merged)
    return _make("op", w, op="CONCAT", children=tuple(merged))


def extract(e: Expr, lo: int, hi: int) -> Expr:
    if not (0 <= lo <= hi < e.width):
        raise IndexError(f"extract [{lo}:{hi}] out of range for width {e.width}")
    if lo == 0 and hi == e.width - 1:
        return e
    if e.is_cst:
        return cst((e.value >> lo) & mask(hi - lo + 1), hi - lo + 1)
    if e.kind == "op":
        if e.op == "CONCAT":
            # Children run hi..lo; walk from the low end.
            pieces: list[Expr] = []
            off = 0
            for c in reversed(e.children):
                c_lo, c_hi = off, off + c.width - 1
                if c_hi >= lo and c_lo <= hi:
                    pieces.append(extract(c, max(lo, c_lo) - off, min(hi, c_hi) - off))
                off += c.width
            return concat(list(reversed(pieces)))
        if e.op == "EXTRACT":
            base_lo = e.params[0]
            return extract(e.children[0], base_lo + lo, base_lo + hi)
        if e.op in CONNECTIVES:
            return _build_bitwise(e.op, [extract(c, lo, hi) for c in e.children])
    return _make("op", hi - lo + 1, op="EXTRACT", children=(e,), params=(lo, hi))


def bit(e: Expr, i: int) -> Expr:
    """The simplified 1-bit projection of bit ``i``."""
    return extract(e, i, i)


def bits(e: Expr) -> tuple[Expr, ...]:
    """All 1-bit projections of ``e``, low rank first (cached)."""
    if e._bits is None:
        e._bits = tuple(extract(e, i, i) for i in range(e.width))
    return e._bits


def array_lookup(mem_id: str, index: Expr, width: int,
                 table: Sequence[int], version: int = 0) -> Expr:
    """Opaque symbolic read of ``mem_id``; untouched by simplification.

    Its params are ``(mem_id, version, table)``: the contents it read, after
    ``version`` changes of the memory. Reads of different contents are
    different terms.
    """
    return _make("op", width, op="ARRAY", children=(index,),
                 params=(mem_id, version, tuple(table)))


def symbols_of(e: Expr) -> frozenset[str]:
    if e._symbols is None:
        if e.kind == "sym":
            e._symbols = frozenset((e.name,))
        elif e.kind == "cst":
            e._symbols = frozenset()
        else:
            acc: frozenset[str] = frozenset()
            for c in e.children:
                acc |= symbols_of(c)
            e._symbols = acc
    return e._symbols


Assignment = Mapping[str, int]


def eval_concrete(e: Expr, assignment: Assignment,
                  _memo: dict | None = None) -> int:
    """Two's-complement bit-vector value of ``e`` under ``assignment``, by
    :func:`apply`; an ARRAY node reads its own table."""
    memo = {} if _memo is None else _memo
    v = memo.get(e)
    if v is not None:
        return v
    if e.kind == "cst":
        return e.value
    if e.kind == "sym":
        if e.name not in assignment:
            raise UnboundSymbol(e.name)
        return assignment[e.name] & mask(e.width)
    v = memo[e] = apply(e.op, e.width, e.params, e.children, [
        eval_concrete(c, assignment, memo) for c in e.children])
    return v


def apply(op: str, w: int, params: tuple, children: Sequence[Expr], kids):
    """The value of the ``w``-bit node ``op(children)`` from its children's
    values ``kids``: Python ints, or numpy columns of a type that holds the
    node's and its children's values. A column evaluator maps
    :func:`int_rule` over the columns of an ``INT_ONLY`` operator."""
    if op in CONNECTIVES:
        return functools.reduce(CONNECTIVES[op], kids)
    if op in _WRAPPING:
        return _WRAPPING[op](*kids) & mask(w)
    if op == "CONCAT":
        out = kids[0]
        for child, k in zip(children[1:], kids[1:]):
            out = (out << child.width) | k
        return out
    if op == "EXTRACT":
        lo, hi = params
        return (kids[0] >> lo) & mask(hi - lo + 1)
    return int_rule(op, w, params)(*kids)


def int_rule(op: str, w: int, params: tuple):
    """The per-row rule of the ``INT_ONLY`` operator ``op`` at width ``w``,
    chosen once per node: it takes one integer per child, numpy's included,
    and computes on Python ints."""
    if op == "POW":
        m = 1 << w
        return lambda a, b: pow(int(a), int(b), m)
    if op == "ARRAY":
        table, full = params[2], mask(w)
        depth = len(table)
        return lambda i: table[int(i) % depth] & full
    return lambda x, s: shift_value(op, int(x), int(s), w)   # LSL, LSR, ASR


def shift_value(op: str, x: int, s: int, w: int) -> int:
    if op == "LSL":
        return (x << s) & mask(w) if s < w else 0
    if op == "LSR":
        return x >> s if s < w else 0
    sign = (x >> (w - 1)) & 1
    if s >= w:
        return mask(w) if sign else 0
    out = x >> s
    if sign:
        out |= mask(w) & ~mask(w - s)
    return out


# ---------------------------------------------------------------------------
# Rendering and parsing
# ---------------------------------------------------------------------------

def render(e: Expr) -> str:
    """Stable prefix rendering, e.g. ``OP_XOR(SYMB(k), SYMB(m))``."""
    if e._render is None:
        if e.kind == "cst":
            e._render = f"CST(0b{e.value:0{e.width}b})"
        elif e.kind == "sym":
            e._render = f"SYMB({e.name})"
        elif e.op == "EXTRACT":
            lo, hi = e.params
            e._render = f"OP_EXTRACT({render(e.children[0])}, {lo}, {hi})"
        elif e.op == "ARRAY":
            mem_id, version, _ = e.params
            at = f"@{version}" if version else ""
            e._render = f"ARRAY({mem_id}{at}, {render(e.children[0])})"
        else:
            inner = ", ".join(render(c) for c in e.children)
            e._render = f"OP_{e.op}({inner})"
    return e._render


_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_.$']*|0b[01]+|\d+|[(),])|(\S))")


class _Parser:
    def __init__(self, text: str, widths: Mapping[str, int]):
        self.tokens = []
        for tok, bad in _TOKEN.findall(text):
            if bad:
                raise ValueError(f"unexpected character {bad!r}")
            self.tokens.append(tok)
        self.pos = 0
        self.widths = widths

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expect: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        if expect is not None and tok != expect:
            raise ValueError(f"expected {expect!r}, got {tok!r}")
        self.pos += 1
        return tok

    def parse(self) -> Expr:
        e = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing tokens at {self.peek()!r}")
        return e

    def expr(self) -> Expr:
        tok = self.take()
        if tok == "CST":
            self.take("(")
            lit = self.take()
            self.take(")")
            if not lit.startswith("0b"):
                raise ValueError(f"CST literal must be 0b…, got {lit!r}")
            return cst(int(lit, 2), len(lit) - 2)
        if tok == "SYMB":
            self.take("(")
            name = self.take()
            self.take(")")
            return self.symbol(name)
        op = tok[3:] if tok.startswith("OP_") else tok
        if op == "ARRAY":
            raise ValueError("table reads (ARRAY) cannot be parsed")
        if op in CANONICAL_OPS or op in REWRITTEN_OPS:
            return self.op_node(op)
        # Bare name: symbol shorthand.
        return self.symbol(tok)

    def symbol(self, name: str) -> Expr:
        if name not in self.widths:
            raise ValueError(f"undeclared symbol {name!r}")
        return sym(name, self.widths[name])

    def op_node(self, op: str) -> Expr:
        self.take("(")
        args: list = []
        while True:
            if self.peek() == ")":
                break
            tok = self.peek()
            if tok is not None and (tok.isdigit()):
                args.append(int(self.take()))
            else:
                args.append(self.expr())
            if self.peek() == ",":
                self.take(",")
            else:
                break
        self.take(")")
        exprs = [a for a in args if isinstance(a, Expr)]
        ints = [a for a in args if isinstance(a, int)]
        if op == "EXTRACT":
            if len(exprs) != 1 or len(ints) != 2:
                raise ValueError("EXTRACT(expr, lo, hi)")
            return extract(exprs[0], ints[0], ints[1])
        if op in ("ZEXT", "SEXT"):
            if len(exprs) != 1 or len(ints) != 1:
                raise ValueError(f"{op}(expr, width)")
            if ints[0] > MAX_WIDTH:
                raise ValueError(f"{op} width: expected at most {MAX_WIDTH}, "
                                 f"got {ints[0]}")
            return build(op, exprs, (ints[0],))
        if ints:
            raise ValueError(f"unexpected integer argument for {op}")
        return build(op, exprs)


def parse_expr(text: str, widths: Mapping[str, int]) -> Expr:
    """Parse the rendered prefix form back into an interned term.

    Accepts ``OP_``-prefixed or bare operator names and bare symbol names
    whose widths are taken from ``widths``. Table reads cannot be parsed:
    an ``ARRAY`` node names no memory contents, so ``ARRAY`` raises
    ValueError; :func:`array_lookup` is its only constructor.
    """
    return _Parser(text, widths).parse()


# ---------------------------------------------------------------------------
# Symbol tables
# ---------------------------------------------------------------------------

SECRET = "secret"
MASK = "mask"
PUBLIC = "public"
SHARE = "share"
_KINDS = (SECRET, MASK, PUBLIC, SHARE)


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.$']*\Z")


class SymbolTable:
    """Maps symbol names to (width, kind) with share-of-secret bookkeeping."""

    def __init__(self) -> None:
        self._info: dict[str, tuple[int, str, str | None, int | None]] = {}
        self._shares: dict[str, tuple[str, ...]] = {}   # by share index
        self._footprints = None   # built by _share_footprints

    def declare(self, name: str, width: int, kind: str,
                secret: str | None = None, index: int | None = None) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown symbol kind {kind!r}")
        if not _NAME.match(name):
            raise ValueError(f"symbol name {name!r} is not an identifier")
        if kind == SHARE:
            if secret is None or index is None:
                raise ValueError(f"share {name!r} needs a secret name and index")
            for other in self._shares.get(secret, ()):
                if self._info[other][3] == index:
                    raise ValueError(
                        f"share index {index} of {secret!r} declared twice "
                        f"({other!r} and {name!r})")
        if name in self._info and self._info[name] != (width, kind, secret, index):
            raise ValueError(f"conflicting redeclaration of {name!r}")
        self._info[name] = (width, kind, secret, index)
        self._footprints = None
        if kind == SHARE:
            self._shares[secret] = tuple(sorted(
                self._shares.get(secret, ()) + (name,),
                key=lambda n: self._info[n][3]))

    def __contains__(self, name: str) -> bool:
        return name in self._info

    def __iter__(self) -> Iterator[str]:
        return iter(self._info)

    def width(self, name: str) -> int:
        return self._info[name][0]

    def kind(self, name: str) -> str:
        return self._info[name][1]

    def share_parent(self, name: str) -> tuple[str, int]:
        info = self._info[name]
        if info[1] != SHARE:
            raise ValueError(f"{name!r} is not a share")
        return info[2], info[3]

    def shares_of(self, secret: str) -> list[str]:
        """Share names of one secret, ordered by share index."""
        return list(self._shares.get(secret, ()))

    def sharings(self) -> Iterable[tuple[str, ...]]:
        """Each secret's share names, ordered by share index."""
        return self._shares.values()

    def _share_footprints(self) -> tuple[dict[str, int], list[int], int,
                                         frozenset[str]]:
        """Each symbol's share footprint, the owner of each footprint bit,
        the "secret seen" bit and the mask names, cached until the next
        declaration. Every share has a bit of its own; a share sets its bit,
        a secret the secret bit and all of its shares' bits, a mask or a
        public no bit. ``owner[i]`` holds the bits of the sharing that holds
        bit ``i`` (0 for the secret bit, which no sharing holds), so a count
        reads only the sharings a footprint touches. Every declared name is
        a key of the footprints."""
        if self._footprints is None:
            seen = 1
            bits: dict[str, int] = {}
            owner = [0]
            for shares in self._shares.values():
                for share in shares:
                    bits[share] = 1 << (len(bits) + 1)
                owner += [sum(bits[s] for s in shares)] * len(shares)
            for name, (_, kind, _, _) in self._info.items():
                if kind == SECRET:
                    bits[name] = seen | sum(
                        bits[s] for s in self._shares.get(name, ()))
                elif kind != SHARE:
                    bits[name] = 0
            masks = frozenset(name for name, info in self._info.items()
                              if info[1] == MASK)
            self._footprints = bits, owner, seen, masks
        return self._footprints

    def widths(self) -> dict[str, int]:
        return {name: info[0] for name, info in self._info.items()}

    def is_sensitive(self, name: str) -> bool:
        return self._info[name][1] in (SECRET, SHARE)

    @classmethod
    def from_json(cls, doc: Mapping) -> "SymbolTable":
        """Read a labels document. Each share must name a declared secret of
        its own width; a malformed entry raises ``InputError`` naming it."""
        table = cls()
        shares = []
        symbols = field(expect(doc, "labels", dict), "", "symbols", list,
                        default=[])
        for i, entry in enumerate(symbols):
            where = f"symbols[{i}]"
            name = field(entry, where, "name", str)
            width = field(entry, where, "width", int, 1, maximum=MAX_WIDTH)
            kind = field(entry, where, "kind", str)
            secret = index = None
            if kind == SHARE:
                secret = field(entry, where, "secret", str)
                index = field(entry, where, "index", int, 0)
                shares.append((where, width, secret))
            try:
                table.declare(name, width, kind, secret, index)
            except ValueError as exc:
                raise InputError(f"{where}: {exc}") from None
        for where, width, secret in shares:
            if secret not in table or table.kind(secret) != SECRET:
                raise InputError(
                    f"{where}.secret: {secret!r} is not a declared secret")
            if table.width(secret) != width:
                raise InputError(f"{where}.width: {width} differs from the "
                                 f"width of secret {secret!r}")
        return table

    def to_json(self) -> dict:
        out = []
        for name, (width, kind, secret, index) in sorted(self._info.items()):
            entry: dict = {"name": name, "width": width, "kind": kind}
            if kind == SHARE:
                entry["secret"] = secret
                entry["index"] = index
            out.append(entry)
        return {"symbols": out}


def format_bits(value: int, width: int) -> str:
    return f"0b{value & mask(width):0{width}b}"

