"""Statistical-independence checking of expression sets against labeled secrets.

A set (is it independent of the secrets?) and a probe tuple (can a
simulator with a budget of each secret's shares reproduce it?) climb one
ladder whose one parameter is that budget, None for independence; the
first step that decides wins:

1. :func:`_share_count_proves` on the share footprint of the members'
   symbols: with no budget, no secret and a proper subset of each sharing;
   else at most the budget of each sharing, a secret counting as all of
   its shares. :func:`check_tuples` counts each view of a probe tuple on
   the union of its parts' footprints: each position's footprints, one per
   view, are packed into one int, so a tuple's OR holds all of its views'
   unions, and the views a distinct OR and budget leave unproven are found
   once per run, each distinct footprint counted once. A view the count
   proves never becomes a set.
2. The same count after each step of :func:`_substitutions`. A mask whose
   single use sits under an XOR node (reachable from a member root through
   XOR/CONCAT/extraction context only) makes that XOR subterm uniform, so
   it is replaced by a fresh mask, one per step. A step only removes
   symbols, so the first step after which the count proves decides, as
   the count on what the whole fixpoint leaves would. Sound, never
   complete.
3. :func:`check_enumeration`, exact and witness-producing, over the space
   and selections :func:`_space_for` builds for the budget; past the bit
   limit it raises TooLarge. Shares are tied to their parent secret by
   Boolean resharing (the top-index share equals the secret XOR the
   others), or free for simulatability, where a secret is the XOR of all
   of its shares.

Every enumeration question is a list of (fixed, vary) selections of base
fields, each invariant iff, for each value of the fixed fields, the joint
distribution of the members is the same for every vary value; the first
invariant selection proves the question. Independence has one selection,
the publics fixed and the secrets varied; simulatability one per choice of
its budget of shares, fixed, with the other shares varied and the publics
marginalised. Each selection lays the fields out with its fixed fields on
the top bits of the row index and its vary fields right below them, each
with the first most significant (:class:`_Space`), so each fixed value is
one contiguous run of rows, the vary value is one row field, and one range
walk (:func:`_first_leak`) decides it.

Columns are narrow: a symbol's or a term's values are held in the
smallest of uint8, uint16 and int64 that its width fits (:func:`_dtype`),
as Python ints past 31 bits. One :class:`_Rows` holds the columns of one
span of rows (a range, or a block of one), each built over all of them
when first read: a symbol's from the row indices, a term's by
:func:`expr.apply`, the value rule that constant folding and
:func:`expr.eval_concrete` use too, and an ``INT_ONLY`` operator's by its
:func:`expr.int_rule` row by row. The fixed values are walked in key
order, one range at a time, one block of ``_BLOCK_ROWS`` rows or one
fixed value, whichever is larger, and the first range that leaks decides.
Each range is decided by one call of a counting kernel
(:func:`_first_bad_group`): the fixed fields' bits that vary over the
range, then the members, form the group key (:func:`_key_parts`), the vary
fields' row field the vary key. A selection is invariant iff each group's
rows are spread alike over the vary values, and a leak's witness is the
first group in key order that is not. The kernel finds the range's first
group block by block (:func:`_first_group`), part by part over the whole
block, and counts it as it goes; a block whose key already exceeds the
least so far is left. A range of one block is read on its own columns; a
larger one lies in one fixed value, so its blocks are keyed by the members
alone, and a leak decided there holds at most one block of any column.
Every member's column over all of the range's rows is evaluated, and the
whole keys are packed into int64 by :func:`_pack` and sorted, only when
that group is even.

:func:`check_substitution` is steps 1 and 2 for both questions.
:func:`check` runs steps 1 and 2, then 3; a set past the bit limit is
Inconclusive, a potential false positive, and so is a probe tuple that
neither count proves. The sets of probe-tuple views, which step 1 has
failed on in :func:`check_tuples`, start at step 2: :func:`check_from_fixpoint`
decides every view, NI/SNI and higher-order alike. Tuples are drawn from
symbolic values (or flattened LeakSets when glitches are modelled).
:func:`check_tuples` is the one probe-tuple engine: NI/SNI and the
higher-order d-uplet checks name their positions, each position's part in
each view and its weight in a view's budget, and how to decide a view's
set, and it counts, builds, memoises and decides every view.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import expr as ex
from . import netlist as nl
from . import sim as sm
from .expr import Expr, SymbolTable, mask, render, symbols_of
from .sim import Stimuli

DEFAULT_ENUM_LIMIT = 20


class TooLarge(Exception):
    def __init__(self, bits: int, limit: int):
        super().__init__(f"enumeration needs {bits} symbolic bits, limit is {limit}")
        self.bits, self.limit = bits, limit


class TooMany(Exception):
    def __init__(self, count: int, limit: int):
        super().__init__(f"{count} tuples exceed the cap of {limit}")
        self.count, self.limit = count, limit


def make_expr_set(exprs: Iterable[Expr]) -> tuple[Expr, ...]:
    """The canonical order-independent members of ``exprs``: distinct,
    constants removed, sorted by rendering."""
    keep = {e for e in exprs if not e.is_cst}
    return tuple(sorted(keep, key=render))


@dataclass(frozen=True)
class LeakWitness:
    vary_a: dict[str, int]      # two distinguishing assignments (secrets, or
    vary_b: dict[str, int]      # non-simulatable shares for NI/SNI)
    fixed: dict[str, int]       # public / selected-share context
    evidence: str

    def to_json(self) -> dict:
        return {
            "assignment_a": {k: v for k, v in sorted(self.vary_a.items())},
            "assignment_b": {k: v for k, v in sorted(self.vary_b.items())},
            "fixed": {k: v for k, v in sorted(self.fixed.items())},
            "evidence": self.evidence,
        }


SECURE = "secure"
LEAKS = "leaks"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    status: str
    witness: LeakWitness | None = None
    reason: str | None = None

    @property
    def is_secure(self) -> bool:
        return self.status == SECURE

    @staticmethod
    def secure() -> "Verdict":
        return _SECURE_VERDICT   # shared: memos hold one per secure tuple

    @staticmethod
    def leaks(witness: LeakWitness) -> "Verdict":
        return Verdict(LEAKS, witness=witness)

    @staticmethod
    def inconclusive(reason: str) -> "Verdict":
        return Verdict(INCONCLUSIVE, reason=reason)


_SECURE_VERDICT = Verdict(SECURE)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

_CONTEXT_OPS = frozenset({"XOR", "CONCAT", "EXTRACT"})
_RANGE_CAP = 6   # per-symbol occurrence lists saturate past this


def _occurrence_ranges(e: Expr) -> dict[str, list[tuple[int, int]]]:
    """Bit ranges at which each symbol occurs in the tree expansion of ``e``
    (cached on the term).

    An occurrence under a direct EXTRACT uses the extracted range; anything
    else uses the full symbol width. Lists saturate at ``_RANGE_CAP``.
    """
    if e._occ is None:
        out: dict[str, list[tuple[int, int]]] = {}
        if e.kind == "sym":
            out[e.name] = [(0, e.width - 1)]
        elif e.kind == "op":
            if e.op == "EXTRACT" and e.children[0].kind == "sym":
                out[e.children[0].name] = [e.params]
            else:
                for c in e.children:
                    for name, ranges in _occurrence_ranges(c).items():
                        bucket = out.setdefault(name, [])
                        room = _RANGE_CAP + 1 - len(bucket)
                        if room > 0:
                            bucket.extend(ranges[:room])
        e._occ = out
    return e._occ


def _overlaps(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


def _is_atom_of(node: Expr, name: str) -> tuple[int, int] | None:
    if node.kind == "sym" and node.name == name:
        return (0, node.width - 1)
    if node.kind == "op" and node.op == "EXTRACT" \
            and node.children[0].kind == "sym" and node.children[0].name == name:
        return node.params
    return None


def _substitute(e: Expr, name: str, rng: tuple[int, int],
                fresh: Expr) -> Expr | None:
    """Replace the XOR node holding the (name, rng) atom by ``fresh``."""
    if e.kind != "op":
        return None
    if e.op == "XOR":
        for c in e.children:
            if _is_atom_of(c, name) == rng:
                return fresh   # the whole XOR chain is uniform in the atom
    if e.op not in _CONTEXT_OPS:
        return None
    for pos, c in enumerate(e.children):
        sub = _substitute(c, name, rng, fresh)
        if sub is not None:
            kids = list(e.children)
            kids[pos] = sub
            return ex.build(e.op, kids, e.params)
    return None


def _replacement(members: Sequence[Expr], masks: frozenset[str],
                 fresh_n: int) -> tuple[int, Expr] | None:
    """The first bijective-mask replacement in ``members``: the first mask
    range, in name then occurrence order, that overlaps no other occurrence
    of its mask, at the first member that holds it under an XOR node, which
    becomes the fresh mask ``$sub{fresh_n}``. Returns the member's index
    and its replacement, or None when no mask is left to replace."""
    occ: dict[str, list[tuple[int, int]]] = {}
    for m in members:
        for name, ranges in _occurrence_ranges(m).items():
            if name in masks:
                occ.setdefault(name, []).extend(ranges)
    for name in sorted(occ):
        ranges = occ[name]
        if len(ranges) > _RANGE_CAP:
            continue
        for rng in ranges:
            if len(ranges) > 1 and \
                    sum(_overlaps(rng, o) for o in ranges) != 1:
                continue
            fresh = ex.sym(f"$sub{fresh_n}", rng[1] - rng[0] + 1)
            for idx, m in enumerate(members):
                if name in _occurrence_ranges(m):   # else it holds no atom
                    sub = _substitute(m, name, rng, fresh)
                    if sub is not None:
                        return idx, sub
    return None


def _substitutions(exprs: Sequence[Expr],
                   labels: SymbolTable) -> Iterator[list[Expr]]:
    """The members after each bijective-mask replacement, until none is
    left (the substitution fixpoint); the list yielded is updated in place.
    Each replacement keeps the members' joint distribution for every
    assignment of the other symbols, and removes labeled symbols only: the
    one symbol it adds is its fresh mask ``$subN``, which no label can be.

    Only the labeled masks are scanned: a fresh mask is never replaced. It
    takes the place of a whole XOR node, whose parent is a CONCAT or a
    member root (XOR is flattened, and EXTRACT is pushed below XOR and
    CONCAT), so it is never an XOR operand, nor the extraction of one."""
    masks = frozenset().union(*map(symbols_of, exprs)) \
        & labels._share_footprints()[3]
    members = list(exprs)
    fresh_n = 0
    while (step := _replacement(members, masks, fresh_n)) is not None:
        idx, members[idx] = step
        fresh_n += 1
        yield members


def _labeled(exprs: Iterable[Expr], labels: SymbolTable) -> set[str]:
    """The labeled symbols of ``exprs``."""
    return frozenset().union(*map(symbols_of, exprs)) \
        & labels._share_footprints()[0].keys()


def _symbols(exprs: Iterable[Expr], labels: SymbolTable) -> set[str]:
    """The symbols of ``exprs``; KeyError if one is not labeled."""
    symbols: set[str] = set()
    for e in exprs:
        symbols |= symbols_of(e)
    unlabeled = [n for n in symbols if n not in labels]
    if unlabeled:
        raise KeyError(f"symbol {min(unlabeled)!r} is not labeled")
    return symbols


def _footprint(symbols: Iterable[str], labels: SymbolTable) -> int:
    """The union of the share footprints of labeled ``symbols``."""
    bits = labels._share_footprints()[0]
    fp = 0
    for name in symbols:
        fp |= bits[name]
    return fp


def _share_count_proves(fp: int, labels: SymbolTable,
                        budget: int | None = None) -> bool:
    """The share count on a footprint: at most ``budget`` shares of each
    sharing, a secret counting as all of its shares, or, with no budget, no
    secret and a proper subset of each sharing, which is uniform and
    independent of its secret. Only the sharings ``fp`` touches are read,
    from its highest bit down."""
    _, owner, secret, _ = labels._share_footprints()
    if fp & secret:
        if budget is None:
            return False
        fp &= ~secret
    while fp:
        shares = owner[fp.bit_length() - 1]
        if (fp & shares).bit_count() > \
                (shares.bit_count() - 1 if budget is None else budget):
            return False
        fp &= ~shares
    return True


def check_substitution(exprs: tuple[Expr, ...], labels: SymbolTable,
                       budget: int | None = None) -> Verdict:
    """Prove independence, or with a ``budget`` simulatability, by a share
    count on the members' symbols or, that failing, on those left after
    iterated bijective-mask replacement."""
    # the fixpoint leaves a subset of the symbols: the first count is a
    # fast path that skips the fixpoint for most sets
    if _share_count_proves(_footprint(_symbols(exprs, labels), labels),
                           labels, budget):
        return Verdict.secure()
    return _fixpoint_count(exprs, labels, budget)


def _fixpoint_count(exprs: tuple[Expr, ...], labels: SymbolTable,
                    budget: int | None) -> Verdict:
    """The share count on the labeled symbols left after each step of the
    substitution fixpoint (:func:`_substitutions`), Secure at the first
    step it proves, for a set whose count on its own symbols has failed. A
    step only removes labeled symbols, so this is the count on the symbols
    the whole fixpoint leaves: it proves all that a count on those would."""
    members: Sequence[Expr] = exprs
    for members in _substitutions(exprs, labels):
        if _share_count_proves(_footprint(_labeled(members, labels), labels),
                               labels, budget):
            return Verdict.secure()
    sensitive = sorted(n for n in _labeled(members, labels)
                       if labels.is_sensitive(n))
    return Verdict.inconclusive(
        "substitution left sensitive symbols: " + ", ".join(sensitive))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

_INT64_WIDTH = 31   # int64 holds products and sums of values this wide
_U8, _U16, _I64, _OBJECT = map(np.dtype, (np.uint8, np.uint16, np.int64,
                                          object))


def _dtype(width: int) -> np.dtype:
    """The column type of ``width``-bit values: the narrowest of uint8,
    uint16 and int64 that holds them, Python ints past ``_INT64_WIDTH``."""
    if width <= 8:
        return _U8
    if width <= 16:
        return _U16
    return _I64 if width <= _INT64_WIDTH else _OBJECT


def _field(off: int, width: int, start: int, stop: int) -> np.ndarray:
    """Rows ``[start, stop)`` of the bit field ``(row >> off) & mask(width)``,
    in the type of its width: each value is made once per run of ``2^off``
    rows and repeated, so no row index is built, and up to 16 bits the
    values are cut from repeats of one cycle of the field, so no int64
    temporary is built either."""
    first, last = start >> off, -(-stop >> off)
    if width <= 16:
        # repeats of one cycle of the field's values, cut from first's
        lo, n = first & mask(width), last - first
        cycle = np.arange(1 << width, dtype=_dtype(width))
        values = cycle[None].repeat(-(-(lo + n) >> width), 0).reshape(-1)[
            lo:lo + n]
    else:
        values = np.arange(first, last)
        values &= mask(width)
        values = values.astype(_dtype(width), copy=False)
    run = 1 << off
    if not (start | stop) & (run - 1):
        return values.repeat(run) if off else values
    # the rows cut a run (a fixed field above a range's or a block's
    # rows): each value is repeated only over its run's rows among them
    edges = np.clip(np.arange(first, last + 1) << off, start, stop)
    return values.repeat(np.diff(edges))


@dataclass
class _Space:
    """Cartesian assignment space over base fields, with derived symbols,
    each the XOR of its parts, and one selection of the fields: the layout
    of the row index, whose columns :class:`_Rows` builds. From the low
    bits up it holds the other fields, in the order of ``widths``, then the
    ``vary`` fields, then the ``fixed`` fields, each of the last two with
    its first name most significant."""
    widths: dict[str, int]               # base fields
    derived: dict[str, list[str]]        # name -> XOR parts
    fixed: Sequence[str] = ()
    vary: Sequence[str] = ()
    offsets: dict[str, int] = field(init=False)
    total_bits: int = field(init=False)
    vary_low: int = field(init=False)    # the vary fields' lowest row bit
    low: int = field(init=False)         # the fixed fields' lowest row bit

    def __post_init__(self):
        selected = {*self.fixed, *self.vary}
        order = [n for n in self.widths if n not in selected]
        order += [*reversed(self.vary), *reversed(self.fixed)]
        ends = [0, *itertools.accumulate(map(self.widths.__getitem__, order))]
        self.offsets = dict(zip(order, ends))
        self.total_bits = ends[-1]
        self.vary_low = ends[len(order) - len(selected)]
        self.low = ends[len(order) - len(self.fixed)]

    @property
    def size(self) -> int:
        return 1 << self.total_bits

    def decode(self, row: int, names: Sequence[str]) -> dict[str, int]:
        """The values of the base fields ``names`` at the row index ``row``."""
        return {name: (row >> self.offsets[name]) & mask(self.widths[name])
                for name in names}


class _Rows(dict):
    """The columns of the rows ``[start, stop)`` of ``space``, a range or a
    block of one: a base or derived field by name, a term by node, each
    built over every row on first read in the narrow type :func:`_dtype`
    gives its width. A derived field is the XOR of its parts."""

    def __init__(self, space: _Space, start: int, stop: int):
        super().__init__()
        self.space, self.start, self.stop = space, start, stop
        self.n = stop - start

    def __missing__(self, key: str | Expr) -> np.ndarray:
        space = self.space
        if not isinstance(key, str):
            col = self[key.name] if key.kind == "sym" else self._term(key)
        elif key in space.derived:
            col = functools.reduce(operator.xor,
                                   map(self.__getitem__, space.derived[key]))
        else:
            col = _field(space.offsets[key], space.widths[key], self.start,
                         self.stop)
        self[key] = col
        return col

    def _term(self, e: Expr) -> np.ndarray:
        """The column of a constant or an operator node ``e``, the latter
        from its children's."""
        if e.kind == "cst":
            return np.full(self.n, e.value, dtype=_dtype(e.width))
        op, w = e.op, e.width
        # compute in the type of the widest of the node and its children
        # (Python ints past int64): a sum or a product wraps modulo its
        # size, which the mask to w, no wider, leaves exact
        wide = _dtype(max(w, *(c.width for c in e.children)))
        kids = [col.astype(wide, copy=False)
                for col in map(self.__getitem__, e.children)]
        if op in ex.INT_ONLY:
            out = np.frompyfunc(ex.int_rule(op, w, e.params), len(kids), 1)(*kids)
        else:
            out = ex.apply(op, w, e.params, e.children, kids)
        return out.astype(_dtype(w), copy=False)

    def vary_key(self) -> np.ndarray:
        """The vary key: the vary fields, the first most significant, read
        as the one row field they span."""
        space = self.space
        return _field(space.vary_low, space.low - space.vary_low, self.start,
                      self.stop)


def _space_for(symbols: Iterable[str], labels: SymbolTable, limit: int,
               budget: int | None) -> Iterator[_Space]:
    """The enumeration space of labeled ``symbols``, laid out for each
    selection of the question ``budget`` asks; TooLarge past ``limit``
    bits, the one bit count of the module, before the first selection.

    With no budget, independence: shares are tied, the top one derived
    from its secret and siblings, and the one selection fixes the publics
    against the secrets. With a budget, simulatability: every share is a
    base variable, a secret is derived as the XOR of all of its shares,
    and each choice of ``budget`` shares of each secret is fixed in turn
    against its other shares; the simulator draws the publics too, so
    they are not conditioned on."""
    free = budget is not None
    base: list[tuple[str, int]] = []
    derived: dict[str, list[str]] = {}
    secrets: list[str] = []
    publics: list[str] = []
    seen: set[str] = set()

    def add(name: str, width: int):
        if name not in seen:
            seen.add(name)
            base.append((name, width))

    for name in sorted(symbols):
        kind = labels.kind(name)
        if kind == ex.SECRET and free:
            derived[name] = labels.shares_of(name)
            if not derived[name]:
                raise ValueError(f"secret {name!r} has no shares to simulate")
            for share in derived[name]:
                add(share, labels.width(share))
            continue
        if kind != ex.SHARE or free:   # a base variable
            add(name, labels.width(name))
            if kind == ex.PUBLIC:
                publics.append(name)
            elif kind == ex.SECRET:
                secrets.append(name)
            continue
        # a share tied to its parent secret: the top one is derived
        parent, _ = labels.share_parent(name)
        siblings = labels.shares_of(parent)
        top = siblings[-1]
        if name != top:
            add(name, labels.width(name))
            continue
        if parent not in labels:
            raise KeyError(f"share {name!r} references undeclared secret "
                           f"{parent!r}")
        if parent not in seen:
            add(parent, labels.width(parent))
            secrets.append(parent)
        others = [s for s in siblings if s != top]
        for o in others:
            add(o, labels.width(o))
        derived[name] = [parent, *others]

    bits = sum(w for _, w in base)
    if bits > limit:
        raise TooLarge(bits, limit)
    widths = dict(base)
    if not free:
        yield _Space(widths, derived, publics, sorted(set(secrets)))
        return
    # the space holds the shares observed and all shares of each secret
    parents = sorted({labels.share_parent(n)[0] for n in widths
                      if labels.kind(n) == ex.SHARE})
    present = [[s for s in labels.shares_of(p) if s in widths]
               for p in parents]
    choices = [itertools.combinations(shares, min(budget, len(shares)))
               for shares in present]
    for selection in itertools.product(*choices):
        fixed = sorted(n for combo in selection for n in combo)
        vary = sorted(n for shares in present for n in shares
                      if n not in fixed)
        yield _Space(widths, derived, fixed, vary)


def _dense(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """Order-preserving dense ids of ``arr`` and their count (one sort)."""
    values, inverse = np.unique(arr, return_inverse=True)
    return inverse.reshape(-1).astype(np.int64, copy=False), len(values)


_COMPOSE_CAP = 1 << 62


def _pack(parts: Sequence[tuple[np.ndarray, int | None]]) -> tuple[np.ndarray, int]:
    """Order-preserving int64 key of the tuple of columns, first part most
    significant, and its exclusive bound; each part is (column, value bound),
    the bound None for members too wide for int64.

    Only wide members are densified up front, and the running key only when
    its bound would overflow, so packing base variables never sorts.
    """
    key, bound = None, 1
    for col, b in parts:
        if b is None:
            col, b = _dense(col)
        if bound * b >= _COMPOSE_CAP:
            key, bound = _dense(key)
            if bound * b >= _COMPOSE_CAP:   # degenerate: huge single column
                col, b = _dense(col)
        if key is None:
            key = col.astype(np.int64)   # a copy: the key is updated in place
        else:
            key *= b
            key += col   # a narrow column is widened as it is added
        bound *= b
    return key, bound


def _key_parts(exprs: Sequence[Expr],
               rows: _Rows) -> Iterator[tuple[np.ndarray, int | None]]:
    """The group key of ``rows``, part by part as :func:`_pack` takes it,
    each column built when its part is drawn: the fixed fields' bits that
    vary over the rows, as one row field, then the members ``exprs``."""
    low = rows.space.low
    lead = rows.n.bit_length() - 1 - low
    if lead > 0:
        yield _field(low, lead, rows.start, rows.stop), 1 << lead
    for e in exprs:
        yield rows[e], (1 << e.width) if e.width <= _INT64_WIDTH else None


_BLOCK_ROWS = 1 << 14   # a block: the rows a range walk reads at a time


def _least(col: np.ndarray, pos: np.ndarray | None):
    """The positions among ``pos`` (None: every row) at which ``col`` holds
    its least value there, and that value."""
    sub = col if pos is None else col[pos]
    least = sub.min()
    hit = sub == least
    return (hit.nonzero()[0] if pos is None else pos[hit]), least


def _first_group(exprs: Sequence[Expr],
                 rows: _Rows) -> tuple[int, np.ndarray, list]:
    """The first group in key order of the range ``rows``: its row index,
    its row count per vary value and its key. A range of one block is read
    on its own columns, which its even path shares; a larger one lies in
    one fixed value, and is read one block of ``_BLOCK_ROWS`` rows at a
    time, so no column is read over more than one block. Part by part
    (:func:`_key_parts`), each block keeps the rows that hold the part's
    least value among the rows still in, and is left as soon as its key
    exceeds the least so far; else it counts the vary values at its
    group's rows: a smaller key replaces the counts, an equal one adds to
    them."""
    blocks = [rows] if rows.n <= _BLOCK_ROWS else (
        _Rows(rows.space, start, start + _BLOCK_ROWS)
        for start in range(rows.start, rows.stop, _BLOCK_ROWS))
    n_vary = 1 << rows.space.low - rows.space.vary_low
    least = row = counts = None
    for block in blocks:
        key, pos = [], None
        for col, _ in _key_parts(exprs, block):
            pos, value = _least(col, pos)
            key.append(value)
            if least is not None and key > least[:len(key)]:
                break
        else:
            here = np.bincount(block.vary_key()[pos], minlength=n_vary)
            if least is None or key < least:
                least, row, counts = key, block.start + int(pos[0]), here
            else:
                counts += here
    return row, counts, least


def _first_bad_group(exprs: Sequence[Expr],
                     rows: _Rows) -> tuple[int, np.ndarray, list] | None:
    """The counting kernel: the first group of the range ``rows``, in key
    order, whose rows are not spread evenly over the values of the vary
    key. The group key is the fixed fields, then the members ``exprs``
    (:func:`_key_parts`).

    Returns the group's first row index, its row count per vary value and
    its member values, or None when every group is invariant.
    The first group (:func:`_first_group`) is counted first: if it is
    uneven, it is the first bad group, and no column is built over more
    than one block. Else the whole key over the range is packed once and
    counted (:func:`_bad_group`), and the member values are read from its
    columns."""
    row, counts, key = _first_group(exprs, rows)
    if (counts != counts[0]).any():
        return row, counts, key[len(key) - len(exprs):]
    groups, n_groups = _pack(list(_key_parts(exprs, rows)))
    bad = _bad_group(groups, n_groups, rows.vary_key(), len(counts))
    if bad is None:
        return None
    row, counts = bad
    return rows.start + row, counts, [rows[e][row] for e in exprs]


def _bad_group(groups: np.ndarray, n_groups: int, vary_key: np.ndarray,
               n_vary: int) -> tuple[int, np.ndarray] | None:
    """The first row and the count per vary value of the first group of the
    packed keys ``groups`` whose rows are not spread evenly over the
    ``n_vary`` values of ``vary_key``, or None. The keys are densified (the
    only sort) when their bound exceeds the row count. A group whose size is
    not a multiple of ``n_vary`` is uneven without looking further; only the
    groups before the first such one are histogrammed, at most 2 x rows
    cells."""
    n = len(groups)
    if n_groups > n:
        groups, n_groups = _dense(groups)
    sizes = np.bincount(groups, minlength=n_groups)
    uneven = np.flatnonzero(sizes % n_vary)
    stop = int(uneven[0]) if uneven.size else n_groups
    if stop:
        rows = slice(None) if stop == n_groups else groups < stop
        head, occupied = groups[rows], None
        if stop * n_vary > 2 * n:
            # skip empty groups; each other one here has >= n_vary rows
            occupied = np.flatnonzero(sizes[:stop])
            head = (np.cumsum(sizes[:stop] > 0) - 1)[head]
        n_head = stop if occupied is None else len(occupied)
        hist = np.bincount(head * n_vary + vary_key[rows],
                           minlength=n_head * n_vary).reshape(n_head, n_vary)
        bad = np.flatnonzero((hist != hist[:, :1]).any(axis=1))
        if bad.size:
            g = int(bad[0])
            group = g if occupied is None else int(occupied[g])
            return int(np.argmax(groups == group)), hist[g]
    if stop == n_groups:
        return None
    in_group = groups == stop
    return int(np.argmax(in_group)), np.bincount(vary_key[in_group],
                                                 minlength=n_vary)


def _witness(row: int, counts: np.ndarray, values: Sequence, space: _Space,
             exprs: Sequence[Expr]) -> LeakWitness:
    """Every row of a group shares its fixed and member ``values``, so the
    row index ``row`` of ``space`` stands for the group; the two assignments
    are the lowest vary value present and the lowest absent one, or else the
    lowest with another count."""
    a = int(np.flatnonzero(counts)[0])
    absent = np.flatnonzero(counts == 0)
    b = int(absent[0]) if absent.size else \
        int(np.flatnonzero(counts != counts[a])[0])
    tuple_text = ", ".join(f"{render(e)}={ex.format_bits(int(v), e.width)}"
                           for e, v in zip(exprs, values))
    return LeakWitness(
        vary_a=space.decode(a << space.vary_low, space.vary),
        vary_b=space.decode(b << space.vary_low, space.vary),
        fixed=space.decode(row, space.fixed),
        evidence=(f"joint value ({tuple_text}) "
                  f"occurs {int(counts[a])} vs {int(counts[b])} times"),
    )


def _first_leak(exprs: Sequence[Expr], space: _Space) -> LeakWitness | None:
    """The witness of the first group, in key order, of the selection laid
    out in ``space`` whose rows are not spread evenly over the vary values,
    or None when every group is even, as every group is with no vary field.

    The fixed fields hold the top bits of the row index, so each fixed
    value is one contiguous run of rows, and every group lies inside one.
    Ranges of one block (``_BLOCK_ROWS`` rows) or one fixed value,
    whichever is larger, and at most the whole space, the whole space when
    nothing is fixed, are walked in key order, and the first that leaks
    decides: its first bad group is the whole space's, with the same
    counts, so a leak usually costs a small prefix of the space."""
    if not space.vary:
        return None
    step = min(space.size, max(_BLOCK_ROWS, 1 << space.low))
    for start in range(0, space.size, step):
        bad = _first_bad_group(exprs, _Rows(space, start, start + step))
        if bad is not None:
            return _witness(*bad, space, exprs)
    return None


def check_enumeration(exprs: tuple[Expr, ...], labels: SymbolTable,
                      limit: int = DEFAULT_ENUM_LIMIT,
                      budget: int | None = None) -> Verdict:
    """Exact check, by exhausting all symbol assignments, of independence
    or, with a ``budget``, simulatability: each selection of the question
    (:func:`_space_for`) is walked in turn (:func:`_first_leak`), and the
    first invariant one proves it; else the first selection's witness
    leaks."""
    witness = None
    for space in _space_for(_symbols(exprs, labels), labels, limit, budget):
        leak = _first_leak(exprs, space)
        if leak is None:
            return Verdict.secure()
        witness = witness or leak
    return Verdict.leaks(witness)


def check(exprs: tuple[Expr, ...], labels: SymbolTable,
          limit: int = DEFAULT_ENUM_LIMIT) -> Verdict:
    """Substitution first; exact enumeration as the fallback within budget.
    ``exprs`` is a set's canonical members, as :func:`make_expr_set` gives."""
    return _enumerated(check_substitution(exprs, labels), exprs, labels, limit,
                       None)


def check_from_fixpoint(exprs: tuple[Expr, ...], labels: SymbolTable,
                        limit: int, budget: int | None = None) -> Verdict:
    """:func:`check` of the question ``budget`` asks, for a set whose share
    count on its own symbols has failed, as :func:`check_tuples` decides
    every view: from the fixpoint."""
    return _enumerated(_fixpoint_count(exprs, labels, budget), exprs, labels,
                       limit, budget)


def _enumerated(verdict: Verdict, exprs: tuple[Expr, ...],
                labels: SymbolTable, limit: int,
                budget: int | None) -> Verdict:
    """``verdict`` if the substitution proved the question, else
    enumeration's; past the bit limit, Inconclusive: for independence with
    the substitution's reason, for simulatability with TooLarge's."""
    if verdict.is_secure:
        return verdict
    try:
        return check_enumeration(exprs, labels, limit, budget)
    except TooLarge as exc:
        if budget is not None:
            return Verdict.inconclusive(str(exc))
        return Verdict.inconclusive(
            f"{verdict.reason}; enumeration over limit ({exc.bits} > {exc.limit} "
            f"bits): potential false positive")


# ---------------------------------------------------------------------------
# Probe tuples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TupleResult:
    """The first verdict over the tuples that is not Secure (else Secure),
    how many tuples were walked out of ``tuple_count``, the tuple that
    decided it, and the warnings of the simulation the tuples came from."""
    verdict: Verdict
    tuples_checked: int
    tuple_count: int
    leaking_tuple: tuple | None = None
    warnings: tuple[tuple[int, str, str], ...] = ()


TUPLE_CAP = 10 ** 6   # d-uplets of one run; more raise TooMany before any walk

# One probe position's members and their share footprint, as make_part gives.
Part = tuple[tuple[Expr, ...], int]


def make_part(members: tuple[Expr, ...], labels: SymbolTable) -> Part:
    """A part of the views :func:`check_tuples` walks, with its footprint;
    KeyError naming the symbol if a member holds an unlabeled one."""
    return members, _footprint(_symbols(members, labels), labels)


def check_tuples(positions: Sequence[object], sizes: Iterable[int],
                 parts: Sequence[Sequence[Part]],
                 weights: Sequence[int] | None,
                 decide: Callable[[tuple[Expr, ...], int | None], Verdict],
                 labels: SymbolTable, cap: int | None = None) -> TupleResult:
    """Walk every tuple of ``positions`` of each size and stop at the first
    verdict that is not Secure.

    ``parts[i]`` is position i's part in each view of a tuple, as many
    views for every position; a view is the tuple's parts in it. Its budget
    is the sum of the tuple's ``weights``, or None for independence. A view
    that the share count proves on the union of its parts' footprints is
    Secure without a set; the count runs once per distinct footprint and
    budget of the run. Any other view becomes the set of its members, and
    ``decide(set, budget)`` runs once per distinct pair of the run.

    Each position's footprints are packed into one int, one slot of a
    footprint's width per view above the bits of the largest budget, so the
    OR of a tuple's ints holds each view's union, and with the budget added
    keys the views the count leaves unproven, found once per distinct key.
    TooMany, before any tuple is walked, if the tuples of one size exceed
    ``cap``."""
    sizes = list(sizes)
    counts = [math.comb(len(positions), q) for q in sizes]
    for count in counts:
        if cap is not None and count > cap:
            raise TooMany(count, cap)
    total = sum(counts)
    width = len(labels._share_footprints()[1])
    low = 0 if weights is None else sum(weights).bit_length()
    packed = [sum(fp << low + v * width for v, (_, fp) in enumerate(views))
              for views in parts]
    n_views, slot = len(parts[0]) if parts else 0, mask(width)
    proven: dict[tuple[int, int | None], bool] = {}   # by (footprint, budget)

    def unproven(key: int, budget: int | None) -> tuple[int, ...]:
        """The views whose unions in ``key`` the count does not prove."""
        out = []
        for v in range(n_views):
            fp = key >> low + v * width & slot
            proves = proven.get((fp, budget))
            if proves is None:
                proves = proven[fp, budget] = _share_count_proves(fp, labels,
                                                                  budget)
            if not proves:
                out.append(v)
        return tuple(out)   # the one empty tuple when all are proven

    open_views: dict[int, tuple[int, ...]] = {}
    # each budget's verdicts by set
    memos: dict[int | None, dict[tuple[Expr, ...], Verdict]] = {}
    footprint = packed.__getitem__
    weight = None if weights is None else weights.__getitem__
    budget = None
    checked = 0
    for combo in itertools.chain.from_iterable(
            itertools.combinations(range(len(positions)), q) for q in sizes):
        checked += 1
        key = functools.reduce(operator.or_, map(footprint, combo), 0)
        if weight is not None:
            budget = sum(map(weight, combo))
            key |= budget
        views = open_views.get(key)
        if views is None:
            views = open_views[key] = unproven(key, budget)
        for v in views:
            members = make_expr_set(e for i in combo for e in parts[i][v][0])
            memo = memos.setdefault(budget, {})
            verdict = memo.get(members)
            if verdict is None:
                verdict = memo[members] = decide(members, budget)
            if not verdict.is_secure:
                return TupleResult(verdict, checked, total,
                                   tuple(positions[i] for i in combo))
    return TupleResult(Verdict.secure(), checked, total)


# ---------------------------------------------------------------------------
# NI / SNI
# ---------------------------------------------------------------------------

@dataclass
class GadgetSpec:
    circuit: nl.Circuit
    labels: SymbolTable
    stimuli: Stimuli
    output_wires: tuple[str, ...]
    order: int

    def __post_init__(self):
        # a secret without shares could be probed but never simulated
        for secret in self.labels:
            count = len(self.labels.shares_of(secret))
            if self.labels.kind(secret) == ex.SECRET and count != self.order + 1:
                raise ValueError(f"secret {secret!r} declares {count} shares "
                                 f"for order {self.order}")


@dataclass(frozen=True)
class Probe:
    cycle: int
    wire: str
    is_output: bool
    obs: tuple[Expr, ...]

    def describe(self) -> str:
        where = "out" if self.is_output else "int"
        return f"{self.wire}@{self.cycle}[{where}]"


def collect_probes(gadget: GadgetSpec, glitches: bool) -> list[Probe]:
    """One probe candidate per (wire, cycle); glitch probes expose the
    flattened LeakSet, plain probes the symbolic value. Constant-only and
    duplicate observations are dropped."""
    states = sm.simulate(gadget.circuit,
                         nl.validate_and_schedule(gadget.circuit),
                         gadget.stimuli)
    last = len(gadget.stimuli.frames) - 1
    probes: list[Probe] = []
    taken: set[tuple[bool, tuple[Expr, ...]]] = set()
    for t, state in enumerate(states):
        for uid in sorted(state.current):
            val = state.current[uid]
            members = [m for s in val.lset for m in s] if glitches else [val.symb]
            obs = make_expr_set(members)
            if not obs:
                continue
            name = gadget.circuit.name(uid)
            is_output = name in gadget.output_wires and t == last
            key = (is_output, obs)
            if key in taken:
                continue
            taken.add(key)
            probes.append(Probe(t, name, is_output, obs))
    return probes


def _check_simulatability(gadget: GadgetSpec, d: int, glitches: bool,
                          strong: bool, limit: int) -> TupleResult:
    labels = gadget.labels
    probes = collect_probes(gadget, glitches)
    # one view of a probe tuple; with SNI, output probes are free
    return check_tuples(
        probes, range(1, d + 1), [(make_part(p.obs, labels),) for p in probes],
        [0 if strong and p.is_output else 1 for p in probes],
        lambda exprs, budget: check_from_fixpoint(exprs, labels, limit, budget),
        labels)


def check_ni(gadget: GadgetSpec, d: int, glitches: bool,
             limit: int = DEFAULT_ENUM_LIMIT) -> TupleResult:
    """d-NI: every tuple of q <= d probes is simulatable with q shares."""
    return _check_simulatability(gadget, d, glitches, strong=False, limit=limit)


def check_sni(gadget: GadgetSpec, d: int, glitches: bool,
              limit: int = DEFAULT_ENUM_LIMIT) -> TupleResult:
    """d-SNI: output probes are free, the share budget is the number of
    internal probes in the tuple."""
    return _check_simulatability(gadget, d, glitches, strong=True, limit=limit)
