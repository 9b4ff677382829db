"""Extended regular expression ASTs, text syntax, sizes and position sets.

Symbols are plain strings (interned by Python); an :class:`Alphabet` is an
ordered, duplicate-free collection of symbol names.  Expression trees are
immutable dataclasses, so sharing subtrees is safe everywhere; all measures
treat an expression as its tree expansion.  ``size``, ``hash`` and the
position masks behind ``position_sets`` and the Glushkov construction fold
over distinct nodes, so a shared subtree costs its work once (the position
masks copy its rows per occurrence); ``iter_postorder`` and
``subexpressions`` still visit every occurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional, Union as TUnion

from . import budget
from .errors import RexlabError

__all__ = [
    "Alphabet",
    "MarkedSymbol",
    "Regex",
    "Empty",
    "Epsilon",
    "Sym",
    "Concat",
    "Union",
    "Star",
    "Plus",
    "Intersect",
    "Negate",
    "EMPTY",
    "EPSILON",
    "PositionSets",
    "RexlabError",
    "RegexSyntaxError",
    "UnknownSymbolError",
    "ExtendedOperatorError",
    "parse",
    "format_regex",
    "size",
    "position_sets",
    "repeat_upto",
    "power",
    "union_all",
    "concat_all",
    "set_expr",
    "sunion",
    "sconcat",
    "sstar",
    "symbols_of",
    "occurrence_count",
    "has_extended",
    "subexpressions",
]


class RegexSyntaxError(RexlabError):
    """Malformed regex text; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownSymbolError(RexlabError):
    """A symbol token that is not part of the declared alphabet."""

    def __init__(self, token: str):
        super().__init__(f"unknown symbol {token!r}")
        self.token = token


class ExtendedOperatorError(RexlabError):
    """Negation/intersection fed to an operation defined for plain regexes only."""


# Characters with syntactic meaning in the regex grammar; symbol tokens using
# any of these (or whitespace, or more than one character) must be quoted.
_META = set("|&!*+()%'")


def _valid_symbol_name(name: str) -> bool:
    if not isinstance(name, str) or not name or "\\" in name:
        return False
    return all(32 < ord(c) < 127 for c in name)  # printable ASCII, no blanks


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of symbol names; iteration order is insertion order."""

    names: tuple[str, ...]

    def __post_init__(self):
        seen = set()
        for name in self.names:
            budget.checkpoint()  # witness alphabets run to 10^5 names
            if not _valid_symbol_name(name):
                raise ValueError(f"bad symbol name {name!r}: must be printable ASCII "
                                 "without blanks or backslashes")
            if name in seen:
                raise ValueError(f"duplicate symbol {name!r}")
            seen.add(name)
        if not self.names:
            raise ValueError("alphabet must contain at least one symbol")

    @classmethod
    def of(cls, *names: str) -> "Alphabet":
        return cls(tuple(names))

    @classmethod
    def from_chars(cls, chars: str) -> "Alphabet":
        return cls(tuple(chars))

    @classmethod
    def from_text(cls, text: str) -> "Alphabet":
        """One symbol name per line; ``#``-prefixed comment lines are ignored."""
        names = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            names.append(line)
        return cls(tuple(names))

    @cached_property
    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def __contains__(self, name: object) -> bool:
        return name in self.index

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def sort_key(self, name: str) -> int:
        return self.index[name]


@dataclass(frozen=True)
class MarkedSymbol:
    """An alphabet symbol subscripted with its occurrence index in an expression."""

    base: str
    occurrence: int

    def __str__(self) -> str:
        return f"{self.base}_{self.occurrence}"


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class Regex:
    """Base class of all expression nodes. Instances are immutable.

    Equality, hashing and ``repr`` are structural and walk the tree with an
    explicit stack, so arbitrarily deep trees compare, hash and print without
    recursion.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        # The text the dataclass repr would give, e.g.
        # ``Concat(left=Sym(sym='a'), right=Star(inner=Epsilon()))``.
        out: list[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            name = item.__class__.__qualname__
            if isinstance(item, Sym):
                out.append(f"{name}(sym={item.sym!r})")
            elif isinstance(item, _BINARY):
                out.append(f"{name}(left=")
                stack += (")", item.right, ", right=", item.left)
            elif isinstance(item, _UNARY):
                out.append(f"{name}(inner=")
                stack += (")", item.inner)
            else:
                out.append(f"{name}()")
        return "".join(out)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Regex):
            return NotImplemented
        stack: list[tuple[Regex, Regex]] = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__:
                return False
            if isinstance(a, Sym):
                if a.sym != b.sym:
                    return False
            elif isinstance(a, _BINARY):
                stack.append((a.right, b.right))
                stack.append((a.left, b.left))
            elif isinstance(a, _UNARY):
                stack.append((a.inner, b.inner))
        return True

    def __hash__(self) -> int:
        return _shared_fold(self, lambda node, kids: hash(
            (node.__class__, getattr(node, "sym", None), *kids)))


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Empty(Regex):
    pass


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Epsilon(Regex):
    pass


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Sym(Regex):
    sym: TUnion[str, MarkedSymbol]


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Concat(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Union(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Star(Regex):
    inner: Regex


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Plus(Regex):
    """One-or-more repetition, the single-occurrence shorthand for ``rr*``."""

    inner: Regex


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Intersect(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Negate(Regex):
    inner: Regex


EMPTY = Empty()
EPSILON = Epsilon()

_BINARY = (Concat, Union, Intersect)
_UNARY = (Star, Plus, Negate)


def children(r: Regex) -> tuple[Regex, ...]:
    if isinstance(r, _BINARY):
        return (r.left, r.right)
    if isinstance(r, _UNARY):
        return (r.inner,)
    return ()


def iter_postorder(root: Regex) -> Iterator[Regex]:
    """Tree-semantics post-order; shared subtrees are visited per occurrence."""
    stack: list[tuple[Regex, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
        else:
            stack.append((node, True))
            for child in reversed(children(node)):
                stack.append((child, False))


def subexpressions(root: Regex) -> Iterator[Regex]:
    """Pre-order walk over the tree, root first."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def size(r: Regex) -> int:
    """Reverse-Polish length: symbols and operators, parentheses ignored.

    Works on heavily shared trees in time proportional to the number of
    distinct nodes, polling the budget once per node.
    """
    return _shared_fold(r, _size_step)


def _size_step(node: Regex, kids: list[int]) -> int:
    # The poll sits here, not in ``_shared_fold``: hashing a regex never raises.
    budget.checkpoint()
    return 1 + sum(kids)


def _shared_fold(root: Regex, combine: Callable):
    """Bottom-up ``combine(node, child_values)`` over the distinct nodes of ``root``.

    Values are memoised by node identity, so a shared subtree is evaluated
    once; the explicit stack keeps deep trees off the call stack.
    """
    memo: dict[int, object] = {}
    stack: list[tuple[Regex, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in memo:
            continue
        kids = children(node)
        if expanded or not kids:
            memo[id(node)] = combine(node, [memo[id(c)] for c in kids])
        else:
            stack.append((node, True))
            for c in kids:
                if id(c) not in memo:
                    stack.append((c, False))
    return memo[id(root)]


def symbols_of(r: Regex) -> list[str]:
    """Base names of all symbol occurrences, left to right (with repeats)."""
    out = []
    for node in subexpressions(r):
        if isinstance(node, Sym):
            s = node.sym
            out.append(s.base if isinstance(s, MarkedSymbol) else s)
    return out


def occurrence_count(r: Regex) -> int:
    return sum(1 for node in subexpressions(r) if isinstance(node, Sym))


def has_extended(r: Regex) -> bool:
    return any(isinstance(node, (Intersect, Negate)) for node in subexpressions(r))


# ---------------------------------------------------------------------------
# Smart constructors: language-preserving local simplifications used when
# assembling machine-generated expressions (state elimination, complements).
# ---------------------------------------------------------------------------

def sunion(a: Regex, b: Regex) -> Regex:
    if isinstance(a, Empty):
        return b
    if isinstance(b, Empty):
        return a
    if a is b:
        return a
    return Union(a, b)


def sconcat(a: Regex, b: Regex) -> Regex:
    if isinstance(a, Empty) or isinstance(b, Empty):
        return EMPTY
    if isinstance(a, Epsilon):
        return b
    if isinstance(b, Epsilon):
        return a
    return Concat(a, b)


def sstar(a: Regex) -> Regex:
    if isinstance(a, (Empty, Epsilon)):
        return EPSILON
    if isinstance(a, Star):
        return a
    if isinstance(a, Plus):
        return Star(a.inner)
    return Star(a)


def union_all(parts: Iterable[Regex]) -> Regex:
    """Left-associated union; the empty union is the empty-language expression."""
    out: Optional[Regex] = None
    for p in parts:
        out = p if out is None else Union(out, p)
    return EMPTY if out is None else out


def concat_all(parts: Iterable[Regex]) -> Regex:
    """Left-associated concatenation, dropping epsilon factors; empty -> epsilon."""
    out: Optional[Regex] = None
    for p in parts:
        if isinstance(p, Epsilon):
            continue
        out = p if out is None else Concat(out, p)
    return EPSILON if out is None else out


def set_expr(names: Iterable[str], alphabet: Alphabet) -> Regex:
    """A symbol set as the union of its members, in alphabet order."""
    ordered = sorted(names, key=alphabet.sort_key)
    return union_all(Sym(n) for n in ordered)


def power(r: Regex, k: int) -> Regex:
    """k-fold concatenation r r ... r; the zeroth power is epsilon."""
    if k < 0:
        raise ValueError("negative power")
    return concat_all([r] * k)


def repeat_upto(r: Regex, n: int) -> Regex:
    """Expression for at most ``n`` repetitions of ``r``.

    Built as the nested form ``(eps + r(eps + r(... (eps + r))))`` so the size
    stays linear in ``n``; zero repetitions give the epsilon expression.
    """
    if n < 0:
        raise ValueError("negative repetition bound")
    if n == 0:
        return EPSILON
    out: Regex = Union(EPSILON, r)
    for _ in range(n - 1):
        out = Union(EPSILON, Concat(r, out))
    return out


# ---------------------------------------------------------------------------
# Text syntax
#
#   union    := isect ('|' isect)*
#   isect    := concat ('&' concat)*
#   concat   := prefixed+
#   prefixed := '!' prefixed | postfix
#   postfix  := atom ('*' | '+')*
#   atom     := BARE-CHAR | 'quoted' | %e | %0 | '(' union ')'
#
# Whitespace is insignificant outside quotes.  A bare symbol token is any
# single printable character that carries no syntactic meaning; multi-char
# symbol names are single-quoted with \' escaping the quote.
#
# ``parse`` reads this grammar in one loop, without recursion, so nesting
# depth is bounded only by memory.  Each open parenthesis pushes a frame that
# saves the union, intersection and concatenation built so far around it,
# plus the count of '!'s pending before it; all three operators associate to
# the left.
# ---------------------------------------------------------------------------

_STOP = frozenset({None, "|", "&", ")"})


def parse(text: str, alphabet: Alphabet) -> Regex:
    """Parse regex text over the given alphabet; inverse of :func:`format_regex`."""
    n = len(text)
    i = 0
    frames: list[tuple] = []
    union = isect = cat = None
    negs = 0
    while True:
        # An operand: prefix '!'s, then an open parenthesis or an atom.
        while i < n and text[i].isspace():
            i += 1
        c = text[i] if i < n else None
        if c == "!":
            negs += 1
            i += 1
            continue
        if c == "(":
            frames.append((union, isect, cat, negs))
            union = isect = cat = None
            negs = 0
            i += 1
            continue
        if c is None:
            raise RegexSyntaxError("expected an atom, found end of input", i)
        i += 1
        if c == "%":
            if i >= n:
                raise RegexSyntaxError("dangling '%'", i)
            kind = text[i]
            i += 1
            if kind == "e":
                node = EPSILON
            elif kind == "0":
                node = EMPTY
            else:
                raise RegexSyntaxError(f"unknown escape %{kind}", i)
        else:
            name = c
            if c == "'":
                j = i
                while True:
                    j = text.find("'", j)
                    if j < 0:
                        raise RegexSyntaxError("unterminated quoted symbol", n)
                    if text[j - 1] != "\\":
                        break
                    j += 1
                name = text[i:j].replace("\\'", "'")
                i = j + 1
            elif c in _META or not c.isascii():
                raise RegexSyntaxError(f"unexpected {c!r}", i - 1)
            if name not in alphabet:
                raise UnknownSymbolError(name)
            node = Sym(name)
        while True:
            # A finished atom or group: postfix operators bind tightest, then
            # the pending '!'s; the next token ends or extends the frame.
            while i < n and text[i].isspace():
                i += 1
            c = text[i] if i < n else None
            if c == "*":
                node = Star(node)
            elif c == "+":
                node = Plus(node)
            else:
                for _ in range(negs):
                    node = Negate(node)
                negs = 0
                cat = node if cat is None else Concat(cat, node)
                if c not in _STOP:
                    break
                isect = cat if isect is None else Intersect(isect, cat)
                cat = None
                if c == "&":
                    i += 1
                    break
                union = isect if union is None else Union(union, isect)
                isect = None
                if c == "|":
                    i += 1
                    break
                if c is None:
                    if frames:
                        raise RegexSyntaxError("expected ')'", i)
                    return union
                if not frames:
                    raise RegexSyntaxError(f"unexpected {c!r}", i)
                node = union
                union, isect, cat, negs = frames.pop()
            i += 1


# Precedence levels used by the printer; higher binds tighter.
_PREC_UNION, _PREC_ISECT, _PREC_CONCAT, _PREC_NEG, _PREC_POSTFIX, _PREC_ATOM = range(6)


def _prec(r: Regex) -> int:
    if isinstance(r, Union):
        return _PREC_UNION
    if isinstance(r, Intersect):
        return _PREC_ISECT
    if isinstance(r, Concat):
        return _PREC_CONCAT
    if isinstance(r, Negate):
        return _PREC_NEG
    if isinstance(r, (Star, Plus)):
        return _PREC_POSTFIX
    return _PREC_ATOM


def format_symbol(name: str) -> str:
    if len(name) == 1 and name not in _META and not name.isspace():
        return name
    return "'" + name.replace("'", "\\'") + "'"


def format_regex(r: Regex) -> str:
    """Precedence-minimal text for ``r``; round-trips structurally through parse.

    Polls the budget once per node.
    """
    out: list[str] = []
    # Work items are literal strings or (node, minimum-precedence) pairs.
    stack: list = [(r, _PREC_UNION)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        budget.checkpoint()
        node, lvl = item
        p = _prec(node)
        if p < lvl:
            out.append("(")
            stack.append(")")
            lvl = _PREC_UNION
        if isinstance(node, Empty):
            out.append("%0")
        elif isinstance(node, Epsilon):
            out.append("%e")
        elif isinstance(node, Sym):
            s = node.sym
            if isinstance(s, MarkedSymbol):
                raise ValueError("marked expressions have no text form")
            out.append(format_symbol(s))
        elif isinstance(node, Union):
            stack.append((node.right, _PREC_UNION + 1))
            stack.append("|")
            stack.append((node.left, _PREC_UNION))
        elif isinstance(node, Intersect):
            stack.append((node.right, _PREC_ISECT + 1))
            stack.append("&")
            stack.append((node.left, _PREC_ISECT))
        elif isinstance(node, Concat):
            stack.append((node.right, _PREC_CONCAT + 1))
            stack.append((node.left, _PREC_CONCAT))
        elif isinstance(node, Negate):
            stack.append((node.inner, _PREC_NEG))
            out.append("!")
        elif isinstance(node, Star):
            stack.append("*")
            stack.append((node.inner, _PREC_POSTFIX))
        elif isinstance(node, Plus):
            stack.append("+")
            stack.append((node.inner, _PREC_POSTFIX))
        else:  # pragma: no cover
            raise TypeError(f"unknown node {node!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# Position sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PositionSets:
    """Exact first/last/follow data of a plain expression's positions.

    ``positions`` labels the symbol leaves left to right, the ``x``-th as
    ``MarkedSymbol(symbol, x)``.  ``first``/``last`` hold the positions that
    begin/end some word of the marked language, ``follow`` the adjacent
    pairs, and ``nullable`` tells whether the empty word belongs to the
    language.  Subexpressions denoting the empty language contribute nothing.
    """

    positions: tuple[MarkedSymbol, ...]
    nullable: bool
    first: frozenset[MarkedSymbol]
    last: frozenset[MarkedSymbol]
    follow: frozenset[tuple[MarkedSymbol, MarkedSymbol]]


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a non-negative int, lowest first."""
    if not mask:
        return
    # Shifting the lowest bit to 0 first keeps the loop on a small int when
    # the bits lie close together, as the position sets of one subtree do.
    base = (mask & -mask).bit_length() - 1
    mask >>= base
    while mask:
        low = mask & -mask
        yield base + low.bit_length() - 1
        mask ^= low


def _add_follow(rows: list[int], lows: list[int], sources: int, targets: int):
    """Add ``targets`` to the follow row of every position in ``sources``.

    Row ``x`` holds its targets as ``rows[x] << lows[x]``; of a row and the
    new targets, the side with the higher offset is shifted onto the other's.
    """
    if targets:
        low = (targets & -targets).bit_length() - 1
        targets >>= low
        for x in iter_bits(sources):
            row = rows[x]
            if not row:
                rows[x], lows[x] = targets, low
            elif lows[x] <= low:
                rows[x] = row | targets << (low - lows[x])
            else:
                rows[x] = row << (lows[x] - low) | targets
                lows[x] = low


def _position_masks(root: Regex) -> tuple[list, bool, int, int, list[int], list[int]]:
    """Glushkov position data of a plain regex by one iterative post-order walk.

    Symbol leaves are numbered 1..n left to right.  Returns ``(syms,
    nullable, first, last, rows, lows)``: ``syms[i - 1]`` is the symbol of
    position ``i``, ``first`` and ``last`` are int bitmasks over bits 1..n,
    and ``rows[x] << lows[x]`` is the bitmask of the positions that may
    follow position ``x`` (row 0 is 0).  A row is kept relative to its
    lowest target, so it costs the span of its targets, not its highest
    position; an empty row has offset 0.  A subexpression denoting the
    empty language contributes nothing, so the data describe the language
    exactly.  Raises ``ExtendedOperatorError``, then ``ValueError`` on
    marked symbols.

    The data are those of the tree expansion, but, like ``size`` and
    ``hash``, the walk folds over distinct nodes: an internal node (by
    identity) that completes a second time is recorded, and each later
    occurrence is stamped from its record instead of walked again; a node
    met once is never copied.  The budget is polled once per completed
    internal node and once per stamp, each at most n rows of work.
    """
    syms: list = []
    rows = [0]
    lows = [0]
    # One entry per finished node: (nullable, first, last), or, for a node
    # denoting the empty language, the range of its positions.  Such a node
    # holds no follow bits in its rows; an empty Concat clears the rows of
    # its non-empty child to keep that so.
    values: list = []
    # Per internal node, by identity: None once it has completed, then from
    # its second completion the record that stamps it.  The record holds its
    # start, its rows and offsets copied at completion (an ancestor later
    # adds to or clears the live ones), and its value with first and last
    # shifted down to bit 1, or None for the empty language.
    seen: dict[int, Optional[tuple]] = {}
    stack: list[tuple[Regex, int]] = [(root, -1)]
    while stack:
        node, start = stack.pop()
        if start < 0:
            if isinstance(node, Sym):
                syms.append(node.sym)
                rows.append(0)
                lows.append(0)
                bit = 1 << len(syms)
                values.append((False, bit, bit))
            elif isinstance(node, Epsilon):
                values.append((True, 0, 0))
            elif isinstance(node, Empty):
                values.append(range(len(syms) + 1, len(syms) + 1))
            elif isinstance(node, (Concat, Union, Star, Plus)):
                record = seen.get(id(node))
                if record:
                    # Stamp: the rows are relative and kept as they are; the
                    # offsets of non-empty rows move with the start.
                    budget.checkpoint()
                    begin, block, offsets, value = record
                    base = len(syms)
                    syms += syms[begin:begin + len(block)]
                    rows += block
                    d = base - begin
                    lows += [low and low + d for low in offsets]
                    values.append(range(base + 1, len(syms) + 1) if value is None else
                                  (value[0], value[1] << base, value[2] << base))
                    continue
                stack.append((node, len(syms)))
                if isinstance(node, (Star, Plus)):
                    stack.append((node.inner, -1))
                else:
                    stack.append((node.right, -1))
                    stack.append((node.left, -1))
            elif isinstance(node, (Intersect, Negate)):
                raise ExtendedOperatorError(
                    "position sets are defined for plain regexes only")
            else:
                raise TypeError(f"unknown node {node!r}")
            continue
        budget.checkpoint()
        if isinstance(node, Concat):
            right = values.pop()
            left = values[-1]
            if isinstance(left, range) or isinstance(right, range):
                # Only a child that is not empty itself has rows to clear.
                if not isinstance(left, range):
                    live = range(start + 1, right.start)
                elif not isinstance(right, range):
                    live = range(left.stop, len(syms) + 1)
                else:
                    live = range(0)
                for x in live:
                    rows[x] = lows[x] = 0
                values[-1] = range(start + 1, len(syms) + 1)
            else:
                n1, f1, l1 = left
                n2, f2, l2 = right
                _add_follow(rows, lows, l1, f2)
                values[-1] = (n1 and n2, f1 | f2 if n1 else f1, l1 | l2 if n2 else l2)
        elif isinstance(node, Union):
            right = values.pop()
            left = values[-1]
            if isinstance(right, range):
                if isinstance(left, range):
                    values[-1] = range(start + 1, len(syms) + 1)
            elif isinstance(left, range):
                values[-1] = right
            else:
                values[-1] = (left[0] or right[0], left[1] | right[1], left[2] | right[2])
        else:  # Star or Plus
            inner = values[-1]
            if isinstance(inner, range):
                # r* with empty body denotes {eps}; r+ the empty language.
                if isinstance(node, Star):
                    values[-1] = (True, 0, 0)
            else:
                n1, f1, l1 = inner
                _add_follow(rows, lows, l1, f1)
                if isinstance(node, Star) and not n1:
                    values[-1] = (True, f1, l1)
        key = id(node)
        if key in seen:
            value = values[-1]
            seen[key] = (start, rows[start + 1:], lows[start + 1:], None
                         if isinstance(value, range) else
                         (value[0], value[1] >> start, value[2] >> start))
        else:
            seen[key] = None
    if any(isinstance(s, MarkedSymbol) for s in set(syms)):
        raise ValueError("expression is already marked")
    value = values[0]
    if isinstance(value, range):
        return syms, False, 0, 0, rows, lows
    return (syms, *value, rows, lows)


def position_sets(r: Regex) -> PositionSets:
    """The position sets of a plain regex, from one bottom-up pass.

    One-or-more repetition contributes like ``rr*``: same sets, nullability
    inherited from the body.
    """
    syms, nullable, first, last, follow, lows = _position_masks(r)
    positions = tuple(MarkedSymbol(s, x) for x, s in enumerate(syms, 1))
    return PositionSets(
        positions,
        nullable,
        frozenset(positions[x - 1] for x in iter_bits(first)),
        frozenset(positions[x - 1] for x in iter_bits(last)),
        frozenset((positions[x - 1], positions[y - 1])
                  for x in range(1, len(follow)) for y in iter_bits(follow[x] << lows[x])))
