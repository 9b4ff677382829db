"""Independent brute-force oracles used to cross-check the library.

Everything here computes languages straight from definitions - structural
recursion over expression trees, direct decoding of block strings, explicit
walk enumeration - without touching the library's automata conversions, so
test expectations never share a code path with what they check.
"""

from __future__ import annotations

import dataclasses
import itertools
from array import array
from graphlib import CycleError, TopologicalSorter
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from rexlab import budget
from rexlab.analysis import FINITE, INFINITE, IndexResult, _as_nfa, _check_word, _successors_on
from rexlab.automata import (
    AutomatonFormatError,
    Dfa,
    FinalFlags,
    Nfa,
    TransitionIndex,
    _derived_alphabet,
    _require_same_alphabet,
    _slot_index,
    determinize,
    product,
)
from rexlab.rex import (
    EMPTY,
    EPSILON,
    Alphabet,
    Concat,
    Empty,
    Epsilon,
    ExtendedOperatorError,
    Intersect,
    MarkedSymbol,
    Negate,
    Plus,
    Regex,
    RegexSyntaxError,
    Star,
    Sym,
    Union,
    UnknownSymbolError,
    children,
    has_extended,
    iter_bits,
    iter_postorder,
    sconcat,
    set_expr,
    subexpressions,
    sunion,
    symbols_of,
)
from rexlab.unambiguous import (
    LocalProfile,
    NotOneUnambiguousError,
    NotSoreError,
    UnambiguityReport,
)
from rexlab.witnesses import SIGMA_K, SIGMA_L, PathWord, enc_width, m_alphabet

Word = tuple


def words_upto(symbols: Iterable, max_len: int) -> Iterator[Word]:
    syms = list(symbols)
    for length in range(max_len + 1):
        yield from itertools.product(syms, repeat=length)


def regex_slice(r: Regex, symbols: Iterable, max_len: int) -> frozenset[Word]:
    """All words of length <= max_len in the language, by structural recursion.

    Works for extended operators too; negation is taken relative to the given
    symbol collection.  Symbols may be names or marked symbols.
    """
    syms = tuple(symbols)

    def go(node: Regex) -> frozenset[Word]:
        if isinstance(node, Empty):
            return frozenset()
        if isinstance(node, Epsilon):
            return frozenset([()])
        if isinstance(node, Sym):
            return frozenset([(node.sym,)])
        if isinstance(node, Concat):
            left, right = go(node.left), go(node.right)
            return frozenset(u + v for u in left for v in right
                             if len(u) + len(v) <= max_len)
        if isinstance(node, Union):
            return go(node.left) | go(node.right)
        if isinstance(node, Intersect):
            return go(node.left) & go(node.right)
        if isinstance(node, Negate):
            return frozenset(words_upto(syms, max_len)) - go(node.inner)
        if isinstance(node, (Star, Plus)):
            base = go(node.inner)
            star = frozenset([()])
            frontier = star
            while frontier:
                grown = frozenset(u + v for u in frontier for v in base
                                  if v and len(u) + len(v) <= max_len)
                frontier = grown - star
                star |= grown
            if isinstance(node, Star):
                return star
            return frozenset(u + v for u in base for v in star
                             if len(u) + len(v) <= max_len)
        raise TypeError(node)

    return go(r)


def nfa_slice(nfa, max_len: int) -> frozenset[Word]:
    """Accepted words up to max_len by direct subset simulation."""
    out = set()
    for w in words_upto(nfa.alphabet.names, max_len):
        current = frozenset([nfa.initial])
        for s in w:
            current = nfa.step(current, s)
            if not current:
                break
        if current & nfa.finals:
            out.add(w)
    return frozenset(out)


def first_last_adjacent(words: frozenset[Word]):
    """Read first/last/adjacency data off an enumerated language slice."""
    first, last, follow = set(), set(), set()
    for w in words:
        if w:
            first.add(w[0])
            last.add(w[-1])
            follow.update(zip(w, w[1:]))
    return frozenset(first), frozenset(last), frozenset(follow)


def unambiguity_violation(marked_words: frozenset[Word]) -> Optional[tuple]:
    """Search a marked-language slice for a one-unambiguity violation.

    Returns (u, x, y) with x != y of equal base following the common prefix u,
    or None if the slice shows none (the slice may be too short to be
    conclusive for a negative answer).
    """
    nexts: dict[Word, set] = {}
    for w in marked_words:
        for i in range(len(w)):
            nexts.setdefault(w[:i], set()).add(w[i])
    for u in sorted(nexts, key=len):
        by_base: dict[str, object] = {}
        for m in sorted(nexts[u], key=lambda m: m.occurrence):
            if m.base in by_base:
                return (u, by_base[m.base], m)
            by_base[m.base] = m
    return None


# ---------------------------------------------------------------------------
# Marking: every symbol occurrence subscripted in the tree itself
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class MarkedRegex:
    """An expression with every symbol occurrence subscripted 1..k left to right."""

    root: Regex
    origin: Regex

    @property
    def positions(self) -> tuple[MarkedSymbol, ...]:
        return tuple(node.sym for node in subexpressions(self.root)
                     if isinstance(node, Sym))


def _rebuild(root: Regex, leaf) -> Regex:
    """A copy of ``root`` with ``leaf(node)`` in place of each nullary node,
    built bottom-up with an explicit stack."""
    values: list = []
    for node in iter_postorder(root):
        kids = children(node)
        if kids:
            args = values[len(values) - len(kids):]
            del values[len(values) - len(kids):]
            values.append(type(node)(*args))
        else:
            values.append(leaf(node))
    return values[0]


def mark(r: Regex) -> MarkedRegex:
    """Subscript the symbol occurrences of a plain regex in left-to-right order."""
    if has_extended(r):
        raise ExtendedOperatorError("marking is defined for plain regexes only")
    counter = 0

    def leaf(node: Regex) -> Regex:
        nonlocal counter
        if isinstance(node, Sym):
            if isinstance(node.sym, MarkedSymbol):
                raise ValueError("expression is already marked")
            counter += 1
            return Sym(MarkedSymbol(node.sym, counter))
        return node

    # iter_postorder meets the leaves left to right, so the numbering does too.
    return MarkedRegex(_rebuild(r, leaf), r)


def unmark(r: Regex) -> Regex:
    """Drop all occurrence subscripts."""
    def leaf(node: Regex) -> Regex:
        if isinstance(node, Sym) and isinstance(node.sym, MarkedSymbol):
            return Sym(node.sym.base)
        return node

    return _rebuild(r, leaf)


# ---------------------------------------------------------------------------
# Glushkov automaton by marking and frozen position sets
# ---------------------------------------------------------------------------

def marked_position_sets(root: Regex) -> tuple[bool, frozenset, frozenset, frozenset]:
    """(nullable, first, last, follow) of a marked tree, as frozensets.

    Each node's sets are built from its children's by the textbook rules; a
    subexpression denoting the empty language contributes nothing.
    """
    nothing: frozenset = frozenset()
    dead = (True, False, nothing, nothing, nothing)

    # Tuple layout: (is_empty_language, nullable, first, last, follow)
    def go(node: Regex):
        if isinstance(node, Empty):
            return dead
        if isinstance(node, Epsilon):
            return (False, True, nothing, nothing, nothing)
        if isinstance(node, Sym):
            one = frozenset([node.sym])
            return (False, False, one, one, nothing)
        if isinstance(node, Union):
            left, right = go(node.left), go(node.right)
            if left[0]:
                return right
            if right[0]:
                return left
            return (False,) + tuple(x | y for x, y in zip(left[1:], right[1:]))
        if isinstance(node, Concat):
            (e1, n1, f1, l1, w1), (e2, n2, f2, l2, w2) = go(node.left), go(node.right)
            if e1 or e2:
                return dead
            return (False, n1 and n2, f1 | f2 if n1 else f1, l1 | l2 if n2 else l2,
                    w1 | w2 | frozenset((x, y) for x in l1 for y in f2))
        if isinstance(node, (Star, Plus)):
            e1, n1, f1, l1, w1 = go(node.inner)
            if e1:
                return (False, True, nothing, nothing, nothing) if isinstance(node, Star) else dead
            return (False, n1 or isinstance(node, Star), f1, l1,
                    w1 | frozenset((x, y) for x in l1 for y in f1))
        raise ExtendedOperatorError("position sets are defined for plain regexes only")

    _, nullable, first, last, follow = go(root)
    return nullable, first, last, follow


def glushkov_by_marking(r: Regex, alphabet: Optional[Alphabet] = None) -> Nfa:
    """Position automaton from :func:`mark` and frozen position sets.

    A :class:`Dfa` when no state has two successors on one symbol.  Raises
    what ``glushkov`` raises, in the same order: extended operators, marked
    input, then a missing alphabet or a symbol outside it.
    """
    marked = mark(r)
    nullable, first, last, follow = marked_position_sets(marked.root)
    if alphabet is None:
        names = sorted(set(symbols_of(r)))
        if not names:
            raise ValueError("cannot derive an alphabet from a symbol-free expression")
        alphabet = Alphabet(tuple(names))
    for name in symbols_of(r):
        if name not in alphabet:
            raise ValueError(f"symbol {name!r} not in the declared alphabet")
    transitions = {(0, y.base, y.occurrence) for y in first}
    transitions |= {(x.occurrence, y.base, y.occurrence) for x, y in follow}
    finals = frozenset({x.occurrence for x in last} | ({0} if nullable else set()))
    n = len(marked.positions) + 1
    nfa = Nfa(alphabet, n, 0, finals, frozenset(transitions))
    if nfa.is_deterministic():
        return Dfa(alphabet, n, 0, finals, nfa.transitions)
    return nfa


def position_masks_absolute(root: Regex) -> tuple[list, bool, int, int, list[int]]:
    """``(syms, nullable, first, last, follow)`` of a plain regex, each
    follow row an absolute bitmask: bit ``y`` of ``follow[x]`` is set when
    position ``y`` may follow position ``x``.

    The walk ``rex._position_masks`` made before it kept each row relative
    to its lowest target; rows are ORed in place, so row ``x`` is as wide as
    its highest target.
    """
    syms: list = []
    follow = [0]

    def add_follow(sources: int, targets: int):
        if targets:
            for x in iter_bits(sources):
                follow[x] |= targets

    values: list = []
    stack: list[tuple[Regex, int]] = [(root, -1)]
    while stack:
        node, start = stack.pop()
        if start < 0:
            if isinstance(node, Sym):
                syms.append(node.sym)
                follow.append(0)
                bit = 1 << len(syms)
                values.append((False, bit, bit))
            elif isinstance(node, Epsilon):
                values.append((True, 0, 0))
            elif isinstance(node, Empty):
                values.append(range(len(syms) + 1, len(syms) + 1))
            elif isinstance(node, (Concat, Union)):
                stack.append((node, len(syms)))
                stack.append((node.right, -1))
                stack.append((node.left, -1))
            elif isinstance(node, (Star, Plus)):
                stack.append((node, len(syms)))
                stack.append((node.inner, -1))
            elif isinstance(node, (Intersect, Negate)):
                raise ExtendedOperatorError(
                    "position sets are defined for plain regexes only")
            else:
                raise TypeError(f"unknown node {node!r}")
            continue
        if isinstance(node, Concat):
            right = values.pop()
            left = values[-1]
            if isinstance(left, range) or isinstance(right, range):
                if not isinstance(left, range):
                    live = range(start + 1, right.start)
                elif not isinstance(right, range):
                    live = range(left.stop, len(syms) + 1)
                else:
                    live = range(0)
                for x in live:
                    follow[x] = 0
                values[-1] = range(start + 1, len(syms) + 1)
                continue
            n1, f1, l1 = left
            n2, f2, l2 = right
            add_follow(l1, f2)
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
                if isinstance(node, Star):
                    values[-1] = (True, 0, 0)
                continue
            n1, f1, l1 = inner
            add_follow(l1, f1)
            if isinstance(node, Star) and not n1:
                values[-1] = (True, f1, l1)
    if any(isinstance(s, MarkedSymbol) for s in syms):
        raise ValueError("expression is already marked")
    value = values[0]
    if isinstance(value, range):
        return syms, False, 0, 0, follow
    return (syms, *value, follow)


# ---------------------------------------------------------------------------
# One-unambiguous expressions by marking and frozen position sets
#
# The reference for ``rexlab.unambiguous``, which reads position bitmasks:
# here every call marks the tree, every position is a MarkedSymbol, and a
# prefix expression comes from structural recursion with ``unmark`` copies.
# Results are assembled with the library's smart constructors, so the two
# routes must agree byte for byte.  Errors are raised in the library's
# order: marking first, then one-unambiguity.
# ---------------------------------------------------------------------------

def _marked_sets(r: Regex):
    marked = mark(r)
    return (marked, *marked_position_sets(marked.root))


def unambiguity_by_marking(r: Regex) -> UnambiguityReport:
    """BFS of the position automaton for the first state with two successors
    of one base symbol, successors in ascending occurrence order."""
    _, _, first, _, follow = _marked_sets(r)
    successors = {0: sorted(first, key=lambda m: m.occurrence)}
    for x, y in sorted(follow, key=lambda p: (p[0].occurrence, p[1].occurrence)):
        successors.setdefault(x.occurrence, []).append(y)
    seen = {0}
    queue = [(0, ())]
    for state, path in queue:
        clash: dict[str, MarkedSymbol] = {}
        for y in successors.get(state, ()):
            if y.base in clash:
                return UnambiguityReport(False, (path, clash[y.base], y))
            clash[y.base] = y
        for y in successors.get(state, ()):
            if y.occurrence not in seen:
                seen.add(y.occurrence)
                queue.append((y.occurrence, path + (y,)))
    return UnambiguityReport(True)


def _unambiguous_sets(r: Regex):
    report = unambiguity_by_marking(r)
    if not report.is_one_unambiguous:
        raise NotOneUnambiguousError(
            f"expression is not one-unambiguous (witness {report.witness})")
    return _marked_sets(r)


def nfirst_by_marking(r: Regex, alphabet: Alphabet) -> frozenset[str]:
    return frozenset(alphabet) - {x.base for x in _unambiguous_sets(r)[2]}


def nfollow_by_marking(r: Regex, x: MarkedSymbol, alphabet: Alphabet) -> frozenset[str]:
    marked, _, _, _, follow = _marked_sets(r)
    if x not in marked.positions:
        raise ValueError(f"unknown marked symbol {x}")
    return frozenset(alphabet) - {b.base for a, b in follow if a == x}


def last_marked_by_marking(r: Regex) -> frozenset[MarkedSymbol]:
    return _unambiguous_sets(r)[3]


def local_profile_by_marking(r: Regex) -> LocalProfile:
    if has_extended(r) or len(set(symbols_of(r))) != len(symbols_of(r)):
        raise NotSoreError(f"not a single-occurrence regex: {r}")
    _, nullable, first, last, follow = _marked_sets(r)
    return LocalProfile(nullable, frozenset(x.base for x in first),
                        frozenset(x.base for x in last),
                        frozenset((a.base, b.base) for a, b in follow))


def _gap_by_marking(banned: frozenset[str], alphabet: Alphabet) -> Regex:
    return sconcat(set_expr(banned, alphabet), Star(set_expr(alphabet, alphabet)))


def init_expr_by_marking(r: Regex, alphabet: Alphabet) -> Regex:
    nullable = _marked_sets(r)[1]
    head = _gap_by_marking(nfirst_by_marking(r, alphabet), alphabet)
    return head if nullable else Union(EPSILON, head)


def prefix_to_by_marking(r: Regex, x: MarkedSymbol) -> Regex:
    """Prefixes of marked words ending at ``x``, unmarked, by recursion on the
    marked tree: a concatenation keeps its left part when ``x`` lies to the
    right, a star or plus allows full iterations before a partial one, and a
    union projects on the branch holding ``x``."""
    marked = mark(r)
    if x not in marked.positions:
        raise ValueError(f"unknown marked symbol {x}")

    def contains(node: Regex) -> bool:
        return any(isinstance(s, Sym) and s.sym == x for s in subexpressions(node))

    def walk(node: Regex) -> Regex:
        if isinstance(node, Sym):
            return Sym(x.base)
        if isinstance(node, Concat):
            if contains(node.left):
                return walk(node.left)
            return Concat(unmark(node.left), walk(node.right))
        if isinstance(node, Union):
            return walk(node.left if contains(node.left) else node.right)
        return Concat(Star(unmark(node.inner)), walk(node.inner))  # Star or Plus

    return walk(marked.root)


def complement_by_marking(r: Regex, alphabet: Alphabet) -> Regex:
    """Init expression, then per position in occurrence order its prefixes
    followed by a forbidden symbol, or also ending there when the position
    ends no word."""
    marked, _, _, last, follow = _unambiguous_sets(r)
    out = init_expr_by_marking(r, alphabet)
    for x in sorted(marked.positions, key=lambda m: m.occurrence):
        banned = frozenset(alphabet) - {b.base for a, b in follow if a == x}
        gap = _gap_by_marking(banned, alphabet)
        tail = gap if x in last else sunion(EPSILON, gap)
        out = sunion(out, sconcat(prefix_to_by_marking(r, x), tail))
    return out


# ---------------------------------------------------------------------------
# Extended regexes by combinators over frozensets of triples
#
# The reference for ``rexlab.automata.extended_to_nfa``, which codes edges as
# ints and builds one slot index: here every node is an ``Nfa`` whose
# transitions are a frozenset of ``(p, symbol, q)`` triples.  Intersection
# and negation use the library's product and subset construction, so the
# two routes must agree state for state, and raise the same errors.
# ---------------------------------------------------------------------------

def _shift_triples(a: Nfa, offset: int):
    trans = {(p + offset, s, q + offset) for p, s, q in a.transitions}
    return trans, {q + offset for q in a.finals}, a.initial + offset


def _union_by_triples(a: Nfa, b: Nfa) -> Nfa:
    ta, fa, ia = _shift_triples(a, 1)
    tb, fb, ib = _shift_triples(b, 1 + a.n_states)
    trans = ta | tb
    for p, s, q in list(trans):
        if p == ia or p == ib:
            trans.add((0, s, q))
    finals = fa | fb
    if ia in fa or ib in fb:
        finals.add(0)
    return Nfa(a.alphabet, 1 + a.n_states + b.n_states, 0, frozenset(finals), frozenset(trans))


def _concat_by_triples(a: Nfa, b: Nfa) -> Nfa:
    ta, fa, ia = _shift_triples(a, 0)
    tb, fb, ib = _shift_triples(b, a.n_states)
    trans = ta | tb
    for s, q in [(s, q) for p, s, q in tb if p == ib]:
        trans |= {(f, s, q) for f in fa}
    finals = fb | fa if ib in fb else fb
    return Nfa(a.alphabet, a.n_states + b.n_states, ia, frozenset(finals), frozenset(trans))


def _repeat_by_triples(a: Nfa, at_least_one: bool) -> Nfa:
    ta, fa, ia = _shift_triples(a, 1)
    trans = set(ta)
    for s, q in [(s, q) for p, s, q in ta if p == ia]:
        trans |= {(f, s, q) for f in fa | {0}}
    finals = fa | {0} if not at_least_one or ia in fa else fa
    return Nfa(a.alphabet, a.n_states + 1, 0, frozenset(finals), frozenset(trans))


def extended_to_nfa_by_triples(r: Regex, alphabet: Optional[Alphabet] = None,
                               max_states: int = budget.DEFAULT_MAX_STATES) -> Nfa:
    """Post-order combinators, one triples-built ``Nfa`` per node."""
    from rexlab.automata import complement_dfa, determinize, minimize, product

    if alphabet is None:
        if any(isinstance(node, Negate) for node in subexpressions(r)):
            raise ValueError("negation needs an explicit alphabet")
        names = sorted(set(symbols_of(r)))
        if not names:
            raise ValueError("cannot derive an alphabet from a symbol-free expression; "
                             "pass one explicitly")
        alphabet = Alphabet(tuple(names))
    sigma = alphabet

    def go(node: Regex) -> Nfa:
        if isinstance(node, (Empty, Epsilon)):
            out = Nfa(sigma, 1, 0, frozenset([0] if isinstance(node, Epsilon) else []),
                      frozenset())
        elif isinstance(node, Sym):
            if node.sym not in sigma:
                raise ValueError(f"symbol {node.sym!r} not in the declared alphabet")
            out = Nfa(sigma, 2, 0, frozenset([1]), frozenset([(0, node.sym, 1)]))
        elif isinstance(node, Concat):
            out = _concat_by_triples(go(node.left), go(node.right))
        elif isinstance(node, Union):
            out = _union_by_triples(go(node.left), go(node.right))
        elif isinstance(node, (Star, Plus)):
            out = _repeat_by_triples(go(node.inner), isinstance(node, Plus))
        elif isinstance(node, Intersect):
            out = product(go(node.left), go(node.right), max_states=max_states)
        else:
            inner = go(node.inner)
            out = complement_dfa(minimize(determinize(inner, max_states=max_states)))
        if out.n_states > max_states:
            raise budget.BudgetExceededError(
                f"intermediate automaton exceeds {max_states} states")
        return out

    return go(r)


# ---------------------------------------------------------------------------
# Subset construction over frozensets
# ---------------------------------------------------------------------------

def subset_construction(nfa: Nfa, max_states: int) -> tuple[list[frozenset[int]], Dfa]:
    """Reachable subsets and the subset DFA, read off the transition triples.

    Subsets are frozensets numbered in BFS discovery order with symbols
    scanned in alphabet order; the budget is polled once per subset, and
    discovering a subset beyond ``max_states`` raises ``BudgetExceededError``.
    """
    succ: dict[tuple[int, str], set[int]] = {}
    for p, a, q in nfa.transitions:
        succ.setdefault((p, a), set()).add(q)
    nothing: frozenset[int] = frozenset()
    start = frozenset([nfa.initial])
    ids = {start: 0}
    subsets = [start]
    triples = set()
    i = 0
    while i < len(subsets):
        budget.checkpoint()
        for a in nfa.alphabet.names:
            target = nothing.union(*(succ.get((p, a), ()) for p in subsets[i]))
            if not target:
                continue
            if target not in ids:
                if len(ids) >= max_states:
                    raise budget.BudgetExceededError(f"more than {max_states} subsets")
                ids[target] = len(subsets)
                subsets.append(target)
            triples.add((i, a, ids[target]))
        i += 1
    finals = frozenset(i for i, subset in enumerate(subsets) if subset & nfa.finals)
    return subsets, Dfa(nfa.alphabet, len(subsets), 0, finals, frozenset(triples))


def pair_walk_by_keys(left: tuple, right: tuple, k: int,
                      max_states: int) -> tuple[int, array, bytes]:
    """The reference for ``automata._pair_walk``: the reachable pairs of two
    ``(n_states, table, finals flags)`` DFAs with start state 0, one pair
    popped at a time and keyed by the int ``p * w + q`` in one dict.

    Each side's missing edge steps to its sink, state ``n_states``, which
    loops; the pair of sinks reads -1.  Pairs are numbered breadth first,
    symbols in alphabet order, and a pair beyond ``max_states`` raises
    ``BudgetExceededError``.
    """
    (n1, t1, f1), (n2, t2, f2) = left, right
    t1 = [n1 if t < 0 else t for t in t1] + [n1] * k
    t2 = [n2 if t < 0 else t for t in t2] + [n2] * k
    f1, f2 = bytes(f1) + b"\0", bytes(f2) + b"\0"
    w = n2 + 1
    ids = {0: 0, n1 * w + n2: -1}
    order = [0]
    table = array("i")
    fin = bytearray()
    for key in order:  # ``order`` grows as the walk goes
        budget.checkpoint()
        p, q = divmod(key, w)
        fin.append(f1[p] | f2[q])
        for c in range(k):
            succ = t1[p * k + c] * w + t2[q * k + c]
            dst = ids.get(succ)
            if dst is None:
                if len(order) >= max_states:
                    raise budget.BudgetExceededError(
                        f"subset construction exceeds {max_states} states")
                dst = ids[succ] = len(order)
                order.append(succ)
            table.append(dst)
    return len(order), table, bytes(fin)


def product_by_pair_codes(a: Nfa, b: Nfa,
                          max_states: int = budget.DEFAULT_MAX_STATES) -> Nfa:
    """The reference for ``automata.product``: the reachable pairwise product,
    each pair keyed by one int code in one dict.

    Pairs are numbered in BFS discovery order with symbols scanned in
    alphabet order and each side's targets in ascending order; the pair
    ``(p, q)`` is coded as ``p * b.n_states + q``.  Two DFAs are walked
    through their tables, any other inputs through their slots.  The table
    walk reads ``a``'s table only at the symbols ``b`` defines.  The slot
    walk's result is a ``Dfa`` exactly when no slot holds two targets.
    """
    _require_same_alphabet(a, b)
    if isinstance(a, Dfa) and isinstance(b, Dfa):
        return _dfa_product_by_pair_codes(a, b, max_states)
    k = len(a.alphabet)
    width = b.n_states
    start = a.initial * width + b.initial
    ids = {start: 0}
    order = [start]
    starts, targets = array("i", [0]), array("i")
    succ_a, succ_b = a.successors, b.successors
    i = 0
    while i < len(order):
        budget.checkpoint()
        p, q = divmod(order[i], width)
        for c in range(k):
            pa = succ_a(p, c)
            pb = succ_b(q, c) if pa else ()
            lo = len(targets)
            for p2 in pa:
                for q2 in pb:
                    key = p2 * width + q2
                    dst = ids.get(key)
                    if dst is None:
                        if len(ids) >= max_states:
                            raise budget.BudgetExceededError(
                                f"product exceeds {max_states} states")
                        dst = len(ids)
                        ids[key] = dst
                        order.append(key)
                    targets.append(dst)
            if len(targets) - lo > 1:
                targets[lo:] = array("i", sorted(targets[lo:]))
            starts.append(len(targets))
        i += 1
    del ids
    fa, fb = a.finals.flags, b.finals.flags
    finals = FinalFlags(bytes(fa[key // width] & fb[key % width] for key in order))
    cls = Dfa if all(y - x <= 1 for x, y in zip(starts, starts[1:])) else Nfa
    return cls(a.alphabet, len(order), 0, finals, TransitionIndex(a.alphabet, starts, targets))


def _dfa_product_by_pair_codes(a: Dfa, b: Dfa, max_states: int) -> Dfa:
    k = len(a.alphabet)
    ta, tb, width = a.table, b.table, b.n_states
    fa, fb = a.finals.flags, b.finals.flags
    # A slot that ``b`` leaves undefined stays -1 whatever ``a`` holds there,
    # so each pair reads ``a``'s row only at the symbols of ``b``'s edges.
    # A state's edges are listed when a popped pair first reaches it, so the
    # cost follows the reachable pairs, under their polls, not ``b``'s size.
    b_edges = [None] * width
    start = a.initial * width + b.initial
    ids = {start: 0}
    order = [start]
    fin = bytearray([fa[a.initial] & fb[b.initial]])
    blank = array("i", [-1]) * k
    table = array("i")
    for key in order:  # ``order`` grows as the walk goes
        budget.checkpoint()
        p, q = divmod(key, width)
        rp, row = p * k, len(table)
        table += blank
        edges = b_edges[q]
        if edges is None:
            edges = b_edges[q] = [(c, t) for c, t in enumerate(tb[q * k:(q + 1) * k])
                                  if t >= 0]
        for c, q2 in edges:
            p2 = ta[rp + c]
            if p2 < 0:
                continue
            pair = p2 * width + q2
            dst = ids.get(pair)
            if dst is None:
                if len(order) >= max_states:
                    raise budget.BudgetExceededError(f"product exceeds {max_states} states")
                dst = ids[pair] = len(order)
                order.append(pair)
                fin.append(fa[p2] & fb[q2])
            table[row + c] = dst
    return Dfa.from_table(a.alphabet, len(order), 0, FinalFlags(fin), table)


# ---------------------------------------------------------------------------
# Minimisation by Moore's refinement
# ---------------------------------------------------------------------------

def lane_scan_by_slots(table: array, n: Optional[int]) -> tuple[int, bool]:
    """The reference for ``automata._lane_scan``: the number of negative
    slots, and whether a slot is below -1 or at least ``n`` (never, when
    ``n`` is ``None``), by ``count``-style and ``min``/``max`` passes over
    the slots one Python int at a time."""
    negatives = sum(1 for t in table if t < 0)
    if n is None or not table:
        return negatives, False
    return negatives, min(table) < -1 or max(table) >= n


def minimize_by_moore(d: Dfa) -> Dfa:
    """The reference for ``minimize``, read off the transition triples.

    The reachable states and one non-final sink make the function total;
    Moore's refinement splits classes by (finality, successor classes) until
    the count stops growing.  Classes that reach no final class are dropped
    with their edges, the initial class is kept, and the rest are numbered
    by BFS from it with symbols in alphabet order.
    """
    names = d.alphabet.names
    delta = {(p, a): q for p, a, q in d.transitions}
    sink = -1
    reach = {d.initial}
    stack = [d.initial]
    while stack:
        p = stack.pop()
        for a in names:
            q = delta.get((p, a))
            if q is not None and q not in reach:
                reach.add(q)
                stack.append(q)
    states = sorted(reach) + [sink]

    def step(p, a):
        return sink if p == sink else delta.get((p, a), sink)

    cls = {p: int(p in d.finals) for p in states}
    while True:
        keys = {p: (cls[p],) + tuple(cls[step(p, a)] for a in names) for p in states}
        numbering = {key: i for i, key in enumerate(sorted(set(keys.values())))}
        refined = {p: numbering[keys[p]] for p in states}
        if len(numbering) == len(set(cls.values())):
            break
        cls = refined
    useful = {cls[p] for p in states if p in d.finals}
    grew = True
    while grew:
        grew = False
        for p in states:
            if cls[p] not in useful and any(cls[step(p, a)] in useful for a in names):
                useful.add(cls[p])
                grew = True
    rep = {}
    for p in states:
        rep.setdefault(cls[p], p)
    ids = {cls[d.initial]: 0}
    queue = [cls[d.initial]]
    triples = set()
    for b in queue:
        for a in names:
            t = cls[step(rep[b], a)]
            if t not in useful:
                continue
            if t not in ids:
                ids[t] = len(ids)
                queue.append(t)
            triples.add((ids[b], a, ids[t]))
    finals = frozenset(ids[b] for b in useful if b in ids and rep[b] in d.finals)
    return Dfa(d.alphabet, len(ids), 0, finals, frozenset(triples))


# ---------------------------------------------------------------------------
# Equivalence over totalised copies of the tables
#
# The reference for ``rexlab.automata.equivalent`` and
# ``shortest_divergence``, which read the partial tables in place.  Here
# each side is first copied into a total table: every -1 slot points at a
# sink row appended to the copy, non-final and looping to itself.  NFA
# inputs go through the library's subset construction, under the same
# ``max_states``.
# ---------------------------------------------------------------------------

def _totalised_side(x: Nfa, max_states: int) -> tuple[list[int], int, frozenset[int], int]:
    """``(table, initial, finals, sink)``, the table a total copy."""
    d = x if isinstance(x, Dfa) else determinize(x, max_states=max_states)
    n, k = d.n_states, len(d.alphabet)
    table = [n if t < 0 else t for t in d.table]
    if n in table:
        table.extend([n] * k)
    return table, d.initial, d.finals, n


def equivalent_by_totalising(a: Nfa, b: Nfa,
                             max_states: int = budget.DEFAULT_MAX_STATES) -> bool:
    """Hopcroft–Karp over totalised copies, each sink in its own class.

    One index space holds the smaller DFA's states, its sink, the other
    DFA's states, its sink; each popped pair merges the classes of its
    successors on every symbol, and the languages differ exactly when two
    states of different finality would be merged.
    """
    sides = sorted((_totalised_side(x, max_states) for x in (a, b)), key=lambda side: side[3])
    (ta, ia, fa, sa), (tb, ib, fb, sb) = sides
    if (ia in fa) != (ib in fb):
        return False
    k = len(a.alphabet)
    off = sa + 1
    parent = list(range(off + sb + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    parent[ib + off] = ia
    stack = [(ia, ib)]
    while stack:
        budget.checkpoint()
        p, q = stack.pop()
        for c in range(k):
            p2, q2 = ta[p * k + c], tb[q * k + c]
            x, y = find(p2), find(q2 + off)
            if x == y:
                continue
            if (p2 in fa) != (q2 in fb):
                return False
            parent[y] = x
            stack.append((p2, q2))
    return True


def shortest_divergence_by_totalising(a: Nfa, b: Nfa,
                                      max_states: int = budget.DEFAULT_MAX_STATES
                                      ) -> Optional[tuple[str, ...]]:
    """Length-lex least word accepted by exactly one side, by BFS over every pair.

    Pairs of totalised states are visited breadth-first with symbols in
    alphabet order, the pair of sinks included; the word is read back along
    the BFS tree from the first pair whose finality differs.
    """
    (ta, ia, fa, _), (tb, ib, fb, _) = (_totalised_side(x, max_states) for x in (a, b))
    names = a.alphabet.names
    k = len(names)
    start = (ia, ib)
    parent: dict[tuple[int, int], Optional[tuple[tuple[int, int], str]]] = {start: None}
    queue = [start]
    for pair in queue:
        budget.checkpoint()
        p, q = pair
        if (p in fa) != (q in fb):
            word = []
            while parent[pair] is not None:
                pair, symbol = parent[pair]
                word.append(symbol)
            return tuple(reversed(word))
        for c, name in enumerate(names):
            nxt = (ta[p * k + c], tb[q * k + c])
            if nxt not in parent:
                parent[nxt] = (pair, name)
                queue.append(nxt)
    return None


# ---------------------------------------------------------------------------
# Walks and their encodings, straight from the definitions
# ---------------------------------------------------------------------------

def path_words(n: int, max_edges: int, even_only: bool = False) -> Iterator[PathWord]:
    for k in range(1, max_edges + 1):
        if even_only and k % 2:
            continue
        for seq in itertools.product(range(n), repeat=k + 1):
            yield PathWord(tuple(seq), n)


def is_z_word(word: Word, n: int) -> bool:
    """Is this symbol sequence a walk on the complete n-vertex graph?"""
    if not word:
        return False
    prev = None
    for name in word:
        if not (name.startswith("a(") and name.endswith(")")):
            return False
        i, j = (int(t) for t in name[2:-1].split(","))
        if not (0 <= i < n and 0 <= j < n):
            return False
        if prev is not None and i != prev:
            return False
        prev = j
    return True


def is_k_string(s: str, n: int) -> bool:
    """Decode a candidate block string by the definition: a non-empty chain of
    enc(j)$enc(i)# blocks with all numbers below n and consecutive blocks
    linked through equal numbers (second of the next = first of the previous)."""
    w = enc_width(n)
    block_len = 2 * w + 2
    if not s or len(s) % block_len:
        return False
    prev_first = None
    for t in range(0, len(s), block_len):
        block = s[t:t + block_len]
        bits1, dollar, bits2, hashmark = (
            block[:w], block[w], block[w + 1:2 * w + 1], block[2 * w + 1])
        if dollar != "$" or hashmark != "#":
            return False
        if not all(c in "01" for c in bits1 + bits2):
            return False
        first, second = int(bits1, 2), int(bits2, 2)
        if first >= n or second >= n:
            return False
        if prev_first is not None and second != prev_first:
            return False
        prev_first = first
    return True


def k_dfa_by_phases(n: int) -> Dfa:
    """The reference for ``k_dfa``: a BFS over phase tuples, probing its
    dictionary on every edge.

    The acceptor of the block encodings of walks, built phase by phase.

    Within a block the machine reads the first number (remembering it as the
    carry for the next block), the ``$``, the second number, and the ``#``.
    The second number of every block after the first is compared bit by bit
    against the previous block's first number; a mismatch simply has no
    transition.  States are (phase, carry, bit position, partial value)
    tuples, so the automaton stays within O(n^2 log n).
    """
    if n < 2:
        raise ValueError("block encodings need n >= 2")
    w = enc_width(n)

    def fits(value: int, bits_read: int) -> bool:
        # Can the partial first/second number still complete below n?
        return (value << (w - bits_read)) < n

    start = ("A", None, 0, 0)
    ids: dict[tuple, int] = {start: 0}
    order: list[tuple] = [start]
    code, k = SIGMA_K.index, len(SIGMA_K)
    table = array("i", [-1]) * k  # slot p * k + c: state p's target on symbol c

    def goto(src: tuple, symbol: str, dst: tuple):
        if dst not in ids:
            ids[dst] = len(ids)
            order.append(dst)
            table.extend((-1,) * k)
        table[ids[src] * k + code[symbol]] = ids[dst]

    i = 0
    while i < len(order):
        budget.checkpoint()
        state = order[i]
        phase = state[0]
        if phase == "A":  # reading the current block's first number
            _, carry, pos, value = state
            for bit in (0, 1):
                v2 = (value << 1) | bit
                if pos + 1 < w:
                    if fits(v2, pos + 1):
                        goto(state, str(bit), ("A", carry, pos + 1, v2))
                elif v2 < n:
                    goto(state, str(bit), ("dollar", carry, v2))
        elif phase == "dollar":
            _, carry, first = state
            if carry is None:
                goto(state, "$", ("B1", first, 0, 0))
            else:
                goto(state, "$", ("B2", first, carry, 0))
        elif phase == "B1":  # first block: any second number below n
            _, first, pos, value = state
            for bit in (0, 1):
                v2 = (value << 1) | bit
                if pos + 1 < w:
                    if fits(v2, pos + 1):
                        goto(state, str(bit), ("B1", first, pos + 1, v2))
                elif v2 < n:
                    goto(state, str(bit), ("hash", first))
        elif phase == "B2":  # later block: must equal the previous first number
            _, first, expected, pos = state
            bit = (expected >> (w - 1 - pos)) & 1
            if pos + 1 < w:
                goto(state, str(bit), ("B2", first, expected, pos + 1))
            else:
                goto(state, str(bit), ("hash", first))
        else:  # "hash": end of block; accepting continuation state
            _, first = state
            goto(state, "#", ("A", first, 0, 0))
        i += 1

    finals = frozenset(ids[s] for s in order
                       if s[0] == "A" and s[1] is not None and s[2] == 0)
    return Dfa.from_table(SIGMA_K, len(ids), 0, finals, table)


def l_dfa_by_parity_product(n: int) -> Dfa:
    """The reference for ``l_dfa``: a second BFS over (block-acceptor state,
    parity of ``#``s) pairs of :func:`k_dfa_by_phases`, followed by the end
    marker from even block ends."""
    base = k_dfa_by_phases(n)
    base_table = base.table
    k = len(SIGMA_K)  # SIGMA_L is SIGMA_K plus the end marker, last
    hash_code = SIGMA_K.index["#"]
    ids: dict[tuple[int, int], int] = {(base.initial, 0): 0}
    order = [(base.initial, 0)]
    table = array("i")
    i = 0
    while i < len(order):
        budget.checkpoint()
        q, parity = order[i]
        for c in range(k):
            t = base_table[q * k + c]
            if t < 0:
                table.append(-1)
                continue
            key = (t, parity ^ (c == hash_code))
            dst = ids.get(key)
            if dst is None:
                dst = len(ids)
                ids[key] = dst
                order.append(key)
            table.append(dst)
        table.append(-1)  # the end marker, filled in below
        i += 1
    accept = len(order)
    for sid, (q, parity) in enumerate(order):
        if parity == 0 and q in base.finals:
            table[sid * (k + 1) + k] = accept
    table.extend([-1] * (k + 1))
    return Dfa.from_table(SIGMA_L, accept + 1, 0, frozenset([accept]), table)


def circled_walk_dfa(n: int, free_from: Optional[int] = None) -> Dfa:
    """Acceptor of the circled-walk language ``M_n``, from the walk's definition.

    A word is one or more blocks ``rt(i) a(i,j*) a(j*,k)``, each block's
    flag naming the vertex the block before it ended at, then the triangle
    ``tr(k)`` of the last block's end vertex.  The states are the start, one
    per vertex after a flag, after an into-circle symbol and after an
    out-of-circle symbol, and the accepting state: 3n + 2 in all.

    With ``free_from`` set, the flag of every block from that one on may name
    any vertex.  That acceptor is wrong only on words of at least
    ``free_from`` blocks, three symbols each, and serves as a negative control.
    """
    cap = free_from or 1  # blocks counted up to here; one count when exact
    ids = {"start": 0}
    triples = set()

    def edge(src, name: str, dst):
        triples.add((ids.setdefault(src, len(ids)), name, ids.setdefault(dst, len(ids))))

    for i in range(n):
        edge("start", f"rt({i})", ("flag", i, 1))
    for b in range(1, cap + 1):
        jump = free_from is not None and b + 1 >= free_from
        for i in range(n):
            for j in range(n):
                edge(("flag", i, b), f"a({i},{j}*)", ("circle", j, b))
                edge(("circle", i, b), f"a({i}*,{j})", ("out", j, b))
            for v in (range(n) if jump else [i]):
                edge(("out", i, b), f"rt({v})", ("flag", v, min(b + 1, cap)))
            edge(("out", i, b), f"tr({i})", "accept")
    return Dfa(m_alphabet(n), len(ids), 0, frozenset([ids["accept"]]), frozenset(triples))


# ---------------------------------------------------------------------------
# Regex text by recursive descent
# ---------------------------------------------------------------------------

_DESCENT_META = set("|&!*+()%'")


class _DescentParser:
    """One method per grammar rule of ``rex.parse``; recurses per nesting level."""

    _STOP = {None, "|", "&", ")"}

    def __init__(self, text: str, alphabet: Alphabet):
        self.text = text
        self.alphabet = alphabet
        self.i = 0

    def error(self, message: str) -> RegexSyntaxError:
        return RegexSyntaxError(message, self.i)

    def peek(self) -> Optional[str]:
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1
        return self.text[self.i] if self.i < len(self.text) else None

    def parse(self) -> Regex:
        node = self.union()
        if self.peek() is not None:
            raise self.error(f"unexpected {self.text[self.i]!r}")
        return node

    def union(self) -> Regex:
        node = self.isect()
        while self.peek() == "|":
            self.i += 1
            node = Union(node, self.isect())
        return node

    def isect(self) -> Regex:
        node = self.concat()
        while self.peek() == "&":
            self.i += 1
            node = Intersect(node, self.concat())
        return node

    def concat(self) -> Regex:
        node = self.prefixed()
        while self.peek() not in self._STOP:
            node = Concat(node, self.prefixed())
        return node

    def prefixed(self) -> Regex:
        if self.peek() == "!":
            self.i += 1
            return Negate(self.prefixed())
        return self.postfix()

    def postfix(self) -> Regex:
        node = self.atom()
        while True:
            c = self.peek()
            if c == "*":
                self.i += 1
                node = Star(node)
            elif c == "+":
                self.i += 1
                node = Plus(node)
            else:
                return node

    def atom(self) -> Regex:
        c = self.peek()
        if c is None:
            raise self.error("expected an atom, found end of input")
        if c == "(":
            self.i += 1
            node = self.union()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.i += 1
            return node
        if c == "%":
            self.i += 1
            if self.i >= len(self.text):
                raise self.error("dangling '%'")
            kind = self.text[self.i]
            self.i += 1
            if kind == "e":
                return EPSILON
            if kind == "0":
                return EMPTY
            raise self.error(f"unknown escape %{kind}")
        if c == "'":
            return Sym(self.quoted())
        if c in _DESCENT_META or not c.isascii():
            raise self.error(f"unexpected {c!r}")
        self.i += 1
        return Sym(self.check_symbol(c))

    def quoted(self) -> str:
        self.i += 1  # opening quote
        out = []
        while self.i < len(self.text):
            c = self.text[self.i]
            if c == "\\" and self.i + 1 < len(self.text) and self.text[self.i + 1] == "'":
                out.append("'")
                self.i += 2
                continue
            if c == "'":
                self.i += 1
                return self.check_symbol("".join(out))
            out.append(c)
            self.i += 1
        raise self.error("unterminated quoted symbol")

    def check_symbol(self, name: str) -> str:
        if name not in self.alphabet:
            raise UnknownSymbolError(name)
        return name


def parse_by_descent(text: str, alphabet: Alphabet) -> Regex:
    """``rex.parse`` by recursive descent, the reference for its loop.

    Raises ``RecursionError`` on text nested deeper than the stack allows.
    """
    return _DescentParser(text, alphabet).parse()


def dataclass_repr(value) -> str:
    """The text of the ``@dataclass``-generated repr, by structural recursion.

    ``ClassName(field=repr(value), ...)`` with the fields in declaration
    order, as the generated ``__repr__`` builds it; the reference for the
    library's explicit-stack ``Regex.__repr__`` on shallow trees.
    """
    if not isinstance(value, Regex):
        return repr(value)
    fields = ", ".join(f"{f.name}={dataclass_repr(getattr(value, f.name))}"
                       for f in dataclasses.fields(value))
    return f"{value.__class__.__qualname__}({fields})"


def length_lex_sorted(words: Iterable[Word], alphabet: Alphabet) -> tuple[Word, ...]:
    """Words sorted by length, then symbol by symbol in the alphabet's order."""
    return tuple(sorted(words, key=lambda w: (len(w), [alphabet.sort_key(s) for s in w])))


T = TypeVar("T")


def _reach_unpolled(starts: Iterable[T], succ: Callable[[T], Iterable[T]]) -> set[T]:
    """The nodes reachable from ``starts`` (included) along ``succ``."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for node in succ(stack.pop()):
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return seen


def word_index_by_toposort(r: Regex, word: Sequence[str],
                           alphabet: Optional[Alphabet] = None) -> IndexResult:
    """The repetition index through a graph of ``(state, position)`` tuples,
    ``graphlib`` for the cycle and a topological order for the heaviest path:
    the reference for ``analysis.word_index``."""
    w = tuple(word)
    if not w:
        raise ValueError("the repeated word must be non-empty")
    sigma = alphabet or _derived_alphabet([*symbols_of(r), *w], None)
    nfa = _as_nfa(r, sigma)
    _check_word(w, sigma)
    succ = _successors_on(nfa, range(len(sigma)))
    reach = _reach_unpolled([nfa.initial], succ)
    rev: list[list[int]] = [[] for _ in range(nfa.n_states)]
    for p in range(nfa.n_states):
        for q in succ(p):
            rev[q].append(p)
    co = _reach_unpolled(nfa.finals, rev.__getitem__)

    L = len(w)
    codes = [sigma.index[s] for s in w]

    # Nodes (q, pos); edge (q,pos) -> (q', pos+1 mod L) on symbol w[pos].
    def succs(node: tuple[int, int]) -> Iterator[tuple[tuple[int, int], int]]:
        q, pos = node
        for q2 in nfa.successors(q, codes[pos]):
            yield (q2, (pos + 1) % L), 1 if pos + 1 == L else 0

    starts = {(q, 0) for q in reach}
    desc = _reach_unpolled(starts, lambda node: [nxt for nxt, _ in succs(node)])
    # The useful part: nodes whose state still reaches a final state.  A path
    # from a start to a useful node stays inside it, because those states are
    # closed under predecessors.
    nodes = {node for node in desc if node[0] in co}
    if not nodes:
        return FINITE(0)  # empty language covers nothing; degenerate by convention
    preds: dict[tuple[int, int], list[tuple[int, int]]] = {node: [] for node in nodes}
    for node in nodes:
        for nxt, _ in succs(node):
            if nxt in nodes:
                preds[nxt].append(node)
    try:
        topo = list(TopologicalSorter(preds).static_order())
    except CycleError:
        return INFINITE  # any cycle inside the useful part pumps

    best = {node: (0 if node in starts and node[0] in reach else None)
            for node in nodes}
    for node in topo:
        b = best.get(node)
        if b is None:
            continue
        for nxt, weight in succs(node):
            if nxt in nodes:
                cand = b + weight
                if best[nxt] is None or cand > best[nxt]:
                    best[nxt] = cand
    candidates = [b for node, b in best.items()
                  if b is not None and node[0] in co]
    return FINITE(max(candidates)) if candidates else FINITE(0)


def covers_by_factor_product(r: Regex, word: Sequence[str],
                             alphabet: Optional[Alphabet] = None) -> bool:
    """Factor cover as emptiness of the product with ``Sigma* word Sigma*``,
    a (len(word) + 1)-state NFA looping on every symbol at both ends: the
    reference for ``analysis.covers``."""
    w = tuple(word)
    sigma = alphabet or _derived_alphabet([*symbols_of(r), *w] or ["a"], None)
    nfa = _as_nfa(r, sigma)
    _check_word(w, sigma)
    last = len(w)
    edges = [(p, s, p) for p in (0, last) for s in sigma.names]
    edges += [(p, s, p + 1) for p, s in enumerate(w)]
    factor = Nfa(sigma, last + 1, 0, FinalFlags(bytes(last) + b"\1"), edges)
    return bool(product(nfa, factor).finals)


def parse_automaton_by_slots(text: str, max_states: int = budget.DEFAULT_MAX_STATES) -> Nfa:
    """Read the format ``automata.serialize`` writes, filling the DFA table
    slot by slot and collecting a second target of a slot as a coded NFA
    edge: the reference for ``automata.parse_automaton``.

    A ``states:`` count above ``max_states`` raises ``BudgetExceededError``
    before anything of that size is allocated.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "automaton v1":
        raise AutomatonFormatError("missing 'automaton v1' header")

    def field(i: int, key: str) -> str:
        if i >= len(lines) or not lines[i].startswith(key + ":"):
            raise AutomatonFormatError(f"expected '{key}:' on line {i + 1}")
        return lines[i][len(key) + 1:].strip()

    try:
        alphabet = Alphabet(tuple(field(1, "alphabet").split()))
        n_states = int(field(2, "states"))
        if n_states > 2 ** 31 - 1:  # state numbers live in array('i') slots
            raise AutomatonFormatError(f"states: {n_states} is above 2**31 - 1")
        if n_states > max_states:
            raise budget.BudgetExceededError(
                f"automaton file of {n_states} states exceeds {max_states} states")
        initial = int(field(3, "initial"))
        finals_text = field(4, "finals")
        finals = frozenset(int(t) for t in finals_text.split()) if finals_text else frozenset()
        # Each line's target goes straight into its slot.  A slot that already
        # holds another target puts the edge, coded ``slot * n + q``, in
        # ``extra``: the file is then an NFA.  The first triple that fits no
        # slot is kept for the constructor to reject, once every line has
        # passed the format checks.
        index, k, n = alphabet.index, len(alphabet), n_states
        table = array("i", [-1]) * (n * k)
        extra: set[int] = set()
        bad = None
        for ln in lines[5:]:
            if not ln.startswith("trans:"):
                raise AutomatonFormatError(f"unexpected line {ln!r}")
            parts = ln[len("trans:"):].split()
            if len(parts) != 3:
                raise AutomatonFormatError(f"bad transition line {ln!r}")
            p, a, q = int(parts[0]), parts[1], int(parts[2])
            c = index.get(a)
            if c is None or not (0 <= p < n and 0 <= q < n):
                if bad is None:
                    bad = (p, a, q)
                continue
            slot = p * k + c
            t = table[slot]
            if t < 0:
                table[slot] = q
            elif t != q:
                extra.add(slot * n + q)
        if bad is not None:
            # Checks initial, finals, then the triple, and raises.
            Nfa(alphabet, n_states, initial, finals, (bad,))
        if not extra:
            return Dfa.from_table(alphabet, n_states, initial, finals, table)
        extra.update(slot * n + q for slot, q in enumerate(table) if q >= 0)
        del table
        return Nfa(alphabet, n_states, initial, finals, _slot_index(alphabet, n, extra, n))
    except (ValueError, IndexError) as exc:
        raise AutomatonFormatError(str(exc)) from exc
