"""One-unambiguous regexes, SOREs, the polynomial complement, and local languages.

A plain regex is one-unambiguous when positions of an input can be matched
against its symbol occurrences without lookahead; operationally, exactly when
its position automaton is deterministic.  For such expressions the complement
can be assembled directly from the first/follow/last data as a polynomial-size
plain regex, instead of the determinise-complement-eliminate route.

Single-occurrence regexes (every alphabet symbol at most once) define local
languages, which makes their intersection a profile intersection followed by
one small state elimination.
"""

from __future__ import annotations

import gc
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Sequence

from . import budget
from .automata import Dfa, FinalFlags, eliminate_states
from .rex import (
    EMPTY,
    EPSILON,
    Alphabet,
    Concat,
    ExtendedOperatorError,
    MarkedSymbol,
    Plus,
    Regex,
    RexlabError,
    Star,
    Sym,
    Union,
    _position_masks,
    format_regex,
    has_extended,
    iter_bits,
    sconcat,
    set_expr,
    sunion,
    symbols_of,
)

__all__ = [
    "UnambiguityReport",
    "LocalProfile",
    "NotOneUnambiguousError",
    "NotSoreError",
    "is_one_unambiguous",
    "is_sore",
    "nfirst",
    "nfollow",
    "last_marked",
    "init_expr",
    "prefix_to",
    "complement_unambiguous",
    "local_profile",
    "profile_intersection",
    "profile_to_dfa",
    "intersect_sores",
]


class NotOneUnambiguousError(RexlabError):
    pass


class NotSoreError(RexlabError):
    pass


@dataclass(frozen=True)
class UnambiguityReport:
    """Outcome of the one-unambiguity test.

    When the expression fails, ``witness`` carries a marked word ``u`` and two
    distinct positions ``x``, ``y`` with the same base symbol such that both
    ``ux...`` and ``uy...`` extend to words of the marked language.
    """

    is_one_unambiguous: bool
    witness: Optional[tuple[tuple[MarkedSymbol, ...], MarkedSymbol, MarkedSymbol]] = None


@dataclass(frozen=True)
class LocalProfile:
    """First/last/follow data over unmarked symbols, plus epsilon membership."""

    nullable: bool
    first: frozenset[str]
    last: frozenset[str]
    follow: frozenset[tuple[str, str]]


def _masks(r: Regex) -> tuple[list[str], bool, int, int, list[int], list[int]]:
    """``rex._position_masks`` of ``r``, whose errors name marking.

    Position ``x`` stands for ``MarkedSymbol(syms[x - 1], x)``, built only for
    results that hold one; its follow set is ``follow[x] << lows[x]``.
    """
    try:
        return _position_masks(r)
    except ExtendedOperatorError:
        raise ExtendedOperatorError("marking is defined for plain regexes only") from None


def _position_of(syms: list[str], x: MarkedSymbol) -> int:
    if (isinstance(x, MarkedSymbol) and isinstance(x.occurrence, int)
            and 0 < x.occurrence <= len(syms) and syms[x.occurrence - 1] == x.base):
        return x.occurrence
    raise ValueError(f"unknown marked symbol {x}")


def _bases(syms: list[str], mask: int) -> set[str]:
    return {syms[y - 1] for y in iter_bits(mask)}


def _first_fork(masks: tuple) -> Optional[tuple]:
    """The witness at the first state, in BFS order, whose successors share a
    base symbol; state 0 steps to ``first`` and position ``x`` to
    ``follow[x] << lows[x]``."""
    syms, _, first, _, follow, lows = masks
    parent = [-1] * (len(syms) + 1)
    queue = [0]
    for state in queue:  # grows while it is walked
        clash: dict[str, int] = {}
        for y in iter_bits(follow[state] << lows[state] if state else first):
            other = clash.setdefault(syms[y - 1], y)
            if other != y:
                path = []
                while state:
                    path.append(MarkedSymbol(syms[state - 1], state))
                    state = parent[state]
                return (tuple(reversed(path)), MarkedSymbol(syms[other - 1], other),
                        MarkedSymbol(syms[y - 1], y))
            if parent[y] < 0:
                parent[y] = state
                queue.append(y)
    return None


def is_one_unambiguous(r: Regex) -> UnambiguityReport:
    """Test via determinism of the position automaton.

    The witness comes from the first nondeterministic fork along a BFS of the
    automaton (shortest ``u``, tie-broken by occurrence subscripts).
    """
    witness = _first_fork(_masks(r))
    return UnambiguityReport(witness is None, witness)


def is_sore(r: Regex) -> bool:
    """True when no symbol occurs twice and no extended operator appears."""
    if has_extended(r):
        return False
    names = symbols_of(r)
    return len(names) == len(set(names))


def _unambiguous_masks(r: Regex) -> tuple[list[str], bool, int, int, list[int], list[int]]:
    witness = _first_fork(masks := _masks(r))
    if witness is not None:
        raise NotOneUnambiguousError(
            f"expression is not one-unambiguous (witness {witness})")
    return masks


def nfirst(r: Regex, alphabet: Alphabet) -> frozenset[str]:
    """Symbols that begin no word of the language."""
    syms, _, first, _, _, _ = _unambiguous_masks(r)
    return frozenset(alphabet) - _bases(syms, first)


def nfollow(r: Regex, x: MarkedSymbol, alphabet: Alphabet) -> frozenset[str]:
    """Symbols no marked version of which can follow position ``x``."""
    syms, _, _, _, follow, lows = _masks(r)
    i = _position_of(syms, x)
    return frozenset(alphabet) - _bases(syms, follow[i] << lows[i])


def last_marked(r: Regex) -> frozenset[MarkedSymbol]:
    """Positions that end some word of the marked language."""
    syms, _, _, last, _, _ = _unambiguous_masks(r)
    return frozenset(MarkedSymbol(syms[x - 1], x) for x in iter_bits(last))


def _gap(syms: list[str], mask: int, alphabet: Alphabet, sigma_star: Regex) -> Regex:
    """Words that start with a symbol that no position in ``mask`` carries."""
    return sconcat(set_expr(frozenset(alphabet) - _bases(syms, mask), alphabet), sigma_star)


def _init_expr(masks: tuple, alphabet: Alphabet) -> Regex:
    syms, nullable, first, _, _, _ = masks
    head = _gap(syms, first, alphabet, Star(set_expr(alphabet, alphabet)))
    return head if nullable else Union(EPSILON, head)


def init_expr(r: Regex, alphabet: Alphabet) -> Regex:
    """Words whose very first symbol already leaves the language.

    Two cases: with the empty word in the language the result is
    ``nfirst . Sigma*``; without it, ``eps + nfirst . Sigma*``.  An empty
    nfirst set collapses the concatenation to the empty-language expression.
    """
    return _init_expr(_unambiguous_masks(r), alphabet)


def _prefix_chains(r: Regex) -> list[tuple[Sym, Optional[tuple]]]:
    """Each position's leaf and chain of wrappers, in position order.

    From the leaf up, a concatenation with the position on its right puts its
    left child in front, and a star or plus its starred body (one ``Star`` per
    node; a star is its own).  A chain is a linked list ``(wrapper, rest)``,
    innermost first, shared by the positions below a node.
    """
    out = []
    stack: list[tuple[Regex, Optional[tuple]]] = [(r, None)]
    while stack:
        node, chain = stack.pop()
        if isinstance(node, Sym):
            out.append((node, chain))
        elif isinstance(node, Concat):
            stack.append((node.right, (node.left, chain)))
            stack.append((node.left, chain))
        elif isinstance(node, Union):
            stack.append((node.right, chain))
            stack.append((node.left, chain))
        elif isinstance(node, (Star, Plus)):
            star = node if isinstance(node, Star) else Star(node.inner)
            stack.append((node.inner, (star, chain)))
    return out


def _prefix(leaf: Sym, chain: Optional[tuple]) -> Regex:
    acc: Regex = leaf
    while chain is not None:
        wrapper, chain = chain
        acc = Concat(wrapper, acc)
    return acc


def prefix_to(r: Regex, x: MarkedSymbol) -> Regex:
    """Unmarked expression for the prefixes of marked words that end at ``x``.

    Concatenation keeps the left part whole when ``x`` lies to the right;
    star/plus allow any number of full iterations before a partial one
    reaching ``x``; unions project on the branch containing ``x``.
    """
    return _prefix(*_prefix_chains(r)[_position_of(_masks(r)[0], x) - 1])


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, and resume it on the way out only
    if it was running on the way in."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def complement_unambiguous(r: Regex, alphabet: Alphabet) -> Regex:
    """Plain regex for the complement of a one-unambiguous expression.

    Assembles (a) words broken at their first symbol, (b) for every
    non-word-ending position, the prefixes reaching it either ending there or
    continuing with a forbidden symbol, and (c) for word-ending positions, the
    prefixes continuing with a forbidden symbol.  Empty-set pieces are
    simplified away (``%0 . r = %0``, ``%0 | r = r``) before size reporting.
    The output is a plain regex of size polynomial in the input; it takes
    time about quadratic in the input, one prefix per position.

    The output is built bottom up from immutable nodes and holds no cycle,
    so the cyclic garbage collector, which would otherwise walk the growing
    tree over and over, is paused for the call.  The collector's switch is
    process-wide: other threads run without it until the call returns or
    raises, and then it is on again only if it was on before.

    A symbol of ``r`` outside ``alphabet`` is refused with the message of
    :func:`intersect_sores`, since the complement is taken within
    ``alphabet``.
    """
    with _collector_paused():
        masks = syms, _, _, last, follow, lows = _unambiguous_masks(r)
        for name in syms:
            if name not in alphabet:
                raise ValueError(f"symbol {name!r} not in the declared alphabet")
        sigma_star = Star(set_expr(alphabet, alphabet))
        out = _init_expr(masks, alphabet)
        for x, (leaf, chain) in enumerate(_prefix_chains(r), 1):
            budget.checkpoint()
            gap = _gap(syms, follow[x] << lows[x], alphabet, sigma_star)
            tail = gap if last >> x & 1 else sunion(EPSILON, gap)
            out = sunion(out, sconcat(_prefix(leaf, chain), tail))
        return out


# ---------------------------------------------------------------------------
# Local languages / SORE intersection
# ---------------------------------------------------------------------------

def local_profile(r: Regex) -> LocalProfile:
    """Unmarked position sets of a SORE; well defined since symbols are unique."""
    if not is_sore(r):
        raise NotSoreError(f"not a single-occurrence regex: {r}")
    syms, nullable, first, last, follow, lows = _masks(r)
    return LocalProfile(
        nullable=nullable,
        first=frozenset(_bases(syms, first)),
        last=frozenset(_bases(syms, last)),
        follow=frozenset((syms[x - 1], syms[y - 1])
                         for x in range(1, len(follow)) for y in iter_bits(follow[x] << lows[x])),
    )


def profile_intersection(profiles: Sequence[LocalProfile]) -> LocalProfile:
    out = profiles[0]
    for p in profiles[1:]:
        out = LocalProfile(
            nullable=out.nullable and p.nullable,
            first=out.first & p.first,
            last=out.last & p.last,
            follow=out.follow & p.follow,
        )
    return out


def profile_to_dfa(profile: LocalProfile, alphabet: Alphabet) -> Dfa:
    """The canonical local-language acceptor: one state per symbol plus start."""
    code, k = alphabet.index, len(alphabet)
    foreign = (profile.first | profile.last).union(*profile.follow) - code.keys()
    if foreign:
        raise ValueError(f"symbol {min(foreign)!r} not in the declared alphabet")
    table = array("i", [-1]) * ((k + 1) * k)
    for a in profile.first:
        table[code[a]] = code[a] + 1
    for a, b in profile.follow:
        table[(code[a] + 1) * k + code[b]] = code[b] + 1
    finals = bytearray([profile.nullable]) + bytes(k)
    for a in profile.last:
        finals[code[a] + 1] = 1
    return Dfa.from_table(alphabet, k + 1, 0, FinalFlags(finals), table)


def intersect_sores(rs: Sequence[Regex], alphabet: Alphabet) -> Regex:
    """Plain regex for the intersection of single-occurrence regexes.

    Profiles are intersected component-wise, realised as the local-language
    DFA over at most len(alphabet)+1 states, and converted back by state
    elimination.  Only the profile step is linear in the total input size;
    elimination grows with the alphabet, about fourfold per symbol on a
    complete local automaton: ``(a|b|c|d|e|f)*`` intersected with itself
    prints as 8,872 characters, with ``g`` added 35,496 and with ``h`` 141,992.
    """
    if not rs:
        raise ValueError("need at least one expression")
    profiles = []
    for r in rs:
        if not is_sore(r):
            raise NotSoreError(f"not a single-occurrence regex: {format_regex(r)}")
        for name in symbols_of(r):
            if name not in alphabet:
                raise ValueError(f"symbol {name!r} not in the declared alphabet")
        profiles.append(local_profile(r))
    merged = profile_intersection(profiles)
    if not merged.first:
        # No word can start: the intersection is {eps} or empty outright.
        return EPSILON if merged.nullable else EMPTY
    return eliminate_states(profile_to_dfa(merged, alphabet))
