"""Brute-force language oracles and empirical probes.

Everything here is deliberately simple machinery used to cross-check the
constructive modules: finite language enumeration, bounded equality with the
first divergent word, factor cover and repetition index, index filters for
walk alphabets, exhaustive minimal-regex search, and the size blow-up bench.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence, Union as TUnion

from . import budget
from .automata import (
    Dfa,
    Nfa,
    _derived_alphabet,
    determinize,
    eliminate_states,
    equivalent,
    glushkov,
    minimize,
    complement_dfa,
    product,
    extended_to_nfa,
)
from .rex import (
    EMPTY,
    EPSILON,
    Alphabet,
    Concat,
    Empty,
    Epsilon,
    ExtendedOperatorError,
    Regex,
    Star,
    Sym,
    Union,
    children,
    iter_postorder,
    size,
    subexpressions,
    symbols_of,
)
from .unambiguous import complement_unambiguous, intersect_sores
from .witnesses import _bundle_and_alphabet

__all__ = [
    "Word",
    "LanguageOracle",
    "IndexResult",
    "FINITE",
    "INFINITE",
    "RegexSearch",
    "BlowupReport",
    "enumerate_language",
    "equal_upto",
    "covers",
    "word_index",
    "sidekicks",
    "starred_subexpressions",
    "minimal_regex_size",
    "blowup_report",
    "PIPELINES",
]

Word = tuple[str, ...]

DEFAULT_MAX_LEN = 16
DEFAULT_MAX_WORDS = 500_000


def _as_nfa(source: TUnion[Regex, Nfa], alphabet: Optional[Alphabet],
            max_states: int = budget.DEFAULT_MAX_STATES) -> Nfa:
    """An automaton for ``source``: itself, or the compiled expression.

    A plain expression compiles by :func:`glushkov`, one state per symbol
    occurrence; one with intersection or negation by :func:`extended_to_nfa`.
    Callers read only the language, so the route cannot show.  Any other
    refusal of ``glushkov`` stands: the combinators refuse the same input.
    """
    if isinstance(source, Nfa):
        return source
    try:
        return glushkov(source, alphabet)
    except ExtendedOperatorError:
        return extended_to_nfa(source, alphabet, max_states)


@dataclass(frozen=True)
class LanguageOracle:
    """Exact finite slice of a language: all accepted words up to a length.

    Words are tuples of symbol names in length-lex order: by length, then
    symbol by symbol in the alphabet's declared order (not character order).
    ``enumerate_language`` emits them in that order, and callers compare
    ``words`` tuples with ``==``, so the order is part of the contract.
    """

    alphabet: Alphabet
    max_len: int
    words: tuple[Word, ...]

    @cached_property
    def word_set(self) -> frozenset[Word]:
        return frozenset(self.words)

    def __contains__(self, word: Word) -> bool:
        return tuple(word) in self.word_set


def enumerate_language(source: TUnion[Regex, Nfa], max_len: int,
                       alphabet: Optional[Alphabet] = None,
                       max_words: int = DEFAULT_MAX_WORDS) -> LanguageOracle:
    """Enumerate the language slice by BFS over the determinised automaton.

    A plain ``Regex`` compiles by :func:`glushkov`, an extended one by
    :func:`extended_to_nfa`; an automaton is used as given.  Prefixes that
    cannot be completed to an accepted word within the length bound are
    pruned, so sparse languages enumerate quickly even at the fixed bound
    ``DEFAULT_MAX_LEN`` = 16.  A longer ``max_len``, or a slice of more than
    ``max_words`` words, is a typed budget error.

    The words come out in length-lex order with no sort: level L + 1 extends
    level L's prefixes in their order, each by the symbols in alphabet
    order, and pruning only drops words.  A negative ``max_len`` raises
    ``ValueError``.
    """
    if max_len < 0:
        raise ValueError(f"max_len {max_len} is negative")
    if max_len > DEFAULT_MAX_LEN:
        raise budget.BudgetExceededError(
            f"max_len {max_len} above the configured bound {DEFAULT_MAX_LEN}")
    nfa = _as_nfa(source, alphabet)
    dfa = nfa if isinstance(nfa, Dfa) else determinize(nfa)
    sigma = dfa.alphabet

    # Distance from each state to the nearest accepting state (reverse BFS).
    k = len(sigma)
    table = dfa.table
    INF = max_len + 1
    dist = [INF] * dfa.n_states
    frontier = list(dfa.finals)
    for q in frontier:
        dist[q] = 0
    preds = _predecessors(dfa)
    step = 0
    while frontier and step < INF:
        step += 1
        nxt = []
        for q in frontier:
            for p in preds[q]:
                if dist[p] > step:
                    dist[p] = step
                    nxt.append(p)
        frontier = nxt

    words: list[Word] = []
    level: list[tuple[int, Word]] = []
    if dist[dfa.initial] <= max_len:
        level = [(dfa.initial, ())]
    finals = dfa.finals.flags
    if finals[dfa.initial]:
        words.append(())
    names = tuple(enumerate(sigma))
    length = 0
    while level:
        budget.checkpoint()
        length += 1
        slack = max_len - length  # symbols a word of this level may still gain
        nxt_level: list[tuple[int, Word]] = []
        for state, prefix in level:
            row = state * k
            for ci, s in names:
                q = table[row + ci]
                if q < 0 or dist[q] > slack:
                    continue
                word = prefix + (s,)
                if finals[q]:
                    words.append(word)
                    if len(words) > max_words:
                        raise budget.BudgetExceededError(
                            f"language slice exceeds {max_words} words")
                if slack:
                    nxt_level.append((q, word))
        level = nxt_level

    return LanguageOracle(sigma, max_len, tuple(words))


@dataclass(frozen=True)
class EqualUpto:
    equal: bool
    divergent: Optional[Word] = None


def equal_upto(a: TUnion[Regex, Nfa], b: TUnion[Regex, Nfa], max_len: int,
               alphabet: Optional[Alphabet] = None) -> EqualUpto:
    """Compare the enumerated slices; reports the length-lex least disagreement.

    Each slice is bounded and refused as by :func:`enumerate_language`.
    """
    oa = enumerate_language(a, max_len, alphabet)
    ob = enumerate_language(b, max_len, alphabet)
    if oa.alphabet != ob.alphabet:
        raise ValueError("slices taken over different alphabets")
    if oa.words == ob.words:
        return EqualUpto(True)
    diff = oa.word_set ^ ob.word_set
    sigma = oa.alphabet
    divergent = min(diff, key=lambda w: (len(w), [sigma.sort_key(s) for s in w]))
    return EqualUpto(False, divergent)


# ---------------------------------------------------------------------------
# Cover and repetition index
# ---------------------------------------------------------------------------

def _reach(starts: Iterable[int], succ: Callable[[int], Iterable[int]]) -> set[int]:
    """The nodes reachable from ``starts`` (included) along ``succ``; polls once per node."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        budget.checkpoint()
        for node in succ(stack.pop()):
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return seen


def _successors_on(a: Nfa, codes: Iterable[int]) -> Callable[[int], list[int]]:
    """The successors of a state of ``a`` on the symbols numbered in ``codes``."""
    kept = bytes(map(set(codes).__contains__, range(len(a.alphabet))))
    edges = a.transitions._state_edges
    return lambda p: [q for c, q in edges(p) if kept[c]]


def _predecessors(a: Nfa) -> list[list[int]]:
    """Each state's predecessors in ``a``, one per edge; polls once per state."""
    preds: list[list[int]] = [[] for _ in range(a.n_states)]
    edges = a.transitions._state_edges
    for p in range(a.n_states):
        budget.checkpoint()
        for _, q in edges(p):
            preds[q].append(p)
    return preds


def _check_word(word: Word, alphabet: Alphabet):
    for s in word:
        if s not in alphabet:
            raise ValueError(f"symbol {s!r} not in alphabet")


def _trim(nfa: Nfa) -> tuple[set[int], set[int]]:
    """``(useful, live)``: the states that reach a final state, closed under
    predecessors, and those of them reachable from the initial state.  Polls
    once per state in each walk."""
    useful = _reach(nfa.finals, _predecessors(nfa).__getitem__)
    return useful, _reach([nfa.initial], _successors_on(nfa, range(len(nfa.alphabet)))) & useful


def covers(r: Regex, word: Sequence[str], alphabet: Optional[Alphabet] = None) -> bool:
    """Does some word of the language contain ``word`` as a factor?

    Decided by reachability: ``word`` is stepped from the live states of
    :func:`_trim`, keeping only useful ones; polls once per state stepped.
    """
    w = tuple(word)
    # With no symbol at all, emptiness is all that matters: any one will do.
    sigma = alphabet or _derived_alphabet([*symbols_of(r), *w] or ["a"], None)
    nfa = _as_nfa(r, sigma)
    _check_word(w, sigma)
    useful, current = _trim(nfa)
    for s in w:
        c, nxt = sigma.index[s], set()
        for p in current:
            budget.checkpoint()
            nxt.update(q for q in nfa.successors(p, c) if q in useful)
        current = nxt
    return bool(current)


@dataclass(frozen=True)
class IndexResult:
    """Largest number of consecutive repetitions of a word coverable by the
    language, or infinite when repetition pumps without bound."""

    finite: bool
    value: Optional[int] = None

    def __str__(self) -> str:
        return f"Finite({self.value})" if self.finite else "Infinite"


INFINITE = IndexResult(False)


def FINITE(m: int) -> IndexResult:
    return IndexResult(True, m)


def word_index(r: Regex, word: Sequence[str],
               alphabet: Optional[Alphabet] = None) -> IndexResult:
    """Repetition index of ``word`` in the language of ``r``.

    Runs the automaton of ``r`` in product with a cyclic position counter for
    the word; a completed cycle counts one repetition.  Any cycle in the
    useful part of that product pumps repetitions (every cycle crosses the
    wrap edge), so the index is infinite exactly when one exists; otherwise
    the product is acyclic and the answer is the heaviest path.  A copy may
    start at any live state of :func:`_trim`, which handles self-overlapping
    words.  An empty language yields Finite(0) by convention.
    """
    w = tuple(word)
    if not w:
        raise ValueError("the repeated word must be non-empty")
    sigma = alphabet or _derived_alphabet([*symbols_of(r), *w], None)
    nfa = _as_nfa(r, sigma)
    _check_word(w, sigma)
    useful, live = _trim(nfa)

    # Node q * L + pos: state q, next position pos of the word; its edges
    # read w[pos] and enter a node of position 0 when they complete a copy.
    L, codes = len(w), [sigma.index[s] for s in w]
    edges: dict[int, list[int]] = {}
    indegree = {q * L: 0 for q in live}
    stack = list(indegree)
    while stack:
        budget.checkpoint()
        node = stack.pop()
        q, pos = divmod(node, L)
        nxt = (pos + 1) % L
        out = edges[node] = [q2 * L + nxt for q2 in nfa.successors(q, codes[pos])
                             if q2 in useful]
        for t in out:
            if t not in indegree:
                stack.append(t)
            indegree[t] = indegree.get(t, 0) + 1

    # Kahn's order: a node is ready once all its predecessors are done, so a
    # node on or behind a cycle keeps a positive in-degree.
    best = dict.fromkeys(indegree, 0)
    ready = [node for node, d in indegree.items() if not d]
    while ready:
        budget.checkpoint()
        node = ready.pop()
        b = best[node]
        for t in edges[node]:
            best[t] = max(best[t], b + (t % L == 0))
            indegree[t] -= 1
            if not indegree[t]:
                ready.append(t)
    if any(indegree.values()):
        return INFINITE  # any cycle inside the useful part pumps
    return FINITE(max(best.values(), default=0))


# ---------------------------------------------------------------------------
# Walk-alphabet probes
# ---------------------------------------------------------------------------

_EDGE_NAME = re.compile(r"^a\((\d+),(\d+)\)$")


def _edge_indices(name: str) -> tuple[int, int]:
    m = _EDGE_NAME.match(name)
    if not m:
        raise ValueError(f"symbol {name!r} is not an edge label a(i,j)")
    return int(m.group(1)), int(m.group(2))


def sidekicks(r: Regex, alphabet: Optional[Alphabet] = None) -> frozenset[int]:
    """Vertices that occur in every non-empty word of the language.

    The expression must be over edge labels ``a(i,j)``.  A vertex ``i`` fails
    exactly when the language has a non-empty word using no ``a(i,.)`` or
    ``a(.,i)`` symbol, which is a reachability question over the automaton
    restricted to the ``i``-avoiding alphabet.
    """
    sigma = alphabet
    if sigma is None:
        names = symbols_of(r)
        if not names:
            return frozenset()
        sigma = _derived_alphabet(names, None)
    edges = [_edge_indices(name) for name in sigma]
    indices = {i for edge in edges for i in edge}
    nfa = _as_nfa(r, sigma)

    out = set()
    for v in sorted(indices):
        succ = _successors_on(nfa, [c for c, edge in enumerate(edges) if v not in edge])
        # States reachable through at least one allowed edge.
        if _reach(succ(nfa.initial), succ).isdisjoint(nfa.finals):
            out.add(v)
    return frozenset(out)


def starred_subexpressions(r: Regex) -> list[Regex]:
    """All star nodes, outermost first (pre-order)."""
    return [node for node in subexpressions(r) if isinstance(node, Star)]


# ---------------------------------------------------------------------------
# Exhaustive minimal-regex search
# ---------------------------------------------------------------------------

MAX_SEARCH_SIZE = 9


@dataclass(frozen=True)
class RegexSearch:
    """Outcome of the exhaustive search: the least size and a witness when one
    exists within the bound, plus the number of candidates examined."""

    minimal_size: Optional[int]
    witness: Optional[Regex]
    examined: int


_KEY_TAGS = {Empty: 0, Epsilon: 1, Sym: 2, Star: 3, Concat: 4, Union: 5}


def _ast_key(r: Regex) -> tuple:
    """A tuple that orders plain expressions: a tag per node class, then the
    symbol or the children's keys, built bottom-up over the post-order walk."""
    keys: list[tuple] = []  # keys of the finished subtrees, leftmost first
    for node in iter_postorder(r):
        tag = _KEY_TAGS.get(type(node))
        if tag is None:
            raise TypeError(node)
        if tag == 2:
            keys.append((2, node.sym))
        else:
            first = len(keys) - len(children(node))
            keys[first:] = [(tag, *keys[first:])]
    return keys[0]


def _canonical_candidate(r: Regex) -> bool:
    """Prune candidates with an equal-language strictly smaller or
    earlier-ordered sibling.

    All rules are language-preserving rewrites that shrink or reorder:
    dropping the empty language from anything, epsilon from concatenations
    and from starred unions, nested or trivial stars, duplicate or unsorted
    union members, and left-nested associativity variants.
    """
    if isinstance(r, Star):
        t = r.inner
        if isinstance(t, (Empty, Epsilon, Star)):
            return False
        if isinstance(t, Union) and (isinstance(t.left, Epsilon) or isinstance(t.right, Epsilon)):
            return False
        return True
    if isinstance(r, Concat):
        if isinstance(r.left, (Empty, Epsilon)) or isinstance(r.right, (Empty, Epsilon)):
            return False
        if isinstance(r.left, Concat):  # force right-nested chains
            return False
        return True
    if isinstance(r, Union):
        if isinstance(r.left, (Empty, Union)) or isinstance(r.right, Empty):
            return False
        head = r.right.left if isinstance(r.right, Union) else r.right
        return _ast_key(r.left) < _ast_key(head)
    return True


def _candidates(s: int, atoms: list[Regex], memo: dict[int, list[Regex]]) -> list[Regex]:
    """The canonical candidates of size ``s``; ``memo`` holds those of sizes
    1 to ``len(memo)`` and is filled bottom-up to ``s``."""
    if not memo:
        memo[1] = list(atoms)
    for m in range(len(memo) + 1, s + 1):
        out = [c for c in map(Star, memo[m - 1]) if _canonical_candidate(c)]
        for left_size in range(1, m - 1):
            out += [c for left in memo[left_size] for right in memo[m - 1 - left_size]
                    for c in (Concat(left, right), Union(left, right))
                    if _canonical_candidate(c)]
        memo[m] = out
    return memo[s]


def minimal_regex_size(target: Dfa, max_size: int) -> RegexSearch:
    """Exhaustively search plain regexes (no negation/intersection/plus) over
    the target's alphabet for the least reverse-Polish size defining its
    language.

    Candidates are generated in size order with language-preserving pruning;
    each survivor is first screened by a finite language slice and only slice
    matches pay for a full equivalence check.  A ``max_size`` above
    ``MAX_SEARCH_SIZE``, or more than ``DEFAULT_MAX_WORDS`` candidates, is a
    typed budget error.
    """
    if max_size > MAX_SEARCH_SIZE:
        raise budget.BudgetExceededError(
            f"max_size {max_size} above the search budget {MAX_SEARCH_SIZE}")
    atoms: list[Regex] = [EMPTY, EPSILON] + [Sym(s) for s in target.alphabet]
    fingerprint_len = min(2 * max(target.n_states, 1) + 2, DEFAULT_MAX_LEN)
    target_slice = enumerate_language(target, fingerprint_len).words

    examined = 0
    memo: dict[int, list[Regex]] = {}
    for s in range(1, max_size + 1):
        for cand in _candidates(s, atoms, memo):
            budget.checkpoint()
            examined += 1
            if examined > DEFAULT_MAX_WORDS:
                raise budget.BudgetExceededError(
                    f"search exceeds {DEFAULT_MAX_WORDS} candidates")
            cand_nfa = glushkov(cand, target.alphabet)
            try:
                cand_slice = enumerate_language(
                    cand_nfa, fingerprint_len,
                    max_words=len(target_slice) + 1).words
            except budget.BudgetExceededError:
                continue  # more words than the target within the bound
            if cand_slice != target_slice:
                continue
            if equivalent(cand_nfa, target):
                return RegexSearch(s, cand, examined)
    return RegexSearch(None, None, examined)


# ---------------------------------------------------------------------------
# Blow-up bench
# ---------------------------------------------------------------------------

_PIPELINE_SPECS = {  # pipeline: (families it applies to, the paper's bound)
    "complement-naive": ({"complement-witness"}, "doubly exponential"),
    "complement-unambiguous": ({"unamb-family"}, "polynomial"),
    "intersect-product": ({"unamb-family", "m-sore-pair"}, "doubly exponential"),
    "intersect-sore": ({"m-sore-pair"}, "singly exponential"),
}
PIPELINES = tuple(_PIPELINE_SPECS)


@dataclass(frozen=True)
class BlowupRow:
    n: int
    input_size: int
    output_size: Optional[int]  # None marks a blown budget
    wall_ms: float


@dataclass(frozen=True)
class BlowupReport:
    family: str
    pipeline: str
    bound_label: str
    rows: tuple[BlowupRow, ...]

    def to_csv(self) -> str:
        lines = ["family,n,input_size,output_size,wall_ms"]
        for row in self.rows:
            out = "NA" if row.output_size is None else str(row.output_size)
            lines.append(f"{self.family},{row.n},{row.input_size},{out},{row.wall_ms:.1f}")
        return "\n".join(lines) + "\n"


def blowup_report(family: str, ns: Sequence[int], pipeline: str,
                  max_states: int = budget.DEFAULT_MAX_STATES,
                  max_output: int = 2_000_000) -> BlowupReport:
    """Measure input/output sizes for a witness family through a pipeline.

    ``ns`` must increase strictly; each value is checked as its row is
    reached, so a lazy ``range`` is never listed.  Budget blow-ups mark the
    row (output size absent) rather than dropping it.
    ``max_states`` caps each subset construction and product.  ``max_output``
    caps the nodes that :func:`eliminate_states` creates, not the reported
    output ``size``: those nodes share subtrees, so a row within the cap can
    report a far larger size.  ``blowup_report("unamb-family", [1, 3],
    "intersect-product", max_states=5000, max_output=50_000)`` reports
    16,921,714 at n=3.
    """
    if pipeline not in PIPELINES:
        raise ValueError(f"unknown pipeline {pipeline!r}; choose from {PIPELINES}")
    families, bound = _PIPELINE_SPECS[pipeline]
    if family not in families:
        raise ValueError(f"pipeline {pipeline!r} does not apply to family {family!r}")

    rows = []
    for n in ns:
        if rows and n <= rows[-1].n:
            raise ValueError("parameter values must be strictly increasing")
        start = time.perf_counter()
        bundle, sigma = _bundle_and_alphabet(family, n)
        payload = bundle.payload  # one expression, or a list or pair of them
        try:
            if pipeline == "complement-naive":
                dfa = minimize(determinize(glushkov(payload, sigma), max_states=max_states))
                output = size(eliminate_states(complement_dfa(dfa), max_size=max_output))
            elif pipeline == "complement-unambiguous":
                output = max(size(complement_unambiguous(e, sigma)) for e in payload)
            elif pipeline == "intersect-sore":
                output = size(intersect_sores(payload, sigma))
            else:  # intersect-product
                acc = glushkov(payload[0], sigma)
                for e in payload[1:]:
                    acc = product(acc, glushkov(e, sigma), max_states=max_states)
                output = size(eliminate_states(acc, max_size=max_output))
        except budget.BudgetExceededError:
            output = None
        wall_ms = (time.perf_counter() - start) * 1000.0
        rows.append(BlowupRow(n, bundle.declared_size, output, wall_ms))
    return BlowupReport(family, pipeline, bound, tuple(rows))
