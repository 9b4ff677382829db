"""Finite automata over explicit alphabets and the standard conversions.

The model is epsilon-free: an NFA is (states 0..n-1, initial, finals,
transition triples).  DFAs are NFAs whose transition relation is a partial
function; a missing transition rejects.  The reported size of an automaton is
the number of states plus the number of transitions.  Every automaton keeps
its finals in one form, a :class:`FinalFlags` of one byte per state, which
the constructions write and the walks read directly; a walk that adds a sink
reads the sink's flag from a 0 byte appended to them.

Every automaton indexes its successors by slot ``p * k + c``, state ``p`` on
the ``c``-th of ``k`` symbols, and keeps its transitions once, in
``transitions``, as one of three stores.  A DFA keeps a
:class:`TransitionTable`, a row-major ``array('i')`` with one target per slot
and -1 for a missing edge.  An NFA keeps a :class:`TransitionIndex`, two
``array('i')``s in compressed sparse row form: slot ``s`` holds the ascending
targets ``targets[starts[s]:starts[s + 1]]``.  A Glushkov NFA keeps a
:class:`TransitionMasks` instead: the construction's follow masks, one int
row and one offset per state with bit ``q`` of ``rows[p] << lows[p]`` set
for each target ``q``, and one entry code per state, the index of the one
symbol that enters it (-1 for none).  Each store is a read-only set of
``(p, symbol, q)`` triples with two readers: ``_state_edges(p)``, one state's
``(c, q)`` edges, and ``_slot_edges()``, the ``(slot, q)`` edges of all states.
The constructors turn triples, or a store of another kind, into their own
kind and keep nothing else; the constructions write a table or an index
directly.  :func:`parse_automaton` streams a file's triples into the DFA
constructor and, when two of them share a slot, into the NFA constructor.

:func:`extended_to_nfa` writes each edge once, in the numbering of one
pre-order walk, to one int list: ``(p, c, q)`` is one int, so moving a span
of states is one addition per edge.  An operand of a product or a subset
construction, and the result, is cut from the end of the list into an index.

Subset construction takes one successor int per NFA state: the rows of a
mask store shifted by their offsets, for any other store an OR over its
edges.  It cuts each subset into four slices of ``ceil(n / 4)`` bits.  The
union of a slice's successor ints comes from a memo keyed by the slice
value; a miss walks the slice's bits and ORs their ints, so a mask store's
row is shifted into place only on a miss.  This is the Four Russians table
of Arlazarov, Dinic, Kronrod and Faradzev (1970), filled lazily: the n = 2
complement witness visits 1.8M subsets but fewer than 10,000 distinct
slices.  A miss is stored only while the memo holds fewer entries than the
subsets discovered so far, so it never holds more ints than the subset store
itself.  Glushkov automata are homogeneous (every state is entered on one
symbol only), so symbol ``c``'s successor set is the union masked by the
states entered on ``c``, one entry mask per symbol read from the entry
codes in one pass.  Other inputs pack symbol ``c``'s targets at bit
offset ``c * n``.  A homogeneous NFA whose non-initial states fall into
parts with no edge between them, once its walk passes ``n * n`` subsets, is
determinised part by part and the part DFAs are joined by a product walk
that keys each pair by its sides (see :func:`determinize`).

The Glushkov construction makes one iterative post-order walk over the
unmarked tree (``rex._position_masks``).  It numbers the symbol leaves 1..n
as it meets them, keeps each node's first and last sets as int bitmasks, and
merges follow contributions into one row per position, an int kept relative
to the row's lowest target, with that target as its offset: a ``Concat``
adds its right child's first set to the rows of its left child's last
positions, a ``Star`` or ``Plus`` adds its own first set to the rows of its
last positions, and a ``Concat`` denoting the empty language clears the
rows of its positions.  A merge shifts whichever side has the higher offset
onto the other, so a row costs the span of its targets rather than its
highest position, and the rows of a sparse NFA take memory in step with its
edges.  No node copies a follow set.  While no two targets of a row
share a symbol the rows are written straight into ``Dfa.table``, which
grows one row per row found deterministic; otherwise the NFA keeps them in
a mask store, beside the entry codes the table was written through.  The
product of two DFAs likewise walks both tables and writes its own; any
other product walks the slots of both inputs and writes an index, which
becomes a table when no slot of it holds two targets, the rule that the
Glushkov construction and :func:`parse_automaton` keep too.  Both walks
find pair ``(p, q)``'s number in a dict of right state ``q`` keyed by left
state ``p``, made when a pair first reaches ``q``.  Like the join of
:func:`determinize`, they keep only the pairs still to walk, as two flat
lists of sides: each step walks a chunk from the front, reads its finals
in one pass and deletes it.

Minimisation sorts a DFA's transitions by target slot into one preimage
index, ``sources[starts[s]:starts[s + 1]]`` the states entering slot ``s``.
A backward walk over it keeps the states that reach a final state, so the
partial function needs no sink and the result no later trimming.  The same
index drives Hopcroft's refinement in the form of Valmari and Lehtinen
(STACS 2008) for partial functions, over one refinable partition kept in
``array('i')``s: the states grouped by block, each state's location and
block, and each block's bounds.  The blocks are then numbered by BFS from
the initial state, so states it does not reach are refined but never
numbered.

Equivalence reads both DFA tables in place.  Each side's sink is state
``n_states``, which has no row: a -1 slot steps to it and its own slots all
read as -1.  Both sinks accept nothing, so the Hopcroft–Karp walk starts
them in one class, and a slot missing on both sides is skipped.

Conversions here: Glushkov position automaton, compilation of extended
regexes (intersection via products, negation via determinise-and-complement),
subset construction, DFA complement, product, minimisation by partition
refinement with a canonical serialisation, Hopcroft–Karp language
equivalence, and state elimination back to a plain regex.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, deque
from collections.abc import Set
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import add, and_, gt, is_, le, lshift, ne, or_, rshift
from typing import Iterable, Optional

from . import budget
from .rex import (
    EMPTY,
    EPSILON,
    Alphabet,
    Concat,
    Empty,
    Epsilon,
    Intersect,
    Negate,
    Plus,
    Regex,
    RexlabError,
    Star,
    Sym,
    Union,
    _position_masks,
    children,
    iter_bits,
    iter_postorder,
    sconcat,
    sstar,
    sunion,
    symbols_of,
)

__all__ = [
    "Nfa",
    "Dfa",
    "FinalFlags",
    "TransitionTable",
    "TransitionIndex",
    "TransitionMasks",
    "AlphabetMismatchError",
    "AutomatonFormatError",
    "glushkov",
    "extended_to_nfa",
    "determinize",
    "complement_dfa",
    "product",
    "minimize",
    "equivalent",
    "eliminate_states",
    "accepts",
    "serialize",
    "parse_automaton",
    "shortest_divergence",
]


class AlphabetMismatchError(RexlabError):
    """Binary automaton operations require identical alphabets."""


class AutomatonFormatError(RexlabError):
    """Malformed automaton file."""


class _FrozenView(Set):
    """A read-only set over a store of its own: its hash agrees with the
    frozenset of the same items and is computed once and kept, and set
    operators (|, &, -, ^) return plain frozensets."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        # ``Set._hash`` walks every item, so it runs once per object.
        if self._hash is None:
            self._hash = Set._hash(self)
        return self._hash

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({sorted(self)!r})"


class _TripleView(_FrozenView):
    """Read-only set of ``(p, symbol, q)`` triples over one transition store.

    A store keeps ``alphabet`` and has two readers: ``_state_edges(p)``,
    the ``(c, q)`` edges of state ``p >= 0``, targets ascending within each
    symbol and none for a state it does not hold, and ``_slot_edges()``, all
    its ``(slot, q)`` pairs state by state.  It also has ``_check(alphabet,
    n_states)``, which raises ``ValueError`` unless it fits that automaton,
    and ``len``.  Equality agrees with the frozenset of the same triples.
    """

    __slots__ = ()

    def __contains__(self, item: object) -> bool:
        try:
            p, a, q = item  # type: ignore[misc]
            c = self.alphabet.index.get(a)  # type: ignore[attr-defined]
        except (TypeError, ValueError):
            return False
        if c is None or not isinstance(p, int) or p < 0:
            return False
        return (c, q) in self._state_edges(p)  # type: ignore[attr-defined]

    def _state_slots(self, p: int) -> list:
        """The targets of state ``p``'s ``k`` slots in symbol order, ascending."""
        slots: list = [()] * len(self.alphabet.names)  # type: ignore[attr-defined]
        for c, q in self._state_edges(p):  # type: ignore[attr-defined]
            if slots[c]:
                slots[c].append(q)
            else:
                slots[c] = [q]
        return slots

    def __iter__(self):
        names = self.alphabet.names  # type: ignore[attr-defined]
        k = len(names)
        for slot, q in self._slot_edges():  # type: ignore[attr-defined]
            yield slot // k, names[slot % k], q


# Kept for a full lane block only, 16 KB at the default block size: a
# shorter block takes its low lanes by one shift, whose cost follows them.
@lru_cache(maxsize=1)
def _lane_ones(lanes: int, size: int) -> int:
    """An int of ``lanes`` lanes of ``size`` bytes in native order, each
    lane holding 1."""
    return int.from_bytes((1).to_bytes(size, sys.byteorder) * lanes, sys.byteorder)


def _lane_scan(table: array, n: Optional[int], lo: int = 0,
               hi: Optional[int] = None) -> tuple[int, bool]:
    """``(negatives, stray)`` over slots ``lo:hi`` of ``table``: how many
    slots are negative, and whether any is below -1 or at least ``n``
    (never, when ``n`` is ``None``).

    The slots are read ``_TABLE_BLOCK >> 4`` at a time as one int ``x``,
    one ``w``-bit lane per slot in two's complement, and each test is a few
    int operations on the whole block, so no slot becomes a Python int.
    ``ones`` holds 1 in every lane.  ``neg`` keeps each lane's sign bit, and
    ``spread`` is all ones in each negative lane, which only -1 matches.
    With the negative lanes flipped (-1 to 0), adding ``2**(w - 1) - n``
    (0 for a larger ``n``) to every lane carries into the sign bit exactly the lanes at or above
    ``n``, and never into the next lane; the sign bits read are those of
    the lanes that were not negative, so that for ``n = 0`` a -1 is no
    stray.
    """
    size = table.itemsize
    w = 8 * size
    top = w - 1
    step = _TABLE_BLOCK >> 4 or 1
    if hi is None:
        hi = len(table)
    lift = None if n is None else (1 << top) - n if n < 1 << top else 0
    full = _lane_ones(step, size)
    negatives, stray = 0, False
    ones = None
    for a in range(lo, hi, step):
        b = a + step if a + step < hi else hi
        x = int.from_bytes(table[a:b] if a or b < len(table) else table, sys.byteorder)
        # Made once for the full blocks, and once more for a short last one.
        if ones is None or b - a < step:
            ones = full >> w * (step - (b - a))
            signs, lifted = ones << top, ones * lift if lift else 0
        neg = x & signs
        negatives += neg.bit_count()
        if lift is None or stray:
            continue
        spread = (neg >> top) * ((1 << w) - 1)
        stray = x & spread != spread or bool(((x ^ spread) + lifted) & (signs ^ neg))
    return negatives, stray


class TransitionTable(_TripleView):
    """Triples over a flat DFA table: slot ``p * k + c`` holds the target of
    state ``p`` on the ``c``-th symbol of ``alphabet``, -1 when the edge is
    missing.  ``len`` counts the slots that hold a target, those ``>= 0``,
    and the range check reads the table in int lanes (:func:`_lane_scan`)."""

    __slots__ = ("alphabet", "table")

    def __init__(self, alphabet: Alphabet, table: Iterable[int]):
        if not (isinstance(table, array) and table.typecode == "i"):
            table = array("i", table)
        self.alphabet = alphabet
        self.table = table
        self._hash = None

    def __len__(self) -> int:
        return len(self.table) - _lane_scan(self.table, None)[0]

    def _state_edges(self, p: int):
        k = len(self.alphabet.names)
        return [(c, q) for c, q in enumerate(self.table[p * k:p * k + k]) if q >= 0]

    def _slot_edges(self):
        return ((slot, q) for slot, q in enumerate(self.table) if q >= 0)

    def _check(self, alphabet: Alphabet, n: int):
        table, k = self.table, len(alphabet)
        if self.alphabet != alphabet:
            raise ValueError("transition table alphabet differs from the automaton's")
        if len(table) != n * k:
            raise ValueError(f"transition table has {len(table)} slots, "
                             f"expected {n} states x {k} symbols")
        if _lane_scan(table, n)[1]:
            raise ValueError("transition table target out of range")


class TransitionIndex(_TripleView):
    """Triples over a slot index in compressed sparse row form: the targets
    of state ``p`` on the ``c``-th symbol of ``alphabet`` are
    ``targets[starts[p * k + c]:starts[p * k + c + 1]]``, ascending and
    distinct."""

    __slots__ = ("alphabet", "starts", "targets")

    def __init__(self, alphabet: Alphabet, starts: Iterable[int], targets: Iterable[int]):
        self.alphabet = alphabet
        self.starts = array("i", starts)
        self.targets = array("i", targets)
        self._hash = None

    def __len__(self) -> int:
        return len(self.targets)

    def _state_edges(self, p: int):
        k = len(self.alphabet.names)
        bounds, targets = self.starts[p * k:p * k + k + 1], self.targets
        return [(c, q) for c in compress(count(), map(ne, bounds, islice(bounds, 1, None)))
                for q in targets[bounds[c]:bounds[c + 1]]]

    def _slot_edges(self):
        starts, targets = self.starts, self.targets
        # Only the slots that hold targets are visited, so the walk follows
        # the transitions even when most slots are empty (large alphabets).
        for slot in compress(range(len(starts) - 1), map(ne, starts, islice(starts, 1, None))):
            for q in targets[starts[slot]:starts[slot + 1]]:
                yield slot, q

    def _check(self, alphabet: Alphabet, n: int):
        starts, targets, k = self.starts, self.targets, len(alphabet)
        if self.alphabet != alphabet:
            raise ValueError("transition index alphabet differs from the automaton's")
        if len(starts) != n * k + 1 or starts[0] != 0 or starts[-1] != len(targets):
            raise ValueError(f"transition index of {len(starts)} slot starts and "
                             f"{len(targets)} targets does not fit {n} states x {k} symbols")
        if not all(map(le, starts, islice(starts, 1, None))):
            raise ValueError("transition index slot starts decrease")
        negatives, stray = _lane_scan(targets, n)
        if negatives or stray:
            raise ValueError("transition index target out of range")


class TransitionMasks(_TripleView):
    """Triples over a homogeneous NFA's follow masks, as the Glushkov
    construction leaves them: bit ``q`` of ``rows[p] << lows[p]`` is an edge
    from ``p`` to ``q`` on the ``codes[q]``-th symbol of ``alphabet``, the
    one symbol that enters ``q``.  A state entered on none has code -1 and
    is no row's target.  A row is kept relative to its offset ``lows[p]``,
    so it costs the span of its targets."""

    __slots__ = ("alphabet", "rows", "codes", "lows")

    def __init__(self, alphabet: Alphabet, rows: list[int], codes: list[int],
                 lows: list[int]):
        self.alphabet, self.rows, self.codes, self.lows = alphabet, rows, codes, lows
        self._hash = None

    def __len__(self) -> int:
        return sum(map(int.bit_count, self.rows))

    def _state_edges(self, p: int):
        if p >= len(self.rows):
            return []
        # Lowest bit first, with no generator resumed per bit.
        row, codes, base = self.rows[p], self.codes, self.lows[p] - 1
        edges = []
        while row:
            low = row & -row
            q = base + low.bit_length()
            edges.append((codes[q], q))
            row ^= low
        return edges

    def _slot_edges(self):
        k, codes = len(self.alphabet.names), self.codes
        for p, row, low in zip(count(), self.rows, self.lows):
            for q in iter_bits(row):
                q += low
                yield p * k + codes[q], q

    def _check(self, alphabet: Alphabet, n: int):
        rows, codes, lows, k = self.rows, self.codes, self.lows, len(alphabet)
        if self.alphabet != alphabet:
            raise ValueError("transition masks alphabet differs from the automaton's")
        if len(rows) != n or len(codes) != n:
            raise ValueError(f"transition masks of {len(rows)} rows and {len(codes)} "
                             f"entry codes do not fit {n} states")
        if len(lows) != n:
            raise ValueError(f"transition masks of {len(lows)} row offsets "
                             f"do not fit {n} states")
        if min(rows) < 0 or min(lows) < 0 or max(map(add, map(int.bit_length, rows), lows)) > n:
            raise ValueError("transition mask target out of range")
        if min(codes) < -1 or max(codes) >= k:
            raise ValueError(f"entry code out of range for {k} symbols")
        # Only a state of code -1 can be such a target, state 0 alone in a
        # Glushkov store, so each row is tested against those states shifted
        # down by its offset, not shifted into place itself.
        unentered = _flag_mask(bytes(map((-1).__eq__, codes)))
        if any(map(and_, rows, map(rshift, repeat(unentered), lows))):
            raise ValueError("transition mask target entered on no symbol")


class FinalFlags(_FrozenView):
    """Read-only set of the final states over one flag byte per state:
    state ``q`` is final when ``flags[q]`` is 1, and any byte but 0 given
    to the constructor is read as 1.  Equality agrees with the frozenset
    of the same states; two ``FinalFlags`` compare their flags less
    trailing zeros."""

    __slots__ = ("flags", "_len")

    def __init__(self, flags: Iterable[int]):
        self.flags = bytes(flags).translate(b"\0" + b"\1" * 255)
        self._len = self.flags.count(1)
        self._hash = None

    def __contains__(self, item: object) -> bool:
        return isinstance(item, int) and 0 <= item < len(self.flags) and self.flags[item] == 1

    def __iter__(self):
        return compress(range(len(self.flags)), self.flags)

    def __len__(self) -> int:
        return self._len

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FinalFlags):
            return self.flags.rstrip(b"\0") == other.flags.rstrip(b"\0")
        return Set.__eq__(self, other)

    # Defining ``__eq__`` clears the inherited hash.
    __hash__ = _FrozenView.__hash__


def _flag_mask(flags: bytes) -> int:
    """The int with bit ``q`` set where ``flags[q]`` is 1, read in one pass."""
    return int(flags[::-1].translate(bytes.maketrans(b"\0\1", b"01")), 2)


def _final_flags(states: Iterable[int], n: int) -> FinalFlags:
    """The flags of ``n`` states, those in ``states`` final."""
    flags = bytearray(n)
    for q in states:
        flags[q] = 1
    return FinalFlags(flags)


def _slot_index(alphabet: Alphabet, n_states: int, keys: Iterable[int],
                stride: int) -> TransitionIndex:
    """Index of distinct edges coded as ``slot * stride + target``, in any
    order, for any ``stride`` of at least ``n_states``."""
    keys = sorted(keys)  # slots in order, and each slot's targets ascending
    counts = [0] * (n_states * len(alphabet) + 1)
    for key in keys:
        counts[key // stride + 1] += 1
    return TransitionIndex(alphabet, accumulate(counts), [key % stride for key in keys])


def _checked_edges(trans, alphabet: Alphabet, n: int) -> Iterable[tuple[int, int]]:
    """``(slot, q)`` for each transition of ``trans``, a store or triples,
    checked against ``alphabet`` and ``n`` states."""
    if isinstance(trans, _TripleView):
        trans._check(alphabet, n)
        yield from trans._slot_edges()
        return
    index, k = alphabet.index, len(alphabet)
    for p, a, q in trans:
        if not (0 <= p < n and 0 <= q < n):
            raise ValueError(f"transition endpoint out of range: {(p, a, q)}")
        c = index.get(a)
        if c is None:
            raise ValueError(f"transition symbol {a!r} not in alphabet")
        yield p * k + c, q


@dataclass(frozen=True)
class Nfa:
    """An automaton whose successors are indexed by slot ``p * k + c``.

    ``transitions`` may be given as ``(p, symbol, q)`` triples or as any
    store; it is kept as a :class:`TransitionIndex` or a
    :class:`TransitionMasks`, and anything else is turned into an index.
    ``finals`` may be given as a set of states or as a :class:`FinalFlags`
    with one flag per state, and is kept as flags.
    """

    alphabet: Alphabet
    n_states: int
    initial: int
    finals: FinalFlags
    transitions: frozenset[tuple[int, str, int]]

    _stores = (TransitionIndex, TransitionMasks)

    def __post_init__(self):
        n = self.n_states
        if not (0 <= self.initial < n):
            raise ValueError("initial state out of range")
        finals = self.finals
        # An exact type test, as for the stores below.
        if type(finals) is FinalFlags:
            if len(finals.flags) != n:
                raise ValueError(f"final flags cover {len(finals.flags)} states, expected {n}")
        elif finals and not (0 <= min(finals) and max(finals) < n):
            raise ValueError("final state out of range")
        else:
            object.__setattr__(self, "finals", _final_flags(finals, n))
        trans = self.transitions
        # An exact type test: isinstance against an ABC would cost more than
        # validating a small NFA.
        if type(trans) in self._stores:
            trans._check(self.alphabet, n)
        else:
            store = self._store(_checked_edges(trans, self.alphabet, n))
            object.__setattr__(self, "transitions", store)

    def _store(self, edges: Iterable[tuple[int, int]]) -> _TripleView:
        n = self.n_states
        return _slot_index(self.alphabet, n, {slot * n + q for slot, q in edges}, n)

    @property
    def size(self) -> int:
        return self.n_states + len(self.transitions)

    def successors(self, p: int, c: int) -> tuple[int, ...]:
        """Targets of state ``p`` on the ``c``-th symbol, ascending; none when out of range."""
        if 0 <= p < self.n_states:
            return tuple(q for d, q in self.transitions._state_edges(p) if d == c)
        return ()

    def step(self, states: frozenset[int], symbol: str) -> frozenset[int]:
        c = self.alphabet.index.get(symbol, -1)
        return frozenset(q for p in states for q in self.successors(p, c))

    def is_deterministic(self) -> bool:
        """No slot holds two targets; the walk stops at the first that does."""
        seen: set[int] = set()
        for slot, _ in self.transitions._slot_edges():
            if slot in seen:
                return False
            seen.add(slot)
        return True


@dataclass(frozen=True)
class Dfa(Nfa):
    """An NFA whose transitions form a partial function, kept as a
    :class:`TransitionTable`.

    Given as triples, a repeated triple is one edge; two targets for one
    state and symbol raise ``ValueError``.
    """

    _stores = (TransitionTable,)

    def _store(self, edges: Iterable[tuple[int, int]]) -> _TripleView:
        names = self.alphabet.names
        k = len(names)
        table = array("i", [-1]) * (self.n_states * k)
        for slot, q in edges:
            if table[slot] >= 0 and table[slot] != q:
                raise ValueError(f"multiple transitions from state {slot // k} "
                                 f"on {names[slot % k]!r}")
            table[slot] = q
        return TransitionTable(self.alphabet, table)

    def successors(self, p: int, c: int) -> tuple[int, ...]:
        k = len(self.alphabet.names)
        q = self.table[p * k + c] if 0 <= p < self.n_states and 0 <= c < k else -1
        return (q,) if q >= 0 else ()

    @classmethod
    def from_table(cls, alphabet: Alphabet, n_states: int, initial: int,
                   finals: Iterable[int], table: Iterable[int]) -> "Dfa":
        return cls(alphabet, n_states, initial, finals, TransitionTable(alphabet, table))

    @property
    def table(self) -> array:
        """One target per slot, -1 for a missing edge."""
        return self.transitions.table


def accepts(a: Nfa, word: Iterable[str]) -> bool:
    """Membership by subset simulation; symbols must belong to the alphabet."""
    current = frozenset([a.initial])
    for symbol in word:
        if symbol not in a.alphabet:
            raise ValueError(f"symbol {symbol!r} not in alphabet")
        current = a.step(current, symbol)
        if not current:
            return False
    return any(map(a.finals.flags.__getitem__, current))


def _require_same_alphabet(a: Nfa, b: Nfa):
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError(
            f"alphabets differ: {list(a.alphabet)} vs {list(b.alphabet)}")


def _derived_alphabet(symbols: Iterable[str], alphabet: Optional[Alphabet]) -> Alphabet:
    if alphabet is not None:
        return alphabet
    names = sorted(set(symbols))
    if not names:
        raise ValueError("cannot derive an alphabet from a symbol-free expression; "
                         "pass one explicitly")
    return Alphabet(tuple(names))


# ---------------------------------------------------------------------------
# Glushkov construction
# ---------------------------------------------------------------------------

def glushkov(r: Regex, alphabet: Optional[Alphabet] = None) -> Nfa:
    """Position automaton: one state per symbol occurrence plus an initial one.

    States are the occurrence subscripts, the initial state is 0; the result
    therefore has exactly (number of occurrences) + 1 states.
    """
    # Row p of ``rows``, shifted left by ``lows[p]``, holds the targets of
    # state p: first for 0, the follow set of position p else.
    syms, nullable, first, last, rows, lows = _position_masks(r)  # rejects extended, then marked
    sigma = _derived_alphabet(syms, alphabet)
    index = sigma.index
    # codes[q]: alphabet index of the symbol that enters state q; state 0 is
    # entered on none.
    codes = [-1, *map(index.get, syms)]
    if None in codes:
        name = syms[codes.index(None) - 1]
        raise ValueError(f"symbol {name!r} not in the declared alphabet")
    rows[0] = first  # at offset 0
    n = len(rows)
    # Bit q of the mask, read in one pass as byte q of the flags (the reverse
    # of ``_flag_mask``); bit 0 is state 0.
    bits = format((last | 1) if nullable else last, "b")[::-1].encode()
    finals = FinalFlags(bits.translate(bytes.maketrans(b"01", b"\0\1")).ljust(n, b"\0"))
    k = len(sigma)
    # The table grows by one row per row found deterministic, so an NFA,
    # most often found at row 0, leaves no table of n * k slots behind.
    blank = array("i", [-1]) * k
    table = array("i")
    for p, row in enumerate(rows):
        budget.checkpoint()  # a row holds up to n targets
        base = len(table)
        table += blank
        low = lows[p]
        for q in iter_bits(row):
            q += low
            slot = base + codes[q]
            if table[slot] >= 0:
                # Two targets of one state share a symbol: an NFA over the masks.
                del table
                return Nfa(sigma, n, 0, finals, TransitionMasks(sigma, rows, codes, lows))
            table[slot] = q
    return Dfa.from_table(sigma, n, 0, finals, table)


# ---------------------------------------------------------------------------
# Extended regexes
# ---------------------------------------------------------------------------

def extended_to_nfa(r: Regex, alphabet: Optional[Alphabet] = None,
                    max_states: int = budget.DEFAULT_MAX_STATES) -> Nfa:
    """Compile a full extended regex to an NFA.

    Intersections become reachable products, negations determinise, minimise
    and complement the sub-automaton.  Plain connectives use epsilon-free
    combinators, so for an intersection-only expression the state count stays
    below 2^size.  Negation requires a declared alphabet, since the complement
    is taken relative to it.

    One iterative walk numbers the states in pre-order: a ``Union``, ``Star``
    or ``Plus`` takes a fresh initial state before its operands, a symbol two
    states, ``%e`` and ``%0`` one each.  Each edge is written once, in its
    final numbering, to one int list.  A node's value is its finals, its
    initial state's edges and whether it is nullable, so no combinator scans
    or copies an edge list.  An operand of an intersection or a negation, and
    the result, is cut from the end of the list into an :class:`Nfa`
    numbered from 0; the product or complement then takes the operand's
    place.  Every node's state count is checked against ``max_states``, and
    the budget is polled once per node in post-order.  The oracles of
    :mod:`rexlab.analysis` and the CLI's ``to-nfa`` and ``complement``
    compile a plain expression by :func:`glushkov` instead.
    """
    if alphabet is None:
        if any(isinstance(n, Negate) for n in iter_postorder(r)):
            raise ValueError("negation needs an explicit alphabet")
        alphabet = _derived_alphabet(symbols_of(r), None)
    sigma = alphabet
    code = sigma.index
    # The edge (p, c, q) is the int p * row + c * stride + q, so moving both
    # ends down by o subtracts o * (row + 1).  Codes are decoded, or compared,
    # only within a node's states moved down to 0, at most 2 * max_states + 1
    # of them before its check (a union of two checked operands).
    stride = 2 * max(max_states, 0) + 2
    row = len(sigma) * stride
    edges: list[int] = []
    # Per finished node: an automaton, or (finals, the initial state's edges
    # as c * stride + q, nullable), of states o..n-1 and edges from mark on.
    values: list = []
    n = 0

    def cut(o: int, mark: int) -> Nfa:
        nonlocal n
        m, n = n - o, o
        keys = [e - o * (row + 1) for e in edges[mark:]]
        del edges[mark:]
        finals = _final_flags([q - o for q in values.pop()[0]], m)
        return Nfa(sigma, m, 0, finals, _slot_index(sigma, m, keys, stride))

    # (node, whole, None) to meet, (node, whole, (o, mark)) to finish; a whole
    # node, the root or an operand of a product or complement, is cut.
    stack: list = [(r, True, None)]
    while stack:
        node, whole, at = stack.pop()
        if at is None:
            at = n, len(edges)
            kids = children(node)
            if kids:
                stack.append((node, whole, at))
                n += isinstance(node, (Union, Star, Plus))
                cut_kids = isinstance(node, (Intersect, Negate))
                stack += [(kid, cut_kids, None) for kid in reversed(kids)]
                continue
        budget.checkpoint()
        o, mark = at
        if isinstance(node, Sym):
            c = code.get(node.sym)  # type: ignore[arg-type]
            if c is None:
                raise ValueError(f"symbol {node.sym!r} not in the declared alphabet")
            n += 2
            edges.append(o * row + c * stride + o + 1)
            value = ([o + 1], [c * stride + o + 1], False)
        elif isinstance(node, (Concat, Union)):
            (fa, ia, na), (fb, ib, nb) = values[-2:]
            del values[-2:]
            if isinstance(node, Union):
                edges += [o * row + t for t in ia + ib]
                value = (fa + fb + [o] if na or nb else fa + fb, ia + ib, na or nb)
            else:
                edges += [f * row + t for f in fa for t in ib]
                value = (fb + fa if nb else fb, ia + ib if na else ia, na and nb)
        elif isinstance(node, (Star, Plus)):
            # Each final state loops back through copies of the initial
            # state's edges, which the body's own edges may hold already.
            finals, init, nullable = values.pop()
            have = set(edges[mark:])
            edges += [e for f in [o, *finals] for t in init if (e := f * row + t) not in have]
            nullable = nullable or isinstance(node, Star)
            value = (finals + [o] if nullable else finals, init, nullable)
        elif isinstance(node, (Empty, Epsilon)):
            n += 1
            value = ([o], [], True) if isinstance(node, Epsilon) else ([], [], False)
        elif isinstance(node, Intersect):
            b, a = values.pop(), values.pop()
            value = product(a, b, max_states=max_states)
        elif isinstance(node, Negate):
            # Minimising first keeps nested negations feasible at desk scale.
            value = complement_dfa(minimize(determinize(values.pop(), max_states=max_states)))
        else:  # pragma: no cover
            raise TypeError(f"unknown node {node!r}")
        automaton = isinstance(value, Nfa)
        if (value.n_states if automaton else n - o) > max_states:
            raise budget.BudgetExceededError(
                f"intermediate automaton exceeds {max_states} states")
        if automaton and not whole:
            # The product or complement takes the place of its operands.
            trans, n = value.transitions, o + value.n_states
            edges += [slot * stride + q + o * (row + 1) for slot, q in trans._slot_edges()]
            value = ([q + o for q in value.finals],
                     [c * stride + q + o for c, q in trans._state_edges(0)], 0 in value.finals)
        values.append(value)
        if whole and not automaton:
            values.append(cut(o, mark))
    return values[0]


# ---------------------------------------------------------------------------
# Subset construction, complement, product
# ---------------------------------------------------------------------------

# Subset construction writes its table in blocks of at least this many slots
# and joins them at the end: one array grown slot by slot to millions of slots
# is copied as it grows and leaves its old buffers as holes in the heap.
_TABLE_BLOCK = 1 << 16


def determinize(a: Nfa, max_states: int = budget.DEFAULT_MAX_STATES) -> Dfa:
    """Subset construction restricted to reachable subsets.

    Subsets are kept as integer bitmasks; new states are numbered in BFS
    discovery order with symbols scanned in alphabet order, which makes the
    output deterministic.  The OR of a subset's successor ints is the OR of
    its four slices' unions, each read from the slice memo or, on a miss,
    by walking the slice's bits; it is split per symbol by a
    ``(shift, mask)`` pair.  The memo stores a miss only while it holds
    fewer entries than there are subsets so far.  The rows are written in
    blocks of ``_TABLE_BLOCK`` slots or more, and a queue holds only the
    subsets whose rows are still to come.  Each subset's final flag is
    appended to a byte string, the result's finals, as it is numbered; the
    subsets and the memo are released before the blocks are joined.

    A union of independent parts is determinised as the product of their
    subset automata (Rabin and Scott, 1959).  Once the walk over an NFA of
    ``n`` states has found more than ``n * n`` subsets, it looks for parts,
    which needs three things: a homogeneous input (symbol ``c``'s successor
    set is the OR masked by the states entered on ``c``), no edge into the
    initial state, and two or more connected components among the other
    states.  Then the walk is dropped.  The components are split into two
    groups balanced by state count; each group, with the initial state,
    is determinised the same way (so a large group splits again), and the
    reachable pairs of the two part DFAs are walked breadth first, symbols
    in alphabet order, a chunk of pairs at a time (see :func:`_pair_walk`).
    A pair is the union of its sides' subsets, and a missing edge on one
    side steps to that side's empty subset, so the pairs, their numbering
    and their finals are the subsets'.  ``max_states`` counts pairs, and no
    part DFA is larger than the whole.

    A :class:`Dfa` has only singleton subsets, so its subset automaton is
    its reachable part renumbered: that walk reads the table in place and
    gives the same result and the same ``max_states`` refusal.
    """
    if isinstance(a, Dfa):
        return _renumber(a, max_states)
    rows, lows, pairs = _successor_masks(a)
    finals_mask = _flag_mask(a.finals.flags)
    # ``work`` is a stack of parts still to determinise and of ``None``s,
    # each joining the last two results on ``done``.
    done: list[tuple[int, array, bytes]] = []
    work: list = [(rows, lows, pairs, a.initial, finals_mask)]
    while work:
        part = work.pop()
        if part is None:
            right, left = done.pop(), done.pop()
            done.append(_pair_walk(left, right, len(pairs), max_states))
            continue
        out = _subset_walk(part, len(part[0]) ** 2, max_states)
        if isinstance(out, list):
            work.append(None)
            work.extend(out)
        else:
            done.append(out)
    n_out, table, fin = done.pop()
    return Dfa.from_table(a.alphabet, n_out, 0, FinalFlags(fin), table)


def _subset_walk(part: tuple, split_at: int, max_states: int):
    """The subset walk over ``part``, ``(rows, lows, pairs, initial, finals
    mask)`` as :func:`_successor_masks` gives them: ``(n_out, table,
    finals flags)``, or the two parts of :func:`_split_parts` once more than
    ``split_at`` subsets are found and the split exists.  State ``i``'s
    successor int ``rows[i] << lows[i]`` is made only on a memo miss."""
    row, lows, pairs, initial, finals_mask = part
    n = len(row)

    # ``memo`` maps a slice value, the subset masked by one of ``slices``, to
    # the OR of its states' rows.
    width = -(-n // 4)
    slices = [((1 << width) - 1) << lo for lo in range(0, n, width)]
    memo: dict[int, int] = {}

    # ``ids`` numbers the subsets in discovery order, keyed by ``t +
    # t.bit_length()`` for subset ``t``: a bijection, whose hashes spread
    # where ``hash(1 << q)``, taken modulo 2**61 - 1, has only 61 values.
    # ``queue`` holds the subsets whose rows are not written yet, and ``fin``
    # their final flags, appended as they are numbered.
    start = 1 << initial
    ids: dict[int, int] = {start + start.bit_length(): 0}
    queue = deque([start])
    fin = bytearray([start & finals_mask != 0])
    # One test per new subset covers both the budget and the split point.
    limit = min(split_at, max_states)
    cap = _TABLE_BLOCK
    block = array("i")
    blocks = [block]
    emit = block.append
    while queue:
        budget.checkpoint()
        if len(block) >= cap:
            block = array("i")
            blocks.append(block)
            emit = block.append
        succ = 0
        m = queue.popleft()
        for piece in slices:
            v = m & piece
            if not v:
                continue
            u = memo.get(v)
            if u is None:
                key, u = v, 0
                while v:
                    low = v & -v
                    i = low.bit_length() - 1
                    u |= row[i] << lows[i]
                    v ^= low
                # Never more entries than subsets discovered so far.
                if len(memo) < len(ids):
                    memo[key] = u
            succ |= u
        for shift, sel in pairs:
            # A shift of 0, as in every homogeneous layout, copies nothing.
            t = (succ >> shift if shift else succ) & sel
            if not t:
                emit(-1)
                continue
            key = t + t.bit_length()
            dst = ids.get(key)
            if dst is None:
                if len(ids) >= limit:
                    if len(ids) >= max_states:
                        raise budget.BudgetExceededError(
                            f"subset construction exceeds {max_states} states")
                    parts = _split_parts(part)
                    if parts:
                        return parts
                    limit = max_states
                dst = len(ids)
                ids[key] = dst
                queue.append(t)
                fin.append(t & finals_mask != 0)
            emit(dst)
    # The subsets go before the caller joins the table, so that it can take
    # their memory.
    n_out = len(ids)
    del ids, memo, queue
    return n_out, _joined(blocks), bytes(fin)


def _split_parts(part: tuple) -> Optional[list[tuple]]:
    """``part``'s non-initial states in two groups with no edge between
    them, each a part of its own, or ``None`` when no such split exists.

    The split needs a homogeneous layout (every shift 0) and no edge into
    the initial state.  The rows are shifted into place first.  Connected
    components, edges read both ways, are dealt largest first to the group
    with fewer states.  A group's part numbers the initial state 0 and its
    own states 1.. in ascending order, with every row offset 0.
    """
    row, lows, pairs, initial, finals_mask = part
    bit = 1 << initial
    if any(shift for shift, _ in pairs):
        return None
    row = list(map(lshift, row, lows))
    if any(r & bit for r in row):
        return None
    links = [0] * len(row)
    for p, r in enumerate(row):
        if p != initial:
            links[p] |= r
            for q in iter_bits(r):
                links[q] |= 1 << p
    components = []
    unseen = ((1 << len(row)) - 1) ^ bit
    while unseen:
        component = frontier = unseen & -unseen
        while frontier:
            reached = 0
            for q in iter_bits(frontier):
                reached |= links[q]
            frontier = reached & ~component
            component |= frontier
        unseen ^= component
        components.append(component)
    if len(components) < 2:
        return None
    groups = [0, 0]
    for component in sorted(components, key=int.bit_count, reverse=True):
        groups[groups[0].bit_count() > groups[1].bit_count()] |= component
    parts = []
    for group in groups:
        states = [initial, *iter_bits(group)]
        moved = [0] * len(row)  # the bit a state takes in the group's part
        for i, q in enumerate(states):
            moved[q] = 1 << i
        at = moved.__getitem__
        rows = [sum(map(at, iter_bits(row[q]))) for q in states]
        entries = [(0, sum(map(at, iter_bits(sel)))) for _, sel in pairs]
        parts.append((rows, [0] * len(states), entries, 0,
                      sum(map(at, iter_bits(finals_mask)))))
    return parts


def _pair_walk(left: tuple, right: tuple, k: int, max_states: int) -> tuple:
    """The reachable pairs of two parts' subset DFAs, each ``(n_states,
    table, finals flags)`` with start state 0, as the same triple.

    Each side's sink is its state ``n_states``, its empty subset: a missing
    edge steps to it and it loops.  The pair of sinks is the empty subset
    of the whole, so a slot that steps there stays -1.  The pairs are
    numbered breadth first, symbols in alphabet order, by a counter.  Pair
    ``(p, q)``'s number sits in the dict of left state ``p`` under right
    state ``q``, and every state is one shared int object, so a lookup hits
    on identity and makes no key.  The pairs are walked in chunks of
    ``_TABLE_BLOCK // k``, the first that many numbered but not yet walked:
    a chunk's successor pairs are listed and looked up by C iterators, and
    a Python loop visits only the misses, numbering them in the order they
    first occur.  Only the pairs still to walk are kept, as two flat lists
    of sides; a chunk is cut from their front and deleted before it is
    walked.  The budget is polled once per chunk.
    """
    (n1, t1, f1), (n2, t2, f2) = left, right
    # Row ``p`` of each side is the tuple of its successors on every symbol,
    # each state one shared int object.  A side's lookup ends with its sink,
    # so a -1 slot reads the sink, and the sink's own row loops.
    shared = list(range(max(n1, n2) + 1))
    at1, at2 = shared[:n1 + 1].__getitem__, shared[:n2 + 1].__getitem__
    rows1 = [tuple(map(at1, t1[p:p + k])) for p in range(0, len(t1), k)] + [(shared[n1],) * k]
    rows2 = [tuple(map(at2, t2[q:q + k])) for q in range(0, len(t2), k)] + [(shared[n2],) * k]
    f1, f2 = f1 + b"\0", f2 + b"\0"  # the sinks are not final
    by_left: list[dict] = [{} for _ in rows1]
    by_left[0][shared[0]] = 0
    # The pair of sinks is looked up like any pair and reads -1.
    by_left[n1][shared[n2]] = -1
    chunk = max(_TABLE_BLOCK // k, 1)
    lefts, rights = [shared[0]], [shared[0]]
    add_left, add_right = lefts.append, rights.append
    n_out = 1
    fin = bytearray()
    blocks = []
    while lefts:
        budget.checkpoint()
        ps, qs = lefts[:chunk], rights[:chunk]
        del lefts[:chunk], rights[:chunk]
        fin += bytes(map(or_, map(f1.__getitem__, ps), map(f2.__getitem__, qs)))
        succ1 = list(chain.from_iterable(map(rows1.__getitem__, ps)))
        succ2 = list(chain.from_iterable(map(rows2.__getitem__, qs)))
        del ps, qs
        dsts = list(map(dict.get, map(by_left.__getitem__, succ1), succ2))
        for i in compress(count(), map(is_, dsts, repeat(None))):
            p, q = succ1[i], succ2[i]
            ids = by_left[p]
            dst = ids.get(q)
            if dst is None:  # not reached earlier in this chunk
                if n_out >= max_states:
                    raise budget.BudgetExceededError(
                        f"subset construction exceeds {max_states} states")
                dst = ids[q] = n_out
                n_out += 1
                add_left(p)
                add_right(q)
            dsts[i] = dst
        blocks.append(array("i", dsts))
    del by_left
    return n_out, _joined(blocks), fin


def _joined(blocks: list[array]) -> array:
    """One table from ``blocks``, each block freed as it is joined."""
    blocks.reverse()
    table = blocks.pop()
    while blocks:
        table.extend(blocks.pop())
    return table


def _renumber(d: Dfa, max_states: int) -> Dfa:
    """The reachable part of ``d``, numbered in BFS discovery order with
    symbols in alphabet order, as :func:`determinize` numbers subsets."""
    k = len(d.alphabet)
    old = d.table
    ids = array("i", [-1]) * d.n_states
    ids[d.initial] = 0
    order = [d.initial]
    table = array("i")
    emit = table.append
    for q in order:  # ``order`` grows as the walk goes
        budget.checkpoint()
        for t in old[q * k:(q + 1) * k]:
            if t >= 0:
                dst = ids[t]
                if dst < 0:
                    if len(order) >= max_states:
                        raise budget.BudgetExceededError(
                            f"subset construction exceeds {max_states} states")
                    dst = ids[t] = len(order)
                    order.append(t)
                emit(dst)
            else:
                emit(-1)
    finals = FinalFlags(bytes(map(d.finals.flags.__getitem__, order)))
    return Dfa.from_table(d.alphabet, len(order), 0, finals, table)


def _successor_masks(a: Nfa) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """``(rows, lows, pairs)``: one successor int ``rows[p] << lows[p]`` per
    state ``p`` of ``a``, and per symbol the ``(shift, mask)`` pair that
    cuts its successor set out of an OR of them.

    A mask store hands over its rows and offsets as they are, with its
    codes' entry masks; any other store is walked once into rows at 0.
    """
    n = a.n_states
    k = len(a.alphabet)
    trans = a.transitions
    if type(trans) is TransitionMasks:
        return trans.rows, trans.lows, [(0, sel) for sel in _entry_masks(trans.codes, k)]
    edges = list(trans._slot_edges())

    # Homogeneous input: every state is entered on one symbol only.
    entered_on = [-1] * n
    homogeneous = True
    row = [0] * n
    for slot, q in edges:
        p, c = divmod(slot, k)
        row[p] |= 1 << q
        if entered_on[q] < 0:
            entered_on[q] = c
        elif entered_on[q] != c:
            homogeneous = False
    if homogeneous:
        return row, [0] * n, [(0, sel) for sel in _entry_masks(entered_on, k)]
    # Symbol c's targets go to bit offset c * n instead.
    row = [0] * n
    for slot, q in edges:
        p, c = divmod(slot, k)
        row[p] |= 1 << (c * n + q)
    full = (1 << n) - 1
    return row, [0] * n, [(c * n, full) for c in range(k)]


def _entry_masks(codes: list[int], k: int) -> list[int]:
    """Per symbol, the mask of the states entered on it: state ``q`` on the
    ``codes[q]``-th of ``k`` symbols, or on none for code -1.  One pass sets
    their bits in a bitmap of every state per symbol met, and each bitmap
    is read as one int."""
    size = (len(codes) >> 3) + 1
    bitmaps: list[Optional[bytearray]] = [None] * k
    for q, c in enumerate(codes):
        if c < 0:
            continue
        bitmap = bitmaps[c]
        if bitmap is None:
            bitmap = bitmaps[c] = bytearray(size)
        bitmap[q >> 3] |= 1 << (q & 7)
    return [0 if bitmap is None else int.from_bytes(bitmap, "little") for bitmap in bitmaps]


def _fill_missing(table: array, target: int) -> array:
    """``table`` with every -1 slot pointing at ``target``: a copy when a
    slot is missing, else ``table`` itself.  One scan, polling once per
    ``_TABLE_BLOCK`` slots; a lane block of :func:`_lane_scan` with no
    negative slot is skipped, and only the others are searched for -1."""
    out = table
    cap = _TABLE_BLOCK
    step = cap >> 4 or 1
    for lo in range(0, len(table), cap):
        budget.checkpoint()
        end = min(lo + cap, len(table))
        for slot in range(lo, end, step):
            hi = min(slot + step, end)
            if not _lane_scan(table, None, slot, hi)[0]:
                continue
            try:
                while True:
                    slot = out.index(-1, slot, hi)
                    if out is table:
                        out = array("i", table)
                    out[slot] = target
            except ValueError:
                pass
    return out


def _totalized(d: Dfa) -> tuple[array, int]:
    """``d``'s table and state count with every -1 slot sent to a sink.

    The sink is state ``d.n_states``: non-final, looping to itself, and
    added only when the table has a missing edge (a total table is shared).
    """
    out = _fill_missing(d.table, d.n_states)
    if out is d.table:
        return out, d.n_states
    out.extend(array("i", [d.n_states]) * len(d.alphabet))
    return out, d.n_states + 1


def complement_dfa(d: Dfa) -> Dfa:
    """Accept exactly the words the input rejects: totalise, then swap the
    final flags as bytes, the sink's flag appended when one is added."""
    table, n = _totalized(d)
    # Each flag is 0 or 1: 0 becomes 1 and 1 becomes 0.
    flags = d.finals.flags.translate(b"\1" + bytes(255)) + b"\1" * (n - d.n_states)
    return Dfa.from_table(d.alphabet, n, d.initial, FinalFlags(flags), table)


def product(a: Nfa, b: Nfa, max_states: int = budget.DEFAULT_MAX_STATES) -> Nfa:
    """Reachable pairwise product; accepts the intersection of the languages.

    Pairs are numbered in BFS discovery order with symbols scanned in
    alphabet order, ``a``'s targets in the outer loop and ``b``'s in the
    inner one, each in ascending order.  Pair ``(p, q)``'s number sits in
    the dict of right state ``q`` under left state ``p``.  Only the pairs
    numbered but not yet walked are kept, as :func:`_pair_walk` keeps them,
    in two flat lists of sides, with at most the one chunk being walked:
    its finals are read in one pass once it is walked, and then it is
    deleted from the front of both lists.  Two DFAs are walked through
    their tables, any other inputs through their slots.  The table walk
    reads ``a``'s table only at the symbols ``b`` defines.  The slot walk
    returns a :class:`Dfa` exactly when no slot it wrote holds two pairs.
    """
    _require_same_alphabet(a, b)
    if isinstance(a, Dfa) and isinstance(b, Dfa):
        return _dfa_product(a, b, max_states)
    # Right state ``q``'s record, made when a pair first reaches it, is its
    # slots and the dict of its pairs' numbers by left state, so each right
    # state is read once; a left state is read once per pair.
    by_right: list[Optional[tuple]] = [None] * b.n_states
    slots_a, slots_b = a.transitions._state_slots, b.transitions._state_slots

    def record(q: int) -> tuple:
        by_right[q] = rec = (slots_b(q), {})
        return rec

    record(b.initial)[1][a.initial] = 0
    starts, targets = array("i", [0]), array("i")
    fa, fb = a.finals.flags, b.finals.flags
    # ``lefts`` and ``rights`` hold the sides of the pairs still to walk,
    # and of at most ``chunk`` walked ones, dropped after each step.  A step
    # walks the first ``chunk`` of them, pairs numbered while it walks
    # included, so a walk one pair wide still takes ``chunk`` pairs a step.
    chunk = _TABLE_BLOCK >> 4
    lefts, rights = [a.initial], [b.initial]
    add_left, add_right = lefts.append, rights.append
    n_out = 1
    fin = bytearray()
    forked = False  # set once a slot holds two pairs
    while lefts:
        for walked, p, q in zip(range(1, chunk + 1), lefts, rights):
            budget.checkpoint()
            for pa, pb in zip(slots_a(p), by_right[q][0]):
                lo = len(targets)
                for p2 in pa:
                    for q2 in pb:
                        ids = (by_right[q2] or record(q2))[1]
                        dst = ids.get(p2)
                        if dst is None:
                            if n_out >= max_states:
                                raise budget.BudgetExceededError(
                                    f"product exceeds {max_states} states")
                            dst = ids[p2] = n_out
                            n_out += 1
                            add_left(p2)
                            add_right(q2)
                        targets.append(dst)
                if len(targets) - lo > 1:
                    targets[lo:] = array("i", sorted(targets[lo:]))
                    forked = True
                starts.append(len(targets))
        fin += bytes(map(and_, map(fa.__getitem__, islice(lefts, walked)),
                         map(fb.__getitem__, islice(rights, walked))))
        del lefts[:walked], rights[:walked]
    del by_right
    cls = Nfa if forked else Dfa
    return cls(a.alphabet, n_out, 0, FinalFlags(fin), TransitionIndex(a.alphabet, starts, targets))


def _dfa_product(a: Dfa, b: Dfa, max_states: int) -> Dfa:
    k = len(a.alphabet)
    ta, tb = a.table, b.table
    # A slot that ``b`` leaves undefined stays -1 whatever ``a`` holds there,
    # so each pair reads ``a``'s row only at the symbols of ``b``'s edges.
    # Right state ``q``'s record, made when a pair first reaches it, is its
    # edge list and the dict of its pairs' numbers by left state, so the
    # cost follows the reachable pairs, under their polls, not ``b``'s size.
    at_right: list[Optional[tuple]] = [None] * b.n_states

    def record(q: int) -> tuple:
        edges = [(c, t) for c, t in enumerate(tb[q * k:(q + 1) * k]) if t >= 0]
        at_right[q] = rec = (edges, {})
        return rec

    record(b.initial)[1][a.initial] = 0
    fa, fb = a.finals.flags, b.finals.flags
    # The pairs still to walk, stepped through as in ``product``.
    chunk = _TABLE_BLOCK >> 4
    lefts, rights = [a.initial], [b.initial]
    add_left, add_right = lefts.append, rights.append
    n_out = 1
    fin = bytearray()
    blank = array("i", [-1]) * k
    table = array("i")
    while lefts:
        for walked, p, q in zip(range(1, chunk + 1), lefts, rights):
            budget.checkpoint()
            rp, row = p * k, len(table)
            table += blank
            for c, q2 in at_right[q][0]:
                p2 = ta[rp + c]
                if p2 < 0:
                    continue
                ids = (at_right[q2] or record(q2))[1]
                dst = ids.get(p2)
                if dst is None:
                    if n_out >= max_states:
                        raise budget.BudgetExceededError(f"product exceeds {max_states} states")
                    dst = ids[p2] = n_out
                    n_out += 1
                    add_left(p2)
                    add_right(q2)
                table[row + c] = dst
        fin += bytes(map(and_, map(fa.__getitem__, islice(lefts, walked)),
                         map(fb.__getitem__, islice(rights, walked))))
        del lefts[:walked], rights[:walked]
    del at_right
    return Dfa.from_table(a.alphabet, n_out, 0, FinalFlags(fin), table)


# ---------------------------------------------------------------------------
# Minimisation: trim, refine, number canonically
# ---------------------------------------------------------------------------

def _preimages(table: array, n: int, k: int) -> tuple[array, array]:
    """A table's transitions, counting-sorted by target slot one symbol at a
    time: ``sources[starts[s]:starts[s + 1]]`` are the states entering state
    ``q`` on the ``c``-th symbol, ``s = q * k + c``."""
    starts = array("i", bytes(4 * (n * k + 1)))
    for c in range(k):
        budget.checkpoint()
        for q in table[c::k]:
            if q >= 0:
                starts[q * k + c] += 1
    # Placing each source at the end of its slot's range leaves starts[s]
    # at the range's beginning.
    starts = array("i", accumulate(starts))
    sources = array("i", bytes(4 * starts[-1]))
    for c in range(k):
        budget.checkpoint()
        for p, q in enumerate(table[c::k]):
            if q >= 0:
                s = q * k + c
                starts[s] -= 1
                sources[starts[s]] = p
    return starts, sources


def _refine(live: bytearray, fin: bytes, starts: array, sources: array,
            k: int) -> tuple[array, array]:
    """The live states' language classes, as each state's block and one state
    of each block, by Hopcroft's refinement over the partial function in the
    form of Valmari and Lehtinen (STACS 2008).  Every initial block starts
    as a splitter, which keeps the smaller-half rule correct with no sink.
    """
    n = len(live)
    # Block b holds elems[first[b]:end[b]], loc[q] is the index of state q
    # there, and a marked state is moved into elems[first[b]:mid[b]].  Block
    # 0 holds the non-final states and block 1 the final ones.
    elems = array("i", compress(range(n), map(gt, live, fin)))
    first = array("i", [0, len(elems)])
    elems.extend(compress(range(n), fin))
    end = array("i", [first[1], len(elems)])
    mid = array("i", first)
    loc = array("i", bytes(4 * n))
    block_of = array("i", bytes(4 * n))
    for i, q in enumerate(elems):
        loc[q] = i
        block_of[q] = fin[q]
    splitters = array("i", [0, 1])
    while splitters:
        top = splitters.pop()
        members = elems[first[top]:end[top]]
        for c in range(k):
            budget.checkpoint()
            pre = array("i")
            for q in members:
                s = q * k + c
                pre += sources[starts[s]:starts[s + 1]]
            # A block lying wholly inside the preimage is not cut, so only
            # the states of the cut blocks are marked.
            hits = Counter(map(block_of.__getitem__, pre))
            cut = {b for b, h in hits.items() if h < end[b] - first[b]}
            if not cut:
                continue
            for p in pre:
                b = block_of[p]
                if b in cut:
                    i, j = loc[p], mid[b]
                    elems[i], elems[j] = elems[j], p
                    loc[elems[i]], loc[p] = i, j
                    mid[b] = j + 1
            # The smaller part becomes the new block and a new splitter: if
            # the old block still waits, both parts will be processed, and if
            # not, the smaller part is enough.
            for b in cut:
                lo, j, hi = first[b], mid[b], end[b]
                if j - lo <= hi - j:
                    first[b] = mid[b] = j
                    hi = j
                else:
                    end[b], mid[b] = j, lo
                    lo = j
                new = len(first)
                first.append(lo)
                end.append(hi)
                mid.append(lo)
                for i in range(lo, hi):
                    block_of[elems[i]] = new
                splitters.append(new)
    return block_of, array("i", map(elems.__getitem__, first))


def minimize(d: Dfa) -> Dfa:
    """Unique minimal DFA with a canonical state order.

    The live states, those that reach a final state, are split into language
    classes, which are numbered by BFS from the initial state with symbols
    in alphabet order: the result may be partial, and language-equal DFAs
    over the same alphabet serialise identically.  The initial state is kept
    even when the language is empty, and states it does not reach are
    refined but never numbered.  One preimage index serves both the
    backward walk that finds the live states and the refinement.  The budget
    is polled once per symbol while the index is built, once per live state
    in the walk and once per splitter and symbol while refining.
    """
    k, n, table = len(d.alphabet), d.n_states, d.table
    starts, sources = _preimages(table, n, k)
    fin = d.finals.flags
    live = bytearray(fin)
    stack = array("i", compress(range(n), fin))
    while stack:
        budget.checkpoint()
        q = stack.pop()
        for p in sources[starts[q * k]:starts[q * k + k]]:
            if not live[p]:
                live[p] = 1
                stack.append(p)
    if not live[d.initial]:
        return Dfa.from_table(d.alphabet, 1, 0, FinalFlags(b"\0"), array("i", [-1]) * k)
    block_of, reps = _refine(live, fin, starts, sources, k)

    # The i-th block taken off the queue writes row i of the output table
    # from its representative state.
    ids = array("i", [-1]) * len(reps)
    order = array("i", [block_of[d.initial]])
    ids[order[0]] = 0
    out = array("i")
    for b in order:
        row = reps[b] * k
        for q in table[row:row + k]:
            if q < 0 or not live[q]:
                out.append(-1)
                continue
            t = block_of[q]
            if ids[t] < 0:
                ids[t] = len(order)
                order.append(t)
            out.append(ids[t])
    finals = FinalFlags(bytes(map(fin.__getitem__, map(reps.__getitem__, order))))
    return Dfa.from_table(d.alphabet, len(order), 0, finals, out)


def serialize(a: Nfa) -> str:
    """Line-oriented automaton file; deterministic for a fixed automaton."""
    lines = ["automaton v1",
             "alphabet: " + " ".join(a.alphabet),
             f"states: {a.n_states}",
             f"initial: {a.initial}"]
    finals = " ".join(str(q) for q in sorted(a.finals))
    lines.append("finals:" + (" " + finals if finals else ""))
    lines.extend(sorted(f"trans: {p} {s} {q}" for p, s, q in a.transitions))
    return "\n".join(lines) + "\n"


def parse_automaton(text: str, max_states: int = budget.DEFAULT_MAX_STATES) -> Nfa:
    """Read the format :func:`serialize` writes.

    The result is a :class:`Dfa` unless two ``trans:`` lines give one state
    two targets on one symbol; a repeated line is one edge.  A format error
    on any line is raised before a state or symbol out of range.  A
    ``states:`` count above ``max_states`` raises ``BudgetExceededError``
    before anything of that size is allocated.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "automaton v1":
        raise AutomatonFormatError("missing 'automaton v1' header")

    def field(i: int, key: str) -> str:
        if i >= len(lines) or not lines[i].startswith(key + ":"):
            raise AutomatonFormatError(f"expected '{key}:' on line {i + 1}")
        return lines[i][len(key) + 1:].strip()

    def triples():
        for ln in lines[5:]:
            if not ln.startswith("trans:"):
                raise AutomatonFormatError(f"unexpected line {ln!r}")
            parts = ln[len("trans:"):].split()
            if len(parts) != 3:
                raise AutomatonFormatError(f"bad transition line {ln!r}")
            yield int(parts[0]), parts[1], int(parts[2])

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
        finals = [int(t) for t in finals_text.split()]
        # One pass writes each line's target into its slot.  On a refusal,
        # every line is read once more so that a format error anywhere comes
        # first; the NFA constructor then raises the same refusal, as it
        # shares the checks and their order, or takes the lines when a slot
        # with two targets was the only fault.
        try:
            return Dfa(alphabet, n_states, initial, finals, triples())
        except ValueError:
            pass
        deque(triples(), 0)
        return Nfa(alphabet, n_states, initial, finals, triples())
    except (ValueError, IndexError) as exc:
        raise AutomatonFormatError(str(exc)) from exc


def _dfa_pair(a: Nfa, b: Nfa, max_states: int) -> list[Dfa]:
    """Both inputs as DFAs; NFA inputs are determinised under ``max_states``."""
    _require_same_alphabet(a, b)
    return [x if isinstance(x, Dfa) else determinize(x, max_states=max_states)
            for x in (a, b)]


def equivalent(a: Nfa, b: Nfa, max_states: int = budget.DEFAULT_MAX_STATES) -> bool:
    """Language equality by the Hopcroft–Karp union-find pair walk (1971).

    NFA inputs are determinised first.  Both ``Dfa.table``s are read in
    place.  Each side has a sink, state ``n_states``: it has no row in the
    table, every slot of its row reads as -1, and a -1 slot steps to it.
    The states of both DFAs live in one disjoint index space, the smaller
    DFA's states and sink first, so its states are the class roots.  The
    two sinks start in one class, since both accept nothing.  A slot
    missing on both sides, and a pair whose right state's parent is its
    left state, are skipped before any union-find lookup.  From
    the merged initial states, each popped pair merges the classes of its
    successors on every symbol; the languages differ exactly when two
    states of different finality would be merged.  No minimisation is
    needed.
    """
    da, db = sorted(_dfa_pair(a, b, max_states), key=lambda d: d.n_states)
    ta, sa, tb, sb = da.table, da.n_states, db.table, db.n_states
    fa, fb = da.finals.flags + b"\0", db.finals.flags + b"\0"  # the sinks are not final
    ia, ib = da.initial, db.initial
    if fa[ia] != fb[ib]:
        return False
    k = len(a.alphabet)
    sink_row = array("i", [-1]) * k
    off = sa + 1
    parent = array("i", range(off + sb + 1))
    parent[off + sb] = sa
    parent[ib + off] = ia
    stack = [(ia, ib)]
    while stack:
        budget.checkpoint()
        p, q = stack.pop()
        row_a = sink_row if p == sa else ta[p * k:p * k + k]
        row_b = sink_row if q == sb else tb[q * k:q * k + k]
        for p2, q2 in zip(row_a, row_b):
            if p2 < 0:
                if q2 < 0:
                    continue
                p2 = sa
            elif q2 < 0:
                q2 = sb
            if parent[q2 + off] == p2:
                continue  # already one class; the finds would say so
            x = p2
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            y = q2 + off
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            if x == y:
                continue
            if fa[p2] != fb[q2]:
                return False
            parent[y] = x
            stack.append((p2, q2))
    return True


def shortest_divergence(a: Nfa, b: Nfa,
                        max_states: int = budget.DEFAULT_MAX_STATES
                        ) -> Optional[tuple[str, ...]]:
    """Length-lex least word accepted by exactly one automaton, if any.

    NFA inputs are determinised first, and both ``Dfa.table``s are read in
    place with the sinks of :func:`equivalent`.  Breadth-first over pairs of
    states with symbols in alphabet order; a slot missing on both sides is
    skipped, since a pair of sinks never diverges and leads only to itself.
    Each entry keeps its parent's index and its symbol, and the word is
    rebuilt only for the first pair whose finality differs.
    """
    da, db = _dfa_pair(a, b, max_states)
    ta, sa, tb, sb = da.table, da.n_states, db.table, db.n_states
    fa, fb = da.finals.flags + b"\0", db.finals.flags + b"\0"  # the sinks are not final
    names = a.alphabet.names
    k = len(names)
    sink_row = array("i", [-1]) * k
    width = sb + 1
    start = da.initial * width + db.initial
    seen = {start}
    queue = [start]
    back = [-1]
    via = [-1]
    i = 0
    while i < len(queue):
        budget.checkpoint()
        p, q = divmod(queue[i], width)
        if fa[p] != fb[q]:
            word = []
            while i:
                word.append(names[via[i]])
                i = back[i]
            return tuple(reversed(word))
        row_a = sink_row if p == sa else ta[p * k:p * k + k]
        row_b = sink_row if q == sb else tb[q * k:q * k + k]
        for c, (p2, q2) in enumerate(zip(row_a, row_b)):
            if p2 < 0:
                if q2 < 0:
                    continue
                p2 = sa
            elif q2 < 0:
                q2 = sb
            key = p2 * width + q2
            if key not in seen:
                seen.add(key)
                queue.append(key)
                back.append(i)
                via.append(c)
        i += 1
    return None


# ---------------------------------------------------------------------------
# State elimination
# ---------------------------------------------------------------------------

def eliminate_states(a: Nfa, max_size: Optional[int] = None) -> Regex:
    """Convert an automaton to a plain regex by generalised state elimination.

    States are removed in ascending (in-degree x out-degree), ties broken by
    state id, recomputed as elimination proceeds; a classic size-reduction
    heuristic.  The output uses union/concat/star only.  ``max_size`` caps the
    number of AST nodes created (None means unbounded).
    """
    start, accept = -1, -2
    edges: dict[tuple[int, int], Regex] = {}

    def add_edge(p: int, q: int, r: Regex):
        if isinstance(r, Empty):
            return
        key = (p, q)
        edges[key] = sunion(edges[key], r) if key in edges else r

    for p, s, q in sorted(a.transitions):
        add_edge(p, q, Sym(s))
    add_edge(start, a.initial, EPSILON)
    for f in sorted(a.finals):
        add_edge(f, accept, EPSILON)

    created = 0

    def charge(r: Regex):
        nonlocal created
        created += 1
        if max_size is not None and created > max_size:
            raise budget.BudgetExceededError(
                f"state elimination exceeds {max_size} nodes")
        return r

    remaining = set(range(a.n_states))
    while remaining:
        budget.checkpoint()
        outs: dict[int, list[int]] = {q: [] for q in remaining}
        ins: dict[int, list[int]] = {q: [] for q in remaining}
        for (p, q) in edges:
            if q in outs and p != q:
                ins[q].append(p)
            if p in outs and p != q:
                outs[p].append(q)
        victim = min(remaining, key=lambda q: (len(ins[q]) * len(outs[q]), q))
        remaining.discard(victim)

        loop = edges.pop((victim, victim), None)
        loop_star = sstar(loop) if loop is not None else EPSILON
        preds = [(p, edges.pop((p, victim))) for p in set(ins[victim])]
        succs = [(q, edges.pop((victim, q))) for q in set(outs[victim])]
        for p, rin in preds:
            via = charge(sconcat(rin, loop_star))
            for q, rout in succs:
                add_edge(p, q, charge(sconcat(via, rout)))

    return edges.get((start, accept), EMPTY)
