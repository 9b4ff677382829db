"""Parametric witness families for complement/intersection blow-up experiments.

The families:

* ``z_dfa(n)`` - edge-label sequences of walks on the complete n-vertex graph
  (alphabet ``a(i,j)``), as a small DFA.
* ``k_dfa(n)`` - the four-letter block encoding of those walks: each edge
  ``a(i,j)`` becomes ``enc(j)$enc(i)#`` with ceil(log2 n)-bit numbers, indices
  swapped, so consecutive blocks chain through equal numbers.
* ``complement_witness(n)`` - a linear-size regex whose complement is exactly
  the block language for 2^n vertices.
* ``l_dfa`` / ``l_member`` - the even-length block language with an explicit
  end marker.
* ``unamb_family(n)`` - 2n+1 one-unambiguous expressions of linear size whose
  intersection is that end-marked language for 2^n vertices.
* ``m_sore_pair(n)`` - two single-occurrence expressions of quadratic size
  whose intersection is the circled-walk language ``M_n``.

``k_dfa`` and ``l_dfa`` come from one breadth-first walk over the block
acceptor's states, a whole layer at a time: a state's depth fixes its phase
and bit position, so a layer is a list of (carry, value) pairs, and the walk
polls the budget once per layer, of at most n^2 states.  For ``l_dfa`` the
block's index also fixes the parity of the ``#``s read, so it never builds
``k_dfa`` first.

The end marker is a single symbol named ``$end``; triangles and flags of the
circled alphabet are spelled ``tr(i)`` and ``rt(i)``, circled indices with a
trailing ``*`` inside the pair, e.g. ``a(2,4*)``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Union as TUnion

from . import budget
from .automata import Dfa, FinalFlags, Nfa
from .rex import (
    EPSILON,
    Alphabet,
    Concat,
    Plus,
    Regex,
    Star,
    Sym,
    Union,
    concat_all,
    power,
    repeat_upto,
    set_expr,
    size,
    union_all,
)

__all__ = [
    "SIGMA_K",
    "SIGMA_L",
    "END_MARKER",
    "PathWord",
    "WitnessBundle",
    "FAMILIES",
    "z_alphabet",
    "z_dfa",
    "encode_int",
    "enc_width",
    "rho_encode",
    "k_dfa",
    "complement_witness",
    "l_member",
    "l_dfa",
    "unamb_family",
    "m_alphabet",
    "rho_hat_encode",
    "m_member",
    "m_sore_pair",
    "build_bundle",
]

SIGMA_K = Alphabet.of("0", "1", "$", "#")
END_MARKER = "$end"
SIGMA_L = Alphabet.of("0", "1", "$", "#", END_MARKER)


@dataclass(frozen=True)
class PathWord:
    """A walk i0 -> i1 -> ... -> ik on the complete graph with n vertices."""

    indices: tuple[int, ...]
    n: int

    def __post_init__(self):
        if len(self.indices) < 2:
            raise ValueError("a path word needs at least one edge")
        if not all(0 <= i < self.n for i in self.indices):
            raise ValueError(f"vertex out of range for n={self.n}: {self.indices}")

    @property
    def end_point(self) -> int:
        return self.indices[-1]

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.indices, self.indices[1:]))

    @property
    def edge_count(self) -> int:
        return len(self.indices) - 1


def z_alphabet(n: int) -> Alphabet:
    return Alphabet(tuple(f"a({i},{j})" for i in range(n) for j in range(n)))


def z_dfa(n: int) -> Dfa:
    """Walk acceptor: a pre-start state plus one state per vertex, all final.

    From the pre-start state any edge label is admissible (walks may start
    anywhere); from vertex i only labels ``a(i,j)``.  The empty word is not a
    walk, so the pre-start state is not final.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    sigma = z_alphabet(n)
    k = n * n  # label a(i,j) is symbol i * n + j
    table = array("i", [-1]) * ((n + 1) * k)
    for i in range(n):
        budget.checkpoint()
        for j in range(n):
            c = i * n + j
            table[c] = table[(1 + i) * k + c] = 1 + j
    return Dfa.from_table(sigma, n + 1, 0, FinalFlags(b"\0" + b"\1" * n), table)


def enc_width(n: int) -> int:
    """Number of bits used for vertex numbers: ceil(log2 n), n >= 2."""
    if n < 2:
        raise ValueError("binary encodings need n >= 2")
    return (n - 1).bit_length()


def encode_int(i: int, n: int) -> str:
    """Fixed-width big-endian binary encoding of ``i`` among ``n`` values."""
    width = enc_width(n)
    if not 0 <= i < n:
        raise ValueError(f"index {i} out of range for n={n}")
    return format(i, f"0{width}b")


def rho_encode(w: PathWord) -> str:
    """Block encoding of a walk; note the per-edge index swap enc(j)$enc(i)#."""
    n = w.n
    return "".join(f"{encode_int(j, n)}${encode_int(i, n)}#" for i, j in w.edges)


def _block_walk(n: int, parity: bool) -> tuple[array, list[int]]:
    """Breadth-first walk over the block acceptor's states, one layer at a time.

    Within a block the machine reads the first number (remembering it as the
    carry for the next block), the ``$``, the second number, and the ``#``.
    The second number of every block after the first is compared bit by bit
    against the previous block's first number; a mismatch simply has no
    transition.  The depth of a state fixes its phase and bit position, and
    with ``parity`` set the block's index fixes the parity of the ``#``s
    read, which then adds a last column per row for the end marker.  So a
    layer is a list of (carry, value) payloads: ``carry`` the latest
    complete first number, ``value`` the number being read, or the one just
    read before ``$``, or the one a later block's second number must equal.

    States are numbered in discovery order with successors in alphabet
    order, so each layer takes the next run of numbers, and a ``$`` or ``#``
    layer's column is written as one slice.  Only a ``#`` state, one per
    carry and parity, has more than one in-edge, and the last block's ``#``
    edges lead back to the first block's, so the ``#`` states stay in one
    dict for the whole walk.  The budget is polled once per layer, of at
    most n^2 states.  Returns the table and the states that end a block
    after an even number of blocks.
    """
    if n < 2:
        raise ValueError("block encodings need n >= 2")
    w = enc_width(n)
    k = len(SIGMA_K) + parity
    dollar, hash_ = SIGMA_K.index["$"], SIGMA_K.index["#"]
    blank = array("i", [-1]) * k
    table = array("i", blank)
    hashes: dict[tuple[int, int], int] = {}
    checkpoint = budget.checkpoint
    layer: list[tuple] = [(None, 0)]
    ends: list[int] = []
    base = depth = 0
    while layer:
        checkpoint()
        block, r = divmod(depth, 2 * w + 2)
        par, m = block & parity, len(layer)
        top = base + m  # the next layer's first state
        rows = range(base * k, top * k, k)
        if r == 0 and block and not par:  # after an even number of blocks
            ends = list(range(base, top))
        if r == w:  # "$": block 0's second number is free, a later one the carry
            table[base * k + dollar:top * k:k] = array("i", range(top, top + m))
            nxt = [(v, c) for c, v in layer] if block else [(v, 0) for _, v in layer]
        elif r == 2 * w + 1:  # "#": the next block starts from the same carries
            table[base * k + hash_:top * k:k] = array("i", range(top, top + m))
            nxt = layer
        elif r < w or (r < 2 * w and not block):  # a free bit, then a new state
            shift = w - 1 - r if r < w else 2 * w - r
            nxt = []
            for row, (c, v) in zip(rows, layer):
                v <<= 1
                table[row] = top + len(nxt)
                nxt.append((c, v))
                if (v | 1) << shift < n:  # can the number still complete below n?
                    table[row + 1] = top + len(nxt)
                    nxt.append((c, v | 1))
        elif r < 2 * w:  # a later second number: the previous first number's bit
            shift, nxt = 2 * w - r, layer
            for row, t, (_, v) in zip(rows, range(top, top + m), layer):
                table[row + (v >> shift & 1)] = t
        else:  # a second number's last bit leads to the "#" of the block's carry
            nxt = []
            for row, (c, v) in zip(rows, layer):
                t = hashes.get((c, par))
                if t is None:
                    t = hashes[c, par] = top + len(nxt)
                    nxt.append((c, 0))
                if block:
                    table[row + (v & 1)] = t
                else:
                    table[row] = t
                    if v << 1 | 1 < n:
                        table[row + 1] = t
        table.extend(blank * len(nxt))
        base, layer, depth = top, nxt, depth + 1
    return table, ends


def k_dfa(n: int) -> Dfa:
    """Acceptor of the block encodings of walks: the block walk with the
    parity held even, whose final states sit right after a block's ``#``.

    States are numbered in BFS discovery order with symbols in alphabet
    order, so the serialisation is fixed by ``n``.
    """
    table, ends = _block_walk(n, False)
    finals = bytearray(len(table) // len(SIGMA_K))
    for q in ends:
        finals[q] = 1
    return Dfa.from_table(SIGMA_K, len(finals), 0, FinalFlags(finals), table)


# ---------------------------------------------------------------------------
# The linear-size complement witness
# ---------------------------------------------------------------------------

def complement_witness(n: int) -> Regex:
    """Regex of size O(n) over {0,1,$,#} whose complement is the block
    language on 2^n vertices.

    Union of five groups of offenders: a bad opening, a ``$`` not followed by
    an n-bit number and ``#``, a non-final ``#`` not followed by an n-bit
    number and ``$``, a missing final ``#``, and a bit mismatch between the
    first number of one block and the second number of the next (the two
    positions sit exactly 3n+2 symbols apart).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    sigma = set_expr(SIGMA_K, SIGMA_K)
    sigma_star = Star(set_expr(SIGMA_K, SIGMA_K))
    bit = set_expr(["0", "1"], SIGMA_K)

    def bits_exact(k: int) -> Regex:
        return power(set_expr(["0", "1"], SIGMA_K), k)

    bad_start = union_all([
        repeat_upto(sigma, n),
        concat_all([repeat_upto(bit, n - 1), set_expr(["$", "#"], SIGMA_K), sigma_star]),
        concat_all([bits_exact(n), set_expr(["0", "1", "#"], SIGMA_K), sigma_star]),
    ])
    bad_dollar = concat_all([
        sigma_star, Sym("$"),
        Union(
            concat_all([repeat_upto(sigma, n - 1), set_expr(["#", "$"], SIGMA_K)]),
            concat_all([power(sigma, n), set_expr(["0", "1", "$"], SIGMA_K)]),
        ),
        sigma_star,
    ])
    bad_hash = concat_all([
        sigma_star, Sym("#"),
        Union(
            concat_all([repeat_upto(sigma, n - 1), set_expr(["#", "$"], SIGMA_K)]),
            concat_all([power(sigma, n), set_expr(["0", "1", "#"], SIGMA_K)]),
        ),
        sigma_star,
    ])
    bad_end = Concat(sigma_star, set_expr(["0", "1", "$"], SIGMA_K))

    # A first-number bit position: start of string or right after a '#'.
    at_first_number = Union(Star(bit), concat_all([sigma_star, Sym("#"), Star(bit)]))
    gap = power(sigma, 3 * n + 2)

    def mismatch(b0: str, b1: str) -> Regex:
        return concat_all([at_first_number, Sym(b0), gap, Sym(b1), sigma_star])

    bad_chain = Union(mismatch("0", "1"), mismatch("1", "0"))

    return union_all([bad_start, bad_dollar, bad_hash, bad_end, bad_chain])


# ---------------------------------------------------------------------------
# End-marked even-length variant
# ---------------------------------------------------------------------------

def l_member(w: PathWord) -> tuple[str, ...]:
    """Member of the end-marked language: block encoding plus the marker."""
    if w.edge_count % 2 != 0:
        raise ValueError("the end-marked language contains even walks only")
    return tuple(rho_encode(w)) + (END_MARKER,)


def l_dfa(n: int) -> Dfa:
    """Direct acceptor: the block acceptor, restricted to an even number of
    blocks, followed by the end marker.

    The block walk of :func:`k_dfa`, with the parity of the ``#``s read in
    each state and a fifth column for the marker; it does not build
    :func:`k_dfa` first.  The marker leads from every block end after an
    even number of blocks to the one accept state, numbered last.
    """
    table, ends = _block_walk(n, True)
    k = len(SIGMA_L)  # SIGMA_L is SIGMA_K plus the end marker, last
    accept = len(table) // k
    for q in ends:
        table[q * k + k - 1] = accept
    table.extend(array("i", [-1]) * k)
    return Dfa.from_table(SIGMA_L, accept + 1, 0, FinalFlags(bytes(accept) + b"\1"), table)


def unamb_family(n: int) -> list[Regex]:
    """2n+1 one-unambiguous expressions of size O(n) whose intersection is the
    end-marked block language on 2^n vertices.

    One expression pins the format (an even number of n-bit blocks, then the
    marker); for every bit position i, one expression equates bit i of the
    numbers 3n+2 apart across an odd-``#`` boundary and one across an
    even-``#`` boundary.  Gap fillers range over {0,1,$,#} only - including
    the marker there would break one-unambiguity at the block-final ``#``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    sigma = set_expr(SIGMA_K, SIGMA_L)  # four-letter filler inside blocks
    bit = set_expr(["0", "1"], SIGMA_L)
    end = Sym(END_MARKER)

    def bits(k: int) -> Regex:
        return power(set_expr(["0", "1"], SIGMA_L), k)

    block = concat_all([bits(n), Sym("$"), bits(n), Sym("#")])
    shape = Concat(Star(Concat(block, block)), end)

    exprs = [shape]
    for i in range(n):
        budget.checkpoint()
        both = Union(
            concat_all([Sym("0"), power(sigma, 3 * n + 2), Sym("0")]),
            concat_all([Sym("1"), power(sigma, 3 * n + 2), Sym("1")]),
        )
        odd = Concat(Star(concat_all([power(sigma, i), both,
                                      power(sigma, n - i - 1), Sym("#")])), end)
        exprs.append(odd)
    for i in range(n):
        budget.checkpoint()

        def tail(b: str) -> Regex:
            return concat_all([
                Sym(b), power(sigma, 2 * n - i + 1),
                Union(end, concat_all([power(sigma, n + i + 1), Sym(b),
                                       power(sigma, n - i - 1), Sym("#")])),
            ])
        body = concat_all([power(sigma, i), Union(tail("0"), tail("1"))])
        exprs.append(Concat(power(sigma, 2 * n + 2), Star(body)))
    return exprs


# ---------------------------------------------------------------------------
# Circled-walk languages and the single-occurrence pair
# ---------------------------------------------------------------------------

def _circ_out(i: int, j: int) -> str:
    return f"a({i}*,{j})"


def _circ_in(i: int, j: int) -> str:
    return f"a({i},{j}*)"


def _flag(i: int) -> str:
    return f"rt({i})"


def _tri(i: int) -> str:
    return f"tr({i})"


def m_alphabet(n: int) -> Alphabet:
    """Circled-pair symbols plus per-vertex flags and triangles: 2n^2+2n names."""
    if n < 1:
        raise ValueError("n must be at least 1")
    names = []
    for name in chain((_circ_out(i, j) for i in range(n) for j in range(n)),
                      (_circ_in(i, j) for i in range(n) for j in range(n)),
                      map(_flag, range(n)), map(_tri, range(n))):
        budget.checkpoint()
        names.append(name)
    return Alphabet(tuple(names))


def rho_hat_encode(w: PathWord) -> tuple[str, ...]:
    """Circled encoding: each edge pair (i,j),(j,k) becomes rt(i) a(i,j*) a(j*,k)."""
    if w.edge_count % 2 != 0:
        raise ValueError("circled encodings are defined for even walks only")
    out: list[str] = []
    edges = w.edges
    for t in range(0, len(edges), 2):
        (i, j), (_, k) = edges[t], edges[t + 1]
        out += [_flag(i), _circ_in(i, j), _circ_out(j, k)]
    return tuple(out)


def m_member(w: PathWord) -> tuple[str, ...]:
    """Circled encoding terminated by the end-point triangle."""
    return rho_hat_encode(w) + (_tri(w.end_point),)


def m_sore_pair(n: int) -> tuple[Regex, Regex]:
    """Two single-occurrence expressions whose intersection is the circled-walk
    language.

    The first pins the block format `(flag, into-circle, out-of-circle)+` and a
    final triangle, matching circled indices within a block; the second slides
    a window `(into-vertex? flag-or-triangle out-of-vertex?)*` that matches the
    plain indices around every flag and triangle.
    """
    return _sore_pair(n, m_alphabet(n))


def _sore_pair(n: int, sigma: Alphabet) -> tuple[Regex, Regex]:
    """:func:`m_sore_pair` over ``sigma``, which is ``m_alphabet(n)``."""

    def polled_set(names: list[str]) -> Regex:
        budget.checkpoint()
        return set_expr(names, sigma)

    flags = polled_set([_flag(i) for i in range(n)])
    tris = polled_set([_tri(i) for i in range(n)])
    circle_blocks = union_all(
        Concat(polled_set([_circ_in(j, i) for j in range(n)]),
               polled_set([_circ_out(i, j) for j in range(n)]))
        for i in range(n))
    r = Concat(Plus(Concat(flags, circle_blocks)), tris)

    windows = union_all(
        concat_all([
            Union(polled_set([_circ_out(j, i) for j in range(n)]), EPSILON),
            Union(Sym(_flag(i)), Sym(_tri(i))),
            Union(polled_set([_circ_in(i, j) for j in range(n)]), EPSILON),
        ])
        for i in range(n))
    s = Star(windows)
    return r, s


# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------

_BUILDERS = {  # family: (builder of member n, bound on its size)
    "z-dfa": (z_dfa, "O(n^2)"),
    "k-dfa": (k_dfa, "O(n^2 log n)"),
    "complement-witness": (complement_witness, "O(n)"),
    "l-family": (l_dfa, "O(n^2 log n)"),
    "m-sore-pair": (m_sore_pair, "O(n^2)"),
    "unamb-family": (unamb_family, "O(n) each"),
}
FAMILIES = tuple(_BUILDERS)


@dataclass(frozen=True)
class WitnessBundle:
    family: str
    n: int
    payload: TUnion[Regex, Nfa, list[Regex], tuple[Regex, ...]]
    declared_size: int
    bound_label: str
    alphabet_size: int

    def metadata(self) -> dict:
        return {"family": self.family, "n": self.n,
                "declared_size": self.declared_size,
                "alphabet_size": self.alphabet_size,
                "bound": self.bound_label}


def _bundle_and_alphabet(family: str, n: int) -> tuple[WitnessBundle, Alphabet]:
    """Member ``n``'s bundle and alphabet, each built once: an automaton's
    own alphabet, else the family's."""
    if family not in _BUILDERS:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    build, bound = _BUILDERS[family]
    if family == "m-sore-pair":  # the pair is built over this alphabet
        sigma = m_alphabet(n)
        payload = _sore_pair(n, sigma)
    else:
        sigma = SIGMA_K if family == "complement-witness" else SIGMA_L
        payload = build(n)
    if isinstance(payload, Nfa):
        declared, sigma = payload.size, payload.alphabet
    elif isinstance(payload, Regex):
        declared = size(payload)
    else:
        declared = sum(size(r) for r in payload)
    return WitnessBundle(family, n, payload, declared, bound, len(sigma)), sigma


def build_bundle(family: str, n: int) -> WitnessBundle:
    return _bundle_and_alphabet(family, n)[0]
