"""Seeded input generators owned by the benchmark.

Nothing here imports the test suite, so editing a test never moves a
benchmark number.  Every generator draws only from the ``random.Random`` it is
given and iterates lists, never sets, so one seed gives byte-identical inputs
in every process whatever the hash seed.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from rexlab.automata import Nfa
from rexlab.rex import EMPTY, EPSILON, Concat, Intersect, Negate, Plus, Regex, Star, Sym, Union

Word = tuple[str, ...]


# ---------------------------------------------------------------------------
# Block words: walks on the complete graph, encoded, plus near misses
# ---------------------------------------------------------------------------

def _encode(i: int, width: int) -> str:
    return format(i, f"0{width}b")


def block_word(walk: Sequence[int], vertices: int) -> Word:
    """Edge (i, j) becomes enc(j) $ enc(i) #, so blocks chain through equal numbers."""
    width = (vertices - 1).bit_length()
    text = "".join(f"{_encode(j, width)}${_encode(i, width)}#"
                   for i, j in zip(walk, walk[1:]))
    return tuple(text)


def block_words(rng: random.Random, vertices: int, count: int,
                max_edges: int = 6) -> list[Word]:
    """Encoded walks, half of them mutated by one edit, so both verdicts occur."""
    out = []
    for t in range(count):
        walk = [rng.randrange(vertices) for _ in range(rng.randint(2, max_edges + 1))]
        word = list(block_word(walk, vertices))
        if t % 2:
            pos = rng.randrange(len(word))
            edit = rng.randrange(3)
            if edit == 0:
                word[pos] = rng.choice("01$#")
            elif edit == 1:
                del word[pos]
            else:
                word.insert(pos, rng.choice("01$#"))
        out.append(tuple(word))
    return out


def acceptor(a: Nfa) -> Callable[[Word], bool]:
    """Membership test by subset simulation with bitmasks, written here so
    that it shares no code with the library's conversions."""
    succ: dict[tuple[int, str], int] = {}
    for p, s, q in a.transitions:
        succ[(p, s)] = succ.get((p, s), 0) | 1 << q
    finals = sum(1 << q for q in a.finals)

    def accepts(word: Word) -> bool:
        current = 1 << a.initial
        for s in word:
            nxt = 0
            while current:
                low = current & -current
                nxt |= succ.get((low.bit_length() - 1, s), 0)
                current ^= low
            current = nxt
        return bool(current & finals)

    return accepts


# ---------------------------------------------------------------------------
# Single-occurrence expressions
# ---------------------------------------------------------------------------

def balanced_sore(rng: random.Random, names: Sequence[str]) -> Regex:
    """SORE over a seeded order of ``names``, split at the middle at every level."""
    pool = list(names)
    rng.shuffle(pool)
    # Explicit stack: (lo, hi, expanded); values are built bottom-up.
    values: list[Regex] = []
    stack = [(0, len(pool), False)]
    while stack:
        lo, hi, expanded = stack.pop()
        if hi - lo == 1:
            values.append(_decorate(rng, Sym(pool[lo])))
        elif not expanded:
            mid = (lo + hi) // 2
            stack.append((lo, hi, True))
            stack.append((mid, hi, False))
            stack.append((lo, mid, False))
        else:
            right, left = values.pop(), values.pop()
            op = Concat if rng.random() < 0.6 else Union
            values.append(_decorate(rng, op(left, right)))
    return values[0]


def _decorate(rng: random.Random, node: Regex) -> Regex:
    roll = rng.random()
    if roll < 0.15:
        return Star(node)
    if roll < 0.25:
        return Plus(node)
    if roll < 0.33:
        return Union(node, EPSILON)
    return node


def sore_list(rng: random.Random, names: Sequence[str], count: int) -> list[Regex]:
    """``count`` SOREs over seeded subsets of one alphabet, for an intersection."""
    out = []
    for _ in range(count):
        keep = [n for n in names if rng.random() < 0.85] or [names[0]]
        out.append(balanced_sore(rng, keep))
    return out


# ---------------------------------------------------------------------------
# Small random expressions
# ---------------------------------------------------------------------------

def random_regex(rng: random.Random, syms: Sequence[str], target: int,
                 extended: bool) -> Regex:
    """Random expression of reverse-Polish size at most ``target``."""
    ops = ["star", "plus", "concat", "union", "concat", "union"]
    if extended:
        ops += ["isect", "neg"]
    values: list[Regex] = []
    stack = [(max(1, target), None)]
    while stack:
        budget, op = stack.pop()
        if op is not None:
            if op in ("star", "plus", "neg"):
                inner = values.pop()
                values.append({"star": Star, "plus": Plus, "neg": Negate}[op](inner))
            else:
                right, left = values.pop(), values.pop()
                values.append({"concat": Concat, "union": Union,
                               "isect": Intersect}[op](left, right))
            continue
        if budget <= 1:
            roll = rng.random()
            values.append(EMPTY if roll < 0.04 else EPSILON if roll < 0.12
                          else Sym(rng.choice(syms)))
            continue
        op = rng.choice(ops if budget > 2 else ["star", "plus", "neg"][:3 if extended else 2])
        if op in ("star", "plus", "neg"):
            stack.append((0, op))
            stack.append((budget - 1, None))
        else:
            left = rng.randint(1, budget - 2)
            stack.append((0, op))
            stack.append((budget - 1 - left, None))
            stack.append((left, None))
    return values[0]
