"""Seeded random generators for test corpora.

Deterministic for a fixed seed, so corpus-based acceptance numbers are
reproducible run to run.
"""

from __future__ import annotations

import random
from typing import Sequence

from rexlab.automata import Dfa, Nfa
from rexlab.rex import (
    EMPTY,
    EPSILON,
    Alphabet,
    Concat,
    Plus,
    Regex,
    Star,
    Sym,
    Union,
    Intersect,
    Negate,
    size,
    format_regex,
)
from rexlab.unambiguous import is_one_unambiguous


def random_plain_regex(rng: random.Random, syms: Sequence[str], target_size: int,
                       allow_plus: bool = True, allow_empty: bool = True) -> Regex:
    """Random plain regex of reverse-Polish size near ``target_size``."""
    def grow(budget: int) -> Regex:
        if budget <= 1:
            roll = rng.random()
            if roll < 0.08 and allow_empty:
                return EMPTY
            if roll < 0.18:
                return EPSILON
            return Sym(rng.choice(syms))
        ops = ["star", "concat", "union"]
        if allow_plus:
            ops.append("plus")
        op = rng.choice(ops)
        if op == "star":
            return Star(grow(budget - 1))
        if op == "plus":
            return Plus(grow(budget - 1))
        left_budget = rng.randint(1, budget - 2) if budget > 2 else 1
        left = grow(left_budget)
        right = grow(budget - 1 - left_budget)
        return Concat(left, right) if op == "concat" else Union(left, right)

    return grow(max(1, target_size))


def random_extended_regex(rng: random.Random, syms: Sequence[str],
                          target_size: int) -> Regex:
    def grow(budget: int) -> Regex:
        if budget <= 1:
            roll = rng.random()
            if roll < 0.05:
                return EMPTY
            if roll < 0.15:
                return EPSILON
            return Sym(rng.choice(syms))
        op = rng.choice(["star", "concat", "union", "concat", "union",
                         "isect", "neg"])
        if op == "star":
            return Star(grow(budget - 1))
        if op == "neg":
            return Negate(grow(budget - 1))
        left_budget = rng.randint(1, budget - 2) if budget > 2 else 1
        left, right = grow(left_budget), grow(budget - 1 - left_budget)
        return {"concat": Concat, "union": Union, "isect": Intersect}[op](left, right)

    return grow(max(1, target_size))


def random_sore(rng: random.Random, syms: Sequence[str]) -> Regex:
    """Random single-occurrence regex using a shuffled subset of the symbols."""
    pool = list(syms)
    rng.shuffle(pool)
    pool = pool[:rng.randint(1, len(pool))]

    def build(names: list[str]) -> Regex:
        if len(names) == 1:
            node: Regex = Sym(names[0])
        else:
            cut = rng.randint(1, len(names) - 1)
            op = rng.choice([Concat, Union, Concat])
            node = op(build(names[:cut]), build(names[cut:]))
        roll = rng.random()
        if roll < 0.2:
            return Star(node)
        if roll < 0.3:
            return Plus(node)
        if roll < 0.38:
            return Union(node, EPSILON)
        return node

    return build(pool)


def balanced_sore(rng: random.Random, syms: Sequence[str]) -> Regex:
    """SORE over a shuffled order of all ``syms``, split at the middle at
    every level, each node starred, plussed or made optional at random."""
    pool = list(syms)
    rng.shuffle(pool)

    def build(names: list[str]) -> Regex:
        if len(names) == 1:
            node: Regex = Sym(names[0])
        else:
            mid = len(names) // 2
            op = Concat if rng.random() < 0.6 else Union
            node = op(build(names[:mid]), build(names[mid:]))
        roll = rng.random()
        if roll < 0.15:
            return Star(node)
        if roll < 0.25:
            return Plus(node)
        if roll < 0.35:
            return Union(node, EPSILON)
        return node

    return build(pool)


def one_unambiguous_corpus(seed: int, count: int, max_size: int,
                           syms: Sequence[str]) -> list[Regex]:
    """At least ``count`` distinct one-unambiguous expressions of size <= max_size.

    Mixes always-unambiguous single-occurrence expressions with general
    expressions kept when the position automaton happens to be deterministic,
    for spread across sizes and shapes.
    """
    rng = random.Random(seed)
    out: list[Regex] = []
    seen: set[str] = set()

    def keep(r: Regex) -> None:
        if size(r) > max_size:
            return
        text = format_regex(r)
        if text in seen:
            return
        if not is_one_unambiguous(r).is_one_unambiguous:
            return
        seen.add(text)
        out.append(r)

    while len(out) < count:
        if rng.random() < 0.45:
            keep(random_sore(rng, syms))
        else:
            keep(random_plain_regex(rng, syms, rng.randint(1, max_size),
                                    allow_empty=False))
    return out


def random_nfa(rng: random.Random, alphabet: Alphabet, n_states: int,
               density: float = 0.25) -> Nfa:
    transitions = set()
    for p in range(n_states):
        for s in alphabet:
            for q in range(n_states):
                if rng.random() < density:
                    transitions.add((p, s, q))
    finals = frozenset(q for q in range(n_states) if rng.random() < 0.4)
    return Nfa(alphabet, n_states, 0, finals, frozenset(transitions))


def random_dfa(rng: random.Random, alphabet: Alphabet, n_states: int) -> Dfa:
    transitions = set()
    for p in range(n_states):
        for s in alphabet:
            if rng.random() < 0.8:
                transitions.add((p, s, rng.randrange(n_states)))
    finals = frozenset(q for q in range(n_states) if rng.random() < 0.4)
    return Dfa(alphabet, n_states, 0, finals, frozenset(transitions))


def random_layered_nfa(rng: random.Random, alphabet: Alphabet, n_states: int,
                       width: int, density: float = 0.5) -> Nfa:
    """Random NFA whose edges go from one layer of ``width`` states to the next.

    Every reachable subset lies inside one layer, so there are few of them,
    but the states are numbered in a shuffled order, so a subset's bits
    spread over the whole range.  A state is usually entered on several
    symbols.
    """
    state = list(range(n_states))
    rng.shuffle(state)  # state[i]: the state at layer-major position i
    transitions = set()
    for i in range(n_states):
        layer_end = (i // width + 1) * width
        for s in alphabet:
            for j in range(layer_end, min(layer_end + width, n_states)):
                if rng.random() < density:
                    transitions.add((state[i], s, state[j]))
    finals = frozenset(q for q in range(n_states) if rng.random() < 0.4)
    return Nfa(alphabet, n_states, state[0], finals, frozenset(transitions))
