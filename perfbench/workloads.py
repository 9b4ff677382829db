"""The three workloads.  Each builds its inputs from a seed and returns them as
items: (item id, a function that runs one item and checks its verdict).

Every verdict is compared with a reference computed another way: the direct
acceptors ``k_dfa`` and ``l_dfa``, the naive determinise-complement route,
the iterated product, or the combinator route (``extended_to_nfa``) read
through ``enumerate_language``.  A mismatch raises :class:`Mismatch`.
"""

from __future__ import annotations

import contextlib
import io
import random
from functools import partial
from types import SimpleNamespace
from typing import Callable

from rexlab.rex import Alphabet, Regex, has_extended, size
from rexlab.witnesses import SIGMA_K, SIGMA_L, m_alphabet

import inputs

Item = tuple[str, Callable[[], None]]


class Mismatch(Exception):
    """A verdict disagreed with its reference."""


def check(ok: bool, what: str):
    if not ok:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# witness-cliff: the criterion-1 chain at n = 1 and n = 2
# ---------------------------------------------------------------------------

# Recorded shape of the subset DFA of the complement witness: states,
# transitions and final states.
SUBSET_DFA = {1: (63_993, 255_972, 63_991), 2: (1_810_323, 7_241_292, 1_810_319)}
DET_BUDGET = 2_500_000
SAMPLE_WORDS = 200


def _cliff_item(L: SimpleNamespace, n: int, r: Regex, k, words, expected):
    g = L.glushkov(r, SIGMA_K)
    accepts = inputs.acceptor(g)
    for w, want in zip(words, expected):
        check(accepts(w) == want, f"n={n}: witness verdict on {''.join(w)!r} "
              f"disagrees with k_dfa({2 ** n})")
    d = L.determinize(g, max_states=DET_BUDGET)
    shape = (d.n_states, len(d.transitions), len(d.finals))
    check(shape == SUBSET_DFA[n], f"n={n}: subset DFA shape {shape}, recorded {SUBSET_DFA[n]}")
    # At n = 2 the complement and the equivalence test would add about 55 s
    # to every run, more than the run schedule allows; reading the 7.2M
    # transitions back to test sampled words would add 8 s of work outside
    # every layer.  The recorded shape stands in for them there.
    if n == 1:
        check(L.equivalent(L.complement_dfa(d), k), "n=1: complement differs from k_dfa(2)")


def witness_cliff(L: SimpleNamespace, seed: int) -> tuple[list[str], list[Item]]:
    # The witnesses keep their own order; the seed draws the sampled words.
    # Reordering the top-level union members keeps the language and the
    # subset counts, but it renumbers the positions inside every subset
    # mask, and that alone changed determinize at n = 2 from about 65 s to
    # about 150 s for some seeds.
    rng = random.Random(seed)
    texts, items = [], []
    for n in (1, 2):
        r = L.complement_witness(n)
        k = L.k_dfa(2 ** n)
        words = inputs.block_words(rng, 2 ** n, SAMPLE_WORDS)
        in_k = inputs.acceptor(k)
        expected = [not in_k(w) for w in words]
        check(any(expected) and not all(expected), "word sample lacks one verdict")
        texts.append(L.format_regex(r))
        texts.extend("".join(w) for w in words)
        items.append((f"n{n}", partial(_cliff_item, L, n, r, k, words, expected)))
    return texts, items


# ---------------------------------------------------------------------------
# poly-families: the polynomial routes on the paper's families
# ---------------------------------------------------------------------------

FAMILY_NS = (1, 2)               # complement_unambiguous over unamb_family(n)
PRODUCT_NS = (1, 2, 3, 4, 5, 6)  # product chain of unamb_family(n) vs l_dfa(2^n)
SORE_PAIR_NS = (1, 2, 3, 4)      # intersect_sores on m_sore_pair(n)
SORE_SYMBOLS = [f"s{i}" for i in range(25)]
SORES = 6                        # seeded balanced SOREs to complement
SORE_LISTS = 6                   # seeded SORE lists to intersect
LIST_SYMBOLS = [f"t{i}" for i in range(12)]


def _complement_item(L: SimpleNamespace, r: Regex, sigma: Alphabet):
    check(L.is_one_unambiguous(r).is_one_unambiguous, "input is not one-unambiguous")
    s = L.complement_unambiguous(r, sigma)
    naive = L.complement_dfa(L.minimize(L.determinize(L.glushkov(r, sigma))))
    check(L.equivalent(L.glushkov(s, sigma), naive),
          "polynomial complement differs from the naive route")


def _product_item(L: SimpleNamespace, family: list[Regex], reference):
    acc = L.glushkov(family[0], SIGMA_L)
    for r in family[1:]:
        acc = L.product(acc, L.glushkov(r, SIGMA_L))
    check(L.equivalent(acc, reference), "family product differs from l_dfa")


def _intersect_item(L: SimpleNamespace, lists: list[list[Regex]], sigma: Alphabet):
    for rs in lists:
        x = L.intersect_sores(rs, sigma)
        acc = L.glushkov(rs[0], sigma)
        for r in rs[1:]:
            acc = L.product(acc, L.glushkov(r, sigma))
        check(L.equivalent(L.glushkov(x, sigma), acc),
              "SORE intersection differs from the iterated product")


def poly_families(L: SimpleNamespace, seed: int) -> tuple[list[str], list[Item]]:
    rng = random.Random(seed)
    exprs, items = [], []
    families = {n: L.unamb_family(n) for n in sorted(set(FAMILY_NS) | set(PRODUCT_NS))}
    for n in FAMILY_NS:
        for i, r in enumerate(families[n]):
            exprs.append(r)
            items.append((f"fam{n}.{i}", partial(_complement_item, L, r, SIGMA_L)))
    sore_sigma = Alphabet(tuple(SORE_SYMBOLS))
    for j in range(SORES):
        r = inputs.balanced_sore(rng, SORE_SYMBOLS)
        exprs.append(r)
        items.append((f"sore{j}", partial(_complement_item, L, r, sore_sigma)))
    for n in PRODUCT_NS:
        items.append((f"prod{n}", partial(_product_item, L, families[n], L.l_dfa(2 ** n))))
    for n in SORE_PAIR_NS:
        pair = list(L.m_sore_pair(n))
        exprs.extend(pair)
        items.append((f"msore{n}", partial(_intersect_item, L, [pair], m_alphabet(n))))
    # The seeded lists are one item: each takes a few ms, and six separate
    # items would put the median item between two clusters of item costs.
    lists = [inputs.sore_list(rng, LIST_SYMBOLS, 3) for _ in range(SORE_LISTS)]
    exprs.extend(r for rs in lists for r in rs)
    items.append(("lists", partial(_intersect_item, L, lists, Alphabet(tuple(LIST_SYMBOLS)))))
    return [L.format_regex(r) for r in exprs], items


# ---------------------------------------------------------------------------
# small-corpus: many tiny expressions, one item each
# ---------------------------------------------------------------------------

# Sizes, alphabets and the plain/extended mix are stratified, not drawn, so
# the work in one pass varies little from seed to seed.
CORPUS = 700
MAX_SIZE = 24
EXTENDED_PER_TEN = 3
SLICE_LEN = 5


def _slice_words(L: SimpleNamespace, source, sigma: Alphabet) -> tuple:
    return L.enumerate_language(source, SLICE_LEN, sigma).words


def _run_cli(L: SimpleNamespace, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = L.main(argv)
    check(code == 0, f"cli {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _small_item(L: SimpleNamespace, i: int, r: Regex, text: str, sigma: Alphabet,
                all_words: int):
    parsed = L.parse(text, sigma)
    check(parsed == r and L.format_regex(parsed) == text, "text round trip")
    plain = not has_extended(r)
    nfa = L.glushkov(r, sigma) if plain else L.extended_to_nfa(r, sigma)
    m = L.minimize(L.determinize(nfa))
    c = L.complement_dfa(m)
    back = L.eliminate_states(c)

    # The combinator route is the reference for the minimal DFA; for
    # extended inputs it is also the route that built the NFA.
    ref = L.extended_to_nfa(r, sigma) if plain else nfa
    lang = _slice_words(L, m, sigma)
    check(lang == _slice_words(L, ref, sigma), "minimal DFA slice differs from the combinator route")
    co = _slice_words(L, c, sigma)
    check(len(lang) + len(co) == all_words and not set(lang) & set(co),
          "complement slice does not partition the words")
    check(_slice_words(L, back, sigma) == co, "eliminated regex slice differs")

    saved = L.serialize(m)
    check(L.serialize(L.parse_automaton(saved)) == saved, "automaton text round trip")

    letters = "".join(sigma)
    verb = ("parse", "size", "to-nfa")[i % 3]
    got = _run_cli(L, [verb, "--alphabet", letters, text])
    if verb == "parse":
        want = text + "\n"
    elif verb == "size":
        want = f"{size(r)}\n"
    else:
        want = L.serialize(nfa)
    check(got == want, f"cli {verb} output differs")


def small_corpus(L: SimpleNamespace, seed: int) -> tuple[list[str], list[Item]]:
    rng = random.Random(seed)
    texts, items = [], []
    for i in range(CORPUS):
        letters = ("ab", "abc")[(i // MAX_SIZE) % 2]
        sigma = Alphabet.from_chars(letters)
        extended = i % 10 < EXTENDED_PER_TEN
        r = inputs.random_regex(rng, letters, 1 + i % MAX_SIZE, extended)
        text = L.format_regex(r)
        texts.append(f"{letters} {text}")
        all_words = sum(len(letters) ** n for n in range(SLICE_LEN + 1))
        items.append((f"c{i}", partial(_small_item, L, i, r, text, sigma, all_words)))
    return texts, items


WORKLOADS = {
    "witness-cliff": witness_cliff,
    "poly-families": poly_families,
    "small-corpus": small_corpus,
}
