import hashlib
import operator
import random
import sys
import tracemalloc
from array import array
from collections import Counter
from collections.abc import Set
from functools import reduce

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rexlab.automata import (
    AlphabetMismatchError,
    AutomatonFormatError,
    Dfa,
    FinalFlags,
    Nfa,
    TransitionIndex,
    TransitionMasks,
    TransitionTable,
    accepts,
    complement_dfa,
    determinize,
    eliminate_states,
    equivalent,
    extended_to_nfa,
    glushkov,
    minimize,
    parse_automaton,
    product,
    serialize,
    shortest_divergence,
)
from rexlab import analysis, automata, budget, rex
from rexlab.budget import BudgetExceededError, CancelToken
from rexlab.rex import (
    EMPTY,
    EPSILON,
    Alphabet,
    Concat,
    ExtendedOperatorError,
    Intersect,
    Negate,
    Plus,
    RexlabError,
    Star,
    Sym,
    Union,
    has_extended,
    occurrence_count,
    parse,
    position_sets,
    size,
)
from rexlab.unambiguous import complement_unambiguous, intersect_sores, is_one_unambiguous
from rexlab.unambiguous import local_profile, profile_to_dfa
from rexlab.witnesses import (
    SIGMA_K,
    SIGMA_L,
    complement_witness,
    k_dfa,
    l_dfa,
    m_alphabet,
    m_sore_pair,
    unamb_family,
    z_dfa,
)

from conftest import CountingToken, extended_regexes, regexes
from corpus import random_dfa, random_extended_regex, random_layered_nfa, random_nfa
from corpus import random_plain_regex
from oracles import extended_to_nfa_by_triples, glushkov_by_marking, mark, marked_position_sets
from oracles import nfa_slice as slice_of
from oracles import minimize_by_moore, regex_slice, subset_construction, words_upto
from oracles import equivalent_by_totalising, shortest_divergence_by_totalising
from oracles import lane_scan_by_slots, pair_walk_by_keys, parse_automaton_by_slots
from oracles import position_masks_absolute, product_by_pair_codes

A = Alphabet.of("a")
AB = Alphabet.of("a", "b")
ABC = Alphabet.of("a", "b", "c")
S25 = Alphabet(tuple(f"s{i}" for i in range(25)))


class TestGlushkov:
    def test_a_astar_structure(self):
        g = glushkov(parse("aa*", A))
        assert g.n_states == 3
        assert g.transitions == {(0, "a", 1), (1, "a", 2), (2, "a", 2)}
        assert g.finals == {1, 2}
        assert slice_of(g, 5) == regex_slice(parse("aa*", A), "a", 5)

    def test_epsilon(self):
        g = glushkov(EPSILON, A)
        assert g.n_states == 1 and not g.transitions and g.finals == {0}

    def test_paper_expression_state_count(self):
        g = glushkov(parse("(a|b)*a|bc", ABC))
        assert g.n_states == 6

    def test_rejects_extended(self):
        with pytest.raises(ExtendedOperatorError):
            glushkov(Negate(Sym("a")), A)

    @given(regexes("ab", max_leaves=6))
    def test_language_and_state_count(self, r):
        g = glushkov(r, AB)
        assert g.n_states == occurrence_count(r) + 1
        assert slice_of(g, 5) == regex_slice(r, "ab", 5)


class TestGlushkovAgainstMarking:
    """``glushkov`` against the mark-and-frozenset route of ``oracles``."""

    @staticmethod
    def check(r, sigma):
        got, want = glushkov(r, sigma), glushkov_by_marking(r, sigma)
        assert type(got) is type(want)
        assert serialize(got) == serialize(want)

    def test_seeded_corpus(self):
        rng = random.Random(4051)
        for _ in range(1500):
            syms = rng.choice(["ab", "abc", "abcd"])
            r = random_plain_regex(rng, syms, rng.randint(1, 40))
            self.check(r, Alphabet.from_chars(syms))

    @pytest.mark.parametrize("text", [
        "a%0", "%0a", "a%0b", "(a%0)b", "a(b%0)", "((ab)%0)*c", "a(%0b)*c",
        "a|%0", "%0|ab", "(a%0|b)(a|%0)", "(%0|%0)a", "%0*", "%0+", "(%0)*a",
        "a(b%0)+", "(a%0)+|b", "%e", "a%e", "(%e)*", "%e+", "(a|%e)+b", "a+",
        "(ab+)+", "(a*b*)+a", "(a%0b|c)*a", "((a%0)*b%0)*c",
    ])
    def test_empty_epsilon_and_plus(self, text):
        self.check(parse(text, ABC), ABC)

    def test_derived_alphabet(self):
        for text in ["ca*b", "(b|a)+b", "a%0c"]:
            r = parse(text, ABC)
            self.check(r, None)
        with pytest.raises(ValueError):
            glushkov(parse("%e|%0*", A))

    def test_position_sets(self):
        rng = random.Random(4052)
        for _ in range(500):
            r = random_plain_regex(rng, "abc", rng.randint(1, 30))
            m = mark(r)
            sets = position_sets(r)
            assert (sets.nullable, sets.first, sets.last, sets.follow) == \
                marked_position_sets(m.root)

    def test_error_order(self):
        # Extended operators first, even with an unknown symbol in the tree.
        with pytest.raises(ExtendedOperatorError):
            glushkov(Intersect(Sym("z"), Sym("a")), A)
        with pytest.raises(ExtendedOperatorError):
            glushkov(Concat(mark(parse("ab", AB)).root, Negate(Sym("a"))), AB)
        # Then marked input, before the alphabet is looked at.
        for sigma in (AB, A, None):
            with pytest.raises(ValueError, match="already marked"):
                glushkov(mark(parse("ab", AB)).root, sigma)
        with pytest.raises(ValueError, match="not in the declared alphabet"):
            glushkov(parse("ab", AB), A)


class TestDeepInput:
    DEPTH = 10_000

    def test_left_nested_concat(self):
        r = Sym("a")
        for _ in range(self.DEPTH):
            r = Concat(r, Sym("b"))
        g = glushkov(r, AB)
        assert isinstance(g, Dfa) and g.n_states == self.DEPTH + 2
        assert g.finals == {self.DEPTH + 1} and len(g.transitions) == self.DEPTH + 1
        sets = position_sets(r)
        assert len(sets.follow) == self.DEPTH and len(sets.last) == 1

    def test_right_nested_concat(self):
        r = Sym("a")
        for _ in range(self.DEPTH):
            r = Concat(Sym("b"), r)
        g = glushkov(r, AB)
        assert isinstance(g, Dfa) and g.n_states == self.DEPTH + 2
        assert (0, "b", 1) in g.transitions and g.finals == {self.DEPTH + 1}
        sets = position_sets(r)
        assert len(sets.follow) == self.DEPTH and len(sets.first) == 1

    def test_star_nest(self):
        r = Sym("a")
        for _ in range(self.DEPTH):
            r = Star(r)
        g = glushkov(r, A)
        assert g.transitions == {(0, "a", 1), (1, "a", 1)} and g.finals == {0, 1}
        sets = position_sets(r)
        assert sets.nullable and len(sets.follow) == 1


class TestExtended:
    def test_intersection_even_runs(self):
        r = parse("a*&(aa)*", A)
        nfa = extended_to_nfa(r)
        assert slice_of(nfa, 8) == {tuple("a" * k) for k in range(0, 9, 2)}

    def test_negate_empty(self):
        nfa = extended_to_nfa(Negate(EMPTY), AB)
        assert slice_of(nfa, 3) == frozenset(words_upto("ab", 3))

    def test_negate_epsilon(self):
        nfa = extended_to_nfa(Negate(EPSILON), A)
        assert slice_of(nfa, 4) == {tuple("a" * k) for k in range(1, 5)}

    def test_negation_needs_alphabet(self):
        with pytest.raises(ValueError):
            extended_to_nfa(Negate(Sym("a")))

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            extended_to_nfa(parse("(a|b)*(a|b)*(a|b)*", AB), AB, max_states=3)

    @given(regexes("ab", max_leaves=5))
    def test_plain_state_bound(self, r):
        nfa = extended_to_nfa(r, AB)
        assert nfa.n_states <= 2 ** size(r)
        assert slice_of(nfa, 5) == regex_slice(r, "ab", 5)

    @settings(max_examples=30)
    @given(st.integers(0, 10_000))
    def test_extended_language(self, seed):
        from corpus import random_extended_regex
        rng = random.Random(seed)
        r = random_extended_regex(rng, "ab", rng.randint(1, 9))
        nfa = extended_to_nfa(r, AB)
        assert slice_of(nfa, 4) == regex_slice(r, "ab", 4)

    @settings(max_examples=200)
    @given(st.integers(0, 100_000), st.sampled_from(["ab", "abc"]),
           st.sampled_from(["declared", "derived", "short"]),
           st.sampled_from([*range(1, 11), budget.DEFAULT_MAX_STATES]))
    def test_matches_triple_combinators(self, seed, letters, alphabet, max_states):
        # Same states, finals, transitions and text as one triples-built Nfa
        # per node, or the same error; "short" leaves symbols undeclared.
        from corpus import random_extended_regex
        rng = random.Random(seed)
        r = random_extended_regex(rng, letters, rng.randint(1, 12))
        sigma = {"declared": Alphabet.from_chars(letters), "derived": None, "short": A}[alphabet]
        want = _compiled(extended_to_nfa_by_triples, r, sigma, max_states)
        assert _compiled(extended_to_nfa, r, sigma, max_states) == want

    @settings(max_examples=200)
    @given(extended_regexes("ab", max_leaves=7), st.sampled_from([AB, ABC, A, None]),
           st.sampled_from([1, 2, 3, 5, 8, budget.DEFAULT_MAX_STATES]))
    # A product or complement placed past state 0, as a Union's right operand.
    @example(Union(Sym("a"), Intersect(Star(Sym("a")), Star(Union(Sym("a"), Sym("b"))))),
             AB, budget.DEFAULT_MAX_STATES)
    @example(Union(Concat(Sym("a"), Sym("b")), Negate(Sym("a"))), AB, budget.DEFAULT_MAX_STATES)
    # A product or complement as the body of a Star or Plus.
    @example(Star(Intersect(Sym("a"), Union(Sym("a"), Sym("b")))), AB, budget.DEFAULT_MAX_STATES)
    @example(Plus(Negate(Concat(Sym("a"), Sym("b")))), AB, budget.DEFAULT_MAX_STATES)
    # A complement at the root is returned as the Dfa it is.
    @example(Negate(Concat(Sym("a"), Star(Sym("b")))), AB, budget.DEFAULT_MAX_STATES)
    # max_states equal to an operand's size, then one below it.
    @example(Intersect(Star(Sym("a")), Sym("a")), AB, 3)
    @example(Intersect(Star(Sym("a")), Sym("a")), AB, 2)
    @example(Union(Sym("b"), Negate(Sym("b"))), AB, 6)
    @example(Star(Negate(Sym("b"))), AB, 3)
    def test_matches_triple_combinators_on_every_node(self, r, sigma, max_states):
        # Plus, %e and %0 leaves, marked symbols and nested negations.
        want = _compiled(extended_to_nfa_by_triples, r, sigma, max_states)
        assert _compiled(extended_to_nfa, r, sigma, max_states) == want

    def test_pinned_star_over_a_product(self):
        # b(C60 & (a|b)*)*, C60 the polynomial complement of a^60: the
        # product is placed at state 3, past the b and the Star's fresh
        # state, and as the Star's body loops back through its own initial
        # edges.  Digest pinned from the combinators that shifted and
        # rescanned every operand's edges.
        c60 = complement_unambiguous(parse("a" * 60, AB), AB)
        r = Concat(Sym("b"), Star(Intersect(c60, Star(Union(Sym("a"), Sym("b"))))))
        nfa = extended_to_nfa(r, AB)
        assert nfa.n_states == 2018
        assert hashlib.sha256(serialize(nfa).encode()).hexdigest() == (
            "2f7fbc7de6a8a8b93213a55a77fc8ed909303ec9ac97a7d4202e52b2e98974ab")

    def test_deep_chains(self):
        # The walk keeps its own stack, so depth costs no Python frames.
        r = Sym("a")
        for _ in range(9_999):
            r = Concat(Sym("a"), r)  # a(a(...a)) of depth 10,000
        assert equivalent(extended_to_nfa(r, A), glushkov(r, A))
        operands = [Star(Sym("a")), Star(Union(Sym("a"), Sym("b")))]
        r = operands[0]
        for i in range(2_000):
            r = Intersect(r, operands[i % 2])  # left-nested, a* in all
        nfa = extended_to_nfa(r, AB)
        assert equivalent(nfa, glushkov(Star(Sym("a")), AB))
        assert not equivalent(nfa, glushkov(Star(Union(Sym("a"), Sym("b"))), AB))

    @pytest.mark.parametrize("text", ["a", "%e", "(a|b)*a(%e|b)+", "((ab)*|%0)(a|%e)*b"])
    def test_polls_once_per_node(self, text):
        r = parse(text, AB)
        counter = CountingToken()
        with budget.active(counter):
            extended_to_nfa(r, AB)
        assert counter.polls == sum(1 for _ in rex.iter_postorder(r))

    def test_polynomial_complement_through_products(self):
        # C40 = complement_unambiguous(a^40) partitions the words with a^40:
        # their union is every word and their product is empty.
        r = parse("a" * 40, AB)
        c40 = complement_unambiguous(r, AB)
        union, meet = extended_to_nfa(Union(c40, r), AB), extended_to_nfa(Intersect(c40, r), AB)
        assert equivalent(union, glushkov(parse("(a|b)*", AB), AB))
        assert equivalent(meet, glushkov(EMPTY, AB))
        assert not equivalent(union, glushkov(parse("a*", AB), AB))


def _compiled(compile_, r, sigma, max_states):
    """The automaton's class, fields and text, or the error it raised."""
    try:
        a = compile_(r, sigma, max_states)
    except (BudgetExceededError, ValueError) as exc:
        return type(exc), str(exc)
    return (type(a), a.n_states, a.initial, a.finals, frozenset(a.transitions),
            serialize(a))


@pytest.mark.parametrize("text", ["ab", "(a|b)*a"])  # a DFA, an NFA
def test_glushkov_polls_the_budget_per_state(text):
    # A quadratic position automaton must not outrun a deadline.
    token = CancelToken()
    token.cancel()
    with budget.active(token), pytest.raises(BudgetExceededError, match="cancelled"):
        glushkov(parse(text, AB), AB)


def _subset_outcome(construct, nfa: Nfa, max_states: int):
    """(serialisation or None on a budget error, checkpoints polled)."""
    token = CountingToken()
    with budget.active(token):
        try:
            return serialize(construct(nfa, max_states)), token.polls
        except BudgetExceededError:
            return None, token.polls


def _oracle_subsets(nfa: Nfa, max_states: int) -> Dfa:
    return subset_construction(nfa, max_states)[1]


def _differential_input(kind: str, rng: random.Random) -> Nfa:
    sigma = rng.choice([AB, ABC])
    if kind == "dense":
        return random_nfa(rng, sigma, rng.randint(40, 300), density=rng.uniform(0.05, 0.3))
    if kind == "layered":  # non-homogeneous, a few thousand subsets at most
        return random_layered_nfa(rng, sigma, rng.randint(40, 300), rng.randint(2, 5),
                                  density=rng.uniform(0.3, 0.7))
    # "glushkov": a suffix family with 2^(k+1) subsets, or a random expression
    if rng.random() < 0.3:
        return glushkov(parse("(a|b)*a" + "(a|b)" * rng.randint(2, 8), sigma))
    return glushkov(random_plain_regex(rng, sigma.names, rng.randint(10, 120)), sigma)


@pytest.fixture(scope="module")
def n1_subset_text():
    """Criterion 1's n=1 subset DFA, serialised: 255,972 slots."""
    return serialize(determinize(glushkov(complement_witness(1), SIGMA_K)))


class TestDeterminize:
    def test_already_deterministic_subsets_are_singletons(self):
        d = determinize(glushkov(parse("aa*", A)))
        assert d.n_states == 3
        assert d.is_deterministic()

    def test_reachable_subsets_of_union_star(self):
        # {q0} -a-> {a1,a3} and -b-> {b2}: three reachable subsets (the
        # minimal DFA has two states).
        d = determinize(glushkov(parse("(a|b)*a", AB)))
        assert d.n_states == 3
        assert minimize(d).n_states == 2
        assert slice_of(d, 6) == regex_slice(parse("(a|b)*a", AB), "ab", 6)

    def test_empty_language(self):
        nfa = Nfa(A, 2, 0, frozenset(), frozenset([(0, "a", 1)]))
        d = determinize(nfa)
        assert not d.finals

    @given(st.integers(0, 10_000))
    def test_language_preserved(self, seed):
        rng = random.Random(seed)
        nfa = random_nfa(rng, AB, rng.randint(1, 5))
        d = determinize(nfa)
        assert d.is_deterministic()
        assert d.n_states <= 2 ** nfa.n_states
        assert slice_of(d, 5) == slice_of(nfa, 5)

    def test_non_homogeneous_input(self):
        # State 1 is entered on both a and b, so the successor ints use one
        # bit block per symbol instead of the Glushkov masks.
        nfa = Nfa(AB, 3, 0, frozenset([2]),
                  frozenset([(0, "a", 1), (0, "b", 1), (1, "a", 1), (1, "b", 2),
                             (1, "b", 0), (2, "a", 0), (2, "a", 2)]))
        d = determinize(nfa)
        # Subsets in BFS order: {0}, {1}, {0,2}, {0,1,2}.
        assert d.n_states == 4 and d.finals == {2, 3}
        assert d.transitions == {(0, "a", 1), (0, "b", 1), (1, "a", 1), (1, "b", 2),
                                 (2, "a", 3), (2, "b", 1), (3, "a", 3), (3, "b", 3)}
        assert slice_of(d, 6) == slice_of(nfa, 6)

    # Differential checks against the frozenset subset construction in
    # tests/oracles.py, on inputs whose subsets span several slices.
    @settings(max_examples=90)
    @given(st.sampled_from(["dense", "layered", "glushkov"]), st.integers(0, 10_000),
           st.one_of(st.integers(1, 10), st.just(budget.DEFAULT_MAX_STATES)))
    def test_matches_frozenset_construction(self, kind, seed, max_states):
        nfa = _differential_input(kind, random.Random(seed))
        want = _subset_outcome(_oracle_subsets, nfa, max_states)
        assert _subset_outcome(determinize, nfa, max_states) == want

    def test_memo_cap_reached(self):
        # Few subsets, each spread over all four slices: there are more
        # distinct slice values of two or more bits than subsets, so the
        # memo stops storing misses part of the way through.
        nfa = random_nfa(random.Random(7), ABC, 200, density=0.08)
        subsets, want = subset_construction(nfa, budget.DEFAULT_MAX_STATES)
        width = -(-nfa.n_states // 4)
        parts = {frozenset(q for q in subset if lo <= q < lo + width)
                 for subset in subsets for lo in range(0, nfa.n_states, width)}
        assert sum(len(part) > 1 for part in parts) > len(subsets) > 10
        assert serialize(determinize(nfa)) == serialize(want)
        for cap in (len(subsets) - 1, len(subsets)):
            assert (_subset_outcome(determinize, nfa, cap)
                    == _subset_outcome(_oracle_subsets, nfa, cap))

    def test_dfa_input_matches_subset_route(self):
        # A Dfa is renumbered in place; the same automaton as an Nfa takes
        # the subset route.  Both must write the same file, poll as often and
        # refuse at the same ``max_states``.
        for seed in range(300):
            rng = random.Random(seed)
            d = _dfa_with_unreachable_states(rng, rng.choice([A, AB, ABC]))
            nfa = Nfa(d.alphabet, d.n_states, d.initial, d.finals, frozenset(d.transitions))
            reachable = determinize(nfa).n_states
            assert reachable < d.n_states
            for cap in (reachable - 1, reachable, budget.DEFAULT_MAX_STATES):
                got = _subset_outcome(determinize, d, cap)
                assert got == _subset_outcome(determinize, nfa, cap)
                assert (got[0] is None) == (cap < reachable and reachable > 1)

    def test_homogeneous_index_keeps_entry_mask_layout(self):
        # Every state of the combinators' NFA is entered on one symbol, so the
        # successor ints are the plain target masks, cut by per-symbol entry
        # masks at shift 0.  Packing such an input at bit offset c * n instead
        # made determinize of the m_sore_pair(12) union about 14 times slower.
        sigma = m_alphabet(3)
        a = extended_to_nfa(Union(*m_sore_pair(3)), sigma)
        assert type(a.transitions) is TransitionIndex
        n, k = a.n_states, len(sigma)
        want_rows, want_into = [0] * n, [0] * k
        for p, symbol, q in a.transitions:
            want_rows[p] |= 1 << q
            want_into[sigma.index[symbol]] |= 1 << q
        rows, lows, pairs = automata._successor_masks(a)
        assert rows == want_rows and all(row >> n == 0 for row in rows)
        assert pairs == [(0, sel) for sel in want_into]

    def test_non_homogeneous_index_packs_per_symbol(self):
        # State 1 is entered on both a and b: symbol c's targets sit at bit
        # offset c * n, and every pair cuts a full n-bit block.
        nfa = Nfa(AB, 3, 0, frozenset([2]),
                  frozenset([(0, "a", 1), (0, "b", 1), (1, "b", 2), (2, "a", 0)]))
        rows, lows, pairs = automata._successor_masks(nfa)
        assert rows == [1 << 1 | 1 << (3 + 1), 1 << (3 + 2), 1 << 0]
        assert pairs == [(0, 0b111), (3, 0b111)]

    def test_complement_witness_n1_shape(self):
        # Criterion 1's n=1 subset DFA, as the benchmark records it.
        d = determinize(glushkov(complement_witness(1), SIGMA_K))
        assert (d.n_states, len(d.transitions), len(d.finals)) == (63_993, 255_972, 63_991)

    def test_complement_witness_n1_serialisation(self, n1_subset_text):
        # The table spans several blocks of ``_TABLE_BLOCK`` slots.
        assert hashlib.sha256(n1_subset_text.encode()).hexdigest() == (
            "97ac2fa459566b9bfc8d77b8deec5447712034ea8a33203eac474a7f279d5d82")

    @pytest.mark.parametrize("block", [1, 2, 5])
    def test_table_blocks_match_frozenset_construction(self, monkeypatch, block):
        # With blocks this small nearly every row starts a new one, so every
        # join between blocks is exercised.
        monkeypatch.setattr(automata, "_TABLE_BLOCK", block)
        for seed in range(20):
            rng = random.Random(seed)
            nfa = _differential_input(rng.choice(["dense", "layered", "glushkov"]), rng)
            for max_states in (rng.randint(1, 10), budget.DEFAULT_MAX_STATES):
                want = _subset_outcome(_oracle_subsets, nfa, max_states)
                assert _subset_outcome(determinize, nfa, max_states) == want


def _route_built(nfa: Nfa, max_states: int = budget.DEFAULT_MAX_STATES) -> Dfa:
    """``determinize`` with every walk looking for parts at its first new
    subset, so that a splitting NFA's result is joined from parts."""
    subset_walk = automata._subset_walk
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(automata, "_subset_walk",
                      lambda part, split_at, cap: subset_walk(part, 0, cap))
        return determinize(nfa, max_states)


def _forced_union(nfa: Nfa, max_states: int):
    """:func:`_route_built`'s serialisation, or None on a budget error, and
    the number of pair walks run."""
    joins = [0]
    pair_walk = automata._pair_walk

    def counted(*args):
        joins[0] += 1
        return pair_walk(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(automata, "_pair_walk", counted)
        try:
            return serialize(_route_built(nfa, max_states)), joins[0]
        except BudgetExceededError:
            return None, joins[0]


def _plain_walk(nfa: Nfa, max_states: int):
    """``determinize`` finding no parts: serialisation or None."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(automata, "_split_parts", lambda part: None)
        try:
            return serialize(determinize(nfa, max_states))
        except BudgetExceededError:
            return None


def _oracle_walk(nfa: Nfa, max_states: int):
    try:
        return serialize(subset_construction(nfa, max_states)[1])
    except BudgetExceededError:
        return None


class TestUnionRoute:
    """A union of independent parts determinised as the product of the
    parts' subset automata, forced from the first subset on: the same file
    as the plain walk and the frozenset construction, and the refusal at
    the same ``max_states``."""

    def assert_route_agrees(self, nfa: Nfa):
        """The forced route against the plain walk and the frozenset
        construction, uncapped and at one cap below and at the subset count;
        returns the file and the number of pair walks."""
        subsets, oracle = subset_construction(nfa, budget.DEFAULT_MAX_STATES)
        want = serialize(oracle)
        got, joins = _forced_union(nfa, budget.DEFAULT_MAX_STATES)
        assert joins
        assert got == _plain_walk(nfa, budget.DEFAULT_MAX_STATES) == want
        for cap in (len(subsets) - 1, len(subsets)):
            forced = _forced_union(nfa, cap)[0]
            assert forced == _plain_walk(nfa, cap) == (want if cap == len(subsets) else None)
        return want, joins

    @given(st.integers(0, 10_000))
    def test_unions_of_random_expressions(self, seed):
        rng = random.Random(seed)
        sigma = rng.choice([AB, ABC])
        r = reduce(Union, [random_plain_regex(rng, sigma.names, rng.randint(1, 14))
                           for _ in range(rng.randint(2, 4))])
        nfa = glushkov(r, sigma)
        assume(_forced_union(nfa, budget.DEFAULT_MAX_STATES)[1])
        self.assert_route_agrees(nfa)

    def test_n1_witness(self, n1_subset_text):
        # Five offender groups: forced, the groups split again.
        g = glushkov(complement_witness(1), SIGMA_K)
        want, joins = self.assert_route_agrees(g)
        assert want == n1_subset_text and joins > 1

    @staticmethod
    def recorded_splits(monkeypatch) -> list:
        """Each look for parts, as (states of the part, whether it split)."""
        found = []
        split_parts = automata._split_parts

        def recorded(part):
            parts = split_parts(part)
            found.append((len(part[0]), parts is not None))
            return parts

        monkeypatch.setattr(automata, "_split_parts", recorded)
        return found

    def test_determinize_switches_past_n_squared(self, monkeypatch):
        # The n=1 witness's Glushkov NFA has 133 states and 63,993 subsets,
        # so the walk looks for parts at subset 133**2 + 1 and splits.
        found = self.recorded_splits(monkeypatch)
        determinize(glushkov(complement_witness(1), SIGMA_K))
        assert found[0] == (133, True)

    def test_no_split_without_parts(self, monkeypatch):
        # (a|b)*a(a|b)^8: 512 subsets over 20 states pass 20**2, but the
        # positions form one component, so the walk goes on to the end.
        nfa = glushkov(parse("(a|b)*a" + "(a|b)" * 8, AB))
        found = self.recorded_splits(monkeypatch)
        assert serialize(determinize(nfa)) == _oracle_walk(nfa, budget.DEFAULT_MAX_STATES)
        assert found == [(20, False)]

    def test_preconditions(self):
        # An edge into the initial state, or a layout packed per symbol,
        # leaves no split to take.
        back = Nfa(AB, 3, 0, frozenset([1]), frozenset([(0, "a", 1), (0, "b", 2), (1, "a", 0)]))
        packed = Nfa(AB, 3, 0, frozenset([1]),
                     frozenset([(0, "a", 1), (0, "b", 1), (0, "b", 2)]))
        plain = Nfa(AB, 3, 0, frozenset([1]), frozenset([(0, "a", 1), (0, "b", 2)]))
        for nfa, splits in ((back, False), (packed, False), (plain, True)):
            rows, lows, pairs = automata._successor_masks(nfa)
            parts = automata._split_parts((rows, lows, pairs, nfa.initial, 0b10))
            assert (parts is not None) == splits
        assert automata._split_parts(
            ([0b110, 0, 0], [0, 0, 0], [(0, 0b10), (0, 0b100)], 0, 0b10)) == [
            ([0b10, 0], [0, 0], [(0, 0b10), (0, 0)], 0, 0b10),
            ([0b10, 0], [0, 0], [(0, 0), (0, 0b10)], 0, 0)]


def _join_outcome(walk, left: tuple, right: tuple, k: int, max_states: int):
    """``(n_states, table bytes, finals flags)`` of a join, or the refusal."""
    try:
        n, table, fin = walk(left, right, k, max_states)
    except BudgetExceededError as exc:
        return str(exc)
    return n, table.tobytes(), bytes(fin)


def _union_part_dfas(rng: random.Random):
    """The two parts' subset DFAs of a random union's Glushkov NFA, and the
    alphabet size, or None when the NFA does not split."""
    sigma = rng.choice([AB, ABC])
    r = reduce(Union, [random_plain_regex(rng, sigma.names, rng.randint(1, 14))
                       for _ in range(rng.randint(2, 4))])
    nfa = glushkov(r, sigma)
    rows, lows, pairs = automata._successor_masks(nfa)
    mask = sum(1 << q for q in nfa.finals)
    parts = automata._split_parts((rows, lows, pairs, nfa.initial, mask))
    if parts is None:
        return None
    cap = budget.DEFAULT_MAX_STATES
    left, right = (automata._subset_walk(part, cap, cap) for part in parts)
    return left, right, len(sigma)


def _partial_dfa(rng: random.Random, n: int, k: int) -> tuple:
    """A random ``(n_states, table, finals flags)`` with most slots missing."""
    table = array("i", [rng.randrange(n) if rng.random() < 0.35 else -1 for _ in range(n * k)])
    return n, table, bytes(rng.random() < 0.3 for _ in range(n))


class TestPairWalk:
    """``_pair_walk``, which numbers a chunk of pairs at a time, against the
    one-dict walk of ``oracles.pair_walk_by_keys``: the same states, table,
    final flags and refusal, for chunks of one pair up to the full block."""

    @staticmethod
    def assert_walks_agree(left: tuple, right: tuple, k: int):
        want = _join_outcome(pair_walk_by_keys, left, right, k, budget.DEFAULT_MAX_STATES)
        pairs = want[0]
        for block in (1, 3 * k, automata._TABLE_BLOCK):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(automata, "_TABLE_BLOCK", block)
                for cap in (budget.DEFAULT_MAX_STATES, pairs - 1, pairs):
                    got = _join_outcome(automata._pair_walk, left, right, k, cap)
                    assert got == _join_outcome(pair_walk_by_keys, left, right, k, cap)
                    assert (got == want) == (cap >= pairs or pairs == 1)

    @given(st.integers(0, 10_000))
    def test_parts_of_random_unions(self, seed):
        parts = _union_part_dfas(random.Random(seed))
        assume(parts is not None)
        self.assert_walks_agree(*parts)

    @given(st.integers(0, 10_000))
    def test_partial_tables(self, seed):
        rng = random.Random(seed)
        k = rng.randint(1, 4)
        left = _partial_dfa(rng, rng.randint(1, 12), k)
        right = _partial_dfa(rng, rng.randint(1, 12), k)
        self.assert_walks_agree(left, right, k)

    def test_pair_of_sinks_reads_missing(self):
        # Both sides step to their sinks on b: the pair of sinks is no state.
        left = (1, array("i", [0, -1]), b"\1")
        right = (1, array("i", [0, -1]), b"\0")
        assert _join_outcome(automata._pair_walk, left, right, 2, 10) == (
            1, array("i", [0, -1]).tobytes(), b"\1")

    @staticmethod
    def recorded_joins(token: CountingToken, patch) -> list:
        """Each join on ``patch``, as (polls under ``token``, pairs, k)."""
        joins = []
        pair_walk = automata._pair_walk

        def counted(left, right, k, max_states):
            before = token.polls
            out = pair_walk(left, right, k, max_states)
            joins.append((token.polls - before, out[0], k))
            return out

        patch.setattr(automata, "_pair_walk", counted)
        return joins

    def test_polls_once_per_chunk(self):
        token = CountingToken()
        with pytest.MonkeyPatch.context() as patch, budget.active(token):
            joins = self.recorded_joins(token, patch)
            d = determinize(glushkov(complement_witness(1), SIGMA_K))
        assert joins and joins[-1][1] == d.n_states
        for polls, pairs, k in joins:
            assert polls >= -(-pairs // (automata._TABLE_BLOCK // k))
        assert joins[-1][0] >= 4  # 63,993 pairs in chunks of 16,384

    @staticmethod
    def chunks_of(table: array, k: int, chunk: int) -> int:
        """The chunks of a join whose breadth-first numbering wrote
        ``table``, each chunk the first ``chunk`` pairs, or fewer, of those
        numbered but not yet walked.  Once the first ``walked`` pairs are
        walked, the pairs numbered are 0 up to the highest in their rows."""
        walked, numbered, chunks = 0, 1, 0
        while walked < numbered:
            done, walked = walked, min(walked + chunk, numbered)
            numbered = max(numbered, max(table[done * k:walked * k]) + 1)
            chunks += 1
        return chunks

    def test_polls_once_per_chunk_of_the_numbering(self):
        # The n=1 witness's only join and seeded partial tables, with chunks
        # of one pair, of three and of the full block: the join polls once
        # for each chunk that the numbering of ``pair_walk_by_keys`` gives.
        joins = []
        pair_walk = automata._pair_walk
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(automata, "_pair_walk",
                          lambda *args: joins.append(args) or pair_walk(*args))
            determinize(glushkov(complement_witness(1), SIGMA_K))
        assert len(joins) == 1
        rng = random.Random(3434)
        for _ in range(40):
            k = rng.randint(1, 4)
            left = _partial_dfa(rng, rng.randint(1, 12), k)
            right = _partial_dfa(rng, rng.randint(1, 12), k)
            joins.append((left, right, k, budget.DEFAULT_MAX_STATES))
        for left, right, k, cap in joins:
            n, table, _ = pair_walk_by_keys(left, right, k, cap)
            for block in (1, 3 * k, automata._TABLE_BLOCK):
                want = self.chunks_of(table, k, max(block // k, 1))
                token = CountingToken()
                with pytest.MonkeyPatch.context() as patch, budget.active(token):
                    patch.setattr(automata, "_TABLE_BLOCK", block)
                    assert pair_walk(left, right, k, cap)[0] == n
                assert token.polls == want, (block, n)

    def test_cancelled_mid_join(self):
        class CancelAtSecondChunk(CancelToken):
            chunks = 0

            def check(self):
                # The frame two up is the caller of ``budget.checkpoint``.
                if sys._getframe(2).f_code.co_name == "_pair_walk":
                    self.chunks += 1
                    if self.chunks == 2:
                        self.cancel()
                super().check()

        token = CancelAtSecondChunk()
        with budget.active(token), pytest.raises(BudgetExceededError, match="operation cancelled"):
            determinize(glushkov(complement_witness(1), SIGMA_K))
        assert token.chunks == 2

    def test_walked_pairs_are_dropped(self):
        # The n=1 witness's only join, 2,475 x 2,651 states into 63,993
        # pairs.  Under tracemalloc it peaked at 6.91 MiB when every numbered
        # pair stayed in two arrays, and at 6.68 MiB keeping only the pairs
        # still to walk.
        joins = []
        pair_walk = automata._pair_walk
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(automata, "_pair_walk",
                          lambda *args: joins.append(args) or pair_walk(*args))
            d = determinize(glushkov(complement_witness(1), SIGMA_K))
        (left, right, k, cap), = joins
        assert (left[0], right[0], d.n_states) == (2475, 2651, 63993)
        tracemalloc.start()
        try:
            n_out = pair_walk(left, right, k, cap)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n_out == d.n_states
        assert peak < 6.8 * 2**20, peak


class TestFinalFlags:
    """The final flags every automaton keeps, read as a set."""

    FLAGS = FinalFlags(bytes([0, 1, 1, 0, 1]))
    STATES = frozenset({1, 2, 4})

    def test_equal_and_hash_equal_to_the_frozenset(self):
        assert self.FLAGS == self.STATES and self.STATES == self.FLAGS
        assert hash(self.FLAGS) == hash(self.STATES)
        assert len(self.FLAGS) == 3 and list(self.FLAGS) == [1, 2, 4]
        assert 1 in self.FLAGS and 0 not in self.FLAGS
        assert FinalFlags(bytes(3)) == frozenset() and hash(FinalFlags(b"")) == hash(frozenset())
        assert FinalFlags(bytes([0, 2, 255])) == frozenset({1, 2})
        assert self.FLAGS != frozenset({1, 2}) and self.FLAGS != frozenset({1, 2, 3})

    def test_hash_is_computed_once(self, monkeypatch):
        # The hash walks the final states on the first call only.
        flags = FinalFlags(bytes([0, 1, 1, 0, 1]))
        walks = []
        iterate = FinalFlags.__iter__

        def once(self):
            walks.append(self)
            if len(walks) > 1:
                raise AssertionError("FinalFlags hash walked the states twice")
            return iterate(self)

        monkeypatch.setattr(FinalFlags, "__iter__", once)
        assert hash(flags) == hash(self.STATES)
        assert hash(flags) == hash(self.STATES)
        assert walks == [flags]

    @pytest.mark.parametrize("op", [operator.and_, operator.or_, operator.sub, operator.xor])
    def test_set_operators_return_frozensets(self, op):
        other = frozenset({0, 2, 7})
        for x, y in ((self.FLAGS, other), (other, self.FLAGS), (self.FLAGS, self.FLAGS)):
            got = op(x, y)
            assert type(got) is frozenset
            assert got == op(frozenset(x), frozenset(y))

    @pytest.mark.parametrize("item", [-1, 5, 2 ** 40, 1.5, "a"])
    def test_not_a_state(self, item):
        assert item not in self.FLAGS

    def test_route_built_dfa(self):
        # ab*|aa*: the positions {a1, b2} and {a3, a4} are two parts.
        d = _route_built(glushkov(parse("ab*|aa*", AB)))
        assert type(d.finals) is FinalFlags
        assert type(determinize(glushkov(parse("ab*|aa*", AB))).finals) is FinalFlags
        same = Dfa.from_table(d.alphabet, d.n_states, d.initial, frozenset(d.finals), d.table)
        assert d == same and hash(d) == hash(same)
        assert serialize(d) == serialize(same)
        assert serialize(minimize(d)) == serialize(minimize(same))
        assert equivalent(d, same) and equivalent(same, d)
        assert not equivalent(d, complement_dfa(same))
        nfa = Nfa(d.alphabet, d.n_states, d.initial, d.finals, frozenset(d.transitions))
        assert nfa.finals is d.finals and serialize(nfa) == serialize(d)

    def test_constructor_checks_the_flag_count(self):
        for flags in (bytes([1]), bytes([1, 0, 0])):
            with pytest.raises(ValueError, match="final flags cover"):
                Nfa(A, 2, 0, FinalFlags(flags), frozenset([(0, "a", 1)]))

    def test_flags_compare_as_bytes(self, monkeypatch):
        # Two FinalFlags compare their flags with the trailing zeros cut,
        # never state by state.
        def refused(self, *args):
            raise AssertionError("FinalFlags read state by state")

        longer = FinalFlags(bytes([0, 1, 1, 0, 1, 0, 0]))
        unequal = [FinalFlags(f) for f in (bytes([0, 1, 1]), bytes([0, 1, 1, 0, 1, 1]),
                                           bytes([1, 1, 1, 0, 1]), bytes(5))]
        with monkeypatch.context() as patch:
            patch.setattr(FinalFlags, "__contains__", refused)
            patch.setattr(FinalFlags, "__iter__", refused)
            assert longer == self.FLAGS and self.FLAGS == longer
            assert FinalFlags(b"") == FinalFlags(bytes(4))
            for other in unequal:
                assert other != self.FLAGS and self.FLAGS != other
        assert hash(longer) == hash(self.FLAGS) == hash(self.STATES)
        assert hash(longer) == Set._hash(longer)
        for states in (self.STATES, frozenset({1, 2}), frozenset({1, 2, 4, 9}), frozenset()):
            same = states == self.STATES
            assert (longer == states) is same and (states == longer) is same
            assert (longer != states) is not same and (states != longer) is not same


# Bad finals values and what they raise, as they did when finals were kept
# as frozensets.
BAD_FINALS = [
    ([-1], ValueError, "final state out of range"),
    ([2], ValueError, "final state out of range"),
    ([2 ** 40], ValueError, "final state out of range"),
    (frozenset([0, 2 ** 40]), ValueError, "final state out of range"),
    (["a"], TypeError, "'<=' not supported between instances of 'int' and 'str'"),
    ([None], TypeError, "'<=' not supported between instances of 'int' and 'NoneType'"),
    ([0, "a"], TypeError, "'<' not supported between instances of 'str' and 'int'"),
]


@pytest.mark.parametrize("cls", [Nfa, Dfa])
@pytest.mark.parametrize("finals, error, message", BAD_FINALS)
def test_constructor_refuses_bad_finals(cls, finals, error, message):
    # Turning a set of states into flags keeps the refusals of the set form:
    # the same error class and message, raised before any flag is written.
    with pytest.raises(error) as info:
        cls(A, 2, 0, finals, [(0, "a", 1)])
    assert type(info.value) is error and str(info.value) == message


def _flags_of(a: Nfa) -> bytes:
    """``a``'s final flags, checked to be a FinalFlags of one flag per state."""
    assert type(a.finals) is FinalFlags and len(a.finals.flags) == a.n_states
    return a.finals.flags


class TestOneFinalsForm:
    """Every public construction keeps its finals as a FinalFlags of
    ``n_states`` flags, and they are the finals the oracles give."""

    WITNESSES = [
        lambda: k_dfa(4),
        lambda: l_dfa(4),
        lambda: z_dfa(3),
        lambda: profile_to_dfa(local_profile(parse("ab*(c|%e)", ABC)), ABC),
        lambda: profile_to_dfa(local_profile(parse("(a|b)*", AB)), AB),
        lambda: glushkov(unamb_family(2)[0], SIGMA_L),
        lambda: glushkov(m_sore_pair(2)[0], m_alphabet(2)),
    ]

    @staticmethod
    def _inputs(rng: random.Random, sigma: Alphabet) -> list[Nfa]:
        return [
            random_nfa(rng, sigma, rng.randint(1, 7)),
            random_dfa(rng, sigma, rng.randint(1, 7)),
            glushkov(random_plain_regex(rng, sigma.names, rng.randint(1, 16)), sigma),
            extended_to_nfa(random_extended_regex(rng, sigma.names, rng.randint(1, 8)), sigma),
        ]

    @staticmethod
    def assert_constructions_match_oracles(x: Nfa):
        _flags_of(x)
        assert _flags_of(parse_automaton(serialize(x))) == x.finals.flags
        d = determinize(x)
        want = subset_construction(x, budget.DEFAULT_MAX_STATES)[1]
        assert _flags_of(d) == _flags_of(want) and d.finals == frozenset(want.finals)
        m = minimize(d)
        want = minimize_by_moore(d)
        assert _flags_of(m) == _flags_of(want) and m.finals == frozenset(want.finals)
        c = complement_dfa(d)
        _flags_of(c)
        assert c.finals == frozenset(range(c.n_states)) - frozenset(d.finals)
        cc = complement_dfa(c)
        assert _flags_of(cc).startswith(d.finals.flags) and cc.finals == d.finals
        for a, b in ((cc, x), (c, x), (m, d)):
            assert equivalent(a, b) == equivalent_by_totalising(a, b)
        assert equivalent(cc, x) and not equivalent(c, x)

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_corpus(self, seed):
        rng = random.Random(seed)
        sigma = rng.choice([AB, ABC])
        inputs = self._inputs(rng, sigma)
        for x in inputs:
            self.assert_constructions_match_oracles(x)
        for x in inputs:
            for y in inputs:
                got = product(x, y)
                _flags_of(got)
                assert slice_of(got, 4) == slice_of(x, 4) & slice_of(y, 4)

    @pytest.mark.parametrize("build", WITNESSES)
    def test_witnesses(self, build):
        self.assert_constructions_match_oracles(build())


class TestTableCore:
    def test_table_built_equals_triples_built(self):
        d = determinize(glushkov(parse("ab|a*b*", AB), AB))
        assert isinstance(d.transitions, TransitionTable) and -1 in d.table
        triples = frozenset(d.transitions)
        rebuilt = Dfa(AB, d.n_states, d.initial, d.finals, triples)
        assert rebuilt == d and d == rebuilt
        assert hash(rebuilt) == hash(d)
        assert d.transitions == triples and hash(d.transitions) == hash(triples)
        assert len(d.transitions) == len(triples)
        assert rebuilt.table == d.table
        assert all(t in d.transitions for t in triples)
        assert (0, "c", 1) not in d.transitions
        assert (d.n_states, "a", 0) not in d.transitions

    def test_complement_shares_total_table(self):
        d = determinize(glushkov(parse("(a|b)*abb", AB), AB))
        assert -1 not in d.table
        c = complement_dfa(d)
        assert c.n_states == d.n_states and c.table == d.table
        assert c.finals == frozenset(range(d.n_states)) - d.finals

    @pytest.mark.parametrize("table, alphabet", [
        ([0, 1, 1], AB),       # 3 slots for 2 states x 2 symbols
        ([0, 1, 1, 2], AB),    # target 2 >= n_states
        ([0, 1, 1, -2], AB),   # target below -1
        ([0, 1, 1, 1], A),     # table over another alphabet
    ])
    def test_bad_table_rejected(self, table, alphabet):
        with pytest.raises(ValueError):
            Dfa(AB, 2, 0, frozenset([1]), TransitionTable(alphabet, table))

    def test_duplicate_triple_edge_rejected(self):
        with pytest.raises(ValueError, match="multiple transitions"):
            Dfa(AB, 2, 0, frozenset(), frozenset([(0, "a", 0), (0, "a", 1)]))

    def test_len_counts_the_slots_iterated(self):
        # A standalone table is not range-checked, so a slot below -1 can
        # stand in it: like -1, it holds no target.
        t = TransitionTable(AB, array("i", [1, -5, -1, 0]))
        assert len(t) == len(list(t)) == 2
        assert t == frozenset(t) and frozenset(t) == t
        assert hash(t) == hash(frozenset(t))

    @pytest.mark.parametrize("target", [-2**31, -257, -2, -1, 2, 2**31 - 1])
    def test_stores_refuse_targets_out_of_range(self, target):
        # The table keeps -1 as a missing edge; the index has no missing
        # edge, so -1 is out of its range.
        if target == -1:
            assert len(Dfa(AB, 2, 0, [1], TransitionTable(AB, [0, 1, 1, target])).transitions) == 3
        else:
            with pytest.raises(ValueError, match="^transition table target out of range$"):
                Dfa(AB, 2, 0, [1], TransitionTable(AB, [0, 1, 1, target]))
        with pytest.raises(ValueError, match="^transition index target out of range$"):
            Nfa(AB, 2, 0, [1], TransitionIndex(AB, [0, 1, 2, 3, 4], [0, 1, 1, target]))


class TestLaneScan:
    """``_lane_scan``, which reads a table a block of int lanes at a time,
    against ``oracles.lane_scan_by_slots``, one Python int per slot, with
    the lane block at one slot, three slots and its default."""

    BLOCKS = (1, 3 << 4, automata._TABLE_BLOCK)
    NS = (None, 0, 1, 2, 2**31 - 1, 2**31, 2**40)

    @staticmethod
    def specials(n) -> list[int]:
        """The slot values at the edges of the lanes and of ``range(n)``."""
        near = () if n is None else (n - 1, n)
        return [v for v in (-2**31, -257, -2, -1, 0, *near, 2**31 - 1) if -2**31 <= v < 2**31]

    @pytest.mark.parametrize("block", BLOCKS)
    def test_matches_slot_passes(self, monkeypatch, block):
        # Tables of 0 to 3 lane blocks, each length a block size +-1, with
        # one special value at the first or the last lane of a block.
        monkeypatch.setattr(automata, "_TABLE_BLOCK", block)
        step = max(block >> 4, 1)
        rng = random.Random(block)
        lengths = sorted({0, 1, 2} | {b * step + d for b in (1, 2, 3) for d in (-1, 0, 1)})
        for length in lengths:
            starts = range(0, length, step)
            for n in self.NS:
                top = 2**31 - 1 if n is None else min(n, 2**31) - 1
                base = array("i", [rng.randint(-1, top) for _ in range(length)])
                assert automata._lane_scan(base, n) == lane_scan_by_slots(base, n)
                for value in self.specials(n) if length else ():
                    for at in (rng.choice(starts), min(rng.choice(starts) + step, length) - 1):
                        table = array("i", base)
                        table[at] = value
                        want = lane_scan_by_slots(table, n)
                        assert automata._lane_scan(table, n) == want, (at, value)

    @given(st.data())
    def test_drawn_tables(self, data):
        block = data.draw(st.sampled_from(self.BLOCKS))
        n = data.draw(st.sampled_from(self.NS))
        specials = st.sampled_from(self.specials(n))
        slot = st.integers(-2**31, 2**31 - 1) | st.integers(-1, 3) | specials
        table = array("i", data.draw(st.lists(slot, max_size=120)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(automata, "_TABLE_BLOCK", block)
            assert automata._lane_scan(table, n) == lane_scan_by_slots(table, n)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_fill_missing_searches_negative_lanes(self, monkeypatch, block):
        # -1 slots at the first and the last lane of some lane blocks; the
        # fill reaches each of them, and a table with none is shared.
        monkeypatch.setattr(automata, "_TABLE_BLOCK", block)
        step = max(block >> 4, 1)
        rng = random.Random(block)
        for length in (1, step, 3 * step + 1, 2 * block + 1):
            table = array("i", [rng.randrange(5) for _ in range(length)])
            assert automata._fill_missing(table, 9) is table
            for lo in rng.sample(range(0, length, step), min(3, -(-length // step))):
                table[lo] = table[min(lo + step, length) - 1] = -1
            want = array("i", [9 if t < 0 else t for t in table])
            before = array("i", table)
            assert automata._fill_missing(table, 9) == want and table == before
            # Every slot missing, and only the last one.
            table = array("i", [-1]) * length
            assert automata._fill_missing(table, 9) == array("i", [9]) * length
            table = array("i", [rng.randrange(5) for _ in range(length - 1)] + [-1])
            want = table[:-1] + array("i", [9])
            assert automata._fill_missing(table, 9) == want and table[-1] == -1

    @pytest.mark.parametrize("block", BLOCKS)
    def test_fill_polls_once_per_block(self, monkeypatch, block):
        # One poll per ``_TABLE_BLOCK`` slots, whether the table has missing
        # slots (and is copied) or none (and is shared).
        monkeypatch.setattr(automata, "_TABLE_BLOCK", block)
        rng = random.Random(block)
        for length in (0, 1, block - 1, block, 2 * block + 1, 100):
            full = array("i", [rng.randrange(5) for _ in range(length)])
            partial = array("i", full)
            for at in rng.sample(range(length), min(length, 2)):
                partial[at] = -1
            for table in (full, partial):
                token = CountingToken()
                with budget.active(token):
                    out = automata._fill_missing(table, 9)
                assert token.polls == -(-length // block)
                assert (out is table) == (table is full or not length)


class TestIndexCore:
    """``TransitionIndex`` and ``TransitionMasks`` against the frozenset of
    the same triples."""

    @staticmethod
    def indexed_automata():
        rng = random.Random(6061)
        out = []
        for _ in range(60):
            sigma = rng.choice([AB, ABC])
            g = glushkov(random_plain_regex(rng, sigma.names, rng.randint(4, 30)), sigma)
            if not isinstance(g, Dfa):
                out.append(g)
            a = random_nfa(rng, sigma, rng.randint(1, 6))
            b = random_nfa(rng, sigma, rng.randint(1, 6))
            for p in (product(a, b), product(a, random_dfa(rng, sigma, rng.randint(1, 5)))):
                if not isinstance(p, Dfa):
                    out.append(p)
            # A random NFA's index, given back to the constructor as a view.
            out.append(Nfa(sigma, a.n_states, a.initial, a.finals,
                           TransitionIndex(sigma, a.transitions.starts, a.transitions.targets)))
        return out

    def test_view_matches_triples_built_copy(self):
        autos = self.indexed_automata()
        assert len(autos) > 100
        for a in autos:
            sigma = a.alphabet
            assert type(a.transitions) in (TransitionIndex, TransitionMasks)
            triples = frozenset(a.transitions)
            rebuilt = Nfa(sigma, a.n_states, a.initial, a.finals, triples)
            assert rebuilt == a and a == rebuilt and hash(rebuilt) == hash(a)
            assert a.transitions == triples and triples == a.transitions
            assert hash(a.transitions) == hash(triples)
            edges = list(a.transitions._slot_edges())
            assert len(a.transitions) == len(triples) == len(edges)
            assert all(t in a.transitions for t in triples)
            assert (0, "d", 0) not in a.transitions
            assert (a.n_states, "a", 0) not in a.transitions
            assert (0, "a", -1) not in a.transitions and "abc" not in a.transitions
            assert type(a.transitions | frozenset()) is frozenset
            assert list(rebuilt.transitions._slot_edges()) == sorted(edges)
            assert rebuilt.is_deterministic() == a.is_deterministic()
            everything = frozenset(range(a.n_states))
            for s in sigma:
                assert a.step(everything, s) == rebuilt.step(everything, s)
                for p in range(a.n_states):
                    assert a.step(frozenset([p]), s) == frozenset(
                        q for (p2, s2, q) in triples if (p2, s2) == (p, s))

    @pytest.mark.parametrize("store", [
        TransitionTable(AB, [1, -1, 0, 1]),
        TransitionIndex(AB, [0, 1, 1, 1, 2], [1, 0]),
        TransitionMasks(AB, [0b1, 0b01], [1, 0], [1, 0]),
    ], ids=["table", "index", "masks"])
    def test_hash_is_computed_once(self, monkeypatch, store):
        # The hash walks the edges on the first call only, and equals the
        # frozenset's.
        walks = []
        edges = type(store)._slot_edges

        def once(self):
            walks.append(self)
            if len(walks) > 1:
                raise AssertionError("store hash walked the edges twice")
            return edges(self)

        want = frozenset(store)
        monkeypatch.setattr(type(store), "_slot_edges", once)
        assert hash(store) == hash(want)
        assert hash(store) == hash(want)
        assert walks == [store]

    def test_slot_targets_ascending(self):
        for a in self.indexed_automata():
            k = len(a.alphabet)
            for p in range(a.n_states):
                for c in range(k):
                    targets = list(a.successors(p, c))
                    assert targets == sorted(set(targets))

    @pytest.mark.parametrize("starts, targets, alphabet", [
        ([0, 1, 1, 2], [1, 0], AB),        # 4 starts for 2 states x 2 symbols
        ([1, 1, 1, 1, 2], [1, 0], AB),     # does not start at 0
        ([0, 1, 1, 1, 1], [1, 0], AB),     # does not end at the target count
        ([0, 2, 1, 2, 2], [1, 0], AB),     # starts decrease
        ([0, 1, 1, 1, 2], [1, 2], AB),     # target 2 >= n_states
        ([0, 1, 1, 1, 2], [1, -1], AB),    # target below 0
        ([0, 1, 2], [1, 0], A),            # index over another alphabet
    ])
    def test_bad_index_rejected(self, starts, targets, alphabet):
        with pytest.raises(ValueError):
            Nfa(AB, 2, 0, frozenset([1]), TransitionIndex(alphabet, starts, targets))

    def test_well_formed_index_accepted(self):
        a = Nfa(AB, 2, 0, frozenset([1]), TransitionIndex(AB, [0, 1, 1, 1, 2], [1, 0]))
        assert a.transitions == {(0, "a", 1), (1, "b", 0)}
        assert a.successors(0, 0) == (1,) and not a.successors(0, 1)

    # ``codes[q]`` is the code of the symbol that enters state q, as the
    # Glushkov construction numbers them; code -1 enters q on no symbol.
    @pytest.mark.parametrize("rows, codes, alphabet", [
        ([0b10, 0b01], [1, 0], A),         # masks over another alphabet
        ([0b10], [1, 0], AB),              # one row for 2 states
        ([0b10, 0b01], [1], AB),           # one code for 2 states
        ([0b110, 0b01], [1, 0], AB),       # target 2 >= n_states
        ([-1, 0b01], [1, 0], AB),          # a negative row sets every bit
        ([0b10, 0b01], [2, 0], AB),        # code 2 >= 2 symbols
        ([0b10, 0b01], [1, -1], AB),       # state 1, entered on no symbol, a target
        # Rows with offsets, given as (rows, lows): row p holds rows[p] << lows[p].
        (([0b10, 0b01], [-1, 0]), [1, 0], AB),  # a negative offset
        (([0b10, 0b01], [0, 2]), [1, 0], AB),   # offset 2 puts a target at n_states
        (([0b1, 0b01], [2, 0]), [1, 0], AB),    # offset 2 on state 0's row
        (([0b10, 0b01], [0]), [1, 0], AB),      # one offset for 2 states
    ])
    def test_bad_masks_rejected(self, rows, codes, alphabet):
        rows, lows = rows if isinstance(rows, tuple) else (rows, [0] * len(rows))
        with pytest.raises(ValueError):
            Nfa(AB, 2, 0, frozenset([1]), TransitionMasks(alphabet, rows, codes, lows))

    def test_offsets_out_of_range_refused_as_targets(self):
        # A negative offset and an offset that lifts a target to n_states
        # read as a target out of range; an offset that keeps it in range
        # passes, and the slots read the shifted row.
        codes = [1, 0]
        for lows in ([-1, 0], [0, 2], [1, 0]):
            with pytest.raises(ValueError, match="^transition mask target out of range$"):
                Nfa(AB, 2, 0, frozenset([1]), TransitionMasks(AB, [0b10, 0b01], codes, lows))
        a = Nfa(AB, 2, 0, frozenset([1]), TransitionMasks(AB, [0b1, 0b01], codes, [1, 0]))
        assert a.transitions == {(0, "a", 1), (1, "b", 0)}
        assert list(a.successors(0, 0)) == [1] and not a.successors(0, 1)

    def test_target_entered_on_no_symbol_refused_at_any_offset(self):
        # State 2 has code -1; a row that reaches it through its offset is
        # refused, and the same row one state lower passes.
        codes = [1, 0, -1]
        for rows, lows in (([0b10, 0, 0b1], [0, 0, 2]), ([0b10, 0b11, 0], [0, 1, 0])):
            with pytest.raises(ValueError, match="^transition mask target entered on no symbol$"):
                Nfa(AB, 3, 0, frozenset([1]), TransitionMasks(AB, rows, codes, lows))
        a = Nfa(AB, 3, 0, frozenset([1]), TransitionMasks(AB, [0b10, 0b1, 0], codes, [0, 0, 0]))
        assert a.transitions == {(0, "a", 1), (1, "b", 0)}

    # ``entries`` are the entry codes, one per state: each is -1 or names
    # one of the 2 symbols.
    @pytest.mark.parametrize("entries", [
        [],                                # no entry code for 2 states
        [1],                               # one entry code for 2 states
        [1, 0, 0],                         # three entry codes for 2 states
        [1, 2],                            # code 2 >= 2 symbols
        [-2, 0],                           # code below -1
    ])
    def test_bad_entry_masks_rejected(self, entries):
        with pytest.raises(ValueError):
            Nfa(AB, 2, 0, frozenset([1]), TransitionMasks(AB, [0b10, 0b01], entries, [0, 0]))

    def test_well_formed_masks_accepted_without_slot_arrays(self):
        masks = TransitionMasks(AB, [0b10, 0b01], [1, 0], [0, 0])
        a = Nfa(AB, 2, 0, frozenset([1]), masks)
        assert a.transitions is masks
        assert a.transitions == {(0, "a", 1), (1, "b", 0)} and len(a.transitions) == 2
        assert list(a.successors(0, 0)) == [1] and not a.successors(0, 1)
        assert not hasattr(masks, "starts")  # reading a slot derives nothing

    def test_is_deterministic_stops_at_the_first_fork(self, monkeypatch):
        # Row 0 enters states 1 and 2, both on "a"; rows 1 and 2 hold four
        # more edges, which the answer does not need.
        masks = TransitionMasks(AB, [0b110, 0b110, 0b110], [-1, 0, 0], [0, 0, 0])
        a = Nfa(AB, 3, 0, frozenset([1]), masks)
        reads = []
        edges = TransitionMasks._slot_edges

        def counted(self):
            for item in edges(self):
                reads.append(item)
                yield item
        monkeypatch.setattr(TransitionMasks, "_slot_edges", counted)
        assert a.is_deterministic() is False
        assert reads == [(0, 1), (0, 2)]


class TestRelativeRows:
    """``rex._position_masks`` keeps each follow row relative to its lowest
    target: shifted back, its rows are the absolute rows of the walk it
    replaced, and the Glushkov NFA hands them on unshifted."""

    @staticmethod
    def assert_rows_match(r, sigma: Alphabet):
        syms, nullable, first, last, rows, lows = rex._position_masks(r)
        want = position_masks_absolute(r)
        assert (syms, nullable, first, last) == want[:4]
        assert len(rows) == len(lows) == len(want[4])
        assert list(map(operator.lshift, rows, lows)) == want[4]
        # A row starts at its lowest target; an empty row has offset 0.
        assert all(row & 1 if row else not low for row, low in zip(rows, lows))
        g = glushkov(r, sigma)
        assert frozenset(g.transitions) == glushkov_by_marking(r, sigma).transitions
        if isinstance(g, Dfa):
            return
        masks = g.transitions
        assert masks.rows[1:] == rows[1:] and masks.lows[1:] == lows[1:]
        assert masks.rows[0] << masks.lows[0] == first
        assert automata._successor_masks(g)[:2] == (masks.rows, masks.lows)

    @given(st.sampled_from([AB, ABC]).flatmap(
        lambda sigma: st.tuples(st.just(sigma), regexes(sigma.names, max_leaves=14))))
    def test_drawn_regexes_and_complements(self, drawn):
        sigma, r = drawn
        self.assert_rows_match(r, sigma)
        if is_one_unambiguous(r).is_one_unambiguous:
            self.assert_rows_match(complement_unambiguous(r, sigma), sigma)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sore_intersections(self, n):
        sigma = m_alphabet(n)
        self.assert_rows_match(intersect_sores(m_sore_pair(n), sigma), sigma)

    # Shared subtrees: the walk records an internal node at its second
    # completion and stamps each later occurrence from the record.
    R = Concat(Star(Union(Sym("a"), Sym("b"))), Sym("a"))
    NONE = Union(Concat(Sym("a"), EMPTY), Concat(Star(Sym("b")), EMPTY))  # denotes nothing
    LOOP = Star(Concat(Sym("a"), Sym("b")))
    PAIR = Concat(LOOP, LOOP)
    X = Concat(Sym("a"), Union(Sym("b"), Sym("a")))

    @pytest.mark.parametrize("r", [
        Concat(R, R),
        Concat(R, Concat(R, R)),
        Union(Star(R), R),
        Concat(Union(Star(R), R), Plus(R)),
        Concat(Plus(R), Concat(Plus(R), Plus(Plus(R)))),
        # An empty subtree met at several offsets, with and without positions.
        Concat(Union(Sym("a"), NONE), Concat(Star(Union(NONE, Sym("b"))), Union(NONE, R))),
        Union(Concat(R, Concat(EMPTY, R)), Concat(Star(R), Union(EMPTY, Concat(R, EMPTY)))),
        # An empty Concat clears the rows of the recorded LOOP before it recurs.
        Union(Concat(PAIR, EMPTY), PAIR),
        Concat(Concat(PAIR, EMPTY), Star(PAIR)),
        # Star(X) and the Concat above it add follow targets to the recorded
        # occurrence of X before X recurs.
        Concat(Concat(Star(X), Star(X)), X),
        Concat(Concat(Star(X), Plus(X)), Concat(X, Star(X))),
    ], ids=rex.format_regex)
    def test_shared_subtrees(self, r):
        self.assert_rows_match(r, AB)

    @given(st.data())
    def test_drawn_shared_node(self, data):
        sigma = data.draw(st.sampled_from([AB, ABC]))
        r = data.draw(regexes(sigma.names, max_leaves=6))
        leaves = st.sampled_from([r, r, Sym(sigma.names[-1]), EPSILON, EMPTY])
        outer = data.draw(st.recursive(leaves, lambda kids: st.one_of(
            st.builds(Star, kids), st.builds(Plus, kids),
            st.builds(Concat, kids, kids), st.builds(Union, kids, kids)), max_leaves=8))
        self.assert_rows_match(outer, sigma)

    def test_doubling_dag_polls_per_distinct_node(self):
        # r = rr, 16 levels: 65,536 positions over 17 distinct nodes.  A walk
        # of the tree expansion polls 65,535 times; stamping polls about
        # four times per level.
        depth = 16
        r = Sym("a")
        for _ in range(depth):
            r = Concat(r, r)
        token = CountingToken()
        with budget.active(token):
            syms, nullable, first, last, rows, lows = rex._position_masks(r)
        n = 2 ** depth
        assert token.polls <= 4 * depth, token.polls
        assert syms == ["a"] * n and not nullable and first == 2 and last == 1 << n
        assert rows == [0, *[1] * (n - 1), 0] and lows == [0, *range(2, n + 1), 0]

    @pytest.mark.parametrize("r, sigma", [
        (Union(*m_sore_pair(2)), m_alphabet(2)),
        (reduce(Union, unamb_family(1)), SIGMA_L),
    ], ids=["m_sore_pair(2)", "unamb_family(1)"])
    def test_split_parts_shift_rows_into_place(self, r, sigma):
        # Parts of a union's Glushkov NFA, whose rows have offsets, are the
        # parts of the same rows shifted into place; the route built from
        # them gives the subset DFA.
        g = glushkov(r, sigma)
        rows, lows, pairs = automata._successor_masks(g)
        assert any(lows)
        mask = sum(1 << q for q in g.finals)
        absolute = list(map(operator.lshift, rows, lows))
        parts = automata._split_parts((rows, lows, pairs, 0, mask))
        assert parts is not None
        assert parts == automata._split_parts((absolute, [0] * len(rows), pairs, 0, mask))
        want = subset_construction(g, budget.DEFAULT_MAX_STATES)[1]
        assert serialize(_route_built(g)) == serialize(want)

    def test_other_stores_hand_over_offset_0(self):
        a = extended_to_nfa(Union(*m_sore_pair(2)), m_alphabet(2))
        b = Nfa(AB, 3, 0, frozenset([2]),
                frozenset([(0, "a", 1), (0, "b", 1), (1, "b", 2), (2, "a", 0)]))
        c = Nfa(AB, 2, 0, frozenset([1]), TransitionMasks(AB, [0b10, 0b01], [1, 0], [0, 0]))
        for nfa in (a, b, c):
            assert automata._successor_masks(nfa)[1] == [0] * nfa.n_states

    def test_complement_glushkov_memory(self):
        # The Glushkov NFA of a polynomial complement: 10,726 positions and
        # 38,707 edges, each row spanning few positions.  With rows as wide
        # as their highest target it peaked at 8.1 MiB under tracemalloc,
        # 7.2 MiB of them row bits; it reads 0.71 MiB.
        s = complement_unambiguous(unamb_family(2)[3], SIGMA_L)
        tracemalloc.start()
        try:
            g = glushkov(s, SIGMA_L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert type(g.transitions) is TransitionMasks
        assert peak < 2 * 2**20, peak

    def test_sore_intersection_glushkov_memory(self):
        # The n=5 SORE intersection's Glushkov NFA, 16,772 states over 60
        # symbols, is found nondeterministic at row 0.  With a table of
        # n * k slots made before the first row, entry masks built one state
        # at a time and every row shifted into place by the range check, it
        # peaked at 5.2 MiB under tracemalloc (3.8 MiB of them the unused
        # table); it reads 1.5 MiB.
        sigma = m_alphabet(5)
        r = intersect_sores(m_sore_pair(5), sigma)
        tracemalloc.start()
        try:
            g = glushkov(r, sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert type(g.transitions) is TransitionMasks and g.n_states == 16772
        assert peak < 2.5 * 2**20, peak

    @given(st.integers(1, 6).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(st.integers(-1, k - 1), max_size=40))))
    def test_entry_masks_match_one_state_at_a_time(self, drawn):
        k, entered = drawn
        codes = [-1, *entered]  # code -1: state 0, and any drawn one, entered on none
        want = [0] * k
        for q, c in enumerate(codes):
            if c >= 0:
                want[c] |= 1 << q
        assert automata._entry_masks(codes, k) == want


class TestMaskBackedIndex:
    """A Glushkov NFA keeps its follow masks; every reading of it must agree
    with the same automaton built from its triples."""

    @staticmethod
    def check_against_triples(g: Nfa):
        sigma = g.alphabet
        rebuilt = Nfa(sigma, g.n_states, g.initial, g.finals, frozenset(g.transitions))
        assert type(g.transitions) is TransitionMasks
        assert type(rebuilt.transitions) is TransitionIndex
        d, e = determinize(g), determinize(rebuilt)  # mask route, then slot route
        assert (d.n_states, d.finals, d.table) == (e.n_states, e.finals, e.table)
        assert rebuilt == g and g == rebuilt and hash(rebuilt) == hash(g)
        assert len(g.transitions) == len(rebuilt.transitions)
        assert serialize(g) == serialize(rebuilt)
        assert sorted(g.transitions._slot_edges()) == list(rebuilt.transitions._slot_edges())
        everything = frozenset(range(g.n_states))
        for s in sigma:
            assert g.step(everything, s) == rebuilt.step(everything, s)
            for p in range(g.n_states):
                assert g.step(frozenset([p]), s) == rebuilt.step(frozenset([p]), s)

    def test_seeded(self):
        rng = random.Random(1313)
        checked = {AB: 0, ABC: 0, S25: 0}
        for _ in range(300):
            sigma = rng.choice(list(checked))
            g = glushkov(random_plain_regex(rng, sigma.names, rng.randint(4, 40)), sigma)
            if not isinstance(g, Dfa):
                self.check_against_triples(g)
                checked[sigma] += 1
        assert min(checked.values()) >= 20

    @given(st.sampled_from([AB, ABC, S25]).flatmap(
        lambda sigma: st.tuples(st.just(sigma), regexes(sigma.names, max_leaves=12))))
    def test_drawn(self, drawn):
        sigma, r = drawn
        g = glushkov(r, sigma)
        if not isinstance(g, Dfa):
            self.check_against_triples(g)

    def test_complement_check_reads_only_the_masks(self, monkeypatch):
        # The poly-families check: the naive route's DFA against the Glushkov
        # NFA of the polynomial complement, whose rows and entry codes the
        # subset construction takes as they are, with no walk over its edges.
        walks = []
        for name in ("_slot_edges", "_state_edges"):
            read = getattr(TransitionMasks, name)
            monkeypatch.setattr(TransitionMasks, name, lambda self, *args, read=read:
                                walks.append(1) or read(self, *args))
        masked = 0
        for r in unamb_family(2):
            s = complement_unambiguous(r, SIGMA_L)
            naive = complement_dfa(minimize(determinize(glushkov(r, SIGMA_L))))
            g = glushkov(s, SIGMA_L)
            if isinstance(g, Dfa):
                continue
            masked += 1
            assert equivalent(g, naive)
            assert type(g.transitions) is TransitionMasks
        assert masked >= 3 and not walks

    def test_edge_walk_reads_only_the_rows(self, monkeypatch):
        # The edge walk reads one entry code per edge, its target's, and
        # builds no mask per symbol.
        g = glushkov(complement_unambiguous(parse("a" * 20, AB), AB), AB)
        m = g.transitions
        assert type(m) is TransitionMasks
        want = list(m._slot_edges())
        reads = []

        class CountedCodes(list):
            def __getitem__(self, q):
                reads.append(q)
                return super().__getitem__(q)

        def refused(*args):
            raise AssertionError("entry masks built for the edge walk")
        monkeypatch.setattr(automata, "_entry_masks", refused)
        store = TransitionMasks(AB, m.rows, CountedCodes(m.codes), m.lows)
        assert list(store._slot_edges()) == want and len(want) == len(m)
        assert reads == [q for _, q in want]

    def test_complement_witness_pins(self):
        # SHA-256 digests recorded before the masks were kept.
        g = glushkov(complement_witness(1), SIGMA_K)
        assert hashlib.sha256(serialize(g).encode()).hexdigest() == (
            "eb2001f2efe47da97f413167d9664bb89e5576705eba181490004786d52e2fba")
        assert hashlib.sha256(serialize(determinize(g)).encode()).hexdigest() == (
            "97ac2fa459566b9bfc8d77b8deec5447712034ea8a33203eac474a7f279d5d82")


class TestStoresAgree:
    """Every store, read every way, against the frozenset of the same
    triples: parsed, product, combinator, Glushkov and triple-built
    automata."""

    @staticmethod
    def cases():
        rng = random.Random(1515)
        out = []
        for _ in range(60):
            sigma = rng.choice([AB, ABC])
            r = random_plain_regex(rng, sigma.names, rng.randint(3, 16))
            g = glushkov(r, sigma)
            drawn = random_nfa(rng, sigma, rng.randint(1, 6))
            nfa_triples = frozenset(drawn.transitions)
            nfa = Nfa(sigma, drawn.n_states, 0, drawn.finals, nfa_triples)
            dfa = random_dfa(rng, sigma, rng.randint(1, 5))
            for text in (serialize(g), serialize(nfa), serialize(dfa)):
                lines = [ln.split() for ln in text.splitlines() if ln.startswith("trans:")]
                out.append((parse_automaton(text),
                            frozenset((int(p), s, int(q)) for _, p, s, q in lines)))
            out.append((g, frozenset(glushkov_by_marking(r, sigma).transitions)))
            out.append((nfa, nfa_triples))
            out.append((Dfa(sigma, dfa.n_states, 0, dfa.finals, frozenset(dfa.transitions)),
                        frozenset(dfa.transitions)))
            for x in (product(nfa, dfa), product(dfa, dfa), product(g, nfa),
                      extended_to_nfa(r, sigma),
                      extended_to_nfa(Intersect(r, Star(Sym(sigma.names[0]))), sigma)):
                out.append((x, None))
        return out

    def test_every_reading_agrees_with_the_triples(self):
        kinds = Counter()
        for a, want in self.cases():
            sigma, n, trans = a.alphabet, a.n_states, a.transitions
            kinds[type(trans)] += 1
            assert type(trans) in ((TransitionTable,) if isinstance(a, Dfa)
                                   else (TransitionIndex, TransitionMasks))
            listed = list(trans)
            triples = frozenset(listed)
            if want is not None:
                assert triples == want
            assert len(listed) == len(triples) == len(trans)
            assert trans == triples and hash(trans) == hash(triples)
            k, code = len(sigma), sigma.index
            edges = list(trans._slot_edges())
            assert len(edges) == len(triples)
            assert set(edges) == {(p * k + code[s], q) for p, s, q in triples}
            heads = {(p, s) for p, s, _ in triples}
            assert a.is_deterministic() == (len(heads) == len(triples))
            for p in range(n + 1):
                for c, s in enumerate(sigma.names):
                    assert list(a.successors(p, c)) == sorted(
                        q for p2, s2, q in triples if (p2, s2) == (p, s))
                    for q in range(n + 1):
                        assert ((p, s, q) in trans) == ((p, s, q) in triples)
            for p in range(n + 1):
                edges = list(trans._state_edges(p))
                assert sorted(edges) == sorted((code[s], q) for p2, s, q in triples if p2 == p)
                # A stable sort by symbol keeps each symbol's targets in the
                # order read, which must already be ascending.
                assert sorted(edges, key=operator.itemgetter(0)) == sorted(edges)
            for p in range(n):
                assert list(map(list, trans._state_slots(p))) == [
                    sorted(q for p2, s2, q in triples if (p2, s2) == (p, s))
                    for s in sigma.names]
            assert (0, "z", 0) not in trans
            _, want_dfa = subset_construction(
                Nfa(sigma, n, a.initial, a.finals, triples), budget.DEFAULT_MAX_STATES)
            assert serialize(determinize(a)) == serialize(want_dfa)
            # Each constructor turns the other kinds of store into its own.
            as_nfa = Nfa(sigma, n, a.initial, a.finals, trans)
            assert type(as_nfa.transitions) in (TransitionIndex, TransitionMasks)
            assert as_nfa.transitions == triples
            if a.is_deterministic():
                as_dfa = Dfa(sigma, n, a.initial, a.finals, trans)
                assert type(as_dfa.transitions) is TransitionTable
                assert as_dfa.transitions == triples
            else:
                with pytest.raises(ValueError, match="multiple transitions from state"):
                    Dfa(sigma, n, a.initial, a.finals, trans)
            assert not hasattr(a, "index")  # no second copy of the transitions
        assert len(kinds) == 3 and min(kinds.values()) >= 30

    @pytest.mark.parametrize("a", [
        glushkov(parse("(a|b)*", AB), AB),
        Nfa(AB, 3, 0, frozenset([2]), [(0, "a", 1), (0, "a", 2), (2, "b", 2)]),
        glushkov(parse("(a|b)*a", AB), AB),
    ], ids=["table", "index", "masks"])
    def test_out_of_range_state_or_symbol_has_no_successors(self, a):
        # A flat slot number would land in another state's slots.
        n, k = a.n_states, len(a.alphabet)
        for p, c in ((-1, 0), (-1, k - 1), (-n, 0), (n, 0), (0, -1), (0, k), (0, 5), (n - 1, k)):
            assert not a.successors(p, c), (p, c)
        assert a.step(frozenset([-1, n]), "a") == frozenset()
        assert a.step(frozenset([-1, 0]), "a") == a.step(frozenset([0]), "a") != frozenset()

    @staticmethod
    def product_pairs(a, b):
        """The reachable pairs of ``a`` and ``b``, read off their triples."""
        ta, tb = frozenset(a.transitions), frozenset(b.transitions)
        seen = {(a.initial, b.initial)}
        stack = list(seen)
        while stack:
            p, q = stack.pop()
            for pair in {(p2, q2) for p1, s, p2 in ta if p1 == p
                         for q1, s2, q2 in tb if (q1, s2) == (q, s)} - seen:
                seen.add(pair)
                stack.append(pair)
        return seen

    def test_walks_read_each_state_in_one_call(self, monkeypatch):
        # The product's slot walk reads a left state's edges once per pair
        # and a right state's once; the analysis walks read each state's
        # edges once and never group them by symbol.
        reads = Counter()
        for store in (TransitionTable, TransitionIndex, TransitionMasks):
            for name in ("_state_edges", "_state_slots"):
                read = getattr(store, name)
                monkeypatch.setattr(store, name, lambda self, p, read=read, name=name:
                                    reads.update([(name, id(self), p)]) or read(self, p))
        rng = random.Random(1717)
        g = glushkov(parse("(a|b)*a(a|b)b*", AB))
        nfa, dfa = random_nfa(rng, AB, 5), random_dfa(rng, AB, 4)
        assert [type(x.transitions) for x in (g, nfa, dfa)] == [
            TransitionMasks, TransitionIndex, TransitionTable]
        for a, b in ((g, nfa), (nfa, dfa), (dfa, g), (g, g)):
            pairs = self.product_pairs(a, b)
            sa, sb = id(a.transitions), id(b.transitions)
            # A left state once per pair, a right state once.
            rights = {q for _, q in pairs}
            want = Counter((sa, p) for p, _ in pairs) + Counter((sb, q) for q in rights)
            reads.clear()
            assert product(a, b).n_states == len(pairs)
            assert reads == Counter({(name, *key): n for key, n in want.items()
                                     for name in ("_state_edges", "_state_slots")})
            reads.clear()
            analysis._predecessors(a)
            assert reads == Counter(("_state_edges", sa, p) for p in range(a.n_states))
            reads.clear()
            reached = analysis._reach([a.initial], analysis._successors_on(a, range(2)))
            assert reads == Counter(("_state_edges", sa, p) for p in reached)


class TestComplement:
    def test_sigma_star(self):
        everything = determinize(glushkov(parse("(a|b)*", AB)))
        c = complement_dfa(everything)
        assert slice_of(c, 4) == frozenset()

    def test_a_plus_over_ab(self):
        d = determinize(glushkov(parse("aa*", AB), AB))
        c = complement_dfa(d)
        expected = frozenset(w for w in words_upto("ab", 4)
                             if not (w and all(s == "a" for s in w)))
        assert slice_of(c, 4) == expected

    def test_involution(self):
        d = determinize(glushkov(parse("ab|a*", AB), AB))
        assert equivalent(complement_dfa(complement_dfa(d)), d)

    @given(st.integers(0, 10_000))
    def test_xor_property(self, seed):
        rng = random.Random(seed)
        d = random_dfa(rng, AB, rng.randint(1, 5))
        c = complement_dfa(d)
        for w in words_upto("ab", 4):
            assert accepts(d, w) != accepts(c, w)

    def test_fill_polls_per_table_block(self):
        # k_dfa(64) has 147,708 slots, 102,654 of them missing: filling them
        # polls once per ``_TABLE_BLOCK`` slots, so the count follows the table.
        polls = []
        for d in (k_dfa(8), k_dfa(64)):
            token = CountingToken()
            with budget.active(token):
                c = complement_dfa(d)
            assert c.finals == frozenset(range(c.n_states)) - d.finals
            assert token.polls == -(-len(d.table) // automata._TABLE_BLOCK)
            polls.append(token.polls)
        assert polls == [1, 3]

    @pytest.mark.parametrize("text, sink", [("ab*|aa*", True), ("(a|b)*a|(a|b)*b", False)])
    def test_final_flags_swapped_as_bytes(self, monkeypatch, text, sink):
        # A union-route result keeps FinalFlags; the complement swaps their
        # bytes and never tests a state through the view.
        d = _route_built(glushkov(parse(text, AB)))
        same = Dfa.from_table(d.alphabet, d.n_states, d.initial, frozenset(d.finals), d.table)
        want = complement_dfa(same)

        def refused(self, item):
            raise AssertionError("FinalFlags tested state by state")

        monkeypatch.setattr(FinalFlags, "__contains__", refused)
        got = complement_dfa(d)
        assert type(got.finals) is FinalFlags and got.finals == want.finals
        assert got.n_states == d.n_states + sink == want.n_states
        assert serialize(got) == serialize(want)

    def test_table_scanned_once_under_the_budget(self):
        # 70,000 states x 2 symbols, every slot defined: one scan finds no
        # missing slot, polls once per ``_TABLE_BLOCK`` slots and shares the
        # table, with no sink.  A partial table is copied, never extended.
        n = 70_000
        d = Dfa.from_table(AB, n, 0, [n - 1], array("i", [(s // 2 + s % 2 + 1) % n
                                                          for s in range(2 * n)]))
        blocks = -(-len(d.table) // automata._TABLE_BLOCK)
        assert blocks >= 2
        token = CountingToken()
        with budget.active(token):
            c = complement_dfa(d)
        assert token.polls == blocks
        assert c.table is d.table and c.n_states == n
        assert c.finals == frozenset(range(n - 1))

        class StopAtSecondPoll(CountingToken):
            def check(self):
                if self.polls == 1:
                    self.cancel()
                super().check()

        token = StopAtSecondPoll()
        with budget.active(token), pytest.raises(BudgetExceededError, match="cancelled"):
            complement_dfa(d)
        assert token.polls == 2

        d = k_dfa(8)
        before = array("i", d.table)
        c = complement_dfa(d)
        assert d.table == before and c.table is not d.table
        assert c.n_states == d.n_states + 1 and len(c.table) == len(before) + len(d.alphabet)


class TestProduct:
    def test_identity_element(self):
        a = glushkov(parse("ab|ba", AB), AB)
        everything = glushkov(parse("(a|b)*", AB), AB)
        assert equivalent(product(a, everything), a)

    def test_absorbing_element(self):
        a = glushkov(parse("ab|ba", AB), AB)
        nothing = extended_to_nfa(EMPTY, AB)
        assert slice_of(product(a, nothing), 5) == frozenset()

    def test_example_language(self):
        got = product(glushkov(parse("ab*", ABC), ABC),
                      glushkov(parse("a(b|c)*", ABC), ABC))
        assert slice_of(got, 5) == regex_slice(parse("ab*", ABC), "abc", 5)

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            product(glushkov(parse("a", A)), glushkov(parse("b", Alphabet.of("b"))))

    @pytest.mark.parametrize("seed", range(4))
    def test_dfa_table_walk_matches_nfa_route(self, seed):
        # Nfa copies of the same DFAs go through the slot walk over
        # ``successors``, not the table walk; the numbering, the output and
        # the budget error point must agree.
        rng = random.Random(seed)
        for _ in range(150):
            sigma = rng.choice([AB, ABC])
            pair = []
            for _ in range(2):
                d = random_dfa(rng, sigma, rng.randint(1, 7))
                pair.append(complement_dfa(d) if rng.random() < 0.3 else d)
            a, b = pair
            a_nfa = Nfa(sigma, a.n_states, a.initial, a.finals, frozenset(a.transitions))
            b_nfa = Nfa(sigma, b.n_states, b.initial, b.finals, frozenset(b.transitions))
            limit = rng.choice([1, 3, 8, budget.DEFAULT_MAX_STATES])
            try:
                want = serialize(product(a_nfa, b_nfa, max_states=limit))
            except BudgetExceededError:
                with pytest.raises(BudgetExceededError):
                    product(a, b, max_states=limit)
                continue
            got = product(a, b, max_states=limit)
            assert isinstance(got, Dfa) and serialize(got) == want

    @pytest.mark.parametrize("family, n", [
        ("unamb-family", 1), ("unamb-family", 2), ("unamb-family", 3), ("unamb-family", 4),
        ("m-sore-pair", 1), ("m-sore-pair", 2), ("m-sore-pair", 3)])
    def test_dfa_table_walk_on_sparse_wide_alphabets(self, family, n):
        # Glushkov DFAs leave most slots empty, and the SORE pair's alphabet
        # has up to 24 symbols; the table walk reads only the right operand's
        # edges.  Operands are the family's DFAs and the accumulators of its
        # left fold, in both orders, against Nfa copies through the slot walk.
        if family == "unamb-family":
            sigma, members = SIGMA_L, unamb_family(n)
        else:
            sigma, members = m_alphabet(n), m_sore_pair(n)
        dfas = [glushkov(e, sigma) for e in members]
        assert all(isinstance(d, Dfa) for d in dfas)
        pairs = [(a, b) for a in dfas for b in dfas]
        acc = dfas[0]
        for d in dfas[1:]:
            pairs += [(acc, d), (d, acc)]
            acc = product(acc, d)

        def outcome(a, b, limit):
            token = CountingToken()
            with budget.active(token):
                try:
                    got = product(a, b, max_states=limit)
                except BudgetExceededError as exc:
                    return str(exc), token.polls
            return type(got), serialize(got), token.polls

        def nfa_copy(d):
            return Nfa(sigma, d.n_states, d.initial, d.finals, frozenset(d.transitions))

        for a, b in pairs:
            for limit in (1, 3, 50, budget.DEFAULT_MAX_STATES):
                assert outcome(a, b, limit) == outcome(nfa_copy(a), nfa_copy(b), limit)

    def test_dfa_table_walk_cost_follows_reachable_pairs(self):
        # A large total right operand whose product with "ab" has 3 pairs: the
        # walk lists edges only for the states of b it reaches, so its memory
        # stays near one pointer per state of b and it polls once per pair.
        width = 50_000
        table = array("i")
        for q in range(width):
            table += array("i", [(q + 1) % width, q])
        big = Dfa.from_table(AB, width, 0, frozenset(range(width)), table)
        ab = glushkov(parse("ab", AB), AB)
        token = CountingToken()
        tracemalloc.start()
        try:
            with budget.active(token):
                p = product(ab, big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.transitions == {(0, "a", 1), (1, "b", 2)} and p.finals == {2}
        assert token.polls == 3
        assert peak < 16 * width

    def test_nfa_targets_walked_in_ascending_order(self):
        # State 0 enters 1 and 8 on "a", and a frozenset of the two iterates
        # 8 first.  Pairs are numbered in ascending target order, so the pair
        # of state 1 is state 1 whatever the hash seed.
        a = Nfa(A, 9, 0, frozenset([1]), frozenset([(0, "a", 1), (0, "a", 8)]))
        loop = Dfa(A, 1, 0, frozenset([0]), frozenset([(0, "a", 0)]))
        p = product(a, loop)
        assert p.transitions == {(0, "a", 1), (0, "a", 2)} and p.finals == {1}

    def test_unforked_product_of_nfas_is_a_dfa(self):
        # ``a`` forks on "b", which ``b`` never reads, and ``b`` forks only
        # at state 2, which no pair reaches: the reachable product is the
        # two-state cycle on "a", a partial function.
        a = Nfa(AB, 3, 0, frozenset([0]),
                frozenset([(0, "a", 1), (1, "a", 0), (0, "b", 1), (0, "b", 2)]))
        b = Nfa(AB, 3, 0, frozenset([0, 1]),
                frozenset([(0, "a", 1), (1, "a", 0), (2, "a", 0), (2, "a", 1)]))
        assert not a.is_deterministic() and not b.is_deterministic()
        p = product(a, b)
        assert type(p) is Dfa and type(p.transitions) is TransitionTable
        assert p.table == array("i", [1, -1, 0, -1])
        as_index = Nfa(AB, p.n_states, p.initial, p.finals, frozenset(p.transitions))
        assert type(as_index.transitions) is TransitionIndex
        assert serialize(p) == serialize(as_index)

    def test_forked_product_stays_an_nfa(self):
        # Pair (0, 0) enters (1, 0) and (2, 0) on "a"; ``b`` is a DFA.
        a = Nfa(AB, 3, 0, frozenset([1]), frozenset([(0, "a", 1), (0, "a", 2)]))
        loop = Dfa(AB, 1, 0, frozenset([0]), frozenset([(0, "a", 0)]))
        for p in (product(a, loop), product(loop, a)):
            assert type(p) is Nfa and type(p.transitions) is TransitionIndex
            assert p.transitions == {(0, "a", 1), (0, "a", 2)}

    def test_operands_are_not_asked_whether_deterministic(self, monkeypatch):
        # Products of tables, indexes, mask stores and combinator indexes
        # run without ``is_deterministic``; each is a ``Dfa`` exactly when
        # no slot of it holds two targets, and agrees with the reference.
        rng = random.Random(3535)
        operands = []
        for _ in range(40):
            r = random_plain_regex(rng, "ab", rng.randint(3, 12))
            operands += [random_dfa(rng, AB, rng.randint(1, 4)),
                         random_nfa(rng, AB, rng.randint(1, 4)),
                         glushkov(r, AB), extended_to_nfa(r, AB)]
        stores = Counter(type(x.transitions) for x in operands)
        assert len(stores) == 3 and min(stores.values()) >= 20

        def refuse(self):
            raise AssertionError("an operand was asked whether it is deterministic")
        monkeypatch.setattr(Nfa, "is_deterministic", refuse)
        monkeypatch.setattr(Dfa, "is_deterministic", refuse)
        kinds = Counter()
        for a, b in zip(operands, operands[1:] + operands[:1]):
            p = product(a, b)
            want = product_by_pair_codes(a, b)
            heads = {(q, s) for q, s, _ in p.transitions}
            forked = len(heads) < len(p.transitions)
            assert type(p) is (Nfa if forked else Dfa) is type(want)
            assert serialize(p) == serialize(want)
            kinds[type(a), type(b), type(p)] += 1
        assert kinds[Nfa, Nfa, Dfa] and kinds[Nfa, Nfa, Nfa]

    def test_dense_product_memory(self):
        # x & x, each of its 8,192 pairs the only one to reach its right
        # state, so each right state keeps a dict and an edge list of its
        # own.  Under tracemalloc the walk keyed by pair codes in one dict
        # peaked at 3.06 MiB and the dicts per right state at 4.90 MiB
        # (Python 3.11).
        x = minimize(determinize(glushkov(parse("(a|b)*a" + "(a|b)" * 12, AB), AB)))
        assert x.n_states == 8192
        tracemalloc.start()
        try:
            p = product(x, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.n_states == 8192 and p.table == x.table
        assert peak < 6 * 2**20, peak

    @pytest.mark.parametrize("walk, limit_mib", [("table", 5.0), ("slots", 5.25)])
    def test_chain_product_keeps_only_pending_pairs(self, walk, limit_mib):
        # Cycles of 255 and 256 states on one symbol: 65,280 pairs in one
        # chain, never more than one of them pending.  Keeping the sides of
        # every numbered pair until the walk ended, the table walk peaked at
        # 5.39 MiB under tracemalloc and the slot walk, over the same cycles
        # as NFAs, at 5.59 MiB; keeping only the pairs still to walk, and at
        # most one chunk walked, they read 4.66 and 4.90 MiB (Python 3.11).
        def cycle(n):
            d = Dfa.from_table(A, n, 0, [0], array("i", [*range(1, n), 0]))
            return d if walk == "table" else Nfa(A, n, 0, d.finals, frozenset(d.transitions))
        a, b = cycle(255), cycle(256)
        token = CountingToken()
        tracemalloc.start()
        try:
            with budget.active(token):
                p = product(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert type(p) is Dfa and p.n_states == 255 * 256 and token.polls == p.n_states
        assert p.table == array("i", [*range(1, p.n_states), 0])
        assert p.finals == {0}
        assert peak < limit_mib * 2**20, peak

    @given(st.integers(0, 10_000))
    def test_and_property(self, seed):
        rng = random.Random(seed)
        a = random_nfa(rng, AB, rng.randint(1, 4))
        b = random_nfa(rng, AB, rng.randint(1, 4))
        p = product(a, b)
        assert p.n_states <= max(1, a.n_states * b.n_states)
        for w in words_upto("ab", 4):
            assert accepts(p, w) == (accepts(a, w) and accepts(b, w))


@st.composite
def _operands(draw, sigma: Alphabet, deterministic: bool, branching: bool = False) -> Nfa:
    """A drawn automaton of one to six states over ``sigma``: a ``Dfa``
    from a table, or an ``Nfa`` from triples.  A ``branching`` one enters
    two states from its initial state on the first symbol."""
    n = draw(st.integers(2 if branching else 1, 6))
    k = len(sigma)
    state = st.integers(0, n - 1)
    initial = draw(state)
    finals = draw(st.sets(state))
    if deterministic:
        table = draw(st.lists(st.integers(-1, n - 1), min_size=n * k, max_size=n * k))
        return Dfa.from_table(sigma, n, initial, finals, table)
    triples = draw(st.sets(st.tuples(state, st.sampled_from(sigma.names), state),
                           max_size=3 * n * k))
    if branching:
        q1, q2 = draw(st.lists(state, min_size=2, max_size=2, unique=True))
        triples |= {(initial, sigma.names[0], q1), (initial, sigma.names[0], q2)}
    return Nfa(sigma, n, initial, finals, triples)


class TestProductWalks:
    """Both ``product`` walks, which number pairs in a dict per right
    state, against ``oracles.product_by_pair_codes``, which keys them by
    one int code: the same type, states, store arrays, final flags,
    serialisation and polls, or the same refusal, with the budget at the
    default, one short of the reachable pairs and at them."""

    @staticmethod
    def outcome(walk, a: Nfa, b: Nfa, max_states: int):
        token = CountingToken()
        with budget.active(token):
            try:
                p = walk(a, b, max_states=max_states)
            except BudgetExceededError as exc:
                return str(exc), token.polls
        store = p.transitions
        if type(store) is TransitionTable:
            arrays = (store.table,)
        else:
            arrays = (store.starts, store.targets)
        return (type(p), p.n_states, tuple(x.tobytes() for x in arrays), p.finals.flags,
                serialize(p), token.polls)

    def assert_walks_agree(self, a: Nfa, b: Nfa):
        want = self.outcome(product_by_pair_codes, a, b, budget.DEFAULT_MAX_STATES)
        reachable = want[1]
        assert self.outcome(product, a, b, budget.DEFAULT_MAX_STATES) == want
        for cap in (reachable - 1, reachable):
            got = self.outcome(product, a, b, cap)
            assert got == self.outcome(product_by_pair_codes, a, b, cap)
            assert (got == want) == (cap >= reachable or reachable == 1)

    @given(st.data())
    def test_dfa_by_dfa(self, data):
        sigma = data.draw(st.sampled_from([A, AB, ABC]))
        self.assert_walks_agree(data.draw(_operands(sigma, True)),
                                data.draw(_operands(sigma, True)))

    @given(st.data())
    def test_nfa_by_nfa(self, data):
        sigma = data.draw(st.sampled_from([A, AB, ABC]))
        self.assert_walks_agree(data.draw(_operands(sigma, False)),
                                data.draw(_operands(sigma, False)))

    @given(st.data())
    def test_mixed(self, data):
        sigma = data.draw(st.sampled_from([A, AB, ABC]))
        dfa, nfa = data.draw(_operands(sigma, True)), data.draw(_operands(sigma, False))
        self.assert_walks_agree(dfa, nfa)
        self.assert_walks_agree(nfa, dfa)

    @given(st.data())
    def test_both_sides_branch_on_one_symbol(self, data):
        # Both initial states enter two states on the first symbol, so the
        # walk meets four new pairs at once and numbers them in the order
        # of ``a``'s targets, then ``b``'s.
        sigma = data.draw(st.sampled_from([A, AB, ABC]))
        a = data.draw(_operands(sigma, False, branching=True))
        b = data.draw(_operands(sigma, False, branching=True))
        self.assert_walks_agree(a, b)

    def test_walks_past_one_chunk(self):
        # Counters mod 97 and mod 89 on "a", doubling on "b": 8,633 pairs,
        # so both walks take more than one step of 4,096 pairs, and number
        # pairs past the step they are walking.
        def counter(n, finals):
            table = array("i", [q for p in range(n) for q in ((p + 1) % n, 2 * p % n)])
            return Dfa.from_table(AB, n, 1, finals, table)
        a, b = counter(97, [0, 5]), counter(89, [0, 7, 8])
        self.assert_walks_agree(a, b)
        nfa_a, nfa_b = (Nfa(AB, d.n_states, d.initial, d.finals, frozenset(d.transitions))
                        for d in (a, b))
        self.assert_walks_agree(nfa_a, nfa_b)
        assert product(a, b).n_states == 97 * 89


class TestMinimize:
    def test_drops_unreachable(self):
        d = Dfa(A, 3, 0, frozenset([0, 2]), frozenset([(0, "a", 0), (2, "a", 2)]))
        m = minimize(d)
        assert m.n_states == 1

    def test_a_star_twice(self):
        # a*a* denotes a*, whose minimal acceptor is a single looping state.
        d = determinize(glushkov(parse("a*a*", A)))
        assert d.n_states == 2  # subsets {q0}, {a1,a2}
        m = minimize(d)
        assert m.n_states == 1
        assert m.finals == {0}

    def test_idempotent(self):
        d = determinize(glushkov(parse("(a|b)*abb", AB), AB))
        once = minimize(d)
        assert serialize(minimize(once)) == serialize(once)

    def test_empty_language_is_single_state(self):
        d = Dfa(AB, 3, 0, frozenset(), frozenset([(0, "a", 1), (1, "b", 2)]))
        m = minimize(d)
        assert m.n_states == 1 and not m.finals and not m.transitions

    @given(st.integers(0, 10_000))
    def test_canonical_under_renaming(self, seed):
        rng = random.Random(seed)
        d = random_dfa(rng, AB, rng.randint(2, 6))
        perm = list(range(d.n_states))
        rng.shuffle(perm)
        renamed = Dfa(AB, d.n_states, perm[d.initial],
                      frozenset(perm[q] for q in d.finals),
                      frozenset((perm[p], s, perm[q]) for p, s, q in d.transitions))
        assert serialize(minimize(d)) == serialize(minimize(renamed))
        assert slice_of(minimize(d), 5) == slice_of(d, 5)

    @settings(max_examples=150)
    @given(st.integers(0, 100_000), st.sampled_from(
        ["dfa", "subsets", "regex", "complement", "product", "unreachable-and-dead"]))
    def test_matches_moore_refinement(self, seed, kind):
        # Byte-identical to Moore's refinement with the same trimming and
        # canonical numbering, on partial and total DFAs over declared
        # alphabets.
        rng = random.Random(seed)
        sigma = rng.choice([A, AB, ABC])
        if kind == "dfa":
            d = random_dfa(rng, sigma, rng.randint(1, 8))
        elif kind == "subsets":
            d = determinize(random_nfa(rng, sigma, rng.randint(1, 6)))
        elif kind == "regex":
            r = random_plain_regex(rng, sigma.names, rng.randint(1, 16))
            d = determinize(glushkov(r, sigma))
        elif kind == "complement":  # total, usually with a sink
            d = complement_dfa(random_dfa(rng, sigma, rng.randint(1, 8)))
        elif kind == "product":
            d = product(random_dfa(rng, sigma, rng.randint(1, 6)),
                        random_dfa(rng, sigma, rng.randint(1, 6)))
        else:
            # A random DFA whose missing edges may enter a few non-final
            # states that only reach each other, plus final states that
            # nothing enters.
            base = random_dfa(rng, sigma, rng.randint(1, 6))
            n, dead, unreached = base.n_states, rng.randint(1, 3), rng.randint(1, 3)
            triples = set(base.transitions)
            for p in range(n + dead + unreached):
                for s in sigma:
                    if p < n and base.table[p * len(sigma) + sigma.index[s]] >= 0:
                        continue
                    if p < n + dead and rng.random() < 0.5:
                        triples.add((p, s, rng.randrange(n, n + dead)))
                    elif p >= n + dead:
                        triples.add((p, s, rng.randrange(n + dead + unreached)))
            finals = base.finals | frozenset(range(n + dead, n + dead + unreached))
            d = Dfa(sigma, n + dead + unreached, 0, finals, frozenset(triples))
        assert serialize(minimize(d)) == serialize(minimize_by_moore(d))

    @pytest.fixture(scope="class")
    def witness_n1(self):
        # Criterion 1's n=1 subset DFA: 63,993 states, total.
        return determinize(glushkov(complement_witness(1), SIGMA_K))

    def test_n1_witness_result_and_memory(self, witness_n1):
        tracemalloc.start()
        try:
            m = minimize(witness_n1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hashlib.sha256(serialize(m).encode()).hexdigest() == (
            "c8949e90ceda25f68748eefb21d81867360ffff0d10c917aec5e5833a1606ec8")
        assert m.n_states == 18
        assert peak < 20_000_000

    def test_polls_the_budget_per_state(self, witness_n1):
        # Polls in the passes over the states, not only per splitter, so a
        # deadline also fires while the index is built and the DFA trimmed.
        token = CountingToken()
        with budget.active(token):
            minimize(witness_n1)
        assert token.polls >= witness_n1.n_states

    def test_cancelled(self):
        token = CancelToken()
        token.cancel()
        with budget.active(token), pytest.raises(BudgetExceededError, match="cancelled"):
            minimize(k_dfa(4))

    @given(st.integers(0, 10_000))
    def test_minimal_state_count(self, seed):
        # No equivalent DFA may have fewer states: check against brute-force
        # distinguishability classes of reachable states.
        rng = random.Random(seed)
        d = random_dfa(rng, AB, rng.randint(1, 5))
        m = minimize(d)
        suffixes = list(words_upto("ab", 4))

        def profile(q):
            out = []
            for w in suffixes:
                cur = q
                ok = True
                for s in w:
                    cur = m.table[cur * len(AB) + AB.index[s]]
                    if cur < 0:
                        ok = False
                        break
                out.append(ok and cur in m.finals)
            return tuple(out)

        live = [q for q in range(m.n_states)]
        assert len({profile(q) for q in live}) == len(live) or m.n_states == 1


class TestEquivalent:
    def test_star_orders(self):
        assert equivalent(glushkov(parse("a*a", A)), glushkov(parse("aa*", A)))

    def test_different(self):
        assert not equivalent(glushkov(parse("a", A)), glushkov(parse("aa", A)))

    @given(regexes("ab", max_leaves=4))
    def test_double_negation(self, r):
        lhs = extended_to_nfa(Negate(Negate(r)), AB)
        rhs = glushkov(r, AB)
        assert equivalent(lhs, rhs)

    def test_shortest_divergence(self):
        a = glushkov(parse("a|ba", AB), AB)
        b = glushkov(parse("a|ab", AB), AB)
        assert shortest_divergence(a, a) is None
        assert shortest_divergence(a, b) == ("a", "b")

    def test_partial_against_totalised(self):
        partial = Dfa(AB, 2, 0, frozenset([1]), frozenset([(0, "a", 1)]))
        total = Dfa(AB, 3, 0, frozenset([1]), frozenset(
            [(0, "a", 1), (0, "b", 2), (1, "a", 2), (1, "b", 2), (2, "a", 2), (2, "b", 2)]))
        assert equivalent(partial, total) and equivalent(total, partial)

    def test_empty_against_dead_states(self):
        empty = Dfa(AB, 1, 0, frozenset(), frozenset())
        # State 2 is final but unreachable; 0 and 1 never reach a final state.
        dead = Dfa(AB, 3, 0, frozenset([2]), frozenset(
            [(0, "a", 1), (1, "a", 1), (1, "b", 0), (2, "a", 2)]))
        assert equivalent(empty, dead) and equivalent(dead, empty)

    def test_difference_past_a_missing_edge(self):
        a_star = Dfa(A, 1, 0, frozenset([0]), frozenset([(0, "a", 0)]))
        # Accepts up to two a's; "aaa" leaves the table at state 2.
        short = Dfa(A, 3, 0, frozenset([0, 1, 2]), frozenset([(0, "a", 1), (1, "a", 2)]))
        assert not equivalent(a_star, short) and not equivalent(short, a_star)
        assert shortest_divergence(a_star, short) == ("a", "a", "a")

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            equivalent(glushkov(parse("a", A), A), glushkov(parse("a", AB), AB))

    def test_cancelled_walk(self):
        d = k_dfa(2)
        token = CancelToken()
        token.cancel()
        with budget.active(token):
            with pytest.raises(BudgetExceededError):
                equivalent(d, d)

    def test_nfa_input_budget(self):
        nfa = glushkov(parse("(a|b)*a(a|b)(a|b)", AB), AB)
        n = determinize(nfa).n_states
        assert equivalent(nfa, nfa, max_states=n)
        with pytest.raises(BudgetExceededError):
            equivalent(nfa, nfa, max_states=n - 1)

    @settings(max_examples=150)
    @given(st.integers(0, 10_000), st.sampled_from(["independent", "complement", "minimal"]))
    @example(seed=12, kind="complement")  # a partial 5-state DFA against 6 states
    def test_matches_minimised_comparison(self, seed, kind):
        rng = random.Random(seed)
        sigma = rng.choice([A, AB])

        def side():
            roll = rng.random()
            if roll < 0.4:
                return random_dfa(rng, sigma, rng.randint(1, 5))  # usually partial
            if roll < 0.7:
                return complement_dfa(random_dfa(rng, sigma, rng.randint(1, 4)))
            return glushkov(random_plain_regex(rng, sigma.names, rng.randint(1, 8)), sigma)

        a = side()
        if kind == "independent":
            b = side()
        else:
            d = determinize(a)
            # Same language, usually another state count: complementing a
            # partial DFA twice adds a sink, minimising drops states.
            b = complement_dfa(complement_dfa(d)) if kind == "complement" else minimize(d)
        want = (serialize(minimize(determinize(a)))
                == serialize(minimize(determinize(b))))
        assert equivalent(a, b) == want == equivalent(b, a)
        assert (shortest_divergence(a, b) is None) == want


def _random_partial_dfa(rng: random.Random, sigma: Alphabet) -> Dfa:
    """A DFA of 1-6 states whose table is empty, sparse, dense or total."""
    n = rng.randint(1, 6)
    fill = rng.choice([0.0, 0.4, 0.8, 1.0])  # 0.0: every slot is -1
    table = array("i", (rng.randrange(n) if rng.random() < fill else -1
                        for _ in range(n * len(sigma))))
    finals = frozenset(q for q in range(n) if rng.random() < 0.4)
    return Dfa.from_table(sigma, n, 0, finals, table)


def _dfa_with_unreachable_states(rng: random.Random, sigma: Alphabet) -> Dfa:
    """A random partial DFA with 1-3 unreachable states, numbered anywhere:
    they may have out-edges, but only they have edges into them."""
    live, dead = rng.randint(1, 6), rng.randint(1, 3)
    n, k = live + dead, len(sigma)
    fill = rng.choice([0.0, 0.4, 0.8, 1.0])
    name = rng.sample(range(n), n)  # state q is written as name[q]
    table = array("i", [-1]) * (n * k)
    for q in range(n):
        for c in range(k):
            if rng.random() < fill:
                table[name[q] * k + c] = name[rng.randrange(n if q >= live else live)]
    finals = frozenset(q for q in range(n) if rng.random() < 0.4)
    return Dfa.from_table(sigma, n, name[rng.randrange(live)], finals, table)


def _random_equivalence_pair(rng: random.Random) -> tuple[Nfa, Nfa]:
    sigma = rng.choice([A, AB, ABC])

    def side():
        roll = rng.random()
        if roll < 0.5:
            return _random_partial_dfa(rng, sigma)
        if roll < 0.7:
            return complement_dfa(_random_partial_dfa(rng, sigma))
        return glushkov(random_plain_regex(rng, sigma.names, rng.randint(1, 8)), sigma)

    a = side()
    kind = rng.choice(["independent", "minimised", "complement", "double complement"])
    if kind == "independent":
        return a, side()
    d = determinize(a)
    if kind == "minimised":
        return a, minimize(d)
    if kind == "complement":
        return a, complement_dfa(d)
    return a, complement_dfa(complement_dfa(d))


def _product_chain(n: int) -> Nfa:
    exprs = unamb_family(n)
    acc = glushkov(exprs[0], SIGMA_L)
    for r in exprs[1:]:
        acc = product(acc, glushkov(r, SIGMA_L))
    return acc


class TestEquivalentInPlace:
    """``equivalent`` and ``shortest_divergence`` read the partial tables in
    place; the totalising routines in ``oracles`` are their reference."""

    @staticmethod
    def assert_matches_reference(a, b):
        for x, y in ((a, b), (b, a)):
            assert equivalent(x, y) == equivalent_by_totalising(x, y)
            assert shortest_divergence(x, y) == shortest_divergence_by_totalising(x, y)

    def test_seeded_pairs(self):
        verdicts = Counter()
        for seed in range(3000):
            a, b = _random_equivalence_pair(random.Random(seed))
            self.assert_matches_reference(a, b)
            verdicts[equivalent(a, b)] += 1
        assert min(verdicts.values()) >= 500

    def test_product_chain_pair(self):
        chain = _product_chain(5)
        self.assert_matches_reference(chain, l_dfa(32))
        self.assert_matches_reference(chain, l_dfa(16))

    def test_cliff_pair(self):
        c = complement_dfa(determinize(glushkov(complement_witness(1), SIGMA_K)))
        self.assert_matches_reference(c, k_dfa(2))

    def test_total_tables(self):
        # Even and odd counts of a over ab, both total: no sink is reached.
        two = Dfa.from_table(AB, 2, 0, frozenset([0]), array("i", [1, 0, 0, 1]))
        four = Dfa.from_table(AB, 4, 0, frozenset([0, 2]),
                              array("i", [1, 0, 2, 1, 3, 2, 0, 3]))
        odd = complement_dfa(two)
        assert -1 not in two.table and -1 not in four.table and -1 not in odd.table
        for x, y in ((two, four), (four, two)):
            assert equivalent(x, y) and shortest_divergence(x, y) is None
        for x, y in ((two, odd), (odd, two)):
            assert not equivalent(x, y) and shortest_divergence(x, y) == ()
        odd_of_four = complement_dfa(four)
        assert shortest_divergence(odd_of_four, two) == ()
        self.assert_matches_reference(four, odd_of_four)

    def test_sink_against_live_cycle(self):
        # The smaller side accepts only "a"; on "b" it steps to its sink, which
        # the larger side answers with the non-final cycle 2 -a-> 3 -a-> 2.
        small = Dfa.from_table(AB, 2, 0, frozenset([1]), array("i", [1, -1, -1, -1]))
        cycle = Dfa.from_table(AB, 4, 0, frozenset([1]),
                               array("i", [1, 2, -1, -1, 3, -1, 2, -1]))
        for x, y in ((small, cycle), (cycle, small)):
            assert equivalent(x, y) and shortest_divergence(x, y) is None
        # The same cycle with an exit to a final state on "b" from 3.
        leaky = Dfa.from_table(AB, 5, 0, frozenset([1, 4]),
                               array("i", [1, 2, -1, -1, 3, -1, 2, 4, -1, -1]))
        assert not equivalent(small, leaky) and not equivalent(leaky, small)
        assert shortest_divergence(small, leaky) == ("b", "a", "b")
        assert shortest_divergence(leaky, small) == ("b", "a", "b")
        self.assert_matches_reference(small, leaky)

    def test_final_past_one_sided_missing_slot(self):
        # "aba" reaches a final state only through 1 -b-> 2, a slot that is
        # missing on the other side, which accepts "aa" instead.
        aba = Dfa.from_table(AB, 4, 0, frozenset([3]),
                             array("i", [1, -1, -1, 2, 3, -1, -1, -1]))
        aa = Dfa.from_table(AB, 3, 0, frozenset([2]), array("i", [1, -1, 2, -1, -1, -1]))
        for x, y in ((aba, aa), (aa, aba)):
            assert not equivalent(x, y)
            assert shortest_divergence(x, y) == ("a", "a")
        both = Dfa.from_table(AB, 5, 0, frozenset([3, 4]),
                              array("i", [1, -1, 4, 2, 3, -1, -1, -1, -1, -1]))
        assert not equivalent(aa, both) and not equivalent(both, aa)
        assert shortest_divergence(aa, both) == ("a", "b", "a")
        self.assert_matches_reference(aa, both)

    def test_no_totalised_copies(self, monkeypatch):
        def refuse(d):
            raise AssertionError("a totalised copy was made")

        pairs = [_random_equivalence_pair(random.Random(seed)) for seed in range(200)]
        assert sum(-1 in determinize(a).table for a, _ in pairs) >= 50
        monkeypatch.setattr(automata, "_totalized", refuse)
        for a, b in pairs:
            for x, y in ((a, b), (b, a)):
                equivalent(x, y)
                shortest_divergence(x, y)
        partial = Dfa.from_table(AB, 2, 0, frozenset([1]), array("i", [1, -1, -1, -1]))
        assert equivalent(partial, glushkov(parse("a", AB), AB))
        assert shortest_divergence(partial, glushkov(parse("b", AB), AB)) == ("a",)


class TestEliminateStates:
    def test_epsilon_only(self):
        a = Nfa(A, 1, 0, frozenset([0]), frozenset())
        assert eliminate_states(a) == EPSILON

    def test_round_trip_ab(self):
        g = glushkov(parse("ab", AB), AB)
        r = eliminate_states(g)
        assert equivalent(glushkov(r, AB), g)

    def test_z2_regex(self):
        from rexlab.rex import subexpressions
        r = eliminate_states(z_dfa(2))
        assert size(r) >= 2
        assert not has_extended(r)
        assert all(not isinstance(node, Plus) for node in subexpressions(r))
        assert equivalent(glushkov(r, z_dfa(2).alphabet), z_dfa(2))

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            eliminate_states(k_dfa(4), max_size=10)

    @given(st.integers(0, 10_000))
    def test_round_trip_random(self, seed):
        rng = random.Random(seed)
        a = random_nfa(rng, AB, rng.randint(1, 4))
        r = eliminate_states(a)
        assert equivalent(glushkov(r, AB), a)


class TestAccepts:
    def test_walk_label_path(self):
        assert accepts(z_dfa(5), ["a(0,2)", "a(2,2)", "a(2,1)"])

    def test_epsilon_iff_initial_final(self):
        assert accepts(glushkov(parse("a*", A)), ())
        assert not accepts(glushkov(parse("a", A)), ())

    def test_block_encoding_example(self):
        assert accepts(k_dfa(5), "010$011#001$010#100$001#010$100#")

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            accepts(glushkov(parse("a", A)), "b")

    def test_dfa_reads_one_slot(self, monkeypatch):
        # A DFA step reads its one table slot, not the state's k-slot row,
        # and answers as the row walk does, out of range included.
        d = z_dfa(5)
        cells = [(p, c) for p in range(-1, d.n_states + 1) for c in range(-1, len(d.alphabet) + 1)]
        want = [Nfa.successors(d, p, c) for p, c in cells]
        monkeypatch.setattr(TransitionTable, "_state_edges", None)
        assert [d.successors(p, c) for p, c in cells] == want
        assert accepts(d, ["a(0,2)", "a(2,2)", "a(2,1)"])
        assert not accepts(d, ["a(0,2)", "a(1,2)"])


class TestSerialization:
    def test_format_bit_exact(self):
        d = Dfa(AB, 2, 0, frozenset([1]),
                frozenset([(0, "a", 1), (1, "b", 0), (0, "b", 0)]))
        assert serialize(d) == (
            "automaton v1\n"
            "alphabet: a b\n"
            "states: 2\n"
            "initial: 0\n"
            "finals: 1\n"
            "trans: 0 a 1\n"
            "trans: 0 b 0\n"
            "trans: 1 b 0\n")

    def test_empty_finals_line(self):
        d = Dfa(A, 1, 0, frozenset(), frozenset())
        assert "finals:\n" in serialize(d)

    @pytest.mark.parametrize("count", [10 ** 15, 10 ** 20])
    def test_huge_state_count_rejected(self, count):
        # Above 2**31 - 1 the states cannot be numbered in an array('i').
        text = f"automaton v1\nalphabet: a\nstates: {count}\ninitial: 0\nfinals:\n"
        with pytest.raises(AutomatonFormatError, match="states"):
            parse_automaton(text)

    def test_huge_state_count_allocates_only_the_table(self):
        # Determinism is read off the triples, so the only allocation that
        # grows with ``states:`` is the Dfa table: 4 bytes per slot.
        n = 1_000_000
        text = f"automaton v1\nalphabet: a\nstates: {n}\ninitial: 0\nfinals:\n"
        tracemalloc.start()
        try:
            d = parse_automaton(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(d, Dfa) and d.n_states == n
        assert peak < 6 * n

    def test_state_count_above_budget_allocates_nothing(self):
        text = "automaton v1\nalphabet: a\nstates: 4000000\ninitial: 0\nfinals:\n"
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="4000000 states exceeds 10 states"):
                parse_automaton(text, max_states=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert parse_automaton(text.replace("4000000", "10"), max_states=10).n_states == 10

    def test_n1_subset_dfa_peak(self, n1_subset_text):
        # Each line's target goes into its slot as the line is read; no set
        # of triples is collected first.
        tracemalloc.start()
        try:
            d = parse_automaton(n1_subset_text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(d, Dfa) and serialize(d) == n1_subset_text
        assert peak < 32_000_000

    def test_deterministic_iff_no_shared_head(self):
        head = "automaton v1\nalphabet: a b\nstates: 2\ninitial: 0\nfinals: 1\n"
        d = parse_automaton(head + "trans: 0 a 1\ntrans: 0 b 1\ntrans: 1 a 1\n")
        nfa = parse_automaton(head + "trans: 0 a 1\ntrans: 0 a 0\n")
        assert isinstance(d, Dfa) and d.transitions == {(0, "a", 1), (0, "b", 1), (1, "a", 1)}
        assert type(nfa) is Nfa and nfa.successors(0, 0) == (0, 1)

    @pytest.mark.parametrize("body, message", [
        # A format error on any line comes before every range or symbol error.
        ("initial: 9\nfinals: 7\ntrans: 0 z 1\ntrans: 0 a\n", "bad transition line 'trans: 0 a'"),
        # Then the constructor's order: initial, finals, transitions.
        ("initial: 9\nfinals: 7\ntrans: 0 z 1\n", "initial state out of range"),
        ("initial: 0\nfinals: 7\ntrans: 0 z 1\n", "final state out of range"),
        # Of several bad triples, the first in the file is named.
        ("initial: 0\nfinals: 1\ntrans: 0 a 1\ntrans: 0 z 1\ntrans: 5 a 0\n",
         "transition symbol 'z' not in alphabet"),
        ("initial: 0\nfinals: 1\ntrans: 5 a 0\ntrans: 0 z 1\n",
         "transition endpoint out of range: (5, 'a', 0)"),
    ])
    def test_refusal_order(self, body, message):
        with pytest.raises(AutomatonFormatError) as exc:
            parse_automaton("automaton v1\nalphabet: a b\nstates: 2\n" + body)
        assert str(exc.value) == message

    def test_repeated_line_is_one_edge(self):
        text = serialize(random_dfa(random.Random(7), AB, 4))
        lines = text.splitlines(keepends=True)
        for i in range(5, len(lines)):
            d = parse_automaton("".join(lines[:i + 1] + lines[i:]))
            assert isinstance(d, Dfa) and serialize(d) == text

    def test_dfa_takes_a_repeated_triple(self):
        d = Dfa(AB, 2, 0, frozenset([1]), [(0, "a", 1), (0, "a", 1)])
        assert d.table == array("i", [1, -1, -1, -1])

    @given(st.integers(0, 10_000))
    def test_round_trip(self, seed):
        rng = random.Random(seed)
        a = random_nfa(rng, AB, rng.randint(1, 5))
        back = parse_automaton(serialize(a))
        assert back.alphabet == a.alphabet
        assert back.n_states == a.n_states
        assert back.initial == a.initial
        assert back.finals == a.finals
        assert back.transitions == a.transitions


def parse_outcome(parse_fn, text, max_states=budget.DEFAULT_MAX_STATES):
    """The automaton's class and serialisation, or the refusal's class and
    message."""
    try:
        a = parse_fn(text, max_states)
    except RexlabError as exc:
        return type(exc), str(exc)
    return type(a), serialize(a)


def _mutated_text(rng):
    """A serialised automaton with a few lines repeated, changed, added or
    moved."""
    sigma = rng.choice([A, AB, ABC])
    n = rng.randint(1, 5)
    drawn = random_dfa(rng, sigma, n) if rng.random() < 0.5 else random_nfa(rng, sigma, n)
    lines = serialize(drawn).splitlines()
    head, trans = lines[:5], lines[5:]
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(["repeat", "conflict", "range", "symbol", "malformed",
                           "initial", "finals", "states", "alphabet", "blank"])
        at = rng.randint(0, len(trans))
        p, q, s = rng.randrange(n), rng.randrange(n), rng.choice(sigma.names)
        if kind == "repeat" and trans:
            trans.insert(at, rng.choice(trans))
        elif kind == "conflict":
            trans.insert(at, f"trans: {p} {s} {q}")
            trans.insert(rng.randint(0, len(trans)), f"trans: {p} {s} {(q + 1) % n}")
        elif kind == "range":
            far = rng.choice([-1, n, n + 3])
            trans.insert(at, rng.choice([f"trans: {far} {s} {q}", f"trans: {p} {s} {far}"]))
        elif kind == "symbol":
            trans.insert(at, f"trans: {p} {rng.choice(['z', 'c', 'ab'])} {q}")
        elif kind == "malformed":
            trans.insert(at, rng.choice([f"trans: {p} {s}", f"trans: x {s} {q}",
                                         f"trans: {p} {s} {q} {q}", "trans:", "bogus",
                                         f"trans: {p} {s} 1.5", f"trans:{p} {s} {q}",
                                         f"  trans: {p} {s} {q}"]))
        elif kind == "initial":
            head[3] = rng.choice([f"initial: {n}", "initial: -1", "initial: x",
                                  "initial:", "init: 0", "initial: 0 1"])
        elif kind == "finals":
            head[4] = rng.choice([f"finals: {n}", "finals: -1", "finals: 0 x",
                                  "finals: 0 0", "final: 0"])
        elif kind == "states":
            head[2] = rng.choice(["states: 0", "states: -1", f"states: {n + 1}",
                                  f"states: {n - 1}", "states: 3000000000", "states: x"])
        elif kind == "alphabet":
            head[1] = rng.choice(["alphabet: a a", "alphabet: a b c", "alphabet:",
                                  "alphabet: b a"])
        elif kind == "blank":
            trans.insert(at, rng.choice(["", "   "]))
    if rng.random() < 0.2:
        rng.shuffle(trans)
    return "\n".join(head + trans) + "\n"


@st.composite
def automaton_texts(draw):
    """Headers and ``trans:`` lines drawn over small state counts, so that
    repeated, conflicting and out-of-range lines are common."""
    def pick(*values):
        return draw(st.sampled_from(values))

    head = ["automaton v1",
            pick("alphabet: a b", "alphabet: a", "alphabet: a b c", "alphabet: a a"),
            pick("states: 1", "states: 2", "states: 3", "states: 0", "states: -1",
                 "states: x", "states: 3000000000"),
            pick("initial: 0", "initial: 1", "initial: 3", "initial: -1", "initial: x",
                 "nitial: 0"),
            pick("finals:", "finals: 0", "finals: 1 2", "finals: 3", "finals: -1",
                 "finals: x")]
    edge = st.builds("trans: {} {} {}".format, st.integers(-1, 3),
                     st.sampled_from("abz"), st.integers(-1, 3))
    other = st.sampled_from(["trans: 0 a", "trans: 0 a 1 1", "trans: x a 0", "bogus", ""])
    body = draw(st.lists(st.one_of(edge, edge, edge, other), max_size=8))
    return "\n".join(head + body) + "\n"


class TestParseAgainstSlots:
    """``parse_automaton`` streams triples into the constructors;
    ``oracles.parse_automaton_by_slots`` is the slot-filling parser it
    replaced.  Both give the same automaton or the same refusal."""

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_mutations(self, seed):
        rng = random.Random(seed)
        kinds = Counter()
        for _ in range(1_200):
            text = _mutated_text(rng)
            max_states = rng.choice([budget.DEFAULT_MAX_STATES, 3])
            want = parse_outcome(parse_automaton_by_slots, text, max_states)
            assert parse_outcome(parse_automaton, text, max_states) == want, text
            kinds[want[0].__name__] += 1
        assert min(kinds[k] for k in ("Dfa", "Nfa", "AutomatonFormatError",
                                      "BudgetExceededError")) >= 20, kinds

    @settings(max_examples=300)
    @given(automaton_texts())
    def test_drawn_texts(self, text):
        want = parse_outcome(parse_automaton_by_slots, text)
        assert parse_outcome(parse_automaton, text) == want


@settings(max_examples=40)
@given(regexes("ab", max_leaves=5))
def test_conversion_chain_language_equality(r):
    """Every conversion preserves the language slice (the universal check)."""
    expected = regex_slice(r, "ab", 6)
    g = glushkov(r, AB)
    d = determinize(g)
    m = minimize(d)
    e = eliminate_states(m)
    assert slice_of(g, 6) == expected
    assert slice_of(d, 6) == expected
    assert slice_of(m, 6) == expected
    assert regex_slice(e, "ab", 6) == expected
