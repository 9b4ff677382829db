import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rexlab.analysis import (
    FINITE,
    INFINITE,
    _as_nfa,
    _trim,
    blowup_report,
    covers,
    enumerate_language,
    equal_upto,
    minimal_regex_size,
    sidekicks,
    starred_subexpressions,
    word_index,
)
from rexlab.automata import Nfa, determinize, eliminate_states, equivalent, glushkov, minimize
from rexlab.budget import DEFAULT_MAX_STATES, BudgetExceededError, CancelToken, active
from rexlab.rex import (
    EMPTY,
    EPSILON,
    Alphabet,
    Concat,
    Intersect,
    MarkedSymbol,
    Negate,
    Plus,
    RexlabError,
    Star,
    Sym,
    Union,
    has_extended,
    parse,
    size,
    subexpressions,
)
from rexlab.unambiguous import complement_unambiguous, intersect_sores
from rexlab.witnesses import k_dfa, m_alphabet, m_sore_pair, rho_encode, z_alphabet, z_dfa

from corpus import random_dfa, random_extended_regex, random_nfa, random_plain_regex
from conftest import CountingToken, extended_regexes, regexes
from oracles import (covers_by_factor_product, extended_to_nfa_by_triples, length_lex_sorted,
                     mark, path_words, regex_slice, word_index_by_toposort)

A = Alphabet.of("a")
AB = Alphabet.of("a", "b")
ABC = Alphabet.of("a", "b", "c")


def without(r, names):
    """``r`` with every symbol in ``names`` replaced by the empty language."""
    if isinstance(r, Sym):
        return EMPTY if r.sym in names else r
    if isinstance(r, (Star, Plus)):
        return type(r)(without(r.inner, names))
    if isinstance(r, (Concat, Union)):
        return type(r)(without(r.left, names), without(r.right, names))
    return r


class TestEnumerate:
    def test_a_star(self):
        o = enumerate_language(parse("a*", A), 3)
        assert o.words == ((), ("a",), ("a", "a"), ("a", "a", "a"))

    def test_block_language_matches_walk_encodings(self):
        got = {"".join(w) for w in enumerate_language(k_dfa(2), 8).words}
        want = {rho_encode(w) for w in path_words(2, 2)}
        assert got == want

    def test_empty(self):
        assert enumerate_language(EMPTY, 5, A).words == ()

    def test_budget_on_max_len(self):
        with pytest.raises(BudgetExceededError):
            enumerate_language(parse("a*", A), 40)

    def test_max_len_bound_edge(self):
        assert len(enumerate_language(parse("a*", A), 16).words) == 17
        with pytest.raises(BudgetExceededError,
                           match="^max_len 17 above the configured bound 16$"):
            enumerate_language(parse("a*", A), 17)

    def test_budget_on_words(self):
        with pytest.raises(BudgetExceededError):
            enumerate_language(parse("(a|b)*", AB), 10, max_words=100)

    def test_negative_max_len_rejected(self):
        # A negative bound admits no word, not even the empty one.
        with pytest.raises(ValueError, match="max_len -1 is negative"):
            enumerate_language(parse("a*", A), -1, A)
        assert enumerate_language(parse("a*", A), 0, A).words == ((),)

    def test_sorted_length_then_alphabet_order(self):
        sigma = Alphabet.of("b", "a")  # declared order b < a
        o = enumerate_language(parse("a|b|aa|ab", sigma), 2, sigma)
        assert o.words == (("b",), ("a",), ("a", "b"), ("a", "a"))

    @settings(max_examples=200)
    @given(st.lists(st.sampled_from(["a", "b", "c", "ab", "x1", "zz"]),
                    min_size=1, max_size=4, unique=True),
           st.sampled_from(["plain", "extended", "nfa", "dfa"]),
           st.integers(0, 7), st.integers(0, 100_000))
    def test_bfs_emits_length_lex_order(self, names, kind, max_len, seed):
        # Alphabets declared out of character order, multi-character names,
        # sparse NFAs whose dead ends are pruned, and initial states that
        # are final: the words must come out as the length-lex sort gives.
        rng = random.Random(seed)
        sigma = Alphabet(tuple(names))
        if kind == "plain":
            source = random_plain_regex(rng, names, rng.randint(1, 12))
        elif kind == "extended":
            source = random_extended_regex(rng, names, rng.randint(1, 10))
        elif kind == "nfa":
            source = random_nfa(rng, sigma, rng.randint(1, 6), rng.choice([0.05, 0.2, 0.5]))
        else:
            source = random_dfa(rng, sigma, rng.randint(1, 6))
        words = enumerate_language(source, max_len, sigma).words
        assert words == length_lex_sorted(words, sigma)
        assert len(set(words)) == len(words)

    @settings(max_examples=40)
    @given(st.integers(0, 100_000))
    def test_matches_structural_slice(self, seed):
        rng = random.Random(seed)
        r = random_plain_regex(rng, "ab", rng.randint(1, 10))
        got = set(enumerate_language(r, 5, AB).words)
        assert got == regex_slice(r, "ab", 5)


class TestEqualUpto:
    def test_equal_orders(self):
        assert equal_upto(parse("a*a", A), parse("aa*", A), 6).equal

    def test_divergent_word(self):
        res = equal_upto(parse("a", A), parse("aa", A), 6)
        assert not res.equal and res.divergent == ("a",)

    def test_negative_max_len_rejected(self):
        # No slice exists to compare, so neither "equal" nor a divergent word.
        with pytest.raises(ValueError, match="max_len -1 is negative"):
            equal_upto(parse("a*", A), EPSILON, -1, A)

    def test_complement_partition(self):
        r = parse("ab*", AB)
        s = complement_unambiguous(r, AB)
        ro = regex_slice(r, "ab", 6)
        so = regex_slice(s, "ab", 6)
        from oracles import words_upto
        assert ro | so == set(words_upto("ab", 6))
        assert not (ro & so)


class TestCovers:
    def test_factor_present(self):
        assert covers(parse("ab*", AB), ("b", "b"))

    def test_factor_absent(self):
        assert not covers(parse("ab*", AB), ("b", "a"))

    def test_empty_factor_iff_nonempty_language(self):
        assert covers(parse("ab*", AB), ())
        assert not covers(EMPTY, (), A)

    @settings(max_examples=30)
    @given(st.integers(0, 100_000))
    def test_matches_slice(self, seed):
        rng = random.Random(seed)
        r = random_plain_regex(rng, "ab", rng.randint(1, 8))
        w = tuple(rng.choice("ab") for _ in range(rng.randint(1, 2)))
        words = regex_slice(r, "ab", 6)
        seen = any(w == u[i:i + len(w)] for u in words for i in range(len(u)))
        got = covers(r, w, AB)
        if seen:
            assert got
        # absence in the slice is inconclusive for long witnesses

    # The first example fails if the stepping keeps states that reach no
    # final state (the ``a`` of the empty intersection), the second if it
    # starts from the initial state alone rather than every live state.
    @settings(max_examples=300)
    @example(parse("(ab&ac)|b", ABC), ABC, ("a",))
    @example(parse("ab", AB), AB, ("b",))
    @given(st.one_of(regexes("ab", max_leaves=8), regexes("abc", max_leaves=8),
                     extended_regexes("ab", max_leaves=7), extended_regexes("abc", max_leaves=7),
                     regexes("", max_leaves=4), st.just(EMPTY)),
           st.sampled_from([AB, ABC, None]),
           st.lists(st.sampled_from("abc"), max_size=4).map(tuple))
    def test_matches_factor_product(self, r, sigma, w):
        got, want = _answers([lambda: covers(r, w, sigma),
                              lambda: covers_by_factor_product(r, w, sigma)])
        assert got == want

    @pytest.mark.parametrize("n", [3, 4])
    def test_stepping_polls_once_per_state(self, n):
        # The word's first symbol is stepped from every live state, so the
        # polls beyond those of the empty word are at least that many.
        sigma = m_alphabet(n)
        r = intersect_sores(m_sore_pair(n), sigma)
        _, live = _trim(_as_nfa(r, sigma))
        polls = []
        for w in ((), ("rt(0)", "a(0,0*)")):
            token = CountingToken()
            with active(token):
                assert covers(r, w, sigma)
            polls.append(token.polls)
        assert polls[1] - polls[0] >= len(live) > 0


class TestWordIndex:
    def test_starred_word_is_infinite(self):
        assert word_index(parse("(ab)*", AB), ("a", "b")) == INFINITE

    def test_double_occurrence(self):
        assert word_index(parse("abab", AB), ("a", "b")) == FINITE(2)

    def test_pumpable_run(self):
        assert word_index(parse("a*b", AB), ("a", "a")) == INFINITE

    def test_self_overlap(self):
        assert word_index(parse("aaa", A), ("a", "a")) == FINITE(1)
        assert word_index(parse("aaaa", A), ("a", "a")) == FINITE(2)

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            word_index(parse("a", A), ())

    def test_foreign_symbol_rejected_like_covers(self):
        with pytest.raises(ValueError) as index_error:
            word_index(parse("a*", AB), ("c",), AB)
        with pytest.raises(ValueError) as covers_error:
            covers(parse("a*", AB), ("c",), AB)
        assert str(index_error.value) == str(covers_error.value)

    @settings(max_examples=60)
    @given(st.integers(0, 100_000))
    def test_consistent_with_covers(self, seed):
        rng = random.Random(seed)
        r = random_plain_regex(rng, "ab", rng.randint(1, 10))
        w = tuple(rng.choice("ab") for _ in range(rng.randint(1, 3)))
        res = word_index(r, w, AB)
        if res.finite:
            if res.value > 0:
                assert covers(r, w * res.value, AB)
            assert not covers(r, w * (res.value + 1), AB)
        else:
            for k in (1, 2, 3 * size(r)):
                assert covers(r, w * k, AB)

    @settings(max_examples=60)
    @given(st.integers(0, 100_000))
    def test_index_bound(self, seed):
        rng = random.Random(seed)
        r = random_plain_regex(rng, "ab", rng.randint(1, 14))
        if size(r) > 14:
            return
        w = tuple(rng.choice("ab") for _ in range(rng.randint(1, 3)))
        res = word_index(r, w, AB)
        if res.finite and res.value > 0:
            assert res.value < 2 * size(r)


class _CancelAfter(CountingToken):
    """A counting token that cancels once it has been polled ``limit`` times."""

    def __init__(self, limit):
        super().__init__()
        self.limit = limit

    def check(self):
        if self.polls == self.limit:
            self.cancel()
        super().check()


class TestWordIndexAgainstToposort:
    """The Kahn pass over coded nodes against the tuple graph and graphlib."""

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_corpus(self, seed):
        rng = random.Random(seed)
        kinds = {"infinite": 0, "zero": 0, "positive": 0, "error": 0, "empty": 0}
        for _ in range(550):
            syms = rng.choice(["ab", "abc"])
            grow = rng.choice([random_plain_regex, random_extended_regex])
            r = grow(rng, syms, rng.randint(1, 12))
            sigma = rng.choice([AB, ABC, None])
            # A word over "abc" is sometimes foreign to the alphabet.
            w = tuple(rng.choice(syms if rng.random() < 0.9 else "abc")
                      for _ in range(rng.randint(1, 3)))
            got, want = _answers([lambda: word_index(r, w, sigma),
                                  lambda: word_index_by_toposort(r, w, sigma)])
            assert got == want, (r, w, sigma)
            if isinstance(got, tuple):
                kinds["error"] += 1
            elif not got.finite:
                kinds["infinite"] += 1
            else:
                kinds["positive" if got.value else "zero"] += 1
                if not covers(r, (), sigma or ABC):
                    kinds["empty"] += 1
        assert min(kinds.values()) >= 5, kinds

    def test_unreachable_cycle_does_not_pump(self):
        # {a}, plus the cycle 2 -a-> 3 -b-> 2 through a final state that no
        # walk from the initial state enters.
        nfa = Nfa(AB, 4, 0, frozenset({1, 2}), [(0, "a", 1), (2, "a", 3), (3, "b", 2)])
        assert word_index(nfa, ("a", "b"), AB) == FINITE(0)
        assert word_index_by_toposort(nfa, ("a", "b"), AB) == FINITE(0)

    @settings(max_examples=120)
    @given(st.one_of(regexes("abc", max_leaves=8), extended_regexes("abc", max_leaves=7)),
           st.sampled_from([AB, ABC, None]),
           st.lists(st.sampled_from("abc"), min_size=1, max_size=3).map(tuple))
    def test_matches_toposort(self, r, sigma, w):
        got, want = _answers([lambda: word_index(r, w, sigma),
                              lambda: word_index_by_toposort(r, w, sigma)])
        assert got == want

    def test_polls_after_the_compile_step(self):
        r = Sym("a")
        for _ in range(9_999):
            r = Concat(Sym("a"), r)  # a(a(...a)) of depth 10,000
        counter = CountingToken()
        with active(counter):
            _as_nfa(r, AB)
        with active(_CancelAfter(counter.polls)), pytest.raises(BudgetExceededError):
            word_index(r, ("a",), AB)
        # One poll per node in each walk: the predecessor lists, the two
        # reachability walks, the product walk and Kahn's pass each meet all
        # 10,001 states (the word has one position).
        total = CountingToken()
        with active(total):
            assert word_index(r, ("a",), AB) == FINITE(10_000)
        assert total.polls == counter.polls + 5 * 10_001


class TestSidekicks:
    def test_both_occur(self):
        sigma = z_alphabet(2)
        assert sidekicks(parse("'a(0,1)''a(1,0)'", sigma), sigma) == {0, 1}

    def test_no_common_index(self):
        sigma = z_alphabet(3)
        assert sidekicks(parse("'a(0,1)'|'a(2,2)'", sigma), sigma) == frozenset()

    def test_star_skips_empty_word(self):
        sigma = z_alphabet(1)
        assert sidekicks(parse("'a(0,0)'*", sigma), sigma) == {0}

    def test_wrong_alphabet(self):
        with pytest.raises(ValueError):
            sidekicks(parse("a", A), A)

    @settings(max_examples=80)
    @given(st.integers(0, 100_000))
    def test_matches_avoiding_slice(self, seed):
        # v is a sidekick iff no non-empty word avoiding v is in the language.
        # A shortest such word visits no state twice, so words up to the
        # Glushkov state count decide it.
        rng = random.Random(seed)
        n = rng.choice([2, 3])
        sigma = z_alphabet(n)
        r = random_plain_regex(rng, sigma.names, rng.randint(1, 12))
        bound = glushkov(r, sigma).n_states
        got = sidekicks(r, sigma)
        for v in range(n):
            touching = {f"a({i},{j})" for i in range(n) for j in range(n) if v in (i, j)}
            kept = [name for name in sigma.names if name not in touching]
            avoiding = regex_slice(without(r, touching), kept, bound)
            assert (v in got) == (avoiding <= {()})


def _by_combinators(source, alphabet, max_states=DEFAULT_MAX_STATES):
    """The compile route the oracles took before Glushkov: combinators only."""
    if isinstance(source, Nfa):
        return source
    return extended_to_nfa_by_triples(source, alphabet, max_states)


def _answers(calls):
    """Each call's result, or the type and text of the error it raised."""
    out = []
    for call in calls:
        try:
            out.append(call())
        except (RexlabError, ValueError) as exc:
            out.append((type(exc), str(exc)))
    return out


def assert_routes_agree(*calls, marked_plain=False):
    """Both routes give the same answers.  Glushkov refuses a marked plain
    expression before it reads any symbol against the alphabet, so there its
    message replaces the combinators' symbol refusal."""
    got = _answers(calls)
    with mock.patch("rexlab.analysis._as_nfa", _by_combinators):
        want = _answers(calls)
    if marked_plain:
        want = [(ValueError, "expression is already marked")
                if isinstance(w, tuple) and w and w[0] is ValueError
                and w[1].endswith(" not in the declared alphabet") else w for w in want]
    assert got == want


class TestCompileRoutes:
    """A plain expression compiles by glushkov, which must not change any
    answer, error or message of the oracles."""

    @settings(max_examples=150)
    @given(extended_regexes("abc", max_leaves=7), st.sampled_from([AB, ABC, None]),
           st.lists(st.sampled_from("abc"), max_size=3).map(tuple))
    def test_regex_oracles(self, r, sigma, word):
        assert_routes_agree(
            lambda: enumerate_language(r, 4, sigma).words,
            lambda: equal_upto(r, Star(Sym("a")), 4, sigma),
            lambda: covers(r, word, sigma),
            lambda: word_index(r, word, sigma),
            marked_plain=not has_extended(r) and any(
                isinstance(getattr(node, "sym", None), MarkedSymbol)
                for node in subexpressions(r)))

    @settings(max_examples=80)
    @given(st.integers(0, 100_000), st.booleans(), st.booleans())
    def test_sidekicks(self, seed, declared, extended):
        rng = random.Random(seed)
        sigma = z_alphabet(2)
        grow = random_extended_regex if extended else random_plain_regex
        r = grow(rng, sigma.names, rng.randint(1, 10))
        assert_routes_agree(lambda: sidekicks(r, sigma if declared else None))

    @pytest.mark.parametrize("text", ["%e", "%0", "%0*", "(%e|%0)+"])
    def test_symbol_free(self, text):
        r = parse(text, A)
        assert_routes_agree(
            lambda: enumerate_language(r, 3).words,
            lambda: enumerate_language(r, 3, AB).words,
            lambda: covers(r, ()),
            lambda: word_index(r, ("a",)),
            lambda: sidekicks(r))


class TestCompileRefusals:
    """The messages for marked and undeclared symbols as they reach the
    oracles through the compile step: glushkov's for a plain expression, the
    combinators' for an extended one."""

    ALREADY_MARKED = "expression is already marked"
    MARKED = "symbol MarkedSymbol(base='a', occurrence=1) not in the declared alphabet"
    UNDECLARED = "symbol 'c' not in the declared alphabet"

    @pytest.mark.parametrize("wrap, sigma, message", [
        (lambda m: m, AB, ALREADY_MARKED),
        (lambda m: m, None, ALREADY_MARKED),
        (lambda m: Intersect(m, Star(Sym("a"))), AB, MARKED),
        (lambda m: Intersect(m, Star(Sym("a"))), None, MARKED),
        (Negate, AB, MARKED),
        (Negate, None, "negation needs an explicit alphabet"),
    ], ids=["plain", "plain-derived", "intersect", "intersect-derived", "negate",
            "negate-derived"])
    def test_marked_symbols(self, wrap, sigma, message):
        r = wrap(mark(parse("a|b*", AB)).root)
        for call in (lambda: _as_nfa(r, sigma), lambda: enumerate_language(r, 2, sigma)):
            with pytest.raises(ValueError) as info:
                call()
            assert type(info.value) is ValueError and str(info.value) == message

    @pytest.mark.parametrize("text", ["ac", "a*|c", "a&c", "!c"])
    def test_undeclared_symbols(self, text):
        r = parse(text, ABC)
        for call in (lambda: _as_nfa(r, AB), lambda: enumerate_language(r, 2, AB)):
            with pytest.raises(ValueError) as info:
                call()
            assert type(info.value) is ValueError and str(info.value) == self.UNDECLARED


class TestStarredSubexpressions:
    def test_nested(self):
        r = parse("(a*b)*", AB)
        stars = starred_subexpressions(r)
        assert len(stars) == 2
        assert stars[0] == r  # outermost first
        assert stars[1] == Star(parse("a", AB))

    def test_none(self):
        assert starred_subexpressions(parse("ab", AB)) == []

    @pytest.mark.parametrize("n", [2, 3])
    def test_walk_regexes_are_normal(self, n):
        # every starred subexpression of an eliminated walk acceptor keeps
        # some vertex in all its non-empty words
        sigma = z_alphabet(n)
        r = eliminate_states(z_dfa(n))
        stars = starred_subexpressions(r)
        assert stars
        for s in stars:
            assert sidekicks(s, sigma)


class TestMinimalRegexSize:
    def test_single_word(self):
        target = minimize(determinize(glushkov(parse("a", A), A)))
        res = minimal_regex_size(target, 3)
        assert res.minimal_size == 1
        assert equivalent(glushkov(res.witness, A), target)

    def test_block_language_needs_size_four(self):
        res = minimal_regex_size(k_dfa(2), 3)
        assert res.minimal_size is None
        assert res.examined > 0

    def test_walk_language_needs_size_two(self):
        res = minimal_regex_size(z_dfa(2), 1)
        assert res.minimal_size is None

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            minimal_regex_size(z_dfa(2), 12)

    def test_search_bound_edge(self):
        target = minimize(determinize(glushkov(parse("a", A), A)))
        with pytest.raises(BudgetExceededError,
                           match="^max_size 10 above the search budget 9$"):
            minimal_regex_size(target, 10)
        assert minimal_regex_size(target, 9).minimal_size == 1

    @settings(max_examples=15)
    @given(st.integers(0, 100_000))
    def test_monotone_and_sound(self, seed):
        rng = random.Random(seed)
        d = minimize(random_dfa(rng, AB, rng.randint(1, 3)))
        res = minimal_regex_size(d, 4)
        if res.minimal_size is not None:
            assert equivalent(glushkov(res.witness, AB), d)
            again = minimal_regex_size(d, min(res.minimal_size + 1, 5))
            assert again.minimal_size == res.minimal_size
            # nothing smaller exists: search with a tighter bound fails
            if res.minimal_size > 1:
                tighter = minimal_regex_size(d, res.minimal_size - 1)
                assert tighter.minimal_size is None


class TestCanonicalPruning:
    @settings(max_examples=50)
    @given(st.integers(0, 100_000))
    def test_pruning_is_language_preserving(self, seed):
        # every pruned candidate has an equal-language candidate of the same
        # or smaller size that the search does enumerate
        from rexlab.analysis import _candidates
        from rexlab.rex import EPSILON, Sym
        rng = random.Random(seed)
        r = random_plain_regex(rng, "ab", rng.randint(1, 5), allow_plus=False)
        s = size(r)
        if s > 5:
            return
        lang = regex_slice(r, "ab", 5)
        atoms = [EMPTY, EPSILON, Sym("a"), Sym("b")]
        memo = {}
        enumerated = [c for k in range(1, s + 1) for c in _candidates(k, atoms, memo)]
        assert any(regex_slice(c, "ab", 5) == lang for c in enumerated)


class TestBlowupReport:
    def test_csv_shape(self):
        rep = blowup_report("m-sore-pair", [1, 2], "intersect-sore")
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "family,n,input_size,output_size,wall_ms"
        assert len(lines) == 3
        assert lines[1].startswith("m-sore-pair,1,")

    def test_budget_rows_marked(self):
        rep = blowup_report("unamb-family", [1], "intersect-product",
                            max_states=10)
        assert rep.rows[0].output_size is None
        assert ",NA," in rep.to_csv()

    def test_rows_pinned(self):
        # (n, input_size, output_size) per accepted (pipeline, family) pair;
        # 70,000 states admit the 63,993-subset n=1 complement and refuse n=2.
        want = {
            ("complement-naive", "complement-witness"):
                ("doubly exponential", [(1, 280, 108), (2, 384, None)]),
            ("complement-unambiguous", "unamb-family"):
                ("polynomial", [(1, 246, 8386), (2, 746, 21806)]),
            ("intersect-product", "m-sore-pair"):
                ("doubly exponential", [(1, 20, 14), (2, 56, 190)]),
            ("intersect-product", "unamb-family"):
                ("doubly exponential", [(1, 246, 418), (2, 746, 25074)]),
            ("intersect-sore", "m-sore-pair"):
                ("singly exponential", [(1, 20, 14), (2, 56, 190)]),
        }
        got = {}
        for pipeline, family in want:
            rep = blowup_report(family, [1, 2], pipeline, max_states=70_000)
            assert (rep.family, rep.pipeline) == (family, pipeline)
            got[pipeline, family] = (rep.bound_label, [
                (row.n, row.input_size, row.output_size) for row in rep.rows])
        assert got == want

    def test_sore_pair_alphabet_built_once_per_row(self, monkeypatch):
        # m_alphabet(n) has 2n^2 + 2n names; at n=200 one build is about a
        # fifth of the bundle.  The pair, the bundle's alphabet_size and the
        # pipeline share one build.
        from rexlab import witnesses
        calls = []

        def counting(n):
            calls.append(n)
            return m_alphabet(n)

        monkeypatch.setattr(witnesses, "m_alphabet", counting)
        assert witnesses.build_bundle("m-sore-pair", 2).alphabet_size == 12
        assert calls == [2]
        blowup_report("m-sore-pair", [1, 3], "intersect-sore")
        assert calls == [2, 1, 3]

    @pytest.mark.parametrize("ns", [[1, 3, 2], [2, 2], [1, 2, 0, 5]])
    def test_values_out_of_order_refused(self, ns):
        with pytest.raises(ValueError, match="parameter values must be strictly increasing"):
            blowup_report("m-sore-pair", ns, "intersect-sore")

    def test_values_read_as_the_rows_are_reached(self):
        # A cancelled run stops at its first row and draws no further value,
        # so ``bench --n-range 1..10**12`` meets its deadline.
        drawn = []

        def values():
            for n in range(1, 1000):
                drawn.append(n)
                yield n

        token = CancelToken()
        token.cancel()
        with active(token), pytest.raises(BudgetExceededError):
            blowup_report("unamb-family", values(), "complement-unambiguous")
        assert drawn == [1]

    def test_invalid_combination(self):
        with pytest.raises(ValueError):
            blowup_report("m-sore-pair", [1], "complement-naive")
        with pytest.raises(ValueError):
            blowup_report("unamb-family", [1], "nonsense")

    def test_sore_pipeline_tame_trend(self):
        # measured outputs 14, 190, 1294, 6954 against inputs 20, 56, 108,
        # 176: clearly polynomial (within in^2), nowhere near the explosive
        # product pipelines
        rep = blowup_report("m-sore-pair", [1, 2, 3, 4], "intersect-sore")
        for row in rep.rows:
            assert row.output_size is not None
            assert row.output_size <= row.input_size ** 2

    def test_product_pipeline_explodes_on_the_family(self):
        rep = blowup_report("unamb-family", [1, 2], "intersect-product",
                            max_states=500_000, max_output=2_000_000)
        first, second = rep.rows
        assert first.output_size is not None
        # the second row either dwarfs the input growth or blows the budget
        if second.output_size is not None:
            in_ratio = second.input_size / first.input_size
            assert second.output_size / first.output_size > in_ratio ** 2
