import gc
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rexlab import budget
from rexlab.automata import (
    complement_dfa,
    determinize,
    equivalent,
    glushkov,
    minimize,
    product,
    serialize,
)
from rexlab.budget import BudgetExceededError, CancelToken
from rexlab.rex import (
    EMPTY,
    EPSILON,
    Alphabet,
    Concat,
    MarkedSymbol,
    Regex,
    Star,
    Sym,
    Union,
    concat_all,
    format_regex,
    parse,
    size,
    symbols_of,
)
from rexlab.unambiguous import (
    LocalProfile,
    UnambiguityReport,
    NotOneUnambiguousError,
    NotSoreError,
    complement_unambiguous,
    init_expr,
    intersect_sores,
    is_one_unambiguous,
    is_sore,
    last_marked,
    local_profile,
    nfirst,
    nfollow,
    prefix_to,
    profile_intersection,
    profile_to_dfa,
)

from rexlab.witnesses import SIGMA_L, unamb_family

from corpus import (
    balanced_sore,
    one_unambiguous_corpus,
    random_extended_regex,
    random_plain_regex,
    random_sore,
)
from oracles import (
    complement_by_marking,
    init_expr_by_marking,
    last_marked_by_marking,
    local_profile_by_marking,
    mark,
    nfa_slice,
    nfirst_by_marking,
    nfollow_by_marking,
    prefix_to_by_marking,
    regex_slice,
    unambiguity_by_marking,
    unambiguity_violation,
)

A = Alphabet.of("a")
AB = Alphabet.of("a", "b")
ABC = Alphabet.of("a", "b", "c")


def ms(base, occ):
    return MarkedSymbol(base, occ)


class TestOneUnambiguous:
    def test_star_then_symbol_is_ambiguous(self):
        report = is_one_unambiguous(parse("a*a", A))
        assert not report.is_one_unambiguous
        u, x, y = report.witness
        assert u == ()
        assert {x, y} == {ms("a", 1), ms("a", 2)}

    def test_symbol_then_star_is_unambiguous(self):
        assert is_one_unambiguous(parse("aa*", A)).is_one_unambiguous

    def test_witness_extends_to_marked_words(self):
        report = is_one_unambiguous(parse("(a|b)*a", AB))
        assert not report.is_one_unambiguous
        u, x, y = report.witness
        m = mark(parse("(a|b)*a", AB))
        words = regex_slice(m.root, m.positions, 2 * len(m.positions) + 1)
        prefixes = {w[:i] for w in words for i in range(len(w) + 1)}
        assert u + (x,) in prefixes and u + (y,) in prefixes
        assert x != y and x.base == y.base

    @settings(max_examples=40)
    @given(st.integers(0, 100_000))
    def test_agrees_with_definition_search(self, seed):
        rng = random.Random(seed)
        r = random_plain_regex(rng, "ab", rng.randint(1, 8))
        m = mark(r)
        if len(m.positions) > 5:
            return  # marked slices over many positions get too large
        bound = min(2 * len(m.positions) + 1, 7)
        words = regex_slice(m.root, m.positions, bound)
        found = unambiguity_violation(words)
        report = is_one_unambiguous(r)
        if report.is_one_unambiguous:
            # no slice, however long, may exhibit a violation
            assert found is None
        else:
            _, x, y = report.witness
            assert x != y and x.base == y.base
            if 2 * len(m.positions) + 1 <= bound:
                # slice long enough to be conclusive: the fork must show
                assert found is not None


class TestIsSore:
    def test_examples(self):
        assert is_sore(parse("(a|b)+c", ABC))
        assert not is_sore(parse("a*(a|b)+", AB))
        assert is_sore(EPSILON)

    def test_extended_is_not(self):
        assert not is_sore(parse("a&b", AB))


class TestFirstFollowLast:
    def test_nfirst(self):
        assert nfirst(parse("aa*", AB), AB) == {"b"}
        assert nfirst(parse("(a|b)c", ABC), ABC) == {"c"}
        assert nfirst(EPSILON, A) == {"a"}

    def test_nfirst_requires_unambiguous(self):
        with pytest.raises(NotOneUnambiguousError):
            nfirst(parse("a*a", AB), AB)

    def test_nfollow(self):
        assert nfollow(parse("aa*", AB), ms("a", 2), AB) == {"b"}
        assert nfollow(parse("(a|b)c", ABC), ms("a", 1), ABC) == {"a", "b"}
        assert nfollow(parse("a", A), ms("a", 1), A) == {"a"}

    def test_nfollow_unknown_position(self):
        with pytest.raises(ValueError):
            nfollow(parse("a", A), ms("a", 7), A)

    def test_last_marked(self):
        assert last_marked(parse("aa*", A)) == {ms("a", 1), ms("a", 2)}
        assert last_marked(parse("(a|b)c", ABC)) == {ms("c", 3)}
        assert last_marked(EPSILON) == frozenset()


class TestInitExpr:
    def test_without_epsilon(self):
        got = init_expr(parse("aa*", AB), AB)
        assert format_regex(got) == "%e|b(a|b)*"

    def test_with_epsilon(self):
        got = init_expr(parse("a*", AB), AB)
        assert format_regex(got) == "b(a|b)*"

    def test_empty_nfirst_collapses(self):
        # Everything can start a word, so the bad-first piece is empty.
        assert init_expr(parse("(a|b)*", AB), AB) == EMPTY
        got = init_expr(parse("(a|b)(a|b)*", AB), AB)
        assert got == Union(EPSILON, EMPTY)


class TestPrefixTo:
    def test_first_occurrence(self):
        assert prefix_to(parse("aa*", A), ms("a", 1)) == Sym("a")

    def test_second_occurrence(self):
        # prefixes ending at the starred occurrence need at least two symbols
        got = prefix_to(parse("aa*", A), ms("a", 2))
        assert format_regex(got) == "a(a*a)"
        assert regex_slice(got, "a", 5) == {tuple("a" * k) for k in range(2, 6)}

    def test_whole_word(self):
        got = prefix_to(parse("(a|b)c", ABC), ms("c", 3))
        assert got == parse("(a|b)c", ABC)

    @settings(max_examples=40)
    @given(st.integers(0, 100_000))
    def test_marked_prefix_language(self, seed):
        # prefix_to must equal the prefixes of marked words that end at the
        # chosen occurrence, unmarked: exactly the position automaton's paths
        # into that occurrence's state.
        from rexlab.automata import Nfa
        rng = random.Random(seed)
        r = random_plain_regex(rng, "ab", rng.randint(1, 8), allow_empty=False)
        m = mark(r)
        if not m.positions:
            return
        x = rng.choice(m.positions)
        g = glushkov(r, AB)
        to_x = Nfa(g.alphabet, g.n_states, g.initial,
                   frozenset([x.occurrence]), g.transitions)
        got = regex_slice(prefix_to(r, x), "ab", 6)
        assert got == nfa_slice(to_x, 6)


class TestComplementUnambiguous:
    def test_shape_for_a_aplus(self):
        s = complement_unambiguous(parse("aa*", AB), AB)
        assert format_regex(s) == "%e|b(a|b)*|a(b(a|b)*)|a(a*a)(b(a|b)*)"
        lhs = glushkov(s, AB)
        rhs = complement_dfa(minimize(determinize(glushkov(parse("aa*", AB), AB))))
        assert equivalent(lhs, rhs)

    def test_empty_language(self):
        s = complement_unambiguous(EMPTY, AB)
        assert format_regex(s) == "%e|(a|b)(a|b)*"

    def test_rejects_ambiguous(self):
        with pytest.raises(NotOneUnambiguousError):
            complement_unambiguous(parse("a*a", AB), AB)

    def test_plain_output(self):
        from rexlab.rex import has_extended
        s = complement_unambiguous(parse("(ab)*", AB), AB)
        assert not has_extended(s)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_paused_then_restored(self, enabled):
        # The collector is off while the call runs, and afterwards as it was
        # before, whether the call returns, refuses or is cancelled.
        r = parse("a(ba)*", AB)
        want = format_regex(complement_by_marking(r, AB))

        class Probe(CancelToken):
            def check(self):
                seen.append(gc.isenabled())
                super().check()

        seen = []
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with budget.active(Probe()):
                got = complement_unambiguous(r, AB)
            assert seen and not any(seen)
            assert format_regex(got) == want
            assert gc.isenabled() == enabled
            with pytest.raises(NotOneUnambiguousError):
                complement_unambiguous(parse("a*a", AB), AB)
            assert gc.isenabled() == enabled
            token = Probe()
            token.cancel()
            with budget.active(token), pytest.raises(BudgetExceededError, match="cancelled"):
                complement_unambiguous(r, AB)
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_language_is_complement(self):
        for r in one_unambiguous_corpus(4242, 60, 20, "abc"):
            s = complement_unambiguous(r, ABC)
            rhs = complement_dfa(minimize(determinize(glushkov(r, ABC))))
            assert equivalent(glushkov(s, ABC), rhs), format_regex(r)


class TestLocalProfile:
    def test_ab_star(self):
        lp = local_profile(parse("ab*", AB))
        assert lp == LocalProfile(False, frozenset("a"), frozenset("ab"),
                                  frozenset({("a", "b"), ("b", "b")}))

    def test_union_plus(self):
        lp = local_profile(parse("(a|b)+c", ABC))
        assert not lp.nullable
        assert lp.first == {"a", "b"}
        assert lp.last == {"c"}
        assert lp.follow == {("a", "a"), ("a", "b"), ("a", "c"),
                             ("b", "a"), ("b", "b"), ("b", "c")}

    def test_epsilon(self):
        lp = local_profile(EPSILON)
        assert lp == LocalProfile(True, frozenset(), frozenset(), frozenset())

    def test_rejects_non_sore(self):
        with pytest.raises(NotSoreError):
            local_profile(parse("aa", A))

    @settings(max_examples=40)
    @given(st.integers(0, 100_000))
    def test_local_language_equals_expression(self, seed):
        # For single-occurrence expressions the profile's local language is
        # exactly the expression's language.
        rng = random.Random(seed)
        r = random_sore(rng, "abc")
        lp = local_profile(r)
        words = regex_slice(r, "abc", 4)
        from oracles import words_upto
        for w in words_upto("abc", 4):
            if w:
                in_local = (w[0] in lp.first and w[-1] in lp.last
                            and all(p in lp.follow for p in zip(w, w[1:])))
            else:
                in_local = lp.nullable
            assert in_local == (w in words)


class TestIntersectSores:
    def test_pairwise_example(self):
        got = intersect_sores([parse("ab*", ABC), parse("a(b|c)*", ABC)], ABC)
        assert equivalent(glushkov(got, ABC), glushkov(parse("ab*", ABC), ABC))

    def test_singleton_identity(self):
        r = parse("(a|b)+c", ABC)
        got = intersect_sores([r], ABC)
        assert equivalent(glushkov(got, ABC), glushkov(r, ABC))

    def test_rejects_non_sore(self):
        with pytest.raises(NotSoreError) as err:
            intersect_sores([parse("aa", AB)], AB)
        assert "aa" in str(err.value)

    def test_incompatible_nullability_and_dead_first(self):
        # one requires a start with a, the other with b: only eps could
        # survive, and it does exactly when both sides allow it
        assert intersect_sores([parse("ab*", AB), parse("ba*", AB)], AB) == EMPTY
        assert intersect_sores(
            [parse("(ab*)|%e", AB), parse("(ba*)|%e", AB)], AB) == EPSILON

    def test_complement_refuses_an_undeclared_symbol(self):
        # The same refusal as ``intersect_sores``, where a regex naming 'c'
        # used to come back.
        with pytest.raises(ValueError, match="^symbol 'c' not in the declared alphabet$"):
            complement_unambiguous(parse("ac", ABC), AB)
        with pytest.raises(ValueError, match="^symbol 'c' not in the declared alphabet$"):
            complement_unambiguous(parse("a(b|c)*d", Alphabet.of("a", "b", "c", "d")),
                                   Alphabet.of("a", "b", "d"))

    def test_profile_dfa_refuses_an_undeclared_symbol(self):
        # The same refusal as ``intersect_sores``, not a bare KeyError.
        for lp in (local_profile(Sym("c")), local_profile(parse("ab*c", ABC))):
            with pytest.raises(ValueError, match="^symbol 'c' not in the declared alphabet$"):
                profile_to_dfa(lp, AB)
        with pytest.raises(ValueError, match="^symbol 'c' not in the declared alphabet$"):
            intersect_sores([Sym("c")], AB)

    def test_profile_dfa_state_count(self):
        lps = [local_profile(parse("ab*", ABC)), local_profile(parse("a(b|c)*", ABC))]
        dfa = profile_to_dfa(profile_intersection(lps), ABC)
        assert dfa.n_states == len(ABC) + 1

    def test_profile_dfa_serializations_pinned(self):
        # The profile DFAs of criterion 5's SORE corpus and of 50 balanced
        # SOREs over 25 symbols, against a digest recorded when
        # ``profile_to_dfa`` still built its DFA from triples.
        h = hashlib.sha256()
        rng = random.Random(20250809)
        sigma = Alphabet.of("a", "b", "c", "d", "e")
        for _ in range(200):
            lps = [local_profile(random_sore(rng, sigma.names))
                   for _ in range(rng.randint(1, 4))]
            for lp in lps + [profile_intersection(lps)]:
                h.update(serialize(profile_to_dfa(lp, sigma)).encode())
        rng = random.Random(4242)
        for _ in range(50):
            lp = local_profile(balanced_sore(rng, SORE_SYMBOLS))
            h.update(serialize(profile_to_dfa(lp, SORE_SIGMA)).encode())
        assert h.hexdigest() == (
            "46275ac6044e755e4fd1f54c656db3db4fcdb68840757d3e6f8fb485c8b36a19")

    @settings(max_examples=30)
    @given(st.integers(0, 100_000))
    def test_equals_iterated_product(self, seed):
        rng = random.Random(seed)
        exprs = [random_sore(rng, "abcd") for _ in range(rng.randint(1, 3))]
        sigma = Alphabet.of("a", "b", "c", "d")
        got = intersect_sores(exprs, sigma)
        acc = glushkov(exprs[0], sigma)
        for r in exprs[1:]:
            acc = product(acc, glushkov(r, sigma))
        assert equivalent(glushkov(got, sigma), acc)


# ---------------------------------------------------------------------------
# The position-bitmask route against the marking route of tests/oracles.py
# ---------------------------------------------------------------------------

UNAMB_CORPUS = one_unambiguous_corpus(8080, 40, 24, "abc")
SORE_SYMBOLS = [f"s{i}" for i in range(25)]
SORE_SIGMA = Alphabet(tuple(SORE_SYMBOLS))


def outcome(f, *args):
    """What a call gives, as comparable values: regexes as text, reports by
    repr, other values as they are, an error as its type and message."""
    try:
        value = f(*args)
    except Exception as exc:  # the error is the outcome compared
        return type(exc), str(exc)
    if isinstance(value, Regex):
        return format_regex(value)
    if isinstance(value, UnambiguityReport):
        return repr(value)
    return value


def complement_by_marking_within(r, sigma):
    """``complement_by_marking``, refusing a symbol of ``r`` outside
    ``sigma`` once ``r`` is known to be one-unambiguous, as the position
    route does.  The marking route itself returns a regex that names the
    symbol, which ``glushkov(., sigma)`` would refuse."""
    out = complement_by_marking(r, sigma)
    for name in symbols_of(r):
        if name not in sigma:
            raise ValueError(f"symbol {name!r} not in the declared alphabet")
    return out


def assert_routes_agree(r, sigma):
    calls = [
        (complement_unambiguous, complement_by_marking_within, (r, sigma)),
        (init_expr, init_expr_by_marking, (r, sigma)),
        (nfirst, nfirst_by_marking, (r, sigma)),
        (last_marked, last_marked_by_marking, (r,)),
        (local_profile, local_profile_by_marking, (r,)),
        (is_one_unambiguous, unambiguity_by_marking, (r,)),
    ]
    positions = [ms(base, i) for i, base in enumerate(symbols_of(r), 1)]
    unknown = [ms("a", 0), ms("a", len(positions) + 1), ms("a", -1), "a"]
    unknown += [ms(x.base + "'", x.occurrence) for x in positions[:2]]
    for x in positions + unknown:
        calls.append((prefix_to, prefix_to_by_marking, (r, x)))
        calls.append((nfollow, nfollow_by_marking, (r, x, sigma)))
    for new, old, args in calls:
        assert outcome(new, *args) == outcome(old, *args), (new.__name__, args)


class TestAgainstMarkingRoute:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_unamb_family(self, n):
        for r in unamb_family(n):
            assert_routes_agree(r, SIGMA_L)

    @settings(max_examples=80)
    @given(st.sampled_from(["corpus", "sore", "plain", "foreign", "extended", "marked"]),
           st.integers(0, 100_000))
    def test_same_results(self, kind, seed):
        rng = random.Random(seed)
        if kind == "corpus":
            r, sigma = rng.choice(UNAMB_CORPUS), ABC
        elif kind == "sore":
            r, sigma = balanced_sore(rng, SORE_SYMBOLS), SORE_SIGMA
        elif kind == "plain":  # mostly ambiguous
            r, sigma = random_plain_regex(rng, "ab", rng.randint(1, 16)), AB
        elif kind == "foreign":  # symbols outside the declared alphabet: the complement refuses
            r, sigma = random_plain_regex(rng, "abc", rng.randint(1, 10)), AB
        elif kind == "extended":
            r, sigma = random_extended_regex(rng, "ab", rng.randint(1, 10)), AB
        else:
            r, sigma = mark(random_plain_regex(rng, "ab", rng.randint(1, 10))).root, AB
        assert_routes_agree(r, sigma)

    @pytest.mark.parametrize("text", ["abc*c", "ab(ab)*a(a|b)", "(ab|c)*a(b|%0)*b",
                                      "c(a|b)+c*(ab)*(a|%e)b"])
    def test_forks_after_long_paths(self, text):
        assert_routes_agree(parse(text, ABC), ABC)

    def test_ambiguous_message(self):
        with pytest.raises(NotOneUnambiguousError) as err:
            complement_unambiguous(parse("b(a|b)*a", AB), AB)
        assert str(err.value) == (
            "expression is not one-unambiguous (witness ((MarkedSymbol(base='b', "
            "occurrence=1),), MarkedSymbol(base='a', occurrence=2), "
            "MarkedSymbol(base='a', occurrence=4)))")


# ---------------------------------------------------------------------------
# Inputs far deeper than the interpreter's recursion limit
# ---------------------------------------------------------------------------

SIGMA_STAR = Star(Union(Sym("a"), Sym("b")))
NOT_A = Concat(Sym("b"), SIGMA_STAR)  # the words over ab that start with b
NONEMPTY = Concat(Union(Sym("a"), Sym("b")), SIGMA_STAR)


def right_chain(n):
    r = Sym("a")
    for _ in range(n - 1):
        r = Concat(Sym("a"), r)
    return r


def star_nest(n):
    r = Sym("a")
    for _ in range(n):
        r = Star(r)
    return r


def chain_complement_size(n):
    """Size of the complement of a^n over ab from a chain of n symbols,
    nested either way: the init expression (8), n unions, the n - 1 terms
    prefix . (eps | b(a|b)*) and the last term prefix . (a|b)(a|b)*; the
    prefix of position x has size 2x - 1."""
    return 8 + n + sum(2 * x + 8 for x in range(1, n)) + 2 * n + 8


class TestDeepInput:
    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_chain_size_formula(self, n):
        for r in (right_chain(n), concat_all([Sym("a")] * n)):
            assert size(complement_by_marking(r, AB)) == chain_complement_size(n)

    def test_right_nested_chain(self):
        n = 3000
        r = right_chain(n)
        assert is_one_unambiguous(r).is_one_unambiguous
        assert prefix_to(r, ms("a", n)) == r
        assert prefix_to(r, ms("a", 1)) == Sym("a")
        assert size(prefix_to(r, ms("a", 1500))) == size(right_chain(1500)) == 2999
        s = complement_unambiguous(r, AB)
        assert s.right == Concat(r, NONEMPTY)
        assert s.left.right == Concat(right_chain(n - 1), Union(EPSILON, NOT_A))
        terms = 0
        while isinstance(s, Union) and s != Union(EPSILON, NOT_A):
            terms, s = terms + 1, s.left
        assert terms == n

    def test_star_nest(self):
        n = 10_000
        r = star_nest(n)
        assert is_one_unambiguous(r).is_one_unambiguous
        # Every star above the symbol allows full iterations before it.
        expected, node = Sym("a"), r
        stars = []
        while isinstance(node, Star):
            stars.append(node)
            node = node.inner
        for star in reversed(stars):
            expected = Concat(star, expected)
        p = prefix_to(r, ms("a", 1))
        assert p == expected
        assert size(p) == 1 + sum(k + 2 for k in range(1, n + 1))
        s = complement_unambiguous(r, AB)
        assert s == Union(NOT_A, Concat(expected, NOT_A))
        assert size(s) == 1 + 6 + 1 + size(p) + 6

    def test_left_nested_chain(self):
        n = 10_000
        r = concat_all([Sym("a")] * n)
        assert is_one_unambiguous(r).is_one_unambiguous
        spine = [r]
        while isinstance(spine[-1], Concat):
            spine.append(spine[-1].left)
        spine.reverse()  # spine[x - 1] is the chain of the first x symbols
        assert prefix_to(r, ms("a", n)) == r
        assert prefix_to(r, ms("a", 1)) == Sym("a")
        assert prefix_to(r, ms("a", 4321)) == spine[4320]
        s = complement_unambiguous(r, AB)
        expected = Union(EPSILON, NOT_A)
        for x in range(1, n):
            expected = Union(expected, Concat(spine[x - 1], Union(EPSILON, NOT_A)))
        assert s == Union(expected, Concat(r, NONEMPTY))
        assert size(s) == chain_complement_size(n)

    @pytest.mark.parametrize("build", [
        lambda: concat_all([Sym("a")] * 10_000),
        lambda: Concat(star_nest(10_000), Sym("a")),
    ])
    def test_not_sore_message(self, build):
        r = build()
        with pytest.raises(NotSoreError) as info:
            local_profile(r)
        assert str(info.value) == f"not a single-occurrence regex: {r!r}"
        with pytest.raises(NotSoreError) as info:
            intersect_sores([Sym("a"), r], AB)
        assert str(info.value) == f"not a single-occurrence regex: {format_regex(r)}"

    def test_ambiguous_star_nest(self):
        r = Concat(star_nest(10_000), Sym("a"))
        assert is_one_unambiguous(r).witness == ((), ms("a", 1), ms("a", 2))
        with pytest.raises(NotOneUnambiguousError):
            complement_unambiguous(r, AB)
