import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rexlab.rex import (
    EMPTY,
    EPSILON,
    Alphabet,
    Concat,
    ExtendedOperatorError,
    Intersect,
    MarkedSymbol,
    Negate,
    Plus,
    RegexSyntaxError,
    RexlabError,
    Star,
    Sym,
    Union,
    UnknownSymbolError,
    concat_all,
    format_regex,
    occurrence_count,
    parse,
    position_sets,
    repeat_upto,
    size,
    symbols_of,
)
from rexlab import budget
from rexlab.budget import BudgetExceededError, CancelToken

from conftest import regexes
from oracles import (dataclass_repr, first_last_adjacent, mark, parse_by_descent, regex_slice,
                     unmark)

ABC = Alphabet.of("a", "b", "c")
AB = Alphabet.of("a", "b")
A = Alphabet.of("a")
SK = Alphabet.of("0", "1", "$", "#")


def ms(base, occ):
    return MarkedSymbol(base, occ)


class TestParse:
    def test_marking_paper_expression(self):
        got = parse("(a|b)*a|bc", ABC)
        want = Union(Concat(Star(Union(Sym("a"), Sym("b"))), Sym("a")),
                     Concat(Sym("b"), Sym("c")))
        assert got == want

    def test_epsilon_literal(self):
        assert parse("%e", A) == EPSILON

    def test_negated_star(self):
        got = parse("!('0'|'1')*", SK)
        assert got == Negate(Star(Union(Sym("0"), Sym("1"))))

    def test_quoted_symbols_and_whitespace(self):
        sigma = Alphabet.of("ab", "c")
        assert parse(" 'ab'  c ", sigma) == Concat(Sym("ab"), Sym("c"))

    def test_intersection_precedence(self):
        # & binds tighter than | and looser than concatenation
        got = parse("ab&b|c", ABC)
        assert got == Union(Intersect(Concat(Sym("a"), Sym("b")), Sym("b")), Sym("c"))

    def test_negation_binds_looser_than_postfix(self):
        assert parse("!a*", A) == Negate(Star(Sym("a")))
        assert parse("(!a)*", A) == Star(Negate(Sym("a")))

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError) as err:
            parse("d", ABC)
        assert "d" in str(err.value)

    def test_syntax_error_has_position(self):
        with pytest.raises(RegexSyntaxError):
            parse("(a|b", AB)
        with pytest.raises(RegexSyntaxError):
            parse("a||b", AB)


class TestFormat:
    def test_star(self):
        assert format_regex(Star(Sym("a"))) == "a*"

    def test_concat_with_star(self):
        assert format_regex(Concat(Sym("a"), Star(Sym("a")))) == "aa*"

    def test_empty(self):
        assert format_regex(EMPTY) == "%0"

    def test_quoting(self):
        assert format_regex(Sym("ab")) == "'ab'"
        assert format_regex(Sym("$")) == "$"
        assert format_regex(Sym("don't")) == "'don\\'t'"

    @given(regexes("ab", max_leaves=8))
    def test_round_trip(self, r):
        assert parse(format_regex(r), AB) == r

    @given(st.integers(0, 100_000))
    def test_round_trip_extended(self, seed):
        import random

        from corpus import random_extended_regex
        r = random_extended_regex(random.Random(seed), "ab", 12)
        assert parse(format_regex(r), AB) == r

    def test_round_trip_preserves_association(self):
        r = Union(Sym("a"), Union(Sym("b"), Sym("c")))
        assert parse(format_regex(r), ABC) == r
        r = Concat(Sym("a"), Concat(Sym("b"), Sym("c")))
        assert parse(format_regex(r), ABC) == r


# Tokens of the differential texts: every token class of the grammar, an
# unknown and a non-ASCII character, blanks other than the space, and quoted
# names with and without an escaped quote.
PARSE_TOKENS = [*"ab()|&!*+%e0' \\x", "\t", "\x1c", "\u00e9", "'ab'", "'x\\'y'", "''"]
# Whole tokens only, so that more of the texts parse.
WELL_FORMED_TOKENS = [*"ab()|&!*+ ", "%e", "%0", "'ab'", "'x\\'y'"]
PARSE_SIGMA = Alphabet.of("a", "b", "e", "ab", "x'y")


def parse_outcome(parse_fn, text):
    """The tree, or the refusal's class, message and position."""
    try:
        return parse_fn(text, PARSE_SIGMA)
    except RexlabError as exc:
        return type(exc), str(exc), getattr(exc, "pos", None)


class TestParseAgainstDescent:
    """``parse`` is one loop; ``oracles.parse_by_descent`` is the recursive
    parser it replaced.  Both must give the same outcome on every text the
    reference can finish."""

    DEPTH = 10_000

    @staticmethod
    def agree(text):
        try:
            want = parse_outcome(parse_by_descent, text)
        except RecursionError:
            return
        assert parse_outcome(parse, text) == want, repr(text)

    @settings(max_examples=300)
    @given(st.one_of(*(st.lists(st.sampled_from(tokens), max_size=24).map("".join)
                       for tokens in (PARSE_TOKENS, WELL_FORMED_TOKENS)),
                     st.text(max_size=12)))
    def test_differential(self, text):
        self.agree(text)

    def test_seeded_fuzz(self):
        rng = random.Random(23)
        for _ in range(100_000):
            tokens = rng.choice((PARSE_TOKENS, WELL_FORMED_TOKENS))
            self.agree("".join(rng.choices(tokens, k=rng.randint(0, 14))))

    @pytest.mark.parametrize("wrap", [
        lambda r: Concat(Sym("a"), r), lambda r: Union(Sym("b"), r), Star, Negate,
    ], ids=["concat", "union", "star", "negate"])
    def test_deep_round_trip(self, wrap):
        r = Sym("a")
        for _ in range(self.DEPTH):
            r = wrap(r)
        assert parse(format_regex(r), AB) == r

    def test_deep_parentheses(self):
        n = self.DEPTH
        assert parse("(" * n + "a" + ")" * n, AB) == Sym("a")
        with pytest.raises(RegexSyntaxError) as err:
            parse("(" * n + "a", AB)
        assert str(err.value) == f"expected ')' (at position {n + 1})"


class TestAlphabet:
    def test_file_format(self):
        sigma = Alphabet.from_text("# walk labels\na(0,0)\na(0,1)\n\na(1,0)\n")
        assert list(sigma) == ["a(0,0)", "a(0,1)", "a(1,0)"]

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            Alphabet.of("a", "a")

    def test_bad_names_rejected(self):
        for bad in ("", "with space", "back\\slash", "nonasciié", 1, None, ("a",), b"a"):
            with pytest.raises(ValueError, match="bad symbol name"):
                Alphabet.of(bad)


class TestSize:
    def test_atoms(self):
        assert size(Sym("a")) == 1
        assert size(EMPTY) == 1
        assert size(EPSILON) == 1

    def test_concat(self):
        assert size(Concat(Sym("a"), Sym("b"))) == 3

    def test_paper_expression(self):
        assert size(parse("(a|b)*a|bc", ABC)) == 10

    @given(regexes("ab"), regexes("ab"))
    def test_additivity(self, r, s):
        assert size(Concat(r, s)) == size(r) + size(s) + 1
        assert size(Union(r, s)) == size(r) + size(s) + 1
        assert size(Intersect(r, s)) == size(r) + size(s) + 1
        assert size(Star(r)) == size(r) + 1
        assert size(Plus(r)) == size(r) + 1
        assert size(Negate(r)) == size(r) + 1

    def test_shared_subtrees_count_per_occurrence(self):
        shared = Star(Sym("a"))
        assert size(Concat(shared, shared)) == 2 * size(shared) + 1


class TestMark:
    def test_paper_example(self):
        m = mark(parse("(a|b)*a|bc", ABC))
        want = Union(
            Concat(Star(Union(Sym(ms("a", 1)), Sym(ms("b", 2)))), Sym(ms("a", 3))),
            Concat(Sym(ms("b", 4)), Sym(ms("c", 5))))
        assert m.root == want
        assert m.origin == parse("(a|b)*a|bc", ABC)

    def test_star_twice(self):
        m = mark(parse("a*a", A))
        assert m.root == Concat(Star(Sym(ms("a", 1))), Sym(ms("a", 2)))

    def test_epsilon(self):
        m = mark(EPSILON)
        assert m.root == EPSILON
        assert m.positions == ()

    def test_rejects_extended(self):
        with pytest.raises(ExtendedOperatorError):
            mark(Negate(Sym("a")))
        with pytest.raises(ExtendedOperatorError):
            mark(Intersect(Sym("a"), Sym("b")))

    @given(regexes("ab", max_leaves=8))
    def test_bijection(self, r):
        m = mark(r)
        assert [p.base for p in m.positions] == symbols_of(r)
        assert [p.occurrence for p in m.positions] == list(
            range(1, occurrence_count(r) + 1))
        assert unmark(m.root) == r


class TestGlushkovSets:
    def test_a_astar(self):
        sets = position_sets(parse("aa*", A))
        assert not sets.nullable
        assert sets.first == {ms("a", 1)}
        assert sets.last == {ms("a", 1), ms("a", 2)}
        assert sets.follow == {(ms("a", 1), ms("a", 2)), (ms("a", 2), ms("a", 2))}

    def test_epsilon(self):
        sets = position_sets(EPSILON)
        assert sets.nullable
        assert sets.first == sets.last == frozenset()
        assert sets.follow == frozenset()

    def test_union_star(self):
        sets = position_sets(parse("(a|b)*", AB))
        a1, b2 = ms("a", 1), ms("b", 2)
        assert sets.nullable
        assert sets.first == sets.last == {a1, b2}
        assert sets.follow == {(x, y) for x in (a1, b2) for y in (a1, b2)}

    def test_empty_subexpression_is_exact(self):
        # a%0 denotes the empty language: nothing may appear in the sets
        sets = position_sets(parse("a%0", A))
        assert not sets.nullable
        assert sets.first == sets.last == frozenset()
        # ... and a dead union branch contributes nothing
        sets = position_sets(parse("a|b%0", AB))
        assert sets.first == {ms("a", 1)}

    @settings(max_examples=30)
    @given(regexes("ab", max_leaves=4))
    def test_matches_enumeration(self, r):
        m = mark(r)
        sets = position_sets(r)
        assert sets.positions == m.positions
        # A first/last position is witnessed by a word of at most #positions
        # symbols, an adjacent pair by at most 2#positions+1, so a slice to
        # that bound realises the sets completely.
        bound = 2 * len(m.positions) + 1
        words = regex_slice(m.root, m.positions, bound)
        first, last, follow = first_last_adjacent(words)
        assert first == sets.first
        assert last == sets.last
        assert follow == sets.follow
        assert (() in words) == sets.nullable

    def test_rejects_extended_then_marked(self):
        with pytest.raises(ExtendedOperatorError):
            position_sets(Concat(mark(parse("ab", AB)).root, Negate(Sym("a"))))
        with pytest.raises(ValueError, match="already marked"):
            position_sets(mark(parse("ab", AB)).root)

    def test_polls_the_budget(self):
        token = CancelToken()
        token.cancel()
        with budget.active(token), pytest.raises(BudgetExceededError, match="cancelled"):
            position_sets(parse("ab", AB))


def test_alphabet_polls_the_budget():
    # ``m_alphabet(300)`` hands 180,600 names to one construction.
    token = CancelToken()
    token.cancel()
    with budget.active(token), pytest.raises(BudgetExceededError, match="cancelled"):
        Alphabet.of("a", "b")


@pytest.mark.parametrize("walk", [size, format_regex])
def test_size_and_format_poll_the_budget(walk):
    # The witness verb sizes and prints expressions of millions of nodes.
    r = parse("(a|b)*c", ABC)
    token = CancelToken()
    token.cancel()
    with budget.active(token):
        hash(r)  # hashing shares the fold of ``size`` but never polls
        with pytest.raises(BudgetExceededError, match="cancelled"):
            walk(r)


class TestRepeatUpto:
    def test_zero(self):
        assert repeat_upto(Sym("a"), 0) == EPSILON

    def test_two_matches_paper_shape(self):
        a = Sym("a")
        assert repeat_upto(a, 2) == Union(EPSILON, Concat(a, Union(EPSILON, a)))
        words = regex_slice(repeat_upto(a, 2), "a", 4)
        assert words == {(), ("a",), ("a", "a")}

    def test_pair_once(self):
        r = repeat_upto(parse("ab", AB), 1)
        assert regex_slice(r, "ab", 2) == {(), ("a", "b")}

    @given(regexes("ab", max_leaves=3), st.integers(0, 4))
    def test_language_is_bounded_union(self, r, n):
        bound = 6
        single = regex_slice(r, "ab", bound)
        expect = {()}
        layer = {()}
        for _ in range(n):
            layer = {u + v for u in layer for v in single if len(u) + len(v) <= bound}
            expect |= layer
        assert regex_slice(repeat_upto(r, n), "ab", bound) == expect

    def test_size_linear(self):
        a = parse("ab", AB)
        sizes = [size(repeat_upto(a, n)) for n in range(1, 9)]
        deltas = {sizes[i + 1] - sizes[i] for i in range(len(sizes) - 1)}
        assert len(deltas) == 1  # exactly linear growth


def left_nested(n, last="a"):
    return concat_all([Sym("a")] * (n - 1) + [Sym(last)])


def right_nested(n, last="a"):
    r = Sym(last)
    for _ in range(n - 1):
        r = Concat(Sym("a"), r)
    return r


def under_stars(n, last="a"):
    return Plus(Star(Union(EPSILON, right_nested(n, last))))


def extended_trees(max_leaves=8):
    """Trees of every node class, with plain, multi-character and marked symbols."""
    leaf = st.sampled_from([EMPTY, EPSILON, Sym("a"), Sym("bc"), Sym("x'"),
                            Sym(MarkedSymbol("a", 3))])
    return st.recursive(
        leaf,
        lambda kids: st.one_of(
            st.builds(Star, kids), st.builds(Plus, kids), st.builds(Negate, kids),
            st.builds(Concat, kids, kids), st.builds(Union, kids, kids),
            st.builds(Intersect, kids, kids)),
        max_leaves=max_leaves)


class TestRepr:
    """``repr`` and ``str`` give the dataclass text, built without recursion."""

    DEPTH = 10_000

    @settings(max_examples=150)
    @given(extended_trees())
    def test_matches_dataclass_repr(self, r):
        assert repr(r) == str(r) == dataclass_repr(r)

    def test_examples(self):
        assert repr(EMPTY) == "Empty()" and str(EPSILON) == "Epsilon()"
        assert repr(Concat(Sym("a"), Star(Sym(MarkedSymbol("b", 2))))) == (
            "Concat(left=Sym(sym='a'), "
            "right=Star(inner=Sym(sym=MarkedSymbol(base='b', occurrence=2))))")
        assert repr(mark(parse("ab", AB))) == (
            "MarkedRegex(root=Concat(left=Sym(sym=MarkedSymbol(base='a', occurrence=1)), "
            "right=Sym(sym=MarkedSymbol(base='b', occurrence=2))), "
            "origin=Concat(left=Sym(sym='a'), right=Sym(sym='b')))")

    @pytest.mark.parametrize("n", [2000, DEPTH])
    def test_deep_left_chain(self, n):
        r = left_nested(n)
        want = ("Concat(left=" * (n - 1) + "Sym(sym='a')"
                + ", right=Sym(sym='a'))" * (n - 1))
        assert repr(r) == want and str(r) == want

    def test_deep_right_chain(self):
        n = self.DEPTH
        want = ("Concat(left=Sym(sym='a'), right=" * (n - 1) + "Sym(sym='b')"
                + ")" * (n - 1))
        assert repr(right_nested(n, "b")) == want

    def test_deep_unary_nest(self):
        r, opened = Sym("a"), []
        for i in range(self.DEPTH):
            r = (Star, Plus, Negate)[i % 3](r)
            opened.append(f"{type(r).__name__}(inner=")
        want = "".join(reversed(opened)) + "Sym(sym='a')" + ")" * self.DEPTH
        assert repr(r) == want and str(r) == want


class TestDeepEquality:
    """Equality and hashing walk the tree without recursion."""

    DEPTH = 10_000

    @pytest.mark.parametrize("build", [left_nested, right_nested, under_stars])
    def test_deep_trees(self, build):
        r, s, t = build(self.DEPTH), build(self.DEPTH), build(self.DEPTH, "b")
        assert r is not s
        assert r == s and not r != s
        assert hash(r) == hash(s)
        assert r != t and not r == t

    def test_chain_of_2000(self):
        r = concat_all([Sym("a")] * 2000)
        assert r == concat_all([Sym("a")] * 2000)
        assert hash(r) == hash(concat_all([Sym("a")] * 2000))

    def test_identity_short_circuit(self):
        # 2**80 leaves as a tree, 81 distinct nodes: only identity and
        # memoised hashing make these finish.
        d = Sym("a")
        for _ in range(80):
            d = Concat(d, d)
        assert d == d
        assert Concat(d, Sym("b")) == Concat(d, Sym("b"))
        assert Concat(d, Sym("b")) != Concat(d, Sym("a"))
        assert isinstance(hash(d), int)

    def test_classes_and_symbols_matter(self):
        a, b = Sym("a"), Sym("b")
        assert Concat(a, b) != Union(a, b)
        assert Star(a) != Plus(a)
        assert Intersect(a, b) != Union(a, b)
        assert Sym("a") != Sym(ms("a", 1))
        assert Sym(ms("a", 1)) == Sym(ms("a", 1))
        assert EMPTY != EPSILON and EMPTY == Concat(EMPTY, EMPTY).left
        assert Sym("a") != "a" and "a" != Sym("a")

    @settings(max_examples=150)
    @given(regexes("ab", max_leaves=5), regexes("ab", max_leaves=5))
    def test_equality_is_structural(self, r, s):
        # format_regex is injective on plain trees, so equal text means
        # equal trees; equal trees hash equally.
        assert (r == s) == (format_regex(r) == format_regex(s))
        assert r == parse(format_regex(r), AB)
        assert hash(r) == hash(parse(format_regex(r), AB))
        assert {r: 1}.get(parse(format_regex(r), AB)) == 1
