import hashlib
import itertools

import pytest

from rexlab.automata import (
    accepts,
    complement_dfa,
    determinize,
    equivalent,
    glushkov,
    minimize,
    product,
    serialize,
)
from rexlab import budget
from rexlab.analysis import enumerate_language, equal_upto
from rexlab.budget import BudgetExceededError, CancelToken
from rexlab.rex import size
from rexlab.unambiguous import (is_one_unambiguous, is_sore, local_profile,
                                profile_intersection, profile_to_dfa)
from rexlab.witnesses import (
    END_MARKER,
    SIGMA_K,
    SIGMA_L,
    PathWord,
    build_bundle,
    complement_witness,
    enc_width,
    encode_int,
    k_dfa,
    l_dfa,
    l_member,
    m_alphabet,
    m_member,
    m_sore_pair,
    rho_encode,
    rho_hat_encode,
    unamb_family,
    z_alphabet,
    z_dfa,
)

from conftest import CountingToken
from oracles import (
    circled_walk_dfa,
    is_k_string,
    is_z_word,
    k_dfa_by_phases,
    l_dfa_by_parity_product,
    path_words,
    words_upto,
)


def serialization_digest(dfas) -> str:
    h = hashlib.sha256()
    for d in dfas:
        h.update(serialize(d).encode())
    return h.hexdigest()


class TestSerializationPins:
    """The witness DFAs are written as tables; their files must not move.

    The digests were recorded when the DFAs were still built from triples.
    """

    def test_k_dfa(self):
        assert serialization_digest(k_dfa(n) for n in range(2, 17)) == (
            "0eb6d966c77ff77a5a86d44ad77b3789e52e7ddfd2525a2310b66bca18bcaeb7")

    def test_z_dfa(self):
        assert serialization_digest(z_dfa(n) for n in range(1, 6)) == (
            "700b0067dbe80b7325e57224f72db00c9201c05fe364080a148f62b679bcdaf4")

    def test_l_dfa(self):
        assert serialization_digest(l_dfa(n) for n in range(2, 17)) == (
            "231f5d43902a243d165b278d9f48f83812d3d2a1a55ff8102b6e5b3cd85a20a8")

    @pytest.mark.parametrize("build", [k_dfa, l_dfa, z_dfa, unamb_family, m_sore_pair,
                                       m_alphabet])
    def test_builders_poll_the_budget(self, build):
        # The witness verb runs these under REXLAB_BUDGET_MS.
        token = CancelToken()
        token.cancel()
        with budget.active(token), pytest.raises(BudgetExceededError, match="cancelled"):
            build(4)

    @pytest.mark.parametrize("build, polls", [(k_dfa, 27), (l_dfa, 41)])
    def test_block_walk_polls_once_per_layer(self, build, polls):
        # The block walk polls once per breadth-first layer, and nothing else
        # in the two builders polls.  A block is w bits, "$", w bits and "#":
        # 2w + 2 layers, with w = enc_width(64) = 6.  k_dfa walks block 1 and
        # block 2 but for block 2's "#" layer: the edges on its last bit lead
        # back to block 1's "#" states, so 4w + 3 = 27.  l_dfa's "#" states
        # also hold the parity, so block 2's are new and block 3's lead back:
        # 6w + 5 = 41.
        token = CountingToken()
        with budget.active(token):
            build(64)
        assert token.polls == polls


class TestBlockWalk:
    """``k_dfa`` and ``l_dfa`` share one walk; each must write the same file
    as the builder it replaced, past the pinned sizes and up to the ones the
    product checks use."""

    @pytest.mark.parametrize("n", [*range(2, 34), 48, 63, 64, 65])
    def test_matches_reference_builders(self, n):
        assert serialize(k_dfa(n)) == serialize(k_dfa_by_phases(n))
        assert serialize(l_dfa(n)) == serialize(l_dfa_by_parity_product(n))

    @pytest.mark.parametrize("n", [128, 129])
    def test_matches_reference_builders_at_the_next_width(self, n):
        # enc_width grows from 7 to 8 bits between these two.  The fields are
        # compared directly: serialising the four DFAs, of up to 352,306
        # states, would take more than half as long again as building them.
        for got, want in [(k_dfa(n), k_dfa_by_phases(n)),
                          (l_dfa(n), l_dfa_by_parity_product(n))]:
            assert (got.alphabet, got.n_states) == (want.alphabet, want.n_states)
            assert got.initial == want.initial
            assert got.finals == want.finals
            assert got.table == want.table

    @pytest.mark.parametrize("build, reference", [(k_dfa, k_dfa_by_phases),
                                                  (l_dfa, l_dfa_by_parity_product)])
    def test_n1_refused_alike(self, build, reference):
        with pytest.raises(ValueError) as want:
            reference(1)
        with pytest.raises(ValueError) as got:
            build(1)
        assert str(got.value) == str(want.value)


class TestZDfa:
    def test_accepts_walk(self):
        assert accepts(z_dfa(5), ["a(0,2)", "a(2,2)", "a(2,1)"])

    def test_rejects_broken_chain(self):
        assert not accepts(z_dfa(2), ["a(0,1)", "a(0,1)"])

    def test_rejects_empty(self):
        assert not accepts(z_dfa(2), [])

    def test_size_quadratic(self):
        for n in (1, 2, 3, 5, 8):
            d = z_dfa(n)
            assert d.n_states == n + 1
            assert len(d.transitions) == 2 * n * n
            assert d.size <= 3 * n * n + n + 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_language_matches_definition(self, n):
        d = z_dfa(n)
        max_len = 3
        got = set(enumerate_language(d, max_len).words)
        want = {w for w in words_upto(z_alphabet(n).names, max_len)
                if is_z_word(w, n)}
        assert got == want


class TestEncoding:
    def test_encode_int(self):
        assert encode_int(2, 5) == "010"
        assert encode_int(3, 5) == "011"
        assert encode_int(0, 2) == "0"

    def test_encode_range_error(self):
        with pytest.raises(ValueError):
            encode_int(5, 5)
        with pytest.raises(ValueError):
            encode_int(0, 1)

    def test_block_string_from_the_walk(self):
        w = PathWord((3, 2, 1, 4, 2), 5)
        assert rho_encode(w) == "010$011#001$010#100$001#010$100#"

    def test_single_self_loop(self):
        assert rho_encode(PathWord((0, 0), 2)) == "0$0#"

    def test_index_swap(self):
        assert rho_encode(PathWord((1, 0), 2)) == "0$1#"

    def test_path_word_validation(self):
        with pytest.raises(ValueError):
            PathWord((0,), 2)
        with pytest.raises(ValueError):
            PathWord((0, 5), 2)


class TestKDfa:
    def test_accepts_paper_string(self):
        assert accepts(k_dfa(5), "010$011#001$010#100$001#010$100#")

    def test_two_vertex_chain(self):
        assert accepts(k_dfa(2), "1$0#0$1#")
        assert not accepts(k_dfa(2), "0$0#1$1#")

    def test_rejects_empty(self):
        assert not accepts(k_dfa(2), "")

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exhaustive_against_decoder(self, n):
        d = k_dfa(n)
        max_len = 2 * (2 * enc_width(n) + 2)
        got = {"".join(w) for w in enumerate_language(d, max_len).words}
        want = set()
        for length in range(max_len + 1):
            for chars in itertools.product("01$#", repeat=length):
                s = "".join(chars)
                if is_k_string(s, n):
                    want.add(s)
        assert got == want

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_encodings_accepted_and_mutations_rejected(self, n):
        for w in path_words(n, 3):
            s = rho_encode(w)
            assert accepts(k_dfa(n), s)
            for i in range(len(s)):
                for c in "01$#":
                    if c == s[i]:
                        continue
                    mutated = s[:i] + c + s[i + 1:]
                    assert accepts(k_dfa(n), mutated) == is_k_string(mutated, n)

    def test_state_count_bound(self):
        # measured constant: states stay below 5 n^2 ceil(log n)
        for n in (2, 3, 4, 5, 8, 16):
            d = k_dfa(n)
            assert d.n_states <= 5 * n * n * enc_width(n)


class TestComplementWitness:
    def test_identity_n1(self):
        r = complement_witness(1)
        got = complement_dfa(determinize(glushkov(r, SIGMA_K)))
        assert equivalent(got, k_dfa(2))
        # the minimised route reaches the same language
        small = complement_dfa(minimize(determinize(glushkov(r, SIGMA_K))))
        assert equivalent(small, k_dfa(2))

    def test_block_strings_not_matched(self):
        # members of the two-vertex block language never match the witness
        nfa = glushkov(complement_witness(1), SIGMA_K)
        assert not accepts(nfa, "0$0#")
        assert not accepts(nfa, "1$0#0$1#")
        assert accepts(nfa, "0$0")       # missing final hash
        assert accepts(nfa, "0$0#1$1#")  # broken chain

    def test_size_linear(self):
        sizes = [size(complement_witness(n)) for n in range(1, 9)]
        deltas = [sizes[i + 1] - sizes[i] for i in range(len(sizes) - 1)]
        # linear growth: constant per-step increase
        assert len(set(deltas)) == 1


class TestLFamily:
    def test_member(self):
        assert l_member(PathWord((0, 1, 0), 2)) == \
            ("1", "$", "0", "#", "0", "$", "1", "#", END_MARKER)

    def test_odd_walk_rejected(self):
        with pytest.raises(ValueError):
            l_member(PathWord((0, 1), 2))

    def test_paper_walk_is_member(self):
        w = PathWord((3, 2, 1, 4, 2), 5)
        assert accepts(l_dfa(5), l_member(w))

    @pytest.mark.parametrize("n", [2, 4])
    def test_l_dfa_language(self, n):
        d = l_dfa(n)
        block = 2 * enc_width(n) + 2
        max_len = 2 * block + 1
        got = set(enumerate_language(d, max_len).words)
        want = {l_member(w) for w in path_words(n, 2, even_only=True)}
        assert got == want


class TestUnambFamily:
    @pytest.mark.parametrize("n", [1, 2])
    def test_members_are_one_unambiguous(self, n):
        exprs = unamb_family(n)
        assert len(exprs) == 2 * n + 1
        for e in exprs:
            assert is_one_unambiguous(e).is_one_unambiguous

    def test_sizes_linear(self):
        totals = [sum(size(e) for e in unamb_family(n)) / (2 * n + 1)
                  for n in range(1, 7)]
        # average member size grows linearly: second differences vanish
        second = [totals[i + 2] - 2 * totals[i + 1] + totals[i]
                  for i in range(len(totals) - 2)]
        assert all(abs(d) < 8 for d in second)

    def test_intersection_is_l2(self):
        exprs = unamb_family(1)
        acc = glushkov(exprs[0], SIGMA_L)
        for e in exprs[1:]:
            acc = product(acc, glushkov(e, SIGMA_L))
        assert equivalent(acc, l_dfa(2))


class TestMFamily:
    def test_alphabet_n1(self):
        assert list(m_alphabet(1)) == ["a(0*,0)", "a(0,0*)", "rt(0)", "tr(0)"]

    def test_alphabet_sizes(self):
        assert len(m_alphabet(2)) == 12
        names = set(m_alphabet(5).names)
        assert "a(2,4*)" in names and "rt(3)" in names

    def test_paper_mapping(self):
        w = PathWord((2, 4, 3, 3, 0), 5)
        assert m_member(w) == ("rt(2)", "a(2,4*)", "a(4*,3)",
                               "rt(3)", "a(3,3*)", "a(3*,0)", "tr(0)")

    def test_simplest_members(self):
        assert m_member(PathWord((0, 0, 0), 1)) == \
            ("rt(0)", "a(0,0*)", "a(0*,0)", "tr(0)")
        assert m_member(PathWord((0, 1, 0), 2)) == \
            ("rt(0)", "a(0,1*)", "a(1*,0)", "tr(0)")

    def test_odd_walk_rejected(self):
        with pytest.raises(ValueError):
            rho_hat_encode(PathWord((0, 1), 2))

    def test_pair_members_are_sores(self):
        for n in (1, 2, 5):
            r, s = m_sore_pair(n)
            assert is_sore(r) and is_sore(s)

    def test_pair_sizes_quadratic(self):
        totals = [size(m_sore_pair(n)[0]) + size(m_sore_pair(n)[1])
                  for n in range(1, 7)]
        ratios = [totals[i + 1] / totals[i] for i in range(len(totals) - 1)]
        # quadratic growth: ratios fall towards 1 but stay above linear's
        assert totals[5] > 3 * totals[2]
        assert all(r > 1 for r in ratios)

    def test_intersection_is_m1(self):
        # direct acceptor for the one-vertex circled-walk language
        from rexlab.automata import Dfa
        sigma = m_alphabet(1)
        direct = Dfa(sigma, 5, 0, frozenset([4]), frozenset([
            (0, "rt(0)", 1), (1, "a(0,0*)", 2), (2, "a(0*,0)", 3),
            (3, "rt(0)", 1), (3, "tr(0)", 4)]))
        r, s = m_sore_pair(1)
        got = product(glushkov(r, sigma), glushkov(s, sigma))
        assert equivalent(got, direct)

    @pytest.mark.parametrize("n", [1, 2])
    def test_intersection_matches_enumeration(self, n):
        sigma = m_alphabet(n)
        r, s = m_sore_pair(n)
        prod = product(glushkov(r, sigma), glushkov(s, sigma))
        got = set(enumerate_language(prod, 7).words)
        want = {m_member(w) for w in path_words(n, 4, even_only=True)}
        assert got == want


class TestCircledWalkExact:
    """Both intersection routes of the SORE pair against an acceptor built
    from the walk's definition, exactly and not only on a length slice."""

    @staticmethod
    def routes(n):
        sigma = m_alphabet(n)
        r, s = m_sore_pair(n)
        merged = profile_intersection([local_profile(r), local_profile(s)])
        return product(glushkov(r, sigma), glushkov(s, sigma)), profile_to_dfa(merged, sigma)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_routes_equal_the_walk_acceptor(self, n):
        direct = circled_walk_dfa(n)
        assert direct.n_states == 3 * n + 2
        prod, merged = self.routes(n)
        assert equivalent(prod, direct) and equivalent(merged, direct)
        assert minimize(determinize(prod)).n_states == 3 * n + 2

    @pytest.mark.parametrize("n", [2, 3])
    def test_negative_control_beyond_the_slice(self, n):
        # A third block that may start anywhere changes only words of ten
        # symbols or more: criterion 3's length-7 slice cannot see it.
        broken = circled_walk_dfa(n, free_from=3)
        for route in self.routes(n):
            assert equal_upto(route, broken, 7).equal
            assert not equivalent(route, broken)


class TestBundles:
    def test_metadata(self):
        b = build_bundle("k-dfa", 5)
        meta = b.metadata()
        assert meta["family"] == "k-dfa" and meta["n"] == 5
        assert meta["alphabet_size"] == 4
        assert meta["declared_size"] == k_dfa(5).size

    def test_all_families_build(self):
        for family in ("z-dfa", "k-dfa", "l-family"):
            assert build_bundle(family, 2).declared_size > 0
        for family in ("complement-witness", "m-sore-pair", "unamb-family"):
            assert build_bundle(family, 1).declared_size > 0

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            build_bundle("nope", 1)
