"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  All tolerances are fixed
here; corpus seeds are frozen so recorded constants are reproducible.
"""

import functools
import math
import random
import time

from rexlab.analysis import (
    blowup_report,
    enumerate_language,
    minimal_regex_size,
    word_index,
)
from rexlab.automata import (
    complement_dfa,
    determinize,
    eliminate_states,
    equivalent,
    extended_to_nfa,
    glushkov,
    minimize,
    product,
)
from rexlab.rex import (
    Alphabet,
    MarkedSymbol,
    Concat,
    Star,
    Sym,
    Union,
    occurrence_count,
    parse,
    position_sets,
    size,
)
from rexlab.unambiguous import (
    complement_unambiguous,
    intersect_sores,
    is_one_unambiguous,
    local_profile,
    profile_intersection,
    profile_to_dfa,
)
from rexlab.witnesses import (
    SIGMA_K,
    SIGMA_L,
    PathWord,
    complement_witness,
    k_dfa,
    l_dfa,
    m_alphabet,
    m_member,
    m_sore_pair,
    rho_encode,
    unamb_family,
    z_dfa,
)

from corpus import one_unambiguous_corpus, random_plain_regex, random_sore
from oracles import circled_walk_dfa, mark, path_words, words_upto

# Frozen tolerances and recorded constants.
CORPUS_SEED = 20250809
COMPLEMENT_CUBIC_RATIO = 36.0     # measured max 35.00 on the frozen corpus
COMPLEMENT_QUADRATIC_RATIO = 9.0  # measured max 8.75 of size(s)/(size(r)^2 |Sigma|)
DET_BUDGET = 2_500_000            # the n=2 witness needs 1,810,323 subsets


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number}: FAIL - {description}")
                raise
            wall = time.perf_counter() - start
            print(f"\nACCEPTANCE {number}: PASS - {description} ({wall:.1f}s)")
        return run
    return wrap


@criterion(1, "complement witness: its complement is the block language, n=1,2")
def test_criterion_01_complement_witness_identity():
    for n in (1, 2):
        got = complement_dfa(determinize(glushkov(complement_witness(n), SIGMA_K),
                                         max_states=DET_BUDGET))
        assert equivalent(got, k_dfa(2 ** n)), f"identity fails at n={n}"


@criterion(2, "one-unambiguous complement: 500-expression corpus, exact, "
             "cubic-ratio bound")
def test_criterion_02_unambiguous_complement_corpus():
    sigma = Alphabet.of("a", "b", "c", "d")
    corpus = one_unambiguous_corpus(CORPUS_SEED, 500, 30, sigma.names)
    assert len(corpus) >= 500
    worst = worst_sq = 0.0
    for r in corpus:
        assert size(r) <= 30
        s = complement_unambiguous(r, sigma)
        direct = complement_dfa(minimize(determinize(glushkov(r, sigma))))
        assert equivalent(glushkov(s, sigma), direct), \
            f"complement differs for corpus member of size {size(r)}"
        worst = max(worst, size(s) / size(r) ** 3)
        worst_sq = max(worst_sq, size(s) / (size(r) ** 2 * len(sigma)))
    print(f"  [recorded constants: size(s)/size(r)^3 max {worst:.2f}; "
          f"size(s)/(size(r)^2 |Sigma|) max {worst_sq:.2f}]")
    assert worst <= COMPLEMENT_CUBIC_RATIO
    assert worst_sq <= COMPLEMENT_QUADRATIC_RATIO


@criterion(3, "single-occurrence pair: intersection is the circled-walk "
             "language, n=1..3")
def test_criterion_03_sore_pair_identity():
    for n in (1, 2, 3):
        sigma = m_alphabet(n)
        r, s = m_sore_pair(n)
        prod = product(glushkov(r, sigma), glushkov(s, sigma))
        got = set(enumerate_language(prod, 7).words)
        want = {m_member(w) for w in path_words(n, 4, even_only=True)}
        assert got == want, f"circled-walk mismatch at n={n}"


@criterion(4, "one-unambiguous family: 2n+1 members, deterministic positions, "
             "intersection is the end-marked block language, n=1,2")
def test_criterion_04_unamb_family_identity():
    for n in (1, 2):
        exprs = unamb_family(n)
        assert len(exprs) == 2 * n + 1
        for e in exprs:
            assert is_one_unambiguous(e).is_one_unambiguous
        acc = glushkov(exprs[0], SIGMA_L)
        for e in exprs[1:]:
            acc = product(acc, glushkov(e, SIGMA_L))
        assert equivalent(acc, l_dfa(2 ** n)), f"family identity fails at n={n}"


def test_unamb_family_identity_up_to_n6():
    # Criterion 4's identity on four more points: the product chain of the
    # 2n + 1 members is the end-marked block language (62,207 states at
    # n=6).  Without member n, a different one at each n, it is not.
    def chain(exprs):
        acc = glushkov(exprs[0], SIGMA_L)
        for e in exprs[1:]:
            acc = product(acc, glushkov(e, SIGMA_L))
        return acc

    for n in range(1, 7):
        exprs = unamb_family(n)
        want = l_dfa(2 ** n)
        assert equivalent(chain(exprs), want), f"family identity fails at n={n}"
        assert not equivalent(chain(exprs[:n] + exprs[n + 1:]), want), n


@criterion(5, "single-occurrence intersection: 200 random lists match iterated "
             "products through a <=|Sigma|+1-state acceptor")
def test_criterion_05_sore_intersection_linear():
    rng = random.Random(CORPUS_SEED)
    sigma = Alphabet.of("a", "b", "c", "d", "e")
    for _ in range(200):
        exprs = [random_sore(rng, sigma.names) for _ in range(rng.randint(1, 4))]
        profiles = [local_profile(r) for r in exprs]
        merged = profile_intersection(profiles)
        dfa = profile_to_dfa(merged, sigma)
        assert dfa.n_states <= len(sigma) + 1
        got = intersect_sores(exprs, sigma)
        acc = glushkov(exprs[0], sigma)
        for r in exprs[1:]:
            acc = product(acc, glushkov(r, sigma))
        assert equivalent(glushkov(got, sigma), acc)


@criterion(6, "lower-bound spot checks: no plain regex of size<=1 defines the "
             "2-vertex walks, none of size<=3 their block encodings")
def test_criterion_06_lower_bound_spot_checks():
    z_search = minimal_regex_size(z_dfa(2), 1)
    assert z_search.minimal_size is None
    assert z_search.examined >= 6  # all size-1 candidates were tried

    k_search = minimal_regex_size(k_dfa(2), 3)
    assert k_search.minimal_size is None
    assert k_search.examined >= 30

    # sanity: the languages are regular, so some plain regex does define them
    e = eliminate_states(minimize(k_dfa(2)))
    assert equivalent(glushkov(e, SIGMA_K), k_dfa(2))


@criterion(7, "repetition index lemma: 1000 finite-index samples all below "
             "twice the expression size")
def test_criterion_07_index_lemma():
    sigma = Alphabet.of("a", "b")
    rng = random.Random(CORPUS_SEED)
    finite_seen = 0
    violations = []
    while finite_seen < 1000:
        r = random_plain_regex(rng, "ab", rng.randint(1, 14))
        if size(r) > 14:
            continue
        w = tuple(rng.choice("ab") for _ in range(rng.randint(1, 3)))
        result = word_index(r, w, sigma)
        if not result.finite:
            continue
        finite_seen += 1
        if not result.value < 2 * size(r):
            violations.append((r, w, result))
    assert not violations, violations[:3]


@criterion(8, "conversion soundness: 1000 random regexes through position "
             "automaton, subsets, complement and elimination")
def test_criterion_08_conversion_soundness():
    sigma = Alphabet.of("a", "b")
    rng = random.Random(CORPUS_SEED + 8)
    all_words = {w for w in words_upto("ab", 6)}
    done = 0
    while done < 1000:
        r = random_plain_regex(rng, "ab", rng.randint(1, 14))
        if size(r) > 14:
            continue
        done += 1
        g = glushkov(r, sigma)
        assert g.n_states == occurrence_count(r) + 1
        # The combinator route, so the reference shares no code with glushkov.
        expected = set(enumerate_language(extended_to_nfa(r, sigma), 6).words)
        assert set(enumerate_language(g, 6).words) == expected
        d = determinize(g)
        assert set(enumerate_language(d, 6).words) == expected
        c = complement_dfa(d)
        assert set(enumerate_language(c, 6).words) == all_words - expected
        m = minimize(d)
        e = eliminate_states(m)
        assert equivalent(glushkov(e, sigma), g)
        assert set(enumerate_language(e, 6, sigma).words) == expected


@criterion(9, "worked examples reproduce bit-exactly: block string, marking, "
             "circled mapping")
def test_criterion_09_worked_examples():
    assert rho_encode(PathWord((3, 2, 1, 4, 2), 5)) == \
        "010$011#001$010#100$001#010$100#"

    marked = mark(parse("(a|b)*a|bc", Alphabet.of("a", "b", "c"))).root
    def msym(b, o):
        return Sym(MarkedSymbol(b, o))
    assert marked == Union(
        Concat(Star(Union(msym("a", 1), msym("b", 2))), msym("a", 3)),
        Concat(msym("b", 4), msym("c", 5)))

    # The library's position sets of the same expression.
    sets = position_sets(parse("(a|b)*a|bc", Alphabet.of("a", "b", "c")))
    a1, b2, a3, b4, c5 = (MarkedSymbol(b, o) for b, o in
                          [("a", 1), ("b", 2), ("a", 3), ("b", 4), ("c", 5)])
    assert sets.positions == (a1, b2, a3, b4, c5)
    assert sets.first == {a1, b2, a3, b4}
    assert sets.last == {a3, c5}
    assert sets.follow == {(x, y) for x in (a1, b2) for y in (a1, b2, a3)} | {(b4, c5)}
    assert not sets.nullable

    assert m_member(PathWord((2, 4, 3, 3, 0), 5)) == (
        "rt(2)", "a(2,4*)", "a(4*,3)", "rt(3)", "a(3,3*)", "a(3*,0)", "tr(0)")


@criterion(10, "blow-up trends: naive complement of the witness family grows "
              "super-exponentially while the one-unambiguous route stays "
              "polynomial")
def test_criterion_10_blowup_trends():
    naive = blowup_report("complement-witness", [1, 2, 3], "complement-naive",
                          max_states=2_000_000)
    rows = naive.rows
    ins = [row.input_size for row in rows]
    outs = [row.output_size for row in rows]
    # input sizes grow linearly (constant increments by construction)
    assert ins[1] - ins[0] == ins[2] - ins[1]
    # output explodes: the n=1 -> n=2 ratio dwarfs the input ratio squared,
    # and n=3 either keeps accelerating or exhausts a two-million-state budget
    assert outs[0] is not None and outs[1] is not None
    assert outs[1] / outs[0] > (ins[1] / ins[0]) ** 2
    if outs[2] is not None:
        assert outs[2] / outs[1] > outs[1] / outs[0]
    csv = naive.to_csv()
    assert csv.splitlines()[0] == "family,n,input_size,output_size,wall_ms"

    poly = blowup_report("unamb-family", [1, 2, 3], "complement-unambiguous")
    for row in poly.rows:
        assert row.output_size is not None
        assert row.output_size <= COMPLEMENT_CUBIC_RATIO * row.input_size ** 3
    # polynomial envelope: growth stays within the cube of the input growth
    p_ins = [row.input_size for row in poly.rows]
    p_outs = [row.output_size for row in poly.rows]
    assert p_outs[2] / p_outs[0] <= (p_ins[2] / p_ins[0]) ** 3


def test_sore_intersection_trend():
    # The paper's bound for two single-occurrence expressions: their
    # intersection can need size 2^Omega(n) while each has size O(n^2).  The
    # pair's size is quadratic here (one positive second difference), so
    # against the input m the output grows like 2^Omega(sqrt m), and its
    # log-log slope rises without bound, where a polynomial's tends to its
    # degree.  The slope between consecutive points must rise at every step.
    ins, outs = [], []
    for n in range(1, 7):
        r, s = m_sore_pair(n)
        ins.append(size(r) + size(s))
        outs.append(size(intersect_sores([r, s], m_alphabet(n))))
    second_differences = {ins[i + 2] - 2 * ins[i + 1] + ins[i] for i in range(4)}
    assert len(second_differences) == 1 and min(second_differences) > 0
    slopes = [math.log(outs[i + 1] / outs[i]) / math.log(ins[i + 1] / ins[i])
              for i in range(5)]
    assert all(a < b for a, b in zip(slopes, slopes[1:])), slopes


def test_sore_intersection_is_the_walk_language():
    # The regex ``intersect_sores`` returns, not only the acceptor it comes
    # from, is exactly the circled-walk language (sizes 14 to 33,882).  A
    # third block that may start anywhere is the negative control.
    for n in range(1, 6):
        sigma = m_alphabet(n)
        got = glushkov(intersect_sores(m_sore_pair(n), sigma), sigma)
        assert equivalent(got, circled_walk_dfa(n)), f"walk language differs at n={n}"
        if n >= 2:
            assert not equivalent(got, circled_walk_dfa(n, free_from=3)), n
