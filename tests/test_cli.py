import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rexlab
import rexlab.cli as cli
from rexlab.budget import BudgetExceededError
from rexlab.cli import main
from rexlab.rex import Concat, Negate, Star, Sym, Union, format_regex


def run_cli(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRegexVerbs:
    def test_parse_canonical(self, capsys):
        code, out, _ = run_cli(capsys, "parse", "--alphabet", "abc", "(a|b)*a|bc")
        assert code == 0 and out == "(a|b)*a|bc\n"

    def test_parse_stdin(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, "parse", "--alphabet", "ab", "-",
                               stdin="a  b\n", monkeypatch=monkeypatch)
        assert code == 0 and out == "ab\n"

    def test_size(self, capsys):
        code, out, _ = run_cli(capsys, "size", "--alphabet", "abc", "(a|b)*a|bc")
        assert code == 0 and out == "10\n"

    def test_classify_ambiguous(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--alphabet", "ab", "a*a")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "one-unambiguous: false"
        assert lines[1].startswith("witness: u=%e")
        assert lines[2] == "sore: false"

    def test_classify_sore(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--alphabet", "abc", "(a|b)+c")
        assert out.splitlines() == ["one-unambiguous: true", "sore: true"]

    def test_bad_symbol_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "parse", "--alphabet", "ab", "c")
        assert code == 2 and "c" in err

    def test_alphabet_file(self, capsys, tmp_path):
        f = tmp_path / "sigma.alpha"
        f.write_text("# walk labels\na(0,0)\na(0,1)\na(1,0)\na(1,1)\n")
        code, out, _ = run_cli(capsys, "size", "--alphabet-file", str(f),
                               "'a(0,0)''a(0,1)'")
        assert code == 0 and out == "3\n"


class TestPipelines:
    def test_to_nfa_to_regex_round_trip(self, capsys, monkeypatch):
        code, nfa_text, _ = run_cli(capsys, "to-nfa", "--alphabet", "ab", "(a|b)*a")
        assert code == 0 and nfa_text.startswith("automaton v1\n")
        code, rex_text, _ = run_cli(capsys, "to-regex", "-",
                                    stdin=nfa_text, monkeypatch=monkeypatch)
        assert code == 0
        code, out, _ = run_cli(capsys, "to-nfa", "--alphabet", "ab",
                               rex_text.strip())
        assert code == 0

    def test_to_dfa_minimal(self, capsys, monkeypatch):
        code, nfa_text, _ = run_cli(capsys, "to-nfa", "--alphabet", "ab", "(a|b)*a")
        code, dfa_text, _ = run_cli(capsys, "to-dfa", "--minimal", "-",
                                    stdin=nfa_text, monkeypatch=monkeypatch)
        assert code == 0 and "states: 2" in dfa_text

    def test_complement_routes_agree(self, capsys):
        _, poly, _ = run_cli(capsys, "complement", "--alphabet", "ab",
                             "--force-unambiguous", "aa*")
        _, naive, _ = run_cli(capsys, "complement", "--alphabet", "ab",
                              "--force-naive", "aa*")
        from rexlab.automata import equivalent, glushkov
        from rexlab.rex import Alphabet, parse
        sigma = Alphabet.of("a", "b")
        assert equivalent(glushkov(parse(poly.strip(), sigma), sigma),
                          glushkov(parse(naive.strip(), sigma), sigma))

    def test_intersect_sore_route(self, capsys):
        code, out, _ = run_cli(capsys, "intersect", "--alphabet", "abc",
                               "ab*", "a(b|c)*")
        assert code == 0
        from rexlab.automata import equivalent, glushkov
        from rexlab.rex import Alphabet, parse
        sigma = Alphabet.of("a", "b", "c")
        assert equivalent(glushkov(parse(out.strip(), sigma), sigma),
                          glushkov(parse("ab*", sigma), sigma))


class TestWitnessVerify:
    def test_witness_metadata_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "witness", "--family", "z-dfa", "--n", "2")
        assert code == 0
        assert out.startswith("automaton v1\n")
        meta = json.loads(err)
        assert meta["family"] == "z-dfa" and meta["n"] == 2

    def test_witness_regex_family(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--family",
                               "complement-witness", "--n", "1")
        assert code == 0 and out.count("\n") == 1

    def test_witness_list_family(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--family", "unamb-family",
                               "--n", "2")
        assert code == 0 and out.count("\n") == 5

    def test_accepts_paper_string(self, capsys, monkeypatch):
        _, aut, _ = run_cli(capsys, "witness", "--family", "k-dfa", "--n", "5")
        code, out, _ = run_cli(capsys, "verify", "--accepts",
                               "010$011#001$010#100$001#010$100#", "-",
                               stdin=aut, monkeypatch=monkeypatch)
        assert code == 0 and out == "accept\n"

    def test_reject_exit_code(self, capsys, monkeypatch):
        _, aut, _ = run_cli(capsys, "witness", "--family", "k-dfa", "--n", "2")
        code, out, _ = run_cli(capsys, "verify", "--accepts", "0$0#1$1#", "-",
                               stdin=aut, monkeypatch=monkeypatch)
        assert code == 1 and out == "reject\n"

    def test_equiv_divergent_word(self, capsys, tmp_path, monkeypatch):
        _, a_text, _ = run_cli(capsys, "to-nfa", "--alphabet", "ab", "a|ba")
        _, b_text, _ = run_cli(capsys, "to-nfa", "--alphabet", "ab", "a|ab")
        fa, fb = tmp_path / "a.aut", tmp_path / "b.aut"
        fa.write_text(a_text)
        fb.write_text(b_text)
        code, out, _ = run_cli(capsys, "verify", "--equiv", str(fa), str(fb))
        assert code == 1 and out == "divergent: a b\n"
        code, out, _ = run_cli(capsys, "verify", "--equiv", str(fa), str(fa))
        assert code == 0 and out == "equivalent\n"

    def test_equiv_determinises_each_input_once(self, capsys, tmp_path, monkeypatch):
        # A divergent verdict runs both the equivalence check and the
        # divergence search; the two NFA inputs are determinised once each.
        from rexlab import automata
        paths = []
        for name, regex in (("a.aut", "(a|b)*ab"), ("b.aut", "(a|b)*b")):
            _, text, _ = run_cli(capsys, "to-nfa", "--alphabet", "ab", regex)
            assert not isinstance(automata.parse_automaton(text), automata.Dfa)
            (tmp_path / name).write_text(text)
            paths.append(str(tmp_path / name))
        calls, determinize = [], automata.determinize

        def counting_determinize(a, **kwargs):
            calls.append(a)
            return determinize(a, **kwargs)

        monkeypatch.setattr(automata, "determinize", counting_determinize)
        code, out, err = run_cli(capsys, "verify", "--equiv", *paths)
        assert (code, out, err) == (1, "divergent: b\n", "")
        assert len(calls) == 2


class TestBenchAndBudget:
    def test_bench_csv(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--family", "m-sore-pair",
                               "--pipeline", "intersect-sore", "--n-range", "1..2")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "family,n,input_size,output_size,wall_ms"
        assert len(lines) == 3

    def test_budget_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "to-nfa", "--alphabet", "ab",
                               "--max-states", "2", "(a|b)*&(a|b)")
        assert code == 3 and "budget" in err

    def test_deadline_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REXLAB_BUDGET_MS", "0")
        code, _, err = run_cli(capsys, "bench", "--family", "m-sore-pair",
                               "--pipeline", "intersect-sore", "--n-range", "4..5")
        # the deadline fires inside the pipeline; rows get marked or the verb
        # aborts with the budget exit code
        assert code in (0, 3)

    def test_witness_regex_family_meets_deadline(self, capsys, monkeypatch):
        # Building, sizing and printing the family all poll the budget;
        # without those polls this call ran to exit 0 after about 3 s.
        monkeypatch.setenv("REXLAB_BUDGET_MS", "50")
        t0 = time.perf_counter()
        code, _, err = run_cli(capsys, "witness", "--family", "unamb-family", "--n", "150")
        elapsed = time.perf_counter() - t0
        assert code == 3 and err.startswith("rexlab: budget exceeded: ")
        assert elapsed < 1.0

    def test_witness_sore_pair_meets_deadline(self, capsys, monkeypatch):
        # Building the alphabet and the pair polls the budget; without those
        # polls this call exited 3 only after about 3 s.
        monkeypatch.setenv("REXLAB_BUDGET_MS", "50")
        t0 = time.perf_counter()
        code, _, err = run_cli(capsys, "witness", "--family", "m-sore-pair", "--n", "300")
        elapsed = time.perf_counter() - t0
        assert code == 3 and err.startswith("rexlab: budget exceeded: ")
        assert elapsed < 1.0

    @pytest.mark.parametrize("verb, last_step", [
        ("witness", "format_regex"), ("classify", "is_sore"), ("minsize", "format_regex")])
    def test_refused_last_step_prints_nothing(self, capsys, monkeypatch, tmp_path,
                                              verb, last_step):
        # A deadline can fire in the verb's last step, after the work that
        # decides its output; the refusal must still be the only output.
        f = tmp_path / "a.aut"
        f.write_text(run_cli(capsys, "to-nfa", "--alphabet", "ab", "a")[1])
        argv = {"witness": ["--family", "unamb-family", "--n", "2"],
                "classify": ["--alphabet", "ab", "a*a"],
                "minsize": [str(f), "--max-size", "3"]}[verb]

        def refuse(*_):
            raise BudgetExceededError("wall-clock budget exhausted")

        monkeypatch.setattr(cli, last_step, refuse)
        assert run_cli(capsys, verb, *argv) == (
            3, "", "rexlab: budget exceeded: wall-clock budget exhausted\n")

    def test_n_range_stays_lazy(self, capsys):
        assert cli._parse_n_range("1..1000000000000") == range(1, 10 ** 12 + 1)
        assert run_cli(capsys, "bench", "--family", "m-sore-pair", "--pipeline",
                       "intersect-sore", "--n-range", "1 3 2") == (
            2, "", "rexlab: error: parameter values must be strictly increasing\n")

    def test_index_verb(self, capsys):
        code, out, _ = run_cli(capsys, "index", "--alphabet", "ab",
                               "--word", "ab", "abab")
        assert code == 0 and out == "2\n"
        code, out, _ = run_cli(capsys, "index", "--alphabet", "ab",
                               "--word", "ab", "(ab)*")
        assert out == "infinite\n"

    def test_minsize_verb(self, capsys, monkeypatch):
        _, aut, _ = run_cli(capsys, "witness", "--family", "z-dfa", "--n", "2")
        code, out, err = run_cli(capsys, "minsize", "--max-size", "1", "-",
                                 stdin=aut, monkeypatch=monkeypatch)
        assert code == 0 and out == "none\n"
        log = json.loads(err)
        assert log["found"] is False and log["examined"] > 0


@pytest.mark.parametrize("argv", [
    ("verify", "--accepts", "zz", "{k2}"),
    ("size", "--alphabet", "a b", "a"),
    ("witness", "--family", "k-dfa", "--n", "1"),
    ("bench", "--family", "k-dfa", "--pipeline", "complement-naive", "--n-range", "x"),
])
def test_library_value_error_is_usage_error(capsys, tmp_path, argv):
    # Exit 1 means a negative verification, so a bad argument that the
    # library rejects with ValueError must exit 2 with a one-line message.
    _, aut, _ = run_cli(capsys, "witness", "--family", "k-dfa", "--n", "2")
    k2 = tmp_path / "k2.aut"
    k2.write_text(aut)
    code, out, err = run_cli(capsys, *(a.format(k2=k2) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("rexlab: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["abc", "-5", "nan"])
def test_bad_budget_env_is_usage_error(capsys, monkeypatch, value):
    # The variable is read after argument parsing; a value that is not a
    # non-negative number must not escape as a traceback with exit 1.
    monkeypatch.setenv("REXLAB_BUDGET_MS", value)
    code, out, err = run_cli(capsys, "size", "--alphabet", "a", "a")
    assert code == 2 and out == ""
    assert err.startswith("rexlab: error: REXLAB_BUDGET_MS") and err.count("\n") == 1


def test_deep_nesting_parses(capsys):
    text = "(" * 600 + "a" + ")" * 600
    assert run_cli(capsys, "size", "--alphabet", "a", text) == (0, "1\n", "")


DEEP = 10_000


def _nested(wrap):
    r = Sym("a")
    for _ in range(DEEP - 1):
        r = wrap(r)
    return format_regex(r)


DEEP_TEXTS = {
    "concat": lambda: _nested(lambda r: Concat(Sym("a"), r)),
    "union": lambda: _nested(lambda r: Union(Sym("b"), r)),
    "star": lambda: _nested(Star),
    "negate": lambda: _nested(Negate),
    "parens": lambda: "(" * DEEP + "a" + ")" * DEEP,
}
DEEP_VERBS = [("parse",), ("size",), ("classify",), ("to-nfa",), ("complement",),
              ("complement", "--force-naive"), ("intersect",), ("index", "--word", "ab")]


@pytest.mark.parametrize("shape", DEEP_TEXTS)
def test_deep_input_ends_in_a_documented_exit(capsys, monkeypatch, shape):
    # Text nested ten times deeper than the default recursion limit: every
    # regex verb ends in a result or a budget exit with at most one line on
    # stderr, and no exception escapes ``main``.
    monkeypatch.setenv("REXLAB_BUDGET_MS", "200")
    text = DEEP_TEXTS[shape]()
    for verb in DEEP_VERBS:
        texts = (text, text) if verb[0] == "intersect" else (text,)
        code, _, err = run_cli(capsys, *verb, "--alphabet", "ab", *texts)
        assert code in (0, 3) and err.count("\n") <= 1, (verb, code, err)


def test_index_foreign_symbol_is_usage_error(capsys):
    # A word symbol outside the declared alphabet is a usage error, as it is
    # for covers, not a repetition index of 0.
    code, out, err = run_cli(capsys, "index", "--alphabet", "ab", "--word", "c", "a*")
    assert code == 2 and out == ""
    assert err.startswith("rexlab: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("count", [10 ** 15, 10 ** 20])
def test_huge_state_count_is_usage_error(capsys, tmp_path, count):
    # Such a count must be refused before any table or index is allocated.
    f = tmp_path / "huge.aut"
    f.write_text(f"automaton v1\nalphabet: a\nstates: {count}\ninitial: 0\nfinals:\n")
    code, out, err = run_cli(capsys, "to-dfa", str(f))
    assert code == 2 and out == ""
    assert err.startswith("rexlab: error: ") and err.count("\n") == 1


def test_memory_error_is_budget_exit(capsys, monkeypatch):
    def exhausted(_):
        raise MemoryError

    monkeypatch.setattr("rexlab.cli.size", exhausted)
    code, out, err = run_cli(capsys, "size", "--alphabet", "a", "a")
    assert code == 3 and out == ""
    assert err.startswith("rexlab: budget exceeded: ") and err.count("\n") == 1


def test_polynomial_complement_of_long_chain(capsys):
    # 1,500 symbols parse to a left-nested concatenation far deeper than the
    # recursion limit; the polynomial route must still print its complement.
    from rexlab.rex import Alphabet, format_regex, parse
    from rexlab.unambiguous import complement_unambiguous
    text = "a" * 1500
    code, out, err = run_cli(capsys, "complement", "--force-unambiguous",
                             "--alphabet", "ab", text)
    assert (code, err) == (0, "")
    sigma = Alphabet.of("a", "b")
    assert out == format_regex(complement_unambiguous(parse(text, sigma), sigma)) + "\n"


DETERMINISM_ARGVS = [
    ("parse", "--alphabet", "abc", "(a|b)*a|bc"),
    ("to-nfa", "--alphabet", "ab", "(a|b)*abb"),
    ("witness", "--family", "k-dfa", "--n", "3"),
    ("witness", "--family", "unamb-family", "--n", "2"),
    ("complement", "--alphabet", "ab", "aa*"),
    ("intersect", "--alphabet", "abc", "ab*", "a(b|c)*"),
]

# Runs each argv of a JSON list through ``main`` and prints the exit codes
# and stdouts as JSON.
HASH_SEED_PROBE = """\
import contextlib, io, json, sys
from rexlab.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


class TestDeterminism:
    @pytest.mark.parametrize("argv", DETERMINISM_ARGVS)
    def test_byte_identical_stdout(self, capsys, argv):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_stdout_does_not_depend_on_the_hash_seed(self, tmp_path):
        # String hashes, and with them the order of sets of symbol names,
        # change with PYTHONHASHSEED; two calls in one process cannot see it.
        sigma = tmp_path / "sigma.alpha"
        sigma.write_text("x1\nx2\ny\n")
        named = ["--alphabet-file", str(sigma)]
        argvs = [list(argv) for argv in DETERMINISM_ARGVS] + [
            ["witness", "--family", "m-sore-pair", "--n", "2"],
            *(["intersect", *named, "--method", method, "('x1'|'x2')*'y'", "'x1'*('x2'|'y')*"]
              for method in ("sore", "product")),
            ["complement", *named, "'x1''x2'*'y'"],
            ["complement", *named, "--force-naive", "'x1''x2'*'y'"],
        ]
        src = str(Path(rexlab.__file__).resolve().parents[1])
        runs = []
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            out = subprocess.run([sys.executable, "-c", HASH_SEED_PROBE, json.dumps(argvs)],
                                 capture_output=True, text=True, env=env, timeout=120)
            assert out.returncode == 0, out.stderr
            runs.append(json.loads(out.stdout))
        assert [code for code, _ in runs[0]] == [0] * len(argvs)
        assert runs[0] == runs[1]


def run_argv(capsys, argv):
    """``run_cli`` that also returns argparse's ``SystemExit`` code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserReuse:
    def test_built_at_most_once(self, capsys, monkeypatch):
        built, build = [], cli.build_parser

        def counting_build():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        for i in range(20):
            verb = ("parse", "size", "to-nfa")[i % 3]
            code, out, _ = run_cli(capsys, verb, "--alphabet", "ab", "(a|b)*a")
            assert code == 0 and out
        assert len(built) <= 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_calls_stay_independent(self, capsys, monkeypatch, tmp_path):
        _, a_text, _ = run_cli(capsys, "to-nfa", "--alphabet", "ab", "a|ba")
        _, b_text, _ = run_cli(capsys, "to-nfa", "--alphabet", "ab", "a|ab")
        fa, fb = tmp_path / "a.aut", tmp_path / "b.aut"
        fa.write_text(a_text)
        fb.write_text(b_text)
        good = ("size", "--alphabet", "ab", "(a|b)*a")
        sequence = [
            ("complement", "--force-naive", "--alphabet", "ab", "a*b"),
            ("complement", "--alphabet", "ab", "a*b"),
            ("verify", "--accepts", "ba", str(fa)),
            ("verify", "--equiv", str(fa), str(fb)),
            ("verify", "--accepts", "a", str(fb)),
            good,
            ("size", "--alphabet", "ab"),  # missing regex: SystemExit(2)
            good,
            ("complement", "--force-naive", "--force-unambiguous",
             "--alphabet", "ab", "a"),  # exclusive options: SystemExit(2)
            ("intersect", "--method", "product", "--alphabet", "ab", "a*", "aa*"),
            ("intersect", "--alphabet", "ab", "a*", "aa*"),
            ("no-such-verb",),
            good,
        ]
        reused = [run_argv(capsys, argv) for argv in sequence]
        with monkeypatch.context() as m:
            m.setattr(cli, "_parser", cli.build_parser)
            fresh = [run_argv(capsys, argv) for argv in sequence]
        assert reused == fresh
        codes = [code for code, _, _ in reused]
        assert codes == [0, 0, 0, 1, 0, 0, 2, 0, 2, 0, 0, 2, 0]
        assert reused[0][1] != reused[1][1]  # the naive route is not reused


# ---------------------------------------------------------------------------
# Fuzzing the verbs that compile a regex or read an automaton file
# ---------------------------------------------------------------------------

_REGEX_PIECES = ["a", "b", "c", "ab", "(", ")", "|", "&", "!", "*", "+", "%e", "%0",
                 "%x", "%", "'a'", "'", " ", "z", "\u00e9", "a(0,1)"]
_LETTERS = ["abc", "abc", "abc", "ab", "a", "", "aa", "a b"]
_BUDGETS = ["-1", "0", "1", "2", "3", "5", "10", "1000", "1000000", "1000000", "1000000",
            str(2 ** 40)]
_WELL_FORMED = st.recursive(
    st.sampled_from(["a", "b", "c", "%e", "%0"]),
    lambda inner: st.one_of(
        inner.map("({})*".format), inner.map("({})+".format), inner.map("!({})".format),
        st.tuples(inner, inner).map("({0[0]})({0[1]})".format),
        st.tuples(inner, inner).map("({0[0]})|({0[1]})".format),
        st.tuples(inner, inner).map("({0[0]})&({0[1]})".format)),
    max_leaves=6)
_REGEX_TEXTS = st.one_of(_WELL_FORMED,
                         st.lists(st.sampled_from(_REGEX_PIECES), max_size=8).map("".join))
_FIELD_VALUES = ["-1", "0", "1", "2", "99", str(2 ** 31), "x", "", "a", "zz", "0 0", "%"]


def _automaton_texts():
    from rexlab.automata import determinize, glushkov, minimize, serialize
    from rexlab.rex import Alphabet, parse
    sigma = Alphabet.of("a", "b")
    nfa = glushkov(parse("(a|b)*ab", sigma), sigma)
    return [serialize(nfa), serialize(minimize(determinize(nfa))),
            serialize(glushkov(parse("a*|b", sigma), sigma))]


@st.composite
def automaton_files(draw):
    """A valid automaton text, or one with a line dropped, repeated or one
    field replaced."""
    lines = draw(st.sampled_from(_automaton_texts())).splitlines()
    kind = draw(st.sampled_from(["keep", "drop", "repeat", "field"]))
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        del lines[i]
    elif kind == "repeat":
        lines.insert(i, lines[i])
    elif kind == "field":
        fields = lines[i].split(" ")
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(_FIELD_VALUES))
        lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


@st.composite
def fuzz_argv(draw):
    """``(verb, argv, files)``: the files are written before the call, and
    ``{0}``/``{1}`` in the argv name them."""
    verb = draw(st.sampled_from(["complement", "index", "to-nfa", "to-dfa", "to-regex",
                                 "verify"]))
    regex = draw(_REGEX_TEXTS)
    letters = draw(st.sampled_from(_LETTERS))
    budget = draw(st.sampled_from(_BUDGETS))
    files = []
    if verb == "complement":
        mode = draw(st.sampled_from([[], ["--force-naive"], ["--force-unambiguous"]]))
        argv = [verb, "--alphabet", letters, regex, *mode, "--max-states", budget]
        if draw(st.booleans()):
            argv += ["--max-size", draw(st.sampled_from(_BUDGETS))]
    elif verb == "index":
        word = "".join(draw(st.lists(st.sampled_from(["a", "b", "c", "x", " "]), max_size=3)))
        argv = [verb, "--alphabet", letters, "--word", word, regex]
    elif verb == "to-nfa":
        argv = [verb, "--alphabet", letters, regex, "--max-states", budget]
    else:
        files = [draw(automaton_files()) for _ in range(2 if verb == "verify" else 1)]
        if verb == "to-dfa":
            argv = [verb, "{0}", "--max-states", budget] + draw(st.sampled_from([[], ["--minimal"]]))
        elif verb == "to-regex":
            argv = [verb, "{0}", "--max-size", budget]
        else:
            argv = [verb, "--equiv", "{0}", "{1}", "--max-states", budget]
    return verb, argv, files


@settings(max_examples=200)
@given(fuzz_argv())
def test_fuzzed_argv_ends_in_a_documented_exit(case):
    # Every input ends in 0, 2 (usage) or 3 (budget), or in 1 from verify's
    # negative verdict; a failure prints one "rexlab:" line and no traceback.
    verb, argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate(files):
            path = Path(tmp) / f"{i}.aut"
            path.write_text(text)
            paths.append(str(path))
        argv = [arg.format(*paths) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    err = err.getvalue()
    assert code in ((0, 1, 2, 3) if verb == "verify" else (0, 2, 3)), (argv, err)
    assert "Traceback" not in err
    if code in (2, 3):
        assert err.startswith("rexlab: ") and err.count("\n") == 1, (argv, err)
        assert out.getvalue() == ""


_N_RANGES = ["1..2", "1..3", "2..1", "1,1", "1,2", "x", "1..", "..", "", "1", "0..1",
             "-1", "1 3", "2"]
_DEADLINES = ["0", "1", "20", "50"]  # caps witness, bench and minsize draws


@st.composite
def fuzz_other_argv(draw):
    """``(verb, argv, files, stdin, deadline)`` for the verbs ``fuzz_argv``
    does not draw: ``{0}`` in the argv names the one file, ``-`` (or no
    automaton) reads ``stdin``, and ``deadline`` is ``REXLAB_BUDGET_MS``."""
    from rexlab.analysis import PIPELINES
    from rexlab.witnesses import FAMILIES
    verb = draw(st.sampled_from(["parse", "size", "classify", "intersect", "witness",
                                 "bench", "minsize", "verify"]))
    budget = draw(st.sampled_from(_BUDGETS))
    deadline = draw(st.sampled_from(_DEADLINES + ["", "", "inf", "nan", "-5", "abc"]))
    files, stdin = [], ""
    if verb in ("parse", "size", "classify"):
        regex = draw(_REGEX_TEXTS)
        if draw(st.booleans()):
            regex, stdin = "-", regex
        argv = [verb, "--alphabet", draw(st.sampled_from(_LETTERS)), regex]
    elif verb == "intersect":
        regexes = draw(st.lists(_REGEX_TEXTS, min_size=1, max_size=3))
        method = draw(st.sampled_from(["auto", "sore", "product"]))
        argv = [verb, "--alphabet", draw(st.sampled_from(_LETTERS)), *regexes,
                "--method", method, "--max-states", budget]
        if draw(st.booleans()):
            argv += ["--max-size", draw(st.sampled_from(_BUDGETS))]
    elif verb == "witness":
        deadline = draw(st.sampled_from(_DEADLINES))
        argv = [verb, "--family", draw(st.sampled_from(FAMILIES)),
                "--n", draw(st.sampled_from(["-1", "0", "1", "2", "3", "5", "40"]))]
    elif verb == "bench":
        deadline = draw(st.sampled_from(_DEADLINES))
        argv = [verb, "--family", draw(st.sampled_from(FAMILIES)),
                "--pipeline", draw(st.sampled_from(PIPELINES)),
                "--n-range", draw(st.sampled_from(_N_RANGES)), "--max-states", budget]
        if draw(st.booleans()):
            argv += ["--max-size", draw(st.sampled_from(_BUDGETS))]
    else:
        text = draw(automaton_files())
        source = draw(st.sampled_from([["{0}"], ["-"], []]))
        if source == ["{0}"]:
            files = [text]
        else:
            stdin = text
        if verb == "minsize":
            deadline = draw(st.sampled_from(_DEADLINES))
            argv = [verb, *source, "--max-size",
                    draw(st.sampled_from(["-1", "0", "1", "3", "5", "9", "10"])),
                    "--max-states", budget]
        else:
            word = draw(st.sampled_from(["", "a", "ab", "ba", "a b", "abba", "c"]))
            argv = [verb, "--accepts", word, *source, "--max-states", budget]
    return verb, argv, files, stdin, deadline


@settings(max_examples=200, derandomize=True)
@given(fuzz_other_argv())
def test_fuzzed_other_verbs_end_in_a_documented_exit(case):
    # The same contract as above, for the verbs left: stdin input and a
    # wall-clock deadline included.
    verb, argv, files, stdin, deadline = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate(files):
            path = Path(tmp) / f"{i}.aut"
            path.write_text(text)
            paths.append(str(path))
        argv = [arg.format(*paths) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, {"REXLAB_BUDGET_MS": deadline}), \
                mock.patch.object(sys, "stdin", io.StringIO(stdin)), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    err = err.getvalue()
    assert code in ((0, 1, 2, 3) if verb == "verify" else (0, 2, 3)), (argv, err)
    assert "Traceback" not in err
    if code in (2, 3):
        assert err.startswith("rexlab: ") and err.count("\n") == 1, (argv, err)
        assert out.getvalue() == ""


def test_automaton_above_the_state_budget_is_budget_exit(capsys, tmp_path):
    # The state count is checked before the table is allocated.
    f = tmp_path / "big.aut"
    f.write_text("automaton v1\nalphabet: a\nstates: 4000000\ninitial: 0\nfinals:\n")
    code, out, err = run_cli(capsys, "to-dfa", "--max-states", "10", str(f))
    assert (code, out) == (3, "")
    assert err == "rexlab: budget exceeded: automaton file of 4000000 states exceeds 10 states\n"


def test_import_builds_no_parser():
    # Building the parser is the largest fixed cost of a call; importing the
    # CLI must not pay it, only the first ``main`` call.
    probe = """\
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import rexlab, rexlab.cli
print(len(built))
"""
    src = str(Path(rexlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=env, timeout=60)
    assert (out.returncode, out.stdout) == (0, "0\n"), out.stderr


SCRIPT_ARGV = ["size", "--alphabet", "a", "a*"]

# What the console-script wrapper generated at install time does.
SCRIPT_WRAPPER = """\
import importlib, sys
module, attr = sys.argv.pop(1), sys.argv.pop(1)
entry = getattr(importlib.import_module(module), attr)
sys.argv[0] = "rexlab"
sys.exit(entry())
"""


def assert_prints_two(cmd, env=None):
    out = subprocess.run(cmd, capture_output=True, text=True, env=env,
                         timeout=60)
    assert (out.returncode, out.stdout) == (0, "2\n"), out.stderr


def test_console_script_installed():
    """The declared `rexlab` entry point runs the CLI in a fresh process.

    The wrapper is replayed from `pyproject.toml`, so no install is needed;
    an installed `rexlab` on PATH is run as well.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        spec = tomllib.load(f)["project"]["scripts"]["rexlab"]
    module, sep, attr = spec.partition(":")
    assert sep and module and attr, spec

    src = str(Path(rexlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    assert_prints_two([sys.executable, "-c", SCRIPT_WRAPPER,
                       module, attr, *SCRIPT_ARGV], env=env)

    installed = shutil.which("rexlab")
    if installed:
        assert_prints_two([installed, *SCRIPT_ARGV])
