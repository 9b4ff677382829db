"""Command line front end.

Exit codes: 0 success, 1 negative verification, 2 usage error, 3 budget
exceeded.  Verbs that emit an automaton or a regex write exactly the
documented file format to stdout (one regex per line for expression output);
consumers read files or stdin via ``-``.  ``REXLAB_BUDGET_MS`` caps a single
invocation's wall time; Ctrl-C cancels cooperatively.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import sys
from typing import Optional, Sequence

from . import budget
from .analysis import (
    MAX_SEARCH_SIZE,
    PIPELINES,
    _as_nfa,
    blowup_report,
    minimal_regex_size,
    word_index,
)
from .automata import (
    Dfa,
    Nfa,
    _dfa_pair,
    complement_dfa,
    determinize,
    eliminate_states,
    equivalent,
    extended_to_nfa,
    minimize,
    parse_automaton,
    product,
    serialize,
    shortest_divergence,
    accepts,
)
from .rex import (
    Alphabet,
    Regex,
    RexlabError,
    format_regex,
    has_extended,
    parse,
    size,
)
from .unambiguous import (
    complement_unambiguous,
    intersect_sores,
    is_one_unambiguous,
    is_sore,
)
from .witnesses import FAMILIES, build_bundle

USAGE_ERROR, BUDGET_ERROR = 2, 3


def _alphabet_args(p: argparse.ArgumentParser):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--alphabet", metavar="CHARS",
                       help="alphabet given as a string of single-character symbols")
    group.add_argument("--alphabet-file", metavar="FILE",
                       help="alphabet file: one symbol name per line, '#' comments")


def _get_alphabet(args) -> Alphabet:
    if args.alphabet is not None:
        return Alphabet.from_chars(args.alphabet)
    with open(args.alphabet_file, encoding="utf-8") as fh:
        return Alphabet.from_text(fh.read())


def _read_text(spec: Optional[str]) -> str:
    if spec is None or spec == "-":
        return sys.stdin.read()
    with open(spec, encoding="utf-8") as fh:
        return fh.read()


def _read_regex(args, alphabet: Alphabet) -> Regex:
    text = args.regex
    if text == "-":
        text = sys.stdin.read().strip()
    return parse(text, alphabet)


def _read_automaton(spec: Optional[str],
                    max_states: int = budget.DEFAULT_MAX_STATES) -> Nfa:
    return parse_automaton(_read_text(spec), max_states=max_states)


def _parse_word(text: str, alphabet: Alphabet) -> tuple[str, ...]:
    # Single-character alphabets take words as plain character strings;
    # otherwise the word is whitespace-separated symbol names.
    if all(len(name) == 1 for name in alphabet):
        return tuple(text)
    return tuple(text.split())


def _emit_regex(r: Regex):
    sys.stdout.write(format_regex(r) + "\n")


def _emit_automaton(a: Nfa):
    sys.stdout.write(serialize(a))


def _parse_n_range(text: str) -> Sequence[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(int(lo), int(hi) + 1)
    return [int(part) for part in text.replace(",", " ").split()]


# ---------------------------------------------------------------------------
# Verb implementations
# ---------------------------------------------------------------------------

def _cmd_parse(args) -> int:
    _emit_regex(_read_regex(args, _get_alphabet(args)))
    return 0


def _cmd_size(args) -> int:
    sys.stdout.write(f"{size(_read_regex(args, _get_alphabet(args)))}\n")
    return 0


def _cmd_classify(args) -> int:
    r = _read_regex(args, _get_alphabet(args))
    if has_extended(r):
        sys.stdout.write("one-unambiguous: n/a (extended operators)\n")
        sys.stdout.write("sore: false\n")
        return 0
    report = is_one_unambiguous(r)
    text = f"one-unambiguous: {'true' if report.is_one_unambiguous else 'false'}\n"
    if report.witness is not None:
        u, x, y = report.witness
        shown = " ".join(str(m) for m in u) if u else "%e"
        text += f"witness: u={shown} x={x} y={y}\n"
    # Written once the last check is done, so that a refusal prints nothing.
    sys.stdout.write(text + f"sore: {'true' if is_sore(r) else 'false'}\n")
    return 0


def _cmd_to_nfa(args) -> int:
    sigma = _get_alphabet(args)
    _emit_automaton(_as_nfa(_read_regex(args, sigma), sigma, args.max_states))
    return 0


def _cmd_to_dfa(args) -> int:
    a = _read_automaton(args.automaton, args.max_states)
    d = a if isinstance(a, Dfa) else determinize(a, max_states=args.max_states)
    if args.minimal:
        d = minimize(d)
    _emit_automaton(d)
    return 0


def _cmd_to_regex(args) -> int:
    a = _read_automaton(args.automaton)
    _emit_regex(eliminate_states(a, max_size=args.max_size))
    return 0


def _cmd_complement(args) -> int:
    sigma = _get_alphabet(args)
    r = _read_regex(args, sigma)
    # The flags are mutually exclusive; with neither, the input picks the route.
    if args.force_unambiguous or (not (args.force_naive or has_extended(r))
                                  and is_one_unambiguous(r).is_one_unambiguous):
        _emit_regex(complement_unambiguous(r, sigma))
    else:
        # The minimal DFA is canonical, so the compile route cannot show.
        nfa = _as_nfa(r, sigma, args.max_states)
        dfa = minimize(determinize(nfa, max_states=args.max_states))
        _emit_regex(eliminate_states(complement_dfa(dfa), max_size=args.max_size))
    return 0


def _cmd_intersect(args) -> int:
    sigma = _get_alphabet(args)
    exprs = [parse(text, sigma) for text in args.regexes]
    method = args.method
    if method == "auto":
        method = "sore" if all(is_sore(r) for r in exprs) else "product"
    if method == "sore":
        _emit_regex(intersect_sores(exprs, sigma))
    else:
        acc = extended_to_nfa(exprs[0], sigma, max_states=args.max_states)
        for r in exprs[1:]:
            acc = product(acc, extended_to_nfa(r, sigma, max_states=args.max_states),
                          max_states=args.max_states)
        _emit_regex(eliminate_states(acc, max_size=args.max_size))
    return 0


def _cmd_witness(args) -> int:
    bundle = build_bundle(args.family, args.n)
    payload = bundle.payload
    if isinstance(payload, Nfa):
        text = serialize(payload)
    else:
        exprs = [payload] if isinstance(payload, Regex) else payload
        text = "".join(format_regex(r) + "\n" for r in exprs)
    # Written once all of it is rendered, so that a refusal prints nothing.
    sys.stderr.write(json.dumps(bundle.metadata(), sort_keys=True) + "\n")
    sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    if args.accepts is not None:
        a = _read_automaton(args.automaton, args.max_states)
        word = _parse_word(args.accepts, a.alphabet)
        if accepts(a, word):
            sys.stdout.write("accept\n")
            return 0
        sys.stdout.write("reject\n")
        return 1
    a = _read_automaton(args.equiv[0], args.max_states)
    b = _read_automaton(args.equiv[1], args.max_states)
    # Determinised once here, so that a divergent verdict does not repeat it.
    a, b = _dfa_pair(a, b, args.max_states)
    if equivalent(a, b, max_states=args.max_states):
        sys.stdout.write("equivalent\n")
        return 0
    word = shortest_divergence(a, b, max_states=args.max_states)
    shown = " ".join(word) if word else "%e"
    sys.stdout.write(f"divergent: {shown}\n")
    return 1


def _cmd_bench(args) -> int:
    report = blowup_report(args.family, _parse_n_range(args.n_range), args.pipeline,
                           max_states=args.max_states, max_output=args.max_size)
    sys.stdout.write(report.to_csv())
    return 0


def _cmd_index(args) -> int:
    sigma = _get_alphabet(args)
    r = _read_regex(args, sigma)
    word = _parse_word(args.word, sigma)
    result = word_index(r, word, sigma)
    sys.stdout.write(f"{result.value}\n" if result.finite else "infinite\n")
    return 0


def _cmd_minsize(args) -> int:
    a = _read_automaton(args.automaton, args.max_states)
    d = a if isinstance(a, Dfa) else determinize(a, max_states=args.max_states)
    result = minimal_regex_size(d, args.max_size)
    log = {"max_size": args.max_size, "examined": result.examined,
           "found": result.minimal_size is not None,
           "minimal_size": result.minimal_size}
    text = "none\n"
    if result.minimal_size is not None:
        text = f"{result.minimal_size}\n{format_regex(result.witness)}\n"
    sys.stderr.write(json.dumps(log, sort_keys=True) + "\n")
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """A new parser for the whole command line, one subparser per verb."""
    parser = argparse.ArgumentParser(
        prog="rexlab",
        description="Regular expression algebra: conversions, complements, "
                    "intersections, witness families, verification and benchmarks.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        return p

    p = add("parse", _cmd_parse, "parse a regex and print its canonical text")
    _alphabet_args(p)
    p.add_argument("regex", help="regex text, or - for stdin")

    p = add("size", _cmd_size, "reverse-Polish size of a regex")
    _alphabet_args(p)
    p.add_argument("regex")

    p = add("classify", _cmd_classify, "one-unambiguity and SORE classification")
    _alphabet_args(p)
    p.add_argument("regex")

    p = add("to-nfa", _cmd_to_nfa, "compile a regex to an NFA (position automaton "
                                   "for plain input)")
    _alphabet_args(p)
    p.add_argument("regex")
    p.add_argument("--max-states", type=int, default=budget.DEFAULT_MAX_STATES)

    p = add("to-dfa", _cmd_to_dfa, "determinise an automaton")
    p.add_argument("automaton", nargs="?", help="automaton file, or -/omitted for stdin")
    p.add_argument("--minimal", action="store_true", help="minimise after determinising")
    p.add_argument("--max-states", type=int, default=budget.DEFAULT_MAX_STATES)

    p = add("to-regex", _cmd_to_regex, "state-eliminate an automaton to a plain regex")
    p.add_argument("automaton", nargs="?")
    p.add_argument("--max-size", type=int, default=None,
                   help="cap on constructed regex nodes")

    p = add("complement", _cmd_complement, "complement a regex")
    _alphabet_args(p)
    p.add_argument("regex")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--force-naive", action="store_true",
                      help="always use the determinise-complement-eliminate route")
    mode.add_argument("--force-unambiguous", action="store_true",
                      help="always use the polynomial one-unambiguous route")
    p.add_argument("--max-states", type=int, default=budget.DEFAULT_MAX_STATES)
    p.add_argument("--max-size", type=int, default=None)

    p = add("intersect", _cmd_intersect, "intersect regexes")
    _alphabet_args(p)
    p.add_argument("regexes", nargs="+")
    p.add_argument("--method", choices=("auto", "sore", "product"), default="auto")
    p.add_argument("--max-states", type=int, default=budget.DEFAULT_MAX_STATES)
    p.add_argument("--max-size", type=int, default=None)

    p = add("witness", _cmd_witness, "generate a witness family member")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("verify", _cmd_verify, "verify membership or equivalence")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--accepts", metavar="WORD",
                       help="test whether the automaton accepts the word")
    group.add_argument("--equiv", nargs=2, metavar=("A", "B"),
                       help="test language equality of two automaton files")
    p.add_argument("automaton", nargs="?", help="automaton for --accepts")
    p.add_argument("--max-states", type=int, default=budget.DEFAULT_MAX_STATES)

    p = add("bench", _cmd_bench, "blow-up measurements as CSV")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--pipeline", choices=PIPELINES, required=True)
    p.add_argument("--n-range", required=True, help="e.g. 1..3 or '1 2 3'")
    p.add_argument("--max-states", type=int, default=budget.DEFAULT_MAX_STATES)
    p.add_argument("--max-size", type=int, default=2_000_000)

    p = add("index", _cmd_index, "repetition index of a word in a language")
    _alphabet_args(p)
    p.add_argument("--word", required=True)
    p.add_argument("regex")

    p = add("minsize", _cmd_minsize, "exhaustive minimal defining-regex search")
    p.add_argument("automaton", nargs="?")
    p.add_argument("--max-size", type=int, default=MAX_SEARCH_SIZE)
    p.add_argument("--max-states", type=int, default=budget.DEFAULT_MAX_STATES)

    return parser


def _deadline_ms() -> Optional[float]:
    """The wall-clock budget from ``REXLAB_BUDGET_MS``, if it is set."""
    text = os.environ.get("REXLAB_BUDGET_MS")
    if not text:
        return None
    try:
        value = float(text)
        if value >= 0:  # also rejects NaN, which would never expire
            return value
    except ValueError:
        pass
    raise ValueError(f"REXLAB_BUDGET_MS must be a non-negative number of "
                     f"milliseconds, not {text!r}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one invocation and return its exit code.

    The argument parser is built on the first call and reused by every later
    call in the process: building its subparsers costs far more than parsing
    one argv, and parsing leaves no state behind.  Importing this module
    builds nothing.
    """
    args = _parser().parse_args(argv)

    previous = None
    try:
        token = budget.CancelToken(deadline_ms=_deadline_ms())
        try:
            previous = signal.signal(signal.SIGINT, lambda *_: token.cancel())
        except ValueError:
            pass  # not in the main thread; cooperative deadline still applies
        with budget.active(token):
            return args.fn(args)
    except budget.BudgetExceededError as exc:
        sys.stderr.write(f"rexlab: budget exceeded: {exc}\n")
        return BUDGET_ERROR
    except KeyboardInterrupt:
        sys.stderr.write("rexlab: interrupted\n")
        return BUDGET_ERROR
    except MemoryError:
        sys.stderr.write("rexlab: budget exceeded: out of memory\n")
        return BUDGET_ERROR
    except (RexlabError, ValueError) as exc:
        sys.stderr.write(f"rexlab: error: {exc}\n")
        return USAGE_ERROR
    except OSError as exc:
        sys.stderr.write(f"rexlab: {exc}\n")
        return USAGE_ERROR
    finally:
        if previous is not None:
            signal.signal(signal.SIGINT, previous)


if __name__ == "__main__":
    sys.exit(main())
