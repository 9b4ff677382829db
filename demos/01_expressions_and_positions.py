"""Expressions: parsing, printing, sizes and position sets.

The text syntax: `|` union, juxtaposition concatenation, postfix `*`/`+`,
`&` intersection, prefix `!` negation, `%e` / `%0` for the empty word and the
empty language, quotes for multi-character symbol names.
"""

from rexlab import (
    Alphabet,
    format_regex,
    parse,
    position_sets,
    repeat_upto,
    size,
)

sigma = Alphabet.of("a", "b", "c")

r = parse("(a|b)*a|bc", sigma)
print("expression:   ", format_regex(r))
print("reverse-Polish size:", size(r))

# Positions are the symbol occurrences, subscripted left to right.  Their
# sets drive everything downstream: which positions can start a word, end a
# word, and follow each other.
sets = position_sets(r)
print("positions:    ", " ".join(str(p) for p in sets.positions))
print("nullable:     ", sets.nullable)
print("first:        ", sorted(str(x) for x in sets.first))
print("last:         ", sorted(str(x) for x in sets.last))
print("follow:       ", sorted(f"{x}>{y}" for x, y in sets.follow))

# Bounded repetition r^[0,n] as the nested linear-size form.
bounded = repeat_upto(parse("ab", sigma), 3)
print("up to 3 copies of ab:", format_regex(bounded), "| size", size(bounded))
