import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from rexlab.budget import CancelToken
from rexlab.rex import (EMPTY, EPSILON, Concat, Intersect, MarkedSymbol, Negate, Plus, Star,
                        Sym, Union)

settings.register_profile(
    "rexlab",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("rexlab")


class CountingToken(CancelToken):
    """A token that counts the checkpoints polled under it."""

    def __init__(self):
        super().__init__()
        self.polls = 0

    def check(self):
        self.polls += 1
        super().check()


def regexes(syms="ab", max_leaves=6, with_empty=True):
    """Hypothesis strategy for plain regex trees over the given symbols."""
    leaves = [Sym(s) for s in syms] + [EPSILON]
    if with_empty:
        leaves.append(EMPTY)
    leaf = st.sampled_from(leaves)
    return st.recursive(
        leaf,
        lambda children: st.one_of(
            st.builds(Star, children),
            st.builds(Plus, children),
            st.builds(Concat, children, children),
            st.builds(Union, children, children),
        ),
        max_leaves=max_leaves,
    )


def extended_regexes(syms="ab", max_leaves=6):
    """Hypothesis strategy for trees with every node class, intersection and
    negation included; one leaf is a marked symbol, which no alphabet holds."""
    leaves = [Sym(s) for s in syms] + [EPSILON, EMPTY, Sym(MarkedSymbol(syms[0], 1))]
    return st.recursive(
        st.sampled_from(leaves),
        lambda children: st.one_of(
            st.builds(Star, children),
            st.builds(Plus, children),
            st.builds(Negate, children),
            st.builds(Concat, children, children),
            st.builds(Union, children, children),
            st.builds(Intersect, children, children),
        ),
        max_leaves=max_leaves,
    )


@pytest.fixture(scope="session")
def ab_alphabet():
    from rexlab.rex import Alphabet
    return Alphabet.of("a", "b")
