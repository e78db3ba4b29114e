"""Shared generators for the differential property suites.

Both differential harnesses — optimizer equivalence
(:mod:`test_prop_optimizer`) and dictionary-encoded engine vs. string
oracle (:mod:`test_prop_dictionary`) — draw from the same query
strategies and the same per-process dataspace cache, so a query shape
that breaks one layer is automatically thrown at the others.

Comparison types are constrained per attribute (``size`` is numeric,
``modified`` temporal, ``label`` textual) so every generated plan
evaluates without type errors — a divergence can then only mean a
genuine engine/optimizer bug.
"""

from __future__ import annotations

import string
from datetime import datetime

from hypothesis import strategies as st

from repro.dataset import TINY_PROFILE
from repro.facade import Dataspace
from repro.imapsim.latency import no_latency
from repro.query.ast import (
    Axis,
    CompareOp,
    Comparison,
    IntersectExpr,
    KeywordAtom,
    Literal,
    PathExpr,
    PredAnd,
    PredicateExpr,
    PredNot,
    PredOr,
    Step,
    UnionExpr,
)

# -- randomized dataspaces ----------------------------------------------------
# Built once per process (hypothesis replays hundreds of examples; a
# per-example dataspace would dominate the runtime). Two seeds give two
# different catalogs/graphs; strategies pick one per example.

_SPACES: dict[int, Dataspace] = {}
SEEDS = (3, 9)


def space(index: int) -> Dataspace:
    seed = SEEDS[index]
    if seed not in _SPACES:
        dataspace = Dataspace.generate(
            profile=TINY_PROFILE, seed=seed, imap_latency=no_latency(),
        )
        dataspace.sync()
        _SPACES[seed] = dataspace
    return _SPACES[seed]


# -- query strategies ---------------------------------------------------------
# A vocabulary mixing words that occur in the generated corpora with
# ones that never do, so result sets range from empty to large.

WORDS = st.sampled_from([
    "database", "tuning", "vision", "section", "figure", "indexing",
    "the", "paper", "dataspace", "xyzzy", "qwxzv",
])
NAME_TESTS = st.one_of(
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6),
    st.sampled_from(["*.tex", "*.txt", "Vision*", "?eadme", "*2005*"]),
)
CLASSES = st.sampled_from([
    "file", "folder", "latex_section", "environment", "figure",
    "texref", "emailmessage", "no_such_class",
])
_ALL_OPS = st.sampled_from(list(CompareOp))
_EQ_NE = st.sampled_from([CompareOp.EQ, CompareOp.NE])

COMPARISONS = st.one_of(
    st.builds(Comparison, st.just("size"), _ALL_OPS,
              st.integers(0, 200_000).map(Literal)),
    st.builds(Comparison, st.just("modified"), _ALL_OPS,
              st.dates(min_value=datetime(2000, 1, 1).date(),
                       max_value=datetime(2026, 1, 1).date())
                .map(lambda d: Literal(datetime(d.year, d.month, d.day)))),
    st.builds(Comparison, st.just("label"), _EQ_NE, WORDS.map(Literal)),
    st.builds(Comparison, st.just("class"), _EQ_NE, CLASSES.map(Literal)),
    st.builds(Comparison, st.just("name"), _EQ_NE, WORDS.map(Literal)),
)


@st.composite
def predicates(draw, depth=0):
    if depth >= 2:
        return draw(st.one_of(
            WORDS.map(lambda t: KeywordAtom(t, is_phrase=True)),
            COMPARISONS,
        ))
    kind = draw(st.sampled_from(["atom", "cmp", "and", "or", "not"]))
    if kind == "atom":
        return KeywordAtom(draw(WORDS), is_phrase=True)
    if kind == "cmp":
        return draw(COMPARISONS)
    if kind == "not":
        return PredNot(draw(predicates(depth=depth + 1)))
    parts = tuple(draw(st.lists(predicates(depth=depth + 1),
                                min_size=2, max_size=3)))
    return PredAnd(parts) if kind == "and" else PredOr(parts)


@st.composite
def paths(draw):
    steps = []
    for index in range(draw(st.integers(1, 3))):
        axis = (Axis.DESCENDANT if index == 0
                else draw(st.sampled_from([Axis.DESCENDANT, Axis.CHILD])))
        name = draw(st.one_of(st.none(), NAME_TESTS))
        predicate = draw(st.one_of(st.none(), predicates()))
        if name is None and predicate is None:
            name = draw(NAME_TESTS)
        steps.append(Step(axis, name, predicate))
    return PathExpr(tuple(steps))


QUERIES = st.one_of(
    predicates().map(PredicateExpr),
    paths(),
    st.builds(lambda a, b: UnionExpr((a, b)), paths(),
              predicates().map(PredicateExpr)),
    st.builds(lambda a, b: IntersectExpr((a, b)),
              predicates().map(PredicateExpr),
              predicates().map(PredicateExpr)),
)
