"""Recovery verification: batched engine ≡ reference oracle.

After a crash recovery there is no pre-crash state left to diff
against — the crash interrupted an unknown prefix of the mutation
stream. What *can* be pinned is internal consistency: on the recovered
dataspace, the pipelined PR-4 query engine and the independent
set-at-a-time reference evaluator
(:func:`repro.query.engine.reference_execute`) must return identical
URI sets for every query of the standard generated suite. A recovery
that resurrected the catalog but tore an index (or vice versa) shows
up as a divergence between the two evaluators, because they weigh the
structures differently (the engine leans on indexes and merges, the
oracle on catalog recursion).

The suite is generated deterministically from a seed — the same
breadth of shapes the differential property harness uses (keyword
atoms, typed comparisons, multi-step paths, unions, intersections,
negations), without a hypothesis dependency at runtime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import datetime

from ..query.ast import (
    Axis,
    CompareOp,
    Comparison,
    IntersectExpr,
    KeywordAtom,
    Literal,
    PathExpr,
    PredAnd,
    PredNot,
    PredOr,
    PredicateExpr,
    Step,
    UnionExpr,
)
from ..query.engine import materialize_set, reference_execute
from ..query.executor import ExecutionContext
from ..query.optimizer import optimize

_WORDS = ["database", "tuning", "vision", "section", "figure", "indexing",
          "the", "paper", "dataspace", "xyzzy", "qwxzv"]
_NAME_TESTS = ["*.tex", "*.txt", "Vision*", "?eadme", "*2005*", "notes",
               "INBOX", "papers"]
_CLASSES = ["file", "folder", "latex_section", "environment", "figure",
            "texref", "emailmessage", "no_such_class"]


def _comparison(rng: random.Random) -> Comparison:
    kind = rng.randrange(4)
    if kind == 0:
        return Comparison("size", rng.choice(list(CompareOp)),
                          Literal(rng.randrange(0, 200_000)))
    if kind == 1:
        when = datetime(rng.randrange(2000, 2026), rng.randrange(1, 13),
                        rng.randrange(1, 28))
        return Comparison("modified", rng.choice(list(CompareOp)),
                          Literal(when))
    attribute = "class" if kind == 2 else "name"
    vocabulary = _CLASSES if kind == 2 else _WORDS
    op = rng.choice([CompareOp.EQ, CompareOp.NE])
    return Comparison(attribute, op, Literal(rng.choice(vocabulary)))


def _predicate(rng: random.Random, depth: int = 0):
    if depth >= 2:
        if rng.random() < 0.5:
            return KeywordAtom(rng.choice(_WORDS), is_phrase=True)
        return _comparison(rng)
    kind = rng.choice(["atom", "cmp", "and", "or", "not"])
    if kind == "atom":
        return KeywordAtom(rng.choice(_WORDS), is_phrase=True)
    if kind == "cmp":
        return _comparison(rng)
    if kind == "not":
        return PredNot(_predicate(rng, depth + 1))
    parts = tuple(_predicate(rng, depth + 1)
                  for _ in range(rng.randrange(2, 4)))
    return PredAnd(parts) if kind == "and" else PredOr(parts)


def _path(rng: random.Random) -> PathExpr:
    steps = []
    for index in range(rng.randrange(1, 4)):
        axis = (Axis.DESCENDANT if index == 0
                else rng.choice([Axis.DESCENDANT, Axis.CHILD]))
        name = rng.choice(_NAME_TESTS) if rng.random() < 0.7 else None
        predicate = _predicate(rng) if rng.random() < 0.5 else None
        if name is None and predicate is None:
            name = rng.choice(_NAME_TESTS)
        steps.append(Step(axis, name, predicate))
    return PathExpr(tuple(steps))


def standard_queries(count: int = 40, *, seed: int = 0) -> list:
    """The deterministic generated-query suite (AST expressions)."""
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        shape = rng.randrange(4)
        if shape == 0:
            queries.append(PredicateExpr(_predicate(rng)))
        elif shape == 1:
            queries.append(_path(rng))
        elif shape == 2:
            queries.append(UnionExpr((_path(rng),
                                      PredicateExpr(_predicate(rng)))))
        else:
            queries.append(IntersectExpr((PredicateExpr(_predicate(rng)),
                                          PredicateExpr(_predicate(rng)))))
    return queries


@dataclass
class VerifyReport:
    """Engine-vs-oracle agreement over the standard suite."""

    checked: int = 0
    mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        if self.ok:
            return (f"engine ≡ reference oracle on all "
                    f"{self.checked} generated queries")
        return (f"{len(self.mismatches)}/{self.checked} generated "
                f"queries DIVERGED between engine and oracle")


def verify_engine_matches_oracle(dataspace, *, queries=None,
                                 seed: int = 0,
                                 count: int = 40) -> VerifyReport:
    """Run the suite on ``dataspace``; engine and oracle must agree.

    ``dataspace`` is a :class:`~repro.facade.Dataspace` (typically one
    produced by ``Dataspace.open`` after a crash). Pass ``queries`` to
    verify a custom AST list instead of the generated suite.
    """
    if queries is None:
        queries = standard_queries(count, seed=seed)
    processor = dataspace.processor
    rvm = dataspace.rvm
    report = VerifyReport()
    for query in queries:
        plan = optimize(processor._build(query))  # noqa: SLF001 - internal harness
        engine = materialize_set(
            plan, ExecutionContext(rvm, processor.functions)
        )
        oracle = reference_execute(
            plan, ExecutionContext(rvm, processor.functions)
        )
        report.checked += 1
        if engine != oracle:
            report.mismatches.append(
                (query, sorted(engine ^ oracle)[:10])
            )
    return report
