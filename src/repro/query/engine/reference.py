"""The pre-engine materializing evaluator, kept as a differential
oracle.

This is the executor the repo shipped before the batched engine: every
node recursively materializes a complete ``set[str]``. It stays here —
deliberately independent of the operator implementations — so the
property harness can assert, for hundreds of generated queries, that
the streaming engine and the old semantics agree exactly.

It is the one place URI strings are the working representation: leaf
answers arrive from the execution context as catalog ids and are
turned into strings right here (:func:`_uris`), the universe is read
off the catalog, and navigation uses the context's URI-typed
primitive, ``children_of``.

A wildcard name test is the exception among the leaves: the engine
answers it from the catalog's ordered name dictionary, so the oracle
keeps the plain scan that preceded it — one regex match per named
view, read off the name replica (:func:`_name_pattern`). Every
engine ≡ oracle comparison therefore checks the dictionary path
against the row-at-a-time one.
"""

from __future__ import annotations

from ...core.errors import QueryExecutionError
from ...rvm.uridict import global_uri_dictionary
from ..ast import Axis
from ..plan import (
    AllViews,
    ClassLookup,
    Complement,
    ContentSearch,
    ExpandStep,
    Intersect,
    Limit,
    NameEquals,
    NamePattern,
    PlanNode,
    RootViews,
    TupleCompare,
    Union,
    wildcard_regex,
)


def _uris(ids) -> set[str]:
    """A substrate answer (catalog ids) as the oracle's URI set."""
    uri_of = global_uri_dictionary().uri_of
    return {uri_of(i) for i in ids}


def reference_execute(node: PlanNode, ctx) -> set[str]:
    """Evaluate ``node`` with the original set-at-a-time semantics."""
    if isinstance(node, AllViews):
        return set(ctx.rvm.catalog.all_uris())
    if isinstance(node, RootViews):
        return _uris(ctx.root_ids())
    if isinstance(node, ContentSearch):
        return _uris(ctx.content_search_ids(
            node.text, is_phrase=node.is_phrase, wildcard=node.wildcard))
    if isinstance(node, NameEquals):
        return _uris(ctx.name_equals_ids(node.name))
    if isinstance(node, NamePattern):
        return _name_pattern(node.pattern, ctx)
    if isinstance(node, ClassLookup):
        return _uris(ctx.class_lookup_ids(node.class_name))
    if isinstance(node, TupleCompare):
        return _uris(ctx.tuple_compare_ids(node.attribute, node.op,
                                           node.value))
    if isinstance(node, Intersect):
        result: set[str] | None = None
        for part in node.parts:
            uris = reference_execute(part, ctx)
            result = uris if result is None else result & uris
            if not result:
                return set()
        return result if result is not None else set()
    if isinstance(node, Union):
        out: set[str] = set()
        for part in node.parts:
            out |= reference_execute(part, ctx)
        return out
    if isinstance(node, Complement):
        return (set(ctx.rvm.catalog.all_uris())
                - reference_execute(node.part, ctx))
    if isinstance(node, ExpandStep):
        return _forward(node, ctx, reference_execute(node.input, ctx))
    if isinstance(node, Limit):
        # LIMIT has no set-semantics counterpart beyond the subset
        # property; the oracle returns the unlimited result and the
        # harness checks containment separately.
        return reference_execute(node.part, ctx)
    raise QueryExecutionError(
        f"reference evaluator cannot run {type(node).__name__}"
    )


def _name_pattern(pattern: str, ctx) -> set[str]:
    """One regex match per named view, off the name replica."""
    ctx.checkpoint()
    regex = wildcard_regex(pattern)
    return {uri for uri, name in ctx.rvm.indexes.name_index.stored_items()
            if regex.match(name)}


def _forward(node: ExpandStep, ctx, sources: set[str],
             candidates: set[str] | None = None) -> set[str]:
    if node.axis is Axis.CHILD:
        reached: set[str] = set()
        for uri in sources:
            reached.update(ctx.children_of(uri))
    else:
        reached = set()
        processed: set[str] = set()
        frontier = list(sources)
        while frontier:
            uri = frontier.pop()
            if uri in processed:
                continue
            processed.add(uri)
            for child in ctx.children_of(uri):
                if child not in reached:
                    reached.add(child)
                    frontier.append(child)
    ctx.expanded_views += len(reached)
    if candidates is not None:
        return reached & candidates
    if node.candidates is None:
        return reached
    return reached & reference_execute(node.candidates, ctx)
