"""Serializing iQL ASTs back to query text.

``parse_iql(unparse(ast))`` reproduces the AST — the property the
round-trip tests assert, with this module as their oracle.
"""

from __future__ import annotations

from datetime import date, datetime

from ..core.errors import QueryError
from .ast import (
    Axis,
    Comparison,
    FunctionCall,
    IntersectExpr,
    JoinExpr,
    KeywordAtom,
    Literal,
    Operand,
    PathExpr,
    PredAnd,
    Predicate,
    PredicateExpr,
    PredNot,
    PredOr,
    QualifiedRef,
    QueryExpr,
    UnionExpr,
)

#: Characters safe inside an unquoted name test / bare word.
_WORD_SAFE = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-*?."
)


def unparse(query: QueryExpr) -> str:
    """Render a query AST as iQL text."""
    if isinstance(query, PathExpr):
        return "".join(_unparse_step(step) for step in query.steps)
    if isinstance(query, PredicateExpr):
        # keyword-only predicates may stand bare; anything with
        # comparisons needs brackets
        if _is_keyword_only(query.predicate):
            return _unparse_predicate(query.predicate, top=True)
        return f"[{_unparse_predicate(query.predicate, top=True)}]"
    if isinstance(query, UnionExpr):
        return "union( " + ", ".join(unparse(p) for p in query.parts) + " )"
    if isinstance(query, IntersectExpr):
        return ("intersect( "
                + ", ".join(unparse(p) for p in query.parts) + " )")
    if isinstance(query, JoinExpr):
        condition = (f"{_unparse_operand(query.condition.left)} "
                     f"{query.condition.op.value} "
                     f"{_unparse_operand(query.condition.right)}")
        return (f"join( {unparse(query.left)} as {query.left_var}, "
                f"{unparse(query.right)} as {query.right_var}, "
                f"{condition} )")
    raise QueryError(f"cannot unparse {type(query).__name__}")


def _is_keyword_only(predicate: Predicate) -> bool:
    if isinstance(predicate, KeywordAtom):
        return True
    if isinstance(predicate, (PredAnd, PredOr)):
        return all(_is_keyword_only(p) for p in predicate.parts)
    if isinstance(predicate, PredNot):
        return _is_keyword_only(predicate.part)
    return False


def _unparse_step(step) -> str:
    out = step.axis.value
    if step.name_test is not None:
        if set(step.name_test) <= _WORD_SAFE:
            out += step.name_test
        else:
            out += f'"{step.name_test}"'
    if step.predicate is not None:
        out += f"[{_unparse_predicate(step.predicate, top=True)}]"
    return out


def _unparse_predicate(predicate: Predicate, *, top: bool = False) -> str:
    if isinstance(predicate, KeywordAtom):
        if predicate.is_phrase or not set(predicate.text) <= _WORD_SAFE:
            return f'"{predicate.text}"'
        return predicate.text
    if isinstance(predicate, Comparison):
        return (f"{predicate.attribute} {predicate.op.value} "
                f"{_unparse_operand(predicate.operand)}")
    if isinstance(predicate, PredAnd):
        inner = " and ".join(_unparse_predicate(p) for p in predicate.parts)
        return inner if top else f"({inner})"
    if isinstance(predicate, PredOr):
        inner = " or ".join(_unparse_predicate(p) for p in predicate.parts)
        return inner if top else f"({inner})"
    if isinstance(predicate, PredNot):
        return f"not {_unparse_predicate(predicate.part)}"
    raise QueryError(f"cannot unparse predicate {type(predicate).__name__}")


def _unparse_operand(operand: Operand | object) -> str:
    if isinstance(operand, Literal):
        value = operand.value
        if isinstance(value, str):
            return f'"{value}"'
        if isinstance(value, datetime):
            return f"@{value.day:02d}.{value.month:02d}.{value.year:04d}"
        if isinstance(value, date):
            return f"@{value.day:02d}.{value.month:02d}.{value.year:04d}"
        return repr(value)
    if isinstance(operand, FunctionCall):
        return f"{operand.name}()"
    if isinstance(operand, QualifiedRef):
        if operand.attribute is not None:
            return f"{operand.variable}.{operand.kind}.{operand.attribute}"
        return f"{operand.variable}.{operand.kind}"
    raise QueryError(f"cannot unparse operand {type(operand).__name__}")
