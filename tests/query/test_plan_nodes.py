"""Direct tests for physical plan nodes, estimates and joins."""

from datetime import datetime

import pytest

from repro.core.errors import DataSourceError, QueryExecutionError
from repro.core.identity import ViewId
from repro.core.resource_view import ResourceView
from repro.query.ast import Axis, CompareOp, QualifiedRef
from repro.query.engine import materialize_set as run
from repro.query.executor import ExecutionContext
from repro.query.functions import FunctionTable
from repro.query.plan import (
    AllViews,
    ClassLookup,
    Complement,
    ContentSearch,
    ExpandStep,
    Intersect,
    JoinPlan,
    NameEquals,
    NamePattern,
    RootViews,
    TupleCompare,
    Union,
    compare_values,
)
from repro.rvm import ResourceViewManager, default_content_converter
from repro.rvm.plugins import FilesystemPlugin
from repro.vfs import VirtualFileSystem


@pytest.fixture(scope="module")
def ctx():
    fs = VirtualFileSystem()
    fs.mkdir("/docs", parents=True)
    fs.write_file("/docs/a.txt", "alpha beta")
    fs.write_file("/docs/b.txt", "beta gamma")
    fs.write_file(
        "/docs/p.tex",
        r"\begin{document}\section{One}alpha\section{Two}gamma"
        r"\end{document}",
    )
    rvm = ResourceViewManager()
    rvm.register_plugin(FilesystemPlugin(
        fs, content_converter=default_content_converter()
    ))
    rvm.sync_all()
    return ExecutionContext(rvm, FunctionTable())


class TestLeafNodes:
    def test_all_views(self, ctx):
        assert run(AllViews(), ctx) == set(ctx.rvm.catalog.all_uris())

    def test_root_views(self, ctx):
        assert run(RootViews(), ctx) == {"fs:///"}

    def test_content_search_term(self, ctx):
        found = run(ContentSearch(text="alpha", is_phrase=False), ctx)
        assert "fs:///docs/a.txt" in found

    def test_name_equals(self, ctx):
        assert run(NameEquals(name="a.txt"), ctx) == {"fs:///docs/a.txt"}

    def test_name_pattern(self, ctx):
        found = run(NamePattern(pattern="*.txt"), ctx)
        assert found == {"fs:///docs/a.txt", "fs:///docs/b.txt"}

    def test_class_lookup(self, ctx):
        sections = run(ClassLookup(class_name="latex_section"), ctx)
        assert len(sections) == 2

    def test_tuple_compare(self, ctx):
        big = run(TupleCompare(attribute="size", op=CompareOp.GT,
                               value=5), ctx)
        assert "fs:///docs/a.txt" in big

    def test_describe_strings(self, ctx):
        assert "ContentSearch" in ContentSearch(text="x").describe()
        assert "NameEquals" in NameEquals(name="x").describe()
        assert "NamePattern" in NamePattern(pattern="x*").describe()
        assert "ClassLookup" in ClassLookup(class_name="file").describe()
        assert "TupleCompare" in TupleCompare(
            attribute="size", op=CompareOp.GT, value=1
        ).describe()


class TestCombinators:
    def test_intersect_empty_short_circuits(self, ctx):
        plan = Intersect((NameEquals(name="nope"),
                          ContentSearch(text="alpha")))
        assert run(plan, ctx) == set()

    def test_union(self, ctx):
        plan = Union((NameEquals(name="a.txt"), NameEquals(name="b.txt")))
        assert len(run(plan, ctx)) == 2

    def test_complement(self, ctx):
        everything = run(AllViews(), ctx)
        some = NameEquals(name="a.txt")
        assert run(Complement(some), ctx) == everything - run(some, ctx)

    def test_estimates_bounded_by_universe(self, ctx):
        universe = len(ctx.rvm.catalog)
        for node in (AllViews(), ContentSearch(text="alpha"),
                     NameEquals(name="a.txt"),
                     ClassLookup(class_name="latex_section"),
                     TupleCompare(attribute="size", op=CompareOp.GT,
                                  value=0)):
            assert 0 <= node.estimate(ctx) <= universe

    def test_intersect_estimate_is_min(self, ctx):
        cheap = NameEquals(name="a.txt")
        plan = Intersect((AllViews(), cheap))
        assert plan.estimate(ctx) == cheap.estimate(ctx)

    def test_estimates_reflect_document_frequency(self, ctx):
        rare = ctx.content_estimate("beta", is_phrase=True, wildcard=False)
        common = ctx.content_estimate("alpha", is_phrase=True,
                                      wildcard=False)
        assert 0 < rare < common

    def test_unknown_term_estimates_zero(self, ctx):
        assert ctx.content_estimate("zzzznope", is_phrase=True,
                                    wildcard=False) == 0


class TestExpandStepDirect:
    def test_child_axis_single_hop(self, ctx):
        step = ExpandStep(input=NameEquals(name="docs"), axis=Axis.CHILD)
        children = run(step, ctx)
        assert children == {"fs:///docs/a.txt", "fs:///docs/b.txt",
                            "fs:///docs/p.tex"}

    def test_descendant_axis_transitive(self, ctx):
        step = ExpandStep(input=NameEquals(name="docs"),
                          axis=Axis.DESCENDANT)
        reached = run(step, ctx)
        assert any("#s" in uri for uri in reached)  # latex sections

    def test_expanded_views_counted(self, ctx):
        fresh = ExecutionContext(ctx.rvm, FunctionTable())
        run(ExpandStep(input=NameEquals(name="docs"),
                       axis=Axis.DESCENDANT), fresh)
        assert fresh.expanded_views > 0


class TestJoinPlan:
    def test_hash_join_on_names(self, ctx):
        plan = JoinPlan(
            left=NamePattern(pattern="*.txt"),
            right=NamePattern(pattern="*.txt"),
            left_ref=QualifiedRef("A", "name"),
            right_ref=QualifiedRef("B", "name"),
        )
        pairs = plan.execute_pairs(ctx)
        # each file joins itself on equal names
        assert ("fs:///docs/a.txt", "fs:///docs/a.txt") in pairs

    def test_literal_rhs_filters_left(self, ctx):
        plan = JoinPlan(
            left=NamePattern(pattern="*.txt"),
            right=NameEquals(name="docs"),
            left_ref=QualifiedRef("A", "name"),
            right_ref="a.txt",
        )
        pairs = plan.execute_pairs(ctx)
        assert all(left == "fs:///docs/a.txt" for left, _ in pairs)

    def test_inequality_nested_loop(self, ctx):
        plan = JoinPlan(
            left=NameEquals(name="a.txt"),
            right=NamePattern(pattern="*.txt"),
            left_ref=QualifiedRef("A", "name"),
            right_ref=QualifiedRef("B", "name"),
            op=CompareOp.NE,
        )
        pairs = plan.execute_pairs(ctx)
        assert pairs == [("fs:///docs/a.txt", "fs:///docs/b.txt")]

    def test_content_component_join_key(self, ctx):
        value = ctx.component_value("fs:///docs/a.txt",
                                    QualifiedRef("A", "content"))
        assert value == "alpha beta"

    def test_unreachable_content_join_key_degrades(self, ctx, monkeypatch):
        def offline():
            raise DataSourceError("fs is offline")

        uri = "fs:///docs/offline.txt"
        monkeypatch.setitem(ctx.rvm.sync.live_views, uri, ResourceView(
            name="offline.txt", content=offline, view_id=ViewId.parse(uri),
        ))
        fresh = ExecutionContext(ctx.rvm, ctx.functions)
        value = fresh.component_value(uri, QualifiedRef("A", "content"))
        assert value is None
        assert fresh.degradation.views_unavailable == 1
        incident, = fresh.degradation.incidents
        assert (incident.authority, incident.operation) == (
            "fs", "component_value")

    def test_class_component_join_key(self, ctx):
        value = ctx.component_value("fs:///docs/a.txt",
                                    QualifiedRef("A", "class"))
        assert value == "file"

    def test_missing_tuple_attr_is_none(self, ctx):
        value = ctx.component_value(
            "fs:///docs/a.txt", QualifiedRef("A", "tuple", "nonexistent")
        )
        assert value is None


class TestCompareValues:
    def test_date_datetime_coercion(self):
        from datetime import date
        assert compare_values(CompareOp.LT, date(2005, 1, 1),
                              datetime(2005, 6, 1))
        assert compare_values(CompareOp.GT, datetime(2005, 6, 1),
                              date(2005, 1, 1))

    def test_incomparable_raises(self):
        with pytest.raises(QueryExecutionError):
            compare_values(CompareOp.LT, "text", 5)

    def test_equality_never_raises(self):
        assert not compare_values(CompareOp.EQ, "text", 5)
        assert compare_values(CompareOp.NE, "text", 5)
