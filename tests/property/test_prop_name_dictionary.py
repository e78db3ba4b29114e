"""Property tests: a wildcard name test answered from the catalog's
ordered name dictionary ≡ one regex match per named view.

Three answers must coincide for every pattern, after any interleaving
of register / re-register / unregister: a brute-force filter over a
``{uri: name}`` model, the reference oracle (which keeps the
row-at-a-time loop over the name replica) and the engine's two entry
points — the materialized ``ctx.name_pattern_ids`` and the streaming
``NameScan``, here with a vector narrower than a name bucket.

Names and patterns are hostile on purpose: empty names, the
dictionary's separator and other regex-hostile characters inside
names, a non-BMP character, patterns with no literal at all, only
``?``, several literal runs, ``*`` alone.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.core.identity import ViewId
from repro.core.resource_view import ResourceView
from repro.query.engine import EngineConfig, reference_execute
from repro.query.engine.operators import NameScan
from repro.query.executor import ExecutionContext
from repro.query.functions import FunctionTable
from repro.query.plan import NamePattern, wildcard_regex
from repro.rvm import ResourceViewManager
from repro.rvm.uridict import global_uri_dictionary

_LITERALS = ["a", "b", "A", ".", "\n", "\\", "[", "(", "+", "$", "^",
             "\U0001F600"]
#: half the draws come from a two-letter alphabet, so names share
#: prefixes and literals recur at every offset
_NAMES = st.one_of(
    st.text(st.sampled_from(["a", "b"]), max_size=6),
    st.text(st.sampled_from(_LITERALS + ["*", "?"]), max_size=5))
_PATTERNS = st.one_of(
    st.text(st.sampled_from(["a", "b", "a", "b", "*", "?"]), max_size=7),
    st.text(st.sampled_from(_LITERALS + ["*", "*", "?"]), max_size=6))
_SLOTS = 8
#: (slot, name) registers or re-registers the slot's view under that
#: name; (slot, None) unregisters it
_OPS = st.lists(st.tuples(st.integers(0, _SLOTS - 1),
                          st.one_of(st.none(), _NAMES)), max_size=24)

_BATCH = 2


def _apply(rvm, model: dict[str, str], ops) -> None:
    """What a sync does for one changed view, minus the other indexes."""
    for slot, name in ops:
        view_id = ViewId("namedict", f"slot/{slot}")
        uri = view_id.uri
        rvm.indexes.name_index.remove(uri)
        if name is None:
            rvm.catalog.unregister(uri)
            model.pop(uri, None)
            continue
        rvm.catalog.register(ResourceView(name, view_id=view_id),
                             kind="base")
        if name:
            rvm.indexes.name_index.add(uri, name)
        model[uri] = name


def _check(rvm, model: dict[str, str], pattern: str) -> None:
    regex = wildcard_regex(pattern)
    expected = sorted(uri for uri, name in model.items()
                      if name and regex.match(name))

    oracle = reference_execute(NamePattern(pattern=pattern),
                               ExecutionContext(rvm, FunctionTable()))
    assert sorted(oracle) == expected

    ctx = ExecutionContext(rvm, FunctionTable(),
                           engine=EngineConfig(batch_size=_BATCH))
    uri_of = global_uri_dictionary().uri_of
    assert sorted(map(uri_of, ctx.name_pattern_ids(pattern))) == expected

    scan = NameScan(pattern)
    scan.open(ctx)
    keys: list[int] = []
    for batch in iter(scan.next_batch, None):
        assert 0 < len(batch) <= _BATCH
        keys.extend(batch.keys)
    assert len(set(keys)) == len(keys)
    assert sorted(ctx.dict_view.uris_for(keys)) == expected

    if "*" in pattern or "?" in pattern:
        # the planner's estimate reads the literal prefix's range: a bound
        assert ctx.name_pattern_estimate(pattern) >= len(expected)


class TestDictionaryMatchesPerNameRegex:
    @given(_OPS, _OPS, st.lists(_PATTERNS, min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    # one name the suffix, the next the prefix, of a literal that only
    # exists across the separator: nominated, then rejected by the match
    @example([(0, "ab"), (1, "cd"), (2, "ab\ncd")], [], ["*b\nc*", "*b\nc?"])
    # a bucket wider than the vector, emptied and refilled
    @example([(s, "aa.b") for s in range(6)],
             [(s, None) for s in range(6)] + [(7, "aa.b")],
             ["aa*", "*a.b", "??.?", "*"])
    # the dictionary's short-literal fallback, its find path, its prefix
    # range, and a prefix ending in the highest code point
    @example([(0, "\U0001F600"), (1, "\U0001F600a"), (2, "a\U0001F600"),
              (3, ""), (4, "\n"), (5, "a\n")],
             [(3, "b"), (4, None)],
             ["*a", "*\U0001F600a", "\U0001F600*", "a*", "?", "**", "", "a"])
    # a literal that opens the very next name after a nominated one
    @example([(0, "aab"), (1, "aabb"), (2, "baab")], [], ["*aab*", "*aab"])
    def test_engine_oracle_and_model_agree(self, first, second, patterns):
        rvm = ResourceViewManager()
        model: dict[str, str] = {}
        _apply(rvm, model, first)
        for pattern in patterns:  # sorts a dictionary snapshot...
            _check(rvm, model, pattern)
        _apply(rvm, model, second)
        for pattern in patterns:  # ...that these writes must outdate
            _check(rvm, model, pattern)
        # what the catalog filed is exactly what the model holds
        names = rvm.catalog.name_dictionary().names
        assert names == sorted({name for name in model.values() if name})

    def test_snapshot_is_reused_until_the_name_set_changes(self):
        """A bucket growing or shrinking leaves the distinct names — and
        so the snapshot — alone; creating or emptying one replaces it."""
        rvm = ResourceViewManager()
        model: dict[str, str] = {}
        _apply(rvm, model, [(0, "x.tex"), (1, "y.tex")])
        snapshot = rvm.catalog.name_dictionary()
        assert rvm.catalog.name_dictionary() is snapshot
        _apply(rvm, model, [(2, "x.tex")])       # grows a bucket
        _apply(rvm, model, [(2, None)])          # shrinks it again
        assert rvm.catalog.name_dictionary() is snapshot
        _apply(rvm, model, [(3, "z.tex")])       # a new distinct name
        newer = rvm.catalog.name_dictionary()
        assert newer is not snapshot and "z.tex" in newer.names
        assert snapshot.names == ["x.tex", "y.tex"]  # immutable
        _apply(rvm, model, [(3, None)])          # ...and gone again
        assert rvm.catalog.name_dictionary().names == ["x.tex", "y.tex"]
