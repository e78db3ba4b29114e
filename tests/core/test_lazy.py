"""Tests for lazy values and counting providers (Section 4.1)."""

import pytest

from repro.core.errors import ProviderFailed
from repro.core.lazy import CountingProvider, LazyValue


class TestLazyValue:
    def test_deferred_until_get(self):
        calls = []
        lazy = LazyValue(lambda: calls.append(1) or "v")
        assert calls == []
        assert lazy.get() == "v"
        assert calls == [1]

    def test_memoized(self):
        counter = CountingProvider(lambda: object())
        lazy = LazyValue(counter)
        assert lazy.get() is lazy.get()
        assert counter.calls == 1

    def test_of_is_forced(self):
        lazy = LazyValue.of(42)
        assert lazy.is_forced
        assert lazy.get() == 42

    def test_is_forced_transitions(self):
        lazy = LazyValue(lambda: 1)
        assert not lazy.is_forced
        lazy.get()
        assert lazy.is_forced

    def test_none_value_is_cached(self):
        counter = CountingProvider(lambda: None)
        lazy = LazyValue(counter)
        assert lazy.get() is None
        assert lazy.get() is None
        assert counter.calls == 1

    def test_repr(self):
        assert "unforced" in repr(LazyValue(lambda: 1))
        assert "42" in repr(LazyValue.of(42))


class TestFailedForcing:
    """A raising provider must not poison the lazy: failures are
    recorded, re-forcing is bounded."""

    def test_exception_propagates_and_marks_failed(self):
        lazy = LazyValue(self._fail_times(1))
        with pytest.raises(RuntimeError):
            lazy.get()
        assert lazy.is_failed
        assert not lazy.is_forced
        assert lazy.failures == 1
        assert isinstance(lazy.last_error, RuntimeError)
        assert "failed 1x" in repr(lazy)

    def test_next_get_reforces_and_recovers(self):
        lazy = LazyValue(self._fail_times(2))
        for _ in range(2):
            with pytest.raises(RuntimeError):
                lazy.get()
        assert lazy.get() == "recovered"
        assert lazy.is_forced
        assert not lazy.is_failed
        assert lazy.last_error is None  # a success clears the record

    def test_reforce_budget_is_bounded(self):
        counter = CountingProvider(self._fail_times(99))
        lazy = LazyValue(counter, max_attempts=2)
        for _ in range(2):
            with pytest.raises(RuntimeError):
                lazy.get()
        # budget spent: ProviderFailed without touching the provider
        with pytest.raises(ProviderFailed) as exc:
            lazy.get()
        assert counter.calls == 2
        assert isinstance(exc.value.__cause__, RuntimeError)

    def test_memoized_success_never_fails_again(self):
        lazy = LazyValue(lambda: "v")
        assert lazy.get() == "v"
        assert not lazy.is_failed
        assert lazy.get() == "v"

    @staticmethod
    def _fail_times(n):
        remaining = [n]

        def provider():
            if remaining[0] > 0:
                remaining[0] -= 1
                raise RuntimeError("provider down")
            return "recovered"

        return provider


class TestCountingProvider:
    def test_counts_invocations(self):
        provider = CountingProvider(lambda: "x")
        assert provider.calls == 0
        provider()
        provider()
        assert provider.calls == 2
