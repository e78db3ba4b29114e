"""The supervisor's restart backoff and per-shard circuit breaker."""

import random

import pytest

from repro.supervise.policy import BreakerState, CircuitBreaker, RetryPolicy


class FakeClock:
    """A manually advanced monotonic clock for breaker cool-downs."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def fake_clock() -> FakeClock:
    return FakeClock()


class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_multiplier=2.0,
                             backoff_max=0.5, jitter=0.0)
        rng = random.Random(0)
        delays = [policy.delay(n, rng) for n in (1, 2, 3, 4, 5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_bounded_and_seeded(self):
        policy = RetryPolicy(backoff_base=0.1, jitter=0.5)
        delays_a = [policy.delay(1, random.Random(42)) for _ in range(3)]
        delays_b = [policy.delay(1, random.Random(42)) for _ in range(3)]
        assert delays_a == delays_b  # same rng seed, same jitter
        for delay in delays_a:
            assert 0.1 <= delay <= 0.1 * 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            RetryPolicy().delay(0, random.Random(0))


class TestCircuitBreaker:
    def make(self, clock, *, threshold=3, cooldown=10.0, probes=1):
        return CircuitBreaker(failure_threshold=threshold,
                              cooldown_seconds=cooldown,
                              half_open_probes=probes, clock=clock)

    def test_opens_after_consecutive_failures(self, fake_clock):
        breaker = self.make(fake_clock, threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()

    def test_success_resets_the_streak(self, fake_clock):
        breaker = self.make(fake_clock, threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_half_opens_after_cooldown(self, fake_clock):
        breaker = self.make(fake_clock, threshold=1, cooldown=10.0)
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        fake_clock.advance(9.99)
        assert not breaker.allow()
        assert breaker.retry_after == pytest.approx(0.01)
        fake_clock.advance(0.02)
        assert breaker.allow()  # the probe is admitted
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_probe_budget(self, fake_clock):
        breaker = self.make(fake_clock, threshold=1, cooldown=1.0, probes=2)
        breaker.record_failure()
        fake_clock.advance(1.5)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()  # budget of 2 spent, result pending

    def test_probe_success_closes(self, fake_clock):
        breaker = self.make(fake_clock, threshold=1, cooldown=1.0)
        breaker.record_failure()
        fake_clock.advance(2.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_and_restarts_cooldown(self, fake_clock):
        breaker = self.make(fake_clock, threshold=1, cooldown=10.0)
        breaker.record_failure()
        fake_clock.advance(11.0)
        assert breaker.allow()
        breaker.record_failure()  # the probe failed
        assert breaker.state is BreakerState.OPEN
        fake_clock.advance(5.0)
        assert not breaker.allow()  # fresh cool-down, not the stale one
        fake_clock.advance(6.0)
        assert breaker.allow()


class TestHalfOpenConcurrency:
    """The half-open probe slot under a thundering herd.

    Without the breaker's internal lock, eight threads racing
    :meth:`allow` at the end of the cool-down all read
    ``_probes_in_flight == 0`` and all pass — eight probes restart a
    shard that has earned exactly one. The shard supervisor leans on
    this: its monitor loop and every submitting thread share one
    breaker per shard.
    """

    def race(self, breaker, threads=8):
        import threading

        barrier = threading.Barrier(threads)
        admitted = []

        def probe():
            barrier.wait()
            if breaker.allow():
                admitted.append(threading.get_ident())

        pool = [threading.Thread(target=probe) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        return admitted

    def test_exactly_one_probe_admitted(self, fake_clock):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_seconds=5.0,
                                 half_open_probes=1, clock=fake_clock)
        breaker.record_failure()
        fake_clock.advance(6.0)
        admitted = self.race(breaker)
        assert len(admitted) == 1
        # every loser saw the same transition: half-open, slot taken
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker._probes_in_flight == 1
        # and a second herd wins nothing while the probe is pending
        assert len(self.race(breaker)) == 0

    def test_probe_budget_holds_under_concurrency(self, fake_clock):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_seconds=5.0,
                                 half_open_probes=3, clock=fake_clock)
        breaker.record_failure()
        fake_clock.advance(6.0)
        assert len(self.race(breaker, threads=8)) == 3

    def test_admitted_probe_outcome_settles_the_state(self, fake_clock):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_seconds=5.0,
                                 clock=fake_clock)
        breaker.record_failure()
        fake_clock.advance(6.0)
        assert len(self.race(breaker)) == 1
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        # closed again: the herd flows freely
        assert len(self.race(breaker)) == 8
