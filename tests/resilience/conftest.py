"""Fixtures for the resilience/chaos suite.

``REPRO_CHAOS_SEED`` (the CI chaos matrix) offsets every seeded fault
schedule, so each matrix job replays a different — but individually
deterministic — storm. Backoff never sleeps in tests, and breaker
clocks are fake, so the whole suite runs in seconds.
"""

from __future__ import annotations

import os

import pytest

from repro.dataset import TINY_PROFILE, PersonalDataspaceGenerator
from repro.facade import Dataspace
from repro.imapsim.latency import no_latency
from repro.resilience import ResilienceConfig, RetryPolicy

#: The CI chaos matrix seed: every plan/config seed in this suite adds
#: it, so "the same tests" explore different schedules per matrix job.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


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


def fast_config(*, seed: int = 0, max_attempts: int = 3,
                breaker_threshold: int = 5,
                cooldown: float = 30.0,
                clock=None) -> ResilienceConfig:
    """A test config: seeded, never sleeps, optional fake clock."""
    config = ResilienceConfig(
        retry=RetryPolicy(max_attempts=max_attempts),
        breaker_failure_threshold=breaker_threshold,
        breaker_cooldown_seconds=cooldown,
        seed=CHAOS_SEED + seed,
    ).with_fast_backoff()
    if clock is not None:
        from dataclasses import replace
        config = replace(config, clock=clock)
    return config


def three_source_dataspace(*, resilience=None,
                           seed: int = 7) -> Dataspace:
    """A tiny dataspace over all three source kinds (vfs, imap, rss)."""
    generated = PersonalDataspaceGenerator(
        TINY_PROFILE, seed=seed, imap_latency=no_latency()
    ).generate()
    return Dataspace(vfs=generated.vfs, imap=generated.imap,
                     feeds=generated.feeds, resilience=resilience)
