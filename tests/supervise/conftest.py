"""Fixtures for the supervised-shard suite.

``REPRO_CHAOS_SEED`` (the CI chaos matrix) offsets the worker dataset
seeds, so each matrix job replays the SIGKILL failover story against a
different — but individually deterministic — shard population.
"""

from __future__ import annotations

import os

from repro import obs

#: The CI chaos matrix seed (the ``supervise`` job's matrix in
#: .github/workflows/ci.yml).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: The query mix every integration test drives (all answerable by the
#: tiny per-shard datasets; correctness is asserted by *equality across
#: incarnations*, not by absolute counts).
QUERIES = ['"database"', '[size > 1000]', '"database" and "tuning"']


def counter(name: str) -> int:
    """A process-global obs counter's current value (0 if unborn)."""
    value = obs.global_metrics().snapshot().get(name, 0)
    return int(value)


def histogram_count(name: str) -> int:
    """How many observations a global obs histogram has recorded."""
    snap = obs.global_metrics().snapshot().get(name)
    return snap.count if snap is not None else 0
