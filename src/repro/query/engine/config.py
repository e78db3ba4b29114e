"""Engine tuning knobs, threaded through the execution context."""

from __future__ import annotations

from dataclasses import dataclass

from .batch import DEFAULT_BATCH_SIZE


@dataclass(frozen=True)
class EngineConfig:
    """Per-execution engine configuration.

    ``batch_size`` is the vector width of every operator.
    """

    batch_size: int = DEFAULT_BATCH_SIZE


DEFAULT_ENGINE = EngineConfig()
