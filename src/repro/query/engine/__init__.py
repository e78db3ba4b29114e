"""The batched, pull-based query engine (Volcano over key vectors).

Plans still come from :mod:`repro.query.plan` / the optimizer; this
package executes them: :func:`compile_plan` lowers the node tree to
``open()/next_batch()/close()`` operators, :func:`iter_batches` drives
the root, and :func:`materialize_set` drains it into the answer's URI
set for callers that want the whole result at once (join inputs, the
differential suites). Between a scan leaf and ``Batch.uris`` the only
key representation is the dictionary's ``int64`` sort keys; URI strings
are the working representation of :mod:`.reference` alone.
"""

from __future__ import annotations

from typing import Iterator

from .batch import Batch, DEFAULT_BATCH_SIZE, chunked
from .compile import compile_plan
from .config import DEFAULT_ENGINE, EngineConfig
from .operators import Operator
from .reference import reference_execute

__all__ = [
    "Batch",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_ENGINE",
    "EngineConfig",
    "Operator",
    "chunked",
    "compile_plan",
    "iter_batches",
    "materialize_set",
    "reference_execute",
]


def iter_batches(plan, ctx, *, require_ordered: bool = False
                 ) -> Iterator[Batch]:
    """Compile ``plan`` and stream its non-empty result batches.

    The operator tree is closed when the stream exhausts, when the
    consumer abandons the generator, or when a pull raises — so spans
    seal and scans release in every exit path. Rows and batches emitted
    at the root feed the global ``query.engine.rows`` /
    ``query.engine.batches`` counters on close — the same names whether
    the run is traced or not, so live dashboards and EXPLAIN ANALYZE
    agree (two counter bumps per execution, off the per-row path).
    """
    from ... import obs
    op = compile_plan(plan, ctx, require_ordered=require_ordered)
    op.open(ctx)
    rows = batches = 0
    try:
        while True:
            batch = op.next_batch()
            if batch is None:
                return
            if len(batch):
                rows += len(batch)
                batches += 1
                yield batch
    finally:
        op.close()
        if batches and obs.enabled():
            obs.increment("query.engine.rows", rows)
            obs.increment("query.engine.batches", batches)


def materialize_set(plan, ctx) -> set[str]:
    """Run the batched engine to completion and collect the distinct
    URIs of the answer."""
    out: set[str] = set()
    for batch in iter_batches(plan, ctx):
        out.update(batch.uris)
    return out
