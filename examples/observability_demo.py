"""Observing the dataspace: metrics, structured events, slow queries.

Every subsystem of the PDSMS records into one process-global telemetry
spine (``repro.obs``): counters and gauges under a dotted naming
convention, a structured JSON event log, and a slow-query log that
captures the EXPLAIN ANALYZE span tree of any query over the
threshold. This demo syncs a dataspace over three sources, runs a few
queries, and shows what each organ saw — ending with the
Prometheus exposition a scraper would collect.

Run:  python examples/observability_demo.py
"""

from repro import obs
from repro.dataset import TINY_PROFILE, PersonalDataspaceGenerator
from repro.facade import Dataspace
from repro.imapsim.latency import no_latency


def build() -> Dataspace:
    generated = PersonalDataspaceGenerator(
        TINY_PROFILE, seed=42, imap_latency=no_latency()
    ).generate()
    return Dataspace(vfs=generated.vfs, imap=generated.imap,
                     feeds=generated.feeds)


obs.reset(slow_query_seconds=0.0)  # demo: capture *every* query as slow

print("=" * 70)
print("1. a sync over three sources feeds sync.* and index.*")
print("=" * 70)
dataspace = build()
report = dataspace.sync()
print(f"synced {report.views_total} views "
      f"(degraded={report.is_degraded})")
snapshot = dataspace.telemetry()
for name in ("sync.sources_scanned", "sync.views_synced",
             'index.entries{index="catalog"}'):
    print(f"  {name} = {snapshot.get(name, 0)}")

print()
print("=" * 70)
print("2. structured events say what happened, as JSON")
print("=" * 70)
for event in dataspace.events(limit=4):
    print(f"  {event.to_json()}")

print()
print("=" * 70)
print("3. queries feed query.* — and slow ones land in the slow log")
print("=" * 70)
dataspace.query('"database"')
with dataspace.serve(workers=2) as service:
    service.execute("/*")
snapshot = dataspace.telemetry()
for name in ("query.executions", "query.engine.rows",
             "service.queries.served"):
    print(f"  {name} = {snapshot.get(name, 0)}")

print()
print("the slow-query log captured the span tree "
      "(threshold 0 for the demo):")
entry = dataspace.slow_queries()[0]
for line in entry.render().splitlines()[:8]:
    print(f"  {line}")

print()
print("=" * 70)
print("4. the Prometheus exposition a scraper would collect (excerpt)")
print("=" * 70)
for line in obs.global_metrics().render_prometheus().splitlines()[:12]:
    print(f"  {line}")
print("  ...")
print("\n(try: python -m repro stats --format prometheus | "
      "python -m repro.obs.promcheck)")
