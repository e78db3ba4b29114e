"""Golden-file tests for EXPLAIN and EXPLAIN ANALYZE output.

Each case renders a plan (or an executed, trace-annotated plan) over
the deterministic tiny dataspace and compares it byte-for-byte against
a checked-in golden file under ``tests/query/golden/``. Wall-clock
times are redacted (``time=-``) so the output is stable.

To regenerate after an intentional output change::

    REPRO_REGOLD=1 PYTHONPATH=src python -m pytest tests/query/test_explain.py
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.dataset import TINY_PROFILE
from repro.facade import Dataspace
from repro.imapsim.latency import no_latency

GOLDEN_DIR = Path(__file__).parent / "golden"

#: (name, mode, query). The double-negation case pins the
#: eliminate-double-negation rewrite; the intersect cases pin the
#: rule-based reorder (selective indexes first).
CASES = [
    ("explain_double_negation", "explain",
     'not not "database"'),
    ("explain_intersect_reorder", "explain",
     '"database" and size > 10000 and class = "latex_section"'),
    ("analyze_double_negation", "analyze",
     'not not "database"'),
    ("analyze_intersect_rule", "analyze",
     '"database" and size > 10000 and class = "latex_section"'),
    ("analyze_union_expand", "analyze",
     'union( //*[name="README"], //*.tex )'),
]


@pytest.fixture(scope="module")
def dataspace() -> Dataspace:
    dataspace = Dataspace.generate(
        profile=TINY_PROFILE, seed=7, imap_latency=no_latency())
    dataspace.sync()
    return dataspace


def _render(dataspace: Dataspace, mode: str, query: str) -> str:
    if mode == "explain":
        return dataspace.explain(query)
    return dataspace.explain_analyze(query).render(redact_timing=True)


@pytest.mark.parametrize("name,mode,query", CASES,
                         ids=[case[0] for case in CASES])
def test_golden(dataspace, name, mode, query):
    actual = _render(dataspace, mode, query).rstrip("\n") + "\n"
    golden = GOLDEN_DIR / f"{name}.txt"
    if os.environ.get("REPRO_REGOLD"):
        golden.write_text(actual, encoding="utf-8")
        pytest.skip(f"regenerated {golden.name}")
    assert golden.exists(), (
        f"missing golden file {golden}; run with REPRO_REGOLD=1 to create")
    expected = golden.read_text(encoding="utf-8")
    assert actual == expected, (
        f"{name}: output drifted from {golden.name} "
        f"(REPRO_REGOLD=1 regenerates)")


def test_analyze_output_is_deterministic(dataspace):
    """Two runs of the same query render identically once timing is
    redacted — counters, rewrites and cardinalities are all stable."""
    first = _render(dataspace, "analyze", 'not "database"')
    second = _render(dataspace, "analyze", 'not "database"')
    assert first == second
