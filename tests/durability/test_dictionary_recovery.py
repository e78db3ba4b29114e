"""Recovery rebuilds the URI dictionary: ids are derived state.

The dictionary is never persisted (DESIGN.md §4h) — snapshot load and
WAL replay re-register every view through the catalog, which re-interns
every URI. These tests prove the contract end to end: a recovered
dataspace answers through genuine integer batches, identically to both
the pre-close answers and the string-based reference oracle.
"""

from array import array

import pytest

from repro.durability import DurabilityConfig, verify_engine_matches_oracle
from repro.facade import Dataspace
from repro.dataset import TINY_PROFILE
from repro.imapsim.latency import no_latency
from repro.rvm.uridict import global_uri_dictionary

SPOT_QUERIES = [
    '"database"',
    '//*[class = "emailmessage"]',
    '[size > 1000]',
    'not "database"',
    '"the" and "paper"',
]


@pytest.fixture(scope="module")
def recovered(tmp_path_factory):
    """(pre-close answers, reopened dataspace) across a clean shutdown."""
    directory = tmp_path_factory.mktemp("dict-durable") / "space"
    config = DurabilityConfig(directory=directory, fsync="off")
    dataspace = Dataspace.generate(profile=TINY_PROFILE, seed=13,
                                   imap_latency=no_latency(),
                                   durability=config)
    dataspace.sync()
    answers = {q: set(dataspace.query(q).uris()) for q in SPOT_QUERIES}
    dataspace.checkpoint()
    dataspace.close()
    return answers, Dataspace.open(directory, durable=False)


class TestDictionaryRecovery:
    def test_recovered_catalog_is_fully_interned(self, recovered):
        """Every recovered URI has a dictionary id without any query
        having run — recovery itself rebuilds the mapping."""
        _, dataspace = recovered
        dictionary = global_uri_dictionary()
        uris = dataspace.rvm.catalog.all_uris()
        assert uris
        assert all(uri in dictionary for uri in uris)

    def test_recovered_dataspace_answers_identically(self, recovered):
        answers, dataspace = recovered
        for query, expected in answers.items():
            assert set(dataspace.query(query).uris()) == expected, query

    def test_recovered_answers_flow_through_integer_batches(self, recovered):
        """The equality above must come from the dictionary path, not a
        string fallback: the result is an int64 key column."""
        _, dataspace = recovered
        column = dataspace.query('"database"').column
        assert len(column)
        assert isinstance(column.keys, array)
        assert column.keys.typecode == "q"
        assert column.view is not None
        assert column.uris == column.view.uris_for(column.keys)

    def test_engine_matches_oracle_after_recovery(self, recovered):
        _, dataspace = recovered
        report = verify_engine_matches_oracle(dataspace, seed=13, count=40)
        assert report.ok, report.mismatches
