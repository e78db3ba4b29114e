"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.core.errors import DataSourceError
from repro.dataset import TINY_PROFILE, PersonalDataspaceGenerator
from repro.facade import Dataspace
from repro.imapsim.latency import no_latency

# Reproducible property testing: the "ci" profile derandomizes example
# generation (a fixed seed derived from each test), so a CI failure
# replays locally with HYPOTHESIS_PROFILE=ci.
settings.register_profile("ci", deadline=None, derandomize=True,
                          print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def tiny_dataspace() -> Dataspace:
    """One synced tiny dataspace shared by read-only integration tests."""
    dataspace = Dataspace.generate(profile=TINY_PROFILE, seed=7,
                                   imap_latency=no_latency())
    dataspace.sync()
    return dataspace


@pytest.fixture()
def generated_tiny():
    """A fresh (unsynced) generated dataspace for mutation tests."""
    return PersonalDataspaceGenerator(
        TINY_PROFILE, seed=11, imap_latency=no_latency()
    ).generate()


@pytest.fixture()
def three_sources() -> Dataspace:
    """A fresh (unsynced) tiny dataspace over all three source kinds
    (fs, imap, rss) — the degrade-path tests take one of them down."""
    return Dataspace.generate(profile=TINY_PROFILE, seed=7,
                              imap_latency=no_latency())


@pytest.fixture()
def take_down(monkeypatch):
    """``take_down(dataspace, authority, method="root_views")`` makes
    one real plugin method raise :class:`DataSourceError`, as a source
    that is offline would; ``monkeypatch.undo()`` brings it back."""
    def down(dataspace: Dataspace, authority: str,
             method: str = "root_views") -> None:
        def offline(*_args, **_kwargs):
            raise DataSourceError(f"{authority} is offline")
        plugin = dataspace.rvm.proxy.plugin_for(authority)
        monkeypatch.setattr(plugin, method, offline)
    return down
