"""Shared test settings."""

import pytest

from fusionkit import verify


@pytest.fixture(autouse=True)
def _at_most_two_verify_workers(monkeypatch):
    # Each forked verify worker is a full interpreter with its own caches;
    # two exercise the shards and the merge as well as more would.
    monkeypatch.setattr(verify, "MAX_WORKERS", min(verify.MAX_WORKERS, 2))
