"""Shared pytest hooks."""

from __future__ import annotations

import os

import pytest

import marline
from marline import evaluation


def pytest_report_header(config):
    # pyproject.toml puts this checkout's src/ on sys.path, ahead of
    # PYTHONPATH, so a run from one checkout tests that checkout's package
    # even when PYTHONPATH names another. The header shows which one.
    return f"marline: {os.path.dirname(marline.__file__)}"


@pytest.fixture
def recording_pool(monkeypatch):
    """Stand in for the process pool of ``marline.evaluation`` with one that
    records its ``max_workers`` in the list returned and maps in this
    process, starting no worker, on a host that reports 64 CPUs."""
    created = []

    class Pool:
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    return created
