"""Shared pytest hooks."""

from __future__ import annotations

import os

import marline


def pytest_report_header(config):
    # pyproject.toml puts this checkout's src/ on sys.path, ahead of
    # PYTHONPATH, so a run from one checkout tests that checkout's package
    # even when PYTHONPATH names another. The header shows which one.
    return f"marline: {os.path.dirname(marline.__file__)}"
