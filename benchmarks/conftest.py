"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark module regenerates one figure or quantitative claim from the
paper (catalogued in docs/benchmarks.md).  Benchmarks print the series
they measure with :func:`report`, so running
``pytest benchmarks/bench_*.py --benchmark-only -s`` reproduces the tables
docs/benchmarks.md describes.
"""

from __future__ import annotations

import pytest

from repro import ProjectConfig, Session


@pytest.fixture()
def project(tmp_path):
    return ProjectConfig(tmp_path / "bench", "bench").ensure_layout()


@pytest.fixture()
def session(project):
    session = Session(project, default_filename="train.py")
    yield session
    session.close()


@pytest.fixture()
def make_session(tmp_path):
    created = []

    def factory(name: str = "bench", **kwargs) -> Session:
        session = Session(ProjectConfig(tmp_path / name, name), **kwargs)
        created.append(session)
        return session

    yield factory
    for session in created:
        session.close()


def report(title: str, rows: list[dict]) -> None:
    """Print a small fixed-width table of benchmark observations."""
    if not rows:
        print(f"\n[{title}] (no rows)")
        return
    columns = list(rows[0].keys())
    widths = {
        c: max(len(str(c)), *(len(_fmt(row.get(c))) for row in rows)) for c in columns
    }
    print(f"\n[{title}]")
    print("  " + "  ".join(str(c).ljust(widths[c]) for c in columns))
    for row in rows:
        print("  " + "  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
