"""Shared benchmark configuration and the perf-record plugin.

Benchmarks regenerate each paper figure at reduced scale (the ``smoke``
/ ``fast`` presets) so ``pytest benchmarks/ --benchmark-only`` finishes
in minutes, and record what it cost.  They check no paper claim: the
claims are the rows of ``repro.experiments.claims.CLAIMS``, scored by
``repro-experiments score`` into ``results/scoreboard.txt``.

Every bench takes the ``perf_record`` fixture and registers at least
one domain throughput metric on it.  At session end the collected
records are written as ``BENCH_<area>.json`` at the repo root (an area
file is left alone when the session ran only some of its benches, and
loses the records of benches no longer collected) --
see :mod:`repro.obs.perf` and the "Bench records" section of
docs/observability.md.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.obs.perf import PerfRecorder, PerfSession

#: where BENCH_<area>.json land (the repository root).
REPO_ROOT = Path(__file__).resolve().parents[1]


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "repro(claim): the scoreboard row of the figure a benchmark regenerates"
    )
    config._repro_perf_session = PerfSession(
        preset=os.environ.get("REPRO_BENCH_PRESET", "smoke")
    )
    config._repro_collected_benches = set()


@pytest.fixture(scope="session")
def standalone_trials() -> int:
    """Trials per standalone point (paper: 1000; benches use fewer)."""
    return 300


@pytest.fixture
def perf_record(request) -> PerfRecorder:
    """Structured perf record for one bench (see repro.obs.perf).

    Yields a :class:`~repro.obs.perf.PerfRecorder`; the bench registers
    domain metrics (``perf_record.metric``), attributes time to its
    own coarse phases (``perf_record.phase``) and the fixture times the
    test body and files the record with the session.
    """
    recorder = PerfRecorder(
        name=request.node.name,
        module=Path(str(request.node.fspath)).stem,
    )
    began = time.perf_counter()
    yield recorder
    wall_s = time.perf_counter() - began
    request.config._repro_perf_session.add(recorder.finish(wall_s))


@pytest.fixture
def record_sweep_metrics(perf_record, benchmark):
    """Record a measured panel run's sweep throughput: call it with the
    run's ``{algorithm: BNFCurve}``."""
    def record(curves) -> None:
        elapsed = benchmark.stats.stats.mean
        if elapsed <= 0:
            return
        points = [point for curve in curves.values() for point in curve.points]
        delivered = sum(point.packets_delivered for point in points)
        perf_record.metric(
            "sweep_points_per_s", len(points) / elapsed, unit="points/s"
        )
        perf_record.metric(
            "packets_delivered_per_s", delivered / elapsed, unit="packets/s"
        )
    return record


def pytest_itemcollected(item):
    # Every collected bench, before -k/-m deselection: a bench on file
    # that is not among its module's is gone, not merely not run.
    item.config._repro_collected_benches.add(
        (Path(str(item.fspath)).stem, item.name)
    )


def pytest_sessionfinish(session, exitstatus):
    perf_session = getattr(session.config, "_repro_perf_session", None)
    if perf_session is None or not perf_session.has_records:
        return
    paths = perf_session.write(
        REPO_ROOT, collected=session.config._repro_collected_benches
    )
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        if paths:
            reporter.write_line(
                "perf records: " + ", ".join(path.name for path in paths)
            )
        for line in perf_session.kept:
            reporter.write_line(f"perf records: {line}")
        for module in sorted(perf_session.unmapped_modules):
            reporter.write_line(
                f"perf records: WARNING {module} has no area mapping "
                "(add it to repro.obs.perf.MODULE_AREAS)"
            )
