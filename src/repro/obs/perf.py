"""Benchmark observability: structured perf records.

Every ``benchmarks/bench_*.py`` run produces per-area ``BENCH_<area>.json``
files at the repository root.  A record pins everything a later reader
needs to trust (or reject) a comparison: the machine fingerprint
(python, platform, CPU count), the git SHA, the bench preset, per-bench
wall time, the domain throughput metrics the bench registered
(arbitrations/sec, flits/sec, scenarios/sec, ...) and the wall time of
the bench's own coarse ``with perf_record.phase(...)`` blocks.  The
files are committed, so their trajectory is ``git log -p
BENCH_<area>.json``.

Two consumers live in :mod:`repro.obs.cli` under ``repro obs perf``:

* ``report`` renders the ``BENCH_<area>.json`` files under ``--root``;
* ``diff`` compares two records field by field (reusing
  :class:`~repro.obs.analysis.MetricDelta`).

These records describe a run; they decide nothing.  Whether a change
made the system faster or slower is answered by ``benchmarks/e2e``
(see "Comparing two commits" in its README).
"""

from __future__ import annotations

import contextlib
import datetime
import json
import os
import platform
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.analysis import MetricDelta

#: version of the BENCH_*.json record layout.
PERF_SCHEMA_VERSION = 1

#: bench module (file stem) -> area of its ``BENCH_<area>.json``.
MODULE_AREAS = {
    "bench_arbiters": "arbiters",
    "bench_figure8": "figures",
    "bench_figure9": "figures",
    "bench_figure10": "figures",
    "bench_figure11": "figures",
    "bench_ablation": "figures",
    "bench_parallel_sweep": "sweeps",
    "bench_chaos": "chaos",
    "bench_kernels": "kernels",
    "bench_obs_overhead": "overhead",
    "bench_resilience_overhead": "overhead",
    "bench_service": "service",
}


def bench_filename(area: str) -> str:
    """``BENCH_<area>.json`` -- the repo-root record file for one area."""
    return f"BENCH_{area}.json"


def machine_fingerprint() -> dict:
    """What makes two perf records comparable (same-machine check)."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }


def git_sha(root: Path | str = ".") -> str | None:
    """The checkout's HEAD SHA, or ``None`` outside a git repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(root),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


# -- record model ----------------------------------------------------------


@dataclass(frozen=True)
class BenchMetric:
    """One domain throughput/quality metric a bench registered."""

    name: str
    value: float
    unit: str = ""
    #: direction of goodness: throughputs up, wall times and overhead
    #: fractions down.
    higher_is_better: bool = True

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "unit": self.unit,
            "higher_is_better": self.higher_is_better,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BenchMetric":
        return cls(
            name=str(data["name"]),
            value=float(data["value"]),
            unit=str(data.get("unit", "")),
            higher_is_better=bool(data.get("higher_is_better", True)),
        )


@dataclass
class BenchRecord:
    """One benchmark's structured result (one test of a bench module)."""

    name: str
    module: str
    wall_s: float
    metrics: tuple[BenchMetric, ...] = ()
    #: ``[{"name", "seconds", "samples"}, ...]`` -- the bench's own
    #: ``with perf_record.phase(name)`` blocks, descending by wall time.
    phases: tuple[dict, ...] = ()
    extra: dict = field(default_factory=dict)

    def metric(self, name: str) -> BenchMetric | None:
        for metric in self.metrics:
            if metric.name == name:
                return metric
        return None

    def to_dict(self) -> dict:
        record = {
            "name": self.name,
            "module": self.module,
            "wall_s": self.wall_s,
            "metrics": [metric.to_dict() for metric in self.metrics],
            "phases": list(self.phases),
        }
        if self.extra:
            record["extra"] = self.extra
        return record

    @classmethod
    def from_dict(cls, data: dict) -> "BenchRecord":
        return cls(
            name=str(data["name"]),
            module=str(data.get("module", "")),
            wall_s=float(data["wall_s"]),
            metrics=tuple(
                BenchMetric.from_dict(m) for m in data.get("metrics", ())
            ),
            phases=tuple(
                {
                    "name": str(p["name"]),
                    "seconds": float(p["seconds"]),
                    "samples": int(p["samples"]),
                }
                for p in data.get("phases", ())
            ),
            extra=dict(data.get("extra", {})),
        )


@dataclass
class AreaRecord:
    """The content of one ``BENCH_<area>.json``."""

    area: str
    run_id: str
    created_at: str
    git_sha: str | None
    preset: str
    fingerprint: dict
    benches: list[BenchRecord] = field(default_factory=list)
    schema_version: int = PERF_SCHEMA_VERSION

    def bench(self, name: str) -> BenchRecord | None:
        for bench in self.benches:
            if bench.name == name:
                return bench
        return None

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "area": self.area,
            "run_id": self.run_id,
            "created_at": self.created_at,
            "git_sha": self.git_sha,
            "preset": self.preset,
            "fingerprint": dict(self.fingerprint),
            "benches": [bench.to_dict() for bench in self.benches],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AreaRecord":
        return cls(
            area=str(data["area"]),
            run_id=str(data.get("run_id", "")),
            created_at=str(data.get("created_at", "")),
            git_sha=data.get("git_sha"),
            preset=str(data.get("preset", "")),
            fingerprint=dict(data.get("fingerprint", {})),
            benches=[
                BenchRecord.from_dict(b) for b in data.get("benches", ())
            ],
            schema_version=int(
                data.get("schema_version", PERF_SCHEMA_VERSION)
            ),
        )

    def write(self, path: Path | str) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, path: Path | str) -> "AreaRecord":
        """Read one record file; a malformed one is a ``ValueError``
        naming the file (a missing one stays an ``OSError``)."""
        text = Path(path).read_text("utf-8")
        try:
            return cls.from_dict(json.loads(text))
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(
                f"{path}: not a perf record ({type(error).__name__}: {error})"
            ) from error


# -- recording (the pytest fixture's half) ---------------------------------


class PerfRecorder:
    """The per-benchmark handle the ``perf_record`` fixture yields.

    A bench registers its domain metrics (:meth:`metric`), attributes
    wall time to its own coarse phases (:meth:`phase`) and may attach
    free-form context (:meth:`note`).  The fixture times the test body
    and calls :meth:`finish`.
    """

    def __init__(self, name: str, module: str) -> None:
        self.name = name
        self.module = module
        #: phase name -> [seconds, samples]
        self._phases: dict[str, list] = {}
        self._metrics: list[BenchMetric] = []
        self._extra: dict = {}

    def metric(
        self,
        name: str,
        value: float,
        unit: str = "",
        higher_is_better: bool = True,
    ) -> None:
        """Register one domain metric (replaces an earlier same-name one)."""
        self._metrics = [m for m in self._metrics if m.name != name]
        self._metrics.append(
            BenchMetric(name, float(value), unit, higher_is_better)
        )

    @contextlib.contextmanager
    def phase(self, name: str):
        """Attribute the wall time of a ``with`` block to phase *name*."""
        began = time.perf_counter()
        try:
            yield
        finally:
            totals = self._phases.setdefault(name, [0.0, 0])
            totals[0] += time.perf_counter() - began
            totals[1] += 1

    def note(self, **extra) -> None:
        """Attach free-form context (e.g. why a metric was not measurable)."""
        self._extra.update(extra)

    def finish(self, wall_s: float) -> BenchRecord:
        return BenchRecord(
            name=self.name,
            module=self.module,
            wall_s=float(wall_s),
            metrics=tuple(self._metrics),
            phases=tuple(
                {"name": name, "seconds": seconds, "samples": samples}
                for name, (seconds, samples) in sorted(
                    self._phases.items(), key=lambda item: -item[1][0]
                )
            ),
            extra=dict(self._extra),
        )


class PerfSession:
    """Collects one pytest session's bench records and writes them out."""

    def __init__(self, preset: str = "smoke") -> None:
        self.preset = preset
        self._by_area: dict[str, list[BenchRecord]] = {}
        self.unmapped_modules: set[str] = set()
        #: one line per area file :meth:`write` left alone.
        self.kept: list[str] = []

    @property
    def has_records(self) -> bool:
        return bool(self._by_area)

    def add(self, record: BenchRecord) -> None:
        area = MODULE_AREAS.get(record.module)
        if area is None:
            # Unknown bench modules still get a record -- under their
            # own area -- instead of being dropped.
            self.unmapped_modules.add(record.module)
            area = record.module.removeprefix("bench_")
        self._by_area.setdefault(area, []).append(record)

    def write(
        self, root: Path | str, collected: set[tuple[str, str]] | None = None
    ) -> list[Path]:
        """Write ``BENCH_<area>.json`` files; return the paths written.

        *collected* holds the ``(module, name)`` of every bench the
        session collected, before ``-k``/``-m`` deselection.  A bench
        on file whose module was collected without it is gone (deleted
        or renamed) and is dropped.  Any other bench on file that this
        session did not run -- deselected, or its module not collected
        -- keeps the area file as it is: a partial run would otherwise
        erase its record.  Such a file is left alone and a line naming
        the benches not run lands in :attr:`kept`.  Without
        *collected*, every bench on file counts as collected.
        """
        root = Path(root)
        run_id = uuid.uuid4().hex[:12]
        created_at = datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        )
        sha = git_sha(root)
        fingerprint = machine_fingerprint()
        written: list[Path] = []
        modules = {module for module, _ in collected or ()}
        for area in sorted(self._by_area):
            benches = sorted(self._by_area[area], key=lambda b: b.name)
            path = root / bench_filename(area)
            if path.exists():
                on_file = AreaRecord.load(path).benches
                if collected is not None:
                    on_file = [
                        b for b in on_file
                        if b.module not in modules or (b.module, b.name) in collected
                    ]
                names = {b.name for b in on_file}
                missing = sorted(names - {b.name for b in benches})
                if missing:
                    self.kept.append(
                        f"{path.name} kept - partial run "
                        f"({len(names) - len(missing)} of {len(names)} "
                        f"benches; not run: {', '.join(missing)})"
                    )
                    continue
            AreaRecord(
                area=area,
                run_id=run_id,
                created_at=created_at,
                git_sha=sha,
                preset=self.preset,
                fingerprint=fingerprint,
                benches=benches,
            ).write(path)
            written.append(path)
        return written


# -- comparison ------------------------------------------------------------


def diff_area_records(a: AreaRecord, b: AreaRecord) -> list[MetricDelta]:
    """Field-by-field comparison of two area records.

    One delta per bench wall time plus one per registered metric; a
    bench or metric present on only one side still appears (the other
    side reads 0, and the renderer shows ``n/a`` for the undefined
    relative change).
    """
    deltas: list[MetricDelta] = []
    names = sorted(
        {bench.name for bench in a.benches}
        | {bench.name for bench in b.benches}
    )
    for name in names:
        bench_a, bench_b = a.bench(name), b.bench(name)
        deltas.append(
            MetricDelta(
                f"{name}.wall_s",
                bench_a.wall_s if bench_a else 0.0,
                bench_b.wall_s if bench_b else 0.0,
            )
        )
        metric_names = sorted(
            {m.name for m in (bench_a.metrics if bench_a else ())}
            | {m.name for m in (bench_b.metrics if bench_b else ())}
        )
        for metric_name in metric_names:
            metric_a = bench_a.metric(metric_name) if bench_a else None
            metric_b = bench_b.metric(metric_name) if bench_b else None
            deltas.append(
                MetricDelta(
                    f"{name}.{metric_name}",
                    metric_a.value if metric_a else 0.0,
                    metric_b.value if metric_b else 0.0,
                )
            )
    return deltas
