"""Observability layer: metrics, structured tracing, manifests, bench records.

The paper's central claims are about internal dynamics the end-of-run
aggregates cannot show -- arbitration collisions (Figure 2), tree
saturation and the clog/clear oscillation of section 3.4.  This
package makes them measurable:

* :mod:`repro.obs.registry` -- ``Counter`` / ``Gauge`` / ``Histogram``
  with labeled series;
* :mod:`repro.obs.events` -- the versioned trace schema: the fields
  of every event record;
* :mod:`repro.obs.sink` -- ``NullSink`` / ``MemorySink`` /
  ``JsonlSink`` trace outputs;
* :mod:`repro.obs.manifest` -- the run manifest heading every trace;
* :mod:`repro.obs.telemetry` -- the facade the simulators talk to;
  telemetry off is ``None``, so a disabled site costs one branch;
* :mod:`repro.obs.analysis` / :mod:`repro.obs.cli` -- the
  ``repro obs`` trace reader (``summarize`` / ``diff`` / ``ports``);
* :mod:`repro.obs.perf` -- structured benchmark records
  (``BENCH_<area>.json``) behind ``repro obs perf report|diff``.

Quickstart::

    from repro.obs import JsonlSink, Telemetry
    from repro.sim import NetworkSimulator, SimulationConfig

    telemetry = Telemetry(sink=JsonlSink("run.jsonl"))
    NetworkSimulator(SimulationConfig(), telemetry=telemetry).run()
    # then:  repro-obs summarize run.jsonl
"""

from repro.obs.analysis import (
    MetricDelta,
    TraceSummary,
    diff_summaries,
    summarize_trace,
)
from repro.obs.events import OBS_SCHEMA_VERSION, RECORD_FIELDS
from repro.obs.manifest import RunManifest
from repro.obs.perf import (
    AreaRecord,
    BenchMetric,
    BenchRecord,
    PerfRecorder,
    PerfSession,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.sink import JsonlSink, MemorySink, NullSink, TraceSink, read_jsonl
from repro.obs.telemetry import Telemetry

__all__ = [
    "OBS_SCHEMA_VERSION",
    "RECORD_FIELDS",
    "AreaRecord",
    "BenchMetric",
    "BenchRecord",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MemorySink",
    "MetricDelta",
    "MetricsRegistry",
    "NullSink",
    "PerfRecorder",
    "PerfSession",
    "RunManifest",
    "Telemetry",
    "TraceSink",
    "TraceSummary",
    "diff_summaries",
    "read_jsonl",
    "summarize_trace",
]
