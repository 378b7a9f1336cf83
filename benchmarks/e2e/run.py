"""The repository benchmark: four workloads, end to end and layer by layer.

    python benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                 [--no-traced] [--aa] [--json OUT]
                                 [--trace-out OUT] [--update-expected]

runs every workload untraced for the end-to-end metrics, then once more
with the span wrappers of ``spans.py`` installed for the per-layer
metrics, prints each metric by name with its unit, verifies the outputs
and exits non-zero on a failed check.  ``src/`` is put on ``sys.path``
from this file's location, so ``PYTHONPATH=src`` is optional.

A driver calls ``--workload NAME --seed N --seconds S --trace 0|1``,
which measures that one workload that one way in this process, and
reads the last line of standard output: one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (every
end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``, every
per-layer metric with ``--trace 1``).  The full run above is that same
call once per workload and pass kind, each in a fresh interpreter, so
its numbers are the driver's numbers.

How a run measures.  A *pass* runs every unit of a workload once (see
``workloads.py``); passes repeat until ``--seconds`` of wall time are
used, the first always whole, later ones cut at the unit that would
overrun.  Every repeat uses the same seed, so it is also a determinism
check.  A unit's cost is the median over its repeats and a pass's cost
the sum over its units: a burst of host noise spoils one sample, not
the result.  CPU-seconds are user-mode seconds of this process and its
reaped children (see ``host.py`` for why kernel time is left out).
"""

from __future__ import annotations

import time

_PROCESS_BEGAN = time.perf_counter()  # setup_s counts the imports below

import argparse  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: {ROOT / 'src' / 'repro'} not found; run from a full checkout")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import catalog  # noqa: E402
import host  # noqa: E402
import layers  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Output, Workload  # noqa: E402

EXPECTED_SEED = 42
SETUP_PROBES = 7


def _benchmark_file() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- one unit, one pass ------------------------------------------------------


@dataclass
class Tally:
    """Attempts, failures and output checks of one or more passes."""

    attempted: int = 0
    failed: int = 0
    checked: int = 0
    mismatched: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def check(self, outputs) -> None:
        for output in outputs:
            self.checked += 1
            self.mismatched += bool(output.problems)
            self.problems.extend(
                f"{output.point}: {problem}" for problem in output.problems
            )


def _run_unit(unit, tally: Tally, tracer: Tracer | None = None):
    """Time ``unit.run``; (cpu_s, wall_s) or None when it raised."""
    tally.attempted += unit.points
    cpu, wall = host.cpu_seconds(), time.perf_counter()
    try:
        unit.run(tracer)
    except Exception:  # a failed point is a result, not a crash
        traceback.print_exc()
        tally.failed += unit.points
        return None
    return host.cpu_seconds() - cpu, time.perf_counter() - wall


@dataclass
class Pass:
    """One whole pass: per-unit costs and the outputs by point."""

    cpu: dict[str, float] = field(default_factory=dict)
    outputs: dict[str, Output] = field(default_factory=dict)
    units: list = field(default_factory=list)

    @property
    def cpu_s(self) -> float:
        return sum(self.cpu.values())

    @property
    def stats(self) -> dict[str, dict]:
        return {point: output.stats for point, output in self.outputs.items()}

    @property
    def work(self) -> int:
        return sum(output.work for output in self.outputs.values())


def _one_pass(units, tally: Tally, tracer: Tracer | None = None) -> Pass:
    result = Pass(units=units)
    for unit in units:
        cost = _run_unit(unit, tally, tracer)
        if cost is None:
            continue
        result.cpu[unit.key] = cost[0]
        tally.failed += unit.failed
        result.outputs.update((out.point, out) for out in unit.outputs())
    return result


def _differences(outputs, reference: dict[str, dict], what: str) -> None:
    """Flag every output whose statistics differ from *reference*."""
    for output in outputs:
        expected = reference.get(output.point)
        if expected != output.stats:
            output.problems.append(
                f"differs from {what}: {output.stats} != {expected}"
            )


# -- the untraced pass: end-to-end metrics ------------------------------------


def _units_within(workload, seed, scale, directory, seconds, expected_wall):
    """Units pass after pass until *seconds* are used; the first pass is whole."""
    began = time.perf_counter()
    for index in itertools.count():
        # Simulators are cyclic garbage; left to the collector's own
        # schedule, peak memory would grow with the number of passes.
        gc.collect()
        for unit in workload.build(seed, scale, directory / f"pass{index}"):
            elapsed = time.perf_counter() - began
            if index and elapsed + expected_wall(unit.key) > seconds:
                return
            yield unit


def measure(
    workload: Workload,
    seed: int,
    scale: float,
    seconds: float,
    directory: Path,
    reference: dict[str, dict] | None,
) -> tuple[dict[str, float], Tally, dict[str, Output]]:
    """End-to-end metrics (``setup_s`` aside), tally and first-pass outputs.

    *reference* is the committed statistics to hold the outputs to, when
    this run is the one they describe.
    """
    workload.warm_up(seed, scale, directory)
    samples: dict[str, list[tuple[float, float]]] = {}
    roles: dict[str, str | None] = {}
    points: dict[str, int] = {}
    work: dict[str, int] = {}
    first: dict[str, Output] = {}
    first_stats: dict[str, dict] = {}
    tally = Tally()

    def expected_wall(key: str) -> float:
        walls = [wall for _, wall in samples.get(key, ())]
        return statistics.median(walls) if walls else 0.0

    for unit in _units_within(
        workload, seed, scale, directory, seconds, expected_wall
    ):
        cost = _run_unit(unit, tally)
        if cost is None:
            continue
        samples.setdefault(unit.key, []).append(cost)
        tally.failed += unit.failed
        outputs = unit.outputs()
        if unit.key not in work:
            roles[unit.key], points[unit.key] = unit.role, unit.points
            work[unit.key] = sum(output.work for output in outputs)
            first.update((output.point, output) for output in outputs)
            first_stats.update((output.point, output.stats) for output in outputs)
        else:
            _differences(outputs, first_stats, "the first pass")
            tally.check(outputs)

    workload.verify(first)
    if reference is not None:
        _differences(first.values(), reference, "the committed reference")
    tally.check(first.values())

    cpu = {key: statistics.median(c for c, _ in s) for key, s in samples.items()}
    wall = {key: statistics.median(w for _, w in s) for key, s in samples.items()}

    def rate(role: str) -> float:
        keys = [key for key in cpu if roles[key] == role]
        seconds_spent = sum(cpu[key] for key in keys)
        return sum(work[key] for key in keys) / seconds_spent if keys else 0.0

    wall_s = sum(wall.values())
    metrics = {
        "work_per_cpu_s": rate("work"),
        "work_per_s": sum(work.values()) / wall_s if wall else 0.0,
        "cpu_s": sum(cpu.values()),
        "points_per_s": sum(points.values()) / wall_s if wall else 0.0,
        "peak_rss_mb": host.peak_rss_mb(),
        "failed_share": tally.failed / tally.attempted,
        "result_mismatch_share": (
            tally.mismatched / tally.checked if tally.checked else 1.0
        ),
        "passes": sum(len(s) for s in samples.values()) / max(len(points), 1),
        "work_per_pass": sum(work.values()),
        "points_per_pass": sum(points.values()),
    }
    if "kernel" in roles.values():
        metrics["kernel_arbitrations_per_cpu_s"] = rate("kernel")
    if tally.failed == 0:
        metrics.update(workload.model_metrics(first))
    return metrics, tally, first


def measure_setup(name: str, seed: int, scale: float) -> float:
    """Median set-up time over fresh interpreters (imports are cached here)."""
    command = [
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", name, "--seed", str(seed), "--scale", repr(scale),
    ]
    return statistics.median(
        float(
            subprocess.run(
                command, check=True, capture_output=True, text=True
            ).stdout.split()[-1]
        )
        for _ in range(SETUP_PROBES)
    )


def _setup_probe(name: str, seed: int, scale: float) -> int:
    """Child side of :func:`measure_setup`: build one pass, print the time."""
    WORKLOADS[name].build(seed, scale, ROOT / ".bench_tmp" / "probe")
    print(repr(time.perf_counter() - _PROCESS_BEGAN))
    return 0


# -- reference results -------------------------------------------------------


def _expected_path(name: str) -> Path:
    return HERE / "expected" / f"{name}.seed{EXPECTED_SEED}.json"


def _expected_outputs(name: str, seed: int, scale: float) -> dict | None:
    """The committed statistics, when this run is the one they describe."""
    if seed != EXPECTED_SEED or scale != 1.0:
        return None
    return json.loads(_expected_path(name).read_text(encoding="utf-8"))["outputs"]


def _write_expected(name: str, outputs: dict[str, Output]) -> None:
    document = {
        "workload": name,
        "seed": EXPECTED_SEED,
        "scale": 1.0,
        "outputs": {point: output.stats for point, output in outputs.items()},
    }
    path = _expected_path(name)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")


# -- the traced pass: per-layer metrics ----------------------------------------


def trace(
    workload: Workload, seed: int, scale: float, directory: Path, tracer: Tracer
) -> tuple[dict[str, float], Tally]:
    """One plain pass, then the same pass under the span wrappers."""
    workload.warm_up(seed, scale, directory)
    tally = Tally()
    with tracer.span("workload " + workload.name):
        if workload.name == catalog.SWEEP:
            metrics = _trace_sweep(workload, seed, scale, directory, tracer, tally)
        else:
            metrics = _trace_in_process(
                workload, seed, scale, directory, tracer, tally
            )
    tally.problems.extend(
        f"negative self time: {where}"
        for where in layers.negative_self_times(tracer)
    )
    return metrics, tally


def _traced_pass(units, tally, tracer, plain: Pass) -> Pass:
    """Run *units* wrapped; their outputs must equal the plain pass's."""
    with tracer.span("pass traced"), tracer.installed():
        traced = _one_pass(units, tally, tracer)
    _differences(traced.outputs.values(), plain.stats, "the untraced pass")
    tally.check(traced.outputs.values())
    return traced


def _trace_in_process(workload, seed, scale, directory, tracer, tally):
    with tracer.span("pass plain"):
        faults = host.minor_faults()
        plain = _one_pass(workload.build(seed, scale, directory / "plain"), tally)
        faults = host.minor_faults() - faults
    workload.verify(plain.outputs)
    tally.check(plain.outputs.values())
    traced = _traced_pass(
        workload.build(seed, scale, directory / "traced"), tally, tracer, plain
    )
    metrics = layers.from_spans(tracer, set(traced.outputs), traced.work)
    metrics["bench.tracing_overhead_ratio"] = traced.cpu_s / plain.cpu_s
    large = next((unit for unit in plain.units if unit.role == "kernel"), None)
    if large is not None:
        trials = {
            cell: unit.trials for unit in traced.units for cell, _ in unit.models
        }
        metrics.update(layers.kernel_ratios(tracer, trials))
        metrics["kernels.arbitrations_per_cpu_s"] = (
            large.trials * large.points / plain.cpu[large.key]
        )
        metrics["kernels.fallback_points"] = sum(
            unit.fallbacks for unit in plain.units
        )
        # The object half allocates little; the faults are the kernels'.
        metrics["kernels.minor_faults"] = faults
    if tally.failed == 0:
        metrics.update(workload.model_metrics(plain.outputs))
    return metrics


def _trace_sweep(workload, seed, scale, directory, tracer, tally):
    """Four runs of the grid: plain, serial traced, supervised, wrapped.

    The workers of the supervised run are other processes and stay
    unwrapped, so the wrappers there see the parent side only; the
    layers inside a point are read off a serial in-process run of the
    same grid with the same journal and JSONL traces.
    """

    def run(mode: str, with_tracer: Tracer | None = None) -> Pass:
        units = workload.build(seed, scale, directory / f"trace-{mode}", mode=mode)
        return _one_pass(units, tally, with_tracer)

    with tracer.span("pass plain"):
        plain = run("serial-plain")
        serial = run("serial-traced")
    with tracer.span("pass supervised"), tracer.installed():
        supervised = run("supervised", tracer)
    for outputs in (serial.outputs, supervised.outputs):
        _differences(outputs.values(), plain.stats, "the serial in-process points")
        tally.check(outputs.values())
    tally.check(plain.outputs.values())
    wrapped_units = workload.build(
        seed, scale, directory / "trace-wrapped", mode="serial-traced"
    )
    wrapped = _traced_pass(wrapped_units, tally, tracer, plain)

    metrics = layers.from_spans(tracer, set(wrapped.outputs), wrapped.work)
    # The parent of a supervised run enters the resilience layer only.
    metrics.update(
        layers.from_spans(tracer, {"supervised-parent"}, supervised.work)
    )
    metrics["obs.trace_bytes"] = serial.units[0].trace_bytes
    metrics["obs.tracing_overhead_ratio"] = serial.cpu_s / plain.cpu_s
    metrics["sim.parallel.cpu_overhead_ratio"] = supervised.cpu_s / serial.cpu_s
    metrics["bench.tracing_overhead_ratio"] = wrapped.cpu_s / serial.cpu_s
    if tally.failed == 0:
        metrics.update(workload.model_metrics(plain.outputs))
    return metrics


# -- one workload, one pass kind: what a driver calls ---------------------------


@contextmanager
def _scratch_directory():
    """A directory inside the checkout, removed even when a point fails."""
    parent = ROOT / ".bench_tmp"
    parent.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix="e2e-", dir=parent))
    try:
        yield directory
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            parent.rmdir()
        except OSError:
            pass  # another run is using it


def _catalogued(traced: bool):
    return catalog.PER_LAYER if traced else catalog.END_TO_END + catalog.UNGATED


def _print_block(name: str, args, record: dict) -> None:
    """One workload's metrics, by name, each with its unit."""
    kind = "per layer, traced" if args.trace else "end to end, untraced"
    print(
        f"== {name}: {kind} (seed {args.seed}, scale {args.scale:g}, "
        f"work = {record['work_unit']}) =="
    )
    metrics = record["metrics"]
    passes = f" in {metrics['passes']:.1f} passes" if "passes" in metrics else ""
    print(
        f"    {record['attempted']} points attempted{passes}, "
        f"{record['failed']} failed; {record['checked']} outputs checked, "
        f"{record['mismatched']} mismatched"
    )
    # The simulated metrics are exact without tracing too; show them twice.
    model = () if args.trace else tuple(
        metric for metric in catalog.PER_LAYER if metric.name.startswith("model.")
    )
    for metric in _catalogued(args.trace) + model:
        if name in metric.workloads and metric.name in metrics:
            print(f"    {metric.name:<38} {metrics[metric.name]:>16.6g} {metric.unit}")
    for problem in record["problems"][:10]:
        print(f"    MISMATCH {problem}")
    for missing in record["missing"]:
        print(f"    MISSING {missing}")


def single_run(name: str, args) -> int:
    """Measure one workload one way; the last stdout line is the result."""
    workload = WORKLOADS[name]
    tracer = Tracer()
    with _scratch_directory() as directory:
        info = host.describe(directory)
        host.warn_if_unfit(info)
        if args.trace:
            metrics, tally = trace(workload, args.seed, args.scale, directory, tracer)
        else:
            reference = (
                None
                if args.update_expected
                else _expected_outputs(name, args.seed, args.scale)
            )
            metrics, tally, outputs = measure(
                workload, args.seed, args.scale, args.seconds, directory, reference
            )
            metrics["setup_s"] = measure_setup(name, args.seed, args.scale)
            if args.update_expected:
                _write_expected(name, outputs)
    record = {
        "workload": name,
        "why": workload.why,
        "work_unit": workload.work_unit,
        "host": info,
        "sys_s": host.sys_seconds(),
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "checked": tally.checked,
        "mismatched": tally.mismatched,
        "problems": tally.problems,
        "missing": [
            wanted
            for wanted in catalog.applicable(_catalogued(args.trace), name)
            if wanted not in metrics
        ],
    }
    record["correct"] = tally.correct and not record["missing"]
    _print_block(name, args, record)
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n", "utf-8")
    if args.trace_out:
        tracer.dump(Path(args.trace_out))
    # A driver wants every listed name on every workload: a layer the
    # workload never enters reads 0.
    listed = catalog.PER_LAYER if args.trace else catalog.END_TO_END
    print(json.dumps({
        "correct": record["correct"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric.name: {"value": metrics.get(metric.name, 0.0), "unit": metric.unit}
            for metric in listed
        },
    }))
    return 0


# -- every workload: what a person calls ---------------------------------------


def _in_fresh_process(name: str, args, traced: bool, directory: Path) -> dict:
    """:func:`single_run` in its own interpreter, as a driver would run it.

    Peak memory, import caches and allocator state then belong to that
    workload alone.  Returns its record; its report is passed through.
    """
    record_path = directory / f"{name}.trace{int(traced)}.json"
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", name, "--seed", str(args.seed), "--scale", repr(args.scale),
        "--seconds", repr(args.seconds), "--trace", str(int(traced)),
        "--json", str(record_path),
    ]
    if traced and args.trace_out:
        command += ["--trace-out", str(directory / f"{name}.spans.json")]
    if args.update_expected and not traced:
        command.append("--update-expected")
    finished = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    print("\n".join(finished.stdout.splitlines()[:-1]))
    return json.loads(record_path.read_text(encoding="utf-8"))


def _full_run(names, args, directory: Path) -> int:
    records = {}
    for name in names:
        print(f"-- {name}: {WORKLOADS[name].why}")
        records[name] = {"end_to_end": _in_fresh_process(name, args, False, directory)}
        if not args.no_traced:
            records[name]["per_layer"] = _in_fresh_process(name, args, True, directory)
    if args.json:
        document = {"seed": args.seed, "scale": args.scale, "workloads": records}
        Path(args.json).write_text(json.dumps(document, indent=1) + "\n", "utf-8")
    if args.trace_out:
        spans = {
            name: json.loads((directory / f"{name}.spans.json").read_text("utf-8"))
            for name in names
            if (directory / f"{name}.spans.json").exists()
        }
        Path(args.trace_out).write_text(json.dumps(spans, indent=1) + "\n", "utf-8")
    healthy = all(
        record["correct"] for entry in records.values() for record in entry.values()
    )
    print("all checks passed" if healthy else "CHECKS FAILED")
    return 0 if healthy else 1


#: end-to-end numbers that must repeat exactly between two runs of one seed
EXACT = ("work_per_pass", "points_per_pass", "failed_share", "result_mismatch_share")


def _aa_run(names, args, directory: Path) -> int:
    """The untraced set twice; every pair must agree within its bound."""
    bounds = {m["name"]: m["bound"] for m in _benchmark_file()["end_to_end"]}
    first = {name: _in_fresh_process(name, args, False, directory) for name in names}
    second = {name: _in_fresh_process(name, args, False, directory) for name in names}
    agree = True
    for name in names:
        print(f"== {name}: A/A ==")
        agree &= first[name]["correct"] and second[name]["correct"]
        a, b = first[name]["metrics"], second[name]["metrics"]
        for metric in sorted(set(a) | set(b)):
            left, right = a.get(metric), b.get(metric)
            if metric in bounds:
                difference = abs(right - left) / left
                verdict = "ok" if difference <= bounds[metric] else "OUTSIDE BOUND"
                detail = f"{difference:8.2%} (bound {bounds[metric]:.0%})"
            elif metric in EXACT or metric.startswith("model."):
                verdict = "ok" if left == right else "NOT EQUAL"
                detail = "exact".rjust(20)
            else:
                continue
            agree &= verdict == "ok"
            print(f"    {metric:<38} {left:>14.6g} {right:>14.6g} {detail} {verdict}")
    print("A/A agrees" if agree else "A/A DISAGREES")
    return 0 if agree else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=EXPECTED_SEED)
    parser.add_argument("--seconds", type=float,
                        help="wall seconds of untraced measuring per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies cycle and trial counts; the reference "
                             "results are checked at 1.0 only")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="measure one --workload untraced (0) or traced (1) "
                             "in this process and end with one JSON line")
    parser.add_argument("--no-traced", action="store_true")
    parser.add_argument("--aa", action="store_true",
                        help="run the untraced set twice and compare")
    parser.add_argument("--json", metavar="OUT")
    parser.add_argument("--trace-out", metavar="OUT")
    parser.add_argument("--update-expected", action="store_true")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    if args.setup_probe:
        return _setup_probe(names[0], args.seed, args.scale)
    if args.update_expected and (args.seed != EXPECTED_SEED or args.scale != 1.0):
        parser.error("--update-expected needs the default --seed and --scale")
    if args.seconds is None:
        args.seconds = float(_benchmark_file()["run_seconds"])
    if args.trace is not None:
        if len(names) != 1:
            parser.error("--trace needs exactly one --workload")
        try:
            return single_run(names[0], args)
        finally:
            host.stop_children()  # nothing of a run outlives it
    with _scratch_directory() as directory:
        if args.aa:
            return _aa_run(names, args, directory)
        return _full_run(names, args, directory)


if __name__ == "__main__":
    sys.exit(main())
