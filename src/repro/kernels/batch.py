"""Run one standalone-model point end to end on the batched backend.

:func:`run_batched` is the vectorized twin of
:meth:`repro.sim.standalone.StandaloneRouterModel.run`: same config in,
bit-identical :class:`~repro.sim.metrics.RunningStats` out.  Match
counts feed the Welford accumulator one trial at a time in trial order,
so mean/variance/min/max are not merely close to the object path's --
they are the same floating-point values.

Grants are only computed when someone reads them (a fault injector,
whose per-grant suppression draws are sequential, or a ``trial_hook``,
which the parity tests use to diff per-trial grants).  A plain
measurement takes each kernel's array-op match counts and builds no
grant; its one Python loop is the Welford accumulation.  Any future
consumer of kernel grants must set ``collect`` the same way.
"""

from __future__ import annotations

from repro.core.registry import canonical_name
from repro.kernels import matchers, workload
from repro.sim.metrics import RunningStats


def run_batched(
    config, faults=None, heartbeat=None, trial_hook=None
) -> RunningStats:
    """All trials of *config* (a ``StandaloneConfig``) as batched ops.

    *faults* accepts a ``FaultConfig`` or a built ``FaultInjector``,
    like the object model.  *trial_hook* (``hook(trial, grants)``) sees
    every trial's post-fault grant list in object-path emission order.
    *heartbeat* is driven between kernel phases and along the
    per-trial accumulation loop.
    """
    if faults is not None and not hasattr(faults, "filter_matching"):
        from repro.resilience.faults import FaultInjector

        faults = FaultInjector(faults)
    collect = faults is not None or trial_hook is not None

    if heartbeat is not None:
        heartbeat()
    batch = workload.generate(config)
    if heartbeat is not None:
        heartbeat()
    counts, per_trial = _dispatch(config, batch, collect)
    if heartbeat is not None:
        heartbeat()

    stats = RunningStats()
    if not collect:
        for count in counts.tolist():
            stats.add(float(count))
        return stats
    for trial, grants in enumerate(per_trial):
        if heartbeat is not None and trial % 4096 == 0:
            heartbeat()
        if faults is not None:
            grants = faults.filter_matching(grants, trial)
        if trial_hook is not None:
            trial_hook(trial, grants)
        stats.add(float(len(grants)))
    return stats


def _dispatch(config, batch, collect):
    algorithm = canonical_name(config.algorithm)
    if algorithm == "WFA-base":
        return matchers.wfa_kernel(batch, rotary=False, collect=collect)
    if algorithm == "WFA-rotary":
        return matchers.wfa_kernel(batch, rotary=True, collect=collect)
    if algorithm == "PIM1":
        return matchers.pim1_kernel(batch, collect=collect)
    if algorithm == "OPF":
        return matchers.opf_kernel(batch, collect=collect)
    if algorithm == "SPAA-base":
        return matchers.spaa_kernel(batch, rotary=False, collect=collect)
    if algorithm == "SPAA-rotary":
        return matchers.spaa_kernel(batch, rotary=True, collect=collect)
    raise ValueError(
        f"no vectorized kernel for {config.algorithm!r}; "
        "the caller should have fallen back to the object backend"
    )
