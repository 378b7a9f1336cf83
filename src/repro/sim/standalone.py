"""The standalone (non-timing) single-router matching model.

This reproduces the methodology behind Figures 8 and 9 (paper section
5.1): load a single 21364 router with randomly generated packets, run
one arbitration (every algorithm "takes one cycle"), count the matches,
and average over many independently generated trials.

Workload assumptions, straight from the paper:

* all output ports are free (Figure 8) or a fixed fraction are
  occupied (Figure 9);
* 50% of the packets are local traffic destined for the local memory
  controller and I/O output ports; the rest spread uniformly over the
  torus output ports;
* every algorithm obeys the basic router constraints -- adaptive
  routing offers at most two candidate outputs per packet, the
  connection matrix limits which read port reaches which output, and
  an input port dispatches at most two packets (one per read port).

The *load* is the number of packets resident in the router's input
buffers; the **MCM saturation load** is the load beyond which MCM's
match count stops improving (it plateaus just below seven, the output
port count).

Two backends compute the same measurement:

* ``backend="object"`` (default) -- the reference oracle: per-trial
  Python objects through the arbiter classes in :mod:`repro.core`.
* ``backend="vectorized"`` -- :mod:`repro.kernels` evaluates all
  trials as batched numpy array ops, bit-identical to the object path
  (same per-trial grants, same :class:`RunningStats`); configurations
  the kernels don't cover fall back to the object path with
  :attr:`StandaloneRouterModel.fallback_reason` recording why.

Both draw every random decision from the keyed counter-based stream of
:mod:`repro.kernels.rng`: each draw is addressed by a ``(trial,
domain, a, b)`` key instead of its position in a sequential stream, so
the two backends agree draw for draw no matter in which order they
evaluate them.  The key schedule used by each draw site below is the
backend contract -- see docs/kernels.md -- and is pinned by the
seed-stability tests.
"""

from __future__ import annotations

import warnings
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from repro.core.registry import ArbiterContext, make_arbiter, nomination_style
from repro.core.types import Nomination, SourceKind
from repro.kernels.rng import (
    D_BUSY,
    D_FIRST_DIR,
    D_LOCAL_COIN,
    D_LOCAL_OUT,
    D_NOM_CHOICE,
    D_PORT,
    D_SECOND_DIR,
    D_TWO_COIN,
    KEY_FIELD_LIMIT,
    KeyedTrialRandom,
    TrialStream,
    keyed_word,
    pack_key,
)
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.router.connection_matrix import DEFAULT_CONNECTION_MATRIX, ConnectionMatrix
from repro.router.ports import (
    InputPort,
    LOCAL_OUTPUTS,
    NUM_OUTPUT_PORTS,
    READ_PORTS_PER_INPUT,
    TORUS_OUTPUTS,
    network_rows,
    row_of,
)
from repro.sim.metrics import RunningStats

#: valid values of the ``backend`` switch.
BACKENDS = ("object", "vectorized")

# Packet generation, table-driven: a drawn packet is one byte, its
# ``kind`` -- ``port * _KINDS_PER_PORT + choice`` -- where ``choice``
# indexes ``_OUTPUT_CHOICES``: the three local outputs, the four single
# torus directions, then ``(first, k-th of the other three in order)``
# for each first direction, i.e. the pop-then-index rule the vectorized
# workload mirrors.  ``_PORT_OF[kind]`` and ``_OUTPUTS_OF[kind]`` undo
# the packing.
_INPUT_PORTS = tuple(InputPort)
_OUTPUT_CHOICES = (
    tuple((int(out),) for out in LOCAL_OUTPUTS)
    + tuple((int(first),) for first in TORUS_OUTPUTS)
    + tuple(
        (int(first), int(second))
        for first in TORUS_OUTPUTS
        for second in TORUS_OUTPUTS
        if second != first
    )
)
_KINDS_PER_PORT = len(_OUTPUT_CHOICES)
_ONE_DIRECTION_CHOICE = len(LOCAL_OUTPUTS)
_TWO_DIRECTION_CHOICE = _ONE_DIRECTION_CHOICE + len(TORUS_OUTPUTS)
_PORT_OF = tuple(port for port in _INPUT_PORTS for _ in _OUTPUT_CHOICES)
_OUTPUTS_OF = _OUTPUT_CHOICES * len(_INPUT_PORTS)

# Packed draw keys of packet generation: ``_PORT_KEY | uid * _UID_KEY``
# is ``pack_key(D_PORT, uid, 0)``, and so on.  The config bounds
# ``load`` so every uid fits its key field unchecked.
_UID_KEY = pack_key(0, 1, 0)
_PORT_KEY = pack_key(D_PORT, 0, 0)
_LOCAL_COIN_KEY = pack_key(D_LOCAL_COIN, 0, 0)
_LOCAL_OUT_KEY = pack_key(D_LOCAL_OUT, 0, 0)
_FIRST_DIR_KEY = pack_key(D_FIRST_DIR, 0, 0)
_TWO_COIN_KEY = pack_key(D_TWO_COIN, 0, 0)
_SECOND_DIR_KEY = pack_key(D_SECOND_DIR, 0, 0)

#: how many packet tables stay retained, least recently used evicted
#: first, and the bytes one table may hold: one per drawn packet plus
#: ``_RECORD_BYTES`` per trial for the record itself.  A config that
#: alone exceeds the budget draws into a throwaway record instead.
TABLE_KEYS = 4
TABLE_BUDGET = 1 << 20
_RECORD_BYTES = 64


#: The shared packet tables, least recently used first.  A table holds
#: the drawn packets of every trial of one workload, a ``(seed,
#: local_fraction, two_direction_fraction)``: nothing else reaches
#: packet generation.  ``table[trial]`` holds the kinds of the packets
#: drawn so far, in uid order.  Every draw is keyed by ``(trial,
#: domain, uid)``, so the packets at load ``L`` are the first ``L`` of
#: any longer record of the trial: a record only ever grows, to the
#: largest load requested so far.  Models of one process run one at a
#: time, so the tables are not locked.
_TABLES: OrderedDict[tuple, list[bytearray]] = OrderedDict()


def _table_bytes(table: list[bytearray], trials: int = 0, load: int = 0) -> int:
    """What *table* costs against :data:`TABLE_BUDGET` once it serves
    ``trials`` trials at ``load``."""
    drawn = sum(
        max(len(record), load) if trial < trials else len(record)
        for trial, record in enumerate(table)
    )
    new = max(0, trials - len(table))
    return drawn + new * load + (len(table) + new) * _RECORD_BYTES


def _packet_table(config: StandaloneConfig) -> list[bytearray] | None:
    """The shared table *config* draws into, or None for a throwaway.

    The table is the most recently used one afterwards; one that would
    outgrow :data:`TABLE_BUDGET` serving *config* is replaced by an
    empty one, so no table ever holds more than the budget.
    """
    trials, load = config.trials, config.load
    if trials * (_RECORD_BYTES + load) > TABLE_BUDGET:
        return None
    key = (config.seed, config.local_fraction, config.two_direction_fraction)
    table = _TABLES.pop(key, [])
    if _table_bytes(table, trials, load) > TABLE_BUDGET:
        table = []
    _TABLES[key] = table
    while len(_TABLES) > TABLE_KEYS:
        _TABLES.popitem(last=False)
    table.extend(bytearray() for _ in range(trials - len(table)))
    return table


class StandalonePacket(NamedTuple):
    """A waiting packet: identity, port, candidate outputs, age rank."""

    uid: int
    port: InputPort
    outputs: tuple[int, ...]
    age: int


_new_tuple = tuple.__new__


@dataclass(frozen=True)
class StandaloneConfig:
    """One matching-capability measurement.

    Attributes:
        algorithm: any name in the registry (``MCM``, ``PIM``,
            ``PIM1``, ``WFA``, ``SPAA``, ...).
        load: number of packets loaded into the router per trial.
        occupancy: fraction of the seven output ports marked busy in
            each trial (0, 0.25, 0.5, 0.75 in Figure 9).
        local_fraction: share of packets destined for the local
            (memory-controller / I/O) output ports.
        two_direction_fraction: share of network packets with two
            adaptive candidate outputs (the rest have one).
        trials: arbitration iterations to average over (1000 in the
            paper).
        seed: RNG seed; trials are independent given the seed.
    """

    algorithm: str = "SPAA"
    load: int = 16
    occupancy: float = 0.0
    local_fraction: float = 0.5
    two_direction_fraction: float = 0.5
    trials: int = 1000
    seed: int = 42
    matrix: ConnectionMatrix = field(default_factory=lambda: DEFAULT_CONNECTION_MATRIX)

    def __post_init__(self) -> None:
        if self.load < 1:
            raise ValueError("load must be at least one packet")
        if self.load > KEY_FIELD_LIMIT:
            # Packet uids key the draws; larger ones would not fit a key field.
            raise ValueError(f"load must be at most {KEY_FIELD_LIMIT} packets")
        if not 0.0 <= self.occupancy < 1.0:
            raise ValueError("occupancy must be in [0, 1)")
        if not 0.0 <= self.local_fraction <= 1.0:
            raise ValueError("local_fraction must be in [0, 1]")
        if not 0.0 <= self.two_direction_fraction <= 1.0:
            raise ValueError("two_direction_fraction must be in [0, 1]")
        if self.trials < 1:
            raise ValueError("need at least one trial")


class StandaloneRouterModel:
    """Measures an algorithm's matches/cycle on random router states.

    Pass a :class:`repro.obs.telemetry.Telemetry` to record the arbiter's
    nomination/grant/conflict counters per trial.
    Pass an :class:`repro.resilience.ArbitrationInvariants` as
    ``invariants`` to validate every trial's grants as a legal matching
    (unique rows/packets/outputs, nominated combinations only, free
    outputs only, per-port capacities respected).
    Pass a :class:`repro.resilience.FaultConfig` (or a built
    :class:`~repro.resilience.FaultInjector`) as ``faults`` to stress
    the matching layer itself: grant suppression (and a trial-indexed
    stall window) break individual grants *after* arbitration, so
    Figures 8/9 arbiters can be studied under adversarial grant loss
    just like the network model's routers.

    ``backend="vectorized"`` routes the whole run through
    :mod:`repro.kernels`.  Telemetry, invariant checking, custom
    matrices and algorithms without a kernel fall back to the object
    path (``fallback_reason`` says why; ``backend`` reflects the path
    actually taken).  Faults and ``trial_hook`` are supported on both
    backends with identical results.

    ``trial_hook`` (``hook(trial, grants)``) observes each trial's
    final grant list -- after fault injection, exactly what the
    returned statistics count.  The parity gate uses it to diff the
    backends grant for grant.
    """

    def __init__(
        self,
        config: StandaloneConfig,
        telemetry: Telemetry | None = None,
        invariants=None,
        faults=None,
        heartbeat=None,
        backend: str = "object",
        trial_hook=None,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        self.config = config
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.invariants = invariants
        #: optional liveness callable (see repro.resilience.supervisor),
        #: driven every few trials from inside :meth:`run`'s loop.
        self.heartbeat = heartbeat
        self._trial_hook = trial_hook
        if faults is not None and not hasattr(faults, "filter_matching"):
            # A FaultConfig: build the injector here (lazy import keeps
            # repro.sim free of a hard dependency on the resilience
            # package at import time).
            from repro.resilience.faults import FaultInjector

            faults = FaultInjector(faults)
        self.faults = faults
        self._stream = TrialStream(config.seed)
        self._rng = KeyedTrialRandom(self._stream)
        self._arbiter = make_arbiter(
            config.algorithm,
            ArbiterContext(
                num_rows=16,
                num_outputs=NUM_OUTPUT_PORTS,
                network_rows=network_rows(),
                rng=self._rng,
            ),
        )
        style = nomination_style(config.algorithm)
        self._uses_packet_pool = style == "pool"
        self._single_output = style == "single-output"
        #: (port, outputs) -> nomination cells, see :meth:`_nomination_cells`
        self._cells: dict[tuple[InputPort, tuple[int, ...]], tuple] = {}
        #: the shared packet table of the current run (None outside a
        #: run, or when the run's config is too large to retain).
        self._table: list[bytearray] | None = None
        #: why a requested vectorized run fell back to the object path
        #: (None when no fallback happened).
        self.fallback_reason: str | None = None
        self.backend = self._resolve_backend(backend)

    def _resolve_backend(self, backend: str) -> str:
        if backend != "vectorized":
            return backend
        from repro import kernels

        if not kernels.numpy_available():
            raise ImportError(
                "backend='vectorized' needs numpy; install the kernels "
                f"extra ({kernels.INSTALL_HINT}) or use backend='object'"
            )
        ok, reason = kernels.supports(self.config)
        if ok and self.telemetry.enabled:
            ok, reason = False, "telemetry requires the object backend"
        if ok and self.invariants is not None:
            ok, reason = False, "invariant checking requires the object backend"
        if not ok:
            self.fallback_reason = reason
            return "object"
        return "vectorized"

    def run(self) -> RunningStats:
        """Average matches per arbitration over the configured trials."""
        if self.backend == "vectorized":
            from repro.kernels.batch import run_batched

            return run_batched(
                self.config,
                faults=self.faults,
                heartbeat=self.heartbeat,
                trial_hook=self._trial_hook,
            )
        self._table = _packet_table(self.config)
        tel = self.telemetry
        if tel.enabled:
            tel.open_run(self.config, model="standalone")
        stats = RunningStats()
        arbiter = self._arbiter
        invariants = self.invariants
        faults = self.faults
        heartbeat = self.heartbeat
        trial_hook = self._trial_hook
        for trial in range(self.config.trials):
            if heartbeat is not None and trial % 64 == 0:
                heartbeat()  # wall-time throttled by the sender
            self._rng.set_trial(trial)
            packets = self._generate_packets(trial)
            free_outputs = self._generate_free_outputs(trial)
            nominations = self._build_nominations(packets, free_outputs, trial)
            grants = arbiter.arbitrate(nominations, free_outputs)
            if tel.enabled:
                tel.on_arbitration(
                    arbiter.name, len(nominations), len(grants), arbiter.wasted_grants
                )
            if faults is not None:
                # Injected after arbitration, checked after injection: a
                # suppressed subset of a legal matching stays legal.
                grants = faults.filter_matching(grants, trial)
            if invariants is not None:
                invariants.check_arbitration(
                    nominations, free_outputs, grants, trial
                )
            if trial_hook is not None:
                trial_hook(trial, grants)
            stats.add(float(len(grants)))
        self._table = None
        if tel.enabled:
            tel.finalize(trials=self.config.trials, mean_matches=stats.mean)
        return stats

    # -- workload generation ------------------------------------------------

    def _generate_packets(self, trial: int = 0) -> list[StandalonePacket]:
        """The first ``load`` packets of *trial*.

        During :meth:`run` they come from the shared table, drawn only
        where no earlier run drew them; outside a run, or when the
        config is too large to retain, into a throwaway record.
        """
        load = self.config.load
        record = bytearray() if self._table is None else self._table[trial]
        if len(record) < load:
            self._draw_packets(trial, record, load)
        port_of, outputs_of = _PORT_OF, _OUTPUTS_OF
        # tuple.__new__ is what StandalonePacket(...) runs, without the
        # Python-level frame of the generated __new__.  Oldest first
        # within a port: lower uid == arrived earlier.
        return [
            _new_tuple(StandalonePacket, (uid, port_of[kind], outputs_of[kind], uid))
            for uid, kind in enumerate(record[:load])
        ]

    def _draw_packets(self, trial: int, record: bytearray, load: int) -> None:
        """Extend *record* with the kinds of packets ``len(record)..load-1``.

        Each packet draws from the keys of one trial base, with the same
        keys and derivations as :class:`TrialStream`'s ``randbelow``
        (``word % n``) and ``uniform`` (top 53 bits).
        """
        local_fraction = self.config.local_fraction
        two_direction_fraction = self.config.two_direction_fraction
        base = self._stream.trial_base(trial)
        for uid in range(len(record), load):
            key = uid * _UID_KEY
            kind = keyed_word(base, _PORT_KEY | key) % 8 * _KINDS_PER_PORT
            coin = keyed_word(base, _LOCAL_COIN_KEY | key) >> 11
            if coin * 2.0**-53 < local_fraction:
                kind += keyed_word(base, _LOCAL_OUT_KEY | key) % 3
            else:
                first = keyed_word(base, _FIRST_DIR_KEY | key) % 4
                coin = keyed_word(base, _TWO_COIN_KEY | key) >> 11
                if coin * 2.0**-53 < two_direction_fraction:
                    second = keyed_word(base, _SECOND_DIR_KEY | key) % 3
                    kind += _TWO_DIRECTION_CHOICE + first * 3 + second
                else:
                    kind += _ONE_DIRECTION_CHOICE + first
            record.append(kind)

    def _generate_free_outputs(self, trial: int = 0) -> frozenset[int]:
        """Sample the busy outputs with a keyed partial Fisher-Yates.

        Each step draws an index into the shrinking candidate pool and
        swap-removes it; step ``j`` is keyed by ``(trial, D_BUSY, j)``,
        so the vectorized backend runs the identical loop over whole
        trial columns.
        """
        busy_count = round(self.config.occupancy * NUM_OUTPUT_PORTS)
        stream = self._stream
        pool = list(range(NUM_OUTPUT_PORTS))
        free = set(pool)
        for step in range(busy_count):
            index = stream.randbelow(trial, D_BUSY, step, 0, len(pool))
            free.discard(pool[index])
            pool[index] = pool[-1]
            pool.pop()
        return frozenset(free)

    # -- nomination building --------------------------------------------------

    def _build_nominations(
        self,
        packets: list[StandalonePacket],
        free_outputs: frozenset[int],
        trial: int = 0,
    ) -> list[Nomination]:
        if self._uses_packet_pool:
            return self._pool_nominations(packets)
        if self._single_output:
            return self._single_output_nominations(packets, free_outputs, trial)
        return self._per_cell_nominations(packets)

    def _pool_nominations(self, packets: list[StandalonePacket]) -> list[Nomination]:
        """MCM sees every waiting packet, capped only by port capacity."""
        return [
            Nomination(
                row=packet.uid,  # unique row per packet: no row conflicts
                packet=packet.uid,
                outputs=packet.outputs,
                group=int(packet.port),
                group_capacity=2,
            )
            for packet in packets
        ]

    def _per_cell_nominations(
        self, packets: list[StandalonePacket]
    ) -> list[Nomination]:
        """PIM/WFA/iSLIP: every waiting packet, per connected read port.

        One nomination per (packet, read port) with the packet's
        connected candidate outputs.  The per-cell reduction -- the
        *oldest* packet per (row, output) cell -- is the arbiter's job
        (WFA's oldest-wins cell load, PIM's oldest-of-the-granted-row
        pick), and multi-round PIM deliberately re-nominates younger
        packets of a row once an older one is matched, so reducing here
        would change full PIM.  An earlier version carried a dict keyed
        by ``(row, packet.uid)`` that was meant to dedup per cell but
        never could (its keys were unique per packet); the regression
        test pins that all per-packet nominations are emitted.
        """
        cells_of = self._cells
        nominations: list[Nomination] = []
        for packet in packets:
            cells = cells_of.get((packet.port, packet.outputs))
            if cells is None:
                cells = self._nomination_cells(packet.port, packet.outputs)
            for row, outputs, source, group in cells:
                nominations.append(
                    Nomination(
                        row=row,
                        packet=packet.uid,
                        outputs=outputs,
                        source=source,
                        age=-packet.age,
                        group=group,
                        group_capacity=2,
                    )
                )
        return nominations

    def _single_output_nominations(
        self,
        packets: list[StandalonePacket],
        free_outputs: frozenset[int],
        trial: int = 0,
    ) -> list[Nomination]:
        """SPAA/OPF: one packet, one output, per *input port*.

        The read-port pair synchronizes on a single nomination (see
        :data:`repro.core.timing.SPAA_TIMING`), so eight arbiters
        compete per cycle.  SPAA's readiness test skips busy outputs
        and picks uniformly between two adaptive candidates with no
        cross-arbiter coordination; OPF (the Figure 2 straw man) aims
        the oldest packet at its first-choice output unconditionally.
        The uniform pick is keyed by the nominated packet's uid.
        """
        check_free = self.config.algorithm != "OPF"
        stream = self._stream
        cells_of = self._cells
        nominated_ports: set[InputPort] = set()
        nominations: list[Nomination] = []
        for packet in packets:  # oldest first
            port = packet.port
            if port in nominated_ports:
                continue
            cells = cells_of.get((port, packet.outputs))
            if cells is None:
                cells = self._nomination_cells(port, packet.outputs)
            for row, outputs, source, group in cells:
                if check_free:
                    outputs = [out for out in outputs if out in free_outputs]
                    if not outputs:
                        continue
                choice = outputs[
                    stream.randbelow(
                        trial, D_NOM_CHOICE, packet.uid, 0, len(outputs)
                    )
                ]
                nominations.append(
                    Nomination(
                        row=row,
                        packet=packet.uid,
                        outputs=(choice,),
                        source=source,
                        age=-packet.age,
                        group=group,
                        group_capacity=2,
                    )
                )
                nominated_ports.add(port)
                break
        return nominations

    def _nomination_cells(
        self, port: InputPort, outputs: tuple[int, ...]
    ) -> tuple[tuple[int, tuple[int, ...], SourceKind, int], ...]:
        """``(row, connected outputs, source, group)`` per read port.

        Read port 0 first; read ports wired to none of *outputs* are
        left out.  The answer depends only on ``(port, outputs)`` and
        the frozen ``config.matrix``, so it is computed once per pair
        and kept in ``self._cells``.
        """
        matrix = self.config.matrix
        source = SourceKind.NETWORK if port.is_network else SourceKind.LOCAL
        cells = []
        for read_port in range(READ_PORTS_PER_INPUT):
            row = row_of(port, read_port)
            connected = tuple(out for out in outputs if matrix.connected(row, out))
            if connected:
                cells.append((row, connected, source, int(port)))
        self._cells[port, outputs] = cells = tuple(cells)
        return cells


def measure_matches(
    config: StandaloneConfig, faults=None, backend: str = "object"
) -> float:
    """Mean matches per arbitration for one configuration.

    *faults* (a :class:`repro.resilience.FaultConfig`) injects
    matching-layer grant suppression into every trial; each call builds
    a fresh injector, so a given (config, faults) pair is deterministic.
    *backend* selects the object oracle or the vectorized kernels --
    the value is identical either way (see docs/kernels.md).
    """
    return StandaloneRouterModel(config, faults=faults, backend=backend).run().mean


def find_mcm_saturation_load(
    base: StandaloneConfig | None = None,
    tolerance: float = 0.01,
    max_load: int = 512,
    backend: str = "object",
) -> int:
    """The load where MCM's match count stops improving.

    Doubles the load until the incremental gain falls below
    *tolerance* (relative), then returns the smaller load -- the knee
    of the MCM curve that Figure 8 normalizes its x-axis by.

    Hitting *max_load* means the plateau was never verified: the last
    doubling still improved by more than the tolerance (or was never
    tested).  That returns *max_load* so sweeps can proceed, but warns
    -- a silently capped "saturation load" is not a saturation load.
    """
    base = base or StandaloneConfig()
    config = replace(base, algorithm="MCM")
    load = 4
    current = measure_matches(replace(config, load=load), backend=backend)
    while load < max_load:
        nxt = measure_matches(replace(config, load=load * 2), backend=backend)
        if nxt - current < tolerance * max(current, 1e-9):
            return load
        load *= 2
        current = nxt
    warnings.warn(
        f"MCM saturation search hit max_load={max_load} without the "
        f"match-count gain dropping below tolerance={tolerance}; "
        "returning the cap, which is NOT a verified saturation load",
        RuntimeWarning,
        stacklevel=2,
    )
    return max_load
