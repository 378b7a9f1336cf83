"""The full-network timing model (Figures 10 and 11).

An event-driven simulation of a torus of 21364 routers running the
coherence-protocol workload.  The model's fidelity centres on what the
paper's comparison depends on:

* every arbitration actually runs the algorithm under study over the
  router's live nominations (matching quality is emergent, not
  approximated);
* each algorithm's latency, initiation interval, nomination fan-out
  and pipelined tail follow the hardware numbers in
  :mod:`repro.core.timing` -- the launch/resolve split exposes SPAA's
  one-per-cycle pipelining and its speculation collisions;
* virtual cut-through with per-class buffering, adaptive routing in
  the minimal rectangle and dateline escape channels produce real
  back-pressure, so tree saturation (and the Rotary Rule's rescue)
  emerges rather than being scripted.

Simplifications (see DESIGN.md section 5): packets occupy exactly one
router's buffer at a time (header cut-through is approximated by
letting a packet arbitrate the moment its header arrives), credits are
visible immediately, and local-port enqueue bandwidth is not modelled.
"""

from __future__ import annotations

import random
from functools import partial

from repro.coherence.protocol import CoherenceEngine
from repro.core.antistarvation import AntiStarvationTracker
from repro.core.registry import ArbiterContext, algorithm_timing, make_arbiter
from repro.network.channels import entry_channel
from repro.network.packets import Packet
from repro.network.topology import Torus2D
from repro.obs.telemetry import Telemetry
from repro.resilience.faults import (
    REASON_LINK_RETRIES_EXHAUSTED,
    FaultConfig,
    FaultInjector,
)
from repro.resilience.invariants import InvariantChecker, InvariantConfig
from repro.resilience.watchdog import ProgressWatchdog, WatchdogConfig
from repro.router.ports import (
    InputPort,
    LOCAL_INPUTS,
    TORUS_OUTPUTS,
    network_rows,
)
from repro.router.router import Dispatch, Launch, Router
from repro.sim.config import SimulationConfig
from repro.sim.engine import EventQueue
from repro.sim.metrics import BNFPoint, NetworkStats
from repro.sim.traffic import PoissonInjector, make_pattern

#: simulated cycles between in-loop heartbeat ticks of a supervised
#: run; the sender throttles to wall time on top, so this only bounds
#: how fine-grained "the event loop is alive" can be.
HEARTBEAT_INTERVAL_CYCLES = 1_000.0


class NetworkSimulator:
    """One timing-model run: build with a config, call :meth:`run`.

    Pass a :class:`repro.obs.telemetry.Telemetry` to collect arbitration
    counters, per-port utilization and (with a real sink) a JSONL
    event trace.  The router knows nothing of it: the simulator records
    each launch after :meth:`Router.nominate`, each arbitration pass
    from the router's ``grant_filter`` seam and each grant after
    :meth:`Router.resolve`.  Without telemetry (``None``, the default)
    every site is one ``is not None`` branch.

    The resilience layer (:mod:`repro.resilience`) attaches the same
    way: ``faults`` takes a :class:`~repro.resilience.FaultConfig` (or
    a built :class:`~repro.resilience.FaultInjector`), ``invariants``
    an :class:`~repro.resilience.InvariantConfig` or checker, and
    ``watchdog`` a :class:`~repro.resilience.WatchdogConfig` or
    :class:`~repro.resilience.ProgressWatchdog`.  All three default to
    off.  The checker and any observer subscribe through
    :meth:`attach_observer`; every periodic tick runs on :meth:`every`.
    """

    def __init__(
        self,
        config: SimulationConfig,
        telemetry: Telemetry | None = None,
        faults: FaultConfig | FaultInjector | None = None,
        invariants: InvariantConfig | InvariantChecker | None = None,
        watchdog: WatchdogConfig | ProgressWatchdog | None = None,
        heartbeat=None,
    ) -> None:
        self.config = config
        #: optional liveness callable (see repro.resilience.supervisor):
        #: driven from inside the event loop via a periodic tick, so a
        #: wedged loop stops beating -- which is the whole point.
        self.heartbeat = heartbeat
        self.telemetry = telemetry
        if faults is not None and not isinstance(faults, FaultInjector):
            faults = FaultInjector(faults)
        if invariants is not None and not isinstance(invariants, InvariantChecker):
            invariants = InvariantChecker(invariants)
        if watchdog is not None and not isinstance(watchdog, ProgressWatchdog):
            watchdog = ProgressWatchdog(watchdog)
        self.faults = faults
        self.invariants = invariants
        self.watchdog = watchdog
        #: whole-run packet accounting (the conservation invariant's
        #: ground truth; window-relative figures live in ``stats``).
        self.total_injected = 0
        self.total_delivered = 0
        self.total_dropped = 0
        self.packets_in_transit = 0
        self.packets_sinking = 0
        #: set by :meth:`drain`: True when the network quiesced inside
        #: the budget, False when packets were left unaccounted.
        self.drained_clean: bool | None = None
        self._telemetry_finalized = False
        network = config.network
        self.topology = Torus2D(network.width, network.height)
        self.clocks = network.effective_clocks
        self.link = network.effective_link
        base_timing = (
            config.arbitration_override
            if config.arbitration_override is not None
            else algorithm_timing(config.algorithm)
        )
        self.timing = base_timing.scaled(network.pipeline_scale)
        self.queue = EventQueue()
        self.stats = NetworkStats(num_routers=self.topology.num_nodes)

        seed = config.seed
        self._traffic_rng = random.Random(seed)
        self._engine_rng = random.Random(seed + 1)
        self._pattern = make_pattern(
            config.traffic.pattern, self.topology, self._traffic_rng
        )
        self._injector = PoissonInjector(
            config.traffic.injection_rate, self._traffic_rng
        )

        self.routers = [
            self._build_router(node, random.Random(seed + 1000 + node))
            for node in range(self.topology.num_nodes)
        ]
        for router in self.routers:
            router.output_tail_cycles = float(self.timing.tail_cycles)
        #: the launch-attempt event of each router, by node
        self._launch_attempts = [
            partial(self._try_launch, router) for router in self.routers
        ]
        self._wire_topology()

        self._link_faults_active = faults is not None and faults.affects_links
        self._grant_faults = (
            faults if faults is not None and faults.affects_grants else None
        )
        #: per node, whether its last recorded pass left draining engaged
        self._draining = [False] * self.topology.num_nodes
        if telemetry is not None:
            grant_filter = self._record_pass
        elif self._grant_faults is not None:
            grant_filter = self._grant_faults.filter_grants
        else:
            grant_filter = None
        for router in self.routers:
            router.grant_filter = grant_filter

        self.engine = CoherenceEngine(
            host=self,
            num_nodes=self.topology.num_nodes,
            mshr_limit=config.traffic.mshr_limit,
            two_hop_fraction=config.traffic.two_hop_fraction,
            memory_latency_ns=config.traffic.memory_latency_ns,
            l2_latency_cycles=config.traffic.l2_latency_cycles,
            rng=self._engine_rng,
            io_fraction=config.traffic.io_fraction,
        )
        self.engine.on_transaction_complete = self._transaction_complete

        #: per (node, local input port) queues of packets awaiting
        #: buffer space -- the injection back-pressure path.
        self._pending: dict[tuple[int, InputPort], list[Packet]] = {
            (node, port): []
            for node in range(self.topology.num_nodes)
            for port in LOCAL_INPUTS
        }
        self._hop_latency = self.link.hop_latency_cycles(self.clocks)
        self._window_start = float(config.warmup_cycles)
        self._window_end = float(config.total_cycles)
        #: bound observer hooks, one list per site (attach_observer);
        #: empty by default, so each site pays one truthiness check.
        self._on_enter: list = []
        self._on_dispatch: list = []
        self._on_delivery: list = []
        if invariants is not None:
            self.attach_observer(invariants)

    def _build_router(self, node: int, rng: random.Random) -> Router:
        context = ArbiterContext(
            num_rows=16,
            num_outputs=7,
            network_rows=network_rows(),
            rng=rng,
        )
        return Router(
            node=node,
            topology=self.topology,
            arbiter=make_arbiter(self.config.algorithm, context),
            buffer_plan=self.config.network.buffer_plan,
            matrix=self.config.network.matrix,
            antistarvation=AntiStarvationTracker(self.config.antistarvation),
            rng=rng,
            torus_cycles_per_flit=self.clocks.core_cycles_per_flit_on_link,
            local_cycles_per_flit=1.0,
        )

    def _wire_topology(self) -> None:
        for router in self.routers:
            for output in TORUS_OUTPUTS:
                direction = output.direction
                neighbor = self.routers[
                    self.topology.neighbor(router.node, direction)
                ]
                in_port = InputPort(int(direction.opposite))
                router.downstream[output] = (neighbor, in_port)

    # -- ProtocolHost interface -------------------------------------------

    @property
    def now(self) -> float:
        return self.queue.now

    def cycles_per_ns(self) -> float:
        return self.clocks.core_ghz

    def schedule_after(self, delay_cycles: float, callback) -> None:
        self.queue.schedule_after(delay_cycles, callback)

    def enqueue_local(self, node: int, port: InputPort, packet: Packet) -> None:
        if port.is_network:
            raise ValueError("local injection must use a local input port")
        self.total_injected += 1
        if self._in_window(self.queue.now):
            self.stats.packets_injected += 1
        tel = self.telemetry
        if tel is not None:
            tel.on_injection(
                self.queue.now,
                node,
                packet.uid,
                packet.pclass.label,
                packet.destination,
            )
        self._pending[(node, port)].append(packet)
        self._drain_pending(node, port)

    # -- simulation loop ----------------------------------------------------

    def run(self) -> NetworkStats:
        """Simulate warmup + measurement and return the window's stats."""
        tel = self.telemetry
        if tel is not None:
            tel.open_run(self.config, model="timing")
        for node in range(self.topology.num_nodes):
            self.queue.schedule_at(
                self._injector.next_interval(), partial(self._injection_attempt, node)
            )
        if self.invariants is not None:
            self.every(
                self.invariants.config.check_interval_cycles,
                partial(self.invariants.check_network, self),
            )
        if self.watchdog is not None:
            self.every(
                self.watchdog.config.window_cycles,
                partial(self.watchdog.observe, self),
            )
        if self.heartbeat is not None:
            self.heartbeat()  # "simulation entered its event loop"
            self.every(HEARTBEAT_INTERVAL_CYCLES, self.heartbeat)
        self.queue.run_until(self._window_end)
        if self.invariants is not None:
            self.invariants.check_network(self, full=True)
        self.stats.window_ns = (
            self.config.measure_cycles * self.clocks.cycle_ns
        )
        self.stats.transactions_aborted = self.engine.transactions_aborted
        # Guarded runs are expected to be drained afterwards, and the
        # interesting diagnostics (drain-warn, drain-time watchdog
        # fires) happen there -- keep the sink open until then.
        if tel is not None and not self._guarded():
            self._finalize_telemetry()
        return self.stats

    def every(self, interval_cycles: float, callback) -> None:
        """Call ``callback()`` every *interval_cycles* simulated cycles.

        Ticks are cycle-scheduled, not thread-driven, so a wedged loop
        goes silent (the supervisor's heartbeat staleness bound relies
        on it).  A ticker reschedules while the measurement window is
        open or work is outstanding, so :meth:`drain` still ends.
        """
        queue = self.queue

        def tick() -> None:
            callback()
            if queue.now < self._window_end or self._outstanding_work():
                queue.schedule_after(interval_cycles, tick)

        queue.schedule_after(interval_cycles, tick)

    def _guarded(self) -> bool:
        return (
            self.faults is not None
            or self.invariants is not None
            or self.watchdog is not None
        )

    def _finalize_telemetry(self) -> None:
        if self._telemetry_finalized:
            return
        self._telemetry_finalized = True
        self.telemetry.finalize(
            packets_delivered=self.stats.packets_delivered,
            flits_delivered=self.stats.flits_delivered,
        )

    def drain(self, max_extra_cycles: float = 1_000_000.0) -> bool:
        """After :meth:`run`, let in-flight traffic finish.

        Injection stops at the measurement window's end, so the event
        queue empties once every outstanding transaction completes.
        Used by conservation tests and by examples that want a quiesced
        network to inspect.

        Returns True when the network quiesced (no packet buffered,
        pending, in transit or sinking) inside the cycle budget; False
        -- also recorded on :attr:`drained_clean` and as a telemetry
        ``drain-warn`` event -- when the budget ran out first, which is
        how a deadlocked run looks from the outside.

        Runs with a fault injector, invariant checker or watchdog
        attached finalize their telemetry here rather than in
        :meth:`run`, so drain-time diagnostics reach the trace; such
        runs should always be drained.
        """
        self.queue.run_until_idle(self._window_end + max_extra_cycles)
        clean = self._outstanding_work() == 0
        self.drained_clean = clean
        self.stats.transactions_aborted = self.engine.transactions_aborted
        tel = self.telemetry
        if tel is not None:
            if not clean:
                tel.on_drain_exhausted(
                    self.queue.now,
                    self.total_buffered_packets(),
                    self.total_pending_injections(),
                    self.packets_in_transit,
                )
            self._finalize_telemetry()
        return clean

    def bnf_point(self) -> BNFPoint:
        """Run and summarize as one Burton-Normal-Form point."""
        stats = self.run()
        tel = self.telemetry
        counters = tel.arbitration_summary() if tel is not None else None
        return BNFPoint(
            offered_rate=self.config.traffic.injection_rate,
            throughput=stats.delivered_flits_per_router_ns(),
            latency_ns=stats.packet_latency_ns.mean,
            transaction_latency_ns=stats.transaction_latency_ns.mean,
            packets_delivered=stats.packets_delivered,
            counters=counters,
        )

    @property
    def window_end_cycles(self) -> float:
        """End of the measurement window (warmup + measure cycles)."""
        return self._window_end

    def _in_window(self, time: float) -> bool:
        return self._window_start <= time < self._window_end

    # -- injection ------------------------------------------------------------

    def _injection_attempt(self, node: int) -> None:
        if self.queue.now < self._window_end:
            self.queue.schedule_after(
                self._injector.next_interval(),
                partial(self._injection_attempt, node),
            )
        home = self._pattern.destination(node)
        transaction = self.engine.try_start_transaction(node, home)
        if self._in_window(self.queue.now):
            if transaction is None:
                self.stats.transactions_throttled += 1
            else:
                self.stats.transactions_started += 1

    def _drain_pending(self, node: int, port: InputPort) -> None:
        queue = self._pending[(node, port)]
        if not queue:
            return
        router = self.routers[node]
        buffer = router.buffers[port]
        on_enter = self._on_enter
        drained = 0
        for packet in queue:
            if not buffer.inject(packet, entry_channel(packet.pclass)):
                break
            if on_enter:
                for hook in on_enter:
                    hook(self, node, port, packet)
            drained += 1
        if drained:
            del queue[:drained]
            self._request_launch(router)

    # -- arbitration launches ---------------------------------------------------

    def _request_launch(self, router: Router, delay: float = 0.0) -> None:
        now = self.queue.now
        time = now + delay
        window_end = router.last_launch_time + self.timing.initiation_interval
        if window_end > time:
            time = window_end
        scheduled = router.launch_scheduled_at
        if scheduled is not None and now <= scheduled <= time:
            return  # an attempt at least as early is already queued
        router.launch_scheduled_at = time
        self.queue.schedule_at(time, self._launch_attempts[router.node])

    def _try_launch(self, router: Router) -> None:
        now = self.queue.now
        if router.launch_scheduled_at is not None and router.launch_scheduled_at <= now:
            router.launch_scheduled_at = None
        if now < router.last_launch_time + self.timing.initiation_interval:
            return  # a stale attempt inside the initiation window
        launch = router.nominate(
            now,
            now,  # readiness: the output must be free *now* (no hiding)
            self.timing.fanout,
            self.timing.nominations_per_port,
        )
        if launch is None:
            # Arrivals, departures and credit releases all generate
            # wake-ups, but an output's busy window expiring is pure
            # passage of time: if every buffered packet wants a busy
            # output, nothing else will ever re-kick this router (the
            # request for that wake can be swallowed by the
            # _request_launch dedup when an earlier, doomed attempt is
            # already queued).  Re-arm at the next output-free time.
            if router.total_buffered():
                next_free = None
                for busy_until in router.output_busy_until:
                    if busy_until > now and (
                        next_free is None or busy_until < next_free
                    ):
                        next_free = busy_until
                if next_free is not None:
                    self._request_launch(router, delay=next_free - now)
            return
        tel = self.telemetry
        if tel is not None and tel.events:
            for nom in launch.nominations:
                tel.on_nomination(now, router.node, nom.row, nom.packet, nom.outputs)
        router.last_launch_time = now
        self.queue.schedule_at(
            now + self.timing.decision_latency,
            partial(self._resolve, router, launch),
        )
        # Keep the pipeline hot: try again one initiation interval on.
        self._request_launch(router, delay=self.timing.initiation_interval)

    def _resolve(self, router: Router, launch: Launch) -> None:
        now = self.queue.now
        dispatches = router.resolve(now, launch)
        tel = self.telemetry
        if tel is not None:
            if launch.dropped:
                tel.on_speculation_drops(launch.dropped)
            for dispatch in dispatches:
                tel.on_dispatch(
                    now,
                    router.node,
                    dispatch.row,
                    dispatch.packet.uid,
                    int(dispatch.plan.output),
                    router.output_tail_cycles + dispatch.service_cycles,
                )
        for dispatch in dispatches:
            self._apply_dispatch(router, dispatch)
        # Losers (and newly uncovered heads) can renominate immediately.
        self._request_launch(router)

    def _record_pass(self, router: Router, launch: Launch, live, grants, now):
        """The router's ``grant_filter`` while telemetry is attached.

        Sees each arbitration pass between the algorithm and grant
        application and records it: the anti-starvation transition the
        pass's classification made, the arbitration counters (raw
        grants), then -- after any grant faults -- the conflicts.
        Draining changes only in the ``classify`` that precedes every
        call, so comparing with the node's flag at its previous pass
        finds every transition.
        """
        tel = self.telemetry
        node = router.node
        draining = router.antistarvation.draining
        if draining != self._draining[node]:
            self._draining[node] = draining
            # The flagged nominations are the old-colored packets that
            # engaged draining; none are flagged once it ends.
            tel.on_starvation(
                now, node, sum(nom.starving for nom in live), draining
            )
        arbiter = router.arbiter
        tel.on_arbitration(
            arbiter.name, len(live), len(grants), arbiter.wasted_grants
        )
        if self._grant_faults is not None:
            grants = self._grant_faults.filter_grants(
                router, launch, live, grants, now, tel
            )
        if tel.events and len(grants) < len(live):
            tel.on_conflicts(now, node, arbiter.name, len(live) - len(grants))
        return grants

    def attach_observer(self, observer) -> None:
        """Subscribe *observer*, before (or during) a run.

        An observer is any object with any subset of four hooks:
        ``on_attach(sim)`` (called here), ``on_enter(sim, node, port,
        packet)`` (a packet entered an input buffer),
        ``on_dispatch(sim, router, dispatch)`` and ``on_delivery(sim,
        packet)``.  Hooks run in attach order.
        """
        on_attach = getattr(observer, "on_attach", None)
        if on_attach is not None:
            on_attach(self)
        for name in ("on_enter", "on_dispatch", "on_delivery"):
            hook = getattr(observer, name, None)
            if hook is not None:
                getattr(self, "_" + name).append(hook)

    def _apply_dispatch(self, router: Router, dispatch: Dispatch) -> None:
        now = self.queue.now
        plan = dispatch.plan
        if self._on_dispatch:
            for hook in self._on_dispatch:
                hook(self, router, dispatch)
        # Wake the router when the output frees: the arbitration
        # latency becomes a real bubble between packets on a busy
        # output -- the effect behind the paper's "each additional
        # pipeline cycle costs ~5% throughput under heavy load".
        free_again = self.timing.tail_cycles + dispatch.service_cycles
        self._request_launch(router, delay=free_again)

        # The departure freed a buffer slot: wake whoever feeds it.
        if plan.in_port.is_network:
            upstream = self.routers[router.upstream_node(plan.in_port)]
            self._request_launch(upstream)
        else:
            self._drain_pending(router.node, plan.in_port)

        packet = dispatch.packet
        if plan.target_channel is None:
            delivery_delay = (
                self.timing.tail_cycles
                + self.link.local_port_cycles
                + packet.flits * router.local_cycles_per_flit
            )
            self.packets_sinking += 1
            self.queue.schedule_after(
                delivery_delay, partial(self._delivered, packet)
            )
        else:
            neighbor, in_port = router.downstream[plan.output]
            arrival_delay = self.timing.tail_cycles + self._hop_latency
            self.packets_in_transit += 1
            if self._link_faults_active:
                self.queue.schedule_after(
                    arrival_delay,
                    partial(
                        self._link_arrival,
                        neighbor,
                        in_port,
                        plan.target_channel,
                        packet,
                        0,
                    ),
                )
            else:
                self.queue.schedule_after(
                    arrival_delay,
                    partial(
                        self._arrive, neighbor, in_port, plan.target_channel, packet
                    ),
                )

    def _arrive(self, router: Router, port: InputPort, channel, packet: Packet) -> None:
        self.packets_in_transit -= 1
        router.buffers[port].commit(packet, channel)
        if self._on_enter:
            for hook in self._on_enter:
                hook(self, router.node, port, packet)
        packet.waiting_since = self.queue.now
        self._request_launch(router)

    # -- fault injection ------------------------------------------------------

    def _link_arrival(
        self, router: Router, port: InputPort, channel, packet: Packet, attempt: int
    ) -> None:
        """Arrival through a faulty link: deliver, retry, or drop.

        Models the 21364's link-level retransmission protocol with the
        injector's bounded-retry policy: a faulted traversal is resent
        after an exponential backoff (the packet stays logically "on
        the link" -- its downstream reservation is held), and a packet
        that exhausts its retries is dropped with a recorded reason.
        """
        fault = self.faults.link_fault(packet)
        if fault is None:
            self._arrive(router, port, channel, packet)
            return
        now = self.queue.now
        self.stats.link_faults += 1
        tel = self.telemetry
        if tel is not None:
            tel.on_link_fault(now, router.node, packet.uid, fault, attempt)
        retry = self.faults.retry
        if attempt >= retry.max_retries:
            self._drop_packet(
                router, port, channel, packet, REASON_LINK_RETRIES_EXHAUSTED
            )
            return
        self.stats.link_retries += 1
        if tel is not None:
            tel.on_link_retry()
        # Jittered backoff (seeded, from the injector's dedicated
        # stream): packets faulted in the same burst de-synchronize
        # instead of retrying -- and re-colliding -- in lockstep.
        self.queue.schedule_after(
            self.faults.retry_backoff_cycles(attempt) + self._hop_latency,
            partial(self._link_arrival, router, port, channel, packet, attempt + 1),
        )

    def _drop_packet(
        self, router: Router, port: InputPort, channel, packet: Packet, reason: str
    ) -> None:
        """Remove a packet from the accounting, with its reason."""
        router.buffers[port].cancel_reservation(channel)
        self.packets_in_transit -= 1
        self.total_dropped += 1
        self.stats.packets_dropped += 1
        reasons = self.stats.drops_by_reason
        reasons[reason] = reasons.get(reason, 0) + 1
        tel = self.telemetry
        if tel is not None:
            tel.on_drop(
                self.queue.now, router.node, packet.uid, packet.pclass.label, reason
            )
        # Let the owning transaction abort (frees the MSHR) so the rest
        # of the workload keeps flowing.
        self.engine.on_packet_dropped(packet)
        # The cancelled reservation freed a slot: wake the upstream
        # router that feeds this input port.
        self._request_launch(self.routers[router.upstream_node(port)])

    # -- watchdog remediation -------------------------------------------------

    def recovery_kick(self) -> None:
        """Re-arm arbitration launches everywhere (watchdog remediation).

        A lost wake-up wedges the network with every router waiting for
        a launch request that never comes; re-requesting a launch at
        every router (and re-draining every injection queue) is exactly
        the event such a bug swallowed.  A true protocol deadlock is
        unaffected -- the kicked launches find no grantable nomination
        -- which is what lets the watchdog tell the two apart.
        """
        for router in self.routers:
            self._request_launch(router)
        for node, port in self._pending:
            self._drain_pending(node, port)

    # -- delivery & statistics ------------------------------------------------------

    def _delivered(self, packet: Packet) -> None:
        now = self.queue.now
        self.packets_sinking -= 1
        self.total_delivered += 1
        if self._on_delivery:
            for hook in self._on_delivery:
                hook(self, packet)
        tel = self.telemetry
        if tel is not None:
            tel.on_delivery(
                now,
                packet.destination,
                packet.uid,
                packet.pclass.label,
                now - packet.injected_at,
                packet.hops,
            )
        if self._in_window(now):
            self.stats.packets_delivered += 1
            self.stats.flits_delivered += packet.flits
            latency_ns = (now - packet.injected_at) * self.clocks.cycle_ns
            self.stats.packet_latency_ns.add(latency_ns)
            self.stats.latency_sample.add(latency_ns)
        self.engine.on_packet_delivered(packet)

    def _transaction_complete(self, transaction) -> None:
        if self._in_window(self.queue.now):
            self.stats.transactions_completed += 1
            latency_ns = (
                self.queue.now - transaction.started_at
            ) * self.clocks.cycle_ns
            self.stats.transaction_latency_ns.add(latency_ns)

    # -- debugging helpers --------------------------------------------------------------

    def total_buffered_packets(self) -> int:
        return sum(router.total_buffered() for router in self.routers)

    def total_pending_injections(self) -> int:
        return sum(len(queue) for queue in self._pending.values())

    def _outstanding_work(self) -> int:
        """Packets still owed a delivery or drop (conservation residue)."""
        return (
            self.total_buffered_packets()
            + self.total_pending_injections()
            + self.packets_in_transit
            + self.packets_sinking
        )


def simulate(config: SimulationConfig) -> NetworkStats:
    """Convenience one-shot: build a simulator and run it."""
    return NetworkSimulator(config).run()


def simulate_bnf_point(config: SimulationConfig) -> BNFPoint:
    """Convenience one-shot returning a BNF summary point."""
    return NetworkSimulator(config).bnf_point()
